import gc
import math
import weakref
from functools import lru_cache

import numpy as np
import pytest
import scipy.integrate as sint
from hypothesis import given, settings
from hypothesis import strategies as st

from cknlab import constants as cn
from cknlab.corpus import build_corpus, corpus_geometries
from cknlab.errors import (
    InvalidArgument,
    InvalidExponent,
    NotMinimal,
    ParameterConflict,
    PreconditionViolated,
)
from cknlab.geometry import (
    AmbientSpace,
    Domain,
    ball_domain,
    disk_mesh,
    weighted_integral,
)
from cknlab.geometry.fields import make_field
from cknlab import inequalities as iq

CONSTANT_ONE = make_field("polynomial", (1.0, 0, 0, 0, 0, 0),
                          boundary_vanishing=False)
CONE = make_field("radial_power", (1.0,))


def _ckn_options(params):
    """``ckn`` options whose (sigma, a) closure rebuilds ``params`` exactly."""
    return {key: getattr(params, key)
            for key in ("p", "q", "alpha", "beta", "sigma", "a")}


# ---------------------------------------------------------------------------
# equality cases with closed-form values
# ---------------------------------------------------------------------------

def test_divergence_identity_flat_disk(disk_domain):
    rep = iq.evaluate("hardy", disk_domain, CONSTANT_ONE,
                      {"p": 1.0, "gamma": 0.0})
    assert abs(rep.ratio - 1.0) < 1e-3
    # closed forms: k vol = 2 pi, boundary flux = 2 pi R^2
    assert rep.lhs_terms["weighted_norm"] == pytest.approx(2 * math.pi,
                                                           rel=2e-3)
    assert rep.rhs_terms["boundary_term"] == pytest.approx(2 * math.pi,
                                                           rel=2e-3)
    assert rep.lhs_terms["perp_term"] == 0.0


def test_cone_equality_flat_disk(disk_domain):
    rep = iq.evaluate("hardy", disk_domain, CONE, {"p": 1.0, "gamma": 1.0})
    assert abs(rep.ratio - 1.0) < 5e-3
    # closed forms: both sides equal pi R
    assert rep.lhs_total == pytest.approx(math.pi, rel=5e-3)
    assert rep.rhs_total == pytest.approx(math.pi, rel=5e-3)


def test_sphere_constant_field_equality(sphere_domain):
    rep = iq.evaluate("hardy", sphere_domain, CONSTANT_ONE,
                      {"p": 2.0, "gamma": 0.0})
    assert rep.ratio <= 1.0 + rep.slack
    assert rep.ratio > 0.9
    assert rep.rhs_terms["boundary_term"] == 0.0


def test_signed_evaluator_routes_p_equal_one(disk_domain):
    rep = iq.evaluate("hardy_signed", disk_domain, CONE,
                      {"p": 1.0, "gamma": 1.0})
    assert rep.id == "hardy"
    assert any("routed" in n for n in rep.notes)


def test_signed_evaluator_near_one(disk_domain):
    rep = iq.evaluate("hardy_signed", disk_domain, CONE,
                      {"p": 1.0001, "gamma": 1.0})
    assert rep.satisfied
    assert abs(rep.ratio - 1.0) < 2e-2


# ---------------------------------------------------------------------------
# one-dimensional radial oracles (independent quadrature path)
# ---------------------------------------------------------------------------

def radial_disk_integral(fn):
    """Integral over the unit disk of a radial integrand, 1-D quadrature."""
    val, _ = sint.quad(lambda r: fn(r) * 2 * math.pi * r, 0.0, 1.0,
                       points=[0.0], limit=200)
    return val


def test_hardy_signed_terms_against_radial_oracle(disk_domain):
    p, gamma = 2.0, 1.0
    rep = iq.evaluate("hardy_signed", disk_domain, CONE,
                      {"p": p, "gamma": gamma})
    psi = lambda r: 1.0 - r
    lhs1 = radial_disk_integral(lambda r: psi(r) ** p / r ** gamma)
    c1 = (2 - gamma) ** p / p ** p
    assert rep.lhs_terms["weighted_norm"] == pytest.approx(c1 * lhs1,
                                                           rel=1e-3)
    # |grad psi| = 1, H = 0 on the flat disk
    rhs = radial_disk_integral(lambda r: r ** (p - gamma) * 1.0)
    assert rep.rhs_terms["gradient_term"] == pytest.approx(rhs, rel=2e-3)
    assert rep.satisfied


def test_weighted_sobolev_terms_against_radial_oracle(disk_domain):
    p, alpha = 1.0, 0.5
    rep = iq.evaluate("weighted_sobolev", disk_domain, CONE,
                      {"p": p, "alpha": alpha})
    psi = lambda r: 1.0 - r
    p_star = 2 * p / (2 - p)
    crit = radial_disk_integral(lambda r: psi(r) ** p_star / r ** (p_star * alpha))
    s_const = rep.constants["sobolev_const"]
    assert rep.lhs_terms["critical_norm"] == pytest.approx(
        crit ** (p / p_star) / s_const, rel=1e-3)
    grad = radial_disk_integral(lambda r: 1.0 / r ** (p * alpha))
    assert rep.rhs_terms["gradient_term"] == pytest.approx(
        rep.constants["grad_coeff"] * grad, rel=1e-3)
    assert rep.lhs_terms["perp_sq_term"] == pytest.approx(0.0, abs=1e-10)
    assert rep.satisfied


def test_sobolev_terms_against_radial_oracle(disk_domain):
    rep = iq.evaluate("sobolev_hs", disk_domain, CONE, {"p": 1.0})
    # p = 1, k = 2: critical exponent 2; int psi^2 = pi/6, int |grad| = pi
    assert rep.lhs_terms["critical_norm"] == pytest.approx(
        math.sqrt(math.pi / 6), rel=1e-3)
    assert rep.rhs_terms["gradient_term"] == pytest.approx(
        rep.constants["sobolev_const"] * math.pi, rel=2e-3)
    assert rep.satisfied


def test_nash_on_disk_against_radial_oracle(ball_domain_euclid):
    bump = make_field("radial_bump", (1.0,))
    rep = iq.evaluate("nash", ball_domain_euclid, bump, {})
    tau = 1.0

    def profile(r):
        return math.exp(tau * (1 - 1 / (1 - r ** 2))) if r < 1 else 0.0

    def dprofile(r):
        if r >= 1:
            return 0.0
        return profile(r) * tau * (-2 * r / (1 - r ** 2) ** 2)

    ball = lambda fn: sint.quad(lambda r: fn(r) * 4 * math.pi * r ** 2,
                                0, 1, limit=200)[0]
    l2 = ball(lambda r: profile(r) ** 2) ** 0.5
    grad = ball(lambda r: dprofile(r) ** 2)
    l1 = ball(profile)
    assert rep.lhs_terms["interp_norm"] == pytest.approx(l2, rel=1e-3)
    k = 3
    expected_rhs = (rep.constants["rhs_const"] * grad ** (k / (2 * k + 4))
                    * l1 ** (2 / (k + 2)))
    assert rep.rhs_terms["product_bound"] == pytest.approx(expected_rhs,
                                                           rel=1e-3)
    assert rep.satisfied


# ---------------------------------------------------------------------------
# homogeneity
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("kind,dof", [
    ("radial_power", (1.5,)),
    ("radial_bump", (0.8,)),
    ("polynomial", (0.4, 0.2, -0.1, 0.3, 0.0, 0.1)),
])
def test_ratio_homogeneous_in_the_field(disk_domain, kind, dof):
    base = make_field(kind, dof)
    scaled = base.scaled(7.3)
    for evaluator in (
            lambda f: iq.evaluate("hardy", disk_domain, f,
                                  {"p": 1.5, "gamma": 0.5}),
            lambda f: iq.evaluate("sobolev_hs", disk_domain, f, {"p": 1.2}),
            lambda f: iq.evaluate("ckn_single", disk_domain, f,
                                  {"p": 1.2, "alpha": 0.1, "sigma": 0.6})):
        r1 = evaluator(base).ratio
        r2 = evaluator(scaled).ratio
        assert abs(r1 - r2) < 1e-10 * max(1.0, abs(r1))


# the examples of one id run in a row: keep that id's domain only
@lru_cache(maxsize=1)
def _first_corpus_case(id):
    """The first seed-0 corpus case of ``id``, its domain and its report."""
    case = next(c for c in build_corpus(0) if c.inequality == id)
    domain = corpus_geometries()[case.geometry]()
    return case, domain, iq.evaluate(id, domain, case.field, case.options)


@pytest.mark.parametrize("id", iq.CATALOG_IDS)
@settings(max_examples=10, deadline=None)
@given(size=st.floats(1e-3, 1e3), negative=st.booleans())
def test_ratio_homogeneous_on_every_catalog_id(id, size, negative):
    # hardy_signed needs a nonnegative test function
    case, domain, base = _first_corpus_case(id)
    amplitude = -size if negative and id != "hardy_signed" else size
    report = iq.evaluate(id, domain, case.field.scaled(amplitude),
                         case.options)
    assert abs(report.ratio - base.ratio) <= 1e-10 * abs(base.ratio)
    assert (report.satisfied, report.degenerate) == (base.satisfied,
                                                     base.degenerate)


# rigid motions of a disk together with the pole: radial members on a
# hardy, a Sobolev and two weighted ids
MOTION_CASES = [
    (kind, id, options)
    for kind in ("radial_power", "radial_bump")
    for id, options in (("hardy", {"p": 1.5, "gamma": 0.5}),
                        ("hardy", {"p": 1.0, "gamma": 1.0}),
                        ("sobolev_hs", {"p": 1.2}),
                        ("ckn_single", {"p": 1.2, "alpha": 0.1,
                                        "sigma": 0.6}),
                        ("weighted_sobolev", {"p": 1.3, "alpha": 0.2}))]


@lru_cache(maxsize=None)
def _centred_disk_reports():
    domain = Domain(disk_mesh(1.0, rings=8), AmbientSpace.euclidean(3))
    return [iq.evaluate(id, domain, make_field(kind), options)
            for kind, id, options in MOTION_CASES]


@settings(max_examples=6, deadline=None)
@given(quaternion=st.lists(st.floats(-1.0, 1.0), min_size=4, max_size=4)
       .filter(lambda q: np.linalg.norm(q) > 0.1),
       shift=st.lists(st.floats(-2.0, 2.0), min_size=3, max_size=3))
def test_ratio_invariant_under_rigid_motion_with_the_pole(quaternion, shift):
    w, x, y, z = np.asarray(quaternion) / np.linalg.norm(quaternion)
    Q = np.array([[1 - 2 * (y * y + z * z), 2 * (x * y - w * z),
                   2 * (x * z + w * y)],
                  [2 * (x * y + w * z), 1 - 2 * (x * x + z * z),
                   2 * (y * z - w * x)],
                  [2 * (x * z - w * y), 2 * (y * z + w * x),
                   1 - 2 * (x * x + y * y)]])
    domain = Domain(disk_mesh(1.0, rings=8, center=shift, axes=Q[:2]),
                    AmbientSpace.euclidean(3, pole=shift))
    for (kind, id, options), base in zip(MOTION_CASES,
                                         _centred_disk_reports()):
        report = iq.evaluate(id, domain, make_field(kind), options)
        # the grading may flip cells: equal within the error estimates
        assert abs(report.ratio - base.ratio) <= max(
            report.quadrature_error, base.quadrature_error), (kind, id)


# ---------------------------------------------------------------------------
# reduction consistency
# ---------------------------------------------------------------------------

def test_weighted_alpha_zero_matches_sobolev(disk_domain):
    rep_w = iq.evaluate("weighted_sobolev", disk_domain, CONE,
                        {"p": 1.3, "alpha": 0.0})
    rep_s = iq.evaluate("sobolev_hs", disk_domain, CONE, {"p": 1.3})
    s_const = rep_s.constants["sobolev_const"]
    a_p = cn.pair_power_upper(1.3)
    # same critical integral and same gradient integral underneath
    assert rep_w.lhs_terms["critical_norm"] * s_const == pytest.approx(
        rep_s.lhs_terms["critical_norm"], rel=1e-10)
    assert rep_w.lhs_terms["perp_sq_term"] == 0.0
    assert rep_w.lhs_terms["perp_p_term"] == 0.0
    assert rep_w.rhs_terms["gradient_term"] / rep_w.constants["grad_coeff"] \
        == pytest.approx(rep_s.rhs_terms["gradient_term"] / s_const,
                         rel=1e-10)
    assert rep_w.ratio * a_p == pytest.approx(rep_s.ratio, rel=1e-10)


def test_ckn_single_matches_ckn_at_a_one(disk_domain):
    params = cn.solve_balance(k=2, p=1.2, alpha=0.1, sigma=0.6)
    rep_general = iq.evaluate("ckn", disk_domain, CONE, _ckn_options(params))
    rep_single = iq.evaluate("ckn_single", disk_domain, CONE,
                             {"p": 1.2, "alpha": 0.1, "sigma": 0.6})
    assert rep_single.lhs_terms["interp_norm"] == pytest.approx(
        rep_general.lhs_terms["interp_norm"], rel=1e-12)
    assert rep_single.rhs_terms["product_bound"] == pytest.approx(
        rep_general.rhs_terms["product_bound"], rel=1e-12)
    assert rep_single.ratio == pytest.approx(rep_general.ratio, rel=1e-12)


def test_ckn_at_a_zero_is_exact_identity(disk_domain):
    params = cn.solve_balance(k=2, p=1.2, q=1.5, alpha=0.1, beta=0.4,
                              sigma=0.5, a=0.0)
    rep = iq.evaluate("ckn", disk_domain, CONE, _ckn_options(params))
    # gamma = beta and t = q: both sides are the same integral and the
    # effective constant is exactly 1
    assert rep.constants["rhs_const"] == 1.0
    assert rep.ratio == pytest.approx(1.0, rel=1e-10)


def test_derived_specializations_match_base(ball_domain_euclid):
    bump = make_field("radial_bump", (1.2,))
    for which, kwargs in (
            ("nash", {}),
            ("heisenberg_pauli_weyl", {}),
            ("gagliardo_nirenberg", {"p": 1.5, "q": 1.2, "a": 0.4}),
            ("hardy_derived", {"p": 1.4, "alpha": 0.2}),
            ("mss_weighted", {"p": 1.5, "gamma": 0.5})):
        params = iq.derived_parameters(which, 3, **kwargs)
        rep_d = iq.evaluate(which, ball_domain_euclid, bump, kwargs)
        rep_b = iq.evaluate("ckn", ball_domain_euclid, bump,
                            _ckn_options(params))
        assert rep_d.lhs_total == pytest.approx(rep_b.lhs_total, rel=1e-10)
        assert rep_d.rhs_total == pytest.approx(rep_b.rhs_total, rel=1e-10)
        assert rep_d.satisfied


def test_mss_collapses_to_sobolev(disk_domain):
    # weight exponent 0 at the critical exponent: the interp norm is the
    # (1/p*)-power of the same critical integral the Sobolev report uses
    p = 1.3
    rep_m = iq.evaluate("mss_weighted", disk_domain, CONE,
                        {"p": p, "gamma": 0.0})
    rep_s = iq.evaluate("sobolev_hs", disk_domain, CONE, {"p": p})
    # interp norm is I^(1/p*), the Sobolev left side is I^(p/p*)
    assert rep_m.lhs_terms["interp_norm"] ** p == pytest.approx(
        rep_s.lhs_terms["critical_norm"], rel=1e-9)


def test_hpw_requires_dimension_three(disk_domain):
    with pytest.raises(ParameterConflict):
        iq.evaluate("heisenberg_pauli_weyl", disk_domain, CONE, {})


def test_derived_rejects_conflicting_overrides(ball_domain_euclid):
    bump = make_field("radial_bump", (1.0,))
    with pytest.raises(ParameterConflict):
        iq.evaluate("nash", ball_domain_euclid, bump, {"p": 3.0})


# ---------------------------------------------------------------------------
# the interpolation step as a standalone inequality
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("p,alpha,sigma", [
    (1.0, 0.0, 0.5), (1.3, 0.2, 0.9), (1.2, -0.5, 0.3)])
def test_holder_interpolation_standalone(disk_domain, p, alpha, sigma):
    params = cn.solve_balance(k=2, p=p, alpha=alpha, sigma=sigma)
    s = float(params.s)
    c = float(params.c)
    p_star = float(params.p_star)
    field = CONE
    lhs = weighted_integral(disk_domain,
                            lambda b: np.abs(b.psi) ** s, s * sigma,
                            field=field).value
    hardy_part = weighted_integral(
        disk_domain, lambda b: np.abs(b.psi) ** p, p * (alpha + 1.0),
        "h_power_times_hprime", field=field).value
    crit_part = weighted_integral(
        disk_domain, lambda b: np.abs(b.psi) ** p_star, p_star * alpha,
        field=field).value
    bound = hardy_part ** (1.0 - c) * crit_part ** c  # h'(r0) = 1 here
    assert lhs <= bound * (1.0 + 1e-9)


# ---------------------------------------------------------------------------
# degenerate and error paths
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("id", [id for id in iq.CATALOG_IDS
                                if iq.CATALOG[id].required])
def test_evaluate_names_a_missing_option(disk_domain, id):
    required = iq.CATALOG[id].required
    options = {key: 1.0 for key in required[:-1]}
    with pytest.raises(InvalidArgument,
                       match=rf"{id} is missing key\(s\) {required[-1]}$"):
        iq.evaluate(id, disk_domain, CONE, options)


def test_evaluate_names_every_missing_option(disk_domain):
    with pytest.raises(InvalidArgument, match=r"missing key\(s\) p, gamma$"):
        iq.evaluate("hardy", disk_domain, CONE, {})


def test_zero_field_is_vacuous(disk_domain):
    zero = make_field("polynomial", (0, 0, 0, 0, 0, 0))
    rep = iq.evaluate("hardy", disk_domain, zero, {"p": 1.0, "gamma": 1.0})
    assert rep.degenerate
    assert rep.satisfied
    assert rep.ratio == 0.0


def test_signed_requires_nonnegative(disk_domain):
    signed = make_field("polynomial", (0.0, 1.0, 0, 0, 0, 0))
    with pytest.raises(PreconditionViolated):
        iq.evaluate("hardy_signed", disk_domain, signed,
                    {"p": 1.5, "gamma": 0.5})


def test_gamma_at_dimension_rejected(disk_domain):
    with pytest.raises(InvalidExponent):
        iq.evaluate("hardy", disk_domain, CONE, {"p": 1.0, "gamma": 2.0})


def test_minimal_flag_on_sphere_rejected(sphere_domain):
    with pytest.raises(NotMinimal):
        iq.evaluate("hardy", sphere_domain, CONSTANT_ONE,
                    {"p": 1.0, "gamma": 0.0, "minimal": True})


def test_minimal_flag_on_disk_allowed(disk_domain):
    rep = iq.evaluate("hardy", disk_domain, CONE,
                      {"p": 2.0, "gamma": 1.0, "minimal": True})
    assert rep.constants["split_coeff"] == 1.0
    assert rep.satisfied


def test_sobolev_needs_vanishing_field(disk_domain):
    with pytest.raises(PreconditionViolated):
        iq.evaluate("sobolev_hs", disk_domain, CONSTANT_ONE, {"p": 1.0})


def test_radial_power_outside_w1p_is_refused(disk_domain, sphere_domain,
                                            ball_domain_euclid):
    # |grad (1 - r)^m|^p integrates at the rim r = 1 only for m > 1 - 1/p
    half = make_field("radial_power", (0.5,))
    for id, domain, options in (
            ("hardy", disk_domain, {"p": 2.0, "gamma": 1.0}),
            # p = 2 from the exponent tuple
            ("gagliardo_nirenberg", ball_domain_euclid, {})):
        with pytest.raises(PreconditionViolated, match="non-integrable"):
            iq.evaluate(id, domain, half, options)
    rep = iq.evaluate("hardy", disk_domain, half, {"p": 1.0, "gamma": 1.0})
    assert math.isfinite(rep.ratio) and rep.ratio > 0.9
    assert iq.evaluate("sobolev_hs", disk_domain, half, {"p": 1.5}).satisfied
    # on a closed surface the rim lies beyond the domain
    rep = iq.evaluate("hardy", sphere_domain,
                      make_field("radial_power", (0.5,),
                                 boundary_vanishing=False),
                      {"p": 2.0, "gamma": 1.0})
    assert rep.satisfied


def test_hadamard_requires_flat_ambient(geodesic_domain):
    with pytest.raises(PreconditionViolated):
        iq.evaluate("hardy_hadamard", geodesic_domain, CONE,
                    {"p": 1.0, "gamma": 0.5})


def test_domain_outside_ball_rejected(disk_domain):
    with pytest.raises(PreconditionViolated):
        iq.evaluate("hardy", disk_domain, CONE,
                    {"p": 1.0, "gamma": 0.5, "r0": 0.5})


# ---------------------------------------------------------------------------
# diagnostics
# ---------------------------------------------------------------------------

def test_signed_boundary_no_larger_than_unsigned(tilted_disk_domain):
    f = make_field("polynomial", (1.2, 0.1, 0.0, 0.05, 0, 0),
                   boundary_vanishing=False)
    p, gamma = 1.8, 0.7
    signed = iq.evaluate("hardy_signed", tilted_disk_domain, f,
                         {"p": p, "gamma": gamma})
    unsigned = iq.evaluate("hardy", tilted_disk_domain, f,
                           {"p": p, "gamma": gamma})
    assert signed.rhs_terms["boundary_term"] <= \
        unsigned.rhs_terms["boundary_term"] + 1e-12


def test_monotone_refinement_smooth_configuration(euclid3):
    from geometry_checks import refinement_study
    dom = Domain(disk_mesh(1.0, rings=4), euclid3)
    rows, monotone = refinement_study("hardy", dom, CONE,
                                      {"p": 1.0, "gamma": 1.0}, levels=3)
    assert monotone
    errs = [abs(r[1] - 1.0) for r in rows]
    assert errs[-1] < errs[0]


def test_report_serialization_roundtrip(disk_domain):
    import json
    rep = iq.evaluate("hardy", disk_domain, CONE, {"p": 1.0, "gamma": 1.0})
    payload = json.dumps(rep.to_dict(), sort_keys=True)
    back = json.loads(payload)
    assert back["id"] == "hardy"
    assert back["satisfied"] is True


def test_dilation_invariance_minimal_domain(euclid3):
    # scaling a flat minimal domain leaves the Sobolev ratio unchanged
    ratios = []
    for radius, rings in ((0.5, 12), (1.0, 12), (2.0, 12)):
        dom = Domain(disk_mesh(radius, rings=rings), euclid3)
        rep = iq.evaluate("sobolev_hs", dom, CONE, {"p": 1.2})
        ratios.append(rep.ratio)
    assert max(ratios) - min(ratios) < 1e-6 * max(ratios)


def test_sobolev_side_conditions_unverified_when_support_large(warped3):
    from cknlab.geometry import geodesic_disk
    dom = Domain(geodesic_disk(warped3, 1.2, cells=(8, 16)))
    rep = iq.evaluate("sobolev_hs", dom, CONE,
                      {"p": 1.0, "inj_radius": math.pi})
    assert rep.hypothesis_status["status"] == "unverified"
    assert any("support" in reason
               for reason in rep.hypothesis_status["reasons"])


def test_sobolev_side_conditions_verified_small_support(geodesic_domain):
    rep = iq.evaluate("sobolev_hs", geodesic_domain, CONE,
                      {"p": 1.0, "inj_radius": math.pi})
    assert rep.hypothesis_status["status"] == "verified"
    assert rep.satisfied


def test_geodesic_disk_signed_hardy_minimal(geodesic_domain):
    bump = make_field("radial_bump", (1.0,))
    rep = iq.evaluate("hardy_signed", geodesic_domain, bump,
                      {"p": 1.5, "gamma": 1.0, "r0": 0.55})
    assert rep.satisfied
    assert abs(rep.lhs_terms["perp_term"]) < 1e-12  # radial cone directions


def test_weighted_sobolev_tilted_plane_perp_terms(tilted_disk_domain):
    bump = make_field("radial_bump", (1.0,))
    rep = iq.evaluate("weighted_sobolev", tilted_disk_domain, bump,
                      {"p": 1.2, "alpha": 0.3})
    assert rep.lhs_terms["perp_sq_term"] > 0
    assert rep.lhs_terms["perp_p_term"] > 0
    assert rep.satisfied


# ---------------------------------------------------------------------------
# one field evaluation per site table and evaluation
# ---------------------------------------------------------------------------

def _record_at_sites(monkeypatch):
    from cknlab.geometry.fields import BoundField
    seen = []
    real = BoundField.at_sites

    def recording(self, batch):
        seen.append(batch)
        return real(self, batch)

    monkeypatch.setattr(BoundField, "at_sites", recording)
    return seen


def test_field_bound_once_per_site_table(disk_domain, monkeypatch,
                                         bindings):
    seen = _record_at_sites(monkeypatch)
    rep = iq.evaluate("hardy", disk_domain, CONE, {"p": 1.0, "gamma": 1.0})
    # p = 1, gamma = 1 reads band 1 and the pole's cells (left side) and
    # band 0 (right side, sup); band 1's views of band 0's tables take the
    # values bound on band 0, so the field meets band 0's tables, band 1's
    # graded pieces and the domain's pole pair, once each
    band1 = disk_domain.sites(1.0)
    views = band1[:2]
    tables = disk_domain.sites(0.0) + band1[2:4] + disk_domain._tables["pole"]
    assert len(seen) == len(tables) == 6
    assert all(any(batch is table for table in tables) for batch in seen)
    assert len({id(batch) for batch in seen}) == 6
    assert not any(batch is view for batch in seen for view in views)
    # one binding holds the values, and it ends with the evaluation
    assert len(bindings) == 1 and bindings[0]() is None
    assert abs(rep.ratio - 1.0) < 5e-3


def test_binding_freed_after_a_raising_evaluation(disk_domain, bindings):
    negative = make_field("polynomial", (-1.0, 0, 0, 0, 0, 0),
                          boundary_vanishing=False)
    with pytest.raises(PreconditionViolated):
        iq.evaluate("hardy_signed", disk_domain, negative,
                    {"p": 2.0, "gamma": 0.5})
    assert len(bindings) == 1 and bindings[0]() is None


def test_an_evaluated_domain_is_freed_without_the_cyclic_collector(euclid3):
    enabled = gc.isenabled()
    gc.disable()
    try:
        domain = Domain(disk_mesh(1.0, rings=4), euclid3)
        ref = weakref.ref(domain)
        for field in (CONE, make_field("random_smooth", seed=1)):
            iq.evaluate("hardy", domain, field, {"p": 1.0, "gamma": 1.0})
        del domain
        assert ref() is None
    finally:
        if enabled:
            gc.enable()


def test_threads_sharing_a_domain_match_serial(euclid3, monkeypatch,
                                               bindings):
    import sys
    import threading
    # more threads than cores, each with a field of its own
    fields = [make_field("radial_power", (1.0 + 0.5 * i,)) for i in range(4)]
    options = {"p": 1.0, "gamma": 1.0}
    serial = [iq.evaluate("hardy", Domain(disk_mesh(1.0, rings=8), euclid3),
                          f, options).to_dict() for f in fields]
    shared = Domain(disk_mesh(1.0, rings=8), euclid3)
    shared.sites(0.0), shared.sites(1.0), shared.boundary_sites()
    seen = _record_at_sites(monkeypatch)
    barrier = threading.Barrier(len(fields))
    results = [[] for _ in fields]

    def work(i):
        barrier.wait()
        for _ in range(6):
            results[i].append(
                iq.evaluate("hardy", shared, fields[i], options).to_dict())

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(i,))
                   for i in range(len(fields))]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    for i, reports in enumerate(results):
        assert reports == [serial[i]] * 6
    # each evaluation binds its own field: 6 tables each (band 0, band 1's
    # graded pieces and the pole's cells), as serially
    assert len(seen) == len(fields) * 6 * 6
    assert [ref() for ref in bindings] == [None] * len(bindings)


# the pole ring's weights depend on gamma itself, not only on its band

def _coarse_ball():
    return Domain(ball_domain(AmbientSpace.euclidean(3), 1.0,
                              cells=(2, 2, 4)))


def test_distinct_gammas_grow_no_domain_cache(bindings):
    ball = _coarse_ball()
    for gamma in np.linspace(-0.95, 2.95, 50):
        iq.evaluate("hardy", ball, CONE, {"p": 1.0, "gamma": float(gamma)})
    assert len(bindings) == 50
    assert [ref() for ref in bindings] == [None] * 50
    assert set(ball._tables) == set(ball.grading) | {"pole", "b"}
    assert set(ball.grading) <= set(range(5))
    # one pole pair for the domain, each table weighted for one of the last
    # evaluation's exponents (gamma on the left side, gamma - p on the right)
    for table in ball._tables["pole"]:
        (last, _), weights = table.weight_slot[0]
        assert last in (float(gamma), float(gamma) - 1.0)
        assert len(weights) == len(table.density)


def test_threads_with_distinct_gammas_match_serial(bindings):
    import sys
    import threading
    gammas = [-0.5, 0.7, 1.9, 2.9]
    fields = [make_field("radial_power", (1.0 + 0.5 * i,)) for i in range(4)]
    runs = [(f, {"p": 1.0, "gamma": g}) for f, g in zip(fields, gammas)]
    serial = [iq.evaluate("hardy", _coarse_ball(), f, o).to_dict()
              for f, o in runs]
    shared = _coarse_ball()
    barrier = threading.Barrier(len(runs))
    results = [[] for _ in runs]

    def work(i):
        barrier.wait()
        for _ in range(3):
            results[i].append(iq.evaluate("hardy", shared, *runs[i]).to_dict())

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(i,))
                   for i in range(len(runs))]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    for i, reports in enumerate(results):
        assert reports == [serial[i]] * 3
    assert [ref() for ref in bindings] == [None] * len(bindings)
