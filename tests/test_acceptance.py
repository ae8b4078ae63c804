"""Acceptance gate: every criterion at its stated tolerance.

Each test prints one PASS/FAIL line.  Convergence orders are measured by a
least-squares fit of log2(error) against the level; a genuinely first-order
scheme approaches slope 1 from below, so observed order >= 1 is asserted
with the standard 0.05 estimator allowance together with the equivalent
error-halving requirement.
"""

import math
import time
from fractions import Fraction

import numpy as np
from scipy.optimize import minimize_scalar

from cknlab import constants as cn
from cknlab import inequalities as iq
from cknlab.corpus import build_corpus, corpus_geometries, run_corpus
from cknlab.geometry import AmbientSpace, Domain, disk_mesh, sphere_mesh
from cknlab.geometry.fields import make_field
from cknlab.warp import CurvatureProfile, solve_warping
from geometry_checks import (comparison_margin, divergence_residuals,
                             observed_order)

ORDER_ALLOWANCE = 0.05  # least-squares order estimate of an O(h^1) scheme


def _ckn_options(params):
    """``ckn`` options whose (sigma, a) closure rebuilds ``params`` exactly."""
    return {key: getattr(params, key)
            for key in ("p", "q", "alpha", "beta", "sigma", "a")}


def _report(name, ok, detail):
    print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    assert ok, f"{name}: {detail}"


# ---------------------------------------------------------------------------

def test_criterion_1_ode_fidelity():
    start = time.perf_counter()
    worst = 0.0
    for b in (0.5, 1.0, 2.0):
        r_max = 0.9 * math.pi / (2.0 * b)
        w = solve_warping(CurvatureProfile.constant(b * b), r_max,
                          step=1e-3, force_ode=True)
        ts = np.linspace(0.0, r_max, 500)
        worst = max(worst, float(np.max(np.abs(w.h(ts) - np.sin(b * ts) / b))))
    elapsed = time.perf_counter() - start
    _report("criterion 1 (ODE fidelity)",
            worst <= 1e-8 and elapsed < 1.0,
            f"max |h - closed form| = {worst:.2e}, runtime {elapsed:.2f} s")


def test_criterion_2_power_inequality():
    rng = np.random.default_rng(20240802)
    n = 10 ** 5
    p = rng.uniform(1.0, 6.0, size=n)
    a = rng.uniform(0.0, 10.0, size=n)
    b = rng.uniform(0.0, 10.0, size=n)
    s = a ** p + b ** p
    lower = np.minimum(1.0, 2.0 ** ((p - 2.0) / 2.0)) * s
    upper = np.maximum(1.0, 2.0 ** ((p - 2.0) / 2.0)) * s
    middle = (a * a + b * b) ** (p / 2.0)
    scale = np.maximum(1.0, middle)
    violation = max(float(np.max((lower - middle) / scale)),
                    float(np.max((middle - upper) / scale)))
    _report("criterion 2 (power inequality)",
            violation <= 1e-12,
            f"{n} samples, worst bound violation {violation:.2e}")


def test_criterion_3_constant_optimality():
    worst_z = 0.0
    for k, p in ((3, 1), (3, 2), (4, 2), (5, 3)):
        zs = np.arange(1e-3, 1.0, 1e-3)
        vals = [cn.hoffman_spruck_constant(k, p, z) for z in zs]
        zmin = float(zs[int(np.argmin(vals))])
        worst_z = max(worst_z, abs(zmin - k / (k + 1.0)))
    rng = np.random.default_rng(7)
    worst_eps = 0.0
    checked = 0
    while checked < 20:
        k = int(rng.integers(2, 7))
        p = float(rng.uniform(1.0, min(k - 0.2, 4.0)))
        alpha = float(rng.uniform(-0.9, k / p - 1.1))
        if abs(alpha) < 1e-3:
            continue
        hp = float(rng.uniform(0.3, 1.0))
        wc = cn.weighted_sobolev_constants(k, p, alpha, hp)
        res = minimize_scalar(
            lambda e: cn.eps_objective(k, p, alpha, hp, e),
            bounds=(1e-4, max(10.0, 3.0 * wc.eps_opt)), method="bounded",
            options={"xatol": 1e-9})
        worst_eps = max(worst_eps, abs(res.x - wc.eps_opt))
        checked += 1
    _report("criterion 3 (constant optimality)",
            worst_z <= 1e-3 + 1e-12 and worst_eps <= 1e-4,
            f"z argmin dev {worst_z:.2e}, eps argmin dev {worst_eps:.2e} "
            f"over 20 tuples")


def test_criterion_4_balance_algebra():
    rng = np.random.default_rng(4)
    worst = 0.0
    produced = 0
    while produced < 1000:
        k = int(rng.integers(2, 7))
        p = float(rng.uniform(1.0, k - 1e-3))
        alpha = float(rng.uniform(-1.0, k / p - 1.01))
        sigma = alpha + float(rng.uniform(0.0, 1.0))
        q = float(rng.uniform(0.3, 4.0))
        beta = float(rng.uniform(-2.0, 2.0))
        a = float(rng.uniform(0.0, 1.0))
        ps = cn.solve_balance(k=k, p=p, q=q, alpha=alpha, beta=beta,
                              sigma=sigma, a=a)
        ps.validate()
        worst = max(worst, max(abs(v) for v in ps.residuals().values()))
        produced += 1
    nash = cn.solve_balance(k=3, p=2, q=1, alpha=0, beta=0, sigma=0,
                            a=Fraction(3, 5))
    nash_exact = nash.t == Fraction(2)
    hpw = cn.solve_balance(k=3, p=2, q=2, alpha=0, beta=-1, gamma=0, t=2)
    hpw.validate()
    _report("criterion 4 (balance algebra)",
            worst <= 1e-12 and nash_exact,
            f"1000 tuples, worst identity residual {worst:.2e}; "
            f"sharp closure t = {nash.t} exactly; fixed tuple validates "
            f"(a = {hpw.a}, sigma = {hpw.sigma})")


def test_criterion_5_equality_cases():
    amb = AmbientSpace.euclidean(3)
    one = make_field("polynomial", (1.0, 0, 0, 0, 0, 0),
                     boundary_vanishing=False)
    cone = make_field("radial_power", (1.0,))
    details = []
    ok = True
    for name, field, gamma in (("divergence identity", one, 0.0),
                               ("cone function", cone, 1.0)):
        start = time.perf_counter()
        dom = Domain(disk_mesh(1.0, rings=10), amb)
        errors = []
        cells = 0
        for level in range(3):
            rep = iq.evaluate("hardy", dom, field, {"p": 1.0, "gamma": gamma})
            errors.append(abs(rep.ratio - 1.0))
            cells = rep.mesh_stats["cells"]
            if level < 2:
                dom = dom.refined()
        elapsed = time.perf_counter() - start
        order = observed_order(errors)
        ok = ok and errors[-1] <= 1e-3 and order >= 1.0 and elapsed < 30.0
        details.append(f"{name}: |ratio-1| = {errors[-1]:.2e} at {cells} "
                       f"cells, order {order:.2f}, {elapsed:.1f} s")
    _report("criterion 5 (equality cases)", ok, "; ".join(details))


def test_criterion_6_discrete_geometry():
    amb = AmbientSpace.euclidean(3)
    radius = 0.7
    dom = Domain(sphere_mesh(radius, level=4), amb)
    hi, _ = dom.sites()
    h_dev = float(np.max(np.abs(hi.h_norm - 2.0 / radius))) / (2.0 / radius)
    pyth_dev = 0.0
    for builder in corpus_geometries().values():
        sites, _ = builder().sites()
        pyth_dev = max(pyth_dev, float(np.max(np.abs(
            np.clip(sites.tan_sq, 0.0, 1.0) + sites.perp ** 2 - 1.0))))

    from cknlab.geometry import graph_mesh

    def field(pts):
        pts = np.atleast_2d(pts)
        x, y, z = pts[:, 0], pts[:, 1], pts[:, 2]
        vals = np.stack([x * y, y * y - 0.2 * x, 0.4 * x * z], axis=1)
        jacs = np.zeros((len(pts), 3, 3))
        jacs[:, 0, 0] = y
        jacs[:, 0, 1] = x
        jacs[:, 1, 0] = -0.2
        jacs[:, 1, 1] = 2 * y
        jacs[:, 2, 0] = 0.4 * z
        jacs[:, 2, 2] = 0.4 * x
        return vals, jacs

    res = []
    for divisions in (6, 12, 24):
        gdom = Domain(graph_mesh(
            lambda x, y: 0.3 * x * x - 0.2 * y * y + 0.15 * x * y + 0.07,
            1.0, divisions, center_xy=(0.3, 0.1)), amb)
        res.append(divergence_residuals(gdom, field))
    order_a = observed_order([r[0] for r in res])
    order_b = observed_order([r[1] for r in res])
    halves = all(res[i + 1][j] < 0.55 * res[i][j]
                 for i in range(2) for j in range(2))
    ok = (h_dev < 0.01 and pyth_dev <= 1e-12
          and order_a >= 1.0 - ORDER_ALLOWANCE
          and order_b >= 1.0 - ORDER_ALLOWANCE and halves)
    _report("criterion 6 (discrete geometry fidelity)", ok,
            f"|H| rel dev {h_dev:.4f} at 5120 cells; Pythagoras dev "
            f"{pyth_dev:.1e}; residual orders {order_a:.2f}/{order_b:.2f} "
            f"with per-level halving")


def test_criterion_7_soundness_sweep():
    start = time.perf_counter()
    cases = build_corpus(seed=2024, draws=50)
    reports = run_corpus(cases)
    elapsed = time.perf_counter() - start
    violations = [(c.name, r.ratio) for c, r in zip(cases, reports)
                  if not r.satisfied]
    geometries = {c.geometry for c in cases}
    ids = {c.inequality for c in cases}
    families = {c.family for c in cases}
    draws = len({c.name.split("_")[0] for c in cases
                 if c.name.startswith("draw")})
    ok = (not violations and len(geometries) >= 12
          and ids >= set(iq.CATALOG_IDS) and len(families) == 4
          and draws >= 50 and elapsed < 600.0)
    _report("criterion 7 (soundness sweep)", ok,
            f"{len(cases)} cases over {len(geometries)} geometries, "
            f"{len(ids)} catalog ids, {len(families)} families, {draws} "
            f"parameter draws; violations: {violations[:3]}; "
            f"runtime {elapsed:.0f} s")


def test_criterion_8_comparison_margin():
    worst = 0.0
    for name, builder in corpus_geometries().items():
        dom = builder()
        alpha = 1.2 if dom.k == 2 else 1.8
        margins = comparison_margin(dom, alpha, dom.max_radius * 1.01)
        worst = min(worst, float(np.min(margins)))
    warp = solve_warping(CurvatureProfile.constant(1.0), 1.55)
    awarp = AmbientSpace.warped(3, warp)
    from cknlab.geometry import geodesic_disk
    dom = Domain(geodesic_disk(awarp, 0.5, cells=(4, 8)))
    trace = []
    for _ in range(3):
        margins = comparison_margin(dom, 1.2, 0.55)
        trace.append(float(np.max(np.abs(margins))))
        dom = dom.refined()
    ok = worst >= -1e-6 and trace[-1] <= 1e-10
    _report("criterion 8 (pointwise margin)",
            ok, f"worst corpus margin {worst:.2e}; equality-configuration "
                f"margins by level {['%.1e' % t for t in trace]}")


def test_criterion_9_reduction_consistency():
    amb = AmbientSpace.euclidean(3)
    disk = Domain(disk_mesh(1.0, rings=10), amb)
    cone = make_field("radial_power", (1.0,))
    worst = 0.0

    # weighted at zero exponent against the plain Sobolev report
    rep_w = iq.evaluate("weighted_sobolev", disk, cone,
                        {"p": 1.3, "alpha": 0.0})
    rep_s = iq.evaluate("sobolev_hs", disk, cone, {"p": 1.3})
    s_const = rep_s.constants["sobolev_const"]
    worst = max(worst, abs(rep_w.lhs_terms["critical_norm"] * s_const
                           - rep_s.lhs_terms["critical_norm"]))
    worst = max(worst, abs(
        rep_w.rhs_terms["gradient_term"] / rep_w.constants["grad_coeff"]
        - rep_s.rhs_terms["gradient_term"] / s_const))
    worst = max(worst, abs(rep_w.lhs_terms["perp_sq_term"]))
    worst = max(worst, abs(rep_w.lhs_terms["perp_p_term"]))

    # two-factor inequality at the interpolation endpoints
    params1 = cn.solve_balance(k=2, p=1.2, alpha=0.1, sigma=0.6)
    rep_g = iq.evaluate("ckn", disk, cone, _ckn_options(params1))
    rep_1 = iq.evaluate("ckn_single", disk, cone,
                        {"p": 1.2, "alpha": 0.1, "sigma": 0.6})
    worst = max(worst, abs(rep_g.ratio - rep_1.ratio))
    params0 = cn.solve_balance(k=2, p=1.2, q=1.5, alpha=0.1, beta=0.4,
                               sigma=0.5, a=0.0)
    rep_0 = iq.evaluate("ckn", disk, cone, _ckn_options(params0))
    worst = max(worst, abs(rep_0.ratio - 1.0))

    # every classical specialization against its base report
    ball = Domain(__import__("cknlab.geometry", fromlist=["ball_domain"])
                  .ball_domain(amb, 1.0, cells=(4, 4, 8)))
    bump = make_field("radial_bump", (1.2,))
    for which, kwargs in (("nash", {}), ("heisenberg_pauli_weyl", {}),
                          ("gagliardo_nirenberg",
                           {"p": 1.5, "q": 1.2, "a": 0.4}),
                          ("hardy_derived", {"p": 1.4, "alpha": 0.2}),
                          ("mss_weighted", {"p": 1.5, "gamma": 0.5})):
        params = iq.derived_parameters(which, 3, **kwargs)
        rep_d = iq.evaluate(which, ball, bump, kwargs)
        rep_b = iq.evaluate("ckn", ball, bump, _ckn_options(params))
        scale = max(1.0, abs(rep_b.lhs_total), abs(rep_b.rhs_total))
        worst = max(worst, abs(rep_d.lhs_total - rep_b.lhs_total) / scale)
        worst = max(worst, abs(rep_d.rhs_total - rep_b.rhs_total) / scale)
    _report("criterion 9 (reduction consistency)", worst <= 1e-10,
            f"largest term disagreement {worst:.2e}")
