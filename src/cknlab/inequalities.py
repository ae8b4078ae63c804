"""Evaluator catalog: assemble both sides of each inequality and report.

Every evaluator reduces to a handful of weighted integrals over a
:class:`~cknlab.geometry.domain.Domain` plus closed-form constants, and
emits an :class:`InequalityReport` with the term breakdown, the tightness
ratio, a propagated quadrature error estimate and a pass/fail verdict at
the slack policy ``max(5e-2, 3 * quadrature_error)``.

The catalog ids:

- ``hardy_signed``: the sharper Hardy form with the signed boundary term
  (nonnegative test functions, exponents above 1).
- ``hardy``: the general-sign Hardy form with the split right-hand side and
  the unsigned boundary term; minimal submanifolds may drop the split
  coefficient.
- ``hardy_hadamard``: the same in a nonpositively curved model (weights are
  plain powers of the distance).
- ``sobolev_hs``: the Hoffman-Spruck / Michael-Simon type Sobolev
  inequality for test functions vanishing on the boundary.
- ``weighted_sobolev``: its power-weighted refinement, with the two
  normal-component terms on the left.
- ``ckn_single``: the single-factor interpolation inequality.
- ``ckn``: the two-factor Caffarelli-Kohn-Nirenberg type inequality.
- ``mss_weighted``, ``hardy_derived``, ``gagliardo_nirenberg``, ``nash``,
  ``heisenberg_pauli_weyl``: its classical specializations.

:data:`CATALOG` states, once per id, the options it needs, its hypotheses on
the exponents, whether its test functions must vanish on the boundary, and
its evaluator.  :func:`evaluate` is the one way in: it takes the id and a
flat options mapping, checks the required keys and calls the id's evaluator
(``_hardy``, ``_sobolev_hs``, ``_weighted_sobolev`` or ``_interpolate``).
The CLI's config validation and the tightness search read the same table.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field as dc_field
from functools import partial
from operator import attrgetter
from typing import Callable

import numpy as np

from . import constants as cn
from .errors import (
    InvalidArgument,
    InvalidExponent,
    NotMinimal,
    ParameterConflict,
    PreconditionViolated,
)
from .geometry.domain import Domain, Qty, boundary_integral, weighted_integral

MINIMAL_TOL = 1e-4
DEFAULT_SLACK_FLOOR = 5e-2


@dataclass
class InequalityReport:
    """Structured outcome of one inequality evaluation."""

    id: str
    params: dict
    constants: dict
    lhs_terms: dict
    rhs_terms: dict
    lhs_total: float
    rhs_total: float
    ratio: float
    quadrature_error: float
    slack: float
    satisfied: bool
    degenerate: bool
    hypothesis_status: dict
    mesh_stats: dict
    notes: list = dc_field(default_factory=list)

    def to_dict(self) -> dict:
        return {"type": "report", **asdict(self)}


def _assemble(id, params, constants, lhs_terms, rhs_terms, domain, field,
              slack=None, hypothesis=None, notes=None) -> InequalityReport:
    lhs = sum(lhs_terms.values(), Qty(0.0))
    rhs = sum(rhs_terms.values(), Qty(0.0))
    degenerate = abs(lhs.value) < 1e-250 and abs(rhs.value) < 1e-250
    psi = _band0(domain, field, "psi")
    if len(psi) == 0 or float(np.max(np.abs(psi))) < 1e-10:
        # the discretized test function is numerically zero; any ratio
        # would be roundoff noise
        degenerate = True
    if degenerate:
        ratio, qerr = 0.0, 0.0
        note = ["degenerate: both sides vanish (vacuous pass)"]
    elif rhs.value <= 0:
        ratio, qerr = math.inf, 0.0
        note = ["right-hand side nonpositive with nonzero left-hand side"]
    else:
        q = lhs / rhs
        ratio, qerr = q.value, q.rel_err
        note = []
    eff_slack = slack if slack is not None else max(DEFAULT_SLACK_FLOOR,
                                                    3.0 * qerr)
    satisfied = degenerate or ratio <= 1.0 + eff_slack
    return InequalityReport(
        id=id,
        params={k: _jsonable(v) for k, v in params.items()},
        constants={k: _jsonable(v) for k, v in constants.items()},
        lhs_terms={k: v.value for k, v in lhs_terms.items()},
        rhs_terms={k: v.value for k, v in rhs_terms.items()},
        lhs_total=lhs.value, rhs_total=rhs.value, ratio=ratio,
        quadrature_error=qerr, slack=eff_slack, satisfied=satisfied,
        degenerate=degenerate,
        hypothesis_status=hypothesis or {"status": "verified", "reasons": []},
        mesh_stats=domain.describe(),
        notes=(notes or []) + note)


def _jsonable(v):
    if isinstance(v, (bool, int, str)) or v is None:
        return v
    return float(v)


def _entry(id: str) -> "CatalogEntry":
    try:
        return CATALOG[id]
    except KeyError:
        raise InvalidArgument(f"unknown inequality id {id!r}") from None


def require_vanishing(id: str, domain: Domain, field) -> None:
    """Raise unless ``field`` meets the boundary hypothesis of ``id``."""
    if (_entry(id).vanishing and domain.has_boundary
            and not field.boundary_vanishing):
        raise PreconditionViolated(
            f"{id} needs a test function vanishing on the boundary")


def _admit(id: str, domain: Domain, field, options: dict):
    """Check the hypotheses of ``id`` on ``domain`` and ``field``.

    Returns what the id's check returns: the exponent tuple of the
    interpolation ids, None otherwise.  Every id integrates |grad psi|^p:
    (1 - r/R)^m with its rim r = R on the domain needs m > 1 - 1/p.
    """
    admitted = _entry(id).check(domain.k, options)
    require_vanishing(id, domain, field)
    p = float(options["p"] if admitted is None else admitted.p)
    m = field.field.dof[0]
    if (field.field.kind == "radial_power" and m <= 1.0 - 1.0 / p
            and field.support_r <= domain.max_radius):
        raise PreconditionViolated(
            f"radial power exponent {m:g} leaves |grad psi|^{p:g} "
            f"non-integrable at the support rim; needs m > {1.0 - 1.0 / p:g}")
    return admitted


def _band0(domain: Domain, field, column: str) -> np.ndarray:
    """``column`` over every high-order band-0 table of ``domain``, with
    ``field`` bound unless it is None."""
    bound = None if field is None else domain.bind(field)
    cols = [getattr(t, column) for t in domain.sites(0.0, bound)[::2]]
    return cols[0] if len(cols) == 1 else np.concatenate(cols)


def _resolve_r0(domain: Domain, r0):
    """Radius of the ball containing the domain, and the slope value there."""
    amb = domain.ambient
    if r0 is None:
        r0 = domain.max_radius * (1.0 + 1e-9)
    if domain.max_radius > r0 * (1.0 + 1e-9):
        raise PreconditionViolated(
            f"domain reaches radius {domain.max_radius:.6g} outside the "
            f"ball of radius {r0:.6g}")
    if amb.kind == "warped":
        if r0 >= amb.warp.increasing_limit:
            raise PreconditionViolated(
                "ball radius must stay below the increasing branch limit")
    _, hp0 = amb.h_values(np.asarray(r0))
    hp0 = float(hp0)
    if hp0 <= 0:
        raise PreconditionViolated("the slope at the ball radius must be positive")
    return float(r0), hp0


def _minimality(domain: Domain, minimal: bool):
    if not minimal:
        return
    h_norm = _band0(domain, None, "h_norm")
    worst = float(np.max(h_norm)) if len(h_norm) else 0.0
    if worst > MINIMAL_TOL:
        raise NotMinimal(
            f"max |H| = {worst:.3e} exceeds the minimality tolerance")


# ---------------------------------------------------------------------------
# Hypotheses on the exponents in dimension k
# ---------------------------------------------------------------------------

def _check_hardy(k, o):
    if o["gamma"] >= k:
        raise InvalidExponent(
            f"weight exponent gamma = {o['gamma']} must be below the "
            f"dimension k = {k}")
    if o["p"] < 1:
        raise InvalidArgument("p must be >= 1")


def _check_sobolev(k, o):
    if not 1 <= o["p"] < k:
        raise InvalidExponent("needs 1 <= p < k")


def _check_hadamard(k, o):
    _check_sobolev(k, o)
    _check_hardy(k, o)


def _check_weighted(k, o):
    _check_sobolev(k, o)
    if o["p"] * (o["alpha"] + 1.0) >= k:
        raise InvalidExponent("needs p * (alpha + 1) < k")


def _validated(params: cn.ParameterSet) -> cn.ParameterSet:
    params.validate()
    return params


def _single_params(k, o) -> cn.ParameterSet:
    return _validated(cn.solve_balance(k=k, p=o["p"], alpha=o["alpha"],
                                       sigma=o["sigma"]))


def _ckn_params(k, o) -> cn.ParameterSet:
    """Balance closure from (t, gamma) when both are given, else (sigma, a)."""
    free = ("gamma", "t") if "t" in o and "gamma" in o else ("sigma", "a")
    known = {key: o[key] for key in ("p", "q", "alpha", "beta", *free)
             if key in o}
    return _validated(cn.solve_balance(k=k, **known))


def _derived_params(which, k, o) -> cn.ParameterSet:
    overrides = {key: o[key] for key in ("p", "q", "a", "alpha", "gamma")
                 if key in o}
    return _validated(derived_parameters(which, k, **overrides))


# ---------------------------------------------------------------------------
# Hardy family
# ---------------------------------------------------------------------------

def _hardy(id: str, domain: Domain, field, o: dict) -> InequalityReport:
    """The three Hardy forms over one set of constants and integrals.

    ``hardy_signed`` at ``p > 1`` uses the signed boundary term and the
    combined gradient-curvature integrand; at ``p = 1`` it is routed to the
    general-sign form.  ``hardy_hadamard`` is the general-sign form in the
    flat model, always over the smallest ball around the domain.
    """
    if id == "hardy_hadamard" and domain.ambient.kind != "euclidean":
        raise PreconditionViolated(
            "the flat-weight Hardy form needs the zero-curvature model ambient")
    _admit(id, domain, field, o)
    k = domain.k
    p, gamma = o["p"], o["gamma"]
    routed = id == "hardy_signed" and p == 1.0
    signed = id == "hardy_signed" and not routed
    minimal = id == "hardy" and bool(o.get("minimal", False))
    if signed:
        psi = _band0(domain, field, "psi")
        if len(psi) and float(np.min(psi)) < -1e-12:
            raise PreconditionViolated("test function must be nonnegative")
    else:
        _minimality(domain, minimal)
    r0, hp0 = _resolve_r0(domain,
                          None if id == "hardy_hadamard" else o.get("r0"))
    c1, c2, cb = cn.finite(
        f"a Hardy coefficient at k = {k}, p = {p:g}, gamma = {gamma:g}",
        lambda: (
            (k - gamma) ** p * hp0 ** (p - 1.0) / p ** p,
            gamma * ((k - gamma) * hp0) ** (p - 1.0) / p ** (p - 1.0),
            ((k - gamma) * hp0) ** (p - 1.0) / p ** (p - 1.0)))
    i1 = weighted_integral(domain, lambda b: b.abs_psi_pow(p), gamma,
                           "h_power_times_hprime", field=field)
    i2 = weighted_integral(domain,
                           lambda b: b.abs_psi_pow(p) * b.perp ** 2,
                           gamma, "h_power_times_hprime", field=field)
    params = {"p": p, "gamma": gamma, "r0": r0, "k": k}
    constants = {"hardy_coeff": c1, "perp_coeff": c2, "boundary_coeff": cb}
    notes = []
    if signed:
        rhs = {"gradient_term": weighted_integral(
            domain,
            lambda b: (b.grad_psi ** 2 + b.psi ** 2 * b.h_norm ** 2 / p ** 2)
            ** (p / 2.0),
            gamma - p, "h_power", field=field)}
        if c2 > 0 and i2.value > 0:
            notes.append("normal-component term strictly enlarges the "
                         "left-hand side")
    else:
        a_p = 1.0 if minimal else cn.pair_power_upper(p)
        params["minimal"] = minimal
        constants["split_coeff"] = a_p
        rhs = {
            "gradient_term": a_p * weighted_integral(
                domain, lambda b: b.grad_psi ** p, gamma - p, "h_power",
                field=field),
            "curvature_term": a_p * weighted_integral(
                domain, lambda b: b.abs_psi_pow(p) * b.h_norm ** p / p ** p,
                gamma - p, "h_power", field=field)}
        if minimal:
            notes.append("minimal submanifold: split coefficient taken as 1")
    constants["h_prime_r0"] = hp0
    bterm = boundary_integral(domain, lambda b: b.abs_psi_pow(p),
                              gamma - 1.0, with_radial_conormal=signed,
                              field=field) if domain.has_boundary else Qty(0.0)
    rhs["boundary_term"] = cb * bterm
    if not domain.has_boundary:
        notes.append("closed submanifold: boundary term is zero")
    rep = _assemble("hardy" if routed else id, params, constants,
                    {"weighted_norm": c1 * i1, "perp_term": c2 * i2}, rhs,
                    domain, field, slack=o.get("slack"), notes=notes)
    if id == "hardy_hadamard":
        rep.notes.append("zero-curvature comparison: weights are distance powers")
    elif routed:
        rep.notes.append("p = 1 routed to the general-sign evaluator")
    return rep


# ---------------------------------------------------------------------------
# Sobolev family
# ---------------------------------------------------------------------------

def _sobolev_constant(domain: Domain, p: float) -> float:
    return cn.hoffman_spruck_optimal(domain.k, p,
                                     flat_ambient=domain.ambient.kind == "euclidean")


def _sobolev_side_conditions(domain: Domain, field, inj_radius):
    """Support-volume side conditions of the dimensional Sobolev constant."""
    k = domain.k
    reasons = []
    psi = _band0(domain, field, "psi")
    vol = float(np.sum(_band0(domain, field, "density")[np.abs(psi) > 0]))
    jbar = ((k + 1) / cn.unit_ball_volume(k) * vol) ** (1.0 / k)
    amb = domain.ambient
    b = math.sqrt(amb.warp.max_b_squared) if amb.kind == "warped" else 0.0
    status = "verified"
    if b > 0 and jbar >= 1.0 / b:
        status = "unverified"
        reasons.append("support volume too large for the curvature bound")
    if status == "verified":
        if b == 0:
            needed = 2.0 * jbar
        else:
            needed = 2.0 / b * math.asin(min(jbar * b, 1.0))
        if inj_radius is None:
            if amb.kind == "euclidean":
                reasons.append("flat model: injectivity radius is infinite")
            else:
                status = "unverified"
                reasons.append("injectivity radius not declared")
        elif needed > inj_radius:
            status = "unverified"
            reasons.append("support too large for the declared injectivity radius")
    return {"status": status, "reasons": reasons,
            "support_volume": vol, "support_ball_radius": jbar}


# meshes have k <= 2 and charts k <= 3, below the k >= 7 that needs a
# volume threshold; every Sobolev-type report states why
_VOLUME_REASON = ("volume threshold depends only on the ambient injectivity "
                  "radius over the submanifold and the ball radius")


def _sobolev_hs(id: str, domain: Domain, field, o: dict) -> InequalityReport:
    """Dimensional Sobolev inequality for boundary-vanishing test functions."""
    _admit(id, domain, field, o)
    k = domain.k
    p = o["p"]
    p_star = k * p / (k - p)
    s_const = _sobolev_constant(domain, p)
    lhs_int = weighted_integral(domain, lambda b: b.abs_psi_pow(p_star),
                                0.0, field=field)
    rhs_int = weighted_integral(
        domain,
        lambda b: b.grad_psi ** p + b.abs_psi_pow(p) * b.h_norm ** p / p ** p,
        0.0, field=field)
    hyp = _sobolev_side_conditions(domain, field, o.get("inj_radius"))
    hyp["reasons"].append(_VOLUME_REASON)
    return _assemble(
        id,
        {"p": p, "p_star": p_star, "k": k},
        {"sobolev_const": s_const},
        {"critical_norm": lhs_int.powf(p / p_star)},
        {"gradient_term": s_const * rhs_int},
        domain, field, slack=o.get("slack"), hypothesis=hyp)


def _weighted_sobolev(id: str, domain: Domain, field,
                      o: dict) -> InequalityReport:
    """Power-weighted Sobolev inequality with normal-component terms."""
    _admit(id, domain, field, o)
    k = domain.k
    p, alpha = o["p"], o["alpha"]
    r0, hp0 = _resolve_r0(domain, o.get("r0"))
    p_star = k * p / (k - p)
    s_const = _sobolev_constant(domain, p)
    wc = cn.weighted_sobolev_constants(k, p, alpha, hp0)
    gw = p * (alpha + 1.0)
    lhs_crit = weighted_integral(domain, lambda b: b.abs_psi_pow(p_star),
                                 p_star * alpha, field=field)
    lhs_perp2 = weighted_integral(
        domain, lambda b: b.abs_psi_pow(p) * b.perp ** 2, gw,
        "h_power_times_hprime", field=field)
    lhs_perpp = weighted_integral(
        domain, lambda b: b.abs_psi_pow(p) * b.perp ** p, gw,
        "h_power_times_hprime", field=field)
    rhs_int = weighted_integral(
        domain,
        lambda b: b.grad_psi ** p + b.abs_psi_pow(p) * b.h_norm ** p / p ** p,
        p * alpha, field=field)
    hyp = {"status": "verified", "reasons": [_VOLUME_REASON]}
    return _assemble(
        id,
        {"p": p, "alpha": alpha, "p_star": p_star, "r0": r0, "k": k},
        {"sobolev_const": s_const, "grad_coeff": wc.grad_coeff,
         "perp_sq_coeff": wc.perp_sq_coeff, "perp_p_coeff": wc.perp_p_coeff,
         "h_prime_r0": hp0},
        {"critical_norm": (1.0 / s_const) * lhs_crit.powf(p / p_star),
         "perp_sq_term": wc.perp_sq_coeff * lhs_perp2,
         "perp_p_term": wc.perp_p_coeff * lhs_perpp},
        {"gradient_term": wc.grad_coeff * rhs_int},
        domain, field, slack=o.get("slack"), hypothesis=hyp)


# ---------------------------------------------------------------------------
# Interpolation family
# ---------------------------------------------------------------------------

def _interpolate(id: str, domain: Domain, field, o: dict) -> InequalityReport:
    """Two-factor interpolation inequality for boundary-vanishing functions.

    The exponent tuple comes from the id's balance closure.  The right-hand
    constant is the single-factor constant raised to ``a/p``, which is what
    the interpolation argument yields; at ``a = 1`` it matches the
    single-factor report, and at ``a = 0`` the inequality collapses to the
    exact identity between the two sides.
    """
    params = _admit(id, domain, field, o)
    r0, hp0 = _resolve_r0(domain, o.get("r0"))
    p, q, t, a, alpha, beta, gamma = map(float, attrgetter(
        "p", "q", "t", "a", "alpha", "beta", "gamma")(params))
    s_const = _sobolev_constant(domain, p)
    lam, c_single = cn.interpolation_constants(params, hp0, s_const)
    c_eff = c_single ** (a / p)
    lhs_int = weighted_integral(domain, lambda b: b.abs_psi_pow(t),
                                gamma * t, field=field)
    grad_int = weighted_integral(
        domain,
        lambda b: b.grad_psi ** p + b.abs_psi_pow(p) * b.h_norm ** p,
        alpha * p, field=field)
    q_int = weighted_integral(domain, lambda b: b.abs_psi_pow(q),
                              beta * q, field=field)
    hyp = {"status": "verified", "reasons": [_VOLUME_REASON]}
    lhs = lhs_int.powf(1.0 / t)
    rhs = c_eff * grad_int.powf(a / p) * q_int.powf((1.0 - a) / q)
    note = _INTERPOLATION_NOTES.get(id)
    return _assemble(
        id,
        dict(params.as_floats(), r0=r0),
        {"sobolev_const": s_const, "endpoint_coeff": lam,
         "single_factor_const": c_single, "rhs_const": c_eff,
         "h_prime_r0": hp0},
        {"interp_norm": lhs},
        {"product_bound": rhs},
        domain, field, slack=o.get("slack"), hypothesis=hyp,
        notes=[note] if note else None)


def _unweighted(x):
    return dict(p=x["p"], q=x["q"], alpha=0.0, beta=0.0, sigma=0.0, a=x["a"])


# the specializations of the two-factor inequality, one row each: least
# dimension, the exponents it fixes in dimension k, the defaults of the free
# ones, their admissible ranges, and its balance closure's known values
_SPECIALIZATIONS = {
    "mss_weighted": (1, lambda k: {"a": 1.0, "alpha": 0.0},
                     {"p": 2.0, "gamma": 0.5}, {"gamma": (0.0, 1.0)},
                     lambda x: dict(p=x["p"], alpha=0.0, sigma=x["gamma"])),
    "hardy_derived": (1, lambda k: {"a": 1.0}, {"p": 2.0, "alpha": 0.0}, {},
                      lambda x: dict(p=x["p"], alpha=x["alpha"],
                                     sigma=x["alpha"] + 1.0)),
    "gagliardo_nirenberg": (1, lambda k: {"alpha": 0.0, "gamma": 0.0},
                            {"p": 2.0, "q": 1.0, "a": 0.5}, {}, _unweighted),
    "nash": (3, lambda k: {"p": 2.0, "q": 1.0, "a": k / (k + 2.0)}, {}, {},
             _unweighted),
    "heisenberg_pauli_weyl": (
        3, lambda k: {"p": 2.0, "q": 2.0, "a": 0.5, "alpha": 0.0,
                      "gamma": 0.0}, {}, {},
        lambda x: dict(p=2.0, q=2.0, alpha=0.0, beta=-1.0, gamma=0.0, t=2.0)),
}
_INTERPOLATION_NOTES = {
    "ckn_single": "single-factor path: a = 1, t = s, gamma = sigma",
    **{which: f"specialization of the two-factor inequality ({which})"
       for which in _SPECIALIZATIONS},
}


def derived_parameters(which: str, k: int, **given) -> cn.ParameterSet:
    """Exponent tuple of one of the classical specializations, from the
    caller's ``p``, ``q``, ``a``, ``alpha`` and ``gamma`` (None: unset)."""
    if which not in _SPECIALIZATIONS:
        raise InvalidArgument(f"unknown derived inequality {which!r}")
    least_k, fixed, defaults, ranges, closure = _SPECIALIZATIONS[which]
    if k < least_k:
        raise ParameterConflict(f"{which} needs k >= {least_k}")
    x = {**defaults, **{key: v for key, v in given.items() if v is not None}}
    for key, want in fixed(k).items():
        if x.setdefault(key, want) != want:
            raise ParameterConflict(f"{which} fixes {key} = {want:g}")
    for key, (lo, hi) in ranges.items():
        if not lo <= x[key] <= hi:
            raise ParameterConflict(
                f"{which} needs {key} in [{lo:g}, {hi:g}]")
    return cn.solve_balance(k=k, **closure(x))


# ---------------------------------------------------------------------------
# The catalog and its entry point
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CatalogEntry:
    """What one inequality needs, when it applies and how it is evaluated."""

    required: tuple     # options without a default
    # check(k, options) raises unless the exponents are admissible in
    # dimension k; the interpolation ids return their exponent tuple
    check: Callable
    vanishing: bool     # test functions must vanish on the boundary
    evaluate: Callable  # evaluate(id, domain, field, options) -> report


CATALOG = {
    "hardy_signed": CatalogEntry(("p", "gamma"), _check_hardy, False, _hardy),
    "hardy": CatalogEntry(("p", "gamma"), _check_hardy, False, _hardy),
    "hardy_hadamard": CatalogEntry(("p", "gamma"), _check_hadamard, False,
                                   _hardy),
    "sobolev_hs": CatalogEntry(("p",), _check_sobolev, True, _sobolev_hs),
    "weighted_sobolev": CatalogEntry(("p", "alpha"), _check_weighted, True,
                                     _weighted_sobolev),
    "ckn_single": CatalogEntry(("p", "alpha", "sigma"), _single_params, True,
                               _interpolate),
    "ckn": CatalogEntry(("p", "q", "alpha", "beta"), _ckn_params, True,
                        _interpolate),
    **{which: CatalogEntry((), partial(_derived_params, which), True,
                           _interpolate)
       for which in _SPECIALIZATIONS},
}
CATALOG_IDS = tuple(CATALOG)


def require_options(id: str, options: dict) -> None:
    """Raise unless ``options`` holds every key that ``id`` requires."""
    missing = [key for key in _entry(id).required if key not in options]
    if missing:
        raise InvalidArgument(f"{id} is missing key(s) {', '.join(missing)}")


def evaluate(id: str, domain: Domain, field, options: dict) -> InequalityReport:
    """The report of catalog id ``id`` for ``field`` on ``domain``.

    ``options`` is a flat mapping of the id's exponents and settings.  The
    field is bound to ``domain`` once; the binding computes its values on
    each site table once for all of the evaluation's integrals and goes
    away with the evaluation.
    """
    require_options(id, options)
    return _entry(id).evaluate(id, domain, domain.bind(field), options)
