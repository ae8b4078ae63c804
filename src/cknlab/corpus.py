"""The soundness-sweep corpus: geometries x inequalities x fields x draws.

Builds a seeded set of admissible configurations covering every catalog id,
all four test-function families and a spread of geometries (flat disks,
tilted planes, spheres, caps, a curved graph, geodesic disks and balls in a
positively curved model), and runs the whole sweep through a worker pool.
Each geometry is a configuration of one of the CLI's ``BUILTINS``, built by
:func:`cknlab.cli.build_domain` as a config file's case would be.

Parameter draws are kept strictly admissible: weight exponents stay half a
unit below the integrability threshold on through-pole domains, and the
gradient-side weight exponent is kept nonnegative (the interpolation
argument needs it).
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import partial

import numpy as np

from .cli import BUILTINS, build_domain, worker_count
from .geometry.fields import FAMILIES, make_field
from .inequalities import evaluate


@dataclass
class Case:
    name: str
    geometry: str
    inequality: str
    family: str
    field: object
    options: dict


def _builtin(name: str, **options) -> dict:
    return {"geometry": {"builtin": name, **options}}


# cases in the positively curved model also declare the ball radius and the
# injectivity radius, as inequality options
_CURVED = {"ambient": {"kind": "warped", "curvature": "1.0", "r_max": "1.55"},
           "options": {"r0": 0.55, "inj_radius": math.pi}}

# name -> the sections of a config file's case that build the geometry
GEOMETRIES = {
    "disk_pole": _builtin("disk_mesh", rings="10"),
    "disk_offset": _builtin("disk_mesh", center="0 0 0.5"),
    "disk_tilted": _builtin(
        "disk_mesh", radius="0.8", center="0.3 0 0.7",
        axes=f"{math.cos(0.5)!r} 0 {math.sin(0.5)!r} 0 1 0"),
    "sphere_pole": _builtin("sphere_mesh"),
    "sphere_offset": _builtin("sphere_mesh", radius="1.2", center="0 0 0.3"),
    "cap": _builtin("sphere_patch", theta1=repr(math.pi / 3),
                    cells_theta="6", cells_phi="12"),
    "zone": _builtin("sphere_patch", radius="1.3", theta0=repr(math.pi / 6),
                     theta1=repr(math.pi / 2), cells_theta="6",
                     cells_phi="12"),
    "graph_patch": _builtin("graph_mesh", coeffs="0.25 -0.15 0.1"),
    "disk_patch": _builtin("flat_disk_patch"),
    "geodesic_disk": {**_builtin("geodesic_disk", radius="0.5"), **_CURVED},
    "ball": _builtin("ball"),
    "ball_warped": {**_builtin("ball", radius="0.5"), **_CURVED},
}


def _options(name: str) -> dict:
    """The inequality options that every case on geometry ``name`` carries."""
    return dict(GEOMETRIES[name].get("options", {}))


def corpus_geometries() -> dict:
    """Name -> lazy builder of each corpus geometry's Domain."""
    return {name: partial(build_domain, case)
            for name, case in GEOMETRIES.items()}


# pole-centered caps and zones have constant radius, where a vanishing
# radial profile is identically zero; planar kinds substitute there
_CONSTANT_RADIUS = {"cap", "zone", "sphere_pole"}
# the range of the one dof of each radial kind
_RADIAL = {"radial_power": (1.0, 3.0), "radial_bump": (0.3, 2.5)}


def _draw_field(rng, kind: str, vanishing: bool, geometry: str = "",
                nonneg: bool = False):
    if vanishing and geometry in _CONSTANT_RADIUS and kind in _RADIAL:
        kind = "polynomial"
    if kind in _RADIAL:
        return make_field(kind, (float(rng.uniform(*_RADIAL[kind])),),
                          boundary_vanishing=vanishing)
    dof = list(rng.uniform(-1.0, 1.0, size=len(FAMILIES[kind].bounds)))
    if nonneg:
        # dominate the oscillating terms so the profile stays positive
        dof[0] = sum(abs(c) for c in dof[1:]) + 0.2
    return make_field(kind, tuple(dof), boundary_vanishing=vanishing)


# exponent draws(rng, k) -> options of one drawn id, or None when the draw
# is inadmissible; the rng is consumed in the same order either way

def _p(rng, k):
    return float(rng.uniform(1.0, k - 0.25))


def _p_alpha(rng, k, spread=1.0):
    """``p``, then ``alpha`` up to half a unit below ``p (alpha + 1) = k``."""
    p = _p(rng, k)
    alpha_hi = (k - 0.5) / p - 1.0
    return {"p": p, "alpha": float(
        rng.uniform(max(-1.0, alpha_hi - spread), alpha_hi))}


def _single(rng, k):
    o = _p_alpha(rng, k)
    o["sigma"] = float(rng.uniform(o["alpha"], o["alpha"] + 1.0))
    return o


def _ckn(rng, k):
    o = _single(rng, k)
    a = float(rng.uniform(0.0, 1.0))
    q = float(rng.uniform(0.6, 2.5))
    beta = float(rng.uniform(-1.5, min(1.5, (k - 0.5) / q)))
    # the interpolated weight must stay integrable as well
    gamma = a * o["sigma"] + (1 - a) * beta
    theta = o["alpha"] + 1 - o["sigma"]
    tval = 1.0 / (a / (1.0 / (1.0 / o["p"] - theta / k)) + (1 - a) / q)
    if gamma * tval >= k - 0.4:
        return None
    return {**o, "q": q, "beta": beta, "a": a}


# one row per drawn id, cycled through by the draw index: the case-name
# suffix, the id, the field's boundary vanishing (None: drawn) and
# positivity, and the exponent draw
_DRAWS = (
    ("hardy", "hardy", None, False,
     lambda rng, k: {"p": float(rng.uniform(1.0, min(3.0, k + 1.0))),
                     "gamma": float(rng.uniform(-1.0, k - 0.5))}),
    ("hardy_signed", "hardy_signed", True, True,
     lambda rng, k: {"p": float(rng.uniform(1.0001, 2.5)),
                     "gamma": float(rng.uniform(0.0, k - 0.5))}),
    ("sobolev", "sobolev_hs", True, False, lambda rng, k: {"p": _p(rng, k)}),
    ("weighted", "weighted_sobolev", True, False,
     partial(_p_alpha, spread=1.5)),
    ("ckn_single", "ckn_single", True, False, _single),
    ("ckn", "ckn", True, False, _ckn),
)


def build_corpus(seed: int = 0, draws: int = 50) -> list[Case]:
    """Seeded corpus with at least ``draws`` distinct parameter draws."""
    rng = np.random.default_rng(seed)
    cases = []
    kinds = tuple(FAMILIES)
    names = tuple(GEOMETRIES)
    for draw_idx in range(draws):
        gname = names[draw_idx % len(names)]
        kind = kinds[draw_idx % len(kinds)]
        suffix, id, vanishing, nonneg, exponents = _DRAWS[
            draw_idx % len(_DRAWS)]
        drawn = exponents(
            rng, BUILTINS[GEOMETRIES[gname]["geometry"]["builtin"]].k)
        if vanishing is None:
            vanishing = bool(rng.integers(2))
        fld = _draw_field(rng, kind, vanishing, gname, nonneg)
        if drawn is not None:
            cases.append(Case(f"draw{draw_idx}_{gname}_{suffix}", gname, id,
                              kind, fld, {**_options(gname), **drawn}))

    # fixed classical specializations on the 3-dimensional domains
    for gname in ("ball", "ball_warped"):
        for which in ("nash", "heisenberg_pauli_weyl"):
            for kind in kinds:
                fld = _draw_field(rng, kind, vanishing=True, geometry=gname)
                cases.append(Case(f"{which}_{gname}_{kind}", gname, which,
                                  kind, fld, _options(gname)))
    # the remaining derived ids on surface domains
    for gname in ("disk_pole", "cap", "geodesic_disk"):
        opt = _options(gname)
        cases.append(Case(f"mss_{gname}", gname, "mss_weighted",
                          "radial_power",
                          _draw_field(rng, "radial_power", True, gname),
                          dict(opt, p=1.2, gamma=0.4)))
        cases.append(Case(f"hardy_derived_{gname}", gname, "hardy_derived",
                          "radial_bump",
                          _draw_field(rng, "radial_bump", True, gname),
                          dict(opt, p=1.3, alpha=0.2)))
        cases.append(Case(f"gn_{gname}", gname, "gagliardo_nirenberg",
                          "polynomial", make_field("polynomial"),
                          dict(opt, p=1.4, q=1.0, a=0.5)))
    # flat-weight Hardy on the Euclidean surface domains
    for gname in ("disk_pole", "disk_offset", "sphere_pole"):
        cases.append(Case(f"hadamard_{gname}", gname, "hardy_hadamard",
                          "radial_power", make_field("radial_power", (2.0,)),
                          {"p": 1.5, "gamma": 1.0}))
    return cases


def run_corpus(cases, threads: int = None):
    """Evaluate all cases, reusing one Domain per geometry name."""
    builders = corpus_geometries()
    # domains are built up front; their lazy site tables are built under a
    # per-domain lock, and each evaluation keeps its field's values in a
    # binding of its own, so the sweep parallelizes at case granularity with
    # an ordered result list
    domains = {name: builders[name]()
               for name in dict.fromkeys(case.geometry for case in cases)}

    def run_one(case):
        return evaluate(case.inequality, domains[case.geometry], case.field,
                        case.options)

    n = threads or worker_count()
    if n <= 1:
        return [run_one(c) for c in cases]
    with ThreadPoolExecutor(max_workers=n) as pool:
        return list(pool.map(run_one, cases))
