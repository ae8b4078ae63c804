"""The soundness-sweep corpus: geometries x inequalities x fields x draws.

Builds a seeded set of admissible configurations covering every catalog id,
all four test-function families and a spread of geometries (flat disks,
tilted planes, spheres, caps, a curved graph, geodesic disks and balls in a
positively curved model), and runs the whole sweep through a worker pool.

Parameter draws are kept strictly admissible: weight exponents stay half a
unit below the integrability threshold on through-pole domains, and the
gradient-side weight exponent is kept nonnegative (the interpolation
argument needs it).
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .geometry import (
    AmbientSpace,
    Domain,
    ball_domain,
    disk_mesh,
    flat_disk_patch,
    geodesic_disk,
    graph_mesh,
    sphere_mesh,
    sphere_patch,
)
from .geometry.fields import make_field
from .inequalities import evaluate
from .warp import CurvatureProfile, solve_warping


def worker_count() -> int:
    env = os.environ.get("CKN_LAB_THREADS")
    if env:
        try:
            return max(1, int(env))
        except ValueError:
            pass
    return min(4, os.cpu_count() or 1)


@dataclass
class Case:
    name: str
    geometry: str
    inequality: str
    family: str
    field: object
    options: dict


def corpus_geometries(level: int = 0) -> dict:
    """Name -> lazily built Domain for the standard geometry set."""
    amb = AmbientSpace.euclidean(3)
    warp = solve_warping(CurvatureProfile.constant(1.0), 1.55)
    awarp = AmbientSpace.warped(3, warp)
    tilt = np.array([[math.cos(0.5), 0.0, math.sin(0.5)],
                     [0.0, 1.0, 0.0]])

    def rings(base):
        return base * (2 ** level)

    builders = {
        "disk_pole": lambda: Domain(disk_mesh(1.0, rings=rings(10)), amb),
        "disk_offset": lambda: Domain(
            disk_mesh(1.0, rings=rings(8), center=(0.0, 0.0, 0.5)), amb),
        "disk_tilted": lambda: Domain(
            disk_mesh(0.8, rings=rings(8), center=(0.3, 0.0, 0.7), axes=tilt),
            amb),
        "sphere_pole": lambda: Domain(sphere_mesh(1.0, level=3 + level), amb),
        "sphere_offset": lambda: Domain(
            sphere_mesh(1.2, level=3 + level, center=(0.0, 0.0, 0.3)), amb),
        "cap": lambda: Domain(sphere_patch(
            amb, 1.0, theta_range=(0.0, math.pi / 3),
            cells=(6 * 2 ** level, 12 * 2 ** level))),
        "zone": lambda: Domain(sphere_patch(
            amb, 1.3, theta_range=(math.pi / 6, math.pi / 2),
            cells=(6 * 2 ** level, 12 * 2 ** level))),
        "graph_patch": lambda: Domain(graph_mesh(
            lambda x, y: 0.25 * x * x - 0.15 * y * y + 0.1 * x * y,
            half_width=1.0, divisions=rings(8)), amb),
        "disk_patch": lambda: Domain(flat_disk_patch(
            amb, 1.0, cells=(8 * 2 ** level, 16 * 2 ** level))),
        "geodesic_disk": lambda: Domain(geodesic_disk(
            awarp, 0.5, cells=(8 * 2 ** level, 16 * 2 ** level))),
        "ball": lambda: Domain(ball_domain(
            amb, 1.0, cells=(4 * 2 ** level, 4 * 2 ** level, 8 * 2 ** level))),
        "ball_warped": lambda: Domain(ball_domain(
            awarp, 0.5, cells=(4 * 2 ** level, 4 * 2 ** level, 8 * 2 ** level))),
    }
    return builders


# warped-ambient geometries need the ball radius and injectivity declared
_R0 = {"geodesic_disk": 0.55, "ball_warped": 0.55}
_INJ = {"geodesic_disk": math.pi, "ball_warped": math.pi}


# pole-centered caps and zones have constant radius, where a vanishing
# radial profile is identically zero; planar kinds substitute there
_CONSTANT_RADIUS = {"cap", "zone", "sphere_pole"}


def _draw_field(rng, kind: str, vanishing: bool, geometry: str = "",
                nonneg: bool = False):
    if vanishing and geometry in _CONSTANT_RADIUS and kind in (
            "radial_power", "radial_bump"):
        kind = "polynomial"
    if kind == "radial_power":
        return make_field(kind, (float(rng.uniform(1.0, 3.0)),),
                          boundary_vanishing=vanishing)
    if kind == "radial_bump":
        return make_field(kind, (float(rng.uniform(0.3, 2.5)),),
                          boundary_vanishing=vanishing)
    dof = list(rng.uniform(-1.0, 1.0, size=6))
    if nonneg:
        # dominate the oscillating terms so the profile stays positive
        dof[0] = sum(abs(c) for c in dof[1:]) + 0.2
    return make_field(kind, tuple(dof), boundary_vanishing=vanishing)


def build_corpus(seed: int = 0, draws: int = 50) -> list[Case]:
    """Seeded corpus with at least ``draws`` distinct parameter draws."""
    rng = np.random.default_rng(seed)
    cases = []
    kinds = ("radial_power", "radial_bump", "polynomial", "random_smooth")
    geoms = list(corpus_geometries())

    def geometry_k(name):
        return 3 if name.startswith("ball") else 2

    def base_options(name):
        opt = {}
        if name in _R0:
            opt["r0"] = _R0[name]
        if name in _INJ:
            opt["inj_radius"] = _INJ[name]
        return opt

    draw_idx = 0
    while draw_idx < draws:
        for gname in geoms:
            if draw_idx >= draws:
                break
            k = geometry_k(gname)
            kind = kinds[draw_idx % len(kinds)]
            opt = base_options(gname)
            choice = draw_idx % 6
            if choice == 0:
                p = float(rng.uniform(1.0, min(3.0, k + 1.0)))
                gamma = float(rng.uniform(-1.0, k - 0.5))
                fld = _draw_field(rng, kind,
                                  vanishing=bool(rng.integers(2)),
                                  geometry=gname)
                cases.append(Case(f"draw{draw_idx}_{gname}_hardy", gname,
                                  "hardy", kind, fld,
                                  dict(opt, p=p, gamma=gamma)))
            elif choice == 1:
                p = float(rng.uniform(1.0001, 2.5))
                gamma = float(rng.uniform(0.0, k - 0.5))
                fld = _draw_field(rng, kind, vanishing=True,
                                  geometry=gname, nonneg=True)
                cases.append(Case(f"draw{draw_idx}_{gname}_hardy_signed",
                                  gname, "hardy_signed", kind, fld,
                                  dict(opt, p=p, gamma=gamma)))
            elif choice == 2:
                p = float(rng.uniform(1.0, k - 0.25))
                fld = _draw_field(rng, kind, vanishing=True, geometry=gname)
                cases.append(Case(f"draw{draw_idx}_{gname}_sobolev", gname,
                                  "sobolev_hs", kind, fld, dict(opt, p=p)))
            elif choice == 3:
                p = float(rng.uniform(1.0, k - 0.25))
                alpha_hi = (k - 0.5) / p - 1.0
                alpha = float(rng.uniform(max(-1.0, alpha_hi - 1.5), alpha_hi))
                fld = _draw_field(rng, kind, vanishing=True, geometry=gname)
                cases.append(Case(f"draw{draw_idx}_{gname}_weighted", gname,
                                  "weighted_sobolev", kind, fld,
                                  dict(opt, p=p, alpha=alpha)))
            elif choice == 4:
                p = float(rng.uniform(1.0, k - 0.25))
                alpha_hi = (k - 0.5) / p - 1.0
                alpha = float(rng.uniform(max(-1.0, alpha_hi - 1.0), alpha_hi))
                sigma = float(rng.uniform(alpha, alpha + 1.0))
                fld = _draw_field(rng, kind, vanishing=True, geometry=gname)
                cases.append(Case(f"draw{draw_idx}_{gname}_ckn_single", gname,
                                  "ckn_single", kind, fld,
                                  dict(opt, p=p, alpha=alpha, sigma=sigma)))
            else:
                p = float(rng.uniform(1.0, k - 0.25))
                alpha_hi = (k - 0.5) / p - 1.0
                alpha = float(rng.uniform(max(-1.0, alpha_hi - 1.0), alpha_hi))
                sigma = float(rng.uniform(alpha, alpha + 1.0))
                a = float(rng.uniform(0.0, 1.0))
                q = float(rng.uniform(0.6, 2.5))
                beta_hi = (k - 0.5) / q
                beta = float(rng.uniform(-1.5, min(1.5, beta_hi)))
                # the interpolated weight must stay integrable as well
                gamma = a * sigma + (1 - a) * beta
                fld = _draw_field(rng, kind, vanishing=True, geometry=gname)
                opt2 = dict(opt, p=p, q=q, alpha=alpha, beta=beta,
                            sigma=sigma, a=a)
                tval = 1.0 / (a / (1.0 / (1.0 / p - (alpha + 1 - sigma) / k))
                              + (1 - a) / q)
                if gamma * tval < k - 0.4:
                    cases.append(Case(f"draw{draw_idx}_{gname}_ckn", gname,
                                      "ckn", kind, fld, opt2))
            draw_idx += 1

    # fixed classical specializations on the 3-dimensional domains
    for gname in ("ball", "ball_warped"):
        opt = base_options(gname)
        for which in ("nash", "heisenberg_pauli_weyl"):
            for kind in kinds:
                fld = _draw_field(rng, kind, vanishing=True, geometry=gname)
                cases.append(Case(f"{which}_{gname}_{kind}", gname, which,
                                  kind, fld, dict(opt)))
    # the remaining derived ids on surface domains
    for gname in ("disk_pole", "cap", "geodesic_disk"):
        opt = base_options(gname)
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


def run_corpus(cases, level: int = 0, threads: int = None):
    """Evaluate all cases, reusing one Domain per geometry name."""
    builders = corpus_geometries(level)
    domains = {}

    def get_domain(name):
        if name not in domains:
            domains[name] = builders[name]()
        return domains[name]

    # domains are built up front; their lazy site tables are built under a
    # per-domain lock, and a field's values live in a slot that each thread
    # replaces rather than mutates, so the sweep parallelizes at case
    # granularity with an ordered result list
    for case in cases:
        get_domain(case.geometry)

    def run_one(case):
        return evaluate(case.inequality, get_domain(case.geometry),
                        case.field, case.options)

    n = threads or worker_count()
    if n <= 1:
        return [run_one(c) for c in cases]
    with ThreadPoolExecutor(max_workers=n) as pool:
        return list(pool.map(run_one, cases))
