"""Command-line front end.

Subcommands:

- ``constants``: print every closed-form constant determined by the given
  exponent flags, plus the solved balance closure.
- ``verify``: run the configured evaluation (single case or sweep), write
  JSON/CSV reports, exit 0 only if every non-vacuous report is satisfied.
- ``search``: tightness maximization over a test-function family.
- ``list-scenarios``: bundled scenario configurations.

Exit codes: 0 pass, 1 configuration error, 2 inequality violation,
3 numerical failure.  ``CKN_LAB_THREADS`` caps sweep workers.
"""

from __future__ import annotations

import argparse
import configparser
import csv
import io
import json
import math
import sys
from fractions import Fraction
from importlib import resources
from itertools import product
from pathlib import Path

import numpy as np

from . import constants as cn
from .corpus import worker_count
from .errors import (
    CknLabError,
    ConfigError,
    InconsistentParameters,
    InvalidArgument,
    ParameterConflict,
    PreconditionViolated,
)
from .geometry import (
    AmbientSpace,
    Domain,
    ball_domain,
    disk_mesh,
    flat_disk_patch,
    geodesic_disk,
    graph_mesh,
    plane_rect,
    poly_graph_patch,
    sphere_mesh,
    sphere_patch,
)
from .geometry.fields import DOF_LENGTH, make_field
from .geometry.mesh import read_mesh
from .inequalities import CATALOG_IDS, evaluate
from .search import maximize_ratio
from .warp import CurvatureProfile, load_profile, solve_warping

SCHEMA_VERSION = 1

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_VIOLATION = 2
EXIT_NUMERICAL = 3


# ---------------------------------------------------------------------------
# constants subcommand
# ---------------------------------------------------------------------------

def _frac(text):
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise ConfigError(f"cannot parse number {text!r}") from exc


def cmd_constants(args) -> int:
    rows = {}
    try:
        k = int(args.k)
        p = _frac(args.p)
        pf = float(p)
        if not 1 <= pf:
            raise ConfigError("p must be >= 1")
        rows["k"] = k
        rows["p"] = pf
        if pf < k:
            rows["p_star"] = k * pf / (k - pf)
            rows["S_kp"] = cn.hoffman_spruck_optimal(k, pf)
            rows["S_kp_flat"] = cn.hoffman_spruck_optimal(k, pf,
                                                          flat_ambient=True)
        if args.z is not None:
            rows["S_kpz"] = cn.hoffman_spruck_constant(k, pf, float(_frac(args.z)))
        hp = float(_frac(args.hprime))
        if args.alpha is not None:
            alpha = float(_frac(args.alpha))
            wc = cn.weighted_sobolev_constants(k, pf, alpha, hp)
            rows["Gamma"] = wc.grad_coeff
            rows["Phi"] = wc.perp_sq_coeff
            rows["Delta"] = wc.perp_p_coeff
            rows["eps_opt"] = wc.eps_opt
            rows["Lambda"] = cn.hardy_endpoint_coeff(k, pf, alpha, hp)
        params = None
        if args.sigma is not None and args.q is None and args.t is None:
            params = cn.solve_balance(k=k, p=p,
                                      alpha=_frac(args.alpha or "0"),
                                      sigma=_frac(args.sigma))
        elif args.a is not None and args.q is not None:
            params = cn.solve_balance(k=k, p=p, q=_frac(args.q),
                                      alpha=_frac(args.alpha or "0"),
                                      beta=_frac(args.beta or "0"),
                                      sigma=_frac(args.sigma or "0"),
                                      a=_frac(args.a))
        elif args.t is not None and args.q is not None:
            params = cn.solve_balance(k=k, p=p, q=_frac(args.q),
                                      alpha=_frac(args.alpha or "0"),
                                      beta=_frac(args.beta or "0"),
                                      gamma=_frac(args.gamma or "0"),
                                      t=_frac(args.t))
        if params is not None:
            params.validate()
            for name, value in params.as_floats().items():
                rows.setdefault(name, value)
            if pf < k and float(params.p) * (float(params.alpha) + 1.0) < k:
                lam, comb = cn.interpolation_constants(
                    params, hp, cn.hoffman_spruck_optimal(k, pf))
                rows["Lambda"] = lam
                rows["C"] = comb
    except CknLabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    if args.json:
        print(json.dumps({"schema_version": SCHEMA_VERSION,
                          "constants": rows}, sort_keys=True, indent=2))
    else:
        width = max(len(name) for name in rows)
        for name, value in rows.items():
            if isinstance(value, float):
                print(f"{name:<{width}}  {value:.12g}")
            else:
                print(f"{name:<{width}}  {value}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# configuration handling
# ---------------------------------------------------------------------------

_GEOMETRY_K = {
    "disk_mesh": 2, "sphere_mesh": 2, "graph_mesh": 2, "flat_disk_patch": 2,
    "sphere_patch": 2, "plane_rect": 2, "poly_graph": 2, "geodesic_disk": 2,
    "ball": 3,
}


# numeric options read by build_ambient, build_domain and build_field:
# section -> option -> (parser, must be positive)
_NUMBERS = {
    "ambient": {"dim": (int, True), "r_max": (float, False),
                "step": (float, False), "curvature": (float, False)},
    "geometry": {"radius": (float, True), "half_width": (float, True),
                 "rings": (int, True), "divisions": (int, True),
                 "cells": (int, True), "cells_r": (int, True),
                 "cells_theta": (int, True), "cells_phi": (int, True),
                 "level": (int, False), "quadrature_order": (int, False),
                 "height": (float, False), "theta0": (float, False),
                 "theta1": (float, False)},
    "field": {"seed": (int, False)},
}
# whitespace- or comma-separated vectors and their lengths
_VECTORS = {"center": 3, "axes": 6, "coeffs": 3}


def scenario_dir():
    return resources.files("cknlab") / "scenarios"


def resolve_config_path(name: str) -> Path:
    path = Path(name)
    if path.exists():
        return path
    candidate = scenario_dir() / name
    if candidate.is_file():
        return Path(str(candidate))
    candidate = scenario_dir() / f"{name}.cfg"
    if candidate.is_file():
        return Path(str(candidate))
    raise ConfigError(f"config file {name!r} not found "
                      f"(and no bundled scenario with that name)")


def load_config(path: Path) -> configparser.ConfigParser:
    cfg = configparser.ConfigParser()
    try:
        with open(path) as handle:
            cfg.read_file(handle)
    except (OSError, configparser.Error) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    return cfg


def _get(cfg, section, option, default=None):
    if cfg.has_option(section, option):
        return cfg.get(section, option)
    return default


def _floats(text):
    return tuple(float(x) for x in text.replace(",", " ").split())


def expand_sweep(cfg: configparser.ConfigParser) -> list[dict]:
    """Cartesian product of the [sweep] comma lists over the base config."""
    base = {section: dict(cfg.items(section)) for section in cfg.sections()
            if section != "sweep"}
    if not cfg.has_section("sweep"):
        return [base]
    axes = []
    for dotted, values in cfg.items("sweep"):
        if "." not in dotted:
            raise ConfigError(f"sweep key {dotted!r} must be section.option")
        section, option = dotted.split(".", 1)
        options = [v.strip() for v in values.split(",") if v.strip()]
        if not options:
            raise ConfigError(f"sweep key {dotted!r} has no values")
        axes.append((section, option, options))
    combos = []
    for values in product(*(opts for _, _, opts in axes)):
        combo = {section: dict(opts) for section, opts in base.items()}
        for (section, option, _), value in zip(axes, values):
            combo.setdefault(section, {})[option] = value
        combos.append(combo)
    return combos


def _number(section, option, text, parse=float):
    try:
        return parse(text)
    except ValueError as exc:
        kind = "an integer" if parse is int else "a number"
        raise ConfigError(f"[{section}] {option} = {text!r} is not "
                          f"{kind}") from exc


def _vector(section, option, text):
    return tuple(_number(section, option, x)
                 for x in text.replace(",", " ").split())


def _validate_numbers(case: dict):
    """Parse every numeric option the builders read, and check its range."""
    for section, table in _NUMBERS.items():
        values = case.get(section, {})
        for option, (parse, positive) in table.items():
            if option in values:
                value = _number(section, option, values[option], parse)
                if positive and not value > 0:
                    raise ConfigError(f"[{section}] {option} must be "
                                      f"positive, got {value}")
    geo = case.get("geometry", {})
    for option, length in _VECTORS.items():
        if option in geo and len(_vector("geometry", option,
                                         geo[option])) != length:
            raise ConfigError(f"[geometry] {option} needs {length} values")
    for chunk in geo["poly"].split(";") if "poly" in geo else ():
        parts = chunk.split()
        if len(parts) != 3:
            raise ConfigError(f"[geometry] poly term {chunk.strip()!r} "
                              "must be 'i j coefficient'")
        for text, parse in zip(parts, (int, int, float)):
            _number("geometry", "poly", text, parse)


def validate_case(case: dict) -> dict:
    """Check a case before any geometry work; returns parsed options."""
    geo = case.get("geometry", {})
    builtin = geo.get("builtin")
    if builtin is None and "path" not in geo:
        raise ConfigError("[geometry] needs 'builtin' or 'path'")
    if builtin is not None and builtin not in _GEOMETRY_K:
        raise ConfigError(f"unknown geometry builtin {builtin!r}; "
                          f"choices: {sorted(_GEOMETRY_K)}")
    k = _GEOMETRY_K.get(builtin, 2)

    ineq = case.get("inequality", {})
    ineq_id = ineq.get("id")
    if ineq_id not in CATALOG_IDS:
        raise ConfigError(f"unknown inequality id {ineq_id!r}; "
                          f"choices: {CATALOG_IDS}")
    options = {}
    for key in ("p", "gamma", "alpha", "sigma", "beta", "q", "a", "t", "r0",
                "slack", "inj_radius", "vol_threshold"):
        if key in ineq:
            options[key] = float(_frac(ineq[key]))
    if "minimal" in ineq:
        options["minimal"] = ineq["minimal"].lower() in ("1", "true", "yes")
    if ineq_id in ("hardy", "hardy_signed", "hardy_hadamard"):
        if "p" not in options or "gamma" not in options:
            raise ConfigError(f"{ineq_id} needs p and gamma")
        if options["p"] < 1:
            raise ConfigError("invariant violated: p >= 1")
        if options["gamma"] >= k:
            raise ConfigError(
                f"invariant violated: weight exponent gamma = "
                f"{options['gamma']} must be below the dimension k = {k}")
    if ineq_id in ("sobolev_hs", "weighted_sobolev", "ckn_single", "ckn"):
        if "p" not in options:
            raise ConfigError(f"{ineq_id} needs p")
        if not 1 <= options["p"] < k:
            raise ConfigError("invariant violated: 1 <= p < k")
    if ineq_id == "weighted_sobolev":
        if "alpha" not in options:
            raise ConfigError("weighted_sobolev needs alpha")
        if options["p"] * (options["alpha"] + 1.0) >= k:
            raise ConfigError("invariant violated: p * (alpha + 1) < k")
    if ineq_id == "ckn_single" and ("alpha" not in options
                                    or "sigma" not in options):
        raise ConfigError("ckn_single needs alpha and sigma")
    if ineq_id == "ckn":
        try:
            if "t" in options and "gamma" in options:
                cn.solve_balance(k=k, p=options["p"], q=options["q"],
                                 alpha=options["alpha"], beta=options["beta"],
                                 gamma=options["gamma"], t=options["t"])
            else:
                cn.solve_balance(k=k, p=options["p"], q=options["q"],
                                 alpha=options["alpha"], beta=options["beta"],
                                 sigma=options["sigma"], a=options["a"])
        except KeyError as exc:
            raise ConfigError(f"ckn closure missing key {exc}") from exc
        except CknLabError as exc:
            raise ConfigError(f"invariant violated: {exc}") from exc

    fld = case.get("field", {})
    kind = fld.get("kind", "radial_power")
    if kind not in DOF_LENGTH:
        raise ConfigError(f"unknown field kind {kind!r}")
    if "dof" in fld:
        dof = _vector("field", "dof", fld["dof"])
        if len(dof) != DOF_LENGTH[kind]:
            raise ConfigError(f"[field] {kind} takes {DOF_LENGTH[kind]} "
                              f"dof, got {len(dof)}")
    _validate_numbers(case)
    return options


def build_ambient(case: dict) -> AmbientSpace:
    amb = case.get("ambient", {})
    kind = amb.get("kind", "euclidean")
    dim = int(amb.get("dim", 3))
    if kind == "euclidean":
        return AmbientSpace.euclidean(dim)
    if kind != "warped":
        raise ConfigError(f"unknown ambient kind {kind!r}")
    r_max = float(amb.get("r_max", 1.5))
    step = float(amb.get("step", 1e-3))
    if "profile_file" in amb:
        profile = load_profile(amb["profile_file"])
    else:
        profile = CurvatureProfile.constant(float(amb.get("curvature", 1.0)))
    warp = solve_warping(profile, r_max, step=step)
    return AmbientSpace.warped(dim, warp)


def build_domain(case: dict, level: int = 0) -> Domain:
    geo = case.get("geometry", {})
    ambient = build_ambient(case)
    order = int(geo.get("quadrature_order", 4))
    scale = 2 ** level
    builtin = geo.get("builtin")
    radius = float(geo.get("radius", 1.0))
    center = _floats(geo.get("center", "0 0 0"))
    if builtin is None:
        mesh = read_mesh(geo["path"])
        for _ in range(level):
            mesh = mesh.refine()
        return Domain(mesh, ambient, order)
    if builtin == "disk_mesh":
        axes = None
        if "axes" in geo:
            vals = _floats(geo["axes"])
            axes = np.array(vals).reshape(2, 3)
        mesh = disk_mesh(radius, rings=int(geo.get("rings", 8)) * scale,
                         center=center, axes=axes)
        return Domain(mesh, ambient, order)
    if builtin == "sphere_mesh":
        mesh = sphere_mesh(radius, level=int(geo.get("level", 3)) + level,
                           center=center)
        return Domain(mesh, ambient, order)
    if builtin == "graph_mesh":
        coeffs = _floats(geo.get("coeffs", "0.2 -0.1 0.15"))

        def height(x, y):
            return coeffs[0] * x * x + coeffs[1] * y * y + coeffs[2] * x * y

        mesh = graph_mesh(height, float(geo.get("half_width", 1.0)),
                          int(geo.get("divisions", 8)) * scale)
        return Domain(mesh, ambient, order)
    if builtin == "flat_disk_patch":
        cells = (int(geo.get("cells_r", 8)) * scale,
                 int(geo.get("cells_theta", 16)) * scale)
        return Domain(flat_disk_patch(ambient, radius,
                                      float(geo.get("height", 0.0)), cells),
                      order=order)
    if builtin == "sphere_patch":
        cells = (int(geo.get("cells_theta", 8)) * scale,
                 int(geo.get("cells_phi", 16)) * scale)
        theta = (float(geo.get("theta0", 0.0)),
                 float(geo.get("theta1", math.pi)))
        return Domain(sphere_patch(ambient, radius, center, theta, cells),
                      order=order)
    if builtin == "plane_rect":
        return Domain(plane_rect(ambient, float(geo.get("half_width", 1.0)),
                                 float(geo.get("height", 0.0)),
                                 int(geo.get("cells", 8)) * scale),
                      order=order)
    if builtin == "poly_graph":
        pairs = geo.get("poly", "2 0 0.25; 0 2 -0.15").split(";")
        coeffs = {}
        for chunk in pairs:
            i, j, c = chunk.split()
            coeffs[(int(i), int(j))] = float(c)
        return Domain(poly_graph_patch(ambient, coeffs,
                                       float(geo.get("half_width", 1.0)),
                                       int(geo.get("cells", 8)) * scale),
                      order=order)
    if builtin == "geodesic_disk":
        cells = (int(geo.get("cells_r", 8)) * scale,
                 int(geo.get("cells_theta", 16)) * scale)
        return Domain(geodesic_disk(ambient, radius, cells), order=order)
    if builtin == "ball":
        cells = (int(geo.get("cells_r", 4)) * scale,
                 int(geo.get("cells_theta", 4)) * scale,
                 int(geo.get("cells_phi", 8)) * scale)
        return Domain(ball_domain(ambient, radius, cells), order=order)
    raise ConfigError(f"unknown geometry builtin {builtin!r}")


def build_field(case: dict, seed: int):
    fld = case.get("field", {})
    kind = fld.get("kind", "radial_power")
    vanishing = fld.get("boundary_vanishing", "true").lower() in (
        "1", "true", "yes")
    dof = None
    if "dof" in fld:
        dof = _floats(fld["dof"])
    local_seed = int(fld.get("seed", seed))
    return make_field(kind, dof, boundary_vanishing=vanishing,
                      seed=local_seed)


# ---------------------------------------------------------------------------
# verify / search drivers
# ---------------------------------------------------------------------------

def _write_outputs(records, json_path, csv_path, echo_json):
    payload = {"schema_version": SCHEMA_VERSION, "records": records}
    text = json.dumps(payload, sort_keys=True, indent=2)
    if json_path:
        Path(json_path).write_text(text + "\n")
    if echo_json:
        print(text)
    if csv_path:
        rows = [r for r in records if r.get("type") == "report"]
        if rows:
            flat = []
            for r in rows:
                flat.append({
                    "id": r["id"], "level": r.get("level", 0),
                    "ratio": r["ratio"], "lhs_total": r["lhs_total"],
                    "rhs_total": r["rhs_total"],
                    "quadrature_error": r["quadrature_error"],
                    "slack": r["slack"], "satisfied": int(r["satisfied"]),
                    "degenerate": int(r["degenerate"]),
                    "generator": r["mesh_stats"].get("generator", ""),
                    "cells": r["mesh_stats"].get("cells", 0),
                })
            buf = io.StringIO()
            writer = csv.DictWriter(buf, fieldnames=list(flat[0].keys()))
            writer.writeheader()
            writer.writerows(flat)
            Path(csv_path).write_text(buf.getvalue())


def cmd_verify(args) -> int:
    try:
        path = resolve_config_path(args.config)
        cfg = load_config(path)
        cases = expand_sweep(cfg)
        parsed = [(case, validate_case(case)) for case in cases]
    except (CknLabError, ValueError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG

    seed = args.seed if args.seed is not None else 0
    levels = args.levels if args.levels is not None else 0
    records = []
    failures = []
    numerical = []

    def run_case(item):
        case, options = item
        opts = dict(options)
        if args.slack is not None:
            opts["slack"] = args.slack
        out = []
        for level in range(levels + 1):
            domain = build_domain(case, level)
            field = build_field(case, seed)
            rep = evaluate(case["inequality"]["id"], domain, field, opts)
            rec = rep.to_dict()
            rec["level"] = level
            rec["seed"] = seed
            out.append(rec)
        return out

    n_workers = worker_count()
    try:
        if n_workers > 1 and len(parsed) > 1:
            from concurrent.futures import ThreadPoolExecutor
            with ThreadPoolExecutor(max_workers=n_workers) as pool:
                chunks = list(pool.map(run_case, parsed))
        else:
            chunks = [run_case(item) for item in parsed]
    except (InvalidArgument, PreconditionViolated, ParameterConflict,
            InconsistentParameters) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except CknLabError as exc:
        print(f"evaluation error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    for chunk in chunks:
        for rec in chunk:
            records.append(rec)
            if not math.isfinite(rec["ratio"]) and not rec["degenerate"]:
                numerical.append(rec)
            elif not rec["satisfied"]:
                failures.append(rec)

    _write_outputs(records, args.out, args.csv, args.json)
    if numerical:
        print(f"{len(numerical)} report(s) numerically invalid",
              file=sys.stderr)
        return EXIT_NUMERICAL
    if failures:
        print(f"{len(failures)} report(s) violate their inequality:",
              file=sys.stderr)
        for rec in failures:
            print(f"  {rec['id']}: ratio {rec['ratio']:.6g} > 1 + "
                  f"{rec['slack']:.3g}", file=sys.stderr)
        return EXIT_VIOLATION
    if not args.json:
        for rec in records:
            tag = "vacuous" if rec["degenerate"] else f"ratio {rec['ratio']:.6g}"
            print(f"ok {rec['id']} level {rec.get('level', 0)}: {tag}")
    return EXIT_OK


def cmd_search(args) -> int:
    try:
        path = resolve_config_path(args.config)
        cfg = load_config(path)
        cases = expand_sweep(cfg)
        parsed = [(case, validate_case(case)) for case in cases]
    except (CknLabError, ValueError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    seed = args.seed if args.seed is not None else 0
    levels = args.levels if args.levels is not None else 0
    records = []
    results = []
    try:
        for case, options in parsed:
            opts = dict(options)
            if args.slack is not None:
                opts["slack"] = args.slack
            budget = args.budget or int(case.get("run", {}).get("budget", 100))
            domain = build_domain(case, 0)
            family = build_field(case, seed)
            result = maximize_ratio(case["inequality"]["id"], domain, family,
                                    opts, budget=budget, seed=seed,
                                    refine_levels=levels)
            rec = result.to_dict()
            rec["seed"] = seed
            records.append(rec)
            results.append(result)
    except (InvalidArgument, PreconditionViolated, ParameterConflict,
            InconsistentParameters) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except CknLabError as exc:
        print(f"evaluation error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    _write_outputs(records, args.out, args.csv, args.json)
    if not all(math.isfinite(r.best_ratio) for r in results):
        return EXIT_NUMERICAL
    beyond = [r for r in results if r.best_ratio > 1.0 + r.slack]
    if beyond:
        for r in beyond:
            print(f"search found ratio {r.best_ratio:.6g} beyond 1 + "
                  f"{r.slack:.3g}", file=sys.stderr)
        return EXIT_VIOLATION
    if not args.json:
        for rec in records:
            print(f"ok {rec['inequality']}: best ratio "
                  f"{rec['best_ratio']:.6g} in {rec['evaluations']} evals")
    return EXIT_OK


def cmd_list_scenarios(_args) -> int:
    names = sorted(p.name for p in scenario_dir().iterdir()
                   if p.name.endswith(".cfg"))
    for name in names:
        print(name)
    return EXIT_OK


# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ckn-lab",
        description="Numerical verification lab for submanifold functional "
                    "inequalities")
    sub = parser.add_subparsers(dest="command", required=True)

    pc = sub.add_parser("constants", help="print closed-form constants")
    pc.add_argument("--k", required=True)
    pc.add_argument("--p", required=True)
    pc.add_argument("--z")
    pc.add_argument("--alpha")
    pc.add_argument("--sigma")
    pc.add_argument("--q")
    pc.add_argument("--a")
    pc.add_argument("--beta")
    pc.add_argument("--gamma")
    pc.add_argument("--t")
    pc.add_argument("--hprime", default="1")
    pc.add_argument("--json", action="store_true")
    pc.set_defaults(fn=cmd_constants)

    def common(p):
        p.add_argument("config")
        p.add_argument("--json", action="store_true")
        p.add_argument("--csv")
        p.add_argument("--out", help="write the JSON payload to this path")
        p.add_argument("--seed", type=int)
        p.add_argument("--levels", type=int)
        p.add_argument("--slack", type=float)

    pv = sub.add_parser("verify", help="evaluate configured inequalities")
    common(pv)
    pv.set_defaults(fn=cmd_verify)

    ps = sub.add_parser("search", help="maximize the tightness ratio")
    common(ps)
    ps.add_argument("--budget", type=int)
    ps.set_defaults(fn=cmd_search)

    pl = sub.add_parser("list-scenarios", help="list bundled scenarios")
    pl.set_defaults(fn=cmd_list_scenarios)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
