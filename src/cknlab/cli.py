"""Command-line front end.

Subcommands:

- ``constants``: print every closed-form constant determined by the given
  exponent flags, plus the solved balance closure.
- ``verify``: run the configured evaluation (single case or sweep), write
  JSON/CSV reports, exit 0 only if every non-vacuous report is satisfied.
- ``search``: tightness maximization over a test-function family.
- ``list-scenarios``: bundled scenario configurations.

The config stage parses each case once, before any geometry work:
:func:`validate_case` reads its mesh or profile file, builds its field and
returns a :class:`ParsedCase`, from which the run stage builds the domain.

Exit codes: 0 pass, 1 configuration error (a malformed command line too),
2 inequality violation, 3 numerical failure (a failed ``minimal`` check
too).  ``CKN_LAB_THREADS``, a positive integer, sets the sweep's workers.
"""

from __future__ import annotations

import argparse
import configparser
import csv
import io
import json
import math
import os
import sys
from fractions import Fraction
from importlib import resources
from itertools import product
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

from . import constants as cn
from .errors import (
    CknLabError,
    ConfigError,
    InconsistentParameters,
    InsufficientStencil,
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
from .geometry.fields import FAMILIES, Field, make_field
from .geometry.mesh import read_mesh
from .inequalities import (CATALOG, CATALOG_IDS, _ckn_params, _single_params,
                           evaluate, require_options)
from .search import maximize_ratio, refinements
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
        value = Fraction(text)
        float(value)   # refuses a value that overflows a float
    except (ValueError, ZeroDivisionError, OverflowError) as exc:
        raise ConfigError(f"cannot parse number {text!r}") from exc
    return value


def cmd_constants(args) -> int:
    rows = {}
    try:
        k = int(args.k) if args.k.strip().isdecimal() else 0
        if k < 1:
            raise ConfigError(f"--k must be a positive integer, got {args.k!r}")
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
        # the catalog's closures: a two-factor flag asks for ckn's, where
        # (t, gamma) wins over (sigma, a); --sigma alone for ckn_single's
        o = {"p": p, **{key: _frac(getattr(args, key) or "0")
                        for key in ("alpha", "beta", "sigma", "gamma")}}
        params = None
        two_factor = [f"--{key}" for key in ("q", "a", "t", "beta", "gamma")
                      if getattr(args, key) is not None]
        if two_factor:
            given = " ".join(two_factor)
            if args.q is None:
                raise ConfigError(f"{given}: the two-factor closure needs --q")
            if args.a is None and args.t is None:
                raise ConfigError(
                    f"{given}: the two-factor closure needs --a or --t")
            o.update((key, _frac(getattr(args, key)))
                     for key in ("q", "a", "t")
                     if getattr(args, key) is not None)
            params = _ckn_params(k, o)
        elif args.sigma is not None:
            params = _single_params(k, o)
        if params is not None:
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

def scenario_dir():
    return resources.files("cknlab") / "scenarios"


def resolve_config_path(name: str) -> Path:
    path = Path(name)
    if path.exists():
        return path
    for candidate in (scenario_dir() / name, scenario_dir() / f"{name}.cfg"):
        if candidate.is_file():
            return Path(str(candidate))
    raise ConfigError(f"config file {name!r} not found "
                      f"(and no bundled scenario with that name)")


def load_config(path: Path) -> configparser.ConfigParser:
    # "#" starts a comment anywhere on a line, as in mesh and profile files;
    # no section lends its options to the others, so [DEFAULT] is one more
    # section name that validate_case checks
    cfg = configparser.ConfigParser(inline_comment_prefixes=("#",),
                                    default_section="")
    try:
        with open(path) as handle:
            cfg.read_file(handle)
    except (OSError, configparser.Error) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    return cfg


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


def _finite(text):
    """A float, refusing the infinities and NaN (``1e400`` is infinite)."""
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"{text!r} is not finite")
    return value


def _parse(section, option, text, parse=_finite):
    try:
        return parse(text)
    except InvalidArgument as exc:
        # a file reader's error names the file
        raise ConfigError(f"[{section}] {option}: {exc}") from exc
    except ValueError as exc:
        if parse in (int, _finite):
            kind = "an integer" if parse is int else "a finite number"
            raise ConfigError(f"[{section}] {option} = {text!r} is not "
                              f"{kind}") from exc
        raise ConfigError(f"[{section}] {option} = {text!r}: {exc}") from exc


def _floats(n):
    """Parser of ``n`` whitespace- or comma-separated numbers."""
    def parse(text):
        values = tuple(_finite(x) for x in text.replace(",", " ").split())
        if len(values) != n:
            raise ValueError(f"needs {n} values, got {len(values)}")
        return values
    return parse


def _dof(text):
    """The field's dof: finite numbers, as many as its family takes."""
    return tuple(_parse("field", "dof", x)
                 for x in text.replace(",", " ").split())


def _exact(text):
    """A number read exactly, as ``constants`` reads it (``3/5`` too)."""
    return float(_frac(text))


def _poly(text):
    """``i j coefficient`` terms separated by semicolons: the coefficient of
    x^i y^j, for natural i and j, each pair at most once."""
    coeffs = {}
    for term in (chunk.strip() for chunk in text.split(";")):
        try:
            i, j, c = term.split()
            i, j = int(i), int(j)
        except ValueError:
            raise ValueError(
                f"term {term!r} must be 'i j coefficient'") from None
        if min(i, j) < 0:
            raise ValueError(f"term {term!r} has a negative exponent")
        if (i, j) in coeffs:
            raise ValueError(f"term {term!r} repeats the exponents of an "
                             "earlier term")
        coeffs[i, j] = _finite(c)
    return coeffs


def _flag(text):
    """configparser's boolean words, in any case."""
    try:
        return configparser.ConfigParser.BOOLEAN_STATES[text.lower()]
    except KeyError:
        raise ValueError("must be one of " + ", ".join(
            configparser.ConfigParser.BOOLEAN_STATES)) from None


def _choice(*names):
    """Parser of one of ``names``."""
    def parse(text):
        if text not in names:
            raise ValueError(f"must be one of {', '.join(names)}")
        return text
    return parse


# lower bounds of an option: (admits(value), what an admissible value is)
_POSITIVE = (lambda value: value > 0, "positive")


def _at_least(least):
    return (lambda value: value >= least, f"at least {least}")


def _read(section: str, values: dict, table: dict) -> dict:
    """Parse the options ``table`` lists, with defaults, checking ranges;
    ``table`` maps option -> (parser, default, lower bound or None)."""
    out = {}
    for option, (parse, default, bound) in table.items():
        if option not in values:
            out[option] = default
            continue
        value = _parse(section, option, values[option], parse)
        if bound is not None and not bound[0](value):
            raise ConfigError(f"[{section}] {option} must be {bound[1]}, "
                              f"got {value}")
        out[option] = value
    return out


# one option table per section; [geometry]'s is its builtin's or _PATH.  The
# file readers are looked up when a case is parsed, so a wrapper installed
# on one after import also wraps these calls.
_AMBIENT = {"kind": (_choice("euclidean", "warped"), "euclidean", None),
            "dim": (int, 3, _POSITIVE), "r_max": (_finite, 1.5, None),
            "step": (_finite, 1e-3, None), "curvature": (_finite, 1.0, None),
            "profile_file": (lambda path: load_profile(path), None, None)}
_FIELD = {"kind": (_choice(*FAMILIES), "radial_power", None),
          "boundary_vanishing": (_flag, True, None),
          "seed": (int, None, _at_least(0)), "dof": (_dof, None, None)}
# an unset number is absent from the options, which require_options checks
_EXACT = (_exact, None, None)
_INEQUALITY = {"id": (str, None, None), "p": _EXACT, "gamma": _EXACT,
               "alpha": _EXACT, "sigma": _EXACT, "beta": _EXACT, "q": _EXACT,
               "a": _EXACT, "t": _EXACT, "r0": _EXACT,
               "slack": (_exact, None, (lambda value: value >= 0, ">= 0")),
               "inj_radius": _EXACT, "minimal": (_flag, None, None)}
_RUN = {"budget": (int, 100, _POSITIVE)}

_RADIUS = (_finite, 1.0, _POSITIVE)
_HALF_WIDTH = (_finite, 1.0, _POSITIVE)
_HEIGHT = (_finite, 0.0, None)
_CENTER = (_floats(3), (0.0, 0.0, 0.0), None)


def _count(default):
    return (int, default, _POSITIVE)


class Builtin(NamedTuple):
    """A builtin geometry: its dimension, its options and its builder."""

    k: int
    options: dict   # option -> (parser, default, lower bound or None)
    build: Callable  # build(ambient, options) -> mesh or patch


def _quadratic(c):
    def height(x, y):
        return c[0] * x * x + c[1] * y * y + c[2] * x * y
    return height


# Builders look the generators up in this module's globals when they run, so
# a wrapper installed on a generator after import also wraps these calls.
BUILTINS = {
    "disk_mesh": Builtin(
        2, {"radius": _RADIUS, "rings": _count(8), "center": _CENTER,
            "axes": (_floats(6), None, None)},
        lambda amb, o: disk_mesh(
            o["radius"], rings=o["rings"], center=o["center"],
            axes=None if o["axes"] is None
            else np.array(o["axes"]).reshape(2, 3))),
    "sphere_mesh": Builtin(
        2, {"radius": _RADIUS, "level": (int, 3, _at_least(0)),
            "center": _CENTER},
        lambda amb, o: sphere_mesh(o["radius"], level=o["level"],
                                   center=o["center"])),
    "graph_mesh": Builtin(
        2, {"coeffs": (_floats(3), (0.2, -0.1, 0.15), None),
            "half_width": _HALF_WIDTH, "divisions": _count(8)},
        lambda amb, o: graph_mesh(_quadratic(o["coeffs"]),
                                  o["half_width"], o["divisions"])),
    "flat_disk_patch": Builtin(
        2, {"radius": _RADIUS, "height": _HEIGHT, "cells_r": _count(8),
            "cells_theta": _count(16)},
        lambda amb, o: flat_disk_patch(
            amb, o["radius"], o["height"], (o["cells_r"], o["cells_theta"]))),
    "sphere_patch": Builtin(
        2, {"radius": _RADIUS, "center": _CENTER,
            "theta0": (_finite, 0.0, None), "theta1": (_finite, math.pi, None),
            "cells_theta": _count(8), "cells_phi": _count(16)},
        lambda amb, o: sphere_patch(
            amb, o["radius"], o["center"], (o["theta0"], o["theta1"]),
            (o["cells_theta"], o["cells_phi"]))),
    "plane_rect": Builtin(
        2, {"half_width": _HALF_WIDTH, "height": _HEIGHT, "cells": _count(8)},
        lambda amb, o: plane_rect(amb, o["half_width"], o["height"],
                                  o["cells"])),
    "poly_graph": Builtin(
        2, {"poly": (_poly, {(2, 0): 0.25, (0, 2): -0.15}, None),
            "half_width": _HALF_WIDTH, "cells": _count(8)},
        lambda amb, o: poly_graph_patch(amb, o["poly"], o["half_width"],
                                        o["cells"])),
    "geodesic_disk": Builtin(
        2, {"radius": _RADIUS, "cells_r": _count(8), "cells_theta": _count(16)},
        lambda amb, o: geodesic_disk(
            amb, o["radius"], (o["cells_r"], o["cells_theta"]))),
    "ball": Builtin(
        3, {"radius": _RADIUS, "cells_r": _count(4), "cells_theta": _count(4),
            "cells_phi": _count(8)},
        lambda amb, o: ball_domain(
            amb, o["radius"],
            (o["cells_r"], o["cells_theta"], o["cells_phi"]))),
}
# the Domain pairs each rule with one of the next lower order
_ORDER = {"quadrature_order": (int, 4, _at_least(2))}
# a [geometry] without a builtin: a mesh file
_PATH = {"path": (lambda path: read_mesh(path), None, None), **_ORDER}


def _check_names(case: dict):
    """Refuse a section or an option that nothing reads (a misspelling).

    [geometry] knows the options of every builtin, so a sweep across
    builtins may set options that only some of them read."""
    known = {"ambient": _AMBIENT,
             "geometry": {"builtin", *_PATH,
                          *(o for b in BUILTINS.values() for o in b.options)},
             "field": _FIELD, "inequality": _INEQUALITY, "run": _RUN}
    for section, values in case.items():
        if section not in known:
            raise ConfigError(f"unknown section [{section}]; choices: "
                              f"{', '.join(known)} and sweep")
        for option in values:
            if option not in known[section]:
                raise ConfigError(f"[{section}] unknown option {option!r}")


class DomainSpec(NamedTuple):
    """A case's parsed [ambient] and [geometry]: what build_domain builds."""

    ambient: dict     # its profile_file read, else None
    builtin: Builtin  # None for a mesh file
    geometry: dict    # its path read, for a mesh file


class ParsedCase(NamedTuple):
    """A checked case, each option parsed and each file read once."""

    domain: DomainSpec
    field: Field
    id: str
    options: dict     # the inequality's options
    budget: int
    source: tuple     # the raw [ambient] and [geometry]: search's reuse key


def parse_domain(case: dict) -> DomainSpec:
    """Parse a case's [ambient] and [geometry], reading its files."""
    geo = case.get("geometry", {})
    name = geo.get("builtin")
    builtin = BUILTINS.get(name)
    if name is None and "path" not in geo:
        raise ConfigError("[geometry] needs 'builtin' or 'path'")
    if name is not None and builtin is None:
        raise ConfigError(f"unknown geometry builtin {name!r}; "
                          f"choices: {sorted(BUILTINS)}")
    table = _PATH if builtin is None else {**builtin.options, **_ORDER}
    ambient = _read("ambient", case.get("ambient", {}), _AMBIENT)
    options = _read("geometry", geo, table)
    if builtin is None and options["path"].n != ambient["dim"]:
        raise ConfigError(f"[geometry] path: the mesh has "
                          f"{options['path'].n}-d vertices in a "
                          f"{ambient['dim']}-d ambient")
    return DomainSpec(ambient, builtin, options)


def validate_case(case: dict, seed: int = 0) -> ParsedCase:
    """Parse and check a case before any geometry work; the run stage reads
    the parse it returns.  ``seed`` draws a ``random_smooth`` member that
    sets neither ``dof`` nor ``[field] seed``."""
    _check_names(case)
    domain = parse_domain(case)
    budget = _read("run", case.get("run", {}), _RUN)["budget"]
    options = _read("inequality", case.get("inequality", {}), _INEQUALITY)
    ineq_id = options.pop("id")
    if ineq_id not in CATALOG:
        raise ConfigError(f"unknown inequality id {ineq_id!r}; "
                          f"choices: {CATALOG_IDS}")
    options = {key: value for key, value in options.items()
               if value is not None}
    try:
        require_options(ineq_id, options)
    except InvalidArgument as exc:
        raise ConfigError(str(exc)) from exc
    k = domain.builtin.k if domain.builtin else domain.geometry["path"].k
    try:
        CATALOG[ineq_id].check(k, options)
    except CknLabError as exc:
        raise ConfigError(f"invariant violated: {exc}") from exc

    o = _read("field", case.get("field", {}), _FIELD)
    try:
        field = make_field(o["kind"], o["dof"],
                           boundary_vanishing=o["boundary_vanishing"],
                           seed=seed if o["seed"] is None else o["seed"])
    except InvalidArgument as exc:
        raise ConfigError(f"[field] dof: {exc}") from exc
    return ParsedCase(domain, field, ineq_id, options, budget,
                      (case.get("ambient"), case.get("geometry")))


def build_domain(spec: DomainSpec) -> Domain:
    """The Domain of a parsed [ambient] and [geometry]."""
    o = spec.ambient
    if o["kind"] == "euclidean":
        ambient = AmbientSpace.euclidean(o["dim"])
    else:
        profile = (o["profile_file"] if o["profile_file"] is not None
                   else CurvatureProfile.constant(o["curvature"]))
        ambient = AmbientSpace.warped(
            o["dim"], solve_warping(profile, o["r_max"], step=o["step"]))
    geometry = (spec.geometry["path"] if spec.builtin is None
                else spec.builtin.build(ambient, spec.geometry))
    return Domain(geometry, ambient, spec.geometry["quadrature_order"])


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
    flat = [{"id": r["id"], "level": r.get("level", 0),
             "ratio": r["ratio"], "lhs_total": r["lhs_total"],
             "rhs_total": r["rhs_total"],
             "quadrature_error": r["quadrature_error"],
             "slack": r["slack"], "satisfied": int(r["satisfied"]),
             "degenerate": int(r["degenerate"]),
             "generator": r["mesh_stats"].get("generator", ""),
             "cells": r["mesh_stats"].get("cells", 0)}
            for r in records if r.get("type") == "report"]
    if csv_path and flat:
        buf = io.StringIO()
        writer = csv.DictWriter(buf, fieldnames=list(flat[0]))
        writer.writeheader()
        writer.writerows(flat)
        Path(csv_path).write_text(buf.getvalue())


def worker_count() -> int:
    """Sweep workers: ``CKN_LAB_THREADS`` when set, else up to 4 cores.
    Raises :class:`ConfigError` unless the variable is a positive integer."""
    env = os.environ.get("CKN_LAB_THREADS")
    if not env:
        return min(4, os.cpu_count() or 1)
    if not env.isdecimal() or int(env) < 1:
        raise ConfigError(
            f"CKN_LAB_THREADS must be a positive integer, got {env!r}")
    return int(env)


# least value of each numeric flag of verify and search (--budget: search)
_FLAG_BOUNDS = {"levels": 0, "seed": 0, "budget": 1, "slack": 0}


def _load_cases(args, search=False):
    """The parsed cases and the sweep's worker count (1 for ``search``), or
    Nones after a config error.  The flags are checked first: ``--seed``
    draws the cases' ``random_smooth`` members.  For ``search``, each
    case's start member must lie in its family's search box, which the
    search would otherwise clip without a word."""
    try:
        for flag, least in _FLAG_BOUNDS.items():
            value = getattr(args, flag, None)
            if value is not None and not value >= least:
                raise ConfigError(f"--{flag} must be >= {least}, got {value}")
        cases = [validate_case(case, args.seed) for case in
                 expand_sweep(load_config(resolve_config_path(args.config)))]
        n_workers = 1 if search else worker_count()
        for field in (c.field for c in cases if search):
            for x, (lo, hi) in zip(field.dof, FAMILIES[field.kind].bounds):
                if not lo <= x <= hi:
                    raise ConfigError(
                        f"[field] dof {x:g} lies outside the {field.kind} "
                        f"search bounds [{lo:g}, {hi:g}]")
    except (CknLabError, ValueError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return None, None
    if args.slack is not None:
        for case in cases:
            case.options["slack"] = args.slack
    return cases, n_workers


def _evaluation_failed(exc: CknLabError) -> int:
    """Report an error raised while evaluating; its exit code."""
    if isinstance(exc, (InvalidArgument, PreconditionViolated,
                        ParameterConflict, InconsistentParameters,
                        InsufficientStencil)):
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    print(f"evaluation error: {exc}", file=sys.stderr)
    return EXIT_NUMERICAL


def cmd_verify(args) -> int:
    cases, n_workers = _load_cases(args)
    if cases is None:
        return EXIT_CONFIG
    def run_case(case):
        return [{**evaluate(case.id, domain, case.field,
                            case.options).to_dict(),
                 "level": level, "seed": args.seed}
                for level, domain in refinements(build_domain(case.domain),
                                                 args.levels)]

    try:
        if n_workers > 1 and len(cases) > 1:
            from concurrent.futures import ThreadPoolExecutor
            with ThreadPoolExecutor(max_workers=n_workers) as pool:
                chunks = list(pool.map(run_case, cases))
        else:
            # a pool thread would contend for the GIL with bench/run.py's probe
            chunks = [run_case(case) for case in cases]
    except CknLabError as exc:
        return _evaluation_failed(exc)
    records = [rec for chunk in chunks for rec in chunk]
    _write_outputs(records, args.out, args.csv, args.json)
    numerical = [rec for rec in records
                 if not math.isfinite(rec["ratio"]) and not rec["degenerate"]]
    if numerical:
        print(f"{len(numerical)} report(s) numerically invalid",
              file=sys.stderr)
        return EXIT_NUMERICAL
    failures = [rec for rec in records if not rec["satisfied"]]
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
    cases, _ = _load_cases(args, search=True)
    if cases is None:
        return EXIT_CONFIG
    records = []
    results = []
    # consecutive cases on the same geometry share its domain, and with it
    # the graded site tables; only the current domain is kept
    domain = source = None
    try:
        for case in cases:
            if case.source != source:
                domain = None
                domain, source = build_domain(case.domain), case.source
            result = maximize_ratio(
                case.id, domain, case.field, case.options,
                budget=case.budget if args.budget is None else args.budget,
                seed=args.seed, refine_levels=args.levels)
            records.append({**result.to_dict(), "seed": args.seed})
            results.append(result)
    except CknLabError as exc:
        return _evaluation_failed(exc)
    _write_outputs(records, args.out, None, args.json)
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
    for flag in ("z", "alpha", "sigma", "q", "a", "beta", "gamma", "t"):
        pc.add_argument(f"--{flag}")
    pc.add_argument("--hprime", default="1")
    pc.add_argument("--json", action="store_true")
    pc.set_defaults(fn=cmd_constants)

    def common(p):
        p.add_argument("config")
        p.add_argument("--json", action="store_true")
        p.add_argument("--out", help="write the JSON payload to this path")
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--levels", type=int, default=0)
        p.add_argument("--slack", type=float)

    pv = sub.add_parser("verify", help="evaluate configured inequalities")
    common(pv)
    pv.add_argument("--csv")
    pv.set_defaults(fn=cmd_verify)

    ps = sub.add_parser("search", help="maximize the tightness ratio")
    common(ps)
    ps.add_argument("--budget", type=int)
    ps.set_defaults(fn=cmd_search)

    pl = sub.add_parser("list-scenarios", help="list bundled scenarios")
    pl.set_defaults(fn=cmd_list_scenarios)
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        # argparse's usage errors exit 2, which here means a violation
        return EXIT_CONFIG if exc.code == 2 else exc.code
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
