"""The benchmark's three workloads: inputs from a seed, one pass, checks.

Each workload has ``make_inputs(seed, workdir)``, the set-up a user pays
before the first result (imports happen on first call), and
``run_pass(inputs)``, one serial pass over all of its operations, which
returns a :class:`PassResult` with the outcome counts, the check errors and
a digest of the report payloads (seeded payloads must repeat byte for byte
from pass to pass).  An operation counts as failed when it raises, when the
CLI run it belongs to exits non-zero, or when any check on its output fails.

- ``corpus_sweep``: the seed-0 soundness corpus (``build_corpus(0)``, 78
  cases over 12 geometries), each test function scaled by an amplitude
  drawn from the seed, through a serial ``run_corpus``.  The inequalities
  are homogeneous, so the seed changes the values but neither the work nor
  the verdicts.  One operation is one case.
- ``tightness_search``: ``ckn-lab search`` on the cone-equality Hardy case
  with a ``[sweep]`` over the four field kinds.  One operation is one
  family's search.
- ``verify_scenarios``: ``ckn-lab verify`` with ``--out`` and ``--csv`` on
  each of the six bundled scenarios.  One operation is one scenario.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import io
import json
import random
from pathlib import Path

import checks

CORPUS_SEED = 0
AMPLITUDES = (0.5, 2.0)
SEARCH_KINDS = ("radial_power", "radial_bump", "polynomial", "random_smooth")
SEARCH_BUDGET = 200
# the cone-equality case of hardy_cone.cfg, swept over every field kind;
# each kind starts from its default parameters
SEARCH_CONFIG = f"""\
[ambient]
kind = euclidean

[geometry]
builtin = disk_mesh
radius = 1.0
rings = 16

[field]
boundary_vanishing = true

[inequality]
id = hardy
p = 1
gamma = 1

[sweep]
field.kind = {", ".join(SEARCH_KINDS)}
"""
SCENARIOS = ("disk_equality", "geodesic_sobolev", "hardy_cone", "hpw_disk",
             "nash_ball", "weighted_cap")


@dataclasses.dataclass
class PassResult:
    attempted: int = 0
    failed: int = 0
    errors: list = dataclasses.field(default_factory=list)
    digest: str = ""
    output_bytes: int = 0


def _parse_config(path: Path) -> None:
    """Read, expand and validate a config as the CLI does."""
    from cknlab import cli

    for case in cli.expand_sweep(cli.load_config(path)):
        cli.validate_case(case)


def _run_cli(argv: list) -> tuple[int, str, str]:
    """``ckn-lab`` in this process, its stdout and stderr captured."""
    from cknlab import cli

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def _clear(*paths: Path) -> None:
    for path in paths:
        path.unlink(missing_ok=True)


class CorpusSweep:
    name = "corpus_sweep"

    def make_inputs(self, seed: int, workdir: Path):
        from cknlab import corpus

        rng = random.Random(seed)
        return [dataclasses.replace(
                    case, field=case.field.scaled(rng.uniform(*AMPLITUDES)))
                for case in corpus.build_corpus(CORPUS_SEED)]

    def run_pass(self, inputs) -> PassResult:
        from cknlab import corpus

        res = PassResult(attempted=len(inputs))
        try:
            reports = corpus.run_corpus(inputs, threads=1)
        except Exception as exc:  # every case of the pass is lost
            res.failed = res.attempted
            res.errors.append(f"run_corpus raised {exc!r}")
            return res
        records = [rep.to_dict() for rep in reports]
        for i, rec in enumerate(records):
            errors = checks.check_report(rec, where=f"case {i} ")
            res.failed += bool(errors)
            res.errors.extend(errors)
        res.errors.extend(checks.check_coverage(records))
        res.digest = hashlib.sha256(
            json.dumps(records, sort_keys=True).encode()).hexdigest()
        return res


class TightnessSearch:
    name = "tightness_search"

    def make_inputs(self, seed: int, workdir: Path):
        cfg = workdir / "cone_sweep.cfg"
        cfg.write_text(SEARCH_CONFIG)
        _parse_config(cfg)
        out = workdir / "search.json"
        return out, ["search", str(cfg), "--budget", str(SEARCH_BUDGET),
                     "--seed", str(seed), "--out", str(out)]

    def run_pass(self, inputs) -> PassResult:
        out, argv = inputs
        res = PassResult(attempted=len(SEARCH_KINDS))
        _clear(out)
        code, stdout, stderr = _run_cli(argv)
        if code != 0:  # the exit status covers the whole sweep
            res.failed = res.attempted
            res.errors.append(f"search exited {code}: {stderr.strip()}")
            return res
        payload = out.read_bytes()
        res.output_bytes = len(payload) + len(stdout.encode())
        res.digest = hashlib.sha256(payload).hexdigest()
        records = json.loads(payload)["records"]
        if len(records) != len(SEARCH_KINDS):
            res.failed = res.attempted
            res.errors.append(f"{len(records)} search records for "
                              f"{len(SEARCH_KINDS)} field kinds")
            return res
        for kind, rec in zip(SEARCH_KINDS, records):
            errors = checks.check_search(rec, kind, SEARCH_BUDGET)
            res.failed += bool(errors)
            res.errors.extend(errors)
        return res


class VerifyScenarios:
    name = "verify_scenarios"

    def make_inputs(self, seed: int, workdir: Path):
        from cknlab import cli

        runs = []
        for name in SCENARIOS:
            cfg = workdir / f"{name}.cfg"
            cfg.write_text((cli.scenario_dir() / f"{name}.cfg").read_text())
            _parse_config(cfg)
            out, csv = workdir / f"{name}.json", workdir / f"{name}.csv"
            runs.append((name, out, csv,
                         ["verify", str(cfg), "--seed", str(seed),
                          "--out", str(out), "--csv", str(csv)]))
        return runs

    def run_pass(self, inputs) -> PassResult:
        res = PassResult(attempted=len(inputs))
        digest = hashlib.sha256()
        for name, out, csv, argv in inputs:
            _clear(out, csv)
            code, stdout, stderr = _run_cli(argv)
            if code != 0:
                res.failed += 1
                res.errors.append(f"{name}: verify exited {code}: "
                                  f"{stderr.strip()}")
                continue
            payload, table = out.read_bytes(), csv.read_bytes()
            res.output_bytes += (len(payload) + len(table)
                                 + len(stdout.encode()))
            digest.update(payload)
            digest.update(table)
            records = json.loads(payload)["records"]
            errors = [e for rec in records
                      for e in checks.check_report(rec, f"{name}: ")]
            errors.extend(f"{name}: {e}" for e in
                          checks.check_csv_matches_json(table.decode(),
                                                        records))
            if name == "disk_equality":
                errors.extend(checks.check_disk_equality(records[0]))
            res.failed += bool(errors)
            res.errors.extend(errors)
        res.digest = digest.hexdigest()
        return res


WORKLOADS = {w.name: w for w in (CorpusSweep(), TightnessSearch(),
                                 VerifyScenarios())}
