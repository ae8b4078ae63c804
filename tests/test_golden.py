"""Golden reports: the bundled scenarios' payloads, byte for byte.

The seed-0 corpus reports (one hash per corpus geometry), the corpus case
lists and one tightness-search payload are pinned the same way.

A refactor must leave these files unchanged.  A change that moves a report
on purpose (a new rule, a new error estimate) re-records the hashes here and
says in CHANGES.md which terms moved and why.  Run as a script,

    PYTHONPATH=src python tests/test_golden.py

this module prints today's pins in its own literal format, to paste over
the old ones.
"""

import contextlib
import hashlib
import io
import json
import os
import pathlib
import subprocess
import sys
import tempfile

import pytest

import cknlab
from cknlab.cli import main, scenario_dir
from cknlab.corpus import build_corpus, run_corpus

# scenario -> SHA-256 of its `verify --out` JSON and `--csv` file
GOLDEN = {
    "disk_equality": (
        "1b8371c93cebb1ae92e100e119ef645773630f81429c9562f309de93605baf96",
        "3ceb4e70cac11cc2ffb24849808d2425c21a1eb252e7fef2e0409b5ff7ddebf5"),
    "geodesic_sobolev": (
        "b66b3cb45b17dcf6a6d51d940de75b441883a7798ede7ea8b55f8f84035c7429",
        "f21f7f6e347ac395c86fe053500fd26705ed7fcb34aa46da2c8c3ea3e420993c"),
    "hardy_cone": (
        "fb893325f0d9b41d2c2ae03dcf1f1c8077464bc4ba5cd53d6fb23908f3b55887",
        "8e17e3ac451bfc3838fbfffe291f2485e81cdb0c58ab20edc775839da63cd7cd"),
    "hpw_disk": (
        "3f82aed5ba45d00654565fa33a88d36c19c7988a622cb551a31f68b97ac35d30",
        "2f2704cff8d6106cdbdad3a9d5c4b0b6560a21fa05c6c25738f833478f1014b5"),
    "nash_ball": (
        "0d4f4d20b6fbce0bf77a86bdf1208b36fde8341ab117b6446d1bc63402c58a1b",
        "929b06616df5365b06b042ba0604f81b576523eb8b89d698572f746250277f3b"),
    "weighted_cap": (
        "1eac03fd69bd3858d26393c432e4240a5e1a25bfe850617c3b517e308b245f4e",
        "b9c22364601d54ec77ca2983466cb6a65fa4f7ceb928785f644396c80e82d565"),
}


def _sha256(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _scenario_digests(tmp_path, scenario):
    out, csv = tmp_path / f"{scenario}.json", tmp_path / f"{scenario}.csv"
    assert main(["verify", f"{scenario}.cfg", "--out", str(out),
                 "--csv", str(csv)]) == 0
    return _sha256(out), _sha256(csv)


@pytest.mark.parametrize("scenario", sorted(GOLDEN))
def test_bundled_scenario_payloads_are_golden(tmp_path, capsys, scenario):
    digests = _scenario_digests(tmp_path, scenario)
    capsys.readouterr()
    assert digests == GOLDEN[scenario]


# SHA-256 of each corpus geometry's seed-0 `run_corpus` reports, in case
# order, as sorted-key JSON, serial or on threads: a change that moves
# reports names the geometries it moved
CORPUS_REPORTS = {
    "ball":
        "f0cd75a13f57585ae166b51957ce8fc6ca9bb112a49ae036b13d4ba8f0fbf030",
    "ball_warped":
        "27b3845518ee52b1e4c4761f51a185eb8039bfc52edecd44ad9f446a55ad65a1",
    "cap":
        "cae1f04138f7dba994001adf99615be58c1b3b9fb5cb467f4ede04376695d6eb",
    "disk_offset":
        "25ab50cbc3ec5fc6f53f7307643a0fcd440e0238cd99b2a6eb78603eb7ba19ca",
    "disk_patch":
        "f15f8d8a52b9d51f017cd29ac2ca9603bf2857559dd071b4276e64e8798cc4d1",
    "disk_pole":
        "d5d14b3cec31dddc79ca639ee0ea6bff76e58122291137f53961831973d7a767",
    "disk_tilted":
        "2030d965f2f95a0744ba44af0e3bc0a5be78f1bff965bfe33246336e879b61c0",
    "geodesic_disk":
        "0df0e3b19f15c424bacd5dcd824fa8bf413babb224a5ba805ec678853b7c04a0",
    "graph_patch":
        "4f5e58e4e47a250dd1411abc1738dece293deb69cf61fc1c3f9a79cd4223e2ef",
    "sphere_offset":
        "a7e9adc0ee1d1880f5e05ced3fec046fc783ed8dedc0c77a9d45cb63ba11718a",
    "sphere_pole":
        "150d5e82816e3b227a61b1d5fa7c4394eadcd62df9317a8bf7b17bacb80dd2d8",
    "zone":
        "8582d3ad022c3ac2328ad0ccee9cd80f59c4ff38b4b31f6b7f942fb93e852830",
}
# SHA-256 over the cases of `build_corpus(seed, draws=60)`, seeds 0-19
CORPUS_CASES = (
    "9a7cb791b397518f9310cf951c78a4a21c1d65bd1051d886536f6f19c3ca9316")


def _corpus_digests(threads, geometry=None):
    cases = [case for case in build_corpus(0)
             if geometry in (None, case.geometry)]
    reports = {}
    for case, rep in zip(cases, run_corpus(cases, threads=threads)):
        reports.setdefault(case.geometry, []).append(rep.to_dict())
    return {geometry: hashlib.sha256(json.dumps(
        reps, sort_keys=True).encode()).hexdigest()
        for geometry, reps in reports.items()}


def test_seed0_corpus_reports_are_golden():
    assert _corpus_digests(threads=1) == CORPUS_REPORTS


def test_seed0_corpus_reports_are_golden_on_four_threads():
    assert _corpus_digests(threads=4) == CORPUS_REPORTS


def _case_lists_digest():
    digest = hashlib.sha256()
    for seed in range(20):
        for case in build_corpus(seed, draws=60):
            digest.update(json.dumps(
                [case.name, case.geometry, case.inequality, case.family,
                 repr(case.field), sorted(case.options.items())]).encode())
    return digest.hexdigest()


def test_corpus_case_lists_are_golden():
    assert _case_lists_digest() == CORPUS_CASES


# the cone-equality sweep of hardy_cone.cfg over every field kind, on a
# coarser mesh than the benchmark's
SEARCH_CONFIG = """\
[ambient]
kind = euclidean

[geometry]
builtin = disk_mesh
radius = 1.0
rings = 8

[field]
boundary_vanishing = true

[inequality]
id = hardy
p = 1
gamma = 1

[sweep]
field.kind = radial_power, radial_bump, polynomial, random_smooth
"""
# SHA-256 of `search --budget 40 --seed 3 --levels 1 --out` on that sweep
SEARCH_PAYLOAD = (
    "f5a3fab5f244362919e6a205e92ce7a818336259795ba369efe867058693d997")


def _search_digest(tmp_path):
    cfg, out = tmp_path / "cone_sweep.cfg", tmp_path / "search.json"
    cfg.write_text(SEARCH_CONFIG)
    assert main(["search", str(cfg), "--budget", "40", "--seed", "3",
                 "--levels", "1", "--out", str(out)]) == 0
    return _sha256(out)


def test_search_payload_is_golden(tmp_path, capsys):
    digest = _search_digest(tmp_path)
    capsys.readouterr()
    assert digest == SEARCH_PAYLOAD


# one vertex-pole mesh scenario and one vertex-pole corpus geometry, run with
# a single BLAS thread: every sum runs in an order fixed by the data
# (einsum), where BLAS's dot splits long vectors by its thread count
SINGLE_BLAS_THREAD = """\
import pathlib
import sys
from test_golden import _corpus_digests, _sha256, main
out, csv = map(pathlib.Path, sys.argv[1:])
assert main(["verify", "hardy_cone.cfg", "--out", str(out),
             "--csv", str(csv)]) == 0
print(_sha256(out), _sha256(csv), _corpus_digests(1, "disk_pole")["disk_pole"])
"""


def test_payloads_do_not_depend_on_blas_threads(tmp_path):
    here = pathlib.Path(__file__).parent
    src = pathlib.Path(cknlab.__file__).parents[1]
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1",
           "PYTHONPATH": os.pathsep.join([str(src), str(here)])}
    run = subprocess.run(
        [sys.executable, "-c", SINGLE_BLAS_THREAD, str(tmp_path / "out.json"),
         str(tmp_path / "out.csv")],
        env=env, capture_output=True, text=True, check=True, timeout=600)
    scenario_json, scenario_csv, corpus = run.stdout.split()[-3:]
    assert (scenario_json, scenario_csv) == GOLDEN["hardy_cone"]
    assert corpus == CORPUS_REPORTS["disk_pole"]


# -- the pins as the program computes them today

def pin_literals(tmp_path):
    """``GOLDEN``, ``CORPUS_REPORTS``, ``CORPUS_CASES`` and
    ``SEARCH_PAYLOAD`` as this module writes them, from fresh runs."""
    scenarios = sorted(p.name.removesuffix(".cfg")
                       for p in scenario_dir().iterdir()
                       if p.name.endswith(".cfg"))
    with contextlib.redirect_stdout(io.StringIO()):
        golden = [(name, _scenario_digests(tmp_path, name))
                  for name in scenarios]
        search = _search_digest(tmp_path)
    corpus = sorted(_corpus_digests(threads=1).items())
    return [
        "GOLDEN = {\n" + "".join(
            f'    "{name}": (\n        "{out}",\n        "{csv}"),\n'
            for name, (out, csv) in golden) + "}",
        "CORPUS_REPORTS = {\n" + "".join(
            f'    "{name}":\n        "{digest}",\n'
            for name, digest in corpus) + "}",
        f'CORPUS_CASES = (\n    "{_case_lists_digest()}")',
        f'SEARCH_PAYLOAD = (\n    "{search}")',
    ]


def test_pin_literals_reproduce_the_pins(tmp_path, capsys):
    source = pathlib.Path(__file__).read_text()
    literals = pin_literals(tmp_path)
    capsys.readouterr()
    for literal in literals:
        assert literal in source


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        print("\n\n".join(pin_literals(pathlib.Path(tmp))))
