"""Golden reports: the bundled scenarios' payloads, byte for byte.

The seed-0 corpus reports (one hash per corpus geometry), the corpus case
lists and one tightness-search payload are pinned the same way.

A refactor must leave these files unchanged.  A change that moves a report
on purpose (a new rule, a new error estimate) re-records the hashes here and
says in CHANGES.md which terms moved and why.
"""

import hashlib
import json
import os
import pathlib
import subprocess
import sys

import pytest

import cknlab
from cknlab.cli import main
from cknlab.corpus import build_corpus, run_corpus

# scenario -> SHA-256 of its `verify --out` JSON and `--csv` file
GOLDEN = {
    "disk_equality": (
        "1b8371c93cebb1ae92e100e119ef645773630f81429c9562f309de93605baf96",
        "3ceb4e70cac11cc2ffb24849808d2425c21a1eb252e7fef2e0409b5ff7ddebf5"),
    "geodesic_sobolev": (
        "bead6ee5f17c46bf45d0ed94472eadec202cdbd034d035f240c6633c7032f4ff",
        "06bb41e38c7778ba9ce574194e7b7d41a07c80a317e0d84d926696db0ab1b9e8"),
    "hardy_cone": (
        "357af01e023b6935668bfa2bd4aea89a6c4cd0dc7d51cfe56981262c4e048b02",
        "7a28987142129d5c93ab0a9d441ff2b7b1abe9531083b7dc128d4cfd74470fa7"),
    "hpw_disk": (
        "4616379dd3c2fadc23bde9fbb8a5d8c1f69d036f7f87de181b0cf747b617f3fd",
        "89635ce042a3de6eb0a53cf132765aa1b637375ebbc46e46a8078b8ee49f18ea"),
    "nash_ball": (
        "0d4f4d20b6fbce0bf77a86bdf1208b36fde8341ab117b6446d1bc63402c58a1b",
        "929b06616df5365b06b042ba0604f81b576523eb8b89d698572f746250277f3b"),
    "weighted_cap": (
        "1eac03fd69bd3858d26393c432e4240a5e1a25bfe850617c3b517e308b245f4e",
        "b9c22364601d54ec77ca2983466cb6a65fa4f7ceb928785f644396c80e82d565"),
}


def _sha256(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.mark.parametrize("scenario", sorted(GOLDEN))
def test_bundled_scenario_payloads_are_golden(tmp_path, capsys, scenario):
    out, csv = tmp_path / "out.json", tmp_path / "out.csv"
    code = main(["verify", f"{scenario}.cfg", "--out", str(out),
                 "--csv", str(csv)])
    capsys.readouterr()
    assert code == 0
    assert (_sha256(out), _sha256(csv)) == GOLDEN[scenario]


# SHA-256 of each corpus geometry's seed-0 `run_corpus` reports, in case
# order, as sorted-key JSON, serial or on threads: a change that moves
# reports names the geometries it moved
CORPUS_REPORTS = {
    "ball":
        "1bbc2b179c601809ba86004b73a3b241d04b6f7c0ac0f03198e8b3d10155e5c9",
    "ball_warped":
        "b978610f187d5e3c6c596294fc9d85dec635c24bff544ac08e632040cb6c993a",
    "cap":
        "6090af112a66971a7e63700588e63a390762e2758ce0954b46fbd12789189242",
    "disk_offset":
        "25ab50cbc3ec5fc6f53f7307643a0fcd440e0238cd99b2a6eb78603eb7ba19ca",
    "disk_patch":
        "f15f8d8a52b9d51f017cd29ac2ca9603bf2857559dd071b4276e64e8798cc4d1",
    "disk_pole":
        "04c15264327c50e588f2ace9923839098d307c32979cf598ea2e8cbada3bd059",
    "disk_tilted":
        "2030d965f2f95a0744ba44af0e3bc0a5be78f1bff965bfe33246336e879b61c0",
    "geodesic_disk":
        "0608ac938bca76f6c6228817e3f713690faaa75d616972baa6fff450fe698a3d",
    "graph_patch":
        "c407c7a9af4901f903d64086a84577d6b043af38938c092661ed12986d4bfce7",
    "sphere_offset":
        "38d745cda3a0a875a368aca4cafa66aed1d6f5a6773d0dc9f278b95740674c5f",
    "sphere_pole":
        "0ac48d9b3ff6bd4270c3c58667fb11850b002d7badeb666892a092eb848e9d1c",
    "zone":
        "f8066b1aca2c4ea2747d870d22ece1e0ad6892345d81c0c8d4f61fd82bb01776",
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


def test_corpus_case_lists_are_golden():
    digest = hashlib.sha256()
    for seed in range(20):
        for case in build_corpus(seed, draws=60):
            digest.update(json.dumps(
                [case.name, case.geometry, case.inequality, case.family,
                 repr(case.field), sorted(case.options.items())]).encode())
    assert digest.hexdigest() == CORPUS_CASES


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
    "473d9bb63546fb55e2e956f3bc06b39724c0f948364af39ee8d6cda8d64b4f51")


def test_search_payload_is_golden(tmp_path, capsys):
    cfg, out = tmp_path / "cone_sweep.cfg", tmp_path / "search.json"
    cfg.write_text(SEARCH_CONFIG)
    code = main(["search", str(cfg), "--budget", "40", "--seed", "3",
                 "--levels", "1", "--out", str(out)])
    capsys.readouterr()
    assert code == 0
    assert _sha256(out) == SEARCH_PAYLOAD


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
