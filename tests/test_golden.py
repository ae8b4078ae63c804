"""Golden reports: the bundled scenarios' payloads, byte for byte.

The seed-0 corpus reports (one hash per corpus geometry), the corpus case
lists and one tightness-search payload are pinned the same way.

A refactor must leave these files unchanged.  A change that moves a report
on purpose (a new rule, a new error estimate) re-records the hashes here and
says in CHANGES.md which terms moved and why.
"""

import hashlib
import json

import pytest

from cknlab.cli import main
from cknlab.corpus import build_corpus, run_corpus

# scenario -> SHA-256 of its `verify --out` JSON and `--csv` file
GOLDEN = {
    "disk_equality": (
        "26d36195bfb030c721c047333fa520f769ef595e848ad987e636f23d26efd7b3",
        "c9af343e11a492fad47eaa7e6752e90a38142dd88f06f4a21eea23a3a1a35972"),
    "geodesic_sobolev": (
        "d8d4547485b44cbf3c062ea64c0e16d1c8b5023b6d955a5391db2816b9a715d6",
        "842d69b954af5edab689f926fa3e13138a5183a63558686933a287468b6e1ac3"),
    "hardy_cone": (
        "7dbf3e35cbc0e175575a7af2fe9ac8e39f06a9a04d37ba1778f0cf149cefe5bb",
        "20e4a60e1f2a59087d002a6c128fd301dcf945b68e143f0c12f76fef49acef04"),
    "hpw_disk": (
        "983d31421414dbc37cecb0b90a4eaa2d4f0ab30b2fa8cca7ca769e16b7e4a0a3",
        "fe28d5e5cadeaa1a1108e37cade42b57af1471db7200e0930a6d308f66f0cb78"),
    "nash_ball": (
        "887613ab241fe6e62035b2d3ac45d96b69f9496506ce6c289d33c85ce7fce820",
        "017cd6328addd72efec9f8eef2df33470f506f4fd97c779bd85f5d46712542fe"),
    "weighted_cap": (
        "2f838e72386603b1207f190b5a50f6ca2a6fdfc92af4d2c1f4f6e51f9a9fdca1",
        "8cd007822e73ce336e9dd145620a0da0198036f3257df876699018b62788ba39"),
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
        "c2195578597dfce168acb1fee9ca8c37aed5f99a3376a0f3cf8545bdf55b94f4",
    "ball_warped":
        "b25d68992414ae0e9b16be269ef89200c9dd4426e02331df64af57704ac0244e",
    "cap":
        "18d1c86ad5aa0802681f42e6e2c757df03bf2e2561a8c02af7b4ebc4ff1af117",
    "disk_offset":
        "5daaa4f1d5bbdc2a7e35070a566e9ad26adc624bd140afd9fffb34655b1573ec",
    "disk_patch":
        "88df3db8083aeb7091ee998242d8a8a03c547f77df18fc77abc40b3695c7e81c",
    "disk_pole":
        "ad8f7dd7a24912cc22877659ae398ac191a03d6b35387bccfd58674ed90e78dd",
    "disk_tilted":
        "221608a009e07856d6f26c9aac02804216a33813cfcdf5c50d6764642a502979",
    "geodesic_disk":
        "e56200e067a10bb0d26d432c2af752cdc8b754d8760c79d71a1c420bf3fd5afa",
    "graph_patch":
        "c18b2144bc3e3d13754a88430dd8751fcc11ef57ca001e61f49cede897112766",
    "sphere_offset":
        "d23df9fd40d0c463cb5635e7b4aaa738dccae87dd9fd98f84430068baa31e54c",
    "sphere_pole":
        "311274848168c71bfe9d1c80b1ea702f75d5753841d3d8882323abd7b45f3177",
    "zone":
        "138565e18ab656a5bfd0cb59d362674fc9402268f18d8c6d01cc8e68db8e6e1a",
}
# SHA-256 over the cases of `build_corpus(seed, draws=60)`, seeds 0-19
CORPUS_CASES = (
    "9a7cb791b397518f9310cf951c78a4a21c1d65bd1051d886536f6f19c3ca9316")


def _corpus_digests(threads):
    cases = build_corpus(0)
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
    "2326c8bc878de7344776aad36d46692fba1af788860c91dbfb254715cc040117")


def test_search_payload_is_golden(tmp_path, capsys):
    cfg, out = tmp_path / "cone_sweep.cfg", tmp_path / "search.json"
    cfg.write_text(SEARCH_CONFIG)
    code = main(["search", str(cfg), "--budget", "40", "--seed", "3",
                 "--levels", "1", "--out", str(out)])
    capsys.readouterr()
    assert code == 0
    assert _sha256(out) == SEARCH_PAYLOAD
