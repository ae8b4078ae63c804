"""Self-tests of the benchmark's checks: each must reject a doctored input.

The doctored inputs start from real ``ckn-lab verify disk_equality`` output,
so each test also shows that the untouched output passes.  Run with

    python3 -m pytest bench/test_checks.py

(outside the repository's default test paths).
"""

from __future__ import annotations

import copy
import json
import math
import sys
from pathlib import Path

import pytest

import checks

SRC = Path(__file__).resolve().parent.parent / "src"


@pytest.fixture(scope="module")
def disk_equality(tmp_path_factory):
    """(JSON records, CSV text) of the bundled flat-disk equality case."""
    sys.path.insert(0, str(SRC))
    from cknlab.cli import main

    out = tmp_path_factory.mktemp("disk")
    code = main(["verify", "disk_equality", "--out", str(out / "r.json"),
                 "--csv", str(out / "r.csv")])
    assert code == 0
    records = json.loads((out / "r.json").read_text())["records"]
    return records, (out / "r.csv").read_text()


def test_real_output_passes(disk_equality):
    records, table = disk_equality
    assert checks.check_report(records[0]) == []
    assert checks.check_disk_equality(records[0]) == []
    assert checks.check_csv_matches_json(table, records) == []


def test_ratio_beyond_slack_is_rejected(disk_equality):
    rec = copy.deepcopy(disk_equality[0][0])
    rec["ratio"] = 1.0 + rec["slack"] + 1e-6
    assert checks.check_report(rec)


def test_degenerate_report_is_exempt_but_not_infinite(disk_equality):
    rec = copy.deepcopy(disk_equality[0][0])
    rec["ratio"], rec["degenerate"] = 2.0, True
    assert checks.check_report(rec) == []
    rec["ratio"] = math.inf
    assert checks.check_report(rec)


@pytest.mark.parametrize("key", ["lhs_total", "rhs_total"])
def test_disk_equality_total_off_two_pi_is_rejected(disk_equality, key):
    rec = copy.deepcopy(disk_equality[0][0])
    rec[key] = 2.0 * math.pi * (1.0 + 2e-3)
    assert checks.check_disk_equality(rec)


def test_csv_row_disagreeing_with_json_is_rejected(disk_equality):
    records, table = disk_equality
    header, row = table.splitlines()[:2]
    cells = row.split(",")
    ratio_col = header.split(",").index("ratio")
    cells[ratio_col] = repr(float(cells[ratio_col]) + 1e-12)
    doctored = "\n".join([header, ",".join(cells)]) + "\n"
    assert checks.check_csv_matches_json(doctored, records)
    assert checks.check_csv_matches_json(header + "\n", records)


def test_corpus_missing_a_catalog_id_is_rejected(disk_equality):
    base = disk_equality[0][0]
    records = [dict(base, id=cid) for cid in checks.CATALOG]
    assert checks.check_coverage(records) == []
    assert checks.check_coverage(records[1:])


def _search_record(kind, ratio, budget):
    n_dof = 1 if kind in checks.RADIAL_KINDS else 6
    return {"best_ratio": ratio, "evaluations": budget,
            "argmax_dof": [1.0] * n_dof}


def test_search_checks():
    for kind, ratio in [("radial_power", 1.001), ("radial_bump", 0.999),
                        ("polynomial", 0.9), ("random_smooth", 1.0)]:
        assert checks.check_search(_search_record(kind, ratio, 50), kind,
                                   50) == []
    # a radial family short of the equality case
    assert checks.check_search(_search_record("radial_power", 0.9, 50),
                               "radial_power", 50)
    # any family beyond 1 + slack
    assert checks.check_search(_search_record("polynomial", 1.06, 50),
                               "polynomial", 50)
    # a search that stopped short of its budget
    assert checks.check_search(_search_record("polynomial", 1.0, 50),
                               "polynomial", 60)
    # a non-finite best ratio
    assert checks.check_search(_search_record("polynomial", math.nan, 50),
                               "polynomial", 50)
