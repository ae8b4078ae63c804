"""Correctness checks applied to every pass of the benchmark.

The checks come from the mathematics, not from stored output: the
inequalities are theorems, so no non-degenerate report may exceed
``1 + slack``; the flat-disk equality case has the closed form 2*pi on
both sides; the cone-function Hardy case at p = 1, gamma = 1 is attained
by every decreasing radial profile.  Each check returns a list of error
strings (empty when the input passes) and imports nothing from the
program, so it can be exercised on doctored inputs without ``src/``.
"""

from __future__ import annotations

import csv
import io
import math

# the inequality catalog of the paper, as the corpus must cover it
CATALOG = (
    "hardy_signed", "hardy", "hardy_hadamard", "sobolev_hs",
    "weighted_sobolev", "ckn_single", "ckn", "mss_weighted", "hardy_derived",
    "gagliardo_nirenberg", "nash", "heisenberg_pauli_weyl",
)
RADIAL_KINDS = ("radial_power", "radial_bump")
# slack floor of the report policy max(5e-2, 3 * quadrature_error)
SLACK_FLOOR = 5e-2
# k * area of the unit disk, and the boundary flux of the radial field
DISK_EQUALITY_TOTAL = 2.0 * math.pi
DISK_EQUALITY_TOL = 1e-3
_REPORT_NUMBERS = ("lhs_total", "rhs_total", "ratio", "quadrature_error",
                   "slack")


def check_report(rec: dict, where: str = "") -> list[str]:
    """A report is finite and, unless vacuous, within ``1 + slack``."""
    tag = f"{where}{rec.get('id', '?')}"
    errors = [f"{tag}: {key} = {rec.get(key)!r} is not finite"
              for key in _REPORT_NUMBERS
              if not isinstance(rec.get(key), (int, float))
              or not math.isfinite(rec[key])]
    if errors:
        return errors
    if not rec["degenerate"] and rec["ratio"] > 1.0 + rec["slack"]:
        errors.append(f"{tag}: ratio {rec['ratio']!r} > 1 + slack "
                      f"{rec['slack']!r}")
    return errors


def check_coverage(records: list[dict]) -> list[str]:
    """Every catalog id occurs among the records of a sweep."""
    seen = {rec.get("id") for rec in records}
    missing = [cid for cid in CATALOG if cid not in seen]
    if missing:
        return [f"catalog ids missing from the sweep: {missing}"]
    return []


def check_search(rec: dict, kind: str, budget: int) -> list[str]:
    """The search record of family ``kind``, at full budget.

    Its best ratio is at most ``1 + slack``; on the cone-equality case a
    radial family also reaches ``1 - slack``.
    """
    best = rec.get("best_ratio")
    if not isinstance(best, (int, float)) or not math.isfinite(best):
        return [f"{kind}: best_ratio {best!r} is not finite"]
    errors = []
    if rec.get("evaluations") != budget:
        errors.append(f"{kind}: {rec.get('evaluations')!r} evaluations, "
                      f"budget {budget}")
    if best > 1.0 + SLACK_FLOOR:
        errors.append(f"{kind}: best_ratio {best!r} > 1 + {SLACK_FLOOR}")
    if kind in RADIAL_KINDS and best < 1.0 - SLACK_FLOOR:
        errors.append(f"{kind}: best_ratio {best!r} < 1 - {SLACK_FLOOR} "
                      "on an equality case")
    n_dof = 1 if kind in RADIAL_KINDS else 6
    got = len(rec.get("argmax_dof", ()))
    if got != n_dof:
        errors.append(f"{kind}: argmax_dof has {got} entries, expected "
                      f"{n_dof}")
    return errors


def check_disk_equality(rec: dict) -> list[str]:
    """Both sides equal 2*pi and the ratio equals 1, to 1e-3."""
    errors = []
    for key in ("lhs_total", "rhs_total"):
        value = rec.get(key)
        if not isinstance(value, (int, float)) or not (
                abs(value - DISK_EQUALITY_TOTAL)
                <= DISK_EQUALITY_TOL * DISK_EQUALITY_TOTAL):
            errors.append(f"disk_equality: {key} = {value!r}, closed form "
                          f"{DISK_EQUALITY_TOTAL!r}")
    ratio = rec.get("ratio")
    if not isinstance(ratio, (int, float)) or not (
            abs(ratio - 1.0) <= DISK_EQUALITY_TOL):
        errors.append(f"disk_equality: ratio = {ratio!r}, expected 1")
    return errors


def _csv_value_matches(text: str, value) -> bool:
    if isinstance(value, bool):
        return text == str(int(value))
    if isinstance(value, int):
        return text == str(value)
    if isinstance(value, float):
        try:
            return float(text) == value
        except ValueError:
            return False
    return text == str(value)


def check_csv_matches_json(csv_text: str, records: list[dict]) -> list[str]:
    """One CSV row per report record, each column equal to its JSON value.

    A column is looked up in the record first and in its ``mesh_stats``
    second; numbers must agree exactly.
    """
    reports = [r for r in records if r.get("type") == "report"]
    rows = list(csv.DictReader(io.StringIO(csv_text)))
    if len(rows) != len(reports):
        return [f"{len(rows)} CSV rows for {len(reports)} JSON reports"]
    errors = []
    for i, (row, rec) in enumerate(zip(rows, reports)):
        for column, text in row.items():
            if column in rec:
                value = rec[column]
            elif column in rec.get("mesh_stats", {}):
                value = rec["mesh_stats"][column]
            else:
                errors.append(f"row {i}: column {column!r} not in the record")
                continue
            if not _csv_value_matches(text, value):
                errors.append(f"row {i}: {column} = {text!r} in CSV, "
                              f"{value!r} in JSON")
    return errors
