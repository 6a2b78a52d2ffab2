"""Correctness checks on supconc outputs.

Every function returns a list of problems; an empty list means the
output passed. Invariant checks hold for any seed. Reference checks
compare against values recorded from the seed implementation
(``references.json``) and run only for the seeds recorded there.
"""

from __future__ import annotations

import json
import math

SANDWICH_TOL = 1e-9    # bound sandwich and campaign slack tolerance
REFERENCE_TOL = 1e-12  # distance allowed from a recorded reference value
IDENTITY_TOL = 1e-10   # inverter-route identities (acceptance criteria 1-2)

CSV_HEADER = ("alpha_squared,exact,upper,lower,"
              "eof_exact,eof_upper,eof_lower,norm_squared")

_SUMMARY_EXACT = ("trials_run", "violations", "zero_delta_lower_excesses")
_SUMMARY_FLOAT = ("max_upper_slack", "min_lower_slack", "max_formula_error",
                  "max_zero_delta_excess")


def _close(a, b, tol: float) -> bool:
    if a is None or b is None:
        return a is None and b is None
    return abs(a - b) <= tol


def summary_errors(doc: dict, trials: int, tol: float = SANDWICH_TOL) -> list[str]:
    """Invariants of a ``verify`` summary: all trials run, bounds never escaped."""
    errs = []
    if doc.get("trials_run") != trials:
        errs.append(f"trials_run {doc.get('trials_run')!r} != {trials}")
    if doc.get("violations") != []:
        errs.append(f"violations {doc.get('violations')!r}")
    upper = doc.get("max_upper_slack")
    lower = doc.get("min_lower_slack")
    if not isinstance(upper, (int, float)) or upper > tol:
        errs.append(f"max_upper_slack {upper!r} > {tol}")
    if not isinstance(lower, (int, float)) or lower < -tol:
        errs.append(f"min_lower_slack {lower!r} < {-tol}")
    formula = doc.get("max_formula_error")
    if formula is not None and formula > tol:
        errs.append(f"max_formula_error {formula!r} > {tol}")
    return errs


def compare_summary(doc: dict, ref: dict, tol: float = REFERENCE_TOL) -> list[str]:
    """A summary against its reference: counts exactly, floats within ``tol``."""
    errs = []
    if set(doc) != set(ref):
        errs.append(f"summary keys {sorted(doc)} != reference {sorted(ref)}")
    for key in _SUMMARY_EXACT:
        if doc.get(key) != ref.get(key):
            errs.append(f"{key} {doc.get(key)!r} != reference {ref.get(key)!r}")
    for key in _SUMMARY_FLOAT:
        if not _close(doc.get(key), ref.get(key), tol):
            errs.append(f"{key} {doc.get(key)!r} != reference {ref.get(key)!r}")
    return errs


def parse_csv(text: str) -> tuple[list[list[float | None]], list[str]]:
    """Rows of a sweep/figure CSV as floats (``None`` for empty cells)."""
    lines = text.strip().split("\n")
    if not lines or lines[0] != CSV_HEADER:
        return [], [f"bad CSV header {lines[0] if lines else ''!r}"]
    rows, errs = [], []
    for n, line in enumerate(lines[1:], start=1):
        cells = line.split(",")
        if len(cells) != 8:
            errs.append(f"row {n}: {len(cells)} cells")
            continue
        try:
            rows.append([float(c) if c else None for c in cells])
        except ValueError:
            errs.append(f"row {n}: not numeric: {line!r}")
    return rows, errs


def row_errors(rows: list[list[float | None]], tol: float = SANDWICH_TOL) -> list[str]:
    """Every row satisfies ``lower <= exact * norm_squared <= upper`` within ``tol``."""
    errs = []
    for n, row in enumerate(rows, start=1):
        _, exact, upper, lower, *_, norm_sq = row
        target = exact * norm_sq
        if not (lower - tol <= target <= upper + tol) or math.isnan(target):
            errs.append(f"row {n}: {target!r} outside [{lower!r}, {upper!r}]")
    return errs


def compare_rows(rows, ref_rows, tol: float = REFERENCE_TOL) -> list[str]:
    """Rows against reference rows, cell by cell within ``tol``."""
    if len(rows) != len(ref_rows):
        return [f"{len(rows)} rows != reference {len(ref_rows)}"]
    errs = []
    for n, (row, ref) in enumerate(zip(rows, ref_rows), start=1):
        for col, (got, want) in enumerate(zip(row, ref)):
            if not _close(got, want, tol):
                errs.append(f"row {n} col {col}: {got!r} != reference {want!r}")
    return errs


def report_errors(doc: dict, tol: float = SANDWICH_TOL) -> list[str]:
    """A ``bounds`` report keeps its exact value inside every filled bound pair."""
    target = doc["norm_squared"] * doc["exact_concurrence"]
    errs = []
    for fam in ("", "qubit_", "qudit_"):
        upper, lower = doc.get(fam + "upper"), doc.get(fam + "lower")
        if upper is None:
            continue
        if not lower - tol <= target <= upper + tol:
            errs.append(f"{fam or 'primary '}bounds [{lower!r}, {upper!r}] "
                        f"miss {target!r}")
    return errs


def compare_report(doc: dict, ref: dict, tol: float = REFERENCE_TOL) -> list[str]:
    """A report against its reference: numbers within ``tol``, the rest exactly."""
    if set(doc) != set(ref):
        return [f"report keys {sorted(doc)} != reference {sorted(ref)}"]
    errs = []
    for key, want in ref.items():
        got = doc[key]
        if isinstance(want, list):
            ok = len(got) == len(want) and all(_close(g, w, tol)
                                               for g, w in zip(got, want))
        elif isinstance(want, float):
            ok = isinstance(got, (int, float)) and _close(got, want, tol)
        else:
            ok = got == want
        if not ok:
            errs.append(f"{key} {got!r} != reference {want!r}")
    return errs


def load_json(text: str) -> tuple[dict | None, list[str]]:
    try:
        return json.loads(text), []
    except json.JSONDecodeError as exc:
        return None, [f"stdout is not JSON: {exc}"]
