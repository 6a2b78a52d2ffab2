"""Tests of the benchmark's own code: ``python -m pytest perfbench/tests``."""

from __future__ import annotations

import copy
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent.parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH_DIR))

import checks  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

REFS = json.loads(workloads.REFERENCES.read_text())
SEED = str(run.DEFAULT_SEED)


def _benchmark_names(section: str) -> set[str]:
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"] for m in doc[section]}


def test_checker_accepts_and_rejects_summaries():
    key, ref = next(iter(REFS["seeds"][SEED]["campaign_small"].items()))
    trials = int(key.rsplit(" n", 1)[1])
    assert checks.summary_errors(ref, trials) == []
    assert checks.compare_summary(copy.deepcopy(ref), ref) == []

    slack = copy.deepcopy(ref)
    slack["max_upper_slack"] += 1e-11
    assert checks.compare_summary(slack, ref)
    count = copy.deepcopy(ref)
    count["trials_run"] += 1
    assert checks.compare_summary(count, ref) and checks.summary_errors(count, trials)
    violated = copy.deepcopy(ref)
    violated["violations"] = [{"seed": 1, "trial_index": 0, "digest": "x", "margin": 1.0}]
    assert checks.compare_summary(violated, ref) and checks.summary_errors(violated, trials)
    escaped = copy.deepcopy(ref)
    escaped["min_lower_slack"] = -1e-6
    assert checks.summary_errors(escaped, trials)


def test_checker_accepts_and_rejects_csv_rows():
    ref_rows = REFS["fixed"]["figure fig1"]
    text = "\n".join([checks.CSV_HEADER] + [
        ",".join("" if c is None else repr(c) for c in row) for row in ref_rows])
    rows, errs = checks.parse_csv(text)
    assert errs == [] and checks.row_errors(rows) == []
    assert checks.compare_rows(rows, ref_rows) == []

    nudged = copy.deepcopy(rows)
    nudged[10][2] += 1e-11
    assert checks.compare_rows(nudged, ref_rows)
    escaped = copy.deepcopy(rows)
    escaped[10][2] = escaped[10][1] * escaped[10][7] - 1e-6   # upper below the exact value
    assert checks.row_errors(escaped)
    assert checks.parse_csv(text.replace(checks.CSV_HEADER, "a,b"))[1]


def test_checker_rejects_perturbed_report():
    ref = REFS["seeds"][SEED]["sweep_fixed_pair"]["bounds orthogonal"]
    assert checks.report_errors(ref) == [] and checks.compare_report(ref, ref) == []
    nudged = dict(ref, upper=ref["upper"] + 1e-11)
    assert checks.compare_report(nudged, ref)
    escaped = dict(ref, upper=ref["norm_squared"] * ref["exact_concurrence"] - 1e-6)
    assert checks.report_errors(escaped)


def test_end_to_end_scales_times_to_the_reference_host_speed():
    slow = 2 * run.hostspeed.REFERENCE_SECONDS   # the probe took twice its reference
    passes = [[("main", 100, 0.5, slow), ("report", 1, 0.01, slow)],
              [("main", 100, 0.4, slow), ("report", 1, 0.02, slow)]]
    metrics, details = run.end_to_end(passes, [0.3, 0.1, 0.2])
    raw = details["host_speed"]["unadjusted"]
    assert raw["trials_per_s"] == pytest.approx(225.0)          # median of 200 and 250
    assert metrics["trials_per_s"]["value"] == pytest.approx(450.0)
    assert raw["call_ms_p50"] == pytest.approx(210.0)           # median of 10, 20, 400, 500
    assert metrics["call_ms_p50"]["value"] == pytest.approx(105.0)
    assert metrics["setup_s"]["value"] == 0.2                   # set-up is not scaled


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
@pytest.mark.parametrize("trace", [False, True])
def test_smoke_run_is_clean_and_prints_declared_metrics(name, trace):
    result, details = run.run_workload(name, run.DEFAULT_SEED, 0.0, trace,
                                       setup_samples=[0.5], quick=True)
    assert result["attempted"] >= 1
    assert result["failed"] == 0 and details["error_rate"]["value"] == 0.0, details["failures"]
    assert result["correct"] is True
    section = "per_layer" if trace else "end_to_end"
    assert set(result["metrics"]) == _benchmark_names(section)
    for metric in result["metrics"].values():
        assert isinstance(metric["value"], float) and metric["unit"]


def test_traced_run_counts_campaign_work():
    result, _ = run.run_workload("campaign_small", run.DEFAULT_SEED, 0.0, True,
                                 setup_samples=[], quick=True)
    m = {k: v["value"] for k, v in result["metrics"].items()}
    assert m["ensembles.haar_draws_per_pair"] == 2.0
    assert m["bounds.regime_match_ratio"] == 1.0 and m["bounds.regime_match_base"] > 0
    assert m["measures.concurrence_calls_per_eval"] == 3.0
    assert m["ensembles.draw_us.d2"] > 0 and m["bounds.classify_us.d3"] > 0


def test_run_without_package_exits_nonzero_without_result(tmp_path):
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".work-*"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload",
                           "campaign_small", "--seconds", "1"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
