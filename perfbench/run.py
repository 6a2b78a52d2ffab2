"""supconc benchmark.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Runs from the root of a checkout and imports the package from ``src/``.
Set-up is timed in fresh interpreters (the median of several is
reported); then one warm-up pass runs, and passes of the workload's
operations repeat in a closed loop (each call waits for the previous one)
for ``--seconds``. A host-speed probe (``hostspeed.py``) runs before each
operation, outside its timing; throughputs and call latencies are scaled
by it to one reference host speed, so that the drift of a shared host
does not read as a change (``setup_s`` is not scaled). With
``--trace 1``, untraced and traced passes alternate and per-layer numbers
replace the end-to-end ones.

The second-to-last stdout line is a JSON detail block (host, error rate
with its counts, failures, tail percentile, the unscaled numbers); the
last line is the result: ``{"correct", "attempted", "failed", "metrics"}``. Exits 2 without a
result when the package or the workload cannot be loaded.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
DEFAULT_SEED = 20240901
SETUP_SAMPLES = 5
SETUP_PROBES = 5     # host-speed probes after each set-up
TAIL_BEYOND = 10     # samples kept beyond the reported tail percentile
MAX_FAILURES_SHOWN = 10
# One BLAS thread per process: load comes from one process in a closed loop
# (two for the --jobs 2 legs, one per core), and threaded BLAS on small
# matrices ran up to ten times slower, at random, on a busy 2-core host.
BLAS_THREADS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
                "MKL_NUM_THREADS": "1"}
os.environ.update(BLAS_THREADS)   # before numpy is first imported

import hostspeed  # noqa: E402  (imports numpy)


END_TO_END = {       # name -> unit
    "setup_s": "s",
    "trials_per_s": "1/s",
    "trials_per_s_jobs2": "1/s",
    "rows_per_s": "1/s",
    "checks_per_s": "1/s",
    "call_ms_p50": "ms",
    "call_ms_tail": "ms",
    "peak_rss_mb": "MB",
}
LAYER_DIMS = {"campaign": (2, 3, 10, 32), "inverter": (2, 3, 5, 10)}


def per_layer_units() -> dict[str, str]:
    """Name -> unit of every per-layer metric, in report order."""
    units = {"cli.self_ms_per_call": "ms", "cli.self_share": "fraction",
             "ensembles.self_us_per_trial": "us"}
    camp, inv = LAYER_DIMS["campaign"], LAYER_DIMS["inverter"]
    units.update({f"ensembles.draw_us.d{d}": "us" for d in camp})
    units.update({"ensembles.haar_draws_per_pair": "count",
                  "ensembles.self_share": "fraction"})
    units.update({f"bounds.evaluate_us.d{d}": "us" for d in camp})
    units["bounds.evaluate_self_us"] = "us"
    units.update({f"bounds.classify_us.d{d}": "us" for d in camp})
    units.update({"bounds.regime_match_ratio": "fraction",
                  "bounds.regime_match_base": "count",
                  "bounds.self_share": "fraction"})
    units.update({f"measures.concurrence_us.d{d}": "us" for d in camp})
    units["measures.concurrence_calls_per_eval"] = "count"
    units.update({f"measures.lambda_sandwich_us.d{d}": "us" for d in inv})
    units.update({"measures.expansion_ms.d10": "ms", "measures.self_share": "fraction",
                  "states.objects_per_eval": "count",
                  "states.validate_us_per_trial": "us"})
    units.update({f"states.schmidt_us.d{d}": "us" for d in camp})
    units.update({"states.svd_calls_per_eval": "count", "states.load_state_us": "us",
                  "states.self_share": "fraction", "trace_overhead_frac": "fraction"})
    return units


class Tally:
    """Attempted and failed operations, with the first failure messages."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []

    def add(self, errors: list[str]) -> None:
        self.attempted += 1
        if errors:
            self.failed += 1
            if len(self.messages) < MAX_FAILURES_SHOWN:
                self.messages.append("; ".join(errors)[:500])


def run_pass(wl, tally: Tally, tracer=None, traced_cycle: bool = False) -> list[tuple]:
    """One pass over the workload's operations.

    Returns one ``(leg, units, seconds, probe seconds)`` record per
    operation; the host-speed probe runs just before the operation and
    outside its timing.
    """
    records = []
    for op in wl.ops(traced=tracer is not None or traced_cycle):
        probe_s = hostspeed.probe()
        if tracer is not None:
            tracer.requested_regime = op.regime
        t0 = time.perf_counter()
        try:
            out = op.run() if tracer is None else tracer.span(*op.span, op.run)
        except Exception as exc:  # counted as a failed operation, the run goes on
            out, errors = None, [f"{op.key}: {type(exc).__name__}: {exc}"]
        else:
            errors = None
        elapsed = time.perf_counter() - t0
        if tracer is not None:
            tracer.requested_regime = None
        tally.add(errors if errors is not None else op.check(out))
        records.append((op.leg, op.units, elapsed, probe_s))
    return records


def _leg_rate(passes: list[list[tuple]], leg: str) -> float | None:
    """Median over passes of one leg's units per second."""
    rates = []
    for records in passes:
        spent = sum(s for rec_leg, _, s in records if rec_leg == leg)
        if spent > 0:
            rates.append(sum(u for rec_leg, u, _ in records if rec_leg == leg) / spent)
    return statistics.median(rates) if rates else None


def _timings(passes: list[list[tuple]]) -> dict[str, float]:
    """Throughputs and call latencies from ``(leg, units, seconds)`` records."""
    main_rate = _leg_rate(passes, "main")
    jobs2_rate = _leg_rate(passes, "jobs2")
    calls = sorted(s * 1e3 for records in passes for _, _, s in records)
    return {
        # A throughput outside the workload's own unit reports that unit's rate.
        "trials_per_s": main_rate,
        "trials_per_s_jobs2": jobs2_rate if jobs2_rate is not None else main_rate,
        "rows_per_s": main_rate,
        "checks_per_s": main_rate,
        "call_ms_p50": statistics.median(calls),
        "call_ms_tail": calls[max(0, len(calls) - TAIL_BEYOND - 1)],
    }


def end_to_end(passes: list[list[tuple]], setup_samples: list[float]):
    """End-to-end metrics and the details that qualify them.

    Each operation's seconds are scaled to the reference host speed by the
    probe run just before it (``hostspeed``); the details keep the
    unadjusted numbers.
    """
    ref = hostspeed.REFERENCE_SECONDS
    adjusted = [[(leg, u, s * ref / p) for leg, u, s, p in records] for records in passes]
    raw = [[(leg, u, s) for leg, u, s, _ in records] for records in passes]
    probes = [p for records in passes for *_, p in records]
    n = len(probes)
    tail_index = max(0, n - TAIL_BEYOND - 1)
    values = {"setup_s": statistics.median(setup_samples), **_timings(adjusted),
              "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0}
    details = {
        "call_samples": n,
        "call_ms_tail_percentile": round(100.0 * tail_index / max(1, n - 1), 3),
        "call_samples_beyond_tail": n - 1 - tail_index,
        "setup_samples_s": setup_samples,
        "host_speed": {"probe_ms_median": statistics.median(probes) * 1e3,
                       "reference_probe_ms": ref * 1e3,
                       "unadjusted": _timings(raw)},
    }
    return {k: {"value": v, "unit": END_TO_END[k]} for k, v in values.items()}, details


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 setup_samples: list[float], quick: bool = False) -> tuple[dict, dict]:
    """Set up, warm up and measure one workload; returns (result, details)."""
    import supconc
    from supconc import bounds, cli, ensembles, measures, states

    import workloads
    from tracing import Tracer, layer_metrics

    tally = Tally()
    with tempfile.TemporaryDirectory(prefix=".work-", dir=BENCH_DIR) as workdir:
        wl = workloads.WORKLOADS[name](seed, Path(workdir), quick)
        wl.setup()
        run_pass(wl, tally, traced_cycle=trace)   # warm-up
        tracer = Tracer() if trace else None
        passes, overhead = [], []
        deadline = time.perf_counter() + seconds
        while not passes or time.perf_counter() < deadline:
            if tracer is None:
                passes.append(run_pass(wl, tally))
                continue
            plain = run_pass(wl, tally, traced_cycle=True)
            with tracer.installed(supconc, (cli, ensembles, bounds, measures, states)):
                traced = run_pass(wl, tally, tracer)
            passes.append(traced)
            overhead.append(sum(r[2] for r in traced) / sum(r[2] for r in plain) - 1.0)

    details = {"workload": name, "seed": seed, "trace": int(trace),
               "passes": len(passes), "unit": wl.unit,
               "error_rate": {"value": tally.failed / tally.attempted, "unit": "fraction",
                              "failed": tally.failed, "attempted": tally.attempted},
               "failures": tally.messages,
               "reference_values_checked": wl.references_used}
    if tracer is None:
        metrics, more = end_to_end(passes, setup_samples)
        details.update(more)
    else:
        values = layer_metrics(tracer, LAYER_DIMS)
        values["trace_overhead_frac"] = statistics.median(overhead)
        metrics = {k: {"value": values[k], "unit": u} for k, u in per_layer_units().items()}
    result = {"correct": tally.failed == 0, "attempted": tally.attempted,
              "failed": tally.failed, "metrics": metrics}
    return result, details


def setup_child(name: str, seed: int) -> None:
    """Import the package and set the workload up; run in a fresh interpreter.

    Then probes the host speed and prints the median probe and the seconds
    spent probing, which the parent takes off its set-up time.
    """
    import workloads
    with tempfile.TemporaryDirectory(prefix=".work-", dir=BENCH_DIR) as workdir:
        workloads.WORKLOADS[name](seed, Path(workdir)).setup()
    t0 = time.perf_counter()
    probe_s = statistics.median(hostspeed.probe() for _ in range(SETUP_PROBES))
    print(probe_s, time.perf_counter() - t0)


def time_setup(name: str, seed: int, samples: int = SETUP_SAMPLES) -> tuple[list, list]:
    """Seconds from a fresh interpreter to a set-up workload, ``samples`` times.

    Returns the samples scaled to the reference host speed by the probes
    the fresh interpreter ran right after its set-up, and as measured.
    """
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
           "--seed", str(seed), "--setup-child"]
    scaled, raw = [], []
    for _ in range(samples):
        t0 = time.perf_counter()
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=120)
        elapsed = time.perf_counter() - t0
        if proc.returncode != 0:
            raise RuntimeError(f"set-up failed: {proc.stderr.strip()[-2000:]}")
        probe_s, probing_s = (float(x) for x in proc.stdout.split())
        raw.append(elapsed - probing_s)
        scaled.append(raw[-1] * hostspeed.REFERENCE_SECONDS / probe_s)
    return scaled, raw


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=["campaign_small", "campaign_large",
                                 "sweep_fixed_pair", "inverter_crosscheck"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-child", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (SRC / "supconc" / "__init__.py").is_file():
        print(f"perfbench: no supconc package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    try:
        import workloads  # noqa: F401  (imports supconc)
    except ImportError as exc:
        print(f"perfbench: cannot import supconc: {exc}", file=sys.stderr)
        return 2
    if args.setup_child:
        setup_child(args.workload, args.seed)
        return 0

    from hostinfo import host_block

    try:
        setup, setup_raw = time_setup(args.workload, args.seed) if not args.trace else ([], [])
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    result, details = run_workload(args.workload, args.seed, args.seconds,
                                   bool(args.trace), setup)
    if setup_raw:
        details["host_speed"]["unadjusted"]["setup_s"] = statistics.median(setup_raw)
        details["setup_samples_unadjusted_s"] = setup_raw
    details["host"] = host_block(ROOT)
    print(json.dumps(details))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
