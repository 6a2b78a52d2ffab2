"""The four benchmark workloads and their correctness gate.

Each workload builds its inputs from the seed in ``setup()`` and then
yields the same list of operations for every pass. An operation is one
``supconc`` CLI invocation run in-process, or one library identity check.
Its ``check`` returns the problems found in its output; a problem or an
exception counts the operation as failed and the run goes on.

Every CLI call is repeated once per pass with the same arguments, so each
later output is compared byte for byte with the first one (same flags and
seed give the same stdout). ``--jobs 2`` campaigns are compared with the
``--jobs 1`` run of the same campaign.
"""

from __future__ import annotations

import contextlib
import functools
import io
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import supconc as sc
from supconc import cli as sc_cli

import checks

REGIMES = ("orthogonal", "general", "biorthogonal")
WEIGHTS = ("real-grid", "complex-random")
REFERENCES = Path(__file__).resolve().parent / "references.json"


@dataclass(frozen=True)
class CliResult:
    code: int
    stdout: str
    error: str | None = None


def invoke(argv: list[str]) -> CliResult:
    """Run one ``supconc`` command in this process, capturing its output."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            sc_cli.main.main(args=argv, prog_name="supconc", standalone_mode=False)
            code = 0
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
        except Exception as exc:  # counted as a failed operation, the run goes on
            return CliResult(-1, out.getvalue(), f"{type(exc).__name__}: {exc}")
    return CliResult(code, out.getvalue())


@dataclass(frozen=True)
class Op:
    """One operation of a pass."""

    key: str                   # names the operation across passes and in references
    leg: str                   # throughput leg: "main", "jobs2" or "report"
    units: int                 # items completed: trials, rows or checks
    run: Callable[[], object]
    check: Callable[[object], list[str]]
    span: tuple[str, str]      # (layer, name) of the op's root span
    regime: str | None = None  # regime a campaign asks for


def load_references(seed: int) -> tuple[dict, dict]:
    """(seed-independent references, references recorded for ``seed``)."""
    doc = json.loads(REFERENCES.read_text()) if REFERENCES.is_file() else {}
    return doc.get("fixed", {}), doc.get("seeds", {}).get(str(seed), {})


def _first_evaluate(rng: np.random.Generator, dim: int):
    phi, var = sc.orthogonal_pair(dim, dim, rng)
    return sc.evaluate(sc.SuperpositionSpec(math.sqrt(0.5), math.sqrt(0.5), phi, var))


class Workload:
    name = ""
    unit = ""       # what ``units`` counts on the "main" leg
    dims: tuple[int, ...] = ()

    def __init__(self, seed: int, workdir: Path, quick: bool = False):
        self.seed = seed
        self.workdir = workdir
        self.quick = quick
        fixed, by_seed = load_references(seed)
        self.fixed_refs = fixed
        self.refs = by_seed.get(self.name, {})
        self.references_used = 0
        self._first: dict[str, str] = {}

    def setup(self) -> None:
        raise NotImplementedError

    def ops(self, traced: bool) -> list[Op]:
        raise NotImplementedError

    def _same_as_first(self, key: str, text: str) -> list[str]:
        first = self._first.setdefault(key, text)
        return [] if text == first else [f"{key}: output differs from the first same-seed run"]

    @staticmethod
    def _call_failed(key: str, res: CliResult) -> list[str]:
        if res.error:
            return [f"{key}: {res.error}"]
        return [f"{key}: exit code {res.code}"] if res.code != 0 else []

    def _reference(self, table: dict, key: str):
        ref = table.get(key)
        if ref is not None:
            self.references_used += 1
        return ref


class Campaigns(Workload):
    """``supconc verify`` campaigns; every trial draws a fresh pair."""

    unit = "trials"
    weights: tuple[str, ...] = WEIGHTS
    jobs: tuple[int, ...] = (1,)
    trials = 0

    def setup(self) -> None:
        _first_evaluate(np.random.default_rng(self.seed), self.dims[0])

    def campaigns(self):
        trials = 20 if self.quick else self.trials
        for d in self.dims:
            for regime in REGIMES:
                for weights in self.weights:
                    yield f"verify {d}x{d} {regime} {weights} n{trials}", d, regime, weights, trials

    def ops(self, traced: bool) -> list[Op]:
        ops = []
        for key, d, regime, weights, trials in self.campaigns():
            for jobs in self.jobs:
                if traced and jobs > 1:
                    continue  # worker processes are not traced
                argv = ["verify", "--trials", str(trials), "--dims", str(d), str(d),
                        "--regime", regime, "--seed", str(self.seed), "--tol", "1e-9",
                        "--weights", weights, "--jobs", str(jobs)]
                ops.append(Op(
                    key=key if jobs == 1 else f"{key} jobs{jobs}",
                    leg="main" if jobs == 1 else "jobs2",
                    units=trials, run=functools.partial(invoke, argv),
                    check=functools.partial(self._check, key, trials, jobs),
                    span=("cli", "verify"), regime=regime,
                ))
        return ops

    def _check(self, key: str, trials: int, jobs: int, res: CliResult) -> list[str]:
        errs = self._call_failed(key, res)
        if res.error:
            return errs
        if jobs == 1:
            errs += self._same_as_first(key, res.stdout)
        elif res.stdout != self._first.get(key):
            errs.append(f"{key}: --jobs {jobs} stdout differs from --jobs 1")
        doc, bad = checks.load_json(res.stdout)
        if doc is None:
            return errs + [f"{key}: {e}" for e in bad]
        errs += [f"{key}: {e}" for e in checks.summary_errors(doc, trials)]
        ref = self._reference(self.refs, key)
        if ref is not None:
            errs += [f"{key}: {e}" for e in checks.compare_summary(doc, ref)]
        return errs


class CampaignSmall(Campaigns):
    """2x2 and 3x3 campaigns: object and dispatch overhead dominates a trial."""

    name = "campaign_small"
    dims = (2, 3)
    trials = 250


class CampaignLarge(Campaigns):
    """10x10 and 32x32 campaigns at --jobs 1 and 2: the SVD kernel shows."""

    name = "campaign_large"
    dims = (10, 32)
    weights = ("real-grid",)
    jobs = (1, 2)
    trials = 250


class SweepFixedPair(Workload):
    """Figure and sweep rows: every row re-evaluates the same two components."""

    name = "sweep_fixed_pair"
    unit = "rows"

    def setup(self) -> None:
        rng = np.random.default_rng(self.seed)
        pairs = {"orthogonal": sc.orthogonal_pair(32, 32, rng),
                 "general": (sc.haar_state(32, 32, rng), sc.haar_state(32, 32, rng))}
        self.files, self.weights = {}, {}
        for regime, (phi, var) in pairs.items():
            paths = [str(self.workdir / f"{regime}_{part}.json") for part in ("phi", "varphi")]
            sc.save_state(phi, paths[0])
            sc.save_state(var, paths[1])
            a_sq = int(rng.integers(1, 100)) / 100.0
            self.files[regime] = paths
            self.weights[regime] = (math.sqrt(a_sq), math.sqrt(1.0 - a_sq))
        alpha, beta = self.weights["orthogonal"]
        sc.evaluate(sc.SuperpositionSpec(alpha, beta, *pairs["orthogonal"]))

    def ops(self, traced: bool) -> list[Op]:
        ops = []
        for name, extra in (("fig1", []), ("fig2", []), ("fig2", ["--strict"])):
            key = " ".join(["figure", name, *extra])
            out = self.workdir / f"{name}{'_strict' if extra else ''}.csv"
            argv = ["figure", name, "--out", str(out), *extra]
            ops.append(Op(key, "main", 99, functools.partial(invoke, argv),
                          functools.partial(self._check_figure, key, out),
                          ("cli", "figure")))
        steps = 5 if self.quick else 99
        for regime, (phi, var) in self.files.items():
            key = f"sweep {regime} steps{steps}"
            argv = ["sweep", phi, var, "--steps", str(steps)]
            ops.append(Op(key, "main", steps, functools.partial(invoke, argv),
                          functools.partial(self._check_sweep, key), ("cli", "sweep")))
            alpha, beta = self.weights[regime]
            key = f"bounds {regime}"
            argv = ["bounds", phi, var, "--alpha", repr(alpha), "--beta", repr(beta)]
            ops.append(Op(key, "report", 1, functools.partial(invoke, argv),
                          functools.partial(self._check_bounds, key), ("cli", "bounds")))
        return ops

    def _rows(self, key: str, text: str, refs: dict) -> list[str]:
        rows, errs = checks.parse_csv(text)
        errs += checks.row_errors(rows)
        ref = self._reference(refs, key)
        if ref is not None:
            errs += checks.compare_rows(rows, ref)
        return [f"{key}: {e}" for e in errs]

    def _check_figure(self, key: str, out: Path, res: CliResult) -> list[str]:
        errs = self._call_failed(key, res)
        if errs:
            return errs
        try:
            text = out.read_text(encoding="ascii")
        except OSError as exc:
            return [f"{key}: cannot read output: {exc}"]
        return self._same_as_first(key, res.stdout + text) + self._rows(key, text, self.fixed_refs)

    def _check_sweep(self, key: str, res: CliResult) -> list[str]:
        errs = self._call_failed(key, res)
        if errs:
            return errs
        return self._same_as_first(key, res.stdout) + self._rows(key, res.stdout, self.refs)

    def _check_bounds(self, key: str, res: CliResult) -> list[str]:
        errs = self._call_failed(key, res)
        if errs:
            return errs
        errs = self._same_as_first(key, res.stdout)
        doc, bad = checks.load_json(res.stdout)
        if doc is None:
            return errs + [f"{key}: {e}" for e in bad]
        errs += [f"{key}: {e}" for e in checks.report_errors(doc)]
        ref = self._reference(self.refs, key)
        if ref is not None:
            errs += [f"{key}: {e}" for e in checks.compare_report(doc, ref)]
        return errs


class InverterCrosscheck(Workload):
    """Acceptance-criterion 1-2 identities through the universal-inverter route."""

    name = "inverter_crosscheck"
    unit = "checks"
    dims = (2, 3, 5, 10)
    per_dim = {"via_lambda": 12, "trace": 12, "expansion": 6}

    def setup(self) -> None:
        self.inputs = {}
        for d in self.dims:
            rng = np.random.default_rng([self.seed, d])
            count = {k: 1 if self.quick else n for k, n in self.per_dim.items()}
            n = d * d
            states = [sc.haar_state(d, d, rng) for _ in range(count["via_lambda"])]
            sigmas = [sc.OperatorAB(d, d, rng.standard_normal((n, n))
                                    + 1j * rng.standard_normal((n, n)))
                      for _ in range(count["trace"])]
            specs = []
            for _ in range(count["expansion"]):
                phi, var = sc.haar_state(d, d, rng), sc.haar_state(d, d, rng)
                a_sq = rng.uniform(0.02, 0.98)
                theta = rng.uniform(0.0, 2.0 * math.pi, size=2)
                specs.append(sc.SuperpositionSpec(
                    math.sqrt(a_sq) * complex(math.cos(theta[0]), math.sin(theta[0])),
                    math.sqrt(1.0 - a_sq) * complex(math.cos(theta[1]), math.sin(theta[1])),
                    phi, var))
            self.inputs[d] = (states, sigmas, specs)
        sc.evaluate(self.inputs[self.dims[0]][2][0])

    def ops(self, traced: bool) -> list[Op]:
        # One operation is a round over every input: single checks last
        # 0.1-5 ms, so their latency tail would measure host hiccups.
        checks_per_round = sum(len(items) for inputs in self.inputs.values()
                               for items in inputs)
        return [Op("round", "main", checks_per_round, self._round, _check_round,
                   ("bench", "round"))]

    def _round(self) -> list[tuple[str, float]]:
        gaps = []
        for d, (states, sigmas, specs) in self.inputs.items():
            gaps += [(f"via_lambda d{d} #{i}", _via_lambda_gap(s)) for i, s in enumerate(states)]
            gaps += [(f"trace d{d} #{i}", _trace_gap(s)) for i, s in enumerate(sigmas)]
            gaps += [(f"expansion d{d} #{i}", _expansion_gap(s)) for i, s in enumerate(specs)]
        return gaps


def _via_lambda_gap(s) -> float:
    """|i_concurrence^2 - <s|Lambda(|s><s|)|s>| (criterion 1)."""
    return abs(sc.i_concurrence(s) ** 2 - sc.concurrence_sq_via_lambda(s))


def _trace_gap(sigma) -> float:
    """|Tr Lambda(sigma) - (d_a - 1)(d_b - 1) Tr sigma| (criterion 2)."""
    out = sc.lambda_map(sigma)
    scale = (sigma.dim_a - 1) * (sigma.dim_b - 1)
    return abs(np.trace(out.entries) - scale * np.trace(sigma.entries))


def _expansion_gap(spec) -> float:
    """|sandwich expansion - norm^4 C^2| for a superposition."""
    raw, norm_sq = sc.superpose(spec)
    psi, _ = sc.normalize(raw)
    direct = norm_sq ** 2 * sc.i_concurrence(psi) ** 2
    return abs(sc.superposition_csq_expansion(spec) - direct)


def _check_round(gaps: list[tuple[str, float]]) -> list[str]:
    return [f"{key}: identity gap {gap!r} > {checks.IDENTITY_TOL}"
            for key, gap in gaps if not gap <= checks.IDENTITY_TOL]


WORKLOADS = {w.name: w for w in (CampaignSmall, CampaignLarge, SweepFixedPair,
                                 InverterCrosscheck)}
