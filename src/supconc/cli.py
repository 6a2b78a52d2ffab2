"""Command-line surface.

Exit codes: 0 success, 1 verification found violations, 2 bad input
(flags, files, validation), 3 internal sanity failure, 4 output I/O
failure. All output is locale-independent; floats are printed with 17
significant digits, and identical flags plus seed produce byte-identical
stdout (wall-clock timing goes to stderr). Output goes through ``print``,
since ``click.echo`` keeps every stream it wrote to, text and all, alive.
"""

from __future__ import annotations

import json
import os
import sys

import click
import numpy as np

from .bounds import REGIME_TOL, SANITY_TOL, Regime, _blocks, evaluate, evaluate_batch
from .ensembles import WEIGHT_MODES, EnsembleConfig, fixture, verify_ensemble
from .errors import SanityFailure, SupconcError
from .measures import concurrence_qubit, eof_from_concurrence, i_concurrence
from .states import (
    PureState,
    SuperpositionSpec,
    load_state,
    schmidt_coefficients,
)

CSV_HEADER = ("alpha_squared,exact,upper,lower,"
              "eof_exact,eof_upper,eof_lower,norm_squared")


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


class ComplexParam(click.ParamType):
    name = "complex"

    def convert(self, value, param, ctx):
        if isinstance(value, complex):
            return value
        try:
            return complex(str(value))
        except ValueError:
            self.fail(f"{value!r} is not a complex number", param, ctx)


COMPLEX = ComplexParam()
REGIME_CHOICE = click.Choice([r.value for r in Regime])


def _fail(message: str, code: int):
    print(f"error: {message}", file=sys.stderr)
    sys.exit(code)


def _run_or_exit(fn, *args, **kwargs):
    """Call ``fn``; exit 3 on a :class:`SanityFailure`, 2 on any other library error."""
    try:
        return fn(*args, **kwargs)
    except SanityFailure as exc:
        _fail(str(exc), 3)
    except SupconcError as exc:
        _fail(str(exc), 2)


def _load_state_or_exit(path: str) -> PureState:
    try:
        return load_state(path)
    except (SupconcError, OSError) as exc:
        _fail(f"{path}: {exc}", 2)


@click.group()
def main():
    """Concurrence of bipartite pure states and superposition bounds."""


@main.command("state-info")
@click.argument("state_file", type=click.Path(exists=True, dir_okay=False))
def cmd_state_info(state_file):
    """Print dimensions, norm, Schmidt data, and entanglement of a state file."""
    state = _load_state_or_exit(state_file)
    norm = float(np.linalg.norm(state.amplitudes))
    print(f"dims: {state.dim_a} x {state.dim_b}")
    print(f"norm: {_fmt(norm)}")
    coeffs = ", ".join(_fmt(c) for c in schmidt_coefficients(state))
    print(f"schmidt_coefficients: {coeffs}")
    if state.is_qubit_pair():
        c = concurrence_qubit(state)
        print(f"concurrence_qubit: {_fmt(c)}")
        print(f"i_concurrence: {_fmt(i_concurrence(state))}")
        print(f"eof: {_fmt(eof_from_concurrence(min(1.0, c)))}")
    else:
        print(f"i_concurrence: {_fmt(i_concurrence(state))}")


def _build_spec(phi_file: str, varphi_file: str, alpha: complex,
                beta: complex) -> SuperpositionSpec:
    phi = _load_state_or_exit(phi_file)
    varphi = _load_state_or_exit(varphi_file)
    return _run_or_exit(SuperpositionSpec, alpha, beta, phi, varphi)


@main.command("bounds")
@click.argument("phi_file", type=click.Path(exists=True, dir_okay=False))
@click.argument("varphi_file", type=click.Path(exists=True, dir_okay=False))
@click.option("--alpha", type=COMPLEX, required=True, help="Weight of the first state.")
@click.option("--beta", type=COMPLEX, required=True, help="Weight of the second state.")
@click.option("--regime-override", type=REGIME_CHOICE, default=None,
              help="Force the bound formulas of this regime instead of classifying.")
@click.option("--tol", type=float, default=REGIME_TOL, show_default=True,
              help="Regime classification tolerance, in [0, 1).")
def cmd_bounds(phi_file, varphi_file, alpha, beta, regime_override, tol):
    """Evaluate every applicable bound and print the report as JSON."""
    spec = _build_spec(phi_file, varphi_file, alpha, beta)
    override = Regime(regime_override) if regime_override else None
    report = _run_or_exit(evaluate, spec, tol=tol, regime_override=override)
    print(report.to_json())


def _sweep_rows(phi: PureState, varphi: PureState, steps: int,
                regime_override: Regime | None) -> list[str]:
    qubit = phi.is_qubit_pair()
    a_sq = np.arange(1, steps + 1) / (steps + 1)
    lines = [CSV_HEADER]
    for lo, hi in _blocks(0, steps, phi.dim_a, phi.dim_b):
        batch = evaluate_batch(np.sqrt(a_sq[lo:hi]), np.sqrt(1.0 - a_sq[lo:hi]),
                               phi.matrix[None], varphi.matrix[None],
                               regime_override=regime_override)
        upper, lower = batch.tightest[:2]
        for a, exact, up, low, norm_sq in zip(
                *(x.tolist() for x in (a_sq[lo:hi], batch.exact_concurrence, upper, lower,
                                       batch.norm_squared))):
            if qubit:
                # EoF bounds apply to the normalized superposition, so the
                # bound columns are rescaled by the squared norm first.
                eof_cols = [_fmt(eof_from_concurrence(min(1.0, max(0.0, c))))
                            for c in (exact, up / norm_sq, low / norm_sq)]
            else:
                eof_cols = ["", "", ""]
            lines.append(",".join([_fmt(a), _fmt(exact), _fmt(up), _fmt(low),
                                   *eof_cols, _fmt(norm_sq)]))
    return lines


@main.command("sweep")
@click.argument("phi_file", type=click.Path(exists=True, dir_okay=False))
@click.argument("varphi_file", type=click.Path(exists=True, dir_okay=False))
@click.option("--steps", type=click.IntRange(min=1), default=99, show_default=True,
              help="Number of grid points; alpha^2 runs over k/(steps+1).")
@click.option("--regime-override", type=REGIME_CHOICE, default=None,
              help="Force the bound formulas of this regime instead of classifying.")
def cmd_sweep(phi_file, varphi_file, steps, regime_override):
    """Sweep real weights over an alpha^2 grid and print bound data as CSV."""
    phi = _load_state_or_exit(phi_file)
    varphi = _load_state_or_exit(varphi_file)
    override = Regime(regime_override) if regime_override else None
    lines = _run_or_exit(_sweep_rows, phi, varphi, steps, override)
    print("\n".join(lines))


@main.command("figure")
@click.argument("name", type=click.Choice(["fig1", "fig2"]))
@click.option("--out", type=click.Path(dir_okay=False), required=True,
              help="Output CSV path.")
@click.option("--strict", is_flag=True,
              help="fig2 only: use the general-regime bounds instead of "
                   "reproducing the orthogonal-regime convention.")
def cmd_figure(name, out, strict):
    """Emit the data behind a reference figure as CSV (99 grid points)."""
    if strict and name != "fig2":
        raise click.UsageError("--strict applies to fig2 only")
    phi, varphi = fixture(f"{name}_pair")
    override = None if strict else Regime.ORTHOGONAL
    lines = _run_or_exit(_sweep_rows, phi, varphi, 99, override)
    try:
        with open(out, "w", encoding="ascii") as fh:
            fh.write("\n".join(lines) + "\n")
    except OSError as exc:
        _fail(f"cannot write {out}: {exc}", 4)


@main.command("verify")
@click.option("--trials", type=int, required=True, help="Number of random trials.")
@click.option("--dims", type=int, nargs=2, required=True, metavar="DIM_A DIM_B",
              help="Local dimensions.")
@click.option("--regime", type=REGIME_CHOICE, required=True,
              help="Regime the generated pairs must land in.")
@click.option("--seed", type=int, default=None,
              help="Campaign seed (default: env SB_SEED, else 0).")
@click.option("--tol", type=float, default=SANITY_TOL, show_default=True,
              help="Violation tolerance on the bound sandwich.")
@click.option("--jobs", type=int, default=1, show_default=True,
              help="Worker processes; does not affect the output.")
@click.option("--weights", type=click.Choice(WEIGHT_MODES),
              default="real-grid", show_default=True,
              help="Weight sampling mode.")
@click.option("--violations-out", type=click.Path(dir_okay=False), default=None,
              help="Also write violations as JSONL to this path.")
def cmd_verify(trials, dims, regime, seed, tol, jobs, weights, violations_out):
    """Run a randomized bound-verification campaign; exit 1 on any violation."""
    if seed is None:
        env = os.environ.get("SB_SEED")
        try:
            seed = int(env) if env is not None else 0
        except ValueError:
            _fail(f"SB_SEED={env!r} is not an integer", 2)
    config = _run_or_exit(
        EnsembleConfig, trials=trials, dim_a=dims[0], dim_b=dims[1],
        regime=Regime(regime), seed=seed, weight_sampling=weights, tol=tol,
    )
    summary = _run_or_exit(verify_ensemble, config, jobs=jobs)
    if violations_out is not None:
        try:
            with open(violations_out, "w", encoding="ascii") as fh:
                for violation in summary.violations:
                    fh.write(json.dumps(violation.to_dict()) + "\n")
        except OSError as exc:
            _fail(f"cannot write {violations_out}: {exc}", 4)
    # wall_time goes to stderr so stdout stays byte-identical across runs
    print(json.dumps(summary.to_dict(), indent=2))
    print(f"wall_time: {summary.wall_time:.3f}s", file=sys.stderr)
    if summary.violations:
        sys.exit(1)


if __name__ == "__main__":
    main()
