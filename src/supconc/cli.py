"""Command-line surface.

Exit codes: 0 success, 1 verification found violations, 2 bad input
(flags, files, validation) or out of memory, 3 a bug: a failed internal
invariant (``SanityFailure``, ``InternalError`` or ``DeltaOutOfRange``) or
any other exception (its traceback goes to stderr), 4 output I/O failure,
130 (128 + SIGINT) interrupted by Ctrl-C, with ``Aborted!`` on stderr: one
SIGINT ends a ``verify --jobs N`` campaign too, whose pool processes
ignore it and are terminated (:func:`supconc.ensembles.verify_ensemble`);
a pool process that dies ends one with exit 3.
One handler, the group's (:class:`_ExitCodes`), maps exceptions to these
codes around every command's argument parsing and run, so the commands
call the library directly. Stderr is written by :func:`_stderr`, which
ignores a failed write: a stderr that cannot be written changes no exit
code, and neither does it for click's usage errors (:meth:`_ExitCodes.main`).
All output is locale-independent; floats are printed with 17
significant digits, and identical flags plus seed produce byte-identical
stdout (wall-clock timing goes to stderr). Stdout is written by one helper,
:func:`_emit`, which prints and flushes, so that a failed write exits 4
like a failed output file, and not 1 or with a traceback; a help page that
cannot be written exits 4 too (:class:`_HelpOutput`). It prints rather than
``click.echo``, which keeps every stream it wrote to, text and all, alive.
"""

from __future__ import annotations

import json
import os
import sys
import traceback

import click
import numpy as np

from .bounds import REGIME_TOL, SANITY_TOL, Regime, evaluate, evaluate_batch
from .ensembles import WEIGHT_MODES, EnsembleConfig, fixture, verify_ensemble
from .errors import DeltaOutOfRange, InternalError, SanityFailure, SupconcError
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


REGIME_CHOICE = click.Choice([r.value for r in Regime])


def _stderr(line: str) -> None:
    """Print ``line`` to stderr; a stderr that cannot be written changes no exit code."""
    try:
        print(line, file=sys.stderr, flush=True)
    except OSError:
        pass


def _fail(message: str, code: int):
    _stderr(f"error: {message}")
    sys.exit(code)


def _write_failed(target: str, exc: OSError):
    _fail(f"cannot write {target}: {exc}", 4)


def _stdout_failed(exc: OSError):
    """Exit 4 with one error line: stdout could not be written."""
    # Python flushes stdout again on exit, and a failed flush there makes
    # the status 120: on the null device it cannot fail
    try:
        fd = sys.stdout.fileno()
        os.dup2(os.open(os.devnull, os.O_WRONLY), fd)
    except (OSError, ValueError):
        pass   # a stdout with no file descriptor, as in-process callers set
    _write_failed("stdout", exc)


def _emit(text: str) -> None:
    """Print ``text`` to stdout and flush it; exit 4 if stdout cannot be written."""
    try:
        print(text, flush=True)
    except OSError as exc:
        _stdout_failed(exc)


def _load_state_or_exit(path: str) -> PureState:
    try:
        return load_state(path)
    except (SupconcError, OSError) as exc:
        _fail(f"{path}: {exc}", 2)


class _HelpOutput:
    """Argument parsing whose one output, the help page on stdout, exits 4
    where it cannot be written, as :func:`_emit` does."""

    def make_context(self, *args, **kwargs):
        try:
            return super().make_context(*args, **kwargs)
        except OSError as exc:
            _stdout_failed(exc)


class _Command(_HelpOutput, click.Command):
    """A command of the group, with its help page guarded."""


class _ExitCodes(_HelpOutput, click.Group):
    """The group that sets every command's exit code, around both the parsing
    of the command's arguments and its run.

    Exit 3 on a failed internal invariant (:class:`SanityFailure`,
    :class:`InternalError`, :class:`DeltaOutOfRange`), 2 on any other
    library error or on running out of memory, and 3, with the traceback,
    on any other exception: a bug, which must not exit 1 as a violation
    would. Click's own exceptions (usage errors, the exit after help) pass
    through to :meth:`main`. A help page, the group's or a command's, that
    cannot be written exits 4 (:class:`_HelpOutput`).
    """

    command_class = _Command

    def main(self, *args, standalone_mode: bool = True, **kwargs):
        """Click's ``main``. Its standalone mode, the console script's, is run
        here, so that a click error (a usage error: exit 2) shown on a stderr
        that cannot be written exits with its own code, as :func:`_stderr`
        ignores a failed write, and an interrupt (click's ``Abort``) exits
        130 rather than the violations code 1; a click error still raises to
        a caller that asks for no standalone mode."""
        if not standalone_mode:
            return super().main(*args, standalone_mode=False, **kwargs)
        try:
            code = super().main(*args, standalone_mode=False, **kwargs)
        except click.ClickException as exc:
            try:
                exc.show()
            except OSError:
                pass
            code = exc.exit_code
        except click.Abort:
            _stderr("Aborted!")
            code = 130
        # None after a command, which exits 0, or the code of click's Exit
        sys.exit(code)

    def invoke(self, ctx):
        try:
            return super().invoke(ctx)
        except (click.ClickException, click.exceptions.Exit):
            raise
        except (SanityFailure, InternalError, DeltaOutOfRange) as exc:
            _fail(str(exc), 3)
        except SupconcError as exc:
            _fail(str(exc), 2)
        except MemoryError as exc:
            _fail(f"out of memory: {exc}" if str(exc) else "out of memory", 2)
        except Exception as exc:
            _stderr(traceback.format_exc().rstrip("\n"))
            _fail(f"internal error: {exc!r}", 3)


@click.group(cls=_ExitCodes)
def main():
    """Concurrence of bipartite pure states and superposition bounds."""


@main.command("state-info")
@click.argument("state_file", type=click.Path(exists=True, dir_okay=False))
def cmd_state_info(state_file):
    """Print dimensions, norm, Schmidt data, and entanglement of a state file."""
    state = _load_state_or_exit(state_file)
    norm = float(np.linalg.norm(state.amplitudes))
    coeffs = ", ".join(_fmt(c) for c in schmidt_coefficients(state))
    lines = [f"dims: {state.dim_a} x {state.dim_b}", f"norm: {_fmt(norm)}",
             f"schmidt_coefficients: {coeffs}"]
    if state.is_qubit_pair():
        c = concurrence_qubit(state)
        lines.append(f"concurrence_qubit: {_fmt(c)}")
        lines.append(f"i_concurrence: {_fmt(i_concurrence(state))}")
        lines.append(f"eof: {_fmt(eof_from_concurrence(min(1.0, c)))}")
    else:
        lines.append(f"i_concurrence: {_fmt(i_concurrence(state))}")
    _emit("\n".join(lines))


@main.command("bounds")
@click.argument("phi_file", type=click.Path(exists=True, dir_okay=False))
@click.argument("varphi_file", type=click.Path(exists=True, dir_okay=False))
@click.option("--alpha", type=complex, required=True, help="Weight of the first state.")
@click.option("--beta", type=complex, required=True, help="Weight of the second state.")
@click.option("--regime-override", type=REGIME_CHOICE, default=None,
              help="Force the bound formulas of this regime instead of classifying.")
@click.option("--tol", type=float, default=REGIME_TOL, show_default=True,
              help="Regime classification tolerance, in [0, 1).")
def cmd_bounds(phi_file, varphi_file, alpha, beta, regime_override, tol):
    """Evaluate every applicable bound and print the report as JSON."""
    spec = SuperpositionSpec(alpha, beta, _load_state_or_exit(phi_file),
                             _load_state_or_exit(varphi_file))
    override = Regime(regime_override) if regime_override else None
    report = evaluate(spec, tol=tol, regime_override=override)
    _emit(report.to_json())


def _sweep_rows(phi: PureState, varphi: PureState, steps: int,
                regime_override: Regime | None) -> list[str]:
    qubit = phi.is_qubit_pair()
    a_sq = np.arange(1, steps + 1) / (steps + 1)
    # one core call: the components' overlap, regime and concurrences are
    # computed once, and only the superpositions are formed block by block
    batch = evaluate_batch(np.sqrt(a_sq), np.sqrt(1.0 - a_sq), phi.matrix[None],
                           varphi.matrix[None], regime_override=regime_override)
    upper, lower = batch.tightest[:2]
    lines = [CSV_HEADER]
    for a, exact, up, low, norm_sq in zip(
            *(x.tolist() for x in (a_sq, batch.exact_concurrence, upper, lower,
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
    lines = _sweep_rows(phi, varphi, steps, override)
    _emit("\n".join(lines))


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
    lines = _sweep_rows(phi, varphi, 99, override)
    try:
        with open(out, "w", encoding="ascii") as fh:
            fh.write("\n".join(lines) + "\n")
    except OSError as exc:
        _write_failed(out, exc)


@main.command("verify")
@click.option("--trials", type=int, required=True, help="Number of random trials.")
@click.option("--dims", type=int, nargs=2, required=True, metavar="DIM_A DIM_B",
              help="Local dimensions.")
@click.option("--regime", type=REGIME_CHOICE, required=True,
              help="Regime the generated pairs must land in.")
@click.option("--seed", type=int, default=0, envvar="SB_SEED", show_default=True,
              show_envvar=True, help="Campaign seed.")
@click.option("--tol", type=float, default=SANITY_TOL, show_default=True,
              help="Violation tolerance on the bound sandwich.")
@click.option("--jobs", type=click.IntRange(min=1), default=1, show_default=True,
              help="Processes to run in, this one included; does not affect the output.")
@click.option("--weights", type=click.Choice(WEIGHT_MODES),
              default="real-grid", show_default=True,
              help="Weight sampling mode.")
@click.option("--violations-out", type=click.Path(dir_okay=False), default=None,
              help="Also write violations as JSONL to this path.")
def cmd_verify(trials, dims, regime, seed, tol, jobs, weights, violations_out):
    """Run a randomized bound-verification campaign; exit 1 on any violation."""
    config = EnsembleConfig(trials=trials, dim_a=dims[0], dim_b=dims[1],
                            regime=Regime(regime), seed=seed, weight_sampling=weights,
                            tol=tol)
    summary = verify_ensemble(config, jobs=jobs)
    if violations_out is not None:
        try:
            with open(violations_out, "w", encoding="ascii") as fh:
                for violation in summary.violations:
                    fh.write(json.dumps(violation.to_dict()) + "\n")
        except OSError as exc:
            _write_failed(violations_out, exc)
    # wall_time goes to stderr so stdout stays byte-identical across runs
    _emit(json.dumps(summary.to_dict(), indent=2))
    _stderr(f"wall_time: {summary.wall_time:.3f}s")
    if summary.violations:
        sys.exit(1)


if __name__ == "__main__":
    main()
