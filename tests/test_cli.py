import contextlib
import dataclasses
import errno
import gc
import hashlib
import io
import json
import math
import multiprocessing
import os
import resource
import signal
import subprocess
import sys
import threading
import time
import weakref
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import given, settings
from hypothesis import strategies as st

import supconc.bounds as bounds
import supconc.cli as cli
import supconc.ensembles as ensembles
from supconc import (DeltaOutOfRange, Regime, SuperpositionSpec, evaluate, fixture,
                     haar_state, save_state)
from supconc.bounds import _blocks
from supconc.cli import CSV_HEADER, _sweep_rows, main

S2 = math.sqrt(0.5)


@pytest.fixture
def runner():
    return CliRunner()


@pytest.fixture
def state_files(tmp_path):
    paths = {}
    for name in ("bell_plus", "bell_minus", "ket01"):
        paths[name] = tmp_path / f"{name}.json"
        save_state(fixture(name), paths[name])
    for pair in ("fig1", "fig2"):
        phi, var = fixture(f"{pair}_pair")
        paths[f"{pair}_phi"] = tmp_path / f"{pair}_phi.json"
        paths[f"{pair}_varphi"] = tmp_path / f"{pair}_varphi.json"
        save_state(phi, paths[f"{pair}_phi"])
        save_state(var, paths[f"{pair}_varphi"])
    return {k: str(v) for k, v in paths.items()}


def parse_csv(text):
    lines = [ln for ln in text.strip().splitlines() if ln]
    assert lines[0] == CSV_HEADER
    rows = []
    for line in lines[1:]:
        cells = line.split(",")
        rows.append({
            "alpha_squared": float(cells[0]),
            "exact": float(cells[1]),
            "upper": float(cells[2]),
            "lower": float(cells[3]),
            "eof_exact": float(cells[4]) if cells[4] else None,
            "eof_upper": float(cells[5]) if cells[5] else None,
            "eof_lower": float(cells[6]) if cells[6] else None,
            "norm_squared": float(cells[7]),
        })
    return rows


def check_row_invariants(rows, qubit):
    for row in rows:
        target = row["exact"] * row["norm_squared"]
        assert row["lower"] - 1e-9 <= target <= row["upper"] + 1e-9
        if qubit:
            assert row["eof_lower"] - 1e-9 <= row["eof_exact"] <= row["eof_upper"] + 1e-9
        else:
            assert row["eof_exact"] is None


# --- state-info ---------------------------------------------------------


def test_state_info_bell(runner, state_files):
    result = runner.invoke(main, ["state-info", state_files["bell_plus"]])
    assert result.exit_code == 0
    fields = dict(line.split(": ") for line in result.stdout.strip().splitlines())
    assert fields["dims"] == "2 x 2"
    assert float(fields["concurrence_qubit"]) == pytest.approx(1.0, abs=1e-12)
    assert float(fields["eof"]) == pytest.approx(1.0, abs=1e-12)


def test_state_info_fig1(runner, state_files):
    result = runner.invoke(main, ["state-info", state_files["fig1_phi"]])
    assert result.exit_code == 0
    fields = dict(line.split(": ") for line in result.stdout.strip().splitlines())
    assert float(fields["concurrence_qubit"]) == pytest.approx(0.1749258, abs=1e-6)


def test_state_info_fig2_product(runner, state_files):
    result = runner.invoke(main, ["state-info", state_files["fig2_phi"]])
    assert result.exit_code == 0
    fields = dict(line.split(": ") for line in result.stdout.strip().splitlines())
    assert fields["dims"] == "10 x 10"
    assert float(fields["i_concurrence"]) == pytest.approx(0.0, abs=1e-12)
    assert "eof" not in fields


def test_state_info_rejects_unnormalized(runner, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{"dim_a": 2, "dim_b": 2, "amplitudes": '
                   '[[1, 0], [1, 0], [0, 0], [0, 0]]}')
    result = runner.invoke(main, ["state-info", str(bad)])
    assert result.exit_code == 2
    assert "not normalized" in result.stderr


def test_state_file_at_the_norm_tolerance_is_judged_alike(runner, tmp_path, state_files):
    # norm^2 a few units in the last place from 1 + NORM_TOL: state-info
    # loads the file exactly when bounds takes it
    edge = tmp_path / "edge.json"
    edge.write_text(json.dumps({"dim_a": 2, "dim_b": 2, "amplitudes": [
        [-0.26516808408408254, -0.4537040044410531], [0.2054643217656891, -0.39478634867751017],
        [0.539567547891007, 0.22075328907167172], [-0.42983866990745395, 0.0337680247525682]]}))
    info = runner.invoke(main, ["state-info", str(edge)])
    report = runner.invoke(main, ["bounds", str(edge), state_files["bell_plus"],
                                  "--alpha", "0.6", "--beta", "0.8"])
    assert info.exit_code == report.exit_code


def test_state_info_missing_file(runner, tmp_path):
    result = runner.invoke(main, ["state-info", str(tmp_path / "nope.json")])
    assert result.exit_code == 2


_MALFORMED_STATE_FILES = {
    "string_part": b'{"dim_a": 2, "dim_b": 2, "amplitudes": [["1", 0], [0, 0], [0, 0], [0, 0]]}',
    "null_part": b'{"dim_a": 2, "dim_b": 2, "amplitudes": [[1, null], [0, 0], [0, 0], [0, 0]]}',
    "bool_part": b'{"dim_a": 2, "dim_b": 2, "amplitudes": [[true, 0], [0, false], [0, 0], [0, 0]]}',
    "amplitudes_number": b'{"dim_a": 2, "dim_b": 2, "amplitudes": 5}',
    "bool_dim": b'{"dim_a": true, "dim_b": 2, "amplitudes": [[1, 0], [0, 0]]}',
    "huge_part": b'{"dim_a": 2, "dim_b": 2, "amplitudes": [[1' + b"0" * 400
                 + b', 0], [0, 0], [0, 0], [0, 0]]}',
    "non_ascii": ('{"dim_a": 2, "dim_b": 2, "amplitudes": [[1, 0], [0, 0], [0, 0], [0, 0]], '
                  '"note": "\u00e9"}').encode("latin-1"),
    "top_level_list": b"[]",
}


@pytest.mark.parametrize("command", ["state-info", "bounds", "sweep"])
@pytest.mark.parametrize("content", list(_MALFORMED_STATE_FILES.values()),
                         ids=list(_MALFORMED_STATE_FILES))
def test_malformed_state_file_is_bad_input(runner, tmp_path, command, content):
    # exit 1 means "violations found": a malformed file must exit 2, not crash
    bad = tmp_path / "bad.json"
    bad.write_bytes(content)
    args = {"state-info": ["state-info", str(bad)],
            "bounds": ["bounds", str(bad), str(bad), "--alpha", "0.6", "--beta", "0.8"],
            "sweep": ["sweep", str(bad), str(bad)]}[command]
    result = runner.invoke(main, args)
    assert result.exit_code == 2, result.output
    assert isinstance(result.exception, SystemExit)
    assert f"error: {bad}: invalid state file: " in result.stderr
    assert "Traceback" not in result.output
    assert result.stdout == ""


# --- bounds -----------------------------------------------------------------


def test_bounds_psi1_saturation(runner, state_files):
    result = runner.invoke(main, ["bounds", state_files["bell_plus"],
                                  state_files["ket01"],
                                  "--alpha", "0.8", "--beta", "0.6"])
    assert result.exit_code == 0
    doc = json.loads(result.stdout)
    assert doc["regime"] == "orthogonal"
    assert doc["upper"] == pytest.approx(0.64, abs=1e-12)
    assert doc["upper"] == pytest.approx(
        doc["norm_squared"] * doc["exact_concurrence"], abs=1e-12)
    assert doc["regime_tol"] == 1e-9


def test_bounds_biorthogonal_formula(runner, tmp_path):
    from supconc import make_state
    k00 = tmp_path / "k00.json"
    k11 = tmp_path / "k11.json"
    save_state(make_state(2, 2, [1, 0, 0, 0]), k00)
    save_state(make_state(2, 2, [0, 0, 0, 1]), k11)
    result = CliRunner().invoke(main, ["bounds", str(k00), str(k11),
                                       "--alpha", repr(S2), "--beta", repr(S2)])
    assert result.exit_code == 0
    doc = json.loads(result.stdout)
    assert doc["regime"] == "biorthogonal"
    assert doc["exact_formula_value"] == pytest.approx(1.0, abs=1e-12)


def test_bounds_fig2_override(runner, state_files):
    result = runner.invoke(main, ["bounds", state_files["fig2_phi"],
                                  state_files["fig2_varphi"],
                                  "--alpha", repr(S2), "--beta", repr(S2),
                                  "--regime-override", "orthogonal"])
    assert result.exit_code == 0
    doc = json.loads(result.stdout)
    assert doc["upper"] == pytest.approx(0.5 * math.sqrt(1.8) + 1.0, abs=1e-12)
    # the report still shows the pair is not actually orthogonal
    assert abs(complex(*doc["overlap"])) == pytest.approx(1 / math.sqrt(10), abs=1e-12)


def test_cli_keeps_no_reference_to_its_output_stream(state_files):
    # an in-process call must not keep its stdout (and all text written to
    # it) alive: click.echo caches a wrapper for each stream it writes to
    out = io.StringIO()
    stream = weakref.ref(out)
    with contextlib.redirect_stdout(out):
        main.main(args=["bounds", state_files["bell_plus"], state_files["ket01"],
                        "--alpha", "0.8", "--beta", "0.6"], standalone_mode=False)
    assert json.loads(out.getvalue())["regime"] == "orthogonal"
    del out
    gc.collect()
    assert stream() is None


def test_bounds_exit_codes(runner, state_files):
    result = runner.invoke(main, ["bounds", state_files["bell_plus"],
                                  state_files["ket01"],
                                  "--alpha", "1.0", "--beta", "1.0"])
    assert result.exit_code == 2
    result = runner.invoke(main, ["bounds", state_files["bell_plus"],
                                  state_files["ket01"],
                                  "--alpha", "zap", "--beta", "0.6"])
    assert result.exit_code == 2
    result = runner.invoke(main, ["bounds", state_files["bell_plus"],
                                  state_files["ket01"],
                                  "--alpha", "1e200", "--beta", "0"])
    assert result.exit_code == 2
    assert "inf" in result.stderr


@pytest.mark.parametrize("target, args, message, line", [
    ("verify_ensemble", ["verify", "--trials", "1", "--dims", "2", "2", "--regime", "general"],
     "Unable to allocate 3.0 GiB", "error: out of memory: Unable to allocate 3.0 GiB\n"),
    ("_sweep_rows", ["sweep", "{bell_plus}", "{ket01}"], "", "error: out of memory\n"),
    # a state file too large to load, read before any command's own work
    ("load_state", ["state-info", "{bell_plus}"], "", "error: out of memory\n"),
    ("load_state", ["bounds", "{bell_plus}", "{ket01}", "--alpha", "0.8", "--beta", "0.6"],
     "", "error: out of memory\n"),
    ("load_state", ["sweep", "{bell_plus}", "{ket01}"], "", "error: out of memory\n"),
], ids=["verify", "sweep", "state-info-load", "bounds-load", "sweep-load"])
def test_out_of_memory_exits_two(runner, state_files, monkeypatch, target, args, message,
                                 line):
    # running out of memory is not a violation found (exit 1): exit 2, one line
    def out_of_memory(*args, **kwargs):
        raise MemoryError(message)

    monkeypatch.setattr(cli, target, out_of_memory)
    result = runner.invoke(main, [arg.format(**state_files) for arg in args])
    assert result.exit_code == 2
    assert result.stderr == line
    assert result.stdout == ""


def test_unexpected_exception_exits_three_with_its_traceback(runner, monkeypatch):
    # an exception that is neither a library error nor out of memory is a
    # bug: exit 3, not 1, the violations code, with its traceback on stderr
    def broken(*args, **kwargs):
        raise RuntimeError("no campaign today")

    monkeypatch.setattr(cli, "verify_ensemble", broken)
    result = runner.invoke(main, ["verify", "--trials", "1", "--dims", "2", "2",
                                  "--regime", "general"])
    assert result.exit_code == 3
    assert result.stderr.startswith("Traceback (most recent call last):\n")
    assert "in broken\n" in result.stderr
    assert result.stderr.endswith(
        "RuntimeError: no campaign today\n"
        "error: internal error: RuntimeError('no campaign today')\n")
    assert result.stdout == ""


def test_lost_trials_exit_three(runner, monkeypatch):
    # ranges that judge fewer trials than the campaign asked for break an
    # internal invariant (InternalError): a bug, exit 3, not bad input
    run_range = ensembles._run_range
    monkeypatch.setattr(ensembles, "_run_range",
                        lambda config, start, stop: run_range(config, start, stop - 1))
    result = runner.invoke(main, ["verify", "--trials", "3", "--dims", "2", "2",
                                  "--regime", "orthogonal", "--seed", "1"])
    assert result.exit_code == 3
    assert result.stderr == "error: the ranges judged 2 of the 3 trials\n"
    assert result.stdout == ""


def test_delta_out_of_range_exits_three(runner, monkeypatch):
    # delta escaping [0, 1] cannot happen on valid input: a bug, exit 3
    def broken(*args, **kwargs):
        raise DeltaOutOfRange("delta = 1.5 > 1")

    monkeypatch.setattr(cli, "verify_ensemble", broken)
    result = runner.invoke(main, ["verify", "--trials", "1", "--dims", "2", "2",
                                  "--regime", "general"])
    assert result.exit_code == 3
    assert result.stderr == "error: delta = 1.5 > 1\n"
    assert result.stdout == ""


@pytest.mark.parametrize("command", [["bounds", "--alpha", repr(S2), "--beta", repr(S2)],
                                     ["sweep", "--steps", "5"]], ids=["bounds", "sweep"])
def test_bounds_sanity_failure_exits_three(runner, state_files, command):
    # forcing the biorthogonal closed form onto a merely orthogonal pair
    # trips the report's consistency check, in a sweep as in one report
    result = runner.invoke(main, [command[0], state_files["bell_plus"],
                                  state_files["bell_minus"], *command[1:],
                                  "--regime-override", "biorthogonal"])
    assert result.exit_code == 3


def test_bounds_loose_tol_near_orthogonal_exit_zero(runner, state_files, tmp_path):
    # overlap 1e-3 is orthogonal within --tol 1e-2; the bounds keep it
    from supconc import make_state
    amps = fixture("ket01").amplitudes + 1e-3 * fixture("bell_plus").amplitudes
    var = tmp_path / "var.json"
    save_state(make_state(2, 2, amps / np.linalg.norm(amps)), var)
    result = runner.invoke(main, ["bounds", state_files["bell_plus"], str(var),
                                  "--alpha", "0.8", "--beta", "0.6", "--tol", "1e-2"])
    assert result.exit_code == 0, result.stderr
    doc = json.loads(result.stdout)
    assert doc["regime"] == "orthogonal"
    target = doc["norm_squared"] * doc["exact_concurrence"]
    assert doc["qubit_lower"] <= target <= doc["qubit_upper"]


def test_bounds_lower_vacuous_still_exit_zero(runner, tmp_path):
    from supconc import make_state
    k00 = tmp_path / "k00.json"
    k01 = tmp_path / "k01.json"
    save_state(make_state(2, 2, [1, 0, 0, 0]), k00)
    save_state(make_state(2, 2, [0, 1, 0, 0]), k01)
    result = runner.invoke(main, ["bounds", str(k00), str(k01),
                                  "--alpha", repr(S2), "--beta", repr(S2)])
    assert result.exit_code == 0
    doc = json.loads(result.stdout)
    assert doc["regime"] == "orthogonal"
    assert doc["lower"] == 0.0
    assert doc["lower_unclamped"] < 0.0
    assert doc["lower_useful"] is False


# --- sweep ----------------------------------------------------------------


def test_sweep_fig1_rows(runner, state_files):
    result = runner.invoke(main, ["sweep", state_files["fig1_phi"],
                                  state_files["fig1_varphi"],
                                  "--regime-override", "orthogonal"])
    assert result.exit_code == 0
    rows = parse_csv(result.stdout)
    assert len(rows) == 99
    check_row_invariants(rows, qubit=True)
    mid = rows[49]
    assert mid["alpha_squared"] == pytest.approx(0.5, abs=1e-15)
    assert mid["upper"] == pytest.approx(0.6889148521374281, abs=1e-12)


def test_sweep_psi2_exact_column(runner, state_files):
    result = runner.invoke(main, ["sweep", state_files["bell_plus"],
                                  state_files["bell_minus"], "--steps", "19"])
    assert result.exit_code == 0
    rows = parse_csv(result.stdout)
    assert len(rows) == 19
    for row in rows:
        assert row["exact"] == pytest.approx(abs(2 * row["alpha_squared"] - 1),
                                             abs=1e-12)


def test_sweep_fig2_endpoint_trend(runner, state_files):
    result = runner.invoke(main, ["sweep", state_files["fig2_phi"],
                                  state_files["fig2_varphi"],
                                  "--regime-override", "orthogonal"])
    assert result.exit_code == 0
    rows = parse_csv(result.stdout)
    check_row_invariants(rows, qubit=False)
    # alpha multiplies the product component, so the pure-varphi limit is
    # the alpha^2 -> 0 end of the grid
    assert rows[0]["exact"] == pytest.approx(math.sqrt(1.8), abs=0.05)
    assert rows[-1]["exact"] < 0.3


@pytest.mark.parametrize("steps", ["0", "-4"])
def test_sweep_steps_must_be_positive(runner, state_files, steps):
    result = runner.invoke(main, ["sweep", state_files["bell_plus"],
                                  state_files["ket01"], "--steps", steps])
    assert result.exit_code == 2
    assert result.stdout == ""


def _haar_pair(dim, seed):
    rng = np.random.default_rng(seed)
    return haar_state(dim, dim, rng), haar_state(dim, dim, rng)


@pytest.mark.parametrize("pair, override, steps", [
    ("fig2", Regime.ORTHOGONAL, 199),   # 199 rows in blocks of 163, 36
    ("haar32", None, 99),               # 7 blocks of 16, the last one of 3 rows
])
def test_sweep_rows_across_blocks_match_evaluate(pair, override, steps):
    phi, var = fixture("fig2_pair") if pair == "fig2" else _haar_pair(32, 32)
    # at least two default blocks, the last one short
    (first, first_end), *_, (last, last_end) = _blocks(0, steps, phi.dim_a, phi.dim_b)
    assert last_end - last < first_end - first == bounds._block_size(phi.dim_a, phi.dim_b)
    rows = parse_csv("\n".join(_sweep_rows(phi, var, steps, override)))
    assert len(rows) == steps
    for k, row in enumerate(rows, 1):
        a_sq = k / (steps + 1)
        report = evaluate(SuperpositionSpec(math.sqrt(a_sq), math.sqrt(1.0 - a_sq), phi, var),
                          regime_override=override)
        assert row["alpha_squared"] == a_sq
        for column, value in (("exact", report.exact_concurrence), ("upper", report.upper),
                              ("lower", report.lower), ("norm_squared", report.norm_squared)):
            assert abs(row[column] - value) <= 1e-12, (k, column)


@pytest.mark.parametrize("pair, override", [
    ("haar32", None),                  # 13 blocks at the default size
    ("fig2", Regime.ORTHOGONAL),       # 2 blocks
    ("haar2", None),                   # 1 block
])
def test_sweep_rows_do_not_depend_on_the_block_size(monkeypatch, pair, override):
    # the core forms the superpositions a block at a time; one row per block
    # and the whole grid in one block must give the same bytes
    phi, var = fixture("fig2_pair") if pair == "fig2" else _haar_pair(int(pair[4:]), 32)
    lines = _sweep_rows(phi, var, 99, override)
    amplitudes = phi.dim_a * phi.dim_b
    for block_amplitudes in (amplitudes, 99 * amplitudes):
        monkeypatch.setattr(bounds, "_BLOCK_AMPLITUDES", block_amplitudes)
        assert _sweep_rows(phi, var, 99, override) == lines


# sha256 of the seeded 32x32 `sweep --steps 99` stdout and of the `figure
# fig2` CSV, recorded when the core first read the superpositions from the
# components' Gram table; every cell is checked against the formed
# superpositions by test_pinned_csvs_match_the_formed_superpositions. They pin
# the last digit of every cell, as numpy 2.4 with OpenBLAS 0.3.31 rounds it on
# x86-64; a build that rounds a BLAS product differently must record them
# again, after that check passes
_SWEEP_HAAR32_SHA256 = "e9384000eeacc913b4a8400f253d32587231e6c4e41fad82bd3e51f583070cd8"
_FIGURE_FIG2_SHA256 = "a590132ccdc65aabe6352dfef6cf854d7684425facd5c8182c7c2a1c6a722b38"


def _pinned_csvs(runner, tmp_path) -> tuple[str, str]:
    """The seeded 32x32 `sweep --steps 99` stdout and the `figure fig2` CSV."""
    paths = [str(tmp_path / f"{part}.json") for part in ("phi", "varphi")]
    for state, path in zip(_haar_pair(32, 32), paths):
        save_state(state, path)
    result = runner.invoke(main, ["sweep", *paths, "--steps", "99"])
    assert result.exit_code == 0
    out = tmp_path / "fig2.csv"
    assert runner.invoke(main, ["figure", "fig2", "--out", str(out)]).exit_code == 0
    return result.stdout, out.read_text()


def test_sweep_and_figure_csvs_are_pinned(runner, tmp_path):
    sweep, fig2 = _pinned_csvs(runner, tmp_path)
    assert hashlib.sha256(sweep.encode()).hexdigest() == _SWEEP_HAAR32_SHA256
    assert hashlib.sha256(fig2.encode()).hexdigest() == _FIGURE_FIG2_SHA256


def test_pinned_csvs_match_the_formed_superpositions(runner, tmp_path, monkeypatch):
    # the pins above are not taken on trust: with the floor of the expansion
    # route at infinity, every row forms its superposition, and every cell of
    # both CSVs agrees within 1e-13
    expanded = _pinned_csvs(runner, tmp_path)
    monkeypatch.setattr(bounds, "_EXPANSION_FLOOR", math.inf)
    formed = _pinned_csvs(runner, tmp_path)
    for got, want in zip(expanded, formed):
        got_rows, want_rows = parse_csv(got), parse_csv(want)
        assert len(got_rows) == len(want_rows) == 99
        for k, (g, w) in enumerate(zip(got_rows, want_rows)):
            for column, value in w.items():
                if value is None:
                    assert g[column] is None
                else:
                    assert abs(g[column] - value) <= 1e-13, (k, column)


def test_sweep_dim_mismatch(runner, state_files):
    result = runner.invoke(main, ["sweep", state_files["bell_plus"],
                                  state_files["fig2_phi"]])
    assert result.exit_code == 2


# --- figure -----------------------------------------------------------------


def test_figure_fig1(runner, tmp_path):
    out = tmp_path / "fig1.csv"
    result = runner.invoke(main, ["figure", "fig1", "--out", str(out)])
    assert result.exit_code == 0
    rows = parse_csv(out.read_text())
    assert len(rows) == 99
    check_row_invariants(rows, qubit=True)
    assert rows[49]["upper"] == pytest.approx(0.6889148521374281, abs=1e-12)
    assert all(row["lower"] >= 0.0 for row in rows)


def test_figure_fig2(runner, tmp_path):
    out = tmp_path / "fig2.csv"
    result = runner.invoke(main, ["figure", "fig2", "--out", str(out)])
    assert result.exit_code == 0
    rows = parse_csv(out.read_text())
    check_row_invariants(rows, qubit=False)
    assert rows[49]["upper"] == pytest.approx(0.5 * math.sqrt(1.8) + 1.0, abs=1e-12)


def test_figure_fig2_strict_uses_general_bounds(runner, tmp_path):
    out = tmp_path / "fig2s.csv"
    result = runner.invoke(main, ["figure", "fig2", "--out", str(out), "--strict"])
    assert result.exit_code == 0
    rows = parse_csv(out.read_text())
    check_row_invariants(rows, qubit=False)
    assert rows[49]["upper"] == pytest.approx(
        0.5 * math.sqrt(1.8) + math.sqrt(1.1), abs=1e-12)


def test_figure_fig1_strict_rejected(runner, tmp_path):
    result = runner.invoke(main, ["figure", "fig1",
                                  "--out", str(tmp_path / "x.csv"), "--strict"])
    assert result.exit_code == 2


def test_figure_unwritable_path(runner):
    result = runner.invoke(main, ["figure", "fig1",
                                  "--out", "/no-such-dir-anywhere/fig1.csv"])
    assert result.exit_code == 4


class _UnwritableStream(io.TextIOBase):
    """A stream whose every write raises ``error``."""

    def __init__(self, error):
        self.error = error

    def write(self, text):
        raise self.error


@pytest.mark.parametrize("error", [
    OSError(errno.ENOSPC, "No space left on device"),
    BrokenPipeError(errno.EPIPE, "Broken pipe"),
], ids=["full", "closed-pipe"])
@pytest.mark.parametrize("command", [
    ["verify", "--trials", "20", "--dims", "2", "2", "--regime", "general", "--seed", "1"],
    ["verify", "--trials", "20", "--dims", "2", "2", "--regime", "general", "--tol", "-1"],
    ["bounds", "{bell_plus}", "{ket01}", "--alpha", "0.8", "--beta", "0.6"],
    ["sweep", "{bell_plus}", "{ket01}"],
    ["state-info", "{bell_plus}"],
    ["verify", "--help"],
    ["sweep", "--help"],
    ["--help"],
], ids=["verify", "verify-violations", "bounds", "sweep", "state-info", "verify-help",
        "sweep-help", "help"])
def test_unwritable_stdout_exits_four(state_files, command, error):
    # a failed stdout write is an output I/O failure: exit 4 with one error
    # line, not 1, the violations code, and no traceback; a help page, the
    # group's or a command's, included
    stderr = io.StringIO()
    with contextlib.redirect_stdout(_UnwritableStream(error)), \
            contextlib.redirect_stderr(stderr), pytest.raises(SystemExit) as exit_info:
        main.main(args=[arg.format(**state_files) for arg in command], prog_name="supconc",
                  standalone_mode=False)
    assert exit_info.value.code == 4
    assert stderr.getvalue() == f"error: cannot write stdout: {error}\n"


def _exit_code(command):
    """The exit code of ``command`` run in this process, 0 if it returns."""
    try:
        main.main(args=command, prog_name="supconc", standalone_mode=False)
    except SystemExit as exc:
        return exc.code
    return 0


def test_unwritable_stderr_changes_no_exit_code(monkeypatch):
    # the error line, a bug's traceback, verify's wall_time line and click's
    # usage errors go to stderr; where it cannot be written, the exit code is
    # what it would be
    args = ["verify", "--trials", "20", "--dims", "2", "2", "--regime", "general"]
    with contextlib.redirect_stdout(io.StringIO()) as stdout, contextlib.redirect_stderr(
            _UnwritableStream(OSError(errno.ENOSPC, "No space left on device"))):
        assert _exit_code(args) == 0
        assert json.loads(stdout.getvalue())["trials_run"] == 20
        assert _exit_code(["verify", "--trials", "0", *args[3:]]) == 2
        # click shows a usage error, here a bad SB_SEED, in its standalone
        # mode, the console script's: exit 2, the bad input code
        with monkeypatch.context() as patch, pytest.raises(SystemExit) as exit_info:
            patch.setenv("SB_SEED", "x")
            main.main(args=args, prog_name="supconc")
        assert exit_info.value.code == 2
        with pytest.raises(SystemExit) as exit_info:
            main.main(args=["verify", "--dims", "2"], prog_name="supconc")
        assert exit_info.value.code == 2

        def broken(*args, **kwargs):
            raise RuntimeError("no campaign today")

        monkeypatch.setattr(cli, "verify_ensemble", broken)
        assert _exit_code(args) == 3


def _cli_env():
    """The environment of a ``python -m supconc.cli`` child: this package first."""
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(Path(cli.__file__).parents[1]), os.environ.get("PYTHONPATH", "")]))


_CAMPAIGN = ["verify", "--trials", "20", "--dims", "2", "2", "--regime", "general", "--seed", "42"]


@pytest.mark.parametrize("args, stdout, stderr, address_space, code", [
    # a pipe its reader closes before the command writes: the first write fails
    (["state-info", "{bell_plus}"], 0, None, None, 4),
    # a pipe its reader closes after one byte: the 5000 violations (~550 kB)
    # outgrow the pipe's buffer, where 20 would be written before it closes
    (["verify", "--trials", "5000", *_CAMPAIGN[3:], "--tol", "-1"], 1, None, None, 4),
    (_CAMPAIGN, "/dev/full", None, None, 4),
    (["--help"], "/dev/full", None, None, 4),
    # a stderr that cannot be written changes no exit code: a passing
    # campaign's wall_time line is dropped
    (_CAMPAIGN, os.devnull, "/dev/full", None, 0),
    # a 10000x10000 trial needs ~3 GiB of normals: under a 2 GB address
    # space the allocation fails at once
    (["verify", "--trials", "1", "--dims", "10000", "10000", "--regime", "general",
      "--seed", "1"], os.devnull, None, 2 * 10 ** 9, 2),
], ids=["pipe-closed", "pipe-closed-after-one-byte", "stdout-full", "help-stdout-full",
        "stderr-full", "address-space-limit"])
def test_exit_codes_hold_in_a_process_of_its_own(state_files, args, stdout, stderr,
                                                 address_space, code):
    # on real file descriptors and limits, and past Python's flush of stdout
    # on exit, whose failure would make the status 120. ``stdout`` is a file
    # or the byte count a pipe's reader reads before it closes the pipe, and
    # ``stderr`` a file or, if None, a pipe read to its end;
    # OPENBLAS_NUM_THREADS=1 keeps BLAS threads out of the address space
    def limit():
        resource.setrlimit(resource.RLIMIT_AS, (address_space, address_space))

    with contextlib.ExitStack() as files:
        out = subprocess.PIPE if isinstance(stdout, int) else files.enter_context(
            open(stdout, "wb"))
        err = subprocess.PIPE if stderr is None else files.enter_context(open(stderr, "wb"))
        proc = subprocess.Popen([sys.executable, "-m", "supconc.cli",
                                 *[arg.format(**state_files) for arg in args]],
                                stdout=out, stderr=err,
                                env=dict(_cli_env(), OPENBLAS_NUM_THREADS="1"),
                                preexec_fn=limit if address_space else None)
    watchdog = threading.Timer(60, proc.kill)   # a child that hangs ends the reads
    watchdog.start()
    try:
        if proc.stdout:
            proc.stdout.read(stdout)
            proc.stdout.close()
        if proc.stderr:
            errors = proc.stderr.read().decode()
            proc.stderr.close()
            # one error line, and no traceback
            prefix = {2: "error: out of memory: ", 4: "error: cannot write stdout: "}[code]
            assert errors.startswith(prefix) and errors.count("\n") == 1, errors
        assert proc.wait(timeout=60) == code
    finally:
        watchdog.cancel()
        proc.kill()
        proc.wait()


def test_an_interrupted_command_exits_130(monkeypatch):
    # Ctrl-C is click's Abort: exit 130 (128 + SIGINT), which a script can
    # tell from the violations code 1, with Aborted! and no traceback
    def interrupted(*args, **kwargs):
        raise KeyboardInterrupt

    monkeypatch.setattr(cli, "verify_ensemble", interrupted)
    with contextlib.redirect_stdout(io.StringIO()) as stdout, \
            contextlib.redirect_stderr(io.StringIO()) as stderr, \
            pytest.raises(SystemExit) as exit_info:
        main.main(args=["verify", "--trials", "20", "--dims", "2", "2", "--regime", "general"],
                  prog_name="supconc")
    assert exit_info.value.code == 130
    assert stdout.getvalue() == ""
    assert stderr.getvalue().split() == ["Aborted!"]


def test_sigint_stops_a_campaign_with_exit_130():
    # SIGINT in a process of its own, once the campaign runs: its import of
    # supconc has ended (-X importtime writes a line per finished import)
    proc = subprocess.Popen([sys.executable, "-X", "importtime", "-m", "supconc.cli", "verify",
                             "--trials", "1000000000", "--dims", "2", "2", "--regime", "general"],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=_cli_env())
    try:
        for line in proc.stderr:
            if line.rstrip().endswith(b"| supconc"):
                break
        time.sleep(0.5)
        proc.send_signal(signal.SIGINT)
        stdout, stderr = proc.communicate(timeout=60)
    finally:
        proc.kill()
    assert proc.returncode == 130
    assert stdout == b""
    assert [line for line in stderr.splitlines()
            if line.strip() and not line.startswith(b"import time:")] == [b"Aborted!"]


@pytest.mark.skipif(ensembles._usable_cpus() < 2, reason="a pool needs two usable CPUs")
def test_one_sigint_stops_a_pooled_campaign_and_its_processes():
    # Ctrl-C sends SIGINT to the terminal's foreground process group: here a
    # group of its own, once the --jobs 2 campaign's pool runs (the pool
    # imports multiprocessing's popen_fork, or the module of its start
    # method, when it starts its processes). One signal ends the
    # campaign with exit 130 and Aborted!, no traceback from this process or
    # the pool's, and no process of the group left
    proc = subprocess.Popen([sys.executable, "-X", "importtime", "-m", "supconc.cli", "verify",
                             "--trials", "1000000000", "--dims", "10", "10", "--regime",
                             "general", "--jobs", "2"],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=_cli_env(),
                            start_new_session=True)
    # a pool that never starts ends the wait: the group holds the pipe open
    watchdog = threading.Timer(60, os.killpg, (proc.pid, signal.SIGKILL))
    watchdog.start()
    try:
        for line in proc.stderr:
            if line.rsplit(b"|", 1)[-1].strip().startswith(b"multiprocessing.popen_"):
                break
        time.sleep(0.5)
        os.killpg(proc.pid, signal.SIGINT)
        stdout, stderr = proc.communicate(timeout=30)
        with pytest.raises(ProcessLookupError):
            os.killpg(proc.pid, 0)   # no process of the group is left
    finally:
        watchdog.cancel()
        with contextlib.suppress(ProcessLookupError):
            os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
    assert proc.returncode == 130
    assert stdout == b""
    assert [line for line in stderr.splitlines()
            if line.strip() and not line.startswith(b"import time:")] == [b"Aborted!"]


# `supconc` with every pool process killed (SIGKILL, as the OOM killer
# sends) when it starts its first range; the pool is entered at any work
_DYING_POOL = """
import multiprocessing, os, signal, sys
from supconc import cli, ensembles
multiprocessing.set_start_method("fork")   # the pool's processes run the range below
run_range, parent = ensembles._run_range, os.getpid()
def dying_range(config, start, stop):
    if os.getpid() != parent:
        os.kill(os.getpid(), signal.SIGKILL)
    return run_range(config, start, stop)
ensembles._run_range, ensembles._POOL_FLOOR = dying_range, 0
os.sched_getaffinity = lambda pid: {0, 1}   # the CPUs a pool may use
cli.main(sys.argv[1:], prog_name="supconc")
"""


@pytest.mark.skipif("fork" not in multiprocessing.get_all_start_methods(),
                    reason="the pool's processes must inherit the dying range")
def test_a_dead_pool_process_ends_a_campaign_with_exit_3():
    # the pool is broken, so the campaign raises BrokenProcessPool, a bug's
    # exit 3 with its traceback, with no summary, at once and with no process
    # of its group left: it does not wait for the dead process's ranges
    proc = subprocess.Popen([sys.executable, "-c", _DYING_POOL, "verify", "--trials", "400",
                             "--dims", "10", "10", "--regime", "general", "--jobs", "2"],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=_cli_env(),
                            start_new_session=True)
    try:
        stdout, stderr = proc.communicate(timeout=60)
        with pytest.raises(ProcessLookupError):
            os.killpg(proc.pid, 0)
    finally:
        with contextlib.suppress(ProcessLookupError):
            os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
    assert proc.returncode == 3
    assert stdout == b""
    assert b"BrokenProcessPool" in stderr
    assert stderr.splitlines()[-1].startswith(b"error: ")


def test_figure_deterministic_bytes(runner, tmp_path):
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    assert runner.invoke(main, ["figure", "fig1", "--out", str(out1)]).exit_code == 0
    assert runner.invoke(main, ["figure", "fig1", "--out", str(out2)]).exit_code == 0
    assert out1.read_bytes() == out2.read_bytes()


# --- verify ------------------------------------------------------------------


def verify_args(**over):
    args = {"trials": "300", "regime": "orthogonal", "seed": "42"}
    args.update({k: str(v) for k, v in over.items()})
    dims = over.get("dims", (2, 2))
    return ["verify", "--trials", args["trials"], "--dims", str(dims[0]),
            str(dims[1]), "--regime", args["regime"], "--seed", args["seed"]]


def test_verify_passes_and_reports(runner):
    result = runner.invoke(main, verify_args())
    assert result.exit_code == 0
    doc = json.loads(result.stdout)
    assert doc["trials_run"] == 300
    assert doc["violations"] == []
    assert doc["max_upper_slack"] <= 1e-9
    assert doc["min_lower_slack"] >= -1e-9
    assert "wall_time" not in doc
    assert "wall_time" in result.stderr


def test_verify_biorthogonal_formula_error(runner):
    result = runner.invoke(main, verify_args(trials=200, regime="biorthogonal",
                                             dims=(4, 4)))
    assert result.exit_code == 0
    doc = json.loads(result.stdout)
    assert doc["max_formula_error"] <= 1e-12


def test_verify_stdout_byte_identical(runner):
    r1 = runner.invoke(main, verify_args())
    r2 = runner.invoke(main, verify_args())
    assert r1.stdout == r2.stdout


# Campaigns whose pool share at --jobs 2 is past the work floor. 2x5 and 5x2
# take the concurrence's reduced state on either side: 12000 trials are 8
# blocks of 1638 (the last of 534), all in one chunk per range. 3000 10x10
# trials are 19 blocks of 163 and chunks of 8, 8 and 3 blocks at --jobs 1; at
# --jobs 2 this process's 10 blocks are chunks of 8 and 2, the pool's ranges
# 3, 3 and 3 blocks, and --tol -1 makes every trial a violation, digested in
# its chunk. 400 32x32 trials are 25 blocks of 16: chunks of 8, 8, 8 and 1
# blocks at --jobs 1, and at --jobs 2 a 13-block range here (8 and 5) and
# pool ranges of 3, 3, 3 and 3. A range draws and evaluates every block in
# one set of buffers, and the chunks and ranges differ between the two runs,
# so a block follows another block at one --jobs and not at the other: a
# block that read what the previous one left changes a digest
_POOLED_CAMPAIGNS = [
    "--trials 12000 --dims 2 5 --regime biorthogonal",
    "--trials 12000 --dims 2 5 --regime general",
    "--trials 12000 --dims 5 2 --regime biorthogonal",
    "--trials 12000 --dims 5 2 --regime general",
    "--trials 3000 --dims 10 10 --regime biorthogonal --tol -1",
    "--trials 400 --dims 32 32 --regime orthogonal --tol -1",
    "--trials 400 --dims 32 32 --regime biorthogonal --tol -1",
]


@pytest.mark.skipif(ensembles._usable_cpus() < 2, reason="a pool needs two usable CPUs")
@pytest.mark.parametrize("campaign", _POOLED_CAMPAIGNS, ids=[
    "12000-2x5-biorthogonal", "12000-2x5-general", "12000-5x2-biorthogonal",
    "12000-5x2-general", "3000-10x10-biorthogonal-tol-1", "400-32x32-orthogonal-tol-1",
    "400-32x32-biorthogonal-tol-1"])
def test_verify_jobs_do_not_change_stdout(runner, monkeypatch, campaign):
    # at the default block and chunk sizes: a pool process started by
    # forkserver or spawn would not see a patched one. Each run ends in a
    # summary, passed or with violations, and the two runs in the same one
    args = ["verify", *campaign.split(), "--seed", "20240901"]
    serial = runner.invoke(main, [*args, "--jobs", "1"])
    pool = mock.Mock(wraps=ensembles.ProcessPoolExecutor)
    monkeypatch.setattr(ensembles, "ProcessPoolExecutor", pool)
    parallel = runner.invoke(main, [*args, "--jobs", "2"])
    assert pool.call_count == 1
    assert serial.exit_code <= 1, serial.output
    assert parallel.exit_code == serial.exit_code
    assert parallel.stdout_bytes == serial.stdout_bytes


@pytest.mark.parametrize("jobs", ["0", "-3"])
def test_verify_jobs_must_be_positive(runner, jobs):
    result = runner.invoke(main, verify_args(trials=20) + ["--jobs", jobs])
    assert result.exit_code == 2
    assert result.stdout == ""


def test_verify_seed_env_default(runner):
    explicit = runner.invoke(main, verify_args(trials=100, seed=5))
    via_env = runner.invoke(
        main, ["verify", "--trials", "100", "--dims", "2", "2",
               "--regime", "orthogonal"], env={"SB_SEED": "5"})
    assert explicit.stdout == via_env.stdout


def test_verify_seed_flag_wins_over_env(runner):
    explicit = runner.invoke(main, verify_args(trials=100, seed=7))
    both = runner.invoke(main, verify_args(trials=100, seed=7), env={"SB_SEED": "3"})
    assert explicit.exit_code == both.exit_code == 0
    assert both.stdout == explicit.stdout
    assert both.stdout != runner.invoke(main, verify_args(trials=100, seed=3)).stdout


def test_verify_help_exits_zero_and_names_the_seed_env_var(runner):
    # click's exit after printing help passes through the group's handler
    result = runner.invoke(main, ["verify", "--help"])
    assert result.exit_code == 0
    assert "[env var: SB_SEED; default: 0]" in " ".join(result.stdout.split())


def test_verify_seed_env_must_be_an_integer(runner):
    result = runner.invoke(main, ["verify", "--trials", "10", "--dims", "2", "2",
                                  "--regime", "orthogonal"], env={"SB_SEED": "x"})
    assert result.exit_code == 2
    assert "SB_SEED" in result.stderr and "'x' is not a valid integer" in result.stderr
    assert result.stdout == ""


def test_verify_violations_out(runner, tmp_path):
    out = tmp_path / "violations.jsonl"
    result = runner.invoke(main, verify_args(trials=100)
                           + ["--violations-out", str(out)])
    assert result.exit_code == 0
    assert out.read_text() == ""


def test_verify_violations_out_unwritable_exits_four(runner, tmp_path):
    # a violations file in a missing directory cannot be written: exit 4, an
    # output I/O failure, with one error line and before the summary
    out = tmp_path / "missing" / "violations.jsonl"
    result = runner.invoke(main, verify_args(trials=20) + ["--violations-out", str(out)])
    assert result.exit_code == 4
    assert result.stderr.startswith(f"error: cannot write {out}: ")
    assert result.stderr.count("\n") == 1
    assert result.stdout == ""


def test_verify_negative_tol_forces_violations(runner, tmp_path):
    # margins are compared against tol, so a negative tol flags every trial;
    # exercises the exit-1 path and the JSONL emission
    out = tmp_path / "violations.jsonl"
    result = runner.invoke(main, verify_args(trials=20)
                           + ["--tol", "-1", "--violations-out", str(out)])
    assert result.exit_code == 1
    doc = json.loads(result.stdout)
    assert len(doc["violations"]) == 20
    lines = out.read_text().strip().splitlines()
    assert len(lines) == 20
    first = json.loads(lines[0])
    assert first["trial_index"] == 0 and first["seed"] == 42


@pytest.mark.parametrize("command", ["verify", "bounds"])
@pytest.mark.parametrize("tol", ["nan", "inf"])
def test_non_finite_tol_is_bad_input(runner, state_files, command, tol):
    # a comparison with a NaN tolerance is always false: it would pass every
    # campaign and label every pair general
    if command == "verify":
        args = verify_args(trials=20, regime="general")
    else:
        args = ["bounds", state_files["bell_plus"], state_files["ket01"],
                "--alpha", "0.6", "--beta", "0.8"]
    result = runner.invoke(main, args + ["--tol", tol])
    assert result.exit_code == 2
    assert "error: " in result.stderr and "tolerance must be finite" in result.stderr


@pytest.mark.parametrize("tol, code", [("5", 2), ("-1", 2), ("nan", 2), ("0", 0), ("0.5", 0)])
def test_bounds_regime_tol_range(runner, state_files, tol, code):
    # trace overlaps and |<phi|varphi>| lie in [0, 1]: only 0 <= tol < 1 classifies
    result = runner.invoke(main, ["bounds", state_files["bell_plus"], state_files["ket01"],
                                  "--alpha", "0.6", "--beta", "0.8", "--tol", tol])
    assert result.exit_code == code, result.output
    assert "Traceback" not in result.output
    if code:
        assert "error: " in result.stderr and "[0, 1)" in result.stderr
    else:
        assert json.loads(result.stdout)["regime"] == "orthogonal"


def test_verify_flag_errors(runner):
    result = runner.invoke(main, ["verify", "--trials", "10", "--dims", "1", "2",
                                  "--regime", "general", "--seed", "0"])
    assert result.exit_code == 2
    result = runner.invoke(main, ["verify", "--trials", "10", "--dims", "2", "2",
                                  "--regime", "sideways", "--seed", "0"])
    assert result.exit_code == 2


@pytest.mark.parametrize("trials", [0, 2**64])
def test_verify_trial_count_out_of_range_is_bad_input(runner, trials):
    # trial indices are seeded below 2**64; the config rejects more, and
    # none, before any allocation
    result = runner.invoke(main, verify_args(trials=trials))
    assert result.exit_code == 2
    assert "error: trials must be >= 1 and below 2**64" in result.stderr


def _break_one_row(bad_call, bad_row, **values):
    """A wrapper on ``bounds._evaluate_rows`` that sets ``values`` (fields of
    the batch) in row ``bad_row`` of the ``bad_call``-th call."""
    evaluate_rows = bounds._evaluate_rows
    calls = []

    def one_row_broken(*args, **kwargs):
        batch = evaluate_rows(*args, **kwargs)
        calls.append(len(batch.upper_slack))
        if len(calls) != bad_call:
            return batch
        columns = {name: getattr(batch, name).copy() for name in values}
        for name, value in values.items():
            columns[name][bad_row] = value
        return dataclasses.replace(batch, **columns)

    return one_row_broken


# a bad value in one row of a campaign's one range (--jobs 1): the row its
# bound stage must name, as a trial of the campaign
_BAD_ROWS = pytest.mark.parametrize("dims,bad_call,bad_row,trial", [
    ((2, 2), 1, 3, 3),     # only trial 3 of a range that is one 5-trial block
    ((32, 32), 1, 4, 4),   # first trial of the range's second block: a 32x32 block holds 4
])


@_BAD_ROWS
def test_verify_sanity_failure_exits_three(runner, monkeypatch, dims, bad_call, bad_row,
                                           trial):
    # a NaN concurrence is a bug: exit 3, no summary, and the error names the
    # trial and the digest a violation record gives for it
    args = verify_args(trials=5, dims=dims) + ["--jobs", "1"]
    records = json.loads(runner.invoke(main, args + ["--tol", "-1"]).stdout)
    monkeypatch.setattr(bounds, "_evaluate_rows",
                        _break_one_row(bad_call, bad_row, exact_concurrence=math.nan))
    result = runner.invoke(main, args)
    assert result.exit_code == 3
    assert "error: report escapes its claims: concurrence nan" in result.stderr
    assert f"trial {trial}," in result.stderr
    assert "seed 42" in result.stderr
    assert f"digest {records['violations'][trial]['digest']}" in result.stderr
    assert result.stdout == ""


@_BAD_ROWS
def test_verify_sanity_failure_names_first_bad_trial_of_block(runner, monkeypatch, tmp_path,
                                                              dims, bad_call, bad_row, trial):
    # a bound escape is what a campaign looks for: it is judged at --tol and
    # recorded as a violation of its trial, and the summary is printed
    args = verify_args(trials=5, dims=dims) + ["--jobs", "1"]
    records = json.loads(runner.invoke(main, args + ["--tol", "-1"]).stdout)
    expected = dict(records["violations"][trial], margin=1.0)
    out = tmp_path / "violations.jsonl"
    monkeypatch.setattr(bounds, "_evaluate_rows",
                        _break_one_row(bad_call, bad_row, upper_slack=1.0))
    result = runner.invoke(main, args + ["--violations-out", str(out)])
    assert result.exit_code == 1, result.output
    doc = json.loads(result.stdout)
    assert doc["violations"] == [expected]
    assert doc["trials_run"] == 5 and doc["max_upper_slack"] == 1.0
    assert [json.loads(line) for line in out.read_text().splitlines()] == [expected]


@settings(derandomize=True, deadline=None, max_examples=40)
@given(escape=st.floats(1e-12, 1.0), tol=st.floats(0.0, 1e-3), row=st.integers(0, 4))
def test_verify_judges_escapes_at_tol(escape, tol, row):
    # the campaign's one judge is --tol: every escape past it is a violation,
    # every other one only shows in the summary's slacks
    args = verify_args(trials=5, regime="general") + ["--jobs", "1", "--tol", repr(tol)]
    with mock.patch.object(bounds, "_evaluate_rows",
                           _break_one_row(1, row, upper_slack=escape)):
        result = CliRunner().invoke(main, args)
    doc = json.loads(result.stdout)
    assert doc["max_upper_slack"] == escape
    violated = [v["trial_index"] for v in doc["violations"]]
    assert (result.exit_code, violated) == ((1, [row]) if escape > tol else (0, []))
