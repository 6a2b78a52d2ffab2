import contextlib
import gc
import io
import json
import math
import weakref

import numpy as np
import pytest
from click.testing import CliRunner

from supconc import Regime, SuperpositionSpec, evaluate, fixture, haar_state, save_state
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


def test_state_info_missing_file(runner, tmp_path):
    result = runner.invoke(main, ["state-info", str(tmp_path / "nope.json")])
    assert result.exit_code == 2


_MALFORMED_STATE_FILES = {
    "string_part": b'{"dim_a": 2, "dim_b": 2, "amplitudes": [["1", 0], [0, 0], [0, 0], [0, 0]]}',
    "null_part": b'{"dim_a": 2, "dim_b": 2, "amplitudes": [[1, null], [0, 0], [0, 0], [0, 0]]}',
    "amplitudes_number": b'{"dim_a": 2, "dim_b": 2, "amplitudes": 5}',
    "bool_dim": b'{"dim_a": true, "dim_b": 2, "amplitudes": [[1, 0], [0, 0]]}',
    "huge_part": b'{"dim_a": 2, "dim_b": 2, "amplitudes": [[1' + b"0" * 400
                 + b', 0], [0, 0], [0, 0], [0, 0]]}',
    "non_ascii": ('{"dim_a": 2, "dim_b": 2, "amplitudes": [[1, 0], [0, 0], [0, 0], [0, 0]], '
                  '"note": "\u00e9"}').encode("latin-1"),
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


def test_bounds_sanity_failure_exits_three(runner, state_files):
    # forcing the biorthogonal closed form onto a merely orthogonal pair
    # trips the report's consistency check
    result = runner.invoke(main, ["bounds", state_files["bell_plus"],
                                  state_files["bell_minus"],
                                  "--alpha", repr(S2), "--beta", repr(S2),
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


@pytest.mark.parametrize("pair, override, block", [
    ("fig2", Regime.ORTHOGONAL, 40),   # 99 rows in blocks of 40, 40, 19
    ("haar32", None, 4),               # 25 blocks, the last one of 3 rows
])
def test_sweep_rows_across_blocks_match_evaluate(pair, override, block):
    if pair == "fig2":
        phi, var = fixture("fig2_pair")
    else:
        rng = np.random.default_rng(32)
        phi, var = haar_state(32, 32, rng), haar_state(32, 32, rng)
    assert next(_blocks(0, 99, phi.dim_a, phi.dim_b)) == (0, block)
    rows = parse_csv("\n".join(_sweep_rows(phi, var, 99, override)))
    assert len(rows) == 99
    for k, row in enumerate(rows, 1):
        a_sq = k / 100
        report = evaluate(SuperpositionSpec(math.sqrt(a_sq), math.sqrt(1.0 - a_sq), phi, var),
                          regime_override=override)
        assert row["alpha_squared"] == a_sq
        for column, value in (("exact", report.exact_concurrence), ("upper", report.upper),
                              ("lower", report.lower), ("norm_squared", report.norm_squared)):
            assert abs(row[column] - value) <= 1e-12, (k, column)


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


def test_verify_jobs_do_not_change_stdout(runner):
    r1 = runner.invoke(main, verify_args(trials=100))
    r2 = runner.invoke(main, verify_args(trials=100) + ["--jobs", "2"])
    assert r1.stdout == r2.stdout


def test_verify_seed_env_default(runner):
    explicit = runner.invoke(main, verify_args(trials=100, seed=5))
    via_env = runner.invoke(
        main, ["verify", "--trials", "100", "--dims", "2", "2",
               "--regime", "orthogonal"], env={"SB_SEED": "5"})
    assert explicit.stdout == via_env.stdout


def test_verify_violations_out(runner, tmp_path):
    out = tmp_path / "violations.jsonl"
    result = runner.invoke(main, verify_args(trials=100)
                           + ["--violations-out", str(out)])
    assert result.exit_code == 0
    assert out.read_text() == ""


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


def test_verify_sanity_failure_exits_three(runner, monkeypatch):
    import supconc.ensembles
    from supconc import SanityFailure

    def broken(alpha, beta, phi, varphi):
        raise SanityFailure("report inconsistent", row=0)

    monkeypatch.setattr(supconc.ensembles, "evaluate_batch", broken)
    result = runner.invoke(main, verify_args(trials=5) + ["--jobs", "1"])
    assert result.exit_code == 3
    assert "error: report inconsistent" in result.stderr
    assert "trial 0" in result.stderr
    assert "seed 42" in result.stderr


@pytest.mark.parametrize("dims,bad_block,bad_row,trial", [
    ((2, 2), 1, 3, 3),     # only trial 3 of one 5-trial block
    ((32, 32), 2, 0, 4),   # first row of the second block: a 32x32 block holds 4 trials
])
def test_verify_sanity_failure_names_first_bad_trial_of_block(runner, monkeypatch, dims,
                                                              bad_block, bad_row, trial):
    # one row escapes; the real check must find it, and the error must name
    # its trial and the digest a violation record gives for that trial
    import supconc.ensembles
    from supconc import bounds

    evaluate_batch = bounds.evaluate_batch
    blocks = []

    def one_row_escapes(alpha, beta, phi, varphi):
        batch = evaluate_batch(alpha, beta, phi, varphi)
        blocks.append(len(alpha))
        upper = batch.upper_slack.copy()
        if len(blocks) == bad_block:
            upper[bad_row] = 1.0
        bounds._check_claims(min(dims), batch.exact_concurrence, upper,
                             batch.lower_slack, 0.0)
        return batch

    args = verify_args(trials=5, dims=dims)
    records = json.loads(runner.invoke(main, args + ["--tol", "-1"]).stdout)
    monkeypatch.setattr(supconc.ensembles, "evaluate_batch", one_row_escapes)
    result = runner.invoke(main, args + ["--jobs", "1"])
    assert result.exit_code == 3
    assert "error: report escapes its claims" in result.stderr
    assert f"trial {trial}," in result.stderr
    assert "seed 42" in result.stderr
    assert f"digest {records['violations'][trial]['digest']}" in result.stderr
