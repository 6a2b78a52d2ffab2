"""Acceptance suite: one test per release criterion, each at its stated
tolerance, printing one PASS/FAIL line (visible under ``pytest -s`` or in
the captured output of a failing run)."""

import json
import math
import time

import numpy as np
from click.testing import CliRunner

from supconc import (
    OperatorAB,
    Regime,
    SuperpositionSpec,
    apply_local_unitary,
    biorthogonal_pair,
    concurrence_qubit,
    concurrence_sq_via_lambda,
    eof_from_concurrence,
    evaluate,
    fixture,
    haar_state,
    haar_unitary,
    i_concurrence,
    lambda_map,
    normalize,
    orthogonal_pair,
    superpose,
)
from supconc.cli import main

S2 = math.sqrt(0.5)


def _criterion(name: str, checks: list[tuple[str, bool]]):
    ok = all(flag for _, flag in checks)
    print(f"[{'PASS' if ok else 'FAIL'}] {name}")
    failed = [label for label, flag in checks if not flag]
    assert ok, f"{name}: failed checks {failed}"


def test_criterion_1_measure_consistency():
    rng = np.random.default_rng(1001)
    start = time.perf_counter()
    worst_qubit = worst_lambda = 0.0
    for _ in range(10_000):
        s = haar_state(2, 2, rng)
        ic = i_concurrence(s)
        worst_qubit = max(worst_qubit, abs(concurrence_qubit(s) - ic))
        worst_lambda = max(worst_lambda, abs(ic * ic - concurrence_sq_via_lambda(s)))
    elapsed = time.perf_counter() - start
    _criterion(
        "criterion 1: qubit/I-concurrence and inverter-route consistency "
        f"(worst {worst_qubit:.2e} / {worst_lambda:.2e}, {elapsed:.1f}s)",
        [
            ("|concurrence_qubit - i_concurrence| <= 1e-12", worst_qubit <= 1e-12),
            ("|i_concurrence^2 - via_lambda| <= 1e-10", worst_lambda <= 1e-10),
            ("runtime <= 10 s", elapsed <= 10.0),
        ],
    )


def test_criterion_2_lambda_identities():
    rng = np.random.default_rng(1002)
    worst_trace = worst_sym = 0.0
    for d in (2, 3, 5):
        n = d * d
        for _ in range(1000):
            z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            sigma = OperatorAB(d, d, z)
            out = lambda_map(sigma)
            worst_trace = max(worst_trace, abs(
                np.trace(out.entries) - (d - 1) ** 2 * np.trace(z)))
            w = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            rho = OperatorAB(d, d, (w + w.conj().T) / 2)
            herm = OperatorAB(d, d, (z + z.conj().T) / 2)
            lhs = np.trace(rho.entries @ lambda_map(herm).entries)
            rhs = np.trace(herm.entries @ lambda_map(rho).entries)
            worst_sym = max(worst_sym, abs(lhs - rhs))
    _criterion(
        f"criterion 2: inverter-map trace scaling and symmetry "
        f"(worst {worst_trace:.2e} / {worst_sym:.2e})",
        [
            ("trace scaling within 1e-10", worst_trace <= 1e-10),
            ("symmetry within 1e-10", worst_sym <= 1e-10),
        ],
    )


def test_criterion_3_biorthogonal_exactness():
    rng = np.random.default_rng(1003)
    worst = 0.0
    for _ in range(1000):
        da = int(rng.integers(2, 7))
        db = int(rng.integers(2, 7))
        phi, var = biorthogonal_pair(da, db, int(rng.integers(1, da)),
                                     int(rng.integers(1, db)), rng)
        a_sq = rng.uniform(0.02, 0.98)
        alpha = math.sqrt(a_sq) * complex(math.cos(t := rng.uniform(0, 2 * math.pi)),
                                          math.sin(t))
        beta = math.sqrt(1 - a_sq) * complex(math.cos(t := rng.uniform(0, 2 * math.pi)),
                                             math.sin(t))
        spec = SuperpositionSpec(alpha, beta, phi, var)
        psi, _ = normalize(superpose(spec)[0])
        worst = max(worst, abs(evaluate(spec).exact_formula_value - i_concurrence(psi)))
    _criterion(
        f"criterion 3: biorthogonal closed form exact (worst {worst:.2e})",
        [("|closed form - direct| <= 1e-12", worst <= 1e-12)],
    )


def test_criterion_4_saturating_families():
    bp, bm, k01 = fixture("bell_plus"), fixture("bell_minus"), fixture("ket01")
    worst_upper = worst_lower = 0.0
    for k in range(1, 100):
        a_sq = k / 100.0
        alpha, beta = math.sqrt(a_sq), math.sqrt(1 - a_sq)
        r1 = evaluate(SuperpositionSpec(alpha, beta, bp, k01))
        worst_upper = max(worst_upper, abs(
            r1.upper - r1.norm_squared * r1.exact_concurrence))
        r2 = evaluate(SuperpositionSpec(alpha, beta, bp, bm))
        worst_lower = max(worst_lower, abs(
            r2.lower - r2.norm_squared * r2.exact_concurrence))
    _criterion(
        f"criterion 4: upper/lower bounds exactly saturated "
        f"(worst {worst_upper:.2e} / {worst_lower:.2e})",
        [
            ("upper saturation within 1e-12", worst_upper <= 1e-12),
            ("lower saturation within 1e-12", worst_lower <= 1e-12),
        ],
    )


def test_criterion_5_sandwich_campaigns():
    campaigns = [
        ((2, 2), "orthogonal"),
        ((2, 2), "general"),
        ((3, 3), "orthogonal"),
        ((10, 10), "orthogonal"),
        ((3, 3), "general"),
        ((10, 10), "general"),
    ]
    runner = CliRunner()
    checks = []
    start = time.perf_counter()
    for dims, regime in campaigns:
        result = runner.invoke(main, [
            "verify", "--trials", "10000", "--dims", str(dims[0]), str(dims[1]),
            "--regime", regime, "--seed", "20240901", "--tol", "1e-9",
        ])
        doc = json.loads(result.stdout) if result.exit_code in (0, 1) else {}
        checks.append((f"{dims} {regime}: exit 0, zero violations",
                       result.exit_code == 0 and doc.get("violations") == []))
    elapsed = time.perf_counter() - start
    checks.append(("total runtime <= 120 s", elapsed <= 120.0))
    _criterion(
        f"criterion 5: six 10^4-trial verification campaigns clean ({elapsed:.0f}s)",
        checks,
    )


def _qubit_c_oracle(amps) -> float:
    a = np.asarray(amps, dtype=complex)
    return 2 * abs(a[0] * a[3] - a[1] * a[2])


def test_criterion_6_fig1_reproduction(tmp_path):
    out = tmp_path / "fig1.csv"
    result = CliRunner().invoke(main, ["figure", "fig1", "--out", str(out)])
    rows = [line.split(",") for line in out.read_text().strip().splitlines()[1:]]
    eof_ordered = all(
        float(r[6]) - 1e-9 <= float(r[4]) <= float(r[5]) + 1e-9 for r in rows)

    phi, var = fixture("fig1_pair")
    endpoint_errs = []
    for weights, component in (((1.0, 0.0), phi), ((0.0, 1.0), var)):
        rep = evaluate(SuperpositionSpec(*weights, phi, var),
                       regime_override=Regime.ORTHOGONAL)
        endpoint_errs.append(abs(
            eof_from_concurrence(min(1.0, rep.exact_concurrence))
            - eof_from_concurrence(min(1.0, concurrence_qubit(component)))))

    # midpoint oracle from the raw three-decimal amplitudes,
    # renormalized exactly as the fixture is
    raw_phi = np.array([-0.264, 0.528, 0.487, -0.643], dtype=complex)
    raw_var = np.array([-0.034, 0.675, -0.734, 0.010], dtype=complex)
    c_phi = _qubit_c_oracle(raw_phi / np.linalg.norm(raw_phi))
    c_var = _qubit_c_oracle(raw_var / np.linalg.norm(raw_var))
    delta = max(c_phi, c_var)
    oracle_mid = 0.5 * c_phi + 0.5 * c_var + math.sqrt(max(0.0, 1 - delta * delta))
    got_mid = float(rows[49][2])
    # treating the raw amplitudes as exactly normalized instead gives
    # 0.72200 for this point; renormalization shifts sqrt(1 - delta^2)
    # by ~0.03 because delta is so close to 1
    c_phi_raw, c_var_raw = _qubit_c_oracle(raw_phi), _qubit_c_oracle(raw_var)
    delta_raw = max(c_phi_raw, c_var_raw)
    anchor = (0.5 * c_phi_raw + 0.5 * c_var_raw
              + math.sqrt(max(0.0, 1 - delta_raw * delta_raw)))

    _criterion(
        f"criterion 6: fig1 sweep reproduced (mid upper {got_mid:.5f}, "
        f"oracle {oracle_mid:.5f})",
        [
            ("figure command succeeded", result.exit_code == 0 and len(rows) == 99),
            ("pointwise eof_lower <= eof_exact <= eof_upper", eof_ordered),
            ("endpoint EoFs match component EoFs within 1e-6",
             max(endpoint_errs) <= 1e-6),
            ("midpoint upper matches renormalized-amplitude oracle within 5e-3",
             abs(got_mid - oracle_mid) <= 5e-3),
            ("raw-as-normalized arithmetic reproduces the 0.72200 anchor",
             abs(anchor - 0.72200) <= 5e-3),
        ],
    )


def test_criterion_7_fig2_reproduction(tmp_path):
    out = tmp_path / "fig2.csv"
    result = CliRunner().invoke(main, ["figure", "fig2", "--out", str(out)])
    rows = [line.split(",") for line in out.read_text().strip().splitlines()[1:]]
    bracket = all(
        float(r[3]) - 1e-9 <= float(r[1]) * float(r[7]) <= float(r[2]) + 1e-9
        for r in rows)
    phi2, var2 = fixture("fig2_pair")
    endpoint = evaluate(SuperpositionSpec(0.0, 1.0, phi2, var2),
                        regime_override=Regime.ORTHOGONAL)
    endpoint_err = abs(endpoint.exact_concurrence - math.sqrt(1.8))
    mid_err = abs(float(rows[49][2]) - (0.5 * math.sqrt(1.8) + 1.0))
    _criterion(
        f"criterion 7: fig2 sweep reproduced (endpoint err {endpoint_err:.2e}, "
        f"mid err {mid_err:.2e})",
        [
            ("figure command succeeded", result.exit_code == 0 and len(rows) == 99),
            ("bounds bracket the exact curve pointwise", bracket),
            ("pure-varphi endpoint equals sqrt(1.8) within 1e-12",
             endpoint_err <= 1e-12),
            ("midpoint upper equals 0.5*sqrt(1.8) + 1 within 1e-12",
             mid_err <= 1e-12),
        ],
    )


def test_criterion_8_usefulness_condition():
    rng = np.random.default_rng(1008)
    agree = True
    for _ in range(1000):
        da = int(rng.integers(2, 7))
        db = int(rng.integers(2, 7))
        phi, var = orthogonal_pair(da, db, rng)
        a_sq = rng.uniform(0.02, 0.98)
        spec = SuperpositionSpec(math.sqrt(a_sq), math.sqrt(1 - a_sq), phi, var)
        report = evaluate(spec)
        agree = agree and (report.lower_useful is (report.qudit_lower_unclamped > 0))
    _criterion(
        "criterion 8: usefulness condition iff unclamped lower bound positive",
        [("exact boolean agreement over 1000 orthogonal specs", agree)],
    )


def test_criterion_9_local_unitary_invariance():
    rng = np.random.default_rng(1009)
    worst = 0.0
    for _ in range(1000):
        da = int(rng.integers(2, 7))
        db = int(rng.integers(2, 7))
        s = haar_state(da, db, rng)
        rotated = apply_local_unitary(s, haar_unitary(da, rng), haar_unitary(db, rng))
        worst = max(worst, abs(i_concurrence(rotated) - i_concurrence(s)))
    _criterion(
        f"criterion 9: concurrence invariant under local unitaries "
        f"(worst drift {worst:.2e})",
        [("drift <= 1e-10 over 1000 triples", worst <= 1e-10)],
    )
