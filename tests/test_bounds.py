import cmath
import json
import math
from dataclasses import fields

import numpy as np
import pytest

from supconc import (
    BoundReport,
    DegenerateWeight,
    DimensionMismatch,
    NotTwoQubit,
    Regime,
    RegimeViolation,
    SanityFailure,
    SuperpositionSpec,
    biorthogonal_pair,
    classify_pair,
    concurrence_qubit,
    evaluate,
    exact_biorthogonal,
    fixture,
    haar_state,
    i_concurrence,
    inner_product,
    lower_bound_useful,
    make_state,
    normalize,
    orthogonal_pair,
    qubit_general_bounds,
    qubit_lower_orth,
    qubit_upper_orth,
    qudit_general_bounds,
    qudit_lower_orth,
    qudit_upper_orth,
    superpose,
)
from supconc.bounds import REGIME_TOL, SANITY_TOL

S2 = math.sqrt(0.5)


def ket(da, db, index):
    v = np.zeros(da * db)
    v[index] = 1.0
    return make_state(da, db, v)


def max_entangled(d):
    v = np.zeros(d * d, dtype=complex)
    v[np.arange(d) * d + np.arange(d)] = 1.0 / math.sqrt(d)
    return make_state(d, d, v)


def exact_target(spec):
    """norm^2 * C(Psi') computed straight from the definitions."""
    raw, norm_sq = superpose(spec)
    psi, _ = normalize(raw)
    return norm_sq * i_concurrence(psi)


def random_weights(rng, real=False):
    a_sq = rng.uniform(0.05, 0.95)
    if real:
        return math.sqrt(a_sq), math.sqrt(1 - a_sq)
    return (math.sqrt(a_sq) * cmath.exp(1j * rng.uniform(0, 2 * math.pi)),
            math.sqrt(1 - a_sq) * cmath.exp(1j * rng.uniform(0, 2 * math.pi)))


# --- classification ---------------------------------------------------------


def test_classify_biorthogonal():
    assert classify_pair(ket(2, 2, 0), ket(2, 2, 3)) is Regime.BIORTHOGONAL


def test_classify_bell_pair_orthogonal_not_biorthogonal():
    bp, bm = fixture("bell_plus"), fixture("bell_minus")
    # reduced states are both I/2, so the trace overlap is 1/2 per side
    from supconc import reduced_density
    tr = np.trace(reduced_density(bp, "A").entries
                  @ reduced_density(bm, "A").entries).real
    assert tr == pytest.approx(0.5, abs=1e-14)
    assert classify_pair(bp, bm) is Regime.ORTHOGONAL


def test_classify_fig2_general():
    phi2, var2 = fixture("fig2_pair")
    assert classify_pair(phi2, var2) is Regime.GENERAL


def test_classify_dim_mismatch():
    with pytest.raises(DimensionMismatch):
        classify_pair(ket(2, 2, 0), ket(2, 3, 0))


def test_classify_nesting_on_generated_pairs():
    rng = np.random.default_rng(8)
    for _ in range(20):
        phi, var = biorthogonal_pair(3, 4, 1, 2, rng)
        assert classify_pair(phi, var, tol=1e-10) is Regime.BIORTHOGONAL
        phi, var = orthogonal_pair(3, 4, rng)
        assert classify_pair(phi, var, tol=1e-10) is Regime.ORTHOGONAL


# --- qubit orthogonal bounds -------------------------------------------------


def test_qubit_upper_saturated_by_psi1_family():
    bp, k01 = fixture("bell_plus"), fixture("ket01")
    for a_sq in np.linspace(0.01, 0.99, 99):
        spec = SuperpositionSpec(math.sqrt(a_sq), math.sqrt(1 - a_sq), bp, k01)
        assert qubit_upper_orth(spec) == pytest.approx(exact_target(spec), abs=1e-12)
        assert qubit_upper_orth(spec) == pytest.approx(a_sq, abs=1e-12)


def test_qubit_upper_product_components():
    spec = SuperpositionSpec(S2, S2, ket(2, 2, 0), ket(2, 2, 1))
    assert qubit_upper_orth(spec) == pytest.approx(1.0, abs=1e-12)
    assert exact_target(spec) == pytest.approx(0.0, abs=1e-12)


def test_qubit_upper_fig1_midpoint():
    phi, var = fixture("fig1_pair")
    spec = SuperpositionSpec(S2, S2, phi, var)
    # the fixture pair is only nearly orthogonal, so the orthogonal-regime
    # formula needs an explicit regime
    value = qubit_upper_orth(spec, regime=Regime.ORTHOGONAL)
    assert value == pytest.approx(0.6889148521374281, abs=1e-12)


def test_qubit_lower_saturated_by_psi2_family():
    bp, bm = fixture("bell_plus"), fixture("bell_minus")
    for a_sq in np.linspace(0.01, 0.99, 99):
        spec = SuperpositionSpec(math.sqrt(a_sq), math.sqrt(1 - a_sq), bp, bm)
        assert qubit_lower_orth(spec) == pytest.approx(exact_target(spec), abs=1e-12)
        assert qubit_lower_orth(spec) == pytest.approx(abs(2 * a_sq - 1), abs=1e-12)


def test_qubit_lower_symmetric_cancellation():
    bp, bm = fixture("bell_plus"), fixture("bell_minus")
    spec = SuperpositionSpec(S2, S2, bp, bm)
    assert qubit_lower_orth(spec) == 0.0


def test_qubit_lower_fig1_midpoint():
    phi, var = fixture("fig1_pair")
    spec = SuperpositionSpec(S2, S2, phi, var)
    value = qubit_lower_orth(spec, regime=Regime.ORTHOGONAL)
    assert value == pytest.approx(0.30564440992294134, abs=1e-12)


def test_qubit_orth_bounds_enforce_regime_and_dims():
    phi, var = fixture("fig1_pair")
    with pytest.raises(RegimeViolation):
        qubit_upper_orth(SuperpositionSpec(S2, S2, phi, var))
    with pytest.raises(NotTwoQubit):
        qubit_upper_orth(SuperpositionSpec(S2, S2, ket(3, 3, 0), ket(3, 3, 8)))


# --- qubit general bounds ----------------------------------------------------


def test_qubit_general_reduces_to_orthogonal():
    rng = np.random.default_rng(13)
    for _ in range(50):
        phi, var = orthogonal_pair(2, 2, rng)
        alpha, beta = random_weights(rng)
        spec = SuperpositionSpec(alpha, beta, phi, var)
        upper, lower = qubit_general_bounds(spec)
        assert upper == pytest.approx(qubit_upper_orth(spec), abs=1e-12)
        assert lower == pytest.approx(qubit_lower_orth(spec), abs=1e-12)


def test_qubit_general_identical_components():
    # phi = varphi: norm^2 C(Psi') = 2 C(phi) and the upper bound
    # C(phi) + sqrt(1 - (C(phi)-1)^2) dominates it for all C(phi)
    for t in np.linspace(0.05, math.pi / 4, 20):
        phi = make_state(2, 2, [math.cos(t), 0, 0, math.sin(t)])
        spec = SuperpositionSpec(S2, S2, phi, phi)
        c = concurrence_qubit(phi)
        upper, lower = qubit_general_bounds(spec)
        assert upper == pytest.approx(c + math.sqrt(max(0.0, 1 - (c - 1) ** 2)),
                                      abs=1e-12)
        target = exact_target(spec)
        assert target == pytest.approx(2 * c, abs=1e-12)
        assert lower - 1e-9 <= target <= upper + 1e-9


def test_qubit_general_brackets_specific_pair():
    spec = SuperpositionSpec(S2, S2, ket(2, 2, 0), fixture("bell_plus"))
    upper, lower = qubit_general_bounds(spec)
    target = exact_target(spec)
    assert lower - 1e-9 <= target <= upper + 1e-9


def test_qubit_general_random_sandwich():
    rng = np.random.default_rng(14)
    for _ in range(300):
        phi, var = haar_state(2, 2, rng), haar_state(2, 2, rng)
        alpha, beta = random_weights(rng)
        spec = SuperpositionSpec(alpha, beta, phi, var)
        upper, lower = qubit_general_bounds(spec)
        target = exact_target(spec)
        assert lower - 1e-9 <= target <= upper + 1e-9


# --- exact biorthogonal formula ----------------------------------------------


def test_exact_biorthogonal_product_blocks():
    spec = SuperpositionSpec(0.8, 0.6j, ket(2, 2, 0), ket(2, 2, 3))
    assert exact_biorthogonal(spec) == pytest.approx(2 * 0.8 * 0.6, abs=1e-12)
    assert exact_biorthogonal(spec) == pytest.approx(
        i_concurrence(normalize(superpose(spec)[0])[0]), abs=1e-12)


def test_exact_biorthogonal_d4_maximally_entangled_blocks():
    v1 = np.zeros(16, dtype=complex)
    v1[0 * 4 + 0] = S2
    v1[1 * 4 + 1] = S2
    v2 = np.zeros(16, dtype=complex)
    v2[2 * 4 + 2] = S2
    v2[3 * 4 + 3] = S2
    phi = make_state(4, 4, v1)
    var = make_state(4, 4, v2)
    spec = SuperpositionSpec(S2, S2, phi, var)
    value = exact_biorthogonal(spec)
    assert value == pytest.approx(math.sqrt(1.5), abs=1e-12)
    psi, _ = normalize(superpose(spec)[0])
    assert value == pytest.approx(i_concurrence(psi), abs=1e-12)
    # the superposition is the maximally entangled d=4 state
    assert i_concurrence(max_entangled(4)) == pytest.approx(math.sqrt(1.5), abs=1e-12)


def test_exact_biorthogonal_degenerate_weight():
    phi, var = biorthogonal_pair(4, 4, 2, 2, np.random.default_rng(3))
    spec = SuperpositionSpec(1.0, 0.0, phi, var)
    assert exact_biorthogonal(spec) == pytest.approx(i_concurrence(phi), abs=1e-12)


def test_exact_biorthogonal_rejects_merely_orthogonal():
    with pytest.raises(RegimeViolation):
        exact_biorthogonal(SuperpositionSpec(S2, S2, fixture("bell_plus"),
                                             fixture("bell_minus")))


def test_exact_biorthogonal_random_splits():
    rng = np.random.default_rng(15)
    for _ in range(50):
        da, db = int(rng.integers(2, 7)), int(rng.integers(2, 7))
        phi, var = biorthogonal_pair(da, db, int(rng.integers(1, da)),
                                     int(rng.integers(1, db)), rng)
        alpha, beta = random_weights(rng)
        spec = SuperpositionSpec(alpha, beta, phi, var)
        psi, _ = normalize(superpose(spec)[0])
        assert exact_biorthogonal(spec) == pytest.approx(
            i_concurrence(psi), abs=1e-12)


# --- qudit orthogonal bounds ---------------------------------------------------


def d3_example_spec():
    phi = max_entangled(3)
    var = ket(3, 3, 1)  # |0>|1>, orthogonal product state
    return SuperpositionSpec(math.sqrt(0.9), math.sqrt(0.1), phi, var)


def test_qudit_upper_d3_example():
    spec = d3_example_spec()
    assert classify_pair(spec.phi, spec.varphi) is Regime.ORTHOGONAL
    assert qudit_upper_orth(spec) == pytest.approx(
        0.9 * math.sqrt(4 / 3) + 0.6, abs=1e-12)


def test_qudit_upper_dominates_exact_formula_on_biorthogonal():
    rng = np.random.default_rng(16)
    for _ in range(30):
        phi, var = biorthogonal_pair(4, 4, int(rng.integers(1, 4)),
                                     int(rng.integers(1, 4)), rng)
        alpha, beta = random_weights(rng)
        spec = SuperpositionSpec(alpha, beta, phi, var)
        assert qudit_upper_orth(spec) >= exact_biorthogonal(spec) - 1e-12


def test_qudit_upper_dominates_qubit_upper():
    rng = np.random.default_rng(17)
    for _ in range(50):
        phi, var = orthogonal_pair(2, 2, rng)
        alpha, beta = random_weights(rng)
        spec = SuperpositionSpec(alpha, beta, phi, var)
        assert qudit_upper_orth(spec) >= qubit_upper_orth(spec) - 1e-12


def test_qudit_lower_d3_example():
    spec = d3_example_spec()
    assert qudit_lower_orth(spec) == pytest.approx(
        0.9 * math.sqrt(4 / 3) - 0.6, abs=1e-12)
    assert lower_bound_useful(spec) is True


def test_qudit_lower_clamped_for_balanced_equal_concurrence():
    w = cmath.exp(2j * math.pi / 3)
    v = np.zeros(9, dtype=complex)
    v[[0, 4, 8]] = np.array([1, w, w * w]) / math.sqrt(3)
    phi = max_entangled(3)
    var = make_state(3, 3, v)
    assert abs(inner_product(phi, var)) < 1e-12
    spec = SuperpositionSpec(S2, S2, phi, var)
    assert qudit_lower_orth(spec) == 0.0
    assert lower_bound_useful(spec) is False


def test_qudit_lower_degenerate_weight():
    phi, var = fixture("bell_plus"), fixture("bell_minus")
    with pytest.raises(DegenerateWeight):
        qudit_lower_orth(SuperpositionSpec(1.0, 0.0, phi, var))
    with pytest.raises(DegenerateWeight):
        lower_bound_useful(SuperpositionSpec(0.0, 1.0, phi, var))
    # the upper bound still applies and reduces to the remaining component
    phi, var = max_entangled(3), ket(3, 3, 1)
    assert qudit_upper_orth(SuperpositionSpec(0.0, 1.0, phi, var)) == i_concurrence(var)
    assert qudit_upper_orth(SuperpositionSpec(1.0, 0.0, phi, var)) == i_concurrence(phi)


def test_lower_bound_useful_unbalanced_limit():
    phi = max_entangled(3)
    var = ket(3, 3, 1)
    spec = SuperpositionSpec(math.sqrt(0.998), math.sqrt(0.002), phi, var)
    assert lower_bound_useful(spec) is True


def test_lower_bound_useful_agrees_with_unclamped_sign():
    rng = np.random.default_rng(18)
    for _ in range(200):
        da, db = int(rng.integers(2, 5)), int(rng.integers(2, 5))
        phi, var = orthogonal_pair(da, db, rng)
        alpha, beta = random_weights(rng)
        spec = SuperpositionSpec(alpha, beta, phi, var)
        report = evaluate(spec)
        assert report.lower_useful is (report.qudit_lower_unclamped > 0)


# --- qudit general bounds -------------------------------------------------------


def test_qudit_general_reduces_to_orthogonal():
    rng = np.random.default_rng(19)
    for _ in range(50):
        phi, var = orthogonal_pair(3, 3, rng)
        alpha, beta = random_weights(rng)
        spec = SuperpositionSpec(alpha, beta, phi, var)
        upper, lower = qudit_general_bounds(spec)
        # the overlap is ~1e-16, so sqrt(1 + ov^2) collapses to 1
        assert upper == pytest.approx(qudit_upper_orth(spec), abs=1e-12)
        assert lower == pytest.approx(qudit_lower_orth(spec), abs=1e-12)


def test_qudit_general_identical_components():
    phi = max_entangled(3)
    spec = SuperpositionSpec(S2, S2, phi, phi)
    upper, lower = qudit_general_bounds(spec)
    c = i_concurrence(phi)
    assert upper == pytest.approx(c + math.sqrt(2.0), abs=1e-12)
    assert exact_target(spec) == pytest.approx(2 * c, abs=1e-12)
    assert upper >= 2 * c - 1e-12


def test_qudit_general_fig2_midpoint():
    phi2, var2 = fixture("fig2_pair")
    spec = SuperpositionSpec(S2, S2, phi2, var2)
    upper, lower = qudit_general_bounds(spec)
    assert upper == pytest.approx(0.5 * math.sqrt(1.8) + math.sqrt(1.1), abs=1e-12)
    target = exact_target(spec)
    assert lower - 1e-9 <= target <= upper + 1e-9


def test_qudit_general_random_sandwich():
    rng = np.random.default_rng(20)
    for da, db in [(3, 3), (5, 4)]:
        for _ in range(100):
            phi, var = haar_state(da, db, rng), haar_state(da, db, rng)
            alpha, beta = random_weights(rng)
            spec = SuperpositionSpec(alpha, beta, phi, var)
            upper, lower = qudit_general_bounds(spec)
            target = exact_target(spec)
            assert lower - 1e-9 <= target <= upper + 1e-9


# --- composed report --------------------------------------------------------------


def test_evaluate_psi1_upper_saturation():
    spec = SuperpositionSpec(0.8, 0.6, fixture("bell_plus"), fixture("ket01"))
    report = evaluate(spec)
    assert report.regime is Regime.ORTHOGONAL
    assert report.upper == pytest.approx(0.64, abs=1e-12)
    assert report.upper == pytest.approx(
        report.norm_squared * report.exact_concurrence, abs=1e-12)


def test_evaluate_biorthogonal_fills_exact_formula():
    spec = SuperpositionSpec(S2, S2, ket(2, 2, 0), ket(2, 2, 3))
    report = evaluate(spec)
    assert report.regime is Regime.BIORTHOGONAL
    assert report.exact_formula_value == pytest.approx(1.0, abs=1e-12)
    assert report.exact_formula_value == pytest.approx(
        report.exact_concurrence, abs=1e-12)


def test_evaluate_fig2_override_reproduces_orthogonal_formulas():
    phi2, var2 = fixture("fig2_pair")
    spec = SuperpositionSpec(S2, S2, phi2, var2)
    report = evaluate(spec, regime_override=Regime.ORTHOGONAL)
    assert report.regime is Regime.ORTHOGONAL
    assert report.upper == pytest.approx(0.5 * math.sqrt(1.8) + 1.0, abs=1e-12)
    # the override ignores the true overlap of 1/sqrt(10) in the cross term
    aa, bb, ab = abs(S2) ** 2, abs(S2) ** 2, abs(S2 * S2)
    assert report.qudit_upper == aa * report.c_phi + bb * report.c_varphi + 2 * ab
    assert report.qubit_upper is None
    # without the override the pair classifies as general
    assert evaluate(spec).regime is Regime.GENERAL


def test_evaluate_keeps_both_bound_families_for_qubits():
    rng = np.random.default_rng(23)
    phi, var = orthogonal_pair(2, 2, rng)
    spec = SuperpositionSpec(S2, S2, phi, var)
    report = evaluate(spec)
    assert report.qubit_upper is not None and report.qudit_upper is not None
    assert report.upper == report.qubit_upper
    assert report.qubit_upper <= report.qudit_upper + 1e-12


def test_evaluate_degenerate_weight_reports_component():
    phi, var = fixture("bell_plus"), fixture("ket01")
    report = evaluate(SuperpositionSpec(0.0, 1.0, phi, var))
    assert report.upper is None and report.lower is None
    assert report.lower_useful is None
    assert report.exact_concurrence == pytest.approx(concurrence_qubit(var), abs=1e-12)


def test_evaluate_weight_swap_symmetry():
    rng = np.random.default_rng(24)
    for _ in range(50):
        phi, var = haar_state(3, 3, rng), haar_state(3, 3, rng)
        alpha, beta = random_weights(rng)
        r1 = evaluate(SuperpositionSpec(alpha, beta, phi, var))
        r2 = evaluate(SuperpositionSpec(beta, alpha, var, phi))
        assert r1.upper == pytest.approx(r2.upper, abs=1e-12)
        assert r1.lower == pytest.approx(r2.lower, abs=1e-12)


def test_evaluate_sanity_failure_on_misapplied_override():
    # forcing the biorthogonal exact formula onto a non-biorthogonal pair
    # must be caught by the report's own consistency check
    spec = SuperpositionSpec(S2, S2, fixture("bell_plus"), fixture("bell_minus"))
    with pytest.raises(SanityFailure):
        evaluate(spec, regime_override=Regime.BIORTHOGONAL)


@pytest.mark.parametrize("eps, tol, gap", [
    (1e-5, REGIME_TOL, 1.26e-8),
    (0.03, 1e-2, 4.1e-4),
])
def test_evaluate_near_biorthogonal_reports_closed_form(eps, tol, gap):
    # a pair biorthogonal only within tolerance keeps its closed form in
    # the report; the closed form is not held to the direct value
    phi, var = biorthogonal_pair(3, 3, 1, 1, np.random.default_rng(1))
    amps = var.amplitudes.copy()
    amps[0] += eps
    var = make_state(3, 3, amps / np.linalg.norm(amps))
    assert classify_pair(phi, var, tol) is Regime.BIORTHOGONAL
    report = evaluate(SuperpositionSpec(0.6, 0.8, phi, var), tol=tol)
    assert report.regime is Regime.BIORTHOGONAL
    upper_slack, lower_slack, formula_error = report.slack
    assert formula_error == pytest.approx(gap, rel=0.05)
    target = report.norm_squared * report.exact_concurrence
    assert report.qudit_lower - 1e-9 <= target <= report.qudit_upper + 1e-9
    assert upper_slack <= 1e-9 and lower_slack >= -1e-9


def near_orthogonal(phi, base, eps):
    """``normalize(base + eps * phi)``: overlap ~eps with ``phi``."""
    v = base.amplitudes + eps * phi.amplitudes
    return make_state(phi.dim_a, phi.dim_b, v / np.linalg.norm(v))


@pytest.mark.parametrize("eps", [1e-4, 1e-3])
@pytest.mark.parametrize("phi_name, base_name", [("bell_plus", "ket01"),
                                                 ("bell_minus", "ket01")])
def test_loose_tol_bounds_hold_at_measured_overlap(phi_name, base_name, eps):
    # classified orthogonal within tol=1e-2, these saturating pairs keep
    # their small overlap in the bounds; at overlap 0 the exact value escapes
    phi = fixture(phi_name)
    var = near_orthogonal(phi, fixture(base_name), eps)
    for k in range(1, 100):
        a_sq = k / 100.0
        report = evaluate(SuperpositionSpec(math.sqrt(a_sq), math.sqrt(1 - a_sq),
                                            phi, var), tol=1e-2)
        assert report.regime is Regime.ORTHOGONAL
        target = report.norm_squared * report.exact_concurrence
        for upper, lower in ((report.qubit_upper, report.qubit_lower),
                             (report.qudit_upper, report.qudit_lower)):
            assert lower - SANITY_TOL <= target <= upper + SANITY_TOL


def test_report_slack_reads_filled_families():
    phi, var = fixture("bell_plus"), fixture("ket01")
    report = evaluate(SuperpositionSpec(0.8, 0.6, phi, var))
    target = report.norm_squared * report.exact_concurrence
    upper_slack, lower_slack, formula_error = report.slack
    assert upper_slack == max(target - report.qubit_upper, target - report.qudit_upper)
    assert lower_slack == min(target - report.qubit_lower, target - report.qudit_lower)
    assert formula_error is None
    assert "slack" not in report.to_dict()
    # no superposition to bound: no family is filled
    single = evaluate(SuperpositionSpec(1.0, 0.0, phi, var))
    assert single.slack == (-math.inf, math.inf, None)
    k00 = make_state(2, 2, [1, 0, 0, 0])
    k11 = make_state(2, 2, [0, 0, 0, 1])
    bio = evaluate(SuperpositionSpec(S2, S2, k00, k11))
    assert bio.slack[2] == abs(bio.exact_formula_value - bio.exact_concurrence)


def test_report_json_field_names():
    spec = SuperpositionSpec(0.8, 0.6, fixture("bell_plus"), fixture("ket01"))
    report = evaluate(spec)
    assert list(report.to_dict()) == [f.name for f in fields(BoundReport)]
    doc = json.loads(report.to_json())
    for key in ("regime", "overlap", "norm_squared", "exact_concurrence",
                "exact_formula_value", "upper", "lower", "delta", "c_phi",
                "c_varphi", "lower_useful"):
        assert key in doc
    assert doc["regime"] == "orthogonal"
    assert doc["overlap"] == [0.0, 0.0]
    assert doc["lower_useful"] is True or doc["lower_useful"] is False


def test_evaluate_sandwich_per_regime():
    rng = np.random.default_rng(25)
    for _ in range(100):
        regime = [Regime.BIORTHOGONAL, Regime.ORTHOGONAL, Regime.GENERAL][
            int(rng.integers(0, 3))]
        da, db = int(rng.integers(2, 5)), int(rng.integers(2, 5))
        if regime is Regime.BIORTHOGONAL:
            phi, var = biorthogonal_pair(da, db, int(rng.integers(1, da)),
                                         int(rng.integers(1, db)), rng)
        elif regime is Regime.ORTHOGONAL:
            phi, var = orthogonal_pair(da, db, rng)
        else:
            phi, var = haar_state(da, db, rng), haar_state(da, db, rng)
        alpha, beta = random_weights(rng)
        report = evaluate(SuperpositionSpec(alpha, beta, phi, var))
        assert report.regime is regime
        target = report.norm_squared * report.exact_concurrence
        assert report.lower - 1e-9 <= target <= report.upper + 1e-9


@pytest.mark.parametrize("dims", [(2, 2), (3, 3)])
def test_standalone_bounds_are_views_of_evaluate(dims):
    # every standalone bound equals the matching report field exactly
    rng = np.random.default_rng(26)
    loose_rng = np.random.default_rng(27)
    qubit = dims == (2, 2)
    for _ in range(20):
        alpha, beta = random_weights(rng)

        spec = SuperpositionSpec(alpha, beta, *orthogonal_pair(*dims, rng))
        report = evaluate(spec)
        assert report.regime is Regime.ORTHOGONAL
        assert qudit_upper_orth(spec) == report.qudit_upper
        assert qudit_lower_orth(spec) == report.qudit_lower
        assert lower_bound_useful(spec) is report.lower_useful
        if qubit:
            assert qubit_upper_orth(spec) == report.qubit_upper
            assert qubit_lower_orth(spec) == report.qubit_lower

        spec = SuperpositionSpec(alpha, beta, haar_state(*dims, rng),
                                 haar_state(*dims, rng))
        report = evaluate(spec)
        assert report.regime is Regime.GENERAL
        assert qudit_general_bounds(spec) == (report.qudit_upper, report.qudit_lower)
        if qubit:
            assert qubit_general_bounds(spec) == (report.qubit_upper,
                                                  report.qubit_lower)

        spec = SuperpositionSpec(alpha, beta, *biorthogonal_pair(*dims, 1, 1, rng))
        report = evaluate(spec)
        assert report.regime is Regime.BIORTHOGONAL
        assert exact_biorthogonal(spec) == report.exact_formula_value
        assert qudit_upper_orth(spec) == report.qudit_upper

        # overlap ~1e-3: orthogonal within a loose tol, kept by the bounds
        phi, var = orthogonal_pair(*dims, loose_rng)
        spec = SuperpositionSpec(alpha, beta, phi, near_orthogonal(phi, var, 1e-3))
        report = evaluate(spec, tol=1e-2)
        assert report.regime is Regime.ORTHOGONAL
        assert qudit_upper_orth(spec, tol=1e-2) == report.qudit_upper
        assert qudit_lower_orth(spec, tol=1e-2) == report.qudit_lower
        assert lower_bound_useful(spec, tol=1e-2) is report.lower_useful
        if qubit:
            assert qubit_upper_orth(spec, tol=1e-2) == report.qubit_upper
            assert qubit_lower_orth(spec, tol=1e-2) == report.qubit_lower
