import cmath
import dataclasses
import json
import math
import tracemalloc
from dataclasses import fields

import numpy as np
import pytest

import supconc.bounds as bounds
from supconc import (
    BoundReport,
    DimensionMismatch,
    NotNormalized,
    OutOfRange,
    Regime,
    SanityFailure,
    SuperpositionSpec,
    WeightsNotNormalized,
    ZeroVector,
    biorthogonal_pair,
    classify_pair,
    concurrence_qubit,
    evaluate,
    evaluate_batch,
    fixture,
    haar_state,
    i_concurrence,
    inner_product,
    make_state,
    normalize,
    orthogonal_pair,
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
    tr = np.trace(reduced_density(bp, "A") @ reduced_density(bm, "A")).real
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
        upper = evaluate(spec).qubit_upper
        assert upper == pytest.approx(exact_target(spec), abs=1e-12)
        assert upper == pytest.approx(a_sq, abs=1e-12)


def test_qubit_upper_product_components():
    spec = SuperpositionSpec(S2, S2, ket(2, 2, 0), ket(2, 2, 1))
    assert evaluate(spec).qubit_upper == pytest.approx(1.0, abs=1e-12)
    assert exact_target(spec) == pytest.approx(0.0, abs=1e-12)


def test_qubit_upper_fig1_midpoint():
    phi, var = fixture("fig1_pair")
    spec = SuperpositionSpec(S2, S2, phi, var)
    # the fixture pair is only nearly orthogonal, so the orthogonal-regime
    # formula needs an explicit regime
    assert evaluate(spec).regime is Regime.GENERAL
    value = evaluate(spec, regime_override=Regime.ORTHOGONAL).qubit_upper
    assert value == pytest.approx(0.6889148521374281, abs=1e-12)


def test_qubit_lower_saturated_by_psi2_family():
    bp, bm = fixture("bell_plus"), fixture("bell_minus")
    for a_sq in np.linspace(0.01, 0.99, 99):
        spec = SuperpositionSpec(math.sqrt(a_sq), math.sqrt(1 - a_sq), bp, bm)
        lower = evaluate(spec).qubit_lower
        assert lower == pytest.approx(exact_target(spec), abs=1e-12)
        assert lower == pytest.approx(abs(2 * a_sq - 1), abs=1e-12)


def test_qubit_lower_symmetric_cancellation():
    bp, bm = fixture("bell_plus"), fixture("bell_minus")
    spec = SuperpositionSpec(S2, S2, bp, bm)
    assert evaluate(spec).qubit_lower == 0.0


def test_qubit_lower_fig1_midpoint():
    phi, var = fixture("fig1_pair")
    spec = SuperpositionSpec(S2, S2, phi, var)
    value = evaluate(spec, regime_override=Regime.ORTHOGONAL).qubit_lower
    assert value == pytest.approx(0.30564440992294134, abs=1e-12)


# --- qubit general bounds ----------------------------------------------------


def test_qubit_general_reduces_to_orthogonal():
    # at the measured overlap of an orthogonal pair (~1e-16) the general
    # bounds are the orthogonal-regime ones, taken at overlap 0
    rng = np.random.default_rng(13)
    for _ in range(50):
        phi, var = orthogonal_pair(2, 2, rng)
        alpha, beta = random_weights(rng)
        spec = SuperpositionSpec(alpha, beta, phi, var)
        report = evaluate(spec)
        orth = evaluate(spec, regime_override=Regime.ORTHOGONAL)
        assert report.qubit_upper == pytest.approx(orth.qubit_upper, abs=1e-12)
        assert report.qubit_lower == pytest.approx(orth.qubit_lower, abs=1e-12)


def test_qubit_general_identical_components():
    # phi = varphi: norm^2 C(Psi') = 2 C(phi) and the upper bound
    # C(phi) + sqrt(1 - (C(phi)-1)^2) dominates it for all C(phi)
    for t in np.linspace(0.05, math.pi / 4, 20):
        phi = make_state(2, 2, [math.cos(t), 0, 0, math.sin(t)])
        spec = SuperpositionSpec(S2, S2, phi, phi)
        c = concurrence_qubit(phi)
        report = evaluate(spec)
        upper, lower = report.qubit_upper, report.qubit_lower
        assert upper == pytest.approx(c + math.sqrt(max(0.0, 1 - (c - 1) ** 2)),
                                      abs=1e-12)
        target = exact_target(spec)
        assert target == pytest.approx(2 * c, abs=1e-12)
        assert lower - 1e-9 <= target <= upper + 1e-9


def test_qubit_general_brackets_specific_pair():
    spec = SuperpositionSpec(S2, S2, ket(2, 2, 0), fixture("bell_plus"))
    report = evaluate(spec)
    target = exact_target(spec)
    assert report.qubit_lower - 1e-9 <= target <= report.qubit_upper + 1e-9


def test_qubit_general_random_sandwich():
    rng = np.random.default_rng(14)
    for _ in range(300):
        phi, var = haar_state(2, 2, rng), haar_state(2, 2, rng)
        alpha, beta = random_weights(rng)
        spec = SuperpositionSpec(alpha, beta, phi, var)
        report = evaluate(spec)
        target = exact_target(spec)
        assert report.qubit_lower - 1e-9 <= target <= report.qubit_upper + 1e-9


# --- exact biorthogonal formula ----------------------------------------------


def test_closed_form_product_blocks():
    spec = SuperpositionSpec(0.8, 0.6j, ket(2, 2, 0), ket(2, 2, 3))
    value = evaluate(spec).exact_formula_value
    assert value == pytest.approx(2 * 0.8 * 0.6, abs=1e-12)
    assert value == pytest.approx(
        i_concurrence(normalize(superpose(spec)[0])[0]), abs=1e-12)


def test_closed_form_d4_maximally_entangled_blocks():
    v1 = np.zeros(16, dtype=complex)
    v1[0 * 4 + 0] = S2
    v1[1 * 4 + 1] = S2
    v2 = np.zeros(16, dtype=complex)
    v2[2 * 4 + 2] = S2
    v2[3 * 4 + 3] = S2
    phi = make_state(4, 4, v1)
    var = make_state(4, 4, v2)
    spec = SuperpositionSpec(S2, S2, phi, var)
    value = evaluate(spec).exact_formula_value
    assert value == pytest.approx(math.sqrt(1.5), abs=1e-12)
    psi, _ = normalize(superpose(spec)[0])
    assert value == pytest.approx(i_concurrence(psi), abs=1e-12)
    # the superposition is the maximally entangled d=4 state
    assert i_concurrence(max_entangled(4)) == pytest.approx(math.sqrt(1.5), abs=1e-12)


def test_closed_form_degenerate_weight():
    phi, var = biorthogonal_pair(4, 4, 2, 2, np.random.default_rng(3))
    spec = SuperpositionSpec(1.0, 0.0, phi, var)
    assert evaluate(spec).exact_formula_value == pytest.approx(i_concurrence(phi),
                                                               abs=1e-12)


def test_closed_form_absent_on_merely_orthogonal():
    spec = SuperpositionSpec(S2, S2, fixture("bell_plus"), fixture("bell_minus"))
    assert evaluate(spec).exact_formula_value is None


def test_closed_form_random_splits():
    rng = np.random.default_rng(15)
    for _ in range(50):
        da, db = int(rng.integers(2, 7)), int(rng.integers(2, 7))
        phi, var = biorthogonal_pair(da, db, int(rng.integers(1, da)),
                                     int(rng.integers(1, db)), rng)
        alpha, beta = random_weights(rng)
        spec = SuperpositionSpec(alpha, beta, phi, var)
        psi, _ = normalize(superpose(spec)[0])
        assert evaluate(spec).exact_formula_value == pytest.approx(
            i_concurrence(psi), abs=1e-12)


# --- qudit orthogonal bounds ---------------------------------------------------


def d3_example_spec():
    phi = max_entangled(3)
    var = ket(3, 3, 1)  # |0>|1>, orthogonal product state
    return SuperpositionSpec(math.sqrt(0.9), math.sqrt(0.1), phi, var)


def test_qudit_upper_d3_example():
    report = evaluate(d3_example_spec())
    assert report.regime is Regime.ORTHOGONAL
    assert report.qudit_upper == pytest.approx(0.9 * math.sqrt(4 / 3) + 0.6, abs=1e-12)


def test_qudit_upper_dominates_exact_formula_on_biorthogonal():
    rng = np.random.default_rng(16)
    for _ in range(30):
        phi, var = biorthogonal_pair(4, 4, int(rng.integers(1, 4)),
                                     int(rng.integers(1, 4)), rng)
        alpha, beta = random_weights(rng)
        report = evaluate(SuperpositionSpec(alpha, beta, phi, var))
        assert report.qudit_upper >= report.exact_formula_value - 1e-12


def test_qudit_upper_dominates_qubit_upper():
    rng = np.random.default_rng(17)
    for _ in range(50):
        phi, var = orthogonal_pair(2, 2, rng)
        alpha, beta = random_weights(rng)
        report = evaluate(SuperpositionSpec(alpha, beta, phi, var))
        assert report.qudit_upper >= report.qubit_upper - 1e-12


def test_qudit_lower_d3_example():
    report = evaluate(d3_example_spec())
    assert report.qudit_lower == pytest.approx(0.9 * math.sqrt(4 / 3) - 0.6, abs=1e-12)
    assert report.lower_useful is True


def test_qudit_lower_clamped_for_balanced_equal_concurrence():
    w = cmath.exp(2j * math.pi / 3)
    v = np.zeros(9, dtype=complex)
    v[[0, 4, 8]] = np.array([1, w, w * w]) / math.sqrt(3)
    phi = max_entangled(3)
    var = make_state(3, 3, v)
    assert abs(inner_product(phi, var)) < 1e-12
    report = evaluate(SuperpositionSpec(S2, S2, phi, var))
    assert report.qudit_lower == 0.0
    assert report.lower_useful is False


def test_qudit_lower_degenerate_weight():
    # a zero weight leaves no superposition to bound: the report holds no
    # bound, while the batch's upper bound reduces exactly to the remaining
    # component's concurrence, which the Schmidt route agrees with
    phi, var = max_entangled(3), ket(3, 3, 1)
    for alpha, beta, field, state in ((0.0, 1.0, "c_varphi", var),
                                      (1.0, 0.0, "c_phi", phi)):
        report = evaluate(SuperpositionSpec(alpha, beta, phi, var))
        assert report.qudit_lower is None and report.lower_useful is None
        upper = evaluate_batch([alpha], [beta], phi.matrix[None],
                               var.matrix[None]).qudit[0][0]
        assert upper == getattr(report, field)
        assert abs(upper - i_concurrence(state)) <= 1e-13


def test_lower_useful_unbalanced_limit():
    phi = max_entangled(3)
    var = ket(3, 3, 1)
    spec = SuperpositionSpec(math.sqrt(0.998), math.sqrt(0.002), phi, var)
    assert evaluate(spec).lower_useful is True


def test_lower_useful_agrees_with_unclamped_sign():
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
        report = evaluate(spec)
        orth = evaluate(spec, regime_override=Regime.ORTHOGONAL)
        # the overlap is ~1e-16, so sqrt(1 + ov^2) collapses to 1
        assert report.qudit_upper == pytest.approx(orth.qudit_upper, abs=1e-12)
        assert report.qudit_lower == pytest.approx(orth.qudit_lower, abs=1e-12)


def test_qudit_general_identical_components():
    phi = max_entangled(3)
    spec = SuperpositionSpec(S2, S2, phi, phi)
    upper = evaluate(spec).qudit_upper
    c = i_concurrence(phi)
    assert upper == pytest.approx(c + math.sqrt(2.0), abs=1e-12)
    assert exact_target(spec) == pytest.approx(2 * c, abs=1e-12)
    assert upper >= 2 * c - 1e-12


def test_qudit_general_fig2_midpoint():
    phi2, var2 = fixture("fig2_pair")
    spec = SuperpositionSpec(S2, S2, phi2, var2)
    report = evaluate(spec)
    assert report.qudit_upper == pytest.approx(0.5 * math.sqrt(1.8) + math.sqrt(1.1),
                                               abs=1e-12)
    target = exact_target(spec)
    assert report.qudit_lower - 1e-9 <= target <= report.qudit_upper + 1e-9


def test_qudit_general_random_sandwich():
    rng = np.random.default_rng(20)
    for da, db in [(3, 3), (5, 4)]:
        for _ in range(100):
            phi, var = haar_state(da, db, rng), haar_state(da, db, rng)
            alpha, beta = random_weights(rng)
            spec = SuperpositionSpec(alpha, beta, phi, var)
            report = evaluate(spec)
            target = exact_target(spec)
            assert report.qudit_lower - 1e-9 <= target <= report.qudit_upper + 1e-9


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


def _bugs(monkeypatch):
    """Make the bound stage put the pairs of ``bugs["escapes"]`` 1e-6 past
    their upper bounds and give those of ``bugs["nans"]`` a NaN concurrence;
    returns the ``bugs`` dict, with both sets empty."""
    bugs = {"escapes": set(), "nans": set()}
    evaluate_rows = bounds._evaluate_rows

    def broken(*args, **kwargs):
        batch = evaluate_rows(*args, **kwargs)
        rows = np.arange(len(batch.exact_concurrence))
        escapes, nans = (np.isin(rows, list(bugs[key])) for key in ("escapes", "nans"))
        return dataclasses.replace(
            batch, upper_slack=np.where(escapes, 1e-6, batch.upper_slack),
            exact_concurrence=np.where(nans, np.nan, batch.exact_concurrence))

    monkeypatch.setattr(bounds, "_evaluate_rows", broken)
    return bugs


def _haar_stacks(rng, pairs, dim):
    return (np.stack([haar_state(dim, dim, rng).matrix for _ in range(pairs)])
            for _ in range(2))


def test_evaluate_batch_names_its_first_bug(monkeypatch):
    # pair 1 escapes its upper bound and pair 3 has a NaN concurrence: the
    # bug checks run once, so the first of them is named
    bugs = _bugs(monkeypatch)
    bugs["escapes"], bugs["nans"] = {1}, {3}
    phis, varphis = _haar_stacks(np.random.default_rng(5), 5, 3)
    weights = np.full(5, S2)
    with pytest.raises(SanityFailure) as info:
        evaluate_batch(weights, weights, phis, varphis)
    assert info.value.row == 1


def test_evaluate_batch_bug_scan_names_the_first(monkeypatch):
    # seeded batches of 3x3 pairs with escapes and NaNs on random pairs: the
    # pair named is the first that has either
    bugs = _bugs(monkeypatch)
    rng = np.random.default_rng(8)
    phis, varphis = _haar_stacks(rng, 12, 3)
    weights = np.full(12, S2)
    for _ in range(40):
        size = int(rng.integers(1, 13))
        bugs["escapes"], bugs["nans"] = ({int(r) for r in np.flatnonzero(rng.random(size) < 0.2)}
                                         for _ in range(2))
        bad = bugs["escapes"] | bugs["nans"]
        if not bad:
            evaluate_batch(weights[:size], weights[:size], phis[:size], varphis[:size])
            continue
        with pytest.raises(SanityFailure) as info:
            evaluate_batch(weights[:size], weights[:size], phis[:size], varphis[:size])
        assert info.value.row == min(bad)


@pytest.mark.parametrize("tol", [-1e-12, 1.0, 5.0, math.nan, -math.inf])
def test_regime_tol_outside_unit_interval_raises(tol):
    phi, var = fixture("bell_plus"), fixture("ket01")
    spec = SuperpositionSpec(0.6, 0.8, phi, var)
    for call in (lambda: classify_pair(phi, var, tol), lambda: evaluate(spec, tol=tol),
                 lambda: evaluate(spec, tol=tol, regime_override=Regime.GENERAL)):
        with pytest.raises(OutOfRange, match=r"\[0, 1\)"):
            call()
    assert classify_pair(phi, var, 0.0) is Regime.ORTHOGONAL


@pytest.mark.parametrize("override", ["orthogonal", "bogus", 3])
def test_regime_override_that_is_not_a_regime_raises(override):
    spec = SuperpositionSpec(0.6, 0.8, fixture("bell_plus"), fixture("ket01"))
    with pytest.raises(OutOfRange, match="regime_override"):
        evaluate(spec, regime_override=override)


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


@pytest.mark.parametrize("block_amplitudes", [9, 27, 4096])   # 1, 3 and all 10 rows
def test_stacked_rows_do_not_depend_on_the_block_size(monkeypatch, block_amplitudes):
    # ten 3x3 pairs of one stack, superposed a block at a time: every column
    # is the same, bit for bit, as in one block
    rng = np.random.default_rng(17)
    phi = np.stack([haar_state(3, 3, rng).matrix for _ in range(10)])
    var = np.stack([haar_state(3, 3, rng).matrix for _ in range(10)])
    alpha, beta = zip(*(random_weights(rng) for _ in range(10)))
    whole = evaluate_batch(alpha, beta, phi, var)
    monkeypatch.setattr(bounds, "_BLOCK_AMPLITUDES", block_amplitudes)
    blocked = evaluate_batch(alpha, beta, phi, var)
    for field in ("overlap", "norm_squared", "exact_concurrence", "c_phi", "c_varphi",
                  "upper_slack", "lower_slack"):
        assert getattr(blocked, field).tobytes() == getattr(whole, field).tobytes(), field


@pytest.mark.parametrize("dims", [(2, 2), (3, 4), (4, 3), (5, 5)])
@pytest.mark.parametrize("one_matrix", [False, True])
def test_one_call_over_blocks_matches_one_call_per_block(monkeypatch, dims, one_matrix):
    # blocks of four pairs: a call over 14 pairs takes blocks of 4, 4, 4 and
    # 2, each built in the call's one set of buffers, and gives the report
    # of one call per block, bit for bit; the Gram blocks are taken on side A
    # (3x4), on side B (4x3), and of one phi against every varphi
    monkeypatch.setattr(bounds, "_BLOCK_AMPLITUDES", 4 * dims[0] * dims[1])
    rng = np.random.default_rng(25)
    phi = np.stack([haar_state(*dims, rng).matrix for _ in range(1 if one_matrix else 14)])
    var = np.stack([haar_state(*dims, rng).matrix for _ in range(14)])
    alpha, beta = map(np.array, zip(*(random_weights(rng) for _ in range(14))))
    cuts = list(bounds._blocks(0, 14, *dims))
    assert [hi - lo for lo, hi in cuts] == [4, 4, 4, 2]
    whole = evaluate_batch(alpha, beta, phi, var)
    parts = [evaluate_batch(alpha[lo:hi], beta[lo:hi], phi if one_matrix else phi[lo:hi],
                            var[lo:hi]) for lo, hi in cuts]
    for field in fields(whole):
        value = getattr(whole, field.name)
        if isinstance(value, np.ndarray):
            joined = np.concatenate([getattr(part, field.name) for part in parts])
            assert np.array_equal(value, joined, equal_nan=value.dtype != object), field.name
        elif isinstance(value, tuple):
            for column, *part_columns in zip(value, *(getattr(part, field.name) for part in parts)):
                assert np.array_equal(column, np.concatenate(part_columns), equal_nan=True)
        else:
            assert all(getattr(part, field.name) == value for part in parts), field.name


def test_broadcast_evaluation_forms_superpositions_a_block_at_a_time():
    # one (999, 32, 32) complex stack takes 16 MB; the core holds a few
    # 8-row blocks of superpositions and the length-999 columns at a time
    rng = np.random.default_rng(21)
    phi, var = haar_state(32, 32, rng).matrix[None], haar_state(32, 32, rng).matrix[None]
    a_sq = np.arange(1, 1000) / 1000
    tracemalloc.start()
    try:
        batch = evaluate_batch(np.sqrt(a_sq), np.sqrt(1.0 - a_sq), phi, var)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(batch.exact_concurrence) == 999
    assert peak < 2 ** 20


@pytest.mark.parametrize("dims", [(2, 2), (3, 3)])
@pytest.mark.parametrize("weight", [math.nan, math.inf, complex(math.nan, 1.0), 1e200])
def test_bad_weights_raise_before_any_arithmetic_on_them(monkeypatch, dims, weight):
    # the component stage checks a block's weights before it superposes
    # them: a NaN, infinite or finite but overflowing weight in the second
    # block raises WeightsNotNormalized, not a RuntimeWarning (an error in
    # this suite)
    monkeypatch.setattr(bounds, "_BLOCK_AMPLITUDES", 2 * dims[0] * dims[1])
    rng = np.random.default_rng(24)
    phi = np.stack([haar_state(*dims, rng).matrix for _ in range(5)])
    var = np.stack([haar_state(*dims, rng).matrix for _ in range(5)])
    alpha, beta = np.full(5, 0.6 + 0j), np.full(5, 0.8 + 0j)
    alpha[3] = weight
    with pytest.raises(WeightsNotNormalized):
        evaluate_batch(alpha, beta, phi, var)


@pytest.mark.parametrize("shape", [(0, 3, 3), (1, 0, 3)])
def test_evaluate_batch_rejects_empty_stacks(shape):
    # zero pairs, or a side of dimension 0, is bad input
    empty = np.zeros(shape, dtype=np.complex128)
    weights = np.full(len(empty), 1.0 + 0j)
    with pytest.raises(DimensionMismatch):
        evaluate_batch(weights, 0.0 * weights, empty, empty)


def test_stacked_evaluation_forms_gram_blocks_a_block_at_a_time():
    # two (200, 32, 32) complex stacks take 3.3 MB each, and so would each
    # of their Gram blocks: the component stage holds the Gram-stage arrays
    # of one block at a time, five of 16 KiB per pair (the two conjugate
    # stacks and A, B and C), and the bound stage the length-200 columns,
    # ~80 KiB. Built for the whole stack, the five would take 15.6 MiB
    block_bytes = 5 * bounds._block_size(32, 32) * 32 * 32 * 16
    rng = np.random.default_rng(22)
    phi = np.stack([haar_state(32, 32, rng).matrix for _ in range(200)])
    var = np.stack([haar_state(32, 32, rng).matrix for _ in range(200)])
    alpha, beta = map(np.array, zip(*(random_weights(rng) for _ in range(200))))
    tracemalloc.start()
    try:
        batch = evaluate_batch(alpha, beta, phi, var)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(batch.exact_concurrence) == 200
    assert peak < block_bytes + 2 ** 17


def test_strided_stacks_give_the_rows_of_their_contiguous_copies():
    # numpy's matmul takes another kernel on a negative-stride operand: the
    # reversed view of a stack must give its reversed copy's rows bit for bit
    rng = np.random.default_rng(23)
    phi = np.stack([haar_state(3, 3, rng).matrix for _ in range(40)])
    var = np.stack([haar_state(3, 3, rng).matrix for _ in range(40)])
    alpha, beta = map(np.array, zip(*(random_weights(rng) for _ in range(40))))
    view = evaluate_batch(*(x[::-1] for x in (alpha, beta, phi, var)))
    copy = evaluate_batch(*(x[::-1].copy() for x in (alpha, beta, phi, var)))
    for field in ("overlap", "norm_squared", "exact_concurrence", "c_phi", "c_varphi",
                  "upper_slack", "lower_slack", "formula_error"):
        assert getattr(view, field).tobytes() == getattr(copy, field).tobytes(), field


@pytest.mark.parametrize("row", [0, 2])
def test_evaluate_batch_rejects_what_a_spec_would(row):
    # each input check of SuperpositionSpec + evaluate, on one row of a stack
    rng = np.random.default_rng(8)
    phi = np.stack([haar_state(2, 3, rng).matrix for _ in range(3)])
    var = np.stack([haar_state(2, 3, rng).matrix for _ in range(3)])
    alpha, beta = np.full(3, 0.6 + 0j), np.full(3, 0.8 + 0j)
    assert len(evaluate_batch(alpha, beta, phi, var).regime) == 3

    bad = phi.copy()
    bad[row] *= 1.1
    with pytest.raises(NotNormalized) as info:
        evaluate_batch(alpha, beta, bad, var)
    assert info.value.norm_squared == pytest.approx(1.21)
    with pytest.raises(NotNormalized):
        evaluate_batch(alpha, beta, phi, bad)

    bad = beta.copy()
    bad[row] = 0.9
    with pytest.raises(WeightsNotNormalized, match="1.17"):
        evaluate_batch(alpha, bad, phi, var)

    cancel, a, b = var.copy(), alpha.copy(), beta.copy()
    cancel[row], a[row], b[row] = -phi[row], S2, S2
    with pytest.raises(ZeroVector):
        evaluate_batch(a, b, phi, cancel)

    with pytest.raises(DimensionMismatch):
        evaluate_batch(alpha, beta, phi, var.transpose(0, 2, 1))
    with pytest.raises(DimensionMismatch):
        evaluate_batch(alpha[:2], beta[:2], phi, var)
    with pytest.raises(DimensionMismatch):
        evaluate_batch(alpha, beta, phi[:2], var[:2])

    bad = phi.copy()
    bad[row, 0, 0] = np.nan
    with pytest.raises(NotNormalized) as info:
        evaluate_batch(alpha, beta, bad, var)
    assert math.isnan(info.value.norm_squared)
