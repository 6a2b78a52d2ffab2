import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from supconc import (
    DimensionMismatch,
    NotHermitian,
    NotNormalized,
    NotUnitary,
    PureState,
    SuperpositionSpec,
    WeightsNotNormalized,
    ZeroVector,
    apply_local_unitary,
    classify_pair,
    concurrence_qubit,
    fixture,
    haar_state,
    haar_unitary,
    inner_product,
    lambda_sandwich,
    make_state,
    normalize,
    outer_operator,
    purity,
    reduced_density,
    schmidt_coefficients,
    state_from_json,
    state_to_json,
    superpose,
)
from supconc.states import HERMITIAN_TOL

S2 = math.sqrt(0.5)


def bell_plus():
    return make_state(2, 2, [S2, 0, 0, S2])


def test_make_state_basis():
    s = make_state(2, 2, [1, 0, 0, 0])
    assert s.dim_a == 2 and s.dim_b == 2
    assert np.array_equal(s.amplitudes, np.array([1, 0, 0, 0], dtype=complex))


def test_make_state_uniform_product():
    s = make_state(2, 2, [0.5, 0.5, 0.5, 0.5])
    assert abs(np.vdot(s.amplitudes, s.amplitudes).real - 1) < 1e-12


def test_make_state_rejects_unnormalized():
    with pytest.raises(NotNormalized) as exc:
        make_state(2, 2, [1, 1, 0, 0])
    assert exc.value.norm_squared == pytest.approx(2.0, abs=1e-15)


def test_make_state_rejects_wrong_length():
    with pytest.raises(DimensionMismatch):
        make_state(2, 3, [1, 0, 0, 0])
    with pytest.raises(DimensionMismatch, match="dimensions must be positive"):
        PureState(0, 2, [])


def test_amplitudes_are_read_only():
    s = make_state(2, 2, [1, 0, 0, 0])
    with pytest.raises(ValueError):
        s.amplitudes[0] = 0.0


def test_superpose_degenerate_weight():
    phi = bell_plus()
    raw, norm_sq = superpose(SuperpositionSpec(1.0, 0.0, phi, make_state(2, 2, [0, 1, 0, 0])))
    assert np.array_equal(raw, phi.matrix)
    assert norm_sq == pytest.approx(1.0, abs=1e-12)


def test_superpose_orthogonal_components():
    raw, norm_sq = superpose(SuperpositionSpec(
        S2, S2, make_state(2, 2, [1, 0, 0, 0]), make_state(2, 2, [0, 0, 0, 1])))
    assert norm_sq == pytest.approx(1.0, abs=1e-12)
    state, norm = normalize(raw)
    assert concurrence_qubit(state) == pytest.approx(1.0, abs=1e-12)


def test_superpose_identical_components():
    phi = bell_plus()
    raw, norm_sq = superpose(SuperpositionSpec(S2, S2, phi, phi))
    assert norm_sq == pytest.approx(2.0, abs=1e-12)
    assert np.allclose(raw, math.sqrt(2.0) * phi.matrix, atol=1e-15)


def test_superpose_rejects_bad_weights():
    phi = bell_plus()
    with pytest.raises(WeightsNotNormalized):
        SuperpositionSpec(1.0, 1.0, phi, phi)
    # squared, a weight this large overflows: still bad input
    with pytest.raises(WeightsNotNormalized, match="inf"):
        SuperpositionSpec(1e200, 0.0, phi, phi)


def test_superpose_rejects_dim_mismatch():
    with pytest.raises(DimensionMismatch):
        SuperpositionSpec(S2, S2, bell_plus(), make_state(2, 3, [1, 0, 0, 0, 0, 0]))


def test_superpose_returns_the_coefficient_matrix():
    rng = np.random.default_rng(4)
    phi, var = haar_state(2, 5, rng), haar_state(2, 5, rng)
    spec = SuperpositionSpec(0.6, 0.8j, phi, var)
    raw, norm_sq = superpose(spec)
    assert raw.shape == (2, 5)
    assert np.allclose(raw, 0.6 * phi.matrix + 0.8j * var.matrix, atol=1e-15)
    assert norm_sq == pytest.approx(np.sum(np.abs(raw) ** 2), abs=1e-14)
    assert norm_sq == pytest.approx(
        1 + 2 * (0.6 * 0.8j * inner_product(phi, var)).real, abs=1e-12)


def test_normalize_examples():
    state, norm = normalize(np.array([[2, 0], [0, 0]]))
    assert norm == pytest.approx(2.0, abs=1e-15)
    assert np.array_equal(state.amplitudes, np.array([1, 0, 0, 0], dtype=complex))

    state, norm = normalize(math.sqrt(2.0) * bell_plus().matrix)
    assert norm == pytest.approx(math.sqrt(2.0), abs=1e-14)

    # a 2x3 matrix keeps its dims
    state, norm = normalize(np.arange(6.0).reshape(2, 3))
    assert (state.dim_a, state.dim_b) == (2, 3)
    assert norm == pytest.approx(math.sqrt(55.0), abs=1e-14)

    with pytest.raises(ZeroVector):
        normalize(np.zeros((2, 2)))


@pytest.mark.parametrize("shape", [(4,), (1, 2, 2)])
def test_normalize_requires_a_coefficient_matrix(shape):
    with pytest.raises(DimensionMismatch, match="coefficient matrix"):
        normalize(np.ones(shape))


def test_inner_product_examples():
    k00 = make_state(2, 2, [1, 0, 0, 0])
    k11 = make_state(2, 2, [0, 0, 0, 1])
    assert inner_product(k00, k00) == pytest.approx(1.0)
    assert inner_product(k00, k11) == pytest.approx(0.0)
    phi2, var2 = fixture("fig2_pair")
    assert inner_product(phi2, var2) == pytest.approx(1 / math.sqrt(10), abs=1e-14)


def test_inner_product_conjugate_linear_first():
    rng = np.random.default_rng(3)
    a = haar_state(2, 3, rng)
    b = haar_state(2, 3, rng)
    assert inner_product(a, b) == pytest.approx(np.conj(inner_product(b, a)))


def test_inner_product_dim_mismatch():
    with pytest.raises(DimensionMismatch):
        inner_product(bell_plus(), make_state(3, 3, [1] + [0] * 8))


_SAME_SPACE_CALLS = {
    "SuperpositionSpec": lambda a, b: SuperpositionSpec(S2, S2, a, b),
    "inner_product": inner_product,
    "outer_operator": outer_operator,
    "classify_pair": classify_pair,
    "lambda_sandwich_x": lambda a, b: lambda_sandwich(b, outer_operator(a, a), a),
    "lambda_sandwich_y": lambda a, b: lambda_sandwich(a, outer_operator(a, a), b),
}


@pytest.mark.parametrize("call", sorted(_SAME_SPACE_CALLS))
def test_same_space_required_everywhere(call):
    other = make_state(2, 3, [1, 0, 0, 0, 0, 0])
    with pytest.raises(DimensionMismatch, match="different spaces") as info:
        _SAME_SPACE_CALLS[call](bell_plus(), other)
    assert "(2, 2)" in str(info.value) and "(2, 3)" in str(info.value)


def test_reduced_density_bell():
    rho = reduced_density(bell_plus(), "A")
    assert np.allclose(rho, np.eye(2) / 2, atol=1e-15)


def test_reduced_density_product():
    rho = reduced_density(make_state(2, 2, [1, 0, 0, 0]), "A")
    assert np.allclose(rho, np.diag([1.0, 0.0]), atol=1e-15)


def test_reduced_density_fig2_maximally_entangled():
    _, var2 = fixture("fig2_pair")
    rho = reduced_density(var2, "A")
    assert np.allclose(rho, np.eye(10) / 10, atol=1e-14)


def test_reduced_density_operator_input_preserves_trace():
    rng = np.random.default_rng(11)
    x = haar_state(3, 4, rng)
    y = haar_state(3, 4, rng)
    op = outer_operator(x, y)
    red = reduced_density(op, "B")
    assert isinstance(red, np.ndarray)
    assert np.trace(red) == pytest.approx(np.trace(op.entries), abs=1e-12)


@pytest.mark.parametrize("side", [1, None, "C"])
def test_reduced_density_rejects_unknown_side(side):
    with pytest.raises(DimensionMismatch, match="side must be"):
        reduced_density(bell_plus(), side)


def test_reduced_density_rejects_a_bare_matrix():
    # a plain array carries no split into A and B: no partial trace is defined
    with pytest.raises(DimensionMismatch, match="cannot take a partial trace of ndarray"):
        reduced_density(np.eye(4), "A")


@pytest.mark.parametrize("da,db", [(2, 2), (3, 5), (6, 2)])
def test_partial_trace_consistency(da, db):
    rng = np.random.default_rng(da * 10 + db)
    for _ in range(20):
        s = haar_state(da, db, rng)
        for side in "AB":
            assert np.trace(reduced_density(s, side)).real == pytest.approx(
                1.0, abs=1e-12)


@settings(derandomize=True, deadline=None, max_examples=60)
@given(seed=st.integers(0, 2**32 - 1), dims=st.sampled_from([(2, 2), (3, 5), (6, 2)]),
       side=st.sampled_from("AB"))
def test_reduced_density_of_pure_state_is_a_density_matrix(seed, dims, side):
    rho = reduced_density(haar_state(*dims, np.random.default_rng(seed)), side)
    assert rho.shape == (dims["AB".index(side)],) * 2
    assert np.abs(rho - rho.conj().T).max() <= HERMITIAN_TOL
    assert np.linalg.eigvalsh(rho)[0] >= -1e-12
    assert abs(np.trace(rho) - 1.0) <= 1e-12


def test_schmidt_examples():
    np.testing.assert_allclose(schmidt_coefficients(bell_plus()), [S2, S2], atol=1e-15)
    np.testing.assert_allclose(
        schmidt_coefficients(make_state(2, 2, [1, 0, 0, 0])), [1, 0], atol=1e-15)


def test_schmidt_cross_checks_concurrence_on_fig1():
    phi, _ = fixture("fig1_pair")
    lam = schmidt_coefficients(phi)
    assert 2 * lam[0] * lam[1] == pytest.approx(concurrence_qubit(phi), abs=1e-12)
    assert 2 * lam[0] * lam[1] == pytest.approx(0.1749257830563167, abs=1e-12)


@pytest.mark.parametrize("da,db", [(2, 2), (4, 3), (2, 6)])
def test_schmidt_and_purity_properties(da, db):
    rng = np.random.default_rng(da + 10 * db)
    for _ in range(20):
        s = haar_state(da, db, rng)
        lam = schmidt_coefficients(s)
        assert len(lam) == min(da, db)
        assert np.sum(lam ** 2) == pytest.approx(1.0, abs=1e-10)
        pa = purity(reduced_density(s, "A"))
        pb = purity(reduced_density(s, "B"))
        assert pa == pytest.approx(pb, abs=1e-10)
        assert np.sum(lam ** 4) == pytest.approx(pa, abs=1e-10)


def test_purity_examples():
    assert purity(np.eye(2) / 2) == pytest.approx(0.5, abs=1e-15)
    assert purity(reduced_density(make_state(2, 2, [1, 0, 0, 0]), "A")) == pytest.approx(1.0)
    assert purity(np.eye(10) / 10) == pytest.approx(0.1, abs=1e-15)


def test_purity_rejects_non_hermitian():
    with pytest.raises(NotHermitian):
        purity(np.array([[0, 1], [0, 0]], dtype=complex))


def test_apply_local_unitary_identity_and_flip():
    s = make_state(2, 2, [1, 0, 0, 0])
    same = apply_local_unitary(s, np.eye(2), np.eye(2))
    assert np.array_equal(same.amplitudes, s.amplitudes)
    sx = np.array([[0, 1], [1, 0]], dtype=complex)
    flipped = apply_local_unitary(s, sx, sx)
    assert np.allclose(flipped.amplitudes, [0, 0, 0, 1], atol=1e-15)


def test_apply_local_unitary_rejects_non_unitary():
    with pytest.raises(NotUnitary):
        apply_local_unitary(bell_plus(), np.array([[1, 1], [0, 1]]), np.eye(2))
    with pytest.raises(DimensionMismatch):
        apply_local_unitary(bell_plus(), np.eye(3), np.eye(2))


def test_superpose_then_normalize_roundtrip():
    rng = np.random.default_rng(21)
    for _ in range(30):
        phi = haar_state(3, 3, rng)
        var = haar_state(3, 3, rng)
        a_sq = rng.uniform(0.1, 0.9)
        alpha = math.sqrt(a_sq) * np.exp(1j * rng.uniform(0, 2 * math.pi))
        beta = math.sqrt(1 - a_sq) * np.exp(1j * rng.uniform(0, 2 * math.pi))
        spec = SuperpositionSpec(alpha, beta, phi, var)
        raw, norm_sq = superpose(spec)
        predicted = 1 + 2 * (np.conj(alpha) * beta * inner_product(phi, var)).real
        assert norm_sq == pytest.approx(predicted, abs=1e-12)
        state, norm = normalize(raw)
        assert norm ** 2 == pytest.approx(norm_sq, abs=1e-12)
        assert np.vdot(state.amplitudes, state.amplitudes).real == pytest.approx(
            1.0, abs=1e-12)


def test_state_json_roundtrip_bit_exact():
    rng = np.random.default_rng(5)
    states = [haar_state(2, 2, rng), haar_state(5, 3, rng), bell_plus()]
    phi1, var1 = fixture("fig1_pair")
    states += [phi1, var1, *fixture("fig2_pair")]
    for s in states:
        back = state_from_json(state_to_json(s))
        assert (back.dim_a, back.dim_b) == (s.dim_a, s.dim_b)
        assert np.array_equal(back.amplitudes, s.amplitudes)


def test_state_json_rejects_malformed():
    with pytest.raises(DimensionMismatch):
        state_from_json("not json")
    with pytest.raises(DimensionMismatch):
        state_from_json('{"dim_a": 2, "dim_b": 2}')
    with pytest.raises(DimensionMismatch):
        state_from_json('{"dim_a": 2, "dim_b": 2, "amplitudes": [1, 0, 0, 0]}')
    with pytest.raises(NotNormalized):
        state_from_json(
            '{"dim_a": 2, "dim_b": 2, "amplitudes": '
            '[[1, 0], [1, 0], [0, 0], [0, 0]]}')


def test_local_unitary_preserves_concurrence():
    rng = np.random.default_rng(17)
    bp = bell_plus()
    for _ in range(10):
        u_a = haar_unitary(2, rng)
        u_b = haar_unitary(2, rng)
        rotated = apply_local_unitary(bp, u_a, u_b)
        assert concurrence_qubit(rotated) == pytest.approx(1.0, abs=1e-12)
