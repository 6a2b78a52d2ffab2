import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from supconc import (
    DimensionMismatch,
    NotTwoQubit,
    OperatorAB,
    OutOfRange,
    SuperpositionSpec,
    binary_entropy,
    biorthogonal_pair,
    concurrence_qubit,
    concurrence_sq_via_lambda,
    eof_from_concurrence,
    evaluate,
    fixture,
    haar_state,
    haar_unitary,
    apply_local_unitary,
    i_concurrence,
    inner_product,
    lambda_map,
    lambda_sandwich,
    make_state,
    normalize,
    outer_operator,
    purity,
    reduced_density,
    spin_flip,
    superpose,
    superposition_csq_expansion,
    universal_inverter,
)
from supconc.measures import _GRAM_FLOOR, _concurrence, _schmidt_concurrence

S2 = math.sqrt(0.5)

# fig1 amplitudes at their original three-decimal precision, kept
# here as independent oracle data
FIG1_PHI_RAW = np.array([-0.264, 0.528, 0.487, -0.643])
FIG1_VARPHI_RAW = np.array([-0.034, 0.675, -0.734, 0.010])


def det_concurrence(amps):
    """Independent qubit-concurrence oracle: 2 |a00 a11 - a01 a10|."""
    a = np.asarray(amps)
    return 2 * abs(a[0] * a[3] - a[1] * a[2])


def test_spin_flip_bell_is_global_phase():
    bp = fixture("bell_plus")
    flipped = spin_flip(bp)
    assert np.allclose(flipped.amplitudes, -bp.amplitudes, atol=1e-15)
    assert abs(inner_product(bp, flipped)) == pytest.approx(1.0, abs=1e-12)


def test_spin_flip_product_state():
    k00 = make_state(2, 2, [1, 0, 0, 0])
    flipped = spin_flip(k00)
    assert np.allclose(flipped.amplitudes, [0, 0, 0, -1], atol=1e-15)
    assert abs(inner_product(k00, flipped)) == pytest.approx(0.0, abs=1e-15)


def test_spin_flip_involution_up_to_phase():
    rng = np.random.default_rng(2)
    for _ in range(20):
        s = haar_state(2, 2, rng)
        twice = spin_flip(spin_flip(s))
        assert abs(inner_product(s, twice)) == pytest.approx(1.0, abs=1e-12)
        # the spin-flip overlap is an independent oracle for the closed form
        c = concurrence_qubit(s)
        assert type(c) is float
        assert c == pytest.approx(abs(inner_product(s, spin_flip(s))), abs=1e-12)


def test_spin_flip_rejects_qudits():
    with pytest.raises(NotTwoQubit):
        spin_flip(make_state(2, 3, [1, 0, 0, 0, 0, 0]))
    with pytest.raises(NotTwoQubit):
        concurrence_qubit(make_state(3, 3, [1] + [0] * 8))


def test_concurrence_qubit_examples():
    assert concurrence_qubit(fixture("bell_plus")) == pytest.approx(1.0, abs=1e-15)
    assert concurrence_qubit(fixture("ket01")) == pytest.approx(0.0, abs=1e-15)


def test_concurrence_qubit_fig1_fixture():
    phi, var = fixture("fig1_pair")
    # the fixture states are the three-decimal amplitudes renormalized
    phi_n = FIG1_PHI_RAW / np.linalg.norm(FIG1_PHI_RAW)
    var_n = FIG1_VARPHI_RAW / np.linalg.norm(FIG1_VARPHI_RAW)
    assert concurrence_qubit(phi) == pytest.approx(det_concurrence(phi_n), abs=1e-14)
    assert concurrence_qubit(var) == pytest.approx(det_concurrence(var_n), abs=1e-14)
    assert concurrence_qubit(phi) == pytest.approx(0.1749257830563167, abs=1e-12)
    assert concurrence_qubit(var) == pytest.approx(0.9945592620603694, abs=1e-12)
    # before renormalization the raw amplitudes give these values
    assert det_concurrence(FIG1_PHI_RAW) == pytest.approx(0.174768, abs=1e-12)
    assert det_concurrence(FIG1_VARPHI_RAW) == pytest.approx(0.99022, abs=1e-12)


def test_concurrence_qubit_matches_det_oracle():
    rng = np.random.default_rng(7)
    for _ in range(200):
        s = haar_state(2, 2, rng)
        assert concurrence_qubit(s) == pytest.approx(
            det_concurrence(s.amplitudes), abs=1e-14)


def test_binary_entropy():
    assert binary_entropy(0.5) == pytest.approx(1.0, abs=1e-15)
    assert binary_entropy(0.0) == 0.0
    assert binary_entropy(1.0) == 0.0
    assert binary_entropy(0.11) == pytest.approx(0.499915958164528, abs=1e-14)
    with pytest.raises(OutOfRange):
        binary_entropy(-0.01)
    with pytest.raises(OutOfRange):
        binary_entropy(1.01)


def test_eof_from_concurrence():
    assert eof_from_concurrence(1.0) == pytest.approx(1.0, abs=1e-15)
    assert eof_from_concurrence(0.0) == pytest.approx(0.0, abs=1e-15)
    assert eof_from_concurrence(0.99022) == pytest.approx(0.985913531459861, abs=1e-13)
    grid = np.linspace(0, 1, 101)
    values = [eof_from_concurrence(c) for c in grid]
    assert all(b >= a for a, b in zip(values, values[1:]))
    with pytest.raises(OutOfRange):
        eof_from_concurrence(1.2)


def test_i_concurrence_examples():
    assert i_concurrence(fixture("bell_plus")) == pytest.approx(1.0, abs=1e-14)
    phi2, var2 = fixture("fig2_pair")
    assert i_concurrence(var2) == pytest.approx(math.sqrt(1.8), abs=1e-12)
    assert i_concurrence(phi2) == pytest.approx(0.0, abs=1e-12)


def test_i_concurrence_matches_qubit_concurrence():
    rng = np.random.default_rng(9)
    for _ in range(300):
        s = haar_state(2, 2, rng)
        assert i_concurrence(s) == pytest.approx(concurrence_qubit(s), abs=1e-12)


@pytest.mark.parametrize("da,db", [(2, 2), (3, 3), (4, 7)])
def test_i_concurrence_range(da, db):
    rng = np.random.default_rng(da * db)
    cap = math.sqrt(2 * (min(da, db) - 1) / min(da, db))
    for _ in range(50):
        c = i_concurrence(haar_state(da, db, rng))
        assert -1e-12 <= c <= cap + 1e-12


def test_universal_inverter_pure_state():
    rho = reduced_density(make_state(2, 2, [1, 0, 0, 0]), "A")
    out = universal_inverter(rho)
    assert np.allclose(out, np.diag([0.0, 1.0]), atol=1e-15)


def test_universal_inverter_maximally_mixed():
    for d in (2, 5):
        out = universal_inverter(np.eye(d) / d)
        assert np.allclose(out, (d - 1) / d * np.eye(d), atol=1e-15)


@pytest.mark.parametrize("fn", [purity, universal_inverter])
@pytest.mark.parametrize("shape", [(2, 3), (4,), (2, 2, 2)])
def test_single_system_maps_require_square_matrix(fn, shape):
    with pytest.raises(DimensionMismatch, match="square matrix"):
        fn(np.zeros(shape))


def test_lambda_map_bell_fixed_point():
    bp = fixture("bell_plus")
    sigma = outer_operator(bp, bp)
    out = lambda_map(sigma)
    assert np.allclose(out.entries, sigma.entries, atol=1e-14)


def test_lambda_map_traceless_cross_term_fixed_point():
    k00 = make_state(2, 2, [1, 0, 0, 0])
    k11 = make_state(2, 2, [0, 0, 0, 1])
    sigma = outer_operator(k00, k11)
    out = lambda_map(sigma)
    assert np.allclose(out.entries, sigma.entries, atol=1e-15)


@pytest.mark.parametrize("d", [2, 3, 5])
def test_lambda_map_trace_scaling(d):
    rng = np.random.default_rng(d)
    for _ in range(25):
        entries = rng.standard_normal((d * d, d * d)) + 1j * rng.standard_normal((d * d, d * d))
        sigma = OperatorAB(d, d, entries)
        out = lambda_map(sigma)
        assert np.trace(out.entries) == pytest.approx(
            (d - 1) ** 2 * np.trace(entries), abs=1e-10)


@pytest.mark.parametrize("da,db", [(2, 3), (3, 5)])
def test_lambda_map_matches_kron_definition(da, db):
    rng = np.random.default_rng(10 * da + db)
    n = da * db
    for _ in range(10):
        z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        sigma = OperatorAB(da, db, z)
        sig_a = reduced_density(sigma, "A")
        sig_b = reduced_density(sigma, "B")
        definition = (np.trace(z) * np.eye(n) - np.kron(sig_a, np.eye(db))
                      - np.kron(np.eye(da), sig_b) + z)
        out = lambda_map(sigma)
        assert np.abs(out.entries - definition).max() <= 1e-12


@pytest.mark.parametrize("d", [2, 3, 5])
def test_lambda_symmetry_random_hermitian(d):
    rng = np.random.default_rng(100 + d)
    n = d * d
    for _ in range(25):
        a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        b = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        rho = OperatorAB(d, d, (a + a.conj().T) / 2)
        sigma = OperatorAB(d, d, (b + b.conj().T) / 2)
        lhs = np.trace(rho.entries @ lambda_map(sigma).entries)
        rhs = np.trace(sigma.entries @ lambda_map(rho).entries)
        assert lhs == pytest.approx(rhs, abs=1e-10)


def test_lambda_sandwich_biorthogonal_is_one():
    rng = np.random.default_rng(31)
    phi, var = biorthogonal_pair(4, 4, 2, 2, rng)
    value = lambda_sandwich(var, outer_operator(phi, phi), var)
    assert value.real == pytest.approx(1.0, abs=1e-12)
    assert value.imag == pytest.approx(0.0, abs=1e-12)


def test_lambda_sandwich_own_state_is_csq():
    rng = np.random.default_rng(32)
    for da, db in [(2, 2), (3, 4)]:
        s = haar_state(da, db, rng)
        value = lambda_sandwich(s, outer_operator(s, s), s).real
        assert value == pytest.approx(i_concurrence(s) ** 2, abs=1e-10)


def test_lambda_sandwich_closed_form():
    rng = np.random.default_rng(33)
    for da, db in [(2, 2), (3, 3), (4, 5)]:
        for _ in range(10):
            phi = haar_state(da, db, rng)
            var = haar_state(da, db, rng)
            value = lambda_sandwich(var, outer_operator(phi, phi), var).real
            closed = (
                1.0
                - np.trace(reduced_density(phi, "A") @ reduced_density(var, "A")).real
                - np.trace(reduced_density(phi, "B") @ reduced_density(var, "B")).real
                + abs(inner_product(phi, var)) ** 2
            )
            assert value == pytest.approx(closed, abs=1e-10)
            assert value <= 1.0 + abs(inner_product(phi, var)) ** 2 + 1e-10


def test_lambda_sandwich_orthogonal_cap():
    from supconc import orthogonal_pair
    rng = np.random.default_rng(34)
    for _ in range(20):
        phi, var = orthogonal_pair(3, 3, rng)
        value = lambda_sandwich(var, outer_operator(phi, phi), var).real
        assert value <= 1.0 + 1e-10


def test_lambda_sandwich_fig2_value():
    phi2, var2 = fixture("fig2_pair")
    value = lambda_sandwich(var2, outer_operator(phi2, phi2), var2).real
    assert value == pytest.approx(0.9, abs=1e-12)


@settings(derandomize=True, deadline=None, max_examples=100)
@given(seed=st.integers(0, 2**32 - 1),
       dims=st.sampled_from([(1, 3), (2, 3), (3, 5), (4, 7), (7, 4)]))
def test_inverter_routes_match_explicit_map(seed, dims):
    # both purity routes against <s| Lambda(|s><s|) |s> with the map applied;
    # non-square dims: a d_a/d_b mix-up on the Gram side would not survive them
    rng = np.random.default_rng(seed)
    s = haar_state(*dims, rng)
    explicit = lambda_sandwich(s, outer_operator(s, s), s).real
    assert abs(concurrence_sq_via_lambda(s) - explicit) <= 1e-12
    a_sq = rng.uniform(0.05, 0.95)
    alpha = math.sqrt(a_sq) * np.exp(1j * rng.uniform(0, 2 * math.pi))
    beta = math.sqrt(1 - a_sq) * np.exp(1j * rng.uniform(0, 2 * math.pi))
    spec = SuperpositionSpec(alpha, beta, s, haar_state(*dims, rng))
    raw, norm_sq = superpose(spec)
    psi, _ = normalize(raw)
    explicit = norm_sq ** 2 * lambda_sandwich(psi, outer_operator(psi, psi), psi).real
    assert abs(superposition_csq_expansion(spec) - explicit) <= 1e-12


# square and rectangular, with the Gram matrix on either side
ROUTE_DIMS = [(3, 3), (10, 10), (32, 32), (2, 5), (5, 2), (3, 7)]
ROUTE_KINDS = ["haar", "spectrum", "above floor", "below floor"]


def _schmidt_probs(kind, dims, rng):
    """Squared Schmidt coefficients of one ``kind`` of matrix (not ``haar``)."""
    k = min(dims)
    if kind == "spectrum":
        # coefficients log-uniform down to 1e-8
        lam_sq = 10.0 ** rng.uniform(-16.0, 0.0, k)
        lam_sq[0] = 1.0
        return lam_sq / lam_sq.sum()
    # C^2 = 2 (1 - sum p_i^2) = target for p = (1 - s, s w) with w on the
    # simplex: (1 + |w|^2) s^2 - 2 s + target / 2 = 0
    target = _GRAM_FLOOR * (max(dims) + 1) ** 2 * (1.01 if kind == "above floor" else 0.99)
    w = rng.dirichlet(np.ones(k - 1))
    q = 1.0 + w @ w
    s = (1.0 - math.sqrt(1.0 - target * q / 2.0)) / q
    return np.concatenate(([1.0 - s], s * w))


def _route_matrix(kind, dims, rng):
    da, db = dims
    if kind == "haar":
        return haar_state(da, db, rng).matrix
    lam = np.sqrt(_schmidt_probs(kind, dims, rng))
    k = lam.size
    return (haar_unitary(da, rng)[:, :k] * lam) @ haar_unitary(db, rng)[:, :k].T


@settings(derandomize=True, deadline=None, max_examples=200)
@given(seed=st.integers(0, 2**32 - 1), dims=st.sampled_from(ROUTE_DIMS),
       kinds=st.lists(st.sampled_from(ROUTE_KINDS), min_size=1, max_size=6))
def test_concurrence_matches_svd_route_on_stacks(seed, dims, kinds):
    # the purity route with its SVD fallback, against the SVD route on every
    # matrix; a stack mixes matrices on both sides of the fallback floor
    rng = np.random.default_rng(seed)
    stack = np.stack([_route_matrix(kind, dims, rng) for kind in kinds])
    expected = _schmidt_concurrence(np.linalg.svd(stack, compute_uv=False))
    assert np.max(np.abs(_concurrence(stack) - expected)) <= 1e-13


@pytest.mark.parametrize("k", [1, 2, 3, 10, 32])
def test_schmidt_concurrence_is_the_triu_sum_bit_for_bit(k):
    # the masked sum must be np.triu's, value for value: spectra with exact
    # zeros and with coefficients log-uniform down to 1e-8, stacked and single
    rng = np.random.default_rng(70 + k)
    uniform = rng.random((20, k))
    log_uniform = 10.0 ** rng.uniform(-8.0, 0.0, (20, k))
    with_zeros = np.sort(log_uniform, axis=1)[:, ::-1].copy()
    with_zeros[:, k // 2:] = 0.0
    for lam in (uniform, log_uniform, with_zeros, log_uniform[0], with_zeros[0]):
        lam_sq = lam ** 2
        cross = lam_sq[..., :, None] * lam_sq[..., None, :]
        expected = 2.0 * np.sqrt(np.sum(np.triu(cross, k=1), axis=(-2, -1)))
        got = _schmidt_concurrence(lam)
        assert got.shape == expected.shape
        assert np.array_equal(got, expected)


def test_csq_via_lambda_examples():
    assert concurrence_sq_via_lambda(fixture("bell_plus")) == pytest.approx(1.0, abs=1e-12)
    assert concurrence_sq_via_lambda(make_state(2, 2, [1, 0, 0, 0])) == pytest.approx(
        0.0, abs=1e-12)


def test_csq_via_lambda_matches_purity_route():
    rng = np.random.default_rng(41)
    for _ in range(25):
        s = haar_state(3, 3, rng)
        via_lambda = concurrence_sq_via_lambda(s)
        via_purity = 2 * (1 - purity(reduced_density(s, "A")))
        assert via_lambda == pytest.approx(via_purity, abs=1e-10)
        assert math.sqrt(via_lambda) == pytest.approx(i_concurrence(s), abs=1e-10)


def test_expansion_bell_state():
    spec = SuperpositionSpec(S2, S2, make_state(2, 2, [1, 0, 0, 0]),
                             make_state(2, 2, [0, 0, 0, 1]))
    assert superposition_csq_expansion(spec) == pytest.approx(1.0, abs=1e-12)


def test_expansion_matches_biorthogonal_formula():
    rng = np.random.default_rng(42)
    for _ in range(10):
        phi, var = biorthogonal_pair(4, 4, int(rng.integers(1, 4)),
                                     int(rng.integers(1, 4)), rng)
        a_sq = rng.uniform(0.1, 0.9)
        alpha = math.sqrt(a_sq) * np.exp(1j * rng.uniform(0, 2 * math.pi))
        beta = math.sqrt(1 - a_sq) * np.exp(1j * rng.uniform(0, 2 * math.pi))
        spec = SuperpositionSpec(alpha, beta, phi, var)
        assert superposition_csq_expansion(spec) == pytest.approx(
            evaluate(spec).exact_formula_value ** 2, abs=1e-10)


@pytest.mark.parametrize("da,db", [(2, 2), (3, 3), (2, 3), (3, 5), (10, 10)])
def test_expansion_matches_direct_norm4_csq(da, db):
    rng = np.random.default_rng(da + db)
    for _ in range(20):
        phi = haar_state(da, db, rng)
        var = haar_state(da, db, rng)
        a_sq = rng.uniform(0.05, 0.95)
        alpha = math.sqrt(a_sq) * np.exp(1j * rng.uniform(0, 2 * math.pi))
        beta = math.sqrt(1 - a_sq) * np.exp(1j * rng.uniform(0, 2 * math.pi))
        spec = SuperpositionSpec(alpha, beta, phi, var)
        raw, norm_sq = superpose(spec)
        psi, _ = normalize(raw)
        direct = norm_sq ** 2 * i_concurrence(psi) ** 2
        assert superposition_csq_expansion(spec) == pytest.approx(direct, abs=1e-10)


@pytest.mark.parametrize("da,db", [(2, 2), (3, 5), (5, 3)])
def test_expansion_zero_weight_is_component_csq(da, db):
    rng = np.random.default_rng(80 + da * db)
    for _ in range(10):
        phi, var = haar_state(da, db, rng), haar_state(da, db, rng)
        phase = np.exp(1j * rng.uniform(0, 2 * math.pi))
        # alpha = 0 leaves C^2(varphi), beta = 0 leaves C^2(phi)
        assert superposition_csq_expansion(SuperpositionSpec(0, phase, phi, var)) \
            == pytest.approx(i_concurrence(var) ** 2, abs=1e-12)
        assert superposition_csq_expansion(SuperpositionSpec(phase, 0, phi, var)) \
            == pytest.approx(i_concurrence(phi) ** 2, abs=1e-12)


@pytest.mark.parametrize("da,db", [(2, 3), (3, 5), (5, 3)])
def test_expansion_biorthogonal_pair_rectangular(da, db):
    rng = np.random.default_rng(85 + da * db)
    for _ in range(10):
        phi, var = biorthogonal_pair(da, db, int(rng.integers(1, da)),
                                     int(rng.integers(1, db)), rng)
        a_sq = rng.uniform(0.05, 0.95)
        alpha = math.sqrt(a_sq) * np.exp(1j * rng.uniform(0, 2 * math.pi))
        beta = math.sqrt(1 - a_sq) * np.exp(1j * rng.uniform(0, 2 * math.pi))
        spec = SuperpositionSpec(alpha, beta, phi, var)
        assert superposition_csq_expansion(spec) == pytest.approx(
            evaluate(spec).exact_formula_value ** 2, abs=1e-10)


@pytest.mark.parametrize("da,db", [(2, 2), (3, 5), (4, 4)])
def test_expansion_near_cancellation(da, db):
    # varphi = -phi up to a perturbation, so that norm(Psi) ~ 1e-6 and the
    # nine O(1) sandwich terms cancel down to norm(Psi)^4 C^2
    rng = np.random.default_rng(90 + da * db)
    for _ in range(10):
        phi = haar_state(da, db, rng)
        noise = rng.standard_normal(da * db) + 1j * rng.standard_normal(da * db)
        amps = -phi.amplitudes + 2e-6 * noise / np.linalg.norm(noise)
        var = make_state(da, db, amps / np.linalg.norm(amps))
        spec = SuperpositionSpec(S2, S2, phi, var)
        raw, norm_sq = superpose(spec)
        psi, norm = normalize(raw)
        assert 1e-7 < norm < 1e-5
        direct = norm_sq ** 2 * i_concurrence(psi) ** 2
        assert superposition_csq_expansion(spec) == pytest.approx(direct, abs=1e-10)


def test_cross_term_equality_all_pairs():
    # |<phi| sy(x)sy |varphi*>| = |<varphi| sy(x)sy |phi*>| with no
    # orthogonality assumption
    rng = np.random.default_rng(51)
    for _ in range(100):
        phi = haar_state(2, 2, rng)
        var = haar_state(2, 2, rng)
        lhs = abs(inner_product(phi, spin_flip(var)))
        rhs = abs(inner_product(var, spin_flip(phi)))
        assert lhs == pytest.approx(rhs, abs=1e-12)


def test_cross_term_bound_orthogonal_pairs():
    from supconc import orthogonal_pair
    rng = np.random.default_rng(52)
    for _ in range(200):
        phi, var = orthogonal_pair(2, 2, rng)
        cross = abs(inner_product(phi, spin_flip(var)))
        delta = max(concurrence_qubit(phi), concurrence_qubit(var))
        assert cross <= math.sqrt(max(0.0, 1 - delta * delta)) + 1e-10


def test_cross_term_bound_arbitrary_pairs():
    rng = np.random.default_rng(53)
    for _ in range(200):
        phi = haar_state(2, 2, rng)
        var = haar_state(2, 2, rng)
        ov = abs(inner_product(phi, var))
        cross = abs(inner_product(phi, spin_flip(var)))
        delta = max(abs(concurrence_qubit(phi) - ov), abs(concurrence_qubit(var) - ov))
        assert cross <= math.sqrt(max(0.0, 1 - delta * delta)) + 1e-10


@pytest.mark.parametrize("da,db", [(2, 2), (3, 3), (4, 6)])
def test_local_unitary_invariance(da, db):
    rng = np.random.default_rng(60 + da + db)
    for _ in range(20):
        s = haar_state(da, db, rng)
        rotated = apply_local_unitary(s, haar_unitary(da, rng), haar_unitary(db, rng))
        assert i_concurrence(rotated) == pytest.approx(i_concurrence(s), abs=1e-10)
