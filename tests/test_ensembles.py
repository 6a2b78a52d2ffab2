import math

import numpy as np
import pytest

from supconc import (
    EnsembleConfig,
    InvalidSplit,
    Regime,
    UnknownFixture,
    biorthogonal_pair,
    classify_pair,
    fixture,
    haar_state,
    haar_unitary,
    inner_product,
    orthogonal_pair,
    state_from_json,
    state_to_json,
    verify_ensemble,
)

S2 = math.sqrt(0.5)


def test_haar_state_unit_norm():
    rng = np.random.default_rng(0)
    for da, db in [(2, 2), (3, 5), (10, 10)]:
        for _ in range(20):
            s = haar_state(da, db, rng)
            assert abs(np.linalg.norm(s.amplitudes) - 1) < 1e-12


def test_haar_state_deterministic_for_seed():
    a = haar_state(3, 3, np.random.default_rng(123))
    b = haar_state(3, 3, np.random.default_rng(123))
    assert np.array_equal(a.amplitudes, b.amplitudes)


def test_haar_state_component_mean():
    # law of large numbers: E|amplitude_i|^2 = 1/(dim_a dim_b); each
    # component is Beta(1, n-1)-distributed with variance (n-1)/(n^2 (n+1))
    rng = np.random.default_rng(7)
    samples = 100_000
    n = 4
    acc = np.zeros(n)
    for _ in range(samples):
        acc += np.abs(haar_state(2, 2, rng).amplitudes) ** 2
    mean = acc / samples
    sigma = math.sqrt((n - 1) / (n ** 2 * (n + 1)))
    assert np.all(np.abs(mean - 1 / n) < 3 * sigma / math.sqrt(samples))


# <W|s> of the draws from default_rng([20240901, i]) at 2x3, in the order
# haar_state, orthogonal_pair, biorthogonal_pair(split 1, 2). Campaign
# trials are these draws, so a change here changes every campaign summary.
_W = np.arange(1, 7) + 1j * np.arange(6, 0, -1)
_DRAW_FINGERPRINTS = [
    [5.657769159626486 - 1.212684046661347j, -5.466893177558267 - 3.1700992618415773j,
     0.06599401623346868 + 0.9844315718464833j, -1.9344112442395496 - 2.828728452996196j,
     4.59075746541303 - 3.9906072086531563j],
    [3.4267695391439434 - 1.0881898519787159j, -2.0829982273748717 + 2.355981359072623j,
     -1.7631222577288233 - 7.248901629775022j, 4.1041841671831225 + 2.6167660836143574j,
     -6.011603486276912 + 0.9276979701299726j],
    [-2.5233882653317727 + 5.75516708723344j, 2.251910149125268 + 1.6807177020385689j,
     1.707261079920868 - 0.04410238836026803j, -3.0553012345969206 - 3.041029686226709j,
     1.0046240461127793 + 5.999227494100553j],
]


@pytest.mark.parametrize("index", range(3))
def test_draws_keep_trial_identity(index):
    rng = np.random.default_rng([20240901, index])
    states = [haar_state(2, 3, rng), *orthogonal_pair(2, 3, rng),
              *biorthogonal_pair(2, 3, 1, 2, rng)]
    got = [complex(np.vdot(_W, s.amplitudes)) for s in states]
    assert np.max(np.abs(np.subtract(got, _DRAW_FINGERPRINTS[index]))) <= 1e-14


def test_haar_unitary_is_unitary():
    rng = np.random.default_rng(1)
    for d in (2, 3, 6):
        u = haar_unitary(d, rng)
        assert np.max(np.abs(u.conj().T @ u - np.eye(d))) < 1e-12


def test_orthogonal_pair_overlap():
    rng = np.random.default_rng(2)
    for da, db in [(2, 2), (3, 3), (10, 10)]:
        for _ in range(20):
            phi, var = orthogonal_pair(da, db, rng)
            assert abs(inner_product(phi, var)) <= 1e-12


def test_orthogonal_pair_classifies_orthogonal_not_biorthogonal():
    rng = np.random.default_rng(3)
    for _ in range(10):
        phi, var = orthogonal_pair(10, 10, rng)
        assert classify_pair(phi, var, tol=1e-10) is Regime.ORTHOGONAL


def test_biorthogonal_pair_minimal_blocks():
    rng = np.random.default_rng(4)
    phi, var = biorthogonal_pair(2, 2, 1, 1, rng)
    # one-dimensional blocks: |00> and |11> up to phases
    assert np.abs(phi.amplitudes[0]) == pytest.approx(1.0, abs=1e-12)
    assert np.allclose(phi.amplitudes[1:], 0.0)
    assert np.abs(var.amplitudes[3]) == pytest.approx(1.0, abs=1e-12)
    assert np.allclose(var.amplitudes[:3], 0.0)


def test_biorthogonal_pair_always_classifies_biorthogonal():
    rng = np.random.default_rng(5)
    for _ in range(30):
        da, db = int(rng.integers(2, 7)), int(rng.integers(2, 7))
        sa, sb = int(rng.integers(1, da)), int(rng.integers(1, db))
        phi, var = biorthogonal_pair(da, db, sa, sb, rng)
        assert classify_pair(phi, var, tol=1e-10) is Regime.BIORTHOGONAL


def test_biorthogonal_pair_invalid_split():
    rng = np.random.default_rng(6)
    with pytest.raises(InvalidSplit):
        biorthogonal_pair(2, 2, 0, 1, rng)
    with pytest.raises(InvalidSplit):
        biorthogonal_pair(2, 2, 1, 2, rng)


def test_fixture_fig1_is_renormalized_three_decimal_values():
    phi, var = fixture("fig1_pair")
    raw_phi = np.array([-0.264, 0.528, 0.487, -0.643], dtype=complex)
    raw_var = np.array([-0.034, 0.675, -0.734, 0.010], dtype=complex)
    assert np.array_equal(phi.amplitudes, raw_phi / np.linalg.norm(raw_phi))
    assert np.array_equal(var.amplitudes, raw_var / np.linalg.norm(raw_var))
    # the three-decimal values themselves are not quite normalized
    assert np.linalg.norm(raw_phi) == pytest.approx(0.9995488982536073, abs=1e-14)
    assert np.linalg.norm(raw_var) == pytest.approx(0.9978161153238607, abs=1e-14)
    assert abs(inner_product(phi, var)) == pytest.approx(0.0014919297448402, abs=1e-12)


def test_fixture_bell_and_ket():
    assert np.array_equal(fixture("bell_plus").amplitudes,
                          np.array([S2, 0, 0, S2], dtype=complex))
    assert np.array_equal(fixture("bell_minus").amplitudes,
                          np.array([S2, 0, 0, -S2], dtype=complex))
    assert np.array_equal(fixture("ket01").amplitudes,
                          np.array([0, 1, 0, 0], dtype=complex))


def test_fixture_fig2_definitions():
    phi2, var2 = fixture("fig2_pair")
    assert np.array_equal(phi2.amplitudes, np.full(100, 0.1, dtype=complex))
    expected = np.zeros(100, dtype=complex)
    expected[np.arange(10) * 10 + np.arange(10)] = 1 / math.sqrt(10)
    assert np.array_equal(var2.amplitudes, expected)


def test_fixture_unknown_name():
    with pytest.raises(UnknownFixture):
        fixture("fig3_pair")


def test_fixture_json_roundtrip_bit_exact():
    for name in ("bell_plus", "bell_minus", "ket01"):
        s = fixture(name)
        assert np.array_equal(state_from_json(state_to_json(s)).amplitudes,
                              s.amplitudes)
    for pair in ("fig1_pair", "fig2_pair"):
        for s in fixture(pair):
            assert np.array_equal(state_from_json(state_to_json(s)).amplitudes,
                                  s.amplitudes)


def _summary_key(summary):
    return summary.to_dict(include_wall_time=False)


@pytest.mark.parametrize("regime,dims", [
    (Regime.ORTHOGONAL, (2, 2)),
    (Regime.GENERAL, (3, 3)),
    (Regime.BIORTHOGONAL, (4, 4)),
])
def test_verify_ensemble_small_campaigns_pass(regime, dims):
    config = EnsembleConfig(trials=400, dim_a=dims[0], dim_b=dims[1],
                            regime=regime, seed=42)
    summary = verify_ensemble(config)
    assert summary.passed
    assert summary.trials_run == 400
    assert summary.max_upper_slack <= 1e-9
    assert summary.min_lower_slack >= -1e-9
    if regime is Regime.BIORTHOGONAL:
        assert summary.max_formula_error is not None
        assert summary.max_formula_error <= 1e-12


def test_verify_ensemble_complex_weights():
    config = EnsembleConfig(trials=300, dim_a=3, dim_b=3,
                            regime=Regime.GENERAL, seed=9,
                            weight_sampling="complex-random")
    assert verify_ensemble(config).passed


def test_verify_ensemble_deterministic():
    config = EnsembleConfig(trials=200, dim_a=2, dim_b=2,
                            regime=Regime.ORTHOGONAL, seed=7)
    s1 = verify_ensemble(config)
    s2 = verify_ensemble(config)
    assert _summary_key(s1) == _summary_key(s2)


def test_verify_ensemble_jobs_do_not_change_result():
    config = EnsembleConfig(trials=200, dim_a=3, dim_b=3,
                            regime=Regime.GENERAL, seed=11)
    serial = verify_ensemble(config, jobs=1)
    parallel = verify_ensemble(config, jobs=2)
    assert _summary_key(serial) == _summary_key(parallel)


def test_verify_ensemble_negative_seed_accepted():
    config = EnsembleConfig(trials=50, dim_a=2, dim_b=2,
                            regime=Regime.ORTHOGONAL, seed=-12345)
    assert verify_ensemble(config).passed


def test_ensemble_config_validation():
    with pytest.raises(InvalidSplit):
        EnsembleConfig(trials=0, dim_a=2, dim_b=2,
                       regime=Regime.GENERAL, seed=0)
    with pytest.raises(InvalidSplit):
        EnsembleConfig(trials=10, dim_a=1, dim_b=2,
                       regime=Regime.GENERAL, seed=0)
    with pytest.raises(InvalidSplit):
        EnsembleConfig(trials=10, dim_a=2, dim_b=2,
                       regime=Regime.GENERAL, seed=0, weight_sampling="bogus")
