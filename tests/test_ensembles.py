import math

import numpy as np
import pytest

import supconc.bounds as bounds
import supconc.ensembles as ensembles

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
    return summary.to_dict()


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


class _InlineExecutor:
    """Stands in for ProcessPoolExecutor: records ``max_workers`` and each
    ``chunksize``, maps inline."""

    created: list[int] = []
    chunksizes: list[int] = []

    def __init__(self, max_workers):
        self.created.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, *iterables, chunksize=1):
        self.chunksizes.append(chunksize)
        return map(fn, *iterables)


def _inline_pool(monkeypatch, cpus, block_amplitudes):
    """Route verify_ensemble's pool through _InlineExecutor on ``cpus`` CPUs,
    with evaluation blocks of ``block_amplitudes`` amplitudes."""
    monkeypatch.setattr(_InlineExecutor, "created", [])
    monkeypatch.setattr(_InlineExecutor, "chunksizes", [])
    monkeypatch.setattr(ensembles, "ProcessPoolExecutor", _InlineExecutor)
    monkeypatch.setattr(ensembles.os, "cpu_count", lambda: cpus)
    monkeypatch.setattr(bounds, "_BLOCK_AMPLITUDES", block_amplitudes)


@pytest.mark.parametrize("trials,jobs,cpus,workers", [
    (5, 5000, 64, 5),     # one worker per block: 5 one-trial blocks
    (100, 4, 2, 2),       # one worker per CPU
    (100, 3, None, 1),    # unknown CPU count
    (1, 2, 4, 1),         # --jobs 2 on a one-block campaign
])
def test_verify_ensemble_clamps_workers(monkeypatch, trials, jobs, cpus, workers):
    # a fork-started pool forks all max_workers processes at the first
    # submit, so --jobs must not reach the pool unclamped; one-trial blocks
    # make one block per trial, and a clamp to one worker runs inline
    _inline_pool(monkeypatch, cpus, 4)
    config = EnsembleConfig(trials=trials, dim_a=2, dim_b=2,
                            regime=Regime.GENERAL, seed=3)
    summary = verify_ensemble(config, jobs=jobs)
    pooled = workers > 1
    assert _InlineExecutor.created == ([workers] if pooled else [])
    # a few chunks of blocks per worker: 5 -> chunks of 1, 100 -> of 13
    assert _InlineExecutor.chunksizes == ([math.ceil(trials / (4 * workers))] if pooled else [])
    assert _summary_key(summary) == _summary_key(verify_ensemble(config))


# (digest, margin) of every trial of `verify --tol -1 --trials 20`, recorded
# with the per-trial evaluation path: block evaluation must keep each
# trial's inputs bit for bit and its margin within 1e-12
_VIOLATION_RECORDS = {
    ((2, 2), Regime.GENERAL, "real-grid", 42): list(zip(
        ["e993451a09ef", "123f1ceabef5", "97ec3734aaf8", "1f247f78bcb5", "c75828e23cbb",
         "21964f2cb304", "50714bcc6316", "6d8f0e10b407", "f976ecb14b78", "2616bf70f6fa",
         "a97cadeae78f", "34bb226fd04d", "563de4417cc7", "7f95d95a757a", "82d647463279",
         "965826b6d977", "c03bfceecb1e", "face8d9ea6fc", "53f553e0be5a", "79e8512dedee"],
        [0.0] * 20)),
    ((3, 3), Regime.BIORTHOGONAL, "complex-random", 7): list(zip(
        ["87ba777f9fe7", "6cf57398ab24", "da042f7ca07f", "5c599fe4ac74", "de6f5c30f4a9",
         "2165f02169da", "18ccadd1d154", "ed69ed9f6b82", "7640a94f9264", "2c34ad5fd6ba",
         "cd969e306a46", "7da1ddc57fe1", "c3b4a89d1d27", "da2b284fe825", "b9ebfed38302",
         "13d05bc76726", "342d9b2f20ac", "1d6aa9079481", "46dddcfcd9c1", "804e875a5661"],
        [5.551115123125783e-16, 5.551115123125783e-17, 4.440892098500626e-16, 0.0,
         5.551115123125783e-16, 1.1102230246251565e-16, 1.1102230246251565e-16,
         2.220446049250313e-16, 2.220446049250313e-16, 3.3306690738754696e-16,
         1.1102230246251565e-16, 1.1102230246251565e-16, 3.3306690738754696e-16,
         4.440892098500626e-16, 3.3306690738754696e-16, 5.551115123125783e-17,
         1.1102230246251565e-16, 2.220446049250313e-16, 0.0, 5.551115123125783e-16])),
}


@pytest.mark.parametrize("campaign", list(_VIOLATION_RECORDS), ids=str)
def test_violation_records_are_pinned(campaign):
    dims, regime, weights, seed = campaign
    config = EnsembleConfig(trials=20, dim_a=dims[0], dim_b=dims[1], regime=regime,
                            seed=seed, weight_sampling=weights, tol=-1.0)
    violations = verify_ensemble(config).violations
    records = _VIOLATION_RECORDS[campaign]
    assert [v.trial_index for v in violations] == list(range(20))
    assert [v.digest for v in violations] == [digest for digest, _ in records]
    assert max(abs(v.margin - margin) for v, (_, margin) in zip(violations, records)) <= 1e-12


@pytest.mark.parametrize("dims,trials", [((2, 2), 30), ((3, 3), 30), ((10, 10), 50),
                                         ((32, 32), 11)])
@pytest.mark.parametrize("regime", list(Regime))
def test_run_range_split_matches_one_range(dims, trials, regime):
    # a trial's row does not depend on the block it lands in: the trial
    # range [0, T) as one block gives the rows of the blocks [0, 7) and [7, T)
    config = EnsembleConfig(trials=trials, dim_a=dims[0], dim_b=dims[1], regime=regime,
                            seed=20240901, weight_sampling="complex-random", tol=-1.0)
    whole_rows = ensembles._run_block(config, 0, trials)
    split_rows = [ensembles._run_block(config, 0, 7), ensembles._run_block(config, 7, trials)]
    assert whole_rows.shape == (trials, 4)
    assert np.array_equal(whole_rows, np.concatenate(split_rows), equal_nan=True)


# to_dict(include_wall_time=False) of small campaigns, recorded: ints and
# Nones must match exactly, floats within 1e-12; the zero-delta fields are
# pinned nowhere else
_SUMMARY_RECORDS = [
    (dict(trials=5, dim_a=2, dim_b=2, regime=Regime.GENERAL, seed=42, tol=-1.0),
     {"trials_run": 5,
      "violations": [{"seed": 42, "trial_index": i, "digest": digest, "margin": 0.0}
                     for i, digest in enumerate(["e993451a09ef", "123f1ceabef5",
                                                 "97ec3734aaf8", "1f247f78bcb5",
                                                 "c75828e23cbb"])],
      "max_upper_slack": -0.11052053184801913, "min_lower_slack": 0.27878292998239884,
      "max_formula_error": None, "zero_delta_lower_excesses": 0,
      "max_zero_delta_excess": None}),
    (dict(trials=60, dim_a=3, dim_b=3, regime=Regime.BIORTHOGONAL, seed=7,
          weight_sampling="complex-random"),
     {"trials_run": 60, "violations": [],
      "max_upper_slack": 4.440892098500626e-16, "min_lower_slack": 0.3628851779842178,
      "max_formula_error": 6.661338147750939e-16, "zero_delta_lower_excesses": 0,
      "max_zero_delta_excess": -0.47137257390363096}),
    (dict(trials=30, dim_a=10, dim_b=10, regime=Regime.ORTHOGONAL, seed=3),
     {"trials_run": 30, "violations": [],
      "max_upper_slack": -0.1969232899585429, "min_lower_slack": 0.2516695190661469,
      "max_formula_error": None, "zero_delta_lower_excesses": 0,
      "max_zero_delta_excess": -0.22637060197512593}),
    (dict(trials=40, dim_a=3, dim_b=4, regime=Regime.GENERAL, seed=11,
          weight_sampling="complex-random"),
     {"trials_run": 40, "violations": [],
      "max_upper_slack": -0.42972103739324263, "min_lower_slack": 0.48346104675932483,
      "max_formula_error": None, "zero_delta_lower_excesses": 0,
      "max_zero_delta_excess": None}),
]


def _assert_matches_record(value, expected):
    if isinstance(expected, dict):
        assert value.keys() == expected.keys()
        for key in expected:
            _assert_matches_record(value[key], expected[key])
    elif isinstance(expected, list):
        assert len(value) == len(expected)
        for item, want in zip(value, expected):
            _assert_matches_record(item, want)
    elif isinstance(expected, float):
        assert type(value) is float
        assert abs(value - expected) <= 1e-12
    else:
        assert type(value) is type(expected)
        assert value == expected


@pytest.mark.parametrize("kwargs,expected", _SUMMARY_RECORDS,
                         ids=[f"{k['dim_a']}x{k['dim_b']}-{k['regime'].value}-seed{k['seed']}"
                              for k, _ in _SUMMARY_RECORDS])
def test_summaries_are_pinned(kwargs, expected):
    _assert_matches_record(_summary_key(verify_ensemble(EnsembleConfig(**kwargs))), expected)


def test_ranges_keep_violations_in_trial_order(monkeypatch):
    # blocks of 60 amplitudes cut 57 3x5 trials into 15 blocks of at most
    # 4; jobs=4 on 4 CPUs maps them in chunks of one, and the inline
    # executor runs them in order without starting a process
    _inline_pool(monkeypatch, 4, 60)
    config = EnsembleConfig(trials=57, dim_a=3, dim_b=5, regime=Regime.ORTHOGONAL,
                            seed=-5, weight_sampling="complex-random", tol=-1.0)
    ranged = verify_ensemble(config, jobs=4)
    serial = verify_ensemble(config)
    assert _InlineExecutor.created == [4]
    assert _InlineExecutor.chunksizes == [1]
    assert ranged.violations == serial.violations
    assert [v.trial_index for v in ranged.violations] == list(range(57))
    assert _summary_key(ranged) == _summary_key(serial)
    # recorded: 17 of the 57 zero-delta excesses lie above tol = -1
    assert ranged.zero_delta_lower_excesses == 17
