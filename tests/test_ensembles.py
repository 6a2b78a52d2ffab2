import dataclasses
import math
import multiprocessing
import multiprocessing.connection
import os
import signal
import sys
import threading
import tracemalloc
from concurrent.futures import ThreadPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from unittest import mock

import numpy as np
import pytest

import supconc.bounds as bounds
import supconc.ensembles as ensembles
import supconc.measures as measures

from supconc import (
    EnsembleConfig,
    InternalError,
    InvalidSplit,
    OutOfRange,
    Regime,
    SanityFailure,
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
from supconc.measures import _GRAM_FLOOR, _Buffers, _schmidt_concurrence

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
    # no orthogonal pair lives in a joint dimension of 1
    with pytest.raises(InvalidSplit, match="joint dimension of at least 2"):
        orthogonal_pair(1, 1, rng)


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


@pytest.mark.parametrize("seeds", [(7, 7), (-1, 2 ** 64 - 1)], ids=["same", "congruent"])
def test_verify_ensemble_deterministic(seeds):
    # trials are drawn from default_rng([seed mod 2**64, i]): seeds congruent
    # modulo 2**64 run the same campaign
    s1, s2 = (verify_ensemble(EnsembleConfig(trials=200, dim_a=2, dim_b=2,
                                             regime=Regime.ORTHOGONAL, seed=seed))
              for seed in seeds)
    assert _summary_key(s1) == _summary_key(s2)


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
    # a regime's name is not a Regime: no string is taken for one
    for regime in ("orthogonal", "bogus"):
        with pytest.raises(InvalidSplit, match="regime"):
            EnsembleConfig(trials=3, dim_a=3, dim_b=3, regime=regime, seed=1)


def _config(**over):
    """Config fields of a small campaign, with ``over`` replacing some."""
    return {"trials": 3, "dim_a": 2, "dim_b": 2, "regime": Regime.GENERAL, "seed": 1, **over}


@pytest.mark.parametrize("field, value", [
    ("trials", 2.5), ("dim_a", 2.0), ("dim_b", "3"), ("seed", 1.5), ("seed", None),
    ("trials", True), ("seed", False), ("trials", -1), ("trials", 2**64),
])
def test_ensemble_config_rejects_non_integer_counts(field, value):
    # configs only: the campaign's trial indices are never allocated
    with pytest.raises(InvalidSplit, match=field):
        EnsembleConfig(**_config(**{field: value}))


def test_ensemble_config_takes_numpy_integers_as_ints():
    config = EnsembleConfig(**_config(trials=np.int64(2**63 - 1), dim_a=np.int32(3),
                                      dim_b=np.uint8(4), seed=np.uint64(2**64 - 1)))
    assert [type(config.trials), type(config.dim_a), type(config.dim_b),
            type(config.seed)] == [int] * 4
    assert (config.trials, config.dim_a, config.dim_b, config.seed) == (
        2**63 - 1, 3, 4, 2**64 - 1)
    assert EnsembleConfig(**_config(trials=2**64 - 1)).trials == 2**64 - 1


@pytest.mark.parametrize("tol", ["x", None, 1j, True, float("nan"), float("inf")])
def test_ensemble_config_rejects_non_real_tol(tol):
    with pytest.raises(OutOfRange, match="tolerance"):
        EnsembleConfig(**_config(tol=tol))


class _StubProcess:
    """A pool process, numbered ``pid``, that records each call to terminate it
    in ``terminated``, and is alive until ``alive`` is set false."""

    def __init__(self, pid, terminated):
        self.pid, self._terminated, self.alive = pid, terminated, True

    def terminate(self):
        self._terminated.append(self.pid)

    def is_alive(self):
        return self.alive


class _InlineExecutor:
    """Stands in for ProcessPoolExecutor as Python 3.10-3.13 have it: records
    ``max_workers``, each ``chunksize``, the first trial of each range
    mapped, each ``shutdown`` call as ``(wait, cancel_futures)`` and each
    pool process terminated, and maps inline (and lazily, as the pool's
    results are read). Its processes, ``_processes`` keyed by pid, are
    stubs numbered from 0, and ``shutdown`` drops them, as the pool's does;
    ``_broken`` is the pool's mark of a process death it has seen."""

    _broken = False

    created: list[int] = []
    chunksizes: list[int] = []
    starts: list[list[int]] = []
    shutdowns: list[tuple[bool, bool]] = []
    terminated: list[int] = []

    def __init__(self, max_workers, initializer=None, initargs=()):
        self.created.append(max_workers)
        self._processes = {pid: _StubProcess(pid, self.terminated) for pid in range(max_workers)}

    def map(self, fn, *iterables, chunksize=1):
        self.chunksizes.append(chunksize)
        self.starts.append(list(iterables[1]))
        return map(fn, *iterables)

    def shutdown(self, wait=True, *, cancel_futures=False):
        self.shutdowns.append((wait, cancel_futures))
        self._processes = None


class _InlineExecutor314(_InlineExecutor):
    """:class:`_InlineExecutor` with the ``terminate_workers`` of Python 3.14,
    which shuts the pool down and terminates the processes it had."""

    def terminate_workers(self):
        processes = list(self._processes.values())
        self.shutdown(wait=False, cancel_futures=True)
        for process in processes:
            process.terminate()


def _usable(monkeypatch, cpus):
    """Let this process run on ``cpus`` of twice as many CPUs, as
    ``taskset`` would."""
    monkeypatch.setattr(ensembles.os, "sched_getaffinity", lambda pid: set(range(cpus)),
                        raising=False)
    monkeypatch.setattr(ensembles.os, "cpu_count", lambda: 2 * cpus)


def _inline_pool(monkeypatch, cpus, block_amplitudes, pool_floor=0, executor=_InlineExecutor):
    """Route verify_ensemble's pool through ``executor``, an _InlineExecutor,
    on ``cpus`` usable CPUs, with evaluation blocks of ``block_amplitudes``
    amplitudes and campaigns of ``pool_floor`` amplitudes of work or more
    allowed into the pool."""
    monkeypatch.setattr(ensembles, "_POOL_FLOOR", pool_floor)
    for record in ("created", "chunksizes", "starts", "shutdowns", "terminated"):
        monkeypatch.setattr(_InlineExecutor, record, [])
    monkeypatch.setattr(ensembles, "ProcessPoolExecutor", executor)
    _usable(monkeypatch, cpus)
    monkeypatch.setattr(bounds, "_BLOCK_AMPLITUDES", block_amplitudes)


@pytest.mark.parametrize("trials,jobs,cpus,workers", [
    (5, 5000, 64, 5),     # one process per block: 5 one-trial blocks
    (100, 4, 2, 2),       # one process per usable CPU
    (100, 3, 1, 1),       # one usable CPU of two: the campaign stays here
    (1, 2, 4, 1),         # --jobs 2 on a one-block campaign
])
def test_verify_ensemble_clamps_workers(monkeypatch, trials, jobs, cpus, workers):
    # a fork-started pool forks all max_workers processes at the first
    # submit, so --jobs must not reach the pool unclamped. ``workers`` counts
    # every process, this one included: it runs the first share of the
    # blocks as one range and a pool of workers - 1 processes the rest. One-trial
    # blocks make one block per trial, and a clamp to one process runs inline
    _inline_pool(monkeypatch, cpus, 4)
    config = EnsembleConfig(trials=trials, dim_a=2, dim_b=2,
                            regime=Regime.GENERAL, seed=3)
    summary = verify_ensemble(config, jobs=jobs)
    pooled = workers > 1
    own = math.ceil(trials / workers)
    # a few ranges of whole blocks per pool process, one task each: 5 -> 1
    # block here and ranges of 1, 100 -> 50 blocks here and ranges of 13
    size = math.ceil((trials - own) / (4 * (workers - 1))) if pooled else 0
    assert _InlineExecutor.created == ([workers - 1] if pooled else [])
    assert _InlineExecutor.starts == ([list(range(own, trials, size))] if pooled else [])
    assert _InlineExecutor.chunksizes == ([1] if pooled else [])
    # a campaign that ends well shuts no pool down: it leaves it idle, and a
    # second campaign of the same size takes it and starts none
    assert _InlineExecutor.shutdowns == []
    assert _InlineExecutor.terminated == []
    assert _summary_key(summary) == _summary_key(verify_ensemble(config))
    assert _summary_key(verify_ensemble(config, jobs=jobs)) == _summary_key(summary)
    assert _InlineExecutor.created == ([workers - 1] if pooled else [])
    assert _InlineExecutor.starts == 2 * ([list(range(own, trials, size))] if pooled else [])
    assert _InlineExecutor.shutdowns == []


@pytest.mark.parametrize("cpu_count,usable", [(4, 4), (None, 1)])
def test_usable_cpus_without_an_affinity_mask(monkeypatch, cpu_count, usable):
    # where the OS keeps no affinity mask: the CPU count, or 1 where unknown
    monkeypatch.delattr(ensembles.os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(ensembles.os, "cpu_count", lambda: cpu_count)
    assert ensembles._usable_cpus() == usable


@pytest.mark.parametrize("jobs", [1, 2])
@pytest.mark.parametrize("which,change,judged", [
    (lambda start, stop: start == 0, -1, 5),    # the range of this process loses a trial
    (lambda start, stop: stop == 6, -1, 5),     # the campaign's last range loses one
    (lambda start, stop: stop == 6, 1, 7),      # and judges one too many
], ids=["first-short", "last-short", "last-long"])
def test_ranges_that_judge_other_trial_counts_raise(monkeypatch, jobs, which, change, judged):
    # trials_run counts the trials the ranges judged: six one-trial blocks,
    # trials 0-2 here and 3-5 in the pool at --jobs 2, one range at --jobs 1.
    # A range that runs other trials than it was given is a bug
    _inline_pool(monkeypatch, 2, 4)
    run_range = ensembles._run_range
    monkeypatch.setattr(ensembles, "_run_range", lambda config, start, stop: run_range(
        config, start, stop + change * which(start, stop)))
    config = EnsembleConfig(trials=6, dim_a=2, dim_b=2, regime=Regime.GENERAL, seed=11)
    with pytest.raises(InternalError, match=f"judged {judged} of the 6 trials"):
        verify_ensemble(config, jobs=jobs)
    assert _InlineExecutor.created == ([1] if jobs == 2 else [])


@pytest.mark.parametrize("jobs", [2.5, "2", 0, -3, True])
def test_verify_ensemble_validates_jobs(monkeypatch, jobs):
    # as --jobs is validated: an integer (not a bool) of at least 1, checked
    # before anything is drawn, on a campaign large enough for a pool
    def drawn(*args):
        raise AssertionError("a range ran")

    monkeypatch.setattr(ensembles, "_run_range", drawn)
    _usable(monkeypatch, 8)
    config = EnsembleConfig(trials=60000, dim_a=2, dim_b=2, regime=Regime.GENERAL, seed=1)
    with pytest.raises(OutOfRange, match="jobs must be an integer >= 1"):
        verify_ensemble(config, jobs=jobs)


@pytest.mark.parametrize("dims,trials,pooled", [
    # campaign_large's two sizes in the benchmark
    ((10, 10), 250, False), ((32, 32), 250, True),
    # measured slower at --jobs 2 on a 2-core host, or within 10 % (see _POOL_FLOOR)
    ((10, 10), 1000, False), ((10, 10), 1250, False), ((32, 32), 100, False),
    ((32, 32), 150, False), ((32, 32), 200, False), ((2, 2), 10000, False),
    # a rectangular campaign of two blocks
    ((2, 5), 3000, False),
    # measured faster
    ((3, 3), 12000, True),
])
def test_campaigns_below_the_work_floor_run_in_this_process(monkeypatch, dims, trials, pooled):
    # starting a pool costs more than a small pool share saves: --jobs 2
    # runs such a campaign here, with the summary of --jobs 1, and one
    # amplitude more of work in the pool's share starts the pool
    _inline_pool(monkeypatch, 2, bounds._BLOCK_AMPLITUDES, pool_floor=ensembles._POOL_FLOOR)
    config = EnsembleConfig(trials=trials, dim_a=dims[0], dim_b=dims[1],
                            regime=Regime.GENERAL, seed=5)
    assert len(list(bounds._blocks(0, trials, *dims))) > 1
    summary = _summary_key(verify_ensemble(config, jobs=2))
    assert _InlineExecutor.created == ([1] if pooled else [])
    assert summary == _summary_key(verify_ensemble(config))
    # this process runs the first half of the blocks, rounded up, and the
    # pool the rest; a floor on either side of the share's work moves the
    # campaign across, so one pool is started in all, and left idle, not
    # shut down, by the campaign that ran in it
    size = bounds._block_size(*dims)
    blocks = -(-trials // size)
    share = trials - -(-blocks // 2) * size
    work = share * (dims[0] * dims[1] + ensembles._TRIAL_AMPLITUDES)
    monkeypatch.setattr(ensembles, "_POOL_FLOOR", work + 1 if pooled else work)
    assert _summary_key(verify_ensemble(config, jobs=2)) == summary
    assert _InlineExecutor.created == [1]
    assert len(_InlineExecutor.starts) == 1
    assert _InlineExecutor.shutdowns == []


@pytest.mark.parametrize("executor", [_InlineExecutor, _InlineExecutor314],
                         ids=["py3.10-3.13", "py3.14"])
@pytest.mark.parametrize("bad_trials, named", [({1, 4}, 1), ({4}, 4)])
def test_pooled_campaign_raises_for_its_first_bad_trial(monkeypatch, bad_trials, named,
                                                        executor):
    # six one-trial blocks at jobs=2: trials 0-2 run in this process as one
    # range, 3-5 in the pool as three, and a bug in either share is reported
    # for the first bad trial
    _inline_pool(monkeypatch, 2, 4, executor=executor)
    config = EnsembleConfig(trials=6, dim_a=2, dim_b=2, regime=Regime.GENERAL, seed=11,
                            weight_sampling="complex-random")
    bad_alphas = [ensembles._draw_trial(config, i)[0] for i in bad_trials]
    evaluate_rows = bounds._evaluate_rows

    def broken(alpha, *args, **kwargs):
        # a NaN concurrence on the bad trials: a bug the core's checks name
        batch = evaluate_rows(alpha, *args, **kwargs)
        exact = np.where(np.isin(alpha, bad_alphas), np.nan, batch.exact_concurrence)
        return dataclasses.replace(batch, exact_concurrence=exact)

    monkeypatch.setattr(bounds, "_evaluate_rows", broken)
    with pytest.raises(SanityFailure, match=f"trial {named},"):
        verify_ensemble(config, jobs=2)
    assert _InlineExecutor.created == [1]
    assert _InlineExecutor.starts == [[3, 4, 5]]
    # the bug ends the campaign: the pool's queued ranges are cancelled and
    # its one process terminated, with or without terminate_workers, and the
    # pool is not kept, so the next campaign starts one
    assert _InlineExecutor.shutdowns == [(False, True)]
    assert _InlineExecutor.terminated == [0]
    with pytest.raises(SanityFailure, match=f"trial {named},"):
        verify_ensemble(config, jobs=2)
    assert _InlineExecutor.created == [1, 1]
    assert _InlineExecutor.terminated == [0, 0]


def _broken_map(*args, **kwargs):
    """A pool's ``map`` once one of its processes has died."""
    raise BrokenProcessPool("A child process terminated abruptly")


def test_an_idle_pool_with_a_dead_process_is_replaced(monkeypatch):
    # an idle pool whose process died, whether or not the pool has seen the
    # death yet, is shut down when the next campaign would take it, and a
    # new pool runs the campaign as the idle one would have
    _inline_pool(monkeypatch, 2, 4)
    config = EnsembleConfig(trials=6, dim_a=2, dim_b=2, regime=Regime.GENERAL, seed=11)
    serial = _summary_key(verify_ensemble(config))
    assert _summary_key(verify_ensemble(config, jobs=2)) == serial
    dead = ensembles._idle[1]
    dead._processes[0].alive = False              # not seen by the pool
    assert _summary_key(verify_ensemble(config, jobs=2)) == serial
    seen = ensembles._idle[1]
    seen._broken = "A child process terminated abruptly"   # seen
    assert _summary_key(verify_ensemble(config, jobs=2)) == serial
    assert _InlineExecutor.created == [1, 1, 1]
    assert _InlineExecutor.shutdowns == [(True, False)] * 2
    assert ensembles._idle[1] not in (dead, seen)
    # a pool that breaks during a campaign ends it, and is not kept
    monkeypatch.setattr(_InlineExecutor, "map", _broken_map)
    with pytest.raises(BrokenProcessPool):
        verify_ensemble(config, jobs=2)
    assert ensembles._idle is None
    assert _InlineExecutor.created == [1, 1, 1]
    assert _InlineExecutor.terminated == [0]


class _MeetingExecutor(_InlineExecutor):
    """:class:`_InlineExecutor` whose ``map`` waits until two of its pools
    map: two campaigns that pass it hold a pool each at the same time.
    Records each pool made in ``made``."""

    meeting: threading.Barrier | None = None
    made: list = []

    def __init__(self, max_workers, initializer=None, initargs=()):
        super().__init__(max_workers, initializer, initargs)
        self.made.append(self)

    def map(self, fn, *iterables, chunksize=1):
        self.meeting.wait(timeout=60)
        return super().map(fn, *iterables, chunksize=chunksize)


def test_pooled_campaigns_in_threads_take_a_pool_each(monkeypatch):
    # two pooled campaigns at once in two threads: the second finds no idle
    # pool and starts its own, so no pool runs ranges of two campaigns. Each
    # summarises as when run alone; of the two pools given back, one is
    # kept idle and the other shut down
    _inline_pool(monkeypatch, 2, 4, executor=_MeetingExecutor)
    monkeypatch.setattr(_MeetingExecutor, "meeting", threading.Barrier(2))
    monkeypatch.setattr(_MeetingExecutor, "made", [])
    configs = [EnsembleConfig(trials=6, dim_a=2, dim_b=2, regime=Regime.GENERAL, seed=seed)
               for seed in (1, 2)]
    alone = [_summary_key(verify_ensemble(config)) for config in configs]
    with ThreadPoolExecutor(max_workers=2) as threads:
        runs = threads.map(verify_ensemble, configs, [2, 2], timeout=120)
        together = [_summary_key(summary) for summary in runs]
    assert together == alone
    assert _InlineExecutor.created == [1, 1]
    assert len({id(pool) for pool in _MeetingExecutor.made}) == 2
    assert _InlineExecutor.shutdowns == [(True, False)]
    assert ensembles._idle[1] in _MeetingExecutor.made


# 250 32x32 trials, as campaign_large runs them: at jobs=2 the pool's share
# of 122 trials passes the work floor
_POOLED_32X32 = EnsembleConfig(trials=250, dim_a=32, dim_b=32, regime=Regime.GENERAL,
                               seed=20240901)


@pytest.mark.skipif(ensembles._usable_cpus() < 2, reason="a pool needs two usable CPUs")
def test_pooled_campaigns_in_one_process_start_one_pool(monkeypatch):
    # the first campaign leaves its pool idle and the second takes it
    pool = mock.Mock(wraps=ensembles.ProcessPoolExecutor)
    monkeypatch.setattr(ensembles, "ProcessPoolExecutor", pool)
    serial = _summary_key(verify_ensemble(_POOLED_32X32))
    runs = [_summary_key(verify_ensemble(_POOLED_32X32, jobs=2)) for _ in range(2)]
    assert runs == [serial, serial]
    assert pool.call_count == 1


@pytest.mark.skipif(ensembles._usable_cpus() < 2, reason="a pool needs two usable CPUs")
def test_a_pool_process_killed_while_idle_does_not_fail_the_next_campaign():
    # SIGKILL, as the OOM killer sends, to the idle pool's process between
    # two campaigns: the next campaign, started as soon as the process has
    # died, whether or not the pool's manager thread has seen the death,
    # starts a new pool and ends with the summary of jobs=1, not
    # BrokenProcessPool
    serial = _summary_key(verify_ensemble(_POOLED_32X32))
    assert _summary_key(verify_ensemble(_POOLED_32X32, jobs=2)) == serial
    for _ in range(3):
        processes = list(ensembles._idle[1]._processes.values())
        assert len(processes) == 1
        for process in processes:
            os.kill(process.pid, signal.SIGKILL)
        assert multiprocessing.connection.wait([p.sentinel for p in processes], timeout=60)
        assert _summary_key(verify_ensemble(_POOLED_32X32, jobs=2)) == serial
        assert ensembles._idle[1]._processes.keys().isdisjoint(p.pid for p in processes)


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
    # the orthogonal regime's Gram-Schmidt inputs, at a masked negative seed
    # and at a seed of two 32-bit words
    ((2, 2), Regime.ORTHOGONAL, "real-grid", -5): list(zip(
        ["c18f3627c2d8", "6e652597a8df", "0449296f51ef", "da34feb46d5a", "043f7ee7342a",
         "7aa407366cd4", "1493116061da", "40156c92a877", "a80feeee61b9", "83ba3a9304e7",
         "6acb0cd32051", "c429b9b64802", "36c8d9e57595", "1d2454b4186e", "909453604dfe",
         "dd22a4c97779", "68b8c3673941", "37e6a7f12d69", "b50e272a8c43", "0d09c2984452"],
        [0.0] * 20)),
    ((10, 10), Regime.ORTHOGONAL, "complex-random", 2 ** 40): list(zip(
        ["53f6c6d9c637", "42b6d87d05ac", "8d0f1ee8deed", "fe647425b745", "db5e1645edd7",
         "2ea12a45a99e", "47c4d6b86e76", "3d788b0eebc0", "8ecf758e8041", "51ab1dc36f4c",
         "1a947907c2c3", "e6e642d52487", "7556da922ced", "689fca6e6f20", "e07358c85738",
         "b21d847bb3d8", "68614ebbab3b", "20fae14aee53", "f51c0acca803", "321f82af4d6e"],
        [0.0] * 20)),
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
    # a trial's row does not depend on the range it lands in: the trial
    # range [0, T) gives the rows of the ranges [0, 7) and [7, T)
    config = EnsembleConfig(trials=trials, dim_a=dims[0], dim_b=dims[1], regime=regime,
                            seed=20240901, weight_sampling="complex-random", tol=-1.0)
    whole_rows = _rows(config, 0, trials)
    split_rows = [_rows(config, 0, 7), _rows(config, 7, trials)]
    assert whole_rows.shape == (trials, 4)
    assert np.array_equal(whole_rows, np.concatenate(split_rows), equal_nan=True)


@pytest.mark.parametrize("regime", list(Regime))
def test_ranges_across_block_boundaries_match_one_range(monkeypatch, regime):
    # blocks of 36 amplitudes hold four 3x3 trials, and a range is cut into
    # blocks from its own start: [6, 13) into [6, 10) and [10, 13), across
    # the block boundary at 8 of a range from 0. Ranges that start and end
    # mid-block give the rows of one range in blocks of the default size
    config = EnsembleConfig(trials=30, dim_a=3, dim_b=3, regime=regime, seed=20240901,
                            weight_sampling="complex-random", tol=-1.0)
    whole_rows = _rows(config, 0, 30)
    monkeypatch.setattr(bounds, "_BLOCK_AMPLITUDES", 36)
    assert list(bounds._blocks(6, 13, 3, 3)) == [(6, 10), (10, 13)]
    split_rows = [_rows(config, lo, hi)
                  for lo, hi in ((0, 6), (6, 13), (13, 30))]
    assert np.array_equal(whole_rows, np.concatenate(split_rows), equal_nan=True)


@pytest.mark.parametrize("dims,trials", [((32, 32), 40), ((5, 2), 30), ((2, 5), 30),
                                         ((3, 7), 30)])
def test_rows_do_not_depend_on_the_concurrence_route_of_their_neighbours(dims, trials):
    # a split of 1 makes a biorthogonal component a product state, which
    # takes the SVD fallback of the concurrence while the other matrices of
    # its stack take the purity route: the stack mixes both, and each
    # trial's row is still the same in one range, in two and on its own
    config = EnsembleConfig(trials=trials, dim_a=dims[0], dim_b=dims[1],
                            regime=Regime.BIORTHOGONAL, seed=20240901,
                            weight_sampling="complex-random", tol=-1.0)
    matrices = []
    for index in range(trials):
        alpha, beta, phi, varphi = ensembles._draw_trial(config, index)
        raw = alpha * phi + beta * varphi
        matrices += [phi, varphi, raw / np.linalg.norm(raw)]
    c_sq = _schmidt_concurrence(np.linalg.svd(np.reshape(matrices, (-1, *dims)),
                                              compute_uv=False)) ** 2
    below_floor = c_sq < _GRAM_FLOOR * (max(dims) + 1) ** 2
    assert below_floor.any() and not below_floor.all()

    whole_rows = _rows(config, 0, trials)
    split_rows = [_rows(config, 0, 7), _rows(config, 7, trials)]
    one_rows = [_rows(config, index, index + 1) for index in range(trials)]
    assert np.array_equal(whole_rows, np.concatenate(split_rows), equal_nan=True)
    assert np.array_equal(whole_rows, np.concatenate(one_rows), equal_nan=True)


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
    # 4; jobs=4 on 4 CPUs runs the first 4 blocks here as one range and maps
    # the other 11 onto 3 pool processes as ranges of one block, and the
    # inline executor runs them in order without starting a process
    _inline_pool(monkeypatch, 4, 60)
    config = EnsembleConfig(trials=57, dim_a=3, dim_b=5, regime=Regime.ORTHOGONAL,
                            seed=-5, weight_sampling="complex-random", tol=-1.0)
    ranged = verify_ensemble(config, jobs=4)
    serial = verify_ensemble(config)
    assert _InlineExecutor.created == [3]
    assert _InlineExecutor.chunksizes == [1]
    assert _InlineExecutor.starts == [list(range(16, 57, 4))]
    assert ranged.violations == serial.violations
    assert [v.trial_index for v in ranged.violations] == list(range(57))
    assert _summary_key(ranged) == _summary_key(serial)
    # recorded: 17 of the 57 zero-delta excesses lie above tol = -1
    assert ranged.zero_delta_lower_excesses == 17


@pytest.mark.parametrize("regime", list(Regime))
def test_chunked_ranges_match_one_chunk(monkeypatch, regime):
    # blocks of 60 amplitudes hold four 3x5 trials and chunks of 3 blocks 12:
    # jobs=2 on 2 CPUs runs the first 25 blocks here as one range of 9
    # chunks and maps the other 25 onto the pool as 4 ranges of 7 blocks or
    # fewer, 3 chunks each. Each chunk judges and digests its own trials; the
    # merged summary is the one of the campaign as one chunk, at a tol that
    # flags every trial and at the median margin (0 outside the biorthogonal
    # regime, where the closed-form error is NaN)
    _inline_pool(monkeypatch, 2, 60)
    config = EnsembleConfig(trials=200, dim_a=3, dim_b=5, regime=regime, seed=-5,
                            weight_sampling="complex-random", tol=-1.0)
    margins = sorted(v.margin for v in verify_ensemble(config).violations)
    assert len(margins) == 200
    for tol in (-1.0, margins[100]):
        config = dataclasses.replace(config, tol=tol)
        monkeypatch.setattr(ensembles, "_CHUNK_BLOCKS", 50)
        whole = verify_ensemble(config)
        monkeypatch.setattr(ensembles, "_CHUNK_BLOCKS", 3)
        chunked = verify_ensemble(config, jobs=2)
        assert _InlineExecutor.starts[-1] == [100, 128, 156, 184]
        assert chunked.violations == whole.violations
        assert _summary_key(chunked) == _summary_key(whole)


@pytest.mark.parametrize("dims", [(3, 5), (5, 3), (10, 10), (32, 32)])
def test_campaign_output_does_not_depend_on_block_or_chunk_size(monkeypatch, dims):
    # the summary, every trial digested at tol = -1, is the same at the
    # default block and chunk sizes as at blocks of 8192 amplitudes in chunks
    # of 16, at jobs=1 and 2: three blocks of 8192 amplitudes, the last one
    # short, are two of the default 16384
    sizes = [(8192, 16), (bounds._BLOCK_AMPLITUDES, ensembles._CHUNK_BLOCKS)]
    trials = 2 * (8192 // (dims[0] * dims[1])) + 5
    assert len(list(bounds._blocks(0, trials, *dims))) == 2
    for regime in Regime:
        for weights in ensembles.WEIGHT_MODES:
            config = EnsembleConfig(trials=trials, dim_a=dims[0], dim_b=dims[1], regime=regime,
                                    seed=20240901, weight_sampling=weights, tol=-1.0)
            summaries = []
            for block_amplitudes, chunk_blocks in sizes:
                _inline_pool(monkeypatch, 2, block_amplitudes)
                monkeypatch.setattr(ensembles, "_CHUNK_BLOCKS", chunk_blocks)
                summaries += [verify_ensemble(config, jobs=jobs).to_dict() for jobs in (1, 2)]
            assert len(summaries[0]["violations"]) == trials
            assert all(summary == summaries[0] for summary in summaries[1:]), (regime, weights)


def test_campaign_memory_does_not_grow_with_its_trials(monkeypatch):
    # a range keeps one chunk's draws, columns and rows at a time, and the
    # campaign no per-trial array: with chunks of 2 blocks of 256 2x2 trials,
    # a campaign ten times longer peaks at about the same traced memory
    monkeypatch.setattr(bounds, "_BLOCK_AMPLITUDES", 1024)
    monkeypatch.setattr(ensembles, "_CHUNK_BLOCKS", 2)

    def peak(trials):
        config = EnsembleConfig(trials=trials, dim_a=2, dim_b=2, regime=Regime.GENERAL,
                                seed=1)
        tracemalloc.start()
        try:
            assert verify_ensemble(config).passed
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    peak(1500)   # numpy's and the module's one-time allocations
    short, long = peak(1500), peak(15000)
    assert long <= 1.5 * short, (short, long)


class _Sentinel(Exception):
    pass


@pytest.mark.parametrize("trials", [2 ** 63, 2 ** 64 - 1])
@pytest.mark.parametrize("jobs", [1, 2])
def test_largest_campaigns_seed_one_chunk_at_a_time(monkeypatch, trials, jobs):
    # the largest trial counts the config accepts: no campaign-length array
    # is built, so the first seeding is of the first trials, one chunk of
    # them at most, here or, at jobs=2, in this process's range; stopped
    # there, no campaign is run
    _inline_pool(monkeypatch, 2, bounds._BLOCK_AMPLITUDES)
    seeded = []

    def first_seeding(seed, indices):
        seeded.append(list(indices))
        raise _Sentinel

    monkeypatch.setattr(ensembles, "_seed_words", first_seeding)
    config = EnsembleConfig(trials=trials, dim_a=2, dim_b=2, regime=Regime.GENERAL, seed=1)
    with pytest.raises(_Sentinel):
        verify_ensemble(config, jobs=jobs)
    chunk = ensembles._CHUNK_BLOCKS * bounds._block_size(2, 2)
    assert seeded == [list(range(chunk))]
    assert _InlineExecutor.created == ([1] if jobs == 2 else [])


_SEEDS = [0, 1, 2 ** 32 - 1, 2 ** 32, 2 ** 63, -5, 2 ** 64 - 1]
# up to 2**63 and 2**64 - 1: a campaign of 2**64 - 1 trials seeds indices up
# to 2**64 - 2
_INDICES = [0, 1, 2 ** 32 - 1, 2 ** 32, 2 ** 40 + 3, 2 ** 63, 2 ** 64 - 1]


@pytest.mark.parametrize("seed", _SEEDS)
def test_seeding_matches_default_rng(seed):
    # one and two 32-bit words on either side of the entropy, and a negative
    # seed masked to 64 bits
    masked = ensembles._mask_seed(seed)
    words = ensembles._seed_words(seed, _INDICES)
    assert words.dtype == np.uint64 and words.shape == (len(_INDICES), 4)
    for row, index in zip(words, _INDICES):
        expected = np.random.SeedSequence([masked, index]).generate_state(4, np.uint64)
        assert np.array_equal(row, expected)
    assert list(ensembles._pcg_states(words)) == [
        np.random.default_rng([masked, index]).bit_generator.state for index in _INDICES]


def _generator():
    """A generator for a draw's caller to load trial states into."""
    return np.random.Generator(np.random.PCG64(0))


def _rows(config, start, stop):
    """The rows of trials ``[start, stop)`` as a range of their own computes them."""
    return ensembles._trial_rows(config, start, stop, _generator(), _Buffers())


def _oracle_trial(config, index):
    """Trial ``index`` drawn by the public generators from ``default_rng([seed, index])``."""
    return _oracle_draw(config, np.random.default_rng([ensembles._mask_seed(config.seed), index]))


def _oracle_state_trial(config, state):
    """The trial the public generators draw from the PCG64 ``state``."""
    rng = _generator()
    rng.bit_generator.state = state
    return _oracle_draw(config, rng)


def _oracle_draw(config, rng):
    """``(alpha, beta, phi, varphi)`` of one trial, by the public generators on ``rng``."""
    dims = config.dim_a, config.dim_b
    if config.regime is Regime.ORTHOGONAL:
        pair = orthogonal_pair(*dims, rng)
    elif config.regime is Regime.BIORTHOGONAL:
        split = int(rng.integers(1, dims[0])), int(rng.integers(1, dims[1]))
        pair = biorthogonal_pair(*dims, *split, rng)
    else:
        pair = haar_state(*dims, rng), haar_state(*dims, rng)
    if config.weight_sampling == "real-grid":
        a_sq = int(rng.integers(1, 100)) / 100.0
        alpha, beta = complex(math.sqrt(a_sq)), complex(math.sqrt(1.0 - a_sq))
    else:
        mag = float(rng.uniform(1e-6, 1.0 - 1e-6))
        th = rng.uniform(0.0, 2.0 * math.pi, size=2)
        alpha = math.sqrt(mag) * complex(math.cos(th[0]), math.sin(th[0]))
        beta = math.sqrt(1.0 - mag) * complex(math.cos(th[1]), math.sin(th[1]))
    return alpha, beta, pair[0].amplitudes, pair[1].amplitudes


def _trial_bytes(alpha, beta, phi, varphi):
    return (np.ascontiguousarray(phi).tobytes() + np.ascontiguousarray(varphi).tobytes()
            + np.array([alpha, beta], dtype=np.complex128).tobytes())


def _drawn(config, indices):
    """Trials ``indices`` of a campaign, drawn as one block."""
    return ensembles._draw_block(config, ensembles._seed_words(config.seed, indices),
                                 _generator(), _Buffers())


def _assert_rows_match_oracle(config, indices, drawn):
    assert all(len(x) == len(indices) for x in drawn)
    for row, index in enumerate(indices):
        assert (_trial_bytes(*(x[row] for x in drawn))
                == _trial_bytes(*_oracle_trial(config, index))), f"trial {index}"


@pytest.mark.parametrize("width", [1, 3, 8, 9, 50, 2048])
def test_scaling_rows_in_place_rounds_as_complex_division(width):
    # the block draw normalises complex rows in place, multiplying their
    # real view by 1 / norm; the draws it must reproduce divide the complex
    # rows by the norm. numpy rounds that division as (re + im * 0) * (1 / d),
    # which gives the same bits
    rng = np.random.default_rng(width)
    z = rng.standard_normal((16, width)) + 1j * rng.standard_normal((16, width))
    d = np.exp(rng.uniform(-30.0, 30.0, 16))
    scaled = z.copy()
    ensembles._scale_rows(scaled, d)
    assert scaled.tobytes() == (z / d[:, None]).tobytes()


@pytest.mark.parametrize("dims,trials", [((2, 2), 24), ((3, 3), 24), ((2, 5), 24), ((5, 2), 24),
                                         ((3, 7), 24), ((10, 10), 12), ((32, 32), 5)])
@pytest.mark.parametrize("regime", list(Regime))
@pytest.mark.parametrize("weights", ["real-grid", "complex-random"])
def test_draw_block_matches_public_generators(dims, trials, regime, weights):
    # bit for bit, over a whole range, a split range, one-row calls and a
    # scattered index set, as the redraw of violations takes it
    for seed in (20240901, -5):
        config = EnsembleConfig(trials=trials, dim_a=dims[0], dim_b=dims[1], regime=regime,
                                seed=seed, weight_sampling=weights)
        whole = _drawn(config, range(trials))
        _assert_rows_match_oracle(config, range(trials), whole)
        split = [_drawn(config, range(0, 3)), _drawn(config, range(3, trials))]
        for part, joined in zip(whole, map(np.concatenate, zip(*split))):
            assert part.tobytes() == joined.tobytes()
        for index in (0, trials - 1):
            assert (_trial_bytes(*ensembles._draw_trial(config, index))
                    == _trial_bytes(*_oracle_trial(config, index)))
        scattered = [trials - 1, 0, 2 ** 40 + 3]
        _assert_rows_match_oracle(config, scattered, _drawn(config, scattered))


def test_orthogonal_pair_redraws_collinear_candidates(monkeypatch):
    # a tolerance of 0.9 rejects many first candidates at 2x2: orthogonal_pair
    # draws further candidates from the same stream until one leaves a residual
    # of 0.9, and Gram-Schmidts that one
    monkeypatch.setattr(ensembles, "_COLLINEAR_TOL", 0.9)
    rejected = 0
    for index in range(40):
        rng = np.random.default_rng([11, index])
        phi = ensembles._haar_vector(4, rng)
        while True:
            cand = ensembles._haar_vector(4, rng)
            v = cand - np.vdot(phi, cand) * phi
            if np.linalg.norm(v) >= 0.9:
                break
            rejected += 1
        v = v / np.linalg.norm(v)
        v = v - np.vdot(phi, v) * phi
        pair = orthogonal_pair(2, 2, np.random.default_rng([11, index]))
        assert pair[0].amplitudes.tobytes() == phi.tobytes()
        assert pair[1].amplitudes.tobytes() == (v / np.linalg.norm(v)).tobytes()
    assert 0 < rejected


def test_orthogonal_pair_redraws_are_limited(monkeypatch):
    # no residual norm reaches 2: every candidate is rejected, and the third
    # rejection raises a bug's InternalError after four Haar vectors
    monkeypatch.setattr(ensembles, "_COLLINEAR_TOL", 2.0)
    monkeypatch.setattr(ensembles, "_REDRAW_LIMIT", 3)
    rng, drawn = np.random.default_rng(1), np.random.default_rng(1)
    with pytest.raises(InternalError, match="no orthogonal partner found in 3 redraws"):
        orthogonal_pair(2, 2, rng)
    drawn.standard_normal(4 * 2 * 4)
    assert rng.bit_generator.state == drawn.bit_generator.state


# --- raw-word draws against numpy's own calls -------------------------------------


def _per_call_draws(config, words, rng, buffers):
    """``_block_draws`` through numpy's own calls on ``rng``: for each trial a state
    load, the splits by ``integers``, one ``standard_normal`` and ``_weight_variates``.
    The normals are an array of their own; ``buffers`` is not used."""
    dim_a, dim_b = config.dim_a, config.dim_b
    normals = np.zeros((len(words), 4 * dim_a * dim_b))
    splits, variates = [], []
    for row, state in enumerate(ensembles._pcg_states(words)):
        rng.bit_generator.state = state
        split, count = None, 4 * dim_a * dim_b
        if config.regime is Regime.BIORTHOGONAL:
            split = int(rng.integers(1, dim_a)), int(rng.integers(1, dim_b))
            count = 2 * (split[0] * split[1] + (dim_a - split[0]) * (dim_b - split[1]))
        normals[row, :count] = rng.standard_normal(count)
        splits.append(split)
        variates.append(ensembles._weight_variates(rng, config.weight_sampling))
    return normals, splits, np.array(variates, dtype=np.float64)


def _assert_draws_equal(config, drawn, expected):
    normals, splits, variates = drawn
    assert splits == expected[1]
    assert variates.tobytes() == expected[2].tobytes()
    for row, split in enumerate(splits):
        count = ensembles._normal_count(config, split)
        assert normals[row, :count].tobytes() == expected[0][row, :count].tobytes(), f"row {row}"


@pytest.mark.parametrize("dims,trials", [((2, 2), 60), ((2, 5), 60), ((5, 2), 60), ((3, 3), 60),
                                         ((10, 10), 20)])
@pytest.mark.parametrize("regime", list(Regime))
@pytest.mark.parametrize("weights", ["real-grid", "complex-random"])
def test_raw_word_draws_match_numpy_calls(monkeypatch, dims, trials, regime, weights):
    # 2x5 and 5x2 draw one split from the low half of a word and carry the
    # high half into a real-grid weight; 2x2 draws no split, 3x3 and 10x10 two
    for seed in (0, 7, -5, 2 ** 40):
        config = EnsembleConfig(trials=trials, dim_a=dims[0], dim_b=dims[1], regime=regime,
                                seed=seed, weight_sampling=weights)
        words = ensembles._seed_words(seed, np.arange(trials))
        expected = _per_call_draws(config, words, _generator(), _Buffers())
        _assert_draws_equal(
            config, ensembles._block_draws(config, words, _generator(), _Buffers()), expected)
        cuts = [0, *sorted(np.random.default_rng([trials, 5]).choice(
            np.arange(1, trials), size=4, replace=False).tolist()), trials]
        parts = [ensembles._block_draws(config, words[lo:hi], _generator(), _Buffers())
                 for lo, hi in zip(cuts, cuts[1:])]
        _assert_draws_equal(config, (np.concatenate([p[0] for p in parts]),
                                     [s for p in parts for s in p[1]],
                                     np.concatenate([p[2] for p in parts])), expected)
        # the whole trial, arithmetic included, is the per-call draws' trial
        whole = ensembles._draw_block(config, words, _generator(), _Buffers())
        with monkeypatch.context() as patch:
            patch.setattr(ensembles, "_block_draws", _per_call_draws)
            reference = ensembles._draw_block(config, words, _generator(), _Buffers())
        for part, ref in zip(whole, reference):
            assert part.tobytes() == ref.tobytes()


_MASK64 = (1 << 64) - 1
_MASK128 = (1 << 128) - 1


def _state_before(output, inc, high):
    """A PCG64 state whose next raw output is ``output``, its stepped state's high word ``high``.

    PCG64 steps its LCG, ``s -> s * M + inc``, then outputs XSL-RR of the
    new state: ``(hi ^ lo)`` rotated right by the top 6 bits of ``hi``.
    """
    rot = high >> 58
    lo = high ^ ((output << rot | output >> (64 - rot)) & _MASK64 if rot else output)
    return (((high << 64 | lo) - inc) * pow(ensembles._PCG_MULT, -1, 1 << 128)) & _MASK128


def _steps_back(state, inc, steps):
    inverse = pow(ensembles._PCG_MULT, -1, 1 << 128)
    for _ in range(steps):
        state = ((state - inc) * inverse) & _MASK128
    return state


def _pcg_state(state, inc):
    return {"bit_generator": "PCG64", "state": {"state": state, "inc": inc},
            "has_uint32": 0, "uinteger": 0}


_INC = 0x5851F42D4C957F2D14057B7EF767814F | 1


def _weight_state(leftover):
    """A trial state of a general 2x2 pair whose weight draws ``u`` with ``(u * 99) mod 2**32 == leftover``.

    That is the word after the pair's 16 normals. numpy redraws ``u`` when
    ``leftover`` is below 2**32 mod 99 = 4. The ziggurat takes one word per
    normal unless a draw falls outside its fast path: states that take more
    are skipped.
    """
    u = leftover * pow(99, -1, 1 << 32) % (1 << 32)
    bits = np.random.PCG64(0)
    for high in range(1 << 40, (1 << 40) + 64):
        after = _state_before(0x9E3779B9 << 32 | u, _INC, high)
        start = _steps_back(after, _INC, 16)
        bits.state = _pcg_state(start, _INC)
        np.random.Generator(bits).standard_normal(16)
        if bits.state["state"]["state"] == after:
            return _pcg_state(start, _INC)
    raise AssertionError("no state found")


def _split_state(low, high):
    """A trial state whose first raw word has the 32-bit halves ``low`` and ``high``."""
    return _pcg_state(_state_before(high << 32 | low, _INC, 0xD1B54A32D192ED03), _INC)


_INV3 = pow(3, -1, 1 << 32)
_RETRY_CASES = [
    # general 2x2: a fresh weight word whose low half is redrawn, or just kept
    (2, 2, Regime.GENERAL, lambda: _weight_state(1), True),
    (2, 2, Regime.GENERAL, lambda: _weight_state(4), False),
    # 2x3: the split takes the low half and the weight the buffered high
    # half, which is redrawn from a fresh word after the normals
    (2, 3, Regime.BIORTHOGONAL, lambda: _split_state(12345, pow(99, -1, 1 << 32) * 2 % (1 << 32)),
     True),
    # span 3: numpy redraws a 32-bit split draw u where (u * 3) mod 2**32 < 1,
    # that is u = 0, on side a of 4x4 and side b of 2x4; it keeps u = 1/3
    (4, 4, Regime.BIORTHOGONAL, lambda: _split_state(0, 0x7F4A7C15), True),
    (2, 4, Regime.BIORTHOGONAL, lambda: _split_state(0, 0x7F4A7C15), True),
    (4, 4, Regime.BIORTHOGONAL, lambda: _split_state(_INV3, 0x7F4A7C15), False),
]


def _logged_variates(monkeypatch):
    """Log each ``_weight_variates`` call, which only a replay makes."""
    calls, weight_variates = [], ensembles._weight_variates
    monkeypatch.setattr(ensembles, "_weight_variates",
                        lambda *a: calls.append(1) or weight_variates(*a))
    return calls


def _logged_replays(monkeypatch, states):
    """Load ``states[w]`` for a row whose first seed word is ``w``, and log the
    rows of each state load (the block's, then the replays') and each
    ``_weight_variates`` call."""
    loads = []
    monkeypatch.setattr(ensembles, "_pcg_states", lambda words: (
        loads.append(words[:, 0].tolist()) or (states[row] for row in loads[-1])))
    return loads, _logged_variates(monkeypatch)


@pytest.mark.parametrize("dim_a,dim_b,regime,make_state,redrawn", _RETRY_CASES)
def test_lemire_redraws_go_through_numpy_calls(monkeypatch, dim_a, dim_b, regime, make_state,
                                               redrawn):
    # the raw-word draw finds a trial whose word numpy would discard, and
    # draws that trial again through numpy's own calls: its draws are numpy's
    state = make_state()
    config = EnsembleConfig(trials=1, dim_a=dim_a, dim_b=dim_b, regime=regime, seed=0)
    rng = np.random.Generator(np.random.PCG64(0))
    rng.bit_generator.state = state
    split = None
    if regime is Regime.BIORTHOGONAL:
        split = int(rng.integers(1, dim_a)), int(rng.integers(1, dim_b))
    rng.standard_normal(ensembles._normal_count(config, split))
    weight = int(rng.integers(1, 100))
    words = np.zeros((2, 4), dtype=np.uint64)
    words[1, 0] = 1
    loads, variates = _logged_replays(monkeypatch, [state, state])
    drawn = ensembles._block_draws(config, words, _generator(), _Buffers())
    assert loads[1:] == ([[0], [1]] if redrawn else [])
    assert len(variates) == len(loads) - 1
    assert drawn[1] == [split, split]
    assert drawn[2].tolist() == [[weight], [weight]]
    _assert_draws_equal(config, drawn, _per_call_draws(config, words, _generator(), _Buffers()))
    drawn = ensembles._draw_block(config, words, _generator(), _Buffers())
    assert drawn[0].tolist() == [math.sqrt(weight / 100.0)] * 2
    for row in range(2):
        assert (_trial_bytes(*(x[row] for x in drawn))
                == _trial_bytes(*_oracle_state_trial(config, state)))


@pytest.mark.parametrize("dim_a,dim_b,regime,make_states,flagged", [
    # side a's split word is redrawn where its low half is 0, on rows 0 and 3
    (4, 4, Regime.BIORTHOGONAL,
     lambda: [_split_state(low, high) for low, high in
              [(0, 0x7F4A7C15), (_INV3, 0x7F4A7C15), (5, 0x12345), (0, 0x2468), (_INV3, 7)]],
     [0, 3]),
    # a weight word is redrawn where its leftover is below 4, on rows 1 and 3
    (2, 2, Regime.GENERAL,
     lambda: [_weight_state(leftover) for leftover in (4, 1, 5, 2)], [1, 3]),
])
def test_blocks_redraw_exactly_their_flagged_rows(monkeypatch, dim_a, dim_b, regime,
                                                  make_states, flagged):
    # each row of the block loads its own state, wherever it is drawn or
    # redrawn, so a loop that redraws the wrong row, or from the wrong
    # state, leaves a row unlike its trial
    states = make_states()
    config = EnsembleConfig(trials=len(states), dim_a=dim_a, dim_b=dim_b, regime=regime,
                            seed=0)
    words = np.zeros((len(states), 4), dtype=np.uint64)
    words[:, 0] = np.arange(len(states))
    loads, variates = _logged_replays(monkeypatch, states)
    drawn = ensembles._draw_block(config, words, _generator(), _Buffers())
    assert loads == [list(range(len(states))), *([row] for row in flagged)]
    assert len(variates) == len(flagged)
    for row, state in enumerate(states):
        assert (_trial_bytes(*(x[row] for x in drawn))
                == _trial_bytes(*_oracle_state_trial(config, state))), f"row {row}"


def test_lemire_states_are_built_as_described():
    bits = np.random.PCG64(0)
    for leftover in (1, 4):
        bits.state = _weight_state(leftover)
        np.random.Generator(bits).standard_normal(16)
        assert (bits.random_raw() & 0xFFFFFFFF) * 99 % (1 << 32) == leftover
    bits.state = _split_state(0, 0x7F4A7C15)
    assert bits.random_raw() == 0x7F4A7C15 << 32


class _LoggedBits:
    """A PCG64 that logs state loads and ``random_raw`` calls."""

    def __init__(self, bits, log):
        self._bits, self._log = bits, log

    @property
    def state(self):
        return self._bits.state

    @state.setter
    def state(self, value):
        self._log.append("state")
        self._bits.state = value

    def random_raw(self, *args):
        self._log.append("random_raw")
        return self._bits.random_raw(*args)


@pytest.mark.parametrize("dims", [(2, 2), (2, 5), (3, 3)])
@pytest.mark.parametrize("regime", list(Regime))
@pytest.mark.parametrize("weights", ["real-grid", "complex-random"])
def test_trials_make_three_generator_calls(monkeypatch, dims, regime, weights):
    # a state load, one standard_normal and one random_raw per trial, and one
    # more random_raw for the splits of a biorthogonal pair with a side above 2
    log = []
    real_generator = np.random.Generator

    class LoggedGenerator:
        def __init__(self, bits):
            self._rng = real_generator(bits)
            self.bit_generator = _LoggedBits(bits, log)

        def __getattr__(self, name):
            log.append(name)
            return getattr(self._rng, name)

    monkeypatch.setattr(np.random, "Generator", LoggedGenerator)
    config = EnsembleConfig(trials=40, dim_a=dims[0], dim_b=dims[1], regime=regime,
                            seed=20240901, weight_sampling=weights)
    _drawn(config, range(config.trials))
    trials = config.trials
    split_words = trials if regime is Regime.BIORTHOGONAL and max(dims) > 2 else 0
    # a split that draws one half leaves the other for a real-grid weight
    carried = trials if split_words and min(dims) == 2 and weights == "real-grid" else 0
    assert sorted(set(log)) == ["random_raw", "standard_normal", "state"]
    assert log.count("state") == log.count("standard_normal") == trials
    assert log.count("random_raw") == trials + split_words - carried


_EVERY = 5


def _forced(seed, index):
    """Whether a campaign under :func:`_force_state` loads the forced state for trial ``index``."""
    return ensembles._seed_words(seed, [index])[0, 0] % _EVERY == 0


def _force_state(monkeypatch, state):
    """Load ``state`` for every trial that :func:`_forced` names, by the first
    word of its seed, and log each ``_weight_variates`` call."""
    pcg_states = ensembles._pcg_states
    monkeypatch.setattr(ensembles, "_pcg_states", lambda words: (
        state if word % _EVERY == 0 else own
        for word, own in zip(words[:, 0].tolist(), pcg_states(words))))
    return _logged_variates(monkeypatch)


def test_campaign_builds_one_generator_per_range(monkeypatch):
    # a range loads its trials' states, and its violations' states for their
    # digests, into one generator of its own, whatever its chunk and block
    # counts: a range of three blocks in two chunks, replays of trials whose
    # weight word numpy discards included, builds one PCG64
    replays = _force_state(monkeypatch, _weight_state(1))
    built = []
    real_pcg64 = np.random.PCG64
    monkeypatch.setattr(np.random, "PCG64", lambda *a: built.append(a) or real_pcg64(*a))
    monkeypatch.setattr(bounds, "_BLOCK_AMPLITUDES", 4 * 40)
    monkeypatch.setattr(ensembles, "_CHUNK_BLOCKS", 2)
    config = EnsembleConfig(trials=89, dim_a=2, dim_b=2, regime=Regime.GENERAL,
                            seed=20240901, tol=-1.0)
    assert len(list(bounds._blocks(0, config.trials, 2, 2))) == 3
    summary = verify_ensemble(config)
    assert len(summary.violations) == config.trials
    assert replays
    assert len(built) == 1


@pytest.mark.parametrize("dims,regime,make_state", [
    ((2, 2), Regime.GENERAL, lambda: _weight_state(1)),
    ((2, 2), Regime.ORTHOGONAL, lambda: _weight_state(1)),
    ((4, 4), Regime.BIORTHOGONAL, lambda: _split_state(0, 0x7F4A7C15)),
    ((2, 3), Regime.BIORTHOGONAL,
     lambda: _split_state(12345, pow(99, -1, 1 << 32) * 2 % (1 << 32))),
], ids=["general-weight", "orthogonal-weight", "biorthogonal-split", "biorthogonal-half"])
def test_campaign_replays_call_no_public_generator(monkeypatch, dims, regime, make_state):
    # about one trial in five loads a state of which numpy discards a weight
    # or split word. In blocks of three trials and chunks of two blocks, all
    # drawn in the range's one set of buffers and, at tol = -1, drawn again
    # for their digests, each such trial replays numpy's calls, twice, and no
    # public generator is called: every digest is its trial's
    monkeypatch.setattr(bounds, "_BLOCK_AMPLITUDES", 3 * dims[0] * dims[1])
    monkeypatch.setattr(ensembles, "_CHUNK_BLOCKS", 2)
    config = EnsembleConfig(trials=26, dim_a=dims[0], dim_b=dims[1], regime=regime,
                            seed=20240901, tol=-1.0)
    state = make_state()
    forced = [index for index in range(config.trials) if _forced(config.seed, index)]
    assert forced
    digests = [ensembles._digest(*(_oracle_state_trial(config, state) if index in forced
                                   else _oracle_trial(config, index)))
               for index in range(config.trials)]

    def public(*args):
        raise AssertionError("a public generator was called")

    for name in ("haar_state", "orthogonal_pair", "biorthogonal_pair"):
        monkeypatch.setattr(ensembles, name, public)
    replays = _force_state(monkeypatch, state)
    summary = verify_ensemble(config)
    assert [v.digest for v in summary.violations] == digests
    assert len(replays) == 2 * len(forced)


# --- block buffers reused across a range -------------------------------------------


def _range_rows(monkeypatch, config):
    """The rows of ``config``'s trials as one range computes them, chunk by
    chunk, and the digests of its violations."""
    rows = []
    trial_rows = ensembles._trial_rows
    with monkeypatch.context() as patch:
        patch.setattr(ensembles, "_trial_rows",
                      lambda *args: rows.append(trial_rows(*args)) or rows[-1])
        violations = ensembles._run_range(config, 0, config.trials)[0]
    return np.concatenate(rows), [v.digest for v in violations]


@pytest.mark.parametrize("dims", [(2, 2), (3, 4), (4, 3)])
@pytest.mark.parametrize("regime", list(Regime))
@pytest.mark.parametrize("weights", ["real-grid", "complex-random"])
def test_reused_buffers_give_every_trial_its_own_row(monkeypatch, dims, regime, weights):
    # blocks of three trials and chunks of two blocks: 26 trials are chunks
    # of 6, 6, 6, 6 and 2 trials and end in a short block, every block drawn,
    # evaluated and, at tol = -1, redrawn for its digests in the range's one
    # set of buffers. Each trial's row and digest are those it has on its own
    monkeypatch.setattr(bounds, "_BLOCK_AMPLITUDES", 3 * dims[0] * dims[1])
    monkeypatch.setattr(ensembles, "_CHUNK_BLOCKS", 2)
    config = EnsembleConfig(trials=26, dim_a=dims[0], dim_b=dims[1], regime=regime,
                            seed=20240901, weight_sampling=weights, tol=-1.0)
    rows, digests = _range_rows(monkeypatch, config)
    assert rows.shape == (26, 4)
    for index in range(config.trials):
        alone = _rows(config, index, index + 1)
        assert np.array_equal(rows[index:index + 1], alone, equal_nan=True), f"trial {index}"
    assert digests == [ensembles._digest(*ensembles._draw_trial(config, index))
                       for index in range(config.trials)]


def test_biorthogonal_blocks_clear_what_the_previous_block_left():
    # a block drawn in buffers that a block of other splits wrote before is
    # the block drawn in buffers of its own: the amplitudes the first block
    # left outside the second's supports are cleared
    config = EnsembleConfig(trials=16, dim_a=5, dim_b=5, regime=Regime.BIORTHOGONAL,
                            seed=20240901, weight_sampling="complex-random")
    rng, buffers = _generator(), _Buffers()
    first = ensembles._draw_block(config, ensembles._seed_words(config.seed, range(8)), rng,
                                  buffers)
    left = [x.copy() for x in first[2:]]
    second = ensembles._draw_block(config, ensembles._seed_words(config.seed, range(8, 16)),
                                   rng, buffers)
    alone = _drawn(config, range(8, 16))
    for part, own in zip(second, alone):
        assert part.tobytes() == own.tobytes()
    assert any(((old != 0) & (new == 0)).any() for old, new in zip(left, alone[2:]))


@pytest.mark.parametrize("dim_a,dim_b,regime,make_states", [
    (4, 4, Regime.BIORTHOGONAL,
     lambda: [_split_state(low, high) for low, high in
              [(0, 0x7F4A7C15), (_INV3, 0x7F4A7C15), (5, 0x12345), (0, 0x2468)]]),
    (2, 2, Regime.GENERAL, lambda: [_weight_state(leftover) for leftover in (4, 1, 5, 2)]),
])
def test_lemire_redraws_are_written_into_reused_buffers(monkeypatch, dim_a, dim_b, regime,
                                                        make_states):
    # rows whose split or weight word numpy redraws, drawn after a block of
    # the same trials in another order in the same buffers, are their trials
    states = make_states()
    config = EnsembleConfig(trials=len(states), dim_a=dim_a, dim_b=dim_b, regime=regime,
                            seed=0)
    words = np.zeros((len(states), 4), dtype=np.uint64)
    words[:, 0] = np.arange(len(states))
    variates = _logged_replays(monkeypatch, states)[1]
    rng, buffers = _generator(), _Buffers()
    ensembles._draw_block(config, words[::-1].copy(), rng, buffers)
    drawn = ensembles._draw_block(config, words, rng, buffers)
    assert len(variates) == 4
    for row, state in enumerate(states):
        assert (_trial_bytes(*(x[row] for x in drawn))
                == _trial_bytes(*_oracle_state_trial(config, state))), f"row {row}"


@pytest.mark.parametrize("dims", [(2, 2), (3, 3)])
@pytest.mark.parametrize("regime", list(Regime))
def test_a_range_draws_and_evaluates_every_block_in_one_set_of_buffers(monkeypatch, dims,
                                                                       regime):
    # the range's component stacks, their conjugates and the Gram blocks A,
    # B and C are one array each at every size, reused by every block of
    # every chunk and by the digest redraws, and the stacks that reach the
    # component stage are the ones drawn in them. Each block's normals are
    # drawn into the bytes of its two conjugate stacks
    monkeypatch.setattr(bounds, "_BLOCK_AMPLITUDES", 4 * dims[0] * dims[1])   # four trials
    monkeypatch.setattr(ensembles, "_CHUNK_BLOCKS", 2)
    taken: dict[str, list] = {}
    take = _Buffers.take

    def recorded(self, name, shape, dtype=np.complex128):
        taken.setdefault(name, []).append(take(self, name, shape, dtype))
        return taken[name][-1]

    monkeypatch.setattr(_Buffers, "take", recorded)
    stacks, events = [], []
    component_columns = bounds._component_columns
    monkeypatch.setattr(bounds, "_component_columns", lambda alpha, beta, phi, varphi, buffers:
                        stacks.append((phi, varphi)) or
                        component_columns(alpha, beta, phi, varphi, buffers))
    block_draws = ensembles._block_draws
    monkeypatch.setattr(ensembles, "_block_draws",
                        lambda *args: events.append(block_draws(*args)) or events[-1])
    conj_gram = measures._conj_gram

    def gram_stage(x_conj, y, out=None):
        block = conj_gram(x_conj, y, out)
        if out is not None:   # a Gram block of _gram_table, not of _gram
            assert block is out
            events.append(x_conj)
        return block

    monkeypatch.setattr(measures, "_conj_gram", gram_stage)
    config = EnsembleConfig(trials=30, dim_a=dims[0], dim_b=dims[1], regime=regime,
                            seed=20240901, tol=-1.0)
    assert len(ensembles._run_range(config, 0, config.trials)[0]) == 30
    assert taken.keys() == {"conj", "phi", "varphi", "a", "b", "c"}
    for name, arrays in taken.items():
        assert all(np.shares_memory(array, arrays[0]) for array in arrays), name
    assert len(stacks) == 8
    for phi, varphi in stacks:
        assert np.shares_memory(phi, taken["phi"][0])
        assert np.shares_memory(varphi, taken["varphi"][0])
    # a block is drawn, then its Gram products take (m_conj, m), (n_conj, n)
    # and (m_conj, n); a digest redraw is drawn only
    blocks = [(events[k - 1][0], events[k], events[k + 1]) for k in range(1, len(events))
              if isinstance(events[k - 1], tuple) and not isinstance(events[k], tuple)]
    assert len(blocks) == 8
    for normals, m_conj, n_conj in blocks:
        assert np.shares_memory(normals, m_conj) and np.shares_memory(normals, n_conj)


@pytest.mark.parametrize("regime", list(Regime))
def test_a_32x32_range_takes_at_most_1_75_mib_of_buffers(monkeypatch, regime):
    # a block of 16 32x32 trials: the two stacks, the conjugates that the
    # normals share and the Gram blocks A, B and C, 256 KiB each, and nothing
    # else, across two chunks of a block and a short block
    made = []
    init = _Buffers.__init__
    monkeypatch.setattr(_Buffers, "__init__", lambda self: made.append(self) or init(self))
    monkeypatch.setattr(ensembles, "_CHUNK_BLOCKS", 1)
    config = EnsembleConfig(trials=bounds._block_size(32, 32) + 4, dim_a=32, dim_b=32,
                            regime=regime, seed=20240901, tol=-1.0)
    assert len(ensembles._run_range(config, 0, config.trials)[0]) == config.trials
    assert len(made) == 1
    assert sum(array.nbytes for array in made[0]._arrays.values()) <= 1.75 * 2 ** 20


def test_campaigns_in_threads_match_their_lone_runs():
    # a campaign draws in generators of its own, so two campaigns in two
    # threads, switched between as often as the interpreter allows, each
    # summarise as when run alone
    configs = [EnsembleConfig(trials=20000, dim_a=2, dim_b=2, regime=Regime.GENERAL,
                              seed=seed) for seed in (1, 2)]
    alone = [verify_ensemble(config).to_dict() for config in configs]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(3):
            with ThreadPoolExecutor(max_workers=2) as pool:
                runs = pool.map(verify_ensemble, configs, timeout=120)
                together = [summary.to_dict() for summary in runs]
            assert together == alone
    finally:
        sys.setswitchinterval(interval)
