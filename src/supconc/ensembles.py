"""Seeded random state generation, reference fixtures, and verification runs.

Every generator takes an explicit ``numpy.random.Generator``; nothing in
this module touches global RNG state. Verification campaigns derive one
generator per trial from ``(seed, trial_index)``, so results are
bit-identical for a given config no matter how trials are scheduled,
including across worker processes.
"""

from __future__ import annotations

import hashlib
import math
import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, fields

import numpy as np

from .bounds import SANITY_TOL, Regime, _blocks, evaluate_batch
from .errors import InternalError, InvalidSplit, OutOfRange, SanityFailure, UnknownFixture
from .states import PureState, RawVector, make_state, normalize

_REDRAW_LIMIT = 100
_COLLINEAR_TOL = 1e-6   # residual norm below which a Gram-Schmidt draw is retried

WEIGHT_MODES = ("real-grid", "complex-random")


def _haar_vector(n: int, rng: np.random.Generator) -> np.ndarray:
    z = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    return z / np.linalg.norm(z)


def haar_state(dim_a: int, dim_b: int, rng: np.random.Generator) -> PureState:
    """Haar-random pure state: a normalized vector of standard complex Gaussians."""
    return PureState(dim_a, dim_b, _haar_vector(dim_a * dim_b, rng))


def haar_unitary(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-random unitary via QR of a complex Gaussian matrix."""
    z = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(z)
    d = np.diagonal(r)
    return q * (d / np.abs(d))


def _orthogonal_vectors(n: int, rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    if n < 2:
        raise InvalidSplit("need a joint dimension of at least 2 for an orthogonal pair")
    phi = _haar_vector(n, rng)
    for _ in range(_REDRAW_LIMIT):
        cand = _haar_vector(n, rng)
        v = cand - np.vdot(phi, cand) * phi
        norm = np.linalg.norm(v)
        if norm < _COLLINEAR_TOL:
            continue
        v = v / norm
        v = v - np.vdot(phi, v) * phi
        return phi, v / np.linalg.norm(v)
    raise InternalError(
        f"no orthogonal partner found in {_REDRAW_LIMIT} redraws"
    )


def orthogonal_pair(dim_a: int, dim_b: int,
                    rng: np.random.Generator) -> tuple[PureState, PureState]:
    """Two Haar-random states with ``|<phi|varphi>| <= 1e-12``.

    Gram-Schmidt on two independent draws, re-orthogonalized once for
    good measure; near-collinear second draws are retried.
    """
    phi, varphi = _orthogonal_vectors(dim_a * dim_b, rng)
    return PureState(dim_a, dim_b, phi), PureState(dim_a, dim_b, varphi)


def _biorthogonal_matrices(dim_a: int, dim_b: int, split_a: int, split_b: int,
                           rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    if not (1 <= split_a < dim_a):
        raise InvalidSplit(f"split_a = {split_a} not in [1, {dim_a - 1}]")
    if not (1 <= split_b < dim_b):
        raise InvalidSplit(f"split_b = {split_b} not in [1, {dim_b - 1}]")
    phi_m = np.zeros((dim_a, dim_b), dtype=np.complex128)
    var_m = np.zeros((dim_a, dim_b), dtype=np.complex128)
    for block in (phi_m[:split_a, :split_b], var_m[split_a:, split_b:]):
        block[...] = _haar_vector(block.size, rng).reshape(block.shape)
    return phi_m, var_m


def biorthogonal_pair(dim_a: int, dim_b: int, split_a: int, split_b: int,
                      rng: np.random.Generator) -> tuple[PureState, PureState]:
    """Pair supported on complementary local blocks (exactly biorthogonal).

    ``phi`` lives on the first ``split_a x split_b`` block of the local
    bases, ``varphi`` on the complementary block, so both reduced-overlap
    traces vanish identically.
    """
    phi_m, var_m = _biorthogonal_matrices(dim_a, dim_b, split_a, split_b, rng)
    return PureState(dim_a, dim_b, phi_m), PureState(dim_a, dim_b, var_m)


# --- reference fixtures ----------------------------------------------------
#
# fig1: a pair of (nearly) orthogonal two-qubit states given to three
# decimals; at that precision the vectors have norms 0.99955 and
# 0.99782 and are renormalized on load. fig2: the uniform product state and the
# maximally entangled state in dimension 10 (overlap 1/sqrt(10)).

_FIG1_PHI = (-0.264, 0.528, 0.487, -0.643)
_FIG1_VARPHI = (-0.034, 0.675, -0.734, 0.010)


def _fig2_phi() -> PureState:
    return make_state(10, 10, np.full(100, 0.1, dtype=np.complex128))


def _fig2_varphi() -> PureState:
    v = np.zeros(100, dtype=np.complex128)
    v[np.arange(10) * 10 + np.arange(10)] = 1.0 / math.sqrt(10.0)
    return make_state(10, 10, v)


def fixture(name: str) -> PureState | tuple[PureState, PureState]:
    """Named reference states used by the figure commands and the tests.

    Known names: ``fig1_pair``, ``bell_plus``, ``bell_minus``, ``ket01``,
    ``fig2_pair``. Pair names return ``(phi, varphi)``.
    """
    s2 = math.sqrt(0.5)  # correctly rounded 1/sqrt(2)
    if name == "fig1_pair":
        return tuple(normalize(RawVector(2, 2, v))[0] for v in (_FIG1_PHI, _FIG1_VARPHI))
    if name == "bell_plus":
        return make_state(2, 2, [s2, 0.0, 0.0, s2])
    if name == "bell_minus":
        return make_state(2, 2, [s2, 0.0, 0.0, -s2])
    if name == "ket01":
        return make_state(2, 2, [0.0, 1.0, 0.0, 0.0])
    if name == "fig2_pair":
        return (_fig2_phi(), _fig2_varphi())
    raise UnknownFixture(name)


# --- verification campaigns -------------------------------------------------


@dataclass(frozen=True)
class EnsembleConfig:
    """One randomized verification campaign."""

    trials: int
    dim_a: int
    dim_b: int
    regime: Regime
    seed: int
    weight_sampling: str = "real-grid"
    tol: float = SANITY_TOL

    def __post_init__(self):
        if self.trials < 1:
            raise InvalidSplit("trials must be >= 1")
        if self.dim_a < 2 or self.dim_b < 2:
            raise InvalidSplit("local dimensions must be >= 2")
        if self.weight_sampling not in WEIGHT_MODES:
            raise InvalidSplit(
                f"weight_sampling must be one of {WEIGHT_MODES}, "
                f"got {self.weight_sampling!r}"
            )
        if not math.isfinite(self.tol):
            raise OutOfRange(f"violation tolerance must be finite, got {self.tol!r}")


@dataclass(frozen=True)
class Violation:
    """One trial whose exact value escaped its bounds beyond tolerance."""

    seed: int
    trial_index: int
    digest: str
    margin: float

    def to_dict(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}


@dataclass(frozen=True)
class VerificationSummary:
    """Outcome of a campaign; ``violations`` empty iff the campaign passed.

    ``max_upper_slack`` is the largest value of
    ``norm^2 * C - upper`` seen over all trials and bound families
    (positive means a violation), ``min_lower_slack`` the smallest
    ``norm^2 * C - lower`` (negative means a violation).
    ``max_formula_error`` tracks ``|closed form - direct|`` on
    biorthogonal trials. ``zero_delta_lower_excesses`` counts trials
    where the conjectured delta-free variant of the orthogonal lower
    bound would have exceeded the exact value; it is diagnostic only and
    never fails a campaign.
    """

    trials_run: int
    violations: tuple[Violation, ...]
    max_upper_slack: float
    min_lower_slack: float
    max_formula_error: float | None
    zero_delta_lower_excesses: int
    max_zero_delta_excess: float | None
    wall_time: float

    @property
    def passed(self) -> bool:
        return not self.violations

    def to_dict(self) -> dict:
        """Every field but ``wall_time``, which differs from run to run."""
        doc = {f.name: getattr(self, f.name) for f in fields(self) if f.name != "wall_time"}
        doc["violations"] = [v.to_dict() for v in self.violations]
        return doc


def _mask_seed(seed: int) -> int:
    return seed & 0xFFFFFFFFFFFFFFFF


def _trial_rng(seed: int, index: int) -> np.random.Generator:
    return np.random.default_rng([_mask_seed(seed), index])


def _draw_weights(rng: np.random.Generator, mode: str) -> tuple[complex, complex]:
    if mode == "real-grid":
        a_sq = int(rng.integers(1, 100)) / 100.0
        return complex(math.sqrt(a_sq)), complex(math.sqrt(1.0 - a_sq))
    mag = float(rng.uniform(1e-6, 1.0 - 1e-6))
    th = rng.uniform(0.0, 2.0 * math.pi, size=2)
    return (math.sqrt(mag) * complex(math.cos(th[0]), math.sin(th[0])),
            math.sqrt(1.0 - mag) * complex(math.cos(th[1]), math.sin(th[1])))


def _draw_pair(config: EnsembleConfig,
               rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """Amplitudes of one trial's pair, as flat row-major vectors."""
    n = config.dim_a * config.dim_b
    if config.regime is Regime.ORTHOGONAL:
        return _orthogonal_vectors(n, rng)
    if config.regime is Regime.BIORTHOGONAL:
        split_a = int(rng.integers(1, config.dim_a))
        split_b = int(rng.integers(1, config.dim_b))
        phi_m, var_m = _biorthogonal_matrices(config.dim_a, config.dim_b, split_a, split_b, rng)
        return phi_m.reshape(-1), var_m.reshape(-1)
    return _haar_vector(n, rng), _haar_vector(n, rng)


def _draw_trial(config: EnsembleConfig,
                index: int) -> tuple[np.ndarray, np.ndarray, complex, complex]:
    """Trial ``index`` of a campaign: ``(phi, varphi, alpha, beta)``.

    The one definition of a trial: its generator is seeded from
    ``(seed, index)`` alone, so the same trial is redrawn, bit for bit, in
    whatever block or process evaluates it and whenever it is digested.
    """
    rng = _trial_rng(config.seed, index)
    phi, varphi = _draw_pair(config, rng)
    return (phi, varphi, *_draw_weights(rng, config.weight_sampling))


def _digest(phi: np.ndarray, varphi: np.ndarray, alpha: complex, beta: complex) -> str:
    """Short hash of one trial's amplitudes (row-major) and weights."""
    h = hashlib.sha256()
    h.update(np.ascontiguousarray(phi).tobytes())
    h.update(np.ascontiguousarray(varphi).tobytes())
    # repr of Python complex: numpy 2 writes np.complex128(...) instead
    h.update(repr((complex(alpha), complex(beta))).encode())
    return h.hexdigest()[:12]


def _run_block(config: EnsembleConfig, start: int, stop: int) -> np.ndarray:
    """Draw trials ``[start, stop)`` and evaluate them as one stack.

    Returns one row per trial, ``(upper slack, lower slack, closed-form
    error, zero-delta excess)``; the error is NaN outside the biorthogonal
    regime and the excess NaN on trials classified general. A trial's row
    does not depend on the block it is evaluated in. Violations are not
    judged here: :func:`verify_ensemble` finds them in the rows of all
    trials.
    """
    size, n = stop - start, config.dim_a * config.dim_b
    phi = np.empty((size, n), dtype=np.complex128)
    varphi = np.empty((size, n), dtype=np.complex128)
    alpha = np.empty(size, dtype=np.complex128)
    beta = np.empty(size, dtype=np.complex128)
    for row, index in enumerate(range(start, stop)):
        phi[row], varphi[row], alpha[row], beta[row] = _draw_trial(config, index)

    shape = (size, config.dim_a, config.dim_b)
    try:
        batch = evaluate_batch(alpha, beta, phi.reshape(shape), varphi.reshape(shape))
    except SanityFailure as exc:
        index = start + exc.row
        raise SanityFailure(f"{exc} (seed {config.seed}, trial {index}, "
                            f"digest {_digest(*_draw_trial(config, index))})") from exc
    target = batch.norm_squared * batch.exact_concurrence
    zero_delta_lower = (abs(abs(alpha) ** 2 * batch.c_phi - abs(beta) ** 2 * batch.c_varphi)
                        - 2.0 * abs(alpha * beta))
    excess = np.where(batch.regime != Regime.GENERAL, zero_delta_lower - target, np.nan)
    return np.column_stack((batch.upper_slack, batch.lower_slack, batch.formula_error, excess))


def _fmax_or_none(values: np.ndarray) -> float | None:
    """Largest non-NaN entry of ``values``; ``None`` when there is none."""
    # fmax skips NaN; np.nanmax would warn on an all-NaN column
    top = float(np.fmax.reduce(values, initial=-math.inf))
    return None if top == -math.inf else top


def verify_ensemble(config: EnsembleConfig, jobs: int = 1) -> VerificationSummary:
    """Run a campaign: draw pairs and weights, evaluate, record violations.

    Trials are drawn one by one and evaluated in blocks of stacked arrays
    (:func:`supconc.bounds.evaluate_batch`, blocks cut by
    :func:`supconc.bounds._blocks`). The blocks are also the unit of work
    for processes: with ``jobs > 1`` and more than one block and CPU they
    are mapped, in chunks, onto at most ``jobs`` worker processes, never
    more than there are blocks or CPUs; otherwise they run in this
    process. Deterministic for a given config regardless of ``jobs``: each
    trial seeds its own generator from ``(seed, trial_index)``, and its row
    does not depend on its block. The blocks' rows come back in trial
    order, and the summary is one reduction over them: a max, min or count
    per column, and the violations, in trial order, where the margin
    ``max(upper slack, -lower slack, closed-form error)`` passes
    ``config.tol``. A violation's digest is taken from its trial redrawn
    by :func:`_draw_trial`.
    """
    t0 = time.perf_counter()
    blocks = list(_blocks(0, config.trials, config.dim_a, config.dim_b))
    args = ([config] * len(blocks), *zip(*blocks))
    workers = min(jobs, len(blocks), os.cpu_count() or 1)
    if workers <= 1:
        parts = list(map(_run_block, *args))
    else:
        # a fork-started pool forks every worker at the first submit; a few
        # chunks per worker keep the per-task overhead off small blocks
        with ProcessPoolExecutor(max_workers=workers) as pool:
            parts = list(pool.map(_run_block, *args,
                                  chunksize=math.ceil(len(blocks) / (4 * workers))))
    upper, lower, formula, excess = np.concatenate(parts).T
    margin = np.maximum(np.maximum(upper, -lower), np.nan_to_num(formula, nan=0.0))
    return VerificationSummary(
        trials_run=config.trials,
        violations=tuple(Violation(config.seed, index, _digest(*_draw_trial(config, index)),
                                   float(margin[index]))
                         for index in np.flatnonzero(margin > config.tol).tolist()),
        max_upper_slack=float(upper.max()),
        min_lower_slack=float(lower.min()),
        max_formula_error=_fmax_or_none(formula),
        zero_delta_lower_excesses=int(np.count_nonzero(excess > config.tol)),
        max_zero_delta_excess=_fmax_or_none(excess),
        wall_time=time.perf_counter() - t0,
    )
