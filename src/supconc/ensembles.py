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
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, fields

import numpy as np

from .bounds import SANITY_TOL, Regime, evaluate
from .errors import InternalError, InvalidSplit, SanityFailure, UnknownFixture
from .states import PureState, SuperpositionSpec, make_state

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


def orthogonal_pair(dim_a: int, dim_b: int,
                    rng: np.random.Generator) -> tuple[PureState, PureState]:
    """Two Haar-random states with ``|<phi|varphi>| <= 1e-12``.

    Gram-Schmidt on two independent draws, re-orthogonalized once for
    good measure; near-collinear second draws are retried.
    """
    if dim_a * dim_b < 2:
        raise InvalidSplit("need a joint dimension of at least 2 for an orthogonal pair")
    phi = haar_state(dim_a, dim_b, rng)
    for _ in range(_REDRAW_LIMIT):
        cand = _haar_vector(dim_a * dim_b, rng)
        v = cand - np.vdot(phi.amplitudes, cand) * phi.amplitudes
        norm = np.linalg.norm(v)
        if norm < _COLLINEAR_TOL:
            continue
        v = v / norm
        v = v - np.vdot(phi.amplitudes, v) * phi.amplitudes
        v = v / np.linalg.norm(v)
        return phi, PureState(dim_a, dim_b, v)
    raise InternalError(
        f"no orthogonal partner found in {_REDRAW_LIMIT} redraws"
    )


def biorthogonal_pair(dim_a: int, dim_b: int, split_a: int, split_b: int,
                      rng: np.random.Generator) -> tuple[PureState, PureState]:
    """Pair supported on complementary local blocks (exactly biorthogonal).

    ``phi`` lives on the first ``split_a x split_b`` block of the local
    bases, ``varphi`` on the complementary block, so both reduced-overlap
    traces vanish identically.
    """
    if not (1 <= split_a < dim_a):
        raise InvalidSplit(f"split_a = {split_a} not in [1, {dim_a - 1}]")
    if not (1 <= split_b < dim_b):
        raise InvalidSplit(f"split_b = {split_b} not in [1, {dim_b - 1}]")
    phi_m = np.zeros((dim_a, dim_b), dtype=np.complex128)
    var_m = np.zeros((dim_a, dim_b), dtype=np.complex128)
    for block in (phi_m[:split_a, :split_b], var_m[split_a:, split_b:]):
        block[...] = _haar_vector(block.size, rng).reshape(block.shape)
    return PureState(dim_a, dim_b, phi_m), PureState(dim_a, dim_b, var_m)


# --- reference fixtures ----------------------------------------------------
#
# fig1: a pair of (nearly) orthogonal two-qubit states given to three
# decimals; at that precision the vectors have norms 0.99955 and
# 0.99782 and are renormalized on load. fig2: the uniform product state and the
# maximally entangled state in dimension 10 (overlap 1/sqrt(10)).

_FIG1_PHI = (-0.264, 0.528, 0.487, -0.643)
_FIG1_VARPHI = (-0.034, 0.675, -0.734, 0.010)


def _renormalized(dim_a: int, dim_b: int, values) -> PureState:
    v = np.asarray(values, dtype=np.complex128)
    return PureState(dim_a, dim_b, v / np.linalg.norm(v))


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
        return (_renormalized(2, 2, _FIG1_PHI), _renormalized(2, 2, _FIG1_VARPHI))
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

    def to_dict(self, include_wall_time: bool = True) -> dict:
        doc = {f.name: getattr(self, f.name) for f in fields(self)}
        doc["violations"] = [v.to_dict() for v in self.violations]
        if not include_wall_time:
            del doc["wall_time"]
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
               rng: np.random.Generator) -> tuple[PureState, PureState]:
    if config.regime is Regime.ORTHOGONAL:
        return orthogonal_pair(config.dim_a, config.dim_b, rng)
    if config.regime is Regime.BIORTHOGONAL:
        split_a = int(rng.integers(1, config.dim_a))
        split_b = int(rng.integers(1, config.dim_b))
        return biorthogonal_pair(config.dim_a, config.dim_b, split_a, split_b, rng)
    return (haar_state(config.dim_a, config.dim_b, rng),
            haar_state(config.dim_a, config.dim_b, rng))


def _spec_digest(spec: SuperpositionSpec) -> str:
    h = hashlib.sha256()
    h.update(np.ascontiguousarray(spec.phi.amplitudes).tobytes())
    h.update(np.ascontiguousarray(spec.varphi.amplitudes).tobytes())
    h.update(repr((spec.alpha, spec.beta)).encode())
    return h.hexdigest()[:12]


@dataclass
class _Partial:
    violations: list[Violation] = field(default_factory=list)
    max_upper_slack: float = -math.inf
    min_lower_slack: float = math.inf
    max_formula_error: float = -math.inf
    zero_delta_count: int = 0
    max_zero_delta_excess: float = -math.inf


def _run_range(config: EnsembleConfig, start: int, stop: int) -> _Partial:
    part = _Partial()
    for index in range(start, stop):
        rng = _trial_rng(config.seed, index)
        phi, varphi = _draw_pair(config, rng)
        alpha, beta = _draw_weights(rng, config.weight_sampling)
        spec = SuperpositionSpec(alpha, beta, phi, varphi)
        try:
            report = evaluate(spec)
        except SanityFailure as exc:
            raise SanityFailure(f"{exc} (seed {config.seed}, trial {index}, "
                                f"digest {_spec_digest(spec)})") from exc
        target = report.norm_squared * report.exact_concurrence
        upper_slack, lower_slack, formula_error = report.slack
        part.max_upper_slack = max(part.max_upper_slack, upper_slack)
        part.min_lower_slack = min(part.min_lower_slack, lower_slack)
        if formula_error is not None:
            part.max_formula_error = max(part.max_formula_error, formula_error)

        if report.regime is not Regime.GENERAL:
            aa, bb = abs(alpha) ** 2, abs(beta) ** 2
            zero_delta_lower = (abs(aa * report.c_phi - bb * report.c_varphi)
                                - 2.0 * abs(alpha * beta))
            excess = zero_delta_lower - target
            part.max_zero_delta_excess = max(part.max_zero_delta_excess, excess)
            if excess > config.tol:
                part.zero_delta_count += 1

        margin = max(upper_slack, -lower_slack, formula_error or 0.0)
        if margin > config.tol:
            part.violations.append(
                Violation(config.seed, index, _spec_digest(spec), margin)
            )
    return part


def verify_ensemble(config: EnsembleConfig, jobs: int = 1) -> VerificationSummary:
    """Run a campaign: draw pairs and weights, evaluate, record violations.

    Deterministic for a given config regardless of ``jobs``: each trial
    seeds its own generator from ``(seed, trial_index)`` and the
    reduction is order-insensitive.
    """
    t0 = time.perf_counter()
    if jobs <= 1:
        parts = [_run_range(config, 0, config.trials)]
    else:
        chunk = max(1, -(-config.trials // (jobs * 4)))
        ranges = [(lo, min(lo + chunk, config.trials))
                  for lo in range(0, config.trials, chunk)]
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            parts = list(pool.map(_run_range, [config] * len(ranges),
                                  *zip(*ranges)))
    violations: list[Violation] = []
    for part in parts:
        violations.extend(part.violations)
    violations.sort(key=lambda v: v.trial_index)

    max_formula = max(p.max_formula_error for p in parts)
    max_zero_delta = max(p.max_zero_delta_excess for p in parts)
    return VerificationSummary(
        trials_run=config.trials,
        violations=tuple(violations),
        max_upper_slack=max(p.max_upper_slack for p in parts),
        min_lower_slack=min(p.min_lower_slack for p in parts),
        max_formula_error=None if max_formula == -math.inf else max_formula,
        zero_delta_lower_excesses=sum(p.zero_delta_count for p in parts),
        max_zero_delta_excess=None if max_zero_delta == -math.inf else max_zero_delta,
        wall_time=time.perf_counter() - t0,
    )
