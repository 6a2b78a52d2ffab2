"""Seeded random state generation, reference fixtures, and verification runs.

Every generator takes an explicit ``numpy.random.Generator``; nothing in
this module touches global RNG state. Trial ``i`` of a verification
campaign is what the public generators draw from
``default_rng([seed mod 2**64, i])`` (:func:`_draw_block`), so results are
bit-identical for a given config no matter how trials are scheduled,
including across worker processes. A campaign runs as ranges of trials,
each of which seeds, draws, evaluates and judges its own trials a chunk of
evaluation blocks at a time, so its memory grows with the violations it
records and not with its length. The seed words of a chunk's trials are
computed together, and its trials are drawn a block at a time, each trial
in a generator of its own that numpy's PCG64 seeds from its words
(:func:`_trial_generator`), so campaigns run in threads share none; every
block of a range is drawn and evaluated in the range's one set of block
buffers. Each trial makes one ``standard_normal`` call of all its normals
and one ``random_raw`` of its weight words on its generator, plus one
``random_raw`` for a biorthogonal pair's splits.
The raw words become the ``integers`` and ``uniform`` draws numpy's
``Generator`` would make from them (Lemire's bounded method on PCG64's
buffered 32-bit halves, and 53-bit doubles). A rare row whose split or
weight word numpy would discard makes numpy's own calls again on a new
generator of its trial instead. The arithmetic on the draws
(:func:`_pair_rows`) runs over the block, one path for every row; the
public generators run the same arithmetic on the one row of a single
``standard_normal`` call.
"""

from __future__ import annotations

import hashlib
import math
import multiprocessing.connection
import numbers
import os
import signal
import threading
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, fields

import numpy as np

from .bounds import SANITY_TOL, Regime, _block_size, _blocks, _checked_blocks
from .errors import InternalError, InvalidSplit, OutOfRange, SanityFailure, UnknownFixture
from .measures import _Buffers
from .states import PureState, _require_positive, make_state, normalize

_COLLINEAR_TOL = 1e-6   # first Gram-Schmidt residual below which an orthogonal draw fails

WEIGHT_MODES = ("real-grid", "complex-random")


def haar_state(dim_a: int, dim_b: int, rng: np.random.Generator) -> PureState:
    """Haar-random pure state: a normalized vector of standard complex Gaussians.

    The one-row case of the campaign's draw (:func:`_haar_rows`): the real
    parts are the first ``dim_a * dim_b`` normals of one ``standard_normal``
    call, the imaginary parts the rest.
    """
    _require_positive(dim_a, dim_b)
    z = np.empty((1, dim_a * dim_b), dtype=np.complex128)
    _haar_rows(rng.standard_normal((1, 2 * z.size)), z)
    return PureState(dim_a, dim_b, z[0])


def haar_unitary(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-random unitary via QR of a complex Gaussian matrix."""
    _require_positive(dim)
    z = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(z)
    d = np.diagonal(r)
    return q * (d / np.abs(d))


def _one_pair(regime: Regime, dims: tuple[int, int], split: tuple[int, int] | None,
              rng: np.random.Generator) -> tuple[PureState, PureState]:
    """The one-row case of the campaign's draw (:func:`_pair_rows`): the
    pair that one ``standard_normal`` call of its normals makes."""
    normals = rng.standard_normal((1, _normal_count(dims, split)))
    phi, varphi = _pair_rows(regime, normals, [split], dims, _Buffers())
    return PureState(*dims, phi[0]), PureState(*dims, varphi[0])


def orthogonal_pair(dim_a: int, dim_b: int,
                    rng: np.random.Generator) -> tuple[PureState, PureState]:
    """Two Haar-random states with ``|<phi|varphi>| <= 1e-12``.

    Gram-Schmidt on two independent draws, re-orthogonalized once for
    good measure (:func:`_pair_rows`). A second draw whose first residual
    is below ``_COLLINEAR_TOL`` raises :class:`InternalError`: that has a
    chance of ``(1e-12)^(D - 1)`` at ``D = dim_a * dim_b``, 1e-12 at
    ``D = 2``.
    """
    _require_positive(dim_a, dim_b)
    if dim_a * dim_b < 2:
        raise InvalidSplit("need a joint dimension of at least 2 for an orthogonal pair")
    return _one_pair(Regime.ORTHOGONAL, (dim_a, dim_b), None, rng)


def biorthogonal_pair(dim_a: int, dim_b: int, split_a: int, split_b: int,
                      rng: np.random.Generator) -> tuple[PureState, PureState]:
    """Pair supported on complementary local blocks (exactly biorthogonal).

    ``phi`` lives on the first ``split_a x split_b`` block of the local
    bases, ``varphi`` on the complementary block, so both reduced-overlap
    traces vanish identically. Each block is Haar-random
    (:func:`_pair_rows`).
    """
    _require_positive(dim_a, dim_b)
    if not (1 <= split_a < dim_a):
        raise InvalidSplit(f"split_a = {split_a} not in [1, {dim_a - 1}]")
    if not (1 <= split_b < dim_b):
        raise InvalidSplit(f"split_b = {split_b} not in [1, {dim_b - 1}]")
    return _one_pair(Regime.BIORTHOGONAL, (dim_a, dim_b), (split_a, split_b), rng)


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
        return tuple(normalize(np.reshape(v, (2, 2)))[0] for v in (_FIG1_PHI, _FIG1_VARPHI))
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
        for name in ("trials", "dim_a", "dim_b", "seed"):
            value = getattr(self, name)
            # a bool is an int too, but no count; numpy integers become ints
            if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
                raise InvalidSplit(f"{name} must be an integer, got {value!r}")
            object.__setattr__(self, name, int(value))
        # trial indices are seeded below 2**64 (_seed_words)
        if not 1 <= self.trials < 2 ** 64:
            raise InvalidSplit(f"trials must be >= 1 and below 2**64, got {self.trials}")
        if self.dim_a < 2 or self.dim_b < 2:
            raise InvalidSplit("local dimensions must be >= 2")
        if not isinstance(self.regime, Regime):
            raise InvalidSplit(f"regime must be a Regime, got {self.regime!r}")
        if self.weight_sampling not in WEIGHT_MODES:
            raise InvalidSplit(
                f"weight_sampling must be one of {WEIGHT_MODES}, "
                f"got {self.weight_sampling!r}"
            )
        if (isinstance(self.tol, bool) or not isinstance(self.tol, numbers.Real)
                or not math.isfinite(self.tol)):
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


# --- trial seeding ------------------------------------------------------------
#
# Trial i of a campaign draws from np.random.default_rng([mask(seed), i]):
# a PCG64 seeded by SeedSequence([mask(seed), i]) (NEP 19). Building that
# SeedSequence costs more than most small trials; the words it generates
# for PCG64 are integer arithmetic, done here for a chunk of trials at once,
# and numpy's PCG64 is seeded from them.

_MASK32 = 0xFFFFFFFF


def _hash_constants(init: int, mult: int, calls: int) -> np.ndarray:
    """The ``calls + 1`` successive values of a SeedSequence hash constant, as a column."""
    values = [init]
    for _ in range(calls):
        values.append(values[-1] * mult & _MASK32)
    return np.array(values, dtype=np.uint32)[:, None]


# SeedSequence hashes 4 entropy words into its pool, then each of the 4 pool
# words into the 3 others (16 calls of hashmix), and generate_state(4, uint64)
# hashes the pool out into 8 words (8 calls)
_HASH_A = _hash_constants(0x43B0D7E5, 0x931E8875, 16)
_HASH_B = _hash_constants(0x8B51F9DD, 0x58F38DED, 8)


def _hashmix(values: np.ndarray, consts: np.ndarray) -> np.ndarray:
    """SeedSequence's hashmix of each row of ``values`` with the next hash constant.

    Row ``r`` is hashed with ``consts[r]`` and multiplied by ``consts[r + 1]``,
    the constant after one step.
    """
    values = (values ^ consts[:-1]) * consts[1:]
    return values ^ (values >> np.uint32(16))


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    mixed = x * np.uint32(0xCA01F9DD) - y * np.uint32(0x4973F715)
    return mixed ^ (mixed >> np.uint32(16))


def _uint32_words(value: int) -> list[int]:
    """The little-endian 32-bit words of ``value >= 0``, one word for 0."""
    words = [value & _MASK32]
    while value := value >> 32:
        words.append(value & _MASK32)
    return words


def _seed_words(seed: int, indices) -> np.ndarray:
    """``SeedSequence([mask(seed), i]).generate_state(4, np.uint64)`` for each ``i``, as rows.

    The entropy is the 32-bit words of the masked seed followed by those of
    the index: at most four, the size of the pool, for indices below 2**64.
    SeedSequence hashes pool words past the entropy as zeros, so the index
    takes two words whatever its size. Each mixing step is uint32 arithmetic
    on one pool word of every trial at once; the three updates of one source
    word are independent of each other and run as one stacked step.
    """
    index = np.asarray(indices, dtype=np.uint64).reshape(-1)
    seed_words = _uint32_words(_mask_seed(seed))
    entropy = np.zeros((4, index.size), dtype=np.uint32)
    entropy[:len(seed_words)] = np.array(seed_words, dtype=np.uint32)[:, None]
    entropy[len(seed_words)] = index & np.uint64(_MASK32)
    entropy[len(seed_words) + 1] = index >> np.uint64(32)
    pool = _hashmix(entropy, _HASH_A[:5])
    for src in range(4):
        dst = [d for d in range(4) if d != src]
        calls = _HASH_A[4 + 3 * src:8 + 3 * src]
        pool[dst] = _mix(pool[dst], _hashmix(pool[[src] * 3], calls))
    state = _hashmix(pool[[0, 1, 2, 3, 0, 1, 2, 3]], _HASH_B).astype(np.uint64)
    return (state[0::2] | state[1::2] << np.uint64(32)).T


class _TrialSeed(np.random.bit_generator.ISeedSequence):
    """The seed sequence of one trial for PCG64: its row of :func:`_seed_words`."""

    def __init__(self, words: np.ndarray):
        self.words = words

    def generate_state(self, n_words: int, dtype=np.uint32) -> np.ndarray:
        """The row, for PCG64's one request of 4 uint64 words, as a C-contiguous array.

        PCG64 reads the words through the array's data pointer, so a strided
        row, as :func:`_seed_words` returns, is copied. Any other request,
        or a row of another size, is a bug.
        """
        state = np.ascontiguousarray(self.words, dtype=np.uint64)
        if n_words != 4 or np.dtype(dtype) != np.uint64 or state.shape != (4,):
            raise InternalError(f"{n_words} {np.dtype(dtype)} words of a {state.shape} trial seed")
        return state


def _trial_generator(words: np.ndarray) -> np.random.Generator:
    """The generator of ``default_rng([mask(seed), i])`` for trial ``i``,
    numpy's PCG64 seeded from the trial's row of :func:`_seed_words`."""
    return np.random.Generator(np.random.PCG64(_TrialSeed(words)))


# --- trial drawing --------------------------------------------------------------


def _row_dots(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """``x[r] . y[r]`` for each row, through the BLAS dot that ``np.dot`` of two rows calls."""
    return (x[:, None, :] @ y[:, :, None])[:, 0, 0]


def _row_norms(z: np.ndarray) -> np.ndarray:
    """``np.linalg.norm(z[r])`` for each row of a complex ``z``, as it sums them."""
    return np.sqrt(_row_dots(z.real, z.real) + _row_dots(z.imag, z.imag))


def _scale_rows(z: np.ndarray, norms: np.ndarray) -> None:
    """``z /= norms[:, None]`` in place, on complex rows and real ``norms``.

    numpy divides a complex number by a real one, taken as ``d + 0j``, as
    ``(re + im * 0) * (1 / d)``: the same bits as multiplying both parts by
    ``1 / d``, which this does on the real view of ``z``.
    """
    z.view(np.float64)[...] *= (1.0 / norms)[:, None]


def _haar_rows(normals: np.ndarray, z: np.ndarray) -> None:
    """A Haar-random vector from each row of ``normals``, written into the
    rows of ``z``: the first half of the row is its real parts, the second
    its imaginary parts, and the vector is divided by its norm."""
    n = normals.shape[1] // 2
    z.real, z.imag = normals[:, :n], normals[:, n:]
    _scale_rows(z, _row_norms(z))


_GRID = (1, 100)                                   # real-grid k: integers(1, 100)
_MAGNITUDE, _PHASE = (1e-6, 1.0 - 1e-6), (0.0, 2.0 * math.pi)   # complex-random uniforms


def _weight_variates(rng: np.random.Generator, mode: str) -> list:
    """One trial's weight draws: ``[k]`` for ``|alpha|^2 = k / 100``, or
    ``[|alpha|^2, arg alpha, arg beta]``.

    Through numpy's own calls: the weights that the raw-word conversion of
    :func:`_block_draws` reproduces, and that it draws for a row it cannot.
    """
    if mode == "real-grid":
        return [rng.integers(*_GRID)]
    return [rng.uniform(*_MAGNITUDE), *rng.uniform(*_PHASE, size=2)]


# --- numpy's Generator calls on raw PCG64 words -----------------------------------
#
# A trial's weights and splits are drawn as raw 64-bit PCG64 words and turned
# into numbers exactly as numpy's Generator turns them:
#   integers(low, high): Lemire's bounded method on next_uint32 over the span
#     high - low, nothing drawn for a span of 1: m = u32 * span, redrawn while
#     m mod 2**32 < 2**32 mod span, the result low + (m >> 32);
#   next_uint32: the low half of a fresh raw word, its high half buffered for
#     the next 32-bit draw; standard_normal and uniform take whole words and
#     leave the buffer alone;
#   uniform(low, high): low + (high - low) * ((raw >> 11) * 2**-53).

_UNIFORM_LOW = np.array([low for low, _ in (_MAGNITUDE, _PHASE, _PHASE)])
_UNIFORM_SPAN = np.array([high - low for low, high in (_MAGNITUDE, _PHASE, _PHASE)])


def _lemire(u, span: int):
    """``(offset, redraw)`` of Lemire's draw from ``[0, span)`` on a 32-bit ``u``.

    ``u`` is a Python int or a uint64 array, ``span`` a Python int; ``redraw``
    is true where numpy would discard ``u`` and draw again.
    """
    m = u * span
    return m >> 32, (m & _MASK32) < (1 << 32) % span


def _weights_from_raw(raw: np.ndarray, mode: str) -> tuple[np.ndarray, np.ndarray]:
    """:func:`_weight_variates` of each row of raw words, and the rows numpy would redraw.

    Real-grid rows hold one word, whose low 32 bits are the draw;
    complex-random rows hold the three words of the three uniforms.
    """
    if mode == "real-grid":
        offset, redraw = _lemire(raw[:, 0] & _MASK32, _GRID[1] - _GRID[0])
        return offset.astype(np.float64)[:, None] + _GRID[0], redraw
    unit = (raw >> 11).astype(np.float64) * 2.0 ** -53
    return _UNIFORM_LOW + _UNIFORM_SPAN * unit, np.zeros(len(raw), dtype=bool)


def _weights(variates: np.ndarray, mode: str) -> tuple[np.ndarray, np.ndarray]:
    """``(alpha, beta)`` of each row of :func:`_weight_variates`."""
    if mode == "real-grid":
        a_sq = variates[:, 0] / 100.0
        return np.sqrt(a_sq).astype(np.complex128), np.sqrt(1.0 - a_sq).astype(np.complex128)
    mag = variates[:, 0]
    radius = np.sqrt(np.column_stack((mag, 1.0 - mag)))
    # math, not numpy, trigonometry: numpy's may differ from the C library's
    # in the last bit, and on some CPUs only
    theta = variates[:, 1:].ravel().tolist()
    weights = np.empty(radius.shape, dtype=np.complex128)
    weights.real = radius * np.reshape(list(map(math.cos, theta)), radius.shape)
    weights.imag = radius * np.reshape(list(map(math.sin, theta)), radius.shape)
    return weights[:, 0], weights[:, 1]


def _normal_count(dims: tuple[int, int], split: tuple[int, int] | None) -> int:
    """The normals one pair draws: two Haar vectors, or a biorthogonal pair's two blocks."""
    dim_a, dim_b = dims
    if split is None:
        return 4 * dim_a * dim_b
    split_a, split_b = split
    return 2 * (split_a * split_b + (dim_a - split_a) * (dim_b - split_b))


def _block_draws(config: EnsembleConfig, words: np.ndarray,
                 buffers: _Buffers) -> tuple[np.ndarray, list, np.ndarray]:
    """The generator draws of the trials seeded by ``words``:
    ``(normals, splits, variates)``.

    A trial draws its splits by ``integers`` if it is biorthogonal, then the
    normals of :func:`biorthogonal_pair`, :func:`orthogonal_pair` or two
    :func:`haar_state`, then :func:`_weight_variates`. Each trial draws on
    a generator of its own (:func:`_trial_generator`): all its normals with
    one ``standard_normal`` and its weight words with one ``random_raw``
    (one word on the real grid, three for complex-random weights). A
    biorthogonal trial first draws one more word for its two splits, unless
    both sides are 2. The words are turned into ``integers`` and
    ``uniform`` draws as numpy turns them (see above): the splits trial by
    trial, since they set how many normals follow, and the weights over the
    whole block. A split that draws one 32-bit half leaves the other
    buffered, and a real-grid weight takes it instead of a fresh word.
    Where numpy would discard a word and draw again (Lemire's method,
    ``2**32 mod span`` in ``2**32`` per 32-bit draw: 4 for a weight's span
    of 99), the row makes numpy's own calls instead, on a new generator of
    its trial: ``integers`` for the splits, ``standard_normal`` into the
    same row and :func:`_weight_variates`. ``splits[row]`` is ``None``
    outside the biorthogonal regime; a biorthogonal row holds its normals
    at its head, and what follows them is left as the buffer held it. The
    normals are drawn into the ``"conj"`` buffer of ``buffers``
    (:class:`supconc.measures._Buffers`).
    """
    dim_a, dim_b, mode = config.dim_a, config.dim_b, config.weight_sampling
    dims, n, size = (dim_a, dim_b), dim_a * dim_b, len(words)
    biorthogonal = config.regime is Regime.BIORTHOGONAL
    real_grid = mode == "real-grid"
    # a row's 4n normals take the bytes of its 2n conjugate amplitudes; a
    # biorthogonal pair fills two complementary blocks, at most 2n normals
    normals = buffers.take("conj", (size, 4 * n), np.float64)
    raw = np.zeros((size, 1 if real_grid else 3), dtype=np.uint64)
    splits: list = [None] * size
    redraw = np.zeros(size, dtype=bool)
    # (side, span) of the splits that draw, each from the next 32-bit half
    split_spans = [(side, dim - 1) for side, dim in enumerate((dim_a, dim_b)) if dim > 2]
    for row, rng in enumerate(map(_trial_generator, words)):
        bits = rng.bit_generator
        half = None   # a 32-bit half the splits left buffered
        if biorthogonal:
            split = [1, 1]
            if split_spans:
                word = bits.random_raw()
                halves = [word >> 32, word & _MASK32]   # pop() takes the low half first
                for side, span in split_spans:
                    offset, reject = _lemire(halves.pop(), span)
                    split[side] += offset
                    if reject:
                        redraw[row] = True
                half = halves.pop() if halves else None
            splits[row] = tuple(split)
        rng.standard_normal(out=normals[row, :_normal_count(dims, splits[row])])
        if not real_grid:
            raw[row] = bits.random_raw(3)
        else:
            raw[row, 0] = bits.random_raw() if half is None else half

    variates, weight_redraw = _weights_from_raw(raw, mode)
    for row in np.flatnonzero(redraw | weight_redraw).tolist():
        rng = _trial_generator(words[row])
        if biorthogonal:
            splits[row] = int(rng.integers(1, dim_a)), int(rng.integers(1, dim_b))
        rng.standard_normal(out=normals[row, :_normal_count(dims, splits[row])])
        variates[row] = _weight_variates(rng, mode)
    return normals, splits, variates


def _pair_rows(regime: Regime, normals: np.ndarray, splits: list, dims: tuple[int, int],
               buffers: _Buffers) -> tuple[np.ndarray, np.ndarray]:
    """The pairs of ``regime`` that the rows of ``normals`` make, one per row:
    ``(phi, varphi)`` as ``(T, dim_a, dim_b)`` coefficient matrices.

    The one draw arithmetic of every regime, run by a campaign on a block
    (:func:`_draw_block`) and by the public generators on one row. A
    general row holds two Haar vectors' normals (:func:`_haar_rows`). An
    orthogonal row holds the same, and Gram-Schmidt takes the second vector
    onto ``phi``'s complement twice; a first residual below
    ``_COLLINEAR_TOL``, that is ``|<phi|cand>|^2 > 1 - 1e-12``, raises
    :class:`InternalError`. For Haar vectors in ``C^D`` that overlap is
    ``Beta(1, D - 1)``, so it happens with probability ``(1e-12)^(D - 1)``:
    below 1e-36 at a campaign's ``D >= 4``, which no campaign, of fewer than
    ``2^64 ~ 1.8e19`` trials, meets. A biorthogonal row holds, at its head,
    the normals of a Haar vector on the ``split_a x split_b`` block of
    ``splits[row]`` and then of one on the complementary block; the rows of
    one split are drawn together. ``splits[row]`` is ``None`` outside the
    biorthogonal regime.

    The components are written into ``buffers``, and an orthogonal pair's
    Gram-Schmidt scratch into its ``"conj"``, which may hold ``normals``:
    they are read before it is written.
    """
    dim_a, dim_b = dims
    n, size = dim_a * dim_b, len(normals)
    phi, varphi = buffers.take("phi", (size, n)), buffers.take("varphi", (size, n))
    if regime is Regime.BIORTHOGONAL:
        groups: dict[tuple[int, int], list[int]] = {}
        for row, split in enumerate(splits):
            groups.setdefault(split, []).append(row)
        # clear what the previous block left outside this block's supports
        phi.fill(0.0)
        varphi.fill(0.0)
        phi_m, var_m = phi.reshape(size, dim_a, dim_b), varphi.reshape(size, dim_a, dim_b)
        for (split_a, split_b), rows in groups.items():
            first = 2 * split_a * split_b
            second = 2 * (dim_a - split_a) * (dim_b - split_b)
            z = np.empty((len(rows), first // 2), dtype=np.complex128)
            _haar_rows(normals[rows, :first], z)
            phi_m[rows, :split_a, :split_b] = z.reshape(-1, split_a, split_b)
            z = np.empty((len(rows), second // 2), dtype=np.complex128)
            _haar_rows(normals[rows, first:first + second], z)
            var_m[rows, split_a:, split_b:] = z.reshape(-1, dim_a - split_a, dim_b - split_b)
    else:
        _haar_rows(normals[:, :2 * n], phi)
        _haar_rows(normals[:, 2 * n:], varphi)
    if regime is Regime.ORTHOGONAL:
        # in place on varphi; _row_dots(phi_conj, v) is np.vdot(phi, v) per row
        phi_conj, projection = buffers.take("conj", (2, *phi.shape))
        np.conjugate(phi, out=phi_conj)
        for step in range(2):
            varphi -= np.multiply(_row_dots(phi_conj, varphi)[:, None], phi, out=projection)
            norms = _row_norms(varphi)
            if step == 0 and norms.min() < _COLLINEAR_TOL:
                raise InternalError(f"an orthogonal pair's second draw left a Gram-Schmidt "
                                    f"residual of {norms.min()!r}, below {_COLLINEAR_TOL}")
            _scale_rows(varphi, norms)
    return phi.reshape(size, dim_a, dim_b), varphi.reshape(size, dim_a, dim_b)


def _draw_block(config: EnsembleConfig, words: np.ndarray,
                buffers: _Buffers) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The trials seeded by ``words``, rows of :func:`_seed_words`, one per row:
    ``(alpha, beta, phi, varphi)``, the components as ``(T, dim_a, dim_b)``
    coefficient matrices.

    Trial ``i`` is what the public generators draw from the state of
    ``default_rng([mask(seed), i])``, bit for bit, in whatever block it is
    drawn: a biorthogonal pair draws its splits by ``integers`` and then
    :func:`biorthogonal_pair`, an orthogonal one :func:`orthogonal_pair`
    and a general one two :func:`haar_state`; then the weights
    (:func:`_weight_variates`). :func:`_block_draws` makes each trial's
    calls on a generator of the trial's own. The arithmetic on those draws,
    :func:`_pair_rows` and the weights, runs over all rows at once, each row
    in the operations that one trial on its own takes.

    The normals, the scratch of :func:`_pair_rows` and the component stacks
    are written into ``buffers``, so the stacks returned hold until the next
    block is drawn or evaluated in the same buffers; the weights are arrays
    of their own.
    """
    normals, splits, variates = _block_draws(config, words, buffers)
    phi, varphi = _pair_rows(config.regime, normals, splits, (config.dim_a, config.dim_b),
                             buffers)
    return (*_weights(variates, config.weight_sampling), phi, varphi)


def _draw_trial(config: EnsembleConfig,
                index: int) -> tuple[complex, complex, np.ndarray, np.ndarray]:
    """Trial ``index`` of a campaign: ``(alpha, beta, phi, varphi)``.

    The one-row block draw (:func:`_draw_block`), so the same trial is
    redrawn, bit for bit, in whatever block or process draws it and
    whenever it is digested; it makes its own buffers.
    """
    return tuple(x[0] for x in _draw_block(config, _seed_words(config.seed, [index]), _Buffers()))


def _digest(alpha: complex, beta: complex, phi: np.ndarray, varphi: np.ndarray) -> str:
    """Short hash of one trial's amplitudes (row-major) and weights."""
    h = hashlib.sha256()
    h.update(np.ascontiguousarray(phi).tobytes())
    h.update(np.ascontiguousarray(varphi).tobytes())
    # repr of Python complex: numpy 2 writes np.complex128(...) instead
    h.update(repr((complex(alpha), complex(beta))).encode())
    return h.hexdigest()[:12]


def _trial_rows(config: EnsembleConfig, start: int, stop: int,
                buffers: _Buffers) -> np.ndarray:
    """Seed, draw and evaluate trials ``[start, stop)``: one row per trial.

    The trials' seed words are computed together (:func:`_seed_words`) and
    the trials drawn block by block (:func:`supconc.bounds._blocks`,
    :func:`_draw_block`), each on a generator of its own, and every block
    drawn and evaluated in ``buffers``, as the evaluation core
    (:func:`supconc.bounds._checked_blocks`) takes the blocks: it reduces
    each block to the columns of its component stage, so only the columns
    grow with the range, and runs the bound stage once over them all. A row
    is ``(upper slack, lower slack, closed-form error, zero-delta
    excess)``; the error is NaN outside the biorthogonal regime and the
    excess NaN on trials classified general. A trial's row does not depend
    on the range or block it is drawn and evaluated in. Bound escapes are
    not judged here. Only a bug, a NaN concurrence or slack or a
    concurrence out of range, raises :class:`SanityFailure`, naming the
    seed, the first bad trial and its digest.
    """
    words = _seed_words(config.seed, range(start, stop))
    dims = (config.dim_a, config.dim_b)
    blocks = (_draw_block(config, words[lo - start:hi - start], buffers)
              for lo, hi in _blocks(start, stop, *dims))
    try:
        alpha, beta, batch = _checked_blocks(blocks, dims, buffers, limit=math.inf)
    except SanityFailure as exc:
        trial = start + exc.row
        raise SanityFailure(f"{exc} (seed {config.seed}, trial {trial}, digest "
                            f"{_digest(*_draw_trial(config, trial))})") from exc
    target = batch.norm_squared * batch.exact_concurrence
    zero_delta_lower = (abs(abs(alpha) ** 2 * batch.c_phi - abs(beta) ** 2 * batch.c_varphi)
                        - 2.0 * abs(alpha * beta))
    excess = np.where(batch.regime != Regime.GENERAL, zero_delta_lower - target, np.nan)
    return np.column_stack((batch.upper_slack, batch.lower_slack, batch.formula_error, excess))


# A partial summary is a campaign's summary over one range of its trials:
# (violations, max upper slack, min lower slack, max closed-form error,
# zero-delta excess count, max zero-delta excess, trials judged), where a
# maximum over no value is -inf.


def _judged(config: EnsembleConfig, start: int, stop: int, buffers: _Buffers) -> tuple:
    """The partial summary of trials ``[start, stop)``, from their rows (:func:`_trial_rows`).

    A violation is a trial whose margin ``max(upper slack, -lower slack,
    closed-form error)`` passes ``config.tol``; the violating trials are
    redrawn together, in blocks, for their digests. The rows and the
    digests are drawn in ``buffers``, the range's.
    """
    upper, lower, formula, excess = _trial_rows(config, start, stop, buffers).T
    margin = np.maximum(np.maximum(upper, -lower), np.nan_to_num(formula, nan=0.0))
    flagged = np.flatnonzero(margin > config.tol).tolist()
    digests = []
    for lo, hi in _blocks(0, len(flagged), config.dim_a, config.dim_b):
        words = _seed_words(config.seed, [start + row for row in flagged[lo:hi]])
        digests += map(_digest, *_draw_block(config, words, buffers))
    violations = [Violation(config.seed, start + row, digest, float(margin[row]))
                  for row, digest in zip(flagged, digests)]
    # fmax skips NaN; np.nanmax would warn on an all-NaN column
    return (violations, float(upper.max()), float(lower.min()),
            float(np.fmax.reduce(formula, initial=-math.inf)),
            int(np.count_nonzero(excess > config.tol)),
            float(np.fmax.reduce(excess, initial=-math.inf)), len(margin))


def _merged(parts) -> tuple:
    """The partial summary of consecutive ranges of trials from theirs, read
    one at a time in trial order."""
    violations, upper, lower, formula, excesses, excess, judged = (
        [], -math.inf, math.inf, -math.inf, 0, -math.inf, 0)
    for part in parts:
        violations += part[0]
        upper, lower, formula = max(upper, part[1]), min(lower, part[2]), max(formula, part[3])
        excesses, excess, judged = excesses + part[4], max(excess, part[5]), judged + part[6]
    return violations, upper, lower, formula, excesses, excess, judged


# Evaluation blocks of trials that a range seeds, draws, evaluates and judges
# at a time, so that only one chunk's draws, columns and rows are alive
# whatever the range's length: 32768 trials at 2x2, 1304 at 10x10 and 128 at
# 32x32. Smaller chunks pay the seeding's and the bound stage's fixed costs
# more often: in-process general campaigns on a 2-core x86-64 host, best of 5,
# took 164-169 us per 32x32 trial in chunks of 16 trials, 130-134 in chunks of
# 128 and 128-129 in chunks of 512 (10x10: 21, 17-19 and 16-19 us in chunks
# of 162, 1296 and 5184 trials).
_CHUNK_BLOCKS = 8


def _run_range(config: EnsembleConfig, start: int, stop: int) -> tuple:
    """The partial summary of trials ``[start, stop)``: the unit of work of a campaign.

    The range is walked in chunks of ``_CHUNK_BLOCKS`` evaluation blocks,
    each seeded, drawn, evaluated (:func:`_trial_rows`) and judged
    (:func:`_judged`) on its own, so the range's memory grows with its
    violations and not with its length; the chunks' partial summaries are
    merged as they come. The range makes one set of block buffers
    (:class:`supconc.measures._Buffers`), which every block is drawn and
    evaluated in; each trial, and each digest redraw, is drawn on a
    generator of its own.
    """
    step = _CHUNK_BLOCKS * _block_size(config.dim_a, config.dim_b)
    buffers = _Buffers()
    return _merged(_judged(config, lo, min(lo + step, stop), buffers)
                   for lo in range(start, stop, step))


def _terminate(pool: ProcessPoolExecutor) -> None:
    """Cancel the pool's queued ranges and terminate its processes.

    The processes are terminated, not shut down: a pool range is up to a
    quarter of a worker's share of the campaign, and ``shutdown`` cancels
    only the queued ranges, so the pool's exit would wait for the running
    ones to finish.
    """
    # Python 3.10-3.13 name the processes only in the private _processes;
    # 3.14 has terminate_workers for this, which is called there so that
    # nothing relies on _processes staying
    if hasattr(pool, "terminate_workers"):   # Python 3.14 and later
        pool.terminate_workers()
        return
    processes = list((pool._processes or {}).values())
    pool.shutdown(wait=False, cancel_futures=True)
    for process in processes:
        process.terminate()


# A campaign runs in this process whatever --jobs asks unless the pool's share
# of its trials has at least _POOL_FLOOR amplitudes of work, counted as
# trials * (dim_a * dim_b + _TRIAL_AMPLITUDES). Only a process's first
# pooled campaign starts the pool (~12-15 ms per worker under fork, 100-160
# ms under forkserver and spawn); later campaigns of the same size reuse it
# (_idle_pool). A trial takes ~0.13 us per amplitude of work, its fixed cost
# ~50 amplitudes' worth (~7 us at 2x2, 20 at 10x10, ~140 at 32x32).
# In-process general campaigns on a 2-core x86-64 host, one process against
# two, 12-16 alternating calls per size, each starting its pool: --jobs 2
# was slower at 1000 and 1250 10x10 trials (pool shares of 52000 and 90000
# amplitudes), 100-200 32x32 trials (39000-95000), 3000 3x3 and 5x5 trials
# (70000, 78000) and 6000 2x2 trials (103000); within 10 % either way at
# 1500 10x10, 4000 5x5 and 10000 2x2 trials (98000-104000); faster at 2000
# 10x10 (129000), 6000 and 12000 3x3 (139000, 278000) and 8000 2x2 trials
# (211000), and at 250 32x32 (131000) in 28 of 44 calls. The total work
# alone cannot place the crossover: this process keeps the larger share of
# an odd block count. A warm pool does not move the floor: forced into one,
# 250-trial 10x10 campaigns (a share of 13050) saved 0.7-2 ms of ~7 ms each,
# and the floor is what keeps a cold pool, as every `supconc verify` run
# has, off shares that small.
_TRIAL_AMPLITUDES = 50
_POOL_FLOOR = 110_000


# The idle pool, (processes, executor), or None: the executor of the last
# pooled campaign that ended well, which no campaign holds. Its processes,
# and its manager thread in this process, stay until this process exits
# (concurrent.futures joins them then), a campaign of another size replaces
# it or release_pool() shuts it down
_idle = None
_IDLE_LOCK = threading.Lock()


def _forget_pool() -> None:
    """In a child forked from this process: the idle pool is the parent's,
    whose processes and manager thread the child does not have, and the
    lock may have been held by a thread the child does not have either."""
    global _idle, _IDLE_LOCK
    _idle, _IDLE_LOCK = None, threading.Lock()


if hasattr(os, "register_at_fork"):   # POSIX
    os.register_at_fork(after_in_child=_forget_pool)


def _idle_pool(processes: int) -> ProcessPoolExecutor | None:
    """Take the idle pool if it has ``processes`` processes, all alive.

    The taking is under a lock, so campaigns in threads never share a pool.
    An idle pool of another size, or with a process that died while it was
    idle, is shut down and its processes waited for: its manager thread is
    joined, so a pool started next does not fork while that thread lives.
    """
    global _idle
    with _IDLE_LOCK:
        idle, _idle = _idle, None
    if idle is None:
        return None
    size, pool = idle
    # Python 3.10-3.14 name the processes only in the private _processes,
    # and mark a pool whose process death they have seen in _broken. A
    # process's sentinel is ready from its exit on, before and after it is
    # reaped, whereas is_alive, a waitpid, reads an exited process that is
    # not yet a zombie as running
    if size == processes and not pool._broken and not multiprocessing.connection.wait(
            [process.sentinel for process in pool._processes.values()], timeout=0):
        return pool
    pool.shutdown(wait=True)
    return None


def _give_back(processes: int, pool: ProcessPoolExecutor) -> None:
    """Make ``pool``, of ``processes`` processes, the idle pool, unless another
    campaign's already is; then shut it down."""
    global _idle
    with _IDLE_LOCK:
        if _idle is None:
            _idle, pool = (processes, pool), None
    if pool is not None:
        pool.shutdown(wait=True)


def release_pool() -> None:
    """Shut down the pool that pooled campaigns left idle, if any, and wait
    for its processes and its manager thread, so that this process holds
    no pool process and no thread of the pool's (before an ``os.fork``,
    say). The next pooled campaign starts a new pool."""
    _idle_pool(0)   # no pool has 0 processes: the idle one is shut down


def _usable_cpus() -> int:
    """The CPUs this process may run on: its affinity mask where the OS has one."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def verify_ensemble(config: EnsembleConfig, jobs: int = 1) -> VerificationSummary:
    """Run a campaign: draw pairs and weights, evaluate, record violations.

    Ranges of trials are the unit of work (:func:`_run_range`): each seeds,
    draws, evaluates and judges its own trials, a chunk of blocks at a time,
    and returns its partial summary. With ``jobs > 1`` and more than one
    block and CPU that this process may run on (its affinity mask), a
    campaign runs in ``min(jobs, blocks, CPUs)`` processes, this one
    included: this process runs the first
    ``ceil(blocks / processes)`` blocks as one range, and a pool of the
    other processes the rest, cut into at most four ranges of whole blocks
    per pool process, if that share has at least ``_POOL_FLOOR``
    amplitudes of work (``trials * (dim_a * dim_b + _TRIAL_AMPLITUDES)``,
    the last a trial's fixed cost); otherwise the whole campaign is one
    range run here. The split is worked out from the trial count, so
    nothing here grows with it. Deterministic for a given config
    regardless of ``jobs``: trial ``i`` is drawn from
    ``default_rng([seed mod 2**64, i])``, and its row does not depend on
    its range, chunk or block. The ranges' partial summaries come back in
    trial order, this process's share first, so a bug raises for the
    first bad trial; the summary merges them: a max, min or count per
    quantity, and the violations in trial order. ``trials_run`` counts the
    trials the ranges judged, and a count other than ``config.trials``
    raises :class:`InternalError`. A trial violates where
    its margin ``max(upper slack, -lower slack, closed-form error)`` passes
    ``config.tol``. This is the campaign's one judge of a bound escape, so
    ``config.tol`` is the tolerance whatever its value. A bug in a range
    raises :class:`SanityFailure` and ends the campaign without a summary.
    The pool is kept for the process's next pooled campaign: a campaign
    that ends well leaves it idle, and the next campaign whose pool has as
    many processes takes it (:func:`_idle_pool`), so only a process's first
    pooled campaign, or the first after a change of size or an early end,
    pays the pool's start-up. ``supconc verify`` runs one campaign per
    process and pays it once either way; a caller that runs campaigns in a
    loop pays it once in all. Until this process exits, a campaign ends
    early or :func:`release_pool` is called, the idle pool's processes
    stay, and so does its manager thread: an ``os.fork`` in this process
    forks it with that thread running (a forked child forgets the idle
    pool and starts its own). A pool process that dies during a campaign
    raises ``BrokenProcessPool``; an idle pool with a process found dead
    when the next campaign takes it is shut down, and the campaign starts
    a new one. The pool's processes ignore SIGINT, and whatever ends the
    campaign early cancels the pool's queued ranges, terminates its
    processes and keeps no pool, so one Ctrl-C, which interrupts this
    process's range or its wait for the pool's, ends the campaign and its
    processes.
    A ``jobs`` that is not an integer of at least 1 raises
    :class:`OutOfRange` before anything is drawn.
    """
    # a bool is an int too, but no process count
    if isinstance(jobs, bool) or not isinstance(jobs, (int, np.integer)) or jobs < 1:
        raise OutOfRange(f"jobs must be an integer >= 1, got {jobs!r}")
    t0 = time.perf_counter()
    size = _block_size(config.dim_a, config.dim_b)
    blocks = -(-config.trials // size)   # ceilings in integers: exact at any trial count
    workers = min(jobs, blocks, _usable_cpus())
    # this process runs the first share of the blocks and workers - 1 pool
    # processes the rest
    own = -(-blocks // workers)
    split = own * size   # the first trial of the pool's share
    work = (config.trials - split) * (config.dim_a * config.dim_b + _TRIAL_AMPLITUDES)
    if workers <= 1 or work < _POOL_FLOOR:
        parts = [_run_range(config, 0, config.trials)]
    else:
        # the pool's share goes out first: a fork-started pool forks every
        # worker at the first submit. A few ranges per worker even out their
        # loads, and no more than a few: map submits every range at once, and
        # chunk-sized ranges ran a 2**63-trial campaign out of memory
        step = -(-(blocks - own) // (4 * (workers - 1))) * size
        starts = range(split, config.trials, step)
        processes = workers - 1
        pool = _idle_pool(processes) or ProcessPoolExecutor(
            processes, initializer=signal.signal, initargs=(signal.SIGINT, signal.SIG_IGN))
        try:
            rest = pool.map(_run_range, [config] * len(starts), starts,
                            [min(lo + step, config.trials) for lo in starts])
            parts = [_run_range(config, 0, split), *rest]
        except BaseException:
            # Ctrl-C, a bug or a dead pool process: nothing left is waited for
            _terminate(pool)
            raise
        _give_back(processes, pool)
    violations, upper, lower, formula, excesses, excess, judged = _merged(parts)
    if judged != config.trials:
        raise InternalError(f"the ranges judged {judged} of the {config.trials} trials")
    return VerificationSummary(
        trials_run=judged,
        violations=tuple(violations),
        max_upper_slack=upper,
        min_lower_slack=lower,
        max_formula_error=None if formula == -math.inf else formula,
        zero_delta_lower_excesses=excesses,
        max_zero_delta_excess=None if excess == -math.inf else excess,
        wall_time=time.perf_counter() - t0,
    )
