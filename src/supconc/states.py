"""Complex linear algebra over bipartite tensor-product spaces.

States live on a pair of finite-dimensional systems A and B. Amplitude
vectors use the fixed row-major layout ``i * dim_b + j`` for the basis
ket ``|i>_A |j>_B``; every module in the package shares this convention,
and complex conjugation is always taken entrywise in this basis.

All values are immutable after construction (the wrapped numpy arrays
are marked read-only) and all operations are pure functions, so objects
are safe to share between threads.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionMismatch,
    NotHermitian,
    NotNormalized,
    NotUnitary,
    WeightsNotNormalized,
    ZeroVector,
)

NORM_TOL = 1e-10     # |norm^2 - 1| allowed for a PureState
ZERO_TOL = 1e-12     # below this norm a vector counts as fully cancelled
HERMITIAN_TOL = 1e-10
PSD_TOL = -1e-10     # eigenvalues of a density matrix may dip this far
UNITARY_TOL = 1e-10


def _frozen(values, shape: tuple[int, ...]) -> np.ndarray:
    """Read-only complex copy of ``values`` with the given shape.

    A one-dimensional ``shape`` flattens the input first, so amplitudes may
    arrive in coefficient-matrix form.
    """
    arr = np.array(values, dtype=np.complex128, copy=True)
    if len(shape) == 1:
        arr = arr.reshape(-1)
    if arr.shape != shape:
        raise DimensionMismatch(
            f"shape {arr.shape} does not match the dimensions {shape}")
    arr.setflags(write=False)
    return arr


def _require_positive(*dims: int) -> None:
    if min(dims) < 1:
        raise DimensionMismatch(f"dimensions must be positive, got {dims}")


def _require_hermitian(entries: np.ndarray) -> None:
    dev = np.max(np.abs(entries - entries.conj().T))
    if dev > HERMITIAN_TOL:
        raise NotHermitian(f"max |rho - rho^dagger| = {dev!r}")


def _require_same_space(a, b) -> None:
    """Raise :class:`DimensionMismatch` unless ``a`` and ``b`` share ``(dim_a, dim_b)``."""
    if (a.dim_a, a.dim_b) != (b.dim_a, b.dim_b):
        raise DimensionMismatch(f"states live on different spaces: "
                                f"{(a.dim_a, a.dim_b)} vs {(b.dim_a, b.dim_b)}")


def _first(bad) -> int | None:
    """Index of the first true entry of ``bad``, else ``None``.

    ``bad`` is one flag (index 0) or a flag array, so one check serves a
    single state and a stack of them.
    """
    bad = np.ravel(bad)
    return int(np.argmax(bad)) if bad.any() else None


def _raise_first(values, holds, error) -> None:
    """Raise ``error(v)`` for the first ``v`` of ``values`` where ``holds`` fails (as NaN does)."""
    row = _first(np.logical_not(holds))
    if row is not None:
        raise error(float(np.ravel(values)[row]))


def _require_unit_norm(norm_sq) -> None:
    _raise_first(norm_sq, abs(norm_sq - 1.0) <= NORM_TOL, NotNormalized)


def _require_unit_weights(alpha, beta) -> None:
    wsum = abs(alpha) ** 2 + abs(beta) ** 2
    _raise_first(wsum, abs(wsum - 1.0) <= NORM_TOL, lambda v: WeightsNotNormalized(
        f"|alpha|^2 + |beta|^2 = {v!r}, expected 1"))


def _require_nonzero_norm(norm) -> None:
    _raise_first(norm, norm > ZERO_TOL,
                 lambda v: ZeroVector(f"vector norm {v!r} is below {ZERO_TOL}"))


def _freeze_amplitudes(v: RawVector | PureState) -> None:
    """Validate the dims of ``v`` and freeze its amplitudes to length ``dim_a*dim_b``."""
    _require_positive(v.dim_a, v.dim_b)
    object.__setattr__(v, "amplitudes", _frozen(v.amplitudes, (v.dim_a * v.dim_b,)))


@dataclass(frozen=True)
class RawVector:
    """Bipartite amplitude vector with no normalization requirement.

    Same layout as :class:`PureState`; the norm may be anything,
    including zero (e.g. the unnormalized superposition of two
    non-orthogonal states, or their full cancellation).
    """

    dim_a: int
    dim_b: int
    amplitudes: np.ndarray

    def __post_init__(self):
        _freeze_amplitudes(self)

    @property
    def matrix(self) -> np.ndarray:
        """Amplitudes reshaped to the dim_a x dim_b coefficient matrix."""
        return self.amplitudes.reshape(self.dim_a, self.dim_b)

    def norm(self) -> float:
        return float(np.linalg.norm(self.amplitudes))


@dataclass(frozen=True)
class PureState:
    """Normalized bipartite pure state.

    Invariants (checked at construction):

    * ``len(amplitudes) == dim_a * dim_b``
    * ``sum |amplitude|^2 == 1`` within ``NORM_TOL``
    """

    dim_a: int
    dim_b: int
    amplitudes: np.ndarray

    def __post_init__(self):
        _freeze_amplitudes(self)
        _require_unit_norm(np.vdot(self.amplitudes, self.amplitudes).real)

    @property
    def matrix(self) -> np.ndarray:
        """Amplitudes reshaped to the dim_a x dim_b coefficient matrix."""
        return self.amplitudes.reshape(self.dim_a, self.dim_b)

    def is_qubit_pair(self) -> bool:
        return self.dim_a == 2 and self.dim_b == 2


@dataclass(frozen=True)
class DensityMatrix:
    """Reduced state of one party.

    Hermitian within ``HERMITIAN_TOL`` and positive semidefinite down to
    ``PSD_TOL``. The trace equals 1 when the matrix was obtained by
    partial trace of a :class:`PureState`, but trace-1 is not required
    by the type itself.
    """

    dim: int
    entries: np.ndarray

    def __post_init__(self):
        _require_positive(self.dim)
        object.__setattr__(self, "entries", _frozen(self.entries, (self.dim, self.dim)))
        _require_hermitian(self.entries)
        eigmin = float(np.linalg.eigvalsh(self.entries)[0])
        if eigmin < PSD_TOL:
            raise NotHermitian(
                f"matrix is not positive semidefinite: min eigenvalue {eigmin!r}"
            )


@dataclass(frozen=True)
class OperatorAB:
    """Square operator on the joint A x B space.

    Hermiticity is *not* required: the map machinery is routinely
    applied to cross terms like ``|phi><varphi|``.
    """

    dim_a: int
    dim_b: int
    entries: np.ndarray

    def __post_init__(self):
        _require_positive(self.dim_a, self.dim_b)
        n = self.dim_a * self.dim_b
        object.__setattr__(self, "entries", _frozen(self.entries, (n, n)))


@dataclass(frozen=True)
class SuperpositionSpec:
    """Weights and components of the superposition alpha*phi + beta*varphi."""

    alpha: complex
    beta: complex
    phi: PureState
    varphi: PureState

    def __post_init__(self):
        object.__setattr__(self, "alpha", complex(self.alpha))
        object.__setattr__(self, "beta", complex(self.beta))
        _require_same_space(self.phi, self.varphi)
        _require_unit_weights(self.alpha, self.beta)

    @property
    def dims(self) -> tuple[int, int]:
        return self.phi.dim_a, self.phi.dim_b


def make_state(dim_a: int, dim_b: int, amplitudes) -> PureState:
    """Build a validated :class:`PureState`.

    Parameters
    ----------
    dim_a, dim_b : int
        Local dimensions of parties A and B.
    amplitudes : sequence of complex
        Length ``dim_a * dim_b`` in the row-major layout.

    Raises
    ------
    DimensionMismatch
        If the length does not match the dimensions.
    NotNormalized
        If the squared norm deviates from 1 by more than ``NORM_TOL``.
    """
    return PureState(dim_a, dim_b, amplitudes)


def superpose(spec: SuperpositionSpec) -> tuple[RawVector, float]:
    """Form ``alpha*phi + beta*varphi`` without normalizing.

    Returns
    -------
    (RawVector, float)
        The raw superposition vector and its squared norm, computed
        directly from the vector. For normalized weights the squared
        norm equals ``1 + 2 Re(conj(alpha) beta <phi|varphi>)``.
    """
    v = spec.alpha * spec.phi.amplitudes + spec.beta * spec.varphi.amplitudes
    norm_sq = float(np.vdot(v, v).real)
    return RawVector(spec.phi.dim_a, spec.phi.dim_b, v), norm_sq


def normalize(v: RawVector) -> tuple[PureState, float]:
    """Scale a raw vector to unit norm.

    Returns the normalized state together with the original norm.
    Raises :class:`ZeroVector` when the norm is at or below ``ZERO_TOL``
    (the alpha*phi = -beta*varphi cancellation).
    """
    norm = float(np.linalg.norm(v.amplitudes))
    _require_nonzero_norm(norm)
    return PureState(v.dim_a, v.dim_b, v.amplitudes / norm), norm


def inner_product(a: PureState | RawVector, b: PureState | RawVector) -> complex:
    """Hermitian inner product <a|b>, conjugate-linear in ``a``."""
    _require_same_space(a, b)
    return complex(np.vdot(a.amplitudes, b.amplitudes))


def _reduce_operator(entries: np.ndarray, dim_a: int, dim_b: int, side: str) -> np.ndarray:
    four = entries.reshape(dim_a, dim_b, dim_a, dim_b)
    if side == "A":
        return np.einsum("ijkj->ik", four)
    return np.einsum("ijil->jl", four)


def reduced_density(x: PureState | OperatorAB, side: str) -> DensityMatrix | np.ndarray:
    """Partial trace over the complementary subsystem.

    ``side="A"`` traces out B and returns the state of A; ``side="B"``
    the converse. The full trace is preserved.

    For a :class:`PureState` input the result is a validated
    :class:`DensityMatrix`. For an :class:`OperatorAB` input (which may
    be non-Hermitian) the raw complex matrix is returned instead.
    """
    side = side.upper()
    if side not in ("A", "B"):
        raise DimensionMismatch(f"side must be 'A' or 'B', got {side!r}")
    if isinstance(x, PureState):
        m = x.matrix
        if side == "A":
            return DensityMatrix(x.dim_a, m @ m.conj().T)
        return DensityMatrix(x.dim_b, m.T @ m.conj())
    if isinstance(x, OperatorAB):
        return _reduce_operator(x.entries, x.dim_a, x.dim_b, side)
    raise DimensionMismatch(f"cannot take a partial trace of {type(x).__name__}")


def schmidt_coefficients(s: PureState) -> np.ndarray:
    """Singular values of the coefficient matrix, in descending order.

    The squared values are the eigenvalues of either reduced state and
    sum to 1; the list has length ``min(dim_a, dim_b)``. Only the
    multiset is meaningful; ties are in arbitrary order.
    """
    return np.linalg.svd(s.matrix, compute_uv=False)


def purity(rho: DensityMatrix | np.ndarray) -> float:
    """Tr(rho^2); lies in [1/dim, 1] for a valid density matrix."""
    if isinstance(rho, DensityMatrix):
        entries = rho.entries
    else:
        entries = np.asarray(rho, dtype=np.complex128)
        if entries.ndim != 2 or entries.shape[0] != entries.shape[1]:
            raise DimensionMismatch(f"expected a square matrix, got {entries.shape}")
        _require_hermitian(entries)
    return float(np.trace(entries @ entries).real)


def _check_unitary(u: np.ndarray, dim: int, label: str) -> np.ndarray:
    u = np.asarray(u, dtype=np.complex128)
    if u.shape != (dim, dim):
        raise DimensionMismatch(f"{label} has shape {u.shape}, expected ({dim}, {dim})")
    dev = np.max(np.abs(u.conj().T @ u - np.eye(dim)))
    if dev > UNITARY_TOL:
        raise NotUnitary(f"{label}: max |U^dagger U - I| = {dev!r}")
    return u


def apply_local_unitary(s: PureState, u_a, u_b) -> PureState:
    """Apply ``(u_a tensor u_b)`` to a state; the result stays normalized."""
    u_a = _check_unitary(u_a, s.dim_a, "u_a")
    u_b = _check_unitary(u_b, s.dim_b, "u_b")
    m = u_a @ s.matrix @ u_b.T
    return PureState(s.dim_a, s.dim_b, m.reshape(-1))


def outer_operator(x: PureState, y: PureState) -> OperatorAB:
    """The (generally non-Hermitian) operator ``|x><y|``."""
    _require_same_space(x, y)
    return OperatorAB(x.dim_a, x.dim_b, np.outer(x.amplitudes, y.amplitudes.conj()))


# --- state file format -------------------------------------------------
#
# {"dim_a": int, "dim_b": int, "amplitudes": [[re, im], ...]}
#
# Amplitudes are written with 17 significant digits, which round-trips
# IEEE doubles exactly.


def state_to_json(s: PureState | RawVector) -> str:
    """Serialize a state to the JSON state-file format."""
    pairs = ",\n    ".join(
        f"[{a.real:.17g}, {a.imag:.17g}]" for a in s.amplitudes
    )
    return (
        "{\n"
        f'  "dim_a": {s.dim_a},\n'
        f'  "dim_b": {s.dim_b},\n'
        f'  "amplitudes": [\n    {pairs}\n  ]\n'
        "}\n"
    )


def state_from_json(text: str) -> PureState:
    """Parse and validate a state from the JSON state-file format.

    A document that does not follow the format raises
    :class:`DimensionMismatch` with an ``invalid state file`` message.
    """
    try:
        doc = json.loads(text)
    except ValueError as exc:  # JSONDecodeError, or an integer too long to parse
        raise DimensionMismatch(f"invalid state file: not valid JSON ({exc})") from exc
    if not isinstance(doc, dict):
        raise DimensionMismatch("invalid state file: top level must be an object")
    for key in ("dim_a", "dim_b", "amplitudes"):
        if key not in doc:
            raise DimensionMismatch(f"invalid state file: missing key {key!r}")
    dim_a, dim_b, amps = doc["dim_a"], doc["dim_b"], doc["amplitudes"]
    # exact types: JSON true and false parse to bools, which are ints too
    if type(dim_a) is not int or type(dim_b) is not int:
        raise DimensionMismatch("invalid state file: dims must be integers")
    try:
        # amplitudes that are not a list of pairs of two numbers fail to
        # unpack or to convert; an integer past the float range overflows
        values = [complex(re, im) for re, im in amps]
    except (TypeError, ValueError, OverflowError) as exc:
        raise DimensionMismatch(
            f"invalid state file: amplitudes must be [re, im] number pairs ({exc})") from exc
    return make_state(dim_a, dim_b, values)


def save_state(s: PureState | RawVector, path) -> None:
    with open(path, "w", encoding="ascii") as fh:
        fh.write(state_to_json(s))


def load_state(path) -> PureState:
    """Read a state file; a file that is not ASCII text is an invalid state file."""
    with open(path, encoding="ascii") as fh:
        try:
            text = fh.read()
        except UnicodeDecodeError as exc:
            raise DimensionMismatch(f"invalid state file: not ASCII text ({exc})") from exc
    return state_from_json(text)
