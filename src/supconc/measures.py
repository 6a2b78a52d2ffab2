"""Entanglement measures and the universal-inverter machinery.

The qubit concurrence is the overlap between a two-qubit state and its
spin-flipped image, evaluated in closed form. Its dimension-general
counterpart (I-concurrence) is defined through the universal inverter
``S(rho) = nu * (I - rho)``; the two agree on qubit pairs. The two-sided
map ``Lambda = S (x) S`` acts on an arbitrary operator sigma (at nu = 1)
as::

    Lambda(sigma) = Tr(sigma) I(x)I - sigma_A (x) I - I (x) sigma_B + sigma

which is positive and Hermiticity-preserving but not completely
positive, is trace-increasing by (d_a - 1)(d_b - 1), and satisfies
Tr(rho Lambda(sigma)) = Tr(sigma Lambda(rho)).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, NotTwoQubit, OutOfRange
from .states import (
    DensityMatrix,
    OperatorAB,
    PureState,
    SuperpositionSpec,
    _require_same_space,
    outer_operator,
    reduced_density,
    schmidt_coefficients,
)


@dataclass(frozen=True)
class InverterScale:
    """Scaling factor nu of the universal inverter.

    The default nu = 1 keeps the d-dimensional concurrence consistent
    with the qubit one; nu = 1/(d-1) makes the inverter trace-preserving
    instead. The bounds module requires nu = 1.
    """

    nu: float = 1.0

    def __post_init__(self):
        if not self.nu > 0:
            raise OutOfRange(f"nu must be positive, got {self.nu!r}")


def _require_two_qubit(s: PureState) -> None:
    if not (s.dim_a == 2 and s.dim_b == 2):
        raise NotTwoQubit(
            f"operation requires a 2x2 state, got {s.dim_a}x{s.dim_b}"
        )


def spin_flip(s: PureState) -> PureState:
    """Apply ``sigma_y (x) sigma_y`` to the complex conjugate of a 2-qubit state.

    Conjugation is entrywise in the computational (sigma_z) basis. The
    map is an involution up to a global phase; only overlap magnitudes
    with spin-flipped states are contractual.
    """
    _require_two_qubit(s)
    a = s.amplitudes.conj()
    flipped = np.array([-a[3], a[2], a[1], -a[0]])
    return PureState(2, 2, flipped)


def concurrence_qubit(s: PureState) -> float:
    """Concurrence of a two-qubit pure state: ``2 |a00*a11 - a01*a10|``.

    Ranges from 0 (product states) to 1 (Bell states) and equals the
    spin-flip overlap ``|<s|spin_flip(s)>|``, which tests use as an
    independent oracle.
    """
    _require_two_qubit(s)
    (a00, a01), (a10, a11) = s.matrix
    return float(2.0 * abs(a00 * a11 - a01 * a10))


def binary_entropy(x: float) -> float:
    """``-x log2 x - (1-x) log2 (1-x)``, with h(0) = h(1) = 0 by continuity."""
    if not 0.0 <= x <= 1.0:
        raise OutOfRange(f"binary entropy argument {x!r} outside [0, 1]")
    if x == 0.0 or x == 1.0:
        return 0.0
    return -x * math.log2(x) - (1.0 - x) * math.log2(1.0 - x)


def eof_from_concurrence(c: float) -> float:
    """Entanglement of formation of a qubit pair with concurrence ``c``.

    ``h((1 + sqrt(1 - c^2)) / 2)`` with h the binary entropy; increases
    monotonically from 0 at c = 0 to 1 at c = 1.
    """
    if not 0.0 <= c <= 1.0:
        raise OutOfRange(f"concurrence {c!r} outside [0, 1]")
    return binary_entropy((1.0 + math.sqrt(max(0.0, 1.0 - c * c))) / 2.0)


def i_concurrence(s: PureState) -> float:
    """Dimension-general concurrence ``sqrt(2 (1 - Tr(rho_A^2)))``.

    Evaluated through the Schmidt coefficients as
    ``2 sqrt(sum_{i<j} lambda_i^2 lambda_j^2)``, which is the same
    quantity without the cancellation that loses precision near product
    states. Ranges from 0 to ``sqrt(2 (d-1)/d)`` with
    ``d = min(dim_a, dim_b)``.
    """
    lam_sq = schmidt_coefficients(s) ** 2
    cross = np.outer(lam_sq, lam_sq)
    pair_sum = float(np.sum(np.triu(cross, k=1)))
    return 2.0 * math.sqrt(max(0.0, pair_sum))


def universal_inverter(rho: DensityMatrix | np.ndarray,
                       scale: InverterScale = InverterScale()) -> np.ndarray:
    """``nu * (I - rho)`` on a single system."""
    entries = rho.entries if isinstance(rho, DensityMatrix) else np.asarray(rho, dtype=np.complex128)
    if entries.ndim != 2 or entries.shape[0] != entries.shape[1]:
        raise DimensionMismatch(f"expected a square matrix, got shape {entries.shape}")
    return scale.nu * (np.eye(entries.shape[0]) - entries)


def lambda_map(sigma: OperatorAB, scale: InverterScale = InverterScale()) -> OperatorAB:
    """Two-sided inverter ``(S (x) S)(sigma)``; nu enters squared."""
    da, db = sigma.dim_a, sigma.dim_b
    sig_a = reduced_density(sigma, "A")
    sig_b = reduced_density(sigma, "B")
    entries = (
        np.trace(sigma.entries) * np.eye(da * db)
        - np.kron(sig_a, np.eye(db))
        - np.kron(np.eye(da), sig_b)
        + sigma.entries
    )
    return OperatorAB(da, db, scale.nu ** 2 * entries)


def lambda_sandwich(x: PureState, sigma: OperatorAB, y: PureState) -> complex:
    """Matrix element ``<x| Lambda(sigma) |y>`` at nu = 1.

    For a pure sigma = |phi><phi| the diagonal element has the closed form
    ``<x| Lambda(|phi><phi|) |x> = 1 - Tr(rho_phi^A rho_x^A)
    - Tr(rho_phi^B rho_x^B) + |<phi|x>|^2``, used as a cross-check in
    tests; here the map is applied explicitly.
    """
    _require_same_space(x, sigma)
    _require_same_space(y, sigma)
    lam = lambda_map(sigma)
    return complex(np.vdot(x.amplitudes, lam.entries @ y.amplitudes))


def concurrence_sq_via_lambda(s: PureState) -> float:
    """Squared concurrence via ``<s| Lambda(|s><s|) |s>``.

    O(d^4) verification route; its square root equals
    :func:`i_concurrence` within 1e-10.
    """
    value = lambda_sandwich(s, outer_operator(s, s), s).real
    return max(0.0, value)


def superposition_csq_expansion(spec: SuperpositionSpec) -> float:
    """Squared concurrence of a superposition from its sandwich-term expansion.

    Expands ``<Psi| Lambda(|Psi><Psi|) |Psi>`` for
    ``Psi = alpha*phi + beta*varphi`` into sandwich terms, with the
    sixteen raw terms collapsed via the trace symmetry of Lambda. The
    result equals ``norm(Psi)^4 * C^2(Psi/norm(Psi))``; this is a
    cross-check path, not the production concurrence path.
    """
    al, be = spec.alpha, spec.beta
    phi, var = spec.phi, spec.varphi
    pp = outer_operator(phi, phi)
    vv = outer_operator(var, var)
    pv = outer_operator(phi, var)
    vp = outer_operator(var, phi)

    total = (
        abs(al) ** 4 * lambda_sandwich(phi, pp, phi)
        + abs(be) ** 4 * lambda_sandwich(var, vv, var)
        + 4.0 * abs(al * be) ** 2 * lambda_sandwich(var, pp, var)
        + 2.0 * abs(al) ** 2 * (
            al.conjugate() * be * lambda_sandwich(phi, pp, var)
            + al * be.conjugate() * lambda_sandwich(var, pp, phi)
        )
        + 2.0 * abs(be) ** 2 * (
            al.conjugate() * be * lambda_sandwich(phi, vv, var)
            + al * be.conjugate() * lambda_sandwich(var, vv, phi)
        )
        + (al.conjugate() * be) ** 2 * lambda_sandwich(phi, vp, var)
        + (al * be.conjugate()) ** 2 * lambda_sandwich(var, pv, phi)
    )
    return total.real
