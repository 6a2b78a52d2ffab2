"""Entanglement measures and the universal-inverter machinery.

The qubit concurrence is the overlap between a two-qubit state and its
spin-flipped image, evaluated in closed form. Its dimension-general
counterpart (I-concurrence) is defined through the universal inverter
``S(rho) = I - rho``; the two agree on qubit pairs. Rungta et al.
(PRA 64, 042315 (2001)) allow a scale, ``S(rho) = nu (I - rho)``, but nu
enters ``C^2`` only as an overall factor ``nu^2``, so the package fixes
nu = 1 throughout. The two-sided map ``Lambda = S (x) S`` acts on an
arbitrary operator sigma as::

    Lambda(sigma) = Tr(sigma) I(x)I - sigma_A (x) I - I (x) sigma_B + sigma

which is positive and Hermiticity-preserving but not completely
positive, is trace-increasing by (d_a - 1)(d_b - 1), and satisfies
Tr(rho Lambda(sigma)) = Tr(sigma Lambda(rho)).

The squared concurrence is read from a reduced state ``rho`` by one
formula, ``C^2 = 2((tr rho)^2 - ||rho||_F^2)`` (:func:`_purity_csq`): the
evaluation core and both inverter routes, :func:`concurrence_sq_via_lambda`
and :func:`superposition_csq_expansion`, share it. :func:`lambda_map` and
:func:`lambda_sandwich` apply the map explicitly and are their oracle.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .errors import NotTwoQubit, OutOfRange
from .states import (
    OperatorAB,
    PureState,
    SuperpositionSpec,
    _reduce_operator,
    _require_same_space,
    _square,
    schmidt_coefficients,
)


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
    return float(_concurrence(s.matrix))


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
    return float(_schmidt_concurrence(schmidt_coefficients(s)))


def _schmidt_concurrence(lam: np.ndarray) -> np.ndarray:
    """``2 sqrt(sum_{i<j} lambda_i^2 lambda_j^2)`` over the last axis of ``lam``."""
    lam_sq = lam ** 2
    cross = lam_sq[..., :, None] * lam_sq[..., None, :]
    # np.triu(cross, k=1), without np.triu rebuilding its mask on every call
    i = np.arange(lam.shape[-1])
    return 2.0 * np.sqrt(np.sum(np.where(i > i[:, None], cross, 0.0), axis=(-2, -1)))


# Floor of the purity route of _concurrence, per (d + 1)^2 with d the longer
# side of the matrix. With unit roundoff u = eps / 2, row norms r_i of the
# unit-norm coefficient matrix, and to first order: each entry of rho is an
# inner product of length d, off by at most d u r_i r_j; so tr(rho) is off by
# at most 2 d u, rho_ii tr(rho) by (3 d + 1) u r_i^2, and sum_j |rho_ij|^2 by
# (4 d + 1) u r_i^2. A row's difference is then off by (7 d + 3) u r_i^2, and
# C^2, twice the sum over rows, by at most (7 d + 3) eps <= 7 (d + 1) eps.
# Since |sqrt(C^2 + e) - C| <= |e| / (2 C), C moves by at most 5e-14 (half of
# the 1e-13 allowed between the routes; the rest is the SVD route's own
# rounding) once C >= 7 (d + 1) eps / 1e-13, that is C^2 >= _GRAM_FLOOR
# (d + 1)^2. The floor grows with d, so a floor fixed at one size would not
# hold at a larger one: from d ~ 90 on, every matrix takes the SVD route.
_GRAM_FLOOR = (7.0 * np.finfo(np.float64).eps / 1e-13) ** 2


def _concurrence(m: np.ndarray) -> np.ndarray:
    """Concurrence of a coefficient matrix, or of each matrix of a stack.

    The closed form ``2|a00 a11 - a01 a10|`` on 2x2 matrices. Otherwise the
    I-concurrence from the purity of the reduced state on the smaller side
    (:func:`_gram`, :func:`_purity_concurrence`).
    """
    if m.shape[-2:] == (2, 2):
        return 2.0 * np.abs(m[..., 0, 0] * m[..., 1, 1] - m[..., 0, 1] * m[..., 1, 0])
    stack = m.reshape(-1, *m.shape[-2:])
    return _purity_concurrence(_gram(stack, stack), stack).reshape(m.shape[:-2])


def _purity_concurrence(rho: np.ndarray, stack: np.ndarray) -> np.ndarray:
    """I-concurrence of each matrix of ``stack`` from its reduced state ``rho``.

    ``rho = _gram(stack, stack)``, and ``C^2`` is :func:`_purity_csq` of it.
    Near product states its row differences have lost the digits of C, so
    a matrix whose ``C^2`` falls below ``_GRAM_FLOOR (max(dim_a, dim_b) +
    1)^2`` takes the I-concurrence of its singular values instead
    (:func:`_schmidt_concurrence`). Each matrix's value depends on that
    matrix alone. The two routes agree within 1e-13, and agree with the
    closed form within 1e-12 on qubit pairs.
    """
    c_sq = _purity_csq(rho)
    c = np.sqrt(np.maximum(c_sq, 0.0))
    near_product = c_sq < _GRAM_FLOOR * (max(stack.shape[1:]) + 1) ** 2
    if near_product.any():
        c[near_product] = _schmidt_concurrence(
            np.linalg.svd(stack[near_product], compute_uv=False))
    return c


def _purity_csq(rho: np.ndarray) -> np.ndarray:
    """``C^2 = 2((tr rho)^2 - ||rho||_F^2)`` of each reduced state of a stack.

    Summed row by row as ``2 sum_i (rho_ii tr rho - sum_j |rho_ij|^2)``, so
    that the O(1) parts cancel within each row. For an unnormalized state
    whose reduced state is ``rho``, this is ``norm^4 C^2`` of the normalized
    one. Not clamped: rounding may leave a slightly negative value.
    """
    diag = np.einsum("tii->ti", rho).real
    parts = rho.view(np.float64)  # real and imaginary parts, interleaved
    row_sq = np.einsum("tik,tik->ti", parts, parts)
    return 2.0 * (diag * diag.sum(axis=1, keepdims=True) - row_sq).sum(axis=1)


def _gram(m: np.ndarray, n: np.ndarray) -> np.ndarray:
    """Gram block of coefficient matrices ``m`` and ``n`` (or stacks of them)
    on their smaller side: ``N M^dag`` when ``dim_a <= dim_b``, else
    ``M^dag N``.

    Its trace is ``<m|n>``, and ``_gram(m, m)`` is the reduced state of ``m``
    on that side (on side B, its transpose, which has the same spectrum).
    """
    return _conj_gram(m.conj(), n)


def _conj_gram(m_conj: np.ndarray, n: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """:func:`_gram` of ``m`` and ``n`` from ``m_conj = m.conj()``, so that the
    Gram blocks of one stack share its conjugate; the products are the same.
    The block is written into ``out`` if one is given."""
    rows, cols = m_conj.shape[-2:]
    if (rows, cols) == (2, 2):
        # a batched matmul of 2x2 blocks costs more per block than its products
        return np.sum(n[..., :, None, :] * m_conj[..., None, :, :], axis=-1, out=out)
    if rows <= cols:
        return np.matmul(n, m_conj.swapaxes(-1, -2), out=out)
    return np.matmul(m_conj.swapaxes(-1, -2), n, out=out)


class _Buffers:
    """Arrays that one evaluation block after another writes into, instead of
    allocating its own: a campaign range's draws and Gram blocks, or the Gram
    blocks of one :func:`supconc.bounds.evaluate_batch` call.

    A block's arrays, up to 1.75 MiB at 32x32, are large enough that glibc
    returns them to the system when they are freed, and the next block
    faults the same pages in again. :meth:`take` hands out the leading bytes
    of one array per name, allocated at the first request and again only for
    a larger one, as an array of any dtype, holding whatever the previous
    block left there: what is kept past a block must be a copy, and what is
    read must be written first. Two requests under one name share their
    bytes. A campaign block's ``"conj"`` holds, one after the other, its
    normals (:func:`supconc.ensembles._block_draws`), an orthogonal pair's
    Gram-Schmidt scratch (:func:`supconc.ensembles._pair_rows`) and the
    conjugates of its component stacks (:func:`_gram_table`); each is read
    before the next is written.

    A set is made only where its blocks are owned: by a campaign range
    (:func:`supconc.ensembles._run_range`), the redraw of one trial
    (:func:`supconc.ensembles._draw_trial`), a public generator's one-row
    draw (:func:`supconc.ensembles._one_pair`), an
    :func:`supconc.bounds.evaluate_batch` call and a
    :func:`supconc.bounds.classify_pair` call. Every stage below them takes
    the set as an argument.
    """

    def __init__(self):
        self._arrays: dict[str, np.ndarray] = {}

    def take(self, name: str, shape: tuple[int, ...], dtype=np.complex128) -> np.ndarray:
        """A C-contiguous ``shape`` array of ``dtype`` in the bytes of the buffer ``name``."""
        size = math.prod(shape) * np.dtype(dtype).itemsize
        array = self._arrays.get(name)
        if array is None or array.size < size:
            array = self._arrays[name] = np.empty(size, np.uint8)
        return array[:size].view(dtype).reshape(shape)


class GramTable(NamedTuple):
    """Gram blocks of stacked component pairs (m, n) and what is read from them.

    ``a = _gram(m, m)``, ``b = _gram(n, n)`` and ``c = _gram(m, n)``, so that
    ``c`` has the trace ``<m|n>``; the traces and the seven Frobenius
    products of the three blocks, one entry per pair (or one for a
    one-matrix stack of both components). Since ``a`` and ``b`` are
    Hermitian, ``tr_ac = tr(AC) = <A, C>`` and ``tr_bc = <B, C>``.
    ``overlap`` is ``<m|n>`` summed from the amplitudes, equal to ``tr_c``
    to rounding.
    """

    a: np.ndarray
    b: np.ndarray
    tr_a: np.ndarray
    tr_b: np.ndarray
    tr_c: np.ndarray
    aa: np.ndarray     # ||A||^2
    bb: np.ndarray     # ||B||^2
    ab: np.ndarray     # <A, B> = Tr(rho_m rho_n) on the Gram side
    cc: np.ndarray     # ||C||^2 = Tr(rho_m rho_n) on the other side
    tr_cc: np.ndarray  # tr(C C)
    tr_ac: np.ndarray
    tr_bc: np.ndarray
    overlap: np.ndarray


def _gram_table(m: np.ndarray, n: np.ndarray, buffers: _Buffers) -> GramTable:
    """The :class:`GramTable` of stacks ``m`` and ``n`` of shape
    ``(T or 1, dim_a, dim_b)``: three batched products per pair, and
    O(d^2) per pair for the rest. Each stack is conjugated once.

    The conjugates, one after the other in the buffer ``"conj"``, and the
    blocks ``A``, ``B`` and ``C`` are written into ``buffers``, so the
    table's ``a`` and ``b`` hold until the next table is built in them;
    every other entry is an array of its own. ``m`` and ``n`` must not be
    in the bytes of ``"conj"`` when this is called.
    """
    conj = buffers.take("conj", (len(m) + len(n), *m.shape[1:]))
    m_conj = np.conjugate(m, out=conj[:len(m)])
    n_conj = np.conjugate(n, out=conj[len(m):])
    side = min(m.shape[1:])

    def gram(x_conj, y, name):
        return _conj_gram(x_conj, y, buffers.take(name, (max(len(x_conj), len(y)), side, side)))

    a, b, c = gram(m_conj, m, "a"), gram(n_conj, n, "b"), gram(m_conj, n, "c")
    # real and imaginary parts, interleaved: the real part of a Frobenius
    # product is the dot product of the two blocks' parts
    ra, rb, rc = (x.reshape(len(x), -1).view(np.float64) for x in (a, b, c))

    def dot(x, y):
        return np.einsum("tk,tk->t", x, y)

    def trace(x, y):
        return np.einsum("tij,tji->t", x, y)

    return GramTable(a, b, np.einsum("tii->t", a).real, np.einsum("tii->t", b).real,
                     np.einsum("tii->t", c), dot(ra, ra), dot(rb, rb), dot(ra, rb),
                     dot(rc, rc), trace(c, c), trace(a, c), trace(b, c),
                     np.einsum("tij,tij->t", m_conj, n))


# Floor of the expansion route of bounds._component_columns, per sqrt(D + 1)
# with D the longer side and d the shorter. X = norm^4 C^2(Psi') is
# 2((tr rho)^2 - ||rho||^2) for rho = |alpha|^2 A + |beta|^2 B + x C + conj(x) C^dag
# (x = conj(alpha) beta), a fixed combination of the products of GramTable. Its
# terms add up to sigma^2 <= 4 in size, sigma = (|alpha| + |beta|)^2, however
# small X is, so the rounding error e of X is absolute. C(Psi') = sqrt(X) / norm^2
# then moves by e / (2 norm^2 sqrt(X)) <= cap e / (2 X), since norm^2 >= sqrt(X)
# / cap with cap = sqrt(2) bounding C(Psi'); that is at most 4e-14, within half
# of the 1e-13 allowed between the routes with the norm's own rounding, once
# X >= sqrt(2) e / 8e-14. A first-order worst-case bound on e, taken as for
# _GRAM_FLOOR, is (4 D + 2 d^2 + 2 d + 10) sigma^2 eps: at 32x32 that floor
# would exceed X on every row. Rounding errors are independent and add in
# quadrature instead (Higham and Mary, SIAM J. Sci. Comput. 41, A2815 (2019)),
# so the error of each length-D Gram entry grows like sqrt(D). Against the
# formed superposition in long double, over close near-product,
# near-cancelling, basis-localised and Haar pairs from 2x5 to 32x32, e stayed
# below 22 sqrt(D + 1) eps. The floor takes e = 32 sqrt(D + 1) eps: X >= 0.25
# at 3x3, 0.42 at 10x10 and 0.72 at 32x32. A row below it is formed and takes
# _concurrence.
_EXPANSION_FLOOR = 32.0 * np.finfo(np.float64).eps * math.sqrt(2.0) / 8e-14


def _expansion(alpha: np.ndarray, beta: np.ndarray, table: GramTable):
    """``(norm^2, norm^4 C^2)`` of each ``alpha m + beta n`` from its Gram table.

    ``norm^2 = tr rho`` and ``norm^4 C^2(Psi') = 2((tr rho)^2 - ||rho||^2)`` for
    ``rho = |alpha|^2 A + |beta|^2 B + x C + conj(x) C^dag``, ``x = conj(alpha) beta``:
    the paper's sandwich expansion of ``<Psi| Lambda(|Psi><Psi|) |Psi>``,
    O(1) per pair. Its error is absolute (see ``_EXPANSION_FLOOR``).
    """
    t = table
    aa, bb, x = abs(alpha) ** 2, abs(beta) ** 2, alpha.conj() * beta
    norm_sq = aa * t.tr_a + bb * t.tr_b + 2.0 * (x * t.tr_c).real
    purity = (aa * aa * t.aa + bb * bb * t.bb + 2.0 * aa * bb * (t.ab + t.cc)
              + 2.0 * (x * x * t.tr_cc).real
              + 4.0 * (x * (aa * t.tr_ac + bb * t.tr_bc)).real)
    return norm_sq, 2.0 * (norm_sq * norm_sq - purity)


def universal_inverter(rho: np.ndarray) -> np.ndarray:
    """``I - rho`` on a single system."""
    entries = _square(rho)
    return np.eye(entries.shape[0]) - entries


def lambda_map(sigma: OperatorAB) -> OperatorAB:
    """Two-sided inverter ``(S (x) S)(sigma)``."""
    da, db = sigma.dim_a, sigma.dim_b
    n = da * db
    # entries[i, j, k, l] = <i j| Lambda(sigma) |k l>; a copy, sigma is read-only
    entries = sigma.entries.reshape(da, db, da, db).copy()
    ia, ib = np.arange(da), np.arange(db)
    # sigma_A (x) I: sig_a[i, k] where j == l; I (x) sigma_B: sig_b[j, l] where i == k
    entries[:, ib, :, ib] -= _reduce_operator(sigma.entries, da, db, "A")
    entries[ia, :, ia, :] -= _reduce_operator(sigma.entries, da, db, "B")
    entries = entries.reshape(n, n)
    entries.flat[::n + 1] += np.trace(sigma.entries)
    return OperatorAB(da, db, entries)


def lambda_sandwich(x: PureState, sigma: OperatorAB, y: PureState) -> complex:
    """Matrix element ``<x| Lambda(sigma) |y>``.

    For a pure sigma = |phi><phi| the diagonal element has the closed form
    ``<x| Lambda(|phi><phi|) |x> = 1 - Tr(rho_phi^A rho_x^A)
    - Tr(rho_phi^B rho_x^B) + |<phi|x>|^2``, used as a cross-check in
    tests; here the map is applied explicitly, so this function is the
    independent oracle of :func:`concurrence_sq_via_lambda` and
    :func:`superposition_csq_expansion`, which read the same sandwiches
    from reduced-state purities.
    """
    _require_same_space(x, sigma)
    _require_same_space(y, sigma)
    lam = lambda_map(sigma)
    return complex(np.vdot(x.amplitudes, lam.entries @ y.amplitudes))


def concurrence_sq_via_lambda(s: PureState) -> float:
    """Squared concurrence via ``<s| Lambda(|s><s|) |s>``.

    By the four terms of Lambda, that sandwich is
    ``1 - Tr(rho_A^2) - Tr(rho_B^2) + 1 = 2(1 - Tr rho^2)``, with both
    purities equal; it is read as :func:`_purity_csq` of the reduced state
    ``_gram(M, M)`` of the coefficient matrix M, in O(d^3) and independent
    of the Schmidt coefficients. Its square root equals
    :func:`i_concurrence` within 1e-10.
    """
    m = s.matrix[None]
    return max(0.0, float(_purity_csq(_gram(m, m))[0]))


def superposition_csq_expansion(spec: SuperpositionSpec) -> float:
    """Squared concurrence of a superposition from its sandwich-term expansion.

    Expands ``<Psi| Lambda(|Psi><Psi|) |Psi>`` for
    ``Psi = alpha*phi + beta*varphi`` into sandwich terms, with the
    sixteen raw terms collapsed via the trace symmetry of Lambda into
    nine. With the Gram blocks ``A, B, C = _gram(M, M), _gram(N, N),
    _gram(M, N)`` of the coefficient matrices M and N, the reduced state of
    Psi is ``rho = |alpha|^2 A + |beta|^2 B + x C + (x C)^dag``,
    ``x = conj(alpha) beta``, and the nine terms are the products of these
    blocks in :func:`_purity_csq` of rho, O(d^3) without forming Lambda.
    The result equals ``norm(Psi)^4 * C^2(Psi/norm(Psi))``. The evaluation
    core reads the same expansion from the same Gram blocks
    (:func:`_expansion`), so this is no independent check of the core:
    :func:`lambda_sandwich` (the explicit map) and :func:`i_concurrence`
    (the singular values) are.
    """
    m, n = spec.phi.matrix[None], spec.varphi.matrix[None]
    al, be = spec.alpha, spec.beta
    xc = al.conjugate() * be * _gram(m, n)
    rho = (abs(al) ** 2 * _gram(m, m) + abs(be) ** 2 * _gram(n, n)
           + xc + xc.conj().swapaxes(-1, -2))
    return float(_purity_csq(rho)[0])
