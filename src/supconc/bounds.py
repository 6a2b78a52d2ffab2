"""Regime classification and concurrence bounds for superpositions.

Given ``Psi = alpha*phi + beta*varphi`` the achievable statements depend
on how the component states relate:

* biorthogonal (both reduced-overlap traces vanish): exact closed form
  ``sqrt(|alpha|^4 C^2(phi) + |beta|^4 C^2(varphi) + 4 |alpha beta|^2)``;
* orthogonal (vanishing scalar product): two-sided bounds on ``C(Psi)``;
* general: two-sided bounds on ``norm(Psi)^2 * C(Psi')`` where Psi' is
  the normalized superposition.

For qubit pairs the orthogonal/general bounds carry a sharper
``sqrt(1 - delta^2)`` cross-term factor; in higher dimension the
cross term is ``2|alpha beta|`` (orthogonal) or
``2|alpha beta| sqrt(1 + |<phi|varphi>|^2)`` (general), and the lower
bound picks up ``delta = min(|beta/alpha| C(varphi), |alpha/beta| C(phi))``.

The orthogonal-regime formulas are the general ones at
``|<phi|varphi>| = 0``, so each bound family has one kernel, and every
bound takes the measured overlap unless the caller names an orthogonal
regime (``regime_override``); the tolerance sets the regime label, never
a bound's formula. Lower bounds are clamped at zero before reporting (the
raw value is kept in the report diagnostics). Concurrences are those of
the universal inverter ``S(rho) = I - rho`` (:mod:`supconc.measures`).

Every quantity is computed once, by one evaluation core over stacked
pairs: :func:`evaluate` is the one-pair call of :func:`evaluate_batch`,
and each result is a field of their reports: the closed form
``exact_formula_value``, the qubit bounds ``qubit_upper``/``qubit_lower``,
the dimension-general ones ``qudit_upper``/``qudit_lower`` and the
usefulness of the lower bound ``lower_useful``. The core runs in two
stages. The component stage (:func:`_component_columns`) takes the stacks
a block of at most ``_BLOCK_AMPLITUDES`` amplitudes at a time (16 pairs at
32x32), which bounds its memory to one block's conjugates and Gram blocks,
1.25 MiB at 32x32, and reduces each pair to a few numbers. It reads each
pair from three Gram blocks of its components on the smaller side, ``A``,
``B`` and ``C`` with ``tr C = <phi|varphi>``
(:func:`supconc.measures._gram_table`): the two reduced-state overlaps
that classify it, the component concurrences from the purity of ``A``
and ``B`` (in closed form on 2x2, from the singular values near product
states), and, above 2x2, ``norm(Psi)^2`` and ``norm(Psi)^4 C^2(Psi')`` as
the paper's sandwich expansion, a fixed combination of seven Frobenius
products of the blocks.
A pair whose expansion falls below its rounding floor, near a product or a
cancellation, forms its superposition instead, as 2x2 pairs do, which take
the closed form ``2|a00 a11 - a01 a10|``. The two routes agree within
1e-13. The bound stage (:func:`_evaluate_rows`) is O(1) per pair and
runs once over the columns of all blocks, of a call or of a campaign's
range of trials, so its fixed cost is paid once rather than once per
block. One entry, :func:`_checked_blocks`, runs both stages and the bug
checks, once, on the blocks that :func:`evaluate_batch` cuts from its
stacks or that a campaign draws; only the limit on a bound's slack
differs between the two.

The universal-inverter map (``measures.lambda_map`` and
``lambda_sandwich``) and the singular-value ``measures.i_concurrence`` stay
independent of this core; the acceptance criteria 1-2 check it against
them.
"""

from __future__ import annotations

import enum
import json
import math
from dataclasses import dataclass, fields

import numpy as np

from .errors import DeltaOutOfRange, DimensionMismatch, OutOfRange, SanityFailure
from .measures import (
    _EXPANSION_FLOOR,
    GramTable,
    _Buffers,
    _concurrence,
    _expansion,
    _gram_table,
    _purity_concurrence,
)
from .states import (
    ZERO_TOL,
    PureState,
    SuperpositionSpec,
    _first,
    _require_nonzero_norm,
    _require_same_space,
    _require_unit_norm,
    _require_unit_weights,
)

REGIME_TOL = 1e-9    # default tolerance on |<phi|varphi>| and the trace overlaps
SANITY_TOL = 1e-9    # exact value may escape its bounds by at most this much
_DELTA_SLACK = 1e-9  # defensive headroom before DeltaOutOfRange


class Regime(enum.Enum):
    """Relation between the two component states; each level implies the next."""

    BIORTHOGONAL = "biorthogonal"
    ORTHOGONAL = "orthogonal"
    GENERAL = "general"


# regime codes index this array; each regime implies the next
_REGIMES = np.array([Regime.BIORTHOGONAL, Regime.ORTHOGONAL, Regime.GENERAL], dtype=object)


def _frobenius_sq(x: np.ndarray) -> np.ndarray:
    return np.einsum("...ij,...ij->...", x.conj(), x).real


def _require_regime_tol(tol: float) -> None:
    # trace overlaps and |<phi|varphi>| lie in [0, 1]: any other tolerance
    # labels every pair alike or none (NaN included)
    if not 0.0 <= tol < 1.0:
        raise OutOfRange(f"regime tolerance must be finite and in [0, 1), got {tol!r}")


def _regime_codes(ab, cc, overlap, tol: float):
    """Index into ``_REGIMES`` of component pairs with Gram-table traces ``ab``
    and ``cc`` (:class:`supconc.measures.GramTable`) and scalar products
    ``overlap``."""
    # <A, B> and ||C||^2 are Tr(rho_phi rho_varphi) on the two sides
    biorthogonal = (ab <= tol) & (cc <= tol)
    # 0 if biorthogonal, else 1 if orthogonal, else 2
    return (1 - biorthogonal) * (2 - (abs(overlap) <= tol))


def classify_pair(phi: PureState, varphi: PureState, tol: float = REGIME_TOL) -> Regime:
    """Classify a pair of states by reduced-support and scalar-product overlap.

    Biorthogonal means both ``Tr(rho_phi^A rho_varphi^A)`` and
    ``Tr(rho_phi^B rho_varphi^B)`` are at most ``tol``; since vanishing
    reduced overlaps force orthogonal local supports, biorthogonality
    implies plain orthogonality, and the classifier checks it first.
    The traces and ``<phi|varphi>`` are those of the pair's Gram table
    (:func:`supconc.measures._gram_table`), which :func:`evaluate` reads
    too, so both give a pair the same regime. States on different spaces
    raise :class:`DimensionMismatch`, and a ``tol`` outside [0, 1)
    :class:`OutOfRange`.
    """
    _require_regime_tol(tol)
    _require_same_space(phi, varphi)
    table = _gram_table(phi.matrix[None], varphi.matrix[None], _Buffers())
    return _REGIMES[_regime_codes(table.ab, table.cc, table.overlap, tol)[0]]


_ORTHOGONAL_REGIMES = (Regime.BIORTHOGONAL, Regime.ORTHOGONAL)


# --- bound kernels ------------------------------------------------------
# Each kernel takes (|alpha|^2, |beta|^2, |alpha beta|, C(phi), C(varphi),
# ov) as scalars or as equal-length arrays (one entry per stacked pair)
# and returns its family's columns (upper, lower, lower_unclamped, delta)
# in the same form. ov is |<phi|varphi>|: the families bound C(Psi) on
# orthogonal components and norm(Psi)^2 C(Psi') on general ones, and at
# ov = 0.0 they reproduce the orthogonal-regime formulas exactly:
# |C - 0.0| == C and sqrt(1 + 0.0) == 1.0.


def _clamped(upper, lower, delta) -> tuple:
    """Family columns ``(upper, lower, lower_unclamped, delta)``: the one
    place a lower bound is clamped at 0."""
    return upper, np.maximum(0.0, lower), lower, delta


def _qubit_kernel(aa, bb, ab, c_phi, c_var, ov):
    """The qubit family, for 2x2 components.

    Upper ``|alpha|^2 C(phi) + |beta|^2 C(varphi) + 2|alpha beta| sqrt(1 - delta^2)``,
    lower ``| |alpha|^2 C(phi) - |beta|^2 C(varphi) | - 2|alpha beta| sqrt(1 - delta^2)``,
    with ``delta = max(|C(phi) - ov|, |C(varphi) - ov|)``.
    """
    delta = np.maximum(abs(c_phi - ov), abs(c_var - ov))
    if _first(delta > 1.0 + _DELTA_SLACK) is not None:
        # Unreachable for valid normalized inputs: C and |<phi|varphi>|
        # both lie in [0, 1], so |C - |<phi|varphi>|| <= 1.
        raise DeltaOutOfRange(f"delta = {float(np.max(delta))!r} > 1")
    root = np.sqrt(np.maximum(0.0, 1.0 - delta * delta))
    upper = aa * c_phi + bb * c_var + 2.0 * ab * root
    lower = abs(aa * c_phi - bb * c_var) - 2.0 * ab * root
    return _clamped(upper, lower, delta)


def _qudit_kernel(aa, bb, ab, c_phi, c_var, ov):
    """The dimension-general family.

    Upper ``|alpha|^2 C(phi) + |beta|^2 C(varphi) + 2|alpha beta| sqrt(1 + ov^2)``,
    lower ``| |alpha|^2 C(phi) - |beta|^2 C(varphi) | - 2|alpha beta| (sqrt(1 + ov^2) + delta)``,
    with ``delta = min(|beta/alpha| C(varphi), |alpha/beta| C(phi))``. A zero
    weight leaves the remaining component's term in the upper bound.
    """
    root = np.sqrt(1.0 + ov * ov)
    # a zero weight zeroes the numerator as well, leaving the
    # single-component limit delta = 0 (5e-324 is the smallest positive double)
    delta = np.minimum(bb * c_var, aa * c_phi) / np.maximum(ab, 5e-324)
    upper = aa * c_phi + bb * c_var + 2.0 * ab * root
    lower = abs(aa * c_phi - bb * c_var) - 2.0 * ab * (root + delta)
    return _clamped(upper, lower, delta)


def _biorthogonal_closed_form(aa, bb, ab, c_phi, c_var):
    """Exact concurrence of a superposition of biorthogonal components:
    ``sqrt(|alpha|^4 C^2(phi) + |beta|^4 C^2(varphi) + 4 |alpha beta|^2)``."""
    return np.sqrt(aa * aa * c_phi * c_phi + bb * bb * c_var * c_var + 4.0 * ab * ab)


def _slack(target, families):
    """Largest ``target - upper`` and smallest ``target - lower`` over the
    ``(upper, lower)`` pairs of ``families`` (``-inf``/``inf`` for none)."""
    upper, lower = -math.inf, math.inf
    for u, lo in families:
        upper, lower = np.maximum(upper, target - u), np.minimum(lower, target - lo)
    return upper, lower


def _check_claims(batch: BatchReport, formula_error, limit: float) -> None:
    """Raise :class:`SanityFailure` for the first pair of ``batch`` that escapes its claims.

    A pair escapes when its concurrence leaves ``[0, sqrt(2 (d-1)/d)]``
    (``d = min(dim_a, dim_b)``) by more than ``SANITY_TOL``, or one of its
    slacks or ``formula_error`` (a value, or one per pair) passes ``limit``;
    at ``limit = inf`` only a NaN does. The raised error names its ``row``.
    """
    d = min(batch.dim_a, batch.dim_b)
    cap = math.sqrt(2.0 * (d - 1) / d)
    exact, upper, lower = batch.exact_concurrence, batch.upper_slack, batch.lower_slack
    # stated as what holds, so that a NaN anywhere escapes
    holds = ((exact >= -SANITY_TOL) & (exact <= cap + SANITY_TOL)
             & (upper <= limit) & (lower >= -limit) & (formula_error <= limit))
    row = _first(np.logical_not(holds))
    if row is not None:
        c, u, lo, f = (float(np.broadcast_to(v, np.shape(holds)).flat[row])
                       for v in (exact, upper, lower, formula_error))
        raise SanityFailure(
            f"report escapes its claims: concurrence {c!r} (cap {cap!r}), upper slack "
            f"{u!r}, lower slack {lo!r}, closed-form error {f!r}", row=row)


# --- reports ----------------------------------------------------------------


@dataclass(frozen=True)
class BoundReport:
    """Everything known about one superposition: regime, exact value, bounds.

    ``upper``/``lower``/``delta`` are the tightest applicable bound (the
    qubit form on 2x2 components, the dimension-general form otherwise);
    the ``qubit_*``/``qudit_*`` fields keep both families visible when a
    pair of qubits admits both. Bound fields are ``None`` when a weight
    is zero (no superposition to bound) and ``qubit_*`` fields are
    ``None`` above dimension 2x2. Lower bounds are clamped at 0; the raw
    values are kept in ``*_unclamped``. On a pair biorthogonal only within
    tolerance the closed form may differ from ``exact_concurrence``.
    """

    regime: Regime
    regime_tol: float
    dim_a: int
    dim_b: int
    overlap: complex
    norm_squared: float
    exact_concurrence: float
    exact_formula_value: float | None
    upper: float | None
    lower: float | None
    lower_unclamped: float | None
    delta: float | None
    c_phi: float
    c_varphi: float
    lower_useful: bool | None
    qubit_upper: float | None
    qubit_lower: float | None
    qubit_lower_unclamped: float | None
    qubit_delta: float | None
    qudit_upper: float | None
    qudit_lower: float | None
    qudit_lower_unclamped: float | None
    qudit_delta: float | None

    def to_dict(self) -> dict:
        doc = {f.name: getattr(self, f.name) for f in fields(self)}
        doc["regime"] = self.regime.value
        doc["overlap"] = [self.overlap.real, self.overlap.imag]
        return doc

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2)

    @property
    def slack(self) -> tuple[float, float, float | None]:
        """``(upper_slack, lower_slack, formula_error)`` of ``target = norm^2 C``.

        The largest ``target - upper`` and smallest ``target - lower`` over
        the filled qubit/qudit families (``-inf``/``inf`` when none is), and
        ``|exact_formula_value - exact_concurrence|`` (``None`` outside the
        biorthogonal regime).
        """
        upper, lower = _slack(self.norm_squared * self.exact_concurrence,
                              [(u, lo) for u, lo in ((self.qubit_upper, self.qubit_lower),
                                                     (self.qudit_upper, self.qudit_lower))
                               if u is not None])
        formula_error = (None if self.exact_formula_value is None else
                         abs(self.exact_formula_value - self.exact_concurrence))
        return float(upper), float(lower), formula_error


@dataclass(frozen=True)
class BatchReport:
    """Per-pair arrays from :func:`evaluate_batch`, one entry per stacked pair.

    Fields hold, per pair, the :class:`BoundReport` field of the same name
    (``regime_tol`` and the dims once; NaN for a missing closed form) or a
    value of :attr:`BoundReport.slack` (NaN for ``None``); ``qubit`` and
    ``qudit`` are each family's ``(upper, lower, lower_unclamped, delta)``
    columns, ``lower`` clamped at 0 (``qubit`` is ``None`` above 2x2), and
    :attr:`tightest` is the family behind the untagged bound fields. Bounds
    and ``lower_useful`` are filled on every pair; :meth:`report` gives
    ``None`` where a weight is zero (``weighted`` false, skipped by the
    slacks), and ``lower_useful`` also in the general regime. Callers that
    need a few columns of many pairs, as a sweep does, read them here
    instead of building a report per pair.
    """

    regime: np.ndarray
    regime_tol: float
    dim_a: int
    dim_b: int
    overlap: np.ndarray
    norm_squared: np.ndarray
    exact_concurrence: np.ndarray
    exact_formula_value: np.ndarray
    c_phi: np.ndarray
    c_varphi: np.ndarray
    weighted: np.ndarray
    lower_useful: np.ndarray
    qubit: tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray] | None
    qudit: tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]
    upper_slack: np.ndarray
    lower_slack: np.ndarray
    formula_error: np.ndarray

    @property
    def tightest(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """The tightest filled family: ``qubit`` on 2x2 components, else ``qudit``."""
        return self.qubit if self.qubit is not None else self.qudit

    def report(self, row: int) -> BoundReport:
        """The :class:`BoundReport` of pair ``row``."""
        regime, weighted = self.regime[row], bool(self.weighted[row])
        formula = float(self.exact_formula_value[row])
        # positional, in field order
        return BoundReport(
            regime, self.regime_tol, self.dim_a, self.dim_b, complex(self.overlap[row]),
            float(self.norm_squared[row]), float(self.exact_concurrence[row]),
            None if math.isnan(formula) else formula,
            *_family(self.tightest if weighted else None, row),
            float(self.c_phi[row]), float(self.c_varphi[row]),
            bool(self.lower_useful[row]) if weighted and regime is not Regime.GENERAL else None,
            *_family(self.qubit if weighted else None, row),
            *_family(self.qudit if weighted else None, row))


def _family(columns, row: int = 0) -> tuple:
    """``(upper, lower, lower_unclamped, delta)`` of a bound family at ``row``;
    four ``None`` for ``None``."""
    if columns is None:
        return None, None, None, None
    return tuple(float(c[row]) for c in columns)


# --- the evaluation core --------------------------------------------------------

# Blocks bound memory: the component stage of the evaluation core, and a
# campaign's draws, take stacked arrays of at most this many amplitudes, so a
# 32x32 stack is cut into blocks of 16 pairs, a 10x10 one into blocks of 163
# and a 2x2 one into blocks of 4096. The bound stage runs once over the columns
# of all blocks of a call or of a campaign's range, so its fixed cost is not
# paid per block; what a larger block still saves is the draw's and the
# component stage's fixed cost per block: at 32x32, 357-375 Python-level calls
# and 225-315 us per block of general or orthogonal trials. A campaign
# range, or an evaluate_batch call, draws and evaluates all its blocks in one
# set of buffers (measures._Buffers), so a larger block no longer faults its
# arrays in again block after block: at 32x32 they take 1.75 MiB, the two
# stacks, their two conjugates, whose bytes the normals are drawn into, and
# A, B and C, 256 KiB each. On a 2-core x86-64 host (numpy 2.4, OpenBLAS, one
# thread) the benchmark's 10x10 and 32x32 campaigns ran ~11 % more trials/s
# than at 8192 amplitudes (10 of 10 alternating runs) for 0.5 MB (1.1 %) more
# peak RSS, and in-process passes over its six jobs-1 campaigns took 5-11 %
# less time; at 32768 amplitudes they took no less than at 16384.
_BLOCK_AMPLITUDES = 16384


def _block_size(dim_a: int, dim_b: int) -> int:
    """The pairs of ``dim_a x dim_b`` components in one evaluation block."""
    return max(1, _BLOCK_AMPLITUDES // (dim_a * dim_b))


def _blocks(start: int, stop: int, dim_a: int, dim_b: int):
    """``(lo, hi)`` ranges that cover ``[start, stop)`` in evaluation blocks."""
    size = _block_size(dim_a, dim_b)
    return ((lo, min(lo + size, stop)) for lo in range(start, stop, size))


def _superpositions(alpha, beta, phi, varphi) -> tuple[np.ndarray, np.ndarray]:
    """``(norm_squared, concurrence)`` of each pair's superposition and of its
    normalized form, from the formed superposition.

    The route of 2x2 pairs and the fallback of the expansion route
    (:func:`_expanded_superpositions`). The superpositions are formed one
    evaluation block at a time, so their stack is never larger than a
    block, and each row's value does not depend on its block.
    """
    norm_sq, exact = np.empty(len(alpha)), np.empty(len(alpha))
    for lo, hi in _blocks(0, len(alpha), *phi.shape[1:]):
        # a one-matrix stack is the same component in every pair
        m, n = (x if len(x) == 1 else x[lo:hi] for x in (phi, varphi))
        raw = alpha[lo:hi, None, None] * m + beta[lo:hi, None, None] * n
        norm_sq[lo:hi] = _frobenius_sq(raw)
        # a cancelled pair gets a finite stand-in norm; evaluate_batch rejects it
        norm = np.maximum(np.sqrt(norm_sq[lo:hi]), ZERO_TOL)
        exact[lo:hi] = _concurrence(raw / norm[:, None, None])
    return norm_sq, exact


def _expanded_superpositions(alpha, beta, phi, varphi,
                             table: GramTable) -> tuple[np.ndarray, np.ndarray]:
    """:func:`_superpositions` of pairs above 2x2, from their Gram table.

    ``norm^2`` and ``norm^4 C^2(Psi')`` are the expansion of
    :func:`supconc.measures._expansion`, O(1) per pair once the table is
    built, so a one-matrix stack forms no superposition. Its error is
    absolute: a pair whose ``norm^4 C^2`` falls below
    ``_EXPANSION_FLOOR sqrt(max(dim_a, dim_b) + 1)``, near a product or a
    cancellation, takes :func:`_superpositions` instead, and only that pair.
    The routes agree within 1e-13, and each row's value depends on its own
    pair alone.
    """
    norm_sq, x = _expansion(alpha, beta, table)
    above = x >= _EXPANSION_FLOOR * math.sqrt(max(phi.shape[1:]) + 1)
    exact = np.sqrt(np.where(above, x, 0.0)) / np.where(above, norm_sq, 1.0)
    below = np.flatnonzero(~above)
    if below.size:
        m, n = (c if len(c) == 1 else c[below] for c in (phi, varphi))
        norm_sq[below], exact[below] = _superpositions(alpha[below], beta[below], m, n)
    return norm_sq, exact


def _component_columns(alpha, beta, phi, varphi, buffers: _Buffers) -> tuple:
    """Stage 1 of the evaluation core, the component stage, on one block:
    what the bound stage reads of its pairs, the columns ``(overlap, ab,
    cc, c_phi, c_varphi, norm_squared, exact)``.

    Checks the components' norms, then the weights, raising for the block's
    first offending pair before any arithmetic on them (a NaN weight would
    warn in it), and reads the pairs from one Gram table of the component
    stacks (:func:`supconc.measures._gram_table`), built in ``buffers``: the
    regime traces, the component concurrences and, above 2x2, the superpositions
    (:func:`_expanded_superpositions`); 2x2 pairs are formed and take the
    closed form (:func:`_superpositions`). The overlap is the table's, summed
    from the amplitudes, so that the bounds do not take on the rounding of
    the Gram products; ``ab`` and ``cc`` are the table's regime traces, and
    ``norm_squared`` and ``exact`` each superposition's ``norm^2`` and
    concurrence. Each is computed once per component stack, once for all
    pairs of a one-matrix stack, and each column holds one entry per pair.
    """
    _require_unit_norm(phi)
    _require_unit_norm(varphi)
    _require_unit_weights(alpha, beta)
    table = _gram_table(phi, varphi, buffers)
    if phi.shape[1:] == (2, 2):
        c_phi, c_var = _concurrence(phi), _concurrence(varphi)
        norm_sq, exact = _superpositions(alpha, beta, phi, varphi)
    else:
        c_phi, c_var = _purity_concurrence(table.a, phi), _purity_concurrence(table.b, varphi)
        norm_sq, exact = _expanded_superpositions(alpha, beta, phi, varphi, table)
    # a column of a one-matrix stack holds one entry
    return tuple(x if len(x) == len(alpha) else x.repeat(len(alpha))
                 for x in (table.overlap, table.ab, table.cc, c_phi, c_var, norm_sq, exact))


def _evaluate_rows(alpha, beta, columns, dims: tuple[int, int], *,
                   tol: float, regime_override: Regime | None) -> BatchReport:
    """Stage 2 of the evaluation core, the bound stage, unchecked: every report
    quantity of ``dim_a x dim_b`` pairs with weights ``alpha`` and ``beta``
    from their columns (:func:`_component_columns`).

    O(1) per pair and one column entry per pair: the regime, both bound
    kernels, the closed form, ``lower_useful`` and the slacks. It runs once
    over the columns of all blocks, so its fixed cost is paid once per call.
    """
    overlap, ab, cc, c_phi, c_var, norm_sq, exact = columns
    codes = (_regime_codes(ab, cc, overlap, tol) if regime_override is None
             else np.flatnonzero(_REGIMES == regime_override).repeat(len(alpha)))
    ov = 0.0 if regime_override in _ORTHOGONAL_REGIMES else np.abs(overlap)
    aa, bb, ab = abs(alpha) ** 2, abs(beta) ** 2, abs(alpha * beta)
    qudit = _qudit_kernel(aa, bb, ab, c_phi, c_var, ov)
    qubit = _qubit_kernel(aa, bb, ab, c_phi, c_var, ov) if dims == (2, 2) else None
    closed_form = np.where(codes == 0, _biorthogonal_closed_form(aa, bb, ab, c_phi, c_var),
                           np.nan)
    # the orthogonal lower bound is useful, positive before clamping, iff
    # C(phi) > 3 |beta/alpha|^2 C(varphi) + 2 |beta/alpha| (or the same
    # exchanged); here multiplied through by the weights
    useful = ((aa * c_phi > 3.0 * bb * c_var + 2.0 * ab)
              | (bb * c_var > 3.0 * aa * c_phi + 2.0 * ab))
    weighted = (alpha != 0) & (beta != 0)
    upper, lower = _slack(norm_sq * exact, [family[:2] for family in
                                            ([qudit] if qubit is None else [qudit, qubit])])
    return BatchReport(
        regime=_REGIMES[codes],
        regime_tol=tol,
        dim_a=dims[0],
        dim_b=dims[1],
        overlap=overlap,
        norm_squared=norm_sq,
        exact_concurrence=exact,
        exact_formula_value=closed_form,
        c_phi=c_phi,
        c_varphi=c_var,
        weighted=weighted,
        lower_useful=useful,
        qubit=qubit,
        qudit=qudit,
        upper_slack=np.where(weighted, upper, -math.inf),
        lower_slack=np.where(weighted, lower, math.inf),
        formula_error=np.abs(closed_form - exact),
    )


def _checked_blocks(blocks, dims: tuple[int, int], buffers: _Buffers, *, limit: float,
                    tol: float = REGIME_TOL, regime_override: Regime | None = None,
                    ) -> tuple[np.ndarray, np.ndarray, BatchReport]:
    """Both stages of the evaluation core, and its one pass of bug checks, over
    blocks of pairs.

    ``blocks`` yields the ``(alpha, beta, phi, varphi)`` stacks of
    consecutive pairs, of at most an evaluation block each unless both
    component stacks hold one matrix. The component stage
    (:func:`_component_columns`) runs on each block as it comes, and checks
    its norms and weights. Every block builds its Gram blocks in the
    caller's one set of ``buffers``: a campaign range's, whose blocks are
    drawn in the same set, or an :func:`evaluate_batch` call's. Nothing of a
    block but its columns is kept, so a block's stacks may be views into the
    buffers that the next block overwrites. The bound stage
    (:func:`_evaluate_rows`) then runs once over the columns of all blocks,
    joined if there is more than one. Returns ``(alpha, beta, batch)``, the
    weights of all pairs and their :class:`BatchReport`.
    Rejects a cancelled superposition (:class:`ZeroVector`), then raises
    :class:`SanityFailure` naming the first pair that escapes its claims in
    ``row`` (:func:`_check_claims`): a NaN concurrence or slack, a
    concurrence outside its range by more than ``SANITY_TOL``, or a slack
    past ``limit``, and under ``regime_override`` a closed-form error past
    it too. :func:`evaluate_batch` passes ``SANITY_TOL``; a campaign passes
    ``inf``, so that a bound escape stays in the slacks for it to judge at
    its own tolerance.
    """
    parts = [(a, b, *_component_columns(a, b, phi, varphi, buffers))
             for a, b, phi, varphi in blocks]
    alpha, beta, *columns = parts[0] if len(parts) == 1 else map(np.concatenate, zip(*parts))
    batch = _evaluate_rows(alpha, beta, columns, dims, tol=tol, regime_override=regime_override)
    _require_nonzero_norm(np.sqrt(batch.norm_squared))
    # only an override can misapply the closed form; on a classified pair
    # its error is the pair's distance from exact biorthogonality
    _check_claims(batch, 0.0 if regime_override is None else np.nan_to_num(batch.formula_error),
                  limit)
    return alpha, beta, batch


def evaluate_batch(alpha, beta, phi, varphi, *, tol: float = REGIME_TOL,
                   regime_override: Regime | None = None) -> BatchReport:
    """Classify, compute the exact concurrence and fill every bound of stacked pairs.

    Pair ``t`` is ``alpha[t] * phi[t] + beta[t] * varphi[t]``: weights of
    length ``T``, coefficient-matrix stacks of shape ``(T, dim_a, dim_b)``
    or ``(1, dim_a, dim_b)``; a one-matrix stack is the same component in
    every pair, and its concurrence, the overlap and the regime are then
    computed once. The component stage reads the stacks in blocks cut by
    the campaign rule (:func:`_blocks`), which bound its memory: their Gram
    blocks are made one block of pairs at a time, and above 2x2 each
    superposition is read from them in O(1); only a pair below the
    expansion's rounding floor, or a 2x2 pair, is formed. The bound stage
    then runs once over all ``T`` pairs. So a call on two one-matrix stacks
    makes no ``(T, dim_a, dim_b)`` array, a sweep of any length over one
    fixed pair is one call of O(1) per row, and a strided stack is read as
    its contiguous copy. The bounds take the measured overlap unless
    ``regime_override`` names an orthogonal regime (overlap 0, as in
    reference figures that apply orthogonal-regime formulas to a slightly
    non-orthogonal pair); ``tol`` only sets the regime label,
    ``exact_formula_value`` and ``lower_useful``.

    Bad input raises, for the first offending pair (block by block: the
    component norms, then the weights), what building its
    :class:`SuperpositionSpec` would (:class:`DimensionMismatch`, also for
    zero pairs or an empty side, :class:`NotNormalized` and
    :class:`WeightsNotNormalized`, NaN and weights whose squares overflow
    included), :class:`ZeroVector`, or :class:`OutOfRange` for a
    ``tol`` outside [0, 1) or a ``regime_override`` that is not a
    :class:`Regime`. Then every pair is checked, and a
    :class:`SanityFailure` naming it in ``row`` signals a bug (or an
    override misapplied far outside its formulas' validity): a NaN, a
    concurrence out of range or past a filled bound by more than
    ``SANITY_TOL``, or, under ``regime_override`` only, a closed form that
    far from the direct value (on a pair biorthogonal within ``tol`` it is
    off by O(sqrt(tol)), reported in ``formula_error``). The checks run
    once, in the evaluation core (:func:`_checked_blocks`) at ``SANITY_TOL``,
    and the first offending pair is the one named. Campaigns call the core
    with no bound judge (``inf``): they judge the slacks at their own
    tolerance.
    """
    alpha, beta, phi, varphi = (np.asarray(x, dtype=np.complex128)
                                for x in (alpha, beta, phi, varphi))
    if phi.ndim != 3 or varphi.shape[1:] != phi.shape[1:] or alpha.ndim != 1 or \
            beta.shape != alpha.shape or {len(phi), len(varphi)} - {1, len(alpha)} or \
            0 in (len(alpha), *phi.shape):
        raise DimensionMismatch(
            f"expected (T or 1, dim_a, dim_b) stacks and length-T weights, T >= 1, got phi "
            f"{phi.shape}, varphi {varphi.shape}, alpha {alpha.shape}, beta {beta.shape}")
    _require_regime_tol(tol)
    if regime_override is not None and not isinstance(regime_override, Regime):
        raise OutOfRange(f"regime_override must be a Regime or None, got {regime_override!r}")
    # numpy's matmul takes another kernel on a strided operand, which moves
    # the last bits of the Gram blocks
    alpha, beta, phi, varphi = map(np.ascontiguousarray, (alpha, beta, phi, varphi))
    dims = phi.shape[1:]
    # two one-matrix stacks are one block of any length: the component stage
    # then makes no (T, dim_a, dim_b) array
    cuts = [(0, len(alpha))] if len(phi) == len(varphi) == 1 else _blocks(0, len(alpha), *dims)
    blocks = ((alpha[lo:hi], beta[lo:hi], *(x if len(x) == 1 else x[lo:hi] for x in (phi, varphi)))
              for lo, hi in cuts)
    return _checked_blocks(blocks, dims, _Buffers(), limit=SANITY_TOL, tol=tol,
                           regime_override=regime_override)[2]


def evaluate(spec: SuperpositionSpec, *, tol: float = REGIME_TOL,
             regime_override: Regime | None = None) -> BoundReport:
    """Classify, compute the exact concurrence and fill every bound of one pair.

    The one-pair call of :func:`evaluate_batch`, with the same options,
    checks and errors (a :class:`SanityFailure` names row 0).
    """
    return evaluate_batch(np.array([spec.alpha]), np.array([spec.beta]), spec.phi.matrix[None],
                          spec.varphi.matrix[None], tol=tol,
                          regime_override=regime_override).report(0)
