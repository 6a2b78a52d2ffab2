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
regime (``regime_override``, or ``regime=`` of a standalone bound); the
tolerance sets the regime label, never a bound's formula. Concurrences
(components and superposition alike) are evaluated with the closed form
``2|a00 a11 - a01 a10|`` on 2x2 states and with the I-concurrence
otherwise; the two agree within 1e-12 on qubit pairs. Lower bounds are
clamped at zero before reporting (the raw value is kept in the report
diagnostics). All formulas assume the inverter scale nu = 1.

Every quantity is computed once, by one evaluation core over stacked
pairs: :func:`evaluate` is the one-pair call of :func:`evaluate_batch`,
and the standalone bounds read the core's values for their one pair.
"""

from __future__ import annotations

import enum
import json
import math
from dataclasses import dataclass, fields

import numpy as np

from .errors import (
    DegenerateWeight,
    DeltaOutOfRange,
    DimensionMismatch,
    NotTwoQubit,
    OutOfRange,
    RegimeViolation,
    SanityFailure,
)
from .measures import _concurrence
from .states import (
    ZERO_TOL,
    PureState,
    SuperpositionSpec,
    _first,
    _require_nonzero_norm,
    _require_unit_norm,
    _require_unit_weights,
    inner_product,
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


def _regime_codes(m: np.ndarray, n: np.ndarray, overlap, tol: float):
    """Index into ``_REGIMES`` of coefficient matrices ``m``, ``n`` (or stacks
    of them) with scalar product ``overlap``."""
    # Tr(rho_phi^A rho_varphi^A) = ||M^dag N||_F^2; side B: ||M N^dag||_F^2
    trace_a = _frobenius_sq(m.conj().swapaxes(-1, -2) @ n)
    trace_b = _frobenius_sq(m @ n.conj().swapaxes(-1, -2))
    biorthogonal = (trace_a <= tol) & (trace_b <= tol)
    # 0 if biorthogonal, else 1 if orthogonal, else 2
    return (1 - biorthogonal) * (2 - (abs(overlap) <= tol))


def classify_pair(phi: PureState, varphi: PureState, tol: float = REGIME_TOL) -> Regime:
    """Classify a pair of states by reduced-support and scalar-product overlap.

    Biorthogonal means both ``Tr(rho_phi^A rho_varphi^A)`` and
    ``Tr(rho_phi^B rho_varphi^B)`` are at most ``tol``; since vanishing
    reduced overlaps force orthogonal local supports, biorthogonality
    implies plain orthogonality, and the classifier checks it first.
    A ``tol`` outside [0, 1) raises :class:`OutOfRange`.
    """
    _require_regime_tol(tol)
    return _REGIMES[_regime_codes(phi.matrix, varphi.matrix,
                                  inner_product(phi, varphi), tol)]


_ORTHOGONAL_REGIMES = (Regime.BIORTHOGONAL, Regime.ORTHOGONAL)


def _components(spec: SuperpositionSpec, *, qubits: bool = False,
                allowed: tuple[Regime, ...] | None = None,
                regime: Regime | None = None, tol: float = REGIME_TOL,
                nonzero: bool = False) -> BatchReport:
    """Shared preamble of the standalone bounds.

    Checks, in this order, 2x2 dimensions (``qubits``), that the regime
    (``regime``, else the classified one) is in ``allowed`` and that both
    weights are nonzero (``nonzero``); returns the unchecked one-row
    evaluation of ``spec`` that :func:`evaluate` reports from. A ``tol``
    outside [0, 1) raises :class:`OutOfRange` first.
    """
    _require_regime_tol(tol)
    if qubits and spec.dims != (2, 2):
        raise NotTwoQubit(f"bound requires 2x2 components, got {spec.dims}")
    batch = _evaluate_rows(*_one_row(spec), regime_override=regime, tol=tol)
    if allowed is not None and batch.regime[0] not in allowed:
        raise RegimeViolation(
            f"bound requires {' or '.join(r.value for r in allowed)} component states"
        )
    if nonzero and (spec.alpha == 0 or spec.beta == 0):
        raise DegenerateWeight(
            "alpha = 0 or beta = 0: the superposition is a single component; "
            "report its exact concurrence instead of a bound"
        )
    return batch


# --- bound kernels ------------------------------------------------------
# Each kernel takes (|alpha|^2, |beta|^2, |alpha beta|, C(phi), C(varphi),
# ov) as scalars or as equal-length arrays (one entry per stacked pair)
# and returns its family's columns (upper, lower, lower_unclamped, delta)
# in the same form. At ov = 0.0 they reproduce the orthogonal-regime
# formulas exactly: |C - 0.0| == C and sqrt(1 + 0.0) == 1.0.


def _clamped(upper, lower, delta) -> tuple:
    """Family columns ``(upper, lower, lower_unclamped, delta)``: the one
    place a lower bound is clamped at 0."""
    return upper, np.maximum(0.0, lower), lower, delta


def _qubit_kernel(aa, bb, ab, c_phi, c_var, ov):
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
    root = np.sqrt(1.0 + ov * ov)
    # delta = min(|beta/alpha| C(varphi), |alpha/beta| C(phi)); a zero
    # weight zeroes the numerator as well, leaving the single-component
    # limit delta = 0 (5e-324 is the smallest positive double)
    delta = np.minimum(bb * c_var, aa * c_phi) / np.maximum(ab, 5e-324)
    upper = aa * c_phi + bb * c_var + 2.0 * ab * root
    lower = abs(aa * c_phi - bb * c_var) - 2.0 * ab * (root + delta)
    return _clamped(upper, lower, delta)


def _biorthogonal_closed_form(aa, bb, ab, c_phi, c_var):
    return np.sqrt(aa * aa * c_phi * c_phi + bb * bb * c_var * c_var + 4.0 * ab * ab)


def _slack(target, families):
    """Largest ``target - upper`` and smallest ``target - lower`` over the
    ``(upper, lower)`` pairs of ``families`` (``-inf``/``inf`` for none)."""
    upper, lower = -math.inf, math.inf
    for u, lo in families:
        upper, lower = np.maximum(upper, target - u), np.minimum(lower, target - lo)
    return upper, lower


def _check_claims(d: int, exact, upper_slack, lower_slack, formula_error) -> None:
    """Raise :class:`SanityFailure` for the first report that escapes its claims.

    A report escapes when its concurrence leaves ``[0, sqrt(2 (d-1)/d)]``
    (``d = min(dim_a, dim_b)``) or one of its slacks or the closed-form error
    passes ``SANITY_TOL``. The arguments are one report's values or arrays
    with one entry per stacked pair; the raised error names its ``row``.
    """
    cap = math.sqrt(2.0 * (d - 1) / d)
    # stated as what holds, so that a NaN anywhere escapes
    holds = ((exact >= -SANITY_TOL) & (exact <= cap + SANITY_TOL)
             & (upper_slack <= SANITY_TOL) & (lower_slack >= -SANITY_TOL)
             & (formula_error <= SANITY_TOL))
    row = _first(np.logical_not(holds))
    if row is not None:
        c, u, lo, f = (float(np.broadcast_to(v, np.shape(holds)).flat[row])
                       for v in (exact, upper_slack, lower_slack, formula_error))
        raise SanityFailure(
            f"report escapes its claims: concurrence {c!r} (cap {cap!r}), upper slack "
            f"{u!r}, lower slack {lo!r}, closed-form error {f!r}", row=row)


# --- public bound operations ---------------------------------------------
# Thin views over the evaluation core: each returns the matching field of
# :func:`evaluate` for a pair in its regime, at the same ``tol``.


def qubit_upper_orth(spec: SuperpositionSpec, *, regime: Regime | None = None,
                     tol: float = REGIME_TOL) -> float:
    """Upper bound on C(Psi) for orthogonal qubit components.

    ``|alpha|^2 C(phi) + |beta|^2 C(varphi) + 2|alpha beta| sqrt(1 - delta^2)``
    with ``delta = max(|C(phi) - ov|, |C(varphi) - ov|)``; ``ov`` is the
    measured overlap on a classified pair, 0 when ``regime`` is named.
    """
    return _family(_components(spec, qubits=True, allowed=_ORTHOGONAL_REGIMES,
                               regime=regime, tol=tol).qubit)[0]


def qubit_lower_orth(spec: SuperpositionSpec, *, regime: Regime | None = None,
                     tol: float = REGIME_TOL) -> float:
    """Lower bound on C(Psi) for orthogonal qubit components, clamped at 0.

    ``| |alpha|^2 C(phi) - |beta|^2 C(varphi) | - 2|alpha beta| sqrt(1 - delta^2)``
    with the same delta as :func:`qubit_upper_orth`.
    """
    return _family(_components(spec, qubits=True, allowed=_ORTHOGONAL_REGIMES,
                               regime=regime, tol=tol).qubit)[1]


def qubit_general_bounds(spec: SuperpositionSpec) -> tuple[float, float]:
    """Two-sided bounds on ``norm(Psi)^2 C(Psi')`` for arbitrary qubit pairs.

    Same shape as the orthogonal bounds but with
    ``delta = max(|C(phi) - ov|, |C(varphi) - ov|)`` where
    ``ov = |<phi|varphi>|``. The lower bound is clamped at 0.
    """
    return _family(_components(spec, qubits=True).qubit)[:2]


def exact_biorthogonal(spec: SuperpositionSpec, *, regime: Regime | None = None,
                       tol: float = REGIME_TOL) -> float:
    """Exact concurrence of a superposition of biorthogonal components.

    ``sqrt(|alpha|^4 C^2(phi) + |beta|^4 C^2(varphi) + 4 |alpha beta|^2)``;
    agrees with the directly computed concurrence within 1e-12.
    """
    return float(_components(spec, allowed=(Regime.BIORTHOGONAL,), regime=regime,
                             tol=tol).exact_formula_value[0])


def qudit_upper_orth(spec: SuperpositionSpec, *, regime: Regime | None = None,
                     tol: float = REGIME_TOL) -> float:
    """Dimension-general upper bound for orthogonal components.

    ``|alpha|^2 C(phi) + |beta|^2 C(varphi) + 2|alpha beta| sqrt(1 + ov^2)``,
    ``ov`` as in :func:`qubit_upper_orth`; a zero weight is allowed and
    leaves the remaining component's term.
    """
    return _family(_components(spec, allowed=_ORTHOGONAL_REGIMES, regime=regime,
                               tol=tol).qudit)[0]


def qudit_lower_orth(spec: SuperpositionSpec, *, regime: Regime | None = None,
                     tol: float = REGIME_TOL) -> float:
    """Dimension-general lower bound for orthogonal components, clamped at 0.

    ``| |alpha|^2 C(phi) - |beta|^2 C(varphi) | - 2|alpha beta| (sqrt(1 + ov^2) + delta)``
    with ``delta = min(|beta/alpha| C(varphi), |alpha/beta| C(phi))`` and
    ``ov`` as in :func:`qubit_upper_orth`.
    """
    return _family(_components(spec, allowed=_ORTHOGONAL_REGIMES, regime=regime,
                               tol=tol, nonzero=True).qudit)[1]


def qudit_general_bounds(spec: SuperpositionSpec) -> tuple[float, float]:
    """Two-sided bounds on ``norm(Psi)^2 C(Psi')`` for arbitrary components.

    The cross term carries ``sqrt(1 + |<phi|varphi>|^2)``; the lower
    bound subtracts the same delta as :func:`qudit_lower_orth` and is
    clamped at 0.
    """
    return _family(_components(spec, nonzero=True).qudit)[:2]


def lower_bound_useful(spec: SuperpositionSpec, *, regime: Regime | None = None,
                       tol: float = REGIME_TOL) -> bool:
    """Whether the orthogonal lower bound is strictly positive before clamping.

    True iff ``C(phi) > 3 |beta/alpha|^2 C(varphi) + 2 |beta/alpha|`` or
    the same with the roles of the two components exchanged.
    """
    return bool(_components(spec, allowed=_ORTHOGONAL_REGIMES, regime=regime, tol=tol,
                            nonzero=True).lower_useful[0])


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

# Stacked evaluations run in blocks of at most this many amplitudes per
# stacked array: larger blocks raise the peak memory of a 32x32 campaign
# or sweep, smaller ones give back the per-call savings at large dimensions.
_BLOCK_AMPLITUDES = 4096


def _blocks(start: int, stop: int, dim_a: int, dim_b: int):
    """``(lo, hi)`` ranges that cover ``[start, stop)`` in evaluation blocks."""
    size = max(1, _BLOCK_AMPLITUDES // (dim_a * dim_b))
    return ((lo, min(lo + size, stop)) for lo in range(start, stop, size))


def _one_row(spec: SuperpositionSpec):
    """``spec`` as the arguments of a one-pair stack."""
    return (np.array([spec.alpha]), np.array([spec.beta]),
            spec.phi.matrix[None], spec.varphi.matrix[None])


def _evaluate_rows(alpha, beta, phi, varphi, *, tol: float,
                   regime_override: Regime | None) -> BatchReport:
    """Every report quantity of the validated complex arrays of
    :func:`evaluate_batch`, unchecked."""
    overlap = np.einsum("tij,tij->t", phi.conj(), varphi)
    raw = alpha[:, None, None] * phi + beta[:, None, None] * varphi
    norm_sq = _frobenius_sq(raw)
    # a cancelled pair gets a finite stand-in norm; evaluate_batch rejects it
    norm = np.maximum(np.sqrt(norm_sq), ZERO_TOL)
    codes = (_regime_codes(phi, varphi, overlap, tol) if regime_override is None
             else np.flatnonzero(_REGIMES == regime_override))
    c_phi, c_var, exact = (_concurrence(m) for m in (phi, varphi, raw / norm[:, None, None]))
    # one entry per pair from here on
    overlap, codes, c_phi, c_var = np.broadcast_arrays(overlap, codes, c_phi, c_var, alpha)[:4]

    ov = 0.0 if regime_override in _ORTHOGONAL_REGIMES else np.abs(overlap)
    aa, bb, ab = abs(alpha) ** 2, abs(beta) ** 2, abs(alpha * beta)
    qudit = _qudit_kernel(aa, bb, ab, c_phi, c_var, ov)
    qubit = _qubit_kernel(aa, bb, ab, c_phi, c_var, ov) if phi.shape[1:] == (2, 2) else None
    closed_form = np.where(codes == 0, _biorthogonal_closed_form(aa, bb, ab, c_phi, c_var),
                           np.nan)
    # the usefulness condition C(phi) > 3 |beta/alpha|^2 C(varphi) + 2 |beta/alpha|
    # (or the same exchanged), multiplied through by the weights
    useful = ((aa * c_phi > 3.0 * bb * c_var + 2.0 * ab)
              | (bb * c_var > 3.0 * aa * c_phi + 2.0 * ab))
    weighted = (alpha != 0) & (beta != 0)
    upper, lower = _slack(norm_sq * exact, [family[:2] for family in
                                            ([qudit] if qubit is None else [qudit, qubit])])
    return BatchReport(
        regime=_REGIMES[codes],
        regime_tol=tol,
        dim_a=phi.shape[1],
        dim_b=phi.shape[2],
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


def evaluate_batch(alpha, beta, phi, varphi, *, tol: float = REGIME_TOL,
                   regime_override: Regime | None = None) -> BatchReport:
    """Classify, compute the exact concurrence and fill every bound of stacked pairs.

    Pair ``t`` is ``alpha[t] * phi[t] + beta[t] * varphi[t]``: weights of
    length ``T``, coefficient-matrix stacks of shape ``(T, dim_a, dim_b)``
    or ``(1, dim_a, dim_b)``; a one-matrix stack is the same component in
    every pair, and its concurrence, the overlap and the regime are then
    computed once. The bounds take the measured overlap unless
    ``regime_override`` names an orthogonal regime (overlap 0, as in
    reference figures that apply orthogonal-regime formulas to a slightly
    non-orthogonal pair); ``tol`` only sets the regime label,
    ``exact_formula_value`` and ``lower_useful``.

    Bad input raises, for the first offending pair, what building its
    :class:`SuperpositionSpec` would (:class:`DimensionMismatch`,
    :class:`NotNormalized` and :class:`WeightsNotNormalized`, NaN
    included), :class:`ZeroVector`, or :class:`OutOfRange` for a
    ``tol`` outside [0, 1). Then every pair is checked, and a
    :class:`SanityFailure` naming it in ``row`` signals a bug (or an
    override misapplied far outside its formulas' validity): a concurrence
    out of range or past a filled bound by more than ``SANITY_TOL``, or,
    under ``regime_override`` only, a closed form that far from the direct
    value (on a pair biorthogonal within ``tol`` it is off by
    O(sqrt(tol)), reported in ``formula_error``).
    """
    alpha, beta, phi, varphi = (np.asarray(x, dtype=np.complex128)
                                for x in (alpha, beta, phi, varphi))
    if phi.ndim != 3 or varphi.shape[1:] != phi.shape[1:] or alpha.ndim != 1 or \
            beta.shape != alpha.shape or {len(phi), len(varphi)} - {1, len(alpha)}:
        raise DimensionMismatch(
            f"expected (T or 1, dim_a, dim_b) stacks and length-T weights, got phi "
            f"{phi.shape}, varphi {varphi.shape}, alpha {alpha.shape}, beta {beta.shape}")
    _require_regime_tol(tol)
    _require_unit_norm(_frobenius_sq(phi))
    _require_unit_norm(_frobenius_sq(varphi))
    _require_unit_weights(alpha, beta)

    batch = _evaluate_rows(alpha, beta, phi, varphi, tol=tol, regime_override=regime_override)
    _require_nonzero_norm(np.sqrt(batch.norm_squared))
    # only an override can misapply the closed form; on a classified pair
    # its error is the pair's distance from exact biorthogonality
    formula_error = 0.0 if regime_override is None else np.nan_to_num(batch.formula_error)
    _check_claims(min(batch.dim_a, batch.dim_b), batch.exact_concurrence,
                  batch.upper_slack, batch.lower_slack, formula_error)
    return batch


def evaluate(spec: SuperpositionSpec, *, tol: float = REGIME_TOL,
             regime_override: Regime | None = None) -> BoundReport:
    """Classify, compute the exact concurrence and fill every bound of one pair.

    The one-pair call of :func:`evaluate_batch`, with the same options,
    checks and errors (a :class:`SanityFailure` names row 0).
    """
    return evaluate_batch(*_one_row(spec), tol=tol, regime_override=regime_override).report(0)
