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
    RegimeViolation,
    SanityFailure,
)
from .measures import _concurrence
from .states import (
    PureState,
    SuperpositionSpec,
    _first,
    _require_nonzero_norm,
    _require_unit_norm,
    _require_unit_weights,
    inner_product,
    superpose,
)

REGIME_TOL = 1e-9    # default tolerance on |<phi|varphi>| and the trace overlaps
SANITY_TOL = 1e-9    # exact value may escape its bounds by at most this much
_DELTA_SLACK = 1e-9  # defensive headroom before DeltaOutOfRange


class Regime(enum.Enum):
    """Relation between the two component states; each level implies the next."""

    BIORTHOGONAL = "biorthogonal"
    ORTHOGONAL = "orthogonal"
    GENERAL = "general"


# regime codes index this tuple; each regime implies the next
_REGIMES = (Regime.BIORTHOGONAL, Regime.ORTHOGONAL, Regime.GENERAL)


def _frobenius_sq(x: np.ndarray) -> np.ndarray:
    return np.einsum("...ij,...ij->...", x.conj(), x).real


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
    """
    return _REGIMES[_regime_codes(phi.matrix, varphi.matrix,
                                  inner_product(phi, varphi), tol)]


def _component_concurrence(m: np.ndarray) -> float:
    return float(_concurrence(m))


def _weights(alpha, beta):
    """``(|alpha|^2, |beta|^2, |alpha beta|)`` of scalar or stacked weights."""
    return abs(alpha) ** 2, abs(beta) ** 2, abs(alpha * beta)


_ORTHOGONAL_REGIMES = (Regime.BIORTHOGONAL, Regime.ORTHOGONAL)


def _kernel_overlap(overlap: complex, named_regime: Regime | None) -> float:
    """``|<phi|varphi>|`` for the kernels: 0 only under a named orthogonal regime."""
    return 0.0 if named_regime in _ORTHOGONAL_REGIMES else abs(overlap)


def _components(spec: SuperpositionSpec, *, qubits: bool = False,
                allowed: tuple[Regime, ...] | None = None,
                regime: Regime | None = None, tol: float = REGIME_TOL,
                nonzero: bool = False) -> tuple[float, float, float, float, float, float]:
    """Shared preamble of the standalone bounds.

    Checks, in this order, 2x2 dimensions (``qubits``), that the regime
    (``regime``, else the classified one) is in ``allowed`` and that both
    weights are nonzero (``nonzero``); returns ``(|alpha|^2, |beta|^2,
    |alpha beta|, C(phi), C(varphi), ov)``.
    """
    if qubits and spec.dims != (2, 2):
        raise NotTwoQubit(f"bound requires 2x2 components, got {spec.dims}")
    if allowed is not None and \
            (regime or classify_pair(spec.phi, spec.varphi, tol)) not in allowed:
        raise RegimeViolation(
            f"bound requires {' or '.join(r.value for r in allowed)} component states"
        )
    if nonzero and (spec.alpha == 0 or spec.beta == 0):
        raise DegenerateWeight(
            "alpha = 0 or beta = 0: the superposition is a single component; "
            "report its exact concurrence instead of a bound"
        )
    return (*_weights(spec.alpha, spec.beta), _component_concurrence(spec.phi.matrix),
            _component_concurrence(spec.varphi.matrix),
            _kernel_overlap(inner_product(spec.phi, spec.varphi), regime))


# --- bound kernels ------------------------------------------------------
# Each kernel takes (|alpha|^2, |beta|^2, |alpha beta|, C(phi), C(varphi),
# ov) as scalars or as equal-length arrays (one entry per stacked pair)
# and returns (upper, lower_unclamped, delta) in the same form. At ov = 0.0
# they reproduce the orthogonal-regime formulas exactly: |C - 0.0| == C
# and sqrt(1 + 0.0) == 1.0.


def _qubit_kernel(aa, bb, ab, c_phi, c_var, ov):
    delta = np.maximum(abs(c_phi - ov), abs(c_var - ov))
    if _first(delta > 1.0 + _DELTA_SLACK) is not None:
        # Unreachable for valid normalized inputs: C and |<phi|varphi>|
        # both lie in [0, 1], so |C - |<phi|varphi>|| <= 1.
        raise DeltaOutOfRange(f"delta = {float(np.max(delta))!r} > 1")
    root = np.sqrt(np.maximum(0.0, 1.0 - delta * delta))
    upper = aa * c_phi + bb * c_var + 2.0 * ab * root
    lower = abs(aa * c_phi - bb * c_var) - 2.0 * ab * root
    return upper, lower, delta


def _qudit_kernel(aa, bb, ab, c_phi, c_var, ov):
    root = np.sqrt(1.0 + ov * ov)
    # delta = min(|beta/alpha| C(varphi), |alpha/beta| C(phi)); a zero
    # weight zeroes the numerator as well, leaving the single-component
    # limit delta = 0 (5e-324 is the smallest positive double)
    delta = np.minimum(bb * c_var, aa * c_phi) / np.maximum(ab, 5e-324)
    upper = aa * c_phi + bb * c_var + 2.0 * ab * root
    lower = abs(aa * c_phi - bb * c_var) - 2.0 * ab * (root + delta)
    return upper, lower, delta


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


def _useful_condition(alpha, beta, c_phi, c_var) -> bool:
    r1 = abs(beta / alpha)
    r2 = abs(alpha / beta)
    return (c_phi > 3.0 * r1 * r1 * c_var + 2.0 * r1) or (
        c_var > 3.0 * r2 * r2 * c_phi + 2.0 * r2
    )


# --- public bound operations ---------------------------------------------
# Thin views over the kernels: each returns the matching field of
# :func:`evaluate` for a pair in its regime, at the same ``tol``.


def qubit_upper_orth(spec: SuperpositionSpec, *, regime: Regime | None = None,
                     tol: float = REGIME_TOL) -> float:
    """Upper bound on C(Psi) for orthogonal qubit components.

    ``|alpha|^2 C(phi) + |beta|^2 C(varphi) + 2|alpha beta| sqrt(1 - delta^2)``
    with ``delta = max(|C(phi) - ov|, |C(varphi) - ov|)``; ``ov`` is the
    measured overlap on a classified pair, 0 when ``regime`` is named.
    """
    return float(_qubit_kernel(*_components(spec, qubits=True, allowed=_ORTHOGONAL_REGIMES,
                                            regime=regime, tol=tol))[0])


def qubit_lower_orth(spec: SuperpositionSpec, *, regime: Regime | None = None,
                     tol: float = REGIME_TOL) -> float:
    """Lower bound on C(Psi) for orthogonal qubit components, clamped at 0.

    ``| |alpha|^2 C(phi) - |beta|^2 C(varphi) | - 2|alpha beta| sqrt(1 - delta^2)``
    with the same delta as :func:`qubit_upper_orth`.
    """
    return max(0.0, float(_qubit_kernel(*_components(
        spec, qubits=True, allowed=_ORTHOGONAL_REGIMES, regime=regime, tol=tol))[1]))


def qubit_general_bounds(spec: SuperpositionSpec) -> tuple[float, float]:
    """Two-sided bounds on ``norm(Psi)^2 C(Psi')`` for arbitrary qubit pairs.

    Same shape as the orthogonal bounds but with
    ``delta = max(|C(phi) - ov|, |C(varphi) - ov|)`` where
    ``ov = |<phi|varphi>|``. The lower bound is clamped at 0.
    """
    upper, lower, _ = _qubit_kernel(*_components(spec, qubits=True))
    return float(upper), max(0.0, float(lower))


def exact_biorthogonal(spec: SuperpositionSpec, *, regime: Regime | None = None,
                       tol: float = REGIME_TOL) -> float:
    """Exact concurrence of a superposition of biorthogonal components.

    ``sqrt(|alpha|^4 C^2(phi) + |beta|^4 C^2(varphi) + 4 |alpha beta|^2)``;
    agrees with the directly computed concurrence within 1e-12.
    """
    *parts, _ = _components(spec, allowed=(Regime.BIORTHOGONAL,), regime=regime, tol=tol)
    return float(_biorthogonal_closed_form(*parts))


def qudit_upper_orth(spec: SuperpositionSpec, *, regime: Regime | None = None,
                     tol: float = REGIME_TOL) -> float:
    """Dimension-general upper bound for orthogonal components.

    ``|alpha|^2 C(phi) + |beta|^2 C(varphi) + 2|alpha beta| sqrt(1 + ov^2)``,
    ``ov`` as in :func:`qubit_upper_orth`; a zero weight is allowed and
    leaves the remaining component's term.
    """
    return float(_qudit_kernel(*_components(spec, allowed=_ORTHOGONAL_REGIMES,
                                            regime=regime, tol=tol))[0])


def qudit_lower_orth(spec: SuperpositionSpec, *, regime: Regime | None = None,
                     tol: float = REGIME_TOL) -> float:
    """Dimension-general lower bound for orthogonal components, clamped at 0.

    ``| |alpha|^2 C(phi) - |beta|^2 C(varphi) | - 2|alpha beta| (sqrt(1 + ov^2) + delta)``
    with ``delta = min(|beta/alpha| C(varphi), |alpha/beta| C(phi))`` and
    ``ov`` as in :func:`qubit_upper_orth`.
    """
    return max(0.0, float(_qudit_kernel(*_components(
        spec, allowed=_ORTHOGONAL_REGIMES, regime=regime, tol=tol, nonzero=True))[1]))


def qudit_general_bounds(spec: SuperpositionSpec) -> tuple[float, float]:
    """Two-sided bounds on ``norm(Psi)^2 C(Psi')`` for arbitrary components.

    The cross term carries ``sqrt(1 + |<phi|varphi>|^2)``; the lower
    bound subtracts the same delta as :func:`qudit_lower_orth` and is
    clamped at 0.
    """
    upper, lower, _ = _qudit_kernel(*_components(spec, nonzero=True))
    return float(upper), max(0.0, float(lower))


def lower_bound_useful(spec: SuperpositionSpec, *, regime: Regime | None = None,
                       tol: float = REGIME_TOL) -> bool:
    """Whether the orthogonal lower bound is strictly positive before clamping.

    True iff ``C(phi) > 3 |beta/alpha|^2 C(varphi) + 2 |beta/alpha|`` or
    the same with the roles of the two components exchanged.
    """
    *_, c_phi, c_var, _ = _components(spec, allowed=_ORTHOGONAL_REGIMES,
                                      regime=regime, tol=tol, nonzero=True)
    return _useful_condition(spec.alpha, spec.beta, c_phi, c_var)


# --- composed report ------------------------------------------------------


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


def evaluate(spec: SuperpositionSpec, *, tol: float = REGIME_TOL,
             regime_override: Regime | None = None) -> BoundReport:
    """Classify, compute the exact concurrence, and fill every applicable bound.

    The bounds use the measured overlap unless ``regime_override`` names
    an orthogonal regime, which takes them at overlap 0 (used to reproduce
    reference figures whose source applies orthogonal-regime formulas to a
    slightly non-orthogonal pair); ``tol`` only sets the regime label,
    ``exact_formula_value`` and ``lower_useful``. The report is
    sanity-checked before returning: if the exact value escapes any filled
    bound by more than ``SANITY_TOL`` a :class:`SanityFailure` is raised,
    which signals an implementation bug (or an override misapplied far
    outside its formulas' validity), never a user error. The closed form is
    checked only under ``regime_override``: on a pair classified
    biorthogonal within ``tol`` it is off by O(sqrt(tol)), reported in
    :attr:`BoundReport.slack`.
    """
    phi, var = spec.phi, spec.varphi
    overlap = inner_product(phi, var)
    raw, norm_sq = superpose(spec)
    norm = math.sqrt(norm_sq)
    _require_nonzero_norm(norm)

    regime = regime_override or _REGIMES[_regime_codes(phi.matrix, var.matrix, overlap, tol)]
    c_phi = _component_concurrence(phi.matrix)
    c_var = _component_concurrence(var.matrix)
    exact = _component_concurrence(raw.matrix / norm)
    weights = _weights(spec.alpha, spec.beta)
    parts = (*weights, c_phi, c_var, _kernel_overlap(overlap, regime_override))

    exact_formula = None
    if regime is Regime.BIORTHOGONAL:
        exact_formula = float(_biorthogonal_closed_form(*weights, c_phi, c_var))

    qb = qd = useful = None
    if spec.alpha != 0 and spec.beta != 0:
        qd = tuple(map(float, _qudit_kernel(*parts)))
        if phi.is_qubit_pair():
            qb = tuple(map(float, _qubit_kernel(*parts)))
        if regime is not Regime.GENERAL:
            useful = _useful_condition(spec.alpha, spec.beta, c_phi, c_var)

    primary = qb if qb is not None else qd
    report = BoundReport(
        regime=regime,
        regime_tol=tol,
        dim_a=phi.dim_a,
        dim_b=phi.dim_b,
        overlap=overlap,
        norm_squared=norm_sq,
        exact_concurrence=exact,
        exact_formula_value=exact_formula,
        upper=primary[0] if primary else None,
        lower=max(0.0, primary[1]) if primary else None,
        lower_unclamped=primary[1] if primary else None,
        delta=primary[2] if primary else None,
        c_phi=c_phi,
        c_varphi=c_var,
        lower_useful=useful,
        qubit_upper=qb[0] if qb else None,
        qubit_lower=max(0.0, qb[1]) if qb else None,
        qubit_lower_unclamped=qb[1] if qb else None,
        qubit_delta=qb[2] if qb else None,
        qudit_upper=qd[0] if qd else None,
        qudit_lower=max(0.0, qd[1]) if qd else None,
        qudit_lower_unclamped=qd[1] if qd else None,
        qudit_delta=qd[2] if qd else None,
    )
    _check_report(report, closed_form=regime_override is not None)
    return report


def _check_report(report: BoundReport, *, closed_form: bool) -> None:
    upper, lower, formula = report.slack
    # only an override can misapply the closed form; on a classified pair
    # its error is the pair's distance from exact biorthogonality
    _check_claims(min(report.dim_a, report.dim_b), report.exact_concurrence, upper,
                  lower, (formula or 0.0) if closed_form else 0.0)


# --- stacked pairs ----------------------------------------------------------


@dataclass(frozen=True)
class BatchReport:
    """Per-pair arrays from :func:`evaluate_batch`, one entry per stacked pair.

    Each field holds, per pair, the :class:`BoundReport` field of the same
    name (``regime`` as an object array of :class:`Regime`);
    ``upper_slack``, ``lower_slack`` and ``formula_error`` are the three
    values of :attr:`BoundReport.slack`, with NaN where that has ``None``.
    """

    regime: np.ndarray
    norm_squared: np.ndarray
    exact_concurrence: np.ndarray
    c_phi: np.ndarray
    c_varphi: np.ndarray
    upper_slack: np.ndarray
    lower_slack: np.ndarray
    formula_error: np.ndarray


def evaluate_batch(alpha, beta, phi, varphi) -> BatchReport:
    """:func:`evaluate` at its defaults on stacked pairs, one array pass for all.

    Pair ``t`` is ``alpha[t] * phi[t] + beta[t] * varphi[t]``, with ``phi``
    and ``varphi`` of shape ``(T, dim_a, dim_b)`` (coefficient matrices) and
    the weights of length ``T``. Raises what building each
    :class:`SuperpositionSpec` and evaluating it would, for the first
    offending pair: :class:`NotNormalized` (a component),
    :class:`WeightsNotNormalized`, :class:`ZeroVector`,
    :class:`DeltaOutOfRange`, and :class:`SanityFailure` with the pair's
    index in ``row``.
    """
    phi = np.asarray(phi, dtype=np.complex128)
    varphi = np.asarray(varphi, dtype=np.complex128)
    alpha = np.asarray(alpha, dtype=np.complex128)
    beta = np.asarray(beta, dtype=np.complex128)
    if phi.ndim != 3 or varphi.shape != phi.shape or \
            alpha.shape != (len(phi),) or beta.shape != alpha.shape:
        raise DimensionMismatch(
            f"expected (T, dim_a, dim_b) stacks and length-T weights, got phi "
            f"{phi.shape}, varphi {varphi.shape}, alpha {alpha.shape}, beta {beta.shape}")
    _require_unit_norm(_frobenius_sq(phi))
    _require_unit_norm(_frobenius_sq(varphi))
    _require_unit_weights(alpha, beta)

    overlap = np.einsum("tij,tij->t", phi.conj(), varphi)
    raw = alpha[:, None, None] * phi + beta[:, None, None] * varphi
    norm_sq = _frobenius_sq(raw)
    norm = np.sqrt(norm_sq)
    _require_nonzero_norm(norm)

    regime = np.array(_REGIMES, dtype=object)[_regime_codes(phi, varphi, overlap, REGIME_TOL)]
    c_phi, c_var, exact = (_concurrence(m) for m in (phi, varphi, raw / norm[:, None, None]))
    aa, bb, ab = _weights(alpha, beta)
    parts = (aa, bb, ab, c_phi, c_var, np.abs(overlap))
    families = [_qudit_kernel(*parts)]
    if phi.shape[1:] == (2, 2):
        families.append(_qubit_kernel(*parts))
    upper, lower = _slack(norm_sq * exact,
                          [(u, np.maximum(0.0, lo)) for u, lo, _ in families])
    # a zero weight leaves no superposition, and no bound, to check
    weighted = (alpha != 0) & (beta != 0)
    upper = np.where(weighted, upper, -math.inf)
    lower = np.where(weighted, lower, math.inf)
    formula_error = np.where(regime == Regime.BIORTHOGONAL, np.abs(
        _biorthogonal_closed_form(aa, bb, ab, c_phi, c_var) - exact), np.nan)
    _check_claims(min(phi.shape[1:]), exact, upper, lower, 0.0)
    return BatchReport(
        regime=regime,
        norm_squared=norm_sq,
        exact_concurrence=exact,
        c_phi=c_phi,
        c_varphi=c_var,
        upper_slack=upper,
        lower_slack=lower,
        formula_error=formula_error,
    )
