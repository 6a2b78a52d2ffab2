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
``|<phi|varphi>| = 0``, so each bound family has one kernel. Concurrences
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
from .measures import concurrence_qubit, i_concurrence
from .states import PureState, SuperpositionSpec, inner_product, normalize, superpose

REGIME_TOL = 1e-9    # default tolerance on |<phi|varphi>| and the trace overlaps
SANITY_TOL = 1e-9    # exact value may escape its bounds by at most this much
_DELTA_SLACK = 1e-9  # defensive headroom before DeltaOutOfRange


class Regime(enum.Enum):
    """Relation between the two component states; each level implies the next."""

    BIORTHOGONAL = "biorthogonal"
    ORTHOGONAL = "orthogonal"
    GENERAL = "general"


def classify_pair(phi: PureState, varphi: PureState, tol: float = REGIME_TOL) -> Regime:
    """Classify a pair of states by reduced-support and scalar-product overlap.

    Biorthogonal means both ``Tr(rho_phi^A rho_varphi^A)`` and
    ``Tr(rho_phi^B rho_varphi^B)`` are at most ``tol``; since vanishing
    reduced overlaps force orthogonal local supports, biorthogonality
    implies plain orthogonality, and the classifier checks it first.
    """
    if (phi.dim_a, phi.dim_b) != (varphi.dim_a, varphi.dim_b):
        raise DimensionMismatch(
            f"states live on different spaces: {(phi.dim_a, phi.dim_b)} vs "
            f"{(varphi.dim_a, varphi.dim_b)}"
        )
    m, n = phi.matrix, varphi.matrix
    # Tr(rho_phi^A rho_varphi^A) = ||M^dag N||_F^2; side B: ||M N^dag||_F^2
    trace_a = np.linalg.norm(m.conj().T @ n) ** 2
    trace_b = np.linalg.norm(m @ n.conj().T) ** 2
    if trace_a <= tol and trace_b <= tol:
        return Regime.BIORTHOGONAL
    if abs(inner_product(phi, varphi)) <= tol:
        return Regime.ORTHOGONAL
    return Regime.GENERAL


def _component_concurrence(s: PureState) -> float:
    return concurrence_qubit(s) if s.is_qubit_pair() else i_concurrence(s)


def _weights(spec: SuperpositionSpec) -> tuple[float, float, float]:
    aa = abs(spec.alpha) ** 2
    bb = abs(spec.beta) ** 2
    return aa, bb, abs(spec.alpha * spec.beta)


_ORTHOGONAL_REGIMES = (Regime.BIORTHOGONAL, Regime.ORTHOGONAL)


def _components(spec: SuperpositionSpec, *, qubits: bool = False,
                allowed: tuple[Regime, ...] | None = None,
                regime: Regime | None = None, tol: float = REGIME_TOL,
                nonzero: bool = False) -> tuple[float, float, float, float, float]:
    """Shared preamble of the standalone bounds.

    Checks, in this order, 2x2 dimensions (``qubits``), that the regime
    (``regime``, else the classified one) is in ``allowed`` and that both
    weights are nonzero (``nonzero``); returns ``(|alpha|^2, |beta|^2,
    |alpha beta|, C(phi), C(varphi))``.
    """
    if qubits and spec.dims != (2, 2):
        raise NotTwoQubit(f"bound requires 2x2 components, got {spec.dims}")
    if allowed is not None:
        if regime is None:
            regime = classify_pair(spec.phi, spec.varphi, tol)
        if regime not in allowed:
            raise RegimeViolation(
                f"bound requires {' or '.join(r.value for r in allowed)} "
                "component states"
            )
    if nonzero and (spec.alpha == 0 or spec.beta == 0):
        raise DegenerateWeight(
            "alpha = 0 or beta = 0: the superposition is a single component; "
            "report its exact concurrence instead of a bound"
        )
    return (*_weights(spec), _component_concurrence(spec.phi),
            _component_concurrence(spec.varphi))


# --- bound kernels ------------------------------------------------------
# Each kernel returns (upper, lower_unclamped, delta). The orthogonal and
# biorthogonal regimes pass ov = 0.0, which reproduces their formulas
# exactly: |C - 0.0| == C and sqrt(1 + 0.0) == 1.0.


def _qubit_kernel(aa, bb, ab, c_phi, c_var, ov):
    delta = max(abs(c_phi - ov), abs(c_var - ov))
    if delta > 1.0 + _DELTA_SLACK:
        # Unreachable for valid normalized inputs: C and |<phi|varphi>|
        # both lie in [0, 1], so |C - |<phi|varphi>|| <= 1.
        raise DeltaOutOfRange(f"delta = {delta!r} > 1")
    root = math.sqrt(max(0.0, 1.0 - delta * delta))
    upper = aa * c_phi + bb * c_var + 2.0 * ab * root
    lower = abs(aa * c_phi - bb * c_var) - 2.0 * ab * root
    return upper, lower, delta


def _qudit_kernel(alpha, beta, c_phi, c_var, ov):
    aa, bb, ab = abs(alpha) ** 2, abs(beta) ** 2, abs(alpha * beta)
    root = math.sqrt(1.0 + ov * ov)
    # a zero weight leaves a single component, where delta -> 0
    delta = (min(abs(beta / alpha) * c_var, abs(alpha / beta) * c_phi)
             if alpha and beta else 0.0)
    upper = aa * c_phi + bb * c_var + 2.0 * ab * root
    lower = abs(aa * c_phi - bb * c_var) - 2.0 * ab * (root + delta)
    return upper, lower, delta


def _biorthogonal_closed_form(aa, bb, ab, c_phi, c_var):
    return math.sqrt(aa * aa * c_phi * c_phi + bb * bb * c_var * c_var + 4.0 * ab * ab)


def _useful_condition(alpha, beta, c_phi, c_var) -> bool:
    r1 = abs(beta / alpha)
    r2 = abs(alpha / beta)
    return (c_phi > 3.0 * r1 * r1 * c_var + 2.0 * r1) or (
        c_var > 3.0 * r2 * r2 * c_phi + 2.0 * r2
    )


# --- public bound operations ---------------------------------------------
# Thin views over the kernels: each returns the matching field of
# :func:`evaluate` for a pair in its regime.


def qubit_upper_orth(spec: SuperpositionSpec, *, regime: Regime | None = None,
                     tol: float = REGIME_TOL) -> float:
    """Upper bound on C(Psi) for orthogonal qubit components.

    ``|alpha|^2 C(phi) + |beta|^2 C(varphi) + 2|alpha beta| sqrt(1 - delta^2)``
    with ``delta = max(C(phi), C(varphi))``.
    """
    parts = _components(spec, qubits=True, allowed=_ORTHOGONAL_REGIMES,
                        regime=regime, tol=tol)
    return _qubit_kernel(*parts, 0.0)[0]


def qubit_lower_orth(spec: SuperpositionSpec, *, regime: Regime | None = None,
                     tol: float = REGIME_TOL) -> float:
    """Lower bound on C(Psi) for orthogonal qubit components, clamped at 0.

    ``| |alpha|^2 C(phi) - |beta|^2 C(varphi) | - 2|alpha beta| sqrt(1 - delta^2)``
    with the same delta as :func:`qubit_upper_orth`.
    """
    parts = _components(spec, qubits=True, allowed=_ORTHOGONAL_REGIMES,
                        regime=regime, tol=tol)
    return max(0.0, _qubit_kernel(*parts, 0.0)[1])


def qubit_general_bounds(spec: SuperpositionSpec) -> tuple[float, float]:
    """Two-sided bounds on ``norm(Psi)^2 C(Psi')`` for arbitrary qubit pairs.

    Same shape as the orthogonal bounds but with
    ``delta = max(|C(phi) - ov|, |C(varphi) - ov|)`` where
    ``ov = |<phi|varphi>|``. The lower bound is clamped at 0.
    """
    parts = _components(spec, qubits=True)
    ov = abs(inner_product(spec.phi, spec.varphi))
    upper, lower, _ = _qubit_kernel(*parts, ov)
    return upper, max(0.0, lower)


def exact_biorthogonal(spec: SuperpositionSpec, *, regime: Regime | None = None,
                       tol: float = REGIME_TOL) -> float:
    """Exact concurrence of a superposition of biorthogonal components.

    ``sqrt(|alpha|^4 C^2(phi) + |beta|^4 C^2(varphi) + 4 |alpha beta|^2)``;
    agrees with the directly computed concurrence within 1e-12.
    """
    return _biorthogonal_closed_form(*_components(
        spec, allowed=(Regime.BIORTHOGONAL,), regime=regime, tol=tol))


def qudit_upper_orth(spec: SuperpositionSpec, *, regime: Regime | None = None,
                     tol: float = REGIME_TOL) -> float:
    """Dimension-general upper bound for orthogonal components.

    ``|alpha|^2 C(phi) + |beta|^2 C(varphi) + 2|alpha beta|``; a zero
    weight is allowed and leaves the remaining component's term.
    """
    *_, c_phi, c_var = _components(spec, allowed=_ORTHOGONAL_REGIMES,
                                   regime=regime, tol=tol)
    return _qudit_kernel(spec.alpha, spec.beta, c_phi, c_var, 0.0)[0]


def qudit_lower_orth(spec: SuperpositionSpec, *, regime: Regime | None = None,
                     tol: float = REGIME_TOL) -> float:
    """Dimension-general lower bound for orthogonal components, clamped at 0.

    ``| |alpha|^2 C(phi) - |beta|^2 C(varphi) | - 2|alpha beta| (1 + delta)``
    with ``delta = min(|beta/alpha| C(varphi), |alpha/beta| C(phi))``.
    """
    *_, c_phi, c_var = _components(spec, allowed=_ORTHOGONAL_REGIMES, regime=regime,
                                   tol=tol, nonzero=True)
    return max(0.0, _qudit_kernel(spec.alpha, spec.beta, c_phi, c_var, 0.0)[1])


def qudit_general_bounds(spec: SuperpositionSpec) -> tuple[float, float]:
    """Two-sided bounds on ``norm(Psi)^2 C(Psi')`` for arbitrary components.

    The cross term carries ``sqrt(1 + |<phi|varphi>|^2)``; the lower
    bound subtracts the same delta as :func:`qudit_lower_orth` and is
    clamped at 0.
    """
    *_, c_phi, c_var = _components(spec, nonzero=True)
    ov = abs(inner_product(spec.phi, spec.varphi))
    upper, lower, _ = _qudit_kernel(spec.alpha, spec.beta, c_phi, c_var, ov)
    return upper, max(0.0, lower)


def lower_bound_useful(spec: SuperpositionSpec, *, regime: Regime | None = None,
                       tol: float = REGIME_TOL) -> bool:
    """Whether the orthogonal lower bound is strictly positive before clamping.

    True iff ``C(phi) > 3 |beta/alpha|^2 C(varphi) + 2 |beta/alpha|`` or
    the same with the roles of the two components exchanged.
    """
    *_, c_phi, c_var = _components(spec, allowed=_ORTHOGONAL_REGIMES, regime=regime,
                                   tol=tol, nonzero=True)
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
        target = self.norm_squared * self.exact_concurrence
        filled = [(u, lo) for u, lo in ((self.qubit_upper, self.qubit_lower),
                                        (self.qudit_upper, self.qudit_lower))
                  if u is not None]
        formula_error = (None if self.exact_formula_value is None else
                         abs(self.exact_formula_value - self.exact_concurrence))
        return (max((target - u for u, _ in filled), default=-math.inf),
                min((target - lo for _, lo in filled), default=math.inf),
                formula_error)


def evaluate(spec: SuperpositionSpec, *, tol: float = REGIME_TOL,
             regime_override: Regime | None = None) -> BoundReport:
    """Classify, compute the exact concurrence, and fill every applicable bound.

    ``regime_override`` forces the bound formulas of a chosen regime
    regardless of classification (used to reproduce reference figures
    whose source applies orthogonal-regime formulas to a slightly
    non-orthogonal pair). The report is sanity-checked before returning:
    if the exact value escapes any filled bound by more than
    ``SANITY_TOL`` a :class:`SanityFailure` is raised, which signals an
    implementation bug (or an override misapplied far outside its
    formulas' validity), never a user error. The closed form is checked
    only under ``regime_override``: on a pair classified biorthogonal within
    ``tol`` it is off by O(sqrt(tol)), reported in :attr:`BoundReport.slack`.
    """
    phi, var = spec.phi, spec.varphi
    overlap = inner_product(phi, var)
    raw, norm_sq = superpose(spec)
    psi, _ = normalize(raw)

    regime = regime_override if regime_override is not None else \
        classify_pair(phi, var, tol)
    c_phi = _component_concurrence(phi)
    c_var = _component_concurrence(var)
    exact = _component_concurrence(psi)
    aa, bb, ab = _weights(spec)
    ov = abs(overlap) if regime is Regime.GENERAL else 0.0

    exact_formula = None
    if regime is Regime.BIORTHOGONAL:
        exact_formula = _biorthogonal_closed_form(aa, bb, ab, c_phi, c_var)

    qb = qd = useful = None
    if spec.alpha != 0 and spec.beta != 0:
        qd = _qudit_kernel(spec.alpha, spec.beta, c_phi, c_var, ov)
        if phi.is_qubit_pair():
            qb = _qubit_kernel(aa, bb, ab, c_phi, c_var, ov)
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
    d = min(report.dim_a, report.dim_b)
    cap = math.sqrt(2.0 * (d - 1) / d)
    if not -SANITY_TOL <= report.exact_concurrence <= cap + SANITY_TOL:
        raise SanityFailure(
            f"exact concurrence {report.exact_concurrence!r} outside [0, {cap!r}]"
        )
    upper, lower, formula = report.slack
    # only an override can misapply the closed form; on a classified pair
    # its error is the pair's distance from exact biorthogonality
    if max(upper, -lower, (formula or 0.0) if closed_form else 0.0) > SANITY_TOL:
        raise SanityFailure(f"report escapes its claims: upper slack {upper!r}, "
                            f"lower slack {lower!r}, closed-form error {formula!r}")
