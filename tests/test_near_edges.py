"""Property tests for numerics near their edges: near-biorthogonal pairs,
near-orthogonal saturating pairs under a loose tolerance, near
cancellation of the superposition, stacked evaluation of all three,
non-finite input, and inputs within a few units in the last place of the
norm, weight and regime tolerances, which every entry point judges alike."""

import cmath
import json
import math
import tempfile
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from supconc import (
    NotNormalized,
    PureState,
    Regime,
    SuperpositionSpec,
    WeightsNotNormalized,
    ZeroVector,
    biorthogonal_pair,
    classify_pair,
    evaluate,
    evaluate_batch,
    fixture,
    haar_state,
    i_concurrence,
    make_state,
    save_state,
)
from supconc import bounds
from supconc.bounds import REGIME_TOL, SANITY_TOL
from supconc.states import NORM_TOL
from supconc.measures import _Buffers, _concurrence, _expansion, _gram_table
from supconc.cli import main

PROPERTY = settings(derandomize=True, deadline=None, max_examples=200)
SEEDS = st.integers(0, 2**32 - 1)
DIMS = st.integers(2, 4)


def perturbed(state, eps, rng):
    noise = rng.standard_normal(state.amplitudes.size) \
        + 1j * rng.standard_normal(state.amplitudes.size)
    amps = state.amplitudes + eps * noise / np.linalg.norm(noise)
    return make_state(state.dim_a, state.dim_b, amps / np.linalg.norm(amps))


def assert_brackets(report):
    target = report.norm_squared * report.exact_concurrence
    for upper, lower in ((report.qubit_upper, report.qubit_lower),
                         (report.qudit_upper, report.qudit_lower)):
        if upper is not None:
            assert lower - SANITY_TOL <= target <= upper + SANITY_TOL


@PROPERTY
@given(seed=SEEDS, da=DIMS, db=DIMS, log_eps=st.floats(-12.0, math.log10(4e-5)),
       perturb_phi=st.booleans(), a_sq=st.floats(1e-4, 1.0 - 1e-4),
       theta=st.floats(0.0, 2.0 * math.pi))
def test_near_biorthogonal_pairs_evaluate_and_bracket(seed, da, db, log_eps,
                                                      perturb_phi, a_sq, theta):
    rng = np.random.default_rng(seed)
    split_a, split_b = int(rng.integers(1, da)), int(rng.integers(1, db))
    phi, var = biorthogonal_pair(da, db, split_a, split_b, rng)
    if perturb_phi:
        phi = perturbed(phi, 10.0 ** log_eps, rng)
    else:
        var = perturbed(var, 10.0 ** log_eps, rng)
    assume(classify_pair(phi, var) is Regime.BIORTHOGONAL)
    alpha = math.sqrt(a_sq) * cmath.exp(1j * theta)
    report = evaluate(SuperpositionSpec(alpha, math.sqrt(1.0 - a_sq), phi, var))
    assert report.regime is Regime.BIORTHOGONAL
    assert_brackets(report)


# (phi, base) pairs whose qubit bounds are saturated at overlap 0
SATURATING = [("bell_plus", "ket01"), ("bell_minus", "ket01"),
              ("bell_plus", "bell_minus")]


@PROPERTY
@given(family=st.sampled_from(SATURATING), log_eps=st.floats(-12.0, -2.0),
       a_sq=st.floats(1e-4, 1.0 - 1e-4), theta=st.floats(0.0, 2.0 * math.pi))
def test_loose_tol_saturating_pairs_bracket(family, log_eps, a_sq, theta):
    # varphi = normalize(base + eps phi) has overlap ~eps; at tol = 1e-2 it
    # may classify orthogonal, and the bounds must still hold
    phi, base = fixture(family[0]), fixture(family[1])
    amps = base.amplitudes + 10.0 ** log_eps * phi.amplitudes
    var = make_state(2, 2, amps / np.linalg.norm(amps))
    alpha = math.sqrt(a_sq) * cmath.exp(1j * theta)
    assert_brackets(evaluate(SuperpositionSpec(alpha, math.sqrt(1.0 - a_sq), phi, var),
                             tol=1e-2))


@PROPERTY
@given(seed=SEEDS, da=DIMS, db=DIMS, log_eps=st.floats(-11.0, -2.0))
def test_near_cancellation_brackets_or_zero_vector(seed, da, db, log_eps):
    rng = np.random.default_rng(seed)
    phi = haar_state(da, db, rng)
    var = perturbed(make_state(da, db, -phi.amplitudes), 10.0 ** log_eps, rng)
    s2 = math.sqrt(0.5)
    try:
        report = evaluate(SuperpositionSpec(s2, s2, phi, var))
    except ZeroVector:
        return
    assert_brackets(report)


def assert_same_report(got, want):
    for name in want.__dataclass_fields__:
        a, b = getattr(got, name), getattr(want, name)
        if isinstance(b, (float, complex)):
            assert abs(a - b) <= 1e-12, name
        else:
            assert a == b, name


@PROPERTY
@given(seed=SEEDS, da=DIMS, db=DIMS, log_eps=st.floats(-12.0, -2.0),
       a_sq=st.lists(st.floats(1e-4, 1.0 - 1e-4), min_size=4, max_size=4),
       theta=st.lists(st.floats(0.0, 2.0 * math.pi), min_size=4, max_size=4),
       shared=st.sampled_from([None, 0, 1, 2, 3]), tol=st.sampled_from([REGIME_TOL, 1e-2]),
       override=st.sampled_from([None, *Regime]))
def test_evaluate_batch_rows_match_evaluate(seed, da, db, log_eps, a_sq, theta, shared,
                                            tol, override):
    # one stack of a Haar pair, a near-biorthogonal pair, a near-cancelling
    # pair and an exactly biorthogonal one, or one of them given once as
    # (1, dim_a, dim_b) components of all four pairs; every row is the
    # one-pair report at the same tol and override
    rng = np.random.default_rng(seed)
    eps = 10.0 ** log_eps
    split_a, split_b = int(rng.integers(1, da)), int(rng.integers(1, db))
    phi_b, var_b = biorthogonal_pair(da, db, split_a, split_b, rng)
    phi_c = haar_state(da, db, rng)
    pairs = [(haar_state(da, db, rng), haar_state(da, db, rng)),
             (phi_b, perturbed(var_b, eps, rng)),
             # eps >= 1e-10 keeps norm(Psi) above ZERO_TOL
             (phi_c, perturbed(make_state(da, db, -phi_c.amplitudes), max(eps, 1e-10), rng)),
             biorthogonal_pair(da, db, split_a, split_b, rng)]
    if override in (Regime.ORTHOGONAL, Regime.BIORTHOGONAL):
        # the formulas at overlap 0 hold on the exactly biorthogonal pair
        pairs = [pairs[3]] * 4
    if shared is not None:
        pairs = [pairs[shared]] * 4
        phis, varphis = pairs[0][0].matrix[None], pairs[0][1].matrix[None]
    else:
        phis, varphis = [p.matrix for p, _ in pairs], [v.matrix for _, v in pairs]
    alphas = [math.sqrt(a) * cmath.exp(1j * t) for a, t in zip(a_sq, theta)]
    betas = [math.sqrt(1.0 - a) for a in a_sq]
    batch = evaluate_batch(alphas, betas, phis, varphis, tol=tol, regime_override=override)
    for row, ((phi, var), alpha, beta) in enumerate(zip(pairs, alphas, betas)):
        report = evaluate(SuperpositionSpec(alpha, beta, phi, var), tol=tol,
                          regime_override=override)
        assert batch.regime[row] is report.regime
        assert_same_report(batch.report(row), report)
        upper, lower, formula = report.slack
        assert abs(batch.upper_slack[row] - upper) <= 1e-12
        assert abs(batch.lower_slack[row] - lower) <= 1e-12
        if formula is None:
            assert math.isnan(batch.formula_error[row])
        else:
            assert abs(batch.formula_error[row] - formula) <= 1e-12


def assert_bad_input(result):
    assert result.exit_code == 2, result.output
    assert "error:" in result.stderr
    assert "Traceback" not in result.output


@PROPERTY
@given(da=DIMS, db=DIMS, index=st.integers(0, 15), imag=st.booleans(),
       value=st.sampled_from([math.nan, math.inf, -math.inf]), bad_phi=st.booleans(),
       weight=st.sampled_from(["nan", "inf", "-inf", "nanj", "1+infj", "nan+0.6j"]),
       on_alpha=st.booleans())
def test_non_finite_input_is_bad_input(da, db, index, imag, value, bad_phi, weight,
                                       on_alpha):
    # a NaN or infinite amplitude anywhere in a state file, or a non-finite
    # weight, is bad input (exit 2), never a failed self-check (exit 3)
    n = da * db
    amps = [[1.0 / math.sqrt(n), 0.0] for _ in range(n)]
    amps[index % n][imag] = value
    runner = CliRunner()
    with tempfile.TemporaryDirectory() as tmp:
        bad, good = Path(tmp) / "bad.json", Path(tmp) / "good.json"
        bad.write_text(json.dumps({"dim_a": da, "dim_b": db, "amplitudes": amps}))
        save_state(make_state(da, db, np.eye(1, n, 0)[0]), good)
        files = [str(bad), str(good)] if bad_phi else [str(good), str(bad)]
        assert_bad_input(runner.invoke(main, ["bounds", *files, "--alpha", "0.6",
                                              "--beta", "0.8"]))
        assert_bad_input(runner.invoke(main, ["sweep", *files, "--steps", "3"]))
        assert_bad_input(runner.invoke(main, ["state-info", str(bad)]))
        weights = [f"--alpha={weight}", "--beta=0.8"] if on_alpha else \
            ["--alpha=0.6", f"--beta={weight}"]
        assert_bad_input(runner.invoke(main, ["bounds", str(good), str(good), *weights]))


# --- the expansion route of the evaluation core ----------------------------------
# Above 2x2 the core reads norm^2 and norm^4 C^2 of every superposition from the
# components' Gram table; rows below its floor form the superposition. The
# explicit route forms every superposition and takes _concurrence and the SVD
# i_concurrence.

EXPANSION_DIMS = st.sampled_from([(3, 3), (4, 4), (10, 10), (32, 32), (2, 5), (5, 2), (3, 7)])
PAIR_KINDS = ["haar", "close near-product", "near cancellation", "near biorthogonal",
              "zero weight"]


def near_product(da, db, eps, rng):
    u, v = (rng.standard_normal(d) + 1j * rng.standard_normal(d) for d in (da, db))
    return perturbed(make_state(da, db, np.outer(u, v).ravel() / (np.linalg.norm(u)
                                                                  * np.linalg.norm(v))),
                     eps, rng)


def expansion_pair(kind, da, db, eps, rng):
    """``(alpha, beta, phi, varphi)`` of one pair of ``kind``."""
    a_sq, theta = rng.uniform(0.0, 1.0), rng.uniform(0.0, 2.0 * math.pi)
    alpha, beta = math.sqrt(a_sq) * cmath.exp(1j * theta), math.sqrt(1.0 - a_sq)
    if kind == "close near-product":
        phi = near_product(da, db, eps, rng)
        return alpha, beta, phi, perturbed(phi, eps * rng.uniform(0.0, 1.0), rng)
    if kind == "near cancellation":
        # eps >= 1e-10 keeps norm(Psi) above ZERO_TOL
        phi = haar_state(da, db, rng)
        var = perturbed(make_state(da, db, -phi.amplitudes), max(eps, 1e-10), rng)
        return math.sqrt(0.5), math.sqrt(0.5), phi, var
    if kind == "near biorthogonal":
        phi, var = biorthogonal_pair(da, db, int(rng.integers(1, da)), int(rng.integers(1, db)),
                                     rng)
        return alpha, beta, phi, perturbed(var, eps, rng)
    phi, var = haar_state(da, db, rng), haar_state(da, db, rng)
    if kind == "zero weight":
        alpha, beta = (0.0, 1.0) if rng.integers(2) else (cmath.exp(1j * theta), 0.0)
    return alpha, beta, phi, var


def expansion_stack(kinds, da, db, eps, rng):
    alphas, betas, phis, varphis = zip(*(expansion_pair(k, da, db, eps, rng) for k in kinds))
    return (np.array(alphas, dtype=np.complex128), np.array(betas, dtype=np.complex128),
            np.stack([p.matrix for p in phis]), np.stack([v.matrix for v in varphis]))


def formed_route(alpha, beta, m, n):
    """``(norm^2, C by _concurrence, C by the SVD)`` of the formed superposition."""
    raw = alpha * m + beta * n
    norm_sq = float(np.vdot(raw, raw).real)
    unit = raw / math.sqrt(norm_sq)
    return norm_sq, float(_concurrence(unit)), i_concurrence(make_state(*m.shape, unit.ravel()))


@PROPERTY
@given(seed=SEEDS, dims=EXPANSION_DIMS, log_eps=st.floats(-12.0, -1.0),
       kinds=st.lists(st.sampled_from(PAIR_KINDS), min_size=1, max_size=6))
def test_expansion_matches_the_formed_superpositions(seed, dims, log_eps, kinds):
    # every row's norm^2 and concurrence, from the Gram table or from its
    # fallback, agree with the formed superposition within 1e-13
    rng = np.random.default_rng(seed)
    alpha, beta, phi, var = expansion_stack(kinds, *dims, 10.0 ** log_eps, rng)
    batch = evaluate_batch(alpha, beta, phi, var)
    for row in range(len(kinds)):
        norm_sq, formed, svd = formed_route(alpha[row], beta[row], phi[row], var[row])
        assert abs(batch.norm_squared[row] - norm_sq) <= 1e-13
        assert abs(batch.exact_concurrence[row] - formed) <= 1e-13
        assert abs(batch.exact_concurrence[row] - svd) <= 1e-13


def expansion_floor(dims):
    return bounds._EXPANSION_FLOOR * math.sqrt(max(dims) + 1)


@PROPERTY
@given(seed=SEEDS, dims=EXPANSION_DIMS, log_eps=st.floats(-12.0, -1.0),
       kinds=st.lists(st.sampled_from(PAIR_KINDS), min_size=1, max_size=6),
       shared=st.booleans())
def test_expansion_fallback_takes_exactly_the_rows_below_its_floor(seed, dims, log_eps, kinds,
                                                                   shared):
    # the rows whose norm^4 C^2 falls below the floor, and only those, form
    # their superpositions; the others are the expansion's, bit for bit
    rng = np.random.default_rng(seed)
    alpha, beta, phi, var = expansion_stack(kinds, *dims, 10.0 ** log_eps, rng)
    if shared:
        phi, var = phi[:1], var[:1]
    formed = []
    superpositions = bounds._superpositions
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(bounds, "_superpositions",
                      lambda a, *rest: formed.append(a) or superpositions(a, *rest))
        batch = evaluate_batch(alpha, beta, phi, var)
    norm_sq, x = _expansion(alpha, beta, _gram_table(phi, var, _Buffers()))
    above = x >= expansion_floor(dims)
    if above.all():
        assert formed == []
    else:
        [taken] = formed
        assert taken.tobytes() == alpha[~above].tobytes()
    assert batch.norm_squared[above].tobytes() == norm_sq[above].tobytes()
    assert batch.exact_concurrence[above].tobytes() == \
        (np.sqrt(x[above]) / norm_sq[above]).tobytes()


@PROPERTY
@given(seed=SEEDS, dims=EXPANSION_DIMS, log_eps=st.floats(-12.0, -1.0),
       kinds=st.lists(st.sampled_from(PAIR_KINDS), min_size=2, max_size=6))
def test_expansion_rows_do_not_depend_on_their_neighbours(seed, dims, log_eps, kinds):
    # a row evaluated alone, in a reversed stack, or one block per row, and a
    # shared pair row by row: the same bytes
    rng = np.random.default_rng(seed)
    alpha, beta, phi, var = expansion_stack(kinds, *dims, 10.0 ** log_eps, rng)
    fields = ("norm_squared", "exact_concurrence", "c_phi", "c_varphi")
    whole = evaluate_batch(alpha, beta, phi, var)
    shared = evaluate_batch(alpha, beta, phi[:1], var[:1])
    reverse = evaluate_batch(*(np.ascontiguousarray(x[::-1]) for x in (alpha, beta, phi, var)))
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(bounds, "_BLOCK_AMPLITUDES", dims[0] * dims[1])
        blocked = evaluate_batch(alpha, beta, phi, var)
    for row in range(len(kinds)):
        alone = evaluate_batch(alpha[row:row + 1], beta[row:row + 1], phi[row:row + 1],
                               var[row:row + 1])
        first = evaluate_batch(alpha[row:row + 1], beta[row:row + 1], phi[:1], var[:1])
        for field in fields:
            value = getattr(alone, field)[0].tobytes()
            assert getattr(whole, field)[row].tobytes() == value, field
            assert getattr(reverse, field)[len(kinds) - 1 - row].tobytes() == value, field
            assert getattr(blocked, field)[row].tobytes() == value, field
            assert getattr(shared, field)[row].tobytes() == getattr(first, field)[0].tobytes()


def test_cancelled_rows_raise_zero_vector_for_the_first():
    # two cancelled pairs above 2x2: the first one is reported
    rng = np.random.default_rng(3)
    phi = [haar_state(3, 3, rng) for _ in range(4)]
    var = [haar_state(3, 3, rng), perturbed(make_state(3, 3, -phi[1].amplitudes), 1e-14, rng),
           haar_state(3, 3, rng), make_state(3, 3, -phi[3].amplitudes)]
    s2 = np.full(4, math.sqrt(0.5))
    phis, varphis = np.stack([p.matrix for p in phi]), np.stack([v.matrix for v in var])
    with pytest.raises(ZeroVector) as info:
        evaluate_batch(s2, s2, phis, varphis)
    # the later pair cancels exactly
    assert "vector norm 0.0 " not in str(info.value)
    with pytest.raises(ZeroVector, match="vector norm 0.0 "):
        evaluate_batch(s2[2:], s2[2:], phis[2:], varphis[2:])


# --- one judgement per invariant ---------------------------------------------
# A state's norm, a pair's weights and its regime are each computed once, so
# the entry points that check them (PureState, SuperpositionSpec,
# classify_pair, evaluate and evaluate_batch) judge alike even an input
# within a few units in the last place of a tolerance. Each test asserts
# that they agree, whatever they decide.

BELL, KET01 = fixture("bell_plus"), fixture("ket01")
S2 = math.sqrt(0.5)


def raises(error, call) -> bool:
    try:
        call()
    except error:
        return True
    return False


def norm_judged_alike(amplitudes, dim_a, dim_b, other) -> bool:
    """Whether ``PureState`` builds from ``amplitudes`` exactly when
    ``evaluate_batch`` takes them as a component, paired with the one-matrix
    stack ``other`` at weights (0.6, 0.8)."""
    built = not raises(NotNormalized, lambda: PureState(dim_a, dim_b, amplitudes))
    taken = not raises(NotNormalized, lambda: evaluate_batch(
        [0.6], [0.8], np.reshape(amplitudes, (1, dim_a, dim_b)), other))
    return built == taken


def weights_judged_alike(alpha, beta) -> bool:
    """Whether ``SuperpositionSpec`` builds with weights ``alpha`` and ``beta``
    exactly when ``evaluate_batch`` takes them."""
    built = not raises(WeightsNotNormalized,
                       lambda: SuperpositionSpec(alpha, beta, BELL, KET01))
    taken = not raises(WeightsNotNormalized, lambda: evaluate_batch(
        [alpha], [beta], BELL.matrix[None], KET01.matrix[None]))
    return built == taken


def test_norm_at_its_tolerance_is_judged_alike():
    # norm^2 a few units in the last place from 1 + NORM_TOL
    amplitudes = [-0.26516808408408254 - 0.4537040044410531j,
                  0.2054643217656891 - 0.39478634867751017j,
                  0.539567547891007 + 0.22075328907167172j,
                  -0.42983866990745395 + 0.0337680247525682j]
    assert norm_judged_alike(amplitudes, 2, 2, BELL.matrix[None])


def test_weights_at_their_tolerance_are_judged_alike():
    # |alpha|^2 + |beta|^2 a few units in the last place from 1 + NORM_TOL
    assert weights_judged_alike(-0.5699304061195498 + 0.014210284100274058j,
                                -0.752877338497982 - 0.328866406436397j)


def test_regime_at_its_tolerance_is_judged_alike():
    # |<phi|varphi>| a few units in the last place from REGIME_TOL
    phi = make_state(2, 2, [-0.0886738388157023 - 0.08356369795195107j,
                            -0.23707719083544404 + 0.3923643605986634j,
                            -0.077981524495598 + 0.30524208920699764j,
                            0.002468735635301271 - 0.822033288237229j])
    var = make_state(2, 2, [-0.6056835891287153 + 0.09649913835112164j,
                            -0.00611094100748051 + 0.5659856725511893j,
                            -0.1393493537899522 - 0.4909281815531041j,
                            0.13350325768612176 + 0.15876504453722803j])
    assert classify_pair(phi, var) is evaluate(SuperpositionSpec(S2, S2, phi, var)).regime


@pytest.mark.parametrize("dim", [2, 3, 5, 10, 32])
def test_norm_boundary_scan_is_judged_alike(dim):
    # Haar states scaled 21 ways, so that norm^2 lands within 2e-16 of
    # 1 + NORM_TOL, paired with a basis state
    rng = np.random.default_rng(2)
    other = np.zeros((1, dim, dim), dtype=complex)
    other[0, 0, 0] = 1.0
    apart = [(row, k) for row in range(24)
             for amps in [haar_state(dim, dim, rng).amplitudes] for k in range(-10, 11)
             if not norm_judged_alike(amps * math.sqrt(1.0 + NORM_TOL + k * 2e-17),
                                      dim, dim, other)]
    assert apart == []


def test_weight_boundary_scan_is_judged_alike():
    # weight pairs scaled 7 ways, so that |alpha|^2 + |beta|^2 lands within
    # 3e-16 of 1 + NORM_TOL
    rng = np.random.default_rng(9)
    apart = []
    for a_re, a_im, b_re, b_im in rng.standard_normal((600, 4)):
        alpha, beta = complex(a_re, a_im), complex(b_re, b_im)
        size = math.sqrt(abs(alpha) ** 2 + abs(beta) ** 2)
        for k in range(-3, 4):
            scale = math.sqrt(1.0 + NORM_TOL + k * 1e-16) / size
            if not weights_judged_alike(alpha * scale, beta * scale):
                apart.append((alpha * scale, beta * scale))
    assert apart == []


@pytest.mark.parametrize("dim", [2, 3, 4, 5, 10])
def test_regime_boundary_scan_is_judged_alike(dim):
    # Haar states phi, each with 31 states varphi whose overlaps lie within
    # 1.5e-15 (relative) of REGIME_TOL
    rng = np.random.default_rng(1)
    apart = []
    for _ in range(8):
        phi = haar_state(dim, dim, rng)
        other = haar_state(dim, dim, rng).amplitudes
        perp = other - np.vdot(phi.amplitudes, other) * phi.amplitudes
        perp /= np.linalg.norm(perp)
        phase = cmath.exp(2j * math.pi * rng.random())
        for k in range(-15, 16):
            overlap = REGIME_TOL * (1.0 + k * 1e-16) * phase
            var = make_state(dim, dim, overlap * phi.amplitudes
                             + math.sqrt(1.0 - abs(overlap) ** 2) * perp)
            regimes = classify_pair(phi, var), evaluate(SuperpositionSpec(S2, S2, phi, var)).regime
            if regimes[0] is not regimes[1]:
                apart.append((k, *regimes))
    assert apart == []
