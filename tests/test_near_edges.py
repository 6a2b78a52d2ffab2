"""Property tests for numerics near their edges: near-biorthogonal pairs,
near-orthogonal saturating pairs under a loose tolerance, and near
cancellation of the superposition."""

import cmath
import math

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from supconc import (
    Regime,
    SuperpositionSpec,
    ZeroVector,
    biorthogonal_pair,
    classify_pair,
    evaluate,
    fixture,
    haar_state,
    make_state,
)
from supconc.bounds import SANITY_TOL

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
