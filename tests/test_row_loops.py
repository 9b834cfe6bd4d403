"""The batched row computations against the per-row loops they replaced.

``reconstruct_matrix``, ``log_likelihood`` and ``row_margins`` compute
every row at once with masked row reductions.  The loops below are the
earlier one-row-at-a-time implementations, kept here as reference oracles:
the batched results must equal them bit for bit, the likelihoods to 1e-12,
and errors must name the same row and the same kind of violation.  The
likelihood gap between two candidates is the difference of their
``log_likelihood``s, checked against a gap loop.
"""

import math
import re

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from relurec.bias import BiasModel
from relurec.generate import row_margins
from relurec.replearn import (
    FILL_STRATEGIES,
    EstimatedMatrix,
    InfeasibleRowError,
    log_likelihood,
    reconstruct_matrix,
)

# ----------------------------------------------------------------------
# reference loops
# ----------------------------------------------------------------------


def loop_reconstruct(Y, model, gamma, nu, fill):
    """Row by row: clipped mode, zero-density tie to ``lo``, one fill value per row."""
    d, n = Y.shape
    m_hat = np.full((d, n), -gamma, dtype=float)
    beta_hats = np.full(d, np.nan)
    for i in range(d):
        on = Y[i] > 0.0
        if not on.any():
            continue
        values = np.sort(Y[i, on])[::-1]
        lo = float(values[0]) - gamma
        hi = float(values[-1]) + gamma
        if not on.all():
            hi -= nu
        if lo > hi + 1e-12:
            raise InfeasibleRowError(f"row {i}: empty feasible interval")
        hi = max(hi, lo)
        beta = min(max(model.mode, lo), hi)
        if not math.isfinite(float(model.log_density(beta))):
            beta = lo
        beta_hats[i] = beta
        m_hat[i, on] = Y[i, on] - beta
        if not on.all():
            ceiling = (float(values[-1]) - beta) - nu
            if fill == "upper_boundary":
                value = max(ceiling, -gamma)
            elif fill == "lower_boundary":
                value = -gamma
            else:
                value = max((ceiling - gamma) / 2.0, -gamma)
            m_hat[i, ~on] = value
    return m_hat, beta_hats


def loop_log_likelihood(Y, beta_hats, model, gamma):
    """Row by row: ``log p(beta) - log p(Y_min)``; ``log F(gamma) - log F(0)`` if all clipped."""
    total = 0.0
    for i in range(Y.shape[0]):
        on = Y[i] > 0.0
        if on.any():
            lp = float(model.log_density(beta_hats[i]))
            if math.isfinite(lp):
                total += lp - float(model.log_density(float(Y[i, on].min())))
            else:
                total += -math.inf
    for i in range(Y.shape[0]):
        if not (Y[i] > 0.0).any():
            mass, base = float(model.cdf(gamma)), float(model.cdf(0.0))
            if mass <= 0.0:
                total += -math.inf
            elif base <= 0.0:
                raise ValueError("baseline probability P(B <= 0) vanishes")
            else:
                total += math.log(mass) - math.log(base)
    return total


def loop_likelihood_gap(M, X, Y, model):
    total = 0.0
    for i in range(Y.shape[0]):
        on = Y[i] > 0.0
        if on.any():
            j = np.flatnonzero(on)[np.argmin(Y[i, on])]
            lp_m = float(model.log_density(Y[i, j] - M[i, j]))
            lp_x = float(model.log_density(Y[i, j] - X[i, j]))
        else:
            mass_m = float(model.cdf(-M[i].max()))
            mass_x = float(model.cdf(-X[i].max()))
            lp_m = math.log(mass_m) if mass_m > 0.0 else -math.inf
            lp_x = math.log(mass_x) if mass_x > 0.0 else -math.inf
        if lp_m != lp_x:
            total += lp_m - lp_x
    return total


def loop_row_margins(M, b):
    pre = M + b[:, None]
    margins = np.full(M.shape[0], np.inf)
    for i in range(M.shape[0]):
        on = pre[i] > 0.0
        if on.any() and not on.all():
            margins[i] = M[i, on].min() - M[i, ~on].max()
    return margins


# ----------------------------------------------------------------------
# random inputs
# ----------------------------------------------------------------------

# the exponential's first parameter is its rate; its support starts at the
# second, often right of a row's whole interval, where every shift ties at
# zero density
LAWS = {
    "shifted_exponential": lambda loc, scale: BiasModel.shifted_exponential(1.0 / scale, loc),
    "gaussian": BiasModel.gaussian,
    "logistic": BiasModel.logistic,
}


def _rectified(seed, d, n, gamma, reach=1.0):
    """``(M, b, Y)`` with ``|M| <= reach * gamma``; rows are all clipped, all observed or mixed."""
    rng = np.random.default_rng(seed)
    M = rng.uniform(-reach * gamma, reach * gamma, size=(d, n))
    kind = rng.integers(0, 4, size=d)  # 0: all clipped, 1: all observed, else mostly mixed
    u = rng.uniform(size=d)
    b = np.select(
        [kind == 0, kind == 1], [-gamma - 1.0 + u, gamma + 0.5 + u], gamma * (2.0 * u - 1.0)
    )
    return M, b, np.maximum(M + b[:, None], 0.0)


instances = st.fixed_dictionaries(
    {
        "d": st.integers(1, 9),
        "n": st.integers(1, 9),
        "gamma": st.floats(0.2, 2.0),
        "seed": st.integers(0, 2**31 - 1),
    }
)


def _same_total(a, b):
    if math.isnan(a) or math.isinf(a):
        return a == b or (math.isnan(a) and math.isnan(b))
    return math.isclose(a, b, rel_tol=1e-12, abs_tol=1e-12)


# ----------------------------------------------------------------------
# properties
# ----------------------------------------------------------------------


@pytest.mark.parametrize("kind", sorted(LAWS))
@given(
    inst=instances,
    loc=st.floats(-3.0, 4.0),
    scale=st.floats(0.2, 3.0),
    nu_frac=st.floats(0.0, 1.0),
    reach=st.sampled_from([1.0, 1.6]),
    fill=st.sampled_from(FILL_STRATEGIES),
)
def test_reconstruct_matrix_matches_the_row_loop(kind, inst, loc, scale, nu_frac, reach, fill):
    model = LAWS[kind](loc, scale)
    gamma = inst["gamma"]
    # rows spread wider than 2 gamma - nu have no feasible shift
    _, _, Y = _rectified(inst["seed"], inst["d"], inst["n"], gamma, reach)
    nu = nu_frac * gamma
    try:
        m_hat, beta_hats = loop_reconstruct(Y, model, gamma, nu, fill)
    except InfeasibleRowError as exc:
        with pytest.raises(InfeasibleRowError, match="^" + re.escape(str(exc))):
            reconstruct_matrix(Y, model, gamma, nu, fill=fill)
        return
    est = reconstruct_matrix(Y, model, gamma, nu, fill=fill)
    np.testing.assert_array_equal(est.m_hat, m_hat)
    np.testing.assert_array_equal(est.beta_hats, beta_hats)
    try:
        total = loop_log_likelihood(Y, beta_hats, model, gamma)
    except ValueError as exc:  # an all-clipped row, and a law without mass below 0
        with pytest.raises(ValueError, match="^" + re.escape(str(exc))):
            log_likelihood(Y, est, model)
        return
    got = log_likelihood(Y, est, model)
    assert _same_total(got, total), (got, total)


def test_zero_density_tie_and_empty_rows_match_the_row_loop():
    # the law starts at 5, right of every row's interval, so the mixed and
    # the fully observed row both tie at zero density and take lo
    Y = np.array([[0.5, 0.2, 0.0], [0.3, 0.3, 0.3], [0.0, 0.0, 0.0]])
    model = BiasModel.shifted_exponential(rate=1.0, shift=5.0)
    for fill in FILL_STRATEGIES:
        est = reconstruct_matrix(Y, model, 1.0, 0.05, fill=fill)
        m_hat, beta_hats = loop_reconstruct(Y, model, 1.0, 0.05, fill)
        np.testing.assert_array_equal(est.m_hat, m_hat)
        np.testing.assert_array_equal(est.beta_hats, beta_hats)
        np.testing.assert_array_equal(est.beta_hats[:2], [-0.5, -0.7])
        total = loop_log_likelihood(Y, beta_hats, model, 1.0)
        assert log_likelihood(Y, est, model) == total == -math.inf


@pytest.mark.parametrize("kind", sorted(LAWS))
@given(inst=instances, loc=st.floats(-3.0, 4.0), scale=st.floats(0.2, 3.0))
def test_likelihood_difference_matches_the_row_loop(kind, inst, loc, scale):
    model = LAWS[kind](loc, scale)
    gamma = inst["gamma"]
    M, b, Y = _rectified(inst["seed"], inst["d"], inst["n"], gamma)
    est = reconstruct_matrix(Y, BiasModel.gaussian(), gamma, 0.0)  # another feasible candidate
    try:
        lm, lx = (log_likelihood(Y, c, model) for c in (EstimatedMatrix(M, b), est))
    except ValueError as exc:  # an all-clipped row, and a law without mass below 0
        assert str(exc).startswith("baseline probability P(B <= 0) vanishes"), exc
        return
    if not (math.isfinite(lm) and math.isfinite(lx)):
        return
    for a, c, got in ((M, est.m_hat, lm - lx), (est.m_hat, M, lx - lm), (M, M, lm - lm)):
        expected = loop_likelihood_gap(a, c, Y, model)
        assert _same_total(got, expected), (got, expected)


@given(inst=instances, tilt=st.floats(-2.0, 2.0))
def test_row_margins_match_the_row_loop(inst, tilt):
    M, b, _ = _rectified(inst["seed"], inst["d"], inst["n"], inst["gamma"])
    # the last bias puts column 0 exactly at the rectifier's kink, where it is clipped
    for bias in (b, b + tilt, -M[:, 0]):
        np.testing.assert_array_equal(row_margins(M, bias), loop_row_margins(M, bias))
