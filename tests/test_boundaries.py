"""One table of bad arguments for every public entry point.

Each public callable is crossed with each of its numeric arguments and each
bad value: ``True`` (Python counts it as 1), NaN, +-inf, a number out of the
argument's range, ``2.0`` for a count, and the string ``"1"``.  A second
table crosses its array arguments with a wrong shape, a NaN or infinite
entry, a string entry and an ``object()`` in place of the array.  A third
table breaks each rule between arguments, such as ``k <= min(d, n)``, with
values that each pass alone.  Every case must raise a ``ValueError`` whose
message names the argument right before its "must", as in ``gamma must be
positive and finite, got nan`` or ``k must be at most min(d, n) = 8, got 9``.
"""

import math
import re

import numpy as np
import pytest

from relurec.bias import (
    BiasConstants,
    BiasModel,
    compute_bias_constants,
    default_exponential,
    flatness_beta,
    lipschitz_L,
    omega_min_mass,
)
from relurec.generate import generate_recovery_instance, generate_representation_instance
from relurec.lasso import (
    LassoConfig,
    LassoSolution,
    agnostic_lambda,
    check_restricted_lower_bound,
    make_nonlinearity_stats,
    recovery_error_and_bound,
    solve_robust_lasso,
)
from relurec.replearn import log_likelihood, reconstruct_matrix, theoretical_rep_bound
from relurec.subspace import subspace_distances, truncated_svd

LAW = default_exponential(3.0)
Y = np.array([[1.0, 0.0, 0.5], [0.2, 0.3, 0.0]])
CONSTANTS = compute_bias_constants(default_exponential(1.0), 1.0, 0.5)
CONSTANT_FIELDS = dict(beta=0.1, lipschitz=1.0, omega=0.5, gamma=1.0, nu=0.1)
DESIGN = np.random.default_rng(0).standard_normal((100, 3))
CONE = {"lam": 0.01, "sigma": 0.5, "eta": 0.8, "support": [1, 2], "delta_norm": 0.0}


def _count(low):
    """The bad values of an integer of at least ``low``."""
    return [True, math.nan, math.inf, -math.inf, low - 1, 2.0, "1"]


def _real(sign=""):
    """The bad values of a finite real number that is also ``sign``."""
    below = {"": [], "positive": [0.0, -1.0], "nonnegative": [-1.0]}[sign]
    return [True, math.nan, math.inf, -math.inf, *below, "1"]


def _rep(**change):
    args = dict(d=8, n=12, k=2, gamma=1.0, model=default_exponential(1.0), seed=0) | change
    return generate_representation_instance(**args)


def _recovery(**change):
    args = dict(d=40, k=2, s=2, delta=0.0, outlier_magnitude=5.0, bias=0.0, seed=0) | change
    return generate_recovery_instance(**args)


# (callable, argument named in the message, call with the argument set to a value, bad values)
NUMERIC = [
    ("BiasModel", "mean", lambda x: BiasModel("gaussian", (x, 1.0)), _real()),
    ("BiasModel", "std", lambda x: BiasModel("gaussian", (0.0, x)), _real("positive")),
    ("BiasModel.gaussian", "mean", lambda x: BiasModel.gaussian(mean=x), _real()),
    ("BiasModel.gaussian", "std", lambda x: BiasModel.gaussian(std=x), _real("positive")),
    ("BiasModel.shifted_exponential", "rate",
     lambda x: BiasModel.shifted_exponential(rate=x), _real("positive")),
    ("BiasModel.shifted_exponential", "shift",
     lambda x: BiasModel.shifted_exponential(shift=x), _real()),
    ("BiasModel.logistic", "loc", lambda x: BiasModel.logistic(loc=x), _real()),
    ("BiasModel.logistic", "scale", lambda x: BiasModel.logistic(scale=x), _real("positive")),
    *(
        ("BiasConstants", name,
         lambda x, name=name: BiasConstants(**(CONSTANT_FIELDS | {name: x})), _real(sign))
        for name, sign in (
            ("beta", "nonnegative"), ("lipschitz", "positive"), ("omega", "nonnegative"),
            ("gamma", "positive"), ("nu", "positive"),
        )
    ),
    ("BiasConstants", "omega", lambda x: BiasConstants(**(CONSTANT_FIELDS | {"omega": x})), [1.5]),
    ("default_exponential", "gamma", default_exponential, _real("positive")),
    ("flatness_beta", "gamma", lambda x: flatness_beta(LAW, x), _real("positive")),
    ("lipschitz_L", "gamma", lambda x: lipschitz_L(LAW, x), _real("positive")),
    ("omega_min_mass", "gamma", lambda x: omega_min_mass(LAW, x, 0.5), _real("positive")),
    ("omega_min_mass", "nu", lambda x: omega_min_mass(LAW, 1.0, x), _real("positive")),
    ("compute_bias_constants", "gamma",
     lambda x: compute_bias_constants(LAW, x, 0.1), _real("positive")),
    ("compute_bias_constants", "nu",
     lambda x: compute_bias_constants(LAW, 1.0, x), _real("positive")),
    ("generate_representation_instance", "d", lambda x: _rep(d=x), _count(1)),
    ("generate_representation_instance", "n", lambda x: _rep(n=x), _count(1)),
    ("generate_representation_instance", "k", lambda x: _rep(k=x), _count(1)),
    ("generate_representation_instance", "gamma", lambda x: _rep(gamma=x), _real("positive")),
    ("generate_representation_instance", "seed", lambda x: _rep(seed=x), _count(0)),
    ("generate_representation_instance", "min_margin",
     lambda x: _rep(min_margin=x), _real("nonnegative")),
    ("generate_recovery_instance", "d", lambda x: _recovery(d=x), _count(1)),
    ("generate_recovery_instance", "k", lambda x: _recovery(k=x), _count(1)),
    ("generate_recovery_instance", "s", lambda x: _recovery(s=x), _count(0)),
    ("generate_recovery_instance", "delta", lambda x: _recovery(delta=x), _real("nonnegative")),
    ("generate_recovery_instance", "outlier_magnitude",
     lambda x: _recovery(outlier_magnitude=x), _real()),
    ("generate_recovery_instance", "bias", lambda x: _recovery(bias=x), _real()),
    ("generate_recovery_instance", "seed", lambda x: _recovery(seed=x), _count(0)),
    ("reconstruct_matrix", "gamma", lambda x: reconstruct_matrix(Y, LAW, x, 0.1),
     _real("positive")),
    ("reconstruct_matrix", "nu", lambda x: reconstruct_matrix(Y, LAW, 1.0, x),
     _real("nonnegative")),
    ("theoretical_rep_bound", "d", lambda x: theoretical_rep_bound(CONSTANTS, x), _count(1)),
    ("truncated_svd", "k", lambda x: truncated_svd(DESIGN, x), _count(1)),
    ("LassoConfig", "lam", lambda x: LassoConfig(lam=x), _real("positive")),
    ("LassoConfig", "max_iter", lambda x: LassoConfig(lam=1.0, max_iter=x), _count(1)),
    ("make_nonlinearity_stats", "bias", make_nonlinearity_stats, _real()),
    ("agnostic_lambda", "d", lambda x: agnostic_lambda(x, 1.0, 0.0), _count(1)),
    ("agnostic_lambda", "sigma", lambda x: agnostic_lambda(10, x, 0.0), _real("nonnegative")),
    ("agnostic_lambda", "delta", lambda x: agnostic_lambda(10, 1.0, x), _real("nonnegative")),
    *(
        ("check_restricted_lower_bound", name,
         lambda x, name=name: check_restricted_lower_bound(DESIGN, **(CONE | {name: x})),
         _real("positive" if name == "lam" else "nonnegative"))
        for name in ("lam", "sigma", "eta", "delta_norm")
    ),
]


def _solution(c_hat, e_hat):
    return LassoSolution(c_hat, e_hat, np.array([0.0]), 1, True, "tol", 0.0)


RECOVERY = _recovery()
STATS = make_nonlinearity_stats(0.0)
ESTIMATE = reconstruct_matrix(Y, LAW, 1.0, 0.1)
BASIS = np.eye(5, 2)

# (callable, argument named in the message, its good value, call with the argument set)
ARRAYS = [
    ("reconstruct_matrix", "Y", Y, lambda x: reconstruct_matrix(x, LAW, 1.0, 0.1)),
    ("log_likelihood", "Y", Y, lambda x: log_likelihood(x, ESTIMATE, LAW)),
    ("truncated_svd", "M", DESIGN, lambda x: truncated_svd(x, 2)),
    ("subspace_distances", "U", BASIS, lambda x: subspace_distances(x, BASIS)),
    ("subspace_distances", "U_hat", BASIS, lambda x: subspace_distances(BASIS, x)),
    ("solve_robust_lasso", "A", DESIGN,
     lambda x: solve_robust_lasso(np.ones(100), x, LassoConfig(lam=1.0))),
    ("solve_robust_lasso", "v", np.ones(100),
     lambda x: solve_robust_lasso(x, DESIGN, LassoConfig(lam=1.0))),
    ("recovery_error_and_bound", "c_hat", np.zeros(2),
     lambda x: recovery_error_and_bound(_solution(x, np.zeros(40)), RECOVERY, STATS)),
    ("recovery_error_and_bound", "e_hat", np.zeros(40),
     lambda x: recovery_error_and_bound(_solution(np.zeros(2), x), RECOVERY, STATS)),
    ("check_restricted_lower_bound", "A", DESIGN,
     lambda x: check_restricted_lower_bound(x, **CONE)),
]


# (callable, argument named in the message, the combination, a call that breaks a rule
# between the argument and others with values that each pass alone)
RELATIONS = [
    ("generate_representation_instance", "k", "d=8,n=12,k=9", lambda: _rep(k=9)),
    ("generate_representation_instance", "k", "d=12,n=8,k=9", lambda: _rep(d=12, n=8, k=9)),
    ("generate_recovery_instance", "s", "d=40,s=41", lambda: _recovery(s=41)),
    ("solve_robust_lasso", "k", "d=3,k=3",
     lambda: solve_robust_lasso(np.ones(3), DESIGN[:3], LassoConfig(lam=1.0))),
    ("solve_robust_lasso", "k", "d=2,k=3",
     lambda: solve_robust_lasso(np.ones(2), DESIGN[:2], LassoConfig(lam=1.0))),
    ("check_restricted_lower_bound", "k + |S|", "d=100,k=3,|S|=23",
     lambda: check_restricted_lower_bound(DESIGN, **(CONE | {"support": range(23)}))),
]


def _reshaped(x):
    """``x`` with a shape it may not have: a matrix flattened, a vector one entry short."""
    return x.ravel() if x.ndim == 2 else x[:-1]


def _with_entry(value):
    def put(x):
        x = np.array(x, dtype=object if isinstance(value, str) else float)
        x.flat[-1] = value
        return x
    return put


def _named(name: str, call, value):
    with pytest.raises(ValueError) as caught:
        call(value)
    message = str(caught.value)
    assert re.search(rf"(^|\W){re.escape(name)} must\b", message), message


@pytest.mark.parametrize(
    "name, call, value",
    [
        pytest.param(name, call, value, id=f"{label}-{name}-{value!r}")
        for label, name, call, values in NUMERIC
        for value in values
    ],
)
def test_a_bad_number_is_named(name, call, value):
    _named(name, call, value)


@pytest.mark.parametrize(
    "name, call, value",
    [
        pytest.param(name, call, bad(good), id=f"{label}-{name}-{kind}")
        for label, name, good, call in ARRAYS
        for kind, bad in (
            ("shape", _reshaped), ("nan", _with_entry(math.nan)), ("inf", _with_entry(math.inf)),
            ("string", _with_entry("a")), ("object", lambda x: object()),
        )
    ],
)
def test_a_bad_array_is_named(name, call, value):
    _named(name, call, value)


@pytest.mark.parametrize(
    "name, call",
    [pytest.param(name, call, id=f"{label}-{case}") for label, name, case, call in RELATIONS],
)
def test_a_broken_relation_is_named(name, call):
    _named(name, lambda _: call(), None)
