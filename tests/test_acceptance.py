"""End-to-end acceptance checks for the whole package.

Each test covers one numbered criterion and prints a single
``[acceptance NN] PASS/FAIL: detail`` line (visible with ``pytest -s``
or in the failure report); the test name itself carries the criterion
number so a plain ``pytest -v`` run also yields one pass or fail line
per criterion.  Acceptance 01-03 and 05-08 run the cells of ``relurec
sweep``: each matrix run is one :func:`~relurec.harness.reconstruct_and_evaluate`
call, each recovery run one :func:`~relurec.harness.recover_and_evaluate`
call, and acceptance 07 checks the moments a recovery sweep computes.
Beside them the gates use only the oracles of ``tests/*_oracles.py``, and
a parity test asks ``run_sweep`` for the same numbers at one cell of each
sweep.
"""

import itertools
import math
import time

import numpy as np
import pytest
from scipy import stats as scipy_stats

from relurec.bias import (
    BiasModel,
    default_exponential,
    flatness_beta,
    lipschitz_L,
    omega_min_mass,
)
from relurec.generate import generate_recovery_instance, generate_representation_instance, relu_map
from relurec.harness import parse_config, reconstruct_and_evaluate, recover_and_evaluate, run_sweep
from relurec.lasso import check_restricted_lower_bound, make_nonlinearity_stats
from relurec.replearn import EstimatedMatrix, log_likelihood, reconstruct_matrix

from lasso_oracles import kkt_residuals, lasso_objective
from rectifier_sampling import sampled_moments
from subspace_oracles import alignment_error_bound


def _report(num: int, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    line = f"[acceptance {num:02d}] {status}: {detail}"
    print(line)
    assert ok, line


# ----------------------------------------------------------------------
# shared experiment sweeps
# ----------------------------------------------------------------------

MATRIX_DIMS = (50, 100, 200, 400)
MATRIX_SEEDS = tuple(range(20))
MATRIX_RANK = 5

RECOVERY_DIMS = (250, 500, 1000, 2000, 4000)
RECOVERY_SEEDS = tuple(range(10))


@pytest.fixture(scope="module")
def matrix_sweep():
    """Each matrix run at ``(d, seed)`` as the outcome of its cell, the largest within-row
    spread of its support residuals and the perturbation bound of its alignment error; and
    the sweep's wall time."""
    model = default_exponential(1.0)
    beta, lipschitz = flatness_beta(model, 1.0), lipschitz_L(model, 1.0)
    runs = {}
    start = time.perf_counter()
    for d, seed in itertools.product(MATRIX_DIMS, MATRIX_SEEDS):
        inst = generate_representation_instance(d, 2 * d, MATRIX_RANK, 1.0, model, seed)
        outcome = reconstruct_and_evaluate(
            inst, model, 1.0, inst.realized_nu, "midpoint", beta, lipschitz
        )
        resid = outcome.estimate.m_hat - inst.M
        spread = max(
            (float(np.ptp(row[on])) for row, on in zip(resid, inst.Y > 0.0) if on.sum() >= 2),
            default=0.0,
        )
        runs[d, seed] = outcome, spread, alignment_error_bound(inst.M, resid, MATRIX_RANK)
    return runs, time.perf_counter() - start


@pytest.fixture(scope="module")
def zero_bias_stats():
    return make_nonlinearity_stats(0.0)


def _recovery_runs(d: int, s: int, delta: float, stats) -> list:
    """Each seed's recovery instance and the outcome of its cell with the oracle penalty."""
    instances = [
        generate_recovery_instance(d, 10, s, delta, 5.0, 0.0, seed) for seed in RECOVERY_SEEDS
    ]
    return [(inst, recover_and_evaluate(inst, stats, "oracle")) for inst in instances]


@pytest.fixture(scope="module")
def recovery_sweep(zero_bias_stats):
    """Each recovery run at ``d`` as its instance and outcome, and the sweep's wall time."""
    start = time.perf_counter()
    runs = {
        d: _recovery_runs(d, math.ceil(0.02 * d), 0.01, zero_bias_stats) for d in RECOVERY_DIMS
    }
    return runs, time.perf_counter() - start


@pytest.fixture(scope="module")
def clean_runs(zero_bias_stats):
    return _recovery_runs(2000, 0, 0.0, zero_bias_stats)


# ----------------------------------------------------------------------
# criteria
# ----------------------------------------------------------------------


def test_acceptance_01_matrix_error_bound_and_scaling(matrix_sweep):
    """Reconstruction error stays under the theoretical bound, and the
    median error per observation vector grows at most like d**1.3.

    The O(d) claim is read per observation: the scaling gate is fitted to
    ``||M - M_hat||_F^2 / n``, while the bound check uses the total error.
    A row whose bias falls below ``-gamma`` is clipped to all zeros
    whatever its row of ``M`` is, and the default exponential law puts
    ``1 - e**-1`` (about 63%) of its mass there.  The rows of ``A`` are
    independent, so ``Y`` says nothing about those rows of ``M`` and any
    estimator pays their full squared norm, a total that grows like
    ``d * n`` along ``n = 2d``.  The bound itself has no ``n`` in it, so
    the per-observation error is the reading it can hold to as ``n``
    grows.  The total-error slope and the bound-to-error ratio are
    reported but not gated.
    """
    runs, elapsed = matrix_sweep

    def bound(outcome) -> float:  # a vacuous or overflowing bound
        return math.inf if outcome.rep_bound is None else outcome.rep_bound

    within = [o.frob_err_sq <= bound(o) for o, _, _ in runs.values()]
    fraction = float(np.mean(within))

    def median_by_dim(value) -> list[float]:
        return [
            float(np.median([value(runs[d, seed][0]) for seed in MATRIX_SEEDS]))
            for d in MATRIX_DIMS
        ]

    def loglog_slope(medians: list[float]) -> float:
        return float(np.polyfit(np.log(MATRIX_DIMS), np.log(medians), 1)[0])

    slope = loglog_slope(median_by_dim(lambda o: o.frob_err_sq / o.estimate.m_hat.shape[1]))
    total_slope = loglog_slope(median_by_dim(lambda o: o.frob_err_sq))
    ratios = median_by_dim(lambda o: bound(o) / o.frob_err_sq)
    ok = fraction >= 0.95 and slope <= 1.3 and elapsed <= 120.0
    _report(
        1, ok,
        f"bound satisfied in {fraction:.0%} of {len(within)} runs (need >= 95%), "
        f"log-log slope of median error per observation {slope:.3f} (need <= 1.3), "
        f"sweep took {elapsed:.1f}s (need <= 120s); "
        f"not gated: slope of median total error {total_slope:.3f}, "
        f"median bound/error ratio {ratios[0]:.2g} at d={MATRIX_DIMS[0]} "
        f"to {ratios[-1]:.2g} at d={MATRIX_DIMS[-1]}",
    )


def test_acceptance_02_support_residuals_row_constant(matrix_sweep):
    """On observed entries the reconstruction misses the truth by a
    per-row constant, to within accumulation error."""
    worst = max(spread for _, spread, _ in matrix_sweep[0].values())
    _report(
        2, worst <= 1e-10,
        f"largest within-row spread of support residuals {worst:.3e} (need <= 1e-10)",
    )


def test_acceptance_03_subspace_alignment_chain(matrix_sweep):
    """At every dimension the subspace distances obey
    sin-theta <= Procrustes <= perturbation bound on every run."""
    rows = list(matrix_sweep[0].values())
    assert len(rows) == len(MATRIX_DIMS) * len(MATRIX_SEEDS)
    ok = all(
        o.sin_theta <= o.procrustes_err + 1e-10 and o.procrustes_err <= bound
        for o, _, bound in rows
    )
    worst_ratio = max(o.procrustes_err / bound for o, _, bound in rows)
    _report(
        3, ok,
        f"chain holds on {len(rows)} runs at d={', '.join(map(str, MATRIX_DIMS))}; "
        f"largest Procrustes/bound ratio {worst_ratio:.3e}",
    )


def test_acceptance_04_likelihood_gap_lower_bound():
    """The expected log-likelihood advantage of the truth over a feasible
    perturbation dominates flatness * window-mass * squared distance."""
    model = BiasModel.shifted_exponential(1.0, -1.0)
    gamma, nu = 1.0, 0.3
    M = np.array([
        [-0.6, -0.2, 0.25, 0.7],
        [0.65, 0.1, -0.35, -0.7],
        [-0.15, 0.55, -0.65, 0.2],
    ])
    shifts = [
        np.array([0.1, 0.1, 0.1]),
        np.array([0.2, 0.05, 0.1]),
        np.array([0.05, 0.25, 0.15]),
        np.array([0.25, 0.1, 0.05]),
        np.array([0.15, 0.2, 0.25]),
    ]
    # the truth and each candidate M - t 1^T lie within gamma, and each row's
    # consecutive gaps exceed nu, so every redraw keeps them feasible: the
    # support of a row is its largest entries, and its separation one such gap
    candidates = [M - t[:, None] for t in shifts]
    for C in [M] + candidates:
        assert np.abs(C).max() <= gamma, C
        assert np.diff(np.sort(C, axis=1), axis=1).min() > nu, C
    beta = flatness_beta(model, gamma)
    omega = omega_min_mass(model, gamma, nu)
    n_draws = 10_000
    rng = np.random.default_rng(77)
    gaps = np.zeros((len(shifts), n_draws))
    for r in range(n_draws):
        b = model.sample(M.shape[0], rng=rng)
        Y = relu_map(M + b[:, None])
        # the gap is a difference of log-likelihoods; M - t 1^T has shifts b + t
        truth = log_likelihood(Y, EstimatedMatrix(M, b), model)
        for j, (t, C) in enumerate(zip(shifts, candidates)):
            gaps[j, r] = truth - log_likelihood(Y, EstimatedMatrix(C, b + t), model)
    details = []
    ok = True
    for j, t in enumerate(shifts):
        mean = float(gaps[j].mean())
        se = float(gaps[j].std(ddof=1)) / math.sqrt(n_draws)
        threshold = beta * omega * float(np.linalg.norm(t) ** 2) * M.shape[1]
        ok = ok and mean >= threshold - 3.0 * se
        details.append(f"{mean:.4f}>={threshold:.2e}-3*{se:.1e}")
    _report(4, ok, "mean gap vs lower bound per perturbation: " + "; ".join(details))


def test_acceptance_05_recovery_error_scaling(recovery_sweep):
    """A single constant calibrated at the smallest dimension bounds the
    recovery error at every larger dimension, and the median error-to-rate
    ratio drifts by less than a factor of 3 across dimensions."""
    runs, elapsed = recovery_sweep
    ratios = {
        d: [o.recovery_error / o.recovery_bound for _, o in runs[d]] for d in RECOVERY_DIMS
    }
    c_tilde = max(ratios[RECOVERY_DIMS[0]])
    later = [ratio for d in RECOVERY_DIMS[1:] for ratio in ratios[d]]
    medians = [float(np.median(ratios[d])) for d in RECOVERY_DIMS]
    spread = max(medians) / min(medians)
    ok = all(ratio <= c_tilde for ratio in later) and spread <= 3.0 and elapsed <= 300.0
    _report(
        5, ok,
        f"calibrated constant {c_tilde:.3f}, worst larger-d ratio {max(later):.3f}, "
        f"median-ratio spread {spread:.2f} (need <= 3), "
        f"sweep took {elapsed:.1f}s (need <= 300s)",
    )


def test_acceptance_06_clean_case_recovery(clean_runs):
    """Without outliers or dense noise the rescaled truth is recovered to
    0.05 in Euclidean norm in at least 9 of 10 seeds."""
    errors = [
        float(np.linalg.norm(o.mu * inst.c_star - o.solution.c_hat)) for inst, o in clean_runs
    ]
    successes = sum(error <= 0.05 for error in errors)
    worst = max(errors)
    _report(
        6, successes >= 9,
        f"{successes}/10 seeds within 0.05 (worst error {worst:.4f})",
    )


def test_acceptance_07_nonlinearity_constants():
    """The rectifier slope equals the Gaussian CDF of the offset and the
    residual moments at zero offset match their closed forms."""
    offsets = (-1.0, 0.0, 0.5, 1.0, 2.0)
    mu_err = max(
        abs(make_nonlinearity_stats(b0).mu - float(scipy_stats.norm.cdf(b0))) for b0 in offsets
    )
    quad = make_nonlinearity_stats(0.0)
    quad_err = max(abs(quad.sigma - 0.5), abs(quad.eta - math.sqrt(0.75)))

    n_samples = 1_000_000
    _, sigma_mc, eta_mc = sampled_moments(0.0, 0.5, n_samples, seed=5)
    # independent draw estimates the Monte Carlo standard errors
    g = np.random.default_rng(99).standard_normal(n_samples)
    sq = (np.maximum(g, 0.0) - 0.5 * g) ** 2
    se_sig2 = float(sq.std(ddof=1)) / math.sqrt(n_samples)
    se_eta2 = float((g * g * sq).std(ddof=1)) / math.sqrt(n_samples)
    mc_ok = (
        abs(sigma_mc**2 - 0.25) <= 3.0 * se_sig2
        and abs(eta_mc**2 - 0.75) <= 3.0 * se_eta2
    )
    ok = mu_err <= 1e-4 and quad_err <= 1e-3 and mc_ok
    _report(
        7, ok,
        f"max slope error {mu_err:.2e} (need <= 1e-4), "
        f"quadrature moment error {quad_err:.2e} (need <= 1e-3), "
        f"Monte Carlo within 3 standard errors: {mc_ok}",
    )


def test_acceptance_08_solver_properties(recovery_sweep, clean_runs, zero_bias_stats):
    """Objective traces never increase, first-order residuals stay below
    1e-6, and random perturbations never find a lower objective."""
    runs = [run for d in RECOVERY_DIMS for run in recovery_sweep[0][d]] + clean_runs
    worst_rise = max(
        float(np.diff(o.solution.objective_trace).max(initial=-np.inf)) for _, o in runs
    )
    trace_ok = worst_rise <= 1e-12
    kkt_worst = max(
        max(kkt_residuals(inst.v, inst.A, o.solution, o.lambda_used))
        for inst, o in runs if o.converged
    )
    kkt_ok = all(o.converged for _, o in runs) and kkt_worst <= 1e-6

    worst_deficit = 0.0
    n_probes = 10_000
    for seed in range(20):
        inst = generate_recovery_instance(30, 3, 3, 0.01, 5.0, 0.0, seed)
        outcome = recover_and_evaluate(inst, zero_bias_stats, "oracle")
        solution, lam = outcome.solution, outcome.lambda_used
        base = lasso_objective(inst.v, inst.A, solution.c_hat, solution.e_hat, lam)
        rng = np.random.default_rng(1000 + seed)
        directions = rng.standard_normal((3 + 30, n_probes))
        directions /= np.linalg.norm(directions, axis=0)
        steps = directions * 10.0 ** rng.uniform(-8.0, -0.5, n_probes)
        C = solution.c_hat[:, None] + steps[:3]
        E = solution.e_hat[:, None] + steps[3:]
        resid = inst.v[:, None] - inst.A @ C - E
        objectives = 0.5 * (resid * resid).sum(axis=0) / 30 + lam * np.abs(E).sum(axis=0)
        worst_deficit = min(worst_deficit, float((objectives - base).min()))
    probe_ok = worst_deficit >= -1e-12
    ok = trace_ok and kkt_ok and probe_ok
    _report(
        8, ok,
        f"largest trace increase {worst_rise:.2e} (need <= 1e-12), "
        f"worst first-order residual {kkt_worst:.2e} (need <= 1e-6), "
        f"deepest probe deficit {worst_deficit:.2e} (need >= -1e-12)",
    )


def test_acceptance_09_restricted_set_lower_bound():
    """The search of the restricted error cone finds no pair that violates
    the quadratic lower bound on a design well inside the regime."""
    rng = np.random.default_rng(11)
    A = rng.standard_normal((500, 10))
    support = rng.choice(500, size=25, replace=False)
    num_checked, num_violations, min_ratio = check_restricted_lower_bound(
        A, lam=0.01, sigma=0.5, eta=math.sqrt(0.75), support=support, delta_norm=0.5,
    )
    ok = num_checked == 93 and num_violations == 0
    _report(
        9, ok,
        f"{num_violations}/{num_checked} violations, smallest margin ratio {min_ratio:.2f}",
    )


def test_acceptance_10_row_mle_matches_grid_oracle():
    """The one-dimensional shift maximiser ties or beats a dense grid
    search on random single rows."""
    models = [
        default_exponential(1.0),
        BiasModel.gaussian(0.5, 1.0),
        BiasModel.logistic(0.0, 0.7),
    ]
    rng = np.random.default_rng(123)
    gamma, nu = 1.0, 1e-6
    worst_gap = 0.0
    cases = 0
    while cases < 50:
        model = models[cases % len(models)]
        m = rng.uniform(-0.9, 0.9, 5)
        b = float(model.sample(1, rng=rng)[0])
        y = relu_map(m + b)
        on = y > 0.0
        if not on.any():
            continue
        loglik = log_likelihood(y[None], reconstruct_matrix(y[None], model, gamma, nu), model)
        # the feasible shifts [Y_max - gamma, Y_min + gamma (- nu with clipped entries)]
        lo = float(y[on].max()) - gamma
        hi = float(y[on].min()) + gamma - (nu if not on.all() else 0.0)
        grid = np.linspace(lo, hi, 10_000)
        best = float(grid[int(np.argmax(model.log_density(grid)))])
        grid_loglik = float(model.log_density(best) - model.log_density(float(y[on].min())))
        worst_gap = min(worst_gap, loglik - grid_loglik)
        cases += 1
    _report(
        10, worst_gap >= -1e-9,
        f"worst shortfall against a 10^4-point grid {worst_gap:.2e} over 50 rows "
        f"(need >= -1e-9)",
    )


# ----------------------------------------------------------------------
# the runs above are the cells of relurec sweep
# ----------------------------------------------------------------------

MATRIX_CONFIG = """
task = rep_learning
d = 50
n = 2d
k = 5
bias = exp:rate=1.0,shift=-2.0
fill_strategy = midpoint
seeds = 0
"""

RECOVERY_CONFIG = """
task = robust_recovery
d = 250
k = 10
s = 0.02d
delta = 0.01
bias = const:value=0.0
lambda_mode = oracle
seeds = 0
"""


def test_sweep_cells_match_the_acceptance_runs(matrix_sweep, recovery_sweep):
    """Seed 0 at the first grid point of each sweep gives ``run_sweep`` the numbers of the
    acceptance run, bit for bit."""
    cases = [
        (
            MATRIX_CONFIG, matrix_sweep[0][MATRIX_DIMS[0], 0][0],
            ("frob_err_sq", "rep_bound", "sin_theta", "procrustes_err"),
        ),
        (
            RECOVERY_CONFIG, recovery_sweep[0][RECOVERY_DIMS[0]][0][1],
            ("recovery_error", "recovery_bound", "lambda_used", "iterations"),
        ),
    ]
    for config, outcome, columns in cases:
        (row,) = run_sweep(parse_config(config))
        assert row["error"] is None
        assert {name: row[name] for name in columns} == {
            name: getattr(outcome, name) for name in columns
        }
