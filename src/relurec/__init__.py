"""Recovery algorithms for single-layer rectified (ReLU) observation models.

The package has two estimation pipelines plus shared infrastructure:

* :mod:`relurec.bias` -- scalar bias distributions and the interval
  constants (flatness, steepness, window mass) that drive error bounds;
* :mod:`relurec.generate` -- synthetic instance generators and an
  on-disk instance format;
* :mod:`relurec.replearn` -- row-wise maximum-likelihood reconstruction
  of a bounded low-rank pre-activation matrix from rectified
  observations;
* :mod:`relurec.subspace` -- truncated SVD, subspace distances, and an
  alignment perturbation bound;
* :mod:`relurec.lasso` -- outlier-robust recovery of a latent
  coefficient vector behind the rectifier, via an exact alternating
  generalized-LASSO solver;
* :mod:`relurec.harness` -- config-driven experiment sweeps with stable
  CSV/JSON outputs;
* :mod:`relurec.cli` -- the ``relurec`` command-line entry point.
"""

from .bias import (
    BiasConstants,
    BiasModel,
    compute_bias_constants,
    default_exponential,
    parse_bias_spec,
)
from .generate import (
    GenerativeInstance,
    RecoveryInstance,
    generate_recovery_instance,
    generate_representation_instance,
    load_instance,
    relu_map,
    save_instance,
)
from .lasso import (
    LassoConfig,
    LassoSolution,
    NonlinearityStats,
    make_nonlinearity_stats,
    solve_robust_lasso,
)
from .replearn import EstimatedMatrix, log_likelihood, reconstruct_matrix, theoretical_rep_bound
from .subspace import procrustes_align, sin_theta_distance, truncated_svd

__version__ = "0.1.0"

__all__ = [
    "BiasConstants",
    "BiasModel",
    "EstimatedMatrix",
    "GenerativeInstance",
    "LassoConfig",
    "LassoSolution",
    "NonlinearityStats",
    "RecoveryInstance",
    "compute_bias_constants",
    "default_exponential",
    "generate_recovery_instance",
    "generate_representation_instance",
    "load_instance",
    "log_likelihood",
    "make_nonlinearity_stats",
    "parse_bias_spec",
    "procrustes_align",
    "reconstruct_matrix",
    "relu_map",
    "save_instance",
    "sin_theta_distance",
    "solve_robust_lasso",
    "theoretical_rep_bound",
    "truncated_svd",
]
