"""Recovery algorithms for single-layer rectified (ReLU) observation models.

The package has two estimation pipelines plus shared infrastructure:

* :mod:`relurec.bias` -- scalar bias distributions and the interval
  constants (flatness, steepness, window mass) that drive error bounds;
* :mod:`relurec.generate` -- synthetic instance generators and an
  on-disk instance format;
* :mod:`relurec.replearn` -- row-wise maximum-likelihood reconstruction
  of a bounded low-rank pre-activation matrix from rectified
  observations;
* :mod:`relurec.subspace` -- truncated SVD and the sin-theta and
  Procrustes distances between two bases;
* :mod:`relurec.lasso` -- outlier-robust recovery of a latent
  coefficient vector behind the rectifier, via a generalized-LASSO
  solver that takes Newton steps on the observations it does not flag;
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
from .subspace import subspace_distances, truncated_svd

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
    "reconstruct_matrix",
    "relu_map",
    "save_instance",
    "solve_robust_lasso",
    "subspace_distances",
    "theoretical_rep_bound",
    "truncated_svd",
]
