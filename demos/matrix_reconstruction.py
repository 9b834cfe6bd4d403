"""
Reconstructing a low-rank matrix from rectified observations
============================================================

A rank-k matrix M = A C is observed through Y = ReLU(M + b 1^T), where
each row shares one random bias entry b_i.  Positive entries of Y
reveal their pre-activation up to the row's bias; zero entries reveal
only a ceiling.  The reconstruction estimates each row's bias by
maximum likelihood, shifts the observed entries back, and fills the
censored ones inside their admissible interval.
"""

import numpy as np

from relurec import (
    compute_bias_constants,
    default_exponential,
    generate_representation_instance,
    log_likelihood,
    procrustes_align,
    reconstruct_matrix,
    sin_theta_distance,
    theoretical_rep_bound,
    truncated_svd,
)

d, n, k, gamma = 100, 200, 4, 1.0
model = default_exponential(gamma)
instance = generate_representation_instance(d, n, k, gamma, model, seed=7)

observed = float((instance.Y > 0).mean())
print(f"instance: {d}x{n}, rank {k}, {observed:.0%} of entries positive")
print(f"smallest sign margin across entries: {instance.realized_nu:.2e}")

# Reconstruct with the default midpoint fill.  The per-row bias
# estimates solve independent one-dimensional problems, so the whole
# matrix takes a fraction of a second.
estimate = reconstruct_matrix(instance.Y, model, gamma, instance.realized_nu)
err_sq = float(np.linalg.norm(instance.M - estimate.m_hat) ** 2)
constants = compute_bias_constants(model, gamma, instance.realized_nu)
bound = theoretical_rep_bound(constants, d)
print(f"\nsquared Frobenius error {err_sq:.1f} (theoretical bound {bound:.3g})")
print(f"achieved log-likelihood {log_likelihood(instance.Y, estimate, model):.2f}")

# On observed entries the only unknown is the row bias, so the residual
# is constant within each row: the bias estimation error.
residual = estimate.m_hat - instance.M
spreads = []
for i in range(d):
    on = instance.Y[i] > 0
    if on.sum() >= 2:
        spreads.append(np.ptp(residual[i, on]))
print(f"largest within-row residual spread on observed entries: {max(spreads):.2e}")

# The column space of A survives the reconstruction noise.  Compare the
# top-k left singular subspaces of M and M-hat by the sin-theta
# distance and by Procrustes alignment.
U, _, _ = truncated_svd(instance.M, k)
U_hat, _, _ = truncated_svd(estimate.m_hat, k)
rotation, procrustes_err = procrustes_align(U, U_hat)
print(f"\nsubspace distance (sin-theta) {sin_theta_distance(U, U_hat):.3f}")
print(f"aligned basis error (Procrustes) {procrustes_err:.3f}")
print(f"worst case for k orthonormal columns would be {np.sqrt(2.0 * k):.3f}")

# Censored entries are not identified by the likelihood; the three fill
# strategies place them at different points of the admissible interval.
print("\nfill strategy comparison (squared error)")
for fill in ("upper_boundary", "lower_boundary", "midpoint"):
    est = reconstruct_matrix(instance.Y, model, gamma, instance.realized_nu, fill=fill)
    e = float(np.linalg.norm(instance.M - est.m_hat) ** 2)
    print(f"  {fill:<15} {e:.1f}")
