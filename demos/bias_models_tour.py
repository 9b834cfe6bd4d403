"""
Bias distributions and their recovery constants
===============================================

A tour of the three bias families, their closed-form densities, and the
three scalar constants that govern how well a rectified observation
pins down its pre-activation: the flatness of the log-density, its
steepness, and the smallest probability window the feasible set can
shrink to.
"""

import numpy as np

from relurec import (
    BiasModel,
    compute_bias_constants,
    default_exponential,
    parse_bias_spec,
    theoretical_rep_bound,
)
from relurec.bias import bias_spec_to_config, flatness_beta

# The three families share one interface: density, log-density,
# derivative, CDF, quantile, and sampling.  Each is built either from a
# classmethod or from a compact config string.
exponential = BiasModel.shifted_exponential(rate=1.0, shift=-2.0)
gaussian = BiasModel.gaussian(mean=0.0, std=1.0)
logistic = parse_bias_spec("logistic:loc=0.0,scale=0.7")

print("families and supports")
for model in (exponential, gaussian, logistic):
    lo, hi = model.support()
    print(f"  {bias_spec_to_config(model):<28} support ({lo:.6g}, {hi:.6g})")

# Densities integrate to one; a quick trapezoid check on a wide grid.
grid = np.linspace(-30.0, 30.0, 200_001)
print("\ndensity mass on [-30, 30]")
for model in (exponential, gaussian, logistic):
    mass = np.trapezoid(model.density(grid), grid)
    print(f"  {bias_spec_to_config(model):<28} {mass:.6f}")

# The constants depend on the clipping level gamma and the separation
# nu of the feasible set.  Flatness is the infimum of p'^2 / (4p) over
# [-gamma, gamma]: the curvature floor of the likelihood.  The
# steepness constant is the larger of sup p/P(B <= x) and sup |p'|/p.
# Omega is the smallest probability a length-nu window inside
# [-gamma, gamma] can carry.
gamma, nu = 1.0, 0.05
print(f"\nconstants at gamma={gamma}, nu={nu}")
for model in (exponential, gaussian, logistic):
    constants = compute_bias_constants(model, gamma, nu)
    print(
        f"  {bias_spec_to_config(model):<28} flatness {constants.beta:.5f}  "
        f"steepness {constants.lipschitz:.5f}  window mass {constants.omega:.5f}"
    )

# default_exponential(gamma) shifts the unit-rate exponential so that
# its support starts one unit below -gamma; the density is then
# positive and monotone over the whole clipping range.
model = default_exponential(gamma)
print(f"\ndefault model for gamma={gamma}: {bias_spec_to_config(model)}")

# A Gaussian whose mode lies inside the clipping range has a vanishing
# derivative there, so its flatness constant collapses to zero and the
# theoretical error bound carries no information.  The bundle of
# constants reports this through its vacuous flag, and the bound built
# on them is infinite.
flat = flatness_beta(gaussian, gamma)
constants = compute_bias_constants(gaussian, gamma, nu)
print(
    f"\ncentred Gaussian at gamma={gamma}: flatness {flat}, vacuous={constants.vacuous}, "
    f"bound for d=100 {theoretical_rep_bound(constants, 100)}"
)

# Config strings round-trip through repr-quality floats, so a model can
# be stored as a string (an instance's `bias` field) and rebuilt bit for bit.
rebuilt = parse_bias_spec(bias_spec_to_config(logistic))
print(f"\nconfig round trip: {bias_spec_to_config(logistic)} -> equal={rebuilt == logistic}")
