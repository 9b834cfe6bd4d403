"""Monte Carlo reference for the rectifier moments of ``make_nonlinearity_stats``.

The tests check the closed forms against plain averages over sampled
``(g, b)`` pairs, which share no code with the quadrature.
"""

import math

import numpy as np

from relurec.bias import BiasModel


def sampled_moments(bias, mu: float, n_samples: int, seed: int) -> tuple[float, float, float]:
    """Sample means of ``g ReLU(g+b)``, ``(ReLU(g+b) - mu g)^2`` and ``g^2 (ReLU(g+b) - mu g)^2``.

    Returns the slope and the square roots of the two residual moments.
    The residual is taken about the given slope ``mu``, so ``sigma`` and
    ``eta`` carry no sampling error from a sampled slope.  ``g`` is drawn
    first and then ``b``, from one ``np.random.default_rng(seed)``; a
    constant ``bias`` is the offset of every draw.
    """
    rng = np.random.default_rng(seed)
    g = rng.standard_normal(n_samples)
    if isinstance(bias, BiasModel):
        b = bias.sample(n_samples, rng=rng)
    else:
        b = np.full(n_samples, float(bias))
    relu = np.maximum(g + b, 0.0)
    resid = relu - mu * g
    sq = resid * resid
    return (
        float((relu * g).mean()),
        math.sqrt(float(sq.mean())),
        math.sqrt(float((g * g * sq).mean())),
    )
