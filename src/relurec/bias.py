"""One-dimensional bias distributions and the constants that drive error bounds.

A bias law is a scalar probability density ``p`` from a small family
(shifted exponential, Gaussian, logistic).  Besides the usual density /
CDF / sampling operations, this module computes three scalar functionals
of ``p`` restricted to a working interval ``[-gamma, gamma]``:

``flatness_beta``
    infimum of ``p'(x)^2 / (4 p(x))`` over the interval.  Measures how
    far the density is from flat; a value of zero makes downstream error
    bounds vacuous.
``lipschitz_L``
    maximum of ``p(x) / P(B <= x)`` and ``|p'(x)| / p(x)`` over the
    interval, a Lipschitz-type steepness constant of the log-density and
    log-CDF.
``omega_min_mass``
    smallest probability mass the law puts on any length-``nu`` window
    inside ``[-gamma, gamma]``.

Every law in the family is log-concave, so each extremum sits at an end
of the interval: ``(log p)'`` and the hazard ``p / P(B <= x)`` decrease,
``p'^2/(4p)`` rises and then falls on either side of the mode (it is zero
where ``p'`` changes sign), and the window mass is log-concave in the
window's start (Prekopa).  All three are exact evaluations at the ends.
Each raises ``ValueError`` naming a ``model`` that is not a :class:`BiasModel`,
such as a constant offset, and :class:`InvalidIntervalError` naming a
``gamma`` that is not a positive finite real number.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from . import _checks as checks

__all__ = [
    "BiasModel",
    "BiasConstants",
    "InvalidIntervalError",
    "bias_spec_to_config",
    "compute_bias_constants",
    "default_exponential",
    "flatness_beta",
    "lipschitz_L",
    "omega_min_mass",
    "parse_bias_spec",
]

_LOG_SQRT_2PI = 0.5 * math.log(2.0 * math.pi)
_ERFC = np.frompyfunc(math.erfc, 1, 1)


@functools.cache
def _normal_inv_cdf():
    """``statistics.NormalDist().inv_cdf``; ``statistics`` loads with the first quantile."""
    import statistics
    return statistics.NormalDist().inv_cdf


def _normal_quantile(p: float) -> float:
    """Standard-normal quantile: -inf at 0, inf at 1, NaN outside ``[0, 1]``."""
    if 0.0 < p < 1.0:
        return _normal_inv_cdf()(p)
    return -math.inf if p == 0.0 else math.inf if p == 1.0 else math.nan


_NORMAL_QUANTILE = np.frompyfunc(_normal_quantile, 1, 1)

# config-string tags, each with its law's kind (None: a constant offset) and its
# parameter names, in storage order
_CONFIG_SCHEMA = {
    "const": (None, ("value",)),
    "exp": ("shifted_exponential", ("rate", "shift")),
    "gauss": ("gaussian", ("mean", "std")),
    "logistic": ("logistic", ("loc", "scale")),
}
_PARAM_NAMES = {kind: names for kind, names in _CONFIG_SCHEMA.values() if kind is not None}


class InvalidIntervalError(ValueError):
    """Raised when interval endpoints are ordered or sized inconsistently."""


@dataclass(frozen=True)
class BiasModel:
    """A scalar bias distribution.

    Parameters
    ----------
    kind : str
        One of ``"shifted_exponential"``, ``"gaussian"``, ``"logistic"``.
    params : tuple of float
        Kind-specific parameter pair: (rate, shift) for the shifted
        exponential, (mean, std) for the Gaussian, (loc, scale) for the
        logistic.

    All three kinds are log-concave; the interval constants below and
    the row-wise shift estimate in :mod:`relurec.replearn` rely on it.
    ``ValueError`` names a parameter that is not a finite real number, or a
    rate, std or scale that is not positive; each is stored as a ``float``.
    """

    kind: str
    params: tuple[float, float]

    def __post_init__(self) -> None:
        if self.kind not in _PARAM_NAMES:
            raise ValueError(f"unknown bias kind {self.kind!r}")
        names = _PARAM_NAMES[self.kind]
        if len(self.params) != len(names):
            raise ValueError(f"{self.kind} takes the pair ({', '.join(names)}), got {self.params}")
        signs = ("positive", "") if self.kind == "shifted_exponential" else ("", "positive")
        params = tuple(
            checks.real(f"{self.kind} parameter {name}", value, sign)
            for name, value, sign in zip(names, self.params, signs)
        )
        object.__setattr__(self, "params", params)

    # ------------------------------------------------------------------
    # constructors
    # ------------------------------------------------------------------

    @classmethod
    def shifted_exponential(cls, rate: float = 1.0, shift: float = 0.0) -> "BiasModel":
        """Exponential law with rate ``rate`` supported on ``[shift, inf)``."""
        return cls("shifted_exponential", (rate, shift))

    @classmethod
    def gaussian(cls, mean: float = 0.0, std: float = 1.0) -> "BiasModel":
        return cls("gaussian", (mean, std))

    @classmethod
    def logistic(cls, loc: float = 0.0, scale: float = 1.0) -> "BiasModel":
        return cls("logistic", (loc, scale))

    # ------------------------------------------------------------------
    # distribution functions
    # ------------------------------------------------------------------

    def _loc_scale(self) -> tuple[float, float]:
        """Location/scale standardisation used by the closed forms below."""
        a, b = self.params
        if self.kind == "shifted_exponential":
            return b, 1.0 / a
        return a, b

    @property
    def mode(self) -> float:
        """Point of highest density: the shift of the exponential, else the centre."""
        return self._loc_scale()[0]

    def density(self, x):
        return np.exp(self.log_density(x))

    def log_density(self, x):
        loc, scale = self._loc_scale()
        y = (np.asarray(x, dtype=float) - loc) / scale
        if self.kind == "shifted_exponential":
            out = np.where(y < 0.0, -np.inf, -y - math.log(scale))  # NaN stays NaN
        elif self.kind == "gaussian":
            out = -0.5 * y * y - math.log(scale) - _LOG_SQRT_2PI
        else:
            ay = np.abs(y)
            out = -ay - 2.0 * np.log1p(np.exp(-ay)) - math.log(scale)
        return out if out.ndim else float(out)

    def density_derivative(self, x):
        loc, scale = self._loc_scale()
        xarr = np.asarray(x, dtype=float)
        y = (xarr - loc) / scale
        p = self.density(xarr)
        if self.kind == "shifted_exponential":
            # one-sided derivative at the support edge; zero strictly below it
            out = np.where(y < 0.0, 0.0, -p / scale)
        elif self.kind == "gaussian":
            out = -(y / scale) * p
        else:
            out = -np.tanh(y / 2.0) * p / scale
        return out if out.ndim else float(out)

    def cdf(self, x):
        loc, scale = self._loc_scale()
        y = (np.asarray(x, dtype=float) - loc) / scale
        if self.kind == "shifted_exponential":
            out = -np.expm1(-np.maximum(y, 0.0))  # 0.0 below the shift, NaN at NaN
        elif self.kind == "gaussian":
            out = 0.5 * np.asarray(_ERFC(-y / math.sqrt(2.0)), dtype=float)
        else:
            z = np.exp(-np.abs(y))  # overflows in neither tail
            out = np.where(y >= 0.0, 1.0, z) / (1.0 + z)
        return out if out.ndim else float(out)

    def ppf(self, q):
        loc, scale = self._loc_scale()
        q = np.asarray(q, dtype=float)
        # inf at q = 1, -inf at q = 0 (the exponential: its shift) and NaN
        # outside [0, 1], without a warning
        with np.errstate(divide="ignore", invalid="ignore"):
            if self.kind == "shifted_exponential":
                z = np.where(q >= 0.0, -np.log1p(-q), np.nan)
            elif self.kind == "gaussian":
                z = np.asarray(_NORMAL_QUANTILE(q), dtype=float)
            else:  # the logit: 2 q - 1 is exact for q >= 1/4, where log q - log1p(-q) cancels
                z = np.where(q < 0.25, np.log(q) - np.log1p(-q), 2.0 * np.arctanh(2.0 * q - 1))
        out = loc + scale * z
        return out if out.ndim else float(out)

    def sample(self, d: int, rng: np.random.Generator):
        """Draw ``d`` i.i.d. biases from ``rng``."""
        loc, scale = self._loc_scale()
        if self.kind == "shifted_exponential":
            return loc + rng.exponential(scale, size=d)
        if self.kind == "gaussian":
            return rng.normal(loc, scale, size=d)
        return rng.logistic(loc, scale, size=d)

    def support(self) -> tuple[float, float]:
        """Endpoints of the support (extended reals)."""
        if self.kind == "shifted_exponential":
            return self.params[1], math.inf
        return -math.inf, math.inf


def default_exponential(gamma: float) -> BiasModel:
    """Shifted exponential with rate 1 positioned so ``[-gamma, gamma]`` is interior.

    The support starts at ``-gamma - 1``, one unit to the left of the
    working interval, which keeps the density positive and the CDF
    bounded away from zero on the whole interval.
    """
    gamma = checks.real("gamma", gamma, "positive")
    return BiasModel.shifted_exponential(rate=1.0, shift=-gamma - 1.0)


# ----------------------------------------------------------------------
# config strings covering both random and constant bias specifications
# ----------------------------------------------------------------------


def parse_bias_spec(text: str) -> BiasModel | float:
    """Parse a bias config string: a law, or a constant offset.

    The grammar is ``tag:key=value,key=value`` with tags ``const`` (key
    ``value``, which yields that float), ``exp`` (keys ``rate``,
    ``shift``), ``gauss`` (``mean``, ``std``) and ``logistic`` (``loc``,
    ``scale``).  Each key of the tag is required once; order does not
    matter.
    """
    head, sep, body = text.strip().partition(":")
    if not sep:
        raise ValueError(f"bias config {text!r} is missing the ':' separator")
    if head not in _CONFIG_SCHEMA:
        raise ValueError(f"unknown bias tag {head!r}; expected one of {sorted(_CONFIG_SCHEMA)}")
    kind, keys = _CONFIG_SCHEMA[head]
    values: dict[str, float] = {}
    for part in body.split(","):
        key, eq, raw = part.partition("=")
        key = key.strip()
        if not eq or key not in keys:
            raise ValueError(f"bad bias parameter {part!r} in config {text!r}")
        if key in values:
            raise ValueError(f"duplicate bias parameter {key!r} in config {text!r}")
        try:
            values[key] = float(raw)
        except ValueError as exc:
            raise ValueError(f"bad numeric value {raw!r} for {key!r}") from exc
    missing = [k for k in keys if k not in values]
    if missing:
        raise ValueError(f"bias config {text!r} is missing {missing}")
    params = tuple(values[k] for k in keys)
    if kind is not None:
        return BiasModel(kind, params)
    return checks.real("constant bias value", params[0])


def bias_spec_to_config(spec: BiasModel | float) -> str:
    """Inverse of :func:`parse_bias_spec`; values round-trip exactly."""
    law = isinstance(spec, BiasModel)
    kind, params = (spec.kind, spec.params) if law else (None, (float(spec),))
    tag, keys = next((tag, keys) for tag, (k, keys) in _CONFIG_SCHEMA.items() if k == kind)
    return f"{tag}:" + ",".join(f"{key}={value!r}" for key, value in zip(keys, params))


# ----------------------------------------------------------------------
# interval constants
# ----------------------------------------------------------------------


def _interval_ends(gamma: float, length: float) -> np.ndarray:
    """The two ends of ``[-gamma, -gamma + length]``."""
    return np.array([-gamma, -gamma + length])


def flatness_beta(model: BiasModel, gamma: float) -> float:
    """Infimum of ``p'(x)^2 / (4 p(x))`` over ``[-gamma, gamma]``.

    Zero when ``p'`` changes sign inside the interval (a Gaussian or
    logistic mode), else attained at an end of the part where ``p > 0``.
    Returns 0.0 when the infimum is below ``1e-12``; the ``vacuous`` flag
    of :class:`BiasConstants` reports what that does to the bounds.
    """
    checks.law("model", model)
    gamma = checks.real("gamma", gamma, "positive", error=InvalidIntervalError)
    ends = _interval_ends(gamma, 2.0 * gamma)
    ends[0] = max(ends[0], model.support()[0])
    if ends[0] > ends[1]:
        raise ValueError(
            f"density vanishes on all of [-{gamma}, {gamma}]; flatness is undefined"
        )
    p, dp = model.density(ends), model.density_derivative(ends)
    if dp[0] > 0.0 > dp[1]:
        value = 0.0
    else:
        # an end where p underflows has p'^2/(4p) below any double as well
        value = float(np.min(np.divide(dp**2, 4.0 * p, out=np.zeros(2), where=p > 0.0)))
    return 0.0 if value < 1e-12 else value


def lipschitz_L(model: BiasModel, gamma: float) -> float:
    """Steepness constant ``max(sup p/P(B<=x), sup |p'|/p)`` over ``[-gamma, gamma]``."""
    checks.law("model", model)
    gamma = checks.real("gamma", gamma, "positive", error=InvalidIntervalError)
    ends = _interval_ends(gamma, 2.0 * gamma)
    p, dp = model.density(ends), model.density_derivative(ends)
    cdf = np.asarray(model.cdf(ends))
    if cdf[0] <= 0.0:
        raise ValueError(
            f"CDF vanishes at -{gamma}; the hazard-type ratio p/P(B<=x) is unbounded"
        )
    hazard = float(p[0] / cdf[0])  # p/F decreases, so its sup is at -gamma
    positive = p > 0.0
    log_slope = float(np.max(np.abs(dp[positive]) / p[positive])) if positive.any() else 0.0
    return max(hazard, log_slope)


def omega_min_mass(model: BiasModel, gamma: float, nu: float) -> float:
    """Smallest mass of a length-``nu`` window contained in ``[-gamma, gamma]``."""
    checks.law("model", model)
    gamma = checks.real("gamma", gamma, "positive", error=InvalidIntervalError)
    nu = checks.real("nu", nu, error=InvalidIntervalError)
    if not 0.0 < nu <= 2.0 * gamma:
        raise InvalidIntervalError(
            f"window length nu must satisfy 0 < nu <= 2*gamma, got nu={nu}, gamma={gamma}"
        )
    starts = _interval_ends(gamma, 2.0 * gamma - nu)
    mass = np.asarray(model.cdf(starts + nu)) - np.asarray(model.cdf(starts))
    return max(float(np.min(mass)), 0.0)


@dataclass(frozen=True)
class BiasConstants:
    """Bundle of interval constants for one (model, gamma, nu) triple."""

    beta: float
    lipschitz: float
    omega: float
    gamma: float
    nu: float

    def __post_init__(self) -> None:
        for name, sign in (("beta", "nonnegative"), ("lipschitz", "positive"),
                           ("omega", "nonnegative"), ("gamma", "positive"), ("nu", "positive")):
            object.__setattr__(self, name, checks.real(name, getattr(self, name), sign))
        if self.omega > 1.0:
            raise ValueError(f"omega must be at most 1, got {self.omega!r}")

    @property
    def vacuous(self) -> bool:
        """True when any bound built from these constants is vacuous."""
        return self.beta <= 0.0 or self.omega <= 0.0


def compute_bias_constants(model: BiasModel, gamma: float, nu: float) -> BiasConstants:
    """Evaluate all three interval constants at once."""
    return BiasConstants(
        beta=flatness_beta(model, gamma),
        lipschitz=lipschitz_L(model, gamma),
        omega=omega_min_mass(model, gamma, nu),
        gamma=gamma,
        nu=nu,
    )
