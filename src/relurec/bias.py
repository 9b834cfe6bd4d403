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
"""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass

import numpy as np

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
_NORMAL_INV_CDF = statistics.NormalDist().inv_cdf


def _normal_quantile(p: float) -> float:
    """Standard-normal quantile: -inf at 0, inf at 1, NaN outside ``[0, 1]``."""
    if 0.0 < p < 1.0:
        return _NORMAL_INV_CDF(p)
    return -math.inf if p == 0.0 else math.inf if p == 1.0 else math.nan


_NORMAL_QUANTILE = np.frompyfunc(_normal_quantile, 1, 1)

# config-string tags and their parameter names, in storage order
_CONFIG_SCHEMA = {
    "exp": ("shifted_exponential", ("rate", "shift")),
    "gauss": ("gaussian", ("mean", "std")),
    "logistic": ("logistic", ("loc", "scale")),
}
_PARAM_NAMES = dict(_CONFIG_SCHEMA.values())


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
    """

    kind: str
    params: tuple[float, float]

    def __post_init__(self) -> None:
        if self.kind not in _PARAM_NAMES:
            raise ValueError(f"unknown bias kind {self.kind!r}")
        for name, value in zip(_PARAM_NAMES[self.kind], self.params):
            if not math.isfinite(value):
                raise ValueError(f"{self.kind} parameter {name} must be finite, got {value!r}")
        spread = self.params[0] if self.kind == "shifted_exponential" else self.params[1]
        if not spread > 0:
            raise ValueError(f"scale parameter must be positive, got {spread!r}")

    # ------------------------------------------------------------------
    # constructors
    # ------------------------------------------------------------------

    @classmethod
    def shifted_exponential(cls, rate: float = 1.0, shift: float = 0.0) -> "BiasModel":
        """Exponential law with rate ``rate`` supported on ``[shift, inf)``."""
        return cls("shifted_exponential", (float(rate), float(shift)))

    @classmethod
    def gaussian(cls, mean: float = 0.0, std: float = 1.0) -> "BiasModel":
        return cls("gaussian", (float(mean), float(std)))

    @classmethod
    def logistic(cls, loc: float = 0.0, scale: float = 1.0) -> "BiasModel":
        return cls("logistic", (float(loc), float(scale)))

    @classmethod
    def from_config(cls, text: str) -> "BiasModel":
        """Parse a config string such as ``"exp:rate=1,shift=-2"``.

        The grammar is ``tag:key=value,key=value`` with tags ``exp``
        (keys ``rate``, ``shift``), ``gauss`` (``mean``, ``std``) and
        ``logistic`` (``loc``, ``scale``).  Both keys are required; order
        does not matter.
        """
        head, sep, body = text.strip().partition(":")
        if not sep:
            raise ValueError(f"bias config {text!r} is missing the ':' separator")
        if head not in _CONFIG_SCHEMA:
            raise ValueError(
                f"unknown bias tag {head!r}; expected one of {sorted(_CONFIG_SCHEMA)}"
            )
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
        return cls(kind, (values[keys[0]], values[keys[1]]))

    def to_config(self) -> str:
        """Inverse of :meth:`from_config`; values round-trip exactly."""
        for tag, (kind, keys) in _CONFIG_SCHEMA.items():
            if kind == self.kind:
                return f"{tag}:{keys[0]}={self.params[0]!r},{keys[1]}={self.params[1]!r}"
        raise AssertionError(f"unreachable kind {self.kind!r}")

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
    if not 0.0 < gamma < math.inf:
        raise ValueError(f"gamma must be positive and finite, got {gamma}")
    return BiasModel.shifted_exponential(rate=1.0, shift=-float(gamma) - 1.0)


# ----------------------------------------------------------------------
# config strings covering both random and constant bias specifications
# ----------------------------------------------------------------------


def parse_bias_spec(text: str) -> BiasModel | float:
    """Parse a bias configuration that may be a distribution or a constant.

    ``"const:value=0.5"`` yields the float ``0.5``; anything else is
    delegated to :meth:`BiasModel.from_config`.
    """
    stripped = text.strip()
    if stripped.startswith("const:"):
        key, eq, raw = stripped[len("const:"):].partition("=")
        if key.strip() != "value" or not eq:
            raise ValueError(f"constant bias config {text!r} must be 'const:value=<real>'")
        value = float(raw)
        if not math.isfinite(value):
            raise ValueError(f"constant bias value must be finite, got {raw.strip()!r}")
        return value
    return BiasModel.from_config(stripped)


def bias_spec_to_config(spec: BiasModel | float) -> str:
    if isinstance(spec, BiasModel):
        return spec.to_config()
    return f"const:value={float(spec)!r}"


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
    if not 0.0 < gamma < math.inf:
        raise InvalidIntervalError(f"gamma must be positive and finite, got {gamma}")
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
    if not 0.0 < gamma < math.inf:
        raise InvalidIntervalError(f"gamma must be positive and finite, got {gamma}")
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
    if not 0.0 < gamma < math.inf:
        raise InvalidIntervalError(f"gamma must be positive and finite, got {gamma}")
    if not 0.0 < nu <= 2.0 * gamma:  # gamma is finite, so nu is too
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
        if self.beta < 0.0:
            raise ValueError(f"flatness constant must be nonnegative, got {self.beta}")
        if not self.lipschitz > 0.0:
            raise ValueError(f"Lipschitz constant must be positive, got {self.lipschitz}")
        if not 0.0 <= self.omega <= 1.0:
            raise ValueError(f"window mass must lie in [0, 1], got {self.omega}")

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
        gamma=float(gamma),
        nu=float(nu),
    )
