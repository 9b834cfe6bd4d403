"""The argument checks of the public entry points, each rule written once.

Each function checks one argument, or a count against a bound that others set,
and returns it as its callers compute with it, or raises ``ValueError`` with
the message ``<name> must be <rule>, got <value>``.  An empty ``name`` leaves
the message at ``must be <rule>, got <value>``, for callers that name the
value themselves, as the config parser and the CLI flags do.  ``bool`` is no
number here: Python counts ``True`` as the integer 1, yet it is neither a
count nor a level.
"""

from __future__ import annotations

import math
import numbers

import numpy as np

# bias imports this module before it defines BiasModel, which law() looks up when called
from . import bias


def _fail(name: str, rule: str, got: str, error: type[ValueError] = ValueError):
    message = f"must be {rule}, got {got}"
    raise error(f"{name} {message}" if name else message)


def _number(value, kind, plain: type) -> bool:
    """Whether ``value`` is an instance of the ABC ``kind`` other than a ``bool``.

    An instance of ``plain`` skips the ABC's ``isinstance``, which costs about 0.4 us.
    """
    return type(value) is plain or not isinstance(value, bool) and isinstance(value, kind)


def integer(name: str, value, low: int) -> int:
    """``value`` as an ``int``, for an integer of at least ``low``."""
    if not _number(value, numbers.Integral, int) or value < low:
        _fail(name, f"an integer of at least {low}", repr(value))
    return int(value)


def real(name: str, value, sign: str = "", *, error: type[ValueError] = ValueError) -> float:
    """``value`` as a ``float``, for a finite real number that is also ``sign``.

    ``sign`` is ``""`` (any finite number), ``"positive"`` (the range
    ``(0, inf)``) or ``"nonnegative"`` (``[0, inf)``).  ``error`` is the
    ``ValueError`` subclass raised.
    """
    if not _number(value, numbers.Real, float):
        _fail(name, "a real number", repr(value), error)
    signed = {"": True, "positive": value > 0.0, "nonnegative": value >= 0.0}[sign]
    if not (signed and math.isfinite(value)):  # NaN fails both
        _fail(name, f"{sign} and finite" if sign else "finite", repr(value), error)
    return float(value)


def at_most(name: str, value, bound: str, limit, error: type[ValueError] = ValueError):
    """``value``, for a count of at most ``limit``, the value of ``bound``; raises ``error``."""
    if value > limit:
        _fail(name, f"at most {bound} = {limit}", repr(value), error)
    return value


def choice(name: str, value, options: tuple) -> str:
    """``value``, for one of ``options``."""
    if value not in options:
        _fail(name, f"one of {options}", repr(value))
    return value


def law(name: str, value):
    """``value``, for a :class:`~relurec.bias.BiasModel`; a constant offset is none."""
    if not isinstance(value, bias.BiasModel):
        _fail(name, "a bias law", repr(value))
    return value


def array(name: str, value, shape, *, finite: bool = True, nonnegative: bool = False) -> np.ndarray:
    """``value`` as a float array of ``shape`` dimensions (an int) or of shape ``shape`` (a tuple).

    A value numpy cannot convert to floats, such as one with a string entry,
    is no float array.  With ``finite``, every entry must be finite, and
    nonnegative too with ``nonnegative``; the first one that is not is named
    with its index.  The test takes the array's minimum and maximum, which
    NaN propagates through, so it allocates nothing the size of the array.
    """
    try:
        x = np.asarray(value, dtype=float)
    except (TypeError, ValueError) as exc:
        _fail(name, "a float array", f"{type(value).__name__} ({exc})")
    if isinstance(shape, int) and x.ndim != shape:
        _fail(name, f"a {shape}-D array", f"shape {x.shape}")
    if isinstance(shape, tuple) and x.shape != shape:
        _fail(name, f"an array of shape {shape}", f"shape {x.shape}")
    if finite and x.size:
        low, high = x.min(), x.max()
        if not ((low >= 0.0 if nonnegative else low > -math.inf) and high < math.inf):
            good = np.isfinite(x) & (x >= 0.0) if nonnegative else np.isfinite(x)
            index = tuple(int(i) for i in np.unravel_index(np.argmin(good), x.shape))
            rule = "finite and nonnegative" if nonnegative else "finite"
            _fail(name, rule, f"{x[index]} at index {index[0] if x.ndim == 1 else index}")
    return x
