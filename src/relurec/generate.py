"""Synthetic instance generators for rectified (ReLU) observation models.

Two observation models are covered:

* a matrix model ``Y = ReLU(M + b 1^T)`` where ``M = A C`` is low rank
  and each row gets its own bias drawn from a :class:`~relurec.bias.BiasModel`;
* a single-measurement-vector model ``v = ReLU(A c* + b) + e* + w`` with a
  sparse outlier vector ``e*`` and bounded dense noise ``w``.

Both generators are deterministic functions of their seed.  An instance
is saved as one ``instance.npz`` archive holding an entry per dataclass
field plus its class name, so it loads back bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np
import numpy.random  # numpy loads it on first use, which would fall in the first cell

from . import _checks as checks
from .bias import BiasModel, bias_spec_to_config

__all__ = [
    "DegenerateInstanceError",
    "GenerativeInstance",
    "RecoveryInstance",
    "generate_recovery_instance",
    "generate_representation_instance",
    "load_instance",
    "relu_map",
    "save_instance",
]


class DegenerateInstanceError(RuntimeError):
    """Raised when a generated instance carries no usable sign information."""


def relu_map(x):
    """Apply the rectifier ``max(x, 0)`` elementwise."""
    return np.maximum(x, 0.0)


@dataclass(frozen=True)
class GenerativeInstance:
    """A sampled matrix-model instance together with its ground truth."""

    A: np.ndarray
    C: np.ndarray
    b: np.ndarray
    M: np.ndarray
    Y: np.ndarray
    gamma: float
    realized_nu: float
    seed: int
    bias: str


@dataclass(frozen=True)
class RecoveryInstance:
    """A sampled vector-model instance together with its ground truth."""

    A: np.ndarray
    c_star: np.ndarray
    b: np.ndarray
    e_star: np.ndarray
    w: np.ndarray
    v: np.ndarray
    s: int
    delta: float
    seed: int
    bias: str


def generate_representation_instance(
    d: int,
    n: int,
    k: int,
    gamma: float,
    model: BiasModel,
    seed: int,
) -> GenerativeInstance:
    """Sample a rank-``k`` matrix instance of the rectified observation model.

    ``A`` (d x k) and ``C`` (k x n) have i.i.d. standard normal entries;
    the product is rescaled so that ``max |M_ij|`` equals ``gamma``
    exactly, and the same factor is folded into ``A`` so the factorisation
    is preserved.  Each row then receives a bias drawn from ``model`` and
    the observation is ``Y = ReLU(M + b 1^T)``.

    Returns
    -------
    GenerativeInstance
        Carries the realized separation ``realized_nu``: over the rows with
        both surviving and clipped entries, the smallest gap
        ``min_{on} M_ij - max_{off} M_ij``.  Downstream estimators use it
        as the default window length.

    Raises
    ------
    ValueError
        Naming a ``d``, ``n`` or ``k`` that is not an integer of at least
        1, a ``k`` above ``min(d, n)``, a ``gamma`` that is not a positive
        finite real number, a ``model`` that is not a :class:`BiasModel`,
        or a ``seed`` that is not an integer of at least 0.
    DegenerateInstanceError
        If every row is entirely on or entirely off.
    """
    d, n, k = (checks.integer(name, value, 1) for name, value in (("d", d), ("n", n), ("k", k)))
    checks.at_most("k", k, "min(d, n)", min(d, n))  # else M = A C would have rank min(d, n)
    gamma = checks.real("gamma", gamma, "positive")
    checks.law("model", model)
    seed = checks.integer("seed", seed, 0)
    rng = np.random.default_rng(seed)
    A = rng.standard_normal((d, k))
    C = rng.standard_normal((k, n))
    M = A @ C
    peak = max(M.max(), -M.min())  # max |M_ij| without forming |M|
    if peak == 0.0:
        raise DegenerateInstanceError("product A C vanished; cannot rescale")
    scale = gamma / peak
    M *= scale
    A *= scale
    b = model.sample(d, rng=rng)
    Y = M + b[:, None]
    np.maximum(Y, 0.0, out=Y)  # relu_map in place
    on = Y > 0.0  # an entry survives exactly when M_ij + b_i > 0; one-sided rows get +inf
    margins = np.min(M, axis=1, where=on, initial=np.inf) - np.max(
        M, axis=1, where=~on, initial=-np.inf
    )
    finite = margins[np.isfinite(margins)]
    if finite.size == 0:
        raise DegenerateInstanceError(
            "every row is entirely on or entirely off; no sign information"
        )
    return GenerativeInstance(
        A=A,
        C=C,
        b=b,
        M=M,
        Y=Y,
        gamma=gamma,
        realized_nu=float(finite.min()),
        seed=seed,
        bias=bias_spec_to_config(model),
    )


def generate_recovery_instance(
    d: int,
    k: int,
    s: int,
    delta: float,
    outlier_magnitude: float,
    bias: BiasModel | float,
    seed: int,
) -> RecoveryInstance:
    """Sample a vector instance ``v = ReLU(A c* + b) + e* + w``.

    ``A`` is d x k standard normal, ``c*`` is uniform on the unit sphere,
    ``e*`` places ``+/- outlier_magnitude`` on ``s`` uniformly chosen
    coordinates, and ``w`` is i.i.d. uniform on ``[-delta, delta]``.  The
    bias is either a shared constant (float) or drawn i.i.d. per
    coordinate from a :class:`BiasModel`.  ``ValueError`` names a ``d``
    or ``k`` that is not an integer of at least 1, an ``s`` that is not
    one in ``[0, d]``, a ``delta`` that is not a nonnegative finite real
    number, an ``outlier_magnitude`` or constant ``bias`` that is not a
    finite one, and a ``seed`` that is not an integer of at least 0.

    The design, outlier, noise, and bias draws come from independent
    child streams of the seed, so e.g. changing ``s`` leaves ``A`` and
    ``c*`` untouched.
    """
    d, k = checks.integer("d", d, 1), checks.integer("k", k, 1)
    s = checks.at_most("s", checks.integer("s", s, 0), "d", d)
    delta = checks.real("noise level delta", delta, "nonnegative")
    outlier_magnitude = checks.real("outlier_magnitude", outlier_magnitude)
    if not isinstance(bias, BiasModel):
        bias = checks.real("constant bias", bias)
    seed = checks.integer("seed", seed, 0)
    stream_main, stream_out, stream_noise, stream_bias = [
        np.random.default_rng(child) for child in np.random.SeedSequence(seed).spawn(4)
    ]
    A = stream_main.standard_normal((d, k))
    raw = stream_main.standard_normal(k)
    c_star = raw / np.linalg.norm(raw)

    e_star = np.zeros(d)
    if s > 0:
        support = stream_out.choice(d, size=s, replace=False)
        signs = stream_out.integers(0, 2, size=s) * 2 - 1
        e_star[support] = signs * outlier_magnitude

    w = stream_noise.uniform(-delta, delta, size=d) if delta > 0 else np.zeros(d)

    if isinstance(bias, BiasModel):
        b = bias.sample(d, rng=stream_bias)
    else:
        b = np.full(d, bias)

    v = relu_map(A @ c_star + b) + e_star + w
    return RecoveryInstance(
        A=A,
        c_star=c_star,
        b=b,
        e_star=e_star,
        w=w,
        v=v,
        s=s,
        delta=delta,
        seed=seed,
        bias=bias_spec_to_config(bias),
    )


# ----------------------------------------------------------------------
# on-disk format: one .npz archive of the dataclass fields
# ----------------------------------------------------------------------

_ARCHIVE = "instance.npz"
_KINDS = {cls.__name__: cls for cls in (GenerativeInstance, RecoveryInstance)}


def save_instance(instance: GenerativeInstance | RecoveryInstance, out_dir) -> Path:
    """Write ``instance`` to ``out_dir/instance.npz`` and return ``out_dir``.

    The archive holds one entry per dataclass field, named after it, and a
    ``type`` entry with the class name.  Arrays are stored in binary, so
    :func:`load_instance` reproduces every field bit for bit.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    entries = {f.name: getattr(instance, f.name) for f in fields(instance)}
    np.savez(out / _ARCHIVE, type=type(instance).__name__, **entries)
    return out


def load_instance(in_dir) -> GenerativeInstance | RecoveryInstance:
    """Load the ``instance.npz`` that :func:`save_instance` wrote into ``in_dir``.

    Scalar fields come back as the Python ``float``, ``int`` or ``str``
    they were saved from; array fields keep their dtype and shape.  A
    directory without the archive raises ``FileNotFoundError``; an archive
    whose ``type`` names no instance class, or that lacks a field of that
    class, raises ``ValueError``.
    """
    path = Path(in_dir) / _ARCHIVE
    with np.load(path, allow_pickle=False) as archive:
        entries = {name: archive[name] for name in archive.files}
    kind = str(entries.pop("type", "<missing>"))
    if kind not in _KINDS:
        raise ValueError(f"{path}: instance type {kind!r} is not one of {sorted(_KINDS)}")
    names = [f.name for f in fields(_KINDS[kind])]
    missing = [name for name in names if name not in entries]
    if missing:
        raise ValueError(f"{path} lacks the {kind} fields {missing}")
    values = {name: entries[name] for name in names}
    return _KINDS[kind](**{k: v.item() if v.ndim == 0 else v for k, v in values.items()})
