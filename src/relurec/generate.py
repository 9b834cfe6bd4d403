"""Synthetic instance generators for rectified (ReLU) observation models.

Two observation models are covered:

* a matrix model ``Y = ReLU(M + b 1^T)`` where ``M = A C`` is low rank
  and each row gets its own bias drawn from a :class:`~relurec.bias.BiasModel`;
* a single-measurement-vector model ``v = ReLU(A c* + b) + e* + w`` with a
  sparse outlier vector ``e*`` and bounded dense noise ``w``.

Both generators are deterministic functions of their seed, and instances
round-trip through a small on-disk format (CSV matrices plus a JSON
manifest).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .bias import BiasModel, bias_spec_to_config

__all__ = [
    "DegenerateInstanceError",
    "GenerativeInstance",
    "RecoveryInstance",
    "generate_recovery_instance",
    "generate_representation_instance",
    "load_instance",
    "relu_map",
    "row_margins",
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

    @property
    def shape(self) -> tuple[int, int]:
        return self.Y.shape


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

    @property
    def shape(self) -> tuple[int, int]:
        return self.A.shape


def row_margins(M: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Per-row separation between surviving and clipped entries.

    For each row ``i`` with both positive and nonpositive pre-activations
    the margin is ``min_{on} M_ij - max_{off} M_ij``, where *on* entries
    survive the rectifier.  Rows that are entirely on or entirely off get
    ``inf`` since they impose no separation constraint.
    """
    on = M + b[:, None] > 0.0
    # an empty minimum is +inf and an empty maximum -inf, so both kinds of
    # one-sided row come out as +inf
    return np.min(M, axis=1, where=on, initial=np.inf) - np.max(
        M, axis=1, where=~on, initial=-np.inf
    )


def generate_representation_instance(
    d: int,
    n: int,
    k: int,
    gamma: float,
    model: BiasModel,
    seed: int,
    min_margin: float | None = None,
    max_retries: int = 100,
) -> GenerativeInstance:
    """Sample a rank-``k`` matrix instance of the rectified observation model.

    ``A`` (d x k) and ``C`` (k x n) have i.i.d. standard normal entries;
    the product is rescaled so that ``max |M_ij|`` equals ``gamma``
    exactly, and the same factor is folded into ``A`` so the factorisation
    is preserved.  Each row then receives a bias drawn from ``model`` and
    the observation is ``Y = ReLU(M + b 1^T)``.

    Parameters
    ----------
    min_margin : float, optional
        When given, rows whose on/off separation falls below this value
        have their bias redrawn, up to ``max_retries`` times per row.

    Returns
    -------
    GenerativeInstance
        Carries the realized separation ``realized_nu`` (the smallest
        finite row margin), which downstream estimators use as the
        default window length.

    Raises
    ------
    DegenerateInstanceError
        If every row is entirely on or entirely off, or a row margin
        cannot reach ``min_margin`` within the retry budget.
    """
    if min(d, n, k) < 1:
        raise ValueError(f"dimensions must be positive, got d={d}, n={n}, k={k}")
    if not gamma > 0:
        raise ValueError(f"gamma must be positive, got {gamma}")
    rng = np.random.default_rng(seed)
    A = rng.standard_normal((d, k))
    C = rng.standard_normal((k, n))
    M = A @ C
    peak = np.abs(M).max()
    if peak == 0.0:
        raise DegenerateInstanceError("product A C vanished; cannot rescale")
    scale = gamma / peak
    M = M * scale
    A = A * scale
    b = model.sample(d, rng=rng)

    if min_margin is not None:
        for i in range(d):
            tries = 0
            while row_margins(M[i : i + 1], b[i : i + 1])[0] < min_margin:
                if tries >= max_retries:
                    raise DegenerateInstanceError(
                        f"row {i} failed to reach margin {min_margin} "
                        f"after {max_retries} bias redraws"
                    )
                b[i] = model.sample(1, rng=rng)[0]
                tries += 1

    Y = relu_map(M + b[:, None])
    margins = row_margins(M, b)
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
        gamma=float(gamma),
        realized_nu=float(finite.min()),
        seed=int(seed),
        bias=model.to_config(),
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
    coordinate from a :class:`BiasModel`.

    The design, outlier, noise, and bias draws come from independent
    child streams of the seed, so e.g. changing ``s`` leaves ``A`` and
    ``c*`` untouched.
    """
    if not 0 <= s <= d:
        raise ValueError(f"outlier count s={s} must lie in [0, d={d}]")
    if k < 1 or d <= 0:
        raise ValueError(f"dimensions must be positive, got d={d}, k={k}")
    if delta < 0:
        raise ValueError(f"noise level delta must be nonnegative, got {delta}")
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
        e_star[support] = signs * float(outlier_magnitude)

    w = stream_noise.uniform(-delta, delta, size=d) if delta > 0 else np.zeros(d)

    if isinstance(bias, BiasModel):
        b = bias.sample(d, rng=stream_bias)
    else:
        b = np.full(d, float(bias))

    v = relu_map(A @ c_star + b) + e_star + w
    return RecoveryInstance(
        A=A,
        c_star=c_star,
        b=b,
        e_star=e_star,
        w=w,
        v=v,
        s=int(s),
        delta=float(delta),
        seed=int(seed),
        bias=bias_spec_to_config(bias),
    )


# ----------------------------------------------------------------------
# on-disk format: CSV matrices + JSON manifest
# ----------------------------------------------------------------------

_MANIFEST_KEYS = ("d", "n", "k", "s", "gamma", "nu", "delta", "seed", "bias")

_REP_FILES = {"a": "A", "c": "C", "b": "b", "m": "M", "y": "Y"}
_REC_FILES = {"a": "A", "c_star": "c_star", "b": "b", "e_star": "e_star", "w": "w", "v": "v"}


def _write_matrix(path: Path, arr: np.ndarray) -> None:
    # repr() emits the shortest decimal that round-trips the double exactly
    arr2 = np.atleast_2d(np.asarray(arr, dtype=float))
    with path.open("w", encoding="ascii", newline="\n") as fh:
        for row in arr2:
            fh.write(",".join(repr(float(v)) for v in row))
            fh.write("\n")


def _read_matrix(path: Path, as_vector: bool = False) -> np.ndarray:
    arr = np.loadtxt(path, delimiter=",", ndmin=2)
    return arr.ravel() if as_vector else arr


def save_instance(instance: GenerativeInstance | RecoveryInstance, out_dir) -> Path:
    """Persist an instance as CSV matrices with a JSON manifest.

    Matrices are stored one row per line and vectors as a single line,
    with values separated by commas.
    Values use shortest round-trip decimals so loading reproduces the
    arrays bit for bit.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    manifest = dict.fromkeys(_MANIFEST_KEYS)  # keys a task does not use stay null
    manifest.update(d=instance.A.shape[0], k=instance.A.shape[1], seed=instance.seed)
    manifest["bias"] = instance.bias
    if isinstance(instance, GenerativeInstance):
        manifest.update(n=instance.Y.shape[1], gamma=instance.gamma, nu=instance.realized_nu)
        files = {stem: getattr(instance, attr) for stem, attr in _REP_FILES.items()}
    else:
        manifest.update(s=instance.s, delta=instance.delta)
        files = {stem: getattr(instance, attr) for stem, attr in _REC_FILES.items()}
    for stem, arr in files.items():
        _write_matrix(out / f"{stem}.csv", arr)
    with (out / "instance.json").open("w", encoding="ascii") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return out


def load_instance(in_dir) -> GenerativeInstance | RecoveryInstance:
    """Load an instance directory written by :func:`save_instance`."""
    src = Path(in_dir)
    with (src / "instance.json").open(encoding="ascii") as fh:
        manifest = json.load(fh)
    missing = [key for key in _MANIFEST_KEYS if key not in manifest]
    if missing:
        raise ValueError(f"manifest {src / 'instance.json'} is missing keys {missing}")
    if (src / "y.csv").exists():
        return GenerativeInstance(
            A=_read_matrix(src / "a.csv"),
            C=_read_matrix(src / "c.csv"),
            b=_read_matrix(src / "b.csv", as_vector=True),
            M=_read_matrix(src / "m.csv"),
            Y=_read_matrix(src / "y.csv"),
            gamma=float(manifest["gamma"]),
            realized_nu=float(manifest["nu"]),
            seed=int(manifest["seed"]),
            bias=manifest["bias"],
        )
    if (src / "v.csv").exists():
        return RecoveryInstance(
            A=_read_matrix(src / "a.csv"),
            c_star=_read_matrix(src / "c_star.csv", as_vector=True),
            b=_read_matrix(src / "b.csv", as_vector=True),
            e_star=_read_matrix(src / "e_star.csv", as_vector=True),
            w=_read_matrix(src / "w.csv", as_vector=True),
            v=_read_matrix(src / "v.csv", as_vector=True),
            s=int(manifest["s"]),
            delta=float(manifest["delta"]),
            seed=int(manifest["seed"]),
            bias=manifest["bias"],
        )
    raise FileNotFoundError(f"{src} contains neither y.csv nor v.csv")

