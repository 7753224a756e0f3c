"""Synthetic heterogeneous data sets with known generative relatedness.

:func:`draw` makes one :class:`~affectmtl.labels.SampleSet` whose rows carry
every label type: the emotion is drawn from a uniform prior, the AUs are
Bernoulli with the relatedness weights, VA is the emotion's mean plus bounded
uniform noise (so the cleaning rules always hold), and the features are a
fixed random linear map of the full label signal plus Gaussian noise.
:func:`split` then strips its rows into three disjoint sets that keep only
VA, only AU and only expression labels.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import DataError
from .labels import NEUTRAL, VA_SIGNS, SampleSet
from .relatedness import EMOTIONS, NUM_AUS, RelatednessTable

# Per-emotion (valence, arousal) means, with the signs of VA_SIGNS, so the
# cleaning rules of clean_va_expr hold for noise below each signed magnitude.
VA_MEANS = {
    "neutral": (0.0, 0.0),
    "anger": (-0.6, 0.6),
    "disgust": (-0.6, 0.3),
    "fear": (-0.5, 0.6),
    "happiness": (0.6, 0.4),
    "sadness": (-0.6, -0.3),
    "surprise": (0.1, 0.7),
}
_VA_MEAN_ROWS = np.array([VA_MEANS[e] for e in EMOTIONS])


@dataclass
class GeneratorSpec:
    """Ground-truth generative configuration for one synthetic dataset."""

    relatedness: RelatednessTable
    feature_dim: int = 32
    noise_scale: float = 0.3
    seed: int = 0
    frames_per_video: int | None = None

    def __post_init__(self):
        if self.feature_dim < 1 or self.seed < 0:
            raise DataError(f"feature_dim must be >= 1 and seed >= 0, got {self.feature_dim} "
                            f"and {self.seed}")
        if not 0.0 <= self.noise_scale < math.inf:
            raise DataError(f"noise scale must be finite and >= 0, got {self.noise_scale}")
        if self.frames_per_video is not None and self.frames_per_video < 1:
            raise DataError(f"frames per video must be >= 1, got {self.frames_per_video}")


def draw(spec: GeneratorSpec, n: int) -> SampleSet:
    """``n`` samples carrying all three label types, drawn row by row from
    ``spec.seed``.

    Each row makes two calls on one generator, in this order, and so fixes
    every generated byte: ``random(20)`` and ``normal(size=feature_dim)``.
    The 20 uniforms are the emotion's (what ``choice(7, p=prior)`` draws),
    the 17 AUs' and the valence and arousal noise's, and the normals are the
    feature noise. A ``uniform(-cap, cap)`` call is ``-cap + (cap - -cap) *
    random()``, and ``cap - -cap`` is ``2 * cap`` exactly, so the noise is that
    of one ``uniform`` call per axis. All the rest runs once over every row.
    """
    if n < 1:
        raise DataError(f"cannot draw {n} samples")
    rng = np.random.default_rng(spec.seed)
    k = len(EMOTIONS)
    signal_dim = k + NUM_AUS + 2
    map_rng = np.random.default_rng(spec.seed + 104729)
    w = map_rng.normal(size=(spec.feature_dim, signal_dim)) / np.sqrt(signal_dim)
    prior = np.full(k, 1.0 / k)
    prior = prior / prior.sum()  # the emotion draws depend on these exact bits
    cdf = prior.cumsum()  # as Generator.choice builds it for p=prior
    cdf /= cdf[-1]
    uniforms, noise = np.empty((n, 1 + NUM_AUS + 2)), np.empty((n, spec.feature_dim))
    for i in range(n):
        uniforms[i] = rng.random(1 + NUM_AUS + 2)
        noise[i] = rng.normal(size=spec.feature_dim)
    expr = cdf.searchsorted(uniforms[:, 0], side="right")
    au = (uniforms[:, 1:1 + NUM_AUS] < spec.relatedness.weights[expr]) * 1.0
    # each axis's noise bound keeps a sample inside its cleaning region
    bound = np.where(VA_SIGNS != 0, np.abs(_VA_MEAN_ROWS) * 0.99, np.inf)
    bound[NEUTRAL] = 0.105  # on both axes: below NEUTRAL_RADIUS / sqrt(2)
    cap = np.minimum(spec.noise_scale, bound)[expr]
    va = np.clip(_VA_MEAN_ROWS[expr] + (-cap + 2 * cap * uniforms[:, 1 + NUM_AUS:]), -1.0, 1.0)
    signal = np.concatenate([np.eye(k)[expr], au, va], axis=1)  # one-hot emotion, AUs, VA
    # a stacked product runs the per-row product w @ signal[i], so the bits match it
    features = np.matmul(w, signal[:, :, None])[:, :, 0] + spec.noise_scale * noise
    fpv = spec.frames_per_video
    return SampleSet(
        ids=np.array([f"s{i:06d}" for i in range(n)], dtype=object),
        features=features, expr=expr, au=au, va=va,
        video=np.array([f"vid{i // fpv:05d}" if fpv else "" for i in range(n)], dtype=object),
        frame=np.arange(n) % fpv if fpv else np.full(n, -1),
        compound=np.full(n, "", dtype=object),
    )


def partition_cuts(n: int, partition) -> list[int]:
    """Where :func:`split` cuts ``n`` rows: ``[0, end of VA, end of AU, n]``, by
    the ``partition`` fractions, checked to be three nonnegative values summing to 1."""
    fr = np.asarray(partition, dtype=float)
    if fr.size != 3 or not (fr >= 0).all() or not abs(fr.sum() - 1.0) <= 1e-9:  # NaN fails
        raise DataError("partition fractions must be 3 nonnegative values summing to 1")
    return [0, int(round(n * fr[0])), int(round(n * (fr[0] + fr[1]))), n]


def split(full: SampleSet, partition=(1 / 3, 1 / 3, 1 / 3)):
    """Three disjoint runs of ``full``'s rows, in order and sized by the
    ``partition`` fractions, keeping only VA, only AU and only expression labels."""
    cuts = partition_cuts(len(full), partition)
    no_expr = np.full_like(full.expr, -1)
    no_va, no_au = np.full_like(full.va, np.nan), np.full_like(full.au, np.nan)
    stripped = (replace(full, expr=no_expr, au=no_au),
                replace(full, expr=no_expr, va=no_va),
                replace(full, va=no_va, au=no_au))
    return tuple(s.take(np.arange(a, b)) for s, a, b in zip(stripped, cuts, cuts[1:]))
