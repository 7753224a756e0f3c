"""Synthetic heterogeneous data sets with known generative relatedness.

:func:`draw` makes one :class:`~affectmtl.labels.SampleSet` whose rows carry
every label type: the emotion is drawn from a prior, the AUs are Bernoulli
with the relatedness weights, VA is the emotion's mean plus bounded uniform
noise (so the cleaning rules always hold), and the features are a fixed
random linear map of the full label signal plus Gaussian noise.
:func:`split` then strips its rows into three disjoint sets that keep only
VA, only AU and only expression labels.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .errors import DataError
from .labels import SampleSet, clean_va_expr
from .relatedness import EMOTIONS, NUM_AUS, RelatednessTable

# Per-emotion (valence, arousal) means; signs chosen so the cleaning rules of
# clean_va_expr hold with margin for noise up to the component magnitude.
DEFAULT_VA_MEANS = {
    "neutral": (0.0, 0.0),
    "anger": (-0.6, 0.6),
    "disgust": (-0.6, 0.3),
    "fear": (-0.5, 0.6),
    "happiness": (0.6, 0.4),
    "sadness": (-0.6, -0.3),
    "surprise": (0.1, 0.7),
}

# Neutral VA stays inside the cleaning radius 0.15: per-axis cap 0.15/sqrt(2).
_NEUTRAL_CAP = 0.105


@dataclass
class GeneratorSpec:
    """Ground-truth generative configuration for one synthetic dataset."""

    relatedness: RelatednessTable
    va_means: dict = field(default_factory=lambda: dict(DEFAULT_VA_MEANS))
    feature_dim: int = 32
    noise_scale: float = 0.3
    class_prior: np.ndarray | None = None
    seed: int = 0
    feature_map: str = "random"  # "random" | "identity"
    frames_per_video: int | None = None

    def __post_init__(self):
        k = len(EMOTIONS)
        if self.class_prior is None:
            self.class_prior = np.full(k, 1.0 / k)
        self.class_prior = np.asarray(self.class_prior, dtype=float)
        if self.class_prior.size != k or np.any(self.class_prior < 0):
            raise DataError("class prior must be a nonnegative 7-vector")
        if self.class_prior.sum() <= 0:
            raise DataError("degenerate class prior")
        self.class_prior = self.class_prior / self.class_prior.sum()
        names = list(self.va_means)
        means = np.array([self.va_means[name] for name in names], dtype=float).reshape(-1, 2)
        bad = ~clean_va_expr([EMOTIONS.index(name) for name in names], means)
        if bad.any():
            raise DataError(f"va mean for {names[bad.argmax()]!r} violates the cleaning rules")
        signal_dim = k + NUM_AUS + 2
        if self.feature_map == "identity" and self.feature_dim != signal_dim:
            raise DataError(f"identity feature map needs feature_dim == {signal_dim}")
        if self.feature_map not in ("random", "identity"):
            raise DataError(f"unknown feature map {self.feature_map!r}")


def _va_noise_caps(emotion_index: int, mean_v, mean_a, noise_scale):
    """Per-axis noise bounds keeping the sample inside its cleaning region."""
    if emotion_index == EMOTIONS.index("neutral"):
        return min(noise_scale, _NEUTRAL_CAP), min(noise_scale, _NEUTRAL_CAP)
    cap_v = cap_a = noise_scale
    neg_v = {EMOTIONS.index(e) for e in ("sadness", "disgust", "fear", "anger")}
    if emotion_index in neg_v or emotion_index == EMOTIONS.index("happiness"):
        cap_v = min(noise_scale, abs(mean_v) * 0.99)
    if emotion_index == EMOTIONS.index("anger"):
        cap_a = min(noise_scale, abs(mean_a) * 0.99)
    return cap_v, cap_a


def draw(spec: GeneratorSpec, n: int) -> SampleSet:
    """``n`` samples carrying all three label types, drawn row by row from
    ``spec.seed`` (the row order of the draws fixes every generated byte)."""
    rng = np.random.default_rng(spec.seed)
    k = len(EMOTIONS)
    r = spec.relatedness.weight_matrix(reweight=True)
    if r.shape[0] != k:
        raise DataError("relatedness table must cover all 7 emotions")
    signal_dim = k + NUM_AUS + 2
    if spec.feature_map == "identity":
        w = np.eye(signal_dim)
    else:
        map_rng = np.random.default_rng(spec.seed + 104729)
        w = map_rng.normal(size=(spec.feature_dim, signal_dim)) / np.sqrt(signal_dim)
    expr = np.empty(n, dtype=int)
    au, va = np.empty((n, NUM_AUS)), np.empty((n, 2))
    features = np.empty((n, w.shape[0]))
    for i in range(n):
        emo = expr[i] = int(rng.choice(k, p=spec.class_prior))
        au[i] = rng.random(NUM_AUS) < r[emo]
        mv, ma = spec.va_means[EMOTIONS[emo]]
        cap_v, cap_a = _va_noise_caps(emo, mv, ma, spec.noise_scale)
        va[i, 0] = np.clip(mv + rng.uniform(-cap_v, cap_v), -1.0, 1.0)
        va[i, 1] = np.clip(ma + rng.uniform(-cap_a, cap_a), -1.0, 1.0)
        onehot = np.zeros(k)
        onehot[emo] = 1.0
        signal = np.concatenate([onehot, au[i], va[i]])
        # one product per row: a batched w @ signals differs in the last bit
        features[i] = w @ signal + spec.noise_scale * rng.normal(size=w.shape[0])
    fpv = spec.frames_per_video
    return SampleSet(
        ids=np.array([f"s{i:06d}" for i in range(n)], dtype=object),
        features=features, expr=expr, au=au, au_weights=np.ones_like(au), va=va,
        video=np.array([f"vid{i // fpv:05d}" if fpv else "" for i in range(n)], dtype=object),
        frame=np.arange(n) % fpv if fpv else np.full(n, -1),
        compound=np.full(n, "", dtype=object),
    )


def split(full: SampleSet, partition=(1 / 3, 1 / 3, 1 / 3)):
    """Three disjoint runs of ``full``'s rows, in order and sized by the
    ``partition`` fractions, keeping only VA, only AU and only expression labels."""
    fr = np.asarray(partition, dtype=float)
    if fr.size != 3 or np.any(fr < 0) or abs(fr.sum() - 1.0) > 1e-9:
        raise DataError("partition fractions must be 3 nonnegative values summing to 1")
    n = len(full)
    cuts = [0, int(round(n * fr[0])), int(round(n * (fr[0] + fr[1]))), n]
    no_expr = np.full_like(full.expr, -1)
    no_va, no_au = np.full_like(full.va, np.nan), np.full_like(full.au, np.nan)
    stripped = (replace(full, expr=no_expr, au=no_au, au_weights=no_au),
                replace(full, expr=no_expr, va=no_va),
                replace(full, va=no_va, au=no_au, au_weights=no_au))
    return tuple(s.take(np.arange(a, b)) for s, a, b in zip(stripped, cuts, cuts[1:]))
