"""Heterogeneous samples, co-annotation, soft labels, cleaning, subsampling, CSV I/O.

A sample carries a feature vector plus any subset of the three label types:
valence/arousal, a basic-expression index, and a partially-annotated AU vector
(NaN marks unannotated AUs). All operations here are pure functions.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .errors import DataError
from .relatedness import AU_LABELS, EMOTIONS, NUM_AUS, KIND_DOMAIN, RelatednessTable

UNANNOTATED = float("nan")


@dataclass
class HeterogeneousSample:
    """One sample with optional labels per task.

    ``au`` is a float vector over the 17 canonical AUs with values in {0, 1}
    and NaN for unannotated positions. ``au_weights`` holds per-AU loss weights
    and is defined exactly where ``au`` is annotated (used for co-annotation).
    """

    id: str
    features: np.ndarray
    va: tuple[float, float] | None = None
    expr: int | None = None
    au: np.ndarray | None = None
    au_weights: np.ndarray | None = None
    sequence_key: tuple[str, int] | None = None

    def __post_init__(self):
        self.features = np.asarray(self.features, dtype=float)
        if self.va is None and self.expr is None and self.au is None:
            raise DataError(f"sample {self.id!r} carries no label")
        if self.au is not None:
            self.au = np.asarray(self.au, dtype=float)
            if self.au.shape != (NUM_AUS,):
                raise DataError(f"sample {self.id!r}: AU vector must have length {NUM_AUS}")
        if self.au_weights is not None:
            if self.au is None:
                raise DataError(f"sample {self.id!r}: au_weights without au")
            self.au_weights = np.asarray(self.au_weights, dtype=float)
            if np.any(np.isnan(self.au_weights) != np.isnan(self.au)):
                raise DataError(
                    f"sample {self.id!r}: au_weights must be defined exactly where au is annotated"
                )


@dataclass(frozen=True)
class EmotionSoftLabel:
    """Indicator scores per basic emotion and their softmax distribution."""

    indicator_scores: np.ndarray
    q: np.ndarray

    @classmethod
    def from_indicators(cls, scores) -> "EmotionSoftLabel":
        """Softmax over the last axis, so a matrix of scores gives one label per row."""
        scores = np.asarray(scores, dtype=float)
        e = np.exp(scores - scores.max(axis=-1, keepdims=True))
        return cls(indicator_scores=scores, q=e / e.sum(axis=-1, keepdims=True))


def indicator_scores(au, r, reweight_observational: bool = True) -> np.ndarray:
    """Per-emotion indicator scores for AU rows, one row of ``au`` per sample.

    ``r`` is the table's ``weight_matrix(reweight_observational)``. Per
    emotion, the indicator is the weighted fraction of its required AUs that
    are active (unannotated AUs count as 0); weights are the table weights, or
    all 1 when ``reweight_observational`` is off. Emotions with an empty
    relatedness entry get indicator 0.
    """
    w = r if reweight_observational else (r > 0).astype(float)
    need = w.sum(axis=1)
    active = np.nan_to_num(np.asarray(au, dtype=float), nan=0.0) @ w.T
    return np.divide(active, need, out=np.zeros_like(active), where=need > 0)


def co_annotate_emotion_to_aus(
    sample: HeterogeneousSample, table: RelatednessTable
) -> HeterogeneousSample:
    """Fill unannotated AUs from the sample's ground-truth expression.

    Prototypical and observational AUs of the expression are set active, with
    loss weight 1.0 (prototypical) or the table weight (observational).
    Pre-existing AU annotations are never overwritten; they keep weight 1.0.
    """
    if sample.expr is None:
        raise DataError(f"sample {sample.id!r} has no expression label")
    if table.kind != KIND_DOMAIN:
        raise DataError("co-annotation requires a prototypical/observational table")
    entries = table.lookup(sample.expr)
    if not entries:
        return sample
    au = np.full(NUM_AUS, np.nan) if sample.au is None else sample.au.copy()
    if sample.au_weights is not None:
        w = sample.au_weights.copy()
    else:
        w = np.where(np.isnan(au), np.nan, 1.0)
    for e in entries:
        if np.isnan(au[e.index]):
            au[e.index] = 1.0
            w[e.index] = e.weight
    return replace(sample, au=au, au_weights=w)


def co_annotate_aus_to_emotion(
    sample: HeterogeneousSample, table: RelatednessTable
) -> HeterogeneousSample:
    """Assign an expression when some emotion's full AU requirement is active.

    An emotion qualifies when every one of its prototypical and observational
    AUs is annotated active. Among qualifying emotions the one with the largest
    requirement wins; ties break to the lowest class index.
    """
    if sample.au is None:
        raise DataError(f"sample {sample.id!r} has no AU annotations")
    if table.kind != KIND_DOMAIN:
        raise DataError("co-annotation requires a prototypical/observational table")
    if sample.expr is not None:
        return sample
    best = None  # (requirement size, -class index) maximized
    for k in range(len(table.class_names)):
        entries = table.lookup(k)
        if not entries:
            continue
        if all(sample.au[e.index] == 1.0 for e in entries):
            key = (len(entries), -k)
            if best is None or key > best[0]:
                best = (key, k)
    if best is None:
        return sample
    return replace(sample, expr=best[1])


def soft_co_annotate(
    sample: HeterogeneousSample,
    table: RelatednessTable,
    reweight_observational: bool = True,
) -> EmotionSoftLabel:
    """Convert AU ground truth into a soft 7-way emotion distribution: the
    softmax of the :func:`indicator_scores`, over every emotion."""
    if sample.au is None:
        raise DataError(f"sample {sample.id!r} has no AU annotations")
    r = table.weight_matrix(reweight_observational)
    return EmotionSoftLabel.from_indicators(indicator_scores(sample.au, r, reweight_observational))


# Index sets for the valence/arousal consistency rules.
_NEUTRAL = EMOTIONS.index("neutral")
_NEG_VALENCE = {EMOTIONS.index(e) for e in ("sadness", "disgust", "fear")}
_ANGER = EMOTIONS.index("anger")
_HAPPY = EMOTIONS.index("happiness")

NEUTRAL_RADIUS = 0.15


def _va_consistent(expr: int, v: float, a: float) -> bool:
    if expr == _NEUTRAL:
        return math.hypot(v, a) < NEUTRAL_RADIUS
    if expr in _NEG_VALENCE:
        return v < 0
    if expr == _ANGER:
        return v < 0 and a > 0
    if expr == _HAPPY:
        return v > 0
    return True


def clean_va_expr(samples) -> tuple[list, list]:
    """Split samples into (kept, removed) by the VA/expression consistency rules.

    Only samples carrying both VA and an expression are candidates for removal:
    neutral needs VA radius < 0.15; sad/disgusted/fearful need negative
    valence; angry needs negative valence and positive arousal; happy needs
    positive valence.
    """
    kept, removed = [], []
    for s in samples:
        if s.va is not None and s.expr is not None and not _va_consistent(s.expr, *s.va):
            removed.append(s)
        else:
            kept.append(s)
    return kept, removed


def subsample_frames(samples) -> list:
    """Keep every fifth frame per video (positions 0, 5, 10, ... by frame index).

    Samples without a sequence key are kept as-is.
    """
    by_video: dict[str, list] = {}
    unkeyed = []
    order = []
    for s in samples:
        if s.sequence_key is None:
            unkeyed.append(s)
            continue
        vid = s.sequence_key[0]
        if vid not in by_video:
            by_video[vid] = []
            order.append(vid)
        by_video[vid].append(s)
    out = list(unkeyed)
    for vid in order:
        frames = sorted(by_video[vid], key=lambda s: s.sequence_key[1])
        out.extend(frames[::5])
    return out


# -- annotation CSV ------------------------------------------------------


def _fmt(x) -> str:
    return "" if x is None else repr(float(x))


def write_samples_csv(path, samples) -> None:
    """Write samples to the annotation CSV format (one row per sample)."""
    samples = list(samples)
    if not samples:
        raise DataError("no samples to write")
    dim = samples[0].features.size
    header = (
        ["id", "video_id", "frame_idx"]
        + [f"f{i}" for i in range(dim)]
        + ["valence", "arousal", "expr"]
        + [lab.lower().replace("au", "au_") for lab in AU_LABELS]
    )
    with open(path, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(header)
        for s in samples:
            vid, fidx = ("", "") if s.sequence_key is None else s.sequence_key
            row = [s.id, vid, fidx]
            row += [repr(float(x)) for x in s.features]
            row += [_fmt(s.va[0]) if s.va else "", _fmt(s.va[1]) if s.va else ""]
            row += ["" if s.expr is None else str(s.expr)]
            if s.au is None:
                row += [""] * NUM_AUS
            else:
                row += ["" if np.isnan(x) else str(int(x)) for x in s.au]
            w.writerow(row)


def read_samples_csv(path) -> list[HeterogeneousSample]:
    """Read the annotation CSV format back into samples.

    Feature values come either from ``f0..f{d-1}`` columns or, when a
    ``feature_file`` column is present, from rows of .npy files referenced as
    ``path:row`` (paths resolved relative to the CSV).
    """
    path = Path(path)
    if not path.exists():
        raise DataError(f"dataset not found: {path}")
    with open(path, newline="") as f:
        reader = csv.DictReader(f)
        if reader.fieldnames is None:
            raise DataError(f"empty dataset file: {path}")
        fcols = sorted(
            (c for c in reader.fieldnames if c.startswith("f") and c[1:].isdigit()),
            key=lambda c: int(c[1:]),
        )
        au_cols = [lab.lower().replace("au", "au_") for lab in AU_LABELS]
        use_files = "feature_file" in reader.fieldnames
        if not fcols and not use_files:
            raise DataError(f"{path}: no feature columns and no feature_file column")
        npy_cache: dict[str, np.ndarray] = {}
        samples = []
        for row in reader:
            try:
                samples.append(_parse_row(row, path, fcols, au_cols, use_files, npy_cache))
            # ValueError/TypeError: a non-numeric or missing cell; OSError/EOFError: a bad .npy
            except (DataError, ValueError, TypeError, OSError, EOFError) as e:
                raise DataError(f"{path}, line {reader.line_num}: {e}") from e
        if not samples:
            raise DataError(f"no samples in {path}")
        return samples


def _parse_row(row, path, fcols, au_cols, use_files, npy_cache) -> HeterogeneousSample:
    if use_files:
        ref = row["feature_file"] or ""  # None when the row is short
        fname, _, idx = ref.rpartition(":")
        if not fname:
            raise ValueError(f"malformed feature_file reference {ref!r}")
        fpath = str(path.parent / fname)
        if fpath not in npy_cache:
            npy_cache[fpath] = np.asarray(np.load(fpath))  # an .npz loads as 0-d
        rows, i = npy_cache[fpath], int(idx)
        if rows.ndim != 2 or not 0 <= i < len(rows):
            raise ValueError(f"{ref!r} names no row of a 2-D feature matrix")
        features = rows[i]
    else:
        features = np.array([float(row[c]) for c in fcols])
    if not np.isfinite(features).all():
        raise ValueError("non-finite feature value")
    va = None
    if row.get("valence", "") != "" and row.get("arousal", "") != "":
        va = (float(row["valence"]), float(row["arousal"]))
    expr = int(row["expr"]) if row.get("expr", "") != "" else None
    if expr is not None and not 0 <= expr < len(EMOTIONS):
        raise ValueError(f"expression index {expr} outside 0..{len(EMOTIONS) - 1}")
    au = None
    if any(row.get(c, "") != "" for c in au_cols):
        au = [float(row[c]) if row.get(c, "") != "" else np.nan for c in au_cols]
        if not all(v in (0.0, 1.0) or v != v for v in au):  # v != v: NaN, unannotated
            raise ValueError("AU labels must be 0 or 1")
    seq = None
    if row.get("video_id", "") != "" and row.get("frame_idx", "") != "":
        seq = (row["video_id"], int(row["frame_idx"]))
    return HeterogeneousSample(
        id=row["id"], features=features, va=va, expr=expr, au=au, sequence_key=seq
    )
