"""Data sets, co-annotation, SCA targets, cleaning and frame subsampling.

A sample carries a feature vector plus any subset of the three label types:
valence/arousal, a basic-expression index, and a partially-annotated AU vector
(NaN marks unannotated AUs); :func:`label_masks` says which rows carry each. A
data set, however its labels overlap, is one :class:`SampleSet`: one array per
CSV column, a missing label held as -1 or NaN. The CSV reader of
:mod:`affectmtl.csvio` and the synthetic generator make one, and every
operation here is a pure function of its columns: co-annotation rewrites them
and weighs the AUs it fills, and cleaning and frame subsampling return row
masks for :meth:`SampleSet.take`.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace

import numpy as np

from .errors import DataError
from .relatedness import EMOTIONS, KIND_DOMAIN, RelatednessTable


@dataclass(frozen=True, eq=False)  # no field-wise ==: the fields are arrays
class SampleSet:
    """A data set held column by column: row ``i`` of every field is sample ``i``.

    ``expr`` holds class indices with -1 for "none"; ``va`` (n, 2) and ``au``
    (n, 17) hold NaN where a sample carries no such label. ``video`` and
    ``compound`` (a CSV's optional compound-expression truth) hold "" and
    ``frame`` -1 where a sample has no such value. The fields are the CSV
    reader's columns and nothing more.
    """

    ids: np.ndarray
    features: np.ndarray
    expr: np.ndarray
    au: np.ndarray
    va: np.ndarray
    video: np.ndarray
    frame: np.ndarray
    compound: np.ndarray

    def __len__(self) -> int:
        return len(self.ids)

    def label_rows(self) -> tuple:
        """The indices of the rows of each of :func:`label_masks`."""
        return tuple(map(np.flatnonzero, label_masks(self.expr, self.au, self.va)))

    def take(self, rows) -> "SampleSet":
        """The rows ``rows`` (an index array, in that order, or a row mask)."""
        rows = np.asarray(rows)
        rows = rows if rows.dtype == bool else rows.astype(int)
        return SampleSet(*(getattr(self, f.name)[rows] for f in fields(self)))

    @classmethod
    def concat(cls, sets) -> "SampleSet":
        """The rows of every set in ``sets``, one set after another."""
        return cls(*(np.concatenate([getattr(s, f.name) for s in sets]) for f in fields(cls)))


def label_masks(expr, au, va) -> tuple:
    """Row masks of the rows of a set's ``expr``, ``au`` and ``va`` columns that
    carry an expression (``expr`` >= 0), at least one annotated AU, and VA."""
    return _has_expr(expr), ~np.isnan(au).all(axis=1), _has_va(va)


def _has_expr(expr):
    return expr >= 0


def _has_va(va):
    return ~np.isnan(va[:, 0])


def indicator_scores(au, r) -> np.ndarray:
    """Per-emotion indicator scores for AU rows, one row of ``au`` per sample.

    ``r`` is an (emotions, AUs) mixing matrix, used as given. Per
    emotion, the indicator is the ``r``-weighted fraction of its required AUs
    that are active (unannotated AUs count as 0). Emotions with an empty
    relatedness entry get indicator 0.
    """
    need = r.sum(axis=1)
    active = np.nan_to_num(np.asarray(au, dtype=float), nan=0.0) @ r.T
    return np.divide(active, need, out=np.zeros_like(active), where=need > 0)


def top_emotion(au, r) -> np.ndarray:
    """Each AU row's emotion of highest :func:`indicator_scores`, or -1 where another
    scores within 1e-9 of it, as in an all-zero row: rounding breaks no tie."""
    scores = indicator_scores(au, r)
    ranked = np.sort(scores, axis=1)
    return np.where(ranked[:, -1] - ranked[:, -2] > 1e-9, scores.argmax(axis=1), -1)


def co_annotate(data: SampleSet, table: RelatednessTable) -> tuple[SampleSet, np.ndarray]:
    """Both co-annotation rules over every row of ``data`` at once: returns the
    rewritten set and its AU loss weights.

    Emotion to AUs: a row with an expression gets its unannotated
    prototypical and observational AUs set active, each with its table weight
    as the loss weight (1.0 for a prototypical entry); every other AU weighs 1,
    though no loss reads an unannotated AU's weight. AUs to emotion: a row
    without an expression gets the emotion whose every prototypical and
    observational AU is annotated active; among qualifying emotions the one
    with the largest requirement wins, ties breaking to the lowest class index.
    An emotion without table entries, such as neutral in
    :func:`~affectmtl.relatedness.domain_table`, never qualifies, and a row of
    it gets no AU filled.
    """
    if table.kind != KIND_DOMAIN:
        raise DataError("co-annotation requires a prototypical/observational table")
    r, binary = table.weights, (table.weights > 0) * 1.0
    has_expr = label_masks(data.expr, data.au, data.va)[0]
    row_r = np.where(has_expr[:, None], r[data.expr], 0.0)  # expr -1 picks a row, masked here
    fill = np.isnan(data.au) & (row_r > 0)
    au = np.where(fill, 1.0, data.au)
    qualifies = indicator_scores(au, binary) == 1.0
    best = np.where(qualifies, binary.sum(axis=1), -1).argmax(axis=1)
    expr = np.where(~has_expr & qualifies.any(axis=1), best, data.expr)
    return replace(data, expr=expr, au=au), np.where(fill, row_r, 1.0)


# The sign that each emotion's valence and arousal must have, one row per
# emotion in EMOTIONS order; 0 allows either sign. The generator reads it too.
VA_SIGNS = np.array([(0, 0), (-1, 1), (-1, 0), (-1, 0), (1, 0), (-1, 0), (0, 0)])
NEUTRAL = EMOTIONS.index("neutral")  # whose VA must also lie within NEUTRAL_RADIUS
NEUTRAL_RADIUS = 0.15


def clean_va_expr(expr, va) -> np.ndarray:
    """Row mask of the rows that the VA/expression consistency rules keep.

    ``expr`` and ``va`` are a :class:`SampleSet`'s columns. Only rows carrying
    both VA and an expression can be removed: each nonzero sign of the
    expression's :data:`VA_SIGNS` row must hold (angry, disgusted, fearful and
    sad need negative valence, angry also positive arousal, happy positive
    valence), and neutral needs VA radius < 0.15.
    """
    expr, va = np.asarray(expr), np.asarray(va, dtype=float)
    signs = VA_SIGNS[expr]  # expr -1 picks a row, masked below
    ok = ((signs == 0) | (np.sign(va) == signs)).all(axis=1)
    ok &= (expr != NEUTRAL) | (np.hypot(va[:, 0], va[:, 1]) < NEUTRAL_RADIUS)
    return ok | ~(_has_expr(expr) & _has_va(va))


def frame_order(video, frame) -> tuple[np.ndarray, np.ndarray]:
    """The rows sorted by video, then by frame (equal frames keep their row
    order), and the video code of each sorted row."""
    _, code = np.unique(video, return_inverse=True)
    order = np.lexsort((frame, code))
    return order, code[order]


def subsample_frames(video, frame) -> np.ndarray:
    """Row mask keeping every fifth frame of each video: positions 0, 5, 10, ...
    in frame order. ``video`` and ``frame`` are a :class:`SampleSet`'s sequence
    keys; rows without one (video "") are kept."""
    order, code = frame_order(video, frame)
    keep = np.empty(len(order), dtype=bool)
    keep[order] = (np.arange(len(code)) - np.searchsorted(code, code)) % 5 == 0
    return keep | (np.asarray(video) == "")
