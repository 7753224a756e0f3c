"""Evaluation measures for the three tasks: categorical, AU, and VA."""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .errors import DataError
from .losses import ccc

log = logging.getLogger(__name__)


@dataclass
class ConfusionMatrix:
    """K x K count matrix: rows = ground truth, columns = prediction."""

    counts: np.ndarray

    def __post_init__(self):
        self.counts = np.asarray(self.counts)
        if self.counts.ndim != 2 or self.counts.shape[0] != self.counts.shape[1]:
            raise DataError("confusion matrix must be square")
        if np.any(self.counts < 0):
            raise DataError("confusion matrix counts must be nonnegative")

    @classmethod
    def from_labels(cls, truth, pred, num_classes: int) -> "ConfusionMatrix":
        """Counts of each (truth, prediction) pair of two equally long label lists."""
        truth, pred, k = np.asarray(truth, dtype=int), np.asarray(pred, dtype=int), num_classes
        if ((np.minimum(truth, pred) < 0) | (np.maximum(truth, pred) >= k)).any():
            raise DataError(f"a class label outside 0..{k - 1}")
        return cls(np.bincount(truth * k + pred, minlength=k * k).reshape(k, k))


def _f1(precision, recall) -> np.ndarray:
    """Element-wise F1 of precision and recall arrays; 0 where both are 0."""
    both = precision + recall
    return np.divide(2 * precision * recall, both, out=np.zeros(both.shape), where=both != 0)


def classification_metrics(cm: ConfusionMatrix) -> dict:
    """Accuracy, per-class F1, macro F1, UAR, and mean row-normalized diagonal.

    Classes absent from the ground truth are excluded from UAR and mean_diag;
    the F1 zero-division convention is 0.
    """
    c = cm.counts.astype(float)
    total = c.sum()
    if total == 0:
        raise DataError("empty confusion matrix")
    k = c.shape[0]
    row = c.sum(axis=1)
    col = c.sum(axis=0)
    diag = np.diag(c)
    recalls = np.divide(diag, row, out=np.zeros(k), where=row > 0)
    precisions = np.divide(diag, col, out=np.zeros(k), where=col > 0)
    per_class_f1 = _f1(precisions, recalls)
    present = row > 0
    uar = float(recalls[present].mean())
    return {
        "accuracy": float(diag.sum() / total),
        "per_class_f1": per_class_f1.tolist(),
        "macro_f1": float(per_class_f1.mean()),
        "uar": uar,
        "mean_diag": uar,  # mean of the row-normalized diagonal == mean per-class recall
    }


def au_metrics(predictions, truth) -> dict:
    """Per-AU F1 and accuracy over annotated entries, plus their combined average.

    ``predictions`` holds probabilities (thresholded at 0.5 here) or hard labels;
    ``truth`` uses NaN for unannotated entries. AUs with no annotated entries
    are excluded from the means with a warning. ``afa`` = (mean F1 + mean acc)/2.
    """
    p = np.atleast_2d(np.asarray(predictions, dtype=float))
    t = np.atleast_2d(np.asarray(truth, dtype=float))
    if p.shape != t.shape:
        raise DataError("au_metrics: shape mismatch")
    hard = p >= 0.5
    annotated = ~np.isnan(t)
    scored = annotated.any(axis=0)
    for j in np.flatnonzero(~scored):
        log.warning("AU column %d has no annotated entries; excluded", j)
    if not scored.any():
        raise DataError("au_metrics: no annotated entries in any AU")
    k = p.shape[1]
    # a comparison with NaN is false: each count covers annotated entries alone
    pos, neg = t == 1, t == 0
    tp, fp, fn = (pos & hard).sum(axis=0), (neg & hard).sum(axis=0), (pos & ~hard).sum(axis=0)
    precision = np.divide(tp, tp + fp, out=np.zeros(k), where=tp + fp > 0)
    recall = np.divide(tp, tp + fn, out=np.zeros(k), where=tp + fn > 0)
    f1 = _f1(precision, recall)
    acc = np.divide((t == hard).sum(axis=0), annotated.sum(axis=0), out=np.zeros(k), where=scored)
    mean_f1, mean_acc = float(f1[scored].mean()), float(acc[scored].mean())
    per_f1, per_acc = (np.where(scored, a, None).tolist() for a in (f1, acc))
    return {
        "per_au_f1": per_f1,
        "mean_f1": mean_f1,
        "per_au_accuracy": per_acc,
        "mean_accuracy": mean_acc,
        "afa": (mean_f1 + mean_acc) / 2.0,
    }


def va_metrics(truth, predictions) -> dict:
    """CCC per affect dimension and their mean."""
    t = np.asarray(truth, dtype=float)
    p = np.asarray(predictions, dtype=float)
    if t.ndim != 2 or t.shape[1] != 2 or t.shape != p.shape:
        raise DataError("va_metrics expects (n, 2) arrays")
    ccc_v = ccc(t[:, 0], p[:, 0])
    ccc_a = ccc(t[:, 1], p[:, 1])
    return {"ccc_v": ccc_v, "ccc_a": ccc_a, "mean_ccc": (ccc_v + ccc_a) / 2.0}
