"""Task-relatedness tables: the seven emotions -> weighted sets of the 17 AUs.

Two kinds of table exist, each one (emotions, AUs) weight matrix. In a
domain-knowledge table an entry of weight exactly 1.0 is prototypical and any
other is observational (its weight is the annotator agreement fraction).
Empirical tables are inferred from the co-annotated rows of a corpus as
per-class activation frequencies.
"""

from __future__ import annotations

import json
import logging
from importlib import resources
from pathlib import Path

import numpy as np

from .errors import DataError, exact_keys, exact_type, read_json

log = logging.getLogger(__name__)

# Canonical seven-emotion ordering used for every categorical index in the toolkit.
EMOTIONS = ("neutral", "anger", "disgust", "fear", "happiness", "sadness", "surprise")

# Canonical 17-element AU index set, ascending by AU number.
CANONICAL_AUS = (1, 2, 4, 5, 6, 7, 9, 10, 11, 12, 15, 17, 20, 23, 24, 25, 26)
AU_LABELS = tuple(f"AU{n}" for n in CANONICAL_AUS)
NUM_AUS = len(CANONICAL_AUS)

KIND_DOMAIN = "prototypical_observational"
KIND_EMPIRICAL = "empirical"
# The default threshold of an inferred table: entries with a lower activation frequency are dropped
EMPIRICAL_THRESHOLD = 0.1


class RelatednessTable:
    """Immutable mapping from the emotions to weighted AUs.

    ``weights`` is a read-only (len(EMOTIONS), NUM_AUS) array: the weight, in
    (0, 1], of each (emotion, AU) entry, and 0 where an emotion has no entry
    for an AU. Row k is ``EMOTIONS[k]`` and column b is ``AU_LABELS[b]``. It is
    the mixing matrix of every coupling that reads the table. In a domain table
    an entry of weight 1.0 is prototypical and any other is observational.
    """

    def __init__(self, weights, kind):
        if kind not in (KIND_DOMAIN, KIND_EMPIRICAL):
            raise DataError(f"unknown table kind: {kind!r}")
        self.kind = kind
        self.weights = np.array(weights, dtype=float)
        shape = (len(EMOTIONS), NUM_AUS)
        if self.weights.shape != shape:
            raise DataError(f"weights must have shape {shape}")
        if not ((self.weights >= 0.0) & (self.weights <= 1.0)).all():
            raise DataError("weights outside [0, 1] (0 is no entry)")
        self.weights.flags.writeable = False

    # -- serialization ---------------------------------------------------

    def to_dict(self) -> dict:
        """The file form: each entry's weight by class and label name; empty classes left out."""
        return {
            "classes": list(EMOTIONS),
            "labels": list(AU_LABELS),
            "entries": {cls: {label: w for label, w in zip(AU_LABELS, ws) if w}
                        for cls, ws in zip(EMOTIONS, self.weights.tolist()) if any(ws)},
            "kind": self.kind,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, indent=2)

    @classmethod
    def from_dict(cls, d) -> "RelatednessTable":
        """A table from the form that :meth:`to_dict` writes.

        ``classes`` and ``labels`` must be :data:`EMOTIONS` and
        :data:`AU_LABELS` in that order, ``entries`` maps a class name to
        ``{label: weight}`` with each weight in (0, 1], and ``kind`` is
        :data:`KIND_DOMAIN` or :data:`KIND_EMPIRICAL`. A class without entries
        (neutral) has an empty row. Anything malformed is a :class:`DataError`.
        """
        exact_keys(d, ("classes", "labels", "entries", "kind"), (), "a relatedness table",
                   DataError)
        for key, names in (("classes", EMOTIONS), ("labels", AU_LABELS)):
            if d[key] != list(names):
                raise DataError(f"{key} must be {list(names)}, in that order; got {d[key]!r}")
        weights = np.zeros((len(EMOTIONS), NUM_AUS))
        for cname, row in exact_type(d["entries"], dict, "entries", DataError).items():
            k = _index(EMOTIONS, cname, "class")
            for name, w in exact_type(row, dict, f"entries of {cname!r}", DataError).items():
                weights[k, _index(AU_LABELS, name, "label")] = _weight(w)
        return cls(weights, d["kind"])

    def save(self, path) -> None:
        Path(path).write_text(self.to_json())

    @classmethod
    def load(cls, path) -> "RelatednessTable":
        """Read a table file in the form of :meth:`from_dict`."""
        return read_json(path, "relatedness table", DataError, cls.from_dict)

    def __eq__(self, other):
        if not isinstance(other, RelatednessTable):
            return NotImplemented
        return self.kind == other.kind and np.array_equal(self.weights, other.weights)

    def __repr__(self):
        return f"RelatednessTable(kind={self.kind!r})"


def _index(names: tuple, name, what: str) -> int:
    if name not in names:
        raise DataError(f"unknown {what} {name!r}")
    return names.index(name)


def _weight(w) -> float:
    """A table weight: a JSON number in (0, 1]."""
    if not 0.0 < exact_type(w, (int, float), "a weight", DataError) <= 1.0:
        raise DataError(f"weight {w!r} is not in (0, 1]")
    return w


def domain_table() -> RelatednessTable:
    """The bundled emotion -> AU table (six basic emotions plus empty neutral)."""
    return RelatednessTable.load(resources.files("affectmtl.data") / "emotion_au_relatedness.json")


def infer_empirical(expr, au, threshold: float = EMPIRICAL_THRESHOLD) -> RelatednessTable:
    """Infer an emotion -> AU table from activation frequencies in a corpus.

    ``expr`` holds one emotion index per row (-1 counts for no emotion) and
    ``au`` the row's AU labels, NaN where unannotated. For each emotion c and
    AU b the weight is the fraction of c-rows annotated for b in which b is
    active. Entries below ``threshold`` are dropped. Every emotion keeps its
    index: one without annotated rows gets an empty row (warning).
    """
    expr, au = np.asarray(expr), np.asarray(au, dtype=float)
    if not len(expr):
        raise DataError("empty corpus")
    if not 0.0 <= threshold <= 1.0:
        raise DataError(f"threshold {threshold} outside [0, 1]")
    onehot = (expr[:, None] == np.arange(len(EMOTIONS))).astype(float)
    annotated = onehot.T @ (~np.isnan(au)).astype(float)  # counts: exact in float64
    active = onehot.T @ np.nan_to_num(au, nan=0.0)
    if not annotated.any():
        raise DataError("no class in the corpus has annotated binary labels")
    weights = np.divide(active, annotated, out=np.zeros_like(active), where=annotated > 0)
    keep = (annotated > 0) & (weights >= threshold) & (weights > 0.0)
    for k in np.flatnonzero(~annotated.any(axis=1)):
        log.warning("class %r has no annotated binary labels; its row is empty", EMOTIONS[k])
    return RelatednessTable(np.where(keep, weights, 0.0), KIND_EMPIRICAL)
