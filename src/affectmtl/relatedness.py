"""Task-relatedness tables: the seven emotions -> weighted sets of the 17 AUs.

Two kinds of table exist. Domain-knowledge tables distinguish prototypical
entries (weight exactly 1.0) from observational entries (weight = annotator
agreement fraction). Empirical tables are inferred from the co-annotated rows
of a corpus as per-class activation frequencies.
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


class RelatednessTable:
    """Immutable mapping from the emotions to weighted AUs.

    ``weights`` is a (len(EMOTIONS), NUM_AUS) array: the weight, in (0, 1], of
    each (emotion, AU) entry, and 0 where an emotion has no entry for an AU.
    Row k is ``EMOTIONS[k]`` and column b is ``AU_LABELS[b]``. It is the
    mixing matrix of every coupling that reads the table.
    ``prototypical`` marks the prototypical entries; in a domain table they
    carry weight 1.0. Both arrays are read-only.
    """

    def __init__(self, weights, prototypical, kind):
        if kind not in (KIND_DOMAIN, KIND_EMPIRICAL):
            raise DataError(f"unknown table kind: {kind!r}")
        self.kind = kind
        self.weights = np.array(weights, dtype=float)
        self.prototypical = np.array(prototypical, dtype=bool)
        shape = (len(EMOTIONS), NUM_AUS)
        if self.weights.shape != shape or self.prototypical.shape != shape:
            raise DataError(f"weights and prototypical mask must have shape {shape}")
        if not ((self.weights >= 0.0) & (self.weights <= 1.0)).all():
            raise DataError("weights outside [0, 1] (0 is no entry)")
        if (self.prototypical & (self.weights == 0.0)).any():
            raise DataError("prototypical mark on a missing entry")
        if kind == KIND_DOMAIN and (self.prototypical & (self.weights != 1.0)).any():
            raise DataError("prototypical entry must have weight 1.0")
        self.weights.flags.writeable = self.prototypical.flags.writeable = False

    # -- serialization ---------------------------------------------------

    def to_dict(self) -> dict:
        """The saved form: every entry by class and label name; empty classes are left out."""
        return {
            "classes": list(EMOTIONS),
            "labels": list(AU_LABELS),
            "entries": {
                cls: {label: {"w": w, "proto": p} for label, w, p in zip(AU_LABELS, ws, ps) if w}
                for cls, ws, ps in zip(EMOTIONS, self.weights.tolist(), self.prototypical.tolist())
                if any(ws)
            },
            "kind": self.kind,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, indent=2)

    @classmethod
    def from_dict(cls, d) -> "RelatednessTable":
        """A table from the saved form (``entries`` and ``kind``, as :meth:`to_dict`
        writes it) or the source form (``table``, as the bundled file holds it).

        Both forms list ``classes`` and ``labels``, which must be
        :data:`EMOTIONS` and :data:`AU_LABELS` in that order. A source row lists
        a class's prototypical label names and its observational (label,
        weight) pairs; a class without a row (neutral) has no entries. Anything
        malformed is a :class:`DataError`.
        """
        exact_type(d, dict, "a relatedness table", DataError)
        form = ("table",) if "table" in d else ("entries", "kind")
        exact_keys(d, ("classes", "labels", *form), (), "a relatedness table", DataError)
        for key, names in (("classes", EMOTIONS), ("labels", AU_LABELS)):
            if d[key] != list(names):
                raise DataError(f"{key} must be {list(names)}, in that order; got {d[key]!r}")
        weights = np.zeros((len(EMOTIONS), NUM_AUS))
        proto = np.zeros(weights.shape, dtype=bool)
        if "table" in d:
            for k, row in _source_rows(d["table"]):
                protos = exact_type(row.get("prototypical", []), list, "prototypical", DataError)
                obs = exact_type(row.get("observational", {}), dict, "observational", DataError)
                for name, p in [*((n, True) for n in protos), *((n, False) for n in obs)]:
                    b = _index(AU_LABELS, name, "label")
                    if weights[k, b]:  # an entry has a weight > 0
                        raise DataError(f"class {row['class']!r} names {name} more than once")
                    weights[k, b], proto[k, b] = 1.0 if p else _weight(obs[name]), p
            return cls(weights, proto, KIND_DOMAIN)
        for cname, row in exact_type(d["entries"], dict, "entries", DataError).items():
            k = _index(EMOTIONS, cname, "class")
            for name, e in exact_type(row, dict, f"entries of {cname!r}", DataError).items():
                b = _index(AU_LABELS, name, "label")
                exact_keys(e, ("w", "proto"), (), f"entry {cname!r}/{name}", DataError)
                weights[k, b] = _weight(e["w"])
                proto[k, b] = exact_type(e["proto"], bool, f"proto of {cname!r}/{name}", DataError)
        return cls(weights, proto, d["kind"])

    def save(self, path) -> None:
        Path(path).write_text(self.to_json())

    @classmethod
    def load(cls, path) -> "RelatednessTable":
        """Read a table file in either form of :meth:`from_dict`."""
        return read_json(path, "relatedness table", DataError, cls.from_dict)

    def __eq__(self, other):
        if not isinstance(other, RelatednessTable):
            return NotImplemented
        return self.to_dict() == other.to_dict()

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


def _source_rows(table):
    """(class index, row) of each row of a source-form ``table``, each class once."""
    seen = set()
    for row in exact_type(table, list, "table", DataError):
        exact_keys(row, ("class",), ("prototypical", "observational"), "a table row", DataError)
        k = _index(EMOTIONS, row["class"], "class")
        if k in seen:
            raise DataError(f"duplicate class {row['class']!r}")
        seen.add(k)
        yield k, row


def domain_table() -> RelatednessTable:
    """The bundled emotion -> AU table (six basic emotions plus empty neutral)."""
    return RelatednessTable.load(resources.files("affectmtl.data") / "emotion_au_relatedness.json")


def infer_empirical(expr, au, threshold: float = 0.1) -> RelatednessTable:
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
    return RelatednessTable(np.where(keep, weights, 0.0), np.zeros_like(keep), KIND_EMPIRICAL)
