"""Task-relatedness tables: categorical classes -> weighted sets of binary labels.

Two kinds of table exist. Domain-knowledge tables distinguish prototypical
entries (weight exactly 1.0) from observational entries (weight = annotator
agreement fraction). Empirical tables are inferred from a co-annotated corpus
as per-class activation frequencies.
"""

from __future__ import annotations

import json
import logging
from dataclasses import dataclass
from importlib import resources
from pathlib import Path

import numpy as np

from .errors import DataError

log = logging.getLogger(__name__)

# Canonical seven-emotion ordering used for every categorical index in the toolkit.
EMOTIONS = ("neutral", "anger", "disgust", "fear", "happiness", "sadness", "surprise")

# Canonical 17-element AU index set, ascending by AU number.
CANONICAL_AUS = (1, 2, 4, 5, 6, 7, 9, 10, 11, 12, 15, 17, 20, 23, 24, 25, 26)
AU_LABELS = tuple(f"AU{n}" for n in CANONICAL_AUS)
NUM_AUS = len(CANONICAL_AUS)

KIND_DOMAIN = "prototypical_observational"
KIND_EMPIRICAL = "empirical"


@dataclass(frozen=True)
class TableEntry:
    """One (binary label, weight) association for a class."""

    label: str
    index: int
    weight: float
    prototypical: bool


class RelatednessTable:
    """Immutable mapping from categorical classes to weighted binary labels.

    ``entries`` maps class name -> {binary label index -> (weight, prototypical)}.
    Weights lie in (0, 1]; prototypical entries always carry weight 1.0.
    """

    def __init__(self, class_names, binary_label_names, entries, kind):
        if kind not in (KIND_DOMAIN, KIND_EMPIRICAL):
            raise DataError(f"unknown table kind: {kind!r}")
        self.class_names = tuple(class_names)
        self.binary_label_names = tuple(binary_label_names)
        self.kind = kind
        checked = {}
        n_labels = len(self.binary_label_names)
        for cls, row in entries.items():
            if cls not in self.class_names:
                raise DataError(f"entry for unknown class {cls!r}")
            crow = {}
            for idx, (w, proto) in row.items():
                idx = int(idx)
                if not 0 <= idx < n_labels:
                    raise DataError(f"label index {idx} out of range for class {cls!r}")
                w = float(w)
                if not 0.0 < w <= 1.0:
                    raise DataError(f"weight {w} outside (0, 1] for class {cls!r}")
                if proto and kind == KIND_DOMAIN and w != 1.0:
                    raise DataError(f"prototypical entry must have weight 1.0 (class {cls!r})")
                crow[idx] = (w, bool(proto))
            checked[cls] = crow
        self._entries = checked

    # -- queries ---------------------------------------------------------

    def lookup(self, class_index: int) -> tuple[TableEntry, ...]:
        """Entries for one class, ordered by binary-label index. May be empty."""
        if not 0 <= class_index < len(self.class_names):
            raise DataError(f"class index {class_index} out of range")
        cls = self.class_names[class_index]
        row = self._entries.get(cls, {})
        return tuple(
            TableEntry(self.binary_label_names[i], i, w, proto)
            for i, (w, proto) in sorted(row.items())
        )

    def weight_matrix(self, reweight: bool = False) -> np.ndarray:
        """(n_classes, n_labels) matrix r with r[k, b] the mixing coefficient.

        For domain tables, r is 1 for every prototypical/observational entry
        unless ``reweight`` is set, in which case observational entries use
        their table weight. Empirical tables always use their weights.
        """
        r = np.zeros((len(self.class_names), len(self.binary_label_names)))
        use_weights = reweight or self.kind == KIND_EMPIRICAL
        for k, cls in enumerate(self.class_names):
            for i, (w, _proto) in self._entries.get(cls, {}).items():
                r[k, i] = w if use_weights else 1.0
        return r

    # -- serialization ---------------------------------------------------

    def to_dict(self) -> dict:
        return {
            "classes": list(self.class_names),
            "labels": list(self.binary_label_names),
            "entries": {
                cls: {
                    self.binary_label_names[i]: {"w": w, "proto": proto}
                    for i, (w, proto) in sorted(row.items())
                }
                for cls, row in sorted(self._entries.items())
                if row
            },
            "kind": self.kind,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, indent=2)

    @classmethod
    def from_dict(cls, d: dict) -> "RelatednessTable":
        labels = list(d["labels"])
        label_idx = {name: i for i, name in enumerate(labels)}
        entries = {}
        for cname, row in d.get("entries", {}).items():
            crow = {}
            for lname, e in row.items():
                if lname not in label_idx:
                    raise DataError(f"unknown binary label {lname!r}")
                crow[label_idx[lname]] = (e["w"], e["proto"])
            entries[cname] = crow
        return cls(d["classes"], labels, entries, d["kind"])

    def save(self, path) -> None:
        Path(path).write_text(self.to_json())

    @classmethod
    def load(cls, path) -> "RelatednessTable":
        try:
            d = json.loads(Path(path).read_text())
        except (OSError, json.JSONDecodeError) as e:
            raise DataError(f"cannot read relatedness table {path}: {e}") from e
        return cls.from_dict(d)

    def __eq__(self, other):
        if not isinstance(other, RelatednessTable):
            return NotImplemented
        return self.to_dict() == other.to_dict()

    def __repr__(self):
        return (
            f"RelatednessTable(kind={self.kind!r}, classes={len(self.class_names)}, "
            f"labels={len(self.binary_label_names)})"
        )


@dataclass
class CoAnnotatedCorpus:
    """Samples carrying both a class label and (possibly partial) binary labels.

    ``samples`` is a list of (class index, binary-label vector) pairs, with the
    vector holding 0.0, 1.0, or NaN for unannotated positions.
    """

    class_names: tuple[str, ...]
    label_names: tuple[str, ...]
    samples: list[tuple[int, np.ndarray]]


def load_domain_table(source) -> RelatednessTable:
    """Load a prototypical/observational table from its source-format JSON file.

    The source file lists, per class, the prototypical label names and the
    observational (label, weight) pairs. Classes declared but absent from the
    per-class list (e.g. neutral) get empty entries.
    """
    try:
        d = json.loads(Path(source).read_text())
    except (OSError, json.JSONDecodeError) as e:
        raise DataError(f"cannot read domain table {source}: {e}") from e
    return _domain_table_from_source(d)


def _domain_table_from_source(d: dict) -> RelatednessTable:
    classes = list(d["classes"])
    labels = list(d["labels"])
    label_idx = {name: i for i, name in enumerate(labels)}
    entries: dict[str, dict[int, tuple[float, bool]]] = {c: {} for c in classes}
    seen = set()
    for row in d["table"]:
        cls = row["class"]
        if cls not in entries:
            raise DataError(f"class {cls!r} not in the declared class list")
        if cls in seen:
            raise DataError(f"duplicate class {cls!r}")
        seen.add(cls)
        for lname in row.get("prototypical", []):
            if lname not in label_idx:
                raise DataError(f"unknown label name {lname!r}")
            entries[cls][label_idx[lname]] = (1.0, True)
        for lname, w in row.get("observational", {}).items():
            if lname not in label_idx:
                raise DataError(f"unknown label name {lname!r}")
            if not 0.0 < float(w) <= 1.0:
                raise DataError(f"weight {w} outside (0, 1] for {cls!r}/{lname}")
            entries[cls][label_idx[lname]] = (float(w), False)
    return RelatednessTable(classes, labels, entries, KIND_DOMAIN)


def domain_table() -> RelatednessTable:
    """The bundled emotion -> AU table (six basic emotions plus empty neutral)."""
    with resources.files("affectmtl.data").joinpath("emotion_au_relatedness.json").open() as f:
        return _domain_table_from_source(json.load(f))


def infer_empirical(corpus: CoAnnotatedCorpus, threshold: float = 0.1) -> RelatednessTable:
    """Infer a relatedness table from activation frequencies in a corpus.

    For each class c and binary label b the weight is the fraction of c-samples
    annotated for b in which b is active. Entries below ``threshold`` are
    dropped. Every class of the corpus keeps its index: one without annotated
    samples gets an empty row (warning).
    """
    if not corpus.samples:
        raise DataError("empty corpus")
    if not 0.0 <= threshold <= 1.0:
        raise DataError(f"threshold {threshold} outside [0, 1]")
    n_labels = len(corpus.label_names)
    active = np.zeros((len(corpus.class_names), n_labels))
    annotated = np.zeros((len(corpus.class_names), n_labels))
    for cls_idx, vec in corpus.samples:
        vec = np.asarray(vec, dtype=float)
        mask = ~np.isnan(vec)
        annotated[cls_idx] += mask
        active[cls_idx] += np.where(mask, vec, 0.0)
    if not annotated.any():
        raise DataError("no class in the corpus has annotated binary labels")
    entries: dict[str, dict[int, tuple[float, bool]]] = {}
    for k, cname in enumerate(corpus.class_names):
        if not annotated[k].any():
            log.warning("class %r has no annotated binary labels; its row is empty", cname)
        row = {}
        for b in range(n_labels):
            if annotated[k, b] == 0:
                continue
            w = active[k, b] / annotated[k, b]
            if w >= threshold and w > 0.0:
                row[b] = (float(w), False)
        entries[cname] = row
    return RelatednessTable(corpus.class_names, corpus.label_names, entries, KIND_EMPIRICAL)
