"""Data sets, co-annotation, soft labels, cleaning, subsampling and CSV I/O.

A sample carries a feature vector plus any subset of the three label types:
valence/arousal, a basic-expression index, and a partially-annotated AU vector
(NaN marks unannotated AUs). A data set, however its labels overlap, is one
:class:`SampleSet`: one array per field, a missing label held as -1 or NaN.
The CSV reader and the synthetic generator make one, the CSV writer takes
one, and every operation here works on its columns: co-annotation rewrites
them, and cleaning and frame subsampling return row masks for
:meth:`SampleSet.take`. All operations are pure functions.
"""

from __future__ import annotations

import csv
import itertools
import operator
from dataclasses import dataclass, fields, replace
from pathlib import Path
from types import SimpleNamespace

import numpy as np

from .errors import DataError
from .relatedness import AU_LABELS, EMOTIONS, NUM_AUS, KIND_DOMAIN, RelatednessTable

AU_COLUMNS = tuple(lab.lower().replace("au", "au_") for lab in AU_LABELS)


@dataclass(frozen=True, eq=False)  # no field-wise ==: the fields are arrays
class SampleSet:
    """A data set held column by column: row ``i`` of every field is sample ``i``.

    ``expr`` holds class indices with -1 for "none"; ``va`` (n, 2) and ``au``
    (n, 17) hold NaN where a sample carries no such label, and ``au_weights``
    holds the per-AU loss weights, NaN exactly where ``au`` is. ``video`` and
    ``compound`` (a CSV's optional compound-expression truth) hold "" and
    ``frame`` -1 where a sample has no such value.
    """

    ids: np.ndarray
    features: np.ndarray
    expr: np.ndarray
    au: np.ndarray
    au_weights: np.ndarray
    va: np.ndarray
    video: np.ndarray
    frame: np.ndarray
    compound: np.ndarray

    def __len__(self) -> int:
        return len(self.ids)

    @property
    def expr_rows(self) -> np.ndarray:
        """Indices of the rows that carry an expression label."""
        return np.flatnonzero(self.expr >= 0)

    @property
    def au_rows(self) -> np.ndarray:
        """Indices of the rows with at least one annotated AU."""
        return np.flatnonzero(~np.isnan(self.au).all(axis=1))

    @property
    def va_rows(self) -> np.ndarray:
        """Indices of the rows that carry a valence/arousal label."""
        return np.flatnonzero(~np.isnan(self.va[:, 0]))

    def take(self, rows) -> "SampleSet":
        """The rows ``rows`` (an index array, in that order, or a row mask)."""
        rows = np.asarray(rows)
        rows = rows if rows.dtype == bool else rows.astype(int)
        return SampleSet(*(getattr(self, f.name)[rows] for f in fields(self)))

    @classmethod
    def concat(cls, sets) -> "SampleSet":
        """The rows of every set in ``sets``, one set after another."""
        return cls(*(np.concatenate([getattr(s, f.name) for s in sets]) for f in fields(cls)))


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


def co_annotate(data: SampleSet, table: RelatednessTable) -> SampleSet:
    """Both co-annotation rules over every row of ``data`` at once.

    Emotion to AUs: a row with an expression gets its unannotated
    prototypical and observational AUs set active, with loss weight 1.0
    (prototypical) or the table weight (observational); annotated AUs keep
    their label and weight. AUs to emotion: a row without an expression gets
    the emotion whose every prototypical and observational AU is annotated
    active; among qualifying emotions the one with the largest requirement
    wins, ties breaking to the lowest class index.
    """
    if table.kind != KIND_DOMAIN:
        raise DataError("co-annotation requires a prototypical/observational table")
    r = table.weight_matrix(reweight=True)
    has_expr = data.expr >= 0
    row_r = np.where(has_expr[:, None], r[data.expr], 0.0)  # expr -1 picks a row, masked here
    fill = np.isnan(data.au) & (row_r > 0)
    au = np.where(fill, 1.0, data.au)
    au_weights = np.where(fill, row_r, data.au_weights)
    need = (r > 0).astype(float)
    size = need.sum(axis=1)
    qualifies = ((au == 1.0) @ need.T == size) & (size > 0)
    best = np.where(qualifies, size, -1).argmax(axis=1)
    expr = np.where(~has_expr & qualifies.any(axis=1), best, data.expr)
    return replace(data, expr=expr, au=au, au_weights=au_weights)


# Emotion indices for the valence/arousal consistency rules.
_NEUTRAL, _ANGER, _HAPPY = (EMOTIONS.index(e) for e in ("neutral", "anger", "happiness"))
_NEG_VALENCE = [EMOTIONS.index(e) for e in ("anger", "disgust", "fear", "sadness")]

NEUTRAL_RADIUS = 0.15


def clean_va_expr(expr, va) -> np.ndarray:
    """Row mask of the rows that the VA/expression consistency rules keep.

    ``expr`` and ``va`` are a :class:`SampleSet`'s columns. Only rows carrying
    both VA and an expression can be removed: neutral needs VA radius < 0.15;
    angry, disgusted, fearful and sad need negative valence; angry also needs
    positive arousal; happy needs positive valence.
    """
    expr, (v, a) = np.asarray(expr), np.asarray(va, dtype=float).T
    ok = (expr != _NEUTRAL) | (np.hypot(v, a) < NEUTRAL_RADIUS)
    ok &= ~np.isin(expr, _NEG_VALENCE) | (v < 0)
    ok &= ((expr != _ANGER) | (a > 0)) & ((expr != _HAPPY) | (v > 0))
    return ok | (expr < 0) | np.isnan(v)


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


# -- annotation CSV ------------------------------------------------------


def text_cells(values) -> np.ndarray:
    """Each of ``values`` as ``csv.writer`` writes it in a row of cells; each is quoted once."""
    distinct, rows = dict.fromkeys(values), []
    csv.writer(SimpleNamespace(write=rows.append)).writerows(("", v) for v in distinct)
    cell = dict(zip(distinct, (row[1:-2] for row in rows)))  # each row is ",<cell>\r\n"
    return np.array(list(map(cell.__getitem__, values)), dtype=object)


def write_csv_columns(path, header, columns) -> None:
    """Write ``header`` and the rows of ``columns`` as ``csv.writer`` would. Each
    column is an array: of floats, written as their ``repr``, or of finished cells."""
    with open(path, "w", newline="") as f:
        f.write(",".join(text_cells(header)) + "\r\n")
        for i in range(0, len(columns[0]), _BLOCK_ROWS):
            block = [(c[i : i + _BLOCK_ROWS].tolist(), c.dtype.kind == "f") for c in columns]
            block = [list(map(repr, cells)) if floats else cells for cells, floats in block]
            f.write("\r\n".join(map(",".join, zip(*block))) + "\r\n")


def write_samples_csv(path, data: SampleSet) -> None:
    """Write a :class:`SampleSet` in the annotation CSV format, one row per
    sample; a missing label or sequence key is an empty cell."""
    if not len(data):
        raise DataError("no samples to write")
    if not (np.isnan(data.au) | (data.au == 0.0) | (data.au == 1.0)).all():
        raise DataError("AU labels must be 0 or 1")
    header = ["id", "video_id", "frame_idx", *(f"f{i}" for i in range(data.features.shape[1])),
              "valence", "arousal", "expr", *AU_COLUMNS]
    va = np.array(list(map(repr, data.va.ravel().tolist())), dtype=object).reshape(-1, 2)
    columns = [
        text_cells(data.ids), text_cells(data.video),
        np.where(data.frame < 0, "", data.frame.astype(str)),
        *data.features.T,
        *np.where(np.isnan(data.va), "", va).T,
        np.where(data.expr < 0, "", data.expr.astype(str)),
        *np.array(["0", "1", ""], dtype=object)[np.nan_to_num(data.au, nan=2).astype(int)].T,
    ]
    write_csv_columns(path, header, columns)


def read_samples_csv(path) -> SampleSet:
    """Read the annotation CSV format into a :class:`SampleSet`.

    Feature values come either from ``f0..f{d-1}`` columns or, when a
    ``feature_file`` column is present, from rows of .npy files referenced as
    ``path:row`` (paths resolved relative to the CSV). Every malformed row is
    a :class:`DataError` naming the file and its line.
    """
    path = Path(path)
    if not path.exists():
        raise DataError(f"dataset not found: {path}")
    try:
        with open(path, newline="") as f:
            reader = csv.reader(f)
            try:
                return _read_rows(reader, path)
            except csv.Error as e:
                raise DataError(f"{path}, line {reader.line_num}: {e}") from e
    except _RowError as e:
        raise DataError(f"{path}, line {_line_of(path, e.row)}: {e.error}") from e.error
    except (OSError, UnicodeDecodeError) as e:
        raise DataError(f"cannot read dataset {path}: {e}") from e


# Rows converted at a time: bounds the cell text held while a file is read or written.
_BLOCK_ROWS = 256
# Label columns as the converter lays them out; the VA and AU columns are floats.
_LABEL_COLUMNS = ("valence", "arousal", *AU_COLUMNS, "expr", "video_id", "frame_idx", "compound")
_FLOATS = 2 + NUM_AUS
_EXPR, _VIDEO, _FRAME = (_LABEL_COLUMNS.index(c) for c in ("expr", "video_id", "frame_idx"))
# What converting a malformed cell or .npy reference raises.
_CELL_ERRORS = (DataError, ValueError, TypeError, OverflowError, OSError, EOFError)


class _RowError(Exception):
    """Data row ``row`` (0-based, blank lines skipped) failed with ``error``."""

    def __init__(self, row: int, error: Exception):
        super().__init__(row, error)
        self.row, self.error = row, error


def _read_rows(reader, path) -> SampleSet:
    header = next(reader, None)
    if header is None:
        raise DataError(f"empty dataset file: {path}")
    layout = _Layout(header, path)
    blocks, done = [], 0
    while chunk := list(itertools.islice(reader, _BLOCK_ROWS)):
        rows = [r for r in chunk if r]  # a blank line holds no row
        if rows:
            blocks.append(layout.convert_block(rows, done))
            done += len(rows)
    if not blocks:
        raise DataError(f"no samples in {path}")
    return layout.assemble(blocks)


def _line_of(path, row: int) -> int:
    """The file line on which data row ``row`` ends."""
    with open(path, newline="") as f:
        reader = csv.reader(f)
        next(reader)
        next(itertools.islice((r for r in reader if r), row, None))
        return reader.line_num


class _Layout:
    """Where one CSV header keeps each column, and the conversion of row blocks."""

    def __init__(self, header, path: Path):
        col = {name: i for i, name in enumerate(header)}
        if "id" not in col:
            raise DataError(f"{path}: no id column")
        fcols = sorted((c for c in col if c[:1] == "f" and c[1:].isdigit()),
                       key=lambda c: int(c[1:]))
        self.use_files = "feature_file" in col
        if not fcols and not self.use_files:
            raise DataError(f"{path}: no feature columns and no feature_file column")
        feature_idx = [col["feature_file"]] if self.use_files else [col[c] for c in fcols]
        present = [c for c in _LABEL_COLUMNS if c in col]
        self.path = path
        self.id = operator.itemgetter(col["id"])
        self.features = operator.itemgetter(*feature_idx)
        self.label_pos = [_LABEL_COLUMNS.index(c) for c in present]
        self.labels = operator.itemgetter(*(col[c] for c in present)) if present else None
        self.width = 1 + max(col["id"], *feature_idx, *(col[c] for c in present))
        self.npy: dict[str, np.ndarray] = {}  # feature_file name -> its matrix
        self.finite: dict[str, np.ndarray] = {}  # and which of its rows are finite

    def convert_block(self, rows, start: int) -> dict:
        """Arrays for ``rows``; a bad row raises :class:`_RowError` for the
        earliest one, numbered from ``start``."""
        try:
            return self._convert(rows)
        except _CELL_ERRORS:
            for i in range(len(rows)):  # find the row, and the first check it fails
                try:
                    self._convert(rows[i : i + 1])
                except _CELL_ERRORS as e:
                    raise _RowError(start + i, e) from e
            raise

    def _convert(self, rows) -> dict:
        n = len(rows)
        short = min(map(len, rows))
        if short < self.width:
            raise DataError(f"row has {short} cells where the header needs {self.width}")
        if self.use_files:
            features = self._references(list(map(self.features, rows)))
        else:
            features = np.array(list(map(self.features, rows)), dtype=float).reshape(n, -1)
            if not np.isfinite(features).all():
                raise ValueError("non-finite feature value")
        cells = np.full((n, len(_LABEL_COLUMNS)), "", dtype=object)
        if self.labels is not None:
            cells[:, self.label_pos] = np.array(
                list(map(self.labels, rows)), dtype=object).reshape(n, -1)
        filled = cells != ""  # only filled cells are converted
        va_au = np.full((n, _FLOATS), np.nan)
        va_au[filled[:, :_FLOATS]] = cells[:, :_FLOATS][filled[:, :_FLOATS]].astype(float)
        va, au = va_au[:, :2], va_au[:, 2:]
        if (filled[:, 0] != filled[:, 1]).any():
            raise ValueError("valence and arousal must both be filled or both be empty")
        if not np.isfinite(va[filled[:, 0]]).all():
            raise ValueError("non-finite valence or arousal value")
        expr = np.full(n, -1)
        expr[filled[:, _EXPR]] = cells[filled[:, _EXPR], _EXPR].astype(np.int64)
        bad = filled[:, _EXPR] & ((expr < 0) | (expr >= len(EMOTIONS)))
        if bad.any():
            raise ValueError(f"expression index {expr[bad][0]} outside 0..{len(EMOTIONS) - 1}")
        if not (np.isnan(au) | (au == 0.0) | (au == 1.0)).all():
            raise ValueError("AU labels must be 0 or 1")
        keyed = filled[:, _VIDEO] & filled[:, _FRAME]
        frame = np.full(n, -1)
        frame[keyed] = cells[keyed, _FRAME].astype(np.int64)
        ids = np.array(list(map(self.id, rows)), dtype=object)
        unlabelled = np.isnan(va[:, 0]) & (expr < 0) & np.isnan(au).all(axis=1)
        if unlabelled.any():
            raise DataError(f"sample {ids[unlabelled.argmax()]!r} carries no label")
        return {"ids": ids, "features": features, "expr": expr, "au": au, "va": va, "frame": frame,
                "video": np.where(keyed, cells[:, _VIDEO], ""), "compound": cells[:, -1]}

    def _references(self, refs) -> tuple:
        """Check ``path:row`` references; returns their (file names, rows)."""
        names, rows = [], []
        for ref in refs:
            name, _, row = ref.rpartition(":")
            if not name:
                raise ValueError(f"malformed feature_file reference {ref!r}")
            names.append(name)
            rows.append(int(row))
        names, rows = np.array(names, dtype=object), np.array(rows)
        for name in dict.fromkeys(names):
            m = self._matrix(name)
            picked = rows[names == name]
            if ((picked < 0) | (picked >= len(m))).any():
                raise ValueError(f"{name!r} has no row {picked.max()} (or a negative one)")
            if not self.finite[name][picked].all():
                raise ValueError("non-finite feature value")
        return names, rows

    def _matrix(self, name: str) -> np.ndarray:
        if name not in self.npy:
            m = np.load(self.path.parent / name)  # an .npz loads as an NpzFile
            if not isinstance(m, np.ndarray) or m.ndim != 2 or not len(m):
                raise ValueError(f"{name!r} holds no 2-D feature matrix")
            m = m.astype(float, copy=False)
            widths = {x.shape[1] for x in self.npy.values()}
            if widths and m.shape[1] not in widths:
                raise ValueError(f"{name!r} has {m.shape[1]} features, earlier rows {widths.pop()}")
            self.npy[name], self.finite[name] = m, np.isfinite(m).all(axis=1)
        return self.npy[name]

    def assemble(self, blocks) -> SampleSet:
        """One :class:`SampleSet` from the converted blocks, in file order."""
        parts = [b.pop("features") for b in blocks]
        col = {key: np.concatenate([b[key] for b in blocks]) for key in blocks[0]}
        if self.use_files:  # gather each matrix's rows once
            names, rows = (np.concatenate(x) for x in zip(*parts))
            features = np.empty((len(rows), next(iter(self.npy.values())).shape[1]))
            for name, m in self.npy.items():
                picked = names == name
                features[picked] = m[rows[picked]]
        else:
            features = np.concatenate(parts)
        return SampleSet(features=features, au_weights=np.where(np.isnan(col["au"]), np.nan, 1.0),
                         **col)
