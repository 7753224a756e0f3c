"""The annotation CSV format: how a :class:`~affectmtl.labels.SampleSet` is
written to a CSV file and read back from one.

:func:`write_samples_csv` writes one row per sample and :func:`read_samples_csv`
reads the format back, its features from ``f`` columns or from rows of .npy
files; a malformed file is a :class:`DataError` naming its line. Both keep each
file's parsed columns in a hidden sibling file, keyed by the CSV bytes and the
source of this module alone, so that a read of the same bytes skips the parse.
The sibling of a ``feature_file`` CSV keeps its references, not its features:
every read gathers those from the .npy files as they are then.
:func:`float_cells`, :func:`text_cells` and :func:`write_csv_columns` write the
cells of this format and of ``zero-shot``'s scores; ``losses.csv``, one row per
training step, is written by :mod:`csv` alone.
"""

from __future__ import annotations

import codecs
import contextlib
import csv
import hashlib
import io
import itertools
import locale
import math
import operator
import re
import os
import stat
import tempfile
import zipfile
from pathlib import Path
from types import SimpleNamespace
from typing import NamedTuple

import numpy as np

from .errors import DataError
from .labels import SampleSet
from .relatedness import AU_LABELS, EMOTIONS, NUM_AUS

AU_COLUMNS = tuple(lab.lower().replace("au", "au_") for lab in AU_LABELS)


def text_cells(values) -> list:
    """Each of ``values`` as ``csv.writer`` writes it in a row of cells: a value with
    none of ``,"\\r\\n`` is its own cell, and ``csv.writer`` quotes each other distinct
    value once (and the empty one, and one with a NUL, which it refuses before 3.11)."""
    cells, rows = dict.fromkeys(values), []  # None: the value is its own cell
    quoted = [v for v in cells if not v or _QUOTE_CHARS(v)]
    csv.writer(SimpleNamespace(write=rows.append)).writerows(("", v) for v in quoted)
    cells.update(zip(quoted, (row[1:-2] for row in rows)))  # each row is ",<cell>\r\n"
    return [cells[v] or v for v in values]


_QUOTE_CHARS = re.compile('[,"\r\n\0]').search


def write_csv_columns(path, header, columns) -> None:
    """Write ``header`` and the rows of ``columns`` as ``csv.writer`` writes them to
    ``open(path, "w", newline="")``. A column gives each row k >= 1 cells: floats,
    (n,) or (n, k), written as their ``repr``; their :func:`float_cells`, a cell of
    NULs written empty; or (values, codes), text values and each row's index of its
    value, (n,) or (n, k). Each text value is quoted and encoded once, with the
    codec of ``open``. Each block of rows is laid out in one byte grid, a slot of
    fixed width per cell, padded with the first byte that no cell or separator
    holds, and written with that byte dropped. (If every byte is held, it is laid
    out padded with 0 and with 1, and the bytes where the two differ are dropped.)
    """
    codec = locale.getpreferredencoding(False)
    texts = [[t.encode(codec) for t in text_cells(c[0])] if isinstance(c, tuple) else None
             for c in columns]
    # the bytes of the separators and of any float cell, and those of the text
    held = set(b",\r\n+-.0123456789aefin").union(*itertools.chain(*filter(None, texts)))
    pads = [b for b in range(256) if b not in held][:1] or [0, 1]
    n = len(columns[0][1] if isinstance(columns[0], tuple) else columns[0])
    sources = []  # each column's cells: (n, k) floats or (n, k, 24) float cells, or (n, k)
    for c, t in zip(columns, texts):  # text codes and, per padding byte, the padded values
        if t is None:
            cells = c.reshape(n, -1, 24) if c.dtype == np.uint8 else c.reshape(n, -1)
            sources.append((cells, None))
        else:
            sources.append((np.asarray(c[1], dtype=np.intp).reshape(n, -1),
                            [_padded(t, pad) for pad in pads]))
    widths = [s.shape[1] * (1 + (24 if t is None else t[0].shape[1])) for s, t in sources]
    block = max(1, min(n, _FORMAT_VALUES, _GRID_BYTES // sum(widths)))
    grids = np.full((len(pads), block, sum(widths) + 1), ord(","), dtype="u1")  # one per padding
    grids[..., -2:] = np.frombuffer(b"\r\n", dtype="u1")
    with open(path, "wb") as f:
        f.write((",".join(text_cells(header)) + "\r\n").encode(codec))
        for i in range(0, n, block):
            m = min(block, n - i)
            for g, (grid, pad) in enumerate(zip(grids[:, :m], pads)):
                ends = itertools.accumulate(widths)
                for (source, tables), end, width in zip(sources, ends, widths):
                    part = source[i : i + m]
                    slot = grid[:, end - width : end].reshape(m, part.shape[1], -1)[..., :-1]
                    if tables is not None:
                        slot[...] = tables[g][part]
                    else:
                        slot[...] = part if part.dtype == np.uint8 else float_cells(part)
                        if pad:
                            slot[slot == 0] = pad
            first, last = grids[0, :m], grids[-1, :m]
            f.write(first.tobytes().translate(None, bytes(pads)) if len(pads) == 1
                    else first[first == last].tobytes())


def _padded(cells, pad: int) -> np.ndarray:
    """The byte strings ``cells`` as the rows of a matrix, each padded with ``pad``
    to the longest."""
    lengths = np.fromiter(map(len, cells), dtype=np.intp, count=len(cells))
    table = np.full((len(cells), lengths.max(initial=0)), pad, dtype="u1")
    filled = np.arange(table.shape[1]) < lengths[:, None]
    table[filled] = np.frombuffer(b"".join(cells), dtype="u1")
    return table


def float_cells(values) -> np.ndarray:
    """The ``repr`` of each value of the float array ``values``: uint8 cells of
    shape ``values.shape + (24,)``, each its text's bytes with NULs among and
    after them.

    Each value with 1e-4 <= |x| < 10, where ``repr`` writes fixed notation with
    one digit before the point, is formatted by exact uint64 arithmetic, in the
    line of Ryū (Adams, PLDI 2018): |x| = m * 2**e, and its rounding interval
    (the reals that read back as x) is scaled by 10**s, s = 16 - floor(log10 |x|),
    as a 128-bit product of 32-bit limbs with 5**s. The shortest digits are those
    of the roundest integer in the scaled interval, and among the integers of
    that roundness the one nearest x is taken. No interval edge is such an
    integer, so none needs a rule. Every other value, and a value halfway between
    two nearest integers, is written by ``repr`` itself.
    """
    values = np.asarray(values, dtype=float)
    flat = values.ravel()
    words = np.empty((flat.size, 3), dtype="<u8")
    for i in range(0, flat.size, _FORMAT_VALUES):
        _float_words(flat[i : i + _FORMAT_VALUES], words[i : i + _FORMAT_VALUES])
    return words.view("u1").reshape(*values.shape, 24)


def _float_words(x, words) -> None:
    """Write the cells of the values ``x`` to ``words``, three uint64 a value."""
    # 24 bytes per value, NUL where nothing is written: 0 NUL, 1 sign, 2 the first
    # digit if |x| >= 1 else "0", 3 ".", 4-6 the "0"s after "0.", 7 the first digit
    # if |x| < 1, 8-23 the other digits
    zeros, digits, count, ok = _shortest_digits(np.abs(x))
    first = digits // _U64(10**16)
    rest = digits - first * _U64(10**16)
    lead = zeros == 0
    words[:, 0] = (_HEADS[zeros + 5 * np.signbit(x)]
                   | (first + _U64(48)) << np.where(lead, _U64(16), _U64(56)))
    hi8 = rest // _U64(10**8)
    lo8 = rest - hi8 * _U64(10**8)
    quads = words.view("<u4")
    for col, eight in ((2, hi8), (4, lo8)):
        four = eight // _U64(10**4)
        quads[:, col] = _DIGITS4[four.astype(np.intp)]
        quads[:, col + 1] = _DIGITS4[(eight - four * _U64(10**4)).astype(np.intp)]
    kept = np.maximum(count - 1, lead)  # digits after the first: "1.0" keeps a "0"
    words[:, 1] &= _KEEP[0][kept]
    words[:, 2] &= _KEEP[1][kept]
    slow = np.flatnonzero(~ok)
    if slow.size:
        cells = [repr(v).encode() for v in x[slow].tolist()]
        words.view("u1")[slow] = np.array(cells, dtype="S24").view("u1").reshape(-1, 24)


def _shortest_digits(a):
    """For each a = |x|: the number of "0"s that start its decimal digits (4 for
    1e-4 <= a < 1e-3 down to 0 for a >= 1), its shortest digits padded with "0"s
    to 17, their count, and whether these hold: only for 1e-4 <= a < 10 and no
    tie. Where they do not, the other results mean nothing but raise nothing."""
    bits = a.view(_U64)
    decades = np.searchsorted(_DECADES, a, side="right")  # floor(log10 a) + 4, exact
    s = 20 - decades
    # a = m4 * 2**(e - 2) with m4 = 4 * mantissa, so a * 10**s = m4 * 5**s / 2**shift
    shift = (1077 - s - (bits >> _U64(52)).astype(np.intp)).astype(_U64)  # 35 .. 48
    m4 = ((bits & _U64(2**52 - 1)) | _U64(2**52)) << _U64(2)
    p5 = _POW5[s]
    m_lo, m_hi = m4 & _U64(2**32 - 1), m4 >> _U64(32)  # m4 < 2**55 and p5 < 2**47
    p_lo, p_hi = p5 & _U64(2**32 - 1), p5 >> _U64(32)
    low = m_lo * p_lo
    mid = m_lo * p_hi + m_hi * p_lo
    lo = low + (mid << _U64(32))
    hi = m_hi * p_hi + (mid >> _U64(32)) + (lo < low)
    # the scaled value is q + f / 2**shift, in [10**16, 10**17); its rounding
    # interval reaches reach = 2 * 5**s (in those units) each way. From a power of
    # two it reaches half as far down, but each one in range is a decimal of at most
    # 10 significant digits, which nothing shorter is as near. An edge, (m4 +- 2) *
    # 5**s / 2**shift, is never an integer: the interval holds the integers in
    # (q_down, q_up]
    mask = (_U64(1) << shift) - _U64(1)
    q, f = (hi << (_U64(64) - shift)) | (lo >> shift), lo & mask
    reach = p5 << _U64(1)
    q_up = q + ((f + reach) >> shift)
    q_down = q - (reach >> shift) - (f < (reach & mask))
    # the shortest digits are those of the roundest integer in the interval; it is
    # < 24 wide, so it holds at most one multiple of 100
    hundreds = q_up // _U64(100) * _U64(100)
    places = (q_up // _U64(10) > q_down // _U64(10)).astype(np.intp)
    round100 = np.flatnonzero(hundreds > q_down)
    places[round100] = 2 + _trailing_zeros(hundreds[round100] // _U64(100))
    unit = _POW10[places]
    # the multiple of unit nearest the scaled value: as the interval is symmetric
    # about that value, it holds the nearest multiple whenever it holds one
    c = q // unit
    twice = (q - c * unit) << _U64(1) | f >> (shift - _U64(1))  # 2 * remainder, rounded down
    below = f & (mask >> _U64(1))  # what that rounding dropped
    c += (twice > unit) | ((twice == unit) & (below > _U64(0)))
    tie = (twice == unit) & (below == _U64(0))
    return 4 - decades, c * unit, 17 - places, (a >= 1e-4) & (a < 10.0) & ~tie


def _trailing_zeros(y):
    """The number of trailing decimal zeros of each of ``y`` (< 10**16)."""
    zeros = np.zeros(y.size, dtype=np.intp)
    for p in (8, 4, 2, 1):
        z = y // _U64(10**p)
        whole = z * _U64(10**p) == y
        y = np.where(whole, z, y)
        zeros += whole * p
    return zeros


_U64 = np.uint64
# The tables below are built without arithmetic on arrays, which at import would
# touch ufunc loops that most commands never use: about 1 MiB more peak RSS in each
# process
_POW5 = np.array([5**s for s in range(21)], dtype=_U64)
_POW10 = np.array([10**r for r in range(18)], dtype=_U64)
# The float that 10**-3 .. 10**0 read as; each is >= the power, so a >= it exactly when a >= 10**k
_DECADES = np.array([1e-3, 1e-2, 1e-1, 1.0])
# "0000" .. "9999", each as the little-endian word of its four ASCII digits
_DIGITS4 = np.frombuffer(b"0123456789", dtype="u1")
_DIGITS4 = np.stack([np.tile(np.repeat(_DIGITS4, 10**p), 1000 // 10**p) for p in (3, 2, 1, 0)],
                    axis=1).view("<u4")[:, 0]
# bytes 0-7 of a cell by zeros + 5 * sign: NUL, "-", "0." (or NUL "." for |x| >= 1) and the "0"s
_HEADS = np.frombuffer(b"".join(b"\0" + sign + (b"0." if z else b"\0.") + (b"0" * (z - 1)).ljust(4, b"\0")
                                for sign in (b"\0", b"-") for z in range(5)), dtype="<u8")
# the masks of bytes 8-15 and 16-23 of a cell that keep its first 0 .. 16 of those digits
_KEEP = np.frombuffer(b"".join(b"\xff" * i + b"\0" * (16 - i) for i in range(17)), dtype="<u8")
_KEEP = _KEEP.reshape(17, 2).T.copy()
# Values formatted at a time: amortises numpy's per-call cost and bounds the arrays
_FORMAT_VALUES = 4096
# The bytes of a block's grid, about: it and the bytes written from it stay in cache
_GRID_BYTES = 2**19


def write_samples_csv(path, data: SampleSet, feature_cells=None) -> None:
    """Write a :class:`SampleSet` in the annotation CSV format, one row per
    sample; a missing label or sequence key is an empty cell. ``feature_cells``
    is :func:`float_cells` of ``data.features``, for a caller that has it.

    The file's parsed sibling (see :func:`read_samples_csv`) is written too,
    built from ``data`` as a parse of the written bytes would give it, so a
    first read loads it. A set that the reader would refuse is a
    :class:`DataError`, and nothing is written.
    """
    path = Path(path)
    if not len(data):
        raise DataError("no samples to write")
    if not data.features.shape[1]:
        raise DataError("no feature columns to write")
    # the columns that a parse of the file gives: an empty cell reads NaN (its bits
    # too), a negative expr is an empty cell, a sequence key needs both cells, and
    # the file has no compound column
    keyed, has_va = (data.video != "") & (data.frame >= 0), ~np.isnan(data.va)
    col = {"ids": data.ids, "features": data.features, "expr": np.maximum(data.expr, -1),
           "au": data.au, "va": np.where(has_va, data.va, np.nan),
           "video": np.where(keyed, data.video, ""), "frame": np.where(keyed, data.frame, -1),
           "compound": np.full(len(data), "", dtype=object)}
    try:
        _check_columns(col)
    except ValueError as e:
        raise DataError(f"cannot write {path}: {e}") from e
    header = ["id", "video_id", "frame_idx", *(f"f{i}" for i in range(data.features.shape[1])),
              "valence", "arousal", "expr", *AU_COLUMNS]
    va = np.zeros((*data.va.shape, 24), dtype=np.uint8)  # a cell of NULs is empty
    va[has_va] = float_cells(data.va[has_va])
    frames, frame_codes = np.unique(data.frame, return_inverse=True)
    au = np.nan_to_num(data.au, nan=2).astype(int)  # the AU cells "0", "1" and ""
    columns = [
        (data.ids, np.arange(len(data))), (data.video, np.arange(len(data))),
        (["" if f < 0 else str(f) for f in frames.tolist()], frame_codes),
        float_cells(data.features) if feature_cells is None else feature_cells, va,
        (["", *map(str, range(len(EMOTIONS)))], np.maximum(data.expr, -1) + 1),
        (["0", "1", ""], au),
    ]
    write_csv_columns(path, header, columns)
    col["au"] = np.array([0.0, 1.0, np.nan])[au]  # AU -0.0 reads 0.0, and NaN its bits
    with open(path, "rb") as f:
        key = _parse_key(f)
    _save_parsed(path, key, col)


def read_samples_csv(path) -> SampleSet:
    """Read the annotation CSV format into a :class:`SampleSet`.

    Feature values come either from ``f0..f{d-1}`` columns or, when a
    ``feature_file`` column is present, from rows of .npy files referenced as
    ``path:row`` (paths resolved relative to the CSV). Every malformed row is
    a :class:`DataError` naming the file and its line.

    A file is parsed once per content: the parsed columns go to the sibling
    file ``.<name>.affectmtl`` (see :func:`_save_parsed`), and a later read of
    the same bytes loads them from there. For a ``feature_file`` column these
    are the references, and each read gathers their rows (:func:`_gather`).
    """
    path = Path(path)
    if not path.exists():
        raise DataError(f"dataset not found: {path}")
    try:
        with open(path, "rb") as f:
            col = _load_parsed(path, _parse_key(f))
        if col is not None:
            with contextlib.suppress(_BadReference):  # parsed below, which names its line
                return _sample_set(path.parent, **col)
        raw = path.read_bytes()  # parsed, and keyed anew: the file may have changed since
    except OSError as e:
        raise DataError(f"cannot read dataset {path}: {e}") from e
    col = _parse(raw, path)
    _save_parsed(path, _parse_key(io.BytesIO(raw)), col)
    try:
        return _sample_set(path.parent, **col)
    except _BadReference as e:
        row, error = e.args
        raise DataError(f"{path}, line {_line_of(_text(raw), row)}: {error}") from error


def _text(raw: bytes):
    """The CSV bytes ``raw``, decoded and split into lines as ``open(path, newline="")`` would."""
    return io.TextIOWrapper(io.BytesIO(raw), newline="")


def _parse(raw: bytes, path: Path) -> dict:
    """The columns that the CSV bytes ``raw`` of ``path`` hold, the features as
    :class:`_References` when they come from .npy files."""
    reader = csv.reader(_text(raw))
    try:
        header = next(reader, None)
        if header is None:
            raise DataError(f"empty dataset file: {path}")
        layout = _Layout(header, path, raw)
        blocks, done = [], 0
        while chunk := list(itertools.islice(reader, _BLOCK_ROWS)):
            rows = [r for r in chunk if r]  # a blank line holds no row
            if rows:
                blocks.append(layout.convert_block(rows, done))
                done += len(rows)
    except csv.Error as e:
        raise DataError(f"{path}, line {reader.line_num}: {e}") from e
    except UnicodeDecodeError as e:
        raise DataError(f"cannot read dataset {path}: {e}") from e
    if not blocks:
        raise DataError(f"no samples in {path}")
    return layout.assemble(blocks)


def _parse_key(f) -> bytes:
    """What a parse of the CSV bytes in the binary file ``f`` depends on: those
    bytes, the codec name of the text encoding that decodes them and the source of
    this module, hashed. The bytes are read a chunk at a time, into one buffer."""
    h = hashlib.sha256(Path(__file__).read_bytes())
    h.update(codecs.lookup(locale.getpreferredencoding(False)).name.encode() + b"\0")
    chunk = memoryview(bytearray(2**18))
    while size := f.readinto(chunk):
        h.update(chunk[:size])
    return h.digest()


def sibling(path: Path) -> Path:
    """The hidden file that keeps the parsed columns of the CSV ``path``."""
    return path.with_name(f".{path.name}.affectmtl")


# The numeric columns of a sibling file after the features, and their little-endian types.
_STORED = {"va": "<f8", "au": "<f8", "expr": "<i8", "frame": "<i8"}


class _References(NamedTuple):
    """The ``path:row`` cells of a ``feature_file`` column: the distinct paths as
    written, in order of first use, and each row's index into them and row number."""
    files: list
    file: np.ndarray
    row: np.ndarray


def _save_parsed(path: Path, key: bytes, col: dict) -> None:
    """Write the columns ``col``, parsed from the CSV ``path``, to its
    :func:`sibling` for :func:`_load_parsed`; a failed write is ignored.

    The file is the 32-byte ``key``, the sha256 of the payload, then the
    payload: the row count and the feature dimension as two little-endian
    int64, the features as ``<f8``, the bytes of each :data:`_STORED` column,
    and the UTF-8 bytes of every ``ids``, ``video`` and ``compound`` string,
    each one preceded by a separator: the first character that none of them
    holds. (A NumPy ``U`` array would drop trailing NULs.) :class:`_References`
    have the dimension -1, ``file`` and ``row`` as ``<i8`` for features, and
    ``files`` after the strings. The file holds no time, path or process id,
    so the same inputs give the same bytes. It is written to a temporary file,
    with the CSV's permissions, that then replaces the sibling, so a reader
    sees the old file or the new one, never a part.
    """
    features, files = col["features"], []
    if isinstance(features, _References):
        features, files = np.stack(features[1:]), features.files
    strings = [*col["ids"], *col["video"], *col["compound"], *files]
    joined = "".join(strings)
    sep = next(c for c in map(chr, itertools.count()) if c not in joined)
    payload = [np.array((len(col["ids"]), -1) if files else features.shape, dtype="<i8"),
               np.ascontiguousarray(features, dtype="<i8" if files else "<f8"),
               *(np.ascontiguousarray(col[c], dtype=t) for c, t in _STORED.items()),
               (sep + sep.join(strings)).encode("utf-8", "surrogatepass")]
    digest = hashlib.sha256()
    for part in payload:
        digest.update(part)
    target = sibling(path)
    try:
        fd, tmp = tempfile.mkstemp(prefix=target.name + ".", dir=target.parent)
    except OSError:
        return  # a read-only directory, say
    try:
        with os.fdopen(fd, "wb") as out:
            os.fchmod(fd, stat.S_IMODE(os.stat(path).st_mode))
            out.writelines((key, digest.digest(), *payload))
        os.replace(tmp, target)
    except OSError:
        Path(tmp).unlink(missing_ok=True)


def _load_parsed(path: Path, key: bytes) -> dict | None:
    """The columns that :func:`_save_parsed` wrote for the CSV ``path`` under
    ``key``, or None when the sibling is missing, was written under another
    key, is damaged, or holds columns that the CSV reader would not produce.
    The numeric columns are views of the bytes read, so nothing is unpickled
    or copied."""
    try:
        with open(sibling(path), "rb") as f:  # a bytearray: the views are writable
            blob = bytearray(os.fstat(f.fileno()).st_size)
            if f.readinto(blob) != len(blob):
                return None
    except OSError:
        return None
    if (len(blob) < 80 or blob[:32] != key
            or blob[32:64] != hashlib.sha256(memoryview(blob)[64:]).digest()):
        return None
    n, d = (int(x) for x in np.frombuffer(blob, "<i8", 2, 64))
    refs = d == -1  # features from .npy rows: each row's file index and row number
    shapes = {"features": (2, n) if refs else (n, d), "va": (n, 2), "au": (n, NUM_AUS),
              "expr": (n,), "frame": (n,)}
    end = 80 + 8 * sum(map(math.prod, shapes.values()))
    if not (n > 0 and (d > 0 or refs) and end <= len(blob)):
        return None
    columns, pos = {}, 80
    for name, dtype in {"features": "<i8" if refs else "<f8", **_STORED}.items():
        size = math.prod(shapes[name])
        columns[name] = np.frombuffer(blob, dtype, size, pos).reshape(shapes[name])
        pos += 8 * size
    try:
        text = blob[pos:].decode("utf-8", "surrogatepass")
        cells = text[1:].split(text[:1])  # ValueError if there is no separator
    except ValueError:  # not UTF-8, or no text at all
        return None
    files = cells[3 * n :]
    if len(cells) < 3 * n or refs != bool(files):
        return None
    for i, name in enumerate(("ids", "video", "compound")):
        columns[name] = np.array(cells[i * n : (i + 1) * n], dtype=object)
    if refs:
        file, row = columns["features"]
        if file.min() < 0 or file.max() >= len(files) or row.min() < 0:
            return None
        columns["features"] = _References(files, file, row)
    try:  # a label is stored as -1 or NaN where a row has none
        _check_columns(columns)
    except (ValueError, DataError):
        return None
    return columns


def _check_columns(col: dict, has_va=None) -> None:
    """Raise for the first rule of the annotation CSV format that the reader's
    columns ``col`` break: a ValueError, or a DataError for a row without a
    label. A filled cell holds an expr other than -1, or an AU or VA other than
    NaN; ``has_va`` (n, 2), when given, marks the filled VA cells instead."""
    va, expr, au, features = col["va"], col["expr"], col["au"], col["features"]
    has_va = ~np.isnan(va) if has_va is None else has_va
    has_expr, has_au = expr != -1, ~np.isnan(au)
    if isinstance(features, np.ndarray) and not np.isfinite(features).all():  # else references
        raise ValueError("non-finite feature value")
    if (has_va[:, 0] != has_va[:, 1]).any():
        raise ValueError("valence and arousal must both be filled or both be empty")
    if not np.isfinite(va[has_va[:, 0]]).all():
        raise ValueError("non-finite valence or arousal value")
    bad = has_expr & ((expr < 0) | (expr >= len(EMOTIONS)))
    if bad.any():
        raise ValueError(f"expression index {expr[bad][0]} outside 0..{len(EMOTIONS) - 1}")
    if not (~has_au | (au == 0.0) | (au == 1.0)).all():
        raise ValueError("AU labels must be 0 or 1")
    if ((col["video"] == "") & (col["frame"] != -1)).any():
        raise ValueError("frame index without a video id")
    unlabelled = ~(has_va[:, 0] | has_expr | has_au.any(axis=1))
    if unlabelled.any():
        raise DataError(f"sample {col['ids'][unlabelled.argmax()]!r} carries no label")


def _sample_set(directory: Path, features, **columns) -> SampleSet:
    """The set of the CSV reader's columns, :class:`_References` gathered from ``directory``."""
    if isinstance(features, _References):
        features = _gather(directory, features)
    return SampleSet(features=features, **columns)


class _BadReference(ValueError):
    """A ``feature_file`` reference that fails a check: ``args`` are its data row and the error."""


def _gather(directory: Path, refs: _References) -> np.ndarray:
    """The rows that ``refs`` name, as float64. The files are loaded now, in order
    of first use: each must hold a 2-D matrix of real numbers, with a row and a
    column, as wide as the earlier ones and holding every row that is referenced
    in it; then each row must be finite. The first failed check raises a :class:`_BadReference`
    for the first reference it concerns. Each row is copied once from its loaded
    matrix."""
    features = None
    for j in dict.fromkeys(refs.file.tolist()):
        where, name = np.flatnonzero(refs.file == j), refs.files[j]
        try:
            m = np.load(directory / name)  # an .npz loads as an NpzFile
            if not isinstance(m, np.ndarray) or m.ndim != 2 or not len(m) or not m.shape[1]:
                raise ValueError(f"{name!r} holds no 2-D feature matrix")
            if m.dtype.kind not in "fiu":  # astype would drop an imaginary part, read text...
                raise ValueError(f"{name!r} holds {m.dtype} values, not real numbers")
            width = m.shape[1] if features is None else features.shape[1]
            if m.shape[1] != width:
                raise ValueError(f"{name!r} has {m.shape[1]} features, earlier rows {width}")
        except _CELL_ERRORS as e:
            raise _BadReference(where[0], e) from e
        beyond = where[refs.row[where] >= len(m)]
        if beyond.size:
            raise _BadReference(beyond[0], ValueError(f"{name!r} has no row {refs.row[beyond[0]]}"))
        m = m.astype(float, copy=False)
        if features is None:
            features = np.empty((len(refs.row), width))
        for run in np.split(where, np.flatnonzero(np.diff(where) != 1) + 1):  # rows of one file
            lo, hi = run[0], run[-1] + 1  # "clip": no bounds check, and no buffered copy
            np.take(m, refs.row[lo:hi], axis=0, out=features[lo:hi], mode="clip")
    finite = np.isfinite(features).all(axis=1)
    if not finite.all():
        raise _BadReference(finite.argmin(), ValueError("non-finite feature value"))
    return features


# Rows converted at a time: bounds the cell text held while a file is read.
_BLOCK_ROWS = 256
# Label columns as the converter lays them out; the VA and AU columns are floats.
_LABEL_COLUMNS = ("valence", "arousal", *AU_COLUMNS, "expr", "video_id", "frame_idx", "compound")
_FLOATS = 2 + NUM_AUS
_EXPR, _VIDEO, _FRAME = (_LABEL_COLUMNS.index(c) for c in ("expr", "video_id", "frame_idx"))
# What converting a malformed cell or .npy reference raises.
_CELL_ERRORS = (DataError, ValueError, TypeError, OverflowError, OSError, EOFError,
                zipfile.BadZipFile)  # np.load reads a file that begins "PK\3\4" as a zip
# The characters of a number cell: ASCII digits; in a float also a sign, a point, an
# exponent and nan, which only an AU cell may read (any other NaN is refused as not finite)
_DIGITS, _FLOAT_CHARS = b"0123456789", b"0123456789+-.eEna"


def _check_spelling(text: str, chars: bytes, what: str) -> None:
    """Raise a ValueError unless ``text``, the cells of ``what`` joined, holds ``chars`` alone."""
    if not text.isascii() or text.encode().translate(None, chars):
        raise ValueError(f"a {what} cell holds a character other than {chars.decode()}")


def _line_of(text, row: int) -> int:
    """The line of the CSV ``text`` (a file object) on which data row ``row`` ends."""
    reader = csv.reader(text)
    next(reader)
    next(itertools.islice((r for r in reader if r), row, None))
    return reader.line_num


class _Layout:
    """Where one CSV header keeps each column, and the conversion of row blocks."""

    def __init__(self, header, path: Path, raw: bytes):
        col = {name: i for i, name in enumerate(header)}
        if "id" not in col:
            raise DataError(f"{path}: no id column")
        # in number order: without a leading zero, a longer number is a larger one
        fcols = sorted((c for c in col if c[:1] == "f" and c[1:].isdigit()),
                       key=lambda c: (len(c), c))
        odd = next((c for c in fcols if not c.isascii() or (c[1] == "0" and c != "f0")), None)
        if odd is not None:  # the writer's f0, f1, ...: one spelling per feature
            raise DataError(f"{path}: feature column {odd!r} is not f and a number "
                            "in ASCII digits without a leading zero")
        used = {"id", "feature_file", *fcols, *_LABEL_COLUMNS}  # col keeps a name's last index
        twice = next((c for i, c in enumerate(header) if c in used and col[c] != i), None)
        if twice is not None:
            raise DataError(f"{path}: the header repeats column {twice!r}")
        self.use_files = "feature_file" in col
        if not fcols and not self.use_files:
            raise DataError(f"{path}: no feature columns and no feature_file column")
        feature_idx = [col["feature_file"]] if self.use_files else [col[c] for c in fcols]
        self.path, self.raw = path, raw
        self.id = operator.itemgetter(col["id"])
        self.features = operator.itemgetter(*feature_idx)
        # every label column, an absent one read from the id column and then blanked
        self.labels = operator.itemgetter(*(col.get(c, col["id"]) for c in _LABEL_COLUMNS))
        self.absent = [j for j, c in enumerate(_LABEL_COLUMNS) if c not in col]
        self.width = 1 + max(col["id"], *feature_idx, *(col[c] for c in _LABEL_COLUMNS if c in col))
        self.files: dict[str, int] = {}  # feature_file name -> its index, in order of first use

    def convert_block(self, rows, start: int) -> dict:
        """Arrays for ``rows``, data rows ``start`` on; a bad row raises a
        :class:`DataError` naming the line of the earliest one."""
        try:
            return self._convert(rows)
        except _CELL_ERRORS:
            for i in range(len(rows)):  # find the row, and the first check it fails
                try:
                    self._convert(rows[i : i + 1])
                except _CELL_ERRORS as e:
                    line = _line_of(_text(self.raw), start + i)
                    raise DataError(f"{self.path}, line {line}: {e}") from e
            raise

    def _convert(self, rows) -> dict:
        n = len(rows)
        short = min(map(len, rows))
        if short < self.width:
            raise DataError(f"row has {short} cells where the header needs {self.width}")
        if self.use_files:
            features = self._references(list(map(self.features, rows)))
        else:
            features = list(map(self.features, rows))
            _check_spelling("".join(map("".join, features)), _FLOAT_CHARS, "feature")
            features = np.array(features, dtype=float).reshape(n, -1)
        cells = np.fromiter(itertools.chain.from_iterable(map(self.labels, rows)), object,
                            n * len(_LABEL_COLUMNS)).reshape(n, -1)
        cells[:, self.absent] = ""
        filled = cells != ""  # only filled cells are converted
        keyed = filled[:, _VIDEO] & filled[:, _FRAME]
        floats, ints = cells[:, :_FLOATS][filled[:, :_FLOATS]], cells[filled[:, _EXPR], _EXPR]
        frames = cells[keyed, _FRAME]
        _check_spelling("".join(floats), _FLOAT_CHARS, "VA or AU")
        _check_spelling("".join(ints) + "".join(frames), _DIGITS, "expr or frame_idx")
        va_au = np.full((n, _FLOATS), np.nan)
        va_au[filled[:, :_FLOATS]] = floats.astype(float)
        expr = np.full(n, -1)
        expr[filled[:, _EXPR]] = ints.astype(np.int64)
        frame = np.full(n, -1)
        frame[keyed] = frames.astype(np.int64)
        col = {"ids": np.array(list(map(self.id, rows)), dtype=object), "features": features,
               "expr": expr, "au": va_au[:, 2:], "va": va_au[:, :2], "frame": frame,
               "video": np.where(keyed, cells[:, _VIDEO], ""), "compound": cells[:, -1]}
        # an AU cell reading nan is unannotated, a VA cell reading nan is an error
        _check_columns(col, filled[:, :2])
        return col

    def _references(self, refs) -> tuple:
        """The file indices and row numbers of ``path:row`` references."""
        files, rows = [], []
        for ref in refs:
            name, _, row = ref.rpartition(":")
            # int() takes " 2", "1_0", "٣"; and no matrix has 2**63 rows
            if not name or not (row.isascii() and row.isdigit()) or int(row) >= 2**63:
                raise ValueError(f"malformed feature_file reference {ref!r}")
            files.append(self.files.setdefault(name, len(self.files)))
            rows.append(int(row))
        return np.array(files), np.array(rows)

    def assemble(self, blocks) -> dict:
        """The columns of the converted blocks, in file order."""
        parts = [b.pop("features") for b in blocks]
        col = {key: np.concatenate([b[key] for b in blocks]) for key in blocks[0]}
        if self.use_files:
            col["features"] = _References(list(self.files), *map(np.concatenate, zip(*parts)))
        else:
            col["features"] = np.concatenate(parts)
        return col
