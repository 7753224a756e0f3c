import csv
import re
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import strategies as st

from affectmtl import EMOTIONS
from affectmtl.csvio import AU_COLUMNS
from affectmtl.labels import SampleSet
from affectmtl.relatedness import NUM_AUS
from affectmtl.model import DEFAULT_HEADS, HEAD_COLS
from affectmtl.synthdata import VA_MEANS


def _one_row(id="s0", features=(0.0, 0.0, 0.0, 0.0), va=None, expr=None, au=None,
             sequence_key=None) -> SampleSet:
    """A one-row ``SampleSet``; a label left at None is absent (-1 or NaN)."""
    au = np.full(NUM_AUS, np.nan) if au is None else np.asarray(au, dtype=float)
    video, frame = sequence_key or ("", -1)
    return SampleSet(
        ids=np.array([id], dtype=object), features=np.array([features], dtype=float),
        expr=np.array([-1 if expr is None else expr]), au=au[None, :],
        va=np.array([(np.nan, np.nan) if va is None else va], dtype=float),
        video=np.array([video], dtype=object), frame=np.array([frame]),
        compound=np.array([""], dtype=object),
    )


@pytest.fixture(scope="session")
def one_row():
    """Builder of one-row ``SampleSet``s from per-sample keyword labels."""
    return _one_row


def _reference_compound_scores(out, profiles):
    """Per-row, per-class loop over the compound score terms of ``CompoundProfiles``.

    Returns an (n, C, 4) array holding i_au, f_emo, d_va and total.
    """
    ref = np.zeros((len(out["au"]), len(profiles.names), 4))
    for i in range(len(out["au"])):
        for k in range(len(profiles.names)):
            idx = np.flatnonzero(profiles.weights[k])
            w = profiles.weights[k, idx]
            i_au = w @ out["au"][i, idx] / w.sum()
            emo1, emo2 = profiles.pairs[k]
            f_emo = out["expr"][i, emo1] + out["expr"][i, emo2]
            d_va = 1.0 if profiles.positive[k] and out["va"][i, 0] > 0 else 0.0
            ref[i, k] = i_au, f_emo, d_va, i_au + f_emo + d_va
    return ref


@pytest.fixture
def reference_compound_scores():
    """The per-row reference scorer that ``compound_scores`` must match."""
    return _reference_compound_scores


# The spelling of a number cell: a float in ASCII digits with an optional sign,
# point and exponent, where an AU cell may read nan; an integer (expr,
# frame_idx) in ASCII digits alone
_FLOAT_CELL = re.compile(r"[+-]?([0-9]+\.?[0-9]*|\.[0-9]+)([eE][+-]?[0-9]+)?")
_AU_CELL = re.compile(rf"{_FLOAT_CELL.pattern}|[+-]?nan")
_INT_CELL = re.compile("[0-9]+")


def _spelled(text, grammar, line):
    """``text``, a number cell of the CSV line ``line`` that ``grammar`` must
    match in full: ``float`` and ``int`` would also take padding, ``_``,
    other digit scripts, ``inf`` and ``nan``."""
    if not grammar.fullmatch(text):
        raise ValueError(f"line {line}: {text!r} is not a number cell")
    return text


def _reference_read_samples_csv(path):
    """Per-row reader of a valid annotation CSV, one cell at a time with
    ``float`` and ``int`` after a match of each number cell against its
    spelling. Returns the ``SampleSet`` fields as a dict; a cell spelled
    otherwise raises a ValueError that begins with ``line <n>:``."""
    path = Path(path)
    cols = {k: [] for k in ("ids", "features", "expr", "au", "va", "video", "frame", "compound")}
    with open(path, newline="") as f:
        reader = csv.DictReader(f)
        fcols = [c for c in reader.fieldnames if c[:1] == "f" and c[1:].isdigit()]
        for c in fcols:  # f0, f1, ...: no padding and no non-ASCII digit
            if not re.fullmatch("f(0|[1-9][0-9]*)", c):
                raise ValueError(f"{c!r} is not a feature column name")
        fcols.sort(key=lambda c: int(c[1:]))
        for row in reader:
            def cell(name):
                return row.get(name) or ""

            def number(name, grammar=_FLOAT_CELL, empty="nan"):
                text = cell(name)
                return empty if text == "" else _spelled(text, grammar, reader.line_num)

            if "feature_file" in row:
                name, _, i = row["feature_file"].rpartition(":")
                if not re.fullmatch("[0-9]+", i):  # no sign, padding, "_" or non-ASCII digit
                    raise ValueError(f"feature_file row {i!r} is not ASCII digits")
                cols["features"].append(np.load(path.parent / name)[int(i)])
            else:
                cols["features"].append([float(_spelled(row[c], _FLOAT_CELL, reader.line_num))
                                          for c in fcols])
            cols["ids"].append(row["id"])
            cols["expr"].append(int(number("expr", _INT_CELL, "-1")))
            cols["au"].append([float(number(c, _AU_CELL)) for c in AU_COLUMNS])
            cols["va"].append([float(number("valence")), float(number("arousal"))])
            keyed = cell("video_id") != "" and cell("frame_idx") != ""
            cols["video"].append(row["video_id"] if keyed else "")
            cols["frame"].append(int(number("frame_idx", _INT_CELL)) if keyed else -1)
            cols["compound"].append(cell("compound"))
    out = {k: np.array(v, dtype=object if k in ("ids", "video", "compound") else None)
           for k, v in cols.items()}
    out["features"] = out["features"].astype(float)
    return out


@pytest.fixture(scope="session")
def reference_read_samples_csv():
    """The per-row reference reader that ``read_samples_csv`` must match."""
    return _reference_read_samples_csv


def _reference_forward_backward(model, X, gz):
    """Forward and backward pass with one product per head and the full trunk
    backward, from ``gz``, the (n, 26) gradient at the heads' input. Returns
    (outputs, gradients)."""
    acts = [X]
    for layer in model.trunk:
        acts.append(np.tanh(acts[-1] @ layer["W"] + layer["b"]))
    h = acts[-1]
    params = dict(model.named_params())
    out = {}
    for name, (kind, _) in DEFAULT_HEADS.items():
        z = h @ params[f"{name}.W"] + params[f"{name}.b"]
        if kind == "tanh":
            out[name] = np.tanh(z)
        elif kind == "sigmoid":
            out[name] = 1.0 / (1.0 + np.exp(-z))
        else:
            e = np.exp(z - z.max(axis=1, keepdims=True))
            out[name] = e / e.sum(axis=1, keepdims=True)
    grads = {name: np.zeros_like(p) for name, p in params.items()}
    gh = np.zeros_like(h)
    for name, cols in HEAD_COLS.items():
        g = gz[:, cols]
        grads[f"{name}.W"] += h.T @ g
        grads[f"{name}.b"] += g.sum(axis=0)
        gh += g @ params[f"{name}.W"].T
    for i in range(len(model.trunk) - 1, -1, -1):
        g = gh * (1.0 - acts[i + 1] ** 2)
        grads[f"trunk{i}.W"] += acts[i].T @ g
        grads[f"trunk{i}.b"] += g.sum(axis=0)
        gh = g @ model.trunk[i]["W"].T
    return out, grads


@pytest.fixture
def reference_forward_backward():
    """The per-head reference pass that ``MultiHeadModel.forward``/``backward`` must match."""
    return _reference_forward_backward


def _reference_write_samples_csv(path, data):
    """Row-by-row ``csv.writer`` code that writes the rows of a ``SampleSet`` in
    the annotation CSV format; ``write_samples_csv`` must match it byte for byte."""
    header = (["id", "video_id", "frame_idx"] + [f"f{i}" for i in range(data.features.shape[1])]
              + ["valence", "arousal", "expr"] + list(AU_COLUMNS))
    with open(path, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(header)
        for i in range(len(data)):
            row = [data.ids[i], data.video[i], "" if data.frame[i] < 0 else int(data.frame[i])]
            row += [repr(float(x)) for x in data.features[i]]
            va = data.va[i]
            row += ["", ""] if np.isnan(va).all() else [repr(float(va[0])), repr(float(va[1]))]
            row += ["" if data.expr[i] < 0 else str(int(data.expr[i]))]
            row += ["" if np.isnan(x) else str(int(x)) for x in data.au[i]]
            w.writerow(row)


@pytest.fixture(scope="session")
def reference_write_samples_csv():
    """The row-by-row writer that ``write_samples_csv`` must match."""
    return _reference_write_samples_csv


def _reference_write_compound_scores(path, ids, class_names, scores):
    """Row-by-row ``csv.writer`` code that writes ``compound_scores.csv`` for the
    data-row ``ids``, the profiles' ``class_names`` and a ``CompoundScores``."""
    n, n_classes = scores.total.shape
    picked = np.arange(n_classes) == scores.predicted[:, None]
    terms = [a.ravel().tolist() for a in (scores.i_au, scores.f_emo, scores.d_va, scores.total)]
    columns = [np.repeat(np.array(ids, dtype=object), n_classes).tolist(),
               list(class_names) * n, *terms, picked.ravel().astype(int).tolist()]
    with open(path, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(["id", "class", "i_au", "f_emo", "d_va", "total", "predicted"])
        w.writerows(zip(*columns))


@pytest.fixture(scope="session")
def reference_write_compound_scores():
    """The row-by-row writer that ``zero-shot`` must match for its ``compound_scores.csv``."""
    return _reference_write_compound_scores


def _reference_median_filter_by_video(video, frame, predictions, window):
    """One edge-padded sliding median per video, in frame order (equal frames
    keep their row order); rows keep their order."""
    out = np.empty_like(predictions, dtype=float)
    for v in dict.fromkeys(video):
        rows = np.flatnonzero(video == v)
        rows = rows[np.argsort(frame[rows], kind="stable")]
        half = window // 2
        padded = np.pad(predictions[rows], ((half, half), (0, 0)), mode="edge")
        windows = np.lib.stride_tricks.sliding_window_view(padded, window, axis=0)
        out[rows] = np.median(windows, axis=2)
    return out


@pytest.fixture(scope="session")
def reference_median_filter_by_video():
    """The per-video loop that ``_median_filter_by_video`` must match."""
    return _reference_median_filter_by_video


@pytest.fixture(scope="session")
def csv_cells():
    """Hypothesis strategies for (cell text, floats) that a CSV writer gets wrong
    most easily: text with separators, quotes, line breaks, spaces or nothing at
    all, a NUL (which ``csv.writer`` writes from Python 3.11 on), the Latin-1 byte
    0xFF and a character outside the BMP; floats whose shortest repr is subtle."""
    nul = ["\0"] if sys.version_info >= (3, 11) else []
    text = st.text(alphabet=st.sampled_from(
        [",", '"', "\r", "\n", " ", "a", "Z", "7", "é", "\xff", "\U0001f600", *nul]), max_size=6)
    floats = st.sampled_from([-0.0, 0.0, 5e-324, 2.2250738585072014e-308, 1e16, 1e-5,
                              0.30000000000000004, -1.5, 123456789.125]) | st.floats(
        allow_nan=False, allow_infinity=False)
    return text, floats


def _reference_draw(spec, n):
    """Row-by-row synthetic draw that rebuilds its per-row objects: ``rng.choice``
    for the emotion, ``np.clip`` for VA and a one-hot plus ``np.concatenate``
    for the label signal. Returns the ``SampleSet`` that ``draw`` must match."""
    rng = np.random.default_rng(spec.seed)
    k = len(EMOTIONS)
    r = spec.relatedness.weights
    signal_dim = k + NUM_AUS + 2
    map_rng = np.random.default_rng(spec.seed + 104729)
    w = map_rng.normal(size=(spec.feature_dim, signal_dim)) / np.sqrt(signal_dim)
    prior = np.full(k, 1.0 / k)
    prior = prior / prior.sum()
    expr = np.empty(n, dtype=int)
    au, va = np.empty((n, NUM_AUS)), np.empty((n, 2))
    features = np.empty((n, w.shape[0]))
    for i in range(n):
        emo = expr[i] = int(rng.choice(k, p=prior))
        au[i] = rng.random(NUM_AUS) < r[emo]
        mv, ma = VA_MEANS[EMOTIONS[emo]]
        cap_v = cap_a = spec.noise_scale
        if EMOTIONS[emo] == "neutral":
            cap_v = cap_a = min(spec.noise_scale, 0.105)
        if EMOTIONS[emo] in ("sadness", "disgust", "fear", "anger", "happiness"):
            cap_v = min(spec.noise_scale, abs(mv) * 0.99)
        if EMOTIONS[emo] == "anger":
            cap_a = min(spec.noise_scale, abs(ma) * 0.99)
        va[i, 0] = np.clip(mv + rng.uniform(-cap_v, cap_v), -1.0, 1.0)
        va[i, 1] = np.clip(ma + rng.uniform(-cap_a, cap_a), -1.0, 1.0)
        onehot = np.zeros(k)
        onehot[emo] = 1.0
        signal = np.concatenate([onehot, au[i], va[i]])
        features[i] = w @ signal + spec.noise_scale * rng.normal(size=w.shape[0])
    fpv = spec.frames_per_video
    return SampleSet(
        ids=np.array([f"s{i:06d}" for i in range(n)], dtype=object),
        features=features, expr=expr, au=au, va=va,
        video=np.array([f"vid{i // fpv:05d}" if fpv else "" for i in range(n)], dtype=object),
        frame=np.arange(n) % fpv if fpv else np.full(n, -1),
        compound=np.full(n, "", dtype=object),
    )


@pytest.fixture(scope="session")
def reference_draw():
    """The row-by-row reference draw that ``synthdata.draw`` must match."""
    return _reference_draw
