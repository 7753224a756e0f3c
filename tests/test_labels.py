import csv
import hashlib
import io
import math
import os
import shutil
import subprocess
import sys
import tempfile
from dataclasses import fields, replace
from pathlib import Path
from types import SimpleNamespace
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from affectmtl import (
    CANONICAL_AUS,
    EMOTIONS,
    DataError,
    clean_va_expr,
    co_annotate,
    domain_table,
    subsample_frames,
)
from affectmtl import csvio
from affectmtl.csvio import (
    AU_COLUMNS, float_cells, read_samples_csv, write_csv_columns, write_samples_csv,
)
from affectmtl.labels import SampleSet, indicator_scores, label_masks, top_emotion
from affectmtl.relatedness import NUM_AUS
from affectmtl.synthdata import GeneratorSpec, draw

AU_IDX = {au: i for i, au in enumerate(CANONICAL_AUS)}
TABLE = domain_table()


@pytest.fixture(scope="session")
def sample(one_row):
    """A one-row set with the given labels; ``au_active`` and ``au_annotated``
    name the AUs annotated 1 and 0, every other AU is unannotated."""
    def build(expr=None, va=None, au_active=(), au_annotated=None, sid="s0", seq=None):
        au = None
        if au_active or au_annotated is not None:
            au = np.full(17, np.nan)
            for n in au_annotated or []:
                au[AU_IDX[n]] = 0.0
            for n in au_active:
                au[AU_IDX[n]] = 1.0
        return one_row(id=sid, expr=expr, va=va, au=au, sequence_key=seq)
    return build


def sca_target(s):
    """The indicator scores and the SCA target of a one-row set's AUs."""
    return indicator_scores(s.au, TABLE.weights)[0], top_emotion(s.au, TABLE.weights)[0]


def subsample(data):
    return data.take(subsample_frames(data.video, data.frame))


def test_sample_set_holds_the_csv_columns_alone(tmp_path):
    """A ``SampleSet``'s fields are the columns that the CSV parse returns, with
    f columns and with .npy references: no field is held beside them."""
    np.save(tmp_path / "x.npy", np.zeros((1, 2)))
    names = {f.name for f in fields(SampleSet)}
    for text in ("id,f0,expr\nx,0.5,1\n", "id,feature_file,expr\nx,x.npy:0,1\n"):
        path = tmp_path / "d.csv"
        path.write_text(text)
        assert set(csvio._parse(text.encode(), path)) == names
    assert len(names) == 8


def test_sample_requires_some_label(tmp_path):
    p = tmp_path / "d.csv"
    for text in ("id,f0,expr\nx,0.5,\n", "id,f0,expr,au_1\nx,0.5,,nan\n"):  # nan: unannotated
        p.write_text(text)
        with pytest.raises(DataError, match="carries no label"):
            read_samples_csv(p)


def test_co_annotate_happiness(sample):
    s, weights = co_annotate(sample(expr=EMOTIONS.index("happiness")), TABLE)
    au, w = s.au[0], weights[0]
    assert au[AU_IDX[12]] == 1.0 and w[AU_IDX[12]] == 1.0
    assert au[AU_IDX[25]] == 1.0 and w[AU_IDX[25]] == 1.0
    assert au[AU_IDX[6]] == 1.0 and w[AU_IDX[6]] == 0.51
    others = [i for i in range(17) if i not in (AU_IDX[12], AU_IDX[25], AU_IDX[6])]
    assert np.all(np.isnan(au[others]))


def test_co_annotate_disgust(sample):
    _, w = co_annotate(sample(expr=EMOTIONS.index("disgust")), TABLE)
    weights = {n: w[0, AU_IDX[n]] for n in (9, 10, 17, 4, 24)}
    assert weights == {9: 1.0, 10: 1.0, 17: 1.0, 4: 0.31, 24: 0.26}


def test_co_annotate_neutral_unchanged(sample):
    s = sample(expr=EMOTIONS.index("neutral"))
    out, weights = co_annotate(s, TABLE)
    assert np.array_equal(out.au, s.au, equal_nan=True)
    assert (weights == 1.0).all()
    assert np.array_equal(out.expr, s.expr)


def test_co_annotate_never_overwrites_and_is_idempotent(sample):
    s = sample(expr=EMOTIONS.index("happiness"), au_annotated=[12])  # AU12 annotated 0
    out, weights = co_annotate(s, TABLE)
    assert out.au[0, AU_IDX[12]] == 0.0  # pre-existing label wins
    assert out.au[0, AU_IDX[25]] == 1.0
    # a real AU weighs 1 and a filled AU its table weight
    assert weights[0, AU_IDX[12]] == 1.0 and weights[0, AU_IDX[6]] == 0.51
    again, weights = co_annotate(out, TABLE)
    assert np.array_equal(again.au, out.au, equal_nan=True)
    assert (weights == 1.0).all()  # nothing left to fill


def test_aus_to_emotion_surprise(sample):
    s, _ = co_annotate(sample(au_active=[1, 2, 5, 25, 26]), TABLE)
    assert s.expr[0] == EMOTIONS.index("surprise")


def test_aus_to_emotion_happiness(sample):
    s, _ = co_annotate(sample(au_active=[12, 25, 6]), TABLE)
    assert s.expr[0] == EMOTIONS.index("happiness")


def test_aus_to_emotion_no_full_requirement(sample):
    s = sample(au_active=[4])
    assert co_annotate(s, TABLE)[0].expr[0] == -1


def test_soft_co_annotate_worked_example(sample):
    s = sample(au_active=[12, 25], au_annotated=[6])
    scores, target = sca_target(s)
    assert scores[EMOTIONS.index("happiness")] == pytest.approx(2 / 2.51)
    assert target == EMOTIONS.index("happiness")


def test_soft_co_annotate_all_zero_is_a_tie(sample):
    s = sample(au_annotated=list(CANONICAL_AUS))
    scores, target = sca_target(s)
    assert np.allclose(scores, 0.0)
    assert target == -1


def test_soft_co_annotate_full_happiness(sample):
    s = sample(au_active=[12, 25, 6])
    scores, target = sca_target(s)
    assert scores[EMOTIONS.index("happiness")] == pytest.approx(1.0)
    assert target == EMOTIONS.index("happiness")


def test_soft_co_annotate_two_full_emotions_tie(sample):
    """Every AU of disgust and of happiness: both score 1 up to rounding, and
    the row gets no target."""
    s = sample(au_active=[4, 9, 10, 17, 24, 6, 12, 25], au_annotated=list(CANONICAL_AUS))
    scores, target = sca_target(s)
    assert np.flatnonzero(scores > 0.99).tolist() == [EMOTIONS.index("disgust"),
                                                      EMOTIONS.index("happiness")]
    assert target == -1


@pytest.mark.parametrize(
    "emotion,v,a,kept",
    [
        ("neutral", 0.5, 0.5, False),
        ("neutral", 0.149, 0.0, True),
        ("neutral", 0.151, 0.0, False),
        ("happiness", 0.8, 0.1, True),
        ("happiness", -0.1, 0.1, False),
        ("anger", -0.3, -0.2, False),
        ("anger", -0.3, 0.2, True),
        ("sadness", 0.2, 0.0, False),
        ("disgust", -0.2, 0.0, True),
        ("fear", 0.01, 0.5, False),
        ("surprise", 0.9, -0.9, True),
    ],
)
def test_clean_va_expr_rules(sample, emotion, v, a, kept):
    s = sample(expr=EMOTIONS.index(emotion), va=(v, a))
    keep = clean_va_expr(s.expr, s.va)
    assert keep.tolist() == [kept]  # kept, or else removed


def test_clean_va_expr_fixpoint_and_untouched(sample):
    rng = np.random.default_rng(0)
    rows = [
        sample(expr=int(rng.integers(0, 7)), va=tuple(rng.uniform(-1, 1, 2)), sid=f"s{i}")
        for i in range(100)
    ]
    rows.append(sample(va=(0.9, 0.9), sid="va_only"))  # no expr: never removed
    samples = SampleSet.concat(rows)
    keep = clean_va_expr(samples.expr, samples.va)
    kept, removed = samples.take(keep), samples.take(~keep)
    assert len(kept) + len(removed) == len(samples)
    assert "va_only" in kept.ids
    assert clean_va_expr(kept.expr, kept.va).all()  # a second pass removes nothing


def _clean_va_expr_by_name(expr, va):
    """The cleaning rules written out emotion by emotion, as the sign table must keep them."""
    neutral, anger, happy = (EMOTIONS.index(e) for e in ("neutral", "anger", "happiness"))
    neg_valence = [EMOTIONS.index(e) for e in ("anger", "disgust", "fear", "sadness")]
    expr, (v, a) = np.asarray(expr), np.asarray(va, dtype=float).T
    ok = (expr != neutral) | (np.hypot(v, a) < 0.15)
    ok &= ~np.isin(expr, neg_valence) | (v < 0)
    ok &= ((expr != anger) | (a > 0)) & ((expr != happy) | (v > 0))
    return ok | (expr < 0) | np.isnan(v)


_VA_VALUES = st.sampled_from([0.0, -0.0, math.nan, 0.149, -0.149, 0.15, 1e-300]) | st.floats(
    min_value=-1.0, max_value=1.0)


@given(st.lists(st.tuples(st.integers(-1, len(EMOTIONS) - 1), _VA_VALUES, _VA_VALUES),
                min_size=1, max_size=20))
@settings(max_examples=300, deadline=None)
def test_clean_va_expr_matches_the_rules_by_name(rows):
    expr, v, a = map(list, zip(*rows))
    va = np.column_stack([v, a])
    assert clean_va_expr(np.array(expr), va).tolist() == _clean_va_expr_by_name(expr, va).tolist()


@given(st.lists(st.tuples(st.integers(-1, len(EMOTIONS) - 1), _VA_VALUES, _VA_VALUES),
                min_size=1, max_size=20))
@settings(max_examples=200, deadline=None)
def test_clean_va_expr_keeps_every_row_without_an_expression_or_va(rows):
    """The cleaning reads the rows that carry an expression and VA from
    ``label_masks``: every row that it gives no expression or no VA is kept."""
    expr, v, a = map(np.array, zip(*rows))
    va = np.column_stack([v, a])
    has_expr, _, has_va = label_masks(expr, np.full((len(expr), NUM_AUS), np.nan), va)
    assert clean_va_expr(expr, va)[~(has_expr & has_va)].all()


def test_subsample_frames(sample):
    vid = SampleSet.concat([sample(va=(0, 0), sid=f"a{i}", seq=("v0", i)) for i in range(12)])
    out = subsample(vid)
    assert out.frame.tolist() == [0, 5, 10]
    assert len(subsample(vid.take([0]))) == 1
    two = SampleSet.concat(
        [sample(va=(0, 0), sid=f"b{i}", seq=(f"v{i % 2}", i // 2)) for i in range(12)])
    assert len(subsample(two)) == 4


def test_subsample_size_property(sample):
    rng = np.random.default_rng(1)
    samples = []
    expected = 0
    for v in range(8):
        n = int(rng.integers(1, 23))
        expected += math.ceil(n / 5)
        samples += [sample(va=(0, 0), sid=f"v{v}f{i}", seq=(f"v{v}", i)) for i in range(n)]
    assert len(subsample(SampleSet.concat(samples))) == expected


def test_csv_round_trip(tmp_path, one_row):
    rng = np.random.default_rng(5)
    records = []
    for i in range(20):
        au = np.where(rng.random(17) < 0.5, (rng.random(17) < 0.5).astype(float), np.nan)
        records.append(
            dict(
                id=f"s{i}",
                features=rng.normal(size=6),
                va=(float(rng.uniform(-1, 1)), float(rng.uniform(-1, 1))) if i % 2 else None,
                expr=int(rng.integers(0, 7)) if i % 3 else None,
                au=au if not np.all(np.isnan(au)) else np.zeros(17),
                sequence_key=(f"v{i % 4}", i) if i % 2 else None,
            )
        )
    p = tmp_path / "data.csv"
    write_samples_csv(p, SampleSet.concat([one_row(**r) for r in records]))
    back = read_samples_csv(p)
    samples = [SimpleNamespace(**r) for r in records]
    assert len(back) == len(samples)
    for i, a in enumerate(samples):
        assert a.id == back.ids[i]
        assert np.allclose(a.features, back.features[i])
        assert (a.va is None) == np.isnan(back.va[i]).all()
        if a.va:
            assert a.va == pytest.approx(tuple(back.va[i]))
        assert (-1 if a.expr is None else a.expr) == back.expr[i]
        assert np.array_equal(a.au, back.au[i], equal_nan=True)
        assert (a.sequence_key or ("", -1)) == (back.video[i], back.frame[i])


def test_csv_feature_file_reference(tmp_path):
    feats = np.random.default_rng(2).normal(size=(3, 5))
    np.save(tmp_path / "feats.npy", feats)
    csv_text = "id,expr,feature_file\n" + "\n".join(
        f"s{i},{i % 7},feats.npy:{i}" for i in range(3)
    )
    p = tmp_path / "ref.csv"
    p.write_text(csv_text + "\n")
    back = read_samples_csv(p)
    assert np.allclose(back.features[1], feats[1])
    assert back.expr[2] == 2


def test_csv_errors_name_the_line(tmp_path):
    p = tmp_path / "d.csv"
    # a quoted cell spans lines 2-3 and line 4 is blank, so row s1 ends on line 5
    p.write_text('id,f0,note,expr\ns0,0.5,"two\nlines",1\n\ns1,0.5,,9\n')
    with pytest.raises(DataError, match=r"d\.csv, line 5: expression index 9 outside"):
        read_samples_csv(p)
    # the first bad row of a later block, after an earlier check of another kind
    rows = [f"s{i},0.5,,1" for i in range(300)]
    rows[280], rows[290] = "s280,0.5,,", "s290,x,,1"
    p.write_text("id,f0,note,expr\n" + "\n".join(rows) + "\n")
    with pytest.raises(DataError, match=r"line 282: sample 's280' carries no label"):
        read_samples_csv(p)


@pytest.mark.parametrize("blob, message", [
    (b"", "empty dataset file"),
    (b"id,f0,expr\n", "no samples"),
    (b"f0,expr\n0.5,1\n", "no id column"),
    (b"id,expr\ns0,1\n", "no feature columns"),
    (b"id,f0,expr\ns0,0.5,1\ns1,0.5\n", "line 3: row has 2 cells"),
    (b"id,f0,expr\ns0,0.5,1\x00\n", "line 2"),
    (b"id,f0,expr,valence,arousal\ns0,0.5,1,,0.1\n", "line 2: valence and arousal must both"),
    (b"id,f0,expr\ns0,0.5,\xff\n", "cannot read dataset"),
    # a column that the reader uses appears once: the last of two would be read
    (b"id,f0,f0,expr,expr\ns0,1,2,3,5\n", "the header repeats column 'f0'"),
    (b"id,f0,expr,id\ns0,1,3,s1\n", "the header repeats column 'id'"),
    (b"id,f0,au_12,expr,au_12\ns0,1,0,3,1\n", "the header repeats column 'au_12'"),
    (b"id,feature_file,expr,feature_file\ns0,m.npy:0,3,m.npy:1\n",
     "the header repeats column 'feature_file'"),
    (b"id,f0,expr,compound,compound\ns0,1,3,a,b\n", "the header repeats column 'compound'"),
    # a feature column is f and a number spelled as the writer spells it, so no
    # two names read one feature, and a digit that int() refuses is no traceback
    (b"id,f1,f01,expr\ns0,1,2,3\n", "feature column 'f01' is not f and a number"),
    (b"id,f00,expr\ns0,1,3\n", "feature column 'f00'"),
    ("id,f0,f²,expr\ns0,1,2,3\n".encode(), "feature column 'f²'"),
    ("id,f0,f1,f١,expr\ns0,1,2,3,4\n".encode(), "feature column 'f١'"),
])
def test_csv_structure_errors(tmp_path, blob, message):
    p = tmp_path / "d.csv"
    p.write_bytes(blob)
    with pytest.raises(DataError, match=message):
        read_samples_csv(p)


def test_feature_columns_are_read_in_number_order(tmp_path):
    """Feature columns are taken by their number, however many digits it has."""
    p = tmp_path / "d.csv"
    big = "f" + "9" * 5000  # more digits than int() takes from a string
    p.write_text(f"id,{big},f10,expr,f2,f0\ns0,4,3,3,2,1\n")
    assert read_samples_csv(p).features.tolist() == [[1.0, 2.0, 3.0, 4.0]]


def test_a_repeated_column_that_the_reader_ignores_is_allowed(tmp_path):
    p = tmp_path / "d.csv"
    p.write_text("id,note,f0,note,expr\ns0,a,0.5,b,3\n")
    data = read_samples_csv(p)
    assert data.features.tolist() == [[0.5]] and data.expr.tolist() == [3]


def _number(rng, x) -> str:
    """``x`` in one of the spellings a CSV may hold."""
    return [repr(float(x)), f"{x:.3e}", str(int(x * 100)), f"{x:+.4f}"][rng.integers(4)]


# Spellings of a number cell: outside the grammar (padding, "_", another digit
# script, inf, a NaN other than an AU's "nan", a sign on an integer), then inside it
SPELLINGS = [" 0.25", "4 ", "1_5", "\u0663", "inf", "NaN", "+1", "1.", "1e0", ".1E+1", "01"]


@st.composite
def annotation_csvs(draw, directory: Path) -> Path:
    """An annotation CSV, with any subset of the label columns, inline features
    or ``path:row`` references, and sometimes more than one block of rows; an
    AU cell may read ``nan`` or ``-nan`` (unannotated). It is valid, but for one number
    cell that may be drawn from :data:`SPELLINGS`. Returns its path."""
    n = draw(st.one_of(st.integers(1, 20), st.integers(250, 600)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    dim = draw(st.integers(1, 5))
    use_files = draw(st.booleans())
    labels = draw(st.lists(st.sampled_from(
        ["va", "expr", "video_id", "frame_idx", "note", "compound", *AU_COLUMNS]), unique=True))
    if not {"va", "expr", *AU_COLUMNS} & set(labels):
        labels.append("expr")
    fcols = ["feature_file"] if use_files else [f"f{i}" for i in range(dim)]
    header = draw(st.permutations(["id", *fcols, *labels]))
    header = [c for h in header for c in (("valence", "arousal") if h == "va" else (h,))]
    matrices = [rng.normal(size=(int(rng.integers(1, 40)), dim)) for _ in range(2)]
    (directory / "sub").mkdir(exist_ok=True)
    for k, m in enumerate(matrices):
        np.save(directory / "sub" / f"m{k}.npy", m)
    rows = []
    for i in range(n):
        k = int(rng.integers(2))
        row = {"id": f"s{i % 50}", "note": 'a,"b"\nc' if rng.random() < 0.2 else "",
               "feature_file": f"sub/m{k}.npy:{rng.integers(len(matrices[k]))}",
               **{f"f{j}": _number(rng, x) for j, x in enumerate(rng.normal(size=dim) * 10)}}
        va = [_number(rng, x) for x in rng.uniform(-1, 1, 2)] if rng.random() < 0.5 else ["", ""]
        row["valence"], row["arousal"] = va
        row["expr"] = str(rng.integers(7)) if rng.random() < 0.5 else ""
        row.update({c: ["", "0", "1", "1.0", "nan", "-nan"][rng.integers(6)] for c in AU_COLUMNS})
        row["compound"] = ["", "sadly_angry", 'a "b",\nc'][rng.integers(3)]
        row["video_id"] = f"v{rng.integers(3)}" if rng.random() < 0.8 else ""
        row["frame_idx"] = str(rng.integers(50)) if rng.random() < 0.8 else ""
        labelled = [c for c in header if c in ("valence", "arousal", "expr", *AU_COLUMNS)]
        if not any(row[c] not in ("", "nan", "-nan") for c in labelled):  # give it a label
            row.update({c: "1" for c in labelled})
        rows.append([row.get(c, "") for c in header])
    spelling = draw(st.none() | st.sampled_from(SPELLINGS))
    if spelling is not None:  # one filled number cell is spelled otherwise
        row = rows[draw(st.integers(0, n - 1))]
        numbers = [j for j, c in enumerate(header) if row[j] and c not in (
            "id", "feature_file", "note", "compound", "video_id")]
        row[draw(st.sampled_from(numbers))] = spelling
    path = directory / "data.csv"
    with open(path, "w", newline="") as f:
        csv.writer(f).writerows([header, *rows])
    return path


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_csv_reader_matches_per_row_reference(reference_read_samples_csv, data):
    """Both reads match: the first parses the file, and the second loads the
    sibling that the first wrote, which every valid CSV leaves. A number cell
    that the reference refuses is a data error naming its line."""
    with tempfile.TemporaryDirectory() as tmp:
        path = data.draw(annotation_csvs(Path(tmp)))
        try:
            want = reference_read_samples_csv(path)
        except ValueError as e:
            with pytest.raises(DataError, match=f"data.csv, {str(e).partition(':')[0]}:"):
                read_samples_csv(path)
            return
        first = read_samples_csv(path)
        cached = (path.parent / ".data.csv.affectmtl").exists()
        got = read_samples_csv(path)
        assert cached
    for read in (first, got):
        assert_matches(read, want)


def assert_matches(got: SampleSet, want: dict) -> None:
    """Every field of ``got`` equals ``want``'s, with the same dtype and shape,
    floats bit for bit."""
    assert len(got) == len(want["ids"])
    for name, value in want.items():
        have = getattr(got, name)
        assert have.dtype == value.dtype and have.shape == value.shape, name
        if value.dtype == float:
            assert have.tobytes() == value.tobytes(), name
        else:
            assert (have == value).all(), name


@st.composite
def sample_records(draw, dim: int, cells, min_labels: int = 1, au_values=(0.0, 1.0, np.nan)):
    """The labels of one sample, as keywords of the one-row builder: any subset
    of VA, expression and AU labels (at least ``min_labels``) and a sequence
    key, its text and floats drawn from ``cells`` and its AUs from ``au_values``."""
    text, floats = cells
    has = draw(st.lists(st.sampled_from(["va", "expr", "au"]), min_size=min_labels, unique=True))
    au = None
    if "au" in has:
        au = np.array(draw(st.lists(st.sampled_from(au_values), min_size=17, max_size=17)))
    return dict(
        id=draw(text),
        features=np.array(draw(st.lists(floats, min_size=dim, max_size=dim))),
        va=(draw(floats), draw(floats)) if "va" in has else None,
        expr=draw(st.integers(0, 6)) if "expr" in has else None,
        au=au,
        sequence_key=draw(st.none() | st.tuples(text, st.integers(0, 10**6))),
    )


@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_write_samples_csv_matches_row_by_row_writer(
        reference_write_samples_csv, csv_cells, one_row, data):
    dim = data.draw(st.integers(1, 4))
    records = data.draw(st.lists(sample_records(dim, csv_cells), min_size=1, max_size=8))
    samples = SampleSet.concat([one_row(**r) for r in records])
    with tempfile.TemporaryDirectory() as tmp:
        got, want = Path(tmp) / "got.csv", Path(tmp) / "want.csv"
        write_samples_csv(got, samples)
        reference_write_samples_csv(want, samples)
        assert got.read_bytes() == want.read_bytes()


def _set_cell(column, index, value):
    """A change to ``data`` that sets one cell of ``column``."""
    def change(data, sample):
        getattr(data, column)[index] = value
        return data
    return change


@pytest.mark.parametrize("change, message", [
    pytest.param(lambda data, sample: data.take([]), "no samples", id="None-no samples"),
    pytest.param(lambda data, sample: replace(data, features=np.empty((1, 0))),
                 "no feature columns", id="no features"),
    # the row-by-row writer wrote str(int(au)): 0.5 became "0"
    pytest.param(_set_cell("au", (0, 0), 0.5), "0 or 1", id="0.5-0 or 1"),
    pytest.param(_set_cell("au", (0, 0), 2.0), "0 or 1", id="2.0-0 or 1"),
    pytest.param(_set_cell("expr", 0, 7), "expression index 7", id="expr 7"),
    pytest.param(_set_cell("va", (0, 1), np.nan), "valence and arousal", id="half VA"),
    pytest.param(_set_cell("va", (0, 0), np.inf), "non-finite valence", id="inf VA"),
    pytest.param(_set_cell("features", (0, 2), np.nan), "non-finite feature", id="NaN feature"),
    pytest.param(lambda data, sample: SampleSet.concat([data, sample(sid="b")]),
                 "sample 'b' carries no label", id="no label"),
])
def test_write_samples_csv_rejects_what_it_cannot_write(
        tmp_path, sample, reference_write_samples_csv, change, message):
    """The writer refuses, writing nothing, each set whose file the reader
    refuses, and the reader refuses the row-by-row writer's file of that set.
    (A set with no rows or no features has no such file, and the row-by-row
    writer wrote AU 0.5 as 0.)"""
    data = change(sample(expr=1, va=(0.25, -0.5), au_active=[12]), sample)
    with pytest.raises(DataError, match=message):
        write_samples_csv(tmp_path / "out.csv", data)
    assert not any(tmp_path.iterdir())  # neither the CSV nor its sibling
    if len(data) and data.features.shape[1] and 0.5 not in data.au:
        reference_write_samples_csv(tmp_path / "reference.csv", data)
        with pytest.raises(DataError):
            read_samples_csv(tmp_path / "reference.csv")


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_write_samples_csv_sibling_is_what_a_cold_read_gives(
        reference_write_samples_csv, csv_cells, one_row, data):
    """The writer accepts a set exactly when the reader accepts the row-by-row
    writer's file of it. For every set that it accepts, it writes a sibling,
    a read through that sibling and a read with the sibling deleted give the
    same arrays bit for bit, and the read writes the writer's sibling bytes.
    The sets: those of the row-by-row writer test, plus rows without a label, a
    frame without a video, NULs in ids and video keys, AU -0.0 and no features."""
    text, floats = csv_cells
    text = text | st.text(alphabet=st.sampled_from(["\0", '"', ",", "a"]), max_size=4)
    dim = data.draw(st.integers(0, 3))
    records = data.draw(st.lists(sample_records(dim, (text, floats), min_labels=0,
                                                au_values=(0.0, -0.0, 1.0, np.nan)),
                                 min_size=1, max_size=8))
    samples = SampleSet.concat([one_row(**r) for r in records])
    with tempfile.TemporaryDirectory() as tmp:
        path, sibling = Path(tmp) / "d.csv", Path(tmp) / ".d.csv.affectmtl"
        try:
            write_samples_csv(path, samples)
        except csv.Error:  # a NUL, before Python 3.11
            assert not any(Path(tmp).iterdir())
            return
        except DataError:
            assert not any(Path(tmp).iterdir())
            if samples.features.shape[1]:  # with no feature columns there is no file to read
                reference_write_samples_csv(path, samples)
                with pytest.raises(DataError):
                    read_samples_csv(path)
            return

        written = sibling.read_bytes()
        with patch.object(csvio, "_parse", None):
            via_sibling = read_samples_csv(path)  # parses nothing: the writer left a sibling
        sibling.unlink()
        assert_matches(via_sibling, fields_of(read_samples_csv(path)))
        assert sibling.read_bytes() == written


# -- the parsed-set sibling file ----------------------------------------------


def fields_of(data: SampleSet) -> dict:
    return {f.name: getattr(data, f.name) for f in fields(data)}


@pytest.fixture
def cached_csv(tmp_path, one_row):
    """A small annotation CSV read once, so that its sibling holds the parsed
    set; returns the CSV path, the sibling path, its bytes and the set."""
    rows = [one_row(id="a", features=(0.5, -1.0), expr=1, sequence_key=("v", 3)),
            one_row(id="b", features=(2.0, 0.25), va=(0.1, -0.2)),
            one_row(id="c", features=(0.0, 1e-300), au=[1.0, 0.0] + [np.nan] * 15)]
    path = tmp_path / "d.csv"
    write_samples_csv(path, SampleSet.concat(rows))
    data = read_samples_csv(path)
    sibling = tmp_path / ".d.csv.affectmtl"
    return path, sibling, sibling.read_bytes(), data


def test_csv_second_read_loads_the_sibling(cached_csv, monkeypatch):
    path, sibling, blob, data = cached_csv
    monkeypatch.setattr(csvio, "_parse", None)  # a hit never parses
    assert_matches(read_samples_csv(path), fields_of(data))
    assert sibling.read_bytes() == blob


def test_csv_changed_byte_is_a_miss(cached_csv):
    path, sibling, blob, data = cached_csv
    path.write_bytes(path.read_bytes().replace(b"a,v,3,0.5,", b"a,v,3,0.6,"))
    changed = read_samples_csv(path)
    assert changed.features[0, 0] == 0.6
    assert_matches(changed, fields_of(replace(data, features=changed.features)))
    assert sibling.read_bytes() != blob
    assert_matches(read_samples_csv(path), fields_of(changed))


def _resaved(path, data, **columns):
    """Overwrite the sibling of ``path`` with a file whose key and payload
    digest are valid for its bytes, holding ``data`` with ``columns`` replaced."""
    key = csvio._parse_key(io.BytesIO(path.read_bytes()))
    csvio._save_parsed(path, key, fields_of(replace(data, **columns)))


@pytest.mark.parametrize("damage", [
    "truncated", "garbage", "payload digest", "empty", "no payload", "rows past the end",
    "one string too many",
    pytest.param({"expr": np.array([1, -1, 99])}, id="expr 99"),
    pytest.param({"expr": np.array([1, -2, -1])}, id="expr -2"),
    pytest.param({"au": np.full((3, 17), 0.5)}, id="AU 0.5"),
    pytest.param({"va": np.array([[np.nan, np.nan], [0.1, np.nan], [np.nan, np.nan]])},
                 id="half a VA label"),
    pytest.param({"va": np.array([[np.nan, np.nan], [np.inf, 0.0], [np.nan, np.nan]])},
                 id="infinite valence"),
    pytest.param({"features": np.array([[0.5, -1.0], [np.nan, 0.25], [0.0, 1e-300]])},
                 id="NaN feature"),
    pytest.param({"features": np.zeros((3, 0))}, id="no features"),
    pytest.param({"frame": np.array([3, 4, -1])}, id="a frame without a video"),
    pytest.param({"expr": np.array([1, -1, -1]), "au": np.full((3, 17), np.nan)},
                 id="a row without a label"),
])
def test_csv_damaged_sibling_falls_back_to_the_parse(cached_csv, damage):
    path, sibling, blob, data = cached_csv
    if damage == "truncated":
        sibling.write_bytes(blob[: len(blob) // 2])
    elif damage == "garbage":
        sibling.write_bytes(b"garbage" * 40)
    elif damage == "payload digest":
        sibling.write_bytes(blob[:32] + bytes(32) + blob[64:])
    elif damage == "empty":
        sibling.write_bytes(b"")
    elif damage in ("no payload", "rows past the end", "one string too many"):
        payload = {"no payload": b"",  # each with a valid digest
                   "rows past the end": (10**12).to_bytes(8, "little") + blob[72:],
                   "one string too many": blob[64:] + b"\0x"}[damage]  # "\0" separates them
        sibling.write_bytes(blob[:32] + hashlib.sha256(payload).digest() + payload)
    else:
        _resaved(path, data, **damage)
    assert sibling.read_bytes() != blob
    assert_matches(read_samples_csv(path), fields_of(data))
    assert sibling.read_bytes() == blob  # rewritten, to the same bytes


@pytest.mark.parametrize("fail", ["read-only directory", "mkstemp", "replace"])
def test_csv_read_succeeds_when_the_sibling_cannot_be_written(cached_csv, monkeypatch, fail):
    """The write fails, the read does not, and no file is left behind. Root
    can write into a read-only directory, so the failing calls are faked too."""
    path, sibling, blob, data = cached_csv
    sibling.unlink()

    def refuse(*args, **kwargs):
        raise PermissionError("read-only directory")

    if fail == "read-only directory":
        path.parent.chmod(0o555)
        try:
            read = read_samples_csv(path)
        finally:
            path.parent.chmod(0o755)
    else:
        monkeypatch.setattr(csvio.tempfile if fail == "mkstemp" else csvio.os, fail, refuse)
        read = read_samples_csv(path)
    assert_matches(read, fields_of(data))
    written = [".d.csv.affectmtl"] if fail == "read-only directory" and os.geteuid() == 0 else []
    assert sorted(p.name for p in path.parent.iterdir()) == [*written, "d.csv"]


@pytest.mark.skipif(sys.version_info < (3, 11), reason="csv rejects NUL before Python 3.11")
def test_csv_strings_round_trip_through_the_sibling(tmp_path, monkeypatch):
    """Ids, video keys and compound names come back exactly, trailing NULs too
    (a NumPy ``U`` array drops them)."""
    text = ('id,f0,expr,video_id,frame_idx,compound\r\n'
            'a\0,0.5,1,v\0,0,x\0\r\n'
            '"\n",0.5,2,,,\r\n'
            ',0.5,3,é\0\0,7,\0\r\n'
            '\0\x01,0.5,4,,3,"a,b"\r\n')
    path = tmp_path / "s.csv"
    path.write_text(text, newline="")
    parsed = read_samples_csv(path)
    assert list(parsed.ids) == ["a\0", "\n", "", "\0\x01"]
    assert list(parsed.video) == ["v\0", "", "é\0\0", ""]
    assert list(parsed.compound) == ["x\0", "", "\0", "a,b"]
    monkeypatch.setattr(csvio, "_parse", None)
    assert_matches(read_samples_csv(path), fields_of(parsed))


def test_csv_malformed_file_with_an_older_sibling_names_the_line(cached_csv):
    path, sibling, blob, data = cached_csv
    path.write_bytes(path.read_bytes().replace(b",1,,,", b",9,,,", 1))
    with pytest.raises(DataError, match=r"d\.csv, line 2: expression index 9 outside"):
        read_samples_csv(path)
    assert sibling.read_bytes() == blob


@pytest.fixture
def feature_file_csv(tmp_path):
    """A ``feature_file`` CSV whose rows take runs of rows from two .npy files,
    read once, so that its sibling holds the references; returns the CSV path,
    the sibling path and the two matrices."""
    a, b = np.arange(12.0).reshape(4, 3) / 8, -np.arange(6.0).reshape(2, 3)
    np.save(tmp_path / "a.npy", a)
    np.save(tmp_path / "b.npy", b)
    path = tmp_path / "d.csv"
    path.write_text("id,expr,feature_file\ns0,1,a.npy:2\ns1,2,b.npy:0\ns2,3,a.npy:0\n"
                    "s3,4,a.npy:1\ns4,5,b.npy:1\n")
    read_samples_csv(path)
    return path, tmp_path / ".d.csv.affectmtl", a, b


def test_feature_file_second_read_loads_the_sibling(feature_file_csv, monkeypatch):
    path, sibling, a, b = feature_file_csv
    monkeypatch.setattr(csvio, "_parse", None)  # a hit never parses
    data = read_samples_csv(path)
    assert data.features.tobytes() == np.stack([a[2], b[0], a[0], a[1], b[1]]).tobytes()
    assert data.expr.tolist() == [1, 2, 3, 4, 5]


def test_feature_file_sibling_gathers_the_npy_as_it_is_now(feature_file_csv, monkeypatch):
    """A read after the .npy files changed returns their new rows, from the
    sibling, which holds no feature: a cold read writes the same bytes."""
    path, sibling, a, b = feature_file_csv
    blob = sibling.read_bytes()
    np.save(path.parent / "a.npy", np.vstack([a, a]) * 3)  # new values, and more rows
    np.save(path.parent / "b.npy", b.astype(np.float32) + 0.5)
    with monkeypatch.context() as m:
        m.setattr(csvio, "_parse", None)
        via_sibling = read_samples_csv(path)
    want = np.stack([a[2] * 3, b[0] + 0.5, a[0] * 3, a[1] * 3, b[1] + 0.5])
    assert via_sibling.features.tobytes() == want.tobytes()
    sibling.unlink()
    assert read_samples_csv(path).features.tobytes() == want.tobytes()
    assert sibling.read_bytes() == blob


@pytest.mark.parametrize("damage, line, message", [
    ("truncated", 2, ""),
    ("NaN in a referenced row", 5, "non-finite feature value"),
    ("changed width", 3, "'b.npy' has 4 features, earlier rows 3"),
    ("deleted file", 3, "No such file"),
])
def test_feature_file_sibling_names_a_bad_npy_as_a_cold_read(feature_file_csv, monkeypatch,
                                                             damage, line, message):
    """A read through the sibling after a referenced .npy went bad is the data
    error, line and message, that a read without the sibling gives."""
    path, sibling, a, b = feature_file_csv
    load, loaded = csvio._load_parsed, []
    monkeypatch.setattr(csvio, "_load_parsed", lambda *args: loaded.append(load(*args)) or loaded[-1])
    if damage == "truncated":
        blob = (path.parent / "a.npy").read_bytes()
        (path.parent / "a.npy").write_bytes(blob[: len(blob) - 20])
    elif damage == "NaN in a referenced row":
        a[1, 2] = np.nan
        np.save(path.parent / "a.npy", a)
    elif damage == "changed width":
        np.save(path.parent / "b.npy", np.zeros((2, 4)))
    else:
        (path.parent / "b.npy").unlink()
    with pytest.raises(DataError) as via_sibling:
        read_samples_csv(path)
    sibling.unlink()
    with pytest.raises(DataError) as cold:
        read_samples_csv(path)
    assert loaded[0] is not None and loaded[-1] is None
    assert str(via_sibling.value) == str(cold.value)
    assert str(cold.value).startswith(f"{path}, line {line}: ") and message in str(cold.value)


def test_sibling_key_names_the_encoding_by_its_codec(monkeypatch):
    """A Python in UTF-8 mode spells the locale's encoding "utf-8", and its child
    without that mode "UTF-8": both spellings give one key, another encoding another."""
    keys = {}
    for spelling in ("UTF-8", "utf-8", "utf8", "latin-1"):
        monkeypatch.setattr(csvio.locale, "getpreferredencoding",
                            lambda do_setlocale=True, spelling=spelling: spelling)
        keys[spelling] = csvio._parse_key(io.BytesIO(b"id,f0,expr\ns0,1.5,3\n"))
    assert keys["UTF-8"] == keys["utf-8"] == keys["utf8"] != keys["latin-1"]


# Reads the CSVs argv[2:] with the package copy in argv[1]; prints how often it parsed.
_READ_WITH_COPY = """import sys
sys.path.insert(0, sys.argv[1])
from pathlib import Path
from affectmtl import csvio
assert Path(csvio.__file__).is_relative_to(sys.argv[1]), csvio.__file__
parse, calls = csvio._parse, []
csvio._parse = lambda *args: calls.append(args) or parse(*args)
for path in sys.argv[2:]:
    csvio.read_samples_csv(path)
print(len(calls))
"""


def test_only_an_edit_of_the_csv_module_re_keys_the_siblings(tmp_path):
    """The sibling key covers ``csvio.py`` alone: after an edit of ``labels.py``
    every sibling loads as it is, and after an edit of ``csvio.py`` each read
    parses again and rewrites its sibling with only the 32-byte key changed."""
    copy = tmp_path / "src" / "affectmtl"
    shutil.copytree(Path(csvio.__file__).parent, copy, ignore=shutil.ignore_patterns("__pycache__"))
    full = draw(GeneratorSpec(relatedness=TABLE, seed=0), 60)
    csvs = [tmp_path / "a.csv", tmp_path / "b.csv"]
    for path, rows in zip(csvs, (np.arange(30), np.arange(30, 60))):
        write_samples_csv(path, full.take(rows))
    siblings = [path.with_name(f".{path.name}.affectmtl") for path in csvs]

    def read_with_copy(edit=None):
        if edit:
            with open(copy / edit, "a") as f:
                f.write("# an edit\n")
        run = subprocess.run([sys.executable, "-c", _READ_WITH_COPY, str(copy.parent), *map(str, csvs)],
                             capture_output=True, text=True)
        assert run.returncode == 0, run.stderr
        return int(run.stdout), [sibling.read_bytes() for sibling in siblings]

    # read once by the unedited copy, as a child may name the text encoding
    # otherwise than this process does ("UTF-8" where this is "utf-8")
    _, written = read_with_copy()
    assert read_with_copy("labels.py") == (0, written)
    parses, rewritten = read_with_copy("csvio.py")
    assert parses == len(csvs)
    for new, old in zip(rewritten, written):
        assert new[:32] != old[:32] and new[32:] == old[32:]


# -- text cells ------------------------------------------------------------


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_text_cells_are_what_csv_writer_writes(csv_cells, data):
    """A value that needs no quotes is its own cell; every other is quoted as
    ``csv.writer`` quotes it, in a row of several cells."""
    values = data.draw(st.lists(csv_cells[0], max_size=8))
    row = io.StringIO(newline="")
    csv.writer(row).writerow(["x", *values])
    assert ",".join(["x", *csvio.text_cells(values)]) + "\r\n" == row.getvalue()


def test_write_csv_columns_encodes_text_with_the_locale_codec(tmp_path):
    """Text is encoded with the codec that ``open`` uses, here Latin-1. From
    Python 3.11 on, the values hold every byte but "5", which a float cell
    holds, so no padding byte is free."""
    values = [c for c in map(chr, range(sys.version_info < (3, 11), 256)) if c != "5"]
    values += ["a,b", 'say "hi"', ""]
    floats = np.linspace(-3.0, 3.0, len(values))
    with patch("locale.getpreferredencoding", return_value="latin-1"):
        write_csv_columns(tmp_path / "got.csv", ["text", "\xff"],
                          [(values[::-1], np.arange(len(values))[::-1]), floats])
    with open(tmp_path / "want.csv", "w", newline="", encoding="latin-1") as f:
        csv.writer(f).writerows([["text", "\xff"], *zip(values, map(repr, floats.tolist()))])
    assert (tmp_path / "got.csv").read_bytes() == (tmp_path / "want.csv").read_bytes()


# -- float cells -----------------------------------------------------------


def _repr_cells(values):
    """The text of the ``float_cells`` of ``values``, and what ``repr`` writes for each."""
    values = np.asarray(values, dtype=float)
    cells = [bytes(cell).replace(b"\0", b"").decode() for cell in float_cells(values)]
    return cells, list(map(repr, values.tolist()))


@settings(max_examples=1000, deadline=None)
@given(st.lists(st.floats(), min_size=1, max_size=50))
def test_float_text_is_repr(values):
    """NaN, +-inf, +-0.0, subnormals and huge values included."""
    got, want = _repr_cells(values)
    assert got == want


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 6).flatmap(lambda width: st.lists(
    st.lists(st.floats(), min_size=width, max_size=width), min_size=1, max_size=8)))
def test_float_text_joins_each_row_with_commas(rows):
    """A float column of several cells a row, laid out in the grid of ``write_csv_columns``."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "x.csv"
        write_csv_columns(path, ["x"], [np.array(rows)])
        lines = ["x", *(",".join(map(repr, row)) for row in rows)]
        assert path.read_bytes() == "".join(line + "\r\n" for line in lines).encode()


def _neighbours(values):
    values = np.asarray(values, dtype=float)
    return np.concatenate([values, np.nextafter(values, 0), np.nextafter(values, np.inf)])


_SHORT = np.random.default_rng(0)
# Values that reach each rule of the fast path and of its fallback to repr
FLOAT_FAMILIES = {
    # the rounding interval reaches half as far down from a power of two
    "powers of two": _neighbours(2.0 ** np.arange(-20, 5)),
    # exact decimals of 20 digits, some halfway between two 17-digit ones: the tie rule
    "17-digit ties": np.arange(100, 20001) * 2.0**-20,
    # where the decimal exponent changes
    "powers of ten": _neighbours(10.0 ** np.arange(-5, 3)),
    # the ends of the fast path's range
    "range edges": _neighbours([1e-4, 10.0]),
    "1 to 17 significant digits": np.array([
        float(f"{m}e{e - d}") for d in range(1, 18)
        for m in _SHORT.integers(10 ** (d - 1), 10**d, 40).tolist() for e in range(-4, 3)]),
}


@pytest.mark.parametrize("family", FLOAT_FAMILIES)
def test_float_text_matches_repr_on(family):
    values = FLOAT_FAMILIES[family]
    got, want = _repr_cells(np.concatenate([values, -values]))
    assert got == want


def test_float_text_takes_the_fast_path(monkeypatch):
    """Under 1% of the generator's feature values fall back to ``repr``; a tie
    does, and so does every value outside 1e-4 <= |x| < 10."""
    calls = []  # the values that float_cells hands to repr
    monkeypatch.setattr(csvio, "repr", lambda v: calls.append(v) or repr(v), raising=False)
    features = draw(GeneratorSpec(relatedness=TABLE, seed=0), 4000).features
    float_cells(features)
    assert 0 < len(calls) < 0.01 * features.size
    calls.clear()
    float_cells(FLOAT_FAMILIES["17-digit ties"])
    assert any(1e-4 <= v < 10 for v in calls)
    calls.clear()
    outside = [0.0, -0.0, 5e-324, np.nextafter(1e-4, 0), -10.0, 1e16, math.nan, -math.inf]
    float_cells(np.array(outside))
    assert len(calls) == len(outside)
