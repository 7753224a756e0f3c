import csv
import math
import tempfile
from pathlib import Path
from types import SimpleNamespace

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
from affectmtl.labels import (
    AU_COLUMNS,
    EmotionSoftLabel,
    SampleSet,
    indicator_scores,
    read_samples_csv,
    write_samples_csv,
)

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


def soft_label(s, reweight_observational=True):
    """The soft emotion label of a one-row set's AUs, as soft co-annotation makes it."""
    r = TABLE.weight_matrix(reweight_observational)
    return EmotionSoftLabel.from_indicators(indicator_scores(s.au[0], r, reweight_observational))


def subsample(data):
    return data.take(subsample_frames(data.video, data.frame))


def test_sample_requires_some_label(tmp_path):
    p = tmp_path / "d.csv"
    p.write_text("id,f0,expr\nx,0.5,\n")
    with pytest.raises(DataError, match="carries no label"):
        read_samples_csv(p)


def test_co_annotate_happiness(sample):
    s = co_annotate(sample(expr=EMOTIONS.index("happiness")), TABLE)
    au, w = s.au[0], s.au_weights[0]
    assert au[AU_IDX[12]] == 1.0 and w[AU_IDX[12]] == 1.0
    assert au[AU_IDX[25]] == 1.0 and w[AU_IDX[25]] == 1.0
    assert au[AU_IDX[6]] == 1.0 and w[AU_IDX[6]] == 0.51
    others = [i for i in range(17) if i not in (AU_IDX[12], AU_IDX[25], AU_IDX[6])]
    assert np.all(np.isnan(au[others]))


def test_co_annotate_disgust(sample):
    s = co_annotate(sample(expr=EMOTIONS.index("disgust")), TABLE)
    weights = {n: s.au_weights[0, AU_IDX[n]] for n in (9, 10, 17, 4, 24)}
    assert weights == {9: 1.0, 10: 1.0, 17: 1.0, 4: 0.31, 24: 0.26}


def test_co_annotate_neutral_unchanged(sample):
    s = sample(expr=EMOTIONS.index("neutral"))
    out = co_annotate(s, TABLE)
    assert np.array_equal(out.au, s.au, equal_nan=True)
    assert np.array_equal(out.au_weights, s.au_weights, equal_nan=True)
    assert np.array_equal(out.expr, s.expr)


def test_co_annotate_never_overwrites_and_is_idempotent(sample):
    s = sample(expr=EMOTIONS.index("happiness"), au_annotated=[12])  # AU12 annotated 0
    out = co_annotate(s, TABLE)
    assert out.au[0, AU_IDX[12]] == 0.0  # pre-existing label wins
    assert out.au[0, AU_IDX[25]] == 1.0
    again = co_annotate(out, TABLE)
    assert np.array_equal(again.au, out.au, equal_nan=True)
    assert np.array_equal(again.au_weights, out.au_weights, equal_nan=True)


def test_aus_to_emotion_surprise(sample):
    s = co_annotate(sample(au_active=[1, 2, 5, 25, 26]), TABLE)
    assert s.expr[0] == EMOTIONS.index("surprise")


def test_aus_to_emotion_happiness(sample):
    s = co_annotate(sample(au_active=[12, 25, 6]), TABLE)
    assert s.expr[0] == EMOTIONS.index("happiness")


def test_aus_to_emotion_no_full_requirement(sample):
    s = sample(au_active=[4])
    assert co_annotate(s, TABLE).expr[0] == -1


def test_soft_co_annotate_worked_example(sample):
    s = sample(au_active=[12, 25], au_annotated=[6])
    soft = soft_label(s, reweight_observational=True)
    assert soft.indicator_scores[EMOTIONS.index("happiness")] == pytest.approx(2 / 2.51)
    assert soft.q.sum() == pytest.approx(1.0, abs=1e-9)
    assert np.all(soft.q > 0)


def test_soft_co_annotate_all_zero_uniform(sample):
    s = sample(au_annotated=list(CANONICAL_AUS))
    soft = soft_label(s)
    assert np.allclose(soft.indicator_scores, 0.0)
    assert np.allclose(soft.q, 1 / 7, atol=1e-12)


def test_soft_co_annotate_full_happiness(sample):
    s = sample(au_active=[12, 25, 6])
    soft = soft_label(s)
    assert soft.indicator_scores[EMOTIONS.index("happiness")] == pytest.approx(1.0)
    assert np.argmax(soft.q) == EMOTIONS.index("happiness")


def test_soft_co_annotate_without_reweighting(sample):
    s = sample(au_active=[12, 25], au_annotated=[6])
    soft = soft_label(s, reweight_observational=False)
    assert soft.indicator_scores[EMOTIONS.index("happiness")] == pytest.approx(2 / 3)


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
    (b"id,f0,expr\ns0,0.5,\xff\n", "cannot read dataset"),
])
def test_csv_structure_errors(tmp_path, blob, message):
    p = tmp_path / "d.csv"
    p.write_bytes(blob)
    with pytest.raises(DataError, match=message):
        read_samples_csv(p)


def _number(rng, x) -> str:
    """``x`` in one of the spellings a CSV may hold."""
    return [repr(float(x)), f"{x:.3e}", str(int(x * 100)), f" {x:.4f}"][rng.integers(4)]


@st.composite
def annotation_csvs(draw, directory: Path) -> Path:
    """A valid annotation CSV, with any subset of the label columns, inline
    features or ``path:row`` references, and sometimes more than one block of
    rows; returns its path."""
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
        row.update({c: ["", "0", "1", "1.0"][rng.integers(4)] for c in AU_COLUMNS})
        row["compound"] = ["", "sadly_angry", 'a "b",\nc'][rng.integers(3)]
        row["video_id"] = f"v{rng.integers(3)}" if rng.random() < 0.8 else ""
        row["frame_idx"] = str(rng.integers(50)) if rng.random() < 0.8 else ""
        labelled = [c for c in header if c in ("valence", "arousal", "expr", *AU_COLUMNS)]
        if not any(row[c] for c in labelled):  # give the row a label it can carry
            row.update({c: "1" for c in labelled})
        rows.append([row.get(c, "") for c in header])
    path = directory / "data.csv"
    with open(path, "w", newline="") as f:
        csv.writer(f).writerows([header, *rows])
    return path


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_csv_reader_matches_per_row_reference(reference_read_samples_csv, data):
    with tempfile.TemporaryDirectory() as tmp:
        path = data.draw(annotation_csvs(Path(tmp)))
        got, want = read_samples_csv(path), reference_read_samples_csv(path)
    assert len(got) == len(want["ids"])
    for name, value in want.items():
        have = getattr(got, name)
        assert have.dtype == value.dtype and have.shape == value.shape, name
        if value.dtype == float:
            assert have.tobytes() == value.tobytes(), name
        else:
            assert (have == value).all(), name


@st.composite
def sample_records(draw, dim: int, cells):
    """The labels of one sample, as keywords of the one-row builder: any subset
    of VA, expression and AU labels (at least one) and a sequence key, its text
    and floats drawn from ``cells``."""
    text, floats = cells
    has = draw(st.lists(st.sampled_from(["va", "expr", "au"]), min_size=1, unique=True))
    au = None
    if "au" in has:
        au = np.array(draw(st.lists(st.sampled_from([0.0, 1.0, np.nan]),
                                    min_size=17, max_size=17)))
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


@pytest.mark.parametrize("au, message", [(None, "no samples"), (0.5, "0 or 1"), (2.0, "0 or 1")])
def test_write_samples_csv_rejects_what_it_cannot_write(tmp_path, sample, au, message):
    data = sample(expr=1, au_active=[12])
    if au is None:
        data = data.take([])
    else:
        data.au[0, 0] = au  # the row-by-row writer wrote str(int(au)): 0.5 became "0"
    with pytest.raises(DataError, match=message):
        write_samples_csv(tmp_path / "out.csv", data)
    assert not (tmp_path / "out.csv").exists()
