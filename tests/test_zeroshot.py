import json

import numpy as np
import pytest

from affectmtl import (
    CANONICAL_AUS,
    EMOTIONS,
    CompoundClass,
    DataError,
    MultiHeadModel,
    RelatednessTable,
    compound_scores,
    default_compound_classes,
    domain_table,
    load_compound_profiles,
    save_compound_profiles,
)
from affectmtl.relatedness import KIND_DOMAIN
from affectmtl.zeroshot import compound_class_from_emotions

AU_IDX = {au: i for i, au in enumerate(CANONICAL_AUS)}
TABLE = domain_table()


def heads(expr=None, au=None, va=(0.0, 0.0)):
    """One row of head outputs, as ``MultiHeadModel.forward`` returns them."""
    return {
        "va": np.asarray([va], float),
        "expr": np.full((1, 7), 1 / 7) if expr is None else np.asarray([expr], float),
        "au": np.full((1, 17), 0.5) if au is None else np.asarray([au], float),
    }


def random_heads(rng, n):
    return {
        "va": rng.uniform(-1, 1, (n, 2)),
        "expr": rng.dirichlet(np.ones(7), n),
        "au": rng.random((n, 17)),
    }


def test_compound_class_validation():
    with pytest.raises(DataError):
        CompoundClass("x", 1, 1, {12: 1.0})
    with pytest.raises(DataError):
        CompoundClass("x", 1, 2, {})
    with pytest.raises(DataError):
        CompoundClass("x", 1, 2, {3: 1.0})  # AU3 outside the canonical set
    with pytest.raises(DataError):
        CompoundClass("x", 1, 2, {12: 1.5})
    for emo in (-1, 7, 1.0, True, "1"):
        with pytest.raises(DataError, match="emotion index"):
            CompoundClass("x", emo, 2, {12: 1.0})
    with pytest.raises(DataError):
        CompoundClass("x", 1, 2, {12: 1.0}, requires_positive_valence="false")
    for w in ("0.5", True, None):
        with pytest.raises(DataError):
            CompoundClass("x", 1, 2, {12: w})
    with pytest.raises(DataError):
        CompoundClass(None, 1, 2, {12: 1.0})


def test_compound_class_takes_numpy_scalars():
    """Built in Python, a profile may hold a NumPy float64 weight and a NumPy
    int64 emotion index, as a table row or an argmax gives them."""
    c = CompoundClass("x", np.int64(1), 2, {12: np.float64(0.5)})
    assert (c.emo1, c.au_profile[12]) == (1, 0.5)


def test_i_au_perfect_match():
    c = CompoundClass("hs", 4, 6, {12: 1.0, 25: 1.0})
    au = np.zeros(17)
    au[AU_IDX[12]] = au[AU_IDX[25]] = 1.0
    score = compound_scores(heads(au=au), [c])
    assert score.i_au[0, 0] == pytest.approx(1.0)


def test_f_emo_sum():
    happy, surprised = EMOTIONS.index("happiness"), EMOTIONS.index("surprise")
    expr = np.zeros(7)
    expr[happy], expr[surprised] = 0.5, 0.3
    expr[0] = 0.2
    c = CompoundClass("happily_surprised", happy, surprised, {12: 1.0})
    score = compound_scores(heads(expr=expr), [c])
    assert score.f_emo[0, 0] == pytest.approx(0.8)


def test_valence_sign_rule():
    c = CompoundClass("hs", 4, 6, {12: 1.0}, requires_positive_valence=True)
    neg = compound_scores(heads(va=(-0.2, 0.0)), [c])
    pos = compound_scores(heads(va=(0.2, 0.0)), [c])
    assert neg.d_va[0, 0] == 0.0 and pos.d_va[0, 0] == 1.0
    unflagged = CompoundClass("sf", 3, 5, {4: 1.0})
    s = compound_scores(heads(va=(0.9, 0.0)), [unflagged])
    assert s.d_va[0, 0] == 0.0


def test_predict_compound_argmax_and_ties():
    # totals 1.2, 2.4 and 0.3 with no valence bonus
    au = np.zeros(17)
    au[AU_IDX[12]], au[AU_IDX[4]] = 0.2, 0.4
    expr = np.zeros(7)
    expr[[0, 1, 2, 4]] = 0.5, 0.5, 0.2, 0.1
    classes = [CompoundClass("a", 0, 1, {12: 1.0}), CompoundClass("b", 0, 1, {4: 1.0}, True),
               CompoundClass("c", 2, 4, {1: 1.0})]
    s = compound_scores(heads(expr=expr, au=au, va=(0.5, 0.0)), classes)
    assert s.total[0] == pytest.approx([1.2, 2.4, 0.3])
    assert s.predicted.tolist() == [1]
    tied = [CompoundClass("x", 0, 1, {12: 1.0}), CompoundClass("y", 0, 1, {12: 1.0})]
    assert compound_scores(heads(expr=expr, au=au), tied).predicted.tolist() == [0]
    with pytest.raises(DataError):
        compound_scores(heads(), [])


def random_classes(rng, k):
    """``k`` random compound classes; about a third duplicate an earlier one."""
    classes = []
    for _ in range(k):
        if classes and rng.random() < 0.3:
            classes.append(classes[int(rng.integers(len(classes)))])
            continue
        e1, e2 = rng.choice(7, size=2, replace=False)
        aus = rng.choice(CANONICAL_AUS, size=int(rng.integers(1, 6)), replace=False)
        profile = {int(au): float(w) for au, w in zip(aus, rng.uniform(0.05, 1.0, len(aus)))}
        classes.append(CompoundClass("c", int(e1), int(e2), profile, bool(rng.random() < 0.5)))
    return classes


def test_predict_compound_brute_force_oracle():
    rng = np.random.default_rng(0)
    for _ in range(100):
        classes = random_classes(rng, int(rng.integers(1, 12)))
        s = compound_scores(random_heads(rng, 5), classes)
        for totals, pred in zip(s.total.tolist(), s.predicted.tolist()):
            best = max(range(len(totals)), key=lambda i: (totals[i], -i))
            assert pred == best


def test_score_component_invariants(reference_compound_scores):
    classes = default_compound_classes(TABLE)
    out = random_heads(np.random.default_rng(1), 200)
    s = compound_scores(out, classes)
    assert s.total.shape == (200, len(classes))
    assert ((0.0 <= s.i_au) & (s.i_au <= 1.0)).all()
    assert ((0.0 <= s.f_emo) & (s.f_emo <= 1.0)).all()
    assert np.isin(s.d_va, (0.0, 1.0)).all()
    assert np.array_equal(s.total, s.i_au + s.f_emo + s.d_va)
    assert ((0.0 <= s.total) & (s.total <= 3.0)).all()
    ref = reference_compound_scores(out, classes)
    assert np.abs(np.stack([s.i_au, s.f_emo, s.d_va, s.total], axis=2) - ref).max() <= 1e-12


def test_compound_scores_match_reference(reference_compound_scores):
    rng = np.random.default_rng(3)
    for _ in range(20):
        classes = random_classes(rng, int(rng.integers(1, 12)))
        out = random_heads(rng, int(rng.integers(1, 60)))
        s = compound_scores(out, classes)
        ref = reference_compound_scores(out, classes)
        assert np.abs(np.stack([s.i_au, s.f_emo, s.d_va, s.total], axis=2) - ref).max() <= 1e-12
        assert np.array_equal(s.total, s.i_au + s.f_emo + s.d_va)
        assert np.array_equal(s.predicted, s.total.argmax(axis=1))


@pytest.mark.parametrize("drop, width", [("au", None), ("expr", None), ("va", None),
                                         ("au", 5), ("expr", 6), ("va", 1)])
def test_compound_scores_needs_default_heads(tmp_path, drop, width):
    """``compound_scores`` reads the va, expr and au heads at their default
    widths; a checkpoint that lacks one, or has it at another width, is
    refused when it is read, so it never reaches scoring."""
    m = MultiHeadModel(5, hidden=(4,))
    m.save(tmp_path / "model.bin")
    blob = (tmp_path / "model.bin").read_bytes()
    hlen = int.from_bytes(blob[:8], "little")
    header = json.loads(blob[8 : 8 + hlen])
    if width is None:
        del header["heads"][drop]
    else:
        header["heads"][drop][1] = width
    raw = json.dumps(header).encode()
    (tmp_path / "bad.bin").write_bytes(len(raw).to_bytes(8, "little") + raw + blob[8 + hlen :])
    with pytest.raises(DataError, match=f"{tmp_path / 'bad.bin'}: heads"):
        MultiHeadModel.load(tmp_path / "bad.bin")
    out, _ = m.forward(np.zeros((3, 5)))
    assert compound_scores(out, default_compound_classes(TABLE)).total.shape == (3, 11)


def test_i_au_monotonicity():
    classes = default_compound_classes(TABLE)
    rng = np.random.default_rng(2)
    for _ in range(50):
        au = rng.random(17)
        c = classes[int(rng.integers(len(classes)))]
        target_au = list(c.au_profile)[int(rng.integers(len(c.au_profile)))]
        before = compound_scores(heads(au=au), [c])
        au2 = au.copy()
        au2[AU_IDX[target_au]] = min(1.0, au2[AU_IDX[target_au]] + rng.uniform(0, 0.5))
        after = compound_scores(heads(au=au2), [c])
        assert after.i_au[0, 0] >= before.i_au[0, 0] - 1e-12


def test_default_profiles_from_table():
    classes = {c.name: c for c in default_compound_classes(TABLE)}
    hs = classes["happily_surprised"]
    assert hs.requires_positive_valence
    assert hs.au_profile[12] == 1.0  # prototypical for happiness
    assert hs.au_profile[5] == 0.66  # observational for surprise
    assert hs.au_profile[25] == 1.0  # prototypical for both constituents
    assert not classes["sadly_fearful"].requires_positive_valence


def test_profile_union_matches_table_lookup():
    # the union of the two emotions' table entries, larger weight on overlap
    for c in default_compound_classes(TABLE):
        union = {}
        for emo in (c.emo1, c.emo2):
            w = TABLE.weights[emo]
            for b in np.flatnonzero(w):
                au = CANONICAL_AUS[b]
                union[au] = max(union.get(au, 0.0), w[b])
        assert c.au_profile == union
    with pytest.raises(DataError):
        compound_class_from_emotions("x", 1, 7, TABLE)


def test_profile_needs_the_canonical_au_labels(tmp_path):
    # a table of two AU columns would put AU12 and AU25 at the profile's AU1 and AU2;
    # it is refused where it is read, so no profile is built from it
    happy = EMOTIONS.index("happiness")
    d = {**TABLE.to_dict(), "labels": ["AU12", "AU25"],
         "entries": {"happiness": {"AU12": 1.0}}}
    (tmp_path / "two.json").write_text(json.dumps(d))
    with pytest.raises(DataError, match="labels must be .* in that order"):
        RelatednessTable.load(tmp_path / "two.json")
    with pytest.raises(DataError, match="shape"):
        RelatednessTable(np.eye(7, 2), KIND_DOMAIN)
    profile = compound_class_from_emotions("x", happy, 6, TABLE).au_profile
    assert {12, 25} <= profile.keys()


def test_profile_needs_the_canonical_emotion_order(tmp_path):
    # the same entries under the classes listed in reverse: index 0 would be surprise
    d = TABLE.to_dict()
    d["classes"] = d["classes"][::-1]
    (tmp_path / "reversed.json").write_text(json.dumps(d))
    with pytest.raises(DataError, match="classes must be .* in that order"):
        RelatednessTable.load(tmp_path / "reversed.json")


def test_profile_file_round_trip(tmp_path):
    classes = default_compound_classes(TABLE)
    p = tmp_path / "profiles.json"
    save_compound_profiles(p, classes)
    back = load_compound_profiles(p)
    assert [c.name for c in back] == [c.name for c in classes]
    assert back[0].au_profile == classes[0].au_profile
    empty = tmp_path / "empty.json"
    empty.write_text("[]")
    with pytest.raises(DataError):
        load_compound_profiles(empty)


@pytest.mark.parametrize("payload", [
    {"name": "x"},
    ["not an object"],
    [{"name": "x", "emo1": 1, "emo2": 2}],
    [{"name": "x", "emo1": 1, "emo2": 2, "aus": [12]}],
    [{"name": "x", "emo1": 1, "emo2": 2, "aus": {"AU12": 1.0}}],
    [{"name": "x", "emo1": 1, "emo2": 2, "aus": {"1_2": 1.0}}],
    [{"name": "x", "emo1": 1, "emo2": 2, "aus": {"12": 0.2, "012": 1.0}}],
    [{"name": "x", "emo1": 1, "emo2": 2, "aus": {"12": "high"}}],
    [{"name": "x", "emo1": 1, "emo2": 7, "aus": {"12": 1.0}}],
    [{"name": "x", "emo1": -1, "emo2": 2, "aus": {"12": 1.0}}],
    [{"name": "x", "emo1": "1", "emo2": 2, "aus": {"12": 1.0}}],
    [{"name": "x", "emo1": 1, "emo2": 2, "aus": {"12": 1.0}, "positive_valence": "false"}],
    [{"name": "x", "emo1": 1, "emo2": 2, "aus": {"12": 1.0}, "positive_valance": True}],
    [{"name": "x", "emo1": 1, "emo2": 2, "aus": {"12": 1.0}},
     {"name": "x", "emo1": 3, "emo2": 2, "aus": {"12": 1.0}}],
])
def test_malformed_profile_file_is_a_data_error(tmp_path, payload):
    p = tmp_path / "profiles.json"
    p.write_text(json.dumps(payload))
    with pytest.raises(DataError, match="profiles.json"):
        load_compound_profiles(p)


def test_profile_file_with_a_repeated_key_is_a_data_error(tmp_path):
    p = tmp_path / "profiles.json"
    p.write_text('[{"name": "x", "emo1": 1, "emo2": 2, "aus": {"12": 0.2, "12": 1.0}}]')
    with pytest.raises(DataError, match="repeated key '12'"):
        load_compound_profiles(p)
