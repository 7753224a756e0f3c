import json

import numpy as np
import pytest

from affectmtl import (
    CANONICAL_AUS,
    EMOTIONS,
    CompoundProfiles,
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


def profiles(*classes):
    """``CompoundProfiles`` of ``(name, emo1, emo2, {AU number: weight}[, positive])`` rows."""
    weights = np.zeros((len(classes), 17))
    for k, c in enumerate(classes):
        for au, w in c[3].items():
            weights[k, AU_IDX[au]] = w
    return CompoundProfiles([c[0] for c in classes], [c[1:3] for c in classes], weights,
                            [len(c) > 4 and c[4] for c in classes])


def test_compound_profiles_validation():
    """Each refused array: an equal pair, an index outside 0..6, a float or bool
    index, an empty or short profile row, a weight above 1 or below 0, a flag
    that is not a bool, a name that is no string or is empty, a repeated name."""
    weights = profiles(("x", 1, 2, {12: 1.0})).weights.copy()
    CompoundProfiles(("x",), [[1, 2]], weights, [False])
    cases = [
        ({"pairs": [[1, 1]]}, "must differ"),
        ({"pairs": [[-1, 2]]}, "emotion index"),
        ({"pairs": [[1, 7]]}, "emotion index"),
        ({"pairs": [[1.0, 2.0]]}, "pairs"),
        ({"pairs": [[True, False]]}, "pairs"),
        ({"pairs": [["1", "2"]]}, "pairs"),
        ({"pairs": [1, 2]}, "pairs"),
        ({"weights": np.zeros((1, 17))}, "empty AU profile"),
        ({"weights": weights[:, :16]}, "weights"),  # no column for the last AU
        ({"weights": weights * 1.5}, "outside"),
        ({"weights": -weights}, "outside"),
        ({"weights": weights * np.nan}, "outside"),
        ({"weights": weights.astype(str)}, "weights"),
        ({"weights": weights.astype(bool)}, "weights"),
        ({"weights": weights.astype(object)}, "weights"),
        ({"positive": ["false"]}, "positive"),
        ({"positive": [1]}, "positive"),
        ({"positive": False}, "positive"),
        ({"names": (None,)}, "compound name"),
        ({"names": ("",)}, "must not be empty"),
        ({"names": ("x", "x"), "pairs": [[1, 2]] * 2, "weights": np.vstack([weights] * 2),
          "positive": [False] * 2}, "listed more than once"),
        ({"names": (), "pairs": np.zeros((0, 2), int), "weights": np.zeros((0, 17)),
          "positive": np.zeros(0, bool)}, "no compound classes"),
    ]
    for change, match in cases:
        fields = {"names": ("x",), "pairs": [[1, 2]], "weights": weights, "positive": [False],
                  **change}
        with pytest.raises(DataError, match=match):
            CompoundProfiles(**fields)


def test_compound_profiles_hold_read_only_copies():
    pairs, weights, positive = np.array([[4, 6]]), np.zeros((1, 17)), np.array([True])
    weights[0, AU_IDX[12]] = 0.5
    p = CompoundProfiles(np.array(["hs"]), pairs, weights, positive)
    pairs[0, 0], weights[0, 0], positive[0] = 1, 1.0, False
    assert (p.names, p.pairs.tolist(), p.positive.tolist()) == (("hs",), [[4, 6]], [True])
    assert p.weights[0].tolist() == [0.5 if b == AU_IDX[12] else 0.0 for b in range(17)]
    for a in (p.pairs, p.weights, p.positive):
        with pytest.raises(ValueError, match="read-only"):
            a[0] = 0
    with pytest.raises(AttributeError):
        p.names = ("x",)


def test_i_au_perfect_match():
    c = profiles(("hs", 4, 6, {12: 1.0, 25: 1.0}))
    au = np.zeros(17)
    au[AU_IDX[12]] = au[AU_IDX[25]] = 1.0
    score = compound_scores(heads(au=au), c)
    assert score.i_au[0, 0] == pytest.approx(1.0)


def test_f_emo_sum():
    happy, surprised = EMOTIONS.index("happiness"), EMOTIONS.index("surprise")
    expr = np.zeros(7)
    expr[happy], expr[surprised] = 0.5, 0.3
    expr[0] = 0.2
    c = profiles(("happily_surprised", happy, surprised, {12: 1.0}))
    score = compound_scores(heads(expr=expr), c)
    assert score.f_emo[0, 0] == pytest.approx(0.8)


def test_valence_sign_rule():
    c = profiles(("hs", 4, 6, {12: 1.0}, True))
    neg = compound_scores(heads(va=(-0.2, 0.0)), c)
    pos = compound_scores(heads(va=(0.2, 0.0)), c)
    assert neg.d_va[0, 0] == 0.0 and pos.d_va[0, 0] == 1.0
    unflagged = profiles(("sf", 3, 5, {4: 1.0}))
    s = compound_scores(heads(va=(0.9, 0.0)), unflagged)
    assert s.d_va[0, 0] == 0.0


def test_predict_compound_argmax_and_ties():
    # totals 1.2, 2.4 and 0.3 with no valence bonus
    au = np.zeros(17)
    au[AU_IDX[12]], au[AU_IDX[4]] = 0.2, 0.4
    expr = np.zeros(7)
    expr[[0, 1, 2, 4]] = 0.5, 0.5, 0.2, 0.1
    classes = profiles(("a", 0, 1, {12: 1.0}), ("b", 0, 1, {4: 1.0}, True), ("c", 2, 4, {1: 1.0}))
    s = compound_scores(heads(expr=expr, au=au, va=(0.5, 0.0)), classes)
    assert s.total[0] == pytest.approx([1.2, 2.4, 0.3])
    assert s.predicted.tolist() == [1]
    tied = profiles(("x", 0, 1, {12: 1.0}), ("y", 0, 1, {12: 1.0}))
    assert compound_scores(heads(expr=expr, au=au), tied).predicted.tolist() == [0]
    with pytest.raises(DataError):  # no class to score
        profiles()


def random_classes(rng, k):
    """``k`` random compound classes, each named apart; about a third repeat the
    profile of an earlier one."""
    classes = []
    for i in range(k):
        if classes and rng.random() < 0.3:
            classes.append((f"c{i}", *classes[int(rng.integers(len(classes)))][1:]))
            continue
        e1, e2 = rng.choice(7, size=2, replace=False)
        aus = rng.choice(CANONICAL_AUS, size=int(rng.integers(1, 6)), replace=False)
        profile = {int(au): float(w) for au, w in zip(aus, rng.uniform(0.05, 1.0, len(aus)))}
        classes.append((f"c{i}", int(e1), int(e2), profile, bool(rng.random() < 0.5)))
    return profiles(*classes)


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
    assert s.total.shape == (200, len(classes.names))
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
        k = int(rng.integers(len(classes.names)))
        profile_aus = np.flatnonzero(classes.weights[k])
        target = profile_aus[int(rng.integers(len(profile_aus)))]
        before = compound_scores(heads(au=au), classes)
        au2 = au.copy()
        au2[target] = min(1.0, au2[target] + rng.uniform(0, 0.5))
        after = compound_scores(heads(au=au2), classes)
        assert after.i_au[0, k] >= before.i_au[0, k] - 1e-12


def test_default_profiles_from_table():
    classes = default_compound_classes(TABLE)
    hs = classes.names.index("happily_surprised")
    assert classes.positive[hs]
    assert classes.weights[hs, AU_IDX[12]] == 1.0  # prototypical for happiness
    assert classes.weights[hs, AU_IDX[5]] == 0.66  # observational for surprise
    assert classes.weights[hs, AU_IDX[25]] == 1.0  # prototypical for both constituents
    assert not classes.positive[classes.names.index("sadly_fearful")]


def test_profile_union_matches_table_lookup():
    # the union of the two emotions' table entries, larger weight on overlap
    classes = default_compound_classes(TABLE)
    for pair, row in zip(classes.pairs.tolist(), classes.weights.tolist()):
        union = {}
        for emo in pair:
            w = TABLE.weights[emo]
            for b in np.flatnonzero(w):
                au = CANONICAL_AUS[b]
                union[au] = max(union.get(au, 0.0), w[b])
        assert {au: w for au, w in zip(CANONICAL_AUS, row) if w} == union
    with pytest.raises(DataError, match="emotion index"):  # no table row 7
        CompoundProfiles(("x",), [[1, 7]], TABLE.weights[[1]], [False])


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
    classes = default_compound_classes(TABLE)
    hs = classes.names.index("happily_surprised")
    assert classes.pairs[hs].tolist() == [happy, EMOTIONS.index("surprise")]
    assert classes.weights[hs, [AU_IDX[12], AU_IDX[25]]].all()


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
    assert back.names == classes.names
    for field in ("pairs", "weights", "positive"):
        assert np.array_equal(getattr(back, field), getattr(classes, field))
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
    [{"name": "", "emo1": 1, "emo2": 2, "aus": {"12": 1.0}}],
    [{"name": "x", "emo1": 1, "emo2": 2, "aus": {"12": 0.0}}],
    [{"name": "x", "emo1": 1, "emo2": 2, "aus": {"12": 1.0}, "positive_valence": 1}],
    [{"name": "x", "emo1": 1.0, "emo2": 2, "aus": {"12": 1.0}}],
    [{"name": "x", "emo1": True, "emo2": 2, "aus": {"12": 1.0}}],
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


def test_profile_file_save_of_a_load_rewrites_its_bytes(tmp_path):
    p, again = tmp_path / "profiles.json", tmp_path / "again.json"
    save_compound_profiles(p, default_compound_classes(TABLE))
    save_compound_profiles(again, load_compound_profiles(p))
    assert again.read_bytes() == p.read_bytes()
