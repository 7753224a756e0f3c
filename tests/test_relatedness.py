import copy
import json
from importlib import resources

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from affectmtl import relatedness as rel
from affectmtl import (
    AU_LABELS,
    CANONICAL_AUS,
    EMOTIONS,
    DataError,
    RelatednessTable,
    domain_table,
    infer_empirical,
)

AU_IDX = {au: i for i, au in enumerate(CANONICAL_AUS)}


def entries_by_au(table, emotion):
    k = EMOTIONS.index(emotion)
    w = table.weights[k]
    return {CANONICAL_AUS[b]: (w[b], table.prototypical[k, b]) for b in np.flatnonzero(w)}


def weights_by_au(table, k):
    """AU number -> weight of each entry of class ``k``."""
    w = table.weights[k]
    return {CANONICAL_AUS[b]: w[b] for b in np.flatnonzero(w)}


def test_canonical_au_set_has_17_members():
    assert len(CANONICAL_AUS) == 17
    assert list(CANONICAL_AUS) == sorted(CANONICAL_AUS)


def test_domain_table_happiness():
    got = entries_by_au(domain_table(), "happiness")
    assert got == {12: (1.0, True), 25: (1.0, True), 6: (0.51, False)}


def test_domain_table_disgust():
    got = entries_by_au(domain_table(), "disgust")
    assert got == {
        9: (1.0, True), 10: (1.0, True), 17: (1.0, True),
        4: (0.31, False), 24: (0.26, False),
    }


def test_domain_table_surprise_and_fear():
    surprise = entries_by_au(domain_table(), "surprise")
    assert surprise == {
        1: (1.0, True), 2: (1.0, True), 25: (1.0, True), 26: (1.0, True),
        5: (0.66, False),
    }
    fear = entries_by_au(domain_table(), "fear")
    assert fear[2] == (0.57, False)
    assert fear[5] == (0.63, False)


def test_neutral_has_empty_entry():
    table = domain_table()
    neutral = EMOTIONS.index("neutral")
    assert not table.weights[neutral].any()
    assert not table.prototypical[neutral].any()


def test_load_domain_table_rejects_unknown_class(tmp_path):
    src = {
        "classes": list(EMOTIONS),
        "labels": list(AU_LABELS),
        "table": [{"class": "joy", "prototypical": ["AU12"], "observational": {}}],
    }
    p = tmp_path / "t.json"
    p.write_text(json.dumps(src))
    with pytest.raises(DataError, match="unknown class 'joy'"):
        RelatednessTable.load(p)


def test_load_domain_table_rejects_bad_weight_and_duplicates(tmp_path):
    base = {
        "classes": list(EMOTIONS),
        "labels": list(AU_LABELS),
        "table": [{"class": "happiness", "prototypical": [], "observational": {"AU6": 1.3}}],
    }
    p = tmp_path / "t.json"
    p.write_text(json.dumps(base))
    with pytest.raises(DataError, match="weight 1.3"):
        RelatednessTable.load(p)
    base["table"] = [
        {"class": "happiness", "prototypical": ["AU12"], "observational": {}},
        {"class": "happiness", "prototypical": ["AU25"], "observational": {}},
    ]
    p.write_text(json.dumps(base))
    with pytest.raises(DataError, match="duplicate class 'happiness'"):
        RelatednessTable.load(p)
    base["table"] = [{"class": "happiness", "prototypical": ["AU99"], "observational": {}}]
    p.write_text(json.dumps(base))
    with pytest.raises(DataError, match="unknown label 'AU99'"):
        RelatednessTable.load(p)


@pytest.mark.parametrize("row", [
    {"class": "happiness", "prototypical": ["AU6", "AU12"], "observational": {"AU6": 0.5}},
    {"class": "happiness", "prototypical": ["AU6", "AU6"], "observational": {}},
])
def test_load_domain_table_rejects_an_au_named_twice_in_a_row(tmp_path, row):
    """A row names each AU once: else the later list would win without a word."""
    p = tmp_path / "t.json"
    p.write_text(json.dumps({"classes": list(EMOTIONS), "labels": list(AU_LABELS), "table": [row]}))
    with pytest.raises(DataError, match=f"{p}: class 'happiness' names AU6 more than once"):
        RelatednessTable.load(p)


def _corpus(samples):
    """The expression and AU columns of (class index, AU vector) pairs."""
    return np.array([k for k, _ in samples]), np.array([au for _, au in samples])


def test_infer_empirical_counting():
    happy = EMOTIONS.index("happiness")
    samples = []
    for i in range(10):
        au = np.zeros(17)
        au[AU_IDX[12]] = 1.0 if i < 8 else 0.0
        samples.append((happy, au))
    table = infer_empirical(*_corpus(samples), threshold=0.1)
    got = weights_by_au(table, EMOTIONS.index("happiness"))
    assert got[12] == pytest.approx(0.8)
    # every other AU was annotated inactive -> weight 0 < threshold -> absent
    assert set(got) == {12}


def test_infer_empirical_threshold_and_saturation():
    happy = EMOTIONS.index("happiness")
    samples = []
    for i in range(20):
        au = np.full(17, np.nan)
        au[AU_IDX[12]] = 1.0  # always active -> weight exactly 1.0
        au[AU_IDX[6]] = 1.0 if i == 0 else 0.0  # 5% < threshold -> dropped
        samples.append((happy, au))
    table = infer_empirical(*_corpus(samples), threshold=0.1)
    got = weights_by_au(table, happy)
    assert got == {12: 1.0}


def test_infer_empirical_permutation_invariant():
    rng = np.random.default_rng(3)
    samples = []
    for _ in range(200):
        emo = int(rng.integers(1, 7))
        au = np.where(rng.random(17) < 0.5, (rng.random(17) < 0.4).astype(float), np.nan)
        if np.all(np.isnan(au)):
            au[0] = 1.0
        samples.append((emo, au))
    t1 = infer_empirical(*_corpus(samples))
    shuffled = list(samples)
    rng.shuffle(shuffled)
    t2 = infer_empirical(*_corpus(shuffled))
    assert t1.to_json() == t2.to_json()


def test_infer_empirical_keeps_every_class():
    happy = EMOTIONS.index("happiness")
    sad = EMOTIONS.index("sadness")
    au = np.zeros(17)
    au[0] = 1.0
    samples = [(happy, au), (sad, np.full(17, np.nan))]
    table = infer_empirical(*_corpus(samples))
    # sadness has no annotated AU and anger no sample: both keep an empty row
    assert table.weights.shape == (len(EMOTIONS), len(CANONICAL_AUS))
    assert table.to_dict()["classes"] == list(EMOTIONS)
    assert weights_by_au(table, sad) == {} and weights_by_au(table, EMOTIONS.index("anger")) == {}
    assert list(weights_by_au(table, happy)) == [CANONICAL_AUS[0]]
    assert RelatednessTable.from_dict(table.to_dict()) == table


def test_serialization_round_trip(tmp_path):
    table = domain_table()
    p = tmp_path / "table.json"
    table.save(p)
    assert RelatednessTable.load(p) == table
    # byte-for-byte deterministic
    assert table.to_json() == domain_table().to_json()


# The two file forms that ``RelatednessTable.load`` reads.
SOURCE = json.loads(
    resources.files("affectmtl.data").joinpath("emotion_au_relatedness.json").read_text())
SAVED = domain_table().to_dict()


def test_load_reads_both_file_forms(tmp_path):
    for name, form in (("source.json", SOURCE), ("saved.json", SAVED)):
        (tmp_path / name).write_text(json.dumps(form))
        assert RelatednessTable.load(tmp_path / name) == domain_table()


def test_array_form_matches_the_table_entries():
    table = domain_table()
    assert table.weights.shape == table.prototypical.shape == (7, 17)
    with pytest.raises(ValueError):
        table.weights[0, 0] = 1.0  # the arrays are read-only


def _set(form: dict, path: tuple, value) -> dict:
    """A copy of ``form`` with the value at ``path`` (keys and list indices)
    replaced; the empty path replaces the whole document."""
    if not path:
        return value
    d = copy.deepcopy(form)
    node = d
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return d


@pytest.mark.parametrize("form, path, value", [
    (SAVED, (), {"entries": []}),
    (SAVED, ("entries",), []),
    (SAVED, ("entries", "happiness"), []),
    (SAVED, ("entries", "happiness", "AU12", "w"), True),
    (SAVED, ("entries", "happiness", "AU12", "w"), "0.5"),
    (SAVED, ("entries", "happiness", "AU6", "w"), 0.0),
    (SAVED, ("entries", "happiness", "AU12", "proto"), "no"),
    (SAVED, ("entries", "happiness", "AU6", "proto"), True),  # a prototypical weight below 1
    (SAVED, ("entries", "joy"), {}),
    (SAVED, ("kind",), "expert"),
    (SAVED, ("classes",), ["neutral", "neutral"]),
    (SAVED, ("extra",), 1),
    (SOURCE, ("table", 0, "observational"), ["AU6"]),
    (SOURCE, ("table", 0, "observational", "AU6"), False),
    (SOURCE, ("table", 0, "prototypical"), "AU12"),
    (SOURCE, ("table", 0), ["happiness"]),
    (SOURCE, ("labels",), "AU1"),
    (SOURCE, ("labels", 0), 1),
    ([], (), "not a table"),
])
def test_load_rejects_a_malformed_value(tmp_path, form, path, value):
    p = tmp_path / "t.json"
    p.write_text(json.dumps(_set(form, path, value)))
    with pytest.raises(DataError, match=str(p)):
        RelatednessTable.load(p)


@pytest.mark.parametrize("form", [SOURCE, SAVED], ids=["source", "saved"])
@pytest.mark.parametrize("key, names", [
    ("classes", list(EMOTIONS)[::-1]), ("classes", list(EMOTIONS)[1:]),
    ("classes", [*EMOTIONS, "contempt"]), ("labels", list(AU_LABELS)[::-1]),
    ("labels", ["AU12", "AU25"]), ("labels", [f"AU{n}" for n in range(1, 18)]),
], ids=["reversed_classes", "six_classes", "eight_classes", "reversed_labels", "two_labels",
        "other_labels"])
def test_load_needs_the_canonical_classes_and_labels_in_order(tmp_path, form, key, names):
    """Row k is EMOTIONS[k] and column b is AU_LABELS[b] in every table, so a
    file listing other names, or the same ones in another order, is refused."""
    p = tmp_path / "t.json"
    p.write_text(json.dumps({**form, key: names}))
    with pytest.raises(DataError, match=f"{p}: {key} must be .* in that order"):
        RelatednessTable.load(p)


def test_a_repeated_key_is_rejected(tmp_path, monkeypatch):
    # the first value of a repeated key would be dropped without a word
    text = '{"kind": "domain", ' + json.dumps(SAVED)[1:]
    p = tmp_path / "t.json"
    p.write_text(text)
    with pytest.raises(DataError, match="repeated key 'kind'"):
        RelatednessTable.load(p)
    (tmp_path / "emotion_au_relatedness.json").write_text(text)
    monkeypatch.setattr(rel.resources, "files", lambda package: tmp_path)
    with pytest.raises(DataError, match="cannot read relatedness table .*repeated key 'kind'"):
        domain_table()



@pytest.mark.parametrize("blob", [None, b"{not json", b"[]"], ids=["missing", "not JSON", "a list"])
def test_a_damaged_bundled_table_is_a_data_error(tmp_path, monkeypatch, blob):
    """The bundled table is read like any table file: damage is a data error that names it."""
    if blob is not None:
        (tmp_path / "emotion_au_relatedness.json").write_bytes(blob)
    monkeypatch.setattr(rel.resources, "files", lambda package: tmp_path)
    with pytest.raises(DataError, match=f"relatedness table {tmp_path}"):
        domain_table()

def _paths(node, path=()):
    """The path of every value in a JSON document, the document's own first."""
    yield path
    children = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(
        node, list) else ()
    for key, child in children:
        yield from _paths(child, (*path, key))


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 3) | st.floats() | st.text(max_size=5)
    | st.sampled_from(["AU6", "AU12", "happiness", "empirical"]),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=5), inner, max_size=3),
    max_leaves=6,
)


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_load_mutated_file(tmp_path_factory, data):
    """Whatever one value of a valid file of either form is replaced by,
    ``load`` returns a table that round-trips, or raises a DataError naming
    the file."""
    form = data.draw(st.sampled_from([SOURCE, SAVED]))
    path = data.draw(st.sampled_from(list(_paths(form))))
    p = tmp_path_factory.getbasetemp() / "mutated_table.json"
    p.write_text(json.dumps(_set(form, path, data.draw(JSON_VALUES))))
    try:
        table = RelatednessTable.load(p)
    except DataError as e:
        assert str(p) in str(e)
    else:
        assert RelatednessTable.from_dict(table.to_dict()) == table
