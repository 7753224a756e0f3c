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
    """AU number -> (weight, prototypical) of each entry of ``emotion``; in a
    domain table an entry is prototypical exactly when its weight is 1.0."""
    w = table.weights[EMOTIONS.index(emotion)]
    return {CANONICAL_AUS[b]: (w[b], w[b] == 1.0) for b in np.flatnonzero(w)}


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
    assert "neutral" not in table.to_dict()["entries"]


def _table_file(tmp_path, entries: str):
    """A domain table file whose ``entries`` object is the JSON text ``entries``,
    written as is so that it may repeat a key."""
    head = json.dumps({"classes": list(EMOTIONS), "labels": list(AU_LABELS),
                       "kind": "prototypical_observational"})
    p = tmp_path / "t.json"
    p.write_text(head[:-1] + ', "entries": ' + entries + "}")
    return p


def test_load_domain_table_rejects_unknown_class(tmp_path):
    p = _table_file(tmp_path, '{"joy": {"AU12": 1.0}}')
    with pytest.raises(DataError, match="unknown class 'joy'"):
        RelatednessTable.load(p)


def test_load_domain_table_rejects_bad_weight_and_duplicates(tmp_path):
    p = _table_file(tmp_path, '{"happiness": {"AU6": 1.3}}')
    with pytest.raises(DataError, match="weight 1.3"):
        RelatednessTable.load(p)
    # a class given twice is a repeated key, refused before any entry is read
    p = _table_file(tmp_path, '{"happiness": {"AU12": 1.0}, "happiness": {"AU25": 1.0}}')
    with pytest.raises(DataError, match="repeated key 'happiness'"):
        RelatednessTable.load(p)
    p = _table_file(tmp_path, '{"happiness": {"AU99": 1.0}}')
    with pytest.raises(DataError, match="unknown label 'AU99'"):
        RelatednessTable.load(p)


@pytest.mark.parametrize("row", [
    [("AU6", 1.0), ("AU12", 1.0), ("AU6", 0.5)],
    [("AU6", 1.0), ("AU6", 1.0)],
])
def test_load_domain_table_rejects_an_au_named_twice_in_a_row(tmp_path, row):
    """A class names each AU once: else the later weight would win without a word."""
    p = _table_file(tmp_path, '{"happiness": {%s}}' % ", ".join(f'"{a}": {w}' for a, w in row))
    with pytest.raises(DataError, match=f"cannot read relatedness table {p}: repeated key 'AU6'"):
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


# The one file form that ``RelatednessTable.load`` reads, as the bundled file
# holds it (SOURCE) and as ``save`` writes it (SAVED)
BUNDLED = resources.files("affectmtl.data").joinpath("emotion_au_relatedness.json")
SOURCE = json.loads(BUNDLED.read_text())
SAVED = domain_table().to_dict()


def test_bundled_file_is_what_save_writes(tmp_path):
    domain_table().save(tmp_path / "saved.json")
    assert BUNDLED.read_bytes() == (tmp_path / "saved.json").read_bytes()


def test_load_reads_both_file_forms(tmp_path):
    """The bundled file and a saved table of either kind load back equal."""
    empirical = infer_empirical(np.array([4, 4]), np.array([np.eye(17)[9], np.zeros(17)]))
    for name, table in (("domain.json", domain_table()), ("empirical.json", empirical)):
        table.save(tmp_path / name)
        assert RelatednessTable.load(tmp_path / name) == table
    assert RelatednessTable.from_dict(SOURCE) == domain_table()
    assert empirical != domain_table() and empirical.weights[4, 9] == 0.5


def test_array_form_matches_the_table_entries():
    table = domain_table()
    assert table.weights.shape == (7, 17)
    assert not hasattr(table, "prototypical")  # a prototypical entry is one of weight 1.0
    with pytest.raises(ValueError):
        table.weights[0, 0] = 1.0  # the array is read-only


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
    (SAVED, ("entries", "happiness", "AU12"), True),
    (SAVED, ("entries", "happiness", "AU12"), "0.5"),
    (SAVED, ("entries", "happiness", "AU6"), 0.0),
    (SAVED, ("entries", "happiness", "AU12"), {"w": 1.0, "proto": True}),  # an old entry
    (SAVED, ("entries", "happiness", "AU6"), float("nan")),
    (SAVED, ("entries", "joy"), {}),
    (SAVED, ("kind",), "expert"),
    (SAVED, ("classes",), ["neutral", "neutral"]),
    (SAVED, ("extra",), 1),
    (SAVED, ("entries", "happiness"), ["AU6"]),
    (SAVED, ("entries", "happiness", "AU6"), False),
    (SAVED, ("entries", "happiness"), "AU12"),
    (SAVED, ("entries",), ["happiness"]),
    (SAVED, ("labels",), "AU1"),
    (SAVED, ("labels", 0), 1),
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
    """Whatever one value of a valid table file is replaced by, ``load``
    returns a table that round-trips, or raises a DataError naming the file."""
    path = data.draw(st.sampled_from(list(_paths(SAVED))))
    p = tmp_path_factory.getbasetemp() / "mutated_table.json"
    p.write_text(json.dumps(_set(SAVED, path, data.draw(JSON_VALUES))))
    try:
        table = RelatednessTable.load(p)
    except DataError as e:
        assert str(p) in str(e)
    else:
        assert RelatednessTable.from_dict(table.to_dict()) == table
