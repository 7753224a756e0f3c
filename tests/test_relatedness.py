import json

import numpy as np
import pytest

from affectmtl import (
    AU_LABELS,
    CANONICAL_AUS,
    EMOTIONS,
    DataError,
    RelatednessTable,
    domain_table,
    infer_empirical,
    load_domain_table,
)

AU_IDX = {au: i for i, au in enumerate(CANONICAL_AUS)}


def entries_by_au(table, emotion):
    return {
        CANONICAL_AUS[e.index]: (e.weight, e.prototypical)
        for e in table.lookup(EMOTIONS.index(emotion))
    }


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
    assert domain_table().lookup(EMOTIONS.index("neutral")) == ()


def test_lookup_invalid_index():
    with pytest.raises(DataError):
        domain_table().lookup(7)
    with pytest.raises(DataError):
        domain_table().lookup(-1)


def test_load_domain_table_rejects_unknown_class(tmp_path):
    src = {
        "classes": ["neutral", "happiness"],
        "labels": list(AU_LABELS),
        "table": [{"class": "joy", "prototypical": ["AU12"], "observational": {}}],
    }
    p = tmp_path / "t.json"
    p.write_text(json.dumps(src))
    with pytest.raises(DataError):
        load_domain_table(p)


def test_load_domain_table_rejects_bad_weight_and_duplicates(tmp_path):
    base = {
        "classes": ["happiness"],
        "labels": list(AU_LABELS),
        "table": [{"class": "happiness", "prototypical": [], "observational": {"AU6": 1.3}}],
    }
    p = tmp_path / "t.json"
    p.write_text(json.dumps(base))
    with pytest.raises(DataError):
        load_domain_table(p)
    base["table"] = [
        {"class": "happiness", "prototypical": ["AU12"], "observational": {}},
        {"class": "happiness", "prototypical": ["AU25"], "observational": {}},
    ]
    p.write_text(json.dumps(base))
    with pytest.raises(DataError):
        load_domain_table(p)
    base["table"] = [{"class": "happiness", "prototypical": ["AU99"], "observational": {}}]
    p.write_text(json.dumps(base))
    with pytest.raises(DataError):
        load_domain_table(p)


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
    got = {CANONICAL_AUS[e.index]: e.weight for e in table.lookup(table.class_names.index("happiness"))}
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
    got = {CANONICAL_AUS[e.index]: e.weight for e in table.lookup(happy)}
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
    assert table.class_names == EMOTIONS
    assert table.lookup(sad) == () and table.lookup(EMOTIONS.index("anger")) == ()
    assert [e.index for e in table.lookup(happy)] == [0]
    assert RelatednessTable.from_dict(table.to_dict()) == table


def test_serialization_round_trip(tmp_path):
    table = domain_table()
    p = tmp_path / "table.json"
    table.save(p)
    assert RelatednessTable.load(p) == table
    # byte-for-byte deterministic
    assert table.to_json() == domain_table().to_json()


def test_weight_matrix_modes():
    table = domain_table()
    r_unit = table.weight_matrix(reweight=False)
    r_w = table.weight_matrix(reweight=True)
    happy = EMOTIONS.index("happiness")
    assert r_unit[happy, AU_IDX[6]] == 1.0
    assert r_w[happy, AU_IDX[6]] == 0.51
    assert r_w[happy, AU_IDX[12]] == 1.0
    assert r_unit[EMOTIONS.index("neutral")].sum() == 0.0
