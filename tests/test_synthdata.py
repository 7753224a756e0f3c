import numpy as np
import pytest

from affectmtl import CANONICAL_AUS, EMOTIONS, DataError, domain_table, infer_empirical
from affectmtl.labels import clean_va_expr
from affectmtl.synthdata import GeneratorSpec, draw, split

AU_IDX = {au: i for i, au in enumerate(CANONICAL_AUS)}
TABLE = domain_table()


def test_generated_va_passes_cleaning():
    spec = GeneratorSpec(relatedness=TABLE, noise_scale=0.3, seed=1)
    samples = draw(spec, 500)
    assert clean_va_expr(samples.expr, samples.va).all()  # none removed


def test_partition_disjoint_and_label_stripping():
    spec = GeneratorSpec(relatedness=TABLE, seed=2)
    va_set, au_set, expr_set = split(draw(spec, 300))
    ids = [i for group in (va_set, au_set, expr_set) for i in group.ids]
    assert len(ids) == len(set(ids)) == 300
    assert len(va_set.va_rows) == len(va_set) and not va_set.expr_rows.size
    assert not va_set.au_rows.size
    assert len(au_set.au_rows) == len(au_set) and not au_set.va_rows.size
    assert not au_set.expr_rows.size
    assert len(expr_set.expr_rows) == len(expr_set) and not expr_set.va_rows.size
    assert not expr_set.au_rows.size


def test_prototypical_au_always_active():
    spec = GeneratorSpec(relatedness=TABLE, seed=3)
    happy = EMOTIONS.index("happiness")
    samples = draw(spec, 800)
    au = samples.au[samples.expr == happy]
    assert len(au)
    assert (au[:, AU_IDX[12]] == 1.0).all()  # Bernoulli(1)


def test_identity_map_embeds_labels():
    spec = GeneratorSpec(
        relatedness=TABLE, noise_scale=0.0, feature_dim=26, feature_map="identity", seed=4
    )
    samples = draw(spec, 200)
    # emotion is readable straight off the first 7 feature coordinates
    correct = (np.argmax(samples.features[:, :7], axis=1) == samples.expr).sum()
    assert correct == len(samples)


def test_empirical_recovery():
    spec = GeneratorSpec(relatedness=TABLE, seed=0)
    corpus = draw(spec, 10_000)
    inferred = infer_empirical(corpus.expr, corpus.au, threshold=0.05)
    r_true = TABLE.weight_matrix(reweight=True)
    for cname in inferred.class_names:
        k_true = EMOTIONS.index(cname)
        k_inf = inferred.class_names.index(cname)
        got = {e.index: e.weight for e in inferred.lookup(k_inf)}
        for b in range(17):
            if r_true[k_true, b] >= 0.1:
                assert got.get(b, 0.0) == pytest.approx(r_true[k_true, b], abs=0.03)


def test_determinism():
    spec = GeneratorSpec(relatedness=TABLE, seed=6)
    a = draw(spec, 50)
    b = draw(GeneratorSpec(relatedness=TABLE, seed=6), 50)
    assert np.array_equal(a.features, b.features)
    assert np.array_equal(a.va, b.va) and np.array_equal(a.expr, b.expr)
    assert np.array_equal(a.au, b.au)


def test_frames_per_video():
    spec = GeneratorSpec(relatedness=TABLE, seed=7, frames_per_video=10)
    samples = draw(spec, 25)
    assert (samples.video[0], samples.frame[0]) == ("vid00000", 0)
    assert (samples.video[24], samples.frame[24]) == ("vid00002", 4)


def test_bad_specs_rejected():
    with pytest.raises(DataError):
        GeneratorSpec(relatedness=TABLE, class_prior=np.zeros(7))
    from affectmtl.synthdata import DEFAULT_VA_MEANS

    with pytest.raises(DataError):
        GeneratorSpec(
            relatedness=TABLE,
            va_means={**DEFAULT_VA_MEANS, "happiness": (-0.5, 0.0)},
        )
    with pytest.raises(DataError):
        GeneratorSpec(relatedness=TABLE, feature_map="identity", feature_dim=10)
    with pytest.raises(DataError):
        split(draw(GeneratorSpec(relatedness=TABLE), 30), partition=(0.5, 0.5, 0.5))
