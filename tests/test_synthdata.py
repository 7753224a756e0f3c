from dataclasses import fields

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
    # the rows carrying (expr, AU, VA) labels: each set carries its own label alone
    for data, carried in zip((va_set, au_set, expr_set), ((0, 0, 1), (0, 1, 0), (1, 0, 0))):
        assert [len(rows) for rows in data.label_rows()] == [c * len(data) for c in carried]


def test_prototypical_au_always_active():
    spec = GeneratorSpec(relatedness=TABLE, seed=3)
    happy = EMOTIONS.index("happiness")
    samples = draw(spec, 800)
    au = samples.au[samples.expr == happy]
    assert len(au)
    assert (au[:, AU_IDX[12]] == 1.0).all()  # Bernoulli(1)


def test_empirical_recovery():
    spec = GeneratorSpec(relatedness=TABLE, seed=0)
    corpus = draw(spec, 10_000)
    inferred = infer_empirical(corpus.expr, corpus.au, threshold=0.05)
    r_true = TABLE.weights
    for k in range(len(EMOTIONS)):  # both tables have one row per emotion, in order
        got = dict(enumerate(inferred.weights[k]))
        for b in range(17):
            if r_true[k, b] >= 0.1:
                assert got.get(b, 0.0) == pytest.approx(r_true[k, b], abs=0.03)


def _assert_same_draw(got, want):
    """Every field bit for bit: np.array_equal would pass a 0.0 for a -0.0."""
    for f in fields(got):
        a, b = getattr(got, f.name), getattr(want, f.name)
        assert a.dtype == b.dtype and a.shape == b.shape, f.name
        if a.dtype == object:
            assert a.tolist() == b.tolist(), f.name
        else:
            assert a.tobytes() == b.tobytes(), f.name


@pytest.mark.parametrize("seed", [0, 3, 11])
@pytest.mark.parametrize("n", [1, 7, 500])
@pytest.mark.parametrize("frames_per_video", [None, 10])
# 0.55 binds fear's valence bound alone of the signed ones; 2.0 reaches the +-1 VA clip
@pytest.mark.parametrize("noise", [0.0, 0.05, 0.3, 0.55, 2.0])
def test_draw_matches_the_reference_draw(reference_draw, seed, n, frames_per_video, noise):
    spec = GeneratorSpec(relatedness=TABLE, noise_scale=noise, seed=seed,
                         frames_per_video=frames_per_video)
    _assert_same_draw(draw(spec, n), reference_draw(spec, n))


@pytest.mark.parametrize("feature_dim", [1, 32, 512])
@pytest.mark.parametrize("noise", [0.0, 0.3, 2.0])
def test_draw_matches_the_reference_draw_at_any_feature_dim(reference_draw, feature_dim, noise):
    """The stacked product ``w @ signal`` of every row has the per-row product's bits."""
    spec = GeneratorSpec(relatedness=TABLE, feature_dim=feature_dim, noise_scale=noise, seed=5)
    _assert_same_draw(draw(spec, 300), reference_draw(spec, 300))


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
        split(draw(GeneratorSpec(relatedness=TABLE), 30), partition=(0.5, 0.5, 0.5))
