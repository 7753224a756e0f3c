import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from affectmtl import (
    AU_LABELS,
    CANONICAL_AUS,
    EMOTIONS,
    DataError,
    RelatednessTable,
    ccc,
    domain_table,
)
from affectmtl.losses import (
    ccc_loss_grad,
    masked_bce_grad,
    softmax_ce_grad,
)
from affectmtl.model import _activate
from affectmtl.relatedness import KIND_DOMAIN, NUM_AUS

AU_IDX = {au: i for i, au in enumerate(CANONICAL_AUS)}
TABLE = domain_table()


# -- ccc -----------------------------------------------------------------


def test_ccc_identity():
    y = [0.1, 0.5, -0.2]
    assert ccc(y, y) == pytest.approx(1.0, abs=1e-7)


def test_ccc_anti():
    assert ccc([-1, 1], [1, -1]) == pytest.approx(-1.0, abs=1e-7)


def test_ccc_worked_example():
    assert ccc([0, 1, 2], [0, 2, 4]) == pytest.approx(8 / 13, abs=1e-8)


def test_ccc_scale_sensitivity():
    rng = np.random.default_rng(0)
    for _ in range(100):
        y = rng.normal(size=rng.integers(2, 30))
        if np.ptp(y) == 0:
            continue
        assert ccc(y, 2 * y) < 1.0


def test_ccc_rejects_short_input():
    with pytest.raises(DataError):
        ccc([1.0], [1.0])


def test_ccc_loss_cases():
    y = np.array([[0.1, -0.3], [0.5, 0.2], [-0.2, 0.9]])
    assert ccc_loss_grad(y, y)[0] == pytest.approx(0.0, abs=1e-6)
    # valence ccc 1, arousal ccc -1 -> loss 1
    y = np.array([[0.3, -1.0], [-0.3, 1.0]])
    yh = np.array([[0.3, 1.0], [-0.3, -1.0]])
    assert ccc_loss_grad(y, yh)[0] == pytest.approx(1.0, abs=1e-6)
    # constant predictions: cov 0 -> loss ~ 1
    y = np.array([[0.1, 0.1], [0.9, 0.9], [-0.5, -0.5]])
    yh = np.zeros_like(y) + 0.2
    assert ccc_loss_grad(y, yh)[0] == pytest.approx(1.0, abs=1e-6)


def test_ccc_loss_range():
    rng = np.random.default_rng(1)
    for _ in range(50):
        y = rng.uniform(-1, 1, size=(8, 2))
        yh = rng.uniform(-1, 1, size=(8, 2))
        assert 0.0 <= ccc_loss_grad(y, yh)[0] <= 2.0


# -- masked bce ----------------------------------------------------------


def test_masked_bce_perfect():
    y = np.full(17, np.nan)
    y[[0, 3]] = [1.0, 0.0]
    p = np.zeros(17)
    p[0] = 1.0
    assert masked_bce_grad(p, y)[0] == pytest.approx(0.0, abs=1e-6)


def test_masked_bce_single_au():
    y = np.full(17, np.nan)
    y[5] = 1.0
    p = np.full(17, 0.5)
    assert masked_bce_grad(p, y)[0] == pytest.approx(math.log(2))


def test_masked_bce_weighted_average():
    # per-AU losses {0, log 2} with weights {1.0, 0.51}
    y = np.full(17, np.nan)
    y[0] = 1.0
    y[1] = 1.0
    p = np.full(17, 0.5)
    p[0] = 1.0
    w = np.full(17, np.nan)
    w[0] = 1.0
    w[1] = 0.51
    assert masked_bce_grad(p, y, w)[0] == pytest.approx(0.51 * math.log(2) / 1.51, abs=1e-6)


def test_masked_bce_requires_annotation():
    with pytest.raises(DataError):
        masked_bce_grad(np.full(17, 0.5), np.full(17, np.nan))


def test_masked_bce_without_nan_or_weights_skips_only_the_mask():
    """A NaN-free target with no weights, as DM passes it, gives the bits of the
    same call with all-ones weights, the clip's zero gradient included; a target
    with NaN still masks them out of the loss and the gradient."""
    rng = np.random.default_rng(5)
    p, q = rng.random((6, 17)), rng.random((6, 17))
    p[0, :3] = [0.0, 1.0, 1e-9]  # clipped: no gradient
    value, grad = masked_bce_grad(p, q)
    ones_value, ones_grad = masked_bce_grad(p, q, np.ones_like(q))
    assert value == ones_value and np.array_equal(grad, ones_grad)
    assert (grad[0, :3] == 0).all() and (grad[:, 3:] != 0).all()
    one_row = masked_bce_grad(p[1], q[1])
    assert one_row[0] == masked_bce_grad(p[1], q[1], np.ones(17))[0]
    assert one_row[1].shape == (17,)

    y = q.copy()
    y[:, 4] = np.nan
    y[2, 5:] = np.nan
    value, grad = masked_bce_grad(p, y)
    ones_value, ones_grad = masked_bce_grad(p, y, np.ones_like(y))
    assert value == ones_value and np.array_equal(grad, ones_grad)
    assert np.isfinite(value) and (grad[np.isnan(y)] == 0).all()
    pc = np.clip(p, 1e-7, 1 - 1e-7)
    bce = -(y * np.log(pc) + (1 - y) * np.log(1 - pc))  # NaN where y is
    assert value == pytest.approx(np.nanmean(bce, axis=1).mean(), rel=1e-12)
    y[3] = np.nan
    with pytest.raises(DataError, match="no annotated AUs"):
        masked_bce_grad(p, y)


# -- softmax ce ----------------------------------------------------------


def test_softmax_ce_cases():
    p = np.zeros(7)
    p[3] = 1.0
    assert softmax_ce_grad(p, 3)[0] == pytest.approx(0.0, abs=1e-6)
    assert softmax_ce_grad(np.full(7, 1 / 7), 2)[0] == pytest.approx(math.log(7))


def test_softmax_ce_malformed():
    with pytest.raises(DataError):
        softmax_ce_grad(np.array([0.5, 0.6]), 0)
    with pytest.raises(DataError):
        softmax_ce_grad(np.array([0.5, 0.5]), 5)
    with pytest.raises(DataError):  # one label per row; a soft label is no class index
        softmax_ce_grad(np.array([[0.5, 0.5], [0.2, 0.8]]), np.array([[0.5, 0.5], [0.2, 0.8]]))


# -- distribution matching ----------------------------------------------


def one_hot(emotion):
    p = np.zeros(7)
    p[EMOTIONS.index(emotion)] = 1.0
    return p


def targets(p):
    """The DM targets of class predictions ``p``: the relatedness mixture of their AUs."""
    return p @ TABLE.weights


def test_dm_targets_one_hot_happiness():
    q = targets(one_hot("happiness"))
    for au in (12, 25):
        assert q[AU_IDX[au]] == pytest.approx(1.0)
    assert q[AU_IDX[6]] == pytest.approx(0.51)  # observational: its table weight
    others = [i for i in range(17) if CANONICAL_AUS[i] not in (12, 25, 6)]
    assert np.allclose(q[others], 0.0)


def test_dm_targets_surprise_fear_mixture():
    p = 0.6 * one_hot("surprise") + 0.4 * one_hot("fear")
    q = targets(p)
    # AU2: prototypical for surprise, observational (0.57) for fear
    assert q[AU_IDX[2]] == pytest.approx(0.6 + 0.4 * 0.57)


def test_dm_targets_uniform_au25():
    q = targets(np.full(7, 1 / 7))
    assert q[AU_IDX[25]] == pytest.approx(3 / 7)


def brute_force_dm(p, table):
    """The DM targets summed entry by entry over the table's saved form."""
    q = np.zeros(len(AU_LABELS))
    entries = table.to_dict()["entries"]
    for k, cname in enumerate(EMOTIONS):
        for label, weight in entries.get(cname, {}).items():
            q[AU_LABELS.index(label)] += p[k] * weight
    return q


def test_dm_targets_brute_force_oracle():
    rng = np.random.default_rng(7)
    for _ in range(100):
        p = rng.dirichlet(np.ones(7))
        q = targets(p)
        assert np.allclose(q, brute_force_dm(p, TABLE), atol=1e-12)
        assert np.all(q >= 0) and np.all(q <= 1 + 1e-12)


def test_dm_targets_class_mismatch():
    # a six-class table never reaches the DM targets: it is refused as it is made or read
    with pytest.raises(DataError, match="shape"):
        RelatednessTable(TABLE.weights[1:], KIND_DOMAIN)
    six = {**TABLE.to_dict(), "classes": list(EMOTIONS[1:])}
    with pytest.raises(DataError, match="in that order"):
        RelatednessTable.from_dict(six)


def dm_term(p, q):
    """The DM term as training computes it: NUM_AUS times the AU loss of the AU
    predictions ``p`` against the soft target ``q``, summed over the AUs."""
    value, grad = masked_bce_grad(p, q)
    return NUM_AUS * value, NUM_AUS * grad


def test_dm_loss_cases():
    q = targets(one_hot("happiness"))
    # p == q: only the observational AU6 (target 0.51) has entropy; no gradient
    value, grad = dm_term(q, q)
    assert value == pytest.approx(-(0.51 * math.log(0.51) + 0.49 * math.log(0.49)), abs=1e-5)
    assert (grad == 0).all()
    p = np.zeros(17)
    for au in (12, 25):
        p[AU_IDX[au]] = 1.0
    p[AU_IDX[6]] = 1.0  # a sure AU6 against its target 0.51 costs 0.49 of log(1 - p), at eps
    assert dm_term(p, q)[0] == pytest.approx(-0.49 * math.log(1e-7), rel=1e-6)
    # orientation: the target weights log p, so p = 0.5 against a sure AU costs log 2,
    # and a sure AU against a target of 0.5 costs half of -log(eps)
    sure = np.where(np.arange(17) == 0, 1.0, 0.0)
    half = np.where(np.arange(17) == 0, 0.5, 0.0)
    assert dm_term(half, sure)[0] == pytest.approx(math.log(2), abs=1e-5)
    assert dm_term(sure, half)[0] == pytest.approx(-0.5 * math.log(1e-7), rel=1e-6)
    # p = 0 clamped at eps
    assert dm_term(np.zeros(17), sure)[0] == pytest.approx(-math.log(1e-7), rel=1e-3)


# -- gradients vs central finite differences -----------------------------
#
# Each gradient is taken at the head's input, so each check differentiates the
# loss of the head's activation of logits ``z``, as the model computes it.


def fd_grad(f, x, h=1e-6):
    g = np.zeros_like(x, dtype=float)
    for i in range(x.size):
        xp, xm = x.copy(), x.copy()
        xp.flat[i] += h
        xm.flat[i] -= h
        g.flat[i] = (f(xp) - f(xm)) / (2 * h)
    return g


def rel_err(a, b):
    denom = np.maximum(np.maximum(np.abs(a), np.abs(b)), 1e-6)
    return np.max(np.abs(a - b) / denom)


def assert_matches_fd(loss, z):
    """The gradient that ``loss(z)`` returns is its central difference at ``z``."""
    _, g = loss(z)
    fd = fd_grad(lambda x: loss(x)[0], z, h=1e-5)
    np.testing.assert_allclose(g, fd, rtol=1e-5, atol=1e-8)
    return g


def drawn_rows(data, n, width, values):
    """An (n, width) float array of entries drawn from the strategy ``values``."""
    return np.array(data.draw(st.lists(values, min_size=n * width, max_size=n * width)),
                    dtype=float).reshape(n, width)


# logits whose sigmoid lies well inside the clip at DEFAULT_EPS, and far beyond it
# both ways (from |z| > 16.1 the clip holds), so that no difference step crosses it
SIGMOID_LOGITS = st.floats(-8, 8) | st.floats(25, 40) | st.floats(-40, -25)


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_ccc_loss_grad_matches_fd(data):
    n = data.draw(st.integers(2, 6))
    z = drawn_rows(data, n, 2, st.floats(-3, 3))
    y = drawn_rows(data, n, 2, st.floats(-1, 1))
    assume(np.ptp(z, axis=0).min() > 0.5)  # far from the clamp of the denominator
    assert_matches_fd(lambda x: ccc_loss_grad(y, _activate("va", x)), z)


def test_ccc_loss_grad_matches_fd_where_the_denominator_is_clamped():
    """Constant truth and prediction with equal means: the CCC denominator is
    clamped at ``CCC_EPS``, and the value stays finite. So it does for spreads
    small enough to keep the clamp, where the gradient is nonzero."""
    y = np.full((6, 2), 0.3)
    z = np.arctanh(y)
    value, g = ccc_loss_grad(y, np.tanh(z))
    assert value == 1.0 and np.isfinite(g).all()
    fd = fd_grad(lambda x: ccc_loss_grad(y, np.tanh(x))[0], z)
    assert rel_err(g, fd) < 1e-5
    rng = np.random.default_rng(17)
    y, yh = 0.3 + 1e-5 * rng.uniform(-1, 1, (6, 2)), 0.3 + 1e-5 * rng.uniform(-1, 1, (6, 2))
    z = np.arctanh(yh)
    _, g = ccc_loss_grad(y, np.tanh(z))
    assert np.abs(g).max() > 1.0  # the covariance term, not a zero gradient
    assert rel_err(g, fd_grad(lambda x: ccc_loss_grad(y, np.tanh(x))[0], z)) < 1e-5


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_masked_bce_grad_matches_fd(data):
    """Hard or soft targets, NaN on the AUs a row does not annotate (none, as DM
    passes them, or some), and no weights or co-annotation's: a table weight or
    1 on each annotated AU, and 1 or NaN on the others, which no loss reads. An
    entry whose probability the clip holds gets no gradient."""
    n = data.draw(st.integers(1, 4))
    z = drawn_rows(data, n, NUM_AUS, SIGMOID_LOGITS)
    hard = data.draw(st.booleans())
    y = drawn_rows(data, n, NUM_AUS, st.sampled_from([0.0, 1.0]) if hard else st.floats(0, 1))
    if data.draw(st.booleans()):
        annotated = drawn_rows(data, n, NUM_AUS, st.booleans()).astype(bool)
        annotated[np.arange(n), data.draw(st.integers(0, NUM_AUS - 1))] = True
        y[~annotated] = np.nan
    weights = None
    if data.draw(st.booleans()):
        weights = drawn_rows(data, n, NUM_AUS, st.sampled_from([1.0, 0.51, 0.57, 0.2]))
        weights[np.isnan(y)] = data.draw(st.sampled_from([1.0, np.nan]))
    g = assert_matches_fd(lambda x: masked_bce_grad(_activate("au", x), y, weights), z)
    assert (g[np.abs(z) >= 25] == 0).all() and (g[np.isnan(y)] == 0).all()


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_softmax_ce_grad_matches_fd(data):
    """Rows whose label probability lies well inside the clip at DEFAULT_EPS,
    and rows whose label logit is set 30 below the row's largest, where the clip
    holds and the row gets no gradient."""
    n = data.draw(st.integers(1, 4))
    z = drawn_rows(data, n, len(EMOTIONS), st.floats(-5, 5))
    labels = np.array(data.draw(st.lists(st.integers(0, len(EMOTIONS) - 1),
                                         min_size=n, max_size=n)))
    clipped = np.array(data.draw(st.lists(st.booleans(), min_size=n, max_size=n)))
    rows = np.arange(n)
    z[rows[clipped], labels[clipped]] = z[clipped].max(axis=1) - 30.0
    g = assert_matches_fd(lambda x: softmax_ce_grad(_activate("expr", x), labels), z)
    assert (g[clipped] == 0).all()
    assert (g[~clipped] != 0).any(axis=1).all()
