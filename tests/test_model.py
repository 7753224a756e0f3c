import hashlib
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from affectmtl import (
    DataError, MultiHeadModel, SGDMomentum, gradient_check, median_filter,
)
from affectmtl.losses import ccc_loss_grad, masked_bce_grad, softmax_ce_grad
from affectmtl.model import DEFAULT_HEADS, HEAD_COLS


def small_model(seed=0, hidden=(8,)):
    return MultiHeadModel(input_dim=5, hidden=hidden, seed=seed)


def test_zeroed_heads_give_baseline_outputs():
    m = small_model()
    for name, p in m.named_params():
        if not name.startswith("trunk"):
            p[...] = 0.0
    out, _ = m.forward(np.random.default_rng(0).normal(size=(4, 5)))
    assert np.allclose(out["expr"], 1 / 7)
    assert np.allclose(out["au"], 0.5)
    assert np.allclose(out["va"], 0.0)


def test_forward_deterministic_and_order_preserving():
    X = np.random.default_rng(1).normal(size=(6, 5))
    out1, _ = small_model(seed=3).forward(X)
    out2, _ = small_model(seed=3).forward(X)
    for k in out1:
        assert np.array_equal(out1[k], out2[k])
    single, _ = small_model(seed=3).forward(X[2:3])
    assert np.allclose(single["expr"][0], out1["expr"][2])


def test_output_ranges():
    X = np.random.default_rng(2).normal(size=(10, 5), scale=3.0)
    out, _ = small_model(seed=1).forward(X)
    assert np.allclose(out["expr"].sum(axis=1), 1.0, atol=1e-9)
    assert np.all((out["au"] > 0) & (out["au"] < 1))
    assert np.all((out["va"] > -1) & (out["va"] < 1))


def test_sigmoid_head_does_not_overflow():
    m = small_model()
    params = dict(m.named_params())
    params["au.W"][:] = 0.0
    params["au.b"][:] = -1e4
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        out, _ = m.forward(np.zeros((2, 5)))
    assert np.all(np.isfinite(out["au"]) & (out["au"] > 0) & (out["au"] < 1e-300))
    # from z = -709 up, every bit is that of 1 / (1 + exp(-z))
    z = np.array([-709.0, -708.5, -30.0, 0.0, 2.5, 40.0])
    params["au.b"][:6] = z
    out, _ = m.forward(np.zeros((1, 5)))
    assert out["au"][0, :6].tobytes() == (1.0 / (1.0 + np.exp(-z))).tobytes()


def test_shape_mismatch():
    with pytest.raises(DataError):
        small_model().forward(np.zeros((2, 7)))


def head_input_grads(n, **by_head):
    """One (n, 26) gradient at the heads' input: each named head's array at its
    :data:`HEAD_COLS`, and 0 for every other head."""
    gz = np.zeros((n, max(cols.stop for cols in HEAD_COLS.values())))
    for name, g in by_head.items():
        gz[:, HEAD_COLS[name]] = g
    return gz


def test_backward_zero_gradients():
    m = small_model()
    X = np.random.default_rng(3).normal(size=(4, 5))
    _, cache = m.forward(X)
    grads = m.backward(cache, head_input_grads(4))
    assert all(np.all(g == 0) for g in grads.values())


def test_backward_matches_analytic_formula_for_tanh_head():
    # no trunk layers: va output is tanh(X W + b); the squared error's gradient
    # at the head's input is (out - y) * (1 - out^2), so va.W gets X^T times it
    # and the other heads get no gradient
    m = MultiHeadModel(input_dim=5, hidden=(), seed=4)
    rng = np.random.default_rng(4)
    X = rng.normal(size=(8, 5))
    y = rng.uniform(-0.5, 0.5, size=(8, 2))
    out, cache = m.forward(X)
    gz_va = (out["va"] - y) * (1 - out["va"] ** 2)
    grads = m.backward(cache, head_input_grads(8, va=gz_va))
    assert np.allclose(grads["va.W"], X.T @ gz_va, atol=1e-12)
    assert not grads["expr.W"].any() and not grads["au.W"].any()


@pytest.mark.parametrize("hidden", [(), (8, 6)])
def test_backward_consumes_its_cache_and_refuses_a_consumed_one(hidden):
    """A pass empties its cache, so a second pass on it is a ValueError, not
    gradients from the wrong arrays; so is a cache of another depth, which is
    left as it was."""
    m = small_model(hidden=hidden)
    X = np.random.default_rng(5).normal(size=(6, 5))
    gz = head_input_grads(6, va=np.ones((6, 2)))
    _, cache = m.forward(X)
    m.backward(cache, gz)
    assert cache == []
    with pytest.raises(ValueError, match="unconsumed forward cache"):
        m.backward(cache, gz)
    _, cache = m.forward(X)
    for wrong in (cache[:-1], cache + [cache[-1]], small_model(hidden=(4, 4, 4)).forward(X)[1]):
        n = len(wrong)
        with pytest.raises(ValueError, match="unconsumed forward cache"):
            m.backward(wrong, gz)
        assert len(wrong) == n


def test_sgd_momentum_zero_is_plain_gd():
    m = small_model()
    opt = SGDMomentum(m, lr=0.1, momentum=0.0)
    before = {k: p.copy() for k, p in m.named_params()}
    grads = {k: np.ones_like(p) for k, p in m.named_params()}
    opt.step(m, grads)
    for k, p in m.named_params():
        assert np.allclose(p, before[k] - 0.1)


def test_sgd_momentum_two_step_displacement():
    m = small_model()
    opt = SGDMomentum(m, lr=1.0, momentum=0.9)
    before = {k: p.copy() for k, p in m.named_params()}
    grads = {k: np.full_like(p, 0.5) for k, p in m.named_params()}
    opt.step(m, grads)
    opt.step(m, grads)
    # v1 = g, v2 = 0.9 g + g -> total displacement g (1 + 1.9)
    for k, p in m.named_params():
        assert np.allclose(before[k] - p, 0.5 * 2.9)


def test_sgd_rejects_bad_lr():
    for lr in (0.0, float("nan"), float("inf")):
        with pytest.raises(DataError, match="learning rate"):
            SGDMomentum(small_model(), lr=lr)


def _ce_loss_fns(X, y):
    def value(m):
        out, _ = m.forward(X)
        return float(np.mean([softmax_ce_grad(out["expr"][i], y[i])[0] for i in range(len(y))]))

    def grad(m):
        out, cache = m.forward(X)
        g = np.zeros_like(out["expr"])
        for i in range(len(y)):
            g[i] = softmax_ce_grad(out["expr"][i], y[i])[1] / len(y)
        return m.backward(cache, head_input_grads(len(y), expr=g))

    return value, grad


def test_gradient_check_passes():
    rng = np.random.default_rng(5)
    X = rng.normal(size=(6, 5))
    y = rng.integers(0, 7, size=6)
    value, grad = _ce_loss_fns(X, y)
    assert gradient_check(small_model(seed=6), value, grad) < 1e-5


def test_gradient_check_negative_control():
    rng = np.random.default_rng(6)
    X = rng.normal(size=(6, 5))
    y = rng.integers(0, 7, size=6)
    value, grad = _ce_loss_fns(X, y)

    def corrupted(m):
        g = grad(m)
        g["expr.W"] = g["expr.W"] * 1.5 + 0.01
        return g

    assert gradient_check(small_model(seed=6), value, corrupted) > 1e-2


def test_median_filter():
    assert np.allclose(median_filter([1, 5, 1], window=3), [1, 1, 1])
    x = np.random.default_rng(8).normal(size=(9, 2))
    assert np.array_equal(median_filter(x, window=1), x)
    const = np.full((7, 2), 0.3)
    assert np.array_equal(median_filter(const, window=5), const)
    with pytest.raises(DataError):
        median_filter([1, 2, 3], window=4)


# NaNs of either sign and with a payload, zeros of either sign, and ties
_MEDIAN_VALUES = [np.nan, -np.nan, *np.array([0x7FF8000000000123], dtype="<u8").view(float),
                  0.0, -0.0, 1.0, -1.0, np.inf, -np.inf]


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_median_filter_matches_np_median_bit_for_bit(data):
    n, width = data.draw(st.integers(1, 12)), data.draw(st.integers(1, 3))
    window = data.draw(st.sampled_from([1, 3, 5, 7, 9]))
    values = st.sampled_from(_MEDIAN_VALUES) | st.floats(-2, 2, width=16)  # ties are likely
    x = np.array(data.draw(st.lists(values, min_size=n * width, max_size=n * width)))
    x = x.reshape(n, width) if data.draw(st.booleans()) else x[:n]
    half = window // 2
    rows = np.clip(np.arange(n)[:, None] + np.arange(-half, half + 1), 0, n - 1)
    assert median_filter(x, window).tobytes() == np.median(x[rows], axis=1).tobytes()


def test_median_filter_preserves_length():
    rng = np.random.default_rng(9)
    for n in (1, 2, 5, 20):
        x = rng.normal(size=(n, 2))
        assert median_filter(x, window=5).shape == x.shape


def test_checkpoint_round_trip(tmp_path):
    m = small_model(seed=12, hidden=(8, 4))
    p = tmp_path / "model.bin"
    m.save(p)
    m2 = MultiHeadModel.load(p)
    for (k1, p1), (k2, p2) in zip(m.named_params(), m2.named_params()):
        assert k1 == k2
        assert np.array_equal(p1, p2)
    X = np.random.default_rng(13).normal(size=(3, 5))
    o1, _ = m.forward(X)
    o2, _ = m2.forward(X)
    for k in o1:
        assert np.array_equal(o1[k], o2[k])


@pytest.mark.parametrize("build", [
    lambda: MultiHeadModel(5, seed=23),
    lambda: MultiHeadModel(5, hidden=(), seed=24),
    lambda: MultiHeadModel(5, hidden=(8, 6), seed=25),
])
def test_checkpoint_loads_bit_identical(tmp_path, build):
    m = build()
    m.save(tmp_path / "model.bin")
    loaded = MultiHeadModel.load(tmp_path / "model.bin")
    assert (loaded.input_dim, loaded.hidden, loaded.seed) == (m.input_dim, m.hidden, m.seed)
    loaded.save(tmp_path / "again.bin")  # the same header and parameters
    assert (tmp_path / "again.bin").read_bytes() == (tmp_path / "model.bin").read_bytes()
    assert [k for k, _ in loaded.named_params()] == [k for k, _ in m.named_params()]
    for (_, p), (_, q) in zip(m.named_params(), loaded.named_params()):
        assert p.tobytes() == q.tobytes()
    X = np.random.default_rng(26).normal(size=(7, 5))
    out, cache = m.forward(X)
    loaded_out, loaded_cache = loaded.forward(X)
    for name in out:
        assert out[name].tobytes() == loaded_out[name].tobytes()
    gz = np.concatenate([out[name] for name in HEAD_COLS], axis=1)
    grads = m.backward(cache, gz)
    for name, g in loaded.backward(loaded_cache, gz).items():
        assert g.tobytes() == grads[name].tobytes()


@pytest.mark.parametrize("build, heads", [
    (lambda: small_model(seed=14, hidden=(8, 6)), None),
    (lambda: small_model(seed=15, hidden=()), None),
    (lambda: small_model(seed=16), None),
    (lambda: small_model(seed=17, hidden=(8, 6, 4)), None),
    (lambda: small_model(seed=18, hidden=(8, 6)), ("expr",)),
    (lambda: small_model(seed=19), ("va", "au")),
])
def test_forward_backward_match_per_head_reference(reference_forward_backward, build, heads):
    m = build()
    rng = np.random.default_rng(20)
    X = rng.normal(size=(9, 5), scale=2.0)
    out, cache = m.forward(X)
    gz = head_input_grads(len(X), **{k: rng.normal(size=v.shape) for k, v in out.items()
                                     if heads is None or k in heads})
    grads = m.backward(cache, gz)
    ref_out, ref_grads = reference_forward_backward(m, X, gz)
    assert out.keys() == ref_out.keys()
    for k in out:
        np.testing.assert_allclose(out[k], ref_out[k], rtol=0, atol=1e-12)
    assert list(grads) == [name for name, _ in m.named_params()]
    for name, p in m.named_params():
        assert grads[name].shape == p.shape
        np.testing.assert_allclose(grads[name], ref_grads[name], rtol=0, atol=1e-12)


def test_checkpoint_bytes_are_pinned(tmp_path):
    """The checkpoint format: the sha256 of one saved model never changes."""
    MultiHeadModel(5, hidden=(8, 6), seed=25).save(tmp_path / "model.bin")
    digest = hashlib.sha256((tmp_path / "model.bin").read_bytes()).hexdigest()
    assert digest == "21a060ed4d5ff12839da0c28f740f6003c189ed183c6559d07502ee99d8aca8f"


def head_weights(model):
    """Each head's W, in :data:`HEAD_COLS` order, as ``named_params`` yields it."""
    params = dict(model.named_params())
    return [params[f"{name}.W"] for name in HEAD_COLS]


def test_head_params_are_views_of_the_fused_arrays(tmp_path):
    """Each head's W and b, as ``named_params`` yields them, are its
    :data:`HEAD_COLS` of ``head_W`` and ``head_b``, so every way of writing a
    head parameter moves the forward pass: a write through ``named_params``, a
    load, an SGD step and a gradient-check perturbation."""
    m = small_model(seed=21, hidden=(8, 6))
    params, start = dict(m.named_params()), 0
    assert list(HEAD_COLS) == ["au", "expr", "va"]  # sorted head names, side by side
    for name, cols in HEAD_COLS.items():
        W, b = params[f"{name}.W"], params[f"{name}.b"]
        assert cols == slice(start, start + DEFAULT_HEADS[name][1])
        assert W.base is m.head_W and b.base is m.head_b
        assert np.array_equal(W, m.head_W[:, cols]) and np.array_equal(b, m.head_b[cols])
        start = cols.stop
    assert m.head_W.shape == (6, start) and m.head_b.shape == (start,)
    X = np.random.default_rng(21).normal(size=(4, 5))

    def outputs(model):
        return np.concatenate([v.ravel() for v in model.forward(X)[0].values()])

    before = outputs(m)
    for name, W in zip(HEAD_COLS, head_weights(m)):
        W[0, 0] += 0.5
        after = outputs(m)
        assert not np.array_equal(after, before), name
        before = after

    m.save(tmp_path / "model.bin")
    loaded = MultiHeadModel.load(tmp_path / "model.bin")
    assert outputs(loaded).tobytes() == before.tobytes()
    assert all(W.base is loaded.head_W for W in head_weights(loaded))

    # a loss on every head: if a perturbation missed head_W, the finite
    # difference would read 0 against a non-zero analytic gradient
    rng = np.random.default_rng(22)
    expr, au, va = rng.integers(0, 7, len(X)), rng.random((len(X), 17)), rng.random((len(X), 2))

    def terms(out):
        return (softmax_ce_grad(out["expr"], expr), masked_bce_grad(out["au"], au),
                ccc_loss_grad(va, out["va"]))

    def value(model):
        return float(sum(v for v, _ in terms(model.forward(X)[0])))

    def grad(model):
        out, cache = model.forward(X)
        (_, g_expr), (_, g_au), (_, g_va) = terms(out)
        return model.backward(cache, head_input_grads(len(X), expr=g_expr, au=g_au, va=g_va))

    SGDMomentum(m, lr=0.1).step(m, grad(m))
    assert not np.array_equal(outputs(m), before)
    assert all(W.base is m.head_W for W in head_weights(m))

    kept = m.head_W.copy()
    assert gradient_check(m, value, grad) < 1e-6
    assert np.array_equal(m.head_W, kept)  # every perturbation was undone
