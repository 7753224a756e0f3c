import warnings

import numpy as np
import pytest

from affectmtl import (
    DataError, MultiHeadModel, NumericalError, SGDMomentum, gradient_check, median_filter,
)
from affectmtl.losses import softmax_ce, softmax_ce_grad


def small_model(seed=0, hidden=(8,)):
    return MultiHeadModel(input_dim=5, hidden=hidden, seed=seed)


def test_zeroed_heads_give_baseline_outputs():
    m = small_model()
    for head in m.heads.values():
        head["W"][:] = 0.0
        head["b"][:] = 0.0
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
    m.heads["au"]["W"][:] = 0.0
    m.heads["au"]["b"][:] = -1e4
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        out, _ = m.forward(np.zeros((2, 5)))
    assert np.all(np.isfinite(out["au"]) & (out["au"] > 0) & (out["au"] < 1e-300))
    # from z = -709 up, every bit is that of 1 / (1 + exp(-z))
    z = np.array([-709.0, -708.5, -30.0, 0.0, 2.5, 40.0])
    m.heads["au"]["b"][:6] = z
    out, _ = m.forward(np.zeros((1, 5)))
    assert out["au"][0, :6].tobytes() == (1.0 / (1.0 + np.exp(-z))).tobytes()


def test_shape_mismatch():
    with pytest.raises(DataError):
        small_model().forward(np.zeros((2, 7)))


def test_backward_zero_gradients():
    m = small_model()
    X = np.random.default_rng(3).normal(size=(4, 5))
    out, cache = m.forward(X)
    grads = m.backward(cache, {k: np.zeros_like(v) for k, v in out.items()})
    assert all(np.all(g == 0) for g in grads.values())


def test_backward_matches_analytic_formula_for_tanh_head():
    # no trunk layers: va output is tanh(X W + b); squared-error gradient has
    # the closed form X^T [(out - y) * (1 - out^2)]
    m = MultiHeadModel(input_dim=5, hidden=(), heads={"va": ("tanh", 2)}, seed=4)
    rng = np.random.default_rng(4)
    X = rng.normal(size=(8, 5))
    y = rng.uniform(-0.5, 0.5, size=(8, 2))
    out, cache = m.forward(X)
    grads = m.backward(cache, {"va": out["va"] - y})
    expected_W = X.T @ ((out["va"] - y) * (1 - out["va"] ** 2))
    assert np.allclose(grads["va.W"], expected_W, atol=1e-12)


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
    with pytest.raises(DataError):
        SGDMomentum(small_model(), lr=0.0)


def _ce_loss_fns(X, y):
    def value(m):
        out, _ = m.forward(X)
        return float(np.mean([softmax_ce(out["expr"][i], y[i]) for i in range(len(y))]))

    def grad(m):
        out, cache = m.forward(X)
        g = np.zeros_like(out["expr"])
        for i in range(len(y)):
            g[i] = softmax_ce_grad(out["expr"][i], y[i])[1] / len(y)
        return m.backward(cache, {"expr": g})

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


def test_gradient_check_frozen_trunk_reports_zero():
    m = small_model(seed=7)
    m.trunk_frozen = True
    rng = np.random.default_rng(7)
    X = rng.normal(size=(6, 5))
    y = rng.integers(0, 7, size=6)
    value, grad = _ce_loss_fns(X, y)
    assert gradient_check(m, value, grad) < 1e-5
    g = grad(m)
    assert np.all(g["trunk0.W"] == 0.0)


def test_median_filter():
    assert np.allclose(median_filter([1, 5, 1], window=3), [1, 1, 1])
    x = np.random.default_rng(8).normal(size=(9, 2))
    assert np.array_equal(median_filter(x, window=1), x)
    const = np.full((7, 2), 0.3)
    assert np.array_equal(median_filter(const, window=5), const)
    with pytest.raises(DataError):
        median_filter([1, 2, 3], window=4)


def test_median_filter_preserves_length():
    rng = np.random.default_rng(9)
    for n in (1, 2, 5, 20):
        x = rng.normal(size=(n, 2))
        assert median_filter(x, window=5).shape == x.shape


def test_replace_head():
    m = small_model(seed=10)
    before = {k: p.copy() for k, p in m.named_params()}
    m.replace_head("compound", 11, "softmax")
    out, _ = m.forward(np.zeros((3, 5)))
    assert np.allclose(out["compound"].sum(axis=1), 1.0)
    # existing heads untouched
    for k, p in m.named_params():
        if not k.startswith("compound"):
            assert np.array_equal(p, before[k])
    m.replace_head("compound", 16, "softmax")
    assert m.heads["compound"]["W"].shape[1] == 16
    with pytest.raises(DataError):
        m.replace_head("bad", 1, "softmax")


def test_replace_head_freeze_trunk():
    m = small_model(seed=11)
    m.replace_head("compound", 4, "softmax", freeze_trunk=True)
    trunk_before = {k: p.copy() for k, p in m.named_params() if k.startswith("trunk")}
    rng = np.random.default_rng(11)
    X = rng.normal(size=(5, 5))
    y = rng.integers(0, 4, size=5)
    out, cache = m.forward(X)
    g = np.zeros_like(out["compound"])
    for i in range(5):
        g[i] = softmax_ce_grad(out["compound"][i], y[i])[1]
    grads = m.backward(cache, {"compound": g})
    SGDMomentum(m, lr=0.1).step(m, grads)
    for k, p in m.named_params():
        if k.startswith("trunk"):
            assert np.array_equal(p, trunk_before[k])


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
    lambda: _frozen(MultiHeadModel(5, hidden=(8, 6), seed=25)),
])
def test_checkpoint_loads_bit_identical(tmp_path, build):
    m = build()
    m.save(tmp_path / "model.bin")
    loaded = MultiHeadModel.load(tmp_path / "model.bin")
    assert (loaded.input_dim, loaded.hidden, loaded.head_spec, loaded.seed, loaded.trunk_frozen) \
        == (m.input_dim, m.hidden, m.head_spec, m.seed, m.trunk_frozen)
    assert [k for k, _ in loaded.named_params()] == [k for k, _ in m.named_params()]
    for (_, p), (_, q) in zip(m.named_params(), loaded.named_params()):
        assert p.tobytes() == q.tobytes() and q.flags.c_contiguous
    X = np.random.default_rng(26).normal(size=(7, 5))
    out, cache = m.forward(X)
    loaded_out, loaded_cache = loaded.forward(X)
    for name in out:
        assert out[name].tobytes() == loaded_out[name].tobytes()
    grads = m.backward(cache, out)
    for name, g in loaded.backward(loaded_cache, loaded_out).items():
        assert g.tobytes() == grads[name].tobytes()


def _replaced(m):
    m.replace_head("compound", 11, "softmax")
    return m


def _frozen(m):
    m.trunk_frozen = True
    return m


@pytest.mark.parametrize("build, heads", [
    (lambda: small_model(seed=14, hidden=(8, 6)), None),
    (lambda: small_model(seed=15, hidden=()), None),
    (lambda: _replaced(small_model(seed=16)), None),
    (lambda: _frozen(small_model(seed=17, hidden=(8, 6))), None),
    (lambda: small_model(seed=18, hidden=(8, 6)), ("expr",)),
    (lambda: small_model(seed=19), ("va", "au")),
])
def test_forward_backward_match_per_head_reference(reference_forward_backward, build, heads):
    m = build()
    rng = np.random.default_rng(20)
    X = rng.normal(size=(9, 5), scale=2.0)
    out, cache = m.forward(X)
    out_grads = {k: rng.normal(size=v.shape) for k, v in out.items() if heads is None or k in heads}
    grads = m.backward(cache, out_grads)
    ref_out, ref_grads = reference_forward_backward(m, X, out_grads)
    assert out.keys() == ref_out.keys()
    for k in out:
        np.testing.assert_allclose(out[k], ref_out[k], rtol=0, atol=1e-12)
    assert list(grads) == [name for name, _ in m.named_params()]
    for name, p in m.named_params():
        assert grads[name].shape == p.shape
        np.testing.assert_allclose(grads[name], ref_grads[name], rtol=0, atol=1e-12)


def test_named_params_are_contiguous():
    m = _replaced(small_model(seed=21, hidden=(8, 6)))
    assert all(p.flags.c_contiguous for _, p in m.named_params())


def test_gradient_check_rejects_a_non_contiguous_parameter():
    m = small_model(seed=22)
    m.heads["expr"]["W"] = np.asfortranarray(m.heads["expr"]["W"])
    rng = np.random.default_rng(22)
    value, grad = _ce_loss_fns(rng.normal(size=(6, 5)), rng.integers(0, 7, size=6))
    with pytest.raises(NumericalError, match="expr.W"):
        gradient_check(m, value, grad)
