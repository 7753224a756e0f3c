"""Small differentiable multi-head network with manual backprop.

A fully-connected trunk (tanh) feeds one shared feature to three fixed heads:
"va" (tanh, valence and arousal), "expr" (softmax over :data:`EMOTIONS`) and
"au" (sigmoid, one per AU of :data:`AU_LABELS`), in the order of the
relatedness tables. Everything is float64 numpy; all randomness flows from
explicit seeds.
"""

from __future__ import annotations

import itertools
import json
import os
import struct

import numpy as np

from .errors import DataError, NumericalError, exact_keys, exact_type, unique_keys
from .relatedness import EMOTIONS, NUM_AUS

# The one head layout, name -> (kind, width): VA pair, the expressions, the AUs.
DEFAULT_HEADS = {"va": ("tanh", 2), "expr": ("softmax", len(EMOTIONS)), "au": ("sigmoid", NUM_AUS)}
# Each head's columns of ``head_W`` and ``head_b``, side by side in sorted name order
_ENDS = itertools.accumulate(DEFAULT_HEADS[name][1] for name in sorted(DEFAULT_HEADS))
HEAD_COLS = {name: slice(end - DEFAULT_HEADS[name][1], end)
             for name, end in zip(sorted(DEFAULT_HEADS), _ENDS)}


def _activate(head, z):
    """The outputs of ``head`` from its pre-activations ``z``, one row per sample."""
    kind = DEFAULT_HEADS[head][0]
    if kind == "tanh":
        return np.tanh(z)
    if kind == "sigmoid":
        # z is clipped where exp(-z) would overflow (exp(709) < max float)
        return 1.0 / (1.0 + np.exp(-np.maximum(z, -709.0)))
    e = np.exp(z - z.max(axis=1, keepdims=True))
    e /= e.sum(axis=1, keepdims=True)
    return e


def _glorot(rng, fan_in, fan_out):
    a = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-a, a, size=(fan_in, fan_out))


class MultiHeadModel:
    """Shared trunk plus the :data:`DEFAULT_HEADS`, with analytic gradients."""

    def __init__(self, input_dim, hidden=(64, 64), seed=0):
        rng = np.random.default_rng(seed)
        self._allocate(input_dim, hidden, seed, lambda a, b: _glorot(rng, a, b))

    def _allocate(self, input_dim, hidden, seed, weights):
        """Weights are ``weights(fan_in, fan_out)``, in declaration order."""
        self.input_dim = int(input_dim)
        self.hidden = tuple(int(h) for h in hidden)
        self.seed = int(seed)
        self.trunk = []
        d = self.input_dim
        for h in self.hidden:
            self.trunk.append({"W": weights(d, h), "b": np.zeros(h)})
            d = h
        self.feature_dim = d
        # every head's weights side by side (:data:`HEAD_COLS`), so that one
        # product evaluates all heads
        self.head_W = np.concatenate([weights(d, DEFAULT_HEADS[n][1]) for n in HEAD_COLS], axis=1)
        self.head_b = np.zeros(self.head_W.shape[1])

    # -- parameter iteration --------------------------------------------

    def named_params(self):
        """Yield (name, array) in a fixed declaration order; a head's arrays are
        views into ``head_W`` and ``head_b``."""
        for i, layer in enumerate(self.trunk):
            yield f"trunk{i}.W", layer["W"]
            yield f"trunk{i}.b", layer["b"]
        for name, cols in HEAD_COLS.items():
            yield f"{name}.W", self.head_W[:, cols]
            yield f"{name}.b", self.head_b[cols]

    # -- forward / backward ---------------------------------------------

    def forward(self, X):
        """Batch forward pass. Returns (outputs dict, cache for backward): the
        cache is the input and each trunk layer's output.

        Outputs are post-activation: tanh heads in (-1, 1), softmax heads on
        the simplex, sigmoid heads in (0, 1).
        """
        X = np.atleast_2d(np.asarray(X, dtype=float))
        if X.shape[1] != self.input_dim:
            raise DataError(
                f"feature dimension {X.shape[1]} != model input {self.input_dim}"
            )
        acts = [X]
        h = X
        for layer in self.trunk:
            h = h @ layer["W"]
            h += layer["b"]
            np.tanh(h, out=h)
            acts.append(h)
        z = h @ self.head_W
        z += self.head_b
        out = {name: _activate(name, z[:, cols]) for name, cols in HEAD_COLS.items()}
        return out, acts

    def backward(self, acts, gz):
        """Backprop the loss gradient at the heads' input to parameter gradients.

        ``acts`` is the cache of :meth:`forward`, and ``gz`` one (n, 26) array of
        d(loss)/d(pre-activation), each head's columns at its :data:`HEAD_COLS`.
        Returns {param name -> gradient array}. No gradient with respect to the
        input is formed.
        """
        h = acts[-1]
        grads = {}
        if self.trunk:
            gh = gz @ self.head_W.T
            for i in range(len(self.trunk) - 1, -1, -1):
                d = acts[i + 1] * acts[i + 1]
                np.subtract(1.0, d, out=d)
                d *= gh  # the gradient at layer i's pre-activation
                grads[f"trunk{i}.W"] = acts[i].T @ d
                grads[f"trunk{i}.b"] = d.sum(axis=0)
                if i:
                    gh = d @ self.trunk[i]["W"].T
        gW = h.T @ gz
        gb = gz.sum(axis=0)
        for name, cols in HEAD_COLS.items():
            grads[f"{name}.W"], grads[f"{name}.b"] = gW[:, cols], gb[cols]
        return {name: grads[name] for name, _ in self.named_params()}

    # -- checkpoints ------------------------------------------------------

    def save(self, path) -> None:
        """Flat binary checkpoint: JSON header + little-endian float64 blobs."""
        header = json.dumps(
            {
                "input_dim": self.input_dim,
                "hidden": list(self.hidden),
                "heads": DEFAULT_HEADS,  # JSON writes each (kind, width) as a list
                "seed": self.seed,
            },
            sort_keys=True,
        ).encode()
        with open(path, "wb") as f:
            f.write(struct.pack("<Q", len(header)))
            f.write(header)
            for _, p in self.named_params():
                f.write(np.ascontiguousarray(p, dtype="<f8").tobytes())

    @classmethod
    def load(cls, path) -> "MultiHeadModel":
        try:
            with open(path, "rb") as f:
                size = os.fstat(f.fileno()).st_size
                (hlen,) = struct.unpack("<Q", f.read(8))
                if hlen > size:
                    raise DataError(f"truncated checkpoint: {path}")
                spec = json.loads(f.read(hlen).decode(), object_pairs_hook=unique_keys)
                input_dim, hidden, seed = _header_fields(spec, path)
                # the parameter bytes the header implies, checked before anything is allocated
                dims = (input_dim, *hidden)
                n_params = sum((a + 1) * b for a, b in zip(dims, dims[1:]))
                n_params += sum((dims[-1] + 1) * n for _, n in DEFAULT_HEADS.values())
                left = size - f.tell()
                if left != 8 * n_params:
                    raise DataError(
                        f"checkpoint {path} holds {left} parameter bytes, "
                        f"its header declares {8 * n_params}"
                    )
                model = cls.__new__(cls)  # every parameter is read below: no random init
                model._allocate(input_dim, hidden, seed, lambda a, b: np.empty((a, b)))
                for name, p in model.named_params():
                    buf = f.read(p.size * 8)
                    if len(buf) != p.size * 8:
                        raise DataError(f"truncated checkpoint: {path}")
                    p[...] = np.frombuffer(buf, dtype="<f8").reshape(p.shape)
                    if not np.isfinite(p).all():
                        raise DataError(f"non-finite parameter {name} in checkpoint {path}")
                if f.read(1):
                    raise DataError(f"trailing bytes after the parameters in checkpoint {path}")
        # ValueError: a header that is not UTF-8 JSON
        except (OSError, struct.error, ValueError) as e:
            raise DataError(f"cannot read checkpoint {path}: {e!r}") from e
        return model


def _header_fields(spec, path):
    """(input_dim, hidden, seed) of a checkpoint header: sizes are positive ints, the seed
    a non-negative int, and ``heads`` the one layout; any other key or value is an error."""
    where, keys = f"checkpoint {path}", ("input_dim", "hidden", "heads", "seed")
    exact_keys(spec, keys, (), where, DataError)
    input_dim, hidden, heads, seed = (spec[k] for k in keys)
    sizes = [input_dim, *exact_type(hidden, list, f"{where}: hidden", DataError)]
    if not all(exact_type(n, int, f"{where}: each size", DataError) > 0 for n in sizes):
        raise DataError(f"{where}: input_dim and hidden {sizes} are not all positive")
    # compared as JSON text, so that 17.0 or true does not pass for 17 or 1
    layout = json.dumps(DEFAULT_HEADS, sort_keys=True)
    if json.dumps(heads, sort_keys=True) != layout:
        raise DataError(f"{where}: heads {heads!r} are not the layout {layout}")
    if exact_type(seed, int, f"{where}: seed", DataError) < 0:
        raise DataError(f"{where}: seed {seed} is negative")
    return input_dim, hidden, seed


class SGDMomentum:
    """Classic momentum update: v <- m*v + g; theta <- theta - lr*v."""

    def __init__(self, model: MultiHeadModel, lr: float = 1e-4, momentum: float = 0.9):
        if not 0 < lr < np.inf:  # NaN fails too
            raise DataError(f"learning rate must be finite and > 0, got {lr}")
        if not 0.0 <= momentum < 1.0:
            raise DataError(f"momentum must be in [0, 1), got {momentum}")
        self.lr = lr
        self.momentum = momentum
        self.velocity = {name: np.zeros_like(p) for name, p in model.named_params()}

    def step(self, model: MultiHeadModel, grads: dict) -> None:
        for name, p in model.named_params():
            v = self.velocity[name]
            v *= self.momentum
            v += grads[name]
            p -= self.lr * v


def gradient_check(model, value_fn, grad_fn, rng=None):
    """Max relative error between analytic and central finite-difference gradients.

    ``value_fn(model) -> float`` and ``grad_fn(model) -> {param name: array}``
    must evaluate the same loss. Samples up to 20 entries per parameter tensor and
    steps each by ``h`` = 1e-5 both ways.
    """
    h = 1e-5
    if not np.isfinite(value_fn(model)):
        raise NumericalError("non-finite loss in gradient check")
    rng = np.random.default_rng(0) if rng is None else rng
    analytic = grad_fn(model)
    max_err = 0.0
    for name, p in model.named_params():
        flat = p.flat  # writes through to p, a view or not
        for i in rng.choice(p.size, size=min(20, p.size), replace=False):
            orig = flat[i]
            flat[i] = orig + h
            up = value_fn(model)
            flat[i] = orig - h
            down = value_fn(model)
            flat[i] = orig
            fd = (up - down) / (2.0 * h)
            a = analytic[name].flat[i]
            denom = max(abs(a), abs(fd))
            if denom > 1e-8:
                max_err = max(max_err, abs(a - fd) / denom)
            else:
                max_err = max(max_err, abs(a - fd))
    return max_err


def median_filter(predictions, window: int = 5, first=0, last=-1) -> np.ndarray:
    """Per-component sliding median with edge replication padding. Each window is
    clipped to rows ``first..last`` (indices, per row or for all rows; by default
    all rows), so the rows of each sequence must be adjacent and in order."""
    if window % 2 == 0 or window < 1:
        raise DataError(f"median filter window must be odd and >= 1, got {window}")
    x = np.asarray(predictions, dtype=float)
    index = np.arange(len(x))
    rows = index[:, None] + np.arange(-(window // 2), window // 2 + 1)
    rows = np.clip(rows, np.reshape(index[first], (-1, 1)), np.reshape(index[last], (-1, 1)))
    # np.median's rule for an odd window, without the numpy.ma import of its NaN
    # check: the middle of the same partition (its mean turns -0.0 into 0.0), or
    # the window's last element where that is NaN
    part = np.partition(x[rows], [window // 2, -1], axis=1)
    return np.where(np.isnan(part[:, -1]), part[:, -1], part[:, window // 2] + 0.0)
