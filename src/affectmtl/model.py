"""Small differentiable multi-head network with manual backprop.

A fully-connected trunk (tanh) feeds one shared feature to every head. Heads
are named and typed: "tanh" (bounded regression, e.g. valence/arousal),
"softmax" (mutually exclusive classes), "sigmoid" (independent binary labels).
Everything is float64 numpy; all randomness flows from explicit seeds.
"""

from __future__ import annotations

import json
import os
import struct

import numpy as np

from .errors import DataError, NumericalError

HEAD_KINDS = ("tanh", "softmax", "sigmoid")

# Case-I default head layout: VA pair, 7 expressions, 17 AUs.
DEFAULT_HEADS = {"va": ("tanh", 2), "expr": ("softmax", 7), "au": ("sigmoid", 17)}


def _glorot(rng, fan_in, fan_out):
    a = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-a, a, size=(fan_in, fan_out))


class MultiHeadModel:
    """Shared trunk plus named output heads, with analytic gradients."""

    def __init__(self, input_dim, hidden=(64, 64), heads=None, seed=0):
        heads = dict(DEFAULT_HEADS if heads is None else heads)
        for name, (kind, size) in heads.items():
            if kind not in HEAD_KINDS:
                raise DataError(f"unknown head kind {kind!r} for head {name!r}")
            if size < 1 or (kind == "softmax" and size < 2):
                raise DataError(f"head {name!r} size {size} too small")
        self.input_dim = int(input_dim)
        self.hidden = tuple(int(h) for h in hidden)
        self.head_spec = heads
        self.seed = int(seed)
        self.trunk_frozen = False
        rng = np.random.default_rng(seed)
        self.trunk = []
        d = self.input_dim
        for h in self.hidden:
            self.trunk.append({"W": _glorot(rng, d, h), "b": np.zeros(h)})
            d = h
        self.feature_dim = d
        self.heads = {}
        for name in sorted(heads):
            kind, size = heads[name]
            self.heads[name] = {
                "W": _glorot(rng, d, size),
                "b": np.zeros(size),
                "kind": kind,
            }

    # -- parameter iteration --------------------------------------------

    def named_params(self):
        """Yield (name, array) in a fixed declaration order."""
        for i, layer in enumerate(self.trunk):
            yield f"trunk{i}.W", layer["W"]
            yield f"trunk{i}.b", layer["b"]
        for name in sorted(self.heads):
            yield f"{name}.W", self.heads[name]["W"]
            yield f"{name}.b", self.heads[name]["b"]

    # -- forward / backward ---------------------------------------------

    def forward(self, X):
        """Batch forward pass. Returns (outputs dict, cache for backward).

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
            h = np.tanh(h @ layer["W"] + layer["b"])
            acts.append(h)
        out = {}
        for name, head in self.heads.items():
            z = h @ head["W"] + head["b"]
            if head["kind"] == "tanh":
                out[name] = np.tanh(z)
            elif head["kind"] == "sigmoid":
                out[name] = 1.0 / (1.0 + np.exp(-z))
            else:
                e = np.exp(z - z.max(axis=1, keepdims=True))
                out[name] = e / e.sum(axis=1, keepdims=True)
        return out, {"acts": acts, "out": out}

    def backward(self, cache, out_grads: dict):
        """Backprop loss gradients on head outputs to parameter gradients.

        ``out_grads`` maps head name -> array of d(loss)/d(output); missing
        heads contribute nothing. Returns {param name -> gradient array}.
        """
        acts = cache["acts"]
        out = cache["out"]
        h = acts[-1]
        grads = {name: np.zeros_like(p) for name, p in self.named_params()}
        gh = np.zeros_like(h)
        for name, g in out_grads.items():
            if name not in self.heads:
                raise DataError(f"gradient for unknown head {name!r}")
            head = self.heads[name]
            y = out[name]
            g = np.asarray(g, dtype=float)
            if head["kind"] == "tanh":
                gz = g * (1.0 - y**2)
            elif head["kind"] == "sigmoid":
                gz = g * y * (1.0 - y)
            else:  # softmax Jacobian applied row-wise
                gz = y * (g - (g * y).sum(axis=1, keepdims=True))
            grads[f"{name}.W"] += h.T @ gz
            grads[f"{name}.b"] += gz.sum(axis=0)
            gh += gz @ head["W"].T
        for i in range(len(self.trunk) - 1, -1, -1):
            a_out, a_in = acts[i + 1], acts[i]
            gz = gh * (1.0 - a_out**2)
            if not self.trunk_frozen:
                grads[f"trunk{i}.W"] += a_in.T @ gz
                grads[f"trunk{i}.b"] += gz.sum(axis=0)
            gh = gz @ self.trunk[i]["W"].T
        if self.trunk_frozen:
            for i in range(len(self.trunk)):
                grads[f"trunk{i}.W"][:] = 0.0
                grads[f"trunk{i}.b"][:] = 0.0
        return grads

    # -- surgery ---------------------------------------------------------

    def replace_head(self, name, size, kind="softmax", freeze_trunk=False, seed=None):
        """Attach (or replace) a head with fresh parameters; optionally freeze the trunk."""
        if kind == "softmax" and size < 2:
            raise DataError(f"softmax head needs at least 2 classes, got {size}")
        if kind not in HEAD_KINDS:
            raise DataError(f"unknown head kind {kind!r}")
        rng = np.random.default_rng(self.seed + 1 if seed is None else seed)
        self.heads[name] = {
            "W": _glorot(rng, self.feature_dim, size),
            "b": np.zeros(size),
            "kind": kind,
        }
        self.head_spec[name] = (kind, int(size))
        self.trunk_frozen = bool(freeze_trunk)

    # -- checkpoints ------------------------------------------------------

    def save(self, path) -> None:
        """Flat binary checkpoint: JSON header + little-endian float64 blobs."""
        header = json.dumps(
            {
                "input_dim": self.input_dim,
                "hidden": list(self.hidden),
                "heads": {n: list(s) for n, s in self.head_spec.items()},
                "seed": self.seed,
                "trunk_frozen": self.trunk_frozen,
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
                (hlen,) = struct.unpack("<Q", f.read(8))
                if hlen > os.fstat(f.fileno()).st_size:
                    raise DataError(f"truncated checkpoint: {path}")
                spec = json.loads(f.read(hlen).decode())
                model = cls(
                    spec["input_dim"],
                    hidden=spec["hidden"],
                    heads={n: tuple(s) for n, s in spec["heads"].items()},
                    seed=spec["seed"],
                )
                model.trunk_frozen = spec.get("trunk_frozen", False)
                for _, p in model.named_params():
                    buf = f.read(p.size * 8)
                    if len(buf) != p.size * 8:
                        raise DataError(f"truncated checkpoint: {path}")
                    p[...] = np.frombuffer(buf, dtype="<f8").reshape(p.shape)
                if f.read(1):
                    raise DataError(f"trailing bytes after the parameters in checkpoint {path}")
        # KeyError/TypeError/ValueError: a header with missing keys or wrong types
        except (OSError, struct.error, KeyError, TypeError, ValueError) as e:
            raise DataError(f"cannot read checkpoint {path}: {e!r}") from e
        return model


class SGDMomentum:
    """Classic momentum update: v <- m*v + g; theta <- theta - lr*v."""

    def __init__(self, model: MultiHeadModel, lr: float = 1e-4, momentum: float = 0.9):
        if lr <= 0:
            raise DataError(f"learning rate must be positive, got {lr}")
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


def gradient_check(model, value_fn, grad_fn, n_per_layer=20, h=1e-5, rng=None):
    """Max relative error between analytic and central finite-difference gradients.

    ``value_fn(model) -> float`` and ``grad_fn(model) -> {param name: array}``
    must evaluate the same loss. Samples up to ``n_per_layer`` entries per
    parameter tensor.
    """
    if not np.isfinite(value_fn(model)):
        raise NumericalError("non-finite loss in gradient check")
    rng = np.random.default_rng(0) if rng is None else rng
    analytic = grad_fn(model)
    max_err = 0.0
    for name, p in model.named_params():
        if model.trunk_frozen and name.startswith("trunk"):
            # frozen parameters must report exactly zero analytic gradient
            max_err = max(max_err, float(np.abs(analytic[name]).max()))
            continue
        flat = p.reshape(-1)
        k = min(n_per_layer, flat.size)
        idxs = rng.choice(flat.size, size=k, replace=False)
        for i in idxs:
            orig = flat[i]
            flat[i] = orig + h
            up = value_fn(model)
            flat[i] = orig - h
            down = value_fn(model)
            flat[i] = orig
            fd = (up - down) / (2.0 * h)
            a = analytic[name].reshape(-1)[i]
            denom = max(abs(a), abs(fd))
            if denom > 1e-8:
                max_err = max(max_err, abs(a - fd) / denom)
            else:
                max_err = max(max_err, abs(a - fd))
    return max_err


def median_filter(predictions, window: int = 5) -> np.ndarray:
    """Per-component sliding median with edge replication padding."""
    if window % 2 == 0 or window < 1:
        raise DataError(f"median filter window must be odd and >= 1, got {window}")
    arr = np.asarray(predictions, dtype=float)
    squeeze = arr.ndim == 1
    x = arr.reshape(-1, 1) if squeeze else arr
    if window == 1:
        out = x.copy()
    else:
        half = window // 2
        padded = np.pad(x, ((half, half), (0, 0)), mode="edge")
        windows = np.lib.stride_tricks.sliding_window_view(padded, window, axis=0)
        out = np.median(windows, axis=2)
    return out[:, 0] if squeeze else out
