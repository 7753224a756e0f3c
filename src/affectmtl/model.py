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
        rng = np.random.default_rng(seed)
        self._allocate(input_dim, hidden, heads, seed, lambda a, b: _glorot(rng, a, b))

    def _allocate(self, input_dim, hidden, heads, seed, weights):
        """Check the head spec; weights are ``weights(fan_in, fan_out)`` in declaration order."""
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
        self.trunk = []
        d = self.input_dim
        for h in self.hidden:
            self.trunk.append({"W": weights(d, h), "b": np.zeros(h)})
            d = h
        self.feature_dim = d
        self.heads = {}
        for name in sorted(heads):
            kind, size = heads[name]
            self.heads[name] = {
                "W": weights(d, size),
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

    def _fused_heads(self):
        """Every head's weights side by side: (W, b, [(name, kind, columns)]).

        The parameters stay one contiguous pair of arrays per head (see
        ``named_params``); this copy lets one product evaluate all heads.
        """
        width = sum(head["b"].size for head in self.heads.values())
        W, b = np.empty((self.feature_dim, width)), np.empty(width)
        blocks, start = [], 0
        for name, head in self.heads.items():
            cols = slice(start, start + head["b"].size)
            W[:, cols], b[cols] = head["W"], head["b"]
            blocks.append((name, head["kind"], cols))
            start = cols.stop
        return W, b, blocks

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
            h = h @ layer["W"]
            h += layer["b"]
            np.tanh(h, out=h)
            acts.append(h)
        W, b, blocks = self._fused_heads()
        z = h @ W
        z += b
        out = {}
        for name, kind, cols in blocks:
            zc = z[:, cols]
            if kind == "tanh":
                out[name] = np.tanh(zc)
            elif kind == "sigmoid":
                # z is clipped where exp(-z) would overflow (exp(709) < max float)
                out[name] = 1.0 / (1.0 + np.exp(-np.maximum(zc, -709.0)))
            else:
                e = np.exp(zc - zc.max(axis=1, keepdims=True))
                e /= e.sum(axis=1, keepdims=True)
                out[name] = e
        return out, {"acts": acts, "out": out, "heads": (W, blocks)}

    def backward(self, cache, out_grads: dict):
        """Backprop loss gradients on head outputs to parameter gradients.

        ``out_grads`` maps head name -> array of d(loss)/d(output); missing
        heads contribute nothing. Returns {param name -> gradient array}. No
        gradient with respect to the input is formed, and a frozen trunk gets
        zero gradients without being backpropagated through.
        """
        acts, out = cache["acts"], cache["out"]
        W_heads, blocks = cache["heads"]
        for name in out_grads:
            if name not in self.heads:
                raise DataError(f"gradient for unknown head {name!r}")
        h = acts[-1]
        gz = np.zeros((len(h), W_heads.shape[1]))
        for name, kind, cols in blocks:
            if name not in out_grads:
                continue
            y = out[name]
            g = np.asarray(out_grads[name], dtype=float)
            if kind == "tanh":
                gz[:, cols] = g * (1.0 - y**2)
            elif kind == "sigmoid":
                gz[:, cols] = g * y * (1.0 - y)
            else:  # softmax Jacobian applied row-wise
                gz[:, cols] = y * (g - (g * y).sum(axis=1, keepdims=True))
        grads = {}
        if self.trunk_frozen or not self.trunk:
            for i, layer in enumerate(self.trunk):
                grads[f"trunk{i}.W"] = np.zeros_like(layer["W"])
                grads[f"trunk{i}.b"] = np.zeros_like(layer["b"])
        else:
            gh = gz @ W_heads.T
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
        for name, _, cols in blocks:
            grads[f"{name}.W"] = np.ascontiguousarray(gW[:, cols])
            grads[f"{name}.b"] = gb[cols]
        return {name: grads[name] for name, _ in self.named_params()}

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
                size = os.fstat(f.fileno()).st_size
                (hlen,) = struct.unpack("<Q", f.read(8))
                if hlen > size:
                    raise DataError(f"truncated checkpoint: {path}")
                spec = json.loads(f.read(hlen).decode())
                input_dim, hidden, heads, seed, frozen = _header_fields(spec, path)
                # the parameter bytes the header implies, checked before anything is allocated
                dims = (input_dim, *hidden)
                n_params = sum((a + 1) * b for a, b in zip(dims, dims[1:]))
                n_params += sum((dims[-1] + 1) * n for _, n in heads.values())
                left = size - f.tell()
                if left != 8 * n_params:
                    raise DataError(
                        f"checkpoint {path} holds {left} parameter bytes, "
                        f"its header declares {8 * n_params}"
                    )
                model = cls.__new__(cls)  # every parameter is read below: no random init
                model._allocate(input_dim, hidden, heads, seed, lambda a, b: np.empty((a, b)))
                model.trunk_frozen = frozen
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
    """(input_dim, hidden, heads, seed, trunk_frozen) of a checkpoint header,
    each checked for its type; sizes are positive ints."""

    def positive(v):
        return type(v) is int and v > 0

    if not isinstance(spec, dict):
        raise DataError(f"checkpoint {path}: the header is not a JSON object")
    missing = sorted({"input_dim", "hidden", "heads", "seed"} - set(spec))
    if missing:
        raise DataError(f"checkpoint {path}: the header lacks {', '.join(missing)}")
    input_dim, hidden, heads, seed = (spec[k] for k in ("input_dim", "hidden", "heads", "seed"))
    frozen = spec.get("trunk_frozen", False)
    if not positive(input_dim):
        raise DataError(f"checkpoint {path}: input_dim {input_dim!r} is not a positive int")
    if not (isinstance(hidden, list) and all(positive(h) for h in hidden)):
        raise DataError(f"checkpoint {path}: hidden {hidden!r} is not a list of positive ints")
    if not (isinstance(heads, dict) and all(
            isinstance(s, list) and len(s) == 2 and s[0] in HEAD_KINDS and positive(s[1])
            for s in heads.values())):
        raise DataError(f"checkpoint {path}: heads {heads!r} are not [kind, size] pairs")
    if type(seed) is not int or seed < 0:
        raise DataError(f"checkpoint {path}: seed {seed!r} is not a non-negative int")
    if type(frozen) is not bool:
        raise DataError(f"checkpoint {path}: trunk_frozen {frozen!r} is not a boolean")
    return input_dim, hidden, {n: tuple(s) for n, s in heads.items()}, seed, frozen


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
        if not np.shares_memory(flat, p):
            # a copy would be perturbed and the loss would never move
            raise NumericalError(f"parameter {name} is not contiguous; cannot perturb it in place")
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
    return np.median(x[rows], axis=1)
