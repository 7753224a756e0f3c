"""The three task losses and the concordance correlation, with analytic gradients;
each coupling term (SCA, DM) reuses a task loss against a target built from the table.

Each ``*_grad`` function reads a head's outputs (probabilities, VA values) and
returns the batch-mean value and its gradient at that head's input, the
pre-activations of its softmax, sigmoid or tanh; the model backpropagates from
there. The cross-entropy family works on row matrices, one row per sample; a
1-D input is a single row. A gradient has the shape of the outputs given.
"""

from __future__ import annotations

import numpy as np

from .errors import DataError

DEFAULT_EPS = 1e-7
CCC_EPS = 1e-8


# -- concordance correlation --------------------------------------------


def ccc(y, y_hat) -> float:
    """Concordance correlation coefficient with population moments.

    2*cov(y, y_hat) / (var(y) + var(y_hat) + (mean(y) - mean(y_hat))^2), with
    the denominator clamped below at :data:`CCC_EPS` so degenerate inputs stay finite.
    """
    y, yh = np.asarray(y, float), np.asarray(y_hat, float)
    if y.shape != yh.shape or y.ndim != 1:
        raise DataError("ccc inputs must be 1-D sequences of equal length")
    return _ccc(y, yh)[0].item()


def _ccc(y, yh):
    """The CCC of each row of ``y`` against the same row of ``yh``, and its moments."""
    n = y.shape[-1]
    if n < 2:
        raise DataError("ccc needs at least 2 points")
    my, mh = y.mean(axis=-1, keepdims=True), yh.mean(axis=-1, keepdims=True)
    cov = ((y - my) * (yh - mh)).mean(axis=-1, keepdims=True)
    denom = y.var(axis=-1, keepdims=True) + yh.var(axis=-1, keepdims=True) + (my - mh) ** 2
    denom = np.maximum(denom, CCC_EPS)
    return 2.0 * cov / denom, (n, my, mh, cov, denom)


def ccc_loss_grad(y_va, y_hat_va):
    """1 - mean of per-dimension CCC over a batch of (valence, arousal) pairs,
    and its gradient at the tanh head's input."""
    y = np.asarray(y_va, float)
    yh = np.asarray(y_hat_va, float)
    if y.ndim != 2 or y.shape[1] != 2 or y.shape != yh.shape:
        raise DataError("ccc_loss_grad expects (n, 2) truth and prediction arrays")
    # one contiguous row per dimension: each row's moments have the bits of its column's
    y, yh = np.ascontiguousarray(y.T), np.ascontiguousarray(yh.T)
    values, (n, my, mh, cov, denom) = _ccc(y, yh)
    dcov = (y - my) / n
    # where the clamp holds, the denominator is locally constant
    ddenom = np.where(denom <= CCC_EPS, 0.0, (2.0 * (yh - mh) - 2.0 * (my - mh)) / n)
    grad = -((2.0 * dcov * denom - 2.0 * cov * ddenom) / denom**2) / 2.0
    return 1.0 - values.mean(), (grad * (1.0 - yh**2)).T


# -- cross-entropy family ------------------------------------------------


def _rows(x) -> np.ndarray:
    """``x`` as a float row matrix; a 1-D input becomes one row."""
    return np.atleast_2d(np.asarray(x, float))


def masked_bce_grad(p_au, y_au, weights=None):
    """Binary cross entropy over annotated AUs, normalized by each row's mask
    weight, and its gradient at the sigmoid head's input. Targets are hard or
    soft, in [0, 1] (NaN: not annotated).

    Distribution matching (FaceBehaviorNet, arXiv:1910.11111; arXiv:2105.03790) is
    ``NUM_AUS`` times this loss on every row against a held ``q = p_expr @ weights``:
    ``L_DM = -(1/n) sum_rows sum_b [q_b log p_b + (1 - q_b) log(1 - p_b)]``. Each choice
    (orientation, held ``q``, every row, sum over AUs) was measured; the mean over AUs
    gave AU F1 0.467/0.466/0.596, against 0.790/0.806/0.813, on the README walkthrough.
    """
    p = _rows(p_au)
    y = _rows(y_au)
    pc = np.clip(p, DEFAULT_EPS, 1.0 - DEFAULT_EPS)
    terms = y * np.log(pc) + (1.0 - y) * np.log(1.0 - pc)  # NaN where y is
    keep = p == pc  # where the clip passes the gradient
    mask = ~np.isnan(y)
    if weights is None and mask.all():  # DM, or a fully annotated AU term: every weight 1
        w, wsum = 1.0, float(y.shape[1] * len(p))
    else:
        if not mask.any(axis=1).all():
            raise DataError("masked_bce_grad: no annotated AUs")
        if weights is None:
            w = mask.astype(float)
        else:
            w = np.where(mask, np.nan_to_num(_rows(weights), nan=0.0), 0.0)
        terms, keep = np.where(mask, terms, 0.0), mask & keep
        wsum = w.sum(axis=1, keepdims=True) * len(p)
    val = -float(((w * terms).sum(axis=1, keepdims=True) / wsum).sum())
    grad = np.where(keep, w * (p - y) / wsum, 0.0)
    return val, grad.reshape(np.shape(p_au))


def softmax_ce_grad(p, y):
    """Mean cross entropy of probability rows against hard labels, one class
    index per row, and its gradient at the softmax head's input."""
    P = _rows(p)
    if np.any(np.abs(P.sum(axis=1) - 1.0) > 1e-6):
        raise DataError("softmax_ce_grad: prediction does not sum to 1")
    labels = np.asarray(y).astype(int).reshape(-1)
    if len(labels) != len(P) or np.any((labels < 0) | (labels >= P.shape[1])):
        raise DataError("softmax_ce_grad: need one label index in range per row")
    onehot = labels[:, None] == np.arange(P.shape[1])
    p_label = P[onehot]
    val = -float(np.log(np.maximum(p_label, DEFAULT_EPS)).sum() / len(P))
    # a label probability below the clip passes no gradient to its row
    grad = np.where(p_label[:, None] >= DEFAULT_EPS, (P - onehot) / len(P), 0.0)
    return val, grad.reshape(np.shape(p))
