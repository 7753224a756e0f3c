"""The three task losses and the concordance correlation, with analytic gradients;
each coupling term (SCA, DM) reuses a task loss against a target built from the table.

Every gradient here is taken with respect to the model's post-activation
outputs (probabilities, VA values); chaining through the output nonlinearities
and trunk is the model's job. The cross-entropy family works on row matrices,
one row per sample; a 1-D input is a single row. The ``*_grad`` functions
return the batch-mean value and its gradient, which has the shape of the input.
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
    return _ccc(np.asarray(y, float), np.asarray(y_hat, float))[0]


def _ccc(y, yh):
    if y.shape != yh.shape or y.ndim != 1:
        raise DataError("ccc inputs must be 1-D sequences of equal length")
    n = y.size
    if n < 2:
        raise DataError("ccc needs at least 2 points")
    my, mh = y.mean(), yh.mean()
    cov = ((y - my) * (yh - mh)).mean()
    denom = max(y.var() + yh.var() + (my - mh) ** 2, CCC_EPS)
    return 2.0 * cov / denom, (n, my, mh, cov, denom)


def ccc_loss_grad(y_va, y_hat_va):
    """1 - mean of per-dimension CCC over a batch of (valence, arousal) pairs,
    and its gradient with respect to the predicted VA matrix."""
    y = np.asarray(y_va, float)
    yh = np.asarray(y_hat_va, float)
    if y.ndim != 2 or y.shape[1] != 2 or y.shape != yh.shape:
        raise DataError("ccc_loss_grad expects (n, 2) truth and prediction arrays")
    values, grad = [], np.empty_like(yh)
    for j in range(2):
        val, (n, my, mh, cov, denom) = _ccc(y[:, j], yh[:, j])
        dcov = (y[:, j] - my) / n
        if denom <= CCC_EPS:  # clamp active: denominator locally constant
            ddenom = 0.0
        else:
            ddenom = (2.0 * (yh[:, j] - mh) - 2.0 * (my - mh)) / n
        grad[:, j] = -((2.0 * dcov * denom - 2.0 * cov * ddenom) / denom**2) / 2.0
        values.append(val)
    return 1.0 - (values[0] + values[1]) / 2.0, grad


# -- cross-entropy family ------------------------------------------------


def _rows(x) -> np.ndarray:
    """``x`` as a float row matrix; a 1-D input becomes one row."""
    return np.atleast_2d(np.asarray(x, float))


def masked_bce_grad(p_au, y_au, weights=None):
    """Binary cross entropy over annotated AUs, normalized by each row's mask
    weight, and its gradient. Targets are hard or soft, in [0, 1] (NaN: not annotated).

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
    grad = np.where(keep, -w * (y / pc - (1.0 - y) / (1.0 - pc)) / wsum, 0.0)
    return val, grad.reshape(np.shape(p_au))


def softmax_ce_grad(p, y):
    """Mean cross entropy of probability rows against hard labels, one class
    index per row, and its gradient."""
    P = _rows(p)
    if np.any(np.abs(P.sum(axis=1) - 1.0) > 1e-6):
        raise DataError("softmax_ce_grad: prediction does not sum to 1")
    labels = np.asarray(y).astype(int).reshape(-1)
    if len(labels) != len(P) or np.any((labels < 0) | (labels >= P.shape[1])):
        raise DataError("softmax_ce_grad: need one label index in range per row")
    q = np.eye(P.shape[1])[labels]
    pc = np.clip(P, DEFAULT_EPS, None)
    val = -float((q * np.log(pc)).sum() / len(P))
    grad = np.where(P == pc, -q / pc / len(P), 0.0)
    return val, grad.reshape(np.shape(p))

