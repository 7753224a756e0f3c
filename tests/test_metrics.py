import json
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from affectmtl import DataError, ccc, metrics
from affectmtl.metrics import ConfusionMatrix, au_metrics, classification_metrics, va_metrics


def test_diagonal_matrix_is_perfect():
    m = classification_metrics(ConfusionMatrix(np.diag([3, 5, 2])))
    assert m["accuracy"] == 1.0
    assert m["uar"] == 1.0
    assert m["mean_diag"] == 1.0
    assert m["per_class_f1"] == [1.0, 1.0, 1.0]


def test_two_class_worked_example():
    m = classification_metrics(ConfusionMatrix(np.array([[8, 2], [4, 6]])))
    assert m["accuracy"] == pytest.approx(0.7)
    assert m["uar"] == pytest.approx(0.7)
    p0, r0 = 8 / 12, 8 / 10
    assert m["per_class_f1"][0] == pytest.approx(2 * p0 * r0 / (p0 + r0))


def test_f1_zero_convention():
    # class 2 never true and never predicted
    counts = np.zeros((3, 3), dtype=int)
    counts[0, 0] = 4
    counts[1, 1] = 4
    m = classification_metrics(ConfusionMatrix(counts))
    assert m["per_class_f1"][2] == 0.0


def test_uar_equals_accuracy_on_uniform_truth():
    rng = np.random.default_rng(0)
    for _ in range(20):
        k = int(rng.integers(2, 6))
        counts = rng.integers(0, 10, size=(k, k))
        # force uniform row sums
        target = 20
        for i in range(k):
            row = counts[i].astype(float)
            if row.sum() == 0:
                row[i] = 1.0
            counts[i] = np.round(row / row.sum() * target).astype(int)
            counts[i, i] += target - counts[i].sum()
        m = classification_metrics(ConfusionMatrix(counts))
        assert m["uar"] == pytest.approx(m["accuracy"], abs=1e-9)


def test_confusion_matrix_from_labels():
    cm = ConfusionMatrix.from_labels([0, 2, 2, 1, 2], np.array([0, 1, 2, 1, 1]), 3)
    assert cm.counts.tolist() == [[1, 0, 0], [0, 1, 0], [0, 2, 1]]
    assert ConfusionMatrix.from_labels([], [], 2).counts.tolist() == [[0, 0], [0, 0]]


@pytest.mark.parametrize("truth, pred", [
    ([-1, 0], [0, 0]),  # a -1 must not wrap round to the last class
    ([0, 2], [0, 0]),
    ([0, 1], [-1, 0]),
    ([0, 1], [0, 2]),
])
def test_confusion_matrix_from_labels_rejects_bad_labels(truth, pred):
    with pytest.raises(DataError):
        ConfusionMatrix.from_labels(truth, pred, 2)


def test_empty_matrix_rejected():
    with pytest.raises(DataError):
        classification_metrics(ConfusionMatrix(np.zeros((3, 3), dtype=int)))
    with pytest.raises(DataError):
        ConfusionMatrix(np.array([[1, -1], [0, 0]]))


def test_au_metrics_perfect():
    truth = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
    m = au_metrics(truth, truth)
    assert m["afa"] == 1.0


def _column(tp, fp, fn, tn, pad_nan=0):
    truth = [1.0] * tp + [0.0] * fp + [1.0] * fn + [0.0] * tn + [np.nan] * pad_nan
    pred = [1.0] * tp + [1.0] * fp + [0.0] * fn + [0.0] * tn + [0.0] * pad_nan
    return truth, pred


def test_au_metrics_combined_average():
    # AU0: F1 0.6, acc 0.8; AU1: F1 0.4, acc 0.6 -> afa (0.5 + 0.7)/2 = 0.6
    t0, p0 = _column(tp=3, fp=2, fn=2, tn=13)
    t1, p1 = _column(tp=2, fp=3, fn=3, tn=7, pad_nan=5)
    truth = np.stack([t0, t1], axis=1)
    pred = np.stack([p0, p1], axis=1)
    m = au_metrics(pred, truth)
    assert m["per_au_f1"] == pytest.approx([0.6, 0.4])
    assert m["per_au_accuracy"] == pytest.approx([0.8, 0.6])
    assert m["afa"] == pytest.approx(0.6)


def test_au_metrics_all_negative_convention():
    truth = np.zeros((5, 2))
    pred = np.zeros((5, 2))
    m = au_metrics(pred, truth)
    assert m["mean_accuracy"] == 1.0
    assert m["mean_f1"] == 0.0
    assert m["afa"] == 0.5


def test_au_metrics_excludes_unannotated_column():
    truth = np.array([[1.0, np.nan], [0.0, np.nan]])
    pred = np.array([[0.9, 0.9], [0.1, 0.9]])
    m = au_metrics(pred, truth)
    assert m["per_au_f1"][1] is None
    assert m["mean_f1"] == 1.0


def test_au_metrics_thresholding():
    truth = np.array([[1.0], [0.0]])
    pred = np.array([[0.51], [0.49]])
    assert au_metrics(pred, truth)["afa"] == 1.0


def _reference_au_metrics(predictions, truth, threshold=0.5):
    """One AU column at a time, with Python scalars: the per-AU loop that
    ``au_metrics`` must match. Returns its result (None when no column is
    annotated) and the unscored columns."""
    p, t = np.atleast_2d(predictions), np.atleast_2d(truth)
    hard = (p >= threshold).astype(float)
    per_f1, per_acc, scored, skipped = [], [], [], []
    for j in range(p.shape[1]):
        mask = ~np.isnan(t[:, j])
        if not mask.any():
            skipped.append(j)
            per_f1.append(None)
            per_acc.append(None)
            continue
        yj, hj = t[mask, j], hard[mask, j]
        tp = float(np.sum((yj == 1) & (hj == 1)))
        fp = float(np.sum((yj == 0) & (hj == 1)))
        fn = float(np.sum((yj == 1) & (hj == 0)))
        precision = tp / (tp + fp) if tp + fp > 0 else 0.0
        recall = tp / (tp + fn) if tp + fn > 0 else 0.0
        both = precision + recall
        per_f1.append(0.0 if both == 0 else 2 * precision * recall / both)
        per_acc.append(float(np.mean(yj == hj)))
        scored.append(j)
    if not scored:
        return None, skipped
    mean_f1 = float(np.mean([per_f1[j] for j in scored]))
    mean_acc = float(np.mean([per_acc[j] for j in scored]))
    return {"per_au_f1": per_f1, "mean_f1": mean_f1, "per_au_accuracy": per_acc,
            "mean_accuracy": mean_acc, "afa": (mean_f1 + mean_acc) / 2.0}, skipped


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_au_metrics_matches_per_au_loop(data):
    """Bit for bit, warnings included, on labels of 0, 1, NaN and other values,
    probabilities at and around the threshold, and columns with no annotation."""
    n, k = data.draw(st.integers(1, 12)), data.draw(st.integers(1, 6))
    cells = st.lists(st.sampled_from([0.0, 1.0, np.nan, np.nan, 0.5]), min_size=n * k,
                     max_size=n * k)
    truth = np.array(data.draw(cells)).reshape(n, k)
    pred = np.array(data.draw(st.lists(st.sampled_from([0.0, 0.2, 0.5, 0.5 - 1e-17, 0.7, 1.0]),
                                       min_size=n * k, max_size=n * k))).reshape(n, k)
    want, skipped = _reference_au_metrics(pred, truth)
    with patch.object(metrics.log, "warning") as warning:
        if want is None:
            with pytest.raises(DataError, match="no annotated entries"):
                au_metrics(pred, truth)
        else:
            assert json.dumps(au_metrics(pred, truth)) == json.dumps(want)
    assert [call.args[1] for call in warning.call_args_list] == skipped


def test_va_metrics():
    t = np.array([[0.0, 0.0], [1.0, 1.0], [2.0, 2.0]])
    assert va_metrics(t, t)["mean_ccc"] == pytest.approx(1.0, abs=1e-7)
    p = np.stack([np.array([0.0, 2.0, 4.0]), t[:, 1]], axis=1)
    m = va_metrics(t, p)
    assert m["ccc_v"] == pytest.approx(8 / 13, abs=1e-8)
    assert m["mean_ccc"] == pytest.approx((8 / 13 + ccc(t[:, 1], t[:, 1])) / 2, abs=1e-6)
    const = np.full_like(t, 0.5)
    assert abs(va_metrics(t, const)["ccc_v"]) < 1e-6


def test_va_metrics_shape_errors():
    with pytest.raises(DataError):
        va_metrics(np.zeros((3, 2)), np.zeros((4, 2)))
    with pytest.raises(DataError):
        va_metrics(np.zeros((1, 2)), np.zeros((1, 2)))


def test_metrics_in_unit_interval():
    rng = np.random.default_rng(1)
    for _ in range(20):
        k = 4
        counts = rng.integers(0, 8, size=(k, k))
        counts[0, 0] += 1
        m = classification_metrics(ConfusionMatrix(counts))
        for key in ("accuracy", "macro_f1", "uar", "mean_diag"):
            assert 0.0 <= m[key] <= 1.0
        truth = np.where(rng.random((10, 5)) < 0.8, (rng.random((10, 5)) < 0.5).astype(float), np.nan)
        truth[0, :] = 1.0
        am = au_metrics(rng.random((10, 5)), truth)
        assert 0.0 <= am["afa"] <= 1.0
