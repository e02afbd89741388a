"""Evaluation metrics: confusion-based scores, ROC/AUC, and histograms.

Each result is the plain data its report holds: a dict of four point
metrics, an (fpr, tpr) pair with its AUC, or histogram counts. The
metrics take the label arrays of a ``LabelSet`` (``churned`` or
``pct_inactive_eval``), never the set itself. ``evaluate`` applies them
to each final model's scores of its own training rows, which makes the
model rows of ``report.json`` in-sample; ``models.kfold_cv`` applies
them to held-out folds.

The ROC sweep groups tied scores into a single step, which makes the
trapezoidal AUC equal the pairwise concordance statistic
P(score_pos > score_neg) + 0.5 P(tie) exactly.
"""

from __future__ import annotations

import numpy as np

from . import artifact


def classification_metrics(scores, churned, threshold: float) -> dict:
    """Accuracy, precision, recall and F-score at ``score >= threshold``
    with churn as the positive class.

    Precision with no predicted churners, and recall with no actual
    ones, are reported as 0.
    """
    scores = np.asarray(scores, dtype=float)
    y = np.asarray(churned, dtype=bool)
    if len(scores) == 0:
        raise ValueError("no scores to evaluate")
    if len(scores) != len(y):
        raise ValueError("scores and labels differ in length")
    if not np.isfinite(scores).all():
        raise ValueError("scores contain non-finite values")
    pred = scores >= threshold
    tp = int(np.sum(pred & y))
    fp = int(np.sum(pred & ~y))
    fn = int(np.sum(~pred & y))
    tn = int(np.sum(~pred & ~y))
    precision = tp / (tp + fp) if tp + fp > 0 else 0.0
    recall = tp / (tp + fn) if tp + fn > 0 else 0.0
    f = 2 * precision * recall / (precision + recall) \
        if (precision + recall) > 0 else 0.0
    return {"accuracy": (tp + tn) / (tp + fp + tn + fn),
            "precision": precision, "recall": recall, "f_score": f}


def roc_auc(scores, churned) -> tuple[tuple[np.ndarray, np.ndarray], float]:
    """ROC curve ``(fpr, tpr)`` over distinct score thresholds, from
    (0, 0) to (1, 1), and its trapezoidal AUC."""
    scores = np.asarray(scores, dtype=float)
    y = np.asarray(churned, dtype=bool)
    n_pos = int(y.sum())
    n_neg = len(y) - n_pos
    if n_pos == 0 or n_neg == 0:
        raise ValueError("roc_auc needs both classes present")
    order = np.argsort(-scores, kind="stable")
    s, yy = scores[order], y[order]
    # one sweep step per distinct score value
    distinct = np.flatnonzero(np.diff(s)) if len(s) > 1 else np.array([], int)
    step_ends = np.concatenate([distinct, [len(s) - 1]])
    cum_tp = np.cumsum(yy)[step_ends]
    cum_fp = (step_ends + 1) - cum_tp
    tpr = np.concatenate([[0.0], cum_tp / n_pos])
    fpr = np.concatenate([[0.0], cum_fp / n_neg])
    return (fpr, tpr), float(np.trapezoid(tpr, fpr))


def _fixed_histogram(values: np.ndarray, bins: int) -> np.ndarray:
    # counts in equal-width bins over [0, 1]; top bin is right-inclusive
    if bins < 1:
        raise ValueError("bins must be >= 1")
    idx = np.minimum((values * bins).astype(int), bins - 1)
    return np.bincount(idx, minlength=bins)


def error_distribution(predicted, actual, bins: int) -> np.ndarray:
    """Histogram counts of |predicted - actual|."""
    predicted = np.asarray(predicted, dtype=float)
    actual = np.asarray(actual, dtype=float)
    if len(predicted) != len(actual):
        raise ValueError("predicted and actual differ in length")
    if np.any((predicted < 0) | (predicted > 1) | (actual < 0) | (actual > 1)):
        raise ValueError("values must lie in [0, 1]")
    err = np.abs(predicted - actual)
    return _fixed_histogram(err, bins)


def inactivity_distribution(pct_inactive_eval, bins: int) -> np.ndarray:
    """Histogram counts of the evaluation-window inactive fractions."""
    return _fixed_histogram(np.asarray(pct_inactive_eval, dtype=float), bins)


def write_roc_csv(curve: tuple[np.ndarray, np.ndarray], path: str) -> str:
    fpr, tpr = curve
    return artifact.write_text(path, "fpr,tpr\n" + "".join(
        f"{float(f)!r},{float(t)!r}\n" for f, t in zip(fpr, tpr)))


def write_histogram_csv(counts: np.ndarray, path: str) -> str:
    """One row per bin of ``counts``: its edges over [0, 1] and count."""
    edges = np.linspace(0.0, 1.0, len(counts) + 1)
    return artifact.write_text(path, "bin_low,bin_high,count\n" + "".join(
        f"{float(lo)!r},{float(hi)!r},{int(c)}\n"
        for lo, hi, c in zip(edges[:-1], edges[1:], counts)))
