"""Evaluation metrics: confusion-based scores, ROC/AUC, and histograms.

The ROC sweep groups tied scores into a single step, which makes the
trapezoidal AUC equal the pairwise concordance statistic
P(score_pos > score_neg) + 0.5 P(tie) exactly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass
class ConfusionMatrix:
    tp: int
    fp: int
    tn: int
    fn: int

    @property
    def total(self) -> int:
        return self.tp + self.fp + self.tn + self.fn


@dataclass
class ClassificationReport:
    accuracy: float
    precision: float
    recall: float
    f_score: float
    confusion: ConfusionMatrix
    precision_defined: bool = True
    recall_defined: bool = True

    def as_dict(self) -> dict:
        return {"accuracy": self.accuracy, "precision": self.precision,
                "recall": self.recall, "f_score": self.f_score}


@dataclass
class RocCurve:
    fpr: np.ndarray
    tpr: np.ndarray
    thresholds: np.ndarray  # +inf sentinel first, then distinct scores desc


def classification_metrics(scores, labels, threshold: float) -> ClassificationReport:
    """Point metrics at ``score >= threshold`` with churn as positive class.

    Undefined ratios (no predicted positives, or no actual positives)
    are reported as 0 with the matching ``*_defined`` flag cleared.
    """
    scores = np.asarray(scores, dtype=float)
    y = _churn_array(labels)
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
    cm = ConfusionMatrix(tp=tp, fp=fp, tn=tn, fn=fn)
    precision_defined = (tp + fp) > 0
    recall_defined = (tp + fn) > 0
    precision = tp / (tp + fp) if precision_defined else 0.0
    recall = tp / (tp + fn) if recall_defined else 0.0
    f = 2 * precision * recall / (precision + recall) \
        if (precision + recall) > 0 else 0.0
    return ClassificationReport(
        accuracy=(tp + tn) / cm.total,
        precision=precision, recall=recall, f_score=f, confusion=cm,
        precision_defined=precision_defined, recall_defined=recall_defined)


def roc_auc(scores, labels) -> tuple[RocCurve, float]:
    """ROC curve over distinct score thresholds and its trapezoidal AUC."""
    scores = np.asarray(scores, dtype=float)
    y = _churn_array(labels)
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
    thresholds = np.concatenate([[np.inf], s[step_ends]])
    auc = float(np.trapezoid(tpr, fpr))
    return RocCurve(fpr=fpr, tpr=tpr, thresholds=thresholds), auc


@dataclass
class Histogram:
    bin_low: np.ndarray
    bin_high: np.ndarray
    counts: np.ndarray

    @property
    def total(self) -> int:
        return int(self.counts.sum())


def _fixed_histogram(values: np.ndarray, bins: int) -> Histogram:
    # equal-width bins over [0, 1]; top bin is right-inclusive
    if bins < 1:
        raise ValueError("bins must be >= 1")
    edges = np.linspace(0.0, 1.0, bins + 1)
    idx = np.minimum((values * bins).astype(int), bins - 1)
    counts = np.bincount(idx, minlength=bins)
    return Histogram(bin_low=edges[:-1], bin_high=edges[1:], counts=counts)


def error_distribution(predicted, actual, bins: int):
    """Histogram of |predicted - actual|."""
    predicted = np.asarray(predicted, dtype=float)
    actual = np.asarray(actual, dtype=float)
    if len(predicted) != len(actual):
        raise ValueError("predicted and actual differ in length")
    if np.any((predicted < 0) | (predicted > 1) | (actual < 0) | (actual > 1)):
        raise ValueError("values must lie in [0, 1]")
    err = np.abs(predicted - actual)
    return _fixed_histogram(err, bins)


def inactivity_distribution(labels, bins: int) -> Histogram:
    y = np.asarray(getattr(labels, "pct_inactive_eval", labels), dtype=float)
    return _fixed_histogram(y, bins)


def write_roc_csv(curve: RocCurve, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("fpr,tpr\n")
        for f, t in zip(curve.fpr, curve.tpr):
            fh.write(f"{float(f)!r},{float(t)!r}\n")


def write_histogram_csv(hist: Histogram, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("bin_low,bin_high,count\n")
        for lo, hi, c in zip(hist.bin_low, hist.bin_high, hist.counts):
            fh.write(f"{float(lo)!r},{float(hi)!r},{int(c)}\n")


def _churn_array(labels) -> np.ndarray:
    churned = getattr(labels, "churned", labels)
    return np.asarray(churned, dtype=bool)
