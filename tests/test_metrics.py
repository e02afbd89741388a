import numpy as np
import pytest

from churnforge.metrics import (classification_metrics, error_distribution,
                                inactivity_distribution, roc_auc,
                                write_histogram_csv, write_roc_csv)


def concordance(scores, labels):
    """O(n^2) pairwise oracle: P(pos > neg) + 0.5 P(tie)."""
    pos = [s for s, y in zip(scores, labels) if y]
    neg = [s for s, y in zip(scores, labels) if not y]
    total = 0.0
    for p in pos:
        for q in neg:
            total += 1.0 if p > q else (0.5 if p == q else 0.0)
    return total / (len(pos) * len(neg))


class TestClassificationMetrics:
    def test_hand_confusion(self):
        # tp, fp, tn, fn = 1, 1, 2, 0
        rep = classification_metrics([1, 1, 0, 0],
                                     np.array([True, False, False, False]), 0.5)
        assert rep == {"accuracy": 0.75, "precision": 0.5, "recall": 1.0,
                       "f_score": pytest.approx(2 / 3)}

    def test_perfect_scores(self):
        y = np.array([True, False, True])
        rep = classification_metrics([0.9, 0.1, 0.8], y, 0.5)
        assert rep["accuracy"] == 1.0
        assert rep["f_score"] == 1.0

    def test_undefined_precision_flagged(self):
        # tp, fp, tn, fn = 0, 0, 1, 1
        rep = classification_metrics([0.1, 0.2], np.array([True, False]), 0.9)
        assert rep == {"accuracy": 0.5, "precision": 0.0, "recall": 0.0,
                       "f_score": 0.0}

    def test_undefined_recall_flagged(self):
        # tp, fp, tn, fn = 0, 1, 1, 0
        rep = classification_metrics([0.9, 0.2], np.array([False, False]), 0.5)
        assert rep == {"accuracy": 0.5, "precision": 0.0, "recall": 0.0,
                       "f_score": 0.0}

    def test_sentinel_thresholds_give_prevalence(self):
        rng = np.random.default_rng(0)
        scores = rng.random(50)
        y = rng.random(50) < 0.3
        churn_rate = float(np.mean(y))
        assert classification_metrics(scores, y, 0.0)["accuracy"] == \
            pytest.approx(churn_rate)
        assert classification_metrics(scores, y, 1.0 + 1e-9)["accuracy"] == \
            pytest.approx(1.0 - churn_rate)

    def test_empty_fatal(self):
        with pytest.raises(ValueError):
            classification_metrics([], np.array([], dtype=bool), 0.5)

    def test_confusion_totals(self):
        rng = np.random.default_rng(1)
        scores = rng.random(37)
        y = rng.random(37) < 0.5
        rep = classification_metrics(scores, y, 0.4)
        pairs = [(bool(s >= 0.4), bool(c)) for s, c in zip(scores, y)]
        tp, fp, tn, fn = (pairs.count(p) for p in
                          ((True, True), (True, False), (False, False),
                           (False, True)))
        assert tp + fp + tn + fn == 37 and min(tp, fp, tn, fn) > 0
        precision, recall = tp / (tp + fp), tp / (tp + fn)
        assert rep == pytest.approx({
            "accuracy": (tp + tn) / 37, "precision": precision,
            "recall": recall,
            "f_score": 2 * precision * recall / (precision + recall)})


class TestRocAuc:
    def test_one_concordant_one_discordant(self):
        _, auc = roc_auc([0.9, 0.8, 0.3], np.array([True, False, True]))
        assert auc == 0.5

    def test_scores_equal_labels(self):
        _, auc = roc_auc([1, 0, 1, 0], np.array([True, False, True, False]))
        assert auc == 1.0

    def test_equals_concordance_on_random_instances(self):
        rng = np.random.default_rng(2)
        for trial in range(50):
            n = int(rng.integers(2, 201))
            scores = np.round(rng.random(n), 1)  # heavy ties
            y = rng.random(n) < 0.4
            y[0], y[1] = True, False  # both classes present
            _, auc = roc_auc(scores, y)
            assert auc == pytest.approx(concordance(scores, y), abs=1e-12)

    def test_curve_endpoints_and_monotonicity(self):
        rng = np.random.default_rng(3)
        scores = np.round(rng.random(60), 1)
        y = rng.random(60) < 0.5
        y[0], y[1] = True, False
        (fpr, tpr), _ = roc_auc(scores, y)
        assert (fpr[0], tpr[0]) == (0.0, 0.0)
        assert (fpr[-1], tpr[-1]) == (1.0, 1.0)
        assert (np.diff(fpr) >= 0).all()
        assert (np.diff(tpr) >= 0).all()

    def test_invariant_under_monotone_transform(self):
        rng = np.random.default_rng(4)
        scores = rng.random(100)
        y = rng.random(100) < 0.4
        y[0], y[1] = True, False
        _, a = roc_auc(scores, y)
        _, b = roc_auc(np.exp(3 * scores), y)
        assert a == pytest.approx(b, abs=1e-12)

    def test_single_class_fatal(self):
        with pytest.raises(ValueError):
            roc_auc([0.5, 0.6], np.array([True, True]))


class TestHistograms:
    def test_identical_predictions_all_in_bin_zero(self):
        counts = error_distribution([0.2, 0.8, 0.5], [0.2, 0.8, 0.5], 10)
        assert counts[0] == 3
        assert counts[1:].sum() == 0

    def test_maximal_errors_in_top_bin(self):
        counts = error_distribution([0.0, 1.0], [1.0, 0.0], 2)
        assert counts.tolist() == [0, 2]

    def test_counts_sum_to_population(self):
        rng = np.random.default_rng(5)
        pred, actual = rng.random(123), rng.random(123)
        counts = error_distribution(pred, actual, 7)
        assert counts.sum() == 123

    def test_bins_must_be_positive(self):
        with pytest.raises(ValueError):
            error_distribution([0.1], [0.1], 0)

    def test_values_outside_unit_interval_fatal(self):
        with pytest.raises(ValueError):
            error_distribution([1.2], [0.1], 4)

    def test_inactivity_all_churners_mass_at_one(self):
        counts = inactivity_distribution(np.array([1.0, 1.0, 1.0]), 5)
        assert counts.tolist() == [0, 0, 0, 0, 3]

    def test_inactivity_counts_conserved(self):
        rng = np.random.default_rng(6)
        counts = inactivity_distribution(rng.random(64), 9)
        assert counts.sum() == 64


def test_csv_writers(tmp_path):
    rng = np.random.default_rng(7)
    scores = rng.random(20)
    y = rng.random(20) < 0.5
    y[0], y[1] = True, False
    curve, _ = roc_auc(scores, y)
    write_roc_csv(curve, str(tmp_path / "roc.csv"))
    lines = (tmp_path / "roc.csv").read_text().splitlines()
    assert lines[0] == "fpr,tpr"
    assert len(lines) == 1 + len(curve[0])

    counts = inactivity_distribution(rng.random(30), 4)
    write_histogram_csv(counts, str(tmp_path / "h.csv"))
    lines = (tmp_path / "h.csv").read_text().splitlines()
    assert lines == ["bin_low,bin_high,count",
                     *[f"{lo!r},{lo + 0.25!r},{c}" for lo, c in
                       zip((0.0, 0.25, 0.5, 0.75), counts)]]
