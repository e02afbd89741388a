"""Acceptance gate: one test per criterion, one printed verdict line each.

Run with `pytest tests/test_acceptance.py -s` to see the verdict lines.
The end-to-end benchmark (criterion 9) runs the full default pipeline on
the seed-42 synthetic dataset once per session and is shared by the
label, baseline, and selection criteria.
"""

import json
import shutil
import time

import numpy as np
import pytest

from churnforge import matrix as matrix_mod
from churnforge.cdr import CSV_HEADER, SECONDS_PER_DAY, ingest
from churnforge.cli import main
from churnforge.features import AxesConfig, compute_matrix, enumerate_features
from churnforge.labeling import compute_labels, read_labels, split_windows
from churnforge.metrics import roc_auc
from churnforge.models import logreg_gradient, threshold_baseline
from churnforge.simgen import SimConfig, generate
import conftest
from conftest import (WINDOW, column, count_features, label_dict,
                      logreg_loss, read_ranking, read_truth)

AXES = AxesConfig()


def _verdict(num, ok, message):
    line = f"ACCEPTANCE {num:>2}: {'PASS' if ok else 'FAIL'} - {message}"
    conftest.ACCEPTANCE_VERDICTS.append(line)
    print(line)
    assert ok, message


@pytest.fixture(scope="session")
def benchmark_run(tmp_path_factory):
    """Default pipeline on the seed-42 dataset: 5000 subscribers, 183 days,
    4+2 months, 18149 features, top-100 tree selection, 5-fold CV."""
    root = tmp_path_factory.mktemp("benchmark")
    cfg_path = root / "default.cfg"
    cfg_path.write_text("seed=42\nworkers=2\nfeatures.matrix_format=binary\n")
    out = root / "out"
    started = time.perf_counter()
    code = main(["pipeline", "--config", str(cfg_path), "--out", str(out)])
    elapsed = time.perf_counter() - started
    assert code == 0
    yield {"out": out, "elapsed": elapsed, "cfg": cfg_path}
    shutil.rmtree(root)  # the 727 MB matrix and the rest of the run


def test_criterion_01_feature_count_oracle():
    started = time.perf_counter()
    names = enumerate_features(AXES)
    counted = count_features(AXES, 0)
    elapsed = time.perf_counter() - started
    # independent closed form: product of the six filter axes times the
    # (window, statistic) pairs surviving the pruning rule, plus the five
    # inactivity windows
    filter_combos = 2 * 4 * 3 * 3 * 3 * 7
    window_stat_pairs = 5 * 2 + 1 * 2
    oracle = filter_combos * window_stat_pairs + 5
    ok = (len(names) == counted == oracle == 18149) and elapsed < 1.0
    _verdict(1, ok, f"enumerate={len(names)} count={counted} "
                    f"oracle={oracle} in {elapsed:.3f}s")


def test_criterion_02_vocabulary_coverage():
    from test_features import (TOP_PREDICTORS_INDIVIDUAL,
                               TOP_PREDICTORS_JOINT)
    base_names = set(enumerate_features(AXES))
    missing = []
    for label, name in TOP_PREDICTORS_INDIVIDUAL + TOP_PREDICTORS_JOINT:
        # a base feature, or a ratio of two
        parts = name.split("/")
        if len(parts) > 2 or any(p not in base_names for p in parts):
            missing.append(label)
    _verdict(2, not missing,
             f"all 20 top-predictor features expressible"
             f"{'; missing: ' + str(missing) if missing else ''}")


MICRO_ROWS = [
    # ego, alter, day, hour, kind, direction, duration, alter_class
    ("u01", "A1", 0, 9, "CALL", "OUT", 60, "ONNET"),
    ("u01", "A2", 1, 10, "CALL", "OUT", 5, "ONNET"),
    ("u01", "A1", 5, 21, "CALL", "OUT", 300, "ONNET"),
    ("u01", "A3", 35, 12, "SMS", "IN", 0, "COMPETITOR"),
    ("u01", "A1", 40, 7, "CALL", "IN", 30, "ONNET"),
    ("u01", "A6", 65, 8, "CALL", "IN", 9, "INFO_PORTAL"),
    ("u01", "A5", 95, 19, "SMS", "OUT", 0, "MOBILE_MONEY"),
    ("u01", "A4", 100, 23, "CALL", "IN", 600, "INTERNATIONAL"),
    ("u01", "A4", 100, 14, "SMS", "IN", 0, "INTERNATIONAL"),
    ("u01", "A1", 130, 12, "CALL", "OUT", 45, "ONNET"),
    ("u01", "A3", 150, 13, "SMS", "IN", 0, "COMPETITOR"),
    ("u01", "A2", 182, 10, "CALL", "OUT", 15, "ONNET"),
    ("u02", "A1", 2, 8, "CALL", "IN", 45, "ONNET"),
    ("u02", "A5", 6, 19, "SMS", "OUT", 0, "MOBILE_MONEY"),
    ("u02", "A5", 6, 20, "CALL", "OUT", 9, "MOBILE_MONEY"),
    ("u02", "A2", 35, 10, "CALL", "OUT", 120, "ONNET"),
    ("u02", "A3", 90, 23, "SMS", "IN", 0, "COMPETITOR"),
    ("u03", "A2", 130, 10, "CALL", "OUT", 15, "ONNET"),
    ("u03", "A3", 140, 11, "SMS", "IN", 0, "COMPETITOR"),
    ("u03", "A1", 140, 12, "CALL", "IN", 300, "ONNET"),
]

# Hand-computed expectations for the 20-record micro fixture.
# Training window is days [0, 122); months tile as [0,31) [31,61)
# [61,92) [92,122); day 0 (2024-01-01) is a Monday so weekend days are
# d % 7 in {5, 6}; daytime is hours [8, 20); short calls are under 10s.
MICRO_EXPECTED = {
    # u01 train events: days {0,1,5,35,40,65,95,100}, 9 events, 8 active
    # days (3/2/1/2 per month), monthly any-activity [3,2,1,3], monthly
    # any-degree [2,2,1,2], full degree |{A1,A2,A3,A4,A5,A6}| = 6
    "u01": {
        "activity.call.out.any.any.any.m1.total": 3.0,
        "degree.call.out.any.any.any.m1.total": 2.0,          # {A1, A2}
        "activity.short_call.any.any.any.any.full.total": 2.0,  # 5s, 9s
        "activity.sms.in.any.any.competitor.full.total": 1.0,
        "activity.call.in.any.any.any.full.total": 3.0,
        "degree.any.any.any.any.any.full.total": 6.0,
        "activity.any.any.any.any.any.full.per_active_day": 9.0 / 8.0,
        "activity.call.out.any.any.any.full.per_active_day": 3.0 / 8.0,
        "degree.any.any.any.weekend.any.full.per_active_day": 1.0 / 8.0,
        # monthly any-activity [3,2,1,3]: deltas |2-3|,|1-2|,|3-1| -> 2
        "activity.any.any.any.any.any.full.max_monthly_delta": 2.0,
        # slope of [3,2,1,3] vs 1..4: sum((x-2.5)*y) = -0.5, /5 -> -0.1
        "activity.any.any.any.any.any.full.trend_slope": -0.1,
        # monthly any-degree [2,2,1,2]: deltas 0,1,1 -> 1; slope -0.1
        "degree.any.any.any.any.any.full.max_monthly_delta": 1.0,
        "degree.any.any.any.any.any.full.trend_slope": -0.1,
        "activity.call.any.day.any.any.full.total": 3.0,      # h9, h10, h8
        "degree.call.any.day.any.any.full.total": 3.0,        # A1, A2, A6
        "inactivity.m1": 28.0 / 31.0,
        "inactivity.m2": 28.0 / 30.0,
        "inactivity.m3": 30.0 / 31.0,
        "inactivity.m4": 28.0 / 30.0,
        "inactivity.full": 114.0 / 122.0,
        # ratios: 3 outgoing m1 calls / 3 incoming full calls
        "activity.call.out.any.any.any.m1.total"
        "/activity.call.in.any.any.any.full.total": 1.0,
        # 1 mobile-money SMS / inactivity fraction 114/122
        "activity.sms.out.any.any.mobile_money.full.total"
        "/inactivity.full": 122.0 / 114.0,
        # zero denominator: no on-net SMS alters at all
        "activity.any.any.any.any.any.full.total"
        "/degree.sms.any.any.any.onnet.full.total": 0.0,
    },
    # u02 train events: days {2,6,35,90}, monthly any-activity [3,1,1,0]
    "u02": {
        "activity.any.any.any.any.any.full.total": 5.0,
        "activity.any.any.any.any.any.m1.per_active_day": 3.0 / 2.0,
        "activity.short_call.any.any.any.any.full.total": 1.0,  # 9s call
        "activity.call.out.any.any.mobile_money.m1.total": 1.0,
        "degree.any.any.any.weekend.any.full.total": 2.0,  # A5 d6, A3 d90
        "activity.any.any.night.any.any.full.total": 2.0,       # h20, h23
        "activity.any.any.any.any.any.full.max_monthly_delta": 2.0,
        # slope of [3,1,1,0]: sum((x-2.5)*y) = -4.5, /5 -> -0.9
        "activity.any.any.any.any.any.full.trend_slope": -0.9,
        "inactivity.m4": 1.0,
        "inactivity.full": 118.0 / 122.0,
    },
    # u03 has no training events at all
    "u03": {
        "activity.any.any.any.any.any.full.total": 0.0,
        "degree.any.any.any.any.any.full.total": 0.0,
        "inactivity.m1": 1.0,
        "inactivity.full": 1.0,
        "activity.any.any.any.any.any.full.per_active_day": 0.0,
        "activity.any.any.any.any.any.full.total"
        "/degree.sms.any.any.any.onnet.full.total": 0.0,
        "activity.call.out.any.any.any.m1.total"
        "/inactivity.full": 0.0,
    },
}

MICRO_LABELS = {
    # eval window is days [122, 183), 61 days
    "u01": (False, 58.0 / 61.0),   # active eval days {130, 150, 182}
    "u02": (True, 1.0),            # silent through the whole eval window
    "u03": (False, 59.0 / 61.0),   # active eval days {130, 140}
}


def test_criterion_03_micro_fixture(tmp_path):
    lines = [CSV_HEADER]
    for ego, alter, day, hour, kind, direction, dur, ac in MICRO_ROWS:
        ts = WINDOW.start_epoch + day * SECONDS_PER_DAY + hour * 3600
        lines.append(f"{ego},{alter},{ts},{kind},{direction},{dur},{ac}")
    path = tmp_path / "micro.csv"
    path.write_text("".join(l + "\n" for l in lines))
    store = ingest(str(path), WINDOW)
    assert store.n_records == 20 and len(store) == 3

    ratio_names = sorted({n for exp in MICRO_EXPECTED.values()
                          for n in exp if "/" in n})
    mat = compute_matrix(store, enumerate_features(AXES) + ratio_names, AXES)
    row_of = {e: i for i, e in enumerate(mat.ego_ids)}
    worst = 0.0
    for ego, expectations in MICRO_EXPECTED.items():
        for name, expected in expectations.items():
            got = column(mat, name)[row_of[ego]]
            worst = max(worst, abs(got - expected))
            assert got == pytest.approx(expected, abs=1e-12), (ego, name)
    labels = label_dict(compute_labels(store, split_windows(WINDOW)[1]))
    for ego, (churned, pct) in MICRO_LABELS.items():
        assert labels[ego][0] == churned
        assert labels[ego][1] == pytest.approx(pct, abs=1e-12)
    _verdict(3, True, f"{sum(len(v) for v in MICRO_EXPECTED.values())} "
                      f"hand-computed values match, max |err| = {worst:.2e}")


def test_criterion_04_additivity_on_synthetic(tmp_path):
    cfg = SimConfig(n_subscribers=1000, window=WINDOW, alter_pool_size=600,
                    seed=1042)
    generate(cfg, str(tmp_path / "cdr.csv"), str(tmp_path / "truth.csv"))
    store = ingest(str(tmp_path / "cdr.csv"), WINDOW)
    mat = compute_matrix(store, enumerate_features(AXES), AXES)
    by_name = {n: i for i, n in enumerate(mat.feature_names)}
    checked = 0
    for name, idx in by_name.items():
        parts = name.split(".")
        if len(parts) != 8 or parts[6] != "full" or parts[7] != "total":
            continue
        months = [mat.values[:, by_name[".".join(parts[:6] + [f"m{k}", "total"])]]
                  for k in (1, 2, 3, 4)]
        summed = months[0] + months[1] + months[2] + months[3]
        full = mat.values[:, idx]
        if parts[0] == "activity":
            # event counts are additive over disjoint windows, exactly
            assert np.array_equal(summed, full), name
        else:
            # unique-alter counts cannot be window-additive; the exact
            # relation is max(monthly) <= full <= sum(monthly)
            assert (np.max(months, axis=0) <= full).all(), name
            assert (full <= summed).all(), name
        checked += 1
    _verdict(4, checked == 1512,
             f"M1+M2+M3+M4 == FULL exactly for all 756 activity slices on "
             f"1000 subscribers (and the degree bound holds for the rest)")


def test_criterion_05_label_oracle(benchmark_run):
    out = benchmark_run["out"]
    truth = read_truth(str(out / "ground_truth.csv"))
    labels = read_labels(str(out / "labels.csv"))
    assert len(labels) == 5000
    mismatches = sum(
        1 for ego, churned in zip(labels.ego_ids, labels.churned)
        if bool(churned) != truth[ego])
    fraction = float(np.mean(labels.churned))
    ok = mismatches == 0 and abs(fraction - 0.26) <= 0.03
    _verdict(5, ok, f"0 of 5000 label mismatches expected, got {mismatches}; "
                    f"churn fraction {fraction:.4f} within 0.26 +/- 0.03")


def test_criterion_06_baseline_sweep_oracle(benchmark_run):
    out = benchmark_run["out"]
    mat = matrix_mod.load(str(out / "matrix.cfm"), ["inactivity.full"])
    labels = read_labels(str(out / "labels.csv"))
    inact = mat.values[:, 0]
    rng = np.random.default_rng(606)
    for trial in range(4):
        idx = rng.choice(len(labels), size=500, replace=False)
        v, y = inact[idx], labels.churned[idx]
        res = threshold_baseline(v, y)
        # O(n^2) brute force over the same candidate definition
        distinct = np.unique(v)
        cands = [-1e-9, 1 + 1e-9] + \
            [(a + b) / 2 for a, b in zip(distinct[:-1], distinct[1:])]
        best_acc, best_t = -1.0, None
        for t in sorted(cands):
            acc = float(np.mean((v > t) == y))
            if acc > best_acc:
                best_acc, best_t = acc, t
        assert res.accuracy == pytest.approx(best_acc, abs=1e-12)
        assert res.threshold == pytest.approx(best_t, abs=1e-12)
        majority = max(float(np.mean(y)), 1 - float(np.mean(y)))
        assert res.accuracy >= majority - 1e-12
    _verdict(6, True, "sweep equals O(n^2) brute force on four 500-subscriber "
                      "samples and never loses to the majority class")


def test_criterion_07_auc_concordance_oracle():
    rng = np.random.default_rng(707)
    worst = 0.0
    for trial in range(50):
        n = int(rng.integers(2, 201))
        scores = np.round(rng.random(n), 1)  # coarse grid forces ties
        y = rng.random(n) < 0.4
        y[0], y[1] = True, False
        _, auc = roc_auc(scores, y)
        pos = scores[y]
        neg = scores[~y]
        cmp = (pos[:, None] > neg[None, :]).sum() \
            + 0.5 * (pos[:, None] == neg[None, :]).sum()
        oracle = float(cmp) / (len(pos) * len(neg))
        worst = max(worst, abs(auc - oracle))
        assert auc == pytest.approx(oracle, abs=1e-12)
    _verdict(7, True, f"AUC equals pairwise concordance on 50 tied instances, "
                      f"max |err| = {worst:.2e}")


def test_criterion_08_gradient_check():
    rng = np.random.default_rng(808)
    worst = 0.0
    for trial in range(20):
        n, d = int(rng.integers(3, 11)), int(rng.integers(2, 6))
        Z = rng.normal(size=(n, d))
        y = (rng.random(n) < 0.5).astype(float)
        w = rng.normal(size=d)
        b = float(rng.normal())
        l2 = 10.0 ** float(rng.uniform(-6, -2))
        gw, gb = logreg_gradient(w, b, Z, y, l2)
        h = 1e-6
        fd = np.empty(d + 1)
        for j in range(d):
            wp, wm = w.copy(), w.copy()
            wp[j] += h
            wm[j] -= h
            fd[j] = (logreg_loss(wp, b, Z, y, l2)
                     - logreg_loss(wm, b, Z, y, l2)) / (2 * h)
        fd[d] = (logreg_loss(w, b + h, Z, y, l2)
                 - logreg_loss(w, b - h, Z, y, l2)) / (2 * h)
        analytic = np.concatenate([gw, [gb]])
        rel = np.linalg.norm(analytic - fd) / max(np.linalg.norm(fd), 1e-12)
        worst = max(worst, rel)
        assert rel < 1e-5
    _verdict(8, True, f"analytic gradient matches central differences, "
                      f"max relative error = {worst:.2e}")


def test_criterion_09_end_to_end_benchmark(benchmark_run):
    out = benchmark_run["out"]
    elapsed = benchmark_run["elapsed"]
    report = json.loads((out / "report.json").read_text())
    majority = report["majority_accuracy"]
    baseline = report["baseline"]["accuracy"]
    lines = [f"runtime {elapsed:.0f}s, majority {majority:.4f}, "
             f"baseline {baseline:.4f}"]
    ok = baseline > majority and elapsed < 600
    for row in report["models"]:
        cv = row["cv_mean"]
        lines.append(f"{row['model']}: cv accuracy {cv['accuracy']:.4f}, "
                     f"cv auc {cv['auc']:.4f}")
        ok = ok and cv["accuracy"] > baseline and cv["auc"] >= 0.85
    assert len(report["models"]) == 6
    _verdict(9, ok, "; ".join(lines))


def test_criterion_10_selection_sanity(benchmark_run):
    out = benchmark_run["out"]
    ranking = read_ranking(str(out / "rank_r2.csv"))
    rank = next(e.rank for e in ranking.entries
                if e.name == "inactivity.full")
    top3 = [(e.rank, e.name, round(e.score, 4)) for e in ranking.entries[:3]]
    _verdict(10, rank <= 3,
             f"training-window inactivity ranks {rank} by univariate r2; "
             f"top 3: {top3}")


def test_criterion_11_manifest_determinism(tmp_path):
    cfg_path = tmp_path / "small.cfg"
    cfg_path.write_text(
        "seed=13\nsimgen.n_subscribers=200\nsimgen.alter_pool_size=150\n"
        "selection.k=20\nselection.n_trees=10\nmodels.random_forest.n_trees=10\n"
        "models.adaboost.rounds=10\ncv.folds=3\nfeatures.matrix_format=binary\n")
    outs = []
    for run, workers in (("a", 1), ("b", 2), ("c", 3)):
        out = tmp_path / run
        assert main(["pipeline", "--config", str(cfg_path), "--out", str(out),
                     "--workers", str(workers)]) == 0
        outs.append(out)
    names = sorted(p.name for p in outs[0].glob("manifest_*.json"))
    assert len(names) == 6
    for name in names:
        blobs = {(out / name).read_bytes() for out in outs}
        assert len(blobs) == 1, f"{name} differs across worker counts"
    _verdict(11, True, "all six stage manifests byte-identical across "
                       "worker counts 1, 2, 3")
