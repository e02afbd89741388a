import hashlib
import json

import numpy as np
import pytest

from churnforge.labeling import LabelSet
from churnforge.matrix import FeatureMatrix
from churnforge.models import (FAMILIES, ModelSpec, _knn_scores, kfold_cv,
                               load_model, logreg_gradient, predict_scores,
                               read_scores, save_model, threshold_baseline,
                               train, write_scores)
from churnforge.tree import DecisionTree, BaggedForest
from conftest import (columns, config_error, in_memory_columns,
                      knn_scores_by_sort, logreg_loss, read_config)


def make_inputs(values, churned, pct=None, names=None):
    values = np.asarray(values, dtype=float)
    n, d = values.shape
    egos = [f"S{i:03d}" for i in range(n)]
    names = names or [f"f{j:02d}" for j in range(d)]
    churned = np.asarray(churned, dtype=bool)
    pct = churned.astype(float) if pct is None else np.asarray(pct, float)
    return (FeatureMatrix(egos, names, values),
            LabelSet(egos, churned, pct))


def logreg_descent(model, mat, labels):
    """The loss after each epoch of the descent that trained ``model``,
    recomputed with ``logreg_loss``; checks that it ends at the model's
    weights."""
    Z = model.standardize(mat.values)
    y = labels.churned.astype(float)
    lr, l2 = model.params["lr"], model.params["l2"]
    w, b = np.zeros(Z.shape[1]), 0.0
    losses = [logreg_loss(w, b, Z, y, l2)]
    for _ in range(model.params["epochs"]):
        gw, gb = logreg_gradient(w, b, Z, y, l2)
        w -= lr * gw
        b -= lr * gb
        losses.append(logreg_loss(w, b, Z, y, l2))
    assert np.array_equal(w, model.fitted["w"]) and b == model.fitted["b"]
    return np.asarray(losses)


def synthetic_problem(n=300, d=8, seed=0):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, d))
    logits = 1.8 * X[:, 0] - 1.2 * X[:, 1] + 0.4 * rng.normal(size=n)
    churned = logits > 0
    pct = np.clip(0.5 + 0.25 * logits / 3, 0, 1)
    return make_inputs(X, churned, pct=pct)


class TestSpecValidation:
    """A ModelSpec's family and parameters are checked by the config that
    gives them, when it is read."""

    def test_families(self, tmp_path):
        for family in FAMILIES:
            assert read_config(tmp_path, f"models.roster={family}\n"
                               ).roster() == [family]
        assert "models.roster: unknown family 'xgboost'" in config_error(
            tmp_path, "models.roster=xgboost\n")

    @pytest.mark.parametrize("family,params", [
        ("logreg", {"lr": -1}),
        ("logreg", {"weight_decay": 0.1}),
        ("knn", {"k": 0}),
        ("adaboost", {"rounds": 0}),
        ("linear_svm", {"lam": 0}),
    ])
    def test_bad_hyperparameters(self, tmp_path, family, params):
        (name, value), = params.items()
        key = f"models.{family}.{name}"
        assert key in config_error(tmp_path, f"{key}={value}\n")


class TestLogreg:
    def test_gradient_matches_finite_differences(self):
        # central differences as the independent oracle
        rng = np.random.default_rng(0)
        for trial in range(10):
            n, d = int(rng.integers(4, 11)), int(rng.integers(2, 6))
            Z = rng.normal(size=(n, d))
            y = (rng.random(n) < 0.5).astype(float)
            w = rng.normal(size=d)
            b = float(rng.normal())
            l2 = 1e-3
            gw, gb = logreg_gradient(w, b, Z, y, l2)
            h = 1e-6
            fd_w = np.empty(d)
            for j in range(d):
                wp, wm = w.copy(), w.copy()
                wp[j] += h
                wm[j] -= h
                fd_w[j] = (logreg_loss(wp, b, Z, y, l2)
                           - logreg_loss(wm, b, Z, y, l2)) / (2 * h)
            fd_b = (logreg_loss(w, b + h, Z, y, l2)
                    - logreg_loss(w, b - h, Z, y, l2)) / (2 * h)
            rel = np.linalg.norm(gw - fd_w) / max(np.linalg.norm(fd_w), 1e-12)
            assert rel < 1e-5
            assert abs(gb - fd_b) / max(abs(fd_b), 1e-12) < 1e-5

    def test_separable_1d_perfect_training_accuracy(self):
        mat, labels = make_inputs([[1.0]] * 10 + [[-1.0]] * 10,
                                  [1] * 10 + [0] * 10)
        model = train(ModelSpec("logreg"), mat, labels)
        scores = predict_scores(model, mat)
        assert (((scores >= 0.5) == labels.churned)).all()

    def test_loss_decreases_monotonically(self):
        mat, labels = synthetic_problem(seed=3)
        model = train(ModelSpec("logreg"), mat, labels)
        hist = logreg_descent(model, mat, labels)
        assert len(hist) == 201
        assert (np.diff(hist) <= 1e-12).all()
        assert hist[-1] < hist[0]


class TestPredictContracts:
    @pytest.mark.parametrize("family", FAMILIES)
    def test_scores_finite_in_unit_interval(self, family):
        mat, labels = synthetic_problem(seed=1)
        spec = ModelSpec(family, params={"n_trees": 10} if
                         family == "random_forest" else
                         {"rounds": 10} if family == "adaboost" else {})
        model = train(spec, mat, labels)
        scores = predict_scores(model, mat)
        assert np.isfinite(scores).all()
        assert ((scores >= 0.0) & (scores <= 1.0)).all()

    def test_knn_self_neighbor(self):
        mat, labels = synthetic_problem(n=40, seed=2)
        model = train(ModelSpec("knn", params={"k": 1}), mat, labels)
        scores = predict_scores(model, mat)
        assert np.array_equal(scores, labels.churned.astype(float))

    @pytest.mark.parametrize("k", [1, 4, 150])
    def test_knn_ties_broken_as_by_stable_sort(self, k):
        # 50 rows repeated three times: every row is at distance 0 from
        # its two copies, and the copies' labels differ
        rng = np.random.default_rng(5)
        Z = np.tile(rng.integers(0, 3, size=(50, 4)).astype(float), (3, 1))
        y = (rng.random(150) < 0.4).astype(float)
        want = knn_scores_by_sort(Z, y, k, Z)
        assert np.array_equal(_knn_scores(Z, y, k, Z), want)
        assert np.array_equal(_knn_scores(Z, y, k, Z, block=7), want)

    def test_knn_scores_same_at_any_block_height(self):
        # more rows than the widest block, of standardized floats: BLAS
        # must sum each distance alike whatever the block's height
        rng = np.random.default_rng(6)
        X = rng.normal(size=(700, 30)) * rng.integers(1, 50, size=30)
        Z = (X - X.mean(axis=0)) / X.std(axis=0)
        y = (Z[:, 0] + rng.normal(size=700) > 0).astype(float)
        Zte = Z[::3] + 0.1 * rng.normal(size=Z[::3].shape)
        for test in (Z, Zte):
            want = _knn_scores(Z, y, 7, test, block=512)
            for block in (1, 7, 128):
                assert np.array_equal(_knn_scores(Z, y, 7, test, block=block),
                                      want), block
            assert np.array_equal(_knn_scores(Z, y, 7, test), want)

    def test_random_forest_vote_fraction(self):
        # four trees voting 1, 1, 0, 1 must score 0.75
        forest = BaggedForest(n_trees=4, seed=0)
        forest.trees = []
        for vote in (1.0, 1.0, 0.0, 1.0):
            t = DecisionTree()
            t.fit(np.zeros((2, 1)), np.array([vote, vote]))
            forest.trees.append(t)
        assert forest.predict_score(np.zeros((3, 1))).tolist() == [0.75] * 3

    def test_column_mismatch_names_first_offender(self):
        mat, labels = synthetic_problem(n=30, seed=4)
        model = train(ModelSpec("linreg"), mat, labels)
        wrong = FeatureMatrix(mat.ego_ids,
                              ["f00", "other"] + mat.feature_names[2:],
                              mat.values)
        with pytest.raises(ValueError, match="other"):
            predict_scores(model, wrong)

    def test_standardization_absorbs_feature_scale(self):
        mat, labels = synthetic_problem(seed=5)
        scaled = FeatureMatrix(mat.ego_ids, list(mat.feature_names),
                               mat.values * 1000.0)
        for family in ("logreg", "linear_svm", "knn"):
            a = predict_scores(train(ModelSpec(family), mat, labels), mat)
            b = predict_scores(train(ModelSpec(family), scaled, labels), scaled)
            assert np.abs(a - b).max() <= 1e-9

    def test_zero_variance_feature_passes_through(self):
        mat, labels = synthetic_problem(n=50, seed=6)
        values = mat.values.copy()
        values[:, 2] = 4.25
        mat2 = FeatureMatrix(mat.ego_ids, list(mat.feature_names), values)
        model = train(ModelSpec("logreg"), mat2, labels)
        assert model.standardize(values)[:, 2].max() == 0.0
        scores = predict_scores(model, mat2)
        assert np.isfinite(scores).all()


class TestTrainErrors:
    def test_single_class_fatal(self):
        mat, labels = make_inputs([[1.0], [2.0]], [1, 1])
        with pytest.raises(ValueError, match="single class"):
            train(ModelSpec("logreg"), mat, labels)

    def test_non_finite_matrix_fatal(self):
        mat, labels = make_inputs([[1.0], [np.nan]], [1, 0])
        with pytest.raises(ValueError, match="non-finite"):
            train(ModelSpec("logreg"), mat, labels)

class TestAdaboost:
    def test_halts_when_no_weak_learner(self):
        # constant features, balanced labels: the stump cannot beat chance
        mat, labels = make_inputs(np.ones((20, 3)), [1, 0] * 10)
        with pytest.raises(ValueError, match="no weak learner"):
            train(ModelSpec("adaboost", params={"rounds": 5}), mat, labels)

    def test_perfect_stump_halts_after_one_round(self):
        mat, labels = make_inputs([[0.0], [0.1], [0.9], [1.0]], [0, 0, 1, 1])
        model = train(ModelSpec("adaboost", params={"rounds": 50}), mat, labels)
        assert len(model.fitted["trees"]) == 1
        scores = predict_scores(model, mat)
        assert (((scores >= 0.5) == labels.churned)).all()

    def test_every_kept_round_beats_chance(self):
        mat, labels = synthetic_problem(n=200, seed=9)
        model = train(ModelSpec("adaboost", params={"rounds": 30}), mat, labels)
        # alpha = log((1-err)/err) > 0 iff err < 0.5
        assert (model.fitted["alphas"] > 0).all()


_FOLD_KEYS = ("fold", "accuracy", "precision", "recall", "f_score", "auc")


class TestKfold:
    def test_leave_one_out_partition(self):
        mat, labels = synthetic_problem(n=24, seed=10)
        report = kfold_cv(ModelSpec("linreg"), mat, labels, k=24, seed=0)
        assert [f["fold"] for f in report["folds"]] == list(range(24))

    def test_fold_sizes_near_equal(self):
        n = 103
        mat, labels = synthetic_problem(n=n, seed=11)
        perm = np.random.default_rng(5).permutation(n)
        folds = np.array_split(perm, 5)
        sizes = {len(f) for f in folds}
        assert max(sizes) - min(sizes) <= 1
        # and through the API: all rows appear exactly once across folds
        assert sorted(np.concatenate(folds).tolist()) == list(range(n))

    def test_same_seed_identical_report(self):
        mat, labels = synthetic_problem(n=80, seed=12)
        spec = ModelSpec("logreg", params={"epochs": 50})
        a = kfold_cv(spec, mat, labels, k=4, seed=3)
        b = kfold_cv(spec, mat, labels, k=4, seed=3)
        assert a == b

    def test_report_is_the_json_it_is_written_as(self):
        mat, labels = synthetic_problem(n=80, seed=12)
        spec = ModelSpec("logreg", params={"epochs": 50}, seed=7)
        report = kfold_cv(spec, mat, labels, k=4, seed=3)
        assert json.loads(json.dumps(report)) == report
        assert (report["family"], report["k"], report["seed"]) == \
            ("logreg", 4, 3)
        assert report["hyperparameters"] == spec.resolved()
        assert [set(f) for f in report["folds"]] == [set(_FOLD_KEYS)] * 4
        for m in _FOLD_KEYS[1:]:
            assert report["mean"][m] == \
                np.mean([f[m] for f in report["folds"]])

    def test_single_class_training_fold_flagged(self):
        # 1 churner among 4 rows with k=4: the fold that holds the churner
        # out trains on one class, and every other fold tests on one row
        mat, labels = make_inputs([[1.0], [0.2], [0.1], [0.3]], [1, 0, 0, 0])
        report = kfold_cv(ModelSpec("linreg"), mat, labels, k=4, seed=0)
        zeros = dict.fromkeys(_FOLD_KEYS[1:], 0.0)
        churner_fold = list(np.random.default_rng(0).permutation(4)).index(0)
        for i, fold in enumerate(report["folds"]):
            part = "training" if i == churner_fold else "test"
            want = {"fold": i, **zeros, "flagged": f"single-class {part} fold"}
            # the JSON text tells 0.0 from 0, which == does not
            assert json.dumps(fold, sort_keys=True) == \
                json.dumps(want, sort_keys=True)
        assert json.dumps(report["mean"], sort_keys=True) == \
            json.dumps(zeros, sort_keys=True)

    def test_k_out_of_range(self):
        mat, labels = synthetic_problem(n=10, seed=13)
        for bad_k in (1, 11):
            with pytest.raises(ValueError):
                kfold_cv(ModelSpec("linreg"), mat, labels, k=bad_k, seed=0)


class TestThresholdBaseline:
    def test_spec_example(self):
        res = threshold_baseline([0.9, 0.8, 0.1], np.array([True, True, False]))
        assert res.threshold == pytest.approx(0.45)
        assert res.accuracy == 1.0

    def test_all_negative_labels(self):
        res = threshold_baseline([0.3, 0.7], np.array([False, False]))
        assert res.accuracy == 1.0
        assert res.threshold > 1.0  # the classify-nobody sentinel

    def test_matches_brute_force(self):
        # O(n^2) oracle: evaluate every candidate by rescanning all rows
        rng = np.random.default_rng(0)
        for trial in range(8):
            n = int(rng.integers(5, 200))
            v = np.round(rng.random(n), 2)  # rounding forces ties
            y = rng.random(n) < 0.35
            if y.all() or n == 0:
                y[0] = False
            res = threshold_baseline(v, y)
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

    def test_dominates_majority_class(self):
        rng = np.random.default_rng(1)
        for trial in range(10):
            n = int(rng.integers(2, 300))
            v = rng.random(n)
            y = rng.random(n) < rng.random()
            res = threshold_baseline(v, y)
            majority = max(np.mean(y), 1 - np.mean(y))
            assert res.accuracy >= majority - 1e-12

    def test_empty_fatal(self):
        with pytest.raises(ValueError):
            threshold_baseline([], np.array([], dtype=bool))

    @pytest.mark.parametrize("bad", [-0.1, 1.5, np.nan])
    def test_value_outside_unit_interval_fatal(self, bad):
        with pytest.raises(ValueError, match=r"must lie in \[0, 1\]"):
            threshold_baseline([0.2, bad], np.array([False, True]))


class TestPersistence:
    @pytest.mark.parametrize("family", FAMILIES)
    def test_save_load_scores_identical(self, tmp_path, family):
        mat, labels = synthetic_problem(n=60, seed=14)
        params = {"n_trees": 6} if family == "random_forest" else \
            {"rounds": 6} if family == "adaboost" else {}
        model = train(ModelSpec(family, params=params, seed=5), mat, labels)
        path = tmp_path / f"{family}.cfmd"
        save_model(model, str(path))
        again = load_model(str(path))
        assert again.family == family
        assert again.feature_names == model.feature_names
        assert np.array_equal(predict_scores(again, mat),
                              predict_scores(model, mat))

    # sha256 of each family's file as the format stood before the models
    # were rebuilt around one table; any change to the CFMD bytes shows
    GOLDEN = {
        "linreg": "c019f16be6f0918bbbaa77ff932504afc396e5d7d6243a4af81d0a197fefae03",
        "logreg": "4846b8826aac7d258f0fcc15d5617ee3f2f0499e9008d28004384c382ed0623c",
        "linear_svm": "c9393afd3ddf41e3cd8dc620dc0f93b24d1a93847d4b959737b5c2812a11adaa",
        "knn": "c79ee516e8748cf39c8d16bd824bbbccb903757041aa7a72ff805b8cb2f029eb",
        "random_forest": "a61b5b74b785bb907145c810f5e8e2bcc685ed8075c9a555c47a0dafec7f323a",
        "adaboost": "0ec9ab63c3b7a737a75e8f0c957260bd30f26170147b26360a46d438f42581b3",
    }

    @pytest.mark.parametrize("family", FAMILIES)
    def test_golden_bytes(self, tmp_path, family):
        mat, labels = synthetic_problem(n=60, seed=14)
        params = {"random_forest": {"n_trees": 6},
                  "adaboost": {"rounds": 6}}.get(family, {})
        path = tmp_path / f"{family}.cfmd"
        save_model(train(ModelSpec(family, params=params, seed=5), mat,
                         labels), str(path))
        assert hashlib.sha256(path.read_bytes()).hexdigest() == \
            self.GOLDEN[family]

    def test_bad_magic(self, tmp_path):
        p = tmp_path / "junk.cfmd"
        p.write_bytes(b"JUNKJUNK")
        with pytest.raises(ValueError, match="CFMD"):
            load_model(str(p))

    def test_scores_csv_round_trip(self, tmp_path):
        egos = ["a", "b", "c"]
        scores = np.array([0.25, 1.0, 0.0])
        path = tmp_path / "scores.csv"
        write_scores(egos, scores, str(path))
        e2, s2 = read_scores(str(path))
        assert e2 == egos
        assert np.array_equal(s2, scores)


def test_logreg_loss_monotone_on_generated_data(tmp_path):
    """Default learning rate keeps full-batch descent monotone on the
    kind of correlated feature block the pipeline actually produces."""
    import datetime
    from churnforge.cdr import StudyWindow, ingest
    from churnforge.features import AxesConfig, compute_matrix, enumerate_features
    from churnforge.labeling import compute_labels, split_windows
    from churnforge.selection import ranked, scan
    from churnforge.simgen import SimConfig, generate

    win = StudyWindow(datetime.date(2024, 1, 1), 183, 4, 2)
    generate(SimConfig(n_subscribers=250, window=win, alter_pool_size=150,
                       seed=23),
             str(tmp_path / "cdr.csv"), str(tmp_path / "truth.csv"))
    store = ingest(str(tmp_path / "cdr.csv"), win)
    axes = AxesConfig()
    mat = compute_matrix(store, enumerate_features(axes), axes)
    labels = compute_labels(store, split_windows(win)[1])
    r2 = scan(in_memory_columns(mat), labels)[1]
    top = [mat.feature_names[i] for i in ranked(mat.feature_names, r2)[:40]]
    model = train(ModelSpec("logreg"), columns(mat, top), labels)
    hist = logreg_descent(model, columns(mat, top), labels)
    assert (np.diff(hist) <= 1e-12).all()
    assert hist[-1] < hist[0]
