import dataclasses
import math

import numpy as np
import pytest

from churnforge import matrix as matrix_mod
from churnforge import selection as selection_mod
from churnforge.labeling import LabelSet
from churnforge.matrix import FeatureMatrix
from churnforge.selection import (T_STAT_ABS, ranked, scan, tree_select,
                                  univariate_r2 as r2_scores,
                                  univariate_ttest as ttest_scores,
                                  write_ranking)
from churnforge.tree import (BaggedForest, collect_ranks, rank_block,
                             rank_columns)
from conftest import assert_ranks_of, in_memory_columns, read_ranking


def make_inputs(values, churned, pct=None, names=None):
    values = np.asarray(values, dtype=float)
    n, d = values.shape
    egos = [f"S{i:03d}" for i in range(n)]
    names = names or [f"f{j:02d}" for j in range(d)]
    churned = np.asarray(churned, dtype=bool)
    if pct is None:
        pct = churned.astype(float)
    labels = LabelSet(egos, churned, np.asarray(pct, dtype=float))
    return FeatureMatrix(egos, names, values), labels


def univariate_ttest(mat, labels):
    return scan(in_memory_columns(mat), labels)[0]


def univariate_r2(mat, labels):
    return scan(in_memory_columns(mat), labels)[1]


def select_trees(mat, labels, workers=1, **kwargs):
    _, _, ranks = scan(in_memory_columns(mat), labels, workers)
    return tree_select(ranks, labels, workers=workers, **kwargs)


def rows(names, scores, k=None):
    """(rank, name, score) of the top ``k`` columns, as ``write_ranking``
    writes them."""
    return [(r, names[i], scores[i])
            for r, i in enumerate(ranked(names, scores)[:k], 1)]


class TestTtest:
    def test_welch_hand_value(self):
        # churners {1,2,3} vs non-churners {3,4,5}: means 2 and 4, sample
        # variances 1 and 1, so t = -2 / sqrt(1/3 + 1/3) = -2.449489...
        mat, labels = make_inputs([[1], [2], [3], [3], [4], [5]],
                                  [1, 1, 1, 0, 0, 0])
        t = univariate_ttest(mat, labels)
        assert t[0] == pytest.approx(2.449489742783178, abs=1e-12)

    def test_constant_feature_degenerate(self):
        mat, labels = make_inputs([[7.0, 1], [7.0, 2], [7.0, 3], [7.0, 4]],
                                  [1, 1, 0, 0])
        assert univariate_ttest(mat, labels)[0] == 0.0  # f00

    def test_label_copy_dominates(self):
        rng = np.random.default_rng(0)
        X = rng.normal(size=(40, 6))
        churned = rng.random(40) < 0.4
        X[:, 3] = churned.astype(float)  # the label itself
        mat, labels = make_inputs(X, churned)
        top = rows(mat.feature_names, univariate_ttest(mat, labels), 1)
        assert top == [(1, "f03", math.inf)]

    @pytest.mark.parametrize("flags,msg", [([1, 1], "non-churner"),
                                           ([0, 0], "churner")])
    def test_empty_class_fatal(self, flags, msg):
        mat, labels = make_inputs([[1.0], [2.0]], flags)
        with pytest.raises(ValueError, match=msg):
            univariate_ttest(mat, labels)

    def test_sorted_desc_with_name_tiebreak(self):
        mat, labels = make_inputs([[1, 1, 5], [2, 2, 6], [3, 3, 4], [4, 4, 3]],
                                  [1, 1, 0, 0])
        ranking = rows(mat.feature_names, univariate_ttest(mat, labels))
        scores = [score for _, _, score in ranking]
        assert scores == sorted(scores, reverse=True)
        assert ranking[0][1] < ranking[1][1]  # tied pair


class TestR2:
    def test_identical_feature_r2_one(self):
        pct = [0.1, 0.5, 0.9, 0.3]
        mat, labels = make_inputs([[v] for v in pct], [0, 0, 1, 0], pct=pct)
        assert univariate_r2(mat, labels)[0] == pytest.approx(1.0, abs=1e-12)

    def test_constant_feature_r2_zero(self):
        mat, labels = make_inputs([[2.0], [2.0], [2.0]], [1, 0, 0],
                                  pct=[1.0, 0.2, 0.1])
        assert univariate_r2(mat, labels)[0] == 0.0

    def test_equals_explicit_regression_r2(self):
        # independent check: R^2 from actually fitting y = a + b x
        rng = np.random.default_rng(3)
        X = rng.normal(size=(60, 8))
        pct = np.clip(0.5 + 0.3 * X[:, 2] + 0.1 * rng.normal(size=60), 0, 1)
        mat, labels = make_inputs(X, pct > 0.5, pct=pct)
        score = univariate_r2(mat, labels)
        y = labels.pct_inactive_eval
        for j in range(X.shape[1]):
            A = np.vstack([np.ones(60), X[:, j]]).T
            coef, *_ = np.linalg.lstsq(A, y, rcond=None)
            resid = y - A @ coef
            ss_res = float(resid @ resid)
            ss_tot = float(((y - y.mean()) ** 2).sum())
            expected = 1.0 - ss_res / ss_tot
            assert score[j] == pytest.approx(expected, abs=1e-12)

    def test_scores_in_unit_interval(self):
        rng = np.random.default_rng(4)
        mat, labels = make_inputs(rng.normal(size=(30, 10)),
                                  rng.random(30) < 0.5, pct=rng.random(30))
        for score in univariate_r2(mat, labels):
            assert 0.0 <= score <= 1.0


class TestPermutationInvariance:
    def test_all_rankings_invariant(self):
        rng = np.random.default_rng(9)
        X = rng.normal(size=(50, 12))
        churned = rng.random(50) < 0.3
        churned[0] = True
        churned[1] = False
        pct = np.where(churned, 1.0, rng.random(50) * 0.8)
        mat, labels = make_inputs(X, churned, pct=pct)
        perm = rng.permutation(50)
        mat_p = FeatureMatrix([mat.ego_ids[i] for i in perm],
                              list(mat.feature_names), X[perm])
        labels_p = LabelSet(mat_p.ego_ids, churned[perm], pct[perm])

        # ranks and names match exactly; scores agree up to float
        # summation order over the permuted rows
        names = mat.feature_names
        for fn in (univariate_ttest, univariate_r2):
            a, b = fn(mat, labels), fn(mat_p, labels_p)
            assert np.array_equal(ranked(names, a), ranked(names, b))
            assert a == pytest.approx(b, abs=1e-12)
        a = select_trees(mat, labels, n_trees=10, k=5, seed=3)
        b = select_trees(mat_p, labels_p, n_trees=10, k=5, seed=3)
        assert rows(names, a, 5) == rows(names, b, 5)


class TestTreeSelect:
    def test_single_informative_feature_wins(self):
        # per-split feature sampling lets noise splits steal a little
        # importance on small n, so use enough rows for the signal to
        # dominate decisively
        rng = np.random.default_rng(1)
        X = rng.normal(size=(1500, 5))
        churned = rng.random(1500) < 0.4
        X[:, 2] = churned.astype(float)
        mat, labels = make_inputs(X, churned)
        imp = select_trees(mat, labels, n_trees=20, k=5, seed=0)
        assert rows(mat.feature_names, imp)[0][1] == "f02"
        assert imp[2] > 0.9

    def test_duplicated_label_features_share_importance(self):
        rng = np.random.default_rng(2)
        X = rng.normal(size=(2000, 6))
        churned = rng.random(2000) < 0.4
        X[:, 1] = churned.astype(float)
        X[:, 4] = churned.astype(float)
        mat, labels = make_inputs(X, churned)
        imp = select_trees(mat, labels, n_trees=30, k=6, seed=0)
        combined = imp[1] + imp[4]
        assert combined >= 0.95

    def test_all_constant_features_fatal(self):
        mat, labels = make_inputs(np.ones((20, 4)),
                                  [1] * 8 + [0] * 12)
        with pytest.raises(ValueError, match="no informative splits"):
            select_trees(mat, labels, n_trees=5, k=2, seed=0)

    def test_k_out_of_range_fatal(self):
        rng = np.random.default_rng(0)
        mat, labels = make_inputs(rng.normal(size=(10, 3)),
                                  [1, 0] * 5)
        with pytest.raises(ValueError):
            select_trees(mat, labels, n_trees=2, k=4, seed=0)

    def test_deterministic_given_seed(self):
        rng = np.random.default_rng(8)
        X = rng.normal(size=(60, 10))
        churned = X[:, 0] + 0.3 * rng.normal(size=60) > 0
        mat, labels = make_inputs(X, churned)
        a = select_trees(mat, labels, n_trees=15, k=10, seed=4)
        b = select_trees(mat, labels, n_trees=15, k=10, seed=4)
        assert np.array_equal(a, b)
        c = select_trees(mat, labels, n_trees=15, k=10, seed=5)
        assert not np.array_equal(a, c)

    def test_same_ranking_at_any_worker_count(self):
        rng = np.random.default_rng(9)
        X = rng.normal(size=(80, 30))
        churned = X[:, 2] - X[:, 5] + 0.3 * rng.normal(size=80) > 0
        mat, labels = make_inputs(X, churned)
        got = {workers: select_trees(mat, labels, n_trees=9, k=30, seed=2,
                                     workers=workers)
               for workers in (1, 2, 3)}
        assert np.array_equal(got[1], got[2])
        assert np.array_equal(got[1], got[3])

    def test_unsorted_rows_give_the_sorted_ranking(self):
        rng = np.random.default_rng(10)
        X = rng.normal(size=(70, 12))
        churned = X[:, 3] + X[:, 7] + 0.3 * rng.normal(size=70) > 0
        mat, labels = make_inputs(X, churned)
        want = select_trees(mat, labels, n_trees=8, k=12, seed=1)
        for perm in (np.arange(70)[::-1], rng.permutation(70)):
            egos = [mat.ego_ids[i] for i in perm]
            got = select_trees(
                FeatureMatrix(egos, list(mat.feature_names), X[perm]),
                LabelSet(egos, churned[perm], labels.pct_inactive_eval[perm]),
                n_trees=8, k=12, seed=1)
            assert np.array_equal(got, want)

    def test_importances_nonnegative_sum_to_one(self):
        rng = np.random.default_rng(6)
        X = rng.normal(size=(60, 8))
        churned = X[:, 1] > 0.2
        mat, labels = make_inputs(X, churned)
        imp = select_trees(mat, labels, n_trees=10, k=8, seed=0)
        assert (imp >= 0).all()
        assert imp.sum() == pytest.approx(1.0, abs=1e-9)


def test_ranking_csv_round_trip(tmp_path):
    rng = np.random.default_rng(0)
    mat, labels = make_inputs(rng.normal(size=(30, 5)), rng.random(30) < 0.5)
    t = univariate_ttest(mat, labels)
    path = tmp_path / "rank.csv"
    write_ranking(str(path), T_STAT_ABS, mat.feature_names, t,
                  ranked(mat.feature_names, t))
    again = read_ranking(str(path))
    assert again.score_kind == T_STAT_ABS
    assert [(e.rank, e.name, e.score) for e in again.entries] == \
        rows(mat.feature_names, t)


def test_ranked_order_equals_python_sort(tmp_path):
    """Score descending, then name, as ``sorted`` with key (-score, name)
    gave: tied scores, infinities and signed zeros, names that prefix one
    another and names outside ASCII."""
    rng = np.random.default_rng(3)
    names = [f"f{i}" for i in range(40)] + ["f1.x", "é", "e", "z/y", "Z"]
    scores = rng.choice([0.0, -0.0, 1.5, 1.5, math.inf, -math.inf, 0.25],
                        size=len(names))
    perm = rng.permutation(len(names))
    names = [names[i] for i in perm]
    old = sorted(range(len(names)), key=lambda i: (-scores[i], names[i]))
    order = ranked(names, scores)
    assert list(order) == old
    path = tmp_path / "rank.csv"
    write_ranking(str(path), "kind", names, scores, order)
    ranking = read_ranking(str(path))
    assert [e.name for e in ranking.entries] == [names[i] for i in old]
    assert [e.rank for e in ranking.entries] == list(range(1, len(names) + 1))
    # a signed zero keeps its sign in the score
    assert [math.copysign(1, e.score) for e in ranking.entries] == \
        [math.copysign(1, scores[i]) for i in old]


def _mixed(seed, n, d):
    """Counts, ratios and continuous columns, with ties and signed zeros."""
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, d)) * rng.integers(1, 500, size=d)
    X[:, ::3] = rng.poisson(3.0, size=(n, len(range(0, d, 3))))
    X[:, 1::5] = rng.integers(0, 4, size=(n, len(range(1, d, 5)))) / 3.0
    X[:, 2] = -0.0
    churned = X[:, 0] + rng.normal(size=n) > 3
    pct = np.clip(0.3 * churned + 0.2 * rng.random(n), 0.0, 1.0)
    return X, churned, pct


def test_cfm1_scan_gives_the_in_memory_rankings(tmp_path):
    X, churned, pct = _mixed(11, 90, 150)
    mat, labels = make_inputs(X, churned, pct=pct)
    path = str(tmp_path / "m.cfm")
    matrix_mod.save(mat, path)
    got = []
    for cols, workers in ((matrix_mod.columns(path), 2),
                          (in_memory_columns(mat), 1)):
        t, r2, ranks = scan(cols, labels, workers)
        imp = tree_select(ranks, labels, n_trees=6, k=20, seed=3)
        got.append([rows(mat.feature_names, t), rows(mat.feature_names, r2),
                    rows(mat.feature_names, imp, 20)])
    assert got[0] == got[1]


def test_scan_ranks_hold_only_integers(tmp_path):
    # select keeps its rank codes, not a float table of distinct values:
    # a split reads its two floats back from the matrix file
    X, churned, pct = _mixed(12, 90, 150)
    mat, labels = make_inputs(X, churned, pct=pct)
    path = str(tmp_path / "m.cfm")
    matrix_mod.save(mat, path)
    _, _, ranks = scan(matrix_mod.columns(path), labels)
    arrays = [getattr(ranks, f.name) for f in dataclasses.fields(ranks)]
    arrays = [a for a in arrays if isinstance(a, np.ndarray)]
    assert len(arrays) == 4
    for a in arrays:
        assert np.issubdtype(a.dtype, np.integer), a.dtype
    assert_ranks_of(ranks, X)


@pytest.mark.parametrize("workers", [1, 2])
def test_midpoint_onto_the_upper_value_read_from_disk(tmp_path, monkeypatch,
                                                      workers):
    # a has an odd last mantissa bit, so the midpoint of a and the next
    # float up rounds onto it: trees grown on scan's codes, whose column
    # source reads the file, and on the matrix in memory must agree, on
    # rows that tree_select puts in ego order first
    a = 1.0 + 2.0 ** -52
    b = np.nextafter(a, 2.0)
    assert (a + b) / 2.0 == b
    rng = np.random.default_rng(4)
    n = 60
    x = rng.choice([0.5, a, b, 4.0], size=n)
    X = np.column_stack([x, rng.normal(size=(n, 3)).round(1)])
    churned = x >= b
    perm = rng.permutation(n)
    egos = [f"S{i:03d}" for i in perm]
    path = str(tmp_path / "m.cfm")
    matrix_mod.save(FeatureMatrix(egos, ["f0", "f1", "f2", "f3"], X), path)
    labels = LabelSet(egos, churned, churned * 1.0)
    grown = []

    class Recorded(BaggedForest):
        def fit(self, *args):
            grown.append(self)
            return super().fit(*args)

    monkeypatch.setattr(selection_mod, "BaggedForest", Recorded)
    _, _, ranks = scan(matrix_mod.columns(path), labels, workers)
    got = tree_select(ranks, labels, n_trees=8, k=4, seed=5, max_depth=4,
                      workers=workers)
    order = np.argsort(perm)  # the rows in ego order
    want = BaggedForest(n_trees=8, max_depth=4, seed=5).fit(
        rank_columns(X[order]), churned[order] * 1.0)
    assert got.tobytes() == want.feature_importances_.tobytes()
    (forest,) = grown
    for g, w in zip(forest.trees, want.trees, strict=True):
        for name in ("feature", "threshold", "left", "right", "value"):
            assert getattr(g, name).tobytes() == getattr(w, name).tobytes()
    assert any(((t.feature == 0) & (t.threshold == b)).any()
               for t in want.trees)


@pytest.mark.parametrize("d,spans", [
    (129, [(0, 64), (64, 129)]),               # a one-column tail joins in
    (140, [(0, 64), (64, 128), (128, 140)]),   # a narrow last block
    (131, [(0, 64), (64, 131)]),               # so does a three-column tail
    (129, [(0, 129)]),                         # slices of 64 and 65
    (130, [(0, 130)]),                         # slices of 64 and 64 + 2
    (321, [(0, 192), (192, 321)]),             # 3 x 64, then 64 and 65
])
def test_column_blocks_score_and_rank_as_the_whole_matrix(monkeypatch, d,
                                                         spans):
    n = 70
    X, churned, pct = _mixed(d, n, d)
    # blocks as wide as the first, rounded up to a multiple of 64
    monkeypatch.setattr(matrix_mod, "_BLOCK_VALUES",
                        n * -(-spans[0][1] // 64) * 64)
    assert matrix_mod.column_blocks(n, d) == spans
    mat, labels = make_inputs(X, churned, pct=pct)
    # over the whole matrix
    want = [ttest_scores(X, churned), r2_scores(X, pct)]
    for workers in (1, 2):
        t, r2, ranks = scan(in_memory_columns(mat), labels, workers)
        assert np.array_equal(t, want[0]) and np.array_equal(r2, want[1])
        whole = collect_ranks(n, [(0, d)], [rank_block(X.T)],
                              lambda j: X[:, j])
        everything = np.arange(d), np.arange(n)
        assert np.array_equal(ranks.take(*everything),
                              whole.take(*everything))
        for name in ("narrow", "wide", "at", "distinct"):
            assert np.array_equal(getattr(ranks, name),
                                  getattr(whole, name)), name
        assert_ranks_of(ranks, X)


def test_nonfinite_cell_is_named_in_column_order(monkeypatch):
    X, churned, pct = _mixed(5, 40, 140)
    X[30, 20] = np.inf
    X[2, 100] = np.nan  # an earlier row, in a later block
    monkeypatch.setattr(matrix_mod, "_BLOCK_VALUES", 40 * 64)
    mat, labels = make_inputs(X, churned, pct=pct)
    message = "non-finite value at ego S030, feature f20"
    # featurize's check over row chunks, where the nan's chunk comes first
    for chunks in ([X], [X[:20], X[20:]], [X[:1], X[1:3], X[3:31], X[31:]]):
        with pytest.raises(ValueError, match=message):
            list(matrix_mod.check_chunks_finite(chunks, mat.ego_ids,
                                                mat.feature_names))
    with pytest.raises(ValueError, match=message):
        scan(in_memory_columns(mat), labels, workers=2)
