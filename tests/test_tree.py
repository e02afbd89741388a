import numpy as np
import pytest

from churnforge import tree as tree_mod
from churnforge.tree import (BaggedForest, ColumnRanks, DecisionTree,
                             rank_block, rank_columns)
from conftest import assert_ranks_of, importances


def test_memorizes_training_data_without_bootstrap():
    # no two identical rows carry different labels, so a single
    # unrestricted tree must reach 100% training accuracy
    rng = np.random.default_rng(0)
    X = rng.normal(size=(200, 6))
    y = (X[:, 0] * X[:, 1] > 0).astype(float)
    tree = DecisionTree(max_depth=None, max_features=None)
    tree.fit(X, y)
    assert (tree.predict(X) == y).all()


def test_depth_limit_respected():
    rng = np.random.default_rng(1)
    X = rng.normal(size=(100, 3))
    y = (X[:, 0] > 0).astype(float)
    stump = DecisionTree(max_depth=1)
    stump.fit(X, y)
    # a depth-1 tree has at most 3 nodes
    assert len(stump.feature) <= 3


def test_sample_weights_steer_the_split():
    # two candidate splits; weights make the second column the cheaper one
    X = np.array([[0.0, 0.0], [0.0, 1.0], [1.0, 0.0], [1.0, 1.0]])
    y = np.array([0.0, 1.0, 0.0, 1.0])  # y equals column 1
    tree = DecisionTree(max_depth=1)
    tree.fit(X, y, sample_weight=np.array([1.0, 1.0, 1.0, 1.0]))
    assert tree.feature[0] == 1


def test_constant_features_yield_single_leaf():
    X = np.ones((30, 4))
    y = np.array([1.0] * 10 + [0.0] * 20)
    tree = DecisionTree()
    tree.fit(X, y)
    assert len(tree.feature) == 1
    assert importances(tree).sum() == 0.0
    # majority leaf
    assert (tree.predict(X) == 0.0).all()


def test_forest_determinism_and_importances():
    rng = np.random.default_rng(5)
    X = rng.normal(size=(120, 6))
    y = (X[:, 3] > 0).astype(float)
    a = BaggedForest(n_trees=12, seed=7).fit(X, y)
    b = BaggedForest(n_trees=12, seed=7).fit(X, y)
    assert np.array_equal(a.predict_score(X), b.predict_score(X))
    assert np.array_equal(a.feature_importances_, b.feature_importances_)
    assert a.feature_importances_.sum() == pytest.approx(1.0)
    assert np.argmax(a.feature_importances_) == 3


def test_zero_trees_rejected():
    with pytest.raises(ValueError):
        BaggedForest(n_trees=0)


# --- split search on rank codes against the float argsort it replaced ----

def _gini(y, w, wsum):
    p = (w * y).sum() / wsum
    return 2.0 * p * (1.0 - p)


class _ReferenceTree(DecisionTree):
    """The Gini tree grown by stable argsort of float values, rows repeated.

    This is the split search that rank codes and bootstrap counts
    replaced. The new trees must equal these bit for bit. Given a
    ``ColumnRanks``, it grows on the floats that the codes stand for.
    """

    def fit(self, X, y, sample_weight=None, counts=None):
        if isinstance(X, ColumnRanks):
            X = _floats(X)
        X = np.asarray(X, dtype=np.float64)
        y = np.asarray(y, dtype=np.float64)
        if counts is not None:
            rows = np.repeat(np.arange(len(X)), counts)
            X, y = X[rows], y[rows]
        n, d = X.shape
        w = np.ones(n) if sample_weight is None else \
            np.asarray(sample_weight, dtype=np.float64)
        self.n_features, self.gains = d, {}
        feature, threshold, left, right, value = [-1], [0.0], [-1], [-1], [0.0]
        stack = [(0, np.arange(n), 0)]
        while stack:
            node, rows, depth = stack.pop()
            yr, wr = y[rows], w[rows]
            wsum = wr.sum()
            if wsum == 0:  # a cut whose midpoint rounds onto its upper value
                continue   # leaves one side empty
            value[node] = float((wr * yr).sum() / wsum)
            imp = _gini(yr, wr, wsum)
            if imp <= 1e-15 or (self.max_depth is not None
                                and depth >= self.max_depth):
                continue
            split = self._reference_split(X, rows, yr, wr, wsum)
            if split is None:
                continue
            feat, thr, decrease = split
            self.gains[feat] = self.gains.get(feat, 0.0) + decrease
            go_left = X[rows, feat] <= thr
            feature[node] = feat
            threshold[node] = thr
            for child_rows, slot in ((rows[go_left], left),
                                     (rows[~go_left], right)):
                child = len(feature)
                feature.append(-1)
                threshold.append(0.0)
                left.append(-1)
                right.append(-1)
                value.append(0.0)
                slot[node] = child
                stack.append((child, child_rows, depth + 1))
        self.feature = np.asarray(feature, dtype=np.int64)
        self.threshold = np.asarray(threshold, dtype=np.float64)
        self.left = np.asarray(left, dtype=np.int64)
        self.right = np.asarray(right, dtype=np.int64)
        self.value = np.asarray(value, dtype=np.float64)
        return self

    def _reference_split(self, X, rows, yr, wr, wsum):
        d = X.shape[1]
        if self.max_features is not None and self.max_features < d:
            feats = self.rng.choice(d, size=self.max_features, replace=False)
        else:
            feats = np.arange(d)
        Xs = X[np.ix_(rows, feats)]
        order = np.argsort(Xs, axis=0, kind="stable")
        xs = np.take_along_axis(Xs, order, axis=0)
        ws = wr[order]
        ys = yr[order]
        cw = np.cumsum(ws, axis=0)
        cwy = np.cumsum(ws * ys, axis=0)
        lw = cw[:-1]
        rw = wsum - lw
        lwy = cwy[:-1]
        rwy = cwy[-1] - lwy
        with np.errstate(invalid="ignore", divide="ignore"):
            pl = np.where(lw > 0, lwy / lw, 0.0)
            pr = np.where(rw > 0, rwy / rw, 0.0)
            cost = lw * 2 * pl * (1 - pl) + rw * 2 * pr * (1 - pr)
        valid = xs[1:] > xs[:-1]
        cost = np.where(valid & (lw > 0) & (rw > 0), cost, np.inf)
        if not np.isfinite(cost).any():
            return None
        i, j = np.unravel_index(np.argmin(cost), cost.shape)
        feat = int(feats[j])
        thr = float((xs[i, j] + xs[i + 1, j]) / 2.0)
        parent_cost = wsum * _gini(yr, wr, wsum)
        decrease = float(parent_cost - cost[i, j])
        return feat, thr, max(decrease, 0.0)


def _floats(ranks):
    """The float matrix whose ranks ``ranks`` are."""
    return np.stack([ranks.column(j) for j in range(ranks.shape[0])],
                    axis=1)


def _reference_forest(X, y, n_trees, max_depth=12, max_features="sqrt",
                      seed=0):
    """Bootstrap trees fitted on copies X[rows], with the forest's RNG."""
    n, d = X.shape
    mf = max(1, int(np.sqrt(d))) if max_features == "sqrt" else max_features
    trees, raw = [], np.zeros(d)
    for t in range(n_trees):
        rng = np.random.default_rng([seed, t])
        rows = rng.integers(0, n, size=n)
        tree = _ReferenceTree(max_depth=max_depth, max_features=mf, rng=rng)
        tree.fit(X[rows], y[rows])
        raw += importances(tree)
        trees.append(tree)
    return trees, raw / raw.sum()


_TREE_ARRAYS = ("feature", "threshold", "left", "right", "value")


def _assert_same_tree(got, want):
    for name in _TREE_ARRAYS:
        assert np.array_equal(getattr(got, name), getattr(want, name)), name
    assert np.array_equal(importances(got), importances(want))


def _tied(seed, n=90, d=12, levels=3):
    rng = np.random.default_rng(seed)
    X = rng.integers(0, levels, size=(n, d)).astype(float)
    # a repeated and a mirrored column give equal costs across columns
    X = np.hstack([X, X[:, :2], levels - 1 - X[:, :2]])
    y = ((X[:, 0] + rng.integers(0, 2, size=n)) > 1).astype(float)
    return X, y


def _duplicated(seed, n=40, d=6):
    rng = np.random.default_rng(seed)
    base = rng.normal(size=(n, d)).round(1)
    X = np.repeat(base, 3, axis=0)[rng.permutation(3 * n)]
    y = (X[:, 1] + 0.3 * rng.normal(size=3 * n) > 0).astype(float)
    return X, y


def _few_codes(seed, n=300):
    """Many rows over few codes: every split search bins by histogram."""
    X, y = _tied(seed, n=n, levels=2)
    X[::3, 1] = np.where(X[::3, 1] == 0, -0.0, X[::3, 1])  # signed zeros
    return X, y


def _many_codes(seed, n=60, d=12):
    """Few rows over many distinct codes: every split search sorts."""
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, d))
    # repeated and mirrored columns give equal costs across columns
    X = np.hstack([X, X[:, :2], -X[:, :2]])
    X[::2, 3] = 0.0
    X[1::4, 3] = -0.0
    y = ((X[:, 0] + 0.5 * rng.normal(size=n)) > 0).astype(float)
    return X, y


# the split searches that must (and must not) run on each data set
_SEARCHES = {_few_codes: ("_histogram_split", "node_order"),
             _many_codes: ("node_order", "_histogram_split")}


def _count_searches(monkeypatch, make):
    """Calls per split search, for the data sets of ``_SEARCHES``. On
    ``_few_codes`` a large node bins its columns in several groups."""
    calls = {}
    if make is _few_codes:
        monkeypatch.setattr(tree_mod, "_HIST_CELLS", 256)
    for name in _SEARCHES.get(make, ()):
        def counted(*args, _fn=getattr(tree_mod, name), _name=name):
            calls[_name] = calls.get(_name, 0) + 1
            return _fn(*args)
        monkeypatch.setattr(tree_mod, name, counted)
    return calls


def _assert_searches(calls, make):
    if make in _SEARCHES:
        taken, skipped = _SEARCHES[make]
        assert calls.get(taken, 0) > 0 and calls.get(skipped, 0) == 0, calls


@pytest.mark.parametrize("make", [_tied, _duplicated, _few_codes,
                                  _many_codes])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_forest_equals_row_copy_reference(monkeypatch, make, seed):
    X, y = make(seed)
    calls = _count_searches(monkeypatch, make)
    forest = BaggedForest(n_trees=6, seed=seed).fit(X, y)
    _assert_searches(calls, make)
    trees, imp = _reference_forest(X, y, n_trees=6, seed=seed)
    for got, want in zip(forest.trees, trees, strict=True):
        _assert_same_tree(got, want)
    assert np.array_equal(forest.feature_importances_, imp)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_forest_equals_reference_on_continuous_columns(seed):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(120, 40))
    X[:, 5] = np.where(X[:, 5] > 0, 0.0, -0.0)  # signed zeros tie
    y = (X[:, 3] * X[:, 7] > 0).astype(float)
    forest = BaggedForest(n_trees=5, max_depth=None, seed=seed).fit(X, y)
    trees, imp = _reference_forest(X, y, n_trees=5, max_depth=None,
                                   seed=seed)
    for got, want in zip(forest.trees, trees, strict=True):
        _assert_same_tree(got, want)
    assert np.array_equal(forest.feature_importances_, imp)


@pytest.mark.parametrize("seed,make", [
    *(pytest.param(seed, _tied, id=str(seed)) for seed in range(4)),
    pytest.param(0, _few_codes, id="few_codes"),
    pytest.param(0, _many_codes, id="many_codes")])
def test_counts_equal_repeated_rows(monkeypatch, seed, make):
    X, y = make(seed, n=50)
    counts = np.bincount(np.random.default_rng(seed).integers(0, 50, 50),
                         minlength=50)
    got = DecisionTree(max_features=4, rng=np.random.default_rng(seed))
    want = _ReferenceTree(max_features=4, rng=np.random.default_rng(seed))
    calls = _count_searches(monkeypatch, make)
    got.fit(X, y, counts=counts)
    _assert_searches(calls, make)
    _assert_same_tree(got, want.fit(X, y, counts=counts))


def _dyadic(n, seed):
    """Weights k / 1024, each sum of which is exact in any order: summed
    per code or in sorted order, they give the same floats."""
    return np.random.default_rng(seed).integers(1, 1024, n) / 1024


@pytest.mark.parametrize("max_depth", [1, 2, None])
@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("make", [_tied, _duplicated, _few_codes,
                                  _many_codes])
def test_dyadic_weights_equal_reference(monkeypatch, make, seed, max_depth):
    X, y = make(seed)
    w = _dyadic(len(X), seed)
    calls = _count_searches(monkeypatch, make)
    got = DecisionTree(max_depth=max_depth).fit(X, y, sample_weight=w)
    if make is _few_codes:
        _assert_searches(calls, make)
    elif make is _many_codes:
        # a root holds every row, so it bins; the smaller nodes sort
        assert calls["_histogram_split"] == 1
        assert (calls.get("node_order", 0) > 0) == (max_depth != 1), calls
    _assert_same_tree(
        got, _ReferenceTree(max_depth=max_depth).fit(X, y, sample_weight=w))


@pytest.mark.parametrize("make", [_tied, _duplicated, _few_codes,
                                  _many_codes])
def test_dyadic_weights_and_counts_equal_repeated_rows(monkeypatch, make):
    # weights and counts together: ties go to the fewest left rows
    # counted with multiplicity, as on the rows repeated
    X, y = make(3)
    n = len(X)
    w = _dyadic(n, 3)
    counts = np.bincount(np.random.default_rng(3).integers(0, n, n),
                         minlength=n)
    rows = np.repeat(np.arange(n), counts)
    calls = _count_searches(monkeypatch, make)
    got = DecisionTree(max_features=4, rng=np.random.default_rng(3)).fit(
        X, y, sample_weight=w, counts=counts)
    _assert_searches(calls, make)
    want = _ReferenceTree(max_features=4, rng=np.random.default_rng(3))
    _assert_same_tree(got, want.fit(X[rows], y[rows], sample_weight=w[rows]))


@pytest.mark.parametrize("bag", [False, True])
def test_duplicate_column_ties_go_to_the_earlier_column(monkeypatch, bag):
    # column 4 is column 1 again, so every cut of one costs what the same
    # cut of the other does; all 80 rows bin, a bootstrap's are too few
    rng = np.random.default_rng(9)
    X = rng.normal(size=(80, 5))
    X[:, 4] = X[:, 1]
    y = (X[:, 1] > 0.2).astype(float)
    counts = np.bincount(rng.integers(0, 80, 80), minlength=80) if bag \
        else None
    calls = _count_searches(monkeypatch, _many_codes)  # counts both
    tree = DecisionTree(max_depth=1).fit(X, y, sample_weight=_dyadic(80, 9),
                                         counts=counts)
    assert calls == {"node_order" if bag else "_histogram_split": 1}
    assert tree.feature[0] == 1


def test_weight_too_small_to_move_a_sum_grows_a_binned_tree(monkeypatch):
    # the row at column 0's largest value weighs 2^-60 of every other, so
    # the node's summed weight and the weight left of the cut before it
    # are the same float: that cut leaves the right side weighing 0
    X, y = _few_codes(0)
    X[7, 0] = 5.0
    w = np.ones(len(X))
    w[7] = 2.0 ** -60
    found = []

    def search(*args, _fn=tree_mod._histogram_split):
        split = _fn(*args)
        found.append(split)
        return split

    monkeypatch.setattr(tree_mod, "_histogram_split", search)
    tree = DecisionTree().fit(X, y, sample_weight=w)
    assert found and all(np.isfinite(s[3]) for s in found if s is not None)
    assert all(np.isfinite(g) for g in tree.gains.values())
    assert np.isfinite(tree.value).all()


@pytest.mark.parametrize("max_depth", [1, 2])
@pytest.mark.parametrize("make", [_tied, _duplicated])
def test_adaboost_float_weights_equal_reference(monkeypatch, make,
                                                max_depth):
    # on 256 rows the first round's weights are 2^-8, whose sums are
    # exact in any order: the first tree is the reference's; later
    # rounds' float weights sum per code and round differently
    from churnforge import models
    X, y = make(4, n=256) if make is _tied else make(4, n=86)
    X, y = X[:256], y[:256]
    params = {"rounds": 12, "max_depth": max_depth}
    got = models._fit_adaboost(X, y, params, seed=3)
    monkeypatch.setattr(models, "DecisionTree", _ReferenceTree)
    want = models._fit_adaboost(X, y, params, seed=3)
    assert got["alphas"][0] == want["alphas"][0]
    _assert_same_tree(got["trees"][0], want["trees"][0])
    assert len(got["trees"]) > 1


@pytest.mark.parametrize("make", [_tied, _duplicated])
def test_all_columns_equal_reference(make):
    X, _ = make(5)
    y = (np.random.default_rng(5).normal(size=len(X)) > 0).astype(float)
    got = DecisionTree(max_depth=6).fit(X, y)
    want = _ReferenceTree(max_depth=6).fit(X, y)
    _assert_same_tree(got, want)


def test_rank_codes_share_ties_and_keep_order():
    X, _ = _tied(0)
    X[:, 0] = np.where(X[:, 0] > 0, X[:, 0], -0.0)
    X[::2, 0] = np.abs(X[::2, 0])  # 0.0 and -0.0 in one column
    ranks = rank_columns(X)
    codes = ranks.take(np.arange(X.shape[1]), np.arange(len(X)))
    assert codes.dtype == np.uint8 and codes.shape == X.T.shape
    assert ranks.wide.dtype == np.uint16
    for j in range(X.shape[1]):
        col, c = X[:, j], codes[j].astype(np.int64)
        assert np.array_equal(col[:, None] == col[None, :],
                              c[:, None] == c[None, :])
        assert np.array_equal(np.argsort(c, kind="stable"),
                              np.argsort(col, kind="stable"))
        assert set(c) == set(range(len(np.unique(col))))
    assert_ranks_of(ranks, X)  # column 0's -0.0 comes back as -0.0
    # a slice of columns ranked by counting (integers from +0.0 up to the
    # row count) and by argsort ranks as argsort ranks every column
    rng = np.random.default_rng(3)
    n = 70
    small = rng.integers(0, 9, n).astype(float)
    signed = small.copy()
    signed[small == 0] = -0.0
    signed[::2] = np.abs(signed[::2])  # 0.0 and -0.0
    up_to_n = rng.integers(0, n, n) * 1.0
    up_to_n[5] = n
    mixed = np.stack([
        small,                                     # counted
        up_to_n,                                   # counted, up to n
        np.where(small > 4, n + 1.0, small),       # above the row count
        signed,                                    # -0.0
        small - 3,                                 # negatives
        2.0 ** 40 + small,                         # large integers
        small + 0.5,                               # fractions
        np.zeros(n),                               # one value, counted
        rng.normal(size=n).round(1),               # floats, 0.0 tied
        np.full(n, 7.0),                           # one value, counted
    ])
    counted = tree_mod._countable(mixed)
    assert counted.tolist() == [True, True, False, False, False, False,
                                False, True, False, True]
    got = rank_block(mixed)
    want = tree_mod._sort_ranks(mixed)
    assert len(got) == len(want) == 3  # narrow and wide codes, counts
    for g, w in zip(got, want):
        assert g.dtype == w.dtype and np.array_equal(g, w)
    # 0.0 and -0.0 share a code in the signed column
    uniq, inverse = np.unique(mixed[3], return_inverse=True)
    assert got[2][3] == len(uniq) == 9
    assert np.array_equal(got[0][3], inverse)
    # one cell outside the integers from +0.0 to n keeps a column of
    # small integers from being counted
    for odd in (n - 0.5, n + 0.5, n + 1.0, np.nextafter(n, 0.0), 5e-324,
                -5e-324, -0.0, -1.0, np.inf, -np.inf, np.nan, -np.nan,
                2.0 ** 52 + 1):
        col = small.copy()
        col[3] = odd
        assert not tree_mod._countable(col[None])[0], odd
        col[3] = n  # the largest countable value
        assert tree_mod._countable(col[None])[0]
    assert tree_mod._countable(np.zeros((3, 0))).tolist() == [False] * 3
    # and so does a matrix whose slices mix them, read through its ranks
    ranks = rank_columns(mixed.T)
    assert_ranks_of(ranks, mixed.T)
    for j, col in enumerate(mixed):
        codes = ranks.take([j], np.arange(n))[0]
        assert np.array_equal(np.argsort(codes, kind="stable"),
                              np.argsort(col, kind="stable"))


def test_rank_codes_widen_past_uint16_rows():
    tall = np.arange(70_000, 0, -1, dtype=np.float64)[:, None] / 7.0
    codes = rank_columns(tall).take([0], np.arange(70_000))
    assert codes.dtype == np.uint32
    assert np.array_equal(codes[0], np.arange(69_999, -1, -1))
    assert rank_columns(tall[:65_535]).take(
        [0], np.arange(65_535)).dtype == np.uint16


def test_rank_codes_one_byte_up_to_256_distinct_values():
    # columns of 1, 256, 257 and 65,536 distinct values, each ranked by
    # counting and by argsort, narrow and wide interleaved
    n = 65_536
    rng = np.random.default_rng(7)
    ints = {m: rng.permutation(np.arange(n) % m).astype(float)
            for m in (1, 256, 257, n)}
    cols = [ints[257], ints[1], ints[n], ints[256],
            ints[257] / 8 - 3, ints[1] + 0.5, ints[n] / 3 - 7,
            ints[256] * -1.5]
    distinct = [257, 1, n, 256] * 2
    ranks = rank_columns(np.stack(cols, axis=1))
    assert ranks.narrow.dtype == np.uint8 and ranks.wide.dtype == np.uint32
    assert ranks.narrow.shape == (4, n) and ranks.wide.shape == (4, n)
    for j, (col, m) in enumerate(zip(cols, distinct)):
        assert (ranks.at[j] < len(ranks.narrow)) == (m <= 256), j
        codes = ranks.take([j], np.arange(n))[0]
        assert codes.dtype == (np.uint8 if m <= 256 else np.uint32)
        # equal values share a code, and codes keep the column's order
        uniq, inverse = np.unique(col, return_inverse=True)
        assert len(uniq) == m and np.array_equal(codes, inverse)
        assert ranks.column(j).tobytes() == col.tobytes()
    # a block of columns of both widths keeps the order it is asked in
    feats, rows = [6, 3, 0, 5], rng.choice(n, 50)
    block = ranks.take(feats, rows)
    assert block.dtype == np.uint32
    for code_row, j in zip(block, feats):
        assert np.array_equal(code_row, ranks.take([j], rows)[0])


def test_rank_codes_hold_one_byte_per_narrow_cell():
    rng = np.random.default_rng(8)
    n = 1_000
    X = rng.integers(0, 200, size=(n, 103)).astype(float)
    X[:, [4, 50, 90]] = rng.normal(size=(n, 3))  # n distinct values each
    ranks = rank_columns(X)
    assert ranks.narrow.nbytes + ranks.wide.nbytes == n * (100 * 1 + 3 * 2)
    assert ranks.narrow.flags.owndata and ranks.wide.flags.owndata


def _both_widths(seed, n=300, d=16):
    """Rows enough for columns of more than 256 distinct values: half the
    columns keep wide codes, half narrow, interleaved."""
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, d))
    X[:, 1::2] = rng.integers(0, 4, size=(n, d // 2))
    X[:, 2] = X[:, 0].round(2)  # narrow: about 200 distinct, tied
    y = ((X[:, 0] + X[:, 1] + 0.7 * rng.normal(size=n)) > 1).astype(float)
    return X, y


def _assert_both_widths(X):
    ranks = rank_columns(X)
    assert len(ranks.narrow) and len(ranks.wide)


@pytest.mark.parametrize("seed", [0, 1])
def test_forest_over_both_code_widths_equals_reference(seed):
    X, y = _both_widths(seed)
    _assert_both_widths(X)
    forest = BaggedForest(n_trees=4, seed=seed).fit(X, y)
    trees, imp = _reference_forest(X, y, n_trees=4, seed=seed)
    for got, want in zip(forest.trees, trees, strict=True):
        _assert_same_tree(got, want)
    assert np.array_equal(forest.feature_importances_, imp)


@pytest.mark.parametrize("max_depth", [1, 2, None])
def test_weighted_trees_over_both_code_widths_equal_reference(max_depth):
    X, y = _both_widths(2, n=280)
    _assert_both_widths(X)
    w = _dyadic(len(X), 2)
    got = DecisionTree(max_depth=max_depth).fit(X, y, sample_weight=w)
    _assert_same_tree(
        got, _ReferenceTree(max_depth=max_depth).fit(X, y, sample_weight=w))


def test_rank_codes_refuse_nan():
    X = np.ones((4, 3))
    X[2, 1] = np.nan
    with pytest.raises(ValueError, match="nan"):
        rank_columns(X)


def test_split_whose_midpoint_rounds_onto_the_upper_value():
    # a has an odd last mantissa bit, so (a + b) / 2 for the next float
    # up rounds to even, onto b: X <= threshold then sends b's rows left
    # too, and the code partition must do the same
    a = 1.0 + 2.0 ** -52
    b = np.nextafter(a, 2.0)
    assert (a + b) / 2.0 == b
    rng = np.random.default_rng(0)
    x = rng.choice([0.5, a, b, 4.0], size=80)
    X = np.column_stack([x, rng.normal(size=(80, 3)).round(1)])
    y = (x >= b).astype(float)
    got = DecisionTree(max_depth=3).fit(X, y)
    _assert_same_tree(got, _ReferenceTree(max_depth=3).fit(X, y))
    assert got.feature[0] == 0 and got.threshold[0] == b
    go_left = X[:, 0] <= b
    assert got.value[got.left[0]] == y[go_left].mean()
    assert got.value[got.right[0]] == y[~go_left].mean()
    counts = np.bincount(rng.integers(0, 80, 80), minlength=80)
    _assert_same_tree(
        DecisionTree(max_depth=3, max_features=2,
                     rng=np.random.default_rng(1)).fit(X, y, counts=counts),
        _ReferenceTree(max_depth=3, max_features=2,
                       rng=np.random.default_rng(1)).fit(X, y, counts=counts))
