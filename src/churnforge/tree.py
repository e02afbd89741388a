"""Weighted binary decision trees and bagged ensembles, built on numpy.

Trees grow from a ``ColumnRanks``: each column's dense rank codes, in
the spirit of XGBoost's pre-sorted column blocks (Chen & Guestrin,
2016), and a source of its floats. A column of at most 256 distinct
values keeps one byte per code, as LightGBM keeps its bin indices (Ke et
al., 2017); the others keep two, or four above 65,535 rows. A float
matrix is ranked once per ensemble, a block of columns at a time;
``select`` builds the ranks from its column blocks, never holds the
float matrix, and reads a column back from the file for each split.
Columns of integers from 0 to the row count are ranked by counting, the
others by argsort; a slice of columns that all keep one byte is ranked
straight into uint8.
A bootstrap is passed as integer row counts, not as copied rows. Trees
classify 0/1 labels by Gini impurity and support sample weights (for
boosting) and per-split feature subsampling (for bagging).

Split search gathers the node's codes for the sampled feature block, in
sampled order (``ColumnRanks.take``), and scores every cut between two
distinct values one of two ways, chosen by the node's size alone. A
node with at least as many (row, column) cells as its sampled columns
have distinct values sums its weights per code with ``np.bincount`` (a
histogram, as LightGBM does; Ke et al., 2017) and takes one prefix sum
over the codes. A smaller node orders each column by a stable radix
argsort of the codes (of one byte where every sampled column is narrow,
else of the wide codes' width) and takes prefix sums of the weights.
Both hand their cuts to one step, ``_cheapest``, which prices them and
breaks ties. Where every sum is exact in any order (a bootstrap tree's
integer counts, or weights of k / 1024), both searches find the split
that sorting the repeated rows finds, bit for bit; boosting's other
float weights round by the order they are summed in.

A split's threshold is the midpoint of the two distinct values either
side of the cut, read from one node row of each code, so the trees are
exact CART trees. A node's rows are parted by code: rows of the lower
code or below go left, or of the upper code where the midpoint rounds
onto it, which is ``X[rows, feat] <= threshold``. ``predict`` compares
floats. A forest grows its trees on up to ``workers`` forked processes,
with the same result at any count.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable

import numpy as np

from . import parallel
from .matrix import column_blocks

LEAF = -1                  # feature of a leaf node
_NARROW = 256              # most distinct values a column of uint8 codes has
_UINT16_ROWS = 65_535      # most rows whose codes fit in uint16
# A node searches by histogram when _HIST_FACTOR x rows x sampled
# columns >= the sampled columns' distinct values. Factors from
# 0.25 to 4 grew the criterion-9 forest equally fast; below that, small
# nodes bin mostly empty codes, and above it, large nodes sort.
_HIST_FACTOR = 1.0
# (row, column) cells binned at a time. A group's scratch is a few
# arrays of at most 512 KB, which glibc serves from its heap once the
# first has been freed, whatever earlier work in the process left
# there. Binned whole, a large node's arrays were mapped and faulted in
# afresh at every such node unless a larger block had been freed first.
_HIST_CELLS = 1 << 16


@dataclass
class ColumnRanks:
    """A matrix's columns as dense rank codes, and a source of its floats.

    Each column has one code per row: equal values share a code and codes
    keep the column's order, so a stable argsort of a column's codes is
    the stable argsort of its values. A column of at most 256 distinct
    values keeps its codes in ``narrow`` (uint8), the others in ``wide``
    (uint16 up to 65,535 rows, uint32 above). Column j's codes are row
    ``at[j]`` of the two stacked, ``narrow`` first; ``take`` reads them.
    Column j has ``distinct[j]`` distinct values, coded 0 up, and
    ``column(j)`` returns its floats, which a split reads at the two
    codes either side of its cut.
    """

    narrow: np.ndarray    # (narrow columns, rows) uint8
    wide: np.ndarray      # (wide columns, rows) uint16 or uint32
    at: np.ndarray        # (columns,) int64
    distinct: np.ndarray  # (columns,) int64
    column: Callable[[int], np.ndarray]  # column j's (rows,) floats

    @property
    def shape(self) -> tuple[int, int]:
        """(columns, rows)."""
        return len(self.at), self.narrow.shape[1]

    def take(self, feats, rows) -> np.ndarray:
        """The (len(feats), len(rows)) codes of columns ``feats`` at
        ``rows``, both index arrays, in the order given: uint8 where
        every column is narrow, else the wide codes' dtype. Given one
        column index, the codes of that column at ``rows``."""
        k = len(self.narrow)
        if np.ndim(feats) == 0:
            at = self.at[feats]
            return self.narrow[at, rows] if at < k else \
                self.wide[at - k, rows]
        at = self.at[feats]
        wide = at >= k
        if wide.all():
            return self.wide[at - k][:, rows]
        # a wide column takes the last narrow row's place, then its own
        out = self.narrow.take(at, axis=0, mode="clip")[:, rows]
        if wide.any():
            out = out.astype(self.wide.dtype)
            out[wide] = self.wide[at[wide] - k][:, rows]
        return out


def _code_dtype(n_rows: int) -> type:
    """The dtype of the wide codes of ``n_rows`` rows."""
    return np.uint16 if n_rows <= _UINT16_ROWS else np.uint32


def _by_width(counts: np.ndarray, n_rows: int, codes_of) -> tuple:
    """(narrow codes, wide codes) of columns with ``counts`` distinct
    values, from ``codes_of(dtype)``, every column's codes in ``dtype``.
    Columns all of at most 256 distinct values are ranked straight into
    uint8; where the widths mix, the narrow columns' codes are cut to one
    byte after ranking."""
    narrow = counts <= _NARROW
    if narrow.all():
        return codes_of(np.uint8), np.empty((0, n_rows), _code_dtype(n_rows))
    codes = codes_of(_code_dtype(n_rows))
    return codes[narrow].astype(np.uint8), codes[~narrow]


def rank_block(cols: np.ndarray) -> tuple:
    """(narrow codes, wide codes, distinct counts) of a (columns, rows)
    block of floats: the uint8 codes of the columns of at most 256
    distinct values and the wider codes of the rest, each in column
    order, and how many distinct values each column has.

    Columns of integers from 0 to the row count (``_countable``) are
    ranked by counting, the others by argsort; both give the same codes.
    """
    cols = np.ascontiguousarray(cols, dtype=np.float64)
    counted = _countable(cols)
    if counted.all():
        return _count_ranks(cols)
    if not counted.any():
        return _sort_ranks(cols)
    *by_count, c_counts = _count_ranks(cols[counted])
    *by_sort, s_counts = _sort_ranks(cols[~counted])
    counts = np.empty(len(cols), dtype=np.int64)
    counts[counted], counts[~counted] = c_counts, s_counts
    narrow = counts <= _NARROW
    codes = []
    for sel, c, s in zip((narrow, ~narrow), by_count, by_sort, strict=True):
        block = np.empty((len(c) + len(s), cols.shape[1]), dtype=c.dtype)
        block[counted[sel]], block[~counted[sel]] = c, s
        codes.append(block)
    return *codes, counts


def _countable(cols: np.ndarray) -> np.ndarray:
    """Which columns hold only integers from +0.0 to the row count: no
    fraction, negative, -0.0, nan or inf."""
    n = cols.shape[1]
    if n == 0:
        return np.zeros(len(cols), dtype=bool)
    # read as unsigned integers, the floats from +0.0 to n are the bit
    # patterns up to n's; -0.0, negatives, nan and inf lie above it
    return ((cols == np.floor(cols)).all(axis=1)
            & (cols.view(np.uint64).max(axis=1)
               <= np.float64(n).view(np.uint64)))


def _count_ranks(cols: np.ndarray) -> tuple:
    """``rank_block`` of ``_countable`` columns: each column's values
    marked present in one run of bins, column after column, and a code
    the count of present values below it."""
    ints = cols.astype(np.intp)
    span = ints.max(axis=1) + 1  # bins per column
    first = np.cumsum(span) - span
    ints += first[:, None]
    present = np.zeros(span.sum(), dtype=bool)
    present[ints.ravel()] = True
    below = np.cumsum(present)  # present values up to each bin
    ends = below[first + span - 1]
    counts = np.diff(ends, prepend=0)
    lowest = ends - counts + 1  # `below` at each column's lowest value

    def codes_of(dtype):
        codes = np.empty(ints.shape, dtype=dtype)
        return np.subtract(below[ints], lowest[:, None], out=codes,
                           casting="unsafe")  # from 0 up, in `dtype`

    return *_by_width(counts, cols.shape[1], codes_of), counts


def _sort_ranks(cols: np.ndarray) -> tuple:
    """``rank_block`` by a stable argsort of each column."""
    order = np.argsort(cols, axis=1)
    order += np.arange(len(cols))[:, None] * cols.shape[1]  # flat indices
    srt = cols.ravel()[order]
    if srt.shape[1] and np.isnan(srt[:, -1]).any():  # nan sorts last
        raise ValueError("rank codes need values without nan")
    first = np.ones(srt.shape, dtype=bool)  # first of its value
    np.not_equal(srt[:, 1:], srt[:, :-1], out=first[:, 1:])
    counts = first.sum(axis=1)

    def codes_of(dtype):
        ranks = np.zeros(order.shape, dtype=dtype)
        np.cumsum(first[:, 1:], axis=1, out=ranks[:, 1:])
        codes = np.empty_like(ranks)
        codes.ravel()[order] = ranks
        return codes

    return *_by_width(counts, srt.shape[1], codes_of), counts


def collect_ranks(n: int, spans: list, ranked: Iterable,
                  column: Callable[[int], np.ndarray]) -> ColumnRanks:
    """The ColumnRanks of a matrix of ``n`` rows, whose column j is
    ``column(j)``, from ``rank_block`` of each of its column ``spans``
    (``(lo, hi)``, in column order), written into the narrow and wide
    codes arrays as each block's result arrives. Both arrays grow in
    place (``realloc``), so neither is held twice, as a list of parts and
    their concatenation."""
    d = spans[-1][1] if spans else 0
    narrow = np.zeros((0, n), dtype=np.uint8)
    wide = np.zeros((0, n), dtype=_code_dtype(n))
    at = np.empty(d, dtype=np.int64)  # the row in narrow or in wide
    distinct = np.empty(d, dtype=np.int64)
    for (lo, hi), (*codes, counts) in zip(spans, ranked, strict=True):
        is_narrow = counts <= _NARROW
        for array, block, sel in ((narrow, codes[0], is_narrow),
                                  (wide, codes[1], ~is_narrow)):
            k = len(array)
            at[lo:hi][sel] = np.arange(k, k + len(block))
            array.resize((k + len(block), n), refcheck=False)  # no views
            array[k:] = block
        distinct[lo:hi] = counts
    at[distinct > _NARROW] += len(narrow)  # wide rows follow
    return ColumnRanks(narrow, wide, at, distinct, column)


def rank_columns(X: np.ndarray, workers: int = 1) -> ColumnRanks:
    """The ColumnRanks of float matrix X, blocks of columns ranked on up
    to ``workers`` processes."""
    X = np.asarray(X, dtype=np.float64)
    n, d = X.shape
    spans = column_blocks(n, d)
    return collect_ranks(n, spans, parallel.map(
        lambda span: rank_block(X[:, span[0]:span[1]].T), spans, workers),
        lambda j: X[:, j])


def node_order(block: np.ndarray) -> tuple:
    """The weight-free part of a small node's split search: (order, pos,
    col) of a (columns, node rows) block of rank codes. ``order`` is each
    column's stable code order; the valid cuts, each between two
    distinct values, are listed in (position, column) order."""
    order = np.argsort(block, axis=1, kind="stable")
    cs = np.take_along_axis(block, order, axis=1)
    pos, col = np.nonzero((cs[:, 1:] > cs[:, :-1]).T)
    return order, pos, col


def _histogram_split(ranks, feats, distinct, rows, wr, wy, wsum, wysum,
                     cr):
    """``DecisionTree._best_split`` of a large node, from per-code sums of
    its weights ``wr`` and of ``wy`` (histograms, as in LightGBM; Ke et
    al., 2017).

    The sampled columns are binned a group at a time, about
    ``_HIST_CELLS`` (row, column) cells per group, so that a node's
    scratch stays small at any row count. A group's columns share one
    run of bins, column after column, ``distinct`` bins each, and a cut
    lies between two consecutive codes present in the node. Each column
    holds every node row once, so the columns before column c add
    c * wsum to the running sum of the weights: exactly where every sum
    is exact, and otherwise rounded by the columns summed before it.
    """
    step = max(1, _HIST_CELLS // len(rows))
    best = []  # the (cost, left rows, sampled column, lo, hi) of each group
    for a in range(0, len(feats), step):
        block = ranks.take(feats[a:a + step], rows)
        m, bins_per = len(block), distinct[a:a + step]
        first = np.cumsum(bins_per) - bins_per  # each column's first bin
        bins = (block + first[:, None]).ravel()
        hw = np.bincount(bins, np.tile(wr, m), bins_per.sum())
        hwy = np.bincount(bins, np.tile(wy, m), bins_per.sum())
        present = np.flatnonzero(hw)  # every node row weighs more than 0
        col = np.searchsorted(first, present, side="right") - 1
        cut = np.flatnonzero(col[1:] == col[:-1])  # after present[cut]
        col = col[cut]
        lo = present[cut] - first[col]
        found = _cheapest(
            np.cumsum(hw[present])[cut] - col * wsum,
            np.cumsum(hwy[present])[cut] - col * wysum, wsum, wysum, col,
            None if cr is None else lambda i: _left_rows(
                ranks, feats[a + col[i]], rows, lo[i], cr))
        if found is not None:
            cost, n_left, k = found
            j = col[k]
            best.append((cost, n_left, a + j, lo[k],
                         present[cut[k] + 1] - first[j]))
    if not best:
        return None
    cost, _, j, lo, hi = min(best)
    return int(feats[j]), lo, hi, cost


def _cheapest(lw, lwy, wsum, wysum, col, left_rows):
    """(cost, left rows, index) of the cheapest of a node's cuts, or None
    when no cut leaves weight on both sides. Cut i leaves the weight
    ``lw[i]``, ``lwy[i]`` of it on label 1, left of it in sampled column
    ``col[i]``; the node weighs ``wsum``, ``wysum`` of it on label 1.

    Every tree breaks ties one way, as the rows repeated by their counts
    and sorted would: the lowest Gini cost, then the fewest left rows
    counted with multiplicity, then the earliest sampled column. Where
    the weights count the rows (``left_rows`` None), ``lw`` is that
    count; else ``left_rows(indices)`` counts it for the tied cuts.
    """
    rw = wsum - lw
    with np.errstate(invalid="ignore", divide="ignore"):
        pl = lwy / lw
        pr = (wysum - lwy) / rw
        cost = lw * 2 * pl * (1 - pl) + rw * 2 * pr * (1 - pr)
    # float weights summed in another order can leave a side weighing 0
    cost[(lw <= 0) | (rw <= 0)] = np.inf
    if not np.isfinite(cost).any():
        return None
    tied = np.flatnonzero(cost == cost.min())
    n_left = lw[tied] if left_rows is None else left_rows(tied)
    k = np.lexsort((col[tied], n_left))[0]
    return cost[tied[k]], n_left[k], tied[k]


def _left_rows(ranks, feats, rows, lo, cr):
    """How many of the node ``rows``, row r counted ``cr[r]`` times, have
    a code of at most ``lo[i]`` in column ``feats[i]``, for each i."""
    return (ranks.take(feats, rows) <= lo[:, None]) @ cr


class DecisionTree:
    """Single CART-style tree over float features and 0/1 targets."""

    def __init__(self, max_depth: int | None = None,
                 max_features: int | None = None,
                 rng: np.random.Generator | None = None):
        self.max_depth = max_depth
        self.max_features = max_features
        self.rng = rng or np.random.default_rng(0)
        self.feature: np.ndarray | None = None
        self.threshold: np.ndarray | None = None
        self.left: np.ndarray | None = None
        self.right: np.ndarray | None = None
        self.value: np.ndarray | None = None
        self.n_features = 0
        # Gini decrease summed per split column, in the order the columns
        # were first split on
        self.gains: dict[int, float] = {}

    def fit(self, X, y: np.ndarray,
            sample_weight: np.ndarray | None = None,
            counts: np.ndarray | None = None) -> "DecisionTree":
        """Grow the tree on the rows of X, a float matrix or its
        ``ColumnRanks``; an ensemble ranks its matrix once and passes the
        ranks to every tree.

        ``counts`` gives each row an integer multiplicity (a bootstrap
        draw): the tree is the one grown on the rows repeated that many
        times, bit for bit while the weighted label sums are exact. Rows
        of weight 0, such as those counted 0, are left out.
        """
        ranks = X if isinstance(X, ColumnRanks) else rank_columns(X)
        y = np.asarray(y, dtype=np.float64)
        d, n = ranks.shape
        counts = np.ones(n, dtype=np.int64) if counts is None else \
            np.asarray(counts, dtype=np.int64)
        w = counts * 1.0 if sample_weight is None else \
            np.asarray(sample_weight, dtype=np.float64) * counts
        # each row's multiplicity for the tie rule, where w does not give it
        mult = None if sample_weight is None else counts
        root = np.flatnonzero(w > 0)
        self.n_features, self.gains = d, {}

        feature, threshold, left, right, value = [], [], [], [], []
        # stack of (node_id, row index array, depth)
        feature.append(LEAF)
        threshold.append(0.0)
        left.append(LEAF)
        right.append(LEAF)
        value.append(0.0)
        stack = [(0, root, 0)]
        while stack:
            node, rows, depth = stack.pop()
            wr = w[rows]
            wy = wr * y[rows]
            wsum, wysum = wr.sum(), wy.sum()
            p = wysum / wsum if wsum > 0 else 0.0
            value[node] = float(p)
            imp = 2.0 * p * (1.0 - p)  # Gini impurity
            if imp <= 1e-15 or (self.max_depth is not None
                                and depth >= self.max_depth):
                continue
            split = self._best_split(ranks, rows, wr, wy, wsum, wysum,
                                     None if mult is None else mult[rows])
            if split is None:
                continue
            feat, lo, hi, cost = split
            self.gains[feat] = self.gains.get(feat, 0.0) + \
                max(float(wsum * imp - cost), 0.0)
            codes = ranks.take(feat, rows)
            x = ranks.column(feat)
            x_lo = x[rows[np.argmax(codes == lo)]]
            x_hi = x[rows[np.argmax(codes == hi)]]
            thr = float((x_lo + x_hi) / 2.0)
            # X[rows, feat] <= thr: no node row has a code inside (lo, hi)
            go_left = codes <= (hi if thr >= x_hi else lo)
            feature[node] = feat
            threshold[node] = thr
            for child_rows, slot in ((rows[go_left], left),
                                     (rows[~go_left], right)):
                child = len(feature)
                feature.append(LEAF)
                threshold.append(0.0)
                left.append(LEAF)
                right.append(LEAF)
                value.append(0.0)
                slot[node] = child
                stack.append((child, child_rows, depth + 1))

        self.feature = np.asarray(feature, dtype=np.int64)
        self.threshold = np.asarray(threshold, dtype=np.float64)
        self.left = np.asarray(left, dtype=np.int64)
        self.right = np.asarray(right, dtype=np.int64)
        self.value = np.asarray(value, dtype=np.float64)
        return self

    def _best_split(self, ranks, rows, wr, wy, wsum, wysum, cr):
        """(feature, low code, high code, cost) of the cheapest split over
        a sample of columns, or None; the codes are those of the two
        distinct values either side of the cut. Rows carry the weights
        ``wr``, ``wy`` of them on label 1, and the multiplicities ``cr``,
        None where the weights are the multiplicities.

        A node with at least as many (row, column) cells as its sampled
        columns have distinct values (times ``_HIST_FACTOR``) sums its
        weights per code (``_histogram_split``). A smaller node puts each
        sampled column's rows in order by a stable argsort of their rank
        codes (a radix sort), which is the order a stable argsort of the
        values gives, and takes prefix sums of the weights. Both searches
        hand their cuts to ``_cheapest``.
        """
        d = ranks.shape[0]
        if self.max_features is not None and self.max_features < d:
            feats = self.rng.choice(d, size=self.max_features, replace=False)
        else:
            feats = np.arange(d)
        distinct = ranks.distinct[feats]
        if _HIST_FACTOR * len(rows) * len(feats) >= distinct.sum():
            return _histogram_split(ranks, feats, distinct, rows, wr, wy,
                                    wsum, wysum, cr)
        block = ranks.take(feats, rows)  # (sampled columns, node rows)
        order, pos, col = node_order(block)
        cut = col * len(rows) + pos  # flat into `order`
        # at most two (columns, rows) float arrays live beside `order`: a
        # node's scratch that outgrows glibc's trim threshold is handed
        # back to the kernel and faulted in again at the next node
        lw = np.cumsum(wr[order], axis=1).ravel()[cut]
        lwy = np.cumsum(wy[order], axis=1).ravel()[cut]
        found = _cheapest(
            lw, lwy, wsum, wysum, col,
            None if cr is None else lambda i: _left_rows(
                ranks, feats[col[i]], rows,
                block[col[i], order[col[i], pos[i]]], cr))
        if found is None:
            return None
        cost, _, k = found
        i, j = pos[k], col[k]
        lo, hi = block[j, order[j, i:i + 2]]
        return int(feats[j]), lo, hi, cost

    def predict_value(self, X: np.ndarray) -> np.ndarray:
        """Leaf value per row: the leaf's class-1 weight fraction."""
        X = np.asarray(X, dtype=np.float64)
        out = np.empty(len(X))
        idx = np.arange(len(X))
        stack = [(0, idx)]
        while stack:
            node, rows_idx = stack.pop()
            if len(rows_idx) == 0:
                continue
            if self.feature[node] == LEAF:
                out[rows_idx] = self.value[node]
                continue
            go_left = X[rows_idx, self.feature[node]] <= self.threshold[node]
            stack.append((self.left[node], rows_idx[go_left]))
            stack.append((self.right[node], rows_idx[~go_left]))
        return out

    def predict(self, X: np.ndarray) -> np.ndarray:
        return (self.predict_value(X) > 0.5).astype(np.float64)


class BaggedForest:
    """Bootstrap-aggregated trees with per-split feature subsampling.

    Each tree carries its Gini decrease per split column (``gains``),
    not a dense array over every column, so a tree grown in a pool
    child pickles back in a size set by its splits, not by the matrix's
    width. ``feature_importances_`` is their sum, normalized.
    """

    def __init__(self, n_trees: int = 100, max_depth: int | None = 12,
                 seed: int = 0):
        if n_trees < 1:
            raise ValueError("n_trees must be >= 1")
        self.n_trees = n_trees
        self.max_depth = max_depth
        self.seed = seed
        self.trees: list[DecisionTree] = []
        self.feature_importances_: np.ndarray | None = None

    def fit(self, X, y: np.ndarray, workers: int = 1) -> "BaggedForest":
        """Grow the trees on the rows of X, a float matrix or its
        ``ColumnRanks``, on up to ``workers`` processes.

        Tree t draws only from its own ``[seed, t]`` stream, and the
        importances are summed in tree order, so the forest is the same
        bit for bit at any worker count. Each tree's gains are added to
        their columns alone: every gain is at least 0.0, so adding the 0
        of a column a tree does not split on would change no bit.
        """
        ranks = X if isinstance(X, ColumnRanks) else rank_columns(X, workers)
        y = np.asarray(y, dtype=np.float64)
        d, n = ranks.shape
        mf = max(1, int(np.sqrt(d)))  # columns sampled per split

        def grow(t):
            rng = np.random.default_rng([self.seed, t])
            counts = np.bincount(rng.integers(0, n, size=n), minlength=n)
            tree = DecisionTree(max_depth=self.max_depth, max_features=mf,
                                rng=rng)
            return tree.fit(ranks, y, counts=counts)

        self.trees = list(parallel.map(grow, range(self.n_trees), workers))
        raw = np.zeros(d)
        for tree in self.trees:
            for feat, gain in tree.gains.items():
                raw[feat] += gain
        total = raw.sum()
        self.feature_importances_ = raw / total if total > 0 else raw
        return self

    def predict_score(self, X: np.ndarray) -> np.ndarray:
        """Fraction of trees that vote churn."""
        acc = np.zeros(len(X))
        for tree in self.trees:
            acc += tree.predict(X)
        return acc / len(self.trees)
