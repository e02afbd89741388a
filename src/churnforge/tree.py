"""Weighted binary decision trees and bagged ensembles, built on numpy.

Trees grow from a ``ColumnRanks`` alone: each column's dense rank codes
plus its sorted distinct values, in the spirit of XGBoost's pre-sorted
column blocks (Chen & Guestrin, 2016). A column of at most 256 distinct
values keeps one byte per code, as LightGBM keeps its bin indices (Ke et
al., 2017); the others keep two, or four above 65,535 rows. A float
matrix is ranked once per ensemble, a block of columns at a time;
``select`` builds the ranks from its column blocks and never holds the
float matrix. Columns of integers from 0 to the row count are ranked by
counting, the others by argsort; a slice of columns that all keep one
byte is ranked straight into uint8.
A bootstrap is passed as integer row counts, not as copied rows. Trees
classify 0/1 labels by Gini impurity and support sample weights (for
boosting) and per-split feature subsampling (for bagging).

Split search gathers the node's codes for the sampled feature block, in
sampled order (``ColumnRanks.take``), and scores every cut between two
distinct values one of two ways. The sort path orders each column by a
stable radix argsort of the codes (of one byte where every sampled
column is narrow, else of the wide codes' width) and takes
prefix sums of the weights. The histogram path, for a bootstrap tree's
node with at least as many (row, column) cells as its sampled columns
have distinct values, sums the weights per code with ``np.bincount``
(as LightGBM does; Ke et al., 2017) and takes one prefix sum over the
codes. A bootstrap tree's weights are its integer row
counts and its labels are 0/1, so every one of these sums is an integer
that float64 holds exactly in any order: both paths see the same sums,
compute the same costs, and break ties alike, so they find the same
split, bit for bit. Boosting's float weights keep the sort path.

A split's threshold is the midpoint of the two distinct values either
side of the cut, so the trees are exact CART trees. A node's rows are
parted by code: rows whose code is at most that of the largest value
``<= threshold`` go left, which is ``X[rows, feat] <= threshold`` even
where the midpoint rounds onto the upper value. ``predict`` compares
floats. A forest grows its trees on up to ``workers`` forked processes,
with the same result at any count.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

import numpy as np

from . import parallel
from .matrix import column_blocks

LEAF = -1                  # feature of a leaf node
_NARROW = 256              # most distinct values a column of uint8 codes has
_UINT16_ROWS = 65_535      # most rows whose codes fit in uint16
# A bootstrap node searches by histogram when _HIST_FACTOR x rows x
# sampled columns >= the sampled columns' distinct values. Factors from
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
    """A matrix's columns as dense rank codes and sorted distinct values.

    Each column has one code per row: equal values share a code and codes
    keep the column's order, so a stable argsort of a column's codes is
    the stable argsort of its values. A column of at most 256 distinct
    values keeps its codes in ``narrow`` (uint8), the others in ``wide``
    (uint16 up to 65,535 rows, uint32 above). Column j's codes are row
    ``at[j]`` of the two stacked, ``narrow`` first; ``take`` reads them.
    Column j's distinct values, ascending, are
    ``values[offsets[j]:offsets[j + 1]]``, and a code indexes them.
    """

    narrow: np.ndarray   # (narrow columns, rows) uint8
    wide: np.ndarray     # (wide columns, rows) uint16 or uint32
    at: np.ndarray       # (columns,) int64
    values: np.ndarray   # flat float64
    offsets: np.ndarray  # (columns + 1,) int64

    @property
    def shape(self) -> tuple[int, int]:
        """(columns, rows)."""
        return len(self.at), self.narrow.shape[1]

    def column_values(self, j: int) -> np.ndarray:
        return self.values[self.offsets[j]:self.offsets[j + 1]]

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
    """(narrow codes, wide codes, distinct values, distinct counts) of a
    (columns, rows) block of floats: the uint8 codes of the columns of at
    most 256 distinct values and the wider codes of the rest, each in
    column order, every column's distinct values ascending one column
    after another, and how many each has.

    Columns of integers from 0 to the row count (``_countable``) are
    ranked by counting, the others by argsort; both give the same codes
    and the same values, bit for bit.
    """
    cols = np.ascontiguousarray(cols, dtype=np.float64)
    counted = _countable(cols)
    if counted.all():
        return _count_ranks(cols)
    if not counted.any():
        return _sort_ranks(cols)
    *by_count, ints, c_counts = _count_ranks(cols[counted])
    *by_sort, floats, s_counts = _sort_ranks(cols[~counted])
    counts = np.empty(len(cols), dtype=np.int64)
    counts[counted], counts[~counted] = c_counts, s_counts
    narrow = counts <= _NARROW
    codes = []
    for sel, c, s in zip((narrow, ~narrow), by_count, by_sort, strict=True):
        block = np.empty((len(c) + len(s), cols.shape[1]), dtype=c.dtype)
        block[counted[sel]], block[~counted[sel]] = c, s
        codes.append(block)
    values = np.empty(counts.sum())
    of_counted = np.repeat(counted, counts)  # each value's column
    values[of_counted], values[~of_counted] = ints, floats
    return *codes, values, counts


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

    codes = _by_width(counts, cols.shape[1], codes_of)
    values = np.flatnonzero(present) - np.repeat(first, counts)
    return *codes, values.astype(np.float64), counts


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

    codes = _by_width(counts, srt.shape[1], codes_of)
    return *codes, srt[first], counts


def collect_ranks(n: int, spans: list, ranked: Iterable) -> ColumnRanks:
    """The ColumnRanks of a matrix of ``n`` rows from ``rank_block`` of
    each of its column ``spans`` (``(lo, hi)``, in column order), written
    into the narrow and wide codes arrays and the values array as each
    block's result arrives. The three arrays grow in place (``realloc``),
    so none is held twice, as a list of parts and their concatenation."""
    d = spans[-1][1] if spans else 0
    narrow = np.zeros((0, n), dtype=np.uint8)
    wide = np.zeros((0, n), dtype=_code_dtype(n))
    at = np.empty(d, dtype=np.int64)  # the row in narrow or in wide
    offsets = np.zeros(d + 1, dtype=np.int64)
    values = np.zeros(0)
    for (lo, hi), (*codes, vals, counts) in zip(spans, ranked, strict=True):
        is_narrow = counts <= _NARROW
        for array, block, sel in ((narrow, codes[0], is_narrow),
                                  (wide, codes[1], ~is_narrow)):
            k = len(array)
            at[lo:hi][sel] = np.arange(k, k + len(block))
            array.resize((k + len(block), n), refcheck=False)  # no views
            array[k:] = block
        offsets[lo + 1:hi + 1] = counts
        k = len(values)
        values.resize(k + len(vals), refcheck=False)
        values[k:] = vals
    np.cumsum(offsets, out=offsets)
    at[np.diff(offsets) > _NARROW] += len(narrow)  # wide rows follow
    return ColumnRanks(narrow, wide, at, values, offsets)


def rank_columns(X: np.ndarray, workers: int = 1) -> ColumnRanks:
    """The ColumnRanks of float matrix X, blocks of columns ranked on up
    to ``workers`` processes."""
    X = np.asarray(X, dtype=np.float64)
    n, d = X.shape
    spans = column_blocks(n, d)
    return collect_ranks(n, spans, parallel.map(
        lambda span: rank_block(X[:, span[0]:span[1]].T), spans, workers))


def node_order(block: np.ndarray) -> tuple:
    """The weight-free part of a node's split search: (order, pos, col)
    of a (columns, node rows) block of rank codes. ``order`` is each
    column's stable code order; the valid cuts, each between two
    distinct values, are listed in (position, column) order."""
    order = np.argsort(block, axis=1, kind="stable")
    cs = np.take_along_axis(block, order, axis=1)
    pos, col = np.nonzero((cs[:, 1:] > cs[:, :-1]).T)
    return order, pos, col


def _histogram_split(ranks, feats, distinct, rows, yr, wr, wsum):
    """``DecisionTree._best_split`` of a node whose weights ``wr`` are its
    rows' integer bootstrap counts, from per-code sums of ``wr`` and
    ``wr * yr`` (histograms, as in LightGBM; Ke et al., 2017).

    The sampled columns are binned a group at a time, about
    ``_HIST_CELLS`` (row, column) cells per group, so that a node's
    scratch stays small at any row count. Every sum is of integers, so
    it is exact in any order and equals the sort path's prefix sum at
    the same cut: the costs are the same floats. Ties go to the lowest
    cost, then the fewest left rows counted with multiplicity (``lw``),
    then the earliest sampled column, as on the sort path.
    """
    wy = wr * yr
    wysum = wy.sum()
    step = max(1, _HIST_CELLS // len(rows))
    cuts = []  # the best (cost, lw, sampled column, lo, hi) of each group
    for a in range(0, len(feats), step):
        cut = _best_cut(ranks.take(feats[a:a + step], rows),
                        distinct[a:a + step], wr, wy, wsum, wysum)
        if cut is not None:
            cost, lw, j, lo, hi = cut
            cuts.append((cost, lw, a + j, lo, hi))
    if not cuts:
        return None
    cost, _, j, lo, hi = min(cuts)
    return int(feats[j]), lo, hi, cost


def _best_cut(block, distinct, wr, wy, wsum, wysum):
    """(cost, lw, column, low code, high code) of the cheapest cut of a
    (columns, node rows) block of codes, or None.

    The columns' codes share one run of bins, column after column,
    ``distinct`` bins each, and a cut lies between two consecutive codes
    present in the node.
    """
    m = len(block)
    first = np.cumsum(distinct) - distinct  # each column's first bin
    bins = (block + first[:, None]).ravel()
    hw = np.bincount(bins, np.tile(wr, m), distinct.sum())
    hwy = np.bincount(bins, np.tile(wy, m), distinct.sum())
    present = np.flatnonzero(hw)  # every node row counts at least 1
    col = np.searchsorted(first, present, side="right") - 1
    cut = np.flatnonzero(col[1:] == col[:-1])  # after present[cut]
    if len(cut) == 0:
        return None
    col = col[cut]
    # each column holds every node row once, so the columns before
    # column c add c * wsum to the running sum
    lw = np.cumsum(hw[present])[cut] - col * wsum
    lwy = np.cumsum(hwy[present])[cut] - col * wysum
    rw = wsum - lw
    rwy = wysum - lwy
    pl = lwy / lw
    pr = rwy / rw
    cost = lw * 2 * pl * (1 - pl) + rw * 2 * pr * (1 - pr)
    tied = np.flatnonzero(cost == cost.min())
    k = tied[np.lexsort((col[tied], lw[tied]))[0]]
    j = col[k]
    lo, hi = present[cut[k]:cut[k] + 2] - first[j]
    return cost[k], lw[k], j, lo, hi


class DecisionTree:
    """Single CART-style tree over float features and 0/1 targets.

    ``root_order`` is ``node_order`` of every column and row of the ranks
    that ``fit`` will get. A tree over every column, fitted without
    counts, then skips sorting its root: AdaBoost's rounds share one.
    """

    def __init__(self, max_depth: int | None = None,
                 max_features: int | None = None,
                 rng: np.random.Generator | None = None,
                 root_order: tuple | None = None):
        self.max_depth = max_depth
        self.max_features = max_features
        self.rng = rng or np.random.default_rng(0)
        self.root_order = root_order
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
        draw) and leaves out rows counted 0: the tree is the one grown on
        the rows repeated that many times, bit for bit while the weighted
        label sums are integers.
        """
        ranks = X if isinstance(X, ColumnRanks) else rank_columns(X)
        y = np.asarray(y, dtype=np.float64)
        d, n = ranks.shape
        w = np.ones(n) if sample_weight is None else \
            np.asarray(sample_weight, dtype=np.float64)
        if counts is None:
            root = np.arange(n)
        else:
            counts = np.asarray(counts, dtype=np.int64)
            root = np.flatnonzero(counts)
            w = w * counts
        self.n_features, self.gains = d, {}
        by_counts = counts is not None and sample_weight is None

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
            yr, wr = y[rows], w[rows]
            wsum = wr.sum()
            p = (wr * yr).sum() / wsum if wsum > 0 else 0.0
            value[node] = float(p)
            imp = 2.0 * p * (1.0 - p)  # Gini impurity
            if imp <= 1e-15 or (self.max_depth is not None
                                and depth >= self.max_depth):
                continue
            cr = None if counts is None else counts[rows]
            presorted = self.root_order if node == 0 and counts is None \
                else None
            split = self._best_split(ranks, rows, yr, wr, wsum, cr, presorted,
                                     by_counts)
            if split is None:
                continue
            feat, lo, hi, cost = split
            self.gains[feat] = self.gains.get(feat, 0.0) + \
                max(float(wsum * imp - cost), 0.0)
            vals = ranks.column_values(feat)
            thr = float((vals[lo] + vals[hi]) / 2.0)
            # X[rows, feat] <= thr, by code
            go_left = ranks.take(feat, rows) <= \
                np.searchsorted(vals, thr, side="right") - 1
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

    def _best_split(self, ranks, rows, yr, wr, wsum, cr, presorted,
                    by_counts):
        """(feature, low code, high code, cost) of the cheapest split over
        a sample of columns, or None; the codes are those of the two
        distinct values either side of the cut.

        Each sampled column's node rows are put in order by a stable
        argsort of their rank codes (a radix sort), which is
        the order a stable argsort of the values gives. Rows carry the
        weights ``wr`` and, under a bootstrap, the counts ``cr``.
        ``presorted`` is ``node_order`` of this node over every column,
        used when no columns are sampled.

        When the weights are the bootstrap counts (``by_counts``) and the
        node has at least as many (row, column) cells as the sampled
        columns have distinct values (times ``_HIST_FACTOR``),
        ``_histogram_split`` finds the same split without sorting.
        """
        d = ranks.shape[0]
        if self.max_features is not None and self.max_features < d:
            feats = self.rng.choice(d, size=self.max_features, replace=False)
            presorted = None
        else:
            feats = np.arange(d)
        if by_counts:
            distinct = ranks.offsets[feats + 1] - ranks.offsets[feats]
            if _HIST_FACTOR * len(rows) * len(feats) >= distinct.sum():
                return _histogram_split(ranks, feats, distinct, rows, yr,
                                        wr, wsum)
        if presorted is None:
            # (sampled columns, node rows)
            presorted = node_order(ranks.take(feats, rows))
        order, pos, col = presorted
        if len(pos) == 0:
            return None
        cut = col * len(rows) + pos  # flat into `order`
        # at most two (columns, rows) float arrays live beside `order`: a
        # node's scratch that outgrows glibc's trim threshold is handed
        # back to the kernel and faulted in again at the next node
        lw = np.cumsum(wr[order], axis=1).ravel()[cut]
        rw = wsum - lw
        cwy = np.cumsum((wr * yr)[order], axis=1)
        lwy = cwy.ravel()[cut]
        rwy = cwy[col, -1] - lwy
        del cwy

        with np.errstate(invalid="ignore", divide="ignore"):
            pl = np.where(lw > 0, lwy / lw, 0.0)
            pr = np.where(rw > 0, rwy / rw, 0.0)
            cost = lw * 2 * pl * (1 - pl) + rw * 2 * pr * (1 - pr)

        cost = np.where((lw > 0) & (rw > 0), cost, np.inf)
        if not np.isfinite(cost).any():
            return None
        # the first minimum by cut position, then by column in sampled order
        k = int(np.argmin(cost))
        if cr is not None:
            # a position among in-bag rows is not a left count: ties go
            # to the fewest left rows with multiplicity, then the column
            tied = np.flatnonzero(cost == cost[k])
            if len(tied) > 1:
                n_left = np.cumsum(cr[order], axis=1)[col[tied], pos[tied]]
                k = int(tied[np.lexsort((col[tied], n_left))[0]])
        i, j = pos[k], col[k]
        feat = int(feats[j])
        lo, hi = ranks.take(feat, rows[order[j, i:i + 2]])
        return feat, lo, hi, cost[k]

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
