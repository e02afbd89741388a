"""Feature ranking: per-feature tests and joint bagged-tree importance.

``scan`` reads the matrix once, one block of columns at a time, on up to
``workers`` processes, and never holds the whole float matrix. Each
block is checked for non-finite cells, then scored and ranked in
64-column slices, so that a block's scratch is a few slices' worth, not
several copies of the block. Each slice yields its two univariate scores
(Welch t statistic against the binary label, R squared against the
continuous inactivity label), its rank codes (one byte each in a column
of at most 256 distinct values) and its sorted distinct values. The
scores are computed from a C-ordered copy of the slice, and slices start
on the same multiples of 64 as over the whole matrix, so every sum runs
in the order it would over the whole matrix.
``tree_select`` then grows a bagged tree ensemble from the rank codes
alone and scores columns by normalized Gini importance. A ranking is a
score array plus its column order from ``ranked``: score descending
with ties broken by canonical feature name, so results are stable
across runs and row orderings. ``write_ranking`` writes one as CSV.
"""

from __future__ import annotations

import math
from dataclasses import replace

import numpy as np

from . import artifact
from . import matrix as matrix_mod
from . import parallel
from .labeling import LabelSet
from .tree import BaggedForest, ColumnRanks, collect_ranks, rank_block

T_STAT_ABS = "t_stat_abs"
R_SQUARED = "r_squared"
TREE_IMPORTANCE = "tree_importance"


def ranked(names: list[str], scores) -> np.ndarray:
    """The column order of a ranking: score descending, then name."""
    # np.array(names) compares code points as str does
    return np.lexsort((np.array(names), -np.asarray(scores, dtype=float)))


def univariate_ttest(X: np.ndarray, churn: np.ndarray) -> np.ndarray:
    """|t| of each column of X: Welch's two-sample t between churners
    and non-churners.

    A feature that is the same constant in both groups scores 0; a
    feature with zero variance in both groups but different group means
    separates the classes perfectly and scores +inf so it dominates
    every finite t.
    """
    n_c, n_n = int(churn.sum()), int((~churn).sum())
    Xc = X[churn]
    Xn = X[~churn]
    mean_c, mean_n = Xc.mean(axis=0), Xn.mean(axis=0)
    var_c = Xc.var(axis=0, ddof=1) if n_c > 1 else np.zeros(Xc.shape[1])
    var_n = Xn.var(axis=0, ddof=1) if n_n > 1 else np.zeros(Xn.shape[1])
    diff = mean_c - mean_n
    se2 = var_c / n_c + var_n / n_n
    scores = np.empty(len(diff))
    zero_se = se2 <= 0
    with np.errstate(invalid="ignore", divide="ignore"):
        scores[~zero_se] = np.abs(diff[~zero_se]) / np.sqrt(se2[~zero_se])
    scores[zero_se & (diff == 0)] = 0.0
    scores[zero_se & (diff != 0)] = math.inf
    return scores


def univariate_r2(X: np.ndarray, y: np.ndarray) -> np.ndarray:
    """R squared of regressing y (the inactivity fraction) on each
    column of X.

    For a simple regression this equals the squared Pearson correlation;
    zero-variance features (either side) score 0.
    """
    yc = y - y.mean()
    ss_y = float(yc @ yc)
    Xc = X - X.mean(axis=0)
    ss_x = np.einsum("ij,ij->j", Xc, Xc)
    cov = yc @ Xc
    with np.errstate(invalid="ignore", divide="ignore"):
        r2 = np.where((ss_x > 0) & (ss_y > 0), cov ** 2 / (ss_x * ss_y), 0.0)
    return np.clip(r2, 0.0, 1.0)


def scan(cols: matrix_mod.Columns, labels: LabelSet,
         workers: int = 1) -> tuple[np.ndarray, np.ndarray, ColumnRanks]:
    """(|t|, R squared, rank codes) of every column of a matrix, read a
    block of columns at a time and scored and ranked in the block's
    64-column slices (``matrix.column_spans``).

    ValueError names the first non-finite cell, in column order: split
    search needs a total order.
    """
    if cols.ego_ids != labels.ego_ids:
        raise ValueError("matrix rows and labels are not aligned")
    churn = labels.churned
    if not churn.any():
        raise ValueError("churner class is empty, t-test undefined")
    if churn.all():
        raise ValueError("non-churner class is empty, t-test undefined")
    y = labels.pct_inactive_eval
    n, d = len(cols.ego_ids), len(cols.feature_names)
    # each block's slices, (lo, hi) in matrix columns
    blocks = [[(lo + a, lo + b) for a, b in matrix_mod.column_spans(hi - lo)]
              for lo, hi in matrix_mod.column_blocks(n, d)]

    def block(slices):
        lo = slices[0][0]
        cells = cols.read(lo, slices[-1][1])
        matrix_mod.check_block_finite(cells, cols.ego_ids,
                                      cols.feature_names, lo)
        out = []
        for a, b in slices:
            part = cells[a - lo:b - lo]
            X = part.T.copy()  # C order, as the whole matrix would be
            out.append((univariate_ttest(X, churn), univariate_r2(X, y),
                        rank_block(part)))
        return out

    t, r2 = np.empty(d), np.empty(d)

    def ranked_slices():
        for slices, results in zip(blocks,
                                   parallel.map(block, blocks, workers)):
            for (lo, hi), (ts, r2s, ranks) in zip(slices, results):
                t[lo:hi], r2[lo:hi] = ts, r2s
                yield ranks

    return t, r2, collect_ranks(n, [s for b in blocks for s in b],
                                ranked_slices())


def tree_select(ranks: ColumnRanks, labels: LabelSet, n_trees: int = 100,
                k: int = 100, seed: int = 0, max_depth: int | None = 12,
                workers: int = 1) -> np.ndarray:
    """Normalized Gini importance of each column in a bagged ensemble
    grown from the scan's rank codes, whose rows are the labels' egos.

    Bootstrap rows, sqrt(d) random features per split, grown on up to
    ``workers`` processes. Rows are put in ego order internally so the
    result does not depend on how the caller happened to order the
    matrix. ``k``, the number of columns the caller keeps, is checked
    before any tree is grown.
    """
    n_features = ranks.shape[0]
    if not 1 <= k <= n_features:
        raise ValueError(f"k={k} outside 1..{n_features}")
    y = labels.churned.astype(np.float64)
    egos = labels.ego_ids
    if egos != sorted(egos):  # featurize writes them sorted
        order = np.argsort(np.asarray(egos, dtype=object), kind="stable")
        ranks = replace(ranks, narrow=ranks.narrow[:, order],
                        wide=ranks.wide[:, order])
        y = y[order]
    forest = BaggedForest(n_trees=n_trees, max_depth=max_depth, seed=seed)
    forest.fit(ranks, y, workers)
    imp = forest.feature_importances_
    if imp.sum() <= 0:
        raise ValueError("no informative splits: all importances are zero")
    return imp


def write_ranking(path: str, kind: str, names: list[str], scores,
                  order) -> str:
    """Write the columns ``order`` lists, best first, as
    ``rank,feature,score,score_kind`` rows; return the sha256."""
    values = scores.tolist()
    rows = "".join(f"{r},{names[i]},{values[i]!r},{kind}\n"
                   for r, i in enumerate(order.tolist(), 1))
    return artifact.write_text(path, "rank,feature,score,score_kind\n" + rows)
