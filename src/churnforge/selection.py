"""Feature ranking: per-feature tests and joint bagged-tree importance.

``scan`` reads the matrix once, one block of columns at a time, on up to
``workers`` processes, and never holds the whole float matrix. Each
block is checked for non-finite cells and yields its two univariate
scores (Welch t statistic against the binary label, R squared against
the continuous inactivity label), its rank codes and its sorted distinct
values. The scores are computed from a C-ordered copy of the block, so
every sum runs in the order it would over the whole matrix. The joint
top-k selection then grows a bagged tree ensemble from the rank codes
alone and ranks columns by normalized Gini importance. All rankings sort
by score descending with ties broken by canonical feature name, so
results are stable across runs and row orderings.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import artifact
from . import matrix as matrix_mod
from . import parallel
from .labeling import LabelSet
from .tree import BaggedForest, ColumnRanks, collect_ranks, rank_block

T_STAT_ABS = "t_stat_abs"
R_SQUARED = "r_squared"
TREE_IMPORTANCE = "tree_importance"


@dataclass
class RankedFeature:
    rank: int
    name: str
    score: float
    degenerate: bool = False


@dataclass
class FeatureRanking:
    score_kind: str
    entries: list[RankedFeature] = field(default_factory=list)

    def names(self) -> list[str]:
        return [e.name for e in self.entries]


@dataclass
class Scan:
    """What one pass over the matrix's column blocks yields."""
    ego_ids: list[str]
    feature_names: list[str]
    ttest: FeatureRanking
    r2: FeatureRanking
    ranks: ColumnRanks


def _ranked(names, scores, kind, degenerate=None) -> FeatureRanking:
    degenerate = degenerate if degenerate is not None else [False] * len(names)
    # by score descending, then name; np.array(names) compares code points
    # as str does
    order = np.lexsort((np.array(names), -np.asarray(scores, dtype=float)))
    entries = [RankedFeature(rank=r + 1, name=names[i], score=float(scores[i]),
                             degenerate=bool(degenerate[i]))
               for r, i in enumerate(order)]
    return FeatureRanking(score_kind=kind, entries=entries)


def univariate_ttest(X: np.ndarray, churn: np.ndarray) -> tuple:
    """(|t|, degenerate) of each column of X: Welch's two-sample t
    between churners and non-churners.

    A feature that is the same constant in both groups is degenerate
    with score 0; a feature with zero variance in both groups but
    different group means separates the classes perfectly and scores
    +inf so it dominates every finite t.
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
    degenerate = np.zeros(len(diff), dtype=bool)
    zero_se = se2 <= 0
    with np.errstate(invalid="ignore", divide="ignore"):
        scores[~zero_se] = np.abs(diff[~zero_se]) / np.sqrt(se2[~zero_se])
    scores[zero_se & (diff == 0)] = 0.0
    degenerate[zero_se & (diff == 0)] = True
    scores[zero_se & (diff != 0)] = math.inf
    return scores, degenerate


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
         workers: int = 1) -> Scan:
    """Score and rank every column of a matrix, a block of columns at a
    time.

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
    spans = matrix_mod.column_blocks(n, d)

    def block(span):
        lo, hi = span
        cells = cols.read(lo, hi)
        matrix_mod.check_block_finite(cells, cols.ego_ids,
                                      cols.feature_names, lo)
        X = cells.T.copy()  # C order, as the whole matrix would be
        return (*univariate_ttest(X, churn), univariate_r2(X, y)), \
            rank_block(cells)

    t, degenerate, r2 = np.empty(d), np.empty(d, dtype=bool), np.empty(d)

    def ranked():
        for (lo, hi), (scores, ranks) in zip(
                spans, parallel.map(block, spans, workers)):
            t[lo:hi], degenerate[lo:hi], r2[lo:hi] = scores
            yield ranks

    ranks = collect_ranks(n, spans, ranked())
    names = cols.feature_names
    return Scan(cols.ego_ids, names,
                _ranked(names, t, T_STAT_ABS, degenerate),
                _ranked(names, r2, R_SQUARED), ranks)


def tree_select(scanned: Scan, labels: LabelSet, n_trees: int = 100,
                k: int = 100, seed: int = 0, max_depth: int | None = 12,
                workers: int = 1) -> FeatureRanking:
    """Top-k features by normalized Gini importance of a bagged ensemble
    grown from the scan's rank codes.

    Bootstrap rows, sqrt(d) random features per split, grown on up to
    ``workers`` processes. Rows are put in ego order internally so the
    result does not depend on how the caller happened to order the
    matrix.
    """
    if scanned.ego_ids != labels.ego_ids:
        raise ValueError("matrix rows and labels are not aligned")
    if n_trees < 1:
        raise ValueError("n_trees must be >= 1")
    n_features = len(scanned.feature_names)
    if not 1 <= k <= n_features:
        raise ValueError(f"k={k} outside 1..{n_features}")
    ranks = scanned.ranks
    y = labels.churned.astype(np.float64)
    egos = scanned.ego_ids
    if egos != sorted(egos):  # featurize writes them sorted
        order = np.argsort(np.asarray(egos, dtype=object), kind="stable")
        ranks = ColumnRanks(ranks.codes[:, order], ranks.values,
                            ranks.offsets)
        y = y[order]
    forest = BaggedForest(n_trees=n_trees, max_depth=max_depth, seed=seed)
    forest.fit(ranks, y, workers)
    imp = forest.feature_importances_
    if imp.sum() <= 0:
        raise ValueError("no informative splits: all importances are zero")
    full = _ranked(scanned.feature_names, imp, TREE_IMPORTANCE)
    top = full.entries[:k]
    return FeatureRanking(score_kind=TREE_IMPORTANCE, entries=top)


def write_ranking(ranking: FeatureRanking, path: str) -> str:
    return artifact.write_text(path, "rank,feature,score,score_kind\n"
                               + "".join(f"{e.rank},{e.name},{e.score!r},"
                                         f"{ranking.score_kind}\n"
                                         for e in ranking.entries))
