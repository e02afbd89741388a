"""Feature ranking: per-feature tests and joint bagged-tree importance.

Two univariate views (Welch t statistic against the binary label,
R squared against the continuous inactivity label) plus a joint top-k
selection from normalized Gini importance of a bagged tree ensemble.
All rankings sort by score descending with ties broken by canonical
feature name, so results are stable across runs and row orderings.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .labeling import LabelSet
from .matrix import FeatureMatrix
from .tree import BaggedForest

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


def _ranked(names, scores, kind, degenerate=None) -> FeatureRanking:
    degenerate = degenerate if degenerate is not None else [False] * len(names)
    # by score descending, then name; np.array(names) compares code points
    # as str does
    order = np.lexsort((np.array(names), -np.asarray(scores, dtype=float)))
    entries = [RankedFeature(rank=r + 1, name=names[i], score=float(scores[i]),
                             degenerate=bool(degenerate[i]))
               for r, i in enumerate(order)]
    return FeatureRanking(score_kind=kind, entries=entries)


def _check_alignment(matrix: FeatureMatrix, labels: LabelSet) -> None:
    if matrix.ego_ids != labels.ego_ids:
        raise ValueError("matrix rows and labels are not aligned")


def univariate_ttest(matrix: FeatureMatrix, labels: LabelSet) -> FeatureRanking:
    """Welch two-sample t per feature between churners and non-churners.

    Scores are |t|. A feature that is the same constant in both groups
    is degenerate with score 0; a feature with zero variance in both
    groups but different group means separates the classes perfectly
    and scores +inf so it dominates every finite t.
    """
    _check_alignment(matrix, labels)
    churn = labels.churned
    n_c, n_n = int(churn.sum()), int((~churn).sum())
    if n_c == 0:
        raise ValueError("churner class is empty, t-test undefined")
    if n_n == 0:
        raise ValueError("non-churner class is empty, t-test undefined")
    Xc = matrix.values[churn]
    Xn = matrix.values[~churn]
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
    return _ranked(matrix.feature_names, scores, T_STAT_ABS, degenerate)


def univariate_r2(matrix: FeatureMatrix, labels: LabelSet) -> FeatureRanking:
    """R squared of regressing the inactivity fraction on each feature.

    For a simple regression this equals the squared Pearson correlation;
    zero-variance features (either side) score 0.
    """
    _check_alignment(matrix, labels)
    y = labels.pct_inactive_eval
    yc = y - y.mean()
    ss_y = float(yc @ yc)
    Xc = matrix.values - matrix.values.mean(axis=0)
    ss_x = np.einsum("ij,ij->j", Xc, Xc)
    cov = yc @ Xc
    with np.errstate(invalid="ignore", divide="ignore"):
        r2 = np.where((ss_x > 0) & (ss_y > 0), cov ** 2 / (ss_x * ss_y), 0.0)
    r2 = np.clip(r2, 0.0, 1.0)
    return _ranked(matrix.feature_names, r2, R_SQUARED)


def tree_select(matrix: FeatureMatrix, labels: LabelSet, n_trees: int = 100,
                k: int = 100, seed: int = 0, max_depth: int | None = 12,
                workers: int = 1) -> FeatureRanking:
    """Top-k features by normalized Gini importance of a bagged ensemble.

    Bootstrap rows, sqrt(d) random features per split, grown on up to
    ``workers`` processes. Rows are put in ego order internally so the
    result does not depend on how the caller happened to order the
    matrix.
    """
    _check_alignment(matrix, labels)
    if n_trees < 1:
        raise ValueError("n_trees must be >= 1")
    n_features = len(matrix.feature_names)
    if not 1 <= k <= n_features:
        raise ValueError(f"k={k} outside 1..{n_features}")
    X = matrix.values
    y = labels.churned.astype(np.float64)
    if matrix.ego_ids != sorted(matrix.ego_ids):  # featurize writes them sorted
        order = np.argsort(np.asarray(matrix.ego_ids, dtype=object),
                           kind="stable")
        X, y = X[order], y[order]
    forest = BaggedForest(n_trees=n_trees, max_depth=max_depth, seed=seed)
    forest.fit(X, y, workers)
    imp = forest.feature_importances_
    if imp.sum() <= 0:
        raise ValueError("no informative splits: all importances are zero")
    full = _ranked(matrix.feature_names, imp, TREE_IMPORTANCE)
    top = full.entries[:k]
    return FeatureRanking(score_kind=TREE_IMPORTANCE, entries=top)


def write_ranking(ranking: FeatureRanking, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("rank,feature,score,score_kind\n")
        for e in ranking.entries:
            fh.write(f"{e.rank},{e.name},{e.score!r},{ranking.score_kind}\n")
