"""Supervised model suite, k-fold cross-validation, and the baseline.

Six families trained from scratch on a standardized feature matrix:
least squares with a ridge term, logistic regression by full-batch
gradient descent, a linear SVM by stochastic subgradient (Pegasos),
k-nearest neighbors, a bagged random forest, and SAMME AdaBoost over
depth-limited trees. Every family learns the binary churn label and
emits a churn score in [0, 1]; only score ordering matters for ROC, so
margin-based families are squashed through a sigmoid rather than
calibrated. Each family is one record in ``FAMILIES``: its
hyperparameters, fit, score, and its part of the CFMD model file.

``kfold_cv`` returns the out-of-fold report that ``train`` writes as
``cv_<family>.json``. Its figures are taken after feature selection,
which saw every label. ``evaluate`` scores each final model on its own
training rows, so the model rows of ``report.json`` are in-sample.

Also provides the single-feature linear-discriminant baseline: an
exhaustive threshold sweep on the training-window inactivity fraction.
"""

from __future__ import annotations

import json
import struct
from dataclasses import dataclass, field
from typing import Callable, NamedTuple

import numpy as np

from . import artifact
from .labeling import LabelSet
from .matrix import FeatureMatrix, read_exact
from .metrics import classification_metrics, roc_auc
from .tree import LEAF, BaggedForest, DecisionTree, rank_columns


def _sigmoid(z: np.ndarray) -> np.ndarray:
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def logreg_gradient(w, b, Z, y, l2):
    p = _sigmoid(Z @ w + b)
    gw = Z.T @ (p - y) / len(y) + l2 * w
    gb = float((p - y).mean())
    return gw, gb


# ---------------------------------------------------------------------------
# CFMD primitives: length-prefixed blobs, strings and arrays
# ---------------------------------------------------------------------------

def _expect(fh, ok, what: str) -> None:
    """A model file whose content is inconsistent is a data error."""
    if not ok:
        raise ValueError(f"{fh.name}: {what}")


def _w_blob(fh, data: bytes) -> None:
    fh.write(struct.pack("<Q", len(data)))
    fh.write(data)


def _r_pack(fh, fmt: str, what: str) -> tuple:
    return struct.unpack(fmt, read_exact(fh, struct.calcsize(fmt), what))


def _r_blob(fh) -> bytes:
    (n,) = _r_pack(fh, "<Q", "blob size")
    return read_exact(fh, n, "blob")


def _w_str(fh, s: str) -> None:
    _w_blob(fh, s.encode("utf-8"))


def _r_str(fh) -> str:
    try:
        return _r_blob(fh).decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ValueError(f"{fh.name}: {exc}") from None


def _w_arr(fh, arr: np.ndarray, dtype: str) -> None:
    _w_blob(fh, np.ascontiguousarray(arr, dtype=dtype).tobytes())


def _r_arr(fh, dtype: str) -> np.ndarray:
    blob = _r_blob(fh)
    _expect(fh, len(blob) % np.dtype(dtype).itemsize == 0,
            f"array of {len(blob)} bytes is not a whole number of {dtype}")
    return np.frombuffer(blob, dtype=dtype).copy()


# ---------------------------------------------------------------------------
# Model families
# ---------------------------------------------------------------------------

class Param(NamedTuple):
    """One config value: its default, its type in a config file, and
    the range check a value must pass (none by default)."""
    default: object
    type: type
    ok: Callable[[object], bool] = lambda v: True


@dataclass(frozen=True)
class Family:
    """One model family.

    ``fit(Z, y, params, seed)`` returns the fitted dict that
    ``score(fitted, Z)`` maps to churn scores in [0, 1]. ``dump(fh,
    fitted)`` and ``load(fh, d)`` write and read it after the CFMD
    header, where ``d`` is the feature count; ``load`` checks every
    length and index it reads.
    """
    params: dict[str, Param]
    fit: Callable
    score: Callable
    dump: Callable
    load: Callable


def _fit_linreg(Z, y, params, seed):
    n, d = Z.shape
    ym = float(y.mean())
    lhs = Z.T @ Z / n + params["ridge"] * np.eye(d)
    rhs = Z.T @ (y - ym) / n
    return {"w": np.linalg.solve(lhs, rhs), "b": ym}


def _fit_logreg(Z, y, params, seed):
    n, d = Z.shape
    w = np.zeros(d)
    b = 0.0
    lr, l2 = params["lr"], params["l2"]
    for _ in range(params["epochs"]):
        gw, gb = logreg_gradient(w, b, Z, y, l2)
        w -= lr * gw
        b -= lr * gb
    return {"w": w, "b": b}


def _fit_svm(Z, y, params, seed):
    n, d = Z.shape
    yy = 2.0 * y - 1.0
    lam = params["lam"]
    w = np.zeros(d)
    b = 0.0
    t = 0
    rng = np.random.default_rng(seed)
    for _ in range(params["epochs"]):
        for i in rng.permutation(n):
            t += 1
            eta = 1.0 / (lam * t)
            margin = yy[i] * (Z[i] @ w + b)
            w *= (1.0 - eta * lam)
            if margin < 1.0:
                w += eta * yy[i] * Z[i]
                b += eta * yy[i]
    return {"w": w, "b": b}


def _dump_linear(fh, f) -> None:
    _w_arr(fh, f["w"], "<f8")
    fh.write(struct.pack("<d", f["b"]))


def _load_linear(fh, d: int) -> dict:
    w = _r_arr(fh, "<f8")
    (b,) = _r_pack(fh, "<d", "intercept")
    _expect(fh, len(w) == d, f"{len(w)} weights for {d} features")
    return {"w": w, "b": b}


def _knn_scores(Ztr, ytr, k, Zte, block: int = 128) -> np.ndarray:
    k = min(k, len(Ztr))
    tr_norm = (Ztr ** 2).sum(axis=1)
    out = np.empty(len(Zte))
    for start in range(0, len(Zte), block):
        B = Zte[start:start + block]
        d2 = (B ** 2).sum(axis=1)[:, None] + tr_norm[None, :] - 2.0 * B @ Ztr.T
        # the k nearest: every row nearer than the k-th distance, then the
        # lowest-indexed rows at it, the rows a stable sort would keep.
        # The labels are 0/1, so their sum is exact in any order.
        kth = np.partition(d2, k - 1, axis=1)[:, [k - 1]]
        nearer = d2 < kth
        tied = d2 == kth
        need = k - nearer.sum(axis=1, keepdims=True)
        nearest = nearer | (tied & (np.cumsum(tied, axis=1) <= need))
        out[start:start + block] = (nearest @ ytr) / k
    return out


def _dump_knn(fh, f) -> None:
    fh.write(struct.pack("<Q", f["k"]))
    _w_arr(fh, f["y"], "<f8")
    fh.write(struct.pack("<QQ", *f["Z"].shape))
    _w_arr(fh, f["Z"], "<f8")


def _load_knn(fh, d: int) -> dict:
    (k,) = _r_pack(fh, "<Q", "k")
    y = _r_arr(fh, "<f8")
    rows, cols = _r_pack(fh, "<QQ", "shape")
    Z = _r_arr(fh, "<f8")
    _expect(fh, k >= 1, "kNN with k=0")
    _expect(fh, len(Z) == rows * cols and cols == d,
            f"kNN matrix of {len(Z)} values is not {rows} x {d}")
    _expect(fh, len(y) == rows >= 1,
            f"kNN has {len(y)} labels for {rows} training rows")
    return {"k": k, "y": y, "Z": Z.reshape(rows, cols)}


_TREE_ARRAYS = (("feature", "<i8"), ("threshold", "<f8"), ("left", "<i8"),
                ("right", "<i8"), ("value", "<f8"))


def _dump_tree(fh, tree: DecisionTree) -> None:
    _w_str(fh, "classify")
    for name, dtype in _TREE_ARRAYS:
        _w_arr(fh, getattr(tree, name), dtype)


def _load_tree(fh, d: int) -> DecisionTree:
    task = _r_str(fh)
    _expect(fh, task == "classify", f"unsupported tree task {task!r}")
    tree = DecisionTree()
    for name, dtype in _TREE_ARRAYS:
        setattr(tree, name, _r_arr(fh, dtype))
    feat, left, right = tree.feature, tree.left, tree.right
    n = len(feat)
    _expect(fh, n >= 1 and all(len(getattr(tree, name)) == n
                               for name, _ in _TREE_ARRAYS),
            "tree arrays are empty or differ in length")
    node = np.flatnonzero(feat != LEAF)
    _expect(fh, ((feat[node] >= 0) & (feat[node] < d)).all(),
            f"tree feature outside [0, {d})")
    # the writer numbers children after their parent, so this also
    # rules out cycles
    _expect(fh, ((left[node] > node) & (left[node] < n)
                 & (right[node] > node) & (right[node] < n)).all(),
            f"tree child index outside its {n} nodes")
    return tree


def _fit_forest(Z, y, params, seed):
    forest = BaggedForest(n_trees=params["n_trees"],
                          max_depth=params["max_depth"], seed=seed)
    return {"forest": forest.fit(Z, y)}


def _dump_forest(fh, f) -> None:
    trees = f["forest"].trees
    fh.write(struct.pack("<Q", len(trees)))
    _w_str(fh, "classify")
    for tree in trees:
        _dump_tree(fh, tree)


def _load_forest(fh, d: int) -> dict:
    (n_trees,) = _r_pack(fh, "<Q", "tree count")
    task = _r_str(fh)
    _expect(fh, task == "classify", f"unsupported forest task {task!r}")
    _expect(fh, n_trees >= 1, "forest has no trees")
    forest = BaggedForest(n_trees=n_trees)
    forest.trees = [_load_tree(fh, d) for _ in range(n_trees)]
    return {"forest": forest}


def _fit_adaboost(Z, y, params, seed):
    n = len(y)
    w = np.full(n, 1.0 / n)
    ranks = rank_columns(Z)
    alphas: list[float] = []
    trees: list[DecisionTree] = []
    eps = 1e-12
    for m in range(params["rounds"]):
        tree = DecisionTree(max_depth=params["max_depth"],
                            rng=np.random.default_rng([seed, m]))
        tree.fit(ranks, y, sample_weight=w)
        pred = tree.predict(Z)
        miss = pred != y
        err = float(w[miss].sum())
        if err >= 0.5:
            # weak-learner contract broken: halt with the rounds so far
            break
        if err <= 0.0:
            alphas.append(float(np.log((1.0 - eps) / eps)))
            trees.append(tree)
            break
        alpha = float(np.log((1.0 - err) / err))
        alphas.append(alpha)
        trees.append(tree)
        w = w * np.exp(alpha * miss)
        w /= w.sum()
    if not trees:
        raise ValueError("adaboost found no weak learner better than chance")
    return {"alphas": np.asarray(alphas), "trees": trees}


def _score_adaboost(f, Z) -> np.ndarray:
    signed = np.zeros(len(Z))
    for alpha, tree in zip(f["alphas"], f["trees"]):
        signed += alpha * (2.0 * tree.predict(Z) - 1.0)
    return _sigmoid(signed)


def _dump_adaboost(fh, f) -> None:
    _w_arr(fh, f["alphas"], "<f8")
    for tree in f["trees"]:
        _dump_tree(fh, tree)


def _load_adaboost(fh, d: int) -> dict:
    alphas = _r_arr(fh, "<f8")
    _expect(fh, len(alphas) >= 1, "adaboost has no trees")
    return {"alphas": alphas, "trees": [_load_tree(fh, d) for _ in alphas]}


def _score_sigmoid(f, Z):
    return _sigmoid(Z @ f["w"] + f["b"])


# The order is the default `models.roster`, which every config hash covers.
FAMILIES: dict[str, Family] = {
    "linreg": Family(
        params={"ridge": Param(1e-4, float, lambda v: v >= 0)},
        fit=_fit_linreg,
        score=lambda f, Z: np.clip(Z @ f["w"] + f["b"], 0.0, 1.0),
        dump=_dump_linear, load=_load_linear),
    "logreg": Family(
        params={"lr": Param(0.1, float, lambda v: v > 0),
                "l2": Param(1e-4, float, lambda v: v >= 0),
                "epochs": Param(200, int, lambda v: v >= 1)},
        fit=_fit_logreg, score=_score_sigmoid,
        dump=_dump_linear, load=_load_linear),
    "linear_svm": Family(
        params={"lam": Param(1e-4, float, lambda v: v > 0),
                "epochs": Param(10, int, lambda v: v >= 1)},
        fit=_fit_svm, score=_score_sigmoid,
        dump=_dump_linear, load=_load_linear),
    "knn": Family(
        params={"k": Param(15, int, lambda v: v >= 1)},
        # train standardizes into a new Z and y, so they are kept as is
        fit=lambda Z, y, params, seed: {"Z": Z, "y": y, "k": params["k"]},
        score=lambda f, Z: _knn_scores(f["Z"], f["y"], f["k"], Z),
        dump=_dump_knn, load=_load_knn),
    "random_forest": Family(
        params={"n_trees": Param(100, int, lambda v: v >= 1),
                "max_depth": Param(12, int, lambda v: v >= 1)},
        fit=_fit_forest, score=lambda f, Z: f["forest"].predict_score(Z),
        dump=_dump_forest, load=_load_forest),
    "adaboost": Family(
        params={"rounds": Param(100, int, lambda v: v >= 1),
                "max_depth": Param(2, int, lambda v: v >= 1)},
        fit=_fit_adaboost, score=_score_adaboost,
        dump=_dump_adaboost, load=_load_adaboost),
}


@dataclass(frozen=True)
class ModelSpec:
    """One family's fit settings. The config that gives ``params``
    checked their range when it was read."""
    family: str
    params: dict = field(default_factory=dict)
    seed: int = 0

    def resolved(self) -> dict:
        out = {key: p.default
               for key, p in FAMILIES[self.family].params.items()}
        out.update(self.params)
        return out


@dataclass
class TrainedModel:
    family: str
    feature_names: list[str]
    mean: np.ndarray
    sd: np.ndarray              # raw per-feature sd; 0 marks constant columns
    params: dict
    seed: int
    fitted: dict

    def standardize(self, X: np.ndarray) -> np.ndarray:
        sd_safe = np.where(self.sd > 0, self.sd, 1.0)
        return (X - self.mean) / sd_safe


def train(spec: ModelSpec, matrix: FeatureMatrix,
          labels: LabelSet) -> TrainedModel:
    """Fit one family on the churn labels; features standardized internally."""
    if matrix.ego_ids != labels.ego_ids:
        raise ValueError("matrix rows and labels are not aligned")
    X = matrix.values
    if len(X) < 2:
        raise ValueError("need at least 2 rows to train")
    if not np.isfinite(X).all():
        raise ValueError("matrix contains non-finite values")
    y = labels.churned.astype(np.float64)
    if y.min() == y.max():
        raise ValueError("binary training data has a single class")
    mean = X.mean(axis=0)
    sd = X.std(axis=0)
    Z = (X - mean) / np.where(sd > 0, sd, 1.0)
    params = spec.resolved()
    fitted = FAMILIES[spec.family].fit(Z, y, params, spec.seed)
    return TrainedModel(family=spec.family,
                        feature_names=list(matrix.feature_names),
                        mean=mean, sd=sd, params=params, seed=spec.seed,
                        fitted=fitted)


def predict_scores(model: TrainedModel, matrix: FeatureMatrix) -> np.ndarray:
    """Per-ego churn score in [0, 1] for every row of the matrix."""
    for i, (want, got) in enumerate(zip(model.feature_names,
                                        matrix.feature_names)):
        if want != got:
            raise ValueError(
                f"feature column mismatch at {i}: model expects {want!r}, "
                f"matrix has {got!r}")
    if len(matrix.feature_names) != len(model.feature_names):
        raise ValueError(
            f"feature count mismatch: model expects "
            f"{len(model.feature_names)}, matrix has {len(matrix.feature_names)}")
    Z = model.standardize(matrix.values)
    scores = FAMILIES[model.family].score(model.fitted, Z)
    if not np.isfinite(scores).all():
        raise ValueError("model produced non-finite scores")
    return scores


# ---------------------------------------------------------------------------
# Cross-validation
# ---------------------------------------------------------------------------

# the metrics of each fold and of their mean
_CV_METRICS = ("accuracy", "precision", "recall", "f_score", "auc")


def kfold_cv(spec: ModelSpec, matrix: FeatureMatrix, labels: LabelSet,
             k: int, seed: int, threshold: float = 0.5) -> dict:
    """Shuffle rows by seed, split into k near-equal folds, train on k-1.

    Returns the report ``train`` writes as ``cv_<family>.json``: the
    family, ``k``, ``seed``, the resolved hyperparameters, one dict per
    fold (``fold`` and the five metrics of its held-out rows) and their
    ``mean``. A fold whose training part or test part lacks one of the
    classes is reported with 0.0 metrics and a ``flagged`` reason, and
    left out of the mean (0.0 when no fold is left).
    """
    n = len(matrix.ego_ids)
    if not 2 <= k <= n:
        raise ValueError(f"k={k} outside 2..{n}")
    perm = np.random.default_rng(seed).permutation(n)
    parts = np.array_split(perm, k)
    folds = []
    y_all = labels.churned
    for fi, test_idx in enumerate(parts):
        train_idx = np.concatenate([f for j, f in enumerate(parts) if j != fi])
        flagged = None
        if y_all[train_idx].min() == y_all[train_idx].max():
            flagged = "single-class training fold"
        elif y_all[test_idx].min() == y_all[test_idx].max():
            flagged = "single-class test fold"
        if flagged:
            folds.append({"fold": fi, **dict.fromkeys(_CV_METRICS, 0.0),
                          "flagged": flagged})
            continue
        sub_train = _take(matrix, labels, train_idx)
        sub_test = _take(matrix, labels, test_idx)
        model = train(spec, sub_train[0], sub_train[1])
        scores = predict_scores(model, sub_test[0])
        churned = sub_test[1].churned
        _, auc = roc_auc(scores, churned)
        folds.append({"fold": fi, **classification_metrics(
            scores, churned, threshold), "auc": auc})
    kept = [f for f in folds if "flagged" not in f]
    return {"family": spec.family, "k": k, "seed": seed,
            "hyperparameters": spec.resolved(), "folds": folds,
            "mean": {m: float(np.mean([f[m] for f in kept])) if kept else 0.0
                     for m in _CV_METRICS}}


def _take(matrix: FeatureMatrix, labels: LabelSet, idx: np.ndarray):
    egos = [matrix.ego_ids[i] for i in idx]
    sub_m = FeatureMatrix(egos, list(matrix.feature_names),
                          matrix.values[idx])
    sub_l = LabelSet(egos, labels.churned[idx], labels.pct_inactive_eval[idx])
    return sub_m, sub_l


# ---------------------------------------------------------------------------
# Single-feature threshold baseline
# ---------------------------------------------------------------------------

_EPS = 1e-9


@dataclass
class BaselineResult:
    threshold: float
    accuracy: float


def threshold_baseline(train_inactivity, churned) -> BaselineResult:
    """Best 'churner iff inactivity > t' classifier over all thresholds.

    Candidates are midpoints between consecutive distinct values plus
    sentinels just below 0 and above 1 (classify everyone / no one).
    Ties resolve to the smallest threshold. The sentinel candidates
    make the result at least as accurate as the majority class.
    """
    v = np.asarray(train_inactivity, dtype=float)
    y = np.asarray(churned, dtype=bool)
    if len(v) == 0:
        raise ValueError("empty input")
    if len(v) != len(y):
        raise ValueError("values and labels differ in length")
    if not ((v >= 0) & (v <= 1)).all():  # nan fails both comparisons
        raise ValueError("inactivity values must lie in [0, 1]")
    order = np.argsort(v, kind="stable")
    vs, ys = v[order], y[order]
    n = len(v)
    # group boundaries of distinct sorted values
    starts = np.concatenate([[0], np.flatnonzero(np.diff(vs)) + 1])
    ends = np.concatenate([starts[1:], [n]])
    distinct = vs[starts]
    candidates = [-_EPS]
    candidates.extend((distinct[:-1] + distinct[1:]) / 2.0)
    candidates.append(1.0 + _EPS)

    correct = int(y.sum())  # threshold below everything: all churners
    best_t, best_acc = candidates[0], correct / n
    for gi in range(len(distinct)):
        group_churn = int(ys[starts[gi]:ends[gi]].sum())
        group_n = int(ends[gi] - starts[gi])
        # group values move from "> t" to "<= t"
        correct += (group_n - group_churn) - group_churn
        t = candidates[gi + 1]
        acc = correct / n
        if acc > best_acc:
            best_acc, best_t = acc, float(t)
    return BaselineResult(threshold=float(best_t), accuracy=float(best_acc))


# ---------------------------------------------------------------------------
# Model artifact format (magic CFMD)
# ---------------------------------------------------------------------------

_MAGIC = b"CFMD"
_VERSION = 1


def save_model(model: TrainedModel, path: str) -> str:
    def fill(fh):
        fh.write(_MAGIC)
        fh.write(struct.pack("<B", _VERSION))
        _w_str(fh, model.family)
        _w_str(fh, "binary")  # the training target
        _w_str(fh, "\n".join(model.feature_names))
        _w_arr(fh, model.mean, "<f8")
        _w_arr(fh, model.sd, "<f8")
        fh.write(struct.pack("<q", model.seed))
        _w_str(fh, json.dumps(model.params, sort_keys=True))
        FAMILIES[model.family].dump(fh, model.fitted)

    return artifact.write(path, fill)


def load_model(path: str) -> TrainedModel:
    """Read a CFMD file; any content that save_model cannot have written
    is a ValueError that names the file."""
    with open(path, "rb") as fh:
        if fh.read(4) != _MAGIC:
            raise ValueError(f"{path}: not a CFMD model file")
        (version,) = _r_pack(fh, "<B", "version")
        _expect(fh, version == _VERSION, f"unsupported version {version}")
        family = _r_str(fh)
        _expect(fh, family in FAMILIES, f"unknown family {family!r}")
        target = _r_str(fh)
        _expect(fh, target == "binary", f"unsupported target {target!r}")
        names_blob = _r_str(fh)
        feature_names = names_blob.split("\n") if names_blob else []
        d = len(feature_names)
        mean = _r_arr(fh, "<f8")
        sd = _r_arr(fh, "<f8")
        _expect(fh, len(mean) == d and len(sd) == d,
                f"{len(mean)} means and {len(sd)} sds for {d} features")
        (seed,) = _r_pack(fh, "<q", "seed")
        try:
            params = json.loads(_r_str(fh))
        except json.JSONDecodeError as exc:
            raise ValueError(f"{path}: params are not JSON: {exc}") from None
        _expect(fh, isinstance(params, dict), "params are not a JSON object")
        fitted = FAMILIES[family].load(fh, d)
        extra = len(fh.read())
        _expect(fh, extra == 0, f"{extra} trailing bytes after the model")
    return TrainedModel(family=family, feature_names=feature_names,
                        mean=mean, sd=sd, params=params, seed=seed,
                        fitted=fitted)


def write_scores(ego_ids: list[str], scores: np.ndarray, path: str) -> str:
    return artifact.write_text(path, "ego_id,churn_score\n" + "".join(
        f"{ego},{float(s)!r}\n" for ego, s in zip(ego_ids, scores)))


def read_scores(path: str) -> tuple[list[str], np.ndarray]:
    egos, scores = [], []
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().strip()
        if header != "ego_id,churn_score":
            raise ValueError(f"{path}: bad scores header {header!r}")
        for line_no, line in enumerate(fh, start=2):
            try:
                e, s = line.rstrip("\n").split(",")
                score = float(s)
                if not 0.0 <= score <= 1.0:
                    raise ValueError(f"churn_score is {score!r}, not in [0, 1]")
            except ValueError as exc:
                raise ValueError(f"{path}: line {line_no}: bad scores row "
                                 f"{line.rstrip()!r}: {exc}") from None
            egos.append(e)
            scores.append(score)
    return egos, np.asarray(scores)
