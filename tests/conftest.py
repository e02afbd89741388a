import datetime
import os
import tempfile
from types import SimpleNamespace

import churnforge  # noqa: F401  (pins one BLAS thread before numpy loads)
import numpy as np
import pytest

from churnforge.cdr import (ALTER_CLASS_TOKENS, CSV_HEADER, DIRECTION_TOKENS,
                            KIND_TOKENS, SECONDS_PER_DAY, StudyWindow, ingest)
from churnforge.config import PipelineConfig
from churnforge.features import FULL_ONLY_STATS, WINDOWS, ConfigError
from churnforge.matrix import Columns, FeatureMatrix

WINDOW = StudyWindow(datetime.date(2024, 1, 1), 183, 4, 2)


def read_config(tmp_path, text):
    """The PipelineConfig of a config file holding ``text``."""
    path = tmp_path / "c.cfg"
    path.write_text(text, encoding="utf-8")
    return PipelineConfig.from_file(str(path))


def config_error(tmp_path, text) -> str:
    """The message of the ConfigError that reading ``text`` raises."""
    with pytest.raises(ConfigError) as exc:
        read_config(tmp_path, text)
    return str(exc.value)


def ingest_rows(rows, window=WINDOW):
    """Store of (ego, alter, ts, kind, direction, duration_s, alter_class)
    rows, the last four as codes, written as a CDR CSV and ingested."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "cdr.csv")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(CSV_HEADER + "\n")
            for ego, alter, ts, kind, direction, dur, ac in rows:
                fh.write(f"{ego},{alter},{ts},{KIND_TOKENS[kind]},"
                         f"{DIRECTION_TOKENS[direction]},{dur},"
                         f"{ALTER_CLASS_TOKENS[ac]}\n")
        store = ingest(path, window)
    assert store.rejected == []
    return store


def random_rows(window=WINDOW, n_subscribers=8, seed=0, max_events=60,
                n_alters=6, all_days=True):
    """Random CDR rows for property tests; events spread over the window."""
    rng = np.random.default_rng(seed)
    hi_day = window.total_days if all_days else window.train_days
    rows = []
    for i in range(n_subscribers):
        for _ in range(int(rng.integers(1, max_events))):
            day = int(rng.integers(0, hi_day))
            kind = int(rng.integers(0, 2))
            ts = (window.start_epoch + day * SECONDS_PER_DAY
                  + int(rng.integers(0, SECONDS_PER_DAY)))
            direction = int(rng.integers(0, 2))
            dur = 0 if kind == 1 else int(rng.integers(0, 400))
            ac = int(rng.integers(0, 6))
            alter = f"A{int(rng.integers(0, n_alters)):03d}"
            rows.append((f"S{i:03d}", alter, ts, kind, direction, dur, ac))
    return rows


def make_store(window=WINDOW, **kwargs):
    return ingest_rows(random_rows(window, **kwargs), window)


def column(mat, name):
    """The column of an in-memory matrix named ``name``."""
    return mat.values[:, mat.feature_names.index(name)]


def columns(mat, names):
    """An in-memory matrix of ``mat``'s ``names`` columns, in that order
    and in C order, as ``matrix.load`` returns them."""
    idx = [mat.feature_names.index(n) for n in names]
    return FeatureMatrix(mat.ego_ids, list(names), mat.values[:, idx].copy())


def in_memory_columns(mat):
    """``matrix.columns`` of an in-memory matrix: each block of columns
    is a slice of ``mat``."""
    values = mat.values
    return Columns(mat.ego_ids, mat.feature_names,
                   lambda lo, hi: values[:, lo:hi].T)


def assert_ranks_of(ranks, X):
    """``ranks`` are float matrix X's: each column's codes are its
    ``np.unique`` inverse (so 0.0 and -0.0 share one), in one byte where
    it has at most 256 distinct values, and ``column(j)`` returns column
    j bit for bit, -0.0 included."""
    n, d = X.shape
    assert ranks.shape == (d, n)
    for j in range(d):
        col = X[:, j]
        uniq, inverse = np.unique(col, return_inverse=True)
        codes = ranks.take(j, np.arange(n))
        assert np.array_equal(codes, inverse), j
        assert ranks.distinct[j] == len(uniq), j
        assert (ranks.at[j] < len(ranks.narrow)) == (len(uniq) <= 256), j
        assert codes.dtype == (np.uint8 if len(uniq) <= 256
                               else ranks.wide.dtype), j
        assert ranks.column(j).tobytes() == col.tobytes(), j


# Six ratio denominators for the tests of ratio enumeration and
# computation. Pipelines enumerate no ratios unless a config lists its
# own under `features.denominators`, whose default is empty.
DEFAULT_DENOMINATORS = (
    "activity.call.in.any.any.any.full.total",
    "activity.call.out.any.any.any.full.total",
    "degree.call.any.any.any.any.full.total",
    "degree.sms.any.any.any.any.full.total",
    "degree.any.in.any.any.any.full.total",
    "inactivity.full",
)


def count_features(config, n_denominators=0):
    """Closed-form size of ``enumerate_features``'s output for the axes
    ``config``: criterion 1's oracle."""
    filt = (len(config.measures) * len(config.kinds) * len(config.directions)
            * len(config.times_of_day) * len(config.day_types)
            * len(config.alter_classes))
    plain = sum(1 for s in config.statistics if s not in FULL_ONLY_STATS)
    trend = sum(1 for s in config.statistics if s in FULL_ONLY_STATS)
    win_stats = len(config.windows) * plain
    if "full" in config.windows:
        win_stats += trend
    base = filt * win_stats + len(WINDOWS)
    return base + (base - 1) * n_denominators


def knn_scores_by_sort(Ztr, ytr, k, Zte, block=512):
    """Mean label of each test row's k nearest training rows, ties at
    the k-th distance broken toward the lowest training index by a full
    stable argsort: the reference for ``models._knn_scores``."""
    k = min(k, len(Ztr))
    tr_norm = (Ztr ** 2).sum(axis=1)
    out = np.empty(len(Zte))
    for start in range(0, len(Zte), block):
        B = Zte[start:start + block]
        d2 = (B ** 2).sum(axis=1)[:, None] + tr_norm[None, :] - 2.0 * B @ Ztr.T
        nearest = np.argsort(d2, axis=1, kind="stable")[:, :k]
        out[start:start + block] = ytr[nearest].mean(axis=1)
    return out


def importances(tree):
    """A tree's Gini decrease per column as a dense array: its ``gains``,
    with a 0 for every column it does not split on."""
    imp = np.zeros(tree.n_features)
    imp[list(tree.gains)] = list(tree.gains.values())
    return imp


def logreg_loss(w, b, Z, y, l2):
    """Mean cross-entropy plus (l2/2)||w||^2, bias unregularized: the
    reference for ``models.logreg_gradient``."""
    z = Z @ w + b
    per_row = np.logaddexp(0.0, z) - y * z
    return float(per_row.mean() + 0.5 * l2 * (w @ w))


def label_dict(labels):
    """{ego_id: (churned, pct_inactive_eval)} of a LabelSet."""
    return {e: (bool(c), float(p)) for e, c, p in
            zip(labels.ego_ids, labels.churned, labels.pct_inactive_eval)}


def read_truth(path):
    """{ego_id: churned} of a simgen ``ego_id,churned`` ground-truth CSV."""
    with open(path, "r", encoding="utf-8") as fh:
        assert fh.readline() == "ego_id,churned\n"
        return {e: bool(int(c)) for e, c in
                (line.rstrip("\n").split(",") for line in fh)}


def read_ranking(path):
    """A ``rank,feature,score,score_kind`` CSV as its ``score_kind`` and
    its ``entries``, each with ``rank``, ``name`` and ``score``."""
    entries, kind = [], ""
    with open(path, "r", encoding="utf-8") as fh:
        assert fh.readline() == "rank,feature,score,score_kind\n"
        for line in fh:
            rank, name, score, kind = line.rstrip("\n").split(",")
            entries.append(SimpleNamespace(rank=int(rank), name=name,
                                           score=float(score)))
    return SimpleNamespace(score_kind=kind, entries=entries)


@pytest.fixture(scope="session")
def random_store():
    return make_store(n_subscribers=10, seed=3, max_events=80)


ACCEPTANCE_VERDICTS: list[str] = []


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_VERDICTS:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_VERDICTS:
            terminalreporter.write_line(line)
