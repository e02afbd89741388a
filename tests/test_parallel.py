"""Worker counts change how fast the tree layer runs, never what it makes."""

import multiprocessing
import os
import pickle
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from churnforge import matrix, parallel
from churnforge.cli import main
from churnforge.tree import BaggedForest, rank_columns
from conftest import assert_ranks_of, importances

ROOT = Path(__file__).resolve().parents[1]
SMALL_CFG = str(ROOT / "configs" / "small.cfg")
_TREE_ARRAYS = ("feature", "threshold", "left", "right", "value")


def _problem(seed=0, n=90, d=20):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, d)).round(1)  # rounding makes ties
    y = (X[:, 1] - X[:, 4] + 0.5 * rng.normal(size=n) > 0).astype(float)
    return X, y


def test_map_keeps_item_order():
    offset = 10  # a closure reaches the children by fork, not by pickle
    for workers in (1, 2, 3):
        assert list(parallel.map(lambda i: i + offset, range(7),
                                 workers)) == list(range(10, 17))


def test_map_yields_each_result_as_it_arrives(tmp_path):
    # the last item waits for a file that is made only once the first
    # result is taken: a map that returned all results at once would
    # give that item no file
    flag = tmp_path / "first_result_taken"

    def wait_for_flag(i):
        deadline = time.monotonic() + 10
        while i == 3 and not flag.exists() and time.monotonic() < deadline:
            time.sleep(0.01)
        return i, flag.exists()

    for workers in (1, 2):
        flag.unlink(missing_ok=True)
        results = parallel.map(wait_for_flag, range(4), workers)
        assert next(results) == (0, False)
        flag.touch()
        rest = list(results)
        assert [i for i, _ in rest] == [1, 2, 3] and rest[-1] == (3, True)

    # more items than four runs per worker, each after the first waiting
    # for the flag: a map that handed out runs of items would hold the
    # first result back until the rest of its run gave up waiting
    def wait_unless_first(i):
        deadline = time.monotonic() + 10
        while i > 0 and not flag.exists() and time.monotonic() < deadline:
            time.sleep(0.01)
        return i, flag.exists()

    n = 4 * 2 * 3
    for workers in (1, 2):
        flag.unlink(missing_ok=True)
        results = parallel.map(wait_unless_first, range(n), workers)
        assert next(results) == (0, False)
        flag.touch()
        assert list(results) == [(i, True) for i in range(1, n)]


def test_map_raises_what_a_child_raises():
    def fail(i):
        if i == 3:
            raise ValueError("item 3 is bad")
        return i

    with pytest.raises(ValueError, match="item 3 is bad"):
        list(parallel.map(fail, range(5), 2))


def test_map_runs_where_cpu_placement_is_refused(monkeypatch):
    def refuse(pid, cpus):
        raise PermissionError("affinity is not ours to set")

    def give_up(signum, frame):
        raise TimeoutError("pool children never started")

    monkeypatch.setattr(os, "sched_setaffinity", refuse, raising=False)
    previous = signal.signal(signal.SIGALRM, give_up)
    signal.alarm(60)
    try:
        assert list(parallel.map(lambda i: 2 * i, range(6), 2)) == \
            [0, 2, 4, 6, 8, 10]
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def test_one_worker_or_one_item_creates_no_pool(monkeypatch):
    def no_pool(*args, **kwargs):
        raise AssertionError("a pool was started")

    monkeypatch.setattr(multiprocessing, "get_context", no_pool)
    X, y = _problem()
    BaggedForest(n_trees=4, seed=1).fit(X, y, workers=1)
    assert list(parallel.map(lambda i: i, [5], 4)) == [5]


@pytest.mark.parametrize("seed", [0, 1])
def test_forest_same_at_any_worker_count(seed):
    X, y = _problem(seed)
    forests = [BaggedForest(n_trees=7, max_depth=None, seed=seed).fit(
        X, y, workers=workers) for workers in (1, 2, 3)]
    for other in forests[1:]:
        assert np.array_equal(other.feature_importances_,
                              forests[0].feature_importances_)
        for got, want in zip(other.trees, forests[0].trees, strict=True):
            for name in _TREE_ARRAYS:
                assert np.array_equal(getattr(got, name),
                                      getattr(want, name)), name
            assert np.array_equal(importances(got), importances(want))


def test_wide_forest_tree_pickles_small():
    # a tree comes back from a pool child pickled: its size must follow
    # its splits, not the width of the matrix it was grown on
    rng = np.random.default_rng(4)
    n, d = 40, 20_000
    X = rng.integers(0, 3, size=(n, d)).astype(float)
    y = (X[:, 7] + rng.integers(0, 2, size=n) > 1).astype(float)
    forest = BaggedForest(n_trees=2, max_depth=4, seed=0).fit(
        rank_columns(X), y, workers=2)
    for tree in forest.trees:
        assert (tree.feature != -1).any()
        assert len(importances(tree)) == d
        assert len(pickle.dumps(tree)) < 8 * d // 20


def test_rank_codes_same_at_any_worker_count(monkeypatch):
    X, _ = _problem(2, n=300, d=150)
    X[:, ::7] = np.random.default_rng(2).normal(size=(300, 22))  # wide codes
    monkeypatch.setattr(matrix, "_BLOCK_VALUES", 300 * 64)  # blocks of 64
    assert matrix.column_blocks(300, 150) == [(0, 64), (64, 128), (128, 150)]
    ranks = [rank_columns(X, workers) for workers in (1, 2, 3)]
    monkeypatch.undo()
    ranks.append(rank_columns(X))  # one block
    assert ranks[0].narrow.shape == (128, 300)
    assert ranks[0].wide.shape == (22, 300)
    for other in ranks:
        assert_ranks_of(other, X)
        for name in ("narrow", "wide", "at", "distinct"):
            got, want = getattr(other, name), getattr(ranks[0], name)
            assert got.dtype == want.dtype, name
            assert np.array_equal(got, want), name


def test_forest_in_pool_child_runs_serially():
    # a pool child is daemonic and may not start a pool of its own
    X, y = _problem(3)

    def importances(seed):
        forest = BaggedForest(n_trees=4, seed=seed).fit(X, y, workers=2)
        return forest.feature_importances_

    got = list(parallel.map(importances, [0, 1], 2))
    want = [BaggedForest(n_trees=4, seed=s).fit(X, y).feature_importances_
            for s in (0, 1)]
    assert all(np.array_equal(g, w) for g, w in zip(got, want))


def test_select_and_train_write_same_files_at_any_worker_count(tmp_path):
    base = tmp_path / "base"
    for stage in ("generate", "featurize"):
        assert main([stage, "--config", SMALL_CFG, "--out", str(base)]) == 0
    outs = []
    for workers in (1, 2, 3):
        out = tmp_path / f"w{workers}"
        shutil.copytree(base, out)
        for stage in ("select", "train"):
            assert main([stage, "--config", SMALL_CFG, "--out", str(out),
                         "--workers", str(workers)]) == 0
        outs.append(out)
    names = sorted(p.name for p in outs[0].iterdir())
    assert "manifest_train.json" in names and "model_adaboost.cfmd" in names
    for out in outs[1:]:
        assert sorted(p.name for p in out.iterdir()) == names
        for name in names:
            assert (out / name).read_bytes() == \
                (outs[0] / name).read_bytes(), name


def _cpus():
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


@pytest.mark.skipif(_cpus() < 2, reason="two BLAS threads need two CPUs")
def test_blas_thread_count_leaves_products_unchanged():
    # a BLAS product split over threads sums in another order; importing
    # churnforge pins one thread whatever the environment asks for
    probe = ("import hashlib, churnforge, numpy as np\n"
             "rng = np.random.default_rng(0)\n"
             "X, y = rng.random((400, 18_149)), rng.random(400)\n"
             "print(hashlib.sha256((y @ X).tobytes()).hexdigest())\n")
    digests = set()
    for threads in ("1", "2"):
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"),
                   OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads,
                   MKL_NUM_THREADS=threads)
        digests.add(subprocess.run([sys.executable, "-c", probe], env=env,
                                   capture_output=True, text=True,
                                   check=True).stdout)
    assert len(digests) == 1
