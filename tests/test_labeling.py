import datetime

import numpy as np
import pytest

from churnforge.cdr import SECONDS_PER_DAY, StudyWindow
from churnforge.labeling import (compute_labels, read_labels, split_windows,
                                 write_labels)
from conftest import WINDOW, ingest_rows, label_dict, make_store


def rows_on_days(ego, days, window=WINDOW, per_day=1):
    return [(ego, "AX", window.start_epoch + d * SECONDS_PER_DAY + 3600 + j,
             0, 1, 30, 0) for d in days for j in range(per_day)]


def test_split_windows_4_plus_2():
    # tiling 31+30+31+30 = 122 training days, remainder 61 eval days
    train, ev = split_windows(WINDOW)
    assert train == (0, 122)
    assert ev == (122, 183)
    assert (train[1] - train[0]) + (ev[1] - ev[0]) == WINDOW.total_days


def test_split_windows_other_shape():
    win = StudyWindow(datetime.date(2024, 1, 1), 92, 2, 1)
    assert split_windows(win) == ((0, 61), (61, 92))


def test_zero_eval_months_is_fatal_at_window_construction():
    with pytest.raises(ValueError):
        StudyWindow(datetime.date(2024, 1, 1), 122, 4, 0)


def test_label_examples():
    store = ingest_rows(
        rows_on_days("a_silent", [5, 50])                 # nothing in eval
        + rows_on_days("b_daily", list(range(122, 183)))  # every eval day
        + rows_on_days("c_half", list(range(122, 152))))  # 30 eval days
    labels = compute_labels(store, (122, 183))
    got = label_dict(labels)
    assert got["a_silent"] == (True, 1.0)
    assert got["b_daily"] == (False, 0.0)
    assert got["c_half"] == (False, 31 / 61)


def test_multiplicity_within_a_day_is_ignored():
    store_once = ingest_rows(rows_on_days("x", [130, 140]))
    store_many = ingest_rows(rows_on_days("x", [130, 140], per_day=7))
    a = compute_labels(store_once, (122, 183))
    b = compute_labels(store_many, (122, 183))
    assert a.pct_inactive_eval[0] == b.pct_inactive_eval[0]


def test_churned_iff_fraction_is_one():
    store = make_store(n_subscribers=20, seed=9)
    labels = compute_labels(store, split_windows(WINDOW)[1])
    assert np.array_equal(labels.churned, labels.pct_inactive_eval == 1.0)
    assert ((labels.pct_inactive_eval >= 0)
            & (labels.pct_inactive_eval <= 1)).all()
    assert len(labels) == len(store)  # every subscriber labeled


def test_empty_eval_range_rejected(random_store):
    with pytest.raises(ValueError):
        compute_labels(random_store, (130, 130))


def test_labels_csv_round_trip(tmp_path, random_store):
    labels = compute_labels(random_store, (122, 183))
    path = tmp_path / "labels.csv"
    write_labels(labels, str(path))
    again = read_labels(str(path))
    assert again.ego_ids == labels.ego_ids
    assert np.array_equal(again.churned, labels.churned)
    assert np.array_equal(again.pct_inactive_eval, labels.pct_inactive_eval)
