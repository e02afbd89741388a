import datetime
import os
import tempfile

import numpy as np
import pytest

from churnforge.cdr import (ALTER_CLASS_TOKENS, CSV_HEADER, DIRECTION_TOKENS,
                            KIND_TOKENS, SECONDS_PER_DAY, StudyWindow, ingest)

WINDOW = StudyWindow(datetime.date(2024, 1, 1), 183, 4, 2)


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


@pytest.fixture(scope="session")
def random_store():
    return make_store(n_subscribers=10, seed=3, max_events=80)


ACCEPTANCE_VERDICTS: list[str] = []


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_VERDICTS:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_VERDICTS:
            terminalreporter.write_line(line)
