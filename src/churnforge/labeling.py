"""Train/eval window split and per-subscriber churn labels.

Two label variants per subscriber: a binary flag (no activity at all in
the evaluation window) and the fraction of evaluation days with no
activity. The binary flag is exactly the "fraction == 1.0" case.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import artifact
from .cdr import SECONDS_PER_DAY, RecordStore, StudyWindow


@dataclass
class LabelSet:
    ego_ids: list[str]
    churned: np.ndarray            # bool, aligned with ego_ids
    pct_inactive_eval: np.ndarray  # float in [0, 1]

    def __post_init__(self):
        self.churned = np.asarray(self.churned, dtype=bool)
        self.pct_inactive_eval = np.asarray(self.pct_inactive_eval, dtype=float)

    def __len__(self) -> int:
        return len(self.ego_ids)


def split_windows(window: StudyWindow) -> tuple[tuple[int, int], tuple[int, int]]:
    """Training and evaluation day ranges from the month tiling.

    Contiguous, disjoint, and exhaustive: train covers the first
    ``train_months`` tiles, eval the rest.
    """
    ranges = window.month_ranges
    train = (0, ranges[window.train_months - 1][1])
    ev = (train[1], ranges[-1][1])
    return train, ev


def compute_labels(store: RecordStore, eval_range: tuple[int, int]) -> LabelSet:
    """Label every subscriber in the store over ``eval_range``.

    churned is true iff the subscriber has zero events in the range;
    pct_inactive_eval counts distinct inactive days, so event
    multiplicity within a day does not matter.
    """
    lo, hi = eval_range
    n_days = hi - lo
    if n_days <= 0:
        raise ValueError(f"empty eval range {eval_range}")
    days = (store.ts - store.window.start_epoch) // SECONDS_PER_DAY
    ego = np.repeat(np.arange(len(store)), np.diff(store.offsets))
    in_eval = (days >= lo) & (days < hi)
    ego_day = np.unique(ego[in_eval] * n_days + (days[in_eval] - lo))
    active = np.bincount(ego_day // n_days, minlength=len(store))
    return LabelSet(list(store.ego_ids), active == 0,
                    (n_days - active) / n_days)


def write_labels(labels: LabelSet, path: str) -> str:
    rows = zip(labels.ego_ids, labels.churned, labels.pct_inactive_eval)
    return artifact.write_text(path, "ego_id,churned,pct_inactive_eval\n"
                               + "".join(f"{e},{int(c)},{float(p)!r}\n"
                                         for e, c, p in rows))


def read_labels(path: str) -> LabelSet:
    ego_ids, churned, pct = [], [], []
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().strip()
        if header != "ego_id,churned,pct_inactive_eval":
            raise ValueError(f"{path}: bad labels header {header!r}")
        for line_no, line in enumerate(fh, start=2):
            try:
                e, c, p = line.rstrip("\n").split(",")
                c, p = int(c), float(p)
                if c not in (0, 1):
                    raise ValueError(f"churned is {c}, not 0 or 1")
                if not 0.0 <= p <= 1.0:
                    raise ValueError(
                        f"pct_inactive_eval is {p!r}, not in [0, 1]")
                if (c == 1) != (p == 1.0):
                    raise ValueError(
                        f"churned is {c} but pct_inactive_eval is {p!r}: "
                        f"churned means an inactive fraction of 1.0")
            except ValueError as exc:
                raise ValueError(f"{path}: line {line_no}: bad labels row "
                                 f"{line.rstrip()!r}: {exc}") from None
            ego_ids.append(e)
            churned.append(c == 1)
            pct.append(p)
    return LabelSet(ego_ids, np.array(churned), np.array(pct))
