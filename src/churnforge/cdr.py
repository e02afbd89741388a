"""Call detail record model and CSV ingestion.

A dataset is a CDR CSV (one call or SMS event per line) plus a small
key=value header sidecar declaring the study window. All events are held
as one set of numpy column arrays sorted by subscriber (ego), so the
feature engine works on blocks of subscribers without touching Python
objects per record.

Day arithmetic is timezone-free: day index = (timestamp - window start)
// 86400 with the window start pinned to 00:00 UTC of ``start_day``.
"""

from __future__ import annotations

import calendar
import csv
import datetime
from dataclasses import dataclass

import numpy as np

SECONDS_PER_DAY = 86400

KIND_TOKENS = ("CALL", "SMS")
DIRECTION_TOKENS = ("IN", "OUT")
ALTER_CLASS_TOKENS = (
    "ONNET",
    "COMPETITOR",
    "INTERNATIONAL",
    "INFO_PORTAL",
    "MOBILE_MONEY",
    "OTHER",
)

KIND_CALL, KIND_SMS = 0, 1
DIR_IN, DIR_OUT = 0, 1

_KIND_CODE = {t: i for i, t in enumerate(KIND_TOKENS)}
_DIR_CODE = {t: i for i, t in enumerate(DIRECTION_TOKENS)}
_ALTER_CLASS_CODE = {t: i for i, t in enumerate(ALTER_CLASS_TOKENS)}

CSV_HEADER = "ego_id,alter_id,timestamp,kind,direction,duration_s,alter_class"

_MAX_DURATION_S = 2 ** 31 - 1  # RecordStore.duration_s is int32


class CdrFormatError(Exception):
    """Raised when a file or header sidecar is structurally unusable."""


def _month_lengths(n_months: int) -> list[int]:
    # Fixed 31/30 alternation starting at 31; independent of real calendar.
    return [31 if i % 2 == 0 else 30 for i in range(n_months)]


@dataclass(frozen=True)
class StudyWindow:
    """Observation window split into fixed 31/30-day month tiles."""

    start_day: datetime.date
    total_days: int
    train_months: int = 4
    eval_months: int = 2

    def __post_init__(self):
        if self.train_months < 1:
            raise ValueError("train_months must be >= 1")
        if self.eval_months < 1:
            raise ValueError("eval_months must be >= 1")
        lengths = _month_lengths(self.train_months + self.eval_months)
        if sum(lengths) != self.total_days:
            raise ValueError(
                f"total_days={self.total_days} does not tile into "
                f"{self.train_months + self.eval_months} months of {lengths}"
            )

    @property
    def start_epoch(self) -> int:
        return calendar.timegm(self.start_day.timetuple())

    @property
    def month_ranges(self) -> list[tuple[int, int]]:
        """Half-open [start, end) day ranges, one per month tile."""
        ranges = []
        day = 0
        for length in _month_lengths(self.train_months + self.eval_months):
            ranges.append((day, day + length))
            day += length
        return ranges

    @property
    def train_days(self) -> int:
        return self.month_ranges[self.train_months - 1][1]


@dataclass(frozen=True)
class RejectedRow:
    line_no: int
    reason: str


@dataclass(frozen=True, eq=False)
class RecordStore:
    """Every accepted event as one set of column arrays.

    Rows are sorted by (ego, timestamp, file line). Subscriber ``i``,
    ``ego_ids[i]`` in lexicographic order, owns rows
    ``offsets[i]:offsets[i + 1]``. ``alter`` codes each counterparty by
    its first appearance in the file.
    """

    window: StudyWindow
    ego_ids: list[str]
    offsets: np.ndarray      # int64, len(ego_ids) + 1
    ts: np.ndarray           # int64
    kind: np.ndarray         # int8, KIND_TOKENS code
    direction: np.ndarray    # int8, DIRECTION_TOKENS code
    duration_s: np.ndarray   # int32
    alter_class: np.ndarray  # int8, ALTER_CLASS_TOKENS code
    alter: np.ndarray        # int32
    rejected: list[RejectedRow]

    @property
    def n_records(self) -> int:
        return len(self.ts)

    def __len__(self) -> int:
        return len(self.ego_ids)


def ingest(path: str, window: StudyWindow) -> RecordStore:
    """Parse a CDR CSV into a RecordStore.

    Well-formed rows are kept; malformed rows (bad enum token, negative
    or non-integer numerics, a duration beyond int32, timestamp outside
    the window, ego==alter, an ego id with a comma, quote or line break)
    are tallied with their line numbers on ``store.rejected`` instead of
    being silently dropped. A missing or headerless file is fatal.
    """
    try:
        fh = open(path, "r", newline="", encoding="utf-8")
    except OSError as exc:
        raise CdrFormatError(f"cannot read CDR file {path}: {exc}") from exc
    # egos and alters coded by first appearance; egos re-coded by rank below
    ego_code: dict[str, int] = {}
    alter_code: dict[str, int] = {}
    egos, alters, tss, kinds, dirs, durs, acs = ([] for _ in range(7))
    rejected: list[RejectedRow] = []
    with fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise CdrFormatError(f"{path}: empty file, expected CSV header")
        if [h.strip() for h in header] != CSV_HEADER.split(","):
            raise CdrFormatError(f"{path}: bad header {header!r}")
        lo_ts = window.start_epoch
        hi_ts = window.start_epoch + window.total_days * SECONDS_PER_DAY
        for line_no, row in enumerate(reader, start=2):
            if len(row) != 7:
                rejected.append(RejectedRow(line_no, "wrong field count"))
                continue
            ego, alter, ts_s, kind, direction, dur_s, ac = row
            try:
                ts = int(ts_s)
                dur = int(dur_s)
            except ValueError:
                rejected.append(RejectedRow(line_no, "non-integer numeric field"))
                continue
            reason = _validate_fast(ego, alter, ts, kind, direction, dur, ac,
                                    lo_ts, hi_ts)
            if reason is not None:
                rejected.append(RejectedRow(line_no, reason))
                continue
            egos.append(ego_code.setdefault(ego, len(ego_code)))
            alters.append(alter_code.setdefault(alter, len(alter_code)))
            tss.append(ts)
            kinds.append(_KIND_CODE[kind])
            dirs.append(_DIR_CODE[direction])
            durs.append(dur)
            acs.append(_ALTER_CLASS_CODE[ac])
    ego_ids = sorted(ego_code)
    rank = np.empty(len(ego_ids), dtype=np.int64)
    rank[[ego_code[e] for e in ego_ids]] = np.arange(len(ego_ids))
    ego = rank[np.array(egos, dtype=np.int64)]
    ts = np.array(tss, dtype=np.int64)
    order = np.lexsort((ts, ego))  # stable: equal times keep file order
    offsets = np.zeros(len(ego_ids) + 1, dtype=np.int64)
    np.cumsum(np.bincount(ego, minlength=len(ego_ids)), out=offsets[1:])
    kind, direction, duration_s, alter_class, alter = (
        np.array(c, dtype=t)[order] for c, t in zip(
            (kinds, dirs, durs, acs, alters),
            (np.int8, np.int8, np.int32, np.int8, np.int32)))
    return RecordStore(window, ego_ids, offsets, ts[order], kind, direction,
                       duration_s, alter_class, alter, rejected)


def _validate_fast(ego, alter, ts, kind, direction, dur, ac, lo_ts, hi_ts):
    if not ego or not alter:
        return "empty id"
    if "," in ego or '"' in ego or "\r" in ego or "\n" in ego:
        # labels.csv and the score files write ego ids unquoted
        return "ego_id contains a comma, quote or line break"
    if ego == alter:
        return "ego_id equals alter_id"
    if kind not in _KIND_CODE:
        return f"unknown kind {kind!r}"
    if direction not in _DIR_CODE:
        return f"unknown direction {direction!r}"
    if ac not in _ALTER_CLASS_CODE:
        return f"unknown alter_class {ac!r}"
    if dur < 0:
        return "negative duration_s"
    if dur > _MAX_DURATION_S:
        return "duration_s out of range"
    if kind == "SMS" and dur != 0:
        return "nonzero duration_s for SMS"
    if not (lo_ts <= ts < hi_ts):
        return "timestamp outside study window"
    return None


def write_header_sidecar(window: StudyWindow, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"start_day={window.start_day.isoformat()}\n")
        fh.write(f"total_days={window.total_days}\n")
        fh.write(f"train_months={window.train_months}\n")
        fh.write(f"eval_months={window.eval_months}\n")


def read_header_sidecar(path: str) -> StudyWindow:
    kv: dict[str, str] = {}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            for line in fh:
                line = line.strip()
                if not line or line.startswith("#"):
                    continue
                if "=" not in line:
                    raise CdrFormatError(f"{path}: bad header line {line!r}")
                k, v = line.split("=", 1)
                kv[k.strip()] = v.strip()
    except OSError as exc:
        raise CdrFormatError(f"cannot read header sidecar {path}: {exc}") from exc
    try:
        return StudyWindow(
            start_day=datetime.date.fromisoformat(kv["start_day"]),
            total_days=int(kv["total_days"]),
            train_months=int(kv["train_months"]),
            eval_months=int(kv["eval_months"]),
        )
    except (KeyError, ValueError) as exc:
        raise CdrFormatError(f"{path}: invalid header sidecar: {exc}") from exc
