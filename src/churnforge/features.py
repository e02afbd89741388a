"""Combinatoric behavioral feature tree and matrix computation.

A feature is a point on eight axes (what is measured, event kind,
direction, time of day, day type, counterparty class, month window,
statistic), with two extra families: per-window inactivity fractions
and ratios of one feature to another. Enumerating the axis product
under one pruning rule (monthly-trend statistics only make sense over
the full window) yields the feature vocabulary; the matrix is one row
per subscriber with those features evaluated over the training window.

A feature is its canonical name and has no other form: its eight axis
values joined by dots in AXIS_TABLE order (for example
``activity.sms.in.any.weekend.competitor.full.total``),
``inactivity.<window>``, or a ratio ``<numerator>/<denominator>`` of
two of those. ``enumerate_features`` returns names, and
``compute_matrix`` reads each name it is given into the place of its
value, so any ratio is computed on demand by naming it:
``compute_matrix(store, ["inactivity.m1/inactivity.full"], axes)``.

Values are computed over blocks of subscribers: events are binned into
an atomic (subscriber, kind, direction, time, day type, class, month)
count tensor, and every axis marginal (the ``any`` dimensions, kind
unions, window unions) is a reduction of that tensor, so cost does not
scale with the number of features. Degree works the same way on a 0/1
presence tensor per (subscriber, counterparty) pair: a pair is present
in a marginal cell iff it is present in any constituent atomic cell.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass

import numpy as np

from . import matrix as matrix_mod
from .cdr import KIND_SMS, SECONDS_PER_DAY, RecordStore

MEASURES = ("activity", "degree")
KINDS = ("call", "sms", "short_call", "any")
DIRECTIONS = ("in", "out", "any")
TIMES_OF_DAY = ("day", "night", "any")
DAY_TYPES = ("weekday", "weekend", "any")
ALTER_CLASSES = ("onnet", "competitor", "international", "info_portal",
                 "mobile_money", "other", "any")
WINDOWS = ("m1", "m2", "m3", "m4", "full")
STATISTICS = ("total", "per_active_day", "max_monthly_delta", "trend_slope")

FULL_ONLY_STATS = ("max_monthly_delta", "trend_slope")

# The eight axes of a base feature, in name order: the config key
# (``features.axes.<key>``), the AxesConfig field, and the allowed values.
AXIS_TABLE = (
    ("measure", "measures", MEASURES),
    ("kind", "kinds", KINDS),
    ("direction", "directions", DIRECTIONS),
    ("time_of_day", "times_of_day", TIMES_OF_DAY),
    ("day_type", "day_types", DAY_TYPES),
    ("alter_class", "alter_classes", ALTER_CLASSES),
    ("window", "windows", WINDOWS),
    ("statistic", "statistics", STATISTICS),
)


class ConfigError(ValueError):
    """Invalid axes, denominator, feature name, or window configuration."""


def _check_subset(name, values, allowed):
    values = tuple(values)
    if not values:
        raise ConfigError(
            f"features.axes.{name} must keep at least one dimension")
    for v in values:
        if v not in allowed:
            raise ConfigError(f"features.axes.{name}: unknown dimension {v!r}")
    if len(set(values)) != len(values):
        raise ConfigError(f"features.axes.{name}: duplicate dimensions")
    return values


@dataclass(frozen=True)
class AxesConfig:
    """Dimension lists for the eight axes plus slice parameters."""

    measures: tuple = MEASURES
    kinds: tuple = KINDS
    directions: tuple = DIRECTIONS
    times_of_day: tuple = TIMES_OF_DAY
    day_types: tuple = DAY_TYPES
    alter_classes: tuple = ALTER_CLASSES
    windows: tuple = WINDOWS
    statistics: tuple = STATISTICS
    short_call_threshold_s: int = 10
    day_hours: tuple = (8, 20)

    def __post_init__(self):
        for key, field, allowed in AXIS_TABLE:
            object.__setattr__(self, field, _check_subset(
                key, getattr(self, field), allowed))
        lo, hi = self.day_hours
        if not (0 <= lo < hi <= 24):
            raise ConfigError(
                f"features.day_start_hour={lo} and features.day_end_hour={hi} "
                f"must satisfy 0 <= start < end <= 24")


def enumerate_features(config: AxesConfig,
                       denominators: tuple[str, ...] = ()) -> list[str]:
    """Deterministic, ordered feature vocabulary of canonical names.

    Order: the pruned axis product (statistic varies fastest), then the
    five inactivity windows, then ratios (for each numerator in
    enumeration order, the denominators in the given order, self-ratios
    skipped). Denominators must name members of the base enumeration.
    """
    bases = [".".join(p) for p in itertools.product(
                 *(getattr(config, field) for _, field, _ in AXIS_TABLE))
             if p[7] not in FULL_ONLY_STATS or p[6] == "full"]
    bases.extend(f"inactivity.{w}" for w in WINDOWS)
    known = set(bases)
    for i, name in enumerate(denominators):
        if name not in known:
            raise ConfigError(f"unknown denominator feature {name!r}")
        if name in denominators[:i]:
            raise ConfigError(f"duplicate denominator {name!r}")
    return bases + [f"{num}/{den}" for num in bases for den in denominators
                    if num != den]


# ---------------------------------------------------------------------------
# Matrix computation
# ---------------------------------------------------------------------------

_KIND_GROUPS = [[0, 1], [2], [1], [0, 1, 2]]   # call, sms, short_call, any
_BIN_GROUPS = [[0], [1], [0, 1]]               # x, y, any
_AC_GROUPS = [[0], [1], [2], [3], [4], [5], [0, 1, 2, 3, 4, 5]]

# Subscribers whose source values ``_block_sources`` computes at once.
# Its scratch grows with the block: a subscriber's source values are as
# many as the 18,149 features of the full vocabulary (145 KB), held as
# total and per-active-day planes, their concatenation and its gather,
# and the expanded degree presence holds 3,780 words of 8 bytes (four
# months) for each started 64 counterparties of each subscriber. At 8
# subscribers that stays below one 32-row chunk of the full vocabulary.
_BLOCK = 8
# Rows per chunk at least. Each chunk is one part of ``matrix.write``'s
# spill file, and every column block is read back from every part, so
# fewer rows per chunk mean more and smaller reads.
_CHUNK_ROWS = 32


def _expand(arr: np.ndarray, axis: int, groups, op) -> np.ndarray:
    cells = np.moveaxis(arr, axis, 0)
    parts = [functools.reduce(op, [cells[i] for i in g]) for g in groups]
    return np.stack(parts, axis=axis)


def _expand_all(arr: np.ndarray, lead: int, op=np.add) -> np.ndarray:
    """Expand the 5 filter axes (after ``lead`` leading axes) to marginals,
    combining the atomic cells of a marginal with ``op``."""
    arr = _expand(arr, lead + 0, _KIND_GROUPS, op)
    arr = _expand(arr, lead + 1, _BIN_GROUPS, op)
    arr = _expand(arr, lead + 2, _BIN_GROUPS, op)
    arr = _expand(arr, lead + 3, _BIN_GROUPS, op)
    arr = _expand(arr, lead + 4, _AC_GROUPS, op)
    return arr


@dataclass
class _Plan:
    """Gather plan mapping feature list positions to source values.

    Every operand is an absolute index into a subscriber's source
    values: the concatenation of the raveled planes in _SOURCE_ORDER.
    A block of rows fills with one gather for the base features and two
    for the ratios, however many ratios are configured.
    """

    n_months: int
    month_starts: np.ndarray
    month_lengths: np.ndarray
    range_lo: int
    range_hi: int
    short_threshold: int
    day_lo: int
    day_hi: int
    start_weekday: int
    base_out: np.ndarray
    base_src: np.ndarray
    ratio_out: np.ndarray
    ratio_num: np.ndarray
    ratio_den: np.ndarray
    n_cols: int


_SOURCE_ORDER = ("total", "pad", "delta", "slope", "inact")


def _source_sizes(n_months: int) -> dict:
    filt = int(np.prod(_PLANE_SHAPE_FILT))
    return {"total": 2 * filt * (n_months + 1),
            "pad": 2 * filt * (n_months + 1),
            "delta": 2 * filt,
            "slope": 2 * filt,
            "inact": n_months + 1}


_PLANE_SHAPE_FILT = (4, 3, 3, 3, 7)


def _filter_offsets() -> dict:
    """The C-order offset in a plane of each combination of the six
    filter axes, by its dotted name (``itertools.product`` varies the
    last axis fastest)."""
    return {".".join(p): off for off, p in enumerate(
        itertools.product(*(allowed for _, _, allowed in AXIS_TABLE[:6])))}


def _axis_position(axis: int, value: str) -> int:
    key, _, allowed = AXIS_TABLE[axis]
    try:
        return allowed.index(value)
    except ValueError:
        raise ConfigError(f"{key}: unknown dimension {value!r}") from None


def _window_index(window: str, n_months: int) -> int:
    """Position of ``window`` on the last axis of the total planes."""
    w = _axis_position(6, window)
    if window == "full":
        return n_months
    if w >= n_months:
        raise ConfigError(
            f"window {window!r} lies outside the {n_months} training months")
    return w


def _base_index(name: str, n_months: int, start: dict,
                offsets: dict) -> int:
    """Index of the base feature ``name`` among a subscriber's source
    values; ``start`` maps each plane of _SOURCE_ORDER to its first, and
    ``offsets`` is ``_filter_offsets()``."""
    parts = name.split(".")
    if len(parts) == 2 and parts[0] == "inactivity":
        return start["inact"] + _window_index(parts[1], n_months)
    if len(parts) != len(AXIS_TABLE):
        raise ConfigError(f"expected {len(AXIS_TABLE)} dot-separated parts "
                          f"or inactivity.<window>, got {len(parts)}")
    off = offsets.get(".".join(parts[:6]))
    if off is None:  # raise naming the first part that is not a dimension
        for axis, part in enumerate(parts[:6]):
            _axis_position(axis, part)
    window, statistic = parts[6], parts[7]
    _axis_position(6, window)
    stat = _axis_position(7, statistic)
    if statistic in FULL_ONLY_STATS and window != "full":
        raise ConfigError(f"statistic {statistic} requires window 'full', "
                          f"got {window!r}")
    # _SOURCE_ORDER has one plane per statistic, in STATISTICS order
    plane = start[_SOURCE_ORDER[stat]]
    if statistic in FULL_ONLY_STATS:
        return plane + off
    return plane + off * (n_months + 1) + _window_index(window, n_months)


def _build_plan(names, window, train_range, axes: AxesConfig) -> _Plan:
    lo, hi = train_range
    tiles = window.month_ranges
    starts = [t[0] for t in tiles]
    ends = [t[1] for t in tiles]
    if lo not in starts or hi not in ends:
        raise ConfigError(
            f"train range {train_range} must align with month tiles {tiles}")
    first = starts.index(lo)
    last = ends.index(hi)
    if hi > window.train_days:
        raise ConfigError(
            f"train range {train_range} extends past the training window")
    months = tiles[first:last + 1]
    n_months = len(months)

    sizes = _source_sizes(n_months)
    start = {}
    base = 0
    for src in _SOURCE_ORDER:
        start[src] = base
        base += sizes[src]

    index = {}  # of each base feature read so far; ratios repeat them
    offsets = _filter_offsets()

    def source_index(part):
        if part not in index:
            index[part] = _base_index(part, n_months, start, offsets)
        return index[part]

    # a feature is a base feature or a ratio <numerator>/<denominator>
    base_out, base_src = [], []
    ratio_out, ratio_num, ratio_den = [], [], []
    for pos, name in enumerate(names):
        parts = name.split("/")
        try:
            if len(parts) > 2:
                raise ConfigError("a ratio's parts cannot hold '/'")
            if len(parts) == 2 and parts[0] == parts[1]:
                raise ConfigError("ratio of a feature to itself")
            src = [source_index(part) for part in parts]
        except ConfigError as exc:
            raise ConfigError(f"feature {name!r}: {exc}") from None
        if len(src) == 1:
            base_out.append(pos)
            base_src.append(src[0])
        else:
            ratio_out.append(pos)
            ratio_num.append(src[0])
            ratio_den.append(src[1])

    def ints(values):
        return np.asarray(values, dtype=np.int64)

    return _Plan(
        n_months=n_months,
        month_starts=ints([m[0] for m in months]),
        month_lengths=ints([m[1] - m[0] for m in months]),
        range_lo=lo,
        range_hi=hi,
        short_threshold=axes.short_call_threshold_s,
        day_lo=axes.day_hours[0],
        day_hi=axes.day_hours[1],
        start_weekday=window.start_day.weekday(),
        base_out=ints(base_out),
        base_src=ints(base_src),
        ratio_out=ints(ratio_out),
        ratio_num=ints(ratio_num),
        ratio_den=ints(ratio_den),
        n_cols=len(names),
    )


def _block_sources(store: RecordStore, b0: int, b1: int,
                   plan: _Plan) -> np.ndarray:
    """Source values of subscribers ``b0:b1``, one row per subscriber."""
    T = plan.n_months
    B = b1 - b0
    rows = slice(store.offsets[b0], store.offsets[b1])
    seconds = store.ts[rows] - store.window.start_epoch
    days = seconds // SECONDS_PER_DAY
    mask = (days >= plan.range_lo) & (days < plan.range_hi)
    ego = np.repeat(np.arange(B), np.diff(store.offsets[b0:b1 + 1]))
    ego, seconds, days, kind, dur, direction, ac, alter = (
        col[mask] for col in (ego, seconds, days, store.kind[rows],
                              store.duration_s[rows], store.direction[rows],
                              store.alter_class[rows], store.alter[rows]))
    hour = (seconds % SECONDS_PER_DAY) // 3600
    kind3 = np.where(kind == KIND_SMS, 2,
                     np.where(dur < plan.short_threshold, 1, 0))
    dir2 = direction.astype(np.int64)
    tod2 = np.where((hour >= plan.day_lo) & (hour < plan.day_hi), 0, 1)
    dow = (plan.start_weekday + days) % 7
    dt2 = np.where(dow >= 5, 1, 0)
    ac6 = ac.astype(np.int64)
    month = np.searchsorted(plan.month_starts, days, side="right") - 1

    # atomic cells; the full window is one more month, so each event
    # falls in the cell of its month and in that of the full window
    atomic_shape = (3, 2, 2, 2, 6, T + 1)
    cells = int(np.prod(atomic_shape))
    cell = np.ravel_multi_index((kind3, dir2, tod2, dt2, ac6, month),
                                atomic_shape)
    full = cell - month + T
    total = np.empty((B, 2) + _PLANE_SHAPE_FILT + (T + 1,))
    atomic = (np.bincount(ego * cells + cell, minlength=B * cells)
              + np.bincount(ego * cells + full, minlength=B * cells))
    total[:, 0] = _expand_all(
        atomic.reshape((B,) + atomic_shape).astype(float), lead=1)

    # degree: one presence bit per (subscriber, counterparty) pair and
    # atomic cell. Each subscriber's pairs fill a run of words of its own
    # (at least one word), so the words follow the block's pair count. A
    # pair is present in a marginal cell iff in any of its atomic cells,
    # and the degree counts the pairs present.
    pairs, pair_of = np.unique((ego << 32) | alter, return_inverse=True)
    pair_ego = pairs >> 32
    slot = np.arange(len(pairs)) - np.searchsorted(pair_ego, pair_ego)
    n_words = (np.bincount(pair_ego, minlength=B) + 63) // 64
    first_word = np.zeros(B + 1, dtype=np.int64)
    np.cumsum(np.maximum(n_words, 1), out=first_word[1:])
    word = (first_word[pair_ego] + slot // 64)[pair_of]
    bit = (np.uint64(1) << (slot % 64).astype(np.uint64))[pair_of]
    bits = np.zeros((first_word[B], cells), dtype=np.uint64)
    np.bitwise_or.at(bits, (word, cell), bit)
    np.bitwise_or.at(bits, (word, full), bit)
    presx = _expand_all(bits.reshape((-1,) + atomic_shape), lead=1,
                        op=np.bitwise_or)
    total[:, 1] = np.add.reduceat(np.bitwise_count(presx), first_word[:B],
                                  axis=0, dtype=np.int32)

    span = plan.range_hi - plan.range_lo
    ego_day = np.unique(ego * span + (days - plan.range_lo))
    day_ego = ego_day // span
    day_month = np.searchsorted(plan.month_starts,
                                ego_day % span + plan.range_lo,
                                side="right") - 1
    active_win = np.empty((B, T + 1))
    active_win[:, :T] = np.bincount(day_ego * T + day_month,
                                    minlength=B * T).reshape(B, T)
    active_win[:, T] = np.bincount(day_ego, minlength=B)
    per_day = active_win.reshape((B,) + (1,) * (total.ndim - 2) + (T + 1,))
    pad = np.divide(total, per_day, out=np.zeros_like(total),
                    where=per_day > 0)

    monthly = total[..., :T]
    if T > 1:
        # month by month: np.abs(np.diff(monthly)).max(-1) gives the same
        # values, but a max over the short last axis is 12x slower here
        delta = np.abs(monthly[..., 1] - monthly[..., 0])
        for t in range(2, T):
            np.maximum(delta, np.abs(monthly[..., t] - monthly[..., t - 1]),
                       out=delta)
        x = np.arange(1, T + 1, dtype=float)
        w = (x - x.mean()) / ((x - x.mean()) ** 2).sum()
        slope = monthly @ w
    else:
        delta = slope = np.zeros(total.shape[:-1])

    win_len = np.append(plan.month_lengths, plan.month_lengths.sum())
    inact = 1.0 - active_win / win_len
    return np.concatenate([p.reshape(B, -1) for p in
                           (total, pad, delta, slope, inact)], axis=1)


def row_chunks(store: RecordStore, names: list[str], axes: AxesConfig,
               train_range: tuple[int, int] | None = None):
    """The rows of ``compute_matrix``, yielded in order as chunks of
    ``_CHUNK_ROWS`` rows, or of the most multiples of it that fit in
    ``matrix._BLOCK_VALUES`` cells where that is more (up to 2,048
    features); the last chunk holds the rows left.

    Each chunk is a Fortran-ordered (rows, features) array, so its
    transpose is the chunk's rows column-major. It is filled ``_BLOCK``
    subscribers at a time, in the leading rows of one buffer that the
    next chunk overwrites. The plan is built (and a bad name raises)
    when the first chunk is asked for.
    """
    if train_range is None:
        train_range = (0, store.window.train_days)
    plan = _build_plan(names, store.window, train_range, axes)
    n = len(store)
    step = max(_CHUNK_ROWS, matrix_mod._BLOCK_VALUES // max(plan.n_cols, 1)
               // _CHUNK_ROWS * _CHUNK_ROWS)
    buf = np.empty(min(step, n) * plan.n_cols)
    for r0 in range(0, n, step):
        k = min(step, n - r0)
        chunk = buf[:k * plan.n_cols].reshape((k, plan.n_cols), order="F")
        for b0 in range(0, len(chunk), _BLOCK):
            rows = chunk[b0:b0 + _BLOCK]  # a view: written in place
            src = _block_sources(store, r0 + b0, r0 + b0 + len(rows), plan)
            rows[:, plan.base_out] = np.take(src, plan.base_src, axis=1)
            num = np.take(src, plan.ratio_num, axis=1)
            den = np.take(src, plan.ratio_den, axis=1)
            with np.errstate(invalid="ignore", divide="ignore"):
                rows[:, plan.ratio_out] = np.where(den != 0, num / den, 0.0)
            del src, num, den  # before the next block's scratch
        yield chunk


def compute_matrix(store: RecordStore, names: list[str], axes: AxesConfig,
                   train_range: tuple[int, int] | None = None):
    """Dense subscribers x features matrix over the training window.

    ``names`` are canonical feature names, in column order: any base
    feature, ``inactivity.<window>``, or a ratio ``<num>/<den>`` of two
    of those; a name that is not a feature raises ConfigError naming it.
    Every subscriber gets a row, including fully inactive ones (count
    features 0, inactivity 1.0, ratios 0). Rows are computed over blocks
    of subscribers; a row does not depend on the other subscribers of
    its block. This is ``row_chunks`` held whole; ``featurize`` streams
    the chunks to ``matrix.write`` instead.
    """
    values = np.empty((len(store), len(names)), order="F")
    r0 = 0
    for chunk in row_chunks(store, names, axes, train_range):
        values[r0:r0 + len(chunk)] = chunk
        r0 += len(chunk)
    return matrix_mod.FeatureMatrix(ego_ids=list(store.ego_ids),
                                    feature_names=list(names), values=values)
