"""Combinatoric behavioral feature tree and matrix computation.

A feature is a point on eight axes (what is measured, event kind,
direction, time of day, day type, counterparty class, month window,
statistic), with two extra families: per-window inactivity fractions
and ratios of one feature to another. Enumerating the axis product
under one pruning rule (monthly-trend statistics only make sense over
the full window) yields the feature vocabulary; the matrix is one row
per subscriber with those features evaluated over the training window.

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
from dataclasses import dataclass
from typing import Union

import numpy as np

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

# Denominators used for the ratio family unless configured otherwise.
DEFAULT_DENOMINATORS = (
    "activity.call.in.any.any.any.full.total",
    "activity.call.out.any.any.any.full.total",
    "degree.call.any.any.any.any.full.total",
    "degree.sms.any.any.any.any.full.total",
    "degree.any.in.any.any.any.full.total",
    "inactivity.full",
)


class ConfigError(ValueError):
    """Invalid axes, denominator, or window configuration."""


def _check_subset(name, values, allowed):
    values = tuple(values)
    if not values:
        raise ConfigError(f"axis {name} must keep at least one dimension")
    for v in values:
        if v not in allowed:
            raise ConfigError(f"axis {name}: unknown dimension {v!r}")
    if len(set(values)) != len(values):
        raise ConfigError(f"axis {name}: duplicate dimensions")
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
        object.__setattr__(self, "measures",
                           _check_subset("measure", self.measures, MEASURES))
        object.__setattr__(self, "kinds",
                           _check_subset("kind", self.kinds, KINDS))
        object.__setattr__(self, "directions",
                           _check_subset("direction", self.directions, DIRECTIONS))
        object.__setattr__(self, "times_of_day",
                           _check_subset("time_of_day", self.times_of_day, TIMES_OF_DAY))
        object.__setattr__(self, "day_types",
                           _check_subset("day_type", self.day_types, DAY_TYPES))
        object.__setattr__(self, "alter_classes",
                           _check_subset("alter_class", self.alter_classes, ALTER_CLASSES))
        object.__setattr__(self, "windows",
                           _check_subset("window", self.windows, WINDOWS))
        object.__setattr__(self, "statistics",
                           _check_subset("statistic", self.statistics, STATISTICS))
        if self.short_call_threshold_s < 1:
            raise ConfigError("short_call_threshold_s must be >= 1")
        lo, hi = self.day_hours
        if not (0 <= lo < hi <= 24):
            raise ConfigError(f"day_hours {self.day_hours} must satisfy 0 <= lo < hi <= 24")


@dataclass(frozen=True)
class FeatureSpec:
    """One point of the eight-axis tree."""

    measure: str
    kind: str
    direction: str
    time_of_day: str
    day_type: str
    alter_class: str
    window: str
    statistic: str

    def __post_init__(self):
        for value, allowed, axis in (
                (self.measure, MEASURES, "measure"),
                (self.kind, KINDS, "kind"),
                (self.direction, DIRECTIONS, "direction"),
                (self.time_of_day, TIMES_OF_DAY, "time_of_day"),
                (self.day_type, DAY_TYPES, "day_type"),
                (self.alter_class, ALTER_CLASSES, "alter_class"),
                (self.window, WINDOWS, "window"),
                (self.statistic, STATISTICS, "statistic")):
            if value not in allowed:
                raise ConfigError(f"{axis}: unknown dimension {value!r}")
        if self.statistic in FULL_ONLY_STATS and self.window != "full":
            raise ConfigError(
                f"statistic {self.statistic} requires window 'full', "
                f"got {self.window!r}")

    @property
    def canonical_name(self) -> str:
        return ".".join((self.measure, self.kind, self.direction,
                         self.time_of_day, self.day_type, self.alter_class,
                         self.window, self.statistic))


@dataclass(frozen=True)
class InactivitySpec:
    """Fraction of days in the window with zero events of any type."""

    window: str

    def __post_init__(self):
        if self.window not in WINDOWS:
            raise ConfigError(f"window: unknown dimension {self.window!r}")

    @property
    def canonical_name(self) -> str:
        return f"inactivity.{self.window}"


BaseLike = Union[FeatureSpec, InactivitySpec]


@dataclass(frozen=True)
class RatioSpec:
    numerator: BaseLike
    denominator: BaseLike

    def __post_init__(self):
        if self.numerator == self.denominator:
            raise ConfigError(
                f"ratio of {self.numerator.canonical_name} to itself")

    @property
    def canonical_name(self) -> str:
        return f"{self.numerator.canonical_name}/{self.denominator.canonical_name}"


AnySpec = Union[FeatureSpec, InactivitySpec, RatioSpec]


def parse_feature_name(name: str) -> AnySpec:
    """Inverse of canonical_name. Raises ConfigError on unknown names."""
    if "/" in name:
        num_s, _, den_s = name.partition("/")
        if "/" in den_s:
            raise ConfigError(f"bad feature name {name!r}")
        return RatioSpec(parse_feature_name(num_s), parse_feature_name(den_s))
    parts = name.split(".")
    if len(parts) == 2 and parts[0] == "inactivity":
        return InactivitySpec(parts[1])
    if len(parts) != 8:
        raise ConfigError(f"bad feature name {name!r}")
    return FeatureSpec(*parts)


def enumerate_features(config: AxesConfig,
                       denominators: tuple[str, ...] = ()) -> list[AnySpec]:
    """Deterministic, ordered feature vocabulary.

    Order: the pruned axis product (statistic varies fastest), then the
    five inactivity windows, then ratios (numerators in enumeration
    order within each denominator taken in the given order, self-ratios
    skipped). Denominators must name members of the base enumeration.
    """
    bases: list[BaseLike] = []
    for m in config.measures:
        for k in config.kinds:
            for d in config.directions:
                for t in config.times_of_day:
                    for y in config.day_types:
                        for a in config.alter_classes:
                            for w in config.windows:
                                for s in config.statistics:
                                    if s in FULL_ONLY_STATS and w != "full":
                                        continue
                                    bases.append(FeatureSpec(m, k, d, t, y, a, w, s))
    bases.extend(InactivitySpec(w) for w in WINDOWS)
    by_name = {b.canonical_name: b for b in bases}
    den_specs = []
    for name in denominators:
        if name not in by_name:
            raise ConfigError(f"unknown denominator feature {name!r}")
        if by_name[name] in den_specs:
            raise ConfigError(f"duplicate denominator {name!r}")
        den_specs.append(by_name[name])
    specs: list[AnySpec] = list(bases)
    for num in bases:
        for den in den_specs:
            if num != den:
                specs.append(RatioSpec(num, den))
    return specs


# ---------------------------------------------------------------------------
# Matrix computation
# ---------------------------------------------------------------------------

_KIND_GROUPS = [[0, 1], [2], [1], [0, 1, 2]]   # call, sms, short_call, any
_BIN_GROUPS = [[0], [1], [0, 1]]               # x, y, any
_AC_GROUPS = [[0], [1], [2], [3], [4], [5], [0, 1, 2, 3, 4, 5]]

# Subscribers per block of compute_matrix. Expanded, a block's degree
# presence holds 3,780 words of 8 bytes (four months) for each started
# 64 counterparties of each of its subscribers.
_BLOCK = 32


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
    """Gather plan mapping spec list positions to source values.

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


def _window_index(window: str, n_months: int) -> int:
    if window == "full":
        return n_months
    idx = int(window[1:]) - 1
    if idx >= n_months:
        raise ConfigError(
            f"window {window!r} lies outside the {n_months} training months")
    return idx


def _spec_source_offset(spec: BaseLike, n_months: int):
    """(plane name, flat offset) of one base-family value."""
    if isinstance(spec, InactivitySpec):
        return "inact", _window_index(spec.window, n_months)
    m = MEASURES.index(spec.measure)
    k = KINDS.index(spec.kind)
    d = DIRECTIONS.index(spec.direction)
    t = TIMES_OF_DAY.index(spec.time_of_day)
    y = DAY_TYPES.index(spec.day_type)
    a = ALTER_CLASSES.index(spec.alter_class)
    off = 0  # the C-order offset of (m, k, d, t, y, a) in its plane
    for i, n in zip((m, k, d, t, y, a), (2,) + _PLANE_SHAPE_FILT):
        off = off * n + i
    w = _window_index(spec.window, n_months)  # validates the window
    if spec.statistic in ("total", "per_active_day"):
        off = off * (n_months + 1) + w
        return ("total" if spec.statistic == "total" else "pad"), off
    return ("delta" if spec.statistic == "max_monthly_delta" else "slope"), off


def _build_plan(specs, window, train_range, axes: AxesConfig) -> _Plan:
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
    bases = {}
    base = 0
    for src in _SOURCE_ORDER:
        bases[src] = base
        base += sizes[src]

    def source_index(spec):
        src, off = _spec_source_offset(spec, n_months)
        return bases[src] + off

    base_out, base_src = [], []
    ratio_out, ratio_num, ratio_den = [], [], []
    for pos, spec in enumerate(specs):
        if isinstance(spec, RatioSpec):
            ratio_out.append(pos)
            ratio_num.append(source_index(spec.numerator))
            ratio_den.append(source_index(spec.denominator))
        else:
            base_out.append(pos)
            base_src.append(source_index(spec))

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
        n_cols=len(specs),
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


def compute_matrix(store: RecordStore, specs: list, axes: AxesConfig,
                   train_range: tuple[int, int] | None = None):
    """Dense subscribers x features matrix over the training window.

    Every subscriber gets a row, including fully inactive ones (count
    features 0, inactivity 1.0, ratios 0). Rows are computed over blocks
    of subscribers; a row does not depend on the other subscribers of
    its block. The values are stored column-major, the layout of the
    binary matrix format.
    """
    from .matrix import FeatureMatrix

    if train_range is None:
        train_range = (0, store.window.train_days)
    plan = _build_plan(specs, store.window, train_range, axes)
    n = len(store)
    values = np.empty((n, plan.n_cols), order="F")
    for b0 in range(0, n, _BLOCK):
        b1 = min(b0 + _BLOCK, n)
        src = _block_sources(store, b0, b1, plan)
        values[b0:b1, plan.base_out] = np.take(src, plan.base_src, axis=1)
        num = np.take(src, plan.ratio_num, axis=1)
        den = np.take(src, plan.ratio_den, axis=1)
        with np.errstate(invalid="ignore", divide="ignore"):
            values[b0:b1, plan.ratio_out] = np.where(den != 0, num / den, 0.0)
    names = [s.canonical_name for s in specs]
    return FeatureMatrix(ego_ids=list(store.ego_ids), feature_names=names,
                         values=values)
