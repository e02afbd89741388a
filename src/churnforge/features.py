"""Combinatoric behavioral feature tree and matrix computation.

A feature is a point on eight axes (what is measured, event kind,
direction, time of day, day type, counterparty class, month window,
statistic), with two extra families: per-window inactivity fractions
and ratios of one feature to another. Enumerating the axis product
under one pruning rule (monthly-trend statistics only make sense over
the full window) yields the feature vocabulary; the matrix is one row
per subscriber with those features evaluated over the training window.

Values are computed in a single pass per subscriber: events are binned
into an atomic (kind, direction, time, day type, class, month) count
tensor, and every axis marginal (the ``any`` dimensions, kind unions,
window unions) is a reduction of that tensor, so cost does not scale
with the number of features. Degree works the same way on a 0/1
presence tensor per counterparty: a counterparty is present in a
marginal cell iff it is present in any constituent atomic cell.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

import numpy as np

from . import parallel
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


def count_features(config: AxesConfig, n_denominators: int = 0) -> int:
    """Closed-form size of enumerate_features output."""
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


# ---------------------------------------------------------------------------
# Matrix computation
# ---------------------------------------------------------------------------

_KIND_GROUPS = [[0, 1], [2], [1], [0, 1, 2]]   # call, sms, short_call, any
_BIN_GROUPS = [[0], [1], [0, 1]]               # x, y, any
_AC_GROUPS = [[0], [1], [2], [3], [4], [5], [0, 1, 2, 3, 4, 5]]


def _expand(arr: np.ndarray, axis: int, groups) -> np.ndarray:
    parts = [arr.take(g, axis=axis).sum(axis=axis) for g in groups]
    return np.stack(parts, axis=axis)


def _expand_all(arr: np.ndarray, lead: int) -> np.ndarray:
    """Expand the 5 filter axes (after ``lead`` leading axes) to marginals."""
    arr = _expand(arr, lead + 0, _KIND_GROUPS)
    arr = _expand(arr, lead + 1, _BIN_GROUPS)
    arr = _expand(arr, lead + 2, _BIN_GROUPS)
    arr = _expand(arr, lead + 3, _BIN_GROUPS)
    arr = _expand(arr, lead + 4, _AC_GROUPS)
    return arr


@dataclass
class _Plan:
    """Gather plan mapping spec list positions to plane offsets.

    Ratio operands are absolute indices into the concatenation of the
    raveled planes in _SOURCE_ORDER, so a row fills with a handful of
    vectorized gathers however many ratios are configured.
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
    # (positions, flat offsets) per source plane
    gathers: dict
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
    if spec.statistic in ("total", "per_active_day"):
        w = _window_index(spec.window, n_months)
        shape = (2,) + _PLANE_SHAPE_FILT + (n_months + 1,)
        off = int(np.ravel_multi_index((m, k, d, t, y, a, w), shape))
        return ("total" if spec.statistic == "total" else "pad"), off
    _window_index(spec.window, n_months)  # validates full-window presence
    shape = (2,) + _PLANE_SHAPE_FILT
    off = int(np.ravel_multi_index((m, k, d, t, y, a), shape))
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

    by_source: dict = {src: ([], []) for src in _SOURCE_ORDER}
    ratio_out, ratio_num, ratio_den = [], [], []
    for pos, spec in enumerate(specs):
        if isinstance(spec, RatioSpec):
            ratio_out.append(pos)
            for operand, acc in ((spec.numerator, ratio_num),
                                 (spec.denominator, ratio_den)):
                src, off = _spec_source_offset(operand, n_months)
                acc.append(bases[src] + off)
        else:
            src, off = _spec_source_offset(spec, n_months)
            by_source[src][0].append(pos)
            by_source[src][1].append(off)
    gathers = {src: (np.asarray(p, dtype=np.int64), np.asarray(o, dtype=np.int64))
               for src, (p, o) in by_source.items()}
    return _Plan(
        n_months=n_months,
        month_starts=np.array([m[0] for m in months], dtype=np.int64),
        month_lengths=np.array([m[1] - m[0] for m in months], dtype=np.int64),
        range_lo=lo,
        range_hi=hi,
        short_threshold=axes.short_call_threshold_s,
        day_lo=axes.day_hours[0],
        day_hi=axes.day_hours[1],
        start_weekday=window.start_day.weekday(),
        gathers=gathers,
        ratio_out=np.asarray(ratio_out, dtype=np.int64),
        ratio_num=np.asarray(ratio_num, dtype=np.int64),
        ratio_den=np.asarray(ratio_den, dtype=np.int64),
        n_cols=len(specs),
    )


def _subscriber_planes(sub, start_epoch: int, plan: _Plan) -> dict:
    T = plan.n_months
    days_all = (sub.ts - start_epoch) // SECONDS_PER_DAY
    mask = (days_all >= plan.range_lo) & (days_all < plan.range_hi)
    win_len = np.concatenate(
        [plan.month_lengths, [plan.month_lengths.sum()]]).astype(float)

    if not mask.any():
        zeros_tw = np.zeros((2,) + _PLANE_SHAPE_FILT + (T + 1,))
        zeros_f = np.zeros((2,) + _PLANE_SHAPE_FILT)
        return {"total": zeros_tw, "pad": zeros_tw, "delta": zeros_f,
                "slope": zeros_f, "inact": np.ones(T + 1)}

    days = days_all[mask]
    kind = sub.kind[mask]
    dur = sub.duration_s[mask]
    hour = ((sub.ts[mask] - start_epoch) % SECONDS_PER_DAY) // 3600
    kind3 = np.where(kind == KIND_SMS, 2,
                     np.where(dur < plan.short_threshold, 1, 0))
    dir2 = sub.direction[mask].astype(np.int64)
    tod2 = np.where((hour >= plan.day_lo) & (hour < plan.day_hi), 0, 1)
    dow = (plan.start_weekday + days) % 7
    dt2 = np.where(dow >= 5, 1, 0)
    ac6 = sub.alter_class[mask].astype(np.int64)
    month = np.searchsorted(plan.month_starts, days, side="right") - 1

    atomic_shape = (3, 2, 2, 2, 6, T)
    flat = np.ravel_multi_index((kind3, dir2, tod2, dt2, ac6, month),
                                atomic_shape)
    atomic = np.bincount(flat, minlength=3 * 2 * 2 * 2 * 6 * T)
    act = _expand_all(atomic.reshape(atomic_shape).astype(float), lead=0)
    act_win = np.concatenate([act, act.sum(axis=-1, keepdims=True)], axis=-1)

    alters = sub.alter_idx[mask].astype(np.int64)
    uniq_alt = np.unique(alters)
    n_alt = len(uniq_alt)
    local = np.searchsorted(uniq_alt, alters)
    cell = np.unique(local * atomic.size + flat)
    pres = np.zeros((n_alt, atomic.size))
    pres.ravel()[cell] = 1.0
    presx = _expand_all(pres.reshape((n_alt,) + atomic_shape), lead=1)
    deg_m = (presx > 0).sum(axis=0).astype(float)
    deg_full = (presx.sum(axis=-1) > 0).sum(axis=0).astype(float)
    deg = np.concatenate([deg_m, deg_full[..., None]], axis=-1)

    total = np.stack([act_win, deg])

    uniq_days = np.unique(days)
    day_month = np.searchsorted(plan.month_starts, uniq_days, side="right") - 1
    active = np.bincount(day_month, minlength=T).astype(float)
    active_win = np.concatenate([active, [float(len(uniq_days))]])
    with np.errstate(invalid="ignore", divide="ignore"):
        pad = np.where(active_win > 0, total / active_win, 0.0)

    monthly = total[..., :T]
    if T > 1:
        delta = np.abs(np.diff(monthly, axis=-1)).max(axis=-1)
        x = np.arange(1, T + 1, dtype=float)
        w = (x - x.mean()) / ((x - x.mean()) ** 2).sum()
        slope = monthly @ w
    else:
        delta = np.zeros((2,) + _PLANE_SHAPE_FILT)
        slope = np.zeros((2,) + _PLANE_SHAPE_FILT)

    inact = 1.0 - active_win / win_len
    return {"total": total, "pad": pad, "delta": delta,
            "slope": slope, "inact": inact}


def _fill_row(row: np.ndarray, planes: dict, plan: _Plan) -> None:
    flats = {src: planes[src].ravel() for src in planes}
    for src, (pos, off) in plan.gathers.items():
        if len(pos):
            row[pos] = flats[src][off]
    if len(plan.ratio_out):
        allvals = np.concatenate([flats[src] for src in _SOURCE_ORDER])
        num = allvals[plan.ratio_num]
        den = allvals[plan.ratio_den]
        with np.errstate(invalid="ignore", divide="ignore"):
            row[plan.ratio_out] = np.where(den != 0, num / den, 0.0)


def _rows_for_range(store, plan, lo, hi):
    out = np.empty((hi - lo, plan.n_cols))
    for i in range(lo, hi):
        planes = _subscriber_planes(store.subscribers[i],
                                    store.window.start_epoch, plan)
        _fill_row(out[i - lo], planes, plan)
    return out


def compute_matrix(store: RecordStore, specs: list, axes: AxesConfig,
                   train_range: tuple[int, int] | None = None,
                   workers: int = 1):
    """Dense subscribers x features matrix over the training window.

    Every subscriber gets a row, including fully inactive ones (count
    features 0, inactivity 1.0, ratios 0). Rows are bit-identical at
    any worker count: workers fill disjoint row blocks and the column
    order is fixed before computation starts.
    """
    from .matrix import FeatureMatrix

    if train_range is None:
        train_range = (0, store.window.train_days)
    plan = _build_plan(specs, store.window, train_range, axes)
    n = len(store.subscribers)
    names = [s.canonical_name for s in specs]

    if workers > 1 and n >= 2 * workers:
        bounds = np.linspace(0, n, workers * 4 + 1).astype(int)
        chunks = [(int(a), int(b)) for a, b in zip(bounds[:-1], bounds[1:])
                  if a < b]
        values = np.concatenate(parallel.map(
            lambda chunk: _rows_for_range(store, plan, *chunk), chunks,
            workers))
    else:
        values = _rows_for_range(store, plan, 0, n)
    return FeatureMatrix(ego_ids=list(store.ego_ids), feature_names=names,
                         values=values)

