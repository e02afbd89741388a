"""Seeded synthetic CDR generator with planted churn behavior.

Stands in for confidential operator data so the pipeline can be tested
and benchmarked end to end. Churn flags are drawn first (Bernoulli at
the target fraction), then per-subscriber trajectories are sampled:

* every subscriber gets a heavy-tailed activity level (log-normal rate
  multiplier on the configured daily Poisson means);
* a planted churner picks a churn day uniformly inside the last
  training month, ramps its rate linearly to zero over
  ``churn_decay_days``, and emits nothing from the churn day onward, so
  the binary inactivity label recovers the planted flag exactly;
* churners also receive elevated incoming SMS from competitor-class
  contacts and a month-over-month shrinking outgoing contact set, so
  the early-warning feature families have real signal to find;
* non-churners keep a constant expected rate and are guaranteed at
  least one event in the evaluation window (and churners at least one
  in training), so the generated population and the ground-truth file
  always cover the same subscribers.

All randomness derives from per-subscriber substreams of the master
seed, so generation stays deterministic under any evaluation order:
the same config yields byte-identical files. Contiguous blocks of
subscribers fan out over ``workers`` processes and are written in block
order as they arrive, so the files are the same bytes at any worker
count and only a few blocks of text are held at once.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import artifact, parallel
from .cdr import (ALTER_CLASS_TOKENS, CSV_HEADER, DIRECTION_TOKENS,
                  KIND_TOKENS, SECONDS_PER_DAY, StudyWindow)

# Pool-level alter class mix; index order matches ALTER_CLASS_TOKENS.
_CLASS_PROBS = np.array([0.55, 0.15, 0.05, 0.08, 0.07, 0.10])
_COMPETITOR = 1

_RATE_SIGMA = 1.0      # log-normal dispersion of per-subscriber rates
_SHORT_CALL_P = 0.15   # share of calls under the short-call threshold
_MEAN_CALL_S = 170     # mean extra seconds beyond the short threshold
_OUT_SHRINK = 0.15     # monthly contraction of a churner's outgoing pool
_CHURNER_RATE = 0.35   # churners are less engaged all through training

_BLOCK = 64  # subscribers per pool task
# ",kind,direction," between a row's timestamp and duration, by 2*kind+dir
_KIND_DIR = tuple(f",{k},{d}," for k in KIND_TOKENS for d in DIRECTION_TOKENS)


@dataclass(frozen=True)
class SimConfig:
    """Generator settings; the config checks their ranges when it is read."""
    n_subscribers: int
    window: StudyWindow
    target_churn_fraction: float = 0.26
    daily_call_rate: float = 1.0
    daily_sms_rate: float = 2.0
    alter_pool_size: int = 1000
    churn_decay_days: int = 110
    competitor_signal_strength: float = 3.0
    seed: int = 0


def generate(config: SimConfig, cdr_path: str, truth_path: str,
             workers: int = 1) -> dict:
    """Write a CDR CSV and an ``ego_id,churned`` ground-truth CSV.

    Blocks of subscribers are generated over ``workers`` processes and
    their CDR rows written in block order, each block as it arrives; the
    ground truth, one short line per subscriber, is written after. Returns
    a small stats dict (rows written, realized churn fraction, and the
    sha256 of each file).
    """
    plan = _Plan(config)
    n = config.n_subscribers
    blocks = [range(lo, min(lo + _BLOCK, n)) for lo in range(0, n, _BLOCK)]
    truth = ["ego_id,churned\n"]
    stats = {"rows": 0, "subscribers": n, "churners": 0}

    def fill(fh):
        fh.write((CSV_HEADER + "\n").encode("utf-8"))
        for cdr_text, truth_text, churners, rows in parallel.map(
                plan.block, blocks, workers):
            fh.write(cdr_text.encode("utf-8"))
            truth.append(truth_text)
            stats["churners"] += churners
            stats["rows"] += rows

    stats["cdr_sha256"] = artifact.write(cdr_path, fill)
    stats["truth_sha256"] = artifact.write_text(truth_path, "".join(truth))
    stats["churn_fraction"] = stats["churners"] / n if n else 0.0
    return stats


class _Plan:
    """What every subscriber of one config shares: the window's day
    layout and the class and text of each pool contact."""

    def __init__(self, config: SimConfig):
        win = config.window
        self.config = config
        pool_rng = np.random.default_rng([config.seed, 0])
        self.pool_classes = pool_rng.choice(
            len(ALTER_CLASS_TOKENS), size=config.alter_pool_size,
            p=_CLASS_PROBS)
        self.start_epoch = win.start_epoch
        self.train_days = win.train_days
        month_ranges = win.month_ranges[:win.train_months]
        self.n_months = len(month_ranges)
        self.last_month_start = month_ranges[-1][0]
        self.eval_days = win.total_days - self.train_days
        self.month_of_day = [self.n_months - 1] * win.total_days
        for m, (lo, hi) in enumerate(month_ranges):
            self.month_of_day[lo:hi] = [m] * (hi - lo)
        self.alter_ids = [f"A{i:06d}" for i in range(config.alter_pool_size)]

    def block(self, idxs: range) -> tuple[str, str, int, int]:
        """(cdr text, truth text, churners, rows) of subscribers ``idxs``."""
        cdr, truth = [], []
        n_churn = n_rows = 0
        for idx in idxs:
            ego = f"S{idx:06d}"
            rng = np.random.default_rng([self.config.seed, 1, idx])
            churner = rng.random() < self.config.target_churn_fraction
            lines = self._rows(ego, rng, churner)
            cdr += lines
            truth.append(f"{ego},{int(churner)}\n")
            n_churn += int(churner)
            n_rows += len(lines)
        return "".join(cdr), "".join(truth), n_churn, n_rows

    def _rows(self, ego: str, rng, churner: bool) -> list[str]:
        """The CDR lines of one subscriber, in time order."""
        config = self.config
        mult = rng.lognormal(mean=-0.5 * _RATE_SIGMA ** 2, sigma=_RATE_SIGMA)
        if churner:
            mult *= _CHURNER_RATE
        call_rate = config.daily_call_rate * mult
        sms_rate = config.daily_sms_rate * mult

        n_contacts = min(4 + rng.poisson(10), config.alter_pool_size)
        contacts = rng.choice(config.alter_pool_size, size=n_contacts,
                              replace=False)
        weights = rng.exponential(1.0, n_contacts)
        weights /= weights.sum()
        classes = self.pool_classes[contacts]
        if churner and config.competitor_signal_strength > 0 and \
                not np.any(classes == _COMPETITOR):
            # Plant one competitor contact so the boosted stream has a source.
            classes = classes.copy()
            classes[-1] = _COMPETITOR

        train_days = self.train_days
        total_days = train_days + self.eval_days
        ramp = np.ones(total_days)
        if churner:
            churn_day = int(rng.integers(self.last_month_start, train_days))
            d = np.arange(total_days)
            ramp = np.clip((churn_day - d) / config.churn_decay_days, 0.0, 1.0)

        calls = rng.poisson(call_rate * ramp)
        sms = rng.poisson(sms_rate * ramp)
        extra = np.zeros(total_days, dtype=np.int64)
        if churner and config.competitor_signal_strength > 1.0:
            comp_share = float(weights[classes == _COMPETITOR].sum())
            comp_share = max(comp_share, 1.0 / n_contacts)
            boost = sms_rate * comp_share * (
                config.competitor_signal_strength - 1.0)
            extra = rng.poisson(boost * ramp)

        # rng.choice(n, size, p=w) draws rng.random(size) and looks each
        # draw up in the normalised cumulative sum of w: the same picks
        # and the same stream state, without choice's checks per call.
        cdf = _cdf(weights)
        out_cdfs = [None] * self.n_months
        if churner:
            # Outgoing events draw from a prefix that shrinks month by
            # month, planting the declining-outgoing-degree signal.
            for m in range(self.n_months):
                allowed = max(1, int(np.ceil(
                    n_contacts * (1.0 - _OUT_SHRINK * m))))
                if allowed < n_contacts:
                    out_cdfs[m] = _cdf(weights[:allowed]
                                       / weights[:allowed].sum())
        comp_idx = np.flatnonzero(classes == _COMPETITOR)

        ts_parts, dir_parts, pick_parts = [], [], []
        kinds, durs = [], []
        n_events = calls + sms + extra
        active = np.flatnonzero(n_events)
        for day, n_call, n_sms, n_ev in zip(
                active.tolist(), calls[active].tolist(),
                sms[active].tolist(), n_events[active].tolist()):
            secs = rng.integers(0, SECONDS_PER_DAY, size=n_ev)
            dirs = rng.integers(0, 2, size=n_ev)
            picks = cdf.searchsorted(rng.random(n_ev), side="right")
            out_cdf = out_cdfs[self.month_of_day[day]]
            if out_cdf is not None:
                out = np.flatnonzero(dirs == 1)
                if len(out):
                    picks[out] = out_cdf.searchsorted(rng.random(len(out)),
                                                      side="right")
            for _ in range(n_call):
                durs.append(int(rng.integers(1, 10))
                            if rng.random() < _SHORT_CALL_P
                            else 10 + int(rng.exponential(_MEAN_CALL_S)))
            n_in = n_call + n_sms
            for j in range(n_in, n_ev):
                # competitor SMS: incoming, from a random competitor contact
                picks[j] = comp_idx[int(rng.integers(0, len(comp_idx)))]
            dirs[n_in:] = 0
            durs.extend([0] * (n_ev - n_call))
            kinds.extend([0] * n_call)
            kinds.extend([1] * (n_ev - n_call))
            ts_parts.append(secs + (self.start_epoch + day * SECONDS_PER_DAY))
            dir_parts.append(dirs)
            pick_parts.append(picks)

        fallback = None
        if churner and not len(active):
            # Guarantee presence in the CDR: one call before the churn day.
            hi = max(1, churn_day - config.churn_decay_days)
            fallback = int(rng.integers(0, hi))
        if not churner and not (len(active) and active[-1] >= train_days):
            # Non-churners must be visibly alive in the evaluation window.
            fallback = train_days + int(rng.integers(0, self.eval_days))
        if fallback is not None:
            # an outgoing 60 s call at noon to the first contact
            ts_parts.append(np.array([self.start_epoch + fallback
                                      * SECONDS_PER_DAY + 43200]))
            dir_parts.append(np.array([1]))
            pick_parts.append(np.array([0]))
            kinds.append(0)
            durs.append(60)

        ts = np.concatenate(ts_parts)
        order = np.argsort(ts, kind="stable")  # equal times keep draw order
        kind_dir = (2 * np.array(kinds) + np.concatenate(dir_parts))[order]
        heads = [f"{ego},{self.alter_ids[a]}," for a in contacts.tolist()]
        tails = [f",{ALTER_CLASS_TOKENS[c]}\n" for c in classes.tolist()]
        return [f"{heads[c]}{t}{_KIND_DIR[kd]}{d}{tails[c]}"
                for c, t, kd, d in zip(
                    np.concatenate(pick_parts)[order].tolist(),
                    ts[order].tolist(), kind_dir.tolist(),
                    np.array(durs)[order].tolist())]


def _cdf(weights: np.ndarray) -> np.ndarray:
    cdf = weights.cumsum()
    cdf /= cdf[-1]
    return cdf
