import hashlib
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from churnforge import simgen
from churnforge.cdr import SECONDS_PER_DAY, ingest
from churnforge.cli import main
from churnforge.labeling import compute_labels, split_windows
from churnforge.simgen import (_BLOCK, _MEAN_CALL_S, _OUT_SHRINK,
                               _SHORT_CALL_P, SimConfig, _cdf, generate)
from conftest import WINDOW, config_error, read_truth

SMALL_CFG = str(Path(__file__).resolve().parents[1] / "configs" / "small.cfg")


def gen(tmp_path, workers=1, **kwargs):
    defaults = dict(n_subscribers=150, window=WINDOW, alter_pool_size=100,
                    seed=11)
    defaults.update(kwargs)
    cfg = SimConfig(**defaults)
    tmp_path.mkdir(parents=True, exist_ok=True)
    cdr = tmp_path / "cdr.csv"
    truth = tmp_path / "truth.csv"
    stats = generate(cfg, str(cdr), str(truth), workers)
    return cfg, cdr, truth, stats


def per_subscriber(store):
    """(ego_id, row slice, day index of every row) for each subscriber."""
    days = (store.ts - store.window.start_epoch) // SECONDS_PER_DAY
    for i, ego in enumerate(store.ego_ids):
        rows = slice(store.offsets[i], store.offsets[i + 1])
        yield ego, rows, days[rows]


def test_zero_subscribers_yields_header_only_files(tmp_path):
    _, cdr, truth, stats = gen(tmp_path, n_subscribers=0)
    assert cdr.read_text().splitlines() == [
        "ego_id,alter_id,timestamp,kind,direction,duration_s,alter_class"]
    assert truth.read_text().splitlines() == ["ego_id,churned"]
    assert stats["rows"] == 0


def test_same_seed_byte_identical(tmp_path):
    _, cdr_a, truth_a, _ = gen(tmp_path / "a", n_subscribers=60)
    _, cdr_b, truth_b, _ = gen(tmp_path / "b", n_subscribers=60)
    assert cdr_a.read_bytes() == cdr_b.read_bytes()
    assert truth_a.read_bytes() == truth_b.read_bytes()


def test_different_seed_differs(tmp_path):
    _, cdr_a, _, _ = gen(tmp_path / "a", n_subscribers=60)
    _, cdr_b, _, _ = gen(tmp_path / "b", n_subscribers=60, seed=12)
    assert cdr_a.read_bytes() != cdr_b.read_bytes()


def test_planted_flags_recovered_exactly(tmp_path):
    _, cdr, truth, _ = gen(tmp_path, n_subscribers=250)
    store = ingest(str(cdr), WINDOW)
    assert not store.rejected
    truth_flags = read_truth(str(truth))
    # every generated subscriber is present in the CDR
    assert store.ego_ids == sorted(truth_flags)
    _, eval_range = split_windows(WINDOW)
    labels = compute_labels(store, eval_range)
    for ego, churned in zip(labels.ego_ids, labels.churned):
        assert bool(churned) == truth_flags[ego], ego


def test_churners_silent_and_nonchurners_alive_in_eval(tmp_path):
    _, cdr, truth, _ = gen(tmp_path, n_subscribers=200)
    store = ingest(str(cdr), WINDOW)
    truth_flags = read_truth(str(truth))
    _, (lo, hi) = split_windows(WINDOW)
    for ego, _, days in per_subscriber(store):
        n_eval = int(np.sum((days >= lo) & (days < hi)))
        if truth_flags[ego]:
            assert n_eval == 0
        else:
            assert n_eval >= 1


def test_churn_fraction_near_target(tmp_path):
    _, _, _, stats = gen(tmp_path, n_subscribers=1500, seed=5)
    assert abs(stats["churn_fraction"] - 0.26) < 0.05


def test_generated_rows_are_all_well_formed(tmp_path):
    _, cdr, _, stats = gen(tmp_path, n_subscribers=80)
    store = ingest(str(cdr), WINDOW)
    assert not store.rejected
    assert store.n_records == stats["rows"]


@pytest.mark.parametrize("kwargs", [
    {"n_subscribers": -1},
    {"target_churn_fraction": 1.5},
    {"daily_call_rate": -0.1},
    {"alter_pool_size": 0},
    {"churn_decay_days": 0},
    {"competitor_signal_strength": -1.0},
])
def test_config_validation(tmp_path, kwargs):
    # refused when the config is read, naming the key, before any stage
    (name, value), = kwargs.items()
    key = f"simgen.{name}"
    assert f"config key {key}='{value}' is out of range" in config_error(
        tmp_path, f"{key}={value}\n")


def test_competitor_signal_planted(tmp_path):
    """Churners should receive clearly more competitor SMS during training."""
    _, cdr, truth, _ = gen(tmp_path, n_subscribers=400, seed=3,
                           competitor_signal_strength=3.0)
    store = ingest(str(cdr), WINDOW)
    truth_flags = read_truth(str(truth))
    train_hi = WINDOW.train_days
    rates = {True: [], False: []}
    for ego, rows, days in per_subscriber(store):
        mask = ((days < train_hi) & (store.kind[rows] == 1)
                & (store.direction[rows] == 0)
                & (store.alter_class[rows] == 1))
        active = len(np.unique(days[days < train_hi]))
        if active:
            rates[truth_flags[ego]].append(mask.sum() / active)
    assert np.mean(rates[True]) > 1.5 * np.mean(rates[False])


def test_nonchurner_rate_flat_across_months(tmp_path):
    """No planted trend: non-churner monthly event totals stay level."""
    _, cdr, truth, _ = gen(tmp_path, n_subscribers=500, seed=17,
                           daily_call_rate=2.0, daily_sms_rate=4.0)
    store = ingest(str(cdr), WINDOW)
    truth_flags = read_truth(str(truth))
    tiles = WINDOW.month_ranges[:4]
    totals = np.zeros(4)
    for ego, _, days in per_subscriber(store):
        if truth_flags[ego]:
            continue
        for m, (lo, hi) in enumerate(tiles):
            totals[m] += np.sum((days >= lo) & (days < hi))
    per_day = totals / np.array([hi - lo for lo, hi in tiles])
    assert per_day.max() / per_day.min() < 1.05


@pytest.mark.parametrize("size", [1, 5, 40])
def test_cdf_lookup_draws_as_choice(size):
    """The generator's contact picks: same indices and same stream state
    as ``rng.choice(n, size, p=w)``, for whole and shrunken weights."""
    for seed in range(300):
        wrng = np.random.default_rng([seed, 99])
        n = int(wrng.integers(1, 30))
        weights = wrng.exponential(1.0, n)
        weights /= weights.sum()
        month = int(wrng.integers(1, 4))
        allowed = max(1, int(np.ceil(n * (1.0 - _OUT_SHRINK * month))))
        prefix = weights[:allowed] / weights[:allowed].sum()
        for w in (weights, prefix):
            by_choice = np.random.default_rng(seed)
            by_cdf = np.random.default_rng(seed)
            want = by_choice.choice(len(w), size=size, p=w)
            got = _cdf(w).searchsorted(by_cdf.random(size), side="right")
            assert np.array_equal(got, want), (seed, n, len(w))
            assert by_cdf.bit_generator.state == \
                by_choice.bit_generator.state, (seed, n, len(w))


@pytest.mark.parametrize("workers", [1, 2])
def test_small_config_generate_bytes_pinned(tmp_path, workers):
    """sha256 of configs/small.cfg's CDR and truth, as recorded once each
    subscriber drew every quantity of its events with one sized call."""
    out = tmp_path / "out"
    assert main(["generate", "--config", SMALL_CFG, "--out", str(out),
                 "--workers", str(workers)]) == 0
    digest = {name: hashlib.sha256((out / name).read_bytes()).hexdigest()
              for name in ("cdr.csv", "ground_truth.csv")}
    assert digest == {
        "cdr.csv": "31379cf0a1690419792472352de85cce"
                   "088e0727cca471ab4aed6de1018cab91",
        "ground_truth.csv": "a474dd884069fd27a6416298e740e011"
                            "fbc28c110c9b8cc5bc33cde4f3eb1b01",
    }


_DAY_LOOP_CASES = {
    "busy": (dict(daily_call_rate=2.0, daily_sms_rate=6.0),
             "df4e54fd707faff83243e4f20e255d6e"
             "685fce4e1f0ea2bd03225733ae778b23"),
    "quiet": (dict(daily_call_rate=0.002, daily_sms_rate=0.004),
              "bc6e0ac8caaefa7eeef922a571539eb8"
              "9c403fa3c368d4e8278b536097e67f63"),
}


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("case", sorted(_DAY_LOOP_CASES))
def test_day_loop_generate_bytes_pinned(tmp_path, case, workers):
    """sha256 of the CDR and truth of 24 subscribers, half of them
    churners, as recorded once each subscriber drew, after its daily
    counts, all its seconds, directions and contact picks, its churner
    months' outgoing re-picks, its call durations and its competitor
    contacts one sized call per quantity, in that order. ``busy``
    reaches competitor SMS from one and from several competitor
    contacts, a planted competitor contact, churners' shrinking outgoing
    pools and days of up to 48 events; ``quiet`` reaches both fallback
    calls: a churner with no events and a non-churner silent in the
    evaluation window."""
    rates, cdr_sha = _DAY_LOOP_CASES[case]
    _, cdr, truth, _ = gen(tmp_path, workers, n_subscribers=24, seed=1,
                           target_churn_fraction=0.5, **rates)
    digest = [hashlib.sha256(p.read_bytes()).hexdigest() for p in (cdr, truth)]
    assert digest == [cdr_sha, "87b3654486b84547e05eea670c37bd42"
                               "b0e53245c176e6c9b2229d2cdc1cdfea"]
    rows = [line.split(",") for line in cdr.read_text().splitlines()[1:]]
    days = [(int(r[2]) - WINDOW.start_epoch) // SECONDS_PER_DAY for r in rows]
    if case == "busy":  # events of the busiest subscriber-day
        assert max(Counter(zip((r[0] for r in rows), days)).values()) == 48
    else:  # noon 60 s outgoing calls in training and in evaluation
        noon = {d >= WINDOW.train_days for r, d in zip(rows, days)
                if int(r[2]) % SECONDS_PER_DAY == 43200
                and r[3:6] == ["CALL", "OUT", "60"]}
        assert noon == {False, True}


@pytest.mark.parametrize("n", [2 * _BLOCK + 5, 0],
                         ids=["three_blocks_last_short", "no_subscribers"])
def test_blocks_over_workers_write_identical_files(tmp_path, n):
    runs = [gen(tmp_path / f"w{workers}", workers=workers, n_subscribers=n)
            for workers in (1, 2, 3)]
    _, cdr, truth, stats = runs[0]
    assert stats["subscribers"] == n
    assert len(truth.read_text().splitlines()) == n + 1
    for _, other_cdr, other_truth, other_stats in runs[1:]:
        assert other_cdr.read_bytes() == cdr.read_bytes()
        assert other_truth.read_bytes() == truth.read_bytes()
        assert other_stats == stats


@pytest.mark.parametrize("workers", [1, 2])
def test_block_size_does_not_change_the_files(tmp_path, monkeypatch,
                                              workers):
    # every subscriber reads its own substream, whatever block it is in
    n = 2 * _BLOCK + 5
    _, cdr, truth, _ = gen(tmp_path / "default", n_subscribers=n)
    monkeypatch.setattr(simgen, "_BLOCK", 7)
    _, cdr_7, truth_7, _ = gen(tmp_path / "seven", workers, n_subscribers=n)
    assert cdr_7.read_bytes() == cdr.read_bytes()
    assert truth_7.read_bytes() == truth.read_bytes()


class _DrawSpy:
    """A generator that keeps what each of its ``poisson`` and ``choice``
    calls drew."""

    def __init__(self, rng):
        self.rng, self.drawn = rng, {"poisson": [], "choice": []}

    def __getattr__(self, name):
        method = getattr(self.rng, name)
        if name not in self.drawn:
            return method

        def keep(*args, **kwargs):
            self.drawn[name].append(method(*args, **kwargs))
            return self.drawn[name][-1]
        return keep


def test_event_distributions_of_the_draw_order():
    """Over 400 subscribers of one seed, the quantities that each
    subscriber draws with one sized call keep their distributions."""
    cfg = SimConfig(n_subscribers=400, window=WINDOW, alter_pool_size=100,
                    seed=23)
    plan = simgen._Plan(cfg)
    lines, flags, drawn = [], {}, {}
    for idx in range(cfg.n_subscribers):
        ego = f"S{idx:06d}"
        rng = _DrawSpy(np.random.default_rng([cfg.seed, 1, idx]))
        flags[ego] = bool(rng.random() < cfg.target_churn_fraction)
        lines += plan._rows(ego, rng, flags[ego])
        drawn[ego] = rng.drawn
    assert "".join(lines) == plan.block(range(cfg.n_subscribers))[0]
    rows = [line.rstrip("\n").split(",") for line in lines]
    ts = np.array([int(r[2]) for r in rows])
    day = (ts - WINDOW.start_epoch) // SECONDS_PER_DAY
    is_call = np.array([r[3] == "CALL" for r in rows])
    is_out = np.array([r[4] == "OUT" for r in rows])
    churner = np.array([flags[r[0]] for r in rows])

    hours = np.bincount(ts % SECONDS_PER_DAY // 3600, minlength=24)
    assert np.all(np.abs(hours / hours.mean() - 1) < 0.05), hours
    # non-churners draw no competitor SMS
    assert abs(is_out[~churner].mean() - 0.5) < 0.01
    dur = np.array([int(r[5]) for r in rows])[is_call]
    assert abs(np.mean(dur < 10) - _SHORT_CALL_P) < 0.01
    assert abs(dur[dur >= 10].mean() / (10 + _MEAN_CALL_S) - 1) < 0.03

    # competitor SMS are incoming, from a competitor contact; on a day
    # without other SMS they are all of the day's SMS
    sms_in = {}
    for r, d in zip(rows, day.tolist()):
        if r[3] == "SMS":
            sms_in.setdefault((r[0], d), []).append(
                r[4] == "IN" and r[6] == "COMPETITOR")
    n_comp = 0
    for ego in [e for e, churned in flags.items() if churned]:
        _, _, sms, extra = drawn[ego]["poisson"]  # contacts, calls, ...
        for d in np.flatnonzero(extra).tolist():
            assert sum(sms_in[ego, d]) >= extra[d], (ego, d)
            if sms[d] == 0:
                assert sms_in[ego, d] == [True] * extra[d], (ego, d)
                n_comp += extra[d]
    assert n_comp > 100

    # a churner's outgoing events of training month m go to the first
    # ceil(n (1 - m _OUT_SHRINK)) of its n contacts, and its distinct
    # outgoing contacts per month do not grow
    months = WINDOW.month_ranges[:WINDOW.train_months]
    out_by = {}
    for r, d, out in zip(rows, day.tolist(), is_out.tolist()):
        if out and flags[r[0]]:
            m = next(m for m, (lo, hi) in enumerate(months) if lo <= d < hi)
            contacts = drawn[r[0]]["choice"][0].tolist()
            allowed = max(1, int(np.ceil(
                len(contacts) * (1.0 - _OUT_SHRINK * m))))
            assert int(r[1][1:]) in contacts[:allowed], (r, m)
            out_by.setdefault(r[0], [set() for _ in months])[m].add(r[1])
    degree = np.mean([[len(s) for s in sets] for sets in out_by.values()], 0)
    assert np.all(np.diff(degree) <= 0), degree

    churn_fraction = np.mean(list(flags.values()))
    assert abs(churn_fraction - cfg.target_churn_fraction) < 0.06
