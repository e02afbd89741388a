import hashlib
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from churnforge.cdr import SECONDS_PER_DAY, ingest
from churnforge.cli import main
from churnforge.labeling import compute_labels, split_windows
from churnforge.simgen import _BLOCK, _OUT_SHRINK, SimConfig, _cdf, generate
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
    """sha256 of configs/small.cfg's CDR and truth, as recorded before
    contact picks became cdf lookups and blocks went over workers."""
    out = tmp_path / "out"
    assert main(["generate", "--config", SMALL_CFG, "--out", str(out),
                 "--workers", str(workers)]) == 0
    digest = {name: hashlib.sha256((out / name).read_bytes()).hexdigest()
              for name in ("cdr.csv", "ground_truth.csv")}
    assert digest == {
        "cdr.csv": "c2dea1d9d7eacda249210916ce36db19"
                   "de0402d3977bbd44db57cd6d9a9a8fc9",
        "ground_truth.csv": "a474dd884069fd27a6416298e740e011"
                            "fbc28c110c9b8cc5bc33cde4f3eb1b01",
    }


def _stream_pair(seed, buffered):
    """Two generators in one state; ``buffered`` leaves the leftover
    32-bit half of an odd-length bounded draw in the bit generator."""
    pair = [np.random.default_rng(seed) for _ in range(2)]
    if buffered:
        for rng in pair:
            rng.integers(0, 2, size=3)
            assert rng.bit_generator.state["has_uint32"] == 1
    return pair


# Seeds whose first or seventh 32-bit value is rejected for the bound
# SECONDS_PER_DAY by Lemire's method, so that draw takes one more value.
_REDRAW_SEEDS = (8076, 10004)


@pytest.mark.parametrize("buffered", [False, True],
                         ids=["no_half_buffered", "half_buffered"])
def test_merged_day_draw_equals_separate_draws(buffered):
    """A day of n events draws seconds and directions in one call over
    the bounds ``high[top - n:top + n]``, ``high`` built to the busiest
    day ``top``: the same numbers and stream state as sized draws of
    seconds and then directions, for n inside and equal to ``top``."""
    top = 40
    high = np.repeat([SECONDS_PER_DAY, 2], top)
    for seed in (*range(300), *_REDRAW_SEEDS):
        for n in (1, 2, 3, 4, 5, 7, 10, top):
            merged, separate = _stream_pair(seed, buffered)
            got = merged.integers(0, high[top - n:top + n])
            want = np.concatenate([
                separate.integers(0, SECONDS_PER_DAY, size=n),
                separate.integers(0, 2, size=n)])
            assert np.array_equal(got, want), (seed, n)
            assert merged.bit_generator.state == \
                separate.bit_generator.state, (seed, n)


@pytest.mark.parametrize("buffered", [False, True],
                         ids=["no_half_buffered", "half_buffered"])
def test_sized_competitor_draw_equals_scalar_draws(buffered):
    """A day's competitor contacts: one size-k draw equals k scalar
    draws, including a single competitor contact (no value consumed)."""
    for seed in range(300):
        for n_comp in (1, 2, 3, 7):
            for k in (1, 2, 5):
                sized, scalar = _stream_pair(seed, buffered)
                got = sized.integers(0, n_comp, size=k)
                want = [int(scalar.integers(0, n_comp)) for _ in range(k)]
                assert got.tolist() == want, (seed, n_comp, k)
                assert sized.bit_generator.state == \
                    scalar.bit_generator.state, (seed, n_comp, k)


_DAY_LOOP_CASES = {
    "busy": (dict(daily_call_rate=2.0, daily_sms_rate=6.0),
             "3552b4c162f098e2f4081351ca7b72a5"
             "e16f56d76ec0d222c05afca7fb207eac"),
    "quiet": (dict(daily_call_rate=0.002, daily_sms_rate=0.004),
              "d8dd158e81433d01b160959a9d3a073b"
              "f91837f18d8297c5f5aa7a9f2b5f9ca8"),
}


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("case", sorted(_DAY_LOOP_CASES))
def test_day_loop_generate_bytes_pinned(tmp_path, case, workers):
    """sha256 of the CDR and truth of 24 subscribers, half of them
    churners, as recorded while each day drew its seconds, directions
    and competitor contacts one sized or scalar call at a time. ``busy``
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
