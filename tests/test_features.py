import hashlib
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from churnforge.cdr import SECONDS_PER_DAY
from churnforge.features import (ALTER_CLASSES, DAY_TYPES, DIRECTIONS, KINDS,
                                 MEASURES, STATISTICS, TIMES_OF_DAY, WINDOWS,
                                 AxesConfig, ConfigError, _BLOCK,
                                 _CHUNK_ROWS, compute_matrix,
                                 enumerate_features, row_chunks)
from churnforge import features as feat_mod
from churnforge import matrix as matrix_mod
from conftest import (DEFAULT_DENOMINATORS, WINDOW, column, count_features,
                      ingest_rows, make_store, random_rows)

AXES = AxesConfig()


def one_ego_matrix(events, names=None):
    """events: (day, hour, kind, direction, duration, alter, alter_class)."""
    store = ingest_rows(
        [("e", alter, WINDOW.start_epoch + day * SECONDS_PER_DAY
          + hour * 3600 + j, kind, direction, dur, ac)
         for j, (day, hour, kind, direction, dur, alter, ac)
         in enumerate(events)])
    if names is None:
        names = enumerate_features(AXES)
    return compute_matrix(store, names, AXES)


class TestEnumeration:
    def test_default_count_closed_form(self):
        # independent arithmetic: 2*4*3*3*3*7 filter combos, 5 windows with
        # 2 plain statistics plus 2 full-window-only trend statistics, and
        # 5 inactivity windows
        filt = 2 * 4 * 3 * 3 * 3 * 7
        expected = filt * (5 * 2 + 2) + 5
        assert expected == 18149
        assert count_features(AXES, 0) == expected
        assert len(enumerate_features(AXES)) == expected

    def test_default_axes_have_two_to_seven_dimensions(self):
        for axis in (MEASURES, KINDS, DIRECTIONS, TIMES_OF_DAY, DAY_TYPES,
                     ALTER_CLASSES, WINDOWS, STATISTICS):
            assert 2 <= len(axis) <= 7

    def test_count_with_denominators(self):
        names = enumerate_features(AXES, DEFAULT_DENOMINATORS)
        assert len(names) == 18149 + (18149 - 1) * 6
        assert count_features(AXES, 6) == len(names)

    def test_degenerate_config(self):
        cfg = AxesConfig(measures=("activity",), kinds=("any",),
                         directions=("any",), times_of_day=("any",),
                         day_types=("any",), alter_classes=("any",),
                         windows=("full",), statistics=("total",))
        names = enumerate_features(cfg)
        assert names == ["activity.any.any.any.any.any.full.total",
                         "inactivity.m1", "inactivity.m2", "inactivity.m3",
                         "inactivity.m4", "inactivity.full"]
        assert count_features(cfg, 0) == 6

    def test_count_matches_enumeration_on_random_restrictions(self):
        rng = np.random.default_rng(0)
        axes_pool = [("measures", MEASURES), ("kinds", KINDS),
                     ("directions", DIRECTIONS), ("times_of_day", TIMES_OF_DAY),
                     ("day_types", DAY_TYPES), ("alter_classes", ALTER_CLASSES),
                     ("windows", WINDOWS), ("statistics", STATISTICS)]
        for _ in range(20):
            kwargs = {}
            for name, full in axes_pool:
                take = 1 + int(rng.integers(0, len(full)))
                picks = rng.choice(len(full), size=take, replace=False)
                kwargs[name] = tuple(full[i] for i in sorted(picks))
            cfg = AxesConfig(**kwargs)
            assert count_features(cfg, 0) == len(enumerate_features(cfg))

    def test_unknown_denominator_fatal(self):
        with pytest.raises(ConfigError):
            enumerate_features(AXES, ("activity.call.in.any.any.any.full.nope",))

    def test_duplicate_denominator_fatal(self):
        with pytest.raises(ConfigError):
            enumerate_features(AXES, ("inactivity.full", "inactivity.full"))

    def test_names_injective(self):
        names = enumerate_features(AXES, DEFAULT_DENOMINATORS[:2])
        assert len(set(names)) == len(names)

    @pytest.mark.parametrize("name,message", [
        ("activity.fax.in.any.any.any.full.total",
         "kind: unknown dimension 'fax'"),
        ("activity.call.in.any.any.full.total",
         "expected 8 dot-separated parts or inactivity.<window>, got 7"),
        ("activity.call.in.any.any.any.m1.trend_slope",
         "statistic trend_slope requires window 'full', got 'm1'"),
        ("inactivity.m1/inactivity.m2/inactivity.full", "cannot hold '/'"),
        ("inactivity.full/inactivity.full", "ratio of a feature to itself"),
        ("inactivity.m9", "window: unknown dimension 'm9'"),
    ], ids=["unknown_dimension", "part_count", "trend_outside_full",
            "nested_ratio", "self_ratio", "unknown_window"])
    def test_malformed_name_rejected(self, random_store, name, message):
        with pytest.raises(ConfigError) as exc:
            compute_matrix(random_store, [name], AXES)
        assert str(exc.value).startswith(f"feature {name!r}: ")
        assert message in str(exc.value)

    def test_deterministic_order(self):
        a = enumerate_features(AXES, DEFAULT_DENOMINATORS)
        b = enumerate_features(AXES, DEFAULT_DENOMINATORS)
        assert a == b


# Known-good churn predictors the feature space must be able to express:
# ten strong individual predictors, ten strong joint predictors.
TOP_PREDICTORS_INDIVIDUAL = [
    ("pct inactive days (training)", "inactivity.full"),
    ("max monthly delta incoming calls / total incoming calls",
     "activity.call.in.any.any.any.full.max_monthly_delta"
     "/activity.call.in.any.any.any.full.total"),
    ("max monthly delta incoming calls / total outgoing calls",
     "activity.call.in.any.any.any.full.max_monthly_delta"
     "/activity.call.out.any.any.any.full.total"),
    ("outbound network degree (most recent month)",
     "degree.any.out.any.any.any.m4.total"),
    ("incoming SMS from competitor network",
     "activity.sms.in.any.any.competitor.full.total"),
    ("avg calls to information portal per active day",
     "activity.call.out.any.any.info_portal.full.per_active_day"),
    ("unique weekend contacts per active day",
     "degree.any.any.any.weekend.any.full.per_active_day"),
    ("avg daily SMS received from competitor network",
     "activity.sms.in.any.any.competitor.full.per_active_day"),
    ("inactive days in first month", "inactivity.m1"),
    ("daytime degree (voice calls)", "degree.call.any.day.any.any.full.total"),
]

TOP_PREDICTORS_JOINT = [
    ("outgoing degree (most recent month)",
     "degree.any.out.any.any.any.m4.total"),
    ("outgoing degree (first month) / SMS degree",
     "degree.any.out.any.any.any.m1.total"
     "/degree.sms.any.any.any.any.full.total"),
    ("incoming degree (second month) / total incoming calls",
     "degree.any.in.any.any.any.m2.total"
     "/activity.call.in.any.any.any.full.total"),
    ("SMS to mobile money / total inactivity",
     "activity.sms.out.any.any.mobile_money.full.total/inactivity.full"),
    ("short calls (first month) / total incoming calls",
     "activity.short_call.any.any.any.any.m1.total"
     "/activity.call.in.any.any.any.full.total"),
    ("incoming calls / incoming events",
     "activity.call.in.any.any.any.full.total"
     "/activity.any.in.any.any.any.full.total"),
    ("calls to mobile money (first month) / total inactivity",
     "activity.call.out.any.any.mobile_money.m1.total/inactivity.full"),
    ("outgoing events (first month) / call degree",
     "activity.any.out.any.any.any.m1.total"
     "/degree.call.any.any.any.any.full.total"),
    ("incoming international SMS (weekends) / incoming degree",
     "activity.sms.in.any.weekend.international.full.total"
     "/degree.any.in.any.any.any.full.total"),
    ("outgoing degree (first month) / call degree",
     "degree.any.out.any.any.any.m1.total"
     "/degree.call.any.any.any.any.full.total"),
]


class TestVocabulary:
    @pytest.mark.parametrize("label,name", TOP_PREDICTORS_INDIVIDUAL + TOP_PREDICTORS_JOINT)
    def test_top_predictor_expressible(self, label, name):
        # a base feature, or a ratio of two
        parts = name.split("/")
        assert len(parts) <= 2
        assert set(parts) <= set(enumerate_features(AXES))

    def test_vocabulary_computes(self):
        names = [n for _, n in TOP_PREDICTORS_INDIVIDUAL + TOP_PREDICTORS_JOINT]
        store = make_store(n_subscribers=5, seed=2)
        mat = compute_matrix(store, names, AXES)
        assert np.isfinite(mat.values).all()
        assert mat.shape == (5, 20)


class TestComputeExamples:
    def test_counts_and_degree(self):
        # 3 outgoing calls to 2 distinct alters in month 1
        mat = one_ego_matrix([
            (1, 9, 0, 1, 60, "A1", 0),
            (2, 9, 0, 1, 60, "A2", 0),
            (2, 15, 0, 1, 60, "A1", 0),
        ])
        assert column(mat, "activity.call.out.any.any.any.m1.total")[0] == 3
        assert column(mat, "degree.call.out.any.any.any.m1.total")[0] == 2

    def test_degree_beyond_one_presence_word(self):
        # 200 distinct counterparties, more than one 64-bit presence word:
        # outgoing calls to A000-A149 spread over the window, and night
        # SMS from competitor alters A100-A199 on day 40 (month 2)
        events = [(i % 122, 9, 0, 1, 60, f"A{i:03d}", 0) for i in range(150)]
        events += [(40, 21, 1, 0, 0, f"A{i:03d}", 1) for i in range(100, 200)]
        mat = one_ego_matrix(events)
        m1_calls = {i for i in range(150) if i % 122 < 31}
        m2 = {i for i in range(150) if 31 <= i % 122 < 61} | set(range(100, 200))
        for name, want in (
                ("degree.any.any.any.any.any.full.total", 200),
                ("degree.call.out.any.any.any.full.total", 150),
                ("degree.call.out.any.any.any.m1.total", len(m1_calls)),
                ("degree.sms.in.night.any.competitor.m2.total", 100),
                ("degree.any.any.any.any.any.m2.total", len(m2))):
            assert column(mat, name)[0] == want, name

    def test_degree_of_a_hub_next_to_light_subscribers(self):
        # one subscriber with 3,000 counterparties (47 presence words) in
        # the block of five light ones: the hub's degrees are exact and
        # the light rows are those of a store without the hub
        def at(day, j):
            return WINDOW.start_epoch + day * SECONDS_PER_DAY + 9 * 3600 + j

        hub = [("H", f"A{i}", at(i % 122, 0), i % 2, 1 - i % 2,
                60 * (1 - i % 2), i % 6) for i in range(3000)]
        light = random_rows(n_subscribers=5, seed=3)  # S000-S004
        names = enumerate_features(AXES)
        mat = compute_matrix(ingest_rows(hub + light), names, AXES)
        alone = compute_matrix(ingest_rows(light), names, AXES)
        assert mat.ego_ids == ["H"] + alone.ego_ids
        np.testing.assert_array_equal(mat.values[1:], alone.values)
        m1_competitor_sms = sum(1 for i in range(3000) if i % 2 and
                                i % 122 < 31 and i % 6 == 1)
        for name, want in (
                ("degree.any.any.any.any.any.full.total", 3000),
                ("degree.call.out.any.any.any.full.total", 1500),
                ("degree.sms.in.day.any.competitor.m1.total",
                 m1_competitor_sms),
                ("degree.any.any.night.any.any.full.total", 0)):
            assert column(mat, name)[0] == want, name

    def test_max_monthly_delta(self):
        # incoming calls per month: 10, 4, 6, 2 -> max |delta| = 6
        events = []
        for month_day, count in ((0, 10), (31, 4), (61, 6), (92, 2)):
            events += [(month_day + i % 20, 9, 0, 0, 60, "A1", 0)
                       for i in range(count)]
        mat = one_ego_matrix(events)
        assert column(
            mat, "activity.call.in.any.any.any.full.max_monthly_delta")[0] == 6

    def test_trend_slope_exact_line(self):
        # monthly counts 4, 3, 2, 1 -> least squares slope -1
        events = []
        for month_day, count in ((0, 4), (31, 3), (61, 2), (92, 1)):
            events += [(month_day + i, 9, 0, 0, 60, "A1", 0)
                       for i in range(count)]
        mat = one_ego_matrix(events)
        assert column(
            mat, "activity.call.in.any.any.any.full.trend_slope")[0] == -1.0

    def test_per_active_day(self):
        # 3 events on 2 distinct days -> 1.5 per active day
        mat = one_ego_matrix([
            (3, 9, 0, 0, 60, "A1", 0),
            (3, 10, 1, 1, 0, "A1", 0),
            (7, 9, 0, 0, 60, "A2", 0),
        ])
        assert column(
            mat, "activity.any.any.any.any.any.full.per_active_day")[0] == 1.5

    def test_inactive_ego_all_zero(self):
        names = enumerate_features(AXES, DEFAULT_DENOMINATORS)
        # events only after the training window
        mat = one_ego_matrix([(150, 9, 0, 1, 60, "A1", 0)], names)
        assert column(mat, "inactivity.full")[0] == 1.0
        assert column(mat, "inactivity.m2")[0] == 1.0
        assert column(mat, "activity.any.any.any.any.any.full.total")[0] == 0.0
        ratio = ("activity.call.in.day.weekday.onnet.m1.total"
                 "/degree.call.any.any.any.any.full.total")
        assert column(mat, ratio)[0] == 0.0
        assert np.isfinite(mat.values).all()

    def test_division_by_zero_yields_zero(self):
        # nonzero numerator, zero denominator (no incoming calls at all)
        num = "activity.sms.out.any.any.any.full.total"
        den = "activity.call.in.any.any.any.full.total"
        mat = one_ego_matrix([(1, 9, 1, 1, 0, "A1", 0)],
                             [num, den, f"{num}/{den}"])
        assert mat.values[0].tolist() == [1.0, 0.0, 0.0]


class TestProperties:
    def test_total_activity_additive_over_months(self, random_store):
        names = enumerate_features(AXES)
        mat = compute_matrix(random_store, names, AXES)
        by_name = {n: i for i, n in enumerate(mat.feature_names)}
        checked = 0
        for name, idx in by_name.items():
            parts = name.split(".")
            if len(parts) != 8 or parts[0] != "activity" or \
                    parts[7] != "total" or parts[6] != "full":
                continue
            months = [by_name[".".join(parts[:6] + [f"m{k}", "total"])]
                      for k in (1, 2, 3, 4)]
            total = sum(mat.values[:, m] for m in months)
            assert np.array_equal(total, mat.values[:, idx])
            checked += 1
        assert checked == 756

    def test_degree_full_bounded_by_monthly_degrees(self, random_store):
        # unique alters over the window: at least any month, at most the sum
        names = enumerate_features(AXES)
        mat = compute_matrix(random_store, names, AXES)
        by_name = {n: i for i, n in enumerate(mat.feature_names)}
        for name, idx in by_name.items():
            parts = name.split(".")
            if len(parts) != 8 or parts[0] != "degree" or \
                    parts[7] != "total" or parts[6] != "full":
                continue
            months = np.stack([
                mat.values[:, by_name[".".join(parts[:6] + [f"m{k}", "total"])]]
                for k in (1, 2, 3, 4)])
            assert (months.max(axis=0) <= mat.values[:, idx] + 1e-12).all()
            assert (mat.values[:, idx] <= months.sum(axis=0) + 1e-12).all()

    def test_monotone_slicing(self, random_store):
        names = enumerate_features(AXES)
        mat = compute_matrix(random_store, names, AXES)
        by_name = {n: i for i, n in enumerate(mat.feature_names)}
        rng = np.random.default_rng(5)
        axis_alternatives = {1: KINDS[:3], 2: DIRECTIONS[:2],
                             3: TIMES_OF_DAY[:2], 4: DAY_TYPES[:2],
                             5: ALTER_CLASSES[:6]}
        names = [n for n in by_name
                 if n.count(".") == 7 and n.split(".")[7] == "total"]
        for name in rng.choice(names, size=300, replace=False):
            parts = name.split(".")
            axis = int(rng.integers(1, 6))
            if parts[axis] != "any":
                continue
            for narrowed in axis_alternatives[axis]:
                other = parts.copy()
                other[axis] = narrowed
                wide = mat.values[:, by_name[name]]
                narrow = mat.values[:, by_name[".".join(other)]]
                assert (narrow <= wide + 1e-12).all()

    def test_degree_never_exceeds_activity(self, random_store):
        names = enumerate_features(AXES)
        mat = compute_matrix(random_store, names, AXES)
        by_name = {n: i for i, n in enumerate(mat.feature_names)}
        for name, idx in by_name.items():
            if name.startswith("degree.") and name.endswith(".total"):
                act = by_name["activity." + name[len("degree."):]]
                assert (mat.values[:, idx] <= mat.values[:, act] + 1e-12).all()

    def test_no_nan_inf_with_ratios(self, random_store):
        names = enumerate_features(AXES, DEFAULT_DENOMINATORS)
        mat = compute_matrix(random_store, names, AXES)
        assert np.isfinite(mat.values).all()
        by_name = {n: i for i, n in enumerate(mat.feature_names)}
        for w in ("m1", "m2", "m3", "m4", "full"):
            col = mat.values[:, by_name[f"inactivity.{w}"]]
            assert ((col >= 0) & (col <= 1)).all()

    def test_block_rows_equal_rows_of_one_subscriber(self):
        # more subscribers than two blocks hold, one with no training
        # events; a row must not depend on the rest of its block
        rows = random_rows(n_subscribers=2 * _BLOCK + 5, seed=6,
                           max_events=30)
        rows += [("S100", "A000", WINDOW.start_epoch + day * SECONDS_PER_DAY,
                  0, 1, 60, 0) for day in (130, 150)]
        store = ingest_rows(rows)
        names = enumerate_features(AXES, DEFAULT_DENOMINATORS[:2])[::37]
        whole = compute_matrix(store, names, AXES)
        assert len(store) > 2 * _BLOCK
        for i, ego in enumerate(store.ego_ids):
            alone = compute_matrix(
                ingest_rows([r for r in rows if r[0] == ego]), names, AXES)
            assert alone.ego_ids == [ego]
            assert whole.values[i].tobytes() == alone.values[0].tobytes()

    def test_block_size_does_not_change_the_matrix(self, monkeypatch):
        # ratios, a subscriber with no training events, chunks of
        # _CHUNK_ROWS rows (the last short), and blocks that cut them
        # evenly, unevenly, one row at a time or not at all
        rows = random_rows(n_subscribers=_CHUNK_ROWS + 8, seed=8,
                           max_events=30)
        rows += [("S100", "A000", WINDOW.start_epoch + day * SECONDS_PER_DAY,
                  0, 1, 60, 0) for day in (130, 150)]
        store = ingest_rows(rows)
        names = enumerate_features(AXES, DEFAULT_DENOMINATORS[:2])[::37]
        monkeypatch.setattr(matrix_mod, "_BLOCK_VALUES", len(names))
        want = compute_matrix(store, names, AXES).values.tobytes()
        for block in (1, 3, 8, 32):
            monkeypatch.setattr(feat_mod, "_BLOCK", block)
            chunks = row_chunks(store, names, AXES)
            assert [len(c) for c in chunks] == [_CHUNK_ROWS, 9]
            assert compute_matrix(store, names, AXES).values.tobytes() == want

    def test_row_chunks_scratch_stays_under_a_chunk(self):
        # every chunk refills one buffer; above it, a block's scratch must
        # stay under one more chunk (it was 3.4 chunks with blocks of 32
        # subscribers, and a new chunk each time added one)
        names = enumerate_features(AXES)
        list(row_chunks(make_store(n_subscribers=1, seed=3), names[:50],
                        AXES))  # numpy's first-use allocations
        store = make_store(n_subscribers=2 * _CHUNK_ROWS + 6, seed=2)
        chunk_bytes = _CHUNK_ROWS * len(names) * 8
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            lengths = [len(chunk) for chunk in row_chunks(store, names, AXES)]
            peak = tracemalloc.get_traced_memory()[1] - start
        finally:
            tracemalloc.stop()
        assert lengths == [_CHUNK_ROWS, _CHUNK_ROWS, 6]
        assert peak < 2 * chunk_bytes


class TestComputeErrors:
    def test_window_outside_train_range_fatal(self, random_store):
        names = ["activity.any.any.any.any.any.m3.total"]
        with pytest.raises(ConfigError):
            compute_matrix(random_store, names, AXES, train_range=(0, 61))

    def test_inactivity_window_outside_train_range_fatal(self, random_store):
        with pytest.raises(ConfigError):
            compute_matrix(random_store, ["inactivity.m4"], AXES,
                           train_range=(0, 61))

    def test_misaligned_train_range_fatal(self, random_store):
        with pytest.raises(ConfigError):
            compute_matrix(random_store, ["inactivity.m1"], AXES,
                           train_range=(0, 60))

    def test_restricted_range_works_for_valid_windows(self, random_store):
        names = ["activity.any.any.any.any.any.m1.total",
                 "activity.any.any.any.any.any.full.total"]
        mat = compute_matrix(random_store, names, AXES, train_range=(0, 61))
        # "full" means the whole requested range here: months 1 and 2
        m1 = compute_matrix(random_store, names[:1], AXES, train_range=(0, 61))
        assert (mat.values[:, 1] >= m1.values[:, 0] - 1e-12).all()


class TestMatrixFormats:
    def test_binary_round_trip(self, tmp_path, random_store):
        names = enumerate_features(AXES)[:64]
        mat = compute_matrix(random_store, names, AXES)
        matrix_mod.save(mat, str(tmp_path / "m.cfm"))
        again = matrix_mod.load(str(tmp_path / "m.cfm"))
        assert again.ego_ids == mat.ego_ids
        assert again.feature_names == mat.feature_names
        assert np.array_equal(again.values, mat.values)

    def test_streamed_write_equals_save_of_the_whole_matrix(
            self, tmp_path, monkeypatch):
        store = make_store(n_subscribers=2 * _CHUNK_ROWS + 1, seed=4)
        names = enumerate_features(AXES)[:300]
        whole = compute_matrix(store, names, AXES)
        matrix_mod.save(whole, str(tmp_path / "whole.cfm"))
        want = (tmp_path / "whole.cfm").read_bytes()
        # rows of 32, 32 and 1; columns in blocks of 64
        monkeypatch.setattr(matrix_mod, "_BLOCK_VALUES", _CHUNK_ROWS * 64)
        assert [len(c) for c in row_chunks(store, names, AXES)] == \
            [_CHUNK_ROWS, _CHUNK_ROWS, 1]
        assert len(matrix_mod.column_blocks(len(store), len(names))) == 5
        path = tmp_path / "m.cfm"
        # each chunk is written before the next refills the same buffer
        digest = matrix_mod.write(str(path), whole.ego_ids, names,
                                  row_chunks(store, names, AXES))
        assert path.read_bytes() == want
        assert digest == hashlib.sha256(want).hexdigest()
        matrix_mod.save(compute_matrix(store, names, AXES), str(path))
        assert path.read_bytes() == want
        assert sorted(p.name for p in tmp_path.iterdir()) == ["m.cfm",
                                                              "whole.cfm"]

    def test_binary_magic_check(self, tmp_path):
        p = tmp_path / "bad.cfm"
        p.write_bytes(b"NOPE" + b"\x00" * 32)
        with pytest.raises(ValueError) as exc:
            matrix_mod.load(str(p))
        assert str(exc.value) == f"{p}: not a CFM1 matrix"

    def test_load_named_columns(self, tmp_path, random_store):
        names = enumerate_features(AXES)[:10]
        mat = compute_matrix(random_store, names, AXES)
        names = [mat.feature_names[3], mat.feature_names[1]]
        path = str(tmp_path / "m.cfm")
        matrix_mod.save(mat, path)
        sub = matrix_mod.load(path, names)
        assert sub.ego_ids == mat.ego_ids
        assert sub.feature_names == names
        assert np.array_equal(sub.values, mat.values[:, [3, 1]])
        assert sub.values.flags.c_contiguous
        assert np.array_equal(matrix_mod.load(path, []).values,
                              np.zeros((len(mat.ego_ids), 0)))
        with pytest.raises(KeyError) as exc:
            matrix_mod.load(path, [names[0], "not.a.feature"])
        assert f"{path}: no feature named 'not.a.feature'" in str(exc.value)


def test_small_config_featurize_bytes_pinned(tmp_path):
    # sha256 of the featurize outputs of configs/small.cfg: any change to
    # the feature or label values, or to their byte layout, fails here.
    # The later stages' manifests hold the hash of every file they write,
    # so the models, scores and reports that train, score and evaluate
    # make from columns read back through matrix.load are pinned too.
    # These are the bytes of one BLAS thread, which churnforge pins.
    from churnforge.cli import STAGES, main
    config = str(Path(__file__).resolve().parents[1] / "configs" / "small.cfg")
    for stage in STAGES:
        assert main([stage, "--config", config, "--out", str(tmp_path)]) == 0
    assert {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
            for name in ("matrix.cfm", "labels.csv", "manifest_select.json",
                         "manifest_train.json", "manifest_score.json",
                         "manifest_evaluate.json")} == {
        "matrix.cfm":
            "eb218a22bbc083201ba47f6bb92b02b077f5dcebb8162068bb4f1e4cc7ff70ee",
        "labels.csv":
            "b60a8d6544093f3efe0b318f2f83920ce0864098addbd70fe8a31df4fb2e76b6",
        "manifest_select.json":
            "f3e13dbf0fb554ed53874fe7650c26f2aed5c7990ab20ed0e7e135958bf220cd",
        "manifest_train.json":
            "7848a482dd45c936d72051f2c73cfcc352e779d0cbe83bb790609ec67c3015cf",
        "manifest_score.json":
            "974168e75df59937ec9e99e071fa6a553614a77d0d0b6392f64139d23d09b094",
        "manifest_evaluate.json":
            "d1885793f600e95163c2367fc0ca0346c2106459a564ad19ecd935b3d700c91e",
    }
