import datetime

import numpy as np
import pytest

from churnforge.cdr import (ALTER_CLASS_TOKENS, CSV_HEADER, DIRECTION_TOKENS,
                            KIND_TOKENS, SECONDS_PER_DAY, CdrFormatError,
                            StudyWindow, ingest, read_header_sidecar,
                            write_header_sidecar)
from conftest import WINDOW, make_store


def write_cdr(path, rows):
    path.write_text(CSV_HEADER + "\n" + "".join(r + "\n" for r in rows))
    return str(path)


def ts(day, hour=12, minute=0):
    return WINDOW.start_epoch + day * SECONDS_PER_DAY + hour * 3600 + minute * 60


class TestStudyWindow:
    def test_183_days_tiles_into_31_30_alternation(self):
        assert WINDOW.month_ranges == [(0, 31), (31, 61), (61, 92),
                                       (92, 122), (122, 153), (153, 183)]
        assert WINDOW.train_days == 122

    def test_total_days_must_match_tiling(self):
        with pytest.raises(ValueError):
            StudyWindow(datetime.date(2024, 1, 1), 180, 4, 2)

    def test_zero_eval_months_rejected(self):
        with pytest.raises(ValueError):
            StudyWindow(datetime.date(2024, 1, 1), 122, 4, 0)


class TestIngest:
    def test_empty_file_with_header(self, tmp_path):
        store = ingest(write_cdr(tmp_path / "c.csv", []), WINDOW)
        assert len(store) == 0
        assert store.rejected == []

    def test_out_of_order_rows_sorted(self, tmp_path):
        rows = [
            f"A,B,{ts(10)},CALL,OUT,60,ONNET",
            f"A,B,{ts(2)},CALL,OUT,60,ONNET",
            f"A,B,{ts(7)},SMS,IN,0,OTHER",
        ]
        store = ingest(write_cdr(tmp_path / "c.csv", rows), WINDOW)
        assert store.ego_ids == ["A"]
        assert store.offsets.tolist() == [0, 3]
        days = (store.ts - WINDOW.start_epoch) // SECONDS_PER_DAY
        assert days.tolist() == [2, 7, 10]

    def test_window_edges(self, tmp_path):
        # the first and last second of the window are in it, the next
        # second is not
        end = WINDOW.start_epoch + WINDOW.total_days * SECONDS_PER_DAY
        rows = [f"A,B,{t},SMS,IN,0,ONNET"
                for t in (WINDOW.start_epoch, end - 1, end)]
        store = ingest(write_cdr(tmp_path / "c.csv", rows), WINDOW)
        assert store.ts.tolist() == [WINDOW.start_epoch, end - 1]
        assert [r.line_no for r in store.rejected] == [4]
        assert "outside" in store.rejected[0].reason

    def test_columns_sorted_by_ego_then_time_then_line(self, tmp_path):
        rows = [
            f"B,X,{ts(3)},CALL,OUT,60,ONNET",
            f"A,Y,{ts(5)},SMS,IN,0,OTHER",
            f"B,Y,{ts(1)},CALL,IN,7,COMPETITOR",
            f"A,X,{ts(5)},CALL,OUT,9,ONNET",
            f"C,Z,{ts(2)},SMS,OUT,0,INTERNATIONAL",
            f"A,Z,{ts(4)},CALL,IN,30,MOBILE_MONEY",
        ]
        store = ingest(write_cdr(tmp_path / "c.csv", rows), WINDOW)
        assert store.ego_ids == ["A", "B", "C"]
        assert store.offsets.tolist() == [0, 3, 5, 6]
        assert store.n_records == 6 and len(store) == 3
        # file lines 7, 3, 5 (A); 4, 2 (B); 6 (C)
        assert store.ts.tolist() == [ts(4), ts(5), ts(5), ts(1), ts(3), ts(2)]
        assert store.duration_s.tolist() == [30, 0, 9, 7, 60, 0]
        assert store.kind.tolist() == [0, 1, 0, 0, 0, 1]
        assert store.direction.tolist() == [0, 0, 1, 0, 1, 1]
        assert store.alter_class.tolist() == [4, 5, 0, 1, 0, 2]
        # alters coded by first appearance in the file: X, Y, Z
        assert store.alter.tolist() == [2, 1, 0, 1, 0, 2]

    def test_negative_duration_rejected_with_line_number(self, tmp_path):
        rows = [
            f"A,B,{ts(1)},CALL,OUT,60,ONNET",
            f"A,B,{ts(2)},CALL,OUT,-5,ONNET",
        ]
        store = ingest(write_cdr(tmp_path / "c.csv", rows), WINDOW)
        assert store.n_records == 1
        assert len(store.rejected) == 1
        assert store.rejected[0].line_no == 3
        assert "duration" in store.rejected[0].reason

    @pytest.mark.parametrize("row,reason_part", [
        (f"A,B,{0},CALL,OUT,60,ONNET", "outside"),
        (f"A,B,{10**12},CALL,OUT,60,ONNET", "outside"),
        ("A,B,notatime,CALL,OUT,60,ONNET", "non-integer"),
        (f"A,B,{1704067200 + 3600},RING,OUT,60,ONNET", "kind"),
        (f"A,B,{1704067200 + 3600},CALL,SIDEWAYS,60,ONNET", "direction"),
        (f"A,B,{1704067200 + 3600},CALL,OUT,60,MARS", "alter_class"),
        (f"A,A,{1704067200 + 3600},CALL,OUT,60,ONNET", "equals"),
        (f"A,B,{1704067200 + 3600},SMS,OUT,12,ONNET", "SMS"),
        ("A,B,bad", "field count"),
        (f"A,B,{1704067200 + 3600},CALL,OUT,{2 ** 31},ONNET",
         "duration_s out of range"),
    ])
    def test_malformed_rows_tallied(self, tmp_path, row, reason_part):
        store = ingest(write_cdr(tmp_path / "c.csv", [row]), WINDOW)
        assert store.n_records == 0
        assert len(store.rejected) == 1
        assert reason_part in store.rejected[0].reason

    def test_unreadable_file_is_fatal(self, tmp_path):
        with pytest.raises(CdrFormatError):
            ingest(str(tmp_path / "nope.csv"), WINDOW)

    def test_bad_header_is_fatal(self, tmp_path):
        p = tmp_path / "c.csv"
        p.write_text("who,what\n")
        with pytest.raises(CdrFormatError):
            ingest(str(p), WINDOW)


def first_seen(codes):
    """``codes`` renumbered by first appearance."""
    _, first, inverse = np.unique(codes, return_index=True,
                                  return_inverse=True)
    return np.argsort(np.argsort(first))[inverse]


class TestRoundTrip:
    @pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
    def test_export_ingest_identity(self, tmp_path, seed):
        # a store's rows, written back as CDR CSV, ingest to the same store
        store = make_store(seed=seed)
        ego = np.repeat(store.ego_ids, np.diff(store.offsets))
        rows = [f"{e},A{a},{t},{KIND_TOKENS[k]},{DIRECTION_TOKENS[d]},"
                f"{dur},{ALTER_CLASS_TOKENS[ac]}"
                for e, a, t, k, d, dur, ac in zip(
                    ego, store.alter, store.ts, store.kind, store.direction,
                    store.duration_s, store.alter_class)]
        again = ingest(write_cdr(tmp_path / "roundtrip.csv", rows), WINDOW)
        assert again.window == store.window
        assert again.ego_ids == store.ego_ids
        assert again.rejected == []
        for column in ("offsets", "ts", "kind", "direction", "duration_s",
                       "alter_class"):
            a, b = getattr(again, column), getattr(store, column)
            assert a.dtype == b.dtype and np.array_equal(a, b), column
        # both code the same alters, each by its own first appearance
        assert np.array_equal(again.alter, first_seen(store.alter))


def test_header_sidecar_round_trip(tmp_path):
    path = tmp_path / "h.txt"
    write_header_sidecar(WINDOW, str(path))
    assert read_header_sidecar(str(path)) == WINDOW


def test_header_sidecar_bad_content(tmp_path):
    path = tmp_path / "h.txt"
    path.write_text("start_day=2024-01-01\n")
    with pytest.raises(CdrFormatError):
        read_header_sidecar(str(path))
