import datetime

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

    def test_day_of(self):
        assert WINDOW.day_of(WINDOW.start_epoch) == 0
        assert WINDOW.day_of(ts(5)) == 5
        assert WINDOW.contains(ts(182))
        assert not WINDOW.contains(ts(183))


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
        sub = store.subscribers[0]
        assert list(store.day_indices(sub)) == [2, 7, 10]

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


class TestRoundTrip:
    @pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
    def test_export_ingest_identity(self, tmp_path, seed):
        # the rows of a from_rows store, written as CDR CSV, ingest to it
        store = make_store(seed=seed)
        rows = [f"{sub.ego_id},{sub.alters[a]},{t},{KIND_TOKENS[k]},"
                f"{DIRECTION_TOKENS[d]},{dur},{ALTER_CLASS_TOKENS[ac]}"
                for sub in store.subscribers
                for t, k, d, dur, ac, a in zip(
                    sub.ts, sub.kind, sub.direction, sub.duration_s,
                    sub.alter_class, sub.alter_idx)]
        again = ingest(write_cdr(tmp_path / "roundtrip.csv", rows), WINDOW)
        assert again == store
        assert again.rejected == []


def test_header_sidecar_round_trip(tmp_path):
    path = tmp_path / "h.txt"
    write_header_sidecar(WINDOW, str(path))
    assert read_header_sidecar(str(path)) == WINDOW


def test_header_sidecar_bad_content(tmp_path):
    path = tmp_path / "h.txt"
    path.write_text("start_day=2024-01-01\n")
    with pytest.raises(CdrFormatError):
        read_header_sidecar(str(path))
