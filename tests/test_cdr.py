import csv
import datetime
import errno
import io
import tracemalloc

import numpy as np
import pytest

import churnforge.cdr as cdr_mod
from churnforge.cdr import (ALTER_CLASS_TOKENS, CSV_HEADER, DIRECTION_TOKENS,
                            KIND_TOKENS, SECONDS_PER_DAY, CdrFormatError,
                            StudyWindow, ingest, read_header_sidecar,
                            write_header_sidecar)
from conftest import WINDOW, make_store, random_rows


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


@pytest.mark.parametrize("extra,message", [
    ("total_days=184\n", "duplicate key: 'total_days=184'"),
    ("days=183\n", "unknown key: 'days=183'"),
    ("# a comment\n\ntotal_days 183\n",
     "expected key=value: 'total_days 183'"),
], ids=["duplicate", "unknown", "no_equals"])
def test_header_sidecar_bad_line_names_file_and_line(tmp_path, extra,
                                                     message):
    # a repeated key must not silently win over the first
    path = tmp_path / "h.txt"
    write_header_sidecar(WINDOW, str(path))
    with open(path, "a", encoding="utf-8") as fh:
        fh.write(extra)
    line_no = 4 + extra.count("\n")
    with pytest.raises(CdrFormatError, match=f"{path}:{line_no}: {message}"):
        read_header_sidecar(str(path))


# A plain file is split in bulk; a quoted header field sends the same rows
# through the csv module. Both must give the same store, and so must the
# reference: every row checked one at a time by int() and _validate_fast.
QUOTED_HEADER = '"ego_id"' + CSV_HEADER[len("ego_id"):]


def _no_digits(words, end, size):
    """A _digits that reads no number, so that no row is surely valid."""
    return np.zeros(len(end), dtype=np.int64), np.zeros(len(end), dtype=bool)


def ingest_three(tmp_path, monkeypatch, text):
    """``text`` (the lines after the header) ingested as a plain file, as a
    file with a quoted header field, and as a plain file one row at a
    time. The three stores must be the same; returns the first."""
    stores = []
    for name, header in (("plain.csv", CSV_HEADER),
                         ("quoted.csv", QUOTED_HEADER)):
        path = tmp_path / name
        path.write_bytes(f"{header}\n{text}".encode())
        stores.append(ingest(str(path), WINDOW))
    with monkeypatch.context() as patch:
        patch.setattr(cdr_mod, "_digits", _no_digits)
        stores.append(ingest(str(tmp_path / "plain.csv"), WINDOW))
    for store in stores[1:]:
        assert_same_store(stores[0], store)
    return stores[0]


def assert_same_store(a, b):
    assert a.ego_ids == b.ego_ids
    assert a.rejected == b.rejected
    for column in ("offsets", "ts", "kind", "direction", "duration_s",
                   "alter_class", "alter"):
        x, y = getattr(a, column), getattr(b, column)
        assert x.dtype == y.dtype and np.array_equal(x, y), column


T = ts(3)
SHARED_PREFIX_IDS = [("S100000000", "S1"), ("S1", "S10"), ("S10", "S100000000"),
                     ("S123456789", "S123456788"), ("S123456788", "S123456789"),
                     ("S1234567890123456789", "S12345678901234567"),
                     ("S12345678901234567", "S1234567890123456789")]
TOKENIZER_CASES = {
    "blank_lines": (f"A,B,{T},CALL,OUT,60,ONNET\n\n\nA,C,{T},SMS,IN,0,OTHER\n",
                    2, ["wrong field count"] * 2),
    "no_trailing_newline": (f"A,B,{T},CALL,OUT,60,ONNET\nB,A,{T},SMS,IN,0,OTHER",
                            2, []),
    "header_only": ("", 0, []),
    "six_and_eight_fields": (f"A,B,{T},CALL,OUT,60\n"
                             f"A,B,{T},CALL,OUT,60,ONNET,X\n"
                             f"A,B,{T},CALL,OUT,60,ONNET\n",
                             1, ["wrong field count"] * 2),
    "loose_integers": (f"A,B,{T},CALL,OUT,+5,ONNET\nA,B,{T},CALL,OUT, 5,ONNET\n"
                       f"A,B,{T},CALL,OUT,1_0,ONNET\n"
                       f"A,B,{T:020d},CALL,OUT,60,ONNET\n"
                       f"A,B,{T},CALL,OUT,٥٠,ONNET\n"
                       f"A,B,{T},CALL,OUT,5x,ONNET\n",
                       5, ["non-integer numeric field"]),
    "empty_ids": (f",B,{T},CALL,OUT,60,ONNET\nA,,{T},CALL,OUT,60,ONNET\n",
                  0, ["empty id"] * 2),
    "ego_equals_alter": (f"A,A,{T},CALL,OUT,60,ONNET\n"
                         f"{'L' * 20},{'L' * 20},{T},CALL,OUT,60,ONNET\n"
                         f"{'L' * 20},{'L' * 19}M,{T},CALL,OUT,60,ONNET\n",
                         1, ["ego_id equals alter_id"] * 2),
    "bad_tokens": (f"A,B,{T},RING,OUT,60,ONNET\nA,B,{T},CALL,SIDEWAYS,60,ONNET\n"
                   f"A,B,{T},CALL,OUT,60,MARS\nA,B,{T},call,OUT,60,ONNET\n"
                   f"A,B,{T},CALL,OUT,60,ONNET \nA,B,{T},SMS,OUT,12,ONNET\n",
                   0, ["unknown kind 'RING'", "unknown direction 'SIDEWAYS'",
                       "unknown alter_class 'MARS'", "unknown kind 'call'",
                       "unknown alter_class 'ONNET '",
                       "nonzero duration_s for SMS"]),
    "duration_range": (f"A,B,{T},CALL,OUT,{2 ** 31},ONNET\n"
                       f"A,B,{T},CALL,OUT,{2 ** 31 - 1},ONNET\n"
                       f"A,B,{T},CALL,OUT,-1,ONNET\n",
                       1, ["duration_s out of range", "negative duration_s"]),
    "window": (f"A,B,{WINDOW.start_epoch - 1},CALL,OUT,6,ONNET\n"
               f"A,B,{WINDOW.start_epoch},CALL,OUT,6,ONNET\n"
               f"A,B,{10 ** 18},CALL,OUT,6,ONNET\n",
               1, ["timestamp outside study window"] * 2),
    "shared_prefixes": ("".join(f"{e},{a},{T + i},CALL,OUT,60,ONNET\n"
                                for i, (e, a) in enumerate(SHARED_PREFIX_IDS)),
                        7, []),
    # a quote or NUL sends both files through the csv module
    "quoted_fields": (f'"S,1",B,{T},CALL,OUT,60,ONNET\n'
                      f'"S\n2",B,{T},CALL,OUT,60,ONNET\n'
                      f'A,"B,C",{T},CALL,OUT,60,ONNET\n'
                      f'A,B,{T},"CALL",OUT,60,ONNET\n'
                      f'A,B,{T},CALL\0,OUT,60,ONNET\n',
                      2, ["ego_id contains a comma, quote or line break"] * 2
                      + ["unknown kind 'CALL\\x00'"]),
    "code_point_order": (f"É,Z,{T},CALL,OUT,60,ONNET\n"
                         f"a,É,{T},SMS,IN,0,OTHER\n"
                         f"Z,a,{T},CALL,IN,7,COMPETITOR\n", 3, []),
}


@pytest.mark.parametrize("case", sorted(TOKENIZER_CASES))
def test_tokenizers_agree(tmp_path, monkeypatch, case):
    text, n_records, reasons = TOKENIZER_CASES[case]
    plain = ingest_three(tmp_path, monkeypatch, text)
    assert plain.n_records == n_records
    assert [r.reason for r in plain.rejected] == reasons
    assert plain.ego_ids == sorted(plain.ego_ids)


def test_tokenizers_agree_on_ids_and_line_numbers(tmp_path, monkeypatch):
    text, _, _ = TOKENIZER_CASES["code_point_order"]
    plain = ingest_three(tmp_path, monkeypatch, text)
    assert plain.ego_ids == ["Z", "a", "É"]
    # alters coded by first appearance (Z, É, a), rows in ego order
    assert plain.alter.tolist() == [2, 1, 0]
    text, _, _ = TOKENIZER_CASES["shared_prefixes"]
    plain = ingest_three(tmp_path, monkeypatch, text)
    egos = ["S1", "S10", "S100000000", "S123456788", "S123456789",
            "S12345678901234567", "S1234567890123456789"]
    assert plain.ego_ids == egos
    assert plain.alter.max() + 1 == len(egos)
    text, _, _ = TOKENIZER_CASES["six_and_eight_fields"]
    plain = ingest_three(tmp_path, monkeypatch, "\n" + text)
    assert [r.line_no for r in plain.rejected] == [2, 3, 4]


def _mutate(line, rng):
    cut = int(rng.integers(0, len(line) + 1))
    junk = ["", ",", "\n", "+", " ", "_", "-", "٥", "É", "9", "x",
            "SMS", "CALL", "OUT", "ONNET", "12345678901234567890"]
    return line[:cut] + junk[int(rng.integers(0, len(junk)))] + line[cut:]


def test_tokenizers_agree_on_mutated_rows(tmp_path, monkeypatch):
    rng = np.random.default_rng(7)
    lines = [f"{e},{a},{t},{KIND_TOKENS[k]},{DIRECTION_TOKENS[d]},{dur},"
             f"{ALTER_CLASS_TOKENS[ac]}"
             for e, a, t, k, d, dur, ac in random_rows(seed=11)]
    lines = [_mutate(line, rng) if rng.random() < 0.3 else line
             for line in lines]
    text = "\n".join(lines) + "\n"
    whole = ingest_three(tmp_path, monkeypatch, text)
    assert whole.n_records > 100 and len(whole.rejected) > 20
    # chunk boundaries every few lines must not change the store
    monkeypatch.setattr(cdr_mod, "_CHUNK_BYTES", 100)
    monkeypatch.setattr(cdr_mod, "_CHUNK_ROWS", 3)
    assert_same_store(ingest_three(tmp_path, monkeypatch, text), whole)


# lines that straddle reads of a few bytes: multi-byte characters, rows
# the csv module and the row-by-row checks reject, and blank lines
STRADDLING = "".join(TOKENIZER_CASES[case][0] for case in (
    "code_point_order", "loose_integers", "six_and_eight_fields",
    "blank_lines", "shared_prefixes", "no_trailing_newline"))
NEWLINES = {"lf": "\n", "crlf": "\r\n", "cr": "\r"}


@pytest.mark.parametrize("newline", sorted(NEWLINES))
def test_reads_of_a_few_bytes_give_the_same_store(tmp_path, monkeypatch,
                                                  newline):
    # LF leaves plain.csv plain; CRLF and CR send both files through the
    # csv module
    text = STRADDLING.replace("\n", NEWLINES[newline])
    whole = ingest_three(tmp_path, monkeypatch, text)
    assert whole.n_records == 20 and len(whole.rejected) == 5
    for size in range(1, 13):
        monkeypatch.setattr(cdr_mod, "_CHUNK_BYTES", size)
        assert_same_store(ingest_three(tmp_path, monkeypatch, text), whole)


def whole_file_utf8_error(path) -> str:
    """The message of the UTF-8 check run over the whole file at once,
    as ingest did when it read the file whole."""
    data = path.read_bytes()
    try:
        data.decode("utf-8")
    except UnicodeDecodeError as exc:
        head = data[:exc.start]
        line = (head.count(b"\n") + head.count(b"\r") - head.count(b"\r\n")
                + 1)
        return f"{path}: line {line}: {exc}"
    raise AssertionError(f"{path} is valid UTF-8")


def ingest_error(path) -> str:
    with pytest.raises(CdrFormatError) as err:
        ingest(str(path), WINDOW)
    return str(err.value)


@pytest.mark.parametrize("newline", sorted(NEWLINES))
@pytest.mark.parametrize("header", [CSV_HEADER, QUOTED_HEADER, "who,what"],
                         ids=["plain", "quoted", "bad_header"])
@pytest.mark.parametrize("bad", [b"\xff", b"\xe2\x82(", b"\xc3,", b"\xe2\x82"],
                         ids=["start_byte", "two_bytes", "one_byte", "end"])
def test_invalid_utf8_on_a_late_line_names_it_at_every_read_size(
        tmp_path, monkeypatch, newline, header, bad):
    # the file's own error, even under a bad header; "end" cuts the file
    # inside a character
    path = tmp_path / "c.csv"
    head = f"{header}\n{STRADDLING}\n".replace("\n", NEWLINES[newline])
    path.write_bytes(head.encode() + b"A,B" + bad
                     + (b"" if bad == b"\xe2\x82" else b",1\nA,B,1\n"))
    expected = whole_file_utf8_error(path)
    assert f": line {STRADDLING.count(chr(10)) + 3}: " in expected
    for size in (1, 2, 3, 5, 7, 64, 1 << 18):
        monkeypatch.setattr(cdr_mod, "_CHUNK_BYTES", size)
        assert ingest_error(path) == expected


@pytest.mark.parametrize("newline", sorted(NEWLINES))
@pytest.mark.parametrize("header", [CSV_HEADER, QUOTED_HEADER],
                         ids=["plain", "quoted"])
def test_oversized_field_keeps_its_line_at_every_read_size(
        tmp_path, monkeypatch, newline, header):
    limit = csv.field_size_limit()
    csv.field_size_limit(24)  # longer than every field before the last
    try:
        path = tmp_path / "c.csv"
        text = f"{header}\n{STRADDLING}\nA,{'B' * 25},{T},CALL,OUT,6,ONNET\n"
        path.write_bytes(text.replace("\n", NEWLINES[newline]).encode())
        line = STRADDLING.count("\n") + 3
        expected = (f"{path}: line {line}: field larger than field limit "
                    f"(24)")
        for size in (1, 2, 3, 5, 7, 64, 1 << 18):
            monkeypatch.setattr(cdr_mod, "_CHUNK_BYTES", size)
            assert ingest_error(path) == expected
    finally:
        csv.field_size_limit(limit)


def test_ingest_holds_no_more_than_the_sort_order_a_column_and_a_block(
        tmp_path, monkeypatch):
    # a plain file of about 7 MB: ingest streams it, so what it holds
    # beyond the store it returns is the sort order (8 bytes a row), the
    # one column being reordered (at most 8 bytes a row) and a block's
    # decode temporaries, about 13 bytes for each byte of the block. The
    # file has few distinct ids, so the id maps add little.
    monkeypatch.setattr(cdr_mod, "_CHUNK_BYTES", 1 << 16)
    rng = np.random.default_rng(0)
    n = 150_000
    ego, alter = rng.integers(0, 200, n), rng.integers(0, 500, n)
    when = WINDOW.start_epoch + rng.integers(0, WINDOW.total_days
                                             * SECONDS_PER_DAY, n)
    path = tmp_path / "c.csv"
    write_cdr(path, [f"S{e:05d},A{a:06d},{t},CALL,OUT,{t % 3600},ONNET"
                     for e, a, t in zip(ego.tolist(), alter.tolist(),
                                        when.tolist())])
    assert path.stat().st_size > 6_000_000
    tracemalloc.start()
    try:
        store = ingest(str(path), WINDOW)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert store.n_records == n
    assert peak - held < 16 * n + 16 * cdr_mod._CHUNK_BYTES


class FailingReader(io.BufferedReader):
    """A file whose reads fail once ``reads`` of them have been made."""

    def __init__(self, path, reads):
        super().__init__(io.FileIO(path))
        self.reads = reads

    def _count(self):
        self.reads -= 1
        if self.reads < 0:
            raise OSError(errno.EIO, "Input/output error")

    def read(self, *args):
        self._count()
        return super().read(*args)

    def read1(self, *args):
        self._count()
        return super().read1(*args)


@pytest.mark.parametrize("header", [CSV_HEADER, QUOTED_HEADER],
                         ids=["plain", "quoted"])
def test_a_failed_read_in_either_pass_names_the_file(tmp_path, monkeypatch,
                                                     header):
    path = tmp_path / "c.csv"
    path.write_bytes(f"{header}\n{STRADDLING}".encode())
    monkeypatch.setattr(cdr_mod, "_CHUNK_BYTES", 64)
    reads = 0
    while True:  # fail each read in turn, until none is left to fail
        monkeypatch.setattr(cdr_mod, "open", lambda p, mode, k=reads:
                            FailingReader(p, k), raising=False)
        try:
            ingest(str(path), WINDOW)
            break
        except CdrFormatError as exc:
            assert str(exc) == (f"cannot read CDR file {path}: "
                                f"[Errno {errno.EIO}] Input/output error")
        reads += 1
    # the first pass reads the file 64 bytes at a time; the second too
    first_pass = path.stat().st_size // 64 + 1
    assert reads > first_pass
