"""Call detail record model and CSV ingestion.

A dataset is a CDR CSV (one call or SMS event per line) plus a small
key=value header sidecar declaring the study window. All events are held
as one set of numpy column arrays sorted by subscriber (ego), so the
feature engine works on blocks of subscribers without touching Python
objects per record.

Ingest streams the file and never holds it whole. A first pass reads it
in blocks of whole lines to check its UTF-8, count its lines and decide
how to tokenize it; a second pass tokenizes it. A plain file, one
without ``"``, CR or NUL, is split in bulk with numpy from the same
blocks: each line is a record and commas separate its fields. Any other
file is tokenized by the ``csv`` module as it is decoded.
Both tokenizers feed one validator, chunk by chunk. A row whose numbers
are 1-18 ASCII digits, whose tokens match exactly and whose values are
in range is decoded column-wise; every other row goes through ``int()``
and ``_validate_fast``, the only source of rejection reasons. So both
give the same store, and the input alone decides which one runs.

Day arithmetic is timezone-free: day index = (timestamp - window start)
// 86400 with the window start pinned to 00:00 UTC of ``start_day``.
"""

from __future__ import annotations

import calendar
import csv
import datetime
import io
from dataclasses import dataclass

import numpy as np

from . import artifact

SECONDS_PER_DAY = 86400

KIND_TOKENS = ("CALL", "SMS")
DIRECTION_TOKENS = ("IN", "OUT")
ALTER_CLASS_TOKENS = (
    "ONNET",
    "COMPETITOR",
    "INTERNATIONAL",
    "INFO_PORTAL",
    "MOBILE_MONEY",
    "OTHER",
)

KIND_CALL, KIND_SMS = 0, 1
DIR_IN, DIR_OUT = 0, 1

_KIND_CODE = {t: i for i, t in enumerate(KIND_TOKENS)}
_DIR_CODE = {t: i for i, t in enumerate(DIRECTION_TOKENS)}
_ALTER_CLASS_CODE = {t: i for i, t in enumerate(ALTER_CLASS_TOKENS)}

CSV_HEADER = "ego_id,alter_id,timestamp,kind,direction,duration_s,alter_class"

_MAX_DURATION_S = 2 ** 31 - 1  # RecordStore.duration_s is int32


class CdrFormatError(Exception):
    """Raised when a file or header sidecar is structurally unusable."""


def _month_lengths(n_months: int) -> list[int]:
    # Fixed 31/30 alternation starting at 31; independent of real calendar.
    return [31 if i % 2 == 0 else 30 for i in range(n_months)]


@dataclass(frozen=True)
class StudyWindow:
    """Observation window split into fixed 31/30-day month tiles."""

    start_day: datetime.date
    total_days: int
    train_months: int = 4
    eval_months: int = 2

    def __post_init__(self):
        if self.train_months < 1:
            raise ValueError("train_months must be >= 1")
        if self.eval_months < 1:
            raise ValueError("eval_months must be >= 1")
        lengths = _month_lengths(self.train_months + self.eval_months)
        if sum(lengths) != self.total_days:
            raise ValueError(
                f"total_days={self.total_days} does not tile into "
                f"{self.train_months + self.eval_months} months of {lengths}"
            )

    @property
    def start_epoch(self) -> int:
        return calendar.timegm(self.start_day.timetuple())

    @property
    def month_ranges(self) -> list[tuple[int, int]]:
        """Half-open [start, end) day ranges, one per month tile."""
        ranges = []
        day = 0
        for length in _month_lengths(self.train_months + self.eval_months):
            ranges.append((day, day + length))
            day += length
        return ranges

    @property
    def train_days(self) -> int:
        return self.month_ranges[self.train_months - 1][1]


@dataclass(frozen=True)
class RejectedRow:
    line_no: int
    reason: str


@dataclass(frozen=True, eq=False)
class RecordStore:
    """Every accepted event as one set of column arrays.

    Rows are sorted by (ego, timestamp, file line). Subscriber ``i``,
    ``ego_ids[i]`` in lexicographic order, owns rows
    ``offsets[i]:offsets[i + 1]``. ``alter`` codes each counterparty by
    its first appearance in the file.
    """

    window: StudyWindow
    ego_ids: list[str]
    offsets: np.ndarray      # int64, len(ego_ids) + 1
    ts: np.ndarray           # int64
    kind: np.ndarray         # int8, KIND_TOKENS code
    direction: np.ndarray    # int8, DIRECTION_TOKENS code
    duration_s: np.ndarray   # int32
    alter_class: np.ndarray  # int8, ALTER_CLASS_TOKENS code
    alter: np.ndarray        # int32
    rejected: list[RejectedRow]

    @property
    def n_records(self) -> int:
        return len(self.ts)

    def __len__(self) -> int:
        return len(self.ego_ids)


def ingest(path: str, window: StudyWindow) -> RecordStore:
    """Parse a CDR CSV into a RecordStore.

    Well-formed rows are kept; malformed rows (wrong field count, bad
    enum token, negative or non-integer numerics, a duration beyond
    int32, timestamp outside the window, ego==alter, an ego id with a
    comma, quote or line break) are tallied with their line numbers on
    ``store.rejected`` instead of being silently dropped. A missing,
    empty or headerless file, invalid UTF-8 and a field longer than the
    ``csv`` module's field limit are fatal. So is a read error.
    """
    try:
        with open(path, "rb") as fh:
            plain, max_rows = _survey(path, _blocks(fh))
            fh.seek(0)
            if plain:
                return _decode(_split_plain(path, _blocks(fh)), window,
                               max_rows)
            with io.TextIOWrapper(fh, encoding="utf-8", newline="") as text:
                return _decode(_split_csv(path, text), window, max_rows)
    except OSError as exc:
        raise CdrFormatError(f"cannot read CDR file {path}: {exc}") from exc


def _blocks(fh):
    """The rest of ``fh`` in blocks of whole lines: each read of
    ``_CHUNK_BYTES`` is cut after its last line break and the rest carried
    into the next block; the last block may lack its line break. No cut
    falls inside a CRLF, so no UTF-8 character straddles one and the
    blocks' line breaks add up to the file's. A read is at least as long
    as the carry, so a line of any length is read in linear time."""
    carry = b""
    while data := fh.read(max(_CHUNK_BYTES, len(carry))):
        data = carry + data
        # a CR at the end of the read may be the first half of a CRLF
        cut = max(data.rfind(b"\n"), data.rfind(b"\r", 0, len(data) - 1)) + 1
        data, carry = data[:cut], data[cut:]
        if data:
            yield data
    if carry:
        yield carry


def _survey(path, blocks) -> tuple[bool, int]:
    """Check the UTF-8 of the whole file, block by block, before any row
    is tokenized; return whether the file is plain (no ``"``, CR or NUL)
    and a bound on its rows."""
    plain, max_rows, offset, lines = True, 1, 0, 0
    for block in blocks:
        if not block.isascii():
            try:
                block.decode("utf-8")
            except UnicodeDecodeError as exc:
                raise _utf8_error(path, block, exc, offset, lines) from None
        arr = np.frombuffer(block, dtype=np.uint8)
        n_lf, n_cr = (int(np.count_nonzero(arr == c)) for c in b"\n\r")
        plain = plain and not n_cr and b'"' not in block and b"\0" not in block
        max_rows += n_lf + n_cr
        offset += len(block)
        lines += n_lf + n_cr - (n_cr and block.count(b"\r\n"))
    if not offset:
        raise CdrFormatError(f"{path}: empty file, expected CSV header")
    return plain, max_rows


def _utf8_error(path, block, exc, offset, lines) -> CdrFormatError:
    """The error of decoding the whole file, from that of decoding the
    ``block`` that starts ``offset`` bytes and ``lines`` lines into it."""
    # line breaks before the bad byte, counted as csv does: CRLF, CR or LF
    head = block[:exc.start]
    lines += head.count(b"\n") + head.count(b"\r") - head.count(b"\r\n")
    start, end = offset + exc.start, offset + exc.end
    where = (f"byte 0x{block[exc.start]:02x} in position {start}"
             if end == start + 1 else f"bytes in position {start}-{end - 1}")
    return CdrFormatError(f"{path}: line {lines + 1}: 'utf-8' codec can't "
                          f"decode {where}: {exc.reason}")


def _check_header(path, header: list[str]) -> None:
    if [h.strip() for h in header] != CSV_HEADER.split(","):
        raise CdrFormatError(f"{path}: bad header {header!r}")


def _field_limit_error(path, line: int) -> CdrFormatError:
    return CdrFormatError(f"{path}: line {line}: field larger than field "
                          f"limit ({csv.field_size_limit()})")


# Both tokenizers check the header, then yield the data rows in chunks,
# which keep ingest's temporaries small: (buf, bounds, line_no, suspect,
# rejected). buf holds the chunk's fields; ``bounds`` has eight positions
# per row of seven fields (one row of ``bounds`` per position) such that
# field k of row i is buf[bounds[k, i] + 1:bounds[k + 1, i]]. ``suspect``
# marks rows that must be checked one at a time. Rows of another field
# count are rejected here.
_CHUNK_BYTES = 1 << 18  # read size; a plain file's chunks are its blocks
_CHUNK_ROWS = 1 << 13   # csv module: rows of seven fields


def _split_plain(path, blocks):
    """Tokenize a file without quotes, CR or NUL in bulk, a block of whole
    lines at a time: each line is a record and commas separate its
    fields, as ``csv`` reads it."""
    limit = csv.field_size_limit()
    first_line = 1
    for buf in blocks:
        if first_line == 1:  # the first block starts with the header
            pos = buf.find(b"\n") + 1 or len(buf)
            header = buf[:pos].rstrip(b"\n").decode()
            header = header.split(",") if header else []
            if any(len(h) > limit for h in header):
                raise _field_limit_error(path, 1)
            _check_header(path, header)
            buf, first_line = buf[pos:], 2
            if not buf:
                continue
        arr = np.frombuffer(buf, dtype=np.uint8)
        sep = np.flatnonzero((arr == ord(",")) | (arr == ord("\n")))
        # a field ends at each separator; a virtual newline sits before
        # the first line, and after the last if it has none
        tail = 0 if buf.endswith(b"\n") else 1
        ends = np.concatenate(([-1], sep, [len(buf)] * tail)).astype(np.int64)
        line_end = np.flatnonzero(np.concatenate(
            ([True], arr[sep] == ord("\n"), [True] * tail)))
        for i in np.flatnonzero(np.diff(ends) - 1 > limit).tolist():
            if len(buf[ends[i] + 1:ends[i + 1]].decode()) > limit:
                line = np.searchsorted(line_end, i, side="right") - 1
                raise _field_limit_error(path, first_line + int(line))
        n_fields = np.diff(line_end)
        rejected = [RejectedRow(first_line + j, "wrong field count")
                    for j in np.flatnonzero(n_fields != 7).tolist()]
        rows = np.flatnonzero(n_fields == 7)
        bounds = ends[line_end[rows] + np.arange(8)[:, None]]
        yield (buf, bounds, first_line + rows,
               np.zeros(len(rows), dtype=bool), rejected)
        first_line += len(n_fields)


def _split_csv(path, text):
    """Tokenize any other file, read as ``text``, with the ``csv`` module.
    The fields go into the buffer each followed by a NUL; a row with a
    comma, quote or line break inside a field is suspect. Line numbers
    count records."""
    reader = csv.reader(text)
    fields, line_no, rejected = [], [], []
    try:
        _check_header(path, next(reader, []))
        for n, row in enumerate(reader, start=2):
            if len(row) != 7:
                rejected.append(RejectedRow(n, "wrong field count"))
                continue
            line_no.append(n)
            fields.extend(row)
            if len(line_no) == _CHUNK_ROWS:
                yield _csv_chunk(fields, line_no, rejected)
                fields, line_no, rejected = [], [], []
    except csv.Error as exc:
        raise CdrFormatError(
            f"{path}: line {reader.line_num}: {exc}") from None
    yield _csv_chunk(fields, line_no, rejected)


def _csv_chunk(fields, line_no, rejected):
    encoded = [f.encode() for f in fields]
    buf = b"\0".join(encoded) + b"\0"
    ends = np.cumsum([0] + [len(f) + 1 for f in encoded]) - 1
    bounds = ends[7 * np.arange(len(line_no)) + np.arange(8)[:, None]]
    odd = np.flatnonzero(np.isin(np.frombuffer(buf, dtype=np.uint8),
                                 np.frombuffer(b',"\r\n', dtype=np.uint8)))
    suspect = np.zeros(len(line_no), dtype=bool)
    suspect[np.searchsorted(bounds[7], odd)] = True
    return buf, bounds, np.array(line_no, dtype=np.int64), suspect, rejected


# zero bytes around the buffer, so that reads of 16 bytes from a field's
# start and of 18 bytes before its end stay inside
_PAD = 24
# _HIGH[m] keeps the first m bytes of a big-endian 8-byte word
_HIGH = np.array([(1 << 64) - (1 << 8 * (8 - m)) for m in range(9)],
                 dtype=np.uint64)
_TENS = 10 ** np.arange(18, dtype=np.int64)


def _padded(buf: bytes) -> np.ndarray:
    """The bytes of ``buf`` from ``_PAD`` on, with zeros around them."""
    pad = np.zeros(len(buf) + 2 * _PAD, dtype=np.uint8)
    pad[_PAD:_PAD + len(buf)] = np.frombuffer(buf, dtype=np.uint8)
    return pad


def _words(pad: np.ndarray) -> np.ndarray:
    """``words[i]`` is ``pad[i:i + 8]`` read as a big-endian integer."""
    return np.ndarray((len(pad) - 7,), dtype=">u8", buffer=pad, strides=(1,))


def _prefix(words, start, size, off):
    """Bytes ``off:off + 8`` of each field as an integer, zero past its end."""
    return (words[start + off].astype(np.uint64)
            & _HIGH[np.clip(size - off, 0, 8)])


def _digits(pad, end, size):
    """Each field ending at ``end`` read as a number of 1-18 ASCII digits,
    and a mask of the fields that are such numbers."""
    value = np.zeros(len(end), dtype=np.int64)
    ok = (size >= 1) & (size <= 18)
    for k in range(min(int(size.max(initial=0)), 18)):
        # digit k from the right; a byte that is no digit wraps above 9
        digit = pad[end - 1 - k] - np.uint8(ord("0"))
        digit[k >= size] = 0
        ok &= digit <= 9
        value += digit * _TENS[k]
    return value, ok


def _token_codes(words, start, size, tokens) -> np.ndarray:
    """Each field's index in ``tokens``, -1 if it is none of them."""
    code = np.full(len(start), -1, dtype=np.int8)
    parts = [_prefix(words, start, size, off)
             for off in range(0, max(map(len, tokens)), 8)]
    for i, token in enumerate(tokens):
        raw = token.encode().ljust(8 * len(parts), b"\0")
        hit = size == len(token)
        for j, part in enumerate(parts):
            hit &= part == int.from_bytes(raw[8 * j:8 * j + 8], "big")
        code[hit] = i
    return code


def _id_codes(buf, start, size, keys, index: dict) -> np.ndarray:
    """Code each field by ``index``, the ids met so far in order of first
    appearance, adding the new ones.

    ``keys`` are the fields' first 16 bytes (``_prefix`` at 0 and 8). With
    the length they tell fields of up to 16 bytes apart, so only one
    field per distinct value is read in Python; longer fields are each
    read.
    """
    order = np.lexsort((size, keys[1], keys[0]))  # stable: first field first
    k0, k1, n = keys[0][order], keys[1][order], size[order]
    head = np.ones(len(order), dtype=bool)
    head[1:] = ((k0[1:] != k0[:-1]) | (k1[1:] != k1[:-1]) | (n[1:] != n[:-1])
                | (n[1:] > 16))
    first = order[head]
    group_code = np.empty(len(first), dtype=np.int64)
    for g in np.argsort(first).tolist():  # groups in order of appearance
        a = int(start[first[g]]) - _PAD
        group_code[g] = index.setdefault(buf[a:a + int(size[first[g]])],
                                         len(index))
    code = np.empty(len(order), dtype=np.int64)
    code[order] = group_code[np.cumsum(head) - 1]
    return code


def _decode(chunks, window: StudyWindow, max_rows: int) -> RecordStore:
    """Validate and decode the tokenized rows, at most ``max_rows`` of
    them, into a RecordStore.

    A row is surely valid if both numbers are 1-18 ASCII digits, the three
    tokens match exactly, the ids are non-empty and differ, and the values
    are in range; such rows are decoded column-wise. Every other row goes
    through ``int()`` and ``_validate_fast``, which give the reason of each
    rejected row.
    """
    lo_ts = window.start_epoch
    hi_ts = window.start_epoch + window.total_days * SECONDS_PER_DAY
    ego_index: dict[bytes, int] = {}
    alter_index: dict[bytes, int] = {}
    # ts, kind, direction, duration_s, alter_class, ego, alter
    columns = [np.empty(max_rows, dtype=t) for t in (
        np.int64, np.int8, np.int8, np.int32, np.int8, np.int32, np.int32)]
    n = 0
    rejected = []
    for chunk in chunks:
        for column, values in zip(columns, _decode_chunk(
                chunk, lo_ts, hi_ts, ego_index, alter_index, rejected)):
            column[n:n + len(values)] = values
        n += len(values)
    chunk = values = None  # the last chunk's buffers go before the sort
    rejected.sort(key=lambda r: r.line_no)
    # egos are coded by first appearance; re-code them by rank
    ego_ids = sorted(ego_index)
    rank = np.empty(len(ego_ids), dtype=np.int32)
    rank[[ego_index[e] for e in ego_ids]] = np.arange(len(ego_ids))
    ego = rank[columns.pop(5)[:n]]
    # bincount's int64 copy of the codes comes before the sort order
    offsets = np.zeros(len(ego_ids) + 1, dtype=np.int64)
    np.cumsum(np.bincount(ego, minlength=len(ego_ids)), out=offsets[1:])
    # stable: equal times keep file order
    order = np.lexsort((columns[0][:n], ego))
    del ego
    for k in range(len(columns)):  # each source goes once it is copied
        columns[k] = columns[k][order]
    return RecordStore(window, [e.decode() for e in ego_ids], offsets,
                       *columns, rejected)


def _decode_chunk(chunk, lo_ts, hi_ts, ego_index, alter_index, rejected):
    """The columns of a chunk's valid rows, in the order of ``_decode``'s;
    its rejected rows go on ``rejected``."""
    buf, bounds, line_no, suspect, chunk_rejected = chunk
    rejected += chunk_rejected
    pad = _padded(buf)
    words = _words(pad)

    def field(k):
        return bounds[k] + 1 + _PAD, bounds[k + 1] - bounds[k] - 1

    ts_at, ts_n = field(2)
    ts, ok = _digits(pad, ts_at + ts_n, ts_n)
    dur_at, dur_n = field(5)
    dur, dur_ok = _digits(pad, dur_at + dur_n, dur_n)
    kind = _token_codes(words, *field(3), KIND_TOKENS)
    direction = _token_codes(words, *field(4), DIRECTION_TOKENS)
    alter_class = _token_codes(words, *field(6), ALTER_CLASS_TOKENS)
    ego_at, ego_n = field(0)
    alter_at, alter_n = field(1)
    ego_key = [_prefix(words, ego_at, ego_n, off) for off in (0, 8)]
    alter_key = [_prefix(words, alter_at, alter_n, off) for off in (0, 8)]
    maybe_same = ((ego_n == alter_n) & (ego_key[0] == alter_key[0])
                  & (ego_key[1] == alter_key[1]))
    ok &= (dur_ok & (kind >= 0) & (direction >= 0) & (alter_class >= 0)
           & (ego_n > 0) & (alter_n > 0) & ~maybe_same & ~suspect
           & (dur <= _MAX_DURATION_S) & ((kind != KIND_SMS) | (dur == 0))
           & (ts >= lo_ts) & (ts < hi_ts))
    for i in np.flatnonzero(~ok).tolist():
        b = bounds[:, i].tolist()
        ego, alter, ts_s, kind_s, dir_s, dur_s, ac_s = (
            buf[b[k] + 1:b[k + 1]].decode() for k in range(7))
        try:
            ts_i = int(ts_s)
            dur_i = int(dur_s)
        except ValueError:
            rejected.append(RejectedRow(int(line_no[i]),
                                        "non-integer numeric field"))
            continue
        reason = _validate_fast(ego, alter, ts_i, kind_s, dir_s, dur_i,
                                ac_s, lo_ts, hi_ts)
        if reason is not None:
            rejected.append(RejectedRow(int(line_no[i]), reason))
            continue
        ts[i], dur[i] = ts_i, dur_i
        kind[i], direction[i] = _KIND_CODE[kind_s], _DIR_CODE[dir_s]
        alter_class[i] = _ALTER_CLASS_CODE[ac_s]
        ok[i] = True
    keep = np.flatnonzero(ok)
    return (ts[keep], kind[keep], direction[keep], dur[keep],
            alter_class[keep],
            _id_codes(buf, ego_at[keep], ego_n[keep],
                      [k[keep] for k in ego_key], ego_index),
            _id_codes(buf, alter_at[keep], alter_n[keep],
                      [k[keep] for k in alter_key], alter_index))


def _validate_fast(ego, alter, ts, kind, direction, dur, ac, lo_ts, hi_ts):
    if not ego or not alter:
        return "empty id"
    if "," in ego or '"' in ego or "\r" in ego or "\n" in ego:
        # labels.csv and the score files write ego ids unquoted
        return "ego_id contains a comma, quote or line break"
    if ego == alter:
        return "ego_id equals alter_id"
    if kind not in _KIND_CODE:
        return f"unknown kind {kind!r}"
    if direction not in _DIR_CODE:
        return f"unknown direction {direction!r}"
    if ac not in _ALTER_CLASS_CODE:
        return f"unknown alter_class {ac!r}"
    if dur < 0:
        return "negative duration_s"
    if dur > _MAX_DURATION_S:
        return "duration_s out of range"
    if kind == "SMS" and dur != 0:
        return "nonzero duration_s for SMS"
    if not (lo_ts <= ts < hi_ts):
        return "timestamp outside study window"
    return None


def write_header_sidecar(window: StudyWindow, path: str) -> str:
    return artifact.write_text(path,
                               f"start_day={window.start_day.isoformat()}\n"
                               f"total_days={window.total_days}\n"
                               f"train_months={window.train_months}\n"
                               f"eval_months={window.eval_months}\n")


_SIDECAR_KEYS = ("start_day", "total_days", "train_months", "eval_months")


def read_header_sidecar(path: str) -> StudyWindow:
    kv: dict[str, str] = {}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            for line_no, line in enumerate(fh, start=1):
                line = line.strip()
                if not line or line.startswith("#"):
                    continue
                k, eq, v = (part.strip() for part in line.partition("="))
                if not eq or k not in _SIDECAR_KEYS or k in kv:
                    why = "expected key=value" if not eq else (
                        "duplicate key" if k in kv else "unknown key")
                    raise CdrFormatError(
                        f"{path}:{line_no}: {why}: {line!r}")
                kv[k] = v
    except OSError as exc:
        raise CdrFormatError(f"cannot read header sidecar {path}: {exc}") from exc
    try:
        return StudyWindow(
            start_day=datetime.date.fromisoformat(kv["start_day"]),
            total_days=int(kv["total_days"]),
            train_months=int(kv["train_months"]),
            eval_months=int(kv["eval_months"]),
        )
    except (KeyError, ValueError) as exc:
        raise CdrFormatError(f"{path}: invalid header sidecar: {exc}") from exc
