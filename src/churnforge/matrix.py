"""Dense feature matrix container and its on-disk format, CFM1.

A CFM1 file is the magic ``CFM1``, the row and column counts, the ego
and feature-name tables, then the float64 values, little-endian and
column-major. It round-trips exactly, and a reader can take any column
without reading the others.

``write`` builds a CFM1 file from its row chunks, so ``featurize``
never holds the whole float matrix either; ``save`` writes an in-memory
matrix as its one chunk. ``load`` returns the whole matrix or only the
columns it is asked for, so ``train``, ``score`` and ``evaluate`` read
only the columns they use, and checks that every cell it reads is
finite. ``columns`` reads a matrix one block of columns at a time
(``select`` never holds the whole float matrix), ``column_blocks`` cuts
those blocks, and ``column_spans`` cuts a block into the 64-column
slices that ``select`` scores and ranks one at a time.
"""

from __future__ import annotations

import os
import struct
import tempfile
import weakref
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, NamedTuple

import numpy as np

from . import artifact

_MAGIC = b"CFM1"
# About this many cells per block of columns: 1 MB of float64, so that
# ``select``'s scan blocks (and ``write``'s gather blocks) stay small.
# The forest that ``select`` grows next does not need larger ones: its
# histogram search bins at most 512 KB arrays at a time
# (``tree._HIST_CELLS``), which glibc serves from its heap, where a
# whole-node search ran fast only after the free of a larger block had
# raised glibc's mmap threshold.
_BLOCK_VALUES = 1 << 17
_NARROWEST = 4  # columns in a last block or slice; narrower ones join in


def column_blocks(n_rows: int, n_cols: int) -> list[tuple[int, int]]:
    """(lo, hi) spans that cut the columns into blocks of about
    ``_BLOCK_VALUES`` cells, by ``column_spans``."""
    return column_spans(
        n_cols, max(64, _BLOCK_VALUES // max(n_rows, 1) // 64 * 64))


def column_spans(n_cols: int, width: int = 64) -> list[tuple[int, int]]:
    """(lo, hi) spans that cut ``n_cols`` columns into ``width`` wide
    ones, a multiple of 64.

    A last span narrower than ``_NARROWEST`` columns joins the span
    before it. BLAS sums each column of a block as over the whole matrix
    only where the blocks start on the same multiples, and not in a
    block of one to three columns: numpy sums a one-column block's rows
    pairwise, and OpenBLAS's matrix-vector product sums a block of two
    or three columns in another order than it sums the last columns of a
    wider block. ``select`` scores and ranks each block in 64-column
    slices cut by this rule too, so every slice sums as the whole
    matrix would.
    """
    spans = [(lo, min(lo + width, n_cols)) for lo in range(0, n_cols, width)]
    if len(spans) > 1 and spans[-1][1] - spans[-1][0] < _NARROWEST:
        spans[-2:] = [(spans[-2][0], n_cols)]
    return spans


def _first_nonfinite(cols: np.ndarray) -> tuple[int, int] | None:
    """(column, row) of the first non-finite cell, in column order, of
    the (columns, rows) block ``cols``, or None."""
    finite = np.isfinite(cols)
    if finite.all():
        return None
    j, i = np.argwhere(~finite)[0]
    return int(j), int(i)


def _nonfinite(ego: str, name: str) -> ValueError:
    return ValueError(f"non-finite value at ego {ego}, feature {name}")


def check_block_finite(cols: np.ndarray, ego_ids: list[str],
                       feature_names: list[str], lo: int = 0) -> None:
    """ValueError naming the first non-finite cell, in column order, of
    ``cols``: the (columns, rows) block of the matrix's columns from
    ``lo`` on."""
    bad = _first_nonfinite(cols)
    if bad is not None:
        raise _nonfinite(ego_ids[bad[1]], feature_names[lo + bad[0]])


def check_chunks_finite(chunks: Iterable[np.ndarray], ego_ids: list[str],
                        feature_names: list[str]) -> Iterator[np.ndarray]:
    """Pass on the row chunks of a matrix; after the last, ValueError
    naming its first non-finite cell in column order, if it has one.

    The first non-finite cell of a later chunk comes first when it lies
    in an earlier column, so the error waits for every chunk.
    """
    first = None  # (column, row) over the chunks so far
    r0 = 0
    for chunk in chunks:
        bad = _first_nonfinite(chunk.T)
        if bad is not None:
            bad = (bad[0], r0 + bad[1])
            first = bad if first is None else min(first, bad)
        r0 += len(chunk)
        yield chunk
    if first is not None:
        raise _nonfinite(ego_ids[first[1]], feature_names[first[0]])


@dataclass
class FeatureMatrix:
    ego_ids: list[str]
    feature_names: list[str]
    values: np.ndarray  # (n_subscribers, n_features) float64

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.float64)
        if self.values.shape != (len(self.ego_ids), len(self.feature_names)):
            raise ValueError(
                f"matrix shape {self.values.shape} does not match "
                f"{len(self.ego_ids)} egos x {len(self.feature_names)} features")

    @property
    def shape(self) -> tuple[int, int]:
        return self.values.shape


class Columns(NamedTuple):
    """A matrix read a block of columns at a time: ``read(lo, hi)``
    returns columns lo..hi-1 as a (hi - lo, rows) array."""
    ego_ids: list[str]
    feature_names: list[str]
    read: Callable[[int, int], np.ndarray]


def write(path: str, ego_ids: list[str], feature_names: list[str],
          chunks: Iterable[np.ndarray]) -> str:
    """Write the CFM1 matrix whose rows ``chunks`` yields, in order, as
    (rows, columns) arrays, through ``artifact.write``; return its sha256.

    Each chunk is appended column-major to a spill file in the directory
    of ``path``. Then each ``column_blocks`` span is read from every
    chunk and written as one block of the value section, so the file is
    written in order and the whole matrix is never held.
    """
    n_rows, n_cols = len(ego_ids), len(feature_names)
    ego_blob = "\n".join(ego_ids).encode("utf-8")
    name_blob = "\n".join(feature_names).encode("utf-8")
    with tempfile.TemporaryFile(dir=os.path.dirname(path) or ".") as spill:
        parts = []  # (first row, rows) of each chunk in the spill file
        start = 0
        for chunk in chunks:
            spill.write(np.ascontiguousarray(chunk.T, dtype="<f8"))
            parts.append((start, len(chunk)))
            start += len(chunk)

        def fill(fh):
            fh.write(_MAGIC)
            fh.write(struct.pack("<II", n_rows, n_cols))
            fh.write(struct.pack("<I", len(ego_blob)))
            fh.write(ego_blob)
            fh.write(struct.pack("<I", len(name_blob)))
            fh.write(name_blob)
            for lo, hi in column_blocks(n_rows, n_cols):
                block = np.empty((hi - lo, n_rows), dtype="<f8")
                for r0, rows in parts:
                    part = np.empty((hi - lo, rows), dtype="<f8")
                    spill.seek((r0 * n_cols + lo * rows) * 8)
                    spill.readinto(part)
                    block[:, r0:r0 + rows] = part
                fh.write(block)

        return artifact.write(path, fill)


def save(matrix: FeatureMatrix, path: str) -> str:
    """``write`` of an in-memory matrix, as one chunk."""
    return write(path, matrix.ego_ids, matrix.feature_names, [matrix.values])


def read_exact(fh, n: int, what: str) -> bytes:
    """The next ``n`` bytes of ``fh``, or ValueError naming the file."""
    _check_left(fh, n, what)
    return fh.read(n)


def _check_left(fh, n: int, what: str) -> None:
    left = os.fstat(fh.fileno()).st_size - fh.tell()
    if n > left:
        raise ValueError(f"{fh.name}: truncated {what}: "
                         f"needs {n} bytes, {left} left")


def _column_indices(path: str, feature_names: list[str],
                    names: list[str]) -> list[int]:
    lookup = {n: i for i, n in enumerate(feature_names)}
    for n in names:
        if n not in lookup:
            raise KeyError(f"{path}: no feature named {n!r}")
    return [lookup[n] for n in names]


def load(path: str, names: list[str] | None = None) -> FeatureMatrix:
    """The matrix at ``path``, or only its ``names`` columns in the order
    named; KeyError naming the file for a name the matrix lacks, and
    ValueError naming it with the first non-finite cell read."""
    cols = columns(path)
    if names is None:
        names = cols.feature_names
        cells = cols.read(0, len(names))
    else:
        idx = _column_indices(path, cols.feature_names, names)
        cells = np.empty((len(idx), len(cols.ego_ids)))
        for j, i in enumerate(idx):
            cells[j] = cols.read(i, i + 1)[0]
    try:
        check_block_finite(cells, cols.ego_ids, names)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
    # C order: numpy sums the columns of an F-ordered array in another
    # order, and the last bits of every mean a model stores would change
    return FeatureMatrix(cols.ego_ids, list(names),
                         np.ascontiguousarray(cells.T))


def columns(path: str) -> Columns:
    """The CFM1 matrix at ``path`` as ``Columns``; ValueError naming the
    file if it is not one or does not hold the whole value block.

    Each ``read`` takes just its columns from the column-major value
    block, so the whole float matrix is never held. The reads share one
    descriptor, closed when ``read`` goes, and carry no file position,
    so forked pool children may read at once.
    """
    with open(path, "rb") as fh:
        if fh.read(4) != _MAGIC:
            raise ValueError(f"{path}: not a CFM1 matrix")
        n_rows, n_cols = struct.unpack("<II", read_exact(fh, 8, "shape"))
        (ego_len,) = struct.unpack("<I", read_exact(fh, 4, "ego table size"))
        ego_blob = read_exact(fh, ego_len, "ego table")
        (name_len,) = struct.unpack("<I",
                                    read_exact(fh, 4, "name table size"))
        name_blob = read_exact(fh, name_len, "name table")
        _check_left(fh, n_rows * n_cols * 8, "values")
        start = fh.tell()
    try:
        egos = ego_blob.decode("utf-8").split("\n") if ego_blob else []
        names = name_blob.decode("utf-8").split("\n") if name_blob else []
    except UnicodeDecodeError as exc:
        raise ValueError(f"{path}: {exc}") from None
    if (len(egos), len(names)) != (n_rows, n_cols):
        raise ValueError(f"{path}: shape {n_rows} x {n_cols} does not "
                         f"match {len(egos)} egos x {len(names)} names")

    values = open(path, "rb", buffering=0)
    fd = values.fileno()

    def read(lo: int, hi: int) -> np.ndarray:
        cols = np.empty((hi - lo, n_rows), dtype="<f8")
        into, at = cols.reshape(-1).view(np.uint8), start + lo * n_rows * 8
        while len(into):
            got = os.preadv(fd, [into], at)
            if not got:
                raise ValueError(f"{path}: truncated values")
            into, at = into[got:], at + got
        return cols

    weakref.finalize(read, values.close)
    return Columns(egos, names, read)
