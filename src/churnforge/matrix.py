"""Dense feature matrix container and its two on-disk formats.

CSV (``ego_id,<feature names...>``) is the interchange format; the
binary format (magic ``CFM1``, little-endian float64 columns plus a
name table) avoids float-to-text costs on large runs. Both round-trip
exactly: CSV uses shortest-repr floats, the binary format raw bytes.

``load`` returns the whole matrix or only the columns it is asked for.
From CFM1 it reads just those columns of the column-major value block,
so ``train``, ``score`` and ``evaluate`` read only the columns they use.
``columns`` reads a matrix one block of columns at a time (``select``
never holds the whole float matrix), and ``column_blocks`` cuts those
blocks. A CSV matrix is always read whole.
"""

from __future__ import annotations

import os
import struct
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

_MAGIC = b"CFM1"
_BLOCK_VALUES = 1 << 20  # about this many cells per block of columns


def column_blocks(n_rows: int, n_cols: int) -> list[tuple[int, int]]:
    """(lo, hi) spans that cut the columns into blocks of about
    ``_BLOCK_VALUES`` cells.

    Widths are multiples of 64, and a last block one column wide joins
    the block before it: numpy sums a one-column block's rows pairwise,
    and BLAS sums each column of a block as over the whole matrix only
    where the blocks start on the same multiples.
    """
    width = max(64, _BLOCK_VALUES // max(n_rows, 1) // 64 * 64)
    spans = [(lo, min(lo + width, n_cols)) for lo in range(0, n_cols, width)]
    if len(spans) > 1 and spans[-1][1] - spans[-1][0] == 1:
        spans[-2:] = [(spans[-2][0], n_cols)]
    return spans


def check_block_finite(cols: np.ndarray, ego_ids: list[str],
                       feature_names: list[str], lo: int = 0) -> None:
    """ValueError naming the first non-finite cell, in column order, of
    ``cols``: the (columns, rows) block of the matrix's columns from
    ``lo`` on."""
    finite = np.isfinite(cols)
    if not finite.all():
        j, i = np.argwhere(~finite)[0]
        raise ValueError(f"non-finite value at ego {ego_ids[i]}, "
                         f"feature {feature_names[lo + j]}")


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

    def check_finite(self) -> None:
        """``check_block_finite`` over each block of columns."""
        for lo, hi in column_blocks(*self.shape):
            check_block_finite(self.values[:, lo:hi].T, self.ego_ids,
                               self.feature_names, lo)


class Columns(NamedTuple):
    """A matrix read a block of columns at a time: ``read(lo, hi)``
    returns columns lo..hi-1 as a (hi - lo, rows) array."""
    ego_ids: list[str]
    feature_names: list[str]
    read: Callable[[int, int], np.ndarray]


def save_csv(matrix: FeatureMatrix, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("ego_id," + ",".join(matrix.feature_names) + "\n")
        for ego, row in zip(matrix.ego_ids, matrix.values):
            fh.write(ego + "," + ",".join(repr(float(v)) for v in row) + "\n")


def load_csv(path: str) -> FeatureMatrix:
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().rstrip("\n").split(",")
        if not header or header[0] != "ego_id":
            raise ValueError(f"{path}: bad matrix header")
        names = header[1:]
        egos, rows = [], []
        for line_no, line in enumerate(fh, start=2):
            parts = line.rstrip("\n").split(",")
            if len(parts) != len(names) + 1:
                raise ValueError(f"{path}: line {line_no}: {len(parts)} "
                                 f"fields, expected {len(names) + 1}")
            egos.append(parts[0])
            try:
                rows.append(np.array(parts[1:], dtype=np.float64))
            except ValueError as exc:
                raise ValueError(f"{path}: line {line_no}: {exc}") from None
    values = np.vstack(rows) if rows else np.zeros((0, len(names)))
    return FeatureMatrix(egos, names, values)


def save_binary(matrix: FeatureMatrix, path: str) -> None:
    ego_blob = "\n".join(matrix.ego_ids).encode("utf-8")
    name_blob = "\n".join(matrix.feature_names).encode("utf-8")
    n_rows, n_cols = matrix.values.shape
    cols = np.ascontiguousarray(matrix.values.T, dtype="<f8")
    with open(path, "wb") as fh:
        fh.write(_MAGIC)
        fh.write(struct.pack("<II", n_rows, n_cols))
        fh.write(struct.pack("<I", len(ego_blob)))
        fh.write(ego_blob)
        fh.write(struct.pack("<I", len(name_blob)))
        fh.write(name_blob)
        fh.write(cols)


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


def _cfm1_header(fh) -> tuple[list[str], list[str], int]:
    """(ego ids, feature names, rows) of the CFM1 matrix open at ``fh``
    past its magic, leaving ``fh`` at the value block; the file must
    hold the whole value block."""
    n_rows, n_cols = struct.unpack("<II", read_exact(fh, 8, "shape"))
    (ego_len,) = struct.unpack("<I", read_exact(fh, 4, "ego table size"))
    ego_blob = read_exact(fh, ego_len, "ego table").decode("utf-8")
    (name_len,) = struct.unpack("<I", read_exact(fh, 4, "name table size"))
    name_blob = read_exact(fh, name_len, "name table").decode("utf-8")
    _check_left(fh, n_rows * n_cols * 8, "values")
    egos = ego_blob.split("\n") if ego_blob else []
    all_names = name_blob.split("\n") if name_blob else []
    if (len(egos), len(all_names)) != (n_rows, n_cols):
        raise ValueError(f"{fh.name}: shape {n_rows} x {n_cols} does not "
                         f"match {len(egos)} egos x {len(all_names)} names")
    return egos, all_names, n_rows


def save(matrix: FeatureMatrix, path: str, fmt: str = "csv") -> None:
    if fmt == "csv":
        save_csv(matrix, path)
    elif fmt == "binary":
        save_binary(matrix, path)
    else:
        raise ValueError(f"unknown matrix format {fmt!r}")


def load(path: str, names: list[str] | None = None) -> FeatureMatrix:
    """The matrix at ``path``, or only its ``names`` columns in the order
    named; KeyError naming the file for a name the matrix lacks."""
    cols = columns(path)
    if names is None:
        names = cols.feature_names
        cells = cols.read(0, len(names))
    else:
        idx = _column_indices(path, cols.feature_names, names)
        cells = np.empty((len(idx), len(cols.ego_ids)))
        for j, i in enumerate(idx):
            cells[j] = cols.read(i, i + 1)[0]
    # C order: numpy sums the columns of an F-ordered array in another
    # order, and the last bits of every mean a model stores would change
    return FeatureMatrix(cols.ego_ids, list(names),
                         np.ascontiguousarray(cells.T))


def columns(source: str | FeatureMatrix) -> Columns:
    """The matrix at path ``source``, or in memory, as ``Columns``.

    From CFM1 each ``read`` takes just its columns from the column-major
    value block, so the whole float matrix is never held; a CSV matrix
    is read whole here, and its blocks are slices of it.
    """
    if isinstance(source, str):
        with open(source, "rb") as fh:
            if fh.read(4) == _MAGIC:
                egos, names, n_rows = _cfm1_header(fh)
                start = fh.tell()

                def read(lo: int, hi: int) -> np.ndarray:
                    cols = np.empty((hi - lo, n_rows), dtype="<f8")
                    with open(source, "rb") as block:
                        block.seek(start + lo * n_rows * 8)
                        block.readinto(cols)
                    return cols

                return Columns(egos, names, read)
        source = load_csv(source)
    values = source.values
    return Columns(source.ego_ids, source.feature_names,
                   lambda lo, hi: values[:, lo:hi].T)
