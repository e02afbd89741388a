"""Dense feature matrix container and its two on-disk formats.

CSV (``ego_id,<feature names...>``) is the interchange format; the
binary format (magic ``CFM1``, little-endian float64 columns plus a
name table) avoids float-to-text costs on large runs. Both round-trip
exactly: CSV uses shortest-repr floats, the binary format raw bytes.

``load`` returns the whole matrix or only the columns it is asked for.
From CFM1 it reads just those columns of the column-major value block,
so ``train``, ``score`` and ``evaluate`` read only the columns they use;
a CSV matrix is always read whole.
"""

from __future__ import annotations

import os
import struct
from dataclasses import dataclass

import numpy as np

_MAGIC = b"CFM1"


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
        if not np.isfinite(self.values).all():
            bad = np.argwhere(~np.isfinite(self.values))[0]
            raise ValueError(
                f"non-finite value at ego {self.ego_ids[bad[0]]}, "
                f"feature {self.feature_names[bad[1]]}")


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


def _load_cfm1(fh, names: list[str] | None) -> FeatureMatrix:
    """The CFM1 matrix open at ``fh`` past its magic, or only its ``names``
    columns; the file must hold the whole value block even so."""
    n_rows, n_cols = struct.unpack("<II", read_exact(fh, 8, "shape"))
    (ego_len,) = struct.unpack("<I", read_exact(fh, 4, "ego table size"))
    ego_blob = read_exact(fh, ego_len, "ego table").decode("utf-8")
    (name_len,) = struct.unpack("<I", read_exact(fh, 4, "name table size"))
    name_blob = read_exact(fh, name_len, "name table").decode("utf-8")
    _check_left(fh, n_rows * n_cols * 8, "values")
    egos = ego_blob.split("\n") if ego_blob else []
    all_names = name_blob.split("\n") if name_blob else []
    if names is None:
        names, idx = all_names, range(n_cols)
    else:
        idx = _column_indices(fh.name, all_names, names)
    # read column by column, then copy into C order: numpy sums the
    # columns of an F-ordered array in another order, and the last bits
    # of every mean a model stores would change
    cols = np.empty((len(idx), n_rows), dtype="<f8")
    start = fh.tell()
    for j, i in enumerate(idx):
        fh.seek(start + i * n_rows * 8)
        fh.readinto(cols[j])
    return FeatureMatrix(egos, list(names), cols.T.copy())


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
    with open(path, "rb") as fh:
        if fh.read(4) == _MAGIC:
            return _load_cfm1(fh, names)
    mat = load_csv(path)
    if names is None:
        return mat
    idx = _column_indices(path, mat.feature_names, names)
    return FeatureMatrix(mat.ego_ids, list(names), mat.values[:, idx].copy())
