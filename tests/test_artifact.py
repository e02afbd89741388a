"""The one artifact writer: atomic replace, hash while writing, and the
rule that no other code in ``src/churnforge`` writes a file."""

import ast
import hashlib
import os
from pathlib import Path

import pytest

from churnforge import artifact

SRC = Path(__file__).resolve().parents[1] / "src" / "churnforge"
WRITER = SRC / "artifact.py"


def test_write_returns_the_sha256_of_the_bytes_written(tmp_path):
    path = tmp_path / "a.bin"
    path.write_bytes(b"old")

    def fill(fh):
        fh.write(b"new ")
        fh.write(memoryview(b"bytes"))

    assert artifact.write(path, fill) == hashlib.sha256(b"new bytes").hexdigest()
    assert path.read_bytes() == b"new bytes"
    assert os.listdir(tmp_path) == ["a.bin"]


def test_write_json_is_indented_sorted_with_a_final_newline(tmp_path):
    path = tmp_path / "a.json"
    digest = artifact.write_json(path, {"b": [1, 2.5], "a": "\u00e9"})
    text = '{\n  "a": "\\u00e9",\n  "b": [\n    1,\n    2.5\n  ]\n}\n'
    assert path.read_text(encoding="utf-8") == text
    assert digest == hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("old", [None, b"old bytes"], ids=["new", "existing"])
def test_write_that_fails_partway_leaves_the_final_name_as_it_was(tmp_path,
                                                                   old):
    path = tmp_path / "a.csv"
    if old is not None:
        path.write_bytes(old)

    def fill(fh):
        fh.write(b"header\n")
        raise ValueError("row 2 is bad")

    with pytest.raises(ValueError, match="row 2 is bad"):
        artifact.write(path, fill)
    if old is None:
        assert os.listdir(tmp_path) == []
    else:
        assert os.listdir(tmp_path) == ["a.csv"]
        assert path.read_bytes() == old


# Calls that write a file: open() with a writing mode, and these methods
_WRITING_MODE = set("wax+")
_WRITING_METHODS = {"write_text", "write_bytes", "tofile"}


def _file_writes(source: str) -> list[int]:
    """Line numbers of the calls in ``source`` that write a file."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        owner = getattr(getattr(func, "value", None), "id", None)
        if owner == "artifact":  # the writer itself
            continue
        name = func.id if isinstance(func, ast.Name) else \
            func.attr if isinstance(func, ast.Attribute) else None
        if name == "open":
            # open(path, mode) or path.open(mode)
            at = 1 if isinstance(func, ast.Name) else 0
            mode = node.args[at] if len(node.args) > at else next(
                (k.value for k in node.keywords if k.arg == "mode"), None)
            if mode is not None and not (
                    isinstance(mode, ast.Constant)
                    and not _WRITING_MODE & set(mode.value)):
                lines.append(node.lineno)
        elif name in _WRITING_METHODS or (name, owner) == ("dump", "json"):
            lines.append(node.lineno)
    return lines


@pytest.mark.parametrize("source", [
    "open(p, 'w')", "open(p, mode='wb')", "open(p, 'a', encoding='utf-8')",
    "open(p, 'r+b')", "open(p, m)", "path.open('w')", "p.write_text(s)",
    "p.write_bytes(b)", "arr.tofile(p)", "json.dump(obj, fh)",
])
def test_file_writes_are_found(source):
    assert _file_writes(source) == [1]


@pytest.mark.parametrize("source", [
    "open(p)", "open(p, 'rb')", "open(p, mode='r', encoding='utf-8')",
    "path.open()", "path.open('rb')",
    "json.dumps(obj)", "json.load(fh)", "fh.write(b)",
    "artifact.write_text(p, s)", "artifact.write(p, fill)",
])
def test_reads_are_not_file_writes(source):
    assert _file_writes(source) == []


def test_only_the_artifact_writer_writes_files():
    found = [f"{path.name}:{line}" for path in sorted(SRC.glob("*.py"))
             if path != WRITER
             for line in _file_writes(path.read_text(encoding="utf-8"))]
    assert found == []
