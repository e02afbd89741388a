"""The one way an artifact reaches disk.

``write(path, fill)`` hands ``fill`` a binary file whose bytes go to a
temporary name next to ``path`` and are hashed on the way. When ``fill``
returns, the file is renamed onto ``path`` (``os.replace``, atomic on
one file system); if it raises, the temporary file is removed and
``path`` is left as it was. Either way no reader ever sees a partly
written artifact, and the manifest gets each output's sha256 without
reading the file back.
"""

from __future__ import annotations

import hashlib
import json
import os
from typing import Callable


class _HashingFile:
    """A binary file that also feeds every byte written to a sha256."""

    def __init__(self, fh):
        self._fh = fh
        self.sha256 = hashlib.sha256()

    def write(self, data) -> None:
        self.sha256.update(data)
        self._fh.write(data)


def write(path, fill: Callable[[_HashingFile], None]) -> str:
    """Write the artifact at ``path`` by ``fill(fh)``, atomically; return
    the sha256 hex digest of its bytes."""
    tmp = f"{path}.tmp"
    try:
        with open(tmp, "wb") as fh:
            sink = _HashingFile(fh)
            fill(sink)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except FileNotFoundError:
            pass
        raise
    return sink.sha256.hexdigest()


def write_text(path, text: str) -> str:
    """``write`` of ``text`` as UTF-8."""
    return write(path, lambda fh: fh.write(text.encode("utf-8")))


def write_json(path, obj) -> str:
    """``write_text`` of ``obj`` as indented JSON with sorted keys and a
    final newline."""
    return write_text(path, json.dumps(obj, indent=2, sort_keys=True) + "\n")
