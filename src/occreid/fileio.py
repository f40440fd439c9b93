"""Atomic artifact writes: a crash mid-write never leaves a half-written
checkpoint, table or plot behind."""

from __future__ import annotations

import os
from pathlib import Path


def write_atomic(path, data: bytes) -> None:
    """Write data to a temp file beside path, then rename it over path.

    The rename is atomic, so path holds either its old content or all of
    data; a failed write removes the temp file.
    """
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        tmp.write_bytes(data)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def write_lines(path, lines) -> None:
    """Atomically write UTF-8 text, one newline-terminated line per item."""
    write_atomic(path, ("\n".join(lines) + "\n").encode("utf-8"))
