"""Atomic file replacement: readers see the old file or the new one,
never a partial write."""

from __future__ import annotations

import os
from contextlib import contextmanager, suppress
from pathlib import Path


@contextmanager
def atomic_write(path):
    """Yield a binary file opened on `path`.tmp beside `path`; a clean exit
    moves it over `path` with os.replace, an error removes it. A removal
    that fails is ignored, so the error that leaves is the writer's."""
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    try:
        with open(tmp, "wb") as f:
            yield f
        os.replace(tmp, path)
    except BaseException:
        with suppress(OSError):
            tmp.unlink()
        raise
