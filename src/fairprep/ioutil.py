"""Shared IO helpers: canonical JSON, atomic file writes and UTF-8 JSON reads."""

from __future__ import annotations

import json
import os
import tempfile
from contextlib import contextmanager
from pathlib import Path

import numpy as np


def to_jsonable(obj):
    """Recursively convert numpy scalars/arrays and non-finite floats to JSON-safe values.

    Non-finite floats become the strings "inf"/"-inf"/"nan" so reports stay
    valid strict JSON.
    """
    if isinstance(obj, dict):
        return {str(k): to_jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [to_jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [to_jsonable(v) for v in obj.tolist()]
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.floating,)):
        obj = float(obj)
    if isinstance(obj, float):
        if obj != obj:
            return "nan"
        if obj == float("inf"):
            return "inf"
        if obj == float("-inf"):
            return "-inf"
        return obj
    if isinstance(obj, (np.bool_,)):
        return bool(obj)
    return obj


def canonical_json(obj) -> str:
    """Serialize with sorted keys so identical inputs give byte-identical files."""
    return json.dumps(to_jsonable(obj), sort_keys=True, indent=2, allow_nan=False) + "\n"


def _about(path: Path, exc: OSError) -> OSError:
    """`exc` retold about `path`: a failed write names a temp file its caller never asked for."""
    if exc.errno is None:
        return OSError(f"{path}: {exc}")
    return OSError(exc.errno, exc.strerror, os.fspath(path))  # an errno keeps its subclass


@contextmanager
def atomic_output(path):
    """A binary file whose bytes replace `path` when the block ends without error.

    The file is a temp file beside `path`, so the rename is atomic, and it is
    removed on any error. An OSError raised in the block, or while creating
    or renaming the file, is raised again with `path` as its file name.
    """
    path = Path(path)
    tmp = None
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=f".{path.name}.", suffix=".tmp")
        with os.fdopen(fd, "wb") as fh:
            yield fh
        os.replace(tmp, path)
        tmp = None
    except OSError as exc:
        raise _about(path, exc) from exc
    finally:
        if tmp is not None and os.path.exists(tmp):
            os.unlink(tmp)


def atomic_write_text(path, text: str) -> None:
    """Write `text` as UTF-8 through `atomic_output`."""
    with atomic_output(path) as fh:
        fh.write(text.encode("utf-8"))


def write_json(path, obj) -> None:
    atomic_write_text(path, canonical_json(obj))


def read_json(path):
    """The JSON value in a UTF-8 file; bytes that are not UTF-8 are a DataError naming the file."""
    from .tabular import DataError

    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except UnicodeDecodeError as exc:
        raise DataError(f"{path}: not UTF-8 text ({exc.reason})") from None
