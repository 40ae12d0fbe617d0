"""Deterministic JSON/CSV emission: 17-significant-digit floats, LF endings,
atomic writes.  Identical structures must serialize to identical bytes, so
floats go through one formatter and no timestamps or environment data are
ever included.
"""

from __future__ import annotations

import json
import math
import os
from typing import Iterable, Optional, Sequence

#: spaces per nesting level of emitted JSON
JSON_INDENT = 2


def format_float(x: float) -> str:
    """17 significant decimal digits: enough to round-trip any float64."""
    if not math.isfinite(x):
        raise ValueError(f"non-finite value {x!r} cannot be serialized")
    if x == int(x) and abs(x) < 1e16:
        # keep small integral floats readable and stable across platforms
        return f"{x:.1f}"
    return f"{x:.17g}"


def _emit(obj, pieces: list, level: int):
    pad = " " * (JSON_INDENT * level)
    inner = " " * (JSON_INDENT * (level + 1))
    if obj is None:
        pieces.append("null")
    elif obj is True:
        pieces.append("true")
    elif obj is False:
        pieces.append("false")
    elif isinstance(obj, str):
        pieces.append(json.dumps(obj, ensure_ascii=False))
    elif isinstance(obj, int):
        pieces.append(str(obj))
    elif isinstance(obj, float):
        pieces.append(format_float(obj))
    elif isinstance(obj, dict):
        if not obj:
            pieces.append("{}")
            return
        pieces.append("{\n")
        for i, (key, value) in enumerate(obj.items()):
            if not isinstance(key, str):
                raise TypeError(f"JSON object keys must be strings: {key!r}")
            pieces.append(inner + json.dumps(key, ensure_ascii=False) + ": ")
            _emit(value, pieces, level + 1)
            pieces.append(",\n" if i < len(obj) - 1 else "\n")
        pieces.append(pad + "}")
    elif isinstance(obj, (list, tuple)):
        if not len(obj):
            pieces.append("[]")
            return
        pieces.append("[\n")
        for i, value in enumerate(obj):
            pieces.append(inner)
            _emit(value, pieces, level + 1)
            pieces.append(",\n" if i < len(obj) - 1 else "\n")
        pieces.append(pad + "]")
    else:
        # numpy scalars and similar: try the float path before giving up
        try:
            pieces.append(format_float(float(obj)))
        except (TypeError, ValueError) as err:
            raise TypeError(f"cannot serialize {type(obj).__name__}") from err


def dumps_json(obj) -> str:
    pieces: list = []
    _emit(obj, pieces, 0)
    return "".join(pieces) + "\n"


def format_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, str):
        return value
    if isinstance(value, int):
        return str(value)
    return format_float(float(value))


def dumps_csv(rows: Iterable[Sequence],
              comments: Optional[Sequence[str]] = None) -> str:
    lines = [f"# {c}" for c in (comments or [])]
    for row in rows:
        lines.append(",".join(format_cell(cell) for cell in row))
    return "\n".join(lines) + "\n"


def _write_atomic(path: str, text: str):
    tmp = path + ".tmp"
    with open(tmp, "w", encoding="utf-8", newline="\n") as handle:
        handle.write(text)
    os.replace(tmp, path)


def write_json(path: str, obj):
    _write_atomic(path, dumps_json(obj))


def write_csv(path: str, rows: Iterable[Sequence],
              comments: Optional[Sequence[str]] = None):
    _write_atomic(path, dumps_csv(rows, comments))
