"""Deterministic JSON/CSV emission: 17-significant-digit floats, LF endings,
atomic writes.  Identical structures must serialize to identical bytes, so
floats go through one formatting rule and no timestamps or environment data
are ever included.

JSON is emitted into a sink, a callable that takes each piece of text:
write_json streams into the open temporary file, which then replaces the
target atomically, and dumps_json collects the pieces in a list.  A numpy
float block of any shape is laid out exactly as the same nested lists of
floats would be, a chunk of numbers per `%` call.
"""

from __future__ import annotations

import math
import os
from contextlib import contextmanager
from functools import lru_cache
from json.encoder import encode_basestring
from typing import Callable, Iterable, Optional, Sequence, Tuple

import numpy as np

#: spaces per nesting level of emitted JSON
JSON_INDENT = 2
#: numbers per `%` call of the array branch: bounds every template and
#: result string, so a block of any size streams in pieces of one size
ARRAY_CHUNK = 512
#: format_float's threshold: integral values below it keep one decimal
_INTEGRAL_LIMIT = 1e16


def format_float(x: float) -> str:
    """17 significant decimal digits: enough to round-trip any float64."""
    if not math.isfinite(x):
        raise ValueError(f"non-finite value {x!r} cannot be serialized")
    if x == int(x) and abs(x) < _INTEGRAL_LIMIT:
        # keep small integral floats readable and stable across platforms
        return f"{x:.1f}"
    return f"{x:.17g}"


def finite_or_none(x: float) -> Optional[float]:
    """x, or None when it is infinite or NaN: null in JSON, empty in CSV."""
    return x if math.isfinite(x) else None


def _separator_rows(runs: np.ndarray, start: int, stop: int) -> np.ndarray:
    """Per number start..stop-1 of a block, in C order, how many of its
    innermost indices are at their last value: the count of the block's
    run lengths (sizes of its trailing sub-blocks) that divide its 1-based
    position."""
    ends = np.arange(start + 1, stop + 1)[:, None]
    return np.count_nonzero(ends % runs == 0, axis=1)


@lru_cache(maxsize=64)
def _array_layout(shape: Tuple[int, ...], level: int
                  ) -> Tuple[str, np.ndarray, np.ndarray, np.ndarray]:
    """The fixed text of a float block of this shape at this nesting level.

    Returns the text before the first number, a table of pieces, the run
    lengths of the block and the separator rows of its first chunk.  A
    number with separator row t is followed by separator t: piece t
    formats it with format_float's "%.1f" and piece t + ndim + 1 with its
    "%.17g", each followed by that separator."""
    nd = len(shape)

    def pad(lvl: int) -> str:
        return " " * (JSON_INDENT * lvl)

    opens = ["[\n" + pad(level + a + 1) for a in range(nd)]
    closes = ["\n" + pad(level + a) + "]" for a in range(nd)]
    seps = ["".join(reversed(closes[nd - t:])) + ",\n" + pad(level + nd - t)
            + "".join(opens[nd - t:]) for t in range(nd)]
    seps.append("".join(reversed(closes)))
    pieces = np.array([code + sep for code in ("%.1f", "%.17g")
                       for sep in seps], dtype=object)
    runs = np.cumprod(shape[::-1])
    first = _separator_rows(runs, 0, min(int(runs[-1]), ARRAY_CHUNK))
    first.flags.writeable = False
    return "".join(opens), pieces, runs, first


def _emit_array(block: np.ndarray, write: Callable[[str], object],
                level: int):
    """A float block, in the bytes of its nested lists of floats, written a
    chunk of ARRAY_CHUNK numbers at a time."""
    prefix, pieces, runs, rows = _array_layout(block.shape, level)
    general = len(block.shape) + 1
    flat = block.reshape(-1)
    for start in range(0, flat.size, ARRAY_CHUNK):
        values = flat[start:start + ARRAY_CHUNK]
        if start:
            rows = _separator_rows(runs, start, start + values.size)
        # format_float's rule: "%.1f" for integral values below the limit
        integral = ((np.floor(values) == values)
                    & (np.abs(values) < _INTEGRAL_LIMIT))
        template = "".join(pieces[rows + general * ~integral].tolist())
        text = template % tuple(values.tolist())
        if "n" in text:  # "nan" or "inf": no separator or number holds an n
            format_float(float(values[~np.isfinite(values)][0]))
        write(prefix + text if not start else text)


def _emit(obj, write: Callable[[str], object], level: int):
    if obj is None:
        write("null")
    elif obj is True:
        write("true")
    elif obj is False:
        write("false")
    elif isinstance(obj, str):
        write(encode_basestring(obj))
    elif isinstance(obj, int):
        write(str(obj))
    elif isinstance(obj, float):
        write(format_float(obj))
    elif isinstance(obj, np.ndarray) and obj.ndim and obj.dtype.kind == "f":
        if obj.size:
            _emit_array(obj.astype(np.float64, copy=False), write, level)
        else:
            _emit(list(obj), write, level)
    elif isinstance(obj, dict):
        if not obj:
            write("{}")
            return
        inner = " " * (JSON_INDENT * (level + 1))
        head = "{\n"
        for key, value in obj.items():
            if not isinstance(key, str):
                raise TypeError(f"JSON object keys must be strings: {key!r}")
            write(head + inner + encode_basestring(key) + ": ")
            _emit(value, write, level + 1)
            head = ",\n"
        write("\n" + " " * (JSON_INDENT * level) + "}")
    elif isinstance(obj, (list, tuple)):
        if not len(obj):
            write("[]")
            return
        inner = " " * (JSON_INDENT * (level + 1))
        head = "[\n"
        for value in obj:
            write(head + inner)
            _emit(value, write, level + 1)
            head = ",\n"
        write("\n" + " " * (JSON_INDENT * level) + "]")
    else:
        # a numpy scalar as its Python value, so an int64 stays an integer;
        # anything else must convert to a float
        if isinstance(obj, np.generic):
            return _emit(obj.item(), write, level)
        try:
            text = format_float(float(obj))
        except (TypeError, ValueError) as err:
            raise TypeError(f"cannot serialize {type(obj).__name__}") from err
        write(text)


def dumps_json(obj) -> str:
    pieces: list = []
    _emit(obj, pieces.append, 0)
    pieces.append("\n")
    return "".join(pieces)


def format_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, str):
        return value
    if isinstance(value, int):
        return str(value)
    if isinstance(value, np.generic):
        return format_cell(value.item())
    return format_float(float(value))


def dumps_csv(rows: Iterable[Sequence],
              comments: Optional[Sequence[str]] = None) -> str:
    lines = [f"# {c}" for c in (comments or [])]
    for row in rows:
        lines.append(",".join(format_cell(cell) for cell in row))
    return "\n".join(lines) + "\n"


@contextmanager
def _atomic_text(path: str):
    """A text file at path + ".tmp" that replaces path once the block
    succeeds; a block that raises removes it and leaves path as it was."""
    tmp = path + ".tmp"
    try:
        with open(tmp, "w", encoding="utf-8", newline="\n") as handle:
            yield handle
    except BaseException:
        try:
            os.remove(tmp)
        except OSError:
            pass
        raise
    os.replace(tmp, path)


def write_json(path: str, obj):
    """dumps_json's bytes, streamed into the temporary file."""
    with _atomic_text(path) as handle:
        _emit(obj, handle.write, 0)
        handle.write("\n")


def write_csv(path: str, rows: Iterable[Sequence],
              comments: Optional[Sequence[str]] = None):
    with _atomic_text(path) as handle:
        handle.write(dumps_csv(rows, comments))
