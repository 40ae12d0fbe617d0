"""Deterministic JSON/CSV emission: 17-significant-digit floats, LF endings,
atomic writes.  Identical structures must serialize to identical bytes, so
floats go through one formatting rule and no timestamps or environment data
are ever included.

JSON is emitted into a sink, a callable that takes each piece of text:
write_json streams into the open temporary file, which then replaces the
target atomically, and dumps_json collects the pieces in a list.  A numpy
float block of any shape is laid out exactly as the same nested lists of
floats would be, a chunk of numbers per `%` call.  A RecordList, a list of
objects that share every field but a last one holding one row of a float
block, is laid out the same way: the text each object wraps around its row
is the outermost separator of the block, so the whole list takes one `%`
call per chunk, however many objects it holds.
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


class RecordList:
    """The JSON list [dict(shared, **{key: row}) for row in block]: objects
    that share every field of `shared` and differ only in their last field,
    `key`, one row of a float block each.  It is written as that list would
    be, byte for byte, but formats the whole block at once.  len() is the
    number of objects and item i is object i."""

    __slots__ = ("shared", "key", "block")

    def __init__(self, shared: dict, key: str, block):
        self.shared, self.key = shared, key
        self.block = np.asarray(block, dtype=np.float64)

    def __len__(self) -> int:
        return len(self.block)

    def __getitem__(self, i: int) -> dict:
        return dict(self.shared, **{self.key: self.block[i]})


@lru_cache(maxsize=256)
def _separator_rows(runs: Tuple[int, ...], phase: int, count: int,
                    last: bool) -> np.ndarray:
    """Per number of a chunk of count numbers of a block, in C order, how
    many of its innermost indices are at their last value: the count of the
    block's run lengths (sizes of its trailing sub-blocks) that divide its
    1-based position.  Every run but the whole block divides one outermost
    item, so the rows depend only on the chunk's start modulo that item,
    phase, and on whether the chunk holds the block's last number."""
    ends = np.arange(phase + 1, phase + count + 1)[:, None]
    rows = np.count_nonzero(ends % np.array(runs[:-1], dtype=np.intp) == 0,
                            axis=1)
    rows[-1] += last
    rows.flags.writeable = False
    return rows


@lru_cache(maxsize=64)
def _array_layout(shape: Tuple[int, ...], level: int,
                  record: Optional[Tuple[str, str]] = None
                  ) -> Tuple[str, np.ndarray, Tuple[int, ...]]:
    """The fixed text of a float block of this shape at this nesting level.

    Returns the text before the first number, a table of pieces and the
    run lengths of the block, innermost first.  A number with separator
    row t is followed by separator t: piece t formats it with
    format_float's "%.1f" and piece t + ndim + 1 with its "%.17g", each
    followed by that separator.  record, when given, is the
    text before and after the row of one object of a RecordList: each item
    of the outermost axis is wrapped in it and nests one level deeper."""
    nd = len(shape)

    def pad(lvl: int) -> str:
        return " " * (JSON_INDENT * lvl)

    # the text around each item of axis a, and the nesting level of its list
    wraps = [record or ("", "")] + [("", "")] * (nd - 1)
    depth = [level + a + (1 if record and a else 0) for a in range(nd)]
    opens = ["[\n" + pad(depth[a] + 1) + wraps[a][0] for a in range(nd)]
    closes = [wraps[a][1] + "\n" + pad(depth[a]) + "]" for a in range(nd)]
    # after a number whose t innermost indices are at their last value, the
    # index of axis nd - 1 - t steps
    seps = ["".join(reversed(closes[a + 1:])) + wraps[a][1] + ",\n"
            + pad(depth[a] + 1) + wraps[a][0] + "".join(opens[a + 1:])
            for a in reversed(range(nd))]
    seps.append("".join(reversed(closes)))
    pieces = np.array([code + sep.replace("%", "%%")
                       for code in ("%.1f", "%.17g") for sep in seps],
                      dtype=object)
    runs = tuple(int(run) for run in np.cumprod(shape[::-1]))
    return "".join(opens), pieces, runs


def _emit_array(block: np.ndarray, write: Callable[[str], object],
                level: int, record: Optional[Tuple[str, str]] = None):
    """A float block, in the bytes of its nested lists of floats, written a
    chunk of ARRAY_CHUNK numbers at a time; record as in _array_layout."""
    prefix, pieces, runs = _array_layout(block.shape, level, record)
    general = len(block.shape) + 1
    flat = block.reshape(-1)
    item = flat.size // len(block)
    for start in range(0, flat.size, ARRAY_CHUNK):
        values = flat[start:start + ARRAY_CHUNK]
        if not np.isfinite(values).all():  # raises, naming the first one
            format_float(float(values[~np.isfinite(values)][0]))
        rows = _separator_rows(runs, start % item, values.size,
                               start + values.size == flat.size)
        # format_float's rule: "%.1f" for integral values below the limit
        integral = ((np.floor(values) == values)
                    & (np.abs(values) < _INTEGRAL_LIMIT))
        template = "".join(pieces[rows + general * ~integral].tolist())
        text = template % tuple(values.tolist())
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
    elif isinstance(obj, RecordList):
        _emit_records(obj, write, level)
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


def _emit_records(records: RecordList, write: Callable[[str], object],
                  level: int):
    """A RecordList in one _emit_array pass, each row wrapped in the text
    its object holds around it; a list with no numbers, object by object."""
    if not records.block.size:
        _emit([records[i] for i in range(len(records))], write, level)
        return
    pieces: list = []
    _emit(dict(records.shared, **{records.key: 0}), pieces.append, level + 1)
    # the dict branch writes the int 0 as one piece and its close as the last
    _emit_array(records.block, write, level,
                ("".join(pieces[:-2]), pieces[-1]))


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
