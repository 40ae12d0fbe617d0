"""The JSON emitter: a numpy float block gives the bytes of its nested lists
of floats, number for number as format_float writes them, a RecordList the
bytes of its list of objects, and write_json streams into the temporary
file it renames."""

import math
import os
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

from tamef.graded import BanachFiber, SequenceBatch
from tamef.serialize import (ARRAY_CHUNK, RecordList, dumps_csv, dumps_json,
                             format_float, write_json)

PROPERTY = settings(derandomize=True, deadline=None, database=None,
                    max_examples=150)

#: -0.0, integral values, both sides of format_float's 1e16 threshold,
#: extreme exponents and subnormals
SPECIALS = [0.0, -0.0, 1.0, -7.0, 2.0 ** 53, 1e16 - 2, -(1e16 - 2), 1e16,
            -1e16, 1e17, 1e-300, -1e-300, 1e300, -1e300, 5e-324,
            2.2250738585072014e-308 / 3, 0.1, -2.5, 1 / 3]

values = st.floats(allow_nan=False, allow_infinity=False) \
    | st.sampled_from(SPECIALS) | st.integers(-10 ** 6, 10 ** 6).map(float)
blocks = arrays(np.float64, array_shapes(min_dims=1, max_dims=3, max_side=5),
                elements=values)
#: how the block is nested: each entry wraps it in a list or a dict
wrappings = st.lists(st.sampled_from(["list", "dict"]), max_size=4)


def wrap(block, wrapping):
    for kind in wrapping:
        block = [1.5, block] if kind == "list" else {"x": None, "block": block}
    return block


@PROPERTY
@given(blocks, wrappings)
def test_array_block_gives_the_bytes_of_its_nested_lists(block, wrapping):
    # nested lists of Python floats take one format_float call per number
    assert dumps_json(wrap(block, wrapping)) == \
        dumps_json(wrap(block.tolist(), wrapping))


@pytest.mark.parametrize("shape", [
    (1,), (len(SPECIALS),), (1, 1), (4, 1), (1, 4), (2, 3, 1),
    (ARRAY_CHUNK - 1,), (ARRAY_CHUNK,), (ARRAY_CHUNK + 1,),
    (3, ARRAY_CHUNK // 2 + 7), (ARRAY_CHUNK // 3, 2, 3), (2 * ARRAY_CHUNK, 1)])
def test_blocks_across_chunk_boundaries(shape):
    size = math.prod(shape)
    rng = np.random.default_rng(size)
    flat = rng.standard_normal(size) * 10.0 ** rng.integers(-5, 20, size)
    flat[::4] = np.round(flat[::4])
    flat[:len(SPECIALS)] = SPECIALS[:size]
    block = flat.reshape(shape)
    for level in range(3):
        assert dumps_json(wrap(block, ["list"] * level)) == \
            dumps_json(wrap(block.tolist(), ["list"] * level))
    # every number is format_float's text, in order
    numbers = [line.strip().rstrip(",").strip("[]") for line in
               dumps_json(block).splitlines()]
    assert [n for n in numbers if n] == [format_float(x) for x in flat]


def test_empty_and_single_precision_blocks():
    for shape in [(0,), (2, 0), (0, 3), (2, 0, 1)]:
        block = np.zeros(shape)
        assert dumps_json({"a": block}) == dumps_json({"a": block.tolist()})
    block = np.array([[0.1, -2.0], [3.5, 1e-7]], dtype=np.float32)
    assert dumps_json(block) == dumps_json(
        [[float(x) for x in row] for row in block])


@pytest.mark.parametrize("scalar, value", [
    (np.int64(3), 3), (np.int8(-2), -2), (np.uint64(2 ** 64 - 1), 2 ** 64 - 1),
    (np.bool_(True), True), (np.bool_(False), False),
    (np.float32(0.1), float(np.float32(0.1))), (np.float64(2.5), 2.5),
])
def test_numpy_scalars_write_as_their_python_values(scalar, value):
    assert dumps_json({"a": [scalar]}) == dumps_json({"a": [value]})
    assert dumps_csv([(scalar, value)]) == dumps_csv([(value, value)])


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("at", [0, 5, ARRAY_CHUNK + 3])
def test_non_finite_numbers_raise_format_floats_error(bad, at):
    with pytest.raises(ValueError) as scalar:
        format_float(bad)
    block = np.ones(2 * ARRAY_CHUNK)
    # shared text holding an n and a %, which the template must escape; the
    # records view block, so they hold the non-finite numbers set below
    records = RecordList({"name": "n%s %d"}, "row", block.reshape(-1, 2))
    assert dumps_json(records) == dumps_json(
        [dict(records[i], row=records[i]["row"].tolist())
         for i in range(len(records))])
    block[at] = bad
    block[at + 1:] = math.nan  # the first non-finite number is named
    with pytest.raises(ValueError) as array:
        dumps_json({"a": block.reshape(-1, 2)})
    assert str(array.value) == str(scalar.value)
    with pytest.raises(ValueError) as rows:
        dumps_json({"a": records})
    assert str(rows.value) == str(scalar.value)


def _complex_batch():
    fiber = BanachFiber(2, scalar_field="complex")
    block = np.array([[-0.0 + 1j, 2.5 - 1e-300j], [1e300 + 5e-324j,
                                                   (1 / 3) - (1e16 - 2) * 1j]])
    return SequenceBatch(fiber, block[None])


def _batch(field, dim, count, K):
    """count rows of K+1 coefficients in a fiber of dimension dim, with
    format_float's special values in the first ones."""
    shape = (count, K + 1, dim)
    rng = np.random.default_rng([count, K, dim])
    parts = rng.standard_normal((2,) + shape) * 10.0 ** rng.integers(
        -5, 20, (2,) + shape)
    flat = parts.reshape(-1)
    flat[::5] = np.round(flat[::5])
    flat[:len(SPECIALS)] = SPECIALS[:flat.size]
    if field == "real":
        return SequenceBatch(BanachFiber(dim), parts[0])
    return SequenceBatch(BanachFiber(dim, scalar_field="complex"),
                         parts[0] + 1j * parts[1])


def test_complex_blocks_keep_the_real_imaginary_pair_layout():
    f = _complex_batch()
    payload = f.to_json()
    assert payload["coefficients"].shape == (2, 2, 2)
    pairs = [[[float(z.real), float(z.imag)] for z in row]
             for row in f.coefficients[0]]
    assert dumps_json(payload) == dumps_json(dict(payload,
                                                  coefficients=pairs))
    # a batch's rows as one RecordList: the bytes of the list of the rows'
    # to_json, real and complex, with rows that straddle ARRAY_CHUNK (17 d
    # or 34 d numbers each, and 201 d or 402 d, longer than a chunk)
    for field in ("real", "complex"):
        for dim in (1, 3):
            for count in (0, 1, 33):
                for K in (16, 200):
                    f = _batch(field, dim, count, K)
                    records = f.rows_json()
                    assert len(records) == count
                    want = [dict(row.to_json(), coefficients=row.to_json()[
                        "coefficients"].tolist()) for row in f]
                    for level in range(4):
                        nest = ["list", "dict", "list"][:level]
                        assert dumps_json(wrap(records, nest)) == \
                            dumps_json(wrap(want, nest)), \
                            (field, dim, count, K, level)


def test_write_json_streams_a_large_block(tmp_path):
    # a whole-text join would hold the file's size in memory at once; so
    # would one of a 1 024-object RecordList
    rng = np.random.default_rng(5)
    obj = {"meta": {"seed": 5},
           "block": rng.standard_normal((1024, 256)),
           "rows": RecordList({"fiber": {"dim": 1}}, "coefficients",
                              rng.standard_normal((1024, 256, 1)))}
    path = str(tmp_path / "big.json")
    tracemalloc.start()
    try:
        write_json(path, obj)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    size = os.path.getsize(path)
    assert size > 5 * 2 ** 20
    assert peak < size / 20
    assert sorted(os.listdir(tmp_path)) == ["big.json"]
    with open(path, encoding="utf-8") as handle:
        assert handle.read() == dumps_json(obj)


def test_failed_write_leaves_the_target_as_it_was(tmp_path):
    path = tmp_path / "out.json"
    write_json(str(path), {"a": 1})
    before = path.read_bytes()
    block = np.ones(3 * ARRAY_CHUNK)
    block[-1] = math.nan
    with pytest.raises(ValueError):
        write_json(str(path), {"a": block})
    assert path.read_bytes() == before
    assert sorted(os.listdir(tmp_path)) == ["out.json"]
