"""Probe sets as batches: the sequence interface of SequenceBatch and
ProductBatch, and bit-for-bit agreement of batched and scalar seminorms."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from tamef.graded import (
    BanachFiber,
    ProductBatch,
    ProductSpace,
    SequenceBatch,
    SequenceSpace,
    TruncatedSequence,
    as_batch,
    element_degree,
    l1_grading,
    seminorm_l1,
    seminorm_linf,
    seminorm_table,
)
from tamef.probes import make_probes, make_product_probes

SPACE = SequenceSpace(BanachFiber(2), truncation_degree=8, n_max=4)


# ---------------------------------------------------------------------------
# sequence interface
# ---------------------------------------------------------------------------

def test_probe_set_is_one_readonly_block():
    probes = make_probes(SPACE, 40, seed=3)
    assert isinstance(probes, SequenceBatch)
    assert len(probes) == 40
    assert probes.coefficients.shape == (40, 9, 2)
    assert not probes.coefficients.flags.writeable
    with pytest.raises(ValueError):
        probes.coefficients[0, 0, 0] = 1.0


def test_indexing_returns_row_views():
    probes = make_probes(SPACE, 20, seed=3)
    f = probes[7]
    assert isinstance(f, TruncatedSequence)
    assert np.shares_memory(f.coefficients, probes.coefficients)
    assert not f.coefficients.flags.writeable
    assert np.array_equal(probes[7].coefficients, f.coefficients)
    assert np.array_equal(probes[-1].coefficients, probes[19].coefficients)
    assert np.array_equal(probes[-1].coefficients, probes.coefficients[19])
    with pytest.raises(IndexError):
        probes[20]
    rows = list(probes)
    assert len(rows) == 20
    for i, g in enumerate(rows):
        assert np.array_equal(g.coefficients, probes.coefficients[i])
    tail = probes[15:]
    assert isinstance(tail, SequenceBatch) and len(tail) == 5
    assert np.shares_memory(tail.coefficients, probes.coefficients)


def test_concatenation_is_list_style():
    a = make_probes(SPACE, 10, seed=1)
    b = make_probes(SPACE, 6, seed=2)
    both = a + b
    assert isinstance(both, SequenceBatch) and len(both) == 16
    assert np.array_equal(both.coefficients[10:], b.coefficients)
    extra = SPACE.basis(3)
    mixed = a + [extra]
    assert isinstance(mixed, list) and len(mixed) == 11
    assert mixed[-1] is extra
    assert len([extra] + a) == 11


def test_lists_stack_into_the_same_batch():
    probes = make_probes(SPACE, 12, seed=4)
    copies = [TruncatedSequence(SPACE.fiber, f.coefficients) for f in probes]
    stacked = as_batch(copies)
    assert np.array_equal(stacked.coefficients, probes.coefficients)
    assert as_batch(probes) is probes
    grading = l1_grading(4)
    assert np.array_equal(seminorm_table(grading, copies),
                          seminorm_table(grading, probes))
    with pytest.raises(ValueError):
        as_batch([SPACE.basis(0), SequenceSpace(BanachFiber(2), 4).basis(0)])
    with pytest.raises(ValueError):
        as_batch([])


def test_product_batch_yields_tuples():
    pairs = make_product_probes((SPACE, SPACE), 9, seed=5)
    assert isinstance(pairs, ProductBatch) and len(pairs) == 9
    first = pairs[0]
    assert isinstance(first, tuple) and len(first) == 2
    assert all(isinstance(part, TruncatedSequence) for part in first)
    assert len(list(pairs)) == 9
    both = pairs + pairs
    assert isinstance(both, ProductBatch) and len(both) == 18
    stacked = as_batch(list(pairs))
    for ours, theirs in zip(stacked.parts, pairs.parts):
        assert np.array_equal(ours.coefficients, theirs.coefficients)


def test_batch_degrees_match_elements():
    block = np.zeros((4, 6, 1))
    block[1, 2] = 1.0
    block[2, 5] = -3.0
    block[3, 0] = 0.5
    batch = SequenceBatch(BanachFiber(1), block)
    assert list(batch.degree()) == [-1, 2, 5, 0]
    assert list(element_degree(batch)) == [f.degree() for f in batch]
    pairs = ProductBatch((batch, batch[::-1]))
    assert list(element_degree(pairs)) == [
        element_degree(pair) for pair in pairs]


# ---------------------------------------------------------------------------
# batched and scalar seminorms agree bit for bit
# ---------------------------------------------------------------------------

FIBERS = st.builds(BanachFiber,
                   dimension=st.sampled_from((1, 2, 3)),
                   scalar_field=st.sampled_from(("real", "complex")),
                   norm_kind=st.sampled_from(("euclidean", "supremum", "sum")))
VALUES = st.floats(min_value=-1e150, max_value=1e150, allow_subnormal=True)


@st.composite
def batches(draw, fiber=None, count=None, truncation=None):
    fiber = fiber if fiber is not None else draw(FIBERS)
    count = count if count is not None else draw(st.integers(1, 6))
    K = truncation if truncation is not None else draw(st.integers(0, 12))
    shape = (count, K + 1, fiber.dimension)
    block = draw(arrays(np.float64, shape, elements=VALUES))
    if fiber.scalar_field == "complex":
        block = block + 1j * draw(arrays(np.float64, shape, elements=VALUES))
    return SequenceBatch(fiber, block)


def same_bits(batched, scalars):
    return np.asarray(batched).tobytes() == np.array(scalars).tobytes()


@settings(max_examples=150, deadline=None)
@given(batch=batches(), level=st.integers(0, 6))
def test_batched_seminorms_match_scalar_bitwise(batch, level):
    level = min(level, 256 // max(batch.truncation_degree, 1))
    copies = [TruncatedSequence(batch.fiber, f.coefficients) for f in batch]
    for seminorm in (seminorm_l1, seminorm_linf):
        scalars = [seminorm(f, level) for f in copies]
        assert all(isinstance(x, float) for x in scalars)
        assert same_bits(seminorm(batch, level), scalars)


@settings(max_examples=60, deadline=None)
@given(data=st.data(), count=st.integers(1, 5), K=st.integers(0, 10),
       kinds=st.tuples(st.sampled_from(("l1", "linf")),
                       st.sampled_from(("l1", "linf"))))
def test_product_seminorms_match_scalar_bitwise(data, count, K, kinds):
    fibers = (data.draw(FIBERS), data.draw(FIBERS))
    product = ProductSpace(tuple(
        SequenceSpace(fiber, truncation_degree=K, n_max=4, grading_kind=kind)
        for fiber, kind in zip(fibers, kinds)))
    pairs = ProductBatch(data.draw(batches(fiber, count, K))
                         for fiber in fibers)
    table = product.seminorm_table(pairs)
    for n in range(5):
        scalars = [product.seminorm(pair, n) for pair in pairs]
        assert same_bits(product.seminorm(pairs, n), scalars)
        assert same_bits(table[n], scalars)
