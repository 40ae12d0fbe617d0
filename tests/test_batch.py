"""Probe sets as batches: one sequence is a one-row SequenceBatch, indexing
and iteration give one-row views, arithmetic acts on the coefficients, and
every row of a batch gets the seminorm it gets alone, bit for bit.

The seminorms and inner products take their levels as an axis of one
weighted loop.  The references below are the one-level loops tamef ran
before, frozen here: every entry of a level table must hold exactly the
float the frozen loop gives for its row alone at its level."""

import math

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
    as_batch,
    custom_grading,
    inner_product,
    l1_grading,
    linf_grading,
    seminorm_l1,
    seminorm_linf,
    seminorm_table,
)
from tamef import cli
from tamef.cli import GRADINGS
from tamef.probes import make_probes, make_product_probes

SPACE = SequenceSpace(BanachFiber(2), truncation_degree=8, n_max=4)

PROPERTY = settings(derandomize=True, deadline=None, database=None)


# ---------------------------------------------------------------------------
# the batch interface
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
    assert isinstance(f, SequenceBatch) and len(f) == 1
    assert f.coefficients.shape == (1, 9, 2)
    assert np.shares_memory(f.coefficients, probes.coefficients)
    assert not f.coefficients.flags.writeable
    assert np.array_equal(f.coefficients[0], probes.coefficients[7])
    assert np.array_equal(probes[np.int64(7)].coefficients, f.coefficients)
    assert np.array_equal(probes[-1].coefficients, probes[19].coefficients)
    assert np.array_equal(probes[-20].coefficients, probes[0].coefficients)
    for bad in (20, -21):
        with pytest.raises(IndexError):
            probes[bad]
    rows = list(probes)
    assert len(rows) == 20
    for i, g in enumerate(rows):
        assert isinstance(g, SequenceBatch) and len(g) == 1
        assert np.shares_memory(g.coefficients, probes.coefficients)
        assert np.array_equal(g.coefficients[0], probes.coefficients[i])
    tail = probes[15:]
    assert isinstance(tail, SequenceBatch) and len(tail) == 5
    assert np.shares_memory(tail.coefficients, probes.coefficients)
    picked = probes[np.array([3, 1])]
    assert np.array_equal(picked.coefficients, probes.coefficients[[3, 1]])


def test_one_sequence_is_a_one_row_batch():
    f = SPACE.basis(3, axis=1, scale=2.5)
    assert isinstance(f, SequenceBatch) and f.coefficients.shape == (1, 9, 2)
    assert f.coefficients[0, 3, 1] == 2.5
    assert np.count_nonzero(f.coefficients) == 1
    assert list(f.degree()) == [3]
    zero = SPACE.zero()
    assert zero.coefficients.shape == (1, 9, 2) and list(zero.degree()) == [-1]


def test_arithmetic_acts_on_coefficients():
    a = make_probes(SPACE, 6, seed=1)
    b = make_probes(SPACE, 6, seed=2)
    A, B = a.coefficients, b.coefficients
    assert np.array_equal((a + b).coefficients, A + B)
    assert np.array_equal((a - b).coefficients, A - B)
    assert np.array_equal((-a).coefficients, -A)
    for scaled in (a * 2.0, 2.0 * a, np.float64(2.0) * a):
        assert isinstance(scaled, SequenceBatch)
        assert np.array_equal(scaled.coefficients, A * 2.0)
    rows = np.arange(1.0, 7.0)
    assert np.array_equal((a * rows).coefficients, A * rows[:, None, None])
    assert np.array_equal((rows * a).coefficients, A * rows[:, None, None])
    assert np.array_equal((a[2] + b[4]).coefficients, A[2:3] + B[4:5])
    with pytest.raises(ValueError, match="length"):
        a + b[:5]
    with pytest.raises(ValueError, match="fiber"):
        a - make_probes(SequenceSpace(BanachFiber(2, norm_kind="sum"), 8, 4),
                        6, seed=2)
    with pytest.raises(ValueError, match="truncation"):
        a + make_probes(SequenceSpace(BanachFiber(2), 7, 4), 6, seed=2)
    with pytest.raises(TypeError):
        a + [b]
    pairs = make_product_probes((SPACE, SPACE), 5, seed=5)
    for got, want in zip((pairs + pairs).parts, pairs.parts):
        assert np.array_equal(got.coefficients, 2.0 * want.coefficients)
    for got, want in zip((pairs * np.arange(5.0) - pairs).parts, pairs.parts):
        assert np.array_equal(got.coefficients, want.coefficients
                              * np.arange(5.0)[:, None, None]
                              - want.coefficients)
    with pytest.raises(TypeError):
        pairs + pairs.parts[0]
    with pytest.raises(ValueError, match="arity"):
        pairs + ProductBatch(pairs.parts[:1])


def test_lists_stack_into_the_same_batch():
    probes = make_probes(SPACE, 12, seed=4)
    assert as_batch(probes) is probes
    for pieces in (list(probes), [probes[:5], probes[5:]]):
        stacked = as_batch(pieces)
        assert np.array_equal(stacked.coefficients, probes.coefficients)
    grading = l1_grading(4)
    assert np.array_equal(seminorm_table(grading, list(probes)),
                          seminorm_table(grading, probes))
    with pytest.raises(ValueError):
        as_batch([SPACE.basis(0), SequenceSpace(BanachFiber(2), 4).basis(0)])
    with pytest.raises(ValueError):
        as_batch([SPACE.basis(0), SequenceSpace(BanachFiber(3), 8).basis(0)])
    with pytest.raises(ValueError):
        as_batch([])
    with pytest.raises(TypeError):
        as_batch([probes.coefficients[0]])
    pairs = make_product_probes((SPACE, SPACE), 4, seed=5)
    with pytest.raises(TypeError):
        as_batch([probes, pairs])


def test_product_batch_yields_one_row_batches():
    pairs = make_product_probes((SPACE, SPACE), 9, seed=5)
    assert isinstance(pairs, ProductBatch) and len(pairs) == 9
    first = pairs[0]
    assert isinstance(first, ProductBatch) and len(first) == 1
    assert len(first.parts) == 2
    for part, whole in zip(first.parts, pairs.parts):
        assert np.shares_memory(part.coefficients, whole.coefficients)
        assert np.array_equal(part.coefficients, whole.coefficients[:1])
    rows = list(pairs)
    assert len(rows) == 9 and all(len(row) == 1 for row in rows)
    stacked = as_batch(rows)
    for ours, theirs in zip(stacked.parts, pairs.parts):
        assert np.array_equal(ours.coefficients, theirs.coefficients)
    zero = ProductSpace((SPACE, SPACE)).zero()
    assert isinstance(zero, ProductBatch) and len(zero) == 1
    assert list(zero.degree()) == [-1]


def test_batch_degrees_match_elements():
    block = np.zeros((4, 6, 1))
    block[1, 2] = 1.0
    block[2, 5] = -3.0
    block[3, 0] = 0.5
    batch = SequenceBatch(BanachFiber(1), block)
    assert list(batch.degree()) == [-1, 2, 5, 0]
    assert list(batch.degree()) == [int(f.degree()[0]) for f in batch]
    pairs = ProductBatch((batch, batch[::-1]))
    assert list(pairs.degree()) == [int(pair.degree()[0]) for pair in pairs]


# ---------------------------------------------------------------------------
# the frozen one-level loops
# ---------------------------------------------------------------------------

def frozen_weights(level, truncation_degree):
    return tuple(math.exp(level * k) for k in range(truncation_degree + 1))


def frozen_l1(f, n):
    w = frozen_weights(int(n), f.truncation_degree)
    v = f.coefficient_norms()
    acc = 0.0
    for k in range(f.truncation_degree + 1):
        acc = acc + w[k] * v[k]
    return acc


def frozen_linf(f, n):
    w = frozen_weights(int(n), f.truncation_degree)
    v = f.coefficient_norms()
    acc = 0.0
    for k in range(f.truncation_degree + 1):
        acc = np.maximum(acc, w[k] * v[k])
    return acc


def frozen_inner_product(f, g, level):
    w = frozen_weights(2 * int(level), f.truncation_degree)
    dots = np.sum(f.coefficients * g.coefficients, axis=-1).T
    total = 0.0
    for k in range(f.truncation_degree + 1):
        total = total + w[k] * dots[k]
    return total


FROZEN = {"l1": frozen_l1, "linf": frozen_linf}


# ---------------------------------------------------------------------------
# every entry of a level table is its row's float alone, bit for bit
# ---------------------------------------------------------------------------

FIBERS = st.builds(BanachFiber,
                   dimension=st.sampled_from((1, 2, 3)),
                   scalar_field=st.sampled_from(("real", "complex")),
                   norm_kind=st.sampled_from(("euclidean", "supremum", "sum")))
VALUES = st.one_of(
    st.floats(min_value=-1e150, max_value=1e150, allow_subnormal=True),
    st.sampled_from((math.nan, math.inf, -math.inf, 1e150, -1e150)))


@st.composite
def batches(draw, fiber=None, count=None, truncation=None):
    fiber = fiber if fiber is not None else draw(FIBERS)
    count = count if count is not None else draw(st.integers(1, 6))
    K = truncation if truncation is not None else draw(st.integers(0, 12))
    shape = (count, K + 1, fiber.dimension)
    block = draw(arrays(np.float64, shape, elements=VALUES))
    if fiber.scalar_field == "complex":
        block = block.astype(np.complex128)
        block.imag = draw(arrays(np.float64, shape, elements=VALUES))
    return SequenceBatch(fiber, block)


def level_lists(truncation_degree, top=8):
    """Lists of levels, repeats and any order allowed, inside the overflow
    guard of the truncation degree."""
    top = min(top, 256 // max(truncation_degree, 1))
    return st.lists(st.integers(0, top), max_size=8)


def alone(batch, i):
    """Row i as a batch of its own, over a copy of its coefficients."""
    if isinstance(batch, ProductBatch):
        return ProductBatch(alone(part, i) for part in batch.parts)
    return SequenceBatch(batch.fiber, batch.coefficients[i:i + 1].copy())


def frozen_table(reference, batch, levels):
    """reference(row i alone, n)[0] at [l, i] for n = levels[l]."""
    return np.array([[reference(alone(batch, i), n)[0]
                      for i in range(len(batch))]
                     for n in levels]).reshape(len(levels), len(batch))


def same_bits(got, want):
    got, want = np.asarray(got), np.asarray(want)
    return got.shape == want.shape and got.tobytes() == want.tobytes()


@settings(PROPERTY, max_examples=150)
@given(data=st.data(), batch=batches())
def test_batched_seminorms_match_scalar_bitwise(data, batch):
    levels = data.draw(level_lists(batch.truncation_degree))
    with np.errstate(all="ignore"):
        for seminorm, reference in ((seminorm_l1, frozen_l1),
                                    (seminorm_linf, frozen_linf)):
            want = frozen_table(reference, batch, levels)
            assert same_bits(seminorm(batch, levels), want)
            assert same_bits(seminorm(batch, tuple(levels)), want)
            for row, n in zip(want, levels):
                assert same_bits(seminorm(batch, n), row)
                assert same_bits(seminorm(batch, np.int64(n)), row)


@settings(PROPERTY, max_examples=60)
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
    levels = data.draw(level_lists(K, top=4))

    def reference(pair, n):
        total = 0.0
        for kind, part in zip(kinds, pair.parts):
            total = total + FROZEN[kind](part, n)
        return total

    with np.errstate(all="ignore"):
        want = frozen_table(reference, pairs, levels)
        assert same_bits(product.seminorm(pairs, levels), want)
        whole = frozen_table(reference, pairs, range(5))
        assert same_bits(product.seminorm(pairs, range(5)), whole)
        for n in range(5):
            assert same_bits(product.seminorm(pairs, n), whole[n])


@settings(PROPERTY, max_examples=80)
@given(data=st.data(), count=st.integers(1, 6), K=st.integers(0, 12),
       dim=st.sampled_from((1, 2, 3)))
def test_inner_products_match_frozen_bitwise(data, count, K, dim):
    fiber = BanachFiber(dim)
    f = data.draw(batches(fiber, count, K))
    g = data.draw(batches(fiber, count, K))
    level = data.draw(st.integers(0, min(4, 128 // max(K, 1))))
    with np.errstate(all="ignore"):
        want = [frozen_inner_product(alone(f, i), alone(g, i), level)[0]
                for i in range(count)]
        assert same_bits(inner_product(f, g, level), np.array(want))


@settings(PROPERTY, max_examples=60)
@given(data=st.data(), batch=batches(), n_max=st.integers(0, 8))
def test_seminorm_tables_match_frozen_bitwise(data, batch, n_max):
    n_max = min(n_max, 256 // max(batch.truncation_degree, 1))
    levels = data.draw(st.lists(st.integers(0, n_max), max_size=8))

    def decreasing(f, n):
        return math.exp(-float(n)) * frozen_l1(f, 0)

    with np.errstate(all="ignore"):
        for grading, reference in (
                (l1_grading(n_max), frozen_l1),
                (linf_grading(n_max), frozen_linf),
                (GRADINGS["decreasing"](n_max), decreasing)):
            want = frozen_table(reference, batch, range(n_max + 1))
            assert same_bits(seminorm_table(grading, batch), want)
            assert same_bits(grading.evaluator(batch, levels),
                             frozen_table(reference, batch, levels))


def test_decreasing_grading_takes_one_level_zero_seminorm(monkeypatch):
    """The CLI's decreasing grading, exp(-n) |f|_0, scales one level-0
    seminorm for the whole table, with the bytes of the per-level adapter
    that takes it once per level."""
    probes = make_probes(SequenceSpace(BanachFiber(1), 32, 6), 1000, seed=3)
    levels = []

    def spy(f, n):
        levels.append(n)
        return seminorm_l1(f, n)

    monkeypatch.setattr(cli, "seminorm_l1", spy)
    table = seminorm_table(GRADINGS["decreasing"](6), probes)
    assert levels == [0]
    per_level = custom_grading(
        lambda f, n: math.exp(-float(n)) * seminorm_l1(f, 0), 6)
    assert table.tobytes() == seminorm_table(per_level, probes).tobytes()
