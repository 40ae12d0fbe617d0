"""Probe sets as batches: one sequence is a one-row SequenceBatch, indexing
and iteration give one-row views, arithmetic acts on the coefficients, and
every row of a batch gets the seminorm it gets alone, bit for bit.

The seminorms and inner products take their levels as an axis of one
weighted loop.  The references below are the one-level loops tamef ran
before, frozen here: every entry of a level table must hold exactly the
float the frozen loop gives for its row alone at its level."""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from tamef.graded import (
    BanachFiber,
    ProductBatch,
    ProductSpace,
    SequenceBatch,
    SequenceSpace,
    as_batch,
    inner_product,
    seminorm_l1,
    seminorm_linf,
    seminorm_table,
)
from tamef import graded
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
    zero = SPACE.basis(0, scale=0.0)
    assert zero.coefficients.shape == (1, 9, 2) and list(zero.degree()) == [-1]


def test_arithmetic_acts_on_coefficients():
    a = make_probes(SPACE, 6, seed=1)
    b = make_probes(SPACE, 6, seed=2)
    A, B = a.coefficients, b.coefficients
    assert np.array_equal((a + b).coefficients, A + B)
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
        a + make_probes(SequenceSpace(BanachFiber(2, norm_kind="sum"), 8, 4),
                        6, seed=2)
    with pytest.raises(ValueError, match="truncation"):
        a + make_probes(SequenceSpace(BanachFiber(2), 7, 4), 6, seed=2)
    with pytest.raises(TypeError):
        a + [b]


def test_lists_stack_into_the_same_batch():
    probes = make_probes(SPACE, 12, seed=4)
    assert as_batch(probes) is probes
    for pieces in (list(probes), [probes[:5], probes[5:]]):
        stacked = as_batch(pieces)
        assert np.array_equal(stacked.coefficients, probes.coefficients)
    assert np.array_equal(seminorm_table(SPACE, list(probes)),
                          seminorm_table(SPACE, probes))
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
    rows = [pairs[i] for i in range(len(pairs))]
    assert all(len(row) == 1 for row in rows)
    stacked = as_batch(rows)
    for ours, theirs in zip(stacked.parts, pairs.parts):
        assert np.array_equal(ours.coefficients, theirs.coefficients)
    zero = ProductBatch([SPACE.basis(0, scale=0.0)] * 2)
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
    assert list(pairs.degree()) == [int(pairs[i].degree()[0])
                                    for i in range(len(pairs))]


def frozen_degrees(norms):
    """Largest k with norms[k] > 0 along axis 0 of a whole (K+1, P) norm
    array, -1 where there is none, as tamef once computed them."""
    nonzero = norms > 0.0
    last = norms.shape[0] - 1 - np.argmax(nonzero[::-1], axis=0)
    return np.where(nonzero.any(axis=0), last, -1)


def frozen_degree_loop(norms):
    """Per column of a (K+1, P) norm array: k ascending, every column whose
    norm at k is positive gets k, -1 where none is, as degree() once did."""
    out = np.full(norms.shape[1], -1, dtype=np.intp)
    for k, norms_k in enumerate(norms):
        out[norms_k > 0.0] = k
    return out


#: coefficients a degree must tell apart: zeros of both signs, NaN, both
#: infinities, the least subnormal and normal numbers, and plain values
EDGE_COEFFICIENTS = (0.0, -0.0, math.nan, math.inf, -math.inf, 5e-324,
                     -5e-324, 2.2250738585072014e-308, 1.0, -3.5, 1e300)


@settings(PROPERTY, max_examples=120)
@given(data=st.data(), rows=st.integers(1, 5),
       length=st.one_of(st.integers(1, 40),
                        st.sampled_from((255, 256, 257, 65535, 65536,
                                         65537))))
def test_degree_is_the_k_ascending_loop(data, rows, length):
    """degree(), one max of k + 1 where the norm at k is positive in the
    narrowest unsigned type that holds K + 1, equals the k-ascending loop
    it replaced: over zero, -0.0, NaN, infinite and subnormal
    coefficients, all-zero rows, and K + 1 on both sides of the uint8 and
    uint16 limits, with the top coefficients drawn often."""
    block = np.zeros((rows, length, 1))
    index = st.one_of(st.integers(0, length - 1),
                      st.integers(max(0, length - 3), length - 1))
    entries = data.draw(st.lists(
        st.tuples(st.integers(0, rows - 1), index,
                  st.one_of(st.sampled_from(EDGE_COEFFICIENTS), st.floats())),
        max_size=3 * rows))
    for i, k, value in entries:
        block[i, k, 0] = value
    batch = SequenceBatch(BanachFiber(1), block)
    degrees = batch.degree()
    assert degrees.dtype == np.intp
    assert degrees.tobytes() == \
        frozen_degree_loop(batch.coefficient_norms()).tobytes()


@pytest.mark.parametrize("norm_kind", ["euclidean", "supremum", "sum"])
@pytest.mark.parametrize("field", ["real", "complex"])
def test_norms_and_degrees_do_not_depend_on_the_budget(monkeypatch, field,
                                                       norm_kind):
    """Under a budget of one entry (one row per slice), of seven rows and
    the default, coefficient_norms holds the bytes of the per-row fiber
    norms and degree the whole-array degrees, over zero, NaN, infinite,
    subnormal and signed-zero rows."""
    fiber = BanachFiber(3, field, norm_kind)
    rng = np.random.default_rng(5)
    block = rng.standard_normal((40, 7, 3)).astype(fiber.dtype)
    if field == "complex":
        block += 1j * rng.standard_normal((40, 7, 3))
    block[np.arange(40), :, 0] *= rng.random((7, 40)).T > 0.4
    for i in range(10, 40, 3):
        block[i, i % 7:] = 0.0  # trailing zero coefficients
    block[3] = 0.0
    block[4] = -0.0
    block[5, 2, 1] = math.nan
    block[6, 6, 0] = math.nan
    block[7, 4, 2] = math.inf
    block[8] = 0.0
    block[8, 0, 2] = 5e-324
    block[9] = 0.0
    block[9, 6, 1] = -math.inf
    want = np.stack([fiber.norms(row) for row in block], axis=1)
    for budget in (1, 7 * 21, graded.BLOCK_ENTRIES):
        monkeypatch.setattr(graded, "BLOCK_ENTRIES", budget)
        batch = SequenceBatch(fiber, block)
        norms = batch.coefficient_norms()
        assert norms.shape == want.shape and norms.dtype == want.dtype
        assert norms.tobytes() == want.tobytes()
        degrees = batch.degree()
        assert degrees.dtype == np.intp
        assert degrees.tobytes() == frozen_degrees(want).tobytes()
        # 5e-324 is nonzero under every norm: the euclidean one rescales
        # a vector whose squares would underflow
        assert list(degrees[3:10]) == [-1, -1, 6, 5, 6, 0, 6]


@pytest.mark.parametrize("norm_kind", ["euclidean", "supremum", "sum"])
@pytest.mark.parametrize("field", ["real", "complex"])
def test_norms_neither_overflow_nor_underflow(field, norm_kind):
    """A coefficient whose square leaves the float range keeps its norm:
    in dimension 1 every norm is |x|, and a euclidean vector whose largest
    |x| lies outside 2^+-500 is divided by it before squaring.  Vectors
    holding NaN or infinity keep their NaN or infinity."""
    one = BanachFiber(1, field, norm_kind)
    assert one.norms(np.array([[1e200], [1e-200], [5e-324]])).tolist() == \
        [1e200, 1e-200, 5e-324]
    fiber = BanachFiber(2, field, norm_kind)
    rows = np.array([[3e200, -4e200], [3e-200, 4e-200], [5e-324, 0.0],
                     [1e300, 1e300], [3.0, 4.0], [0.0, 0.0],
                     [math.inf, 1e200], [math.nan, 1e-200]])
    norms = fiber.norms(rows.astype(fiber.dtype))
    scale = {"euclidean": 1.0, "supremum": 0.8, "sum": 1.4}[norm_kind]
    want = [5e200 * scale, 5e-200 * scale, 5e-324,
            math.sqrt(2.0) * 1e300 if norm_kind == "euclidean"
            else 1e300 if norm_kind == "supremum" else 2e300,
            5.0 * scale, 0.0]
    assert norms[:6] == pytest.approx(want, rel=1e-15, abs=0.0)
    assert norms[6] == math.inf and math.isnan(norms[7])


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


#: the edge values the derandomized draws may miss, whatever literals the
#: loaded modules hold: +NaN, -NaN, both infinities and -0.0
NAN, NEG_NAN, INF = math.nan, math.copysign(math.nan, -1.0), math.inf


def real_batch(rows, dim=1):
    """A real batch of fiber dimension dim from nested lists of rows."""
    return SequenceBatch(BanachFiber(dim), np.array(rows, dtype=np.float64))


#: a one-row and a two-row batch of the edge values, real and complex
EDGE_ROW = real_batch([[[NAN], [NEG_NAN], [INF], [-INF], [-0.0]]])
EDGE_ROWS = real_batch([[[-0.0, NEG_NAN], [INF, 1.0], [NAN, -INF]],
                        [[NEG_NAN, -0.0], [-INF, NAN], [0.5, INF]]], dim=2)
EDGE_COMPLEX = SequenceBatch(
    BanachFiber(1, scalar_field="complex"),
    np.array([[[complex(-0.0, NEG_NAN)], [complex(INF, -0.0)]],
              [[complex(NAN, -INF)], [complex(-INF, NAN)]]]))


class Drawn:
    """st.data() in an explicit @example: draw returns the given values in
    order, whatever strategy it is asked for."""

    def __init__(self, *values):
        self.values = list(values)

    def draw(self, strategy):
        return self.values.pop(0)

    def __repr__(self):
        return f"Drawn{tuple(self.values)!r}"


def same_bits(got, want):
    got, want = np.asarray(got), np.asarray(want)
    return got.shape == want.shape and got.tobytes() == want.tobytes()


@settings(PROPERTY, max_examples=150)
@given(data=st.data(), batch=batches())
@example(data=Drawn([0, 3, 1]), batch=EDGE_ROW)
@example(data=Drawn([2, 0]), batch=EDGE_ROWS)
@example(data=Drawn([1, 0]), batch=EDGE_COMPLEX)
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
@example(data=Drawn(EDGE_ROW, real_batch([[[0.0], [-0.0], [NAN], [-1.0],
                                           [INF]]]), 1),
         count=1, K=4, dim=1)
@example(data=Drawn(real_batch([[[0.0]], [[-0.0]]]),
                    real_batch([[[NEG_NAN]], [[INF]]]), 0),
         count=2, K=0, dim=1)
@example(data=Drawn(EDGE_ROWS, real_batch([[[0.0, 1.0], [-0.0, INF],
                                            [NEG_NAN, 0.0]],
                                           [[INF, 0.0], [NAN, -0.0],
                                            [-1.0, -INF]]], dim=2), 2),
         count=2, K=2, dim=2)
def test_inner_products_match_frozen_bitwise(data, count, K, dim):
    fiber = BanachFiber(dim)
    f = data.draw(batches(fiber, count, K))
    g = data.draw(batches(fiber, count, K))
    level = data.draw(st.integers(0, min(4, 128 // max(K, 1))))
    with np.errstate(all="ignore"):
        want = [frozen_inner_product(alone(f, i), alone(g, i), level)[0]
                for i in range(count)]
        assert same_bits(inner_product(f, g, level), np.array(want))


def test_one_row_inner_product_keeps_the_frozen_nan():
    """0*nan and 0*inf give NaNs of opposite signs; the one-row fold keeps
    the first, as the frozen loop does."""
    f = SequenceBatch(BanachFiber(1), np.zeros((1, 2, 1)))
    g = SequenceBatch(BanachFiber(1), np.array([[[math.nan], [math.inf]]]))
    with np.errstate(all="ignore"):
        assert same_bits(inner_product(f, g, 0),
                         frozen_inner_product(f, g, 0))


@settings(PROPERTY, max_examples=60)
@given(data=st.data(), batch=batches(), n_max=st.integers(0, 8))
@example(data=Drawn([3, 0, 3]), batch=EDGE_ROW, n_max=4)
@example(data=Drawn([1]), batch=EDGE_ROWS, n_max=2)
@example(data=Drawn([0, 2]), batch=EDGE_COMPLEX, n_max=3)
def test_seminorm_tables_match_frozen_bitwise(data, batch, n_max):
    n_max = min(n_max, 256 // max(batch.truncation_degree, 1))
    levels = data.draw(st.lists(st.integers(0, n_max), max_size=8))

    def decreasing(f, n):
        return math.exp(-float(n)) * frozen_l1(f, 0)

    space = SequenceSpace(batch.fiber, batch.truncation_degree, n_max)
    with np.errstate(all="ignore"):
        for kind, reference in (("l1", frozen_l1), ("linf", frozen_linf),
                                ("decreasing", decreasing)):
            grading = replace(space, grading_kind=kind)
            want = frozen_table(reference, batch, range(n_max + 1))
            assert same_bits(seminorm_table(grading, batch), want)
            assert same_bits(grading.seminorm(batch, levels),
                             frozen_table(reference, batch, levels))


def test_decreasing_grading_takes_one_level_zero_seminorm(monkeypatch):
    """The decreasing grading, exp(-n) |f|_0, scales one level-0 seminorm
    for the whole table, with the bytes of the table stacked level by
    level."""
    space = SequenceSpace(BanachFiber(1), 32, 6)
    probes = make_probes(space, 1000, seed=3)
    levels = []

    def spy(f, n):
        levels.append(n)
        return seminorm_l1(f, n)

    monkeypatch.setattr(graded, "seminorm_l1", spy)
    table = seminorm_table(replace(space, grading_kind="decreasing"), probes)
    assert levels == [0]
    per_level = np.stack([math.exp(-float(n)) * seminorm_l1(probes, 0)
                          for n in range(7)])
    assert table.tobytes() == per_level.tobytes()
