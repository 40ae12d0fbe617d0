"""Property tests of invariants the paper states: seminorm monotonicity in the
level, the Cauchy bound on coefficients, and the chart round trip; and of
the rule that seminorm tables holding NaN or infinity certify nothing.

Each test is a derandomized hypothesis search at small sizes, so a failure
reproduces on every run.
"""

import math
from functools import lru_cache

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from tamef.graded import (BanachFiber, SequenceBatch, SequenceSpace,
                          certify_from_tables, seminorm_l1, seminorm_linf,
                          within_upper)
from tamef.holomorphic import verify_cauchy_bound
from tamef.implicit import CHART_ROUND_TRIP_TOL
from tamef.manifold import make_sphere

PROPERTY = settings(derandomize=True, deadline=None, database=None,
                    max_examples=60)

FIBERS = st.builds(BanachFiber,
                   dimension=st.integers(1, 3),
                   scalar_field=st.sampled_from(("real", "complex")),
                   norm_kind=st.sampled_from(("euclidean", "supremum", "sum")))


def _block(draw, fiber, shape, bound):
    values = st.floats(-bound, bound)
    block = draw(arrays(np.float64, shape, elements=values))
    if fiber.scalar_field == "complex":
        block = block + 1j * draw(arrays(np.float64, shape, elements=values))
    return block


@st.composite
def batches(draw, max_degree):
    fiber = draw(FIBERS)
    shape = (draw(st.integers(1, 4)), draw(st.integers(0, max_degree)) + 1,
             fiber.dimension)
    return SequenceBatch(fiber, _block(draw, fiber, shape, 1e100))


@st.composite
def sequences(draw, max_degree):
    fiber = draw(FIBERS)
    shape = (1, draw(st.integers(0, max_degree)) + 1, fiber.dimension)
    return SequenceBatch(fiber, _block(draw, fiber, shape, 1e6))


@PROPERTY
@given(batch=batches(max_degree=12))
def test_seminorms_grow_with_the_level(batch):
    for seminorm in (seminorm_l1, seminorm_linf):
        for n in range(6):
            lower, upper = seminorm(batch, n), seminorm(batch, n + 1)
            assert np.all(within_upper(lower, upper)), (seminorm, n)


@PROPERTY
@given(f=sequences(max_degree=16), level=st.integers(0, 3))
def test_cauchy_bound_holds(f, level):
    report = verify_cauchy_bound(f, level)
    assert report.ok, report


@lru_cache(maxsize=None)
def _sphere(K, d):
    space = SequenceSpace(BanachFiber(d), truncation_degree=K, n_max=2)
    return make_sphere(space, 0, seed=K)


@PROPERTY
@given(data=st.data(), K=st.integers(2, 4), d=st.integers(1, 2),
       pole=st.integers(0, 1), t=st.floats(0.0, 1.0))
def test_chart_round_trip_inside_validity_radius(data, K, d, pole, t):
    chart = _sphere(K, d).charts[pole]
    # a codimension-one sphere: every flat coordinate but one is a kernel one
    u = data.draw(arrays(np.float64, (K + 1) * d - 1,
                         elements=st.floats(-1.0, 1.0)))
    norm = float(np.linalg.norm(u))
    assume(norm > 0.0)
    x = (t * chart.validity_radius / norm) * u
    r = float(np.linalg.norm(x))
    x_back, values = chart.forward(chart.inverse(x))
    bound = CHART_ROUND_TRIP_TOL * (1.0 + r)
    assert float(np.linalg.norm(x_back - x)) <= bound
    assert float(np.linalg.norm(values)) <= bound


NON_FINITE = st.sampled_from((math.nan, math.inf, -math.inf))


@PROPERTY
@given(data=st.data(), levels=st.integers(1, 4), probes=st.integers(1, 5))
def test_non_finite_tables_are_never_certified(data, levels, probes):
    """Whatever the finite entries, shift and degrees, a NaN or infinite
    entry in num or den yields no certificate; the witness names the first
    such entry in level-major order, num before den, with ratio NaN."""
    tables = {name: data.draw(arrays(np.float64, (levels, probes),
                                     elements=st.floats(0.0, 1e300)))
              for name in ("num", "den")}
    planted = st.tuples(st.sampled_from(("num", "den")),
                        st.integers(0, levels - 1),
                        st.integers(0, probes - 1), NON_FINITE)
    for name, n, i, value in data.draw(st.lists(planted, min_size=1,
                                                max_size=4)):
        tables[name][n, i] = value
    cert, witness = certify_from_tables(
        tables["num"], tables["den"],
        data.draw(st.lists(st.integers(-1, 8), min_size=probes,
                           max_size=probes)),
        data.draw(st.integers(0, 8)),
        r_max=data.draw(st.integers(0, levels - 1)),
        forced_r=data.draw(st.none() | st.integers(0, levels - 1)),
        probe_count=probes, linear=data.draw(st.booleans()))
    name, n, i = next((name, n, i) for name in ("num", "den")
                      for n in range(levels) for i in range(probes)
                      if not math.isfinite(tables[name][n, i]))
    assert cert is None
    assert (witness.level, witness.probe_index) == (n, i)
    assert math.isnan(witness.ratio)
    assert witness.reason == \
        f"non-finite {name} seminorm {float(tables[name][n, i])}"
