"""Property tests of invariants the paper states: seminorm monotonicity in the
level, the Cauchy bound on coefficients, and the chart round trip.

Each test is a derandomized hypothesis search at small sizes, so a failure
reproduces on every run.
"""

from functools import lru_cache

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from tamef.graded import (BanachFiber, SequenceBatch, SequenceSpace,
                          seminorm_l1, seminorm_linf, within_upper)
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
