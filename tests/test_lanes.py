"""The lane-batched damped Newton against solves run one at a time.

The reference below is the scalar damped-Newton loop and the phi-block solve
that tamef ran before its solver took blocks of lanes, frozen here
unchanged: one solve, one candidate scale at a time.  Every lane of a
batched solve must end exactly as that loop ends on the lane alone: the same
floats, the same iteration count, and the same exception with the same
message.  The batched callers in charts and atlases are checked the same way
against their one-point-at-a-time forms.
"""

import math
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tamef import implicit
from tamef.errors import NonConvergenceError, SingularBlockError
from tamef.graded import BanachFiber, SequenceSpace
from tamef.implicit import (BLOCK_RTOL, CHART_DIRECTIONS, CHART_LANES,
                            CHART_ROUND_TRIP_TOL, DEFAULT_MAX_ITER,
                            DEFAULT_SOLVE_TOL, PointSplit, _chart_round_trip_ok,
                            _solve_lanes, affine_constraint, build_chart,
                            flatten, is_regular_point, polynomial_constraint,
                            sphere_constraint)
from tamef.manifold import (_sample_overlap, make_sphere,
                            make_sphere_intersection)
from tamef.newton import DAMPING_MAX_HALVINGS
from tamef.probes import rng_from_seed

PROPERTY = settings(derandomize=True, deadline=None, database=None,
                    max_examples=60)


# ---------------------------------------------------------------------------
# the frozen one-at-a-time reference
# ---------------------------------------------------------------------------

def reference_newton(residual, linear_step, start, tol, max_iter, name,
                     trace):
    """The scalar damping loop; trace records the iterate, the iteration
    count and the halving index of every accepted step as it goes."""
    z = start
    r = residual(z)
    history = [float(np.linalg.norm(r))]
    trace.update(z=z, iterations=0, halvings=[])
    while not history[-1] <= tol:
        if len(history) > max_iter:
            raise NonConvergenceError(
                f"{name}: residual {history[-1]:.3g} > {tol:.3g} after "
                f"{max_iter} iterations", history=tuple(history))
        if not math.isfinite(history[-1]):
            raise NonConvergenceError(
                f"{name}: non-finite residual {history[-1]}",
                history=tuple(history))
        step = linear_step(z, r)
        scale = 1.0
        for halving in range(DAMPING_MAX_HALVINGS + 1):
            candidate = z - scale * step
            cand_r = residual(candidate)
            cand_norm = float(np.linalg.norm(cand_r))
            if cand_norm < history[-1] or cand_norm <= tol:
                break
            scale *= 0.5
        else:
            raise NonConvergenceError(
                f"{name}: damping stalled at residual {history[-1]:.3g}",
                history=tuple(history))
        z, r = candidate, cand_r
        history.append(cand_norm)
        trace["z"] = z
        trace["iterations"] += 1
        trace["halvings"].append(halving)
    return z, history


def reference_block_solve(B, rhs, context):
    if not np.all(np.isfinite(B)):
        raise SingularBlockError(f"{context}: phi-block not finite")
    sigma = np.linalg.svd(B, compute_uv=False)
    sigma_max = float(sigma[0]) if sigma.size else 0.0
    sigma_min = float(sigma[-1]) if sigma.size else 0.0
    if sigma_min <= BLOCK_RTOL * max(sigma_max, 1.0):
        raise SingularBlockError(
            f"{context}: phi-block singular (sigma_min={sigma_min:.3g}, "
            f"sigma_max={sigma_max:.3g})")
    return np.linalg.solve(B, rhs)


def reference_lane(split, x, y0, goal, tol, max_iter):
    """One lane solved alone: (y, iterations, error, accepted halvings)."""
    trace = {}
    X = x[None]
    try:
        reference_newton(
            lambda v: split.values(X, v[None])[0] - goal,
            lambda v, r: reference_block_solve(split.d_y(X, v[None])[0], r,
                                               split.name),
            np.array(y0, dtype=np.float64), tol, max_iter, split.name, trace)
        error = None
    except (NonConvergenceError, SingularBlockError) as err:
        error = err
    return trace["z"], trace["iterations"], error, trace["halvings"]


def assert_lanes_match(split, X, Y0, goal, tol, max_iter):
    """Solve the block, then every lane alone; returns the halvings the
    lanes accepted."""
    out = _solve_lanes(split, X, Y0, goal, tol, max_iter)
    halvings = []
    for lane in range(len(X)):
        y, iterations, error, accepted = reference_lane(
            split, X[lane], Y0[lane], goal, tol, max_iter)
        halvings += accepted
        assert np.array_equal(out.z[lane], y, equal_nan=True), lane
        assert out.steps[lane] == iterations, lane
        assert out.converged[lane] == (error is None), lane
        got = out.errors[lane]
        if error is None:
            assert got is None, lane
            continue
        assert type(got) is type(error), (lane, got, error)
        assert str(got) == str(error), lane
        if isinstance(error, NonConvergenceError):
            assert np.array_equal(got.history, error.history,
                                  equal_nan=True), lane
    return halvings


# ---------------------------------------------------------------------------
# constraints and their splittings
# ---------------------------------------------------------------------------

R1 = BanachFiber(1)


def _space(K):
    return SequenceSpace(R1, truncation_degree=K, n_max=2)


@lru_cache(maxsize=None)
def split_case(name):
    """(split constraint, base x, base y) at a regular point of one
    registry constraint."""
    space = _space(6)
    base = space.basis(0)
    if name.startswith("sphere:"):
        c = sphere_constraint(space, int(name[-1]))
    elif name == "spheres":
        manifold = make_sphere_intersection(_space(8), (0, 1), radii=[1, 2],
                                            seed=3)
        c, base = manifold.constraint, manifold.charts[0].base_point
    elif name == "affine":
        rng = rng_from_seed(5)
        D = space.flat_dimension
        c = affine_constraint(space, rng.normal(size=(2, D)),
                              rng.normal(size=2))
    else:
        # q0^2 + q1^2 + q0 q1 q2 / 2 - 1: a bent circle with a cubic term
        c = polynomial_constraint(space, [[
            [1.0, [0, 0]], [1.0, [1, 1]], [0.5, [0, 1, 2]], [-1.0, []]]])
    ps = PointSplit(c, is_regular_point(c, base))
    (x,), (y,) = ps.coords_of(base)
    return ps, x, y


CASES = ("sphere:0", "sphere:1", "spheres", "affine", "polynomial")

#: complement starts, as multiples of the base point's: the base itself,
#: the other side, a start whose full step overshoots, a singular phi-block
#: (zero) and a non-finite one
Y_STARTS = (1.0, -1.0, 0.05, 0.0, math.nan, 1e3)
#: kernel offsets: zero, inside the chart, near its edge, past it
OFFSET_SCALES = (0.0, 0.05, 0.4, 0.95, 1.3, 40.0)


@st.composite
def lane_blocks(draw):
    name = draw(st.sampled_from(CASES))
    split, x, y = split_case(name)
    lanes = draw(st.integers(1, 6))
    X, Y0 = [], []
    for _ in range(lanes):
        rng = rng_from_seed(draw(st.integers(0, 2 ** 32 - 1)))
        u = rng.normal(size=x.size)
        u /= np.linalg.norm(u)
        X.append(x + draw(st.sampled_from(OFFSET_SCALES)) * u)
        Y0.append(y * draw(st.sampled_from(Y_STARTS)))
    goal = np.zeros(split.y_dim)
    if draw(st.booleans()):
        goal = goal + draw(st.sampled_from([0.5, -0.25]))
    tol = draw(st.sampled_from([DEFAULT_SOLVE_TOL, 1e-15]))
    max_iter = draw(st.sampled_from([1, 3, DEFAULT_MAX_ITER]))
    return split, np.array(X), np.array(Y0), goal, tol, max_iter


@PROPERTY
@given(block=lane_blocks())
def test_lanes_equal_solves_run_alone(block):
    assert_lanes_match(*block)


#: the message of each NonConvergenceError cause of damped_newton
CAUSE_MESSAGES = {"budget": "iterations", "non-finite": "non-finite",
                  "stalled": "stalled", "slow": "ratio above"}


def outcome(error):
    if error is None:
        return "converged"
    if isinstance(error, SingularBlockError):
        return "singular"
    assert CAUSE_MESSAGES[error.cause] in str(error), (error.cause, error)
    return error.cause


def fixed_lane_sets():
    """Every start kind at every offset scale, as one block per constraint
    and budget: (split, X, Y0, goal, max_iter)."""
    rng = rng_from_seed(17)
    for name in CASES:
        split, x, y = split_case(name)
        X, Y0 = [], []
        for scale in OFFSET_SCALES:
            for start in Y_STARTS:
                u = rng.normal(size=x.size)
                X.append(x + scale * u / np.linalg.norm(u))
                Y0.append(y * start)
        goal = np.zeros(split.y_dim)
        for max_iter in (3, DEFAULT_MAX_ITER):
            yield split, np.array(X), np.array(Y0), goal, max_iter


def test_lane_blocks_cover_every_outcome():
    """Between them the fixed lane sets converge, exhaust the budget, go
    non-finite, hit a singular phi-block and stall, and some accept a
    halved step."""
    seen, halvings = set(), []
    for split, X, Y0, goal, max_iter in fixed_lane_sets():
        halvings += assert_lanes_match(split, X, Y0, goal,
                                       DEFAULT_SOLVE_TOL, max_iter)
        out = _solve_lanes(split, X, Y0, goal, DEFAULT_SOLVE_TOL, max_iter)
        seen.update(outcome(e) for e in out.errors)
    assert seen == {"converged", "budget", "non-finite", "singular",
                    "stalled"}
    assert max(halvings) >= 1


# ---------------------------------------------------------------------------
# the slow-lane rule of the chart-radius screen
# ---------------------------------------------------------------------------

def assert_slow_rule_only_ends_failing_lanes(split, X, Y0, goal, max_iter):
    """Solve the block with and without end_slow_lanes: every lane the rule
    ends fails without it, and every other lane ends bit for bit the same.
    Returns the number of lanes the rule ended."""
    ruled = _solve_lanes(split, X, Y0, goal, DEFAULT_SOLVE_TOL, max_iter,
                         end_slow_lanes=True)
    free = _solve_lanes(split, X, Y0, goal, DEFAULT_SOLVE_TOL, max_iter)
    ended = 0
    for lane in range(len(X)):
        got, want = ruled.errors[lane], free.errors[lane]
        if outcome(got) == "slow":
            assert not free.converged[lane] and want is not None, lane
            ended += 1
            continue
        assert ruled.converged[lane] == free.converged[lane], lane
        assert np.array_equal(ruled.z[lane], free.z[lane],
                              equal_nan=True), lane
        assert ruled.steps[lane] == free.steps[lane], lane
        assert np.array_equal(ruled.history(lane), free.history(lane),
                              equal_nan=True), lane
        assert type(got) is type(want) and str(got) == str(want), lane
    return ended


def radius_check_blocks(monkeypatch):
    """The lane blocks build_chart's radius check solves on the registry
    constraints, as _solve_lanes arguments: the screen's blocks and those
    of the rest of the round trip (_round_trip_rest_ok)."""
    screen, rest, in_rest = [], [], []
    solve, rest_ok = implicit._solve_lanes, implicit._round_trip_rest_ok

    def record(split, X, Y0, goal, tol, max_iter, end_slow_lanes=False):
        if end_slow_lanes:
            (rest if in_rest else screen).append(
                (split, X.copy(), np.array(Y0), goal, max_iter))
        return solve(split, X, Y0, goal, tol, max_iter, end_slow_lanes)

    def tagged(*args):
        in_rest.append(True)
        try:
            return rest_ok(*args)
        finally:
            in_rest.pop()

    with monkeypatch.context() as patch:
        patch.setattr(implicit, "_solve_lanes", record)
        patch.setattr(implicit, "_round_trip_rest_ok", tagged)
        for level in (0, 1, 2):
            sphere_chart(level, K=16)
        make_sphere_intersection(_space(16), (0, 1), radii=[1, 2], seed=3)
        make_sphere_intersection(_space(12), (0, 2), radii=[1, 3], seed=3)
    return screen, rest


def test_slow_rule_ends_only_lanes_that_fail_without_it(monkeypatch):
    """The rule is empirical: on the fixed lane sets and on the radius
    check's own blocks, screen and rest alike, it must end no lane that
    converges without it."""
    ended = sum(assert_slow_rule_only_ends_failing_lanes(*lane_set)
                for lane_set in fixed_lane_sets())
    screen, rest = radius_check_blocks(monkeypatch)
    screened = sum(assert_slow_rule_only_ends_failing_lanes(*block)
                   for block in screen)
    rested = sum(assert_slow_rule_only_ends_failing_lanes(*block)
                 for block in rest)
    # 25 of the 360 fixed lanes and most screen lanes end early
    assert ended > 0 and screened > sum(len(b[1]) for b in screen) // 2
    assert rest and rested > 0


# ---------------------------------------------------------------------------
# the batched chart inverse and its callers
# ---------------------------------------------------------------------------

def sphere_chart(level=0, K=6, seed=11):
    c = sphere_constraint(_space(K), level)
    return build_chart(c, _space(K).basis(0), seed=seed)


def spheres_chart(seed=11):
    manifold = make_sphere_intersection(_space(8), (0, 1), radii=[1, 2],
                                        seed=3)
    chart = manifold.charts[0]
    return build_chart(manifold.constraint, chart.base_point, seed=seed,
                       report=chart.report)


def chart_directions(chart, seed):
    """The unit directions build_chart round-trips at this seed."""
    dirs = rng_from_seed(seed).normal(size=(CHART_DIRECTIONS,
                                            chart.kernel_dimension))
    return dirs / np.linalg.norm(dirs, axis=1)[:, None]


@pytest.mark.parametrize("make", [sphere_chart, spheres_chart])
def test_chart_inverse_lanes_equal_single_inverses(make):
    chart = make()
    rng = rng_from_seed(23)
    # more rows than one Newton block, at radii inside and past the chart
    count = CHART_LANES + 9
    u = rng.normal(size=(count, chart.kernel_dimension))
    radii = chart.validity_radius * rng.uniform(0.0, 2.5, size=count)
    offsets = u / np.linalg.norm(u, axis=1)[:, None] * radii[:, None]
    flats, converged, errors = chart.inverse_lanes(offsets)
    assert converged.any() and not converged.all()
    for row, x in enumerate(offsets):
        try:
            q = chart.inverse(x)
        except (NonConvergenceError, SingularBlockError) as err:
            assert not converged[row], row
            assert type(errors[row]) is type(err), row
            assert str(errors[row]) == str(err), row
            continue
        assert converged[row] and errors[row] is None, row
        assert np.array_equal(flats[row], flatten(q)[0]), row
        assert np.array_equal(chart.offsets_lanes(flats[row:row + 1]),
                              chart.offsets(q)), row


def reference_round_trip_ok(chart, radius, directions):
    """Each direction solved and checked alone, stopping at the first
    failure."""
    bound = CHART_ROUND_TRIP_TOL * (1.0 + radius)
    for u in directions:
        x = radius * u
        try:
            q = chart.inverse(x)
        except (NonConvergenceError, SingularBlockError):
            return False
        x_back, values = chart.forward(q)
        if float(np.linalg.norm(x_back - x)) > bound or \
                float(np.linalg.norm(values)) > bound:
            return False
    return True


@pytest.mark.parametrize("make", [sphere_chart, spheres_chart])
def test_round_trip_check_matches_one_direction_at_a_time(make):
    chart = make(seed=11)
    directions = chart_directions(chart, 11)
    R = chart.validity_radius
    verdicts = []
    for factor in (0.5, 1.0 - 1e-6, 1.0, 1.0 + 1e-6, 1.0 + 1e-3, 1.5, 3.0):
        radius = factor * R
        want = reference_round_trip_ok(chart, radius, directions)
        assert _chart_round_trip_ok(chart, radius, directions) == want, factor
        verdicts.append(want)
    # the certified radius passes and radii past it fail
    assert verdicts[2] and not verdicts[-1]


def reference_sample_overlap(chart_a, chart_b, count, seed):
    rng = rng_from_seed(seed)
    dim = chart_a.kernel_dimension
    points = []
    for _ in range(4 * count):
        if len(points) >= count:
            break
        u = rng.normal(size=dim)
        norm = float(np.linalg.norm(u))
        if norm == 0.0:
            continue
        scale = 0.9 * chart_a.validity_radius * \
            float(rng.uniform(0.2, 1.0)) ** (1.0 / max(dim, 1))
        try:
            q = chart_a.inverse(scale * u / norm)
        except (NonConvergenceError, SingularBlockError):
            continue
        if chart_b.contains(q):
            points.append(q)
    return points


@pytest.mark.parametrize("level, count", [(0, 5), (0, 70), (1, 24)])
def test_overlap_sample_matches_one_point_at_a_time(level, count):
    manifold = make_sphere(_space(6), level, seed=4)
    a, b = manifold.charts
    got = _sample_overlap(a, b, count, seed=9)
    want = reference_sample_overlap(a, b, count, seed=9)
    assert got.shape == (len(want), a.constraint.flat_dimension)
    for p, q in zip(got, want):
        assert np.array_equal(p, flatten(q)[0])


def test_overlap_sample_keeps_draw_order_past_rejections():
    # chart b with a tiny radius rejects most candidates, so the sample
    # takes several rounds of draws and may come up short
    manifold = make_sphere(_space(6), 0, seed=4)
    a, b = manifold.charts
    narrow = build_chart(b.constraint, b.base_point, seed=2)
    object.__setattr__(narrow, "validity_radius", 0.7)
    got = _sample_overlap(a, narrow, 12, seed=1)
    want = reference_sample_overlap(a, narrow, 12, seed=1)
    assert 0 < len(want)
    assert [p.tobytes() for p in got] == [flatten(q)[0].tobytes()
                                          for q in want]
