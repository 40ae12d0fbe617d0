"""The chart-radius search and the lane blocks it solves.

build_chart checks radius 1 alone, then doubles or halves it and bisects
BISECTION_LEVELS steps at a time: the first direction of every trial radius
the doubling or halving can reach, and of every midpoint those bisection
steps can visit, goes as one lane block, and only the radii on the path get
the other directions.  The reference below is the search as it ran before,
frozen here unchanged: doubling or halving one radius at a time, then
RADIUS_BISECTION_STEPS bisection steps one after another, each a full
round-trip check whose first direction is solved alone.  Every certified
radius must equal it bit for bit.

A PointSplit's split constraint forms a block's kernel parts K x once per
solve; the solves must equal those of a split constraint that forms the
whole flat point on every call.
"""

import math
import random
from dataclasses import replace

import numpy as np
import pytest

from tamef import implicit
from tamef.errors import NonConvergenceError, SingularBlockError
from tamef.graded import BanachFiber, SequenceSpace
from tamef.implicit import (BISECTION_LEVELS, CHART_DIRECTIONS, CHART_LANES,
                            CHART_ROUND_TRIP_TOL, DEFAULT_MAX_ITER,
                            DEFAULT_SOLVE_TOL, RADIUS_BISECTION_STEPS,
                            VALIDITY_RADIUS_CAP, VALIDITY_RADIUS_FLOOR, Chart,
                            PointSplit, SplitConstraint, _bisect,
                            _ladder, _midpoint_tree, _solve_lanes, build_chart,
                            flatten, is_regular_point, lane_norms,
                            polynomial_constraint, sphere_constraint,
                            unflatten)
from tamef.manifold import make_sphere_intersection
from tamef.newton import CAUSES
from tamef.probes import rng_from_seed

R1 = BanachFiber(1)


def _space(K):
    return SequenceSpace(R1, truncation_degree=K, n_max=4)


# ---------------------------------------------------------------------------
# the frozen step-by-step search
# ---------------------------------------------------------------------------

def reference_round_trip_ok(chart, radius, directions):
    """The round-trip check: the first direction alone, then the rest as
    one block."""
    bound = CHART_ROUND_TRIP_TOL * (1.0 + radius)
    offsets = radius * directions
    try:
        first = flatten(chart.inverse(offsets[0]))
    except (NonConvergenceError, SingularBlockError):
        return False
    rest, converged, _ = chart.inverse_lanes(offsets[1:])
    if not converged.all():
        return False
    flats = np.vstack([first, rest])
    gaps = lane_norms(chart.offsets_lanes(flats) - offsets)
    values = lane_norms(chart.constraint.values(flats))
    return not (np.any(gaps > bound) or np.any(values > bound))


def reference_radius(c, p, seed, report,
                     round_trip_ok=reference_round_trip_ok):
    """(radius, bisection steps as (midpoint, verdict) pairs) of the
    step-by-step search; the radius is None where it rejects the chart."""
    chart = Chart(PointSplit(c, report), p, validity_radius=0.0)
    x_dim = chart.kernel_dimension
    rng = rng_from_seed(seed)
    dirs = rng.normal(size=(CHART_DIRECTIONS, x_dim)) if x_dim else \
        np.zeros((CHART_DIRECTIONS, 0))
    norms = np.linalg.norm(dirs, axis=1)
    norms[norms == 0.0] = 1.0
    dirs = dirs / norms[:, None]

    radius = 1.0
    if not round_trip_ok(chart, radius, dirs):
        while radius > VALIDITY_RADIUS_FLOOR:
            radius *= 0.5
            if round_trip_ok(chart, radius, dirs):
                break
        else:
            return None, []
    else:
        while radius < VALIDITY_RADIUS_CAP:
            if not round_trip_ok(chart, 2.0 * radius, dirs):
                break
            radius *= 2.0
        if radius >= VALIDITY_RADIUS_CAP:
            return radius, []
    lo, hi = radius, 2.0 * radius
    steps = []
    for _ in range(25):
        mid = 0.5 * (lo + hi)
        ok = round_trip_ok(chart, mid, dirs)
        steps.append((mid, ok))
        if ok:
            lo = mid
        else:
            hi = mid
    if lo < VALIDITY_RADIUS_FLOOR:
        return None, steps
    return lo, steps


def sphere_points(level, K):
    c = sphere_constraint(_space(K), level)
    return [(c, p, is_regular_point(c, p))
            for p in (_space(K).basis(0), _space(K).basis(0, scale=-1.0))]


def intersection_points(levels, radii, K):
    manifold = make_sphere_intersection(_space(K), levels, radii=radii,
                                        seed=3)
    chart = manifold.charts[0]
    return [(manifold.constraint, chart.base_point, chart.report)]


RADIUS_CASES = [(f"sphere:{level} K={K}", level, K)
                for level in (0, 1, 2) for K in (6, 16, 32)]


def assert_radii_match(points, seeds):
    """Every chart radius equals the reference's; returns the verdict
    paths of the reference bisections."""
    paths = []
    for c, p, report in points:
        for seed in seeds:
            want, steps = reference_radius(c, p, seed, report)
            paths.append([ok for _, ok in steps])
            got = build_chart(c, p, seed=seed, report=report)
            assert want is not None, (c.name, seed)
            assert got.validity_radius.hex() == want.hex(), (c.name, seed)
    return paths


@pytest.mark.parametrize("name, level, K", RADIUS_CASES,
                         ids=[case[0] for case in RADIUS_CASES])
def test_sphere_radius_equals_step_by_step_search(name, level, K):
    assert_radii_match(sphere_points(level, K), seeds=(0, 7, 101))


def test_intersection_radius_equals_step_by_step_search():
    paths = assert_radii_match(
        intersection_points((0, 1), [1, 2], 16), seeds=(0, 5, 13, 101))
    paths += assert_radii_match(
        intersection_points((0, 2), [1, 3], 12), seeds=(0, 5, 13))
    # radius 1 fails on this chart, so the search halves before it bisects
    paths += assert_radii_match(
        intersection_points((0, 1), [0.5, 0.6], 16), seeds=(0, 5, 13, 101))
    # these bisections pass some midpoints and fail others
    assert all(len(path) == RADIUS_BISECTION_STEPS for path in paths)
    assert any(any(path) and not all(path) for path in paths)


def test_sphere_zero_bisection_fails_every_midpoint():
    # sphere:0 charts are valid out to radius 1 exactly, so every midpoint
    # in (1, 2] fails and the search keeps lo = 1
    (c, p, report), _ = sphere_points(0, 16)
    radius, steps = reference_radius(c, p, 3, report)
    assert [ok for _, ok in steps] == [False] * RADIUS_BISECTION_STEPS
    assert build_chart(c, p, seed=3, report=report).validity_radius == \
        radius == 1.0


def polynomial_points(K):
    """Two polynomial constraints, x0^4 + sum_{i>0} xi^2 - 1 and
    x0^3 + x0/2 + sum_{i>0} xi^2 - 3/2, each at e_0 and at a point off
    that axis; the CLI builds charts only on spheres."""
    space = _space(K)
    squares = [[1.0, [i, i]] for i in range(1, K + 1)]
    rows_and_points = (
        ([[1.0, [0, 0, 0, 0]]] + squares + [[-1.0, []]],
         (0.8, math.sqrt(1.0 - 0.8 ** 4))),
        ([[1.0, [0, 0, 0]], [0.5, [0]]] + squares + [[-1.5, []]],
         (0.5, math.sqrt(1.125))))
    points = []
    for row, off_axis in rows_and_points:
        c = polynomial_constraint(space, [row])
        flat = np.zeros((1, space.flat_dimension))
        flat[0, :2] = off_axis
        for p in (space.basis(0), unflatten(space, flat)):
            points.append((c, p, is_regular_point(c, p)))
    return points


def finite_difference_sphere_points(K):
    c = replace(sphere_constraint(_space(K), 0), jacobian=None)
    return [(c, p, is_regular_point(c, p))
            for p in (_space(K).basis(0), _space(K).basis(0, scale=-1.0))]


def test_radius_off_the_cli_path_equals_step_by_step_search():
    paths = assert_radii_match(
        polynomial_points(8) + finite_difference_sphere_points(8),
        seeds=(0, 7))
    assert any(any(path) and not all(path) for path in paths)


# ---------------------------------------------------------------------------
# the walk against the step-by-step loop on arbitrary verdicts
# ---------------------------------------------------------------------------

def table_verdict(seed):
    """A seeded random verdict per midpoint, keyed by its float.hex: it
    passes or fails points in any order, so it is not monotone."""
    def passes(mid):
        return random.Random(f"{seed}:{mid.hex()}").random() < 0.5
    return passes


def reference_bisect(lo, hi, steps, passes):
    mids = []
    for _ in range(steps):
        mid = 0.5 * (lo + hi)
        mids.append(mid)
        if passes(mid):
            lo = mid
        else:
            hi = mid
    return lo, mids


@pytest.mark.parametrize("levels", [1, 3, BISECTION_LEVELS, 5])
@pytest.mark.parametrize("steps", [0, 1, 4, 5, RADIUS_BISECTION_STEPS])
@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_walk_takes_the_loops_midpoints(monkeypatch, levels, steps, seed):
    monkeypatch.setattr(implicit, "BISECTION_LEVELS", levels)
    passes = table_verdict(seed)
    # an interval whose midpoints are not all exact dyadic fractions, so
    # another midpoint formula would round differently
    rng = random.Random(seed)
    lo = rng.uniform(0.1, 1.0)
    hi = lo * (1.0 + rng.random())
    want, want_mids = reference_bisect(lo, hi, steps, passes)

    taken, groups = [], []

    def screen(mids):
        groups.append(len(mids))

        def verdict(node):
            taken.append(mids[node])
            return passes(mids[node])
        return verdict

    got = _bisect(lo, hi, steps, screen)
    assert got.hex() == want.hex()
    assert [m.hex() for m in taken] == [m.hex() for m in want_mids]
    # full groups of 2^levels - 1 midpoints, then one for the steps left
    full, left = divmod(steps, levels)
    assert groups == [2 ** levels - 1] * full + \
        ([2 ** left - 1] if left else [])


def reference_ladder(grows, passes):
    """lo of the one-at-a-time doubling (grows) or halving from radius 1,
    None where the halving passes no radius, and the radii it tried."""
    radius, tried = 1.0, []
    if grows:
        while radius < VALIDITY_RADIUS_CAP:
            tried.append(2.0 * radius)
            if not passes(2.0 * radius):
                break
            radius *= 2.0
        return radius, tried
    while radius > VALIDITY_RADIUS_FLOOR:
        radius *= 0.5
        tried.append(radius)
        if passes(radius):
            return radius, tried
    return None, tried


LADDER_VERDICTS = {
    "pass then fail": lambda radius: radius <= 8.0,
    "all pass": lambda radius: True,
    "none pass": lambda radius: False,
    "fail then pass": lambda radius: radius <= 2.0 ** -6,
    **{f"table {seed}": table_verdict(seed) for seed in range(4)},
}


@pytest.mark.parametrize("grows", [True, False], ids=["doubling", "halving"])
@pytest.mark.parametrize("name", sorted(LADDER_VERDICTS))
def test_ladder_takes_the_loops_trial_radii(grows, name):
    passes = LADDER_VERDICTS[name]
    want, want_tried = reference_ladder(grows, passes)
    # the loop's radii when it never stops early
    _, every = reference_ladder(grows, lambda radius: grows)
    taken, groups = [], []

    def screen(radii):
        groups.append(list(radii))

        def verdict(i):
            taken.append(radii[i])
            return passes(radii[i])
        return verdict

    got = _ladder(grows, screen)
    assert groups == [every]
    assert [r.hex() for r in taken] == [r.hex() for r in want_tried]
    # lo of the bracket [lo, 2 lo] the bisection starts from: the cap when
    # every doubling passes, 0.0 when no halving does
    assert got.hex() == (0.0 if want is None else want).hex()


def test_chart_bisection_follows_non_monotone_verdicts(monkeypatch):
    # a failing first direction fails a radius as before; past it a random
    # table decides, here and in the reference alike
    points = sphere_points(0, 6) + intersection_points((0, 1), [1, 2], 16)
    mixed = overruled = 0
    for c, p, report in points:
        for seed in (0, 1, 2, 3, 4, 5):
            table = table_verdict(seed)
            first_fails = set()

            def round_trip_ok(chart, radius, dirs):
                try:
                    chart.inverse(radius * dirs[0])
                except (NonConvergenceError, SingularBlockError):
                    first_fails.add(radius)
                    return False
                return table(radius)

            monkeypatch.setattr(
                implicit, "_round_trip_rest_ok",
                lambda chart, radius, dirs, first: table(radius))
            want, steps = reference_radius(c, p, seed, report,
                                           round_trip_ok)
            verdicts = [ok for _, ok in steps]
            mixed += any(verdicts) and not all(verdicts)
            overruled += sum(1 for mid, _ in steps
                             if mid in first_fails and table(mid))
            if want is None:
                with pytest.raises(implicit.RegularityError):
                    build_chart(c, p, seed=seed, report=report)
                continue
            got = build_chart(c, p, seed=seed, report=report)
            assert got.validity_radius.hex() == want.hex(), (c.name, seed)
    # the table mixes verdicts along paths, and some path midpoints fail
    # at the first direction although the table would pass them
    assert mixed >= 3 and overruled >= 3


def test_midpoint_tree_is_in_heap_order():
    mids = _midpoint_tree(1.0, 2.0, 3)
    assert mids == [1.5, 1.25, 1.75, 1.125, 1.375, 1.625, 1.875]
    # node 1 follows a failure of node 0 (hi = 1.5), node 2 a pass (lo = 1.5)
    lo, hi = 0.1, 0.7
    mids = _midpoint_tree(lo, hi, 2)
    assert mids[1] == 0.5 * (lo + mids[0])
    assert mids[2] == 0.5 * (mids[0] + hi)


# ---------------------------------------------------------------------------
# kernel parts formed once per block
# ---------------------------------------------------------------------------

SPLIT_CASES = ("sphere:0 K=6", "sphere:0 K=32", "sphere:0 K=6 fd",
               "spheres:0,1")


def point_split(name):
    """A PointSplit of a registry constraint the atlases use, with a
    supplied or ("fd") a finite-difference Jacobian."""
    if name == "spheres:0,1":
        manifold = make_sphere_intersection(_space(8), (0, 1), radii=[1, 2],
                                            seed=3)
        return manifold.charts[0].split_data
    K = int(name.split()[1][2:])
    c = sphere_constraint(_space(K), 0)
    if name.endswith("fd"):
        c = replace(c, jacobian=None)
    return PointSplit(c, is_regular_point(c, _space(K).basis(0)))


def uncached(ps):
    """The same split constraint as a plain SplitConstraint that forms the
    whole flat point K x + C y on every call."""
    c, K, C = ps.constraint, ps.kernel_mat, ps.compl_mat

    def flats(X, Y):
        return (np.matmul(K[None], X[:, :, None])
                + np.matmul(C[None], Y[:, :, None]))[:, :, 0]

    def block(basis):
        return lambda X, Y: np.matmul(c.jacobians(flats(X, Y)), basis)

    has_jacobian = c.jacobian is not None
    return SplitConstraint(
        lambda X, Y: c.values(flats(X, Y)), ps.x_dim, ps.y_dim,
        d_x=block(K) if has_jacobian else None,
        d_y=block(C) if has_jacobian else None, name=ps.name)


#: kernel offset scales: converging, near the edge, stalling or out of
#: budget past it
OFFSETS = (0.0, 0.05, 0.5, 0.95, 1.3, 40.0)
#: complement starts as multiples of the base point's: a zero start makes
#: the sphere phi-block singular, NaN makes the residual non-finite
STARTS = (1.0, -1.0, 0.05, 0.0, math.nan)


def lane_block(ps, count, seed):
    (x,), (y,) = ps.coords_of(ps.report.point)
    rng = rng_from_seed(seed)
    u = rng.normal(size=(count, x.size))
    u /= np.linalg.norm(u, axis=1)[:, None]
    scales = np.array([OFFSETS[i % len(OFFSETS)] for i in range(count)])
    starts = np.array([STARTS[(i // len(OFFSETS)) % len(STARTS)]
                       for i in range(count)])
    return x + scales[:, None] * u, y[None] * starts[:, None]


@pytest.mark.parametrize("name", SPLIT_CASES)
def test_kernel_parts_once_per_block_equal_uncached_solves(name):
    ps = point_split(name)
    outcomes = set()
    for count, seed in ((1, 0), (len(OFFSETS) * len(STARTS), 1),
                        (CHART_LANES + 6, 2)):
        X, Y0 = lane_block(ps, count, seed)
        goal = np.zeros(ps.y_dim)
        got = _solve_lanes(ps, X, Y0, goal, DEFAULT_SOLVE_TOL,
                           DEFAULT_MAX_ITER)
        want = _solve_lanes(uncached(ps), X, Y0, goal, DEFAULT_SOLVE_TOL,
                            DEFAULT_MAX_ITER)
        assert np.array_equal(got.cause, want.cause)
        assert np.array_equal(got.steps, want.steps)
        for lane in range(count):
            assert np.array_equal(got.z[lane], want.z[lane],
                                  equal_nan=True), lane
            assert np.array_equal(got.history(lane), want.history(lane),
                                  equal_nan=True), lane
            outcomes.add(CAUSES[want.cause[lane]])
            if want.converged[lane]:
                continue
            g, w = got.error(lane), want.error(lane)
            assert type(g) is type(w), lane
            assert str(g) == str(w), lane
            if isinstance(w, NonConvergenceError):
                assert np.array_equal(g.history, w.history,
                                      equal_nan=True), lane
    assert {"converged", "singular", "stalled"} <= outcomes


@pytest.mark.parametrize("name", SPLIT_CASES)
def test_split_values_and_blocks_equal_uncached(name):
    ps = point_split(name)
    reference = uncached(ps)
    X, Y = lane_block(ps, 2 * len(OFFSETS) * len(STARTS), 3)
    for method in ("values", "d_x", "d_y"):
        got = getattr(ps, method)(X, Y)
        want = getattr(reference, method)(X, Y)
        assert np.array_equal(got, want, equal_nan=True), method
    flats = ps.flats(X, Y)
    assert np.array_equal(ps.values(X, Y),
                          ps.constraint.values(flats), equal_nan=True)
