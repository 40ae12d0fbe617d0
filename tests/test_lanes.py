"""The lane-batched damped Newton against solves run one at a time.

The reference below is the scalar damped-Newton loop and the phi-block solve
that tamef ran before its solver took blocks of lanes, frozen here
unchanged: one solve, one candidate scale at a time.  Every lane of a
batched solve must end exactly as that loop ends on the lane alone: the same
floats, the same iteration count, and the same exception with the same
message.  The batched callers in charts and atlases are checked the same way
against their one-point-at-a-time forms, and the phi-block solve, which
screens small blocks without LAPACK, against the stacked SVD it replaced.
"""

import gc
import json
import math
import sys
import weakref
from collections import Counter
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tamef import cli, implicit
from tamef.errors import NonConvergenceError, SingularBlockError
from tamef.graded import BanachFiber, SequenceSpace
from tamef.implicit import (BLOCK_RTOL, CHART_DIRECTIONS, CHART_LANES,
                            CHART_ROUND_TRIP_TOL, DEFAULT_MAX_ITER,
                            DEFAULT_SOLVE_TOL, RADIUS_BISECTION_STEPS,
                            PointSplit, _chart_round_trip_ok,
                            SplitConstraint, _round_trip_rests, _solve_lanes,
                            affine_constraint, build_chart, flatten,
                            is_regular_point, polynomial_constraint,
                            solve_implicit, sphere_constraint)
from tamef.manifold import (_sample_overlap, _transition_descriptor,
                            make_sphere, make_sphere_intersection,
                            verify_transitions)
from tamef.newton import (BLOCK_NOT_FINITE, CAUSES, CONVERGED,
                          DAMPING_MAX_HALVINGS, SINGULAR, block_error)
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


def reference_solve_blocks(B, rhs):
    """implicit._solve_blocks as it was before small blocks were screened:
    a stacked SVD of every block, then np.linalg.solve."""
    all_finite = np.count_nonzero(np.isfinite(B)) == B.size
    if not all_finite:
        finite = np.isfinite(B).all(axis=(1, 2))
        B = np.where(finite[:, None, None], B, 0.0)
    sigma = np.linalg.svd(B, compute_uv=False)
    sigma_max, sigma_min = sigma[:, 0], sigma[:, -1]
    singular = sigma_min <= BLOCK_RTOL * np.maximum(sigma_max, 1.0)
    if all_finite and not np.count_nonzero(singular):
        return np.linalg.solve(B, rhs[:, :, None])[:, :, 0], None
    codes = np.where(singular, SINGULAR, CONVERGED).astype(np.int8)
    if not all_finite:
        codes[~finite] = BLOCK_NOT_FINITE
    good = codes == CONVERGED
    steps = np.zeros(rhs.shape)
    if good.any():
        steps[good] = np.linalg.solve(B[good], rhs[good][:, :, None])[:, :, 0]
    return steps, (codes, sigma[:, [-1, 0]])


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
        if error is None:
            continue
        got = out.error(lane)
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


#: the message of each failure code of damped_newton
CAUSE_MESSAGES = {"budget": "iterations", "non-finite": "non-finite residual",
                  "stalled": "stalled", "slow": "ratio above",
                  "singular": "phi-block singular",
                  "non-finite block": "phi-block not finite"}


def outcome(out, lane):
    """The name of the code that ended a lane, checked against the error a
    failed lane builds: its message, and its .cause or type."""
    name = CAUSES[out.cause[lane]]
    if out.converged[lane]:
        return name
    error = out.error(lane)
    assert CAUSE_MESSAGES[name] in str(error), (name, error)
    if out.cause[lane] >= SINGULAR:
        assert type(error) is SingularBlockError, (name, error)
    else:
        assert type(error) is NonConvergenceError, (name, error)
        assert error.cause == name, (name, error)
    return name


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


def sqrt_or_nan(Y):
    """sqrt of every entry, NaN where it is negative, without a warning."""
    return np.where(Y >= 0.0, np.sqrt(np.abs(Y)), math.nan)


def infinite_block_lanes():
    """Lanes of sqrt(y) - 1 - |x|^2 / 4, whose phi-block 1 / (2 sqrt(y)) is
    infinite at y = 0 while the residual is finite there, at every start
    kind and offset scale: (split, X, Y0, goal, max_iter).  No registry
    constraint has a non-finite phi-block where its residual is finite."""

    def d_y(X, Y):
        with np.errstate(divide="ignore"):
            return (0.5 / sqrt_or_nan(Y))[:, :, None]

    split = SplitConstraint(
        lambda X, Y: sqrt_or_nan(Y) - 1.0 - 0.25 * np.sum(
            X * X, axis=1, keepdims=True),
        x_dim=2, y_dim=1, d_x=lambda X, Y: -0.5 * X[:, None, :], d_y=d_y,
        name="sqrt")
    rng = rng_from_seed(19)
    X = [scale * rng.normal(size=2) for scale in OFFSET_SCALES
         for _ in Y_STARTS]
    Y0 = [[start] for _ in OFFSET_SCALES for start in Y_STARTS]
    return split, np.array(X), np.array(Y0), np.zeros(1), DEFAULT_MAX_ITER


def test_lane_blocks_cover_every_outcome():
    """Between them the fixed lane sets and the lanes of an infinite
    phi-block end with every code: they converge, exhaust the budget, go
    non-finite, stall, contract slowly (under end_slow_lanes), and hit a
    singular or non-finite phi-block; and some accept a halved step."""
    seen, halvings = set(), []
    for split, X, Y0, goal, max_iter in [*fixed_lane_sets(),
                                         infinite_block_lanes()]:
        halvings += assert_lanes_match(split, X, Y0, goal,
                                       DEFAULT_SOLVE_TOL, max_iter)
        for end_slow_lanes in (False, True):
            out = _solve_lanes(split, X, Y0, goal, DEFAULT_SOLVE_TOL,
                               max_iter, end_slow_lanes)
            seen.update(outcome(out, lane) for lane in range(len(X)))
    assert seen == set(CAUSES)
    assert max(halvings) >= 1


# ---------------------------------------------------------------------------
# small phi-blocks against the stacked SVD
# ---------------------------------------------------------------------------

#: entries at the edges of the float range, and the non-finite ones
EDGE_ENTRIES = (0.0, -0.0, 5e-324, -5e-324, 1e-300, -1e-300, 1e300, -1e300,
                math.nan, math.inf, -math.inf)
#: sigma_min / (BLOCK_RTOL * sigma_max) of blocks built at the singular
#: threshold: below it, on it and above it
THRESHOLD_FACTORS = (0.5, 0.75, 1.0, 1.5, 2.0)


def rotation(angle):
    return np.array([[math.cos(angle), -math.sin(angle)],
                     [math.sin(angle), math.cos(angle)]])


def small_blocks(m, seed):
    """(blocks, right-hand sides): random blocks over 28 decades, blocks
    with one or all entries drawn from EDGE_ENTRIES, exactly singular
    blocks and, for m <= 2, blocks at the singular threshold."""
    rng = rng_from_seed(seed)
    blocks = list(rng.normal(size=(48, m, m))
                  * 10.0 ** rng.uniform(-14, 14, size=(48, 1, 1)))
    blocks += list(rng.normal(size=(16, m, m))
                   * 10.0 ** rng.uniform(-20, 20, size=(16, m, m)))
    for value in EDGE_ENTRIES:
        blocks.append(np.full((m, m), value))
        block = rng.normal(size=(m, m))
        block[rng.integers(m), rng.integers(m)] = value
        blocks.append(block)
    if m > 1:
        block = rng.normal(size=(m, m))
        block[-1] = 3.0 * block[0]
        blocks.append(block)
    if m == 1:
        for factor in THRESHOLD_FACTORS:
            blocks += [np.full((1, 1), factor * BLOCK_RTOL),
                       np.full((1, 1), -factor * BLOCK_RTOL)]
        blocks += [np.full((1, 1), np.nextafter(BLOCK_RTOL, side))
                   for side in (0.0, 1.0)]
    if m == 2:
        for sigma_max in (1.0, 2.5, 1e4):
            for factor in THRESHOLD_FACTORS:
                sigma = np.diag([sigma_max, factor * BLOCK_RTOL * sigma_max])
                blocks.append(rotation(rng.uniform(0, 2 * math.pi)) @ sigma
                              @ rotation(rng.uniform(0, 2 * math.pi)))
    blocks = np.array(blocks)
    rhs = rng.normal(size=(len(blocks), m)) * 10.0 ** rng.uniform(
        -300, 300, size=(len(blocks), 1))
    rhs[::7] = 0.0
    return blocks, rhs


def assert_blocks_agree(B, rhs):
    """_solve_blocks and the stacked-SVD reference give the same step
    bytes and codes, and each blocked lane the same message; returns the
    codes."""
    steps, blocked = implicit._solve_blocks(B, rhs)
    want_steps, want_blocked = reference_solve_blocks(B, rhs)
    assert steps.tobytes() == want_steps.tobytes()
    assert (blocked is None) == (want_blocked is None)
    if want_blocked is None:
        return np.zeros(len(B), dtype=np.int8)
    codes, sigma = blocked
    want_codes, want_sigma = want_blocked
    assert codes.tobytes() == want_codes.tobytes()
    for lane in np.flatnonzero(want_codes >= SINGULAR):
        assert str(block_error("b", codes[lane], sigma[lane])) == \
            str(block_error("b", want_codes[lane], want_sigma[lane])), lane
    return codes


@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize("m", [1, 2, 3])
def test_small_block_solve_equals_the_stacked_svd(m, seed):
    """Bit for bit on the stack, on each block alone, and on the stack of
    regular blocks, which a screen may pass whole."""
    B, rhs = small_blocks(m, seed)
    codes = assert_blocks_agree(B, rhs)
    assert {CONVERGED, SINGULAR, BLOCK_NOT_FINITE} <= set(codes.tolist())
    for lane in range(len(B)):
        assert_blocks_agree(B[lane:lane + 1], rhs[lane:lane + 1])
    regular = codes == CONVERGED
    assert assert_blocks_agree(B[regular], rhs[regular]).tolist() == \
        [CONVERGED] * np.count_nonzero(regular)


def solve_with_reference_blocks(monkeypatch, solve, *args):
    """solve(*args) with the stacked-SVD reference as the phi-block solve."""
    with monkeypatch.context() as patch:
        patch.setattr(implicit, "_solve_blocks", reference_solve_blocks)
        return solve(*args)


def test_lanes_end_as_with_the_stacked_svd(monkeypatch):
    """On the fixed lane sets and the lanes of an infinite phi-block, every
    lane ends with the same iterate, steps and code, and a failed lane
    builds the same error, as under the stacked SVD."""
    for split, X, Y0, goal, max_iter in [*fixed_lane_sets(),
                                         infinite_block_lanes()]:
        for end_slow_lanes in (False, True):
            args = (split, X, Y0, goal, DEFAULT_SOLVE_TOL, max_iter,
                    end_slow_lanes)
            got = _solve_lanes(*args)
            want = solve_with_reference_blocks(monkeypatch, _solve_lanes,
                                               *args)
            assert got.z.tobytes() == want.z.tobytes()
            assert got.steps.tolist() == want.steps.tolist()
            assert got.cause.tolist() == want.cause.tolist()
            for lane in np.flatnonzero(~want.converged):
                error, want_error = got.error(lane), want.error(lane)
                assert type(error) is type(want_error), lane
                assert str(error) == str(want_error), lane


def test_apply_vphi_as_with_the_stacked_svd(monkeypatch):
    """apply_vphi at the base point and at complement points that make the
    phi-block singular (0) or non-finite (NaN)."""
    failed = 0
    for name in CASES:
        split, x, y = split_case(name)
        k1 = np.linspace(-1.0, 1.0, split.x_dim)
        k2 = np.linspace(0.5, 2.0, split.y_dim)
        for start in Y_STARTS:
            args = (split, x, y * start, k1, k2)
            try:
                want = solve_with_reference_blocks(
                    monkeypatch, implicit.apply_vphi, *args)
            except SingularBlockError as err:
                with pytest.raises(SingularBlockError) as got:
                    implicit.apply_vphi(*args)
                assert str(got.value) == str(err), (name, start)
                failed += 1
                continue
            got = implicit.apply_vphi(*args)
            assert [h.tobytes() for h in got] == \
                [h.tobytes() for h in want], (name, start)
    assert failed


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
        if outcome(ruled, lane) == "slow":
            assert not free.converged[lane], lane
            ended += 1
            continue
        assert ruled.cause[lane] == free.cause[lane], lane
        assert np.array_equal(ruled.z[lane], free.z[lane],
                              equal_nan=True), lane
        assert ruled.steps[lane] == free.steps[lane], lane
        assert np.array_equal(ruled.history(lane), free.history(lane),
                              equal_nan=True), lane
        if not free.converged[lane]:
            got, want = ruled.error(lane), free.error(lane)
            assert type(got) is type(want) and str(got) == str(want), lane
    return ended


def radius_check_blocks(monkeypatch):
    """The lane blocks build_chart's radius check solves on the registry
    constraints, as _solve_lanes arguments, by kind: the first block
    (radius 1's other directions with the lead lanes screened ahead,
    _chart_round_trip_ok), the screens' blocks and those of the rest of
    the round trip (_round_trip_rests)."""
    blocks = {"first": [], "screen": [], "rest": []}
    kind = ["screen"]
    solve = implicit._solve_lanes

    def record(split, X, Y0, goal, tol, max_iter, end_slow_lanes=False):
        if end_slow_lanes:
            blocks[kind[-1]].append(
                (split, X.copy(), np.array(Y0), goal, max_iter))
        return solve(split, X, Y0, goal, tol, max_iter, end_slow_lanes)

    def tagged(name, function):
        def run(*args):
            kind.append(name)
            try:
                return function(*args)
            finally:
                kind.pop()
        return run

    with monkeypatch.context() as patch:
        patch.setattr(implicit, "_solve_lanes", record)
        for name, function in (("first", "_chart_round_trip_ok"),
                               ("rest", "_round_trip_rests")):
            patch.setattr(implicit, function,
                          tagged(name, getattr(implicit, function)))
        for level in (0, 1, 2):
            sphere_chart(level, K=16)
        make_sphere_intersection(_space(16), (0, 1), radii=[1, 2], seed=3)
        make_sphere_intersection(_space(12), (0, 2), radii=[1, 3], seed=3)
        # radius 1 fails here: the screen's ladder lanes halve the radius
        make_sphere_intersection(_space(16), (0, 1), radii=[0.5, 0.6],
                                 seed=3)
    return blocks


def test_slow_rule_ends_only_lanes_that_fail_without_it(monkeypatch):
    """The rule is empirical: on the fixed lane sets and on the radius
    check's own blocks, first, screen and rest alike, it must end no lane
    that converges without it."""
    ended = sum(assert_slow_rule_only_ends_failing_lanes(*lane_set)
                for lane_set in fixed_lane_sets())
    work = {kind: (sum(assert_slow_rule_only_ends_failing_lanes(*block)
                       for block in blocks),
                   sum(len(block[1]) for block in blocks), len(blocks))
            for kind, blocks in radius_check_blocks(monkeypatch).items()}
    # the counts are deterministic: 25 of the 360 fixed lanes end early;
    # per kind, (lanes ended early, lanes, blocks)
    assert ended == 25
    assert work == {"first": (88, 240, 5), "screen": (110, 318, 21),
                    "rest": (85, 885, 31)}
    # 283 lanes end early in all, as when radius 1's other directions went
    # in a block of their own; the spheres:0,2 chart bisects [2, 4], so the
    # 25 spine lanes of [1, 2] screened ahead go unread
    assert sum(ended for ended, _, _ in work.values()) == 283


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
    flats, converged, error = chart.inverse_lanes(offsets)
    assert converged.any() and not converged.all()
    for row, x in enumerate(offsets):
        try:
            q = chart.inverse(x)
        except (NonConvergenceError, SingularBlockError) as err:
            assert not converged[row], row
            assert type(error(row)) is type(err), row
            assert str(error(row)) == str(err), row
            assert getattr(error(row), "history", None) == \
                getattr(err, "history", None), row
            continue
        assert converged[row], row
        assert np.array_equal(flats[row], flatten(q)[0]), row
        assert np.array_equal(chart.offsets_lanes(flats[row:row + 1]),
                              chart.offsets(q)), row


def reference_round_trip_ok(chart, radius, directions,
                            tol=CHART_ROUND_TRIP_TOL):
    """Each direction solved and checked alone, stopping at the first
    failure."""
    bound = tol * (1.0 + radius)
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
def test_round_trip_check_matches_one_direction_at_a_time(monkeypatch, make):
    chart = make(seed=11)
    directions = chart_directions(chart, 11)
    R = chart.validity_radius
    factors = (0.5, 1.0 - 1e-6, 1.0, 1.0 + 1e-6, 1.0 + 1e-3, 1.5, 3.0)
    verdicts = []
    for factor in factors:
        radius = factor * R
        want = reference_round_trip_ok(chart, radius, directions)
        ok, _ = _chart_round_trip_ok(chart, radius, directions,
                                     directions[:0])
        assert ok == want, factor
        verdicts.append(want)
    # the certified radius passes and radii past it fail
    assert verdicts[2] and not verdicts[-1]
    # the rests of every radius whose lead converged as one block, led by
    # another direction; a zero tolerance fails the round trips whose
    # points come back off by any roundoff
    radii = R * np.array(factors)
    lead_flats, lead_ok, _ = chart.inverse_lanes(radii[:, None] *
                                                 directions[3])
    radii, lead_flats = radii[lead_ok], lead_flats[lead_ok]
    tightened = []
    for tol in (CHART_ROUND_TRIP_TOL, 0.0):
        monkeypatch.setattr(implicit, "CHART_ROUND_TRIP_TOL", tol)
        want = [reference_round_trip_ok(chart, radius, directions, tol)
                for radius in radii]
        passes, converged = _round_trip_rests(chart, radii, directions, 3,
                                              lead_flats)
        assert passes.tolist() == want, tol
        for radius, row in zip(radii, converged):
            assert np.array_equal(row, chart.inverse_lanes(
                radius * directions)[1]), radius
        tightened.append(want)
    assert tightened[0] != tightened[1]


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


# ---------------------------------------------------------------------------
# errors are built only to be raised
# ---------------------------------------------------------------------------

def test_every_lane_error_built_is_raised(monkeypatch):
    """Building the charts and checking the transitions of a sphere:0 and
    two spheres:0,1 atlases builds a NonConvergenceError or
    SingularBlockError only where solve_implicit raises it: the lane blocks
    record their outcomes as codes."""
    built, raised = [], []
    for cls in (NonConvergenceError, SingularBlockError):
        def counted(self, *args, init=cls.__init__, **kwargs):
            built.append(self)
            init(self, *args, **kwargs)
        monkeypatch.setattr(cls, "__init__", counted)
    solve = implicit.solve_implicit

    def solve_counted(*args, **kwargs):
        try:
            return solve(*args, **kwargs)
        except (NonConvergenceError, SingularBlockError) as err:
            raised.append(err)
            raise

    monkeypatch.setattr(implicit, "solve_implicit", solve_counted)
    for manifold in (make_sphere(_space(32), 0, seed=1),
                     make_sphere_intersection(_space(16), (0, 1),
                                              radii=[1, 2], seed=3),
                     make_sphere_intersection(_space(16), (0, 1),
                                              radii=[0.5, 0.6], seed=3)):
        verify_transitions(manifold, probes_per_pair=8, seed=1)
    # radius 1 fails on the [0.5, 0.6] charts, and its first direction,
    # the one lane build_chart solves through solve_implicit, raises there
    assert raised
    assert len(built) == len(raised)
    assert all(b is r for b, r in zip(built, raised))


def test_raised_lane_errors_are_freed_without_the_cycle_collector():
    """No frame that raises a lane's error keeps a reference to it, so the
    error and its traceback are freed once the handler ends."""
    manifold = make_sphere(_space(6), 0, seed=4)
    a, b = manifold.charts
    offsets = np.eye(a.kernel_dimension)[:3] * (9.0 * a.validity_radius)
    desc, probes = _transition_descriptor(manifold, a, b, offsets)
    split = a.split_data
    refs = []
    gc.disable()
    try:
        for run in (lambda: solve_implicit(split, a.base_x + offsets[0],
                                           a.base_y),
                    lambda: desc(probes)):
            try:
                run()
            except (NonConvergenceError, SingularBlockError) as err:
                refs.append(weakref.ref(err))
        assert len(refs) == 2
        assert [ref() for ref in refs] == [None, None]
    finally:
        gc.enable()


# ---------------------------------------------------------------------------
# work counts
# ---------------------------------------------------------------------------

def svd_callers(monkeypatch, argv, config, tmp_path):
    """Run the CLI once, counting np.linalg.svd calls by calling function."""
    callers = Counter()
    svd = np.linalg.svd

    def counted(*args, **kwargs):
        callers[sys._getframe(1).f_code.co_name] += 1
        return svd(*args, **kwargs)

    if config is not None:
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(config), encoding="utf-8")
        argv = argv + ["--config", str(path)]
    monkeypatch.setattr(np.linalg, "svd", counted)
    assert cli.run(argv + ["--out", str(tmp_path / "run")]) == 0
    return dict(callers)


@pytest.mark.parametrize("argv, config, want", [
    # two charts, each split at its base point by two SVDs
    (["--k", "32", "--constraint", "sphere:0"], None,
     {"is_regular_point": 4}),
    # one split; every phi-block of the run passes the determinant screen
    (["--k", "16", "--constraint", "spheres:0,1"], {"radii": [1, 2]},
     {"is_regular_point": 2}),
])
def test_atlas_phi_blocks_take_no_svd(monkeypatch, tmp_path, argv, config,
                                      want):
    """A seeded atlas run makes a fixed number of SVD calls; the phi-blocks
    of its Newton solves make none."""
    argv = ["atlas", "--nmax", "4", "--seed", "1"] + argv
    assert svd_callers(monkeypatch, argv, config, tmp_path) == want


def newton_work(monkeypatch, build):
    """Run build(), recording the lanes and the rounds of every
    damped_newton call the chart code makes."""
    lanes, rounds = [], []
    newton = implicit.damped_newton

    def counted(residual, linear_step, start, *args, **kwargs):
        out = newton(residual, linear_step, start, *args, **kwargs)
        lanes.append(len(start))
        rounds.append(len(out.norms) - 1)
        return out

    monkeypatch.setattr(implicit, "damped_newton", counted)
    return build(), lanes, sum(rounds)


def test_newton_steps_form_no_flat_points(monkeypatch):
    """A PointSplit forms flat points K x + C y only in its residual: the
    phi-block of each Newton step reads the points the residual returned.
    On a sphere:0 chart the flat blocks formed while damped_newton runs are
    one per residual call; the solves' results form theirs after it."""
    counts = Counter()
    lane_flats, newton = PointSplit.lane_flats, implicit.damped_newton

    def counted_flats(self, X):
        flats = lane_flats(self, X)

        def formed(lanes, Y):
            counts["formed"] += 1
            return flats(lanes, Y)

        return formed

    def counted(residual, *args, **kwargs):
        def counted_residual(lanes, Z):
            counts["residuals"] += 1
            return residual(lanes, Z)

        before = counts["formed"]
        out = newton(counted_residual, *args, **kwargs)
        counts["in newton"] += counts["formed"] - before
        return out

    monkeypatch.setattr(PointSplit, "lane_flats", counted_flats)
    monkeypatch.setattr(implicit, "damped_newton", counted)
    space = _space(32)
    build_chart(sphere_constraint(space, 0), space.basis(0), seed=1)
    assert counts["residuals"] > 0
    assert counts["in newton"] == counts["residuals"]


def test_sphere_chart_radius_takes_two_newton_calls(monkeypatch):
    """Every bisection midpoint of a sphere:0 chart fails, so its radius
    search solves radius 1's first direction alone, then one block of the
    rest of its round trip with the lead lanes of the doubling ladder and
    of the 25-midpoint spine; the walk's screens find them all solved."""
    space = _space(32)
    chart, lanes, rounds = newton_work(
        monkeypatch,
        lambda: build_chart(sphere_constraint(space, 0), space.basis(0),
                            seed=1))
    assert chart.validity_radius.hex() == "0x1.0000000000000p+0"
    assert lanes == [1, CHART_DIRECTIONS - 1 + 8 + RADIUS_BISECTION_STEPS]
    assert rounds == 40


def test_radius_one_block_is_one_newton_call(monkeypatch):
    """Radius 1's other directions, the lead lanes of the doubling's rungs
    and those of the spine of [1, 2] fit one CHART_LANES block; raising one
    of the constants past it would split that block into two damped_newton
    calls."""
    width = (CHART_DIRECTIONS - 1 + len(implicit._rungs(True))
             + RADIUS_BISECTION_STEPS)
    assert width <= CHART_LANES
    base = make_sphere_intersection(_space(16), (0, 1), radii=[1, 2],
                                    seed=1).charts[0]
    chart, lanes, _ = newton_work(
        monkeypatch,
        lambda: build_chart(base.constraint, base.base_point, seed=5,
                            report=base.report))
    # the walk goes on past the block: some midpoints pass
    assert 1.0 < chart.validity_radius < 2.0
    assert lanes[:2] == [1, width] and len(lanes) > 2


def test_intersection_chart_newton_work_is_bounded(monkeypatch):
    """Half the midpoints of this chart pass, so its radius search solves
    the other directions of several radii; those of one predicted path go
    as one block."""
    manifold, lanes, rounds = newton_work(
        monkeypatch,
        lambda: make_sphere_intersection(_space(16), (0, 1), radii=[1, 2],
                                         seed=1))
    assert [c.validity_radius.hex() for c in manifold.charts] == \
        ["0x1.b698cc0000000p+0"]
    assert (len(lanes), rounds, sum(lanes)) == (16, 141, 335)
