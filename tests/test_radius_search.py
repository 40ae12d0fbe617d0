"""The chart-radius search and the lane blocks it solves.

build_chart checks radius 1 alone, then doubles or halves it and bisects
one step at a time, reading each verdict from a screen: one direction, the
lead, of every trial radius the doubling or halving can reach goes as one
lane block, then those of the bisection's spine (the midpoints on which
every step fails), and, once the walk leaves the spine, of every midpoint
the next BISECTION_LEVELS steps can visit.  The lead starts as the first
direction; after a failed round trip it becomes the lowest direction that
did not converge there.  The other directions are solved only for radii
on the path: the first verdict that needs them confirms, in one block, the
radii of the path the walk takes if every lead verdict holds.  The
reference below is the search as it ran before, frozen here unchanged:
doubling or halving one radius at a time, then RADIUS_BISECTION_STEPS
bisection steps one after another, each a full round-trip check whose
first direction is solved alone.  Every certified radius must equal it bit
for bit.

A PointSplit's split constraint forms a block's kernel parts K x once per
solve; the solves must equal those of a split constraint that forms the
whole flat point on every call.
"""

import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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


def _calls(monkeypatch, name):
    """Wrap implicit.<name>, recording the arguments of every call."""
    calls, function = [], getattr(implicit, name)

    def recorded(*args):
        calls.append(args)
        return function(*args)

    monkeypatch.setattr(implicit, name, recorded)
    return calls


def _leads(rests):
    """The lead directions of the recorded _round_trip_rests calls."""
    return {args[3] for args in rests}


def test_intersection_radius_equals_step_by_step_search(monkeypatch):
    rests = _calls(monkeypatch, "_round_trip_rests")
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
    # a failed round trip moves the lead off the first direction
    assert _leads(rests) - {0}


SPHERES_CASES = [((0, 1), [1, 2], True), ((0, 2), [1, 3], True),
                 ((1, 2), [2, 3], True), ((0, 1, 2), [1, 2, 8], True),
                 # radius 1 fails here, so the search halves before it
                 # bisects
                 ((0, 1), [0.5, 0.6], False)]


@pytest.mark.parametrize(
    "levels, radii, grows", SPHERES_CASES,
    ids=[f"{levels}-{radii}" for levels, radii, _ in SPHERES_CASES])
def test_spheres_radius_equals_step_by_step_search(monkeypatch, levels,
                                                   radii, grows):
    points = intersection_points(levels, radii, 6)
    rests = _calls(monkeypatch, "_round_trip_rests")
    ladders = _calls(monkeypatch, "_ladder")
    paths = assert_radii_match(points, seeds=(0, 1, 2, 3))
    assert [ladder[0] for ladder in ladders] == [grows] * 4
    assert any(any(path) and not all(path) for path in paths)
    assert _leads(rests) - {0}


def test_sphere_zero_bisection_fails_every_midpoint():
    # sphere:0 charts are valid out to radius 1 exactly, so every midpoint
    # in (1, 2] fails and the search keeps lo = 1
    (c, p, report), _ = sphere_points(0, 16)
    radius, steps = reference_radius(c, p, 3, report)
    assert [ok for _, ok in steps] == [False] * RADIUS_BISECTION_STEPS
    assert build_chart(c, p, seed=3, report=report).validity_radius == \
        radius == 1.0


PRESCREEN_CASES = {
    **{f"sphere:{level}": lambda level=level: sphere_points(level, 16)[:1]
       for level in (0, 1, 2)},
    "spheres:0,1": lambda: intersection_points((0, 1), [1, 2], 16),
}


@pytest.mark.parametrize("name", sorted(PRESCREEN_CASES))
def test_leads_screened_ahead_equal_their_screens(monkeypatch, name):
    """The lead lanes radius 1's block solves ahead, the doubling's rungs
    and the spine of [1, 2], equal bit for bit (flat point and convergence)
    the lanes of the ladder's and the spine's own screens."""
    (c, p, report), = PRESCREEN_CASES[name]()
    rungs = implicit._rungs(True)
    spine = implicit._spine(1.0, 2.0, RADIUS_BISECTION_STEPS)
    checks, check = [], implicit._chart_round_trip_ok

    def recorded(chart, radius, dirs, ahead):
        out = check(chart, radius, dirs, ahead)
        checks.append((chart, radius, dirs, ahead, out))
        return out

    monkeypatch.setattr(implicit, "_chart_round_trip_ok", recorded)
    for seed in (0, 1, 2):
        build_chart(c, p, seed=seed, report=report)
    assert len(checks) == 3
    outcomes = set()
    for chart, radius, dirs, ahead, (_, lanes) in checks:
        assert radius == 1.0 and lanes is not None
        assert np.array_equal(ahead,
                              np.array(rungs + spine)[:, None] * dirs[0])
        flats, converged = lanes
        assert len(flats) == len(converged) == len(ahead)
        for rows, radii in ((slice(0, len(rungs)), rungs),
                            (slice(len(rungs), None), spine)):
            want, want_ok, _ = chart.inverse_lanes(
                np.array(radii)[:, None] * dirs[0], end_slow_lanes=True)
            assert np.array_equal(flats[rows], want, equal_nan=True)
            assert np.array_equal(converged[rows], want_ok)
        outcomes.update(converged.tolist())
    # sphere charts at e_0 end at radius 1 exactly, so none of their leads
    # ahead converges
    assert outcomes == ({False, True} if name == "spheres:0,1" else {False})


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


def test_radius_off_the_cli_path_equals_step_by_step_search():
    paths = assert_radii_match(polynomial_points(8), seeds=(0, 7))
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


def _lead_verdict(seed):
    """A seeded random lead verdict per radius, passing three in four."""
    def passes(radius):
        return random.Random(f"lead {seed}:{radius.hex()}").random() < 0.75
    return passes


def _spine_then_trees(number, radii):
    """The path rule of _bisect's screens, the spine first: on the spine a
    fail leads to the next midpoint and a pass off it; in a tree node i
    leads to 2i + 1 after a fail and to 2i + 2 after a pass."""
    if number == 0:
        return lambda i, ok: len(radii) if ok else i + 1
    return lambda i, ok: 2 * i + (2 if ok else 1)


def _rungs(grows):
    """The path rule of _ladder's screen: the next rung while the verdict
    equals grows."""
    return lambda number, radii: (
        lambda i, ok: i + 1 if ok == grows else len(radii))


def _walk(patch, run, lead_passes, passes, rule):
    """run(screen) on fake screens.  A radius passes where both
    lead_passes and passes do, and a confirm block asks passes alone.
    rule(number, radii) is the path rule of the screen of that number.
    Every confirm block must hold the asked radius and the radii after it
    on the path the lead verdicts predict, skipping those whose lead
    fails, at most BISECTION_LEVELS of them; no radius is confirmed twice.
    Returns run's result, the radii the walk asked in order, each from the
    newest screen, and the radii of every screen."""
    asked, asking, screens = [], [], []
    verdicts = implicit._verdicts

    def screen(radii):
        screens.append(list(radii))
        lead_ok = np.array([lead_passes(r) for r in radii], dtype=bool)
        successor = rule(len(screens) - 1, radii)
        confirmed = set()

        def confirm(nodes):
            path, node = [], asking[-1]
            while node < len(radii):
                if lead_ok[node]:
                    path.append(node)
                node = successor(node, lead_ok[node])
            assert nodes == path[:implicit.BISECTION_LEVELS]
            assert lead_ok[nodes].all() and confirmed.isdisjoint(nodes)
            confirmed.update(nodes)
            return [passes(radii[i]) for i in nodes]
        return lead_ok, confirm

    def recorded(radii, successor, screen):
        verdict, number = verdicts(radii, successor, screen), len(screens)

        def ask(i):
            assert number == len(screens)
            asked.append(radii[i])
            asking.append(i)
            return verdict(i)
        return ask

    patch.setattr(implicit, "_verdicts", recorded)
    return run(screen), asked, screens


@pytest.mark.parametrize("levels", [1, 3, BISECTION_LEVELS, 5])
@pytest.mark.parametrize("steps", [0, 1, 4, 5, RADIUS_BISECTION_STEPS])
@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_walk_takes_the_loops_midpoints(monkeypatch, levels, steps, seed):
    monkeypatch.setattr(implicit, "BISECTION_LEVELS", levels)
    table, lead = table_verdict(seed), _lead_verdict(seed)
    # an interval whose midpoints are not all exact dyadic fractions, so
    # another midpoint formula would round differently
    rng = random.Random(seed)
    lo = rng.uniform(0.1, 1.0)
    hi = lo * (1.0 + rng.random())
    want, want_mids = reference_bisect(
        lo, hi, steps, lambda mid: lead(mid) and table(mid))
    got, taken, screens = _walk(
        monkeypatch, lambda screen: _bisect(lo, hi, steps, screen), lead,
        table, _spine_then_trees)
    assert got.hex() == want.hex()
    assert [m.hex() for m in taken] == [m.hex() for m in want_mids]
    # the spine holds the steps up to the loop's first pass; from the step
    # after it, a tree of 2^levels - 1 midpoints for every `levels` steps
    # and a smaller one for the steps left
    verdicts = [lead(mid) and table(mid) for mid in want_mids]
    want_groups = [steps] if steps else []
    if any(verdicts):
        for step in range(verdicts.index(True) + 1, steps, levels):
            want_groups.append(2 ** min(steps - step, levels) - 1)
    assert [len(mids) for mids in screens] == want_groups


VERDICT_KINDS = ("table", "boundary", "at lo", "at hi")


@settings(derandomize=True, deadline=None, database=None, max_examples=300)
@given(lo=st.floats(1e-6, 1e3), width=st.floats(0.0, 4.0),
       steps=st.integers(0, RADIUS_BISECTION_STEPS),
       levels=st.integers(1, 5), kind=st.sampled_from(VERDICT_KINDS),
       seed=st.integers(0, 2 ** 16), where=st.floats(0.0, 1.0),
       leads=st.sampled_from(("all pass", "table")))
def test_walk_equals_the_loop_on_any_verdicts(lo, width, steps, levels,
                                              kind, seed, where, leads):
    """The walk returns the loop's lo bit for bit and asks the loop's
    midpoints in order, each from the newest screen, which holds it; its
    confirm blocks keep the protocol _walk checks."""
    hi = lo * (1.0 + width)
    boundary = lo + where * (hi - lo)
    passes = {"table": table_verdict(seed),
              "boundary": lambda mid: mid <= boundary,
              "at lo": lambda mid: False,
              "at hi": lambda mid: True}[kind]
    lead = {"all pass": lambda mid: True,
            "table": _lead_verdict(seed)}[leads]
    want, want_mids = reference_bisect(
        lo, hi, steps, lambda mid: lead(mid) and passes(mid))
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(implicit, "BISECTION_LEVELS", levels)
        got, taken, screens = _walk(
            patch, lambda screen: _bisect(lo, hi, steps, screen), lead,
            passes, _spine_then_trees)
    assert got.hex() == want.hex()
    assert [m.hex() for m in taken] == [m.hex() for m in want_mids]
    if kind == "at lo":
        # every step fails: the spine answers them all
        assert len(screens) == min(steps, 1)


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
LADDER_LEADS = {
    "lead passes": lambda radius: True,
    # the lead alone fails a rung that "pass then fail" or "fail then
    # pass" passes
    "lead fails at 2^3 and 2^-6": lambda radius: radius not in (8.0, 2**-6),
    "lead table": _lead_verdict(1),
}


@pytest.mark.parametrize("grows", [True, False], ids=["doubling", "halving"])
@pytest.mark.parametrize("name", sorted(LADDER_VERDICTS))
def test_ladder_takes_the_loops_trial_radii(grows, name):
    passes = LADDER_VERDICTS[name]
    # the loop's radii when it never stops early
    _, every = reference_ladder(grows, lambda radius: grows)
    for lead_passes in LADDER_LEADS.values():
        want, want_tried = reference_ladder(
            grows, lambda radius: lead_passes(radius) and passes(radius))
        with pytest.MonkeyPatch.context() as patch:
            got, taken, screens = _walk(
                patch, lambda screen: _ladder(grows, screen), lead_passes,
                passes, _rungs(grows))
        assert screens == [every]
        assert [r.hex() for r in taken] == [r.hex() for r in want_tried]
        # lo of the bracket [lo, 2 lo] the bisection starts from: the cap
        # when every doubling passes, 0.0 when no halving does
        assert got.hex() == (0.0 if want is None else want).hex()


def test_chart_bisection_follows_non_monotone_verdicts(monkeypatch):
    # a radius with a direction that fails fails as before; past that a
    # random table decides, here and in the reference alike
    points = sphere_points(0, 6) + intersection_points((0, 1), [1, 2], 16)
    rests = implicit._round_trip_rests
    mixed = overruled = 0
    for c, p, report in points:
        for seed in (0, 1, 2, 3, 4, 5):
            table = table_verdict(seed)
            some_fail = set()

            def round_trip_ok(chart, radius, dirs):
                _, converged, _ = chart.inverse_lanes(radius * dirs)
                if not converged.all():
                    some_fail.add(radius)
                    return False
                return table(radius)

            def table_rests(chart, radii, dirs, lead, lead_flats, *solved):
                _, converged = rests(chart, radii, dirs, lead, lead_flats,
                                     *solved)
                return converged.all(axis=1) & np.array(
                    [table(radius) for radius in radii], dtype=bool), \
                    converged

            monkeypatch.setattr(implicit, "_round_trip_rests", table_rests)
            want, steps = reference_radius(c, p, seed, report,
                                           round_trip_ok)
            verdicts = [ok for _, ok in steps]
            mixed += any(verdicts) and not all(verdicts)
            overruled += sum(1 for mid, _ in steps
                             if mid in some_fail and table(mid))
            if want is None:
                with pytest.raises(implicit.RegularityError):
                    build_chart(c, p, seed=seed, report=report)
                continue
            got = build_chart(c, p, seed=seed, report=report)
            assert got.validity_radius.hex() == want.hex(), (c.name, seed)
    # the table mixes verdicts along paths, and some path midpoints fail
    # at a direction although the table would pass them
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

SPLIT_CASES = ("sphere:0 K=6", "sphere:0 K=32", "spheres:0,1")


def point_split(name):
    """A PointSplit of a registry constraint the atlases use."""
    if name == "spheres:0,1":
        manifold = make_sphere_intersection(_space(8), (0, 1), radii=[1, 2],
                                            seed=3)
        return manifold.charts[0].split_data
    K = int(name.split()[1][2:])
    c = sphere_constraint(_space(K), 0)
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

    return SplitConstraint(
        lambda X, Y: c.values(flats(X, Y)), ps.x_dim, ps.y_dim,
        d_x=block(K), d_y=block(C), name=ps.name)


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
