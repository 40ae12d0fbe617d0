"""Regular points, splittings, the Newton solver, and charts."""

import gc
import math
import re
import weakref
from dataclasses import replace

import numpy as np
import pytest

from tamef.errors import (NonConvergenceError, RegularityError,
                          SingularBlockError, UnsupportedGradingError)
from tamef.graded import (DEGREE_STABILITY_FACTOR, BanachFiber, SequenceBatch,
                          SequenceSpace, as_batch, inner_product, seminorm_l1)
from tamef.implicit import (DEFAULT_MAX_ITER, DEFAULT_SOLVE_TOL, Chart,
                            ConstraintMap, PointSplit, SplitConstraint,
                            _canonical_signs, _solve_lanes, affine_constraint, apply_dphi,
                            apply_vphi, build_chart, build_constraint,
                            find_preimage, flatten,
                            is_regular_point,
                            level_weights, linear_constraint,
                            parse_constraint_name, polynomial_constraint,
                            solve_implicit,
                            sphere_constraint, unflatten)
from tamef.manifold import make_sphere, make_sphere_intersection
from tamef.maps import TameMapDescriptor, certify_tame
from tamef.newton import damped_newton
from tamef.probes import make_probes, rng_from_seed

R1 = BanachFiber(1)
SPACE16 = SequenceSpace(R1, truncation_degree=16, n_max=4)
SPACE8 = SequenceSpace(R1, truncation_degree=8, n_max=4)

# Newton on y^2 - 1 from 0.5: y <- (y + 1/y)/2
QUADRATIC_ITERATES = (0.5, 1.25, 1.025, 1.0003048780487805)


def no_kernel(X, Y):
    """d_x of a split constraint with x_dim = 0 and y_dim = 1."""
    return np.zeros((len(X), 1, 0))


def scalar_quadratic():
    """phi(y) = y^2 - 1 with no kernel coordinates."""
    return SplitConstraint(
        lambda X, Y: Y * Y - 1.0,
        x_dim=0, y_dim=1, d_x=no_kernel,
        d_y=lambda X, Y: 2.0 * Y[:, :, None],
        name="quadratic")


def sqrt_or_nan(Y):
    """sqrt of every entry, NaN where it is negative, without a warning."""
    return np.where(Y >= 0.0, np.sqrt(np.abs(Y)), math.nan)


def lanes_of(L, block):
    """One copy of a fixed derivative block per lane."""
    return np.broadcast_to(np.asarray(block, dtype=np.float64),
                           (L,) + np.shape(block))


def affine_split():
    """phi(x, y) = y - (2 x_0 + 1, -x_1)."""
    return SplitConstraint(
        lambda X, Y: Y - np.stack([2.0 * X[:, 0] + 1.0, -X[:, 1]], axis=1),
        x_dim=2, y_dim=2,
        d_x=lambda X, Y: lanes_of(len(X), [[-2.0, 0.0], [0.0, 1.0]]),
        d_y=lambda X, Y: lanes_of(len(X), np.eye(2)),
        name="affine-split")


def no_root_split():
    """phi(y) = y^2 + 1, which has no real root."""
    return SplitConstraint(
        lambda X, Y: Y * Y + 1.0,
        x_dim=0, y_dim=1, d_x=no_kernel,
        d_y=lambda X, Y: 2.0 * Y[:, :, None],
        name="no-root")


def nan_block_split():
    """phi(y) = y - 1 with a phi-block that is never finite."""
    return SplitConstraint(
        lambda X, Y: Y - 1.0, x_dim=0, y_dim=1, d_x=no_kernel,
        d_y=lambda X, Y: np.full((len(Y), 1, 1), math.nan), name="nan-block")


def sqrt_split():
    """phi(y) = sqrt(y) - 0.05, NaN for negative y."""
    return SplitConstraint(
        lambda X, Y: sqrt_or_nan(Y) - 0.05,
        x_dim=0, y_dim=1, d_x=no_kernel,
        d_y=lambda X, Y: (0.5 / sqrt_or_nan(Y))[:, :, None], name="sqrt")


def unit_vector(space, index, scale=1.0):
    return space.basis(index, scale=scale)


# ---------------------------------------------------------------------------
# flat coordinates
# ---------------------------------------------------------------------------

def test_flatten_round_trip():
    f = SPACE16.basis(3, scale=2.5) + SPACE16.basis(0, scale=-1.0)
    back = unflatten(SPACE16, flatten(f))
    assert np.array_equal(back.coefficients, f.coefficients)


def test_level_weights_match_seminorm():
    f = SPACE16.basis(5, scale=3.0)
    w = level_weights(SPACE16, 2)
    assert float(np.sum(w * np.abs(flatten(f)))) == seminorm_l1(f, 2)[0]


# ---------------------------------------------------------------------------
# Newton solver oracles
# ---------------------------------------------------------------------------

def test_newton_iterates_on_scalar_quadratic():
    result = solve_implicit(scalar_quadratic(), np.zeros(0), [0.5])
    assert result.converged
    assert len(result.iterates) >= len(QUADRATIC_ITERATES)
    for got, want in zip(result.iterates, QUADRATIC_ITERATES):
        assert got[0] == pytest.approx(want, abs=1e-12)
    assert result.y[0] == pytest.approx(1.0, abs=1e-12)


def test_newton_residuals_decrease_and_contract_quadratically():
    result = solve_implicit(scalar_quadratic(), np.zeros(0), [0.5])
    res = result.residuals
    assert all(res[i + 1] < res[i] for i in range(len(res) - 1))
    for i in range(len(res) - 1):
        if res[i] < 0.1:
            assert res[i + 1] <= 2.0 * res[i] ** 2


def test_newton_converges_in_one_step_for_affine():
    result = solve_implicit(affine_split(), [1.0, 3.0], [0.0, 0.0])
    assert result.converged
    assert result.iterations == 1
    assert result.y == pytest.approx([3.0, -3.0], abs=1e-14)


def test_newton_with_target_value():
    split = scalar_quadratic()
    result = solve_implicit(split, np.zeros(0), [2.0], target=[3.0])
    # y^2 - 1 = 3 -> y = 2 from the start
    assert result.iterations == 0
    assert result.y[0] == 2.0


def test_newton_nonconvergence_carries_history():
    with pytest.raises(NonConvergenceError) as err:
        solve_implicit(scalar_quadratic(), np.zeros(0), [0.5],
                       tol=1e-13, max_iter=3)
    assert len(err.value.history) == 4
    assert err.value.history[0] == pytest.approx(0.75)


def test_newton_no_real_root_stalls():
    with pytest.raises((NonConvergenceError, SingularBlockError)):
        solve_implicit(no_root_split(), np.zeros(0), [1.0])


def test_newton_returns_at_once_on_an_empty_block():
    """No lanes: one residual call on the empty block, one trail entry."""
    calls = []

    def residual(lanes, Z):
        calls.append(Z.shape)
        return Z - 1.0

    out = damped_newton(residual, lambda lanes, Z, R: (R, None),
                        np.zeros((0, 3)), 1e-12, 50, "empty")
    assert calls == [(0, 3)]
    assert len(out.trail) == len(out.norms) == 1
    assert out.z.shape == (0, 3) and out.converged.shape == (0,)


def test_newton_names_open_lanes_by_one_index():
    """Callbacks get ... while every lane is open, then the array of the
    open lane numbers; both index the rows of a block alike."""
    seen = []

    def residual(lanes, Z):
        seen.append(lanes if lanes is ... else tuple(lanes))
        return Z * Z - np.array([[1.0], [4.0], [9.0]])[lanes]

    def linear_step(lanes, Z, R):
        seen.append(lanes if lanes is ... else tuple(lanes))
        return R / (2.0 * Z), None

    out = damped_newton(residual, linear_step, np.array([[1.0], [1.5], [4.0]]),
                        1e-12, 50, "roots")
    assert out.converged.all()
    assert out.z[:, 0] == pytest.approx([1.0, 2.0, 3.0], abs=1e-12)
    # lane 0 starts at its root: the first filter leaves lanes 1 and 2
    assert seen[:3] == [..., (1, 2), (1, 2)]
    assert ... not in seen[1:] and (2,) in seen


@pytest.mark.parametrize("y0", [np.nan, np.inf])
def test_non_finite_residual_ends_the_solve(y0):
    with pytest.raises(NonConvergenceError) as err:
        solve_implicit(scalar_quadratic(), np.zeros(0), [y0])
    assert len(err.value.history) == 1
    assert not np.isfinite(err.value.history[0])


def test_non_finite_block_is_singular():
    with pytest.raises(SingularBlockError, match="not finite"):
        solve_implicit(nan_block_split(), np.zeros(0), [0.5])


def test_non_finite_candidate_is_halved():
    # sqrt(y) - 0.05 from y = 1: the full step lands at y = -0.9 where the
    # residual is NaN, so the first accepted iterate is the half step
    result = solve_implicit(sqrt_split(), np.zeros(0), [1.0])
    assert result.iterates[1][0] == pytest.approx(0.05, abs=1e-15)
    assert result.y[0] == pytest.approx(0.0025, abs=1e-12)


#: (split constraint, kernel coordinates, complement starts) of blocks whose
#: lanes converge, go non-finite, hit a singular or non-finite phi-block,
#: stall, and reject a full step for a damping ladder
LANE_BLOCKS = [
    (scalar_quadratic, np.zeros((5, 0)),
     [[0.5], [2.0], [-3.0], [0.0], [math.nan]]),
    (affine_split, [[1.0, 3.0], [0.0, 0.0], [-2.5, 7.0]],
     [[0.0, 0.0], [1.0, 1.0], [5.0, -1.0]]),
    (no_root_split, np.zeros((2, 0)), [[1.0], [-0.5]]),
    (nan_block_split, np.zeros((2, 0)), [[0.5], [2.0]]),
    (sqrt_split, np.zeros((3, 0)), [[4.0], [1.0], [0.01]]),
]


@pytest.mark.parametrize("make, X, Y0", LANE_BLOCKS)
def test_lane_callables_solve_every_row_as_alone(make, X, Y0):
    """The split constraints above take blocks of lanes: one block solve
    ends every lane as solve_implicit ends it alone."""
    split = make()
    X, Y0 = np.array(X, dtype=np.float64), np.array(Y0, dtype=np.float64)
    out = _solve_lanes(split, X, Y0, np.zeros(split.y_dim),
                       DEFAULT_SOLVE_TOL, DEFAULT_MAX_ITER)
    for lane in range(len(X)):
        try:
            alone = solve_implicit(split, X[lane], Y0[lane])
        except (NonConvergenceError, SingularBlockError) as err:
            assert not out.converged[lane], lane
            assert type(out.error(lane)) is type(err), lane
            assert str(out.error(lane)) == str(err), lane
            continue
        assert out.converged[lane], lane
        assert np.array_equal(out.z[lane], alone.y), lane
        assert out.steps[lane] == alone.iterations, lane


def test_find_preimage_non_finite_seed_returns_none():
    c = sphere_constraint(SPACE8, 0)
    assert find_preimage(c, [0.0], SPACE8.basis(0, scale=np.nan)) is None


def test_find_preimage_non_finite_jacobian_returns_none():
    # q1 q0 q0 - 1 is finite at the seed while d/dq1 = q0^2 overflows
    c = polynomial_constraint(SPACE8, [[[1.0, [1, 0, 0]], [-1.0, []]]])
    seed = SPACE8.basis(0, scale=1e200) + SPACE8.basis(1, scale=1e-300)
    assert np.isfinite(c.value(seed)).all()
    with np.errstate(over="ignore"):
        assert find_preimage(c, [0.0], seed) is None


@pytest.mark.parametrize("weight", [math.nan, math.inf, 0.0, -1.0])
def test_find_preimage_rejects_bad_scaling(weight):
    c = sphere_constraint(SPACE8, 0)
    scaling = np.ones(c.flat_dimension)
    scaling[3] = weight
    with pytest.raises(ValueError, match="scaling weights must be positive"):
        find_preimage(c, [0.0], SPACE8.basis(0), scaling=scaling)


# ---------------------------------------------------------------------------
# differential and its inverse in split coordinates
# ---------------------------------------------------------------------------

def test_dphi_for_affine_graph():
    # phi(x, y) = y - a(x), tangent (h1, h2) -> (h1, h2 - a(h1))
    A = np.array([[1.0, 2.0], [0.0, -1.0]])
    split = SplitConstraint(
        lambda X, Y: Y - X @ A.T, x_dim=2, y_dim=2,
        d_x=lambda X, Y: lanes_of(len(X), -A),
        d_y=lambda X, Y: lanes_of(len(X), np.eye(2)),
        name="graph")
    h1 = np.array([1.0, 1.0])
    h2 = np.array([0.5, 0.5])
    out1, out2 = apply_dphi(split, [0.0, 0.0], [0.0, 0.0], h1, h2)
    assert np.array_equal(out1, h1)
    assert out2 == pytest.approx(h2 - A @ h1, abs=1e-14)


def test_partial_derivative_blocks_of_the_wrong_shape_raise():
    # a (1, 3, 2) block of -A^T has the size of -A; reshaped, it scrambled
    # A's entries and apply_dphi gave (-1, -5) for the first column (-1, -4)
    A = np.array([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]])

    def split(d_x, d_y=lambda X, Y: lanes_of(len(X), np.eye(2))):
        return SplitConstraint(lambda X, Y: Y - X @ A.T, x_dim=3, y_dim=2,
                               d_x=d_x, d_y=d_y, name="graph")

    x, y, e_0 = np.zeros(3), np.zeros(2), np.array([1.0, 0.0, 0.0])
    right = split(lambda X, Y: lanes_of(len(X), -A))
    assert np.array_equal(apply_dphi(right, x, y, e_0, y)[1], [-1.0, -4.0])
    transposed = split(lambda X, Y: lanes_of(len(X), -A.T))
    with pytest.raises(ValueError, match=r"^split constraint d_x shape "
                                         r"\(1, 3, 2\), expected "
                                         r"\(1, 2, 3\)$"):
        apply_dphi(transposed, x, y, e_0, y)
    flat_block = split(lambda X, Y: lanes_of(len(X), -A),
                       d_y=lambda X, Y: lanes_of(len(X), [1.0, 0.0, 0.0, 1.0]))
    for run in (lambda: apply_dphi(flat_block, x, y, e_0, y),
                lambda: solve_implicit(flat_block, x, [0.5, 0.5])):
        with pytest.raises(ValueError, match=r"^split constraint d_y shape "
                                             r"\(1, 4\), expected "
                                             r"\(1, 2, 2\)$"):
            run()


def test_vphi_halves_for_doubling_block():
    # phi(x, y) = 2y: the inverse differential maps (k1, k2) to (k1, k2/2)
    split = SplitConstraint(
        lambda X, Y: 2.0 * Y, x_dim=1, y_dim=1,
        d_x=lambda X, Y: np.zeros((len(X), 1, 1)),
        d_y=lambda X, Y: np.full((len(X), 1, 1), 2.0),
        name="doubling")
    out1, out2 = apply_vphi(split, [0.3], [0.7], [4.0], [10.0])
    assert out1 == pytest.approx([4.0])
    assert out2 == pytest.approx([5.0], abs=1e-15)


def test_vphi_rejects_singular_block():
    split = SplitConstraint(
        lambda X, Y: 0.0 * Y, x_dim=1, y_dim=1,
        d_x=lambda X, Y: np.zeros((len(X), 1, 1)),
        d_y=lambda X, Y: np.zeros((len(X), 1, 1)),
        name="degenerate")
    with pytest.raises(SingularBlockError):
        apply_vphi(split, [0.0], [0.0], [1.0], [1.0])


# ---------------------------------------------------------------------------
# regular points of ambient constraints
# ---------------------------------------------------------------------------

def test_sphere_regular_at_first_basis_vector():
    c = sphere_constraint(SPACE16)
    report = is_regular_point(c, SPACE16.basis(0))
    assert report.rank_decision
    assert report.singular_values == pytest.approx((2.0,), abs=1e-14)
    D = SPACE16.flat_dimension
    assert report.kernel_basis.shape == (D, D - 1)
    assert report.complement_basis.shape == (D, 1)
    # complement aligns with the gradient direction, canonical sign positive
    compl = report.complement_basis[:, 0]
    assert compl[0] == pytest.approx(1.0, abs=1e-12)
    assert np.linalg.norm(compl[1:]) <= 1e-12


def test_sphere_not_regular_at_origin():
    c = sphere_constraint(SPACE16)
    report = is_regular_point(c, SPACE16.basis(0, scale=0.0))
    assert not report.rank_decision
    assert report.singular_values == (0.0,)
    assert report.kernel_basis is None


#: constraints whose Jacobian at the first basis vector is not finite
NON_FINITE_JACOBIANS = {
    "linear-nan": lambda: linear_constraint(SPACE8, [1.0, math.nan]),
    "linear-inf": lambda: linear_constraint(SPACE8, [math.inf, 1.0]),
    "affine-nan": lambda: affine_constraint(
        SPACE8, [[math.nan] + [1.0] * (SPACE8.flat_dimension - 1)], [0.0]),
    "polynomial-nan": lambda: polynomial_constraint(
        SPACE8, [[[math.nan, [1]], [1.0, [0]]]]),
}


@pytest.mark.parametrize("name", sorted(NON_FINITE_JACOBIANS))
def test_non_finite_jacobian_is_not_regular(name):
    # the SVD of a NaN matrix does not converge: the report has no rank
    # instead, and its singular values are NaN
    c = NON_FINITE_JACOBIANS[name]()
    report = is_regular_point(c, SPACE8.basis(0))
    assert not report.rank_decision
    assert report.kernel_basis is None
    assert len(report.singular_values) == c.target_dim
    assert all(math.isnan(s) for s in report.singular_values)
    with pytest.raises(RegularityError, match=re.escape("(nan,)")):
        PointSplit(c, report)


def test_kernel_basis_is_orthonormal_and_annihilated():
    c = sphere_constraint(SPACE16, level=1)
    p = SPACE16.basis(0, scale=0.8) + SPACE16.basis(2, scale=0.1)
    report = is_regular_point(c, p)
    assert report.rank_decision
    w2 = level_weights(SPACE16, 1) ** 2
    vectors = list(report.kernel_basis.T)
    for i, u in enumerate(vectors):
        for j, v in enumerate(vectors):
            want = 1.0 if i == j else 0.0
            assert float(np.sum(w2 * u * v)) == pytest.approx(want, abs=1e-10)
        assert np.linalg.norm(report.jacobian @ u) <= 1e-10
    compl = report.complement_basis[:, 0]
    for u in vectors:
        assert float(np.sum(w2 * compl * u)) == pytest.approx(0.0, abs=1e-10)


def test_codimension_larger_than_space_rejected():
    tiny = SequenceSpace(R1, truncation_degree=1, n_max=1)
    with pytest.raises(ValueError):
        affine_constraint(tiny, np.zeros((3, 2)), np.zeros(3))


def central_differences(c, flats):
    """The reference (P, m, D) Jacobians of c at the rows of flats: central
    differences of its values, each row with the step 1e-6 (1 + max |row|)."""
    step = 1e-6 * (1.0 + np.max(np.abs(flats), axis=1))
    out = np.empty((len(flats), c.target_dim, c.flat_dimension))
    for i in range(c.flat_dimension):
        shift = np.zeros_like(flats)
        shift[:, i] = step
        out[:, :, i] = (c.values(flats + shift) - c.values(flats - shift)) \
            / (2.0 * step)[:, None]
    return out


def relative_jacobian_gap(c, probes):
    """Max over the probes of max |J - J_fd| / max(1, max |J|): the
    Jacobians c supplies against central differences of its values."""
    flats = flatten(probes)
    supplied = c.jacobians(flats)
    gaps = np.max(np.abs(supplied - central_differences(c, flats)),
                  axis=(1, 2))
    scale = np.maximum(1.0, np.max(np.abs(supplied), axis=(1, 2)))
    return float(np.max(gaps / scale))


def test_supplied_jacobian_matches_finite_differences():
    # every constraint kind the registry and the ;radii= intersections build
    D = SPACE8.flat_dimension
    rng = rng_from_seed(17)
    constraints = [
        *(sphere_constraint(SPACE8, level) for level in (0, 1, 2)),
        build_constraint("spheres:0,1", SPACE8),
        make_sphere_intersection(SPACE8, (0, 1), radii=[1, 2],
                                 seed=3).constraint,
        build_constraint("linear:1,-2,0.5", SPACE8),
        affine_constraint(SPACE8, rng.normal(size=(2, D)), [0.5, -1.0]),
        polynomial_constraint(SPACE8, [[[2.0, [0, 1, 1]], [-1.0, [2]]],
                                       [[1.0, [3, 3, 3]], [0.5, []]]])]
    probes = make_probes(SPACE8, 12, seed=5)
    for c in constraints:
        assert relative_jacobian_gap(c, probes) <= 1e-6, c.name


def test_a_constraint_needs_a_callable_jacobian():
    # the contract fails at construction, not at the first jacobians call
    c = sphere_constraint(SPACE8)
    with pytest.raises(TypeError, match="^constraint 'sphere:0' needs a "
                                        "callable jacobian, got None$"):
        replace(c, jacobian=None)


def test_a_split_constraint_needs_both_partial_derivatives():
    with pytest.raises(TypeError, match="d_x"):
        SplitConstraint(lambda X, Y: Y, 1, 1)
    with pytest.raises(TypeError, match="d_y"):
        SplitConstraint(lambda X, Y: Y, 1, 1, d_x=lambda X, Y: X)


# ---------------------------------------------------------------------------
# splitting at a regular point
# ---------------------------------------------------------------------------

def test_split_coordinates_round_trip():
    c = sphere_constraint(SPACE16)
    ps = PointSplit(c, is_regular_point(c, SPACE16.basis(0)))
    q = SPACE16.basis(0, scale=0.3) + SPACE16.basis(4, scale=-1.2)
    (x,), (y,) = ps.coords_of(q)
    back = ps.point_of(x, y)
    assert np.allclose(back.coefficients, q.coefficients, atol=1e-12)


def test_split_sphere_solves_to_oracle_point():
    # kernel offset 0.6 on the unit sphere forces the complement
    # coordinate to sqrt(1 - 0.36) = 0.8
    c = sphere_constraint(SPACE16)
    ps = PointSplit(c, is_regular_point(c, SPACE16.basis(0)))
    x = np.zeros(ps.x_dim)
    x[0] = 0.6
    result = solve_implicit(ps, x, [0.5])
    assert result.converged
    assert result.y[0] == pytest.approx(0.8, abs=1e-12)
    point = ps.point_of(x, result.y)
    assert c.value(point)[0] == pytest.approx(0.0, abs=1e-11)


def test_split_sphere_residuals_contract_quadratically():
    c = sphere_constraint(SPACE16)
    ps = PointSplit(c, is_regular_point(c, SPACE16.basis(0)))
    x = np.zeros(ps.x_dim)
    x[0] = 0.6
    res = solve_implicit(ps, x, [0.5]).residuals
    for i in range(len(res) - 1):
        if res[i] < 0.1:
            assert res[i + 1] <= 2.0 * res[i] ** 2


def test_split_sphere_dphi_doubles_along_gradient():
    # at the base point the complement coordinate is 1; d/dy <q,q> = 2y
    c = sphere_constraint(SPACE16)
    ps = PointSplit(c, is_regular_point(c, SPACE16.basis(0)))
    (x,), (y,) = ps.coords_of(SPACE16.basis(0))
    assert np.linalg.norm(x) <= 1e-12
    assert y == pytest.approx([1.0], abs=1e-12)
    h1 = np.zeros(ps.x_dim)
    out1, out2 = apply_dphi(ps, x, y, h1, [1.0])
    assert np.array_equal(out1, h1)
    assert out2 == pytest.approx([2.0], abs=1e-12)


def test_dphi_vphi_identity_on_random_cotangents():
    c = sphere_constraint(SPACE16)
    ps = PointSplit(c, is_regular_point(c, SPACE16.basis(0)))
    raw = SPACE16.basis(0) + SPACE16.basis(1, scale=0.3) \
        + SPACE16.basis(2, scale=0.1)
    q = raw * (1.0 / seminorm_l1(raw, 0) ** 0.5)  # not unit; still regular
    (x,), (y,) = ps.coords_of(q)
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(7)))
    for _ in range(64):
        k1 = rng.normal(size=ps.x_dim)
        k2 = rng.normal(size=1)
        v1, v2 = apply_vphi(ps, x, y, k1, k2)
        d1, d2 = apply_dphi(ps, x, y, v1, v2)
        scale = 1.0 + float(np.linalg.norm(k1)) + float(np.linalg.norm(k2))
        assert float(np.linalg.norm(d1 - k1)) <= 1e-9 * scale
        assert float(np.linalg.norm(d2 - k2)) <= 1e-9 * scale


def split_projections(chart):
    """The kernel projection q -> embed(kernel coordinates of q) and its
    complement q -> C (complement coordinates of q), as linear maps."""
    ps = chart.split_data
    space = chart.constraint.space

    def kernel(t):
        return chart.embed(ps.kernel_coords(flatten(t)))

    def complement(t):
        coords = np.matmul(ps._compl_proj[None], flatten(t)[:, :, None])
        flats = np.matmul(ps.compl_mat[None], coords)[:, :, 0]
        return SequenceBatch(space.fiber, flats.reshape(t.coefficients.shape))

    return (TameMapDescriptor("kernel", space, space, kernel),
            TameMapDescriptor("complement", space, space, complement))


@pytest.mark.parametrize("level", [0, 2])
def test_split_projections_are_tame(level):
    # the co-Banach splitting at a regular point: both projections are
    # tame linear maps with no loss of derivatives, and they sum to q
    c = sphere_constraint(SPACE16, level)
    chart = build_chart(c, SPACE16.basis(0), seed=level)
    probes = make_probes(SPACE16, 400, seed=41 + level)
    kernel, complement = split_projections(chart)
    for desc in (kernel, complement):
        outcome = certify_tame(desc, probes, r_max=2)
        assert outcome.ok, desc.name
        assert outcome.certificate.r == 0, desc.name
    total = kernel(probes).coefficients + complement(probes).coefficients
    assert np.allclose(total, probes.coefficients, rtol=0.0, atol=1e-9)


def split_certificates(level, alpha):
    """At K = 8, 16 and 32 (n_max 4), the certificates of the kernel and
    complement projections, None where one fails, split at the point of the
    level sphere proportional to e^{-alpha k}."""
    out = []
    for K in (8, 16, 32):
        space = SequenceSpace(R1, truncation_degree=K, n_max=4)
        v = SequenceBatch(R1, np.exp(-alpha * np.arange(K + 1.0))[None, :,
                                                                   None])
        base = v * (1.0 / math.sqrt(inner_product(v, v, level)[0]))
        c = sphere_constraint(space, level)
        chart = Chart(PointSplit(c, is_regular_point(c, base)), base, 1.0)
        probes = make_probes(space, 400, seed=41 + level)
        out.append([certify_tame(desc, probes, r_max=2).certificate
                    for desc in split_projections(chart)])
    return out


def uniform_in_truncation(certificates):
    """Both projections certified with r = 0 at every K, each C(n) within
    DEGREE_STABILITY_FACTOR of itself across K."""
    for across_k in zip(*certificates):
        if any(cert is None or cert.r != 0 for cert in across_k):
            return False
        for n in across_k[0].levels:
            constants = [cert.C[n] for cert in across_k]
            if max(constants) > DEGREE_STABILITY_FACTOR * min(constants):
                return False
    return True


@pytest.mark.parametrize("alpha", [5.0, 6.0])
@pytest.mark.parametrize("level", [0, 1, 2])
def test_split_projections_are_tame_uniformly_in_truncation(level, alpha):
    # co-Banach type: the complement of the kernel is Banach, so the
    # splitting's constants must not grow with K.  The base point decays
    # faster than e^{-n_max k}, so it is smooth at every level probed.
    assert uniform_in_truncation(split_certificates(level, alpha))


@pytest.mark.parametrize("level, alpha", [(0, -0.2), (1, -0.2), (0, 1.0)])
def test_split_projection_constants_grow_at_rough_base_points(level, alpha):
    # controls: coefficients growing with k, or decaying slower than the
    # top level's weights grow (alpha <= n_max), give constants that grow
    # with K or a shift above 0, so the uniformity check discriminates
    assert not uniform_in_truncation(split_certificates(level, alpha))


def chart_inverse_descriptor(chart, level, count=400, seed=11):
    """h -> the chart inverse at the kernel coordinates of h, as a nonlinear
    map of the ambient space, with its probes: count embedded offsets
    inside 0.9 of the chart radius.  The region is the ball of the largest
    level seminorm among the probes."""
    space = chart.constraint.space
    rng = rng_from_seed(seed)
    u = rng.normal(size=(count, chart.kernel_dimension))
    u *= (0.9 * chart.validity_radius * rng.uniform(0.0, 1.0, size=count)
          / np.linalg.norm(u, axis=1))[:, None]
    probes = chart.embed(u)

    def inverse(h):
        flats, converged, _ = chart.inverse_lanes(
            chart.split_data.kernel_coords(flatten(h)))
        assert converged.all()
        return SequenceBatch(space.fiber, flats.reshape(h.coefficients.shape))

    radius = float(np.max(space.seminorm(probes, level)))
    desc = TameMapDescriptor("chart-inverse", space, space, inverse,
                             linearity="nonlinear", region_radius=radius,
                             region_level=level)
    return desc, probes


@pytest.mark.parametrize("level, K", [(0, 16), (1, 8), (2, 6)])
def test_chart_inverse_is_tame_on_its_validity_ball(level, K):
    # the chart inverse x -> (x, y(x)) loses no derivatives on the ball
    # where it is certified: |inverse(h)|_n <= C(n) (1 + |h|_n)
    space = SequenceSpace(R1, truncation_degree=K, n_max=4)
    chart = make_sphere(space, level, seed=3).charts[0]
    desc, probes = chart_inverse_descriptor(chart, level)
    outcome = certify_tame(desc, probes, r_max=2)
    assert outcome.ok
    assert outcome.certificate.r == 0


def test_split_rejects_non_regular_report():
    c = sphere_constraint(SPACE16)
    report = is_regular_point(c, SPACE16.basis(0, scale=0.0))
    with pytest.raises(RegularityError):
        PointSplit(c, report)


@pytest.mark.parametrize("gate", ["PointSplit", "build_chart"])
def test_regularity_gate_names_the_singular_values(gate):
    # PointSplit is the one gate: build_chart raises through it
    c = sphere_constraint(SPACE16)
    p = SPACE16.basis(0, scale=0.0)
    report = is_regular_point(c, p)
    calls = {"PointSplit": lambda: PointSplit(c, report),
             "build_chart": lambda: build_chart(c, p, report=report)}
    want = "sphere:0: base point fails the rank test (singular values (0.0,))"
    with pytest.raises(RegularityError, match=f"^{re.escape(want)}$"):
        calls[gate]()


def test_point_split_is_its_own_split_constraint():
    c = sphere_constraint(SPACE16)
    ps = PointSplit(c, is_regular_point(c, SPACE16.basis(0)))
    assert isinstance(ps, SplitConstraint)
    assert ps.name == "sphere:0@split"
    assert (ps.x_dim, ps.y_dim) == (SPACE16.flat_dimension - 1, 1)
    assert not hasattr(ps, "split")


def test_point_split_is_freed_without_the_cycle_collector():
    # phi_xy is a method, not a bound method stored on the split, so
    # reference counting frees a split and its report the moment they go
    c = sphere_constraint(SPACE16)
    X = np.zeros((2, SPACE16.flat_dimension - 1))
    Y = np.array([[1.0], [0.5]])
    gc.disable()
    try:
        ps = PointSplit(c, is_regular_point(c, SPACE16.basis(0)))
        assert np.array_equal(ps.phi_xy(X, Y), ps.values(X, Y))
        refs = [weakref.ref(ps), weakref.ref(ps.report)]
        del ps
        assert [ref() for ref in refs] == [None, None]
    finally:
        gc.enable()


# ---------------------------------------------------------------------------
# charts
# ---------------------------------------------------------------------------

def test_sphere_chart_round_trip():
    c = sphere_constraint(SPACE16)
    chart = build_chart(c, SPACE16.basis(0), seed=11)
    x = np.zeros(SPACE16.flat_dimension - 1)
    x[0], x[2] = 0.3, -0.2
    q = chart.inverse(x)
    assert c.value(q)[0] == pytest.approx(0.0, abs=1e-10)
    (x_back,), values = chart.forward(q)
    assert x_back == pytest.approx(x, abs=1e-10)
    assert np.linalg.norm(values) <= 1e-10


def test_sphere_chart_radius_reaches_the_equator():
    # the complement coordinate hits zero when the kernel offsets reach
    # norm 1, so the certified radius lands just around 1
    c = sphere_constraint(SPACE16)
    chart = build_chart(c, SPACE16.basis(0), seed=11)
    assert 0.9 <= chart.validity_radius <= 1.1


def test_chart_forward_of_base_point_is_origin():
    c = sphere_constraint(SPACE16)
    chart = build_chart(c, SPACE16.basis(0), seed=11)
    x, values = chart.forward(chart.base_point)
    assert np.linalg.norm(x) <= 1e-12
    assert np.linalg.norm(values) <= 1e-12


def test_chart_determinism():
    c = sphere_constraint(SPACE16)
    r1 = build_chart(c, SPACE16.basis(0), seed=11).validity_radius
    r2 = build_chart(c, SPACE16.basis(0), seed=11).validity_radius
    assert r1 == r2


def test_linear_chart_is_global():
    c = linear_constraint(SPACE8, [1.0])
    p = SPACE8.basis(0)  # phi(p) = 1, regular everywhere
    chart = build_chart(c, p, seed=3)
    assert chart.validity_radius >= 256.0
    x = np.zeros(SPACE8.flat_dimension - 1)
    x[1] = 100.0
    q = chart.inverse(x, values=np.array([1.0]))
    (x_back,), (values,) = chart.forward(q)
    assert x_back == pytest.approx(x, abs=1e-9)
    assert values == pytest.approx([1.0], abs=1e-12)


def test_zero_kernel_chart_is_a_point_with_the_largest_radius():
    """A constraint of full rank leaves no kernel: the chart's 16
    directions are empty, every trial radius round-trips, and the radius
    is the top of the ladder."""
    space = SequenceSpace(BanachFiber(1), 1, 1)
    c = affine_constraint(space, np.eye(2), [-1.0, -0.5])
    p = SequenceBatch(space.fiber, [[[1.0], [0.5]]])
    chart = build_chart(c, p, seed=3)
    assert chart.kernel_dimension == 0
    assert chart.validity_radius == 256.0


def test_chart_rejects_singular_base_point():
    c = sphere_constraint(SPACE16)
    with pytest.raises(RegularityError):
        build_chart(c, SPACE16.basis(0, scale=0.0), seed=1)


def test_chart_contains_and_json():
    c = sphere_constraint(SPACE16)
    chart = build_chart(c, SPACE16.basis(0), seed=11)
    near = chart.inverse(0.1 * np.eye(SPACE16.flat_dimension - 1)[0])
    assert chart.contains(near)
    payload = chart.to_json()
    assert set(payload) == {"base_point", "bases", "radius"}
    assert payload["radius"] == chart.validity_radius
    assert len(payload["bases"]["kernel"]) == SPACE16.flat_dimension - 1


SPACE4 = SequenceSpace(R1, truncation_degree=4, n_max=4)
SPHERE4 = sphere_constraint(SPACE4, 0)
TWO_POINTS = as_batch([SPACE4.basis(0), SPACE4.basis(1)])
#: three seeds whose row 1 is NaN: reading row 0 alone would hide it
THREE_SEEDS = as_batch([SPACE4.basis(0), SPACE4.basis(0, scale=np.nan),
                        SPACE4.basis(1)])


@pytest.mark.parametrize("call", [
    lambda: is_regular_point(SPHERE4, TWO_POINTS),
    lambda: find_preimage(SPHERE4, [0.0], THREE_SEEDS),
    lambda: build_chart(SPHERE4, TWO_POINTS, seed=0),
    lambda: build_chart(SPHERE4, TWO_POINTS, seed=0, report=is_regular_point(
        SPHERE4, SPACE4.basis(0))),
    lambda: Chart(PointSplit(SPHERE4, is_regular_point(
        SPHERE4, SPACE4.basis(0))), TWO_POINTS, 1.0),
], ids=["is_regular_point", "find_preimage", "build_chart",
        "build_chart_with_report", "Chart"])
def test_one_point_entry_points_reject_a_batch_of_several(call):
    with pytest.raises(ValueError,
                       match=r"takes one sequence, got a batch of [23]$"):
        call()


# ---------------------------------------------------------------------------
# preimages and their regularity
# ---------------------------------------------------------------------------

def test_sphere_zero_is_regular_value():
    c = sphere_constraint(SPACE16)
    seeds = [SPACE16.basis(0, scale=0.7),
             SPACE16.basis(0) + SPACE16.basis(3, scale=0.4)]
    points = [find_preimage(c, [0.0], seed) for seed in seeds]
    assert all(q is not None for q in points)
    for q in points:
        assert abs(c.value(q)[0]) <= 1e-10
        assert is_regular_point(c, q).rank_decision


def test_sphere_minus_one_fiber_is_critical():
    # <q,q> = 0 only at the origin, where the gradient vanishes
    c = sphere_constraint(SPACE16)
    q = find_preimage(c, [-1.0], SPACE16.basis(0, scale=0.0))
    assert list(q.degree()) == [-1]
    assert not is_regular_point(c, q).rank_decision


def test_preimage_search_fails_on_an_empty_fiber():
    rows = [[[1.0, [0, 0]], [1.0, []]]]  # q0^2 + 1, never zero
    c = polynomial_constraint(SPACE8, rows)
    assert find_preimage(c, [0.0], SPACE8.basis(0)) is None


def test_linear_constraint_every_value_regular():
    c = linear_constraint(SPACE8, [1.0, 2.0])
    q = find_preimage(c, [5.0], SPACE8.basis(0, scale=0.0))
    assert is_regular_point(c, q).rank_decision
    assert c.value(q)[0] == pytest.approx(5.0, abs=1e-10)


# ---------------------------------------------------------------------------
# constraint registry
# ---------------------------------------------------------------------------

def test_registry_sphere_names_and_levels():
    c = build_constraint("sphere:1", SPACE16)
    assert c.name == "sphere:1"
    assert c.level == 1
    assert c.target_dim == 1
    p = SPACE16.basis(0)  # weight e^0 = 1 at degree 0 for every level
    assert c.value(p)[0] == pytest.approx(0.0, abs=1e-14)


def test_registry_sphere_intersection():
    c = build_constraint("spheres:0,1", SPACE16)
    assert c.target_dim == 2
    assert c.level == 1  # splitting metric follows the strongest level
    p = SPACE16.basis(0)
    assert c.value(p)[0] == pytest.approx([0.0, 0.0], abs=1e-14)


def test_registry_rejects_decreasing_levels():
    with pytest.raises(ValueError):
        build_constraint("spheres:1,0", SPACE16)


def test_registry_linear_pads_coefficients():
    c = build_constraint("linear:1,2", SPACE8)
    f = SPACE8.basis(0, scale=3.0) + SPACE8.basis(1, scale=-1.0)
    assert c.value(f)[0] == pytest.approx(1.0, abs=1e-14)


def test_registry_affine_needs_params():
    with pytest.raises(ValueError):
        build_constraint("affine", SPACE8)
    c = build_constraint("affine", SPACE8, params={
        "matrix": [[1.0] + [0.0] * (SPACE8.flat_dimension - 1)],
        "offset": [-2.0]})
    assert c.value(SPACE8.basis(0, scale=2.0))[0] == pytest.approx(0.0)


def test_registry_polynomial_jacobian_is_analytic():
    rows = [[[1.0, [0, 0]], [-1.0, [1]]],       # q0^2 - q1
            [[2.0, [0, 1, 1]], [0.5, []]]]      # 2 q0 q1^2 + 0.5
    c = build_constraint("polynomial", SPACE8, params={"rows": rows})
    assert c.target_dim == 2
    probes = make_probes(SPACE8, 6, seed=21)
    assert relative_jacobian_gap(c, probes) <= 1e-6


@pytest.mark.parametrize("name", ["sphere:-1", "sphere:5", "spheres:-1,0",
                                  "spheres:0,5", "spheres:-2,-1"])
def test_registry_sphere_levels_outside_the_grading(name):
    # every level is checked against 0..n_max, not only the top one
    with pytest.raises(IndexError):
        build_constraint(name, SPACE16)


def test_parse_constraint_name():
    assert parse_constraint_name("sphere:") == ("sphere", [0])
    assert parse_constraint_name("sphere:2") == ("sphere", [2])
    assert parse_constraint_name("spheres:0,2") == ("spheres", [0, 2])
    assert parse_constraint_name("spheres:-1,0") == ("spheres", [-1, 0])
    assert parse_constraint_name("linear:1,,2.5") == ("linear", [1.0, 2.5])
    assert parse_constraint_name("polynomial") == ("polynomial", [])
    for bad in ("sphere:x", "sphere:0,1", "spheres:0,1.5", "saddle:2"):
        with pytest.raises(ValueError):
            parse_constraint_name(bad)


@pytest.mark.parametrize("name", ["sphere:0", "spheres:0,1"])
def test_sphere_constraints_name_the_fiber_they_need(name):
    complex_space = SequenceSpace(BanachFiber(1, scalar_field="complex"),
                                  truncation_degree=4, n_max=2)
    with pytest.raises(UnsupportedGradingError, match="^sphere constraints "
                                                      "need a real euclidean "
                                                      "fiber$"):
        build_constraint(name, complex_space)


def test_constraint_shape_checks():
    two_rows = ConstraintMap("two", SPACE8, 1, lambda F: np.zeros((len(F), 2)),
                             jacobian=lambda F: np.zeros((len(F), 1, 3)))
    flats = np.zeros((4, SPACE8.flat_dimension))
    with pytest.raises(ValueError, match=r"constraint returned shape "
                                         r"\(4, 2\), expected \(4, 1\)"):
        two_rows.values(flats)
    with pytest.raises(ValueError, match=r"supplied Jacobian shape "
                                         r"\(4, 1, 3\), expected \(4, 1, 9\)"):
        two_rows.jacobians(flats)
    for x_dim, y_dim in ((0, 0), (-1, 1)):
        with pytest.raises(ValueError, match="need y_dim >= 1 and x_dim >= 0"):
            SplitConstraint(lambda X, Y: Y, x_dim=x_dim, y_dim=y_dim,
                            d_x=no_kernel, d_y=no_kernel)
    wide = SplitConstraint(lambda X, Y: np.hstack([Y, Y]), x_dim=1, y_dim=1,
                           d_x=lambda X, Y: np.zeros((len(X), 1, 1)),
                           d_y=lambda X, Y: np.ones((len(X), 1, 1)))
    with pytest.raises(ValueError, match=r"split constraint returned shape "
                                         r"\(3, 2\)"):
        wide.values(np.zeros((3, 1)), np.zeros((3, 1)))


@pytest.mark.parametrize("D", [9, 17, 33])
def test_canonical_signs_match_a_column_loop(D):
    rng = rng_from_seed(D)
    _, _, vt = np.linalg.svd(rng.normal(size=(3, D)), full_matrices=True)
    columns = vt.T
    expected = columns.copy()
    for j in range(D):
        i = int(np.argmax(np.abs(expected[:, j])))
        if expected[i, j] < 0.0:
            expected[:, j] = -expected[:, j]
    got = _canonical_signs(columns)
    assert got.tobytes() == expected.tobytes()
    assert np.any(columns < 0.0) and not np.array_equal(got, columns)


def test_registry_unknown_name():
    with pytest.raises(ValueError):
        build_constraint("saddle:2", SPACE8)


def test_registry_sphere_needs_metric_fiber():
    sup_fiber = BanachFiber(2, norm_kind="supremum")
    space = SequenceSpace(sup_fiber, truncation_degree=4, n_max=2)
    with pytest.raises(UnsupportedGradingError):
        build_constraint("sphere:0", space)
