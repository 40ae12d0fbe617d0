"""Regular points, coordinate splittings, and the Newton-based implicit solver.

A constraint is a map phi from a sequence space into R^m.  At a regular
point the Jacobian, weighted by the level-n metric, has all m singular
values above the rank threshold; the right-singular vectors split the space
into a kernel part (the chart coordinates) and an m-dimensional complement
on which the phi-block is invertible.  The implicit solver runs damped
Newton on the complement coordinates, and charts pair the linear projection
onto the kernel with that solver as the inverse.

Everything here is finite dimensional: the target is R^m and the ambient
space is truncated, so the classical inverse function theorem applies and
no smoothing/regularization machinery is needed.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field, replace
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from .errors import NonConvergenceError, RegularityError, SingularBlockError
from .graded import SequenceBatch, SequenceSpace, _weights, one_row
from .newton import (BLOCK_NOT_FINITE, CONVERGED, SINGULAR, NewtonLanes,
                     block_error, damped_newton, lane_norms)
from .probes import rng_from_seed

RANK_RTOL = 1e-8
BLOCK_RTOL = 1e-12
DEFAULT_SOLVE_TOL = 1e-12
DEFAULT_MAX_ITER = 50
#: charts whose round-trip radius collapses below this are rejected: a rank
#: decision that barely clears the threshold can still leave the phi-block
#: too ill-conditioned to invert reliably
VALIDITY_RADIUS_FLOOR = 1e-4
VALIDITY_RADIUS_CAP = 256.0
#: random kernel directions round-tripped at every trial chart radius
CHART_DIRECTIONS = 16
#: chart inverses solved in one Newton block; a block and its damping
#: ladder (20 rows for every lane that rejects a full step) stay this small
#: however many points a caller solves
CHART_LANES = 64
CHART_ROUND_TRIP_TOL = 1e-8
#: halvings of the chart-radius interval after the doubling search
RADIUS_BISECTION_STEPS = 25
#: bisection steps a tree screen covers once the walk has left the spine:
#: the lead directions of all 2^BISECTION_LEVELS - 1 midpoints those steps
#: can visit are solved at once; a block of the other directions holds at
#: most this many trial radii
BISECTION_LEVELS = 4
PREIMAGE_TOL = 1e-10
#: Gauss-Newton steps find_preimage takes from one seed at most
PREIMAGE_MAX_ITER = 60


# ---------------------------------------------------------------------------
# flat coordinates
# ---------------------------------------------------------------------------

def flatten(f: SequenceBatch) -> np.ndarray:
    """Flat coordinates of every row of a batch, (P, D)."""
    return f.coefficients.reshape(len(f), -1).copy()


def unflatten(space: SequenceSpace, flats: np.ndarray) -> SequenceBatch:
    """The batch whose rows have the flat coordinates of a (P, D) block."""
    return SequenceBatch(space.fiber, np.asarray(flats).reshape(
        len(flats), space.truncation_degree + 1, space.fiber.dimension))


def _project(rows: np.ndarray, flats: np.ndarray) -> np.ndarray:
    """rows @ flat for every row flat of a (P, D) block, each the float
    the one-vector product gives."""
    return np.matmul(rows[None], flats[:, :, None])[:, :, 0]


def level_weights(space: SequenceSpace, level: int) -> np.ndarray:
    """Per-flat-coordinate weights e^{level*k}, shared with the seminorms."""
    return np.repeat(_weights((int(level),), space.truncation_degree)[:, 0, 0],
                     space.fiber.dimension)


# ---------------------------------------------------------------------------
# constraints
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ConstraintMap:
    """phi: sequence space -> R^m with its analytic Jacobian.

    phi and jacobian work on lanes: they take a (P, D) block of flat
    coordinate vectors (see flatten), one point per row, must not modify it,
    and return the (P, m) values and the (P, m, D) Jacobians; jacobian is
    required, since regularity is a statement about it.  The damped-Newton
    step search evaluates every halving of a rejected step in one call, also
    halvings a one-at-a-time search would have skipped, so phi returns
    non-finite values where it is undefined rather than raising.  level sets
    the metric used for splittings at this constraint's regular points.
    """

    name: str
    space: SequenceSpace
    target_dim: int
    phi: Callable[[np.ndarray], np.ndarray]
    jacobian: Callable[[np.ndarray], np.ndarray]
    level: int = 0

    def __post_init__(self):
        if not callable(self.jacobian):
            raise TypeError(f"constraint {self.name!r} needs a callable "
                            f"jacobian, got {self.jacobian!r}")
        if not 1 <= self.target_dim <= self.flat_dimension:
            raise ValueError(
                f"{self.target_dim} constraint rows; a constraint needs 1 "
                f"to {self.flat_dimension}, its flat coordinates")
        if not 0 <= self.level <= self.space.n_max:
            raise IndexError(f"metric level {self.level} outside the grading")

    @property
    def flat_dimension(self) -> int:
        return self.space.flat_dimension

    def value(self, f: SequenceBatch) -> np.ndarray:
        """phi at every row of a batch: the (P, m) values."""
        return self.values(flatten(f))

    def values(self, flats: np.ndarray) -> np.ndarray:
        """phi on a (P, D) block: the (P, m) values, one row per point."""
        out = np.asarray(self.phi(flats), dtype=np.float64)
        if out.shape != (flats.shape[0], self.target_dim):
            raise ValueError(
                f"constraint returned shape {out.shape}, expected "
                f"({flats.shape[0]}, {self.target_dim})")
        return out

    def jacobians(self, flats: np.ndarray) -> np.ndarray:
        """The (P, m, D) Jacobians at the rows of a (P, D) block."""
        J = np.asarray(self.jacobian(flats), dtype=np.float64)
        want = (flats.shape[0], self.target_dim, self.flat_dimension)
        if J.shape != want:
            raise ValueError(
                f"supplied Jacobian shape {J.shape}, expected {want}")
        return J


# ---------------------------------------------------------------------------
# regular points
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RegularPointReport:
    point: SequenceBatch
    jacobian: np.ndarray
    singular_values: Tuple[float, ...]
    rank_decision: bool
    inner_product_level: int
    #: flat (D, D - m) and (D, m) matrices, one basis vector per column;
    #: None at a non-regular point
    kernel_basis: Optional[np.ndarray] = None
    complement_basis: Optional[np.ndarray] = None


def _canonical_signs(columns: np.ndarray) -> np.ndarray:
    """Flip each column so its largest-magnitude entry is positive."""
    rows = np.argmax(np.abs(columns), axis=0)
    flip = columns[rows, np.arange(columns.shape[1])] < 0.0
    return np.where(flip, -columns, columns)


def is_regular_point(c: ConstraintMap, p: SequenceBatch) -> RegularPointReport:
    """Rank test of the metric-weighted Jacobian, with a splitting if regular.

    The weighted matrix J W^{-1} expresses the differential in coordinates
    orthonormal for the level-n inner product; its right-singular vectors,
    pulled back through W^{-1}, give bases of the kernel and its metric
    complement that are orthonormal at that level.
    """
    one_row(p, "is_regular_point")
    c.space.check_member(p)
    m = c.target_dim
    J = c.jacobians(flatten(p))[0]
    w = level_weights(c.space, c.level)
    J_w = J / w[None, :]
    # a non-finite Jacobian has no rank: its SVD would fail or give NaN
    sigma = np.linalg.svd(J_w, compute_uv=False) if np.isfinite(J_w).all() \
        else np.full(m, np.nan)
    sigma_max, sigma_min = float(sigma[0]), float(sigma[m - 1])
    regular = sigma_min > RANK_RTOL * sigma_max and sigma_max > 0.0
    kernel = complement = None
    if regular:
        _, _, vt = np.linalg.svd(J_w, full_matrices=True)
        v = _canonical_signs(vt.T)
        kernel = v[:, m:] / w[:, None]
        complement = v[:, :m] / w[:, None]
    return RegularPointReport(
        point=p, jacobian=J,
        singular_values=tuple(float(s) for s in sigma),
        rank_decision=bool(regular), inner_product_level=c.level,
        kernel_basis=kernel, complement_basis=complement)


# ---------------------------------------------------------------------------
# splittings
# ---------------------------------------------------------------------------

class SplitConstraint:
    """phi in split coordinates (x, y): x over the kernel directions, y over
    the m complement directions.  Coordinates are absolute (the zero element
    has coordinates (0, 0)), so base points carry nonzero y in general.

    phi_xy, d_x and d_y work on lanes: they take an (L, x_dim) block of x
    and an (L, y_dim) block of y, one lane per row, and return the
    (L, y_dim) values and the (L, y_dim, x_dim) and (L, y_dim, y_dim)
    partial derivatives; a block of another shape raises ValueError, as in
    ConstraintMap.jacobians.  Like ConstraintMap.phi, phi_xy returns
    non-finite values where it is undefined rather than raising.  A subclass
    that defines phi_xy, d_x, d_y and bind as methods passes None for the
    callables.
    """

    def __init__(self, phi_xy: Optional[Callable[[np.ndarray, np.ndarray],
                                                 np.ndarray]],
                 x_dim: int, y_dim: int, *,
                 d_x: Optional[Callable],
                 d_y: Optional[Callable],
                 name: str = "split"):
        if y_dim < 1 or x_dim < 0:
            raise ValueError("need y_dim >= 1 and x_dim >= 0")
        self._phi_xy = phi_xy
        self.x_dim = x_dim
        self.y_dim = y_dim
        self._d_x = d_x
        self._d_y = d_y
        self.name = name

    def bind(self, X: np.ndarray) -> Tuple[Callable, Callable]:
        """values and d_y on a block of lanes whose x stays X, lanes a lane
        index as newton.damped_newton names one (... for every row of X).
        values(lanes, Y) returns phi at (X[lanes], Y) and the point rows
        d_y reads, as damped_newton's residual returns them: here a copy
        of Y, which the caller owns.  d_y(lanes, Q) is the phi-block at
        the point rows Q that values returned."""

        def values(lanes, Y):
            out = np.asarray(self.phi_xy(X[lanes], Y), dtype=np.float64)
            if out.shape != (len(Y), self.y_dim):
                raise ValueError(
                    f"split constraint returned shape {out.shape}")
            return out, Y.copy()

        def d_y(lanes, Y):
            return self.d_y(X[lanes], Y)

        return values, d_y

    def _checked(self, name: str, block, rows: int,
                 cols: int) -> np.ndarray:
        """A partial-derivative block as floats, which must have the shape
        (rows, y_dim, cols)."""
        out = np.asarray(block, dtype=np.float64)
        want = (rows, self.y_dim, cols)
        if out.shape != want:
            raise ValueError(f"split constraint {name} shape {out.shape}, "
                             f"expected {want}")
        return out

    def phi_xy(self, X: np.ndarray, Y: np.ndarray) -> np.ndarray:
        """The phi_xy callable the constraint was built with."""
        return self._phi_xy(X, Y)

    def values(self, X: np.ndarray, Y: np.ndarray) -> np.ndarray:
        """phi at the lanes (X[i], Y[i]): an (L, y_dim) block."""
        return self.bind(X)[0](..., Y)[0]

    def d_x(self, X: np.ndarray, Y: np.ndarray) -> np.ndarray:
        return self._checked("d_x", self._d_x(X, Y), len(X), self.x_dim)

    def d_y(self, X: np.ndarray, Y: np.ndarray) -> np.ndarray:
        return self._checked("d_y", self._d_y(X, Y), len(Y), self.y_dim)


def _block_steps(B: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """B^{-1} rhs for a stack of regular blocks: rhs / b when m = 1, the
    float np.linalg.solve gives there, else np.linalg.solve."""
    if B.shape[-1] == 1:
        return rhs / B[:, 0]
    return np.linalg.solve(B, rhs[:, :, None])[:, :, 0]


def _solve_blocks(B: np.ndarray, rhs: np.ndarray
                  ) -> Tuple[np.ndarray, Optional[tuple]]:
    """B^{-1} rhs for an (L, m, m) stack of phi-blocks and (L, m) right-hand
    sides.  The second value is None when every block was solved, else the
    lanes' codes and (sigma_min, sigma_max) as damped_newton's linear_step
    returns them; a blocked lane's step row is left zero.

    A block is singular when sigma_min <= BLOCK_RTOL * max(sigma_max, 1).
    Blocks with m <= 2 are first screened without LAPACK, and a stack whose
    every block is surely regular is solved at once.  For m = 1 the screen
    is the test itself, since the singular value of b is |b|.  For m = 2,
    sigma_min >= |det| / |B|_F and sigma_max <= |B|_F, so a block with
    |det| > 2 BLOCK_RTOL |B|_F max(|B|_F, 1) is regular; the 2 covers the
    rounding of det and of LAPACK's sigma.  A non-finite block passes no
    screen.  Any other stack goes to _check_blocks.  The screen and the
    division run without floating-point warnings, as LAPACK does."""
    m = B.shape[-1]
    if m > 2:
        return _check_blocks(B, rhs)
    with np.errstate(all="ignore"):
        if m == 1:
            size = np.abs(B[:, 0, 0])
            sure = size > BLOCK_RTOL * np.maximum(size, 1.0)
        else:
            F = B.reshape(len(B), 4)
            det = F[:, 0] * F[:, 3] - F[:, 1] * F[:, 2]
            fro = lane_norms(F)
            sure = np.abs(det) > 2.0 * BLOCK_RTOL * fro * np.maximum(fro, 1.0)
        if np.count_nonzero(sure) == len(B):
            return _block_steps(B, rhs), None
        return _check_blocks(B, rhs)


def _check_blocks(B: np.ndarray, rhs: np.ndarray
                  ) -> Tuple[np.ndarray, Optional[tuple]]:
    """_solve_blocks from every block's singular values: |b| when m = 1,
    else LAPACK's SVD, so a blocked lane of m >= 2 reports LAPACK's sigma.
    (LAPACK's SVD of b rescales below about 1e-138 and above 1e138 and may
    then be one ulp off |b|; it gives the same verdict.)"""
    all_finite = np.count_nonzero(np.isfinite(B)) == B.size
    if not all_finite:
        finite = np.isfinite(B).all(axis=(1, 2))
        B = np.where(finite[:, None, None], B, 0.0)
    sigma = np.abs(B[:, 0]) if B.shape[-1] == 1 else \
        np.linalg.svd(B, compute_uv=False)
    sigma_max, sigma_min = sigma[:, 0], sigma[:, -1]
    singular = sigma_min <= BLOCK_RTOL * np.maximum(sigma_max, 1.0)
    if all_finite and not np.count_nonzero(singular):
        return _block_steps(B, rhs), None
    codes = np.where(singular, SINGULAR, CONVERGED).astype(np.int8)
    if not all_finite:
        codes[~finite] = BLOCK_NOT_FINITE
    good = codes == CONVERGED
    steps = np.zeros(rhs.shape)
    if good.any():
        steps[good] = _block_steps(B[good], rhs[good])
    return steps, (codes, sigma[:, [-1, 0]])


def _one_row_blocks(split: SplitConstraint, x, y
                    ) -> Tuple[np.ndarray, np.ndarray]:
    """d_x and d_y at the one lane (x, y)."""
    X = np.asarray(x, dtype=np.float64).reshape(1, split.x_dim)
    Y = np.asarray(y, dtype=np.float64).reshape(1, split.y_dim)
    return split.d_x(X, Y)[0], split.d_y(X, Y)[0]


def apply_dphi(split: SplitConstraint, x, y, h1, h2):
    """Differential of (x, y) -> (x, phi(x, y)): (h1, A h1 + B h2)."""
    h1 = np.asarray(h1, dtype=np.float64).reshape(split.x_dim)
    h2 = np.asarray(h2, dtype=np.float64).reshape(split.y_dim)
    A, B = _one_row_blocks(split, x, y)
    return h1, A @ h1 + B @ h2


def apply_vphi(split: SplitConstraint, x, y, k1, k2):
    """Inverse of the differential: (k1, B^{-1}(k2 - A k1))."""
    k1 = np.asarray(k1, dtype=np.float64).reshape(split.x_dim)
    k2 = np.asarray(k2, dtype=np.float64).reshape(split.y_dim)
    A, B = _one_row_blocks(split, x, y)
    h2, blocked = _solve_blocks(B[None], (k2 - A @ k1)[None])
    if blocked is not None:
        codes, sigma = blocked
        raise block_error(split.name, codes[0], sigma[0])
    return k1, h2[0]


# ---------------------------------------------------------------------------
# Newton solver
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SolveResult:
    y: np.ndarray
    residuals: Tuple[float, ...]
    iterates: Tuple[np.ndarray, ...]
    converged: bool
    iterations: int


def _solve_lanes(split: SplitConstraint, X: np.ndarray, Y0: np.ndarray,
                 goal: np.ndarray, tol: float, max_iter: int,
                 end_slow_lanes: bool = False) -> NewtonLanes:
    """Damped Newton on y for phi(X[i], y) = goal from Y0[i], one lane per
    row; each step solves the square phi-block at the point rows that the
    residual of its iterates returned."""
    values, d_y = split.bind(X)

    def residual(lanes, Y):
        phi, points = values(lanes, Y)
        return phi - goal, points

    return damped_newton(
        residual, lambda lanes, Q, R: _solve_blocks(d_y(lanes, Q), R),
        Y0, tol, max_iter, split.name, end_slow_lanes)


def solve_implicit(split: SplitConstraint, x, y0,
                   target: Optional[np.ndarray] = None,
                   tol: float = DEFAULT_SOLVE_TOL,
                   max_iter: int = DEFAULT_MAX_ITER) -> SolveResult:
    """Damped Newton on y for phi(x, y) = target (default 0), one lane of
    newton.damped_newton whose steps solve the square phi-block.  A failed
    lane raises its error: NonConvergenceError, or SingularBlockError for a
    singular or non-finite phi-block; see damped_newton.
    """
    x = np.asarray(x, dtype=np.float64).reshape(1, split.x_dim)
    y = np.asarray(y0, dtype=np.float64).reshape(1, split.y_dim)
    goal = (np.zeros(split.y_dim) if target is None
            else np.asarray(target, dtype=np.float64).reshape(split.y_dim))
    out = _solve_lanes(split, x, y, goal, tol, max_iter)
    if not out.converged[0]:
        raise out.error(0)
    return SolveResult(out.z[0], out.history(0), out.iterates(0), True,
                       int(out.steps[0]))


# ---------------------------------------------------------------------------
# splitting an ambient constraint at a regular point
# ---------------------------------------------------------------------------

class PointSplit(SplitConstraint):
    """Absolute split coordinates attached to a regular-point report, and
    their split constraint "<name>@split": the ambient constraint at the
    flat points K x + C y.  The constructor is the one regularity gate: a
    non-regular report raises RegularityError with its singular values.

    A lane's x stays fixed while it is solved, so bind forms the kernel
    parts K x of a block once (lane_flats); every residual and damping
    ladder call then gathers them by lane and adds C y.  Its values return
    those flat points as the point rows, so the phi-block of a Newton step
    reads the points its residual formed and forms none.  values, d_x and
    d_y go through the same code."""

    def __init__(self, c: ConstraintMap, report: RegularPointReport):
        if not report.rank_decision or report.kernel_basis is None:
            raise RegularityError(
                f"{c.name}: base point fails the rank test "
                f"(singular values {report.singular_values})")
        super().__init__(None, report.kernel_basis.shape[1],
                         report.complement_basis.shape[1],
                         d_x=None, d_y=None, name=f"{c.name}@split")
        self.constraint = c
        self.report = report
        self.kernel_mat = report.kernel_basis
        self.compl_mat = report.complement_basis
        w = level_weights(c.space, c.level)
        # metric-projection rows: coords(q) = (W^2 basis)^T q
        self._kernel_proj = (self.kernel_mat * (w ** 2)[:, None]).T
        self._compl_proj = (self.compl_mat * (w ** 2)[:, None]).T

    def phi_xy(self, X: np.ndarray, Y: np.ndarray) -> np.ndarray:
        """phi at the flat points K X[i] + C Y[i]: the same as values."""
        return self.values(X, Y)

    def _partials(self, flats: np.ndarray, basis: np.ndarray) -> np.ndarray:
        """The supplied ambient Jacobians at flat points, times a basis."""
        return np.matmul(self.constraint.jacobians(flats), basis)

    def bind(self, X: np.ndarray) -> Tuple[Callable, Callable]:
        c = self.constraint
        flats = self.lane_flats(X)

        def values(lanes, Y):
            points = flats(lanes, Y)
            return c.values(points), points

        def d_y(lanes, points):
            return self._partials(points, self.compl_mat)

        return values, d_y

    def d_x(self, X: np.ndarray, Y: np.ndarray) -> np.ndarray:
        return self._partials(self.flats(X, Y), self.kernel_mat)

    def d_y(self, X: np.ndarray, Y: np.ndarray) -> np.ndarray:
        return self._partials(self.flats(X, Y), self.compl_mat)

    def lane_flats(self, X: np.ndarray) -> Callable:
        """flats(lanes, Y): the flat ambient points K X[lanes] + C Y, one
        per row, lanes a lane index as in bind; the kernel parts K X are
        formed here, once."""
        kernel_parts = np.matmul(self.kernel_mat[None], X[:, :, None])

        def flats(lanes, Y):
            return (kernel_parts[lanes] + np.matmul(self.compl_mat[None],
                                                    Y[:, :, None]))[:, :, 0]

        return flats

    def flats(self, X: np.ndarray, Y: np.ndarray) -> np.ndarray:
        """Flat ambient points of the lanes (X[i], Y[i]), one per row."""
        return self.lane_flats(X)(..., Y)

    def point_of(self, x: np.ndarray, y: np.ndarray) -> SequenceBatch:
        """The point with split coordinates (x, y), as a one-row batch."""
        return unflatten(self.constraint.space, self.flats(
            np.asarray(x, dtype=np.float64)[None],
            np.asarray(y, dtype=np.float64)[None]))

    def coords_of(self, q: SequenceBatch) -> Tuple[np.ndarray, np.ndarray]:
        """The (P, x_dim) kernel and (P, y_dim) complement coordinates of
        every row of a batch."""
        flats = flatten(q)
        return self.kernel_coords(flats), _project(self._compl_proj, flats)

    def kernel_coords(self, flats: np.ndarray) -> np.ndarray:
        """Kernel coordinates of every row of a (P, D) block of points."""
        return _project(self._kernel_proj, flats)


# ---------------------------------------------------------------------------
# charts
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Chart:
    """Local straightening x -> (kernel offsets, constraint values).

    forward(q) = (P(q - p), phi(q)); inverse solves phi back from given
    kernel offsets and target values, seeded at the base point's complement
    coordinates.  Valid on kernel offsets up to validity_radius.
    """

    split_data: PointSplit
    base_point: SequenceBatch
    validity_radius: float
    base_x: np.ndarray = field(init=False, repr=False)
    base_y: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        x, y = self.split_data.coords_of(one_row(self.base_point, "Chart"))
        object.__setattr__(self, "base_x", x[0])
        object.__setattr__(self, "base_y", y[0])

    @property
    def constraint(self) -> ConstraintMap:
        return self.split_data.constraint

    @property
    def report(self) -> RegularPointReport:
        return self.split_data.report

    @property
    def kernel_dimension(self) -> int:
        return self.split_data.x_dim

    def offsets(self, q: SequenceBatch) -> np.ndarray:
        """Kernel offsets P(q - p) of every row q from the base point."""
        return self.offsets_lanes(flatten(q))

    def offsets_lanes(self, flats: np.ndarray) -> np.ndarray:
        """offsets of every row of a (P, D) block of flat points."""
        return self.split_data.kernel_coords(flats - flatten(self.base_point))

    def embed(self, x_offsets: np.ndarray) -> SequenceBatch:
        """The ambient elements sum_i x_i k_i along the kernel basis, one
        per row of a (P, kernel_dimension) block."""
        flats = _project(self.split_data.kernel_mat,
                         np.asarray(x_offsets, dtype=np.float64))
        return unflatten(self.constraint.space, flats)

    def forward(self, q: SequenceBatch) -> Tuple[np.ndarray, np.ndarray]:
        return self.offsets(q), self.constraint.value(q)

    def inverse(self, x_offsets: np.ndarray,
                values: Optional[np.ndarray] = None) -> SequenceBatch:
        x = self.base_x + np.asarray(x_offsets, dtype=np.float64)
        result = solve_implicit(self.split_data, x, self.base_y,
                                target=values)
        return self.split_data.point_of(x, result.y)

    def inverse_lanes(self, x_offsets: np.ndarray,
                      end_slow_lanes: bool = False
                      ) -> Tuple[np.ndarray, np.ndarray,
                                 Callable[[int], Exception]]:
        """inverse (to zero values) of every row of a (P, kernel_dimension)
        block, solved CHART_LANES rows at a time: the (P, D) flat points,
        which rows converged, and error(row), which builds the exception
        inverse raises for a failed row; a failed row's point means
        nothing.  end_slow_lanes also fails the rows that contract slowly
        (newton.damped_newton), with an error inverse would not raise."""
        split = self.split_data
        X = self.base_x + np.asarray(x_offsets, dtype=np.float64)
        flats = np.empty((len(X), self.constraint.flat_dimension))
        converged = np.zeros(len(X), dtype=bool)
        blocks: List[NewtonLanes] = []
        goal = np.zeros(split.y_dim)
        for start in range(0, len(X), CHART_LANES):
            block = X[start:start + CHART_LANES]
            y0 = np.broadcast_to(self.base_y, (len(block), split.y_dim))
            out = _solve_lanes(split, block, y0, goal, DEFAULT_SOLVE_TOL,
                               DEFAULT_MAX_ITER, end_slow_lanes)
            stop = start + len(block)
            flats[start:stop] = split.flats(block, out.z)
            converged[start:stop] = out.converged
            blocks.append(out)
        return flats, converged, lambda row: blocks[
            row // CHART_LANES].error(row % CHART_LANES)

    def contains(self, q: SequenceBatch) -> np.ndarray:
        """Whether each row's kernel offsets fall inside the validity
        radius."""
        return lane_norms(self.offsets(q)) <= self.validity_radius

    def to_json(self) -> dict:
        space = self.constraint.space
        return {
            "base_point": self.base_point.to_json(),
            "bases": {
                "level": self.report.inner_product_level,
                "kernel": unflatten(
                    space, self.report.kernel_basis.T).rows_json(),
                "complement": unflatten(
                    space, self.report.complement_basis.T).rows_json(),
            },
            "radius": self.validity_radius,
        }


def _chart_round_trip_ok(chart: Chart, radius: float,
                         directions: np.ndarray, ahead: np.ndarray
                         ) -> Tuple[bool, Optional[Tuple[np.ndarray,
                                                         np.ndarray]]]:
    """Whether every direction, scaled to radius, comes back through inverse
    and forward within tolerance: the first alone, through Chart.inverse,
    then the rest (_round_trip_rests) as one block that ends the lanes that
    contract slowly.  The rows of `ahead`, kernel offsets, go in that block
    too and come back as its flats and which of them converged; None when
    the first direction fails and no block is solved.  build_chart checks
    radius 1 this way, with the lanes its walk screens next as `ahead`."""
    try:
        first = flatten(chart.inverse(radius * directions[0]))
    except (NonConvergenceError, SingularBlockError):
        return False, None
    count = len(directions) - 1
    flats, converged, _ = chart.inverse_lanes(
        np.concatenate([radius * directions[1:], ahead]), end_slow_lanes=True)
    passes, _ = _round_trip_rests(chart, np.array([radius]), directions, 0,
                                  first, (flats[:count], converged[:count]))
    return bool(passes[0]), (flats[count:], converged[count:])


def _round_trip_rests(chart: Chart, radii: np.ndarray,
                      directions: np.ndarray, lead: int,
                      lead_flats: np.ndarray,
                      rests: Optional[Tuple[np.ndarray, np.ndarray]] = None
                      ) -> Tuple[np.ndarray, np.ndarray]:
    """The round trip at every radius once direction `lead`, scaled to it,
    has come back through inverse to the flat point in the same row of
    lead_flats: the other directions of all radii go as one block that
    ends the lanes that contract slowly, and such a lane fails its radius.
    rests, when given, is that block already solved: its flats and which
    converged, radius by radius.  Returns whether each radius passes and,
    one row per radius, which directions converged."""
    n, (count, x_dim) = len(radii), directions.shape
    D = chart.constraint.flat_dimension
    rest = np.arange(count) != lead
    offsets = radii[:, None, None] * directions
    if rests is None:
        rests = chart.inverse_lanes(offsets[:, rest].reshape(
            n * (count - 1), x_dim), end_slow_lanes=True)[:2]
    solved, ok = rests
    converged = np.ones((n, count), dtype=bool)
    converged[:, rest] = ok.reshape(n, count - 1)
    flats = np.empty((n, count, D))
    flats[:, lead] = lead_flats
    flats[:, rest] = solved.reshape(n, count - 1, D)
    passes = converged.all(axis=1)
    rows = int(passes.sum()) * count
    flats = flats[passes].reshape(rows, D)
    bound = (CHART_ROUND_TRIP_TOL * (1.0 + radii[passes])).repeat(count)
    gaps = lane_norms(chart.offsets_lanes(flats)
                      - offsets[passes].reshape(rows, x_dim))
    values = lane_norms(chart.constraint.values(flats))
    # a NaN gap or value passes: NaN > bound is false
    far = (gaps > bound) | (values > bound)
    passes[passes] = ~far.reshape(-1, count).any(axis=1)
    return passes, converged


#: screen(radii) solves one direction, the lead, of every trial radius and
#: returns which lanes converged, with confirm(nodes): the verdicts on
#: radii[i] for i in nodes, every one of them a radius whose lead converged
_Screen = Callable[[List[float]],
                  Tuple[np.ndarray, Callable[[List[int]], Sequence[bool]]]]


def _verdicts(radii: List[float], successor: Callable[[int, bool], int],
              screen: _Screen) -> Callable[[int], bool]:
    """The verdict on radii[i] as a function of i, from one screen of the
    radii.  A radius whose lead fails fails.  The first verdict asked that
    needs the other directions confirms, as one block, radius i and every
    later radius on the path the walk takes if each lead verdict holds:
    successor(i, verdict) is the index the walk asks after i, one past the
    radii where the path ends.  Radii whose lead failed are skipped, and a
    block holds at most BISECTION_LEVELS radii; no radius is confirmed
    twice."""
    lead_ok, confirm = screen(radii)
    known: Dict[int, bool] = {}

    def passes(i: int) -> bool:
        if not lead_ok[i]:
            return False
        if i not in known:
            path, node = [], i
            while node < len(radii) and len(path) < BISECTION_LEVELS:
                if lead_ok[node]:
                    path.append(node)
                node = successor(node, bool(lead_ok[node]))
            known.update(zip(path, map(bool, confirm(path))))
        return known[i]

    return passes


def _midpoint_tree(lo: float, hi: float, levels: int) -> List[float]:
    """The midpoints of every path of `levels` bisection steps from
    [lo, hi], in heap order: node i's children are 2i + 1, after it fails
    (hi = mid), and 2i + 2, after it passes (lo = mid)."""
    mids: List[float] = []
    bounds = [(lo, hi)]
    while len(mids) < 2 ** levels - 1:
        a, b = bounds[len(mids)]
        mid = 0.5 * (a + b)
        mids.append(mid)
        bounds += [(a, mid), (mid, b)]
    return mids


def _child(node: int, passed: bool) -> int:
    """The _midpoint_tree node a walk asks after node."""
    return 2 * node + (2 if passed else 1)


def _spine(lo: float, hi: float, steps: int) -> List[float]:
    """The midpoints of the `steps` bisection steps from [lo, hi] on which
    every step fails."""
    mids, top = [], hi
    for _ in range(steps):
        top = 0.5 * (lo + top)
        mids.append(top)
    return mids


def _bisect(lo: float, hi: float, steps: int, screen: _Screen) -> float:
    """lo after `steps` steps of

        mid = 0.5 * (lo + hi); lo = mid if it passes, else hi = mid

    taken one at a time, each verdict read from the last screen
    (_verdicts).  The first screen is the spine, the `steps` midpoints of
    the path on which every step fails: a fail leads to the next midpoint,
    a pass off the spine.  A walk that leaves the screened midpoints
    screens every path of the next min(steps left, BISECTION_LEVELS) steps
    from where it stands (_midpoint_tree), where node i leads to 2i + 1
    after a fail and to 2i + 2 after a pass.  A verdict depends on the
    midpoint's float alone, so the walk looks it up by that float; it asks
    only for the midpoints the loop takes, in order, also when the
    verdicts are not monotone."""
    mids = _spine(lo, hi, steps)
    index: Dict[float, int] = {}
    for step in range(steps):
        mid = 0.5 * (lo + hi)
        if mid not in index:
            if step:
                mids = _midpoint_tree(lo, hi,
                                      min(steps - step, BISECTION_LEVELS))
            index = {m: i for i, m in enumerate(mids)}
            passes = _verdicts(mids, _child if step else
                               lambda i, ok: steps if ok else i + 1, screen)
        if passes(index[mid]):
            lo = mid
        else:
            hi = mid
    return lo


def _rungs(grows: bool) -> List[float]:
    """The radii the doubling (grows) or the halving from 1 can try, in
    order, up to VALIDITY_RADIUS_CAP or down past VALIDITY_RADIUS_FLOOR."""
    radii = [1.0]
    while (radii[-1] < VALIDITY_RADIUS_CAP if grows
           else radii[-1] > VALIDITY_RADIUS_FLOOR):
        radii.append(radii[-1] * (2.0 if grows else 0.5))
    return radii[1:]


def _ladder(grows: bool, screen: _Screen) -> float:
    """The r that build_chart bisects [r, 2 r] from: where the doubling
    `r = 1; while r < CAP and passes(2 r): r = 2 r` stops (grows), or the
    first of r = 1/2, 1/4, ... that passes, halving while r > FLOOR, and 0.0
    for none (VALIDITY_RADIUS_CAP and _FLOOR).  One screen holds every
    radius the loop can try (_verdicts), and a rung leads to the next while
    its verdict equals grows; the walk asks in order up to the first
    verdict that is not grows."""
    radii = [1.0] + _rungs(grows)
    passes = _verdicts(radii[1:], lambda i, ok: i + 1 if ok == grows
                       else len(radii), screen)
    for i, radius in enumerate(radii[1:]):
        if passes(i) != grows:
            return radii[i] if grows else radius
    return radii[-1] if grows else 0.0


def build_chart(c: ConstraintMap, p: SequenceBatch, *, seed: int = 0,
                report: Optional[RegularPointReport] = None) -> Chart:
    """Chart at a regular point with an empirically certified radius.

    A trial radius passes when CHART_DIRECTIONS random kernel directions
    round-trip within CHART_ROUND_TRIP_TOL.  The radius starts at 1, checked
    alone, doubles or halves (_ladder), then bisects to the failure boundary
    in RADIUS_BISECTION_STEPS steps (_bisect): its first screen is the spine
    of midpoints on which every step fails, later ones trees of
    BISECTION_LEVELS steps.  A screen is one lane block of one direction,
    the lead, of every radius it holds that it has not solved before;
    the lead starts as the first direction and, after a failed round trip,
    becomes the lowest direction that did not converge there.  Once radius
    1's first direction has converged, the block of its other directions
    also holds the first direction's lanes of the doubling and of the
    spine of [1, 2], the screens the walk takes next when radius 1 passes
    and the doubling stops at 1.  The other directions go in one block per
    path the lead verdicts predict (_verdicts).  A non-regular report
    raises RegularityError from PointSplit, the one regularity gate.  A
    radius below the floor rejects the chart: the splitting is numerically
    unusable even if the rank test passed.
    """
    if report is None:
        report = is_regular_point(c, p)
    chart = Chart(PointSplit(c, report), p, validity_radius=0.0)
    x_dim = chart.kernel_dimension
    rng = rng_from_seed(seed)
    dirs = rng.normal(size=(CHART_DIRECTIONS, x_dim))
    norms = np.linalg.norm(dirs, axis=1)
    norms[norms == 0.0] = 1.0
    dirs = dirs / norms[:, None]
    lead = 0
    # the flat point and convergence of every lead lane solved so far, by
    # (direction, radius): a lane's floats do not depend on its block
    solved: Dict[Tuple[int, float], Tuple[np.ndarray, bool]] = {}

    def screen(radii: List[float]):
        # a radius whose lead fails fails; most trial radii lie outside the
        # chart, and their lanes end once they contract slowly instead of
        # running the damping ladder to a stall
        first, trial = lead, np.array(radii)
        new = [r for r in radii if (first, r) not in solved]
        if new:
            lanes = chart.inverse_lanes(np.array(new)[:, None] * dirs[first],
                                        end_slow_lanes=True)
            solved.update(zip([(first, r) for r in new], zip(*lanes[:2])))
        flats = np.array([solved[first, r][0] for r in radii])
        converged = np.array([solved[first, r][1] for r in radii])

        def confirm(nodes: List[int]) -> np.ndarray:
            nonlocal lead
            passes, settled = _round_trip_rests(chart, trial[nodes], dirs,
                                                first, flats[nodes])
            # a direction that failed at one radius tends to fail at the
            # next ones too, so the screens lead with the lowest one that
            # failed at the first radius of the path with a failed lane
            misses = np.flatnonzero(~settled)
            if misses.size:
                lead = int(misses[0] % CHART_DIRECTIONS)
            return passes

        return converged, confirm

    ahead = _rungs(True) + _spine(1.0, 2.0, RADIUS_BISECTION_STEPS)
    ok, lanes = _chart_round_trip_ok(chart, 1.0, dirs,
                                     np.array(ahead)[:, None] * dirs[lead])
    if lanes is not None:
        solved.update(zip([(lead, r) for r in ahead], zip(*lanes)))
    radius = _ladder(ok, screen)
    if radius == 0.0:
        raise RegularityError(
            f"{c.name}: no usable chart radius above "
            f"{VALIDITY_RADIUS_FLOOR} at this point")
    if radius >= VALIDITY_RADIUS_CAP:
        return replace(chart, validity_radius=radius)
    lo = _bisect(radius, 2.0 * radius, RADIUS_BISECTION_STEPS, screen)
    if lo < VALIDITY_RADIUS_FLOOR:
        raise RegularityError(
            f"{c.name}: certified radius {lo:.3g} below the floor")
    return replace(chart, validity_radius=lo)


# ---------------------------------------------------------------------------
# preimages
# ---------------------------------------------------------------------------

def find_preimage(c: ConstraintMap, target: np.ndarray,
                  seed_point: SequenceBatch,
                  scaling: Optional[np.ndarray] = None
                  ) -> Optional[SequenceBatch]:
    """Gauss-Newton from one seed; None when it fails to converge, also
    when a non-finite Jacobian makes the least-squares step fail.

    scaling, when given, are positive per-coordinate weights: steps are
    least-squares optimal in the weighted metric, which keeps the search
    stable when the Jacobian columns span many orders of magnitude.
    """
    goal = np.asarray(target, dtype=np.float64).reshape(c.target_dim)
    start = flatten(one_row(seed_point, "find_preimage"))
    weights = np.ones(c.flat_dimension) if scaling is None else scaling
    weights = np.asarray(weights, dtype=np.float64).reshape(c.flat_dimension)
    if not np.all((weights > 0.0) & (weights < math.inf)):  # NaN fails too
        raise ValueError("scaling weights must be positive and finite")

    def weighted_step(lanes, Z, R):
        # Z is the point row of the one lane of the seed: a copy of its
        # iterate, which the residual returns
        try:
            step, *_ = np.linalg.lstsq(c.jacobians(Z)[0] / weights, R[0],
                                       rcond=None)
        except np.linalg.LinAlgError:
            # the residual of an open lane is finite, so its Jacobian is not
            blocked = np.array([BLOCK_NOT_FINITE], dtype=np.int8)
            return np.zeros_like(Z), (blocked, np.zeros((1, 2)))
        return (step / weights)[None], None

    out = damped_newton(lambda lanes, Z: (c.values(Z) - goal, Z.copy()),
                        weighted_step, start, PREIMAGE_TOL,
                        PREIMAGE_MAX_ITER, c.name)
    if not out.converged[0]:
        return None
    return unflatten(c.space, out.z)


# ---------------------------------------------------------------------------
# constraint registry
# ---------------------------------------------------------------------------

def sphere_constraint(space: SequenceSpace, level: int = 0) -> ConstraintMap:
    """phi(q) = <q,q>_level - 1 with the analytic gradient 2 w^2 q."""
    space.fiber.require_real_metric("sphere constraints")
    w2 = level_weights(space, level) ** 2

    def phi(flats: np.ndarray) -> np.ndarray:
        return ((w2 * flats)[:, None, :] @ flats[:, :, None])[:, :, 0] - 1.0

    def jac(flats: np.ndarray) -> np.ndarray:
        return (2.0 * w2 * flats)[:, None, :]

    return ConstraintMap(f"sphere:{level}", space, 1, phi, jac, level=level)


def sphere_intersection_constraint(space: SequenceSpace,
                                   levels: Sequence[int]) -> ConstraintMap:
    levels = [int(n) for n in levels]
    if not levels:
        raise ValueError("need at least one sphere level")
    if sorted(set(levels)) != levels:
        raise ValueError("sphere levels must be strictly increasing")
    if levels[0] < 0 or levels[-1] > space.n_max:
        raise IndexError(f"sphere levels {levels} outside 0..{space.n_max}")
    if len(levels) > space.truncation_degree:
        raise ValueError(
            "more sphere levels than truncation degrees: fiber generically "
            "empty")
    space.fiber.require_real_metric("sphere constraints")
    w2_rows = np.stack([level_weights(space, n) ** 2 for n in levels])

    def phi(flats: np.ndarray) -> np.ndarray:
        return np.matmul(w2_rows[None], (flats * flats)[:, :, None])[:, :, 0] \
            - 1.0

    def jac(flats: np.ndarray) -> np.ndarray:
        return 2.0 * w2_rows[None] * flats[:, None, :]

    name = "spheres:" + ",".join(str(n) for n in levels)
    # split in the strongest participating metric: unit kernel offsets then
    # stay O(1) in every constraint row instead of exploding under e^{2nk}
    return ConstraintMap(name, space, len(levels), phi, jac, level=levels[-1])


def linear_constraint(space: SequenceSpace,
                      coefficients: Sequence[float]) -> ConstraintMap:
    row = np.zeros(space.flat_dimension)
    coeffs = np.asarray(list(coefficients), dtype=np.float64)
    if coeffs.size == 0 or coeffs.size > row.size:
        raise ValueError("coefficient vector empty or longer than the space")
    row[:coeffs.size] = coeffs
    matrix = row.reshape(1, -1)
    return affine_constraint(space, matrix, np.zeros(1), name="linear")


def affine_constraint(space: SequenceSpace, matrix, offset,
                      name: str = "affine") -> ConstraintMap:
    try:
        A = np.asarray(matrix, dtype=np.float64)
        b = np.asarray(offset, dtype=np.float64).reshape(-1)
    except (TypeError, ValueError, OverflowError) as err:
        raise ValueError("affine matrix and offset must hold numbers") \
            from err
    if A.ndim != 2 or A.shape[1] != space.flat_dimension:
        raise ValueError(
            f"matrix shape {A.shape} does not match flat dimension "
            f"{space.flat_dimension}")
    if b.shape != (A.shape[0],):
        raise ValueError("offset length does not match the matrix rows")

    def phi(flats: np.ndarray) -> np.ndarray:
        return np.matmul(A[None], flats[:, :, None])[:, :, 0] + b

    def jac(flats: np.ndarray) -> np.ndarray:
        return np.broadcast_to(A, (flats.shape[0],) + A.shape)

    return ConstraintMap(name, space, A.shape[0], phi, jac)


def _polynomial_term(term, D: int) -> Tuple[float, Tuple[int, ...]]:
    """(coefficient, flat indices) of one [coef, [indices]] term."""
    if not (isinstance(term, (list, tuple)) and len(term) == 2
            and isinstance(term[1], (list, tuple))):
        raise ValueError(
            f"polynomial term {term!r} is not [coefficient, [indices]]")
    try:
        coef = float(term[0])
        idx = tuple(operator.index(i) for i in term[1])
    except (TypeError, ValueError, OverflowError) as err:
        raise ValueError(f"polynomial term {term!r} needs a number and "
                         f"integer indices") from err
    if any(not 0 <= i < D for i in idx):
        raise ValueError(f"term index out of range in {term}")
    return coef, idx


def polynomial_constraint(space: SequenceSpace, rows) -> ConstraintMap:
    """Rows of terms [coef, [flat indices]]; an index repeated p times means
    that coordinate raised to the p-th power."""
    D = space.flat_dimension
    if not isinstance(rows, (list, tuple)) or \
            not all(isinstance(row, (list, tuple)) for row in rows):
        raise ValueError("polynomial rows must be lists of terms")
    parsed = [tuple(_polynomial_term(term, D) for term in row)
              for row in rows]
    if not parsed:
        raise ValueError("polynomial constraint needs at least one row")

    def phi(flats: np.ndarray) -> np.ndarray:
        out = np.zeros((flats.shape[0], len(parsed)))
        for r, terms in enumerate(parsed):
            for coef, idx in terms:
                prod = np.full(flats.shape[0], coef)
                for i in idx:
                    prod *= flats[:, i]
                out[:, r] += prod
        return out

    def jac(flats: np.ndarray) -> np.ndarray:
        J = np.zeros((flats.shape[0], len(parsed), D))
        for r, terms in enumerate(parsed):
            for coef, idx in terms:
                for pos in range(len(idx)):
                    prod = np.full(flats.shape[0], coef)
                    for other_pos, i in enumerate(idx):
                        if other_pos != pos:
                            prod *= flats[:, i]
                    J[:, r, idx[pos]] += prod
        return J

    return ConstraintMap("polynomial", space, len(parsed), phi, jac)


def parse_constraint_name(name: str) -> Tuple[str, list]:
    """(head, arguments) of a registry name: [n] for sphere:<n> (n = 0 when
    left out), the levels of spheres:<...>, the coefficients of linear:<...>
    and [] for affine and polynomial.  An unknown head or an argument that
    is not a number raises ValueError."""
    head, _, rest = name.partition(":")
    items = [s for s in rest.split(",") if s != ""]
    if head == "sphere":
        return head, [int(rest) if rest else 0]
    if head == "spheres":
        return head, [int(s) for s in items]
    if head == "linear":
        return head, [float(s) for s in items]
    if head in ("affine", "polynomial"):
        return head, []
    raise ValueError(f"unknown constraint name {name!r}")


def build_constraint(name: str, space: SequenceSpace,
                     params: Optional[dict] = None) -> ConstraintMap:
    """Registry: sphere:<n> | spheres:<n1,n2,...> | linear:<c0,c1,...> |
    affine (matrix/offset from params) | polynomial (rows from params), read
    by parse_constraint_name; the constructors check the values, and a
    sphere level outside 0..n_max raises IndexError."""
    head, args = parse_constraint_name(name)
    if head == "sphere":
        return sphere_constraint(space, args[0])
    if head == "spheres":
        return sphere_intersection_constraint(space, args)
    if head == "linear":
        return linear_constraint(space, args)
    params = params or {}
    if head == "affine":
        if "matrix" not in params or "offset" not in params:
            raise ValueError("affine constraint needs matrix/offset params")
        return affine_constraint(space, params["matrix"], params["offset"])
    if "rows" not in params:
        raise ValueError("polynomial constraint needs rows params")
    return polynomial_constraint(space, params["rows"])
