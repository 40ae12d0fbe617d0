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
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from .errors import (NonConvergenceError, RegularityError, SingularBlockError,
                     UnsupportedGradingError)
from .graded import SequenceSpace, TruncatedSequence, _weights
from .probes import rng_from_seed

RANK_RTOL = 1e-8
BLOCK_RTOL = 1e-12
DEFAULT_SOLVE_TOL = 1e-12
DEFAULT_MAX_ITER = 50
DAMPING_MAX_HALVINGS = 20
JACOBIAN_FD_STEP = 1e-6
#: charts whose round-trip radius collapses below this are rejected: a rank
#: decision that barely clears the threshold can still leave the phi-block
#: too ill-conditioned to invert reliably
VALIDITY_RADIUS_FLOOR = 1e-4
VALIDITY_RADIUS_CAP = 256.0
#: random kernel directions round-tripped at every trial chart radius
CHART_DIRECTIONS = 16
CHART_ROUND_TRIP_TOL = 1e-8
PREIMAGE_TOL = 1e-10
#: preimage points closer than this, relative to their norm, are one point
PREIMAGE_DEDUPE_TOL = 1e-6


# ---------------------------------------------------------------------------
# flat coordinates
# ---------------------------------------------------------------------------

def flatten(f: TruncatedSequence) -> np.ndarray:
    return f.coefficients.reshape(-1).copy()


def unflatten(space: SequenceSpace, flat: np.ndarray) -> TruncatedSequence:
    block = np.asarray(flat, dtype=space.fiber.dtype).reshape(
        space.truncation_degree + 1, space.fiber.dimension)
    return TruncatedSequence(space.fiber, block)


def level_weights(space: SequenceSpace, level: int) -> np.ndarray:
    """Per-flat-coordinate weights e^{level*k}, shared with the seminorms."""
    w = _weights(int(level), space.truncation_degree)
    return np.repeat(np.asarray(w), space.fiber.dimension)


# ---------------------------------------------------------------------------
# constraints
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ConstraintMap:
    """phi: sequence space -> R^m with an optional analytic Jacobian.

    phi and jacobian take the flat coordinate vector (see flatten) and must
    not modify it; jacobian returns the (m, D) matrix over it, otherwise
    central differences are used.  level sets the metric used for
    splittings at this constraint's regular points.
    """

    name: str
    space: SequenceSpace
    target_dim: int
    phi: Callable[[np.ndarray], np.ndarray]
    jacobian: Optional[Callable[[np.ndarray], np.ndarray]] = None
    level: int = 0

    def __post_init__(self):
        if self.target_dim < 1:
            raise ValueError("target dimension must be >= 1")
        if not 0 <= self.level <= self.space.n_max:
            raise IndexError(f"metric level {self.level} outside the grading")

    @property
    def flat_dimension(self) -> int:
        return self.space.flat_dimension

    @property
    def jacobian_mode(self) -> str:
        return "supplied" if self.jacobian is not None else "finite_difference"

    def value(self, f: TruncatedSequence) -> np.ndarray:
        return self.value_flat(flatten(f))

    def value_flat(self, flat: np.ndarray) -> np.ndarray:
        out = np.asarray(self.phi(flat), dtype=np.float64).reshape(-1)
        if out.shape != (self.target_dim,):
            raise ValueError(
                f"constraint returned shape {out.shape}, expected "
                f"({self.target_dim},)")
        return out


def _central_differences(fn: Callable[[np.ndarray], np.ndarray],
                         base: np.ndarray, rows: int) -> np.ndarray:
    """Columns (fn(base + step e_i) - fn(base - step e_i)) / (2 step), with
    step = JACOBIAN_FD_STEP * (1 + max |base_i|)."""
    base = np.asarray(base, dtype=np.float64)
    scale = float(np.max(np.abs(base))) if base.size else 0.0
    step = JACOBIAN_FD_STEP * (1.0 + scale)
    out = np.empty((rows, base.size))
    for i in range(base.size):
        probe = base.copy()
        probe[i] = base[i] + step
        plus = fn(probe)
        probe[i] = base[i] - step
        minus = fn(probe)
        out[:, i] = (plus - minus) / (2.0 * step)
    return out


def finite_difference_jacobian(c: ConstraintMap,
                               f: TruncatedSequence) -> np.ndarray:
    return _central_differences(c.value_flat, flatten(f), c.target_dim)


def _jacobian_flat(c: ConstraintMap, flat: np.ndarray) -> np.ndarray:
    if c.jacobian is None:
        return _central_differences(c.value_flat, flat, c.target_dim)
    J = np.asarray(c.jacobian(flat), dtype=np.float64)
    if J.shape != (c.target_dim, c.flat_dimension):
        raise ValueError(
            f"supplied Jacobian shape {J.shape}, expected "
            f"({c.target_dim}, {c.flat_dimension})")
    return J


def jacobian_matrix(c: ConstraintMap, f: TruncatedSequence) -> np.ndarray:
    return _jacobian_flat(c, flatten(f))


def check_jacobian(c: ConstraintMap,
                   probes: Sequence[TruncatedSequence]) -> float:
    """Max relative gap between supplied and finite-difference Jacobians."""
    if c.jacobian is None:
        return 0.0
    worst = 0.0
    for f in probes:
        supplied = jacobian_matrix(c, f)
        fd = finite_difference_jacobian(c, f)
        scale = max(1.0, float(np.max(np.abs(supplied))))
        worst = max(worst, float(np.max(np.abs(supplied - fd))) / scale)
    return worst


# ---------------------------------------------------------------------------
# regular points
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RegularPointReport:
    point: TruncatedSequence
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
    out = columns.copy()
    for j in range(out.shape[1]):
        i = int(np.argmax(np.abs(out[:, j])))
        if out[i, j] < 0.0:
            out[:, j] = -out[:, j]
    return out


def is_regular_point(c: ConstraintMap,
                     p: TruncatedSequence) -> RegularPointReport:
    """Rank test of the metric-weighted Jacobian, with a splitting if regular.

    The weighted matrix J W^{-1} expresses the differential in coordinates
    orthonormal for the level-n inner product; its right-singular vectors,
    pulled back through W^{-1}, give bases of the kernel and its metric
    complement that are orthonormal at that level.
    """
    c.space.check_member(p)
    m, D = c.target_dim, c.flat_dimension
    if m > D:
        raise ValueError(f"codimension {m} exceeds ambient dimension {D}")
    J = jacobian_matrix(c, p)
    w = level_weights(c.space, c.level)
    J_w = J / w[None, :]
    sigma = np.linalg.svd(J_w, compute_uv=False)
    sigma_max = float(sigma[0]) if sigma.size else 0.0
    sigma_min = float(sigma[m - 1]) if sigma.size >= m else 0.0
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
    """

    def __init__(self, phi_xy: Callable[[np.ndarray, np.ndarray], np.ndarray],
                 x_dim: int, y_dim: int,
                 d_x: Optional[Callable] = None,
                 d_y: Optional[Callable] = None,
                 name: str = "split"):
        if y_dim < 1 or x_dim < 0:
            raise ValueError("need y_dim >= 1 and x_dim >= 0")
        self.phi_xy = phi_xy
        self.x_dim = x_dim
        self.y_dim = y_dim
        self._d_x = d_x
        self._d_y = d_y
        self.name = name

    def value(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        out = np.asarray(self.phi_xy(np.asarray(x, dtype=np.float64),
                                     np.asarray(y, dtype=np.float64)),
                         dtype=np.float64).reshape(-1)
        if out.shape != (self.y_dim,):
            raise ValueError(f"split constraint returned shape {out.shape}")
        return out

    def d_x(self, x, y) -> np.ndarray:
        if self._d_x is not None:
            return np.asarray(self._d_x(x, y), dtype=np.float64).reshape(
                self.y_dim, self.x_dim)
        return _central_differences(lambda p: self.value(p, y), x, self.y_dim)

    def d_y(self, x, y) -> np.ndarray:
        if self._d_y is not None:
            return np.asarray(self._d_y(x, y), dtype=np.float64).reshape(
                self.y_dim, self.y_dim)
        return _central_differences(lambda p: self.value(x, p), y, self.y_dim)


def _solve_block(B: np.ndarray, rhs: np.ndarray, context: str) -> np.ndarray:
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


def apply_dphi(split: SplitConstraint, x, y, h1, h2):
    """Differential of (x, y) -> (x, phi(x, y)): (h1, A h1 + B h2)."""
    h1 = np.asarray(h1, dtype=np.float64).reshape(split.x_dim)
    h2 = np.asarray(h2, dtype=np.float64).reshape(split.y_dim)
    A = split.d_x(x, y)
    B = split.d_y(x, y)
    return h1, A @ h1 + B @ h2


def apply_vphi(split: SplitConstraint, x, y, k1, k2):
    """Inverse of the differential: (k1, B^{-1}(k2 - A k1))."""
    k1 = np.asarray(k1, dtype=np.float64).reshape(split.x_dim)
    k2 = np.asarray(k2, dtype=np.float64).reshape(split.y_dim)
    A = split.d_x(x, y)
    B = split.d_y(x, y)
    return k1, _solve_block(B, k2 - A @ k1, split.name)


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


def _damped_newton(residual: Callable[[np.ndarray], np.ndarray],
                   linear_step: Callable[[np.ndarray, np.ndarray], np.ndarray],
                   start: np.ndarray, tol: float, max_iter: int, name: str
                   ) -> Tuple[np.ndarray, List[float], List[np.ndarray]]:
    """Newton steps z <- z - s * linear_step(z, residual(z)), s halved from
    1 until the residual norm drops or reaches tol; returns the last iterate,
    the norms and the iterates.  An exhausted budget, a non-finite norm
    before a step or a stalled halving raises NonConvergenceError with the
    norms attached."""
    z = start
    r = residual(z)
    history = [float(np.linalg.norm(r))]
    iterates = [z.copy()]
    while not history[-1] <= tol:  # a NaN norm has not converged
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
        for _ in range(DAMPING_MAX_HALVINGS + 1):
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
        iterates.append(z.copy())
    return z, history, iterates


def solve_implicit(split: SplitConstraint, x, y0,
                   target: Optional[np.ndarray] = None,
                   tol: float = DEFAULT_SOLVE_TOL,
                   max_iter: int = DEFAULT_MAX_ITER) -> SolveResult:
    """Damped Newton on y for phi(x, y) = target (default 0).

    Steps solve the square phi-block, which raises SingularBlockError when
    singular or non-finite; see _damped_newton for damping and failures.
    """
    x = np.asarray(x, dtype=np.float64).reshape(split.x_dim)
    y = np.asarray(y0, dtype=np.float64).reshape(split.y_dim).copy()
    goal = (np.zeros(split.y_dim) if target is None
            else np.asarray(target, dtype=np.float64).reshape(split.y_dim))
    y, history, iterates = _damped_newton(
        lambda v: split.value(x, v) - goal,
        lambda v, r: _solve_block(split.d_y(x, v), r, split.name),
        y, tol, max_iter, split.name)
    return SolveResult(y, tuple(history), tuple(iterates), True,
                       len(history) - 1)


# ---------------------------------------------------------------------------
# splitting an ambient constraint at a regular point
# ---------------------------------------------------------------------------

class PointSplit:
    """Absolute split coordinates attached to a regular-point report."""

    def __init__(self, c: ConstraintMap, report: RegularPointReport):
        if not report.rank_decision or report.kernel_basis is None:
            raise RegularityError(
                f"{c.name}: cannot split at a non-regular point")
        self.constraint = c
        self.report = report
        self.kernel_mat = report.kernel_basis
        self.compl_mat = report.complement_basis
        w = level_weights(c.space, c.level)
        # metric-projection rows: coords(q) = (W^2 basis)^T q
        self._kernel_proj = (self.kernel_mat * (w ** 2)[:, None]).T
        self._compl_proj = (self.compl_mat * (w ** 2)[:, None]).T
        self.split = SplitConstraint(
            self._phi_xy, self.kernel_mat.shape[1], self.compl_mat.shape[1],
            d_x=self._d_x if c.jacobian is not None else None,
            d_y=self._d_y if c.jacobian is not None else None,
            name=f"{c.name}@split")

    def _flat(self, x, y) -> np.ndarray:
        return self.kernel_mat @ np.asarray(x, dtype=np.float64) \
            + self.compl_mat @ np.asarray(y, dtype=np.float64)

    def point_of(self, x: np.ndarray, y: np.ndarray) -> TruncatedSequence:
        return unflatten(self.constraint.space, self._flat(x, y))

    def coords_of(self, q: TruncatedSequence) -> Tuple[np.ndarray, np.ndarray]:
        flat = flatten(q)
        return self._kernel_proj @ flat, self._compl_proj @ flat

    def _phi_xy(self, x, y):
        return self.constraint.value_flat(self._flat(x, y))

    def _jac(self, x, y):
        return _jacobian_flat(self.constraint, self._flat(x, y))

    def _d_x(self, x, y):
        return self._jac(x, y) @ self.kernel_mat

    def _d_y(self, x, y):
        return self._jac(x, y) @ self.compl_mat


def split_at(c: ConstraintMap, p: TruncatedSequence,
             report: Optional[RegularPointReport] = None) -> PointSplit:
    if report is None:
        report = is_regular_point(c, p)
    return PointSplit(c, report)


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
    base_point: TruncatedSequence
    validity_radius: float
    base_x: np.ndarray = field(init=False, repr=False)
    base_y: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        x, y = self.split_data.coords_of(self.base_point)
        object.__setattr__(self, "base_x", x)
        object.__setattr__(self, "base_y", y)

    @property
    def constraint(self) -> ConstraintMap:
        return self.split_data.constraint

    @property
    def report(self) -> RegularPointReport:
        return self.split_data.report

    @property
    def kernel_dimension(self) -> int:
        return self.split_data.split.x_dim

    def kernel_coords(self, h: TruncatedSequence) -> np.ndarray:
        """Coordinates of an ambient element along the kernel basis."""
        return self.split_data.coords_of(h)[0]

    def offsets(self, q: TruncatedSequence) -> np.ndarray:
        """Kernel offsets P(q - p) of q from the base point."""
        return self.kernel_coords(q - self.base_point)

    def embed(self, x_offsets: np.ndarray) -> TruncatedSequence:
        """The ambient element sum_i x_i k_i along the kernel basis."""
        flat = self.split_data.kernel_mat @ np.asarray(x_offsets,
                                                       dtype=np.float64)
        return unflatten(self.constraint.space, flat)

    def forward(self, q: TruncatedSequence) -> Tuple[np.ndarray, np.ndarray]:
        return self.offsets(q), self.constraint.value(q)

    def inverse(self, x_offsets: np.ndarray,
                values: Optional[np.ndarray] = None) -> TruncatedSequence:
        x = self.base_x + np.asarray(x_offsets, dtype=np.float64)
        result = solve_implicit(self.split_data.split, x, self.base_y,
                                target=values)
        return self.split_data.point_of(x, result.y)

    def contains(self, q: TruncatedSequence) -> bool:
        """Whether q's kernel offsets fall inside the validity radius."""
        return float(np.linalg.norm(self.offsets(q))) <= self.validity_radius

    def to_json(self) -> dict:
        space = self.constraint.space
        return {
            "base_point": self.base_point.to_json(),
            "bases": {
                "level": self.report.inner_product_level,
                "kernel": [unflatten(space, v).to_json()
                           for v in self.report.kernel_basis.T],
                "complement": [unflatten(space, v).to_json()
                               for v in self.report.complement_basis.T],
            },
            "radius": self.validity_radius,
        }


def _chart_round_trip_ok(chart: Chart, radius: float,
                         directions: np.ndarray) -> bool:
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


def build_chart(c: ConstraintMap, p: TruncatedSequence, *, seed: int = 0,
                report: Optional[RegularPointReport] = None) -> Chart:
    """Chart at a regular point with an empirically certified radius.

    The radius doubles from 1 while CHART_DIRECTIONS random kernel
    directions round-trip within CHART_ROUND_TRIP_TOL, then bisects to the
    failure boundary.  A radius below the floor rejects the chart: the
    splitting is numerically unusable even if the rank test passed.
    """
    if report is None:
        report = is_regular_point(c, p)
    if not report.rank_decision:
        raise RegularityError(
            f"{c.name}: base point fails the rank test "
            f"(singular values {report.singular_values})")
    chart = Chart(PointSplit(c, report), p, validity_radius=0.0)
    x_dim = chart.kernel_dimension
    rng = rng_from_seed(seed)
    dirs = rng.normal(size=(CHART_DIRECTIONS, x_dim)) if x_dim else \
        np.zeros((CHART_DIRECTIONS, 0))
    norms = np.linalg.norm(dirs, axis=1)
    norms[norms == 0.0] = 1.0
    dirs = dirs / norms[:, None]

    radius = 1.0
    if not _chart_round_trip_ok(chart, radius, dirs):
        while radius > VALIDITY_RADIUS_FLOOR:
            radius *= 0.5
            if _chart_round_trip_ok(chart, radius, dirs):
                break
        else:
            raise RegularityError(
                f"{c.name}: no usable chart radius above "
                f"{VALIDITY_RADIUS_FLOOR} at this point")
    else:
        while radius < VALIDITY_RADIUS_CAP:
            if not _chart_round_trip_ok(chart, 2.0 * radius, dirs):
                break
            radius *= 2.0
        if radius >= VALIDITY_RADIUS_CAP:
            return replace(chart, validity_radius=radius)
    lo, hi = radius, 2.0 * radius
    for _ in range(25):
        mid = 0.5 * (lo + hi)
        if _chart_round_trip_ok(chart, mid, dirs):
            lo = mid
        else:
            hi = mid
    if lo < VALIDITY_RADIUS_FLOOR:
        raise RegularityError(
            f"{c.name}: certified radius {lo:.3g} below the floor")
    return replace(chart, validity_radius=lo)


# ---------------------------------------------------------------------------
# regular values
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RegularValueReport:
    target: np.ndarray
    points: Tuple[TruncatedSequence, ...]
    point_reports: Tuple[RegularPointReport, ...]
    seed_count: int
    converged_count: int

    @property
    def verdict(self) -> Optional[bool]:
        """True/False over the found points; None on empty evidence."""
        if not self.points:
            return None
        return all(r.rank_decision for r in self.point_reports)


def find_preimage(c: ConstraintMap, target: np.ndarray,
                  seed_point: TruncatedSequence, max_iter: int = 60,
                  scaling: Optional[np.ndarray] = None
                  ) -> Optional[TruncatedSequence]:
    """Gauss-Newton from one seed; None when it fails to converge, also
    when a non-finite Jacobian makes the least-squares step fail.

    scaling, when given, are positive per-coordinate weights: steps are
    least-squares optimal in the weighted metric, which keeps the search
    stable when the Jacobian columns span many orders of magnitude.
    """
    goal = np.asarray(target, dtype=np.float64).reshape(c.target_dim)
    flat = flatten(seed_point)
    weights = np.ones(flat.size) if scaling is None else scaling
    weights = np.asarray(weights, dtype=np.float64).reshape(flat.shape)
    if np.any(weights <= 0.0):
        raise ValueError("scaling weights must be positive")

    def weighted_step(z, r):
        step, *_ = np.linalg.lstsq(_jacobian_flat(c, z) / weights[None, :],
                                   r, rcond=None)
        return step / weights

    try:
        flat, _, _ = _damped_newton(lambda z: c.value_flat(z) - goal,
                                    weighted_step, flat, PREIMAGE_TOL,
                                    max_iter, c.name)
    except (NonConvergenceError, np.linalg.LinAlgError):
        return None
    return unflatten(c.space, flat)


def is_regular_value(c: ConstraintMap, target,
                     seeds: Sequence[TruncatedSequence],
                     max_iter: int = 60) -> RegularValueReport:
    """Test regularity of every preimage point reachable from the seeds.

    The verdict covers found points only; an empty evidence set yields the
    None verdict rather than a claim about the whole fiber.
    """
    goal = np.asarray(target, dtype=np.float64).reshape(c.target_dim)
    found: List[TruncatedSequence] = []
    converged = 0
    for seed_point in seeds:
        q = find_preimage(c, goal, seed_point, max_iter=max_iter)
        if q is None:
            continue
        converged += 1
        flat = flatten(q)
        duplicate = any(
            np.linalg.norm(flat - flatten(other)) <=
            PREIMAGE_DEDUPE_TOL * (1.0 + np.linalg.norm(flat))
            for other in found)
        if not duplicate:
            found.append(q)
    reports = tuple(is_regular_point(c, q) for q in found)
    return RegularValueReport(goal, tuple(found), reports,
                              seed_count=len(seeds),
                              converged_count=converged)


# ---------------------------------------------------------------------------
# constraint registry
# ---------------------------------------------------------------------------

def sphere_constraint(space: SequenceSpace, level: int = 0) -> ConstraintMap:
    """phi(q) = <q,q>_level - 1 with the analytic gradient 2 w^2 q."""
    if not (space.fiber.is_metric and space.fiber.scalar_field == "real"):
        raise UnsupportedGradingError(
            "sphere constraints need a real euclidean fiber")
    w2 = level_weights(space, level) ** 2

    def phi(flat: np.ndarray) -> np.ndarray:
        return np.array([float(np.dot(w2 * flat, flat)) - 1.0])

    def jac(flat: np.ndarray) -> np.ndarray:
        return (2.0 * w2 * flat).reshape(1, -1)

    return ConstraintMap(f"sphere:{level}", space, 1, phi, jac, level=level)


def sphere_intersection_constraint(space: SequenceSpace,
                                   levels: Sequence[int]) -> ConstraintMap:
    levels = [int(n) for n in levels]
    if not levels:
        raise ValueError("need at least one sphere level")
    if sorted(set(levels)) != levels:
        raise ValueError("sphere levels must be strictly increasing")
    if len(levels) > space.truncation_degree:
        raise ValueError(
            "more sphere levels than truncation degrees: fiber generically "
            "empty")
    if not (space.fiber.is_metric and space.fiber.scalar_field == "real"):
        raise UnsupportedGradingError(
            "sphere constraints need a real euclidean fiber")
    w2_rows = np.stack([level_weights(space, n) ** 2 for n in levels])

    def phi(flat: np.ndarray) -> np.ndarray:
        return w2_rows @ (flat * flat) - 1.0

    def jac(flat: np.ndarray) -> np.ndarray:
        return 2.0 * w2_rows * flat[None, :]

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

    def phi(flat: np.ndarray) -> np.ndarray:
        return A @ flat + b

    def jac(flat: np.ndarray) -> np.ndarray:
        return A

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

    def phi(flat: np.ndarray) -> np.ndarray:
        out = np.zeros(len(parsed))
        for r, terms in enumerate(parsed):
            total = 0.0
            for coef, idx in terms:
                prod = coef
                for i in idx:
                    prod *= flat[i]
                total += prod
            out[r] = total
        return out

    def jac(flat: np.ndarray) -> np.ndarray:
        J = np.zeros((len(parsed), D))
        for r, terms in enumerate(parsed):
            for coef, idx in terms:
                for pos in range(len(idx)):
                    prod = coef
                    for other_pos, i in enumerate(idx):
                        if other_pos != pos:
                            prod *= flat[i]
                    J[r, idx[pos]] += prod
        return J

    return ConstraintMap("polynomial", space, len(parsed), phi, jac)


def build_constraint(name: str, space: SequenceSpace,
                     params: Optional[dict] = None) -> ConstraintMap:
    """Registry: sphere:<n> | spheres:<n1,n2,...> | linear:<c0,c1,...> |
    affine (matrix/offset from params) | polynomial (rows from params)."""
    head, _, rest = name.partition(":")
    if head == "sphere":
        return sphere_constraint(space, int(rest) if rest else 0)
    if head == "spheres":
        levels = [int(s) for s in rest.split(",") if s != ""]
        return sphere_intersection_constraint(space, levels)
    if head == "linear":
        coeffs = [float(s) for s in rest.split(",") if s != ""]
        return linear_constraint(space, coeffs)
    if head == "affine":
        params = params or {}
        if "matrix" not in params or "offset" not in params:
            raise ValueError("affine constraint needs matrix/offset params")
        return affine_constraint(space, params["matrix"], params["offset"])
    if head == "polynomial":
        params = params or {}
        if "rows" not in params:
            raise ValueError("polynomial constraint needs rows params")
        return polynomial_constraint(space, params["rows"])
    raise ValueError(f"unknown constraint name {name!r}")
