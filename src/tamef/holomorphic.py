"""Bridge between coefficient sequences and entire functions.

A truncated sequence f_0 .. f_K, the one row of a SequenceBatch, is read as
the polynomial f(z) = sum f_k z^k with values in the complexified fiber.  The
module evaluates f on circles of radius e^n and checks Cauchy's bound for
entire functions on the level-n disk:

    max_k |f_k| e^{nk}  <=  sup_{|z|=e^n} |f(z)|

The left side is the level-n sup seminorm, so the bound compares the grading
of sequences with the grading of entire functions by their sup on the disks
|z| <= e^n.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field

import numpy as np

from .graded import (
    MAX_LEVEL_EXPONENT,
    SequenceBatch,
    one_row,
    seminorm_linf,
    within_upper,
)

DEFAULT_BOUNDARY_SAMPLES = 256
MIN_BOUNDARY_SAMPLES = 8


@dataclass(frozen=True)
class DiskSpec:
    """The closed disk of radius e^level with an equispaced boundary grid."""

    level: int
    boundary_samples: int = DEFAULT_BOUNDARY_SAMPLES
    radius: float = field(init=False)

    def __post_init__(self):
        if self.level < 0:
            raise ValueError("disk level must be >= 0")
        if self.boundary_samples < MIN_BOUNDARY_SAMPLES:
            raise ValueError(
                f"need at least {MIN_BOUNDARY_SAMPLES} boundary samples")
        object.__setattr__(self, "radius", math.exp(self.level))

    def boundary_points(self) -> np.ndarray:
        angles = 2.0 * np.pi * np.arange(self.boundary_samples) / self.boundary_samples
        return self.radius * np.exp(1j * angles)


def _check_eval_range(f: SequenceBatch, magnitude: float):
    if magnitude > 1.0 and f.truncation_degree * math.log(magnitude) > MAX_LEVEL_EXPONENT:
        raise ValueError(
            f"|z| = {magnitude:.6g} would push |z|^K past the overflow guard")


def eval_series(f: SequenceBatch, z):
    """Horner evaluation of sum_k f_k z^k, coordinatewise on the fiber.

    Accepts a scalar z (returns a fiber vector) or an array of points
    (returns a (points, dim) block).
    """
    z = np.asarray(z, dtype=np.complex128)
    scalar = z.ndim == 0
    pts = z.reshape(-1)
    if pts.size:
        _check_eval_range(f, float(np.max(np.abs(pts))))
    coeffs = one_row(f, "eval_series").coefficients[0].astype(np.complex128)
    acc = np.broadcast_to(coeffs[-1], (pts.size, coeffs.shape[1])).copy()
    for k in range(f.truncation_degree - 1, -1, -1):
        acc = acc * pts[:, None] + coeffs[k]
    return acc[0] if scalar else acc


def boundary_values(f: SequenceBatch, disk: DiskSpec) -> np.ndarray:
    return eval_series(f, disk.boundary_points())


def sup_norm_disk(f: SequenceBatch, disk: DiskSpec) -> float:
    """Max fiber norm over the boundary grid (a lower estimate of the sup)."""
    values = boundary_values(f, disk)
    fiber = f.fiber if f.fiber.scalar_field == "complex" else f.fiber.complexified()
    return float(np.max(fiber.norms(values)))


# ---------------------------------------------------------------------------
# reports
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CauchyBoundReport:
    """Comparison of the weighted coefficient sup with the boundary sup."""

    level: int
    samples: int
    weighted_coefficient_sup: float
    boundary_sup: float
    slack: float
    ok: bool

    def to_json(self) -> dict:
        return asdict(self)


def verify_cauchy_bound(f: SequenceBatch, level: int,
                        samples: int = DEFAULT_BOUNDARY_SAMPLES
                        ) -> CauchyBoundReport:
    """Check max_k |f_k| e^{nk} <= sampled sup on |z| = e^n, report the slack.

    The bound is exact in reals; the within_upper tolerance absorbs Horner
    roundoff on boundary magnitudes as large as e^{nK}.
    """
    disk = DiskSpec(level, samples)
    lhs = float(seminorm_linf(f, level)[0])
    rhs = sup_norm_disk(f, disk)
    ok = bool(within_upper(lhs, rhs))  # a Python bool, not an np.bool_
    return CauchyBoundReport(level, samples, lhs, rhs, rhs - lhs, ok)
