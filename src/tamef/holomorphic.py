"""Bridge between coefficient sequences and entire functions.

A truncated sequence f_0 .. f_K, the one row of a SequenceBatch, is read as
the polynomial f(z) = sum f_k z^k with values in the complexified fiber.  The module evaluates f on circles of
radius e^n, recovers coefficients from equispaced boundary samples by the
discrete Cauchy integral (an FFT), and verifies the weighted-coefficient
bound  max_k |f_k| e^{nk}  <=  sup_{|z|=e^n} |f(z)|  together with the
conjugation symmetry that characterizes real coefficient sequences.

Accuracy note: boundary values grow like e^{nK} while low-order coefficients
stay O(1), so recovery error for f_k is roundoff times the boundary sup
divided by e^{nk}.  Error statements relative to the level-n seminorm are
therefore uniform over sequences; statements relative to raw coefficient
size are only meaningful for decaying profiles.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import AliasingError
from .graded import (
    MAX_LEVEL_EXPONENT,
    BanachFiber,
    SequenceBatch,
    one_row,
    seminorm_linf,
    within_upper,
)
from .probes import rng_from_seed

DEFAULT_BOUNDARY_SAMPLES = 256
MIN_BOUNDARY_SAMPLES = 8
REAL_FORM_TOL = 1e-12
#: as_real drops imaginary parts up to this fraction of 1 + max |real part|
IMAGINARY_RESIDUE_TOL = 1e-9
#: conjugation symmetry is sampled on the disk of this radius
SYMMETRY_SAMPLE_RADIUS = 1.0


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


def coefficients_from_boundary(values: np.ndarray, radius: float,
                               truncation_degree: int,
                               fiber: BanachFiber) -> SequenceBatch:
    """Discrete Cauchy integral: f_k = (1/M) sum_j f(R w^j) w^{-jk} R^{-k}.

    Exact to roundoff for polynomial samples of degree <= K once M > 2K;
    fewer samples alias high coefficients into low ones.
    """
    values = np.asarray(values, dtype=np.complex128)
    if values.ndim == 1:
        values = values.reshape(-1, 1)
    M = values.shape[0]
    K = int(truncation_degree)
    if M < 2 * K + 2:
        raise AliasingError(
            f"{M} boundary samples cannot resolve degree {K}; need >= {2 * K + 2}")
    if radius <= 0.0:
        raise ValueError("recovery radius must be positive")
    means = np.fft.fft(values, axis=0)[:K + 1] / M
    scale = np.power(float(radius), -np.arange(K + 1.0))
    block = means * scale[:, None]
    out_fiber = fiber if fiber.scalar_field == "complex" else fiber.complexified()
    return SequenceBatch(out_fiber, block[None])


def complexify(f: SequenceBatch) -> SequenceBatch:
    if f.fiber.scalar_field == "complex":
        return f
    return SequenceBatch(f.fiber.complexified(),
                         f.coefficients.astype(np.complex128))


def as_real(f: SequenceBatch) -> SequenceBatch:
    """Drop imaginary parts, refusing when they are not negligible."""
    if f.fiber.scalar_field == "real":
        return f
    imag_peak = float(np.max(np.abs(f.coefficients.imag))) if f.coefficients.size else 0.0
    ref = 1.0 + float(np.max(np.abs(f.coefficients.real)))
    if imag_peak > IMAGINARY_RESIDUE_TOL * ref:
        raise ValueError(
            f"imaginary residue {imag_peak:.3g} too large for a real sequence")
    real_fiber = BanachFiber(f.fiber.dimension, "real", f.fiber.norm_kind)
    return SequenceBatch(real_fiber, f.coefficients.real.copy())


# ---------------------------------------------------------------------------
# reports
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RoundTripReport:
    """Eval-then-recover accuracy on one disk."""

    level: int
    samples: int
    max_abs_error: float
    weighted_relative_error: float

    def to_json(self) -> dict:
        return {
            "level": self.level,
            "samples": self.samples,
            "max_abs_error": self.max_abs_error,
            "weighted_relative_error": self.weighted_relative_error,
        }


def round_trip_report(f: SequenceBatch, disk: DiskSpec) -> RoundTripReport:
    """Evaluate on the boundary, recover, and compare to the original.

    weighted_relative_error is measured in the level-n sup seminorm, the
    scale on which recovery roundoff is uniform over sequences.
    """
    fc = complexify(f)
    recovered = coefficients_from_boundary(
        boundary_values(fc, disk), disk.radius, f.truncation_degree, fc.fiber)
    diff = recovered - fc
    max_abs = float(np.max(fc.fiber.norms(diff.coefficients)))
    denom = float(seminorm_linf(fc, disk.level)[0])
    rel = float(seminorm_linf(diff, disk.level)[0]) / denom \
        if denom > 0.0 else 0.0
    return RoundTripReport(disk.level, disk.boundary_samples, max_abs, rel)


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
        return {
            "level": self.level,
            "samples": self.samples,
            "weighted_coefficient_sup": self.weighted_coefficient_sup,
            "boundary_sup": self.boundary_sup,
            "slack": self.slack,
            "ok": self.ok,
        }


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
    ok = bool(within_upper(lhs, rhs))  # an np.bool_ would serialize as 1.0
    return CauchyBoundReport(level, samples, lhs, rhs, rhs - lhs, ok)


# ---------------------------------------------------------------------------
# real form
# ---------------------------------------------------------------------------

def check_real_form(f: SequenceBatch) -> bool:
    """True iff every coefficient is real within REAL_FORM_TOL.

    For power series this is equivalent to conj(f(z)) = f(conj z); see
    conjugation_symmetry_defect for the sampled cross-check.
    """
    one_row(f, "check_real_form")
    if f.fiber.scalar_field == "real":
        return True
    return float(np.max(np.abs(f.coefficients.imag))) <= REAL_FORM_TOL


def conjugation_symmetry_defect(f: SequenceBatch, count: int = 32,
                                seed: int = 0) -> float:
    """Max over random sample points of |conj(f(z)) - f(conj z)|."""
    if count < 1:
        raise ValueError("need at least one sample point")
    rng = rng_from_seed(seed)
    r = SYMMETRY_SAMPLE_RADIUS * np.sqrt(rng.uniform(0.0, 1.0, size=count))
    theta = rng.uniform(0.0, 2.0 * np.pi, size=count)
    z = r * np.exp(1j * theta)
    fc = complexify(f)
    lhs = np.conj(eval_series(fc, z))
    rhs = eval_series(fc, np.conj(z))
    return float(np.max(fc.fiber.norms(lhs - rhs)))
