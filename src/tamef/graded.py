"""Banach fibers, truncated coefficient sequences, and graded seminorm families.

The central object is a finitely truncated coefficient sequence f_0 .. f_K
with values in a fixed finite-dimensional Banach fiber.  Level-n seminorms
weight coefficient k by e^{nk}; the summed flavour and the supremum flavour
of that family are both gradings (monotone in the level), and the
certification machinery estimates, over a probe set, a level shift r and
constants C(n) with

    |f|_n  <=  C(n) * |f|~_{n+r}        for b <= n <= n_max - r

together with the symmetric bound, recording the evidence in a certificate.

Boundedness of the ratios cannot be read off a finite probe set directly
(every finite max is finite), so acceptance of a shift r uses truncation
degree stability: the max ratio over probes of high coefficient degree must
not exceed 1.5x the max over low-degree probes.  Growth with the degree is
the finite-truncation shadow of an unbounded constant.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Callable, Dict, Optional, Sequence, Tuple

import numpy as np

from .errors import UnsupportedGradingError

DEFAULT_N_MAX = 8
DEFAULT_TRUNCATION = 32
#: e^{nk} overflows doubles near nk ~ 709; configurations are kept well clear.
MAX_LEVEL_EXPONENT = 256
DEFAULT_ATOL = 1e-9
DEFAULT_RTOL = 1e-9
#: high-degree probe ratios may exceed low-degree ones by at most this factor
DEGREE_STABILITY_FACTOR = 1.5
#: certificates estimated from probe tables hold from this level upward
BASE_LEVEL = 0

_FIELDS = ("real", "complex")
_NORM_KINDS = ("euclidean", "supremum", "sum")
_PROVENANCES = ("analytic", "empirical", "derived-analytic")


def within_upper(lhs, rhs):
    """lhs <= rhs up to the package-wide absolute-plus-relative tolerance;
    elementwise for arrays.  NaN on either side is never within."""
    scale = np.maximum(np.abs(lhs), np.abs(rhs))
    return lhs <= rhs + DEFAULT_ATOL + DEFAULT_RTOL * scale


# ---------------------------------------------------------------------------
# fibers and sequences
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BanachFiber:
    """A finite-dimensional Banach space holding one coefficient."""

    dimension: int
    scalar_field: str = "real"
    norm_kind: str = "euclidean"

    def __post_init__(self):
        if self.dimension < 1:
            raise ValueError("fiber dimension must be >= 1")
        if self.scalar_field not in _FIELDS:
            raise ValueError(f"unknown scalar field {self.scalar_field!r}")
        if self.norm_kind not in _NORM_KINDS:
            raise ValueError(f"unknown norm kind {self.norm_kind!r}")

    @property
    def dtype(self):
        return np.complex128 if self.scalar_field == "complex" else np.float64

    @property
    def is_metric(self) -> bool:
        """True when the norm comes from an inner product."""
        return self.norm_kind == "euclidean"

    def complexified(self) -> "BanachFiber":
        return BanachFiber(self.dimension, "complex", self.norm_kind)

    def norms(self, rows: np.ndarray) -> np.ndarray:
        """Norms along the last axis of a (..., dimension) coordinate block."""
        a = np.abs(np.asarray(rows))
        if self.norm_kind == "euclidean":
            a *= a
            out = np.sum(a, axis=-1)
            return np.sqrt(out, out=out)
        if self.norm_kind == "supremum":
            return np.max(a, axis=-1)
        return np.sum(a, axis=-1)

    def unit(self, axis: int = 0) -> np.ndarray:
        if not 0 <= axis < self.dimension:
            raise IndexError(f"fiber axis {axis} out of range")
        u = np.zeros(self.dimension, dtype=self.dtype)
        u[axis] = 1.0
        return u


class TruncatedSequence:
    """Coefficients f_0 .. f_K in a fixed fiber, immutable after construction."""

    __slots__ = ("fiber", "_coeffs")

    def __init__(self, fiber: BanachFiber, coefficients):
        arr = np.array(coefficients, dtype=fiber.dtype)
        if arr.ndim == 1:
            if fiber.dimension != 1:
                raise ValueError("flat coefficient list needs a 1-d fiber")
            arr = arr.reshape(-1, 1)
        if arr.ndim != 2 or arr.shape[0] < 1 or arr.shape[1] != fiber.dimension:
            raise ValueError(
                f"coefficients must form a (K+1, {fiber.dimension}) block, "
                f"got shape {arr.shape}")
        arr.setflags(write=False)
        object.__setattr__(self, "fiber", fiber)
        object.__setattr__(self, "_coeffs", arr)

    @classmethod
    def _view(cls, fiber: BanachFiber, block: np.ndarray) -> "TruncatedSequence":
        """A sequence over a read-only (K+1, d) block, without a copy."""
        f = object.__new__(cls)
        object.__setattr__(f, "fiber", fiber)
        object.__setattr__(f, "_coeffs", block)
        return f

    # construction helpers -------------------------------------------------

    @classmethod
    def zero(cls, fiber: BanachFiber, truncation_degree: int) -> "TruncatedSequence":
        return cls(fiber, np.zeros((truncation_degree + 1, fiber.dimension),
                                   dtype=fiber.dtype))

    @classmethod
    def basis(cls, fiber: BanachFiber, truncation_degree: int, index: int,
              axis: int = 0, scale: float = 1.0) -> "TruncatedSequence":
        """The monomial sequence: coefficient `index` is scale * unit(axis)."""
        if not 0 <= index <= truncation_degree:
            raise IndexError(f"coefficient index {index} out of range")
        block = np.zeros((truncation_degree + 1, fiber.dimension), dtype=fiber.dtype)
        block[index] = scale * fiber.unit(axis)
        return cls(fiber, block)

    # basic accessors ------------------------------------------------------

    @property
    def truncation_degree(self) -> int:
        return self._coeffs.shape[0] - 1

    @property
    def coefficients(self) -> np.ndarray:
        return self._coeffs

    def coefficient(self, k: int) -> np.ndarray:
        if not 0 <= k <= self.truncation_degree:
            raise IndexError(f"coefficient index {k} out of range")
        return self._coeffs[k]

    def coefficient_norms(self) -> np.ndarray:
        return self.fiber.norms(self._coeffs)

    def degree(self) -> int:
        """Largest k with a nonzero coefficient, -1 for the zero sequence."""
        return int(_degrees(self.coefficient_norms()))

    def is_zero(self) -> bool:
        return self.degree() < 0

    # arithmetic -----------------------------------------------------------

    def _compatible(self, other: "TruncatedSequence"):
        if self.fiber != other.fiber:
            raise ValueError("fiber mismatch")
        if self.truncation_degree != other.truncation_degree:
            raise ValueError("truncation degree mismatch")

    def __add__(self, other):
        self._compatible(other)
        return TruncatedSequence(self.fiber, self._coeffs + other._coeffs)

    def __sub__(self, other):
        self._compatible(other)
        return TruncatedSequence(self.fiber, self._coeffs - other._coeffs)

    def __mul__(self, scalar):
        return TruncatedSequence(self.fiber, self._coeffs * scalar)

    __rmul__ = __mul__

    def __neg__(self):
        return TruncatedSequence(self.fiber, -self._coeffs)

    def __repr__(self):
        return (f"TruncatedSequence(K={self.truncation_degree}, "
                f"dim={self.fiber.dimension}, field={self.fiber.scalar_field})")

    # serialization ----------------------------------------------------------

    def to_json(self) -> dict:
        if self.fiber.scalar_field == "complex":
            coeffs = [[[float(z.real), float(z.imag)] for z in row]
                      for row in self._coeffs]
        else:
            coeffs = [[float(x) for x in row] for row in self._coeffs]
        return {
            "fiber": {"dim": self.fiber.dimension,
                      "field": self.fiber.scalar_field,
                      "norm": self.fiber.norm_kind},
            "coefficients": coeffs,
        }

    @classmethod
    def from_json(cls, obj: dict) -> "TruncatedSequence":
        fib = obj["fiber"]
        fiber = BanachFiber(int(fib["dim"]), fib["field"], fib["norm"])
        rows = obj["coefficients"]
        if fiber.scalar_field == "complex":
            block = np.array([[complex(re, im) for re, im in row] for row in rows])
        else:
            block = np.array(rows, dtype=np.float64)
        return cls(fiber, block)


def _degrees(norms: np.ndarray):
    """Largest k with norms[k] > 0 along axis 0, -1 where there is none."""
    nonzero = norms > 0.0
    last = norms.shape[0] - 1 - np.argmax(nonzero[::-1], axis=0)
    return np.where(nonzero.any(axis=0), last, -1)


#: probes per slice when coefficient norms of a batch are computed; bounds
#: the (P, K+1, d) temporaries of the fiber norm
_NORM_SLICE = 128


class SequenceBatch:
    """P sequences of one fiber and truncation degree as one (P, K+1, d)
    coefficient block, read-only through the batch.

    It behaves like a list of TruncatedSequence: len, indexing, iteration
    and + concatenation.  An indexed element is a view of one row of the
    block, not a copy; a slice or a numpy index array selects a batch.
    Seminorms and degrees of a batch hold one value per element.
    """

    __slots__ = ("fiber", "_block", "_norms")

    def __init__(self, fiber: BanachFiber, block):
        arr = np.asarray(block, dtype=fiber.dtype).view()
        if arr.ndim != 3 or arr.shape[1] < 1 or arr.shape[2] != fiber.dimension:
            raise ValueError(
                f"a batch must form a (P, K+1, {fiber.dimension}) block, "
                f"got shape {arr.shape}")
        arr.setflags(write=False)
        self.fiber = fiber
        self._block = arr
        self._norms = None

    @classmethod
    def stack(cls, sequences: Sequence[TruncatedSequence]) -> "SequenceBatch":
        """One batch from sequences that share a fiber and truncation."""
        if not sequences:
            raise ValueError("cannot stack an empty sequence list")
        fiber = sequences[0].fiber
        for f in sequences:
            if f.fiber != fiber:
                raise ValueError("sequences must share one fiber")
        try:
            block = np.stack([f.coefficients for f in sequences])
        except ValueError as err:
            raise ValueError(
                "sequences must share one truncation degree") from err
        return cls(fiber, block)

    @property
    def truncation_degree(self) -> int:
        return self._block.shape[1] - 1

    @property
    def coefficients(self) -> np.ndarray:
        return self._block

    def __len__(self) -> int:
        return self._block.shape[0]

    def __getitem__(self, index):
        if isinstance(index, (slice, np.ndarray)):
            return SequenceBatch(self.fiber, self._block[index])
        return TruncatedSequence._view(self.fiber,
                                       self._block[operator.index(index)])

    def __iter__(self):
        for row in self._block:
            yield TruncatedSequence._view(self.fiber, row)

    def __add__(self, other):
        if isinstance(other, SequenceBatch) and other.fiber == self.fiber \
                and other.truncation_degree == self.truncation_degree:
            return SequenceBatch(self.fiber, np.concatenate(
                (self._block, other._block)))
        return list(self) + list(other)

    def __radd__(self, other):
        return list(other) + list(self)

    def _norm_slices(self):
        """(start, norms) per slice of probes, norms of shape (K+1, S)."""
        for start in range(0, len(self), _NORM_SLICE):
            yield start, self.fiber.norms(
                self._block[start:start + _NORM_SLICE]).T

    def coefficient_norms(self) -> np.ndarray:
        """Fiber norms as a (K+1, P) array, computed once per batch."""
        if self._norms is None:
            norms = np.empty((self._block.shape[1], len(self)))
            for start, v in self._norm_slices():
                norms[:, start:start + v.shape[1]] = v
            self._norms = norms
        return self._norms

    def degree(self) -> np.ndarray:
        """Per-element degrees: largest k with a nonzero coefficient.

        Computed slice by slice, so no (K+1, P) array is kept for it."""
        out = np.empty(len(self), dtype=np.intp)
        for start, v in self._norm_slices():
            out[start:start + v.shape[1]] = _degrees(v)
        return out

    def __repr__(self):
        return (f"SequenceBatch(P={len(self)}, K={self.truncation_degree}, "
                f"dim={self.fiber.dimension}, field={self.fiber.scalar_field})")


class ProductBatch:
    """Elements of a product space: one SequenceBatch per factor, aligned.

    Indexing returns the tuple of row views, one per factor.
    """

    __slots__ = ("parts",)

    def __init__(self, parts: Sequence[SequenceBatch]):
        parts = tuple(parts)
        if not parts or len({len(p) for p in parts}) != 1:
            raise ValueError("product batch parts must share one length")
        self.parts = parts

    def __len__(self) -> int:
        return len(self.parts[0])

    def __getitem__(self, index):
        if isinstance(index, (slice, np.ndarray)):
            return ProductBatch(p[index] for p in self.parts)
        return tuple(p[index] for p in self.parts)

    def __iter__(self):
        return zip(*self.parts)

    def __add__(self, other):
        if isinstance(other, ProductBatch) and \
                len(other.parts) == len(self.parts):
            return ProductBatch(a + b for a, b in zip(self.parts, other.parts))
        return list(self) + list(other)

    def __radd__(self, other):
        return list(other) + list(self)

    def degree(self) -> np.ndarray:
        """Per-element degrees: the max over the factors."""
        return np.maximum.reduce([p.degree() for p in self.parts])


def as_batch(elements):
    """A SequenceBatch or ProductBatch holding elements; a plain list of
    sequences or of product tuples is stacked once."""
    if isinstance(elements, (SequenceBatch, ProductBatch)):
        return elements
    elements = list(elements)
    if not elements:
        raise ValueError("probe set is empty")
    if isinstance(elements[0], TruncatedSequence):
        return SequenceBatch.stack(elements)
    return ProductBatch(SequenceBatch.stack(column)
                        for column in zip(*elements))


# ---------------------------------------------------------------------------
# seminorms
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def _weights(level: int, truncation_degree: int) -> Tuple[float, ...]:
    return tuple(math.exp(level * k) for k in range(truncation_degree + 1))


def _check_level(f: TruncatedSequence, n: int, n_max: Optional[int]):
    if n < 0:
        raise IndexError(f"seminorm level {n} is negative")
    if n_max is not None and n > n_max:
        raise IndexError(f"seminorm level {n} exceeds n_max={n_max}")
    if n * f.truncation_degree > MAX_LEVEL_EXPONENT:
        raise ValueError(
            f"level*degree = {n * f.truncation_degree} exceeds the overflow "
            f"guard {MAX_LEVEL_EXPONENT}")


def _seminorm_value(f, acc):
    return float(acc) if isinstance(f, TruncatedSequence) else acc


def seminorm_l1(f, n: int, n_max: Optional[int] = None):
    """Sum of e^{nk} |f_k|, accumulated in ascending k with no compensation.

    f is one TruncatedSequence (a float is returned) or a SequenceBatch (one
    value per element); both run the same loop, over coefficient norms of
    shape (K+1,) or (K+1, P), so they agree bit for bit.
    """
    _check_level(f, int(n), n_max)
    w = _weights(int(n), f.truncation_degree)
    v = f.coefficient_norms()
    acc = 0.0
    for k in range(f.truncation_degree + 1):
        acc = acc + w[k] * v[k]
    return _seminorm_value(f, acc)


def seminorm_linf(f, n: int, n_max: Optional[int] = None):
    """Max over k of e^{nk} |f_k|, for one sequence or a batch.

    NaN coefficients propagate, so a non-finite sequence never reads small.
    """
    _check_level(f, int(n), n_max)
    w = _weights(int(n), f.truncation_degree)
    v = f.coefficient_norms()
    acc = 0.0
    for k in range(f.truncation_degree + 1):
        acc = np.maximum(acc, w[k] * v[k])
    return _seminorm_value(f, acc)


def inner_product(f, g, level: int = 0):
    """Level-n inner product sum_k e^{2nk} <f_k, g_k> (metric fibers only).

    f and g are two sequences (a float is returned) or two batches of one
    length (one value per row pair, each the float of the pair alone).
    """
    if not (f.fiber.is_metric and f.fiber.scalar_field == "real"):
        raise UnsupportedGradingError(
            "level inner products need a real euclidean fiber")
    if f.fiber != g.fiber or f.truncation_degree != g.truncation_degree:
        raise ValueError("sequences live in different spaces")
    _check_level(f, 2 * int(level), None)
    w = _weights(2 * int(level), f.truncation_degree)
    # (K+1,) or, for batches, (K+1, P)
    dots = np.sum(f.coefficients * g.coefficients, axis=-1).T
    total = 0.0
    for k in range(f.truncation_degree + 1):
        total = total + w[k] * dots[k]
    return _seminorm_value(f, total)


def metric_norm(f: TruncatedSequence, level: int = 0) -> float:
    return math.sqrt(max(inner_product(f, f, level), 0.0))


# ---------------------------------------------------------------------------
# gradings
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Grading:
    """A family of seminorms indexed by levels 0..n_max, expected monotone.

    evaluator(f, n) takes one sequence (giving a float) or a SequenceBatch
    (giving one value per element, each the float its element gives alone).
    """

    kind: str
    n_max: int
    evaluator: Callable[[TruncatedSequence, int], float]

    def __post_init__(self):
        if self.n_max < 0:
            raise ValueError("n_max must be >= 0")

    def seminorm(self, f: TruncatedSequence, n: int) -> float:
        if not 0 <= n <= self.n_max:
            raise IndexError(f"level {n} outside 0..{self.n_max}")
        return float(self.evaluator(f, n))


def l1_grading(n_max: int = DEFAULT_N_MAX) -> Grading:
    return Grading("l1", n_max, lambda f, n: seminorm_l1(f, n))


def linf_grading(n_max: int = DEFAULT_N_MAX) -> Grading:
    return Grading("linf", n_max, lambda f, n: seminorm_linf(f, n))


def custom_grading(evaluator, n_max: int = DEFAULT_N_MAX, kind: str = "custom") -> Grading:
    return Grading(kind, n_max, evaluator)


def seminorm_table(grading: Grading, probes) -> np.ndarray:
    """Values table[n, i] = |probe_i|_n for n = 0..n_max.

    probes is a SequenceBatch or a list of sequences, stacked once; the
    evaluator runs once per level on the whole batch.
    """
    batch = as_batch(probes)
    out = np.empty((grading.n_max + 1, len(batch)))
    for n in range(grading.n_max + 1):
        out[n] = grading.evaluator(batch, n)
    return out


# ---------------------------------------------------------------------------
# space descriptors
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SequenceSpace:
    """Fiber + truncation degree + grading: the ambient space descriptor."""

    fiber: BanachFiber
    truncation_degree: int = DEFAULT_TRUNCATION
    n_max: int = DEFAULT_N_MAX
    grading_kind: str = "l1"

    def __post_init__(self):
        if self.truncation_degree < 0:
            raise ValueError("truncation degree must be >= 0")
        if self.n_max < 0:
            raise ValueError("n_max must be >= 0")
        if self.n_max * self.truncation_degree > MAX_LEVEL_EXPONENT:
            raise ValueError(
                f"n_max * K = {self.n_max * self.truncation_degree} exceeds "
                f"the overflow guard {MAX_LEVEL_EXPONENT}")
        if self.grading_kind not in ("l1", "linf"):
            raise ValueError(f"unknown grading kind {self.grading_kind!r}")

    @property
    def flat_dimension(self) -> int:
        return (self.truncation_degree + 1) * self.fiber.dimension

    def grading(self) -> Grading:
        return Grading(self.grading_kind, self.n_max, self.seminorm)

    def seminorm(self, f, n: int):
        """|f|_n of one sequence, or one value per element of a batch."""
        if self.grading_kind == "l1":
            return seminorm_l1(f, n, self.n_max)
        return seminorm_linf(f, n, self.n_max)

    def seminorm_table(self, probes) -> np.ndarray:
        """table[n, i] = |probe_i|_n for n = 0..n_max."""
        return seminorm_table(self.grading(), probes)

    def zero(self) -> TruncatedSequence:
        return TruncatedSequence.zero(self.fiber, self.truncation_degree)

    def basis(self, index: int, axis: int = 0, scale: float = 1.0) -> TruncatedSequence:
        return TruncatedSequence.basis(self.fiber, self.truncation_degree,
                                       index, axis, scale)

    def check_member(self, f: TruncatedSequence):
        if f.fiber != self.fiber or f.truncation_degree != self.truncation_degree:
            raise ValueError("sequence does not belong to this space")


@dataclass(frozen=True)
class ProductSpace:
    """Finite product of sequence spaces, graded by the sum of the factors."""

    factors: Tuple[SequenceSpace, ...]

    def __post_init__(self):
        if not self.factors:
            raise ValueError("a product needs at least one factor")
        object.__setattr__(self, "factors", tuple(self.factors))
        n_maxes = {s.n_max for s in self.factors}
        if len(n_maxes) != 1:
            raise ValueError("product factors must share one level range")

    @property
    def n_max(self) -> int:
        return self.factors[0].n_max

    def _parts(self, element):
        """The factor parts of a ProductBatch or of a tuple of sequences."""
        if isinstance(element, ProductBatch):
            parts = element.parts
        elif isinstance(element, tuple):
            parts = element
        else:
            raise ValueError(f"a {type(element).__name__} is not an element "
                             f"of a product space")
        if len(parts) != len(self.factors):
            raise ValueError("element arity does not match the product")
        return parts

    def seminorm(self, element, n: int):
        """Sum of the factor seminorms, added in factor order; a ProductBatch
        gives one value per element."""
        total = 0.0
        for space, part in zip(self.factors, self._parts(element)):
            total = total + space.seminorm(part, n)
        return total

    def seminorm_table(self, probes) -> np.ndarray:
        """Sum of the factor tables, added in factor order."""
        total = 0.0
        for space, part in zip(self.factors, self._parts(as_batch(probes))):
            total = total + space.seminorm_table(part)
        return total

    def zero(self):
        return tuple(s.zero() for s in self.factors)

    def check_member(self, element):
        for space, part in zip(self.factors, self._parts(element)):
            space.check_member(part)


def element_degree(element):
    """Coefficient degree of a sequence, or the max over a product tuple;
    a SequenceBatch or ProductBatch gives one degree per element."""
    if isinstance(element, (TruncatedSequence, SequenceBatch, ProductBatch)):
        return element.degree()
    return max(part.degree() for part in element)


# ---------------------------------------------------------------------------
# monotonicity validation
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GradingViolation:
    probe_index: int
    level: int
    lhs: float
    rhs: float


@dataclass(frozen=True)
class GradingValidationReport:
    probe_count: int
    violations: Tuple[GradingViolation, ...]

    @property
    def ok(self) -> bool:
        return not self.violations


def validate_grading(grading: Grading, probes: Sequence[TruncatedSequence]
                     ) -> GradingValidationReport:
    """Check |f|_n <= |f|_{n+1} for every probe and consecutive level pair.

    Violations are listed probe by probe, in level order within a probe.
    """
    if not probes:
        raise ValueError("probe set is empty")
    table = seminorm_table(grading, probes)
    failed = ~within_upper(table[:-1], table[1:])
    violations = tuple(
        GradingViolation(int(i), int(n), float(table[n, i]),
                         float(table[n + 1, i]))
        for i, n in np.argwhere(failed.T))
    return GradingValidationReport(len(probes), violations)


# ---------------------------------------------------------------------------
# tameness certificates
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TamenessCertificate:
    """Evidence that |f|_n <= C(n) |f|~_{n+r} holds from level b upward."""

    r: int
    b: int
    C: Dict[int, float]
    provenance: str
    probe_count: int = 0
    max_ratio_observed: float = 0.0
    observed: Dict[int, float] = field(default_factory=dict)
    linear: bool = True

    def __post_init__(self):
        if self.r < 0 or self.b < 0:
            raise ValueError("r and b must be >= 0")
        if self.provenance not in _PROVENANCES:
            raise ValueError(f"unknown provenance {self.provenance!r}")
        if self.provenance == "empirical" and self.probe_count < 1:
            raise ValueError("empirical certificates need probe evidence")
        if not self.C:
            raise ValueError("certificate constant table is empty")
        for n, c in self.C.items():
            if n < self.b:
                raise ValueError(f"constant at level {n} below base level {self.b}")
            if not c > 0.0:
                raise ValueError(f"C({n}) = {c} is not positive")

    @property
    def levels(self) -> Tuple[int, ...]:
        return tuple(sorted(self.C))

    def constant(self, n: int) -> float:
        if n not in self.C:
            raise IndexError(f"certificate is silent at level {n}")
        return self.C[n]

    def to_json(self) -> dict:
        return {
            "r": self.r,
            "b": self.b,
            "C": {str(n): self.C[n] for n in self.levels},
            "provenance": self.provenance,
            "probe_count": self.probe_count,
            "max_ratio_observed": self.max_ratio_observed,
            "observed": {str(n): self.observed[n] for n in sorted(self.observed)},
            "linear": self.linear,
        }

    def csv_rows(self):
        """Rows (n, C_n, max_ratio) for the certificate table."""
        for n in self.levels:
            yield n, self.C[n], self.observed.get(n, "")


@dataclass(frozen=True)
class RatioWitness:
    """The probe that maximized the ratio when no level shift was accepted."""

    r: int
    level: int
    probe_index: int
    ratio: float
    reason: str


#: smallest positive stand-in when every observed ratio vanished
_RATIO_FLOOR = 1e-300


def _ratios(numerator: np.ndarray, denominator: np.ndarray):
    """numerator / denominator where the denominator is positive, else 0;
    returned with the mask of positive denominators."""
    included = denominator > 0.0
    ratios = np.zeros_like(numerator)
    ratios[included] = numerator[included] / denominator[included]
    return ratios, included


def certify_from_tables(num: np.ndarray, den: np.ndarray,
                        degrees: Sequence[int], degree_split: int,
                        *, r_max: int, forced_r: Optional[int] = None,
                        probe_count: int, linear: bool = True):
    """Pick the smallest accepted level shift from precomputed seminorm tables.

    num[n, i] and den[n, i] hold the numerator/denominator values of probe i
    at level n for n = 0..n_max.  Ratios with a vanishing denominator and a
    nonvanishing numerator reject the shift outright; vanishing/vanishing
    pairs are excluded.  A shift is accepted when, at every level, the max
    ratio over probes of degree > degree_split stays within
    DEGREE_STABILITY_FACTOR x the max over the rest, from level BASE_LEVEL
    upward.  Tables holding NaN or infinity certify nothing: the witness
    names the first such entry, num before den, with ratio NaN.  A ratio
    that overflows float64 rejects its shift with ratio inf.

    Returns (certificate, witness); exactly one of the two is not None.
    """
    if r_max < 0:
        raise ValueError("r_max must be >= 0")
    for name, table in (("num", num), ("den", den)):
        bad = np.argwhere(~np.isfinite(table))
        if len(bad):
            n, i = (int(x) for x in bad[0])
            return None, RatioWitness(
                forced_r or 0, n, i, math.nan,
                f"non-finite {name} seminorm {float(table[n, i])}")
    n_levels = num.shape[0]
    n_max = n_levels - 1
    degrees = np.asarray(degrees)
    high = degrees > degree_split

    def try_shift(r: int):
        top = n_max - r
        if top < BASE_LEVEL:
            return None, RatioWitness(r, BASE_LEVEL, -1, math.inf,
                                      "no level admits the shift")
        constants: Dict[int, float] = {}
        for n in range(BASE_LEVEL, top + 1):
            ratios, included = _ratios(num[n], den[n + r])
            bad = ~included & (num[n] > DEFAULT_ATOL)
            if np.any(bad):
                i = int(np.nonzero(bad)[0][0])
                return None, RatioWitness(r, n, i, math.inf,
                                          "ratio unbounded: zero denominator")
            if not np.any(included):
                continue
            hi_mask = included & high
            lo_mask = included & ~high
            if np.any(hi_mask) and np.any(lo_mask):
                m_hi = float(np.max(ratios[hi_mask]))
                m_lo = float(np.max(ratios[lo_mask]))
                if m_hi > DEGREE_STABILITY_FACTOR * m_lo + DEFAULT_ATOL:
                    i_hi = int(np.argmax(np.where(hi_mask, ratios, -np.inf)))
                    return None, RatioWitness(
                        r, n, i_hi, m_hi,
                        f"ratio grows with truncation degree "
                        f"({m_hi:.6g} > {DEGREE_STABILITY_FACTOR} * "
                        f"{m_lo:.6g})")
            constants[n] = float(np.max(ratios[included]))
            if constants[n] == math.inf:
                return None, RatioWitness(r, n, int(np.argmax(ratios)),
                                          math.inf, "ratio overflows float64")
        if not constants:
            return None, RatioWitness(r, BASE_LEVEL, -1, math.inf,
                                      "no probe produced a usable ratio")
        observed = dict(constants)
        floored = {n: (c if c > 0.0 else _RATIO_FLOOR) for n, c in constants.items()}
        cert = TamenessCertificate(
            r=r, b=BASE_LEVEL, C=floored, provenance="empirical",
            probe_count=probe_count,
            max_ratio_observed=max(observed.values()),
            observed=observed, linear=linear)
        return cert, None

    if forced_r is not None:
        return try_shift(forced_r)

    for r in range(r_max + 1):
        cert, witness = try_shift(r)
        if cert is not None:
            return cert, None
    if witness.probe_index < 0:
        # no level of the largest shift had a usable ratio: name probe 0
        witness = RatioWitness(r_max, BASE_LEVEL, 0, -1.0, witness.reason)
    return None, witness


# ---------------------------------------------------------------------------
# grading equivalence
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class EquivalenceFailure:
    direction: str
    witness: RatioWitness
    probe: TruncatedSequence


@dataclass(frozen=True)
class EquivalenceOutcome:
    """Result of a two-sided grading comparison over a probe set."""

    forward: Optional[TamenessCertificate]
    backward: Optional[TamenessCertificate]
    failure: Optional[EquivalenceFailure]

    @property
    def ok(self) -> bool:
        return self.failure is None


def certify_grading_equivalence(g1: Grading, g2: Grading,
                                probes: Sequence[TruncatedSequence],
                                r_max: int) -> EquivalenceOutcome:
    """Certify |f|_1,n <= C |f|_2,n+r (forward) and the reverse (backward).

    The smallest accepted shift is searched per direction up to r_max; on
    rejection the failure carries the probe maximizing the ratio at r_max.
    """
    if g1.n_max != g2.n_max:
        raise ValueError("gradings must share one level range 0..n_max")
    if r_max < 0 or r_max > g1.n_max:
        raise ValueError("r_max must lie in 0..n_max")
    if not probes:
        raise ValueError("probe set is empty")
    batch = as_batch(probes)
    degrees = batch.degree()
    if degrees.max() < 0:
        raise ValueError("degenerate probe set: every probe is zero")
    split = batch.truncation_degree // 2

    t1 = seminorm_table(g1, batch)
    t2 = seminorm_table(g2, batch)

    fwd_cert, fwd_wit = certify_from_tables(
        t1, t2, degrees, split, r_max=r_max, probe_count=len(probes),
        linear=True)
    if fwd_cert is None:
        return EquivalenceOutcome(None, None, EquivalenceFailure(
            "g1<=g2", fwd_wit, probes[fwd_wit.probe_index]))
    bwd_cert, bwd_wit = certify_from_tables(
        t2, t1, degrees, split, r_max=r_max, probe_count=len(probes),
        linear=True)
    if bwd_cert is None:
        return EquivalenceOutcome(fwd_cert, None, EquivalenceFailure(
            "g2<=g1", bwd_wit, probes[bwd_wit.probe_index]))
    return EquivalenceOutcome(fwd_cert, bwd_cert, None)


def certificate_violations(cert: TamenessCertificate, num: np.ndarray,
                           den: np.ndarray):
    """Re-check num[n, i] <= C(n) * den[n + r, i] on full level tables.

    Certified levels whose shifted level lies past the tables are skipped.
    Returns the violations as (probe_index, level, lhs, bound) tuples,
    level by level and in probe order within a level.
    """
    violations = []
    for n in cert.levels:
        if n + cert.r >= num.shape[0]:
            continue
        lhs = num[n]
        bound = cert.C[n] * den[n + cert.r]
        for i in np.flatnonzero(~within_upper(lhs, bound)):
            violations.append((int(i), n, float(lhs[i]), float(bound[i])))
    return violations


def validate_equivalence_certificate(cert: TamenessCertificate,
                                     g_num: Grading, g_den: Grading,
                                     probes):
    """Re-check |f|_num,n <= C(n) |f|_den,n+r on a probe set.

    Returns the violations as (probe_index, level, lhs, bound) tuples.
    """
    batch = as_batch(probes)
    return certificate_violations(cert, seminorm_table(g_num, batch),
                                  seminorm_table(g_den, batch))
