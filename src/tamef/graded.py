"""Banach fibers, truncated coefficient sequences, and graded seminorm families.

The central object is a finitely truncated coefficient sequence f_0 .. f_K
with values in a fixed finite-dimensional Banach fiber, held as one row of
a SequenceBatch: a batch of P sequences is one (P, K+1, d) block, and one
sequence is a batch of one row.  Level-n seminorms
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
from dataclasses import asdict, dataclass, field
from functools import lru_cache
from typing import Callable, Dict, Optional, Sequence, Tuple

import numpy as np

from .errors import EmptyProbeSetError, UnsupportedGradingError
from .serialize import finite_or_none

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

    def require_real_metric(self, what: str):
        """Raise UnsupportedGradingError unless the norm comes from a real
        inner product; `what` names what needs one."""
        if not (self.is_metric and self.scalar_field == "real"):
            raise UnsupportedGradingError(
                f"{what} need a real euclidean fiber")

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


def _degrees(norms: np.ndarray):
    """Largest k with norms[k] > 0 along axis 0, -1 where there is none."""
    nonzero = norms > 0.0
    last = norms.shape[0] - 1 - np.argmax(nonzero[::-1], axis=0)
    return np.where(nonzero.any(axis=0), last, -1)


#: probes per slice when coefficient norms of a batch are computed; bounds
#: the (P, K+1, d) temporaries of the fiber norm
_NORM_SLICE = 128


class SequenceBatch:
    """P sequences f_0 .. f_K of one fiber as one (P, K+1, d) coefficient
    block, read-only through the batch.  One sequence is a batch of one row.

    An integer index selects the one-row batch of that row and a slice a
    batch of rows, both views of the block, not copies; a numpy index
    array selects a batch of rows too.  Iteration yields the one-row
    batches in order.  +,
    - and unary - act on the coefficients of batches of one space and
    length, and * scales by a scalar or by one factor per row.  Seminorms
    and degrees hold one value per row.
    """

    __slots__ = ("fiber", "_block", "_norms")
    #: numpy operands defer to the batch's own operators
    __array_ufunc__ = None

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

    @property
    def truncation_degree(self) -> int:
        return self._block.shape[1] - 1

    @property
    def coefficients(self) -> np.ndarray:
        return self._block

    def __len__(self) -> int:
        return self._block.shape[0]

    def __getitem__(self, index):
        if not isinstance(index, (slice, np.ndarray)):
            row = range(len(self))[index]
            index = slice(row, row + 1)
        return SequenceBatch(self.fiber, self._block[index])

    def __iter__(self):
        for row in range(len(self)):
            yield self[row]

    # arithmetic -----------------------------------------------------------

    def _block_of(self, other: "SequenceBatch") -> np.ndarray:
        """other's block, once other is a batch of this space and length."""
        if not isinstance(other, SequenceBatch):
            raise TypeError(f"cannot combine a SequenceBatch with a "
                            f"{type(other).__name__}")
        if other.fiber != self.fiber:
            raise ValueError("fiber mismatch")
        if other.truncation_degree != self.truncation_degree:
            raise ValueError("truncation degree mismatch")
        if len(other) != len(self):
            raise ValueError(f"batch length mismatch: {len(self)} and "
                             f"{len(other)} rows")
        return other._block

    def __add__(self, other):
        return SequenceBatch(self.fiber, self._block + self._block_of(other))

    def __sub__(self, other):
        return SequenceBatch(self.fiber, self._block - self._block_of(other))

    def __neg__(self):
        return SequenceBatch(self.fiber, -self._block)

    def __mul__(self, factor):
        """The coefficients times a scalar, or row i times factor[i]."""
        factor = np.asarray(factor)
        if factor.ndim:
            factor = factor.reshape(-1, 1, 1)
        return SequenceBatch(self.fiber, self._block * factor)

    __rmul__ = __mul__

    # norms and degrees ----------------------------------------------------

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
        """Per-row degrees: largest k with a nonzero coefficient, -1 for a
        zero row.

        Computed slice by slice, so no (K+1, P) array is kept for it."""
        out = np.empty(len(self), dtype=np.intp)
        for start, v in self._norm_slices():
            out[start:start + v.shape[1]] = _degrees(v)
        return out

    def __repr__(self):
        return (f"SequenceBatch(P={len(self)}, K={self.truncation_degree}, "
                f"dim={self.fiber.dimension}, field={self.fiber.scalar_field})")

    # serialization ----------------------------------------------------------

    def to_json(self) -> dict:
        """The fiber and coefficients of a one-row batch.  The coefficients
        are its (K+1, d) float block, or for a complex fiber the
        (K+1, d, 2) block of real and imaginary parts; tamef.serialize
        writes a block as the nested lists of its numbers."""
        one_row(self, "to_json")
        coeffs = self._block[0]
        if self.fiber.scalar_field == "complex":
            coeffs = np.stack((coeffs.real, coeffs.imag), axis=-1)
        return {
            "fiber": {"dim": self.fiber.dimension,
                      "field": self.fiber.scalar_field,
                      "norm": self.fiber.norm_kind},
            "coefficients": coeffs,
        }

    @classmethod
    def from_json(cls, obj: dict) -> "SequenceBatch":
        """The one-row batch that to_json wrote, from its block or from the
        nested lists that JSON reads back."""
        fib = obj["fiber"]
        fiber = BanachFiber(int(fib["dim"]), fib["field"], fib["norm"])
        block = np.array(obj["coefficients"], dtype=np.float64)
        if fiber.scalar_field == "complex":
            if block.shape[-1:] != (2,):
                raise ValueError("complex coefficients must be "
                                 "[real, imaginary] pairs")
            # the pairs become complex numbers bit for bit
            block = block.view(np.complex128)[..., 0]
        return cls(fiber, block[None])


class ProductBatch:
    """Elements of a product space: one SequenceBatch per factor, aligned.
    One element is a ProductBatch of one row.

    Indexing, iteration and arithmetic act on every factor alike.
    """

    __slots__ = ("parts",)
    __array_ufunc__ = None

    def __init__(self, parts: Sequence[SequenceBatch]):
        parts = tuple(parts)
        if not parts or len({len(p) for p in parts}) != 1:
            raise ValueError("product batch parts must share one length")
        self.parts = parts

    def __len__(self) -> int:
        return len(self.parts[0])

    def __getitem__(self, index):
        return ProductBatch(p[index] for p in self.parts)

    def __iter__(self):
        for row in range(len(self)):
            yield self[row]

    def _parts_of(self, other: "ProductBatch") -> Tuple[SequenceBatch, ...]:
        if not isinstance(other, ProductBatch):
            raise TypeError(f"cannot combine a ProductBatch with a "
                            f"{type(other).__name__}")
        if len(other.parts) != len(self.parts):
            raise ValueError("product arity mismatch")
        return other.parts

    def __add__(self, other):
        return ProductBatch(a + b for a, b in zip(self.parts,
                                                  self._parts_of(other)))

    def __sub__(self, other):
        return ProductBatch(a - b for a, b in zip(self.parts,
                                                  self._parts_of(other)))

    def __neg__(self):
        return ProductBatch(-p for p in self.parts)

    def __mul__(self, factor):
        return ProductBatch(p * factor for p in self.parts)

    __rmul__ = __mul__

    @property
    def truncation_degree(self) -> int:
        """The largest truncation degree of the factors."""
        return max(p.truncation_degree for p in self.parts)

    def degree(self) -> np.ndarray:
        """Per-row degrees: the max over the factors."""
        return np.maximum.reduce([p.degree() for p in self.parts])


def as_batch(elements):
    """elements itself when it is a SequenceBatch or ProductBatch; a list
    of batches of one kind is concatenated into one.  Neither may be empty:
    a set without rows raises EmptyProbeSetError."""
    if isinstance(elements, (SequenceBatch, ProductBatch)):
        if not len(elements):
            raise EmptyProbeSetError("probe set is empty")
        return elements
    elements = list(elements)
    if not elements:
        raise EmptyProbeSetError("probe set is empty")
    kind = type(elements[0])
    if kind not in (SequenceBatch, ProductBatch) or \
            any(type(e) is not kind for e in elements):
        raise TypeError("as_batch concatenates batches of one kind")
    if kind is ProductBatch:
        if len({len(e.parts) for e in elements}) != 1:
            raise ValueError("product batches must share one arity")
        return ProductBatch(as_batch(column)
                            for column in zip(*(e.parts for e in elements)))
    fiber = elements[0].fiber
    if any(e.fiber != fiber for e in elements):
        raise ValueError("batches must share one fiber")
    try:
        block = np.concatenate([e.coefficients for e in elements])
    except ValueError as err:
        raise ValueError("batches must share one truncation degree") from err
    # a list of batches without rows is an empty probe set too
    return as_batch(SequenceBatch(fiber, block))


def one_row(batch, what: str):
    """batch, once it holds one row; the error names the caller, `what`."""
    if len(batch) != 1:
        raise ValueError(
            f"{what} takes one sequence, got a batch of {len(batch)}")
    return batch


# ---------------------------------------------------------------------------
# seminorms
# ---------------------------------------------------------------------------

@lru_cache(maxsize=64)  # any level list is a key, so the cache is bounded
def _weights(levels: Tuple[int, ...], truncation_degree: int) -> np.ndarray:
    """Read-only (K+1, L, 1) array of e^{nk} at [k, l] for n = levels[l]."""
    w = np.array([[math.exp(n * k) for n in levels]
                  for k in range(truncation_degree + 1)])
    w = w.reshape(truncation_degree + 1, len(levels), 1)
    w.setflags(write=False)
    return w


def _weighted(f: SequenceBatch, v: np.ndarray, levels,
              n_max: Optional[int], combine) -> np.ndarray:
    """Fold e^{nk} v[k] into 0.0 with combine, k ascending, per column of
    the (K+1, P) array v: (P,) at one level n, (L, P) at L levels, each entry
    the float of its column and level alone.  Levels are checked first."""
    one = np.ndim(levels) == 0
    levels = (int(levels),) if one else tuple(int(n) for n in levels)
    for n in levels:
        if n < 0:
            raise IndexError(f"seminorm level {n} is negative")
        if n_max is not None and n > n_max:
            raise IndexError(f"seminorm level {n} exceeds n_max={n_max}")
        if n * f.truncation_degree > MAX_LEVEL_EXPONENT:
            raise ValueError(
                f"level*degree = {n * f.truncation_degree} exceeds the "
                f"overflow guard {MAX_LEVEL_EXPONENT}")
    acc = np.zeros((len(levels), v.shape[1]))
    term = np.empty_like(acc)
    for w_k, v_k in zip(_weights(levels, f.truncation_degree), v):
        np.multiply(w_k, v_k, out=term)
        combine(acc, term, out=acc)
    return acc[0] if one else acc


def seminorm_l1(f: SequenceBatch, levels,
                n_max: Optional[int] = None) -> np.ndarray:
    """Sum of e^{nk} |f_k| per row, accumulated in ascending k with no
    compensation, so every row gets the float it gets alone.  One level n
    gives (P,), a sequence of L levels the (L, P) table, row l at levels[l]."""
    return _weighted(f, f.coefficient_norms(), levels, n_max, np.add)


def seminorm_linf(f: SequenceBatch, levels,
                  n_max: Optional[int] = None) -> np.ndarray:
    """Max over k of e^{nk} |f_k| per row, at levels as seminorm_l1.

    NaN coefficients propagate, so a non-finite sequence never reads small.
    """
    return _weighted(f, f.coefficient_norms(), levels, n_max, np.maximum)


def inner_product(f: SequenceBatch, g: SequenceBatch,
                  level: int = 0) -> np.ndarray:
    """Level-n inner products sum_k e^{2nk} <f_k, g_k> of the row pairs of
    two batches of one length (metric fibers only)."""
    f.fiber.require_real_metric("level inner products")
    dots = np.sum(f.coefficients * f._block_of(g), axis=-1).T  # (K+1, P)
    return _weighted(f, dots, 2 * int(level), None, np.add)


def metric_norm(f: SequenceBatch, level: int = 0) -> np.ndarray:
    return np.sqrt(np.maximum(inner_product(f, f, level), 0.0))


# ---------------------------------------------------------------------------
# gradings
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Grading:
    """A family of seminorms indexed by levels 0..n_max, expected monotone.

    evaluator(f, levels) gives the (L, P) values of a SequenceBatch at a
    sequence of L levels, each the float its row gives alone at its level.
    """

    kind: str
    n_max: int
    evaluator: Callable[[SequenceBatch, Sequence[int]], np.ndarray]

    def __post_init__(self):
        if self.n_max < 0:
            raise ValueError("n_max must be >= 0")

    def seminorm(self, f: SequenceBatch, n: int) -> np.ndarray:
        if not 0 <= n <= self.n_max:
            raise IndexError(f"level {n} outside 0..{self.n_max}")
        return self.evaluator(f, (n,))[0]


def l1_grading(n_max: int = DEFAULT_N_MAX) -> Grading:
    return Grading("l1", n_max, lambda f, levels: seminorm_l1(f, levels))


def linf_grading(n_max: int = DEFAULT_N_MAX) -> Grading:
    return Grading("linf", n_max, lambda f, levels: seminorm_linf(f, levels))


def custom_grading(per_level, n_max: int = DEFAULT_N_MAX,
                   kind: str = "custom") -> Grading:
    """The grading of per_level(f, n), a function of one level n that gives
    one value per row of f; it is called once per level."""

    def evaluator(f: SequenceBatch, levels: Sequence[int]) -> np.ndarray:
        out = np.empty((len(levels), len(f)))
        for row, n in zip(out, levels):
            row[...] = per_level(f, n)
        return out

    return Grading(kind, n_max, evaluator)


def seminorm_table(grading: Grading, probes) -> np.ndarray:
    """Values table[n, i] = |probe_i|_n for n = 0..n_max, from one
    evaluator call on the whole batch at every level.

    probes is a SequenceBatch or a list of them (see as_batch).
    """
    return grading.evaluator(as_batch(probes), range(grading.n_max + 1))


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

    def seminorm(self, f: SequenceBatch, levels) -> np.ndarray:
        """|f|_n of every row of a batch: (P,) at one level n, (L, P) at a
        sequence of L levels, range(n_max + 1) giving the whole table."""
        if self.grading_kind == "l1":
            return seminorm_l1(f, levels, self.n_max)
        return seminorm_linf(f, levels, self.n_max)

    def zero(self) -> SequenceBatch:
        """The zero sequence, as a one-row batch."""
        return SequenceBatch(self.fiber, np.zeros(
            (1, self.truncation_degree + 1, self.fiber.dimension),
            dtype=self.fiber.dtype))

    def basis(self, index: int, axis: int = 0,
              scale: float = 1.0) -> SequenceBatch:
        """The monomial sequence whose coefficient `index` is
        scale * unit(axis), as a one-row batch."""
        if not 0 <= index <= self.truncation_degree:
            raise IndexError(f"coefficient index {index} out of range")
        block = np.zeros((1, self.truncation_degree + 1, self.fiber.dimension),
                         dtype=self.fiber.dtype)
        block[0, index] = scale * self.fiber.unit(axis)
        return SequenceBatch(self.fiber, block)

    def check_member(self, f: SequenceBatch):
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

    def _parts(self, element: ProductBatch) -> Tuple[SequenceBatch, ...]:
        if not isinstance(element, ProductBatch):
            raise ValueError(f"a {type(element).__name__} is not an element "
                             f"of a product space")
        if len(element.parts) != len(self.factors):
            raise ValueError("element arity does not match the product")
        return element.parts

    def seminorm(self, element: ProductBatch, levels) -> np.ndarray:
        """Sum of the factor seminorms per row, added in factor order, at
        one level or a sequence of levels as SequenceSpace.seminorm."""
        total = 0.0
        for space, part in zip(self.factors, self._parts(element)):
            total = total + space.seminorm(part, levels)
        return total

    def zero(self) -> ProductBatch:
        """The zero element, as a one-row batch."""
        return ProductBatch(s.zero() for s in self.factors)

    def check_member(self, element):
        for space, part in zip(self.factors, self._parts(element)):
            space.check_member(part)


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


def validate_grading(grading: Grading, probes) -> GradingValidationReport:
    """Check |f|_n <= |f|_{n+1} for every probe and consecutive level pair.

    Violations are listed probe by probe, in level order within a probe.
    """
    batch = as_batch(probes)
    table = seminorm_table(grading, batch)
    failed = ~within_upper(table[:-1], table[1:])
    violations = tuple(
        GradingViolation(int(i), int(n), float(table[n, i]),
                         float(table[n + 1, i]))
        for i, n in np.argwhere(failed.T))
    return GradingValidationReport(len(batch), violations)


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

    def to_json(self) -> dict:
        """The fields in order; a ratio that is not finite is None (null)."""
        return dict(asdict(self), ratio=finite_or_none(self.ratio))


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
    that overflows float64 rejects its shift with ratio inf.  r_max must
    lie in 0..n_max, the levels of the tables.

    Returns (certificate, witness); exactly one of the two is not None.
    """
    if not 0 <= r_max < num.shape[0]:
        raise ValueError("r_max must lie in 0..n_max")
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
    probe: SequenceBatch


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
                                probes, r_max: int) -> EquivalenceOutcome:
    """Certify |f|_1,n <= C |f|_2,n+r (forward) and the reverse (backward).

    The smallest accepted shift is searched per direction up to r_max; on
    rejection the failure carries the probe maximizing the ratio at r_max.
    """
    if g1.n_max != g2.n_max:
        raise ValueError("gradings must share one level range 0..n_max")
    batch = as_batch(probes)
    degrees = batch.degree()
    if degrees.max() < 0:
        raise ValueError("degenerate probe set: every probe is zero")
    split = batch.truncation_degree // 2

    t1 = seminorm_table(g1, batch)
    t2 = seminorm_table(g2, batch)

    fwd_cert, fwd_wit = certify_from_tables(
        t1, t2, degrees, split, r_max=r_max, probe_count=len(batch),
        linear=True)
    if fwd_cert is None:
        return EquivalenceOutcome(None, None, EquivalenceFailure(
            "g1<=g2", fwd_wit, batch[fwd_wit.probe_index]))
    bwd_cert, bwd_wit = certify_from_tables(
        t2, t1, degrees, split, r_max=r_max, probe_count=len(batch),
        linear=True)
    if bwd_cert is None:
        return EquivalenceOutcome(fwd_cert, None, EquivalenceFailure(
            "g2<=g1", bwd_wit, batch[bwd_wit.probe_index]))
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
