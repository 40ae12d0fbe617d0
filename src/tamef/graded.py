"""Banach fibers, truncated coefficient sequences, and graded seminorm families.

The central object is a finitely truncated coefficient sequence f_0 .. f_K
with values in a fixed finite-dimensional Banach fiber, held as one row of
a SequenceBatch: a batch of P sequences is one (P, K+1, d) block, and one
sequence is a batch of one row.  A SequenceSpace names its grading, the
family of level-n seminorms, by its grading_kind, one of GRADINGS: "l1" and
"linf" weight coefficient k by e^{nk} and sum or take the supremum (both
monotone in the level), "decreasing", e^{-n} |f|_0, shrinks with the
level, and "disk" reads the sequence as the entire function sum f_k z^k
and takes its sup on |z| = e^n, which lies between the two.  The
certification machinery compares two gradings of one space: it
estimates, over a probe set, a level shift r and constants C(n) with

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
from dataclasses import asdict, dataclass, field, replace
from functools import lru_cache
from typing import Dict, Optional, Sequence, Tuple

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
#: the grading_kind names of SequenceSpace
GRADINGS = ("l1", "linf", "decreasing", "disk")


def within_upper(lhs, rhs):
    """lhs <= rhs up to the package-wide absolute-plus-relative tolerance;
    elementwise for arrays.  NaN on either side is never within."""
    scale = np.maximum(np.abs(lhs), np.abs(rhs))
    return lhs <= rhs + DEFAULT_ATOL + DEFAULT_RTOL * scale


# ---------------------------------------------------------------------------
# fibers and sequences
# ---------------------------------------------------------------------------

#: the euclidean norm divides a vector by its largest |x| first when that
#: lies outside [1 / _UNSCALED, _UNSCALED], so no square leaves the floats
_UNSCALED = 2.0 ** 500


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

    def norms(self, rows: np.ndarray) -> np.ndarray:
        """Norms along the last axis of a (..., dimension) coordinate block.

        In dimension 1 every norm kind is |x|.  The euclidean norm sums
        squares; where that sum leaves [2^-1000, 2^1000] and the largest
        |x| is finite and outside [2^-500, 2^500], the vector is divided by
        that |x| before squaring.  A vector holding NaN or infinity keeps
        the NaN or infinity of the plain sum."""
        rows = np.asarray(rows)
        if self.dimension == 1:
            return np.abs(rows[..., 0])
        a = np.abs(rows)
        if self.norm_kind == "supremum":
            return np.max(a, axis=-1)
        if self.norm_kind == "sum":
            return np.sum(a, axis=-1)
        with np.errstate(over="ignore"):  # overflowed vectors are rescaled
            a *= a
        out = np.sum(a, axis=-1)
        # a sum of squares within 2^+-1000 lost nothing above roundoff to
        # overflow or underflow: only the vectors outside it are looked at
        outside = np.nonzero(~((out >= _UNSCALED ** -2) &
                               (out <= _UNSCALED ** 2)))
        np.sqrt(out, out=out)
        if outside[0].size:
            a = np.abs(rows[outside])
            top = np.max(a, axis=-1)
            rescale = np.isfinite(top) & (top > 0.0) & \
                ((top < 1.0 / _UNSCALED) | (top > _UNSCALED))
            a = a[rescale] / top[rescale, None]
            a *= a
            out[tuple(i[rescale] for i in outside)] = \
                top[rescale] * np.sqrt(np.sum(a, axis=-1))
        return out

    def unit(self, axis: int = 0) -> np.ndarray:
        if not 0 <= axis < self.dimension:
            raise IndexError(f"fiber axis {axis} out of range")
        u = np.zeros(self.dimension, dtype=self.dtype)
        u[axis] = 1.0
        return u


#: coefficient entries one slice of a per-row pass over a probe block holds:
#: drawing probes, their fiber norms and the map tables each take
#: rows_per_slice(entries per row) rows at a time, so their temporaries
#: stay a few times this many entries whatever the block's row count P
BLOCK_ENTRIES = 2 ** 16


def rows_per_slice(entries_per_row: int) -> int:
    """Rows of a probe block one slice takes: BLOCK_ENTRIES coefficient
    entries' worth, and at least one row."""
    return max(1, BLOCK_ENTRIES // entries_per_row)


class SequenceBatch:
    """P sequences f_0 .. f_K of one fiber as one (P, K+1, d) coefficient
    block, read-only through the batch.  One sequence is a batch of one row.

    An integer index selects the one-row batch of that row and a slice a
    batch of rows, both views of the block, not copies; a numpy index
    array selects a batch of rows too.  Iteration yields the one-row
    batches in order.  + adds the coefficients of batches of one space and
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

    def __mul__(self, factor):
        """The coefficients times a scalar, or row i times factor[i]."""
        factor = np.asarray(factor)
        if factor.ndim:
            factor = factor.reshape(-1, 1, 1)
        return SequenceBatch(self.fiber, self._block * factor)

    __rmul__ = __mul__

    # norms and degrees ----------------------------------------------------

    def coefficient_norms(self) -> np.ndarray:
        """Fiber norms as a (K+1, P) array, computed once per batch, a
        slice of rows_per_slice((K+1) * d) rows at a time."""
        if self._norms is None:
            K1, d = self._block.shape[1:]
            norms = np.empty((K1, len(self)))
            step = rows_per_slice(K1 * d)
            for start in range(0, len(self), step):
                stop = start + step
                norms[:, start:stop] = self.fiber.norms(
                    self._block[start:stop]).T
            self._norms = norms
        return self._norms

    def degree(self) -> np.ndarray:
        """Per-row degrees: largest k with a nonzero coefficient, -1 for a
        zero row.

        One max over the cached coefficient_norms(), which the batch's
        seminorms use too, of k + 1 where the norm at k is positive and 0
        elsewhere (a NaN norm never counts), held in the narrowest unsigned
        type that takes K + 1."""
        norms = self.coefficient_norms()
        rank = np.arange(1, len(norms) + 1,
                         dtype=np.min_scalar_type(len(norms)))
        top = np.max((norms > 0.0) * rank[:, None], axis=0)
        return top.astype(np.intp) - 1

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


class ProductBatch:
    """Elements of a product space: one SequenceBatch per factor, aligned.
    One element is a ProductBatch of one row.

    Indexing acts on every factor alike.
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


def _checked_levels(levels, n_max: Optional[int], truncation_degree: int):
    """(levels as a tuple of ints, whether one level n was given), checked
    in order, so a list raises what its first bad level raises: a negative
    level or one above n_max is an IndexError, one past the overflow guard
    a ValueError."""
    one = np.ndim(levels) == 0
    levels = (int(levels),) if one else tuple(int(n) for n in levels)
    for n in levels:
        if n < 0:
            raise IndexError(f"seminorm level {n} is negative")
        if n_max is not None and n > n_max:
            raise IndexError(f"seminorm level {n} exceeds n_max={n_max}")
        if n * truncation_degree > MAX_LEVEL_EXPONENT:
            raise ValueError(
                f"level*degree = {n * truncation_degree} exceeds the "
                f"overflow guard {MAX_LEVEL_EXPONENT}")
    return levels, one


def _weighted(f: SequenceBatch, v: np.ndarray, levels,
              n_max: Optional[int], combine) -> np.ndarray:
    """Fold e^{nk} v[k] into 0.0 with combine, k ascending, per column of
    the (K+1, P) array v: (P,) at one level n, (L, P) at L levels, each entry
    the float of its column and level alone.  Levels are checked first.

    Each fold writes into term's buffer, not acc's: on a one-entry array
    numpy's in-place add keeps the NaN of its second operand where a new
    array keeps the first's, and a 0*inf NaN carries the other sign."""
    levels, one = _checked_levels(levels, n_max, f.truncation_degree)
    acc = np.zeros((len(levels), v.shape[1]))
    term = np.empty_like(acc)
    for w_k, v_k in zip(_weights(levels, f.truncation_degree), v):
        np.multiply(w_k, v_k, out=term)
        combine(acc, term, out=term)
        acc, term = term, acc
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


def _seminorm_decreasing(f: SequenceBatch, levels, n_max: int) -> np.ndarray:
    """e^{-n} |f|_0 per row, a family that shrinks with the level, at levels
    as seminorm_l1: every level scales one level-0 seminorm_l1."""
    levels, one = _checked_levels(levels, n_max, f.truncation_degree)
    scales = np.array([math.exp(-float(n)) for n in levels])
    table = scales[:, None] * seminorm_l1(f, 0)
    return table[0] if one else table


#: boundary points of the disk grading: at least this many
_MIN_DISK_POINTS = 256


def _seminorm_disk(f: SequenceBatch, levels, n_max: int) -> np.ndarray:
    """max over the S points z with z^S = e^{nS} of the fiber norm of
    f(z) = sum f_k z^k per row, at levels as seminorm_l1: the sup of the
    entire function f on |z| = e^n, read on a grid.

    S is the smallest power of two above K, and at least _MIN_DISK_POINTS.
    With S > K the grid recovers every coefficient (the discrete Cauchy
    formula f_k e^{nk} = mean of f(z) (z/e^n)^{-k}), so
    linf_n <= disk_n <= l1_n up to roundoff.  One FFT of the weighted
    coefficients e^{nk} f_k evaluates a slice of rows_per_slice(S * d) rows
    at one level."""
    levels, one = _checked_levels(levels, n_max, f.truncation_degree)
    points = max(_MIN_DISK_POINTS, 1 << f.truncation_degree.bit_length())
    weights = _weights(levels, f.truncation_degree)
    table = np.empty((len(levels), len(f)))
    step = rows_per_slice(points * f.fiber.dimension)
    # an infinite coefficient makes inf - inf inside the transform, so its
    # row's entries are NaN: not finite, as its l1 and linf entries are not
    with np.errstate(invalid="ignore"):
        for start in range(0, len(f), step):
            block = f.coefficients[start:start + step]
            for l in range(len(levels)):
                values = np.fft.fft(block * weights[:, l], n=points, axis=1)
                table[l, start:start + step] = np.max(
                    f.fiber.norms(values), axis=1)
    return table[0] if one else table


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
        if self.grading_kind not in GRADINGS:
            raise ValueError(f"unknown grading kind {self.grading_kind!r}")

    @property
    def flat_dimension(self) -> int:
        return (self.truncation_degree + 1) * self.fiber.dimension

    def seminorm(self, f: SequenceBatch, levels) -> np.ndarray:
        """|f|_n of every row of a batch: (P,) at one level n, (L, P) at a
        sequence of L levels, range(n_max + 1) giving the whole table."""
        # looked up by name at each call, so a patched module global
        # reaches every space
        if self.grading_kind == "l1":
            return seminorm_l1(f, levels, self.n_max)
        if self.grading_kind == "linf":
            return seminorm_linf(f, levels, self.n_max)
        if self.grading_kind == "decreasing":
            return _seminorm_decreasing(f, levels, self.n_max)
        return _seminorm_disk(f, levels, self.n_max)

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


def seminorm_table(space, probes) -> np.ndarray:
    """Values table[n, i] = |probe_i|_n for n = 0..n_max under the space's
    grading, from one seminorm call on the whole batch at every level.

    space is a SequenceSpace or a ProductSpace, and probes a batch of its
    elements or a list of them (see as_batch).
    """
    return space.seminorm(as_batch(probes), range(space.n_max + 1))


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

    @property
    def flat_dimension(self) -> int:
        """Coefficient entries of one element: the sum over the factors."""
        return sum(s.flat_dimension for s in self.factors)

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

    def check_member(self, element):
        for space, part in zip(self.factors, self._parts(element)):
            space.check_member(part)


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
    ratios = np.divide(numerator, denominator,
                       out=np.zeros_like(numerator), where=included)
    return ratios, included


def certify_from_tables(num: np.ndarray, den: np.ndarray,
                        degrees: Sequence[int], degree_split: int,
                        *, r_max: int, forced_r: Optional[int] = None,
                        probe_count: int, linear: bool = True):
    """Pick the smallest accepted level shift from precomputed seminorm tables.

    num[n, i] and den[n, i] hold the non-negative numerator/denominator
    values of probe i at level n for n = 0..n_max.  Ratios with a vanishing
    denominator and a nonvanishing numerator reject the shift outright;
    vanishing/vanishing pairs are excluded.  A shift is accepted when, at
    every level, the max ratio over probes of degree > degree_split stays
    within DEGREE_STABILITY_FACTOR x the max over the rest, from level
    BASE_LEVEL upward.  Tables holding NaN or infinity certify nothing: the witness
    names the first such entry, num before den, with ratio NaN.  A ratio
    that overflows float64 rejects its shift with ratio inf.  r_max must
    lie in 0..n_max, the levels of the tables.

    Returns (certificate, witness); exactly one of the two is not None.
    """
    if not 0 <= r_max < num.shape[0]:
        raise ValueError("r_max must lie in 0..n_max")
    for name, table in (("num", num), ("den", den)):
        if not np.isfinite(table).all():
            n, i = (int(x) for x in np.argwhere(~np.isfinite(table))[0])
            return None, RatioWitness(
                forced_r or 0, n, i, math.nan,
                f"non-finite {name} seminorm {float(table[n, i])}")
    n_levels = num.shape[0]
    n_max = n_levels - 1
    degrees = np.asarray(degrees)
    high = degrees > degree_split
    low = ~high

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
            # -inf stands for a bucket without a usable ratio: ratios of
            # non-negative tables are never -inf themselves
            hi = np.where(included & high, ratios, -math.inf)
            m_hi = float(hi.max())
            m_lo = float(np.where(included & low, ratios, -math.inf).max())
            if m_lo > -math.inf and \
                    m_hi > DEGREE_STABILITY_FACTOR * m_lo + DEFAULT_ATOL:
                return None, RatioWitness(
                    r, n, int(np.argmax(hi)), m_hi,
                    f"ratio grows with truncation degree "
                    f"({m_hi:.6g} > {DEGREE_STABILITY_FACTOR} * "
                    f"{m_lo:.6g})")
            constants[n] = max(m_hi, m_lo)
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


def _graded_batch(g1: SequenceSpace, g2: SequenceSpace,
                  probes) -> SequenceBatch:
    """probes as one batch, once g1 and g2 are two gradings of one space,
    differing in grading_kind alone, and every probe belongs to it."""
    if replace(g1, grading_kind=g2.grading_kind) != g2:
        raise ValueError("gradings must grade one space: fiber, truncation "
                         "degree and n_max must agree")
    batch = as_batch(probes)
    g1.check_member(batch)
    return batch


def probe_tables(num_space, den_space, batch, image=None):
    """(degrees, num, den): the probes' degrees and, at [n, i] for n in
    0..n_max, num_space's seminorm of image(probe i) (of probe i when image
    is None) and den_space's of probe i, as batch.degree() and
    seminorm_table give them.

    One pass fills them in the fewest equal slices of at most
    2 * BLOCK_ENTRIES coefficient entries, a row counting its probe's and
    its image's: per slice the num table, the den table, then the degrees
    from the norms the tables cached, so each probe is normed once.  The
    level weighting broadcasts over rows long enough to run at its fastest
    per entry."""
    P = len(batch)
    entries = den_space.flat_dimension
    if image is not None:
        entries += num_space.flat_dimension
    most = max(1, 2 * BLOCK_ENTRIES // entries)
    width = -(-P // -(-P // most))
    degrees = np.empty(P, dtype=np.intp)
    num = np.empty((num_space.n_max + 1, P))
    den = np.empty_like(num)
    for start in range(0, P, width):
        part = batch[start:start + width]
        num[:, start:start + width] = seminorm_table(
            num_space, part if image is None else image(part))
        den[:, start:start + width] = seminorm_table(den_space, part)
        degrees[start:start + width] = part.degree()
    return degrees, num, den


def certify_grading_equivalence(g1: SequenceSpace, g2: SequenceSpace,
                                probes, r_max: int) -> EquivalenceOutcome:
    """Certify |f|_1,n <= C |f|_2,n+r (forward) and the reverse (backward)
    for two gradings of one space: g1 and g2 differ in grading_kind only.

    The smallest accepted shift is searched per direction up to r_max; on
    rejection the failure carries the probe maximizing the ratio at r_max.
    """
    batch = _graded_batch(g1, g2, probes)
    degrees, t1, t2 = probe_tables(g1, g2, batch)
    if degrees.max() < 0:
        raise ValueError("degenerate probe set: every probe is zero")
    split = batch.truncation_degree // 2

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
                                     g_num: SequenceSpace,
                                     g_den: SequenceSpace, probes):
    """Re-check |f|_num,n <= C(n) |f|_den,n+r on a probe set, for two
    gradings of one space as certify_grading_equivalence takes them.

    Returns the violations as (probe_index, level, lhs, bound) tuples.
    """
    _, num, den = probe_tables(g_num, g_den,
                               _graded_batch(g_num, g_den, probes))
    return certificate_violations(cert, num, den)
