"""Maps between graded sequence spaces and empirical tameness certification.

A descriptor bundles an evaluator with its domain and codomain descriptors,
a linearity tag, and the metric ball on which probing is meaningful.
Certification estimates the smallest level shift r and constants C(n) with

    |F(f)|_n  <=  C(n) * |f|_{n+r}          (linear maps)
    |F(f)|_n  <=  C(n) * (1 + |f|_{n+r})    (nonlinear maps)

over a probe set, using the same truncation-degree stability rule as the
grading comparison: constants that grow with the coefficient degree of the
probes mark the shift as unattainable.

Certificate combinators mirror the closure rules for tame maps: direct
factors of products, finite products, and (for linear certificates)
composition with constants C_out(n) * C_in(n + r_out).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Union

import numpy as np

from .errors import EmptyProbeSetError
from .graded import (
    DEFAULT_ATOL,
    ProductBatch,
    ProductSpace,
    RatioWitness,
    SequenceBatch,
    SequenceSpace,
    TamenessCertificate,
    as_batch,
    certificate_violations,
    certify_from_tables,
    probe_tables,
)

SpaceLike = Union[SequenceSpace, ProductSpace]
Batch = Union[SequenceBatch, ProductBatch]

LINEARITY_TOL = 1e-9


@dataclass(frozen=True)
class TameMapDescriptor:
    """A map between graded spaces with certification metadata.

    The evaluator works on batches: it takes a SequenceBatch or ProductBatch
    of domain elements and returns one batch of codomain elements of equal
    length, row i the image of row i; one element is a batch of one row.
    When some rows cannot be evaluated, the evaluator raises what the first
    of them raises on its own.

    region_radius bounds the metric ball (in the level region_level
    seminorm around zero) on which the evaluator is probed; linear maps are
    scale invariant so the region only matters for nonlinear ones.
    """

    name: str
    domain: SpaceLike
    codomain: SpaceLike
    evaluator: Callable[[Batch], Batch]
    linearity: str = "linear"
    region_radius: float = 1.0
    region_level: int = 0

    def __post_init__(self):
        if self.linearity not in ("linear", "nonlinear"):
            raise ValueError(f"unknown linearity tag {self.linearity!r}")
        if not self.region_radius > 0.0:  # NaN fails too
            raise ValueError("probe region radius must be positive")

    @property
    def is_linear(self) -> bool:
        return self.linearity == "linear"

    def __call__(self, batch: Batch) -> Batch:
        """The images of every row of batch, checked against the codomain:
        batch kind, fiber, truncation degree, product arity and length."""
        out = self.evaluator(batch)
        kind = ProductBatch if isinstance(self.codomain, ProductSpace) \
            else SequenceBatch
        if not isinstance(out, kind) or len(out) != len(batch):
            raise ValueError(f"{self.name}: the evaluator must return a "
                             f"{kind.__name__} of {len(batch)} rows")
        self.codomain.check_member(out)
        return out


def validate_descriptor(desc: TameMapDescriptor, probes) -> List[str]:
    """Spot-check descriptor invariants; returns human-readable defects.

    Linear maps are checked for additivity on the first 8 neighbouring
    probe pairs and for homogeneity on their first probes."""
    try:
        batch = as_batch(probes)
    except EmptyProbeSetError:
        return ["empty probe set"]
    try:
        desc.domain.check_member(batch)
    except ValueError as exc:  # the rows share one space
        return [f"probe 0 outside domain: {exc}"]
    outputs = desc(batch)
    pairs = min(len(batch) - 1, 8)
    if not desc.is_linear or pairs < 1:
        return []
    n = desc.codomain.n_max
    f, g = batch[:pairs], batch[1:pairs + 1]
    out_f, out_g = outputs[:pairs], outputs[1:pairs + 1]
    right = out_f + out_g
    gap = desc.codomain.seminorm(desc(f + g) - right, n)
    scale = 1.0 + desc.codomain.seminorm(right, n)
    gap2 = desc.codomain.seminorm(desc(f * 2.0) - out_f * 2.0, n)
    scale2 = 1.0 + 2.0 * desc.codomain.seminorm(out_f, n)
    defects: List[str] = []
    for i in range(pairs):
        if gap[i] > LINEARITY_TOL * scale[i]:
            defects.append(f"additivity defect {float(gap[i]):.3g} at probe "
                           f"pair ({i},{i + 1})")
        if gap2[i] > LINEARITY_TOL * scale2[i]:
            defects.append(
                f"homogeneity defect {float(gap2[i]):.3g} at probe {i}")
    return defects


# ---------------------------------------------------------------------------
# empirical certification
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CertificationOutcome:
    certificate: Optional[TamenessCertificate]
    witness: Optional[RatioWitness]
    witness_probe: Optional[Batch] = None

    @property
    def ok(self) -> bool:
        return self.certificate is not None


def map_seminorm_tables(desc: TameMapDescriptor, probes):
    """(degrees, num, den) of a probe set: the probes' degrees, and per
    level and probe the seminorms of their images and their own, from one
    graded.probe_tables pass that evaluates the map a slice at a time."""
    if desc.codomain.n_max != desc.domain.n_max:
        raise ValueError("domain and codomain must share one level range")
    return probe_tables(desc.codomain, desc.domain, as_batch(probes), desc)


def certify_tame(desc: TameMapDescriptor, probes, r_max: int, *,
                 forced_r: Optional[int] = None) -> CertificationOutcome:
    """Estimate the smallest accepted shift and constants for one map.

    probes is a SequenceBatch, a ProductBatch, or a list of batches of one
    kind (see as_batch).  Nonlinear maps are compared against
    1 + |f|_{n+r}; zero probes drop out of linear ratios through the
    zero-denominator exclusion.
    """
    batch = as_batch(probes)
    degrees, num, den = map_seminorm_tables(desc, batch)
    if not desc.is_linear:
        level_norms = den[desc.region_level]
        outside = np.flatnonzero(
            level_norms > desc.region_radius + DEFAULT_ATOL)
        if outside.size:
            i = int(outside[0])
            raise ValueError(
                f"probe {i} leaves the certification region "
                f"({level_norms[i]:.6g} > {desc.region_radius:.6g})")
        den = den + 1.0
    cert, witness = certify_from_tables(
        num, den, degrees, batch.truncation_degree // 2, r_max=r_max,
        forced_r=forced_r, probe_count=len(batch), linear=desc.is_linear)
    if cert is not None:
        return CertificationOutcome(cert, None)
    probe = batch[witness.probe_index] if witness.probe_index >= 0 else None
    return CertificationOutcome(None, witness, probe)


def validate_certificate_on_probes(desc: TameMapDescriptor,
                                   cert: TamenessCertificate, probes):
    """Re-check the certified inequality; returns (probe, level, lhs, bound)
    violations."""
    _, num, den = map_seminorm_tables(desc, probes)
    if not cert.linear:
        den = den + 1.0
    return certificate_violations(cert, num, den)


# ---------------------------------------------------------------------------
# certificate combinators
# ---------------------------------------------------------------------------

def certify_projection(index: int, product: ProductSpace) -> TamenessCertificate:
    """Factor projections satisfy the bound with shift 0 and constant 1."""
    if not 1 <= index <= len(product.factors):
        raise IndexError(
            f"factor index {index} outside 1..{len(product.factors)}")
    levels = range(product.n_max + 1)
    return TamenessCertificate(
        r=0, b=0, C={n: 1.0 for n in levels}, provenance="analytic")


def _combined_provenance(certs: Sequence[TamenessCertificate]) -> str:
    kinds = {c.provenance for c in certs}
    if kinds == {"analytic"}:
        return "analytic"
    if "empirical" in kinds:
        return "empirical"
    return "derived-analytic"


def combine_product(certs: Sequence[TamenessCertificate]) -> TamenessCertificate:
    """Product rule: (max r_i, max b_i, sum C_i(n)) over shared levels."""
    if not certs:
        raise ValueError("need at least one certificate")
    if len(certs) == 1:
        return certs[0]
    r = max(c.r for c in certs)
    b = max(c.b for c in certs)
    shared = set(certs[0].C)
    for c in certs[1:]:
        shared &= set(c.C)
    levels = sorted(n for n in shared if n >= b)
    if not levels:
        raise ValueError("certificates share no usable levels")
    table = {n: float(sum(c.C[n] for c in certs)) for n in levels}
    provenance = _combined_provenance(certs)
    counts = [c.probe_count for c in certs if c.provenance == "empirical"]
    return TamenessCertificate(
        r=r, b=b, C=table, provenance=provenance,
        probe_count=min(counts) if counts else 0,
        max_ratio_observed=max(c.max_ratio_observed for c in certs),
        linear=all(c.linear for c in certs))


def certify_composition(outer: TamenessCertificate,
                        inner: TamenessCertificate) -> TamenessCertificate:
    """Chain rule for linear certificates: C_out(n) * C_in(n + r_out).

    Nonlinear certificates are rejected; their chained bound would need
    region bookkeeping, so certify the composed evaluator directly instead.
    """
    if not (outer.linear and inner.linear):
        raise ValueError(
            "composition constants are only derived for linear certificates; "
            "certify the composed map directly")
    r = outer.r + inner.r
    b = max(outer.b, inner.b)
    table = {}
    for n in outer.levels:
        if n < b:
            continue
        if (n + outer.r) in inner.C:
            table[n] = outer.C[n] * inner.C[n + outer.r]
    if not table:
        raise ValueError("certificate level ranges do not compose")
    counts = [c.probe_count for c in (outer, inner) if c.provenance == "empirical"]
    return TamenessCertificate(
        r=r, b=b, C=table, provenance="derived-analytic",
        probe_count=min(counts) if counts else 0,
        max_ratio_observed=max(outer.max_ratio_observed,
                               inner.max_ratio_observed),
        linear=True)


# ---------------------------------------------------------------------------
# registry
# ---------------------------------------------------------------------------

def _shift_up(t: SequenceBatch) -> SequenceBatch:
    block = np.zeros_like(t.coefficients)
    block[:, 1:] = t.coefficients[:, :-1]
    return SequenceBatch(t.fiber, block)


def _shift_down(t: SequenceBatch) -> SequenceBatch:
    block = np.zeros_like(t.coefficients)
    block[:, :-1] = t.coefficients[:, 1:]
    return SequenceBatch(t.fiber, block)


def _derivative(space: SequenceSpace):
    """(k+1) f_{k+1} at k: shift down, then scale row k by k + 1 (the top
    row stays 0)."""
    factors = np.arange(1.0, space.truncation_degree + 2.0).reshape(-1, 1)
    return lambda t: SequenceBatch(
        t.fiber, factors * _shift_down(t).coefficients)


def _coeff_square(t: SequenceBatch) -> SequenceBatch:
    return SequenceBatch(t.fiber, t.coefficients * t.coefficients)


def build_map(name: str, space: SequenceSpace) -> TameMapDescriptor:
    """Construct a registry map over the given base space.

    Grammar: identity | shift_up | shift_down | derivative | scale:<c> |
    coeff_square | projection:<i> | product:<a>,<b> | compose:<a>,<b>.
    product pairs two maps with the shared domain; compose:<a>,<b> applies
    b first, then a.  Nested product/compose arguments are not supported.
    """
    head, _, rest = name.partition(":")
    if head == "identity":
        return TameMapDescriptor("identity", space, space, lambda t: t)
    if head == "shift_up":
        return TameMapDescriptor("shift_up", space, space, _shift_up)
    if head == "shift_down":
        return TameMapDescriptor("shift_down", space, space, _shift_down)
    if head == "derivative":
        return TameMapDescriptor("derivative", space, space, _derivative(space))
    if head == "scale":
        try:
            c = float(rest)
        except ValueError:
            raise ValueError(f"scale needs a numeric argument, got {rest!r}")
        return TameMapDescriptor(
            f"scale:{rest}", space, space,
            lambda t: SequenceBatch(t.fiber, t.coefficients * c))
    if head == "coeff_square":
        return TameMapDescriptor("coeff_square", space, space,
                                 _coeff_square, linearity="nonlinear")
    if head == "projection":
        try:
            index = int(rest)
        except ValueError:
            raise ValueError(f"projection needs an integer index, got {rest!r}")
        product = ProductSpace((space, space))
        if not 1 <= index <= 2:
            raise IndexError(f"factor index {index} outside 1..2")
        return TameMapDescriptor(f"projection:{index}", product, space,
                                 lambda t: t.parts[index - 1])
    if head in ("product", "compose"):
        parts = rest.split(",") if rest else []
        if len(parts) != 2 or any(p.startswith(("product", "compose",
                                                "projection")) for p in parts):
            raise ValueError(
                f"{head} needs exactly two non-nested single-space map "
                f"names, got {rest!r}")
        a = build_map(parts[0], space)
        b = build_map(parts[1], space)
        if head == "compose" and b.codomain != a.domain:
            raise ValueError("compose arguments do not chain")
        if head == "product":
            codomain = ProductSpace((a.codomain, b.codomain))
            evaluator = lambda t: ProductBatch((a(t), b(t)))
        else:
            codomain = a.codomain
            evaluator = lambda t: a(b(t))
        return TameMapDescriptor(
            f"{head}:{rest}", space, codomain, evaluator,
            linearity="linear" if a.is_linear and b.is_linear else "nonlinear",
            region_radius=min(a.region_radius, b.region_radius))
    raise ValueError(f"unknown map name {name!r}")

