"""Atlases for zero sets of constraints with finitely many defining equations.

A submanifold here is the zero set of a constraint map into R^m, carrying
charts built at regular points.  Chart coordinates are kernel offsets, so
transition maps compose one chart's Newton inverse with another chart's
projection; verifying an atlas means round-tripping sampled overlap points
and certifying the transition maps with the same degree-stability test used
for any other map.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .errors import (ConstructionError, NotIntoSubmanifoldError,
                     RegularityError)
from .graded import SequenceBatch, SequenceSpace, TamenessCertificate, \
    as_batch, inner_product
from .implicit import (Chart, ConstraintMap, build_chart, find_preimage,
                       flatten, is_regular_point, lane_norms,
                       sphere_constraint, sphere_intersection_constraint)
from .maps import CertificationOutcome, TameMapDescriptor, certify_tame
from .probes import rng_from_seed, spawn_seeds

BASE_POINT_RESIDUAL_TOL = 1e-10
TRANSITION_ROUND_TRIP_TOL = 1e-8
DEFAULT_OVERLAP_PROBES = 12
DEFAULT_IMAGE_RESIDUAL_TOL = 1e-8
#: Newton-searched seeds per sphere-intersection construction
SPHERE_INTERSECTION_ATTEMPTS = 8


@dataclass(frozen=True)
class Submanifold:
    """A constraint's zero set together with charts at regular points."""

    constraint: ConstraintMap
    charts: Tuple[Chart, ...]

    def __post_init__(self):
        for i, chart in enumerate(self.charts):
            residual = float(self.residual(chart.base_point)[0])
            if residual > BASE_POINT_RESIDUAL_TOL:
                raise ValueError(
                    f"chart {i} base point off the zero set "
                    f"(residual {residual:.3g})")

    @property
    def ambient(self) -> SequenceSpace:
        return self.constraint.space

    @property
    def codimension(self) -> int:
        return self.constraint.target_dim

    def residual(self, q: SequenceBatch) -> np.ndarray:
        """The norm of the constraint value at every row."""
        return lane_norms(self.constraint.value(q))

    def to_json(self) -> dict:
        return {
            "constraint": self.constraint.name,
            "codimension": self.codimension,
            "truncation_degree": self.ambient.truncation_degree,
            "n_max": self.ambient.n_max,
            "fiber_dimension": self.ambient.fiber.dimension,
            "charts": [c.to_json() for c in self.charts],
        }


# ---------------------------------------------------------------------------
# constructors
# ---------------------------------------------------------------------------

def make_sphere(space: SequenceSpace, level: int = 0, *,
                seed: int = 0) -> Submanifold:
    """Unit sphere of the level-n metric, charted at the two poles +-e0.

    Both poles lie on the sphere at every level because the degree-0 weight
    is always 1.  The two charts share kernel directions, so their overlap
    covers everything except the poles themselves.
    """
    c = sphere_constraint(space, level)
    north = space.basis(0)
    south = space.basis(0, scale=-1.0)
    charts = tuple(build_chart(c, p, seed=s)
                   for p, s in zip((north, south), spawn_seeds(seed, 2)))
    return Submanifold(c, charts)


def make_sphere_intersection(space: SequenceSpace, levels: Sequence[int], *,
                             radii: Optional[Sequence[float]] = None,
                             seed: int = 0) -> Submanifold:
    """Intersection of metric spheres, charted at one regular point.

    Seeds a Newton search for points on the fiber, then rank-tests each
    find.  When every attempt ends rank-deficient (or fails to converge),
    raises with the per-seed evidence: for unit radii this is the expected
    outcome, because subtracting the defining equations forces the tail to
    zero and leaves all gradients parallel.
    """
    base = sphere_intersection_constraint(space, levels)
    if radii is None:
        c = base
    else:
        radii = [float(r) for r in radii]
        if len(radii) != base.target_dim or \
                not all(0.0 < r < math.inf for r in radii):
            raise ValueError("radii must be positive and finite, one per level")
        shift = np.asarray([r * r - 1.0 for r in radii])
        c = replace(base, name=base.name + ";radii=" +
                    ",".join(f"{r:g}" for r in radii),
                    phi=lambda flats: base.phi(flats) - shift)

    rng = rng_from_seed(seed)
    chart_seeds = spawn_seeds(seed, SPHERE_INTERSECTION_ATTEMPTS)
    evidence: List[dict] = []
    shape = (space.truncation_degree + 1, space.fiber.dimension)
    # scale coefficient k by e^{-n_top k} so every constraint row starts O(1)
    top = max(levels)
    decay = np.exp(-float(top) * np.arange(space.truncation_degree + 1))
    w2_top = np.repeat(np.exp(2.0 * top *
                              np.arange(space.truncation_degree + 1)),
                       space.fiber.dimension)
    for attempt in range(SPHERE_INTERSECTION_ATTEMPTS):
        block = rng.uniform(-1.0, 1.0, size=shape) * decay[:, None]
        flat = block.reshape(-1)
        norm_top = math.sqrt(float(np.dot(w2_top * flat, flat)))
        seed_point = SequenceBatch(space.fiber, (block / norm_top)[None])
        found = find_preimage(c, np.zeros(c.target_dim), seed_point,
                              scaling=np.sqrt(w2_top))
        if found is None:
            evidence.append({"attempt": attempt, "converged": False})
            continue
        report = is_regular_point(c, found)
        entry = {
            "attempt": attempt,
            "converged": True,
            "residual": float(np.linalg.norm(c.value(found))),
            "singular_values": list(report.singular_values),
            "rank_decision": report.rank_decision,
        }
        if not report.rank_decision:
            evidence.append(entry)
            continue
        try:
            chart = build_chart(c, found, seed=int(chart_seeds[attempt]),
                                report=report)
        except RegularityError as err:
            entry["chart_error"] = str(err)
            evidence.append(entry)
            continue
        return Submanifold(c, (chart,))
    raise ConstructionError(
        f"{c.name}: no regular point found in "
        f"{SPHERE_INTERSECTION_ATTEMPTS} attempts "
        f"({sum(1 for e in evidence if e.get('converged'))} converged, "
        f"all rank-deficient or unusable)", evidence=evidence)


# ---------------------------------------------------------------------------
# transition verification
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TransitionReport:
    chart_i: int
    chart_j: int
    probe_count: int
    max_round_trip_error: float
    certificate: Optional[TamenessCertificate]

    @property
    def overlap_empty(self) -> bool:
        return self.probe_count == 0

    @property
    def ok(self) -> bool:
        if self.overlap_empty:
            return True
        return (self.max_round_trip_error <= TRANSITION_ROUND_TRIP_TOL
                and self.certificate is not None)

    def csv_row(self) -> tuple:
        r = self.certificate.r if self.certificate else ""
        b = self.certificate.b if self.certificate else ""
        return (self.chart_i, self.chart_j, self.probe_count,
                self.max_round_trip_error, r, b)


def _sample_overlap(chart_a: Chart, chart_b: Chart, count: int,
                    seed: int) -> np.ndarray:
    """Manifold points inside both validity radii, sampled through chart_a:
    a (P, D) block of flat points, P <= count.

    Up to 4 * count candidates are drawn in order and the first count that
    chart_a inverts into chart_b's radius are kept.  Each round draws only
    as many candidates as points are still missing and solves them as one
    block, so no candidate past the last kept one is solved.
    """
    rng = rng_from_seed(seed)
    dim = chart_a.kernel_dimension
    points = np.empty((0, chart_a.constraint.flat_dimension))
    draws = 4 * count
    while draws and len(points) < count:
        take = min(count - len(points), draws)
        draws -= take
        offsets = []
        for _ in range(take):
            u = rng.normal(size=dim)
            norm = float(np.linalg.norm(u))
            if norm == 0.0:
                continue
            scale = 0.9 * chart_a.validity_radius * \
                float(rng.uniform(0.2, 1.0)) ** (1.0 / max(dim, 1))
            offsets.append(scale * u / norm)
        if not offsets:
            continue
        flats, converged, _ = chart_a.inverse_lanes(np.array(offsets))
        inside = lane_norms(chart_b.offsets_lanes(flats)) <= \
            chart_b.validity_radius
        points = np.vstack([points, flats[converged & inside]])
    return points


def _transition_descriptor(manifold: Submanifold, chart_a: Chart,
                           chart_b: Chart, offsets: np.ndarray
                           ) -> Tuple[TameMapDescriptor,
                                      SequenceBatch]:
    """Chart-b coordinates as a function of chart-a coordinates.

    Offsets are embedded along the kernel bases so the transition becomes a
    map of the ambient space and the usual certification applies.  The
    probes are the given chart-a offsets, embedded; the claimed region is
    the ball they cover.
    """
    space = manifold.ambient
    offset_probes = chart_a.embed(offsets)
    level = manifold.constraint.level
    radius = float(np.max(space.seminorm(offset_probes, level))) * 1.0001

    def evaluator(h: SequenceBatch) -> SequenceBatch:
        x = chart_a.split_data.kernel_coords(flatten(h))
        flats, converged, error = chart_a.inverse_lanes(x)
        if not converged.all():
            raise error(int(np.flatnonzero(~converged)[0]))
        return chart_b.embed(chart_b.offsets_lanes(flats))

    desc = TameMapDescriptor(
        name="transition", domain=space, codomain=space,
        evaluator=evaluator, linearity="nonlinear",
        region_radius=radius, region_level=level)
    return desc, offset_probes


def _worst_round_trip(chart_a: Chart, chart_b: Chart, overlap: np.ndarray,
                      x_a: np.ndarray) -> float:
    """Largest relative error of the transition a->b and then its inverse
    b->a, in chart coordinates, over the (P, D) block of overlap points
    whose chart-a offsets are x_a; inf when a solve fails or an error is not
    finite.  Each direction is one block of chart inverses."""
    x_b = chart_b.offsets_lanes(overlap)
    q_ab, ok_ab, _ = chart_a.inverse_lanes(x_a)
    t_ab = chart_b.offsets_lanes(q_ab)
    err_ab = lane_norms(t_ab - x_b) / (1.0 + lane_norms(x_b))
    err_ba = np.full(len(overlap), math.inf)
    ok_ba = np.zeros(len(overlap), dtype=bool)
    if ok_ab.any():
        q_ba, ok, _ = chart_b.inverse_lanes(t_ab[ok_ab])
        ok_ba[ok_ab] = ok
        t_back = chart_a.offsets_lanes(q_ba)
        err_ba[ok_ab] = lane_norms(t_back - x_a[ok_ab]) / \
            (1.0 + lane_norms(x_a[ok_ab]))
    err = np.maximum(err_ab, err_ba)
    # a failed solve or a NaN error counts as an infinite error
    err[~(ok_ba & np.isfinite(err))] = math.inf
    return float(np.max(err, initial=0.0))


def verify_transitions(manifold: Submanifold, *,
                       probes_per_pair: int = DEFAULT_OVERLAP_PROBES,
                       seed: int = 0, r_max: int = 2
                       ) -> List[TransitionReport]:
    """Round-trip and certify every chart pair; single charts verify trivially.

    An empty overlap is reported as such, not raised: disjoint chart
    domains are a legitimate atlas shape.
    """
    charts = manifold.charts
    pairs = [(i, j) for i in range(len(charts))
             for j in range(i + 1, len(charts))]
    child_seeds = spawn_seeds(seed, max(len(pairs), 1))
    reports: List[TransitionReport] = []
    for pair_index, (i, j) in enumerate(pairs):
        chart_a, chart_b = charts[i], charts[j]
        overlap = _sample_overlap(chart_a, chart_b, probes_per_pair,
                                  int(child_seeds[pair_index]))
        if not len(overlap):
            reports.append(TransitionReport(i, j, 0, 0.0, None))
            continue
        offsets_a = chart_a.offsets_lanes(overlap)
        worst = _worst_round_trip(chart_a, chart_b, overlap, offsets_a)
        desc, offset_probes = _transition_descriptor(
            manifold, chart_a, chart_b, offsets_a)
        outcome = certify_tame(desc, offset_probes, r_max)
        reports.append(TransitionReport(
            i, j, len(overlap), worst, outcome.certificate))
    return reports


def transitions_csv_rows(reports: Sequence[TransitionReport]) -> List[tuple]:
    header = ("chart_i", "chart_j", "probes", "max_error", "r", "b")
    return [header] + [r.csv_row() for r in reports]


# ---------------------------------------------------------------------------
# maps into a submanifold
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class IntoSubmanifoldReport:
    max_image_residual: float
    probe_count: int
    certificate: Optional[TamenessCertificate]
    chart_coverage: Tuple[int, ...]
    chart_certificates: Tuple[Optional[TamenessCertificate], ...]


def chart_restriction(desc: TameMapDescriptor, manifold: Submanifold,
                      chart_index: int) -> TameMapDescriptor:
    """The map followed by one chart's kernel projection, offsets embedded
    back along the kernel basis so it stays a map of the ambient space."""
    chart = manifold.charts[chart_index]

    def evaluator(t: SequenceBatch) -> SequenceBatch:
        return chart.embed(chart.offsets_lanes(flatten(desc(t))))

    return TameMapDescriptor(
        name=f"{desc.name}|chart{chart_index}",
        domain=desc.domain, codomain=manifold.ambient,
        evaluator=evaluator, linearity="nonlinear",
        region_radius=desc.region_radius, region_level=desc.region_level)


def certify_map_into_submanifold(desc: TameMapDescriptor,
                                 manifold: Submanifold,
                                 probes, r_max: int = 2
                                 ) -> IntoSubmanifoldReport:
    """Check the image stays on the zero set, then certify into the ambient.

    A tameness certificate for the corestriction is exactly an ambient
    certificate plus the membership check: the constraint values vanish on
    the image, so no extra coordinates are involved.  Probes whose images
    land inside a chart's validity radius additionally certify that chart's
    composed restriction.
    """
    if desc.codomain is not manifold.ambient and \
            desc.codomain != manifold.ambient:
        raise ValueError("descriptor codomain must be the ambient space")
    if not probes:
        raise ValueError("need at least one probe")
    batch = as_batch(probes)
    images = flatten(desc(batch))
    # np.max propagates a NaN residual, which then fails the test
    worst = float(np.max(lane_norms(manifold.constraint.values(images))))
    if not worst <= DEFAULT_IMAGE_RESIDUAL_TOL:
        raise NotIntoSubmanifoldError(
            f"{desc.name}: image leaves the zero set "
            f"(max residual {worst:.3g} > {DEFAULT_IMAGE_RESIDUAL_TOL:.3g})",
            residual=worst)
    outcome: CertificationOutcome = certify_tame(desc, batch, r_max)
    coverage = []
    chart_certs = []
    for k, chart in enumerate(manifold.charts):
        hits = lane_norms(chart.offsets_lanes(images)) <= \
            chart.validity_radius
        coverage.append(int(np.count_nonzero(hits)))
        if not coverage[-1]:
            chart_certs.append(None)
            continue
        restricted = chart_restriction(desc, manifold, k)
        chart_certs.append(
            certify_tame(restricted, batch[hits], r_max).certificate)
    return IntoSubmanifoldReport(
        max_image_residual=worst, probe_count=len(batch),
        certificate=outcome.certificate,
        chart_coverage=tuple(coverage),
        chart_certificates=tuple(chart_certs))


def normalization_descriptor(space: SequenceSpace, *,
                             region_radius: float) -> TameMapDescriptor:
    """f -> f / sqrt(<f,f>_0), mapping a ball away from zero onto the sphere."""
    def evaluator(t: SequenceBatch) -> SequenceBatch:
        norm_sq = inner_product(t, t, 0)
        if np.any(norm_sq <= 0.0):
            raise ValueError("cannot normalize the zero sequence")
        return SequenceBatch(
            t.fiber, t.coefficients * (1.0 / np.sqrt(norm_sq))[:, None, None])

    return TameMapDescriptor(
        name="normalize0", domain=space, codomain=space,
        evaluator=evaluator, linearity="nonlinear",
        region_radius=region_radius)
