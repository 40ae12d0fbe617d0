"""Sphere atlases, transition verification, and maps into submanifolds."""

import math

import numpy as np
import pytest

from tamef.errors import (ConstructionError, NotIntoSubmanifoldError,
                          UnsupportedGradingError)
from tamef.graded import BanachFiber, SequenceBatch, SequenceSpace, inner_product
from tamef.implicit import linear_constraint, sphere_constraint
from tamef.manifold import (IntoSubmanifoldReport, Submanifold,
                            TransitionReport, _sample_overlap,
                            _worst_round_trip, certify_map_into_submanifold,
                            chart_restriction, make_sphere,
                            make_sphere_intersection,
                            normalization_descriptor, transitions_csv_rows,
                            verify_transitions)
from tamef.implicit import build_chart
from tamef.maps import TameMapDescriptor, validate_certificate_on_probes
from tamef.probes import make_probes

R1 = BanachFiber(1)
SPACE = SequenceSpace(R1, truncation_degree=16, n_max=4)

E_SQUARED = 7.389056098930650


@pytest.fixture(scope="module")
def sphere0():
    return make_sphere(SPACE, 0, seed=42)


# ---------------------------------------------------------------------------
# construction
# ---------------------------------------------------------------------------

def test_sphere_has_two_polar_charts(sphere0):
    assert len(sphere0.charts) == 2
    assert sphere0.codimension == 1
    north = sphere0.charts[0].base_point
    south = sphere0.charts[1].base_point
    assert north.coefficients[0, 0, 0] == 1.0
    assert south.coefficients[0, 0, 0] == -1.0
    for chart in sphere0.charts:
        assert sphere0.residual(chart.base_point) <= 1e-10


def test_point_with_two_coefficients_on_sphere(sphere0):
    q = SPACE.basis(0, scale=0.6) + SPACE.basis(1, scale=0.8)
    assert sphere0.residual(q) <= 1e-12


def test_level_one_sphere_weights():
    m = make_sphere(SPACE, 1, seed=3)
    assert m.residual(SPACE.basis(0)) <= 1e-12
    # degree-1 unit coefficient carries metric weight e^2 at level 1
    assert m.residual(SPACE.basis(1)) == pytest.approx(E_SQUARED - 1.0,
                                                       abs=1e-12)


def test_sphere_requires_metric_fiber():
    sup_space = SequenceSpace(BanachFiber(2, norm_kind="supremum"),
                              truncation_degree=4, n_max=2)
    with pytest.raises(UnsupportedGradingError):
        make_sphere(sup_space, 0)


def test_base_points_must_lie_on_zero_set():
    sphere_chart = make_sphere(SPACE, 0, seed=1).charts[0]
    off = linear_constraint(SPACE, [1.0])  # q0 = 0 misses the pole
    with pytest.raises(ValueError):
        Submanifold(off, (sphere_chart,))


def test_forward_sends_fiber_points_to_zero_values(sphere0):
    chart = sphere0.charts[0]
    x = np.zeros(SPACE.flat_dimension - 1)
    x[0], x[3] = 0.5, -0.3
    q = chart.inverse(x)
    _, values = chart.forward(q)
    assert np.linalg.norm(values) <= 1e-10


# ---------------------------------------------------------------------------
# sphere intersections
# ---------------------------------------------------------------------------

def test_unit_sphere_intersection_reports_degeneracy():
    # equal radii force the tail to zero on the exact fiber; solver-tolerance
    # tails can fake the rank test (weights amplify them), but no chart
    # radius above the floor survives, so construction must fail loudly
    with pytest.raises(ConstructionError) as err:
        make_sphere_intersection(SPACE, (0, 1), seed=7)
    evidence = err.value.evidence
    assert evidence
    converged = [e for e in evidence if e.get("converged")]
    assert converged
    for entry in converged:
        assert entry["residual"] <= 1e-8
        assert (entry["rank_decision"] is False) or ("chart_error" in entry)


def test_distinct_radii_intersection_builds_a_chart():
    m = make_sphere_intersection(SPACE, (0, 1), radii=(1.0, 2.0), seed=7)
    assert m.codimension == 2
    assert len(m.charts) == 1
    chart = m.charts[0]
    assert m.residual(chart.base_point) <= 1e-10
    assert chart.validity_radius > 1e-4
    report = chart.report
    assert report.rank_decision
    assert len(report.singular_values) == 2


def test_single_chart_manifold_has_no_transitions():
    m = make_sphere_intersection(SPACE, (0, 1), radii=(1.0, 2.0), seed=7)
    assert verify_transitions(m, seed=5) == []


def test_intersection_rejects_bad_radii():
    with pytest.raises(ValueError):
        make_sphere_intersection(SPACE, (0, 1), radii=(1.0,), seed=1)
    with pytest.raises(ValueError):
        make_sphere_intersection(SPACE, (0, 1), radii=(1.0, -2.0), seed=1)
    with pytest.raises(ValueError):
        make_sphere_intersection(SPACE, (0, 1), radii=(np.nan, 2.0), seed=1)
    with pytest.raises(ValueError):
        make_sphere_intersection(SPACE, (0, 1), radii=(1.0, np.inf), seed=1)


# ---------------------------------------------------------------------------
# transitions
# ---------------------------------------------------------------------------

def test_sphere_transition_round_trip(sphere0):
    reports = verify_transitions(sphere0, seed=9)
    assert len(reports) == 1
    report = reports[0]
    assert (report.chart_i, report.chart_j) == (0, 1)
    assert report.probe_count >= 1
    assert not report.overlap_empty
    assert report.max_round_trip_error <= 1e-8
    assert report.certificate is not None
    assert report.certificate.r <= 2
    assert report.ok


def test_transition_determinism(sphere0):
    a = verify_transitions(sphere0, seed=9)
    b = verify_transitions(sphere0, seed=9)
    assert [r.max_round_trip_error for r in a] == \
        [r.max_round_trip_error for r in b]
    assert [r.probe_count for r in a] == [r.probe_count for r in b]


def test_affine_two_chart_transition_is_tame():
    c = linear_constraint(SPACE, [1.0])
    p1 = SPACE.basis(1)
    p2 = SPACE.basis(2, scale=2.0)
    charts = (build_chart(c, p1, seed=4), build_chart(c, p2, seed=5))
    m = Submanifold(c, charts)
    reports = verify_transitions(m, seed=13)
    assert len(reports) == 1
    report = reports[0]
    assert report.probe_count >= 1
    assert report.max_round_trip_error <= 1e-8
    cert = report.certificate
    assert cert is not None
    assert cert.r == 0
    assert cert.b == 0
    assert all(cert.constant(n) <= 3.0 for n in cert.levels)


def test_non_finite_round_trip_error_is_infinite():
    manifold = make_sphere(SequenceSpace(R1, truncation_degree=6, n_max=3),
                           0, seed=0)
    a, b = manifold.charts
    overlap = _sample_overlap(a, b, 5, seed=1)
    x_a = a.offsets_lanes(overlap)
    assert _worst_round_trip(a, b, overlap, x_a) <= 1e-8
    # a NaN overlap point gives a NaN error on that row; the worst error
    # must not skip it
    overlap[2] = math.nan
    assert _worst_round_trip(a, b, overlap, x_a) == math.inf


def test_transitions_csv_rows(sphere0):
    reports = verify_transitions(sphere0, seed=9)
    rows = transitions_csv_rows(reports)
    assert rows[0] == ("chart_i", "chart_j", "probes", "max_error", "r", "b")
    assert len(rows) == 2
    assert rows[1][0] == 0 and rows[1][1] == 1
    empty = TransitionReport(3, 4, 0, 0.0, None)
    assert transitions_csv_rows([empty])[1] == (3, 4, 0, 0.0, "", "")


# ---------------------------------------------------------------------------
# maps into the sphere
# ---------------------------------------------------------------------------

def normalize_probes(count=40, seed=77):
    return make_probes(SPACE, count, seed=seed, region_radius=0.3,
                       center=SPACE.basis(0))


def test_normalization_maps_into_sphere(sphere0):
    desc = normalization_descriptor(SPACE, region_radius=1.5)
    probes = normalize_probes()
    report = certify_map_into_submanifold(desc, sphere0, probes)
    assert report.max_image_residual <= 1e-12
    assert report.certificate is not None
    assert report.probe_count == len(probes)
    # all images stay near the north pole, inside chart 0
    assert report.chart_coverage[0] == len(probes)
    assert report.chart_certificates[0] is not None


def test_nan_image_residual_raises():
    space = SequenceSpace(R1, truncation_degree=6, n_max=3)
    manifold = make_sphere(space, 0, seed=0)
    normalize = normalization_descriptor(space, region_radius=5.0)

    def with_nan_row(t):
        block = normalize(t).coefficients.copy()
        block[3] = math.nan
        return SequenceBatch(t.fiber, block)

    desc = TameMapDescriptor("normalize-nan", space, space, with_nan_row,
                             linearity="nonlinear", region_radius=5.0)
    probes = make_probes(space, 40, seed=0, region_radius=2.0,
                         center=space.basis(0, scale=3.0))
    report = certify_map_into_submanifold(normalize, manifold, probes)
    assert report.max_image_residual <= 1e-12
    with pytest.raises(NotIntoSubmanifoldError) as err:
        certify_map_into_submanifold(desc, manifold, probes)
    assert math.isnan(err.value.residual)


def test_chart_restrictions_validate_on_their_probes(sphere0):
    desc = normalization_descriptor(SPACE, region_radius=1.5)
    probes = normalize_probes()
    report = certify_map_into_submanifold(desc, sphere0, probes)
    images = desc(probes)
    for k, cert in enumerate(report.chart_certificates):
        if cert is None:
            continue
        hits = [f for f, g in zip(probes, images)
                if sphere0.charts[k].contains(g)]
        restricted = chart_restriction(desc, sphere0, k)
        assert validate_certificate_on_probes(restricted, cert, hits) == []


def constant(value):
    """A batch evaluator with every image equal to value."""
    return lambda t: SequenceBatch(value.fiber, np.repeat(
        value.coefficients, len(t), axis=0))


def test_constant_map_into_sphere(sphere0):
    target = SPACE.basis(0)
    desc = TameMapDescriptor(
        name="const-e0", domain=SPACE, codomain=SPACE,
        evaluator=constant(target), linearity="nonlinear",
        region_radius=2.0)
    probes = make_probes(SPACE, 20, seed=31)
    report = certify_map_into_submanifold(desc, sphere0, probes)
    assert report.max_image_residual <= 1e-14
    assert report.certificate is not None
    assert report.certificate.r == 0
    # the composed value is the constant zero offset
    assert report.chart_certificates[0] is not None


def test_off_sphere_image_raises(sphere0):
    bad_point = SPACE.basis(0) + SPACE.basis(1, scale=0.1)
    desc = TameMapDescriptor(
        name="const-off", domain=SPACE, codomain=SPACE,
        evaluator=constant(bad_point), linearity="nonlinear",
        region_radius=2.0)
    probes = make_probes(SPACE, 8, seed=31)
    with pytest.raises(NotIntoSubmanifoldError) as err:
        certify_map_into_submanifold(desc, sphere0, probes)
    assert err.value.residual == pytest.approx(0.01, abs=1e-12)


def test_into_submanifold_requires_matching_codomain(sphere0):
    other = SequenceSpace(R1, truncation_degree=8, n_max=4)
    desc = TameMapDescriptor(
        name="wrong-codomain", domain=other, codomain=other,
        evaluator=lambda t: t)
    with pytest.raises(ValueError):
        certify_map_into_submanifold(desc, sphere0,
                                     make_probes(other, 4, seed=1))


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def test_atlas_json_shape(sphere0):
    payload = sphere0.to_json()
    assert payload["constraint"] == "sphere:0"
    assert payload["codimension"] == 1
    assert payload["truncation_degree"] == 16
    assert len(payload["charts"]) == 2
    for chart_blob in payload["charts"]:
        assert set(chart_blob) == {"base_point", "bases", "radius"}
        assert chart_blob["radius"] > 0
