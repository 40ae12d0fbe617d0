"""Boundary-evaluation and coefficient-recovery tests.

Frozen oracles:
  e            = 2.718281828459045    (series sum, remainder < 1/33! ~ 1e-37)
  e - 1        = 1.718281828459045
"""

import math

import numpy as np
import pytest

from tamef.errors import AliasingError
from tamef.graded import BanachFiber, SequenceBatch, SequenceSpace, seminorm_linf
from tamef.holomorphic import (
    DiskSpec,
    as_real,
    boundary_values,
    check_real_form,
    coefficients_from_boundary,
    complexify,
    conjugation_symmetry_defect,
    eval_series,
    round_trip_report,
    sup_norm_disk,
    verify_cauchy_bound,
)
from tamef.probes import make_probes, rng_from_seed
from tamef.serialize import dumps_json

R1 = BanachFiber(1)
C1 = BanachFiber(1, scalar_field="complex")
E = 2.718281828459045


def seq(fiber, rows):
    """The one sequence with the given (K+1, d) coefficient rows."""
    return SequenceBatch(fiber, np.asarray(rows)[None])


def exp_series(K=32):
    block = np.array([1.0 / math.factorial(k) for k in range(K + 1)]).reshape(-1, 1)
    return seq(R1, block)


# ---------------------------------------------------------------------------
# evaluation
# ---------------------------------------------------------------------------

def test_eval_constant_series():
    f = seq(BanachFiber(2), np.array([[3.0, -4.0]] + [[0.0, 0.0]] * 5))
    v = eval_series(f, 0.7 - 0.2j)
    assert v[0] == 3.0 and v[1] == -4.0


def test_eval_truncated_exponential_at_one():
    assert eval_series(exp_series(), 1.0)[0] == pytest.approx(E, abs=1e-12)


def test_eval_identity_series():
    f = seq(R1, np.array([[0.0], [1.0], [0.0], [0.0]]))
    assert eval_series(f, 2 + 1j)[0] == 2 + 1j


def test_eval_overflow_guard():
    f = seq(R1, np.ones((33, 1)))
    with pytest.raises(ValueError):
        eval_series(f, math.exp(9.0))  # 32 * 9 > 256
    eval_series(f, math.exp(8.0))  # 32 * 8 = 256 still allowed


def test_eval_vectorized_matches_scalar():
    f = exp_series(8)
    pts = np.array([0.3 + 0.1j, -1.2j, 2.0])
    block = eval_series(f, pts)
    for i, z in enumerate(pts):
        assert block[i, 0] == eval_series(f, z)[0]


# ---------------------------------------------------------------------------
# boundary sup
# ---------------------------------------------------------------------------

def test_sup_norm_constant():
    f = seq(R1, np.array([[5.0], [0.0], [0.0]]))
    assert sup_norm_disk(f, DiskSpec(0, 64)) == pytest.approx(5.0, rel=1e-14)


def test_sup_norm_exponential_unit_circle():
    # max of |e^z| on |z| = 1 sits at z = 1, a grid point for any M
    assert sup_norm_disk(exp_series(), DiskSpec(0, 256)) == pytest.approx(E, abs=1e-12)


def test_sup_norm_identity_radius_e():
    f = seq(R1, np.array([[0.0], [1.0], [0.0]]))
    assert sup_norm_disk(f, DiskSpec(1, 64)) == pytest.approx(math.e, rel=1e-13)


def test_sup_norm_monotone_in_level():
    space = SequenceSpace(R1, truncation_degree=24, n_max=6)
    for f in make_probes(space, 15, seed=4):
        sups = [sup_norm_disk(f, DiskSpec(n, 128)) for n in range(4)]
        for a, b in zip(sups, sups[1:]):
            assert a <= b * (1 + 1e-12)


def test_disk_spec_guards():
    with pytest.raises(ValueError):
        DiskSpec(-1)
    with pytest.raises(ValueError):
        DiskSpec(0, boundary_samples=4)
    assert DiskSpec(2).radius == math.exp(2.0)


# ---------------------------------------------------------------------------
# coefficient recovery
# ---------------------------------------------------------------------------

def test_recover_constant():
    disk = DiskSpec(1, 32)
    values = np.full((32, 1), 3.0 + 0.0j)
    f = coefficients_from_boundary(values, disk.radius, 6, R1)
    expect = np.zeros(7)
    expect[0] = 3.0
    assert np.allclose(f.coefficients[0, :, 0], expect, atol=1e-13)


def test_recover_square_from_exact_samples():
    # direct quadrature of f(z) = z^2 on the unit circle with 16 nodes
    z = np.exp(2j * np.pi * np.arange(16) / 16)
    f = coefficients_from_boundary((z ** 2).reshape(-1, 1), 1.0, 4, R1)
    assert np.allclose(f.coefficients[0, :, 0], [0, 0, 1, 0, 0], atol=1e-12)


def test_recovery_aliasing_guard():
    values = np.ones((8, 1), dtype=complex)
    with pytest.raises(AliasingError):
        coefficients_from_boundary(values, 1.0, 4, R1)  # needs >= 10


def test_round_trip_decaying_polynomial_deg16():
    # coefficient profile e^{-k/2} keeps boundary magnitudes ~ e^8 so the
    # recovered coefficients match to 1e-10 in absolute terms
    rng = rng_from_seed(100)
    for _ in range(20):
        u = rng.uniform(-1.0, 1.0, size=17) * np.exp(-0.5 * np.arange(17))
        f = seq(R1, u.reshape(-1, 1))
        disk = DiskSpec(1, 64)
        rec = coefficients_from_boundary(
            boundary_values(f, disk), disk.radius, 16, R1)
        assert np.max(np.abs(rec.coefficients[0, :, 0] - u)) <= 1e-10


def test_round_trip_weighted_relative_error_any_sequence():
    # flat and random profiles both stay within 1e-8 measured in the
    # level-1 weighted seminorm, K = 32 and M = 4K
    space = SequenceSpace(R1, truncation_degree=32, n_max=6)
    probes = list(make_probes(space, 30, seed=55)) + [seq(R1, np.ones((33, 1)))]
    for f in probes:
        report = round_trip_report(f, DiskSpec(1, 128))
        assert report.weighted_relative_error <= 1e-8


# ---------------------------------------------------------------------------
# weighted-coefficient bound
# ---------------------------------------------------------------------------

def test_cauchy_bound_constant_equality():
    f = seq(R1, np.array([[2.5], [0.0]]))
    report = verify_cauchy_bound(f, 0)
    assert report.ok
    assert report.weighted_coefficient_sup == 2.5
    assert abs(report.slack) <= 1e-12


def test_cauchy_bound_exponential_slack():
    report = verify_cauchy_bound(exp_series(), 0, samples=256)
    assert report.ok
    assert report.weighted_coefficient_sup == 1.0
    assert report.slack == pytest.approx(E - 1.0, abs=1e-12)
    assert report.slack == pytest.approx(1.718281828459045, abs=1e-12)


def test_cauchy_bound_top_monomial_tight():
    K = 32
    f = seq(R1, np.eye(K + 1)[:, K:])
    report = verify_cauchy_bound(f, 1, samples=256)
    assert report.ok
    assert report.weighted_coefficient_sup == pytest.approx(math.exp(K), rel=1e-15)
    # |z^K| is constant e^K on the circle: slack is pure roundoff
    assert abs(report.slack) <= 1e-12 * math.exp(K)


def test_cauchy_bound_holds_for_probes_all_levels():
    space = SequenceSpace(R1, truncation_degree=32, n_max=6)
    probes = make_probes(space, 40, seed=77)
    for f in probes:
        for n in range(6):
            report = verify_cauchy_bound(f, n, samples=256)
            assert report.ok, (n, report.slack)
            assert report.slack >= -1e-9 * max(1.0, report.boundary_sup)


def test_cauchy_report_ok_is_a_python_bool():
    # z^8 aliases onto 1 on an 8-point grid, so 1 - z^8 reads zero there
    # and the sampled bound fails; either verdict serializes as a JSON bool
    aliased = seq(R1, np.array([[1.0]] + [[0.0]] * 7 + [[-1.0]]))
    for f, samples, ok in ((exp_series(), 256, True), (aliased, 8, False)):
        report = verify_cauchy_bound(f, 0, samples=samples)
        assert report.ok is ok
        assert f'"ok": {str(ok).lower()}' in dumps_json(report.to_json())


# ---------------------------------------------------------------------------
# real form
# ---------------------------------------------------------------------------

def test_real_form_real_sequence():
    space = SequenceSpace(R1, truncation_degree=16, n_max=6)
    f = make_probes(space, 5, seed=8)[4]
    assert check_real_form(f)
    assert check_real_form(complexify(f))
    assert conjugation_symmetry_defect(f, count=32, seed=1) <= 1e-12


def test_real_form_constant_i():
    f = seq(C1, np.array([[1j], [0j], [0j]]))
    assert not check_real_form(f)
    assert conjugation_symmetry_defect(f, count=8, seed=2) == pytest.approx(2.0)


def test_real_form_linear_i():
    f = seq(C1, np.array([[1.0 + 0j], [1j], [0j]]))
    assert not check_real_form(f)
    # conj(f(1)) = 1 - i while f(1) = 1 + i
    v = eval_series(f, 1.0)[0]
    assert np.conj(v) != v
    assert conjugation_symmetry_defect(f, count=32, seed=3) > 0.5


def test_as_real_round_trip_and_guard():
    space = SequenceSpace(BanachFiber(2), truncation_degree=8, n_max=4)
    f = make_probes(space, 3, seed=9)[2]
    g = as_real(complexify(f))
    assert np.array_equal(g.coefficients, f.coefficients)
    bad = seq(C1, np.array([[1.0 + 0.5j], [0j]]))
    with pytest.raises(ValueError):
        as_real(bad)


def test_weighted_sup_is_linf_seminorm():
    f = exp_series(8)
    assert verify_cauchy_bound(f, 2, samples=64).weighted_coefficient_sup == \
        seminorm_linf(f, 2)[0]


def test_one_series_functions_reject_a_batch_of_several():
    space = SequenceSpace(R1, truncation_degree=8, n_max=4)
    probes = make_probes(space, 3, seed=9)
    for call in (lambda f: eval_series(f, 0.5),
                 lambda f: sup_norm_disk(f, DiskSpec(0, 64)),
                 lambda f: round_trip_report(f, DiskSpec(0, 64)),
                 lambda f: verify_cauchy_bound(f, 0),
                 check_real_form, conjugation_symmetry_defect):
        call(probes[1])
        with pytest.raises(ValueError, match="one sequence"):
            call(probes)
