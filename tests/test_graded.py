"""Core grading tests with hand-frozen oracle values.

Oracle constants were computed independently from closed forms:
  sum_{k=0}^{64} e^{-2k}  = 1.1565176427496657   (geometric partial sum)
  1 / (1 - e^{-1})        = 1.5819767068693265
  e^{2*3}                 = 403.4287934927351
"""

import json
import math
from dataclasses import replace

import numpy as np
import pytest

from tamef.errors import UnsupportedGradingError
from tamef.graded import (
    BanachFiber,
    Grading,
    GradingViolation,
    ProductBatch,
    ProductSpace,
    SequenceBatch,
    SequenceSpace,
    TamenessCertificate,
    certify_grading_equivalence,
    custom_grading,
    inner_product,
    l1_grading,
    linf_grading,
    metric_norm,
    seminorm_l1,
    seminorm_linf,
    seminorm_table,
    validate_equivalence_certificate,
    validate_grading,
    within_upper,
)
from tamef.probes import make_probes
from tamef.serialize import dumps_json

R1 = BanachFiber(1)
GEOMETRIC_SUM_2 = 1.1565176427496657
L1_OVER_LINF_SHIFT1 = 1.5819767068693265


def geometric_sequence(rate, K, fiber=R1):
    block = np.exp(-rate * np.arange(K + 1.0)).reshape(1, -1, 1)
    return SequenceBatch(fiber, block)


# ---------------------------------------------------------------------------
# seminorm values against frozen oracles
# ---------------------------------------------------------------------------

def test_l1_geometric_sum_matches_closed_form():
    f = geometric_sequence(2.0, 64)
    assert seminorm_l1(f, 0)[0] == pytest.approx(GEOMETRIC_SUM_2, abs=1e-12)


def test_linf_geometric_peak_at_origin():
    f = geometric_sequence(2.0, 64)
    assert seminorm_linf(f, 0)[0] == 1.0


def test_monomial_seminorm_is_exact_weight():
    space = SequenceSpace(R1, truncation_degree=16, n_max=8)
    f = space.basis(3)
    # single nonzero coefficient: both flavours give e^{n*3} exactly
    assert seminorm_l1(f, 2)[0] == 403.4287934927351
    assert seminorm_linf(f, 2)[0] == 403.4287934927351
    assert seminorm_l1(f, 2)[0] == math.exp(6.0)


def test_seminorm_monotone_in_level():
    space = SequenceSpace(R1, truncation_degree=32, n_max=6)
    for f in make_probes(space, 40, seed=7):
        for n in range(6):
            assert seminorm_l1(f, n) <= seminorm_l1(f, n + 1) * (1 + 1e-12)
            assert seminorm_linf(f, n) <= seminorm_linf(f, n + 1) * (1 + 1e-12)


def test_linf_bounded_by_l1_at_same_level():
    space = SequenceSpace(R1, truncation_degree=32, n_max=6)
    for f in make_probes(space, 40, seed=11):
        for n in range(7):
            assert seminorm_linf(f, n) <= seminorm_l1(f, n) * (1 + 1e-12)


def test_seminorm_homogeneity_and_triangle():
    space = SequenceSpace(BanachFiber(3), truncation_degree=16, n_max=6)
    probes = make_probes(space, 20, seed=3)
    f, g = probes[12], probes[17]
    for n in (0, 2, 5):
        assert seminorm_l1(2.0 * f, n) == 2.0 * seminorm_l1(f, n)
        assert seminorm_linf(2.0 * f, n) == 2.0 * seminorm_linf(f, n)
        assert seminorm_l1(f + g, n) <= seminorm_l1(f, n) + seminorm_l1(g, n) + 1e-9
        assert seminorm_linf(f + g, n) <= (seminorm_linf(f, n)
                                           + seminorm_linf(g, n) + 1e-9)


def test_zero_sequence_has_zero_seminorms():
    space = SequenceSpace(R1, truncation_degree=8, n_max=8)
    z = space.zero()
    assert seminorm_l1(z, 5)[0] == 0.0
    assert seminorm_linf(z, 5)[0] == 0.0
    assert z.degree()[0] == -1


# ---------------------------------------------------------------------------
# table / scalar agreement
# ---------------------------------------------------------------------------

def test_table_matches_scalar_path_bitwise():
    space = SequenceSpace(BanachFiber(2), truncation_degree=24, n_max=6)
    probes = make_probes(space, 25, seed=5)
    decreasing = custom_grading(
        lambda f, n: math.exp(-n) * seminorm_l1(f, 0), 6, kind="decreasing")
    for grading in (l1_grading(6), linf_grading(6), decreasing):
        table = seminorm_table(grading, probes)
        for n in range(7):
            for i, f in enumerate(probes):
                assert table[n, i] == grading.seminorm(f, n)[0]


# ---------------------------------------------------------------------------
# inner products
# ---------------------------------------------------------------------------

def test_inner_product_monomial_weights():
    space = SequenceSpace(R1, truncation_degree=16, n_max=6)
    e3 = space.basis(3)
    e5 = space.basis(5)
    assert inner_product(e3, e3, level=1)[0] == math.exp(6.0)
    assert inner_product(e3, e5, level=1)[0] == 0.0
    assert metric_norm(e3, level=1)[0] == pytest.approx(math.exp(3.0),
                                                        rel=1e-15)


def test_inner_product_rejects_a_batch_of_another_length():
    """Row pairs need two batches of one length; a one-row batch does not
    broadcast against five rows."""
    p = make_probes(SequenceSpace(R1, truncation_degree=6, n_max=2), 5,
                    seed=1)
    with pytest.raises(ValueError, match="^batch length mismatch: 5 and 1 "
                                         "rows$"):
        inner_product(p, p[0])


def test_inner_product_rejects_a_batch_of_another_fiber():
    f = SequenceBatch(R1, np.ones((2, 4, 1)))
    g = SequenceBatch(BanachFiber(2), np.ones((2, 4, 2)))
    with pytest.raises(ValueError, match="^fiber mismatch$"):
        inner_product(f, g)


def test_inner_product_rejects_complex_fiber():
    fiber = BanachFiber(1, scalar_field="complex")
    f = SequenceBatch(fiber, np.ones((1, 4, 1), dtype=np.complex128))
    with pytest.raises(UnsupportedGradingError, match="^level inner products "
                                                      "need a real euclidean "
                                                      "fiber$"):
        inner_product(f, f)


def test_inner_product_rejects_sup_fiber():
    fiber = BanachFiber(2, norm_kind="supremum")
    f = SequenceBatch(fiber, np.ones((1, 4, 2)))
    with pytest.raises(UnsupportedGradingError):
        inner_product(f, f)


def test_all_zero_probe_set_is_degenerate():
    zeros = SequenceBatch(R1, np.zeros((5, 9, 1)))
    with pytest.raises(ValueError, match="every probe is zero"):
        certify_grading_equivalence(l1_grading(3), linf_grading(3), zeros,
                                    r_max=1)


# ---------------------------------------------------------------------------
# guards
# ---------------------------------------------------------------------------

def test_overflow_guard_on_space():
    with pytest.raises(ValueError):
        SequenceSpace(R1, truncation_degree=33, n_max=8)
    SequenceSpace(R1, truncation_degree=32, n_max=8)  # 256 is allowed


def test_level_out_of_range():
    space = SequenceSpace(R1, truncation_degree=8, n_max=4)
    f = space.basis(2)
    with pytest.raises(IndexError):
        seminorm_l1(f, -1)
    with pytest.raises(IndexError):
        space.seminorm(f, 5)
    with pytest.raises(IndexError):
        l1_grading(4).seminorm(f, 5)


def raised(call):
    with pytest.raises(Exception) as info:
        call()
    return type(info.value), str(info.value)


@pytest.mark.parametrize("levels, first_bad", [
    ([0, 2, -1, 7], -1), ([1, 5, -1], 5), ([3, 4, 4, 9, -5], 9)])
def test_level_lists_raise_what_the_first_bad_level_raises(levels,
                                                           first_bad):
    space = SequenceSpace(R1, truncation_degree=8, n_max=4)
    product = ProductSpace((space, replace(space, grading_kind="linf")))
    probes = make_probes(space, 3, seed=2)
    pairs = ProductBatch((probes, probes))
    for call in (lambda n: seminorm_l1(probes, n, n_max=4),
                 lambda n: seminorm_linf(probes, n, n_max=4),
                 lambda n: space.seminorm(probes, n),
                 lambda n: product.seminorm(pairs, n)):
        assert raised(lambda: call(levels)) == raised(lambda: call(first_bad))


@pytest.mark.parametrize("levels, first_bad", [
    ([4, 6, 5, -2], 6), ([0, -1, 6], -1)])
def test_level_lists_past_the_overflow_guard(levels, first_bad):
    long = geometric_sequence(1.0, 64)  # level 4 reaches the guard, 256
    for seminorm in (seminorm_l1, seminorm_linf):
        assert raised(lambda: seminorm(long, levels)) == \
            raised(lambda: seminorm(long, first_bad))


def test_sequence_shape_checks():
    # a batch takes a (P, K+1, d) block only, one sequence included
    for shape in ((1, 5, 1), (5, 2), (5,), (1, 0, 2)):
        with pytest.raises(ValueError):
            SequenceBatch(BanachFiber(2), np.ones(shape))
    with pytest.raises(IndexError):
        SequenceSpace(R1, truncation_degree=8).basis(9)
    f = SequenceBatch(R1, np.ones((1, 5, 1)))
    with pytest.raises(IndexError):
        f[1]
    with pytest.raises(ValueError):
        f + SequenceBatch(R1, np.ones((1, 6, 1)))


def test_coefficients_are_readonly():
    f = SequenceBatch(R1, np.ones((1, 5, 1)))
    with pytest.raises(ValueError):
        f.coefficients[0, 0, 0] = 2.0


# ---------------------------------------------------------------------------
# grading validation
# ---------------------------------------------------------------------------

def test_validate_grading_accepts_l1_and_linf():
    space = SequenceSpace(R1, truncation_degree=32, n_max=6)
    probes = make_probes(space, 60, seed=1)
    assert validate_grading(l1_grading(6), probes).ok
    assert validate_grading(linf_grading(6), probes).ok


def test_validate_grading_flags_decreasing_family():
    # e^{-n} |f|_0 shrinks with the level: monotonicity must fail
    bad = custom_grading(lambda f, n: math.exp(-n) * seminorm_l1(f, 0), n_max=4)
    space = SequenceSpace(R1, truncation_degree=8, n_max=4)
    report = validate_grading(bad, make_probes(space, 10, seed=2))
    assert not report.ok
    v = report.violations[0]
    assert v.lhs > v.rhs


def test_validate_grading_lists_violations_like_a_scalar_loop():
    # doubling the odd levels breaks monotonicity where |f|_{n+1} < 2 |f|_n,
    # for low-degree probes only; violations come probe by probe, then level
    uneven = custom_grading(
        lambda f, n: seminorm_l1(f, n) * (2.0 if n % 2 else 1.0), n_max=4)
    space = SequenceSpace(R1, truncation_degree=8, n_max=4)
    probes = make_probes(space, 30, seed=5)
    expected = [
        GradingViolation(i, n, uneven.seminorm(f, n)[0],
                         uneven.seminorm(f, n + 1)[0])
        for i, f in enumerate(probes) for n in range(4)
        if not within_upper(uneven.seminorm(f, n)[0],
                            uneven.seminorm(f, n + 1)[0])]
    report = validate_grading(uneven, probes)
    assert 0 < len(report.violations) < 2 * len(probes)
    assert list(report.violations) == expected


# ---------------------------------------------------------------------------
# equivalence certification
# ---------------------------------------------------------------------------

def test_equivalence_l1_linf_certificates():
    space = SequenceSpace(R1, truncation_degree=32, n_max=6)
    probes = make_probes(space, 200, seed=42)
    out = certify_grading_equivalence(l1_grading(6), linf_grading(6),
                                      probes, r_max=3)
    assert out.ok
    # summed <= C * sup one level up, C below the geometric-series bound
    assert out.forward.r == 1
    assert out.forward.max_ratio_observed <= L1_OVER_LINF_SHIFT1 + 1e-9
    # sup <= summed at the same level with constant exactly one
    assert out.backward.r == 0
    assert out.backward.max_ratio_observed == pytest.approx(1.0, abs=1e-12)
    for n, c in out.backward.C.items():
        assert c == pytest.approx(1.0, abs=1e-12)


def test_equivalence_certificates_revalidate_on_same_probes():
    space = SequenceSpace(R1, truncation_degree=32, n_max=6)
    probes = make_probes(space, 150, seed=9)
    out = certify_grading_equivalence(l1_grading(6), linf_grading(6),
                                      probes, r_max=3)
    assert out.ok
    assert validate_equivalence_certificate(out.forward, l1_grading(6),
                                            linf_grading(6), probes) == []
    assert validate_equivalence_certificate(out.backward, linf_grading(6),
                                            l1_grading(6), probes) == []


def test_analytic_certificate_validates_on_fresh_probes():
    space = SequenceSpace(R1, truncation_degree=32, n_max=6)
    fresh = make_probes(space, 150, seed=777)
    cert = TamenessCertificate(
        r=1, b=0, C={n: L1_OVER_LINF_SHIFT1 for n in range(6)},
        provenance="analytic")
    assert validate_equivalence_certificate(cert, l1_grading(6),
                                            linf_grading(6), fresh) == []


def test_certificate_violations_match_scalar_recheck():
    space = SequenceSpace(BanachFiber(2), truncation_degree=16, n_max=5)
    probes = make_probes(space, 60, seed=17)
    # constants below the true ones, so a share of the probes violates
    cert = TamenessCertificate(r=1, b=0, C={n: 0.9 for n in range(5)},
                               provenance="analytic")
    g_num, g_den = l1_grading(5), linf_grading(5)
    expected = []
    for n in cert.levels:
        for i, f in enumerate(probes):
            lhs = g_num.seminorm(f, n)[0]
            bound = cert.C[n] * g_den.seminorm(f, n + cert.r)[0]
            if not within_upper(lhs, bound):
                expected.append((i, n, lhs, bound))
    got = validate_equivalence_certificate(cert, g_num, g_den, probes)
    assert expected and got == expected
    assert got == validate_equivalence_certificate(cert, g_num, g_den,
                                                   list(probes))


def test_equivalence_fails_against_decreasing_family():
    dec = custom_grading(lambda f, n: math.exp(-n) * seminorm_l1(f, 0),
                         n_max=6, kind="decreasing")
    space = SequenceSpace(R1, truncation_degree=32, n_max=6)
    probes = make_probes(space, 100, seed=13)
    out = certify_grading_equivalence(dec, l1_grading(6), probes, r_max=3)
    assert not out.ok
    # the summed family cannot be dominated by the shrinking one at any shift
    assert out.failure.direction == "g2<=g1"
    assert out.failure.witness.probe_index >= 0
    assert np.array_equal(
        out.failure.probe.coefficients,
        probes[out.failure.witness.probe_index].coefficients)
    # the shrinking family is dominated the other way round at shift zero
    assert out.forward is not None and out.forward.r == 0


def test_certificate_field_checks():
    with pytest.raises(ValueError):
        TamenessCertificate(r=-1, b=0, C={0: 1.0}, provenance="analytic")
    with pytest.raises(ValueError):
        TamenessCertificate(r=0, b=0, C={}, provenance="analytic")
    with pytest.raises(ValueError):
        TamenessCertificate(r=0, b=2, C={1: 1.0}, provenance="analytic")
    with pytest.raises(ValueError):
        TamenessCertificate(r=0, b=0, C={0: 1.0}, provenance="guessed")
    with pytest.raises(ValueError):
        TamenessCertificate(r=0, b=0, C={0: 1.0}, provenance="empirical")
    cert = TamenessCertificate(r=1, b=0, C={0: 2.0, 1: 3.0},
                               provenance="empirical", probe_count=5)
    assert cert.levels == (0, 1)
    assert cert.constant(1) == 3.0
    with pytest.raises(IndexError):
        cert.constant(4)


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def _round_trips_exactly(f):
    """from_json gives f back bit for bit, from to_json's block and from
    the JSON text written of it; -0.0 keeps its sign."""
    payload = f.to_json()
    for obj in (payload, json.loads(dumps_json(payload))):
        g = SequenceBatch.from_json(obj)
        assert g.fiber == f.fiber
        assert g.coefficients.dtype == f.coefficients.dtype
        for part in (np.real, np.imag):
            assert np.array_equal(part(g.coefficients),
                                  part(f.coefficients))
            assert np.array_equal(np.signbit(part(g.coefficients)),
                                  np.signbit(part(f.coefficients)))


def test_sequence_json_round_trip_real():
    space = SequenceSpace(BanachFiber(2), truncation_degree=6, n_max=4)
    f = make_probes(space, 12, seed=21)[11]
    _round_trips_exactly(f)
    _round_trips_exactly(SequenceBatch(BanachFiber(2), np.array(
        [[[-0.0, 1e-300], [5e-324, 1e16], [1e16 - 2, 1 / 3]]])))
    with pytest.raises(ValueError):
        make_probes(space, 12, seed=21)[10:].to_json()


def test_sequence_json_round_trip_complex():
    fiber = BanachFiber(2, scalar_field="complex")
    block = np.arange(8.0).reshape(4, 2) + 1j * np.arange(8.0, 16.0).reshape(4, 2)
    _round_trips_exactly(SequenceBatch(fiber, block[None]))
    _round_trips_exactly(SequenceBatch(fiber, np.array(
        [[[-0.0 + 1j, 2.5 - 1e-300j], [1e300 + 5e-324j, 1 / 3 - 1e16j]]])))


# ---------------------------------------------------------------------------
# probe determinism and coverage
# ---------------------------------------------------------------------------

def test_probes_deterministic():
    space = SequenceSpace(BanachFiber(2), truncation_degree=32, n_max=6)
    a = make_probes(space, 30, seed=123)
    b = make_probes(space, 30, seed=123)
    c = make_probes(space, 30, seed=124)
    assert all(np.array_equal(x.coefficients, y.coefficients)
               for x, y in zip(a, b))
    assert any(not np.array_equal(x.coefficients, y.coefficients)
               for x, y in zip(a, c))


def test_probes_cover_both_degree_buckets():
    space = SequenceSpace(R1, truncation_degree=32, n_max=6)
    degrees = [f.degree()[0] for f in make_probes(space, 40, seed=6)]
    assert any(d > 16 for d in degrees)
    assert any(0 <= d <= 8 for d in degrees)
    assert len(degrees) == 40


def test_probes_respect_region():
    space = SequenceSpace(R1, truncation_degree=16, n_max=6)
    center = space.basis(0, scale=2.0)
    for p in make_probes(space, 20, seed=31, region_radius=0.5, center=center):
        assert seminorm_l1(p - center, 0) <= 0.5 + 1e-9
