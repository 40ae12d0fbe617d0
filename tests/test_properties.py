"""Property tests of invariants the paper states: seminorm monotonicity in the
level, the Cauchy bound of the disk grading and its l1 upper bound, the
chart round trip, the bound of an empirical tame constant by the exact one
of a linear map, and the soundness of the product and composition
combinators against the exact constants; of the rule that seminorm tables
holding NaN or infinity certify nothing; and of the ratio search against a
reference that compacts its masks.

Each test is a derandomized hypothesis search at small sizes, so a failure
reproduces on every run.
"""

import math
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from tamef.graded import (BASE_LEVEL, DEFAULT_ATOL, DEGREE_STABILITY_FACTOR,
                          BanachFiber, ProductBatch, RatioWitness,
                          SequenceBatch, SequenceSpace, TamenessCertificate,
                          certify_from_tables, seminorm_l1, seminorm_linf,
                          within_upper)
from tamef.implicit import CHART_ROUND_TRIP_TOL
from tamef.manifold import make_sphere
from tamef.maps import (build_map, certify_composition, certify_tame,
                        combine_product)
from tamef.probes import make_probes

PROPERTY = settings(derandomize=True, deadline=None, database=None,
                    max_examples=60)

FIBERS = st.builds(BanachFiber,
                   dimension=st.integers(1, 3),
                   scalar_field=st.sampled_from(("real", "complex")),
                   norm_kind=st.sampled_from(("euclidean", "supremum", "sum")))


def _block(draw, fiber, shape, bound):
    values = st.floats(-bound, bound)
    block = draw(arrays(np.float64, shape, elements=values))
    if fiber.scalar_field == "complex":
        block = block + 1j * draw(arrays(np.float64, shape, elements=values))
    return block


@st.composite
def batches(draw, max_degree):
    fiber = draw(FIBERS)
    shape = (draw(st.integers(1, 4)), draw(st.integers(0, max_degree)) + 1,
             fiber.dimension)
    return SequenceBatch(fiber, _block(draw, fiber, shape, 1e100))


@st.composite
def sequences(draw, max_degree):
    fiber = draw(FIBERS)
    shape = (1, draw(st.integers(0, max_degree)) + 1, fiber.dimension)
    return SequenceBatch(fiber, _block(draw, fiber, shape, 1e6))


@PROPERTY
@given(batch=batches(max_degree=12))
def test_seminorms_grow_with_the_level(batch):
    for seminorm in (seminorm_l1, seminorm_linf):
        for n in range(6):
            lower, upper = seminorm(batch, n), seminorm(batch, n + 1)
            assert np.all(within_upper(lower, upper)), (seminorm, n)


def one_minus_z_to_the(K):
    """1 - z^K, which reads zero on K equispaced points of |z| = 1."""
    block = np.zeros((1, K + 1, 1))
    block[0, 0, 0], block[0, K, 0] = 1.0, -1.0
    return SequenceBatch(BanachFiber(1), block)


@PROPERTY
@given(f=sequences(max_degree=16), level=st.integers(0, 3))
@example(f=one_minus_z_to_the(256), level=0)
@example(f=one_minus_z_to_the(256), level=1)
@example(f=one_minus_z_to_the(8), level=0)
def test_cauchy_bound_holds(f, level):
    """linf_n <= disk_n <= l1_n: Cauchy's bound below, the triangle
    inequality above, for every fiber kind and degree; the disk grid has
    more points than the degree, so no monomial aliases onto another."""
    space = SequenceSpace(f.fiber, f.truncation_degree, level, "disk")
    sup = space.seminorm(f, level)
    assert within_upper(seminorm_linf(f, level), sup).all()
    assert within_upper(sup, seminorm_l1(f, level)).all()


@lru_cache(maxsize=None)
def _sphere(K, d):
    space = SequenceSpace(BanachFiber(d), truncation_degree=K, n_max=2)
    return make_sphere(space, 0, seed=K)


@PROPERTY
@given(data=st.data(), K=st.integers(2, 4), d=st.integers(1, 2),
       pole=st.integers(0, 1), t=st.floats(0.0, 1.0))
def test_chart_round_trip_inside_validity_radius(data, K, d, pole, t):
    chart = _sphere(K, d).charts[pole]
    # a codimension-one sphere: every flat coordinate but one is a kernel one
    u = data.draw(arrays(np.float64, (K + 1) * d - 1,
                         elements=st.floats(-1.0, 1.0)))
    norm = float(np.linalg.norm(u))
    assume(norm > 0.0)
    x = (t * chart.validity_radius / norm) * u
    r = float(np.linalg.norm(x))
    x_back, values = chart.forward(chart.inverse(x))
    bound = CHART_ROUND_TRIP_TOL * (1.0 + r)
    assert float(np.linalg.norm(x_back - x)) <= bound
    assert float(np.linalg.norm(values)) <= bound


NON_FINITE = st.sampled_from((math.nan, math.inf, -math.inf))


@PROPERTY
@given(data=st.data(), levels=st.integers(1, 4), probes=st.integers(1, 5))
def test_non_finite_tables_are_never_certified(data, levels, probes):
    """Whatever the finite entries, shift and degrees, a NaN or infinite
    entry in num or den yields no certificate; the witness names the first
    such entry in level-major order, num before den, with ratio NaN."""
    tables = {name: data.draw(arrays(np.float64, (levels, probes),
                                     elements=st.floats(0.0, 1e300)))
              for name in ("num", "den")}
    planted = st.tuples(st.sampled_from(("num", "den")),
                        st.integers(0, levels - 1),
                        st.integers(0, probes - 1), NON_FINITE)
    for name, n, i, value in data.draw(st.lists(planted, min_size=1,
                                                max_size=4)):
        tables[name][n, i] = value
    cert, witness = certify_from_tables(
        tables["num"], tables["den"],
        data.draw(st.lists(st.integers(-1, 8), min_size=probes,
                           max_size=probes)),
        data.draw(st.integers(0, 8)),
        r_max=data.draw(st.integers(0, levels - 1)),
        forced_r=data.draw(st.none() | st.integers(0, levels - 1)),
        probe_count=probes, linear=data.draw(st.booleans()))
    name, n, i = next((name, n, i) for name in ("num", "den")
                      for n in range(levels) for i in range(probes)
                      if not math.isfinite(tables[name][n, i]))
    assert cert is None
    assert (witness.level, witness.probe_index) == (n, i)
    assert math.isnan(witness.ratio)
    assert witness.reason == \
        f"non-finite {name} seminorm {float(tables[name][n, i])}"


def reference_certify_from_tables(num, den, degrees, degree_split, *, r_max,
                                  forced_r, probe_count, linear):
    """certify_from_tables on finite tables as it was written with boolean
    compaction: each masked maximum is the max of the selected ratios."""
    n_max = num.shape[0] - 1
    high = np.asarray(degrees) > degree_split

    def try_shift(r):
        top = n_max - r
        if top < BASE_LEVEL:
            return None, RatioWitness(r, BASE_LEVEL, -1, math.inf,
                                      "no level admits the shift")
        constants = {}
        for n in range(BASE_LEVEL, top + 1):
            included = den[n + r] > 0.0
            ratios = np.zeros_like(num[n])
            ratios[included] = num[n][included] / den[n + r][included]
            bad = ~included & (num[n] > DEFAULT_ATOL)
            if np.any(bad):
                return None, RatioWitness(r, n, int(np.nonzero(bad)[0][0]),
                                          math.inf,
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
        return TamenessCertificate(
            r=r, b=BASE_LEVEL,
            C={n: (c if c > 0.0 else 1e-300) for n, c in constants.items()},
            provenance="empirical", probe_count=probe_count,
            max_ratio_observed=max(constants.values()),
            observed=dict(constants), linear=linear), None

    if forced_r is not None:
        return try_shift(forced_r)
    for r in range(r_max + 1):
        cert, witness = try_shift(r)
        if cert is not None:
            return cert, None
    if witness.probe_index < 0:
        witness = RatioWitness(r_max, BASE_LEVEL, 0, -1.0, witness.reason)
    return None, witness


#: entries at the edges the search treats apart: zero, both sides of
#: DEFAULT_ATOL, and magnitudes whose quotients overflow or underflow
TABLE_ENTRIES = st.sampled_from((0.0, 0.5 * DEFAULT_ATOL, 2.0 * DEFAULT_ATOL,
                                 1e-300, 1e300)) | st.floats(0.0, 1e3)


@PROPERTY
@given(data=st.data(), levels=st.integers(1, 5), probes=st.integers(1, 8))
def test_ratio_search_matches_the_compacting_reference(data, levels, probes):
    """certify_from_tables returns the reference's certificate, or its
    witness field by field, on finite non-negative tables: with zero
    denominators planted under numerators on both sides of DEFAULT_ATOL,
    ratios that overflow, degree buckets that disagree, and degree splits
    that leave one bucket empty."""
    den = data.draw(arrays(np.float64, (levels, probes),
                           elements=TABLE_ENTRIES))
    if data.draw(st.booleans()):
        # proportional tables, stable across the buckets until perturbed
        num = den * data.draw(st.floats(0.0, 10.0))
    else:
        num = data.draw(arrays(np.float64, (levels, probes),
                               elements=TABLE_ENTRIES))
    overflow = data.draw(st.none() | st.integers(0, probes - 1))
    if overflow is not None:
        # a probe whose ratio overflows at every level and shift
        num[:, overflow], den[:, overflow] = 1e300, 1e-300
    cells = st.tuples(st.integers(0, levels - 1), st.integers(0, probes - 1))
    for n, i in data.draw(st.lists(cells, max_size=3)):
        den[n, i] = 0.0
    for (n, i), value in data.draw(st.lists(st.tuples(cells, TABLE_ENTRIES),
                                            max_size=3)):
        num[n, i] = value
    degrees = data.draw(st.lists(st.integers(-1, 8), min_size=probes,
                                 max_size=probes))
    # below every degree, above every degree, or between
    split = data.draw(st.integers(-2, 9))
    options = dict(r_max=data.draw(st.integers(0, levels - 1)),
                   forced_r=data.draw(st.none() | st.integers(0, levels - 1)),
                   probe_count=probes, linear=data.draw(st.booleans()))
    with np.errstate(over="ignore"):
        cert, witness = certify_from_tables(num, den, degrees, split,
                                            **options)
        ref_cert, ref_witness = reference_certify_from_tables(
            num, den, degrees, split, **options)
    if ref_cert is None:
        assert cert is None
        assert witness == ref_witness
    else:
        assert witness is None
        assert cert.to_json() == ref_cert.to_json()


# ---------------------------------------------------------------------------
# empirical constants of linear maps against their exact values
# ---------------------------------------------------------------------------

LINEAR_MAPS = ("derivative", "shift_up", "shift_down",
               "compose:derivative,shift_up")


def monomials(space):
    """Every monomial e_0, ..., e_K of a space with a 1-dimensional fiber."""
    K = space.truncation_degree
    return SequenceBatch(space.fiber, np.eye(K + 1)[:, :, None])


def exact_l1_constants(desc, r):
    """C(n) = max over k of sum_j e^{nj} |L_jk| e^{-(n+r)k}, the l1 -> l1
    norm of the weighted matrix of the map's monomial images, at the levels
    a certificate of shift r covers.  On a product codomain, graded by the
    sum of its factors, the inner sum runs over every factor's j."""
    space = desc.domain
    images = desc(monomials(space))
    parts = images.parts if isinstance(images, ProductBatch) else (images,)
    k = np.arange(space.truncation_degree + 1)

    def weighted(n):
        # (k,) sums of the weighted image norms, (k, j) @ (j,) per factor
        return sum(np.abs(p.coefficients[:, :, 0]) @ np.exp(n * k)
                   for p in parts)

    return {n: float(np.max(weighted(n) * np.exp(-(n + r) * k)))
            for n in range(BASE_LEVEL, space.n_max - r + 1)}


@PROPERTY
@given(name=st.sampled_from(LINEAR_MAPS), K=st.integers(4, 16),
       n_max=st.integers(2, 3), count=st.integers(1, 200),
       seed=st.integers(0, 2 ** 16))
def test_linear_map_constants_never_exceed_the_exact_ones(name, K, n_max,
                                                          count, seed):
    """An empirical constant is a largest ratio over probes, so it is at
    most the exact constant; with every monomial among the probes it is
    the exact constant."""
    space = SequenceSpace(BanachFiber(1), truncation_degree=K, n_max=n_max)
    desc = build_map(name, space)
    probes = make_probes(space, count, seed)
    cert = certify_tame(desc, probes, n_max).certificate
    exact = exact_l1_constants(desc, cert.r)
    assert sorted(cert.observed) == sorted(exact)
    for n, c in cert.observed.items():
        assert c <= exact[n] * (1.0 + 1e-12), (n, c, exact[n])
    every = SequenceBatch(space.fiber, np.concatenate(
        [monomials(space).coefficients, probes.coefficients]))
    cert = certify_tame(desc, every, n_max).certificate
    exact = exact_l1_constants(desc, cert.r)
    assert sorted(cert.observed) == sorted(exact)
    for n, c in cert.observed.items():
        assert c == pytest.approx(exact[n], rel=1e-12, abs=0.0), n


LINEAR_FACTORS = ("identity", "shift_up", "shift_down", "derivative",
                  "scale:0.5", "scale:-3")


def analytic_certificate(desc, r):
    """The certificate of shift r holding the map's exact l1 constants."""
    return TamenessCertificate(r=r, b=BASE_LEVEL,
                               C=exact_l1_constants(desc, r),
                               provenance="analytic")


@PROPERTY
@given(a=st.sampled_from(LINEAR_FACTORS), b=st.sampled_from(LINEAR_FACTORS),
       K=st.integers(2, 16), n_max=st.integers(1, 4),
       shifts=st.tuples(st.integers(0, 2), st.integers(0, 2)))
def test_combinators_never_fall_below_the_exact_constants(a, b, K, n_max,
                                                          shifts):
    """combine_product and certify_composition of the exact certificates
    of two linear maps bound the product: and compose: maps: each C(n) is
    at least that map's exact constant at the combined shift, on the same
    levels."""
    assume(sum(shifts) <= n_max)
    space = SequenceSpace(BanachFiber(1), truncation_degree=K, n_max=n_max)
    certs = [analytic_certificate(build_map(name, space), r)
             for name, r in zip((a, b), shifts)]
    for head, combined in (("product", combine_product(certs)),
                           ("compose", certify_composition(*certs))):
        exact = exact_l1_constants(build_map(f"{head}:{a},{b}", space),
                                   combined.r)
        assert sorted(combined.C) == sorted(exact), head
        for n, c in combined.C.items():
            assert c >= exact[n] * (1.0 - 1e-12), (head, n, c, exact[n])
