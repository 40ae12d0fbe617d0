"""Map certification and combinator tests.

Frozen oracles rest on exact weight algebra: the shift-up map multiplies
level-n seminorms by exactly e^n (reindexing), shift-down by e^{-n}, and the
index-multiplier map (k+1)f_{k+1} obeys a shift-1 bound with constant e.
"""

import math
from contextlib import nullcontext
from dataclasses import replace

import numpy as np
import pytest

from tamef.cli import RunConfig
from tamef.errors import EmptyProbeSetError
from tamef.graded import (
    BASE_LEVEL,
    BanachFiber,
    ProductBatch,
    ProductSpace,
    RatioWitness,
    SequenceBatch,
    SequenceSpace,
    TamenessCertificate,
    as_batch,
    certify_from_tables,
    certify_grading_equivalence,
)
from tamef.manifold import (certify_map_into_submanifold, make_sphere,
                            normalization_descriptor)
from tamef.maps import (
    build_map,
    certify_composition,
    certify_projection,
    certify_tame,
    combine_product,
    map_seminorm_tables,
    validate_certificate_on_probes,
)
from tamef.probes import make_probes, make_product_probes, spawn_seeds

R1 = BanachFiber(1)
SPACE = SequenceSpace(R1, truncation_degree=32, n_max=6)
PROBES = make_probes(SPACE, 120, seed=2024)


# ---------------------------------------------------------------------------
# certify_tame on the registry maps
# ---------------------------------------------------------------------------

def test_certify_identity():
    out = certify_tame(build_map("identity", SPACE), PROBES, r_max=3)
    assert out.ok
    cert = out.certificate
    assert cert.r == 0 and cert.b == 0
    assert all(c == 1.0 for c in cert.C.values())


def test_certify_shift_up_exact_weights():
    out = certify_tame(build_map("shift_up", SPACE), PROBES, r_max=3)
    assert out.ok
    cert = out.certificate
    assert cert.r == 0 and cert.b == 0
    for n, c in cert.C.items():
        assert c == pytest.approx(math.exp(n), rel=1e-12)


def test_certify_shift_down_contracts():
    out = certify_tame(build_map("shift_down", SPACE), PROBES, r_max=3)
    assert out.ok
    cert = out.certificate
    assert cert.r == 0
    for n, c in cert.C.items():
        assert c == pytest.approx(math.exp(-n), rel=1e-12)


def test_certify_derivative_needs_shift_one():
    out = certify_tame(build_map("derivative", SPACE), PROBES, r_max=3)
    assert out.ok
    cert = out.certificate
    assert cert.r == 1
    assert cert.max_ratio_observed <= math.e + 1e-9


def test_certify_scale():
    out = certify_tame(build_map("scale:2.5", SPACE), PROBES, r_max=2)
    assert out.ok
    assert all(c == pytest.approx(2.5, rel=1e-14)
               for c in out.certificate.C.values())


def test_certify_zero_map_floors_constant():
    out = certify_tame(build_map("scale:0", SPACE), PROBES, r_max=2)
    assert out.ok
    assert out.certificate.r == 0
    assert all(c <= 1e-299 for c in out.certificate.C.values())


#: the warnings numpy gives as a scale map's tables turn non-finite: inf
#: times a zero coefficient is NaN, and 1e300 times a level weight e^{nk}
#: overflows, as does the sum of such terms
TABLE_WARNINGS = {"scale:inf": "invalid value encountered in multiply",
                  "scale:1e300": "overflow encountered in (multiply|add)"}


@pytest.mark.parametrize("name", ["scale:nan", "scale:inf", "scale:1e300"])
def test_non_finite_tables_are_rejected(name):
    desc = build_map(name, SPACE)
    with pytest.warns(RuntimeWarning, match=TABLE_WARNINGS[name]) \
            if name in TABLE_WARNINGS else nullcontext():
        out = certify_tame(desc, PROBES, r_max=2)
        _, num, den = map_seminorm_tables(desc, PROBES)
    assert not out.ok
    witness = out.witness
    assert math.isnan(witness.ratio)
    assert witness.reason.startswith("non-finite num seminorm")
    # the witness names the first non-finite entry in level-major order
    assert np.all(np.isfinite(den))
    flat = witness.level * len(PROBES) + witness.probe_index
    assert not np.isfinite(num.ravel()[flat])
    assert np.all(np.isfinite(num.ravel()[:flat]))
    assert np.array_equal(out.witness_probe.coefficients,
                          PROBES[witness.probe_index].coefficients)


def test_non_finite_den_is_named():
    num = np.ones((3, 4))
    den = np.ones((3, 4))
    den[1, 2] = math.inf
    den[2, 0] = math.nan
    cert, witness = certify_from_tables(num, den, [1, 2, 3, 4], 2, r_max=1,
                                        probe_count=4)
    assert cert is None
    assert (witness.level, witness.probe_index) == (1, 2)
    assert witness.reason == "non-finite den seminorm inf"


def test_ratio_overflow_is_not_certified():
    num = np.full((2, 3), 1e308)
    den = np.full((2, 3), 1e-3)
    with pytest.warns(RuntimeWarning, match="overflow encountered in divide"):
        cert, witness = certify_from_tables(num, den, [1, 1, 1], 2, r_max=0,
                                            probe_count=3)
    assert cert is None
    assert witness.ratio == math.inf
    assert witness.reason == "ratio overflows float64"


@pytest.mark.parametrize("r_max", [0, 1, 2])
def test_no_usable_ratio_names_probe_zero(r_max):
    # every denominator vanishes and every numerator is within DEFAULT_ATOL
    num = np.array([[0.0, 1e-10, 0.0, 1e-9]] * 3)
    den = np.zeros((3, 4))
    cert, witness = certify_from_tables(num, den, [1, 2, 3, 4], 2,
                                        r_max=r_max, probe_count=4)
    assert cert is None
    assert witness == RatioWitness(r_max, BASE_LEVEL, 0, -1.0,
                                   "no probe produced a usable ratio")


def test_negative_r_max_is_rejected():
    with pytest.raises(ValueError):
        certify_from_tables(np.ones((3, 4)), np.ones((3, 4)), [0, 1, 2, 3],
                            1, r_max=-1, probe_count=4)


def test_zero_denominator_under_a_nonzero_numerator_is_unbounded():
    den = np.ones((3, 4))
    den[1, 2] = 0.0
    cert, witness = certify_from_tables(np.ones((3, 4)), den, [1, 2, 3, 4],
                                        2, r_max=0, probe_count=4)
    assert cert is None
    assert witness == RatioWitness(0, 1, 2, math.inf,
                                   "ratio unbounded: zero denominator")


def test_forced_shift_above_n_max_admits_no_level():
    cert, witness = certify_from_tables(np.ones((3, 4)), np.ones((3, 4)),
                                        [1, 2, 3, 4], 2, r_max=0, forced_r=3,
                                        probe_count=4)
    assert cert is None
    assert witness == RatioWitness(3, BASE_LEVEL, -1, math.inf,
                                   "no level admits the shift")


# ---------------------------------------------------------------------------
# one owner per rule: as_batch rejects an empty probe set and
# certify_from_tables a shift bound outside 0..n_max, for every entry point
# ---------------------------------------------------------------------------

SMALL = SequenceSpace(R1, truncation_degree=4, n_max=2)


def _entry_points():
    """name -> call(probes, r_max) for each entry point taking probes."""
    identity = build_map("identity", SMALL)
    normalize = normalization_descriptor(SMALL, region_radius=2.0)
    sphere = make_sphere(SMALL, 0, seed=0)
    tables = np.ones((SMALL.n_max + 1, 4))
    return {
        "certify_grading_equivalence":
            lambda p, r: certify_grading_equivalence(
                SMALL, replace(SMALL, grading_kind="linf"), p, r),
        "certify_tame": lambda p, r: certify_tame(identity, p, r),
        "certify_map_into_submanifold":
            lambda p, r: certify_map_into_submanifold(normalize, sphere, p,
                                                      r),
        "certify_from_tables":
            lambda p, r: certify_from_tables(tables, tables, [1, 2, 3, 4], 2,
                                             r_max=r, probe_count=4),
    }


NO_ROWS = SequenceBatch(R1, np.zeros((0, 5, 1)))


@pytest.mark.parametrize("empty", [[], NO_ROWS, [NO_ROWS, NO_ROWS]],
                         ids=["list", "batch", "list-of-empty-batches"])
@pytest.mark.parametrize("entry", ["certify_grading_equivalence",
                                   "certify_tame",
                                   "certify_map_into_submanifold"])
def test_empty_probe_set_is_rejected(entry, empty):
    with pytest.raises(ValueError, match="^probe set is empty$"):
        _entry_points()[entry](empty, 0)


@pytest.mark.parametrize("r_max", [-1, SMALL.n_max + 1])
@pytest.mark.parametrize("entry", ["certify_grading_equivalence",
                                   "certify_tame",
                                   "certify_map_into_submanifold",
                                   "certify_from_tables"])
def test_shift_bound_outside_the_levels_is_rejected(entry, r_max):
    probes = make_probes(SMALL, 12, seed=3, region_radius=0.3,
                         center=SMALL.basis(0))
    with pytest.raises(ValueError, match=r"^r_max must lie in 0\.\.n_max$"):
        _entry_points()[entry](probes, r_max)


EMPTY_PROBE_SETS = ([], NO_ROWS, [NO_ROWS], [NO_ROWS, NO_ROWS])


def test_as_batch_raises_on_an_empty_probe_set():
    for empty in EMPTY_PROBE_SETS:
        with pytest.raises(EmptyProbeSetError, match="^probe set is empty$"):
            as_batch(empty)


def test_certify_tame_reads_emptiness_from_the_batch():
    identity = build_map("identity", SMALL)
    for empty in EMPTY_PROBE_SETS:
        with pytest.raises(EmptyProbeSetError, match="^probe set is empty$"):
            certify_tame(identity, empty, 0)


def _outside_the_domain():
    """(map, probes, what the error names): probes of another kind, fiber
    or truncation than the map's domain."""
    product = ProductSpace((SMALL, SMALL))
    return [
        (build_map("projection:1", SMALL), make_probes(SMALL, 3, seed=5),
         "a SequenceBatch is not an element of a product space"),
        (build_map("identity", SMALL),
         make_product_probes(product.factors, 3, seed=5),
         "a ProductBatch is not an element of a sequence space"),
        (build_map("identity", SMALL), PROBES,
         "sequence does not belong to this space"),
        (build_map("projection:2", SMALL),
         make_product_probes((SMALL, SPACE), 3, seed=5),
         "sequence does not belong to this space"),
    ]


@pytest.mark.parametrize("entry", ["certify_tame",
                                   "validate_certificate_on_probes"])
def test_probes_outside_the_domain_raise_naming_it(entry):
    """The domain check comes before the map sees a probe, which for a
    projection given sequences used to end in an AttributeError."""
    cert = TamenessCertificate(r=0, b=0, C={n: 1.0 for n in range(3)},
                               provenance="analytic")
    for desc, probes, names in _outside_the_domain():
        call = {"certify_tame": lambda: certify_tame(desc, probes, 0),
                "validate_certificate_on_probes":
                    lambda: validate_certificate_on_probes(desc, cert,
                                                           probes)}[entry]
        with pytest.raises(ValueError) as err:
            call()
        assert str(err.value) == \
            f"{desc.name}: probes outside the domain: {names}"


def test_degree_split_is_half_the_largest_factor_truncation():
    short = make_probes(SequenceSpace(R1, truncation_degree=4, n_max=2), 6,
                        seed=1)
    long = make_probes(SequenceSpace(R1, truncation_degree=9, n_max=2), 6,
                       seed=2)
    assert ProductBatch((short, long)).truncation_degree == 9
    assert ProductBatch((long, short)).truncation_degree == 9


def test_nan_region_radius_is_rejected():
    square = build_map("coeff_square", SMALL)
    with pytest.raises(ValueError, match="region radius must be positive"):
        replace(square, region_radius=math.nan)
    # the unit region it keeps rejects probes drawn from a wider ball
    wide = make_probes(SMALL, 12, seed=3, region_radius=5.0)
    with pytest.raises(ValueError, match="leaves the certification region"):
        certify_tame(square, wide, 0)


def test_certify_coeff_square_nonlinear():
    desc = build_map("coeff_square", SPACE)
    assert not desc.is_linear
    out = certify_tame(desc, PROBES, r_max=3)
    assert out.ok
    cert = out.certificate
    assert cert.r == 0 and not cert.linear
    assert cert.max_ratio_observed <= 1.0 + 1e-9


def test_nonlinear_region_enforced():
    desc = build_map("coeff_square", SPACE)
    far = [10.0 * PROBES[0]]
    with pytest.raises(ValueError):
        certify_tame(desc, far, r_max=2)


def test_certify_empty_probe_set_rejected():
    with pytest.raises(ValueError):
        certify_tame(build_map("identity", SPACE), [], r_max=2)


def test_certificates_revalidate_on_probes():
    for name in ("identity", "shift_up", "shift_down", "derivative"):
        desc = build_map(name, SPACE)
        cert = certify_tame(desc, PROBES, r_max=3).certificate
        assert validate_certificate_on_probes(desc, cert, PROBES) == []


def test_map_violations_match_scalar_recheck():
    desc = build_map("coeff_square", SPACE)
    cert = TamenessCertificate(r=0, b=0, C={n: 0.05 for n in range(7)},
                               provenance="empirical", probe_count=1,
                               linear=False)
    expected = []
    images = desc(PROBES)
    for n in cert.levels:
        for i, f in enumerate(PROBES):
            lhs = SPACE.seminorm(images[i], n)[0]
            bound = cert.C[n] * (SPACE.seminorm(f, n)[0] + 1.0)
            if lhs > bound + 1e-9 + 1e-9 * max(abs(lhs), abs(bound)):
                expected.append((i, n, lhs, bound))
    got = validate_certificate_on_probes(desc, cert, PROBES)
    assert expected and got == expected


# ---------------------------------------------------------------------------
# combinators
# ---------------------------------------------------------------------------

def test_projection_certificate_is_unit():
    product = ProductSpace((SPACE, SPACE))
    for i in (1, 2):
        cert = certify_projection(i, product)
        assert (cert.r, cert.b) == (0, 0)
        assert cert.provenance == "analytic"
        assert all(c == 1.0 for c in cert.C.values())
    single = ProductSpace((SPACE,))
    assert certify_projection(1, single).C[0] == 1.0
    with pytest.raises(IndexError):
        certify_projection(3, product)


def test_projection_certificate_validates_on_probes():
    product = ProductSpace((SPACE, SPACE))
    desc = build_map("projection:1", SPACE)
    pairs = make_product_probes(product.factors, 40, seed=5)
    cert = certify_projection(1, product)
    assert validate_certificate_on_probes(desc, cert, pairs) == []


def test_combine_product_unit_pair():
    product = ProductSpace((SPACE, SPACE))
    unit = certify_projection(1, product)
    combined = combine_product([unit, unit])
    assert (combined.r, combined.b) == (0, 0)
    assert all(c == 2.0 for c in combined.C.values())
    assert combined.provenance == "analytic"


def test_combine_product_mixed_shift():
    a = TamenessCertificate(r=0, b=0, C={n: 1.0 for n in range(7)},
                            provenance="analytic")
    b = TamenessCertificate(r=1, b=0, C={n: math.exp(n) for n in range(6)},
                            provenance="analytic")
    combined = combine_product([a, b])
    assert combined.r == 1
    assert combined.levels == tuple(range(6))
    for n in range(6):
        assert combined.C[n] == pytest.approx(1.0 + math.exp(n), rel=1e-15)


def test_combine_product_single_is_identity_case():
    a = TamenessCertificate(r=2, b=1, C={1: 4.0, 2: 5.0}, provenance="analytic")
    assert combine_product([a]) is a


def test_combine_product_dominates_direct_certification():
    cert_id = certify_tame(build_map("identity", SPACE), PROBES, 3).certificate
    cert_up = certify_tame(build_map("shift_up", SPACE), PROBES, 3).certificate
    combined = combine_product([cert_id, cert_up])
    direct = certify_tame(build_map("product:identity,shift_up", SPACE),
                          PROBES, r_max=3, forced_r=combined.r).certificate
    assert direct.r <= combined.r
    for n in combined.levels:
        assert direct.C[n] <= combined.C[n] + 1e-9


def test_compose_identity_identity():
    product = ProductSpace((SPACE,))
    unit = certify_projection(1, product)
    composed = certify_composition(unit, unit)
    assert (composed.r, composed.b) == (0, 0)
    assert all(c == 1.0 for c in composed.C.values())
    assert composed.provenance == "derived-analytic"


def test_compose_shift_up_twice_matches_double_shift():
    cert_up = certify_tame(build_map("shift_up", SPACE), PROBES, 3).certificate
    composed = certify_composition(cert_up, cert_up)
    assert composed.r == 0
    direct = certify_tame(build_map("compose:shift_up,shift_up", SPACE),
                          PROBES, r_max=3).certificate
    assert direct.r == 0
    for n in direct.levels:
        if n in composed.C:
            assert direct.C[n] == pytest.approx(math.exp(2 * n), rel=1e-12)
            assert direct.C[n] <= composed.C[n] * (1 + 1e-12)


def test_compose_derivative_after_shift_up_dominates():
    cert_d = certify_tame(build_map("derivative", SPACE), PROBES, 3).certificate
    cert_up = certify_tame(build_map("shift_up", SPACE), PROBES, 3).certificate
    composed = certify_composition(cert_d, cert_up)
    assert composed.r == cert_d.r + cert_up.r == 1
    direct = certify_tame(build_map("compose:derivative,shift_up", SPACE),
                          PROBES, r_max=3, forced_r=composed.r).certificate
    for n in composed.levels:
        assert direct.C[n] <= composed.C[n] + 1e-9


def test_compose_rejects_nonlinear_certificates():
    sq = certify_tame(build_map("coeff_square", SPACE), PROBES, 2).certificate
    unit = certify_projection(1, ProductSpace((SPACE,)))
    with pytest.raises(ValueError):
        certify_composition(unit, sq)


def test_compose_rejects_non_overlapping_ranges():
    outer = TamenessCertificate(r=3, b=0, C={5: 2.0}, provenance="analytic")
    inner = TamenessCertificate(r=0, b=0, C={n: 1.0 for n in range(7)},
                                provenance="analytic")
    with pytest.raises(ValueError):
        certify_composition(outer, inner)  # needs inner level 8


# ---------------------------------------------------------------------------
# registry parsing
# ---------------------------------------------------------------------------

def test_build_map_errors():
    with pytest.raises(ValueError):
        build_map("unknown_map", SPACE)
    with pytest.raises(ValueError):
        build_map("scale:abc", SPACE)
    with pytest.raises(ValueError):
        build_map("projection:x", SPACE)
    with pytest.raises(IndexError):
        build_map("projection:3", SPACE)
    with pytest.raises(ValueError):
        build_map("product:compose:identity,identity,identity", SPACE)
    with pytest.raises(ValueError):
        build_map("compose:identity", SPACE)


def test_build_map_product_and_compose_shapes():
    pair = build_map("product:identity,derivative", SPACE)
    out = pair(PROBES[:1])
    assert isinstance(out, ProductBatch) and len(out.parts) == 2
    assert len(out) == 1
    chain = build_map("compose:shift_down,shift_up", SPACE)
    f = PROBES[3]
    # shift down undoes shift up except for the dropped top coefficient
    g = chain(PROBES[3:4])[0]
    assert np.allclose(g.coefficients[0, :-1], f.coefficients[0, :-1])
    assert np.all(g.coefficients[0, -1] == 0.0)


# ---------------------------------------------------------------------------
# held-out evidence: a certificate holds on probes it was not fitted to
# ---------------------------------------------------------------------------

HELD_OUT_BASE = ("identity", "shift_up", "shift_down", "derivative",
                 "scale:2", "coeff_square")
#: the projections' empirical C(n) stay below their exact constant 1
#: (certify_projection)
PROJECTION_BELOW_EXACT = pytest.mark.xfail(
    strict=True, reason="FOUND: line in CHANGES.md on projection "
    "certificates: certify_tame puts a projection's C(n) below the exact 1, "
    "and held-out probes exceed it")


def registry_names():
    """Every registry map the held-out test certifies."""
    yield from HELD_OUT_BASE
    yield from ("projection:1", "projection:2")
    for head in ("product", "compose"):
        for a in HELD_OUT_BASE:
            for b in HELD_OUT_BASE:
                yield f"{head}:{a},{b}"


def draw(desc, count, seed):
    """count probes of desc's domain, one block per factor of a product."""
    if isinstance(desc.domain, ProductSpace):
        return make_product_probes(desc.domain.factors, count, seed)
    return make_probes(desc.domain, count, seed)


@pytest.mark.parametrize("name", [
    pytest.param(name, marks=PROJECTION_BELOW_EXACT)
    if name.startswith("projection:") else name for name in registry_names()])
def test_certificate_holds_on_held_out_probes(name):
    """Certified at the CLI defaults (K 32, nmax 6, 64 probes, r_max 2) on
    one spawn_seeds child of seed 1, every registry map's certificate holds
    on 2000 probes drawn from the other child."""
    cfg = RunConfig(command="certify-map", map=name)
    desc = build_map(name, cfg.space())
    train, held = spawn_seeds(1, 2)
    outcome = certify_tame(desc, draw(desc, cfg.probes, train), cfg.r_max)
    assert outcome.ok, outcome.witness
    assert validate_certificate_on_probes(
        desc, outcome.certificate, draw(desc, 2000, held)) == []


# ---------------------------------------------------------------------------
# the linear tag that the combinators trust
# ---------------------------------------------------------------------------

def blocks(batch):
    """The coefficient blocks of a batch, one per factor of a product."""
    parts = batch.parts if isinstance(batch, ProductBatch) else (batch,)
    return [part.coefficients for part in parts]


def like(batch, arrays):
    """A batch of batch's kind and fibers that holds the given blocks."""
    parts = batch.parts if isinstance(batch, ProductBatch) else (batch,)
    out = [SequenceBatch(p.fiber, a) for p, a in zip(parts, arrays)]
    return ProductBatch(out) if isinstance(batch, ProductBatch) else out[0]


def linearity_defects(desc, probes):
    """The laws desc breaks, part by part of its images: F(f + g) = F(f) +
    F(g) on neighbouring probes and F(2f) = 2F(f), each probe pair to 1e-9
    of its own largest image entry, plus one."""
    f, g = probes[:-1], probes[1:]
    sums = desc(like(f, [a + b for a, b in zip(blocks(f), blocks(g))]))
    doubles = desc(like(f, [2.0 * a for a in blocks(f)]))

    def row_max(block):
        return np.abs(block).max(axis=(1, 2))

    defects = []
    for part, (image_f, image_g, image_sum, image_double) in enumerate(zip(
            blocks(desc(f)), blocks(desc(g)), blocks(sums), blocks(doubles))):
        tol = 1e-9 * (1.0 + np.maximum(row_max(image_f), row_max(image_g)))
        if np.any(row_max(image_sum - (image_f + image_g)) > tol):
            defects.append(f"additivity of part {part}")
        if np.any(row_max(image_double - 2.0 * image_f) > tol):
            defects.append(f"homogeneity of part {part}")
    return defects


@pytest.mark.parametrize("name, defects", [
    *(pytest.param(name, [], id=name) for name in registry_names()
      if build_map(name, SPACE).is_linear),
    # nonlinear maps labelled linear
    pytest.param("coeff_square", ["additivity of part 0",
                                  "homogeneity of part 0"], id="coeff_square"),
    pytest.param("product:identity,coeff_square",
                 ["additivity of part 1", "homogeneity of part 1"],
                 id="product:identity,coeff_square")])
def test_linear_tags_hold_on_coefficient_blocks(name, defects):
    """Every registry map tagged linear is additive and homogeneous on the
    CLI-default probes of seed 1; a nonlinear map labelled linear is
    caught in the parts it breaks."""
    cfg = RunConfig(command="certify-map", map=name)
    desc = replace(build_map(name, cfg.space()), linearity="linear")
    assert linearity_defects(desc, draw(desc, cfg.probes, 1)) == defects
