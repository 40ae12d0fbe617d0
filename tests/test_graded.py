"""Core grading tests with hand-frozen oracle values.

Oracle constants were computed independently from closed forms:
  sum_{k=0}^{64} e^{-2k}  = 1.1565176427496657   (geometric partial sum)
  1 / (1 - e^{-1})        = 1.5819767068693265
  e^{2*3}                 = 403.4287934927351
"""

import json
import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from tamef import cli
from tamef import graded as tamef_graded
from tamef.errors import UnsupportedGradingError
from tamef.graded import (
    BLOCK_ENTRIES,
    GRADINGS,
    BanachFiber,
    ProductBatch,
    ProductSpace,
    SequenceBatch,
    SequenceSpace,
    TamenessCertificate,
    certify_grading_equivalence,
    inner_product,
    rows_per_slice,
    seminorm_l1,
    seminorm_linf,
    seminorm_table,
    validate_equivalence_certificate,
    within_upper,
)
from tamef.maps import build_map, map_seminorm_tables
from tamef.probes import make_probes, make_product_probes, spawn_seeds
from tamef.serialize import dumps_json

R1 = BanachFiber(1)
GEOMETRIC_SUM_2 = 1.1565176427496657
L1_OVER_LINF_SHIFT1 = 1.5819767068693265


def graded(space, *kinds):
    """The space under each named grading, in order."""
    return tuple(replace(space, grading_kind=kind) for kind in kinds)


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
    z = space.basis(0, scale=0.0)
    assert seminorm_l1(z, 5)[0] == 0.0
    assert seminorm_linf(z, 5)[0] == 0.0
    assert z.degree()[0] == -1


# ---------------------------------------------------------------------------
# table / scalar agreement
# ---------------------------------------------------------------------------

def test_table_matches_scalar_path_bitwise():
    space = SequenceSpace(BanachFiber(2), truncation_degree=24, n_max=6)
    probes = make_probes(space, 25, seed=5)
    for grading in graded(space, *GRADINGS):
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
        certify_grading_equivalence(
            *graded(SequenceSpace(R1, truncation_degree=8, n_max=3), "l1",
                    "linf"), zeros, r_max=1)


@pytest.mark.parametrize("other", [
    {"fiber": BanachFiber(2)},
    {"fiber": BanachFiber(1, norm_kind="supremum")},
    {"truncation_degree": 7},
    {"n_max": 2},
])
def test_equivalence_needs_two_gradings_of_one_space(other):
    """g1 and g2 may differ in grading_kind alone, and the probes must
    belong to the space they grade."""
    space = SequenceSpace(R1, truncation_degree=8, n_max=3)
    probes = make_probes(space, 20, seed=1)
    cert = TamenessCertificate(r=0, b=0, C={0: 1.0}, provenance="analytic")
    g2 = replace(space, grading_kind="linf", **other)
    for pair in ((space, g2), (g2, space)):
        with pytest.raises(ValueError, match="^gradings must grade one "
                                             "space"):
            certify_grading_equivalence(*pair, probes, r_max=1)
        with pytest.raises(ValueError, match="^gradings must grade one "
                                             "space"):
            validate_equivalence_certificate(cert, *pair, probes)
    if "n_max" not in other:
        foreign = make_probes(replace(space, **other), 20, seed=1)
        pair = graded(space, "l1", "linf")
        with pytest.raises(ValueError, match="^sequence does not belong to "
                                             "this space$"):
            certify_grading_equivalence(*pair, foreign, r_max=1)
        with pytest.raises(ValueError, match="^sequence does not belong to "
                                             "this space$"):
            validate_equivalence_certificate(cert, *pair, foreign)


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
    for grading in graded(space, *GRADINGS):
        for n in (-1, 5):
            with pytest.raises(IndexError):
                grading.seminorm(f, n)
            with pytest.raises(IndexError):
                grading.seminorm(f, [0, n])


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
    spaces = graded(space, *GRADINGS)
    for call in (lambda n: seminorm_l1(probes, n, n_max=4),
                 lambda n: seminorm_linf(probes, n, n_max=4),
                 lambda n: spaces[0].seminorm(probes, n),
                 lambda n: spaces[1].seminorm(probes, n),
                 lambda n: spaces[2].seminorm(probes, n),
                 lambda n: spaces[3].seminorm(probes, n),
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
# equivalence certification
# ---------------------------------------------------------------------------

def test_equivalence_l1_linf_certificates():
    space = SequenceSpace(R1, truncation_degree=32, n_max=6)
    probes = make_probes(space, 200, seed=42)
    out = certify_grading_equivalence(*graded(space, "l1", "linf"),
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
    l1, linf = graded(space, "l1", "linf")
    out = certify_grading_equivalence(l1, linf, probes, r_max=3)
    assert out.ok
    assert validate_equivalence_certificate(out.forward, l1, linf,
                                            probes) == []
    assert validate_equivalence_certificate(out.backward, linf, l1,
                                            probes) == []


def test_analytic_certificate_validates_on_fresh_probes():
    space = SequenceSpace(R1, truncation_degree=32, n_max=6)
    fresh = make_probes(space, 150, seed=777)
    cert = TamenessCertificate(
        r=1, b=0, C={n: L1_OVER_LINF_SHIFT1 for n in range(6)},
        provenance="analytic")
    assert validate_equivalence_certificate(
        cert, *graded(space, "l1", "linf"), fresh) == []


HELD_OUT_BELOW_SUPREMUM = pytest.mark.xfail(
    strict=True, reason="FOUND: line in CHANGES.md on held-out grading "
    "certificates: the largest ratio on 64 probes lies below the supremum, "
    "and held-out probes exceed the certified constants")


def grading_directions():
    """Every ordered pair of distinct gradings, as (num, den) params; the
    five whose certificate held-out probes break are strict xfails."""
    broken = {("l1", "linf"), ("l1", "disk"), ("disk", "linf"),
              ("decreasing", "linf"), ("decreasing", "disk")}
    for num in GRADINGS:
        for den in GRADINGS:
            if num != den:
                yield pytest.param(num, den, marks=HELD_OUT_BELOW_SUPREMUM) \
                    if (num, den) in broken else (num, den)


@pytest.mark.parametrize("num_kind, den_kind", grading_directions())
def test_grading_certificate_holds_on_held_out_probes(num_kind, den_kind):
    """Certified at the CLI defaults (K 32, nmax 6, 64 probes, r_max 2) on
    one spawn_seeds child of seed 1, the certificate of |f|_num,n <= C(n)
    |f|_den,n+r holds on 2000 probes drawn from the other child.  No shift
    bounds a grading by decreasing, whose seminorms shrink with the level,
    so those directions must stay uncertified."""
    cfg = cli.RunConfig(command="certify-gradings")
    space = cfg.space()
    num, den = graded(space, num_kind, den_kind)
    train, held = spawn_seeds(1, 2)
    outcome = certify_grading_equivalence(
        num, den, make_probes(space, cfg.probes, train), cfg.r_max)
    if den_kind == "decreasing":
        assert outcome.forward is None
        return
    assert outcome.forward is not None, outcome.failure
    assert validate_equivalence_certificate(
        outcome.forward, num, den, make_probes(space, 2000, held)) == []


def test_certificate_violations_match_scalar_recheck():
    space = SequenceSpace(BanachFiber(2), truncation_degree=16, n_max=5)
    probes = make_probes(space, 60, seed=17)
    # constants below the true ones, so a share of the probes violates
    cert = TamenessCertificate(r=1, b=0, C={n: 0.9 for n in range(5)},
                               provenance="analytic")
    g_num, g_den = graded(space, "l1", "linf")
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
    space = SequenceSpace(R1, truncation_degree=32, n_max=6)
    probes = make_probes(space, 100, seed=13)
    out = certify_grading_equivalence(*graded(space, "decreasing", "l1"),
                                      probes, r_max=3)
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
    assert cert.C[1] == 3.0


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def _round_trips_exactly(f):
    """The JSON text written of to_json gives f's coefficients back bit for
    bit, a complex one from its [real, imaginary] pairs; -0.0 keeps its
    sign."""
    obj = json.loads(dumps_json(f.to_json()))
    assert obj["fiber"] == {"dim": f.fiber.dimension,
                            "field": f.fiber.scalar_field,
                            "norm": f.fiber.norm_kind}
    block = np.array(obj["coefficients"], dtype=np.float64)
    if f.fiber.scalar_field == "complex":
        block = block.view(np.complex128)[..., 0]
    assert block.dtype == f.coefficients.dtype
    for part in (np.real, np.imag):
        assert np.array_equal(part(block), part(f.coefficients[0]))
        assert np.array_equal(np.signbit(part(block)),
                              np.signbit(part(f.coefficients[0])))


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
        assert seminorm_l1(p + -1.0 * center, 0) <= 0.5 + 1e-9


# ---------------------------------------------------------------------------
# work counts
# ---------------------------------------------------------------------------

def test_gradings_run_takes_each_fiber_norm_twice(monkeypatch, tmp_path):
    """A seeded certify-gradings run with P probes puts 2P - 10 probe rows
    through the fiber norm: once for the level-0 rescale of the P - 10
    decay probes, once for the tables and degrees of all P probes, whose
    ten monomials lead the set.  At K = 32 a slice of the default budget
    holds 2 ** 16 // 33 = 1985 rows.  The benchmark's 10 000-probe job
    draws its decay probes in chunks of 3 * (2 ** 16 // 62) = 3171 rows,
    each rescaled on its own norms, and tabulates in the fewest equal
    slices of at most 2 * 2 ** 16 entries, 3 of 3334 rows, each one
    sub-batch whose norms its degrees and both tables read: 13 fiber-norm
    calls and 6 seminorm_table calls."""
    rows, tables = [], []
    norms = BanachFiber.norms
    table = tamef_graded.seminorm_table

    def counted(fiber, block):
        rows.append(len(block))
        return norms(fiber, block)

    def counted_table(space, probes):
        tables.append(len(probes))
        return table(space, probes)

    monkeypatch.setattr(BanachFiber, "norms", counted)
    monkeypatch.setattr(tamef_graded, "seminorm_table", counted_table)
    argv = ["certify-gradings", "--g1", "l1", "--g2", "linf", "--k", "32",
            "--nmax", "6", "--probes", "10000", "--seed", "1",
            "--out", str(tmp_path / "run")]
    assert cli.run(argv) == 0
    assert sum(rows) == 2 * 10000 - 10
    assert rows == [1985, 1186] * 3 + [477] + \
        [1985, 1349] * 2 + [1985, 1347]
    assert tables == [3334] * 4 + [3332] * 2


@pytest.mark.parametrize("name, rows", [
    ("compose:derivative,shift_up", [990, 1000, 1000]),
    ("product:derivative,coeff_square", [990, 1000, 1000, 1000]),
    ("projection:1", [990, 990, 1000, 1000]),
])
def test_map_runs_take_each_fiber_norm_once_per_block(monkeypatch, tmp_path,
                                                      name, rows):
    """A seeded certify-map run of a benchmark map with 1000 probes at
    K = 32 takes one 1000-row table slice: a row holds its probe's and its
    image's coefficients, 66 or 99 entries, within 2 * 2 ** 16.  The fiber
    norm takes the 990 decay probes of each domain factor once for their
    level-0 rescale, then each image block and each probe block of the
    slice once; the degrees read the probes' cached norms, and the
    projection's image is its first factor, normed once for both tables."""
    seen = []
    norms = BanachFiber.norms

    def counted(fiber, block):
        seen.append(len(block))
        return norms(fiber, block)

    monkeypatch.setattr(BanachFiber, "norms", counted)
    argv = ["certify-map", "--map", name, "--k", "32", "--nmax", "6",
            "--probes", "1000", "--seed", "1", "--out", str(tmp_path / "run")]
    assert cli.run(argv) == 0
    assert seen == rows


@pytest.mark.parametrize("kinds", [("l1", "linf"), ("linf", "disk"),
                                   ("decreasing", "l1")])
@pytest.mark.parametrize("budget", [1, 5 * 13, None])
def test_equivalence_tables_do_not_depend_on_the_slices(monkeypatch, kinds,
                                                        budget):
    """certify_grading_equivalence and validate_equivalence_certificate
    read degrees and tables through probe_tables, slice by slice, each
    slice at most twice the budget's entries.  Under budgets that give one row a slice, five rows
    a slice (65 entries) and one slice (the default), every degree, table
    entry, certificate and violation holds the bytes of the whole
    batch's."""
    space = SequenceSpace(BanachFiber(2, "complex"), truncation_degree=12,
                          n_max=4)
    g1, g2 = graded(space, *kinds)
    probes = make_probes(space, 23, seed=4)
    whole = SequenceBatch(space.fiber, probes.coefficients)
    want = (whole.degree(), seminorm_table(g1, whole),
            seminorm_table(g2, whole))
    want_outcome = certify_grading_equivalence(g1, g2, probes, r_max=2)
    if budget is not None:
        monkeypatch.setattr(tamef_graded, "BLOCK_ENTRIES", budget)
    got = tamef_graded.probe_tables(g1, g2, SequenceBatch(
        space.fiber, probes.coefficients))
    for ours, theirs in zip(got, want):
        assert ours.dtype == theirs.dtype
        assert ours.tobytes() == theirs.tobytes()
    outcome = certify_grading_equivalence(g1, g2, probes, r_max=2)
    for ours, theirs in ((outcome.forward, want_outcome.forward),
                         (outcome.backward, want_outcome.backward)):
        assert (ours is None) == (theirs is None)
        if ours is not None:
            assert dumps_json(ours.to_json()) == dumps_json(theirs.to_json())
    assert getattr(outcome.failure, "witness", None) == \
        getattr(want_outcome.failure, "witness", None)
    cert = outcome.forward or TamenessCertificate(
        r=0, b=0, C={n: 0.5 for n in range(5)}, provenance="analytic")
    assert validate_equivalence_certificate(cert, g1, g2, probes) == \
        tamef_graded.certificate_violations(cert, want[1], want[2])


def at_bufsize(size, compute):
    """compute() with numpy's ufunc buffer at size elements."""
    old = np.setbufsize(size)
    try:
        return compute()
    finally:
        np.setbufsize(old)


def with_special_rows(batch):
    """batch with 20 rows, spread over it, holding NaN of either sign, +inf,
    -inf or -0.0 coefficients; with 20 rows a block's lanes see each kind
    at several offsets."""
    block = batch.coefficients.copy()
    specials = (np.nan, -np.nan, np.inf, -np.inf, -0.0)
    rows = np.linspace(0, len(block) - 1, 20).astype(int)
    for j, row in enumerate(rows):
        value = specials[j % len(specials)]
        if value == 0.0:
            block[row] = value
        else:
            block[row, j % block.shape[1], j % block.shape[2]] = value
    return SequenceBatch(batch.fiber, block)


@pytest.mark.parametrize("field", ["real", "complex"])
@pytest.mark.parametrize("d", [1, 3])
@pytest.mark.parametrize("count", [64, 1000, 2700, 3000])
def test_tables_do_not_depend_on_the_ufunc_buffer(field, d, count):
    """The CLI runs under cli.UFUNC_BUFSIZE, library callers under numpy's
    default 8192.  The buffer only stages operands, so every table holds
    the same bytes under both, on either side of the buffered-copy line
    (about a third of the buffer) and with non-finite and -0.0 rows."""
    space = SequenceSpace(BanachFiber(d, field), truncation_degree=8,
                          n_max=2)
    block = with_special_rows(make_probes(space, count, seed=3)).coefficients
    for kind in GRADINGS:
        g = replace(space, grading_kind=kind)
        # a new batch each time: a batch keeps the fiber norms it computed
        tables = [at_bufsize(size, lambda: seminorm_table(
            g, SequenceBatch(space.fiber, block)))
            for size in (8192, cli.UFUNC_BUFSIZE)]
        assert tables[0].tobytes() == tables[1].tobytes(), kind


@pytest.mark.parametrize("name", ["product:derivative,coeff_square",
                                  "projection:1"])
def test_map_tables_do_not_depend_on_the_ufunc_buffer(name):
    """map_seminorm_tables at the maps benchmark's 1000 probes holds the
    same bytes under numpy's default buffer and cli.UFUNC_BUFSIZE."""
    space = SequenceSpace(BanachFiber(1), truncation_degree=32, n_max=6)
    desc = build_map(name, space)

    def compute():
        if isinstance(desc.domain, ProductSpace):
            probes = make_product_probes(desc.domain.factors, 1000, seed=3)
        else:
            probes = with_special_rows(make_probes(space, 1000, seed=3))
        return map_seminorm_tables(desc, probes)

    tables = [at_bufsize(size, compute) for size in (8192, cli.UFUNC_BUFSIZE)]
    for ours, theirs in zip(*tables):
        assert ours.tobytes() == theirs.tobytes()


# ---------------------------------------------------------------------------
# what the entry budget bounds
# ---------------------------------------------------------------------------

def traced_peak(run):
    """(result, peak bytes traced while run() ran)."""
    tracemalloc.start()
    try:
        result = run()
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


#: budgets of BLOCK_ENTRIES * itemsize bytes each pass may hold beyond its
#: outputs; the real-fiber peaks measured 4.8, 2.3, 5.0, 2.8 and 3.6, 3.2
#: and 1.9 (the three maps) budgets, the complex ones 2.3, 1.4, 2.3, 1.6
#: and 3.1, 2.4 and 1.1
PASS_BUDGETS = {"probes": 6, "norms": 3, "disk": 6, "gradings": 4, "maps": 6}


@pytest.mark.parametrize("field", ["real", "complex"])
def test_probe_block_passes_hold_a_few_budgets_beyond_their_outputs(field):
    """With P = 4000 probes of 65 coefficients in a 4-dimensional fiber, a
    slice takes 252 rows, so the block is about 16 budgets of
    BLOCK_ENTRIES * itemsize bytes.  Each pass over it holds a few budgets
    beyond its outputs: without the slices, one more block-sized
    temporary would exceed its bound.
    - make_probes' one output is the block: its draw buffer, the factor
      rows and each chunk's level-0 norms are a budget or two each.
    - coefficient_norms' output is the (K+1, P) norms.
    - The disk table's transforms hold S = 256 boundary values per fiber
      coordinate, so its slices take 64 rows.
    - certify_grading_equivalence's outputs are its two (n_max+1, P)
      tables and the P degrees; a slice of 2 budgets holds its own norms.
    - The map tables of the maps the benchmark certifies."""
    space = SequenceSpace(BanachFiber(4, field), truncation_degree=64,
                          n_max=2)
    count = 4000
    budget = BLOCK_ENTRIES * np.dtype(space.fiber.dtype).itemsize
    assert count > 15 * rows_per_slice(space.flat_dimension)
    beyond = {}
    make_probes(space, 30, seed=1)  # imports what a first draw imports
    probes, peak = traced_peak(lambda: make_probes(space, count, seed=1))
    block = probes.coefficients.nbytes
    assert block > 15 * budget
    beyond["probes"] = (peak - block) / budget
    fresh = SequenceBatch(space.fiber, probes.coefficients)
    norms, peak = traced_peak(fresh.coefficient_norms)
    beyond["norms"] = (peak - norms.nbytes) / budget
    disk = replace(space, grading_kind="disk")
    table, peak = traced_peak(lambda: seminorm_table(disk, probes))
    beyond["disk"] = (peak - table.nbytes) / budget
    g1, g2 = graded(space, "l1", "linf")
    outcome, peak = traced_peak(
        lambda: certify_grading_equivalence(g1, g2, probes, r_max=1))
    assert outcome.ok
    tables_and_degrees = (2 * (space.n_max + 1) + 1) * count * 8
    beyond["gradings"] = (peak - tables_and_degrees) / budget
    for name in ("compose:derivative,shift_up",
                 "product:derivative,coeff_square", "projection:1"):
        desc = build_map(name, space)
        batch = make_product_probes(desc.domain.factors, count, seed=2) \
            if isinstance(desc.domain, ProductSpace) \
            else SequenceBatch(space.fiber, probes.coefficients)
        tables, peak = traced_peak(lambda: map_seminorm_tables(desc, batch))
        beyond[name] = (peak - sum(t.nbytes for t in tables)) / budget
    for name, budgets in beyond.items():
        assert budgets < PASS_BUDGETS.get(name, PASS_BUDGETS["maps"]), name
