"""Batch evaluation of maps against evaluation one element at a time.

The references below are the per-element evaluators that tamef ran before
its maps took batches, frozen here with each element held as a one-row
batch: the registry maps, descriptor validation, the map tables, the atlas
transition, the chart restriction and the normalization onto the unit
sphere.  Every row of a batch evaluation
must hold exactly the floats its element gives alone, every failing batch
must raise what its first failing row raises alone, and every check built on
the images must report what the per-element check reported.
"""

import math
from functools import lru_cache
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tamef.errors import (NonConvergenceError, NotIntoSubmanifoldError,
                          SingularBlockError)
from tamef.graded import (BanachFiber, ProductBatch, ProductSpace,
                          SequenceBatch, SequenceSpace, as_batch,
                          inner_product)
from tamef.implicit import CHART_LANES, build_chart, unflatten
from tamef.manifold import (DEFAULT_IMAGE_RESIDUAL_TOL,
                            IntoSubmanifoldReport, _sample_overlap,
                            _transition_descriptor,
                            certify_map_into_submanifold, chart_restriction,
                            make_sphere, make_sphere_intersection,
                            normalization_descriptor)
from tamef import graded
from tamef.maps import (LINEARITY_TOL, TameMapDescriptor, build_map,
                        certify_tame, map_seminorm_tables,
                        validate_descriptor)
from tamef.probes import make_probes, make_product_probes

PROPERTY = settings(derandomize=True, deadline=None, database=None,
                    max_examples=60)


def identical(a, b):
    """Same shape, dtype and bytes (NaN payloads and signed zeros too)."""
    a, b = np.asarray(a), np.asarray(b)
    return (a.shape == b.shape and a.dtype == b.dtype
            and np.array_equal(a, b, equal_nan=True)
            and a.tobytes() == b.tobytes())


# ---------------------------------------------------------------------------
# the frozen per-element registry
# ---------------------------------------------------------------------------

def reference_shift_up(f):
    block = np.zeros_like(f.coefficients)
    block[:, 1:] = f.coefficients[:, :-1]
    return SequenceBatch(f.fiber, block)


def reference_shift_down(f):
    block = np.zeros_like(f.coefficients)
    block[:, :-1] = f.coefficients[:, 1:]
    return SequenceBatch(f.fiber, block)


def reference_derivative(space):
    K = space.truncation_degree
    factors = np.arange(1.0, K + 1.0).reshape(-1, 1)

    def run(f):
        block = np.zeros_like(f.coefficients)
        block[:, :-1] = factors * f.coefficients[:, 1:]
        return SequenceBatch(f.fiber, block)
    return run


def reference_coeff_square(f):
    return SequenceBatch(f.fiber, f.coefficients * f.coefficients)


def reference_map(name, space):
    """(domain, codomain, per-element evaluator, linear) of a registry
    name, as build_map made them."""
    head, _, rest = name.partition(":")
    if head == "identity":
        return space, space, lambda f: f, True
    if head == "shift_up":
        return space, space, reference_shift_up, True
    if head == "shift_down":
        return space, space, reference_shift_down, True
    if head == "derivative":
        return space, space, reference_derivative(space), True
    if head == "scale":
        c = float(rest)
        return space, space, lambda f: f * c, True
    if head == "coeff_square":
        return space, space, reference_coeff_square, False
    if head == "projection":
        index = int(rest)
        return (ProductSpace((space, space)), space,
                lambda t: t.parts[index - 1], True)
    first, second = rest.split(",")
    _, cod_a, run_a, lin_a = reference_map(first, space)
    _, cod_b, run_b, lin_b = reference_map(second, space)
    if head == "product":
        return (space, ProductSpace((cod_a, cod_b)),
                lambda f: ProductBatch((run_a(f), run_b(f))),
                lin_a and lin_b)
    return space, cod_a, lambda f: run_a(run_b(f)), lin_a and lin_b


def reference_images(run, codomain, probes):
    """The per-element images stacked into one block per factor."""
    return image_blocks(as_batch([run(f) for f in probes]))


def image_blocks(batch):
    parts = batch.parts if isinstance(batch, ProductBatch) else (batch,)
    return [p.coefficients for p in parts]


def as_image_batch(codomain, blocks):
    spaces = codomain.factors if isinstance(codomain, ProductSpace) \
        else (codomain,)
    parts = [SequenceBatch(s.fiber, b) for s, b in zip(spaces, blocks)]
    return ProductBatch(parts) if isinstance(codomain, ProductSpace) \
        else parts[0]


def level_by_level(space, batch):
    """The seminorm table stacked from one-level calls."""
    return np.array([space.seminorm(batch, n) for n in range(space.n_max + 1)])


def reference_validate(domain, codomain, run, linear, probes):
    """validate_descriptor as it ran one probe at a time."""
    defects = []
    outputs = []
    for i, f in enumerate(probes):
        try:
            domain.check_member(f)
        except ValueError as exc:
            defects.append(f"probe {i} outside domain: {exc}")
            return defects
        outputs.append(run(f))
    if linear:
        n = codomain.n_max
        for i in range(min(len(probes) - 1, 8)):
            f, g = probes[i], probes[i + 1]
            left = run(f + g)
            right = outputs[i] + outputs[i + 1]
            gap = codomain.seminorm(left + right * -1.0, n)[0]
            scale = 1.0 + codomain.seminorm(right, n)[0]
            if gap > LINEARITY_TOL * scale:
                defects.append(
                    f"additivity defect {gap:.3g} at probe pair ({i},{i + 1})")
            left2 = run(f * 2.0)
            gap2 = codomain.seminorm(left2 + outputs[i] * 2.0 * -1.0, n)[0]
            if gap2 > LINEARITY_TOL * (
                    1.0 + 2.0 * codomain.seminorm(outputs[i], n)[0]):
                defects.append(f"homogeneity defect {gap2:.3g} at probe {i}")
    return defects


# ---------------------------------------------------------------------------
# registry maps on batches
# ---------------------------------------------------------------------------

BASE_MAPS = ("identity", "shift_up", "shift_down", "derivative", "scale:-2.5",
             "scale:0", "scale:inf", "scale:1e300", "coeff_square")

map_names = st.one_of(
    st.sampled_from(BASE_MAPS + ("projection:1", "projection:2")),
    st.builds(lambda head, a, b: f"{head}:{a},{b}",
              st.sampled_from(("product", "compose")),
              st.sampled_from(BASE_MAPS), st.sampled_from(BASE_MAPS)))

spaces = st.builds(
    lambda field, dim, norm, K, n_max, grading: SequenceSpace(
        BanachFiber(dim, field, norm), truncation_degree=K, n_max=n_max,
        grading_kind=grading),
    st.sampled_from(("real", "complex")), st.integers(1, 2),
    st.sampled_from(("euclidean", "supremum", "sum")), st.integers(0, 5),
    st.integers(0, 3), st.sampled_from(("l1", "linf")))


@st.composite
def slicings(draw):
    """(rows per slice, probe count): the budget gives a pass over the
    probes this many rows per slice, and the count is one probe, a few, or
    a count on either side of one to four slices."""
    rows = draw(st.integers(1, 6))
    count = draw(st.one_of(
        st.integers(1, 12),
        st.builds(lambda slices, offset: max(1, slices * rows + offset),
                  st.integers(1, 4), st.integers(-1, 1))))
    return rows, count


SPACE = SequenceSpace(BanachFiber(1), truncation_degree=4, n_max=2)
#: rows per slice of the map tables of a SPACE map with a product on one
#: side at the default budget, which an example asks for with rows None:
#: 2 * BLOCK_ENTRIES entries, a row counting a probe's and its image's
DEFAULT_PAIR_ROWS = 2 * graded.BLOCK_ENTRIES // (3 * SPACE.flat_dimension)


def probes_for(domain, count, seed):
    if isinstance(domain, ProductSpace):
        return make_product_probes(domain.factors, count, seed)
    return make_probes(domain, count, seed)


@PROPERTY
@given(name=map_names, space=spaces, slicing=slicings(),
       seed=st.integers(0, 2 ** 32))
@example(name="compose:derivative,shift_up", space=SPACE,
         slicing=(None, 1), seed=3)
@example(name="product:coeff_square,scale:inf", space=SPACE,
         slicing=(None, DEFAULT_PAIR_ROWS + 1), seed=3)
@example(name="projection:2", space=SPACE,
         slicing=(None, DEFAULT_PAIR_ROWS + 1), seed=3)
def test_registry_batches_equal_elements(name, space, slicing, seed):
    """In the fewest slices of at most `rows` rows, drawn or at the default
    budget, the tables hold the floats of the per-element images and the
    degrees those of the elements.  The examples at the default budget
    past one probe take two slices."""
    desc = build_map(name, space)
    domain, codomain, run, linear = reference_map(name, space)
    assert (desc.domain, desc.codomain, desc.is_linear) == \
        (domain, codomain, linear)
    rows, count = slicing
    entries = domain.flat_dimension + codomain.flat_dimension
    budget = graded.BLOCK_ENTRIES if rows is None \
        else -(-rows * entries // 2)
    with np.errstate(all="ignore"), \
            mock.patch.object(graded, "BLOCK_ENTRIES", budget):
        most = max(1, 2 * graded.BLOCK_ENTRIES // entries)
        assert rows is None or most == rows
        probes = probes_for(domain, count, seed)
        want = reference_images(run, codomain, probes)
        got = image_blocks(desc(probes))
        assert len(got) == len(want)
        assert all(identical(g, w) for g, w in zip(got, want))
        with mock.patch.object(graded, "seminorm_table",
                               wraps=graded.seminorm_table) as tables:
            degrees, num, den = map_seminorm_tables(desc, probes)
        slices = tables.call_count // 2
        assert slices == -(-count // most)
        assert rows is not None or count == 1 or slices >= 2
        assert identical(num, level_by_level(
            codomain, as_image_batch(codomain, want)))
        assert identical(den, level_by_level(domain, probes))
        assert identical(degrees, np.array(
            [f.degree()[0] for f in probes], dtype=np.intp))
        assert validate_descriptor(desc, probes) == \
            reference_validate(domain, codomain, run, linear, probes)


def test_mislabeled_linearity_reports_like_elements():
    """The defects and their messages of a nonlinear map labelled linear."""
    probes = make_probes(SPACE, 12, seed=5)
    lying = TameMapDescriptor("sq", SPACE, SPACE,
                              build_map("coeff_square", SPACE).evaluator)
    defects = validate_descriptor(lying, probes)
    assert defects and defects == reference_validate(
        SPACE, SPACE, reference_coeff_square, True, probes)


def test_descriptor_rejects_images_outside_the_codomain():
    probes = make_probes(SPACE, 3, seed=5)
    short = TameMapDescriptor("short", SPACE, SPACE, lambda t: t[:2])
    with pytest.raises(ValueError, match="of 3 rows"):
        short(probes)
    block = TameMapDescriptor("block", SPACE, SPACE, lambda t: t.coefficients)
    with pytest.raises(ValueError, match="SequenceBatch"):
        block(probes)
    other = SequenceSpace(BanachFiber(1), truncation_degree=3, n_max=2)
    wrong = TameMapDescriptor("wrong", SPACE, other, lambda t: t)
    with pytest.raises(ValueError, match="does not belong"):
        wrong(probes)
    # a sequence batch of any length is no product element
    projection = build_map("projection:1", SPACE)
    for count in (1, 2):
        assert validate_descriptor(projection, probes[:count]) == [
            "probe 0 outside domain: a SequenceBatch is not an element of "
            "a product space"]


# ---------------------------------------------------------------------------
# the frozen per-element manifold evaluators
# ---------------------------------------------------------------------------

def reference_embed(chart, x):
    flat = chart.split_data.kernel_mat @ np.asarray(x, dtype=np.float64)
    return unflatten(chart.constraint.space, flat[None])


def reference_transition(chart_a, chart_b):
    def evaluator(h):
        x = chart_a.split_data.coords_of(h)[0][0]
        q = chart_a.inverse(x)
        return reference_embed(chart_b, chart_b.offsets(q)[0])
    return evaluator


def reference_inner_product(f, g, level):
    w = [math.exp(2 * int(level) * k) for k in range(f.truncation_degree + 1)]
    dots = np.sum(f.coefficients[0] * g.coefficients[0], axis=1)
    total = 0.0
    for k in range(f.truncation_degree + 1):
        total = total + w[k] * float(dots[k])
    return total


def reference_normalize(f):
    norm_sq = reference_inner_product(f, f, 0)
    if norm_sq <= 0.0:
        raise ValueError("cannot normalize the zero sequence")
    return f * (1.0 / math.sqrt(norm_sq))


def reference_restriction(run, chart):
    return lambda h: reference_embed(chart, chart.offsets(run(h))[0])


def looped(run):
    """A batch evaluator that evaluates one row at a time."""
    return lambda t: as_batch([run(f) for f in t])


def reference_into(name, space, run, manifold, probes, r_max=2):
    """certify_map_into_submanifold as it ran one probe at a time."""
    desc = TameMapDescriptor(name, space, space, looped(run),
                             linearity="nonlinear", region_radius=1.5)
    images = [run(f) for f in probes]
    residuals = [manifold.residual(g)[0] for g in images]
    worst = max(residuals)
    if worst > DEFAULT_IMAGE_RESIDUAL_TOL:
        raise NotIntoSubmanifoldError(
            f"{desc.name}: image leaves the zero set "
            f"(max residual {worst:.3g} > {DEFAULT_IMAGE_RESIDUAL_TOL:.3g})",
            residual=worst)
    outcome = certify_tame(desc, probes, r_max)
    coverage = []
    chart_certs = []
    for k, chart in enumerate(manifold.charts):
        hits = [f for f, g in zip(probes, images) if chart.contains(g)[0]]
        coverage.append(len(hits))
        if not hits:
            chart_certs.append(None)
            continue
        restricted = TameMapDescriptor(
            f"{name}|chart{k}", space, space,
            looped(reference_restriction(run, chart)),
            linearity="nonlinear", region_radius=1.5)
        chart_certs.append(certify_tame(restricted, hits, r_max).certificate)
    return IntoSubmanifoldReport(
        max_image_residual=worst, probe_count=len(probes),
        certificate=outcome.certificate, chart_coverage=tuple(coverage),
        chart_certificates=tuple(chart_certs))


def _space(K):
    return SequenceSpace(BanachFiber(1), truncation_degree=K, n_max=2)


@lru_cache(maxsize=None)
def atlas(kind):
    """(manifold, chart a, chart b): the two poles of sphere:0, or for the
    one-chart intersection spheres:0,1 with radii [1, 2] its chart and a
    second chart at the same point."""
    if kind == "sphere":
        manifold = make_sphere(_space(6), 0, seed=4)
        return (manifold,) + manifold.charts
    manifold = make_sphere_intersection(_space(8), (0, 1), radii=[1, 2],
                                        seed=3)
    chart = manifold.charts[0]
    other = build_chart(manifold.constraint, chart.base_point, seed=7,
                        report=chart.report)
    return manifold, chart, other


def overlap_offsets(kind, count):
    manifold, a, b = atlas(kind)
    overlap = _sample_overlap(a, b, count, seed=5)
    assert len(overlap) == count
    return a.offsets_lanes(overlap)


KINDS = ("sphere", "spheres")


@pytest.mark.parametrize("kind", KINDS)
def test_transition_batch_equals_elements(kind):
    manifold, a, b = atlas(kind)
    # more rows than one block of chart lanes
    offsets = overlap_offsets(kind, CHART_LANES + 6)
    desc, probes = _transition_descriptor(manifold, a, b, offsets)
    want = [reference_embed(a, x) for x in offsets]
    assert identical(probes.coefficients,
                     np.concatenate([f.coefficients for f in want]))
    images = desc(probes)
    run = reference_transition(a, b)
    for row, h in enumerate(probes):
        assert identical(images[row].coefficients, run(h).coefficients), row


@pytest.mark.parametrize("kind", KINDS)
def test_transition_batch_raises_what_its_failing_row_raises(kind):
    manifold, a, b = atlas(kind)
    offsets = overlap_offsets(kind, 6)
    # rows 3 and 5 lie far past chart a's radius, where no point of the
    # zero set has these kernel offsets; the batch raises row 3's error
    for row, factor in ((3, 4.0), (5, 9.0)):
        offsets[row] = offsets[row] * (factor * a.validity_radius
                                       / np.linalg.norm(offsets[row]))
    desc, probes = _transition_descriptor(manifold, a, b, offsets)
    run = reference_transition(a, b)
    for row in range(3):
        run(probes[row])
    alone = []
    for row in (3, 5):
        with pytest.raises((NonConvergenceError, SingularBlockError)) as err:
            run(probes[row])
        alone.append(err.value)
    assert str(alone[0]) != str(alone[1])
    with pytest.raises(type(alone[0])) as batched:
        desc(probes)
    assert str(batched.value) == str(alone[0])
    assert getattr(batched.value, "history", None) == \
        getattr(alone[0], "history", None)


@pytest.mark.parametrize("kind", KINDS)
def test_restriction_and_normalization_batches_equal_elements(kind):
    manifold, _, _ = atlas(kind)
    space = manifold.ambient
    probes = make_probes(space, 40, seed=77, region_radius=0.3,
                         center=space.basis(0))
    normalize = normalization_descriptor(space, region_radius=1.5)
    images = normalize(probes)
    for row, f in enumerate(probes):
        assert identical(images[row].coefficients,
                         reference_normalize(f).coefficients), row
    for k, chart in enumerate(manifold.charts):
        restricted = chart_restriction(normalize, manifold, k)
        run = reference_restriction(reference_normalize, chart)
        images = restricted(probes)
        for row, f in enumerate(probes):
            assert identical(images[row].coefficients,
                             run(f).coefficients), (k, row)
    with_zero = SequenceBatch(space.fiber, np.concatenate(
        (probes.coefficients[:2], np.zeros_like(probes.coefficients[:1]))))
    with pytest.raises(ValueError, match="cannot normalize the zero"):
        reference_normalize(with_zero[2])
    with pytest.raises(ValueError, match="cannot normalize the zero"):
        normalize(with_zero)


def test_into_sphere_report_equals_elements():
    manifold, _, _ = atlas("sphere")
    space = manifold.ambient
    probes = as_batch([
        make_probes(space, 30, seed=41, region_radius=0.3,
                    center=space.basis(0)),
        make_probes(space, 30, seed=42, region_radius=0.3,
                    center=space.basis(0, scale=-1.0))])
    desc = normalization_descriptor(space, region_radius=1.5)
    report = certify_map_into_submanifold(desc, manifold, probes)
    assert report == reference_into("normalize0", space, reference_normalize,
                                    manifold, probes)
    assert report.certificate is not None
    assert all(report.chart_coverage)


def test_into_intersection_report_equals_elements():
    manifold, _, _ = atlas("spheres")
    space = manifold.ambient
    probes = make_probes(space, 20, seed=31)
    point = manifold.charts[0].base_point
    constant = TameMapDescriptor(
        "const", space, space,
        lambda t: SequenceBatch(point.fiber, np.repeat(
            point.coefficients, len(t), axis=0)),
        linearity="nonlinear", region_radius=1.5)
    report = certify_map_into_submanifold(constant, manifold, probes)
    assert report == reference_into("const", space, lambda f: point,
                                    manifold, probes)
    assert report.chart_coverage == (len(probes),)
    # normalizing onto the level-0 unit sphere leaves this zero set
    normalize = normalization_descriptor(space, region_radius=1.5)
    with pytest.raises(NotIntoSubmanifoldError) as alone:
        reference_into("normalize0", space, reference_normalize, manifold,
                       probes)
    with pytest.raises(NotIntoSubmanifoldError) as batched:
        certify_map_into_submanifold(normalize, manifold, probes)
    assert str(batched.value) == str(alone.value)
    assert batched.value.residual == alone.value.residual


@pytest.mark.parametrize("dim", [1, 3])
def test_batch_inner_products_equal_pairs(dim):
    space = SequenceSpace(BanachFiber(dim), truncation_degree=6, n_max=2)
    f = make_probes(space, 25, seed=8)
    g = make_probes(space, 25, seed=9)
    for level in range(3):
        values = inner_product(f, g, level)
        for row in range(len(f)):
            assert identical(values[row], np.float64(reference_inner_product(
                f[row], g[row], level))), (level, row)
