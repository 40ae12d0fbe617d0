"""Acceptance gate: every top-level requirement runs here at its stated
tolerance and time budget, one pass/fail line per criterion."""

import filecmp
import json
import math
import os
import time

import numpy as np

from tamef import (BanachFiber, ConstructionError, DiskSpec, SequenceBatch,
                   SequenceSpace, SplitConstraint, as_batch, build_constraint,
                   build_map, certify_grading_equivalence,
                   certify_map_into_submanifold, certify_tame,
                   chart_restriction, combine_product, is_regular_point,
                   l1_grading, linf_grading, make_probes,
                   make_sphere, make_sphere_intersection,
                   normalization_descriptor, round_trip_report, rng_from_seed,
                   solve_implicit, split_at, validate_certificate_on_probes,
                   validate_equivalence_certificate, verify_cauchy_bound,
                   verify_transitions)
from tamef.cli import run as cli_run
from tamef.implicit import apply_dphi, apply_vphi


def _report(name, failures):
    status = "PASS" if not failures else "FAIL"
    print(f"\nACCEPTANCE {name}: {status}")
    assert not failures, f"{name}: {failures}"


def test_grading_equivalence_certificates():
    failures = []
    started = time.perf_counter()
    space = SequenceSpace(BanachFiber(1), truncation_degree=32, n_max=6)
    probes = make_probes(space, 1000, seed=20260814)
    g1, g2 = l1_grading(6), linf_grading(6)
    outcome = certify_grading_equivalence(g1, g2, probes, 2)
    elapsed = time.perf_counter() - started
    if not outcome.ok:
        failures.append(f"equivalence rejected: {outcome.failure}")
    else:
        forward, backward = outcome.forward, outcome.backward
        if forward.r != 1:
            failures.append(f"forward shift {forward.r} != 1")
        bound = 1.0 / (1.0 - math.exp(-1.0)) + 1e-9
        if forward.max_ratio_observed > bound:
            failures.append(f"forward ratio {forward.max_ratio_observed} "
                            f"> {bound}")
        for cert, num, den, tag in ((forward, g1, g2, "forward"),
                                    (backward, g2, g1, "backward")):
            violations = validate_equivalence_certificate(cert, num, den,
                                                          probes)
            if violations:
                failures.append(f"{tag}: {len(violations)} violations")
    if elapsed >= 5.0:
        failures.append(f"took {elapsed:.2f}s >= 5s")
    _report("grading-equivalence", failures)


def test_holomorphic_round_trip_and_bounds():
    failures = []
    started = time.perf_counter()
    fiber = BanachFiber(1)
    rng = rng_from_seed(2026)
    for i in range(100):
        degree = int(rng.integers(4, 33))
        coeffs = rng.normal(size=(degree + 1, 1))
        f = SequenceBatch(fiber, coeffs[None])
        level = i % 6
        disk = DiskSpec(level, boundary_samples=4 * degree)
        trip = round_trip_report(f, disk)
        if trip.weighted_relative_error > 1e-8:
            failures.append(f"poly {i}: round trip "
                            f"{trip.weighted_relative_error:.3g}")
        for n in range(6):
            cauchy = verify_cauchy_bound(f, n, samples=4 * degree)
            if cauchy.slack < -1e-9:
                failures.append(f"poly {i} level {n}: slack "
                                f"{cauchy.slack:.3g}")
    elapsed = time.perf_counter() - started
    if elapsed >= 10.0:
        failures.append(f"took {elapsed:.2f}s >= 10s")
    _report("holomorphic-bridge", failures)


def test_product_combinator_dominates_direct():
    failures = []
    started = time.perf_counter()
    space = SequenceSpace(BanachFiber(1), truncation_degree=16, n_max=4)
    names = ("identity", "shift_up", "shift_down", "derivative",
             "scale:0.5", "scale:3.0", "coeff_square")
    rng = rng_from_seed(17)
    for trial in range(20):
        a, b = (names[int(j)] for j in rng.integers(0, len(names), size=2))
        product = build_map(f"product:{a},{b}", space)
        probes = make_probes(space, 60, seed=300 + trial)
        cert_a = certify_tame(build_map(a, space), probes, 2).certificate
        cert_b = certify_tame(build_map(b, space), probes, 2).certificate
        if cert_a is None or cert_b is None:
            failures.append(f"{a},{b}: factor certification failed")
            continue
        combined = combine_product([cert_a, cert_b])
        direct = certify_tame(product, probes, 2,
                              forced_r=combined.r).certificate
        if direct is None:
            failures.append(f"{a},{b}: direct certification failed")
            continue
        for n in direct.levels:
            if direct.C[n] > combined.C[n] + 1e-9:
                failures.append(f"{a},{b} level {n}: direct {direct.C[n]} "
                                f"> combined {combined.C[n]}")
    elapsed = time.perf_counter() - started
    if elapsed >= 30.0:
        failures.append(f"took {elapsed:.2f}s >= 30s")
    _report("product-combinator", failures)


def test_dphi_vphi_identity_across_registry():
    failures = []
    space = SequenceSpace(BanachFiber(1), truncation_degree=16, n_max=3)
    affine_params = {
        "matrix": [[1.0] + [0.0] * 16,
                   [0.0, 2.0] + [0.0] * 15],
        "offset": [0.5, -0.25],
    }
    poly_params = {"rows": [[[1.0, [0, 0]], [-1.0, [1]]],
                            [[2.0, [0, 1, 1]], [0.5, []]]]}
    specs = [("sphere:0", None), ("sphere:1", None), ("spheres:0,1", None),
             ("linear:1.0,0.5,2.0", None), ("affine", affine_params),
             ("polynomial", poly_params)]
    for idx, (name, params) in enumerate(specs):
        constraint = build_constraint(name, space, params)
        points = []
        for probe in make_probes(space, 60, seed=900 + idx):
            info = is_regular_point(constraint, probe)
            if info.rank_decision:
                points.append((probe, info))
            if len(points) == 10:
                break
        if len(points) < 10:
            failures.append(f"{name}: only {len(points)} regular points")
            continue
        rng = rng_from_seed(4000 + idx)
        for point, info in points:
            data = split_at(constraint, point, info)
            (x,), (y,) = data.coords_of(point)
            block = data.split
            for _ in range(64):
                k1 = rng.standard_normal(block.x_dim)
                k2 = rng.standard_normal(block.y_dim)
                h1, h2 = apply_vphi(block, x, y, k1, k2)
                r1, r2 = apply_dphi(block, x, y, h1, h2)
                scale = 1.0 + max(np.max(np.abs(k1), initial=0.0),
                                  np.max(np.abs(k2)))
                gap = max(np.max(np.abs(r1 - k1), initial=0.0),
                          np.max(np.abs(r2 - k2))) / scale
                if gap > 1e-9:
                    failures.append(f"{name}: identity gap {gap:.3g}")
                    break
    _report("dphi-vphi-identity", failures)


def test_newton_iterates_match_oracle():
    failures = []
    block = SplitConstraint(
        lambda X, Y: Y * Y - 1.0,
        x_dim=0, y_dim=1,
        d_y=lambda X, Y: 2.0 * Y[:, :, None],
        name="quadratic")
    result = solve_implicit(block, np.zeros(0), np.array([0.5]),
                            tol=1e-15, max_iter=12)
    oracle = (0.5, 1.25, 1.025, 1.0003048780487805)
    for i, expected in enumerate(oracle):
        got = float(result.iterates[i][0])
        if abs(got - expected) > 1e-12:
            failures.append(f"iterate {i}: {got!r} != {expected!r}")
    errors = [abs(float(it[0]) - 1.0) for it in result.iterates]
    for k in range(len(errors) - 1):
        if 0.0 < errors[k] < 0.1 and errors[k + 1] > 2.0 * errors[k] ** 2:
            failures.append(f"no quadratic decay at step {k}: "
                            f"{errors[k + 1]} > 2*{errors[k]}^2")
    if not result.converged:
        failures.append("did not converge")
    _report("newton-oracle", failures)


def _chart_round_trips(manifold, samples, seed):
    """Worst forward(inverse(x)) gap over fresh in-radius offsets."""
    rng = rng_from_seed(seed)
    worst = 0.0
    for chart in manifold.charts:
        dim = chart.split_data.split.x_dim
        for _ in range(samples):
            direction = rng.standard_normal(dim)
            direction /= np.linalg.norm(direction)
            x = direction * (0.5 * chart.validity_radius
                             * rng.uniform(0.1, 1.0))
            q = chart.inverse(x)
            x_back, values = chart.forward(q)
            gap = np.max(np.abs(x_back - x)) / (1.0 + np.max(np.abs(x)))
            worst = max(worst, gap, float(np.max(np.abs(values))),
                        manifold.residual(q)[0])
    return worst


def test_sphere_atlas_and_two_level_intersection():
    failures = []
    space = SequenceSpace(BanachFiber(1), truncation_degree=16, n_max=4)
    sphere = make_sphere(space, 0, seed=5)
    worst = _chart_round_trips(sphere, samples=25, seed=55)
    if worst > 1e-8:
        failures.append(f"sphere chart round trip {worst:.3g} > 1e-8")
    reports = verify_transitions(sphere, probes_per_pair=24, seed=6)
    if not reports:
        failures.append("no transition pairs examined")
    for rep in reports:
        if not rep.ok:
            failures.append(f"transition {rep.chart_i}->{rep.chart_j} "
                            f"failed ({rep.max_round_trip_error:.3g})")

    # unit two-level intersection: either verified codim-2 charts or a
    # documented report on every attempted seed, never a silent pass
    try:
        degenerate = make_sphere_intersection(space, (0, 1), seed=7)
    except ConstructionError as err:
        if not err.evidence:
            failures.append("construction failure carried no evidence")
        for entry in err.evidence:
            if not {"attempt", "converged", "residual"} <= set(entry):
                failures.append(f"evidence entry incomplete: {entry}")
                break
    else:
        for chart in degenerate.charts:
            if len(chart.split_data.report.singular_values) != 2:
                failures.append("unit intersection chart is not codim 2")
        if _chart_round_trips(degenerate, samples=10, seed=77) > 1e-8:
            failures.append("unit intersection round trips exceed 1e-8")

    # distinct radii must give genuine codimension-2 regular charts
    crossed = make_sphere_intersection(space, (0, 1), radii=(1.0, 2.0),
                                       seed=7)
    if crossed.codimension != 2 or not crossed.charts:
        failures.append("distinct-radii intersection built no codim-2 chart")
    for chart in crossed.charts:
        if len(chart.split_data.report.singular_values) != 2:
            failures.append("intersection chart is not codimension 2")
    worst = _chart_round_trips(crossed, samples=10, seed=78)
    if worst > 1e-8:
        failures.append(f"intersection round trip {worst:.3g} > 1e-8")
    _report("submanifold-construction", failures)


def test_normalization_into_sphere():
    failures = []
    space = SequenceSpace(BanachFiber(1), truncation_degree=16, n_max=3)
    sphere = make_sphere(space, 0, seed=9)
    desc = normalization_descriptor(space, region_radius=1.5)
    probes = as_batch([
        make_probes(space, 30, seed=41, region_radius=0.3,
                    center=space.basis(0)),
        make_probes(space, 30, seed=42, region_radius=0.3,
                    center=space.basis(0, scale=-1.0))])
    report = certify_map_into_submanifold(desc, sphere, probes, 2)
    if report.certificate is None:
        failures.append("no ambient certificate")
    if report.max_image_residual > 1e-8:
        failures.append(f"image residual {report.max_image_residual:.3g}")
    for k, chart in enumerate(sphere.charts):
        if report.chart_coverage[k] == 0:
            failures.append(f"chart {k} saw no probes")
            continue
        cert = report.chart_certificates[k]
        if cert is None:
            failures.append(f"chart {k} restriction did not certify")
            continue
        restricted = chart_restriction(desc, sphere, k)
        hits = probes[chart.contains(desc(probes))]
        violations = validate_certificate_on_probes(restricted, cert, hits)
        if violations:
            failures.append(f"chart {k}: {len(violations)} violations")
    _report("maps-into-submanifold", failures)


CLI_SUITE = (
    (("certify-gradings", "--k", "12", "--nmax", "3", "--probes", "80",
      "--seed", "21"), 0),
    (("certify-gradings", "--g1", "l1", "--g2", "decreasing", "--k", "12",
      "--nmax", "3", "--probes", "60", "--seed", "21"), 2),
    (("certify-map", "--map", "compose:derivative,shift_up", "--k", "12",
      "--nmax", "3", "--probes", "40", "--seed", "21"), 0),
    (("atlas", "--constraint", "sphere:1", "--k", "10", "--nmax", "3",
      "--probes", "16", "--seed", "21"), 0),
    (("atlas", "--constraint", "spheres:0,1", "--k", "10", "--nmax", "3",
      "--seed", "21"), 4),
)


def _run_cli_suite(root, failures):
    for i, (args, expected) in enumerate(CLI_SUITE):
        out = os.path.join(root, f"run{i}")
        code = cli_run(list(args) + ["--out", out])
        if code != expected:
            failures.append(f"{args[0]} run {i}: exit {code} != {expected}")
    config = {"command": "solve", "constraint": "sphere:0", "k": 8,
              "nmax": 3, "x_offsets": [0.6], "seed": 21,
              "out": os.path.join(root, "run-solve")}
    path = os.path.join(root, "solve.json")
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(config, handle)
    code = cli_run(["solve", "--config", path])
    if code != 0:
        failures.append(f"solve: exit {code} != 0")


def test_cli_suite_is_deterministic(tmp_path):
    failures = []
    root_a = str(tmp_path / "a")
    root_b = str(tmp_path / "b")
    _run_cli_suite(root_a, failures)
    _run_cli_suite(root_b, failures)
    for sub in sorted(os.listdir(root_a)):
        path_a = os.path.join(root_a, sub)
        if not os.path.isdir(path_a):
            continue
        path_b = os.path.join(root_b, sub)
        names = sorted(os.listdir(path_a))
        if names != sorted(os.listdir(path_b)):
            failures.append(f"{sub}: file sets differ")
            continue
        for name in names:
            if not filecmp.cmp(os.path.join(path_a, name),
                               os.path.join(path_b, name), shallow=False):
                failures.append(f"{sub}/{name}: bytes differ")
    _report("cli-determinism", failures)
