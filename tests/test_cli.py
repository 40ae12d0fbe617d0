"""Exit-code contract, output files, and byte-level determinism of the CLI."""

import dataclasses
import filecmp
import gc
import json
import math
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest

import tamef
from tamef import cli
from tamef.graded import GRADINGS, BanachFiber, RatioWitness, SequenceSpace
from tamef.implicit import build_constraint
from tamef.manifold import TransitionReport
from tamef.maps import CertificationOutcome

E = math.e


def run_cli(args):
    return cli.run(list(args))


def load_json(path):
    with open(path, "r", encoding="utf-8") as handle:
        return json.load(handle)


def csv_lines(path):
    with open(path, "rb") as handle:
        raw = handle.read()
    assert b"\r" not in raw
    return raw.decode("utf-8").splitlines()


# ---------------------------------------------------------------------------
# certify-gradings
# ---------------------------------------------------------------------------

def test_certify_map_of_a_huge_scale_is_certified(tmp_path):
    """scale:1e200 has finite seminorm tables (at most about 1e200 e^24),
    so it is certified with C(n) = 1e200, though 1e200 squared overflows."""
    out = tmp_path / "run"
    assert run_cli(["certify-map", "--map", "scale:1e200", "--k", "8",
                    "--nmax", "3", "--probes", "16", "--out", str(out)]) == 0
    cert = load_json(out / "map_certificate.json")["certificate"]
    assert cert["r"] == 0
    for value in cert["C"].values():
        assert value == pytest.approx(1e200, rel=1e-14)


def test_certify_gradings_l1_linf(tmp_path):
    out = str(tmp_path / "run")
    code = run_cli(["certify-gradings", "--g1", "l1", "--g2", "linf",
                    "--k", "16", "--nmax", "4", "--probes", "200",
                    "--seed", "7", "--out", out])
    assert code == 0
    forward = load_json(os.path.join(out, "grading_forward.json"))
    backward = load_json(os.path.join(out, "grading_backward.json"))
    assert not os.path.exists(os.path.join(out, "witness.json"))
    assert forward["meta"]["generator"] == "philox4x32"
    assert forward["certificate"]["r"] == 1
    bound = 1.0 / (1.0 - math.exp(-1.0))
    for value in forward["certificate"]["C"].values():
        assert value <= bound + 1e-9
    assert backward["certificate"]["r"] == 0
    for value in backward["certificate"]["C"].values():
        assert value <= 1.0 + 1e-9


def test_certify_gradings_csv_shape(tmp_path):
    out = str(tmp_path / "run")
    assert run_cli(["certify-gradings", "--k", "12", "--nmax", "3",
                    "--probes", "60", "--seed", "5", "--out", out]) == 0
    lines = csv_lines(os.path.join(out, "grading_tables.csv"))
    assert lines[0] == "# generator=philox4x32 seed=5"
    assert lines[1] == "direction,n,C,max_ratio"
    # forward holds levels 0..nmax-1 (shift 1), backward all of 0..nmax
    assert len(lines) == 2 + 3 + 4


def test_certify_gradings_decreasing_fails(tmp_path):
    out = str(tmp_path / "run")
    code = run_cli(["certify-gradings", "--g1", "l1", "--g2", "decreasing",
                    "--k", "16", "--nmax", "4", "--probes", "120",
                    "--seed", "11", "--r-max", "2", "--out", out])
    assert code == 2
    witness = load_json(os.path.join(out, "witness.json"))
    assert witness["direction"] in ("g1<=g2", "g2<=g1")
    assert witness["ratio"] > 0.0
    assert "probe" in witness and "coefficients" in witness["probe"]


def test_certify_gradings_unknown_grading(tmp_path):
    code = run_cli(["certify-gradings", "--g1", "l1", "--g2", "l7",
                    "--out", str(tmp_path / "run")])
    assert code == 64


# ---------------------------------------------------------------------------
# certify-map
# ---------------------------------------------------------------------------

def test_certify_map_identity(tmp_path):
    out = str(tmp_path / "run")
    code = run_cli(["certify-map", "--map", "identity", "--k", "12",
                    "--nmax", "3", "--probes", "50", "--seed", "2",
                    "--out", out])
    assert code == 0
    cert = load_json(os.path.join(out, "map_certificate.json"))
    assert cert["map"] == "identity"
    assert cert["certificate"]["r"] == 0
    for value in cert["certificate"]["C"].values():
        assert value == pytest.approx(1.0, abs=1e-12)


def test_certify_map_shift_up_table(tmp_path):
    out = str(tmp_path / "run")
    assert run_cli(["certify-map", "--map", "shift_up", "--k", "12",
                    "--nmax", "3", "--probes", "50", "--seed", "2",
                    "--out", out]) == 0
    lines = csv_lines(os.path.join(out, "map_table.csv"))
    assert lines[1] == "n,C,max_ratio"
    data = [line.split(",") for line in lines[2:]]
    assert len(data) == 4
    for row in data:
        n, c_value = int(row[0]), float(row[1])
        assert 0.0 < c_value <= math.exp(n) + 1e-9


def test_certify_map_rmax_too_small(tmp_path):
    out = str(tmp_path / "run")
    code = run_cli(["certify-map", "--map", "derivative", "--r-max", "0",
                    "--k", "12", "--nmax", "3", "--probes", "50",
                    "--seed", "2", "--out", out])
    assert code == 2
    witness = load_json(os.path.join(out, "witness.json"))
    assert witness["map"] == "derivative"
    assert witness["ratio"] > 1.0


@pytest.mark.parametrize("name", ["scale:nan", "scale:inf", "scale:1e300"])
def test_certify_map_non_finite_exits_2(tmp_path, name):
    out = str(tmp_path / "run")
    code = run_cli(["certify-map", "--map", name, "--k", "32", "--nmax", "6",
                    "--probes", "40", "--seed", "3", "--out", out])
    assert code == 2
    assert not os.path.exists(os.path.join(out, "map_certificate.json"))
    witness = load_json(os.path.join(out, "witness.json"))
    assert witness["map"] == name
    assert witness["ratio"] is None
    assert witness["reason"].startswith("non-finite num seminorm")


def test_infinite_witness_ratio_written_as_null(tmp_path, monkeypatch):
    unbounded = CertificationOutcome(None, RatioWitness(
        0, 1, 3, math.inf, "ratio unbounded: zero denominator"))
    monkeypatch.setattr(cli, "certify_tame", lambda *a, **k: unbounded)
    out = str(tmp_path / "run")
    assert run_cli(["certify-map", "--map", "identity", "--k", "8",
                    "--nmax", "2", "--probes", "10", "--out", out]) == 2
    witness = load_json(os.path.join(out, "witness.json"))
    assert witness["ratio"] is None
    assert (witness["level"], witness["probe_index"]) == (1, 3)


@pytest.mark.parametrize("args", [
    ("certify-map", "--map", "identity", "--nmax", "1"),
    ("certify-gradings", "--nmax", "1"),
    ("atlas", "--nmax", "0"),
    ("certify-map", "--map", "identity", "--nmax", "4", "--r-max", "5"),
])
def test_r_max_above_nmax_is_usage_error(tmp_path, args):
    assert run_cli(list(args) + ["--out", str(tmp_path / "run")]) == 64


@pytest.mark.parametrize("bad", [{"nmax": -1}, {"fiber_dimension": 0}])
@pytest.mark.parametrize("command", cli.COMMANDS)
def test_space_ranges_are_usage_errors(tmp_path, capsys, command, bad):
    """SequenceSpace and BanachFiber own the ranges of nmax and
    fiber_dimension; every command meets their errors as exit 64."""
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"command": command, "k": 4, **bad}),
                        encoding="utf-8")
    assert run_cli([command, "--config", str(cfg_path),
                    "--out", str(tmp_path / "run")]) == 64
    err = capsys.readouterr().err
    assert err.startswith("tamef: ") and err.count("\n") == 1


def test_gradings_are_one_table(tmp_path, capsys):
    """The names validate accepts are the names a space can be graded by;
    an unknown one is refused by both."""
    assert run_cli(["certify-gradings", "--g2", "bogus",
                    "--out", str(tmp_path / "run")]) == 64
    assert capsys.readouterr().err == \
        "tamef: unknown grading 'bogus'; known: l1, linf, decreasing, disk\n"
    for name in GRADINGS:
        assert SequenceSpace(BanachFiber(1), 8, 3,
                             grading_kind=name).grading_kind == name
    with pytest.raises(ValueError, match="^unknown grading kind 'bogus'$"):
        SequenceSpace(BanachFiber(1), 8, 3, grading_kind="bogus")


@pytest.mark.parametrize("argv, config", [
    (["solve"], {"nmax": -1}),
    (["certify-map", "--map", "bogus"], None),
])
def test_usage_error_leaves_no_output_directory(tmp_path, capsys, argv,
                                                config):
    """Both errors are raised by the command itself, after the config is
    read; neither --out nor its missing parent is made."""
    if config is not None:
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(config), encoding="utf-8")
        argv = argv + ["--config", str(cfg_path)]
    out = tmp_path / "parent" / "run"
    assert run_cli(argv + ["--out", str(out)]) == 64
    assert capsys.readouterr().err.startswith("tamef: ")
    assert not (tmp_path / "parent").exists()


def test_usage_error_leaves_an_existing_output_directory_alone(tmp_path):
    out = tmp_path / "run"
    out.mkdir()
    (out / "atlas.json").write_text("kept", encoding="utf-8")
    (out / "notes.txt").write_text("mine", encoding="utf-8")
    assert run_cli(["certify-map", "--map", "bogus", "--out", str(out)]) == 64
    assert sorted(p.name for p in out.iterdir()) == ["atlas.json",
                                                     "notes.txt"]
    assert (out / "atlas.json").read_text(encoding="utf-8") == "kept"
    assert (out / "notes.txt").read_text(encoding="utf-8") == "mine"


@pytest.mark.parametrize("out", ["afile", "afile/sub", "afile/sub/deeper",
                                 "afile/..", "dangling", "dangling/sub", ""])
def test_out_that_cannot_be_a_directory_is_a_usage_error(
        tmp_path, capsys, monkeypatch, out):
    """A --out that names a plain file or a dangling link, a path under
    one, or nothing exits 64 with one line before the command runs, and
    writes nothing."""
    (tmp_path / "afile").write_text("kept", encoding="utf-8")
    (tmp_path / "dangling").symlink_to(tmp_path / "missing")
    monkeypatch.chdir(tmp_path)
    monkeypatch.setitem(cli._DISPATCH, "certify-map",
                        lambda cfg: pytest.fail("the command ran"))
    assert run_cli(["certify-map", "--map", "identity", "--k", "4",
                    "--nmax", "2", "--probes", "4", "--out", out]) == 64
    err = capsys.readouterr().err
    assert err.startswith("tamef: --out ") and err.count("\n") == 1
    assert sorted(p.name for p in tmp_path.iterdir()) == ["afile",
                                                          "dangling"]
    assert (tmp_path / "afile").read_text(encoding="utf-8") == "kept"


def test_r_max_is_not_checked_for_solve():
    cli.RunConfig(command="solve", nmax=1).validate()


def test_certify_map_unknown_name(tmp_path):
    assert run_cli(["certify-map", "--map", "frobulate",
                    "--out", str(tmp_path / "run")]) == 64


def test_certify_map_product_domain(tmp_path):
    out = str(tmp_path / "run")
    code = run_cli(["certify-map", "--map", "product:identity,identity",
                    "--k", "10", "--nmax", "3", "--probes", "40",
                    "--seed", "9", "--out", out])
    assert code == 0
    cert = load_json(os.path.join(out, "map_certificate.json"))
    assert cert["certificate"]["r"] == 0


# ---------------------------------------------------------------------------
# solve
# ---------------------------------------------------------------------------

def test_solve_sphere_offset(tmp_path):
    config = {"command": "solve", "constraint": "sphere:0", "k": 8,
              "nmax": 3, "x_offsets": [0.6], "y0": [0.5],
              "tol": 1e-12, "out": str(tmp_path / "ignored")}
    cfg_path = tmp_path / "solve.json"
    cfg_path.write_text(json.dumps(config), encoding="utf-8")
    out = str(tmp_path / "run")
    # --out must beat the config file value
    code = run_cli(["solve", "--config", str(cfg_path), "--out", out])
    assert code == 0
    assert not os.path.exists(os.path.join(str(tmp_path / "ignored"),
                                           "solution.json"))
    solution = load_json(os.path.join(out, "solution.json"))
    assert solution["converged"] is True
    assert solution["y"][0] == pytest.approx(0.8, abs=1e-10)
    assert solution["residual"] <= 1e-12
    lines = csv_lines(os.path.join(out, "history.csv"))
    assert lines[1] == "iter,residual"
    assert len(lines) >= 4
    residuals = [float(line.split(",")[1]) for line in lines[2:]]
    assert residuals[-1] <= 1e-12


def test_solve_singular_block_exits_3(tmp_path):
    config = {"command": "solve", "constraint": "polynomial",
              "constraint_params": {"rows": [[[1.0, [0, 0]], [-1.0, []]]]},
              "k": 6, "nmax": 2, "y0": [0.0], "out": str(tmp_path / "run")}
    cfg_path = tmp_path / "solve.json"
    cfg_path.write_text(json.dumps(config), encoding="utf-8")
    code = run_cli(["solve", "--config", str(cfg_path)])
    assert code == 3
    error = load_json(str(tmp_path / "run" / "error.json"))
    assert error["error_type"] == "SingularBlockError"
    assert os.path.exists(str(tmp_path / "run" / "history.csv"))


def test_solve_nonconvergence_exits_3(tmp_path):
    # q0^2 + 1 has no real zero: Newton must stall and report its history
    config = {"command": "solve", "constraint": "polynomial",
              "constraint_params": {"rows": [[[1.0, [0, 0]], [1.0, []]]]},
              "k": 6, "nmax": 2, "y0": [0.5], "max_iter": 12,
              "out": str(tmp_path / "run")}
    cfg_path = tmp_path / "solve.json"
    cfg_path.write_text(json.dumps(config), encoding="utf-8")
    code = run_cli(["solve", "--config", str(cfg_path)])
    assert code == 3
    error = load_json(str(tmp_path / "run" / "error.json"))
    assert error["error_type"] == "NonConvergenceError"
    lines = csv_lines(str(tmp_path / "run" / "history.csv"))
    assert len(lines) > 2
    assert all(float(line.split(",")[1]) >= 1.0 for line in lines[2:])


@pytest.mark.parametrize("config, code", [
    ({"command": "solve", "base_point": [math.nan]}, 64),
    ({"command": "solve", "y0": [math.nan]}, 64),
    ({"command": "solve", "x_offsets": [math.inf]}, 64),
    ({"command": "solve", "base_point": [[1.0], ["one"]]}, 64),
    ({"command": "atlas", "constraint": "spheres:0,1", "radii": [math.nan, 2],
      "k": 16, "nmax": 4}, 64),
    # finite, but the residual overflows: exit 3 with an empty history cell
    ({"command": "solve", "constraint": "sphere:0", "base_point": [1e300]},
     3),
    # nested lists where flat ones belong, malformed polynomial rows
    ({"command": "solve", "x_offsets": [[1, 2]]}, 64),
    ({"command": "atlas", "constraint": "spheres:0,1", "radii": [[1], [2]]},
     64),
    ({"command": "solve", "constraint": "polynomial",
      "constraint_params": {"rows": 5}}, 64),
    ({"command": "solve", "constraint": "polynomial",
      "constraint_params": {"rows": [[[1, 5]]]}}, 64),
    ({"command": "solve", "constraint": "polynomial",
      "constraint_params": {"rows": [[[1.0, [0.9]], [-0.25, []]]]}}, 64),
    # a JSON true where a number belongs, a matrix that holds no numbers
    ({"command": "certify-gradings", "fiber_dimension": True}, 64),
    ({"command": "solve", "constraint": "affine",
      "constraint_params": {"matrix": {"a": 1}, "offset": [0]}}, 64),
    # integers too large for a float
    ({"command": "solve", "tol": 10 ** 400}, 64),
    ({"command": "solve", "constraint": "polynomial",
      "constraint_params": {"rows": [[[10 ** 400, [0]]]]}}, 64),
    ({"command": "solve", "constraint": "affine",
      "constraint_params": {"matrix": [[10 ** 400]], "offset": [0]}}, 64),
    # more constraint rows than flat coordinates
    ({"command": "solve", "constraint": "affine", "k": 2,
      "constraint_params": {"matrix": [[1, 0, 0], [0, 1, 0], [0, 0, 1],
                                       [1, 1, 1]],
                            "offset": [0, 0, 0, 0]}}, 64),
    ({"command": "solve", "constraint": "polynomial", "k": 1,
      "constraint_params": {"rows": [[[1.0, [0]]], [[1.0, [1]]],
                                     [[1.0, [0, 1]]]]}}, 64),
])
def test_non_finite_config_values(tmp_path, capsys, config, code):
    config = dict({"k": 8, "nmax": 3, "out": str(tmp_path / "run")}, **config)
    cfg_path = tmp_path / "cfg.json"
    # json writes NaN and Infinity, and reads them back
    cfg_path.write_text(json.dumps(config), encoding="utf-8")
    assert run_cli([config["command"], "--config", str(cfg_path)]) == code
    assert "Traceback" not in capsys.readouterr().err
    if code == 3:
        error = load_json(str(tmp_path / "run" / "error.json"))
        assert error["error_type"] == "NonConvergenceError"
        lines = csv_lines(str(tmp_path / "run" / "history.csv"))
        assert lines[2:] == ["0,"]


@pytest.mark.parametrize("args, config", [
    (["--constraint", "linear:1,nan", "--k", "1"], {}),
    ([], {"constraint": "affine", "k": 1,
          "constraint_params": {"matrix": [[math.nan, 1]], "offset": [0]}}),
    ([], {"constraint": "polynomial", "k": 2, "constraint_params": {
        "rows": [[[math.inf, [1]], [1.0, [0, 0]], [-1.0, []]]]}}),
])
def test_solve_non_finite_jacobian_exits_3(tmp_path, capsys, args, config):
    # a NaN or infinite Jacobian at the base point fails the rank test
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(config), encoding="utf-8")
    out = tmp_path / "run"
    assert run_cli(["solve", "--config", str(cfg_path), "--out", str(out)]
                   + args) == 3
    assert "Traceback" not in capsys.readouterr().err
    error = load_json(str(out / "error.json"))
    assert error["error_type"] == "RegularityError"
    assert error["error"].endswith(
        "base point fails the rank test (singular values (nan,))")
    assert csv_lines(str(out / "history.csv"))[2:] == []


def test_solve_non_regular_base_point_exits_3(tmp_path):
    config = {"command": "solve", "constraint": "sphere:0", "k": 4,
              "nmax": 2, "base_point": [0.0], "out": str(tmp_path / "run")}
    cfg_path = tmp_path / "solve.json"
    cfg_path.write_text(json.dumps(config), encoding="utf-8")
    assert run_cli(["solve", "--config", str(cfg_path)]) == 3
    error = load_json(str(tmp_path / "run" / "error.json"))
    assert error["error_type"] == "RegularityError"
    assert error["error"] == ("sphere:0: base point fails the rank test "
                              "(singular values (0.0,))")
    assert csv_lines(str(tmp_path / "run" / "history.csv"))[1:] == \
        ["iter,residual"]


def test_solve_base_point_longer_than_truncation(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"base_point": [1.0] + [0.0] * 9}),
                        encoding="utf-8")
    assert run_cli(["solve", "--config", str(cfg_path), "--k", "8",
                    "--nmax", "2", "--out", str(tmp_path / "run")]) == 64
    assert capsys.readouterr().err == \
        "tamef: base_point longer than the truncation\n"


def test_solve_too_many_offsets(tmp_path):
    config = {"command": "solve", "constraint": "sphere:0", "k": 4,
              "nmax": 2, "x_offsets": [0.1] * 10,
              "out": str(tmp_path / "run")}
    cfg_path = tmp_path / "solve.json"
    cfg_path.write_text(json.dumps(config), encoding="utf-8")
    assert run_cli(["solve", "--config", str(cfg_path)]) == 64


# ---------------------------------------------------------------------------
# atlas
# ---------------------------------------------------------------------------

def test_atlas_sphere(tmp_path):
    out = str(tmp_path / "run")
    code = run_cli(["atlas", "--constraint", "sphere:0", "--k", "12",
                    "--nmax", "3", "--probes", "24", "--seed", "3",
                    "--out", out])
    assert code == 0
    atlas = load_json(os.path.join(out, "atlas.json"))
    assert len(atlas["charts"]) == 2
    assert atlas["codimension"] == 1
    lines = csv_lines(os.path.join(out, "transitions.csv"))
    assert lines[1].startswith("chart_i,chart_j,probes,max_error")
    data = [line.split(",") for line in lines[2:]]
    assert len(data) == 1
    assert float(data[0][3]) <= 1e-8


def test_atlas_failed_transition_exits_2(tmp_path, monkeypatch):
    # no small atlas config fails its transition check, so the report is
    # replaced: an infinite round-trip error is written as an empty cell
    failing = [TransitionReport(0, 1, 3, math.inf, None)]
    monkeypatch.setattr(cli, "verify_transitions", lambda *a, **k: failing)
    out = tmp_path / "run"
    assert run_cli(["atlas", "--constraint", "sphere:0", "--k", "6",
                    "--nmax", "2", "--probes", "4", "--r-max", "0",
                    "--out", str(out)]) == 2
    assert len(load_json(str(out / "atlas.json"))["charts"]) == 2
    assert csv_lines(str(out / "transitions.csv"))[2] == "0,1,3,,,"


def test_atlas_unit_intersection_exits_4(tmp_path):
    out = str(tmp_path / "run")
    code = run_cli(["atlas", "--constraint", "spheres:0,1", "--k", "12",
                    "--nmax", "3", "--seed", "3", "--out", out])
    assert code == 4
    evidence = load_json(os.path.join(out, "evidence.json"))
    assert evidence["constraint"] == "spheres:0,1"
    assert len(evidence["evidence"]) >= 1
    assert not os.path.exists(os.path.join(out, "atlas.json"))


def test_atlas_distinct_radii(tmp_path):
    config = {"command": "atlas", "constraint": "spheres:0,1",
              "radii": [1.0, 2.0], "k": 16, "nmax": 4, "seed": 0,
              "out": str(tmp_path / "run")}
    cfg_path = tmp_path / "atlas.json"
    cfg_path.write_text(json.dumps(config), encoding="utf-8")
    code = run_cli(["atlas", "--config", str(cfg_path)])
    assert code == 0
    atlas = load_json(str(tmp_path / "run" / "atlas.json"))
    assert atlas["codimension"] == 2
    assert len(atlas["charts"]) >= 1


def test_atlas_rejects_radii_for_one_sphere(tmp_path, capsys):
    # radii shape only spheres:<n1,...>; for sphere:<n> they would be
    # silently dropped and the unit sphere written
    config = {"command": "atlas", "constraint": "sphere:0", "radii": [2.0],
              "k": 6, "nmax": 2, "probes": 4, "out": str(tmp_path / "run")}
    cfg_path = tmp_path / "atlas.json"
    cfg_path.write_text(json.dumps(config), encoding="utf-8")
    assert run_cli(["atlas", "--config", str(cfg_path)]) == 64
    assert capsys.readouterr().err.startswith("tamef: ")
    assert not (tmp_path / "run" / "atlas.json").exists()


def test_atlas_level_above_nmax(tmp_path):
    assert run_cli(["atlas", "--constraint", "sphere:9", "--nmax", "3",
                    "--out", str(tmp_path / "run")]) == 64


#: sphere names at --k 4 --nmax 3: levels -1..4, repeats, descending
#: order, empty level lists, more levels than k, and non-integers
SPHERE_NAMES = (
    [f"sphere:{n}" for n in range(-1, 5)]
    + [f"spheres:{n}" for n in range(-1, 5)]
    + ["spheres:-1,0", "spheres:0,1", "spheres:2,3", "spheres:3,4",
       "spheres:0,1,2,3", "spheres:0,1,2,3,4", "spheres:1,1",
       "spheres:0,0,1", "spheres:1,0", "spheres:3,0", "sphere:", "spheres:",
       "spheres:,", "sphere:x", "sphere:1.5", "sphere:0,1", "spheres:0,x",
       "spheres:0.5"])


def test_solve_and_atlas_reject_the_same_sphere_names(tmp_path):
    # one grammar and one level check: the registry, solve and atlas
    # accept and reject the same names
    space = SequenceSpace(BanachFiber(1), truncation_degree=4, n_max=3)
    rejected = {"registry": set(), "solve": set(), "atlas": set()}
    for name in SPHERE_NAMES:
        try:
            build_constraint(name, space)
        except (ValueError, IndexError):
            rejected["registry"].add(name)
        for command in ("solve", "atlas"):
            code = run_cli([command, "--constraint", name, "--k", "4",
                            "--nmax", "3", "--probes", "4",
                            "--out", str(tmp_path / command)])
            assert code in (0, 2, 3, 4, 64), (command, name)
            if code == 64:
                rejected[command].add(name)
    assert rejected["solve"] == rejected["registry"]
    assert rejected["atlas"] == rejected["registry"]
    assert "spheres:-1,0" in rejected["registry"]
    assert "sphere:0" not in rejected["registry"]


def test_atlas_rejects_other_constraints(tmp_path):
    assert run_cli(["atlas", "--constraint", "linear:1,2",
                    "--out", str(tmp_path / "run")]) == 64


# ---------------------------------------------------------------------------
# usage and config handling
# ---------------------------------------------------------------------------

def test_no_command_is_usage_error():
    assert run_cli([]) == 64


def test_unknown_command_is_usage_error():
    assert run_cli(["frobnicate"]) == 64


def test_help_exits_zero():
    assert run_cli(["--help"]) == 0


def test_unknown_config_key(tmp_path):
    cfg_path = tmp_path / "bad.json"
    cfg_path.write_text(json.dumps({"bogus": 1}), encoding="utf-8")
    assert run_cli(["certify-map", "--config", str(cfg_path)]) == 64


def test_wrong_config_type(tmp_path):
    cfg_path = tmp_path / "bad.json"
    cfg_path.write_text(json.dumps({"k": "twelve"}), encoding="utf-8")
    assert run_cli(["certify-map", "--config", str(cfg_path)]) == 64


@pytest.mark.parametrize("text", [None, "{\"k\": 8,", "not json"])
def test_unreadable_config_file(tmp_path, capsys, text):
    cfg_path = tmp_path / "cfg.json"
    if text is not None:
        cfg_path.write_text(text, encoding="utf-8")
    assert run_cli(["certify-map", "--config", str(cfg_path),
                    "--out", str(tmp_path / "run")]) == 64
    err = capsys.readouterr().err
    assert err.startswith("tamef: cannot read config ")
    assert err.count("\n") == 1
    assert not (tmp_path / "run").exists()


def test_config_list_rejected(tmp_path):
    cfg_path = tmp_path / "bad.json"
    cfg_path.write_text(json.dumps([1, 2]), encoding="utf-8")
    assert run_cli(["certify-map", "--config", str(cfg_path)]) == 64


def test_bad_seed_rejected(tmp_path):
    out = str(tmp_path / "run")
    assert run_cli(["certify-map", "--seed", "-1", "--out", out]) == 64
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"seed": 2 ** 64}), encoding="utf-8")
    assert run_cli(["certify-map", "--config", str(cfg_path),
                    "--out", out]) == 64


def test_grading_budget_guard(tmp_path):
    # k * nmax beyond the overflow guard must be a usage error
    assert run_cli(["certify-gradings", "--k", "64", "--nmax", "6",
                    "--out", str(tmp_path / "run")]) == 64


@pytest.mark.parametrize("args", [
    ("certify-gradings", "--probes", str(10 ** 29)),
    ("atlas", "--constraint", "sphere:0", "--probes", str(10 ** 12)),
])
def test_probe_count_is_bounded(tmp_path, capsys, args):
    out = tmp_path / "run"
    assert run_cli(list(args) + ["--k", "8", "--nmax", "3",
                                 "--out", str(out)]) == 64
    assert capsys.readouterr().err.startswith("tamef: ")
    assert not out.exists()


def test_atlas_overlap_count_is_bounded(tmp_path, capsys, monkeypatch):
    # the default and every recorded atlas config sample 64 or fewer points
    assert cli.RunConfig().probes <= cli.MAX_OVERLAP_PROBES
    argv = ["atlas", "--constraint", "sphere:0", "--k", "4", "--nmax", "2"]
    too_many = str(cli.MAX_OVERLAP_PROBES + 1)
    assert run_cli(argv + ["--probes", too_many,
                           "--out", str(tmp_path / "over")]) == 64
    assert capsys.readouterr().err.startswith("tamef: ")
    assert not (tmp_path / "over" / "atlas.json").exists()
    # the bound itself is admitted
    monkeypatch.setattr(cli, "MAX_OVERLAP_PROBES", 8)
    assert run_cli(argv + ["--probes", "8",
                           "--out", str(tmp_path / "at")]) == 0
    assert run_cli(argv + ["--probes", "9",
                           "--out", str(tmp_path / "above")]) == 64


@pytest.mark.parametrize("command", ["solve", "atlas"])
def test_split_dimension_is_bounded(tmp_path, capsys, command):
    most = cli.MAX_SPLIT_DIMENSION
    cli.RunConfig(command=command, k=most - 1, nmax=0, r_max=0).validate()
    for k, fiber_dimension in ((most, 1), (most // 2, 2)):
        with pytest.raises(cli.ConfigError):
            cli.RunConfig(command=command, k=k, nmax=0, r_max=0,
                          fiber_dimension=fiber_dimension).validate()
    out = tmp_path / "run"
    assert run_cli([command, "--k", str(most), "--nmax", "0", "--r-max", "0",
                    "--out", str(out)]) == 64
    assert capsys.readouterr().err.startswith("tamef: ")
    assert not out.exists()


def test_split_dimension_bound_leaves_other_commands():
    most = cli.MAX_SPLIT_DIMENSION
    for command in ("certify-gradings", "certify-map"):
        cli.RunConfig(command=command, k=most, nmax=0, r_max=0).validate()


@pytest.mark.parametrize("command", ["certify-gradings", "atlas"])
def test_probe_bound_counts_coefficients(command):
    # k = 8 and fiber dimension 1: nine coefficients per probe
    most = cli.MAX_PROBE_ENTRIES // 9
    cli.RunConfig(command=command, k=8, nmax=3, probes=most).validate()
    with pytest.raises(cli.ConfigError):
        cli.RunConfig(command=command, k=8, nmax=3,
                      probes=most + 1).validate()
    with pytest.raises(cli.ConfigError):
        cli.RunConfig(command=command, k=8, nmax=3, fiber_dimension=2,
                      probes=most).validate()


def test_probe_bound_counts_every_factor_of_a_product_domain(
        monkeypatch, tmp_path, capsys):
    """certify-map draws one probe block per factor of its domain, so the
    bound counts factors * probes * (k+1) * fiber_dimension coefficients,
    and a run past it exits 64 before drawing any probe."""
    drawn = []
    draw = cli.make_product_probes

    def counted(*args, **kwargs):
        drawn.append(args)
        return draw(*args, **kwargs)

    monkeypatch.setattr(cli, "make_product_probes", counted)
    # k = 8 and fiber dimension 1: nine coefficients per probe and factor
    most = cli.MAX_PROBE_ENTRIES // 9
    out = tmp_path / "run"
    argv = ["certify-map", "--map", "projection:1", "--k", "8", "--nmax",
            "3", "--r-max", "0", "--out", str(out)]
    assert run_cli(argv + ["--probes", str(most // 2 + 1)]) == 64
    err = capsys.readouterr().err
    assert err.startswith("tamef: ") and err.count("\n") == 1
    assert "exceeds" in err and not out.exists() and drawn == []
    # the bound itself: 2 * 10 * 9 = 180 coefficients pass, 2 * 11 * 9 not
    monkeypatch.setattr(cli, "MAX_PROBE_ENTRIES", 180)
    assert run_cli(argv + ["--probes", "10"]) == 0 and len(drawn) == 1
    assert run_cli(argv + ["--probes", "11"]) == 64 and len(drawn) == 1
    argv[2] = "identity"
    assert run_cli(argv + ["--probes", "20"]) == 0


@pytest.mark.parametrize("command, config, code", [
    ("certify-map", {"map": "scale:1e300", "probes": 16}, 2),
    ("solve", {"constraint": "sphere:0", "base_point": [1e300]}, 3),
])
def test_numpy_warnings_stay_off_stderr(tmp_path, capfd, command, config,
                                        code):
    config = dict(config, k=8, nmax=3, out=str(tmp_path / "run"))
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(config), encoding="utf-8")
    # pytest collects warnings itself; record them here to see any at all
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert run_cli([command, "--config", str(cfg_path)]) == code
    assert [str(w.message) for w in caught] == []
    assert capfd.readouterr().err == ""


def test_flag_overrides_config_value(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"k": 10, "nmax": 2, "probes": 30,
                                    "seed": 4}), encoding="utf-8")
    out = str(tmp_path / "run")
    code = run_cli(["certify-map", "--config", str(cfg_path), "--map",
                    "identity", "--k", "14", "--out", out])
    assert code == 0
    cert = load_json(os.path.join(out, "map_certificate.json"))
    assert cert["meta"]["k"] == 14
    assert cert["meta"]["nmax"] == 2
    assert cert["meta"]["seed"] == 4


def test_every_flag_is_a_config_key():
    # build_config copies every parser destination but --config into the
    # config, so each must name a RunConfig field
    fields = {f.name for f in dataclasses.fields(cli.RunConfig)}
    for command in cli.COMMANDS:
        dests = set(vars(cli.build_parser().parse_args([command])))
        assert "k" in dests and dests - {"config"} <= fields, command


def test_run_restores_collector_state(tmp_path):
    argv = ["certify-map", "--map", "identity", "--k", "8", "--nmax", "2",
            "--probes", "10", "--out", str(tmp_path / "run")]
    assert gc.isenabled()
    assert run_cli(argv) == 0 and gc.isenabled()
    gc.disable()
    try:
        assert run_cli(argv) == 0 and not gc.isenabled()
        assert run_cli(["frobulate"]) == 64 and not gc.isenabled()
    finally:
        gc.enable()


class _Raised(Exception):
    pass


@pytest.mark.parametrize("x_offsets, code", [([0.5], 0), ([0.1] * 10, 64),
                                             (None, _Raised)])
def test_run_restores_numpy_state(tmp_path, monkeypatch, x_offsets, code):
    """A command runs under cli.UFUNC_BUFSIZE; after run returns or raises,
    numpy's buffer size and error state are what they were before."""
    seen = []

    def solve(cfg):
        seen.append(np.getbufsize())
        if x_offsets is None:
            raise _Raised
        return cli.cmd_solve(cfg)

    monkeypatch.setitem(cli._DISPATCH, "solve", solve)
    config = {"constraint": "sphere:0", "k": 4, "nmax": 2,
              "x_offsets": x_offsets or [], "out": str(tmp_path / "run")}
    cfg_path = tmp_path / "solve.json"
    cfg_path.write_text(json.dumps(config), encoding="utf-8")
    argv = ["solve", "--config", str(cfg_path)]
    assert cli.UFUNC_BUFSIZE != np.getbufsize()
    before = np.getbufsize(), np.geterr()
    if code is _Raised:
        with pytest.raises(_Raised):
            run_cli(argv)
    else:
        assert run_cli(argv) == code
    assert seen == [cli.UFUNC_BUFSIZE]
    assert (np.getbufsize(), np.geterr()) == before


# ---------------------------------------------------------------------------
# determinism
# ---------------------------------------------------------------------------

def _run_alone(argv):
    """Exit code and stderr of one CLI run in a fresh interpreter."""
    env = dict(os.environ,
               PYTHONPATH=os.path.dirname(os.path.dirname(tamef.__file__)))
    proc = subprocess.run([sys.executable, "-m", "tamef.cli", *argv],
                          env=env, capture_output=True, check=False)
    return proc.returncode, proc.stderr.decode("utf-8")


def test_shared_parser_runs_like_fresh_processes(tmp_path, capsys):
    """One process runs every command on one parser, with usage errors in
    between; each run gives the exit code, stderr and output bytes it gives
    alone in a fresh interpreter."""
    config = tmp_path / "solve.json"
    config.write_text(json.dumps({"constraint": "sphere:1", "k": 8,
                                  "nmax": 3, "x_offsets": [0.2]}),
                      encoding="utf-8")
    runs = [
        (["certify-map", "--map", "derivative", "--k", "8", "--nmax", "2",
          "--probes", "20", "--seed", "5"], 0),
        (["frobulate"], 64),
        (["solve", "--config", str(config)], 0),
        (["certify-gradings", "--k", "eight"], 64),
        (["atlas", "--constraint", "sphere:0", "--k", "6", "--nmax", "2",
          "--probes", "8", "--seed", "5"], 0),
        (["certify-gradings", "--g1", "l1", "--g2", "decreasing", "--k",
          "12", "--nmax", "3", "--probes", "60", "--seed", "21"], 2),
        (["certify-map", "--map", "coeff_square", "--k", "8", "--nmax",
          "2", "--probes", "20", "--seed", "5", "--r-max", "9"], 64),
    ]
    assert cli.build_parser() is cli.build_parser()
    for i, (argv, code) in enumerate(runs):
        shared = str(tmp_path / f"shared{i}")
        alone = str(tmp_path / f"alone{i}")
        assert run_cli(argv + ["--out", shared]) == code, argv
        err = capsys.readouterr().err
        assert _run_alone(argv + ["--out", alone]) == (code, err), argv
        if os.path.isdir(alone):
            _compare_dirs(shared, alone)
        else:
            assert not os.path.exists(shared)



def _compare_dirs(a, b):
    names_a = sorted(os.listdir(a))
    assert names_a == sorted(os.listdir(b))
    for name in names_a:
        assert filecmp.cmp(os.path.join(a, name), os.path.join(b, name),
                           shallow=False), name


@pytest.mark.parametrize("args", [
    ["certify-gradings", "--k", "12", "--nmax", "3", "--probes", "80",
     "--seed", "21"],
    ["certify-map", "--map", "compose:derivative,shift_up", "--k", "12",
     "--nmax", "3", "--probes", "40", "--seed", "21"],
    ["atlas", "--constraint", "sphere:1", "--k", "10", "--nmax", "3",
     "--probes", "16", "--seed", "21"],
])
def test_reruns_are_byte_identical(tmp_path, args):
    dir_a = str(tmp_path / "a")
    dir_b = str(tmp_path / "b")
    assert run_cli(args + ["--out", dir_a]) == 0
    assert run_cli(args + ["--out", dir_b]) == 0
    _compare_dirs(dir_a, dir_b)


def test_solve_rerun_byte_identical(tmp_path):
    config = {"command": "solve", "constraint": "sphere:1", "k": 8,
              "nmax": 3, "x_offsets": [0.3, -0.2], "tol": 1e-12}
    cfg_path = tmp_path / "solve.json"
    cfg_path.write_text(json.dumps(config), encoding="utf-8")
    dir_a = str(tmp_path / "a")
    dir_b = str(tmp_path / "b")
    assert run_cli(["solve", "--config", str(cfg_path),
                    "--out", dir_a]) == 0
    assert run_cli(["solve", "--config", str(cfg_path),
                    "--out", dir_b]) == 0
    _compare_dirs(dir_a, dir_b)
