"""Golden manifest: exit codes and output-file digests of a fixed CLI suite.

`golden_manifest.json` holds, for every case below, the exit code and the
SHA-256 of every file the run writes.  Reruns only show that two runs agree
with each other; this manifest shows that a refactor left every byte as it
was.  The `solve` and `atlas` bytes go through LAPACK's SVD, and the `disk`
grading's through numpy's FFT (pocketfft), so their entries skip under a
numpy version other than the recorded one.

Re-record (only for a change that alters output bytes on purpose, and say
why in CHANGES.md):

    PYTHONPATH=src python tests/test_golden.py
"""

import hashlib
import json
import os
import tempfile

import numpy as np
import pytest

from tamef import cli
from tamef.graded import GRADINGS

MANIFEST = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                        "golden_manifest.json")

SINGULAR_ROWS = [[[1.0, [0, 0]], [-1.0, []]]]
NO_ZERO_ROWS = [[[1.0, [0, 0]], [1.0, []]]]

#: name -> (argv without --out, config file contents or None)
CASES = {
    # the test_reruns_are_byte_identical and test_solve_rerun configs
    "rerun-gradings": (["certify-gradings", "--k", "12", "--nmax", "3",
                        "--probes", "80", "--seed", "21"], None),
    "rerun-map": (["certify-map", "--map", "compose:derivative,shift_up",
                   "--k", "12", "--nmax", "3", "--probes", "40",
                   "--seed", "21"], None),
    "rerun-atlas": (["atlas", "--constraint", "sphere:1", "--k", "10",
                     "--nmax", "3", "--probes", "16", "--seed", "21"], None),
    "rerun-solve": (["solve"], {"command": "solve", "constraint": "sphere:1",
                                "k": 8, "nmax": 3, "x_offsets": [0.3, -0.2],
                                "tol": 1e-12}),
    # the README examples; its atlas example is "atlas-spheres-unit" below
    "readme-gradings": (["certify-gradings", "--g1", "l1", "--g2", "linf",
                         "--k", "32", "--nmax", "6", "--probes", "1000",
                         "--seed", "1"], None),
    "readme-map": (["certify-map", "--map", "compose:derivative,shift_up"],
                   None),
    "readme-solve": (["solve"], {"command": "solve", "constraint": "sphere:0",
                                 "k": 8, "nmax": 3, "x_offsets": [0.6],
                                 "y0": [0.5], "out": "out"}),
    # the linear and affine constraints, an affine one with two rows
    "solve-linear": (["solve"], {"command": "solve",
                                 "constraint": "linear:1,2,-1", "k": 6,
                                 "nmax": 2, "x_offsets": [0.3, -0.2]}),
    "solve-affine": (["solve"], {
        "command": "solve", "constraint": "affine",
        "constraint_params": {"matrix": [[1.0, 0.0, 1.0], [0.0, 1.0, -1.0]],
                              "offset": [-1.0, 0.5]},
        "k": 2, "nmax": 2, "x_offsets": [0.25]}),
    # failure paths
    "solve-singular-block": (["solve"], {
        "command": "solve", "constraint": "polynomial",
        "constraint_params": {"rows": SINGULAR_ROWS},
        "k": 6, "nmax": 2, "y0": [0.0]}),
    "solve-nonconvergence": (["solve"], {
        "command": "solve", "constraint": "polynomial",
        "constraint_params": {"rows": NO_ZERO_ROWS},
        "k": 6, "nmax": 2, "y0": [0.5], "max_iter": 12}),
    "atlas-spheres-unit": (["atlas", "--constraint", "spheres:0,1", "--k",
                            "16", "--nmax", "4"], None),
    "atlas-spheres-radii": (["atlas", "--constraint", "spheres:0,1", "--k",
                             "16", "--nmax", "4"], {"radii": [1, 2]}),
    "gradings-decreasing": (["certify-gradings", "--g1", "l1", "--g2",
                             "decreasing", "--k", "16", "--nmax", "4",
                             "--probes", "120", "--seed", "11", "--r-max",
                             "2"], None),
    # a first grading other than l1: the probes are drawn in the l1 space
    # whatever --g1 names
    "gradings-linf-l1": (["certify-gradings", "--g1", "linf", "--g2", "l1",
                          "--k", "16", "--nmax", "4", "--probes", "120",
                          "--seed", "11"], None),
    "gradings-decreasing-linf": (["certify-gradings", "--g1", "decreasing",
                                  "--g2", "linf", "--k", "16", "--nmax", "4",
                                  "--probes", "120", "--seed", "11"], None),
    # the disk grading between linf (Cauchy's bound) and l1 (the triangle
    # inequality)
    "gradings-linf-disk": (["certify-gradings", "--g1", "linf", "--g2",
                            "disk", "--k", "16", "--nmax", "4", "--probes",
                            "120", "--seed", "11"], None),
    "gradings-disk-l1": (["certify-gradings", "--g1", "disk", "--g2", "l1",
                          "--k", "16", "--nmax", "4", "--probes", "120",
                          "--seed", "11"], None),
    "map-scale-nan": (["certify-map", "--map", "scale:nan", "--k", "32",
                       "--nmax", "6", "--probes", "40", "--seed", "3"], None),
    # a product codomain, and a product domain drawn factor by factor
    "map-product": (["certify-map", "--map", "product:derivative,shift_up",
                     "--k", "12", "--nmax", "3", "--probes", "40",
                     "--seed", "21"], None),
    # its C(n) of 0.75-0.92 lie below the exact 1 (see the FOUND: line on
    # projection certificates in CHANGES.md); extremal probe rows (ROADMAP
    # item 3(b)) re-record this case on purpose
    "map-projection": (["certify-map", "--map", "projection:2", "--k", "12",
                        "--nmax", "3", "--probes", "40", "--seed", "21"],
                       None),
    # a base point given as a list of coefficients
    "solve-base-point": (["solve"], {"command": "solve",
                                     "constraint": "sphere:0", "k": 4,
                                     "nmax": 2, "base_point": [0.6, 0.8],
                                     "x_offsets": [0.1, -0.05]}),
}

#: commands whose bytes depend on LAPACK through numpy; a case naming the
#: disk grading depends on numpy's FFT
NUMPY_BOUND = ("solve", "atlas")


def run_case(name: str, workdir: str) -> dict:
    """Run one case in workdir; return its exit code and file digests."""
    argv, config = CASES[name]
    argv = list(argv)
    if config is not None:
        path = os.path.join(workdir, "config.json")
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(config, handle)
        argv += ["--config", path]
    out = os.path.join(workdir, "out")
    code = cli.run(argv + ["--out", out])
    files = {}
    for entry in sorted(os.listdir(out)):
        with open(os.path.join(out, entry), "rb") as handle:
            files[entry] = hashlib.sha256(handle.read()).hexdigest()
    return {"exit": code, "files": files}


def load_manifest() -> dict:
    with open(MANIFEST, "r", encoding="utf-8") as handle:
        return json.load(handle)


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_outputs(tmp_path, name):
    manifest = load_manifest()
    argv = CASES[name][0]
    if (argv[0] in NUMPY_BOUND or "disk" in argv) and \
            manifest["numpy"] != np.__version__:
        pytest.skip(f"recorded under numpy {manifest['numpy']}, "
                    f"running {np.__version__}")
    assert run_case(name, str(tmp_path)) == manifest["cases"][name]


def test_every_grading_has_a_golden_case():
    named = {argv[i + 1] for argv, _ in CASES.values()
             for i, flag in enumerate(argv[:-1]) if flag in ("--g1", "--g2")}
    assert set(GRADINGS) <= named, set(GRADINGS) - named


def record():
    cases = {}
    for name in sorted(CASES):
        with tempfile.TemporaryDirectory() as workdir:
            cases[name] = run_case(name, workdir)
    with open(MANIFEST, "w", encoding="utf-8", newline="\n") as handle:
        json.dump({"numpy": np.__version__, "cases": cases}, handle,
                  indent=2, sort_keys=True)
        handle.write("\n")


if __name__ == "__main__":
    record()
