"""Command-line surface: certification, solving, and atlas construction as
seeded batch runs with machine-readable outputs.

Exit codes: 0 success, 2 certification failure (witness written), 3 solve
failure (history written), 4 construction failure (evidence written),
64 bad usage/config.  Identical configs including the seed produce
byte-identical output files; nothing time- or environment-dependent is
ever written.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
from dataclasses import dataclass, field, replace
from typing import List, Optional

import numpy as np

from .errors import (ConstructionError, NonConvergenceError, RegularityError,
                     SingularBlockError)
from .graded import (GRADINGS, BanachFiber, ProductSpace, SequenceBatch,
                     SequenceSpace, certify_grading_equivalence)
from .implicit import PointSplit, build_constraint, is_regular_point, \
    parse_constraint_name, solve_implicit
from .manifold import make_sphere, make_sphere_intersection, \
    transitions_csv_rows, verify_transitions
from .maps import build_map, certify_tame
from .probes import GENERATOR_NAME, make_probes, make_product_probes
from .serialize import finite_or_none, write_csv, write_json

EXIT_OK = 0
EXIT_CERTIFICATION_FAILED = 2
EXIT_SOLVE_FAILED = 3
EXIT_CONSTRUCTION_FAILED = 4
EXIT_USAGE = 64

COMMANDS = ("certify-gradings", "certify-map", "solve", "atlas")
#: commands that search level shifts r in 0..r_max
_LEVEL_SHIFT_COMMANDS = ("certify-gradings", "certify-map", "atlas")
#: bound on probes * (k + 1) * fiber_dimension, the coefficients of one
#: probe block; certify-map draws one block per factor of a product domain
#: and counts them all
MAX_PROBE_ENTRIES = 2 ** 24
#: bound on the overlap points atlas samples per chart pair; each costs
#: Newton solves (up to four candidates drawn per kept point, a round trip
#: each way and one transition evaluation)
MAX_OVERLAP_PROBES = 1024
#: bound on the flat dimension D = (k + 1) * fiber_dimension of the
#: commands that split at a regular point: the split takes a full (D, D)
#: SVD, and atlas.json holds D - m kernel vectors of D numbers per chart
MAX_SPLIT_DIMENSION = 1024
_SPLIT_COMMANDS = ("solve", "atlas")
#: numpy's ufunc buffer, in elements, while a command runs. numpy copies a
#: broadcast operand through this buffer when its inner dimension is below
#: about a third of it, so at the default 8192 every table of fewer than
#: about 2730 probes goes through buffered copies; 1024 moves that line to
#: about 340. Below 1024, products with short inner rows slow down again.
#: The buffer only stages operands, so no output byte depends on it.
UFUNC_BUFSIZE = 1024


class ConfigError(ValueError):
    """Bad flags, config file, or registry selection."""


@dataclass
class RunConfig:
    command: str = ""
    k: int = 32
    nmax: int = 6
    fiber_dimension: int = 1
    seed: int = 0
    probes: int = 64
    tol: float = 1e-9
    r_max: int = 2
    out: str = "tamef-out"
    g1: str = "l1"
    g2: str = "linf"
    map: str = "identity"
    constraint: str = "sphere:0"
    constraint_params: Optional[dict] = None
    base_point: Optional[list] = None
    x_offsets: List[float] = field(default_factory=list)
    y0: Optional[List[float]] = None
    max_iter: int = 50
    radii: Optional[List[float]] = None

    def validate(self):
        if self.command not in COMMANDS:
            raise ConfigError(f"unknown command {self.command!r}")
        if not 1 <= self.k <= 4096:
            raise ConfigError(f"truncation degree {self.k} out of range")
        if self.command in _SPLIT_COMMANDS and \
                (self.k + 1) * self.fiber_dimension > MAX_SPLIT_DIMENSION:
            raise ConfigError(
                f"{self.command}: (k+1) * fiber_dimension exceeds "
                f"{MAX_SPLIT_DIMENSION}")
        if not 0 <= self.seed < 2 ** 64:
            raise ConfigError("seed must be an unsigned 64-bit integer")
        if self.probes < 1:
            raise ConfigError("probe count must be >= 1")
        if self.probes * (self.k + 1) * self.fiber_dimension > \
                MAX_PROBE_ENTRIES:
            raise ConfigError(
                f"probes * (k+1) * fiber_dimension exceeds "
                f"{MAX_PROBE_ENTRIES}")
        if not (self.tol > 0.0 and math.isfinite(self.tol)):
            raise ConfigError("tolerance must be positive and finite")
        if self.r_max < 0:
            raise ConfigError("r_max must be >= 0")
        if self.command in _LEVEL_SHIFT_COMMANDS and self.r_max > self.nmax:
            raise ConfigError(
                f"r_max {self.r_max} exceeds nmax {self.nmax}; level shifts "
                f"must lie in 0..nmax")
        if self.max_iter < 1:
            raise ConfigError("max_iter must be >= 1")
        for key in ("base_point", "x_offsets", "y0", "radii"):
            _check_finite(key, getattr(self, key), flat=key != "base_point")
        if self.command == "certify-gradings":
            for name in (self.g1, self.g2):
                if name not in GRADINGS:
                    raise ConfigError(f"unknown grading {name!r}; "
                                      f"known: {', '.join(GRADINGS)}")
        _check_out(self.out)

    def space(self) -> SequenceSpace:
        try:
            return SequenceSpace(BanachFiber(self.fiber_dimension),
                                 truncation_degree=self.k, n_max=self.nmax)
        except ValueError as err:
            raise ConfigError(str(err)) from err

    def meta(self) -> dict:
        return {
            "generator": GENERATOR_NAME,
            "seed": self.seed,
            "command": self.command,
            "k": self.k,
            "nmax": self.nmax,
            "fiber_dimension": self.fiber_dimension,
            "probes": self.probes,
            "tol": self.tol,
            "r_max": self.r_max,
        }

    # a run's files go to --out, JSON under the run's meta and CSV under
    # its generator and seed, through the module-level writers; --out is
    # made at the first file, so a usage error leaves no directory behind
    def out_path(self, name: str) -> str:
        os.makedirs(self.out, exist_ok=True)
        return os.path.join(self.out, name)

    def write_json(self, name: str, body: dict):
        write_json(self.out_path(name), {"meta": self.meta(), **body})

    def write_csv(self, name: str, rows):
        write_csv(self.out_path(name), rows,
                  [f"generator={GENERATOR_NAME} seed={self.seed}"])


def _check_out(out: str):
    """--out must be a directory, or a path whose nearest existing ancestor
    is one, so that the first write can make it."""
    if not out:
        raise ConfigError("--out must not be empty")
    path = out
    while path and not os.path.lexists(path):
        path = os.path.dirname(path)
    if path and not os.path.isdir(path):
        raise ConfigError(f"--out {out!r}: {path!r} is not a directory")


def _check_finite(key: str, values: Optional[list], flat: bool):
    """JSON admits NaN and Infinity; numeric config lists must be finite.
    A flat list holds numbers only; base_point may hold one row of fiber
    coordinates per coefficient."""
    try:
        array = np.asarray([] if values is None else values, dtype=np.float64)
    except (TypeError, ValueError, OverflowError) as err:
        raise ConfigError(f"config key {key!r} must hold numbers") from err
    if flat and array.ndim != 1:
        raise ConfigError(f"config key {key!r} must be a flat list of numbers")
    if not np.all(np.isfinite(array)):
        raise ConfigError(f"config key {key!r} must hold finite numbers")


def _load_config_file(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            data = json.load(handle)
    except (OSError, json.JSONDecodeError) as err:
        raise ConfigError(f"cannot read config {path}: {err}") from err
    if not isinstance(data, dict):
        raise ConfigError("config file must hold a JSON object")
    return data


_CONFIG_KEYS = {
    "command": str, "k": int, "nmax": int, "fiber_dimension": int,
    "seed": int, "probes": int, "tol": float, "r_max": int, "out": str,
    "g1": str, "g2": str, "map": str, "constraint": str,
    "constraint_params": dict, "base_point": list, "x_offsets": list,
    "y0": list, "max_iter": int, "radii": list,
}


def build_config(args: argparse.Namespace) -> RunConfig:
    cfg = RunConfig()
    if getattr(args, "config", None):
        blob = _load_config_file(args.config)
        for key, value in blob.items():
            if key not in _CONFIG_KEYS:
                raise ConfigError(f"unknown config key {key!r}")
            want = _CONFIG_KEYS[key]
            if want is float and type(value) is int:
                try:
                    value = float(value)
                except OverflowError as err:
                    raise ConfigError(
                        f"config key {key!r} is out of range") from err
            # JSON true/false are ints to isinstance, but no key takes one
            if isinstance(value, bool) or not isinstance(value, want):
                raise ConfigError(
                    f"config key {key!r} must be {want.__name__}")
            setattr(cfg, key, value)
    # parser destinations but --config are config keys; unset flags are None
    for key, value in vars(args).items():
        if key != "config" and value is not None:
            setattr(cfg, key, value)
    cfg.validate()
    return cfg


def _sequence_from_list(space: SequenceSpace, data: list,
                        what: str) -> SequenceBatch:
    block = np.zeros((1, space.truncation_degree + 1, space.fiber.dimension))
    if len(data) > space.truncation_degree + 1:
        raise ConfigError(f"{what} longer than the truncation")
    for k, entry in enumerate(data):
        row = np.atleast_1d(np.asarray(entry, dtype=np.float64))
        if row.shape != (space.fiber.dimension,):
            raise ConfigError(f"{what}[{k}] does not match the fiber")
        block[0, k] = row
    return SequenceBatch(space.fiber, block)


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def cmd_certify_gradings(cfg: RunConfig) -> int:
    # the probes are drawn in the l1 space whatever --g1 names, so both
    # orders of one pair of gradings see one probe set
    space = cfg.space()
    probes = make_probes(space, cfg.probes, cfg.seed)
    outcome = certify_grading_equivalence(
        replace(space, grading_kind=cfg.g1),
        replace(space, grading_kind=cfg.g2), probes, cfg.r_max)
    table_rows = [("direction", "n", "C", "max_ratio")]
    for direction, cert, path in (
            ("g1<=g2", outcome.forward, "grading_forward.json"),
            ("g2<=g1", outcome.backward, "grading_backward.json")):
        if cert is None:
            continue
        cfg.write_json(path, {
            "direction": direction,
            "g1": cfg.g1,
            "g2": cfg.g2,
            "certificate": cert.to_json(),
        })
        for n, c_n, ratio in cert.csv_rows():
            table_rows.append((direction, n, c_n, ratio))
    cfg.write_csv("grading_tables.csv", table_rows)
    if outcome.ok:
        return EXIT_OK
    failure = outcome.failure
    cfg.write_json("witness.json", {
        "direction": failure.direction,
        "g1": cfg.g1,
        "g2": cfg.g2,
        **failure.witness.to_json(),
        "probe": failure.probe.to_json(),
    })
    return EXIT_CERTIFICATION_FAILED


def cmd_certify_map(cfg: RunConfig) -> int:
    space = cfg.space()
    try:
        desc = build_map(cfg.map, space)
    except (ValueError, IndexError) as err:
        raise ConfigError(f"cannot build map {cfg.map!r}: {err}") from err
    if cfg.probes * desc.domain.flat_dimension > MAX_PROBE_ENTRIES:
        raise ConfigError(
            f"map {cfg.map!r} draws one probe block per domain factor: "
            f"factors * probes * (k+1) * fiber_dimension exceeds "
            f"{MAX_PROBE_ENTRIES}")
    if isinstance(desc.domain, ProductSpace):
        probes = make_product_probes(desc.domain.factors, cfg.probes,
                                     cfg.seed)
    else:
        probes = make_probes(desc.domain, cfg.probes, cfg.seed)
    outcome = certify_tame(desc, probes, cfg.r_max)
    if outcome.ok:
        cert = outcome.certificate
        cfg.write_json("map_certificate.json", {
            "map": cfg.map,
            "certificate": cert.to_json(),
        })
        cfg.write_csv("map_table.csv",
                      [("n", "C", "max_ratio")] + list(cert.csv_rows()))
        return EXIT_OK
    cfg.write_json("witness.json", {
        "map": cfg.map,
        **outcome.witness.to_json(),
    })
    return EXIT_CERTIFICATION_FAILED


def cmd_solve(cfg: RunConfig) -> int:
    space = cfg.space()
    try:
        constraint = build_constraint(cfg.constraint, space,
                                      cfg.constraint_params)
    except (ValueError, IndexError) as err:
        raise ConfigError(
            f"cannot build constraint {cfg.constraint!r}: {err}") from err
    if cfg.base_point is None:
        base = space.basis(0)
    else:
        base = _sequence_from_list(space, cfg.base_point, "base_point")

    def write_history(residuals):
        cfg.write_csv("history.csv", [("iter", "residual")] + [
            (i, finite_or_none(r)) for i, r in enumerate(residuals)])

    try:
        split = PointSplit(constraint, is_regular_point(constraint, base))
        x, base_y = (coords[0] for coords in split.coords_of(base))
        if len(cfg.x_offsets) > x.size:
            raise ConfigError("more x_offsets than kernel coordinates")
        for i, value in enumerate(cfg.x_offsets):
            x[i] += float(value)
        y0 = np.asarray(cfg.y0, dtype=np.float64) if cfg.y0 is not None \
            else base_y
        if y0.shape != (split.y_dim,):
            raise ConfigError("y0 length must equal the codimension")
        result = solve_implicit(split, x, y0, tol=cfg.tol,
                                max_iter=cfg.max_iter)
    except (NonConvergenceError, SingularBlockError, RegularityError) as err:
        write_history(getattr(err, "history", []))
        cfg.write_json("error.json", {
            "constraint": cfg.constraint,
            "error_type": type(err).__name__,
            "error": str(err),
        })
        return EXIT_SOLVE_FAILED
    point = split.point_of(x, result.y)
    cfg.write_json("solution.json", {
        "constraint": cfg.constraint,
        "converged": result.converged,
        "iterations": result.iterations,
        "x": x,
        "y": result.y,
        "residual": result.residuals[-1],
        "point": point.to_json(),
    })
    write_history(result.residuals)
    return EXIT_OK


def cmd_atlas(cfg: RunConfig) -> int:
    if cfg.probes > MAX_OVERLAP_PROBES:
        raise ConfigError(
            f"atlas samples at most {MAX_OVERLAP_PROBES} overlap points per "
            f"chart pair, got probes {cfg.probes}")
    space = cfg.space()
    try:
        head, levels = parse_constraint_name(cfg.constraint)
    except ValueError as err:
        raise ConfigError(
            f"cannot build constraint {cfg.constraint!r}: {err}") from err
    if head not in ("sphere", "spheres"):
        raise ConfigError(
            f"atlas supports sphere:<n> and spheres:<n1,...>, "
            f"got {cfg.constraint!r}")
    if head == "sphere" and cfg.radii is not None:
        raise ConfigError(
            f"atlas takes radii only for spheres:<n1,...>, got radii for "
            f"{cfg.constraint!r}")
    try:
        if head == "sphere":
            manifold = make_sphere(space, levels[0], seed=cfg.seed)
        else:
            manifold = make_sphere_intersection(space, levels,
                                                radii=cfg.radii,
                                                seed=cfg.seed)
    except ConstructionError as err:
        cfg.write_json("evidence.json", {
            "constraint": cfg.constraint,
            "error": str(err),
            "evidence": err.evidence,
        })
        return EXIT_CONSTRUCTION_FAILED
    except (ValueError, IndexError) as err:
        raise ConfigError(str(err)) from err
    reports = verify_transitions(manifold, probes_per_pair=cfg.probes,
                                 seed=cfg.seed, r_max=cfg.r_max)
    cfg.write_json("atlas.json", manifold.to_json())
    cfg.write_csv("transitions.csv", transitions_csv_rows(reports))
    if all(r.ok for r in reports):
        return EXIT_OK
    return EXIT_CERTIFICATION_FAILED


# ---------------------------------------------------------------------------
# argument parsing and dispatch
# ---------------------------------------------------------------------------

def _add_common_flags(parser: argparse.ArgumentParser):
    parser.add_argument("--config", help="JSON config file")
    parser.add_argument("--seed", type=int, help="64-bit probe seed")
    parser.add_argument("--out", help="output directory")
    parser.add_argument("--k", type=int, help="truncation degree")
    parser.add_argument("--nmax", type=int, help="highest seminorm level")
    parser.add_argument("--tol", type=float, help="solver tolerance")
    parser.add_argument("--probes", type=int, help="probe count")
    parser.add_argument("--r-max", dest="r_max", type=int,
                        help="largest level shift to try")


@functools.lru_cache(maxsize=None)
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: parsing keeps no state
    in it, so every run can share it."""
    parser = argparse.ArgumentParser(
        prog="tamef",
        description="Certification, solving, and atlas runs over truncated "
                    "coefficient sequences.")
    sub = parser.add_subparsers(dest="command")
    p = sub.add_parser("certify-gradings",
                       help="two-sided grading equivalence certificates")
    _add_common_flags(p)
    p.add_argument("--g1", help=f"first grading ({'|'.join(GRADINGS)})")
    p.add_argument("--g2", help=f"second grading ({'|'.join(GRADINGS)})")
    p = sub.add_parser("certify-map", help="tameness certificate for a "
                                           "registry map")
    _add_common_flags(p)
    p.add_argument("--map", help="registry map name")
    p = sub.add_parser("solve", help="implicit solve on a registry "
                                     "constraint")
    _add_common_flags(p)
    p.add_argument("--constraint", help="registry constraint name")
    p.add_argument("--max-iter", dest="max_iter", type=int,
                   help="Newton iteration budget")
    p = sub.add_parser("atlas", help="build a sphere atlas and verify "
                                     "transitions")
    _add_common_flags(p)
    p.add_argument("--constraint", help="sphere:<n> or spheres:<n1,n2,...>")
    return parser


_DISPATCH = {
    "certify-gradings": cmd_certify_gradings,
    "certify-map": cmd_certify_map,
    "solve": cmd_solve,
    "atlas": cmd_atlas,
}


def run(argv: Optional[List[str]] = None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return EXIT_OK if exc.code in (0, None) else EXIT_USAGE
    try:
        cfg = build_config(args)
        # overflow and NaN end as witnesses or errors in the outputs, so
        # numpy's floating-point warnings would only repeat them on stderr
        with np.errstate(all="ignore"):
            # restored by hand: before numpy 2.0 errstate keeps no bufsize
            bufsize = np.setbufsize(UFUNC_BUFSIZE)
            try:
                return _DISPATCH[cfg.command](cfg)
            finally:
                np.setbufsize(bufsize)
    except ConfigError as err:
        print(f"tamef: {err}", file=sys.stderr)
        return EXIT_USAGE


def main() -> int:
    return run(sys.argv[1:])


if __name__ == "__main__":
    sys.exit(main())
