"""Fuzz test of the CLI: any flags and config values end in a documented exit
code, never in an escaping exception, and write nothing outside --out.

Each example runs one command with valid flags and a config that holds valid
values for some keys and at most one bad entry: a wrong type, a nested list,
NaN or Infinity, an unknown registry name, an out-of-range level or count,
an unknown key, or bad argv flags.  Sizes stay small (k <= 8, nmax <= 3,
probes <= 16, max_iter <= 100).
"""

import json
import math
import os
import tempfile

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from tamef import cli

EXIT_CODES = {0, 2, 3, 4, 64}
GRADINGS = ("l1", "linf", "decreasing")
MAPS = ("identity", "shift_up", "shift_down", "derivative", "scale:2",
        "coeff_square", "projection:1", "product:derivative,coeff_square",
        "compose:derivative,shift_up")
CONSTRAINTS = ("sphere:0", "sphere:1", "spheres:0,1", "linear:1,0",
               "polynomial")
ATLAS_CONSTRAINTS = ("sphere:0", "sphere:1", "spheres:0,1")

#: any JSON value, NaN and Infinity included
json_values = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 9)
    | st.floats(allow_nan=True, allow_infinity=True)
    | st.sampled_from(["", "one", "1", "sphere:0"]),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.sampled_from(["rows", "matrix", "offset"]), inner,
                      max_size=2),
    max_leaves=6)

finite = st.floats(-1.0, 1.0)
numbers = finite | st.sampled_from([float("nan"), float("inf"), 2])
#: a list nested one level too deep, a list holding NaN, Infinity, strings
#: or ragged rows, or no list at all
bad_lists = (
    st.integers(0, 2).flatmap(lambda n: st.lists(
        st.lists(finite, min_size=n, max_size=n), min_size=1, max_size=3))
    | st.lists(numbers | st.lists(numbers, max_size=2)
               | st.sampled_from(["", "one"]), min_size=1, max_size=3)
    | json_values)


def polynomial_rows(flat_dimension, most):
    """Up to `most` rows of [coefficient, [flat indices]] terms, indices
    below flat_dimension."""
    terms = st.tuples(finite, st.lists(st.integers(0, flat_dimension - 1),
                                       max_size=2))
    return st.lists(st.lists(terms, min_size=1, max_size=2), min_size=1,
                    max_size=most)


#: up to 4 rows, more than the 3 flat coordinates at k = 2
rows = polynomial_rows(4, 4)
#: well-formed rows, in range at k = 2, led by a term whose coefficient is
#: NaN or Infinity: the Jacobian at the base point is then not finite
non_finite_rows = st.tuples(
    st.tuples(st.sampled_from([math.nan, math.inf, -math.inf]),
              st.lists(st.integers(0, 2), min_size=1, max_size=2)),
    polynomial_rows(3, 2)).map(lambda pair: [[pair[0]]] + pair[1])

#: the valid values of the config keys each command reads
SCALARS = {
    "k": st.integers(2, 8),
    "nmax": st.integers(2, 3),
    "fiber_dimension": st.integers(1, 2),
    "seed": st.integers(0, 2 ** 64 - 1),
    "probes": st.integers(1, 16),
    "r_max": st.integers(0, 2),
    "tol": st.sampled_from([1e-12, 1e-9, 1e-6]),
    "max_iter": st.integers(1, 100),
}
VALID = {
    "certify-gradings": {"g1": st.sampled_from(GRADINGS),
                         "g2": st.sampled_from(GRADINGS)},
    "certify-map": {"map": st.sampled_from(MAPS)},
    "solve": {"constraint": st.sampled_from(CONSTRAINTS),
              "constraint_params": st.fixed_dictionaries({"rows": rows}),
              "base_point": st.lists(st.floats(0.25, 1.0), min_size=1,
                                     max_size=3),
              "x_offsets": st.lists(finite, max_size=3),
              "y0": st.lists(finite, min_size=1, max_size=2)},
    # radii in increasing order: the level-1 norm bounds the level-0 one,
    # so a level-0 radius above the level-1 radius leaves no point
    "atlas": {"constraint": st.sampled_from(ATLAS_CONSTRAINTS),
              "radii": st.lists(st.floats(0.5, 3.0), min_size=2,
                                max_size=2).map(sorted)},
}
SCALAR_KEYS = {
    "certify-gradings": ("k", "nmax", "fiber_dimension", "seed", "probes",
                         "r_max"),
    "certify-map": ("k", "nmax", "probes", "r_max"),
    "solve": ("k", "nmax", "tol", "max_iter"),
    "atlas": ("k", "nmax", "probes", "r_max"),
}
for _command, _keys in SCALAR_KEYS.items():
    VALID[_command].update((key, SCALARS[key]) for key in _keys)

#: bad values of a key, each run once by
#: test_every_bad_value_exits_with_a_documented_code; the fuzz test draws
#: from them too, and from any JSON value for a scalar key
BAD_VALUES = {
    "k": [-1, 0, 4097],
    "nmax": [-1, 300],
    "fiber_dimension": [0],
    "seed": [-1, 2 ** 64],
    "probes": [-1, 0, 10 ** 12],
    "r_max": [-1, 4],
    "tol": [0.0, -1.0, float("nan"), float("inf")],
    "max_iter": [-1, 0],
    "g1": ["bogus"],
    "g2": ["bogus"],
    "map": ["bogus", "scale:x", "scale:nan", "scale:1e300", "projection:3",
            "compose:product:a,b"],
    "constraint": ["bogus", "sphere:9", "sphere:x", "spheres:1,0",
                   "spheres:0,9", "linear:", "affine", "spheres:-1,0",
                   "linear:1,nan"],
    # malformed, and well-formed but led by a non-finite coefficient
    "constraint_params": [{"rows": 5}, {"rows": [[[1, 5]]]},
                          {"matrix": {"a": 1}, "offset": [0]},
                          {"rows": [[[math.nan, [1]]]]},
                          {"rows": [[[math.inf, [0, 2]]], [[1.0, [1]]]]},
                          {"rows": [[[-math.inf, [2]], [0.5, []]]]}],
}
#: config keys that hold a list of numbers
LIST_KEYS = ("base_point", "x_offsets", "y0", "radii")
for _key in LIST_KEYS:
    # nested too deep, NaN, Infinity, a string, empty, or no list at all
    BAD_VALUES[_key] = [[math.nan], [math.inf, 0.5], [[1.0], [2.0]], ["one"],
                        [], "one", None, 3]

BAD = {key: st.sampled_from(values) for key, values in BAD_VALUES.items()}
BAD["constraint_params"] |= st.fixed_dictionaries(
    {"rows": json_values}, optional={"matrix": json_values,
                                     "offset": json_values}) \
    | st.fixed_dictionaries({"rows": non_finite_rows})
for _key in LIST_KEYS:
    BAD[_key] |= bad_lists
BAD["unknown_key"] = json_values
for _key in SCALARS:
    BAD[_key] |= json_values

#: the constraint under which a bad value is read
READ_UNDER = {("solve", "constraint_params"): ["polynomial", "affine"],
              ("atlas", "radii"): ["spheres:0,1"]}

#: argv flags each command accepts, with valid values
FLAGS = {
    "--seed": SCALARS["seed"].map(str),
    "--k": SCALARS["k"].map(str),
    "--nmax": SCALARS["nmax"].map(str),
    "--probes": SCALARS["probes"].map(str),
    "--r-max": SCALARS["r_max"].map(str),
    "--tol": st.sampled_from(["1e-12", "1e-9"]),
}
COMMAND_FLAGS = {
    "certify-gradings": {"--g1": st.sampled_from(GRADINGS),
                         "--g2": st.sampled_from(GRADINGS)},
    "certify-map": {"--map": st.sampled_from(MAPS)},
    "solve": {"--constraint": st.sampled_from(CONSTRAINTS),
              "--max-iter": SCALARS["max_iter"].map(str)},
    "atlas": {"--constraint": st.sampled_from(ATLAS_CONSTRAINTS)},
}
#: flags with bad values, or flags the command does not know
BAD_FLAG_VALUES = {
    "--k": ["-1", "0", "4097", "x"],
    "--nmax": ["-1", "300"],
    "--tol": ["0", "nan", "inf", "x"],
    "--probes": ["0", "-1", str(10 ** 12)],
    "--r-max": ["-1", "9"],
    "--seed": ["-1", str(2 ** 64)],
    "--g1": ["bogus"],
    "--map": ["bogus", "scale:inf"],
    "--constraint": ["bogus", "sphere:9"],
    "--max-iter": ["0", "-3"],
    "--bogus": ["1"],
}
BAD_FLAGS = {flag: st.sampled_from(values)
             for flag, values in BAD_FLAG_VALUES.items()}

#: (command, what goes bad): None, "argv" for the flags, "unknown_key",
#: "scalar" for one of the command's scalar keys, or one of its other keys
TARGETS = [(command, key) for command in VALID
           for key in [None, "argv", "unknown_key", "scalar"]
           + sorted(set(VALID[command]) - set(SCALARS))]


def _flag_pairs(choices, least, most):
    names = st.lists(st.sampled_from(sorted(choices)), min_size=least,
                     max_size=most, unique=True)
    return names.flatmap(lambda chosen: st.tuples(
        *(st.tuples(st.just(name), choices[name]) for name in chosen)))


def _example(target):
    """(command, flag pairs, config) with at most one bad entry."""
    command, key = target
    choices = dict(FLAGS, **COMMAND_FLAGS[command])
    if target in READ_UNDER:
        del choices["--constraint"]
    flag_pairs = _flag_pairs(BAD_FLAGS, 1, 3) if key == "argv" \
        else _flag_pairs(choices, 0, 2)
    bad = st.just({})
    if key not in (None, "argv"):
        keys = SCALAR_KEYS[command] if key == "scalar" else [key]
        bad = st.sampled_from(keys).flatmap(
            lambda name: BAD[name].map(lambda value: {name: value}))
    if target in READ_UNDER:
        bad = st.tuples(bad, st.sampled_from(READ_UNDER[target])).map(
            lambda pair: dict(pair[0], constraint=pair[1]))
    config = st.tuples(st.fixed_dictionaries({}, optional=VALID[command]),
                       bad).map(lambda pair: {**pair[0], **pair[1]})
    case = st.tuples(st.just(command), flag_pairs, config)
    if command == "atlas" and key not in ("argv", "constraint"):
        case = case.map(_radii_read_under_spheres)
    return case


def _radii_read_under_spheres(case):
    """An atlas case whose config holds radii, with the spheres: constraint
    that reads them (READ_UNDER) and no --constraint flag over it: under
    sphere:<n> the radii exit 64 before any chart is built."""
    command, flag_pairs, config = case
    if "radii" not in config:
        return case
    flag_pairs = tuple(pair for pair in flag_pairs
                       if pair[0] != "--constraint")
    constraint = READ_UNDER[("atlas", "radii")][0]
    return command, flag_pairs, dict(config, constraint=constraint)


def _files_under(root):
    return sorted(os.path.relpath(os.path.join(d, name), root)
                  for d, _, names in os.walk(root) for name in names)


def _assert_documented_run(command, flag_pairs, config):
    """Run one command in a fresh directory: it exits with a documented
    code and writes only under --out."""
    home = os.getcwd()
    with tempfile.TemporaryDirectory() as work, \
            tempfile.TemporaryDirectory() as config_dir:
        config_path = os.path.join(config_dir, "cfg.json")
        with open(config_path, "w", encoding="utf-8") as handle:
            json.dump(config, handle)
        argv = [command, "--out", "out", "--config", config_path]
        for name, value in flag_pairs:
            argv += [name, value]
        os.chdir(work)
        try:
            code = cli.run(argv)
        finally:
            os.chdir(home)
        assert code in EXIT_CODES, argv
        written = _files_under(work)
        assert all(path.startswith("out" + os.sep) for path in written), \
            written
        assert _files_under(config_dir) == ["cfg.json"]


@settings(max_examples=120, derandomize=True, deadline=None, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(st.sampled_from(TARGETS).flatmap(_example))
@example(("solve", (), {"constraint": "spheres:-1,0", "k": 4, "nmax": 3}))
@example(("solve", (), {"constraint": "linear:1,nan", "k": 1}))
@example(("solve", (), {"constraint": "polynomial", "k": 2,
                        "constraint_params": {"rows": [[[math.nan, [1]]]]}}))
def test_cli_exits_with_a_documented_code(case):
    _assert_documented_run(*case)


@settings(max_examples=40, derandomize=True, deadline=None, database=None)
@given(st.integers(1, 3).flatmap(
    lambda k: st.tuples(st.just(k), polynomial_rows(k + 1, k + 3))))
def test_polynomial_rows_exit_with_a_documented_code(case):
    """Polynomial constraints at small k with indices in range, up to two
    rows more than the k + 1 flat coordinates."""
    k, rows = case
    _assert_documented_run("solve", (), {
        "constraint": "polynomial", "constraint_params": {"rows": rows},
        "k": k, "nmax": 2})


#: small sizes for the keys a command reads, under every bad value
SMALL = {"k": 4, "nmax": 2, "probes": 4}


def _bad_value_cases():
    """Every bad config value against every command that reads its key
    (under each constraint that reads it), and every bad flag value
    against every command."""
    for command, valid in VALID.items():
        small = {key: value for key, value in SMALL.items() if key in valid}
        for key, values in BAD_VALUES.items():
            if key not in valid:
                continue
            for constraint in READ_UNDER.get((command, key), [None]):
                under = {} if constraint is None else {"constraint":
                                                       constraint}
                for i, value in enumerate(values):
                    yield pytest.param(
                        command, (), dict(small, **under, **{key: value}),
                        id=f"{command}-{key}-{i}"
                        + ("" if constraint is None else f"-{constraint}"))
        for flag, values in BAD_FLAG_VALUES.items():
            for i, value in enumerate(values):
                yield pytest.param(command, ((flag, value),), small,
                                   id=f"{command}{flag}-{i}")


@pytest.mark.parametrize("command, flag_pairs, config", _bad_value_cases())
def test_every_bad_value_exits_with_a_documented_code(command, flag_pairs,
                                                      config):
    """The fuzz test's draws miss most bad values; each runs once here."""
    _assert_documented_run(command, flag_pairs, config)
