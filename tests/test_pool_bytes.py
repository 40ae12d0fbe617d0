"""Every benchmark pool entry still writes its recorded bytes.

`bench/expected.json` holds the exit code and the SHA-256 of every output
file of each pool entry of the four benchmark workloads (400 CLI calls).
The benchmark checks them only when it runs; this test runs every entry
in-process under a temporary directory and compares.  `bench/workloads.py`
is loaded read-only, compiled from its source, so no bytecode cache is
written next to it.  The `atlas` and `solve` bytes go through LAPACK's SVD,
so those workloads skip under a numpy version other than the recorded one,
as in `test_golden.py`.
"""

import json
import os
import sys
import types

import numpy as np
import pytest

from tamef import cli

BENCH = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "bench")
NUMPY_BOUND = ("atlas", "solve")


def load_workloads():
    """bench/workloads.py as a module, compiled from its source; it is
    registered in sys.modules first, where its dataclasses look it up."""
    path = os.path.join(BENCH, "workloads.py")
    module = sys.modules["bench_workloads"] = types.ModuleType(
        "bench_workloads")
    with open(path, encoding="utf-8") as handle:
        exec(compile(handle.read(), path, "exec"), module.__dict__)
    return module


workloads = load_workloads()

with open(os.path.join(BENCH, "expected.json"), encoding="utf-8") as handle:
    EXPECTED = json.load(handle)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_pool_entries_write_their_recorded_bytes(tmp_path, workload):
    if workload in NUMPY_BOUND and EXPECTED["numpy"] != np.__version__:
        pytest.skip(f"recorded under numpy {EXPECTED['numpy']}, "
                    f"running {np.__version__}")
    config_dir, out_dir = tmp_path / "configs", tmp_path / "out"
    config_dir.mkdir()
    out_dir.mkdir()
    got = {}
    for group in workloads.pool(workload).values():
        for entry in group:
            workloads.clear_dir(str(out_dir))
            code = cli.run(workloads.entry_argv(entry, str(config_dir),
                                                str(out_dir)))
            got[entry.key] = {"exit": code,
                              "files": workloads.digest_dir(str(out_dir))}
    want = EXPECTED["workloads"][workload]
    assert sorted(got) == sorted(want)
    changed = sorted(key for key in want if got[key] != want[key])
    assert not changed, f"{len(changed)} of {len(want)} entries changed: " \
                        f"{changed[:5]}"
