"""Record the exit code and output digests of every pool entry.

    python3 bench/record.py

Runs each entry of every workload pool once through `tamef.cli.run` with the
benchmark's settings and rewrites `bench/expected.json`. Re-record only on
purpose: the file is the benchmark's output gate, and a change that alters
CLI output bytes says why in CHANGES.md.
"""

from __future__ import annotations

import json
import os
import platform
import shutil
import sys

import run
import workloads


def main() -> int:
    run.pin_blas_threads()
    cli = run.load_cli()
    import numpy
    work = os.path.join(run.ROOT, ".bench_work", f"record-{os.getpid()}")
    config_dir = os.path.join(work, "configs")
    out_dir = os.path.join(work, "out")
    os.makedirs(config_dir)
    os.makedirs(out_dir)
    recorded = {}
    try:
        for name in workloads.WORKLOADS:
            entries = recorded[name] = {}
            for group in workloads.pool(name).values():
                for entry in group:
                    workloads.clear_dir(out_dir)
                    code = cli.run(workloads.entry_argv(entry, config_dir,
                                                        out_dir))
                    entries[entry.key] = {
                        "exit": code, "files": workloads.digest_dir(out_dir)}
            codes = sorted({e["exit"] for e in entries.values()})
            print(f"{name}: {len(entries)} jobs, exit codes {codes}",
                  file=sys.stderr)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    blob = {"numpy": numpy.__version__,
            "python": platform.python_version(),
            "machine": platform.machine(),
            "workloads": recorded}
    with open(run.EXPECTED, "w", encoding="utf-8") as handle:
        json.dump(blob, handle, indent=1, sort_keys=True)
        handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
