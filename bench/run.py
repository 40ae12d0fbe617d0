"""Closed-loop benchmark of the tamef CLI.

One client in one process and one thread calls `tamef.cli.run(argv)` on a
seeded job list, one job after the other, and checks every job's exit code
and output bytes against the digests in `expected.json`. BLAS runs on one
thread and the process stays on one CPU. Job times are wall times scaled to
a reference speed by a calibration kernel timed around them (README.md).

    python3 bench/run.py --workload gradings --seed 1 --seconds 25 --trace 0

`--trace 0` prints the end-to-end metrics of BENCHMARK.json; `--trace 1`
times half the run untraced and half with per-layer spans installed, and
prints the per-layer metrics. The last line of standard output is one JSON
object: {"correct", "attempted", "failed", "metrics"}. Without tamef sources
under `src/` next to this directory the run exits with code 2 and prints no
result.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time

import tracing
import workloads

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
EXPECTED = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                        "expected.json")
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                    "MKL_NUM_THREADS")
SETUP_REPEATS = 7
#: kernel_s() on the reference machine (see README); job times are scaled
#: by REFERENCE_KERNEL_S / kernel_s() measured around them
REFERENCE_KERNEL_S = 0.0058
CALIBRATE_EVERY_S = 0.5
IMPORT_PROBE = ("import time; start = time.perf_counter(); import tamef.cli; "
                "print(time.perf_counter() - start)")

END_TO_END = [("jobs_per_s", "1/s"), ("job_p50_s", "s"), ("setup_s", "s"),
              ("peak_rss_mb", "MB")]
PER_LAYER = tracing.PER_LAYER + [("trace.overhead_s", "s")]


class BenchError(RuntimeError):
    """The benchmark cannot run here; no result is printed."""


def pin_blas_threads():
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"


def pin_to_one_cpu() -> int:
    """Keep this process, and the interpreters it starts, on one CPU, so
    that the calibration kernel and the jobs run on the same core."""
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


def load_cli():
    """tamef.cli from this checkout's src/, never from an installed copy."""
    if not os.path.isfile(os.path.join(SRC, "tamef", "cli.py")):
        raise BenchError(f"no tamef sources under {SRC}")
    sys.path.insert(0, SRC)
    from tamef import cli
    if not os.path.abspath(cli.__file__).startswith(SRC + os.sep):
        raise BenchError(f"tamef.cli came from {cli.__file__}, not {SRC}")
    return cli


def measure_setup() -> float:
    """Median time to import tamef.cli in a fresh interpreter, scaled to
    the reference speed like the job times; the first import writes
    bytecode caches and is not counted."""
    env = dict(os.environ, PYTHONPATH=SRC)
    times = []
    before = kernel_s()
    for attempt in range(SETUP_REPEATS + 1):
        done = subprocess.run([sys.executable, "-c", IMPORT_PROBE], env=env,
                              cwd=ROOT, capture_output=True, text=True,
                              timeout=60, check=True)
        after = kernel_s()
        if attempt:
            times.append(float(done.stdout) * REFERENCE_KERNEL_S
                         / ((before + after) / 2))
        before = after
    return statistics.median(times)


def check_job(job, outcome, out_dir: str, expected: dict):
    """None when the job matched its record, else what went wrong."""
    want = expected.get(job.key)
    if want is None:
        return "no recorded output"
    if isinstance(outcome, Exception):
        return f"raised {type(outcome).__name__}: {outcome}"
    if outcome != want["exit"]:
        return f"exit code {outcome}, recorded {want['exit']}"
    got = workloads.digest_dir(out_dir)
    if got != want["files"]:
        changed = sorted(name for name in set(got) | set(want["files"])
                         if got.get(name) != want["files"].get(name))
        return f"output differs from record: {', '.join(changed)}"
    return None


def kernel_s() -> float:
    """Median wall time of three runs of a fixed kernel: small numpy calls
    driven by interpreter loops, the mix tamef's own hot paths have."""
    import numpy
    v = numpy.linspace(0.0, 1.0, 33)
    times = []
    for _ in range(3):
        acc = 0.0
        start = time.perf_counter()
        for i in range(1000):
            acc += float(numpy.abs(v * (i + 1)).sum()) + sum(range(20))
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def run_loop(cli, jobs, expected, out_dir, seconds, rotation):
    """Run whole rotations of `rotation` jobs, in list order, until
    `seconds` have passed.

    Returns per-job wall times, the same times scaled to the reference
    speed, and failure messages. The calibration kernel runs before the
    loop and after every CALIBRATE_EVERY_S of jobs; each job's scale is
    REFERENCE_KERNEL_S over the mean kernel time around its batch.
    """
    wall, scaled, failures = [], [], []
    gc.collect()
    before = kernel_s()
    deadline = time.perf_counter() + seconds
    batch_start, batch = time.perf_counter(), []
    while (not wall or len(wall) % rotation
           or time.perf_counter() < deadline):
        job = jobs[len(wall) % len(jobs)]
        workloads.clear_dir(out_dir)
        start = time.perf_counter()
        try:
            outcome = cli.run(job.argv)
        except Exception as err:  # an escaped exception is a failed job
            outcome = err
        wall.append(time.perf_counter() - start)
        batch.append(wall[-1])
        problem = check_job(job, outcome, out_dir, expected)
        if problem is not None:
            failures.append(f"{job.key}: {problem}")
        done = not len(wall) % rotation and time.perf_counter() >= deadline
        if done or time.perf_counter() - batch_start >= CALIBRATE_EVERY_S:
            after = kernel_s()
            scale = REFERENCE_KERNEL_S / ((before + after) / 2)
            scaled += [t * scale for t in batch]
            before, batch_start, batch = after, time.perf_counter(), []
    return wall, scaled, failures


def p90_if_resolved(samples):
    """The 90th percentile when at least ten samples lie above it."""
    if len(samples) < 2:
        return None
    p90 = statistics.quantiles(samples, n=10)[-1]
    return p90 if sum(s > p90 for s in samples) >= 10 else None


def end_to_end(cli, jobs, expected, out_dir, seconds, rotation, lines):
    """Untraced run: the END_TO_END metrics."""
    setup_s = measure_setup()
    wall, scaled, failures = run_loop(cli, jobs, expected, out_dir, seconds,
                                      rotation)
    ok = len(scaled) - len(failures)
    lines.append(f"samples {len(scaled)}; unscaled wall: job_p50_s "
                 f"{statistics.median(wall):.6g}, jobs_per_s "
                 f"{ok / sum(wall):.6g}")
    p90 = p90_if_resolved(scaled)
    if p90 is None:
        lines.append("job_p90_s not reported: fewer than ten samples above "
                     "the 90th percentile")
    else:
        lines.append(f"job_p90_s {p90:.6g} s")
    metrics = {
        "jobs_per_s": ok / sum(scaled),
        "job_p50_s": statistics.median(scaled),
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    return metrics, len(scaled), failures


def per_layer(cli, jobs, expected, out_dir, seconds, rotation, lines,
              workload):
    """Half the time untraced, half traced: the PER_LAYER metrics. A span
    binding that this workload should reach but did not is a failure."""
    _, plain, failures = run_loop(cli, jobs, expected, out_dir, seconds / 2,
                                  rotation)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        wall, traced, traced_failures = run_loop(cli, jobs, expected, out_dir,
                                                 seconds / 2, rotation)
    finally:
        tracer.uninstall()
    failures += traced_failures
    lines.append(f"traced jobs {len(traced)}, untraced jobs {len(plain)}")
    metrics = tracer.metrics(len(traced), sum(traced) / sum(wall))
    metrics["trace.overhead_s"] = (statistics.median(traced)
                                   - statistics.median(plain))
    missing = tracer.missing_calls(workload)
    return metrics, len(plain) + len(traced), failures, missing


def bench(args) -> int:
    pin_blas_threads()
    cpu = pin_to_one_cpu()
    cli = load_cli()
    import numpy
    with open(EXPECTED, encoding="utf-8") as handle:
        expected_all = json.load(handle)
    expected = expected_all["workloads"][args.workload]
    lines = [f"workload {args.workload}  seed {args.seed}  "
             f"trace {args.trace}  numpy {numpy.__version__}  cpu {cpu}"]
    if numpy.__version__ != expected_all["numpy"]:
        lines.append(f"WARNING numpy {numpy.__version__} differs from "
                     f"{expected_all['numpy']} the digests were recorded "
                     f"with; solve and atlas bytes depend on LAPACK")

    work = os.path.join(ROOT, ".bench_work",
                        f"{args.workload}-{os.getpid()}")
    config_dir = os.path.join(work, "configs")
    out_dir = os.path.join(work, "out")
    os.makedirs(config_dir)
    os.makedirs(out_dir)
    try:
        jobs = workloads.make_jobs(args.workload, args.seed, config_dir,
                                   out_dir)
        rotation = len(workloads.ROTATIONS[args.workload])
        # warm-up: lazy imports and caches fill before timing
        run_loop(cli, jobs, expected, out_dir, 0.0, 1)
        loop = (cli, jobs, expected, out_dir, args.seconds, rotation, lines)
        if args.trace:
            metrics, attempted, failures, missing = per_layer(
                *loop, args.workload)
            units = dict(PER_LAYER)
        else:
            metrics, attempted, failures = end_to_end(*loop)
            missing = []
            units = dict(END_TO_END)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(work))
        except OSError:
            pass  # another run still uses it

    lines.append(f"error_rate {len(failures) / attempted:.6g} "
                 f"({len(failures)} of {attempted} jobs failed)")
    for name, value in metrics.items():
        lines.append(f"{name:<52} {value:>14.6g} {units[name]}")
    for failure in failures[:20]:
        print(f"FAILED {failure}", file=sys.stderr)
    for binding in missing:
        print(f"FAILED span {binding} recorded no call", file=sys.stderr)
    print("\n".join(lines))
    print(json.dumps({
        "correct": not failures and not missing,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        return bench(args)
    except (BenchError, OSError, subprocess.SubprocessError) as err:
        print(f"bench: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
