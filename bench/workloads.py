"""Job pools, seeded job lists and the output gate of the benchmark.

Every workload draws its jobs from a fixed pool. Each pool entry is one CLI
call (argv, plus a config file for `solve`) whose exit code and output-file
digests were recorded once in `expected.json` by `record.py`. The workload
seed passed to the benchmark shuffles the pool into the run's job list, so
a seed selects the inputs while every input stays checkable.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
from dataclasses import dataclass
from typing import Dict, List, Optional

#: seeds the pools themselves; changing it invalidates expected.json
POOL_SEED = 1305_3145

GRADINGS_ARGV = ["certify-gradings", "--g1", "l1", "--g2", "linf",
                 "--k", "32", "--nmax", "6", "--probes", "10000"]
MAPS = ("compose:derivative,shift_up", "product:derivative,coeff_square",
        "projection:1")
MAPS_ARGV = ["certify-map", "--k", "32", "--nmax", "6", "--probes", "1000"]
SPHERE_ARGV = ["atlas", "--k", "32", "--nmax", "4", "--constraint", "sphere:0"]
SPHERES_ARGV = ["atlas", "--k", "16", "--nmax", "4",
                "--constraint", "spheres:0,1"]
SPHERES_CONFIG = {"radii": [1, 2]}
SOLVE_CONFIG = {"constraint": "sphere:1", "k": 32, "nmax": 4}

#: job kinds in the order each job list cycles through them; the spheres job
#: leads the atlas rotation so that even a short run reaches find_preimage
#: and the codimension-2 split
ROTATIONS = {
    "gradings": ["gradings"],
    "maps": list(MAPS),
    "atlas": ["spheres", "sphere", "sphere", "sphere"],
    "solve": ["solve"],
}
WORKLOADS = tuple(ROTATIONS)


@dataclass(frozen=True)
class PoolEntry:
    """One recorded CLI call; `argv` gets `--out DIR` appended when run."""

    key: str
    argv: List[str]
    config: Optional[dict] = None


@dataclass(frozen=True)
class Job:
    key: str
    argv: List[str]


def _job_seeds(rng: random.Random, count: int) -> List[int]:
    return [rng.getrandbits(63) for _ in range(count)]


def pool(workload: str) -> Dict[str, List[PoolEntry]]:
    """Pool entries of one workload, grouped by job kind."""
    rng = random.Random(f"{POOL_SEED}:{workload}")
    if workload == "gradings":
        return {"gradings": [
            PoolEntry(f"seed={s}", GRADINGS_ARGV + ["--seed", str(s)])
            for s in _job_seeds(rng, 48)]}
    if workload == "maps":
        return {name: [
            PoolEntry(f"{name}/seed={s}",
                      MAPS_ARGV + ["--map", name, "--seed", str(s)])
            for s in _job_seeds(rng, 16)] for name in MAPS}
    if workload == "atlas":
        return {
            "spheres": [PoolEntry(f"spheres/seed={s}",
                                  SPHERES_ARGV + ["--seed", str(s)],
                                  SPHERES_CONFIG)
                        for s in _job_seeds(rng, 12)],
            "sphere": [PoolEntry(f"sphere/seed={s}",
                                 SPHERE_ARGV + ["--seed", str(s)])
                       for s in _job_seeds(rng, 36)],
        }
    if workload == "solve":
        return {"solve": [
            PoolEntry(f"solve/{i}", ["solve"], dict(
                SOLVE_CONFIG,
                x_offsets=[rng.uniform(-0.3, 0.3) for _ in range(4)]))
            for i in range(256)]}
    raise ValueError(f"unknown workload {workload!r}")


def entry_argv(entry: PoolEntry, config_dir: str, out_dir: str) -> List[str]:
    """Full argv of an entry; writes its config file under config_dir."""
    argv = list(entry.argv)
    if entry.config is not None:
        path = os.path.join(config_dir, entry.key.replace("/", "_") + ".json")
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(entry.config, handle)
        argv += ["--config", path]
    return argv + ["--out", out_dir]


def make_jobs(workload: str, seed: int, config_dir: str,
              out_dir: str) -> List[Job]:
    """One pass over the pool, each kind shuffled by the workload seed and
    the kinds interleaved in rotation order."""
    rng = random.Random(seed)
    groups = pool(workload)
    queues = {}
    for kind, entries in groups.items():
        order = list(entries)
        rng.shuffle(order)
        queues[kind] = order
    kinds = ROTATIONS[workload]
    taken = dict.fromkeys(queues, 0)
    jobs = []
    for i in range(sum(len(q) for q in queues.values())):
        kind = kinds[i % len(kinds)]
        entry = queues[kind][taken[kind]]
        taken[kind] += 1
        jobs.append(Job(entry.key, entry_argv(entry, config_dir, out_dir)))
    return jobs


def clear_dir(path: str):
    for name in os.listdir(path):
        os.remove(os.path.join(path, name))


def digest_dir(path: str) -> Dict[str, str]:
    """SHA-256 of every file in an output directory, by file name."""
    digests = {}
    for name in sorted(os.listdir(path)):
        with open(os.path.join(path, name), "rb") as handle:
            digests[name] = hashlib.sha256(handle.read()).hexdigest()
    return digests
