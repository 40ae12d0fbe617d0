"""The benchmark's per-layer spans name functions that exist, and small
jobs of each workload reach every call the benchmark pins.

`bench/tracing.py` wraps tamef functions by name when a traced benchmark
runs, and fails a workload that records no call at a binding
`EXPECTED_CALLS` pins on it. A renamed function or a moved call path would
otherwise surface only there; these tests load the module read-only,
resolve every name it lists and trace a few small CLI jobs in-process.
"""

import importlib
import json
import os
import types

import pytest

TRACING = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "bench", "tracing.py")


def load_tracing():
    """bench/tracing.py as a module, compiled from its source so that no
    bytecode cache is written next to it."""
    module = types.ModuleType("bench_tracing")
    with open(TRACING, encoding="utf-8") as handle:
        exec(compile(handle.read(), TRACING, "exec"), module.__dict__)
    return module


tracing = load_tracing()


def resolve(owner, dotted):
    for attr in dotted.split("."):
        assert hasattr(owner, attr), f"{owner!r} has no attribute {attr!r}"
        owner = getattr(owner, attr)
    return owner


def split_binding(binding):
    """(module, attribute path) of a dotted binding: the longest prefix that
    imports as a module, and the rest."""
    parts = binding.split(".")
    for cut in range(len(parts) - 1, 0, -1):
        try:
            module = importlib.import_module(".".join(parts[:cut]))
        except ModuleNotFoundError:
            continue
        return module, ".".join(parts[cut:])
    raise AssertionError(f"no module in {binding!r}")


@pytest.mark.parametrize("defining, attr, span, observe", tracing.SPANS,
                         ids=[f"{d}.{a}" for d, a, _, _ in tracing.SPANS])
def test_every_span_resolves(defining, attr, span, observe):
    assert callable(resolve(importlib.import_module(defining), attr))


@pytest.mark.parametrize("binding", sorted(tracing.EXPECTED_CALLS))
def test_every_expected_binding_is_a_wrapped_function(binding):
    """The binding exists and is the very function a span wraps, so the
    tracer patches it."""
    module, attr = split_binding(binding)
    target = resolve(module, attr)
    wrapped = [resolve(importlib.import_module(defining), name)
               for defining, name, _, _ in tracing.SPANS
               if name.split(".")[-1] == attr.split(".")[-1]]
    assert any(target is fn for fn in wrapped), binding


#: small CLI jobs, (argv, config), that together take every call path the
#: benchmark's pool of each workload takes
PINNED_PATH_JOBS = {
    "gradings": [(["certify-gradings", "--k", "8"], None)],
    "maps": [(["certify-map", "--map", "projection:1"], None)],
    "atlas": [(["atlas", "--constraint", "sphere:0"], None),
              (["atlas", "--constraint", "spheres:0,1"], {"radii": [1, 2]})],
    "solve": [(["solve"], {"constraint": "sphere:1"})],
}


@pytest.mark.parametrize("workload", sorted(PINNED_PATH_JOBS))
def test_small_jobs_reach_every_pinned_call(tmp_path, workload):
    from tamef import cli
    tracer = tracing.Tracer()
    tracer.install()
    try:
        for i, (argv, config) in enumerate(PINNED_PATH_JOBS[workload]):
            argv = argv + ["--out", str(tmp_path / f"out{i}")]
            if config is not None:
                path = tmp_path / f"config{i}.json"
                path.write_text(json.dumps(config), encoding="utf-8")
                argv += ["--config", str(path)]
            assert cli.run(argv) == 0, argv
    finally:
        tracer.uninstall()
    assert tracer.missing_calls(workload) == []
