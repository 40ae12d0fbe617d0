"""The benchmark's per-layer spans name functions that exist.

`bench/tracing.py` wraps tamef functions by name when a traced benchmark
runs. A renamed or moved function would otherwise surface only there; this
test loads the module read-only and resolves every name it lists.
"""

import importlib
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
