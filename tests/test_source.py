"""Static checks of the library source."""

import ast
import os

import pytest

import tamef

SOURCE_DIR = os.path.dirname(tamef.__file__)
MODULES = sorted(name for name in os.listdir(SOURCE_DIR)
                 if name.endswith(".py") and name != "__init__.py")
TESTS_DIR = os.path.dirname(os.path.abspath(__file__))
TEST_MODULES = sorted(name for name in os.listdir(TESTS_DIR)
                      if name.endswith(".py"))


def unused_imports(source: str):
    """The names a module imports and never reads, in import order.
    __future__ imports are directives, not names."""
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [a.asname or a.name.partition(".")[0]
                         for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [a.asname or a.name for a in node.names]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in imported if name not in used]


def read_source(module: str, directory: str = SOURCE_DIR) -> str:
    with open(os.path.join(directory, module), encoding="utf-8") as handle:
        return handle.read()


@pytest.mark.parametrize("module, directory", [
    *(pytest.param(m, SOURCE_DIR, id=m) for m in MODULES),
    *(pytest.param(m, TESTS_DIR, id=f"tests/{m}") for m in TEST_MODULES)])
def test_no_unused_imports(module, directory):
    assert unused_imports(read_source(module, directory)) == []


def test_unused_imports_are_found():
    source = ("from __future__ import annotations\n"
              "import os.path\nimport numpy as np\n"
              "from .errors import A, B\n"
              "x = np.zeros(A)\n")
    assert unused_imports(source) == ["os", "B"]


def _loads(node) -> set:
    """The names node reads, as a Name or as an Attribute."""
    return {n.id if isinstance(n, ast.Name) else n.attr
            for n in ast.walk(node)
            if isinstance(n, (ast.Name, ast.Attribute))
            and isinstance(n.ctx, ast.Load)}


def unreached_definitions(sources, exported):
    """The public top-level functions and classes of the module sources
    that no code outside their own definition reads and that are not in
    exported, in source order."""
    statements = [stmt for source in sources
                  for stmt in ast.parse(source).body]
    reads = [_loads(stmt) for stmt in statements]
    unreached = []
    for i, stmt in enumerate(statements):
        if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)) \
                and not stmt.name.startswith("_") \
                and stmt.name not in exported \
                and not any(stmt.name in r for j, r in enumerate(reads)
                            if j != i):
            unreached.append(stmt.name)
    return unreached


def test_every_public_definition_is_reached():
    """Every public function or class of the package is read by other code
    of the package or exported by tamef/__init__.py."""
    init = ast.parse(read_source("__init__.py"))
    exported = {a.asname or a.name for node in init.body
                if isinstance(node, ast.ImportFrom) for a in node.names}
    sources = [read_source(module) for module in MODULES]
    assert unreached_definitions(sources, exported) == []


def test_unreached_definitions_are_found():
    a = ("def by_name():\n    pass\n\n"
         "def by_attribute():\n    pass\n\n"
         "def exported():\n    pass\n\n"
         "def _private():\n    pass\n\n"
         "def recursive(n):\n    return recursive(n - 1)\n\n"
         "class Dead:\n    pass\n")
    b = ("from . import a\nfrom .a import by_name\n"
         "x = a.by_attribute(by_name())\nDead = None\n")
    assert unreached_definitions([a, b], {"exported"}) == [
        "recursive", "Dead"]
