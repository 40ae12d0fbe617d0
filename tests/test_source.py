"""Static checks of the library source."""

import ast
import os

import pytest

import tamef

SOURCE_DIR = os.path.dirname(tamef.__file__)
MODULES = sorted(name for name in os.listdir(SOURCE_DIR)
                 if name.endswith(".py") and name != "__init__.py")


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


@pytest.mark.parametrize("module", MODULES)
def test_no_unused_imports(module):
    with open(os.path.join(SOURCE_DIR, module), encoding="utf-8") as handle:
        assert unused_imports(handle.read()) == []


def test_unused_imports_are_found():
    source = ("from __future__ import annotations\n"
              "import os.path\nimport numpy as np\n"
              "from .errors import A, B\n"
              "x = np.zeros(A)\n")
    assert unused_imports(source) == ["os", "B"]
