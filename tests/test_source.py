"""Checks of the library source: static ones, and one that runs the
command and paper-check suites to find the functions nothing calls.

    PYTHONPATH=src python tests/test_source.py CALLS.json

runs those suites under the call hook and writes the code objects called,
as [file, first line] pairs; test_every_function_is_reached runs it so.
"""

import ast
import importlib.util
import json
import os
import subprocess
import sys
import tempfile

import pytest

#: the package directory, found without importing it, so that a traced run
#: imports tamef under the hook
SOURCE_DIR = importlib.util.find_spec("tamef").submodule_search_locations[0]
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


# ---------------------------------------------------------------------------
# dynamic reachability: every function runs in some command or paper check
# ---------------------------------------------------------------------------

#: the suites whose calls count as reached, besides every golden CLI case
TRACED_SUITES = ("test_acceptance.py", "test_properties.py",
                 "test_readme.py")
#: functions no traced run calls, each kept for a reason of its own
UNCALLED_ALLOWED = {
    # the console entry point; the suites call cli.run
    "cli.main",
    # an error path no suite provokes
    "errors.NotIntoSubmanifoldError.__init__",
    # the tests' reference for the bytes write_json streams
    "serialize.dumps_json",
    # ROADMAP item 5(b) gives it a CLI caller
    "maps.certify_projection",
    # the generic split-constraint protocol, which the acceptance suite's
    # Newton oracle builds; the sphere and intersection splits bind their
    # own (see the settled phi_xy note in ROADMAP.md)
    "implicit.SplitConstraint.values",
    "implicit.SplitConstraint.d_x",
    "implicit.PointSplit.phi_xy",
}


def defined_functions(source: str) -> dict:
    """{first line: qualified name} of every def in a module, methods and
    nested functions too.  A decorated def starts at its first decorator,
    as its code object does."""
    found = {}

    def visit(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                name = prefix + child.name
                found[min([child.lineno] + [d.lineno for d in
                                            child.decorator_list])] = name
                visit(child, name + ".<locals>.")
            elif isinstance(child, ast.ClassDef):
                visit(child, prefix + child.name + ".")
            else:
                visit(child, prefix)

    visit(ast.parse(source), "")
    return found


def traced_calls(run) -> set:
    """(file, first line) of every code object that run() calls.  The hook
    sees call events only: it returns None, so no line is traced."""
    called = set()

    def hook(frame, event, arg):
        called.add(frame.f_code)

    previous = sys.gettrace()
    sys.settrace(hook)
    try:
        run()
    finally:
        sys.settrace(previous)
    return {(code.co_filename, code.co_firstlineno) for code in called}


def reach_report(directory: str, called, allowed):
    """(unreached, stale): the functions, as module.qualname, of the modules
    in directory that no call in called ran and that allowed does not name;
    and the names in allowed that ran or that no module defines."""
    directory = os.path.realpath(directory)
    ran = {(os.path.basename(path), line) for path, line in called
           if os.path.dirname(os.path.realpath(path)) == directory}
    uncalled = set()
    for module in sorted(os.listdir(directory)):
        if module.endswith(".py"):
            for line, name in defined_functions(
                    read_source(module, directory)).items():
                if (module, line) not in ran:
                    uncalled.add(f"{module[:-3]}.{name}")
    return sorted(uncalled - set(allowed)), sorted(set(allowed) - uncalled)


def run_traced_suites():
    """Every golden case, then the traced suites in one pytest session;
    the session's exit code."""
    import test_golden  # here, so that tamef is imported under the hook

    for name in sorted(test_golden.CASES):
        with tempfile.TemporaryDirectory() as workdir:
            test_golden.run_case(name, workdir)
    return pytest.main(["-q", "-p", "no:cacheprovider",
                        *(os.path.join(TESTS_DIR, s) for s in TRACED_SUITES)])


def test_every_function_is_reached(tmp_path):
    """Every function of the package is called by a golden CLI case or by
    the acceptance, property or README suite, apart from UNCALLED_ALLOWED,
    which names no function that is called."""
    out = tmp_path / "calls.json"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [os.path.dirname(SOURCE_DIR), os.environ.get("PYTHONPATH", "")]))
    done = subprocess.run([sys.executable, os.path.abspath(__file__),
                           str(out)], cwd=os.path.dirname(TESTS_DIR), env=env,
                          capture_output=True, text=True)
    assert done.returncode == 0, done.stdout + done.stderr
    called = [tuple(pair) for pair in json.loads(out.read_text())]
    assert reach_report(SOURCE_DIR, called, UNCALLED_ALLOWED) == ([], [])


def test_unreached_functions_are_found(tmp_path):
    (tmp_path / "tool.py").write_text(
        "class Tool:\n"
        "    def used(self):\n        return 1\n\n"
        "    @property\n"
        "    def unused(self):\n        return 2\n\n"
        "def helper():\n"
        "    def inner():\n        return Tool().used()\n"
        "    return inner()\n\n"
        "def entry():\n    pass\n")
    spec = importlib.util.spec_from_file_location(
        "tool", tmp_path / "tool.py")
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    called = traced_calls(tool.helper)
    assert reach_report(tmp_path, called, {"tool.entry"}) == (
        ["tool.Tool.unused"], [])
    assert reach_report(tmp_path, called, {"tool.entry", "tool.helper"}) == (
        ["tool.Tool.unused"], ["tool.helper"])
    assert reach_report(tmp_path, called, ()) == (
        ["tool.Tool.unused", "tool.entry"], [])


if __name__ == "__main__":
    exits = []
    called = traced_calls(lambda: exits.append(run_traced_suites()))
    with open(sys.argv[1], "w", encoding="utf-8") as handle:
        json.dump(sorted(called), handle)
    sys.exit(exits[0])
