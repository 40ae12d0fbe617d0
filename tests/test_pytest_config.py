"""The pytest configuration reports a failing property test as a failure.

Hypothesis's failure report imports libcst, and that import warns.  Under
filterwarnings = ["error"] the warning used to end the whole run with
INTERNALERROR at the first failing @given test, so no later test file ran.
"""

import os
import subprocess
import sys

PYPROJECT = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "pyproject.toml")

FAILING_PROPERTY = """\
from hypothesis import given, strategies as st


@given(st.integers())
def test_fails(x):
    assert x < 5
"""


def test_failing_property_is_reported_and_the_run_goes_on(tmp_path):
    (tmp_path / "test_a_property.py").write_text(FAILING_PROPERTY,
                                                 encoding="utf-8")
    (tmp_path / "test_b_after.py").write_text("def test_after():\n    pass\n",
                                              encoding="utf-8")
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", PYPROJECT, "--rootdir",
         str(tmp_path), "-p", "no:cacheprovider", "-q", str(tmp_path)],
        cwd=tmp_path, capture_output=True, text=True, timeout=300)
    out = run.stdout + run.stderr
    assert "Falsifying example" in out
    assert "INTERNALERROR" not in out
    assert "1 failed, 1 passed" in out
