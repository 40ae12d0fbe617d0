"""The README's Python examples run as written.

Every fenced ``python`` block of README.md runs in order in one namespace,
so a later block may use the names an earlier one defined.
"""

import os
import re

README = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "README.md")


def python_blocks():
    with open(README, encoding="utf-8") as handle:
        text = handle.read()
    return re.findall(r"^```python\n(.*?)^```", text, re.M | re.S)


def test_readme_examples_run():
    blocks = python_blocks()
    assert len(blocks) >= 2
    namespace = {"__name__": "readme"}
    for block in blocks:
        exec(compile(block, README, "exec"), namespace)
