"""The numpy floor declared in `pyproject.toml` covers every numpy function
`src/` calls.

A function numpy added after the declared floor fails with an
AttributeError on an install the floor allows (np.trapezoid arrived in
numpy 2.0), so this reads the floor and fails on each `np.<name>` in `src/`
first released above it.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# numpy functions added after 1.x, with the release that added them
INTRODUCED = {"trapezoid": (2, 0)}


def declared_floor(pyproject: str):
    major, minor = re.search(r'"numpy>=(\d+)\.(\d+)', pyproject).groups()
    return int(major), int(minor)


def too_new(sources, floor):
    """(label, name) of each `np.<name>` in `sources` released after `floor`."""
    return sorted({(label, node.attr) for label, text in sources.items()
                   for node in ast.walk(ast.parse(text))
                   if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                   and node.value.id == "np" and INTRODUCED.get(node.attr, (0, 0)) > floor})


def test_detects_a_call_above_the_floor():
    assert declared_floor('dependencies = [\n    "numpy>=1.24",\n]') == (1, 24)
    source = "import numpy as np\nnp.trapezoid([1.0], [0.0])\nnp.sum([1])\n"
    assert too_new({"a": source}, (1, 24)) == [("a", "trapezoid")]
    assert too_new({"a": source}, (2, 0)) == []


def test_declared_numpy_floor_covers_src():
    floor = declared_floor((ROOT / "pyproject.toml").read_text())
    sources = {str(path.relative_to(ROOT)): path.read_text()
               for path in sorted((ROOT / "src").rglob("*.py"))}
    assert too_new(sources, floor) == []
