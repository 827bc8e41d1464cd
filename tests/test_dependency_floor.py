"""The floors declared in `pyproject.toml` cover every numpy function
`src/` calls, and agree with each other.

A function numpy added after the declared floor fails with an
AttributeError on an install the floor allows (np.trapezoid arrived in
numpy 2.0), and a keyword it added to an older function with a TypeError
(np.quantile's `weights` arrived in 2.0), so this reads the floor and fails
on each `np.<name>` and `np.<name>(<keyword>=...)` in `src/` first released
above it.  A scipy built against an older numpy major does
not import under the declared one (scipy 1.13 is the first release built
against numpy 2), so the scipy floor must be at least that release.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# numpy functions, and (function, keyword) pairs, added after 1.x, with the
# release that added them
INTRODUCED = {"trapezoid": (2, 0), ("quantile", "weights"): (2, 0)}

# numpy major -> the first scipy release built against it
SCIPY_FOR_NUMPY = {2: (1, 13)}


def declared_floor(pyproject: str, package: str = "numpy"):
    major, minor = re.search(rf'"{package}>=(\d+)\.(\d+)', pyproject).groups()
    return int(major), int(minor)


def scipy_floor_too_old(numpy_floor, scipy_floor) -> bool:
    """Whether the scipy floor predates the first scipy for numpy's major."""
    return scipy_floor < SCIPY_FOR_NUMPY.get(numpy_floor[0], (0, 0))


def numpy_uses(text):
    """Each `np.<name>` in `text` as name, and each keyword of a call to one
    as (name, keyword)."""
    for node in ast.walk(ast.parse(text)):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id == "np"):
            yield node.attr
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) and (
                isinstance(node.func.value, ast.Name) and node.func.value.id == "np"):
            yield from ((node.func.attr, kw.arg) for kw in node.keywords if kw.arg)


def too_new(sources, floor):
    """(label, use) of each numpy use in `sources` released after `floor`."""
    return sorted({(label, use) for label, text in sources.items()
                   for use in numpy_uses(text) if INTRODUCED.get(use, (0, 0)) > floor},
                  key=str)


def test_detects_a_call_above_the_floor():
    assert declared_floor('dependencies = [\n    "numpy>=1.24",\n]') == (1, 24)
    source = "import numpy as np\nnp.trapezoid([1.0], [0.0])\nnp.sum([1])\n"
    assert too_new({"a": source}, (1, 24)) == [("a", "trapezoid")]
    assert too_new({"a": source}, (2, 0)) == []
    keyword = "np.quantile(x, 0.5, method='inverted_cdf', weights=w)\nnp.quantile(x, 0.5)\n"
    assert too_new({"b": keyword}, (1, 26)) == [("b", ("quantile", "weights"))]
    assert too_new({"b": keyword}, (2, 0)) == []
    assert too_new({"c": source + keyword}, (1, 24)) == [
        ("c", "trapezoid"), ("c", ("quantile", "weights"))]


def test_declared_numpy_floor_covers_src():
    floor = declared_floor((ROOT / "pyproject.toml").read_text())
    sources = {str(path.relative_to(ROOT)): path.read_text()
               for path in sorted((ROOT / "src").rglob("*.py"))}
    assert too_new(sources, floor) == []


def test_detects_a_scipy_floor_older_than_the_numpy_major():
    pyproject = 'dependencies = [\n    "numpy>=2.0",\n    "scipy>=1.10",\n]'
    assert declared_floor(pyproject, "scipy") == (1, 10)
    assert scipy_floor_too_old((2, 0), (1, 10))
    assert scipy_floor_too_old((2, 1), (1, 12))
    assert not scipy_floor_too_old((2, 0), (1, 13))
    assert not scipy_floor_too_old((1, 24), (1, 10))


def test_declared_scipy_floor_supports_the_numpy_floor():
    pyproject = (ROOT / "pyproject.toml").read_text()
    assert not scipy_floor_too_old(declared_floor(pyproject),
                                   declared_floor(pyproject, "scipy"))
