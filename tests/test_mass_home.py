"""Every |f|^2 mass in `src/` is read in `field.py`.

The energies, the box tail and the spread radius all square `np.abs` of a
field's values; a module that does it itself restates a lattice sum that
`density_energy` or `mass_radius` already owns.  This parses every module
under `src/` and fails on any `abs(...) ** 2` outside `field.py`, in the
forms `np.abs(v) ** 2`, `numpy.absolute(v) ** 2.0` and the builtin
`abs(v) ** 2`.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "schrodlab"
MASS_HOME = PACKAGE / "field.py"


def _is_abs_call(node) -> bool:
    if not isinstance(node, ast.Call):
        return False
    fn = node.func
    return (isinstance(fn, ast.Name) and fn.id == "abs"
            or isinstance(fn, ast.Attribute) and fn.attr in ("abs", "absolute"))


def squared_moduli(source: str):
    """Line numbers at which `source` squares an `abs(...)` call."""
    return sorted({node.lineno for node in ast.walk(ast.parse(source))
                   if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Pow)
                   and _is_abs_call(node.left)
                   and isinstance(node.right, ast.Constant) and node.right.value == 2})


def test_detects_squared_moduli():
    source = ("a = np.abs(v) ** 2\nb = numpy.absolute(f.values) ** 2.0\n"
              "c = np.abs(v) ** 3\nd = abs(z) ** 2\ne = np.abs(v)\n"
              "g = (x - y) ** 2\nh = np.sum(np.abs(v) ** 2)\n")
    assert squared_moduli(source) == [1, 2, 4, 7]


@pytest.mark.parametrize("path", sorted(p for p in PACKAGE.rglob("*.py") if p != MASS_HOME),
                         ids=lambda p: str(p.relative_to(ROOT)))
def test_no_squared_modulus_outside_field(path):
    assert squared_moduli(path.read_text()) == []
