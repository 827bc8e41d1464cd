"""Every unit-norm field in `src/` comes from `field.normalized`.

Dividing values by the `l2_norm` of a throwaway Field builds two Fields and
restates the lattice norm; `normalized` builds one.  This parses every
module under `src/` and fails on any division by an `l2_norm(...)` call
outside `field.py`: `x / l2_norm(f)`, `x /= l2_norm(f)`, or the attribute
form `x / field.l2_norm(f)`.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "schrodlab"
NORM_HOME = PACKAGE / "field.py"


def _is_l2_norm_call(node) -> bool:
    if not isinstance(node, ast.Call):
        return False
    fn = node.func
    return (isinstance(fn, ast.Name) and fn.id == "l2_norm"
            or isinstance(fn, ast.Attribute) and fn.attr == "l2_norm")


def norm_divisions(source: str):
    """Line numbers at which `source` divides by an `l2_norm(...)` call."""
    lines = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.Div):
            divisor = node.right if isinstance(node, ast.BinOp) else node.value
            if _is_l2_norm_call(divisor):
                lines.add(node.lineno)
    return sorted(lines)


def test_detects_norm_divisions():
    source = ("a = f.values / l2_norm(f)\nb = v / field.l2_norm(Field(g, v))\n"
              "c = l2_norm(f) / 2.0\nd = l2_norm(f) ** 2\nv /= l2_norm(f)\n"
              "e = v * l2_norm(f)\ng = v // l2_norm(f)\n")
    assert norm_divisions(source) == [1, 2, 5]


@pytest.mark.parametrize("path", sorted(p for p in PACKAGE.rglob("*.py") if p != NORM_HOME),
                         ids=lambda p: str(p.relative_to(ROOT)))
def test_no_norm_division_outside_field(path):
    assert norm_divisions(path.read_text()) == []
