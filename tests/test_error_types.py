"""No library failure is a bare `RuntimeError`.

`cli.main` maps an exception to its exit code by type alone: a `ValueError`
refuses the inputs (exit 2), a `solvers.SolverFailure` is an unresolved
answer (exit 3), and anything else is a bug.  A bare `RuntimeError` says
none of these, so this parses every module under `src/` and fails on any
`raise RuntimeError`; a bug class such as `IndefiniteOperatorError` is named.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "schrodlab"


def runtime_error_raises(source: str):
    """Line numbers at which `source` raises a bare RuntimeError."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Raise) and node.exc is not None:
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            if isinstance(exc, ast.Name) and exc.id == "RuntimeError":
                lines.append(node.lineno)
    return sorted(lines)


def test_detects_runtime_error_raises():
    source = ("raise RuntimeError('a')\nraise RuntimeError\nraise ValueError('b')\n"
              "raise SolverFailure('c')\nclass Bug(RuntimeError):\n    pass\nraise\n")
    assert runtime_error_raises(source) == [1, 2]


@pytest.mark.parametrize("path", sorted(PACKAGE.rglob("*.py")),
                         ids=lambda p: str(p.relative_to(ROOT)))
def test_no_bare_runtime_error(path):
    assert runtime_error_raises(path.read_text()) == []
