"""Every dense svd or eigh in `src/` is `transform.top_singular`.

The top of a lattice concentration block (the Gramian's sigma_max, the
prolate's mu, the two-impulse certificate's mu_max) is taken in one place,
which splits the block on its reflection halves and chooses the
decomposition.  This parses every module under `src/` and fails on any
import of `svd` or `eigh` from `scipy.linalg` or `numpy.linalg` outside
`transform.py`.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "schrodlab"
DENSE_HOME = PACKAGE / "transform.py"
LINALG_MODULES = ("scipy.linalg", "numpy.linalg")
DENSE_SOLVERS = ("svd", "eigh")


def dense_imports(source: str):
    """Line numbers at which `source` imports a dense svd or eigh."""
    return sorted(node.lineno for node in ast.walk(ast.parse(source))
                  if isinstance(node, ast.ImportFrom) and node.module in LINALG_MODULES
                  and any(alias.name in DENSE_SOLVERS for alias in node.names))


def test_detects_dense_imports():
    source = ("from scipy.linalg import eigh, svd\nfrom numpy.linalg import svd as s\n"
              "from scipy.linalg import eigh_tridiagonal\nfrom numpy.linalg import eigvalsh\n"
              "from scipy.linalg import lu_factor, eigh\n")
    assert dense_imports(source) == [1, 2, 5]


@pytest.mark.parametrize("path", sorted(p for p in PACKAGE.rglob("*.py") if p != DENSE_HOME),
                         ids=lambda p: str(p.relative_to(ROOT)))
def test_no_dense_svd_or_eigh_outside_transform(path):
    assert dense_imports(path.read_text()) == []
