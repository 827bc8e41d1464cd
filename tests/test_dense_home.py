"""Every dense svd or eigh of a lattice block in `src/` is `transform.top_singular`.

The top of a lattice concentration block (the Gramian's sigma_max, the
prolate's mu, the two-impulse certificate's mu_max) is taken in one place,
which splits the block on its reflection halves, chooses the decomposition,
caps the order and returns the rounding floor.  This parses every module
under `src/` and fails on any use of `svd` or `eigh` from `scipy.linalg` or
`numpy.linalg` outside `transform.py`: an import such as
`from scipy.linalg import svd`, or an attribute access such as
`np.linalg.eigh(...)`, `scipy.linalg.svd(...)` or, through the loader that
imports scipy.linalg on first use, `scipy_linalg().eigh(...)`.

One use is allowed, by module and function: `solvers._smallest_ritz` falls
back to `np.linalg.eigh` on the Lanczos tridiagonal when LAPACK's
bisection (`stebz`) fails.  That matrix is the small Krylov projection of an operator,
not a lattice block: it has no reflection halves, no order cap and no
concentration floor to share.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "schrodlab"
DENSE_HOME = PACKAGE / "transform.py"
LINALG_MODULES = ("scipy.linalg", "numpy.linalg")
DENSE_SOLVERS = ("svd", "eigh")
ALLOWED = {("solvers.py", "_smallest_ritz")}  # (module, function)


def dense_uses(source: str):
    """(line, enclosing function or None) of each import of a dense svd or
    eigh in `source`, and of each attribute access `linalg.svd` or
    `linalg.eigh` (`np.linalg.eigh`, `scipy.linalg.svd`, ...) or
    `scipy_linalg().svd` or `scipy_linalg().eigh`."""
    uses = set()

    def visit(node, function):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node.name
        if isinstance(node, ast.ImportFrom):
            if node.module in LINALG_MODULES and any(alias.name in DENSE_SOLVERS
                                                     for alias in node.names):
                uses.add((node.lineno, function))
        elif isinstance(node, ast.Attribute) and node.attr in DENSE_SOLVERS:
            base = node.value
            loader = base.func if isinstance(base, ast.Call) else None
            if (isinstance(base, ast.Attribute) and base.attr == "linalg"
                    or isinstance(base, ast.Name) and base.id == "linalg"
                    or isinstance(loader, ast.Name) and loader.id == "scipy_linalg"
                    or isinstance(loader, ast.Attribute) and loader.attr == "scipy_linalg"):
                uses.add((node.lineno, function))
        for child in ast.iter_child_nodes(node):
            visit(child, function)

    visit(ast.parse(source), None)
    return sorted(uses, key=lambda use: use[0])


def test_detects_dense_imports():
    source = ("from scipy.linalg import eigh, svd\nfrom numpy.linalg import svd as s\n"
              "from scipy.linalg import eigh_tridiagonal\nfrom numpy.linalg import eigvalsh\n"
              "from scipy.linalg import lu_factor, eigh\n"
              # attribute access, inside a function or at module level
              "def top(block):\n"
              "    return np.linalg.eigh(block), scipy.linalg.svd(block)\n"
              "x = linalg.svd(a) + np.linalg.eigvalsh(a) + np.linalg.norm(a)\n"
              "y = model.svd(a) + numpy.linalg.svd(a)\n"
              "class Block:\n    def top(self):\n        return np.linalg.eigh(self.a)\n"
              # through the loader, bare or by module
              "z = scipy_linalg().eigh(a), transform.scipy_linalg().svd(a)\n"
              "w = scipy_linalg().eigh_tridiagonal(d, e), scipy_linalg().blas.zherk(1.0, a)\n")
    assert dense_uses(source) == [(1, None), (2, None), (5, None), (7, "top"),
                                  (8, None), (9, None), (12, "top"), (13, None)]


@pytest.mark.parametrize("path", sorted(p for p in PACKAGE.rglob("*.py") if p != DENSE_HOME),
                         ids=lambda p: str(p.relative_to(ROOT)))
def test_no_dense_svd_or_eigh_outside_transform(path):
    assert [use for use in dense_uses(path.read_text())
            if (path.name, use[1]) not in ALLOWED] == []


@pytest.mark.parametrize("module, function", sorted(ALLOWED))
def test_allowed_use_is_still_there(module, function):
    # an allowance whose use is gone would let a later one in unseen
    assert function in {use[1] for use in dense_uses((PACKAGE / module).read_text())}
