"""Every imported name is read by the module that imports it.

No linter ships with the project, so this parses each module under `src/`,
`tests/` and `tools/` and fails on an import nothing in the module uses.  Future
imports and the package `__init__` (whose imports are re-exports) are
exempt.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted(path for folder in ("src", "tests", "tools")
                 for path in (ROOT / folder).rglob("*.py")
                 if path != ROOT / "src" / "schrodlab" / "__init__.py")


def unused_imports(source: str):
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                # `import a.b` binds `a`
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return sorted((line, name) for name, line in imported.items() if name not in read)


def test_detects_an_unused_import():
    assert unused_imports("import os\nimport sys\nprint(sys.argv)\n") == [(1, "os")]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: str(p.relative_to(ROOT)))
def test_every_import_is_read(path):
    assert unused_imports(path.read_text()) == []
