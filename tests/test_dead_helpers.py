"""Every module-level private helper in `src/` is read somewhere in `src/`.

A private function, class or assignment (a name starting with one
underscore) is not part of the package's interface, so when no module under
`src/` reads it, it is dead code.  This parses every module under `src/`,
collects the private names each defines at module level, and fails on those
that no module reads (as a name, an attribute or an imported name).
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted((ROOT / "src").rglob("*.py"))


def _private(name: str) -> bool:
    return name.startswith("_") and not name.startswith("__")


def defined_helpers(tree: ast.Module):
    """(line, name) of each private name bound by a top-level statement."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [name.id for target in targets for name in ast.walk(target)
                     if isinstance(name, ast.Name)]
        else:
            continue
        yield from ((node.lineno, name) for name in names if _private(name))


def read_names(tree: ast.Module):
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.ImportFrom):
            yield from (alias.name for alias in node.names)


def dead_helpers(sources):
    """(label, line, name) of each private module-level name that none of
    `sources` (label -> source text) reads."""
    trees = {label: ast.parse(text) for label, text in sources.items()}
    read = {name for tree in trees.values() for name in read_names(tree)}
    return sorted((label, line, name) for label, tree in trees.items()
                  for line, name in defined_helpers(tree) if name not in read)


def test_detects_a_dead_helper():
    sources = {"a": "_USED = 1\n_UNUSED = 2\n\ndef _helper():\n    return _USED\n",
               "b": "from a import _helper\n\nclass _Gone:\n    pass\n"}
    assert dead_helpers(sources) == [("a", 2, "_UNUSED"), ("b", 3, "_Gone")]


def test_every_private_helper_is_read():
    sources = {str(path.relative_to(ROOT)): path.read_text() for path in SOURCES}
    assert dead_helpers(sources) == []
