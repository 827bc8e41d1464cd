"""Every FFT in `src/` goes through `transform`.

The continuum normalization and the FFT ordering of the lattice live in one
module; an FFT written anywhere else bypasses both.  This parses every
module under `src/` and fails on any use of `numpy.fft` or `scipy.fft`
outside `transform.py`: an attribute access such as `np.fft.ifftn`, or an
import of either module.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "schrodlab"
FFT_HOME = PACKAGE / "transform.py"
FFT_MODULES = ("numpy.fft", "scipy.fft")


def fft_uses(source: str):
    """Line numbers at which `source` reaches for an FFT module."""
    lines = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Attribute) and node.attr == "fft":
            lines.add(node.lineno)
        elif isinstance(node, ast.Import):
            if any(alias.name.startswith(FFT_MODULES) for alias in node.names):
                lines.add(node.lineno)
        elif isinstance(node, ast.ImportFrom) and node.module:
            if node.module.startswith(FFT_MODULES) or any(
                    f"{node.module}.{alias.name}" in FFT_MODULES for alias in node.names):
                lines.add(node.lineno)
    return sorted(lines)


def test_detects_fft_uses():
    source = ("import numpy as np\nfrom numpy import fft\nimport scipy.fft\n"
              "from numpy.fft import ifftn\ny = np.fft.fftn(x)\nz = np.abs(x)\n")
    assert fft_uses(source) == [2, 3, 4, 5]


@pytest.mark.parametrize("path", sorted(p for p in PACKAGE.rglob("*.py") if p != FFT_HOME),
                         ids=lambda p: str(p.relative_to(ROOT)))
def test_no_fft_outside_transform(path):
    assert fft_uses(path.read_text()) == []
