"""Golden outputs: cheap CLI runs must keep writing the same bytes.

Performance work and refactoring are meant to leave every output unchanged;
these runs pin that: a few chosen configurations, every control variant at
its defaults, and every experiment at its CLI defaults (an empty config).
The CSV must match byte for byte, and the JSON summary too once its
"versions" entry (numpy/scipy versions, which vary between environments) is
set aside.  A change that means to move an output regenerates the files of
the runs it moves, named as in RUNS,

    PYTHONPATH=src python tests/test_golden.py control-shifted_decay_null

(every run when no name is given; an unknown name is refused before any
file is written) and says so in CHANGES.md.
"""

import json
import sys
from pathlib import Path

import pytest

from schrodlab.cli import EXPERIMENTS, main

GOLDEN = Path(__file__).resolve().parent / "golden"
SEED = 7

# name -> (experiment, config text)
RUNS = {
    "empirical-constant": ("empirical-constant",
                           "grid.dim = 1\ngrid.L = 20.0\ngrid.M = 512\n"
                           "observability.radius = 2.0\n"
                           "observability.gaps = 1.0, 2.0\n"),
    "control-two_impulse": ("control-solve", "control.variant = two_impulse\n"),
    **{f"control-{variant}": ("control-solve", f"control.variant = {variant}\n")
       for variant in ("sobolev_dual_approx", "complement_approx", "ball_null",
                       "band_restricted", "shifted_decay_null")},
    **{f"defaults-{experiment}": (experiment, "") for experiment in EXPERIMENTS},
}


def run(name: str, directory: Path) -> Path:
    experiment, text = RUNS[name]
    cfg = directory / f"{name}.cfg"
    cfg.write_text(text)
    out = directory / f"{name}.csv"
    assert main([experiment, "--config", str(cfg), "--out", str(out),
                 "--seed", str(SEED)]) == 0
    return out


def _summary_without_versions(path: Path) -> dict:
    summary = json.loads(path.read_text())
    summary.pop("versions")
    return summary


@pytest.mark.parametrize("name", list(RUNS))
def test_output_matches_golden(name, tmp_path):
    out = run(name, tmp_path)
    golden = GOLDEN / f"{name}.csv"
    assert out.read_bytes() == golden.read_bytes()
    assert (_summary_without_versions(out.with_suffix(".json"))
            == _summary_without_versions(golden.with_suffix(".json")))


if __name__ == "__main__":
    names = sys.argv[1:] or list(RUNS)
    unknown = [name for name in names if name not in RUNS]
    if unknown:
        sys.exit(f"unknown golden run(s) {', '.join(unknown)}; "
                 f"the runs are {', '.join(RUNS)}")
    GOLDEN.mkdir(exist_ok=True)
    for key in names:
        run(key, GOLDEN).with_suffix(".cfg").unlink()
