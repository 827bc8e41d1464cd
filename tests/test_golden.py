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
import os
import subprocess
import sys
from pathlib import Path

import pytest

from schrodlab.cli import EXPERIMENTS, main

GOLDEN = Path(__file__).resolve().parent / "golden"
SRC = Path(__file__).resolve().parent.parent / "src"
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
    **{f"counterexample-{family}": ("counterexample", f"counterexample.family = {family}\n")
       for family in ("time_reversed", "modulated")},
}


def arguments(name: str, directory: Path) -> list:
    """The CLI arguments of run `name`, its config written to `directory`
    and its output named `<name>.csv` there."""
    experiment, text = RUNS[name]
    cfg = directory / f"{name}.cfg"
    cfg.write_text(text)
    return [experiment, "--config", str(cfg), "--out", str(directory / f"{name}.csv"),
            "--seed", str(SEED)]


def run(name: str, directory: Path) -> Path:
    assert main(arguments(name, directory)) == 0
    return directory / f"{name}.csv"


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


@pytest.mark.parametrize("name", ["control-two_impulse", "defaults-cost-scaling"])
def test_output_does_not_depend_on_the_blas_thread_count(name, tmp_path):
    # each in a fresh process, since OpenBLAS reads the variable when it loads
    outputs = []
    for count in ("1", "2"):
        directory = tmp_path / count
        directory.mkdir()
        path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
        env = {**os.environ, "OPENBLAS_NUM_THREADS": count, "PYTHONPATH": path}
        done = subprocess.run([sys.executable, "-m", "schrodlab.cli",
                               *arguments(name, directory)],
                              env=env, capture_output=True, text=True, timeout=300)
        assert done.returncode == 0, done.stderr
        out = directory / f"{name}.csv"
        outputs.append((out.read_bytes(), _summary_without_versions(out.with_suffix(".json"))))
    assert outputs[0] == outputs[1]


if __name__ == "__main__":
    names = sys.argv[1:] or list(RUNS)
    unknown = [name for name in names if name not in RUNS]
    if unknown:
        sys.exit(f"unknown golden run(s) {', '.join(unknown)}; "
                 f"the runs are {', '.join(RUNS)}")
    GOLDEN.mkdir(exist_ok=True)
    for key in names:
        run(key, GOLDEN).with_suffix(".cfg").unlink()
