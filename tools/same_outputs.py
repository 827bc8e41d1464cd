"""Show that two source trees write the same outputs on every benchmark
operation.

    python tools/same_outputs.py PARENT CHANGE

PARENT and CHANGE are checkouts of this repository.  The operations are
those of CHANGE's `perfbench/workloads.py`, loaded as a module (nothing is
written under `perfbench/`).  For each operation and each seed in SEEDS (the
benchmark's seed and one held out), each tree runs it as
`python -m schrodlab.cli EXPERIMENT --config ... --seed S --threads 1` in a
fresh process with that tree's `src` alone on PYTHONPATH.  The CSVs are
compared byte for byte, and the JSON summaries key by key with their
`versions` entry set aside.  Every file and key that differs is printed,
with the two values, and the exit status is 1 if any does (0 otherwise).
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import Iterator, List, Sequence, Tuple

# the benchmark's seed and a held-out one
SEEDS = (1, 5)


def load_operations(tree: Path) -> List[Tuple[str, str, dict]]:
    """Every (label, experiment, config) of the tree's benchmark workloads."""
    sys.dont_write_bytecode = True
    spec = importlib.util.spec_from_file_location(
        "benchmark_workloads", tree / "perfbench" / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return [op for ops in module.WORKLOADS.values() for op in ops]


def run(tree: Path, experiment: str, config: Path, out: Path, seed: int) -> int:
    """Exit status of one CLI run of `tree` in a fresh process."""
    env = {**os.environ, "PYTHONPATH": str(tree / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
    argv = [sys.executable, "-m", "schrodlab.cli", experiment, "--config", str(config),
            "--out", str(out), "--seed", str(seed), "--threads", "1"]
    return subprocess.run(argv, env=env, cwd=out.parent, stdout=subprocess.DEVNULL,
                          stderr=subprocess.DEVNULL).returncode


def differences(a, b, key: str = "") -> Iterator[Tuple[str, object, object]]:
    """(dotted key, a value, b value) of every leaf at which a and b differ."""
    if isinstance(a, dict) and isinstance(b, dict):
        for name in sorted(set(a) | set(b), key=str):
            path = f"{key}.{name}" if key else str(name)
            if name not in a or name not in b:
                yield path, a.get(name, "<absent>"), b.get(name, "<absent>")
            else:
                yield from differences(a[name], b[name], path)
    elif isinstance(a, list) and isinstance(b, list) and len(a) == len(b):
        for index, (x, y) in enumerate(zip(a, b)):
            yield from differences(x, y, f"{key}[{index}]")
    elif a != b or type(a) is not type(b):
        yield key, a, b


def summary(path: Path) -> dict:
    data = json.loads(path.read_text())
    data.pop("versions", None)
    return data


def compare(parent: Path, change: Path, work: Path) -> int:
    """Number of differences (exit statuses, CSVs, JSON keys); prints each."""
    differing = 0
    operations = load_operations(change)
    for label, experiment, config in operations:
        for seed in SEEDS:
            stem = f"{label.replace('/', '_')}-seed{seed}"
            config_path = work / f"{stem}.config.json"
            config_path.write_text(json.dumps(config, indent=1, sort_keys=True))
            outs, codes = [], []
            for side, tree in (("parent", parent), ("change", change)):
                (work / side).mkdir(exist_ok=True)
                outs.append(work / side / f"{stem}.csv")
                codes.append(run(tree, experiment, config_path, outs[-1], seed))
            found = []
            if codes[0] != codes[1]:
                found.append(f"  exit status: {codes[0]} -> {codes[1]}")
            csvs = [out.read_bytes() if out.exists() else None for out in outs]
            if csvs[0] != csvs[1]:
                found.append(f"  {stem}.csv: bytes differ")
            jsons = [out.with_suffix(".json") for out in outs]
            if all(path.exists() for path in jsons):
                found += [f"  {stem}.json: {key}: {a!r} -> {b!r}"
                          for key, a, b in differences(*map(summary, jsons))]
            elif any(path.exists() for path in jsons):
                found.append(f"  {stem}.json: written by one tree only")
            status = "differs" if found else "same"
            print(f"{label} seed {seed} (exit {codes[1]}): {status}", flush=True)
            for line in found:
                print(line, flush=True)
            differing += len(found)
    print(f"{len(operations)} operations x {len(SEEDS)} seeds: "
          f"{differing} differences", flush=True)
    return differing


def main(argv: Sequence[str] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path, help="checkout of the reference tree")
    parser.add_argument("change", type=Path, help="checkout of the changed tree")
    args = parser.parse_args(argv)
    trees = [tree.resolve() for tree in (args.parent, args.change)]
    for tree in trees:
        if not (tree / "src" / "schrodlab").is_dir():
            parser.error(f"{tree} has no src/schrodlab")
    with tempfile.TemporaryDirectory(prefix="same_outputs-") as work:
        return 1 if compare(*trees, Path(work)) else 0


if __name__ == "__main__":
    sys.exit(main())
