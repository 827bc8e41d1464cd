#!/usr/bin/env python3
"""schrodlab benchmark: a closed loop over `schrodlab.cli.main`.

One client in one process runs a workload's operations back to back (CLI
`--threads 1`, BLAS/OpenMP threads set to the usable cores) for
`--seconds`, one pass after another, and checks every operation's output.

    python3 perfbench/run.py --workload gramian --seed 1 --seconds 25 --trace 0

`--trace 0` reports the end-to-end metrics; `--trace 1` alternates untraced
and traced passes and reports the per-layer metrics with the tracing
overhead.  The last line of standard output is one JSON object
{"correct", "attempted", "failed", "metrics"}; the lines above it print every
metric by name with its unit.  A fuller record (environment, per-operation
times, quartiles, failures) goes to `perfbench/out/`, and a traced run also
writes its spans there.

Run from a checkout of the repository: the program is imported from its
`src/` directory, never from an installed copy.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Sequence

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
REFERENCES = HERE / "references.json"

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_PROBES = 5
MIN_PASSES = 3
PROBE_TIMEOUT_S = 120

sys.path.insert(0, str(HERE))
from workloads import WARMUP, WORKLOADS  # noqa: E402  (no numpy import)


def set_threads() -> Dict[str, str]:
    """Set BLAS/OpenMP threads to the usable cores, whatever the caller's
    environment holds; must run before numpy is imported."""
    cores = str(len(os.sched_getaffinity(0)))
    for var in THREAD_VARS:
        os.environ[var] = cores
    return {var: cores for var in THREAD_VARS}


def import_program():
    """Import schrodlab from this checkout's source tree."""
    if not (SRC / "schrodlab" / "__init__.py").is_file():
        raise SystemExit(f"error: no program source at {SRC.relative_to(ROOT)}/schrodlab; "
                         "run from a checkout of the repository")
    sys.path.insert(0, str(SRC))
    import schrodlab.cli
    location = Path(schrodlab.__file__).resolve()
    if SRC not in location.parents:
        raise SystemExit(f"error: schrodlab was imported from {location}, not from {SRC}")
    return schrodlab.cli


# ---------------------------------------------------------------------------
# operations


class Runner:
    """Runs operations through cli.main with config files written once."""

    def __init__(self, cli, ops, seed: int, out_dir: Path):
        self.cli = cli
        self.seed = seed
        out_dir.mkdir(parents=True, exist_ok=True)
        self.paths = {}
        for label, _, config in ops:
            stem = label.replace("/", "__")
            config_path = out_dir / f"{stem}.config.json"
            config_path.write_text(json.dumps(config, indent=1, sort_keys=True))
            self.paths[label] = (config_path, out_dir / f"{stem}.csv")

    def run(self, op, tracer=None, op_id: int = 0) -> dict:
        """Run one operation; time only the cli.main call, and with a tracer
        record it as the operation's root span `cli.<experiment>`."""
        label, experiment, _ = op
        config_path, csv_path = self.paths[label]
        for stale in (csv_path, csv_path.with_suffix(".json")):
            stale.unlink(missing_ok=True)
        argv = [experiment, "--config", str(config_path), "--out", str(csv_path),
                "--seed", str(self.seed), "--threads", "1"]
        stderr = io.StringIO()
        error = None
        t0, c0 = time.perf_counter(), time.process_time()
        span = tracer.start_operation(op_id, f"cli.{experiment}") if tracer else None
        try:
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(stderr):
                code = self.cli.main(argv)
        except SystemExit as exc:
            code = exc.code
        except Exception as exc:  # the program crashed: record, keep measuring
            code, error = None, f"{type(exc).__name__}: {exc}"
        finally:
            if span is not None:
                tracer.close(span)
        wall, cpu = time.perf_counter() - t0, time.process_time() - c0
        if code != 0 and error is None:
            tail = stderr.getvalue().strip().splitlines()
            error = f"exit {code}: {tail[-1] if tail else ''}"
        return {"label": label, "experiment": experiment, "exit": code,
                "error": error, "wall_s": wall, "cpu_s": cpu, "csv": csv_path}


def run_pass(runner: Runner, ops, references, tracer=None, pass_id: int = 0) -> dict:
    import checks

    results = []
    for index, op in enumerate(ops):
        result = runner.run(op, tracer, pass_id * len(ops) + index)
        if result["error"] is None:
            problems = checks.check(result["label"], result["experiment"],
                                    result["csv"], references)
        else:
            problems = [f"{result['label']}: {result['error']}"]
        result["problems"] = problems
        results.append(result)
    return {"wall_s": sum(r["wall_s"] for r in results),
            "cpu_s": sum(r["cpu_s"] for r in results),
            "ops": results}


# ---------------------------------------------------------------------------
# set-up time: fresh processes through import and one warm-up operation


def setup_probe(workload: str, seed: int) -> int:
    cli = import_program()
    op = WARMUP[workload]
    runner = Runner(cli, [op], seed, OUT / "probe")
    result = runner.run(op)
    if result["error"] is not None:
        print(f"error: warm-up failed: {result['error']}", file=sys.stderr)
        return 1
    return 0


def measure_setup(workload: str, seed: int) -> List[float]:
    times = []
    argv = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
            "--workload", workload, "--seed", str(seed)]
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        try:
            proc = subprocess.run(argv, cwd=ROOT, stdout=subprocess.DEVNULL,
                                  stderr=subprocess.PIPE, text=True,
                                  timeout=PROBE_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            raise SystemExit("error: set-up probe timed out") from None
        if proc.returncode != 0:
            raise SystemExit(f"error: set-up probe failed: {proc.stderr.strip()}")
        times.append(time.perf_counter() - t0)
    return times


# ---------------------------------------------------------------------------
# metrics


def quartiles(values: Sequence[float]) -> Dict[str, float]:
    ordered = sorted(values)
    if len(ordered) == 1:
        q1 = q3 = ordered[0]
    else:
        q1, _, q3 = statistics.quantiles(ordered, n=4, method="inclusive")
    return {"median": statistics.median(ordered), "q1": q1, "q3": q3,
            "samples": len(ordered)}


def environment(thread_env: Dict[str, str]) -> dict:
    import numpy
    import scipy
    import scipy.fft

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as handle:
            cpu = next((line.split(":", 1)[1].strip() for line in handle
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "cpu_model": cpu,
        "nproc": len(os.sched_getaffinity(0)),
        "memory_gb": round(os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES") / 2**30, 2),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "thread_env": thread_env,
        "fft": {"numpy.fft": "pocketfft, single-threaded",
                "scipy.fft.get_workers": scipy.fft.get_workers()},
        "cli_threads": 1,
        "loop": "closed, one client, one process",
    }


def experiments() -> List[str]:
    names = []
    for ops in WORKLOADS.values():
        for _, experiment, _ in ops:
            if experiment not in names:
                names.append(experiment)
    return names


def layer_metrics(summary: Dict[str, Dict[str, float]]) -> Dict[str, float]:
    """The per-layer metrics of one traced pass, from Tracer.summarize()."""
    def get(name: str, key: str) -> float:
        return float(summary.get(name, {}).get(key, 0.0))

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    m: Dict[str, float] = {}
    pv = "transform.propagate_values"
    for key in ("calls", "self_s", "points", "computed_bytes"):
        m[f"{pv}.{key}"] = get(pv, key)
    for fn in ("dft", "idft", "fresnel_map", "bandlimited_interpolate"):
        for key in ("calls", "self_s"):
            m[f"transform.{fn}.{key}"] = get(f"transform.{fn}", key)
    for solver in ("solvers.lanczos_smallest", "solvers.conjugate_gradient"):
        for key in ("calls", "iterations", "matvecs", "self_s", "total_s"):
            m[f"{solver}.{key}"] = get(solver, key)
        m[f"{solver}.converged_ratio"] = ratio(get(solver, "converged"),
                                               get(solver, "calls"))
    calib, margin = "control.calibrate_observation_weight", "control.observability_margin"
    m[f"{calib}.calls"] = get(calib, "calls")
    m[f"{calib}.total_s"] = get(calib, "total_s")
    m[f"{calib}.margins_per_call"] = ratio(get(margin, "calls"), get(calib, "calls"))
    m[f"{margin}.calls"] = get(margin, "calls")
    m[f"{margin}.total_s"] = get(margin, "total_s")
    for name in ("control.solve_control", "inequalities.empirical_constant",
                 "inequalities.extremal_bandlimited_concentration",
                 "inequalities.spectral_inequality_report",
                 "inequalities.bandlimited_sample", "counterexamples.decay_study"):
        for key in ("calls", "self_s", "total_s"):
            m[f"{name}.{key}"] = get(name, key)
    m["field.Field.constructions"] = get("field.Field", "calls")
    m["field.Field.check_s"] = get("field.Field", "self_s")
    for key in ("calls", "self_s"):
        m[f"field.Region.indicator.{key}"] = get("field.Region.indicator", key)
    for key in ("calls", "total_s", "bytes"):
        m[f"cli.write_outputs.{key}"] = get("cli.write_outputs", key)
    for experiment in experiments():
        m[f"cli.{experiment}.total_s"] = get(f"cli.{experiment}", "total_s")
    return m


def unit_of(name: str) -> str:
    if name == "peak_rss_mb":
        return "MiB"
    if name.endswith("_s"):
        return "s"
    if name.endswith("bytes"):
        return "B"
    if name.endswith(("_ratio", "margins_per_call")):
        return "ratio"
    return "count"


# ---------------------------------------------------------------------------
# entry point


def main(argv: Sequence[str] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    thread_env = set_threads()
    if args.setup_probe:
        return setup_probe(args.workload, args.seed)

    cli = import_program()
    references = json.loads(REFERENCES.read_text())
    setup_times = [] if args.trace else measure_setup(args.workload, args.seed)

    ops = WORKLOADS[args.workload]
    runner = Runner(cli, ops + [WARMUP[args.workload]], args.seed, OUT / args.workload)
    warm = runner.run(WARMUP[args.workload])
    if warm["error"] is not None:
        raise SystemExit(f"error: warm-up failed: {warm['error']}")

    import tracing

    # trace 1 alternates an untraced and a traced pass, so the overhead is
    # measured under the same machine conditions; it first runs one untimed
    # pass, because its pass counts are too few for a median to drop the
    # first pass's cold per-grid caches
    tracer = tracing.Tracer()
    untraced, traced, layer_rows = [], [], []
    warm_passes = [run_pass(runner, ops, references)] if args.trace else []
    min_passes = 1 if args.trace else MIN_PASSES
    deadline = time.perf_counter() + args.seconds
    while time.perf_counter() < deadline or len(untraced) < min_passes:
        untraced.append(run_pass(runner, ops, references))
        if args.trace:
            tracer.reset()
            tracer.install()
            try:
                traced.append(run_pass(runner, ops, references, tracer, len(traced)))
            finally:
                tracer.uninstall()
            layer_rows.append(layer_metrics(tracer.summarize()))

    all_ops = [r for p in warm_passes + untraced + traced for r in p["ops"]]
    problems = [msg for r in all_ops for msg in r["problems"]]
    failed = sum(1 for r in all_ops if r["problems"])
    attempted = len(all_ops)
    wall = quartiles([p["wall_s"] for p in untraced])
    cpu = quartiles([p["cpu_s"] for p in untraced])
    op_wall, op_cpu = {}, {}
    for r in (r for p in untraced for r in p["ops"]):
        op_wall.setdefault(r["label"], []).append(r["wall_s"])
        op_cpu.setdefault(r["label"], []).append(r["cpu_s"])

    if args.trace:
        metrics = {name: statistics.median(row[name] for row in layer_rows)
                   for name in layer_rows[0]}
        traced_wall = statistics.median(p["wall_s"] for p in traced)
        metrics["trace.untraced_wall_s"] = wall["median"]
        metrics["trace.traced_wall_s"] = traced_wall
        metrics["trace.overhead_ratio"] = traced_wall / wall["median"]
        metrics["trace.spans"] = float(len(tracer.spans))
    else:
        metrics = {
            "wall_s": wall["median"],
            "cpu_s": cpu["median"],
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "setup_s": statistics.median(setup_times),
            "ok_ratio": 1.0 - failed / attempted,
        }
    report = {name: {"value": value, "unit": unit_of(name)}
              for name, value in metrics.items()}

    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "environment": environment(thread_env),
        "wall_s": wall, "cpu_s": cpu, "setup_s": setup_times,
        "passes": {"untraced": len(untraced), "traced": len(traced)},
        "op_wall_s": {label: quartiles(v) for label, v in op_wall.items()},
        "op_cpu_s": {label: quartiles(v) for label, v in op_cpu.items()},
        "attempted": attempted, "failed": failed, "problems": problems,
        "metrics": report,
    }
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT / f"result-{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    if args.trace:
        with (OUT / f"spans-{stem}.jsonl").open("w") as handle:
            for span in tracer.spans:
                handle.write(json.dumps(span) + "\n")

    print(f"workload {args.workload}  seed {args.seed}  passes {len(untraced)} untraced, "
          f"{len(traced)} traced  ops {attempted} attempted, {failed} failed")
    for name, q in (("wall_s", wall), ("cpu_s", cpu)):
        print(f"{name} per untraced pass: median {q['median']:.4f}  q1 {q['q1']:.4f}  "
              f"q3 {q['q3']:.4f}  n {q['samples']}")
    if setup_times:
        print("setup_s per probe: " + " ".join(f"{t:.4f}" for t in setup_times))
    for msg in problems[:20]:
        print(f"FAILED {msg}")
    for name, entry in report.items():
        print(f"{name} = {entry['value']:.6g} {entry['unit']}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": report}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
