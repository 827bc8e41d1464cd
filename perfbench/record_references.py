#!/usr/bin/env python3
"""Record the output references the benchmark checks against.

Runs every operation of every workload for several seeds, then once more
with rounding-level noise added to every `numpy.fft.fftn/ifftn` result (a
stand-in for a changed FFT path; `scipy.fft` shares numpy's pocketfft and
gives the same bits).  It prints the largest deviation of each tolerance
class from the seed-0 values and the check problems of every run, and with
`--write` stores the seed-0 values in references.json (errors: the largest
value seen).

    python3 perfbench/record_references.py            # report only
    python3 perfbench/record_references.py --write    # also rewrite references
"""

from __future__ import annotations

import argparse
import json
import sys
from collections import defaultdict

import run

SEEDS = (0, 1, 2)
# noise per FFT output entry, relative to the output's root mean square:
# about two ulps, the size of an FFT's own rounding error
PERTURBATION = 4e-16


def collect(runner, ops):
    import checks

    values = {}
    for op in ops:
        result = runner.run(op)
        if result["error"] is not None:
            raise SystemExit(f"{op[0]}: {result['error']}")
        values[op[0]] = checks.extract(op[1], result["csv"])
    return values


def perturbed(fn, rng, numpy):
    def apply(x, *args, **kwargs):
        out = fn(x, *args, **kwargs)
        noise = rng.standard_normal(out.shape) + 1j * rng.standard_normal(out.shape)
        rms = numpy.sqrt(numpy.mean(numpy.abs(out) ** 2))
        return out + PERTURBATION * rms * noise
    return apply


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--write", action="store_true")
    args = parser.parse_args()
    run.set_threads()
    cli = run.import_program()
    import numpy

    import checks

    ops = [op for workload_ops in run.WORKLOADS.values() for op in workload_ops]
    runs = {}
    for seed in SEEDS:
        runner = run.Runner(cli, ops, seed, run.OUT / f"references-{seed}")
        runs[f"seed {seed}"] = collect(runner, ops)
    original = (numpy.fft.fftn, numpy.fft.ifftn)
    rng = numpy.random.default_rng(12345)
    numpy.fft.fftn, numpy.fft.ifftn = (perturbed(fn, rng, numpy) for fn in original)
    try:
        runner = run.Runner(cli, ops, 0, run.OUT / "references-perturbed")
        runs["seed 0, perturbed FFT"] = collect(runner, ops)
    finally:
        numpy.fft.fftn, numpy.fft.ifftn = original

    references = {}
    for label, (flags, headline, errors) in runs["seed 0"].items():
        references[label] = {
            "flags": sorted(flags),
            "headline": {name: value for name, (value, _) in headline.items()},
            "errors": {name: max(r[label][2][name] for r in runs.values())
                       for name in errors},
        }

    for name, values in runs.items():
        worst = defaultdict(lambda: (0.0, ""))
        for label, (_, headline, _) in values.items():
            for key, (value, tol) in headline.items():
                ref = references[label]["headline"][key]
                dev = abs(value - ref) / abs(ref) if ref else abs(value)
                if dev > worst[tol][0]:
                    worst[tol] = (dev, f"{label} {key}")
        print(f"{name}: largest relative deviation by tolerance class")
        for tol, (dev, where) in sorted(worst.items()):
            print(f"  {tol:10s} {dev:.3e}  {where}")
        problems = [msg for label, extracted in values.items()
                    for msg in checks.compare(label, extracted, references[label])]
        print(f"  check problems: {problems or 'none'}")
    if args.write:
        run.REFERENCES.write_text(json.dumps(references, indent=1, sort_keys=True) + "\n")
        print(f"wrote {run.REFERENCES.relative_to(run.ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
