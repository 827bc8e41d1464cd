"""Output checks: validity flags plus headline numbers against references
recorded from this repository's own outputs (`references.json`).

Each operation's CSV and JSON summary are reduced to three kinds of values:

* flags: booleans the program reports (`tail_ok`, `converged`,
  `bound_holds`, `all_ratios_ge_1`, ...); each must be true.
* headline numbers: compared to the reference within a tolerance class.
  A class accepts rounding-level differences in the FFT path and still
  rejects a wrong result; `record_references.py` measures both the
  seed-to-seed spread and the effect of an FFT perturbed by a few ulps
  (at this tolerance set's writing: at most 2.3e-9 relative outside the
  energy class, whose tiny values moved by about 1e-34 absolute).
* errors (oracle errors, chirp/bridge residuals, norm drift): lower is never
  wrong, so each may exceed its reference by at most `ERROR_ALLOWANCE`
  (relative, absolute); the absolute part covers rounding-level errors.

Solver residuals and iteration counts are not compared: they belong to the
per-layer counters of the traced run.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path
from typing import Dict, List, Tuple

# tolerance classes: |value - ref| <= rel * |ref| + abs
TOLERANCES = {
    # direct evaluations (quotients, fitted constants, costs)
    "value": (1e-6, 0.0),
    # energies of unit-scale fields, some far below rounding level (down to
    # 1e-113 and exact zeros); the absolute part is rounding relative to the
    # field's scale
    "energy": (1e-6, 1e-20),
    # Lanczos eigenvalues: the solver stops at an absolute Ritz residual of
    # 1e-11, which bounds the eigenvalue error; 1e-10 leaves a factor 10
    "eigenvalue": (1e-6, 1e-10),
    # 1/lambda_min, whose relative error is that of lambda_min: the
    # eigenvalue class allows 1.1e-4 relative at the smallest lambda here (9e-7)
    "constant": (2e-4, 0.0),
    # a calibrated C0 is a power of two times the safety factor
    "exact": (1e-12, 0.0),
}
ERROR_ALLOWANCE = (1e-6, 1e-10)


class OutputError(ValueError):
    """An operation's output files are missing or malformed."""


# (flags, headline {name: (value, tolerance class)}, errors)
Extracted = Tuple[Dict[str, bool], Dict[str, Tuple[float, str]], Dict[str, float]]


def _rows(csv_path: Path) -> List[Dict[str, str]]:
    with csv_path.open(newline="") as handle:
        return list(csv.DictReader(handle))


def _flag(text) -> bool:
    if isinstance(text, bool):
        return text
    return str(text).strip().lower() == "true"


def extract(experiment: str, csv_path: Path) -> Extracted:
    """Reduce one operation's outputs to (flags, headline, errors)."""
    json_path = csv_path.with_suffix(".json")
    try:
        rows = _rows(csv_path)
        summary = json.loads(json_path.read_text())["results"]
    except (OSError, KeyError, json.JSONDecodeError) as exc:
        raise OutputError(f"unreadable outputs {csv_path.name}: {exc}") from exc
    flags: Dict[str, bool] = {}
    headline: Dict[str, Tuple[float, str]] = {}
    errors: Dict[str, float] = {}
    validity = summary.get("validity", {})
    if "tail_ok" in validity:
        flags["tail_ok"] = _flag(validity["tail_ok"])

    def per_row(key_col: str, cols, tol: str):
        for row in rows:
            for col in cols:
                headline[f"{col}@{key_col}={row[key_col]}"] = (float(row[col]), tol)

    if experiment == "empirical-constant":
        for row in rows:
            gap = row["gap"]
            flags[f"converged@gap={gap}"] = _flag(row["converged"])
            headline[f"lambda_min@gap={gap}"] = (float(row["lambda_min"]), "eigenvalue")
            headline[f"constant@gap={gap}"] = (float(row["constant"]), "constant")
    elif experiment == "control-solve":
        row = rows[0]
        flags["bound_holds"] = _flag(summary["bound_holds"])
        headline["observation_weight"] = (float(row["observation_weight"]), "exact")
        headline["cost"] = (float(row["cost"]), "value")
        headline["bound_ratio"] = (float(row["bound_ratio"]), "value")
    elif experiment == "cost-scaling":
        flags["no_excluded_runs"] = summary["excluded_runs"] == 0
        flags["cost_increases_when_radius_doubles"] = _flag(
            summary["cost_increases_when_radius_doubles"])
        per_row("gap", ["observation_weight"], "exact")
        per_row("gap", ["normalized_cost"], "value")
        headline["fit_slope"] = (summary["fit_log_cost_vs_stress"]["slope"], "value")
    elif experiment == "propagate":
        errors["max_norm_drift"] = summary["max_norm_drift"]
        errors["max_oracle_error"] = summary["max_oracle_error"]
    elif experiment == "verify-identity":
        errors["max_err_fresnel"] = summary["max_err_fresnel"]
        errors["max_err_spectral"] = summary["max_err_spectral"]
    elif experiment == "bridge":
        errors["max_bridge_residual"] = summary["max_bridge_residual"]
        errors["max_chirp_residual"] = summary["max_chirp_residual"]
        flags["scaled_ball_in_box"] = all(_flag(r["scaled_ball_in_box"]) for r in rows)
    elif experiment == "uncertainty":
        per_row("radius", ["lhs", "quotient"], "value")
        per_row("radius", ["outside_space", "outside_frequency"], "energy")
    elif experiment == "two-time-observability":
        per_row("gap", ["lhs", "observation_S", "observation_T", "quotient"], "value")
    elif experiment == "two-ball-13":
        per_row("separation", ["lhs"], "value")
        per_row("separation", ["observation", "prior"], "energy")
    elif experiment == "moment-34":
        for row in rows:
            headline[f"lhs@k={row['k']},T={row['T']}"] = (float(row["lhs"]), "value")
        for k in (1, 2):
            headline[f"growth_slope_k{k}"] = (summary[f"growth_slope_k{k}"], "value")
    elif experiment == "interpolation-12":
        per_row("scale", ["lhs", "observation", "prior"], "energy")
        headline["fitted_constant"] = (summary["fitted_constant"], "value")
        headline["fitted_theta"] = (summary["fitted_theta"], "value")
    elif experiment == "counterexample":
        family = summary["family"]
        cols = [c for c in rows[0] if c != "k"]
        per_row("k", cols, "energy")
        if family == "concentrating":
            slope = summary["slope_terminal_inside"]
            headline["slope_terminal_inside"] = (slope, "value")
            flags["slope_within_tolerance"] = (
                abs(slope - summary["expected_terminal_slope"])
                <= summary["slope_tolerance"])
    elif experiment == "spectral-ineq-27":
        flags["all_ratios_ge_1"] = _flag(summary["all_ratios_ge_1"])
        for row in rows:
            headline[f"extremal_ratio@r={row['r']},N={row['N']}"] = (
                float(row["extremal_ratio"]), "value")
    else:
        raise OutputError(f"no output check defined for {experiment!r}")
    return flags, headline, errors


def within(value: float, ref: float, tol: str) -> bool:
    rel, absolute = TOLERANCES[tol]
    if math.isinf(ref) or math.isinf(value):
        return value == ref
    return abs(value - ref) <= rel * abs(ref) + absolute


def compare(label: str, extracted: Extracted, ref: dict) -> List[str]:
    """Problems of one operation's extracted values against its reference."""
    flags, headline, errors = extracted
    problems = [f"{label}: flag {name} is false"
                for name, ok in flags.items() if not ok]
    for name in ref["flags"]:
        if name not in flags:
            problems.append(f"{label}: flag {name} missing")
    for name, ref_value in ref["headline"].items():
        if name not in headline:
            problems.append(f"{label}: {name} missing")
            continue
        value, tol = headline[name]
        if not within(value, ref_value, tol):
            problems.append(f"{label}: {name} = {value!r}, reference {ref_value!r} "
                            f"({tol} tolerance)")
    rel, absolute = ERROR_ALLOWANCE
    for name, ref_value in ref["errors"].items():
        value = errors.get(name)
        ceiling = ref_value * (1.0 + rel) + absolute
        if value is None or not value <= ceiling:
            problems.append(f"{label}: {name} = {value!r} above {ceiling:.3e}")
    return problems


def check(label: str, experiment: str, csv_path: Path,
          references: Dict[str, dict]) -> List[str]:
    """Return the list of problems with one operation's outputs (empty = ok)."""
    if label not in references:
        return [f"{label}: no reference recorded"]
    try:
        extracted = extract(experiment, csv_path)
    except (OutputError, KeyError, IndexError, ValueError) as exc:
        return [f"{label}: {exc}"]
    return compare(label, extracted, references[label])
