"""Experiment runner: every study as a subcommand with file configuration.

Output contract: each run writes one CSV (header row, one line per parameter
tuple, shortest round-trip float formatting) and one JSON summary (config
echo, seed, versions, validity flags, fitted constants).  Identical config
and seed produce byte-identical output, whatever the BLAS thread count and
--threads: BLAS runs on one thread in `main` and in each sweep worker.
`main` alone sets the exit code, by exception type: 0 success, 2 a
ValueError (inputs refused, the message naming the violated constraint), 3 a
SolverFailure or LinAlgError (an unresolved solve: non-convergence, or an
eigenvalue below its rounding floor); any other exception is a bug and stays
a traceback.
"""

from __future__ import annotations

import argparse
import json
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np
import scipy

from . import __version__
from .field import (Field, Grid, ball, ball_complement, box_tail_fraction,
                    gaussian_state, l2_norm, make_grid, normalized, GridError)
from .fitting import affine_fit
from .control import (VARIANTS, calibrate_observation_weight, cost_scaling_study,
                      problem_operators, solve_control, variant_problem)
from .counterexamples import SequenceSpec, base_profile, decay_study
from .inequalities import (bandlimited_sample, check_band_radius,
                           empirical_constant, equivalence_bridge_check,
                           euler_bound, euler_integral,
                           extremal_bandlimited_concentration,
                           fit_interpolation_12, interpolation_report_12,
                           moment_check_34, smallest_euler_constant,
                           spectral_inequality_report, two_ball_report_13,
                           two_time_quotient, uncertainty_quotient)
from .solvers import SolverFailure
from .transform import (BlockOrderError, bandlimited_interpolate, check_chirp,
                        fresnel_map, gaussian_oracle, one_blas_thread, propagate)


class ConfigError(ValueError):
    """Invalid or inconsistent experiment configuration."""


# ---------------------------------------------------------------------------
# configuration: flat dotted key-value text, or JSON when the extension says so


def _parse_scalar(text: str):
    text = text.strip()
    low = text.lower()
    if low in ("true", "false"):
        return low == "true"
    try:
        return int(text)
    except ValueError:
        pass
    try:
        return float(text)
    except ValueError:
        pass
    return text


def _parse_value(text: str):
    if "," in text:
        return [_parse_scalar(part) for part in text.split(",") if part.strip()]
    return _parse_scalar(text)


def _unique_object(pairs) -> Dict[str, object]:
    """json object_pairs_hook: a key repeated within one object is an error."""
    obj: Dict[str, object] = {}
    for key, value in pairs:
        if key in obj:
            raise ConfigError(f"key {key!r} repeats in one JSON object")
        obj[key] = value
    return obj


def _flatten(prefix: str, obj, out: Dict[str, object]):
    if isinstance(obj, dict):
        for key, value in obj.items():
            _flatten(f"{prefix}.{key}" if prefix else str(key), value, out)
    elif prefix in out:
        raise ConfigError(f"key {prefix!r} is set twice (nested objects "
                          f"flatten to dotted keys)")
    else:
        out[prefix] = obj


def load_config(path: str) -> Dict[str, object]:
    p = Path(path)
    try:
        text = p.read_text()
    except OSError as exc:
        raise ConfigError(f"config file {path!r} is not readable: {exc}") from exc
    if p.suffix.lower() == ".json":
        try:
            data = json.loads(text, object_pairs_hook=_unique_object)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config file {path!r} is not valid JSON: {exc}") from exc
        if not isinstance(data, dict):
            raise ConfigError(f"config file {path!r} must hold a JSON object, "
                              f"got {type(data).__name__}")
        flat: Dict[str, object] = {}
        _flatten("", data, flat)
        return flat
    config: Dict[str, object] = {}
    first_line: Dict[str, int] = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value', got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key in first_line:
            raise ConfigError(f"{path}:{lineno}: key {key!r} repeats line "
                              f"{first_line[key]}")
        first_line[key] = lineno
        config[key] = _parse_value(value)
    return config


# a key's type -> (its name in errors, the config values it accepts)
_KINDS = {float: ("a number", (int, float)), int: ("an integer", int),
          str: ("a string", str)}
# a range rule's name is its error text; every float key is also held finite
_RULES = {"positive": lambda v: v > 0, "non-negative": lambda v: v >= 0,
          "at least 1": lambda v: v >= 1, "in [0, 1]": lambda v: 0 <= v <= 1,
          "finite": np.isfinite}


def resolve(keys: Dict[str, object], values: Dict[str, object],
            experiment: str) -> Dict[str, object]:
    """Each declared key at its config value or else its default, type-checked:
    the default fixes the type (float, int, str, or a non-empty list of one;
    a scalar value reads as a one-item list).  A key declared as
    `(default, rule)` holds every item to that `_RULES` entry, and every float
    must be finite.  A key declared by its bare type is present only when set.
    A config key the table lacks is an error."""
    unknown = [key for key in values if key not in keys]
    if unknown:
        raise ConfigError(f"unknown config key(s) {', '.join(map(repr, unknown))} "
                          f"for experiment {experiment!r}; it reads {', '.join(keys)}")
    settings: Dict[str, object] = {}
    for key, entry in keys.items():
        default, kind, many, checks = _declared(entry)
        if isinstance(default, type) and key not in values:
            continue
        value = values.get(key, default)
        items = value if many and isinstance(value, list) else [value]
        noun, accepted = _KINDS[kind]
        if not items or any(isinstance(v, bool) or not isinstance(v, accepted)
                            for v in items):
            raise ConfigError(f"config key {key!r} must be {noun}"
                              f"{' list' if many else ''}, got {value!r}")
        items = [kind(v) for v in items]
        settings[key] = items if many else items[0]
        for check in checks:
            if not all(_RULES[check](v) for v in items):
                raise ConfigError(f"{key} must be {check}, got {settings[key]}")
    return settings


def _declared(entry):
    """A key-table entry as (default, kind, many, checks): the default (a
    value, a non-empty list, or a bare type for a key read only when set),
    the item type, whether the key is a list, and the `_RULES` names every
    item is held to."""
    default, rule = entry if isinstance(entry, tuple) else (entry, None)
    many = isinstance(default, list)
    kind = type(default[0]) if many else \
        default if isinstance(default, type) else type(default)
    checks = [check for check in (rule, "finite" if kind is float else None) if check]
    return default, kind, many, checks


def _grid_keys(half_extent: float, points: int) -> Dict[str, object]:
    return {"grid.dim": 1, "grid.L": (half_extent, "positive"), "grid.M": points}


def _grid_from(config: dict):
    try:
        return make_grid(config["grid.dim"], config["grid.L"], config["grid.M"])
    except GridError as exc:
        raise ConfigError(f"invalid grid: {exc}") from exc


def _check_tail(config: dict, reference: Field) -> Dict[str, object]:
    tol = config["tail_tolerance"]
    fraction = box_tail_fraction(reference)
    if not fraction <= tol:  # a NaN fraction fails too
        raise ConfigError(
            f"box too small: reference mass fraction {fraction:.3e} outside "
            f"[-L/2, L/2]^dim exceeds the tail tolerance {tol:.1e}"
        )
    return {"tail_fraction": fraction, "tail_tolerance": tol, "tail_ok": True}


def _gaussian_start(config: dict, sigma: float) -> Tuple[Grid, Field, Dict[str, object]]:
    """The config's grid, the Gaussian datum of width sigma on it, and the
    datum's tail check."""
    grid = _grid_from(config)
    u0 = gaussian_state(grid, sigma)
    return grid, u0, _check_tail(config, u0)


def _map_ordered(fn: Callable, items: Sequence, threads: int) -> List:
    if threads <= 1 or len(items) <= 1:
        return [fn(item) for item in items]

    def on_one_blas_thread(item):
        with one_blas_thread():
            return fn(item)
    with ThreadPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(on_one_blas_thread, items))


# ---------------------------------------------------------------------------
# experiments


@dataclass
class ExperimentResult:
    rows: List[Dict[str, object]]
    summary: Dict[str, object]


def _run_propagate(config: dict, seed: int, threads: int) -> ExperimentResult:
    sigma, times = config["propagate.sigma"], config["propagate.times"]
    grid, u0, validity = _gaussian_start(config, sigma)

    def one(t: float) -> Dict[str, object]:
        u_t = propagate(u0, t)
        oracle = gaussian_oracle(grid, t, sigma)
        return {
            "t": t,
            "norm_drift": abs(l2_norm(u_t) - l2_norm(u0)),
            "max_err_oracle": float(np.abs(u_t.values - oracle.values).max()),
        }

    rows = _map_ordered(one, times, threads)
    summary = {"validity": validity,
               "max_norm_drift": max(row["norm_drift"] for row in rows),
               "max_oracle_error": max(row["max_err_oracle"] for row in rows)}
    return ExperimentResult(rows, summary)


def _run_verify_identity(config: dict, seed: int, threads: int) -> ExperimentResult:
    grid = _grid_from(config)
    if grid.dim != 1:
        raise ConfigError("verify-identity interpolates on one-dimensional nodes; "
                          f"grid.dim must be 1, got {grid.dim}")
    sigma, times = config["fresnel.sigma"], config["fresnel.times"]
    compare_within = config["fresnel.compare_box_fraction"]
    u0 = gaussian_state(grid, sigma)
    validity = _check_tail(config, u0)
    for t in times:
        check_chirp(grid, t)

    def one(t: float) -> Dict[str, object]:
        out = fresnel_map(u0, t)
        oracle = gaussian_oracle(out.grid, t, sigma)
        err_fresnel = float(np.abs(out.values - oracle.values).max())
        spectral = propagate(u0, t)
        pts = out.grid.axis_nodes()
        inside = np.abs(pts) <= compare_within * grid.half_extent
        interp = bandlimited_interpolate(spectral, pts[inside])
        err_spectral = float(np.abs(out.values[inside] - interp).max())
        return {"M": grid.points_per_dim, "L": grid.half_extent, "T": t,
                "max_err_fresnel": err_fresnel, "max_err_spectral": err_spectral}

    rows = _map_ordered(one, times, threads)
    summary = {"validity": validity,
               "max_err_fresnel": max(r["max_err_fresnel"] for r in rows),
               "max_err_spectral": max(r["max_err_spectral"] for r in rows)}
    return ExperimentResult(rows, summary)


def _run_uncertainty(config: dict, seed: int, threads: int) -> ExperimentResult:
    grid, f, validity = _gaussian_start(config, config["uncertainty.sigma"])

    def one(rho: float) -> Dict[str, object]:
        report = uncertainty_quotient(f, ball(0.0, rho, dim=grid.dim),
                                      ball(0.0, rho, dim=grid.dim))
        return {"radius": rho, "lhs": report.lhs, **report.terms,
                "quotient": report.quotient}

    rows = _map_ordered(one, config["uncertainty.radii"], threads)
    return ExperimentResult(rows, {"validity": validity})


def _run_two_time(config: dict, seed: int, threads: int) -> ExperimentResult:
    s, gaps = config["observability.S"], config["observability.gaps"]
    grid, u0, validity = _gaussian_start(config, config["observability.sigma"])
    region = ball_complement(0.0, config["observability.radius"], dim=grid.dim)

    def one(gap: float) -> Dict[str, object]:
        report = two_time_quotient(u0, s, s + gap, region, region)
        return {"S": s, "T": s + gap, "gap": gap, "lhs": report.lhs,
                **report.terms, "quotient": report.quotient}

    rows = _map_ordered(one, gaps, threads)
    return ExperimentResult(rows, {"validity": validity})


def _run_empirical_constant(config: dict, seed: int, threads: int) -> ExperimentResult:
    grid = _grid_from(config)
    radius, gaps = config["observability.radius"], config["observability.gaps"]
    region = ball_complement(0.0, radius, dim=grid.dim)

    def one(gap: float) -> Dict[str, object]:
        try:
            result = empirical_constant(0.0, gap, region, region, grid)
        except BlockOrderError as exc:
            raise ConfigError(f"observability.radius = {radius:g}: {exc}") from exc
        return {"gap": gap, "lambda_min": result.lambda_min, "constant": result.constant,
                "floor": result.floor, "converged": result.converged}

    rows = _map_ordered(one, gaps, threads)
    failing = [row for row in rows if not row["converged"]]
    if failing:
        raise SolverFailure(
            "Gramian eigenvalue not resolved (below its rounding floor) at "
            + "; ".join(f"gap {row['gap']:g}: lambda_min {row['lambda_min']:.3e}, "
                        f"floor {row['floor']:.3e}" for row in failing))
    fit = affine_fit([1.0 / row["gap"] for row in rows],
                     [np.log(row["constant"]) for row in rows])
    summary = {"fit_log_constant_vs_inverse_gap": asdict(fit)}
    return ExperimentResult(rows, summary)


def _run_interpolation_12(config: dict, seed: int, threads: int) -> ExperimentResult:
    grid = _grid_from(config)
    r, a, t, scales = (config[f"interpolation.{k}"] for k in ("r", "a", "T", "scales"))
    if not ball_complement(0.0, r, dim=grid.dim).indicator(grid).any():
        raise ConfigError(
            f"interpolation.r = {r:g} leaves no node of the box [-L, L]^{grid.dim} "
            f"(L = {grid.half_extent:g}) outside B_r, so every observation is zero; "
            f"take r below the farthest node, |x| = {np.sqrt(grid.radius_sq().max()):.6g}")

    validity = _check_tail(config, base_profile(grid, "bump", max(scales)))

    def one(scale: float) -> Dict[str, object]:
        report = interpolation_report_12(base_profile(grid, "bump", scale), r, a, t)
        return {"scale": scale, "lhs": report.lhs,
                "observation": report.terms["observation"],
                "prior": report.terms["prior"]}

    rows = _map_ordered(one, scales, threads)
    fit = fit_interpolation_12(
        [(row["lhs"], row["observation"], row["prior"]) for row in rows],
        r, a, t, grid.dim)
    summary = {"validity": validity,
               "fitted_constant": fit.constant, "fitted_theta": fit.theta,
               "residual_spread": fit.spread}
    return ExperimentResult(rows, summary)


def _run_two_ball_13(config: dict, seed: int, threads: int) -> ExperimentResult:
    sigma, r1, r2, a, t, separations = (config[f"two_ball.{k}"] for k in (
        "sigma", "r1", "r2", "a", "T", "separations"))
    grid, u0, validity = _gaussian_start(config, sigma)

    def one(sep: float) -> Dict[str, object]:
        report = two_ball_report_13(u0, -sep / 2.0, sep / 2.0, r1, r2, a, t)
        return {"separation": sep, "lhs": report.lhs,
                "observation": report.terms["observation"],
                "prior": report.terms["prior"], "p": report.terms["p"]}

    rows = _map_ordered(one, separations, threads)
    return ExperimentResult(rows, {"validity": validity})


def _run_spectral_ineq(config: dict, seed: int, threads: int) -> ExperimentResult:
    grid = _grid_from(config)
    bands, samples = config["spectral.bands"], config["spectral.samples"]
    radii = config["spectral.radii"]
    check_band_radius(grid, max(bands))

    def one(band: float) -> List[Dict[str, object]]:
        # a sample's seed does not depend on r: draw and project each field
        # once and score it at every radius, holding one field at a time
        ratios = np.empty((len(radii), samples))
        for j in range(samples):
            f = bandlimited_sample(grid, band, seed=seed + 7919 * j)
            ratios[:, j] = [report.quotient for report
                            in spectral_inequality_report(f, radii, band)]
        rows = []
        for r, sampled in zip(radii, ratios):
            # iid samples verify ratio >= 1 but their maxima carry no rN trend;
            # the growth shape lives on the extremal concentrated field
            try:
                extremal = extremal_bandlimited_concentration(grid, r, band)
            except BlockOrderError as exc:
                raise ConfigError(f"spectral.radii {r:g}, spectral.bands {band:g}: "
                                  f"{exc}") from exc
            extremal_ratio = spectral_inequality_report(extremal, [r], band)[0].quotient
            rows.append({"r": r, "N": band, "rN": r * band,
                         "min_ratio": float(sampled.min()),
                         "max_random_ratio": float(sampled.max()),
                         "extremal_ratio": float(extremal_ratio),
                         "max_log_ratio": float(np.log(max(sampled.max(),
                                                           extremal_ratio)))})
        return rows

    rows = [row for same_r in zip(*_map_ordered(one, bands, threads)) for row in same_r]
    fit = affine_fit([row["rN"] for row in rows],
                     [row["max_log_ratio"] for row in rows])
    summary = {"all_ratios_ge_1": bool(all(row["min_ratio"] >= 1.0 for row in rows)),
               "fit_max_log_ratio_vs_rN": asdict(fit),
               "samples_per_tuple": samples}
    return ExperimentResult(rows, summary)


def _run_moment_34(config: dict, seed: int, threads: int) -> ExperimentResult:
    sigma, times = config["moment.sigma"], config["moment.times"]
    _, u0, validity = _gaussian_start(config, sigma)

    def one(pair) -> Dict[str, object]:
        k, t = pair
        check = moment_check_34(u0, t, k)
        return {"k": k, "T": t, **asdict(check), "ratio": check.ratio}

    rows = _map_ordered(one, [(k, t) for k in (1, 2) for t in times], threads)
    summary: Dict[str, object] = {"validity": validity}
    for k in (1, 2):
        sub = [row for row in rows if row["k"] == k]
        fit = affine_fit([np.log(1.0 + row["T"]) for row in sub],
                         [np.log(row["lhs"]) for row in sub])
        summary[f"growth_slope_k{k}"] = fit.slope
        summary[f"growth_r_squared_k{k}"] = fit.r_squared
    return ExperimentResult(rows, summary)


def _run_euler_21(config: dict, seed: int, threads: int) -> ExperimentResult:
    cases = []
    for n in (1, 2):
        betas = [(b,) for b in range(5)] if n == 1 else \
            [(b1, b2) for b1 in range(5) for b2 in range(5) if b1 + b2 <= 4]
        for a in config["euler.amplitudes"]:
            for beta in betas:
                cases.append((n, a, beta))
    constant = smallest_euler_constant([(a, beta) for _, a, beta in cases])

    def one(case) -> Dict[str, object]:
        n, a, beta = case
        integral, bound = euler_integral(a, beta), euler_bound(a, beta, constant)
        return {"n": n, "a": a, "beta": "+".join(str(b) for b in beta),
                "integral": integral, "bound": bound,
                "ratio": bound / integral}

    rows = _map_ordered(one, cases, threads)
    summary = {"fitted_constant": constant,
               "bound_holds": bool(all(row["ratio"] >= 1.0 - 1e-12 for row in rows))}
    return ExperimentResult(rows, summary)


def _run_counterexample(config: dict, seed: int, threads: int) -> ExperimentResult:
    family = config["counterexample.family"]
    grid = _grid_from(config)
    spec = SequenceSpec(
        family=family, profile=config["counterexample.profile"],
        x_prime=config["counterexample.x_prime"],
        x_dprime=config["counterexample.x_dprime"],
        r1=config["counterexample.r1"],
        r2=config.get("counterexample.r2", 2.0 if family == "time_reversed" else 1.0),
        horizon=config["counterexample.T"],
        s1=config["counterexample.S1"], s2=config["counterexample.S2"],
        weight_amplitude=config["counterexample.a"])
    study = decay_study(spec, grid, config["counterexample.k"],
                        time_slices=config["counterexample.time_slices"])
    summary: Dict[str, object] = {"family": family}
    for name, fit in study.fits.items():
        summary[f"slope_{name}"] = fit.slope
        summary[f"r_squared_{name}"] = fit.r_squared
    if family == "concentrating":
        # finite-k drift of the spectral prefactor motivates the slack
        summary["expected_terminal_slope"] = -float(grid.dim)
        summary["slope_tolerance"] = 0.3
    return ExperimentResult(study.rows, summary)


def _run_control_solve(config: dict, seed: int, threads: int) -> ExperimentResult:
    variant = config["control.variant"]
    if variant not in VARIANTS:
        raise ConfigError(f"unknown control variant {variant!r}; "
                          f"expected one of {', '.join(VARIANTS)}")
    grid = _grid_from({"grid.L": VARIANTS[variant]["L"],
                       "grid.M": VARIANTS[variant]["M"], **config})
    # the registry fills in every parameter the config leaves unset
    params = {key: config[f"control.{key}"] for key in _CONTROL_PARAMS
              if f"control.{key}" in config}
    try:
        problem = variant_problem(variant, grid, **params)
        ops = problem_operators(problem)  # the one build; a capped weight stops here
    except ValueError as exc:
        raise ConfigError(f"invalid control problem: {exc}") from exc
    validity = _check_tail(config, problem.initial_state)
    c0 = calibrate_observation_weight(ops)
    tol = config["control.cg_tolerance"]
    solution = solve_control(ops, c0, tol=tol,
                             max_iter=config["control.max_iterations"])
    if not solution.cg.converged:
        raise SolverFailure(
            f"CG stalled at relative residual {solution.cg.relative_residual:.3e} "
            f"after {solution.cg.iterations} iterations")
    f_norm_sq = solution.datum_norm_sq
    row = {
        "variant": variant,
        "observation_weight": c0,
        "penalty": problem.penalty,
        "cg_iterations": solution.cg.iterations,
        "cg_residual": solution.cg.relative_residual,
        "cost": solution.cost,
        "terminal_error": solution.terminal_error,
        "terminal_error_l2": solution.terminal_error_l2,
        "datum_norm_sq": f_norm_sq,
        "bound_lhs": solution.bound_lhs,
        "bound_ratio": solution.bound_lhs / f_norm_sq if f_norm_sq > 0 else 0.0,
    }
    summary = {"validity": validity,
               "bound_holds": bool(solution.bound_lhs
                                   <= f_norm_sq * (1.0 + 10.0 * tol)),
               "optimality_residual": solution.optimality_residual,
               "duality_gap": solution.duality_gap,
               "diagnostics": solution.diagnostics}
    return ExperimentResult([row], summary)


def _run_cost_scaling(config: dict, seed: int, threads: int) -> ExperimentResult:
    grid = _grid_from(config)
    u0 = gaussian_state(grid, config["control.sigma"])
    study = cost_scaling_study(
        grid, u0, config["cost.gaps"], config["cost.radius"],
        eps0=config["cost.penalty"], error_target=config["cost.error_target"],
        fixed_gap=config["cost.fixed_gap"], tol=config["cost.cg_tolerance"])
    doubling_increase = None
    if len(study.doubling_rows) == 2:
        doubling_increase = bool(study.doubling_rows[1]["normalized_cost"]
                                 > study.doubling_rows[0]["normalized_cost"])
    summary = {
        "fit_log_cost_vs_stress": asdict(study.fit),
        "excluded_runs": study.excluded,
        "doubling_rows": study.doubling_rows,
        "cost_increases_when_radius_doubles": doubling_increase,
    }
    return ExperimentResult(study.rows, summary)


def _run_bridge(config: dict, seed: int, threads: int) -> ExperimentResult:
    grid = _grid_from(config)
    if grid.dim != 1:
        raise ConfigError("bridge samples and regions are one-dimensional; "
                          f"grid.dim must be 1, got {grid.dim}")
    t, radius, count = (config[f"bridge.{k}"] for k in ("T", "radius", "samples"))

    def smooth_sample(j: int) -> Field:
        # profile scale is box-independent so refinement runs compare the
        # same continuum field
        rng_j = np.random.default_rng(seed + 31 * j)
        coeffs = rng_j.standard_normal(6) + 1j * rng_j.standard_normal(6)
        x = grid.coords()[0]
        return normalized(grid, sum(c * (x / 5.0) ** p for p, c in enumerate(coeffs))
                          * np.exp(-x ** 2 / 2.0))

    def one(j: int) -> Dict[str, object]:
        check = equivalence_bridge_check(smooth_sample(j), ball_complement(0.0, 1.0),
                                         ball(0.0, radius), t)
        return {"sample": j, "chirp_residual": check.chirp_residual,
                "bridge_residual": check.bridge_residual,
                "scaled_ball_in_box": check.scaled_ball_in_box}

    rows = _map_ordered(one, list(range(count)), threads)
    summary = {"max_bridge_residual": max(r["bridge_residual"] for r in rows),
               "max_chirp_residual": max(r["chirp_residual"] for r in rows)}
    return ExperimentResult(rows, summary)


@dataclass(frozen=True)
class Experiment:
    """A catalog entry; `keys` is its key table (see `resolve`), `sweep` maps
    settings to the name and values its fit runs along, or None (`_check_sweep`)."""
    description: str
    theorem: str
    runner: Callable[[dict, int, int], ExperimentResult]
    keys: Dict[str, object]
    sweep: Optional[Callable[[dict], Optional[Tuple[str, list]]]] = None


def _check_sweep(entry: Experiment, config: dict) -> None:
    """Refuse, before the run, a fit's sweep with fewer than two distinct values."""
    swept = entry.sweep(config) if entry.sweep else None
    if swept is not None and len(set(swept[1])) < 2:
        raise ConfigError(f"{swept[0]} needs at least two distinct values for "
                          f"the fit, got {swept[1]}")


_TAIL = {"tail_tolerance": (1e-10, "non-negative")}
# the union of the variants' problem parameters; L and M size the grid
_CONTROL_PARAMS = tuple(dict.fromkeys(
    key for params in VARIANTS.values() for key in params if key not in ("L", "M")))

EXPERIMENTS = {
    "propagate": Experiment(
        "flow conservation and Gaussian oracle errors", "free flow, conservation law",
        # box sized so the t=10 state still fits without wrap-around
        _run_propagate, {**_grid_keys(100.0, 2048), **_TAIL,
                         "propagate.sigma": (1.0, "positive"),
                         "propagate.times": [0.1, 1.0, 10.0]}),
    "verify-identity": Experiment(
        "chirp/rescale map vs oracle vs spectral flow", "Fresnel identity",
        _run_verify_identity, {
            **_grid_keys(40.0, 2048), **_TAIL, "fresnel.sigma": (1.0, "positive"),
            "fresnel.times": ([0.5, 1.0, 2.0], "positive"),
            "fresnel.compare_box_fraction": (0.95, "in [0, 1]")}),
    "bridge": Experiment(
        "chirp invariance and the spectral/flow energy bridge",
        "uncertainty-observability equivalence", _run_bridge, {
            **_grid_keys(20.0, 1024), "bridge.T": (1.0, "positive"),
            "bridge.radius": (6.0, "non-negative"),
            "bridge.samples": (20, "at least 1")}),
    "uncertainty": Experiment(
        "two-ball concentration quotients", "uncertainty principle", _run_uncertainty,
        {**_grid_keys(40.0, 2048), **_TAIL, "uncertainty.sigma": (1.0, "positive"),
         "uncertainty.radii": ([0.5, 1.0, 2.0, 4.0], "non-negative")}),
    "two-time-observability": Experiment(
        "recover vs two-time observation energies", "two-time observability",
        _run_two_time, {
            **_grid_keys(40.0, 2048), **_TAIL, "observability.sigma": (1.0, "positive"),
            "observability.radius": (2.0, "non-negative"),
            "observability.S": (0.0, "non-negative"),
            "observability.gaps": ([0.25, 0.5, 1.0, 2.0], "positive")}),
    "empirical-constant": Experiment(
        "Gramian smallest eigenvalue vs time gap", "two-time observability constant",
        _run_empirical_constant, {
            **_grid_keys(20.0, 512), "observability.radius": (2.0, "non-negative"),
            "observability.gaps": ([0.25, 0.5, 1.0, 2.0], "positive")},
        lambda c: ("observability.gaps", c["observability.gaps"])),
    "interpolation-12": Experiment(
        "bump family fit of the interpolation inequality",
        "one-time interpolation estimate", _run_interpolation_12, {
            **_grid_keys(20.0, 1024), **_TAIL, "interpolation.r": (1.0, "positive"),
            "interpolation.a": (1.0, "positive"), "interpolation.T": (1.0, "positive"),
            "interpolation.scales": (np.linspace(0.5, 3.0, 20).tolist(), "positive")},
        lambda c: ("interpolation.scales", c["interpolation.scales"])),
    "two-ball-13": Experiment(
        "ball-to-ball terminal estimates", "two-ball unique continuation",
        _run_two_ball_13, {
            **_grid_keys(40.0, 2048), **_TAIL, "two_ball.sigma": (1.0, "positive"),
            "two_ball.r1": (1.0, "positive"), "two_ball.r2": (1.0, "positive"),
            "two_ball.a": (1.0, "positive"), "two_ball.T": (1.0, "positive"),
            "two_ball.separations": [0.0, 2.0, 4.0, 6.0]}),
    "spectral-ineq-27": Experiment(
        "band-limited whole/outside energy ratios", "spectral inequality",
        _run_spectral_ineq, {
            **_grid_keys(10.0, 512), "spectral.radii": ([0.5, 1.0, 2.0], "non-negative"),
            "spectral.bands": ([1.0, 2.0, 4.0, 8.0], "positive"),
            "spectral.samples": (50, "at least 1")},
        lambda c: ("spectral.radii x spectral.bands (the rN products)", [
            r * n for r in c["spectral.radii"] for n in c["spectral.bands"]])),
    "moment-34": Experiment(
        "moment growth of the flow", "moment propagation", _run_moment_34, {
            # box sized for the T=16 flow of the sigma=2 state; the wider
            # Gaussian keeps the finite-range secant slope under the 2k budget
            **_grid_keys(80.0, 2048), **_TAIL, "moment.sigma": (2.0, "positive"),
            "moment.times": ([1.0, 2.0, 4.0, 8.0, 16.0], "non-negative")},
        lambda c: ("moment.times", c["moment.times"])),
    "euler-21": Experiment(
        "weighted moment integrals vs factorial bound", "Euler-integral bound",
        _run_euler_21, {"euler.amplitudes": ([0.5, 1.0, 2.0], "positive")}),
    "counterexample": Experiment(
        "decay rates of the sharpness families", "sharpness counterexamples",
        _run_counterexample, {
            "counterexample.family": "concentrating", **_grid_keys(15.0, 4096),
            "counterexample.k": [1, 2, 4, 8, 16, 32],
            "counterexample.T": (1.0, "positive"),
            "counterexample.profile": "gaussian", "counterexample.x_prime": 0.0,
            "counterexample.x_dprime": 0.0, "counterexample.r1": (1.0, "non-negative"),
            "counterexample.r2": (float, "non-negative"), "counterexample.S1": 0.5,
            "counterexample.S2": (0.5, "positive"),
            "counterexample.a": (1.0, "positive"),
            "counterexample.time_slices": 48},
        # the other families report per-k values and fit no slope along k
        lambda c: ("counterexample.k", c["counterexample.k"])
        if c["counterexample.family"] == "concentrating" else None),
    "control-solve": Experiment(
        "penalized dual control synthesis", "impulse control duality",
        _run_control_solve, {
            # grid.L, grid.M and the problem parameters default per variant;
            # variant_problem range-checks every parameter but sigma
            "control.variant": "two_impulse", "grid.dim": 1,
            "grid.L": (float, "positive"), "grid.M": int, **_TAIL,
            **{f"control.{k}": float for k in _CONTROL_PARAMS},
            "control.sigma": (float, "positive"),
            "control.cg_tolerance": (1e-10, "positive"),
            "control.max_iterations": (5000, "at least 1")}),
    "cost-scaling": Experiment(
        "control cost against the exponential budget", "control cost bound",
        _run_cost_scaling, {
            **_grid_keys(20.0, 256), "control.sigma": (0.8, "positive"),
            "cost.gaps": ([0.25, 0.5, 1.0, 2.0], "positive"),
            "cost.radius": (2.0, "positive"), "cost.fixed_gap": (0.5, "positive"),
            "cost.penalty": (1e-6, "positive"), "cost.error_target": (1e-3, "positive"),
            "cost.cg_tolerance": (1e-8, "positive")},
        lambda c: ("cost.gaps", c["cost.gaps"])),
}

def list_experiments() -> str:
    lines = ["available experiments:"]
    width = max(len(name) for name in EXPERIMENTS)
    for name, entry in EXPERIMENTS.items():
        lines.append(f"  {name.ljust(width)}  {entry.description} [{entry.theorem}]")
    return "\n".join(lines)


def describe_experiment(name: str) -> str:
    """One experiment's key table in config-file syntax: each key at its
    default, followed by the rules `resolve` holds it to; a key read only
    when set is commented out, with its type in place of a value."""
    entry = EXPERIMENTS[name]
    lines = [f"# {name}: {entry.description} [{entry.theorem}]"]
    for key, declared in entry.keys.items():
        default, kind, many, checks = _declared(declared)
        if isinstance(default, type):
            line = f"# {key} = <{kind.__name__}>"
        else:
            line = f"{key} = " + ", ".join(
                _format_cell(v) for v in (default if many else [default]))
        lines.append(f"{line}  # {', '.join(checks)}" if checks else line)
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# output


def _format_cell(value) -> str:
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, np.integer):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return str(value)


def write_outputs(result: ExperimentResult, out_path: Path, experiment: str,
                  theorem: str, config: Dict[str, object], seed: int) -> None:
    columns = list(result.rows[0])
    lines = [",".join(columns)]
    for row in result.rows:
        lines.append(",".join(_format_cell(row[c]) for c in columns))
    out_path.write_text("\n".join(lines) + "\n")
    summary = {
        "experiment": experiment,
        "theorem": theorem,
        "seed": seed,
        "config": {k: config[k] for k in sorted(config)},
        "versions": {"schrodlab": __version__, "numpy": np.__version__,
                     "scipy": scipy.__version__},
        "results": result.summary,
    }
    json_path = out_path.with_suffix(".json")
    json_path.write_text(json.dumps(summary, indent=2, sort_keys=True,
                                    default=_json_default) + "\n")


def _json_default(value):
    if isinstance(value, (np.floating, np.integer)):
        return value.item()
    if isinstance(value, np.bool_):
        return bool(value)
    raise TypeError(f"not JSON serializable: {type(value)}")


# ---------------------------------------------------------------------------
# entry point


def _check_output(out: Path, config: Optional[str]) -> None:
    """Refuse a CSV `out` that cannot be written beside its JSON summary
    without a traceback or overwriting the summary or the config."""
    if not out.parent.is_dir():
        raise ConfigError(f"output directory {str(out.parent)!r} does not exist")
    if out.is_dir() or out.with_suffix(".json").is_dir():
        raise ConfigError(f"output path {str(out)!r} or its JSON summary is a directory")
    if out.suffix == ".json":
        raise ConfigError(f"output path {str(out)!r} is also its JSON summary path")
    for path in (out, out.with_suffix(".json")):
        if config and path.resolve() == Path(config).resolve():
            raise ConfigError(f"output path {str(path)!r} is the config file {config!r}")


def main(argv: Sequence[str] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="schrodlab",
        description="numerical experiments for free-flow observability and "
                    "impulse control")
    parser.add_argument("experiment", help="experiment name, or 'list'")
    parser.add_argument("listed", nargs="?", metavar="EXPERIMENT",
                        help="after 'list': print this experiment's keys, "
                             "defaults and rules")
    parser.add_argument("--config", default=None, help="key-value or JSON config file")
    parser.add_argument("--out", default=None, help="CSV output path "
                        "(JSON summary written alongside)")
    parser.add_argument("--seed", type=int, default=0, help="base random seed")
    parser.add_argument("--threads", type=int, default=1,
                        help="worker threads for parameter sweeps, the only "
                             "parallelism: BLAS runs on one thread per worker")
    args = parser.parse_args(argv)

    # the one exit-code map; LinAlgError is a ValueError, so its clause comes first
    try:
        if args.experiment != "list" and args.listed is not None:
            raise ConfigError(f"unexpected argument {args.listed!r}; only 'list' "
                              f"takes an experiment name")
        name = args.listed if args.experiment == "list" else args.experiment
        if name is not None and name not in EXPERIMENTS:
            raise ConfigError(f"unknown experiment {name!r}; "
                              f"run 'schrodlab list' for the catalog")
        if args.experiment == "list":
            print(describe_experiment(name) if name else list_experiments())
            return 0
        if args.seed < 0:
            raise ConfigError(f"--seed must be a non-negative integer, got {args.seed}")
        if args.threads < 1:
            raise ConfigError(f"--threads must be at least 1, got {args.threads}")
        out_path = Path(args.out) if args.out else Path(f"{name}.csv")
        entry = EXPERIMENTS[name]
        _check_output(out_path, args.config)
        values = load_config(args.config) if args.config else {}
        config = resolve(entry.keys, values, args.experiment)
        _check_sweep(entry, config)
        with one_blas_thread():
            result = entry.runner(config, args.seed, args.threads)
    except (SolverFailure, np.linalg.LinAlgError) as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    write_outputs(result, out_path, args.experiment, entry.theorem, values, args.seed)
    print(f"wrote {out_path} and {out_path.with_suffix('.json')}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
