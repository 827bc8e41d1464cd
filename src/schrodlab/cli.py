"""Experiment runner: every study as a subcommand with file configuration.

Output contract: each run writes one CSV (header row, one line per parameter
tuple, shortest round-trip float formatting) and one JSON summary (config
echo, seed, versions, validity flags, fitted constants).  Identical config
and seed produce byte-identical output.  Exit codes: 0 success, 2 validation
failure (each with a message naming the violated constraint), 3 solver
non-convergence.
"""

from __future__ import annotations

import argparse
import json
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, List, Sequence

import numpy as np
import scipy

from . import __version__
from .field import (Field, Weight, ball, ball_complement, box_tail_fraction,
                    field_from_function, l2_norm, make_grid, GridError)
from .fitting import affine_fit
from .control import (ErrorNorm, ImpulseProblem, calibrate_observation_weight,
                      cost_scaling_study, solve_control)
from .counterexamples import SequenceSpec, decay_study
from .inequalities import (bandlimited_sample, empirical_constant,
                           equivalence_bridge_check, euler_bound,
                           euler_integral, extremal_bandlimited_concentration,
                           fit_interpolation_12, interpolation_report_12,
                           moment_check_34, smallest_euler_constant,
                           spectral_inequality_report, two_ball_report_13,
                           two_time_quotient, uncertainty_quotient)
from .transform import (bandlimited_interpolate, chirp_aliasing_ok, fresnel_map,
                        gaussian_oracle, propagate)


class ConfigError(ValueError):
    """Invalid or inconsistent experiment configuration."""


class SolverFailure(RuntimeError):
    """An iterative solve did not reach its tolerance."""


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


def _flatten(prefix: str, obj, out: Dict[str, object]):
    if isinstance(obj, dict):
        for key, value in obj.items():
            _flatten(f"{prefix}.{key}" if prefix else str(key), value, out)
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
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config file {path!r} is not valid JSON: {exc}") from exc
        flat: Dict[str, object] = {}
        _flatten("", data, flat)
        return flat
    config: Dict[str, object] = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value', got {raw!r}")
        key, value = line.split("=", 1)
        config[key.strip()] = _parse_value(value)
    return config


class Config:
    """Dotted-key access with defaults and type checks."""

    def __init__(self, values: Dict[str, object]):
        self.values = dict(values)

    def get(self, key: str, default=None):
        return self.values.get(key, default)

    def number(self, key: str, default: float) -> float:
        value = self.values.get(key, default)
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ConfigError(f"config key {key!r} must be a number, got {value!r}")
        return float(value)

    def integer(self, key: str, default: int) -> int:
        value = self.values.get(key, default)
        if isinstance(value, bool) or not isinstance(value, int):
            raise ConfigError(f"config key {key!r} must be an integer, got {value!r}")
        return int(value)

    def text(self, key: str, default: str) -> str:
        value = self.values.get(key, default)
        if not isinstance(value, str):
            raise ConfigError(f"config key {key!r} must be a string, got {value!r}")
        return value

    def numbers(self, key: str, default: Sequence[float]) -> List[float]:
        value = self.values.get(key, list(default))
        if isinstance(value, (int, float)) and not isinstance(value, bool):
            value = [value]
        if not isinstance(value, list) or not value:
            raise ConfigError(f"config key {key!r} must be a number list")
        return [float(v) for v in value]


def _grid_from(config: Config, default_dim=1, default_l=20.0, default_m=512):
    try:
        return make_grid(config.integer("grid.dim", default_dim),
                         config.number("grid.L", default_l),
                         config.integer("grid.M", default_m))
    except GridError as exc:
        raise ConfigError(f"invalid grid: {exc}") from exc


def _gaussian_state(grid, sigma: float, center: float = 0.0) -> Field:
    return field_from_function(
        grid, lambda *axes: np.exp(-sum((ax - center) ** 2 for ax in axes)
                                   / (2.0 * sigma ** 2)))


def _check_tail(config: Config, reference: Field, validity: Dict[str, object]):
    tol = config.number("tail_tolerance", 1e-10)
    fraction = box_tail_fraction(reference)
    validity["tail_fraction"] = fraction
    validity["tail_tolerance"] = tol
    validity["tail_ok"] = bool(fraction <= tol)
    if fraction > tol:
        raise ConfigError(
            f"box too small: reference mass fraction {fraction:.3e} outside "
            f"[-L/2, L/2]^dim exceeds the tail tolerance {tol:.1e}"
        )


def _check_chirp(grid, t: float):
    if not chirp_aliasing_ok(grid, t):
        raise ConfigError(
            f"chirp aliasing bound violated: L/(2T) = "
            f"{grid.half_extent / (2 * t):.4g} exceeds Nyquist {grid.nyquist:.4g}"
        )


def _map_ordered(fn: Callable, items: Sequence, threads: int) -> List:
    if threads <= 1 or len(items) <= 1:
        return [fn(item) for item in items]
    with ThreadPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(fn, items))


# ---------------------------------------------------------------------------
# experiments


@dataclass
class ExperimentResult:
    columns: List[str]
    rows: List[Dict[str, object]]
    summary: Dict[str, object]


def _run_propagate(config: Config, seed: int, threads: int) -> ExperimentResult:
    # box sized so the t=10 state still fits without wrap-around
    grid = _grid_from(config, default_l=100.0, default_m=2048)
    sigma = config.number("propagate.sigma", 1.0)
    times = config.numbers("propagate.times", [0.1, 1.0, 10.0])
    validity: Dict[str, object] = {}
    u0 = _gaussian_state(grid, sigma)
    _check_tail(config, u0, validity)

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
    return ExperimentResult(["t", "norm_drift", "max_err_oracle"], rows, summary)


def _run_verify_identity(config: Config, seed: int, threads: int) -> ExperimentResult:
    grid = _grid_from(config, default_l=40.0, default_m=2048)
    sigma = config.number("fresnel.sigma", 1.0)
    times = config.numbers("fresnel.times", [0.5, 1.0, 2.0])
    compare_within = config.number("fresnel.compare_box_fraction", 0.95)
    validity: Dict[str, object] = {}
    u0 = _gaussian_state(grid, sigma)
    _check_tail(config, u0, validity)
    for t in times:
        _check_chirp(grid, t)

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
    return ExperimentResult(["M", "L", "T", "max_err_fresnel", "max_err_spectral"],
                            rows, summary)


def _run_uncertainty(config: Config, seed: int, threads: int) -> ExperimentResult:
    grid = _grid_from(config, default_l=40.0, default_m=2048)
    sigma = config.number("uncertainty.sigma", 1.0)
    radii = config.numbers("uncertainty.radii", [0.5, 1.0, 2.0, 4.0])
    validity: Dict[str, object] = {}
    f = _gaussian_state(grid, sigma)
    _check_tail(config, f, validity)

    def one(rho: float) -> Dict[str, object]:
        report = uncertainty_quotient(f, ball(0.0, rho, dim=grid.dim),
                                      ball(0.0, rho, dim=grid.dim))
        return {"radius": rho, "lhs": report.lhs,
                "outside_space": report.terms["outside_space"],
                "outside_frequency": report.terms["outside_frequency"],
                "quotient": report.quotient}

    rows = _map_ordered(one, radii, threads)
    return ExperimentResult(
        ["radius", "lhs", "outside_space", "outside_frequency", "quotient"],
        rows, {"validity": validity})


def _run_two_time(config: Config, seed: int, threads: int) -> ExperimentResult:
    grid = _grid_from(config, default_l=40.0, default_m=2048)
    sigma = config.number("observability.sigma", 1.0)
    radius = config.number("observability.radius", 2.0)
    s = config.number("observability.S", 0.0)
    gaps = config.numbers("observability.gaps", [0.25, 0.5, 1.0, 2.0])
    validity: Dict[str, object] = {}
    u0 = _gaussian_state(grid, sigma)
    _check_tail(config, u0, validity)
    region = ball_complement(0.0, radius, dim=grid.dim)

    def one(gap: float) -> Dict[str, object]:
        report = two_time_quotient(u0, s, s + gap, region, region)
        return {"S": s, "T": s + gap, "gap": gap, "lhs": report.lhs,
                "observation_S": report.terms["observation_S"],
                "observation_T": report.terms["observation_T"],
                "quotient": report.quotient}

    rows = _map_ordered(one, gaps, threads)
    return ExperimentResult(
        ["S", "T", "gap", "lhs", "observation_S", "observation_T", "quotient"],
        rows, {"validity": validity})


def _run_empirical_constant(config: Config, seed: int, threads: int) -> ExperimentResult:
    grid = _grid_from(config, default_l=20.0, default_m=512)
    radius = config.number("observability.radius", 2.0)
    gaps = config.numbers("observability.gaps", [0.25, 0.5, 1.0, 2.0])
    if len(gaps) < 2:
        raise ConfigError("observability.gaps needs at least two gaps for the "
                          f"log-constant fit, got {len(gaps)}")
    region = ball_complement(0.0, radius, dim=grid.dim)

    def one(gap: float) -> Dict[str, object]:
        result = empirical_constant(0.0, gap, region, region, grid, seed=seed)
        return {"gap": gap, "lambda_min": result.lambda_min,
                "constant": result.constant, "iterations": result.iterations,
                "residual": result.residual, "converged": result.converged}

    rows = _map_ordered(one, gaps, threads)
    if not all(row["converged"] for row in rows):
        raise SolverFailure("eigenvalue iteration did not converge on every gap")
    fit = affine_fit([1.0 / row["gap"] for row in rows],
                     [np.log(row["constant"]) for row in rows])
    summary = {"fit_log_constant_vs_inverse_gap": {
        "slope": fit.slope, "intercept": fit.intercept, "r_squared": fit.r_squared}}
    return ExperimentResult(
        ["gap", "lambda_min", "constant", "iterations", "residual", "converged"],
        rows, summary)


def _run_interpolation_12(config: Config, seed: int, threads: int) -> ExperimentResult:
    grid = _grid_from(config, default_l=20.0, default_m=1024)
    r = config.number("interpolation.r", 1.0)
    a = config.number("interpolation.a", 1.0)
    t = config.number("interpolation.T", 1.0)
    scales = config.numbers("interpolation.scales",
                            list(np.linspace(0.5, 3.0, 20)))
    validity: Dict[str, object] = {}

    def member(scale: float) -> Field:
        rsq = grid.radius_sq()
        values = np.zeros(grid.node_count)
        inside = rsq < scale ** 2
        values[inside] = np.exp(-1.0 / (1.0 - rsq[inside] / scale ** 2))
        f = Field(grid, values.astype(complex))
        return Field(grid, f.values / l2_norm(f))

    _check_tail(config, member(max(scales)), validity)

    def one(scale: float) -> Dict[str, object]:
        report = interpolation_report_12(member(scale), r, a, t, variant="i")
        return {"scale": scale, "lhs": report.lhs,
                "observation": report.terms["observation"],
                "prior": report.terms["prior"],
                "weight_capped": report.flags["weight_capped"]}

    rows = _map_ordered(one, scales, threads)
    if any(row["weight_capped"] for row in rows):
        raise ConfigError("the prior weight tripped its exponent cap; shrink a or L")
    fit = fit_interpolation_12(
        [(row["lhs"], row["observation"], row["prior"], r, a, t) for row in rows],
        grid.dim)
    summary = {"validity": validity,
               "fitted_constant": fit.constant, "fitted_theta": fit.theta,
               "residual_spread": fit.spread}
    return ExperimentResult(
        ["scale", "lhs", "observation", "prior", "weight_capped"], rows, summary)


def _run_two_ball_13(config: Config, seed: int, threads: int) -> ExperimentResult:
    grid = _grid_from(config, default_l=40.0, default_m=2048)
    sigma = config.number("two_ball.sigma", 1.0)
    r1 = config.number("two_ball.r1", 1.0)
    r2 = config.number("two_ball.r2", 1.0)
    a = config.number("two_ball.a", 1.0)
    t = config.number("two_ball.T", 1.0)
    separations = config.numbers("two_ball.separations", [0.0, 2.0, 4.0, 6.0])
    validity: Dict[str, object] = {}
    u0 = _gaussian_state(grid, sigma)
    _check_tail(config, u0, validity)

    def one(sep: float) -> Dict[str, object]:
        report = two_ball_report_13(u0, -sep / 2.0, sep / 2.0, r1, r2, a, t)
        return {"separation": sep, "lhs": report.lhs,
                "observation": report.terms["observation"],
                "prior": report.terms["prior"], "p": report.params["p"]}

    rows = _map_ordered(one, separations, threads)
    return ExperimentResult(["separation", "lhs", "observation", "prior", "p"],
                            rows, {"validity": validity})


def _run_spectral_ineq(config: Config, seed: int, threads: int) -> ExperimentResult:
    grid = _grid_from(config, default_l=10.0, default_m=512)
    radii = config.numbers("spectral.radii", [0.5, 1.0, 2.0])
    bands = config.numbers("spectral.bands", [1.0, 2.0, 4.0, 8.0])
    samples = config.integer("spectral.samples", 50)
    if max(bands) >= grid.nyquist:
        raise ConfigError(
            f"band radius {max(bands)} is not below the Nyquist frequency "
            f"{grid.nyquist:.4g}")
    tuples = [(r, n) for r in radii for n in bands]

    def one(pair) -> Dict[str, object]:
        r, band = pair
        ratios = []
        for j in range(samples):
            f = bandlimited_sample(grid, band, seed=seed + 7919 * j)
            report = spectral_inequality_report(f, r, band)
            ratios.append(report.quotient)
        ratios = np.asarray(ratios)
        # iid samples verify ratio >= 1 but their maxima carry no rN trend;
        # the growth shape lives on the extremal concentrated field
        extremal = extremal_bandlimited_concentration(grid, r, band, seed=seed)
        extremal_ratio = spectral_inequality_report(extremal, r, band).quotient
        return {"r": r, "N": band, "rN": r * band,
                "min_ratio": float(ratios.min()),
                "max_random_ratio": float(ratios.max()),
                "extremal_ratio": float(extremal_ratio),
                "max_log_ratio": float(np.log(max(ratios.max(), extremal_ratio)))}

    rows = _map_ordered(one, tuples, threads)
    fit = affine_fit([row["rN"] for row in rows],
                     [row["max_log_ratio"] for row in rows])
    summary = {"all_ratios_ge_1": bool(all(row["min_ratio"] >= 1.0 for row in rows)),
               "fit_max_log_ratio_vs_rN": {
                   "slope": fit.slope, "intercept": fit.intercept,
                   "r_squared": fit.r_squared},
               "samples_per_tuple": samples}
    return ExperimentResult(
        ["r", "N", "rN", "min_ratio", "max_random_ratio", "extremal_ratio",
         "max_log_ratio"], rows, summary)


def _run_moment_34(config: Config, seed: int, threads: int) -> ExperimentResult:
    # box sized for the T=16 flow of the sigma=2 state; the wider Gaussian
    # keeps the finite-range secant slope under the 2k budget
    grid = _grid_from(config, default_l=80.0, default_m=2048)
    sigma = config.number("moment.sigma", 2.0)
    times = config.numbers("moment.times", [1.0, 2.0, 4.0, 8.0, 16.0])
    validity: Dict[str, object] = {}
    u0 = _gaussian_state(grid, sigma)
    _check_tail(config, u0, validity)

    def one(pair) -> Dict[str, object]:
        k, t = pair
        check = moment_check_34(u0, t, k)
        return {"k": k, "T": t, "lhs": check.lhs, "energy": check.energy,
                "sobolev": check.sobolev, "moment": check.moment,
                "growth": check.growth, "ratio": check.ratio}

    rows = _map_ordered(one, [(k, t) for k in (1, 2) for t in times], threads)
    summary: Dict[str, object] = {"validity": validity}
    for k in (1, 2):
        sub = [row for row in rows if row["k"] == k]
        fit = affine_fit([np.log(1.0 + row["T"]) for row in sub],
                         [np.log(row["lhs"]) for row in sub])
        summary[f"growth_slope_k{k}"] = fit.slope
        summary[f"growth_r_squared_k{k}"] = fit.r_squared
    return ExperimentResult(
        ["k", "T", "lhs", "energy", "sobolev", "moment", "growth", "ratio"],
        rows, summary)


def _run_euler_21(config: Config, seed: int, threads: int) -> ExperimentResult:
    amplitudes = config.numbers("euler.amplitudes", [0.5, 1.0, 2.0])
    cases = []
    for n in (1, 2):
        betas = [(b,) for b in range(5)] if n == 1 else \
            [(b1, b2) for b1 in range(5) for b2 in range(5) if b1 + b2 <= 4]
        for a in amplitudes:
            for beta in betas:
                cases.append((n, a, beta))
    constant = smallest_euler_constant([(a, beta) for _, a, beta in cases])

    def one(case) -> Dict[str, object]:
        n, a, beta = case
        integral, bound = euler_integral(a, beta), euler_bound(a, beta, constant)
        return {"n": n, "a": a, "beta": "+".join(str(b) for b in beta),
                "integral": integral, "bound": bound,
                "ratio": bound / integral if integral > 0 else float("inf")}

    rows = _map_ordered(one, cases, threads)
    summary = {"fitted_constant": constant,
               "bound_holds": bool(all(row["ratio"] >= 1.0 - 1e-12 for row in rows))}
    return ExperimentResult(["n", "a", "beta", "integral", "bound", "ratio"],
                            rows, summary)


def _run_counterexample(config: Config, seed: int, threads: int) -> ExperimentResult:
    family = config.text("counterexample.family", "concentrating")
    grid = _grid_from(config, default_l=15.0, default_m=4096)
    k_values = [int(k) for k in config.numbers("counterexample.k", [1, 2, 4, 8, 16, 32])]
    defaults = {"concentrating": dict(r1=1.0, r2=1.0),
                "time_reversed": dict(r1=1.0, r2=2.0),
                "modulated": dict(r1=1.0, r2=1.0)}
    if family not in defaults:
        raise ConfigError(f"unknown counterexample family {family!r}")
    spec = SequenceSpec(
        family=family,
        profile=config.text("counterexample.profile", "gaussian"),
        x_prime=config.number("counterexample.x_prime", 0.0),
        x_dprime=config.number("counterexample.x_dprime", 0.0),
        r1=config.number("counterexample.r1", defaults[family]["r1"]),
        r2=config.number("counterexample.r2", defaults[family]["r2"]),
        horizon=config.number("counterexample.T", 1.0),
        s1=config.number("counterexample.S1", 0.5),
        s2=config.number("counterexample.S2", 0.5),
        weight_amplitude=config.number("counterexample.a", 1.0),
    )
    try:
        study = decay_study(spec, grid, k_values,
                            time_slices=config.integer("counterexample.time_slices", 48))
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    columns = list(study.rows[0].keys())
    summary: Dict[str, object] = {"family": family}
    for name, fit in study.fits.items():
        summary[f"slope_{name}"] = fit.slope
        summary[f"r_squared_{name}"] = fit.r_squared
    if family == "concentrating":
        # finite-k drift of the spectral prefactor motivates the slack
        summary["expected_terminal_slope"] = -float(grid.dim)
        summary["slope_tolerance"] = 0.3
    return ExperimentResult(columns, study.rows, summary)


def _control_problem_from(config: Config, grid) -> ImpulseProblem:
    variant = config.text("control.variant", "two_impulse")
    sigma = config.number("control.sigma", 1.0)
    target_shift = config.number("control.target_shift", 1.0)
    eps0 = config.number("control.penalty", 1e-6)
    u0 = _gaussian_state(grid, sigma)
    target = _gaussian_state(grid, sigma, center=target_shift)
    t = config.number("control.T", 1.0)
    r1 = config.number("control.r1", 2.0)
    r2 = config.number("control.r2", 2.0)
    a = config.number("control.a", 1.0)
    dim = grid.dim
    if variant == "two_impulse":
        tau1 = config.number("control.tau1", 0.0)
        tau2 = config.number("control.tau2", t)
        return ImpulseProblem(grid, t,
                              ((tau1, ball_complement(0.0, r1, dim=dim)),
                               (tau2, ball_complement(0.0, r2, dim=dim))),
                              u0, target, eps0, 1.0, ErrorNorm("l2"))
    if variant == "complement_approx":
        return ImpulseProblem(grid, t, ((0.0, ball_complement(0.0, r1, dim=dim)),),
                              u0, target, eps0, 1.0,
                              ErrorNorm("dual_weighted", amplitude=a))
    if variant == "ball_null":
        return ImpulseProblem(grid, t, ((0.0, ball(0.0, r1, dim=dim)),),
                              u0, None, eps0, 1.0,
                              ErrorNorm("dual_weighted", amplitude=a),
                              reach="masked_dual",
                              reach_region=ball(0.0, r2, dim=dim))
    if variant == "band_restricted":
        band = config.number("control.N", 3.0)
        return ImpulseProblem(grid, t, ((0.0, ball_complement(0.0, r1, dim=dim)),),
                              u0, target, eps0, 1.0, ErrorNorm("restricted"),
                              reach="restricted",
                              reach_region=ball(0.0, band, dim=dim))
    if variant == "shifted_decay_null":
        b = config.number("control.b", 0.5)
        return ImpulseProblem(grid, t, ((0.0, ball(0.0, r1, dim=dim)),),
                              u0, None, eps0, 1.0,
                              ErrorNorm("dual_weighted", amplitude=a),
                              reach="dual",
                              datum_weight=Weight(b, 1.0, "grow",
                                                  center=(target_shift,) * dim))
    if variant == "sobolev_dual_approx":
        tau = config.number("control.tau", t / 2.0)
        return ImpulseProblem(grid, t, ((tau, ball(0.0, r1, dim=dim)),),
                              u0, target, eps0, 1.0,
                              ErrorNorm("sobolev_dual", amplitude=a))
    raise ConfigError(f"unknown control variant {variant!r}")


def _run_control_solve(config: Config, seed: int, threads: int) -> ExperimentResult:
    grid = _grid_from(config, default_l=20.0, default_m=256)
    problem = _control_problem_from(config, grid)
    validity: Dict[str, object] = {}
    _check_tail(config, problem.initial_state, validity)
    try:
        problem = calibrate_observation_weight(problem, seed=seed)
    except RuntimeError as exc:
        raise ConfigError(str(exc)) from exc
    tol = config.number("control.cg_tolerance", 1e-10)
    solution = solve_control(problem, tol=tol,
                             max_iter=config.integer("control.max_iterations", 5000))
    if not solution.cg.converged:
        raise SolverFailure(
            f"CG stalled at relative residual {solution.cg.relative_residual:.3e} "
            f"after {solution.cg.iterations} iterations")
    f_norm_sq = solution.datum_norm_sq
    row = {
        "variant": config.text("control.variant", "two_impulse"),
        "observation_weight": problem.observation_weight,
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
    return ExperimentResult(list(row.keys()), [row], summary)


def _run_cost_scaling(config: Config, seed: int, threads: int) -> ExperimentResult:
    grid = _grid_from(config, default_l=20.0, default_m=256)
    sigma = config.number("control.sigma", 0.8)
    u0 = _gaussian_state(grid, sigma)
    target = Field(grid, np.zeros(grid.node_count, dtype=complex))
    gaps = config.numbers("cost.gaps", [0.25, 0.5, 1.0, 2.0])
    radius = config.number("cost.radius", 2.0)
    study = cost_scaling_study(
        grid, u0, target, gaps, [radius],
        eps0=config.number("cost.penalty", 1e-6),
        error_target=config.number("cost.error_target", 1e-3),
        fixed_gap=config.number("cost.fixed_gap", 0.5),
        tol=config.number("cost.cg_tolerance", 1e-8),
        seed=seed)
    columns = list(study.rows[0].keys())
    doubling_increase = None
    if len(study.doubling_rows) == 2:
        doubling_increase = bool(study.doubling_rows[1]["normalized_cost"]
                                 > study.doubling_rows[0]["normalized_cost"])
    summary = {
        "fit_log_cost_vs_stress": {"slope": study.fit.slope,
                                   "intercept": study.fit.intercept,
                                   "r_squared": study.fit.r_squared},
        "excluded_runs": study.excluded,
        "doubling_rows": study.doubling_rows,
        "cost_increases_when_radius_doubles": doubling_increase,
    }
    return ExperimentResult(columns, study.rows, summary)


def _run_bridge(config: Config, seed: int, threads: int) -> ExperimentResult:
    # registered under verify-identity's family; kept as its own experiment
    grid = _grid_from(config, default_l=20.0, default_m=1024)
    if grid.dim != 1:
        raise ConfigError("bridge samples and regions are one-dimensional; "
                          f"grid.dim must be 1, got {grid.dim}")
    t = config.number("bridge.T", 1.0)
    radius = config.number("bridge.radius", 6.0)
    count = config.integer("bridge.samples", 20)
    _check_chirp(grid, t)

    def smooth_sample(j: int) -> Field:
        # profile scale is box-independent so refinement runs compare the
        # same continuum field
        rng_j = np.random.default_rng(seed + 31 * j)
        coeffs = rng_j.standard_normal(6) + 1j * rng_j.standard_normal(6)
        x = grid.coords()[0]
        values = sum(c * (x / 5.0) ** p
                     for p, c in enumerate(coeffs)) * np.exp(-x ** 2 / 2.0)
        f = Field(grid, values)
        return Field(grid, f.values / l2_norm(f))

    def one(j: int) -> Dict[str, object]:
        check = equivalence_bridge_check(smooth_sample(j), ball_complement(0.0, 1.0),
                                         ball(0.0, radius), t)
        return {"sample": j, "chirp_residual": check.chirp_residual,
                "bridge_residual": check.bridge_residual,
                "scaled_ball_in_box": check.scaled_ball_in_box}

    rows = _map_ordered(one, list(range(count)), threads)
    summary = {"max_bridge_residual": max(r["bridge_residual"] for r in rows),
               "max_chirp_residual": max(r["chirp_residual"] for r in rows)}
    return ExperimentResult(
        ["sample", "chirp_residual", "bridge_residual", "scaled_ball_in_box"],
        rows, summary)


EXPERIMENTS = {
    "propagate": ("flow conservation and Gaussian oracle errors",
                  "free flow, conservation law", _run_propagate),
    "verify-identity": ("chirp/rescale map vs oracle vs spectral flow",
                        "Fresnel identity", _run_verify_identity),
    "bridge": ("chirp invariance and the spectral/flow energy bridge",
               "uncertainty-observability equivalence", _run_bridge),
    "uncertainty": ("two-ball concentration quotients",
                    "uncertainty principle", _run_uncertainty),
    "two-time-observability": ("recover vs two-time observation energies",
                               "two-time observability", _run_two_time),
    "empirical-constant": ("Gramian smallest eigenvalue vs time gap",
                           "two-time observability constant", _run_empirical_constant),
    "interpolation-12": ("bump family fit of the interpolation inequality",
                         "one-time interpolation estimate", _run_interpolation_12),
    "two-ball-13": ("ball-to-ball terminal estimates",
                    "two-ball unique continuation", _run_two_ball_13),
    "spectral-ineq-27": ("band-limited whole/outside energy ratios",
                         "spectral inequality", _run_spectral_ineq),
    "moment-34": ("moment growth of the flow",
                  "moment propagation", _run_moment_34),
    "euler-21": ("weighted moment integrals vs factorial bound",
                 "Euler-integral bound", _run_euler_21),
    "counterexample": ("decay rates of the sharpness families",
                       "sharpness counterexamples", _run_counterexample),
    "control-solve": ("penalized dual control synthesis",
                      "impulse control duality", _run_control_solve),
    "cost-scaling": ("control cost against the exponential budget",
                     "control cost bound", _run_cost_scaling),
}


def list_experiments() -> str:
    lines = ["available experiments:"]
    width = max(len(name) for name in EXPERIMENTS)
    for name, (description, theorem, _) in EXPERIMENTS.items():
        lines.append(f"  {name.ljust(width)}  {description} [{theorem}]")
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
                  theorem: str, config: Config, seed: int) -> None:
    lines = [",".join(result.columns)]
    for row in result.rows:
        lines.append(",".join(_format_cell(row[c]) for c in result.columns))
    out_path.write_text("\n".join(lines) + "\n")
    summary = {
        "experiment": experiment,
        "theorem": theorem,
        "seed": seed,
        "config": {k: config.values[k] for k in sorted(config.values)},
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


def main(argv: Sequence[str] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="schrodlab",
        description="numerical experiments for free-flow observability and "
                    "impulse control")
    parser.add_argument("experiment", help="experiment name, or 'list'")
    parser.add_argument("--config", default=None, help="key-value or JSON config file")
    parser.add_argument("--out", default=None, help="CSV output path "
                        "(JSON summary written alongside)")
    parser.add_argument("--seed", type=int, default=0, help="base random seed")
    parser.add_argument("--threads", type=int, default=1,
                        help="worker threads for parameter sweeps")
    args = parser.parse_args(argv)

    if args.experiment == "list":
        print(list_experiments())
        return 0
    if args.experiment not in EXPERIMENTS:
        print(f"error: unknown experiment {args.experiment!r}; "
              f"run 'schrodlab list' for the catalog", file=sys.stderr)
        return 2

    try:
        config = Config(load_config(args.config)) if args.config else Config({})
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    description, theorem, runner = EXPERIMENTS[args.experiment]
    try:
        result = runner(config, args.seed, max(1, args.threads))
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except SolverFailure as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return 3

    out_path = Path(args.out) if args.out else Path(f"{args.experiment}.csv")
    write_outputs(result, out_path, args.experiment, theorem, config, args.seed)
    print(f"wrote {out_path} and {out_path.with_suffix('.json')}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
