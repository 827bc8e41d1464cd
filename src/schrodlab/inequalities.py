"""Evaluators for the observability / unique-continuation inequalities.

Each evaluator measures both sides of one inequality on concrete fields and
returns an InequalityReport; nothing here asserts a theoretical constant.
Constants are estimated empirically, either by fitting report families
(affine log-fits) or as the inverse smallest eigenvalue of the observation
Gramian, computed matrix-free.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dataclass_field
from math import factorial
from typing import Dict, List, Sequence, Tuple

import numpy as np
from scipy.integrate import quad
from scipy.special import logsumexp

from .field import (
    Field,
    Grid,
    Region,
    Weight,
    ball,
    ball_complement,
    l2_norm,
    masked_energy,
    radial_moment,
    weighted_energy_flagged,
)
from .fitting import FitResult, affine_fit  # re-exported: fits live with reports
from .solvers import LanczosResult, lanczos_smallest
from .transform import (chirp_aliasing_ok, dft, fft_symbol, idft, propagate,
                        propagate_values, spectral_multiply)


class AliasingError(ValueError):
    """The quadratic chirp is not resolvable on this grid at this time."""


def _as_point(p, dim: int) -> Tuple[float, ...]:
    arr = np.atleast_1d(np.asarray(p, dtype=float))
    if arr.size == 1 and dim > 1:
        arr = np.full(dim, float(arr[0]))
    return tuple(float(v) for v in arr)


@dataclass
class InequalityReport:
    theorem: str
    lhs: float
    terms: Dict[str, float]
    quotient: float
    params: Dict[str, float] = dataclass_field(default_factory=dict)
    flags: Dict[str, bool] = dataclass_field(default_factory=dict)


def _quotient(lhs: float, denominator: float, flags: Dict[str, bool]) -> float:
    """lhs / denominator with the zero-field convention (0, flagged)."""
    if lhs == 0.0:
        flags["zero_field"] = True
        return 0.0
    if denominator <= 0.0:
        flags["zero_denominator"] = True
        return float("inf")
    return lhs / denominator


# ---------------------------------------------------------------------------
# two-time observability and the uncertainty principle


def two_time_quotient(u0: Field, s: float, t: float,
                      region_a: Region, region_b: Region) -> InequalityReport:
    """Ratio of the recover term to the two-time observation terms:
    ||u0||^2 against energy of u(.,s) on A plus energy of u(.,t) on B."""
    if not 0.0 <= s < t:
        raise ValueError(f"need 0 <= S < T, got S={s}, T={t}")
    for name, region in (("A", region_a), ("B", region_b)):
        if region.kind not in ("ball_complement", "all"):
            raise ValueError(f"region {name} must be a ball complement (or all)")
    lhs = l2_norm(u0) ** 2
    obs_s = masked_energy(propagate(u0, s), region_a)
    obs_t = masked_energy(propagate(u0, t), region_b)
    flags: Dict[str, bool] = {}
    quotient = _quotient(lhs, obs_s + obs_t, flags)
    return InequalityReport(
        "two-time-observability",
        lhs,
        {"observation_S": obs_s, "observation_T": obs_t},
        quotient,
        params={"S": s, "T": t, "gap": t - s},
        flags=flags,
    )


def uncertainty_quotient(f: Field, space_ball: Region, freq_ball: Region) -> InequalityReport:
    """Ratio of ||f||^2 to the energy of f outside S plus the spectral energy
    of f outside Sigma (concentration on two balls is impossible)."""
    for name, region in (("S", space_ball), ("Sigma", freq_ball)):
        if region.kind != "ball":
            raise ValueError(f"region {name} must be a ball")
    lhs = l2_norm(f) ** 2
    outside_space = masked_energy(f, space_ball.complement())
    outside_freq = masked_energy(dft(f), freq_ball.complement())
    flags: Dict[str, bool] = {}
    quotient = _quotient(lhs, outside_space + outside_freq, flags)
    return InequalityReport(
        "uncertainty-principle",
        lhs,
        {"outside_space": outside_space, "outside_frequency": outside_freq},
        quotient,
        params={"space_radius": space_ball.radius, "freq_radius": freq_ball.radius},
        flags=flags,
    )


@dataclass
class BridgeCheck:
    chirp_residual: float
    bridge_residual: float
    spectral_side: float
    time_side: float
    scaled_ball_in_box: bool


def equivalence_bridge_check(u0: Field, region_a: Region, freq_ball: Region,
                             t: float) -> BridgeCheck:
    """The two identities behind the uncertainty/observability equivalence.

    (a) the chirp e^{i|x|^2/4t} leaves masked energies unchanged;
    (b) the spectral energy of the chirped datum on a frequency ball B equals
        the energy of the flowed state on 2t*B.
    Returns the relative residual of each.
    """
    if not t > 0:
        raise ValueError("bridge check needs t > 0")
    if freq_ball.kind != "ball":
        raise ValueError("the frequency region must be a ball")
    grid = u0.grid
    if not chirp_aliasing_ok(grid, t):
        raise AliasingError(
            f"chirp aliasing bound violated: L/(2t) = {grid.half_extent / (2 * t):.3g} "
            f"exceeds the Nyquist frequency {grid.nyquist:.3g}"
        )
    chirped = Field(grid, np.exp(1j * grid.radius_sq() / (4.0 * t)) * u0.values)

    energy_u0 = masked_energy(u0, region_a)
    energy_chirped = masked_energy(chirped, region_a)
    res_a = abs(energy_chirped - energy_u0) / max(energy_u0, np.finfo(float).tiny)

    spectral_side = masked_energy(dft(chirped), freq_ball)
    center = np.asarray(freq_ball.center if freq_ball.center else (0.0,) * grid.dim)
    scaled = Region("ball", tuple(2.0 * t * center), 2.0 * t * freq_ball.radius)
    time_side = masked_energy(propagate(u0, t), scaled)
    res_b = abs(spectral_side - time_side) / max(time_side, np.finfo(float).tiny)

    reach = 2.0 * t * (freq_ball.radius + float(np.linalg.norm(center)))
    return BridgeCheck(res_a, res_b, spectral_side, time_side,
                       reach <= grid.half_extent)


# ---------------------------------------------------------------------------
# empirical observability constants via the Gramian


@dataclass
class EmpiricalConstant:
    lambda_min: float
    constant: float
    extremizer: Field
    iterations: int
    residual: float
    converged: bool


def gramian_apply(grid: Grid, s: float, t: float,
                  region_a: Region, region_b: Region):
    """Matrix-free G = M_A + P* M_B P with P the flow from time s to t."""
    if not t > s:
        raise ValueError("need T > S for the observability Gramian")
    mask_a = region_a.indicator(grid)
    mask_b = region_b.indicator(grid)
    duration = t - s

    def apply_g(v: np.ndarray) -> np.ndarray:
        forward = propagate_values(grid, v, duration)
        back = propagate_values(grid, mask_b * forward, -duration)
        return mask_a * v + back

    return apply_g


def empirical_constant(s: float, t: float, region_a: Region, region_b: Region,
                       grid: Grid, max_iter: int = None, seed: int = 0,
                       tol: float = 1e-11) -> EmpiricalConstant:
    """Best discrete two-time observability constant 1/lambda_min(G).

    G is Hermitian PSD with spectrum in [0, 2]; its smallest eigenvalue is
    computed by Lanczos with full reorthogonalization after a dot-product
    self-adjointness check (which would expose a propagator/adjoint bug).
    """
    apply_g = gramian_apply(grid, s, t, region_a, region_b)
    rng = np.random.default_rng(seed)
    n = grid.node_count
    for _ in range(3):
        f = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        g = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        lhs = np.vdot(g, apply_g(f))
        rhs = np.vdot(apply_g(g), f)
        if abs(lhs - rhs) > 1e-11 * np.linalg.norm(f) * np.linalg.norm(g):
            raise RuntimeError(
                f"Gramian failed the self-adjointness test: |<Gf,g>-<f,Gg>| = {abs(lhs - rhs):.3e}"
            )
    result: LanczosResult = lanczos_smallest(
        apply_g, n, upper_bound=2.0, max_iter=max_iter, seed=seed, tol=tol)
    lam = max(result.eigenvalue, 0.0)
    constant = float("inf") if lam == 0.0 else 1.0 / lam
    return EmpiricalConstant(lam, constant, Field(grid, result.eigenvector),
                             result.iterations, result.residual, result.converged)


# ---------------------------------------------------------------------------
# one-time interpolation inequalities (exponential-decay priors)


def interpolation_report_12(u0: Field, r: float, a: float, t: float,
                            variant: str = "i", theta: float = 0.5,
                            beta: float = None, gamma: float = None) -> InequalityReport:
    """One-time unique continuation with weighted prior.

    variant "i": prior weight e^{a|x|}, exponent p = theta^{1 + r/(aT)};
    variant "ii": prior weight e^{a|x|^beta} (beta > 1), exponent p = gamma.
    The report records observation^p * prior^(1-p) so families can be fitted.
    """
    if min(r, a, t) <= 0:
        raise ValueError("r, a, T must all be positive")
    grid = u0.grid
    if variant == "i":
        weight = Weight(a, 1.0, "grow")
        if not 0.0 < theta < 1.0:
            raise ValueError("theta must lie in (0, 1)")
        p = theta ** (1.0 + r / (a * t))
        prefactor = 1.0 + (r / (a * t)) ** grid.dim
    elif variant == "ii":
        if beta is None or beta <= 1.0:
            raise ValueError("variant ii needs beta > 1")
        if gamma is None or not 0.0 < gamma < 1.0:
            raise ValueError("variant ii needs gamma in (0, 1)")
        weight = Weight(a, beta, "grow")
        p = gamma
        prefactor = (r ** beta / (a * (1.0 - gamma) * t ** beta)) ** (1.0 / (beta - 1.0))
    else:
        raise ValueError(f"unknown variant {variant!r}")

    lhs = l2_norm(u0) ** 2
    obs = masked_energy(propagate(u0, t), ball_complement(0.0, r, dim=grid.dim))
    prior, capped = weighted_energy_flagged(u0, weight)
    product = 0.0 if (obs == 0.0 and lhs == 0.0) else obs ** p * prior ** (1.0 - p)
    flags = {"weight_capped": capped, "valid": not capped}
    quotient = _quotient(lhs, product, flags)
    params = {"r": r, "a": a, "T": t, "p": p, "prefactor": prefactor}
    if variant == "ii":
        params.update({"beta": beta, "gamma": gamma})
    else:
        params["theta"] = theta
    return InequalityReport(
        f"interpolation-12-{variant}",
        lhs,
        {"observation": obs, "prior": prior, "product": product},
        quotient,
        params=params,
        flags=flags,
    )


@dataclass
class InterpolationFit:
    constant: float
    theta: float
    spread: float  # std-dev of the log residuals at the fitted theta


def fit_interpolation_12(samples: Sequence[Tuple[float, float, float, float, float, float]],
                         dim: int) -> InterpolationFit:
    """Fit (C, theta) for the variant-(i) inequality over a report family.

    samples: tuples (lhs, observation, prior, r, a, T).  theta is chosen to
    minimize the variance of the log residuals, then C is the smallest
    constant making the inequality hold for every member.
    """
    data = [s for s in samples if s[0] > 0 and s[1] > 0 and s[2] > 0]
    if len(data) < 2:
        raise ValueError("need at least two nondegenerate family members")

    def residuals(theta: float) -> np.ndarray:
        out = []
        for lhs, obs, prior, r, a, t in data:
            p = theta ** (1.0 + r / (a * t))
            bound = p * np.log(obs) + (1.0 - p) * np.log(prior) \
                + np.log(1.0 + (r / (a * t)) ** dim)
            out.append(np.log(lhs) - bound)
        return np.asarray(out)

    thetas = np.linspace(0.02, 0.98, 97)
    spreads = [float(np.std(residuals(th))) for th in thetas]
    best = int(np.argmin(spreads))
    theta = float(thetas[best])
    constant = float(np.exp(np.max(residuals(theta))))
    return InterpolationFit(constant, theta, spreads[best])


def two_ball_report_13(u0: Field, x_prime, x_dprime, r1: float, r2: float,
                       a: float, t: float) -> InequalityReport:
    """One-time ball-to-ball estimate: energy of u(.,T) on B_{r2}(x'') against
    its energy on B_{r1}(x') and the e^{a|x|} prior, with the exponent budget
    p = 1 + (|x'-x''| + r1 + r2)/((aT) ^ r1) recorded."""
    if min(r1, r2, a, t) <= 0:
        raise ValueError("r1, r2, a, T must all be positive")
    grid = u0.grid
    u_t = propagate(u0, t)
    lhs = masked_energy(u_t, ball(x_dprime, r2, dim=grid.dim))
    obs = masked_energy(u_t, ball(x_prime, r1, dim=grid.dim))
    prior, capped = weighted_energy_flagged(u0, Weight(a, 1.0, "grow"))
    separation = float(np.linalg.norm(
        np.atleast_1d(np.asarray(x_prime, dtype=float))
        - np.atleast_1d(np.asarray(x_dprime, dtype=float))))
    p = 1.0 + (separation + r1 + r2) / min(a * t, r1)
    flags = {"weight_capped": capped, "valid": not capped}
    quotient = _quotient(lhs, obs + prior, flags)
    return InequalityReport(
        "two-ball-13",
        lhs,
        {"observation": obs, "prior": prior},
        quotient,
        params={"r1": r1, "r2": r2, "a": a, "T": t, "p": p,
                "separation": separation},
        flags=flags,
    )


# ---------------------------------------------------------------------------
# band-limited fields and the spectral inequality


def bandlimited_sample(grid: Grid, band_radius: float, seed: int) -> Field:
    """Unit-norm field with iid complex-Gaussian spectrum inside B_N(0).

    Deterministic in seed; rejects band radii at or above the grid Nyquist.
    """
    if band_radius >= grid.nyquist:
        raise ValueError(
            f"band radius {band_radius} is not below the Nyquist frequency "
            f"{grid.nyquist:.6g}"
        )
    rng = np.random.default_rng(seed)
    coeffs = (rng.standard_normal(grid.node_count)
              + 1j * rng.standard_normal(grid.node_count)) / np.sqrt(2.0)
    dual = grid.dual()
    mask = ball(0.0, band_radius, dim=grid.dim).indicator(dual)
    spectrum = Field(dual, coeffs * mask)
    sample = idft(spectrum)
    norm = l2_norm(sample)
    if norm == 0.0:
        raise ValueError("band contains no frequency nodes")
    return Field(grid, sample.values / norm)


def _band_symbol(grid: Grid, band_radius: float) -> np.ndarray:
    """Indicator of the frequency ball B_N(0), in FFT order."""
    return fft_symbol(grid, ball(0.0, band_radius, dim=grid.dim).indicator(grid.dual()))


def extremal_bandlimited_concentration(grid: Grid, r: float, band_radius: float,
                                       seed: int = 0) -> Field:
    """The band-limited field most concentrated on B_r(0) (discrete prolate).

    Computes the top eigenvector of K = P_band M_ball P_band matrix-free; the
    returned unit-norm field realizes the worst (largest) whole/outside energy
    ratio among band-limited fields on this grid, which is the discrete
    analogue of the spectral-inequality constant."""
    if band_radius >= grid.nyquist:
        raise ValueError(
            f"band radius {band_radius} is not below the Nyquist frequency "
            f"{grid.nyquist:.6g}")
    band = _band_symbol(grid, band_radius)
    ball_mask = ball(0.0, r, dim=grid.dim).indicator(grid)

    def apply_residual(v: np.ndarray) -> np.ndarray:
        # I - K, so the smallest eigenvalue pairs with the top of K
        banded = spectral_multiply(grid, v, band)
        return v - spectral_multiply(grid, ball_mask * banded, band)

    result = lanczos_smallest(apply_residual, grid.node_count, upper_bound=1.0,
                              seed=seed, tol=1e-12)
    extremizer = Field(grid, spectral_multiply(grid, result.eigenvector, band))
    norm = l2_norm(extremizer)
    if norm == 0.0:
        raise ValueError("band contains no frequency nodes")
    return Field(grid, extremizer.values / norm)


def spectral_inequality_report(f: Field, r: float, band_radius: float) -> InequalityReport:
    """Whole-space to outside-ball energy ratio for band-limited fields.

    The spectrum is projected onto B_N(0) first, so the precondition holds by
    construction.  A denominator below 1e-300 is reported as a failure flag
    (a nonzero band-limited function cannot vanish on an open set).
    """
    if r < 0 or band_radius < 0:
        raise ValueError("r and N must be nonnegative")
    grid = f.grid
    projected = Field(grid, spectral_multiply(grid, f.values,
                                              _band_symbol(grid, band_radius)))
    lhs = l2_norm(projected) ** 2
    outside = masked_energy(projected, ball_complement(0.0, r, dim=grid.dim))
    flags: Dict[str, bool] = {"degenerate_denominator": bool(outside < 1e-300)}
    quotient = _quotient(lhs, outside, flags)
    log_ratio = float(np.log(quotient)) if 0.0 < quotient < float("inf") else float("nan")
    return InequalityReport(
        "spectral-inequality-27",
        lhs,
        {"outside_energy": outside},
        quotient,
        params={"r": r, "N": band_radius, "rN": r * band_radius,
                "log_ratio": log_ratio},
        flags=flags,
    )


# ---------------------------------------------------------------------------
# moment propagation and the Euler-integral bound


def sobolev_norm_sq(f: Field, order: float) -> float:
    """Spectral H^s norm squared: sum (1+|xi|^2)^s |f_hat|^2 d xi."""
    spectrum = dft(f)
    rsq = spectrum.grid.radius_sq()
    h = spectrum.grid.spacing
    return float(np.sum((1.0 + rsq) ** order * np.abs(spectrum.values) ** 2)
                 * h ** spectrum.grid.dim)


@dataclass
class MomentCheck:
    lhs: float          # 2k-moment of the flowed state
    energy: float       # ||u0||^2
    sobolev: float      # ||u0||^2_{H^{2k}}
    moment: float       # 4k-moment of u0
    growth: float       # (1+T)^{2k}

    @property
    def ratio(self) -> float:
        denom = self.growth * (self.sobolev + self.moment)
        return self.lhs / denom if denom > 0 else float("inf")


def moment_check_34(u0: Field, t: float, k: int) -> MomentCheck:
    """Moment propagation: the |x|^{2k} moment of u(.,T) against the H^{2k}
    norm and the |x|^{4k} moment of the datum, with the (1+T)^{2k} budget."""
    if k not in (1, 2):
        raise ValueError("k must be 1 or 2")
    if t < 0:
        raise ValueError("T must be nonnegative")
    u_t = propagate(u0, t)
    return MomentCheck(
        lhs=radial_moment(u_t, 2 * k),
        energy=l2_norm(u0) ** 2,
        sobolev=sobolev_norm_sq(u0, 2 * k),
        moment=radial_moment(u0, 4 * k),
        growth=(1.0 + t) ** (2 * k),
    )


def euler_integral(a: float, beta: Sequence[int]) -> float:
    """int |xi^{2 beta}| e^{-a|xi|} d xi, exact Gamma reduction in 1D and
    radial x angular quadrature in 2D."""
    if a <= 0:
        raise ValueError("a must be positive")
    beta = tuple(int(b) for b in beta)
    n = len(beta)
    if n not in (1, 2) or any(b < 0 for b in beta) or sum(beta) > 4:
        raise ValueError("beta must be a multi-index in dim 1 or 2 with |beta| <= 4")
    if n == 1:
        b = beta[0]
        return 2.0 * a ** (-(2 * b + 1)) * float(factorial(2 * b))
    b1, b2 = beta
    total = b1 + b2
    radial, _ = quad(lambda rho: rho ** (2 * total + 1) * np.exp(-a * rho),
                     0.0, np.inf, epsabs=1e-13, epsrel=1e-13, limit=200)
    angular, _ = quad(lambda th: abs(np.cos(th)) ** (2 * b1) * abs(np.sin(th)) ** (2 * b2),
                      0.0, 2.0 * np.pi, epsabs=1e-13, epsrel=1e-13, limit=200)
    return float(radial * angular)


def euler_bound(a: float, beta: Sequence[int], constant: float) -> float:
    """Square of (2n/a)^{n/2} beta! (Cn/a)^{|beta|}, bounding the integral."""
    beta = tuple(int(b) for b in beta)
    n = len(beta)
    total = sum(beta)
    fact = 1.0
    for b in beta:
        fact *= factorial(b)
    return (2.0 * n / a) ** n * fact ** 2 * (constant * n / a) ** (2 * total)


def smallest_euler_constant(cases: Sequence[Tuple[float, Sequence[int]]]) -> float:
    """Smallest absolute C making the bound hold on every |beta| > 0 case."""
    best = 0.0
    for a, beta in cases:
        beta = tuple(int(b) for b in beta)
        total = sum(beta)
        if total == 0:
            continue
        n = len(beta)
        integral = euler_integral(a, beta)
        fact = 1.0
        for b in beta:
            fact *= factorial(b)
        needed = (a / n) * (np.sqrt(integral) / ((2.0 * n / a) ** (n / 2.0) * fact)) \
            ** (1.0 / total)
        best = max(best, float(needed))
    if best == 0.0:
        raise ValueError("no case with |beta| > 0 given")
    return best


# ---------------------------------------------------------------------------
# decay-weighted and Sobolev-augmented one-time estimates (epsilon sweeps)


@dataclass
class EpsilonSweepReport:
    theorem: str
    lhs: float
    terms: Dict[str, float]
    rows: List[Dict[str, float]]  # per-epsilon: eps, log_rhs
    log_constant: float           # smallest log C with lhs <= C * rhs(eps) for all eps
    has_interior_minimum: bool
    flags: Dict[str, bool]


def _epsilon_sweep(theorem: str, lhs: float, terms: Dict[str, float],
                   prior: float, obs: float, eps_values: Sequence[float],
                   log_obs_coeff) -> EpsilonSweepReport:
    rows = []
    log_rhs_values = []
    tiny = np.finfo(float).tiny
    for eps in eps_values:
        if not 0.0 < eps < 1.0:
            raise ValueError("epsilon values must lie in (0, 1)")
        pieces = [np.log(eps) + np.log(max(prior, tiny)),
                  np.log(eps) + log_obs_coeff(eps) + np.log(max(obs, tiny))]
        log_rhs = float(logsumexp(pieces))
        rows.append({"eps": float(eps), "log_rhs": log_rhs})
        log_rhs_values.append(log_rhs)
    log_rhs_values = np.asarray(log_rhs_values)
    log_constant = float(np.log(max(lhs, tiny)) - np.min(log_rhs_values))
    interior = bool(np.argmin(log_rhs_values) not in (0, len(log_rhs_values) - 1))
    return EpsilonSweepReport(theorem, lhs, terms, rows, log_constant, interior,
                              flags={"zero_lhs": lhs == 0.0})


def decay_window_report_15(u0: Field, x0, x_prime, r: float, a: float, b: float,
                           t: float, eps_values: Sequence[float]) -> EpsilonSweepReport:
    """Decay-windowed recovery: e^{-b|x-x'|}-weighted terminal energy against
    the e^{a|x|} prior and the ball observation, swept over the epsilon
    tradeoff with observation coefficient exp(eps^{-1-kappa}),
    kappa = b^{-1}/((aT) ^ r) (structural constant set to 1)."""
    if min(r, a, b, t) <= 0:
        raise ValueError("r, a, b, T must all be positive")
    grid = u0.grid
    u_t = propagate(u0, t)
    lhs, lhs_capped = weighted_energy_flagged(
        u_t, Weight(b, 1.0, "decay", center=_as_point(x_prime, grid.dim)))
    obs = masked_energy(u_t, ball(x0, r, dim=grid.dim))
    prior, capped = weighted_energy_flagged(u0, Weight(a, 1.0, "grow"))
    kappa = (1.0 / b) / min(a * t, r)

    def log_obs_coeff(eps: float) -> float:
        return min(eps ** (-1.0 - kappa), 700.0)

    report = _epsilon_sweep("decay-window-15", lhs,
                            {"observation": obs, "prior": prior},
                            prior, obs, eps_values, log_obs_coeff)
    report.flags["weight_capped"] = capped or lhs_capped
    return report


def prior_sobolev_order(dim: int) -> int:
    """The Sobolev order n + 3 of the augmented prior in estimate (1.6)."""
    return dim + 3


def sobolev_prior_report_16(u0: Field, x0, r: float, a: float, t: float,
                            eps_values: Sequence[float]) -> EpsilonSweepReport:
    """Full-recovery estimate with Sobolev-augmented prior and the
    double-exponential observation coefficient exp(exp(eps^{-2})); the
    coefficient is handled in log space (log coeff = exp(eps^{-2})), which
    keeps it representable down to eps ~ 0.2; sweep eps >= 0.3 in practice
    since below that the reciprocal cost weight underflows any budget."""
    if min(r, a, t) <= 0:
        raise ValueError("r, a, T must all be positive")
    grid = u0.grid
    lhs = l2_norm(u0) ** 2
    obs = masked_energy(propagate(u0, t), ball(x0, r, dim=grid.dim))
    weighted, capped = weighted_energy_flagged(u0, Weight(a, 1.0, "grow"))
    sobolev = sobolev_norm_sq(u0, prior_sobolev_order(grid.dim))
    prior = weighted + sobolev

    def log_obs_coeff(eps: float) -> float:
        return float(np.exp(eps ** -2.0))

    report = _epsilon_sweep("sobolev-prior-16", lhs,
                            {"observation": obs, "prior_weighted": weighted,
                             "prior_sobolev": sobolev},
                            prior, obs, eps_values, log_obs_coeff)
    report.flags["weight_capped"] = capped
    return report
