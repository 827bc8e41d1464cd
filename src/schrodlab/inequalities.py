"""Evaluators for the observability / unique-continuation inequalities.

Each evaluator measures both sides of one inequality on concrete fields and
returns an InequalityReport; nothing here asserts a theoretical constant.
Constants are estimated empirically, either by fitting report families
(affine log-fits) or as the inverse smallest eigenvalue of the observation
Gramian, computed exactly from the top singular value of one dense
lattice block.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import factorial, gamma, prod
from typing import Callable, Dict, List, Sequence, Tuple

import numpy as np

from .field import (
    Field,
    Grid,
    Region,
    Weight,
    ball,
    ball_complement,
    density_energy,
    l2_norm,
    masked_energy,
    normalized,
    radial_moment,
    weighted_energy,
)
from .solvers import SolverFailure
from .transform import (check_chirp, chirp, circulant_kernel, dft, fft_symbol, idft,
                        propagate, propagator_symbol, spectral_multiply, top_singular)


@dataclass
class InequalityReport:
    lhs: float
    terms: Dict[str, float]
    quotient: float


def _quotient(lhs: float, denominator: float) -> float:
    """lhs / denominator with the zero-field convention 0 (and inf for a
    vanishing denominator under a nonzero lhs)."""
    if lhs == 0.0:
        return 0.0
    if denominator <= 0.0:
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
    return InequalityReport(lhs, {"observation_S": obs_s, "observation_T": obs_t},
                            _quotient(lhs, obs_s + obs_t))


def uncertainty_quotient(f: Field, space_ball: Region, freq_ball: Region) -> InequalityReport:
    """Ratio of ||f||^2 to the energy of f outside S plus the spectral energy
    of f outside Sigma (concentration on two balls is impossible)."""
    for name, region in (("S", space_ball), ("Sigma", freq_ball)):
        if region.kind != "ball":
            raise ValueError(f"region {name} must be a ball")
    lhs = l2_norm(f) ** 2
    outside_space = masked_energy(f, space_ball.complement())
    outside_freq = masked_energy(dft(f), freq_ball.complement())
    return InequalityReport(
        lhs, {"outside_space": outside_space, "outside_frequency": outside_freq},
        _quotient(lhs, outside_space + outside_freq))


@dataclass
class BridgeCheck:
    chirp_residual: float
    bridge_residual: float
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
    check_chirp(grid, t)
    chirped = Field(grid, chirp(grid, t) * u0.values)

    energy_u0 = masked_energy(u0, region_a)
    energy_chirped = masked_energy(chirped, region_a)
    res_a = abs(energy_chirped - energy_u0) / max(energy_u0, np.finfo(float).tiny)

    spectral_side = masked_energy(dft(chirped), freq_ball)
    center = np.asarray(freq_ball.center if freq_ball.center else (0.0,) * grid.dim)
    scaled = Region("ball", tuple(2.0 * t * center), 2.0 * t * freq_ball.radius)
    time_side = masked_energy(propagate(u0, t), scaled)
    res_b = abs(spectral_side - time_side) / max(time_side, np.finfo(float).tiny)

    reach = 2.0 * t * (freq_ball.radius + float(np.linalg.norm(center)))
    return BridgeCheck(res_a, res_b, reach <= grid.half_extent)


# ---------------------------------------------------------------------------
# empirical observability constants via the Gramian


@dataclass
class EmpiricalConstant:
    lambda_min: float
    constant: float
    extremizer: Field
    floor: float
    converged: bool


def empirical_constant(s: float, t: float, region_a: Region, region_b: Region,
                       grid: Grid) -> EmpiricalConstant:
    """Best discrete two-time observability constant 1/lambda_min(G).

    G = M_A + P* M_B P is a sum of two projections, so 2 - G = X X* with
    X = [E_a, P* E_b], E_a and E_b embedding the nodes off A and off B, and
    lambda_min(G) = 1 - sigma_max(C) at X (v; u), with C v = sigma_max u and
    C = E_b* P E_a a lattice block of the flow (top_singular).  Converged
    means lambda_min is at least the floor top_singular returns,
    eps * (k_a + k_b): sigma_max comes from the smaller Gram matrix of each
    reflection half of C, whose rounding moves sigma_max by about
    eps * (k_a + k_b) * sigma_max / 2, within the floor; below it, neither
    lambda_min nor its inverse is resolved.  top_singular raises
    BlockOrderError when k_a + k_b passes MAX_BLOCK_ORDER.
    """
    if not t > s:
        raise ValueError("need T > S for the observability Gramian")
    cols = np.flatnonzero(region_a.indicator(grid) == 0.0)
    rows = np.flatnonzero(region_b.indicator(grid) == 0.0)
    if cols.size + rows.size == 0:  # A and B hold every node: G = 2I
        unit = Field(grid, np.eye(1, grid.node_count)[0])
        return EmpiricalConstant(2.0, 0.5, unit, 0.0, True)
    symbol = propagator_symbol(grid, t - s)
    sigma, u, v, floor = top_singular(grid, symbol, rows, cols)
    lam = max(1.0 - sigma, 0.0)
    extremizer = np.zeros(grid.node_count, dtype=np.complex128)
    extremizer[rows] = u
    extremizer = spectral_multiply(grid, extremizer, symbol.conj())
    extremizer[cols] += v
    constant = float("inf") if lam == 0.0 else 1.0 / lam
    extremizer = Field(grid, extremizer / np.linalg.norm(extremizer))
    return EmpiricalConstant(lam, constant, extremizer, floor, lam >= floor)


# ---------------------------------------------------------------------------
# one-time interpolation inequalities (exponential-decay priors)


def _interpolation_shape(theta: float, r: float, a: float, t: float,
                         dim: int) -> Tuple[float, float]:
    """Exponent p = theta^{1 + r/(aT)} and prefactor 1 + (r/(aT))^n of the
    interpolation estimate with the e^{a|x|} prior."""
    ratio = r / (a * t)
    return theta ** (1.0 + ratio), 1.0 + ratio ** dim


def interpolation_report_12(u0: Field, r: float, a: float, t: float,
                            theta: float = 0.5) -> InequalityReport:
    """One-time unique continuation with the e^{a|x|} prior:
    ||u0||^2 <= (1 + (r/(aT))^n) obs^p prior^(1-p), p = theta^{1 + r/(aT)},
    where obs is the energy of u(.,T) outside B_r.  The report records
    obs^p * prior^(1-p) as the product so families can be fitted."""
    if min(r, a, t) <= 0:
        raise ValueError("r, a, T must all be positive")
    if not 0.0 < theta < 1.0:
        raise ValueError("theta must lie in (0, 1)")
    grid = u0.grid
    p, prefactor = _interpolation_shape(theta, r, a, t, grid.dim)
    lhs = l2_norm(u0) ** 2
    obs = masked_energy(propagate(u0, t), ball_complement(0.0, r, dim=grid.dim))
    prior = weighted_energy(u0, Weight(a))
    product = 0.0 if (obs == 0.0 and lhs == 0.0) else obs ** p * prior ** (1.0 - p)
    return InequalityReport(lhs, {"observation": obs, "prior": prior, "product": product},
                            _quotient(lhs, prefactor * product))


@dataclass
class InterpolationFit:
    constant: float
    theta: float
    spread: float  # std-dev of the log residuals at the fitted theta


def fit_interpolation_12(samples: Sequence[Tuple[float, float, float]], r: float,
                         a: float, t: float, dim: int) -> InterpolationFit:
    """Fit (C, theta) for the interpolation inequality over a report family
    sharing one (r, a, T).

    samples: tuples (lhs, observation, prior).  theta is chosen to
    minimize the variance of the log residuals, then C is the smallest
    constant making the inequality hold for every member.
    """
    data = [s for s in samples if s[0] > 0 and s[1] > 0 and s[2] > 0]
    if len(data) < 2:
        raise ValueError("need at least two nondegenerate family members")

    def residuals(theta: float) -> np.ndarray:
        p, prefactor = _interpolation_shape(theta, r, a, t, dim)
        out = []
        for lhs, obs, prior in data:
            bound = p * np.log(obs) + (1.0 - p) * np.log(prior) + np.log(prefactor)
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
    p = 1 + (|x'-x''| + r1 + r2)/min(aT, r1) and the separation |x'-x''|
    recorded among the terms.  A scalar centre is (c, ..., c) as in `ball`,
    and the separation is taken between the balls' centres."""
    if min(r1, r2, a, t) <= 0:
        raise ValueError("r1, r2, a, T must all be positive")
    grid = u0.grid
    u_t = propagate(u0, t)
    target, observed = ball(x_dprime, r2, dim=grid.dim), ball(x_prime, r1, dim=grid.dim)
    lhs = masked_energy(u_t, target)
    obs = masked_energy(u_t, observed)
    prior = weighted_energy(u0, Weight(a))
    separation = float(np.linalg.norm(np.subtract(observed.center, target.center)))
    p = 1.0 + (separation + r1 + r2) / min(a * t, r1)
    return InequalityReport(
        lhs, {"observation": obs, "prior": prior, "p": p, "separation": separation},
        _quotient(lhs, obs + prior))


# ---------------------------------------------------------------------------
# band-limited fields and the spectral inequality


def check_band_radius(grid: Grid, band_radius: float) -> None:
    """Reject a band radius at or above the grid Nyquist frequency."""
    if band_radius >= grid.nyquist:
        raise ValueError(
            f"band radius {band_radius} is not below the Nyquist frequency "
            f"{grid.nyquist:.6g}")


def bandlimited_sample(grid: Grid, band_radius: float, seed: int) -> Field:
    """Unit-norm field with iid complex-Gaussian spectrum inside B_N(0).

    Deterministic in seed; rejects band radii at or above the grid Nyquist.
    """
    check_band_radius(grid, band_radius)
    rng = np.random.default_rng(seed)
    coeffs = (rng.standard_normal(grid.node_count)
              + 1j * rng.standard_normal(grid.node_count)) / np.sqrt(2.0)
    dual = grid.dual()
    mask = ball(0.0, band_radius, dim=grid.dim).indicator(dual)
    if not mask.any():
        raise ValueError("band contains no frequency nodes")
    return normalized(grid, idft(Field(dual, coeffs * mask)).values)


def _band_symbol(grid: Grid, band_radius: float) -> np.ndarray:
    """Indicator of the frequency ball B_N(0), in FFT order."""
    return fft_symbol(grid, ball(0.0, band_radius, dim=grid.dim).indicator(grid.dual()))


def extremal_bandlimited_concentration(grid: Grid, r: float, band_radius: float) -> Field:
    """The band-limited field most concentrated on B_r(0) (discrete prolate).

    It is the top eigenvector of K = P_band M_ball P_band and realizes the
    worst (largest) whole/outside energy ratio 1/(1 - mu) among band-limited
    fields on this grid.  mu comes from a dense block on the smaller node set:
    M_ball P_band M_ball on the ball, or F M_ball F^-1 on the band, whose
    kernel fftn(mask)/N is conj(ifftn(mask)) for the real mask: the lattice
    block is its conjugate, with the same mu and conjugate eigenvectors.
    Either block is positive semidefinite, so mu is its top_singular value.
    Raises SolverFailure when 1 - mu is below the floor top_singular
    returns, eps * order, and BlockOrderError when the order passes
    MAX_BLOCK_ORDER.
    """
    check_band_radius(grid, band_radius)
    band = _band_symbol(grid, band_radius)
    ball_mask = ball(0.0, r, dim=grid.dim).indicator(grid)
    ball_idx, band_idx = np.flatnonzero(ball_mask), np.flatnonzero(band)
    on_ball = 0 < ball_idx.size < band_idx.size  # with no ball node, K = 0 on the band
    nodes, symbol = (ball_idx, band) if on_ball else (band_idx, ball_mask)
    mu, vector, _, floor = top_singular(grid, symbol, nodes, nodes)
    if 1.0 - mu < floor:
        raise SolverFailure(
            f"extremal concentration not resolved at r {r:g}, N {band_radius:g}: "
            f"1 - mu {1.0 - mu:.3e} below the floor {floor:.3e}")
    embedded = np.zeros(grid.node_count, dtype=np.complex128)
    embedded[nodes] = vector
    values = spectral_multiply(grid, embedded, band) if on_ball else \
        circulant_kernel(grid, embedded.conj()).ravel()
    return normalized(grid, values)


def spectral_inequality_report(f: Field, radii: Sequence[float],
                               band_radius: float) -> List[InequalityReport]:
    """Whole-space to outside-ball energy ratio for band-limited fields, one
    report per radius r in `radii`.

    The spectrum is projected onto B_N(0) first, once for every radius, so
    the precondition holds by construction.
    """
    if min(radii, default=0.0) < 0 or band_radius < 0:
        raise ValueError("r and N must be nonnegative")
    grid = f.grid
    projected = Field(grid, spectral_multiply(grid, f.values,
                                              _band_symbol(grid, band_radius)))
    lhs = l2_norm(projected) ** 2
    reports = []
    for r in radii:
        outside = masked_energy(projected, ball_complement(0.0, r, dim=grid.dim))
        reports.append(InequalityReport(lhs, {"outside_energy": outside},
                                        _quotient(lhs, outside)))
    return reports


# ---------------------------------------------------------------------------
# moment propagation and the Euler-integral bound


def sobolev_norm_sq(f: Field, order: float) -> float:
    """Spectral H^s norm squared: sum (1+|xi|^2)^s |f_hat|^2 d xi."""
    spectrum = dft(f)
    return density_energy(spectrum, (1.0 + spectrum.grid.radius_sq()) ** order)


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
    """int |xi^{2 beta}| e^{-a|xi|} d xi in closed form: a Gamma reduction in
    1D; in 2D the radial Gamma (2|beta|+1)!/a^{2|beta|+2} times the angular
    Beta integral 2 Gamma(b1+1/2) Gamma(b2+1/2)/Gamma(|beta|+1)."""
    if a <= 0:
        raise ValueError("a must be positive")
    beta = tuple(int(b) for b in beta)
    n = len(beta)
    if n not in (1, 2) or any(b < 0 for b in beta) or sum(beta) > 4:
        raise ValueError("beta must be a multi-index in dim 1 or 2 with |beta| <= 4")
    if n == 1:
        b = beta[0]
        return _in_float_range("Euler integral", a, lambda: 2.0 * a ** (-(2 * b + 1))
                               * float(factorial(2 * b)))
    b1, b2 = beta
    total = b1 + b2
    return _in_float_range("Euler integral", a, lambda: factorial(2 * total + 1)
                           / a ** (2 * total + 2) * 2.0 * gamma(b1 + 0.5)
                           * gamma(b2 + 0.5) / gamma(total + 1))


def euler_bound(a: float, beta: Sequence[int], constant: float) -> float:
    """Square of (2n/a)^{n/2} beta! (Cn/a)^{|beta|}, bounding the integral."""
    beta = tuple(int(b) for b in beta)
    n = len(beta)
    fact = prod(factorial(b) for b in beta)
    return _in_float_range("Euler bound", a, lambda: (2.0 * n / a) ** n * fact ** 2
                           * (constant * n / a) ** (2 * sum(beta)))


def _in_float_range(name: str, a: float, compute: Callable[[], float]) -> float:
    """compute(), a positive quantity; a ValueError naming the amplitude when
    a power of `a` in it overflows, or underflows to zero."""
    try:
        if 0.0 < (value := compute()) < np.inf:
            return value
    except (OverflowError, ZeroDivisionError):
        pass
    raise ValueError(f"the {name} at amplitude a = {a:g} leaves the float range")


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
        fact = prod(factorial(b) for b in beta)
        needed = (a / n) * (np.sqrt(integral) / ((2.0 * n / a) ** (n / 2.0) * fact)) \
            ** (1.0 / total)
        best = max(best, float(needed))
    if best == 0.0:
        raise ValueError("no case with |beta| > 0 given")
    return best
