"""Evaluators for the observability / unique-continuation inequalities.

Each evaluator measures both sides of one inequality on concrete fields and
returns an InequalityReport; nothing here asserts a theoretical constant.
Constants are estimated empirically, either by fitting report families
(affine log-fits) or as the inverse smallest eigenvalue of the observation
Gramian, computed exactly from one dense lattice block (or its two
reflection halves).
"""

from __future__ import annotations

from dataclasses import dataclass
from math import factorial, gamma, prod
from typing import Dict, List, Sequence, Tuple

import numpy as np
from scipy.linalg import eigh, svd

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
from .transform import (MAX_BLOCK_ORDER, chirp_aliasing_ok, dft, fft_symbol, idft,
                        propagate, propagator_symbol, reflection_blocks,
                        spectral_multiply)


class AliasingError(ValueError):
    """The quadratic chirp is not resolvable on this grid at this time."""


@dataclass
class InequalityReport:
    lhs: float
    terms: Dict[str, float]
    quotient: float
    flags: Dict[str, bool]


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
    return InequalityReport(lhs, {"observation_S": obs_s, "observation_T": obs_t},
                            quotient, flags)


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
        lhs, {"outside_space": outside_space, "outside_frequency": outside_freq},
        quotient, flags)


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


def _block_floor(order: int) -> float:
    """Rounding floor eps * order of a dense block of that order; an order
    outside 1..MAX_BLOCK_ORDER is refused before the block is built."""
    if not 0 < order <= MAX_BLOCK_ORDER:
        raise ValueError(f"dense block of order {order} is outside 1..{MAX_BLOCK_ORDER}")
    return float(np.finfo(float).eps * order)


def empirical_constant(s: float, t: float, region_a: Region, region_b: Region,
                       grid: Grid) -> EmpiricalConstant:
    """Best discrete two-time observability constant 1/lambda_min(G).

    G = M_A + P* M_B P is a sum of two projections, so 2 - G = X X* with
    X = [E_a, P* E_b], E_a and E_b embedding the nodes off A and off B, and
    lambda_min(G) = 1 - sigma_max(C) at X (v; u), with C v = sigma_max u and
    C = E_b* P E_a a lattice block of the flow, decomposed on its reflection
    halves when both node sets are centred (reflection_blocks).  Converged
    means lambda_min is at least the rounding floor of X*X; below it, neither
    it nor its inverse is resolved.
    """
    if not t > s:
        raise ValueError("need T > S for the observability Gramian")
    cols = np.flatnonzero(region_a.indicator(grid) == 0.0)
    rows = np.flatnonzero(region_b.indicator(grid) == 0.0)
    if cols.size + rows.size == 0:  # A and B hold every node: G = 2I
        unit = Field(grid, np.eye(1, grid.node_count)[0])
        return EmpiricalConstant(2.0, 0.5, unit, 0.0, True)
    floor = _block_floor(cols.size + rows.size)
    sigma, u, v = 0.0, np.eye(1, rows.size)[0], np.eye(1, cols.size)[0]
    if rows.size and cols.size:  # else C is empty and G is I plus a projection
        for half in reflection_blocks(grid, propagator_symbol(grid, t - s), rows, cols):
            if not half.block.size:
                continue
            left, values, right = svd(half.block, full_matrices=False)
            if values[0] > sigma:
                sigma, u, v = (float(values[0]), half.expand_rows(left[:, 0]),
                               half.expand_cols(right[0].conj()))
    lam = max(1.0 - sigma, 0.0)
    extremizer = np.zeros(grid.node_count, dtype=np.complex128)
    extremizer[rows] = u
    extremizer = spectral_multiply(grid, extremizer, propagator_symbol(grid, s - t))
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
    prior, capped = weighted_energy_flagged(u0, Weight(a, "grow"))
    product = 0.0 if (obs == 0.0 and lhs == 0.0) else obs ** p * prior ** (1.0 - p)
    flags = {"weight_capped": capped, "valid": not capped}
    quotient = _quotient(lhs, prefactor * product, flags)
    return InequalityReport(
        lhs, {"observation": obs, "prior": prior, "product": product}, quotient, flags)


@dataclass
class InterpolationFit:
    constant: float
    theta: float
    spread: float  # std-dev of the log residuals at the fitted theta


def fit_interpolation_12(samples: Sequence[Tuple[float, float, float, float, float, float]],
                         dim: int) -> InterpolationFit:
    """Fit (C, theta) for the interpolation inequality over a report family.

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
            p, prefactor = _interpolation_shape(theta, r, a, t, dim)
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
    recorded among the terms."""
    if min(r1, r2, a, t) <= 0:
        raise ValueError("r1, r2, a, T must all be positive")
    grid = u0.grid
    u_t = propagate(u0, t)
    lhs = masked_energy(u_t, ball(x_dprime, r2, dim=grid.dim))
    obs = masked_energy(u_t, ball(x_prime, r1, dim=grid.dim))
    prior, capped = weighted_energy_flagged(u0, Weight(a, "grow"))
    separation = float(np.linalg.norm(
        np.atleast_1d(np.asarray(x_prime, dtype=float))
        - np.atleast_1d(np.asarray(x_dprime, dtype=float))))
    p = 1.0 + (separation + r1 + r2) / min(a * t, r1)
    flags = {"weight_capped": capped, "valid": not capped}
    quotient = _quotient(lhs, obs + prior, flags)
    return InequalityReport(
        lhs, {"observation": obs, "prior": prior, "p": p, "separation": separation},
        quotient, flags)


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
    spectrum = Field(dual, coeffs * mask)
    sample = idft(spectrum)
    norm = l2_norm(sample)
    if norm == 0.0:
        raise ValueError("band contains no frequency nodes")
    return Field(grid, sample.values / norm)


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
    Either block is decomposed on its reflection halves when it has them.
    Raises RuntimeError when 1 - mu is below the rounding floor.
    """
    check_band_radius(grid, band_radius)
    band = _band_symbol(grid, band_radius)
    ball_mask = ball(0.0, r, dim=grid.dim).indicator(grid)
    ball_idx, band_idx = np.flatnonzero(ball_mask), np.flatnonzero(band)
    on_ball = 0 < ball_idx.size < band_idx.size  # with no ball node, K = 0 on the band
    nodes, symbol = (ball_idx, band) if on_ball else (band_idx, ball_mask)
    floor = _block_floor(nodes.size)
    mu, vector = -np.inf, None
    for half in reflection_blocks(grid, symbol, nodes, nodes):
        order = half.block.shape[0]
        if order:
            values, vectors = eigh(half.block, subset_by_index=[order - 1, order - 1])
            if values[0] > mu:
                mu, vector = float(values[0]), half.expand_rows(vectors[:, 0])
    if 1.0 - mu < floor:
        raise RuntimeError(
            f"extremal concentration not resolved at r {r:g}, N {band_radius:g}: "
            f"1 - mu {1.0 - mu:.3e} below the floor {floor:.3e}")
    embedded = np.zeros(grid.node_count, dtype=np.complex128)
    embedded[nodes] = vector
    values = spectral_multiply(grid, embedded, band) if on_ball else \
        np.fft.ifftn(embedded.conj().reshape((grid.points_per_dim,) * grid.dim)).ravel()
    return Field(grid, values / l2_norm(Field(grid, values)))


def spectral_inequality_report(f: Field, radii: Sequence[float],
                               band_radius: float) -> List[InequalityReport]:
    """Whole-space to outside-ball energy ratio for band-limited fields, one
    report per radius r in `radii`.

    The spectrum is projected onto B_N(0) first, once for every radius, so
    the precondition holds by construction.  A denominator below 1e-300 is
    reported as a failure flag (a nonzero band-limited function cannot
    vanish on an open set).
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
        flags: Dict[str, bool] = {"degenerate_denominator": bool(outside < 1e-300)}
        reports.append(InequalityReport(lhs, {"outside_energy": outside},
                                        _quotient(lhs, outside, flags), flags))
    return reports


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
        return 2.0 * a ** (-(2 * b + 1)) * float(factorial(2 * b))
    b1, b2 = beta
    total = b1 + b2
    return factorial(2 * total + 1) / a ** (2 * total + 2) \
        * 2.0 * gamma(b1 + 0.5) * gamma(b2 + 0.5) / gamma(total + 1)


def euler_bound(a: float, beta: Sequence[int], constant: float) -> float:
    """Square of (2n/a)^{n/2} beta! (Cn/a)^{|beta|}, bounding the integral."""
    beta = tuple(int(b) for b in beta)
    n = len(beta)
    fact = prod(factorial(b) for b in beta)
    return (2.0 * n / a) ** n * fact ** 2 * (constant * n / a) ** (2 * sum(beta))


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
