"""Explicit sequences breaking the would-be stronger observability bounds.

Three families, indexed by k:

  concentrating   u_k = e^{-i|x|^2/4T} k^{n/2} g(k(x - x')): initial mass
                  collapses onto x', terminal mass spreads so the inside-ball
                  terminal energy decays like k^{-n};
  time_reversed   the state equal to g_k at time S1 (decay_study reads it from
                  the flow of g_k; it is never built at time 0), whose
                  outside-ball energy at S1 and time-integrated inside-ball
                  energy both vanish along k;
  modulated       u_k = e^{-i|x|^2/4T} e^{-i k x_1} g(x): the terminal bump
                  translates along the first axis out of any fixed ball while
                  every e^{a|x|} weighted energy stays constant in k.

Terminal energies are evaluated on the chirp/rescale output lattice rather
than the periodic input box: the flowed states spread far beyond [-L, L]
for large k, where direct spectral propagation would wrap around.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence

import numpy as np

from .field import Field, Grid, Region, Weight, ball, ball_complement, \
    masked_energy, mass_radius, normalized, weighted_energy
from .fitting import FitResult, loglog_fit
from .transform import chirp, dft, fresnel_map, propagate

FAMILIES = ("concentrating", "time_reversed", "modulated")
PROFILES = ("gaussian", "bump")


class ResolvabilityError(ValueError):
    """The requested index k is not representable on this grid."""


@dataclass(frozen=True)
class SequenceSpec:
    """One counterexample family instance (everything except the index k)."""

    family: str
    profile: str = "gaussian"
    x_prime: float = 0.0       # concentration center x'
    x_dprime: float = 0.0      # target ball center x'' (or x0 for modulated)
    r1: float = 1.0            # initial observation ball radius
    r2: float = 1.0            # terminal ball radius
    horizon: float = 1.0       # T, families concentrating / modulated
    s1: float = 0.5            # family time_reversed
    s2: float = 0.5
    weight_amplitude: float = 1.0  # a in the bounded e^{a|x|} clause

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ValueError(f"unknown family {self.family!r}")
        if self.profile not in PROFILES:
            raise ValueError(f"unknown profile {self.profile!r}")
        if self.s2 <= 0:
            raise ValueError("the time integral over (0, S2) needs S2 > 0")


def _profile_values(profile: str, scaled_rsq: np.ndarray) -> np.ndarray:
    """Unit-scale smooth profile evaluated at |y|^2 = scaled_rsq."""
    if profile == "gaussian":
        return np.exp(-scaled_rsq / 2.0)
    # compactly supported bump exp(-1/(1-|y|^2)) on |y| < 1
    out = np.zeros_like(scaled_rsq)
    inside = scaled_rsq < 1.0
    out[inside] = np.exp(-1.0 / (1.0 - scaled_rsq[inside]))
    return out


def base_profile(grid: Grid, profile: str = "gaussian", width: float = 1.0) -> Field:
    """The unit-norm profile g(x / width) on the grid, centred at the origin."""
    return normalized(grid, _profile_values(profile, grid.radius_sq() / width ** 2))


def concentrated_profile(grid: Grid, spec: SequenceSpec, k: int) -> Field:
    """g_k = k^{n/2} g(k(x - x')), normalized on the lattice.

    Rejects k whose concentration width 1/k falls under four grid spacings.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    h = grid.spacing
    if 1.0 / k <= 4.0 * h:
        raise ResolvabilityError(
            f"concentration width 1/k = {1.0 / k:.4g} must exceed 4h = {4.0 * h:.4g}; "
            f"this grid resolves k <= {int(np.floor(1.0 / (4.0 * h)))}"
        )
    rsq = grid.radius_sq(spec.x_prime)
    return normalized(grid, float(k) ** (grid.dim / 2.0)
                      * _profile_values(spec.profile, k * k * rsq))


def _spread_radii(f: Field):
    """Spatial and spectral radii holding all but 1e-12 of the energy."""
    return mass_radius(f, 1e-12), mass_radius(dft(f), 1e-12)


def generate(spec: SequenceSpec, grid: Grid, k: int) -> Field:
    """The k-th member u_k of a chirped family, unit L2 norm on the lattice."""
    if spec.family == "concentrating":
        g_k = concentrated_profile(grid, spec, k)
        return Field(grid, chirp(grid, -spec.horizon) * g_k.values)
    if spec.family == "modulated":
        if k < 0:
            raise ValueError("k must be >= 0 for the modulated family")
        if k >= grid.nyquist:
            raise ResolvabilityError(
                f"modulation frequency k = {k} must stay below the Nyquist "
                f"frequency {grid.nyquist:.4g}"
            )
        g = base_profile(grid, spec.profile)
        phase = np.exp(-1j * float(k) * grid.coords()[0])
        return Field(grid, chirp(grid, -spec.horizon) * phase * g.values)
    raise ValueError("generate builds the chirped families only; the "
                     "time-reversed family is evaluated by decay_study")


def _ball_energies(g: Field, taus: np.ndarray, region: Region) -> List[float]:
    """Energy of the flow of g on `region` at each time in taus, each routed
    to whichever of direct propagation (no box wrap) or the rescaled-lattice
    map (chirp resolvable) is valid; real g lets negative times reuse |tau|
    by time reversal.  The spread of g and the real-profile check are
    computed once, for all times."""
    if np.any(taus < 0.0) and \
            np.abs(g.values.imag).max() > 1e-13 * np.abs(g.values).max():
        raise ValueError("negative-time shortcut needs a real profile")
    grid = g.grid
    spatial, spectral = _spread_radii(g)
    center_reach = float(np.linalg.norm(np.atleast_1d(region.center))) + region.radius
    energies = []
    for tau in np.abs(taus):
        if tau == 0.0:
            energies.append(masked_energy(g, region))
        elif spatial + 2.0 * tau * spectral <= 0.9 * grid.half_extent:
            energies.append(masked_energy(propagate(g, tau), region))
        elif (spatial / (2.0 * tau) + spectral <= 0.95 * grid.nyquist
              and 2.0 * tau * grid.nyquist >= center_reach):
            energies.append(masked_energy(fresnel_map(g, tau), region))
        else:
            raise ResolvabilityError(
                f"no valid route at time {tau:.4g}: direct flow would wrap and the "
                f"chirped transform is not resolvable (grid too coarse or box too small)"
            )
    return energies


@dataclass
class DecayStudy:
    family: str
    rows: List[Dict[str, float]]
    fits: Dict[str, FitResult]


def decay_study(spec: SequenceSpec, grid: Grid, k_values: Sequence[int],
                time_slices: int = 48) -> DecayStudy:
    """Per-k observables of the family plus log-log slope fits.

    concentrating: outside-ball energy of u_k at time 0 and inside-ball
        terminal energy (expected slope -n along k);
    time_reversed: outside-ball energy at S1 and the trapezoid time integral
        of the inside-ball energy over (0, S2) (>= 32 slices);
    modulated: inside-ball terminal energy and the e^{a|x|} weighted energy
        (constant in k).
    """
    if spec.family == "time_reversed":
        if time_slices < 32:
            raise ValueError("the time integral needs at least 32 slices")
        times = np.linspace(0.0, spec.s2, time_slices + 1)
    outside = ball_complement(spec.x_prime, spec.r1, dim=grid.dim)
    inside = ball(spec.x_dprime, spec.r2, dim=grid.dim)
    rows: List[Dict[str, float]] = []
    for k in k_values:
        row = {"k": float(k)}
        if spec.family == "time_reversed":
            g_k = concentrated_profile(grid, spec, k)
            row["outside_at_s1"] = masked_energy(g_k, outside)
            energies = _ball_energies(g_k, times - spec.s1, inside)
            row["time_integral_inside"] = float(np.trapezoid(energies, times))
        else:
            u_k = generate(spec, grid, k)
            if spec.family == "concentrating":
                row["outside_initial"] = masked_energy(u_k, outside)
            row["terminal_inside"] = masked_energy(fresnel_map(u_k, spec.horizon), inside)
            if spec.family == "modulated":
                row["weighted"] = weighted_energy(u_k, Weight(spec.weight_amplitude))
        rows.append(row)
    fits = {}
    if spec.family == "concentrating":
        fits["terminal_inside"] = loglog_fit([r["k"] for r in rows],
                                             [r["terminal_inside"] for r in rows])
    return DecayStudy(spec.family, rows, fits)
