"""Grids, complex fields, observation regions and exponential weights.

Everything downstream (propagators, inequality reports, control solves)
is built from the masked and weighted L2 sums defined here.  All integrals
over R^n are truncated to the box [-L, L]^dim and evaluated as plain
Riemann sums, which on a periodic lattice coincide with the trapezoid rule
and keep the discrete Parseval identity exact.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from typing import Optional, Tuple

import numpy as np

# exp(x) overflows near x ~ 709.78; a weight's exponent past this is refused
EXPONENT_CAP = 700.0


class GridError(ValueError):
    """Invalid grid construction parameters."""


class CappedWeightError(ValueError):
    """An exponential weight's exponent passes EXPONENT_CAP on the grid."""


class EnergyOverflowError(FloatingPointError):
    """A weighted energy produced a non-finite value with its weight in range."""


@dataclass(frozen=True)
class Grid:
    """Uniform tensor-product lattice on [-L, L]^dim with its dual lattice.

    Nodes per axis: x_j = -L + j*h, j = 0..M-1, h = 2L/M.
    Frequency nodes per axis: xi_m = (pi/L) * (m - M/2), m = 0..M-1,
    i.e. integer multiples of pi/L covering [-M/2, M/2).
    """

    dim: int
    half_extent: float
    points_per_dim: int
    # set by dual(): pi*M/(2*(pi*M/(2L))) need not round back to L
    _primal: Optional["Grid"] = field(default=None, compare=False, repr=False)

    def __post_init__(self):
        if self.dim not in (1, 2):
            raise GridError(f"dim must be 1 or 2, got {self.dim}")
        if not self.half_extent > 0:
            raise GridError(f"half_extent must be positive, got {self.half_extent}")
        m = self.points_per_dim
        if m % 2 != 0 or m < 8:
            raise GridError(f"points_per_dim must be even and >= 8, got {m}")

    @property
    def spacing(self) -> float:
        return 2.0 * self.half_extent / self.points_per_dim

    @property
    def freq_spacing(self) -> float:
        return np.pi / self.half_extent

    @property
    def nyquist(self) -> float:
        """Largest resolvable frequency magnitude pi/h."""
        return np.pi / self.spacing

    @property
    def node_count(self) -> int:
        return self.points_per_dim ** self.dim

    def axis_nodes(self) -> np.ndarray:
        return _axis_nodes(self)

    def freq_axis_nodes(self) -> np.ndarray:
        return _freq_axis_nodes(self)

    def coords(self) -> Tuple[np.ndarray, ...]:
        """Node coordinates per axis, each a flat array of length M^dim (row-major)."""
        return _coords(self)

    def radius_sq(self, center=None) -> np.ndarray:
        """|x - center|^2 at every node, flattened row-major."""
        coords = self.coords()
        if center is None:
            center = (0.0,) * self.dim
        center = _as_center(center, self.dim)
        out = np.zeros(self.node_count)
        for axis, c in zip(coords, center):
            out += (axis - c) ** 2
        return out

    def dual(self) -> "Grid":
        """The frequency lattice as a Grid (half-extent pi*M/(2L), same M);
        the dual of a dual is the primal itself."""
        if self._primal is not None:
            return self._primal
        return Grid(self.dim, self.nyquist, self.points_per_dim, self)


@lru_cache(maxsize=None)
def _axis_nodes(grid: Grid) -> np.ndarray:
    j = np.arange(grid.points_per_dim)
    nodes = -grid.half_extent + j * grid.spacing
    nodes.setflags(write=False)
    return nodes


@lru_cache(maxsize=None)
def _freq_axis_nodes(grid: Grid) -> np.ndarray:
    m = np.arange(grid.points_per_dim)
    nodes = (np.pi / grid.half_extent) * (m - grid.points_per_dim // 2)
    nodes.setflags(write=False)
    return nodes


@lru_cache(maxsize=None)
def _coords(grid: Grid) -> Tuple[np.ndarray, ...]:
    axis = _axis_nodes(grid)
    if grid.dim == 1:
        return (axis,)
    x0, x1 = np.meshgrid(axis, axis, indexing="ij")
    a, b = x0.ravel(), x1.ravel()
    a.setflags(write=False)
    b.setflags(write=False)
    return (a, b)


def _as_center(center, dim: int) -> Tuple[float, ...]:
    if np.isscalar(center):
        center = (float(center),) * dim if dim > 1 else (float(center),)
    center = tuple(float(c) for c in np.atleast_1d(center))
    if len(center) != dim:
        raise ValueError(f"center has {len(center)} components, grid dim is {dim}")
    return center


def make_grid(dim: int, half_extent: float, points_per_dim: int) -> Grid:
    """Validated grid constructor; rejects odd M, nonpositive L, dim not in {1,2}."""
    return Grid(dim, float(half_extent), int(points_per_dim))


@dataclass(frozen=True)
class Field:
    """Complex-valued function sampled on a Grid (row-major flattened values).

    Fields are immutable after construction; all operations return new Fields.
    """

    grid: Grid
    values: np.ndarray

    def __post_init__(self):
        values = np.array(self.values, dtype=np.complex128)
        if values.shape != (self.grid.node_count,):
            raise ValueError(
                f"values must be flat with length {self.grid.node_count}, "
                f"got shape {values.shape}"
            )
        if not np.all(np.isfinite(values.view(np.float64))):
            raise ValueError("field values must be finite")
        values.setflags(write=False)
        object.__setattr__(self, "values", values)


def field_from_function(grid: Grid, fn) -> Field:
    """Sample fn(*coords) on the grid nodes."""
    return Field(grid, np.asarray(fn(*grid.coords()), dtype=np.complex128).ravel())


def gaussian_state(grid: Grid, sigma: float = 1.0, center: float = 0.0) -> Field:
    """exp(-|x - c|^2 / (2 sigma^2)) with c = (center, ..., center)."""
    return field_from_function(
        grid, lambda *axes: np.exp(-sum((ax - center) ** 2 for ax in axes)
                                   / (2.0 * sigma ** 2)))


def zero_field(grid: Grid) -> Field:
    return Field(grid, np.zeros(grid.node_count, dtype=np.complex128))


@dataclass(frozen=True)
class Region:
    """Closed ball, ball complement, or the whole space.

    A node belongs to a ball iff |x - center| <= radius (closed-ball
    convention).  A radius-0 ball is treated as empty: it has zero measure in
    the continuum, so its indicator must not pick up the center node.
    """

    kind: str  # "ball" | "ball_complement" | "all"
    center: Tuple[float, ...] = ()
    radius: float = 0.0

    def __post_init__(self):
        if self.kind not in ("ball", "ball_complement", "all"):
            raise ValueError(f"unknown region kind {self.kind!r}")
        if self.kind != "all" and self.radius < 0:
            raise ValueError("region radius must be nonnegative")

    def indicator(self, grid: Grid) -> np.ndarray:
        if self.kind == "all":
            return np.ones(grid.node_count)
        if self.radius == 0.0:
            inside = np.zeros(grid.node_count, dtype=bool)
        else:
            rsq = grid.radius_sq(self.center if self.center else None)
            inside = rsq <= self.radius ** 2
        mask = inside if self.kind == "ball" else ~inside
        return mask.astype(float)

    def complement(self) -> "Region":
        if self.kind == "ball":
            return Region("ball_complement", self.center, self.radius)
        if self.kind == "ball_complement":
            return Region("ball", self.center, self.radius)
        raise ValueError("the whole space has empty complement; not representable")


def ball(center, radius: float, dim: int = None) -> Region:
    center = tuple(float(c) for c in np.atleast_1d(center))
    if dim is not None and len(center) == 1 and dim > 1:
        center = center * dim
    return Region("ball", center, float(radius))


def ball_complement(center, radius: float, dim: int = None) -> Region:
    return ball(center, radius, dim).complement()


def whole_space() -> Region:
    return Region("all")


@dataclass(frozen=True)
class Weight:
    """Exponential weight e^{a|x - c|}, c the origin unless `center` is set
    (the e^{b|x-x'|} weights of the decay estimates); evaluate() raises
    CappedWeightError when a|x - c| passes EXPONENT_CAP at some node."""

    amplitude: float
    center: Tuple[float, ...] = ()

    def __post_init__(self):
        if not self.amplitude > 0:
            raise ValueError("weight amplitude must be positive")

    def evaluate(self, grid: Grid) -> np.ndarray:
        """Weight values on the grid; CappedWeightError past the exponent cap."""
        rsq = grid.radius_sq(self.center if self.center else None)
        arg = self.amplitude * rsq ** 0.5
        peak = float(arg.max())
        if peak > EXPONENT_CAP:
            raise CappedWeightError(
                f"the exponential weight of amplitude {self.amplitude:g} reaches "
                f"exponent {peak:.4g} on this box, past the cap {EXPONENT_CAP:g}; "
                f"shrink the amplitude or L")
        return np.exp(arg)


def l2_norm(f: Field) -> float:
    """Discrete L2 norm h^{dim/2} * ||values||_2."""
    return _l2_norm(f.grid, f.values)


def _l2_norm(grid: Grid, values: np.ndarray) -> float:
    return float(np.linalg.norm(values) * grid.spacing ** (grid.dim / 2.0))


def normalized(grid: Grid, values) -> Field:
    """The unit-norm Field values / l2_norm, built in one Field construction."""
    values = np.asarray(values, dtype=np.complex128)
    return Field(grid, values / _l2_norm(grid, values))


def dot(f: Field, g: Field) -> complex:
    """Discrete inner product h^dim * sum f * conj(g); rejects grid mismatch."""
    if f.grid != g.grid:
        raise ValueError("inner product requires fields on the same grid")
    h = f.grid.spacing
    return complex(np.sum(f.values * np.conj(g.values)) * h ** f.grid.dim)


def masked_energy(f: Field, region: Region) -> float:
    """h^dim * sum over region of |f|^2 (Riemann sum of the masked energy)."""
    return density_energy(f, region.indicator(f.grid))


def weighted_energy(f: Field, weight: Weight) -> float:
    """h^dim * sum w |f|^2; CappedWeightError if the weight passes its cap."""
    return density_energy(f, weight.evaluate(f.grid))


def density_energy(f: Field, density: np.ndarray) -> float:
    """h^dim * sum density |f|^2, the one Riemann-sum energy every masked,
    weighted or moment energy goes through; raises EnergyOverflowError if a
    summand overflows (|f|^2 past the float range, or large enough against a
    density near e^{cap})."""
    with np.errstate(over="ignore", invalid="ignore"):
        summands = density * np.abs(f.values) ** 2
    if not np.all(np.isfinite(summands)):
        raise EnergyOverflowError("an energy summand density*|f|^2 overflowed")
    h = f.grid.spacing
    return float(np.sum(summands) * h ** f.grid.dim)


def radial_moment(f: Field, order: int) -> float:
    """h^dim * sum |x|^order |f|^2 (polynomial moment about the origin)."""
    return density_energy(f, f.grid.radius_sq() ** (order / 2.0))


def box_tail_fraction(f: Field) -> float:
    """Mass fraction outside [-L/2, L/2]^dim; the truncation-control check.

    Experiment configs must keep this below their declared tail tolerance so
    that the box [-L, L]^dim is an honest stand-in for R^n.
    """
    total = l2_norm(f) ** 2
    if total == 0.0:
        return 0.0
    half = f.grid.half_extent / 2.0
    inside = np.ones(f.grid.node_count, dtype=bool)
    for axis in f.grid.coords():
        inside &= np.abs(axis) <= half
    h = f.grid.spacing
    inner = float(np.sum(np.abs(f.values[inside]) ** 2) * h ** f.grid.dim)
    return max(0.0, 1.0 - inner / total)
