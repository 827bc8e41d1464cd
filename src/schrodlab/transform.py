"""Unitary Fourier transform, free propagator and the chirp/rescale identity.

The discrete transform carries the continuum normalization
F(xi) ~ (2pi)^{-n/2} int f(x) e^{-i x.xi} dx so that spectra approximate the
continuum transform at the dual lattice nodes; it is exactly unitary for the
discrete norms of `field`.  The free flow u_t = i*Laplace(u) is applied as the
spectral multiplier e^{-i|xi|^2 t}; t < 0 gives the backward flow.  The
chirp/rescale map evaluates the flow at time T on the scaled dual lattice
2T*xi without resampling, which is the discrete form of the identity
(2iT)^{n/2} e^{-i|x|^2/4T} u(x,T) = F[e^{i|.|^2/4T} u0](x/2T).
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

import numpy as np

from .field import Field, Grid, Region

_SQRT_2PI = np.sqrt(2.0 * np.pi)
_INTERPOLATE_ROWS = 256  # evaluation points per phase-matrix chunk


def dft(f: Field) -> Field:
    """Forward transform; returns a Field on f.grid.dual() in monotone xi order."""
    grid = f.grid
    shape = (grid.points_per_dim,) * grid.dim
    pref = (grid.spacing / _SQRT_2PI) ** grid.dim
    spectrum = np.fft.fftshift(np.fft.fftn(np.fft.ifftshift(f.values.reshape(shape))))
    return Field(grid.dual(), pref * spectrum.ravel())


def idft(spec: Field) -> Field:
    """Inverse of dft; returns a Field on spec.grid.dual() (the primal grid)."""
    grid_out = spec.grid.dual()
    shape = (grid_out.points_per_dim,) * grid_out.dim
    pref = (_SQRT_2PI / grid_out.spacing) ** grid_out.dim
    values = np.fft.fftshift(np.fft.ifftn(np.fft.ifftshift(spec.values.reshape(shape))))
    return Field(grid_out, pref * values.ravel())


def _fft_freq_sq(grid: Grid) -> np.ndarray:
    """|xi|^2 on the lattice in numpy fft ordering, flattened row-major."""
    m = grid.points_per_dim
    xi = 2.0 * np.pi * np.fft.fftfreq(m, d=grid.spacing)
    if grid.dim == 1:
        return xi ** 2
    a, b = np.meshgrid(xi, xi, indexing="ij")
    return (a ** 2 + b ** 2).ravel()


def fft_symbol(grid: Grid, dual_values: np.ndarray) -> np.ndarray:
    """Reorder a multiplier sampled on grid.dual() (monotone xi order) into
    the FFT order that spectral_multiply expects.

    Call it once when an operator is built, not once per application."""
    shape = (grid.points_per_dim,) * grid.dim
    return np.fft.ifftshift(dual_values.reshape(shape)).ravel()


def spectral_multiply(grid: Grid, values: np.ndarray, symbol: np.ndarray) -> np.ndarray:
    """idft( symbol * dft(values) ) on raw flat arrays, with symbol in FFT order.

    The shifts and scale factors that turn the raw FFT into the
    continuum-normalized dft cancel against those of idft once the symbol is
    in FFT order, so the multiplier is applied between plain FFTs.
    """
    shape = (grid.points_per_dim,) * grid.dim
    out = np.fft.ifftn(symbol.reshape(shape) * np.fft.fftn(values.reshape(shape)))
    return out.ravel()


MAX_BLOCK_ORDER = 4096  # cap on a lattice_block order: 256 MiB of complex entries


def lattice_block(grid: Grid, symbol: np.ndarray, rows: np.ndarray,
                  cols: np.ndarray) -> np.ndarray:
    """Rows `rows`, columns `cols` (flat node indices) of the circulant
    v -> spectral_multiply(grid, v, symbol): ifftn(symbol) at (x - y) mod M."""
    shape = (grid.points_per_dim,) * grid.dim
    offsets = tuple((x[:, None] - y) % grid.points_per_dim for x, y in
                    zip(np.unravel_index(rows, shape), np.unravel_index(cols, shape)))
    return np.fft.ifftn(symbol.reshape(shape))[offsets]


def propagator_symbol(grid: Grid, t: float) -> np.ndarray:
    """The free-flow multiplier e^{-i|xi|^2 t} in FFT order, for spectral_multiply.

    Operators that apply the same flow time repeatedly (the Krylov matvecs)
    build it once, when the operator is built."""
    return np.exp(-1j * _fft_freq_sq(grid) * t)


def flow_observation(grid: Grid, terms: Sequence[Tuple[float, Region]]):
    """The observation O v = (M_i P(t_i) v)_i on raw arrays, for terms
    (t_i, region_i) with P(t) the flow over time t and M_i the indicator of
    region_i, as the triple (observe, observe_star, gram):

        observe(v)       -> [M_i P(t_i) v, ...], one array per term
        observe_star(hs) -> sum_i P(t_i)* M_i h_i, the exact discrete adjoint
        gram(v)          -> O*O v = sum_i P(t_i)* M_i P(t_i) v, in one pass

    Each propagator symbol is built once, here; a term at t_i = 0 is the
    exact mask."""
    built = []  # (mask, forward symbol, backward symbol); no symbols at t = 0
    for t, region in terms:
        forward, backward = (None, None) if t == 0.0 else \
            (propagator_symbol(grid, t), propagator_symbol(grid, -t))
        built.append((region.indicator(grid), forward, backward))

    def flow(v: np.ndarray, symbol) -> np.ndarray:
        return v if symbol is None else spectral_multiply(grid, v, symbol)

    def observe(v: np.ndarray) -> List[np.ndarray]:
        return [mask * flow(v, forward) for mask, forward, _ in built]

    def observe_star(hs: Sequence[np.ndarray]) -> np.ndarray:
        if len(hs) != len(built):
            raise ValueError(f"observe_star takes one array per term "
                             f"({len(built)}), got {len(hs)}")
        acc = np.zeros(grid.node_count, dtype=np.complex128)
        for (mask, _, backward), h in zip(built, hs):
            acc += flow(mask * h, backward)
        return acc

    def gram(v: np.ndarray) -> np.ndarray:
        acc = np.zeros(v.shape, dtype=np.complex128)
        for mask, forward, backward in built:
            acc += flow(mask * flow(v, forward), backward)
        return acc

    return observe, observe_star, gram


def propagate_values(grid: Grid, values: np.ndarray, t: float) -> np.ndarray:
    """Array-level free flow; the allocation-light worker behind propagate."""
    if t == 0.0:
        return values.astype(np.complex128, copy=True)
    return spectral_multiply(grid, values, propagator_symbol(grid, t))


def propagate(f: Field, t: float) -> Field:
    """idft( e^{-i|xi|^2 t} dft(f) ) through spectral_multiply; negative t
    gives the backward flow."""
    if t == 0.0:
        return f
    return Field(f.grid, propagate_values(f.grid, f.values, t))


def dual_solve(z: Field, horizon: float, t: float) -> Field:
    """Terminal-value flow: the state at time t of the solution equal to z at
    time `horizon`; requires 0 <= t <= horizon."""
    if not 0.0 <= t <= horizon:
        raise ValueError(f"dual time t={t} outside [0, {horizon}]")
    return propagate(z, t - horizon)


def chirp_aliasing_ok(grid: Grid, t: float) -> bool:
    """Aliasing guard for the quadratic chirp e^{i|x|^2/4t}: its local
    frequency at the box edge, L/(2t), must not exceed the Nyquist pi/h."""
    return grid.half_extent / (2.0 * abs(t)) <= grid.nyquist


def fresnel_output_grid(grid: Grid, t: float) -> Grid:
    """The scaled dual lattice 2t*xi as a Grid."""
    return Grid(grid.dim, 2.0 * t * grid.nyquist, grid.points_per_dim)


def fresnel_map(u0: Field, t: float) -> Field:
    """Flow at time t > 0 evaluated on the output lattice x = 2t*xi.

    Exact on lattice nodes as a composition of the chirp, the discrete
    transform and the output chirp; unitary between the discrete norms of the
    input and output grids.  The returned Field carries the output grid.
    """
    if not t > 0:
        raise ValueError(f"fresnel map requires t > 0, got {t}")
    grid = u0.grid
    n = grid.dim
    chirped = Field(grid, np.exp(1j * grid.radius_sq() / (4.0 * t)) * u0.values)
    spec = dft(chirped)
    out_grid = fresnel_output_grid(grid, t)
    # (2it)^{-n/2} on the principal branch
    pref = (2.0 * t) ** (-n / 2.0) * np.exp(-1j * n * np.pi / 4.0)
    out_chirp = np.exp(1j * out_grid.radius_sq() / (4.0 * t))
    return Field(out_grid, pref * out_chirp * spec.values)


def gaussian_oracle(grid: Grid, t: float, sigma: float = 1.0) -> Field:
    """Closed-form flow of the separable Gaussian prod_axes e^{-x^2/(2 sigma^2)}:

        u(x, t) = prod_axes (1 + 2it/sigma^2)^{-1/2} e^{-x^2/(2(sigma^2 + 2it))}

    Independent of the spectral code path; used as the analytic reference.
    """
    if not sigma > 0:
        raise ValueError("sigma must be positive")
    denom = sigma ** 2 + 2j * t
    amp = (1.0 + 2j * t / sigma ** 2) ** (-0.5)
    values = np.ones(grid.node_count, dtype=np.complex128)
    for axis in grid.coords():
        values *= amp * np.exp(-(axis ** 2) / (2.0 * denom))
    return Field(grid, values)


def bandlimited_interpolate(f: Field, points: np.ndarray) -> np.ndarray:
    """Evaluate the trigonometric interpolant of a 1D field f at the points
    (shape (K,)).  Cost O(K * M), _INTERPOLATE_ROWS points at a time; meant
    for cross-lattice comparisons, not bulk resampling.
    """
    grid = f.grid
    if grid.dim != 1:
        raise ValueError("band-limited interpolation is one-dimensional; "
                         f"got dim {grid.dim}")
    spec = dft(f)
    xi = grid.freq_axis_nodes()
    scale = grid.freq_spacing / _SQRT_2PI
    pts = np.atleast_1d(np.asarray(points, dtype=float)).ravel()
    out = np.empty(pts.size, dtype=np.complex128)
    for start in range(0, pts.size, _INTERPOLATE_ROWS):
        phases = 1j * np.outer(pts[start:start + _INTERPOLATE_ROWS], xi)
        np.exp(phases, out=phases)  # in place: one chunk-sized array per step
        phases *= scale
        out[start:start + len(phases)] = phases @ spec.values
    return out
