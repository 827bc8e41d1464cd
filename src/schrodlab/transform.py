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

import numpy as np

from .field import Field, Grid

_SQRT_2PI = np.sqrt(2.0 * np.pi)


def _alt_signs(grid: Grid) -> np.ndarray:
    """(-1)^{j0+...+j_{dim-1}} over the flattened lattice."""
    m = grid.points_per_dim
    s = (-1.0) ** np.arange(m)
    if grid.dim == 1:
        return s
    return np.outer(s, s).ravel()


def _center_sign(grid: Grid) -> float:
    """(-1)^{M/2} per axis; +1 when M is a multiple of 4."""
    return float((-1.0) ** (grid.points_per_dim // 2)) ** grid.dim


def dft(f: Field) -> Field:
    """Forward transform; returns a Field on f.grid.dual() in monotone xi order."""
    grid = f.grid
    m = grid.points_per_dim
    shape = (m,) * grid.dim
    signs = _alt_signs(grid)
    pref = (grid.spacing / _SQRT_2PI) ** grid.dim * _center_sign(grid)
    spectrum = np.fft.fftn((signs * f.values).reshape(shape)).ravel()
    return Field(grid.dual(), pref * signs * spectrum)


def idft(spec: Field) -> Field:
    """Inverse of dft; returns a Field on spec.grid.dual() (the primal grid)."""
    grid_out = spec.grid.dual()
    m = grid_out.points_per_dim
    shape = (m,) * grid_out.dim
    signs = _alt_signs(grid_out)
    pref = (_SQRT_2PI / grid_out.spacing) ** grid_out.dim * _center_sign(grid_out)
    values = np.fft.ifftn((signs * spec.values).reshape(shape)).ravel()
    return Field(grid_out, pref * signs * values)


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

    The sign and scale factors that turn the raw FFT into the
    continuum-normalized dft are diagonal in frequency, so they commute with
    any frequency multiplier and cancel against those of idft; the multiplier
    is therefore applied between plain FFTs.
    """
    shape = (grid.points_per_dim,) * grid.dim
    out = np.fft.ifftn(symbol.reshape(shape) * np.fft.fftn(values.reshape(shape)))
    return out.ravel()


def propagate_values(grid: Grid, values: np.ndarray, t: float) -> np.ndarray:
    """Array-level free flow; the allocation-light worker behind propagate."""
    if t == 0.0:
        return values.astype(np.complex128, copy=True)
    return spectral_multiply(grid, values, np.exp(-1j * _fft_freq_sq(grid) * t))


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
    """Evaluate the trigonometric interpolant of f at arbitrary points.

    points: shape (K,) for dim 1 or (K, 2) for dim 2.  Cost O(K * M^dim);
    meant for cross-lattice comparisons, not bulk resampling.
    """
    grid = f.grid
    spec = dft(f)
    xi = grid.freq_axis_nodes()
    scale = (grid.freq_spacing / _SQRT_2PI) ** grid.dim
    pts = np.atleast_1d(np.asarray(points, dtype=float))
    if grid.dim == 1:
        phases = np.exp(1j * np.outer(pts.ravel(), xi))
        return scale * phases @ spec.values
    if pts.ndim != 2 or pts.shape[1] != 2:
        raise ValueError("dim-2 interpolation expects points of shape (K, 2)")
    m = grid.points_per_dim
    fmat = spec.values.reshape(m, m)
    e0 = np.exp(1j * np.outer(pts[:, 0], xi))
    e1 = np.exp(1j * np.outer(pts[:, 1], xi))
    return scale * np.einsum("km,mn,kn->k", e0, fmat, e1)


def stencil_laplacian(f: Field) -> Field:
    """3-point (1D) / 5-point (2D) periodic central Laplacian; diagnostic only."""
    grid = f.grid
    m = grid.points_per_dim
    v = f.values.reshape((m,) * grid.dim)
    out = -2.0 * grid.dim * v.astype(np.complex128)
    for axis in range(grid.dim):
        out = out + np.roll(v, 1, axis=axis) + np.roll(v, -1, axis=axis)
    return Field(grid, (out / grid.spacing ** 2).ravel())
