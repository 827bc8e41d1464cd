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

import ctypes
import os
import threading
from contextlib import contextmanager
from dataclasses import dataclass
from functools import lru_cache
from types import ModuleType
from typing import Callable, Iterator, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from .field import Field, Grid, Region

_SQRT_2PI = np.sqrt(2.0 * np.pi)
_INTERPOLATE_ROWS = 256  # evaluation points per phase-matrix chunk
_HALF = np.sqrt(0.5)


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


class BlockOrderError(ValueError):
    """A dense block whose order is outside 1..MAX_BLOCK_ORDER."""


def lattice_block(grid: Grid, symbol: np.ndarray, rows: np.ndarray,
                  cols: np.ndarray) -> np.ndarray:
    """Rows `rows`, columns `cols` (flat node indices) of the circulant
    v -> spectral_multiply(grid, v, symbol): ifftn(symbol) at (x - y) mod M."""
    return _gather(grid, circulant_kernel(grid, symbol), rows, cols)


def circulant_kernel(grid: Grid, symbol: np.ndarray) -> np.ndarray:
    """ifftn(symbol) on the lattice shape: the circulant's first column."""
    return np.fft.ifftn(symbol.reshape((grid.points_per_dim,) * grid.dim))


def _gather(grid: Grid, kernel: np.ndarray, rows: np.ndarray,
            cols: np.ndarray) -> np.ndarray:
    shape = kernel.shape
    offsets = tuple((x[:, None] - y) % grid.points_per_dim for x, y in
                    zip(np.unravel_index(rows, shape), np.unravel_index(cols, shape)))
    return kernel[offsets]


def _reflect(grid: Grid, index: np.ndarray) -> np.ndarray:
    """Flat indices under j -> (M - j) mod M on every axis: x -> -x on the
    primal lattice (x_{M-j} = -x_j, and x_0 = -L is L), xi -> -xi in FFT order."""
    shape = (grid.points_per_dim,) * grid.dim
    return np.ravel_multi_index(tuple(-j % grid.points_per_dim for j in
                                      np.unravel_index(index, shape)), shape)


class _Orbits(NamedTuple):
    """Positions in an index set of its reflection orbits: the pairs
    (first < second) before the fixed nodes (first == second)."""
    first: np.ndarray
    second: np.ndarray
    pairs: int

    def weight(self) -> np.ndarray:
        """Entry of each even basis vector: 1/sqrt2 on a pair, 1 on a fixed node."""
        return np.where(np.arange(self.first.size) < self.pairs, _HALF, 1.0)

    def expander(self, odd: bool) -> Callable[[np.ndarray], np.ndarray]:
        """Map from coordinates in the even (or odd) basis to a vector on the set."""
        count = self.pairs if odd else self.first.size
        first, second = self.first[:count], self.second[:count]
        weight = self.weight()[:count]
        sign, size = (-1.0 if odd else 1.0), self.first.size + self.pairs

        def expand(y: np.ndarray) -> np.ndarray:
            out = np.zeros(size, dtype=np.complex128)
            out[first] = weight * y
            out[second] = sign * weight * y  # a fixed node is its own partner
            return out
        return expand


def _reflection_orbits(grid: Grid, index: np.ndarray):
    """The _Orbits of a nonempty sorted index set (as np.flatnonzero gives)
    that the reflection maps onto itself; None for any other set."""
    if index.size == 0:
        return None
    flipped = _reflect(grid, index)
    partner = np.minimum(np.searchsorted(index, flipped), index.size - 1)
    if not np.array_equal(index[partner], flipped):
        return None
    position = np.arange(index.size)
    first = np.concatenate([np.flatnonzero(position < partner),
                            np.flatnonzero(position == partner)])
    return _Orbits(first, partner[first], int(np.count_nonzero(position < partner)))


def reflection_blocks(grid: Grid, symbol: np.ndarray, rows: np.ndarray,
                      cols: np.ndarray) -> List[Tuple[np.ndarray, Callable, Callable]]:
    """lattice_block(grid, symbol, rows, cols) as its reflection-even and
    reflection-odd halves, or as the one whole block, each with the maps from
    its basis to vectors on `rows` and `cols`: (block, expand_rows, expand_cols).

    An even symbol (equal to its reflection, exactly) gives an even kernel,
    so the block commutes with the reflection j -> (M - j) mod M whenever
    both node sets map onto themselves; it then splits exactly over the
    bases (e_i +- e_rho(i))/sqrt2, a fixed node's e_i being even.  With B
    the block, the even half is B[a, b] + B[a, rho b] and the odd half
    B[a, b] - B[a, rho b] over orbit representatives a, b (times 1/sqrt2 per
    fixed node), two blocks of about half the order (Cantoni and Butler,
    Linear Algebra Appl. 13, 1976).  Anything else (an off-centre set, an
    odd symbol) returns [whole block]; a half may have no rows or columns.
    """
    row, col = _reflection_orbits(grid, rows), _reflection_orbits(grid, cols)
    if (row is None or col is None
            or not np.array_equal(symbol, symbol[_reflect(grid, np.arange(symbol.size))])):
        def keep(y: np.ndarray) -> np.ndarray:
            return y
        return [(lattice_block(grid, symbol, rows, cols), keep, keep)]
    kernel = circulant_kernel(grid, symbol)
    near = _gather(grid, kernel, rows[row.first], cols[col.first])
    far = _gather(grid, kernel, rows[row.first], cols[col.second])
    odd = near[:row.pairs, :col.pairs] - far[:row.pairs, :col.pairs]
    near += far
    del far
    # even entries: 1 per pair, 1/sqrt2 per fixed node, i.e. 1/sqrt2 over the weight
    near *= (_HALF / row.weight())[:, None]
    near *= _HALF / col.weight()
    return [(near, row.expander(False), col.expander(False)),
            (odd, row.expander(True), col.expander(True))]


def _top_eigenpair(hermitian: np.ndarray) -> Tuple[float, np.ndarray]:
    """Top eigenvalue and unit eigenvector of a Hermitian matrix, read from
    its lower triangle.  LAPACK's subset solver can return no eigenvalue at
    all when the top one sits in a tight cluster (a block near the
    identity); the whole spectrum is then taken."""
    eigh, last = scipy_linalg().eigh, hermitian.shape[0] - 1
    values, vectors = eigh(hermitian, subset_by_index=[last, last])
    if not values.size:
        values, vectors = eigh(hermitian)
    return float(values[-1]), vectors[:, -1]


def top_singular(grid: Grid, symbol: np.ndarray, rows: np.ndarray,
                 cols: np.ndarray) -> Tuple[float, np.ndarray, np.ndarray, float]:
    """(sigma_max, u, v, floor) of B = lattice_block(grid, symbol, rows, cols):
    B v = sigma_max u for unit u on `rows` and v on `cols`, from the
    reflection half whose top value is larger.  When one node set meets a
    real nonnegative symbol, B is positive semidefinite and sigma_max is its
    top eigenpair (u = v), of order n.  Otherwise sigma_max^2 is the top
    eigenvalue of each half's smaller Gram matrix (B*B for a tall half, BB*
    for a wide one), and the other vector is B v / |B v| (or B* u / |B* u|).
    A block with no rows or no columns gives 0 and the first unit vectors.

    The floor is eps * order, with order n on the eigh route and
    rows.size + cols.size otherwise.  On the eigh route it is the rounding
    of a top eigenvalue of a block of norm at most 1.  On the Gram route,
    forming B*B of an m x n half and taking its top eigenvalue move
    sigma^2 by about eps (m + n) |B|^2, and |B| is the half's own sigma, so
    sigma moves by about eps (m + n) sigma / 2: within the floor for any
    sigma <= 2 (every caller's block is a product of projections and a
    unitary, sigma <= 1), and relative, so a small sigma needs no larger
    floor.  An order outside 1..MAX_BLOCK_ORDER raises BlockOrderError
    before any block is built."""
    semidefinite = np.array_equal(rows, cols) and np.all(symbol == np.abs(symbol))
    order = rows.size if semidefinite else rows.size + cols.size
    if not 0 < order <= MAX_BLOCK_ORDER:
        raise BlockOrderError(f"dense block of order {order} is outside 1..{MAX_BLOCK_ORDER}")
    sigma, u, v = 0.0, np.eye(1, rows.size)[0], np.eye(1, cols.size)[0]
    for block, expand_rows, expand_cols in reflection_blocks(grid, symbol, rows, cols):
        if not block.size:
            continue
        if semidefinite:
            value, left = _top_eigenpair(block)
            if value > sigma:
                sigma, u, v = value, expand_rows(left), expand_cols(left)
            continue
        tall = block.shape[0] >= block.shape[1]
        # zherk fills the lower triangle of B*B (trans 2) or of BB* (trans 0)
        value, vector = _top_eigenpair(scipy_linalg().blas.zherk(
            1.0, block, trans=2 if tall else 0, lower=1))
        value = float(np.sqrt(max(value, 0.0)))
        if value > sigma:
            other = block @ vector if tall else block.conj().T @ vector
            other /= np.linalg.norm(other)
            left, right = (other, vector) if tall else (vector, other)
            sigma, u, v = value, expand_rows(left), expand_cols(right)
    return sigma, u, v, float(np.finfo(float).eps * order)


@lru_cache(maxsize=None)
def _openblas_setter(path: str) -> Optional[Callable[[int], int]]:
    """openblas_set_num_threads_local of the loaded library at path, the same
    object on every call; None where it has no such function."""
    try:
        setter = ctypes.CDLL(path, mode=os.RTLD_NOLOAD).openblas_set_num_threads_local
    except (OSError, AttributeError):
        return None
    setter.argtypes, setter.restype = [ctypes.c_int], ctypes.c_int
    return setter


def _openblas_thread_setters() -> Tuple[Callable[[int], int], ...]:
    """The _openblas_setter of each OpenBLAS loaded in the process (numpy and
    scipy each bundle one), looked up on the first call and again once
    scipy_linalg has loaded scipy's; () where there is none."""
    global _blas_setters
    if _blas_setters is None:
        try:
            with open("/proc/self/maps") as maps:
                paths = dict.fromkeys(fields[5] for fields in map(str.split, maps)
                                      if len(fields) == 6
                                      and "openblas" in os.path.basename(fields[5]))
        except OSError:
            paths = {}
        _blas_setters = tuple(setter for setter in map(_openblas_setter, paths)
                              if setter is not None)
    return _blas_setters


_BLAS_SCOPE_LOCK = threading.Lock()
_blas_setters: Optional[Tuple[Callable[[int], int], ...]] = None
_blas_scopes = 0
_blas_saved: List[Tuple[Callable[[int], int], int]] = []  # (setter, count to restore)
_linalg = None


def scipy_linalg() -> ModuleType:
    """The scipy.linalg module, imported on the first dense call rather than
    with the package, so that a run without one never loads it.  The
    OpenBLAS the import brings in joins any open one_blas_thread scope."""
    global _linalg, _blas_setters
    if _linalg is None:
        with _BLAS_SCOPE_LOCK:
            if _linalg is None:  # not loaded by a thread this one waited for
                import scipy.linalg
                _blas_setters = None
                if _blas_scopes:
                    _join_blas_scopes(_openblas_thread_setters())
                _linalg = scipy.linalg
    return _linalg


def _join_blas_scopes(setters: Sequence[Callable[[int], int]]) -> None:
    """Set each setter to one thread, saving the count it replaced the first
    time it is set in the open scopes.  The caller holds _BLAS_SCOPE_LOCK."""
    saved = [setter for setter, _ in _blas_saved]  # ctypes functions do not hash
    for setter in setters:
        count = setter(1)
        if setter not in saved:
            _blas_saved.append((setter, count))


@contextmanager
def one_blas_thread() -> Iterator[None]:
    """Run the BLAS/LAPACK calls of the calling thread on one thread inside
    the block, so that dense results do not depend on the environment's
    OpenBLAS thread count (its summation order does).

    openblas_set_num_threads_local is per thread in some builds and
    process-wide in others (the pip wheels of numpy and scipy), so each entry
    sets 1, the first scope to set a library saves the count it replaced and
    the last to close restores each library to its own saved count,
    whichever threads those are.  A library loaded inside a scope (scipy's,
    by the first scipy_linalg call) joins it at once: it is set to 1 and
    restored with the others.  Without OpenBLAS it does nothing."""
    global _blas_scopes
    with _BLAS_SCOPE_LOCK:
        _blas_scopes += 1
        _join_blas_scopes(_openblas_thread_setters())
    try:
        yield
    finally:
        with _BLAS_SCOPE_LOCK:
            _blas_scopes -= 1
            if _blas_scopes == 0:
                for setter, count in _blas_saved:
                    setter(count)
                _blas_saved.clear()


def propagator_symbol(grid: Grid, t: float) -> np.ndarray:
    """The free-flow multiplier e^{-i|xi|^2 t} in FFT order, for spectral_multiply.

    Operators that apply the same flow time repeatedly (the Krylov matvecs)
    build it once, when the operator is built."""
    return np.exp(-1j * _fft_freq_sq(grid) * t)


@dataclass(frozen=True, eq=False)
class FlowObservation:
    """The observation O v = (M_i P(t_i) v)_i on raw arrays, for terms
    (t_i, region_i) with P(t) the flow over time t and M_i the mask of
    region_i: each term's mask and its flow symbols P(t_i) (forward) and
    P(-t_i) (backward) in FFT order, None at t_i = 0 (the exact mask)."""

    grid: Grid
    masks: Tuple[np.ndarray, ...]
    forward: Tuple[Optional[np.ndarray], ...]
    backward: Tuple[Optional[np.ndarray], ...]

    def _flow(self, v: np.ndarray, symbol: Optional[np.ndarray]) -> np.ndarray:
        return v if symbol is None else spectral_multiply(self.grid, v, symbol)

    def observe(self, v: np.ndarray) -> List[np.ndarray]:
        """[M_i P(t_i) v, ...], one array per term."""
        return [mask * self._flow(v, s) for mask, s in zip(self.masks, self.forward)]

    def observe_star(self, hs: Sequence[np.ndarray]) -> np.ndarray:
        """sum_i P(t_i)* M_i h_i, the exact discrete adjoint of observe."""
        if len(hs) != len(self.masks):
            raise ValueError(f"observe_star takes one array per term "
                             f"({len(self.masks)}), got {len(hs)}")
        acc = np.zeros(self.grid.node_count, dtype=np.complex128)
        for mask, backward, h in zip(self.masks, self.backward, hs):
            acc += self._flow(mask * h, backward)
        return acc

    def gram(self, v: np.ndarray) -> np.ndarray:
        """O*O v = sum_i P(t_i)* M_i P(t_i) v, in one pass."""
        acc = np.zeros(v.shape, dtype=np.complex128)
        for mask, forward, backward in zip(self.masks, self.forward, self.backward):
            acc += self._flow(mask * self._flow(v, forward), backward)
        return acc


def flow_observation(grid: Grid, terms: Sequence[Tuple[float, Region]]) -> FlowObservation:
    """The FlowObservation of the terms (t_i, region_i); each forward
    propagator symbol is built once, here, and its conjugate is the backward one."""
    masks = tuple(region.indicator(grid) for _, region in terms)
    forward = tuple(None if t == 0.0 else propagator_symbol(grid, t) for t, _ in terms)
    backward = tuple(None if symbol is None else symbol.conj() for symbol in forward)
    return FlowObservation(grid, masks, forward, backward)


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


class AliasingError(ValueError):
    """The quadratic chirp is not resolvable on this grid at this time."""


def chirp(grid: Grid, t: float) -> np.ndarray:
    """The quadratic chirp e^{i|x|^2/4t} at every node; chirp(grid, -t) is
    its conjugate."""
    return np.exp(1j * grid.radius_sq() / (4.0 * t))


def check_chirp(grid: Grid, t: float) -> None:
    """Raise AliasingError unless the chirp at time t is resolvable: its
    local frequency at the box edge, L/(2|t|), must not exceed the Nyquist pi/h."""
    edge = grid.half_extent / (2.0 * abs(t))
    if edge > grid.nyquist:
        raise AliasingError(
            f"chirp aliasing bound violated at T = {t:g}: L/(2|T|) = {edge:.4g} "
            f"exceeds the Nyquist frequency {grid.nyquist:.4g}")


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
    spec = dft(Field(grid, chirp(grid, t) * u0.values))
    out_grid = fresnel_output_grid(grid, t)
    # (2it)^{-n/2} on the principal branch
    pref = (2.0 * t) ** (-n / 2.0) * np.exp(-1j * n * np.pi / 4.0)
    return Field(out_grid, pref * chirp(out_grid, t) * spec.values)


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
