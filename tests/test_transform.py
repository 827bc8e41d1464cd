"""Transform, propagator, chirp/rescale identity and oracle checks."""

import json
import os
import subprocess
import sys
import textwrap
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg
from scipy.linalg import svdvals

import schrodlab
from schrodlab import transform
from schrodlab.field import (Field, ball, ball_complement, field_from_function,
                             l2_norm, make_grid, masked_energy)
from schrodlab.transform import (MAX_BLOCK_ORDER, AliasingError, BlockOrderError,
                                 bandlimited_interpolate,
                                 check_chirp, chirp, dft, fft_symbol, fresnel_map,
                                 gaussian_oracle, idft, lattice_block, propagate,
                                 propagator_symbol, reflection_blocks,
                                 spectral_multiply, top_singular)


def random_field(grid, rng):
    return Field(grid, rng.standard_normal(grid.node_count)
                 + 1j * rng.standard_normal(grid.node_count))


def gaussian(grid, sigma=1.0):
    return field_from_function(
        grid, lambda *axes: np.exp(-sum(a ** 2 for a in axes) / (2.0 * sigma ** 2)))


def stencil_laplacian(f):
    """3-point (1D) / 5-point (2D) periodic central Laplacian: the
    finite-difference reference for the flow's PDE residual."""
    grid = f.grid
    m = grid.points_per_dim
    v = f.values.reshape((m,) * grid.dim)
    out = -2.0 * grid.dim * v.astype(np.complex128)
    for axis in range(grid.dim):
        out = out + np.roll(v, 1, axis=axis) + np.roll(v, -1, axis=axis)
    return Field(grid, (out / grid.spacing ** 2).ravel())


class TestDft:
    @pytest.mark.parametrize("m", [10, 16])  # includes M = 2 mod 4
    def test_matches_direct_quadrature_sum(self, m):
        # oracle: O(M^2) evaluation of the defining Riemann sum
        grid = make_grid(1, 7.0, m)
        rng = np.random.default_rng(0)
        f = random_field(grid, rng)
        x, xi = grid.axis_nodes(), grid.freq_axis_nodes()
        direct = np.array([
            grid.spacing / np.sqrt(2 * np.pi) * np.sum(f.values * np.exp(-1j * x * k))
            for k in xi])
        assert np.abs(dft(f).values - direct).max() < 1e-13

    def test_zero(self):
        grid = make_grid(1, 5.0, 16)
        assert not dft(Field(grid, np.zeros(16, complex))).values.any()

    def test_gaussian_self_reciprocal(self):
        grid = make_grid(1, 20.0, 512)
        spectrum = dft(gaussian(grid))
        expected = np.exp(-spectrum.grid.axis_nodes() ** 2 / 2.0)
        assert np.abs(spectrum.values - expected).max() <= 1e-10

    def test_unitarity_and_round_trip(self):
        rng = np.random.default_rng(1)
        grid = make_grid(1, 12.0, 256)
        for _ in range(200):
            f = random_field(grid, rng)
            spectrum = dft(f)
            assert abs(l2_norm(spectrum) - l2_norm(f)) <= 1e-12 * l2_norm(f)
            back = idft(spectrum)
            assert np.abs(back.values - f.values).max() <= 1e-13 * np.abs(f.values).max()

    def test_2d_parseval(self):
        rng = np.random.default_rng(2)
        grid = make_grid(2, 8.0, 32)
        f = random_field(grid, rng)
        assert abs(l2_norm(dft(f)) - l2_norm(f)) <= 1e-12 * l2_norm(f)


class TestPropagate:
    def test_time_zero_identity(self):
        grid = make_grid(1, 10.0, 64)
        f = gaussian(grid)
        assert propagate(f, 0.0) is f

    def test_gaussian_oracle_1d(self):
        grid = make_grid(1, 40.0, 2048)
        u_t = propagate(gaussian(grid), 1.0)
        oracle = gaussian_oracle(grid, 1.0)
        assert np.abs(u_t.values - oracle.values).max() <= 1e-8

    def test_conservation_random(self):
        rng = np.random.default_rng(3)
        grid = make_grid(1, 15.0, 256)
        for t in (0.1, 1.0, 10.0):
            f = random_field(grid, rng)
            assert abs(l2_norm(propagate(f, t)) - l2_norm(f)) <= 1e-12 * l2_norm(f)

    def test_group_law_and_reversal(self):
        rng = np.random.default_rng(4)
        grid = make_grid(1, 15.0, 256)
        f = random_field(grid, rng)
        scale = np.abs(f.values).max()
        two_step = propagate(propagate(f, 0.35), 0.65)
        assert np.abs(two_step.values - propagate(f, 1.0).values).max() <= 1e-11 * scale
        back = propagate(propagate(f, 0.8), -0.8)
        assert np.abs(back.values - f.values).max() <= 1e-11 * scale

    @pytest.mark.parametrize("dim, m", [(1, 256), (1, 512), (1, 1024), (1, 4096),
                                        (2, 128), (2, 256)])
    @pytest.mark.parametrize("half_extent", [12.0, 20.0, 40.0])
    def test_backward_symbol_is_the_conjugate_bit_for_bit(self, dim, m, half_extent):
        # flow_observation and empirical_constant take P(-t) as conj(P(t)):
        # the same bits as building P(-t) outright, but for the sign of the
        # zero imaginary part at xi = 0 (+0 built, -0 conjugated), which adding
        # +0 clears
        grid = make_grid(dim, half_extent, m)
        for t in (0.25, 0.5, 1.0, 2.0, -0.25, -0.5, -1.0, -2.0):
            built, conjugated = propagator_symbol(grid, -t), propagator_symbol(grid, t).conj()
            assert (built + 0.0).tobytes() == (conjugated + 0.0).tobytes()

    def test_2d_oracle(self):
        grid = make_grid(2, 12.0, 64)
        u_t = propagate(gaussian(grid), 0.3)
        oracle = gaussian_oracle(grid, 0.3)
        assert np.abs(u_t.values - oracle.values).max() <= 1e-10


@pytest.mark.parametrize("dim, m", [(1, 62), (2, 30)])  # M = 2 mod 4
@pytest.mark.parametrize("symbol", ["propagator", "band", "sobolev+", "sobolev-"])
def test_spectral_multiply_matches_dft_reference(dim, m, symbol):
    # the raw-FFT primitive must agree with the continuum-normalized
    # dft -> multiply -> idft composition it replaces
    grid = make_grid(dim, 5.0, m)
    dual = grid.dual()
    xi_sq = dual.radius_sq()
    s = dim + 3
    values = {"propagator": np.exp(-1j * 0.7 * xi_sq),
              "band": ball(0.0, 0.4 * grid.nyquist, dim=dim).indicator(dual),
              "sobolev+": (1.0 + xi_sq) ** s,
              "sobolev-": (1.0 + xi_sq) ** -s}[symbol]
    f = random_field(grid, np.random.default_rng(11))
    out = spectral_multiply(grid, f.values, fft_symbol(grid, values))
    reference = idft(Field(dual, values * dft(f).values)).values
    assert np.linalg.norm(out - reference) <= 1e-13 * np.linalg.norm(reference)


class TestDualSolve:
    """The terminal-value (dual) solve: the state at time t of the solution
    equal to z at time T is the backward flow propagate(z, t - T)."""

    def test_conjugation_identity(self):
        # conj of the forward flow of conj(z) equals the dual state at T - t
        rng = np.random.default_rng(5)
        grid = make_grid(1, 15.0, 256)
        z = random_field(grid, rng)
        t = 0.3
        lhs = np.conj(propagate(Field(grid, np.conj(z.values)), -t).values)
        rhs = propagate(z, t).values
        assert np.abs(lhs - rhs).max() <= 1e-11 * np.abs(z.values).max()

    def test_norm_preserved(self):
        rng = np.random.default_rng(6)
        grid = make_grid(1, 15.0, 128)
        z = random_field(grid, rng)
        assert abs(l2_norm(propagate(z, -1.5)) - l2_norm(z)) <= 1e-12 * l2_norm(z)


class TestChirp:
    @pytest.mark.parametrize("dim, m", [(1, 256), (2, 32)])
    def test_backward_chirp_is_the_conjugate(self, dim, m):
        grid = make_grid(dim, 10.0, m)
        for t in (0.3, 1.0, 7.0):
            assert np.array_equal(chirp(grid, -t), np.conj(chirp(grid, t)))
            # the form the counterexample families wrote before it moved here
            assert np.array_equal(chirp(grid, -t),
                                  np.exp(-1j * grid.radius_sq() / (4.0 * t)))

    def test_aliasing_check(self):
        grid = make_grid(1, 20.0, 64)  # h = 0.625, Nyquist ~5.03
        edge = grid.half_extent / (2.0 * grid.nyquist)  # L/(2t) = Nyquist here
        for t in (1.01 * edge, -1.01 * edge, 2.0 * edge):
            check_chirp(grid, t)
        for t in (1.0, -1.0):  # L/(2|t|) = 10
            with pytest.raises(AliasingError, match="chirp aliasing bound violated"):
                check_chirp(grid, t)


class TestFresnel:
    def test_rejects_nonpositive_time(self):
        grid = make_grid(1, 10.0, 64)
        with pytest.raises(ValueError):
            fresnel_map(gaussian(grid), 0.0)
        with pytest.raises(ValueError):
            fresnel_map(gaussian(grid), -1.0)

    def test_output_grid_extent(self):
        grid = make_grid(1, 40.0, 2048)
        out = fresnel_map(gaussian(grid), 1.0)
        assert out.grid.half_extent == pytest.approx(
            2.0 * np.pi * 2048 / (2 * 40.0), rel=1e-14)

    def test_against_gaussian_oracle(self):
        grid = make_grid(1, 40.0, 2048)
        out = fresnel_map(gaussian(grid), 1.0)
        oracle = gaussian_oracle(out.grid, 1.0)
        assert np.abs(out.values - oracle.values).max() <= 1e-6

    def test_against_spectral_flow_interpolated(self):
        grid = make_grid(1, 40.0, 2048)
        u0 = field_from_function(
            grid, lambda x: (1 + 0.5 * x) * np.exp(-x ** 2 / 2.0))
        out = fresnel_map(u0, 1.0)
        spectral = propagate(u0, 1.0)
        pts = out.grid.axis_nodes()
        inside = np.abs(pts) <= 38.0
        interp = bandlimited_interpolate(spectral, pts[inside])
        assert np.abs(out.values[inside] - interp).max() <= 1e-5

    def test_unitary(self):
        grid = make_grid(1, 40.0, 1024)
        u0 = gaussian(grid)
        out = fresnel_map(u0, 0.7)
        assert abs(l2_norm(out) - l2_norm(u0)) <= 1e-8 * l2_norm(u0)

    def test_2d_oracle(self):
        grid = make_grid(2, 12.0, 64)
        out = fresnel_map(gaussian(grid), 1.0)
        oracle = gaussian_oracle(out.grid, 1.0)
        assert np.abs(out.values - oracle.values).max() <= 1e-6


class TestGaussianOracle:
    def test_time_zero(self):
        grid = make_grid(1, 10.0, 128)
        oracle = gaussian_oracle(grid, 0.0, 2.0)
        expected = np.exp(-grid.axis_nodes() ** 2 / 8.0)
        assert np.abs(oracle.values - expected).max() <= 1e-14

    def test_unit_peak(self):
        grid = make_grid(1, 8.0, 16)  # node exactly at the origin
        oracle = gaussian_oracle(grid, 0.0, 1.0)
        origin = np.isclose(grid.axis_nodes(), 0.0)
        assert oracle.values[origin] == pytest.approx(1.0)

    def test_pde_residual_finite_difference(self):
        # du/dt should match i * Laplacian(u) on interior nodes; the stencil
        # error O(h^2 u'''') needs the fine grid to sit under 1e-4
        grid = make_grid(1, 20.0, 4096)
        t, delta = 0.5, 1e-4
        u_plus = gaussian_oracle(grid, t + delta)
        u_minus = gaussian_oracle(grid, t - delta)
        du_dt = (u_plus.values - u_minus.values) / (2.0 * delta)
        rhs = 1j * stencil_laplacian(gaussian_oracle(grid, t)).values
        interior = np.abs(grid.axis_nodes()) < 10.0
        scale = np.abs(rhs[interior]).max()
        assert np.abs(du_dt - rhs)[interior].max() <= 1e-4 * scale

    def test_rejects_bad_sigma(self):
        with pytest.raises(ValueError):
            gaussian_oracle(make_grid(1, 5.0, 16), 0.1, 0.0)


def test_fourier_fresnel_bridge_invariant():
    # masked energy of the flow on 2T*B equals the masked spectral energy of
    # the chirped datum on B
    rng = np.random.default_rng(7)
    grid = make_grid(1, 20.0, 1024)
    t = 1.0
    check_chirp(grid, t)
    x = grid.coords()[0]
    for trial in range(5):
        coeffs = rng.standard_normal(5) + 1j * rng.standard_normal(5)
        u0 = Field(grid, sum(c * (x / 5.0) ** p for p, c in enumerate(coeffs))
                   * np.exp(-x ** 2 / 2.0))
        chirped = Field(grid, np.exp(1j * x ** 2 / (4 * t)) * u0.values)
        spectral_side = masked_energy(dft(chirped), ball(0.0, 6.0))
        time_side = masked_energy(propagate(u0, t), ball(0.0, 12.0))
        assert spectral_side == pytest.approx(time_side, rel=1e-8)


def test_bandlimited_interpolation_reproduces_nodes():
    rng = np.random.default_rng(8)
    grid = make_grid(1, 10.0, 128)
    f = Field(grid, rng.standard_normal(128) + 1j * rng.standard_normal(128))
    values = bandlimited_interpolate(f, grid.axis_nodes())
    assert np.abs(values - f.values).max() <= 1e-10 * np.abs(f.values).max()


def test_bandlimited_interpolation_in_chunks_matches_the_full_product():
    # two full chunks of the phase matrix and a partial third one
    rng = np.random.default_rng(9)
    grid = make_grid(1, 10.0, 128)
    f = random_field(grid, rng)
    points = rng.uniform(-10.0, 10.0, 2 * transform._INTERPOLATE_ROWS + 37)
    phases = np.exp(1j * np.outer(points, grid.freq_axis_nodes()))
    full = grid.freq_spacing / np.sqrt(2.0 * np.pi) * phases @ dft(f).values
    assert np.array_equal(bandlimited_interpolate(f, points), full)


def test_bandlimited_interpolation_rejects_dim_2():
    grid = make_grid(2, 10.0, 16)
    f = Field(grid, np.ones(grid.node_count, dtype=complex))
    with pytest.raises(ValueError, match="one-dimensional; got dim 2"):
        bandlimited_interpolate(f, np.zeros((3, 2)))


def off_nodes(region, grid):
    return np.flatnonzero(region.indicator(grid) == 0.0)


def basis(expand, count):
    """The expansion map as a matrix, one column per basis vector."""
    return np.array([expand(e) for e in np.eye(count)]).T


def odd_symbol(grid):
    """The flow symbol times e^{i xi}: not equal to its reflection."""
    xi = 2.0 * np.pi * np.fft.fftfreq(grid.points_per_dim, d=grid.spacing)
    return propagator_symbol(grid, 0.5) * np.exp(1j * xi)


def prolate_sides():
    """The prolate's two blocks: ball nodes under the band symbol, and band
    nodes (in FFT order) under the ball mask."""
    grid = make_grid(1, 8.0, 64)
    band = fft_symbol(grid, ball(0.0, 2.0).indicator(grid.dual()))
    mask = ball(0.0, 1.5).indicator(grid)
    return [(grid, band, np.flatnonzero(mask)), (grid, mask, np.flatnonzero(band))]


class TestReflectionBlocks:
    @pytest.mark.parametrize("dim, half_extent, points, r_rows, r_cols", [
        (1, 10.0, 64, 3.0, 6.0),   # rows hold x = 0, cols x = -L
        (1, 20.0, 512, 2.0, 2.0),
        (2, 6.0, 16, 2.0, 4.0),    # fixed nodes of both kinds on both axes
    ])
    def test_centred_halves_carry_the_whole_block(self, dim, half_extent, points,
                                                   r_rows, r_cols):
        grid = make_grid(dim, half_extent, points)
        rows = off_nodes(ball_complement(0.0, r_rows, dim=dim), grid)
        cols = off_nodes(ball(0.0, r_cols, dim=dim), grid)
        symbol = propagator_symbol(grid, 0.5)
        whole = lattice_block(grid, symbol, rows, cols)
        halves = reflection_blocks(grid, symbol, rows, cols)
        assert len(halves) == 2
        merged = np.sort(np.concatenate([svdvals(block) for block, _, _ in halves]))[::-1]
        assert merged == pytest.approx(svdvals(whole), rel=1e-12)
        for block, expand_rows, expand_cols in halves:
            # orthonormal bases in which the half is the whole block
            left = basis(expand_rows, block.shape[0])
            right = basis(expand_cols, block.shape[1])
            for q in (left, right):
                assert np.abs(q.conj().T @ q - np.eye(q.shape[1])).max() <= 1e-15
            assert np.abs(left.conj().T @ whole @ right - block).max() <= 1e-14

    def test_band_nodes_with_the_ball_mask_split(self):
        # the prolate's band branch: FFT-order nodes, grid-order symbol
        grid, mask, nodes = prolate_sides()[1]
        halves = reflection_blocks(grid, mask, nodes, nodes)
        assert len(halves) == 2
        merged = np.sort(np.concatenate([np.linalg.eigvalsh(block)
                                         for block, _, _ in halves]))
        whole = np.linalg.eigvalsh(lattice_block(grid, mask, nodes, nodes))
        assert np.abs(merged - whole).max() <= 1e-14

    def test_off_centre_sets_keep_the_whole_block(self):
        grid = make_grid(2, 6.0, 16)
        rows = off_nodes(ball_complement((-1.0, 0.5), 2.0), grid)
        cols = off_nodes(ball_complement((0.5, -0.75), 1.5), grid)
        symbol = propagator_symbol(grid, 0.5)
        ((block, expand_rows, _),) = reflection_blocks(grid, symbol, rows, cols)
        assert np.array_equal(block, lattice_block(grid, symbol, rows, cols))
        y = np.arange(rows.size, dtype=complex)
        assert np.array_equal(expand_rows(y), y)

    def test_odd_symbol_keeps_the_whole_block(self):
        grid = make_grid(1, 10.0, 64)
        nodes = off_nodes(ball_complement(0.0, 3.0), grid)
        symbol = odd_symbol(grid)
        ((block, _, _),) = reflection_blocks(grid, symbol, nodes, nodes)
        assert np.array_equal(block, lattice_block(grid, symbol, nodes, nodes))


def recording_eigh(monkeypatch):
    """Patch the eigh of transform's scipy.linalg to keep a copy of every
    matrix it is handed."""
    linalg = transform.scipy_linalg()
    seen, eigh = [], linalg.eigh

    def record(matrix, *args, **kwargs):
        seen.append(np.array(matrix))
        return eigh(matrix, *args, **kwargs)
    monkeypatch.setattr(linalg, "eigh", record)
    return seen


def gram_floor_cells():
    """The gramian benchmark's cells: nodes of B_2(0) on [-20, 20]^dim under
    the flow over each gap."""
    for dim, points in [(1, 4096), (2, 128)]:
        grid = make_grid(dim, 20.0, points)
        nodes = off_nodes(ball_complement(0.0, 2.0, dim=dim), grid)
        for gap in [0.1, 0.25, 0.5, 1.0, 2.0]:
            yield pytest.param(grid, nodes, gap, id=f"{dim}d-{points}-gap{gap:g}")


class TestTopSingular:
    @pytest.mark.parametrize("dim, centre, odd, tall", [
        (1, 0.0, False, False),          # centred: the reflection halves
        (1, 0.0, False, True),
        (2, (0.0, 0.0), False, False),
        (2, (-1.0, 0.5), False, False),  # off-centre ball nodes: the whole block
        (1, 0.0, True, False),           # an odd symbol: the whole block
    ], ids=["centred-1d", "centred-1d-tall", "centred-2d", "off-centre", "odd-symbol"])
    def test_matches_the_whole_block_svd(self, dim, centre, odd, tall, monkeypatch):
        grid = make_grid(1, 10.0, 64) if dim == 1 else make_grid(2, 6.0, 16)
        rows = off_nodes(ball_complement(centre, 2.0, dim=dim), grid)
        cols = off_nodes(ball(0.0, 4.0, dim=dim), grid)
        if tall:  # more rows than columns: the Gram is B*B, not BB*
            rows, cols = cols, rows
        symbol = odd_symbol(grid) if odd else propagator_symbol(grid, 0.5)
        whole = lattice_block(grid, symbol, rows, cols)
        seen = recording_eigh(monkeypatch)
        sigma, u, v, floor = top_singular(grid, symbol, rows, cols)
        assert floor == np.finfo(float).eps * (rows.size + cols.size)
        # every half goes through its smaller Gram matrix
        halves = [block for block, _, _ in reflection_blocks(grid, symbol, rows, cols)]
        assert [g.shape[0] for g in seen] == [min(block.shape) for block in halves]
        assert sigma == pytest.approx(svdvals(whole)[0], rel=1e-12)
        assert abs(sigma - svdvals(whole)[0]) <= floor
        assert np.linalg.norm(u) == pytest.approx(1.0, abs=1e-14)
        assert np.linalg.norm(v) == pytest.approx(1.0, abs=1e-14)
        assert np.abs(whole @ v - sigma * u).max() <= 1e-13
        assert np.abs(whole.conj().T @ u - sigma * v).max() <= 1e-13

    @pytest.mark.parametrize("grid, nodes, gap", gram_floor_cells())
    def test_gram_route_resolves_the_gramian_cells_within_the_floor(self, grid, nodes, gap):
        # 1 - sigma is the Gramian's lambda_min, down to 6e-11 at 2D gap 0.1
        symbol = propagator_symbol(grid, gap)
        sigma, _, _, floor = top_singular(grid, symbol, nodes, nodes)
        reference = svdvals(lattice_block(grid, symbol, nodes, nodes))[0]
        assert floor == np.finfo(float).eps * 2 * nodes.size
        assert abs((1.0 - sigma) - (1.0 - reference)) <= floor

    @pytest.mark.parametrize("scale", [1e-3, 1e-8])
    def test_small_top_values_keep_a_relative_floor(self, scale):
        # rounding scales with the block: sigma and the floor scale together
        grid = make_grid(1, 10.0, 64)
        rows = off_nodes(ball_complement(0.0, 2.0), grid)
        cols = off_nodes(ball(0.0, 4.0), grid)
        symbol = scale * propagator_symbol(grid, 0.5)
        sigma, u, v, floor = top_singular(grid, symbol, rows, cols)
        whole = lattice_block(grid, symbol, rows, cols)
        assert abs(sigma - svdvals(whole)[0]) <= floor * sigma
        assert np.abs(whole @ v - sigma * u).max() <= 1e-13 * sigma

    @pytest.mark.parametrize("side", [0, 1], ids=["ball-nodes", "band-nodes"])
    def test_prolate_sides_take_the_top_eigenpair(self, side, monkeypatch):
        grid, symbol, nodes = prolate_sides()[side]
        whole = lattice_block(grid, symbol, nodes, nodes)
        seen = recording_eigh(monkeypatch)
        mu, u, v, floor = top_singular(grid, symbol, nodes, nodes)
        # a positive semidefinite block is its own Hermitian problem: each
        # half goes to eigh as it is, not through a Gram matrix
        halves = [block for block, _, _ in reflection_blocks(grid, symbol, nodes, nodes)]
        assert len(seen) == len(halves)
        assert all(np.array_equal(g, block) for g, block in zip(seen, halves))
        assert floor == np.finfo(float).eps * nodes.size
        assert mu == pytest.approx(np.linalg.eigvalsh(whole)[-1], rel=1e-12)
        assert np.array_equal(u, v)
        assert np.abs(whole @ u - mu * u).max() <= 1e-13

    @pytest.mark.parametrize("semidefinite", [True, False], ids=["prolate", "flow"])
    def test_an_empty_subset_from_lapack_takes_the_whole_spectrum(
            self, semidefinite, monkeypatch):
        # LAPACK's subset solver can return no eigenvalue when the top one
        # sits in a tight cluster; this used to end in an IndexError
        linalg = transform.scipy_linalg()
        eigh = linalg.eigh

        def no_subset(matrix, *args, **kwargs):
            values, vectors = eigh(matrix, *args, **kwargs)
            if "subset_by_index" in kwargs:
                return values[:0], vectors[:, :0]
            return values, vectors
        grid, symbol, nodes = prolate_sides()[0]
        if not semidefinite:
            symbol = propagator_symbol(grid, 0.5)
        expected = top_singular(grid, symbol, nodes, nodes)
        monkeypatch.setattr(linalg, "eigh", no_subset)
        got = top_singular(grid, symbol, nodes, nodes)
        assert got[0] == pytest.approx(expected[0], rel=1e-14)
        assert got[3] == expected[3]
        whole = lattice_block(grid, symbol, nodes, nodes)
        assert np.abs(whole @ got[2] - got[0] * got[1]).max() <= 1e-13

    @pytest.mark.parametrize("empty", ["rows", "cols", "both"])
    def test_empty_block_gives_zero_and_first_unit_vectors(self, empty):
        grid = make_grid(1, 10.0, 64)
        nodes, none = off_nodes(ball_complement(0.0, 3.0), grid), np.arange(0)
        rows = none if empty in ("rows", "both") else nodes
        cols = none if empty in ("cols", "both") else nodes
        if empty == "both":  # order 0: no Hermitian problem to take the top of
            with pytest.raises(BlockOrderError, match="order 0 is outside"):
                top_singular(grid, propagator_symbol(grid, 0.5), rows, cols)
            return
        sigma, u, v, floor = top_singular(grid, propagator_symbol(grid, 0.5), rows, cols)
        assert sigma == 0.0
        assert floor == np.finfo(float).eps * nodes.size
        assert np.array_equal(u, np.eye(1, rows.size)[0])
        assert np.array_equal(v, np.eye(1, cols.size)[0])

    @pytest.mark.parametrize("route, order", [
        ("eigh", 0), ("eigh", MAX_BLOCK_ORDER + 1),
        ("gram", 0), ("gram", MAX_BLOCK_ORDER + 1)])
    def test_order_outside_the_cap_is_refused_before_any_block(
            self, route, order, monkeypatch):
        # eigh: n nodes under a real nonnegative symbol; gram: m + n nodes
        # under the flow, split as evenly as the order allows
        monkeypatch.setattr(transform, "reflection_blocks", lambda *a, **k: pytest.fail(
            "the block order must be checked before the block is built"))
        grid = make_grid(2, 20.0, 128)
        if route == "eigh":
            rows = cols = np.arange(order)
            symbol = np.ones(grid.node_count)
        else:
            rows, cols = np.arange(order // 2), np.arange(order - order // 2)
            symbol = propagator_symbol(grid, 0.5)
        with pytest.raises(BlockOrderError, match=f"order {order} is outside 1..4096"):
            top_singular(grid, symbol, rows, cols)


class TestOneBlasThread:
    def test_sets_one_thread_inside_and_restores_after(self):
        setters = transform._openblas_thread_setters()
        if not setters:
            pytest.skip("no OpenBLAS is loaded")
        before = [setter(2) for setter in setters]
        try:
            with transform.one_blas_thread():
                inside = [setter(1) for setter in setters]
            after = [setter(2) for setter in setters]
        finally:
            for setter, count in zip(setters, before):
                setter(count)
        assert inside == [1] * len(setters)
        assert after == [2] * len(setters)

    def test_overlapping_scopes_restore_on_the_last_exit(self, monkeypatch):
        # a process-wide count, as numpy's and scipy's OpenBLAS keep it
        setter, state = process_wide_setter(4)
        monkeypatch.setattr(transform, "_openblas_thread_setters", lambda: (setter,))
        first, second = transform.one_blas_thread(), transform.one_blas_thread()
        first.__enter__()
        second.__enter__()
        first.__exit__(None, None, None)
        assert state["count"] == 1
        second.__exit__(None, None, None)
        assert state["count"] == 4

    def test_scopes_opened_by_many_threads_keep_one_thread_until_all_close(
            self, monkeypatch):
        setter, state = process_wide_setter(4)
        monkeypatch.setattr(transform, "_openblas_thread_setters", lambda: (setter,))

        def worker(_):
            seen = set()
            for _ in range(200):
                with transform.one_blas_thread():
                    seen.add(state["count"])
            return seen
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=8) as pool:
                futures = [pool.submit(worker, index) for index in range(8)]
                seen = set().union(*(future.result(timeout=60) for future in futures))
        finally:
            sys.setswitchinterval(interval)
        assert seen == {1}
        assert state["count"] == 4

    @pytest.mark.parametrize("joins", ["first", "last"])
    def test_a_library_loaded_inside_open_scopes_joins_them(self, joins, monkeypatch):
        # scipy's OpenBLAS loads at the first dense call, inside the scopes
        # opened before it, and /proc/self/maps may list it before numpy's
        numpy_setter, numpy_state = process_wide_setter(4)
        scipy_setter, scipy_state = process_wide_setter(3)
        loaded = [numpy_setter]
        monkeypatch.setattr(transform, "_openblas_thread_setters", lambda: tuple(loaded))
        monkeypatch.setattr(transform, "_linalg", None)
        first, second = transform.one_blas_thread(), transform.one_blas_thread()
        first.__enter__()
        second.__enter__()
        loaded.insert(0 if joins == "first" else 1, scipy_setter)
        assert transform.scipy_linalg() is scipy.linalg
        assert (numpy_state["count"], scipy_state["count"]) == (1, 1)
        first.__exit__(None, None, None)
        assert (numpy_state["count"], scipy_state["count"]) == (1, 1)
        second.__exit__(None, None, None)
        assert (numpy_state["count"], scipy_state["count"]) == (4, 3)

    def test_sweep_workers_loading_at_once_join_once(self, monkeypatch):
        numpy_setter, numpy_state = process_wide_setter(4)
        scipy_setter, scipy_state = process_wide_setter(3)
        loaded = [numpy_setter]
        monkeypatch.setattr(transform, "_openblas_thread_setters", lambda: tuple(loaded))
        monkeypatch.setattr(transform, "_linalg", None)
        joins = []
        join = transform._join_blas_scopes
        monkeypatch.setattr(transform, "_join_blas_scopes",
                            lambda setters: joins.append(len(setters)) or join(setters))
        workers = 8
        opened, inside = threading.Barrier(workers + 1), threading.Barrier(workers)

        def worker(_):
            with transform.one_blas_thread():
                opened.wait(timeout=60)
                opened.wait(timeout=60)  # the scope lock is now held below
                module = transform.scipy_linalg()
                inside.wait(timeout=60)
                counts = (numpy_state["count"], scipy_state["count"])
                inside.wait(timeout=60)
            return module, counts
        with ThreadPoolExecutor(max_workers=workers) as pool:
            futures = [pool.submit(worker, index) for index in range(workers)]
            opened.wait(timeout=60)
            loaded.append(scipy_setter)
            # the workers pass the unlocked check and wait here for the lock
            with transform._BLAS_SCOPE_LOCK:
                opened.wait(timeout=60)
                time.sleep(0.2)
            results = [future.result(timeout=60) for future in futures]
        assert results == [(scipy.linalg, (1, 1))] * workers
        assert joins == [1] * workers + [2]  # one per scope entry, one load
        assert (numpy_state["count"], scipy_state["count"]) == (4, 3)

    def test_scipys_openblas_joins_the_scope_of_its_first_dense_call(self):
        # a fresh process whose OpenBLAS libraries start at 2 threads:
        # numpy's is loaded at import, scipy's only by the first dense call
        code = textwrap.dedent("""
            import json, sys
            import numpy as np
            from schrodlab import transform
            from schrodlab.field import make_grid

            def counts():
                previous = [setter(1) for setter in transform._openblas_thread_setters()]
                for setter, count in zip(transform._openblas_thread_setters(), previous):
                    setter(count)
                return previous

            grid = make_grid(1, 10.0, 64)
            nodes = np.arange(8)
            with transform.one_blas_thread():
                before = counts()
                loaded_before = "scipy.linalg" in sys.modules
                transform.top_singular(grid, transform.propagator_symbol(grid, 0.5),
                                       nodes, nodes)
                inside = counts()
            print(json.dumps([loaded_before, before, inside, counts()]))
        """)
        src = str(Path(schrodlab.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": src, "OPENBLAS_NUM_THREADS": "2"}
        done = subprocess.run([sys.executable, "-c", code], env=env,
                              capture_output=True, text=True, timeout=300)
        assert done.returncode == 0, done.stderr
        loaded_before, before, inside, after = json.loads(done.stdout)
        if not inside:
            pytest.skip("no OpenBLAS is loaded")
        assert not loaded_before
        assert len(inside) == len(before) + 1  # scipy's library joined
        assert inside == [1] * len(inside)
        assert after == [2] * len(inside)


def process_wide_setter(count):
    """A fake openblas_set_num_threads_local with one process-wide count,
    and the dict that holds it."""
    state = {"count": count}

    def setter(new):
        previous, state["count"] = state["count"], new
        return previous
    return setter, state
