"""Transform, propagator, chirp/rescale identity and oracle checks."""

import numpy as np
import pytest

from schrodlab.field import (Field, ball, field_from_function, l2_norm,
                             make_grid, masked_energy)
from schrodlab.transform import (bandlimited_interpolate, chirp_aliasing_ok,
                                 dft, dual_solve, fft_symbol, fresnel_map,
                                 gaussian_oracle, idft, propagate,
                                 spectral_multiply, stencil_laplacian)


def random_field(grid, rng):
    return Field(grid, rng.standard_normal(grid.node_count)
                 + 1j * rng.standard_normal(grid.node_count))


def gaussian(grid, sigma=1.0):
    return field_from_function(
        grid, lambda *axes: np.exp(-sum(a ** 2 for a in axes) / (2.0 * sigma ** 2)))


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
    def test_terminal_condition(self):
        grid = make_grid(1, 10.0, 128)
        z = gaussian(grid)
        assert dual_solve(z, 1.0, 1.0) is z

    def test_conjugation_identity(self):
        # conj of the forward flow of conj(z) equals the dual state at T - t
        rng = np.random.default_rng(5)
        grid = make_grid(1, 15.0, 256)
        z = random_field(grid, rng)
        t, horizon = 0.3, 1.0
        lhs = np.conj(dual_solve(Field(grid, np.conj(z.values)), horizon,
                                 horizon - t).values)
        rhs = propagate(z, t).values
        assert np.abs(lhs - rhs).max() <= 1e-11 * np.abs(z.values).max()

    def test_norm_preserved(self):
        rng = np.random.default_rng(6)
        grid = make_grid(1, 15.0, 128)
        z = random_field(grid, rng)
        assert abs(l2_norm(dual_solve(z, 2.0, 0.5)) - l2_norm(z)) <= 1e-12 * l2_norm(z)

    def test_time_outside_window_rejected(self):
        grid = make_grid(1, 10.0, 64)
        z = gaussian(grid)
        with pytest.raises(ValueError):
            dual_solve(z, 1.0, 1.5)
        with pytest.raises(ValueError):
            dual_solve(z, 1.0, -0.1)


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
    assert chirp_aliasing_ok(grid, t)
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
