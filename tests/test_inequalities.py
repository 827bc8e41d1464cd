"""Inequality evaluators: frozen oracle examples, dense cross-checks and the
homogeneity / conservation invariants."""

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.linalg import dft as dense_dft_matrix
from scipy.linalg import svdvals

from schrodlab import inequalities
from schrodlab.field import (Field, ball, ball_complement, density_energy,
                             field_from_function, l2_norm, make_grid, masked_energy,
                             radial_moment, whole_space, zero_field)
from schrodlab.fitting import affine_fit
from schrodlab.inequalities import (bandlimited_sample, empirical_constant,
                                    equivalence_bridge_check, euler_bound,
                                    euler_integral,
                                    extremal_bandlimited_concentration,
                                    fit_interpolation_12,
                                    interpolation_report_12, moment_check_34,
                                    smallest_euler_constant,
                                    sobolev_norm_sq, spectral_inequality_report,
                                    two_ball_report_13, two_time_quotient,
                                    uncertainty_quotient)
from schrodlab.transform import (AliasingError, dft, lattice_block, propagate,
                                 propagator_symbol, reflection_blocks,
                                 spectral_multiply, top_singular)

from reference import dense_gramian, reference_gramian

SQRT_PI = float(np.sqrt(np.pi))


def gaussian(grid, sigma=1.0):
    return field_from_function(
        grid, lambda *axes: np.exp(-sum(a ** 2 for a in axes) / (2.0 * sigma ** 2)))


def random_field(grid, rng):
    return Field(grid, rng.standard_normal(grid.node_count)
                 + 1j * rng.standard_normal(grid.node_count))


def dense_propagator(grid, t):
    """Dense flow matrix built from the raw DFT matrix (independent path)."""
    m = grid.points_per_dim
    f = dense_dft_matrix(m)
    xi = 2.0 * np.pi * np.fft.fftfreq(m, d=grid.spacing)
    return f.conj().T @ np.diag(np.exp(-1j * xi ** 2 * t)) @ f / m


class TestTwoTimeQuotient:
    def test_zero_field_convention(self):
        grid = make_grid(1, 10.0, 64)
        report = two_time_quotient(zero_field(grid), 0.0, 1.0,
                                   whole_space(), whole_space())
        assert report.quotient == 0.0

    def test_all_regions_give_half(self):
        rng = np.random.default_rng(0)
        grid = make_grid(1, 10.0, 64)
        for _ in range(100):
            u0 = random_field(grid, rng)
            report = two_time_quotient(u0, 0.0, 1.0, whole_space(), whole_space())
            assert report.quotient == pytest.approx(0.5, rel=1e-12)

    def test_rejects_bad_times_and_regions(self):
        grid = make_grid(1, 10.0, 64)
        u0 = gaussian(grid)
        with pytest.raises(ValueError):
            two_time_quotient(u0, 1.0, 1.0, whole_space(), whole_space())
        with pytest.raises(ValueError):
            two_time_quotient(u0, 0.0, 1.0, ball(0.0, 1.0), whole_space())

    def test_scaling_invariance(self):
        grid = make_grid(1, 20.0, 256)
        u0 = gaussian(grid)
        region = ball_complement(0.0, 2.0)
        q1 = two_time_quotient(u0, 0.0, 1.0, region, region).quotient
        q2 = two_time_quotient(Field(grid, (3.0 - 4.0j) * u0.values),
                               0.0, 1.0, region, region).quotient
        assert q1 == pytest.approx(q2, rel=1e-12)

    def test_against_dense_evolution_oracle(self):
        grid = make_grid(1, 40.0, 2048)
        u0 = gaussian(grid)
        region = ball_complement(0.0, 2.0)
        report = two_time_quotient(u0, 0.0, 1.0, region, region)
        dense = dense_propagator(grid, 1.0)
        u_t = Field(grid, dense @ u0.values)
        obs_t = masked_energy(u_t, region)
        obs_s = masked_energy(u0, region)
        dense_quotient = l2_norm(u0) ** 2 / (obs_s + obs_t)
        assert report.quotient == pytest.approx(dense_quotient, rel=1e-6)


class TestUncertaintyQuotient:
    def test_empty_balls_give_half(self):
        rng = np.random.default_rng(1)
        grid = make_grid(1, 10.0, 64)
        f = random_field(grid, rng)
        report = uncertainty_quotient(f, ball(0.0, 0.0), ball(0.0, 0.0))
        assert report.quotient == pytest.approx(0.5, rel=1e-13)

    def test_scaling_invariance(self):
        grid = make_grid(1, 20.0, 256)
        f = gaussian(grid)
        q1 = uncertainty_quotient(f, ball(0.0, 1.0), ball(0.0, 1.0)).quotient
        q2 = uncertainty_quotient(Field(grid, 1e3j * f.values),
                                  ball(0.0, 1.0), ball(0.0, 1.0)).quotient
        assert q1 == pytest.approx(q2, rel=1e-12)

    def test_gaussian_against_dense_oracle(self):
        grid = make_grid(1, 40.0, 2048)
        f = gaussian(grid)
        report = uncertainty_quotient(f, ball(0.0, 5.0), ball(0.0, 5.0))
        assert report.quotient > 1e6  # large but finite
        # dense-matrix transform path
        m = grid.points_per_dim
        signs = (-1.0) ** np.arange(m)
        fmat = dense_dft_matrix(m)
        pref = grid.spacing / np.sqrt(2 * np.pi) * (-1.0) ** (m // 2)
        spectrum_dense = pref * signs * (fmat @ (signs * f.values))
        outside = np.abs(grid.dual().axis_nodes()) > 5.0
        h_dual = grid.dual().spacing
        out_freq = float(np.sum(np.abs(spectrum_dense[outside]) ** 2) * h_dual)
        out_space = masked_energy(f, ball_complement(0.0, 5.0))
        dense_q = l2_norm(f) ** 2 / (out_space + out_freq)
        assert report.quotient == pytest.approx(dense_q, rel=1e-8)


class TestBridge:
    def smooth_sample(self, grid, seed):
        rng = np.random.default_rng(seed)
        coeffs = rng.standard_normal(6) + 1j * rng.standard_normal(6)
        x = grid.coords()[0]
        values = sum(c * (x / 5.0) ** p for p, c in enumerate(coeffs)) \
            * np.exp(-x ** 2 / 2.0)
        f = Field(grid, values)
        return Field(grid, f.values / l2_norm(f))

    def test_chirp_residual_machine_zero(self):
        grid = make_grid(1, 20.0, 1024)
        check = equivalence_bridge_check(self.smooth_sample(grid, 0),
                                         ball_complement(0.0, 1.0),
                                         ball(0.0, 6.0), 1.0)
        assert check.chirp_residual <= 1e-13

    def test_bridge_residual_small_and_refines(self):
        base = make_grid(1, 20.0, 1024)
        fine = make_grid(1, 40.0, 2048)
        for seed in range(5):
            res = {}
            for grid in (base, fine):
                check = equivalence_bridge_check(self.smooth_sample(grid, seed),
                                                 ball_complement(0.0, 1.0),
                                                 ball(0.0, 6.0), 1.0)
                res[grid] = check.bridge_residual
            assert res[base] <= 1e-8
            assert res[fine] <= res[base] / 2.0

    def test_aliasing_guard(self):
        grid = make_grid(1, 20.0, 64)  # Nyquist ~5, L/(2t) = 10
        with pytest.raises(AliasingError):
            equivalence_bridge_check(gaussian(grid), ball_complement(0.0, 1.0),
                                     ball(0.0, 2.0), 1.0)


class TestEmpiricalConstant:
    def test_full_observation_gives_two(self):
        grid = make_grid(1, 10.0, 64)
        result = empirical_constant(0.0, 1.0, whole_space(), whole_space(), grid)
        assert result.lambda_min == pytest.approx(2.0, abs=1e-10)
        assert result.constant == pytest.approx(0.5, abs=1e-10)

    @pytest.mark.parametrize("whole", ["A", "B"])
    def test_half_observation_gives_one(self, whole):
        # one side holds every node, so C is empty and G = I + a projection
        grid = make_grid(1, 10.0, 64)
        half = ball_complement(0.0, 3.0)
        region_a, region_b = (whole_space(), half) if whole == "A" else (half, whole_space())
        result = empirical_constant(0.0, 1.0, region_a, region_b, grid)
        assert result.lambda_min == 1.0
        assert result.converged
        v = result.extremizer.values
        assert np.linalg.norm(v) == pytest.approx(1.0, abs=1e-14)
        apply_g = reference_gramian(grid, 0.0, 1.0, region_a, region_b)
        assert np.vdot(v, apply_g(v)).real == pytest.approx(1.0, abs=1e-12)

    def test_matches_dense_eigendecomposition(self):
        grid = make_grid(1, 20.0, 256)
        region = ball_complement(0.0, 2.0)
        result = empirical_constant(0.0, 1.0, region, region, grid)
        assert result.converged
        exact = np.linalg.eigvalsh(dense_gramian(grid, 0.0, 1.0, region, region))[0]
        assert result.lambda_min == pytest.approx(exact, abs=1e-8)

    def test_matches_dense_eigendecomposition_2d_off_centre(self):
        grid = make_grid(2, 6.0, 16)
        region_a = ball_complement((0.5, -0.75), 1.5)
        region_b = ball_complement((-1.0, 0.5), 2.0)
        # C = E_b* P E_a is not square, so swapped singular vectors would
        # not even embed
        assert (np.count_nonzero(region_a.indicator(grid) == 0.0)
                != np.count_nonzero(region_b.indicator(grid) == 0.0))
        result = empirical_constant(0.0, 0.5, region_a, region_b, grid)
        assert result.converged
        dense = dense_gramian(grid, 0.0, 0.5, region_a, region_b)
        assert result.lambda_min == pytest.approx(np.linalg.eigvalsh(dense)[0],
                                                  abs=1e-12)
        v = result.extremizer.values
        rayleigh = np.vdot(v, dense @ v).real / np.vdot(v, v).real
        assert rayleigh == pytest.approx(result.lambda_min, abs=1e-12)

    @pytest.mark.parametrize("dim, gap, top", [(1, 4.0, "odd"), (2, 0.5, "even")])
    def test_matches_dense_on_the_half_holding_sigma_max(self, dim, gap, top):
        # centred sets, so C splits into its reflection-even and -odd halves;
        # the rows hold the origin and the cols the corner x = -L, both fixed
        # by x -> -x (x_0 = -L is L on the periodic lattice)
        if dim == 1:
            grid = make_grid(1, 10.0, 64)
            region_a, region_b = ball(0.0, 6.0), ball_complement(0.0, 3.0)
        else:
            grid = make_grid(2, 6.0, 16)
            region_a, region_b = ball(0.0, 4.0, dim=2), ball_complement(0.0, 2.0, dim=2)
        cols = np.flatnonzero(region_a.indicator(grid) == 0.0)
        rows = np.flatnonzero(region_b.indicator(grid) == 0.0)
        origin = np.ravel_multi_index((grid.points_per_dim // 2,) * dim,
                                      (grid.points_per_dim,) * dim)
        assert origin in rows and 0 in cols
        (even, _, _), (odd, _, _) = reflection_blocks(grid, propagator_symbol(grid, gap),
                                                      rows, cols)
        tops = {"even": svdvals(even)[0], "odd": svdvals(odd)[0]}
        assert max(tops, key=tops.get) == top
        result = empirical_constant(0.0, gap, region_a, region_b, grid)
        assert result.converged
        dense = dense_gramian(grid, 0.0, gap, region_a, region_b)
        assert result.lambda_min == pytest.approx(np.linalg.eigvalsh(dense)[0],
                                                  abs=1e-12)
        v = result.extremizer.values
        rayleigh = np.vdot(v, dense @ v).real / np.vdot(v, v).real
        assert rayleigh == pytest.approx(result.lambda_min, abs=1e-12)

    @pytest.mark.parametrize("gap", [0.25, 0.5, 1.0, 2.0])
    def test_matches_the_doubled_block(self, gap):
        # two-subspace identity: 1 - sigma_max(C) = 2 - lambda_max([[I, C*], [C, I]])
        grid = make_grid(1, 20.0, 512)
        region = ball_complement(0.0, 2.0)
        nodes = np.flatnonzero(region.indicator(grid) == 0.0)
        c = lattice_block(grid, propagator_symbol(grid, gap), nodes, nodes)
        eye = np.eye(nodes.size)
        doubled = 2.0 - np.linalg.eigvalsh(np.block([[eye, c.conj().T], [c, eye]]))[-1]
        result = empirical_constant(0.0, gap, region, region, grid)
        assert result.lambda_min == pytest.approx(doubled, rel=1e-9)

    @pytest.mark.parametrize("gap, resolved", [(0.05, False), (0.1, False),
                                               (0.25, True)])
    def test_eigenvalue_below_its_floor_is_not_converged(self, gap, resolved):
        # at gaps 0.05 and 0.1 lambda_min is below the block's rounding
        # floor, so its inverse is no constant
        grid = make_grid(1, 20.0, 512)
        region = ball_complement(0.0, 2.0)
        result = empirical_constant(0.0, gap, region, region, grid)
        assert (result.lambda_min >= result.floor) is resolved
        assert result.converged is resolved

    def test_floor_is_the_one_top_singular_returns(self):
        # the flow symbol is complex, so C takes the Gram route: eps (k_a + k_b)
        grid = make_grid(1, 20.0, 512)
        region = ball_complement(0.0, 2.0)
        nodes = np.flatnonzero(region.indicator(grid) == 0.0)
        *_, floor = top_singular(grid, propagator_symbol(grid, 0.25), nodes, nodes)
        result = empirical_constant(0.0, 0.25, region, region, grid)
        assert result.floor == floor == np.finfo(float).eps * 2 * nodes.size

    def test_extremizer_achieves_eigenvalue(self):
        grid = make_grid(1, 20.0, 256)
        region = ball_complement(0.0, 2.0)
        result = empirical_constant(0.0, 0.5, region, region, grid)
        apply_g = reference_gramian(grid, 0.0, 0.5, region, region)
        v = result.extremizer.values
        rayleigh = np.vdot(v, apply_g(v)).real / np.vdot(v, v).real
        assert rayleigh == pytest.approx(result.lambda_min, abs=1e-9)

    def test_gramian_hermitian(self):
        rng = np.random.default_rng(2)
        grid = make_grid(1, 20.0, 128)
        apply_g = reference_gramian(grid, 0.0, 0.7, ball_complement(0.0, 2.0),
                                    ball_complement(1.0, 1.5))
        for _ in range(20):
            f, g = (rng.standard_normal(128) + 1j * rng.standard_normal(128)
                    for _ in range(2))
            lhs = np.vdot(g, apply_g(f))
            rhs = np.vdot(apply_g(g), f)
            assert abs(lhs - rhs) <= 1e-11 * np.linalg.norm(f) * np.linalg.norm(g)

    def test_constant_monotone_in_gap(self):
        grid = make_grid(1, 20.0, 512)
        region = ball_complement(0.0, 2.0)
        constants = [empirical_constant(0.0, gap, region, region, grid).constant
                     for gap in (0.25, 0.5, 1.0, 2.0)]
        assert all(b <= a for a, b in zip(constants, constants[1:]))


class TestInterpolation12:
    def test_zero_field(self):
        grid = make_grid(1, 20.0, 128)
        report = interpolation_report_12(zero_field(grid), 1.0, 1.0, 1.0)
        assert report.lhs == 0.0 and report.quotient == 0.0

    def test_prior_dominates_norm(self):
        # the grow weight is >= 1 pointwise, so prior >= lhs
        grid = make_grid(1, 20.0, 512)
        u0 = gaussian(grid)
        report = interpolation_report_12(u0, 1.0, 1.0, 1.0)
        assert report.terms["prior"] >= report.lhs

    @staticmethod
    def bump_family_fit():
        """The interpolation-12 CLI family at its defaults, and its fit."""
        grid = make_grid(1, 20.0, 1024)
        rsq = grid.radius_sq()
        members, samples = [], []
        for scale in np.linspace(0.5, 3.0, 20):
            values = np.zeros(grid.node_count)
            inside = rsq < scale ** 2
            values[inside] = np.exp(-1.0 / (1.0 - rsq[inside] / scale ** 2))
            member = Field(grid, values.astype(complex))
            member = Field(grid, member.values / l2_norm(member))
            report = interpolation_report_12(member, 1.0, 1.0, 1.0)
            members.append(member)
            samples.append((report.lhs, report.terms["observation"],
                            report.terms["prior"]))
        return members, fit_interpolation_12(samples, 1.0, 1.0, 1.0, dim=1)

    def test_bump_family_fit(self):
        _, fit = self.bump_family_fit()
        assert np.isfinite(fit.constant) and fit.constant > 0
        assert 0.0 < fit.theta < 1.0

    def test_report_quotient_is_fitted_constant(self):
        # the report and the fit state the same inequality: at the fitted
        # theta the largest quotient is the fitted C, which bounds the rest
        members, fit = self.bump_family_fit()
        quotients = [interpolation_report_12(member, 1.0, 1.0, 1.0,
                                             theta=fit.theta).quotient
                     for member in members]
        assert max(quotients) == pytest.approx(fit.constant, rel=1e-12)
        assert all(q <= fit.constant * (1.0 + 1e-12) for q in quotients)


class TestTwoBall13:
    def test_zero_field(self):
        grid = make_grid(1, 20.0, 128)
        report = two_ball_report_13(zero_field(grid), -1.0, 1.0, 1.0, 1.0, 1.0, 1.0)
        assert report.lhs == 0.0

    def test_identical_balls(self):
        grid = make_grid(1, 20.0, 512)
        u0 = gaussian(grid)
        report = two_ball_report_13(u0, 0.5, 0.5, 1.0, 1.0, 1.0, 1.0)
        assert report.lhs == pytest.approx(report.terms["observation"], rel=1e-14)
        # p = 1 + (0 + r1 + r2) / ((aT) ^ r1) = 1 + 2
        assert report.terms["p"] == pytest.approx(3.0, rel=1e-12)

    def test_energies_against_dense_oracle(self):
        grid = make_grid(1, 40.0, 2048)
        u0 = gaussian(grid)
        report = two_ball_report_13(u0, -3.0, 3.0, 1.0, 1.0, 1.0, 1.0)
        u_t = Field(grid, dense_propagator(grid, 1.0) @ u0.values)
        assert report.lhs == pytest.approx(
            masked_energy(u_t, ball(3.0, 1.0)), rel=1e-8)
        assert report.terms["observation"] == pytest.approx(
            masked_energy(u_t, ball(-3.0, 1.0)), rel=1e-8)
        assert report.terms["separation"] == 6.0

    def test_2d_separation_is_between_the_ball_centres(self):
        # a scalar centre c is the point (c, c) in 2D: x' = -2, x'' = 2 puts
        # the balls 4*sqrt(2) apart, not 4; the balls themselves stay put
        grid = make_grid(2, 20.0, 64)
        report = two_ball_report_13(gaussian(grid), -2.0, 2.0, 1.0, 1.0, 1.0, 1.0)
        assert report.terms["separation"] == pytest.approx(4.0 * np.sqrt(2.0), rel=1e-14)
        assert report.terms["p"] == pytest.approx(3.0 + 4.0 * np.sqrt(2.0), rel=1e-14)
        assert report.lhs == pytest.approx(
            masked_energy(propagate(gaussian(grid), 1.0), ball((2.0, 2.0), 1.0)),
            rel=1e-14)


class TestSpectralInequality:
    def test_sinc_kernel_ratio_at_least_one(self):
        grid = make_grid(1, 20.0, 512)
        f = bandlimited_sample(grid, 1.0, seed=0)
        report, = spectral_inequality_report(f, [1.0], 1.0)
        assert report.quotient >= 1.0

    def test_zero_radius_gives_one(self):
        grid = make_grid(1, 20.0, 512)
        f = bandlimited_sample(grid, 2.0, seed=1)
        report, = spectral_inequality_report(f, [0.0], 2.0)
        assert report.quotient == pytest.approx(1.0, rel=1e-14)

    def test_one_projection_scores_every_radius(self, monkeypatch):
        grid = make_grid(1, 10.0, 256)
        f = bandlimited_sample(grid, 2.0, seed=3)
        radii = [0.0, 0.5, 1.0, 2.0]
        alone = [spectral_inequality_report(f, [r], 2.0)[0] for r in radii]
        projections = []

        def counted(*args):
            projections.append(args)
            return spectral_multiply(*args)

        monkeypatch.setattr(inequalities, "spectral_multiply", counted)
        together = spectral_inequality_report(f, radii, 2.0)
        assert len(projections) == 1
        assert [(rep.lhs, rep.terms, rep.quotient) for rep in together] \
            == [(rep.lhs, rep.terms, rep.quotient) for rep in alone]

    @pytest.mark.parametrize("half_extent, points, r, band", [
        (8.0, 64, 1.5, 2.0),   # band side (11 band nodes, 13 ball nodes)
        (4.5, 100, 0.9, 6.0),  # band side; rounding puts x = 0.9 in, x = -0.9 out
        (8.0, 64, 1.5, 6.0),   # ball side (13 ball nodes, 31 band nodes)
    ])
    def test_extremal_concentration_against_dense(self, half_extent, points, r, band):
        grid = make_grid(1, half_extent, points)
        extremal = extremal_bandlimited_concentration(grid, r, band)
        lam = masked_energy(extremal, ball(0.0, r)) / l2_norm(extremal) ** 2
        # dense concentration operator on the band subspace
        dual = grid.dual()
        band_idx = np.flatnonzero(ball(0.0, band).indicator(dual))
        m = grid.points_per_dim
        signs = (-1.0) ** np.arange(m)
        fmat = dense_dft_matrix(m)
        pref = grid.spacing / np.sqrt(2 * np.pi) * (-1.0) ** (m // 2)
        dmat = pref * (signs[:, None] * fmat * signs[None, :])  # dft matrix
        synth = np.linalg.inv(dmat)[:, band_idx]
        gram = synth.conj().T @ np.diag(ball(0.0, r).indicator(grid)) @ synth
        overlap = synth.conj().T @ synth
        lam_dense = np.linalg.eigvalsh(np.linalg.solve(overlap, gram))[-1].real
        assert lam == pytest.approx(lam_dense, abs=1e-9)

    @pytest.mark.parametrize("r, band, pattern", [
        (2.0, 12.0, r"r 2, N 12: 1 - mu \S+ below the floor 1\.710e-14"),  # band side
        (1.0, 24.0, r"r 1, N 24: 1 - mu \S+ below the floor 1\.132e-14"),  # ball side
    ])
    def test_uncertified_extremal_pair_raises(self, r, band, pattern):
        # at rN = 24 the top of K is 1 to rounding: 1 - mu is not resolved
        with pytest.raises(RuntimeError, match=pattern):
            extremal_bandlimited_concentration(make_grid(1, 10.0, 512), r, band)

    def test_extremal_ratio_grows_affinely_in_rn(self):
        grid = make_grid(1, 10.0, 256)
        rows = []
        for r in (0.5, 1.0, 2.0):
            for band in (1.0, 2.0, 4.0):
                f = extremal_bandlimited_concentration(grid, r, band)
                report, = spectral_inequality_report(f, [r], band)
                rows.append((r * band, np.log(report.quotient)))
        fit = affine_fit([x for x, _ in rows], [y for _, y in rows])
        assert fit.slope > 0 and fit.r_squared >= 0.8


class TestBandlimitedSample:
    def test_band_support(self):
        grid = make_grid(1, 10.0, 256)
        f = bandlimited_sample(grid, 3.0, seed=5)
        spectrum = dft(f)
        outside = np.abs(spectrum.grid.axis_nodes()) > 3.0
        assert np.abs(spectrum.values[outside]).max() <= 1e-14

    def test_unit_norm(self):
        grid = make_grid(1, 10.0, 256)
        f = bandlimited_sample(grid, 3.0, seed=6)
        assert abs(l2_norm(f) - 1.0) <= 1e-12

    def test_deterministic(self):
        grid = make_grid(1, 10.0, 256)
        f1 = bandlimited_sample(grid, 3.0, seed=7)
        f2 = bandlimited_sample(grid, 3.0, seed=7)
        assert np.array_equal(f1.values, f2.values)

    def test_rejects_band_beyond_nyquist(self):
        grid = make_grid(1, 10.0, 64)
        with pytest.raises(ValueError):
            bandlimited_sample(grid, grid.nyquist, seed=0)


class TestMoments:
    def test_time_zero_cauchy_schwarz(self):
        grid = make_grid(1, 30.0, 512)
        u0 = gaussian(grid)
        check = moment_check_34(u0, 0.0, 1)
        assert check.lhs == pytest.approx(radial_moment(u0, 2), rel=1e-12)
        assert check.lhs <= check.moment + check.energy

    def test_gaussian_second_moment_closed_form(self):
        grid = make_grid(1, 40.0, 2048)
        u0 = gaussian(grid)
        for t in (0.0, 0.5, 1.0, 2.0):
            check = moment_check_34(u0, t, 1)
            expected = 0.5 * (1.0 + 4.0 * t * t) * SQRT_PI
            assert check.lhs == pytest.approx(expected, abs=1e-6)

    def test_growth_slope_within_budget(self):
        grid = make_grid(1, 80.0, 2048)
        u0 = gaussian(grid, sigma=2.0)
        for k in (1, 2):
            times = [1.0, 2.0, 4.0, 8.0, 16.0]
            values = [moment_check_34(u0, t, k).lhs for t in times]
            fit = affine_fit(np.log1p(times), np.log(values))
            assert fit.slope <= 2 * k + 0.1

    def test_rejects_bad_k(self):
        grid = make_grid(1, 10.0, 64)
        with pytest.raises(ValueError):
            moment_check_34(gaussian(grid), 1.0, 3)

    @pytest.mark.parametrize("dim, m", [(1, 256), (2, 32)])
    def test_sobolev_norm_is_the_spectral_density_energy(self, dim, m):
        rng = np.random.default_rng(4)
        grid = make_grid(dim, 10.0, m)
        f = Field(grid, rng.standard_normal(grid.node_count)
                  + 1j * rng.standard_normal(grid.node_count))
        spectrum = dft(f)
        for order in (1, 2, 4):
            density = (1.0 + spectrum.grid.radius_sq()) ** order
            inline = float(np.sum(density * np.abs(spectrum.values) ** 2)
                           * spectrum.grid.spacing ** dim)
            assert sobolev_norm_sq(f, order) == density_energy(spectrum, density) == inline


class TestEulerBound:
    def test_1d_base_case(self):
        assert euler_integral(1.0, (0,)) == 2.0

    def test_1d_gamma_reduction(self):
        assert euler_integral(1.0, (1,)) == 4.0  # 2 * Gamma(3)

    def test_2d_radial_quadrature_base(self):
        assert euler_integral(1.0, (0, 0)) == pytest.approx(2.0 * np.pi, rel=1e-10)

    @pytest.mark.parametrize("a", [0.5, 1.0, 2.0])
    def test_2d_closed_form_against_quadrature(self, a):
        # reference: radial x angular quadrature of |xi1|^{2 b1} |xi2|^{2 b2} e^{-a|xi|}
        betas = [(b1, b2) for b1 in range(5) for b2 in range(5) if b1 + b2 <= 4]
        assert len(betas) == 15
        for b1, b2 in betas:
            total = b1 + b2
            radial, _ = quad(lambda rho: rho ** (2 * total + 1) * np.exp(-a * rho),
                             0.0, np.inf, epsabs=1e-13, epsrel=1e-13, limit=200)
            angular, _ = quad(
                lambda th: abs(np.cos(th)) ** (2 * b1) * abs(np.sin(th)) ** (2 * b2),
                0.0, 2.0 * np.pi, epsabs=1e-13, epsrel=1e-13, limit=200)
            assert euler_integral(a, (b1, b2)) == pytest.approx(radial * angular,
                                                                rel=1e-13)

    def test_fitted_constant_covers_test_set(self):
        cases = []
        for a in (0.5, 1.0, 2.0):
            cases += [(a, (b,)) for b in range(5)]
            cases += [(a, (b1, b2)) for b1 in range(5) for b2 in range(5)
                      if b1 + b2 <= 4]
        constant = smallest_euler_constant(cases)
        assert np.isfinite(constant) and constant > 0
        for a, beta in cases:
            assert euler_bound(a, beta, constant) \
                >= euler_integral(a, beta) * (1.0 - 1e-12)

    def test_rejects_large_multiindex(self):
        with pytest.raises(ValueError):
            euler_integral(1.0, (3, 2))
