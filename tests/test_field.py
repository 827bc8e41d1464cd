"""Grid, region, weight and energy functional checks.

The quadrature oracle values are frozen from scipy.integrate.quad /
scipy.special.erf evaluations of the continuum integrals.
"""

import numpy as np
import pytest

from schrodlab.field import (CappedWeightError, EnergyOverflowError, Field,
                             GridError, Weight, ball, ball_complement,
                             box_tail_fraction, density_energy, dot,
                             field_from_function, gaussian_state, l2_norm,
                             make_grid, mass_radius, masked_energy,
                             normalized, radial_moment, weighted_energy,
                             whole_space, zero_field)
from schrodlab.transform import dft, idft

# independent quadrature oracles (tests/oracles.py documents the recipes)
INT_EXP_MINUS_X2_BALL1 = 1.4936482656248540   # quad(e^{-x^2}, -1, 1)
INT_EXP_ABSX_MINUS_X2 = 3.4604688674074       # quad(e^{|x|-x^2}, R)


def gaussian(grid, sigma=1.0):
    return field_from_function(
        grid, lambda *axes: np.exp(-sum(a ** 2 for a in axes) / (2.0 * sigma ** 2)))


def random_field(grid, rng):
    return Field(grid, rng.standard_normal(grid.node_count)
                 + 1j * rng.standard_normal(grid.node_count))


class TestGrid:
    def test_spacing_and_nodes(self):
        grid = make_grid(1, 10.0, 16)
        assert grid.spacing == 1.25
        assert np.allclose(grid.axis_nodes(), -10.0 + 1.25 * np.arange(16))
        assert grid.spacing * grid.points_per_dim == 2 * grid.half_extent

    def test_frequency_nodes_unit_spacing(self):
        grid = make_grid(1, np.pi, 8)
        assert np.allclose(grid.freq_axis_nodes(), np.arange(-4, 4))

    def test_tensor_product_count(self):
        grid = make_grid(2, 10.0, 16)
        assert grid.node_count == 256
        x0, x1 = grid.coords()
        assert x0.shape == (256,) and x1.shape == (256,)

    @pytest.mark.parametrize("args", [(1, 10.0, 15), (1, 10.0, 6),
                                      (1, -1.0, 16), (3, 10.0, 16),
                                      (0, 10.0, 16)])
    def test_rejects_bad_parameters(self, args):
        with pytest.raises(GridError):
            make_grid(*args)

    @pytest.mark.parametrize("dim", [1, 2])
    @pytest.mark.parametrize("half_extent", [1.0, 3.0, 15.0, 20.0, 25.0, 40.0,
                                             50.0, 100.0, 200.0])
    def test_dual_grid_round_trip(self, dim, half_extent):
        # pi*M/(2*(pi*M/(2L))) rounds to 99.99999999999999 at L = 100
        grid = make_grid(dim, half_extent, 64)
        assert grid.dual().dual() == grid
        assert grid.dual().dual().half_extent == half_extent
        assert grid.dual().spacing == pytest.approx(np.pi / half_extent)
        f = gaussian_state(grid)
        assert dot(f, idft(dft(f))) == pytest.approx(dot(f, f), rel=1e-12)


class TestField:
    def test_rejects_bad_shapes_and_nonfinite(self):
        grid = make_grid(1, 5.0, 8)
        with pytest.raises(ValueError):
            Field(grid, np.zeros(7, dtype=complex))
        with pytest.raises(ValueError):
            Field(grid, np.full(8, np.nan, dtype=complex))

    def test_values_immutable(self):
        grid = make_grid(1, 5.0, 8)
        f = zero_field(grid)
        with pytest.raises(ValueError):
            f.values[0] = 1.0

    @pytest.mark.parametrize("dtype", [complex, float])
    def test_values_do_not_alias_the_source(self, dtype):
        grid = make_grid(1, 5.0, 8)
        source = np.arange(8, dtype=dtype)
        f = Field(grid, source)
        source[:] = -1.0
        assert np.array_equal(f.values, np.arange(8))


class TestRegions:
    def test_partition_of_unity(self):
        grid = make_grid(1, 5.0, 32)
        region = ball(0.3, 1.7)
        total = region.indicator(grid) + region.complement().indicator(grid)
        assert np.array_equal(total, np.ones(32))

    def test_closed_ball_includes_boundary_node(self):
        grid = make_grid(1, 4.0, 8)  # nodes at integers
        mask = ball(0.0, 2.0).indicator(grid)
        nodes = grid.axis_nodes()
        assert mask[np.isclose(nodes, 2.0)].all()
        assert mask[np.isclose(nodes, -2.0)].all()

    def test_zero_radius_ball_is_empty(self):
        grid = make_grid(1, 4.0, 8)  # has a node exactly at the origin
        assert ball(0.0, 0.0).indicator(grid).sum() == 0
        assert ball_complement(0.0, 0.0).indicator(grid).sum() == 8


class TestMaskedEnergy:
    def test_zero_field(self):
        grid = make_grid(1, 5.0, 16)
        assert masked_energy(zero_field(grid), ball(0.0, 1.0)) == 0.0

    def test_partition_invariant_random(self):
        rng = np.random.default_rng(11)
        grid = make_grid(1, 10.0, 128)
        for _ in range(100):
            f = random_field(grid, rng)
            center = float(rng.uniform(-5, 5))
            radius = float(rng.uniform(0.1, 8.0))
            inside = masked_energy(f, ball(center, radius))
            outside = masked_energy(f, ball_complement(center, radius))
            total = masked_energy(f, whole_space())
            assert inside + outside == pytest.approx(total, rel=1e-13)

    def test_scaling(self):
        rng = np.random.default_rng(5)
        grid = make_grid(1, 10.0, 64)
        f = random_field(grid, rng)
        c = 1.7 - 0.3j
        scaled = Field(grid, c * f.values)
        assert masked_energy(scaled, ball(0.0, 2.0)) == pytest.approx(
            abs(c) ** 2 * masked_energy(f, ball(0.0, 2.0)), rel=1e-14)

    def test_monotone_in_radius(self):
        rng = np.random.default_rng(3)
        grid = make_grid(1, 10.0, 256)
        f = random_field(grid, rng)
        energies = [masked_energy(f, ball(0.0, r))
                    for r in np.linspace(0.0, 12.0, 40)]
        assert all(b >= a for a, b in zip(energies, energies[1:]))

    def test_overflow_signalled(self):
        # |f|^2 = 1e400 is past the double range: the energy is not inf
        grid = make_grid(1, 20.0, 64)
        huge = Field(grid, np.full(64, 1e200, dtype=complex))
        for region in (ball(0.0, 1.0), ball_complement(0.0, 1.0)):
            with pytest.raises(EnergyOverflowError):
                masked_energy(huge, region)

    def test_gaussian_ball_against_quadrature(self):
        # plain Riemann sums cut at the ball boundary carry an O(h f(r))
        # quantization error; assert the principled bound at two resolutions
        for m in (1024, 4096):
            grid = make_grid(1, 20.0, m)
            f = gaussian(grid)
            bound = 1.1 * np.exp(-1.0) * grid.spacing
            assert masked_energy(f, ball(0.0, 1.0)) == pytest.approx(
                INT_EXP_MINUS_X2_BALL1, abs=bound)


class TestWeightedEnergy:
    def test_zero_field(self):
        grid = make_grid(1, 5.0, 16)
        assert weighted_energy(zero_field(grid), Weight(1.0)) == 0.0

    def test_unit_weight_limit(self):
        rng = np.random.default_rng(9)
        grid = make_grid(1, 10.0, 128)
        f = random_field(grid, rng)
        value = weighted_energy(f, Weight(1e-14))
        assert value == pytest.approx(l2_norm(f) ** 2, rel=1e-10)

    def test_gaussian_exponential_weight_against_quadrature(self):
        # whole-space sum converges at O(h^2) (the |x| kink caps the order)
        errors = {}
        for m in (2048, 4096):
            grid = make_grid(1, 20.0, m)
            f = gaussian(grid)
            errors[m] = abs(weighted_energy(f, Weight(1.0)) - INT_EXP_ABSX_MINUS_X2)
        assert errors[2048] <= 1e-4
        assert errors[4096] <= 2.5e-5
        assert errors[4096] <= errors[2048] / 3.0

    def test_weight_past_its_cap_is_refused(self):
        # a L = 1000 on L = 20: clamping would measure another norm
        grid = make_grid(1, 20.0, 64)
        f = gaussian(grid)
        with pytest.raises(CappedWeightError, match="amplitude 50 reaches exponent 1000"):
            weighted_energy(f, Weight(50.0))
        assert weighted_energy(f, Weight(1.0)) > 0.0

    def test_overflow_signalled(self):
        # a L = 600 is inside the cap, but e^600 |f|^2 passes the double range
        grid = make_grid(1, 20.0, 64)
        huge = Field(grid, np.full(64, 1e100, dtype=complex))
        with pytest.raises(EnergyOverflowError):
            weighted_energy(huge, Weight(30.0))

    def test_weight_validation(self):
        with pytest.raises(ValueError):
            Weight(-1.0)


class TestNormsAndDot:
    def test_dot_self_is_norm_squared(self):
        rng = np.random.default_rng(2)
        grid = make_grid(1, 10.0, 64)
        f = random_field(grid, rng)
        assert dot(f, f).real == pytest.approx(l2_norm(f) ** 2, rel=1e-14)
        assert abs(dot(f, f).imag) <= 1e-14 * l2_norm(f) ** 2

    def test_hermitian_symmetry(self):
        rng = np.random.default_rng(4)
        grid = make_grid(1, 10.0, 64)
        f, g = random_field(grid, rng), random_field(grid, rng)
        assert dot(f, g) == pytest.approx(np.conj(dot(g, f)), rel=1e-13)

    def test_constant_norm(self):
        grid = make_grid(1, 7.5, 128)
        one = Field(grid, np.ones(128, dtype=complex))
        assert l2_norm(one) == pytest.approx(np.sqrt(2 * 7.5), rel=1e-12)

    def test_grid_mismatch_rejected(self):
        f = zero_field(make_grid(1, 5.0, 16))
        g = zero_field(make_grid(1, 5.0, 32))
        with pytest.raises(ValueError):
            dot(f, g)


@pytest.mark.parametrize("dim, m", [(1, 256), (2, 32)])
class TestNormalized:
    def test_unit_norm(self, dim, m):
        grid = make_grid(dim, 10.0, m)
        f = normalized(grid, random_field(grid, np.random.default_rng(3)).values)
        assert l2_norm(f) == pytest.approx(1.0, rel=1e-14)

    @pytest.mark.parametrize("real", [False, True])
    def test_equals_the_two_step_normalization(self, dim, m, real):
        # bit for bit the throwaway Field divided by its l2_norm
        grid = make_grid(dim, 10.0, m)
        values = random_field(grid, np.random.default_rng(5)).values
        values = values.real if real else values
        f = Field(grid, values)
        assert np.array_equal(normalized(grid, values).values,
                              Field(grid, f.values / l2_norm(f)).values)


@pytest.mark.parametrize("dim, m", [(1, 256), (2, 32)])
def test_energies_are_density_energies(dim, m):
    # each energy is the one sum with its density, digit for digit the
    # inline Riemann sum it replaced
    grid = make_grid(dim, 10.0, m)
    f = random_field(grid, np.random.default_rng(9))
    h_dim = grid.spacing ** dim

    def inline(density):
        return float(np.sum(density * np.abs(f.values) ** 2) * h_dim)

    for region in (ball(0.5, 3.0, dim=dim), ball_complement(0.0, 2.0, dim=dim),
                   whole_space()):
        mask = region.indicator(grid)
        assert masked_energy(f, region) == density_energy(f, mask) == inline(mask)
    for order in (2, 4, 8):
        density = grid.radius_sq() ** (order / 2.0)
        assert radial_moment(f, order) == density_energy(f, density) == inline(density)


def test_radial_moment_matches_weighted_sum():
    grid = make_grid(1, 10.0, 256)
    f = gaussian(grid)
    x = grid.axis_nodes()
    direct = np.sum(x ** 2 * np.abs(f.values) ** 2) * grid.spacing
    assert radial_moment(f, 2) == pytest.approx(direct, rel=1e-14)


def test_box_tail_fraction():
    grid = make_grid(1, 20.0, 512)
    assert box_tail_fraction(gaussian(grid)) < 1e-10
    wide = gaussian(grid, sigma=8.0)
    assert box_tail_fraction(wide) > 1e-3


@pytest.mark.parametrize("dim, half_extent, points", [(1, 20.0, 512), (2, 16.0, 128)])
def test_box_tail_fraction_is_the_outside_mass(dim, half_extent, points):
    # e^{-L^2/4} outside [-L/2, L/2]: 3.7e-44 and 1.6e-28 of the mass, far
    # below the rounding level of 1 - inside/total
    grid = make_grid(dim, half_extent, points)
    f = gaussian(grid)
    axes = np.meshgrid(*[grid.axis_nodes()] * dim, indexing="ij")
    outside = np.zeros(axes[0].shape, dtype=bool)
    for axis in axes:
        outside |= np.abs(axis) > half_extent / 2.0
    mass = np.abs(f.values.reshape(axes[0].shape)) ** 2
    expected = mass[outside].sum() / mass.sum()
    assert 0.0 < expected < 1e-20
    assert box_tail_fraction(f) == pytest.approx(expected, rel=1e-12)


def test_box_tail_fraction_of_a_compact_bump_is_zero():
    grid = make_grid(1, 4.0, 256)
    x = grid.axis_nodes()
    inside = np.abs(x) < 1.0
    bump = np.zeros_like(x)
    bump[inside] = np.exp(-1.0 / (1.0 - x[inside] ** 2))
    assert box_tail_fraction(Field(grid, bump)) == 0.0
    assert box_tail_fraction(zero_field(grid)) == 0.0


def test_mass_radius():
    grid = make_grid(1, 10.0, 20)  # nodes -10, -9, ..., 9
    values = np.zeros(grid.node_count)
    values[[10, 13, 16]] = [1.0, 2.0, 1.0]  # mass 1, 4, 1 at x = 0, 3, 6
    f = Field(grid, values)
    assert mass_radius(f, 0.0) == 6.0
    assert mass_radius(f, 1.0 / 6.0) == 3.0  # the ball of radius 3 holds 5/6
    assert mass_radius(f, 0.5) == 3.0
    assert mass_radius(f, 0.9) == 0.0
    assert mass_radius(zero_field(grid), 1e-12) == 0.0
