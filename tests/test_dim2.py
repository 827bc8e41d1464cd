"""Two-dimensional smoke coverage for the operations used by the studies."""

import numpy as np
import pytest

from schrodlab.control import ErrorNorm, ImpulseProblem, datum_field, solve_control
from schrodlab.counterexamples import SequenceSpec, decay_study
from schrodlab.field import (Field, ball, field_from_function, make_grid,
                             masked_energy, whole_space)
from schrodlab.inequalities import (empirical_constant, two_time_quotient,
                                    uncertainty_quotient)


GRID = make_grid(2, 10.0, 64)


def gaussian2(center=(0.0, 0.0), sigma=1.0):
    cx, cy = center
    return field_from_function(
        GRID, lambda x, y: np.exp(-((x - cx) ** 2 + (y - cy) ** 2)
                                  / (2.0 * sigma ** 2)))


def test_masked_partition_2d():
    rng = np.random.default_rng(0)
    f = Field(GRID, rng.standard_normal(GRID.node_count)
              + 1j * rng.standard_normal(GRID.node_count))
    region = ball((0.5, -1.0), 2.0)
    total = masked_energy(f, region) + masked_energy(f, region.complement())
    assert total == pytest.approx(masked_energy(f, whole_space()), rel=1e-13)


def test_two_time_quotient_2d_conservation():
    report = two_time_quotient(gaussian2(), 0.0, 1.0, whole_space(), whole_space())
    assert report.quotient == pytest.approx(0.5, rel=1e-12)


def test_uncertainty_quotient_2d():
    report = uncertainty_quotient(gaussian2(), ball(0.0, 2.0, dim=2),
                                  ball(0.0, 2.0, dim=2))
    assert report.quotient > 1.0
    assert np.isfinite(report.quotient)


def test_empirical_constant_2d_full_observation():
    result = empirical_constant(0.0, 0.5, whole_space(), whole_space(), GRID)
    assert result.lambda_min == pytest.approx(2.0, abs=1e-9)


def test_concentrating_rate_2d():
    # slope -n with n = 2; the 2D resolvability budget at M = 256 caps the
    # box at L = 4 (h = 1/32) and the index window at k <= 7
    grid = make_grid(2, 4.0, 256)
    spec = SequenceSpec("concentrating", horizon=1.0, r1=1.0, r2=1.0)
    study = decay_study(spec, grid, [2, 3, 4, 6])
    assert study.fits["terminal_inside"].slope == pytest.approx(-2.0, abs=0.3)


def test_control_closed_form_2d():
    u0 = gaussian2()
    target = gaussian2(center=(1.0, 0.0))
    problem = ImpulseProblem(GRID, 1.0, ((0.0, whole_space()),), u0, target,
                             1e-4, 2.0, ErrorNorm("l2"))
    solution = solve_control(problem, tol=1e-12)
    f = datum_field(problem)
    expected = f.values / (2.0 + 1e-4)
    assert np.abs(solution.dual_state.values - expected).max() \
        <= 1e-11 * np.abs(expected).max()
    assert solution.bound_lhs <= solution.datum_norm_sq * (1 + 1e-9)
