"""The Krylov operators build their propagator symbols once, when they are
built (`flow_observation`, `problem_operators`), and apply them bit for bit
as the per-call flow `propagate_values`."""

from dataclasses import replace

import numpy as np
import pytest

from schrodlab import transform
from schrodlab.control import problem_operators, variant_problem
from schrodlab.field import ball_complement, make_grid
from schrodlab.transform import propagate_values

from reference import reference_gramian

GRIDS = {"1d": make_grid(1, 20.0, 256), "2d": make_grid(2, 20.0, 32)}


def random_values(grid, seed=0):
    rng = np.random.default_rng(seed)
    return rng.standard_normal(grid.node_count) + 1j * rng.standard_normal(grid.node_count)


def flowed_gramian(grid, s, t, region_a, region_b, v):
    forward = propagate_values(grid, v, t - s)
    back = propagate_values(grid, region_b.indicator(grid) * forward, -(t - s))
    return region_a.indicator(grid) * v + back


def flowed_observation_gram(problem, v):
    grid, horizon = problem.grid, problem.horizon
    acc = np.zeros_like(v)
    for tau, region in problem.impulses:
        fwd = propagate_values(grid, v, tau - horizon)
        acc += propagate_values(grid, region.indicator(grid) * fwd, horizon - tau)
    return acc


def flow_reachability(problem):
    grid, horizon = problem.grid, problem.horizon
    mask = problem.reach_region.indicator(grid)
    return (lambda v: mask * propagate_values(grid, v, -horizon),
            lambda v: propagate_values(grid, mask * v, horizon))


@pytest.mark.parametrize("dim", list(GRIDS))
@pytest.mark.parametrize("s, t", [(0.0, 1.0), (0.5, 2.25)])
def test_gramian_matches_flow(dim, s, t):
    grid = GRIDS[dim]
    region_a = ball_complement(0.0, 2.0, dim=grid.dim)
    region_b = ball_complement(0.0, 3.0, dim=grid.dim)
    apply_g = reference_gramian(grid, s, t, region_a, region_b)
    v = random_values(grid)
    for values in (v, v.real):
        assert np.array_equal(apply_g(values),
                              flowed_gramian(grid, s, t, region_a, region_b, values))


# two_impulse has one impulse at tau = 0 and one at tau = horizon (the exact
# identity flow); sobolev_dual_approx has its impulse at horizon / 2
@pytest.mark.parametrize("dim", list(GRIDS))
@pytest.mark.parametrize("variant", ["two_impulse", "sobolev_dual_approx"])
def test_observation_gram_matches_flow(dim, variant):
    problem = variant_problem(variant, GRIDS[dim])
    v = random_values(problem.grid)
    assert np.array_equal(problem_operators(problem).observation.gram(v),
                          flowed_observation_gram(problem, v))


@pytest.mark.parametrize("dim", list(GRIDS))
def test_impulse_at_horizon_is_exact_identity(dim):
    problem = variant_problem("two_impulse", GRIDS[dim])
    tau, region = problem.impulses[1]
    assert tau == problem.horizon
    last_only = replace(problem, impulses=((tau, region),))
    v = random_values(problem.grid)
    assert np.array_equal(problem_operators(last_only).observation.gram(v),
                          region.indicator(problem.grid) * v)


@pytest.mark.parametrize("dim", list(GRIDS))
@pytest.mark.parametrize("variant", ["ball_null", "shifted_decay_null"])
def test_reachability_matches_flow(dim, variant):
    problem = variant_problem(variant, GRIDS[dim])
    reach = problem_operators(problem).reach
    v = random_values(problem.grid)
    operators = (lambda v: reach.observe(v)[0], lambda v: reach.observe_star([v]))
    for built, flowed in zip(operators, flow_reachability(problem)):
        assert np.array_equal(built(v), flowed(v))


def test_symbols_built_once_per_operator(monkeypatch):
    calls = []
    real = transform.propagator_symbol

    def counted(grid, t):
        calls.append(t)
        return real(grid, t)

    monkeypatch.setattr(transform, "propagator_symbol", counted)
    grid = GRIDS["1d"]
    region = ball_complement(0.0, 2.0, dim=1)
    operators = [reference_gramian(grid, 0.0, 1.0, region, region)]
    for variant in ("two_impulse", "sobolev_dual_approx", "shifted_decay_null",
                    "ball_null"):
        ops = problem_operators(variant_problem(variant, grid))
        operators.extend([ops.observation.gram, ops.weight, ops.normal(1.0),
                          lambda v, ops=ops: ops.reach.observe(v)[0],
                          lambda v, ops=ops: ops.reach.observe_star([v]),
                          lambda v, ops=ops: ops.observation.observe_star(
                              ops.observation.observe(v))])
        if ops.precondition(1.0) is not None:
            operators.append(ops.precondition(1.0))
    built = len(calls)
    # flow_observation builds 1 per term at a nonzero time (the backward
    # symbol is its conjugate), so each Gram operator here costs 1 (the
    # gramian's M_A term is at time 0, two_impulse's second impulse at the
    # horizon), and O, O* share it; the null-control reach maps of
    # shifted_decay_null and ball_null add 1 each, the exact control reach
    # maps (at time 0) none
    assert built == 5 + 2
    v = random_values(grid)
    for _ in range(10):
        for apply in operators:
            apply(v)
    assert len(calls) == built
