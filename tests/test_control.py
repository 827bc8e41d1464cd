"""Impulse-control duality: exact adjoints, the budget bound, variants."""

import json
from dataclasses import replace

import numpy as np
import pytest

from schrodlab import cli, control, transform
from schrodlab.cli import main
from schrodlab.control import (VARIANTS, ErrorNorm, ImpulseProblem,
                               calibrate_observation_weight, cost_scaling_study,
                               datum_field, low_rank_form, problem_operators,
                               simulate_forward, solve_control, variant_problem)
from schrodlab.field import (Field, Region, Weight, dot, gaussian_state, l2_norm,
                             make_grid, whole_space)
from schrodlab.solvers import lanczos_smallest
from schrodlab.transform import propagate

GRID = make_grid(1, 20.0, 256)  # the two_impulse default grid

STRUCTURED = ["two_impulse", "complement_approx", "ball_null", "band_restricted",
              "shifted_decay_null"]  # normal operators of the form D + Y S Y*
STRUCTURED_MARGIN = STRUCTURED[:4]
LANCZOS_MARGIN = ["shifted_decay_null", "sobolev_dual_approx"]


def observability_margin(problem, c0):
    """Smallest eigenvalue of the unscaled margin C0 O*O + eps0 W - R* V R on
    Z, by Lanczos to 1e-8: the reference every calibration route must meet."""
    apply_h = problem_operators(problem).margin(c0)
    return lanczos_smallest(apply_h, problem.grid.node_count, tol=1e-8)


def calibrated_solve(problem, **kwargs):
    """Build the operators once, calibrate C0 on them and solve at it."""
    ops = problem_operators(problem)
    return solve_control(ops, calibrate_observation_weight(ops), **kwargs)


def dense_on_z(apply, nodes, size):
    """The matrix of `apply` restricted to the Z nodes, column by column."""
    columns = []
    for j in nodes:
        unit = np.zeros(size, dtype=np.complex128)
        unit[j] = 1.0
        columns.append(apply(unit)[nodes])
    return np.array(columns).T


def random_field(grid, rng):
    return Field(grid, rng.standard_normal(grid.node_count)
                 + 1j * rng.standard_normal(grid.node_count))


class TestValidation:
    def test_impulse_times(self):
        region = whole_space()
        u0 = gaussian_state(GRID)
        with pytest.raises(ValueError):
            ImpulseProblem(GRID, 1.0, ((1.5, region),), u0, u0, 1e-4,
                           ErrorNorm("l2"))
        with pytest.raises(ValueError):
            ImpulseProblem(GRID, 1.0, ((0.5, region), (0.5, region)), u0, u0,
                           1e-4, ErrorNorm("l2"))

    def test_variant_combinations(self):
        with pytest.raises(ValueError):
            ErrorNorm("dual_weighted", amplitude=0.0)
        with pytest.raises(ValueError):
            ErrorNorm("nonsense")


class TestAdjoints:
    def test_observation_control_adjoint(self):
        rng = np.random.default_rng(0)
        problem = variant_problem("two_impulse")
        obs = problem_operators(problem).observation
        for _ in range(100):
            z = random_field(GRID, rng)
            hs = [random_field(GRID, rng) for _ in problem.impulses]
            lhs = sum(dot(Field(GRID, o), h) for o, h in zip(obs.observe(z.values), hs))
            rhs = dot(z, Field(GRID, obs.observe_star([h.values for h in hs])))
            scale = l2_norm(z) * np.sqrt(sum(l2_norm(h) ** 2 for h in hs))
            assert abs(lhs - rhs) <= 1e-12 * scale

    def test_observe_star_needs_one_array_per_impulse(self):
        problem = variant_problem("two_impulse")
        observe_star = problem_operators(problem).observation.observe_star
        h = np.ones(GRID.node_count, dtype=complex)
        for count in (1, 3):
            with pytest.raises(ValueError, match="one array per term"):
                observe_star([h] * count)

    def test_observation_linear(self):
        rng = np.random.default_rng(1)
        observe = problem_operators(variant_problem("two_impulse")).observation.observe
        z1, z2 = random_field(GRID, rng), random_field(GRID, rng)
        c = 0.7 - 1.3j
        combined = observe(z1.values + c * z2.values)
        parts = [a + c * b for a, b in zip(observe(z1.values), observe(z2.values))]
        for lhs, rhs in zip(combined, parts):
            assert np.abs(lhs - rhs).max() <= 1e-12 * np.abs(rhs).max()

    def test_observation_terminal_identity(self):
        problem = ImpulseProblem(GRID, 1.0, ((1.0, whole_space()),),
                                 gaussian_state(GRID), gaussian_state(GRID), 1e-4,
                                 ErrorNorm("l2"))
        rng = np.random.default_rng(2)
        z = random_field(GRID, rng)
        obs = problem_operators(problem).observation.observe(z.values)[0]
        assert np.array_equal(obs, z.values)

    @pytest.mark.parametrize("name", ["two_impulse", "band_restricted",
                                      "ball_null", "shifted_decay_null"])
    def test_reachability_adjoint(self, name):
        problem = variant_problem(name)
        grid = problem.grid
        rng = np.random.default_rng(3)
        reach = problem_operators(problem).reach
        # exact control with a reach region has R the inclusion of Z; its
        # adjoint identity lives on fields supported in the reach region
        subspace = problem.reach_region.indicator(grid) \
            if problem.target is not None else None
        for _ in range(20):
            z = random_field(grid, rng)
            if subspace is not None:
                z = Field(grid, subspace * z.values)
            f = random_field(grid, rng)
            lhs = dot(Field(grid, reach.observe(z.values)[0]), f)
            rhs = dot(z, Field(grid, reach.observe_star([f.values])))
            assert abs(lhs - rhs) <= 1e-12 * l2_norm(z) * l2_norm(f)


class TestSolve:
    def test_zero_datum_gives_zero_controls(self):
        u0 = gaussian_state(GRID)
        problem = ImpulseProblem(GRID, 1.0, ((0.0, whole_space()),), u0,
                                 propagate(u0, 1.0), 1e-4, ErrorNorm("l2"))
        solution = solve_control(problem_operators(problem), 1.0)
        assert solution.cost <= 1e-25
        assert solution.terminal_error <= 1e-13

    def test_closed_form_single_impulse(self):
        problem = ImpulseProblem(GRID, 1.0, ((0.0, whole_space()),),
                                 gaussian_state(GRID), gaussian_state(GRID, center=1.0),
                                 1e-4, ErrorNorm("l2"))
        ops = problem_operators(problem)
        solution = solve_control(ops, 3.0, tol=1e-13)
        f = datum_field(ops)
        expected = f.values / (3.0 + 1e-4)  # O*O is the identity here
        assert np.abs(solution.dual_state.values - expected).max() \
            <= 1e-12 * np.abs(expected).max()

    def test_normal_operator_coercive(self):
        rng = np.random.default_rng(4)
        ops = problem_operators(variant_problem("two_impulse", penalty=1e-3))
        apply_w, gram = ops.weight, ops.observation.gram
        for _ in range(20):
            z = rng.standard_normal(GRID.node_count) \
                + 1j * rng.standard_normal(GRID.node_count)
            quad = np.vdot(z, 2.0 * gram(z) + 1e-3 * apply_w(z)).real
            assert quad >= 1e-3 * np.vdot(z, z).real * (1.0 - 1e-12)

    def test_duality_identity(self):
        solution = calibrated_solve(variant_problem("two_impulse"), tol=1e-11)
        assert solution.duality_gap <= 1e-10
        assert solution.optimality_residual <= 1e-10

    def test_budget_bound_and_terminal_error(self):
        solution = calibrated_solve(variant_problem("two_impulse"), tol=1e-10)
        f_norm_sq = solution.datum_norm_sq
        assert solution.bound_lhs <= f_norm_sq * (1.0 + 1e-9)
        assert solution.terminal_error_l2 <= 1e-3 * np.sqrt(f_norm_sq)
        # defect route and simulated field agree for the plain L2 norm
        assert solution.terminal_error == pytest.approx(
            solution.terminal_error_l2, rel=1e-6)

    @pytest.mark.parametrize("variant", list(VARIANTS))
    def test_variant_defaults_bound(self, variant, tmp_path):
        # the CLI exits 3 unless CG converges to its default tol 1e-10, and
        # bound_holds is the budget bound at 1 + 10 tol
        config = tmp_path / "v.cfg"
        config.write_text(f"control.variant = {variant}\n")
        out = tmp_path / "v.csv"
        assert main(["control-solve", "--config", str(config), "--out", str(out),
                     "--seed", "7"]) == 0
        summary = json.loads(out.with_suffix(".json").read_text())
        assert summary["results"]["bound_holds"]

    def test_penalty_tradeoff_monotone(self):
        base = variant_problem("two_impulse")
        c0 = calibrate_observation_weight(problem_operators(base))
        errors = []
        for eps0 in (1e-2, 1e-4, 1e-6):
            ops = problem_operators(replace(base, penalty=eps0))
            errors.append(solve_control(ops, c0, tol=1e-11).terminal_error)
        assert errors[0] >= errors[1] >= errors[2]

    def test_ball_null_masks_initial_state(self):
        problem = variant_problem("ball_null")
        ops = problem_operators(problem)
        solution = solve_control(ops, calibrate_observation_weight(ops))
        # the terminal state is the flow of the masked datum plus controls
        mask = problem.reach_region.indicator(problem.grid)
        masked_u0 = Field(problem.grid, mask * problem.initial_state.values)
        manual = simulate_forward(ops, masked_u0, solution.controls)
        assert np.abs(solution.terminal_state.values - manual.values).max() \
            <= 1e-12


class TestCalibration:
    def test_margin_monotone_in_weight(self):
        problem = variant_problem("two_impulse")
        margins = [observability_margin(problem, c0).eigenvalue
                   for c0 in (1.0, 4.0, 16.0, 64.0)]
        assert all(b >= a - 1e-10 for a, b in zip(margins, margins[1:]))

    def test_calibrated_margin_nonnegative(self):
        problem = variant_problem("two_impulse")
        c0 = calibrate_observation_weight(problem_operators(problem))
        assert observability_margin(problem, c0).eigenvalue >= 0.0

    @pytest.mark.parametrize("name", list(VARIANTS))
    def test_early_stop_keeps_the_calibrated_weight(self, name):
        # calibration decides each candidate by the inertia of a k x k
        # capacitance, from one eigvalsh of Y*Y, or on the congruence-scaled
        # margin stopped once proven negative; doubling on full unscaled
        # margins must land on the same C0
        problem = variant_problem(name)
        c0 = 1.0
        while observability_margin(problem, c0).eigenvalue < 0.0:
            c0 *= 2.0
        assert calibrate_observation_weight(problem_operators(problem)) == 2.0 * c0

    def test_scaled_margin_certifies_sobolev_variant(self, monkeypatch):
        # unscaled, the (1+|xi|^2)^4 multiplier puts a residual floor near
        # eps*||H|| under the accepting margin; the congruence removes it
        solves, tols = [], []

        def recorded(*args, **kwargs):
            tols.append(kwargs["tol"])
            solves.append(lanczos_smallest(*args, **kwargs))
            return solves[-1]

        monkeypatch.setattr(control, "lanczos_smallest", recorded)
        calibrate_observation_weight(
            problem_operators(variant_problem("sobolev_dual_approx")))
        accepting = solves[-1]
        assert accepting.eigenvalue >= 1e3 * accepting.residual
        # S H S ~ H / C0, so candidate C0 = 2^k is solved to the unscaled 1e-8 / C0
        assert tols == [1e-8 / 2.0 ** k for k in range(len(tols))]

    def test_margin_below_its_residual_is_not_accepted(self, monkeypatch):
        # a nonnegative margin that is smaller than its own Ritz residual does
        # not prove the inequality: calibration must double past it
        ops = problem_operators(variant_problem("shifted_decay_null"))
        reference = calibrate_observation_weight(ops)
        spoiled = []

        def uncertain(*args, **kwargs):
            result = lanczos_smallest(*args, **kwargs)
            if result.eigenvalue >= 0.0 and not spoiled:
                spoiled.append(result.eigenvalue)
                return replace(result, residual=2.0 * result.eigenvalue + 1e-6,
                               converged=False)
            return result

        monkeypatch.setattr(control, "lanczos_smallest", uncertain)
        calibrated = calibrate_observation_weight(ops)
        assert len(spoiled) == 1
        assert calibrated == 2.0 * reference

    @pytest.mark.parametrize("experiment, variant, builds, indicators", [
        ("control-solve", "two_impulse", 1, 3),
        ("control-solve", "complement_approx", 1, 2),
        ("control-solve", "ball_null", 1, 2),
        ("control-solve", "band_restricted", 1, 2),
        ("control-solve", "shifted_decay_null", 1, 2),
        ("control-solve", "sobolev_dual_approx", 1, 2),
        ("cost-scaling", None, 6, 18),
    ])
    def test_one_operator_build_per_control_run(self, experiment, variant, builds,
                                                indicators, tmp_path, monkeypatch):
        # calibration and the solve share one build of the operators, and the
        # solve reads every mask off them: the regions are evaluated once,
        # when the operators are built (two per problem and one more for
        # two_impulse's second impulse; cost-scaling solves six problems)
        made, evaluated = [], []

        def counted(problem):
            made.append(problem)
            return problem_operators(problem)

        indicator = Region.indicator

        def counted_indicator(region, grid):
            evaluated.append(region)
            return indicator(region, grid)

        monkeypatch.setattr(control, "problem_operators", counted)
        monkeypatch.setattr(cli, "problem_operators", counted)
        monkeypatch.setattr(Region, "indicator", counted_indicator)
        config = tmp_path / "run.cfg"
        config.write_text("" if variant is None else f"control.variant = {variant}\n")
        assert main([experiment, "--config", str(config),
                     "--out", str(tmp_path / "run.csv")]) == 0
        assert (len(made), len(evaluated)) == (builds, indicators)

    def test_infeasible_penalty_reported(self):
        problem = variant_problem("complement_approx", L=12.0, penalty=1e-6)
        with pytest.raises(RuntimeError, match="observation pattern"):
            calibrate_observation_weight(problem_operators(problem))


class TestStructuredRoute:
    """D + Y S Y* on Z: the Woodbury inverse and the inertia test, checked
    against dense matrices on a small grid."""

    M = 64

    @pytest.mark.parametrize("name", STRUCTURED)
    def test_woodbury_inverts_the_dense_normal_operator(self, name):
        # the penalty is at least 1e-2 so that the dense inverse itself is good
        # to 1e-12: at band_restricted's default 1e-6 the normal operator on Z
        # has condition number near 4e6
        penalty = max(VARIANTS[name]["penalty"], 1e-2)
        ops = problem_operators(variant_problem(name, M=self.M, penalty=penalty))
        form = low_rank_form(ops)
        size = ops.problem.grid.node_count
        dense = dense_on_z(ops.normal(4.0), form.nodes, size)
        woodbury = dense_on_z(form.inverse(4.0), form.nodes, size)
        reference = np.linalg.inv(dense)
        assert np.abs(woodbury - reference).max() <= 1e-12 * np.abs(reference).max()

    @pytest.mark.parametrize("margin", [False, True])
    @pytest.mark.parametrize("name", list(VARIANTS))
    def test_form_reads_its_geometry_off_the_operators(self, name, margin, monkeypatch):
        # low_rank_form evaluates no region, weight or datum density and
        # builds no flow symbol, except the P(0) of an impulse at the horizon
        # (two_impulse's tau2 = T), where the operators hold no symbol
        ops = problem_operators(variant_problem(name))
        calls = []

        def count(owner, attr):
            real = getattr(owner, attr)

            def counted(*args, **kwargs):
                out = real(*args, **kwargs)
                calls.append((attr, args[1:], out))
                return out
            monkeypatch.setattr(owner, attr, counted)

        for owner, attr in ((Region, "indicator"), (Weight, "evaluate"),
                            (transform, "propagator_symbol"),
                            (control, "propagator_symbol")):
            count(owner, attr)
        form = low_rank_form(ops, margin=margin)
        assert (form is None) == (name == "sobolev_dual_approx"
                                  or (margin and name == "shifted_decay_null"))
        made = [(attr, args) for attr, args, _ in calls]
        assert made == ([("propagator_symbol", (0.0,))] if name == "two_impulse" else [])
        if form is None:
            return
        expected = list(ops.observation.backward)
        if margin and ops.problem.target is None:
            expected.append(ops.reach.backward[0])
        assert len(form.terms) == len(expected)
        for (symbol, _), held in zip(form.terms, expected):
            assert symbol is (calls[0][2] if held is None else held)

    @pytest.mark.parametrize("name", STRUCTURED_MARGIN)
    def test_inertia_decision_matches_the_dense_margin(self, name):
        problem = variant_problem(name, M=self.M)
        ops, size = problem_operators(problem), problem.grid.node_count
        form = low_rank_form(ops, margin=True)
        certificate = control._structured_certificate(form)
        decisions = []
        for c0 in 2.0 ** np.arange(11):
            apply_h = ops.margin(c0)
            lowest = np.linalg.eigvalsh(dense_on_z(apply_h, form.nodes, size))[0]
            assert abs(lowest) > 1e-9  # the sign is not a rounding artifact
            assert certificate(c0) == form.positive_definite(c0) == (lowest > 0.0)
            decisions.append(lowest > 0.0)
        assert decisions == sorted(decisions)  # the margin grows with C0

    @pytest.mark.parametrize("name", ["complement_approx", "ball_null"])
    @pytest.mark.parametrize("fraction, accepted", [(0.5, False), (2.0, True)])
    def test_capacitance_eigenvalue_inside_its_floor_is_not_accepted(
            self, name, fraction, accepted, monkeypatch):
        # move the eigenvalue nearest zero to `fraction` of the floor
        # eps * k * max|eigenvalue|, keeping its sign: inside the floor no
        # candidate is certified; outside it the decision is unchanged
        ops = problem_operators(variant_problem(name))
        reference = calibrate_observation_weight(ops)

        def spoiled(matrix):
            values = np.linalg.eigvalsh(matrix)
            floor = np.finfo(float).eps * values.size * np.abs(values).max()
            nearest = np.argmin(np.abs(values))
            values[nearest] = np.sign(values[nearest]) * fraction * floor
            return values

        monkeypatch.setattr(control, "eigvalsh", spoiled)
        if not accepted:
            with pytest.raises(RuntimeError, match="observation pattern"):
                calibrate_observation_weight(ops)
            return
        assert calibrate_observation_weight(ops) == reference

    @pytest.mark.parametrize("fraction, doubled", [(0.5, True), (2.0, False)])
    def test_scalar_route_keeps_its_floor(self, fraction, doubled, monkeypatch):
        # two_impulse accepts C0 once C0 mu_max (1 + eps k) < d(C0); put the
        # top eigenvalue of Y*Y `fraction` floors below the accepted
        # candidate's bound d/C0: inside the floor that candidate is refused
        ops = problem_operators(variant_problem("two_impulse"))
        reference = calibrate_observation_weight(ops)
        form = low_rank_form(ops, margin=True)
        c0 = reference / 2.0
        bound = form.diagonal(c0)[0] / c0

        def spoiled(matrix):
            values = np.linalg.eigvalsh(matrix)
            values[-1] = bound * (1.0 - fraction * np.finfo(float).eps * values.size)
            return values

        monkeypatch.setattr(control, "eigvalsh", spoiled)
        calibrated = calibrate_observation_weight(ops)
        assert calibrated == (2.0 * reference if doubled else reference)

    @pytest.mark.parametrize("name", LANCZOS_MARGIN)
    def test_unstructured_margins_take_the_lanczos_route(self, name, monkeypatch):
        ops = problem_operators(variant_problem(name))
        assert low_rank_form(ops, margin=True) is None
        solves = []

        def recorded(*args, **kwargs):
            solves.append(lanczos_smallest(*args, **kwargs))
            return solves[-1]

        monkeypatch.setattr(control, "lanczos_smallest", recorded)
        calibrate_observation_weight(ops)
        assert solves

    @pytest.mark.parametrize("name", STRUCTURED_MARGIN)
    def test_structured_margins_need_no_lanczos(self, name, monkeypatch):
        monkeypatch.setattr(control, "lanczos_smallest", lambda *a, **k: pytest.fail(
            "a structured margin went to Lanczos"))
        calibrate_observation_weight(problem_operators(variant_problem(name)))

    def test_order_cap_sends_a_problem_to_lanczos(self, monkeypatch):
        ops = problem_operators(variant_problem("two_impulse"))
        reference = calibrate_observation_weight(ops)
        structured = solve_control(ops, reference)
        monkeypatch.setattr(control, "MAX_BLOCK_ORDER", 8)
        assert low_rank_form(ops) is None
        assert low_rank_form(ops, margin=True) is None
        solves = []

        def recorded(*args, **kwargs):
            solves.append(lanczos_smallest(*args, **kwargs))
            return solves[-1]

        monkeypatch.setattr(control, "lanczos_smallest", recorded)
        capped = calibrate_observation_weight(ops)
        assert solves
        assert capped == reference
        unstructured = solve_control(ops, capped)
        assert unstructured.cg.iterations > structured.cg.iterations
        assert unstructured.cost == pytest.approx(structured.cost, rel=1e-8)

    @pytest.mark.parametrize("norm", [ErrorNorm("l2"), ErrorNorm("dual_weighted", 1.0)])
    def test_whole_space_observation_has_rank_zero(self, norm):
        # observing everywhere leaves no ball nodes: D alone decides, and the
        # calibrated C0 is the one doubling on the Lanczos margin gives
        grid = make_grid(1, 20.0, self.M)
        problem = ImpulseProblem(grid, 1.0, ((0.0, whole_space()),),
                                 gaussian_state(grid), gaussian_state(grid, center=1.0),
                                 0.1, norm)
        ops = problem_operators(problem)
        assert low_rank_form(ops, margin=True).terms == ()
        c0 = 1.0
        while observability_margin(problem, c0).eigenvalue < 0.0:
            c0 *= 2.0
        calibrated = calibrate_observation_weight(ops)
        assert calibrated == 2.0 * c0
        assert solve_control(ops, calibrated).cg.iterations == 1

    @pytest.mark.parametrize("name", STRUCTURED)
    def test_structured_cg_takes_at_most_two_iterations(self, name):
        solution = calibrated_solve(variant_problem(name))
        assert solution.cg.converged and solution.cg.iterations <= 2
        assert solution.optimality_residual <= 1e-12


def test_cost_scaling_study_shape():
    grid = make_grid(1, 20.0, 256)
    u0 = gaussian_state(grid, sigma=0.8)
    study = cost_scaling_study(grid, u0, [0.5, 1.0, 2.0], 2.0,
                               eps0=1e-6, error_target=1e-3, fixed_gap=0.5,
                               tol=1e-8)
    assert study.excluded == 0
    assert study.fit.r_squared >= 0.9
    costs = [row["normalized_cost"] for row in study.rows]
    assert costs[0] > costs[1] > costs[2]  # shrinking gap raises the cost
    assert study.doubling_rows[1]["normalized_cost"] \
        > study.doubling_rows[0]["normalized_cost"]
