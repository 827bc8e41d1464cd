"""Acceptance suite: every exit criterion at its stated tolerance.

Each test prints one PASS/FAIL line (run with -s to see them inline).
Criteria and tolerances are pinned here; nothing is deferred to later
calibration.
"""

import numpy as np

from schrodlab.control import (VARIANTS, calibrate_observation_weight,
                               cost_scaling_study, problem_operators,
                               solve_control, variant_problem)
from schrodlab.counterexamples import SequenceSpec, decay_study
from schrodlab.field import (Field, ball, ball_complement, dot, gaussian_state,
                             l2_norm, make_grid)
from schrodlab.fitting import affine_fit
from schrodlab.inequalities import (empirical_constant, equivalence_bridge_check,
                                    euler_bound, euler_integral,
                                    extremal_bandlimited_concentration,
                                    bandlimited_sample,
                                    moment_check_34, smallest_euler_constant,
                                    spectral_inequality_report)
from schrodlab.transform import (bandlimited_interpolate, dft, fresnel_map,
                                 gaussian_oracle, idft, propagate)

from reference import dense_gramian


def report(number: int, name: str, passed: bool, detail: str = ""):
    status = "PASS" if passed else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE {number:2d} {status}: {name}{suffix}")
    assert passed, f"criterion {number} failed: {name}{suffix}"


def random_field(grid, rng):
    return Field(grid, rng.standard_normal(grid.node_count)
                 + 1j * rng.standard_normal(grid.node_count))


def smooth_sample(grid, seed):
    rng = np.random.default_rng(seed)
    coeffs = rng.standard_normal(6) + 1j * rng.standard_normal(6)
    x = grid.coords()[0]
    values = sum(c * (x / 5.0) ** p for p, c in enumerate(coeffs)) \
        * np.exp(-x ** 2 / 2.0)
    f = Field(grid, values)
    return Field(grid, f.values / l2_norm(f))


def test_criterion_1_transform_correctness():
    rng = np.random.default_rng(101)
    grid = make_grid(1, 15.0, 512)
    worst_parseval, worst_round_trip = 0.0, 0.0
    for _ in range(200):
        f = random_field(grid, rng)
        spectrum = dft(f)
        worst_parseval = max(worst_parseval,
                             abs(l2_norm(spectrum) - l2_norm(f)) / l2_norm(f))
        back = idft(spectrum)
        worst_round_trip = max(worst_round_trip,
                               np.abs(back.values - f.values).max()
                               / np.abs(f.values).max())
    report(1, "transform correctness",
           worst_parseval <= 1e-12 and worst_round_trip <= 1e-13,
           f"parseval {worst_parseval:.2e}, round trip {worst_round_trip:.2e}")


def test_criterion_2_conservation_law():
    rng = np.random.default_rng(102)
    grid = make_grid(1, 15.0, 512)
    worst = 0.0
    for _ in range(50):
        u0 = random_field(grid, rng)
        for t in (0.1, 1.0, 10.0):
            drift = abs(l2_norm(propagate(u0, t)) - l2_norm(u0)) / l2_norm(u0)
            worst = max(worst, drift)
    report(2, "conservation law", worst <= 1e-12, f"max drift {worst:.2e}")


def test_criterion_3_fresnel_identity():
    grid = make_grid(1, 40.0, 2048)
    u0 = gaussian_state(grid)
    out = fresnel_map(u0, 1.0)
    oracle_err = float(np.abs(out.values
                              - gaussian_oracle(out.grid, 1.0).values).max())
    spectral = propagate(u0, 1.0)
    pts = out.grid.axis_nodes()
    inside = np.abs(pts) <= 38.0
    interp = bandlimited_interpolate(spectral, pts[inside])
    spectral_err = float(np.abs(out.values[inside] - interp).max())
    report(3, "chirp/rescale identity",
           oracle_err <= 1e-6 and spectral_err <= 1e-5,
           f"vs oracle {oracle_err:.2e}, vs spectral {spectral_err:.2e}")


def test_criterion_4_equivalence_bridge():
    base = make_grid(1, 20.0, 1024)
    fine = make_grid(1, 40.0, 2048)
    region = ball_complement(0.0, 1.0)
    freq_ball = ball(0.0, 6.0)
    residuals = {}
    for grid in (base, fine):
        residuals[grid] = [
            equivalence_bridge_check(smooth_sample(grid, 1000 + 31 * j),
                                     region, freq_ball, 1.0).bridge_residual
            for j in range(20)]
    worst_base = max(residuals[base])
    worst_fine = max(residuals[fine])
    report(4, "uncertainty/observability bridge",
           worst_base <= 1e-8 and worst_fine <= worst_base / 2.0,
           f"base {worst_base:.2e}, refined {worst_fine:.2e}")


def test_criterion_5_empirical_observability_constant():
    # lattice-block eigenvalue vs dense eigendecomposition of the
    # matrix-free Gramian at M = 256
    grid_small = make_grid(1, 20.0, 256)
    region = ball_complement(0.0, 2.0)
    block = empirical_constant(0.0, 1.0, region, region, grid_small)
    dense = dense_gramian(grid_small, 0.0, 1.0, region, region)
    lam_dense = float(np.linalg.eigvalsh(dense)[0])
    agreement = abs(block.lambda_min - lam_dense)

    # exponential-in-1/gap growth of the constant
    grid = make_grid(1, 20.0, 512)
    gaps = [0.25, 0.5, 1.0, 2.0]
    constants = [empirical_constant(0.0, gap, region, region, grid).constant
                 for gap in gaps]
    fit = affine_fit([1.0 / g for g in gaps], list(np.log(constants)))
    report(5, "empirical observability constant",
           agreement <= 1e-8 and fit.r_squared >= 0.9,
           f"dense agreement {agreement:.2e}, fit R^2 {fit.r_squared:.4f}")


def test_criterion_6_counterexample_rates():
    grid = make_grid(1, 15.0, 4096)
    ks = [1, 2, 4, 8, 16, 32]

    concentrating = decay_study(SequenceSpec("concentrating"), grid, ks)
    slope = concentrating.fits["terminal_inside"].slope
    slope_ok = abs(slope + 1.0) <= 0.3

    modulated = decay_study(SequenceSpec("modulated"), grid, [0] + ks)
    inside = [row["terminal_inside"] for row in modulated.rows]
    weighted = [row["weighted"] for row in modulated.rows]
    modulated_ok = (inside[-1] <= 1e-6 * inside[0]
                    and all(abs(w - weighted[0]) <= 0.01 * weighted[0]
                            for w in weighted))

    reversed_spec = SequenceSpec("time_reversed", x_dprime=0.0, r1=1.0, r2=2.0,
                                 s1=0.5, s2=0.5)
    time_reversed = decay_study(reversed_spec, grid, ks)
    outside = [row["outside_at_s1"] for row in time_reversed.rows]
    integral = [row["time_integral_inside"] for row in time_reversed.rows]
    reversed_ok = (all(b < a for a, b in zip(outside, outside[1:]))
                   and all(b < a for a, b in zip(integral, integral[1:])))

    report(6, "counterexample decay rates",
           slope_ok and modulated_ok and reversed_ok,
           f"slope {slope:.3f}, modulated escape {inside[-1] / inside[0]:.1e}, "
           f"monotone {reversed_ok}")


def test_criterion_7_control_duality():
    rng = np.random.default_rng(107)
    failures = []
    adjoint_worst = 0.0
    for name in VARIANTS:  # one rng across the variants: keep their order
        problem = variant_problem(name)
        grid = problem.grid
        obs = problem_operators(problem).observation
        for _ in range(100 if name == "two_impulse" else 10):
            z = random_field(grid, rng)
            hs = [random_field(grid, rng) for _ in problem.impulses]
            lhs = sum(dot(Field(grid, o), h) for o, h in zip(obs.observe(z.values), hs))
            rhs = dot(z, Field(grid, obs.observe_star([h.values for h in hs])))
            scale = l2_norm(z) * np.sqrt(sum(l2_norm(h) ** 2 for h in hs))
            adjoint_worst = max(adjoint_worst, abs(lhs - rhs) / scale)

        problem = calibrate_observation_weight(problem)
        solution = solve_control(problem, tol=1e-10)
        if not (solution.cg.converged and solution.cg.relative_residual <= 1e-10):
            failures.append(f"{name}: cg residual {solution.cg.relative_residual:.1e}")
        if solution.bound_lhs > solution.datum_norm_sq * (1.0 + 1e-9):
            failures.append(f"{name}: budget bound violated")
        if name == "two_impulse":
            rel_err = solution.terminal_error_l2 / np.sqrt(solution.datum_norm_sq)
            if rel_err > 1e-3:
                failures.append(f"{name}: terminal error {rel_err:.1e}")

    report(7, "control duality and budget bound",
           adjoint_worst <= 1e-12 and not failures,
           f"adjoint {adjoint_worst:.1e}" + ("; " + "; ".join(failures)
                                             if failures else ""))


def test_criterion_8_cost_scaling():
    grid = make_grid(1, 20.0, 256)
    u0 = gaussian_state(grid, sigma=0.8)
    study = cost_scaling_study(grid, u0, [0.25, 0.5, 1.0, 2.0], 2.0,
                               eps0=1e-6, error_target=1e-3, fixed_gap=0.5,
                               tol=1e-8)
    doubling_ok = (len(study.doubling_rows) == 2
                   and study.doubling_rows[1]["normalized_cost"]
                   > study.doubling_rows[0]["normalized_cost"])
    report(8, "control cost scaling",
           study.excluded == 0 and study.fit.r_squared >= 0.9 and doubling_ok,
           f"fit R^2 {study.fit.r_squared:.4f}, doubling increase {doubling_ok}")


def test_criterion_9_spectral_inequality():
    grid = make_grid(1, 10.0, 512)
    rows = []
    all_ge_one = True
    for r in (0.5, 1.0, 2.0):
        for band in (1.0, 2.0, 4.0, 8.0):
            ratios = []
            for j in range(50):
                f = bandlimited_sample(grid, band, seed=900 + 7919 * j)
                ratios.append(spectral_inequality_report(f, r, band).quotient)
            all_ge_one &= min(ratios) >= 1.0
            extremal = extremal_bandlimited_concentration(grid, r, band)
            ratios.append(spectral_inequality_report(extremal, r, band).quotient)
            rows.append((r * band, float(np.log(max(ratios)))))
    fit = affine_fit([x for x, _ in rows], [y for _, y in rows])
    report(9, "spectral inequality",
           all_ge_one and fit.slope > 0 and fit.r_squared >= 0.8,
           f"600 ratios >= 1: {all_ge_one}, slope {fit.slope:.3f}, "
           f"R^2 {fit.r_squared:.4f}")


def test_criterion_10_moments_and_euler_bound():
    # Gaussian closed-form second moment
    grid = make_grid(1, 40.0, 2048)
    u0 = gaussian_state(grid)
    moment_err = max(
        abs(moment_check_34(u0, t, 1).lhs
            - 0.5 * (1.0 + 4.0 * t * t) * np.sqrt(np.pi))
        for t in (0.0, 0.5, 1.0))

    # growth slopes within the (1+T)^{2k} budget
    wide_grid = make_grid(1, 80.0, 2048)
    wide = gaussian_state(wide_grid, sigma=2.0)
    slopes_ok = True
    slopes = {}
    for k in (1, 2):
        times = [1.0, 2.0, 4.0, 8.0, 16.0]
        fit = affine_fit(np.log1p(times),
                         np.log([moment_check_34(wide, t, k).lhs for t in times]))
        slopes[k] = fit.slope
        slopes_ok &= fit.slope <= 2 * k + 0.1

    # Euler-integral bound
    integral_exact = euler_integral(1.0, (1,))
    cases = []
    for a in (0.5, 1.0, 2.0):
        cases += [(a, (b,)) for b in range(5)]
        cases += [(a, (b1, b2)) for b1 in range(5) for b2 in range(5)
                  if b1 + b2 <= 4]
    constant = smallest_euler_constant(cases)
    bound_holds = all(
        euler_bound(a, beta, constant)
        >= euler_integral(a, beta) * (1.0 - 1e-12)
        for a, beta in cases)

    report(10, "moment propagation and Euler bound",
           moment_err <= 1e-6 and slopes_ok and integral_exact == 4.0
           and bound_holds,
           f"moment err {moment_err:.1e}, slopes {slopes[1]:.2f}/{slopes[2]:.2f}, "
           f"Gamma(3) integral {integral_exact}, bound holds {bound_holds}")
