"""Impulse-control synthesis by penalized duality.

One parametrized quadratic solve covers the six controlled-equation variants:
two-impulse exact control, one-impulse approximate control with an
exponentially weighted terminal error, null control from ball-supported data,
exact control on a bounded ball, null control measured against a shifted
decay weight, and approximate control in the Sobolev-augmented dual norm.

The dual functional J(z) = (C0/2)||Oz||^2 + (eps0/2)<Wz, z> - Re<f, Rz> is
minimized by conjugate gradients on its normal equations

    (C0 O*O + eps0 W) z* = R* f        (projected onto Z when Z is a subspace)

where every adjoint is the exact discrete adjoint for the lattice L2 pairing;
this exactness is the single contract that makes the duality constructive.
With y* = C0 O z* the controls satisfy R*f - O*y* = eps0 W z*, and

    cost/C0 + error^2/eps0 = Re<f, R z*> <= ||f||_X* ||R z*||_X,

so the budget bound cost/C0 + error^2/eps0 <= ||f||_X*^2 holds exactly when
the *discrete* observability inequality ||Rz||_X^2 <= C0||Oz||^2 + eps0<Wz,z>
does; `calibrate_observation_weight` finds such a C0 by a matrix-free
eigenvalue check instead of trusting the continuum constants.  By Sylvester's
law of inertia it decides the sign of the margin H on S H S, S the square root
of CG's preconditioner, to Lanczos tol 1e-8/C0; for l2 exact control with an
unweighted datum S H S is O*O shifted by -(1 - eps0)/C0, so one O*O solve
scores every candidate C0.

Jump convention: the impulse delta(t - tau) chi_w h advances the state by
u(tau+) = u(tau-) - i chi_w h (constant kappa = -i).  The source equation
never fixes this sign; it only sets the physical reading of h, because the
duality is closed by exact adjoints.  The returned controls are the physical
ones, i.e. kappa^{-1} times the duality controls y*.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from .field import (Field, Grid, Region, Weight, ball, ball_complement,
                    gaussian_state, l2_norm, make_grid, weighted_energy_flagged,
                    whole_space, zero_field)
from .fitting import FitResult, affine_fit
from .solvers import (CGResult, LanczosResult, Operator, conjugate_gradient,
                      lanczos_smallest)
from .transform import (fft_symbol, flow_observation, propagate_values,
                        spectral_multiply)

IMPULSE_JUMP = -1j

ERROR_NORMS = ("l2", "dual_weighted", "sobolev_dual")


@dataclass(frozen=True)
class ErrorNorm:
    """Terminal-error norm, i.e. the dual norm of the dual-state space Z."""

    kind: str
    amplitude: float = 0.0  # a of the e^{a|x|} weight (dual_weighted, sobolev_dual)

    def __post_init__(self):
        if self.kind not in ERROR_NORMS:
            raise ValueError(f"unknown error norm {self.kind!r}")
        if self.kind in ("dual_weighted", "sobolev_dual") and not self.amplitude > 0:
            raise ValueError(f"error norm {self.kind!r} needs a positive amplitude")


@dataclass(frozen=True)
class ImpulseProblem:
    """One impulse-control problem; its variant is read off two fields.

    `target` set is exact control (datum u_T - flow(u0), reach map the
    identity); `target` None is null control (datum u0, reach map the
    backward flow to time 0).  `reach_region` restricts either one: exact
    control to L2(region), with Z projected onto it, and null control to
    data supported in the region; the whole space restricts nothing."""

    grid: Grid
    horizon: float
    impulses: Tuple[Tuple[float, Region], ...]
    initial_state: Field
    target: Optional[Field]     # None for null control
    penalty: float              # eps0
    observation_weight: float   # C0
    error_norm: ErrorNorm
    reach_region: Region = whole_space()
    datum_weight: Optional[Weight] = None  # X*-side density for the budget norm

    def __post_init__(self):
        if not self.horizon > 0:
            raise ValueError("horizon must be positive")
        if not self.penalty > 0 or not self.observation_weight > 0:
            raise ValueError("penalty and observation weight must be positive")
        if not self.impulses:
            raise ValueError("at least one impulse is required")
        times = [tau for tau, _ in self.impulses]
        if any(not 0.0 <= tau <= self.horizon for tau in times):
            raise ValueError("impulse times must lie in [0, horizon]")
        if any(t2 <= t1 for t1, t2 in zip(times, times[1:])):
            raise ValueError("impulse times must be strictly increasing")


# ---------------------------------------------------------------------------
# the six variants: one table of defaults, one builder

_SHARED_DEFAULTS = {"L": 20.0, "M": 256, "penalty": 1e-6, "sigma": 1.0,
                    "target_shift": 1.0, "T": 1.0, "r1": 2.0, "r2": 2.0, "a": 1.0}

# Each variant's defaults are values at which calibrate_observation_weight
# finds an admissible C0: the weighted-norm variants have a penalty floor on a
# truncated box, so they need a larger penalty or a smaller box `L`.  `L` and
# `M` size the default 1D grid; impulse times left at None follow `T`
# (tau2 = T, tau = T/2).
VARIANTS: Dict[str, Dict[str, Optional[float]]] = {
    name: {**_SHARED_DEFAULTS, **own} for name, own in (
        ("two_impulse", {"tau1": 0.0, "tau2": None}),
        ("complement_approx", {"penalty": 0.3}),
        ("ball_null", {"L": 12.0, "penalty": 0.1, "r2": 3.0}),
        ("band_restricted", {"N": 5.0}),
        ("shifted_decay_null", {"L": 12.0, "penalty": 0.1, "b": 0.5}),
        ("sobolev_dual_approx", {"L": 12.0, "penalty": 0.01, "tau": None}),
    )
}


def variant_problem(name: str, grid: Optional[Grid] = None, **params) -> ImpulseProblem:
    """The control problem of variant `name` at its VARIANTS defaults, each
    overridden by `params`; C0 is 1 until calibrated.

    Initial state and target are Gaussians of width `sigma`, the target
    centred at `target_shift`; `grid` defaults to the 1D grid of `L`, `M`."""
    if name not in VARIANTS:
        raise ValueError(f"unknown control variant {name!r}")
    unknown = sorted(set(params) - set(VARIANTS[name]))
    if unknown:
        raise ValueError(f"variant {name!r} has no parameters {unknown}")
    p = {**VARIANTS[name], **params}
    if grid is None:
        grid = make_grid(1, p["L"], p["M"])
    dim, horizon, eps0 = grid.dim, p["T"], p["penalty"]
    u0 = gaussian_state(grid, p["sigma"])
    target = gaussian_state(grid, p["sigma"], center=p["target_shift"])
    inside_r1 = ball(0.0, p["r1"], dim=dim)
    outside_r1 = ball_complement(0.0, p["r1"], dim=dim)
    if name == "two_impulse":
        tau2 = horizon if p["tau2"] is None else p["tau2"]
        impulses = ((p["tau1"], outside_r1),
                    (tau2, ball_complement(0.0, p["r2"], dim=dim)))
        return ImpulseProblem(grid, horizon, impulses, u0, target, eps0, 1.0,
                              ErrorNorm("l2"))
    if name == "band_restricted":
        return ImpulseProblem(grid, horizon, ((0.0, outside_r1),), u0, target,
                              eps0, 1.0, ErrorNorm("l2"),
                              reach_region=ball(0.0, p["N"], dim=dim))
    if name == "sobolev_dual_approx":
        tau = horizon / 2.0 if p["tau"] is None else p["tau"]
        return ImpulseProblem(grid, horizon, ((tau, inside_r1),), u0, target,
                              eps0, 1.0, ErrorNorm("sobolev_dual", amplitude=p["a"]))
    weighted = ErrorNorm("dual_weighted", amplitude=p["a"])
    if name == "complement_approx":
        return ImpulseProblem(grid, horizon, ((0.0, outside_r1),), u0, target,
                              eps0, 1.0, weighted)
    if name == "ball_null":
        return ImpulseProblem(grid, horizon, ((0.0, inside_r1),), u0, None, eps0,
                              1.0, weighted, reach_region=ball(0.0, p["r2"], dim=dim))
    decay = Weight(p["b"], "grow", center=(p["target_shift"],) * dim)
    return ImpulseProblem(grid, horizon, ((0.0, inside_r1),), u0, None, eps0, 1.0,
                          weighted, datum_weight=decay)


# ---------------------------------------------------------------------------
# the Z geometry: the pieces of the weight operator W


def _sobolev_symbol(grid: Grid, power: float = 1.0) -> np.ndarray:
    """(1+|xi|^2)^{power * (n+3)} in FFT order, for spectral_multiply; n + 3 is
    the Sobolev order of the augmented prior in estimate (1.6)."""
    order = grid.dim + 3
    return fft_symbol(grid, (1.0 + grid.dual().radius_sq()) ** (power * order))


def _quad(values: np.ndarray, applied: np.ndarray, grid: Grid) -> float:
    return float(np.vdot(applied, values).real * grid.spacing ** grid.dim)


# ---------------------------------------------------------------------------
# the operators of one problem (exact discrete adjoint pairs)


@dataclass(frozen=True)
class ProblemOperators:
    """The matrix-free operators of one control problem, on raw arrays."""

    observe: Callable[[np.ndarray], List[np.ndarray]]           # O, per impulse
    observe_star: Callable[[Sequence[np.ndarray]], np.ndarray]  # O*
    gram: Operator                     # O*O
    weight: Operator                   # W, the Z-norm operator (Hermitian, PD)
    normal: Operator                   # C0 O*O + eps0 W, projected onto Z
    precondition: Optional[Operator]   # approximate inverse of `normal`
    congruence: Operator               # S = (C0 + eps0 Sigma)^{-1/2}, Hermitian PD
    reach: Operator                    # R
    reach_star: Operator               # R*
    projection: np.ndarray             # indicator of Z; all ones when Z is all of L2
    density: np.ndarray                # X*-side datum density; all ones for plain L2


def problem_operators(problem: ImpulseProblem) -> ProblemOperators:
    """Build every operator of the problem once, propagator symbols included.

    O observes the dual state at each impulse, O z = (chi_{w_i} phi(., tau_i;
    T, z))_i, and O* h flows each chi_{w_i} h_i from tau_i to T (the kappa
    factor belongs to the physical simulation, not to the adjoint).  The
    reach map R is one more flow observation: chi_reach P(-T) for null
    control, chi_reach for exact control (the inclusion of Z), with chi_reach
    the indicator of reach_region.

    This is where the error-norm kind picks W: the identity for "l2", the
    capped density e^{a|x|} for "dual_weighted", and that
    density plus the H^{n+3} multiplier (1+|xi|^2)^{n+3} for "sobolev_dual".
    The preconditioner inverts C0 + eps0 Sigma, with Sigma the part of W
    that stretches the spectrum (e^{a|x|} reaches e^{aL}, the Sobolev
    multiplier ~1e12; Sigma = 0 for "l2").  Sigma is diagonal in x (resp.
    xi), so its inverse restores CG's reach to tight residuals; the
    observation part is kept as the constant C0 (its symbol is at most 1 per
    impulse).  The congruence S is the square root of that inverse, which
    calibration wraps around the margin operator."""
    grid = problem.grid
    norm = problem.error_norm
    c0, eps0 = problem.observation_weight, problem.penalty
    observe, observe_star, gram = flow_observation(
        grid, [(tau - problem.horizon, region) for tau, region in problem.impulses])
    exact = problem.target is not None
    projection = (problem.reach_region if exact else whole_space()).indicator(grid)
    reach_observe, reach_observe_star, _ = flow_observation(
        grid, [(0.0 if exact else -problem.horizon, problem.reach_region)])
    if norm.kind == "l2":
        root = c0 ** -0.5
        weight, precondition = (lambda v: v.copy()), None
        congruence = (lambda v: root * v)
    else:
        diag, _ = Weight(norm.amplitude, "grow").evaluate(grid)  # e^{a|x|}, capped
        if norm.kind == "dual_weighted":
            spread = c0 + eps0 * diag
            inv, root = 1.0 / spread, spread ** -0.5
            weight, precondition = (lambda v: diag * v), (lambda v: inv * v)
            congruence = (lambda v: root * v)
        else:  # sobolev_dual: e^{a|x|} 'plus' the H^{n+3} spectral multiplier
            symbol = _sobolev_symbol(grid)
            spread = c0 + eps0 * symbol
            inv, root = 1.0 / spread, spread ** -0.5
            weight = (lambda v: diag * v + spectral_multiply(grid, v, symbol))
            precondition = (lambda v: spectral_multiply(grid, v, inv))
            congruence = (lambda v: spectral_multiply(grid, v, root))
    density = np.ones(grid.node_count) if problem.datum_weight is None \
        else problem.datum_weight.evaluate(grid)[0]

    def normal(v: np.ndarray) -> np.ndarray:
        return projection * (c0 * gram(v) + eps0 * weight(v))

    return ProblemOperators(observe, observe_star, gram, weight, normal, precondition,
                            congruence, lambda v: reach_observe(v)[0],
                            lambda v: reach_observe_star([v]), projection, density)


def datum_field(problem: ImpulseProblem) -> Field:
    """The datum f: u_T - flow(u0) for exact control, the initial state
    masked by the reach region for null control."""
    grid = problem.grid
    if problem.target is not None:
        drift = propagate_values(grid, problem.initial_state.values, problem.horizon)
        return Field(grid, problem.target.values - drift)
    mask = problem.reach_region.indicator(grid)
    return Field(grid, mask * problem.initial_state.values)


def datum_norm_sq(problem: ImpulseProblem, f: Field) -> float:
    """||f||^2 in the X* norm of the variant (weighted for datum_weight)."""
    if problem.datum_weight is None:
        return l2_norm(f) ** 2
    energy, capped = weighted_energy_flagged(f, problem.datum_weight)
    if capped:
        raise ValueError("datum weight overflowed its exponent cap")
    return energy


# ---------------------------------------------------------------------------
# solving


@dataclass
class ControlSolution:
    controls: List[Field]
    dual_state: Field
    terminal_state: Field
    terminal_error: float      # Z* norm, from the optimality defect
    terminal_error_l2: float   # plain L2 norm of the simulated error field
    cost: float                # sum_i ||h_i||^2
    datum_norm_sq: float       # ||f||^2_{X*}
    bound_lhs: float           # cost/C0 + terminal_error^2/eps0
    cg: CGResult
    optimality_residual: float
    duality_gap: float
    diagnostics: Dict[str, float]


def simulate_forward(problem: ImpulseProblem, controls: Sequence[Field]) -> Field:
    """Piecewise free flow with jumps u <- u - i chi_w h_i at each impulse."""
    grid = problem.grid
    state = problem.initial_state.values.copy()
    t = 0.0
    for (tau, region), h in zip(problem.impulses, controls):
        state = propagate_values(grid, state, tau - t)
        state = state + IMPULSE_JUMP * region.indicator(grid) * h.values
        t = tau
    state = propagate_values(grid, state, problem.horizon - t)
    return Field(grid, state)


def solve_control(problem: ImpulseProblem, tol: float = 1e-10,
                  max_iter: int = 5000) -> ControlSolution:
    """Minimize the penalized dual functional and synthesize the controls.

    CG stagnation is reported in the returned `cg.converged` flag, never
    raised; indefiniteness aborts inside the solver (adjoint bug).  All
    budget quantities of the duality lemma are reported, never asserted here.

    Null control steers the datum itself to zero, so the simulation starts
    from it: for ball-supported data that is the initial state restricted to
    the reach region.
    """
    f = datum_field(problem)
    if problem.target is None:
        problem = replace(problem, initial_state=f)
    grid = problem.grid
    h_scale = grid.spacing ** grid.dim
    ops = problem_operators(problem)
    c0, eps0 = problem.observation_weight, problem.penalty

    rhs = ops.reach_star(f.values)  # R* already maps into Z
    cg = conjugate_gradient(ops.normal, rhs, tol=tol, max_iter=max_iter,
                            precondition=ops.precondition)
    z_star = cg.solution

    y_star = [Field(grid, c0 * obs) for obs in ops.observe(z_star)]
    # physical controls: kappa * h = y*  =>  h = kappa^{-1} y*, and the null
    # variants steer against the drift, flipping the sign
    kappa_inv = 1.0 / IMPULSE_JUMP
    sign = 1.0 if problem.target is not None else -1.0
    controls = [Field(grid, sign * kappa_inv * y.values) for y in y_star]

    w_z = ops.weight(z_star)
    quad_w = _quad(z_star, w_z, grid)              # <W z*, z*>
    cost = sum(l2_norm(h) ** 2 for h in controls)
    terminal_error = eps0 * np.sqrt(max(quad_w, 0.0))
    bound_lhs = cost / c0 + terminal_error ** 2 / eps0

    # optimality and duality residuals (relative to ||R* f||)
    rhs_norm = np.linalg.norm(rhs) * np.sqrt(h_scale)
    residual_vec = ops.normal(z_star) - rhs
    optimality = float(np.linalg.norm(residual_vec) * np.sqrt(h_scale)
                       / max(rhs_norm, np.finfo(float).tiny))
    o_star_y = ops.observe_star([y.values for y in y_star])
    defect = rhs - ops.projection * o_star_y
    gap_vec = defect - eps0 * w_z
    duality_gap = float(np.linalg.norm(gap_vec) * np.sqrt(h_scale)
                        / max(rhs_norm, np.finfo(float).tiny))

    terminal_state = simulate_forward(problem, controls)
    goal = problem.target.values if problem.target is not None \
        else np.zeros(grid.node_count, dtype=np.complex128)
    error_field = Field(grid, ops.projection * (goal - terminal_state.values))
    diagnostics = _error_diagnostics(problem, error_field)

    return ControlSolution(
        controls=controls,
        dual_state=Field(grid, z_star),
        terminal_state=terminal_state,
        terminal_error=float(terminal_error),
        terminal_error_l2=l2_norm(error_field),
        cost=float(cost),
        datum_norm_sq=datum_norm_sq(problem, f),
        bound_lhs=float(bound_lhs),
        cg=cg,
        optimality_residual=optimality,
        duality_gap=duality_gap,
        diagnostics=diagnostics,
    )


def _error_diagnostics(problem: ImpulseProblem, error_field: Field) -> Dict[str, float]:
    """Direct dual-norm evaluations of the simulated error field.

    Exact for the diagonal weights; for the Sobolev-augmented norm the dual
    norm is approximated by combining the decay density with the reciprocal
    spectral multiplier (recorded as such; the L2 norm is always alongside)."""
    grid = problem.grid
    norm = problem.error_norm
    out = {"simulated_error_l2": l2_norm(error_field)}
    if norm.kind == "l2":
        out["simulated_error_dual"] = out["simulated_error_l2"]
        return out
    values, key = error_field.values, "simulated_error_dual"
    if norm.kind == "sobolev_dual":
        values = spectral_multiply(grid, values, _sobolev_symbol(grid, -0.5))
        key = "simulated_error_dual_approx"
    energy, _ = weighted_energy_flagged(Field(grid, values),
                                        Weight(norm.amplitude, "decay"))
    out[key] = float(np.sqrt(energy))
    return out


# ---------------------------------------------------------------------------
# calibration of the observation weight


_MAX_DOUBLINGS = 48  # C0 stays below 2^48
_MARGIN_TOL = 1e-8   # absolute Lanczos tolerance on the unscaled margin


def _margin_operator(problem: ImpulseProblem) -> Tuple[Operator, ProblemOperators]:
    """H = C0 O*O + eps0 W - R* V R on the Z subspace, with the operators of
    the problem it is built from."""
    ops = problem_operators(problem)
    projection, density = ops.projection, ops.density
    eps0 = problem.penalty

    def apply_h(v: np.ndarray) -> np.ndarray:
        # the X-norm density for R z is the dual of the datum density; R*
        # already maps into Z, and the directions off Z get the positive
        # placeholder eps0 so they cannot masquerade as the smallest eigenvalue
        zv = projection * v
        return ops.normal(zv) - ops.reach_star(ops.reach(zv) / density) + eps0 * (v - zv)

    return apply_h, ops


def observability_margin(problem: ImpulseProblem, seed: int = 0) -> LanczosResult:
    """Smallest eigenvalue of C0 O*O + eps0 W - R* V R on the Z subspace, as
    the Lanczos pair it came from (an eigenvalue lies within its `residual`).

    Nonnegative margin is exactly the discrete observability inequality at
    the problem's constants, hence the validity of the budget bound."""
    apply_h, _ = _margin_operator(problem)
    return lanczos_smallest(apply_h, problem.grid.node_count, seed=seed,
                            tol=_MARGIN_TOL)


def calibrate_observation_weight(problem: ImpulseProblem, seed: int = 0) -> ImpulseProblem:
    """Return the problem with C0 doubled from 1 until the discrete
    observability inequality holds, then doubled once more for safety.

    Only the sign of the margin H = C0 O*O + eps0 W - R* V R decides, and by
    Sylvester's law of inertia S H S has the sign of H for the Hermitian
    positive-definite congruence S = (C0 + eps0 Sigma)^{-1/2} of
    `problem_operators` (the square root of CG's preconditioner; C0^{-1/2}
    for the l2 norm).  S H S is near the identity scale where H is stretched
    by Sigma, so each candidate is decided on it, with the Lanczos tolerance
    1e-8 / C0 that matches the unscaled 1e-8 (S^2 ~ 1/C0).  When W = I and
    R* V R is the projection onto Z (l2 error norm, exact control, no datum
    weight), S H S is the Z part of O*O shifted by -(1 - eps0)/C0; Krylov
    spaces ignore shifts, so one Lanczos solve on O*O, to the first
    candidate's 1e-8, scores every candidate as lambda - (1 - eps0)/C0 with
    the same residual.

    A candidate is admissible when its (scaled) margin is at least its own
    Ritz residual, so the eigenvalue it approximates is certainly
    nonnegative.  Each scaled margin solve stops once it proves the margin
    negative; a solve whose margin is nonnegative never meets that stop, so
    the accepting solve runs exactly as a full one.
    The margin is nondecreasing in C0, so doubling terminates whenever a
    valid C0 exists below 2^48.  Beyond that the penalty
    is too small for the observation pattern (on a truncated box the hidden
    states have weighted norms capped near e^{aL}, which floors the
    admissible penalty), and the failure is reported rather than forcing an
    ill-conditioned solve."""
    size, eps0 = problem.grid.node_count, problem.penalty
    if (problem.error_norm.kind == "l2" and problem.target is not None
            and problem.datum_weight is None):
        ops = problem_operators(problem)
        z = ops.projection
        # off Z the placeholder 1 exceeds every shift (1 - eps0)/C0 <= 1 - eps0
        gram = lanczos_smallest(lambda v: z * ops.gram(z * v) + (v - z * v), size,
                                seed=seed, tol=_MARGIN_TOL)

        def certified(c0: float) -> bool:
            return gram.eigenvalue - (1.0 - eps0) / c0 >= gram.residual
    else:
        def certified(c0: float) -> bool:
            apply_h, ops = _margin_operator(replace(problem, observation_weight=c0))
            scale = ops.congruence
            margin = lanczos_smallest(lambda v: scale(apply_h(scale(v))), size,
                                      seed=seed, tol=_MARGIN_TOL / c0, stop_below=0.0)
            return margin.eigenvalue >= margin.residual

    c0 = 1.0
    for _ in range(_MAX_DOUBLINGS):
        if certified(c0):
            return replace(problem, observation_weight=2.0 * c0)
        c0 *= 2.0
    raise RuntimeError(
        "no admissible observation weight found below the conditioning cap; "
        "the observation pattern cannot dominate the reach term at this "
        "penalty (raise the penalty or enlarge the box)"
    )


# ---------------------------------------------------------------------------
# cost scaling against the exponential budget


@dataclass
class CostScalingStudy:
    rows: List[Dict[str, float]]
    fit: FitResult
    doubling_rows: List[Dict[str, float]]
    excluded: int


def cost_scaling_study(grid: Grid, u0: Field, gaps: Sequence[float], radius: float,
                       eps0: float, error_target: float, fixed_gap: float,
                       tol: float, seed: int) -> CostScalingStudy:
    """Normalized control cost against r1 r2 / gap for two-impulse problems
    with r1 = r2 = radius, steering u0 to zero.

    Each configuration is calibrated (C0 from the matrix-free margin), solved,
    and kept only if its relative terminal error meets `error_target`; the
    log-cost against r1*r2/gap is fitted affinely.  A doubling block at
    `fixed_gap` records the cost ordering when r1*r2 doubles.
    """
    rows: List[Dict[str, float]] = []
    excluded = 0
    for gap in gaps:
        row = _solve_scaled(grid, u0, gap, radius, radius, eps0, error_target, tol, seed)
        if row is None:
            excluded += 1
            continue
        rows.append(row)
    if len(rows) < 2:
        raise RuntimeError("too few admissible cost samples to fit")
    fit = affine_fit([row["stress"] for row in rows],
                     [np.log(row["normalized_cost"]) for row in rows])
    doubling_rows: List[Dict[str, float]] = []
    for factor in (1.0, np.sqrt(2.0)):
        row = _solve_scaled(grid, u0, fixed_gap, radius * factor, radius * factor,
                            eps0, error_target, tol, seed)
        if row is not None:
            doubling_rows.append(row)
    return CostScalingStudy(rows, fit, doubling_rows, excluded)


def _solve_scaled(grid, u0, gap, r1, r2, eps0, error_target, tol, seed):
    problem = replace(variant_problem("two_impulse", grid, T=gap, r1=r1, r2=r2,
                                      penalty=eps0),
                      initial_state=u0, target=zero_field(grid))
    problem = calibrate_observation_weight(problem, seed=seed)
    solution = solve_control(problem, tol=tol)
    f_norm = np.sqrt(solution.datum_norm_sq)
    if f_norm == 0.0 or not solution.cg.converged:
        return None
    if solution.terminal_error_l2 > error_target * f_norm:
        return None
    return {
        "gap": float(gap),
        "r1": float(r1),
        "r2": float(r2),
        "stress": float(r1 * r2 / gap),
        "normalized_cost": float(solution.cost / f_norm ** 2),
        "observation_weight": float(problem.observation_weight),
        "terminal_error_rel": float(solution.terminal_error_l2 / f_norm),
        "cg_iterations": float(solution.cg.iterations),
    }
