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
eigenvalue check instead of trusting the continuum constants.

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

from .field import (DEFAULT_EXPONENT_CAP, Field, Grid, Region, Weight,
                    ball_complement, l2_norm)
from .fitting import FitResult, affine_fit
from .inequalities import prior_sobolev_order
from .solvers import CGResult, conjugate_gradient, lanczos_smallest
from .transform import fft_symbol, propagate_values, spectral_multiply

IMPULSE_JUMP = -1j

ERROR_NORMS = ("l2", "restricted", "dual_weighted", "shifted_dual_weighted",
               "sobolev_dual")
REACH_KINDS = ("identity", "restricted", "masked_dual", "dual")


@dataclass(frozen=True)
class ErrorNorm:
    """Terminal-error norm, i.e. the dual norm of the dual-state space Z."""

    kind: str
    amplitude: float = 0.0          # a (dual_weighted, sobolev_dual) or b (shifted)
    center: Tuple[float, ...] = ()  # x' for the shifted weight
    sobolev_order: Optional[float] = None  # defaults to prior_sobolev_order(dim)

    def __post_init__(self):
        if self.kind not in ERROR_NORMS:
            raise ValueError(f"unknown error norm {self.kind!r}")
        if self.kind in ("dual_weighted", "shifted_dual_weighted", "sobolev_dual") \
                and not self.amplitude > 0:
            raise ValueError(f"error norm {self.kind!r} needs a positive amplitude")


@dataclass(frozen=True)
class ImpulseProblem:
    grid: Grid
    horizon: float
    impulses: Tuple[Tuple[float, Region], ...]
    initial_state: Field
    target: Optional[Field]     # None for null control
    penalty: float              # eps0
    observation_weight: float   # C0
    error_norm: ErrorNorm
    reach: str = "identity"
    reach_region: Optional[Region] = None  # B_N for restricted, B_{r2}(x'') for masked_dual
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
        if self.reach not in REACH_KINDS:
            raise ValueError(f"unknown reachability variant {self.reach!r}")
        if self.reach in ("restricted", "masked_dual") and self.reach_region is None:
            raise ValueError(f"reach {self.reach!r} needs reach_region")
        if self.error_norm.kind == "restricted" and self.reach != "restricted":
            raise ValueError("the restricted error norm pairs with reach='restricted'")
        if self.target is None and self.reach not in ("masked_dual", "dual"):
            raise ValueError("null-control problems use reach 'masked_dual' or 'dual'")
        if self.target is not None and self.reach in ("masked_dual", "dual"):
            raise ValueError("reach 'masked_dual'/'dual' are null-control variants")


# ---------------------------------------------------------------------------
# the Z geometry: weight operator and subspace projection


def _z_projection(problem: ImpulseProblem) -> Optional[np.ndarray]:
    if problem.error_norm.kind == "restricted":
        return problem.reach_region.indicator(problem.grid)
    return None


def _sobolev_order(norm: ErrorNorm, dim: int) -> float:
    return norm.sobolev_order if norm.sobolev_order is not None \
        else prior_sobolev_order(dim)


def _sobolev_symbol(grid: Grid, norm: ErrorNorm, power: float = 1.0) -> np.ndarray:
    """(1+|xi|^2)^{power * order} in FFT order, for spectral_multiply."""
    order = _sobolev_order(norm, grid.dim)
    return fft_symbol(grid, (1.0 + grid.dual().radius_sq()) ** (power * order))


def _norm_weight(grid: Grid, norm: ErrorNorm, sign: str = "grow") -> np.ndarray:
    """The capped density e^{+-a|x - x'|} of the weighted Z geometries."""
    weight, _ = Weight(norm.amplitude, 1.0, sign, center=norm.center).evaluate(grid)
    return weight


def z_weight_apply(problem: ImpulseProblem) -> Callable[[np.ndarray], np.ndarray]:
    """The Z-norm operator W as a matrix-free callable (Hermitian, PD)."""
    grid = problem.grid
    norm = problem.error_norm
    if norm.kind in ("l2", "restricted"):
        return lambda v: v.copy()
    diag = _norm_weight(grid, norm)
    if norm.kind in ("dual_weighted", "shifted_dual_weighted"):
        return lambda v: diag * v
    # sobolev_dual: e^{a|x|} 'plus' the H^{order} spectral multiplier
    symbol = _sobolev_symbol(grid, norm)
    return lambda v: diag * v + spectral_multiply(grid, v, symbol)


def z_weight_bound(problem: ImpulseProblem) -> float:
    """An upper bound for ||W|| (used to bracket Lanczos spectra)."""
    grid = problem.grid
    norm = problem.error_norm
    if norm.kind in ("l2", "restricted"):
        return 1.0
    reach = grid.half_extent * np.sqrt(grid.dim)
    if norm.center:
        reach += float(np.linalg.norm(norm.center))
    diag_max = float(np.exp(min(norm.amplitude * reach, DEFAULT_EXPONENT_CAP)))
    if norm.kind != "sobolev_dual":
        return diag_max
    return diag_max + (1.0 + grid.dim * grid.nyquist ** 2) ** _sobolev_order(norm, grid.dim)


def _quad(values: np.ndarray, applied: np.ndarray, grid: Grid) -> float:
    return float(np.vdot(applied, values).real * grid.spacing ** grid.dim)


# ---------------------------------------------------------------------------
# observation, control, reachability maps (exact discrete adjoint pairs)


def observation_map(z: Field, problem: ImpulseProblem) -> List[Field]:
    """O z = ( chi_{w_i} phi(., tau_i; T, z) )_i, linear in z."""
    grid = problem.grid
    out = []
    for tau, region in problem.impulses:
        state = propagate_values(grid, z.values, tau - problem.horizon)
        out.append(Field(grid, region.indicator(grid) * state))
    return out


def control_map(h_list: Sequence[Field], problem: ImpulseProblem) -> Field:
    """O* h = sum_i flow of chi_{w_i} h_i from tau_i to T; the exact discrete
    adjoint of observation_map (the kappa factor belongs to the physical
    simulation, not to the adjoint)."""
    if len(h_list) != len(problem.impulses):
        raise ValueError("one control field per impulse is required")
    grid = problem.grid
    acc = np.zeros(grid.node_count, dtype=np.complex128)
    for (tau, region), h in zip(problem.impulses, h_list):
        masked = region.indicator(grid) * h.values
        acc += propagate_values(grid, masked, problem.horizon - tau)
    return Field(grid, acc)


def reachability_map(problem: ImpulseProblem):
    """(R, R*) for the problem's variant, as array-level callables."""
    grid = problem.grid
    horizon = problem.horizon
    if problem.reach == "identity":
        return (lambda v: v.copy()), (lambda v: v.copy())
    if problem.reach == "restricted":
        mask = problem.reach_region.indicator(grid)
        return (lambda v: v.copy()), (lambda v: mask * v)
    if problem.reach == "dual":
        return (lambda v: propagate_values(grid, v, -horizon)), \
               (lambda v: propagate_values(grid, v, horizon))
    mask = problem.reach_region.indicator(grid)
    return (lambda v: mask * propagate_values(grid, v, -horizon)), \
           (lambda v: propagate_values(grid, mask * v, horizon))


def _observation_apply(problem: ImpulseProblem):
    """Matrix-free O*O on raw arrays."""
    grid = problem.grid
    horizon = problem.horizon
    masks = [region.indicator(grid) for _, region in problem.impulses]
    taus = [tau for tau, _ in problem.impulses]

    def apply_gram(v: np.ndarray) -> np.ndarray:
        acc = np.zeros_like(v)
        for tau, mask in zip(taus, masks):
            fwd = propagate_values(grid, v, tau - horizon)
            acc += propagate_values(grid, mask * fwd, horizon - tau)
        return acc

    return apply_gram


def _normal_preconditioner(problem: ImpulseProblem):
    """Approximate inverse of C0 O*O + eps0 W for the weighted Z geometries.

    The penalty weight is what stretches the spectrum (e^{a|x|} reaches
    e^{aL}, the Sobolev multiplier (1+|xi|^2)^{n+3} reaches ~1e12), and it is
    diagonal in x (resp. xi), so a diagonal inverse in the matching domain
    restores CG's reach to tight residuals.  The observation part is kept as
    the constant C0 (its symbol is at most 1 per impulse)."""
    grid = problem.grid
    norm = problem.error_norm
    c0, eps0 = problem.observation_weight, problem.penalty
    if norm.kind in ("l2", "restricted"):
        return None
    if norm.kind in ("dual_weighted", "shifted_dual_weighted"):
        inv = 1.0 / (c0 + eps0 * _norm_weight(grid, norm))
        return lambda v: inv * v
    inv = 1.0 / (c0 + eps0 * _sobolev_symbol(grid, norm))
    return lambda v: spectral_multiply(grid, v, inv)


def datum_field(problem: ImpulseProblem) -> Field:
    """The datum f: u_T - flow(u0) for exact control, the (masked) initial
    state for null control."""
    grid = problem.grid
    if problem.target is not None:
        drift = propagate_values(grid, problem.initial_state.values, problem.horizon)
        return Field(grid, problem.target.values - drift)
    values = problem.initial_state.values
    if problem.reach == "masked_dual":
        values = problem.reach_region.indicator(grid) * values
    return Field(grid, values)


def datum_norm_sq(problem: ImpulseProblem, f: Field) -> float:
    """||f||^2 in the X* norm of the variant (weighted for datum_weight)."""
    if problem.datum_weight is None:
        return l2_norm(f) ** 2
    w, capped = problem.datum_weight.evaluate(problem.grid)
    if capped:
        raise ValueError("datum weight overflowed its exponent cap")
    h = problem.grid.spacing
    return float(np.sum(w * np.abs(f.values) ** 2) * h ** problem.grid.dim)


def _datum_density(problem: ImpulseProblem) -> Optional[np.ndarray]:
    if problem.datum_weight is None:
        return None
    w, _ = problem.datum_weight.evaluate(problem.grid)
    return w


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

    CG stagnation raises through the returned CGResult flag; indefiniteness
    aborts inside the solver (adjoint bug).  All budget quantities of the
    duality lemma are reported, never asserted here.

    Null control from ball-supported data is enforced by masking: the initial
    state is restricted to the reach region before anything else happens.
    """
    if problem.reach == "masked_dual":
        mask = problem.reach_region.indicator(problem.grid)
        problem = replace(problem, initial_state=Field(
            problem.grid, mask * problem.initial_state.values))
    grid = problem.grid
    h_scale = grid.spacing ** grid.dim
    apply_w = z_weight_apply(problem)
    apply_gram = _observation_apply(problem)
    projection = _z_projection(problem)
    apply_r, apply_r_star = reachability_map(problem)
    c0, eps0 = problem.observation_weight, problem.penalty

    def normal_op(v: np.ndarray) -> np.ndarray:
        out = c0 * apply_gram(v) + eps0 * apply_w(v)
        return projection * out if projection is not None else out

    f = datum_field(problem)
    rhs = apply_r_star(f.values)
    if projection is not None:
        rhs = projection * rhs
    cg = conjugate_gradient(normal_op, rhs, tol=tol, max_iter=max_iter,
                            precondition=_normal_preconditioner(problem))
    z_star = cg.solution

    observations = observation_map(Field(grid, z_star), problem)
    y_star = [Field(grid, c0 * obs.values) for obs in observations]
    # physical controls: kappa * h = y*  =>  h = kappa^{-1} y*, and the null
    # variants steer against the drift, flipping the sign
    kappa_inv = 1.0 / IMPULSE_JUMP
    sign = 1.0 if problem.target is not None else -1.0
    controls = [Field(grid, sign * kappa_inv * y.values) for y in y_star]

    w_z = apply_w(z_star)
    quad_w = _quad(z_star, w_z, grid)              # <W z*, z*>
    cost = sum(l2_norm(h) ** 2 for h in controls)
    terminal_error = eps0 * np.sqrt(max(quad_w, 0.0))
    bound_lhs = cost / c0 + terminal_error ** 2 / eps0

    # optimality and duality residuals (relative to ||R* f||)
    rhs_norm = np.linalg.norm(rhs) * np.sqrt(h_scale)
    residual_vec = normal_op(z_star) - rhs
    optimality = float(np.linalg.norm(residual_vec) * np.sqrt(h_scale)
                       / max(rhs_norm, np.finfo(float).tiny))
    o_star_y = control_map(y_star, problem)
    defect = rhs - (projection * o_star_y.values if projection is not None
                    else o_star_y.values)
    gap_vec = defect - eps0 * w_z
    duality_gap = float(np.linalg.norm(gap_vec) * np.sqrt(h_scale)
                        / max(rhs_norm, np.finfo(float).tiny))

    terminal_state = simulate_forward(problem, controls)
    goal = problem.target.values if problem.target is not None \
        else np.zeros(grid.node_count, dtype=np.complex128)
    error_values = goal - terminal_state.values
    if projection is not None:
        error_values = projection * error_values
    error_field = Field(grid, error_values)
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
    if norm.kind in ("l2", "restricted"):
        out["simulated_error_dual"] = out["simulated_error_l2"]
        return out
    decay = _norm_weight(grid, norm, "decay")
    values, key = error_field.values, "simulated_error_dual"
    if norm.kind == "sobolev_dual":
        values = spectral_multiply(grid, values, _sobolev_symbol(grid, norm, -0.5))
        key = "simulated_error_dual_approx"
    val = float(np.sum(decay * np.abs(values) ** 2) * grid.spacing ** grid.dim)
    out[key] = float(np.sqrt(val))
    return out


# ---------------------------------------------------------------------------
# calibration of the observation weight


def observability_margin(problem: ImpulseProblem, seed: int = 0,
                         max_iter: int = None, tol: float = 1e-8) -> float:
    """Smallest eigenvalue of C0 O*O + eps0 W - R* V R on the Z subspace.

    Nonnegative margin is exactly the discrete observability inequality at
    the problem's constants, hence the validity of the budget bound."""
    grid = problem.grid
    apply_w = z_weight_apply(problem)
    apply_gram = _observation_apply(problem)
    apply_r, apply_r_star = reachability_map(problem)
    projection = _z_projection(problem)
    density = _datum_density(problem)
    c0, eps0 = problem.observation_weight, problem.penalty

    def apply_h(v: np.ndarray) -> np.ndarray:
        zv = projection * v if projection is not None else v
        rv = apply_r(zv)
        if density is not None:
            # X-norm density for R z is the dual of the datum density
            rv = rv / density
        out = c0 * apply_gram(zv) + eps0 * apply_w(zv) - apply_r_star(rv)
        if projection is None:
            return out
        # off-subspace directions are not part of Z; give them a positive
        # placeholder so they cannot masquerade as the smallest eigenvalue
        return projection * out + eps0 * (v - zv)

    upper = c0 * len(problem.impulses) + eps0 * z_weight_bound(problem) + 1.0
    result = lanczos_smallest(apply_h, grid.node_count, upper_bound=upper,
                              max_iter=max_iter, seed=seed, tol=tol)
    return result.eigenvalue


def calibrate_observation_weight(problem: ImpulseProblem, seed: int = 0,
                                 start: float = 1.0, max_doublings: int = 48,
                                 safety: float = 2.0) -> ImpulseProblem:
    """Return the problem with C0 raised until the discrete observability
    inequality holds (margin >= 0), then multiplied by `safety`.

    The margin is nondecreasing in C0, so doubling terminates whenever a
    valid C0 exists below start * 2^max_doublings.  Beyond that the penalty
    is too small for the observation pattern (on a truncated box the hidden
    states have weighted norms capped near e^{aL}, which floors the
    admissible penalty), and the failure is reported rather than forcing an
    ill-conditioned solve."""
    c0 = start
    for _ in range(max_doublings):
        candidate = replace(problem, observation_weight=c0)
        if observability_margin(candidate, seed=seed) >= 0.0:
            return replace(problem, observation_weight=safety * c0)
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


def _two_impulse_problem(grid: Grid, u0: Field, target: Field, gap: float,
                         r1: float, r2: float, eps0: float) -> ImpulseProblem:
    regions = (ball_complement(0.0, r1, dim=grid.dim),
               ball_complement(0.0, r2, dim=grid.dim))
    return ImpulseProblem(
        grid=grid,
        horizon=gap,
        impulses=((0.0, regions[0]), (gap, regions[1])),
        initial_state=u0,
        target=target,
        penalty=eps0,
        observation_weight=1.0,
        error_norm=ErrorNorm("l2"),
    )


def cost_scaling_study(grid: Grid, u0: Field, target: Field,
                       gaps: Sequence[float], radii: Sequence[float],
                       eps0: float = 1e-6, error_target: float = 1e-3,
                       fixed_gap: float = None, doubled_radius_factor: float = np.sqrt(2.0),
                       tol: float = 1e-8, seed: int = 0) -> CostScalingStudy:
    """Normalized control cost against r1 r2 / gap for two-impulse problems.

    Each configuration is calibrated (C0 from the matrix-free margin), solved,
    and kept only if its relative terminal error meets `error_target`; the
    log-cost against r1*r2/gap is fitted affinely.  A doubling block at
    `fixed_gap` records the cost ordering when r1*r2 doubles.
    """
    rows: List[Dict[str, float]] = []
    excluded = 0
    r = radii[0]
    for gap in gaps:
        row = _solve_scaled(grid, u0, target, gap, r, r, eps0, error_target, tol, seed)
        if row is None:
            excluded += 1
            continue
        rows.append(row)
    if len(rows) < 2:
        raise RuntimeError("too few admissible cost samples to fit")
    fit = affine_fit([row["stress"] for row in rows],
                     [np.log(row["normalized_cost"]) for row in rows],
                     model="log-affine")
    doubling_rows: List[Dict[str, float]] = []
    if fixed_gap is not None:
        for factor in (1.0, doubled_radius_factor):
            row = _solve_scaled(grid, u0, target, fixed_gap, r * factor, r * factor,
                                eps0, error_target, tol, seed)
            if row is not None:
                doubling_rows.append(row)
    return CostScalingStudy(rows, fit, doubling_rows, excluded)


def _solve_scaled(grid, u0, target, gap, r1, r2, eps0, error_target, tol, seed):
    problem = _two_impulse_problem(grid, u0, target, gap, r1, r2, eps0)
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
