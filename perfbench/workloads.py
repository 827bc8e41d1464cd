"""The benchmark's operations: each one is a `schrodlab` CLI invocation with
every configuration key it reads written out, so a later change to a CLI
default does not change the load.

An operation is (label, experiment, config).  The workload seed becomes the
CLI `--seed` of every operation; nothing else depends on it.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

Op = Tuple[str, str, Dict[str, object]]

TAIL = {"tail_tolerance": 1e-10}


def _grid(dim: int, half_extent: float, points: int) -> Dict[str, object]:
    return {"grid.dim": dim, "grid.L": half_extent, "grid.M": points}


# ---------------------------------------------------------------------------
# gramian: long Lanczos runs on big lattices


def _empirical_constant(dim: int, points: int) -> Dict[str, object]:
    return {**_grid(dim, 20.0, points), "observability.radius": 2.0,
            "observability.gaps": [0.25, 0.5, 1.0, 2.0]}


GRAMIAN: List[Op] = [
    ("empirical-constant/1d-4096", "empirical-constant", _empirical_constant(1, 4096)),
    ("empirical-constant/2d-128", "empirical-constant", _empirical_constant(2, 128)),
]


# ---------------------------------------------------------------------------
# control: the six variants at the acceptance suite's feasible parameters,
# the cost-scaling study, and ball_null at CLI defaults on M=1024


def _control(variant: str, half_extent: float, points: int, penalty: float,
             r1: float, r2: float, **extra) -> Dict[str, object]:
    config = {**_grid(1, half_extent, points), **TAIL,
              "control.variant": variant, "control.sigma": 1.0,
              "control.target_shift": 1.0, "control.penalty": penalty,
              "control.T": 1.0, "control.r1": r1, "control.r2": r2,
              "control.a": 1.0, "control.cg_tolerance": 1e-10,
              "control.max_iterations": 5000}
    config.update({f"control.{key}": value for key, value in extra.items()})
    return config


CONTROL: List[Op] = [
    ("control-solve/two_impulse", "control-solve",
     _control("two_impulse", 20.0, 256, 1e-6, 2.0, 2.0, tau1=0.0, tau2=1.0)),
    ("control-solve/complement_approx", "control-solve",
     _control("complement_approx", 20.0, 256, 0.3, 2.0, 2.0)),
    ("control-solve/ball_null", "control-solve",
     _control("ball_null", 12.0, 256, 0.1, 2.0, 3.0)),
    ("control-solve/band_restricted", "control-solve",
     _control("band_restricted", 20.0, 256, 1e-6, 2.0, 2.0, N=5.0)),
    ("control-solve/shifted_decay_null", "control-solve",
     _control("shifted_decay_null", 12.0, 256, 0.1, 2.0, 2.0, b=0.5)),
    ("control-solve/sobolev_dual_approx", "control-solve",
     _control("sobolev_dual_approx", 12.0, 256, 0.01, 2.0, 2.0, tau=0.5)),
    ("cost-scaling/defaults", "cost-scaling",
     {**_grid(1, 20.0, 256), "control.sigma": 0.8,
      "cost.gaps": [0.25, 0.5, 1.0, 2.0], "cost.radius": 2.0,
      "cost.penalty": 1e-6, "cost.error_target": 1e-3, "cost.fixed_gap": 0.5,
      "cost.cg_tolerance": 1e-8}),
    ("control-solve/ball_null-1024", "control-solve",
     _control("ball_null", 20.0, 1024, 1e-6, 2.0, 2.0)),
]


# ---------------------------------------------------------------------------
# quotients: Krylov-free direct evaluations, most flow times used once


def _counterexample(family: str, r2: float) -> Dict[str, object]:
    return {**_grid(1, 15.0, 4096), "counterexample.family": family,
            "counterexample.k": [1, 2, 4, 8, 16, 32],
            "counterexample.profile": "gaussian",
            "counterexample.x_prime": 0.0, "counterexample.x_dprime": 0.0,
            "counterexample.r1": 1.0, "counterexample.r2": r2,
            "counterexample.T": 1.0, "counterexample.S1": 0.5,
            "counterexample.S2": 0.5, "counterexample.a": 1.0,
            "counterexample.time_slices": 48}


QUOTIENTS: List[Op] = [
    ("propagate/2d-256", "propagate",
     {**_grid(2, 100.0, 256), **TAIL, "propagate.sigma": 1.0,
      "propagate.times": [0.1, 1.0, 10.0]}),
    ("uncertainty/2d-256", "uncertainty",
     {**_grid(2, 40.0, 256), **TAIL, "uncertainty.sigma": 1.0,
      "uncertainty.radii": [0.5, 1.0, 2.0, 4.0]}),
    ("two-time-observability/2d-256", "two-time-observability",
     {**_grid(2, 40.0, 256), **TAIL, "observability.sigma": 1.0,
      "observability.radius": 2.0, "observability.S": 0.0,
      "observability.gaps": [0.25, 0.5, 1.0, 2.0]}),
    ("two-ball-13/2d-256", "two-ball-13",
     {**_grid(2, 40.0, 256), **TAIL, "two_ball.sigma": 1.0, "two_ball.r1": 1.0,
      "two_ball.r2": 1.0, "two_ball.a": 1.0, "two_ball.T": 1.0,
      "two_ball.separations": [0.0, 2.0, 4.0, 6.0]}),
    ("moment-34/2d-256", "moment-34",
     {**_grid(2, 80.0, 256), **TAIL, "moment.sigma": 2.0,
      "moment.times": [1.0, 2.0, 4.0, 8.0, 16.0]}),
    ("interpolation-12/2d-256", "interpolation-12",
     {**_grid(2, 20.0, 256), **TAIL, "interpolation.r": 1.0,
      "interpolation.a": 1.0, "interpolation.T": 1.0,
      # the CLI default np.linspace(0.5, 3.0, 20), written out
      "interpolation.scales": [
          0.5, 0.631578947368421, 0.763157894736842, 0.8947368421052632,
          1.026315789473684, 1.1578947368421053, 1.2894736842105263,
          1.4210526315789473, 1.5526315789473684, 1.6842105263157894,
          1.8157894736842104, 1.9473684210526314, 2.0789473684210527,
          2.2105263157894735, 2.3421052631578947, 2.473684210526316,
          2.6052631578947367, 2.736842105263158, 2.8684210526315788, 3.0]}),
    ("verify-identity/defaults", "verify-identity",
     {**_grid(1, 40.0, 2048), **TAIL, "fresnel.sigma": 1.0,
      "fresnel.times": [0.5, 1.0, 2.0], "fresnel.compare_box_fraction": 0.95}),
    ("bridge/defaults", "bridge",
     {**_grid(1, 20.0, 1024), "bridge.T": 1.0, "bridge.radius": 6.0,
      "bridge.samples": 20}),
    ("counterexample/concentrating", "counterexample",
     _counterexample("concentrating", 1.0)),
    ("counterexample/time_reversed", "counterexample",
     _counterexample("time_reversed", 2.0)),
    ("counterexample/modulated", "counterexample",
     _counterexample("modulated", 1.0)),
    ("spectral-ineq-27/defaults", "spectral-ineq-27",
     {**_grid(1, 10.0, 512), "spectral.radii": [0.5, 1.0, 2.0],
      "spectral.bands": [1.0, 2.0, 4.0, 8.0], "spectral.samples": 50}),
]


WORKLOADS: Dict[str, List[Op]] = {
    "gramian": GRAMIAN,
    "control": CONTROL,
    "quotients": QUOTIENTS,
}

# One small operation per workload that touches the same layers; it is the
# untimed warm-up of the measuring process and of every set-up probe.
WARMUP: Dict[str, Op] = {
    "gramian": ("warmup/empirical-constant", "empirical-constant",
                {**_grid(1, 20.0, 512), "observability.radius": 2.0,
                 "observability.gaps": [1.0, 2.0]}),
    "control": ("warmup/control-solve", "control-solve",
                _control("two_impulse", 20.0, 256, 1e-6, 2.0, 2.0,
                         tau1=0.0, tau2=1.0)),
    "quotients": ("warmup/propagate", "propagate",
                  {**_grid(1, 100.0, 2048), **TAIL, "propagate.sigma": 1.0,
                   "propagate.times": [0.1, 1.0, 10.0]}),
}
