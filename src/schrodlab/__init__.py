"""Numerical laboratory for the free Schrodinger flow on a truncated box:
observability and unique-continuation quotients, uncertainty-principle
checks, sharpness counterexample families, and impulse-control synthesis by
penalized duality."""

__version__ = "0.1.0"

from .field import (Field, Grid, Region, Weight, ball, ball_complement, dot,
                    l2_norm, make_grid, masked_energy, weighted_energy,
                    whole_space)
from .transform import dft, fresnel_map, gaussian_oracle, idft, propagate

__all__ = [
    "Field", "Grid", "Region", "Weight", "ball", "ball_complement", "dot",
    "l2_norm", "make_grid", "masked_energy", "weighted_energy", "whole_space",
    "dft", "idft", "propagate", "fresnel_map", "gaussian_oracle",
    "__version__",
]
