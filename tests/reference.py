"""Test-side reference for the observability Gramian.

`inequalities.empirical_constant` takes lambda_min(G) from a dense lattice
block of the flow; the tests check it against the matrix-free G built here
from the flow observation, an independent path.
"""

import numpy as np

from schrodlab.transform import flow_observation


def reference_gramian(grid, s, t, region_a, region_b):
    """Matrix-free G = M_A + P* M_B P with P the flow from time s to t."""
    return flow_observation(grid, [(0.0, region_a), (t - s, region_b)]).gram


def dense_gramian(grid, s, t, region_a, region_b):
    """G as a dense matrix, one reference apply per unit column."""
    apply_g = reference_gramian(grid, s, t, region_a, region_b)
    return np.array([apply_g(col)
                     for col in np.eye(grid.node_count, dtype=complex)]).T
