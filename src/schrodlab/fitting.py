"""Least-squares affine fits with a coefficient of determination.

The inequality studies never assert theoretical constants; they fit growth
shapes (log-affine trends) and report slope, intercept and R^2.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np


@dataclass(frozen=True)
class FitResult:
    slope: float
    intercept: float
    r_squared: float


def affine_fit(x: Sequence[float], y: Sequence[float]) -> FitResult:
    """Ordinary least squares y ~ slope*x + intercept with R^2 in [0, 1]."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.shape != y.shape or np.unique(x).size < 2:
        raise ValueError("affine_fit needs same-size samples with two distinct abscissae")
    slope, intercept = np.polyfit(x, y, 1)
    predicted = slope * x + intercept
    ss_res = float(np.sum((y - predicted) ** 2))
    ss_tot = float(np.sum((y - np.mean(y)) ** 2))
    if ss_tot == 0.0:
        r2 = 1.0 if ss_res == 0.0 else 0.0
    else:
        r2 = 1.0 - ss_res / ss_tot
    return FitResult(float(slope), float(intercept), float(min(max(r2, 0.0), 1.0)))


def loglog_fit(x: Sequence[float], y: Sequence[float]) -> FitResult:
    """Affine fit of log y against log x (decay/growth exponents)."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if np.any(x <= 0) or np.any(y <= 0):
        raise ValueError("loglog_fit needs strictly positive samples")
    return affine_fit(np.log(x), np.log(y))
