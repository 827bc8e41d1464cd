"""Matrix-free Krylov solvers for the Hermitian operators of the lab.

Both solvers work on flat complex vectors and take the operator as a
callable; the discrete L2 scale h^dim cancels in every coefficient, so the
plain vdot inner product is used throughout.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy.linalg import eigh_tridiagonal

Operator = Callable[[np.ndarray], np.ndarray]

_TWICE_IS_ENOUGH = 1.0 / np.sqrt(2.0)


class SolverFailure(RuntimeError):
    """A solve left its answer unresolved: an iterative solve missed its
    tolerance, or an eigenvalue is below its rounding floor."""


class IndefiniteOperatorError(RuntimeError):
    """CG met nonpositive curvature on a direction large enough to resolve
    it; the operator is not positive definite (with exact adjoints this
    indicates an operator/adjoint bug)."""


@dataclass
class CGResult:
    solution: np.ndarray
    iterations: int
    relative_residual: float
    converged: bool


def conjugate_gradient(apply_op: Operator, rhs: np.ndarray, tol: float = 1e-10,
                       max_iter: int = 5000, precondition: Operator = None) -> CGResult:
    """(Preconditioned) CG for Hermitian positive-definite apply_op, from x = 0.

    Stops when the recursively updated residual r_k meets
    ||r_k|| <= tol * ||b||, regardless of the preconditioner, and reports
    ||r_k|| / ||b||.  r_k equals b - A x_k only in exact arithmetic; the true
    residual is not recomputed, so the two can drift apart in floating point.
    Non-convergence is reported, never silent; a p*Ap or r*z that underflows
    to zero ends the run unconverged.  `precondition` applies an approximate
    inverse of apply_op (Hermitian PD).  It solves for rhs / 2^e and measures
    each r_k / 2^e, max |.| ~ 2^e, so no norm under- or overflows;
    a power of two scales exactly, so an ordinary solve keeps its bits.
    """
    if not np.any(rhs):
        return CGResult(np.zeros_like(rhs), 0, 0.0, True)
    order = _binary_order(rhs)
    r = rhs * 2.0 ** -order
    b_norm = res = np.linalg.norm(r)
    x = np.zeros_like(rhs)
    z = precondition(r) if precondition is not None else r
    p = z.copy()
    rz_old = np.vdot(r, z).real
    iterations = 0
    for iterations in range(1, max_iter + 1):
        ap = apply_op(p)
        curvature = np.vdot(p, ap).real
        if curvature <= 0.0:
            scale = np.abs(p).max()
            if scale == 0.0 or np.vdot(p / scale, ap / scale).real > 0.0:
                break  # the curvature underflowed: the run has stalled
            raise IndefiniteOperatorError(
                f"nonpositive curvature {curvature:.3e} at CG iteration {iterations}"
            )
        alpha = rz_old / curvature
        x = x + alpha * p
        r = r - alpha * ap
        e = _binary_order(r)
        res = float(np.linalg.norm(r * 2.0 ** -e)) * 2.0 ** e
        if res <= tol * b_norm:
            break
        z = precondition(r) if precondition is not None else r
        rz_new = np.vdot(r, z).real
        if rz_new == 0.0:
            break  # r*z underflowed: the run has stalled
        p = z + (rz_new / rz_old) * p
        rz_old = rz_new
    return CGResult(x * 2.0 ** order, iterations, res / b_norm, bool(res <= tol * b_norm))


def _binary_order(v: np.ndarray) -> int:
    """The exponent e of max |v| ~ 2^e, clipped so that 2^e and 2^-e are floats."""
    return int(np.clip(np.frexp(np.abs(v).max())[1], -1023, 1023))


@dataclass
class LanczosResult:
    eigenvalue: float
    eigenvector: np.ndarray
    iterations: int
    residual: float
    converged: bool


def lanczos_smallest(apply_op: Operator, size: int, tol: float,
                     stop_below: float = -np.inf) -> LanczosResult:
    """Smallest eigenvalue of a Hermitian operator, definite or not.

    Runs Lanczos with full reorthogonalization on apply_op itself, for at
    most `size` steps, from the fixed start numpy's default_rng(0) draws.
    Converged means the Ritz residual ||A v - lambda v|| of the returned pair
    is below the absolute tolerance tol (the eigenvalue error of a Hermitian
    Ritz pair is bounded by its residual).  The Krylov space is exhausted
    when the new direction is below 1e-14 of the largest |alpha_j| seen (at
    least 1), a scale the run measures itself.

    With `stop_below` finite, the run also stops at the first 16-step check
    whose smallest Ritz value is below it.  Ritz values bound lambda_min
    from above and only decrease as steps are added (Cauchy interlacing),
    so that value proves lambda_min < stop_below; it is returned as it
    stands, converged only if its residual meets tol.
    """
    rng = np.random.default_rng(0)
    q = rng.standard_normal(size) + 1j * rng.standard_normal(size)
    q /= np.linalg.norm(q)

    # the basis grows by doubling, so a long run costs memory only for the
    # steps actually taken
    basis = np.empty((min(64, size), size), dtype=np.complex128)
    alphas = np.zeros(size)
    betas = np.zeros(size)  # betas[j-1] couples steps j-1 and j

    basis[0] = q
    w = apply_op(q)
    alphas[0] = np.vdot(q, w).real
    scale = max(abs(alphas[0]), 1.0)
    w = w - alphas[0] * q
    steps = 1
    for j in range(1, size):
        # full reorthogonalization by classical Gram-Schmidt against the
        # stored basis; conjugating w rather than the basis copies only
        # vectors of length size and steps.  A second pass runs only when the
        # first leaves less than 1/sqrt(2) of the norm ("twice is enough":
        # Daniel, Gragg, Kaufman & Stewart, Math. Comp. 30, 1976)
        before = np.linalg.norm(w)
        w = w - (basis[:steps] @ w.conj()).conj() @ basis[:steps]
        beta = np.linalg.norm(w)
        if beta < _TWICE_IS_ENOUGH * before:
            w = w - (basis[:steps] @ w.conj()).conj() @ basis[:steps]
            beta = np.linalg.norm(w)
        if beta < 1e-14 * scale:
            break  # Krylov space exhausted; Ritz values are exact on it
        betas[j - 1] = beta
        q = w / beta
        if j == len(basis):
            grown = np.empty((min(2 * j, size), size), dtype=np.complex128)
            grown[:j] = basis
            basis = grown
        basis[j] = q
        w = apply_op(q)
        alphas[j] = np.vdot(q, w).real
        scale = max(scale, abs(alphas[j]))
        w = w - alphas[j] * q - beta * basis[j - 1]
        steps = j + 1
        if steps % 16 == 0:
            lam, s = _smallest_ritz(alphas[:steps], betas[: steps - 1])
            # residual bound |beta_next * s_last| with beta_next ~ ||w||
            if np.linalg.norm(w) * abs(s[-1]) <= 0.05 * tol:
                break
            if lam < stop_below:
                break  # Ritz values only fall: lambda_min < stop_below is proven

    lam, s = _smallest_ritz(alphas[:steps], betas[: steps - 1])
    vec = (basis[:steps].T @ s.astype(np.complex128))
    vec /= np.linalg.norm(vec)
    residual = float(np.linalg.norm(apply_op(vec) - lam * vec))
    return LanczosResult(lam, vec, steps, residual, residual <= tol)


def _smallest_ritz(alphas: np.ndarray, betas: np.ndarray):
    if len(alphas) == 1:
        return float(alphas[0]), np.ones(1)
    try:
        vals, vecs = eigh_tridiagonal(alphas, betas, select="i",
                                      select_range=(0, 0),
                                      lapack_driver="stebz")
        return float(vals[0]), vecs[:, 0]
    except np.linalg.LinAlgError:
        # bisection driver can fail on hard tridiagonals; fall back to dense
        t = np.diag(alphas) + np.diag(betas, 1) + np.diag(betas, -1)
        vals, vecs = np.linalg.eigh(t)
        return float(vals[0]), vecs[:, 0]
