"""Krylov solver checks against dense LAPACK factorizations."""

import inspect
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

import schrodlab
from schrodlab import solvers
from schrodlab.solvers import (IndefiniteOperatorError, conjugate_gradient,
                               lanczos_smallest)


def random_hpd(n, rng, shift=0.5):
    a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return a.conj().T @ a / n + shift * np.eye(n)


def test_cg_matches_dense_solve():
    rng = np.random.default_rng(0)
    a = random_hpd(80, rng)
    b = rng.standard_normal(80) + 1j * rng.standard_normal(80)
    result = conjugate_gradient(lambda v: a @ v, b, tol=1e-12, max_iter=500)
    assert result.converged
    assert np.linalg.norm(a @ result.solution - b) <= 1e-11 * np.linalg.norm(b)


def test_cg_zero_rhs():
    result = conjugate_gradient(lambda v: v, np.zeros(10, complex))
    assert result.converged and result.iterations == 0


def test_cg_reports_nonconvergence():
    rng = np.random.default_rng(1)
    a = random_hpd(120, rng, shift=1e-9)
    b = rng.standard_normal(120) + 1j * rng.standard_normal(120)
    result = conjugate_gradient(lambda v: a @ v, b, tol=1e-14, max_iter=3)
    assert not result.converged
    assert result.relative_residual > 0


def test_cg_aborts_on_indefinite_operator():
    b = np.ones(16, complex)
    with pytest.raises(IndefiniteOperatorError):
        conjugate_gradient(lambda v: -v, b)


@pytest.mark.parametrize("diagonal, precondition, first", [
    # the residual shrinks until a later direction's p*Ap underflows to zero
    (np.array([1.0, 2.0]), None, False),
    (np.ones(16), lambda r: np.zeros_like(r), True),  # a zero direction
], ids=["later-direction-underflows", "zero-direction"])
def test_cg_stalls_on_an_unresolvable_direction(diagonal, precondition, first):
    # the curvature of these directions is zero without the operator being
    # indefinite: the run ends unconverged instead of raising
    b = np.ones(diagonal.size, dtype=complex)
    result = conjugate_gradient(lambda v: 1e-200 * diagonal * v, b, tol=1e-300,
                                precondition=precondition)
    assert not result.converged
    if first:
        assert result.iterations == 1 and result.relative_residual == 1.0
    else:
        assert result.iterations > 1 and 0.0 < result.relative_residual < 1e-50


@pytest.mark.parametrize("diagonal", [np.linspace(1.0, 2.0, 16),
                                      np.linspace(1.0, 100.0, 16),
                                      np.geomspace(1.0, 1e4, 16)])
def test_cg_does_not_converge_on_an_underflowed_residual(diagonal):
    # ||r|| near 1e-163 squares below the smallest float; taken unscaled it
    # reads 0 and meets tol = 1e-300, although r itself is not 0
    result = conjugate_gradient(lambda v: diagonal * v, np.ones(16), tol=1e-300)
    assert not result.converged
    assert 0.0 < result.relative_residual < 1e-150


@pytest.mark.parametrize("entry", [1e-170, 1e270])
def test_cg_solves_tiny_and_huge_right_hand_sides(entry):
    # ||b|| of these underflows to 0 or overflows to inf unscaled
    b = np.full(16, entry, dtype=complex)
    result = conjugate_gradient(lambda v: 2.0 * v, b)
    assert result.converged and result.iterations == 1
    assert np.array_equal(result.solution, b / 2)


def test_cg_aborts_on_a_singular_operator():
    # zero curvature on a direction of normal size is the operator's
    with pytest.raises(IndefiniteOperatorError, match="nonpositive curvature"):
        conjugate_gradient(lambda v: 0.0 * v, np.ones(16, complex))


def test_preconditioned_cg_matches_plain():
    rng = np.random.default_rng(2)
    diag = np.exp(rng.uniform(0.0, 12.0, size=150))
    a = np.diag(diag) + random_hpd(150, rng, shift=0.0)
    b = rng.standard_normal(150) + 1j * rng.standard_normal(150)
    plain = conjugate_gradient(lambda v: a @ v, b, tol=1e-11, max_iter=2000)
    inv = 1.0 / diag
    pcg = conjugate_gradient(lambda v: a @ v, b, tol=1e-11, max_iter=2000,
                             precondition=lambda v: inv * v)
    assert pcg.converged
    assert pcg.iterations <= plain.iterations
    assert np.linalg.norm(pcg.solution - plain.solution) \
        <= 1e-8 * np.linalg.norm(plain.solution)


def test_lanczos_smallest_matches_eigh():
    rng = np.random.default_rng(3)
    n = 200
    a = random_hpd(n, rng, shift=0.0)
    a /= np.linalg.norm(a, 2)  # spectrum in [0, 1]
    exact = np.linalg.eigvalsh(a)[0]
    result = lanczos_smallest(lambda v: a @ v, n, tol=1e-11)
    assert result.converged
    assert result.eigenvalue == pytest.approx(exact, abs=1e-10)
    rayleigh = np.vdot(result.eigenvector, a @ result.eigenvector).real
    assert rayleigh == pytest.approx(exact, abs=1e-9)


def test_lanczos_is_deterministic():
    rng = np.random.default_rng(4)
    a = random_hpd(60, rng, shift=0.0)
    a /= np.linalg.norm(a, 2)
    r1 = lanczos_smallest(lambda v: a @ v, 60, tol=1e-11)
    r2 = lanczos_smallest(lambda v: a @ v, 60, tol=1e-11)
    assert r1.eigenvalue == r2.eigenvalue
    assert np.array_equal(r1.eigenvector, r2.eigenvector)


def test_lanczos_handles_indefinite_operator():
    # margins of calibration can be negative
    rng = np.random.default_rng(5)
    herm = random_hpd(80, rng, shift=0.0)
    a = herm - 0.5 * np.eye(80)
    exact = np.linalg.eigvalsh(a)[0]
    result = lanczos_smallest(lambda v: a @ v, 80, tol=1e-10)
    assert result.eigenvalue == pytest.approx(exact, abs=1e-9)
    assert exact < 0


def test_lanczos_scaled_shifted_indefinite_operator():
    # the solver measures its own scale: c*A - d*I with c = 1e10 and an
    # interior shift d is indefinite and ~1e10 wide, and tol scales with c
    rng = np.random.default_rng(9)
    n = 120
    a = random_hpd(n, rng, shift=0.0)
    a /= np.linalg.norm(a, 2)  # spectrum in [0, 1]
    values = np.linalg.eigvalsh(a)
    c, tol = 1e10, 1e-11
    d = c * (values[0] + values[-1]) / 2
    shifted = c * a - d * np.eye(n)
    assert np.linalg.eigvalsh(shifted)[0] < 0 < np.linalg.eigvalsh(shifted)[-1]
    result = lanczos_smallest(lambda v: shifted @ v, n, tol=c * tol)
    assert result.converged
    assert abs(result.eigenvalue - (c * values[0] - d)) <= c * tol


def test_lanczos_clustered_spectrum_long_run():
    # eigenvalues (k/(n-1))^2 crowd towards 0, so resolving lambda_min to
    # 1e-12 takes (nearly) every step: one Gram-Schmidt pass per step, plus a
    # second only when the first cancels, must keep the basis orthogonal
    # through 300+ steps
    rng = np.random.default_rng(6)
    n = 320
    q, _ = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
    a = (q * (np.arange(n) / (n - 1)) ** 2) @ q.conj().T
    a = (a + a.conj().T) / 2
    exact_values, exact_vectors = np.linalg.eigh(a)
    result = lanczos_smallest(lambda v: a @ v, n, tol=1e-12)
    assert result.iterations >= 300
    assert result.converged
    assert abs(result.eigenvalue - exact_values[0]) <= 1e-12
    assert result.residual <= 1e-12
    eigh_residual = np.linalg.norm(a @ exact_vectors[:, 0]
                                   - exact_values[0] * exact_vectors[:, 0])
    assert abs(result.residual - eigh_residual) <= 1e-12


def test_lanczos_stop_below_proves_a_negative_minimum():
    rng = np.random.default_rng(8)
    n = 200
    a = random_hpd(n, rng, shift=0.0)
    a = a / np.linalg.norm(a, 2) - 0.5 * np.eye(n)  # spectrum in [-0.5, 0.5]
    exact = np.linalg.eigvalsh(a)[0]

    def op(v):
        return a @ v

    full = lanczos_smallest(op, n, tol=1e-11)
    early = lanczos_smallest(op, n, tol=1e-11, stop_below=0.0)
    assert full.iterations > 16
    assert early.iterations <= 16
    assert exact <= early.eigenvalue < 0.0
    assert early.converged == (early.residual <= 1e-11)
    # a threshold below lambda_min is never met: the run is the full one
    never = lanczos_smallest(op, n, tol=1e-11, stop_below=exact - 0.1)
    assert never.iterations == full.iterations
    assert never.eigenvalue == full.eigenvalue


def test_lanczos_second_pass_on_an_exhausted_krylov_space():
    # the Krylov space of an orthogonal projection is span{q, Pq}: at step 2
    # the new direction is rounding noise that one Gram-Schmidt pass cannot
    # clear to 1/sqrt(2) of its norm, so the second pass runs once, and the
    # space is then found exhausted with lambda_min = 0 exact on it
    diag = np.r_[np.zeros(100), np.ones(100)]
    source, first = inspect.getsourcelines(solvers.lanczos_smallest)
    line = first + 1 + next(i for i, text in enumerate(source)
                            if "_TWICE_IS_ENOUGH * before" in text)
    code, hits = solvers.lanczos_smallest.__code__, []

    def tracer(frame, event, arg):
        if frame.f_code is not code:
            return None
        if event == "line" and frame.f_lineno == line:
            hits.append(line)
        return tracer

    previous = sys.gettrace()
    sys.settrace(tracer)
    try:
        result = lanczos_smallest(lambda v: diag * v, diag.size, tol=1e-12)
    finally:
        sys.settrace(previous)
    assert len(hits) == 1
    assert result.iterations == 2
    assert abs(result.eigenvalue) <= 1e-14
    assert result.converged


def test_lanczos_dense_fallback_matches_bisection(monkeypatch):
    # when the bisection driver fails, the dense tridiagonal eigh stands in
    # for it and must give the same Ritz value at every check
    diag = np.linspace(-1.0, 2.0, 120)
    reference = lanczos_smallest(lambda v: diag * v, diag.size, tol=1e-10)

    def failing(*args, **kwargs):
        raise np.linalg.LinAlgError("bisection failed")

    monkeypatch.setattr(solvers, "eigh_tridiagonal", failing)
    fallback = lanczos_smallest(lambda v: diag * v, diag.size, tol=1e-10)
    assert fallback.iterations == reference.iterations
    assert fallback.converged and reference.converged
    assert abs(fallback.eigenvalue - reference.eigenvalue) <= 1e-14


def test_lanczos_basis_fits_a_large_operator():
    # the basis grows with the steps taken: a 65536-point operator must not
    # reserve a 65536 x 65536 basis (64 GiB) before its first matvec; run in
    # a child process whose own address space is capped at 4 GiB
    code = textwrap.dedent("""
        import resource, sys
        import numpy as np
        from schrodlab.solvers import lanczos_smallest
        resource.setrlimit(resource.RLIMIT_AS, (4 << 30, 4 << 30))
        size = 65536
        diag = np.linspace(0.5, 2.0, size)
        diag[size // 3] = 0.1  # isolated smallest eigenvalue
        result = lanczos_smallest(lambda v: diag * v, size, tol=1e-10)
        print(result.eigenvalue, result.converged)
    """)
    src = str(Path(schrodlab.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    done = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    eigenvalue, converged = done.stdout.split()
    assert float(eigenvalue) == pytest.approx(0.1, abs=1e-10)
    assert converged == "True"
