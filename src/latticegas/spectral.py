"""Dominant eigenvalues of transfer chains by Lanczos iteration.

The chains here are products of nonnegative 0/1 matrices whose empty
slice is compatible with everything, so the composite has a strictly
positive first row and column and the Perron root is simple.  The
composite is never materialized; each push sends a vector through the
factors, last to first, with the pushes that open counts use too.

Vectors start from the all-ones vector, and every step of a chain
commutes with the symmetry of its slices, so they stay constant on its
orbits.  They are held one entry per orbit and pushed through
``chain.orbit_steps``, relations narrowed to the rows at the orbit
representatives that take and give vectors on orbits.  Each relation
picks its own kernel for the push, its folded step or the zeta push;
``chain``'s module docstring describes the kernels and how they are
priced.

All composites in this package are symmetric (the factor lists read
the same forwards as transposed backwards, since each return step is
built from the first step's spread), so on orbits the composite is
self-adjoint under the inner product that weights each orbit by its
size.  Scaled by the square roots of the orbit sizes it is a symmetric
matrix, and the Lanczos recurrence with full reorthogonalization finds
its top eigenpair in about half the pushes power iteration takes ("An
iteration method for the solution of the eigenvalue problem of linear
differential and integral operators", Lanczos, 1950).  The top
eigenpair of the small tridiagonal is found without LAPACK (``_ritz``):
a first ``np.linalg.eigh`` call alone adds about 0.9 MB to a process's
peak memory.
A root is returned only once one more push has checked its residual.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .chain import TransferChain, orbit_steps

__all__ = ["ConvergenceError", "EigenResult", "dominant_eigenvalue"]

# The most Lanczos vectors held at once; a run that fills them restarts
# from its Ritz vector.
BASIS = 48

# float64's relative rounding, and the smallest tol a residual can be
# asked to meet.
EPS = 2.0**-52
MIN_TOL = EPS


class ConvergenceError(RuntimeError):
    """The iteration ran out of pushes, or stalled, before meeting tol."""


@dataclass(frozen=True)
class EigenResult:
    value: float
    vector: np.ndarray
    iterations: int
    residual: float


def _ritz(alpha: list[float], beta: list[float], guess: float, bound: float) -> tuple[float, list[float]]:
    """The top eigenpair of the tridiagonal T with diagonal alpha and
    off-diagonal beta[1:] (beta[0] is 0), from ``guess``, or from
    ``bound`` where the guess lies below the top eigenvalue.

    The eigenvalue is Newton's iteration on the characteristic
    polynomial p of T from above, where p is convex, so the iterates
    fall monotonically to the root.  Its step p/p' is taken from the
    pivots of x - T = L D L^T, d_j = x - alpha_j - beta_j**2 / d_{j-1},
    as 1 / sum of d_j'/d_j: all of them are positive above the top
    eigenvalue, and a guess below it shows as one that is not.  The
    eigenvector solves the rows of (T - x) s = 0 from the last up, s
    ending in 1, and leaves the first unmet: that is inverse iteration
    from e_1, on which the top eigenvector of a Lanczos tridiagonal
    started near it weighs most.  It is returned unnormalized.
    """
    x = guess
    for it in range(100):
        d, dd, total = 1.0, 0.0, 0.0
        for a, b in zip(alpha, beta):
            b2 = b * b
            dd = 1.0 + b2 * dd / (d * d)
            d = x - a - b2 / d
            if d <= 0.0:
                break
            total += dd / d
        if d <= 0.0:
            if it == 0 and x < bound:
                x = bound
                continue
            break  # at the root, to rounding
        step = 1.0 / total
        x -= step
        if step <= 2 * EPS * x:
            break
    s = [1.0]
    cur, below, b_below = 1.0, 0.0, 0.0
    for j in range(len(alpha) - 1, 0, -1):
        cur, below, b_below = ((x - alpha[j]) * cur - b_below * below) / beta[j], cur, beta[j]
        s.append(cur)
    s.reverse()
    return x, s


def dominant_eigenvalue(
    chain: TransferChain,
    tol: float = 1e-12,
    max_iterations: int = 50000,
) -> EigenResult:
    """Perron root of a chain's composite, by Lanczos iteration on orbits.

    Starts from the all-ones vector, which has positive overlap with the
    Perron vector.  Each Lanczos step pushes one vector through the
    chain and reorthogonalizes the result against every earlier one; the
    top eigenpair (theta, y) of the steps' tridiagonal (``_ritz``) gives
    the residual norm of its Ritz vector, |beta_k y_k|.  Once that is at
    most tol * theta / 10, one more push checks the Ritz vector v:
    converged means its residual ||Av - lambda v|| is at most tol
    relative to lambda * ||v||, both in the max norm, lambda the
    Rayleigh quotient.  A Ritz vector that fails restarts the iteration,
    which then asks of the estimate as much more as the check fell
    short.  ConvergenceError is raised once max_iterations pushes are
    spent, or two checks in a row fail to lower the residual: tol below
    2**-52, float64's rounding, is refused up front.  ``iterations``
    counts the pushes, checks included.  The result's vector is the
    checked vector's push, positive and of unit norm, with an entry for
    every state, unfolded from the orbits.
    """
    n_in = len(chain.exit_space)
    if n_in != len(chain.entry_space):
        raise ValueError("chain composite is not square")
    if not 0 < tol < math.inf:
        raise ValueError(f"tol must be positive and finite, got {tol}")
    if tol < MIN_TOL:
        raise ValueError(f"tol must be at least 2**-52, float64's rounding, got {tol}")
    if max_iterations < 1:
        raise ValueError(f"max_iterations must be at least 1, got {max_iterations}")

    plan, of, sizes = orbit_steps(chain.links)
    # Vectors are held as z = y * sqrt(sizes), y on orbits, where the
    # composite is a symmetric matrix and inner products are plain.
    root = np.sqrt(sizes)
    pushes = 0

    def push(z: np.ndarray) -> np.ndarray:
        # The composite is steps[0] @ steps[1] @ ... acting on column
        # vectors, so the last factor hits the vector first.
        nonlocal pushes
        if pushes == max_iterations:
            raise ConvergenceError(f"no convergence to tol={tol} within {max_iterations} iterations")
        pushes += 1
        y = z / root
        for step in reversed(plan):
            y = step.push(y)
        return y * root

    basis = np.empty((min(BASIS, len(sizes)), len(sizes)))
    z = root / math.sqrt(n_in)
    bz = push(z)
    if not bz.any():
        raise ValueError("chain annihilated the iterate; matrix is degenerate")
    target = max(tol, EPS) / 10
    best, stalls = math.inf, 0
    while True:
        # Lanczos from z, whose push bz is known
        basis[0] = z
        w = bz
        alpha: list[float] = []
        beta = [0.0]
        k = 0
        while True:
            q = basis[: k + 1]
            h = q @ w
            w = w - h @ q
            h2 = q @ w  # twice is enough
            w -= h2 @ q
            alpha.append(float(h[k] + h2[k]))
            b = float(np.sqrt(w @ w))
            if k:
                # T_k has an eigenvalue within r of theta, T_{k-1}'s top
                # one, and none above max(theta, alpha_k) + beta_k
                bound = (max(theta, alpha[k]) + beta[k]) * (1 + 4 * EPS)
                theta, y = _ritz(alpha, beta, min(theta + r, bound) * (1 + 4 * EPS), bound)
            else:
                theta, y = alpha[0], [1.0]
            r = b / math.hypot(*y)
            k += 1
            if r <= target * theta or k == len(basis):
                break
            beta.append(b)
            basis[k] = w / b
            w = push(basis[k])
        if k == 1:
            v, bv = z, bz
        else:
            v = np.array(y) @ basis[:k]
            v /= np.sqrt(v @ v)
            bv = push(v)
        lam = float(v @ bv)
        x, bx = v / root, bv / root
        residual = float(np.max(np.abs(bx - lam * x))) / (abs(lam) * float(np.max(np.abs(x))))
        if residual <= tol:
            vector = bx / float(np.sqrt(bv @ bv))
            return EigenResult(lam, vector[of] if vector.sum() > 0 else -vector[of], pushes, residual)
        stalls = stalls + 1 if residual >= best else 0
        if stalls == 2:
            raise ConvergenceError(f"no convergence to tol={tol}: the residual stalled at {best:.3g}")
        best = min(best, residual)
        # the estimate's 2-norm passed where the max norm did not: ask as
        # much more of it as the max norm fell short, down to rounding
        target = max(target * tol / residual, EPS / 10)
        z, bz = v, bv
