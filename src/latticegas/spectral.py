"""Dominant eigenvalues of transfer chains by power iteration.

The chains here are products of nonnegative 0/1 matrices whose empty
slice is compatible with everything, so the composite has a strictly
positive first row and column and the Perron root is simple.  The
composite is never materialized; each iteration pushes the vector
through the factors, last to first, with the pushes that open counts
use too.

The iterates start from the all-ones vector, and every step of a chain
commutes with the symmetry of its slices, so they stay constant on its
orbits.  They are held one entry per orbit and pushed through
``chain.orbit_steps``, relations narrowed to the rows at the orbit
representatives that take and give vectors on orbits; inner products
and norms weight each orbit by its size, so the iterates, and the
iteration counts, are those over every state.  Each relation picks its
own kernel for the push, its folded step or the zeta push; ``chain``'s
module docstring describes the kernels and how they are priced.

All composites in this package are symmetric (the factor lists read
the same forwards as transposed backwards, since each return step is
built from the first step's spread), which makes the Rayleigh quotient
estimate accurate to the residual squared.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .chain import TransferChain, orbit_steps

__all__ = ["ConvergenceError", "EigenResult", "dominant_eigenvalue"]


class ConvergenceError(RuntimeError):
    """Power iteration ran out of iterations before meeting tol."""


@dataclass(frozen=True)
class EigenResult:
    value: float
    vector: np.ndarray
    iterations: int
    residual: float


def dominant_eigenvalue(
    chain: TransferChain,
    tol: float = 1e-12,
    max_iterations: int = 50000,
) -> EigenResult:
    """Perron root of a chain's composite.

    Starts from the all-ones vector, which has positive overlap with
    the Perron vector.  Converged means the Rayleigh quotient moved by
    at most tol relatively AND the residual ||Av - lambda v|| is below
    tol relative to lambda * ||v||, both in the max norm.  The result's
    vector has an entry for every state, unfolded from the orbits.
    """
    n_in = len(chain.exit_space)
    if n_in != len(chain.entry_space):
        raise ValueError("chain composite is not square")
    if not 0 < tol < math.inf:
        raise ValueError(f"tol must be positive and finite, got {tol}")
    if max_iterations < 1:
        raise ValueError(f"max_iterations must be at least 1, got {max_iterations}")

    plan, of, sizes = orbit_steps(chain.links)
    v = np.ones(len(sizes)) / np.sqrt(n_in)
    lam = 0.0
    for it in range(1, max_iterations + 1):
        # The composite is steps[0] @ steps[1] @ ... acting on column
        # vectors, so the last factor hits the vector first.
        w = v
        for step in reversed(plan):
            w = step.push(w)
        lam_new = float((sizes * v) @ w)
        norm = float(np.sqrt(w @ (sizes * w)))
        if norm == 0.0:
            raise ValueError("chain annihilated the iterate; matrix is degenerate")
        residual = float(np.max(np.abs(w - lam_new * v)))
        rel_residual = residual / (abs(lam_new) * float(np.max(np.abs(v))))
        v = w / norm
        if it > 1 and abs(lam_new - lam) <= tol * abs(lam_new) and rel_residual <= tol:
            return EigenResult(lam_new, v[of], it, rel_residual)
        lam = lam_new
    raise ConvergenceError(
        f"no convergence to tol={tol} within {max_iterations} iterations"
    )
