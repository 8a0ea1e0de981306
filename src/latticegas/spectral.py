"""Dominant eigenvalues of transfer chains by power iteration.

The chains here are products of nonnegative 0/1 matrices whose empty
slice is compatible with everything, so the composite has a strictly
positive first row and column and the Perron root is simple.  The
composite is never materialized; each iteration applies the factors
one after another in float64, converting a block of rows of each 0/1
factor at a time, so no float copy of a whole factor is ever held.

All composites in this package are symmetric (the factor lists read
the same forwards as transposed backwards), which makes the Rayleigh
quotient estimate accurate to the residual squared.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .compat import BLOCK_ENTRIES, StepMatrix
from .chain import TransferChain

__all__ = ["ConvergenceError", "EigenResult", "dominant_eigenvalue"]


class ConvergenceError(RuntimeError):
    """Power iteration ran out of iterations before meeting tol."""


def _times(a: np.ndarray, v: np.ndarray) -> np.ndarray:
    """a @ v in float64, for a C-contiguous integer or bool array a."""
    out = np.empty(a.shape[0])
    block = max(1, BLOCK_ENTRIES // a.shape[1])
    for i in range(0, a.shape[0], block):
        np.dot(a[i:i + block].astype(np.float64), v, out=out[i:i + block])
    return out


@dataclass(frozen=True)
class EigenResult:
    value: float
    vector: np.ndarray
    iterations: int
    residual: float


def dominant_eigenvalue(
    chain: "TransferChain | Sequence[StepMatrix]",
    tol: float = 1e-12,
    max_iterations: int = 50000,
) -> EigenResult:
    """Perron root of a chain's composite.

    Starts from the all-ones vector, which has positive overlap with
    the Perron vector.  Converged means the Rayleigh quotient moved by
    at most tol relatively AND the residual ||Av - lambda v|| is below
    tol relative to lambda * ||v||, both in the max norm.
    """
    steps = chain.steps if isinstance(chain, TransferChain) else tuple(chain)
    if not steps:
        raise ValueError("empty chain")
    n_in = steps[-1].shape[1]
    n_out = steps[0].shape[0]
    if n_in != n_out:
        raise ValueError("chain composite is not square")
    if tol <= 0:
        raise ValueError("tol must be positive")

    # Transposed steps are views of their source; a C-contiguous copy
    # (one byte per entry for 0/1 steps) keeps each block of rows whole.
    arrays = [np.ascontiguousarray(s.array) for s in steps]
    v = np.ones(n_in) / np.sqrt(n_in)
    lam = 0.0
    for it in range(1, max_iterations + 1):
        # The composite is steps[0] @ steps[1] @ ... acting on column
        # vectors, so the last factor hits the vector first.
        w = v
        for a in reversed(arrays):
            w = _times(a, w)
        lam_new = float(v @ w)
        norm = float(np.linalg.norm(w))
        if norm == 0.0:
            raise ValueError("chain annihilated the iterate; matrix is degenerate")
        residual = float(np.max(np.abs(w - lam_new * v)))
        rel_residual = residual / (abs(lam_new) * float(np.max(np.abs(v))))
        v = w / norm
        if it > 1 and abs(lam_new - lam) <= tol * abs(lam_new) and rel_residual <= tol:
            return EigenResult(lam_new, v, it, rel_residual)
        lam = lam_new
    raise ConvergenceError(
        f"no convergence to tol={tol} within {max_iterations} iterations"
    )
