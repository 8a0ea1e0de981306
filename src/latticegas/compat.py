"""Compatibility matrices between consecutive lattice slices.

A step matrix has one row per state of the outgoing slice and one
column per state of the incoming slice; the entry is 1 when the two
configurations can sit next to each other and 0 when some occupied
pair of sites would touch.  A step is stored once, as that numpy bool
array, so it is 0/1 by type.  ``StepMatrix.push`` is a built step's
product: it works in float64 a block of rows at a time, and exact
counts push float64 digits, one limb of each count per column (see
``chain._carries``).  Their sums stay exact float64 integers because
``chain._contract`` carries a block before any push that could take a
digit past 2**53.
A chain pushes ``chain.Relation`` links, which build a step only where
this product is the cheaper kernel; ``chain``'s module docstring
describes the kernels.

Every step is one relation

    compatible(u, v)  <=>  f(u) & g(v) == 0

for a pair of bit-spreading maps f, g, which ``compatible`` tests with
vectorized mask arithmetic, for build_step and ``chain``'s folded steps.
The maps themselves, one per lattice family, live in ``chain``.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Callable

import numpy as np

from .statespace import StateSpace

__all__ = [
    "StepMatrix",
    "build_step",
]

Spread = Callable[[np.ndarray], np.ndarray]

# Entries per block whenever a whole-step array is worked on a block at
# a time (compatible's int64 intermediate, push's float64 rows): 2**15
# entries is 256 KiB, which stays in cache, and is small enough that
# freeing it strands no large block in the allocator's heap, so peak
# memory does not depend on job order.
BLOCK_ENTRIES = 1 << 15


# eq=False: an array field has no single truth value under ==, so steps
# compare (and hash) by identity.
@dataclass(frozen=True, eq=False)
class StepMatrix:
    """One transfer step: a 0/1 matrix, rows x cols.

    ``array`` is the only stored form, a read-only 2-D numpy bool array,
    so a step is 0/1 by type; every other form is derived from it on
    demand, and ``push`` is its only product.
    """

    rows: StateSpace
    cols: StateSpace
    array: np.ndarray

    def __post_init__(self) -> None:
        a = np.asarray(self.array)
        if a.dtype != bool:
            raise ValueError(f"entries must be bools, got {a.dtype}")
        if a.shape != self.shape:
            raise ValueError(f"entries of shape {a.shape} do not match {self.shape}")
        a = a.view()
        a.flags.writeable = False
        object.__setattr__(self, "array", a)

    @property
    def shape(self) -> tuple[int, int]:
        return len(self.rows), len(self.cols)

    @cached_property
    def entries(self) -> tuple[tuple[int, ...], ...]:
        """Exact tuple-of-Python-ints view, for printing and tests."""
        return tuple(map(tuple, self.array.astype(np.int64).tolist()))

    @cached_property
    def dense(self) -> np.ndarray:
        """float64 copy of the whole step.

        Eight bytes per entry; push converts a block of rows at a time
        instead.
        """
        return self.array.astype(np.float64)

    def transposed(self) -> "StepMatrix":
        """The transpose, as a C-contiguous copy so its row blocks are whole."""
        return StepMatrix(self.cols, self.rows, np.ascontiguousarray(self.array.T))

    def push(self, block: np.ndarray) -> np.ndarray:
        """array @ block in float64, for a vector or a stack of vectors
        indexed by cols along axis 0, converting a block of rows at a time."""
        block = np.asarray(block, dtype=np.float64)
        if len(block) != self.array.shape[1]:
            raise ValueError("vector length does not match column space")
        return blocked_product(self.array, block)


def blocked_product(array: np.ndarray, block: np.ndarray) -> np.ndarray:
    """array @ block in float64, for a float64 vector or stack of vectors
    indexed by array's columns along axis 0, BLOCK_ENTRIES entries of
    array's rows at a time: each block of a bool array is converted to
    float64 on its own, and each product stays small."""
    flat = block.reshape(len(block), -1)
    out = np.empty((len(array), flat.shape[1]))
    step = max(1, BLOCK_ENTRIES // len(flat))
    for i in range(0, len(out), step):
        np.matmul(np.asarray(array[i:i + step], dtype=np.float64), flat, out=out[i:i + step])
    return out.reshape((len(out),) + block.shape[1:])


def build_step(
    rows: StateSpace,
    cols: StateSpace,
    row_spread: Spread | None = None,
    col_spread: Spread | None = None,
) -> StepMatrix:
    """Fill a 0/1 step matrix from a pair of bit-spreading maps.

    Entry (u, v) is 1 iff row_spread(u) & col_spread(v) == 0, with a
    missing spread meaning the identity.  A spread maps an int64 array
    of masks to the masks of the sites they touch.
    """
    fr = row_spread(rows.masks) if row_spread else rows.masks
    fc = col_spread(cols.masks) if col_spread else cols.masks
    return StepMatrix(rows, cols, compatible(fr, fc))


def compatible(fr: np.ndarray, fc: np.ndarray) -> np.ndarray:
    """Bools len(fr) x len(fc), entry (i, j) fr[i] & fc[j] == 0, for int64
    spread masks, BLOCK_ENTRIES entries of int64 intermediate at a time."""
    ok = np.empty((len(fr), len(fc)), dtype=bool)
    block = max(1, BLOCK_ENTRIES // len(fc))
    for i in range(0, len(fr), block):
        np.equal(fr[i:i + block, None] & fc, 0, out=ok[i:i + block])
    return ok

