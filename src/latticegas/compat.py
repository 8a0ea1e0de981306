"""Compatibility matrices between consecutive lattice slices.

A step matrix has one row per state of the outgoing slice and one
column per state of the incoming slice; the entry is 1 when the two
configurations can sit next to each other and 0 when some occupied
pair of sites would touch.  A step is stored once, as that 0/1 numpy
array; pushing a vector through it accumulates exact Python ints, so
counts never round or wrap.

Every relation used here can be written as

    compatible(u, v)  <=>  f(u) & g(v) == 0

for some bit-spreading maps f, g, which is what build_step exploits
to fill whole matrices with vectorized mask arithmetic.
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
    "orthogonal_step",
    "crossed_step",
    "staggered_step",
    "paired_step",
]

Spread = Callable[[np.ndarray, int], np.ndarray]

# Entries per block of rows whenever a whole-step array is worked on a
# block at a time (build_step's int64 intermediate, spectral's float64
# rows): 2**15 entries is 256 KiB of int64 or float64, which stays in
# cache, and is small enough that freeing it strands no large block in
# the allocator's heap, so peak memory does not depend on job order.
BLOCK_ENTRIES = 1 << 15


def _rotl(x: np.ndarray, length: int) -> np.ndarray:
    wrap = (1 << length) - 1
    return ((x << 1) | (x >> (length - 1))) & wrap


def _rotr(x: np.ndarray, length: int) -> np.ndarray:
    wrap = (1 << length) - 1
    return ((x >> 1) | (x << (length - 1))) & wrap


# eq=False: an array field has no single truth value under ==, so steps
# compare (and hash) by identity.
@dataclass(frozen=True, eq=False)
class StepMatrix:
    """One transfer step: a nonnegative integer matrix, rows x cols.

    ``array`` is the only stored form, a read-only 2-D numpy array of
    bools (the 0/1 steps build_step fills) or integers (products of
    steps); every other form is derived from it on demand.
    """

    rows: StateSpace
    cols: StateSpace
    array: np.ndarray

    def __post_init__(self) -> None:
        a = np.asarray(self.array)
        if a.dtype.kind not in "bi":
            raise ValueError(f"entries must be bools or int64-sized ints, got {a.dtype}")
        if a.shape != self.shape:
            raise ValueError(f"entries of shape {a.shape} do not match {self.shape}")
        if a.min(initial=0) < 0:
            raise ValueError("entries must be nonnegative")
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

        Eight bytes per entry; spectral work converts a block of rows at
        a time instead.
        """
        return self.array.astype(np.float64)

    @cached_property
    def _row_columns(self) -> tuple[list[int], ...]:
        """Per row, each column index repeated as often as its entry, so
        push adds without multiplying (0/1 rows list their nonzeros)."""
        cols = np.arange(len(self.cols))
        return tuple(np.repeat(cols, r).tolist() for r in self.array)

    def transposed(self) -> "StepMatrix":
        return StepMatrix(self.cols, self.rows, self.array.T)

    def __matmul__(self, other: "StepMatrix") -> "StepMatrix":
        if self.cols is not other.rows and self.cols.masks != other.rows.masks:
            raise ValueError("inner state spaces do not match")
        a, b = self.array, other.array
        if int(a.max(initial=0)) * int(b.max(initial=0)) * len(self.cols) >= 2**63:
            raise ValueError("product entries could pass 2**63")
        return StepMatrix(self.rows, other.cols, a.astype(np.int64) @ b.astype(np.int64))

    def push(self, vec: list[int]) -> list[int]:
        """Exact vector-matrix product: vec (indexed by rows) -> cols."""
        if len(vec) != len(self.rows):
            raise ValueError("vector length does not match row space")
        out = [0] * len(self.cols)
        for x, cols in zip(vec, self._row_columns):
            if x:
                for j in cols:
                    out[j] += x
        return out


def compose(steps: "list[StepMatrix] | tuple[StepMatrix, ...]") -> StepMatrix:
    """Exact product of a sequence of steps, left to right."""
    if not steps:
        raise ValueError("nothing to compose")
    acc = steps[0]
    for s in steps[1:]:
        acc = acc @ s
    return acc


def build_step(
    rows: StateSpace,
    cols: StateSpace,
    row_spread: Spread | None = None,
    col_spread: Spread | None = None,
) -> StepMatrix:
    """Fill a 0/1 step matrix from a pair of bit-spreading maps.

    Entry (u, v) is 1 iff row_spread(u) & col_spread(v) == 0, with a
    missing spread meaning the identity.  The spreads receive the mask
    array and the length of the *other* slice, since that is the space
    the spread bits land in.
    """
    rm = np.array(rows.masks, dtype=np.int64)
    cm = np.array(cols.masks, dtype=np.int64)
    fr = row_spread(rm, cols.length) if row_spread else rm
    fc = col_spread(cm, rows.length) if col_spread else cm
    ok = np.empty((len(fr), len(fc)), dtype=bool)
    block = max(1, BLOCK_ENTRIES // len(fc))
    for i in range(0, len(fr), block):
        np.equal(fr[i:i + block, None] & fc, 0, out=ok[i:i + block])
    return StepMatrix(rows, cols, ok)


def orthogonal_step(rows: StateSpace, cols: StateSpace) -> StepMatrix:
    """Plain adjacency: site i of one slice touches site i of the next."""
    if rows.length != cols.length:
        raise ValueError("orthogonal slices must have equal length")
    return build_step(rows, cols)


def crossed_step(rows: StateSpace, cols: StateSpace, wrap: bool = False) -> StepMatrix:
    """Adjacency with both diagonals: site i touches sites i-1, i, i+1.

    With wrap=True the offsets are taken cyclically, for slices that
    run around a cylinder.
    """
    if rows.length != cols.length:
        raise ValueError("crossed slices must have equal length")
    L = rows.length
    if wrap:
        def spread(u: np.ndarray, _: int) -> np.ndarray:
            return u | _rotl(u, L) | _rotr(u, L)
    else:
        def spread(u: np.ndarray, _: int) -> np.ndarray:
            lid = (1 << L) - 1
            return (u | (u << 1) | (u >> 1)) & lid
    return build_step(rows, cols, row_spread=spread)


def staggered_step(rows: StateSpace, cols: StateSpace, lean: int = 1) -> StepMatrix:
    """Half-offset adjacency: row site i touches column sites i and i+lean.

    Open slices differ in length by one and lean is forced by which
    side is shorter (the short slice leans into the long one).  Equal
    lengths mean wrapped slices, where lean = +1 or -1 picks which way
    the diagonal goes around.
    """
    if abs(lean) != 1:
        raise ValueError("lean must be +1 or -1")
    L_r, L_c = rows.length, cols.length
    if L_c == L_r + 1:
        def spread(u: np.ndarray, _: int) -> np.ndarray:
            return u | (u << 1)
        return build_step(rows, cols, row_spread=spread)
    if L_r == L_c + 1:
        def spread(u: np.ndarray, _: int) -> np.ndarray:
            lid = (1 << L_c) - 1
            return (u | (u >> 1)) & lid
        return build_step(rows, cols, row_spread=spread)
    if L_r == L_c:
        rot = _rotl if lean > 0 else _rotr
        def spread(u: np.ndarray, _: int) -> np.ndarray:
            return u | rot(u, L_r)
        return build_step(rows, cols, row_spread=spread)
    raise ValueError("staggered slices must differ in length by at most one")


def _pack_pairs(masks: np.ndarray, pairs: int) -> tuple[np.ndarray, np.ndarray]:
    """Compress a 2p-site paired mask into (first members, second members)."""
    lo = np.zeros_like(masks)
    hi = np.zeros_like(masks)
    for k in range(pairs):
        lo |= ((masks >> (2 * k)) & 1) << k
        hi |= ((masks >> (2 * k + 1)) & 1) << k
    return lo, hi


def paired_step(rows: StateSpace, cols: StateSpace, wrap: bool = False) -> StepMatrix:
    """Paired slice against a plain one: pair k's first member touches
    site k, its second member touches site k+1.

    Open columns have one more site than there are pairs, so the last
    pair's second member touches the extra end site.  Wrapped columns
    have exactly one site per pair and k+1 is taken mod p.
    """
    if rows.length % 2:
        raise ValueError("paired slice needs an even length")
    p = rows.length // 2
    want = p if wrap else p + 1
    if cols.length != want:
        raise ValueError(f"plain slice must have {want} sites, got {cols.length}")

    def spread(u: np.ndarray, _: int) -> np.ndarray:
        lo, hi = _pack_pairs(u, p)
        if wrap:
            return lo | _rotl(hi, p)
        return lo | (hi << 1)

    return build_step(rows, cols, row_spread=spread)
