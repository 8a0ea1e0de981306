"""State spaces for lattice transfer matrices.

A slice (one column or one row) of an independent set is a 0/1 vector
b1..bL stored as a bit mask, with b1 in the lowest bit: site i of the
slice is bit i-1 of the mask.  Four admissibility rules cover all the
lattice families in this package:

* PATH    no two adjacent sites occupied (slices with internal path edges),
* CYCLE   the same cyclically (slices that wrap around a cylinder),
* FREE    no internal edges, every 0/1 vector admissible,
* PAIRED  even length, sites 2k-1 and 2k never both occupied.

Path spaces have Fibonacci many states (F[L+2] with F0=0, F1=1), cycle
spaces Lucas many (F[L-1] + F[L+1]), paired spaces 3**(L/2) and free
spaces 2**L.

A space stores its masks once, as a strictly increasing, read-only int64
numpy array, and every transfer matrix in this package is indexed in
that order.  A space from ``enumerate_states`` holds every admissible
mask of its kind and length, and one such space is shared per
(kind, length).  Spaces compare by identity, so a cache keyed on a
shared space is in effect keyed on its (kind, length).
"""
from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import lru_cache

import numpy as np

__all__ = [
    "StateKind",
    "StateSpace",
    "enumerate_states",
    "is_admissible",
    "state_count",
]

# Enumeration materializes all 2**L candidate masks before filtering, so it
# is capped well below the point where that stops being a desk-scale array.
MAX_ENUM_LENGTH = 22


class StateKind(Enum):
    PATH = "path"
    CYCLE = "cycle"
    FREE = "free"
    PAIRED = "paired"


def _pair_conflict_mask(length: int) -> int:
    """Bits 0, 2, 4, ... below ``length``; used to test pair occupancy."""
    m = 0
    for i in range(0, length, 2):
        m |= 1 << i
    return m


def is_admissible(kind: StateKind, mask: int, length: int) -> bool:
    """Whether ``mask`` is an allowed slice configuration.

    The caller is responsible for ``mask`` fitting in ``length`` bits;
    stray high bits make the answer meaningless.
    """
    if kind is StateKind.FREE:
        return True
    if kind is StateKind.PATH:
        return mask & (mask >> 1) == 0
    if kind is StateKind.CYCLE:
        if mask & (mask >> 1):
            return False
        return not (mask & 1 and (mask >> (length - 1)) & 1)
    if kind is StateKind.PAIRED:
        return mask & (mask >> 1) & _pair_conflict_mask(length) == 0
    raise ValueError(f"unknown state kind {kind!r}")


# eq=False: an array field has no single truth value under ==, so spaces
# compare (and hash) by identity.
@dataclass(frozen=True, eq=False)
class StateSpace:
    """Slice configurations of one kind and length, indexing one side of
    a step.

    ``masks`` is the only stored form, a strictly increasing, read-only
    1-D int64 numpy array.  A space from ``enumerate_states`` holds every
    admissible mask and is shared per (kind, length);
    ``chain.orbit_steps`` builds spaces that hold only the orbit
    representatives of such a space.
    """

    kind: StateKind
    length: int
    masks: np.ndarray

    def __post_init__(self) -> None:
        m = np.asarray(self.masks)
        if m.dtype != np.int64 or m.ndim != 1:
            raise ValueError(f"masks must be a 1-D int64 array, got {m.dtype} of {m.ndim} dims")
        if not (m[1:] > m[:-1]).all():
            raise ValueError("masks must be strictly increasing")
        m = m.view()
        m.flags.writeable = False
        object.__setattr__(self, "masks", m)

    def __len__(self) -> int:
        return len(self.masks)


def state_count(kind: StateKind, length: int) -> int:
    """Cardinality of a state space by closed form, without enumerating.

    Safe at any length, unlike enumerate_states.
    """
    if length < 1:
        raise ValueError("length must be at least 1")
    if kind is StateKind.FREE:
        return 2**length
    if kind is StateKind.PAIRED:
        if length % 2:
            raise ValueError("paired spaces need an even length")
        return 3 ** (length // 2)
    if kind is StateKind.PATH:
        return fibonacci(length + 2)
    if kind is StateKind.CYCLE:
        if length < 3:
            raise ValueError("cycle spaces need length >= 3")
        return fibonacci(length - 1) + fibonacci(length + 1)  # Lucas(length)
    raise ValueError(f"unknown state kind {kind!r}")


@lru_cache(maxsize=None)
def fibonacci(n: int) -> int:
    """F[n], with F0=0 and F1=1, kept per n: the closed forms of path and
    cycle spaces (``state_count``) and of their orbits
    (``chain._orbit_count``) read it."""
    a, b = 0, 1
    for _ in range(n):
        a, b = b, a + b
    return a


def enumerate_states(kind: StateKind, length: int) -> StateSpace:
    """Enumerate a state space in increasing mask order.

    CYCLE needs length >= 3 (shorter cycles are not simple graphs) and
    PAIRED needs an even length.  Lengths past MAX_ENUM_LENGTH are
    refused; nothing in this package needs spaces that cannot be held
    in memory as explicit mask arrays.  Each (kind, length) is
    enumerated once and its space shared by every call, however the
    arguments are passed; the 64 most recently used are kept.
    """
    return _enumerate(kind, length)


@lru_cache(maxsize=64)
def _enumerate(kind: StateKind, length: int) -> StateSpace:
    if not 1 <= length <= MAX_ENUM_LENGTH:
        raise ValueError(f"length {length} outside 1..{MAX_ENUM_LENGTH}")
    if kind is StateKind.CYCLE and length < 3:
        raise ValueError("cycle spaces need length >= 3")
    if kind is StateKind.PAIRED and length % 2:
        raise ValueError("paired spaces need an even length")

    masks = np.arange(2**length, dtype=np.int64)
    if kind is StateKind.PATH:
        masks = masks[(masks & (masks >> 1)) == 0]
    elif kind is StateKind.CYCLE:
        keep = (masks & (masks >> 1)) == 0
        keep &= ~(((masks & 1) == 1) & ((masks >> (length - 1)) == 1))
        masks = masks[keep]
    elif kind is StateKind.PAIRED:
        masks = masks[(masks & (masks >> 1) & _pair_conflict_mask(length)) == 0]
    elif kind is not StateKind.FREE:
        raise ValueError(f"unknown state kind {kind!r}")

    space = StateSpace(kind, length, masks)
    # Cheap structural self-check; the closed forms are well known.
    assert len(space) == state_count(kind, length)
    return space
