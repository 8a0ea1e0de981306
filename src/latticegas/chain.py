"""Transfer chains and exact counting for the four lattice families.

A chain is the short list of step matrices that advances the sweep by
one period.  Which states a slice may take is decided by the sweep
direction: columnwise slices are open cross sections, rowwise slices
wrap around the lattice, so their states and relations are cyclic.
The boundary tag records how a count closes the sweep: OPEN sums over
free ends (all-ones vectors on both sides), CYCLIC glues the last
slice to the first (a trace).

Families
--------
quadratic          square grid, slices are paths, one orthogonal step
crossed            square grid with both diagonals in every cell
aztec              diagonal grid; columns alternate short and long,
                   each period is a short-to-long step A and A^T
truncated-square   the 8.8.4 tiling; a period is a paired column and
                   two plain columns: steps B, C, B^T

``_period_slices`` states each family's geometry once, as the (kind,
length) of every slice a period lays down: which instances exist, their
vertices, chain shapes and the bounds' per-vertex exponents read it.

Every step is one ``build_step(rows, cols, f, g)``: entry (u, v) is 1
iff f(u) & g(v) == 0.  ``_spread`` gives each family's one map from the
period's first slice to the next; a return step (A^T, B^T) applies that
same map to its columns, so it is built, not copied from a transpose.
A chain holds each step as that ``Relation``, the one link type every
contraction pushes, and ``Relation.push`` takes one of three kernels,
whichever ``_push_costs`` prices lower for its stack: the step built on
first use (``Relation.built``), the folded step of an orbit relation
(below), or a subset-sum (zeta) transform over the L sites the spreads
touch ("Fourier meets Moebius: fast subset convolution", Bjoerklund et
al., STOC 2007).  The zeta push sums site by site: before
site i a key holds query sites below i and data sites from i up, and
next[k] = cur[k & ~bit_i] + (cur[k] if k has bit i else 0).  Its table
plan holds all 2**L keys, O(L * 2**L) per vector against rows * cols.
Its keys plan holds only the reachable ones, a prefix of some row's
~f(u) joined to a suffix of some column's g(v), and takes each level in
two gathers, the second for the keys with site i alone: a path or ring
slice of L sites has about F(L+2) states, so its levels hold a few per
cent of the table ("The 1-vertex transfer matrix and accurate
estimation of channel capacity", Friedland, Lundow, Markstroem, 2010).
A relation's plan follows the kind of slice its sites lie in
(``_KEYS_PLAN_KINDS``): the keys plan on path and ring slices, the
table on free and paired ones, where nearly every key is reachable.

Every step commutes with the symmetry of its slices (``_orbits``):
turning a wrapped slice by one site, or one pair on a paired slice, and
mirroring an open slice over its own length.  Lanczos iteration and open
counts push only vectors fixed by it, so they keep one entry per orbit
and push orbit relations (``orbit_steps``): each relation at its orbit
representatives' rows, taking a vector on its column orbits.  Such a
relation pushes by its folded step, F[u, o] = sum of S[u, v] over the
columns v of orbit o, held as float64 rows x orbits (the step's block
on the symmetric subspace: about half its columns on open slices, 1/L
on rings of L) and filled from masks, not from S; or where F would pass
STACK_ENTRIES entries or price higher, by the zeta push on the vector
unfolded to every column; never by its built step.  Traces push basis
vectors through whole relations, by the built step or the zeta push.

Counts are exact integers, each held as float64 digits in radix 2**b,
b as wide as the widest slice space leaves exact (``_radix``): a block
is rows x limbs x vectors, and a push takes every limb at once.  Only
before a push that could carry a digit past 2**53 does the block take
one parallel carry step (``_carry``), and only there does it add limbs,
as many as the bound on its values needs (``_carries``).  A trace
runs over the period's smallest slice space: tr(ABC) = tr(BCA).  It
pushes one basis vector per orbit of that space and weights its
diagonal entry by the orbit's size.
A count meets in the middle where its period reads the same backwards
(``_palindrome``), link i the transpose of link n-1-i, as S, A A^T and
B C B^T do: for a symmetric T, 1^T T^2k 1 = |T^k 1|^2 (Calkin and Wilf,
"The number of independent sets in a grid graph", 1998).  Its run of
N = links * periods links then pushes only ceil(N/2) of them, and the
two halves are joined by an exact dot (``_dot``), in float64 while
its sum stays below 2**53, else in int64 pieces of b/2 bits.  A
truncated-square trace starts at a plain space, where its order is
C B^T B, which reads otherwise; it and any hand-built period that is no
palindrome push all N links.
Each instance is counted once, by whichever of its two sweeps
``_sweep`` prices lowest, at the kernels and stacks its pushes take:
``_schedule`` states a contraction's plan once, from the sizes of its
slice spaces, and ``_price`` prices the plan ``_contract`` runs.

Each period is built once per process while it is in use: a chain from
``transfer_chain`` wraps the links ``_links`` keeps per (family,
direction, width), the CHAIN_CACHE_SIZE (4) most recently used, open
and cyclic chains alike, so counts, eig and the roots of ``bounds``
share them.  Only periods of at most CHAIN_CACHE_ENTRIES step entries
are kept; a wider one is built for each chain.
A kept relation keeps what it derives on first use: its built step,
folded step, zeta plan, the kernel it picked for each stack width, and
its orbit relation (``orbit_steps``), whose own state it keeps too; the
arrays are read-only, but for the keys plan's gathers, which only the
relation reads.  A zeta push allocates its own table or levels and
keeps none of them.  ``_price`` keeps the price of every sweep it has
priced.
"""
from __future__ import annotations

import itertools
import math
import operator
from collections import Counter
from dataclasses import dataclass
from enum import Enum
from functools import cached_property, lru_cache
from typing import Callable, Iterator, Sequence

import numpy as np

from .compat import BLOCK_ENTRIES, Spread, StepMatrix, blocked_product, build_step, compatible
from .statespace import MAX_ENUM_LENGTH, StateKind, StateSpace, enumerate_states, fibonacci, state_count

__all__ = [
    "Family",
    "Direction",
    "Boundary",
    "Topology",
    "TransferChain",
    "transfer_chain",
    "chain_dimensions",
    "LatticeInstance",
    "count_open",
    "count_cyclic",
    "count_lattice",
]


class Family(Enum):
    QUADRATIC = "quadratic"
    CROSSED = "crossed"
    AZTEC = "aztec"
    TRUNCATED_SQUARE = "truncated-square"


class Direction(Enum):
    COLUMNWISE = "columnwise"
    ROWWISE = "rowwise"


class Boundary(Enum):
    OPEN = "open"
    CYCLIC = "cyclic"


class Topology(Enum):
    PLANE = "plane"
    CYLINDER = "cylinder"
    TORUS = "torus"


# Smallest width for which the slice states make sense, per family and
# direction.  Rowwise slices wrap, so they need room for a simple cycle.
_MIN_WIDTH = {
    (Family.QUADRATIC, Direction.COLUMNWISE): 1,
    (Family.QUADRATIC, Direction.ROWWISE): 3,
    (Family.CROSSED, Direction.COLUMNWISE): 1,
    (Family.CROSSED, Direction.ROWWISE): 3,
    (Family.AZTEC, Direction.COLUMNWISE): 1,
    (Family.AZTEC, Direction.ROWWISE): 2,
    (Family.TRUNCATED_SQUARE, Direction.COLUMNWISE): 2,
    (Family.TRUNCATED_SQUARE, Direction.ROWWISE): 3,
}


# float64 entries of a trace's stack of basis vectors at its widest
# slice space, times its limbs, of a zeta push's table, and at most of
# a folded step: 2**19 entries is 4 MiB.
STACK_ENTRIES = 1 << 19


@dataclass(frozen=True, eq=False)
class Relation:
    """A step as its relation, built on demand: entry (u, v) of rows x
    cols is 1 iff f(u) & g(v) == 0, a missing spread being the identity.

    ``transfer_chain`` makes these only with spreads that commute with
    the slice symmetry: turning a wrapped slice (wrap), mirroring an open
    one.  A vector constant on the orbits of the columns is pushed to one
    constant on the orbits of the rows, so one row per orbit suffices.
    A relation ``on_orbits`` (``orbit_steps`` makes them) takes such a
    vector as one entry per column orbit, and pushes it by its folded
    step, filled from masks (``_folded``), or the zeta push, never by
    ``built``.  At most one side is spread, so both sides' masks lie in
    the ``bits`` sites of the side left as is.  Every chain of a period
    holds the same relations while ``_links`` keeps them, so each array
    a relation derives is read-only, but for the keys plan's gathers.
    """

    rows: StateSpace
    cols: StateSpace
    f: Spread | None
    g: Spread | None
    wrap: bool
    on_orbits: bool = False

    def __post_init__(self) -> None:
        if self.f is not None and self.g is not None:
            raise ValueError("a relation spreads at most one side")

    @property
    def bits(self) -> int:
        return self.cols.length if self.g is None else self.rows.length

    @cached_property
    def _dims(self) -> tuple[int, int, int]:
        """(rows, entries of a pushed vector, bits), read on every push: a
        vector has one entry per column, or per column orbit on_orbits."""
        cols = len(_orbits(self.cols, self.wrap)[1]) if self.on_orbits else len(self.cols)
        return len(self.rows), cols, self.bits

    @cached_property
    def _scatter(self) -> tuple[np.ndarray, np.ndarray | None, np.ndarray | None]:
        """(sites, order, starts): column v lands on site set g(v).  The
        identity needs only the sites; a spread sorts the columns by site
        (order) and sums the runs that begin at starts, one per site."""
        if self.g is None:
            return self.cols.masks, None, None
        sites = self.g(self.cols.masks)
        order = np.argsort(sites, kind="stable")
        sites = sites[order]
        starts = np.flatnonzero(np.r_[True, sites[1:] != sites[:-1]])
        sites = sites[starts]
        _frozen(sites, order, starts)
        return sites, order, starts

    @cached_property
    def _gather(self) -> np.ndarray:
        """The sites row u leaves free, ~f(u), as an index into 2**bits."""
        free = ~(self.f(self.rows.masks) if self.f else self.rows.masks) & ((1 << self.bits) - 1)
        _frozen(free)
        return free

    @cached_property
    def built(self) -> StepMatrix:
        """The whole step, built on first use."""
        return build_step(self.rows, self.cols, self.f, self.g)

    @cached_property
    def _folded(self) -> np.ndarray:
        """The folded step, float64 rows x column orbits: entry (u, o) sums
        the step's row u over the columns of orbit o.  It is filled from
        masks, with no whole step: ``compatible`` of the rows and each of
        the n images (``_images``) of the column orbits' representatives,
        summed as uint8, counts each column of orbit o n / size(o) times,
        and is divided by that."""
        _, reps, sizes = _orbits(self.cols, self.wrap)
        fr = self.f(self.rows.masks) if self.f else self.rows.masks
        out = np.zeros((len(fr), len(reps)), dtype=np.uint8)
        for n, image in enumerate(_images(self.cols.masks[reps], self.cols, self.wrap), 1):
            out += compatible(fr, self.g(image) if self.g else image).view(np.uint8)
        out //= (n // sizes).astype(np.uint8)
        folded = out.astype(np.float64)
        _frozen(folded)
        return folded

    @cached_property
    def _narrowed(self) -> Relation:
        """This relation at the rows of its orbit representatives, taking
        vectors on column orbits (``orbit_steps``): made on first use and
        kept with it, so a cached chain keeps its orbit plan."""
        _, reps, _ = _orbits(self.rows, self.wrap)
        rows = StateSpace(self.rows.kind, self.rows.length, self.rows.masks[reps])
        return Relation(rows, self.cols, self.f, self.g, self.wrap, on_orbits=True)

    @cached_property
    def _picks(self) -> dict[int, str]:
        """The kernel ``push`` takes for each stack width it has met."""
        return {}

    def _pick(self, stack: int) -> str:
        """The kernel ``push`` takes for a stack this wide, from ``_kernel``,
        priced on the first push of that width."""
        kernel = self._picks.get(stack)
        if kernel is None:
            rows, cols, bits = self._dims
            orbits = cols if self.on_orbits else None
            kernel = self._picks[stack] = _kernel(rows, len(self.cols), bits, stack, orbits, self.keys)[1]
        return kernel

    @property
    def keys(self) -> bool:
        """Whether the zeta push takes the keys plan: where the side left
        unspread, whose ``bits`` sites hold every mask, is a path or ring."""
        return (self.cols if self.g is None else self.rows).kind in _KEYS_PLAN_KINDS

    @cached_property
    def _zeta_plan(self) -> tuple[int, list[tuple[np.ndarray, np.ndarray]] | None]:
        """(entries per vector of the widest level the zeta push holds, the
        keys plan's gathers, or None for the table).  The gathers stay
        writable, read by ``_zeta`` alone: np.take copies an index array
        it may not write, about 11 us for 40,000 indices, an eighth of
        the quadratic w=15 eig."""
        sites, bits = self._scatter[0], self.bits
        if not self.keys:
            return 1 << bits, None
        gathers = _key_gathers(self._gather, sites, bits)
        return max([len(sites)] + [len(a) for a, _ in gathers[:-1]]) + 1, gathers

    def push(self, block: np.ndarray) -> np.ndarray:
        """The step times block, a vector or a stack of vectors indexed by cols
        (by column orbits on_orbits) along axis 0, by the kernel ``_pick``
        gives its stack width: ``built``, ``_fold``, or ``_zeta`` on chunks
        whose widest level holds STACK_ENTRIES entries or one vector, a
        vector on orbits first unfolded to every column."""
        block = np.asarray(block, dtype=np.float64)
        rows, cols, _ = self._dims
        if len(block) != cols:
            raise ValueError("vector length does not match column space")
        stack = block.size // cols
        kernel = self._pick(stack)
        if kernel == "built":
            return self.built.push(block)
        if kernel == "fold":
            return self._fold(block)
        if self.on_orbits:
            block = block[_orbits(self.cols, self.wrap)[0]]
        k = max(1, STACK_ENTRIES // self._zeta_plan[0])
        if stack <= k:  # one chunk; a lone vector stays 1-D, which numpy indexes fastest
            return self._zeta(block)
        flat = block.reshape(len(block), -1)
        out = np.hstack([self._zeta(flat[:, s:s + k]) for s in range(0, stack, k)])
        return out.reshape((rows,) + block.shape[1:])

    def _fold(self, block: np.ndarray) -> np.ndarray:
        """The step times block on column orbits, by the folded step, a
        block of its rows at a time, as a built step's push is.  Entry
        (u, o) of ``_folded`` counts the 1s of row u in orbit o, so a row
        sums at most len(cols) entries of block, as the step's does."""
        return blocked_product(self._folded, block)

    def _zeta(self, block: np.ndarray) -> np.ndarray:
        """The step times block, unbuilt: row u sums x[v] over the v with
        g(v) inside ~f(u).  Scatter x onto the data sites y[g(v)], take the
        subset sums of y one site at a time, and read them at ~f(u).  Each
        sum adds at most len(cols) entries of x, as the step's product
        does, so digits that ``_carries`` keeps exact stay exact.

        After site i, the entry at key k sums y[T] over the T that agree
        with k on the sites from i up and lie inside k below i, so site i
        takes next[k] = cur[k & ~bit_i] + (cur[k] if k has bit i else 0).
        The table plan holds all 2**bits keys, half-adding in place:
        O(bits * 2**bits) per vector where the step has rows * cols
        entries.  The keys plan holds only the keys whose sites below i
        are those of some row's ~f(u) and whose sites from i up are those
        of some column's g(v), and takes each level in two gathers
        (``_key_gathers``).
        """
        sites, order, starts = self._scatter
        y = block if order is None else np.add.reduceat(block[order], starts, axis=0)
        widest, levels = self._zeta_plan
        if levels is not None:
            # three levels, taken in turn: the current, the next, and the second gather
            cur, nxt, other = np.empty((3, widest) + y.shape[1:])
            cur[: len(y)] = y
            cur[len(y)] = 0  # the last key is a zero
            for a, b in levels[:-1]:
                n, m = len(a), len(b)
                np.take(cur, a, axis=0, out=nxt[:n], mode="clip")
                np.take(cur, b, axis=0, out=other[:m], mode="clip")
                nxt[n - m:n] += other[:m]
                nxt[n] = 0
                cur, nxt = nxt, cur
            a, b = levels[-1]
            out = np.take(cur, a, axis=0, mode="clip")
            out += np.take(cur, b, axis=0, mode="clip")
            return out
        table = np.zeros((1 << self.bits,) + block.shape[1:])
        table[sites] = y
        flat = table.reshape(len(table), -1)
        # A lone vector's lowest sites have strides too short for numpy to
        # add quickly; one product with their subset matrix takes them all.
        low = min(_LOW_SITES, self.bits) if flat.shape[1] == 1 else 0
        for j in range(low, self.bits):
            half = flat.reshape(-1, 2, flat.shape[1] << j)  # axis 1 is site j
            half[:, 1] += half[:, 0]
        if low:
            flat = flat.reshape(-1, 1 << low) @ _SUBSETS[: 1 << low, : 1 << low]
        return flat.reshape(table.shape)[self._gather]


def _frozen(*arrays: np.ndarray) -> None:
    """Mark arrays read-only: a relation's derived arrays are shared by
    every chain that holds it (``transfer_chain``)."""
    for a in arrays:
        a.flags.writeable = False


# Entry (t, s) is 1 iff t is a subset of s, over the _LOW_SITES lowest sites.
_LOW_SITES = 4
_SUBSETS = np.array([[float(t & s == t) for s in range(1 << _LOW_SITES)] for t in range(1 << _LOW_SITES)])

# The slice kinds whose relations take the keys plan: a path or ring of
# L sites has about F(L+2) states, so it reaches a few per cent of the
# 2**L keys, where a free or paired slice reaches nearly every one.
_KEYS_PLAN_KINDS = frozenset({StateKind.PATH, StateKind.CYCLE})


def _distinct(values: np.ndarray) -> np.ndarray:
    """The distinct values, sorted (``np.unique`` without its imports)."""
    values = np.sort(values)
    return values[np.r_[True, values[1:] != values[:-1]]]


def _key_gathers(queries: np.ndarray, sites: np.ndarray, bits: int) -> list[tuple[np.ndarray, np.ndarray]]:
    """The keys plan: two gathers per site that take its level before the
    site to the next, next = cur[a], then cur[b] added to next's tail.

    The level before site i holds the keys (p, s) of every distinct
    query ~f(u) on the sites below i, p, and every distinct site set
    g(v) on the sites from i up, shifted down by i, s.  It lays them out
    prefix-major, key (p, s) at p * len(S) + s, and ends with one zero,
    where every key missing from it reads.  New key (p', s') at site i
    reads (p' below i, s' * 2) and, if p' has bit i, (p' below i,
    s' * 2 + 1).  Prefixes are sorted, so the keys whose p' has bit i are
    the level's tail, and b reads for them alone.  The last level's
    prefixes are the queries themselves, in row order, so its gathers
    read the rows, and its b reads for every row: the zero where the
    query lacks bit i.
    """
    gathers = []
    prefixes, suffixes = np.zeros(1, dtype=np.int64), sites
    for i in range(bits):
        last = i == bits - 1
        new_prefixes = queries if last else _distinct(queries & ((2 << i) - 1))
        new_suffixes = _distinct(sites >> (i + 1))
        zero = len(prefixes) * len(suffixes)
        p = np.searchsorted(prefixes, new_prefixes & ((1 << i) - 1))[:, None] * len(suffixes)
        high = (new_prefixes >> i & 1).astype(bool)[:, None]
        pair = []
        for bit in (0, 1):
            t = new_suffixes << 1 | bit
            s = np.minimum(np.searchsorted(suffixes, t), len(suffixes) - 1)
            found = suffixes[s] == t
            if bit:
                if last:
                    found = found & high
                else:  # the tail of prefixes with bit i
                    p = p[len(p) - np.count_nonzero(high):]
            pair.append(np.where(found, p + s, zero).ravel())
        gathers.append(tuple(pair))
        prefixes, suffixes = new_prefixes, new_suffixes
    return gathers


def _push_costs(
    rows: int, cols: int, bits: int, stack: int, orbits: int | None = None, keys: bool = False
) -> tuple[float, float]:
    """Estimated nanoseconds of one push of a stack ``stack`` vectors
    wide through a rows x cols relation on ``bits`` sites: (product,
    zeta push).  The product is the built step's, or, given the column
    orbits a vector holds, the folded step's (``Relation._fold``).

    A built step converts each entry to float64 and multiplies it into
    every vector; a folded one is float64 already, rows x orbits.  The
    zeta push adds one half of a 2**bits table into the other once per
    site, with a fixed numpy overhead per site, and scatters and gathers
    every vector.  The built and zeta constants are fitted to
    single-threaded timings of both pushes through 323 links of all four
    families and stacks 1 to 25 wide (2-vCPU x86-64 VM); summed over
    those links, the pushes they pick take about 1% longer than the
    faster ones.  The folded ones are fitted to timings of the folded
    and zeta pushes of 150 orbit relations of all four families at
    stacks 1 to 40 (same VM, numpy's default threads), where the picks
    take 0.3% longer than the faster pushes.  At an exact count's limbs,
    two vectors or more, the table plan costs about 5.4 ns an entry of
    the half table a site whatever the stack (refitted to 1,100 timings);
    a lone vector keeps its fit, as does a relation on the keys plan
    (``keys``), to which the table's price is an upper bound.
    """
    if orbits is None:
        dense = rows * cols * (0.6 + 0.05 * stack)
    else:
        dense = rows * orbits * (0.2 + 0.045 * stack)
    half = bits * 2 ** (bits - 1)
    touched = rows + cols + 2**bits
    if stack == 1 or keys:
        zeta = half * (0.1 + stack) + 3 * touched * stack + 3000 * bits + 5000
    else:
        zeta = half * (5.4 + 0.86 * stack) + 0.83 * touched * stack + 3900 * bits + 1300
    return dense, zeta


# float64 entries a folded step may hold where that is more than the
# bytes of the bool step it folds: 2**17 entries is 1 MiB.
FOLD_ENTRIES = 1 << 17


def _kernel(
    rows: int, cols: int, bits: int, stack: int, orbits: int | None = None, keys: bool = False
) -> tuple[float, str]:
    """(estimated nanoseconds, kernel) of the push a relation takes for a
    stack this wide, from ``_push_costs``: a whole relation's built step
    or zeta push; a relation on ``orbits`` column orbits takes its folded
    step, or else the zeta push, and never its built step.

    A folded step is taken where it is priced no dearer and holds at
    most STACK_ENTRIES entries, and no more bytes than the bool step it
    folds or FOLD_ENTRIES entries.  It holds 8 bytes per entry of rows x
    orbits: on a ring of L sites 8/L of the bool step's bytes, on a
    mirrored slice 4 times them (truncated-square strip 8's 136 x 1107
    fold would hold 1.2 MB for a 0.3 MB step)."""
    dense, zeta = _push_costs(rows, cols, bits, stack, orbits, keys)
    if orbits is None:
        return (dense, "built") if dense <= zeta else (zeta, "zeta")
    room = min(STACK_ENTRIES, max(FOLD_ENTRIES, rows * cols // 8))
    return (dense, "fold") if dense <= zeta and rows * orbits <= room else (zeta, "zeta")


@dataclass(frozen=True)
class TransferChain:
    """One period of a sweep: one ``Relation`` per step."""

    family: Family
    direction: Direction
    boundary: Boundary
    width: int
    links: tuple[Relation, ...]

    def __post_init__(self) -> None:
        if not self.links:
            raise ValueError("empty chain")
        for link in self.links:
            if not isinstance(link, Relation):
                raise TypeError(f"a chain's links are chain.Relation, got {type(link).__name__}")

    @property
    def steps(self) -> tuple[StepMatrix, ...]:
        """The whole step of every link: each relation's ``built``."""
        return tuple(link.built for link in self.links)

    @property
    def entry_space(self) -> StateSpace:
        return self.links[0].rows

    @property
    def exit_space(self) -> StateSpace:
        return self.links[-1].cols

    @property
    def period_sites(self) -> int:
        """Lattice sites laid down by one period of the chain."""
        return _period_sites(self.family, self.direction, self.width)


@lru_cache(maxsize=None)
def _period_slices(
    family: Family, direction: Direction, width: int
) -> tuple[tuple[StateKind, int], ...]:
    """(kind, length) of each slice one period lays down, in sweep order.

    Step i of the chain runs from slice i to slice i+1, and the last
    step back to slice 0.
    """
    lo = _MIN_WIDTH[(family, direction)]
    if width < lo:
        raise ValueError(
            f"{family.value} {direction.value} chains need width >= {lo}, got {width}"
        )
    wrap = direction is Direction.ROWWISE
    if family in (Family.QUADRATIC, Family.CROSSED):
        return ((StateKind.CYCLE, width) if wrap else (StateKind.PATH, width + 1),)
    if family is Family.AZTEC:
        return (StateKind.FREE, width), (StateKind.FREE, width if wrap else width + 1)
    p = width - 1
    plain = (StateKind.FREE, p if wrap else p + 1)
    return (StateKind.PAIRED, 2 * p), plain, plain


@lru_cache(maxsize=None)
def _period_sites(family: Family, direction: Direction, width: int) -> int:
    """Sites one period lays down: the lengths of ``_period_slices``."""
    return sum(length for _, length in _period_slices(family, direction, width))


def _rot(x: np.ndarray, length: int, s: int) -> np.ndarray:
    """Masks of ``length`` sites turned s sites up, 0 <= s < length."""
    return ((x << s) | (x >> (length - s))) & ((1 << length) - 1)


# every byte with its 8 bits in reverse order
_REVERSED_BYTES = np.array([int(f"{b:08b}"[::-1], 2) for b in range(256)], dtype=np.int64)


def _mirror(x: np.ndarray, length: int) -> np.ndarray:
    """Masks with their ``length`` bits in reverse order."""
    out = np.zeros_like(x)
    for shift in range(0, length, 8):
        out = (out << 8) | _REVERSED_BYTES[(x >> shift) & 255]
    return out >> (-length % 8)


def _images(masks: np.ndarray, space: StateSpace, wrap: bool) -> Iterator[np.ndarray]:
    """Each image of masks of this space under its symmetry, one element
    at a time, the identity first, so no caller holds them all: turned by
    0, 1, ... units of a wrapped slice (sites, or pairs on a PAIRED
    space); as they are and mirrored on an open one."""
    L = space.length
    if wrap:
        for s in range(0, L, 2 if space.kind is StateKind.PAIRED else 1):
            yield _rot(masks, L, s)
    else:
        yield masks
        yield _mirror(masks, L)


@lru_cache(maxsize=64)
def _orbits(space: StateSpace, wrap: bool) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(orbit index of every state, representative index of every orbit,
    orbit sizes) of a slice space under its symmetry (``_images``):
    turning a wrapped slice by one site, or by one pair on a PAIRED
    space; mirroring an open one over its own length.

    A representative is the smallest mask of its orbit, and orbits are
    numbered in the order of their representatives, each state's least
    image found by a running minimum over the images.  A least image
    that is not a mask of the space is refused: the symmetry must map
    the space to itself.  The arrays are cached read-only, keyed on the
    space, which ``enumerate_states`` shares per (kind, length): a sweep
    over many small instances meets the same few spaces in every count.
    """
    masks = space.masks
    least = masks.copy()
    for image in _images(masks, space, wrap):
        np.minimum(least, image, out=least)
    reps = np.flatnonzero(masks == least)
    of = np.searchsorted(masks[reps], least)
    if not np.array_equal(np.append(masks[reps], -1)[of], least):  # -1 is no mask
        raise ValueError(
            f"a state's least image is not a mask of the {space.kind.value} space of "
            f"{space.length} sites: its symmetry does not map the space to itself"
        )
    found = of, reps, np.bincount(of)
    for a in found:
        a.flags.writeable = False
    return found


@lru_cache(maxsize=None)
def _orbit_count(kind: StateKind, length: int, wrap: bool) -> int:
    """The number of orbits ``_orbits`` finds in a (kind, length) space
    of a chain (paths are open, cycles wrapped), from closed forms,
    without enumerating it: by Burnside's lemma, the mean over the
    symmetry's elements of the states each one fixes."""
    if not wrap:  # the identity fixes every state, the mirror the palindromes
        h = length // 2
        if kind is StateKind.FREE:
            fixed = 2 ** (length - h)
        elif kind is StateKind.PAIRED:  # a middle pair fixed by the swap is empty
            fixed = 3 ** (h // 2)
        else:  # a path's first half, whose last site stays empty at even length
            fixed = fibonacci(h + 3) if length % 2 else fibonacci(h + 1)
        return (state_count(kind, length) + fixed) // 2
    # turning by j of the n units (sites, or pairs on a PAIRED space)
    # fixes the states that repeat a ring of gcd(j, n) units
    n = length // 2 if kind is StateKind.PAIRED else length

    def ring(d: int) -> int:
        if kind is StateKind.FREE:
            return 2**d
        if kind is StateKind.PAIRED:
            return 3**d
        return fibonacci(d - 1) + fibonacci(d + 1)  # Lucas(d)

    return sum(ring(math.gcd(j, n)) for j in range(n)) // n


@lru_cache(maxsize=None)
def _spread(family: Family, wrap: bool, length: int) -> Spread | None:
    """Map a mask of the period's first slice (``length`` sites) to the
    sites it touches in the next slice; None means the identity.  One
    map is kept per (family, wrap, length), so ``_symmetric`` tests each
    once.

    Site i touches site i for quadratic; i-1, i and i+1 for crossed;
    i and i+1 for aztec (i-1 and i wrapped); and for truncated-square
    pair k's first member touches site k, its second site k+1, so pair
    k's two bits shift down k places together.  Wrapped offsets are
    taken mod the next slice's length (a wrapped paired spread folds
    site p back to site 0), open ones are cut to it.
    """
    L = length
    if family is Family.QUADRATIC:
        return None
    if family is Family.CROSSED:
        if wrap:
            return lambda u: u | _rot(u, L, 1) | _rot(u, L, L - 1)
        return lambda u: (u | (u << 1) | (u >> 1)) & ((1 << L) - 1)
    if family is Family.AZTEC:
        if wrap:
            return lambda u: u | _rot(u, L, L - 1)
        return lambda u: u | (u << 1)
    p = L // 2

    def paired(u: np.ndarray) -> np.ndarray:
        out = u & 3
        for k in range(1, p):
            out |= (u & 3 << 2 * k) >> k
        return (out | out >> p) & ((1 << p) - 1) if wrap else out

    return paired


def transfer_chain(
    family: Family,
    direction: Direction,
    width: int,
    boundary: Boundary = Boundary.OPEN,
) -> TransferChain:
    """Build the one-period step list for a family at a given width.

    Width counts in the family's own units: the number of sites on a
    quadratic or crossed slice's underlying path/cycle index m or n,
    the short-column length for aztec, and the column index for the
    truncated-square tiling (whose paired slices then have 2(width-1)
    sites).  The links are shared with every chain of the same family,
    direction and width while ``_links`` keeps them; a period whose
    steps hold more than CHAIN_CACHE_ENTRIES entries in all is built for
    this chain alone.
    """
    if sum(r * c for r, c in chain_dimensions(family, direction, width)) > CHAIN_CACHE_ENTRIES:
        links = _period_links(family, direction, width, enumerate_states)
    else:
        links = _links(family, direction, width)
    return TransferChain(family, direction, boundary, width, links)


# Periods of links kept per process, each with every array its relations
# derive on use: steps, folds, zeta plans and orbit relations.  Only a
# period whose steps hold at most CHAIN_CACHE_ENTRIES entries in all is
# kept, at most about 0.2 MB with all it derives (aztec strip 7, 65,536
# entries, the most of any: 0.22 MB after an open and a traced count),
# so the kept periods hold about 1 MB at most; a wider one is built for
# each chain that asks for it.
CHAIN_CACHE_SIZE = 4
CHAIN_CACHE_ENTRIES = 1 << 17


@lru_cache(maxsize=CHAIN_CACHE_SIZE)
def _links(family: Family, direction: Direction, width: int) -> tuple[Relation, ...]:
    """The links of one period over enumerated spaces, built once while
    they are among the CHAIN_CACHE_SIZE most recently used.  The boundary
    is left out: an open and a cyclic chain of one width push the same
    links."""
    return _period_links(family, direction, width, enumerate_states)


def _period_links(
    family: Family, direction: Direction, width: int, space: Callable[[StateKind, int], StateSpace]
) -> tuple[Relation, ...]:
    """The links of one period, over the space ``space(kind, length)``
    gives each slice: one step from the first slice to itself, spread by
    f; or from the first slice to the last, spread by f, once more from
    the last to itself on a three-slice period, and back to the first,
    its columns spread by the same f."""
    slices = _period_slices(family, direction, width)
    first, last = space(*slices[0]), space(*slices[-1])
    wrap = direction is Direction.ROWWISE
    f = _spread(family, wrap, first.length)
    if len(slices) == 1:
        return (Relation(first, first, f, None, wrap),)
    middle = (Relation(last, last, None, None, wrap),) if len(slices) == 3 else ()
    return (Relation(first, last, f, None, wrap), *middle, Relation(last, first, None, f, wrap))


@lru_cache(maxsize=None)
def _stand_in(kind: StateKind, length: int) -> StateSpace:
    """A space of this kind and length that holds no state, one per
    (kind, length) as ``enumerate_states`` gives, for reading a period's
    layout (``_period_links``) without enumerating it."""
    return StateSpace(kind, length, np.empty(0, dtype=np.int64))


@lru_cache(maxsize=64)
def _symmetric(spread: Spread, length: int) -> bool:
    """Whether f(u) & v == 0 exactly when u & f(v) == 0, for masks u, v
    of ``length`` sites: whether site j is in the image of site i exactly
    when i is in that of j.  A spread maps a mask to the union of its
    sites' images, so the sites' images settle it."""
    images = spread(np.int64(1) << np.arange(length, dtype=np.int64))
    touches = images[:, None] >> np.arange(length) & 1
    return np.array_equal(touches, touches.T)


def _palindrome(links: Sequence[Relation]) -> bool:
    """Whether a period reads the same backwards: link i is the transpose
    of link n-1-i, so that every run of whole periods does too.  A link's
    transpose swaps its rows and columns and its two spreads; a lone
    middle link is its own transpose when it spreads neither side, or
    one side by a symmetric spread (``_symmetric``)."""
    for link, back in zip(links, reversed(links)):
        if back.rows is not link.cols or back.cols is not link.rows:
            return False
        if not (back.f is link.g and back.g is link.f or back is link and _symmetric(link.f or link.g, link.bits)):
            return False
    return True


def _smallest(rows: Sequence[int]) -> int:
    """Where a trace starts its period: the first link of fewest rows."""
    return min(range(len(rows)), key=rows.__getitem__)


def chain_dimensions(family: Family, direction: Direction, width: int) -> tuple[tuple[int, int], ...]:
    """Step shapes of a would-be chain, from closed-form state counts.

    Lets a caller size up a request before paying for enumeration or
    matrix construction.
    """
    counts = [state_count(*s) for s in _period_slices(family, direction, width)]
    return tuple(zip(counts, counts[1:] + counts[:1]))


# ---------------------------------------------------------------------------
# Instances and exact counts


@dataclass(frozen=True)
class LatticeInstance:
    """A concrete finite lattice: family, topology and the two sizes.

    Cylinders always wrap in the n direction; rows run around, columns
    stay open.  The sizes are integers, at least the smallest its sweeps
    can lay down (``_minima``); any other is refused at construction.
    """

    family: Family
    topology: Topology
    m: int
    n: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "m", operator.index(self.m))
        object.__setattr__(self, "n", operator.index(self.n))
        lo_m, lo_n = _minima(self.family, self.topology)
        if self.m < lo_m or self.n < lo_n:
            raise ValueError(
                f"{self.family.value} {self.topology.value} needs "
                f"m >= {lo_m} and n >= {lo_n}, got m={self.m} n={self.n}"
            )

    @cached_property
    def vertices(self) -> int:
        """The sites its first sweep (``_sweeps``) lays down: each
        period's, and the closing slice of an open sweep.  Every sweep of
        an instance lays down the same sites."""
        direction, width, periods, trace = _sweeps(self.family, self.topology, self.m, self.n)[0]
        sites = periods * _period_sites(self.family, direction, width)
        return sites if trace else sites + _period_slices(self.family, direction, width)[0][1]


def _periods(family: Family, direction: Direction, m: int, n: int) -> int:
    raw = n if direction is Direction.COLUMNWISE else m
    return raw - 1 if family is Family.TRUNCATED_SQUARE else raw


def _sweeps(fam: Family, topo: Topology, m: int, n: int) -> list[tuple[Direction, int, int, bool]]:
    """(direction, width, periods, trace) of the two sweeps that can count
    an instance.  A plane sweeps open across m or across n, a cylinder
    traces around its wrap or sweeps open along its axis, and a torus
    traces rowwise at width n or m.  The first is always as wide as its
    family's slices need; the second may be too narrow (``_MIN_WIDTH``)."""
    col, row = Direction.COLUMNWISE, Direction.ROWWISE
    if topo is Topology.PLANE:
        return [(col, m, _periods(fam, col, m, n), False), (col, n, _periods(fam, col, n, m), False)]
    if topo is Topology.CYLINDER:
        return [(col, m, _periods(fam, col, m, n), True), (row, n, _periods(fam, row, m, n), False)]
    return [(row, n, _periods(fam, row, m, n), True), (row, m, _periods(fam, row, n, m), True)]


def _exists(family: Family, topology: Topology, m: int, n: int) -> bool:
    """Whether the sweeps lay these sizes down: the first as wide as its
    slices need and over a slice (three around a trace, so that no edge is
    laid twice), and the second, where open, as wide as its slices need."""
    (direction, width, periods, trace), (other, other_width, _, closed) = _sweeps(family, topology, m, n)
    return (
        width >= _MIN_WIDTH[(family, direction)]
        and periods * len(_period_slices(family, direction, width)) >= (3 if trace else 1)
        and (closed or other_width >= _MIN_WIDTH[(family, other)])
    )


@lru_cache(maxsize=None)
def _minima(family: Family, topology: Topology) -> tuple[int, int]:
    """(lo_m, lo_n), the smallest sizes that exist (``_exists``): the
    first k that exists as k x k, then each size lowered as far as it
    exists with the other held at k."""
    k = next(k for k in itertools.count(1) if _exists(family, topology, k, k))
    lo_m = next(m for m in range(1, k + 1) if _exists(family, topology, m, k))
    return lo_m, next(n for n in range(1, k + 1) if _exists(family, topology, k, n))


_EXACT = 2**53  # float64 holds every integer up to 2**53


@lru_cache(maxsize=None)
def _radix(widest: int) -> int:
    """Bits of a limb: the widest even b (``_dot`` halves a digit) whose
    carried digits stay exact summed ``widest`` at a time: 42 for 610
    states (quadratic strip 12), 30 for 2**22 (a 22-site free slice)."""
    return max(b for b in range(2, 52, 2) if _carried(2**53, b) * widest <= _EXACT)


def _limbs(value: int, radix: int) -> int:
    """The fewest limbs of ``radix`` bits that hold every integer up to value."""
    return max(1, -(-value.bit_length() // radix))


def _carried(top: int, radix: int) -> int:
    """The bound a carry step leaves on digits at most top: a residue below
    2**radix plus the carry of the limb below."""
    return (1 << radix) - 1 + (top >> radix)


def _carries(cols: Sequence[int], radix: int) -> list[tuple[bool, int, int, int]]:
    """(carry, limbs, top, value) of each push of a 0/1 block in one limb
    through steps of these column counts: whether a carry step (``_carry``)
    precedes it, its limbs, and bounds after it on digits and values.  A
    push sums at most cols digits of every limb at once, exact while
    top * cols <= 2**53; before one that could pass that, the block is
    carried onto the limbs its value needs, below 2**(radix * limbs), so
    the top limb carries nothing out."""
    top = value = limbs = 1
    out = []
    for c in cols:
        carry = top * c > _EXACT
        if carry:
            limbs, top = _limbs(value, radix), _carried(top, radix)
        top, value = top * c, value * c
        out.append((carry, limbs, top, value))
    return out


def _carry(block: np.ndarray, limbs: int, radix: int) -> np.ndarray:
    """One parallel carry step on float64 digits, rows x limbs x vectors,
    widened to ``limbs``: c = floor(d / 2**radix), d -= c * 2**radix,
    d[j+1] += c[j], exact up to 2**53 as 2**radix is a power of two."""
    c = block * 2.0**-radix
    np.floor(c, out=c)
    held, out = block.shape[1], np.zeros((len(block), limbs) + block.shape[2:])
    np.multiply(c, -2.0**radix, out=out[:, :held])
    out[:, :held] += block
    out[:, 1:held + 1] += c[:, :limbs - 1]
    return out


def orbit_steps(links: tuple[Relation, ...]) -> tuple[list[Relation], np.ndarray, np.ndarray]:
    """How to push vectors that are constant on orbits through a period.

    Returns every link's relation narrowed to the rows at its orbit
    representatives and taking vectors on its columns' orbits
    (``on_orbits``), and the orbit index and orbit size of every state of
    the first link's rows.  A vector lives on the orbits of a space, one
    entry per orbit in the order of their representatives, and a push
    gives it on the orbits of the rows.  A period is a cycle, so a link's
    columns are the next link's rows.
    """
    of, _, sizes = _orbits(links[0].rows, links[0].wrap)
    return [link._narrowed for link in links], of, sizes


def _schedule(
    period: Sequence[Relation], states: Callable[[StateSpace], int], orbits: Callable[[StateSpace], int],
    periods: int, trace: bool,
) -> tuple[int, list[tuple[int, int, int | None]], int, int, list[tuple[bool, int, int, int]], int, int]:
    """The plan of a contraction over ``periods`` of a period's links,
    from the sizes ``states`` and ``orbits`` give their slice spaces:
    (start, pushed, vectors, radix, carries, half, block).  ``_contract``
    runs it on an enumerated chain; ``_price`` prices it on a stand-in
    period, sized by closed forms.

    A trace starts at the first link of fewest rows (tr(ABC) = tr(BCA))
    and pushes ``vectors`` basis vectors, one per orbit of that space,
    through whole links, ``block`` at a time: as many as STACK_ENTRIES
    holds at the widest space and the most limbs carried.  An open count
    starts at link 0 and pushes one vector through orbit relations.
    pushed holds the (rows, cols, column orbits or None) of each link
    from the start; push t takes link t from the end.  carries holds each
    push's carry, limbs and bounds in radix 2**radix (``_carries``, over
    whole columns, on orbits too).  A block runs through ceil(N/2) of a
    palindrome's N = links * periods links (``_palindrome``) and takes
    its left half after ``half`` = floor(N/2) pushes; any other runs all
    N, and its left half is its start (half = 0)."""
    rows = [states(link.rows) for link in period]  # a period is a cycle: link i's cols are link i+1's rows
    start = _smallest(rows) if trace else 0
    period, rows = period[start:] + period[:start], rows[start:] + rows[:start]
    cols = rows[1:] + rows[:1]
    if trace:
        pushed, vectors = list(zip(rows, cols, [None] * len(rows))), orbits(period[0].rows)
    else:
        o = [orbits(link.rows) for link in period]
        pushed, vectors = list(zip(o, cols, o[1:] + o[:1])), 1
    widest, n = max(rows), len(period) * periods
    radix = _radix(widest)
    pushes, half = ((n + 1) // 2, n // 2) if _palindrome(period) else (n, 0)
    carries = _carries([pushed[-1 - t % len(pushed)][1] for t in range(pushes)], radix)
    limbs = max((limbs for _, limbs, _, _ in carries), default=1)
    block = max(1, STACK_ENTRIES // (limbs * widest)) if trace else 1
    return start, pushed, vectors, radix, carries, half, block


def _pieces(block: np.ndarray, top: int, value: int, radix: int) -> np.ndarray:
    """A block's digits as int64 pieces of radix/2 bits, pieces x (rows *
    vectors), piece i weighing 2**(radix/2 * i); carried first, onto as
    many limbs as ``value`` needs, where top reaches 2**radix."""
    if top >> radix:
        block = _carry(block, max(_limbs(value, radix), block.shape[1]), radix)
    half, digits = radix // 2, block.transpose(1, 0, 2)
    out = np.empty((len(digits), 2) + digits.shape[1:], dtype=np.int64)
    upper = np.floor(digits * 2.0**-half)
    out[:, 0] = digits - upper * 2.0**half
    out[:, 1] = upper
    return out.reshape(2 * len(digits), -1)


def _dot(x: tuple[np.ndarray, int, int], y: tuple[np.ndarray, int, int], weights: np.ndarray | None,
         columns: np.ndarray, radix: int) -> int:
    """sum over rows u, vectors v of weights[u] columns[v] X[u, v] Y[u, v],
    a Python int, for halves held as (block, top, value): float64 digits,
    rows x limbs x vectors, at most top, of entries at most value.  The
    largest int64 weight (None weighs rows 1) times the int64 columns'
    sum is at most the widest slice space, whose ``_radix`` this is.

    In float64 where both halves hold one limb and each vector's sum stays
    within 2**53.  Else C[i, k] = sum of weights columns p_i q_k over the
    halves' pieces (``_pieces``) is a small int64 product; its int64
    anti-diagonal sums, times 2**(radix/2 (i + k)), fold into a Python
    int.  Rows go in chunks whose weights times the pieces' bounds and the
    longest anti-diagonal stay below 2**63 (a trace on 2**22 states takes
    about 2**10 rows), and whose pieces stay in cache."""
    (a, ta, va), (b, tb, vb) = x, y
    rows, vectors, half, total = len(a), a.shape[2], radix // 2, 0
    w = np.ones(rows, dtype=np.int64) if weights is None else weights
    if a.shape[1] == b.shape[1] == 1 and ta * tb * int(w.sum()) <= _EXACT:
        sums = w @ (a[:, 0] * b[:, 0])  # exact float64 integers, one per vector
        return sum(map(operator.mul, sums.astype(np.int64).tolist(), columns.tolist()))
    weight = np.multiply.outer(w, columns).ravel()  # of (u, v), in the pieces' order
    p, q = (2 * max(_limbs(v, radix), h.shape[1]) for v, h in ((va, a), (vb, b)))
    bound = int(w.max()) * int(columns.sum()) * min(p, q)
    for top in (ta, tb):  # the largest piece of a digit, carried where _pieces carries it
        top = _carried(top, radix) if top >> radix else top
        bound *= max(min(top, (1 << half) - 1), top >> half)
    k = max(1, min(BLOCK_ENTRIES // (max(p, q) * vectors), (2**63 - 1) // bound))
    for s in range(0, rows, k):
        pa = _pieces(a[s:s + k], ta, va, radix)
        pb = pa if b is a else _pieces(b[s:s + k], tb, vb, radix)
        c = np.einsum("ij,kj->ik", pa * weight[s * vectors:(s + k) * vectors], pb)
        n, m = c.shape  # row i shifted i places right: each column sums an anti-diagonal
        shifted = np.zeros(n * (n + m), dtype=np.int64)
        shifted.reshape(n, n + m)[:, :m] = c
        sums = shifted[:n * (n + m - 1)].reshape(n, n + m - 1).sum(axis=0)
        total += sum(d << half * i for i, d in enumerate(sums.tolist()))
    return total


def _contract(chain: TransferChain, periods: int, trace: bool) -> int:
    """1^T M^periods 1, or tr(M^periods) if trace, for the composite M.

    Every step commutes with the symmetry of its slices, so both are
    sums over orbits.  An open count pushes the all-ones vector, which
    is constant on orbits, through ``orbit_steps``.  A trace runs over
    the period's smallest slice space: every state of an orbit has the
    same diagonal entry, so tr = sum over orbit representatives r of
    |orbit r| * M_rr, and it pushes one basis vector per orbit through
    the whole links, in blocks of STACK_ENTRIES at the widest space the
    stack fans out to; each link's ``push`` picks its kernel for them.

    Where the period reads the same backwards (``_palindrome``), so does
    its run of N = links * periods links, S_0 ... S_(N-1) with S_i the
    transpose of S_(N-1-i).  Then, with m = floor(N/2),
    u^T S_0 ... S_(N-1) v = x . y for x = S_(N-m) ... S_(N-1) u and
    y = S_m ... S_(N-1) v, which one run of pushes gives, x after m of
    them and y after ceil(N/2) (Calkin and Wilf's 1^T T^2k 1 = |T^k 1|^2,
    "The number of independent sets in a grid graph", 1998).  An open
    count sums |o| * x_o * y_o over the orbits o of the space where the
    halves meet; a trace sums |r| * (x_r . y_r) over its basis vectors r.
    Any other period, such as a truncated-square trace, which starts at
    a plain space where its order is C B^T B, pushes all N links and
    takes its start as x.

    Entries are float64 digits in radix 2**``_radix``, rows x limbs x
    vectors, carried and widened only where ``_carries`` says; ``_dot``
    joins the halves exactly.  Where a trace starts, the radix, the
    carries, the left half and a trace's block are ``_schedule``'s, the
    plan ``_price`` prices.
    """
    links, wrap = chain.links, chain.links[0].wrap
    i, _, _, radix, carries, half, k = _schedule(links, len, lambda space: len(_orbits(space, wrap)[1]), periods, trace)
    links = links[i:] + links[:i]  # a trace's start: tr(ABC) = tr(BCA); 1^T ABC 1 has no such symmetry
    meet = links[half % len(links)].rows  # the halves meet in this space
    if trace:  # a basis vector is not symmetric: push it through whole links
        plan, weights = links, None
        _, reps, sizes = _orbits(links[0].rows, wrap)
    else:
        plan, _, sizes = orbit_steps(links)
        weights = _orbits(meet, wrap)[2]
    steps = plan[::-1]
    # blocks of (start, columns): start[u, j] is 1 where column j starts,
    # and columns[j] weighs column j's dot; weights[u] weighs its row u
    if trace:
        states = np.arange(len(links[0].rows))
        blocks = ((np.equal.outer(states, reps[s:s + k]), sizes[s:s + k]) for s in range(0, len(reps), k))
    else:
        blocks = ((np.ones((len(sizes), 1), dtype=bool), np.ones(1, dtype=np.int64)),)
    count = 0
    for start, columns in blocks:
        block = start[:, None]  # one limb
        left = right = block, 1, 1  # (block, top, value)
        for t, (carry, limbs, top, value) in enumerate(carries):
            if carry:
                block = _carry(block, limbs, radix)
            block = steps[t % len(steps)].push(block)
            right = block, top, value
            if t + 1 == half:
                left = right
        count += _dot(left, right, weights, columns, radix)
    return count


def count_open(chain: TransferChain, periods: int) -> int:
    """All-ones contraction: 1^T (chain composite)^periods 1."""
    if periods < 0:
        raise ValueError("periods must be >= 0")
    return _contract(chain, periods, trace=False)


def count_cyclic(chain: TransferChain, periods: int) -> int:
    """Trace contraction: tr((chain composite)^periods)."""
    if periods < 1:
        raise ValueError("a trace needs at least one period")
    if len(chain.exit_space) != len(chain.entry_space):
        raise ValueError("trace needs matching entry and exit spaces")
    return _contract(chain, periods, trace=True)


# Nanoseconds of a kernel's one-time build of a rows x cols link per call,
# entry and row or column (2-vCPU x86-64 VM): a built step; a folded one
# (2.2 ns an entry and 12 us an image of its columns' symmetry, priced at
# 3.0 an entry); the zeta push's scatter and gather (keys plan: ~10x).
_SETUP_NS = {"built": (0.0, 1.0, 0.0), "fold": (0.0, 3.0, 0.0), "zeta": (16700.0, 0.0, 1.4)}

# Nanoseconds of a carry step per call and entry; of a dot (``_dot``) per
# call and entry in float64, and in int64 per call, entry and limb of a
# half, and entry and pair of limbs of the halves (2-vCPU x86-64 VM).
_CARRY_NS = (6600.0, 2.9)
_DOT_NS = (5600.0, 0.9, 45000.0, 6.3, 1.9)


def _sweep(instance: LatticeInstance) -> tuple[Direction, int, int, bool]:
    """(direction, width, periods, trace) of the sweep that counts an instance.

    Of its ``_sweeps`` that ``_price`` prices, the first with the lowest
    price wins.
    """
    fam, topo, m, n = instance.family, instance.topology, instance.m, instance.n
    fits = [(cost, sweep) for sweep in _sweeps(fam, topo, m, n) if (cost := _price(fam, *sweep)) is not None]
    if not fits:
        raise ValueError(
            f"{fam.value} {topo.value} {m}x{n} has no sweep whose slices fit "
            f"the {MAX_ENUM_LENGTH}-site cap"
        )
    return min(fits, key=lambda fit: fit[0])[1]


@lru_cache(maxsize=None)
def _price(family: Family, direction: Direction, width: int, periods: int, trace: bool) -> float | None:
    """Estimated nanoseconds of a sweep's contraction, or None where it is
    too narrow for its family's slices (``_MIN_WIDTH``) or a slice passes
    MAX_ENUM_LENGTH sites; a pure function of its arguments, so it is kept.

    It prices the plan ``_contract`` runs (``_schedule``), made on the
    stand-in period (``_stand_in``), whose spaces ``state_count`` and
    ``_orbit_count`` size by closed forms, so pricing enumerates nothing.
    Each push is priced by the kernel ``_kernel`` picks at its limbs
    times a block's vectors and at its link's own ``bits`` and ``keys``,
    plus its carry; each block's dot as ``_dot`` takes it; and each
    kernel's one-time build per link (``_SETUP_NS``), summed in the
    order the pushes first take them.
    """
    if width < _MIN_WIDTH[(family, direction)]:
        return None
    if max(length for _, length in _period_slices(family, direction, width)) > MAX_ENUM_LENGTH:
        return None
    wrap, period = direction is Direction.ROWWISE, _period_links(family, direction, width, _stand_in)

    def states(space: StateSpace) -> int:
        return state_count(space.kind, space.length)

    start, pushed, vectors, radix, carries, half, k = _schedule(
        period, states, lambda space: _orbit_count(space.kind, space.length, wrap), periods, trace
    )
    period, n = period[start:] + period[:start], len(period)
    blocks = [(w, times) for w, times in ((k, vectors // k), (vectors % k, 1)) if w]  # (width, how many)
    (ta, va), (tb, vb) = [carries[t - 1][2:] if t else (1, 1) for t in (half, len(carries))]  # the halves' bounds
    la, lb, meet = _limbs(va, radix), _limbs(vb, radix), half % n  # the halves meet at link meet
    if la == lb == 1 and ta * tb * states(period[meet].rows) <= _EXACT:  # its states weigh the dot
        call, entry = _DOT_NS[:2]
    else:
        call, entry = _DOT_NS[2], _DOT_NS[3] * (la + lb) + _DOT_NS[4] * la * lb
    cost = sum(times * (call + entry * pushed[meet][0] * w) for w, times in blocks)
    kernels = {}  # (link, kernel) of every push made, in the order first made
    for (j, carry, limbs), runs in Counter((n - 1 - t % n, *c[:2]) for t, c in enumerate(carries)).items():
        (r, c, o), bits, keys = pushed[j], period[j].bits, period[j].keys
        for w, times in blocks:
            price, kernel = _kernel(r, c, bits, limbs * w, o, keys)
            if carry:  # on the block the push takes, one entry per column or column orbit
                price += _CARRY_NS[0] + _CARRY_NS[1] * (o or c) * limbs * w
            cost += runs * times * price
            kernels[j, kernel] = None
    for j, kernel in kernels:
        (call, entry, side), (r, c, _) = _SETUP_NS[kernel], pushed[j]
        cost += call + entry * r * c + side * (r + c)
    return cost


def count_lattice(instance: LatticeInstance) -> int:
    """Exact number of independent sets of a lattice instance, from the
    one contraction ``_sweep`` picks: open ends, or a trace around a wrap."""
    direction, width, periods, trace = _sweep(instance)
    chain = transfer_chain(instance.family, direction, width, Boundary.CYCLIC if trace else Boundary.OPEN)
    return (count_cyclic if trace else count_open)(chain, periods)
