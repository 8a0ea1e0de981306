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

Every step is one ``build_step(rows, cols, f, g)``: entry (u, v) is 1
iff f(u) & g(v) == 0.  ``_spread`` gives each family's one map from the
period's first slice to the next; a return step (A^T, B^T) applies that
same map to its columns, so it is built, not copied from a transpose.
A chain holds each step as that ``Relation`` and builds it on demand.

Every step commutes with the symmetry of its slices (``_orbits``):
turning a wrapped slice by one site, or one pair on a paired slice, and
mirroring an open slice over its own length.  Power iteration and open
counts push only vectors fixed by it, so they keep one entry per orbit
and push steps built at the orbit representatives only
(``orbit_steps``).  Traces push basis vectors through the whole steps.

Counts are exact integers: float64 pushes mod primes, joined by the
Chinese remainder theorem.  Each contraction takes primes as wide as
its widest slice space leaves exact in float64, and as few as its
count's bound needs (``_moduli``).  A trace runs over the period's
smallest slice space: tr(ABC) = tr(BCA).  It pushes one basis vector per
orbit of that space and weights its diagonal entry by the orbit's size.
Each instance is counted once, by whichever of its two sweeps makes the
fewest pushes.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from functools import cached_property, lru_cache

import numpy as np

from .compat import BLOCK_ENTRIES, Spread, StepMatrix, build_step
from .statespace import MAX_ENUM_LENGTH, StateKind, StateSpace, enumerate_states, state_count

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


@dataclass(frozen=True, eq=False)
class Relation:
    """A step not yet built: entry (u, v) of rows x cols is 1 iff
    f(u) & g(v) == 0, with a missing spread meaning the identity.

    ``transfer_chain`` makes these only with spreads that commute with
    the slice symmetry: turning a wrapped slice (wrap), mirroring an open
    one.  A vector constant on the orbits of the columns is pushed to one
    constant on the orbits of the rows, so one row per orbit suffices.
    """

    rows: StateSpace
    cols: StateSpace
    f: Spread | None
    g: Spread | None
    wrap: bool


@dataclass(frozen=True)
class TransferChain:
    """One period of a sweep.  ``links`` are relations from
    ``transfer_chain``, or hand-built steps, each state its own orbit."""

    family: Family
    direction: Direction
    boundary: Boundary
    width: int
    links: tuple[Relation | StepMatrix, ...]

    @cached_property
    def steps(self) -> tuple[StepMatrix, ...]:
        """The whole step of every link, built on first use; only traces
        and ``matrix`` need them, power iteration and open counts push
        ``orbit_steps`` instead."""
        return tuple(
            link if isinstance(link, StepMatrix) else build_step(link.rows, link.cols, link.f, link.g)
            for link in self.links
        )

    @property
    def entry_space(self) -> StateSpace:
        return self.links[0].rows

    @property
    def exit_space(self) -> StateSpace:
        return self.links[-1].cols

    @cached_property
    def period_sites(self) -> int:
        """Lattice sites laid down by one period of the chain."""
        return sum(link.rows.length for link in self.links)

    def describe(self) -> str:
        dims = " ".join("%dx%d" % (len(link.rows), len(link.cols)) for link in self.links)
        return (
            f"{self.family.value} {self.direction.value} width={self.width} "
            f"{self.boundary.value} [{dims}]"
        )


def _period_slices(
    family: Family, direction: Direction, width: int
) -> list[tuple[StateKind, int]]:
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
        return [(StateKind.CYCLE, width) if wrap else (StateKind.PATH, width + 1)]
    if family is Family.AZTEC:
        return [(StateKind.FREE, width), (StateKind.FREE, width if wrap else width + 1)]
    p = width - 1
    plain = (StateKind.FREE, p if wrap else p + 1)
    return [(StateKind.PAIRED, 2 * p), plain, plain]


def _rotl(x: np.ndarray, length: int) -> np.ndarray:
    return ((x << 1) | (x >> (length - 1))) & ((1 << length) - 1)


def _rotr(x: np.ndarray, length: int) -> np.ndarray:
    return ((x >> 1) | (x << (length - 1))) & ((1 << length) - 1)


# every byte with its 8 bits in reverse order
_REVERSED_BYTES = np.array([int(f"{b:08b}"[::-1], 2) for b in range(256)], dtype=np.int64)


def _mirror(x: np.ndarray, length: int) -> np.ndarray:
    """Masks with their ``length`` bits in reverse order."""
    out = np.zeros_like(x)
    for shift in range(0, length, 8):
        out = (out << 8) | _REVERSED_BYTES[(x >> shift) & 255]
    return out >> (-length % 8)


@lru_cache(maxsize=64)
def _orbits(space: StateSpace, wrap: bool) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(orbit index of every state, representative index of every orbit,
    orbit sizes) of a slice space under its symmetry: turning a wrapped
    slice by one site, or by one pair on a PAIRED space; mirroring an
    open one over its own length.

    A representative is the smallest mask of its orbit, and orbits are
    numbered in the order of their representatives.  The arrays are
    cached read-only, keyed on the space, which ``enumerate_states``
    shares per (kind, length): a sweep over many small instances meets
    the same few spaces in every count.
    """
    L, masks = space.length, space.masks
    if wrap:
        s = np.arange(0, L, 2 if space.kind is StateKind.PAIRED else 1, dtype=np.int64)[:, None]
        least = (((masks << s) | (masks >> (L - s))) & ((1 << L) - 1)).min(axis=0)
    else:
        least = np.minimum(masks, _mirror(masks, L))
    reps = np.flatnonzero(masks == least)
    of = np.searchsorted(masks[reps], least)
    found = of, reps, np.bincount(of)
    for a in found:
        a.flags.writeable = False
    return found


def _spread(family: Family, wrap: bool, length: int) -> Spread | None:
    """Map a mask of the period's first slice (``length`` sites) to the
    sites it touches in the next slice; None means the identity.

    Site i touches site i for quadratic; i-1, i and i+1 for crossed;
    i and i+1 for aztec (i-1 and i wrapped); and for truncated-square
    pair k's first member touches site k, its second site k+1.  Wrapped
    offsets are taken mod the next slice's length, open ones are cut
    to it.
    """
    L = length
    if family is Family.QUADRATIC:
        return None
    if family is Family.CROSSED:
        if wrap:
            return lambda u: u | _rotl(u, L) | _rotr(u, L)
        return lambda u: (u | (u << 1) | (u >> 1)) & ((1 << L) - 1)
    if family is Family.AZTEC:
        if wrap:
            return lambda u: u | _rotr(u, L)
        return lambda u: u | (u << 1)
    p = L // 2

    def paired(u: np.ndarray) -> np.ndarray:
        # pack the first members (even bits) and the second members (odd
        # bits) into p bits each, halving the gaps between them each round
        x = np.stack((u, u >> 1)) & 0x5555555555555555
        for shift, keep in _PACK_ROUNDS:
            if shift < p:
                x = (x | x >> shift) & keep
        lo, hi = x
        return lo | (_rotl(hi, p) if wrap else hi << 1)

    return paired


# (shift, mask) of each round of a paired spread's packing: after the
# round with shift s, each 4s-bit group holds its packed run in its low 2s bits.
_PACK_ROUNDS = (
    (1, 0x3333333333333333),
    (2, 0x0F0F0F0F0F0F0F0F),
    (4, 0x00FF00FF00FF00FF),
    (8, 0x0000FFFF0000FFFF),
    (16, 0x00000000FFFFFFFF),
)


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
    sites).
    """
    slices = _period_slices(family, direction, width)
    first, last = enumerate_states(*slices[0]), enumerate_states(*slices[-1])
    wrap = direction is Direction.ROWWISE
    f = _spread(family, wrap, first.length)
    if len(slices) == 1:
        links = (Relation(first, first, f, None, wrap),)
    else:
        middle = (Relation(last, last, None, None, wrap),) if len(slices) == 3 else ()
        links = (Relation(first, last, f, None, wrap), *middle, Relation(last, first, None, f, wrap))
    return TransferChain(family, direction, boundary, width, links)


def chain_dimensions(family: Family, direction: Direction, width: int) -> tuple[tuple[int, int], ...]:
    """Step shapes of a would-be chain, from closed-form state counts.

    Lets a caller size up a request before paying for enumeration or
    matrix construction.
    """
    counts = [state_count(*s) for s in _period_slices(family, direction, width)]
    return tuple(zip(counts, counts[1:] + counts[:1]))


# ---------------------------------------------------------------------------
# Instances and exact counts


_VALIDITY = {
    # (family, topology): (min_m, min_n)
    (Family.QUADRATIC, Topology.PLANE): (1, 1),
    (Family.QUADRATIC, Topology.CYLINDER): (1, 3),
    (Family.QUADRATIC, Topology.TORUS): (3, 3),
    (Family.CROSSED, Topology.PLANE): (1, 1),
    (Family.CROSSED, Topology.CYLINDER): (1, 3),
    (Family.CROSSED, Topology.TORUS): (3, 3),
    (Family.AZTEC, Topology.PLANE): (1, 1),
    (Family.AZTEC, Topology.CYLINDER): (1, 2),
    (Family.AZTEC, Topology.TORUS): (2, 2),
    (Family.TRUNCATED_SQUARE, Topology.PLANE): (2, 2),
    (Family.TRUNCATED_SQUARE, Topology.CYLINDER): (2, 3),
    (Family.TRUNCATED_SQUARE, Topology.TORUS): (2, 3),
}


@dataclass(frozen=True)
class LatticeInstance:
    """A concrete finite lattice: family, topology and the two sizes.

    Cylinders always wrap in the n direction; rows run around, columns
    stay open.  Sizes below the minimum either leave no vertices or
    would force repeated edges, and are rejected outright.
    """

    family: Family
    topology: Topology
    m: int
    n: int

    def __post_init__(self) -> None:
        lo_m, lo_n = _VALIDITY[(self.family, self.topology)]
        if self.m < lo_m or self.n < lo_n:
            raise ValueError(
                f"{self.family.value} {self.topology.value} needs "
                f"m >= {lo_m} and n >= {lo_n}, got m={self.m} n={self.n}"
            )

    @property
    def vertices(self) -> int:
        m, n = self.m, self.n
        if self.family in (Family.QUADRATIC, Family.CROSSED):
            if self.topology is Topology.PLANE:
                return (m + 1) * (n + 1)
            if self.topology is Topology.CYLINDER:
                return n * (m + 1)
            return n * m
        if self.family is Family.AZTEC:
            if self.topology is Topology.PLANE:
                return 2 * m * n + m + n
            if self.topology is Topology.CYLINDER:
                return n * (2 * m + 1)
            return 2 * m * n
        if self.topology is Topology.PLANE:
            return 4 * m * n - 2 * m - 2 * n
        if self.topology is Topology.CYLINDER:
            return (n - 1) * (4 * m - 2)
        return 4 * (m - 1) * (n - 1)


def _periods(family: Family, direction: Direction, m: int, n: int) -> int:
    raw = n if direction is Direction.COLUMNWISE else m
    if family is Family.TRUNCATED_SQUARE:
        return raw - 1
    return raw


# Miller-Rabin with these witnesses is exact for every n below 3.3e24.
_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)


def _is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin primality test, exact below 3.3e24."""
    if n < 2:
        return False
    for a in _WITNESSES:
        if n % a == 0:
            return n == a
    s = ((n - 1) & (1 - n)).bit_length() - 1  # n - 1 = d * 2**s, d odd
    d = (n - 1) >> s
    for a in _WITNESSES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


@lru_cache(maxsize=None)
def _primes(count: int, bits: int) -> tuple[int, ...]:
    """The count largest primes below 2**bits, largest first; each lies
    above 2**(bits-1)."""
    found: list[int] = []
    n = 2**bits - 1
    while len(found) < count:
        if n <= 2 ** (bits - 1):
            raise ValueError(f"fewer than {count} primes of {bits} bits")
        if _is_prime(n):
            found.append(n)
        n -= 2
    return tuple(found)


def _moduli(widest: int, bound: int) -> tuple[int, ...]:
    """The fewest primes whose product exceeds bound, each so narrow that
    widest * 32 residues mod it sum exactly in float64 (below 2**53).

    A push sums at most widest residues, and a trace's diagonal sum takes
    at most widest of them times an orbit size below 32.
    """
    bits = 48 - widest.bit_length()
    # each prime exceeds 2**(bits-1), so these many multiply past bound
    primes = _primes(bound.bit_length() // (bits - 1) + 1, bits)
    product, n = 1, 0
    while product <= bound:
        product *= primes[n]
        n += 1
    return primes[:n]


def _link_orbits(link: Relation | StepMatrix) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``_orbits`` of a link's rows; a hand-built step's states are each
    their own orbit."""
    if isinstance(link, StepMatrix):
        n = len(link.rows)
        return np.arange(n), np.arange(n), np.ones(n, dtype=np.int64)
    return _orbits(link.rows, link.wrap)


def orbit_steps(
    links: tuple[Relation | StepMatrix, ...],
) -> tuple[list[tuple[StepMatrix, np.ndarray]], np.ndarray, np.ndarray]:
    """How to push vectors that are constant on orbits through a period.

    Returns (step, gather) for every link, and the orbit index and orbit
    size of every state of the first link's rows.  A vector lives on the
    orbits of a space: ``step.push(x[gather])`` unfolds it to every
    column and gives it on the orbits of the rows, since the step holds
    only the rows at orbit representatives.  A period is a cycle, so a
    link's columns are the next link's rows.  A hand-built step is
    pushed whole, behind an identity gather.
    """
    orbits = [_link_orbits(link) for link in links]
    plan = []
    for link, (_, reps, _), (gather, _, _) in zip(links, orbits, orbits[1:] + orbits[:1]):
        step = link
        if isinstance(link, Relation):
            rows = StateSpace(link.rows.kind, link.rows.length, link.rows.masks[reps])
            step = build_step(rows, link.cols, link.f, link.g)
        plan.append((step, gather))
    of, _, sizes = orbits[0]
    return plan, of, sizes


def _contract(chain: TransferChain, periods: int, trace: bool) -> int:
    """1^T M^periods 1, or tr(M^periods) if trace, for the composite M.

    Every step commutes with the symmetry of its slices (a hand-built
    step's is the identity), so both are sums over orbits.  An open count
    pushes the all-ones vector, which is constant on orbits, through
    ``orbit_steps`` and weights each orbit by its size.  A trace runs
    over the period's smallest slice space: every state of an orbit has
    the same diagonal entry, so tr = sum over orbit representatives r of
    |orbit r| * M_rr, and it pushes one basis vector per orbit through
    the whole steps, in blocks sized for the widest space the stack fans
    out to.  A 0/1 step S has |Sx|_max <= len(S.cols) * |x|_max, so
    either count is at most size * (product of len(step.cols) over a
    period)**periods, summed over the size start states or diagonal
    entries.  A stack with one layer per prime of ``_moduli`` for that
    bound is reduced after each push, and the CRT joins its residues.
    """
    links = chain.links
    if trace:  # tr(ABC) = tr(BCA); 1^T ABC 1 has no such symmetry
        i = min(range(len(links)), key=lambda i: len(links[i].rows))
        links = links[i:] + links[:i]
    size = len(links[0].rows)
    widest = max(len(link.rows) for link in links)
    primes = _moduli(widest, size * math.prod(len(link.cols) for link in links) ** periods)
    mods = np.array(primes, dtype=np.float64)[:, None]
    # pick[u, j] weights entry u of pushed column j at the end, and its
    # nonzero entries are where the column starts
    if trace:  # a basis vector is not symmetric: push it through whole steps
        plan = [(step, slice(None)) for step in chain.steps[i:] + chain.steps[:i]]
        _, reps, sizes = _link_orbits(links[0])
        k = max(1, BLOCK_ENTRIES // (len(primes) * widest))
        picks = (np.equal.outer(np.arange(size), reps[s:s + k]) * sizes[s:s + k] for s in range(0, len(reps), k))
    else:
        plan, _, sizes = orbit_steps(links)
        picks = (sizes[:, None],)
    residues = np.zeros(len(primes))
    for pick in picks:
        block = np.broadcast_to((pick > 0)[:, None], (len(pick), len(primes), pick.shape[1]))
        for _ in range(periods):
            for step, gather in reversed(plan):
                block = np.fmod(step.push(block[gather]), mods)
        residues = np.fmod(residues + (block * pick[:, None]).sum(axis=(0, 2)), primes)
    count, modulus = 0, 1
    for r, p in zip(residues, primes):
        count += modulus * ((int(r) - count) * pow(modulus, -1, p) % p)
        modulus *= p
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


def _sweep(instance: LatticeInstance) -> tuple[Direction, int, int, bool]:
    """(direction, width, periods, trace) of the sweep that counts an instance.

    A plane sweeps open across m or across n, a cylinder traces around
    its wrap or sweeps open along its axis, and a torus traces rowwise
    at width n or m.  Of those whose slices fit in MAX_ENUM_LENGTH sites,
    the first with the fewest pushes wins: periods times the sum of
    rows*cols over the steps, times the smallest slice space for a trace.
    A trace pushes only one vector per orbit of that space, and an open
    sweep only one row per orbit, so the estimate over-counts every
    sweep: by about 2 on open slices (the mirror), by about the ring
    length on wrapped ones.  It nearly cancels between a plane's two open
    sweeps and a torus's two traces; a cylinder's open rowwise sweep is
    cheaper than its estimate says.
    """
    fam, topo, m, n = instance.family, instance.topology, instance.m, instance.n
    col, row = Direction.COLUMNWISE, Direction.ROWWISE
    if topo is Topology.PLANE:
        sweeps = [(col, m, _periods(fam, col, m, n), False), (col, n, _periods(fam, col, n, m), False)]
    elif topo is Topology.CYLINDER:
        sweeps = [(col, m, _periods(fam, col, m, n), True), (row, n, _periods(fam, row, m, n), False)]
    else:
        sweeps = [(row, n, _periods(fam, row, m, n), True), (row, m, _periods(fam, row, n, m), True)]
    fits = []
    for direction, width, periods, trace in sweeps:
        if width < _MIN_WIDTH[(fam, direction)]:
            continue
        if max(length for _, length in _period_slices(fam, direction, width)) > MAX_ENUM_LENGTH:
            continue
        dims = chain_dimensions(fam, direction, width)
        pushes = periods * sum(r * c for r, c in dims) * (min(r for r, _ in dims) if trace else 1)
        fits.append((pushes, (direction, width, periods, trace)))
    if not fits:
        raise ValueError(
            f"{fam.value} {topo.value} {m}x{n} has no sweep whose slices fit "
            f"the {MAX_ENUM_LENGTH}-site cap"
        )
    return min(fits, key=lambda fit: fit[0])[1]


def count_lattice(instance: LatticeInstance) -> int:
    """Exact number of independent sets of a lattice instance, from the
    one contraction ``_sweep`` picks: open ends, or a trace around a wrap."""
    direction, width, periods, trace = _sweep(instance)
    chain = transfer_chain(instance.family, direction, width, Boundary.CYCLIC if trace else Boundary.OPEN)
    return (count_cyclic if trace else count_open)(chain, periods)
