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
                   each period is a short-to-long and a long-to-short step
truncated-square   the 8.8.4 tiling; a period is a paired column, a
                   plain column and another plain column (three steps)

Counts are exact integers throughout.
"""
from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import cached_property

from .compat import StepMatrix, crossed_step, orthogonal_step, paired_step, staggered_step
from .statespace import StateKind, StateSpace, enumerate_states, state_count

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


@dataclass(frozen=True)
class TransferChain:
    family: Family
    direction: Direction
    boundary: Boundary
    width: int
    steps: tuple[StepMatrix, ...]

    @property
    def entry_space(self) -> StateSpace:
        return self.steps[0].rows

    @property
    def exit_space(self) -> StateSpace:
        return self.steps[-1].cols

    @cached_property
    def period_sites(self) -> int:
        """Lattice sites laid down by one period of the chain."""
        return sum(s.rows.length for s in self.steps)

    def describe(self) -> str:
        dims = " ".join("%dx%d" % s.shape for s in self.steps)
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
    spaces = {s: enumerate_states(*s) for s in slices}
    first, last = spaces[slices[0]], spaces[slices[-1]]
    wrap = direction is Direction.ROWWISE

    if family is Family.QUADRATIC:
        steps = (orthogonal_step(first, first),)
    elif family is Family.CROSSED:
        steps = (crossed_step(first, first, wrap=wrap),)
    elif family is Family.AZTEC:
        # The lean only matters for wrapped slices, which have equal length.
        forward = staggered_step(first, last, lean=-1)
        steps = (forward, forward.transposed())
    else:
        fan_out = paired_step(first, last, wrap=wrap)
        steps = (fan_out, orthogonal_step(last, last), fan_out.transposed())

    return TransferChain(family, direction, boundary, width, steps)


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


def _sweep(chain: TransferChain, vec: list[int], periods: int) -> list[int]:
    """Push vec through the chain's steps, periods times over."""
    for _ in range(periods):
        for step in chain.steps:
            vec = step.push(vec)
    return vec


def count_open(chain: TransferChain, periods: int) -> int:
    """All-ones contraction: 1^T (chain composite)^periods 1."""
    if periods < 0:
        raise ValueError("periods must be >= 0")
    return sum(_sweep(chain, [1] * len(chain.entry_space), periods))


def count_cyclic(chain: TransferChain, periods: int) -> int:
    """Trace contraction: tr((chain composite)^periods)."""
    if periods < 1:
        raise ValueError("a trace needs at least one period")
    size = len(chain.entry_space)
    if len(chain.exit_space) != size:
        raise ValueError("trace needs matching entry and exit spaces")
    total = 0
    for s in range(size):
        vec = [0] * size
        vec[s] = 1
        total += _sweep(chain, vec, periods)[s]
    return total


def count_lattice(instance: LatticeInstance) -> int:
    """Exact number of independent sets of a lattice instance.

    Planes sweep columnwise with open ends.  Cylinders are counted
    twice, once as a traced columnwise sweep around the wrap and once
    as an open rowwise sweep along the axis, and the two totals are
    checked against each other before being returned.  Tori trace a
    rowwise sweep.
    """
    fam, topo, m, n = instance.family, instance.topology, instance.m, instance.n

    if topo is Topology.PLANE:
        # Both orientations give the same lattice; sweep across the
        # narrow side so the slice spaces stay small.
        if m > n:
            m, n = n, m
        chain = transfer_chain(fam, Direction.COLUMNWISE, m, Boundary.OPEN)
        return count_open(chain, _periods(fam, Direction.COLUMNWISE, m, n))

    if topo is Topology.CYLINDER:
        around = transfer_chain(fam, Direction.COLUMNWISE, m, Boundary.CYCLIC)
        along = transfer_chain(fam, Direction.ROWWISE, n, Boundary.OPEN)
        total = count_cyclic(around, _periods(fam, Direction.COLUMNWISE, m, n))
        check = count_open(along, _periods(fam, Direction.ROWWISE, m, n))
        if total != check:
            raise AssertionError(
                f"cylinder counts disagree for {instance}: {total} vs {check}"
            )
        return total

    # Torus.  The lattice is the same with the roles of m and n swapped,
    # so keep the wrapped slice (width n) as the narrow side when the
    # swapped instance is itself valid.
    if n > m:
        try:
            swapped = LatticeInstance(fam, topo, n, m)
        except ValueError:
            swapped = None
        if swapped is not None:
            m, n = n, m
    chain = transfer_chain(fam, Direction.ROWWISE, n, Boundary.CYCLIC)
    return count_cyclic(chain, _periods(fam, Direction.ROWWISE, m, n))
