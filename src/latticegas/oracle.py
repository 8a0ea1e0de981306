"""Independent cross-check: explicit graphs plus brute-force counting.

The graphs are rebuilt here from scratch out of local geometric rules
(which vertex sits where, which neighbours it touches), with none of
the transfer machinery involved.  Counting is memoized backtracking
over the set of still-available vertices, kept as a bit mask.
Agreement between the two paths is the strongest evidence this package
offers that the chains, periods and trace logic are wired correctly,
so keep this module free of imports from compat.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Hashable

from .chain import Family, LatticeInstance, Topology, count_lattice

__all__ = [
    "LatticeGraph",
    "build_graph",
    "brute_count",
    "VerifyResult",
    "verify_instance",
    "sweep",
    "MAX_BRUTE_VERTICES",
]

MAX_BRUTE_VERTICES = 32


@dataclass(frozen=True)
class LatticeGraph:
    instance: LatticeInstance
    vertices: tuple[Hashable, ...]
    edges: tuple[tuple[Hashable, Hashable], ...]

    def neighbor_masks(self) -> list[int]:
        index = {v: i for i, v in enumerate(self.vertices)}
        masks = [0] * len(self.vertices)
        for a, b in self.edges:
            masks[index[a]] |= 1 << index[b]
            masks[index[b]] |= 1 << index[a]
        return masks


def _collect(instance: LatticeInstance, vertices: Iterable, raw_edges: Iterable) -> LatticeGraph:
    verts = tuple(vertices)
    vset = set(verts)
    if len(vset) != len(verts):
        raise ValueError("duplicate vertex labels")
    seen = set()
    edges = []
    for a, b in raw_edges:
        if a == b:
            raise ValueError(f"loop at {a}; lattice too small to wrap")
        if a not in vset or b not in vset:
            raise ValueError(f"edge endpoint missing: {(a, b)}")
        key = frozenset((a, b))
        if key in seen:
            raise ValueError(f"repeated edge {a} -- {b}; lattice too small to wrap")
        seen.add(key)
        edges.append((a, b))
    got = len(verts)
    want = instance.vertices
    if got != want:
        raise AssertionError(f"built {got} vertices for {instance}, expected {want}")
    return LatticeGraph(instance, verts, tuple(edges))


def _grid_edges(m: int, n: int, topology: Topology, diagonals: bool) -> Iterator:
    # Vertex (r, c).  Plane: r in 0..m, c in 0..n.  The cylinder wraps
    # c (n columns), the torus wraps both (m rows, n columns).
    rows = m + 1 if topology is not Topology.TORUS else m
    cols = n + 1 if topology is Topology.PLANE else n
    wrap_r = topology is Topology.TORUS
    wrap_c = topology is not Topology.PLANE
    for r in range(rows):
        for c in range(cols):
            if r + 1 < rows or wrap_r:
                yield (r, c), ((r + 1) % rows, c)
            if c + 1 < cols or wrap_c:
                yield (r, c), (r, (c + 1) % cols)
            if diagonals:
                if (r + 1 < rows or wrap_r) and (c + 1 < cols or wrap_c):
                    r2, c2 = (r + 1) % rows, (c + 1) % cols
                    yield (r, c), (r2, c2)
                    yield (r, c2), (r2, c)


def _grid_graph(instance: LatticeInstance, diagonals: bool) -> LatticeGraph:
    m, n, topo = instance.m, instance.n, instance.topology
    rows = m + 1 if topo is not Topology.TORUS else m
    cols = n + 1 if topo is Topology.PLANE else n
    verts = [(r, c) for r in range(rows) for c in range(cols)]
    return _collect(instance, verts, _grid_edges(m, n, topo, diagonals))


def _aztec_graph(instance: LatticeInstance) -> LatticeGraph:
    m, n, topo = instance.m, instance.n, instance.topology
    if topo is Topology.TORUS:
        # Rows alternate long (even index) and short (odd), n sites each,
        # wrapped in both directions.  A short site leans on sites i and
        # i+1 of the long rows on either side.
        verts = [(j, i) for j in range(2 * m) for i in range(n)]

        def edges():
            for j in range(1, 2 * m, 2):
                for i in range(n):
                    for dj in (-1, 1):
                        for di in (0, 1):
                            yield (j, i), ((j + dj) % (2 * m), (i + di) % n)

        return _collect(instance, verts, edges())

    # Plane and cylinder: columns alternate short (even index, m sites)
    # and long (odd, m+1 sites).  Plane has columns 0..2n, the cylinder
    # wraps after 2n.
    ncols = 2 * n + 1 if topo is Topology.PLANE else 2 * n
    verts = []
    for k in range(ncols):
        size = m if k % 2 == 0 else m + 1
        verts.extend((k, i) for i in range(1, size + 1))

    def edges():
        for k in range(ncols):
            if k % 2 == 1:
                continue
            for i in range(1, m + 1):
                for dk in (-1, 1):
                    k2 = k + dk
                    if topo is Topology.CYLINDER:
                        k2 %= ncols
                    elif not 0 <= k2 < ncols:
                        continue
                    yield (k, i), (k2, i)
                    yield (k, i), (k2, i + 1)

    return _collect(instance, verts, edges())


def _truncated_graph(instance: LatticeInstance) -> LatticeGraph:
    """The 8.8.4 tiling: small squares with N/E/S/W corners, joined by
    one link per facing pair of squares."""
    m, n, topo = instance.m, instance.n, instance.topology
    if topo is Topology.PLANE:
        xs, ys = range(1, n + 1), range(1, m + 1)
        wrap_x = wrap_y = False
    elif topo is Topology.CYLINDER:
        xs, ys = range(n - 1), range(1, m + 1)
        wrap_x, wrap_y = True, False
    else:
        xs, ys = range(n - 1), range(m - 1)
        wrap_x = wrap_y = True
    x_count, y_count = len(xs), len(ys)

    def has(corner, x, y):
        # Boundary squares of the open patch lose their outward corner.
        if topo is Topology.PLANE:
            if corner == "N":
                return y < m
            if corner == "S":
                return y > 1
            if corner == "E":
                return x < n
            if corner == "W":
                return x > 1
        elif topo is Topology.CYLINDER:
            if corner == "N":
                return y < m
            if corner == "S":
                return y > 1
        return True

    verts = [
        (c, x, y)
        for x in xs
        for y in ys
        for c in "NESW"
        if has(c, x, y)
    ]

    def edges():
        ring = ["N", "E", "S", "W"]
        for x in xs:
            for y in ys:
                for a, b in zip(ring, ring[1:] + ring[:1]):
                    if has(a, x, y) and has(b, x, y):
                        yield (a, x, y), (b, x, y)
                if has("E", x, y):
                    x2 = xs[(xs.index(x) + 1) % x_count] if wrap_x else x + 1
                    if wrap_x or x2 <= n:
                        yield ("E", x, y), ("W", x2, y)
                if has("N", x, y):
                    y2 = ys[(ys.index(y) + 1) % y_count] if wrap_y else y + 1
                    if wrap_y or y2 <= m:
                        yield ("N", x, y), ("S", x, y2)

    return _collect(instance, verts, edges())


def build_graph(instance: LatticeInstance) -> LatticeGraph:
    if instance.family is Family.QUADRATIC:
        return _grid_graph(instance, diagonals=False)
    if instance.family is Family.CROSSED:
        return _grid_graph(instance, diagonals=True)
    if instance.family is Family.AZTEC:
        return _aztec_graph(instance)
    return _truncated_graph(instance)


def _check_cap(nv: int) -> None:
    if nv > MAX_BRUTE_VERTICES:
        raise ValueError(f"{nv} vertices is past the brute-force cap of {MAX_BRUTE_VERTICES}")


def brute_count(graph: LatticeGraph) -> int:
    """Count of all independent sets, empty set included, by memoized
    backtracking over the set of still-available vertices."""
    nv = len(graph.vertices)
    _check_cap(nv)
    # Lowest vertex first: the graphs' row/column order keeps the memo small.
    closed = [nb | 1 << v for v, nb in enumerate(graph.neighbor_masks())]
    memo: dict[int, int] = {0: 1}

    def rec(avail: int) -> int:
        if avail not in memo:
            v = (avail & -avail).bit_length() - 1
            memo[avail] = rec(avail & ~(1 << v)) + rec(avail & ~closed[v])
        return memo[avail]

    return rec((1 << nv) - 1)


@dataclass(frozen=True)
class VerifyResult:
    instance: LatticeInstance
    transfer: int
    brute: int

    @property
    def ok(self) -> bool:
        return self.transfer == self.brute


def verify_instance(instance: LatticeInstance) -> VerifyResult:
    # Refuse a past-cap instance before paying for its transfer count.
    _check_cap(instance.vertices)
    graph = build_graph(instance)
    return VerifyResult(instance, count_lattice(instance), brute_count(graph))


def sweep(
    max_vertices: int,
    families: Iterable[Family] = tuple(Family),
    topologies: Iterable[Topology] = tuple(Topology),
) -> Iterator[VerifyResult]:
    """Verify every valid instance with at most max_vertices vertices.

    Every family gains at least one vertex per unit of m or n, so m and
    n never need to range past the cap itself, and for fixed m the
    first valid n past the cap ends the n range.
    """
    if max_vertices > MAX_BRUTE_VERTICES:
        raise ValueError(f"sweep cap is {MAX_BRUTE_VERTICES} vertices")
    for family in families:
        for topology in topologies:
            for m in range(1, max_vertices + 1):
                for n in range(1, max_vertices + 1):
                    try:
                        inst = LatticeInstance(family, topology, m, n)
                    except ValueError:
                        continue
                    if inst.vertices > max_vertices:
                        break
                    yield verify_instance(inst)
