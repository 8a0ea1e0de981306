import numpy as np
import pytest
from hypothesis import given, strategies as st

from latticegas import oracle
from latticegas.chain import Family, LatticeInstance, Topology
from latticegas.oracle import (
    MAX_BRUTE_VERTICES,
    LatticeGraph,
    _collect,
    brute_count,
    build_graph,
    sweep,
    verify_instance,
)


def make_instance():
    # any valid instance works as a carrier for hand-built graphs
    return LatticeInstance(Family.QUADRATIC, Topology.PLANE, 1, 1)


def path_graph(n):
    verts = tuple(range(n))
    edges = tuple((i, i + 1) for i in range(n - 1))
    return LatticeGraph(make_instance(), verts, edges)


def cycle_graph(n):
    verts = tuple(range(n))
    edges = tuple((i, (i + 1) % n) for i in range(n))
    return LatticeGraph(make_instance(), verts, edges)


def complete_graph(n):
    verts = tuple(range(n))
    edges = tuple((i, j) for i in range(n) for j in range(i + 1, n))
    return LatticeGraph(make_instance(), verts, edges)


def fib(n):
    a, b = 0, 1
    for _ in range(n):
        a, b = b, a + b
    return a


def lucas(n):
    a, b = 2, 1
    for _ in range(n):
        a, b = b, a + b
    return a


def instances(max_vertices):
    """Every valid instance with at most max_vertices vertices, in sweep
    order, found by trying every m and n up to the cap."""
    found = []
    for family in Family:
        for topology in Topology:
            for m in range(1, max_vertices + 1):
                for n in range(1, max_vertices + 1):
                    try:
                        inst = LatticeInstance(family, topology, m, n)
                    except ValueError:
                        continue
                    if inst.vertices <= max_vertices:
                        found.append(inst)
    return found


def exhaustive_count(graph):
    """Independent sets found by testing all 2**nv vertex subsets."""
    subsets = np.arange(1 << len(graph.vertices))
    independent = np.ones(len(subsets), dtype=bool)
    for v, nb in enumerate(graph.neighbor_masks()):
        independent &= ((subsets >> v) & 1 == 0) | (subsets & nb == 0)
    return int(independent.sum())


@st.composite
def random_graphs(draw):
    nv = draw(st.integers(min_value=0, max_value=12))
    pairs = [(a, b) for a in range(nv) for b in range(a + 1, nv)]
    edges = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    return LatticeGraph(make_instance(), tuple(range(nv)), tuple(edges))


class TestBruteCount:
    @pytest.mark.parametrize("n", range(1, 13))
    def test_path_gives_fibonacci(self, n):
        assert brute_count(path_graph(n)) == fib(n + 2)

    @pytest.mark.parametrize("n", range(3, 13))
    def test_cycle_gives_lucas(self, n):
        assert brute_count(cycle_graph(n)) == lucas(n)

    @pytest.mark.parametrize("n", range(1, 9))
    def test_complete_graph(self, n):
        # the empty set plus one singleton per vertex
        assert brute_count(complete_graph(n)) == n + 1

    def test_edgeless_graph(self):
        g = LatticeGraph(make_instance(), tuple(range(10)), ())
        assert brute_count(g) == 2**10

    def test_refuses_past_cap(self):
        g = LatticeGraph(make_instance(), tuple(range(MAX_BRUTE_VERTICES + 1)), ())
        with pytest.raises(ValueError):
            brute_count(g)

    @given(random_graphs())
    def test_matches_exhaustive_enumeration(self, graph):
        assert brute_count(graph) == exhaustive_count(graph)

    @pytest.mark.parametrize(
        "instance", instances(14), ids=lambda i: f"{i.family.value}-{i.topology.value}-{i.m}x{i.n}"
    )
    def test_lattices_match_exhaustive_enumeration(self, instance):
        graph = build_graph(instance)
        assert brute_count(graph) == exhaustive_count(graph)


class TestGraphConstruction:
    def test_quadratic_torus_is_four_regular(self):
        g = build_graph(LatticeInstance(Family.QUADRATIC, Topology.TORUS, 3, 4))
        degs = [bin(x).count("1") for x in g.neighbor_masks()]
        assert degs == [4] * 12

    def test_crossed_torus_is_eight_regular(self):
        g = build_graph(LatticeInstance(Family.CROSSED, Topology.TORUS, 3, 4))
        degs = [bin(x).count("1") for x in g.neighbor_masks()]
        assert degs == [8] * 12

    def test_aztec_torus_is_four_regular(self):
        g = build_graph(LatticeInstance(Family.AZTEC, Topology.TORUS, 2, 3))
        degs = [bin(x).count("1") for x in g.neighbor_masks()]
        assert degs == [4] * 12

    def test_truncated_torus_is_cubic(self):
        g = build_graph(LatticeInstance(Family.TRUNCATED_SQUARE, Topology.TORUS, 3, 4))
        degs = [bin(x).count("1") for x in g.neighbor_masks()]
        assert degs == [3] * 24

    def test_smallest_truncated_patch_is_an_octagon(self):
        g = build_graph(LatticeInstance(Family.TRUNCATED_SQUARE, Topology.PLANE, 2, 2))
        assert len(g.vertices) == 8
        assert len(g.edges) == 8
        assert brute_count(g) == lucas(8)

    @pytest.mark.parametrize("family", list(Family))
    @pytest.mark.parametrize("topology", list(Topology))
    def test_vertex_count_matches_formula(self, family, topology):
        inst = LatticeInstance(family, topology, 3, 4)
        assert len(build_graph(inst).vertices) == inst.vertices

    def test_collect_rejects_loops(self):
        with pytest.raises(ValueError, match="loop"):
            _collect(make_instance(), [0, 1, 2, 3], [(0, 0)])

    def test_collect_rejects_repeated_edges(self):
        with pytest.raises(ValueError, match="repeated"):
            _collect(make_instance(), [0, 1, 2, 3], [(0, 1), (1, 0)])

    def test_collect_rejects_duplicate_vertices(self):
        with pytest.raises(ValueError, match="duplicate"):
            _collect(make_instance(), [0, 1, 1, 2], [])


class TestVerification:
    @pytest.mark.parametrize(
        "family, topology, m, n",
        [
            (Family.QUADRATIC, Topology.TORUS, 3, 3),
            (Family.CROSSED, Topology.CYLINDER, 2, 4),
            (Family.AZTEC, Topology.PLANE, 2, 2),
            (Family.TRUNCATED_SQUARE, Topology.CYLINDER, 2, 3),
        ],
    )
    def test_verify_instance_agrees(self, family, topology, m, n):
        res = verify_instance(LatticeInstance(family, topology, m, n))
        assert res.ok
        assert res.transfer == res.brute

    @pytest.mark.parametrize("n", [10, 11, 12])
    def test_truncated_square_torus_at_m_2_past_the_cap(self, n, monkeypatch):
        # the one minimum below a rowwise width its slices need: one period
        # around the trace, 36 to 44 vertices, checked with the cap lifted
        monkeypatch.setattr(oracle, "MAX_BRUTE_VERTICES", 44)
        res = verify_instance(LatticeInstance(Family.TRUNCATED_SQUARE, Topology.TORUS, 2, n))
        assert res.ok and res.transfer == res.brute

    def test_sweep_covers_every_family_and_topology(self):
        results = list(sweep(MAX_BRUTE_VERTICES))
        assert len(results) == 349
        assert all(r.ok for r in results)
        seen = {(r.instance.family, r.instance.topology) for r in results}
        assert seen == {(f, t) for f in Family for t in Topology}

    def test_sweep_respects_filters(self):
        results = list(sweep(16, families=[Family.AZTEC], topologies=[Topology.TORUS]))
        assert results
        assert all(
            r.instance.family is Family.AZTEC and r.instance.topology is Topology.TORUS
            for r in results
        )

    def test_sweep_reads_iterators_as_lists(self):
        families, topologies = [Family.QUADRATIC, Family.CROSSED], [Topology.PLANE, Topology.TORUS]
        listed = list(sweep(12, families, topologies))
        assert len(listed) == 30
        assert list(sweep(12, iter(families), iter(topologies))) == listed

    def test_sweep_cap(self):
        with pytest.raises(ValueError):
            next(sweep(MAX_BRUTE_VERTICES + 1))

    @pytest.mark.parametrize("cap", [12, 24, 26, MAX_BRUTE_VERTICES])
    def test_sweep_visits_every_instance_in_order(self, cap, monkeypatch):
        monkeypatch.setattr(oracle, "verify_instance", lambda inst: inst)
        assert list(sweep(cap)) == instances(cap)

    def test_verify_refuses_before_counting(self, monkeypatch):
        def count_lattice(instance):
            pytest.fail(f"counted {instance} before refusing it")

        monkeypatch.setattr(oracle, "count_lattice", count_lattice)
        with pytest.raises(ValueError, match="past the brute-force cap"):
            verify_instance(LatticeInstance(Family.QUADRATIC, Topology.TORUS, 12, 13))
