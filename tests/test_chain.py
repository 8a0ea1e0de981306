import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from latticegas.chain import (
    Boundary,
    Direction,
    Family,
    LatticeInstance,
    Topology,
    TransferChain,
    _MIN_WIDTH,
    chain_dimensions,
    count_cyclic,
    count_lattice,
    count_open,
    transfer_chain,
)
from latticegas.compat import BLOCK_ENTRIES, StepMatrix, compose


def count(family, topology, m, n):
    return count_lattice(LatticeInstance(family, topology, m, n))


class TestHandCounts:
    """Totals small enough to enumerate on paper."""

    @pytest.mark.parametrize(
        "family, topology, m, n, expect",
        [
            (Family.QUADRATIC, Topology.PLANE, 1, 1, 7),
            (Family.QUADRATIC, Topology.CYLINDER, 1, 3, 13),
            (Family.QUADRATIC, Topology.CYLINDER, 1, 4, 35),
            (Family.QUADRATIC, Topology.TORUS, 3, 3, 34),
            (Family.CROSSED, Topology.PLANE, 1, 1, 5),
            (Family.CROSSED, Topology.CYLINDER, 1, 3, 7),
            (Family.CROSSED, Topology.TORUS, 3, 3, 10),
            (Family.AZTEC, Topology.PLANE, 1, 1, 7),
            (Family.AZTEC, Topology.CYLINDER, 1, 2, 19),
            (Family.AZTEC, Topology.TORUS, 2, 2, 31),
            (Family.TRUNCATED_SQUARE, Topology.PLANE, 2, 2, 47),
            (Family.TRUNCATED_SQUARE, Topology.CYLINDER, 2, 3, 275),
            (Family.TRUNCATED_SQUARE, Topology.TORUS, 2, 3, 29),
        ],
    )
    def test_count(self, family, topology, m, n, expect):
        assert count(family, topology, m, n) == expect

    def test_ladder_recurrence(self):
        # a 2 x (n+2) strip satisfies a(n+1) = 2 a(n) + a(n-1)
        a = [count(Family.QUADRATIC, Topology.PLANE, 1, n) for n in range(1, 9)]
        assert a[0] == 7 and a[1] == 17
        for i in range(2, len(a)):
            assert a[i] == 2 * a[i - 1] + a[i - 2]


class TestSymmetries:
    @pytest.mark.parametrize("family", list(Family))
    def test_plane_orientation_free(self, family):
        # 2 x 5 and 5 x 2 are the same lattice for every family
        assert count(family, Topology.PLANE, 2, 5) == count(family, Topology.PLANE, 5, 2)

    @pytest.mark.parametrize(
        "family, m, n",
        [
            (Family.QUADRATIC, 3, 5),
            (Family.CROSSED, 3, 5),
            (Family.AZTEC, 2, 4),
            (Family.TRUNCATED_SQUARE, 3, 4),
        ],
    )
    def test_torus_orientation_free(self, family, m, n):
        assert count(family, Topology.TORUS, m, n) == count(family, Topology.TORUS, n, m)

    @pytest.mark.parametrize(
        "family, m, n",
        [
            (Family.QUADRATIC, 2, 5),
            (Family.CROSSED, 2, 4),
            (Family.AZTEC, 2, 3),
            (Family.TRUNCATED_SQUARE, 2, 4),
        ],
    )
    def test_cylinder_trace_equals_open_sweep(self, family, m, n):
        around = transfer_chain(family, Direction.COLUMNWISE, m, Boundary.CYCLIC)
        along = transfer_chain(family, Direction.ROWWISE, n, Boundary.OPEN)
        drop = 1 if family is Family.TRUNCATED_SQUARE else 0
        traced = count_cyclic(around, n - drop)
        swept = count_open(along, m - drop)
        assert traced == swept


class TestChainShape:
    @pytest.mark.parametrize("family", list(Family))
    @pytest.mark.parametrize("direction", list(Direction))
    def test_dimensions_match_built_steps(self, family, direction):
        width = 4
        chain = transfer_chain(family, direction, width)
        assert tuple(s.shape for s in chain.steps) == chain_dimensions(family, direction, width)

    def test_composite_is_square(self):
        for family in Family:
            chain = transfer_chain(family, Direction.COLUMNWISE, 3)
            assert chain.entry_space.masks == chain.exit_space.masks

    def test_period_sites(self):
        assert transfer_chain(Family.QUADRATIC, Direction.COLUMNWISE, 3).period_sites == 4
        assert transfer_chain(Family.QUADRATIC, Direction.ROWWISE, 4).period_sites == 4
        assert transfer_chain(Family.AZTEC, Direction.COLUMNWISE, 3).period_sites == 7
        assert transfer_chain(Family.AZTEC, Direction.ROWWISE, 3).period_sites == 6
        # paired slice 2(w-1) sites, then two plain slices of w each
        assert transfer_chain(Family.TRUNCATED_SQUARE, Direction.COLUMNWISE, 3).period_sites == 10
        assert transfer_chain(Family.TRUNCATED_SQUARE, Direction.ROWWISE, 3).period_sites == 8

    def test_describe_mentions_the_pieces(self):
        text = transfer_chain(Family.AZTEC, Direction.ROWWISE, 3).describe()
        assert "aztec" in text and "rowwise" in text and "8x8" in text

    @pytest.mark.parametrize(
        "family, direction, width",
        [
            (Family.QUADRATIC, Direction.ROWWISE, 2),
            (Family.CROSSED, Direction.ROWWISE, 2),
            (Family.AZTEC, Direction.ROWWISE, 1),
            (Family.TRUNCATED_SQUARE, Direction.COLUMNWISE, 1),
            (Family.TRUNCATED_SQUARE, Direction.ROWWISE, 2),
            (Family.QUADRATIC, Direction.COLUMNWISE, 0),
        ],
    )
    def test_width_floors(self, family, direction, width):
        with pytest.raises(ValueError):
            transfer_chain(family, direction, width)
        with pytest.raises(ValueError):
            chain_dimensions(family, direction, width)


class TestContractions:
    def test_open_zero_periods_counts_entry_states(self):
        chain = transfer_chain(Family.QUADRATIC, Direction.COLUMNWISE, 3)
        assert count_open(chain, 0) == len(chain.entry_space)

    def test_open_rejects_negative_periods(self):
        chain = transfer_chain(Family.QUADRATIC, Direction.COLUMNWISE, 3)
        with pytest.raises(ValueError):
            count_open(chain, -1)

    def test_cyclic_needs_a_period(self):
        chain = transfer_chain(Family.QUADRATIC, Direction.ROWWISE, 4)
        with pytest.raises(ValueError):
            count_cyclic(chain, 0)

    def test_cyclic_rejects_rectangular_chain(self):
        lopsided = TransferChain(
            Family.AZTEC,
            Direction.COLUMNWISE,
            3,
            Boundary.CYCLIC,
            (transfer_chain(Family.AZTEC, Direction.COLUMNWISE, 3).steps[0],),
        )
        with pytest.raises(ValueError):
            count_cyclic(lopsided, 2)


class TestInstances:
    @pytest.mark.parametrize(
        "family, topology, m, n, expect",
        [
            (Family.QUADRATIC, Topology.PLANE, 3, 5, 24),
            (Family.QUADRATIC, Topology.CYLINDER, 3, 5, 20),
            (Family.QUADRATIC, Topology.TORUS, 3, 5, 15),
            (Family.AZTEC, Topology.PLANE, 2, 3, 17),
            (Family.AZTEC, Topology.CYLINDER, 2, 3, 15),
            (Family.AZTEC, Topology.TORUS, 2, 3, 12),
            (Family.TRUNCATED_SQUARE, Topology.PLANE, 2, 3, 14),
            (Family.TRUNCATED_SQUARE, Topology.CYLINDER, 2, 3, 12),
            (Family.TRUNCATED_SQUARE, Topology.TORUS, 2, 3, 8),
        ],
    )
    def test_vertex_formulas(self, family, topology, m, n, expect):
        assert LatticeInstance(family, topology, m, n).vertices == expect

    @pytest.mark.parametrize(
        "family, topology, m, n",
        [
            (Family.QUADRATIC, Topology.TORUS, 2, 3),
            (Family.QUADRATIC, Topology.CYLINDER, 1, 2),
            (Family.CROSSED, Topology.TORUS, 3, 2),
            (Family.AZTEC, Topology.TORUS, 1, 2),
            (Family.AZTEC, Topology.CYLINDER, 1, 1),
            (Family.TRUNCATED_SQUARE, Topology.PLANE, 1, 5),
            (Family.TRUNCATED_SQUARE, Topology.CYLINDER, 2, 2),
            (Family.TRUNCATED_SQUARE, Topology.TORUS, 2, 2),
        ],
    )
    def test_undersized_instances_rejected(self, family, topology, m, n):
        with pytest.raises(ValueError):
            LatticeInstance(family, topology, m, n)

    @pytest.mark.parametrize(
        "family, topology, m, n",
        [
            (Family.QUADRATIC, Topology.PLANE, 1, 1),
            (Family.QUADRATIC, Topology.CYLINDER, 1, 3),
            (Family.QUADRATIC, Topology.TORUS, 3, 3),
            (Family.CROSSED, Topology.PLANE, 1, 1),
            (Family.CROSSED, Topology.CYLINDER, 1, 3),
            (Family.CROSSED, Topology.TORUS, 3, 3),
            (Family.AZTEC, Topology.PLANE, 1, 1),
            (Family.AZTEC, Topology.CYLINDER, 1, 2),
            (Family.AZTEC, Topology.TORUS, 2, 2),
            (Family.TRUNCATED_SQUARE, Topology.PLANE, 2, 2),
            (Family.TRUNCATED_SQUARE, Topology.CYLINDER, 2, 3),
            (Family.TRUNCATED_SQUARE, Topology.TORUS, 2, 3),
        ],
    )
    def test_minimum_instances_accepted(self, family, topology, m, n):
        inst = LatticeInstance(family, topology, m, n)
        assert inst.vertices >= 4


_CYLINDER_RANGES = {
    Family.QUADRATIC: (1, 4, 3, 7),
    Family.CROSSED: (1, 4, 3, 7),
    Family.AZTEC: (1, 3, 2, 6),
    Family.TRUNCATED_SQUARE: (2, 3, 3, 5),
}


@settings(deadline=None, max_examples=40)
@given(family=st.sampled_from(list(Family)), data=st.data())
def test_cylinder_contractions_agree(family, data):
    lo_m, hi_m, lo_n, hi_n = _CYLINDER_RANGES[family]
    m = data.draw(st.integers(min_value=lo_m, max_value=hi_m))
    n = data.draw(st.integers(min_value=lo_n, max_value=hi_n))
    around = transfer_chain(family, Direction.COLUMNWISE, m, Boundary.CYCLIC)
    along = transfer_chain(family, Direction.ROWWISE, n, Boundary.OPEN)
    drop = 1 if family is Family.TRUNCATED_SQUARE else 0
    assert count_cyclic(around, n - drop) == count_open(along, m - drop)


# ---------------------------------------------------------------------------
# Exactness against a Python-int reference contraction


def reference_sweep(chain, vec, periods):
    """Push Python ints through the chain's 0/1 steps, periods times over,
    adding each entry of vec into every column its row reaches."""
    reach = [[np.flatnonzero(row).tolist() for row in step.array] for step in chain.steps]
    for _ in range(periods):
        for step, rows in zip(chain.steps, reach):
            out = [0] * len(step.cols)
            for x, cols in zip(vec, rows):
                if x:
                    for j in cols:
                        out[j] += x
            vec = out
    return vec


def reference_open(chain, periods):
    return sum(reference_sweep(chain, [1] * len(chain.entry_space), periods))


def reference_cyclic(chain, periods):
    size = len(chain.entry_space)
    basis = ([int(i == s) for i in range(size)] for s in range(size))
    return sum(reference_sweep(chain, vec, periods)[s] for s, vec in enumerate(basis))


class TestExactness:
    """Counts that need several primes match the Python-int reference."""

    def test_quadratic_plane_12x100(self):
        chain = transfer_chain(Family.QUADRATIC, Direction.COLUMNWISE, 12)
        got = count_open(chain, 100)
        assert type(got) is int and got.bit_length() == 784
        assert got == reference_open(chain, 100)

    @pytest.mark.parametrize(
        "family, width, periods",
        [(Family.QUADRATIC, 11, 12), (Family.TRUNCATED_SQUARE, 6, 6)],
    )
    def test_torus(self, family, width, periods):
        chain = transfer_chain(family, Direction.ROWWISE, width, Boundary.CYCLIC)
        got = count_cyclic(chain, periods)
        assert type(got) is int and got.bit_length() > 23
        assert got == reference_cyclic(chain, periods)

    def test_non_binary_step_refused(self):
        chain = transfer_chain(Family.AZTEC, Direction.COLUMNWISE, 3)
        fused = dataclasses.replace(chain, steps=(compose(chain.steps),))
        assert fused.steps[0].array.max() > 1
        with pytest.raises(ValueError, match="0/1"):
            count_open(fused, 2)
        with pytest.raises(ValueError, match="0/1"):
            count_cyclic(fused, 2)


def record_pushes(monkeypatch):
    """Patch StepMatrix.push to log (len(block), larger of the in and out
    sizes) for every push."""
    log = []
    push = StepMatrix.push

    def logged(self, block):
        out = push(self, block)
        log.append((len(block), max(np.size(block), out.size)))
        return out

    monkeypatch.setattr(StepMatrix, "push", logged)
    return log


@pytest.mark.parametrize("family", [Family.AZTEC, Family.TRUNCATED_SQUARE])
@pytest.mark.parametrize("direction", list(Direction))
@pytest.mark.parametrize("extra", range(4))
def test_trace_starts_at_the_smallest_slice_space(family, direction, extra, monkeypatch):
    # Every rotation of the period, so the entry space is the largest one
    # in some of them; a trace must not depend on where the period starts.
    width = _MIN_WIDTH[(family, direction)] + extra
    chain = transfer_chain(family, direction, width, Boundary.CYCLIC)
    smallest = min(len(step.rows) for step in chain.steps)
    pushes = record_pushes(monkeypatch)
    for r in range(len(chain.steps)):
        rotated = dataclasses.replace(chain, steps=chain.steps[r:] + chain.steps[:r])
        for periods in range(1, 5):
            pushes.clear()
            assert count_cyclic(rotated, periods) == reference_cyclic(rotated, periods)
            assert pushes[0][0] == smallest


def test_trace_stack_stays_within_a_block(monkeypatch):
    # 729 paired states against 128 plain ones: the trace starts from the
    # plain space, but its stack fans out to the paired one.
    chain = transfer_chain(Family.TRUNCATED_SQUARE, Direction.COLUMNWISE, 7, Boundary.CYCLIC)
    assert sorted({len(step.rows) for step in chain.steps}) == [128, 729]
    pushes = record_pushes(monkeypatch)
    count_cyclic(chain, 4)
    assert max(size for _, size in pushes) <= BLOCK_ENTRIES


@settings(deadline=None, max_examples=40)
@given(
    family=st.sampled_from(list(Family)),
    direction=st.sampled_from(list(Direction)),
    data=st.data(),
)
def test_counts_match_reference(family, direction, data):
    lo = _MIN_WIDTH[(family, direction)]
    width = data.draw(st.integers(min_value=lo, max_value=lo + 3))
    chain = transfer_chain(family, direction, width)
    open_periods = data.draw(st.integers(min_value=0, max_value=6))
    cyclic_periods = data.draw(st.integers(min_value=1, max_value=6))
    assert count_open(chain, open_periods) == reference_open(chain, open_periods)
    assert count_cyclic(chain, cyclic_periods) == reference_cyclic(chain, cyclic_periods)
