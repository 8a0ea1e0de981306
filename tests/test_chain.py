import collections
import dataclasses
import hashlib
import itertools
import math
import os
import subprocess
import sys
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from latticegas import chain as chain_module
from latticegas.chain import (
    Boundary,
    Direction,
    Family,
    LatticeInstance,
    Relation,
    STACK_ENTRIES,
    Topology,
    TransferChain,
    _MIN_WIDTH,
    _key_gathers,
    _minima,
    _orbit_count,
    _orbits,
    _period_slices,
    _periods,
    _spread,
    _sweep,
    _sweeps,
    chain_dimensions,
    count_cyclic,
    count_lattice,
    count_open,
    orbit_steps,
    transfer_chain,
)
from latticegas.compat import StepMatrix, build_step
from latticegas.oracle import sweep
from latticegas.spectral import dominant_eigenvalue
from latticegas.statespace import MAX_ENUM_LENGTH, StateKind, StateSpace, enumerate_states, state_count


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
            assert chain.entry_space.masks.tolist() == chain.exit_space.masks.tolist()

    def test_period_sites(self):
        assert transfer_chain(Family.QUADRATIC, Direction.COLUMNWISE, 3).period_sites == 4
        assert transfer_chain(Family.QUADRATIC, Direction.ROWWISE, 4).period_sites == 4
        assert transfer_chain(Family.AZTEC, Direction.COLUMNWISE, 3).period_sites == 7
        assert transfer_chain(Family.AZTEC, Direction.ROWWISE, 3).period_sites == 6
        # paired slice 2(w-1) sites, then two plain slices of w each
        assert transfer_chain(Family.TRUNCATED_SQUARE, Direction.COLUMNWISE, 3).period_sites == 10
        assert transfer_chain(Family.TRUNCATED_SQUARE, Direction.ROWWISE, 3).period_sites == 8

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
        # refused at construction, before any trace
        with pytest.raises(ValueError, match="close into a cycle"):
            lopsided = TransferChain(
                Family.AZTEC,
                Direction.COLUMNWISE,
                Boundary.CYCLIC,
                3,
                transfer_chain(Family.AZTEC, Direction.COLUMNWISE, 3).links[:1],
            )
            count_cyclic(lopsided, 2)

    def test_chain_refuses_a_middle_link_that_does_not_join(self):
        # B, B^T, B^T: B's 8 columns are B^T's 8 rows and the last link's
        # 9 columns are B's 9 rows, but the middle link's 9 columns are
        # not the last link's 8 rows
        b, _, b_t = transfer_chain(Family.TRUNCATED_SQUARE, Direction.COLUMNWISE, 3).links
        assert (len(b.rows), len(b.cols), len(b_t.rows), len(b_t.cols)) == (9, 8, 8, 9)
        with pytest.raises(ValueError, match="link 1's 9 columns are not the next link's 8 rows"):
            TransferChain(Family.TRUNCATED_SQUARE, Direction.COLUMNWISE, Boundary.OPEN, 3, (b, b_t, b_t))

    @pytest.mark.parametrize("family", list(Family))
    @pytest.mark.parametrize("direction", list(Direction))
    def test_chain_refuses_a_built_step_link(self, family, direction):
        # the built steps whole, and each one among relations
        chain = transfer_chain(family, direction, _MIN_WIDTH[(family, direction)] + 2)
        with pytest.raises(TypeError, match="chain.Relation"):
            dataclasses.replace(chain, links=chain.steps)
        for i, step in enumerate(chain.steps):
            links = chain.links[:i] + (step,) + chain.links[i + 1 :]
            with pytest.raises(TypeError, match="chain.Relation"):
                dataclasses.replace(chain, links=links)


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

    @pytest.mark.parametrize("family", list(Family))
    @pytest.mark.parametrize("topology", list(Topology))
    def test_every_sweep_lays_down_the_vertices(self, family, topology):
        # both orientations, traced and open: periods times a period's
        # sites, and an open sweep's closing slice
        lo_m, lo_n = _minima(family, topology)
        for m in range(lo_m, 31):
            for n in range(lo_n, 31):
                inst = LatticeInstance(family, topology, m, n)
                sweeps = [s for s in _sweeps(family, topology, m, n) if s[1] >= _MIN_WIDTH[(family, s[0])]]
                assert sweeps[0] == _sweeps(family, topology, m, n)[0]  # the first is never too narrow
                for direction, width, periods, trace in sweeps:
                    slices = _period_slices(family, direction, width)
                    sites = periods * sum(length for _, length in slices) + (0 if trace else slices[0][1])
                    assert sites == inst.vertices

    @pytest.mark.parametrize(
        "family, topology, lo_m, lo_n",
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
            # m = 2 lays one period around the trace; its rowwise width-2
            # sweep is too narrow and is not needed
            (Family.TRUNCATED_SQUARE, Topology.TORUS, 2, 3),
        ],
    )
    def test_instances_exist_exactly_from_the_minima(self, family, topology, lo_m, lo_n):
        # the minima as reference data: an instance exists iff both of its
        # sizes reach them
        assert _minima(family, topology) == (lo_m, lo_n)
        assert LatticeInstance(family, topology, lo_m, lo_n).vertices >= 4
        for m in range(-2, 60):
            for n in range(-2, 60):
                if m >= lo_m and n >= lo_n:
                    LatticeInstance(family, topology, m, n)
                else:
                    with pytest.raises(ValueError, match=f"needs m >= {lo_m} and n >= {lo_n}"):
                        LatticeInstance(family, topology, m, n)

    @pytest.mark.parametrize("m, n", [(2.5, 3), (3.0, 4), (3, "4"), (None, 4)])
    def test_non_integer_sizes_refused(self, m, n):
        # refused where the instance is made, not deep inside its count
        with pytest.raises(TypeError):
            LatticeInstance(Family.QUADRATIC, Topology.PLANE, m, n)

    @pytest.mark.parametrize("size", [np.int64(3), np.int32(3), np.uint8(3)])
    def test_numpy_integer_sizes_accepted(self, size):
        inst = LatticeInstance(Family.QUADRATIC, Topology.PLANE, size, 4)
        assert type(inst.m) is int and inst == LatticeInstance(Family.QUADRATIC, Topology.PLANE, 3, 4)
        assert count_lattice(inst) == 6743


# Both cylinder routes are compared here and in the oracle sweeps, since
# count_lattice runs only one; each range holds cylinders of both picks.
_CYLINDER_RANGES = {
    Family.QUADRATIC: (1, 8, 3, 12),
    Family.CROSSED: (1, 8, 3, 12),
    Family.AZTEC: (1, 6, 2, 9),
    Family.TRUNCATED_SQUARE: (2, 4, 3, 7),
}


@pytest.mark.parametrize("family", list(Family))
def test_cylinder_ranges_hold_both_picks(family):
    lo_m, hi_m, lo_n, hi_n = _CYLINDER_RANGES[family]
    picks = {
        _sweep(LatticeInstance(family, Topology.CYLINDER, m, n))[3]
        for m in range(lo_m, hi_m + 1)
        for n in range(lo_n, hi_n + 1)
    }
    assert picks == {False, True}


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


def reference_sweep(chain, vecs, periods):
    """Push Python-int vectors through the chain's 0/1 steps, periods
    times over: entry v of a push sums the entries of a vector at the
    rows that reach column v."""
    reach = [[np.flatnonzero(col).tolist() for col in step.array.T] for step in chain.steps]
    for _ in range(periods):
        for rows in reach:
            vecs = [[sum(map(vec.__getitem__, r)) for r in rows] for vec in vecs]
    return vecs


def reference_open(chain, periods):
    return sum(reference_sweep(chain, [[1] * len(chain.entry_space)], periods)[0])


def reference_cyclic(chain, periods):
    size = len(chain.entry_space)
    basis = [[int(i == s) for i in range(size)] for s in range(size)]
    return sum(vec[s] for s, vec in enumerate(reference_sweep(chain, basis, periods)))


class TestExactness:
    """Counts that need several limbs match the Python-int reference."""

    def test_quadratic_plane_12x100(self):
        chain = transfer_chain(Family.QUADRATIC, Direction.COLUMNWISE, 12)
        got = count_open(chain, 100)
        assert type(got) is int and got.bit_length() == 784
        assert got == reference_open(chain, 100)

    def test_truncated_square_plane_carries_mid_period(self, monkeypatch):
        # Pushes sum 243, 64 and 64 columns in turn, held as their 126, 36
        # and 36 mirror orbits, so no digit could pass 2**53 before the 8th
        # push, the second of the third period: the block first takes a
        # carry between two links of one period, onto a second 44-bit limb.
        chain = transfer_chain(Family.TRUNCATED_SQUARE, Direction.COLUMNWISE, 6)
        pushes = record_pushes(monkeypatch)
        carries = record_carries(monkeypatch, pushes)
        got = count_open(chain, 6)
        assert [push.cols for push in pushes[:3]] == [126, 36, 36]
        assert [push.layers for push in pushes] == [1] * 7 + [2] * 2
        assert carries[0] == Carry((36, 1, 1), 2, 7)
        assert got == reference_open(chain, 6)

    @pytest.mark.parametrize(
        "family, width, periods",
        [
            (Family.QUADRATIC, 11, 12),
            (Family.CROSSED, 11, 12),
            (Family.AZTEC, 7, 8),
            (Family.TRUNCATED_SQUARE, 6, 6),
        ],
    )
    def test_torus(self, family, width, periods):
        # the reference pushes every basis vector, the count one per orbit
        chain = transfer_chain(family, Direction.ROWWISE, width, Boundary.CYCLIC)
        got = count_cyclic(chain, periods)
        assert type(got) is int and got.bit_length() > 23
        assert got == reference_cyclic(chain, periods)

    @pytest.mark.parametrize(
        "family, m, n, expect",
        [
            (Family.QUADRATIC, 14, 14, 48609694845429192825410114233405807),
            (Family.CROSSED, 14, 14, 12038380931111061789962901),
            (Family.AZTEC, 9, 10, 71644525635966696318741446884546),
            (Family.TRUNCATED_SQUARE, 8, 8, 19091994364161308845002436432387834097),
        ],
    )
    def test_torus_golden(self, family, m, n, expect):
        # from the full-basis trace, one basis vector per state
        assert count(family, Topology.TORUS, m, n) == expect


class TestLongCylinders:
    """Cylinders too long for one of their two sweeps."""

    def test_ring_ladder_pell_lucas(self):
        # 1 x n is two n-cycles joined rung by rung: Q_n + (-1)^n, with
        # the Pell-Lucas numbers Q_0 = Q_1 = 2, Q_n = 2 Q_(n-1) + Q_(n-2)
        q = [2, 2]
        while len(q) <= 40:
            q.append(2 * q[-1] + q[-2])
        for n in range(3, 41):
            assert count(Family.QUADRATIC, Topology.CYLINDER, 1, n) == q[n] + (-1) ** n

    def test_triangle_prism(self):
        # m x 3 stacks m+1 triangles; a triangle's states are empty or one
        # site, and two stacked states clash on a shared nonempty site
        t = [[0 if i == j != 0 else 1 for j in range(4)] for i in range(4)]
        vec = [1] * 4
        for m in range(1, 41):
            vec = [sum(a * x for a, x in zip(row, vec)) for row in t]
            assert count(Family.QUADRATIC, Topology.CYLINDER, m, 3) == sum(vec)

    @pytest.mark.parametrize(
        "family, m, n", [(Family.QUADRATIC, 2, 30), (Family.AZTEC, 1, 25)]
    )
    def test_traced_around_the_wrap(self, family, m, n):
        around = transfer_chain(family, Direction.COLUMNWISE, m, Boundary.CYCLIC)
        assert count(family, Topology.CYLINDER, m, n) == reference_cyclic(around, n)


class TestOneSweep:
    """count_lattice counts an instance once, by the cheapest sweep."""

    @pytest.mark.parametrize(
        "family, topology, m, n",
        [
            (Family.QUADRATIC, Topology.PLANE, 12, 100),  # folded orbit links
            (Family.AZTEC, Topology.CYLINDER, 8, 18),  # a trace, zeta pushes
            (Family.TRUNCATED_SQUARE, Topology.TORUS, 8, 9),  # a trace in blocks
            (Family.TRUNCATED_SQUARE, Topology.CYLINDER, 4, 12),  # open orbit links
            # the rest of the exact-count benchmark's instances
            (Family.QUADRATIC, Topology.TORUS, 10, 11),
            (Family.QUADRATIC, Topology.TORUS, 11, 12),
            (Family.QUADRATIC, Topology.CYLINDER, 8, 10),
            (Family.CROSSED, Topology.TORUS, 11, 12),
            (Family.CROSSED, Topology.CYLINDER, 10, 10),
            (Family.AZTEC, Topology.TORUS, 7, 8),
            (Family.AZTEC, Topology.CYLINDER, 7, 7),
            (Family.AZTEC, Topology.PLANE, 8, 40),
            (Family.TRUNCATED_SQUARE, Topology.TORUS, 6, 7),
            (Family.TRUNCATED_SQUARE, Topology.CYLINDER, 6, 6),
            (Family.TRUNCATED_SQUARE, Topology.PLANE, 6, 30),
        ],
    )
    def test_prices_the_pushes_it_takes(self, family, topology, m, n, monkeypatch):
        # every (rows, cols, stack, column orbits) a count's relations pick
        # a kernel for is one its sweep was priced at, kernel and all
        priced = []
        kernel = chain_module._kernel

        def logged(rows, cols, bits, stack, orbits=None, keys=False):
            found = kernel(rows, cols, bits, stack, orbits, keys)
            priced.append((rows, cols, stack, orbits, keys, found[1]))
            return found

        monkeypatch.setattr(chain_module, "_kernel", logged)
        inst = LatticeInstance(family, topology, m, n)
        _sweep(inst)
        swept = set(priced)
        priced.clear()
        count_lattice(inst)
        assert priced and set(priced) <= swept

    @pytest.mark.parametrize("family", list(Family))
    @pytest.mark.parametrize("topology", list(Topology))
    def test_one_contraction_per_count(self, family, topology, monkeypatch):
        calls = []

        def logged(name):
            real = getattr(chain_module, name)

            def contraction(chain, periods):
                calls.append(name)
                return real(chain, periods)

            return contraction

        for name in ("count_open", "count_cyclic"):
            monkeypatch.setattr(chain_module, name, logged(name))
        lo_m, lo_n = _minima(family, topology)
        for m in range(lo_m, lo_m + 3):
            for n in range(lo_n, lo_n + 3):
                calls.clear()
                count(family, topology, m, n)
                trace = _sweep(LatticeInstance(family, topology, m, n))[3]
                assert calls == ["count_cyclic" if trace else "count_open"]

    @pytest.mark.parametrize(
        "m, n, direction",
        [
            # priced in estimated nanoseconds, each with one dot of 5.6 us
            (3, 3, Direction.ROWWISE),  # 5,628 open against 5,809 traced
            (13, 3, Direction.ROWWISE),  # 5,633 against about 5.2e7
            # one limb where the open sweep took two primes: 8,914 traced
            # against 11,314 open, and timed at 76 against 131 us
            (5, 10, Direction.COLUMNWISE),
            (5, 11, Direction.COLUMNWISE),  # 9,443 traced against 17,225 open
            (2, 30, Direction.COLUMNWISE),  # a 30-site ring does not fit
        ],
    )
    def test_cylinder_takes_fewer_pushes(self, m, n, direction):
        inst = LatticeInstance(Family.QUADRATIC, Topology.CYLINDER, m, n)
        assert _sweep(inst)[0] is direction

    @pytest.mark.parametrize("topology", [Topology.CYLINDER, Topology.TORUS])
    def test_oversized_refused_before_enumeration(self, topology, monkeypatch):
        def enumerate_states(*args):
            raise AssertionError("enumerated a slice space")

        monkeypatch.setattr(chain_module, "enumerate_states", enumerate_states)
        with pytest.raises(ValueError, match=f"quadratic {topology.value} 1000x1000 .*{MAX_ENUM_LENGTH}-site cap"):
            count(Family.QUADRATIC, topology, 1000, 1000)

    def test_aztec_cylinder_8x18_traces_by_its_cheaper_pushes(self):
        # its wide links are priced at the zeta push, as the trace pushes
        # them; the count is the one of the full built trace
        inst = LatticeInstance(Family.AZTEC, Topology.CYLINDER, 8, 18)
        assert _sweep(inst) == (Direction.COLUMNWISE, 8, 18, True)
        assert count_lattice(inst) == 59240015634637615445363791209538435650283945447360186624

    @staticmethod
    def earlier_rule(inst):
        """The sweep count_lattice took before the push count picked it:
        planes across the narrow side, tori traced at width n, swapped
        to the narrow side when the swapped instance is valid."""
        fam, m, n = inst.family, inst.m, inst.n
        if inst.topology is Topology.PLANE:
            m, n = min(m, n), max(m, n)
            return Direction.COLUMNWISE, m, _periods(fam, Direction.COLUMNWISE, m, n), False
        if n > m:
            try:
                LatticeInstance(fam, Topology.TORUS, n, m)
                m, n = n, m
            except ValueError:
                pass
        return Direction.ROWWISE, n, _periods(fam, Direction.ROWWISE, m, n), True

    @pytest.mark.parametrize("family", list(Family))
    @pytest.mark.parametrize("topology", [Topology.PLANE, Topology.TORUS])
    def test_planes_and_tori_sweep_as_before(self, family, topology):
        lo_m, lo_n = _minima(family, topology)
        for m in range(lo_m, 41):
            for n in range(lo_n, 41):
                inst = LatticeInstance(family, topology, m, n)
                direction, width, periods, trace = self.earlier_rule(inst)
                slices = _period_slices(family, direction, width)
                if max(length for _, length in slices) <= MAX_ENUM_LENGTH:
                    assert _sweep(inst) == (direction, width, periods, trace)
                else:
                    with pytest.raises(ValueError, match=f"{MAX_ENUM_LENGTH}-site cap"):
                        _sweep(inst)


# One push: len(block), the larger of the in and out sizes, the block
# width (the length of its last axis), the limbs (the length of the
# middle axis of a 3-D stack, else 1), the rows of the output, and the
# kernel that took it, "built", "fold" or "zeta".
Push = collections.namedtuple("Push", "cols size width layers rows kernel")


def record_pushes(monkeypatch):
    """Patch StepMatrix.push, Relation._fold and Relation.push to log a
    Push for every push; a relation that pushes its built or folded step
    is logged once, as built or fold."""
    log = []
    built, fold, relation = StepMatrix.push, Relation._fold, Relation.push

    def note(block, out, kernel):
        shape = np.shape(block)
        layers = shape[1] if len(shape) == 3 else 1
        log.append(Push(len(block), max(np.size(block), out.size), shape[-1], layers, len(out), kernel))

    def logged_built(self, block):
        out = built(self, block)
        note(block, out, "built")
        return out

    def logged_fold(self, block):
        out = fold(self, block)
        note(block, out, "fold")
        return out

    def logged_relation(self, block):
        before = len(log)
        out = relation(self, block)
        if len(log) == before:
            note(block, out, "zeta")
        return out

    monkeypatch.setattr(StepMatrix, "push", logged_built)
    monkeypatch.setattr(Relation, "_fold", logged_fold)
    monkeypatch.setattr(Relation, "push", logged_relation)
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
        rotated = dataclasses.replace(chain, links=chain.links[r:] + chain.links[:r])
        for periods in range(1, 5):
            pushes.clear()
            assert count_cyclic(rotated, periods) == reference_cyclic(rotated, periods)
            assert pushes[0][0] == smallest


def test_trace_stack_stays_within_a_block(monkeypatch):
    # 729 paired states against 128 plain ones: the trace starts from the
    # plain space, but its stack of 72 basis vectors, in up to 3 limbs,
    # fans out to the paired one.  A budget of 5 such vectors splits it in
    # blocks.
    chain = transfer_chain(Family.TRUNCATED_SQUARE, Direction.COLUMNWISE, 7, Boundary.CYCLIC)
    assert sorted({len(step.rows) for step in chain.steps}) == [128, 729]
    pushes = record_pushes(monkeypatch)
    whole = count_cyclic(chain, 4)
    for budget, width in ((STACK_ENTRIES, 72), (3 * 729 * 5, 5)):
        monkeypatch.setattr(chain_module, "STACK_ENTRIES", budget)
        pushes.clear()
        assert count_cyclic(chain, 4) == whole
        assert max(push.size for push in pushes) <= budget
        assert {push.layers for push in pushes} == {1, 2, 3}
        assert max(push.width for push in pushes) == width


# ---------------------------------------------------------------------------
# Orbits: a ring turns, an open slice mirrors, and every step commutes


def rotate(mask, space):
    """A wrapped slice's mask turned by one site, or by one pair on a
    PAIRED space."""
    L, s = space.length, 2 if space.kind is StateKind.PAIRED else 1
    return ((mask << s) | (mask >> (L - s))) & ((1 << L) - 1)


def mirror(mask, space):
    """An open slice's mask with its sites in reverse order."""
    return int(format(mask, f"0{space.length}b")[::-1], 2)


def permutation(space, turn):
    index = {mask: i for i, mask in enumerate(space.masks)}
    return [index[turn(mask, space)] for mask in space.masks]


@pytest.mark.parametrize("family", list(Family))
@pytest.mark.parametrize("extra", range(5))
def test_rowwise_steps_commute_with_rotation(family, extra):
    width = _MIN_WIDTH[(family, Direction.ROWWISE)] + extra
    for step in transfer_chain(family, Direction.ROWWISE, width).steps:
        rows, cols = permutation(step.rows, rotate), permutation(step.cols, rotate)
        assert np.array_equal(step.array[np.ix_(rows, cols)], step.array)


@pytest.mark.parametrize("family", list(Family))
@pytest.mark.parametrize("extra", range(6))
def test_columnwise_steps_commute_with_mirror(family, extra):
    width = _MIN_WIDTH[(family, Direction.COLUMNWISE)] + extra
    for step in transfer_chain(family, Direction.COLUMNWISE, width).steps:
        rows, cols = permutation(step.rows, mirror), permutation(step.cols, mirror)
        assert np.array_equal(step.array[np.ix_(rows, cols)], step.array)


@pytest.mark.parametrize(
    "kind, length, wrap",
    [(StateKind.CYCLE, L, True) for L in range(3, 15)]
    + [(StateKind.FREE, L, True) for L in range(1, 13)]
    + [(StateKind.PAIRED, L, True) for L in range(2, 13, 2)]
    + [(StateKind.PATH, L, False) for L in range(1, 15)]
    + [(StateKind.FREE, L, False) for L in range(1, 13)]
    + [(StateKind.PAIRED, L, False) for L in range(2, 13, 2)],
)
def test_orbits_partition_the_space(kind, length, wrap):
    space = enumerate_states(kind, length)
    masks = space.masks.tolist()
    of, reps, sizes = _orbits(space, wrap)
    turn = rotate if wrap else mirror
    assert sum(sizes) == len(space) and len(reps) == len(sizes)
    for j, (r, size) in enumerate(zip(reps, sizes)):
        orbit = [masks[r]]
        while (turned := turn(orbit[-1], space)) != orbit[0]:
            orbit.append(turned)
        assert masks[r] == min(orbit)
        assert size == len(orbit)
        assert wrap or size in (1, 2)
        assert {of[masks.index(mask)] for mask in orbit} == {j}


@pytest.mark.parametrize(
    "kind, wrap",
    # every space a chain holds: paths open, rings wrapped, the rest either way
    [(StateKind.PATH, False), (StateKind.CYCLE, True)] + [(k, w) for k in (StateKind.FREE, StateKind.PAIRED) for w in (False, True)],
)
def test_orbit_count_matches_the_orbits(kind, wrap):
    # the closed forms _sweep prices by, against the orbits pushes run on
    lengths = {StateKind.CYCLE: range(3, 19), StateKind.PAIRED: range(2, 19, 2)}.get(kind, range(1, 19))
    for length in lengths:
        space = enumerate_states(kind, length)
        assert _orbit_count(kind, length, wrap) == len(_orbits(space, wrap)[1])


def test_orbits_hold_no_array_per_image():
    # the 18-site wrapped free space, 2**18 states under 18 rotations:
    # its orbits hold a few state-sized int64 arrays, not one per rotation
    space = enumerate_states(StateKind.FREE, 18)
    _orbits.cache_clear()
    tracemalloc.start()
    try:
        _orbits(space, True)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 6 * 8 * 2**18


def test_orbits_refuse_a_space_its_symmetry_leaves():
    # free masks {1, 4, 6} of 3 sites, mirrored: 6 turns to 3, which the
    # space does not hold, so no orbit of 6 lies in it
    space = StateSpace(StateKind.FREE, 3, np.array([1, 4, 6], dtype=np.int64))
    chain = TransferChain(
        Family.QUADRATIC, Direction.COLUMNWISE, Boundary.OPEN, 2, (Relation(space, space, None, None, False),)
    )
    for run in (lambda: _orbits(space, False), lambda: count_open(chain, 1), lambda: dominant_eigenvalue(chain)):
        with pytest.raises(ValueError, match="least image is not a mask of the free space of 3 sites"):
            run()


def test_separate_chains_share_their_orbits():
    # enumeration is shared per (kind, length), so the orbits that the
    # first count caches serve the second chain's count too
    first = transfer_chain(Family.QUADRATIC, Direction.ROWWISE, 7)
    count_open(first, 3)
    hits = _orbits.cache_info().hits
    second = transfer_chain(Family.QUADRATIC, Direction.ROWWISE, 7)
    assert second.entry_space is first.entry_space
    count_open(second, 3)
    assert _orbits.cache_info().hits > hits


@pytest.mark.parametrize("family", list(Family))
@pytest.mark.parametrize("direction", list(Direction))
def test_orbit_steps_rows_are_the_representatives(family, direction):
    chain = transfer_chain(family, direction, _MIN_WIDTH[(family, direction)] + 3)
    plan, _, _ = orbit_steps(chain.links)
    for step, link in zip(plan, chain.links):
        _, reps, _ = _orbits(link.rows, link.wrap)
        masks = step.rows.masks
        assert masks.dtype == np.int64 and not masks.flags.writeable
        assert masks.tolist() == link.rows.masks[reps].tolist()
        assert step.cols is link.cols and step.on_orbits and not link.on_orbits


def basis_vectors(pushes, links):
    """Basis vectors a trace pushed: every one goes through ``links`` of
    the period's links, so the block widths sum to that many times the
    count."""
    total = sum(push.width for push in pushes)
    assert total % links == 0
    return total // links


def test_torus_trace_pushes_one_vector_per_orbit(monkeypatch):
    chain = transfer_chain(Family.QUADRATIC, Direction.ROWWISE, 12, Boundary.CYCLIC)
    pushes = record_pushes(monkeypatch)
    count_cyclic(chain, 12)
    assert len(chain.entry_space) == 322
    assert basis_vectors(pushes, 6) == 31  # half of 12 periods of one link


@pytest.mark.parametrize(
    "family, width, orbits, links",
    # PATH(7): 34 states, 8 of them palindromes; FREE(3): 8 states, 4.
    # Five periods: 3 of 5 links pushed, or all 15 of a truncated-square
    # period that starts at its plain space.
    [(Family.QUADRATIC, 6, 21, 3), (Family.TRUNCATED_SQUARE, 3, 6, 15)],
)
def test_cylinder_trace_pushes_one_vector_per_mirror_orbit(family, width, orbits, links, monkeypatch):
    chain = transfer_chain(family, Direction.COLUMNWISE, width, Boundary.CYCLIC)
    start = min((step.rows for step in chain.steps), key=len)
    assert len({min(mask, mirror(mask, start)) for mask in start.masks}) == orbits
    pushes = record_pushes(monkeypatch)
    count_cyclic(chain, 5)
    assert basis_vectors(pushes, links) == orbits


def test_ring_eig_pushes_one_row_per_rotation_orbit(monkeypatch):
    # 31 orbits in, 31 out: the folded step, not 31 rows of all 322 columns;
    # a one-link chain pushes its link once per composite push counted
    chain = transfer_chain(Family.QUADRATIC, Direction.ROWWISE, 12, Boundary.CYCLIC)
    pushes = record_pushes(monkeypatch)
    result = dominant_eigenvalue(chain)
    assert len(pushes) == result.iterations
    assert {(push.cols, push.rows, push.kernel) for push in pushes} == {(31, 31, "fold")}
    assert len(result.vector) == 322
    values, vectors = np.linalg.eigh(chain.links[0].built.array.astype(np.float64))
    assert abs(result.value - values[-1]) <= 1e-13 * values[-1]
    assert np.max(np.abs(result.vector - np.abs(vectors[:, -1]))) <= 1e-12


@pytest.mark.parametrize("family", list(Family))
@pytest.mark.parametrize("direction", list(Direction))
def test_eig_and_open_counts_build_no_whole_step(family, direction, monkeypatch):
    # only traces (and matrix) build a step; folds fill theirs from masks
    built = []
    build_step = chain_module.build_step

    def logged(rows, cols, f, g):
        built.append((rows, cols, f, g))
        return build_step(rows, cols, f, g)

    def rows_built(link):
        return [len(rows) for rows, cols, f, g in built if cols is link.cols and (f, g) == (link.f, link.g)]

    monkeypatch.setattr(chain_module, "build_step", logged)
    chain = transfer_chain(family, direction, _MIN_WIDTH[(family, direction)] + 4)
    dominant_eigenvalue(chain)
    count_open(chain, 3)
    assert built == []
    pushes = record_pushes(monkeypatch)
    count_cyclic(chain, 3)
    # a trace builds the links it pushes by their built step, each once;
    # the truncated-square ring's wide links take the zeta push instead
    # (links of one shape have one ``bits`` and ``keys`` here, so one pick)
    taken = {(push.cols, push.rows, push.kernel) for push in pushes}
    traced = [rows_built(link) for link in chain.links]
    assert traced == [
        [len(link.rows)] if (len(link.cols), len(link.rows), "built") in taken else [] for link in chain.links
    ]
    assert any(traced)
    # matrix reads the steps the trace built, and builds the others once
    assert all(step is link.built for step, link in zip(chain.steps, chain.links))
    assert len(built) == len(chain.links)


# ---------------------------------------------------------------------------
# The zeta push: a relation pushed without building it


def relations(family, direction, width):
    """Every link of the chain, made afresh with none of the lazy state
    the cached link holds, once with its whole rows and once with only
    its orbit representatives' rows."""
    for link in transfer_chain(family, direction, width).links:
        _, reps, _ = _orbits(link.rows, link.wrap)
        yield dataclasses.replace(link)
        yield dataclasses.replace(link, rows=StateSpace(link.rows.kind, link.rows.length, link.rows.masks[reps]))


# the slice kinds that take the keys plan: each forces its plan
ZETA_PLANS = {"table": frozenset(), "keys": frozenset(StateKind)}


def zeta_plan(rel):
    """The zeta push plan a relation took: "table" or "keys"."""
    return "table" if rel._zeta_plan[1] is None else "keys"


@pytest.mark.parametrize(
    "family, direction, width",
    [(f, d, w) for f in Family for d in Direction for w in range(_MIN_WIDTH[(f, d)], 9)],
)
def test_relation_push_matches_the_built_step(family, direction, width, monkeypatch):
    # Every sum stays below 2**53, so both pushes are exact and any slip shows.
    monkeypatch.setattr(chain_module, "_push_costs", lambda *args: (1.0, 0.0))  # always the zeta push
    for plan, kinds in ZETA_PLANS.items():  # each plan in turn, on relations made afresh
        monkeypatch.setattr(chain_module, "_KEYS_PLAN_KINDS", kinds)
        rng = np.random.default_rng(width)
        for rel in relations(family, direction, width):
            step = build_step(rel.rows, rel.cols, rel.f, rel.g)
            vector = rng.integers(0, 2**30, size=len(rel.cols)).astype(np.float64)
            out = rel.push(vector)
            assert out.shape == (len(rel.rows),) and np.array_equal(out, step.push(vector))
            # digits at most the bound a carry leaves, whose sums stay exact
            top = carried_top(max(len(rel.rows), len(rel.cols)))
            for limbs, vectors in ((4, 3), (1, 1)):  # one limb of one vector takes the lone-vector route
                stack = rng.integers(0, top, size=(len(rel.cols), limbs, vectors), endpoint=True).astype(np.float64)
                stack[0] = top
                out = rel.push(stack)
                assert out.shape == (len(rel.rows), limbs, vectors) and np.array_equal(out, step.push(stack))
            assert zeta_plan(rel) == plan


@pytest.mark.parametrize(
    "family, direction, width",
    [(f, d, w) for f in Family for d in Direction for w in range(_MIN_WIDTH[(f, d)], 13)],
)
def test_keys_plan_matches_the_table_and_the_built_step(family, direction, width, monkeypatch):
    # The zeta push of every relation, whole and at its orbit rows, by
    # the keys plan and by the table, on integer vectors whose sums stay
    # below 2**53: exactly equal, and equal to the built step's push
    # where that step holds at most 2**22 entries.
    rng = np.random.default_rng(width)
    for rel in relations(family, direction, width):
        pushed = []
        for kinds in (ZETA_PLANS["keys"], ZETA_PLANS["table"]):
            monkeypatch.setattr(chain_module, "_KEYS_PLAN_KINDS", kinds)
            fresh = dataclasses.replace(rel)
            rng = np.random.default_rng(width)
            for stack in ((), (3,)):
                block = rng.integers(0, 2**30, size=(len(rel.cols),) + stack).astype(np.float64)
                pushed.append(fresh._zeta(block))
        keys, table = pushed[:2], pushed[2:]
        assert all(np.array_equal(k, t) for k, t in zip(keys, table))
        if len(rel.rows) * len(rel.cols) <= 2**22:
            rng = np.random.default_rng(width)
            step = build_step(rel.rows, rel.cols, rel.f, rel.g)
            for stack, out in zip(((), (3,)), keys):
                block = rng.integers(0, 2**30, size=(len(rel.cols),) + stack).astype(np.float64)
                assert np.array_equal(out, step.push(block))


@pytest.mark.parametrize(
    "family, direction, width",
    [(f, d, w) for f in Family for d in Direction for w in range(_MIN_WIDTH[(f, d)], 11)],
)
def test_folded_push_matches_the_unfolded_one(family, direction, width):
    # The folded step times x on orbits, against the step at the orbit
    # rows times x unfolded to every column: carried digits exactly, floats to
    # within the rounding of a sum of at most len(cols) nonnegative terms.
    # The folded step itself is the step summed over each column orbit,
    # as exact integers.
    rng = np.random.default_rng(width)
    plan, _, _ = orbit_steps(transfer_chain(family, direction, width).links)
    for rel in plan:
        of, reps, _ = _orbits(rel.cols, rel.wrap)
        step = build_step(rel.rows, rel.cols, rel.f, rel.g)
        order = np.argsort(of, kind="stable")  # the columns, orbit by orbit
        starts = np.flatnonzero(np.r_[True, of[order][1:] != of[order][:-1]])
        sums = np.add.reduceat(step.array[:, order].astype(np.int64), starts, axis=1)
        assert sums.shape == rel._folded.shape and np.array_equal(rel._folded.astype(np.int64), sums)
        top = carried_top(len(rel.cols))
        for stack in (1, 25):
            digits = rng.integers(0, top, size=(len(reps), stack), endpoint=True).astype(np.float64)
            digits[0] = top
            assert np.array_equal(rel._fold(digits), step.push(digits[of]))
            x = rng.random((len(reps), stack))
            folded, unfolded = rel._fold(x), step.push(x[of])
            assert np.all(np.abs(folded - unfolded) <= len(rel.cols) * 2.0**-52 * unfolded)


@pytest.mark.parametrize(
    "family, direction, width",
    # orbit rows x column orbits: 1811 x 1811, 23,188 x 23,188 and 826 x 826
    [(Family.QUADRATIC, Direction.ROWWISE, 22), (Family.QUADRATIC, Direction.COLUMNWISE, 21), (Family.QUADRATIC, None, 14)],
)
def test_no_fold_passes_the_budget(family, direction, width, monkeypatch):
    # eig at the two widest quadratic slices, and a 14x200 plane count at
    # up to 26 limbs: each folded step fits STACK_ENTRIES, or the relation takes
    # the zeta push, and no orbit relation pushes its built step
    folds = []
    fold = Relation._fold

    def logged(self, block):
        folds.append(self._folded.size)
        return fold(self, block)

    def refused(self, block):
        raise AssertionError(f"pushed a built {self.shape[0]} x {self.shape[1]} step")

    monkeypatch.setattr(Relation, "_fold", logged)
    monkeypatch.setattr(StepMatrix, "push", refused)
    if direction is None:
        assert _sweep(LatticeInstance(family, Topology.PLANE, width, 200))[:2] == (Direction.COLUMNWISE, width)
        count(family, Topology.PLANE, width, 200)
    else:
        dominant_eigenvalue(transfer_chain(family, direction, width))
    assert max(folds, default=0) <= STACK_ENTRIES


def test_relation_push_rejects_wrong_length():
    link = transfer_chain(Family.AZTEC, Direction.COLUMNWISE, 3).links[0]
    with pytest.raises(ValueError, match="column space"):
        link.push(np.ones(len(link.cols) + 1))


def test_relation_spreads_one_side_at_most():
    space = enumerate_states(StateKind.FREE, 3)
    spread = _spread(Family.AZTEC, True, 3)
    with pytest.raises(ValueError, match="one side"):
        Relation(space, space, spread, spread, True)


class TestPushPicks:
    """An orbit relation pushes through its folded step or by the zeta
    push, whichever _push_costs prices lower for the stack it is given,
    and by the zeta push where its folded step would pass STACK_ENTRIES."""

    @pytest.mark.parametrize(
        "family, direction, width, kernels",
        # the kernel of every link, or of each in turn; orbit rows x column
        # orbits of a link, and the columns it folds
        [
            (Family.QUADRATIC, Direction.ROWWISE, 12, "fold"),  # 31 x 31 of 31 x 322
            (Family.AZTEC, Direction.COLUMNWISE, 8, "fold"),  # 136 x 272 of 136 x 512
            (Family.AZTEC, Direction.ROWWISE, 10, "fold"),  # 108 x 108 of 108 x 1024
            (Family.AZTEC, Direction.COLUMNWISE, 10, "zeta"),  # 528 x 1056 passes 2**19
            # 3321 x 272 and 272 x 3321 on 9 sites, 272 x 272 between
            (Family.TRUNCATED_SQUARE, Direction.COLUMNWISE, 9, "zeta fold zeta"),
        ],
    )
    def test_eig(self, family, direction, width, kernels, monkeypatch):
        pushes = record_pushes(monkeypatch)
        chain = transfer_chain(family, direction, width)
        dominant_eigenvalue(chain)
        orbits = [len(_orbits(link.rows, link.wrap)[1]) for link in chain.links]
        # (column orbits, orbit rows, kernel) of each link
        links = zip(orbits[1:] + orbits[:1], orbits, itertools.cycle(kernels.split()))
        assert {(push.cols, push.rows, push.kernel) for push in pushes} == set(links)

    def test_quadratic_plane_12x100(self, monkeypatch):
        # 322 x 322 folded from 322 x 610 on 13 sites, at stacks of 1 to 11 limbs
        pushes = record_pushes(monkeypatch)
        count(Family.QUADRATIC, Topology.PLANE, 12, 100)
        assert {(push.cols, push.rows, push.layers, push.kernel) for push in pushes} == {
            (322, 322, limbs, "fold") for limbs in range(1, 12)
        }


@pytest.mark.parametrize(
    "family, width",
    # Orbit rows of their dense steps: 8256 x 32768 and 29646 x 2048
    [(Family.AZTEC, 14), (Family.TRUNCATED_SQUARE, 11)],
)
def test_wide_strip_eig_builds_no_large_step(family, width, monkeypatch):
    refuse_large_builds(monkeypatch)
    chain = transfer_chain(family, Direction.COLUMNWISE, width)
    result = dominant_eigenvalue(chain)
    assert len(result.vector) == len(chain.entry_space) and result.vector.min() > 0


def refuse_large_builds(monkeypatch):
    """Make building any step of more than 2**20 entries fail."""
    build_step = chain_module.build_step

    def guarded(rows, cols, *spreads):
        if len(rows) * len(cols) > 2**20:
            raise AssertionError(f"built a {len(rows)} x {len(cols)} step")
        return build_step(rows, cols, *spreads)

    monkeypatch.setattr(chain_module, "build_step", guarded)


def test_truncated_square_torus_trace_builds_no_large_step(monkeypatch):
    # rowwise width 9: the 6561 x 256 links (and back) would be built
    # whole for every basis vector block; the zeta push takes them
    refuse_large_builds(monkeypatch)
    assert _sweep(LatticeInstance(Family.TRUNCATED_SQUARE, Topology.TORUS, 9, 10))[:2] == (Direction.ROWWISE, 9)
    expect = 6025964122887951693239209293733276270015021283724589343
    assert count(Family.TRUNCATED_SQUARE, Topology.TORUS, 9, 10) == expect


@pytest.mark.parametrize("budget, chunks", [(2**9, [4, 4, 4, 3]), (2**6, [1] * 15)])
def test_zeta_push_splits_its_stack_within_the_budget(budget, chunks, monkeypatch):
    # 15 vectors through 7 sites: a table of 2**7 rows holds budget >> 7
    # of them, or one where the budget is below a single vector
    monkeypatch.setattr(chain_module, "_push_costs", lambda *args: (1.0, 0.0))
    monkeypatch.setattr(chain_module, "_KEYS_PLAN_KINDS", ZETA_PLANS["table"])
    monkeypatch.setattr(chain_module, "STACK_ENTRIES", budget)
    tables = []
    zeta = Relation._zeta

    def logged(self, flat):
        tables.append((1 << self.bits, flat.shape[1]))
        return zeta(self, flat)

    monkeypatch.setattr(Relation, "_zeta", logged)
    link = transfer_chain(Family.TRUNCATED_SQUARE, Direction.COLUMNWISE, 7).links[0]
    assert (len(link.rows), len(link.cols), link.bits) == (729, 128, 7)
    stack = np.random.default_rng(7).integers(0, 2**30, size=(128, 3, 5)).astype(np.float64)
    out = link.push(stack)
    assert tables == [(128, k) for k in chunks]
    assert out.shape == (729, 3, 5) and np.array_equal(out, link.built.push(stack))


@pytest.mark.parametrize("budget", [2**12, 2**6])
def test_keys_plan_splits_its_stack_by_its_widest_level(budget, monkeypatch):
    # the quadratic w=10 link's widest level holds far fewer keys than
    # its 2**11 table, so a chunk holds that many more vectors
    monkeypatch.setattr(chain_module, "_push_costs", lambda *args: (1.0, 0.0))
    monkeypatch.setattr(chain_module, "_KEYS_PLAN_KINDS", ZETA_PLANS["keys"])
    monkeypatch.setattr(chain_module, "STACK_ENTRIES", budget)
    link = transfer_chain(Family.QUADRATIC, Direction.COLUMNWISE, 10).links[0]
    widest = link._zeta_plan[0]
    assert widest < 2**link.bits
    widths = []
    zeta = Relation._zeta

    def logged(self, flat):
        widths.append(flat.shape[1])
        return zeta(self, flat)

    monkeypatch.setattr(Relation, "_zeta", logged)
    stack = np.random.default_rng(10).integers(0, 2**30, size=(len(link.cols), 3, 5)).astype(np.float64)
    out = link.push(stack)
    k = max(1, budget // widest)
    assert widths == [min(k, 15 - s) for s in range(0, 15, k)]
    assert np.array_equal(out, link.built.push(stack))


@pytest.mark.parametrize(
    "family, direction, width, plan",
    # every relation the spectral-bounds benchmark jobs push by zeta
    [
        (Family.QUADRATIC, Direction.COLUMNWISE, 14, "keys"),
        (Family.QUADRATIC, Direction.COLUMNWISE, 15, "keys"),
        (Family.CROSSED, Direction.COLUMNWISE, 14, "keys"),
        (Family.AZTEC, Direction.COLUMNWISE, 10, "table"),
        (Family.TRUNCATED_SQUARE, Direction.COLUMNWISE, 8, "table"),
        (Family.TRUNCATED_SQUARE, Direction.COLUMNWISE, 9, "table"),
    ],
)
def test_zeta_relations_pick_their_plan(family, direction, width, plan, pick):
    # paths and rings reach a few keys of their table, free and paired
    # slices nearly all of them
    steps, _, _ = orbit_steps(transfer_chain(family, direction, width).links)
    zetas = [step for step in steps if pick(step, 1) == "zeta"]
    assert zetas and {zeta_plan(step) for step in zetas} == {plan}


@pytest.mark.parametrize("family", list(Family))
@pytest.mark.parametrize("direction", list(Direction))
def test_key_gathers_take_one_pair_per_site(family, direction):
    for rel in relations(family, direction, _MIN_WIDTH[(family, direction)] + 5):
        gathers = _key_gathers(rel._gather, rel._scatter[0], rel.bits)
        assert len(gathers) == rel.bits and len(gathers[-1][0]) == len(gathers[-1][1]) == len(rel.rows)
        # below the last site the second gather reads for its level's tail alone
        assert all(len(b) <= len(a) for a, b in gathers)


def test_second_key_gathers_read_only_prefixes_with_the_bit():
    # the quadratic w=15 orbit link, the widest keys plan spectral-bounds
    # pushes: its levels hold 44,668 keys in all, and its second gathers
    # read 28,409 of them, 10,680 at the zero (26,744 of 44,668 when
    # they read for every key)
    steps, _, _ = orbit_steps(transfer_chain(Family.QUADRATIC, Direction.COLUMNWISE, 15).links)
    _, levels = steps[0]._zeta_plan
    held = [len(steps[0]._scatter[0])] + [len(a) for a, _ in levels[:-1]]
    assert sum(len(a) for a, _ in levels) == 44668
    assert sum(len(b) for _, b in levels) == 28409
    assert sum(int(np.count_nonzero(b == zero)) for (_, b), zero in zip(levels, held)) == 10680


def test_quadratic_w19_eig_allocates_no_table(monkeypatch):
    # The 16-site relation would take a 2**20-entry float table per push;
    # its keys plan holds at most 21,893 keys a level.
    chain = transfer_chain(Family.QUADRATIC, Direction.COLUMNWISE, 19)

    def refuse_tables(make):
        def guarded(shape, *args, **kwargs):
            if math.prod(np.atleast_1d(shape)) >= 2**20:
                raise AssertionError(f"allocated {shape} entries")
            return make(shape, *args, **kwargs)

        return guarded

    for name in ("zeros", "empty"):
        monkeypatch.setattr(np, name, refuse_tables(getattr(np, name)))
    result = dominant_eigenvalue(chain)
    assert len(result.vector) == len(chain.entry_space) and result.vector.min() > 0


def test_relation_prices_each_stack_width_once(monkeypatch):
    # priced built for even stacks and zeta for odd ones
    priced = []

    def costs(rows, cols, bits, stack, orbits=None, keys=False):
        priced.append((rows, cols, bits, stack))
        return (0.0, 1.0) if stack % 2 == 0 else (1.0, 0.0)

    monkeypatch.setattr(chain_module, "_push_costs", costs)
    pushes = record_pushes(monkeypatch)
    link = transfer_chain(Family.AZTEC, Direction.COLUMNWISE, 4).links[0]
    stacks = [1, 2, 1, 3, 2, 4, 3, 1]
    rng = np.random.default_rng(4)
    for stack in stacks:
        block = rng.integers(0, 2**30, size=(len(link.cols), stack)).astype(np.float64)
        assert np.array_equal(link.push(block), link.built.push(block))
        pushes.pop()  # the reference push
    assert priced == [(len(link.rows), len(link.cols), link.bits, stack) for stack in (1, 2, 3, 4)]
    assert [push.kernel for push in pushes] == ["zeta" if stack % 2 else "built" for stack in stacks]


def test_paired_spread_matches_pair_by_pair():
    # pair k's first member (bit 2k) touches site k, its second (bit 2k+1)
    # site k+1, turned mod p when wrapped; p <= 11 is every paired slice
    # a chain lays down, up to MAX_ENUM_LENGTH sites
    for p in range(1, MAX_ENUM_LENGTH // 2 + 1):
        masks = enumerate_states(StateKind.PAIRED, 2 * p).masks
        for wrap in (False, True):
            got = _spread(Family.TRUNCATED_SQUARE, wrap, 2 * p)(masks)
            expect = np.zeros_like(masks)
            for k in range(p):
                expect |= ((masks >> 2 * k) & 1) << k
                expect |= ((masks >> 2 * k + 1) & 1) << ((k + 1) % p if wrap else k + 1)
            assert np.array_equal(got, expect)


# ---------------------------------------------------------------------------
# Limbs: exact integers as float64 digits, carried only where a push needs it


def all_true_chain(length):
    """One all-ones step over every mask of `length` free sites (every
    row spreads to no site): after t pushes every entry is size**t, the
    value bound ``_carries`` keeps, and its open count is
    size**(periods + 1)."""
    space = enumerate_states(StateKind.FREE, length)
    step = Relation(space, space, np.zeros_like, None, False)
    return TransferChain(Family.QUADRATIC, Direction.COLUMNWISE, Boundary.OPEN, length, (step,))


def carried_top(widest):
    """The largest digit a carry step leaves in the radix of a chain whose
    widest slice space is this: 2**b - 1 + 2**(53 - b)."""
    radix = chain_module._radix(widest)
    return (1 << radix) - 1 + (1 << 53 - radix)


@pytest.mark.parametrize("length", range(1, 9))
def test_limb_count_has_no_slack(length):
    # Every entry of a block is a power of two, 2**(length * t), and so
    # exactly its value bound.  Where a carry meets one of 2**(radix * k),
    # it needs k + 1 limbs, the top one holding 1; with one fewer its carry
    # would leave the block.  Up to 120 periods every length past 1 meets
    # such a carry, and every count is exact.
    chain = all_true_chain(length)
    size = len(chain.entry_space)
    radix = chain_module._radix(size)
    edges = 0
    for periods in range(121):
        assert count_open(chain, periods) == size ** (periods + 1)
        carries = chain_module._carries([size] * ((periods + 1) // 2), radix)
        before = [1] + [value for _, _, _, value in carries]  # each entry's value before push t
        edges += any(carry and before[t].bit_length() % radix == 1 for t, (carry, _, _, _) in enumerate(carries))
    assert (edges > 0) is (length > 1)


def test_radix_leaves_one_push_after_a_carry():
    # the widest even radix whose carried digits, summed over the widest
    # space, stay within 2**53; a 22-site free space takes the narrowest
    for widest, radix in ((1, 50), (7, 50), (610, 42), (1597, 42), (3**11, 34), (2**22, 30)):
        assert chain_module._radix(widest) == radix
        assert carried_top(widest) * widest <= 2**53
        wider = radix + 2
        assert ((1 << wider) - 1 + (1 << 53 - wider)) * widest > 2**53 or wider > 50


def test_quadratic_plane_12x100_pushes_its_limbs(monkeypatch):
    # One entry per mirror orbit (322 of 610) in and out, through half of
    # the 100 links: the halves meet in the middle.  610**5 < 2**53, so the
    # first five pushes take one limb and no carry; each of the other 45
    # takes a carry first, onto as many 42-bit limbs as 610**t needs, and
    # the dot carries the block where the halves meet, once, since both
    # halves are that block.  295 limb columns in all, where 25 primes
    # took 1250.
    chain = transfer_chain(Family.QUADRATIC, Direction.COLUMNWISE, 12)
    pushes = record_pushes(monkeypatch)
    carries = record_carries(monkeypatch, pushes)
    count_open(chain, 100)
    assert {(push.cols, push.rows) for push in pushes} == {(322, 322)}
    runs = [(1, 5), (2, 5), (3, 4), (4, 5), (5, 4), (6, 5), (7, 4), (8, 5), (9, 4), (10, 5), (11, 4)]
    assert [push.layers for push in pushes] == [limbs for limbs, times in runs for _ in range(times)]
    assert sum(push.layers for push in pushes) == 295
    assert [c.after for c in carries] == list(range(5, 51))
    assert carries[-1] == Carry((322, 11, 1), 12, 50)


# One carry step: the shape of the block it takes, the limbs it gives,
# and how many pushes the log passed to record_carries held then.
Carry = collections.namedtuple("Carry", "shape limbs after")


def record_carries(monkeypatch, pushes=()):
    """Patch chain._carry to log a Carry for every call."""
    log = []
    carry = chain_module._carry

    def logged(block, limbs, radix):
        log.append(Carry(np.shape(block), limbs, len(pushes)))
        return carry(block, limbs, radix)

    monkeypatch.setattr(chain_module, "_carry", logged)
    return log


def test_one_limb_count_never_carries(monkeypatch):
    # 7 states and 4 periods, pushed through 2: no entry passes 7**2, and
    # the dot of the halves, at most 7**5, is taken in float64 as it is
    carries = record_carries(monkeypatch)
    assert count(Family.QUADRATIC, Topology.TORUS, 4, 4) == 743
    assert carries == []


# The radixes of the widest spaces of one, two and 12 sites, of the
# 12-wide quadratic strip, of a 22-site paired space and of a 22-site
# free one, the narrowest; each with that widest space.
RADIXES = [(chain_module._radix(w), w) for w in (1, 3, 4096, 610, 3**11, 2**22)]


def digits_at(top):
    """Digits up to top, often at 0 or top."""
    return st.one_of(st.just(0), st.just(top), st.integers(0, top))


def block_of(values, rows, limbs, vectors):
    return np.array(values, dtype=np.float64).reshape(rows, limbs, vectors)


def value_of(block, radix, u, v):
    """The integer entry (u, v) of a block of digits, in Python ints."""
    return sum(int(d) << radix * j for j, d in enumerate(block[u, :, v]))


@settings(deadline=None, max_examples=150)
@given(
    radix_widest=st.sampled_from(RADIXES),
    rows=st.integers(1, 5),
    limbs=st.integers(1, 4),
    vectors=st.integers(1, 3),
    extra=st.integers(0, 1),
    data=st.data(),
)
def test_carry_keeps_every_value_and_bounds_every_digit(radix_widest, rows, limbs, vectors, extra, data):
    # digits anywhere up to 2**53, the most a push leaves, in the rows x
    # limbs x vectors layout of an open block (one vector) or a trace's;
    # widened to the limbs every value needs, and maybe one more
    radix, _ = radix_widest
    n = rows * limbs * vectors
    values = data.draw(st.lists(digits_at(2**53), min_size=n, max_size=n))
    block = block_of(values, rows, limbs, vectors)
    before = block.copy()
    entries = [[value_of(block, radix, u, v) for v in range(vectors)] for u in range(rows)]
    wide = chain_module._limbs(max(max(row) for row in entries), radix) + extra
    wide = max(wide, limbs)
    out = chain_module._carry(block, wide, radix)
    assert np.array_equal(block, before)
    assert out.shape == (rows, wide, vectors) and out.dtype == np.float64
    assert np.array_equal(out, np.floor(out))
    top = int(block.max())
    assert out.max() <= chain_module._carried(top, radix) == (1 << radix) - 1 + (top >> radix)
    assert [[value_of(out, radix, u, v) for v in range(vectors)] for u in range(rows)] == entries


@pytest.mark.parametrize("radix, widest", RADIXES)
def test_carry_meets_its_bound(radix, widest):
    # 2**53 carries 2**(53 - radix) into a limb left at 2**radix - 1 by
    # 2**53 - 1: the largest digit a carry can leave, which the radix
    # keeps exact summed over the widest space
    block = np.array([[[2.0**53], [2.0**53 - 1], [0.0]]])
    out = chain_module._carry(block, 3, radix)
    assert out.max() == chain_module._carried(2**53, radix) == carried_top(widest)
    assert out.max() * widest <= 2**53


def reference_dot(x, y, weights, columns, radix):
    rows, _, vectors = x.shape
    return sum(
        weights[u] * columns[v] * value_of(x, radix, u, v) * value_of(y, radix, u, v)
        for u in range(rows)
        for v in range(vectors)
    )


def split(total, parts, data):
    """parts positive ints summing to total: all but one small, the last the rest."""
    small = data.draw(st.lists(st.integers(1, 22), min_size=parts - 1, max_size=parts - 1))
    return small + [total - sum(small)]


@settings(deadline=None, max_examples=150)
@given(
    radix_widest=st.sampled_from(RADIXES),
    rows=st.integers(1, 8),
    limbs=st.tuples(st.integers(1, 4), st.integers(1, 4)),
    trace=st.booleans(),
    same=st.booleans(),
    data=st.data(),
)
def test_dot_is_exact_at_its_bounds(radix_widest, rows, limbs, trace, same, data):
    # two halves of digits up to a drawn top, at 2**53 (a push's most), at
    # what a carry leaves, or below 2**20; in an open count's shape, rows
    # weighted to sum to the widest space and one column, or a trace's,
    # rows weighed 1 and basis vectors weighted to sum to it; against
    # Python ints, one block as both halves too
    radix, widest = radix_widest
    vectors = data.draw(st.integers(1, 3)) if trace else 1
    if trace:
        weights, columns = None, split(widest, vectors, data) if widest > 22 * vectors else [1] * vectors
    else:
        weights, columns = split(widest, rows, data) if widest > 22 * rows else [1] * rows, [1]
    halves = []
    for limb in limbs:
        top = data.draw(st.sampled_from([2**53, (1 << radix) - 1 + (1 << 53 - radix), 2**20]))
        n = rows * limb * vectors
        block = block_of(data.draw(st.lists(digits_at(top), min_size=n, max_size=n)), rows, limb, vectors)
        value = max(value_of(block, radix, u, v) for u in range(rows) for v in range(vectors))
        halves.append((block, top, value))
    if same:
        halves[1] = halves[0]
    w = None if weights is None else np.array(weights, dtype=np.int64)
    got = chain_module._dot(halves[0], halves[1], w, np.array(columns, dtype=np.int64), radix)
    assert type(got) is int
    ones = [1] * rows if weights is None else weights
    assert got == reference_dot(halves[0][0], halves[1][0], ones, columns, radix)


def test_dot_takes_rows_in_chunks_below_int64(monkeypatch):
    # a trace's shape at the narrowest radix, digits of 2**53 - 1, which
    # carry to the largest pieces, and three basis vectors weighted to
    # the whole 2**22-state space: the pieces' products would pass 2**63
    # summed over the 1,365 rows whose pieces fit in cache, so the dot
    # takes them in chunks of 252, each exact
    radix, widest = chain_module._radix(2**22), 2**22
    rng = np.random.default_rng(1)
    halves = []
    for limbs in (3, 4):
        block = np.full((3000, limbs, 3), 2.0**53 - 1)
        block[::7] = rng.integers(0, 2**53, size=block[::7].shape)
        halves.append((block, 2**53, sum(2**53 << radix * j for j in range(limbs))))
    columns = np.array([1, 2, widest - 3], dtype=np.int64)
    einsums = []
    einsum = np.einsum

    def logged(spec, a, b):
        einsums.append(a.shape[1] // 3)
        return einsum(spec, a, b)

    monkeypatch.setattr(np, "einsum", logged)
    got = chain_module._dot(halves[0], halves[1], None, columns, radix)
    assert max(einsums) == 252 and sum(einsums) == 3000
    assert got == reference_dot(halves[0][0], halves[1][0], [1] * 3000, columns.tolist(), radix)


def test_dot_takes_float64_only_while_exact():
    # one limb each, weighted to nearly the whole 2**22-state space: an
    # odd sum past 2**53, which float64 would round, so the dot takes its
    # int64 pieces; and digits small enough that float64 holds the sum
    radix, one = chain_module._radix(2**22), np.ones(1, dtype=np.int64)
    weights = np.array([2**22 - 2, 1], dtype=np.int64)
    x = (np.array([2.0**20 - 1, 1.0])[:, None, None], 2**20, 2**20)
    assert chain_module._dot(x, x, weights, one, radix) == (2**22 - 2) * (2**20 - 1) ** 2 + 1
    small = (np.array([2.0**15 - 1, 1.0])[:, None, None], 2**15, 2**15)
    assert chain_module._dot(small, small, weights, one, radix) == (2**22 - 2) * (2**15 - 1) ** 2 + 1


@pytest.mark.parametrize("radix, widest", RADIXES)
def test_limbs_hold_every_value_up_to_their_width(radix, widest):
    # k limbs hold everything below 2**(radix * k) and nothing from it on
    assert chain_module._limbs(0, radix) == chain_module._limbs(1, radix) == 1
    for k in range(1, 6):
        assert chain_module._limbs((1 << radix * k) - 1, radix) == k
        assert chain_module._limbs(1 << radix * k, radix) == k + 1


@settings(deadline=None, max_examples=200)
@given(radix_widest=st.sampled_from(RADIXES), data=st.data())
def test_carries_keep_every_push_exact(radix_widest, data):
    # pushes through steps of up to the widest space's columns: each value
    # bound is the product of the columns so far; a carry comes only before
    # a push that could pass 2**53, onto the limbs that value needs, and
    # every push after it stays within 2**53
    radix, widest = radix_widest
    cols = data.draw(st.lists(st.integers(1, widest), max_size=40))
    top = value = limbs = 1
    for c, (carry, held, after_top, after_value) in zip(cols, chain_module._carries(cols, radix), strict=True):
        assert carry is (top * c > 2**53)
        if carry:
            assert held == chain_module._limbs(value, radix) >= limbs
            top = chain_module._carried(top, radix)
        else:
            assert held == limbs
        top, value, limbs = top * c, value * c, held
        assert (after_top, after_value) == (top, value)
        assert top <= 2**53 and value <= widest ** len(cols)


# Even radixes narrower than the chosen one, down to the narrowest whose
# carried digits still sum exactly over a strip's widest space and whose
# int64 pieces (radix / 2 bits and the carry above them) still multiply
# within 2**63 for one row: the same counts then take several times the
# limbs and carries.
NARROW_RADIXES = (20, 26, 34)


@pytest.mark.parametrize("family", list(Family))
@pytest.mark.parametrize("direction", list(Direction))
def test_counts_stay_exact_in_narrower_limbs(family, direction, monkeypatch):
    # open and traced over every number of periods up to the first whose
    # open count passes 2**360, at every narrow radix, against the
    # Python-int reference: each half passes 2**53 and is carried, again
    # and again, onto up to 9 limbs at radix 20
    chain = transfer_chain(family, direction, _MIN_WIDTH[(family, direction)] + 1)
    widest = max(max(step.array.shape) for step in chain.steps)
    opens, traces = reference_counts(chain, 300)
    most = next(p for p, c in enumerate(opens) if c >> 360)
    carries = record_carries(monkeypatch)
    for radix in NARROW_RADIXES:
        top = chain_module._carried(2**53, radix)
        assert top * widest <= 2**53
        assert widest * 2 * chain_module._limbs(opens[most], radix) * (top >> radix // 2) ** 2 < 2**63
        monkeypatch.setattr(chain_module, "_radix", lambda _, radix=radix: radix)
        carries.clear()
        assert [count_open(chain, periods) for periods in range(most + 1)] == opens[:most + 1]
        assert [count_cyclic(chain, periods) for periods in range(1, most + 1)] == traces[:most]
        assert max(c.limbs for c in carries) >= 180 // radix


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


# ---------------------------------------------------------------------------
# Meeting in the middle: a palindromic period pushes half its links


def reference_counts(chain, most):
    """reference_open over 0..most periods and reference_cyclic over
    1..most, one period of the reference sweep at a time."""
    size = len(chain.entry_space)
    vecs = [[1] * size] + [[int(i == s) for i in range(size)] for s in range(size)]
    opens, traces = [size], []
    for _ in range(most):
        vecs = reference_sweep(chain, vecs, 1)
        opens.append(sum(vecs[0]))
        traces.append(sum(vec[s] for s, vec in enumerate(vecs[1:])))
    return opens, traces


# Every family and direction from its least width to 8, but the
# truncated-square tiling only to 6: at 8 its paired space holds 2187
# states, and the Python-int reference would push each through links of
# 46,368 entries.
SPLIT_WIDTHS = [
    (family, direction, width)
    for family in Family
    for direction in Direction
    for width in range(_MIN_WIDTH[(family, direction)], (6 if family is Family.TRUNCATED_SQUARE else 8) + 1)
]


@pytest.mark.parametrize("family, direction, width", SPLIT_WIDTHS)
def test_split_counts_match_the_references(family, direction, width):
    # open over 0..7 periods and traced over 1..7, from every rotation of
    # the links, so N = links * periods is odd and even wherever the
    # period has an odd number of links, and rotations that read the
    # same backwards split where the others take whole pushes
    chain = transfer_chain(family, direction, width)
    for r in range(len(chain.links)):
        rotated = dataclasses.replace(chain, links=chain.links[r:] + chain.links[:r])
        opens, traces = reference_counts(rotated, 7)
        assert [count_open(rotated, periods) for periods in range(8)] == opens
        assert [count_cyclic(rotated, periods) for periods in range(1, 8)] == traces


@pytest.mark.parametrize("family", list(Family))
@pytest.mark.parametrize("direction", list(Direction))
def test_every_period_but_the_truncated_square_trace_reads_the_same_backwards(family, direction):
    # the contraction reads it from the enumerated links, the sweep's
    # price from the stand-in period, each from the start its trace takes;
    # a truncated-square trace starts at a plain space, as C B^T B
    width = _MIN_WIDTH[(family, direction)] + 2
    chain = transfer_chain(family, direction, width)
    stand_in = chain_module._period_links(family, direction, width, chain_module._stand_in)
    starts = []
    for links, states in ((chain.links, len), (stand_in, lambda space: state_count(space.kind, space.length))):
        traced = chain_module._schedule(links, states, states, 1, True)[0]
        starts.append([(link.rows.kind, link.rows.length) for link in traced])
        assert chain_module._palindrome(links)
        assert chain_module._palindrome(traced) is (family is not Family.TRUNCATED_SQUARE)
    assert starts[0] == starts[1]


# Every family and direction up to widths whose chains build and count in
# a few seconds in all: open counts and traces over 1 to 7 periods.
SCHEDULE_WIDTHS = [
    (family, direction, width)
    for family in Family
    for direction in Direction
    for width in range(_MIN_WIDTH[(family, direction)], (7 if family is Family.TRUNCATED_SQUARE else 10) + 1)
]


@pytest.mark.parametrize("family, direction, width", SCHEDULE_WIDTHS)
def test_the_price_schedules_what_the_contraction_runs(family, direction, width, monkeypatch):
    # _price builds its plan on the stand-in period from closed forms,
    # _contract on the enumerated chain: the period's layout from where a
    # trace starts, each link's sizes, vectors, radix, every push, half,
    # meet and block all agree, and _price prices the route (float64 or
    # int64) by which _dot joins every block's halves
    plans, routes = [], []
    schedule, float_join = chain_module._schedule, chain_module._float_join

    def logged(*args):
        plans.append(schedule(*args))
        return plans[-1]

    def routed(*args):
        routes.append(float_join(*args))
        return routes[-1]

    monkeypatch.setattr(chain_module, "_schedule", logged)
    monkeypatch.setattr(chain_module, "_float_join", routed)
    chain = transfer_chain(family, direction, width)
    for trace in (False, True):
        for periods in range(1, 8):
            plans.clear()
            routes.clear()
            assert chain_module._price(family, direction, width, periods, trace) is not None
            (priced_route,) = routes
            (count_cyclic if trace else count_open)(chain, periods)
            priced, run = plans
            layout, again = [[(link.rows.kind, link.rows.length) for link in plan[0]] for plan in plans]
            assert layout == again and priced[1:] == run[1:]
            assert routes[1:] and set(routes[1:]) == {priced_route}


# sha256 of the sweep _sweep picks for every instance with m, n <= 40,
# one line an instance, families and topologies in enum order, then m
# and n: "family topology m n direction width periods trace", or "family
# topology m n refused" where no sweep fits the enumeration cap.  A
# change to pricing that moves a pick must move this on purpose.
PICKS_SHA256 = "877973a6ea748772c52f10fb1598a3ca2803d74f14fa19d2636518af1d721ca2"


def test_every_pick_up_to_40_is_pinned():
    lines, refused = [], 0
    for family in Family:
        for topology in Topology:
            lo_m, lo_n = _minima(family, topology)
            for m in range(lo_m, 41):
                for n in range(lo_n, 41):
                    head = f"{family.value} {topology.value} {m} {n}"
                    try:
                        direction, width, periods, trace = _sweep(LatticeInstance(family, topology, m, n))
                    except ValueError:
                        lines.append(f"{head} refused")
                        refused += 1
                    else:
                        lines.append(f"{head} {direction.value} {width} {periods} {int(trace)}")
    assert (len(lines), refused) == (18294, 5461)
    assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == PICKS_SHA256


# Sweeps whose prices once summed their kernels' builds over a set of
# (link, kernel name) tuples, in an order that changed with the string
# hash seed of the process, and so in their last bit.
HASHED_SWEEPS = [
    ("aztec", "columnwise", 7, 5),
    ("aztec", "columnwise", 7, 13),
    ("aztec", "rowwise", 7, 5),
    ("aztec", "rowwise", 7, 6),
    ("aztec", "rowwise", 7, 10),
]


def test_prices_do_not_depend_on_the_hash_seed():
    # the child finds the package where this process imported it from
    where = os.path.dirname(os.path.dirname(chain_module.__file__))
    path = os.pathsep.join(filter(None, [where, os.environ.get("PYTHONPATH")]))
    script = (
        "from latticegas.chain import Direction, Family, _price\n"
        f"print([repr(_price(Family(f), Direction(d), w, p, True)) for f, d, w, p in {HASHED_SWEEPS!r}])"
    )
    prices = [
        subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True, check=True,
            env=dict(os.environ, PYTHONPATH=path, PYTHONHASHSEED=seed),
        ).stdout
        for seed in ("1", "2")
    ]
    assert prices[0] == prices[1] and "None" not in prices[0]


def test_a_lone_link_reads_the_same_backwards_when_its_spread_is_symmetric():
    space = enumerate_states(StateKind.CYCLE, 6)
    for spread, symmetric in (
        (None, True),
        (_spread(Family.CROSSED, True, 6), True),  # site i touches i - 1, i and i + 1
        (lambda u: u | chain_module._rot(u, 6, 1), False),  # i touches i and i + 1 only
    ):
        assert chain_module._palindrome((Relation(space, space, spread, None, True),)) is symmetric
        assert chain_module._palindrome((Relation(space, space, None, spread, True),)) is symmetric


@pytest.mark.parametrize("family", list(Family))
@pytest.mark.parametrize("direction", list(Direction))
def test_palindromes_push_half_their_links(family, direction, monkeypatch):
    # one block of ceil(N/2) relation pushes, N = links * periods; a
    # truncated-square trace pushes all N
    width = _MIN_WIDTH[(family, direction)] + 2
    chain = transfer_chain(family, direction, width, Boundary.CYCLIC)
    start = min((link.rows for link in chain.links), key=len)
    vectors = len(_orbits(start, chain.links[0].wrap)[1])
    pushes = record_pushes(monkeypatch)
    for periods in range(1, 8):
        n = len(chain.links) * periods
        pushes.clear()
        count_open(chain, periods)
        assert len(pushes) == (n + 1) // 2
        pushes.clear()
        count_cyclic(chain, periods)
        links = n if family is Family.TRUNCATED_SQUARE else (n + 1) // 2
        assert len(pushes) == links and {push.width for push in pushes} == {vectors}


def test_a_period_that_is_no_palindrome_takes_whole_pushes(monkeypatch):
    # u | u << 1 turned around a ring of 6: site i touches i and i + 1, so
    # the one link is not its own transpose.  It commutes with turning the
    # ring, so open counts may still push orbits.
    space = enumerate_states(StateKind.CYCLE, 6)
    link = Relation(space, space, lambda u: u | chain_module._rot(u, 6, 1), None, True)
    chain = TransferChain(Family.QUADRATIC, Direction.ROWWISE, Boundary.CYCLIC, 6, (link,))
    assert not chain_module._palindrome(chain.links)
    opens, traces = reference_counts(chain, 7)
    pushes = record_pushes(monkeypatch)
    for periods in range(1, 8):
        pushes.clear()
        assert count_open(chain, periods) == opens[periods]
        assert len(pushes) == periods
        pushes.clear()
        assert count_cyclic(chain, periods) == traces[periods - 1]
        assert len(pushes) == periods


# ---------------------------------------------------------------------------
# Chains and prices kept per process


def test_sweep_counts_alike_with_caches_cold_and_warm(clear_chains):
    # warm: the sweep keeps chains and prices from one instance to the next
    results = list(sweep(32))
    assert len(results) == 349 and all(result.ok for result in results)
    for result in results:
        clear_chains()
        assert count_lattice(result.instance) == result.brute


@pytest.mark.parametrize("family", list(Family))
@pytest.mark.parametrize("topology", list(Topology))
def test_a_sweep_builds_each_chain_once(family, topology, clear_chains, monkeypatch):
    built = collections.Counter()
    links = chain_module._period_links

    def logged(family, direction, width, space):
        if space is chain_module.enumerate_states:
            built[family, direction, width] += 1
        return links(family, direction, width, space)

    monkeypatch.setattr(chain_module, "_period_links", logged)
    clear_chains()
    assert all(result.ok for result in sweep(26, [family], [topology]))
    again = {key for key, builds in built.items() if builds > 1}
    if (family, topology) == (Family.TRUNCATED_SQUARE, Topology.TORUS):
        # m = 2 traces at every width n from 3 to 7, so width 3 has left
        # the cache when m = 3 traces at it again
        assert len(built) > chain_module.CHAIN_CACHE_SIZE
        assert again == {(family, Direction.ROWWISE, 3)} and built[family, Direction.ROWWISE, 3] == 2
    else:
        assert built and not again


def test_chain_cache_is_bounded(clear_chains):
    clear_chains()
    size = chain_module.CHAIN_CACHE_SIZE
    oldest = transfer_chain(Family.QUADRATIC, Direction.COLUMNWISE, 1).links
    for width in range(1, 1 + size + 4):
        chain = transfer_chain(Family.QUADRATIC, Direction.COLUMNWISE, width)
        again = transfer_chain(Family.QUADRATIC, Direction.COLUMNWISE, width, Boundary.CYCLIC)
        assert again.links is chain.links  # open and cyclic chains share their links
        assert chain_module._links.cache_info().currsize <= size
    assert chain_module._links.cache_info().currsize == size
    assert transfer_chain(Family.QUADRATIC, Direction.COLUMNWISE, 1).links is not oldest  # left the cache


@pytest.mark.parametrize("family, direction", [(f, d) for f in Family for d in Direction])
def test_chain_cache_keeps_no_wide_period(family, direction, clear_chains):
    clear_chains()
    widths = itertools.count(_MIN_WIDTH[(family, direction)])
    entries = {w: sum(r * c for r, c in chain_dimensions(family, direction, w)) for w in itertools.islice(widths, 12)}
    kept = max(w for w, e in entries.items() if e <= chain_module.CHAIN_CACHE_ENTRIES)
    assert transfer_chain(family, direction, kept).links is transfer_chain(family, direction, kept).links
    assert transfer_chain(family, direction, kept + 1).links is not transfer_chain(family, direction, kept + 1).links
    assert chain_module._links.cache_info().currsize == 1


def test_cached_chain_keeps_its_orbit_plan(clear_chains):
    clear_chains()
    chain = transfer_chain(Family.QUADRATIC, Direction.COLUMNWISE, 9)
    plan, _, _ = orbit_steps(chain.links)
    again, _, _ = orbit_steps(transfer_chain(Family.QUADRATIC, Direction.COLUMNWISE, 9, Boundary.CYCLIC).links)
    assert all(a is b for a, b in zip(plan, again))


def test_two_threads_count_through_one_chain_alike(clear_chains, pick):
    # the built, folded and zeta kernels, each push through its own buffers;
    # and Lanczos roots whose orbit relations all take the zeta push, on
    # the table plan (aztec) and the keys plan (quadratic)
    specs = [(Family.TRUNCATED_SQUARE, Direction.COLUMNWISE, 6, 6), (Family.AZTEC, Direction.ROWWISE, 10, 6)]
    clear_chains()
    chains = [(transfer_chain(f, d, w, Boundary.CYCLIC), p) for f, d, w, p in specs]
    roots = [transfer_chain(Family.AZTEC, Direction.COLUMNWISE, 9), transfer_chain(Family.QUADRATIC, Direction.COLUMNWISE, 13)]
    for chain, keys in zip(roots, (False, True)):
        assert {(pick(link, 1), link.keys) for link in orbit_steps(chain.links)[0]} == {("zeta", keys)}

    def fresh(chain):
        return dataclasses.replace(chain, links=tuple(dataclasses.replace(link) for link in chain.links))

    expected = [(count_open(fresh(chain), periods), count_cyclic(fresh(chain), periods)) for chain, periods in chains]
    expected += [dominant_eigenvalue(fresh(chain)).value for chain in roots]
    start = threading.Barrier(2)
    found = [None, None]

    def run(i):
        start.wait()
        found[i] = [
            result
            for _ in range(5)
            for result in [(count_open(chain, periods), count_cyclic(chain, periods)) for chain, periods in chains]
            + [dominant_eigenvalue(chain).value for chain in roots]
        ]

    threads = [threading.Thread(target=run, args=(i,)) for i in range(2)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # switch threads as often as the interpreter can
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert found == [expected * 5, expected * 5]


@pytest.mark.parametrize(
    "family, direction",
    # the table and keys plans, spread rows and spread columns
    [(Family.AZTEC, Direction.COLUMNWISE), (Family.QUADRATIC, Direction.ROWWISE), (Family.CROSSED, Direction.COLUMNWISE)],
)
def test_shared_relations_keep_their_arrays_read_only(family, direction):
    # the keys plan's gathers stay writable: np.take, their only reader,
    # copies an index array it may not write
    chain = transfer_chain(family, direction, _MIN_WIDTH[(family, direction)] + 4)
    for link in chain.links:
        for rel in (link, link._narrowed):
            arrays = [a for a in rel._scatter if a is not None] + [rel._gather]
            if rel.on_orbits:
                arrays.append(rel._folded)
            for a in arrays:
                with pytest.raises(ValueError, match="read-only"):
                    a[:1] = 0
