"""End-to-end acceptance checks, one test per criterion.

Each test prints a single ACCEPTANCE line on success (visible with
pytest -s; the -v test report carries the same pass/fail signal).
Reference digits live inline next to the assertion that uses them.
"""
import math

import numpy as np
import pytest

from latticegas.bounds import entropy_interval
from latticegas.chain import (
    Boundary,
    Direction,
    Family,
    LatticeInstance,
    Topology,
    TransferChain,
    count_lattice,
    transfer_chain,
)
from latticegas.oracle import sweep
from latticegas.spectral import dominant_eigenvalue
from latticegas.statespace import StateKind, enumerate_states, state_count

import golden_data as gold


def done(line):
    print(f"ACCEPTANCE {line}: PASS")


def test_criterion_01_golden_matrices():
    chain = transfer_chain(Family.QUADRATIC, Direction.COLUMNWISE, 3)
    assert gold.entries(chain.steps[0]) == gold.QUAD_COLUMN_W3
    chain = transfer_chain(Family.QUADRATIC, Direction.ROWWISE, 4)
    assert gold.entries(chain.steps[0]) == gold.QUAD_ROW_W4

    chain = transfer_chain(Family.CROSSED, Direction.COLUMNWISE, 3)
    assert gold.reordered(chain.steps[0], gold.CROSSED_COLUMN_W3_STATES,
                          gold.CROSSED_COLUMN_W3_STATES) == gold.CROSSED_COLUMN_W3
    chain = transfer_chain(Family.CROSSED, Direction.ROWWISE, 4)
    assert gold.reordered(chain.steps[0], gold.CROSSED_ROW_W4_STATES,
                          gold.CROSSED_ROW_W4_STATES) == gold.CROSSED_ROW_W4

    chain = transfer_chain(Family.AZTEC, Direction.COLUMNWISE, 3)
    assert gold.product(chain.steps).tolist() == gold.AZTEC_COLUMN_W3_COMPOSITE
    chain = transfer_chain(Family.AZTEC, Direction.ROWWISE, 3)
    assert gold.product(chain.steps).tolist() == gold.AZTEC_ROW_W3_COMPOSITE

    chain = transfer_chain(Family.TRUNCATED_SQUARE, Direction.COLUMNWISE, 2)
    assert gold.product(chain.steps).tolist() == gold.T884_COLUMN_W2_COMPOSITE
    chain = transfer_chain(Family.TRUNCATED_SQUARE, Direction.ROWWISE, 3)
    assert gold.product(chain.steps).tolist() == gold.T884_ROW_W3_COMPOSITE
    done("1 golden-matrices")


def test_criterion_02_crossed_bounds():
    report = entropy_interval(Family.CROSSED, p=4, q=4, k=6)
    assert report.lower == pytest.approx(1.342542258, abs=1e-6)
    assert report.upper == pytest.approx(1.342652572, abs=1e-6)
    done("2 crossed-bounds")


def test_criterion_03_aztec_bounds():
    report = entropy_interval(Family.AZTEC, p=2, q=4, k=5)
    assert report.lower == pytest.approx(2.259132578, abs=1e-6)
    assert report.upper == pytest.approx(2.259154406, abs=1e-6)
    assert report.normalized_lower == pytest.approx(1.503041110, abs=1e-6)
    assert report.normalized_upper == pytest.approx(1.503048371, abs=1e-6)
    done("3 aztec-bounds")


def test_criterion_04_truncated_square_bounds():
    report = entropy_interval(Family.TRUNCATED_SQUARE, p=1, q=4, k=4)
    assert report.lower == pytest.approx(4.631583395, abs=1e-5)
    assert report.upper == pytest.approx(5.765456528, abs=1e-5)
    assert report.normalized_lower == pytest.approx(1.467007628, abs=1e-6)
    assert report.normalized_upper == pytest.approx(1.549560101, abs=1e-6)
    done("4 truncated-square-bounds")


def test_criterion_05_quadratic_interval():
    ref_lo, ref_hi = 1.503047782, 1.5035148
    combos = [
        (p, q, k)
        for p in range(1, 11)
        for q in range(1, 6)
        if p + 2 * q <= 12
        for k in range(2, 8)
    ]
    assert combos
    for p, q, k in combos:
        report = entropy_interval(Family.QUADRATIC, p, q, k)
        assert report.lower <= report.upper, (p, q, k)
        assert max(report.lower, ref_lo) <= min(report.upper, ref_hi), (p, q, k)
        if k == 7:
            assert report.upper - report.lower <= 5e-3, (p, q)
    done("5 quadratic-interval")


def test_criterion_06_oracle_sweep():
    results = list(sweep(28))
    bad = [r for r in results if not r.ok]
    assert bad == []
    seen = {(r.instance.family, r.instance.topology) for r in results}
    assert seen == {(f, t) for f in Family for t in Topology}

    by_key = {
        (r.instance.family, r.instance.topology, r.instance.m, r.instance.n): r.transfer
        for r in results
    }
    assert by_key[(Family.QUADRATIC, Topology.PLANE, 1, 1)] == 7
    assert by_key[(Family.QUADRATIC, Topology.CYLINDER, 1, 3)] == 13
    assert by_key[(Family.QUADRATIC, Topology.CYLINDER, 1, 4)] == 35
    assert by_key[(Family.QUADRATIC, Topology.TORUS, 3, 3)] == 34
    assert by_key[(Family.AZTEC, Topology.PLANE, 1, 1)] == 7
    assert by_key[(Family.TRUNCATED_SQUARE, Topology.PLANE, 2, 2)] == 47
    assert by_key[(Family.CROSSED, Topology.PLANE, 1, 1)] == 5
    done(f"6 oracle-sweep ({len(results)} instances)")


def test_criterion_07_spectral_oracle():
    res = dominant_eigenvalue(transfer_chain(Family.QUADRATIC, Direction.COLUMNWISE, 1))
    assert res.value == pytest.approx(1.0 + math.sqrt(2.0), abs=1e-10)

    # every reference matrix at most 9x9, composites and square factors
    square_pieces = [
        transfer_chain(Family.QUADRATIC, Direction.COLUMNWISE, 3).links,
        transfer_chain(Family.QUADRATIC, Direction.ROWWISE, 4).links,
        transfer_chain(Family.CROSSED, Direction.COLUMNWISE, 3).links,
        transfer_chain(Family.CROSSED, Direction.ROWWISE, 4).links,
        transfer_chain(Family.AZTEC, Direction.COLUMNWISE, 3).links,
        transfer_chain(Family.AZTEC, Direction.ROWWISE, 3).links,
        transfer_chain(Family.TRUNCATED_SQUARE, Direction.COLUMNWISE, 2).links,
        transfer_chain(Family.TRUNCATED_SQUARE, Direction.ROWWISE, 3).links,
        # the wrapped aztec factor and the plain truncated-square factor
        transfer_chain(Family.AZTEC, Direction.ROWWISE, 3).links[:1],
        transfer_chain(Family.TRUNCATED_SQUARE, Direction.COLUMNWISE, 2).links[1:2],
    ]
    for links in square_pieces:
        composite = gold.product([link.built for link in links])
        assert max(composite.shape) <= 9
        reference = float(np.abs(np.linalg.eigvals(composite)).max())
        # power iteration reads only a chain's links
        piece = TransferChain(Family.QUADRATIC, Direction.COLUMNWISE, Boundary.OPEN, 1, links)
        res = dominant_eigenvalue(piece)
        assert res.value == pytest.approx(reference, abs=1e-10)
    done("7 spectral-oracle")


def test_criterion_08_cardinality_laws():
    fibs = [0, 1]
    while len(fibs) < 30:
        fibs.append(fibs[-1] + fibs[-2])
    for L in range(1, 21):
        assert state_count(StateKind.PATH, L) == fibs[L + 2]
        assert len(enumerate_states(StateKind.PATH, L).masks) == fibs[L + 2]
        assert state_count(StateKind.FREE, L) == 2**L
        assert len(enumerate_states(StateKind.FREE, L).masks) == 2**L
        if L >= 3:
            assert state_count(StateKind.CYCLE, L) == fibs[L - 1] + fibs[L + 1]
            assert len(enumerate_states(StateKind.CYCLE, L).masks) == fibs[L - 1] + fibs[L + 1]
        if L % 2 == 0:
            assert state_count(StateKind.PAIRED, L) == 3 ** (L // 2)
            assert len(enumerate_states(StateKind.PAIRED, L).masks) == 3 ** (L // 2)
    done("8 cardinality-laws")


def test_criterion_09_topology_convergence():
    """Finite-size stand-in for the equal-entropy-constants statement.

    The per-vertex ratios of the three topologies drift together as the
    patches grow: their spread must shrink monotonically along n for
    every width, and at the largest width the three agree to 2e-2.
    """
    def per_vertex(topology, m, n):
        inst = LatticeInstance(Family.QUADRATIC, topology, m, n)
        return count_lattice(inst) ** (1.0 / inst.vertices)

    final_gaps = {}
    for m in range(3, 9):
        gaps = []
        for n in (6, 8, 10, 12):
            vals = [per_vertex(t, m, n) for t in Topology]
            gaps.append(max(vals) - min(vals))
        assert all(a >= b for a, b in zip(gaps, gaps[1:])), (m, gaps)
        final_gaps[m] = gaps[-1]
    assert final_gaps[8] <= 2e-2
    done("9 topology-convergence")
