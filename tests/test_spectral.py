import math

import numpy as np
import pytest

from latticegas import chain as chain_module
from latticegas.chain import (
    _MIN_WIDTH,
    Boundary,
    Direction,
    Family,
    Relation,
    TransferChain,
    chain_dimensions,
    transfer_chain,
)
from latticegas.spectral import ConvergenceError, dominant_eigenvalue
from latticegas.statespace import StateKind, StateSpace

import golden_data as gold


def chain_of(links):
    """A chain of these relations; power iteration reads only its links."""
    return TransferChain(Family.QUADRATIC, Direction.COLUMNWISE, Boundary.OPEN, 1, tuple(links))


def free_space(*masks):
    """Free sites, holding only these masks."""
    return StateSpace(StateKind.FREE, max(masks).bit_length(), np.array(masks, dtype=np.int64))


class TestKnownRoots:
    def test_narrowest_quadratic_strip(self):
        # 2-site path slices: [[1,1,1],[1,0,1],[1,1,0]] has Perron
        # root 1 + sqrt(2), the silver ratio.
        chain = transfer_chain(Family.QUADRATIC, Direction.COLUMNWISE, 1)
        res = dominant_eigenvalue(chain)
        assert res.value == pytest.approx(1.0 + math.sqrt(2.0), abs=1e-12)
        lam = res.value
        assert abs(lam**3 - lam**2 - 3 * lam - 1) < 1e-9

    @pytest.mark.parametrize(
        "family, direction, width",
        [
            (Family.QUADRATIC, Direction.COLUMNWISE, 3),
            (Family.QUADRATIC, Direction.ROWWISE, 4),
            (Family.CROSSED, Direction.COLUMNWISE, 3),
            (Family.CROSSED, Direction.ROWWISE, 4),
            (Family.AZTEC, Direction.COLUMNWISE, 3),
            (Family.AZTEC, Direction.ROWWISE, 3),
            (Family.TRUNCATED_SQUARE, Direction.COLUMNWISE, 2),
            (Family.TRUNCATED_SQUARE, Direction.ROWWISE, 3),
        ],
    )
    def test_agrees_with_dense_symmetric_solver(self, family, direction, width):
        boundary = Boundary.CYCLIC if direction is Direction.ROWWISE else Boundary.OPEN
        chain = transfer_chain(family, direction, width, boundary)
        composite = gold.product(chain.steps)
        assert np.array_equal(composite, composite.T)
        reference = float(np.linalg.eigvalsh(composite).max())
        res = dominant_eigenvalue(chain)
        assert res.value == pytest.approx(reference, abs=1e-10)

    def test_factored_matches_composed(self):
        chain = transfer_chain(Family.TRUNCATED_SQUARE, Direction.COLUMNWISE, 3)
        a = dominant_eigenvalue(chain)
        b = float(np.linalg.eigvalsh(gold.product(chain.steps)).max())
        assert a.value == pytest.approx(b, rel=1e-12)


def full_space_root(steps, tol=1e-12, max_iterations=50000):
    """Power iteration with dominant_eigenvalue's start and stopping rule,
    pushing every state through each step's whole array."""
    v = np.ones(len(steps[-1].cols)) / np.sqrt(len(steps[-1].cols))
    lam = 0.0
    for it in range(1, max_iterations + 1):
        w = v
        for step in reversed(steps):
            w = step.array @ w
        lam_new, norm = float(v @ w), float(np.linalg.norm(w))
        residual = float(np.max(np.abs(w - lam_new * v))) / (lam_new * float(np.max(np.abs(v))))
        v = w / norm
        if it > 1 and abs(lam_new - lam) <= tol * lam_new and residual <= tol:
            return lam_new, v, it
        lam = lam_new
    raise AssertionError("reference did not converge")


class TestOrbitIteration:
    """A chain from transfer_chain is iterated on the orbits of its slice
    symmetry; the iterates are still those over every state."""

    @pytest.mark.parametrize("family", list(Family))
    @pytest.mark.parametrize("direction", list(Direction))
    @pytest.mark.parametrize("extra", range(4))
    def test_matches_the_full_space_iteration(self, family, direction, extra):
        chain = transfer_chain(family, direction, _MIN_WIDTH[(family, direction)] + extra)
        value, vector, iterations = full_space_root(chain.steps)
        res = dominant_eigenvalue(chain)
        assert res.iterations == iterations
        assert abs(res.value - value) <= 1e-14 * value
        assert res.vector.shape == vector.shape
        assert np.max(np.abs(res.vector - vector)) <= 1e-14


class TestZetaIteration:
    """Power iteration through relations (the zeta push, by either plan)
    gives the iterates of power iteration through built steps."""

    @pytest.mark.parametrize(
        "family, direction, width",
        [
            (f, d, w)
            for f in Family
            for d in Direction
            for w in range(_MIN_WIDTH[(f, d)], 13)
            # the built steps stay small enough to iterate quickly
            if sum(r * c for r, c in chain_dimensions(f, d, w)) <= 2**24
        ],
    )
    def test_matches_the_built_steps(self, family, direction, width, monkeypatch):
        chain = transfer_chain(family, direction, width)
        monkeypatch.setattr(chain_module, "_push_costs", lambda *args: (0.0, 1.0))
        built = dominant_eigenvalue(chain)
        monkeypatch.setattr(chain_module, "_push_costs", lambda *args: (1.0, 0.0))
        # the slice kinds that take the keys plan: none, then all, forcing each plan in turn
        for kinds in (frozenset(), frozenset(StateKind)):
            monkeypatch.setattr(chain_module, "_KEYS_PLAN_KINDS", kinds)
            zeta = dominant_eigenvalue(chain)
            assert zeta.iterations == built.iterations
            assert abs(zeta.value - built.value) <= 1e-14 * built.value
            assert np.max(np.abs(zeta.vector - built.vector)) <= 1e-14 * np.max(built.vector)


class TestResultContract:
    def test_vector_is_positive_and_normalized(self):
        res = dominant_eigenvalue(transfer_chain(Family.QUADRATIC, Direction.COLUMNWISE, 4))
        assert np.all(res.vector > 0)
        assert np.linalg.norm(res.vector) == pytest.approx(1.0, abs=1e-12)

    def test_residual_meets_tolerance(self):
        res = dominant_eigenvalue(
            transfer_chain(Family.CROSSED, Direction.COLUMNWISE, 5), tol=1e-13
        )
        assert res.residual <= 1e-13
        assert res.iterations >= 2

    def test_tighter_tolerance_takes_more_iterations(self):
        chain = transfer_chain(Family.AZTEC, Direction.COLUMNWISE, 4)
        loose = dominant_eigenvalue(chain, tol=1e-6)
        tight = dominant_eigenvalue(chain, tol=1e-13)
        assert tight.iterations >= loose.iterations
        assert tight.value == pytest.approx(loose.value, rel=1e-5)


class TestFailureModes:
    def test_periodic_matrix_never_converges(self):
        # the 3-vertex path's adjacency: eigenvalues +/- sqrt(2) tie in
        # modulus, so the iterate orbits; each mask is its own mirror orbit
        three = free_space(1, 2, 5)
        bipartite = Relation(three, three, None, None, False)
        assert bipartite.built.array.astype(int).tolist() == [[0, 1, 0], [1, 0, 1], [0, 1, 0]]
        with pytest.raises(ConvergenceError):
            dominant_eigenvalue(chain_of([bipartite]), max_iterations=500)

    def test_iteration_budget_enforced(self):
        chain = transfer_chain(Family.QUADRATIC, Direction.COLUMNWISE, 2)
        with pytest.raises(ConvergenceError):
            dominant_eigenvalue(chain, max_iterations=1)

    @pytest.mark.parametrize("max_iterations", [0, -5])
    def test_rejects_an_empty_iteration_budget(self, max_iterations):
        chain = transfer_chain(Family.QUADRATIC, Direction.COLUMNWISE, 2)
        with pytest.raises(ValueError, match="max_iterations"):
            dominant_eigenvalue(chain, max_iterations=max_iterations)

    def test_rejects_rectangular_chain(self):
        chain = transfer_chain(Family.AZTEC, Direction.COLUMNWISE, 3)
        with pytest.raises(ValueError):
            dominant_eigenvalue(chain_of(chain.links[:1]))

    def test_rejects_empty_chain(self):
        with pytest.raises(ValueError, match="empty chain"):
            chain_of([])

    def test_rejects_bad_tolerance(self):
        chain = transfer_chain(Family.QUADRATIC, Direction.COLUMNWISE, 2)
        for tol in (0.0, -1e-12, math.nan, math.inf):
            with pytest.raises(ValueError, match="tol"):
                dominant_eigenvalue(chain, tol=tol)

    def test_nilpotent_matrix_reported_degenerate(self):
        # the one mask meets itself: the step is [[0]]
        one = free_space(1)
        zero = Relation(one, one, None, None, False)
        assert zero.built.array.tolist() == [[False]]
        with pytest.raises(ValueError, match="degenerate"):
            dominant_eigenvalue(chain_of([zero]))
