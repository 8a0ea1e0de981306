import dataclasses
import math

import numpy as np
import pytest

from latticegas import chain as chain_module
from latticegas import spectral
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
    """A chain of these relations; the iteration reads only its links."""
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


def composite_pair(chain):
    """The top eigenpair of the chain's composite by LAPACK's symmetric
    solver, with nothing of the chain's pushes: the float64 product of
    its built 0/1 steps, exact at these sizes, and ``np.linalg.eigh``.
    The vector has unit norm and is positive."""
    composite = chain.steps[0].array.astype(np.float64)
    for step in chain.steps[1:]:
        composite = composite @ step.array.astype(np.float64)
    assert np.array_equal(composite, composite.T)
    values, vectors = np.linalg.eigh(composite)
    vector = vectors[:, -1]
    return float(values[-1]), vector if vector.sum() > 0 else -vector


def assert_is_pair(res, value, vector):
    """Value within 1e-13 relative, vector within 1e-12 entrywise."""
    assert abs(res.value - value) <= 1e-13 * value
    assert res.vector.shape == vector.shape
    assert np.max(np.abs(res.vector - vector)) <= 1e-12


class TestOrbitIteration:
    """A chain from transfer_chain is iterated on the orbits of its slice
    symmetry; its root and vector are those of the whole composite."""

    @pytest.mark.parametrize("family", list(Family))
    @pytest.mark.parametrize("direction", list(Direction))
    @pytest.mark.parametrize("extra", range(4))
    def test_matches_the_composite_eigenpair(self, family, direction, extra):
        chain = transfer_chain(family, direction, _MIN_WIDTH[(family, direction)] + extra)
        assert_is_pair(dominant_eigenvalue(chain), *composite_pair(chain))


class TestZetaIteration:
    """Iteration through relations (the zeta push, by either plan) takes
    the pushes of iteration through built steps, to the same eigenpair."""

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
        results = []

        def iterate():
            # on links made afresh, since a link keeps the kernels and
            # plans its orbit relation took (orbit_steps)
            fresh = dataclasses.replace(chain, links=tuple(dataclasses.replace(link) for link in chain.links))
            results.append(dominant_eigenvalue(fresh))
            plan, _, _ = chain_module.orbit_steps(fresh.links)
            kernels = {kernel for step in plan for kernel in step._picks.values()}
            plans = {step._zeta_plan[1] is None for step in plan if "zeta" in step._picks.values()}
            return kernels, plans

        monkeypatch.setattr(chain_module, "_push_costs", lambda *args: (0.0, 1.0))
        kernels, _ = iterate()
        assert kernels <= {"fold", "zeta"}  # the folded step where it fits
        monkeypatch.setattr(chain_module, "_push_costs", lambda *args: (1.0, 0.0))
        # the slice kinds that take the keys plan: none, then all, forcing each plan in turn
        for kinds, table in ((frozenset(), True), (frozenset(StateKind), False)):
            monkeypatch.setattr(chain_module, "_KEYS_PLAN_KINDS", kinds)
            assert iterate() == ({"zeta"}, {table})
        assert len({res.iterations for res in results}) == 1
        # the composite's eigh up to 1024 states; past that, the built steps' pair
        if len(chain.entry_space) <= 1024:
            value, vector = composite_pair(chain)
        else:
            value, vector = results[0].value, results[0].vector
        for res in results:
            assert_is_pair(res, value, vector)


def lanczos_tridiagonal(matrix, steps):
    """(alpha, beta) of Lanczos with full reorthogonalization on a
    symmetric matrix from the all-ones vector, in numpy and LAPACK-free."""
    q = np.ones(len(matrix)) / math.sqrt(len(matrix))
    basis, alpha, beta = [q], [], [0.0]
    for k in range(steps):
        w = matrix @ basis[-1]
        alpha.append(float(basis[-1] @ w))
        for _ in range(2):
            w -= np.array(basis).T @ (np.array(basis) @ w)
        if k < steps - 1:
            beta.append(float(np.linalg.norm(w)))
            basis.append(w / beta[-1])
    return alpha, beta


class TestRitz:
    """The top eigenpair of a Lanczos tridiagonal, without LAPACK, against
    np.linalg.eigh of the tridiagonal."""

    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("steps", [1, 2, 5, 12, 30])
    def test_matches_eigh(self, seed, steps):
        rng = np.random.default_rng(seed)
        # a nonnegative symmetric matrix with a spread of magnitudes, as
        # the composites have
        half = rng.random((40, 40)) ** (1 + 4 * seed)
        alpha, beta = lanczos_tridiagonal(half + half.T, steps)
        tri = np.diag(alpha) + np.diag(beta[1:], 1) + np.diag(beta[1:], -1)
        values, vectors = np.linalg.eigh(tri)
        top = np.abs(vectors[:, -1])  # one sign throughout, as off-diagonals are positive
        bound = max(abs(a) + 2 * max(beta) for a in alpha)
        # from the Gershgorin bound, and from a guess below the root
        for guess in (bound, values[-1] / 2):
            value, vector = spectral._ritz(alpha, beta, guess, bound)
            assert abs(value - values[-1]) <= 1e-13 * values[-1]
            vector = np.array(vector) / np.linalg.norm(vector)
            assert np.max(np.abs(vector - top)) <= 1e-10


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

    @pytest.mark.parametrize("family", list(Family))
    def test_restarts_from_its_ritz_vector(self, family, monkeypatch):
        # four vectors at most: each run that fills them checks its Ritz
        # vector, and one that fails starts the next run from it
        monkeypatch.setattr(spectral, "BASIS", 4)
        chain = transfer_chain(family, Direction.COLUMNWISE, 6)
        res = dominant_eigenvalue(chain)
        assert res.iterations > 5 and res.residual <= 1e-12
        assert_is_pair(res, *composite_pair(chain))

    def test_tighter_tolerance_takes_more_iterations(self):
        chain = transfer_chain(Family.AZTEC, Direction.COLUMNWISE, 4)
        loose = dominant_eigenvalue(chain, tol=1e-6)
        tight = dominant_eigenvalue(chain, tol=1e-13)
        assert tight.iterations >= loose.iterations
        assert tight.value == pytest.approx(loose.value, rel=1e-5)


class TestFailureModes:
    def test_bipartite_matrix_gives_its_positive_root(self):
        # the 3-vertex path's adjacency: eigenvalues +/- sqrt(2) tie in
        # modulus, where power iteration's iterate orbits; the start's
        # Krylov space holds both, and the top one is sqrt(2)
        three = free_space(1, 2, 5)
        bipartite = Relation(three, three, None, None, False)
        assert bipartite.built.array.astype(int).tolist() == [[0, 1, 0], [1, 0, 1], [0, 1, 0]]
        res = dominant_eigenvalue(chain_of([bipartite]), max_iterations=500)
        assert_is_pair(res, math.sqrt(2.0), np.array([0.5, math.sqrt(0.5), 0.5]))

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

    @pytest.mark.parametrize("tol", [2.0**-53, 1e-16, 1e-17])
    def test_rejects_unreachable_tolerance_before_pushing(self, tol, monkeypatch):
        # below float64's rounding no residual can be certain to reach tol
        def refused(self, block):
            raise AssertionError("pushed a vector")

        monkeypatch.setattr(Relation, "push", refused)
        chain = transfer_chain(Family.QUADRATIC, Direction.COLUMNWISE, 19)
        with pytest.raises(ValueError, match=r"tol must be at least 2\*\*-52"):
            dominant_eigenvalue(chain, tol=tol)

    def test_smallest_tolerance_accepted(self):
        chain = transfer_chain(Family.QUADRATIC, Direction.COLUMNWISE, 1)
        assert dominant_eigenvalue(chain, tol=2.0**-52).residual <= 2.0**-52

    def test_stalled_residual_raises_early(self, monkeypatch):
        # a tol no float64 residual reaches: the iteration stops after two
        # checking pushes in a row fail to lower the residual, far inside
        # its budget of pushes
        monkeypatch.setattr(spectral, "MIN_TOL", 0.0)
        pushes = []
        push = Relation.push

        def counted(self, block):
            pushes.append(self)
            return push(self, block)

        monkeypatch.setattr(Relation, "push", counted)
        chain = transfer_chain(Family.QUADRATIC, Direction.COLUMNWISE, 12)
        with pytest.raises(ConvergenceError, match="stalled"):
            dominant_eigenvalue(chain, tol=1e-30)
        assert 0 < len(pushes) < 100

    def test_nilpotent_matrix_reported_degenerate(self):
        # the one mask meets itself: the step is [[0]]
        one = free_space(1)
        zero = Relation(one, one, None, None, False)
        assert zero.built.array.tolist() == [[False]]
        with pytest.raises(ValueError, match="degenerate"):
            dominant_eigenvalue(chain_of([zero]))
