import numpy as np
import pytest

from latticegas.chain import _MIN_WIDTH, Direction, Family, transfer_chain
from latticegas.compat import BLOCK_ENTRIES, StepMatrix, build_step
from latticegas.statespace import StateKind, enumerate_states

import golden_data as gold

COLUMNWISE, ROWWISE = Direction.COLUMNWISE, Direction.ROWWISE
QUADRATIC, CROSSED, AZTEC, T884 = (
    Family.QUADRATIC, Family.CROSSED, Family.AZTEC, Family.TRUNCATED_SQUARE
)


def steps(family, direction, width):
    return transfer_chain(family, direction, width).steps


def path(n):
    return enumerate_states(StateKind.PATH, n)


class TestReferenceMatrices:
    def test_orthogonal_on_path_states(self):
        step = steps(QUADRATIC, COLUMNWISE, 3)[0]
        assert gold.entries(step) == gold.QUAD_COLUMN_W3

    def test_orthogonal_on_cycle_states(self):
        step = steps(QUADRATIC, ROWWISE, 4)[0]
        assert gold.entries(step) == gold.QUAD_ROW_W4

    def test_crossed_open(self):
        step = steps(CROSSED, COLUMNWISE, 3)[0]
        got = gold.reordered(step, gold.CROSSED_COLUMN_W3_STATES, gold.CROSSED_COLUMN_W3_STATES)
        assert got == gold.CROSSED_COLUMN_W3

    def test_crossed_wrapped(self):
        step = steps(CROSSED, ROWWISE, 4)[0]
        got = gold.reordered(step, gold.CROSSED_ROW_W4_STATES, gold.CROSSED_ROW_W4_STATES)
        assert got == gold.CROSSED_ROW_W4

    def test_staggered_short_to_long(self):
        step = steps(AZTEC, COLUMNWISE, 3)[0]
        assert gold.entries(step) == gold.AZTEC_COLUMN_W3_STEP1

    def test_staggered_long_to_short_is_transpose(self):
        up, down = steps(AZTEC, COLUMNWISE, 3)
        assert gold.entries(down) == gold.entries(up.transposed())

    def test_staggered_wrapped(self):
        step = steps(AZTEC, ROWWISE, 3)[0]
        assert gold.entries(step) == gold.AZTEC_ROW_W3_STEP1

    def test_paired_open(self):
        step = steps(T884, COLUMNWISE, 2)[0]
        assert gold.entries(step) == gold.T884_COLUMN_W2_STEP1

    def test_paired_wrapped(self):
        step = steps(T884, ROWWISE, 3)[0]
        got = gold.reordered(step, gold.T884_ROW_W3_STEP1_ROWSTATES, gold.T884_ROW_W3_STEP1_COLSTATES)
        assert got == gold.T884_ROW_W3_STEP1

    def test_plain_middle_factor(self):
        assert gold.entries(steps(T884, COLUMNWISE, 2)[1]) == gold.T884_COLUMN_W2_STEP2
        assert gold.entries(steps(T884, ROWWISE, 3)[1]) == gold.T884_ROW_W3_STEP2


class TestComposites:
    def test_staggered_open_product(self):
        prod = gold.product(steps(AZTEC, COLUMNWISE, 3))
        assert prod.tolist() == gold.AZTEC_COLUMN_W3_COMPOSITE

    def test_staggered_wrapped_product(self):
        prod = gold.product(steps(AZTEC, ROWWISE, 3))
        assert prod.tolist() == gold.AZTEC_ROW_W3_COMPOSITE

    def test_paired_open_product(self):
        prod = gold.product(steps(T884, COLUMNWISE, 2))
        assert prod.tolist() == gold.T884_COLUMN_W2_COMPOSITE

    def test_paired_wrapped_product(self):
        prod = gold.product(steps(T884, ROWWISE, 3))
        assert prod.tolist() == gold.T884_ROW_W3_COMPOSITE

    def test_composites_are_symmetric(self):
        for mat in (
            gold.AZTEC_COLUMN_W3_COMPOSITE,
            gold.AZTEC_ROW_W3_COMPOSITE,
            gold.T884_COLUMN_W2_COMPOSITE,
            gold.T884_ROW_W3_COMPOSITE,
        ):
            assert mat == gold.transpose(mat)


class TestStepMatrix:
    def test_shape_and_dense(self):
        step = steps(QUADRATIC, COLUMNWISE, 1)[0]
        assert step.shape == (3, 3)
        assert step.array.dtype == bool
        assert step.dense.dtype == np.float64
        assert step.dense.tolist() == [[1, 1, 1], [1, 0, 1], [1, 1, 0]]

    def test_push_is_exact_vector_product(self):
        # A vector, a stack and a stack of stacks, through 0/1 steps (one
        # of them tall enough for several row blocks, one non-square).
        # Inputs below 2**30 keep every float64 sum an exact integer, so
        # any slip shows.
        pieces = [
            steps(QUADRATIC, COLUMNWISE, 11)[0],
            steps(T884, COLUMNWISE, 3)[0],
        ]
        assert pieces[0].shape[0] > BLOCK_ENTRIES // pieces[0].shape[1]
        rng = np.random.default_rng(1)
        for step in pieces:
            entries = np.array(step.entries, dtype=np.int64)
            for lead in ((), (3,), (2, 4)):
                block = rng.integers(0, 2**30, size=(len(step.cols),) + lead)
                out = step.push(block)
                assert out.dtype == np.float64 and out.shape == (len(step.rows),) + lead
                expect = np.tensordot(entries, block, axes=1)
                assert out.astype(np.int64).tolist() == expect.tolist()

    def test_push_rejects_wrong_length(self):
        step = steps(QUADRATIC, COLUMNWISE, 2)[0]
        with pytest.raises(ValueError):
            step.push((1, 2, 3))

    def test_entries_shape_validated(self):
        rows, cols = path(2), path(2)
        with pytest.raises(ValueError, match="shape"):
            StepMatrix(rows, cols, np.ones((3, 2), dtype=bool))

    def test_only_bool_arrays_accepted(self):
        # 0/1 by type: a 0/1 array of ints or floats is refused too
        step = steps(QUADRATIC, COLUMNWISE, 1)[0]
        for dtype in (np.int8, np.uint8, np.int64, np.float64):
            with pytest.raises(ValueError, match="bools"):
                StepMatrix(step.rows, step.cols, step.array.astype(dtype))
        with pytest.raises(ValueError, match="bools"):
            StepMatrix(step.rows, step.cols, step.entries)

    def test_transposed_swaps_spaces(self):
        step = steps(T884, COLUMNWISE, 3)[0]
        t = step.transposed()
        assert t.rows is step.cols and t.cols is step.rows
        assert t.array.dtype == bool and t.array.flags.c_contiguous
        assert gold.entries(t) == gold.transpose(gold.entries(step))


class TestSpreadValidation:
    def test_build_step_defaults_to_identity_spreads(self):
        direct = build_step(path(3), path(3))
        explicit = build_step(path(3), path(3), lambda u: u, lambda v: v)
        assert direct.entries == explicit.entries


# Wrapped and open chains of the two families whose period returns to
# its first slice through a step back, at widths from the floor up.
RETURN_CASES = [
    (family, direction, _MIN_WIDTH[(family, direction)] + extra)
    for family in (AZTEC, T884)
    for direction in (COLUMNWISE, ROWWISE)
    for extra in range(5)
]


@pytest.mark.parametrize("family, direction, width", RETURN_CASES)
def test_return_step_is_the_first_steps_transpose(family, direction, width):
    chain = steps(family, direction, width)
    back, reference = chain[-1], chain[0].transposed()
    assert back.rows is reference.rows and back.cols is reference.cols
    assert np.array_equal(back.array, reference.array)
    assert back.array.dtype == bool and back.array.flags.c_contiguous
