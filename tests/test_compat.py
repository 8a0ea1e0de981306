import numpy as np
import pytest

from latticegas.compat import (
    StepMatrix,
    build_step,
    compose,
    crossed_step,
    orthogonal_step,
    paired_step,
    staggered_step,
)
from latticegas.statespace import StateKind, enumerate_states

import golden_data as gold


def path(n):
    return enumerate_states(StateKind.PATH, n)


def cycle(n):
    return enumerate_states(StateKind.CYCLE, n)


def free(n):
    return enumerate_states(StateKind.FREE, n)


def paired(n):
    return enumerate_states(StateKind.PAIRED, n)


class TestReferenceMatrices:
    def test_orthogonal_on_path_states(self):
        step = orthogonal_step(path(4), path(4))
        assert gold.entries(step) == gold.QUAD_COLUMN_W3

    def test_orthogonal_on_cycle_states(self):
        step = orthogonal_step(cycle(4), cycle(4))
        assert gold.entries(step) == gold.QUAD_ROW_W4

    def test_crossed_open(self):
        step = crossed_step(path(4), path(4))
        got = gold.reordered(step, gold.CROSSED_COLUMN_W3_STATES, gold.CROSSED_COLUMN_W3_STATES)
        assert got == gold.CROSSED_COLUMN_W3

    def test_crossed_wrapped(self):
        step = crossed_step(cycle(4), cycle(4), wrap=True)
        got = gold.reordered(step, gold.CROSSED_ROW_W4_STATES, gold.CROSSED_ROW_W4_STATES)
        assert got == gold.CROSSED_ROW_W4

    def test_staggered_short_to_long(self):
        step = staggered_step(free(3), free(4))
        assert gold.entries(step) == gold.AZTEC_COLUMN_W3_STEP1

    def test_staggered_long_to_short_is_transpose(self):
        up = staggered_step(free(3), free(4))
        down = staggered_step(free(4), free(3))
        assert gold.entries(down) == gold.entries(up.transposed())

    def test_staggered_wrapped(self):
        step = staggered_step(free(3), free(3), lean=-1)
        assert gold.entries(step) == gold.AZTEC_ROW_W3_STEP1

    def test_paired_open(self):
        step = paired_step(paired(2), free(2))
        assert gold.entries(step) == gold.T884_COLUMN_W2_STEP1

    def test_paired_wrapped(self):
        step = paired_step(paired(4), free(2), wrap=True)
        got = gold.reordered(step, gold.T884_ROW_W3_STEP1_ROWSTATES, gold.T884_ROW_W3_STEP1_COLSTATES)
        assert got == gold.T884_ROW_W3_STEP1

    def test_plain_middle_factor(self):
        step = orthogonal_step(free(2), free(2))
        assert gold.entries(step) == gold.T884_COLUMN_W2_STEP2
        assert gold.entries(step) == gold.T884_ROW_W3_STEP2


class TestComposites:
    def test_staggered_open_product(self):
        up = staggered_step(free(3), free(4))
        prod = compose([up, up.transposed()])
        assert gold.entries(prod) == gold.AZTEC_COLUMN_W3_COMPOSITE

    def test_staggered_wrapped_product(self):
        down = staggered_step(free(3), free(3), lean=-1)
        prod = compose([down, down.transposed()])
        assert gold.entries(prod) == gold.AZTEC_ROW_W3_COMPOSITE

    def test_paired_open_product(self):
        fan = paired_step(paired(2), free(2))
        mid = orthogonal_step(free(2), free(2))
        prod = compose([fan, mid, fan.transposed()])
        assert gold.entries(prod) == gold.T884_COLUMN_W2_COMPOSITE

    def test_paired_wrapped_product(self):
        fan = paired_step(paired(4), free(2), wrap=True)
        mid = orthogonal_step(free(2), free(2))
        prod = compose([fan, mid, fan.transposed()])
        assert gold.entries(prod) == gold.T884_ROW_W3_COMPOSITE

    def test_composites_are_symmetric(self):
        for mat in (
            gold.AZTEC_COLUMN_W3_COMPOSITE,
            gold.AZTEC_ROW_W3_COMPOSITE,
            gold.T884_COLUMN_W2_COMPOSITE,
            gold.T884_ROW_W3_COMPOSITE,
        ):
            assert mat == gold.transpose(mat)

    def test_compose_rejects_mismatched_shapes(self):
        fan = paired_step(paired(4), free(3))
        with pytest.raises(ValueError):
            compose([fan, fan])

    def test_compose_rejects_empty(self):
        with pytest.raises(ValueError):
            compose([])


class TestStepMatrix:
    def test_shape_and_dense(self):
        step = orthogonal_step(path(2), path(2))
        assert step.shape == (3, 3)
        assert step.array.dtype == bool
        assert step.dense.dtype == np.float64
        assert step.dense.tolist() == [[1, 1, 1], [1, 0, 1], [1, 1, 0]]

    def test_matmul_matches_dense(self):
        a = paired_step(paired(4), free(3))
        b = orthogonal_step(free(3), free(3))
        exact = np.array((a @ b).entries, dtype=np.float64)
        assert np.array_equal(exact, a.dense @ b.dense)

    def test_push_is_exact_vector_product(self):
        # A 0/1 step, and an aztec composite (entries up to 8) fed
        # entries past 2**64, where any int64 shortcut would wrap.
        up = staggered_step(free(3), free(4))
        cases = [
            (orthogonal_step(path(3), path(3)), (1, 10, 100, 1000, 10000)),
            (compose([up, up.transposed()]), [2**64 + 3**k for k in range(8)]),
        ]
        for step, vec in cases:
            out = step.push(vec)
            expect = [sum(r * v for r, v in zip(row, vec)) for row in zip(*step.entries)]
            assert list(out) == expect
        assert max(step.array.max() for step, _ in cases) > 1

    def test_push_rejects_wrong_length(self):
        step = orthogonal_step(path(3), path(3))
        with pytest.raises(ValueError):
            step.push((1, 2, 3))

    def test_entries_shape_validated(self):
        rows, cols = path(2), path(2)
        with pytest.raises(ValueError):
            StepMatrix(rows, cols, ((1, 1), (1, 0), (1, 1)))

    def test_negative_entry_rejected(self):
        two = free(1)
        with pytest.raises(ValueError, match="nonnegative"):
            StepMatrix(two, two, ((1, -1), (1, 1)))

    def test_matmul_refuses_possible_int64_overflow(self):
        two = free(1)
        big = StepMatrix(two, two, ((2**62, 1), (1, 1)))
        with pytest.raises(ValueError, match=r"2\*\*63"):
            big @ big

    def test_transposed_swaps_spaces(self):
        step = paired_step(paired(4), free(3))
        t = step.transposed()
        assert t.rows is step.cols and t.cols is step.rows
        assert gold.entries(t) == gold.transpose(gold.entries(step))


class TestSpreadValidation:
    def test_staggered_open_needs_adjacent_lengths(self):
        with pytest.raises(ValueError):
            staggered_step(free(3), free(5))

    def test_staggered_wrap_needs_explicit_lean(self):
        with pytest.raises(ValueError):
            staggered_step(free(3), free(3), lean=0)

    def test_paired_rejects_odd_rows(self):
        with pytest.raises(ValueError):
            paired_step(free(3), free(2))

    def test_paired_rejects_wrong_col_length(self):
        with pytest.raises(ValueError):
            paired_step(paired(4), free(4))
        with pytest.raises(ValueError):
            paired_step(paired(4), free(3), wrap=True)

    def test_build_step_defaults_to_identity_spreads(self):
        direct = build_step(path(3), path(3))
        named = orthogonal_step(path(3), path(3))
        assert direct.entries == named.entries
