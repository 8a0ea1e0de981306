import numpy as np
import pytest
from hypothesis import given, strategies as st

from latticegas.statespace import (
    MAX_ENUM_LENGTH,
    StateKind,
    StateSpace,
    enumerate_states,
    is_admissible,
    state_count,
)


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


class TestCardinalities:
    @pytest.mark.parametrize("length", range(1, 21))
    def test_path_matches_fibonacci(self, length):
        space = enumerate_states(StateKind.PATH, length)
        assert len(space.masks) == fib(length + 2)
        assert state_count(StateKind.PATH, length) == fib(length + 2)

    @pytest.mark.parametrize("length", range(3, 21))
    def test_cycle_matches_lucas(self, length):
        space = enumerate_states(StateKind.CYCLE, length)
        assert len(space.masks) == lucas(length)
        assert state_count(StateKind.CYCLE, length) == lucas(length)

    @pytest.mark.parametrize("length", range(1, 21))
    def test_free_is_power_of_two(self, length):
        assert state_count(StateKind.FREE, length) == 2**length
        if length <= 16:
            assert len(enumerate_states(StateKind.FREE, length).masks) == 2**length

    @pytest.mark.parametrize("length", range(2, 21, 2))
    def test_paired_is_power_of_three(self, length):
        assert state_count(StateKind.PAIRED, length) == 3 ** (length // 2)
        if length <= 20:
            space = enumerate_states(StateKind.PAIRED, length)
            assert len(space.masks) == 3 ** (length // 2)

    @pytest.mark.parametrize("kind", list(StateKind))
    def test_state_count_refuses_an_empty_slice(self, kind):
        with pytest.raises(ValueError, match="at least 1"):
            state_count(kind, 0)

    def test_state_count_safe_far_beyond_enumeration(self):
        assert state_count(StateKind.PATH, 200) == fib(202)
        assert state_count(StateKind.FREE, 200) == 2**200


class TestEnumeration:
    def test_masks_strictly_increasing(self):
        for kind, length in [
            (StateKind.PATH, 9),
            (StateKind.CYCLE, 9),
            (StateKind.FREE, 9),
            (StateKind.PAIRED, 8),
        ]:
            masks = enumerate_states(kind, length).masks
            assert all(a < b for a, b in zip(masks, masks[1:]))

    def test_path_small(self):
        assert enumerate_states(StateKind.PATH, 3).masks.tolist() == [0, 1, 2, 4, 5]

    def test_cycle_drops_wraparound_pair(self):
        masks = enumerate_states(StateKind.CYCLE, 3).masks
        assert masks.tolist() == [0, 1, 2, 4]

    def test_paired_small(self):
        # sites 1,2 paired: both occupied is the only exclusion
        assert enumerate_states(StateKind.PAIRED, 2).masks.tolist() == [0, 1, 2]

    def test_cycle_needs_three_sites(self):
        with pytest.raises(ValueError):
            enumerate_states(StateKind.CYCLE, 2)

    def test_paired_needs_even_length(self):
        with pytest.raises(ValueError):
            enumerate_states(StateKind.PAIRED, 5)

    def test_refuses_giant_enumeration(self):
        with pytest.raises(ValueError):
            enumerate_states(StateKind.FREE, MAX_ENUM_LENGTH + 1)

    def test_masks_hold_admissible_states_only(self):
        space = enumerate_states(StateKind.PATH, 6)
        assert 5 in space.masks
        assert 3 not in space.masks  # 0b11 has adjacent occupation


class TestSharedSpaces:
    @pytest.mark.parametrize(
        "kind, length",
        [(StateKind.PATH, 7), (StateKind.CYCLE, 7), (StateKind.FREE, 7), (StateKind.PAIRED, 6)],
    )
    def test_one_space_per_kind_and_length(self, kind, length):
        space = enumerate_states(kind, length)
        assert enumerate_states(kind, length) is space
        assert enumerate_states(kind=kind, length=length) is space
        assert enumerate_states(kind, length + 2) is not space

    def test_masks_are_a_read_only_int64_array(self):
        masks = enumerate_states(StateKind.PATH, 6).masks
        assert isinstance(masks, np.ndarray)
        assert masks.dtype == np.int64 and masks.ndim == 1
        with pytest.raises(ValueError):
            masks[0] = 1
        assert masks[0] == 0

    def test_spaces_compare_by_identity(self):
        space = enumerate_states(StateKind.PATH, 4)
        copy = StateSpace(space.kind, space.length, space.masks.copy())
        assert copy != space

    @pytest.mark.parametrize(
        "masks",
        [
            (0.0, 1.0, 2.0),
            np.array([0, 1, 2], dtype=np.int32),
            np.zeros((1, 3), dtype=np.int64),
            np.array([0, 2, 1], dtype=np.int64),  # shuffled
            np.array([0, 1, 1, 2], dtype=np.int64),  # a mask twice
        ],
    )
    def test_refuses_masks_of_another_form(self, masks):
        with pytest.raises(ValueError):
            StateSpace(StateKind.PATH, 2, masks)


class TestAdmissibility:
    def test_path_rejects_adjacent_bits(self):
        assert is_admissible(StateKind.PATH, 0b10101, 5)
        assert not is_admissible(StateKind.PATH, 0b00011, 5)

    def test_cycle_rejects_first_last_pair(self):
        assert is_admissible(StateKind.PATH, 0b10001, 5)
        assert not is_admissible(StateKind.CYCLE, 0b10001, 5)

    def test_free_accepts_everything_in_range(self):
        assert all(is_admissible(StateKind.FREE, m, 5) for m in range(2**5))

    def test_paired_rejects_occupied_pair(self):
        assert is_admissible(StateKind.PAIRED, 0b0101, 4)
        assert not is_admissible(StateKind.PAIRED, 0b0011, 4)
        assert not is_admissible(StateKind.PAIRED, 0b1100, 4)
        assert is_admissible(StateKind.PAIRED, 0b0110, 4)


@given(
    kind=st.sampled_from([StateKind.PATH, StateKind.CYCLE, StateKind.FREE]),
    length=st.integers(min_value=3, max_value=14),
)
def test_every_enumerated_mask_is_admissible(kind, length):
    space = enumerate_states(kind, length)
    assert all(is_admissible(kind, m, length) for m in space.masks)
    assert len(space.masks) == state_count(kind, length)


@given(length=st.integers(min_value=3, max_value=14), data=st.data())
def test_inadmissible_masks_are_absent(length, data):
    mask = data.draw(st.integers(min_value=0, max_value=2**length - 1))
    space = enumerate_states(StateKind.PATH, length)
    assert (mask in space.masks) == is_admissible(StateKind.PATH, mask, length)


@pytest.mark.parametrize("kind", list(StateKind))
def test_enumeration_is_the_admissibility_filter(kind):
    # at every length up to 14 where the kind has a space, which
    # state_count alone decides
    lengths = 0
    for length in range(1, 15):
        try:
            state_count(kind, length)
        except ValueError:
            continue
        admissible = [m for m in range(2**length) if is_admissible(kind, m, length)]
        assert enumerate_states(kind, length).masks.tolist() == admissible
        lengths += 1
    assert lengths >= 7
