import math
from fractions import Fraction

import pytest

from latticegas.bounds import (
    PER_VERTEX_EXPONENT,
    ROOT_CACHE_SIZE,
    bound_table,
    entropy_interval,
    ring_root,
    strip_root,
)
from latticegas.chain import Family


class TestRoots:
    def test_narrow_quadratic_strip_root(self):
        assert strip_root(Family.QUADRATIC, 1).value == pytest.approx(
            1.0 + math.sqrt(2.0), abs=1e-12
        )

    def test_strip_roots_grow_with_width(self):
        values = [strip_root(Family.CROSSED, w).value for w in range(3, 8)]
        assert all(a < b for a, b in zip(values, values[1:]))

    def test_ring_root_floor(self):
        with pytest.raises(ValueError):
            ring_root(Family.QUADRATIC, 2)

    def test_root_caches_are_bounded(self):
        for root in (strip_root, ring_root):
            root.cache_clear()
            for i in range(ROOT_CACHE_SIZE + 8):
                root(Family.AZTEC, 2, 1e-6 * (1 + i / 64))
                assert root.cache_info().currsize <= ROOT_CACHE_SIZE
            assert root.cache_info().currsize == ROOT_CACHE_SIZE
            root.cache_clear()


class TestIntervals:
    @pytest.mark.parametrize("family", list(Family))
    def test_interval_is_ordered(self, family):
        report = entropy_interval(family, p=1, q=2, k=3)
        assert report.lower < report.upper
        assert report.normalized_lower < report.normalized_upper

    def test_quadratic_interval_tightens_with_k(self):
        reports = bound_table(Family.QUADRATIC, 2, range(2, 5))
        uppers = [r.upper for r in reports]
        lowers = [r.lower for r in reports]
        widths = [r.normalized_width for r in reports]
        assert uppers == sorted(uppers, reverse=True)
        assert lowers == sorted(lowers)
        assert widths == sorted(widths, reverse=True)
        assert widths[-1] < 1e-4

    def test_frozen_quadratic_digits(self):
        report = entropy_interval(Family.QUADRATIC, 2, 3, 3)
        assert report.lower == pytest.approx(1.5030480756421196, rel=1e-12)
        assert report.upper == pytest.approx(1.503514809475903, rel=1e-12)

    def test_quadratic_and_aztec_intervals_overlap(self):
        # the diagonal grid is the square grid rotated half a turn, so
        # their normalized intervals must share the same constant
        quad = entropy_interval(Family.QUADRATIC, 2, 3, 3)
        aztec = entropy_interval(Family.AZTEC, 2, 3, 3)
        assert max(quad.normalized_lower, aztec.normalized_lower) <= min(
            quad.normalized_upper, aztec.normalized_upper
        )

    def test_parameter_floors(self):
        for bad in [(0, 2, 2), (2, 0, 2), (2, 2, 0)]:
            with pytest.raises(ValueError):
                entropy_interval(Family.QUADRATIC, *bad)

    def test_ring_width_must_support_a_cycle(self):
        # k=1 means a 2-site ring, below the wrapped chain floor
        with pytest.raises(ValueError):
            entropy_interval(Family.QUADRATIC, 1, 1, 1)


class TestNormalization:
    def test_exponents(self):
        assert PER_VERTEX_EXPONENT[Family.QUADRATIC] == 1
        assert PER_VERTEX_EXPONENT[Family.CROSSED] == 1
        assert PER_VERTEX_EXPONENT[Family.AZTEC] == Fraction(1, 2)
        assert PER_VERTEX_EXPONENT[Family.TRUNCATED_SQUARE] == Fraction(1, 4)

    def test_normalization_applies_exponent(self):
        report = entropy_interval(Family.AZTEC, 1, 2, 2)
        assert report.normalized_lower == pytest.approx(math.sqrt(report.lower), rel=1e-15)
        assert report.normalized_upper == pytest.approx(math.sqrt(report.upper), rel=1e-15)

    def test_quadratic_normalization_is_identity(self):
        report = entropy_interval(Family.QUADRATIC, 1, 2, 2)
        assert report.normalized_lower == report.lower
        assert report.normalized_upper == report.upper


class TestReportShape:
    def test_samples_record_the_three_roots(self):
        report = entropy_interval(Family.CROSSED, 2, 2, 2)
        roles = [(s.role, s.width) for s in report.samples]
        assert roles == [("strip", 6), ("strip", 4), ("ring", 4)]
        for s in report.samples:
            assert s.residual <= 1e-12

    def test_as_dict_round_trips_the_fields(self):
        report = entropy_interval(Family.TRUNCATED_SQUARE, 1, 2, 2)
        d = report.as_dict()
        assert d["family"] == "truncated-square"
        assert d["per_vertex_exponent"] == "1/4"
        assert d["lower"] == report.lower and d["upper"] == report.upper
        assert len(d["samples"]) == 3

    def test_truncated_square_flips_the_two_estimates(self):
        report = entropy_interval(Family.TRUNCATED_SQUARE, 1, 2, 2)
        by_role = {s.role: s for s in report.samples}
        folded = by_role["ring"].value ** (1.0 / 4.0)
        assert report.lower == pytest.approx(folded, rel=1e-15)
        assert report.lower < report.upper
