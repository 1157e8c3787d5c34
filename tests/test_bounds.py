from fractions import Fraction

import pytest

from bkneser import (
    KneserParams,
    asymptotic_table,
    best_upper_bound,
    bk_bound,
    regular_bound,
    u_bound,
)


def ceil_half(x: int) -> int:
    return -(x // -2)


@pytest.mark.parametrize(
    "params,expected",
    [
        (KneserParams(2, 1), 4),
        (KneserParams(2, 0), 2),
        (KneserParams(3, 1), 5),
    ],
)
def test_regular_bound(params, expected):
    assert regular_bound(params) == expected


class TestBKBound:
    def test_petersen_not_applicable(self):
        bk = bk_bound(KneserParams(2, 1))  # |V|=10 > 2d+2=8
        assert not bk.applicable
        assert bk.hypothesis_met
        assert bk.i_max is None and bk.value is None

    def test_boundary_case(self):
        bk = bk_bound(KneserParams(2, 3))  # |V|=21, d=10, 2d+2=22
        assert bk.applicable and bk.hypothesis_met
        assert bk.i_max == 0
        assert bk.value == 10 == ceil_half(21 - 2)

    def test_wide_case(self):
        bk = bk_bound(KneserParams(2, 10))  # |V|=91, d=66
        assert bk.applicable
        assert bk.i_max == 21
        assert bk.value == 45 == ceil_half(91 - 2)

    def test_hypothesis_flag_for_n1(self):
        bk = bk_bound(KneserParams(1, 1))
        assert bk.applicable  # arithmetic condition holds for K_3
        assert not bk.hypothesis_met

    @pytest.mark.parametrize("n", range(1, 7))
    def test_ceiling_equivalence_scan(self, n):
        for k in range(0, 201):
            params = KneserParams(n, k)
            bk = bk_bound(params)
            if bk.applicable:
                assert bk.value == ceil_half(params.vertex_count - 2)
                assert bk.i_max >= 0


class TestUBound:
    def test_n1_is_integer_and_sharp_shape(self):
        for k in range(0, 21):
            u = u_bound(KneserParams(1, k))
            assert u.exact == Fraction(2 + k)
            assert u.exact.denominator == 1
            assert u.floor == 2 + k

    @pytest.mark.parametrize(
        "params,exact,floor",
        [
            (KneserParams(1, 1), Fraction(3), 3),
            (KneserParams(2, 1), Fraction(20, 3), 6),
            (KneserParams(2, 10), Fraction(119, 3), 39),
        ],
    )
    def test_values(self, params, exact, floor):
        u = u_bound(params)
        assert u.exact == exact
        assert isinstance(u.exact, Fraction)
        assert u.floor == floor


class TestBestUpperBound:
    def test_petersen(self):
        report = best_upper_bound(KneserParams(2, 1))
        assert report.best == 4  # regular bound beats u_floor=6; bk n/a
        assert report.u_floor == 6

    def test_kg73(self):
        report = best_upper_bound(KneserParams(3, 1))  # |V|=35, d=4
        assert report.regular_bound == 5
        assert report.u_floor == 16
        assert report.best == 5

    def test_u_wins_at_large_k(self):
        report = best_upper_bound(KneserParams(2, 10))
        assert report.bk.value == 45
        assert report.u_floor == 39
        assert report.regular_bound == 67
        assert report.best == 39

    def test_bk_excluded_when_hypothesis_fails(self):
        # for K_3 the arithmetic d-i value is 1 but must not shrink `best`
        report = best_upper_bound(KneserParams(1, 1))
        assert report.bk.applicable and not report.bk.hypothesis_met
        assert report.bk.value == 1
        assert report.best == 3


class TestAsymptoticTable:
    def test_row_shape_and_count(self):
        rows = asymptotic_table(2, 0, 12)
        assert len(rows) == 13
        assert [r.k for r in rows] == list(range(13))

    def test_first_ratio_examples(self):
        rows = asymptotic_table(2, 0, 2)
        assert [r.two_ground_over_v for r in rows] == [
            Fraction(8, 6),
            Fraction(10, 10),
            Fraction(12, 15),
        ]

    def test_n1_degree_ratio_closed_form(self):
        rows = asymptotic_table(1, 0, 20)
        for r in rows:
            assert r.degree_over_v == Fraction(1 + r.k, 2 + r.k)
            assert r.degree_over_v < 1

    def test_crossover_located_by_scan(self):
        rows = asymptotic_table(2, 0, 12)
        crossover = next(
            r.k
            for r in rows
            if r.bk_value is not None and r.u_floor < r.bk_value
        )
        assert crossover == 6
        at6 = rows[6]
        assert (at6.u_floor, at6.bk_value) == (21, 22)

    @pytest.mark.parametrize("n", range(2, 6))
    def test_monotonicity_over_long_scan(self, n):
        rows = asymptotic_table(n, 0, 200)
        excess = [r.two_ground_over_v for r in rows]
        density = [r.degree_over_v for r in rows]
        assert all(a > b for a, b in zip(excess, excess[1:]))
        assert all(a < b for a, b in zip(density, density[1:]))
        assert all(0 < d < 1 for d in density)
        assert all(isinstance(r.two_ground_over_v, Fraction) for r in rows)

    def test_bk_column_tracks_usability(self):
        # n=1 rows never expose a usable d-i value
        assert all(r.bk_value is None for r in asymptotic_table(1, 0, 10))

    def test_rejects_bad_ranges(self):
        with pytest.raises(ValueError):
            asymptotic_table(0, 0, 5)
        with pytest.raises(ValueError):
            asymptotic_table(2, 5, 4)
        with pytest.raises(ValueError):
            asymptotic_table(2, -1, 4)
