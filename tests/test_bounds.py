import math
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
from bkneser.bounds import core_bound


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
        # the core-avoidance bound's N = 5 case beats the regular bound 4
        # and u_floor 6; bk n/a
        assert (report.core, report.regular_bound) == (3, 4)
        assert report.best == 3
        assert report.u_floor == 6

    def test_kg73(self):
        report = best_upper_bound(KneserParams(3, 1))  # |V|=35, d=4
        assert report.regular_bound == 5
        assert report.u_floor == 16
        assert report.best == 5

    def test_u_wins_at_large_k(self):
        # the counting bound beats the d-i and regular bounds; the
        # core-avoidance bound beats all three
        report = best_upper_bound(KneserParams(2, 10))
        assert report.bk.value == 45
        assert report.u_floor == 39
        assert report.regular_bound == 67
        assert report.core == 30
        assert report.best == 30

    def test_bk_excluded_when_hypothesis_fails(self):
        # for K_3 the arithmetic d-i value is 1 but must not shrink `best`
        report = best_upper_bound(KneserParams(1, 1))
        assert report.bk.applicable and not report.bk.hypothesis_met
        assert report.bk.value == 1
        assert report.best == 3


def core_by_loop(params):
    """The core-avoidance bound's max over every i, without the search."""
    ground, n, v = params.ground_size, params.n, params.vertex_count
    return max(
        min(i + math.comb(ground - i, n), i + (v - i) // 3) for i in range(ground + 1)
    )


def closed_form_n2(ground):
    return math.comb(ground, 2) // 3 + (ground % 6 not in (1, 2, 3) and ground != 5)


def surplus_shapes(ground):
    """(i1, i2, classes) for each shape the edge count of K_ground allows a
    b-coloring of KG(ground, 2): i1 single edges and i2 stars whose cores
    make up X, |X| = m = 2i1 + i2, and t triangles on the other edges, with
    C(ground, 2) = i1 + S + 3t exactly for the S star edges. The stars hold
    the C(m, 2) - i1 edges inside X but the single edges, and e_x >= 1 edges
    each to Y = [ground] - X, e_x of the parity of |Y|; a star with no edge
    inside X needs e_x >= 2. At most one single edge exists, only with |Y|
    even, and never without a star (the matchings argument in `bounds`).
    Four stars with |Y| = 1 need two edges each inside X, 8 > C(4, 2): each
    dominator runs to the one point of Y (the N = 5 argument in `bounds`)."""
    edges = math.comb(ground, 2)
    for i1 in (0, 1):
        for i2 in range(ground - 2 * i1 + 1):
            m = 2 * i1 + i2
            y = ground - m
            if i1 and (y % 2 or i2 == 0):
                continue
            inside = math.comb(m, 2) - i1
            bare = max(0, i2 - inside)  # stars with no edge inside X
            least = 2 - y % 2  # the least e_x of the parity of |Y|
            least_bare = least + 2 * (least < 2)
            if i2 and y < (least_bare if bare else least):
                continue
            if y == 1 and i2 == 4:
                continue
            star_edges = inside + (i2 - bare) * least + bare * least_bare
            # raising an e_x by 2, up to |Y|, keeps its parity
            slack = ((i2 - bare) * (y - least) + bare * (y - least_bare)) // 2
            for raised in range(min(slack, 2) + 1):
                rest = edges - i1 - star_edges - 2 * raised
                if rest >= 0 and rest % 3 == 0:
                    yield i1, i2, i1 + i2 + rest // 3
                    break


def surplus_optimum(ground):
    """The most classes a b-coloring of KG(ground, 2) can have by the count
    of edges (`surplus_shapes`)."""
    return max(classes for _, _, classes in surplus_shapes(ground))


# phi where the tests solve it exactly (test_solver, TestPinnedOutputs,
# TestSteinerTripleSystems and the oracle cross-checks): KG(5..9,2),
# KG(13,2), KG(6,3), KG(7,3) and KG(8,4)
KNOWN_PHI = {
    KneserParams(2, 1): 3,
    KneserParams(2, 2): 6,
    KneserParams(2, 3): 7,
    KneserParams(2, 4): 9,
    KneserParams(2, 5): 12,
    KneserParams(2, 9): 26,
    KneserParams(3, 0): 2,
    KneserParams(3, 1): 5,
    KneserParams(4, 0): 2,
}


class TestCoreBound:
    @pytest.mark.parametrize("n", range(1, 7))
    def test_search_equals_the_loop(self, n):
        for ground in range(2 * n, 120):
            params = KneserParams(n, ground - 2 * n)
            expected = core_by_loop(params)
            if n == 2:
                expected = min(expected, closed_form_n2(ground))
            assert core_bound(params) == expected, ground

    def test_n2_closed_form_is_the_surplus_optimum(self):
        for ground in range(4, 71):
            assert closed_form_n2(ground) == surplus_optimum(ground), ground
            assert closed_form_n2(ground) <= core_by_loop(KneserParams(2, ground - 4))

    def test_n2_plus_one_shapes(self):
        # the closed form's +1 is three stars for N = 0, 4 (mod 6) and four
        # stars, each with one edge to Y, for N = 5 (mod 6) but N = 5
        for ground in range(4, 71):
            plus_one = math.comb(ground, 2) // 3 + 1
            shapes = [(i1, i2) for i1, i2, c in surplus_shapes(ground) if c == plus_one]
            expected = {0: [(0, 3)], 4: [(0, 3)], 5: [(0, 4)]}.get(ground % 6, [])
            if ground == 5:
                expected = []
            assert shapes == expected, ground

    @pytest.mark.parametrize(
        "ground,value",
        [(5, 3), (6, 6), (7, 7), (8, 9), (9, 12), (13, 26), (14, 30)],
    )
    def test_n2_values(self, ground, value):
        # it is `best` on each, and phi on each but KG(14,2) (KNOWN_PHI)
        params = KneserParams(2, ground - 4)
        assert core_bound(params) == best_upper_bound(params).best == value

    @pytest.mark.parametrize("params", list(KNOWN_PHI), ids=str)
    def test_best_is_at_least_phi(self, params):
        assert best_upper_bound(params).best >= KNOWN_PHI[params]

    def test_complete_graphs(self):
        # K_N = KG(N, 1), whose phi is N
        for k in range(0, 40):
            params = KneserParams(1, k)
            assert core_bound(params) == best_upper_bound(params).best == k + 2

    @pytest.mark.parametrize("n", range(1, 7))
    def test_best_never_exceeds_the_older_bounds(self, n):
        for k in range(0, 101):
            report = best_upper_bound(KneserParams(n, k))
            older = (report.regular_bound, report.u_floor, report.bk_value)
            assert report.best == min(
                min(b for b in older if b is not None), report.core
            )


class TestAsymptoticTable:
    def test_row_shape_and_count(self):
        rows = asymptotic_table(2, 0, 12)
        assert len(rows) == 13
        assert [r.params.k for r in rows] == list(range(13))

    def test_first_ratio_examples(self):
        rows = asymptotic_table(2, 0, 2)
        assert [r.ratios.two_ground_over_v for r in rows] == [
            Fraction(8, 6),
            Fraction(10, 10),
            Fraction(12, 15),
        ]

    def test_n1_degree_ratio_closed_form(self):
        rows = asymptotic_table(1, 0, 20)
        for r in rows:
            assert r.ratios.degree_over_v == Fraction(1 + r.params.k, 2 + r.params.k)
            assert r.ratios.degree_over_v < 1

    def test_crossover_located_by_scan(self):
        rows = asymptotic_table(2, 0, 12)
        crossover = next(
            r.params.k
            for r in rows
            if r.bk_value is not None and r.u_floor < r.bk_value
        )
        assert crossover == 6
        at6 = rows[6]
        assert (at6.u_floor, at6.bk_value) == (21, 22)

    @pytest.mark.parametrize("n", range(2, 6))
    def test_monotonicity_over_long_scan(self, n):
        rows = asymptotic_table(n, 0, 200)
        excess = [r.ratios.two_ground_over_v for r in rows]
        density = [r.ratios.degree_over_v for r in rows]
        assert all(a > b for a, b in zip(excess, excess[1:]))
        assert all(a < b for a, b in zip(density, density[1:]))
        assert all(0 < d < 1 for d in density)
        assert all(isinstance(r.ratios.two_ground_over_v, Fraction) for r in rows)

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
