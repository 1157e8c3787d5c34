"""Closed-form upper bounds on the b-chromatic number of KG(2n+k, n).

Four bounds are tracked, all in exact arithmetic:

- regular bound d+1, valid for any d-regular graph;
- the d-i bound: if |V| <= 2d+2-2i for an integer i >= 0 then phi <= d-i,
  which simplifies to ceil((|V|-2)/2); stated for n >= 2, so the hypothesis
  flag is tracked separately from the arithmetic condition;
- the counting bound U = (|V| + 2(2n+k))/3, kept as an exact rational whose
  floor is the usable integer bound;
- the core-avoidance bound, which takes the counting argument one step
  further (`core_bound`).

Core avoidance. Take a b-coloring of KG(N, n), N = 2n+k, and call the
intersection of a class's members its core. A dominator of class C contains
C's core and is disjoint from some member of every other class C', so it
misses the core of C'; so the cores of C and C' are disjoint. If i classes
have a nonempty core, their union X thus has |X| >= i. A class with an
empty core has a dominator missing every core, an n-subset of Y = [N] - X,
and distinct classes have distinct dominators, so the t empty-core classes
number at most C(N-i, n). Each of them holds at least 3 members, as one or two pairwise
meeting n-sets share a point, so 3t + i <= |V|, the source paper's count.
Therefore phi = i + t <= max over 0 <= i <= N of
min(i + C(N-i, n), i + floor((|V|-i)/3)).

For n = 2 a class is a set of pairwise meeting edges of K_N: a single edge,
whose core is its 2 points; a star of two or more edges, whose core is its
center; or a triangle, whose core is empty. Let there be i1 single edges, i2
stars, t triangles and S star edges, so |X| = 2i1 + i2. A triangle's
dominator lies inside Y, so no triangle has an edge inside X; a star's
dominator runs from its center to Y. Every edge lies in one class, so
C(N,2) = i1 + S + 3t, and 3phi = C(N,2) + 2i1 + 3i2 - S. Each star has at
least 2 edges, and the stars cover every edge inside X but the single edges,
plus a dominator edge each leaving X, so
S >= max(2i2, C(2i1+i2, 2) - i1 + i2). With m = 2i1 + i2 the surplus
2i1 + 3i2 - S is at most min(m, m + (i1+i2) - C(m,2)) <= min(m, m(5-m)/2),
which is at most 3, and 3 only at m = 3 with i1 + i2 = 3: i1 = 0, i2 = 3,
each star one edge inside X plus one edge to Y. Then each center's other
|Y|-1 edges to Y lie in triangles, two to a triangle, so N = |Y| + 3 is
even. So phi <= floor(C(N,2)/3) + 1, and phi <= floor(C(N,2)/3) when N is
odd and 3 divides C(N,2), that is N = 1, 3 (mod 6). A Steiner triple
system reaches that value, its triangles taken as classes: a triangle other
than the one holding the edge ab has an edge missing a and b. The heuristic
of `solver` builds one (Bose's or Skolem's) for every such N.

Parity takes one more off when N = 2 (mod 6). Let s = 3phi - C(N,2) be the
surplus and e_x the number of edges of the star at center x that run to Y.
An edge from x to Y lies in no single edge, whose points are in X, and in no
other star, as Y holds no center; so it lies in x's star or in a triangle,
which has at most one point in X and so holds two edges from x to Y. Thus
e_x >= 1, for the star's dominator, and e_x = |Y| (mod 2). A point a of a
single edge is no center, so every edge from a to Y lies in a triangle at
a, and |Y| is even; the edge joining two single edges would lie in no class,
so i1 <= 1. The stars hold every edge inside X but the single edges, so
S = C(m,2) - i1 + sum e_x and s = 3i1 + 3i2 - C(m,2) - sum e_x.
Let N be even. If |Y| is even, each e_x >= 2, so s <= 3i1 + i2 - C(m,2),
which is at most 1 for i1 = 0 and at most 2 for i1 = 1, with 2 only at
i2 = 0. If |Y| is odd, then i1 = 0, i2 = N - |Y| is odd and every e_x is
odd, so s <= 2i2 - C(i2,2) with s = 2i2 - C(i2,2) (mod 2); that leaves
s = 2 only at i2 = 1, where the lone star has no edge inside X, so
e_x >= 3 and s <= 0. So s = 2 needs one single edge ab, no star and |Y|
even. Then the edges from a to Y pair off in triangles at a, whose third
edges form a perfect matching of Y, and those at b form a second, disjoint
one; the rest of Y's edges form a (|Y|-3)-regular graph that triangles
inside Y split, so |Y| - 3 is even, against |Y| even. So s != 2 for even
N. When N = 2 (mod 3), C(N,2) = 1 (mod 3) and s = 2 (mod 3), so for
N = 2 (mod 6), s <= 3 and s != 2 leave s <= -1: phi <= floor(C(N,2)/3).
N = 5 (mod 6) keeps its +1 against this argument, in one shape only. For
odd N, if |Y| is even then m is odd, so i1 = 1 comes with a star and
s <= 3 + i2 - C(i2+2, 2) <= 1, or i1 = 0 and s <= i2 - C(i2,2) <= 1. If |Y|
is odd, i2 = m is even and s <= 2i2 - C(i2,2), of its parity: i2 = 2 gives
an odd s <= m = 2, and s = 2 needs i2 = 4 with every e_x = 1. So the shape is
four stars on X, each with one edge to Y: s = 12 - 6 - 4 = 2 with |Y| odd.

That shape cannot occur at N = 5. There X holds the four centers x_i and
Y = {y}, so the dominator of the star at x_i is x_i y. The star at x_j needs
a member disjoint from x_i y for each of the three i != j, that is an edge
x_j z with z in X - {x_i}. An edge x_j x_l inside X serves every i but l, so
one edge cannot serve all three, and each star holds two edges inside X.
That is 8 edges, and X has C(4,2) = 6. So phi(KG(5,2)) <= 3. For N >= 11,
|Y| >= 7 lets the dominators x_i y_i run to different points of Y, and the
argument does not apply.

So phi <= floor(C(N,2)/3) + 1, less one when N = 1, 2, 3 (mod 6) or N = 5.
Javadi & Omoomi (On b-coloring of the Kneser graphs, Discrete Math. 309,
2009) treat b-colorings of KG(N,2) and are the prior work to compare this
n = 2 form, and the Steiner-system values, against.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import NamedTuple

from .kneser import KneserParams


class BKBound(NamedTuple):
    applicable: bool  # arithmetic condition |V| <= 2d+2
    hypothesis_met: bool  # stated hypothesis n >= 2
    i_max: int | None
    value: int | None


class UBound(NamedTuple):
    exact: Fraction
    floor: int


class Ratios(NamedTuple):
    two_ground_over_v: Fraction  # 2(2n+k) / |V|
    degree_over_v: Fraction  # d / |V|


class BoundsReport(NamedTuple):
    params: KneserParams
    regular_bound: int
    bk: BKBound
    u_exact: Fraction
    u_floor: int
    ratios: Ratios

    @property
    def bk_value(self) -> int | None:
        """The d-i bound where it may be used: applicable, with its n >= 2
        hypothesis met; None otherwise."""
        return self.bk.value if self.bk.applicable and self.bk.hypothesis_met else None

    @property
    def core(self) -> int:
        """The core-avoidance bound (`core_bound`)."""
        return core_bound(self.params)

    @property
    def best(self) -> int:
        """The least usable bound."""
        bounds = (self.regular_bound, self.u_floor, self.bk_value, self.core)
        return min(b for b in bounds if b is not None)


def regular_bound(params: KneserParams) -> int:
    """d+1 for the C(n+k, n)-regular Kneser graph."""
    return params.degree + 1


def bk_bound(params: KneserParams) -> BKBound:
    """Largest-i instance of the d-i bound, with its n >= 2 hypothesis flagged.

    The arithmetic value is computed even for n = 1, but callers must not use
    it as a bound there; BoundsReport.bk_value excludes it when the
    hypothesis fails.
    """
    v = params.vertex_count
    d = params.degree
    hypothesis_met = params.n >= 2
    if v > 2 * d + 2:
        return BKBound(False, hypothesis_met, None, None)
    i_max = (2 * d + 2 - v) // 2
    value = d - i_max
    # d - i_max collapses to ceil((|V| - 2) / 2); keep both routes honest.
    assert value == -((v - 2) // -2), "d-i bound disagrees with its ceiling form"
    return BKBound(True, hypothesis_met, i_max, value)


def u_bound(params: KneserParams) -> UBound:
    """Counting bound (|V| + 2(2n+k)) / 3 as an exact rational plus its floor."""
    exact = Fraction(params.vertex_count + 2 * params.ground_size, 3)
    return UBound(exact, math.floor(exact))


def core_bound(params: KneserParams) -> int:
    """The core-avoidance bound: the max over i of
    min(i + C(N-i, n), i + floor((|V|-i)/3)), and for n = 2 also its closed
    form floor(C(N,2)/3) + 1, less one when N = 1, 2, 3 (mod 6) or N = 5.

    On 0 <= i <= N-n the first term never rises and the second never falls,
    and above N-n the first is i, at most the second; so the maximum is at
    their crossing or at i = N, where it is N. A binary search finds the
    least i with first <= second, which exists as i = N-n+1 qualifies.
    """
    ground, n, v = params.ground_size, params.n, params.vertex_count

    def first(i: int) -> int:
        return i + math.comb(ground - i, n)

    def second(i: int) -> int:
        return i + (v - i) // 3

    lo, hi = 0, ground - n + 1
    while lo < hi:
        mid = (lo + hi) // 2
        if first(mid) <= second(mid):
            hi = mid
        else:
            lo = mid + 1
    bound = max(ground, first(lo), second(lo - 1) if lo else 0)
    if n == 2:
        bound = min(bound, v // 3 + (ground % 6 not in (1, 2, 3) and ground != 5))
    return bound


def best_upper_bound(params: KneserParams) -> BoundsReport:
    """All bounds for one instance; its `best` is the least usable one."""
    u = u_bound(params)
    v = params.vertex_count
    ratios = Ratios(
        two_ground_over_v=Fraction(2 * params.ground_size, v),
        degree_over_v=Fraction(params.degree, v),
    )
    return BoundsReport(
        params=params,
        regular_bound=regular_bound(params),
        bk=bk_bound(params),
        u_exact=u.exact,
        u_floor=u.floor,
        ratios=ratios,
    )


def asymptotic_table(n: int, k_min: int, k_max: int) -> list[BoundsReport]:
    """One report per k in [k_min, k_max]; ratios stay exact rationals."""
    if n < 1:
        raise ValueError("n must be positive")
    if k_min < 0 or k_min > k_max:
        raise ValueError("k range must be nonempty and nonnegative")
    return [best_upper_bound(KneserParams(n, k)) for k in range(k_min, k_max + 1)]
