"""Closed-form upper bounds on the b-chromatic number of KG(2n+k, n).

Three bounds are tracked, all in exact arithmetic:

- regular bound d+1, valid for any d-regular graph;
- the d-i bound: if |V| <= 2d+2-2i for an integer i >= 0 then phi <= d-i,
  which simplifies to ceil((|V|-2)/2); stated for n >= 2, so the hypothesis
  flag is tracked separately from the arithmetic condition;
- the counting bound U = (|V| + 2(2n+k))/3, kept as an exact rational whose
  floor is the usable integer bound.
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
    def best(self) -> int:
        """The least usable bound."""
        bounds = (self.regular_bound, self.u_floor, self.bk_value)
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
