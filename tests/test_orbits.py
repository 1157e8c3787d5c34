"""The seed-tuple filter of `solver` against the orbits of the ground set's
symmetric group. The canonical forms of the tuples it keeps are the
representatives that the generator of `oracles` lists, one per orbit, and
that generator is checked against Burnside's lemma and a backtracking
isomorphism test that share nothing with it. A check over all permutations,
which uses neither, finds a kept member in every orbit."""

import random
from collections import defaultdict
from functools import cache
from itertools import combinations, permutations
from math import factorial, prod

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from bkneser import KneserParams, best_upper_bound, build_graph
from bkneser.solver import _canonically_ordered

from oracles import _canonical, generate, isomorphic_families, point_signatures


def _partitions(total, largest=None):
    """The partitions of `total` into parts of at most `largest`."""
    largest = total if largest is None else largest
    if total == 0:
        yield ()
        return
    for part in range(min(total, largest), 0, -1):
        for rest in _partitions(total - part, part):
            yield (part, *rest)


def burnside_counts(ground, n):
    """counts[k]: the number of S_ground-orbits of k-sets of n-subsets of
    range(ground), by Burnside's lemma over the cycle types of S_ground. A
    permutation fixes a k-set iff the k-set is a union of cycles of its
    action on n-subsets, so it fixes as many as the x^k coefficient of the
    product of (1 + x^length) over those cycles."""
    subsets = [frozenset(c) for c in combinations(range(ground), n)]
    total = [0] * (len(subsets) + 1)
    for cycle_type in _partitions(ground):
        perm, start = {}, 0
        for length in cycle_type:
            for i in range(length):
                perm[start + i] = start + (i + 1) % length
            start += length
        mult = [cycle_type.count(m) for m in range(ground + 1)]
        class_size = factorial(ground) // prod(
            m ** c * factorial(c) for m, c in enumerate(mult) if c
        )
        fixed = [1] + [0] * len(subsets)
        seen = set()
        for s in subsets:
            length = 0
            while s not in seen:
                seen.add(s)
                s = frozenset(perm[p] for p in s)
                length += 1
            if length:
                fixed = [
                    c + (fixed[i - length] if i >= length else 0)
                    for i, c in enumerate(fixed)
                ]
        total = [t + class_size * f for t, f in zip(total, fixed)]
    assert all(t % factorial(ground) == 0 for t in total)
    return [t // factorial(ground) for t in total]


def _points(family):
    return [{p for p in range(mask.bit_length()) if mask >> p & 1} for mask in family]


# the families whose levels up to the best bound the package once
# committed as its table of seed tuples
FAMILIES = [(ground, 2) for ground in range(4, 9)]


def _top(ground, n):
    """The best closed-form bound on phi(KG(ground, n)): the top k that
    exact_phi tests."""
    return best_upper_bound(KneserParams(n, ground - 2 * n)).best


@cache
def _levels(ground, n, top_level):
    return generate(ground, n, top_level)


def test_burnside_counts_known_values():
    # graphs on 4 and 5 vertices by edge count (OEIS A008406)
    assert burnside_counts(4, 2) == [1, 1, 2, 3, 2, 1, 1]
    assert burnside_counts(5, 2)[:6] == [1, 1, 2, 4, 6, 6]


@pytest.mark.parametrize("ground,n", FAMILIES, ids=str)
def test_level_sizes_are_burnside_counts(ground, n):
    counts = burnside_counts(ground, n)
    for k, level in enumerate(_levels(ground, n, _top(ground, n)), start=1):
        assert len(level) == counts[k], k


@pytest.mark.parametrize("ground,n", FAMILIES, ids=str)
def test_representatives_pairwise_non_isomorphic(ground, n):
    # with the Burnside counts this makes them one per orbit
    for k, level in enumerate(_levels(ground, n, _top(ground, n)), start=1):
        assert all(len(set(form)) == k for form in level)
        assert all(m.bit_count() == n and m >> ground == 0 for f in level for m in f)
        # isomorphic families have equal sorted point signatures
        by_signatures = defaultdict(list)
        for form in level:
            family = _points(form)
            by_signatures[tuple(sorted(point_signatures(family, ground)))].append(family)
        for group in by_signatures.values():
            for a, b in combinations(group, 2):
                assert not isomorphic_families(a, b, ground), (k, a, b)


def test_isomorphism_oracle():
    path = [{0, 1}, {1, 2}, {2, 3}]
    assert isomorphic_families(path, [{3, 0}, {0, 2}, {2, 1}], 4)
    assert not isomorphic_families(path, [{0, 1}, {0, 2}, {0, 3}], 4)  # star
    assert not isomorphic_families([{0, 1}, {2, 3}], [{0, 1}, {1, 2}], 4)
    # every relabeling of a family is found isomorphic to it
    rng = random.Random(7)
    for form in _levels(8, 2, _top(8, 2))[-1][::15]:
        family = _points(form)
        perm = list(range(8))
        rng.shuffle(perm)
        assert isomorphic_families(family, [{perm[p] for p in s} for s in family], 8)


def test_generated_level_sizes_are_burnside_counts():
    # N = 9, past the families above
    levels = generate(9, 2, 8)
    assert [len(level) for level in levels] == burnside_counts(9, 2)[1:9]


_NINE_POINT_FAMILIES = st.sampled_from([2, 3]).flatmap(
    lambda n: st.sets(
        st.sampled_from([sum(1 << p for p in c) for c in combinations(range(9), n)]),
        max_size=16,
    )
)


@given(_NINE_POINT_FAMILIES, st.permutations(range(9)))
# a triangle and a hexagon: refinement splits no cell, and the relabeling
# moves point 0 from the triangle to the hexagon
@example(
    {0b11, 0b110, 0b101} | {1 << (3 + i) | 1 << (3 + (i + 1) % 6) for i in range(6)},
    [(p + 3) % 9 for p in range(9)],
)
def test_relabelings_share_one_canonical_form(family, perm):
    relabeled = {sum(1 << perm[p] for p in range(9) if m >> p & 1) for m in family}
    form = _canonical(tuple(sorted(family)), 9)
    assert _canonical(tuple(sorted(relabeled)), 9) == form
    # a form is a member of its own orbit, so it is its own form
    assert len(form) == len(family)
    assert _canonical(form, 9) == form


def _kept(kg, k):
    """The k-sets of vertices of a Kneser graph that the filter keeps, out of
    all of them: `_seed_tuples` filters the k-sets of the vertices of degree
    >= k-1, on a regular graph all of them up to k = d+1 and none above."""
    every = combinations(range(kg.vertex_count), k)
    return list(_canonically_ordered(every, kg.subsets, kg.params.ground_size, None))


# each graph at every k, or up to the k where its check takes about a second
FILTERED = {
    KneserParams(2, 0): 6,
    KneserParams(2, 1): 10,
    KneserParams(2, 2): 15,
    KneserParams(2, 3): 8,
    KneserParams(3, 0): 6,
}


@pytest.mark.parametrize("params", list(FILTERED), ids=str)
def test_seed_tuples_are_the_representatives(params):
    # the kept k-sets meet exactly the orbits the generator lists, so
    # refuting them refutes k
    kg = build_graph(params)
    ground = params.ground_size
    for k, level in enumerate(_levels(ground, params.n, FILTERED[params]), start=1):
        family = lambda t: tuple(sorted(kg.subsets[v] for v in t))
        forms = {_canonical(family(t), ground) for t in _kept(kg, k)}
        assert sorted(forms) == level, k


def test_every_orbit_keeps_a_member_under_all_permutations():
    # Petersen at every k: each k-set of vertices has a relabeling of the
    # five points that the filter keeps
    kg = build_graph(KneserParams(2, 1))
    vertex = {m: v for v, m in enumerate(kg.subsets)}
    relabel = [
        [vertex[sum(1 << perm[p] for p in range(5) if m >> p & 1)] for m in kg.subsets]
        for perm in permutations(range(5))
    ]
    for k in range(1, kg.vertex_count + 1):
        kept = set(_kept(kg, k))
        for members in combinations(range(kg.vertex_count), k):
            assert any(
                tuple(sorted(image[v] for v in members)) in kept for image in relabel
            ), (k, members)
