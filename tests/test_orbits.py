"""The orbit table and its generator: one representative per S_N-orbit,
checked against Burnside's lemma and a backtracking isomorphism test that
share nothing with the generator, and reproduced by regenerating it."""

import os
import random
import subprocess
import sys
from collections import defaultdict
from itertools import combinations, zip_longest
from math import factorial, prod
from pathlib import Path

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from bkneser import KneserParams, build_graph, enumerate_vertices
from bkneser.orbits import (
    TABLED,
    _canonical,
    committed_table,
    generate,
    representatives,
    table_levels,
    table_masks,
)
from bkneser.solver import _seed_tuples

from oracles import isomorphic_families, point_signatures

SRC = str(Path(__file__).resolve().parent.parent / "src")


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


def _point_masks(ground, n, vertices):
    """The point masks of a tuple of vertices of KG(ground, n)."""
    subsets = enumerate_vertices(KneserParams(n, ground - 2 * n))
    return [subsets[v] for v in vertices]


def _points(family):
    return [{p for p in range(mask.bit_length()) if mask >> p & 1} for mask in family]


FAMILIES = sorted(TABLED)


def test_burnside_counts_known_values():
    # graphs on 4 and 5 vertices by edge count (OEIS A008406)
    assert burnside_counts(4, 2) == [1, 1, 2, 3, 2, 1, 1]
    assert burnside_counts(5, 2)[:6] == [1, 1, 2, 4, 6, 6]


def test_table_holds_every_tabled_level():
    table = committed_table()
    assert set(table) == TABLED == {(ground, 2) for ground in range(4, 9)}
    assert sum(len(level) for level in table[8, 2]) == 837
    for ground, n in FAMILIES:
        assert len(table[ground, n]) == table_levels(ground, n)


@pytest.mark.parametrize("ground,n", FAMILIES, ids=str)
def test_level_sizes_are_burnside_counts(ground, n):
    counts = burnside_counts(ground, n)
    for k, level in enumerate(committed_table()[ground, n], start=1):
        assert len(level) == counts[k], k


@pytest.mark.parametrize("ground,n", FAMILIES, ids=str)
def test_representatives_pairwise_non_isomorphic(ground, n):
    # with the Burnside counts this makes them one per orbit
    for k in range(1, table_levels(ground, n) + 1):
        reps = [_point_masks(ground, n, r) for r in representatives(ground, n, k)]
        assert all(len(set(r)) == k for r in reps)
        assert all(m.bit_count() == n and m >> ground == 0 for r in reps for m in r)
        # isomorphic families have equal sorted point signatures
        by_signatures = defaultdict(list)
        for r in reps:
            family = _points(r)
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
    for r in representatives(8, 2, 9)[::15]:
        family = _points(_point_masks(8, 2, r))
        perm = list(range(8))
        rng.shuffle(perm)
        assert isomorphic_families(family, [{perm[p] for p in s} for s in family], 8)


def test_generated_level_sizes_are_burnside_counts():
    # N = 9 is past the committed table, so this checks the generator itself
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


@pytest.mark.parametrize("ground", [4, 5, 6, 7])
def test_regenerating_reproduces_the_table(ground):
    assert table_masks(ground, 2) == [list(lv) for lv in committed_table()[ground, 2]]


def test_untabled_families_have_no_representatives():
    assert representatives(9, 2, 3) is None
    assert representatives(8, 3, 3) is None
    assert representatives(6, 1, 2) is None
    assert representatives(7, 2, 8) is None  # past the best bound, 7


@pytest.mark.parametrize("params", [KneserParams(2, 1), KneserParams(2, 3)], ids=str)
def test_seed_tuples_are_the_representatives(params):
    kg = build_graph(params)
    ground = params.ground_size
    for k in range(1, table_levels(ground, 2) + 1):
        tuples = list(_seed_tuples(kg, k))
        assert all(list(t) == sorted(t) for t in tuples)
        assert tuples == representatives(ground, 2, k)


def test_above_the_table_seeds_every_tuple():
    # an empty tuple list there would refute k unsoundly
    kg = build_graph(KneserParams(2, 3))
    k = table_levels(7, 2) + 1
    assert representatives(7, 2, k) is None
    # all C(21, 8) = 203,490 tuples, compared in step rather than as lists
    pairs = zip_longest(_seed_tuples(kg, k), combinations(range(kg.vertex_count), k))
    assert all(got == expected for got, expected in pairs)


def test_table_loads_only_for_a_tabled_solve():
    # a fresh process: importing, --help and solves of untabled graphs leave
    # the table unread
    probe = (
        "from contextlib import suppress\n"
        "from bkneser import KneserParams, build_graph, exact_phi\n"
        "from bkneser.cli import main\n"
        "from bkneser.orbits import committed_table as t\n"
        "with suppress(SystemExit):\n"
        "    main(['--help'])\n"
        "exact_phi(build_graph(KneserParams(3, 0)))\n"
        "exact_phi(build_graph(KneserParams(1, 3)))\n"
        "assert t.cache_info().currsize == 0\n"
        "exact_phi(build_graph(KneserParams(2, 2)))\n"
        "assert t.cache_info().currsize == 1\n"
    )
    path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    proc = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, env=env
    )
    assert proc.returncode == 0, proc.stderr
