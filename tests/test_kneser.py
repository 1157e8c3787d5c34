from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bkneser import (
    InstanceTooLarge,
    KneserParams,
    VertexSubset,
    are_adjacent,
    binomial,
    build_graph,
    degree_regularity,
    enumerate_vertices,
)

from oracles import kneser_edges, kneser_vertices


@pytest.mark.parametrize(
    "a,b,expected",
    [
        (5, 2, 10),
        (7, 0, 1),
        (14, 2, 14 * 13 // 2),  # = 91
        (6, 7, 0),
        (0, 0, 1),
    ],
)
def test_binomial_values(a, b, expected):
    assert binomial(a, b) == expected


def test_binomial_rejects_negative():
    with pytest.raises(ValueError):
        binomial(-1, 2)
    with pytest.raises(ValueError):
        binomial(3, -2)


def test_binomial_exact_at_width():
    # exceeds 64-bit range; must stay exact
    assert binomial(64, 32) == 1832624140942590534


class TestVertexSubset:
    def test_from_elements_roundtrip(self):
        s = VertexSubset.from_elements([3, 1], 5)
        assert s.elements() == (1, 3)
        assert s.bits == 0b101
        assert 1 in s and 3 in s and 2 not in s

    def test_min_element(self):
        assert VertexSubset.from_elements([4, 2], 6).min_element() == 2
        with pytest.raises(ValueError):
            VertexSubset(0, 4).min_element()

    def test_bits_must_fit_ground_set(self):
        with pytest.raises(ValueError):
            VertexSubset(0b1000, 3)
        with pytest.raises(ValueError):
            VertexSubset.from_elements([4], 3)

    def test_str(self):
        assert str(VertexSubset.from_elements([1, 2], 5)) == "{1,2}"


class TestKneserParams:
    def test_derived_quantities(self):
        p = KneserParams(2, 1)
        assert (p.ground_size, p.vertex_count, p.degree) == (5, 10, 3)

    def test_validation(self):
        with pytest.raises(ValueError):
            KneserParams(0, 1)
        with pytest.raises(ValueError):
            KneserParams(1, -1)

    def test_from_ground_set(self):
        assert KneserParams.from_ground_set(5, 2) == KneserParams(2, 1)
        assert KneserParams.from_ground_set(4, 2) == KneserParams(2, 0)
        with pytest.raises(ValueError):
            KneserParams.from_ground_set(3, 2)  # N < 2m is edgeless


class TestEnumerateVertices:
    def test_singletons(self):
        verts = enumerate_vertices(KneserParams(1, 1))
        assert [v.elements() for v in verts] == [(1,), (2,), (3,)]

    def test_kg52_order_and_extremes(self):
        verts = enumerate_vertices(KneserParams(2, 1))
        assert len(verts) == 10
        assert verts[0].elements() == (1, 2)
        assert verts[-1].elements() == (4, 5)
        # full order agrees with the independent bitmask-sorted enumeration
        expected = [tuple(sorted(s)) for s in kneser_vertices(5, 2)]
        assert [v.elements() for v in verts] == expected

    def test_kg42_count(self):
        assert len(enumerate_vertices(KneserParams(2, 0))) == 6

    def test_deterministic(self):
        p = KneserParams(3, 2)
        assert enumerate_vertices(p) == enumerate_vertices(p)

    def test_cap(self):
        # KG(30,10) is rejected from its vertex count, before enumeration
        with pytest.raises(
            InstanceTooLarge, match="30045015 vertices exceed the enumeration cap 1000000"
        ):
            enumerate_vertices(KneserParams(10, 10))

    def test_ground_set_width_limit(self):
        with pytest.raises(InstanceTooLarge):
            enumerate_vertices(KneserParams(1, 63))  # ground set 65

    @given(st.integers(min_value=1, max_value=4), st.integers(min_value=0, max_value=4))
    def test_matches_combinations_oracle(self, n, k):
        verts = enumerate_vertices(KneserParams(n, k))
        ground = 2 * n + k
        expected = sorted(
            combinations(range(1, ground + 1), n),
            key=lambda c: sum(1 << (e - 1) for e in c),
        )
        assert [v.elements() for v in verts] == [tuple(c) for c in expected]


class TestAdjacency:
    def test_examples(self):
        a = VertexSubset.from_elements([1, 2], 5)
        b = VertexSubset.from_elements([3, 4], 5)
        c = VertexSubset.from_elements([2, 3], 5)
        assert are_adjacent(a, b)
        assert not are_adjacent(a, c)
        s = VertexSubset.from_elements([1], 3)
        assert not are_adjacent(s, s)  # irreflexive

    def test_ground_set_mismatch(self):
        with pytest.raises(ValueError):
            are_adjacent(
                VertexSubset.from_elements([1], 3),
                VertexSubset.from_elements([1], 4),
            )

    @given(
        st.integers(min_value=2, max_value=16).flatmap(
            lambda ground: st.tuples(
                st.integers(min_value=0, max_value=2**ground - 1),
                st.integers(min_value=0, max_value=2**ground - 1),
                st.just(ground),
            )
        )
    )
    def test_symmetry_and_set_semantics(self, triple):
        bits_a, bits_b, ground = triple
        a = VertexSubset(bits_a, ground)
        b = VertexSubset(bits_b, ground)
        assert are_adjacent(a, b) == are_adjacent(b, a)
        assert are_adjacent(a, b) == (not set(a.elements()) & set(b.elements()))


class TestBuildGraph:
    def test_k3(self, k3):
        assert (k3.vertex_count, k3.edge_count) == (3, 3)
        assert set(k3.degrees()) == {2}

    def test_petersen(self, petersen):
        assert (petersen.vertex_count, petersen.edge_count) == (10, 15)
        assert set(petersen.degrees()) == {3}
        # edge set equals the brute-force disjointness oracle
        expected = kneser_edges(kneser_vertices(5, 2))
        assert set(petersen.edges()) == expected

    def test_perfect_matching(self, matching6):
        assert (matching6.vertex_count, matching6.edge_count) == (6, 3)
        assert set(matching6.degrees()) == {1}
        # each edge joins complementary pairs
        for u, v in matching6.edges():
            a, b = matching6.subsets[u], matching6.subsets[v]
            assert set(a.elements()) | set(b.elements()) == {1, 2, 3, 4}

    def test_cap_propagates(self):
        with pytest.raises(InstanceTooLarge, match="too large"):
            build_graph(KneserParams(10, 10))  # KG(30,10), over the cap

    @pytest.mark.parametrize("n", range(1, 7))
    def test_regularity_and_symmetry_scan(self, n):
        # all (n, k) with k <= 8 whose graphs stay desk-sized
        for k in range(0, 9):
            params = KneserParams(n, k)
            if params.vertex_count > 5000:
                continue
            g = build_graph(params)
            d = degree_regularity(params)
            assert g.vertex_count == params.vertex_count
            assert all(g.degree(v) == d for v in range(g.vertex_count))
            for v in range(g.vertex_count):
                for u in g.neighbors(v):
                    assert g.has_edge(u, v)
                    assert u != v
            if g.vertex_count > 1000:
                continue  # the every-pair checks below are quadratic
            bits = [s.bits for s in g.subsets]
            for u, a in enumerate(bits):
                assert [g.has_edge(u, v) for v in range(len(bits))] == [
                    not a & b for b in bits
                ]
            reference = kneser_edges(kneser_vertices(params.ground_size, n))
            assert list(g.edges()) == sorted(reference)

    def test_larger_spot_checks(self):
        # complete graph K_64 (boundary ground set) and a 560-vertex instance
        g1 = build_graph(KneserParams(1, 62))
        assert g1.vertex_count == 64
        assert set(g1.degrees()) == {63}
        params = KneserParams(3, 10)
        g2 = build_graph(params)
        assert g2.vertex_count == 560
        assert set(g2.degrees()) == {degree_regularity(params)}

    def test_enumeration_at_word_boundary(self):
        # ground set exactly 64: enumeration works, stays sorted by bitmask
        verts = enumerate_vertices(KneserParams(2, 60))
        assert len(verts) == 2016
        assert all(v.size() == 2 for v in verts)
        assert all(a.bits < b.bits for a, b in zip(verts, verts[1:]))


@pytest.mark.parametrize(
    "params,expected",
    [
        (KneserParams(2, 1), 3),
        (KneserParams(2, 0), 1),
        (KneserParams(2, 10), 66),
        (KneserParams(3, 1), 4),
    ],
)
def test_degree_regularity(params, expected):
    assert degree_regularity(params) == expected


def test_graph_rejects_asymmetric_adjacency():
    from bkneser import Graph

    with pytest.raises(ValueError, match="symmetric"):
        Graph([[1], []])
    with pytest.raises(ValueError, match="self-loop"):
        Graph([[0]])
    with pytest.raises(ValueError, match="out of range"):
        Graph([[1], [0, 2]])
    with pytest.raises(ValueError, match="out of range"):
        Graph([[-1], []])
    with pytest.raises(ValueError, match="out of range"):
        Graph.from_edges(2, [(0, 2)])
    with pytest.raises(ValueError, match="out of range"):
        Graph.from_edges(2, [(-1, 1)])


@settings(max_examples=30)
@given(st.integers(min_value=1, max_value=3), st.integers(min_value=0, max_value=3))
def test_bound_quantities_invariant_under_ground_set_mapping(n, k):
    direct = KneserParams(n, k)
    mapped = KneserParams.from_ground_set(direct.ground_size, n)
    assert mapped == direct
    assert mapped.vertex_count == direct.vertex_count
    assert mapped.degree == direct.degree
