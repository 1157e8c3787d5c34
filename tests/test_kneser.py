import json
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bkneser import (
    Graph,
    InstanceTooLarge,
    KneserParams,
    build_graph,
    enumerate_vertices,
)
from bkneser.cli import main
from bkneser.kneser import bit_indices

from oracles import kneser_edges, kneser_vertices


def _elements(mask):
    return tuple(i + 1 for i in bit_indices(mask))


def test_binomial_exact_at_width():
    # C(64, 32) exceeds the 64-bit range; the vertex count must stay exact
    assert KneserParams(32, 0).vertex_count == 1832624140942590534


class TestKneserParams:
    def test_derived_quantities(self):
        p = KneserParams(2, 1)
        assert (p.ground_size, p.vertex_count, p.degree) == (5, 10, 3)

    def test_validation(self):
        with pytest.raises(ValueError):
            KneserParams(0, 1)
        with pytest.raises(ValueError):
            KneserParams(1, -1)


class TestEnumerateVertices:
    def test_singletons(self):
        verts = enumerate_vertices(KneserParams(1, 1))
        assert [_elements(v) for v in verts] == [(1,), (2,), (3,)]

    def test_kg52_order_and_extremes(self):
        verts = enumerate_vertices(KneserParams(2, 1))
        assert len(verts) == 10
        assert verts[0] == 0b11
        assert verts[-1] == 0b11000
        # full order agrees with the independent bitmask-sorted enumeration
        expected = [tuple(sorted(s)) for s in kneser_vertices(5, 2)]
        assert [_elements(v) for v in verts] == expected

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

    def test_ground_set_wider_than_a_word(self, tmp_path, capsys):
        # vertices are Python ints: K_65 (ground set 65) solves, and KG(120,40)
        # is refused for its vertex count, not for its ground set
        cert = str(tmp_path / "c.json")
        assert main(["solve", "1", "63", "--format", "json", "--cert", cert]) == 0
        assert json.loads(capsys.readouterr().out)["phi"] == 65
        assert main(["gen", "40", "40", "--out", str(tmp_path / "g.col")]) == 2
        assert "exceed the enumeration cap 1000000" in capsys.readouterr().err

    @given(st.integers(min_value=1, max_value=4), st.integers(min_value=0, max_value=4))
    def test_matches_combinations_oracle(self, n, k):
        verts = enumerate_vertices(KneserParams(n, k))
        ground = 2 * n + k
        expected = sorted(
            combinations(range(1, ground + 1), n),
            key=lambda c: sum(1 << (e - 1) for e in c),
        )
        assert [_elements(v) for v in verts] == [tuple(c) for c in expected]


class TestAdjacency:
    def test_examples(self, petersen):
        index = {s: v for v, s in enumerate(petersen.subsets)}
        a, b, c = index[0b00011], index[0b01100], index[0b00110]  # 12, 34, 23
        assert petersen.masks[a] >> b & 1
        assert not petersen.masks[a] >> c & 1
        # irreflexive
        assert not any(m >> v & 1 for v, m in enumerate(petersen.masks))

    @settings(max_examples=30)
    @given(st.integers(min_value=1, max_value=3), st.integers(min_value=0, max_value=4))
    def test_symmetry_and_set_semantics(self, n, k):
        g = build_graph(KneserParams(n, k))
        sets = [set(_elements(a)) for a in g.subsets]
        for u, (a, mu) in enumerate(zip(sets, g.masks)):
            for v, (b, mv) in enumerate(zip(sets, g.masks)):
                assert mu >> v & 1 == mv >> u & 1
                assert bool(mu >> v & 1) == (not a & b)


class TestBuildGraph:
    def test_k3(self, k3):
        assert (k3.vertex_count, k3.edge_count) == (3, 3)
        assert set(k3.degrees()) == {2}

    def test_petersen(self, petersen):
        assert (petersen.vertex_count, petersen.edge_count) == (10, 15)
        assert set(petersen.degrees()) == {3}
        # edge set equals the brute-force disjointness oracle
        expected = kneser_edges(kneser_vertices(5, 2))
        assert petersen.masks == Graph.from_edges(10, expected).masks

    def test_perfect_matching(self, matching6):
        assert (matching6.vertex_count, matching6.edge_count) == (6, 3)
        assert set(matching6.degrees()) == {1}
        # each edge joins complementary pairs
        for u, m in enumerate(matching6.masks):
            for v in bit_indices(m):
                assert matching6.subsets[u] | matching6.subsets[v] == 0b1111

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
            assert g.vertex_count == params.vertex_count
            assert set(g.degrees()) == {params.degree}
            for v, m in enumerate(g.masks):
                assert not m >> v & 1
                for u in bit_indices(m):
                    assert g.masks[u] >> v & 1
            if g.vertex_count > 1000:
                continue  # the every-pair checks below are quadratic
            for u, a in enumerate(g.subsets):
                assert [bool(g.masks[u] >> v & 1) for v in range(g.vertex_count)] == [
                    not a & b for b in g.subsets
                ]
            reference = kneser_edges(kneser_vertices(params.ground_size, n))
            assert g.masks == Graph.from_edges(g.vertex_count, reference).masks

    def test_larger_spot_checks(self):
        # complete graph K_64 and a 560-vertex instance
        g1 = build_graph(KneserParams(1, 62))
        assert g1.vertex_count == 64
        assert set(g1.degrees()) == {63}
        params = KneserParams(3, 10)
        g2 = build_graph(params)
        assert g2.vertex_count == 560
        assert set(g2.degrees()) == {params.degree}

    def test_enumeration_at_word_boundary(self):
        # ground set 64: enumeration stays sorted by bitmask
        verts = enumerate_vertices(KneserParams(2, 60))
        assert len(verts) == 2016
        assert all(v.bit_count() == 2 for v in verts)
        assert all(a < b for a, b in zip(verts, verts[1:]))


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
    assert params.degree == expected


def test_from_edges_rejects_bad_edges():
    with pytest.raises(ValueError, match="self-loop"):
        Graph.from_edges(2, [(1, 1)])
    with pytest.raises(ValueError, match="out of range"):
        Graph.from_edges(2, [(0, 2)])
    with pytest.raises(ValueError, match="out of range"):
        Graph.from_edges(2, [(-1, 1)])
    assert Graph.from_edges(3, [(0, 1), (2, 1)]).masks == (0b010, 0b101, 0b010)


def test_subset_labels_must_match_the_vertex_count():
    with pytest.raises(ValueError, match="^subset labels do not match vertex count$"):
        Graph([0b10, 0b01], [0b011])
