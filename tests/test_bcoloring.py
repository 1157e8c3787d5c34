import json
from fractions import Fraction
from importlib import resources
from itertools import permutations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bkneser import (
    BColoringFailure,
    Coloring,
    KneserParams,
    Graph,
    ProofStep,
    analyze_proof_structure,
    build_graph,
    class_core,
    exact_phi,
    is_b_coloring,
)
from bkneser.bcoloring import ClassAnalysis, _star_parity, class_colors, class_masks
from bkneser.formats import certificate_from_dict, proof_analysis_dict

from oracles import (
    adjacency_sets,
    naive_dominating,
    naive_is_b_coloring,
    naive_is_proper,
    proper_partitions,
)


class TestColoring:
    def test_surjectivity_enforced(self):
        with pytest.raises(ValueError):
            Coloring((0, 2), 3)  # color 1 unused
        with pytest.raises(ValueError):
            Coloring((0, 1), 1)  # color out of range
        with pytest.raises(ValueError):
            Coloring((), 0)

    def test_from_sequence_canonicalizes(self):
        c = Coloring.from_sequence([5, 5, 7, 5])
        assert c.colors == (0, 0, 1, 0)
        assert c.color_count == 2

    def test_class_members(self):
        c = Coloring.from_sequence([0, 1, 0, 2])
        assert c.classes() == ((0, 2), (1,), (3,))

    @given(st.lists(st.integers(min_value=0, max_value=5), min_size=1, max_size=12))
    def test_canonicalization_idempotent(self, labels):
        once = Coloring.from_sequence(labels)
        assert Coloring.from_sequence(once.colors) == once
        # classes are numbered by ascending minimum vertex index
        first_seen = []
        for v, c in enumerate(once.colors):
            if c == len(first_seen):
                first_seen.append(v)
        assert first_seen == sorted(first_seen)

    @given(st.lists(st.integers(min_value=0, max_value=5), min_size=1, max_size=12))
    def test_class_colors_inverts_class_masks(self, labels):
        c = Coloring.from_sequence(labels)
        masks = class_masks(c.colors, c.color_count)
        assert class_colors(masks, len(c)) == list(c.colors)


class TestIsProper:
    """Properness, the first check of is_b_coloring."""

    def test_k3_examples(self, k3):
        verdict = is_b_coloring(k3, Coloring.from_sequence([0, 1, 2]))
        assert verdict.valid and verdict.violating_edge is None
        verdict = is_b_coloring(k3, Coloring.from_sequence([0, 0, 1]))
        assert verdict.reason is BColoringFailure.NOT_PROPER
        assert verdict.violating_edge == (0, 1)

    def test_domain_mismatch(self, k3):
        with pytest.raises(ValueError, match="covers 2 vertices, graph has 3"):
            is_b_coloring(k3, Coloring.from_sequence([0, 1]))

    def test_petersen_three_coloring(self, petersen):
        # every proper 3-coloring passes the properness check, and the first
        # violating edge of any improper one is the lexicographically first
        adj = adjacency_sets(petersen)
        for colors in proper_partitions(adj, 3):
            verdict = is_b_coloring(petersen, Coloring.from_sequence(colors))
            assert verdict.reason is not BColoringFailure.NOT_PROPER
        colors = [0] * 10
        verdict = is_b_coloring(petersen, Coloring.from_sequence(colors))
        first = min((u, v) for u in range(10) for v in adj[u] if u < v)
        assert verdict.violating_edge == first


class TestDominatingVertices:
    """Dominating vertices, as is_b_coloring(..., all_witnesses=True) lists them."""

    def test_complete_graph_all_dominating(self, k3):
        c = Coloring.from_sequence([0, 1, 2])
        verdict = is_b_coloring(k3, c, all_witnesses=True)
        assert verdict.all_witnesses == ((0,), (1,), (2,))

    def test_matching_two_sides(self, matching6):
        # one endpoint of each matching edge per side
        colors = [int(u > w) for u, (w,) in enumerate(adjacency_sets(matching6))]
        c = Coloring.from_sequence(colors)
        verdict = is_b_coloring(matching6, c, all_witnesses=True)
        assert set(verdict.all_witnesses[0]) | set(verdict.all_witnesses[1]) == set(
            range(6)
        )

    def test_petersen_4_3_3_coloring_has_witnesses(self, petersen):
        # among all proper 3-colorings with class sizes 4,3,3 at least one
        # has a dominating vertex in every class; every listed witness
        # agrees with the naive oracle
        adj = adjacency_sets(petersen)
        found = False
        for colors in proper_partitions(adj, 3):
            sizes = sorted(colors.count(c) for c in range(3))
            if sizes != [3, 3, 4]:
                continue
            c = Coloring.from_sequence(colors)
            verdict = is_b_coloring(petersen, c, all_witnesses=True)
            expected = [naive_dominating(adj, c.colors, color) for color in range(3)]
            assert verdict.valid == all(expected)
            if verdict.valid:
                assert [set(w) for w in verdict.all_witnesses] == expected
                found = True
        assert found


class TestIsBColoring:
    def test_k3_valid(self, k3):
        verdict = is_b_coloring(k3, Coloring.from_sequence([0, 1, 2]))
        assert verdict.valid
        assert verdict.witnesses == (0, 1, 2)
        assert bool(verdict)

    def test_k2_two_colors(self):
        g = build_graph(KneserParams(1, 0))
        verdict = is_b_coloring(g, Coloring.from_sequence([0, 1]))
        assert verdict.valid

    def test_not_proper_reason(self, k3):
        verdict = is_b_coloring(k3, Coloring.from_sequence([0, 0, 1]))
        assert not verdict.valid
        assert verdict.reason is BColoringFailure.NOT_PROPER
        assert verdict.violating_edge == (0, 1)

    def test_petersen_no_4_color_b_coloring(self, petersen):
        # verdict must reject every proper 4-coloring for want of witnesses
        adj = adjacency_sets(petersen)
        count = 0
        for colors in proper_partitions(adj, 4):
            verdict = is_b_coloring(petersen, Coloring.from_sequence(colors))
            assert not verdict.valid
            assert verdict.reason is BColoringFailure.MISSING_DOMINATING_VERTEX
            count += 1
        assert count > 0

    def test_all_witnesses_flag(self, matching6):
        colors = [int(u > w) for u, (w,) in enumerate(adjacency_sets(matching6))]
        verdict = is_b_coloring(
            matching6, Coloring.from_sequence(colors), all_witnesses=True
        )
        assert verdict.valid
        assert verdict.all_witnesses is not None
        assert all(len(w) == 3 for w in verdict.all_witnesses)

    def test_valid_implies_proper_exhaustive_small(self, k3):
        # every labelling of K_3 and K_2: valid b-coloring implies proper
        k2 = build_graph(KneserParams(1, 0))
        for graph, n in ((k3, 3), (k2, 2)):
            adj = adjacency_sets(graph)
            for labels in _all_labellings(n):
                verdict = is_b_coloring(graph, Coloring.from_sequence(labels))
                if verdict.valid:
                    assert naive_is_proper(adj, labels)

    def test_verdict_matches_naive_oracle_under_mutation(self, petersen, petersen_exact):
        # recolor any single dominating witness to each alternative color and
        # compare the verdict against the from-scratch naive recomputation
        base = petersen_exact.certificate
        verdict = is_b_coloring(petersen, base, all_witnesses=True)
        assert verdict.valid
        adj = adjacency_sets(petersen)
        for witnesses in verdict.all_witnesses:
            for w in witnesses:
                for new_color in range(base.color_count):
                    if new_color == base.colors[w]:
                        continue
                    mutated = list(base.colors)
                    mutated[w] = new_color
                    c = Coloring.from_sequence(mutated)
                    got = is_b_coloring(petersen, c)
                    assert got.valid == naive_is_b_coloring(adj, list(c.colors))


def _all_labellings(n):
    if n == 0:
        yield []
        return
    for rest in _all_labellings(n - 1):
        for c in range(n):
            yield rest + [c]


class TestClassCore:
    def test_singleton(self):
        assert class_core([0b00011]) == 0b00011

    def test_pairwise(self):
        assert class_core([0b00011, 0b00110]) == 0b00010  # {1,2} & {2,3} = {2}

    def test_triangle_family_has_empty_core(self):
        # minimal witness that a class with empty core needs three members
        members = [0b011, 0b110, 0b101]  # {1,2}, {2,3}, {1,3}
        assert class_core(members) == 0
        assert class_core(members[:2]) != 0

    def test_empty_input_rejected(self):
        with pytest.raises(ValueError):
            class_core([])

    @settings(max_examples=50)
    @given(
        st.lists(
            st.integers(min_value=0, max_value=2**8 - 1), min_size=1, max_size=5
        )
    )
    def test_order_independence(self, members):
        cores = {class_core(perm) for perm in permutations(members)}
        assert len(cores) == 1


class TestAnalyzeProofStructure:
    def test_k3_singletons_tight(self, k3):
        params = KneserParams(1, 1)
        analysis = analyze_proof_structure(
            params, k3, Coloring.from_sequence([0, 1, 2])
        )
        assert analysis.ok
        assert [ca.core for ca in analysis.classes] == [0b001, 0b010, 0b100]
        assert [c["core"] for c in proof_analysis_dict(analysis)["classes"]] == [
            [1],
            [2],
            [3],
        ]
        assert analysis.intersecting_family == (0, 1, 2)
        assert analysis.injection == {0: 1, 1: 2, 2: 3}
        counting = analysis.counting
        assert counting.family_size == 3
        assert counting.class_bound == Fraction(3 + 6, 3)
        assert counting.color_count == 3  # equality case
        assert counting.class_bound_holds and counting.global_bound_holds

    def test_singleton_class_core_is_member(self, petersen, petersen_exact):
        params = KneserParams(2, 1)
        analysis = analyze_proof_structure(
            params, petersen, petersen_exact.certificate
        )
        assert analysis.ok
        assert len(analysis.intersecting_family) <= 5
        for ca in analysis.classes:
            if len(ca.members) == 1:
                assert ca.core == petersen.subsets[ca.members[0]]
                assert ca.color in analysis.intersecting_family
            assert ca.dominating  # valid b-coloring: every class witnessed
            if ca.non_intersecting:
                assert len(ca.members) >= 3

    def test_rejects_non_b_coloring(self, petersen):
        adj = adjacency_sets(petersen)
        colors = next(iter(proper_partitions(adj, 4)))
        with pytest.raises(ValueError, match="not a valid b-coloring"):
            analyze_proof_structure(
                KneserParams(2, 1), petersen, Coloring.from_sequence(colors)
            )

    def test_rejects_foreign_graph(self, k3):
        with pytest.raises(ValueError, match="not generated"):
            analyze_proof_structure(
                KneserParams(2, 1), k3, Coloring.from_sequence([0, 1, 2])
            )

    def test_matching_two_classes(self, matching6):
        result = exact_phi(matching6)
        analysis = analyze_proof_structure(
            KneserParams(2, 0), matching6, result.certificate
        )
        assert analysis.ok
        assert analysis.counting.color_count == 2

    def test_kg82_certificate_fills_the_room_outside_the_cores(self):
        # the cores {5}, {6} and {7,8} leave Y = {1,2,3,4}, and the six
        # triangles' dominators take all C(4, 2) = 6 pairs of it; the stars
        # at 5 and 6 each have two members meeting Y, {1,5}, {4,5} and
        # {2,6}, {3,6}, and the single edge {7,8} goes with |Y| even
        doc = resources.files("bkneser.data").joinpath("kg_2_4_phi9.json").read_text()
        coloring, params, _ = certificate_from_dict(json.loads(doc))
        graph = build_graph(params)
        analysis = analyze_proof_structure(params, graph, coloring)
        assert analysis.ok
        cores = sorted(ca.core for ca in analysis.classes)
        assert cores == [0] * 6 + [0b10000, 0b100000, 0b11000000]
        meeting = [
            sum(1 for v in ca.members if graph.subsets[v] & 0b1111)
            for ca in analysis.classes
            if ca.core.bit_count() == 1
        ]
        assert meeting == [2, 2]

    def test_failures_name_the_shared_core(self, k3):
        # no b-coloring of a Kneser graph fails a step, so the labels are
        # forged: K_3 with the pairwise-meeting cores {1,2,3}, {2,3,4}, {1,3,4}
        forged = Graph(k3.masks, [0b0111, 0b1110, 0b1101], KneserParams(1, 1))
        analysis = analyze_proof_structure(
            KneserParams(1, 1), forged, Coloring.from_sequence([0, 1, 2])
        )
        assert [(f.step, f.detail) for f in analysis.failures] == [
            (ProofStep.CORE_DISJOINTNESS, "cores of classes 0 and 1 share {2,3}"),
            (ProofStep.CORE_DISJOINTNESS, "cores of classes 0 and 2 share {1,3}"),
            (ProofStep.CORE_DISJOINTNESS, "cores of classes 1 and 2 share {3,4}"),
            (
                ProofStep.CORE_AVOIDANCE,
                "dominating vertex 0 of class 0 meets another class's core at {1,2,3}",
            ),
            (
                ProofStep.CORE_AVOIDANCE,
                "dominating vertex 1 of class 1 meets another class's core at {2,3,4}",
            ),
            (
                ProofStep.CORE_AVOIDANCE,
                "dominating vertex 2 of class 2 meets another class's core at {1,3,4}",
            ),
            (ProofStep.INJECTION_INJECTIVE, "core minima collide: [1, 1, 2]"),
        ]

    @pytest.mark.parametrize(
        "subsets,expected",
        [
            (
                [0, 0, 0],
                [
                    (
                        ProofStep.CORE_AVOIDANCE,
                        "3 classes with an empty core exceed C(2, 1) = 2",
                    )
                ]
                + [
                    (
                        ProofStep.NONINTERSECTING_CLASS_SIZE,
                        f"non-intersecting class {c} has only 1 members",
                    )
                    for c in range(3)
                ]
                + [
                    (
                        ProofStep.COUNTING_INEQUALITY,
                        "3 classes exceed (|V|+2|I|)/3 = 1",
                    ),
                    (ProofStep.GLOBAL_UPPER_BOUND, "3 classes exceed (|V|+2N)/3 = 7/3"),
                ],
            ),
            (
                [1, 1, 1],
                [
                    (
                        ProofStep.CORE_DISJOINTNESS,
                        f"cores of classes {a} and {b} share {{1}}",
                    )
                    for a, b in ((0, 1), (0, 2), (1, 2))
                ]
                + [
                    (
                        ProofStep.CORE_AVOIDANCE,
                        f"dominating vertex {c} of class {c} meets another "
                        "class's core at {1}",
                    )
                    for c in range(3)
                ]
                + [
                    (ProofStep.INJECTION_INJECTIVE, "core minima collide: [1, 1, 1]"),
                    (
                        ProofStep.FAMILY_SIZE_BOUND,
                        "3 intersecting classes exceed ground size 2",
                    ),
                    (ProofStep.GLOBAL_UPPER_BOUND, "3 classes exceed (|V|+2N)/3 = 7/3"),
                ],
            ),
        ],
        ids=["empty-cores", "one-shared-core"],
    )
    def test_failures_name_the_counting_steps(self, k3, subsets, expected):
        # forged as above, on K_3 over a ground set of two: empty cores make
        # singleton non-intersecting classes, more than the C(2, 1) subsets
        # outside every core, and three classes exceed both counting bounds;
        # three cores {1} make a family larger than the ground, and each
        # class's witness meets the others' cores
        forged = Graph(k3.masks, subsets, KneserParams(1, 0))
        analysis = analyze_proof_structure(
            KneserParams(1, 0), forged, Coloring.from_sequence([0, 1, 2])
        )
        assert [(f.step, f.detail) for f in analysis.failures] == expected

    def test_core_avoidance_counts_the_room_outside_every_core(self):
        # forged: K_4 over a ground set of four, three classes with an empty
        # core and one with the core {1,2,3}, which leaves Y = {4} room for
        # one empty-core class's dominator
        k4 = build_graph(KneserParams(1, 2))
        forged = Graph(k4.masks, [0, 0, 0, 0b0111], KneserParams(1, 2))
        analysis = analyze_proof_structure(
            KneserParams(1, 2), forged, Coloring.from_sequence([0, 1, 2, 3])
        )
        assert [
            f.detail for f in analysis.failures if f.step is ProofStep.CORE_AVOIDANCE
        ] == ["3 classes with an empty core exceed C(1, 1) = 1"]

    # forged labels of KG(N, 2); in the first three cases on three vertices
    # whose one edge joins 0 and 1, colored [0, 1, 1]: class 0 is vertex 0
    # alone, so its core has two points, and class 1's core is {3}
    @pytest.mark.parametrize(
        "ground,masks,colors,subsets,expected",
        [
            # Y = {4,5}: one member of the star meets it
            (
                5,
                [0b010, 0b001, 0],
                [0, 1, 1],
                [0b00011, 0b01100, 0b00101],
                [(ProofStep.STAR_PARITY, "1 members of class 1 meet Y, |Y| = 2")],
            ),
            # the star's members {1,3} and {2,3} miss Y = {4,5}, so its
            # dominator meets the other core
            (
                5,
                [0b010, 0b001, 0],
                [0, 1, 1],
                [0b00011, 0b00101, 0b00110],
                [
                    (
                        ProofStep.CORE_AVOIDANCE,
                        "dominating vertex 1 of class 1 meets another class's core at {1}",
                    ),
                    (ProofStep.STAR_PARITY, "0 members of class 1 meet Y, |Y| = 2"),
                ],
            ),
            # Y = {4,5,6}: odd, beside a two-point core
            (
                6,
                [0b010, 0b001, 0],
                [0, 1, 1],
                [0b000011, 0b001100, 0b000101],
                [(ProofStep.STAR_PARITY, "class 0 has a two-point core but |Y| = 3 is odd")],
            ),
            # K_2 with the cores {1,2} and {3,4}, which leave Y = {5,6}
            (
                6,
                [0b10, 0b01],
                [0, 1],
                [0b0011, 0b1100],
                [(ProofStep.STAR_PARITY, "classes [0, 1] have two-point cores")],
            ),
        ],
        ids=["star-parity", "star-misses-y", "single-edge", "two-single-edges"],
    )
    def test_star_parity_failures(self, ground, masks, colors, subsets, expected):
        params = KneserParams(2, ground - 4)
        forged = Graph(masks, subsets, params)
        analysis = analyze_proof_structure(params, forged, Coloring.from_sequence(colors))
        assert [(f.step, f.detail) for f in analysis.failures] == expected

    @staticmethod
    def _stars(*stars):
        """ClassAnalysis records of KG(5,2) stars, each given as the pairs of
        points (1-indexed) of its members, with the vertex list they index."""
        subsets, classes = [], []
        for color, pairs in enumerate(stars):
            members = tuple(range(len(subsets), len(subsets) + len(pairs)))
            subsets += [(1 << (a - 1)) | (1 << (b - 1)) for a, b in pairs]
            core = class_core(subsets[v] for v in members)
            classes.append(ClassAnalysis(color, members, core, (), False))
        return classes, subsets

    def test_star_parity_four_stars_with_y_one_point(self):
        # no b-coloring of KG(5,2) has 4 colors, so the records are built by
        # hand: stars at 1, 2, 3 and 4, each with one member meeting
        # Y = {5}, sharing the C(4, 2) = 6 edges inside X. The stars at 3
        # and 4 get one edge inside X each, {3,4} and {1,4}, and {3,4} meets
        # the center 4 and {1,4} the center 1
        classes, subsets = self._stars(
            [(1, 2), (1, 3), (1, 5)],
            [(2, 3), (2, 4), (2, 5)],
            [(3, 4), (3, 5)],
            [(1, 4), (4, 5)],
        )
        assert [(f.step, f.detail) for f in _star_parity(classes, subsets, 0b10000)] == [
            (
                ProofStep.STAR_PARITY,
                "no member of class 2 misses both Y and the core of class 3",
            ),
            (
                ProofStep.STAR_PARITY,
                "no member of class 3 misses both Y and the core of class 0",
            ),
        ]

    def test_star_parity_passes_two_edges_inside_x_per_star(self):
        # the same stars with two edges inside X each, 8 in all: more than
        # X holds, so only records built by hand can have them
        classes, subsets = self._stars(
            [(1, 2), (1, 3), (1, 5)],
            [(2, 3), (2, 4), (2, 5)],
            [(3, 4), (1, 3), (3, 5)],
            [(1, 4), (2, 4), (4, 5)],
        )
        assert _star_parity(classes, subsets, 0b10000) == []

    def test_proof_step_names_are_stable(self):
        assert {s.value for s in ProofStep} == {
            "core_disjointness",
            "core_avoidance",
            "star_parity",
            "injection_injective",
            "family_size_bound",
            "nonintersecting_class_size",
            "counting_inequality",
            "global_upper_bound",
        }


class TestKneserClassesIntersect:
    def test_certificate_classes_are_intersecting_families(self, petersen, petersen_exact):
        # independent sets in a Kneser graph are pairwise-intersecting families
        cert = petersen_exact.certificate
        for members in cert.classes():
            for i, u in enumerate(members):
                for v in members[i + 1 :]:
                    assert petersen.subsets[u] & petersen.subsets[v]
