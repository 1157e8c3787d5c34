import json
from importlib import resources
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bkneser import (
    Budget,
    BudgetExceeded,
    Graph,
    InstanceTooLarge,
    KneserParams,
    best_upper_bound,
    brute_force_phi,
    build_graph,
    degree_bound,
    exact_phi,
    feasible_b_coloring,
    heuristic_b_coloring,
    is_b_coloring,
)

from oracles import adjacency_sets, naive_feasible_k, naive_phi
from bkneser.reproduce import erdos_renyi_graph
from bkneser.formats import certificate_from_dict
from bkneser.solver import (
    _BudgetTracker,
    _eliminate_undominated,
    _greedy_proper,
    _seed_tuples,
    _seeded_greedy,
    phi_upper_bound,
)

# Kneser instances whose unreduced search settles every k within seconds:
# KG(k+2, 1) = K_{k+2}, KG(4,2), KG(5,2), KG(6,2), KG(6,3) and KG(7,3).
SMALL_KNESER = [KneserParams(1, k) for k in range(5)] + [
    KneserParams(2, 0),
    KneserParams(2, 1),
    KneserParams(2, 2),
    KneserParams(3, 0),
    KneserParams(3, 1),
]


def _stripped(g):
    """The same graph without its Kneser labels: the unreduced search."""
    return Graph.from_edges(g.vertex_count, g.edges())


class TestDegreeBound:
    def test_regular_graphs_give_d_plus_1(self, k3, petersen, matching6):
        assert degree_bound(k3) == 3
        assert degree_bound(petersen) == 4
        assert degree_bound(matching6) == 2

    def test_single_vertex(self):
        assert degree_bound(Graph([[]])) == 1

    def test_star(self):
        # star K_{1,4}: one vertex of degree 4, leaves of degree 1 -> m = 2
        star = Graph.from_edges(5, [(0, i) for i in range(1, 5)])
        assert degree_bound(star) == 2


class TestBruteForce:
    def test_k3(self, k3):
        assert brute_force_phi(k3).phi == 3

    def test_matching(self, matching6):
        result = brute_force_phi(matching6)
        assert result.phi == 2
        assert result.infeasible_at == ()  # ub is already 2

    def test_petersen(self, petersen_brute):
        assert petersen_brute.phi == 3
        assert petersen_brute.infeasible_at == (4,)
        assert petersen_brute.exact
        assert petersen_brute.stats.mode == "brute"

    def test_certificate_verifies(self, petersen, petersen_brute):
        assert is_b_coloring(petersen, petersen_brute.certificate).valid

    def test_cap(self):
        g = Graph.from_edges(13, [(i, i + 1) for i in range(12)])
        with pytest.raises(InstanceTooLarge):
            brute_force_phi(g)
        assert brute_force_phi(g, cap=13).phi >= 2

    def test_empty_graph_rejected(self):
        with pytest.raises(ValueError):
            brute_force_phi(Graph([]))

    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("p", [0.2, 0.5, 0.8])
    def test_matches_naive_enumeration(self, seed, p):
        g = erdos_renyi_graph(6, p, 9000 + seed)
        expected, _ = naive_phi(adjacency_sets(g))
        assert brute_force_phi(g).phi == expected

    def test_matches_naive_on_kneser(self, k3, matching6):
        for g in (k3, matching6):
            expected, _ = naive_phi(adjacency_sets(g))
            assert brute_force_phi(g).phi == expected


class TestFeasible:
    def test_k3_three_colors(self, k3):
        cert = feasible_b_coloring(k3, 3)
        assert cert is not None
        assert cert.color_count == 3
        assert is_b_coloring(k3, cert).valid

    def test_petersen_four_infeasible(self, petersen):
        assert feasible_b_coloring(petersen, 4) is None

    def test_matching_three_infeasible(self, matching6):
        # 1-regular: nobody can see two other colors
        assert feasible_b_coloring(matching6, 3) is None

    def test_range_validation(self, k3):
        with pytest.raises(ValueError):
            feasible_b_coloring(k3, 0)
        with pytest.raises(ValueError):
            feasible_b_coloring(k3, 4)

    def test_budget_exhaustion_distinct_from_infeasible(self, petersen):
        with pytest.raises(BudgetExceeded) as info:
            feasible_b_coloring(petersen, 3, budget=Budget(max_nodes=1))
        assert info.value.tested_k == 3

    def test_single_class_on_edgeless_graph(self):
        g = Graph([[], [], []])
        cert = feasible_b_coloring(g, 1)
        assert cert is not None
        assert cert.color_count == 1

    def test_single_class_rejected_when_edges_exist(self, k3):
        assert feasible_b_coloring(k3, 1) is None

    @pytest.mark.parametrize("p", [0.2, 0.5, 0.8])
    def test_per_k_feasibility_matches_naive_enumeration(self, p):
        # stronger than phi equality: agree on every color count separately,
        # including any gaps in the feasible set
        for seed in range(8):
            g = erdos_renyi_graph(7, p, 8200 + seed)
            adj = adjacency_sets(g)
            for k in range(1, g.vertex_count + 1):
                got = feasible_b_coloring(g, k)
                expected = naive_feasible_k(adj, k)
                assert (got is not None) == expected, (seed, k)
                if got is not None:
                    assert got.color_count == k
                    assert is_b_coloring(g, got).valid


class TestKneserReduction:
    @settings(max_examples=30, deadline=None)
    @given(st.sampled_from(SMALL_KNESER))
    def test_reduced_matches_unreduced(self, params):
        kg = build_graph(params)
        plain = _stripped(kg)
        ub = min(degree_bound(kg), best_upper_bound(params).best)
        for m in range(1, ub + 1):
            reduced = feasible_b_coloring(kg, m)
            assert (reduced is None) == (feasible_b_coloring(plain, m) is None), m
            if reduced is not None:
                assert is_b_coloring(kg, reduced).valid

    # Kneser graphs outside the orbit table: KG(6,3), KG(7,3) and K_5
    @pytest.mark.parametrize(
        "params", [KneserParams(3, 0), KneserParams(3, 1), KneserParams(1, 3)]
    )
    def test_seed_tuples_follow_definition(self, params):
        # kept: 0 and r_t for the least intersection size t of the others,
        # listed in the lexicographic order of the unreduced search
        kg = build_graph(params)
        base = kg.subsets[0].bits
        meet = [(s.bits & base).bit_count() for s in kg.subsets]
        first = {}
        for v in range(kg.vertex_count - 1, 0, -1):
            first[meet[v]] = v
        for m in range(1, kg.degree(0) + 2):
            expected = [
                c
                for c in combinations(range(kg.vertex_count), m)
                if c[0] == 0 and (m == 1 or first[min(meet[v] for v in c[1:])] in c)
            ]
            assert list(_seed_tuples(kg, m)) == expected, m
        assert list(_seed_tuples(kg, kg.degree(0) + 2)) == []
        assert list(_seed_tuples(_stripped(kg), 2)) == list(
            combinations(range(kg.vertex_count), 2)
        )

    def test_reduction_halves_refutation_nodes(self):
        kg = build_graph(KneserParams(2, 2))  # KG(6,2): 7 colors are refuted
        nodes = []
        for g in (kg, _stripped(kg)):
            tracker = _BudgetTracker(Budget())
            assert feasible_b_coloring(g, 7, _tracker=tracker) is None
            nodes.append(tracker.nodes)
        # one seed tuple per orbit, against every 7-subset of the vertices
        assert nodes == [352, 43_148]

    def test_exact_matches_oracle_on_kg62(self, kg62, kg62_brute):
        exact, brute = exact_phi(kg62), kg62_brute
        assert exact.phi == brute.phi == 6
        assert exact.infeasible_at == brute.infeasible_at == (7,)

    def test_committed_kg72_certificate(self):
        coloring, params, claimed = _committed("kg_2_3_phi7.json")
        assert params == KneserParams(2, 3) and claimed
        assert coloring.color_count == 7
        assert is_b_coloring(build_graph(params), coloring).valid

    def test_committed_kg82_certificate(self):
        coloring, params, claimed = _committed("kg_2_4_phi9.json")
        assert params == KneserParams(2, 4) and claimed
        assert coloring.color_count == 9
        assert is_b_coloring(build_graph(params), coloring).valid


def _committed(name):
    doc = resources.files("bkneser.data").joinpath(name).read_text()
    return certificate_from_dict(json.loads(doc))


def _digits(text):
    return tuple(int(c) for c in text)


class TestPinnedOutputs:
    """Outputs of both exhaustive loops: a faster node must keep every
    decision, so phi, infeasible_at, node counts and certificates stay
    exactly these. The exact search's counts also pin its seed tuples."""

    BRUTE = {
        "petersen": (3, (4,), 771, "0001112221"),
        "kg62": (6, (7,), 485_878, "000112342234553"),
        (0.3, 1): (5, (), 51_279, "01001203341422"),
        (0.5, 2): (5, (6,), 128_748, "00111002342113"),
        (0.7, 3): (8, (9,), 7_967, "01234562057046"),
    }

    @pytest.mark.parametrize("name", list(BRUTE), ids=str)
    def test_brute_force(self, name, petersen, kg62_brute):
        if name == "petersen":
            result = brute_force_phi(petersen, cap=15)
        elif name == "kg62":
            result = kg62_brute
        else:
            result = brute_force_phi(erdos_renyi_graph(14, *name), cap=15)
        phi, infeasible_at, nodes, colors = self.BRUTE[name]
        assert result.phi == phi
        assert result.infeasible_at == infeasible_at
        assert result.stats.nodes_explored == nodes
        assert result.certificate.colors == _digits(colors)

    def test_exact_kg62(self, kg62):
        result = exact_phi(kg62)
        assert (result.phi, result.infeasible_at) == (6, (7,))
        assert result.stats.nodes_explored == 458
        assert result.certificate.colors == _digits("012322141300554")

    def test_exact_kg72_within_30000_nodes(self):
        budget = Budget(max_nodes=30_000)
        result = exact_phi(build_graph(KneserParams(2, 3)), budget=budget)
        assert (result.phi, result.infeasible_at) == (7, (8, 9, 10))
        assert result.stats.nodes_explored == 12_439
        assert result.certificate == _committed("kg_2_3_phi7.json")[0]

    def test_exact_kg82(self):
        result = exact_phi(build_graph(KneserParams(2, 4)))
        assert (result.phi, result.infeasible_at) == (9, (10, 11, 12, 13))
        assert result.stats.nodes_explored == 455_949
        assert result.certificate == _committed("kg_2_4_phi9.json")[0]

    def test_budget_bracket_kg82(self):
        with pytest.raises(BudgetExceeded) as info:
            exact_phi(build_graph(KneserParams(2, 4)), budget=Budget(max_nodes=30_000))
        exc = info.value
        assert (exc.tested_k, exc.lower_bound, exc.upper_bound) == (13, 6, 13)
        assert exc.nodes_explored == 30_001
        assert exc.certificate.colors == _digits("0001112221333124441235551234")


class TestExactPhi:
    def test_petersen(self, petersen_exact, petersen_brute):
        assert petersen_exact.phi == 3 == petersen_brute.phi
        assert petersen_exact.infeasible_at == (4,)
        assert petersen_exact.stats.mode == "exact"

    def test_complete_graph(self):
        g = build_graph(KneserParams(1, 4))  # K_6
        result = exact_phi(g)
        assert result.phi == 6
        assert result.infeasible_at == ()

    def test_single_vertex(self):
        result = exact_phi(Graph([[]]))
        assert result.phi == 1

    def test_empty_graph_rejected(self):
        with pytest.raises(ValueError):
            exact_phi(Graph([]))

    def test_infeasible_at_bookkeeping(self):
        for seed in range(5):
            g = erdos_renyi_graph(8, 0.5, 7000 + seed)
            result = exact_phi(g)
            ub = degree_bound(g)
            assert result.infeasible_at == tuple(range(result.phi + 1, ub + 1))

    @pytest.mark.parametrize("p", [0.2, 0.5, 0.8])
    def test_oracle_equivalence_sample(self, p):
        for seed in range(10):
            g = erdos_renyi_graph(9, p, 3000 + seed)
            assert exact_phi(g).phi == brute_force_phi(g).phi

    def test_budget_bracket(self, petersen):
        with pytest.raises(BudgetExceeded) as info:
            exact_phi(petersen, budget=Budget(max_nodes=3))
        exc = info.value
        assert exc.upper_bound == 4
        assert exc.lower_bound is not None and 2 <= exc.lower_bound <= 3
        assert exc.certificate is not None
        assert is_b_coloring(petersen, exc.certificate).valid

    def test_time_budget(self, petersen):
        with pytest.raises(BudgetExceeded):
            exact_phi(petersen, budget=Budget(time_limit=0.0))

    # KG(7,3): the heuristic's seeded phase lifts 3 colors to 5; KG(14,2);
    # KG(8,2), whose seed tuples come from the orbit table
    @pytest.mark.parametrize(
        "params", [KneserParams(3, 1), KneserParams(2, 10), KneserParams(2, 4)]
    )
    def test_time_budget_covers_heuristic(self, params):
        g = build_graph(params)
        fallback = _eliminate_undominated(g, _greedy_proper(g, [0]), [0])
        with pytest.raises(BudgetExceeded) as info:
            exact_phi(g, budget=Budget(time_limit=0.0))
        exc = info.value
        assert exc.lower_bound == fallback.color_count
        assert exc.nodes_explored == 0
        assert is_b_coloring(g, exc.certificate).valid


class TestDeterminism:
    def test_repeat_runs_identical(self, petersen):
        a = exact_phi(petersen)
        b = exact_phi(petersen)
        assert a.phi == b.phi
        assert a.certificate == b.certificate
        assert a.infeasible_at == b.infeasible_at


class TestHeuristic:
    @pytest.mark.parametrize("t", [2, 4, 6])
    def test_complete_graphs_reach_full(self, t):
        g = build_graph(KneserParams(1, t - 2))  # KG(t, 1) = K_t
        assert heuristic_b_coloring(g).phi == t

    def test_petersen_band(self, petersen):
        result = heuristic_b_coloring(petersen)
        assert 2 <= result.phi <= 3
        assert is_b_coloring(petersen, result.certificate).valid
        assert not result.exact

    def test_kg62(self):
        g = build_graph(KneserParams(2, 2))  # 15 vertices, 6-regular
        result = heuristic_b_coloring(g)
        assert result.phi <= 7
        assert is_b_coloring(g, result.certificate).valid

    def test_edgeless(self):
        g = Graph([[] for _ in range(5)])
        result = heuristic_b_coloring(g)
        assert result.phi == 1
        assert is_b_coloring(g, result.certificate).valid

    # (steps from phi_upper_bound, steps from degree_bound): phase 2 of
    # KG(12,2) skips the 16 attempts at k = 46..31, of KG(14,2) the 28 at 67..40
    @pytest.mark.parametrize(
        "params,steps",
        [(KneserParams(2, 8), (291, 1_744)), (KneserParams(2, 10), (424, 3_735))],
    )
    def test_phase_two_starts_at_the_upper_bound(self, params, steps):
        g = build_graph(params)
        result = heuristic_b_coloring(g)
        assert result.stats.nodes_explored == steps[0]
        # every attempt above the bound fails, so starting there changes no
        # certificate: it only saves their steps
        skipped = [0]
        for k in range(degree_bound(g), phi_upper_bound(g), -1):
            assert _seeded_greedy(g, k, skipped) is None
        assert steps[0] + skipped[0] == steps[1]

    def test_always_valid_on_random_graphs(self):
        for seed in range(20):
            g = erdos_renyi_graph(7 + seed % 3, 0.2 + 0.3 * (seed % 3), 40 + seed)
            result = heuristic_b_coloring(g)
            assert is_b_coloring(g, result.certificate).valid


class TestSandwich:
    def test_on_kneser_instances(self):
        for params in [KneserParams(1, 3), KneserParams(2, 0), KneserParams(2, 1)]:
            g = build_graph(params)
            lower = heuristic_b_coloring(g).phi
            phi = exact_phi(g).phi
            assert lower <= phi <= best_upper_bound(params).best

    def test_on_random_instances(self):
        for seed in range(10):
            g = erdos_renyi_graph(8, 0.5, 500 + seed)
            lower = heuristic_b_coloring(g).phi
            phi = exact_phi(g).phi
            assert lower <= phi <= degree_bound(g)
