import json
import time
from functools import partial, reduce
from importlib import resources
from itertools import combinations, islice, takewhile
from operator import or_

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bkneser import (
    Budget,
    BudgetExceeded,
    Coloring,
    Graph,
    InstanceTooLarge,
    KneserParams,
    analyze_proof_structure,
    best_upper_bound,
    brute_force_phi,
    build_graph,
    degree_bound,
    enumerate_vertices,
    exact_phi,
    feasible_b_coloring,
    heuristic_b_coloring,
    is_b_coloring,
)

from oracles import (
    adjacency_sets,
    generate,
    naive_feasible_k,
    naive_is_proper,
    naive_phi,
    reference_brute_force_phi,
    reference_eliminate_undominated,
    reference_heuristic_b_coloring,
    reference_search_with_seeds,
    reference_seeded_proper,
)
from bkneser.reproduce import SMALL_KNESER_PARAMS, erdos_renyi_graph, load_seed_entries
from bkneser.formats import certificate_from_dict
from bkneser import solver
from bkneser.bcoloring import class_masks
from bkneser.solver import (
    _CLOCK_EVERY,
    _BudgetTracker,
    _eliminate_undominated,
    _greedy_proper,
    _propagate_root,
    _search_with_seeds,
    _seed_tuples,
    _seeded_proper,
    _steiner_classes,
    _steiner_triples,
    _StopSearch,
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
    return Graph(g.masks)


def _keys_descend(members, ground):
    """Do the points 0..ground-1 of the family of subset masks `members` have
    non-increasing keys (deg, weight)? deg(p) counts the members holding p,
    and weight(p) sums deg(q) over the points q of those members."""
    family = [{p for p in range(ground) if m >> p & 1} for m in members]
    deg = [sum(p in s for s in family) for p in range(ground)]
    weight = [sum(deg[q] for s in family if p in s for q in s) for p in range(ground)]
    keys = list(zip(deg, weight))
    return keys == sorted(keys, reverse=True)


class TestDegreeBound:
    def test_regular_graphs_give_d_plus_1(self, k3, petersen, matching6):
        assert degree_bound(k3) == 3
        assert degree_bound(petersen) == 4
        assert degree_bound(matching6) == 2

    def test_single_vertex(self):
        assert degree_bound(Graph([0])) == 1

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

    def test_past_the_default_recursion_limit(self):
        # descend recurses once per vertex
        assert brute_force_phi(Graph([0] * 1100), cap=2000).phi == 1

    def test_vertex_cap_at_any_cap(self):
        with pytest.raises(InstanceTooLarge, match="capped at 10000 vertices"):
            brute_force_phi(Graph([0] * 10_001), cap=20_000)

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

    def test_matches_naive_on_every_labeled_graph_up_to_5_vertices(self):
        checked = 0
        for n in range(1, 6):
            pairs = list(combinations(range(n), 2))
            for chosen in range(1 << len(pairs)):
                edges = [e for i, e in enumerate(pairs) if chosen >> i & 1]
                g = Graph.from_edges(n, edges)
                expected, _ = naive_phi(adjacency_sets(g))
                assert brute_force_phi(g).phi == expected, (n, edges)
                checked += 1
        assert checked == 1099

    def test_matches_the_reference(self):
        for g in _reference_cases():
            result = brute_force_phi(g, cap=14)
            phi, infeasible_at, colors, _ = reference_brute_force_phi(g)
            assert result.phi == phi, g
            assert result.infeasible_at == infeasible_at, g
            assert result.certificate.colors == colors, g

    def test_phi_far_below_the_degree_bound(self):
        # K_{7,7}: degree bound 8, phi 2, so the passes for k = 8..3 each
        # refute before the pass for 2 accepts
        g = _complete_bipartite(7)
        result = brute_force_phi(g, cap=14)
        phi, infeasible_at, colors, ref_nodes = reference_brute_force_phi(g)
        assert (result.phi, result.infeasible_at) == (phi, infeasible_at) == (2, (3, 4, 5, 6, 7, 8))
        assert result.certificate.colors == colors
        assert result.stats.nodes_explored < ref_nodes


def _complete_bipartite(a):
    return Graph.from_edges(2 * a, [(i, a + j) for i in range(a) for j in range(a)])


def _reference_cases():
    """Graphs on which the brute-force oracle must give the reference's phi,
    infeasible_at and certificate; the reference takes about 1.5 s on all."""
    yield from (build_graph(p) for p in SMALL_KNESER_PARAMS)
    for e in load_seed_entries():
        yield erdos_renyi_graph(e["vertices"], e["density"], e["seed"])
    for n in range(1, 13):
        for tenths in range(1, 10):
            yield erdos_renyi_graph(n, tenths / 10, 7000 + 10 * n + tenths)
    for a in range(1, 8):
        yield _complete_bipartite(a)
        # the crown: K_{a,a} less a perfect matching
        yield Graph.from_edges(2 * a, [(i, a + j) for i in range(a) for j in range(a) if i != j])
    for n in range(1, 13):
        yield Graph.from_edges(n, [(i, i + 1) for i in range(n - 1)])  # P_n
        yield Graph.from_edges(n, combinations(range(n), 2))  # K_n
        yield Graph.from_edges(n, [(0, i) for i in range(1, n)])  # a star
        if n >= 3:
            yield Graph.from_edges(n, [(i, (i + 1) % n) for i in range(n)])  # C_n
    # 3K_4
    cliques = [(4 * c + i, 4 * c + j) for c in range(3) for i, j in combinations(range(4), 2)]
    yield Graph.from_edges(12, cliques)


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

    def test_vertex_cap(self):
        # the search recurses once per vertex: past the cap it refuses, in
        # place of overflowing the stack
        with pytest.raises(InstanceTooLarge, match="capped at 10000 vertices"):
            feasible_b_coloring(Graph([0] * 10_001), 1)

    def test_single_class_on_edgeless_graph(self):
        g = Graph([0, 0, 0])
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

    # KG(6,3), KG(7,3) and K_5
    @pytest.mark.parametrize(
        "params", [KneserParams(3, 0), KneserParams(3, 1), KneserParams(1, 3)]
    )
    def test_seed_tuples_follow_definition(self, params):
        # a plain graph's tuples: every k-subset of the vertices of degree
        # >= k-1, listed in lexicographic order; a Kneser graph's: those of
        # them whose points have non-increasing keys (deg, weight), checked
        # up to the 20,000th k-subset, as the keys computed here are slow
        kg = build_graph(params)
        ground = params.ground_size
        top = kg.degrees()[0] + 1
        for m in range(1, kg.vertex_count + 1):
            every = list(combinations(range(kg.vertex_count), m)) if m <= top else []
            assert list(_seed_tuples(_stripped(kg), m)) == every, m
            head = every[:20_000]
            kept = [t for t in head if _keys_descend([kg.subsets[v] for v in t], ground)]
            got = takewhile(lambda t: t <= head[-1], _seed_tuples(kg, m))
            assert list(got) == kept, m

    def test_reduction_halves_refutation_nodes(self):
        # Petersen: 4 colors are refuted, from one seed tuple per orbit of
        # the oracle's level 4, from the tuples the filter keeps, and from
        # every 4-subset of the vertices
        kg = build_graph(KneserParams(2, 1))
        vertex = {m: v for v, m in enumerate(kg.subsets)}
        tracker = _BudgetTracker(Budget())
        for form in generate(5, 2, 4)[-1]:
            seeds = tuple(vertex[m] for m in form)
            assert _search_with_seeds(kg.masks, 4, seeds, tracker) is None
        filtered = _BudgetTracker(Budget())
        assert feasible_b_coloring(kg, 4, _tracker=filtered) is None
        plain = _BudgetTracker(Budget())
        assert feasible_b_coloring(_stripped(kg), 4, _tracker=plain) is None
        assert [tracker.nodes, filtered.nodes, plain.nodes] == [78, 86, 1_232]

    def test_generated_orbits_refute_ten_colors_on_kg82(self):
        # above the best bound, 9, exact_phi tests no k; the search refutes
        # k = 10 too, from one seed tuple per orbit of the oracle's level 10
        kg = build_graph(KneserParams(2, 4))
        vertex = {m: v for v, m in enumerate(enumerate_vertices(kg.params))}
        forms = generate(8, 2, 10)[-1]
        assert len(forms) == 663
        tracker = _BudgetTracker(Budget())
        for form in forms:
            seeds = tuple(vertex[m] for m in form)
            assert _search_with_seeds(kg.masks, 10, seeds, tracker) is None
        assert tracker.nodes == 96_336

    def test_time_budget_stops_a_run_of_rejected_tuples(self, monkeypatch):
        # refuting k = 10 on KG(8,2) ends in 2,729,972 tuples in a row that
        # the filter rejects, about 8 s of scanning (Python 3.11, 2 vCPUs)
        # that counts no node. Started at that run, the search passes its
        # deadline inside it and must stop there: scanning to the end, it
        # would return None
        kg = build_graph(KneserParams(2, 4))
        before_run = 10_393_138  # the tuples up to the last one kept

        def from_the_run(candidates, k):
            return islice(combinations(candidates, k), before_run, None)

        monkeypatch.setattr(solver, "combinations", from_the_run)
        start = time.monotonic()
        with pytest.raises(BudgetExceeded) as info:
            feasible_b_coloring(kg, 10, Budget(time_limit=0.5))
        assert time.monotonic() - start < 3
        assert info.value.nodes_explored == 0

    def test_exact_matches_oracle_on_kg62(self, kg62, kg62_brute):
        exact, brute = exact_phi(kg62), kg62_brute
        assert exact.phi == brute.phi == 6
        # the exact search starts at the best closed-form bound, 6; the
        # oracle starts at the degree bound, 7
        assert (exact.infeasible_at, brute.infeasible_at) == ((), (7,))

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
    """Certificate colors written one hex digit to a vertex."""
    return tuple(int(c, 16) for c in text)


class TestPinnedOutputs:
    """Outputs of both exhaustive loops. The exact search must keep every
    decision, so its phi, infeasible_at, node counts and certificates stay
    exactly these; its counts also pin its seed tuples and its root
    propagation. The brute-force oracle keeps its answers and certificates:
    its phi, infeasible_at and certificates are those of its one-pass
    predecessor (`reference_brute_force_phi` in `oracles`), and its node
    counts, summed over its exact-k passes, pin its prunes."""

    BRUTE = {
        "petersen": (3, (4,), 625, "0001112221"),
        "kg62": (6, (7,), 7_881, "000112342234553"),
        (0.3, 1): (5, (), 32, "01001203341422"),
        (0.5, 2): (5, (6,), 14_547, "00111002342113"),
        (0.7, 3): (8, (9,), 2_535, "01234562057046"),
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
        assert (result.phi, result.infeasible_at) == (6, ())
        assert result.stats.nodes_explored == 75
        assert result.certificate.colors == _digits("012322141300554")

    def test_exact_kg72_within_30000_nodes(self):
        budget = Budget(max_nodes=30_000)
        result = exact_phi(build_graph(KneserParams(2, 3)), budget=budget)
        assert (result.phi, result.infeasible_at) == (7, ())
        # the heuristic's steps only: its Steiner triple system candidate
        # reaches the best bound, 7
        assert result.stats.nodes_explored == 42
        assert result.certificate == _committed("kg_2_3_phi7.json")[0]

    def test_exact_kg82(self):
        result = exact_phi(build_graph(KneserParams(2, 4)))
        assert (result.phi, result.infeasible_at) == (9, ())
        assert result.stats.nodes_explored == 7_701
        assert result.certificate == _committed("kg_2_4_phi9.json")[0]

    def test_budget_bracket_kg82(self):
        # stopped while testing the best bound, 9
        with pytest.raises(BudgetExceeded) as info:
            exact_phi(build_graph(KneserParams(2, 4)), budget=Budget(max_nodes=5_000))
        exc = info.value
        assert (exc.tested_k, exc.lower_bound, exc.upper_bound) == (9, 6, 9)
        assert exc.nodes_explored == 5_001
        assert exc.certificate.colors == _digits("0001112221333124441235551234")

    def test_exact_kg73(self):
        result = exact_phi(build_graph(KneserParams(3, 1)))
        assert (result.phi, result.infeasible_at) == (5, ())
        assert result.stats.nodes_explored == 160_409
        assert result.certificate.colors == _digits("01234000001111100002133222232311314")

    BRACKETS = {
        KneserParams(4, 1): (
            (6, 5, 6),
            "0123044403343440000000333333333333311111111111111111111111111111"
            "11113122222222222222222222222222222222322111111111111133300034",
        ),
        KneserParams(3, 5): (
            (57, 12, 57),
            "010230313240214233230050520336052435021113531452230789a4b0515235"
            "334424305aa349521345007611033104213750134152189805b1a48870b16263"
            "33442430576349521348b5b634aa07813467b",
        ),
    }

    # KG(9,4) and KG(11,3): budget brackets
    @pytest.mark.parametrize("params", list(BRACKETS), ids=str)
    def test_budget_bracket_off_the_table(self, params):
        with pytest.raises(BudgetExceeded) as info:
            exact_phi(build_graph(params), budget=Budget(max_nodes=200_000))
        exc = info.value
        bracket, colors = self.BRACKETS[params]
        assert (exc.tested_k, exc.lower_bound, exc.upper_bound) == bracket
        assert exc.nodes_explored == 200_001
        assert exc.certificate.colors == _digits(colors)


def _trace_tuples(kernel, graph, k, budget, expired=False):
    """Run `kernel` on every seed tuple of k in turn on one tracker, as
    feasible_b_coloring does: each tuple's result with the node count after
    it, ending in ("stopped", nodes) when the budget stops the search."""
    tracker = _BudgetTracker(budget)
    if expired:
        tracker.deadline = time.monotonic() - 1.0
    trace = []
    try:
        for seeds in _seed_tuples(graph, k):
            trace.append((kernel(graph.masks, k, seeds, tracker), tracker.nodes))
    except _StopSearch:
        trace.append(("stopped", tracker.nodes))
    return trace


def _per_tuple_nodes(trace):
    """The nodes each tuple of a `_trace_tuples` trace took."""
    counts = [nodes for _, nodes in trace]
    return [b - a for a, b in zip([0, *counts], counts)]


def _differential_cases():
    for n in range(8, 15):
        for p in (0.3, 0.5, 0.7):
            make = partial(erdos_renyi_graph, n, p, 9100 + n)
            yield pytest.param(make, id=f"G({n},{p})")
    for params in (KneserParams(2, 2), KneserParams(2, 3)):
        make = partial(build_graph, params)
        yield pytest.param(make, id=f"KG({params.ground_size},2)")


class TestKernelAgainstReference:
    """The search kernel against its unoptimised form in `oracles`, which
    has no forced-witness propagation: on every seed tuple of every k, the
    same coloring or None in no more nodes below the root. The reference
    counts no node at its root, the kernel one per color each propagation
    pass checks. Under a budget the kernel stops where its own unbudgeted
    run passes the budget."""

    @pytest.mark.parametrize("make", list(_differential_cases()))
    def test_same_results_nodes_and_stops(self, make):
        graph = make()
        stops = 0
        # the k that exact_phi tests, on the filtered tuples of the Kneser
        # graphs and on every tuple of the G(n, p) ones
        for k in range(1, phi_upper_bound(graph) + 1):
            expected = _trace_tuples(reference_search_with_seeds, graph, k, Budget())
            full = _trace_tuples(_search_with_seeds, graph, k, Budget())
            assert [r for r, _ in full] == [r for r, _ in expected], k
            roots = _per_tuple_nodes(_trace_tuples(_propagate_root, graph, k, Budget()))
            below = [n - r for n, r in zip(_per_tuple_nodes(full), roots)]
            assert all(got <= ref for got, ref in zip(below, _per_tuple_nodes(expected))), k
            total = full[-1][1] if full else 0
            # node budgets that stop the search partway through a tuple
            runs = [(Budget(max_nodes=total // d), False) for d in (2, 3) if total >= d]
            if total >= _CLOCK_EVERY:
                # a deadline already past stops it at the first clock check
                runs.append((Budget(), True))
            for budget, expired in runs:
                got = _trace_tuples(_search_with_seeds, graph, k, budget, expired)
                stop = _CLOCK_EVERY if expired else budget.max_nodes + 1
                assert got[-1] == ("stopped", stop), (k, budget, expired)
                # the tuples finished before the stop, as in the full run
                done = got[:-1]
                assert done == full[: len(done)], (k, budget, expired)
                assert full[len(done)][1] >= stop, (k, budget, expired)
                stops += 1
        assert stops


def _root_runs(graph, k):
    """The root, the kernel and the reference on the seed tuple (0..k-1) of
    `graph`: each one's result and node count."""
    runs = []
    for kernel in (_propagate_root, _search_with_seeds, reference_search_with_seeds):
        tracker = _BudgetTracker(Budget())
        runs.append((kernel(graph.masks, k, tuple(range(k)), tracker), tracker.nodes))
    return runs


class TestRootPropagation:
    """Forced-witness propagation at the root of a seed tuple, on hand-built
    graphs whose seeds are vertices 0..k-1 and take colors 0..k-1. Every
    tuple here passes the reference's root check, which tests each seed
    against each color once and forces nothing, so the reference branches
    where propagation settles the tuple at the root: the kernel's nodes are
    the root's, one per color each pass checks."""

    def test_forced_move_strands_another_seed(self):
        # seed 0 sees color 1 only through 3, and seed 2 only through 4;
        # 3 and 4 are adjacent, so forcing 3 to 1 takes color 1 from 4,
        # which the first pass finds at its second color
        g = Graph.from_edges(7, [(0, 2), (0, 3), (2, 4), (3, 4), (1, 5), (1, 6)])
        (root, root_nodes), (got, nodes), (expected, ref_nodes) = _root_runs(g, 3)
        assert root is None and got is None and nodes == root_nodes == 2
        assert expected is None and ref_nodes > 0

    # seeds 0..3; 6 and 7 are forced by seeds 1 and 2, and 4 to color 2 by
    # seed 3; only then does seed 0 see color 1 through 5 alone, since 4
    # allowed color 1 too. That cascade reaches a lower color and seed than
    # the move it follows, so the pass that finds it comes after.
    CASCADE = Graph.from_edges(
        8,
        [(0, 2), (0, 3), (1, 2), (1, 3), (0, 4), (3, 4), (0, 5), (1, 6), (2, 7)],
    )

    def test_forced_moves_cascade(self):
        (_, root_nodes), (got, nodes), (expected, ref_nodes) = _root_runs(self.CASCADE, 4)
        assert got == expected == [0, 1, 2, 3, 2, 1, 0, 3]
        # three full passes: two force moves, the last forces nothing
        assert nodes == root_nodes == 3 * 4 and ref_nodes > 0

    def test_propagation_colors_every_free_vertex(self):
        (root, _), (got, _) = _root_runs(self.CASCADE, 4)[:2]
        assert root[2] == 0  # no free vertex is left to branch on
        assert is_b_coloring(self.CASCADE, Coloring.from_sequence(got)).valid

    def test_every_tuple_counts_a_node(self):
        # so a budget of N nodes tries at most N seed tuples, also where
        # propagation refutes them at the root: every 7-subset of KG(6,2)
        # without its labels is refuted
        g = _stripped(build_graph(KneserParams(2, 2)))
        trace = _trace_tuples(_search_with_seeds, g, 7, Budget())
        assert len(trace) == 6_435 and all(r is None for r, _ in trace)
        assert min(_per_tuple_nodes(trace)) >= 1

    def test_seeds_are_checked_after_the_last_forced_move(self):
        # seed 0 sees color 1 through 4 or 5 alone; seed 3 forces 4 to
        # color 2 and seed 2 forces 5, the last free vertex, to color 3, so
        # every vertex is colored but seed 0 no longer sees color 1
        g = Graph.from_edges(
            7, [(0, 2), (0, 3), (1, 2), (1, 3), (0, 4), (3, 4), (0, 5), (2, 5), (1, 6)]
        )
        (root, root_nodes), (got, nodes), (expected, ref_nodes) = _root_runs(g, 4)
        # the second pass finds it at its second color
        assert root is None and got is None and nodes == root_nodes == 4 + 2
        assert expected is None and ref_nodes > 0


class TestExactPhi:
    def test_petersen(self, petersen_exact, petersen_brute):
        assert petersen_exact.phi == 3 == petersen_brute.phi
        # the best bound is 3: the search refutes nothing
        assert petersen_exact.infeasible_at == ()
        assert petersen_exact.stats.mode == "exact"

    def test_complete_graph(self):
        g = build_graph(KneserParams(1, 4))  # K_6
        result = exact_phi(g)
        assert result.phi == 6
        assert result.infeasible_at == ()

    def test_single_vertex(self):
        result = exact_phi(Graph([0]))
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

    # an untagged Petersen graph, whose bound is the degree bound, 4: the
    # tagged one's best bound is 3, so its solve searches nothing
    def test_budget_bracket(self, petersen):
        with pytest.raises(BudgetExceeded) as info:
            exact_phi(_stripped(petersen), budget=Budget(max_nodes=3))
        exc = info.value
        assert exc.upper_bound == 4
        assert exc.lower_bound is not None and 2 <= exc.lower_bound <= 3
        assert exc.certificate is not None
        assert is_b_coloring(petersen, exc.certificate).valid

    def test_time_budget(self, petersen):
        with pytest.raises(BudgetExceeded):
            exact_phi(_stripped(petersen), budget=Budget(time_limit=0.0))

    # KG(7,3): a seeded candidate lifts 3 colors to 4; KG(14,2);
    # KG(8,2), whose search scans filtered seed tuples
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

    def test_time_budget_bounds_a_long_heuristic_attempt(self):
        # KG(16,4): the first seeded attempt (k = 496) takes about 0.3 s and
        # its elimination about 0.2 s (Python 3.11, 2 vCPUs), so the deadline
        # may fall inside either; the lower bound is then the largest-first
        # coloring's 10 or the attempt's 30, depending on the machine's speed
        g = build_graph(KneserParams(4, 8))
        start = time.monotonic()
        with pytest.raises(BudgetExceeded) as info:
            exact_phi(g, budget=Budget(time_limit=0.5))
        assert time.monotonic() - start < 2.5
        assert info.value.upper_bound == 496
        assert info.value.lower_bound >= 10
        assert is_b_coloring(g, info.value.certificate).valid


class TestDeterminism:
    def test_repeat_runs_identical(self, petersen):
        a = exact_phi(petersen)
        b = exact_phi(petersen)
        assert a.phi == b.phi
        assert a.certificate == b.certificate
        assert a.infeasible_at == b.infeasible_at


def _colors_of(classes: list[int], graph: Graph) -> list[int]:
    return [
        next(c for c, cm in enumerate(classes) if cm >> v & 1)
        for v in range(graph.vertex_count)
    ]


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
        g = Graph([0] * 5)
        result = heuristic_b_coloring(g)
        assert result.phi == 1
        assert is_b_coloring(g, result.certificate).valid

    # (steps from phi_upper_bound, steps from degree_bound): from the bound,
    # the seeded candidates of KG(12,2) at k = 23..21 and of KG(14,2) at
    # k = 30..28 find no coloring; from the degree bound, those at k = 46 and
    # 67 beat no largest-first coloring and the next three find none
    @pytest.mark.parametrize(
        "params,steps",
        [(KneserParams(2, 8), (103, 264)), (KneserParams(2, 10), (133, 384))],
    )
    def test_phase_two_starts_at_the_upper_bound(self, params, steps, monkeypatch):
        g = build_graph(params)
        result = heuristic_b_coloring(g)
        assert result.stats.nodes_explored == steps[0]
        # no candidate above the bound keeps more colors than the result, so
        # starting there changes no certificate: it only saves their steps
        monkeypatch.setattr(solver, "phi_upper_bound", degree_bound)
        from_degree_bound = heuristic_b_coloring(g)
        assert from_degree_bound.certificate == result.certificate
        assert from_degree_bound.stats.nodes_explored == steps[1]

    # KG(9,3) and KG(10,3): the seeded candidates' elimination certifies 9
    # and 12 colors, where the largest-first coloring's gives 5 and 6
    @pytest.mark.parametrize(
        "params,colors", [(KneserParams(3, 3), 9), (KneserParams(3, 4), 12)]
    )
    def test_seeded_candidates_on_kneser_graphs(self, params, colors):
        g = build_graph(params)
        result = heuristic_b_coloring(g)
        assert result.phi >= colors
        assert is_b_coloring(g, result.certificate).valid

    def test_budget_bracket_kg93_starts_from_the_heuristic(self):
        g = build_graph(KneserParams(3, 3))
        with pytest.raises(BudgetExceeded) as info:
            exact_phi(g, budget=Budget(max_nodes=30_000))
        assert info.value.lower_bound == 9
        assert is_b_coloring(g, info.value.certificate).valid

    def test_elimination_stops_on_a_past_deadline(self):
        g = build_graph(KneserParams(2, 2))
        classes = _greedy_proper(g, [0])
        assert _eliminate_undominated(g, classes, [0], time.monotonic() - 1) is None
        assert is_b_coloring(g, _eliminate_undominated(g, classes, [0])).valid

    def test_seeded_candidate_stops_on_a_past_deadline(self):
        g = build_graph(KneserParams(2, 2))  # KG(6,2): k = 7 gives a candidate
        assert _seeded_proper(g, 7, [0], time.monotonic() - 1) is None
        assert _seeded_proper(g, 7, [0]) is not None

    def test_seeded_candidate_is_proper(self):
        g = build_graph(KneserParams(3, 3))  # KG(9,3)
        everyone = (1 << g.vertex_count) - 1
        for k in range(phi_upper_bound(g), 1, -1):
            classes = _seeded_proper(g, k, [0])
            if classes is not None:
                assert len(classes) == k and all(classes)
                # disjoint (no carries), and cover every vertex
                assert reduce(or_, classes) == sum(classes) == everyone
                assert naive_is_proper(adjacency_sets(g), _colors_of(classes, g))

    def test_deadline_cuts_an_attempt_short(self):
        # KG(16,4): the first seeded attempt (k = 496) and its elimination
        # take about half a second, and each of the three failing attempts
        # after it about as long as the first, so a 0.5 s deadline falls
        # inside one of them;
        # test_seeded_candidate_stops_on_a_past_deadline pins the cut itself
        g = build_graph(KneserParams(4, 8))
        start = time.monotonic()
        result = heuristic_b_coloring(g, deadline=start + 0.5)
        assert time.monotonic() - start < 2.5
        assert result.phi >= 10
        assert is_b_coloring(g, result.certificate).valid

    def test_seeded_candidate_matches_the_reference(self):
        graphs = [
            build_graph(p)
            for p in [
                KneserParams(2, 1),
                KneserParams(2, 3),
                KneserParams(3, 3),
                KneserParams(2, 8),
            ]
        ]
        graphs += [
            erdos_renyi_graph(12 + seed % 30, 0.1 + 0.2 * (seed % 5), 900 + seed)
            for seed in range(30)
        ]
        for g in graphs:
            for k in range(1, phi_upper_bound(g) + 2):
                steps, ref_steps = [0], [0]
                classes = _seeded_proper(g, k, steps)
                reference = reference_seeded_proper(g, k, ref_steps)
                if reference is None:
                    assert classes is None, (g, k)
                else:
                    assert classes == class_masks(reference, k), (g, k)
                assert steps == ref_steps, (g, k)

    def test_elimination_matches_the_reference(self):
        graphs = [
            build_graph(p)
            for p in [
                KneserParams(2, 1),
                KneserParams(2, 3),
                KneserParams(3, 3),
                KneserParams(2, 8),
                KneserParams(3, 4),
            ]
        ]
        graphs += [
            erdos_renyi_graph(12 + seed % 30, 0.1 + 0.2 * (seed % 5), 900 + seed)
            for seed in range(30)
        ]
        for g in graphs:
            candidates = [_greedy_proper(g, [0])]
            candidates += [
                classes
                for k in range(1, phi_upper_bound(g) + 2)
                if (classes := _seeded_proper(g, k, [0])) is not None
            ]
            for classes in candidates:
                steps, ref_steps = [0], [0]
                found = _eliminate_undominated(g, classes, steps)
                colors = _colors_of(classes, g)
                reference = reference_eliminate_undominated(g, colors, ref_steps)
                assert found == reference, (g, classes)
                assert steps == ref_steps, (g, classes)

    def test_schedule_matches_the_reference(self):
        # fixed before measuring: KG(5,2)-KG(14,2), KG(7,3)-KG(12,3) and 100
        # seeded G(n, p), n from 10 to 120 and p from 0.05 to 0.9
        graphs = [build_graph(KneserParams(2, k)) for k in range(1, 11)]
        graphs += [build_graph(KneserParams(3, k)) for k in range(1, 7)]
        graphs += [
            erdos_renyi_graph(10 + 110 * seed // 99, 0.05 * (1 + seed % 18), 2600 + seed)
            for seed in range(100)
        ]
        for g in graphs:
            result = heuristic_b_coloring(g)
            reference = reference_heuristic_b_coloring(g)
            if _steiner_classes(g, [0]) is not None:
                # KG(7,2), KG(9,2) and KG(13,2): the Steiner triple system
                # candidate, which the reference lacks, reaches the bound
                ground = g.params.ground_size
                assert result.phi == ground * (ground - 1) // 6 >= reference.phi, g
                continue
            assert result.phi == reference.phi, g
            assert result.certificate == reference.certificate, g

    def test_kg164_stops_after_three_failed_candidates(self):
        # k = 496 certifies 30 colors, then k = 495..493 find no coloring;
        # the uncut schedule, reference_heuristic_b_coloring, takes 489,569
        # steps and about 50 s here
        g = build_graph(KneserParams(4, 8))
        result = heuristic_b_coloring(g)
        assert result.phi == 30
        assert result.stats.nodes_explored == 12_671
        assert is_b_coloring(g, result.certificate).valid

    def test_first_kg164_candidate_eliminates_to_30_colors(self):
        g = build_graph(KneserParams(4, 8))
        assert phi_upper_bound(g) == 496
        classes = _seeded_proper(g, 496, [0])
        assert _eliminate_undominated(g, classes, [0]).color_count == 30

    def test_always_valid_on_random_graphs(self):
        for seed in range(20):
            g = erdos_renyi_graph(7 + seed % 3, 0.2 + 0.3 * (seed % 3), 40 + seed)
            result = heuristic_b_coloring(g)
            assert is_b_coloring(g, result.certificate).valid


# N = 1, 3 (mod 6) from 7 to 27
STEINER_GROUNDS = [g for g in range(7, 28) if g % 6 in (1, 3)]


class TestSteinerTripleSystems:
    @pytest.mark.parametrize("ground", STEINER_GROUNDS)
    def test_each_pair_lies_in_one_triple(self, ground):
        triples = _steiner_triples(ground)
        assert len(triples) == ground * (ground - 1) // 6
        pairs = sorted(tuple(sorted(p)) for t in triples for p in combinations(t, 2))
        assert pairs == list(combinations(range(ground), 2))

    @pytest.mark.parametrize("ground", STEINER_GROUNDS)
    def test_classes_are_a_b_coloring_at_the_best_bound(self, ground):
        params = KneserParams(2, ground - 4)
        g = build_graph(params)
        steps = [0]
        classes = _steiner_classes(g, steps)
        assert steps == [g.vertex_count]
        coloring = Coloring.from_sequence(_colors_of(classes, g))
        assert is_b_coloring(g, coloring).valid
        assert analyze_proof_structure(params, g, coloring).ok
        assert coloring.color_count == best_upper_bound(params).best

    def test_only_on_kneser_graphs_with_n_2_and_a_steiner_ground(self):
        kg92 = build_graph(KneserParams(2, 5))
        assert _steiner_classes(_stripped(kg92), [0]) is None
        for params in (KneserParams(2, 4), KneserParams(3, 1), KneserParams(1, 5)):
            assert _steiner_classes(build_graph(params), [0]) is None, params

    def test_candidate_stops_on_a_past_deadline(self):
        g = build_graph(KneserParams(2, 5))  # KG(9,2)
        assert _steiner_classes(g, [0], time.monotonic() - 1) is None
        steps = [0]
        fallback = _eliminate_undominated(g, _greedy_proper(g, steps), steps)
        result = heuristic_b_coloring(g, deadline=time.monotonic() - 1)
        assert result.certificate == fallback
        assert result.stats.nodes_explored == steps[0]

    # KG(9,2) and KG(13,2): before the Steiner candidate, a 1M-node solve of
    # KG(9,2) ended in the bracket [7, 12]
    @pytest.mark.parametrize("ground,phi", [(9, 12), (13, 26)])
    def test_exact_phi_searches_nothing(self, ground, phi):
        g = build_graph(KneserParams(2, ground - 4))
        result = exact_phi(g)
        assert (result.phi, result.infeasible_at) == (phi, ())
        assert result.stats.nodes_explored == heuristic_b_coloring(g).stats.nodes_explored


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
