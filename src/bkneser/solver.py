"""Exact b-chromatic number search, brute-force oracle, and greedy heuristic.

The exact solver tests feasibility of k-color b-colorings for k descending
from an upper bound; the first feasible k is the answer because the target is
a maximum (b-colorability is not monotone in k, so every k above the answer
is refuted exhaustively). Feasibility search seeds k candidate dominating
vertices with distinct colors and extends by backtracking with forward
checking on properness and on each seed retaining a path to domination.
The checks that do not depend on the color being tried run once per vertex,
before the loop over its colors (see `_search_with_seeds`); each color tried
still counts one node before its checks, so node counts, the node at which a
budget stops and every coloring found are those of checking each color in
full.

Completeness of the seeding: a dominator system of a k-color b-coloring is a
set of k vertices, one dominating vertex from each class. The search from a
seed tuple prunes only on properness and on each seed keeping a way to see
every color, so it finds any coloring in which its seeds form a dominator
system, whichever dominating vertex each class contributes; the colors are
interchangeable, so seed i takes color i. On a plain graph the seed tuples
are all k-subsets of the vertices of degree >= k-1, so refuting every tuple
refutes k.

Before branching, the search propagates forced witnesses at the root of each
tuple (unit propagation, Davis, Logemann & Loveland, CACM 5, 1962). If seed w
has no vertex of color c in its closed neighborhood N[w] yet, and exactly one
uncolored vertex u of N[w] may still take c, then every coloring in which the
seeds form a dominator system colors u with c: w dominates its class, so some
vertex of N[w] has color c, and u is the only one left that can. Coloring u
so therefore loses none of the colorings the search looks for, and if no
vertex of N[w] is left for c there are none. Repeating this until nothing is
forced is order-independent: a forced move only takes colors away, so a
vertex forced once stays forced, and two seeds forcing one vertex to
different colors refute the tuple in any order. The search then branches on
the remaining vertices in the same order as without propagation. Every
coloring it can accept agrees with the forced colors, so it accepts the same
first coloring in that order, in no more nodes below the root. Each color a
propagation pass checks against the seeds counts one node, as each color
tried below the root does, so a node budget also bounds the tuples refuted
at the root: propagation refutes most tuples there, and a budget that let
them through free would not bound the work of a solve.

On a Kneser graph (one carrying `params`) the symmetric group on the ground
set acts on the graph by automorphisms. An automorphism s maps a b-coloring
with dominator system D to one with dominator system s(D), so refuting one
tuple from each orbit of k-sets of vertices refutes k. Of a plain graph's
tuples, the search keeps those whose ground-set points are in canonical
order, a lex-leader rule (Crawford, Ginsberg, Luks & Roy, Symmetry-breaking
predicates for search problems, KR 1996). For a tuple, let deg(p) count
its seeds whose subset holds point p, and weight(p) sum deg(q) over the
points q of those seeds; the tuple is kept when the key (deg(p), weight(p))
never increases from point 0 to point N-1. The key is computed from the
incidence structure alone, so a permutation of the ground set carries each
point's key to its image. For any k-set, relabeling the points in order of
non-increasing key is therefore a permutation whose image passes the filter:
every orbit keeps a member, and refuting the kept tuples refutes k. The
rule is the same for every k and every Kneser graph; the tests check that
the kept tuples meet every orbit on small ones, against a canonical-form
generator and against all permutations.

The filter reads the deadline every _CLOCK_EVERY tuples it scans, kept or
not, as the search reads it every _CLOCK_EVERY nodes: a rejected tuple
counts no node, and long runs of them occur (about 2.7 million in a row
when refuting 10 colors on KG(8,2)). So a node budget counts search nodes
only, while a time budget also bounds the tuples the filter skips.

The brute-force oracle is an independent check: it enumerates canonical
colorings (restricted-growth strings) and shares no seed tuples, forced
witnesses or symmetry filter with the search. It runs one exact-k pass per k,
from degree_bound down to 1, and stops at the first pass that accepts a leaf.
Pass k keeps only the strings with at most k blocks, and one prune cuts a
node for vertex v with b blocks so far. pot(u) is the number of distinct
blocks among the assigned vertices of N[u] plus the number of unassigned
vertices of N[u]. It bounds the blocks N[u] meets in any completion, and it
never rises along a branch: placing v in block c lowers it by one for exactly
the neighbors of v whose closed neighborhood already meets c, and opening a
block changes it for none. A dominator of a k-block coloring has pot(u) = k
at the leaf, so pot(u) >= k at every node above it: it is live. Block i can
only gain the unassigned vertices outside the open neighborhoods of its
members, so when neither those nor B_i hold a live vertex, block i has no
dominator in any completion, and the node is cut.
- At a leaf nothing is unassigned and pot(u) is the number of blocks N[u]
  meets, at most b. So a leaf passes the prune exactly when b = k and every
  block holds a vertex whose closed neighborhood meets all k blocks: the
  prune is the leaf's b-coloring test.
- No node needs a count check, b + (n - v) < k. The sum is at least k at
  the root, as k <= degree_bound <= n, and opening a block keeps it. Where
  it is exactly k, a live u has N[u] meeting all b blocks and holding every
  unassigned vertex. So the prune finds its live vertex for block i in B_i
  itself, adjacent to v, and v opens a block: the sum stays k.
"""

from __future__ import annotations

import sys
import time
from functools import reduce
from itertools import combinations
from operator import or_
from typing import Iterable, NamedTuple

from .bcoloring import Coloring, _sees_all_colors, class_colors, is_b_coloring
from .kneser import Graph, InstanceTooLarge, bit_indices

DEFAULT_NODE_BUDGET = 100_000_000
DEFAULT_BRUTE_FORCE_CAP = 12
_CLOCK_EVERY = 2048
# The search and the brute-force oracle recurse once per vertex. Python 3.10,
# whose calls use the C stack, overflowed an 8 MB stack between 20,000 and
# 30,000 such frames.
_MAX_SEARCH_VERTICES = 10_000
# seeded heuristic candidates that may fail in a row (heuristic_b_coloring)
_SEEDED_MISSES = 3


class Budget(NamedTuple):
    """Resource limits for exact search; exceeding them yields a bracket,
    never a wrong answer."""

    max_nodes: int = DEFAULT_NODE_BUDGET
    time_limit: float | None = None


class BudgetExceeded(Exception):
    """Search ran out of nodes or time; carries the partial bracket.

    lower_bound (with certificate) comes from the best verified b-coloring
    found before the limit; upper_bound is the largest k not yet refuted.
    """

    def __init__(
        self,
        message: str,
        *,
        tested_k: int,
        lower_bound: int | None = None,
        upper_bound: int | None = None,
        certificate: Coloring | None = None,
        nodes_explored: int = 0,
    ) -> None:
        super().__init__(message)
        self.tested_k = tested_k
        self.lower_bound = lower_bound
        self.upper_bound = upper_bound
        self.certificate = certificate
        self.nodes_explored = nodes_explored


class _StopSearch(Exception):
    """Internal signal: budget exhausted; unwinds the current search."""


def _expired(deadline: float | None) -> bool:
    return deadline is not None and time.monotonic() > deadline


class _BudgetTracker:
    """Node and time accounting for one solve. The search counts its nodes
    into `nodes` itself and reads the clock every _CLOCK_EVERY nodes."""

    def __init__(self, budget: Budget) -> None:
        self.budget = budget
        self.nodes = 0
        self.deadline = (
            time.monotonic() + budget.time_limit
            if budget.time_limit is not None
            else None
        )

    def check(self) -> None:
        if self.nodes > self.budget.max_nodes or _expired(self.deadline):
            raise _StopSearch


class SolveStats(NamedTuple):
    nodes_explored: int
    elapsed_seconds: float
    mode: str


class SolveResult(NamedTuple):
    """phi is exact in exact/brute modes and a verified lower bound in
    heuristic mode; the certificate always passes b-coloring verification."""

    phi: int
    certificate: Coloring
    infeasible_at: tuple[int, ...]
    stats: SolveStats
    exact: bool


def degree_bound(graph: Graph) -> int:
    """Largest m with at least m vertices of degree >= m-1.

    Sound for every graph: a b-coloring with m colors needs m dominating
    vertices in distinct classes, each of degree >= m-1. Equals d+1 on
    d-regular graphs.
    """
    degs = sorted(graph.degrees(), reverse=True)
    m = 0
    for i, d in enumerate(degs):
        if d >= i:
            m = i + 1
        else:
            break
    return m


def _propagate_root(
    adj: tuple[int, ...], k: int, seeds: tuple[int, ...], tracker: _BudgetTracker
) -> tuple[list[int], list[int], int, list[int]] | None:
    """Seed colors 0..k-1 on `seeds` and forced witnesses (module docstring)
    to a fixpoint: the state (colored, allow, free, closed) the search of
    `_search_with_seeds` starts from, or None when the tuple is refuted.

    A seed that misses color c and has one vertex u of its closed
    neighborhood left that allows c forces u to c. Passes over the colors
    repeat until one forces nothing, and a free vertex with no color left
    refutes the tuple after each pass, so every check follows the last
    forced move. Each color a pass checks counts one node in `tracker`.
    The pass keeps banned[c], the neighbors of c's seed and of the vertices
    forced to c, and reads allow[c] as free & ~banned[c], so a forced move
    updates two masks and the allow list is built once per pass.
    """
    colored = [1 << w for w in seeds]
    closed = [adj[w] | b for w, b in zip(seeds, colored)]
    free = (1 << len(adj)) - 1 - sum(colored)
    banned = [adj[w] for w in seeds]
    max_nodes, deadline = tracker.budget.max_nodes, tracker.deadline
    while True:
        forced = False
        for c in range(k):
            tracker.nodes += 1
            nodes = tracker.nodes
            if nodes > max_nodes or (not nodes % _CLOCK_EVERY and _expired(deadline)):
                raise _StopSearch
            colored_c, allow_c = colored[c], free & ~banned[c]
            for cw in closed:
                if cw & colored_c:
                    continue
                u = cw & allow_c
                if u & (u - 1):
                    continue
                if not u:
                    return None
                colored[c] = colored_c = colored_c | u
                free ^= u
                banned[c] |= adj[u.bit_length() - 1]
                allow_c = free & ~banned[c]
                forced = True
        allow = [free & ~b for b in banned]
        if free & ~reduce(or_, allow):
            return None
        if not forced:
            return colored, allow, free, closed


def _search_with_seeds(
    adj: tuple[int, ...], k: int, seeds: tuple[int, ...], tracker: _BudgetTracker
) -> list[int] | None:
    """Extend seed colors 0..k-1 on `seeds` to a full coloring where every
    seed dominates its class; None when this branch is exhausted.

    The state is kept per color: colored[c] holds the vertices colored c and
    allow[c] the uncolored vertices that may still take c. A seed stays
    viable while its closed neighborhood meets colored[c] | allow[c] for
    every c. The root is `_propagate_root`; its forced moves are not
    choices, and only its checks count nodes. The search below it counts
    its nodes in a local and writes the count back to `tracker` when it
    returns or stops.
    """
    root = _propagate_root(adj, k, seeds, tracker)
    if root is None:
        return None
    colored, allow, free, closed = root
    order = bit_indices(free)
    depth = len(order)
    max_nodes, deadline = tracker.budget.max_nodes, tracker.deadline
    nodes = tracker.nodes

    def extend(pos: int) -> bool:
        """Color order[pos:]. After coloring v with c, the branch stays open
        while no vertex lost its last color and no seed lost a color. Only c
        (through hit) and, at v, the other colors v allowed became scarcer,
        and every seed was viable before, so only those are rechecked.

        What does not depend on c is done once per vertex, before the loop
        over its colors. v leaves every allow[d] once. The colors d whose
        loss at v strands a seed near v are found once: a child changes only
        allow[c] and puts v in colored[c], so two such colors fail every
        child, and one fails every child but its own. And `twice` holds the
        vertices that two colors still allow: a vertex of hit outside it has
        lost its last color. Each color of v still counts one node, in the
        same order and before its checks, so the node counts, the node where
        a budget stops and the coloring found are those of checking every
        child in full."""
        nonlocal nodes
        if pos == depth:
            return True
        v = order[pos]
        vbit = 1 << v
        adj_v = adj[v]
        mine = [c for c in range(k) if allow[c] & vbit]
        for d in mine:
            allow[d] ^= vbit
        # the only color whose child can keep every seed near v viable:
        # -1 when any can, k when none can
        only = -1
        near_v = [cw for cw in closed if cw & vbit]
        if near_v:
            for d in mine:
                reach_d = colored[d] | allow[d]
                for cw in near_v:
                    if not cw & reach_d:
                        only = d if only < 0 else k
                        break
                if only == k:
                    break
        once = twice = 0
        for a in allow:
            twice |= once & a
            once |= a
        for c in mine:
            nodes += 1
            if nodes > max_nodes or (not nodes % _CLOCK_EVERY and _expired(deadline)):
                tracker.nodes = nodes
                raise _StopSearch
            if only >= 0 and c != only:
                continue
            allow_c = allow[c]
            hit = allow_c & adj_v
            if hit:
                if hit & ~twice:
                    continue
                reach_c = (colored[c] | vbit | allow_c) ^ hit
                ok = True
                for cw in closed:
                    if not cw & reach_c:
                        ok = False
                        break
                if not ok:
                    continue
            colored[c] |= vbit
            allow[c] = allow_c ^ hit
            if extend(pos + 1):
                return True
            allow[c] = allow_c
            colored[c] ^= vbit
        for d in mine:
            allow[d] |= vbit
        return False

    found = extend(0)
    tracker.nodes = nodes
    if not found:
        return None
    return class_colors(colored, len(adj))


def _seed_tuples(
    graph: Graph, k: int, deadline: float | None = None
) -> Iterable[tuple[int, ...]]:
    """The seed tuples, ascending within each, whose refutation refutes k
    colors: the k-subsets of the vertices of degree >= k-1 in lexicographic
    order, on a Kneser graph only those whose points are in canonical order
    (module docstring). The filter reads `deadline` every _CLOCK_EVERY
    tuples it scans and raises _StopSearch once it has passed."""
    candidates = [v for v, d in enumerate(graph.degrees()) if d >= k - 1]
    tuples = combinations(candidates, k)
    if graph.params is None:
        return tuples
    return _canonically_ordered(tuples, graph.subsets, graph.params.ground_size, deadline)


def _canonically_ordered(
    tuples: Iterable[tuple[int, ...]],
    subsets: tuple[int, ...],
    ground: int,
    deadline: float | None,
) -> Iterable[tuple[int, ...]]:
    """The tuples whose points p = 0..ground-1 have non-increasing keys
    (deg(p), weight(p)): deg(p) counts the seeds whose subset holds p, and
    weight(p) sums deg(q) over the points q of those seeds."""
    points = [bit_indices(m) for m in subsets]
    for scanned, seeds in enumerate(tuples, 1):
        if not scanned % _CLOCK_EVERY and _expired(deadline):
            raise _StopSearch
        deg = [0] * ground
        for v in seeds:
            for p in points[v]:
                deg[p] += 1
        if any(a < b for a, b in zip(deg, deg[1:])):
            continue
        weight = [0] * ground
        for v in seeds:
            total = sum(deg[q] for q in points[v])
            for p in points[v]:
                weight[p] += total
        if all(a > b or x >= y for a, b, x, y in zip(deg, deg[1:], weight, weight[1:])):
            yield seeds


def feasible_b_coloring(
    graph: Graph,
    k: int,
    budget: Budget | None = None,
    _tracker: _BudgetTracker | None = None,
) -> Coloring | None:
    """A verified b-coloring with exactly k colors, or None after exhausting
    every seed tuple (a proof of infeasibility).

    Raises BudgetExceeded when the node or time budget runs out, which is
    distinct from infeasibility.
    """
    n = graph.vertex_count
    if n == 0:
        raise ValueError("empty graph rejected")
    if not 1 <= k <= n:
        raise ValueError(f"k must lie in 1..{n}")
    if n > _MAX_SEARCH_VERTICES:
        raise InstanceTooLarge(
            f"instance too large: the exact search is capped at "
            f"{_MAX_SEARCH_VERTICES} vertices (got {n})"
        )
    tracker = _tracker if _tracker is not None else _BudgetTracker(budget or Budget())
    # room for one frame per vertex, and the few around them
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(limit + n + 10)
    try:
        for seeds in _seed_tuples(graph, k, tracker.deadline):
            tracker.check()  # a deadline already past stops before the first node
            assignment = _search_with_seeds(graph.masks, k, seeds, tracker)
            if assignment is not None:
                break
        else:
            return None
    except _StopSearch:
        raise BudgetExceeded(
            f"budget exhausted while testing k={k}",
            tested_k=k,
            nodes_explored=tracker.nodes,
        ) from None
    finally:
        sys.setrecursionlimit(limit)
    certificate = Coloring.from_sequence(assignment)
    if certificate.color_count != k:
        raise RuntimeError("internal error: search lost a color class")
    if not is_b_coloring(graph, certificate).valid:
        raise RuntimeError("internal error: search produced an invalid b-coloring")
    return certificate


def brute_force_phi(graph: Graph, cap: int = DEFAULT_BRUTE_FORCE_CAP) -> SolveResult:
    """Exhaustive oracle: one exact-k enumeration of canonical colorings per
    k, from degree_bound(graph) down; the first k that admits a b-coloring
    is phi, and every larger k is refuted by its own full pass.

    Pass k enumerates restricted-growth strings with at most k blocks: each
    vertex joins the existing blocks it is proper to in index order, then
    opens a new block. Each block keeps a reach mask, the vertices whose
    closed neighborhood meets it, and a leaf with exactly k blocks is
    accepted when every block meets the AND of all reach masks. The
    certificate is the first accepted leaf of pass phi in that order, the
    first b-coloring with phi colors among all restricted-growth strings.
    Each call of the recursion, pruned or not, counts one node, summed over
    the passes. Intended for cross-validation, hence the small default cap.

    One prune cuts a node for vertex v when some block can no longer hold a
    live vertex, one whose closed neighborhood can still meet k blocks. It
    cuts no node above a k-block b-coloring (module docstring), so a pass
    that accepts no leaf refutes k; at a leaf it is the b-coloring test.
    """
    n = graph.vertex_count
    if n == 0:
        raise ValueError("empty graph rejected")
    if n > cap:
        raise InstanceTooLarge(
            f"instance too large: brute force capped at {cap} vertices (got {n})"
        )
    if n > _MAX_SEARCH_VERTICES:
        raise InstanceTooLarge(
            f"instance too large: brute force is capped at "
            f"{_MAX_SEARCH_VERTICES} vertices at any cap (got {n})"
        )
    start = time.perf_counter()
    ub = degree_bound(graph)
    adj = graph.masks
    degrees = graph.degrees()
    everyone = (1 << n) - 1

    block_masks: list[int] = []
    # reach[i]: vertices whose closed neighborhood meets block i
    reach: list[int] = []
    nodes = 0

    def descend(v: int, live: int) -> bool:
        """Color v.., with `live` the vertices of slack >= 0; True at the
        first accepted leaf, with block_masks holding it. At v == n the
        prune is the leaf test: no vertex is unassigned, so it asks each
        block for a member whose closed neighborhood meets k blocks."""
        nonlocal nodes
        nodes += 1
        # block i can still gain only the unassigned vertices outside the
        # open neighborhoods of its members, which reach[i] holds
        unassigned = everyone >> v << v
        for bm, seen in zip(block_masks, reach):
            if not (bm | (unassigned & ~seen)) & live:
                return False
        if v == n:
            return True
        vbit = 1 << v
        adj_v = adj[v]
        closed = adj_v | vbit
        for i, bm in enumerate(block_masks):
            if bm & adj_v:
                continue
            seen = reach[i]
            # the neighbors of v that already see block i lose v as an
            # unassigned vertex and gain no block
            lost = bit_indices(adj_v & seen)
            child_live = live
            for u in lost:
                slack[u] -= 1
                if slack[u] < 0:
                    child_live &= ~(1 << u)
            block_masks[i] = bm | vbit
            reach[i] = seen | closed
            if descend(v + 1, child_live):
                return True
            reach[i] = seen
            block_masks[i] = bm
            for u in lost:
                slack[u] += 1
        if len(block_masks) < k:
            block_masks.append(vbit)
            reach.append(closed)
            if descend(v + 1, live):
                return True
            reach.pop()
            block_masks.pop()
        return False

    # descend recurses once per vertex: room for its frames, as in
    # feasible_b_coloring
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(limit + n + 10)
    try:
        for k in range(ub, 0, -1):
            # slack[u]: pot(u) - k, pot(u) being at most the blocks N[u] can
            # still meet; nothing is assigned yet, so pot(u) = |N[u]|
            slack = [d + 1 - k for d in degrees]
            if descend(0, sum(1 << u for u, s in enumerate(slack) if s >= 0)):
                break
        else:
            raise RuntimeError("internal error: no b-coloring found at any k >= 1")
    finally:
        sys.setrecursionlimit(limit)
    certificate = Coloring.from_sequence(class_colors(block_masks, n))
    if certificate.color_count != k or not is_b_coloring(graph, certificate).valid:
        raise RuntimeError("internal error: oracle certificate failed verification")
    return SolveResult(
        phi=k,
        certificate=certificate,
        infeasible_at=tuple(range(k + 1, ub + 1)),
        stats=SolveStats(nodes, time.perf_counter() - start, "brute"),
        exact=True,
    )


def phi_upper_bound(graph: Graph) -> int:
    """The top of exact_phi's descending search: the degree bound, lowered to
    the closed-form bound report's best when the graph carries Kneser
    parameters."""
    ub = degree_bound(graph)
    if graph.params is not None:
        from .bounds import best_upper_bound

        ub = min(ub, best_upper_bound(graph.params).best)
    return ub


def exact_phi(graph: Graph, budget: Budget | None = None) -> SolveResult:
    """Exact b-chromatic number by descending feasibility search.

    The search starts at phi_upper_bound. A greedy heuristic run seeds the
    lower end of the bracket; when every k above it is refuted, its
    certificate is already the optimum. The time budget covers the heuristic
    too.
    """
    n = graph.vertex_count
    if n == 0:
        raise ValueError("empty graph rejected")
    start = time.perf_counter()
    ub = phi_upper_bound(graph)
    tracker = _BudgetTracker(budget or Budget())
    heur = heuristic_b_coloring(graph, deadline=tracker.deadline)
    lower, certificate = heur.phi, heur.certificate
    if lower > ub:
        raise RuntimeError("internal error: heuristic exceeded a sound upper bound")
    phi = lower
    for k in range(ub, lower, -1):
        try:
            found = feasible_b_coloring(graph, k, _tracker=tracker)
        except BudgetExceeded:
            raise BudgetExceeded(
                f"budget exhausted while testing k={k}; phi in [{lower}, {k}]",
                tested_k=k,
                lower_bound=lower,
                upper_bound=k,
                certificate=certificate,
                nodes_explored=tracker.nodes,
            ) from None
        if found is not None:
            phi, certificate = k, found
            break
    stats = SolveStats(
        tracker.nodes + heur.stats.nodes_explored,
        time.perf_counter() - start,
        "exact",
    )
    return SolveResult(
        phi=phi,
        certificate=certificate,
        infeasible_at=tuple(range(phi + 1, ub + 1)),
        stats=stats,
        exact=True,
    )


def heuristic_b_coloring(
    graph: Graph, deadline: float | None = None
) -> SolveResult:
    """Greedy lower-bound certificate; always returns a verified b-coloring.

    The best of `_eliminate_undominated` over a list of proper colorings: a
    largest-first greedy coloring; on KG(N, 2) with N = 1, 3 (mod 6), the
    triangles of a Steiner triple system (`_steiner_classes`), whose
    N(N-1)/6 colors meet the closed-form bound; then, for each k from
    phi_upper_bound down while k exceeds the best count so far, a seeded
    greedy coloring with k colors (a candidate with k colors keeps at most
    k), until _SEEDED_MISSES attempts in a row give no coloring: on Kneser
    graphs only the first attempt has been seen to succeed, and the later
    ones cost as much. Elimination turns any proper coloring into a
    b-coloring, so the first candidate always gives a result. Once
    `deadline`, a time.monotonic() value, has passed, the current Steiner or
    seeded candidate is abandoned and no other starts; the first candidate
    ignores it. Without a deadline the clock is never read.
    """
    if graph.vertex_count == 0:
        raise ValueError("empty graph rejected")
    start = time.perf_counter()
    steps = [0]
    best = _eliminate_undominated(graph, _greedy_proper(graph, steps), steps)
    classes = _steiner_classes(graph, steps, deadline)
    if classes is not None:
        found = _eliminate_undominated(graph, classes, steps, deadline)
        if found is not None and found.color_count > best.color_count:
            best = found
    k = phi_upper_bound(graph)
    misses = 0
    while k > best.color_count and misses < _SEEDED_MISSES and not _expired(deadline):
        classes = _seeded_proper(graph, k, steps, deadline)
        misses = misses + 1 if classes is None else 0
        if classes is not None:
            found = _eliminate_undominated(graph, classes, steps, deadline)
            if found is not None and found.color_count > best.color_count:
                best = found
        k -= 1
    if not is_b_coloring(graph, best).valid:
        raise RuntimeError("internal error: heuristic produced an invalid coloring")
    return SolveResult(
        phi=best.color_count,
        certificate=best,
        infeasible_at=(),
        stats=SolveStats(steps[0], time.perf_counter() - start, "heuristic"),
        exact=False,
    )


def _largest_first(adj: tuple[int, ...]) -> list[int]:
    return sorted(range(len(adj)), key=lambda v: (-adj[v].bit_count(), v))


def _greedy_proper(graph: Graph, steps: list[int]) -> list[int]:
    """Largest-first greedy proper coloring (ties by vertex index), as one
    vertex mask per class in color order."""
    adj = graph.masks
    classes: list[int] = []
    for v in _largest_first(adj):
        steps[0] += 1
        c = 0
        while c < len(classes) and adj[v] & classes[c]:
            c += 1
        if c == len(classes):
            classes.append(0)
        classes[c] |= 1 << v
    return classes


def _eliminate_undominated(
    graph: Graph,
    classes: list[int],
    steps: list[int],
    deadline: float | None = None,
) -> Coloring | None:
    """Recolor away undominated classes of the proper coloring whose class
    masks are `classes` until it is a b-coloring (Irving & Manlove, Discrete
    Appl. Math. 91, 1999); None when `deadline` passes, checked once per
    round.

    Classes are numbered by least member, as Coloring.from_sequence numbers
    them, and each round empties the first with no dominating vertex. Each
    member of such a class misses some color, and members are pairwise
    non-adjacent, so moving one to a color it misses leaves the others
    missing theirs: the class empties, the color count drops by one and the
    coloring stays proper.
    """
    adj = graph.masks
    classes = list(classes)
    while not _expired(deadline):
        classes.sort(key=lambda cm: cm & -cm)
        for i, cm in enumerate(classes):
            if not any(_sees_all_colors(graph, classes, v) for v in bit_indices(cm)):
                break
        else:
            return Coloring(tuple(class_colors(classes, len(adj))), len(classes))
        for v in bit_indices(classes.pop(i)):
            steps[0] += 1
            closed = adj[v] | (1 << v)
            c = next(c for c, cm in enumerate(classes) if not closed & cm)
            classes[c] |= 1 << v
    return None


def _steiner_triples(ground: int) -> list[tuple[int, int, int]]:
    """A Steiner triple system on the points 0..ground-1, ground = 1, 3
    (mod 6): triples that hold each pair of points exactly once. Bose's
    construction (Ann. Eugenics 9, 1939) for ground = 6t+3 and Skolem's
    (Math. Scand. 6, 1958) for ground = 6t+1, as in Lindner & Rodger, Design
    Theory. Both take the points (x, i) of Z_q x Z_3, numbered 3x + i, and a
    commutative idempotent quasigroup x.y on Z_q, q = 2t+1 for Bose, or a
    half-idempotent one on Z_2t for Skolem; Skolem's extra point, infinity,
    is ground-1."""
    q = ground // 3
    t = q // 2

    def point(x: int, i: int) -> int:
        return 3 * x + i % 3

    if ground % 6 == 3:
        half = (q + 1) // 2  # the inverse of 2 mod q
        triples = [(point(x, 0), point(x, 1), point(x, 2)) for x in range(q)]

        def dot(x: int, y: int) -> int:
            return (x + y) * half % q

    else:
        triples = [(point(x, 0), point(x, 1), point(x, 2)) for x in range(t)]
        triples += [
            (ground - 1, point(x + t, i), point(x, i + 1))
            for x in range(t)
            for i in range(3)
        ]

        def dot(x: int, y: int) -> int:
            s = (x + y) % q
            return s // 2 + t * (s % 2)

    triples += [
        (point(x, i), point(y, i), point(dot(x, y), i + 1))
        for x, y in combinations(range(q), 2)
        for i in range(3)
    ]
    return triples


def _steiner_classes(
    graph: Graph, steps: list[int], deadline: float | None = None
) -> list[int] | None:
    """On KG(N, 2) with N = 1, 3 (mod 6), the triangles of `_steiner_triples`
    as one vertex mask per class: a vertex is a pair of points, and a
    triangle's three pairs meet pairwise. Each vertex placed counts one step.
    None on any other graph, or when `deadline` passes, checked once per
    triangle.

    Every class is dominated, so elimination keeps all N(N-1)/6 of them: a
    pair ab lies in one triangle only, and every other triangle holds at
    most one of a and b, so two of its points form a pair missing both."""
    params = graph.params
    if params is None or params.n != 2 or params.ground_size % 6 not in (1, 3):
        return None
    vertex = {mask: v for v, mask in enumerate(graph.subsets)}
    classes = []
    for triple in _steiner_triples(params.ground_size):
        if _expired(deadline):
            return None
        members = 0
        for a, b in combinations(triple, 2):
            steps[0] += 1
            members |= 1 << vertex[1 << a | 1 << b]
        classes.append(members)
    return classes


def _seeded_proper(
    graph: Graph, k: int, steps: list[int], deadline: float | None = None
) -> list[int] | None:
    """A greedy proper coloring with k colors, as one vertex mask per class
    in color order, each seeded on one of the k largest-first vertices of
    degree >= k-1, each other vertex taking the color that most seed
    neighborhoods around it still miss. None when no such seeds exist, some
    vertex has no color left, or `deadline` passes, checked once per vertex.

    covered[c] is the union of the closed neighborhoods of class c's
    members, which by symmetry holds exactly the vertices whose closed
    neighborhood meets class c; so the seeds around v that still miss c are
    those of N[v] outside covered[c]."""
    adj = graph.masks
    order = _largest_first(adj)
    seeds = [v for v in order if adj[v].bit_count() >= k - 1][:k]
    if len(seeds) < k:
        return None
    classes = [1 << w for w in seeds]
    covered = [adj[w] | (1 << w) for w in seeds]
    seed_mask = sum(classes)
    for v in order:
        if seed_mask >> v & 1:
            continue
        if _expired(deadline):
            return None
        steps[0] += 1
        avail = [c for c in range(k) if not adj[v] & classes[c]]
        if not avail:
            return None
        closed = adj[v] | (1 << v)
        near = closed & seed_mask
        c = max(avail, key=lambda c: ((near & ~covered[c]).bit_count(), -c))
        classes[c] |= 1 << v
        covered[c] |= closed
    return classes
