"""Independent reference implementations used as test oracles.

Deliberately naive: plain sets and unpruned restricted-growth-string
enumeration, sharing no code or data structures with the package under test.
The exceptions are seven earlier versions of package code. One is
`reference_search_with_seeds`, the exact search's kernel as it was before its
per-vertex checks were hoisted out of the color loop and before it propagated
forced witnesses at the root: it runs on the package's budget tracker, so that
both kernels can be compared tuple for tuple. Another is
`reference_seeded_proper`, the heuristic's seeded coloring before it kept its
covered seeds as masks: it uses the package's vertex order and clock check,
so that both can be compared coloring for coloring and step for step. The
third is `reference_eliminate_undominated`, the heuristic's elimination as it
was when it took a colors list and re-verified the whole coloring with
`is_b_coloring` each round: it uses the package's verifier and clock check,
so that both can be compared coloring for coloring and step for step. The
fourth is `reference_brute_force_phi`, the brute-force oracle as it was when
it enumerated every proper restricted-growth string over at most the degree
bound's blocks in one pass and tested domination at the leaves: it uses the
package's degree bound, so that both can be compared answer for answer and
certificate for certificate. The fifth is `reference_dimacs_read_lines`, the
DIMACS line loop as it was when it parsed every edge endpoint with `int()`:
it uses the package's patterns, graph type and Kneser build, so that both
loops can be compared graph for graph and error message for error message.
The sixth is `reference_heuristic_b_coloring`, the heuristic as it was when
it tried a seeded candidate for every k from the upper bound down while k
exceeded the best count: it uses the package's candidates, elimination and
verifier, so that both schedules can be compared certificate for
certificate. The seventh is `generate`, the orbit generator the package once
used for its seed tuples: it uses the package's vertex order, so that its
canonical forms can be compared with the seed tuples of a Kneser graph.
"""

from __future__ import annotations

import time
from functools import reduce
from itertools import combinations
from operator import and_, or_
from typing import Iterable

from bkneser.bcoloring import BColoringFailure, Coloring, class_masks, is_b_coloring
from bkneser.formats import _KNESER_COMMENT, _PROBLEM_LINE, _kneser_counts_are
from bkneser.kneser import (
    Graph,
    KneserParams,
    bit_indices,
    build_graph,
    check_enumeration_cap,
    enumerate_vertices,
)
from bkneser.solver import (
    _CLOCK_EVERY,
    _BudgetTracker,
    _eliminate_undominated,
    _expired,
    _greedy_proper,
    _largest_first,
    _seeded_proper,
    _StopSearch,
    degree_bound,
    phi_upper_bound,
    SolveResult,
    SolveStats,
)


def adjacency_sets(graph) -> list[set[int]]:
    """Extract plain adjacency sets from the masks of a package Graph."""
    out = []
    for m in graph.masks:
        ns = set()
        while m:
            low = m & -m
            ns.add(low.bit_length() - 1)
            m ^= low
        out.append(ns)
    return out


def set_partitions(n: int, max_blocks: int | None = None):
    """Yield every partition of range(n) as a restricted-growth string."""
    if n == 0:
        return
    a = [0] * n

    def rec(i: int, used: int):
        if i == n:
            yield tuple(a)
            return
        limit = used + 1 if (max_blocks is None or used < max_blocks) else used
        for b in range(limit):
            a[i] = b
            yield from rec(i + 1, max(used, b + 1))

    yield from rec(0, 0)


def naive_is_proper(adj: list[set[int]], colors) -> bool:
    return all(colors[u] != colors[v] for u in range(len(adj)) for v in adj[u])


def naive_dominating(adj: list[set[int]], colors, color: int) -> set[int]:
    count = max(colors) + 1
    full = set(range(count))
    out = set()
    for v in range(len(adj)):
        if colors[v] != color:
            continue
        seen = {colors[u] for u in adj[v]} | {colors[v]}
        if seen == full:
            out.add(v)
    return out


def naive_is_b_coloring(adj: list[set[int]], colors) -> bool:
    if not naive_is_proper(adj, colors):
        return False
    count = max(colors) + 1
    if set(colors) != set(range(count)):
        return False
    return all(naive_dominating(adj, colors, c) for c in range(count))


def naive_phi(adj: list[set[int]]) -> tuple[int, tuple[int, ...]]:
    """Maximum color count over all b-colorings, by full enumeration."""
    n = len(adj)
    best = 0
    witness: tuple[int, ...] = ()
    for colors in set_partitions(n):
        k = max(colors) + 1
        if k > best and naive_is_b_coloring(adj, colors):
            best = k
            witness = colors
    return best, witness


def proper_partitions(adj: list[set[int]], blocks: int):
    """All canonical partitions into exactly `blocks` proper color classes."""
    for colors in set_partitions(len(adj), max_blocks=blocks):
        if max(colors) + 1 == blocks and naive_is_proper(adj, colors):
            yield colors


def naive_feasible_k(adj: list[set[int]], k: int) -> bool:
    """Does a b-coloring with exactly k colors exist? Full enumeration."""
    return any(
        naive_is_b_coloring(adj, colors) for colors in proper_partitions(adj, k)
    )


def kneser_vertices(ground: int, m: int) -> list[frozenset[int]]:
    """m-subsets of {1..ground} sorted by bitmask value (element 1 = bit 0)."""
    subsets = [frozenset(c) for c in combinations(range(1, ground + 1), m)]
    return sorted(subsets, key=lambda s: sum(1 << (e - 1) for e in s))


def kneser_edges(vertices: list[frozenset[int]]) -> set[tuple[int, int]]:
    return {
        (i, j)
        for i in range(len(vertices))
        for j in range(i + 1, len(vertices))
        if not vertices[i] & vertices[j]
    }


def naive_dimacs(graph) -> str:
    """The DIMACS text `gen` writes: one f-string per edge over the sorted
    edge list, each edge as (lower, higher) endpoint, 1-indexed."""
    adj = adjacency_sets(graph)
    edges = sorted((u, v) for u in range(len(adj)) for v in adj[u] if u < v)
    params = graph.params
    tag = "" if params is None else f"c kneser n={params.n} k={params.k}\n"
    lines = [f"e {u + 1} {v + 1}\n" for u, v in edges]
    return tag + f"p edge {len(adj)} {len(edges)}\n" + "".join(lines)


def point_signatures(family, ground: int) -> list[tuple]:
    """Per point: how many subsets hold it, and for each of those subsets
    the sorted counts of its other points. A permutation mapping one family
    onto another maps each point to a point of equal signature."""
    held = [sum(p in s for s in family) for p in range(ground)]
    signatures = []
    for p in range(ground):
        seen = sorted(tuple(sorted(held[q] for q in s - {p})) for s in family if p in s)
        signatures.append((held[p], tuple(seen)))
    return signatures


def isomorphic_families(a, b, ground: int) -> bool:
    """Does some permutation of range(ground) map the family of subsets `a`
    onto `b`? Backtracking over the image of each point in turn, pruned by
    point signatures and by the subsets whose points are all placed."""
    a = [frozenset(s) for s in a]
    b = {frozenset(s) for s in b}
    if len(a) != len(b):
        return False
    sig_a, sig_b = point_signatures(a, ground), point_signatures(b, ground)
    if sorted(sig_a) != sorted(sig_b):
        return False
    closed_at = [[s for s in a if max(s) == p] for p in range(ground)]
    image: dict[int, int] = {}

    def place(p: int) -> bool:
        if p == ground:
            return True
        for q in range(ground):
            if q in image.values() or sig_b[q] != sig_a[p]:
                continue
            image[p] = q
            if all(frozenset(image[x] for x in s) in b for s in closed_at[p]):
                if place(p + 1):
                    return True
            del image[p]
        return False

    return place(0)


# The orbit generator the package once used to pick one seed tuple per
# S_N-orbit, kept as the reference for the seed-tuple filter of `solver`.
#
# The symmetric group on the ground set [N] = {0..N-1} acts on the n-subsets
# of [N], so on every k-set of them: for n = 2 such a k-set is a graph with k
# edges on N points, and its orbit is its isomorphism class. Here an n-subset
# is a point mask (point p at bit p) and a k-set, a "family", is a sorted
# tuple of them; sorted point masks follow the vertex order of KG(N, n).
#
# Canonical form: partition refinement with individualization (McKay,
# Practical graph isomorphism, Congr. Numer. 30, 1981). An ordered partition
# of [N] is refined until no cell splits by the multiset of cells its points
# share a subset with; new cells are ordered by that multiset, so refinement
# commutes with every permutation of [N]. A cell of several points is split
# by putting each of its points first in turn. Every discrete leaf orders
# [N], the last cell taking label 0, and so relabels the family; the
# canonical form is the least relabeled family. The tree, and so the form,
# depend only on the orbit. Two points whose transposition fixes the family
# (twins) root subtrees that the transposition maps onto each other, so only
# one of them is put first at a node. Labeling from the last cell gives the
# points that meet the most subsets the smallest labels, so a form sits on
# the first vertices of KG(N, n), which the exact search colors first.
#
# Generation: level j+1 is the set of the forms of the children X + e of the
# level-j forms X. Every (j+1)-set Y is such a child up to isomorphism: Y
# less one member is a j-set, so some permutation maps it onto a level-j form
# X, and so maps Y onto X + e for some e. Equal forms are one orbit, since a
# form is a member of its own orbit, and isomorphic children have equal
# forms. So the set holds exactly one form per level-(j+1) orbit. A
# permutation within the twin classes of X fixes X, so children X + e whose e
# meet the same twin classes are isomorphic, and one e per class is enough.

Family = tuple[int, ...]


def _twins(members: Family, ground: int) -> list[int]:
    """twin[p]: the least point whose transposition with p fixes the family.
    Products of automorphisms are automorphisms, so this is an equivalence."""
    family = set(members)
    twin = list(range(ground))
    for v in range(ground):
        for u in range(v):
            if twin[u] != u:
                continue
            swap = (1 << u) | (1 << v)
            swapped = {m ^ swap if (m >> u & 1) != (m >> v & 1) else m for m in family}
            if swapped == family:
                twin[v] = u
                break
    return twin


def _twin_class(mask: int, twin: list[int]) -> tuple[int, ...]:
    """The subsets that permutations within twin classes map onto each
    other share this key."""
    return tuple(sorted(twin[q] for q in bit_indices(mask)))


def _refine(
    cells: list[list[int]], others: list[list[tuple[int, ...]]]
) -> list[list[int]]:
    """Split cells until all points of a cell see the same multiset of cell
    tuples through the subsets holding them; others[p] lists, for each subset
    holding p, its other points."""
    cell_of = [0] * len(others)
    while True:
        for i, cell in enumerate(cells):
            for p in cell:
                cell_of[p] = i
        out = []
        for cell in cells:
            if len(cell) == 1:
                out.append(cell)
                continue
            keyed = sorted(
                (sorted(tuple(sorted(cell_of[q] for q in o)) for o in others[p]), p)
                for p in cell
            )
            group = [keyed[0][1]]
            for (a, _), (b, p) in zip(keyed, keyed[1:]):
                if a != b:
                    out.append(group)
                    group = []
                group.append(p)
            out.append(group)
        if len(out) == len(cells):
            return out
        cells = out


def _canonical(members: Family, ground: int) -> Family:
    """The canonical form of a family of subsets of [ground]."""
    others = [
        [tuple(q for q in bit_indices(m) if q != p) for m in members if m >> p & 1]
        for p in range(ground)
    ]
    twin = _twins(members, ground)
    best: Family | None = None

    def search(cells: list[list[int]]) -> None:
        nonlocal best
        cells = _refine(cells, others)
        target = next((i for i, c in enumerate(cells) if len(c) > 1), None)
        if target is None:
            label = [0] * ground
            for i, (p,) in enumerate(cells):
                label[p] = ground - 1 - i
            form = tuple(
                sorted(sum(1 << label[q] for q in bit_indices(m)) for m in members)
            )
            if best is None or form < best:
                best = form
            return
        tried = set()
        for v in cells[target]:
            if twin[v] not in tried:
                tried.add(twin[v])
                rest = [p for p in cells[target] if p != v]
                search(cells[:target] + [[v], rest] + cells[target + 1:])

    search([list(range(ground))])
    return best


def generate(ground: int, n: int, top_level: int) -> list[list[Family]]:
    """levels[j-1]: the canonical forms, ascending, of the S_ground-orbits of
    j-sets of n-subsets of [ground], for j = 1..top_level."""
    subsets = enumerate_vertices(KneserParams(n, ground - 2 * n))
    levels: list[list[Family]] = []
    parents: list[Family] = [()]
    for _ in range(top_level):
        children: set[Family] = set()
        for parent in parents:
            twin = _twins(parent, ground)
            tried = set()
            for e in subsets:
                key = _twin_class(e, twin)
                if e not in parent and key not in tried:
                    tried.add(key)
                    children.add(_canonical(parent + (e,), ground))
        parents = sorted(children)
        levels.append(parents)
    return levels


def reference_search_with_seeds(
    adj: tuple[int, ...], k: int, seeds: tuple[int, ...], tracker: _BudgetTracker
) -> list[int] | None:
    """Extend seed colors 0..k-1 on `seeds` to a full coloring where every
    seed dominates its class; None when this branch is exhausted.

    The state is kept per color: colored[c] holds the vertices colored c and
    allow[c] the uncolored vertices that may still take c. A seed stays
    viable while its closed neighborhood meets colored[c] | allow[c] for
    every c.
    """
    colored = [1 << w for w in seeds]
    free = (1 << len(adj)) - 1 - sum(colored)
    allow = [free & ~adj[w] for w in seeds]
    if free & ~reduce(or_, allow):
        return None
    closed = [adj[w] | (1 << w) for w in seeds]
    for c in range(k):
        reach_c = colored[c] | allow[c]
        for cw in closed:
            if not cw & reach_c:
                return None

    order = bit_indices(free)
    max_nodes, deadline = tracker.budget.max_nodes, tracker.deadline

    def extend(pos: int) -> bool:
        """Color order[pos:]. After coloring v with c, the branch stays open
        while no vertex lost its last color and no seed lost a color. Only c
        (through hit) and, at v, the other colors v allowed became scarcer,
        and every seed was viable before, so only those are rechecked."""
        if pos == len(order):
            return True
        v = order[pos]
        vbit = 1 << v
        adj_v = adj[v]
        # the closed seed neighborhoods holding v
        near_v = [cw for cw in closed if cw & vbit]
        mine = [c for c in range(k) if allow[c] & vbit]
        for c in mine:
            tracker.nodes += 1
            if tracker.nodes > max_nodes or (
                not tracker.nodes % _CLOCK_EVERY and _expired(deadline)
            ):
                raise _StopSearch
            for d in mine:
                allow[d] ^= vbit
            colored[c] |= vbit
            hit = allow[c] & adj_v
            allow[c] ^= hit
            ok = True  # the viability test, inline: it runs at every node
            if hit:
                if hit & ~reduce(or_, allow):
                    ok = False
                else:
                    reach_c = colored[c] | allow[c]
                    for cw in closed:
                        if not cw & reach_c:
                            ok = False
                            break
            if ok and near_v:
                for d in mine:
                    if d != c:
                        reach_d = colored[d] | allow[d]
                        for cw in near_v:
                            if not cw & reach_d:
                                ok = False
                                break
                        if not ok:
                            break
            if ok and extend(pos + 1):
                return True
            allow[c] |= hit
            colored[c] ^= vbit
            for d in mine:
                allow[d] |= vbit
        return False

    if not extend(0):
        return None
    color = [0] * len(adj)
    for c, members in enumerate(colored):
        for v in bit_indices(members):
            color[v] = c
    return color


def reference_seeded_proper(
    graph, k: int, steps: list[int], deadline: float | None = None
) -> list[int] | None:
    """`_seeded_proper` as it was before it kept a covered-seed mask per
    color: it rescans every seed neighborhood around a vertex for each color
    the vertex may take."""
    adj = graph.masks
    order = _largest_first(adj)
    seeds = [v for v in order if adj[v].bit_count() >= k - 1][:k]
    if len(seeds) < k:
        return None
    colors = [-1] * len(adj)
    classes = [1 << w for w in seeds]
    for i, w in enumerate(seeds):
        colors[w] = i
    seed_closed = [adj[w] | (1 << w) for w in seeds]
    for v in order:
        if colors[v] >= 0:
            continue
        if _expired(deadline):
            return None
        steps[0] += 1
        avail = [c for c in range(k) if not adj[v] & classes[c]]
        if not avail:
            return None
        near = [cw for cw in seed_closed if cw >> v & 1]
        c = max(avail, key=lambda c: (sum(not cw & classes[c] for cw in near), -c))
        colors[v] = c
        classes[c] |= 1 << v
    return colors


def reference_eliminate_undominated(
    graph,
    colors: list[int],
    steps: list[int],
    deadline: float | None = None,
) -> Coloring | None:
    """Recolor away undominated classes of the proper coloring `colors`
    until it is a b-coloring (Irving & Manlove, Discrete Appl. Math. 91,
    1999); None when `deadline` passes, checked once per round.

    Each member of a class with no dominating vertex misses some color, and
    members are pairwise non-adjacent, so moving one to a color it misses
    leaves the others missing theirs: the class empties, the color count
    drops by one and the coloring stays proper.
    """
    adj = graph.masks
    for _ in range(max(colors) + 2):
        if _expired(deadline):
            return None
        coloring = Coloring.from_sequence(colors)
        verdict = is_b_coloring(graph, coloring)
        if verdict.valid:
            return coloring
        if verdict.reason is not BColoringFailure.MISSING_DOMINATING_VERTEX:
            raise RuntimeError("internal error: base coloring lost properness")
        colors = list(coloring.colors)
        classes = class_masks(colors, coloring.color_count)
        failing = verdict.failing_color
        for v in bit_indices(classes[failing]):
            steps[0] += 1
            closed = adj[v] | (1 << v)
            missing = next((c for c, cm in enumerate(classes) if not closed & cm), None)
            if missing is None:
                break  # class became dominated; re-verify from the top
            classes[failing] ^= 1 << v
            classes[missing] |= 1 << v
            colors[v] = missing
    raise RuntimeError("internal error: undominated-class elimination diverged")


def reference_brute_force_phi(graph) -> tuple[int, tuple[int, ...], tuple[int, ...], int]:
    """`brute_force_phi` as it was before its descending exact-k passes:
    (phi, infeasible_at, certificate colors, nodes).

    Canonical colorings are restricted-growth strings over at most
    degree_bound(graph) blocks, pruned only by properness; domination is
    decided at complete assignments. Each block keeps a reach mask, the
    vertices whose closed neighborhood meets it, and a complete assignment
    is a b-coloring when every block meets the AND of all reach masks.
    The leaves are tested in their parent's loop over the last vertex v,
    with no call per leaf: placing v in proper block i ORs closed(v) into
    reach[i] for one AND, and opening a new block ANDs closed(v) onto the
    others. A leaf is tested only while no b-coloring with its block count
    is recorded, so the first dominated leaf of each count in enumeration
    order is the one recorded, and a parent whose leaves all have recorded
    counts tests nothing.
    """
    n = graph.vertex_count
    ub = degree_bound(graph)
    adj = graph.masks
    last = n - 1

    colors = [-1] * n
    block_masks: list[int] = []
    # reach[i]: vertices whose closed neighborhood meets block i
    reach: list[int] = []
    found: dict[int, tuple[int, ...]] = {}
    nodes = 0

    def dominated(dom: int) -> bool:
        """Every block meets dom, the AND of all reach masks."""
        for bm in block_masks:
            if not bm & dom:
                return False
        return True

    def descend(v: int) -> None:
        nonlocal nodes
        nodes += 1
        vbit = 1 << v
        adj_v = adj[v]
        closed = adj_v | vbit
        if v == last:
            # the leaves under this parent, tested in place
            b = len(block_masks)
            if b not in found:
                for i, bm in enumerate(block_masks):
                    if bm & adj_v:
                        continue
                    seen = reach[i]
                    reach[i] = seen | closed
                    block_masks[i] = bm | vbit
                    hit = dominated(reduce(and_, reach))
                    block_masks[i] = bm
                    reach[i] = seen
                    if hit:
                        colors[v] = i
                        found[b] = tuple(colors)
                        break
            if b < ub and b + 1 not in found:
                block_masks.append(vbit)
                if dominated(reduce(and_, reach, closed)):
                    colors[v] = b
                    found[b + 1] = tuple(colors)
                block_masks.pop()
            colors[v] = -1
            return
        for i, bm in enumerate(block_masks):
            if not bm & adj_v:
                colors[v] = i
                block_masks[i] = bm | vbit
                seen = reach[i]
                reach[i] = seen | closed
                descend(v + 1)
                reach[i] = seen
                block_masks[i] = bm
        if len(block_masks) < ub:
            colors[v] = len(block_masks)
            block_masks.append(vbit)
            reach.append(closed)
            descend(v + 1)
            reach.pop()
            block_masks.pop()
        colors[v] = -1

    descend(0)
    phi = max(found)
    return phi, tuple(range(phi + 1, ub + 1)), found[phi], nodes


def reference_heuristic_b_coloring(
    graph: Graph, deadline: float | None = None
) -> SolveResult:
    """Greedy lower-bound certificate; always returns a verified b-coloring.

    The best of `_eliminate_undominated` over a list of proper colorings: a
    largest-first greedy coloring, then, for each k from phi_upper_bound
    down while k exceeds the best count so far, a seeded greedy coloring
    with k colors (a candidate with k colors keeps at most k). Elimination
    turns any proper coloring into a b-coloring, so the first candidate
    always gives a result. Once `deadline`, a time.monotonic() value, has
    passed, the current seeded candidate is abandoned and no other starts;
    the first candidate ignores it. Without a deadline the clock is never
    read.
    """
    if graph.vertex_count == 0:
        raise ValueError("empty graph rejected")
    start = time.perf_counter()
    steps = [0]
    best = _eliminate_undominated(graph, _greedy_proper(graph, steps), steps)
    k = phi_upper_bound(graph)
    while k > best.color_count and not _expired(deadline):
        classes = _seeded_proper(graph, k, steps, deadline)
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


def reference_dimacs_read_lines(lines: Iterable[str]) -> Graph:
    """Parse a DIMACS edge file in one pass over its lines. The one `p` line
    comes before the first edge line, declares at most the enumeration cap's
    vertices, and bounds every endpoint; each edge is folded into per-vertex
    masks as it is read. No line is kept, so memory grows with the graph,
    not with the file. A file tagged with Kneser parameters must hold
    exactly the edges those parameters build."""
    vertices: int | None = None
    edges = 0
    params: KneserParams | None = None
    masks: list[int] = []
    edge_lines = 0
    for line in lines:
        parts = line.split()
        if len(parts) == 3 and parts[0] == "e":
            if vertices is None:
                raise ValueError(
                    f"edge line before the 'p edge' header: {line.strip()!r}"
                )
            try:
                u, v = int(parts[1]), int(parts[2])
            except ValueError:
                raise ValueError(f"malformed edge line: {line.strip()!r}") from None
            if u == v or u < 1 or v < 1:
                raise ValueError(f"invalid edge {u} {v}")
            if u > vertices or v > vertices:
                bad = u if u > vertices else v
                raise ValueError(f"edge endpoint {bad} exceeds vertex count")
            masks[u - 1] |= 1 << (v - 1)
            masks[v - 1] |= 1 << (u - 1)
            edge_lines += 1
            continue
        if not parts:
            continue
        line = line.strip()
        first = line[0]
        if first == "c":
            m = _KNESER_COMMENT.match(line)
            if m:
                if params is not None:
                    raise ValueError(f"repeated kneser tag: {line!r}")
                params = KneserParams(int(m.group(1)), int(m.group(2)))
        elif first == "p":
            if vertices is not None:
                raise ValueError(f"repeated problem line: {line!r}")
            m = _PROBLEM_LINE.match(line)
            if not m:
                raise ValueError(f"malformed problem line: {line!r}")
            vertices, edges = int(m.group(1)), int(m.group(2))
            check_enumeration_cap(vertices)
            masks = [0] * vertices
        elif first == "e":
            # a wrong token count, or a first token such as `e1` or `edge`
            raise ValueError(f"malformed edge line: {line!r}")
        else:
            raise ValueError(f"unrecognized DIMACS line: {line!r}")
    if vertices is None:
        raise ValueError("missing 'p edge' header")
    graph = Graph(masks)
    if graph.edge_count != edges:
        raise ValueError(
            f"edge count mismatch: declared {edges}, found {graph.edge_count}"
        )
    if edge_lines != graph.edge_count:
        raise ValueError(
            f"repeated edge: {edge_lines} edge lines name "
            f"{graph.edge_count} distinct edges"
        )
    if params is not None:
        # a tag that disagrees with the p line is rejected before its graph
        # is built
        expected = None
        if _kneser_counts_are(params, vertices, edges):
            expected = build_graph(params)
        if expected is None or expected.masks != graph.masks:
            raise ValueError(
                f"edge list does not match kneser n={params.n} k={params.k}"
            )
        return expected
    return graph
