"""Independent reference implementations used as test oracles.

Deliberately naive: plain sets and unpruned restricted-growth-string
enumeration, sharing no code or data structures with the package under test.
The one exception is `reference_search_with_seeds`, the exact search's kernel
as it was before its per-vertex checks were hoisted out of the color loop and
before it propagated forced witnesses at the root: it runs on the package's
budget tracker, so that both kernels can be compared tuple for tuple.
"""

from __future__ import annotations

from functools import reduce
from itertools import combinations
from operator import or_

from bkneser.kneser import bit_indices
from bkneser.solver import _CLOCK_EVERY, _BudgetTracker, _expired, _StopSearch


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
