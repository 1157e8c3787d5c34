"""Independent reference implementations used as test oracles.

Deliberately naive: plain sets and unpruned restricted-growth-string
enumeration, sharing no code or data structures with the package under test.
"""

from __future__ import annotations

from itertools import combinations


def adjacency_sets(graph) -> list[set[int]]:
    """Extract plain adjacency sets from a package Graph."""
    return [set(graph.neighbors(v)) for v in range(graph.vertex_count)]


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
