"""Reference code the benchmark checks the program against.

Standard library only, and shares nothing with ``bkneser``: the Kneser
construction, the G(n, p) generator, DIMACS and certificate I/O, the
(k+2)-coloring certificate, sound upper bounds and a b-coloring verifier
built on plain sets. Vertices are 0-indexed here and 1-indexed in files.
"""

from __future__ import annotations

import json
import random
from itertools import combinations
from math import comb


class Graph:
    """Plain undirected graph: vertex count plus one neighbour set per vertex."""

    def __init__(self, vertex_count: int, edges) -> None:
        self.vertex_count = vertex_count
        self.adj = [set() for _ in range(vertex_count)]
        for u, v in edges:
            if u == v or not (0 <= u < vertex_count and 0 <= v < vertex_count):
                raise ValueError(f"bad edge ({u}, {v})")
            self.adj[u].add(v)
            self.adj[v].add(u)

    def edge_set(self) -> set[tuple[int, int]]:
        return {(u, v) for u in range(self.vertex_count) for v in self.adj[u] if u < v}


# ---------------------------------------------------------------------------
# inputs


def kneser_subsets(n: int, k: int) -> list[frozenset[int]]:
    """n-subsets of {1..2n+k} in canonical order: ascending bitmask value with
    element 1 as the least significant bit."""
    ground = 2 * n + k
    subsets = [frozenset(c) for c in combinations(range(1, ground + 1), n)]
    subsets.sort(key=lambda s: sum(1 << (e - 1) for e in s))
    return subsets


def kneser_graph(n: int, k: int) -> Graph:
    """KG(2n+k, n): subsets joined when they are disjoint."""
    subsets = kneser_subsets(n, k)
    edges = [
        (i, j)
        for i, j in combinations(range(len(subsets)), 2)
        if subsets[i].isdisjoint(subsets[j])
    ]
    return Graph(len(subsets), edges)


def gnp_graph(vertex_count: int, p: float, rng: random.Random) -> Graph:
    """Erdos-Renyi G(n, p): each pair is an edge with probability p."""
    edges = [
        (u, v) for u, v in combinations(range(vertex_count), 2) if rng.random() < p
    ]
    return Graph(vertex_count, edges)


def relabeled(graph: Graph, rng: random.Random) -> tuple[Graph, list[int]]:
    """Isomorphic copy under a random vertex permutation, and the permutation:
    vertex v of `graph` is vertex perm[v] of the copy."""
    perm = list(range(graph.vertex_count))
    rng.shuffle(perm)
    return Graph(graph.vertex_count, [(perm[u], perm[v]) for u, v in graph.edge_set()]), perm


# ---------------------------------------------------------------------------
# files


def dimacs_text(graph: Graph, tag: tuple[int, int] | None = None) -> str:
    """DIMACS edge file; untagged graphs are read by the program as plain."""
    edges = sorted(graph.edge_set())
    lines = [] if tag is None else [f"c kneser n={tag[0]} k={tag[1]}"]
    lines.append(f"p edge {graph.vertex_count} {len(edges)}")
    lines += [f"e {u + 1} {v + 1}" for u, v in edges]
    return "\n".join(lines) + "\n"


def read_dimacs(path) -> tuple[int, list[tuple[int, int]], tuple[int, int] | None]:
    """Vertex count, 0-indexed edges as stored, and the Kneser tag if present."""
    vertex_count = None
    tag = None
    edges = []
    with open(path) as fh:
        for line in fh:
            parts = line.split()
            if not parts:
                continue
            if parts[0] == "c" and len(parts) == 4 and parts[1] == "kneser":
                tag = (int(parts[2].removeprefix("n=")), int(parts[3].removeprefix("k=")))
            elif parts[0] == "p":
                vertex_count = int(parts[2])
            elif parts[0] == "e":
                edges.append((int(parts[1]) - 1, int(parts[2]) - 1))
    if vertex_count is None:
        raise ValueError(f"{path}: no problem line")
    return vertex_count, edges, tag


def certificate_text(colors: list[int], params: tuple[int, int] | None) -> str:
    """Certificate JSON as frozen in docs/SCHEMAS.md."""
    return json.dumps(
        {
            "params": None if params is None else {"n": params[0], "k": params[1]},
            "vertex_count": len(colors),
            "colors": list(colors),
            "claimed_b_coloring": True,
        }
    )


# ---------------------------------------------------------------------------
# certificates and checks


def chi_coloring(n: int, k: int, subsets: list[frozenset[int]], order: list[int]) -> list[int]:
    """The (k+2)-coloring of KG(2n+k, n) behind Lovasz's chi = k+2.

    Ground elements are ranked by `order` (a permutation of 1..2n+k). Vertex S
    gets the rank of its lowest-ranked element when that rank is at most k+1,
    and colour k+2 otherwise: the subsets left over all lie inside the last
    2n-1 elements, so any two of them meet. Colours are written 0-indexed.
    """
    rank = {e: r for r, e in enumerate(order, start=1)}
    out = []
    for s in subsets:
        low = min(rank[e] for e in s)
        out.append(min(low, k + 2) - 1)
    return out


def b_coloring_verdict(graph: Graph, colors: list[int]) -> str | None:
    """None when `colors` is a b-coloring of `graph`, else the reason.

    Proper: no edge inside a class. Dominated: every class holds a vertex
    whose closed neighbourhood sees every colour in use.
    """
    if len(colors) != graph.vertex_count:
        return f"coloring covers {len(colors)} vertices, graph has {graph.vertex_count}"
    palette = set(colors)
    for u in range(graph.vertex_count):
        for v in graph.adj[u]:
            if colors[u] == colors[v]:
                return f"not_proper: edge ({u}, {v}) inside colour {colors[u]}"
    for c in palette:
        if not any(
            colors[v] == c and {colors[u] for u in graph.adj[v]} | {c} == palette
            for v in range(graph.vertex_count)
        ):
            return f"missing_dominating_vertex: colour {c}"
    return None


def degree_bound(graph: Graph) -> int:
    """Largest m with m vertices of degree at least m-1: a b-coloring with m
    colours needs one such vertex per class."""
    degrees = sorted((len(a) for a in graph.adj), reverse=True)
    m = 0
    while m < len(degrees) and degrees[m] >= m:
        m += 1
    return m


def kneser_upper_bound(n: int, k: int) -> int:
    """The closed-form bounds on phi(KG(2n+k, n)), recomputed here: d+1 for a
    d-regular graph, the counting bound floor((|V| + 2(2n+k)) / 3), and, for
    n >= 2 when |V| <= 2d+2, the d-i bound ceil((|V| - 2) / 2)."""
    vertices = comb(2 * n + k, n)
    degree = comb(n + k, n)
    bound = min(degree + 1, (vertices + 2 * (2 * n + k)) // 3)
    if n >= 2 and vertices <= 2 * degree + 2:
        bound = min(bound, (vertices - 1) // 2)
    return bound
