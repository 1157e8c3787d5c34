"""Kneser graph construction over bitmask-encoded ground-set subsets.

Vertices of KG(2n+k, n) are the n-subsets of {1..2n+k}, each stored as a
plain int bitmask with element i at bit i-1. Two vertices are adjacent iff
the subsets are disjoint, i.e. the bitwise AND is zero.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable

# Materialization cap; counting/bound operations are never capped. At the cap
# the adjacency masks alone would take about 125 GB, so no larger instance can
# be built.
DEFAULT_ENUMERATION_CAP = 1_000_000


class InstanceTooLarge(Exception):
    """Materializing this instance would exceed a configured cap."""


def bit_indices(mask: int) -> tuple[int, ...]:
    """0-indexed positions of the set bits of a nonnegative mask, ascending."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return tuple(out)


@dataclass(frozen=True)
class KneserParams:
    """Parameters (n, k) of KG(2n+k, n): n-subsets of a ground set of size 2n+k."""

    n: int
    k: int

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError("n must be a positive integer")
        if self.k < 0:
            raise ValueError("k must be a nonnegative integer")

    @property
    def ground_size(self) -> int:
        return 2 * self.n + self.k

    @property
    def vertex_count(self) -> int:
        return math.comb(self.ground_size, self.n)

    @property
    def degree(self) -> int:
        return math.comb(self.n + self.k, self.n)


class Graph:
    """Immutable undirected graph with index-addressable vertices in canonical order.

    The adjacency is one int bitmask per vertex: bit u of masks[v] is set iff
    uv is an edge. A Kneser graph also carries `subsets`, the int mask of the
    ground-set subset labelling each vertex (element i at bit i-1), and its
    generating `params`. Nothing mutates after construction.

    The constructor adopts masks that the caller guarantees symmetric,
    loop-free and in range; `from_edges` checks edges that come from elsewhere.
    """

    __slots__ = ("masks", "edge_count", "subsets", "params")

    def __init__(
        self,
        masks: Iterable[int],
        subsets: Iterable[int] | None = None,
        params: KneserParams | None = None,
    ) -> None:
        self.masks = tuple(masks)
        self.edge_count = sum(m.bit_count() for m in self.masks) // 2
        if subsets is not None:
            subsets = tuple(subsets)
            if len(subsets) != len(self.masks):
                raise ValueError("subset labels do not match vertex count")
        self.subsets = subsets
        self.params = params

    @classmethod
    def from_edges(cls, vertex_count: int, edges: Iterable[tuple[int, int]]) -> Graph:
        masks = [0] * vertex_count
        for u, v in edges:
            if u == v:
                raise ValueError(f"self-loop at vertex {u}")
            if not (0 <= u < vertex_count and 0 <= v < vertex_count):
                raise ValueError(f"edge ({u}, {v}) has an endpoint out of range")
            masks[u] |= 1 << v
            masks[v] |= 1 << u
        return cls(masks)

    @property
    def vertex_count(self) -> int:
        return len(self.masks)

    def degrees(self) -> tuple[int, ...]:
        return tuple(m.bit_count() for m in self.masks)

    def __repr__(self) -> str:
        return f"Graph(vertices={self.vertex_count}, edges={self.edge_count})"


def enumerate_vertices(params: KneserParams) -> list[int]:
    """All n-subsets of {1..2n+k} as int masks (element i at bit i-1), in
    increasing integer order.

    The order is colexicographic and deterministic; it defines the canonical
    vertex indexing used everywhere (files, certificates, solver output).
    """
    if params.vertex_count > DEFAULT_ENUMERATION_CAP:
        raise InstanceTooLarge(
            f"instance too large: {params.vertex_count} vertices exceed the "
            f"enumeration cap {DEFAULT_ENUMERATION_CAP}"
        )
    # Gosper's hack walks all popcount-n masks in increasing integer order.
    out = []
    x = (1 << params.n) - 1
    limit = 1 << params.ground_size
    while x < limit:
        out.append(x)
        u = x & -x
        v = x + u
        x = v | (((x ^ v) >> 2) // u)
    return out


def build_graph(params: KneserParams) -> Graph:
    """Materialize KG(2n+k, n) with edges joining disjoint subsets."""
    verts = enumerate_vertices(params)
    # containing[e]: mask of the vertices whose subset holds element e+1; a
    # vertex is adjacent to exactly those containing none of its elements.
    containing = [0] * params.ground_size
    for i, v in enumerate(verts):
        for e in bit_indices(v):
            containing[e] |= 1 << i
    full = (1 << len(verts)) - 1
    masks = []
    for v in verts:
        meets = 0
        for e in bit_indices(v):
            meets |= containing[e]
        masks.append(full & ~meets)
    graph = Graph(masks, verts, params)
    if 2 * graph.edge_count != params.vertex_count * params.degree:
        raise RuntimeError("internal error: edge count violates regularity")
    return graph
