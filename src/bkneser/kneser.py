"""Kneser graph construction over bitset-encoded ground-set subsets.

Vertices of KG(2n+k, n) are the n-subsets of {1..2n+k}, stored as integer
bitmasks with element i at bit i-1. Two vertices are adjacent iff the
subsets are disjoint, i.e. the bitwise AND is zero.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Iterator

# Bitset vertices fit one machine word; larger ground sets are formula-only.
MAX_BITSET_GROUND_SIZE = 64
# Materialization cap; counting/bound operations are never capped. At the cap
# the adjacency masks alone would take about 125 GB, so no larger instance can
# be built.
DEFAULT_ENUMERATION_CAP = 1_000_000


class InstanceTooLarge(Exception):
    """Materializing this instance would exceed a configured cap."""


def binomial(a: int, b: int) -> int:
    """Exact C(a, b) as an arbitrary-precision integer; zero when b > a."""
    if a < 0 or b < 0:
        raise ValueError("binomial requires nonnegative arguments")
    return math.comb(a, b)


def bit_indices(mask: int) -> tuple[int, ...]:
    """0-indexed positions of the set bits of a nonnegative mask, ascending."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return tuple(out)


@dataclass(frozen=True)
class VertexSubset:
    """Subset of the ground set {1..ground_size}; element i stored at bit i-1."""

    bits: int
    ground_size: int

    def __post_init__(self) -> None:
        if self.ground_size < 1:
            raise ValueError("ground_size must be positive")
        if self.bits < 0 or self.bits >> self.ground_size:
            raise ValueError("bits fall outside the ground set")

    @classmethod
    def from_elements(cls, elements: Iterable[int], ground_size: int) -> VertexSubset:
        bits = 0
        for e in elements:
            if not 1 <= e <= ground_size:
                raise ValueError(f"element {e} outside 1..{ground_size}")
            bits |= 1 << (e - 1)
        return cls(bits, ground_size)

    def elements(self) -> tuple[int, ...]:
        return tuple(i + 1 for i in bit_indices(self.bits))

    def size(self) -> int:
        return self.bits.bit_count()

    def is_empty(self) -> bool:
        return self.bits == 0

    def min_element(self) -> int:
        """Smallest element; the injection in the proof analysis relies on it."""
        if not self.bits:
            raise ValueError("empty subset has no minimum element")
        return (self.bits & -self.bits).bit_length()

    def intersection(self, other: VertexSubset) -> VertexSubset:
        self._require_same_ground(other)
        return VertexSubset(self.bits & other.bits, self.ground_size)

    def is_disjoint(self, other: VertexSubset) -> bool:
        self._require_same_ground(other)
        return (self.bits & other.bits) == 0

    def _require_same_ground(self, other: VertexSubset) -> None:
        if self.ground_size != other.ground_size:
            raise ValueError("subsets live over different ground sets")

    def __contains__(self, element: int) -> bool:
        return 1 <= element <= self.ground_size and bool(self.bits >> (element - 1) & 1)

    def __str__(self) -> str:
        return "{" + ",".join(map(str, self.elements())) + "}"


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
        return binomial(self.ground_size, self.n)

    @property
    def degree(self) -> int:
        return binomial(self.n + self.k, self.n)

    @classmethod
    def from_ground_set(cls, ground_size: int, subset_size: int) -> KneserParams:
        """Map a general KG(N, m) with N >= 2m to the (n, k) normal form."""
        if subset_size < 1:
            raise ValueError("subset size must be positive")
        if ground_size < 2 * subset_size:
            raise ValueError(
                f"KG({ground_size},{subset_size}) with N < 2m is edgeless; not supported"
            )
        return cls(subset_size, ground_size - 2 * subset_size)


class Graph:
    """Immutable undirected graph with index-addressable vertices in canonical order.

    The adjacency is one int bitmask per vertex: bit u of masks[v] is set iff
    uv is an edge. Optionally carries the Kneser subsets labelling each vertex
    and the generating parameters. Nothing mutates after construction.
    """

    __slots__ = ("_masks", "_edge_count", "subsets", "params")

    def __init__(
        self,
        neighbors: Iterable[Iterable[int]],
        subsets: Iterable[VertexSubset] | None = None,
        params: KneserParams | None = None,
    ) -> None:
        lists = [list(ns) for ns in neighbors]
        n = len(lists)
        masks = [0] * n
        seen_by = [0] * n  # bit v of seen_by[u] set iff u is listed under v
        for v, ns in enumerate(lists):
            for u in ns:
                _check_endpoint(v, u, n)
                masks[v] |= 1 << u
                seen_by[u] |= 1 << v
        for v in range(n):
            one_sided = masks[v] & ~seen_by[v]
            if one_sided:
                u = (one_sided & -one_sided).bit_length() - 1
                raise ValueError(f"adjacency not symmetric at ({v}, {u})")
        self._adopt(masks, subsets, params)

    @classmethod
    def from_edges(
        cls,
        vertex_count: int,
        edges: Iterable[tuple[int, int]],
        subsets: Iterable[VertexSubset] | None = None,
        params: KneserParams | None = None,
    ) -> Graph:
        masks = [0] * vertex_count
        for u, v in edges:
            _check_endpoint(u, v, vertex_count)
            _check_endpoint(v, u, vertex_count)
            masks[u] |= 1 << v
            masks[v] |= 1 << u
        return cls._from_masks(masks, subsets, params)

    @classmethod
    def _from_masks(
        cls,
        masks: Iterable[int],
        subsets: Iterable[VertexSubset] | None = None,
        params: KneserParams | None = None,
    ) -> Graph:
        """Adopt masks the caller guarantees symmetric, loop-free and in range."""
        graph = cls.__new__(cls)
        graph._adopt(masks, subsets, params)
        return graph

    def _adopt(
        self,
        masks: Iterable[int],
        subsets: Iterable[VertexSubset] | None,
        params: KneserParams | None,
    ) -> None:
        self._masks = tuple(masks)
        self._edge_count = sum(m.bit_count() for m in self._masks) // 2
        if subsets is not None:
            subsets = tuple(subsets)
            if len(subsets) != len(self._masks):
                raise ValueError("subset labels do not match vertex count")
        self.subsets = subsets
        self.params = params

    @property
    def masks(self) -> tuple[int, ...]:
        """The adjacency: bit u of masks[v] is set iff uv is an edge."""
        return self._masks

    @property
    def vertex_count(self) -> int:
        return len(self._masks)

    @property
    def edge_count(self) -> int:
        return self._edge_count

    def neighbors(self, v: int) -> tuple[int, ...]:
        """Neighbors of v, ascending."""
        return bit_indices(self._masks[v])

    def degree(self, v: int) -> int:
        return self._masks[v].bit_count()

    def degrees(self) -> tuple[int, ...]:
        return tuple(m.bit_count() for m in self._masks)

    def has_edge(self, u: int, v: int) -> bool:
        return bool(self._masks[u] >> v & 1)

    def edges(self) -> Iterator[tuple[int, int]]:
        """Edges (u, v) with u < v, ascending lexicographically."""
        for v, m in enumerate(self._masks):
            for u in bit_indices(m >> (v + 1)):
                yield (v, v + 1 + u)

    def __repr__(self) -> str:
        return f"Graph(vertices={self.vertex_count}, edges={self.edge_count})"


def _check_endpoint(v: int, u: int, n: int) -> None:
    if u == v:
        raise ValueError(f"self-loop at vertex {v}")
    if not 0 <= u < n:
        raise ValueError(f"neighbor {u} of vertex {v} out of range")


def enumerate_vertices(params: KneserParams) -> list[VertexSubset]:
    """All n-subsets of {1..2n+k} ordered by bitmask value (element 1 = LSB).

    The order is colexicographic and deterministic; it defines the canonical
    vertex indexing used everywhere (files, certificates, solver output).
    """
    ground = params.ground_size
    if ground > MAX_BITSET_GROUND_SIZE:
        raise InstanceTooLarge(
            f"instance too large: ground set {ground} exceeds the bitset limit "
            f"{MAX_BITSET_GROUND_SIZE}; formula-only operations remain available"
        )
    if params.vertex_count > DEFAULT_ENUMERATION_CAP:
        raise InstanceTooLarge(
            f"instance too large: {params.vertex_count} vertices exceed the "
            f"enumeration cap {DEFAULT_ENUMERATION_CAP}"
        )
    # Gosper's hack walks all popcount-n masks in increasing integer order.
    out = []
    x = (1 << params.n) - 1
    limit = 1 << ground
    while x < limit:
        out.append(VertexSubset(x, ground))
        u = x & -x
        v = x + u
        x = v | (((x ^ v) >> 2) // u)
    return out


def are_adjacent(a: VertexSubset, b: VertexSubset) -> bool:
    """Kneser adjacency: true iff the subsets are disjoint."""
    return a.is_disjoint(b)


def degree_regularity(params: KneserParams) -> int:
    """Common degree of every vertex of KG(2n+k, n): C(n+k, n)."""
    return params.degree


def build_graph(params: KneserParams) -> Graph:
    """Materialize KG(2n+k, n) with edges joining disjoint subsets."""
    verts = enumerate_vertices(params)
    # containing[e]: mask of the vertices whose subset holds element e+1; a
    # vertex is adjacent to exactly those containing none of its elements.
    containing = [0] * params.ground_size
    for i, v in enumerate(verts):
        for e in bit_indices(v.bits):
            containing[e] |= 1 << i
    full = (1 << len(verts)) - 1
    masks = []
    for v in verts:
        meets = 0
        for e in bit_indices(v.bits):
            meets |= containing[e]
        masks.append(full & ~meets)
    graph = Graph._from_masks(masks, verts, params)
    if 2 * graph.edge_count != params.vertex_count * params.degree:
        raise RuntimeError("internal error: edge count violates regularity")
    return graph
