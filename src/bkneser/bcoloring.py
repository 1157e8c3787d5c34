"""Coloring model, b-coloring verification, and color-class structure analysis.

A coloring is valid as a b-coloring when it is proper and every color class
contains a vertex whose closed neighborhood sees every color in use. The
structure analyzer additionally decomposes a b-coloring of a Kneser graph
into class cores (intersection of the member subsets), splits classes into
the intersecting family and the non-intersecting rest, and evaluates the
counting chain that bounds the number of classes.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from itertools import islice
from typing import Iterable, Mapping, Sequence

from .kneser import Graph, KneserParams, VertexSubset, bit_indices


@dataclass(frozen=True)
class Coloring:
    """Total vertex -> color assignment; colors 0..color_count-1, all nonempty."""

    colors: tuple[int, ...]
    color_count: int

    def __post_init__(self) -> None:
        if not self.colors:
            raise ValueError("coloring must cover at least one vertex")
        used = set(self.colors)
        if used != set(range(self.color_count)):
            raise ValueError(
                "colors must use exactly the indices 0..color_count-1 with no gaps"
            )

    @classmethod
    def from_sequence(cls, seq: Iterable[int]) -> Coloring:
        """Canonicalize arbitrary labels: classes renumbered by first appearance,
        which orders them by ascending minimum vertex index."""
        remap: dict[int, int] = {}
        out = []
        for c in seq:
            out.append(remap.setdefault(c, len(remap)))
        return cls(tuple(out), len(remap))

    def canonical(self) -> Coloring:
        return Coloring.from_sequence(self.colors)

    def class_members(self, color: int) -> tuple[int, ...]:
        return tuple(v for v, c in enumerate(self.colors) if c == color)

    def classes(self) -> tuple[tuple[int, ...], ...]:
        out: list[list[int]] = [[] for _ in range(self.color_count)]
        for v, c in enumerate(self.colors):
            out[c].append(v)
        return tuple(tuple(members) for members in out)

    def __len__(self) -> int:
        return len(self.colors)


class BColoringFailure(str, Enum):
    NOT_PROPER = "not_proper"
    MISSING_DOMINATING_VERTEX = "missing_dominating_vertex"


@dataclass(frozen=True)
class BColoringVerdict:
    """Outcome of b-coloring verification with machine-readable failure data."""

    valid: bool
    reason: BColoringFailure | None = None
    witnesses: tuple[int, ...] | None = None
    all_witnesses: tuple[tuple[int, ...], ...] | None = None
    violating_edge: tuple[int, int] | None = None
    failing_color: int | None = None

    def __bool__(self) -> bool:
        return self.valid


def _require_matching_domain(graph: Graph, coloring: Coloring) -> None:
    if len(coloring.colors) != graph.vertex_count:
        raise ValueError(
            f"coloring covers {len(coloring.colors)} vertices, "
            f"graph has {graph.vertex_count}"
        )


def class_masks(colors: Sequence[int], count: int) -> list[int]:
    """One vertex bitmask per color class."""
    out = [0] * count
    for v, c in enumerate(colors):
        out[c] |= 1 << v
    return out


def is_proper(
    graph: Graph, coloring: Coloring
) -> tuple[bool, tuple[int, int] | None]:
    """True iff no edge joins two same-colored vertices; else the
    lexicographically first violating edge."""
    _require_matching_domain(graph, coloring)
    colors = coloring.colors
    return _check_proper(graph, colors, class_masks(colors, coloring.color_count))


def _check_proper(
    graph: Graph, colors: Sequence[int], classes: list[int]
) -> tuple[bool, tuple[int, int] | None]:
    # The first vertex with a same-colored neighbor has none below it, or
    # that neighbor would have come first; so its lowest clash is the edge.
    for u, m in enumerate(graph.masks):
        clash = m & classes[colors[u]]
        if clash:
            return False, (u, (clash & -clash).bit_length() - 1)
    return True, None


def _sees_all_colors(graph: Graph, classes: list[int], v: int) -> bool:
    closed = graph.masks[v] | (1 << v)
    return all(closed & cm for cm in classes)


def dominating_vertices(graph: Graph, coloring: Coloring, color: int) -> set[int]:
    """Vertices of the given class whose closed neighborhood realizes every color.

    Assumes the coloring is proper; only the color index is validated here.
    """
    _require_matching_domain(graph, coloring)
    if not 0 <= color < coloring.color_count:
        raise ValueError(f"color {color} out of range 0..{coloring.color_count - 1}")
    classes = class_masks(coloring.colors, coloring.color_count)
    return {
        v for v in bit_indices(classes[color]) if _sees_all_colors(graph, classes, v)
    }


def is_b_coloring(
    graph: Graph, coloring: Coloring, all_witnesses: bool = False
) -> BColoringVerdict:
    """Verify properness plus one dominating vertex per class.

    Short-circuits on the first witness per class unless all_witnesses is set,
    in which case every witness is enumerated.
    """
    _require_matching_domain(graph, coloring)
    colors = coloring.colors
    classes = class_masks(colors, coloring.color_count)
    proper, edge = _check_proper(graph, colors, classes)
    if not proper:
        return BColoringVerdict(
            False, reason=BColoringFailure.NOT_PROPER, violating_edge=edge
        )
    first: list[int] = []
    full: list[tuple[int, ...]] = []
    for c, members in enumerate(classes):
        witnesses = (
            v for v in bit_indices(members) if _sees_all_colors(graph, classes, v)
        )
        found = tuple(witnesses) if all_witnesses else tuple(islice(witnesses, 1))
        if not found:
            return BColoringVerdict(
                False,
                reason=BColoringFailure.MISSING_DOMINATING_VERTEX,
                failing_color=c,
            )
        first.append(found[0])
        full.append(found)
    return BColoringVerdict(
        True,
        witnesses=tuple(first),
        all_witnesses=tuple(full) if all_witnesses else None,
    )


def class_core(members: Iterable[VertexSubset]) -> VertexSubset:
    """Intersection of all member subsets of a color class."""
    it = iter(members)
    try:
        core = next(it)
    except StopIteration:
        raise ValueError("class_core requires at least one member") from None
    for subset in it:
        core = core.intersection(subset)
    return core


class ProofStep(str, Enum):
    CORE_DISJOINTNESS = "core_disjointness"
    INJECTION_INJECTIVE = "injection_injective"
    FAMILY_SIZE_BOUND = "family_size_bound"
    NONINTERSECTING_CLASS_SIZE = "nonintersecting_class_size"
    COUNTING_INEQUALITY = "counting_inequality"
    GLOBAL_UPPER_BOUND = "global_upper_bound"


@dataclass(frozen=True)
class ProofCheckFailure:
    step: ProofStep
    detail: str


@dataclass(frozen=True)
class ClassAnalysis:
    color: int
    members: tuple[int, ...]
    core: VertexSubset
    dominating: tuple[int, ...]
    non_intersecting: bool


@dataclass(frozen=True)
class CountingRecord:
    """The evaluated counting chain for one b-coloring."""

    color_count: int
    vertex_count: int
    ground_size: int
    family_size: int
    class_bound: Fraction  # (|V| + 2*family_size) / 3
    class_bound_holds: bool
    global_bound: Fraction  # (|V| + 2*ground_size) / 3
    global_bound_holds: bool


@dataclass(frozen=True)
class ProofAnalysis:
    classes: tuple[ClassAnalysis, ...]
    intersecting_family: tuple[int, ...]
    injection: Mapping[int, int]
    counting: CountingRecord
    failures: tuple[ProofCheckFailure, ...]

    @property
    def ok(self) -> bool:
        return not self.failures


def analyze_proof_structure(
    params: KneserParams, graph: Graph, coloring: Coloring
) -> ProofAnalysis:
    """Decompose a verified b-coloring of KG(2n+k, n) into the checkable chain:

    - per-class cores and dominating witnesses;
    - cores of distinct intersecting classes are pairwise disjoint;
    - mapping each intersecting class to the minimum of its core is injective,
      so the intersecting family has at most 2n+k classes;
    - every class with empty core has at least three members;
    - color_count <= (|V| + 2*|family|)/3 <= (|V| + 2*(2n+k))/3.

    Any failed check names its step; failures indicate an implementation bug,
    since all steps hold for every valid b-coloring of a Kneser graph.
    """
    if graph.params != params or graph.subsets is None:
        raise ValueError("graph was not generated from the given parameters")
    verdict = is_b_coloring(graph, coloring, all_witnesses=True)
    if not verdict.valid:
        raise ValueError(f"coloring is not a valid b-coloring: {verdict.reason}")
    assert verdict.all_witnesses is not None

    failures: list[ProofCheckFailure] = []
    classes = []
    for c, members in enumerate(coloring.classes()):
        core = class_core(graph.subsets[v] for v in members)
        classes.append(
            ClassAnalysis(
                color=c,
                members=members,
                core=core,
                dominating=verdict.all_witnesses[c],
                non_intersecting=core.is_empty(),
            )
        )

    family = tuple(ca.color for ca in classes if not ca.non_intersecting)

    for i, c1 in enumerate(family):
        for c2 in family[i + 1 :]:
            if not classes[c1].core.is_disjoint(classes[c2].core):
                failures.append(
                    ProofCheckFailure(
                        ProofStep.CORE_DISJOINTNESS,
                        f"cores of classes {c1} and {c2} share "
                        f"{classes[c1].core.intersection(classes[c2].core)}",
                    )
                )

    injection = {c: classes[c].core.min_element() for c in family}
    if len(set(injection.values())) != len(injection):
        failures.append(
            ProofCheckFailure(
                ProofStep.INJECTION_INJECTIVE,
                f"core minima collide: {sorted(injection.values())}",
            )
        )
    ground = params.ground_size
    if len(family) > ground:
        failures.append(
            ProofCheckFailure(
                ProofStep.FAMILY_SIZE_BOUND,
                f"{len(family)} intersecting classes exceed ground size {ground}",
            )
        )

    for ca in classes:
        if ca.non_intersecting and len(ca.members) < 3:
            failures.append(
                ProofCheckFailure(
                    ProofStep.NONINTERSECTING_CLASS_SIZE,
                    f"non-intersecting class {ca.color} has only "
                    f"{len(ca.members)} members",
                )
            )

    vertex_count = graph.vertex_count
    class_bound = Fraction(vertex_count + 2 * len(family), 3)
    global_bound = Fraction(vertex_count + 2 * ground, 3)
    class_holds = coloring.color_count <= class_bound
    global_holds = coloring.color_count <= global_bound
    if not class_holds:
        failures.append(
            ProofCheckFailure(
                ProofStep.COUNTING_INEQUALITY,
                f"{coloring.color_count} classes exceed (|V|+2|I|)/3 = {class_bound}",
            )
        )
    if not global_holds:
        failures.append(
            ProofCheckFailure(
                ProofStep.GLOBAL_UPPER_BOUND,
                f"{coloring.color_count} classes exceed (|V|+2N)/3 = {global_bound}",
            )
        )

    counting = CountingRecord(
        color_count=coloring.color_count,
        vertex_count=vertex_count,
        ground_size=ground,
        family_size=len(family),
        class_bound=class_bound,
        class_bound_holds=class_holds,
        global_bound=global_bound,
        global_bound_holds=global_holds,
    )
    return ProofAnalysis(
        classes=tuple(classes),
        intersecting_family=family,
        injection=injection,
        counting=counting,
        failures=tuple(failures),
    )
