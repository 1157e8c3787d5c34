"""Coloring model, b-coloring verification, and color-class structure analysis.

A coloring is valid as a b-coloring when it is proper and every color class
contains a vertex whose closed neighborhood sees every color in use. The
structure analyzer additionally decomposes a b-coloring of a Kneser graph
into class cores (intersection of the member subsets), splits classes into
the intersecting family and the non-intersecting rest, and evaluates the
counting chain that bounds the number of classes.
"""

from __future__ import annotations

import math
from enum import Enum
from functools import reduce
from itertools import accumulate, islice
from operator import and_, or_
from typing import TYPE_CHECKING, Iterable, Mapping, NamedTuple, Sequence

from .kneser import Graph, KneserParams, bit_indices

if TYPE_CHECKING:
    from fractions import Fraction


class _ColoringFields(NamedTuple):
    colors: tuple[int, ...]
    color_count: int


class Coloring(_ColoringFields):
    """Total vertex -> color assignment; colors 0..color_count-1, all nonempty.
    Its len() is the number of vertices it colors."""

    __slots__ = ()

    def __new__(cls, colors: tuple[int, ...], color_count: int) -> Coloring:
        if not colors:
            raise ValueError("coloring must cover at least one vertex")
        if set(colors) != set(range(color_count)):
            raise ValueError(
                "colors must use exactly the indices 0..color_count-1 with no gaps"
            )
        return super().__new__(cls, colors, color_count)

    @classmethod
    def from_sequence(cls, seq: Iterable[int]) -> Coloring:
        """Canonicalize arbitrary labels: classes renumbered by first appearance,
        which orders them by ascending minimum vertex index."""
        remap: dict[int, int] = {}
        out = []
        for c in seq:
            out.append(remap.setdefault(c, len(remap)))
        return cls(tuple(out), len(remap))

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


class BColoringVerdict(NamedTuple):
    """Outcome of b-coloring verification with machine-readable failure data."""

    valid: bool
    reason: BColoringFailure | None = None
    witnesses: tuple[int, ...] | None = None
    all_witnesses: tuple[tuple[int, ...], ...] | None = None
    violating_edge: tuple[int, int] | None = None
    failing_color: int | None = None

    def __bool__(self) -> bool:
        return self.valid


def class_masks(colors: Sequence[int], count: int) -> list[int]:
    """One vertex bitmask per color class."""
    out = [0] * count
    for v, c in enumerate(colors):
        out[c] |= 1 << v
    return out


def class_colors(classes: Sequence[int], vertex_count: int) -> list[int]:
    """The color of each vertex, given one vertex bitmask per color class;
    the inverse of class_masks."""
    colors = [0] * vertex_count
    for c, members in enumerate(classes):
        for v in bit_indices(members):
            colors[v] = c
    return colors


def _sees_all_colors(graph: Graph, classes: list[int], v: int) -> bool:
    closed = graph.masks[v] | (1 << v)
    return all(closed & cm for cm in classes)


def is_b_coloring(
    graph: Graph, coloring: Coloring, all_witnesses: bool = False
) -> BColoringVerdict:
    """Verify properness plus one dominating vertex per class: a member whose
    closed neighborhood realizes every color.

    Short-circuits on the first witness per class unless all_witnesses is set,
    in which case every witness is enumerated.
    """
    if len(coloring.colors) != graph.vertex_count:
        raise ValueError(
            f"coloring covers {len(coloring.colors)} vertices, "
            f"graph has {graph.vertex_count}"
        )
    colors = coloring.colors
    classes = class_masks(colors, coloring.color_count)
    # The first vertex with a same-colored neighbor has none below it, or
    # that neighbor would have come first; so its lowest clash is the
    # lexicographically first violating edge.
    for u, m in enumerate(graph.masks):
        clash = m & classes[colors[u]]
        if clash:
            return BColoringVerdict(
                False,
                reason=BColoringFailure.NOT_PROPER,
                violating_edge=(u, (clash & -clash).bit_length() - 1),
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


def class_core(members: Iterable[int]) -> int:
    """Intersection (bitwise AND) of the subset masks of a color class."""
    members = tuple(members)
    if not members:
        raise ValueError("class_core requires at least one member")
    return reduce(and_, members)


class ProofStep(str, Enum):
    CORE_DISJOINTNESS = "core_disjointness"
    CORE_AVOIDANCE = "core_avoidance"
    STAR_PARITY = "star_parity"
    INJECTION_INJECTIVE = "injection_injective"
    FAMILY_SIZE_BOUND = "family_size_bound"
    NONINTERSECTING_CLASS_SIZE = "nonintersecting_class_size"
    COUNTING_INEQUALITY = "counting_inequality"
    GLOBAL_UPPER_BOUND = "global_upper_bound"


class ProofCheckFailure(NamedTuple):
    step: ProofStep
    detail: str


class ClassAnalysis(NamedTuple):
    color: int
    members: tuple[int, ...]
    core: int  # subset mask, element i at bit i-1
    dominating: tuple[int, ...]
    non_intersecting: bool


class CountingRecord(NamedTuple):
    """The evaluated counting chain for one b-coloring."""

    color_count: int
    vertex_count: int
    ground_size: int
    family_size: int
    class_bound: Fraction  # (|V| + 2*family_size) / 3
    class_bound_holds: bool
    global_bound: Fraction  # (|V| + 2*ground_size) / 3
    global_bound_holds: bool


class ProofAnalysis(NamedTuple):
    classes: tuple[ClassAnalysis, ...]
    intersecting_family: tuple[int, ...]
    injection: Mapping[int, int]
    counting: CountingRecord
    failures: tuple[ProofCheckFailure, ...]

    @property
    def ok(self) -> bool:
        return not self.failures


def _star_parity(
    classes: list[ClassAnalysis], subsets: Sequence[int], y: int
) -> list[ProofCheckFailure]:
    """The parity step of the n = 2 bound (`bounds`), Y being the points
    outside every core: an edge from a star's center to Y outside the star
    lies in a triangle with two such edges, and so does every edge from a
    single edge's point to Y; an edge joining two single edges would lie in
    no class. When Y is one point y, the case of N = 5, each star's
    dominator joins its center to y, so every star holds, for each other
    star, a member missing both y and that star's center."""
    outside = y.bit_count()
    failures = []
    pairs = [ca.color for ca in classes if ca.core.bit_count() == 2]
    if len(pairs) > 1:
        failures.append(
            ProofCheckFailure(
                ProofStep.STAR_PARITY, f"classes {pairs} have two-point cores"
            )
        )
    if pairs and outside % 2:
        failures.append(
            ProofCheckFailure(
                ProofStep.STAR_PARITY,
                f"class {pairs[0]} has a two-point core but |Y| = {outside} is odd",
            )
        )
    stars = [ca for ca in classes if ca.core.bit_count() == 1]
    for ca in stars:
        meeting = sum(1 for v in ca.members if subsets[v] & y)
        if not meeting or (meeting - outside) % 2:
            failures.append(
                ProofCheckFailure(
                    ProofStep.STAR_PARITY,
                    f"{meeting} members of class {ca.color} meet Y, "
                    f"|Y| = {outside}",
                )
            )
    if outside == 1:
        for ca in stars:
            inside = [subsets[v] for v in ca.members if not subsets[v] & y]
            for other in stars:
                if other is not ca and all(m & other.core for m in inside):
                    failures.append(
                        ProofCheckFailure(
                            ProofStep.STAR_PARITY,
                            f"no member of class {ca.color} misses both Y and "
                            f"the core of class {other.color}",
                        )
                    )
    return failures


def analyze_proof_structure(
    params: KneserParams, graph: Graph, coloring: Coloring
) -> ProofAnalysis:
    """Decompose a verified b-coloring of KG(2n+k, n) into the checkable chain:

    - per-class cores and dominating witnesses;
    - cores of distinct intersecting classes are pairwise disjoint;
    - every dominating witness misses the core of every other class, so the
      classes with an empty core number at most C(|Y|, n), where Y is the
      set of ground elements outside every core;
    - for n = 2, the members of a class with a one-point core (a star) that
      meet Y are at least one and of the parity of |Y|, at most one class
      has a two-point core (a single edge), only with |Y| even, and when
      |Y| = 1 each star holds, for each other star, a member missing Y and
      that star's core;
    - mapping each intersecting class to the minimum of its core is injective,
      so the intersecting family has at most 2n+k classes;
    - every class with empty core has at least three members;
    - color_count <= (|V| + 2*|family|)/3 <= (|V| + 2*(2n+k))/3.

    Any failed check names its step; failures indicate an implementation bug,
    since all steps hold for every valid b-coloring of a Kneser graph.
    """
    from fractions import Fraction

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
                non_intersecting=core == 0,
            )
        )

    family = tuple(ca.color for ca in classes if not ca.non_intersecting)

    for i, c1 in enumerate(family):
        for c2 in family[i + 1 :]:
            shared = classes[c1].core & classes[c2].core
            if shared:
                elements = ",".join(str(e + 1) for e in bit_indices(shared))
                failures.append(
                    ProofCheckFailure(
                        ProofStep.CORE_DISJOINTNESS,
                        f"cores of classes {c1} and {c2} share {{{elements}}}",
                    )
                )

    # the union of the cores of the classes before c, and of those after it
    cores = [ca.core for ca in classes]
    before = list(accumulate(cores, or_, initial=0))
    after = list(accumulate(reversed(cores), or_, initial=0))[::-1]
    for ca in classes:
        others = before[ca.color] | after[ca.color + 1]
        for w in ca.dominating:
            shared = graph.subsets[w] & others
            if shared:
                elements = ",".join(str(e + 1) for e in bit_indices(shared))
                failures.append(
                    ProofCheckFailure(
                        ProofStep.CORE_AVOIDANCE,
                        f"dominating vertex {w} of class {ca.color} meets "
                        f"another class's core at {{{elements}}}",
                    )
                )
                break
    y = ~before[-1] & ((1 << params.ground_size) - 1)
    outside = y.bit_count()
    empty = sum(ca.non_intersecting for ca in classes)
    room = math.comb(outside, params.n)
    if empty > room:
        failures.append(
            ProofCheckFailure(
                ProofStep.CORE_AVOIDANCE,
                f"{empty} classes with an empty core exceed "
                f"C({outside}, {params.n}) = {room}",
            )
        )

    if params.n == 2:
        failures += _star_parity(classes, graph.subsets, y)

    # a core's minimum element is its lowest set bit, 1-indexed
    injection = {c: (classes[c].core & -classes[c].core).bit_length() for c in family}
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
