"""One representative per S_N-orbit of the k-sets of n-subsets of [N].

The symmetric group on the ground set [N] = {0..N-1} acts on the n-subsets of
[N], so on every k-set of them: for n = 2 such a k-set is a graph with k edges
on N points, and its orbit is its isomorphism class. Here an n-subset is a
point mask (point p at bit p) and a k-set, a "family", is a sorted tuple of
them; sorted point masks follow the vertex order of KG(N, n).

Canonical form: partition refinement with individualization (McKay,
Practical graph isomorphism, Congr. Numer. 30, 1981). An ordered partition of
[N] is refined until no cell splits by the multiset of cells its points share
a subset with; new cells are ordered by that multiset, so refinement commutes
with every permutation of [N]. A cell of several points is split by putting
each of its points first in turn. Every discrete leaf orders [N], the last
cell taking label 0, and so relabels the family; the canonical form is the
least relabeled family. The tree, and so the form, depend only on the orbit.
Two points whose transposition fixes the family (twins) root subtrees that
the transposition maps onto each other, so only one of them is put first at
a node.

Labeling from the last cell gives the points that meet the most subsets the
smallest labels, so a form sits on the first vertices of KG(N, n), which the
exact search colors first. Refuting k = 10 on KG(8,2), which the best bound
of 9 keeps off the table, from the generated level 10 then takes 96,336
nodes; labeling from the first cell, it takes 657,700.

Generation: level j+1 is the set of the forms of the children X + e of the
level-j forms X. Every (j+1)-set Y is such a child up to isomorphism: Y less
one member is a j-set, so some permutation maps it onto a level-j form X, and
so maps Y onto X + e for some e. Equal forms are one orbit, since a form is a
member of its own orbit, and isomorphic children have equal forms. So the set
holds exactly one form per level-(j+1) orbit. A permutation within the twin
classes of X fixes X, so children X + e whose e meet the same twin classes are
isomorphic, and one e per class is enough.

The committed table `data/orbits.json` holds, for each (N, n) in TABLED,
the levels 1..best, where best is the least closed-form bound on phi(KG(N, n))
(`bounds.best_upper_bound`): the top k that the exact search tests. A level
lists its canonical forms, ascending, each as a mask over the vertices of
KG(N, n) in the order of `kneser.enumerate_vertices`, so the set bits of a
mask are the seed tuple the search tries, and the levels list the tuples in
lexicographic order. ``python -m bkneser.orbits PATH`` writes it. It is read
on the first request for a tabled family, once per process.
"""

from __future__ import annotations

import json
import sys
from functools import cache
from importlib import resources

from .bounds import best_upper_bound
from .kneser import KneserParams, bit_indices, enumerate_vertices

# the (N, n) that data/orbits.json holds: KG(N, 2) for N = 4..8. KG(9,2)
# would need 12,255 representatives, its Burnside counts for levels 1..12.
TABLED = frozenset((ground, 2) for ground in range(4, 9))

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


def table_levels(ground: int, n: int) -> int:
    """The levels tabled for KG(ground, n): up to its best closed-form upper
    bound, the top k that exact_phi tests."""
    return best_upper_bound(KneserParams(n, ground - 2 * n)).best


Table = dict[tuple[int, int], tuple[tuple[int, ...], ...]]


@cache
def committed_table() -> Table:
    """data/orbits.json: for each (N, n) in TABLED, its levels of masks."""
    text = resources.files("bkneser.data").joinpath("orbits.json").read_text()
    return {
        (f["ground_size"], f["subset_size"]): tuple(map(tuple, f["levels"]))
        for f in json.loads(text)["families"]
    }


def representatives(ground: int, n: int, k: int) -> list[tuple[int, ...]] | None:
    """One k-tuple of vertices of KG(ground, n) per S_ground-orbit, each
    ascending, from the committed table, in lexicographic order; None when
    (ground, n) is not tabled or k lies outside its levels."""
    if (ground, n) not in TABLED or not 1 <= k <= table_levels(ground, n):
        return None
    return [bit_indices(mask) for mask in committed_table()[ground, n][k - 1]]


def table_masks(ground: int, n: int) -> list[list[int]]:
    """The levels that data/orbits.json holds for (ground, n), generated."""
    vertices = enumerate_vertices(KneserParams(n, ground - 2 * n))
    index = {m: v for v, m in enumerate(vertices)}
    return [
        [sum(1 << index[m] for m in form) for form in level]
        for level in generate(ground, n, table_levels(ground, n))
    ]


def table_text() -> str:
    """The text of data/orbits.json, one level to a line."""
    lines = [
        "{",
        '"description": "One representative per S_N-orbit of the k-sets of '
        "n-subsets of {0..N-1}, for k = 1 up to the best closed-form bound on "
        "phi(KG(N,n)): the canonical forms of bkneser.orbits, each a mask over "
        "the vertices of KG(N,n) in the order of bkneser.kneser.enumerate_vertices. "
        'Written by python -m bkneser.orbits PATH.",',
        '"families": [',
    ]
    families = sorted(TABLED)
    for i, (ground, n) in enumerate(families):
        lines.append(f'{{"ground_size": {ground}, "subset_size": {n}, "levels": [')
        lines += [
            json.dumps(level, separators=(",", ":")) + ","
            for level in table_masks(ground, n)
        ]
        lines[-1] = lines[-1][:-1]
        lines.append("]}" + ("," if i + 1 < len(families) else ""))
    lines += ["]", "}"]
    return "\n".join(lines) + "\n"


if __name__ == "__main__":
    if len(sys.argv) != 2:
        sys.exit("usage: python -m bkneser.orbits PATH")
    text = table_text()
    with open(sys.argv[1], "w") as out:
        out.write(text)
