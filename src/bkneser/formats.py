"""Interchange formats: DIMACS graph files, coloring certificates,
structure-analysis reports, and exact-rational rendering.

Field names and orders are frozen in docs/SCHEMAS.md; graph files tagged with
Kneser parameters are re-derived from those parameters on load and the stored
edge list must match exactly. `load_graph` and `dimacs_loads` share one
reader: a tagged file holding exactly the text `gen` writes is accepted by
comparison with that text, piece by piece; any other file is read by one line
loop, after a rewind if the comparison began. That loop needs the `p` line
before the first edge line and at most the enumeration cap's vertices there.
So a file is read at most twice, and memory grows with the graph, not with
the file. Once the loop has read as many edge lines as the `p` line declares
vertices V, it looks edge endpoints up in a label table: a dict from the
canonical text of each label 1..V to its vertex index, so it never holds
more entries than the file has edge lines. Any other label text (`03`, `+3`,
0, past V) and every label read before the table is filled goes through
`int()` and the same checks, in the same order, so the table changes no
accepted file and no message. A rational renders as `p/q` beside its exact
value rounded half-even to six places. The scan CSV's columns are
`scan_row_dict`'s keys; a rational's key takes two, `<key>` holding `p/q`
and `<key>_decimal`.
"""

from __future__ import annotations

import io
import json
import re
from pathlib import Path
from itertools import compress
from typing import TYPE_CHECKING, Any, Iterable, Iterator, TextIO

from .kneser import (
    DEFAULT_ENUMERATION_CAP,
    Graph,
    KneserParams,
    bit_indices,
    build_graph,
    check_enumeration_cap,
)

if TYPE_CHECKING:
    from fractions import Fraction

    from .bcoloring import Coloring, ProofAnalysis
    from .bounds import BoundsReport

_KNESER_COMMENT = re.compile(r"^c\s+kneser\s+n=(\d+)\s+k=(\d+)\s*$")
_PROBLEM_LINE = re.compile(r"^p\s+edge\s+(\d+)\s+(\d+)$")
# the first two lines exactly as `dimacs_dumps` writes them
_CANONICAL_TAG = re.compile(r"c kneser n=([1-9][0-9]*) k=(0|[1-9][0-9]*)\n")
_CANONICAL_PROBLEM = re.compile(r"p edge (0|[1-9][0-9]*) (0|[1-9][0-9]*)\n")


def fraction_str(f: Fraction) -> str:
    return f"{f.numerator}/{f.denominator}"


def fraction_decimal_str(f: Fraction) -> str:
    """The exact value rounded half-even to six places, at any size."""
    whole, places = divmod(round(abs(f) * 1_000_000), 1_000_000)
    return f"{'-' if f < 0 else ''}{whole}.{places:06d}"


def fraction_human(f: Fraction) -> str:
    return f"{fraction_str(f)} (≈ {fraction_decimal_str(f)})"


def fraction_json(f: Fraction) -> dict[str, str]:
    return {"exact": fraction_str(f), "decimal": fraction_decimal_str(f)}


# ---------------------------------------------------------------------------
# graphs


# bytes.translate table turning a reversed `bin` string into 0/1 selectors
_BITS = bytes.maketrans(b"01", b"\0\1")


def _dimacs_pieces(graph: Graph) -> Iterator[str]:
    if graph.params is not None:
        yield f"c kneser n={graph.params.n} k={graph.params.k}\n"
    yield f"p edge {graph.vertex_count} {graph.edge_count}\n"
    # one piece per vertex v with a higher neighbor: its edge lines in
    # ascending order, the labels past v selected by the bits of m >> (v + 1).
    # The slice ends at the highest neighbor, so a sparse graph costs no more
    # per vertex than its neighbors' span
    labels = [f"{u + 1}\n" for u in range(graph.vertex_count)]
    for v, m in enumerate(graph.masks):
        higher = m >> (v + 1)
        if higher:
            head = f"e {v + 1} "
            bits = bin(higher)[:1:-1].encode().translate(_BITS)
            above = labels[v + 1 : v + 1 + len(bits)]
            yield head + head.join(compress(above, bits))


def dimacs_dumps(graph: Graph) -> str:
    return "".join(_dimacs_pieces(graph))


def dimacs_loads(text: str) -> Graph:
    """Parse DIMACS text as `load_graph` parses a file; CRLF and bare CR line
    endings read as LF."""
    return _dimacs_read(io.StringIO(text, newline=None))


def _kneser_counts_are(params: KneserParams, vertices: int, edges: int) -> bool:
    """Whether KG(2n+k, n) has these vertex and edge counts. A huge tag fails
    without its vertex count being computed."""
    return (
        _binomial_is(params.ground_size, params.n, vertices)
        and 2 * edges == vertices * params.degree
    )


def _tagged_graph(stream: TextIO, size: int) -> Graph | None:
    """The graph of the stream's `c kneser` tag when its first two lines are
    exactly the two `dimacs_dumps` writes for that graph, else None. The
    stream holds at most `size` characters. Nothing is built unless the `p`
    line agrees with the tag and the rest of the stream is long enough to hold
    the graph's edge lines, so what the build costs is bounded by the
    stream's length, not by the tag alone."""
    tag_line = stream.readline()
    tag = _CANONICAL_TAG.fullmatch(tag_line)
    if tag is None:
        return None
    params = KneserParams(int(tag[1]), int(tag[2]))
    problem_line = stream.readline()
    problem = _CANONICAL_PROBLEM.fullmatch(problem_line)
    if problem is None:
        return None
    vertices, edges = int(problem[1]), int(problem[2])
    rest = size - len(tag_line) - len(problem_line)
    # each edge line `e <u> <v>\n` has at least 6 characters
    if (
        vertices > DEFAULT_ENUMERATION_CAP
        or rest < 6 * edges
        or not _kneser_counts_are(params, vertices, edges)
    ):
        return None
    return build_graph(params)


def _holds_edges_of(stream: TextIO, graph: Graph) -> bool:
    """Whether the rest of the stream is exactly the edge lines `dimacs_dumps`
    writes for the graph. They are compared one writer piece at a time, so
    the text is never held whole."""
    pieces = _dimacs_pieces(graph)
    next(pieces), next(pieces)  # the tag and `p` lines
    for piece in pieces:
        if stream.read(len(piece)) != piece:
            return False
    return stream.read(1) == ""


def _dimacs_read(lines: Iterable[str]) -> Graph:
    """Parse a DIMACS edge file. A seekable stream holding exactly the text
    `gen` writes for its `c kneser` tag is accepted by comparison with that
    text. Any other stream is read by the line loop, which alone decides what
    is accepted and how it is rejected; a seekable one is rewound first,
    after a mismatch or a decode error in the comparison."""
    if isinstance(lines, io.TextIOBase) and lines.seekable():
        # no fewer than the characters it holds: a file's size in bytes, or
        # a StringIO's length. It only decides whether the comparison is
        # tried, never what is accepted
        size = lines.seek(0, io.SEEK_END)
        lines.seek(0)
        try:
            built = _tagged_graph(lines, size)
            if built is not None and _holds_edges_of(lines, built):
                return built
        except ValueError:  # a decode error, or a count too long for int()
            pass
        lines.seek(0)
    return _dimacs_read_lines(lines)


def _dimacs_read_lines(lines: Iterable[str]) -> Graph:
    """Parse a DIMACS edge file in one pass over its lines. The one `p` line
    comes before the first edge line, declares at most the enumeration cap's
    vertices, and bounds every endpoint; each edge is folded into per-vertex
    masks as it is read. No line is kept, so memory grows with the graph,
    not with the file; the label table (module docstring) is filled once,
    when the edge lines read equal the vertex count. A file tagged with
    Kneser parameters must hold exactly the edges those parameters build."""
    vertices: int | None = None
    edges = 0
    params: KneserParams | None = None
    masks: list[int] = []
    edge_lines = 0
    # the label table: canonical label text -> vertex index, empty until as
    # many edge lines as vertices have been read
    labels: dict[str, int] = {}
    index = labels.get
    for line in lines:
        try:
            tag, first_label, second_label = line.split()
        except ValueError:  # not three tokens
            tag = ""
        if tag == "e":
            u = index(first_label)
            v = index(second_label)
            if u is None or v is None:
                if vertices is None:
                    raise ValueError(
                        f"edge line before the 'p edge' header: {line.strip()!r}"
                    )
                try:
                    u, v = int(first_label), int(second_label)
                except ValueError:
                    raise ValueError(f"malformed edge line: {line.strip()!r}") from None
                if u == v or u < 1 or v < 1:
                    raise ValueError(f"invalid edge {u} {v}")
                if u > vertices or v > vertices:
                    bad = u if u > vertices else v
                    raise ValueError(f"edge endpoint {bad} exceeds vertex count")
                u -= 1
                v -= 1
                if edge_lines == vertices:
                    texts = map(str, range(1, vertices + 1))
                    labels.update(zip(texts, range(vertices)))
            elif u == v:
                raise ValueError(f"invalid edge {u + 1} {v + 1}")
            masks[u] |= 1 << v
            masks[v] |= 1 << u
            edge_lines += 1
            continue
        line = line.strip()
        if not line:
            continue
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


def write_graph(path: str | Path, graph: Graph) -> None:
    with Path(path).open("w") as out:
        out.writelines(_dimacs_pieces(graph))


def load_graph(path: str | Path) -> Graph:
    """Read a DIMACS file with universal newlines, at most twice; the file is
    never held whole in memory."""
    with Path(path).open() as lines:
        return _dimacs_read(lines)


# ---------------------------------------------------------------------------
# certificates


def certificate_dict(coloring: Coloring, params: KneserParams | None) -> dict[str, Any]:
    return {
        "params": {"n": params.n, "k": params.k} if params is not None else None,
        "vertex_count": len(coloring.colors),
        "colors": list(coloring.colors),
        "claimed_b_coloring": True,
    }


def write_certificate(
    path: str | Path, coloring: Coloring, params: KneserParams | None
) -> None:
    Path(path).write_text(json.dumps(certificate_dict(coloring, params), indent=2) + "\n")


def _is_int(value: Any) -> bool:
    """A JSON integer; booleans are not integers here."""
    return isinstance(value, int) and not isinstance(value, bool)


def _binomial_is(top: int, bottom: int, value: int) -> bool:
    """C(top, bottom) == value, for 2 * bottom <= top. The partial binomials
    C(top, i) grow with i up to top/2 and are at least 2**i, so the loop
    stops within about log2(value) steps once one passes value: a certificate
    never makes it compute a huge binomial."""
    count = 1
    for i in range(bottom):
        count = count * (top - i) // (i + 1)
        if count > value:
            return False
    return count == value


def certificate_from_dict(
    data: Any,
) -> tuple[Coloring, KneserParams | None, bool]:
    if not isinstance(data, dict):
        raise ValueError("certificate must be a JSON object")
    for key in ("params", "vertex_count", "colors", "claimed_b_coloring"):
        if key not in data:
            raise ValueError(f"certificate missing field {key!r}")
    raw_params = data["params"]
    if raw_params is not None and not (
        isinstance(raw_params, dict)
        and _is_int(raw_params.get("n"))
        and _is_int(raw_params.get("k"))
    ):
        raise ValueError(
            "certificate params must be null or an object with integer n and k"
        )
    if not _is_int(data["vertex_count"]):
        raise ValueError("certificate vertex_count must be an integer")
    colors = data["colors"]
    if not isinstance(colors, list) or not all(_is_int(c) for c in colors):
        raise ValueError("certificate colors must be a list of integers")
    if len(colors) != data["vertex_count"]:
        raise ValueError("certificate vertex_count disagrees with colors length")
    if not isinstance(data["claimed_b_coloring"], bool):
        raise ValueError("certificate claimed_b_coloring must be true or false")
    params = None
    if raw_params is not None:
        params = KneserParams(raw_params["n"], raw_params["k"])
        if not _binomial_is(params.ground_size, params.n, len(colors)):
            raise ValueError(
                f"certificate vertex_count {len(colors)} is not the vertex count "
                f"of KG({params.ground_size}, {params.n}) given by its params"
            )
    from .bcoloring import Coloring

    # Labels are canonicalized on load; class structure is unaffected.
    return Coloring.from_sequence(colors), params, data["claimed_b_coloring"]


def read_certificate(path: str | Path) -> tuple[Coloring, KneserParams | None, bool]:
    return certificate_from_dict(json.loads(Path(path).read_text()))


# ---------------------------------------------------------------------------
# analysis and bounds reports


def proof_analysis_dict(analysis: ProofAnalysis) -> dict[str, Any]:
    counting = analysis.counting
    return {
        "ok": analysis.ok,
        "failures": [
            {"step": f.step.value, "detail": f.detail} for f in analysis.failures
        ],
        "classes": [
            {
                "color": ca.color,
                "members": list(ca.members),
                "core": [e + 1 for e in bit_indices(ca.core)],
                "dominating": list(ca.dominating),
                "non_intersecting": ca.non_intersecting,
            }
            for ca in analysis.classes
        ],
        "intersecting_family": list(analysis.intersecting_family),
        "injection": [
            {"color": c, "element": e} for c, e in sorted(analysis.injection.items())
        ],
        "counting": {
            "color_count": counting.color_count,
            "vertex_count": counting.vertex_count,
            "ground_size": counting.ground_size,
            "family_size": counting.family_size,
            "class_bound": fraction_json(counting.class_bound),
            "class_bound_holds": counting.class_bound_holds,
            "global_bound": fraction_json(counting.global_bound),
            "global_bound_holds": counting.global_bound_holds,
        },
    }


def bounds_report_dict(report: BoundsReport) -> dict[str, Any]:
    params = report.params
    return {
        "params": {"n": params.n, "k": params.k},
        "ground_size": params.ground_size,
        "vertex_count": params.vertex_count,
        "degree": params.degree,
        "regular_bound": report.regular_bound,
        "bk": report.bk._asdict(),  # its fields in the schema's order
        "u": {
            **fraction_json(report.u_exact),
            "floor": report.u_floor,
            "sharp_n1": params.n == 1,
        },
        "core": report.core,
        "best": report.best,
        "ratios": {
            "two_ground_over_v": fraction_json(report.ratios.two_ground_over_v),
            "degree_over_v": fraction_json(report.ratios.degree_over_v),
        },
    }


def scan_row_dict(report: BoundsReport) -> dict[str, Any]:
    params = report.params
    return {
        "k": params.k,
        "N": params.ground_size,
        "vertex_count": params.vertex_count,
        "degree": params.degree,
        "regular": report.regular_bound,
        "bk": report.bk_value,
        "u_floor": report.u_floor,
        "core": report.core,
        "best": report.best,
        "ratio_2N_over_V": fraction_json(report.ratios.two_ground_over_v),
        "ratio_d_over_V": fraction_json(report.ratios.degree_over_v),
    }


def scan_rows_csv(reports: list[BoundsReport]) -> str:
    """`scan_row_dict` flattened under a header of its keys; `null` is empty."""
    rows = []
    for report in reports:
        cells = {}
        for key, value in scan_row_dict(report).items():
            if isinstance(value, dict):
                cells[key], cells[f"{key}_decimal"] = value["exact"], value["decimal"]
            else:
                cells[key] = "" if value is None else str(value)
        rows.append(cells)
    lines = [rows[0].keys(), *(cells.values() for cells in rows)]
    return "".join(",".join(line) + "\n" for line in lines)
