"""Interchange formats: DIMACS graph files, coloring certificates,
structure-analysis reports, and exact-rational rendering.

Field names and orders are frozen in docs/SCHEMAS.md; graph files tagged with
Kneser parameters are re-derived from those parameters on load and the stored
edge list must match exactly. Graph files are read once, line by line, by one
loop that `load_graph` and `dimacs_loads` share: memory grows with the graph,
not with the file. A rational renders as `p/q` beside its exact value rounded
half-even to six places. The scan CSV's columns are `scan_row_dict`'s keys; a
rational's key takes two, `<key>` holding `p/q` and `<key>_decimal`.
"""

from __future__ import annotations

import io
import json
import re
from dataclasses import asdict
from fractions import Fraction
from pathlib import Path
from typing import Any, Iterable, Iterator

from .bcoloring import Coloring, ProofAnalysis
from .bounds import BoundsReport
from .kneser import Graph, KneserParams, bit_indices, build_graph

_KNESER_COMMENT = re.compile(r"^c\s+kneser\s+n=(\d+)\s+k=(\d+)\s*$")
_PROBLEM_LINE = re.compile(r"^p\s+edge\s+(\d+)\s+(\d+)$")


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


def _dimacs_pieces(graph: Graph) -> Iterator[str]:
    if graph.params is not None:
        yield f"c kneser n={graph.params.n} k={graph.params.k}\n"
    yield f"p edge {graph.vertex_count} {graph.edge_count}\n"
    # one piece per vertex v: its edges to higher neighbors, as in edges()
    for v, m in enumerate(graph.masks):
        head = f"e {v + 1} "
        yield "".join([f"{head}{v + 2 + u}\n" for u in bit_indices(m >> (v + 1))])


def dimacs_dumps(graph: Graph) -> str:
    return "".join(_dimacs_pieces(graph))


def dimacs_loads(text: str) -> Graph:
    """Parse DIMACS text with the line loop `load_graph` uses; CRLF and bare
    CR line endings read as LF."""
    return _dimacs_read(io.StringIO(text, newline=None))


def _dimacs_read(lines: Iterable[str]) -> Graph:
    """Parse a DIMACS edge file in one pass over its lines, folding each edge
    into per-vertex masks as it is read; the one `p` line may come anywhere.
    No line is kept, so memory grows with the graph, not with the file. An
    edge past the vertex count is only remembered through `top`. A file
    tagged with Kneser parameters must hold exactly the edges those
    parameters build."""
    declared: tuple[int, int] | None = None
    params: KneserParams | None = None
    masks: list[int] = []
    size = 0  # len(masks)
    # edges read before the p line
    unplaced: list[tuple[int, int]] = []
    top = -1
    edge_lines = 0
    for line in lines:
        parts = line.split()
        if len(parts) == 3 and parts[0] == "e":
            try:
                u, v = int(parts[1]), int(parts[2])
            except ValueError:
                raise ValueError(f"malformed edge line: {line.strip()!r}") from None
            if u == v or u < 1 or v < 1:
                raise ValueError(f"invalid edge {u} {v}")
            u, v = (u - 1, v - 1) if u < v else (v - 1, u - 1)
            if v > top:
                top = v
            if v < size:
                masks[u] |= 1 << v
                masks[v] |= 1 << u
            elif declared is None:
                unplaced.append((u, v))
            edge_lines += 1
            continue
        if not parts:
            continue
        line = line.strip()
        first = line[0]
        if first == "c":
            m = _KNESER_COMMENT.match(line)
            if m:
                params = KneserParams(int(m.group(1)), int(m.group(2)))
        elif first == "p":
            if declared is not None:
                raise ValueError(f"repeated problem line: {line!r}")
            m = _PROBLEM_LINE.match(line)
            if not m:
                raise ValueError(f"malformed problem line: {line!r}")
            declared = (int(m.group(1)), int(m.group(2)))
            size = declared[0]
            masks = [0] * size
            for u, v in unplaced:
                if v < size:
                    masks[u] |= 1 << v
                    masks[v] |= 1 << u
            unplaced = []
        elif first == "e":
            # a wrong token count, or a first token such as `e1` or `edge`
            raise ValueError(f"malformed edge line: {line!r}")
        else:
            raise ValueError(f"unrecognized DIMACS line: {line!r}")
    if declared is None:
        raise ValueError("missing 'p edge' header")
    if top >= declared[0]:
        raise ValueError(f"edge endpoint {top + 1} exceeds vertex count")
    graph = Graph(masks)
    if graph.edge_count != declared[1]:
        raise ValueError(
            f"edge count mismatch: declared {declared[1]}, found {graph.edge_count}"
        )
    if edge_lines != graph.edge_count:
        raise ValueError(
            f"repeated edge: {edge_lines} edge lines name "
            f"{graph.edge_count} distinct edges"
        )
    if params is not None:
        expected = build_graph(params)
        if expected.masks != graph.masks:
            raise ValueError(
                f"edge list does not match kneser n={params.n} k={params.k}"
            )
        return expected
    return graph


def write_graph(path: str | Path, graph: Graph) -> None:
    with Path(path).open("w") as out:
        out.writelines(_dimacs_pieces(graph))


def load_graph(path: str | Path) -> Graph:
    """Read a DIMACS file once, line by line, with universal newlines; the
    file is never held whole in memory."""
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
        "bk": asdict(report.bk),  # its fields in the schema's order
        "u": {
            **fraction_json(report.u_exact),
            "floor": report.u_floor,
            "sharp_n1": params.n == 1,
        },
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
