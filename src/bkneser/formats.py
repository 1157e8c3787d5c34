"""Interchange formats: DIMACS edge files, JSON graphs, coloring certificates,
structure-analysis reports, and exact-rational rendering.

Field names and orders are frozen in docs/SCHEMAS.md; graph files tagged with
Kneser parameters are re-derived from those parameters on load and the stored
edge list must match exactly.
"""

from __future__ import annotations

import io
import json
import re
from decimal import Decimal, localcontext
from fractions import Fraction
from pathlib import Path
from typing import Any, Iterator

from .bcoloring import Coloring, ProofAnalysis
from .bounds import BoundsReport, ScanRow
from .kneser import Graph, KneserParams, bit_indices, build_graph

_KNESER_COMMENT = re.compile(r"^c\s+kneser\s+n=(\d+)\s+k=(\d+)\s*$")


def fraction_str(f: Fraction) -> str:
    return f"{f.numerator}/{f.denominator}"


def fraction_decimal_str(f: Fraction) -> str:
    """Six-place decimal rendering with half-even rounding; storage stays exact."""
    with localcontext() as ctx:
        ctx.prec = 50
        q = Decimal(f.numerator) / Decimal(f.denominator)
        return str(q.quantize(Decimal("0.000001")))


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
    """Parse a DIMACS edge file, folding each edge into per-vertex masks as
    it is read; the `p` line may come anywhere."""
    declared: tuple[int, int] | None = None
    params: KneserParams | None = None
    masks: list[int] = []
    # edges read before the p line, or past its vertex count
    unplaced: list[tuple[int, int]] = []
    top = -1
    for raw in io.StringIO(text, newline=None):
        line = raw.strip()
        if not line:
            continue
        if line.startswith("c"):
            m = _KNESER_COMMENT.match(line)
            if m:
                params = KneserParams(int(m.group(1)), int(m.group(2)))
            continue
        if line.startswith("p"):
            parts = line.split()
            if len(parts) != 4 or parts[1] != "edge":
                raise ValueError(f"malformed problem line: {line!r}")
            declared = (int(parts[2]), int(parts[3]))
            del masks[max(declared[0], 0):]
            masks.extend([0] * (declared[0] - len(masks)))
            for u, v in unplaced:
                if v < declared[0]:
                    masks[u] |= 1 << v
                    masks[v] |= 1 << u
            unplaced = [(u, v) for u, v in unplaced if v >= declared[0]]
            continue
        if line.startswith("e"):
            parts = line.split()
            if len(parts) != 3:
                raise ValueError(f"malformed edge line: {line!r}")
            u, v = int(parts[1]), int(parts[2])
            if u == v or u < 1 or v < 1:
                raise ValueError(f"invalid edge {u} {v}")
            u, v = min(u, v) - 1, max(u, v) - 1
            if v > top:
                top = v
            if v < len(masks):
                masks[u] |= 1 << v
                masks[v] |= 1 << u
            else:
                unplaced.append((u, v))
            continue
        raise ValueError(f"unrecognized DIMACS line: {line!r}")
    if declared is None:
        raise ValueError("missing 'p edge' header")
    _check_endpoints(top, declared[0])
    return _assemble(Graph._from_masks(masks), declared[1], params)


def _graph_json_head(graph: Graph) -> dict[str, Any]:
    """graph_json_dict(graph) with an empty edge list."""
    return {
        "format": "kneser-graph",
        "version": 1,
        "params": (
            {"n": graph.params.n, "k": graph.params.k}
            if graph.params is not None
            else None
        ),
        "vertex_count": graph.vertex_count,
        "edges": [],
    }


def graph_json_dict(graph: Graph) -> dict[str, Any]:
    doc = _graph_json_head(graph)
    doc["edges"] = [[u + 1, v + 1] for u, v in graph.edges()]
    return doc


def _json_pieces(graph: Graph) -> Iterator[str]:
    """json.dumps(graph_json_dict(graph), indent=2) + "\n", in one piece per
    vertex instead of one string holding every edge."""
    head = json.dumps(_graph_json_head(graph), indent=2)
    if not graph.edge_count:
        yield head + "\n"
        return
    yield head[: -len("[]\n}")] + "["  # the empty edge list, reopened
    sep = "\n"
    for v, m in enumerate(graph.masks):
        higher = bit_indices(m >> (v + 1))
        if higher:
            lead = f"    [\n      {v + 1},\n      "
            yield sep + ",\n".join([f"{lead}{v + 2 + u}\n    ]" for u in higher])
            sep = ",\n"
    yield "\n  ]\n}\n"


def graph_from_json_dict(data: dict[str, Any]) -> Graph:
    if data.get("format") != "kneser-graph" or data.get("version") != 1:
        raise ValueError("not a kneser-graph JSON document (format/version)")
    params = None
    if data.get("params") is not None:
        params = KneserParams(int(data["params"]["n"]), int(data["params"]["k"]))
    vertex_count = int(data["vertex_count"])
    edges = [(min(u, v) - 1, max(u, v) - 1) for u, v in data["edges"]]
    _check_endpoints(max((v for _, v in edges), default=-1), vertex_count)
    return _assemble(Graph.from_edges(vertex_count, edges), len(edges), params)


def _check_endpoints(top: int, vertex_count: int) -> None:
    """Reject a file whose largest (0-indexed) endpoint `top` is out of range."""
    if top >= vertex_count:
        raise ValueError(f"edge endpoint {top + 1} exceeds vertex count")


def _assemble(graph: Graph, declared_edges: int, params: KneserParams | None) -> Graph:
    """The graph read from a file, checked against its declared edge count
    and its Kneser tag."""
    if graph.edge_count != declared_edges:
        raise ValueError(
            f"edge count mismatch: declared {declared_edges}, found {graph.edge_count}"
        )
    if params is not None:
        expected = build_graph(params)
        if expected.masks != graph.masks:
            raise ValueError(
                f"edge list does not match kneser n={params.n} k={params.k}"
            )
        return expected
    return graph


def write_graph(path: str | Path, graph: Graph, fmt: str = "dimacs") -> None:
    path = Path(path)
    if fmt == "dimacs":
        with path.open("w") as out:
            out.writelines(_dimacs_pieces(graph))
    elif fmt == "json":
        with path.open("w") as out:
            out.writelines(_json_pieces(graph))
    else:
        raise ValueError(f"unknown graph format: {fmt}")


def load_graph(path: str | Path) -> Graph:
    """Read a graph file, sniffing JSON vs DIMACS by suffix then content."""
    path = Path(path)
    text = path.read_text()
    stripped = text.lstrip()
    if path.suffix == ".json" or stripped.startswith("{"):
        return graph_from_json_dict(json.loads(text))
    return dimacs_loads(text)


# ---------------------------------------------------------------------------
# certificates


def certificate_dict(
    coloring: Coloring, params: KneserParams | None, claimed: bool = True
) -> dict[str, Any]:
    return {
        "params": {"n": params.n, "k": params.k} if params is not None else None,
        "vertex_count": len(coloring.colors),
        "colors": list(coloring.colors),
        "claimed_b_coloring": claimed,
    }


def write_certificate(
    path: str | Path, coloring: Coloring, params: KneserParams | None
) -> None:
    Path(path).write_text(json.dumps(certificate_dict(coloring, params), indent=2) + "\n")


def certificate_from_dict(
    data: dict[str, Any],
) -> tuple[Coloring, KneserParams | None, bool]:
    for key in ("params", "vertex_count", "colors", "claimed_b_coloring"):
        if key not in data:
            raise ValueError(f"certificate missing field {key!r}")
    colors = data["colors"]
    if not isinstance(colors, list) or not all(isinstance(c, int) for c in colors):
        raise ValueError("certificate colors must be a list of integers")
    if len(colors) != data["vertex_count"]:
        raise ValueError("certificate vertex_count disagrees with colors length")
    params = None
    if data["params"] is not None:
        params = KneserParams(int(data["params"]["n"]), int(data["params"]["k"]))
    # Labels are canonicalized on load; class structure is unaffected.
    return Coloring.from_sequence(colors), params, bool(data["claimed_b_coloring"])


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
                "core": list(ca.core.elements()),
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
        "bk": {
            "applicable": report.bk.applicable,
            "hypothesis_met": report.bk.hypothesis_met,
            "i_max": report.bk.i_max,
            "value": report.bk.value,
        },
        "u": {
            "exact": fraction_str(report.u_exact),
            "decimal": fraction_decimal_str(report.u_exact),
            "floor": report.u_floor,
            "sharp_n1": params.n == 1,
        },
        "best": report.best,
        "ratios": {
            "two_ground_over_v": fraction_json(report.ratios.two_ground_over_v),
            "degree_over_v": fraction_json(report.ratios.degree_over_v),
        },
    }


_SCAN_CSV_HEADER = (
    "k,N,vertex_count,degree,regular,bk,u_floor,best,"
    "ratio_2N_over_V,ratio_2N_over_V_decimal,ratio_d_over_V,ratio_d_over_V_decimal"
)


def scan_row_dict(row: ScanRow) -> dict[str, Any]:
    return {
        "k": row.k,
        "N": row.ground_size,
        "vertex_count": row.vertex_count,
        "degree": row.degree,
        "regular": row.regular_bound,
        "bk": row.bk_value,
        "u_floor": row.u_floor,
        "best": row.best,
        "ratio_2N_over_V": fraction_json(row.two_ground_over_v),
        "ratio_d_over_V": fraction_json(row.degree_over_v),
    }


def scan_rows_csv(rows: list[ScanRow]) -> str:
    lines = [_SCAN_CSV_HEADER]
    for r in rows:
        lines.append(
            ",".join(
                [
                    str(r.k),
                    str(r.ground_size),
                    str(r.vertex_count),
                    str(r.degree),
                    str(r.regular_bound),
                    "" if r.bk_value is None else str(r.bk_value),
                    str(r.u_floor),
                    str(r.best),
                    fraction_str(r.two_ground_over_v),
                    fraction_decimal_str(r.two_ground_over_v),
                    fraction_str(r.degree_over_v),
                    fraction_decimal_str(r.degree_over_v),
                ]
            )
        )
    return "\n".join(lines) + "\n"
