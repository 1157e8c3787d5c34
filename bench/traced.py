"""The traced run: a workload's operations done in-process through the public
API of bkneser, with a span kept in memory around every call into kneser,
bounds, solver, bcoloring and formats. Imported only with --trace 1, after
the source tree is on sys.path.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from pathlib import Path

import bkneser
from bkneser import formats

from workloads import Op, Outcome, seed_tuples

PER_LAYER = {
    "kneser.build_graph_s": "s",
    "kneser.graph_rss_mb": "MB",
    "bounds.best_upper_bound_s": "s",
    "solver.exact_phi_s": "s",
    "solver.search_nodes": "nodes",
    "solver.search_nodes_per_s": "nodes/s",
    "solver.refute_s": "s",
    "solver.found_s": "s",
    "solver.budget_s": "s",
    "solver.seed_tuples_refuted": "tuples",
    "solver.heuristic_s": "s",
    "solver.heuristic_steps": "steps",
    "solver.brute_s": "s",
    "solver.brute_nodes": "nodes",
    "solver.brute_nodes_per_s": "nodes/s",
    "bcoloring.is_b_coloring_s": "s",
    "bcoloring.analyze_proof_structure_s": "s",
    "formats.write_graph_s": "s",
    "formats.load_graph_s": "s",
    "formats.graph_file_bytes": "bytes",
    "cli.overhead_s": "s",
}


class Tracer:
    """Spans in memory: name, start, end, parent span and attributes."""

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self._open: list[int] = []
        self.last: dict = {}

    @contextmanager
    def span(self, name: str, **attrs):
        record = {
            "id": len(self.spans),
            "name": name,
            "parent": self._open[-1] if self._open else None,
            "start": time.perf_counter(),
            "end": None,
            **attrs,
        }
        self.spans.append(record)
        self._open.append(record["id"])
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            self._open.pop()

    def call(self, name: str, fn, *args, **kwargs):
        with self.span(name) as record:
            self.last = record
            return fn(*args, **kwargs)

    def total(self, name: str, **match) -> float:
        return sum(
            s["end"] - s["start"]
            for s in self.spans
            if s["name"] == name and all(s.get(k) == v for k, v in match.items())
        )

    def attr_sum(self, name: str, attr: str) -> int:
        return sum(s.get(attr, 0) for s in self.spans if s["name"] == name)


# ---------------------------------------------------------------------------
# operations, as the CLI does them


def _graph(t: Tracer, op: Op, work: Path):
    if op.inst.path:
        return t.call("formats.load_graph", formats.load_graph, work / op.inst.path)
    return t.call("kneser.build_graph", bkneser.build_graph, bkneser.KneserParams(*op.inst.params))


def _budget(op: Op) -> bkneser.Budget:
    return bkneser.Budget(
        max_nodes=op.budget_nodes or bkneser.DEFAULT_NODE_BUDGET,
        time_limit=op.budget_seconds,
    )


def _gen(t: Tracer, op: Op, work: Path):
    graph = t.call("kneser.build_graph", bkneser.build_graph, bkneser.KneserParams(*op.inst.params))
    path = work / op.graph_file
    t.call("formats.write_graph", formats.write_graph, path, graph)
    t.last["bytes"] = path.stat().st_size
    return 0, None


def _solve(t: Tracer, op: Op, work: Path):
    graph = _graph(t, op, work)
    try:
        if op.kind == "solve":
            result = t.call("solver.exact_phi", bkneser.exact_phi, graph, budget=_budget(op))
        elif op.kind == "oracle":
            cap = op.brute_cap or bkneser.DEFAULT_BRUTE_FORCE_CAP
            result = t.call("solver.brute_force_phi", bkneser.brute_force_phi, graph, cap=cap)
        else:
            result = t.call("solver.heuristic_b_coloring", bkneser.heuristic_b_coloring, graph)
    except bkneser.BudgetExceeded as exc:
        t.last.update(nodes=exc.nodes_explored, timed=op.budget_seconds is not None)
        if exc.certificate is not None:
            t.call(
                "formats.write_certificate",
                formats.write_certificate, work / op.cert, exc.certificate, graph.params,
            )
        bracket = {"lower": exc.lower_bound, "upper": exc.upper_bound}
        return 3, {"bracket": bracket, "tested_k": exc.tested_k,
                   "nodes_explored": exc.nodes_explored}
    t.last.update(nodes=result.stats.nodes_explored, timed=op.budget_seconds is not None)
    t.call(
        "formats.write_certificate",
        formats.write_certificate, work / op.cert, result.certificate, graph.params,
    )
    return 0, {"phi": result.phi, "infeasible_at": list(result.infeasible_at),
               "stats": {"nodes_explored": result.stats.nodes_explored}}


def _verify(t: Tracer, op: Op, work: Path):
    graph = t.call("formats.load_graph", formats.load_graph, work / op.graph_file)
    coloring, _, _ = t.call("formats.read_certificate", formats.read_certificate, work / op.cert)
    verdict = t.call("bcoloring.is_b_coloring", bkneser.is_b_coloring, graph, coloring)
    doc = {"valid": verdict.valid, "color_count": coloring.color_count}
    if not verdict.valid:
        doc["reason"] = verdict.reason.value
        return 1, doc
    if op.proof:
        analysis = t.call(
            "bcoloring.analyze_proof_structure",
            bkneser.analyze_proof_structure, graph.params, graph, coloring,
        )
        counting = analysis.counting
        doc["proof_structure"] = {
            "ok": analysis.ok,
            "failures": [f.step.value for f in analysis.failures],
            "counting": {
                "family_size": counting.family_size,
                "class_bound_holds": counting.class_bound_holds,
                "global_bound_holds": counting.global_bound_holds,
            },
        }
        return (0 if analysis.ok else 1), doc
    return 0, doc


_RUNNERS = {"gen": _gen, "solve": _solve, "oracle": _solve, "heuristic": _solve, "verify": _verify}


def run_op(t: Tracer, op: Op, work: Path) -> Outcome:
    """One operation in-process, inside an op span, as the CLI would run it."""
    with t.span(f"op.{op.kind}", label=op.inst.label) as record:
        rc, doc = _RUNNERS[op.kind](t, op, work)
    return Outcome(rc, doc, record["end"] - record["start"])


def profile_refutation(t: Tracer, op: Op, work: Path, doc: dict) -> None:
    """Call feasible_b_coloring for each k in descending order, as exact_phi
    does, and label each call refuted, found or out of budget.

    The range is exact_phi's: from the upper bound down to just above the
    heuristic's lower bound, stopping at the k where the solve ran out of
    budget. Each k gets the solve's whole budget, since feasible_b_coloring
    reports no node count to carry over.
    """
    with t.span("profile", label=op.inst.label):
        graph = _graph(t, op, work)
        upper = t.call("solver.degree_bound", bkneser.degree_bound, graph)
        if graph.params is not None:
            report = t.call("bounds.best_upper_bound", bkneser.best_upper_bound, graph.params)
            upper = min(upper, report.best)
        if "bracket" in doc:
            lower, stop = doc["bracket"]["lower"], doc["tested_k"]
        else:
            heur = t.call("solver.heuristic_b_coloring", bkneser.heuristic_b_coloring, graph)
            t.last["nodes"] = heur.stats.nodes_explored
            lower, stop = heur.phi, None
        for k in range(upper, lower, -1):
            try:
                found = t.call(
                    "solver.feasible_b_coloring",
                    bkneser.feasible_b_coloring, graph, k, budget=_budget(op),
                )
                outcome = "refute" if found is None else "found"
            except bkneser.BudgetExceeded:
                outcome = "budget"
            t.last.update(k=k, outcome=outcome)
            if outcome == "refute":
                t.last["tuples"] = seed_tuples(op.inst.graph, k)
            if outcome != "refute" or k == stop:
                break


def layer_metrics(t: Tracer, cli_wall: float, op_count: int) -> dict[str, float]:
    """Per-layer sums over one round's spans (kneser.graph_rss_mb excluded)."""
    exact_s = t.total("solver.exact_phi", timed=False)
    exact_nodes = sum(
        s["nodes"] for s in t.spans
        if s["name"] == "solver.exact_phi" and not s.get("timed")
    )
    brute_s = t.total("solver.brute_force_phi")
    brute_nodes = t.attr_sum("solver.brute_force_phi", "nodes")
    op_s = sum(s["end"] - s["start"] for s in t.spans if s["name"].startswith("op."))
    return {
        "kneser.build_graph_s": t.total("kneser.build_graph"),
        "bounds.best_upper_bound_s": t.total("bounds.best_upper_bound"),
        "solver.exact_phi_s": t.total("solver.exact_phi"),
        "solver.search_nodes": exact_nodes,
        "solver.search_nodes_per_s": exact_nodes / exact_s if exact_s else 0.0,
        "solver.refute_s": t.total("solver.feasible_b_coloring", outcome="refute"),
        "solver.found_s": t.total("solver.feasible_b_coloring", outcome="found"),
        "solver.budget_s": t.total("solver.feasible_b_coloring", outcome="budget"),
        "solver.seed_tuples_refuted": t.attr_sum("solver.feasible_b_coloring", "tuples"),
        "solver.heuristic_s": t.total("solver.heuristic_b_coloring"),
        "solver.heuristic_steps": t.attr_sum("solver.heuristic_b_coloring", "nodes"),
        "solver.brute_s": brute_s,
        "solver.brute_nodes": brute_nodes,
        "solver.brute_nodes_per_s": brute_nodes / brute_s if brute_s else 0.0,
        "bcoloring.is_b_coloring_s": t.total("bcoloring.is_b_coloring"),
        "bcoloring.analyze_proof_structure_s": t.total("bcoloring.analyze_proof_structure"),
        "formats.write_graph_s": t.total("formats.write_graph"),
        "formats.load_graph_s": t.total("formats.load_graph"),
        "formats.graph_file_bytes": t.attr_sum("formats.write_graph", "bytes"),
        "cli.overhead_s": (cli_wall - op_s) / op_count,
    }

