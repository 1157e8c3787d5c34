"""Verification suites: sharpness at n=1, the bound crossover, solver/oracle
equivalence on a committed seed list, and finite-k ratio monotonicity.

Each suite returns a SuiteReport with per-check outcomes and the computed
tables, so the CLI and the test suite share one implementation.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from fractions import Fraction
from importlib import resources
from typing import Any

from .bcoloring import analyze_proof_structure
from .bounds import asymptotic_table, u_bound
from .formats import fraction_str
from .kneser import Graph, KneserParams, build_graph
from .solver import brute_force_phi, exact_phi, heuristic_b_coloring, phi_upper_bound

SEED_LIST_RESOURCE = "oracle_seeds.json"
CROSSOVER_K_MAX = 12
RATIOS_K_MAX = 200

# Every (n, k) with at most 12 vertices: n=1 gives complete graphs K_{2+k},
# n=2 gives the 6-vertex perfect matching and the 10-vertex KG(5,2).
SMALL_KNESER_PARAMS = tuple(
    [KneserParams(1, k) for k in range(0, 11)]
    + [KneserParams(2, 0), KneserParams(2, 1)]
)


@dataclass
class SuiteReport:
    suite: str
    checks: list[dict[str, Any]] = field(default_factory=list)
    data: dict[str, Any] = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return all(c["passed"] for c in self.checks)

    def check(self, name: str, passed: bool, detail: str = "") -> None:
        self.checks.append({"name": name, "passed": bool(passed), "detail": detail})

    def to_dict(self) -> dict[str, Any]:
        return {
            "suite": self.suite,
            "passed": self.passed,
            "checks": self.checks,
            "data": self.data,
        }

    def text_summary(self) -> str:
        lines = [f"suite: {self.suite}"]
        for c in self.checks:
            mark = "PASS" if c["passed"] else "FAIL"
            detail = f" -- {c['detail']}" if c["detail"] else ""
            lines.append(f"[{mark}] {c['name']}{detail}")
        lines.append(f"result: {'PASS' if self.passed else 'FAIL'}")
        return "\n".join(lines) + "\n"


def erdos_renyi_graph(n: int, p: float, seed: int) -> Graph:
    """Seeded G(n, p); edge decisions scan pairs (u, v), u < v, in order."""
    rng = random.Random(seed)
    edges = [
        (u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p
    ]
    return Graph.from_edges(n, edges)


def load_seed_entries() -> list[dict[str, Any]]:
    """Entries of the committed seed list."""
    text = resources.files("bkneser.data").joinpath(SEED_LIST_RESOURCE).read_text()
    return json.loads(text)["entries"]


def run_sharpness() -> SuiteReport:
    """phi(KG(2+k, 1)) must equal the counting bound exactly for k = 0..6."""
    report = SuiteReport("sharpness")
    rows = []
    for k in range(0, 7):
        params = KneserParams(1, k)
        graph = build_graph(params)
        result = exact_phi(graph)
        u = u_bound(params)
        expected = 2 + k
        ok = (
            result.phi == expected
            and u.exact == Fraction(expected)
            and u.exact.denominator == 1
            and u.floor == expected
        )
        rows.append(
            {
                "k": k,
                "vertex_count": params.vertex_count,
                "phi": result.phi,
                "u_exact": fraction_str(u.exact),
                "u_floor": u.floor,
            }
        )
        report.check(
            f"n=1 k={k}: phi = U = {expected}",
            ok,
            f"phi={result.phi}, U={fraction_str(u.exact)}",
        )
    report.data["rows"] = rows
    return report


def run_crossover() -> SuiteReport:
    """n=2 scan: the d-i bound must match its ceiling form wherever it applies,
    and the floor of the counting bound first beats it at some k*."""
    report = SuiteReport("crossover")
    rows = asymptotic_table(2, 0, CROSSOVER_K_MAX)
    crossover = None
    for row in rows:
        k, bk = row.params.k, row.bk
        if bk.applicable:
            expected = -((row.params.vertex_count - 2) // -2)
            report.check(
                f"k={k}: d-i bound equals ceil((|V|-2)/2)",
                bk.value == expected,
                f"value={bk.value}, ceiling={expected}",
            )
        if crossover is None and row.bk_value is not None and row.u_floor < row.bk_value:
            crossover = k
    report.check(
        "crossover exists within scan",
        crossover is not None,
        f"k*={crossover}",
    )
    report.check("crossover at k*=6", crossover == 6, f"k*={crossover}")
    spot = rows[10]
    report.check(
        "k=10 spot values: bk=45, u_floor=39",
        spot.bk_value == 45 and spot.u_floor == 39,
        f"bk={spot.bk_value}, u_floor={spot.u_floor}",
    )
    report.data["crossover_k"] = crossover
    report.data["rows"] = [
        {
            "k": r.params.k,
            "vertex_count": r.params.vertex_count,
            "degree": r.params.degree,
            "bk": r.bk_value,
            "u_floor": r.u_floor,
            "best": r.best,
        }
        for r in rows
    ]
    return report


def _solve_instance(
    report: SuiteReport, label: str, graph: Graph
) -> None:
    brute = brute_force_phi(graph)
    exact = exact_phi(graph)
    heur = heuristic_b_coloring(graph)
    upper = phi_upper_bound(graph)
    report.check(
        f"{label}: exact equals brute force",
        exact.phi == brute.phi,
        f"exact={exact.phi}, brute={brute.phi}",
    )
    report.check(
        f"{label}: heuristic <= phi <= upper bound",
        heur.phi <= exact.phi <= upper,
        f"{heur.phi} <= {exact.phi} <= {upper}",
    )
    if graph.params is not None:
        for mode, result in (("brute", brute), ("exact", exact), ("heuristic", heur)):
            analysis = analyze_proof_structure(
                graph.params, graph, result.certificate
            )
            report.check(
                f"{label}: structure analysis clean ({mode})",
                analysis.ok,
                "; ".join(f.detail for f in analysis.failures),
            )
    report.data["rows"].append(
        {
            "instance": label,
            "vertices": graph.vertex_count,
            "phi": exact.phi,
            "brute": brute.phi,
            "heuristic_lb": heur.phi,
            "upper": upper,
        }
    )


def run_oracle() -> SuiteReport:
    """Exact solver against the brute-force oracle: all small Kneser instances
    and the committed random-graph seed list, with the sandwich property."""
    report = SuiteReport("oracle")
    report.data["rows"] = []
    for params in SMALL_KNESER_PARAMS:
        _solve_instance(
            report,
            f"KG({params.ground_size},{params.n})",
            build_graph(params),
        )
    entries = load_seed_entries()
    report.data["seed_entries_used"] = len(entries)
    for entry in entries:
        graph = erdos_renyi_graph(entry["vertices"], entry["density"], entry["seed"])
        label = f"ER(n={entry['vertices']}, p={entry['density']}, seed={entry['seed']})"
        _solve_instance(report, label, graph)
    return report


def run_ratios() -> SuiteReport:
    """Finite-k evidence tables for n = 2..5: 2(2n+k)/|V| strictly decreasing,
    d/|V| strictly increasing and below 1; records where the first ratio drops
    below 1/1000 (it does not within the scan for n=2)."""
    report = SuiteReport("ratios")
    thresholds: dict[str, int | None] = {}
    tables = {}
    threshold = Fraction(1, 1000)
    for n in range(2, 6):
        rows = asymptotic_table(n, 0, RATIOS_K_MAX)
        excess = [r.ratios.two_ground_over_v for r in rows]
        density = [r.ratios.degree_over_v for r in rows]
        report.check(
            f"n={n}: 2(2n+k)/|V| strictly decreasing over k=0..{RATIOS_K_MAX}",
            all(a > b for a, b in zip(excess, excess[1:])),
        )
        report.check(
            f"n={n}: d/|V| strictly increasing over k=0..{RATIOS_K_MAX}",
            all(a < b for a, b in zip(density, density[1:])),
        )
        report.check(
            f"n={n}: d/|V| < 1 throughout",
            all(r < 1 for r in density),
        )
        first_below = next(
            (r.params.k for r, value in zip(rows, excess) if value < threshold), None
        )
        thresholds[str(n)] = first_below
        report.check(
            f"n={n}: first k with ratio < 1/1000 recorded",
            True,
            f"k={first_below}" if first_below is not None else
            f"not reached by k={RATIOS_K_MAX} "
            f"(ratio there = {fraction_str(excess[-1])})",
        )
        tables[str(n)] = [
            {
                "k": r.params.k,
                "vertex_count": r.params.vertex_count,
                "ratio_2N_over_V": fraction_str(r.ratios.two_ground_over_v),
                "ratio_d_over_V": fraction_str(r.ratios.degree_over_v),
            }
            for r in rows
        ]
    report.data["thresholds"] = thresholds
    report.data["tables"] = tables
    return report


SUITES = {
    "sharpness": run_sharpness,
    "crossover": run_crossover,
    "oracle": run_oracle,
    "ratios": run_ratios,
}
