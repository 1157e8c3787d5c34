"""Command-line interface.

Subcommands: gen (write a graph file), bounds (single report or scan table),
solve (exact / brute-force / heuristic), verify (check a certificate, with
optional structure analysis), reproduce (run a named verification suite).

Exit codes: 0 success or valid; 1 invalid certificate or failed suite;
2 usage or input error; 3 budget-limited bracket. Budgets come only from
flags. Node budgets and brute caps below 1 and negative or NaN time budgets
exit 2, and so does a budget flag the chosen solve mode does not read
(_MODE_FLAGS).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from pathlib import Path
from typing import Any

from . import formats
from .bcoloring import analyze_proof_structure, is_b_coloring
from .bounds import asymptotic_table, best_upper_bound
from .kneser import InstanceTooLarge, KneserParams, build_graph
from .reproduce import SUITES
from .solver import (
    DEFAULT_BRUTE_FORCE_CAP,
    DEFAULT_NODE_BUDGET,
    Budget,
    BudgetExceeded,
    brute_force_phi,
    exact_phi,
    heuristic_b_coloring,
)

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2
EXIT_BUDGET = 3

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bkneser",
        description="Kneser graphs, b-coloring verification, bounds, and exact search.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_gen = sub.add_parser("gen", help="write a Kneser graph to a file")
    p_gen.add_argument("n", type=int)
    p_gen.add_argument("k", type=int)
    p_gen.add_argument("--out", required=True, help="output path")
    p_gen.set_defaults(func=_cmd_gen)

    p_bounds = sub.add_parser("bounds", help="upper bounds for one instance or a scan")
    p_bounds.add_argument("n", type=int, nargs="?")
    p_bounds.add_argument("k", type=int, nargs="?")
    p_bounds.add_argument(
        "--scan",
        nargs=3,
        type=int,
        metavar=("N", "KMIN", "KMAX"),
        help="scan k over an inclusive range for fixed n",
    )
    p_bounds.add_argument("--format", choices=["human", "json", "csv"], default="human")
    p_bounds.set_defaults(func=_cmd_bounds)

    p_solve = sub.add_parser("solve", help="compute the b-chromatic number")
    p_solve.add_argument(
        "target",
        nargs="+",
        help="GRAPH_FILE, or two integers n k for KG(2n+k, n)",
    )
    p_solve.add_argument("--mode", choices=["exact", "brute", "heuristic"], default="exact")
    p_solve.add_argument("--budget-nodes", type=int, default=None)
    p_solve.add_argument("--budget-seconds", type=float, default=None)
    p_solve.add_argument("--brute-cap", type=int, default=None)
    p_solve.add_argument("--cert", default="certificate.json", help="certificate output path")
    p_solve.add_argument("--format", choices=["human", "json"], default="human")
    p_solve.set_defaults(func=_cmd_solve)

    p_verify = sub.add_parser("verify", help="verify a coloring certificate")
    p_verify.add_argument("graph")
    p_verify.add_argument("certificate")
    p_verify.add_argument(
        "--proof-structure",
        action="store_true",
        help="also run the class-structure analysis (Kneser graphs only)",
    )
    p_verify.add_argument("--format", choices=["human", "json"], default="human")
    p_verify.set_defaults(func=_cmd_verify)

    p_rep = sub.add_parser("reproduce", help="run a named verification suite")
    p_rep.add_argument("--suite", choices=sorted(SUITES), required=True)
    p_rep.add_argument("--out-dir", default="reports")
    p_rep.set_defaults(func=_cmd_reproduce)

    return parser


def _config_dict(args: argparse.Namespace, keys: list[str]) -> dict[str, Any]:
    cfg: dict[str, Any] = {"command": args.command}
    for key in keys:
        cfg[key] = getattr(args, key)
    return cfg


def _emit(obj: dict[str, Any]) -> None:
    print(json.dumps(obj, indent=2))


def _cmd_gen(args: argparse.Namespace) -> int:
    graph = build_graph(KneserParams(args.n, args.k))
    formats.write_graph(args.out, graph)
    print(
        f"wrote KG({graph.params.ground_size},{graph.params.n}) "
        f"({graph.vertex_count} vertices, {graph.edge_count} edges) to {args.out}"
    )
    return EXIT_OK


def _cmd_bounds(args: argparse.Namespace) -> int:
    def usage(msg: str) -> int:
        _fail(msg)
        return EXIT_USAGE

    if args.scan is not None:
        if args.n is not None or args.k is not None:
            return usage("give either n k or --scan, not both")
        n, kmin, kmax = args.scan
        rows = asymptotic_table(n, kmin, kmax)
        cfg = _config_dict(args, ["scan", "format"])
        if args.format == "csv":
            sys.stdout.write(formats.scan_rows_csv(rows))
        elif args.format == "json":
            _emit({"config": cfg, "rows": [formats.scan_row_dict(r) for r in rows]})
        else:
            header = (
                f"{'k':>4} {'|V|':>12} {'d':>10} {'regular':>8} {'bk':>8} "
                f"{'u_floor':>8} {'best':>8}  ratios 2N/V, d/V"
            )
            print(header)
            for r in rows:
                p = r.params
                bk = "-" if r.bk_value is None else str(r.bk_value)
                print(
                    f"{p.k:>4} {p.vertex_count:>12} {p.degree:>10} "
                    f"{r.regular_bound:>8} {bk:>8} {r.u_floor:>8} {r.best:>8}  "
                    f"{formats.fraction_human(r.ratios.two_ground_over_v)}, "
                    f"{formats.fraction_human(r.ratios.degree_over_v)}"
                )
        return EXIT_OK
    if args.n is None or args.k is None:
        return usage("bounds requires n and k, or --scan")
    report = best_upper_bound(KneserParams(args.n, args.k))
    if args.format == "csv":
        return usage("CSV output is only available for --scan tables")
    cfg = _config_dict(args, ["n", "k", "format"])
    if args.format == "json":
        _emit({"config": cfg, "report": formats.bounds_report_dict(report)})
        return EXIT_OK
    p = report.params
    print(
        f"KG({p.ground_size},{p.n}) with n={p.n} k={p.k}: "
        f"|V|={p.vertex_count}, d={p.degree}"
    )
    print(f"regular bound (d+1): {report.regular_bound}")
    if report.bk.applicable:
        note = "" if report.bk.hypothesis_met else "  [hypothesis n>=2 not met; unused]"
        print(f"d-i bound: {report.bk.value} (i_max={report.bk.i_max}){note}")
    else:
        print("d-i bound: not applicable (|V| > 2d+2)")
    sharp = " -- sharp (n=1)" if p.n == 1 else ""
    print(
        f"U bound: {formats.fraction_human(report.u_exact)}, "
        f"floor {report.u_floor}{sharp}"
    )
    print(f"best upper bound: {report.best}")
    return EXIT_OK


def _parse_solve_target(args: argparse.Namespace):
    if len(args.target) == 1:
        return formats.load_graph(args.target[0])
    if len(args.target) == 2:
        try:
            n, k = int(args.target[0]), int(args.target[1])
        except ValueError:
            raise ValueError("solve target must be a file or two integers n k")
        return build_graph(KneserParams(n, k))
    raise ValueError("solve target must be a file or two integers n k")


# each budget flag: (its argparse dest and config key, its default, the
# least value accepted)
_BUDGET_FLAGS = {
    "--budget-nodes": ("budget_nodes", DEFAULT_NODE_BUDGET, 1),
    "--budget-seconds": ("budget_seconds", None, 0.0),
    "--brute-cap": ("brute_cap", DEFAULT_BRUTE_FORCE_CAP, 1),
}

# the budget flags each solve mode reads; any other one is an input error,
# and the solve's config reports exactly these
_MODE_FLAGS = {
    "exact": ("--budget-nodes", "--budget-seconds"),
    "brute": ("--brute-cap",),
    "heuristic": ("--budget-seconds",),
}


def _solve_budgets(args: argparse.Namespace) -> dict[str, Any]:
    """The budget settings the solve mode reads, by config key, each from its
    flag or else its default."""
    given = {flag: getattr(args, key) for flag, (key, _, _) in _BUDGET_FLAGS.items()}
    reads = _MODE_FLAGS[args.mode]
    for flag, value in given.items():
        if value is not None and flag not in reads:
            raise ValueError(
                f"{flag} does not apply to --mode {args.mode}, "
                f"which reads only {' and '.join(reads)}"
            )
    budgets = {}
    for flag in reads:
        key, default, least = _BUDGET_FLAGS[flag]
        value = given[flag]
        if value is None:
            value = default
        elif not value >= least:  # also rejects NaN
            raise ValueError(f"{flag} must be at least {least}, got {value}")
        budgets[key] = value
    return budgets


def _check_writable(path: str) -> None:
    """Reject a certificate path that cannot be written, before any search."""
    target = Path(path)
    if not target.parent.is_dir():
        raise ValueError(f"cannot write --cert {path}: no directory {target.parent}")
    if target.is_dir():
        raise ValueError(f"cannot write --cert {path}: it is a directory")
    if not os.access(target if target.exists() else target.parent, os.W_OK):
        raise ValueError(f"cannot write --cert {path}: permission denied")


def _cmd_solve(args: argparse.Namespace) -> int:
    budgets = _solve_budgets(args)
    _check_writable(args.cert)
    graph = _parse_solve_target(args)
    cfg = _config_dict(args, ["target", "mode", "cert", "format"])
    cfg.update(budgets)
    try:
        if args.mode == "exact":
            budget = Budget(
                max_nodes=budgets["budget_nodes"], time_limit=budgets["budget_seconds"]
            )
            result = exact_phi(graph, budget=budget)
        elif args.mode == "brute":
            result = brute_force_phi(graph, cap=budgets["brute_cap"])
        else:
            seconds = budgets["budget_seconds"]
            deadline = None if seconds is None else time.monotonic() + seconds
            result = heuristic_b_coloring(graph, deadline=deadline)
    except BudgetExceeded as exc:
        payload = {
            "config": cfg,
            "status": "budget_exceeded",
            "bracket": {"lower": exc.lower_bound, "upper": exc.upper_bound},
            "tested_k": exc.tested_k,
            "nodes_explored": exc.nodes_explored,
        }
        if exc.certificate is not None:
            formats.write_certificate(args.cert, exc.certificate, graph.params)
            payload["certificate_file"] = args.cert
        if args.format == "json":
            _emit(payload)
        else:
            print(
                f"budget exhausted at k={exc.tested_k}: "
                f"phi in [{exc.lower_bound}, {exc.upper_bound}]"
            )
        return EXIT_BUDGET
    formats.write_certificate(args.cert, result.certificate, graph.params)
    if args.format == "json":
        _emit(
            {
                "config": cfg,
                "status": "ok",
                "mode": result.stats.mode,
                "exact": result.exact,
                "phi": result.phi,
                "color_count": result.certificate.color_count,
                "infeasible_at": list(result.infeasible_at),
                "stats": {
                    "nodes_explored": result.stats.nodes_explored,
                    "elapsed_seconds": result.stats.elapsed_seconds,
                },
                "certificate_file": args.cert,
            }
        )
    else:
        kind = "phi" if result.exact else "phi >="
        print(f"{kind} {result.phi} ({result.stats.mode} mode)")
        if result.infeasible_at:
            print(f"infeasible at: {', '.join(map(str, result.infeasible_at))}")
        print(
            f"nodes explored: {result.stats.nodes_explored}, "
            f"elapsed: {result.stats.elapsed_seconds:.3f}s"
        )
        print(f"certificate: {args.cert}")
    return EXIT_OK


def _cmd_verify(args: argparse.Namespace) -> int:
    graph = formats.load_graph(args.graph)
    coloring, cert_params, claimed = formats.read_certificate(args.certificate)
    if len(coloring.colors) != graph.vertex_count:
        _fail(
            f"certificate covers {len(coloring.colors)} vertices, "
            f"graph has {graph.vertex_count}"
        )
        return EXIT_USAGE
    if cert_params is not None and graph.params is not None and cert_params != graph.params:
        _fail("certificate and graph disagree on Kneser parameters")
        return EXIT_USAGE
    if args.proof_structure and graph.params is None:
        _fail("--proof-structure requires a Kneser-tagged graph")
        return EXIT_USAGE
    cfg = _config_dict(args, ["graph", "certificate", "proof_structure", "format"])
    verdict = is_b_coloring(graph, coloring)
    payload: dict[str, Any] = {
        "config": cfg,
        "valid": verdict.valid,
        "claimed_b_coloring": claimed,
        "color_count": coloring.color_count,
    }
    if not verdict.valid:
        payload["reason"] = verdict.reason.value if verdict.reason else None
        if verdict.violating_edge is not None:
            payload["violating_edge"] = list(verdict.violating_edge)
        if verdict.failing_color is not None:
            payload["failing_color"] = verdict.failing_color
        if args.format == "json":
            _emit(payload)
        else:
            extra = ""
            if verdict.violating_edge is not None:
                u, v = verdict.violating_edge
                extra = f" (edge {u}-{v})"
            if verdict.failing_color is not None:
                extra = f" (color {verdict.failing_color})"
            print(f"invalid: {payload['reason']}{extra}")
        return EXIT_FAIL
    payload["witnesses"] = list(verdict.witnesses or ())
    exit_code = EXIT_OK
    if args.proof_structure:
        analysis = analyze_proof_structure(graph.params, graph, coloring)
        payload["proof_structure"] = formats.proof_analysis_dict(analysis)
        if not analysis.ok:
            exit_code = EXIT_FAIL
    if args.format == "json":
        _emit(payload)
    else:
        print(f"valid b-coloring with {coloring.color_count} colors")
        print(f"witnesses per class: {payload['witnesses']}")
        if args.proof_structure:
            ps = payload["proof_structure"]
            counting = ps["counting"]
            print(
                f"intersecting family size |I| = {counting['family_size']} "
                f"(<= ground set {counting['ground_size']})"
            )
            print(
                f"counting chain: {counting['color_count']} <= "
                f"{counting['class_bound']['exact']} <= "
                f"{counting['global_bound']['exact']}"
            )
            print("structure analysis:", "clean" if ps["ok"] else "FAILED")
            for failure in ps["failures"]:
                print(f"  failed step {failure['step']}: {failure['detail']}")
    return exit_code


def _cmd_reproduce(args: argparse.Namespace) -> int:
    report = SUITES[args.suite]()
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    cfg = _config_dict(args, ["suite", "out_dir"])
    payload = {"config": cfg, **report.to_dict()}
    json_path = out_dir / f"{args.suite}.json"
    text_path = out_dir / f"{args.suite}.txt"
    json_path.write_text(json.dumps(payload, indent=2) + "\n")
    text_path.write_text(report.text_summary())
    sys.stdout.write(report.text_summary())
    print(f"reports written to {json_path} and {text_path}")
    return EXIT_OK if report.passed else EXIT_FAIL


def _fail(message: str) -> None:
    print(f"error: {message}", file=sys.stderr)


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except BudgetExceeded as exc:  # direct feasibility calls
        _fail(str(exc))
        return EXIT_BUDGET
    except InstanceTooLarge as exc:
        _fail(str(exc))
        return EXIT_USAGE
    except (ValueError, OSError, json.JSONDecodeError) as exc:
        _fail(str(exc))
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
