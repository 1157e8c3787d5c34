"""Workloads: the inputs made from the seed, the bkneser commands run on them,
and the checks applied to every output.

Each workload runs every kind of command (gen, exact solve, brute-force
oracle, heuristic, verify), so every end-to-end metric is measured on every
workload; the commands a workload exists for carry most of its time.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, replace
from math import comb
from pathlib import Path

import reference as ref

# A time-budgeted solve fails when it runs longer than its budget plus this
# allowance for interpreter start-up and graph construction.
OVERRUN_SLACK_S = 1.0


@dataclass
class Instance:
    """A graph the commands run on, with its independently built copy."""

    label: str
    graph: ref.Graph
    params: tuple[int, int] | None = None  # (n, k) of KG(2n+k, n)
    path: str | None = None  # DIMACS file the commands read; None means "n k"

    @property
    def upper(self) -> int:
        """Sound upper bound on phi, computed by the reference code."""
        bound = ref.degree_bound(self.graph)
        if self.params is not None:
            bound = min(bound, ref.kneser_upper_bound(*self.params))
        return bound

    @property
    def target(self) -> list[str]:
        return [self.path] if self.path else [str(p) for p in self.params]


@dataclass
class Op:
    """One bkneser command and what its output must satisfy."""

    kind: str
    inst: Instance
    cert: str | None = None  # certificate the command writes (verify: reads)
    graph_file: str | None = None  # gen: file written; verify: file read
    budget_nodes: int | None = None
    budget_seconds: float | None = None
    brute_cap: int | None = None
    proof: bool = False  # verify --proof-structure
    expect_invalid: str | None = None  # verify: the reason it must report

    @property
    def name(self) -> str:
        return f"{self.kind} {self.inst.label}"

    def argv(self) -> list[str]:
        if self.kind == "gen":
            n, k = self.inst.params
            return ["gen", str(n), str(k), "--out", self.graph_file]
        if self.kind == "verify":
            extra = ["--proof-structure"] if self.proof else []
            return ["verify", self.graph_file, self.cert, "--format", "json", *extra]
        argv = ["solve", *self.inst.target, "--format", "json", "--cert", self.cert]
        if self.kind == "oracle":
            argv += ["--mode", "brute"]
        elif self.kind == "heuristic":
            argv += ["--mode", "heuristic"]
        if self.budget_nodes is not None:
            argv += ["--budget-nodes", str(self.budget_nodes)]
        if self.budget_seconds is not None:
            argv += ["--budget-seconds", str(self.budget_seconds)]
        if self.brute_cap is not None:
            argv += ["--brute-cap", str(self.brute_cap)]
        return argv

    @property
    def expect_rc(self) -> tuple[int, ...]:
        if self.expect_invalid:
            return (1,)
        if self.kind == "solve" and (self.budget_nodes or self.budget_seconds):
            return (0, 3)
        return (0,)

    @property
    def counts_nodes(self) -> bool:
        """Exact solves without a time budget report a repeatable node count."""
        return self.kind == "solve" and self.budget_seconds is None


@dataclass
class Outcome:
    """What one run of an operation produced, from the CLI or in-process."""

    rc: int | None
    doc: dict | None  # the JSON the command printed
    wall: float
    rss_mb: float = 0.0


@dataclass
class Workload:
    name: str
    ops: list[Op]
    files: dict[str, str]  # input files the benchmark writes: name -> text
    rss_graph: tuple[int, int]  # largest Kneser graph, for kneser.graph_rss_mb


# ---------------------------------------------------------------------------
# workloads


def _kneser(n: int, k: int, path: str | None = None) -> Instance:
    graph = ref.kneser_graph(n, k)
    return Instance(f"KG({2 * n + k},{n})", graph, (n, k), path)


def _chi_certificate(n: int, k: int, rng: random.Random) -> list[int]:
    """The (k+2)-coloring of KG(2n+k, n) under a seeded order of the ground set."""
    order = list(range(1, 2 * n + k + 1))
    rng.shuffle(order)
    return ref.chi_coloring(n, k, ref.kneser_subsets(n, k), order)


# Each end-to-end time is kept mostly program work rather than interpreter
# start-up: start-up time swings more between runs on a shared machine, so a
# metric made of a few tiny commands would spread more than its bound.
GEN_KNESER = (4, 6)  # KG(14,4): 1,001 vertices, 105,105 edges


def kneser_exact(seed: int, quick: bool) -> Workload:
    """Exact phi with every larger k refuted, the oracle cross-check, and
    fixed-budget solves that end in a bracket; the heuristic on KG(9,3) and
    KG(12,2); the solver's KG(6,2) and KG(9,3) certificates verified with
    proof structure; and gen plus a verify with proof structure of KG(14,4)
    against the benchmark's (k+2)-coloring. The seed only orders the ground
    set for that coloring."""
    rng = random.Random(f"kneser-exact:{seed}")
    budget = 5_000 if quick else 30_000
    exact = [(2, 1)] if quick else [(2, 1), (2, 2)]
    bracketed = [(2, 3)] if quick else [(2, 3), (2, 4), (3, 3)]
    big = _kneser(3, 3) if quick else _kneser(*GEN_KNESER)
    files = {"chi.json": ref.certificate_text(_chi_certificate(*big.params, rng), big.params)}
    ops = [
        Op("gen", big, graph_file="big.col"),
        Op("verify", big, cert="chi.json", graph_file="big.col", proof=True),
    ]
    for params in exact + bracketed:
        inst = _kneser(*params)
        cert = f"{inst.label}.json"
        ops.append(Op("solve", inst, cert=cert,
                      budget_nodes=None if params in exact else budget))
        if params == exact[-1]:
            ops.append(Op("oracle", inst, cert=f"{inst.label}.brute.json", brute_cap=15))
        if params in (exact[-1], bracketed[-1]):
            filed = replace(inst, path=f"{inst.label}.col")
            files[filed.path] = ref.dimacs_text(inst.graph, tag=params)
            ops.append(Op("verify", filed, cert=cert, graph_file=filed.path, proof=True))
    heuristic = [(2, 3)] if quick else [(3, 3), (2, 8)]
    ops += [Op("heuristic", _kneser(*p), cert=f"h{i}.json") for i, p in enumerate(heuristic)]
    return Workload("kneser-exact", ops, files, big.params)


# The oracle-sized graphs are one fixed draw, relabeled by the seed: the
# brute-force time of a fresh G(14, p) draw varies several-fold from graph to
# graph, which would swamp the program's own run-to-run change. The
# search-sized graphs are fresh draws: under a node budget their cost varies
# little.
ORACLE_FAMILY_SEED = "random-exact oracle family"
ORACLE_GRAPHS = [(14, p) for p in (0.4, 0.5, 0.6)]
SEARCH_GRAPHS = [(24, p) for p in (0.3, 0.4, 0.5) for _ in range(2)]
HEURISTIC_GRAPHS = [(60, 0.5), (100, 0.2)]


def random_exact(seed: int, quick: bool) -> Workload:
    """Graphs without Kneser parameters. Oracle-sized G(n, p) graphs and an
    untagged Petersen graph go through exact and brute-force solves,
    search-sized ones through a fixed-budget exact solve, and larger ones
    through the heuristic. verify reads an untagged, relabeled copy of
    KG(14,4) with its (k+2)-coloring, so it runs on a plain graph; gen
    writes KG(14,4) itself."""
    rng = random.Random(f"random-exact:{seed}")
    family = random.Random(ORACLE_FAMILY_SEED)
    oracle_specs = ORACLE_GRAPHS[:1] if quick else ORACLE_GRAPHS
    search_specs = SEARCH_GRAPHS[::3] if quick else SEARCH_GRAPHS
    heuristic_specs = HEURISTIC_GRAPHS[:1] if quick else HEURISTIC_GRAPHS
    budget = 10_000 if quick else 40_000
    files: dict[str, str] = {}

    def plain(label: str, graph: ref.Graph) -> Instance:
        path = f"{label}.col"
        files[path] = ref.dimacs_text(graph)
        return Instance(label, graph, None, path)

    big = _kneser(3, 3) if quick else _kneser(*GEN_KNESER)
    graph, perm = ref.relabeled(big.graph, rng)
    relabeled = plain("plain-kneser", graph)
    colors = [0] * graph.vertex_count
    for v, c in enumerate(_chi_certificate(*big.params, rng)):
        colors[perm[v]] = c
    files["chi.json"] = ref.certificate_text(colors, None)
    ops = [
        Op("gen", big, graph_file="big.col"),
        Op("verify", relabeled, cert="chi.json", graph_file=relabeled.path),
    ]
    oracle_set = [plain("petersen", ref.relabeled(ref.kneser_graph(2, 1), rng)[0])]
    oracle_set += [
        plain(f"g{i}-{v}-{p}", ref.relabeled(ref.gnp_graph(v, p, family), rng)[0])
        for i, (v, p) in enumerate(oracle_specs)
    ]
    for inst in oracle_set:
        ops += [
            Op("solve", inst, cert=f"{inst.label}.json"),
            Op("oracle", inst, cert=f"{inst.label}.brute.json", brute_cap=15),
        ]
    ops += [
        Op("solve", plain(f"s{i}-{v}-{p}", ref.gnp_graph(v, p, rng)),
           cert=f"s{i}.json", budget_nodes=budget)
        for i, (v, p) in enumerate(search_specs)
    ]
    ops += [
        Op("heuristic", plain(f"h{i}-{v}-{p}", ref.gnp_graph(v, p, rng)), cert=f"h{i}.json")
        for i, (v, p) in enumerate(heuristic_specs)
    ]
    return Workload("random-exact", ops, files, big.params)


# Graphs small enough for the oracle; their exact and brute-force solves
# cross-check each other. KG(6,2) gives the oracle real work to do.
SMALL_KNESER = [(2, 1), (2, 2)]


def kneser_certify(seed: int, quick: bool) -> Workload:
    """The certification path on large Kneser graphs: gen, verify with proof
    structure against the benchmark's own (k+2)-coloring, a tampered copy
    that must be rejected, the heuristic, a time-budgeted solve, and exact
    and brute-force solves of the Petersen graph and KG(6,2)."""
    rng = random.Random(f"kneser-certify:{seed}")
    files: dict[str, str] = {}
    big = _kneser(3, 6) if quick else _kneser(4, 8)
    files["chi.json"] = ref.certificate_text(_chi_certificate(*big.params, rng), big.params)

    small = _kneser(2, 3, path="small.col")
    files[small.path] = ref.dimacs_text(small.graph, tag=small.params)
    tampered = _chi_certificate(2, 3, rng)
    u, v = rng.choice(sorted(small.graph.edge_set()))
    tampered[v] = tampered[u]
    files["tampered.json"] = ref.certificate_text(tampered, small.params)

    heuristic = [(2, 2), (3, 2)] if quick else [(2, 10), (3, 4)]
    timed = (3, 3) if quick else (3, 5)
    ops = [
        Op("gen", big, graph_file="big.col"),
        Op("verify", big, cert="chi.json", graph_file="big.col", proof=True),
        Op("verify", small, cert="tampered.json", graph_file=small.path,
           expect_invalid="not_proper"),
    ]
    ops += [
        Op("heuristic", _kneser(*p), cert=f"h{i}.json")
        for i, p in enumerate(heuristic)
    ]
    ops.append(Op("solve", _kneser(*timed), cert="timed.json", budget_seconds=1.0))
    for i, p in enumerate(SMALL_KNESER[:1] if quick else SMALL_KNESER):
        inst = _kneser(*p)
        ops += [
            Op("solve", inst, cert=f"s{i}.json"),
            Op("oracle", inst, cert=f"s{i}.brute.json", brute_cap=15),
        ]
    return Workload("kneser-certify", ops, files, big.params)


WORKLOADS = {
    "kneser-exact": kneser_exact,
    "random-exact": random_exact,
    "kneser-certify": kneser_certify,
}


# ---------------------------------------------------------------------------
# checks


def _certificate(work: Path, name: str) -> list[int] | None:
    try:
        return json.loads((work / name).read_text())["colors"]
    except (OSError, ValueError, KeyError, TypeError):
        return None


def _check_certificate(op: Op, work: Path, colors_expected: int) -> list[str]:
    """The certificate file must be a b-coloring of the reference graph with
    the claimed number of colours."""
    colors = _certificate(work, op.cert)
    if colors is None:
        return [f"no readable certificate {op.cert}"]
    problems = []
    if len(set(colors)) != colors_expected:
        problems.append(
            f"certificate has {len(set(colors))} colours, output claims {colors_expected}"
        )
    verdict = ref.b_coloring_verdict(op.inst.graph, colors)
    if verdict is not None:
        problems.append(f"certificate rejected by the reference verifier: {verdict}")
    return problems


def _check_range(op: Op, lower: int, upper: int) -> list[str]:
    """certified lower <= upper <= reference bound; lower >= chi on Kneser."""
    problems = []
    if not 1 <= lower <= upper <= op.inst.upper:
        problems.append(f"bounds {lower} <= {upper} <= {op.inst.upper} violated")
    if op.inst.params is not None and lower < op.inst.params[1] + 2:
        problems.append(f"lower bound {lower} below chi = k+2 = {op.inst.params[1] + 2}")
    return problems


def _agree(state: dict, key: str, value: int) -> list[str]:
    """Exact phi and brute-force phi of one graph must be equal."""
    seen = state.setdefault(key, value)
    return [] if seen == value else [f"phi {value} disagrees with {seen} from the other solver"]


def check(op: Op, out: Outcome, work: Path, state: dict) -> list[str]:
    """Every problem with one operation's output; empty when it is right.

    `state` carries phi values between the operations of one round, keyed by
    instance label, so exact and brute-force results are compared.
    """
    if out.rc not in op.expect_rc:
        return [f"exit code {out.rc}, expected {op.expect_rc}"]
    if op.kind == "gen":
        return _check_gen(op, work)
    doc = out.doc
    if doc is None:
        return ["no JSON output"]
    try:
        if op.kind == "verify":
            return _check_verify(op, doc, work)
        if out.rc == 3:
            bracket = doc["bracket"]
            lower, upper = bracket["lower"], bracket["upper"]
            problems = _check_range(op, lower, upper)
            problems += _check_certificate(op, work, lower)
            known = state.get(op.inst.label)
            if known is not None and not lower <= known <= upper:
                problems.append(f"bracket [{lower}, {upper}] excludes phi {known}")
            return problems
        phi = doc["phi"]
        problems = _check_certificate(op, work, phi)
        if op.kind == "heuristic":
            problems += _check_range(op, phi, op.inst.upper)
            known = state.get(op.inst.label)
            if known is not None and phi > known:
                problems.append(f"heuristic {phi} exceeds phi {known}")
            return problems
        problems += _check_range(op, phi, phi)
        infeasible = doc["infeasible_at"]
        if infeasible != list(range(phi + 1, phi + 1 + len(infeasible))):
            problems.append(f"infeasible_at {infeasible} is not phi+1, phi+2, ...")
        elif infeasible and infeasible[-1] > op.inst.upper:
            problems.append(f"infeasible_at reaches past the bound {op.inst.upper}")
        return problems + _agree(state, op.inst.label, phi)
    except (KeyError, TypeError) as exc:
        return [f"output lacks {exc}"]


def _check_gen(op: Op, work: Path) -> list[str]:
    """The file's edge set must equal the reference construction."""
    try:
        vertex_count, edges, tag = ref.read_dimacs(work / op.graph_file)
    except (OSError, ValueError, IndexError) as exc:
        return [f"unreadable graph file: {exc}"]
    problems = []
    if tag != op.inst.params:
        problems.append(f"tag {tag}, expected {op.inst.params}")
    if vertex_count != op.inst.graph.vertex_count:
        problems.append(f"{vertex_count} vertices, expected {op.inst.graph.vertex_count}")
    stored = {(min(u, v), max(u, v)) for u, v in edges}
    if len(stored) != len(edges):
        problems.append("duplicate edges")
    expected = op.inst.graph.edge_set()
    if stored != expected:
        problems.append(
            f"edge set differs from the reference: {len(stored - expected)} extra, "
            f"{len(expected - stored)} missing"
        )
    return problems


def _check_verify(op: Op, doc: dict, work: Path) -> list[str]:
    """The verdict must agree with the reference verifier on the same file."""
    colors = _certificate(work, op.cert)
    if colors is None:
        return [f"no readable certificate {op.cert}"]
    verdict = ref.b_coloring_verdict(op.inst.graph, colors)
    if op.expect_invalid:
        if doc["valid"] or doc.get("reason") != op.expect_invalid:
            return [f"tampered certificate not rejected with {op.expect_invalid}"]
        if verdict is None or not verdict.startswith(op.expect_invalid):
            return [f"the reference verifier does not reject it with {op.expect_invalid}"]
        return []
    if verdict is not None:
        return [f"certificate rejected by the reference verifier: {verdict}"]
    problems = [] if doc["valid"] else [f"valid certificate rejected: {doc.get('reason')}"]
    if doc["color_count"] != len(set(colors)):
        problems.append(f"color_count {doc['color_count']}, file has {len(set(colors))}")
    if op.proof:
        ps = doc["proof_structure"]
        counting = ps["counting"]
        n, k = op.inst.params
        if not ps["ok"]:
            problems.append(f"proof structure failed: {ps['failures']}")
        if counting["family_size"] > 2 * n + k:
            problems.append(f"intersecting family {counting['family_size']} > 2n+k")
        if not (counting["class_bound_holds"] and counting["global_bound_holds"]):
            problems.append("counting chain does not hold")
    return problems


def seed_tuples(graph: ref.Graph, k: int) -> int:
    """C(number of vertices of degree >= k-1, k): the seed tuples a refutation
    of k has to exhaust, computed from the reference graph."""
    candidates = sum(1 for a in graph.adj if len(a) >= k - 1)
    return comb(candidates, k)
