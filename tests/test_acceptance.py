"""Acceptance criteria, one test per criterion, each printing PASS or FAIL.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines. Heavy artifacts (the full oracle run, the per-mode certificate
collection) are shared session fixtures.
"""

import sys
from fractions import Fraction

import pytest

from bkneser import (
    KneserParams,
    analyze_proof_structure,
    best_upper_bound,
    bk_bound,
    brute_force_phi,
    build_graph,
    degree_bound,
    exact_phi,
    feasible_b_coloring,
    heuristic_b_coloring,
    u_bound,
)
from bkneser.reproduce import (
    SMALL_KNESER_PARAMS,
    erdos_renyi_graph,
    load_seed_entries,
    run_oracle,
    run_ratios,
)


def _report(num: int, name: str, ok: bool, detail: str = "") -> None:
    suffix = f" -- {detail}" if detail else ""
    line = f"ACCEPTANCE {num} ({name}): {'PASS' if ok else 'FAIL'}{suffix}"
    # bypass pytest's capture so the line shows without -s
    print(f"\n{line}", file=sys.__stdout__)


@pytest.fixture(scope="session")
def mode_certificates():
    """For every Kneser instance with |V| <= 12: certificates from all three
    solver modes; plus heuristic-only runs on KG(5,2) and KG(6,2)."""
    collected = []
    for params in SMALL_KNESER_PARAMS:
        graph = build_graph(params)
        collected.append((params, graph, "brute", brute_force_phi(graph)))
        collected.append((params, graph, "exact", exact_phi(graph)))
        collected.append((params, graph, "heuristic", heuristic_b_coloring(graph)))
    for params in (KneserParams(2, 1), KneserParams(2, 2)):
        graph = build_graph(params)
        collected.append((params, graph, "heuristic", heuristic_b_coloring(graph)))
    return collected


@pytest.fixture(scope="session")
def oracle_report():
    return run_oracle()


def test_criterion_1_sharpness():
    failures = []
    for k in range(0, 7):
        params = KneserParams(1, k)
        phi = exact_phi(build_graph(params)).phi
        u = u_bound(params)
        expected = 2 + k
        if not (
            phi == expected
            and u.exact == Fraction(expected)
            and u.exact.denominator == 1
        ):
            failures.append(f"k={k}: phi={phi}, U={u.exact}")
    ok = not failures
    _report(1, "sharpness at n=1, k=0..6", ok, "; ".join(failures))
    assert ok


def test_criterion_2_petersen(petersen, petersen_exact, petersen_brute):
    infeasible_4 = feasible_b_coloring(petersen, 4)
    ok = (
        petersen_exact.phi == 3
        and petersen_brute.phi == 3
        and infeasible_4 is None
        and 4 in petersen_brute.infeasible_at
    )
    _report(
        2,
        "Petersen: phi=3, no 4-color b-coloring",
        ok,
        f"exact={petersen_exact.phi}, brute={petersen_brute.phi}, "
        f"feasible@4={'none' if infeasible_4 is None else 'found'}",
    )
    assert ok


def test_criterion_3_bound_improvement():
    failures = []
    crossover = None
    for k in range(0, 13):
        params = KneserParams(2, k)
        bk = bk_bound(params)
        u = u_bound(params)
        if bk.applicable:
            expected = -((params.vertex_count - 2) // -2)
            if bk.value != expected:
                failures.append(f"k={k}: bk={bk.value} != ceil={expected}")
            if crossover is None and u.floor < bk.value:
                crossover = k
    if crossover != 6:
        failures.append(f"crossover k*={crossover}, expected 6")
    spot_bk = bk_bound(KneserParams(2, 10)).value
    spot_u = u_bound(KneserParams(2, 10)).floor
    if (spot_bk, spot_u) != (45, 39):
        failures.append(f"k=10 spot: bk={spot_bk}, u_floor={spot_u}")
    ok = not failures
    _report(3, "bound improvement scan n=2, k=0..12", ok, "; ".join(failures))
    assert ok


def test_criterion_4_proof_mechanization(mode_certificates):
    failures = []
    checked = 0
    for params, graph, mode, result in mode_certificates:
        analysis = analyze_proof_structure(params, graph, result.certificate)
        checked += 1
        if analysis.failures:
            failures.append(
                f"KG({params.ground_size},{params.n}) {mode}: "
                + "; ".join(f.step.value for f in analysis.failures)
            )
        counting = analysis.counting
        bound = Fraction(
            counting.vertex_count + 2 * counting.family_size, 3
        )
        if not counting.color_count <= bound:
            failures.append(
                f"KG({params.ground_size},{params.n}) {mode}: counting inequality"
            )
    ok = not failures
    _report(
        4,
        "structure analysis clean on every certificate",
        ok,
        f"{checked} certificates checked" + ("; " + "; ".join(failures) if failures else ""),
    )
    assert ok


def test_criterion_5_oracle_equivalence(oracle_report):
    equality_checks = [
        c for c in oracle_report.checks if "exact equals brute force" in c["name"]
    ]
    random_count = oracle_report.data["seed_entries_used"]
    kneser_count = len(SMALL_KNESER_PARAMS)
    mismatches = [c["name"] for c in equality_checks if not c["passed"]]
    ok = (
        not mismatches
        and random_count >= 200
        and len(equality_checks) == random_count + kneser_count
    )
    _report(
        5,
        "oracle equivalence",
        ok,
        f"{random_count} random + {kneser_count} Kneser instances, "
        f"{len(mismatches)} mismatches",
    )
    assert ok


def test_criterion_6_finite_k_ratio_evidence():
    report = run_ratios()
    thresholds = report.data["thresholds"]
    frozen = {"2": None, "3": 106, "4": 31, "5": 15}
    ok = report.passed and thresholds == frozen
    _report(
        6,
        "ratio monotonicity n=2..5, k=0..200",
        ok,
        f"first k with 2(2n+k)/|V| < 1/1000: {thresholds}",
    )
    assert ok


def test_criterion_7_consistency_sandwich(mode_certificates, oracle_report):
    failures = []
    # Kneser instances solved per mode
    by_params = {}
    for params, graph, mode, result in mode_certificates:
        by_params.setdefault(params, {})[mode] = result
    for params, modes in by_params.items():
        if "exact" not in modes:
            continue
        phi = modes["exact"].phi
        lower = modes["heuristic"].phi
        upper = best_upper_bound(params).best
        if not lower <= phi <= upper:
            failures.append(
                f"KG({params.ground_size},{params.n}): {lower} <= {phi} <= {upper}"
            )
    # the random instances of the oracle suite
    for entry in load_seed_entries():
        graph = erdos_renyi_graph(entry["vertices"], entry["density"], entry["seed"])
        phi = exact_phi(graph).phi
        lower = heuristic_b_coloring(graph).phi
        if not lower <= phi <= degree_bound(graph):
            failures.append(f"seed={entry['seed']}")
    ok = not failures
    _report(7, "sandwich: heuristic <= phi <= best bound", ok, "; ".join(failures))
    assert ok
