#!/usr/bin/env python3
"""Self-test of the benchmark.

    python3 bench/selftest.py

Runs every workload at reduced size, untraced and traced, and requires a
correct result. Then plants wrong answers in real command outputs (a
certificate with one class recolored, a phi off by one, an edge missing from
a gen file) and requires the checks to reject each, after accepting the
untouched output. Exits 1 on any failure.
"""

from __future__ import annotations

import contextlib
import copy
import json
import os
import shutil
import signal
import subprocess
import sys
import time

import run
import workloads
from workloads import Op, check


def quick_runs() -> list[str]:
    failures = []
    for name in workloads.WORKLOADS:
        for trace in ("0", "1"):
            argv = [sys.executable, str(run.BENCH / "run.py"), "--workload", name,
                    "--seed", "7", "--seconds", "0", "--trace", trace, "--quick"]
            proc = subprocess.run(argv, capture_output=True, text=True, timeout=170)
            lines = proc.stdout.strip().splitlines()
            result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
            label = f"quick {name} trace {trace}"
            if proc.returncode != 0 or result is None or not result["correct"]:
                failures.append(f"{label}: exit {proc.returncode}\n{proc.stdout}{proc.stderr}")
            else:
                print(f"ok   {label}: {result['attempted']} attempted, {result['failed']} failed")
    return failures


def planted(runner: run.Runner) -> list[str]:
    """Each planted wrong answer must be rejected, and the original accepted."""
    work = runner.work
    petersen = workloads._kneser(2, 1)
    solve = Op("solve", petersen, cert="planted.json")
    gen = Op("gen", petersen, graph_file="planted.col")
    solved = runner.cli(solve.argv())
    runner.cli(gen.argv())
    cert_text = (work / solve.cert).read_text()
    graph_text = (work / gen.graph_file).read_text()

    def recolored():
        doc = json.loads(cert_text)
        doc["colors"] = [0 if c == 1 else c for c in doc["colors"]]
        (work / solve.cert).write_text(json.dumps(doc))
        return solve, solved

    def phi_off_by_one():
        (work / solve.cert).write_text(cert_text)
        out = copy.deepcopy(solved)
        out.doc["phi"] += 1
        return solve, out

    def edge_missing():
        lines = graph_text.splitlines()
        drop = next(i for i, line in enumerate(lines) if line.startswith("e "))
        (work / gen.graph_file).write_text("\n".join(lines[:drop] + lines[drop + 1:]) + "\n")
        return gen, workloads.Outcome(0, None, 0.0)

    failures = []
    for op, out in ((solve, solved), (gen, workloads.Outcome(0, None, 0.0))):
        problems = check(op, out, work, {})
        if problems:
            failures.append(f"untouched {op.name} rejected: {problems}")
    for plant in (recolored, phi_off_by_one, edge_missing):
        op, out = plant()
        problems = check(op, out, work, {})
        if problems:
            print(f"ok   planted {plant.__name__} rejected: {problems[0]}")
        else:
            failures.append(f"planted {plant.__name__} was accepted")
    return failures


def main() -> int:
    failures = quick_runs()
    work = run.ROOT / ".bench_work" / f"selftest-{os.getpid()}"
    work.mkdir(parents=True)
    signal.signal(signal.SIGALRM, run._on_alarm)
    runner = run.Runner(work, time.perf_counter())
    try:
        failures += planted(runner)
    finally:
        runner.close()
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            work.parent.rmdir()
    for failure in failures:
        print(f"FAIL {failure}")
    print("self-test", "failed" if failures else "passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
