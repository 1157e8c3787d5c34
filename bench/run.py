#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of the bkneser CLI.

    python3 bench/run.py --workload kneser-exact --seed 1 --seconds 20 --trace 0

Runs whole rounds of one workload's operations until --seconds have passed,
each operation as its own `python -m bkneser` child process, timed from
outside, with the child's peak RSS from its rusage; one operation runs at a
time. Every output is checked against bench/reference.py. With --trace 1 each
round is followed by the same operations done in-process with spans around
every call into the package, which give the per-layer metrics.

The last line of standard output is one JSON object: correct, attempted,
failed and metrics (end-to-end with --trace 0, per-layer with --trace 1).
Standard library only; run it from the root of a source checkout.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads
from workloads import OVERRUN_SLACK_S, Op, Outcome, check

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

END_TO_END = {
    "setup_s": "s",
    "solve_s": "s",
    "search_nodes": "nodes",
    "oracle_s": "s",
    "heuristic_s": "s",
    "lower_bound_colors": "colors",
    "gen_s": "s",
    "verify_s": "s",
    "peak_rss_mb": "MB",
}
KIND_METRIC = {
    "solve": "solve_s",
    "oracle": "oracle_s",
    "heuristic": "heuristic_s",
    "gen": "gen_s",
    "verify": "verify_s",
}
SETUP_LAUNCHES = 9
# Every run ends well inside three minutes: no round starts that could end
# past ROUND_DEADLINE_S, and any child still running at HARD_DEADLINE_S is
# killed.
ROUND_DEADLINE_S = 150.0
HARD_DEADLINE_S = 170.0


class _Deadline(Exception):
    pass


def _on_alarm(signum, frame):
    raise _Deadline


def child_env() -> dict[str, str]:
    """The caller's environment with src/ first on PYTHONPATH and no BKNESER_*
    budget variables, so only the documented flags set budgets."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("BKNESER_")}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


class Runner:
    """Runs commands one at a time through bench/launch.py, under a run-wide
    deadline. Start it before building the reference graphs."""

    def __init__(self, work: Path, start: float) -> None:
        self.work = work
        self.env = child_env()
        self.deadline = start + HARD_DEADLINE_S
        self.launcher = subprocess.Popen(
            [sys.executable, str(BENCH / "launch.py")],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, env=self.env, text=True,
        )

    def close(self) -> None:
        self.launcher.stdin.close()
        self.launcher.wait()

    def alarm(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, max(0.01, self.deadline - time.perf_counter()))

    def spawn(self, cmd: list[str]) -> tuple[int | None, float, float, str]:
        """Exit code (None when killed at the deadline), wall seconds, peak
        RSS in MB and standard output of one command run in the work dir."""
        out_path = self.work / "stdout.txt"
        request = {
            "cmd": cmd,
            "cwd": str(self.work),
            "stdout": str(out_path),
            "stderr": str(self.work / "stderr.txt"),
            "timeout": max(0.01, self.deadline - time.perf_counter()),
        }
        self.launcher.stdin.write(json.dumps(request) + "\n")
        self.launcher.stdin.flush()
        reply = json.loads(self.launcher.stdout.readline())
        return reply["rc"], reply["wall"], reply["rss_kb"] / 1024, out_path.read_text()

    def cli(self, argv: list[str]) -> Outcome:
        rc, wall, rss_mb, text = self.spawn([sys.executable, "-m", "bkneser", *argv])
        try:
            doc = json.loads(text) if text.lstrip().startswith("{") else None
        except ValueError:
            doc = None
        return Outcome(rc, doc, wall, rss_mb)


def setup_seconds(runner: Runner) -> float:
    """Median start-up of a fresh bkneser process: interpreter, import and
    argument parsing, with no work after them."""
    times = []
    for _ in range(SETUP_LAUNCHES):
        rc, wall, _, text = runner.spawn([sys.executable, "-m", "bkneser", "--help"])
        if rc != 0 or "usage: bkneser" not in text:
            raise SystemExit(f"bkneser --help failed with exit code {rc}")
        times.append(wall)
    return statistics.median(times)


class Tally:
    """Operations attempted and failed, and the first problem of each."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.wrong = False
        self.first_problem: dict[str, str] = {}

    def record(self, op: Op, out: Outcome, problems: list[str], where: str) -> None:
        self.attempted += 1
        overrun = (
            op.budget_seconds is not None
            and out.wall > op.budget_seconds + OVERRUN_SLACK_S
        )
        if problems:
            self.wrong = True
        if overrun:
            problems = problems + [
                f"ran {out.wall:.2f} s on a budget of {op.budget_seconds} s"
            ]
        if problems:
            self.failed += 1
            self.first_problem.setdefault(f"{where} {op.name}", "; ".join(problems))


def _clear_outputs(op: Op, work: Path) -> None:
    """Remove what the operation writes, so a stale file cannot pass a check."""
    if op.kind == "gen":
        (work / op.graph_file).unlink(missing_ok=True)
    elif op.kind != "verify":
        (work / op.cert).unlink(missing_ok=True)


def cli_round(runner: Runner, wl, tally: Tally, state: dict) -> list[Outcome]:
    """One pass of every operation through the CLI, checked."""
    outcomes = []
    for op in wl.ops:
        _clear_outputs(op, runner.work)
        out = runner.cli(op.argv())
        if out.rc is None:
            tally.record(op, out, ["killed at the run's deadline"], "cli")
            raise _Deadline
        tally.record(op, out, check(op, out, runner.work, state), "cli")
        outcomes.append(out)
    return outcomes


def _reported(op: Op, out: Outcome) -> tuple[int, int]:
    """(search nodes, heuristic colours) one command's output contributes."""
    doc = out.doc or {}
    if op.counts_nodes:
        return doc.get("nodes_explored") or doc.get("stats", {}).get("nodes_explored") or 0, 0
    if op.kind == "heuristic":
        return 0, doc.get("phi") or 0
    return 0, 0


def end_to_end(wl, rounds: list[list[Outcome]]) -> dict[str, float]:
    """Each operation's median over the rounds, summed by command kind, so a
    burst of load on the machine in one round does not move the figures."""
    metrics = {name: 0 for name in END_TO_END if name != "setup_s"}
    for i, op in enumerate(wl.ops):
        runs = [r[i] for r in rounds]
        metrics[KIND_METRIC[op.kind]] += statistics.median(o.wall for o in runs)
        metrics["peak_rss_mb"] = max(
            metrics["peak_rss_mb"], statistics.median(o.rss_mb for o in runs)
        )
        nodes, colors = (statistics.median(x) for x in zip(*(_reported(op, o) for o in runs)))
        metrics["search_nodes"] += nodes
        metrics["lower_bound_colors"] += colors
    return metrics


def traced_round(runner: Runner, wl, tally: Tally, state: dict, cli_wall: float):
    """The same operations in-process, with spans; the per-layer sums."""
    import traced

    tracer = traced.Tracer()
    for op in wl.ops:
        _clear_outputs(op, runner.work)
        runner.alarm()
        try:
            out = traced.run_op(tracer, op, runner.work)
            tally.record(op, out, check(op, out, runner.work, state), "traced")
            if op.kind == "solve" and out.doc is not None:
                traced.profile_refutation(tracer, op, runner.work, out.doc)
        except _Deadline:
            tally.record(op, Outcome(None, None, 0.0), ["killed at the run's deadline"], "traced")
            raise
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
    return tracer, traced.layer_metrics(tracer, cli_wall, len(wl.ops))


def graph_rss_mb(runner: Runner, params: tuple[int, int]) -> float:
    """RSS growth from building one Kneser graph in a fresh process."""
    rc, _, _, text = runner.spawn([sys.executable, str(BENCH / "graph_rss.py"), *map(str, params)])
    if rc != 0:
        raise SystemExit(f"graph_rss.py failed with exit code {rc}")
    return float(text)


def machine() -> str:
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next(
                (line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")),
                cpu,
            )
    except OSError:
        pass
    return f"python {platform.python_version()}, nproc {os.cpu_count()}, cpu {cpu}"


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true", help="reduced inputs, for the self-test")
    return parser.parse_args(argv)


def run(args: argparse.Namespace) -> dict:
    """Run one workload and return the result object."""
    if not (SRC / "bkneser" / "__init__.py").is_file():
        raise SystemExit(f"no bkneser source under {SRC}; run from a source checkout")
    start = time.perf_counter()
    work = ROOT / ".bench_work" / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True)
    signal.signal(signal.SIGALRM, _on_alarm)
    runner = Runner(work, start)
    try:
        wl = workloads.WORKLOADS[args.workload](args.seed, args.quick)
        for name, text in wl.files.items():
            (work / name).write_text(text)
        if args.trace:
            sys.path.insert(0, str(SRC))
            metrics = {"kneser.graph_rss_mb": graph_rss_mb(runner, wl.rss_graph)}
        else:
            metrics = {"setup_s": setup_seconds(runner)}
        tally = Tally()
        rounds: list[list[Outcome]] = []
        layers: list[dict[str, float]] = []
        spans: list[list[dict]] = []
        measure = time.perf_counter()
        last = 0.0
        try:
            while not rounds or (
                time.perf_counter() - measure < args.seconds
                and time.perf_counter() - start + last < ROUND_DEADLINE_S
            ):
                began = time.perf_counter()
                state: dict = {}
                rounds.append(cli_round(runner, wl, tally, state))
                if args.trace:
                    cli_wall = sum(o.wall for o in rounds[-1])
                    tracer, sums = traced_round(runner, wl, tally, state, cli_wall)
                    spans.append(tracer.spans)
                    layers.append(sums)
                last = time.perf_counter() - began
        except _Deadline:
            tally.wrong = True
        if args.trace and layers:
            metrics.update(
                {name: statistics.median(r[name] for r in layers) for name in layers[0]}
            )
        elif rounds:
            metrics.update(end_to_end(wl, rounds))
        if args.trace:
            out_dir = ROOT / ".bench_out"
            out_dir.mkdir(exist_ok=True)
            trace_file = out_dir / f"trace-{wl.name}-seed{args.seed}.json"
            trace_file.write_text(json.dumps({"workload": wl.name, "rounds": spans}))
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        runner.close()
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            work.parent.rmdir()  # only when no other run is using it
    return {
        "workload": wl.name,
        "rounds": len(rounds),
        "tally": tally,
        "metrics": metrics,
    }


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    result = run(args)
    tally: Tally = result["tally"]
    units = dict(END_TO_END)
    if args.trace:
        import traced

        units = traced.PER_LAYER
    print(f"machine: {machine()}")
    print(
        f"workload {result['workload']} seed {args.seed} trace {args.trace}: "
        f"{result['rounds']} rounds, {tally.attempted} operations attempted, "
        f"{tally.failed} failed"
    )
    for where, problem in tally.first_problem.items():
        print(f"FAILED {where}: {problem}")
    metrics = {}
    for name, unit in units.items():
        value = result["metrics"].get(name)
        if value is None:
            continue
        print(f"  {name:40s} {value:>16.6f} {unit}")
        metrics[name] = {"value": value, "unit": unit}
    print(
        json.dumps(
            {
                "correct": not tally.wrong and len(metrics) == len(units),
                "attempted": tally.attempted,
                "failed": tally.failed,
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
