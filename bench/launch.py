"""Launcher: starts the benchmark's commands one at a time and reports each
one's exit code, wall time and peak RSS.

Linux folds the parent's peak RSS into a child's at exec, so a child started
by the benchmark process itself, which holds the reference graphs, would
report that process's memory as its own. This launcher is started first and
stays small, so each child's peak RSS is its own.

Reads one JSON request per line on stdin ({"cmd", "cwd", "stdout", "stderr",
"timeout"}) and writes one JSON reply per line ({"rc", "wall", "rss_kb"});
"rc" is null when the command was killed at its timeout.
"""

import json
import os
import signal
import subprocess
import sys
import time


class _Timeout(Exception):
    pass


def _on_alarm(signum, frame):
    raise _Timeout


def run(request: dict) -> dict:
    with open(request["stdout"], "wb") as out, open(request["stderr"], "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(request["cmd"], cwd=request["cwd"], stdout=out, stderr=err)
        signal.setitimer(signal.ITIMER_REAL, request["timeout"])
        try:
            _, status, usage = os.wait4(proc.pid, 0)
            rc = os.waitstatus_to_exitcode(status)
        except _Timeout:
            proc.kill()
            _, status, usage = os.wait4(proc.pid, 0)
            rc = None
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {"rc": rc, "wall": wall, "rss_kb": usage.ru_maxrss}


def main() -> None:
    signal.signal(signal.SIGALRM, _on_alarm)
    for line in sys.stdin:
        print(json.dumps(run(json.loads(line))), flush=True)


if __name__ == "__main__":
    main()
