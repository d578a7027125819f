"""Runs the benchmark's CLI steps as its own children and reports on each.

Usage: python3 perfbench/spawner.py, with one JSON request per line on
standard input ({"cmd", "cwd", "env", "log", "timeout"}) and one JSON reply
per line on standard output ({"rc", "wall", "maxrss_kb"}).

run.py starts this process before it imports numpy or the program.  A
child's max-RSS, as rusage reports it, also counts the memory of the process
it was forked from, so the steps must be forked from a small process for
``peak_rss_mb`` to measure the step and not the benchmark itself.
"""
from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import threading
import time


def run(request: dict) -> dict:
    with open(request["log"], "wb") as log:
        t0 = time.perf_counter()
        proc = subprocess.Popen(
            request["cmd"],
            cwd=request["cwd"],
            env=request["env"],
            stdout=log,
            stderr=subprocess.STDOUT,
        )
        timer = threading.Timer(request["timeout"], proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {"rc": proc.returncode, "wall": wall, "maxrss_kb": usage.ru_maxrss}


def main() -> int:
    # SIGTERM unwinds through run(), which kills and reaps the running step.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    for line in sys.stdin:
        print(json.dumps(run(json.loads(line))), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
