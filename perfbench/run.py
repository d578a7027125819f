"""Benchmark of the marketradar CLI pipeline.

    python3 perfbench/run.py --workload attrib --seed 1 --seconds 35 --trace 0

``--workload`` is attrib, wide_lasso, tune_gb or all.  Run from a full
checkout: the benchmark runs the program from ``src/``.  With ``--trace 0``
it prints the end-to-end metrics, with ``--trace 1`` the per-layer metrics
of a traced pass; the last line of standard output is one JSON object with
the keys correct, attempted, failed and metrics.  See perfbench/README.md.
"""
from __future__ import annotations

import argparse
import signal
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    src = ROOT / "src"
    if not (src / "marketradar" / "cli.py").is_file():
        print(f"error: no marketradar sources under {src}; run from a full checkout", file=sys.stderr)
        return 2
    # SIGTERM unwinds like an exception, so the spawner and its running
    # step are stopped and reaped instead of outliving the benchmark.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    # Started while this process is still small: see spawner.py.
    spawner = subprocess.Popen(
        [sys.executable, str(HERE / "spawner.py")],
        stdin=subprocess.PIPE,
        stdout=subprocess.PIPE,
        text=True,
    )
    try:
        sys.path.insert(0, str(src))
        import bench

        return bench.main(args, spawner)
    except BaseException:
        spawner.terminate()
        raise
    finally:
        # End of input stops an idle spawner.
        spawner.stdin.close()
        spawner.wait()


if __name__ == "__main__":
    sys.exit(main())
