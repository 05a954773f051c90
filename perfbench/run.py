"""Pipeline benchmark for sagad: one workload per invocation.

    python3 perfbench/run.py --workload rq-20k --seed 1 --seconds 35 --trace 0

Generates the workload's graph from ``--seed``, runs the real sagad CLI
commands on it in child processes, checks every output, and prints the
end-to-end metrics (``--trace 0``) or the per-layer metrics from a traced
run (``--trace 1``).  The last stdout line is one JSON object
``{"correct", "attempted", "failed", "metrics"}``; the exit code is 1
when a command or an output check failed, 2 when there is no sagad
source to run.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOAD_NAMES = ("rq-20k", "score-200k")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "sagad", "cli.py")):
        print(f"error: no sagad source under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2

    # Thread counts are pinned before numpy is imported here or in any
    # child; threadpoolctl is not available to pin them at run time.
    os.environ.update(
        OPENBLAS_NUM_THREADS="1",
        OMP_NUM_THREADS="1",
        SAGAD_THREADS=str(min(2, os.cpu_count() or 1)),
    )
    from launch import Launcher

    # started while this process is small: see launch.py
    launcher = Launcher()
    try:
        import bench

        return bench.main(args, launcher)
    finally:
        launcher.close()


if __name__ == "__main__":
    sys.exit(main())
