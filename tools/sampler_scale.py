"""Wall time and peak memory of the pipeline's commands as n grows.

    python tools/sampler_scale.py [--sizes 20000,200000,1000000] [--seed 1]
                                  [--context-mode rq] [--work-dir DIR]
                                  [--src SRC_DIR]

For each size, perfbench's generator (``perfbench/gen.py``, the workloads'
graph family, only imported) writes a dataset under ``--work-dir``, which
is reused when it is already there; then ``sagad preprocess``, one
``sagad sample-context`` in ``--context-mode`` (``rq``, cap 64, or
``full_khop``), and ``train``, ``eval`` and ``score`` on split 0 each run
in a child process with one BLAS thread.  Each command's line gives its
wall time, its CPU time (user + system, ``wait4``'s, so it includes the
scoring workers the command forked and reaped), microseconds per node,
``wait4`` peak RSS and minor page faults; the header gives the CPUs this
process may run on, which the scoring commands use.  A last line per
size gives the sha256 prefixes of ``cheb_cache.bin``,
``context_cache.bin``, ``scores_0.csv`` and ``report.csv``, so two
checkouts' outputs can be compared.
``--src`` runs another checkout's package.  This process imports only the
standard library: Linux carries a parent's peak RSS into a child across
fork and exec, so a small parent keeps each child's number its own.  The
children keep their bytecode under ``--work-dir`` (``child_env``), so in an
A/B both checkouts run compiled modules, whatever ``__pycache__`` their
trees hold.
"""

from __future__ import annotations

import argparse
import hashlib
import os
import subprocess
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
GENERATE = ("import sys, gen; n, seed, out = int(sys.argv[1]), int(sys.argv[2]), sys.argv[3]; "
            "gen.write_dataset(gen.generate(gen.GraphSpec(n=n, num_splits=3), seed), out, 'scale')")


def child(argv: list[str], env: dict) -> tuple[float, float, float, int]:
    """Run ``argv``; its wall seconds, CPU seconds, peak RSS in MiB and
    minor page faults, each over the child and the processes it reaped.
    Raises on failure."""
    start = time.perf_counter()
    proc = subprocess.Popen(argv, env=env, stdout=subprocess.DEVNULL)
    _, status, usage = os.wait4(proc.pid, 0)
    wall = time.perf_counter() - start
    if os.waitstatus_to_exitcode(status) != 0:
        raise SystemExit(f"failed: {' '.join(argv)}")
    return wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0, usage.ru_minflt


def child_env(work_dir: str) -> dict:
    """The children's environment: one BLAS thread, and bytecode compiled
    once into ``work_dir``/pycache, one tree per source path.  A tree's own
    ``__pycache__`` may be stale (a copied tree's always is), and would
    then be recompiled by every child that imports it."""
    threads = {v: "1" for v in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}
    return dict(os.environ, PYTHONPYCACHEPREFIX=os.path.join(work_dir, "pycache"), **threads)


def sha256_prefix(path: str) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as f:
        for block in iter(lambda: f.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()[:16]


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--sizes", default="20000,200000,1000000")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--context-mode", choices=("rq", "full_khop"), default="rq")
    parser.add_argument("--work-dir", default=os.path.join(tempfile.gettempdir(), "sampler_scale"))
    parser.add_argument("--src", default=os.path.join(ROOT, "src"))
    args = parser.parse_args()
    env = child_env(args.work_dir)
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    print(f"usable CPUs: {cpus}")
    print(f"{'n':>9}  {'command':<15} {'wall_s':>8} {'cpu_s':>8} {'us/node':>8} {'peak_MiB':>9} "
          f"{'minflt':>8}")
    for n in (int(size) for size in args.sizes.split(",")):
        data = os.path.join(args.work_dir, f"gen-n{n}-s{args.seed}")
        run = os.path.join(args.work_dir, f"run-n{n}-s{args.seed}")
        if not os.path.exists(os.path.join(data, "splits.json")):
            gen_env = dict(env, PYTHONPATH=os.path.join(ROOT, "perfbench"))
            child([sys.executable, "-c", GENERATE, str(n), str(args.seed), data], gen_env)
        sagad = [sys.executable, "-m", "sagad.cli"]
        flags = ["--dataset", data, "--run-dir", run, "--context-mode", args.context_mode,
                 "--cap", "64"]
        sagad_env = dict(env, PYTHONPATH=os.path.abspath(args.src))
        for command in ("preprocess", "sample-context", "train", "eval", "score"):
            wall, cpu, peak, faults = child(sagad + [command] + flags, sagad_env)
            print(f"{n:>9}  {command:<15} {wall:>8.2f} {cpu:>8.2f} {wall / n * 1e6:>8.2f} "
                  f"{peak:>9.1f} {faults:>8}", flush=True)
        digests = (f"{name} {sha256_prefix(os.path.join(run, name))}"
                   for name in ("cheb_cache.bin", "context_cache.bin", "scores_0.csv", "report.csv"))
        print(f"{n:>9}  {'  '.join(digests)}", flush=True)


if __name__ == "__main__":
    main()
