"""Wall time and peak memory of the pipeline's commands as n grows.

    python tools/sampler_scale.py [--sizes 20000,200000,1000000] [--seed 1]
                                  [--context-mode rq] [--work-dir DIR]
                                  [--src SRC_DIR] [--one-cpu]

For each size, perfbench's generator (``perfbench/gen.py``, the workloads'
graph family, only imported) writes a dataset under ``--work-dir``, which
is reused when it is already there; then ``sagad preprocess``, one
``sagad sample-context`` in ``--context-mode`` (``rq``, cap 64, or
``full_khop``), and ``train``, ``eval`` and ``score`` on split 0 each run
in a child process with one BLAS thread.  Every command but ``train``
splits its rows over forked workers, one per usable CPU (the basis, the
context and the scoring; see ``sagad.workers``).  Each command's line
gives its wall time, its CPU time (user + system, ``wait4``'s, so it
includes the workers the command forked and reaped), microseconds per
node, the ``wait4`` peak RSS (the largest of the command and its reaped
workers, each counting the pages it shares with the others), the
process tree's peak (``tree_MiB``: the largest sum of the Pss in
``/proc/<pid>/smaps_rollup`` of the command and its children, sampled
every 10 ms while it runs, so shared pages count once; 0 where ``/proc``
does not have it) and minor page faults.  The header gives the CPUs the
children may run on: with ``--one-cpu`` each child is pinned to the
first of this process's CPUs (``os.sched_setaffinity`` before exec), so
nothing forks, and a serial run can be set beside a forked one in one
session.  A last line per size gives the sha256 prefixes of
``cheb_cache.bin``, ``context_cache.bin``, ``scores_0.csv`` and
``report.csv``, so two checkouts' outputs can be compared.
``--src`` runs another checkout's package.  This process imports only the
standard library: Linux carries a parent's peak RSS into a child across
fork and exec, so a small parent keeps each child's number its own.  The
children keep their bytecode under ``--work-dir`` (``child_env``), so in an
A/B both checkouts run compiled modules, whatever ``__pycache__`` their
trees hold.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import os
import subprocess
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
GENERATE = ("import sys, gen; n, seed, out = int(sys.argv[1]), int(sys.argv[2]), sys.argv[3]; "
            "gen.write_dataset(gen.generate(gen.GraphSpec(n=n, num_splits=3), seed), out, 'scale')")


def child(argv: list[str], env: dict,
          cpus: set[int] | None = None) -> tuple[float, float, float, int, float]:
    """Run ``argv``, on ``cpus`` only if given; its wall seconds, CPU
    seconds, peak RSS in MiB and minor page faults, each over the child
    and the processes it reaped, and its process tree's peak Pss in MiB
    (``tree_pss_kib``, sampled every ``SAMPLE_S``).  Raises on failure."""
    pin = None if cpus is None else (lambda: os.sched_setaffinity(0, cpus))
    start = time.perf_counter()
    proc = subprocess.Popen(argv, env=env, stdout=subprocess.DEVNULL, preexec_fn=pin)
    tree = 0
    while True:
        pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
        if pid:
            break
        tree = max(tree, tree_pss_kib(proc.pid))
        time.sleep(SAMPLE_S)
    wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)  # reaped here, not by Popen
    if proc.returncode != 0:
        raise SystemExit(f"failed: {' '.join(argv)}")
    return (wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0, usage.ru_minflt,
            tree / 1024.0)


SAMPLE_S = 0.01


def tree_pss_kib(pid: int) -> int:
    """The Pss of ``pid`` and of its children, in KiB, from their
    ``/proc/<pid>/smaps_rollup`` (read only); 0 for a process that has
    gone or a ``/proc`` without the files."""

    def pss(p: int) -> int:
        with open(f"/proc/{p}/smaps_rollup") as f:
            return next((int(line.split()[1]) for line in f if line.startswith("Pss:")), 0)

    try:
        with open(f"/proc/{pid}/task/{pid}/children") as f:
            children = [int(c) for c in f.read().split()]
        total = pss(pid)
    except OSError:
        return 0
    for c in children:
        with contextlib.suppress(OSError):  # a worker reaped meanwhile
            total += pss(c)
    return total


def child_env(work_dir: str) -> dict:
    """The children's environment: one BLAS thread, and bytecode compiled
    once into ``work_dir``/pycache, one tree per source path.  A tree's own
    ``__pycache__`` may be stale (a copied tree's always is), and would
    then be recompiled by every child that imports it.
    ``PYTHONDONTWRITEBYTECODE`` is dropped: with it, nothing is written
    under the prefix, and every child compiled every module it imported,
    numpy's too (about 0.6 s more per command on a 2-core x86-64 host)."""
    threads = {v: "1" for v in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}
    env = dict(os.environ, PYTHONPYCACHEPREFIX=os.path.join(work_dir, "pycache"), **threads)
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


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
    parser.add_argument("--one-cpu", action="store_true",
                        help="pin every command to one CPU, so that none forks")
    args = parser.parse_args()
    env = child_env(args.work_dir)
    pin = {min(os.sched_getaffinity(0))} if args.one_cpu else None
    cpus = len(pin or os.sched_getaffinity(0))
    print(f"usable CPUs: {cpus}")
    print(f"{'n':>9}  {'command':<15} {'wall_s':>8} {'cpu_s':>8} {'us/node':>8} {'peak_MiB':>9} "
          f"{'tree_MiB':>9} {'minflt':>8}")
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
            wall, cpu, peak, faults, tree = child(sagad + [command] + flags, sagad_env, pin)
            print(f"{n:>9}  {command:<15} {wall:>8.2f} {cpu:>8.2f} {wall / n * 1e6:>8.2f} "
                  f"{peak:>9.1f} {tree:>9.1f} {faults:>8}", flush=True)
        digests = (f"{name} {sha256_prefix(os.path.join(run, name))}"
                   for name in ("cheb_cache.bin", "context_cache.bin", "scores_0.csv", "report.csv"))
        print(f"{n:>9}  {'  '.join(digests)}", flush=True)


if __name__ == "__main__":
    main()
