"""In-process time of ``training.train`` for two checkouts, alternated.

    python tools/train_timing.py --src A_SRC --src B_SRC [--pairs 10] [--n 20000]
                                 [--seed 1] [--split 0] [--work-dir DIR]

perfbench's generator (``perfbench/gen.py``, the workloads' graph family,
only imported) writes an n-node dataset under ``--work-dir``, which is
reused when it is already there.  The first ``--src``'s ``sagad
preprocess`` and ``sagad sample-context`` (``rq``, cap 64, K 3, as the
rq-20k workload) write the caches both sides read.  Then each pair runs
one child process per checkout, in alternating order, with one BLAS
thread: the child opens the caches and the split, and times one
``training.train`` call of 700 fixed epochs (``max_epochs`` = ``patience``
= 700), the rq-20k workload's budget.  A ``train`` command's wall time
also holds the interpreter's start-up, the imports and the cache opening,
about 0.2 s on a 2-core x86-64 host, which hides changes to the loop;
this times the loop alone.

Each child's line gives its seconds and a digest of its parameters and
history, which must agree across checkouts for a byte-identical change.
The last lines give each side's median and quartiles.
"""

from __future__ import annotations

import argparse
import os
import statistics
import subprocess
import sys
import tempfile

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
from sampler_scale import GENERATE, ROOT, child, child_env  # noqa: E402

EPOCHS = 700
TIME_TRAIN = """
import hashlib, os, sys, time
from sagad import chebyshev, context, graph, model, training
run, data, split_index, epochs = sys.argv[1], sys.argv[2], int(sys.argv[3]), int(sys.argv[4])
with graph.open_image(os.path.join(run, "dataset.bin"), data,
                      graph.SUPERVISION_SOURCES) as image:
    labels = image.labels()[:]
    split = image.split(split_index, ("train", "val"))
with chebyshev.read_cache(os.path.join(run, "cheb_cache.bin")) as cheb, \\
        context.read_context_cache(os.path.join(run, "context_cache.bin")) as ctx:
    config = model.ModelConfig(K=3, context_mode="rq")
    budget = training.TrainConfig(max_epochs=epochs, patience=epochs)
    start = time.perf_counter()
    state, history = training.train(labels, cheb, ctx, config, budget, split)
    seconds = time.perf_counter() - start
digest = hashlib.sha256(state.params.flat.tobytes())
digest.update(repr([(r.epoch, r.train_loss, r.val_auprc) for r in history]).encode())
print(seconds, digest.hexdigest()[:16])
"""


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", action="append", required=True,
                        help="a checkout's src directory; give it twice")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--n", type=int, default=20_000)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--split", type=int, default=0)
    parser.add_argument("--work-dir", default=os.path.join(tempfile.gettempdir(), "train_timing"))
    args = parser.parse_args()
    if len(args.src) != 2:
        parser.error("give --src twice: the two checkouts to compare")
    if args.pairs < 1:
        parser.error("--pairs must be >= 1")
    srcs = [os.path.abspath(src) for src in args.src]
    env = child_env(args.work_dir)
    os.makedirs(args.work_dir, exist_ok=True)
    data = os.path.join(args.work_dir, f"gen-n{args.n}-s{args.seed}")
    run = os.path.join(args.work_dir, f"run-n{args.n}-s{args.seed}")
    if not os.path.exists(os.path.join(data, "splits.json")):
        gen_env = dict(env, PYTHONPATH=os.path.join(ROOT, "perfbench"))
        child([sys.executable, "-c", GENERATE, str(args.n), str(args.seed), data], gen_env)
    flags = ["--dataset", data, "--run-dir", run, "--context-mode", "rq", "--cap", "64",
             "--K", "3"]
    for command in ("preprocess", "sample-context"):
        child([sys.executable, "-m", "sagad.cli", command, *flags],
              dict(env, PYTHONPATH=srcs[0]))

    times: list[list[float]] = [[], []]
    digests: set[str] = set()
    for pair in range(args.pairs):
        for side in (0, 1) if pair % 2 == 0 else (1, 0):
            out = subprocess.run(
                [sys.executable, "-c", TIME_TRAIN, run, data, str(args.split), str(EPOCHS)],
                env=dict(env, PYTHONPATH=srcs[side]), check=True, capture_output=True,
                text=True,
            ).stdout.split()
            times[side].append(float(out[0]))
            digests.add(out[1])
            print(f"pair {pair} side {'AB'[side]}: {float(out[0]):.4f} s  {out[1]}", flush=True)
    for side, src in enumerate(srcs):
        q1, median, q3 = quartiles(times[side])
        print(f"{'AB'[side]} {src}: median {median:.4f} s  [IQR {q1:.4f}, {q3:.4f}]")
    wins = sum(b < a for a, b in zip(*times))
    print(f"B faster in {wins}/{args.pairs} pairs; "
          f"outputs {'identical' if len(digests) == 1 else 'DIFFER'}")


if __name__ == "__main__":
    main()
