"""Sha256 prefixes of every output of the CLI pipeline, to compare checkouts.

    python tools/pipeline_digests.py [--n 20000] [--seed 1] [--context-mode rq]
                                     [--splits 0,1] [--work-dir DIR] [--src SRC_DIR]
                                     [-- SAGAD_FLAG ...]

perfbench's generator (``perfbench/gen.py``, the workloads' graph family,
only imported) writes a dataset under ``--work-dir``, as
``tools/sampler_scale.py`` does, and reuses it when it is already there.
Then ``sagad preprocess`` and ``sagad sample-context`` (none for
``features_only``), and for each split ``train``, ``eval``, ``score`` and
``quartiles``, each run in a child process with one BLAS thread, in a
fresh run directory that is removed at the end.  Arguments after ``--`` go
to every command, e.g. ``-- --max-epochs 700 --patience 700`` for the
rq-20k workload's fixed epoch budget.

Each line is the sha256 prefix of one output: ``dataset.bin``, both
caches, each split's ``checkpoint_<k>.bin``, ``history_<k>.csv``,
``scores_<k>.csv`` and ``quartiles.csv`` (rewritten by every split), then
``report.csv`` and ``summary.csv``.  Run it once per checkout (``--src``)
and diff the two outputs.
"""

from __future__ import annotations

import argparse
import os
import sys
import tempfile

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
from sampler_scale import GENERATE, ROOT, child, sha256_prefix  # noqa: E402


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--n", type=int, default=20_000)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--context-mode", choices=("rq", "full_khop", "features_only"),
                        default="rq")
    parser.add_argument("--splits", default="0,1")
    parser.add_argument("--work-dir", default=os.path.join(tempfile.gettempdir(), "sampler_scale"))
    parser.add_argument("--src", default=os.path.join(ROOT, "src"))
    parser.add_argument("sagad_flags", nargs=argparse.REMAINDER)
    args = parser.parse_args()
    extra = args.sagad_flags[1:] if args.sagad_flags[:1] == ["--"] else args.sagad_flags
    threads = {v: "1" for v in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1", **threads)
    os.makedirs(args.work_dir, exist_ok=True)
    data = os.path.join(args.work_dir, f"gen-n{args.n}-s{args.seed}")
    if not os.path.exists(os.path.join(data, "splits.json")):
        gen_env = dict(env, PYTHONPATH=os.path.join(ROOT, "perfbench"))
        child([sys.executable, "-c", GENERATE, str(args.n), str(args.seed), data], gen_env)
    sagad_env = dict(env, PYTHONPATH=os.path.abspath(args.src))
    with tempfile.TemporaryDirectory(dir=args.work_dir) as run:
        flags = ["--dataset", data, "--run-dir", run, "--context-mode", args.context_mode,
                 "--cap", "64", *extra]

        def sagad(command: str, split: str | None = None) -> None:
            more = [] if split is None else ["--split-index", split]
            child([sys.executable, "-m", "sagad.cli", command, *flags, *more], sagad_env)

        def digest(name: str, label: str | None = None) -> None:
            print(f"{sha256_prefix(os.path.join(run, name))}  {label or name}", flush=True)

        sagad("preprocess")
        digest("dataset.bin")
        digest("cheb_cache.bin")
        if args.context_mode != "features_only":
            sagad("sample-context")
            digest("context_cache.bin")
        for k in args.splits.split(","):
            sagad("train", k)
            digest(f"checkpoint_{k}.bin")
            digest(f"history_{k}.csv")
            sagad("eval", k)
            sagad("score", k)
            digest(f"scores_{k}.csv")
            sagad("quartiles", k)
            digest("quartiles.csv", f"quartiles.csv (split {k})")
        digest("report.csv")
        digest("summary.csv")


if __name__ == "__main__":
    main()
