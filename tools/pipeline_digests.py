"""Sha256 prefixes of every output of the CLI pipeline, to compare checkouts.

    python tools/pipeline_digests.py [--n 20000] [--seed 1] [--context-mode rq]
                                     [--splits 0,1] [--work-dir DIR] [--src SRC_DIR]
                                     [-- SAGAD_FLAG ...]
    python tools/pipeline_digests.py --write-golden

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

``--write-golden`` instead runs the pipeline of ``tests/test_golden.py`` in
this process, through ``sagad.cli.main``, on the package of this checkout:
an n = 2049 graph (one row past a 1024-row scoring tile), seed 1, split 0,
in ``rq``, ``full_khop`` and ``features_only`` mode, and then ``train``
again in the ``rq`` run directory with each of ``GOLDEN_RUN``'s
``train_flags`` (other fusion modes, no FPG term, MLP depths 1 and 3,
weight decay and a fixed epoch budget), whose checkpoint and history
digests make one more table each.  It writes the
digests and the numpy, BLAS and CPU they were taken on to
``tests/golden.json``.  Regenerate that file with it when a change to
results is intended, and record why.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import sys
import tempfile

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
from sampler_scale import GENERATE, ROOT, child, child_env, sha256_prefix  # noqa: E402

GOLDEN = os.path.join(ROOT, "tests", "golden.json")
GOLDEN_RUN = {"n": 2049, "seed": 1, "splits": ["0"],
              "modes": ["rq", "full_khop", "features_only"],
              # `train` again in the rq run directory with each flag set: a training path each
              "train_flags": [["--fusion-mode", "mean"], ["--fusion-mode", "concat"],
                              ["--fusion-mode", "low_only"], ["--fusion-mode", "high_only"],
                              ["--use-fpg", "false"], ["--mlp-depth", "1"], ["--mlp-depth", "3"],
                              ["--weight-decay", "0.01"],
                              ["--max-epochs", "300", "--patience", "300"]]}


def digests(sagad, run: str, context_mode: str, splits: list[str]):
    """Yield (label, sha256 prefix) of each output in turn, running each
    command with ``sagad(command, split)`` just before its outputs."""

    def digest(name: str, label: str | None = None) -> tuple[str, str]:
        return label or name, sha256_prefix(os.path.join(run, name))

    sagad("preprocess")
    yield digest("dataset.bin")
    yield digest("cheb_cache.bin")
    if context_mode != "features_only":
        sagad("sample-context")
        yield digest("context_cache.bin")
    for k in splits:
        sagad("train", k)
        yield digest(f"checkpoint_{k}.bin")
        yield digest(f"history_{k}.csv")
        sagad("eval", k)
        sagad("score", k)
        yield digest(f"scores_{k}.csv")
        sagad("quartiles", k)
        yield digest("quartiles.csv", f"quartiles.csv (split {k})")
    yield digest("report.csv")
    yield digest("summary.csv")


def environment() -> dict:
    """What the digests depend on besides the code: the numpy build, the
    BLAS it links and the CPU, whose kernels OpenBLAS picks at run time."""
    import numpy as np

    blas = getattr(np.__config__, "CONFIG", {}).get("Build Dependencies", {}).get("blas", {})
    cpu = platform.processor() or platform.machine()
    with contextlib.suppress(OSError), open("/proc/cpuinfo") as f:
        cpu = next((line.split(":", 1)[1].strip() for line in f
                    if line.startswith("model name")), cpu)
    return {"numpy": np.__version__, "blas": f"{blas.get('name')} {blas.get('version')}",
            "cpu": cpu}


def golden_digests(work_dir: str) -> dict:
    """{mode: {label: digest}} of the golden run, in this process."""
    sys.path.insert(0, os.path.join(ROOT, "perfbench"))
    import gen

    from sagad.cli import main as sagad_main

    spec = GOLDEN_RUN
    data = os.path.join(work_dir, "data")
    gen.write_dataset(gen.generate(gen.GraphSpec(n=spec["n"], num_splits=3), spec["seed"]),
                      data, "scale")
    out = {}
    for mode in spec["modes"]:
        run = os.path.join(work_dir, f"run-{mode}")
        flags = ["--dataset", data, "--run-dir", run, "--context-mode", mode, "--cap", "64"]

        def sagad(command: str, split: str | None = None, more: tuple = ()) -> None:
            if split is not None:
                more = ["--split-index", split, *more]
            with contextlib.redirect_stdout(io.StringIO()):
                code = sagad_main([command, *flags, *more])
            if code != 0:
                raise RuntimeError(f"sagad {command} exited with {code}")

        out[mode] = dict(digests(sagad, run, mode, spec["splits"]))
        if mode != "rq":
            continue
        for more in spec["train_flags"]:
            sagad("train", "0", more)
            out[f"rq train {' '.join(more)}"] = {
                name: sha256_prefix(os.path.join(run, name))
                for name in ("checkpoint_0.bin", "history_0.csv")}
    return out


def write_golden() -> None:
    # one BLAS thread, as the tests run; read when numpy loads
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path.insert(0, os.path.join(ROOT, "src"))
    with tempfile.TemporaryDirectory() as work:
        table = {"environment": environment(), "run": GOLDEN_RUN, "digests": golden_digests(work)}
    with open(GOLDEN, "w") as f:
        json.dump(table, f, indent=2)
        f.write("\n")
    print(f"wrote {GOLDEN}")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--n", type=int, default=20_000)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--context-mode", choices=("rq", "full_khop", "features_only"),
                        default="rq")
    parser.add_argument("--splits", default="0,1")
    parser.add_argument("--work-dir", default=os.path.join(tempfile.gettempdir(), "sampler_scale"))
    parser.add_argument("--src", default=os.path.join(ROOT, "src"))
    parser.add_argument("--write-golden", action="store_true")
    parser.add_argument("sagad_flags", nargs=argparse.REMAINDER)
    args = parser.parse_args()
    if args.write_golden:
        write_golden()
        return
    extra = args.sagad_flags[1:] if args.sagad_flags[:1] == ["--"] else args.sagad_flags
    env = child_env(args.work_dir)
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

        for label, digest in digests(sagad, run, args.context_mode, args.splits.split(",")):
            print(f"{digest}  {label}", flush=True)


if __name__ == "__main__":
    main()
