"""The benchmark proper: workloads, the command pipeline, metrics.

perfbench/run.py is the entry point; it pins the thread environment and
starts the launcher (perfbench/launch.py) before this module imports
numpy.  Each sagad command runs in its own child process:
``preprocess`` and ``sample-context`` (the set-up, repeated), then
``train``, ``eval`` and ``score`` per split, round-robin over the splits
until ``--seconds`` have passed and every split ran once.  Outputs are
checked after every command (perfbench/checks.py).  With tracing on,
each command runs once untraced and once under perfbench/spans.py.
"""

from __future__ import annotations

import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass

import numpy as np

import checks
import gen
import spans as spanlib
from launch import Launcher

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORK = os.path.join(ROOT, ".perfbench_work")
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "SAGAD_THREADS")

K = 3
CAP = 64
# A run must end within 180 s: commands still running this long after the
# start are killed (and fail), and no extra round starts after EXTRA_ROUNDS_S.
DEADLINE_S = 170.0
EXTRA_ROUNDS_S = 120.0
# set-ups per run (one when tracing); setup_s is their median
SETUP_REPS = 2


@dataclass(frozen=True)
class Workload:
    spec: gen.GraphSpec
    context_mode: str
    train_flags: tuple[str, ...] = ()
    why: str = ""


WORKLOADS = {
    # A fixed epoch budget (patience = max_epochs) makes the training work
    # identical on every commit and every seed.
    "rq-20k": Workload(
        gen.GraphSpec(n=20_000, num_splits=3), "rq",
        train_flags=("--max-epochs", "700", "--patience", "700"),
        why="RQ sampler is most of set-up; fixed-epoch training on 50-row batches is most of train",
    ),
    "score-200k": Workload(
        gen.GraphSpec(n=200_000, num_splits=3), "full_khop",
        why="dataset parsing, cache reads and whole-graph scoring dominate",
    ),
}

END_TO_END_UNITS = {
    "setup_s": "s",
    "train_s": "s",
    "eval_s": "s",
    "score_nodes_per_s": "nodes/s",
    "setup_peak_rss_mb": "MB",
    "train_peak_rss_mb": "MB",
    "score_peak_rss_mb": "MB",
    "test_auroc": "ratio",
    "test_auprc": "ratio",
}


@dataclass
class Op:
    command: str
    split: int | None
    wall_s: float
    cpu_s: float
    rss_mb: float
    exit_code: int
    problems: list[str]
    mode: str = "plain"  # plain | traced (spans) | alloc (tracemalloc only)
    spans: list[dict] | None = None


class Runner:
    """Runs sagad commands as child processes against one run directory."""

    def __init__(self, launcher: Launcher, workload: Workload, data_dir: str, run_dir: str,
                 log_dir: str, deadline: float) -> None:
        self.launcher = launcher
        self.deadline = deadline
        self.workload = workload
        self.data_dir = data_dir
        self.run_dir = run_dir
        self.log_dir = log_dir
        self.env = dict(os.environ)
        self.env.update(
            PYTHONPATH=os.path.join(ROOT, "src"),
            PYTHONDONTWRITEBYTECODE="1",
            TMPDIR=os.path.join(log_dir, "tmp"),
        )
        os.makedirs(self.env["TMPDIR"], exist_ok=True)
        self.ops: list[Op] = []

    def argv(self, command: str, split: int | None) -> list[str]:
        args = [command, "--dataset", self.data_dir, "--run-dir", self.run_dir,
                "--K", str(K), "--cap", str(CAP), "--context-mode", self.workload.context_mode]
        if split is not None:
            args += ["--split-index", str(split)]
        if command == "train":
            args += list(self.workload.train_flags)
        return args

    def run(self, command: str, split: int | None = None, mode: str = "plain") -> Op:
        tag = f"{command}-{split}-{mode}-{len(self.ops)}"
        spans_path = os.path.join(self.log_dir, f"{tag}.spans.json")
        if mode == "plain":
            argv = [sys.executable, "-m", "sagad.cli"]
        else:
            argv = [sys.executable, os.path.join(ROOT, "perfbench", "spans.py"), spans_path]
            argv += ["--alloc"] if mode == "alloc" else []
        log_path = os.path.join(self.log_dir, f"{tag}.log")
        timeout = max(1.0, self.deadline - time.perf_counter())
        done = self.launcher.run(argv + self.argv(command, split), self.env, ROOT, log_path, timeout)
        problems = []
        if done["exit_code"] != 0:
            with open(log_path, "rb") as f:
                tail = f.read()[-400:].decode("utf-8", "replace")
            problems.append(f"{command} exited {done['exit_code']}: {tail.strip()}")
        op = Op(command, split, done["wall_s"], done["cpu_s"], done["maxrss_kb"] * 1024 / 1e6,
                done["exit_code"], problems, mode)
        if mode != "plain":
            op.spans = []
            if os.path.exists(spans_path):
                with open(spans_path, encoding="utf-8") as f:
                    op.spans = json.load(f)
        self.ops.append(op)
        return op


class Pipeline:
    """The benchmark's view of one workload: inputs, commands and checks."""

    def __init__(self, launcher: Launcher, name: str, seed: int, traced: bool,
                 started: float) -> None:
        self.name = name
        self.started = started
        self.workload = WORKLOADS[name]
        self.traced = traced
        self.base = os.path.join(WORK, name)
        shutil.rmtree(self.base, ignore_errors=True)
        self.data_dir = os.path.join(self.base, "data")
        self.run_dir = os.path.join(self.base, "run")
        log_dir = os.path.join(self.base, "logs")
        os.makedirs(log_dir)

        spec = self.workload.spec
        t0 = time.perf_counter()
        self.graph = gen.generate(spec, seed)
        gen.write_dataset(self.graph, self.data_dir, f"{name}-seed{seed}")
        self.generate_s = time.perf_counter() - t0
        self.stats = gen.input_stats(spec, self.graph, cap=CAP)
        self.degree = gen.degrees(self.graph)
        self.n, self.d = self.graph.features.shape
        self.runner = Runner(launcher, self.workload, self.data_dir, self.run_dir, log_dir,
                             started + DEADLINE_S)
        self.setup_digests: list[str] = []
        self.notes: list[str] = []
        self.score_digests: dict[int, str] = {}

    # -- commands with their output checks ---------------------------------

    def _do(self, command: str, split: int | None = None) -> list[Op]:
        """Run a command (and, when tracing, its traced twin); check outputs."""
        ops = [self.runner.run(command, split)]
        if self.traced:
            ops.append(self.runner.run(command, split, mode="traced"))
            if command == "train" and split == 0:
                ops.append(self.runner.run(command, split, mode="alloc"))
        for op in ops:
            if op.exit_code == 0:
                op.problems += self._check(command, split)
        return ops

    def _check(self, command: str, split: int | None) -> list[str]:
        run = self.run_dir
        if command == "preprocess":
            return checks.cheb_cache(os.path.join(run, "cheb_cache.bin"), self.n, self.d, K)
        if command == "sample-context":
            path = os.path.join(run, "context_cache.bin")
            problems = checks.context_cache(
                path, self.n, self.d, self.degree, self.workload.context_mode, CAP)
            if not problems:
                self.setup_digests.append(checks.sha256(path))
                if self.setup_digests[-1] != self.setup_digests[0]:
                    problems.append("context_cache.bin differs between set-up repetitions")
            return problems
        if command == "train":
            return checks.nonempty(os.path.join(run, f"checkpoint_{split}.bin"))
        if command == "eval":
            if split not in checks.read_report(os.path.join(run, "report.csv")):
                return [f"report.csv has no row for split {split}"]
            return []
        # score: the file itself, then report.csv's AUROC against it
        path = os.path.join(run, f"scores_{split}.csv")
        scores, wrapped, problems = checks.read_scores(path, self.n)
        if problems:
            return problems
        if wrapped and not self.notes:
            self.notes.append(
                f"known defect: scores_{split}.csv writes {wrapped} of {self.n} scores as "
                "'np.float64(<repr>)' (numpy >= 2 repr), not as plain CSV numbers")
        digest = checks.sha256(path)
        if self.score_digests.setdefault(split, digest) != digest:
            problems.append(f"scores_{split}.csv differs between repetitions")
        test_ids = self.graph.splits[split]["test"]
        report = checks.read_report(os.path.join(run, "report.csv"))
        return problems + checks.report_auroc(report, split, scores, self.graph.labels, test_ids)

    def setup(self) -> list[Op]:
        shutil.rmtree(self.run_dir, ignore_errors=True)
        return self._do("preprocess") + self._do("sample-context")

    def split_round(self, split: int) -> list[Op]:
        return self._do("train", split) + self._do("eval", split) + self._do("score", split)

    # -- driving ------------------------------------------------------------

    def run(self, seconds: float) -> None:
        """Set up, then split rounds: every split once (one split when
        tracing), then more rounds while ``seconds`` since the first set-up
        are not used up."""
        start = time.perf_counter()
        self.setups = [self.setup() for _ in range(1 if self.traced else SETUP_REPS)]
        splits = self.workload.spec.num_splits
        rounds = 0
        while rounds < (1 if self.traced else splits) or (
            time.perf_counter() - start < seconds
            and time.perf_counter() - self.started < EXTRA_ROUNDS_S
        ):
            self.split_round(rounds % splits)
            rounds += 1
        self.measure_s = time.perf_counter() - start


def _of(ops: list[Op], mode: str, command: str | None = None) -> list[Op]:
    return [op for op in ops if op.mode == mode and command in (None, op.command)]


def _median(values) -> float:
    """Median, or 0 when a failed run left no samples (the run is then
    reported as not correct)."""
    values = list(values)
    return statistics.median(values) if values else 0.0


def end_to_end(p: Pipeline) -> tuple[dict, dict]:
    """Metric values and sample counts from the untraced commands."""
    ops = p.runner.ops
    setups = [_of(s, "plain") for s in p.setups]
    setup_walls = [sum(op.wall_s for op in s) for s in setups]
    setup_rss = [max(op.rss_mb for op in s) for s in setups]
    train, ev, score = (_of(ops, "plain", c) for c in ("train", "eval", "score"))
    report = checks.read_report(os.path.join(p.run_dir, "report.csv"))
    rows = [report[k] for k in sorted(report)]
    values = {
        "setup_s": _median(setup_walls),
        "train_s": _median(op.wall_s for op in train),
        "eval_s": _median(op.wall_s for op in ev),
        "score_nodes_per_s": _median(p.n / op.wall_s for op in score),
        "setup_peak_rss_mb": _median(setup_rss),
        "train_peak_rss_mb": _median(op.rss_mb for op in train),
        "score_peak_rss_mb": _median(op.rss_mb for op in score),
        "test_auroc": statistics.fmean(r.get("auroc", 0.0) for r in rows) if rows else 0.0,
        "test_auprc": statistics.fmean(r.get("auprc", 0.0) for r in rows) if rows else 0.0,
    }
    counts = {
        "setup_s": len(setup_walls), "setup_peak_rss_mb": len(setup_rss),
        "train_s": len(train), "train_peak_rss_mb": len(train),
        "eval_s": len(ev), "score_nodes_per_s": len(score), "score_peak_rss_mb": len(score),
        "test_auroc": len(rows), "test_auprc": len(rows),
    }
    return values, counts


# per-layer metric -> (span, commands whose processes count, required ancestor, total|self)
SPAN_METRICS = {
    "graph.load_dataset_s": ("graph.load_dataset", None, None, "total"),
    "graph.normalized_adjacency_s": ("graph.normalized_adjacency", None, None, "total"),
    "chebyshev.build_cheb_basis_s": ("chebyshev.build_cheb_basis", None, None, "total"),
    "chebyshev.write_cache_s": ("chebyshev.write_cache", None, None, "total"),
    "context.write_context_cache_s": ("context.write_context_cache", None, None, "total"),
    "chebyshev.read_cache_s": ("chebyshev.read_cache", None, None, "total"),
    "context.read_context_cache_s": ("context.read_context_cache", None, None, "total"),
    "context.build_context_cache_s": ("context.build_context_cache", None, None, "total"),
    "training.train_s": ("training.train", None, None, "total"),
    "training.loss_and_grads_bundle_s": ("training.loss_and_grads_bundle", None, "training.train", "total"),
    "training.adam_step_s": ("training.adam_step", None, "training.train", "total"),
    "metrics.average_precision_s": ("metrics.average_precision", None, "training.train", "total"),
    "training.score_all_s": ("training.score_all", None, None, "total"),
    "model.gather_rows_s": ("model.gather_rows", None, "training.score_all", "total"),
    "model.forward_bundle_self_s": ("model.forward_bundle", None, "training.score_all", "self"),
    "model.mlp_forward_s": ("model.mlp_forward", None, "training.score_all", "total"),
    "model.train_forward_bundle_self_s": ("model.forward_bundle", None, "training.train", "self"),
    "model.train_mlp_forward_s": ("model.mlp_forward", None, "training.train", "total"),
    "model.save_checkpoint_s": ("model.save_checkpoint", None, None, "total"),
    "model.load_checkpoint_s": ("model.load_checkpoint", None, None, "total"),
    "metrics.evaluate_s": ("metrics.evaluate", None, None, "total"),
    "cli.train_self_s": ("cli", ("train",), None, "self"),
    "cli.eval_self_s": ("cli", ("eval",), None, "self"),
    "cli.score_self_s": ("cli", ("score",), None, "self"),
}

PER_LAYER_UNITS = {name: "s" for name in SPAN_METRICS} | {
    "graph.load_dataset_calls": "count",
    "chebyshev.read_cache_calls": "count",
    "chebyshev.spmm_gflops": "GFLOP/s",
    "chebyshev.cache_mb": "MB",
    "context.us_per_node": "us",
    "context.exhaustive_nodes": "count",
    "context.greedy_nodes": "count",
    "context.capped_nodes": "count",
    "context.mean_subgraph_size": "nodes",
    "training.epochs": "count",
    "training.ms_per_epoch": "ms",
    "training.score_all_us_per_node": "us",
    "training.score_all_mb_read": "MB",
    "training.train_alloc_peak_mb": "MB",
    "trace.overhead_pct": "%",
}


def _per_process(traced: list[Op], span_name: str, commands=None, ancestor=None,
                 what: str = "total") -> list[float]:
    """One value per traced process that has a matching span: the sum of
    the matching spans' durations (or self times) in that process."""
    out = []
    for op in traced:
        if commands and op.command not in commands:
            continue
        spans = op.spans
        selfs = spanlib.self_times(spans) if what == "self" else None
        vals = [
            selfs[i] if selfs is not None else s["end"] - s["start"]
            for i, s in enumerate(spans)
            if s["name"] == span_name and (ancestor is None or spanlib.has_ancestor(spans, i, ancestor))
        ]
        if vals:
            out.append(sum(vals))
    return out


def per_layer(p: Pipeline) -> tuple[dict, dict]:
    """Per-layer metrics from the traced processes, with sample counts."""
    ops = p.runner.ops
    traced = _of(ops, "traced")
    train = _of(traced, "traced", "train")
    values, counts = {}, {}
    for name, (span_name, commands, ancestor, what) in SPAN_METRICS.items():
        vals = _per_process(traced, span_name, commands, ancestor, what)
        values[name], counts[name] = _median(vals), len(vals)

    def put(name: str, value: float, count: int) -> None:
        values[name], counts[name] = value, count

    def calls(span_name: str) -> int:
        return sum(1 for op in traced for s in op.spans if s["name"] == span_name)

    n, d, m = p.n, p.d, p.stats["m"]
    put("graph.load_dataset_calls", calls("graph.load_dataset"), len(traced))
    put("chebyshev.read_cache_calls", calls("chebyshev.read_cache"), len(traced))
    cheb_s = values["chebyshev.build_cheb_basis_s"]
    # K sparse products with 2m stored entries (both directions), d columns
    put("chebyshev.spmm_gflops", 2 * (2 * m) * d * K / cheb_s / 1e9 if cheb_s else 0.0,
        counts["chebyshev.build_cheb_basis_s"])
    cheb_path = os.path.join(p.run_dir, "cheb_cache.bin")
    put("chebyshev.cache_mb", os.path.getsize(cheb_path) / 1e6 if os.path.exists(cheb_path) else 0.0, 1)
    put("context.us_per_node", values["context.build_context_cache_s"] * 1e6 / n,
        counts["context.build_context_cache_s"])
    # the sampler's branch rule applied to the input degrees; only the RQ
    # mode runs the sampler
    rq = p.workload.context_mode == "rq"
    deg = p.degree
    put("context.exhaustive_nodes", int(np.sum((deg >= 1) & (deg <= gen.EXHAUSTIVE_LIMIT))) if rq else 0, 1)
    put("context.greedy_nodes", int(np.sum(deg > gen.EXHAUSTIVE_LIMIT)) if rq else 0, 1)
    put("context.capped_nodes", int(np.sum(deg > CAP)) if rq else 0, 1)
    ctx_path = os.path.join(p.run_dir, "context_cache.bin")
    ok = not checks.file_size(ctx_path, checks.CONTEXT_HEADER_BYTES + n * d * 4 + n * 4)
    put("context.mean_subgraph_size", float(checks.context_sizes(ctx_path, n, d).mean()) if ok else 0.0, 1)
    epochs = [sum(1 for s in op.spans if s["name"] == "training.loss_and_grads_bundle") for op in train]
    train_s = [sum(s["end"] - s["start"] for s in op.spans if s["name"] == "training.train")
               for op in train]
    put("training.epochs", _median(epochs), len(epochs))
    put("training.ms_per_epoch", _median([1e3 * t / e for t, e in zip(train_s, epochs) if e]),
        len(epochs))
    put("training.score_all_us_per_node", values["training.score_all_s"] * 1e6 / n,
        counts["training.score_all_s"])
    # computed, not measured: the K+1 basis blocks and the context rows, f32
    put("training.score_all_mb_read", (K + 2) * n * d * 4 / 1e6, 1)
    peaks = [s["alloc_peak_bytes"] / 1e6 for op in _of(ops, "alloc") for s in op.spans
             if "alloc_peak_bytes" in s]
    put("training.train_alloc_peak_mb", _median(peaks), len(peaks))
    plain_wall = sum(op.wall_s for op in _of(ops, "plain"))
    put("trace.overhead_pct", 100.0 * (sum(op.wall_s for op in traced) - plain_wall) / max(plain_wall, 1e-9),
        len(traced))
    return values, counts


def predictions(p: Pipeline) -> list[str]:
    """The workload design's predictions, as shares of the traced commands' wall time."""
    traced = _of(p.runner.ops, "traced")
    setup = [op for op in traced if op.command in ("preprocess", "sample-context")]
    train = _of(traced, "traced", "train")
    sampler = sum(_per_process(setup, "context.build_context_cache"))

    def train_share(span_name: str) -> float:
        return _median(sum(_per_process([op], span_name)) / op.wall_s for op in train)

    rows = [
        ("rq-20k", "context.build_context_cache_s >= 0.5 * setup_s",
         sampler / max(sum(op.wall_s for op in setup), 1e-9)),
        ("score-200k", "graph.load_dataset_s > 0.5 * train_s", train_share("graph.load_dataset")),
        ("rq-20k", "training.train_s > 0.5 * train_s", train_share("training.train")),
    ]
    out = []
    for workload, text, share in rows:
        verdict = ("holds" if share >= 0.5 else "FAILS") if workload == p.name else "not this workload"
        out.append(f"prediction [{workload}] {text}: share {share:.3f} -> {verdict}")
    return out


def environment(seed: int) -> dict:
    import scipy

    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10,
            env=dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT)),
        ).stdout.strip() or "unknown (not a git checkout)"
    except (OSError, subprocess.SubprocessError):
        sha = "unknown (git unavailable)"
    blas = {}
    for mod in (np, scipy):
        try:
            dep = mod.show_config(mode="dicts")["Build Dependencies"]["blas"]
            blas[mod.__name__] = f"{dep.get('name')} {dep.get('version')}"
        except (AttributeError, KeyError, TypeError):
            blas[mod.__name__] = "unknown"
    return {
        "git_sha": sha,
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "thread_env": {k: os.environ.get(k) for k in THREAD_VARS},
        "seed": seed,
        "limits": [
            "peak RSS is each command's own process tree as wait4 reports it (ru_maxrss), "
            "not machine-wide memory",
            "nothing machine-wide is traced; spans cover this run's own processes only",
            "timings are wall clock on a shared machine",
        ],
    }


def main(args, launcher: Launcher) -> int:
    started = time.perf_counter()
    p = Pipeline(launcher, args.workload, args.seed, bool(args.trace), started)
    try:
        p.run(args.seconds)
        ops = p.runner.ops
        failures = [f"{op.command}[{op.split}]: {msg}" for op in ops for msg in op.problems]
        failed = sum(1 for op in ops if op.problems)
        if args.trace:
            values, counts = per_layer(p)
            units = PER_LAYER_UNITS
            notes = predictions(p)
        else:
            values, counts = end_to_end(p)
            units = END_TO_END_UNITS
            notes = []
        notes += p.notes
        record = {
            "workload": args.workload,
            "why": p.workload.why,
            "trace": args.trace,
            "environment": environment(args.seed),
            "input": p.stats,
            "generate_s": p.generate_s,
            "measure_s": p.measure_s,
            "ops": len(ops),
            "failed_ops": failed,
            "failures": failures,
            "notes": notes,
            "digests": {
                "context_cache.bin": p.setup_digests[0] if p.setup_digests else None,
                **{f"scores_{k}.csv": v for k, v in sorted(p.score_digests.items())},
            },
            "samples": counts,
            "commands": [
                {"command": op.command, "split": op.split, "mode": op.mode, "wall_s": op.wall_s,
                 "cpu_s": op.cpu_s, "rss_mb": op.rss_mb, "exit_code": op.exit_code}
                for op in ops
            ],
        }
    finally:
        shutil.rmtree(p.base, ignore_errors=True)

    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{len(ops)} ops, {failed} failed, measured {p.measure_s:.1f} s")
    for name, value in values.items():
        print(f"  {name:36s} {value:>14.6g} {units[name]:8s} (n={counts[name]})")
    print(f"  {'failed_ops':36s} {failed:>14d} {'count':8s} (of {len(ops)} ops)")
    for line in notes + failures:
        print(line)
    record_path = os.path.join(WORK, f"record-{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(record_path, "w", encoding="utf-8") as f:
        json.dump(record, f, indent=1, sort_keys=True)
    print("record: " + json.dumps(record, sort_keys=True))
    result = {
        "correct": failed == 0,
        "attempted": len(ops),
        "failed": failed,
        "metrics": {k: {"value": float(v), "unit": units[k]} for k, v in values.items()},
    }
    print(json.dumps(result))
    return 0 if failed == 0 else 1
