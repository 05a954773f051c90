"""Spans around calls into each sagad layer, for the benchmark's traced run.

Run as a script, this is a drop-in for ``python -m sagad.cli``:

    python3 perfbench/spans.py SPANS_OUT.json [--alloc] <sagad command> [flags...]

It wraps the package's public functions where their callers look them
up (module attributes), runs the command, and writes every span as
``{"name", "start", "end", "parent"}`` to SPANS_OUT.json when the command
ends.  Spans are kept in memory until then.  Nothing in ``src/`` is
edited; the wrappers live only in this process.

With ``--alloc`` only ``training.train`` is wrapped, under tracemalloc,
and its span carries ``alloc_peak_bytes``.  tracemalloc roughly doubles
training time, so it runs in a process of its own, never in the one
whose spans are timed.
"""

from __future__ import annotations

import functools
import json
import sys
import time
import tracemalloc


class Recorder:
    """In-memory span tree of one process (single-threaded callers)."""

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self._stack: list[int] = []

    def wrap(self, owner, attr: str, name: str, alloc_peak: bool = False) -> None:
        """Replace ``owner.attr`` by a wrapper that records a span per call."""
        fn = getattr(owner, attr)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = {"name": name, "start": 0.0, "end": 0.0,
                    "parent": self._stack[-1] if self._stack else None}
            self.spans.append(span)
            self._stack.append(len(self.spans) - 1)
            if alloc_peak:
                tracemalloc.start()
            span["start"] = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                if alloc_peak:
                    span["alloc_peak_bytes"] = tracemalloc.get_traced_memory()[1]
                    tracemalloc.stop()
                self._stack.pop()

        setattr(owner, attr, traced)


def self_times(spans: list[dict]) -> list[float]:
    """Each span's duration minus the part of its interval that its direct
    children cover (overlapping children are counted once)."""
    children: dict[int, list[tuple[float, float]]] = {}
    for span in spans:
        if span["parent"] is not None:
            children.setdefault(span["parent"], []).append((span["start"], span["end"]))
    out = []
    for i, span in enumerate(spans):
        covered, reach = 0.0, span["start"]
        for lo, hi in sorted(children.get(i, [])):
            lo, hi = max(lo, reach), min(hi, span["end"])
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append(span["end"] - span["start"] - covered)
    return out


def has_ancestor(spans: list[dict], index: int, name: str) -> bool:
    parent = spans[index]["parent"]
    while parent is not None:
        if spans[parent]["name"] == name:
            return True
        parent = spans[parent]["parent"]
    return False


def install(rec: Recorder) -> None:
    """Wrap the layer boundaries of the sagad pipeline."""
    from sagad import chebyshev, cli, context, graph, metrics, model, training

    # the command itself: config echo/persistence, CSV writers, dispatch
    rec.wrap(cli, "dispatch", "cli")
    # what cli.py calls, looked up on the module objects it imported
    for owner, attrs in (
        (graph, ("load_dataset",)),
        (chebyshev, ("build_cheb_basis", "write_cache", "read_cache")),
        (context, ("build_context_cache", "write_context_cache", "read_context_cache")),
        (training, ("train", "score_all")),
        (model, ("save_checkpoint", "load_checkpoint")),
        (metrics, ("evaluate",)),
    ):
        for attr in attrs:
            rec.wrap(owner, attr, f"{owner.__name__.split('.')[-1]}.{attr}")
    # names bound by `from .x import y` inside the layers
    rec.wrap(chebyshev, "normalized_adjacency", "graph.normalized_adjacency")
    for attr, layer in (
        ("gather_rows", "model"),
        ("forward_bundle", "model"),
        ("loss_and_grads_bundle", "training"),
        ("adam_step", "training"),
        ("average_precision", "metrics"),
    ):
        rec.wrap(training, attr, f"{layer}.{attr}")
    rec.wrap(metrics, "average_precision", "metrics.average_precision")
    rec.wrap(model, "mlp_forward", "model.mlp_forward")


def main(argv: list[str]) -> int:
    out_path, cli_args = argv[0], argv[1:]
    rec = Recorder()
    from sagad import cli, training

    if cli_args[:1] == ["--alloc"]:
        cli_args = cli_args[1:]
        rec.wrap(training, "train", "training.train", alloc_peak=True)
    else:
        install(rec)

    try:
        return cli.main(cli_args)
    finally:
        with open(out_path, "w", encoding="utf-8") as f:
            json.dump(rec.spans, f)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
