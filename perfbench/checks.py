"""Output checks on a sagad run directory, independent of the sagad package.

Every function returns a list of failure messages; an empty list means
the output passed.  The readers here parse the documented on-disk
formats directly so that a bug in sagad's own readers cannot hide a bug
in its writers.
"""

from __future__ import annotations

import hashlib
import io
import os

import numpy as np
from scipy.stats import rankdata

CHEB_HEADER_BYTES = 28
CONTEXT_HEADER_BYTES = 24
NUMPY_REPR = "np.float64("


def sha256(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for block in iter(lambda: f.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def auroc(scores: np.ndarray, labels: np.ndarray) -> float:
    """Mann-Whitney AUROC with tied pairs counted as one half."""
    labels = np.asarray(labels)
    ranks = rankdata(np.asarray(scores, dtype=np.float64), method="average")
    n_pos = int(np.sum(labels == 1))
    n_neg = len(labels) - n_pos
    return float((ranks[labels == 1].sum() - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg))


def file_size(path: str, expected: int) -> list[str]:
    if not os.path.exists(path):
        return [f"{os.path.basename(path)} missing"]
    size = os.path.getsize(path)
    if size != expected:
        return [f"{os.path.basename(path)} is {size} bytes, expected {expected}"]
    return []


def nonempty(path: str) -> list[str]:
    if not os.path.exists(path) or os.path.getsize(path) == 0:
        return [f"{os.path.basename(path)} missing or empty"]
    return []


def cheb_cache(path: str, n: int, d: int, order: int) -> list[str]:
    return file_size(path, CHEB_HEADER_BYTES + (order + 1) * n * d * 4)


def context_sizes(path: str, n: int, d: int) -> np.ndarray:
    """The per-node subgraph sizes stored after the pooled features."""
    with open(path, "rb") as f:
        f.seek(CONTEXT_HEADER_BYTES + n * d * 4)
        return np.frombuffer(f.read(n * 4), dtype="<u4").astype(np.int64)


def context_cache(path: str, n: int, d: int, degree: np.ndarray, mode: str, cap: int) -> list[str]:
    """Exact size, then each node's subgraph size: within [1, min(deg, cap) + 1]
    for the RQ sampler, exactly deg + 1 for the full 1-hop pool."""
    problems = file_size(path, CONTEXT_HEADER_BYTES + n * d * 4 + n * 4)
    if problems:
        return problems
    sizes = context_sizes(path, n, d)
    if mode == "rq":
        bad = (sizes < 1) | (sizes > np.minimum(degree, cap) + 1)
    else:
        bad = sizes != degree + 1
    if np.any(bad):
        i = int(np.argmax(bad))
        return [f"context subgraph size {sizes[i]} at node {i} (degree {degree[i]}) "
                f"outside the {mode} rule; {int(bad.sum())} nodes"]
    return []


def read_scores(path: str, n: int) -> tuple[np.ndarray | None, int, list[str]]:
    """scores_<k>.csv: header, then n rows `node_id,score` in id order,
    every score finite and in [0, 1].

    Also returns how many scores are written as ``np.float64(<repr>)``,
    which is what the score writer's ``repr`` gives under numpy >= 2.  The
    number inside is still the exact value, so it is read and the count is
    reported as a format defect; anything else that is not a number fails.
    """
    name = os.path.basename(path)
    if not os.path.exists(path):
        return None, 0, [f"{name} missing"]
    with open(path, encoding="utf-8") as f:
        text = f.read()
    wrapped = text.count(NUMPY_REPR)
    if wrapped:
        text = text.replace(NUMPY_REPR, "").replace(")\n", "\n")
    try:
        table = np.loadtxt(io.StringIO(text), delimiter=",", skiprows=1, ndmin=2)
    except ValueError as exc:
        return None, wrapped, [f"{name} unreadable: {exc}"]
    if table.shape != (n, 2):
        return None, wrapped, [f"{name} has shape {table.shape}, expected ({n}, 2)"]
    if not np.array_equal(table[:, 0], np.arange(n)):
        return None, wrapped, [f"{name} node ids are not 0..n-1 in order"]
    scores = table[:, 1]
    if not np.all(np.isfinite(scores)) or scores.min() < 0.0 or scores.max() > 1.0:
        return None, wrapped, [f"{name} has scores that are non-finite or outside [0, 1]"]
    return scores, wrapped, []


def read_report(path: str) -> dict[int, dict[str, float]]:
    out: dict[int, dict[str, float]] = {}
    if not os.path.exists(path):
        return out
    with open(path, encoding="utf-8") as f:
        next(f, None)
        for line in f:
            split, name, value = line.rstrip("\n").split(",")
            out.setdefault(int(split), {})[name] = float(value)
    return out


def report_auroc(report: dict[int, dict[str, float]], split: int, scores: np.ndarray,
                 labels: np.ndarray, test_ids: np.ndarray, rel_tol: float = 1e-9) -> list[str]:
    """The AUROC in report.csv equals one recomputed from the scores."""
    row = report.get(split, {})
    if "auroc" not in row or "auprc" not in row:
        return [f"report.csv has no auroc/auprc row for split {split}"]
    expected = auroc(scores[test_ids], labels[test_ids])
    if abs(row["auroc"] - expected) > rel_tol * max(1.0, abs(expected)):
        return [f"split {split}: report.csv AUROC {row['auroc']!r} != recomputed {expected!r}"]
    return []
