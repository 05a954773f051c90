"""Ranking metrics and the homophily-disparity report.

All functions are pure and operate on plain arrays.  Tie handling:
AUROC gives tied pairs half credit (rank statistic with midranks);
average precision and Rec@K order ties by ascending node id, which makes
results reproducible and is recorded in report metadata.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

TIE_POLICY = "auroc=half-credit; ap,rec@k=stable node-id order"


@dataclass
class EvalReport:
    auroc: float
    auprc: float
    rec_at_k: float
    k_used: int


@dataclass
class QuartileReport:
    """Per-quartile metrics over test anomalies grouped by node homophily.

    Q1 holds the top-25% homophily anomalies.  Each quartile is scored
    against all test normals; gaps are Q1 minus the other quartiles.
    """

    auprc: list[float]
    auroc: list[float]
    sizes: list[int]
    auprc_gaps: list[float]  # Q1-Q2, Q1-Q3, Q1-Q4
    auroc_gaps: list[float]


def _check_binary(labels: np.ndarray) -> np.ndarray:
    y = np.asarray(labels)
    if y.ndim != 1:
        raise ValueError("labels must be a 1-d array")
    if not np.all(np.isin(y, (0, 1))):
        raise ValueError("labels must be binary 0/1")
    return y


def auroc(scores: np.ndarray, labels: np.ndarray) -> float:
    """Probability that a random positive outranks a random negative.

    Computed from midranks, so tied pairs count 0.5; this equals the
    brute-force average over all positive-negative pairs.
    """
    y = _check_binary(labels)
    s = np.asarray(scores, dtype=np.float64)
    n_pos = int(np.sum(y == 1))
    n_neg = int(np.sum(y == 0))
    if n_pos == 0 or n_neg == 0:
        raise ValueError("auroc requires both classes present")
    ranks = _midranks(s)
    rank_sum = float(np.sum(ranks[y == 1]))
    return (rank_sum - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg)


def _midranks(scores: np.ndarray, order: np.ndarray | None = None) -> np.ndarray:
    """1-based ranks, tied runs sharing their average; ``order`` is the
    stable ascending argsort of ``scores`` when the caller already has it."""
    n = len(scores)
    if order is None:
        order = np.argsort(scores, kind="stable")
    s = scores[order]
    boundaries = np.nonzero(np.diff(s))[0] + 1
    starts = np.concatenate([[0], boundaries])
    ends = np.concatenate([boundaries, [n]])
    group_rank = (starts + ends - 1) / 2.0 + 1.0  # 1-based average rank
    group_of = np.repeat(np.arange(len(starts)), ends - starts)
    ranks = np.empty(n)
    ranks[order] = group_rank[group_of]
    return ranks


def _descending_order(scores: np.ndarray) -> np.ndarray:
    # stable sort on negated scores keeps ascending node-id order inside ties
    return np.argsort(-np.asarray(scores, dtype=np.float64), kind="stable")


def average_precision(scores: np.ndarray, labels: np.ndarray) -> float:
    """Area under the precision-recall curve via average precision."""
    y = _check_binary(labels)
    n_pos = int(np.sum(y == 1))
    if n_pos == 0:
        raise ValueError("average_precision requires at least one positive")
    order = _descending_order(scores)
    hits = (y[order] == 1).astype(np.float64)
    cum_hits = np.cumsum(hits)
    precision_at = cum_hits / np.arange(1, len(y) + 1)
    return float(np.sum(precision_at * hits) / n_pos)


def rec_at_k(scores: np.ndarray, labels: np.ndarray, k: int | None = None) -> float:
    """Fraction of positives among the k highest-scored nodes.

    k defaults to the number of positives in ``labels``.
    """
    y = _check_binary(labels)
    n_pos = int(np.sum(y == 1))
    if n_pos == 0:
        raise ValueError("rec_at_k requires at least one positive")
    if k is None:
        k = n_pos
    if k <= 0:
        raise ValueError(f"k must be positive, got {k}")
    order = _descending_order(scores)
    top = order[: min(k, len(y))]
    return float(np.sum(y[top] == 1) / n_pos)


def _descending_from_ascending(s: np.ndarray, asc: np.ndarray) -> np.ndarray:
    """``_descending_order(s)`` from a stable ascending order of ``s``.

    Runs of equal scores swap places (the highest run first) and keep
    their ascending node-id order inside; NaNs, each a run of its own,
    stay last, where both sorts put them.
    """
    n = len(asc)
    sa = s[asc]
    starts = np.flatnonzero(np.concatenate([[True], sa[1:] != sa[:-1]]))
    lengths = np.diff(np.append(starts, n))
    f = n - int(np.count_nonzero(np.isnan(sa)))
    new_starts = np.where(starts < f, f - starts - lengths, starts)
    desc = np.empty_like(asc)
    desc[np.arange(n) + np.repeat(new_starts - starts, lengths)] = asc
    return desc


def evaluate(scores: np.ndarray, labels: np.ndarray, k: int | None = None) -> EvalReport:
    """AUROC, AP and Rec@K from one sort of the scores.

    Bit for bit what ``auroc``, ``average_precision`` and ``rec_at_k``
    return, with the same errors in the same order; those three sort on
    their own.
    """
    y = _check_binary(labels)
    s = np.asarray(scores, dtype=np.float64)
    if s.shape != y.shape:
        raise ValueError(f"scores of shape {s.shape} do not match labels of shape {y.shape}")
    n_pos = int(np.sum(y == 1))
    n_neg = int(np.sum(y == 0))
    if n_pos == 0 or n_neg == 0:
        raise ValueError("auroc requires both classes present")
    k_used = n_pos if k is None else k
    if k_used <= 0:
        raise ValueError(f"k must be positive, got {k_used}")
    asc = np.argsort(s, kind="stable")
    rank_sum = float(np.sum(_midranks(s, asc)[y == 1]))
    order = _descending_from_ascending(s, asc)
    hits = (y[order] == 1).astype(np.float64)
    precision_at = np.cumsum(hits) / np.arange(1, len(y) + 1)
    return EvalReport(
        auroc=(rank_sum - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg),
        auprc=float(np.sum(precision_at * hits) / n_pos),
        rec_at_k=float(np.sum(y[order[: min(k_used, len(y))]] == 1) / n_pos),
        k_used=k_used,
    )


def quartile_report(
    scores: np.ndarray,
    labels: np.ndarray,
    node_homophily: np.ndarray,
    test_ids: np.ndarray,
) -> QuartileReport:
    """Metrics per homophily quartile of the test anomalies.

    Test anomalies with defined node homophily are sorted descending and
    cut into four equal-count groups (remainder goes to the earlier
    quartiles).  Each group is evaluated against all test normals.
    """
    test_ids = np.asarray(test_ids, dtype=np.int64)
    y = np.asarray(labels)
    h = np.asarray(node_homophily, dtype=np.float64)
    s = np.asarray(scores, dtype=np.float64)

    anom = test_ids[(y[test_ids] == 1) & ~np.isnan(h[test_ids])]
    normals = test_ids[y[test_ids] == 0]
    if len(anom) < 4:
        raise ValueError(
            f"need at least 4 test anomalies with defined homophily, got {len(anom)}"
        )
    if len(normals) == 0:
        raise ValueError("no test normals to score against")

    anom = anom[np.argsort(-h[anom], kind="stable")]
    base, rem = divmod(len(anom), 4)
    sizes = [base + (1 if q < rem else 0) for q in range(4)]
    groups = []
    start = 0
    for size in sizes:
        groups.append(anom[start : start + size])
        start += size

    auprcs, aurocs = [], []
    for group in groups:
        ids = np.concatenate([group, normals])
        grp_scores = s[ids]
        grp_labels = (y[ids] == 1).astype(np.int64)
        auprcs.append(average_precision(grp_scores, grp_labels))
        aurocs.append(auroc(grp_scores, grp_labels))

    return QuartileReport(
        auprc=auprcs,
        auroc=aurocs,
        sizes=sizes,
        auprc_gaps=[auprcs[0] - auprcs[q] for q in (1, 2, 3)],
        auroc_gaps=[aurocs[0] - aurocs[q] for q in (1, 2, 3)],
    )
