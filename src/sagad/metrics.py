"""Ranking metrics and the homophily-disparity report.

All functions are pure and operate on plain arrays, and all rank from
one stable descending sort of the scores.  Tie handling: AUROC gives
tied pairs half credit (rank statistic with midranks), infinite scores
included; average precision and Rec@K order ties by ascending node id,
which makes results reproducible and is recorded in report metadata.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import SplitError

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
    if not ((y == 0) | (y == 1)).all():
        raise ValueError("labels must be binary 0/1")
    return y


def _check_scores(scores: np.ndarray, y: np.ndarray) -> np.ndarray:
    """``scores`` as f64, one per label of ``y``; ValueError naming both
    shapes otherwise."""
    s = np.asarray(scores, dtype=np.float64)
    if s.shape != y.shape:
        raise ValueError(f"scores of shape {s.shape} do not match labels of shape {y.shape}")
    return s


def class_counts(labels: np.ndarray) -> tuple[int, int]:
    """Numbers of positives and negatives in binary ``labels``; SplitError
    unless both classes are present."""
    y = np.asarray(labels)
    n_pos = int(np.sum(y == 1))
    n_neg = int(np.sum(y == 0))
    if n_pos == 0 or n_neg == 0:
        raise SplitError("auroc requires both classes present")
    return n_pos, n_neg


def auroc(scores: np.ndarray, labels: np.ndarray) -> float:
    """Probability that a random positive outranks a random negative.

    Computed from midranks, so tied pairs count 0.5, infinities included;
    this equals the brute-force average over all positive-negative pairs.
    """
    y = _check_binary(labels)
    s = _check_scores(scores, y)
    n_pos, n_neg = class_counts(y)
    rank_sum = float(np.sum(_midranks(s, _descending_order(s))[y == 1]))
    return (rank_sum - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg)


def _descending_order(scores: np.ndarray) -> np.ndarray:
    # stable sort on negated scores keeps ascending node-id order inside
    # ties; NaNs go last, in node-id order, as an ascending sort puts them
    return np.argsort(-np.asarray(scores, dtype=np.float64), kind="stable")


def _midranks(s: np.ndarray, desc: np.ndarray) -> np.ndarray:
    """1-based ascending ranks of ``s``, tied runs sharing their average,
    read from its descending order ``desc`` (``_descending_order(s)``).

    A run of equal scores (found with ``!=``, so each NaN is a run of its
    own) at average position m from the top ranks ``v + 1 - m`` among
    the v non-NaN scores; the NaNs, last in both orders, keep their
    positions.
    """
    n = len(desc)
    sd = s[desc]
    v = n - int(np.count_nonzero(np.isnan(sd)))
    starts = np.flatnonzero(np.concatenate([[True], sd[1:] != sd[:-1]]))
    del sd
    lengths = np.diff(starts, append=n)
    # each run's first position in ascending order, then its average rank
    group_rank = np.where(starts < v, v - starts - lengths, starts) + (lengths - 1) / 2.0 + 1.0
    del starts
    ranks = np.empty(n)
    ranks[desc] = np.repeat(group_rank, lengths)
    return ranks


def average_precision(scores: np.ndarray, labels: np.ndarray) -> float:
    """Area under the precision-recall curve via average precision."""
    y = _check_binary(labels)
    s = _check_scores(scores, y)
    n_pos = np.count_nonzero(y == 1)
    if n_pos == 0:
        raise ValueError("average_precision requires at least one positive")
    order = _descending_order(s)
    hits = (y[order] == 1).astype(np.float64)
    precision_at = hits.cumsum() / np.arange(1, len(y) + 1)
    return float(np.add.reduce(precision_at * hits) / n_pos)


def rec_at_k(scores: np.ndarray, labels: np.ndarray, k: int | None = None) -> float:
    """Fraction of positives among the k highest-scored nodes.

    k defaults to the number of positives in ``labels``.
    """
    y = _check_binary(labels)
    s = _check_scores(scores, y)
    n_pos = int(np.sum(y == 1))
    if n_pos == 0:
        raise ValueError("rec_at_k requires at least one positive")
    if k is None:
        k = n_pos
    if k <= 0:
        raise ValueError(f"k must be positive, got {k}")
    order = _descending_order(s)
    top = order[: min(k, len(y))]
    return float(np.sum(y[top] == 1) / n_pos)


def evaluate(scores: np.ndarray, labels: np.ndarray, k: int | None = None) -> EvalReport:
    """AUROC, AP and Rec@K from one sort of the scores.

    Bit for bit what ``auroc``, ``average_precision`` and ``rec_at_k``
    return, with the same errors in the same order; each of those three
    takes the same ``_descending_order`` on its own.
    """
    y = _check_binary(labels)
    s = _check_scores(scores, y)
    n_pos, n_neg = class_counts(y)
    k_used = n_pos if k is None else k
    if k_used <= 0:
        raise ValueError(f"k must be positive, got {k_used}")
    order = _descending_order(s)
    rank_sum = float(np.sum(_midranks(s, order)[y == 1]))
    hits = (y[order] == 1).astype(np.float64)
    precision_at = np.cumsum(hits) / np.arange(1, len(y) + 1)
    return EvalReport(
        auroc=(rank_sum - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg),
        auprc=float(np.sum(precision_at * hits) / n_pos),
        rec_at_k=float(np.sum(y[order[: min(k_used, len(y))]] == 1) / n_pos),
        k_used=k_used,
    )


def quartile_groups(labels: np.ndarray, node_homophily: np.ndarray,
                    test_ids: np.ndarray) -> tuple[list[np.ndarray], np.ndarray]:
    """The four homophily quartiles of the test anomalies, and the test normals.

    Test anomalies with defined node homophily are sorted descending and
    cut into four equal-count groups (remainder goes to the earlier
    quartiles).  SplitError when there are fewer than 4 of them or no
    test normals.
    """
    test_ids = np.asarray(test_ids, dtype=np.int64)
    y = np.asarray(labels)
    h = np.asarray(node_homophily, dtype=np.float64)
    anom = test_ids[(y[test_ids] == 1) & ~np.isnan(h[test_ids])]
    normals = test_ids[y[test_ids] == 0]
    if len(anom) < 4:
        raise SplitError(
            f"need at least 4 test anomalies with defined homophily, got {len(anom)}"
        )
    if len(normals) == 0:
        raise SplitError("no test normals to score against")

    anom = anom[np.argsort(-h[anom], kind="stable")]
    base, rem = divmod(len(anom), 4)
    cuts = np.cumsum([base + (1 if q < rem else 0) for q in range(3)])
    return np.split(anom, cuts), normals


def quartile_report(
    scores: np.ndarray,
    labels: np.ndarray,
    node_homophily: np.ndarray,
    test_ids: np.ndarray,
) -> QuartileReport:
    """Metrics per homophily quartile of the test anomalies (see
    ``quartile_groups``); each group is evaluated against all test normals."""
    groups, normals = quartile_groups(labels, node_homophily, test_ids)
    y = np.asarray(labels)
    s = np.asarray(scores, dtype=np.float64)
    auprcs, aurocs = [], []
    for group in groups:
        ids = np.concatenate([group, normals])
        report = evaluate(s[ids], (y[ids] == 1).astype(np.int64))
        auprcs.append(report.auprc)
        aurocs.append(report.auroc)
    return QuartileReport(
        auprc=auprcs,
        auroc=aurocs,
        sizes=[len(g) for g in groups],
        auprc_gaps=[auprcs[0] - auprcs[q] for q in (1, 2, 3)],
        auroc_gaps=[aurocs[0] - aurocs[q] for q in (1, 2, 3)],
    )
