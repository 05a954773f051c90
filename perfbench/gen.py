"""Degree-corrected two-class graph generator for the benchmark workloads.

The edge rule is the CSBM per-node rule: an unordered pair (i, j) is
joined at rate theta_i theta_j (B(h_i) + B(h_j)) / 2, where h_i says
whether node i is homophilic (B favours its own class) or heterophilic
(B favours the other class).  Each node i draws its half of that rate,
theta_i B(h_i)[same|cross] Theta_c / 2 edges towards class c, as a
Poisson count, and picks each partner with probability proportional to
theta_j inside class c (Chung-Lu style).  Duplicate pairs are merged and
self-loops dropped.  Cost is linear in n + m apart from one binary
search per drawn endpoint; no n x n array is ever formed.

This module is independent of ``sagad`` on purpose: the benchmark's
inputs must not change when the package's own CSBM lab changes.
"""

from __future__ import annotations

import json
import os
import struct
from dataclasses import asdict, dataclass

import numpy as np

FEATURES_MAGIC = b"SGFEAT01"
# the RQ sampler enumerates neighbourhoods up to this size exactly
EXHAUSTIVE_LIMIT = 10
_SEED_DOMAIN = 0xB3C4


@dataclass(frozen=True)
class GraphSpec:
    n: int
    dim: int = 32
    anomaly_frac: float = 0.05
    hetero_frac: float = 0.3
    mean_degree: float = 16.0
    pareto_shape: float = 1.8
    theta_cap: float = 20.0
    # relative pair rates; (same class, other class) per regime
    homophilic_rates: tuple[float, float] = (1.0, 0.1)
    heterophilic_rates: tuple[float, float] = (0.1, 1.0)
    mean_gap: float = 0.8
    num_splits: int = 3
    labeled_anomalies: int = 20
    labeled_normals: int = 80


@dataclass
class Graph:
    labels: np.ndarray  # int8, 1 = anomaly
    regimes: np.ndarray  # int8, 1 = heterophilic
    features: np.ndarray  # (n, d) float32
    edges: np.ndarray  # (m, 2) int64, u < v, sorted, unique
    splits: list[dict[str, np.ndarray]]


def _capped_pareto(rng: np.random.Generator, size: int, shape: float, cap: float) -> np.ndarray:
    return np.minimum((1.0 - rng.random(size)) ** (-1.0 / shape), cap)


def generate(spec: GraphSpec, seed: int) -> Graph:
    n = spec.n
    streams = np.random.SeedSequence([_SEED_DOMAIN, seed]).spawn(4)
    rng_nodes, rng_feat, rng_edges, rng_splits = [np.random.default_rng(s) for s in streams]

    n_a = int(round(spec.anomaly_frac * n))
    labels = np.zeros(n, dtype=np.int8)
    labels[rng_nodes.permutation(n)[:n_a]] = 1
    regimes = np.zeros(n, dtype=np.int8)
    regimes[rng_nodes.permutation(n)[: int(round(spec.hetero_frac * n))]] = 1

    theta = _capped_pareto(rng_nodes, n, spec.pareto_shape, spec.theta_cap)
    for cls in (0, 1):
        mask = labels == cls
        theta[mask] /= theta[mask].mean()

    # rates[i, c]: node i's relative rate towards class c
    rule = np.array([spec.homophilic_rates, spec.heterophilic_rates])  # [regime, same/cross]
    rates = np.empty((n, 2))
    for c in (0, 1):
        rates[:, c] = rule[regimes, (labels != c).astype(np.int64)]
    class_theta = np.array([theta[labels == c].sum() for c in (0, 1)])
    half = 0.5 * theta[:, None] * rates * class_theta[None, :]  # (n, 2) draws per class
    # every drawn edge has two endpoints, so the degree sum is twice the draws
    scale = spec.mean_degree * n / (2.0 * half.sum())

    sources, targets = [], []
    for c in (0, 1):
        members = np.nonzero(labels == c)[0]
        counts = rng_edges.poisson(scale * half[:, c])
        src = np.repeat(np.arange(n, dtype=np.int64), counts)
        cum = np.cumsum(theta[members])
        pick = np.searchsorted(cum, rng_edges.random(len(src)) * cum[-1], side="right")
        sources.append(src)
        targets.append(members[np.minimum(pick, len(members) - 1)])
    u = np.concatenate(sources)
    v = np.concatenate(targets)
    keep = u != v
    lo = np.minimum(u[keep], v[keep])
    hi = np.maximum(u[keep], v[keep])
    key = np.sort(lo * n + hi)
    key = key[np.concatenate([[True], key[1:] != key[:-1]])]
    edges = np.stack([key // n, key % n], axis=1)

    direction = np.ones(spec.dim) / np.sqrt(spec.dim)
    centers = np.stack([0.5 * spec.mean_gap * direction, -0.5 * spec.mean_gap * direction])
    noise = rng_feat.standard_normal((n, spec.dim)) / np.sqrt(spec.dim)
    features = (centers[labels] + noise).astype(np.float32)

    return Graph(labels, regimes, features, edges, _splits(spec, labels, rng_splits))


def _splits(spec: GraphSpec, labels: np.ndarray, rng: np.random.Generator):
    """Limited-supervision splits: a fixed labeled budget halved into
    train and val; every other node is test."""
    anom = np.nonzero(labels == 1)[0]
    norm = np.nonzero(labels == 0)[0]
    ha, hn = spec.labeled_anomalies // 2, spec.labeled_normals // 2
    out = []
    for _ in range(spec.num_splits):
        pick_a = rng.choice(anom, size=spec.labeled_anomalies, replace=False)
        pick_n = rng.choice(norm, size=spec.labeled_normals, replace=False)
        train = np.sort(np.concatenate([pick_a[:ha], pick_n[:hn]]))
        val = np.sort(np.concatenate([pick_a[ha:], pick_n[hn:]]))
        test = np.ones(len(labels), dtype=bool)
        test[train] = False
        test[val] = False
        out.append({"train": train, "val": val, "test": np.nonzero(test)[0]})
    return out


# ---------------------------------------------------------------------------
# Dataset directory writer (meta.json, edges.tsv, features.bin, labels.csv,
# splits.json), vectorized so a 200k-node graph writes in well under a second
# ---------------------------------------------------------------------------


def ascii_rows(columns: list[np.ndarray], seps: list[bytes]) -> bytes:
    """Decimal text of non-negative integer columns, ``seps[k]`` after column k."""
    pieces, masks = [], []
    rows = len(columns[0])
    for col, sep in zip(columns, seps):
        col = np.asarray(col, dtype=np.int64)
        width = len(str(int(col.max()))) if rows else 1
        powers = 10 ** np.arange(width - 1, -1, -1, dtype=np.int64)
        pieces.append(((col[:, None] // powers) % 10 + ord("0")).astype(np.uint8))
        ndig = 1 + np.sum(col[:, None] >= powers[:-1][None, :], axis=1)
        masks.append(np.arange(width)[None, :] >= (width - ndig)[:, None])
        pieces.append(np.full((rows, 1), ord(sep), dtype=np.uint8))
        masks.append(np.ones((rows, 1), dtype=bool))
    return np.concatenate(pieces, axis=1)[np.concatenate(masks, axis=1)].tobytes()


def _json_ids(ids: np.ndarray) -> str:
    return "[" + ",".join(map(str, ids.tolist())) + "]"


def write_dataset(graph: Graph, directory: str, name: str) -> None:
    os.makedirs(directory, exist_ok=True)
    n, d = graph.features.shape
    with open(os.path.join(directory, "meta.json"), "w", encoding="utf-8") as f:
        json.dump({"name": name, "num_nodes": n, "num_features": d}, f, sort_keys=True)
    with open(os.path.join(directory, "edges.tsv"), "wb") as f:
        f.write(ascii_rows([graph.edges[:, 0], graph.edges[:, 1]], [b"\t", b"\n"]))
    with open(os.path.join(directory, "features.bin"), "wb") as f:
        f.write(FEATURES_MAGIC + struct.pack("<QQ", n, d))
        f.write(np.ascontiguousarray(graph.features, dtype="<f4").tobytes())
    with open(os.path.join(directory, "labels.csv"), "wb") as f:
        f.write(ascii_rows([np.arange(n), graph.labels], [b",", b"\n"]))
    with open(os.path.join(directory, "splits.json"), "w", encoding="utf-8") as f:
        f.write(
            "["
            + ",".join(
                "{" + ",".join(f'"{k}":{_json_ids(s[k])}' for k in ("train", "val", "test")) + "}"
                for s in graph.splits
            )
            + "]"
        )


def degrees(graph: Graph) -> np.ndarray:
    return np.bincount(graph.edges.ravel(), minlength=len(graph.labels))


def input_stats(spec: GraphSpec, graph: Graph, cap: int = 64) -> dict:
    """What the generated input looks like, for the benchmark record."""
    n = len(graph.labels)
    deg = degrees(graph)
    u, v = graph.edges[:, 0], graph.edges[:, 1]
    same = (graph.labels[u] == graph.labels[v]).astype(np.float64)
    agree = np.bincount(u, weights=same, minlength=n) + np.bincount(v, weights=same, minlength=n)
    has = deg > 0
    node_h = np.where(has, agree / np.maximum(deg, 1), np.nan)
    qs = (0.0, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 1.0)
    return {
        "spec": asdict(spec),
        "n": n,
        "m": int(len(graph.edges)),
        "anomalies": int(graph.labels.sum()),
        "heterophilic_nodes": int(graph.regimes.sum()),
        "mean_degree": float(deg.mean()),
        "degree_quantiles": {str(q): float(np.quantile(deg, q)) for q in qs},
        "isolated_share": float(np.mean(deg == 0)),
        "exhaustive_share": float(np.mean((deg >= 1) & (deg <= EXHAUSTIVE_LIMIT))),
        "greedy_share": float(np.mean(deg > EXHAUSTIVE_LIMIT)),
        "capped_share": float(np.mean(deg > cap)),
        "edge_homophily": float(same.mean()),
        "class_homophily_anomaly": float(np.nanmean(node_h[graph.labels == 1])),
        "class_homophily_normal": float(np.nanmean(node_h[graph.labels == 0])),
    }
