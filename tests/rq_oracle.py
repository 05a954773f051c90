"""The scalar max-RQ sampler, kept as the test oracle.

This is the per-node sampler the package used before the batched kernel
in ``sagad.context``: ``_pair_energy`` rebuilds each ego-net's local
weight matrix, ``_exhaustive_subgraph`` enumerates every subset and
``_greedy_subgraph`` recomputes every candidate's gain per step.  The
package must choose the same subsets, so the tests compare it against
these functions node by node.  ``rayleigh_quotient`` is the energy ratio
the sampler maximizes, summed edge by edge over any subset.
"""

from __future__ import annotations

import numpy as np

from sagad.context import EXHAUSTIVE_DEGREE_LIMIT, DEFAULT_CANDIDATE_CAP, _SEED_DOMAIN_SAMPLER
from sagad.graph import GraphDataset


def rayleigh_quotient(subset: np.ndarray, dataset: GraphDataset) -> float:
    """trace(X^T L X) / trace(X^T X) on the induced subgraph.

    L is the unnormalized Laplacian of the subgraph induced by ``subset``;
    feature rows are restricted to the subset.  Returns 0 when the feature
    energy (denominator) is zero.
    """
    subset = np.asarray(subset, dtype=np.int64)
    if subset.size == 0:
        raise ValueError("rayleigh_quotient: subset must be non-empty")
    members = set(int(i) for i in subset)
    x = np.asarray(dataset.features, dtype=np.float64)
    den = float(np.sum(x[subset] ** 2))
    if den == 0.0:
        return 0.0
    adj = dataset.adjacency
    num = 0.0
    for i in members:
        for j in adj.neighbors(i):
            j = int(j)
            if j in members and j > i:  # each undirected edge once
                diff = x[i] - x[j]
                num += float(diff @ diff)
    return num / den


def max_rq_subgraph(
    node: int,
    dataset: GraphDataset,
    hop: int = 1,
    cap: int = DEFAULT_CANDIDATE_CAP,
    seed: int = 0,
    branch: str = "auto",
) -> np.ndarray:
    """Subset of {node} + 1-hop neighbors maximizing the Rayleigh Quotient.

    Candidates above ``cap`` are uniformly subsampled with a per-node seeded
    stream.  Degree <= 10 is solved exactly by enumerating every subset
    containing the node; larger candidate sets use greedy marginal gain
    (ties broken by smallest node id, stop when no strict improvement).
    ``branch`` forces "exhaustive" or "greedy" for testing.
    """
    if hop != 1:
        raise ValueError("only 1-hop subgraph extraction is supported")
    n = dataset.num_nodes
    if node < 0 or node >= n:
        raise ValueError(f"node id {node} out of range [0, {n})")
    if branch not in ("auto", "exhaustive", "greedy"):
        raise ValueError(f"unknown branch {branch!r}")

    neighbors = dataset.adjacency.neighbors(node)
    if len(neighbors) > cap:
        rng = np.random.default_rng(np.random.SeedSequence([_SEED_DOMAIN_SAMPLER, seed, node]))
        neighbors = np.sort(rng.choice(neighbors, size=cap, replace=False))
    if len(neighbors) == 0:
        return np.asarray([node], dtype=np.int64)

    if branch == "exhaustive" or (branch == "auto" and len(neighbors) <= EXHAUSTIVE_DEGREE_LIMIT):
        return _exhaustive_subgraph(node, neighbors, dataset)
    return _greedy_subgraph(node, neighbors, dataset)


def _pair_energy(node: int, others: np.ndarray, dataset: GraphDataset) -> tuple[np.ndarray, np.ndarray]:
    """Local adjacency weights w_ij = a_ij * ||x_i - x_j||^2 and node energies."""
    ids = np.concatenate([[node], others]).astype(np.int64)
    x = np.asarray(dataset.features[ids], dtype=np.float64)
    m = len(ids)
    pos = {int(v): i for i, v in enumerate(ids)}
    w = np.zeros((m, m))
    adj = dataset.adjacency
    for local_i, global_i in enumerate(ids):
        for global_j in adj.neighbors(int(global_i)):
            local_j = pos.get(int(global_j))
            if local_j is not None and local_j > local_i:
                diff = x[local_i] - x[local_j]
                val = float(diff @ diff)
                w[local_i, local_j] = val
                w[local_j, local_i] = val
    energies = np.sum(x**2, axis=1)
    return w, energies


def _exhaustive_subgraph(node: int, neighbors: np.ndarray, dataset: GraphDataset) -> np.ndarray:
    w, energies = _pair_energy(node, neighbors, dataset)
    k = len(neighbors)
    masks = np.arange(2**k, dtype=np.uint32)
    # membership matrix over neighbors; the center node is always in.
    member = ((masks[:, None] >> np.arange(k, dtype=np.uint32)) & 1).astype(np.float64)
    member = np.concatenate([np.ones((len(masks), 1)), member], axis=1)
    num = 0.5 * np.einsum("si,ij,sj->s", member, w, member)
    den = member @ energies
    with np.errstate(invalid="ignore", divide="ignore"):
        rq = np.where(den > 0, num / den, 0.0)
    # argmax returns the first (smallest) mask attaining the maximum; mask 0
    # is the singleton {node}, so an all-tied landscape keeps the node alone.
    best = int(np.argmax(rq))
    chosen = [node] + [int(neighbors[i]) for i in range(k) if (best >> i) & 1]
    return np.asarray(sorted(chosen), dtype=np.int64)


def _greedy_subgraph(node: int, neighbors: np.ndarray, dataset: GraphDataset) -> np.ndarray:
    w, energies = _pair_energy(node, neighbors, dataset)
    k = len(neighbors)
    in_set = np.zeros(k + 1, dtype=bool)
    in_set[0] = True
    num = 0.0
    den = energies[0]
    cur_rq = num / den if den > 0 else 0.0
    remaining = list(range(1, k + 1))
    while remaining:
        best_rq = cur_rq
        best_local = None
        best_num = best_den = 0.0
        for local in remaining:
            cand_num = num + float(w[local] @ in_set)
            cand_den = den + energies[local]
            cand_rq = cand_num / cand_den if cand_den > 0 else 0.0
            # strict improvement; ties resolved by smallest node id, which
            # is the enumeration order since neighbor lists are sorted.
            if cand_rq > best_rq:
                best_rq = cand_rq
                best_local = local
                best_num, best_den = cand_num, cand_den
        if best_local is None:
            break
        in_set[best_local] = True
        remaining.remove(best_local)
        num, den, cur_rq = best_num, best_den, best_rq
    ids = np.concatenate([[node], neighbors]).astype(np.int64)
    return np.asarray(sorted(int(i) for i in ids[in_set]), dtype=np.int64)


def context_rows(dataset: GraphDataset, cap: int = DEFAULT_CANDIDATE_CAP, seed: int = 0):
    """Context rows and subgraph sizes as the per-node loop built them."""
    x = np.asarray(dataset.features, dtype=np.float64)
    context = np.empty_like(x)
    sizes = np.empty(dataset.num_nodes, dtype=np.int64)
    for v in range(dataset.num_nodes):
        subset = max_rq_subgraph(v, dataset, cap=cap, seed=seed)
        context[v] = x[subset].mean(axis=0)
        sizes[v] = len(subset)
    return np.ascontiguousarray(context, dtype=np.float32), sizes
