"""The package's batched max-RQ kernel run on one node.

``build_context_cache`` runs the kernel on every node at once and picks
the search by candidate count.  ``max_rq_subgraph`` here runs the same
``sagad.context`` functions on one node, and ``branch`` forces
"exhaustive" or "greedy", so the tests can compare each search with
``rq_oracle`` node by node.
"""

from __future__ import annotations

import numpy as np

from sagad.context import (
    DEFAULT_CANDIDATE_CAP,
    EXHAUSTIVE_DEGREE_LIMIT,
    _candidates,
    _local_weights,
    _oriented_edges,
    _select,
)
from sagad.graph import GraphDataset


def max_rq_subgraph(node: int, dataset: GraphDataset, cap: int = DEFAULT_CANDIDATE_CAP,
                    seed: int = 0, branch: str = "auto") -> np.ndarray:
    """Sorted ids of the subset the kernel chooses for ``node``."""
    adj = dataset.adjacency
    k = min(len(adj.neighbors(node)), cap)
    ids = _candidates(adj, np.asarray([node]), k, cap, seed)
    exhaustive = branch == "exhaustive" or (branch == "auto" and k <= EXHAUSTIVE_DEGREE_LIMIT)
    x = np.asarray(dataset.features, dtype=np.float64)
    present = np.zeros(dataset.num_nodes, dtype=bool)  # _local_weights' scratch flags
    w = _local_weights(ids, _oriented_edges(adj, x), present)
    in_set = _select(w, np.sum(x[ids] ** 2, axis=2), exhaustive)
    return np.sort(ids[in_set])
