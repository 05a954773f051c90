"""Per-node max-Rayleigh-Quotient subgraph extraction and context caching.

For every node we pick, among its 1-hop candidates, the induced subgraph
with the largest Rayleigh Quotient (spectral energy of the feature signal
on that subgraph), then cache the mean-pooled features of that subgraph.
Small neighborhoods are solved exactly by enumeration; larger ones use a
greedy marginal-gain search over a capped, seeded candidate sample.  One
batched kernel solves all nodes with the same candidate count at once.
"""

from __future__ import annotations

import functools
import os
from dataclasses import dataclass, field

import numpy as np

from .cachefile import BinaryFormat, CacheFile, CacheRows, FileBacked
from .errors import CacheFormatError
from .graph import GraphDataset

# header: u64 n, u64 d; then the (n, d) f32 context rows and n u32 subgraph sizes
CONTEXT_FORMAT = BinaryFormat(b"SGCTX001", "<QQ", "context cache")

EXHAUSTIVE_DEGREE_LIMIT = 10
DEFAULT_CANDIDATE_CAP = 64

_SEED_DOMAIN_SAMPLER = 0x5C1


@dataclass
class ContextCache(FileBacked):
    """Mean-pooled features of each node's max-RQ subgraph.

    ``context`` is an ndarray when built, or ``CacheRows`` over the open
    ``file`` when read from disk; ``subgraph_size`` is always in memory,
    as the u32 the file stores when read from disk.
    """

    num_nodes: int
    dim: int
    context: np.ndarray | CacheRows
    subgraph_size: np.ndarray
    file: CacheFile | None = field(default=None, repr=False, compare=False)

    def validate(self) -> None:
        if self.context.shape != (self.num_nodes, self.dim):
            raise CacheFormatError(f"context has shape {self.context.shape}")
        if self.subgraph_size.shape != (self.num_nodes,):
            raise CacheFormatError("subgraph_size must be one entry per node")
        if self.num_nodes and self.subgraph_size.min() < 1:
            raise CacheFormatError("subgraph sizes must be >= 1")


# A chunk holds about this many values: B*(k+1)^2 local weights, B*2^k
# subsets and B*d pooled features for B nodes, or edges*d differences.
# Nothing of size n*cap is formed: the sampler needs O(n*d + m) memory.
_CHUNK_VALUES = 1 << 16
_NEAR_TIE = 1e-12  # relative band of near-ties the exhaustive search re-ranks exactly


def _chunks(total: int, values_per_item: int):
    step = max(1, _CHUNK_VALUES // max(values_per_item, 1))
    return (slice(lo, lo + step) for lo in range(0, total, step))


def _edge_energies(adj, x: np.ndarray, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Sorted keys row*n + col of the CSR entries of ``rows``, and ||x_row - x_col||^2."""
    offsets = adj.row_offsets
    counts = offsets[rows + 1] - offsets[rows]
    entries = np.repeat(offsets[rows] - np.cumsum(counts) + counts, counts)
    dst = adj.col_indices[entries + np.arange(len(entries))]
    src = np.repeat(rows, counts)
    energy = np.empty(len(src))
    for s in _chunks(len(src), x.shape[1]):
        diff = x[src[s]] - x[dst[s]]
        # one BLAS dot per edge, as `diff @ diff` takes it
        energy[s] = np.matmul(diff[:, None, :], diff[:, :, None])[:, 0, 0]
    src *= adj.num_nodes
    src += dst
    return src, energy


def _candidates(adj, nodes: np.ndarray, k: int, cap: int, seed: int) -> np.ndarray:
    """(B, k+1) ids: each node (all with min(degree, cap) == k), then its
    sorted candidates; above the cap, a seeded sample of ``cap`` neighbors."""
    starts = adj.row_offsets[nodes]
    ids = np.empty((len(nodes), k + 1), dtype=np.int64)
    ids[:, 0] = nodes
    ids[:, 1:] = adj.col_indices[starts[:, None] + np.arange(k)]
    for i in np.flatnonzero(adj.row_offsets[nodes + 1] - starts > cap):
        node = int(nodes[i])
        rng = np.random.default_rng(np.random.SeedSequence([_SEED_DOMAIN_SAMPLER, seed, node]))
        ids[i, 1:] = np.sort(rng.choice(adj.neighbors(node), size=cap, replace=False))
    return ids


def _ratio(num: np.ndarray, den: np.ndarray) -> np.ndarray:
    return np.divide(num, den, out=np.zeros_like(num), where=den > 0)


@functools.lru_cache(maxsize=EXHAUSTIVE_DEGREE_LIMIT + 1)
def _subset_tables(k: int) -> tuple[np.ndarray, np.ndarray]:
    """Membership of the node and its k candidates in each of the 2^k
    subsets (bit i of s = candidate i), and of each local pair."""
    member = np.ones((2**k, k + 1))
    member[:, 1:] = (np.arange(2**k)[:, None] >> np.arange(k)) & 1
    iu, ju = np.triu_indices(k + 1, 1)
    tables = member, member[:, iu] * member[:, ju]
    for table in tables:
        table.flags.writeable = False  # shared by every caller
    return tables


def _select(ids, node_energy, keys, energy, n: int, exhaustive: bool) -> np.ndarray:
    """(B, k+1) membership of each node's max-RQ subset (column 0: the node)."""
    b, k1 = ids.shape
    iu, ju = np.triu_indices(k1, 1)
    query = ids[:, iu] * n + ids[:, ju]
    pos = np.minimum(np.searchsorted(keys, query), len(keys) - 1)
    w_pairs = np.where(keys[pos] == query, energy[pos], 0.0)
    w = np.zeros((b, k1, k1))
    w[:, iu, ju] = w[:, ju, iu] = w_pairs
    if not exhaustive:
        return _greedy(w, node_energy)
    member, pairs = _subset_tables(k1 - 1)
    rq = _ratio(w_pairs @ pairs.T, node_energy @ member.T)
    # argmax keeps the first (smallest) subset at the maximum; subset 0 is
    # the node alone, so an all-tied landscape keeps it alone.
    best = np.argmax(rq, axis=1)
    # The product sums in another order than the per-node formula below,
    # off by far less than _NEAR_TIE (<= 2(k+1)^2 non-negative terms), so
    # only near-ties (e.g. a zero-feature node: RQ 1 up to rounding for
    # every subset of leaves) need the formula itself.
    top = rq[np.arange(b), best]
    close = np.sum(rq >= (top * (1.0 - _NEAR_TIE))[:, None], axis=1) > 1
    for i in np.flatnonzero(close & (top > 0)):
        num = 0.5 * np.einsum("si,ij,sj->s", member, w[i], member)
        best[i] = np.argmax(_ratio(num, member @ node_energy[i]))
    return member[best] > 0


def _greedy(w: np.ndarray, node_energy: np.ndarray) -> np.ndarray:
    """Greedy marginal gain, one step for all nodes at a time: add the
    candidate with the largest RQ (the first, i.e. smallest node id, at a
    tie) while that strictly improves the node's RQ."""
    b, k1 = node_energy.shape
    in_set = np.eye(1, k1).repeat(b, axis=0)  # the node alone
    num, den = np.zeros(b), node_energy[:, 0].copy()
    cur, live = _ratio(num, den), np.arange(b)
    for _ in range(k1 - 1):
        # each candidate's weight into the subset: one BLAS dot per candidate
        gain = np.matmul(w[live][:, :, None, :], in_set[live][:, None, :, None])[:, :, 0, 0]
        cand = _ratio(num[live, None] + gain, den[live, None] + node_energy[live])
        cand[in_set[live] > 0] = -np.inf
        best = np.argmax(cand, axis=1)
        best_rq = cand[np.arange(len(live)), best]
        up = np.flatnonzero(best_rq > cur[live])
        if not len(up):
            break
        live, best = live[up], best[up]
        in_set[live, best] = 1.0
        num[live] += gain[up, best]
        den[live] += node_energy[live, best]
        cur[live] = best_rq[up]
    return in_set > 0


def _rq_context(dataset: GraphDataset, x: np.ndarray, cap: int, seed: int):
    """The sampler on every node, a chunk of equal k = min(degree, cap) at a time."""
    adj, n = dataset.adjacency, dataset.num_nodes
    keys, energy = _edge_energies(adj, x, np.arange(n))
    row_energy = np.empty(n)
    for s in _chunks(n, x.shape[1]):
        row_energy[s] = np.sum(x[s] ** 2, axis=1)
    count = np.minimum(np.diff(adj.row_offsets), cap)
    order = np.argsort(count, kind="stable")
    bounds = np.searchsorted(count[order], np.arange(int(count.max(initial=0)) + 2))
    context = np.empty((n, dataset.num_features), dtype=np.float32)
    sizes = np.empty(n, dtype=np.int64)
    for k in range(len(bounds) - 1):
        group = order[bounds[k] : bounds[k + 1]]
        exhaustive = k <= EXHAUSTIVE_DEGREE_LIMIT
        for s in _chunks(len(group), max((k + 1) ** 2, 2**k if exhaustive else 0, x.shape[1])):
            ids = _candidates(adj, group[s], k, cap, seed)
            in_set = _select(ids, row_energy[ids], keys, energy, n, exhaustive)
            # the mean of the chosen rows, summed from zero in ascending
            # node-id order as `x[subset].mean(axis=0)` sums them
            size = in_set.sum(axis=1)
            chosen = np.sort(np.where(in_set, ids, n), axis=1)
            total = np.zeros((len(ids), x.shape[1]))
            for r in range(int(size.max())):
                rows = np.flatnonzero(size > r)
                total[rows] += x[chosen[rows, r]]
            context[group[s]], sizes[group[s]] = total / size[:, None], size
    return context, sizes


def _full_khop_context(dataset: GraphDataset, x: np.ndarray):
    """(A x + x) / (degree + 1) for every node, pooled a row chunk at a time
    straight into the f32 output; each row sums from zero in column order,
    as the whole-matrix product does."""
    adj, n = dataset.adjacency, dataset.num_nodes
    sizes = (np.diff(adj.row_offsets) + 1).astype(np.int64)
    context = np.empty((n, dataset.num_features), dtype=np.float32)
    for s in _chunks(n, x.shape[1]):
        pooled = adj.to_csr((s.start, min(s.stop, n))) @ x
        pooled += x[s]
        pooled /= sizes[s, None]
        context[s] = pooled
    return context, sizes


def build_context_cache(dataset: GraphDataset, cap: int = DEFAULT_CANDIDATE_CAP, seed: int = 0,
                        mode: str = "rq") -> ContextCache:
    """Mean-pooled subgraph features for every node.

    mode "rq" runs the max-RQ sampler on every node in one batched pass
    (per-node seeding keeps each node's result independent of the rest).
    mode "full_khop" pools over the whole 1-hop neighborhood plus the node
    itself, computed as one sparse product.  The pooling reads the
    features as f64 (``GraphDataset.feature_matrix``); a ``FeatureFile``
    or a basis cache's block 0 is read straight into that matrix.
    """
    if cap < 1:
        raise ValueError(f"candidate cap must be >= 1, got {cap}")
    n = dataset.num_nodes
    x = dataset.feature_matrix()
    if mode == "full_khop":
        context, sizes = _full_khop_context(dataset, x)
    elif mode == "rq":
        context, sizes = _rq_context(dataset, x, cap, seed)
    else:
        raise ValueError(f"unknown context mode {mode!r}")
    return ContextCache(num_nodes=n, dim=dataset.num_features, context=context,
                        subgraph_size=sizes)


# ---------------------------------------------------------------------------
# Cache file I/O
# ---------------------------------------------------------------------------


def write_context_cache(cache: ContextCache, path: str | os.PathLike) -> None:
    """Header, the (n, d) f32 context rows, then n u32 subgraph sizes; written
    atomically (see ``cachefile.atomic_file``)."""
    cache.validate()
    CONTEXT_FORMAT.write(path, (cache.num_nodes, cache.dim),
                         [(cache.context[:], "<f4"), (cache.subgraph_size, "<u4")])


def read_context_cache(path: str | os.PathLike) -> ContextCache:
    """Open a context cache: header and subgraph sizes are read and checked
    now, context rows are read by row."""
    return CONTEXT_FORMAT.open(path, _context_from_file)


def _context_from_file(file: CacheFile) -> ContextCache:
    n, d = file.fields
    file.expect_payload(n * d * 4 + n * 4)
    sizes = np.empty(n, dtype="<u4")
    file.read_into(sizes, file.payload_offset + n * d * 4)
    cache = ContextCache(num_nodes=n, dim=d, context=CacheRows(file, file.payload_offset, n, d),
                         subgraph_size=sizes, file=file)
    cache.validate()
    return cache
