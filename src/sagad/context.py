"""Per-node max-Rayleigh-Quotient subgraph extraction and context caching.

For every node we pick, among its 1-hop candidates, the induced subgraph
with the largest Rayleigh Quotient (spectral energy of the feature signal
on that subgraph), then cache the mean-pooled features of that subgraph.
Small neighborhoods are solved exactly by enumeration; larger ones use a
greedy marginal-gain search over a capped, seeded candidate sample.  One
batched kernel solves all nodes with the same candidate count at once.

The edges among a chunk's candidates come from a degree-oriented edge
list: each undirected edge is stored once, with its energy, from its
endpoint of lower degree, so every out-list is short and a chunk finds
its edges by scanning its ids' out-lists against its own sorted keys.
No array of size 2m or n*cap is formed: the sampler holds the f32
features plus about 12 B per edge, O(n*d + m) in all.

The ``full_khop`` mode pools each node's whole 1-hop neighborhood
instead, reading only each row range's slice of the graph's columns.
Both modes fill the context one contiguous row range at a time and pool
with unit-valued ``RowOperator`` products: in memory into one n*d array,
or, with a cache path, into one range buffer that is written to the file
as it is filled, so no n*d context is held.  The ranges are split over
forked workers (``sagad.workers``), which write their rows to part files
that are read back in row order.
"""

from __future__ import annotations

import functools
import os
import tempfile
from dataclasses import dataclass, field

import numpy as np

from . import workers
from .cachefile import (BinaryFormat, CacheFile, CacheRows, FileBacked, copy_bytes, pread_into,
                        write_array)
from .errors import CacheFormatError
from .graph import GraphDataset, RowOperator, SparseAdjacency

# header: u64 n, u64 d; then the (n, d) f32 context rows and n u32 subgraph sizes
CONTEXT_FORMAT = BinaryFormat(b"SGCTX001", "<QQ", "context cache")

EXHAUSTIVE_DEGREE_LIMIT = 10
DEFAULT_CANDIDATE_CAP = 64
# a node's (cap+1)^2 f64 local weights: 8.4 MB at this cap
MAX_CANDIDATE_CAP = 1024

_SEED_DOMAIN_SAMPLER = 0x5C1
_SIZE_CHUNK = 1 << 16  # subgraph sizes checked per read: 256 KB of u32


@dataclass
class ContextCache(FileBacked):
    """Mean-pooled features of each node's max-RQ subgraph.

    ``context`` and ``subgraph_size`` are ndarrays when built in memory,
    or ``CacheRows`` over the open ``file`` (the sizes as the u32 the file
    stores) when read from disk or built with a path: no command that
    opens the cache holds its n sizes.
    """

    num_nodes: int
    dim: int
    context: np.ndarray | CacheRows
    subgraph_size: np.ndarray | CacheRows
    file: CacheFile | None = field(default=None, repr=False, compare=False)

    def validate(self) -> None:
        """Check the shapes, and every subgraph size >= 1, read
        ``_SIZE_CHUNK`` sizes at a time."""
        if self.context.shape != (self.num_nodes, self.dim):
            raise CacheFormatError(f"context has shape {self.context.shape}")
        if self.subgraph_size.shape != (self.num_nodes,):
            raise CacheFormatError("subgraph_size must be one entry per node")
        for lo in range(0, self.num_nodes, _SIZE_CHUNK):
            if self.subgraph_size[lo : lo + _SIZE_CHUNK].min() < 1:
                raise CacheFormatError("subgraph sizes must be >= 1")


# A chunk holds about this many values: B*(k+1)^2 local weights, B*2^k
# subsets, B*d pooled features or out-list entries scanned for B nodes, or
# edges*d differences.  Nothing of size n*cap or 2m is formed: the sampler
# needs O(n*d + m) memory, the f32 features and output plus about 12 B per
# undirected edge (its out-list target and energy).
_CHUNK_VALUES = 1 << 16
_NEAR_TIE = 1e-12  # relative band of near-ties the exhaustive search re-ranks exactly


def _chunks(total: int, values_per_item: int):
    step = max(1, _CHUNK_VALUES // max(values_per_item, 1))
    return (slice(lo, lo + step) for lo in range(0, total, step))


def _oriented_edges(adj, x: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Every undirected edge once, in the out-list of its endpoint of lower
    (degree, id) rank: the out-lists' offsets (n + 1) and targets, and each
    edge's ||x_u - x_v||^2 in f64.

    Ranking by degree keeps the out-lists short (a hub's edges sit mostly
    in its neighbors' lists), so the edges among a chunk's ids are found
    by scanning those ids' out-lists.  The energy is one BLAS dot per
    edge, as ``diff @ diff`` takes it, and does not depend on the
    direction: ``x_v - x_u`` is exactly ``-(x_u - x_v)``."""
    n, offsets, cols = adj.num_nodes, adj.row_offsets, adj.col_indices
    degree = np.diff(offsets)
    rank = np.empty(n, dtype=np.int64)
    rank[np.argsort(degree, kind="stable")] = np.arange(n)
    out_degree = np.empty(n, dtype=np.int64)
    targets = np.empty(len(cols) // 2, dtype=cols.dtype)
    energy = np.empty(len(targets))
    end = 0
    # rows of about _CHUNK_VALUES stored entries at the mean degree
    for s in _chunks(n, len(cols) // max(n, 1) + 1):
        lo, hi = s.start, min(s.stop, n)
        dst = cols[offsets[lo] : offsets[hi]]
        src = np.repeat(np.arange(lo, hi), degree[lo:hi])
        keep = rank[src] < rank[dst]
        src, dst = src[keep], dst[keep]
        out_degree[lo:hi] = np.bincount(src - lo, minlength=hi - lo)
        targets[end : end + len(dst)] = dst
        out = energy[end : end + len(dst)]
        for e in _chunks(len(src), x.shape[1]):
            diff = np.subtract(np.take(x, src[e], axis=0), np.take(x, dst[e], axis=0),
                               dtype=np.float64)
            out[e] = np.matmul(diff[:, None, :], diff[:, :, None])[:, 0, 0]
        end += len(dst)
    return np.concatenate([[0], np.cumsum(out_degree)]), targets, energy


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


def _local_weights(ids: np.ndarray, edges, present: np.ndarray) -> np.ndarray:
    """(B, k+1, k+1) local weights of a chunk: w[b, i, j] is the energy of
    the edge between ids[b, i] and ids[b, j], or 0 where there is none.

    Each edge among a node's ids lies in the out-list of one of them
    (``_oriented_edges``), so scanning the out-lists of all the chunk's
    ids finds it exactly once.  An out-list entry is kept when its target
    is one of the chunk's ids (``present``, n flags, all False on entry
    and on return) and its ``slot*n + target`` key is among the chunk's
    own sorted keys."""
    offsets, targets, energy = edges
    b, k1 = ids.shape
    n = len(present)
    keys = (np.arange(b)[:, None] * n + ids).ravel()
    order = np.argsort(keys)
    keys = keys[order]
    flat = ids.ravel()
    starts, stops = offsets[flat], offsets[flat + 1]
    present[flat] = True
    w = np.zeros((b, k1, k1))
    # about _CHUNK_VALUES / 4 out-list entries at a time, whatever the
    # degrees: each takes four int64 work values
    ends = np.cumsum(stops - starts)
    cuts = np.searchsorted(ends, np.arange(0, ends[-1], max(_CHUNK_VALUES // 4, 1)), side="right")
    for lo, hi in zip(cuts, [*cuts[1:], len(ends)]):
        counts = stops[lo:hi] - starts[lo:hi]
        entry = np.repeat(starts[lo:hi] - np.cumsum(counts) + counts, counts)
        entry += np.arange(len(entry))
        near = np.flatnonzero(present[targets[entry]])
        owner, entry = np.repeat(np.arange(lo, hi), counts)[near], entry[near]
        query = owner // k1 * n + targets[entry]
        pos = np.minimum(np.searchsorted(keys, query), len(keys) - 1)
        hit = keys[pos] == query
        owner, other, entry = owner[hit], order[pos[hit]], entry[hit]
        slot, i, j = owner // k1, owner % k1, other % k1
        w[slot, i, j] = w[slot, j, i] = energy[entry]
    present[flat] = False
    return w


def _select(w: np.ndarray, node_energy: np.ndarray, exhaustive: bool) -> np.ndarray:
    """(B, k+1) membership of each node's max-RQ subset (column 0: the node)."""
    if not exhaustive:
        return _greedy(w, node_energy)
    b, k1 = node_energy.shape
    iu, ju = np.triu_indices(k1, 1)
    w_pairs = w[:, iu, ju]
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


def _rq_context(adj: SparseAdjacency, x: np.ndarray, cap: int, seed: int, sizes: np.ndarray):
    """The sampler's one-time set-up: the oriented edges, the node energies
    and the candidate counts.  Returns ``fill(lo, hi, out)``, which writes
    the context of rows lo:hi into ``out`` and their subgraph sizes into
    ``sizes[lo:hi]``, a chunk of equal k = min(degree, cap) at a time."""
    n = adj.num_nodes
    edges = _oriented_edges(adj, x)
    present = np.zeros(n, dtype=bool)
    row_energy = np.empty(n)
    for s in _chunks(n, x.shape[1]):
        row_energy[s] = np.sum(np.square(x[s], dtype=np.float64), axis=1)
    counts = np.minimum(np.diff(adj.row_offsets), cap)

    def fill(lo: int, hi: int, out: np.ndarray) -> np.ndarray:
        count = counts[lo:hi]
        order = np.argsort(count, kind="stable")
        bounds = np.searchsorted(count[order], np.arange(int(count.max(initial=0)) + 2))
        for k in range(len(bounds) - 1):
            group = order[bounds[k] : bounds[k + 1]]
            exhaustive = k <= EXHAUSTIVE_DEGREE_LIMIT
            for s in _chunks(len(group), max((k + 1) ** 2, 2**k if exhaustive else 0, x.shape[1])):
                rows = group[s]
                ids = _candidates(adj, lo + rows, k, cap, seed)
                in_set = _select(_local_weights(ids, edges, present), row_energy[ids], exhaustive)
                # the chosen rows' mean: one unit-valued product sums each from
                # zero in ascending node-id order, as `x[subset].mean(axis=0)` does
                size = in_set.sum(axis=1)
                chosen = np.sort(np.where(in_set, ids, n), axis=1)
                op = RowOperator(np.concatenate([[0], np.cumsum(size)]), chosen[chosen < n], n)
                out[rows], sizes[lo + rows] = (op @ x) / size[:, None], size
        return out

    return fill


# Values per row range of the full_khop pool (its f64 sums): 8k rows at
# d = 32, as many as a basis chunk.  A range loops to its own largest
# degree, so fewer, larger ranges take fewer gather steps than the
# sampler's chunks; at 200k nodes twice as many rows took no less time.
_POOL_VALUES = 1 << 18
# Rows per row range of the sampler, solved by equal-k chunks that a range
# splits: 8k-row ranges took ~13% longer than 64k-row ones at 200k nodes.
_RQ_ROWS = 1 << 16
# The rows are split over processes (``sagad.workers``) with at least this
# many rows each.  On a 2-core x86-64 host (perfbench graphs, d = 32, cap
# 64, in process), two processes sampled in 1.5x the time of one at n =
# 1000, about level at 2000, and 0.70x at 5000, 0.58x at 20 000; they
# pooled in 2x the time of one at n = 5000 and 0.91x at 10 000, 0.65x at
# 80 000.
RQ_JOB = workers.Job("rq context", min_units=2_500)
POOL_JOB = workers.Job("full_khop context", min_units=5_000)


def _pool_rows(adj: SparseAdjacency, x: np.ndarray, lo: int, hi: int,
               out: np.ndarray) -> np.ndarray:
    """Write rows lo:hi of (A x + x) / (degree + 1) into ``out``: one product
    with the unit-valued ``adj.operator`` of the range, which reads its
    columns once and sums each row in f64 from zero in column order, as a
    sparse product sums it, the node's own row last.  The f64 mean is
    rounded into ``out`` as ``astype`` rounds it, and freed on return."""
    op = adj.operator((lo, hi))
    pooled = op @ x
    pooled += x[lo:hi]
    pooled /= (op.degree + 1)[:, None]
    out[...] = pooled
    return out


def build_context_cache(dataset: GraphDataset, cap: int = DEFAULT_CANDIDATE_CAP, seed: int = 0,
                        mode: str = "rq", path: str | os.PathLike | None = None) -> ContextCache:
    """Mean-pooled subgraph features for every node.

    mode "rq" runs the max-RQ sampler on every node in batched passes
    (per-node seeding keeps each node's result independent of the rest).
    mode "full_khop" pools over the whole 1-hop neighborhood plus the node
    itself.  Both fill the context one contiguous row range at a time, and
    read the features at the precision they are held in: a
    ``FeatureFile`` or a basis cache's block 0 as f32, an in-memory array
    as it is, and sum in f64 the rows each energy or pooling gather takes.
    The sampler indexes the graph's columns at random, so it reads them
    whole; the pool reads each range's.

    The rows are split over processes (``RQ_JOB`` or ``POOL_JOB``,
    ``sagad.workers``): this process fills the first range of rows and
    forked workers the others, after the sampler's one-time set-up, whose
    arrays they share unchanged.  Each worker writes its rows, then their
    subgraph sizes, to its part file, which this process reads back in row
    order.  Without ``path`` the context is an in-memory f32 array, filled
    in place, with the part files in the temporary directory.  With
    ``path`` the cache is written there (atomically, see
    ``cachefile.atomic_file``), the part files beside it, and returned
    open on that file: close it, or use it in a ``with`` block.  Each
    process then fills its rows into one reused range buffer, so no n*d
    context array is held.
    """
    if cap < 1:
        raise ValueError(f"candidate cap must be >= 1, got {cap}")
    if cap > MAX_CANDIDATE_CAP:
        raise ValueError(f"candidate cap must be <= {MAX_CANDIDATE_CAP}, got {cap}")
    if mode not in ("rq", "full_khop"):
        raise ValueError(f"unknown context mode {mode!r}")
    n, d, adj = dataset.num_nodes, dataset.num_features, dataset.adjacency
    features = dataset.features
    x = (np.ascontiguousarray(features) if isinstance(features, np.ndarray)
         else dataset.feature_matrix())
    if mode == "rq":
        job, step, sizes = RQ_JOB, _RQ_ROWS, np.empty(n, dtype=np.int64)
        # the sampler indexes the columns at random: read them whole, once
        fill = _rq_context(SparseAdjacency(adj.row_offsets, adj.col_indices[:]), x, cap, seed,
                           sizes)
    else:
        job, step = POOL_JOB, max(1, _POOL_VALUES // max(d, 1))
        sizes = np.diff(adj.row_offsets).astype(np.int64) + 1
        fill = functools.partial(_pool_rows, adj, x)
    ranges = job.ranges(n)
    context = np.empty((n, d), dtype=np.float32) if path is None else None
    buffer = None if path is None else np.empty((min(step, n), d), dtype=np.float32)

    def rows(sink, lo: int, hi: int) -> None:
        for a in range(lo, hi, step):
            b = min(a + step, hi)
            sink(fill(a, b, context[a:b] if buffer is None else buffer[: b - a]), "<f4")

    def worker_rows(sink, lo: int, hi: int) -> None:
        rows(sink, lo, hi)
        sink(sizes[lo:hi], "<u4")  # read back from the part's end

    if path is None:
        with workers.forked(job, ranges[1:], worker_rows, write_array,
                            tempfile.gettempdir()) as done:
            rows(lambda out, dtype: None, *ranges[0])  # filled in place
            for w in done:
                pread_into(w.part.fileno(), context[w.lo : w.hi], 0, w.part_name)
                _read_sizes(w, sizes, d)
        return ContextCache(num_nodes=n, dim=d, context=context, subgraph_size=sizes)
    # write_context_cache's layout: the rows in row order, then the sizes
    with CONTEXT_FORMAT.writer(path, (n, d)) as f, \
            workers.forked(job, ranges[1:], worker_rows, write_array,
                           os.path.dirname(os.path.abspath(path))) as done:
        rows(functools.partial(write_array, f), *ranges[0])
        for w in done:
            copy_bytes(w.part, f, (w.hi - w.lo) * d * 4, w.part_name)
            _read_sizes(w, sizes, d)
        write_array(f, sizes, "<u4")
    # the file just written, not an input: opened without `read_context_cache`
    return CONTEXT_FORMAT.open(path, _context_from_file)


def _read_sizes(worker: workers.Worker, sizes: np.ndarray, d: int) -> None:
    """A worker's subgraph sizes, after its rows in its part file, into ``sizes``."""
    part_sizes = np.empty(worker.hi - worker.lo, dtype="<u4")
    pread_into(worker.part.fileno(), part_sizes, (worker.hi - worker.lo) * d * 4,
               worker.part_name)
    sizes[worker.lo : worker.hi] = part_sizes


# ---------------------------------------------------------------------------
# Cache file I/O
# ---------------------------------------------------------------------------


def write_context_cache(cache: ContextCache, path: str | os.PathLike) -> None:
    """Header, the (n, d) f32 context rows, then n u32 subgraph sizes; written
    atomically (see ``cachefile.atomic_file``)."""
    cache.validate()
    CONTEXT_FORMAT.write(path, (cache.num_nodes, cache.dim),
                         [(cache.context[:], "<f4"), (cache.subgraph_size[:], "<u4")])


def read_context_cache(path: str | os.PathLike) -> ContextCache:
    """Open a context cache: the header is read and checked now, and the
    subgraph sizes a chunk at a time; context rows and sizes are then read
    by row."""
    return CONTEXT_FORMAT.open(path, _context_from_file)


def _context_from_file(file: CacheFile) -> ContextCache:
    n, d = file.fields
    file.expect_payload(n * d * 4 + n * 4)
    cache = ContextCache(num_nodes=n, dim=d, context=CacheRows(file, file.payload_offset, (n, d)),
                         subgraph_size=CacheRows(file, file.payload_offset + n * d * 4, (n,), "<u4"),
                         file=file)
    cache.validate()
    return cache
