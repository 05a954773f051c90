"""Chebyshev basis precomputation over the scaled graph Laplacian.

With lambda_max fixed to 2, the scaled Laplacian is the negated normalized
adjacency, so each basis block is produced by one sparse-times-dense
product.  Blocks are computed once, cached to disk, and read back by
row (see ``cachefile``); training never touches the graph again.  Each
block's rows are split over forked workers (``sagad.workers``), which
write them into their places in the cache file.
"""

from __future__ import annotations

import functools
import os
import tempfile
from dataclasses import dataclass, field

import numpy as np

from . import workers
from .cachefile import (BinaryFormat, CacheFile, CacheRows, FileBacked, pread_into, pwrite_array,
                        write_array)
from .errors import CacheFormatError
from .graph import GraphDataset, RowOperator, degree_scaling, normalized_adjacency

# header: u64 n, u64 d, u16 K, u16 dtype code; then (K+1) f32 blocks
CACHE_FORMAT = BinaryFormat(b"SGCHEB01", "<QQHH", "basis cache")
_DTYPE_F32 = 0


@dataclass
class ChebBasisCache(FileBacked):
    """The (K+1) precomputed matrices blocks[k] = T_k(scaled Laplacian) X.

    A cache built in memory holds ndarrays; one from ``read_cache`` (or
    built with a ``path``) holds ``CacheRows`` over its open ``file``, which
    ``close()`` (or ``with``) releases.  Both are indexed the same way:
    ``blocks[k][ids]``.
    """

    order: int
    num_nodes: int
    dim: int
    blocks: list
    file: CacheFile | None = field(default=None, repr=False, compare=False)

    def validate(self) -> None:
        if len(self.blocks) != self.order + 1:
            raise CacheFormatError("block count does not match order")
        for k, b in enumerate(self.blocks):
            if b.shape != (self.num_nodes, self.dim):
                raise CacheFormatError(f"block {k} has shape {b.shape}")


# Rows per chunk of the recurrence: a chunk's normalized values, its sparse
# product and the rows read back stay small next to the n*d blocks.
_CHUNK_ROWS = 1 << 13
# Each block's rows are split over processes with at least 15 000 rows each:
# on a 2-core x86-64 host (perfbench graphs, d = 32, K = 3, in process) two
# processes built the basis in 1.4x the time of one at n = 20 000 (a fork
# and a reap per block), and in 0.88x at n = 30 000, 0.80x at n = 40 000.
BASIS_JOB = workers.Job("basis", min_units=15_000)


def build_cheb_basis(
    dataset: GraphDataset,
    order: int,
    path: str | os.PathLike | None = None,
) -> ChebBasisCache:
    """Compute T_k(L_hat) X for k = 0..order by the three-term recurrence.

    L_hat = 2 L_norm / lambda_max - I with lambda_max pinned at 2, which
    collapses to the negated normalized adjacency.  The recurrence runs in
    f32, the precision of the cache file, one row chunk at a time: each
    normalized value is formed in f64 and rounded once to f32, and each row
    of a sparse product is summed from zero in column order, as the
    whole-matrix product sums it, so the values depend neither on the
    chunking nor on which process computes them.

    Each block k is split over processes (``BASIS_JOB``, ``sagad.workers``)
    with one barrier per block: this process and forked workers each take
    one contiguous range of rows, read the whole T_{k-1} X from this
    process's one n*d buffer (shared, not copied: no process writes it)
    and T_{k-2} X from the file a chunk at a time, and write each chunk
    into its place in the cache file at ``path`` (which replaces ``path``
    only once complete).  The features are read into the buffer as T_0 X,
    and each finished block is read back over it.  Each chunk's operator
    is laid out once, for T_1 X: its rank-major columns and values go to a
    scratch file beside the cache, at the offset of the chunk's first
    stored entry, and are read back for every later block.  The returned
    cache reads the file by row: close it, or use it in a ``with`` block.
    Without ``path`` the basis is built the same way into a temporary
    file, and its (order+1) blocks are returned in memory.
    """
    if order < 1:
        raise ValueError(f"order must be >= 1, got {order}")
    n, d = dataset.num_nodes, dataset.num_features
    if path is None:
        with tempfile.TemporaryDirectory() as tmp, \
                build_cheb_basis(dataset, order, os.path.join(tmp, "cheb_cache.bin")) as cache:
            return ChebBasisCache(order, n, d, [b[:] for b in cache.blocks])
    path = os.fspath(path)
    adj = dataset.adjacency
    offsets, scaling = adj.row_offsets, degree_scaling(adj)
    # spilled columns: the narrowest ids that hold n, whatever the graph's
    column_dtype = np.dtype(np.int32 if n <= np.iinfo(np.int32).max else np.int64)
    entry_bytes = column_dtype.itemsize + 4  # a spilled column and its f32 value
    ranges = BASIS_JOB.ranges(n)
    x = dataset.feature_matrix()
    with CACHE_FORMAT.writer(path, (n, d, order, _DTYPE_F32)) as f, \
            tempfile.TemporaryFile(dir=os.path.dirname(os.path.abspath(path))) as spill:

        def at(k: int, lo: int) -> int:
            return CACHE_FORMAT.header_bytes + (k * n + lo) * d * 4

        def rows(k: int, sink, lo: int, hi: int) -> None:
            """Rows lo:hi of T_k X, a chunk at a time, each to ``sink``."""
            for a in range(lo, hi, _CHUNK_ROWS):
                b = min(a + _CHUNK_ROWS, hi)
                spilled = int(offsets[a]) * entry_bytes
                if k == 1:
                    op = normalized_adjacency(adj, (a, b), scaling, np.float32)
                    if order > 1:
                        pwrite_array(spill.fileno(), op.columns.astype(column_dtype, copy=False),
                                     spilled)
                        pwrite_array(spill.fileno(), op.values,
                                     spilled + len(op.columns) * column_dtype.itemsize)
                else:
                    columns = np.empty(int(offsets[b] - offsets[a]), dtype=column_dtype)
                    values = np.empty(len(columns), dtype=np.float32)
                    pread_into(spill.fileno(), columns, spilled, "the basis scratch file")
                    pread_into(spill.fileno(), values, spilled + columns.nbytes,
                               "the basis scratch file")
                    op = RowOperator(offsets[a : b + 1], columns, n, values, ranked=True)
                chunk = op @ x
                if k == 1:
                    np.negative(chunk, out=chunk)  # L_hat X = -(A_norm X)
                else:
                    chunk *= -2.0
                    previous = np.empty((b - a, d), dtype=np.float32)
                    pread_into(f.fileno(), previous, at(k - 2, a), path)
                    np.subtract(chunk, previous, out=chunk)
                sink(at(k, a), chunk)

        def put(part, offset: int, chunk: np.ndarray) -> None:
            pwrite_array(f.fileno(), chunk, offset)

        write_array(f, x, "<f4")
        f.flush()  # every later block is written in place, by offset
        for k in range(1, order + 1):
            if k > 1:  # block k-1 is all written: read it back over block k-2
                pread_into(f.fileno(), x, at(k - 1, 0), path)
            block = functools.partial(rows, k)
            with workers.forked(BASIS_JOB, ranges[1:], block, put, None) as done:
                block(functools.partial(put, None), *ranges[0])
                for _ in done:  # the barrier: every worker has written its rows
                    pass
    # the file just written, not an input: opened without `read_cache`
    return CACHE_FORMAT.open(path, _cache_from_file)


def chebyshev_series(weights: np.ndarray, t: np.ndarray | float) -> np.ndarray:
    """Evaluate sum_k w_k T_k(t) by the three-term recurrence."""
    t = np.asarray(t, dtype=np.float64)
    weights = np.asarray(weights, dtype=np.float64)
    acc = np.full_like(t, weights[0], dtype=np.float64)
    if len(weights) == 1:
        return acc
    t_prev = np.ones_like(t)
    t_cur = t.copy()
    acc = acc + weights[1] * t_cur
    for k in range(2, len(weights)):
        t_next = 2.0 * t * t_cur - t_prev
        acc = acc + weights[k] * t_next
        t_prev, t_cur = t_cur, t_next
    return acc


def chebyshev_nodes(order: int) -> np.ndarray:
    """Interpolation nodes (roots of T_{K+1}) sorted ascending in [-1, 1]."""
    k = order
    j = np.arange(k + 1, dtype=np.float64)
    return np.cos((k - j + 0.5) * np.pi / (k + 1))


# ---------------------------------------------------------------------------
# Cache file I/O
# ---------------------------------------------------------------------------


def write_cache(cache: ChebBasisCache, path: str | os.PathLike) -> None:
    """Serialize to disk: 28-byte header then (K+1) row-major f32 blocks.

    Written atomically (see ``cachefile.atomic_file``).
    """
    cache.validate()
    fields = (cache.num_nodes, cache.dim, cache.order, _DTYPE_F32)
    CACHE_FORMAT.write(path, fields, ((block[:], "<f4") for block in cache.blocks))


def read_cache(path: str | os.PathLike) -> ChebBasisCache:
    """Open a basis cache: the header is checked now, blocks are read by row."""
    return CACHE_FORMAT.open(path, _cache_from_file)


def _cache_from_file(file: CacheFile) -> ChebBasisCache:
    n, d, order, dtype_code = file.fields
    if dtype_code != _DTYPE_F32:
        raise file.fail(f"unsupported dtype code {dtype_code}")
    file.expect_payload((order + 1) * n * d * 4)
    blocks = [CacheRows(file, file.payload_offset + k * n * d * 4, (n, d)) for k in range(order + 1)]
    return ChebBasisCache(order=order, num_nodes=n, dim=d, blocks=blocks, file=file)

