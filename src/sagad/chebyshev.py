"""Chebyshev basis precomputation over the scaled graph Laplacian.

With lambda_max fixed to 2, the scaled Laplacian is the negated normalized
adjacency, so each basis block is produced by one sparse-times-dense
product.  Blocks are computed once, cached to disk, and read back by
row (see ``cachefile``); training never touches the graph again.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field

import numpy as np

from .cachefile import BinaryFormat, CacheFile, CacheRows, FileBacked
from .errors import CacheFormatError
from .graph import GraphDataset, degree_scaling, normalized_adjacency

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
# product and the write stay small next to the two n*d work buffers.
_CHUNK_ROWS = 1 << 13


def build_cheb_basis(
    dataset: GraphDataset,
    order: int,
    dtype=np.float32,
    path: str | os.PathLike | None = None,
) -> ChebBasisCache:
    """Compute T_k(L_hat) X for k = 0..order by the three-term recurrence.

    L_hat = 2 L_norm / lambda_max - I with lambda_max pinned at 2, which
    collapses to the negated normalized adjacency.  The recurrence runs in
    ``dtype``, the precision of the blocks it produces, over two n*d
    buffers, one row chunk at a time (see ``_basis_chunks``): f32 for the
    cache file and by default, f64 only when f64 blocks are asked for.
    Features given as a ``FeatureFile`` are read into the first buffer,
    with no other copy held.  Without ``path`` the chunks are copied into
    (order+1) in-memory blocks.  With ``path`` each chunk is written to the
    cache file as soon as it is computed (the file replaces ``path`` only
    once complete) and the returned cache reads that file by row: close
    it, or use it in a ``with`` block.
    """
    if order < 1:
        raise ValueError(f"order must be >= 1, got {order}")
    n, d = dataset.num_nodes, dataset.num_features
    chunks = _basis_chunks(dataset, order, dtype)
    if path is None:
        blocks = [np.empty((n, d), dtype=dtype) for _ in range(order + 1)]
        for k, lo, rows in chunks:
            blocks[k][lo : lo + len(rows)] = rows
        return ChebBasisCache(order=order, num_nodes=n, dim=d, blocks=blocks)
    if np.dtype(dtype) != np.float32:
        raise ValueError(f"a basis cache file holds float32 blocks, not {np.dtype(dtype)}")
    CACHE_FORMAT.write(path, (n, d, order, _DTYPE_F32), ((rows, "<f4") for _, _, rows in chunks))
    # the file just written, not an input: opened without `read_cache`
    return CACHE_FORMAT.open(path, _cache_from_file)


def _basis_chunks(dataset: GraphDataset, order: int, dtype):
    """Yield (k, lo, rows): rows lo:lo+len(rows) of T_k X in ``dtype``,
    block by block and rows ascending (the cache file's order).  ``rows``
    is a view of a work buffer, valid until the next chunk is asked for.

    Two n*d ``dtype`` buffers hold T_{k-1} X and T_{k-2} X; chunk lo:hi of
    T_k X overwrites rows lo:hi of T_{k-2} X, which nothing reads again.
    The normalized values are formed in f64 and rounded once to ``dtype``,
    so each sparse product runs in ``dtype`` throughout.  Each row of a
    sparse product is summed from zero in column order, as the
    whole-matrix product sums it, so the values do not depend on the
    chunking.
    """
    adj, n = dataset.adjacency, dataset.num_nodes
    scaling = degree_scaling(adj)

    def a_norm(lo: int, hi: int):
        return normalized_adjacency(adj, (lo, hi), scaling, dtype)

    bounds = [(lo, min(lo + _CHUNK_ROWS, n)) for lo in range(0, n, _CHUNK_ROWS)]
    # T_0 X is X in ``dtype``, in a new buffer (it is overwritten below); a
    # FeatureFile is read straight into it
    b_prev = dataset.feature_matrix(dtype)
    for lo, hi in bounds:
        yield 0, lo, b_prev[lo:hi]
    b_cur = np.empty_like(b_prev)
    for lo, hi in bounds:
        out = b_cur[lo:hi]
        np.negative(a_norm(lo, hi) @ b_prev, out=out)
        yield 1, lo, out  # L_hat X = -(A_norm X)
    for k in range(2, order + 1):
        for lo, hi in bounds:
            rows = a_norm(lo, hi) @ b_cur
            rows *= -2.0
            out = b_prev[lo:hi]
            np.subtract(rows, out, out=out)
            yield k, lo, out
        b_prev, b_cur = b_cur, b_prev


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
    blocks = [CacheRows(file, file.payload_offset + k * n * d * 4, n, d) for k in range(order + 1)]
    return ChebBasisCache(order=order, num_nodes=n, dim=d, blocks=blocks, file=file)

