"""Chebyshev basis precomputation over the scaled graph Laplacian.

With lambda_max fixed to 2, the scaled Laplacian is the negated normalized
adjacency, so each basis block is produced by one sparse-times-dense
product.  Blocks are computed once, cached to disk, and read back by
row (see ``cachefile``); training never touches the graph again.
"""

from __future__ import annotations

import os
import struct
from dataclasses import dataclass, field

import numpy as np

from .cachefile import CacheFile, CacheRows, FileBacked
from .errors import CacheFormatError
from .graph import GraphDataset, normalized_adjacency

CACHE_MAGIC = b"SGCHEB01"
_DTYPE_F32 = 0
# magic (8) + u64 n (8) + u64 d (8) + u16 K (2) + u16 dtype code (2)
HEADER_BYTES = 28
_HEADER = struct.Struct("<QQHH")

LAMBDA_MAX = 2.0


@dataclass
class ChebBasisCache(FileBacked):
    """The (K+1) precomputed matrices blocks[k] = T_k(scaled Laplacian) X.

    A built cache holds ndarrays; one from ``read_cache`` holds ``CacheRows``
    over its open ``file``, which ``close()`` (or ``with``) releases.  Both
    are indexed the same way: ``blocks[k][ids]``.
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


def build_cheb_basis(
    dataset: GraphDataset,
    order: int,
    dtype=np.float32,
    add_self_loops: bool = False,
) -> ChebBasisCache:
    """Compute T_k(L_hat) X for k = 0..order by the three-term recurrence.

    L_hat = 2 L_norm / lambda_max - I with lambda_max pinned at 2, which
    collapses to the negated normalized adjacency.  The recurrence runs in
    float64; each block is cast to ``dtype`` as soon as it is computed.
    """
    if order < 1:
        raise ValueError(f"order must be >= 1, got {order}")
    a_norm = normalized_adjacency(dataset.adjacency, add_self_loops)

    def emit(block: np.ndarray) -> np.ndarray:
        return block if block.dtype == dtype else np.ascontiguousarray(block, dtype=dtype)

    # three rolling f64 buffers updated in place; finished blocks are stored
    # in the target dtype, so peak transient memory stays at ~3 n*d values
    # beyond the output
    blocks = [emit(np.ascontiguousarray(dataset.features))]  # T_0 X is X, bit-exact
    b_prev = np.ascontiguousarray(dataset.features, dtype=np.float64)
    b_cur = a_norm @ b_prev
    np.negative(b_cur, out=b_cur)  # L_hat X = -(A_norm X)
    blocks.append(emit(b_cur))
    for _ in range(2, order + 1):
        b_next = a_norm @ b_cur
        b_next *= -2.0
        b_next -= b_prev
        blocks.append(emit(b_next))
        b_prev, b_cur = b_cur, b_next

    cache = ChebBasisCache(
        order=order,
        num_nodes=dataset.num_nodes,
        dim=dataset.num_features,
        blocks=blocks,
    )
    cache.validate()
    return cache


def dense_spectral_oracle(
    dataset: GraphDataset,
    weights: np.ndarray,
    add_self_loops: bool = False,
    max_nodes: int = 500,
) -> np.ndarray:
    """Reference filter via dense eigendecomposition (test oracle).

    Returns U diag(sum_k w_k T_k(lambda_i)) U^T X in float64.  Only meant
    for small graphs; refuses n > max_nodes.
    """
    n = dataset.num_nodes
    if n > max_nodes:
        raise ValueError(f"dense oracle limited to n <= {max_nodes}, got {n}")
    weights = np.asarray(weights, dtype=np.float64)
    a_norm = normalized_adjacency(dataset.adjacency, add_self_loops).toarray()
    l_hat = -a_norm
    eigvals, eigvecs = np.linalg.eigh(l_hat)
    response = chebyshev_series(weights, eigvals)
    x = np.asarray(dataset.features, dtype=np.float64)
    return eigvecs @ (response[:, None] * (eigvecs.T @ x))


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
    """Serialize to disk: 28-byte header then (K+1) row-major f32 blocks."""
    cache.validate()
    path = os.fspath(path)
    with open(path, "wb") as f:
        f.write(CACHE_MAGIC)
        f.write(_HEADER.pack(cache.num_nodes, cache.dim, cache.order, _DTYPE_F32))
        for block in cache.blocks:
            f.write(np.ascontiguousarray(block[:], dtype="<f4").tobytes())
        f.flush()
        os.fsync(f.fileno())


def read_cache(path: str | os.PathLike) -> ChebBasisCache:
    """Open a basis cache: the header is checked now, blocks are read by row."""
    file = CacheFile(path, CACHE_MAGIC, _HEADER, "cache")
    try:
        n, d, order, dtype_code = file.fields
        if dtype_code != _DTYPE_F32:
            raise CacheFormatError(f"unsupported dtype code {dtype_code}")
        expected = (order + 1) * n * d * 4
        if file.payload_bytes != expected:
            raise CacheFormatError(
                f"cache payload is {file.payload_bytes} bytes, expected {expected}"
            )
        blocks = [CacheRows(file, file.payload_offset + k * n * d * 4, n, d)
                  for k in range(order + 1)]
        cache = ChebBasisCache(order=order, num_nodes=n, dim=d, blocks=blocks, file=file)
        cache.validate()
    except BaseException:
        file.close()
        raise
    return cache


def expected_cache_bytes(order: int, num_nodes: int, dim: int) -> int:
    return HEADER_BYTES + (order + 1) * num_nodes * dim * 4
