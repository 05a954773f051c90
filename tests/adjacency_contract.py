"""The contract of ``SparseAdjacency``, checked on the test side only.

``SparseAdjacency.from_edges`` establishes every invariant by
construction and the package never checks them again, so the tests hold
the one checker: canonical CSR (sorted unique columns per row), a
symmetric pattern, a zero diagonal and int8 ones, plus a dense oracle of
the edge list on small graphs.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

DENSE_ORACLE_MAX_NODES = 2000


def assert_adjacency_contract(adj, num_nodes: int, edges=None) -> None:
    """Assert ``adj`` is the simple undirected graph on ``num_nodes`` nodes
    of ``edges`` (an (m, 2) array of pairs; the dense comparison runs only
    when it is given and the graph is small)."""
    csr = adj.csr
    assert csr.shape == (num_nodes, num_nodes)
    indptr, indices = csr.indptr, csr.indices
    assert indptr.shape == (num_nodes + 1,) and indptr[0] == 0 and indptr[-1] == len(indices)
    # a fresh matrix over the same arrays, so the flag is computed, not a cached one
    fresh = sp.csr_matrix((csr.data, indices, indptr), shape=csr.shape, copy=False)
    assert fresh.has_canonical_format, "a row has unsorted or duplicate columns"
    assert csr.data.dtype == np.int8 and np.all(csr.data == 1)
    assert not np.any(adj.row_ids() == indices), "self-loop present"
    # with canonical rows, the pattern is symmetric exactly when the
    # transpose, re-sorted, has the same arrays
    transposed = csr.T.tocsr()
    transposed.sort_indices()
    np.testing.assert_array_equal(transposed.indptr, indptr)
    np.testing.assert_array_equal(transposed.indices, indices)
    if edges is not None and num_nodes <= DENSE_ORACLE_MAX_NODES:
        pairs = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
        dense = np.zeros((num_nodes, num_nodes), dtype=np.int8)
        dense[pairs[:, 0], pairs[:, 1]] = 1
        dense[pairs[:, 1], pairs[:, 0]] = 1
        np.fill_diagonal(dense, 0)
        np.testing.assert_array_equal(csr.toarray(), dense)
