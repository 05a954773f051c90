"""Reference implementations and a pinned configuration the tests compare
the package against; the pipeline runs none of them.

``dense_spectral_oracle`` filters by a dense eigendecomposition instead of
the Chebyshev recurrence, ``whole_matrix_basis`` runs the recurrence over
the whole scipy matrix in f32 or f64 (the f64 reference for the package's
row-chunked f32 basis), ``interpolation_matrix_per_unit_vector`` builds
the interpolation matrix by one series evaluation per unit vector,
``csr_from_edges`` builds the adjacency through scipy's COO->CSR
conversion, ``csr`` and ``normalized_csr`` are the graph's rows as scipy
CSRs, the reference for every product of a ``RowOperator``,
``full_khop_pool`` pools the 1-hop context as one f64 scipy product, and
``ascending_midranks`` ranks the scores from an ascending sort, each
instead of the package's own code.
``fuse_per_mode`` mixes the two embeddings by each fusion mode's own
formula instead of the one gated mix, ``evaluate_objective`` forms the
training objective's value for finite-difference gradient checks,
``two_pass_train`` is the training loop with a train pass and a separate
validation pass per epoch (the reference for ``training.train``'s one
pass), and ``strong_separation_params`` is a CSBM configuration well
inside the separability region.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from sagad import training
from sagad.chebyshev import ChebBasisCache, chebyshev_nodes, chebyshev_series
from sagad.context import ContextCache
from sagad.csbm import CsbmParams
from sagad.graph import GraphDataset, SparseAdjacency, SplitSet
from sagad.model import ModelConfig, ModelState, RowBundle, forward_bundle, gather_rows, init_model
from sagad.training import (
    EpochRecord,
    TrainConfig,
    adam_step,
    compute_beta,
    data_loss_terms,
    init_optimizer,
    loss_and_grads_bundle,
    loss_labels,
)


def dense_spectral_oracle(
    dataset: GraphDataset,
    weights: np.ndarray,
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
    a_norm = normalized_csr(dataset.adjacency).toarray()
    l_hat = -a_norm
    eigvals, eigvecs = np.linalg.eigh(l_hat)
    response = chebyshev_series(weights, eigvals)
    x = np.asarray(dataset.features, dtype=np.float64)
    return eigvecs @ (response[:, None] * (eigvecs.T @ x))


def whole_matrix_basis(ds: GraphDataset, order: int, dtype=np.float32) -> ChebBasisCache:
    """The recurrence over the whole normalized matrix in ``dtype``: values
    formed in f64 and rounded once, three ``dtype`` buffers (test oracle for
    the row-chunked one)."""
    a_norm = normalized_csr(ds.adjacency, dtype=dtype)
    b_prev = np.array(ds.features, dtype=dtype)
    b_cur = a_norm @ b_prev
    np.negative(b_cur, out=b_cur)
    blocks = [b_prev, b_cur]
    for _ in range(2, order + 1):
        b_next = a_norm @ b_cur
        b_next *= -2.0
        b_next -= b_prev
        blocks.append(b_next)
        b_prev, b_cur = b_cur, b_next
    return ChebBasisCache(order, ds.num_nodes, ds.num_features, blocks)


def interpolation_matrix_per_unit_vector(order: int) -> np.ndarray:
    """``model.interpolation_matrix`` with row k evaluated as the series
    whose k-th weight is 1."""
    nodes = chebyshev_nodes(order)
    m = order + 1
    scale = np.full(m, 2.0 / m)
    scale[0] = 1.0 / m
    return scale[:, None] * np.array([chebyshev_series(unit, nodes) for unit in np.eye(m)])


def csr_from_edges(num_nodes: int, edges) -> tuple[np.ndarray, np.ndarray]:
    """``SparseAdjacency.from_edges``'s (indptr, indices) by scipy: COO->CSR
    sums duplicates, ``half + half.T`` symmetrizes and ``sort_indices``
    sorts each row; scipy picks the index dtype."""
    edges = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
    keep = edges[:, 0] != edges[:, 1]
    # f32 counts saturate but never reach 0, so no duplicate is dropped
    half = sp.coo_matrix(
        (np.ones(int(keep.sum()), dtype=np.float32), (edges[keep, 0], edges[keep, 1])),
        shape=(num_nodes, num_nodes),
    ).tocsr()
    csr = half + half.T
    csr.sort_indices()
    return csr.indptr, csr.indices


def csr(adj: SparseAdjacency, rows: tuple[int, int] | None = None,
        values: np.ndarray | None = None) -> sp.csr_matrix:
    """Rows lo:hi of ``adj`` (all rows by default) as an (hi - lo, n) scipy
    CSR over slices of its index arrays, with ``values`` (one per stored
    entry of those rows) or int8 ones."""
    n = adj.num_nodes
    lo, hi = (0, n) if rows is None else rows
    start, stop = adj.row_offsets[lo], adj.row_offsets[hi]
    indptr = adj.row_offsets[lo : hi + 1] - start
    if values is None:
        values = np.ones(stop - start, dtype=np.int8)
    return sp.csr_matrix((values, adj.col_indices[start:stop], indptr), shape=(hi - lo, n),
                         copy=False)


def normalized_csr(adj: SparseAdjacency, rows: tuple[int, int] | None = None,
                   dtype=np.float64) -> sp.csr_matrix:
    """``normalized_adjacency(adj, rows, dtype=dtype)`` as a scipy CSR: the
    degrees counted from the CSR, each value ``s_i * s_j`` formed in f64
    and rounded once to ``dtype``."""
    a = csr(adj)
    counts = np.diff(a.indptr)
    deg = counts.astype(np.float64)
    with np.errstate(divide="ignore"):
        dinv_sqrt = np.where(deg > 0, 1.0 / np.sqrt(deg), 0.0)
    vals = (np.repeat(dinv_sqrt, counts) * dinv_sqrt[a.indices]).astype(dtype)
    a_norm = sp.csr_matrix((vals, a.indices, a.indptr), shape=a.shape)
    return a_norm if rows is None else a_norm[rows[0] : rows[1]]


def full_khop_pool(dataset: GraphDataset) -> tuple[np.ndarray, np.ndarray]:
    """The ``full_khop`` context and sizes: (A x + x) / (degree + 1) as one
    scipy product over the features widened to f64, rounded to f32."""
    x = np.asarray(dataset.features, dtype=np.float64)
    sizes = np.diff(dataset.adjacency.row_offsets) + 1
    pooled = csr(dataset.adjacency) @ x
    pooled += x
    pooled /= sizes[:, None]
    return pooled.astype(np.float32), sizes


def ascending_midranks(scores) -> np.ndarray:
    """``metrics._midranks``'s result from a stable ascending sort: 1-based
    ranks, each run of equal scores (found with ``!=``, so each NaN is a
    run of its own) sharing its average rank."""
    s = np.asarray(scores, dtype=np.float64)
    order = np.argsort(s, kind="stable")
    sa = s[order]
    starts = np.flatnonzero(np.concatenate([[True], sa[1:] != sa[:-1]]))
    ends = np.append(starts[1:], len(s))
    ranks = np.empty(len(s))
    ranks[order] = np.repeat((starts + ends - 1) / 2.0 + 1.0, ends - starts)
    return ranks


def fuse_per_mode(z_low: np.ndarray, z_high: np.ndarray, coef: np.ndarray | None,
                  fusion_mode: str) -> np.ndarray:
    """The fused embedding by each mode's own formula; adaptive fusion
    takes ``coef``, the fusion gate of the same rows."""
    if fusion_mode == "adaptive":
        return coef * z_low + (1.0 - coef) * z_high
    if fusion_mode == "mean":
        return 0.5 * (z_low + z_high)
    if fusion_mode == "concat":
        return np.concatenate([z_low, z_high], axis=1)
    return {"low_only": z_low, "high_only": z_high}[fusion_mode]


def evaluate_objective(
    state: ModelState,
    bundle: RowBundle,
    labels: np.ndarray,
    beta: float,
    train_config: TrainConfig,
) -> float:
    """Scalar objective only, with no backward pass (for finite-difference
    checks): the data loss plus 0.5 * weight_decay * ||params||^2."""
    trace = forward_bundle(state, bundle, train_mode=True)
    terms = loss_labels(labels, beta, state.config)
    objective = data_loss_terms(state, trace.yhat, trace.cbar, terms)[0]
    if train_config.weight_decay:
        params = state.params.flat
        objective += 0.5 * train_config.weight_decay * float(np.vdot(params, params))
    return objective


def two_pass_train(
    labels: np.ndarray,
    cheb_cache: ChebBasisCache,
    context_cache: ContextCache | None,
    model_config: ModelConfig,
    train_config: TrainConfig,
    split: SplitSet,
) -> tuple[ModelState, list[EpochRecord]]:
    """``training.train`` with a bundle per split part: each epoch a
    train-mode pass over the train rows and its Adam step, then an
    eval-mode pass over the val rows for the epoch's AUPRC, 2E passes for
    E epochs.  The metric is looked up on ``training`` at each call, as
    the package's loop does, so a test that patches it patches both."""
    train_config.validate()
    train_ids = np.asarray(split.train, dtype=np.int64)
    val_ids = np.asarray(split.val, dtype=np.int64)
    beta = compute_beta(split, labels)
    terms = loss_labels(labels[train_ids], beta, model_config)
    y_val = labels[val_ids].astype(np.float64)

    state = init_model(model_config, cheb_cache.dim)
    opt = init_optimizer(state)
    train_bundle = gather_rows(cheb_cache, context_cache, train_ids, model_config)
    val_bundle = gather_rows(cheb_cache, context_cache, val_ids, model_config)

    history: list[EpochRecord] = []
    best_auprc = -np.inf
    best_params = np.empty_like(state.params.flat)
    epochs_since_improve = 0
    for epoch in range(train_config.max_epochs):
        breakdown = loss_and_grads_bundle(state, train_bundle, terms, train_config)
        adam_step(state, breakdown.grads.flat, opt, train_config.lr)

        val_out = forward_bundle(state, val_bundle, train_mode=False)
        val_auprc = training.average_precision(val_out.yhat, y_val)
        history.append(EpochRecord(epoch, breakdown.data_loss, val_auprc))

        if val_auprc > best_auprc:
            best_auprc = val_auprc
            np.copyto(best_params, state.params.flat)
            epochs_since_improve = 0
        else:
            epochs_since_improve += 1
        if epochs_since_improve >= train_config.patience:
            break

    if best_auprc > -np.inf:
        np.copyto(state.params.flat, best_params)
    return state, history


def strong_separation_params(seed: int = 0, dim: int = 64, n: int = 4000) -> CsbmParams:
    """A pinned configuration well inside the separability region.

    Regime contrast dominates the 1:9 class imbalance (pi_a * p1 > pi_n * q1
    and pi_a * q2 > pi_n * p2), unit mean gap, mixed regimes, flat degrees.
    """
    n_a = n // 10
    direction = np.ones(dim) / np.sqrt(dim)
    return CsbmParams(
        n_a=n_a,
        n_n=n - n_a,
        mu=-0.5 * direction,
        nu=0.5 * direction,
        p1=0.15,
        q1=0.004,
        p2=0.004,
        q2=0.15,
        regime_frac=0.5,
        seed=seed,
    )
