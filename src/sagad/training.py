"""Losses, hand-written gradients, Adam optimization, and inference.

Parameters, gradients and the two Adam moments are flat f64 vectors in
one layout (``model.param_layout``), so the optimizer, the weight-decay
term and the best-epoch snapshot are whole-vector operations.  The L2
term belongs to the objective: ``loss_and_grads_bundle`` adds its
gradient once, and ``adam_step`` is plain Adam.

Training is full-batch over the (small) labeled set: only the labeled
rows of the basis and context caches are ever materialized, so peak
training memory is independent of graph size.  Inference walks all
nodes, or a range of whole tiles, in fixed tiles of ``SCORE_ROWS`` rows,
all gathered and scored in one preallocated ``model.TileWorkspace``, and
can hand each tile's scores to a sink as they are computed, so scoring
holds one tile whatever n is; the CLI scores its ranges in several
processes.  Caches opened from disk are read by row, one tile at a
time, so this holds for the whole process, not only inside ``train``:
neither training nor scoring ever holds a cache payload in memory.
Training, validation and scoring run the one forward pass, which
computes hidden layers in place; only the training step runs it in
train mode, which also records what the backward pass needs and so
takes no workspace.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from .chebyshev import ChebBasisCache
from .context import ContextCache
from .errors import ConfigError, SplitError
from .graph import SplitSet
from .metrics import average_precision
from .model import (
    ModelConfig,
    ModelState,
    ParamVector,
    RowBundle,
    TileWorkspace,
    backward_bundle,
    forward_bundle,
    gather_rows,
    init_model,
)


@dataclass
class TrainConfig:
    lr: float = 0.01
    weight_decay: float = 0.0
    max_epochs: int = 1000
    patience: int = 50

    def validate(self) -> None:
        if self.max_epochs < 1:
            raise ConfigError(f"max_epochs must be >= 1, got {self.max_epochs}")
        if self.patience < 1:
            raise ConfigError(f"patience must be >= 1, got {self.patience}")
        if self.patience > self.max_epochs:
            raise ConfigError(f"patience ({self.patience}) must not exceed "
                              f"max_epochs ({self.max_epochs})")
        if self.lr <= 0:
            raise ConfigError(f"lr must be > 0, got {self.lr!r}")
        if self.weight_decay < 0:
            raise ConfigError(f"weight_decay must be >= 0, got {self.weight_decay!r}")


ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


@dataclass
class OptimizerState:
    """Adam moment accumulators, laid out as the model's parameter vector."""

    m: np.ndarray
    v: np.ndarray
    step: int = 0


def init_optimizer(state: ModelState) -> OptimizerState:
    return OptimizerState(m=np.zeros_like(state.params.flat), v=np.zeros_like(state.params.flat))


def adam_step(state: ModelState, grad: np.ndarray, opt: OptimizerState, lr: float) -> None:
    """One bias-corrected Adam update of ``state.params.flat``, in place;
    ``grad`` is a vector in the same layout (``ParamVector.flat``)."""
    params = state.params.flat
    if grad.shape != params.shape:
        raise ValueError(f"gradient has shape {grad.shape}, want {params.shape}")
    opt.step += 1
    bc1 = 1.0 - ADAM_BETA1**opt.step
    bc2 = 1.0 - ADAM_BETA2**opt.step
    opt.m *= ADAM_BETA1
    opt.m += (1.0 - ADAM_BETA1) * grad
    opt.v *= ADAM_BETA2
    opt.v += (1.0 - ADAM_BETA2) * (grad * grad)
    params -= lr * (opt.m / bc1) / (np.sqrt(opt.v / bc2) + ADAM_EPS)


# ---------------------------------------------------------------------------
# Losses
# ---------------------------------------------------------------------------


def compute_beta(split: SplitSet, labels: np.ndarray) -> float:
    """Ratio of anomalies to normals over the labeled train+val nodes."""
    ids = np.concatenate([np.asarray(split.train), np.asarray(split.val)]).astype(np.int64)
    y = labels[ids]
    n_anom = int(np.sum(y == 1))
    n_norm = int(np.sum(y == 0))
    if n_anom == 0 or n_norm == 0:
        raise SplitError(
            f"labeled set must contain both classes (anomalies={n_anom}, normals={n_norm})"
        )
    return n_anom / n_norm


def _clamp(p: np.ndarray, eps: float) -> tuple[np.ndarray, np.ndarray]:
    clamped = np.clip(p, eps, 1.0 - eps)
    passthrough = ((p >= eps) & (p <= 1.0 - eps)).astype(np.float64)
    return clamped, passthrough


def bce_loss_grad(
    yhat: np.ndarray, labels: np.ndarray, beta: float, eps: float = 1e-7
) -> tuple[float, np.ndarray]:
    """Class-weighted binary cross entropy and its gradient w.r.t. yhat.

    Probabilities are clamped to [eps, 1-eps] before the logs; the clamp
    contributes zero gradient outside the pass-through region.
    """
    y = np.asarray(labels, dtype=np.float64)
    p, inside = _clamp(np.asarray(yhat, dtype=np.float64), eps)
    n = len(y)
    loss = -np.sum(beta * y * np.log(p) + (1.0 - y) * np.log(1.0 - p)) / n
    d_p = -(beta * y / p - (1.0 - y) / (1.0 - p)) / n
    return float(loss), d_p * inside


def fpg_loss_grad(
    cbar: np.ndarray,
    labels: np.ndarray,
    beta: float,
    p_a: float,
    p_n: float,
    eps: float = 1e-7,
) -> tuple[float, np.ndarray]:
    """Frequency-preference regularizer: a BCE pulling mean fusion gates
    toward p_a for anomalies (weighted by beta) and p_n for normals."""
    y = np.asarray(labels, dtype=np.float64)
    c, inside = _clamp(np.asarray(cbar, dtype=np.float64), eps)
    n = len(y)
    target = np.where(y == 1, p_a, p_n)
    weight = np.where(y == 1, beta, 1.0)
    loss = -np.sum(weight * (target * np.log(c) + (1.0 - target) * np.log(1.0 - c))) / n
    d_c = -(weight * (target / c - (1.0 - target) / (1.0 - c))) / n
    return float(loss), d_c * inside


def data_loss_terms(
    state: ModelState,
    yhat: np.ndarray,
    cbar: np.ndarray | None,
    labels: np.ndarray,
    beta: float,
) -> tuple[float, np.ndarray, np.ndarray | None]:
    """The data part of the training objective on one forward pass's outputs.

    Returns the data loss (class-weighted BCE, plus the FPG term when the
    model uses it) and its gradients w.r.t. yhat and cbar (None without
    FPG).  The objective adds 0.5 * weight_decay * ||params||^2 to the data
    loss; training needs only that term's gradient, which
    ``loss_and_grads_bundle`` adds.
    """
    cfg = state.config
    loss, d_yhat = bce_loss_grad(yhat, labels, beta)
    d_cbar = None
    if cfg.use_fpg:
        if cbar is None:
            raise ValueError("use_fpg requires fusion coefficients in the forward pass")
        fpg, d_cbar = fpg_loss_grad(cbar, labels, beta, cfg.p_a, cfg.p_n)
        loss += fpg
    return loss, d_yhat, d_cbar


# ---------------------------------------------------------------------------
# Gradients
# ---------------------------------------------------------------------------


@dataclass
class LossBreakdown:
    data_loss: float
    grads: ParamVector  # of the objective; ``grads.flat`` is what Adam reads


def loss_and_grads_bundle(
    state: ModelState,
    bundle: RowBundle,
    labels: np.ndarray,
    beta: float,
    train_config: TrainConfig,
) -> LossBreakdown:
    """Data loss and exact gradients of the objective on a pre-gathered row
    bundle.

    The objective is the data loss plus 0.5 * weight_decay * ||params||^2;
    this is the one place the L2 gradient is added.
    """
    trace = forward_bundle(state, bundle, train_mode=True)
    loss, d_yhat, d_cbar = data_loss_terms(state, trace.yhat, trace.cbar, labels, beta)
    grads = backward_bundle(state, trace, d_yhat, d_cbar)
    if train_config.weight_decay:
        grads.flat += train_config.weight_decay * state.params.flat
    return LossBreakdown(data_loss=loss, grads=grads)


# ---------------------------------------------------------------------------
# Training loop
# ---------------------------------------------------------------------------


@dataclass
class EpochRecord:
    epoch: int
    train_loss: float
    val_auprc: float


def train(
    labels: np.ndarray,
    cheb_cache: ChebBasisCache,
    context_cache: ContextCache | None,
    model_config: ModelConfig,
    train_config: TrainConfig,
    split: SplitSet,
) -> tuple[ModelState, list[EpochRecord]]:
    """Full-batch training on the labeled train set with early stopping.

    ``labels`` holds one entry per node (1 anomaly, 0 normal, -1 unknown);
    the graph itself is seen only through the caches.  Keeps the
    checkpoint with the best validation AUPRC; stops once `patience`
    epochs pass without improvement.  Only labeled cache rows are
    gathered, so memory does not scale with graph size.
    """
    train_config.validate()
    train_ids = np.asarray(split.train, dtype=np.int64)
    val_ids = np.asarray(split.val, dtype=np.int64)
    if train_ids.size == 0 or val_ids.size == 0:
        raise SplitError("train and val splits must be non-empty")

    beta = compute_beta(split, labels)
    y_train = labels[train_ids].astype(np.float64)
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
        breakdown = loss_and_grads_bundle(state, train_bundle, y_train, beta, train_config)
        adam_step(state, breakdown.grads.flat, opt, train_config.lr)

        val_out = forward_bundle(state, val_bundle, train_mode=False)
        val_auprc = average_precision(val_out.yhat, y_val)
        history.append(EpochRecord(epoch=epoch, train_loss=breakdown.data_loss, val_auprc=val_auprc))

        if val_auprc > best_auprc:
            best_auprc = val_auprc
            np.copyto(best_params, state.params.flat)
            epochs_since_improve = 0
        else:
            epochs_since_improve += 1
        if epochs_since_improve >= train_config.patience:
            break

    if best_auprc > -np.inf:  # with a NaN AUPRC every epoch, the final parameters stay
        np.copyto(state.params.flat, best_params)
    return state, history


SCORE_ROWS = 1024  # one fixed tiling: a score depends only on the checkpoint and caches


def score_all(
    state: ModelState,
    cheb_cache: ChebBasisCache,
    context_cache: ContextCache | None,
    sink: Callable[[int, np.ndarray], object] | None = None,
    start: int = 0,
    stop: int | None = None,
) -> np.ndarray | None:
    """Eval-mode anomaly probability for nodes ``start:stop`` (every node
    by default), ``SCORE_ROWS`` ids at a time.

    This is the serial kernel of every scoring command, which runs it on
    contiguous row ranges in several processes (``sagad.workers``).
    ``start`` must be a multiple of ``SCORE_ROWS`` and ``stop`` one too or
    n, so a range is cut into the same tiles as the whole graph and scores
    every node to the same bits.  Every tile is gathered and scored in one
    ``TileWorkspace`` of up to ``SCORE_ROWS`` rows, made once: each tile
    reads its id range of every cache block into the same buffers and the
    forward pass writes every intermediate into the same buffers, so
    memory is bounded by one tile, not by n, and after the first tile no
    tile-sized array is allocated, freed, or faulted in again.  With ``sink``, each tile's scores go to
    ``sink(lo, scores)`` as they are computed (``scores`` holds nodes
    ``lo, lo + 1, ...`` and is overwritten by the next tile) and nothing
    is returned; without, the range's scores are returned as one array.
    """
    n = cheb_cache.num_nodes
    stop = n if stop is None else stop
    if not 0 <= start <= stop <= n or start % SCORE_ROWS or (stop % SCORE_ROWS and stop != n):
        raise ValueError(f"rows {start}:{stop} are not whole {SCORE_ROWS}-row tiles of [0, {n})")
    scores = None
    if sink is None:
        scores = np.empty(stop - start, dtype=np.float64)

        def sink(lo: int, tile: np.ndarray) -> None:
            scores[lo - start : lo - start + tile.size] = tile

    ws = TileWorkspace(min(SCORE_ROWS, stop - start))
    for lo in range(start, stop, SCORE_ROWS):
        hi = min(lo + SCORE_ROWS, stop)
        bundle = gather_rows(cheb_cache, context_cache, slice(lo, hi), state.config, ws)
        sink(lo, forward_bundle(state, bundle, ws=ws).yhat)
    return scores
