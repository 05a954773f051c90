"""Losses, hand-written gradients, Adam optimization, and inference.

Parameters, gradients and the two Adam moments are flat f64 vectors in
one layout (``model.param_layout``), so the optimizer, the weight-decay
term and the best-epoch snapshot are whole-vector operations; the
gradient vector and Adam's scratch vectors are made once per run and
written in place every epoch.  The L2 term belongs to the objective:
``loss_and_grads_bundle`` adds its gradient once, and ``adam_step`` is
plain Adam.

Training is full-batch over the (small) labeled set: only the labeled
rows of the basis and context caches are ever materialized, so peak
training memory is independent of graph size.  The train and val rows
are one bundle of two parts, and each epoch makes one forward pass over
it: the pass that starts epoch e + 1 is also epoch e's validation (see
``train``).  Inference walks all
nodes, or a range of whole tiles, in fixed tiles of ``SCORE_ROWS`` rows,
all gathered and scored in one preallocated ``model.TileWorkspace``, and
can hand each tile's scores to a sink as they are computed, so scoring
holds one tile whatever n is; the CLI scores its ranges in several
processes.  Caches opened from disk are read by row, one tile at a
time, so this holds for the whole process, not only inside ``train``:
neither training nor scoring ever holds a cache payload in memory.
Training, validation and scoring run the one forward pass, which
computes hidden layers in place; only training runs it in train mode,
which also records what the backward pass needs and so takes no
workspace.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from .chebyshev import ChebBasisCache
from .context import ContextCache
from .errors import ConfigError, SplitError
from .graph import SplitSet
from .metrics import average_precision
from .model import (
    ForwardTrace,
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
        for key in ("lr", "weight_decay"):
            if not math.isfinite(getattr(self, key)):
                raise ConfigError(f"{key} must be a finite number, got {getattr(self, key)!r}")
        if self.lr <= 0:
            raise ConfigError(f"lr must be > 0, got {self.lr!r}")
        if self.weight_decay < 0:
            raise ConfigError(f"weight_decay must be >= 0, got {self.weight_decay!r}")


ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


@dataclass
class OptimizerState:
    """Adam moment accumulators, laid out as the model's parameter vector,
    and two scratch vectors of that layout for the update's terms."""

    m: np.ndarray
    v: np.ndarray
    step: int = 0

    def __post_init__(self) -> None:
        self.scratch = (np.empty_like(self.m), np.empty_like(self.m))


def init_optimizer(state: ModelState) -> OptimizerState:
    return OptimizerState(m=np.zeros_like(state.params.flat), v=np.zeros_like(state.params.flat))


def adam_step(state: ModelState, grad: np.ndarray, opt: OptimizerState, lr: float) -> None:
    """One bias-corrected Adam update of ``state.params.flat``, in place;
    ``grad`` is a vector in the same layout (``ParamVector.flat``).

    The update is ``m = b1 m + (1 - b1) g``, ``v = b2 v + (1 - b2) g^2``,
    ``params -= lr (m / bc1) / (sqrt(v / bc2) + eps)``, each operation in
    that order into ``opt``'s scratch vectors, so no step allocates.
    """
    params = state.params.flat
    if grad.shape != params.shape:
        raise ValueError(f"gradient has shape {grad.shape}, want {params.shape}")
    opt.step += 1
    bc1 = 1.0 - ADAM_BETA1**opt.step
    bc2 = 1.0 - ADAM_BETA2**opt.step
    a, b = opt.scratch
    opt.m *= ADAM_BETA1
    opt.m += np.multiply(1.0 - ADAM_BETA1, grad, out=a)
    opt.v *= ADAM_BETA2
    opt.v += np.multiply(1.0 - ADAM_BETA2, np.multiply(grad, grad, out=a), out=a)
    np.multiply(lr, np.divide(opt.m, bc1, out=a), out=a)
    np.sqrt(np.divide(opt.v, bc2, out=b), out=b)
    b += ADAM_EPS
    params -= np.divide(a, b, out=a)


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


LOSS_EPS = 1e-7  # probabilities are clamped to [LOSS_EPS, 1 - LOSS_EPS] before the logs


def _clamp(p: np.ndarray, eps: float) -> tuple[np.ndarray, np.ndarray]:
    """``p`` clipped to [eps, 1 - eps] (a NaN stays NaN), and the mask of
    where it passed through."""
    clamped = np.minimum(np.maximum(p, eps), 1.0 - eps)
    passthrough = (p >= eps) & (p <= 1.0 - eps)
    return clamped, passthrough


@dataclass
class LossLabels:
    """What the data loss needs of one batch's labels, formed once per batch:
    the BCE's class terms ``beta * y`` and ``1 - y`` and, with FPG, the
    per-node gate ``target`` (p_a for anomalies, p_n for normals),
    ``1 - target`` and class ``weight`` (beta for anomalies, 1 for normals).
    """

    pos: np.ndarray
    neg: np.ndarray
    fpg: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None


def loss_labels(labels: np.ndarray, beta: float, config: ModelConfig | None = None) -> LossLabels:
    """The ``LossLabels`` of ``labels`` (1 anomaly, 0 normal); the FPG terms
    only if ``config`` uses the FPG loss."""
    y = np.asarray(labels, dtype=np.float64)
    fpg = None
    if config is not None and config.use_fpg:
        target = np.where(y == 1, config.p_a, config.p_n)
        fpg = (target, 1.0 - target, np.where(y == 1, beta, 1.0))
    return LossLabels(beta * y, 1.0 - y, fpg)


def bce_loss_grad(
    yhat: np.ndarray, labels: LossLabels, eps: float = LOSS_EPS
) -> tuple[float, np.ndarray]:
    """Class-weighted binary cross entropy and its gradient w.r.t. yhat.

    Probabilities are clamped to [eps, 1-eps] before the logs; the clamp
    contributes zero gradient outside the pass-through region.
    """
    pos, neg = labels.pos, labels.neg
    p, inside = _clamp(np.asarray(yhat, dtype=np.float64), eps)
    q = 1.0 - p
    n = len(pos)
    loss = -np.add.reduce(pos * np.log(p) + neg * np.log(q)) / n
    d_p = -(pos / p - neg / q) / n
    return float(loss), d_p * inside


def fpg_loss_grad(
    cbar: np.ndarray, labels: LossLabels, eps: float = LOSS_EPS
) -> tuple[float, np.ndarray]:
    """Frequency-preference regularizer: a BCE pulling mean fusion gates
    toward p_a for anomalies (weighted by beta) and p_n for normals."""
    target, off_target, weight = labels.fpg
    c, inside = _clamp(np.asarray(cbar, dtype=np.float64), eps)
    off_c = 1.0 - c
    n = len(target)
    loss = -np.add.reduce(weight * (target * np.log(c) + off_target * np.log(off_c))) / n
    d_c = -(weight * (target / c - off_target / off_c)) / n
    return float(loss), d_c * inside


def data_loss_terms(
    state: ModelState,
    yhat: np.ndarray,
    cbar: np.ndarray | None,
    labels: LossLabels,
) -> tuple[float, np.ndarray, np.ndarray | None]:
    """The data part of the training objective on one forward pass's outputs.

    Returns the data loss (class-weighted BCE, plus the FPG term when the
    model uses it) and its gradients w.r.t. yhat and cbar (None without
    FPG).  ``labels`` is ``loss_labels`` of the rows under the state's
    config.  The objective adds 0.5 * weight_decay * ||params||^2 to the
    data loss; training needs only that term's gradient, which
    ``loss_and_grads_bundle`` adds.
    """
    loss, d_yhat = bce_loss_grad(yhat, labels)
    d_cbar = None
    if state.config.use_fpg:
        if cbar is None:
            raise ValueError("use_fpg requires fusion coefficients in the forward pass")
        fpg, d_cbar = fpg_loss_grad(cbar, labels)
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
    labels: LossLabels,
    train_config: TrainConfig,
    grads: ParamVector | None = None,
    trace: ForwardTrace | None = None,
) -> LossBreakdown:
    """Data loss and exact gradients of the objective on the first part of a
    pre-gathered row bundle, whose ``loss_labels`` are ``labels``.

    The objective is the data loss plus 0.5 * weight_decay * ||params||^2;
    this is the one place the L2 gradient is added.  The gradients are
    written into ``grads`` if given.  ``trace`` is a train-mode
    ``forward_bundle`` of ``bundle`` at the state's parameters, run here
    if not given.
    """
    if trace is None:
        trace = forward_bundle(state, bundle, train_mode=True)
    rows = bundle.parts()[0]
    cbar = None if trace.cbar is None else trace.cbar[rows]
    loss, d_yhat, d_cbar = data_loss_terms(state, trace.yhat[rows], cbar, labels)
    grads = backward_bundle(state, trace, d_yhat, d_cbar, grads)
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

    The train rows and then the val rows are gathered into one bundle
    of two parts, and each epoch makes one train-mode forward pass over
    it.  Its train rows give epoch e's loss and the gradient of its Adam
    step; its val rows, at the parameters epoch e - 1's step left, give
    epoch e - 1's validation AUPRC.  So the pass that starts epoch e + 1
    is epoch e's validation, made before the early-stop check, and the
    loss and backward pass of epoch e + 1 run only after it: E epochs
    make E + 1 forward and E backward passes, where a train pass and a
    validation pass per epoch made 2E forward passes.  Each part's rows have
    the bits of a pass over that part alone (``model.forward_bundle``),
    so the history, the best epoch, the early stop and the parameters
    are those of the two passes.
    """
    train_config.validate()
    train_ids = np.asarray(split.train, dtype=np.int64)
    val_ids = np.asarray(split.val, dtype=np.int64)
    if train_ids.size == 0 or val_ids.size == 0:
        raise SplitError("train and val splits must be non-empty")

    beta = compute_beta(split, labels)
    train_labels = loss_labels(labels[train_ids], beta, model_config)
    y_val = labels[val_ids].astype(np.float64)

    state = init_model(model_config, cheb_cache.dim)
    opt = init_optimizer(state)
    grads = ParamVector(state.params.layout)
    bundle = gather_rows(cheb_cache, context_cache, np.concatenate([train_ids, val_ids]),
                         model_config)
    bundle.bounds = (0, train_ids.size, train_ids.size + val_ids.size)

    history: list[EpochRecord] = []
    best_auprc = -np.inf
    best_params = np.empty_like(state.params.flat)
    epochs_since_improve = 0

    trace = forward_bundle(state, bundle, train_mode=True)
    for epoch in range(train_config.max_epochs):
        breakdown = loss_and_grads_bundle(state, bundle, train_labels, train_config, grads, trace)
        del trace  # its arrays are freed before the next pass makes its own
        adam_step(state, grads.flat, opt, train_config.lr)
        # the next pass: its val rows validate this epoch, its train rows start the next
        trace = forward_bundle(state, bundle, train_mode=True)
        val_auprc = average_precision(trace.yhat[train_ids.size :], y_val)
        history.append(EpochRecord(epoch=epoch, train_loss=breakdown.data_loss,
                                   val_auprc=val_auprc))

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
