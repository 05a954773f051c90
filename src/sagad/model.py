"""Dual-pass spectral filter model with node-adaptive fusion.

A shared non-negative coefficient vector is turned into a monotone
high-pass filter (prefix sums) and a monotone low-pass filter (clamped
prefix differences); both are mapped to Chebyshev expansion weights by
interpolation at the Chebyshev nodes.  Low- and high-pass embeddings are
read from the precomputed basis cache and fused per node and per feature
dimension by a sigmoid-gated MLP conditioned on subgraph context.  All
gradients are computed by hand in plain numpy.
"""

from __future__ import annotations

import functools
import json
import os
import struct
from dataclasses import asdict, dataclass

import numpy as np

from .cachefile import CacheFile, atomic_file, write_array
from .chebyshev import ChebBasisCache, chebyshev_nodes, chebyshev_series
from .context import ContextCache
from .errors import CacheFormatError, ConfigError

FUSION_MODES = ("adaptive", "mean", "concat")
CONTEXT_MODES = ("rq", "full_khop", "features_only")
FILTER_MODES = ("dual", "low_only", "high_only")
ACTIVATIONS = ("relu", "elu", "tanh", "identity")
NORMALIZATIONS = ("none", "layer")

CHECKPOINT_MAGIC = b"SGMDL001"
_BLOB_LEN = struct.Struct("<Q")  # byte length of the JSON header that follows

_LN_EPS = 1e-5
_SEED_DOMAIN_MODEL = 0x3A9
_PURPOSE_INIT = 1
_PURPOSE_DROPOUT = 2
_NEEDS_TRAIN_FORWARD = "a backward pass needs the trace of a train-mode forward (train_mode=True)"


# ---------------------------------------------------------------------------
# Configuration
# ---------------------------------------------------------------------------


@dataclass
class ModelConfig:
    K: int = 3
    p_a: float = 0.1
    p_n: float = 0.9
    fusion_mode: str = "adaptive"
    context_mode: str = "rq"
    filter_mode: str = "dual"
    use_fpg: bool = True
    seed: int = 0
    hidden_dim: int = 64
    mlp_depth: int = 2
    activation: str = "relu"
    normalization: str = "none"
    dropout: float = 0.0
    share_gamma: bool = True

    def validate(self) -> None:
        if self.K < 1:
            raise ConfigError(f"K must be >= 1, got {self.K}")
        for p, name in ((self.p_a, "p_a"), (self.p_n, "p_n")):
            if not 0.0 <= p <= 1.0:
                raise ConfigError(f"{name} must lie in [0, 1], got {p}")
        if self.p_a > self.p_n:
            raise ConfigError(f"p_a ({self.p_a}) must not exceed p_n ({self.p_n})")
        if self.fusion_mode not in FUSION_MODES:
            raise ConfigError(f"fusion_mode must be one of {FUSION_MODES}")
        if self.context_mode not in CONTEXT_MODES:
            raise ConfigError(f"context_mode must be one of {CONTEXT_MODES}")
        if self.filter_mode not in FILTER_MODES:
            raise ConfigError(f"filter_mode must be one of {FILTER_MODES}")
        if self.activation not in ACTIVATIONS:
            raise ConfigError(f"activation must be one of {ACTIVATIONS}")
        if self.normalization not in NORMALIZATIONS:
            raise ConfigError(f"normalization must be one of {NORMALIZATIONS}")
        if self.mlp_depth not in (1, 2, 3):
            raise ConfigError(f"mlp_depth must be 1, 2, or 3, got {self.mlp_depth}")
        if not 0.0 <= self.dropout < 1.0:
            raise ConfigError(f"dropout must lie in [0, 1), got {self.dropout}")

    def uses_fusion_mlp(self) -> bool:
        """C is materialized for adaptive fusion or for the preference loss."""
        return (self.filter_mode == "dual" and self.fusion_mode == "adaptive") or self.use_fpg

    def needs_context(self) -> bool:
        return self.uses_fusion_mlp() and self.context_mode != "features_only"


# ---------------------------------------------------------------------------
# Filter parameterization
# ---------------------------------------------------------------------------


@dataclass
class FilterParams:
    """Unconstrained parameters; softplus maps them to non-negative gammas.

    With ``raw_high`` unset, one vector drives both filter shapes; setting
    it decouples the low- and high-pass parameterizations.
    """

    raw: np.ndarray
    raw_high: np.ndarray | None = None

    @property
    def shared(self) -> bool:
        return self.raw_high is None


def softplus(x: np.ndarray) -> np.ndarray:
    x = np.asarray(x, dtype=np.float64)
    return np.log1p(np.exp(-np.abs(x))) + np.maximum(x, 0.0)


def inv_softplus(y: float) -> float:
    return float(np.log(np.expm1(y)))


def _sigmoid(x: np.ndarray) -> np.ndarray:
    """Logistic function; exp is taken only of -|x|, so it never overflows.

    Every entry gets e = exp(-x) if x >= 0 else exp(x), and then 1/(1+e)
    or e/(1+e) respectively.  Both branches are formed for all entries and
    ``where`` picks one, which avoids a boolean gather and scatter; the
    sign of the exponent is chosen with ``where`` rather than ``-abs(x)``
    so that a NaN keeps its sign bit.
    """
    pos = x >= 0
    e = np.exp(np.where(pos, -x, x))
    d = 1.0 + e
    return np.where(pos, 1.0 / d, e / d)


def reparam_filter_values(params: FilterParams) -> tuple[np.ndarray, np.ndarray]:
    """Monotone filter values at the interpolation nodes.

    High-pass: prefix sums of the gammas (non-decreasing).  Low-pass:
    gamma_0 minus the prefix sums of the remaining gammas, floored at 0
    (non-increasing).  Index 0 of both equals gamma_0.
    """
    g_low = softplus(params.raw)
    g_high = g_low if params.shared else softplus(params.raw_high)
    gamma_high = np.cumsum(g_high)
    prefix = g_low[0] - np.cumsum(g_low[1:])
    gamma_low = np.concatenate([[g_low[0]], np.maximum(prefix, 0.0)])
    return gamma_low, gamma_high


@functools.lru_cache(maxsize=16)
def interpolation_matrix(order: int) -> np.ndarray:
    """Matrix M with w = M gamma: w_k = (2 - delta_k0)/(K+1) sum_i gamma_i T_k(s_i).

    Built once per order; the returned array is read-only because every
    caller shares it.
    """
    nodes = chebyshev_nodes(order)
    m = order + 1
    t = np.empty((m, m))
    t[0] = 1.0
    if m > 1:
        t[1] = nodes
    for k in range(2, m):
        t[k] = 2.0 * nodes * t[k - 1] - t[k - 2]
    scale = np.full(m, 2.0 / m)
    scale[0] = 1.0 / m
    out = scale[:, None] * t
    out.flags.writeable = False
    return out


def cheb_weights(gamma_values: np.ndarray) -> np.ndarray:
    """Expansion weights whose Chebyshev series interpolates the node values."""
    gamma_values = np.asarray(gamma_values, dtype=np.float64)
    return interpolation_matrix(len(gamma_values) - 1) @ gamma_values


def filter_response(weights: np.ndarray, t: np.ndarray | float):
    """Evaluate the filter polynomial at scaled-spectrum points in [-1, 1]."""
    scalar = np.isscalar(t)
    out = chebyshev_series(weights, t)
    return float(out) if scalar else out


# ---------------------------------------------------------------------------
# MLP parameters
# ---------------------------------------------------------------------------


@dataclass
class MlpLayer:
    weight: np.ndarray
    bias: np.ndarray
    ln_gain: np.ndarray | None = None
    ln_bias: np.ndarray | None = None


@dataclass
class MlpParams:
    layers: list[MlpLayer]
    activation: str = "relu"
    normalization: str = "none"
    dropout: float = 0.0

    @property
    def depth(self) -> int:
        return len(self.layers)

    @property
    def in_dim(self) -> int:
        return self.layers[0].weight.shape[0]

    @property
    def out_dim(self) -> int:
        return self.layers[-1].weight.shape[1]


def init_mlp(
    rng: np.random.Generator,
    in_dim: int,
    hidden_dim: int,
    out_dim: int,
    depth: int,
    activation: str,
    normalization: str,
    dropout: float,
) -> MlpParams:
    dims = [in_dim] + [hidden_dim] * (depth - 1) + [out_dim]
    layers = []
    for i in range(depth):
        fan_in = dims[i]
        bound = 1.0 / np.sqrt(fan_in)
        weight = rng.uniform(-bound, bound, size=(dims[i], dims[i + 1]))
        bias = np.zeros(dims[i + 1])
        ln_gain = ln_bias = None
        if normalization == "layer" and i < depth - 1:
            ln_gain = np.ones(dims[i + 1])
            ln_bias = np.zeros(dims[i + 1])
        layers.append(MlpLayer(weight=weight, bias=bias, ln_gain=ln_gain, ln_bias=ln_bias))
    return MlpParams(layers=layers, activation=activation, normalization=normalization, dropout=dropout)


def _activate(name: str, x: np.ndarray) -> np.ndarray:
    if name == "relu":
        return np.maximum(x, 0.0)
    if name == "elu":
        return np.where(x > 0, x, np.expm1(np.minimum(x, 0.0)))
    if name == "tanh":
        return np.tanh(x)
    return x


def _activate_grad(name: str, pre: np.ndarray, out: np.ndarray) -> np.ndarray:
    if name == "relu":
        return (pre > 0).astype(np.float64)
    if name == "elu":
        return np.where(pre > 0, 1.0, out + 1.0)
    if name == "tanh":
        return 1.0 - out * out
    return np.ones_like(pre)


def _row_stable_matmul(x: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Matmul that keeps single-row batches on the multi-row BLAS path.

    Single-row inputs dispatch to a different BLAS kernel (GEMV) with a
    different accumulation order; padding to two rows keeps every batch on
    the GEMM path.  This does not make rows bit-exact across batch sizes:
    within GEMM, a row's rounding can still depend on its position in the
    batch (seen for the classifier's ``(B, hidden) @ (hidden, 1)`` layer).
    """
    if x.shape[0] == 1:
        return (np.concatenate([x, np.zeros_like(x)]) @ w)[:1]
    return x @ w


def mlp_forward(
    params: MlpParams,
    x: np.ndarray,
    train_mode: bool = False,
    dropout_rng: np.random.Generator | None = None,
) -> tuple[np.ndarray, list[dict] | None]:
    """Forward pass; returns the output and, in train mode, the per-layer
    trace the backward pass needs.

    Hidden layers apply linear -> (layer norm) -> activation -> (dropout);
    the final layer is linear only.  Dropout is inverted and only active in
    train mode with an explicit rng.  In eval mode the trace is None and
    each hidden layer reuses its own output buffer (ReLU is applied in
    place), so a layer's temporaries are freed before the next layer runs.
    """
    trace: list[dict] | None = [] if train_mode else None
    out = np.asarray(x, dtype=np.float64)
    last = params.depth - 1
    for i, layer in enumerate(params.layers):
        pre = _row_stable_matmul(out, layer.weight)
        pre += layer.bias
        if i == last:
            if trace is not None:
                trace.append({"x": out})
            out = pre
            break
        h = pre
        ln = None
        if layer.ln_gain is not None:
            mu = h.mean(axis=1, keepdims=True)
            var = h.var(axis=1, keepdims=True)
            invstd = 1.0 / np.sqrt(var + _LN_EPS)
            xhat = (h - mu) * invstd
            ln = (invstd, xhat)
            h = layer.ln_gain * xhat + layer.ln_bias
        if trace is None:
            if params.activation == "relu":
                out = np.maximum(h, 0.0, out=h)
            else:
                out = _activate(params.activation, h)
            continue
        act = _activate(params.activation, h)
        entry: dict = {"x": out, "normed": h, "act": act}
        if ln is not None:
            entry["ln"] = ln
        if params.dropout > 0.0:
            if dropout_rng is None:
                raise ValueError("train-mode dropout requires an rng")
            mask = dropout_rng.random(act.shape) >= params.dropout
            entry["mask"] = mask
            out = act * mask / (1.0 - params.dropout)
        else:
            out = act
        trace.append(entry)
    return out, trace


def mlp_backward(
    params: MlpParams,
    trace: list[dict] | None,
    d_out: np.ndarray,
) -> tuple[list[MlpLayer], np.ndarray]:
    """Gradients for every layer plus the gradient w.r.t. the input.

    ``trace`` is the one a train-mode ``mlp_forward`` returned; an eval-mode
    forward records none and is rejected.
    """
    if trace is None or len(trace) != params.depth:
        raise ValueError(_NEEDS_TRAIN_FORWARD)
    grads: list[MlpLayer] = [None] * params.depth  # type: ignore[list-item]
    d_cur = np.asarray(d_out, dtype=np.float64)
    last = params.depth - 1
    for i in range(last, -1, -1):
        layer = params.layers[i]
        entry = trace[i]
        if i < last:
            if "mask" in entry:
                d_cur = d_cur * entry["mask"] / (1.0 - params.dropout)
            d_cur = d_cur * _activate_grad(params.activation, entry["normed"], entry["act"])
            d_gain = d_bias_ln = None
            if layer.ln_gain is not None:
                invstd, xhat = entry["ln"]
                d_gain = np.sum(d_cur * xhat, axis=0)
                d_bias_ln = np.sum(d_cur, axis=0)
                d_xhat = d_cur * layer.ln_gain
                d_cur = invstd * (
                    d_xhat
                    - d_xhat.mean(axis=1, keepdims=True)
                    - xhat * (d_xhat * xhat).mean(axis=1, keepdims=True)
                )
        else:
            d_gain = d_bias_ln = None
        d_weight = entry["x"].T @ d_cur
        d_bias = np.sum(d_cur, axis=0)
        grads[i] = MlpLayer(weight=d_weight, bias=d_bias, ln_gain=d_gain, ln_bias=d_bias_ln)
        d_cur = d_cur @ layer.weight.T
    return grads, d_cur


# ---------------------------------------------------------------------------
# Model state
# ---------------------------------------------------------------------------


@dataclass
class ModelState:
    filter: FilterParams
    fusion_mlp: MlpParams | None
    classifier_mlp: MlpParams
    config: ModelConfig
    dim: int


def init_model(config: ModelConfig, dim: int) -> ModelState:
    """Seeded initialization: gammas near 1/(K+1), MLP weights +-1/sqrt(fan_in)."""
    config.validate()
    rng = np.random.default_rng(
        np.random.SeedSequence([_SEED_DOMAIN_MODEL, config.seed, _PURPOSE_INIT])
    )
    raw0 = inv_softplus(1.0 / (config.K + 1))
    raw = np.full(config.K + 1, raw0)
    raw_high = None if config.share_gamma else np.full(config.K + 1, raw0)
    filter_params = FilterParams(raw=raw, raw_high=raw_high)

    fusion = None
    if config.uses_fusion_mlp():
        fusion_in = dim if config.context_mode == "features_only" else 2 * dim
        fusion = init_mlp(
            rng,
            fusion_in,
            config.hidden_dim,
            dim,
            config.mlp_depth,
            config.activation,
            config.normalization,
            config.dropout,
        )
    clf_in = 2 * dim if (config.filter_mode == "dual" and config.fusion_mode == "concat") else dim
    classifier = init_mlp(
        rng,
        clf_in,
        config.hidden_dim,
        1,
        config.mlp_depth,
        config.activation,
        config.normalization,
        config.dropout,
    )
    return ModelState(
        filter=filter_params,
        fusion_mlp=fusion,
        classifier_mlp=classifier,
        config=config,
        dim=dim,
    )


def dropout_rng(seed: int, epoch: int) -> np.random.Generator:
    return np.random.default_rng(
        np.random.SeedSequence([_SEED_DOMAIN_MODEL, seed, _PURPOSE_DROPOUT, epoch])
    )


def iter_params(state: ModelState):
    """Yield (name, array) for every trainable array, in a fixed order."""
    yield "filter.raw", state.filter.raw
    if state.filter.raw_high is not None:
        yield "filter.raw_high", state.filter.raw_high
    for prefix, mlp in (("fusion", state.fusion_mlp), ("classifier", state.classifier_mlp)):
        if mlp is None:
            continue
        for i, layer in enumerate(mlp.layers):
            yield f"{prefix}.{i}.weight", layer.weight
            yield f"{prefix}.{i}.bias", layer.bias
            if layer.ln_gain is not None:
                yield f"{prefix}.{i}.ln_gain", layer.ln_gain
                yield f"{prefix}.{i}.ln_bias", layer.ln_bias


# ---------------------------------------------------------------------------
# Row gathering and forward pass
# ---------------------------------------------------------------------------


@dataclass
class RowBundle:
    """Cached rows for one batch; the only graph-sized state is outside."""

    block_rows: list[np.ndarray]
    feat_rows: np.ndarray
    ctx_rows: np.ndarray | None


def gather_rows(
    cheb_cache: ChebBasisCache,
    context_cache: ContextCache | None,
    ids: np.ndarray | slice,
    config: ModelConfig,
) -> RowBundle:
    """The batch's rows of every basis block (and the context), as float64.

    ``ids`` is a slice or a 1-D integer array; the cache blocks may be
    ndarrays or ``CacheRows`` read from disk, which index the same way.
    """
    if cheb_cache.order != config.K:
        raise ValueError(f"basis cache order {cheb_cache.order} does not match model K={config.K}")
    if not isinstance(ids, slice):
        ids = np.asarray(ids)
        if ids.size and int(ids.min()) < 0:
            raise ValueError("negative batch id")
        if ids.size and int(ids.max()) >= cheb_cache.num_nodes:
            raise ValueError("batch id out of range for the basis cache")
    block_rows = [np.asarray(b[ids], dtype=np.float64) for b in cheb_cache.blocks]
    feat_rows = block_rows[0]
    ctx_rows = None
    if config.needs_context():
        if context_cache is None:
            raise ValueError(f"context_mode={config.context_mode!r} requires a context cache")
        if context_cache.num_nodes != cheb_cache.num_nodes:
            raise ValueError("context cache and basis cache disagree on num_nodes")
        ctx_rows = np.asarray(context_cache.context[ids], dtype=np.float64)
    return RowBundle(block_rows=block_rows, feat_rows=feat_rows, ctx_rows=ctx_rows)


def _combine(block_rows: list[np.ndarray], weights: np.ndarray) -> np.ndarray:
    out = weights[0] * block_rows[0]
    for k in range(1, len(block_rows)):
        out += weights[k] * block_rows[k]
    return out


def _fusion_gate(state, context_rows, feature_rows, train_mode, rng):
    """Per-node, per-dimension fusion gate in (0, 1), and the MLP trace
    (None in eval mode)."""
    if state.config.context_mode == "features_only":
        inp = feature_rows
    else:
        if context_rows is None:
            raise ValueError("context rows required for this context mode")
        if context_rows.shape != feature_rows.shape:
            raise ValueError(
                f"context rows {context_rows.shape} do not align with features {feature_rows.shape}"
            )
        inp = np.concatenate([context_rows, feature_rows], axis=1)
    pre, trace = mlp_forward(state.fusion_mlp, inp, train_mode, rng)
    return _sigmoid(pre), trace


def fuse(z_low: np.ndarray, z_high: np.ndarray, c: np.ndarray | None, fusion_mode: str) -> np.ndarray:
    if fusion_mode == "adaptive":
        if c is None or c.shape != z_low.shape:
            raise ValueError("adaptive fusion requires coefficients aligned with embeddings")
        return c * z_low + (1.0 - c) * z_high
    if fusion_mode == "mean":
        return 0.5 * (z_low + z_high)
    if fusion_mode == "concat":
        return np.concatenate([z_low, z_high], axis=1)
    raise ValueError(f"unknown fusion mode {fusion_mode!r}")


@dataclass
class ForwardTrace:
    bundle: RowBundle
    gamma_low: np.ndarray
    z_low: np.ndarray | None
    z_high: np.ndarray | None
    coef: np.ndarray | None
    fusion_trace: list | None
    z: np.ndarray
    clf_trace: list | None
    yhat: np.ndarray
    cbar: np.ndarray | None


def forward_bundle(
    state: ModelState,
    bundle: RowBundle,
    train_mode: bool = False,
    rng: np.random.Generator | None = None,
) -> ForwardTrace:
    """The model's forward pass on one batch of gathered rows.

    ``yhat`` holds the anomaly probabilities, ``coef`` the fusion gate
    and ``cbar`` its per-node mean (both None without a fusion MLP);
    the rest is what ``backward_bundle`` needs.  Only a train-mode pass
    records the MLP traces; in eval mode ``fusion_trace`` and
    ``clf_trace`` are None and the MLPs keep no per-layer arrays.
    """
    cfg = state.config
    gamma_low, gamma_high = reparam_filter_values(state.filter)
    z_low = z_high = None
    if cfg.filter_mode != "high_only":
        z_low = _combine(bundle.block_rows, cheb_weights(gamma_low))
    if cfg.filter_mode != "low_only":
        z_high = _combine(bundle.block_rows, cheb_weights(gamma_high))

    coef = None
    fusion_trace = None
    if state.fusion_mlp is not None:
        coef, fusion_trace = _fusion_gate(state, bundle.ctx_rows, bundle.feat_rows, train_mode, rng)

    if cfg.filter_mode == "low_only":
        z = z_low
    elif cfg.filter_mode == "high_only":
        z = z_high
    else:
        z = fuse(z_low, z_high, coef if cfg.fusion_mode == "adaptive" else None, cfg.fusion_mode)

    logits, clf_trace = mlp_forward(state.classifier_mlp, z, train_mode, rng)
    yhat = _sigmoid(logits[:, 0])
    cbar = coef.mean(axis=1) if coef is not None else None
    return ForwardTrace(
        bundle=bundle,
        gamma_low=gamma_low,
        z_low=z_low,
        z_high=z_high,
        coef=coef,
        fusion_trace=fusion_trace,
        z=z,
        clf_trace=clf_trace,
        yhat=yhat,
        cbar=cbar,
    )


# ---------------------------------------------------------------------------
# Backward pass
# ---------------------------------------------------------------------------


def backward_bundle(
    state: ModelState,
    trace: ForwardTrace,
    d_yhat: np.ndarray,
    d_cbar: np.ndarray | None,
) -> dict[str, np.ndarray]:
    """Exact gradients of a scalar objective given d(obj)/d(yhat) and d(obj)/d(cbar).

    ``trace`` must come from a train-mode forward; an eval-mode one has no
    MLP traces and is rejected with a ValueError.
    """
    cfg = state.config
    grads: dict[str, np.ndarray] = {}

    d_logits = (d_yhat * trace.yhat * (1.0 - trace.yhat))[:, None]
    clf_grads, d_z = mlp_backward(state.classifier_mlp, trace.clf_trace, d_logits)
    _store_mlp_grads(grads, "classifier", clf_grads)

    d_coef = None
    if trace.coef is not None and d_cbar is not None:
        d_coef = np.broadcast_to(
            (d_cbar / trace.coef.shape[1])[:, None], trace.coef.shape
        ).copy()

    d_z_low = d_z_high = None
    if cfg.filter_mode == "low_only":
        d_z_low = d_z
    elif cfg.filter_mode == "high_only":
        d_z_high = d_z
    elif cfg.fusion_mode == "adaptive":
        d_z_low = d_z * trace.coef
        d_z_high = d_z * (1.0 - trace.coef)
        dc = d_z * (trace.z_low - trace.z_high)
        d_coef = dc if d_coef is None else d_coef + dc
    elif cfg.fusion_mode == "mean":
        d_z_low = 0.5 * d_z
        d_z_high = 0.5 * d_z
    else:  # concat
        d = trace.z_low.shape[1]
        d_z_low = d_z[:, :d]
        d_z_high = d_z[:, d:]

    if d_coef is not None:
        d_pre = d_coef * trace.coef * (1.0 - trace.coef)
        fusion_grads, _ = mlp_backward(state.fusion_mlp, trace.fusion_trace, d_pre)
        _store_mlp_grads(grads, "fusion", fusion_grads)

    k1 = len(trace.bundle.block_rows)
    d_w_low = np.zeros(k1)
    d_w_high = np.zeros(k1)
    for k, block in enumerate(trace.bundle.block_rows):
        if d_z_low is not None:
            d_w_low[k] = float(np.vdot(d_z_low, block))
        if d_z_high is not None:
            d_w_high[k] = float(np.vdot(d_z_high, block))

    m = interpolation_matrix(k1 - 1)
    d_gamma_low = m.T @ d_w_low
    d_gamma_high = m.T @ d_w_high

    # high-pass prefix sums: d(base_j) = sum_{i >= j} d(gamma_high_i)
    d_base_high = np.cumsum(d_gamma_high[::-1])[::-1]
    # low-pass clamped prefix differences: no gradient where the floor at
    # 0 is active (gamma_low[1:] = max(prefix, 0) is 0 exactly there)
    masked = np.where(trace.gamma_low[1:] == 0.0, 0.0, d_gamma_low[1:])
    d_base_low = np.zeros(k1)
    d_base_low[0] = d_gamma_low[0] + masked.sum()
    d_base_low[1:] = -np.cumsum(masked[::-1])[::-1]

    if state.filter.shared:
        d_raw = (d_base_low + d_base_high) * _sigmoid(state.filter.raw)
        grads["filter.raw"] = d_raw
    else:
        grads["filter.raw"] = d_base_low * _sigmoid(state.filter.raw)
        grads["filter.raw_high"] = d_base_high * _sigmoid(state.filter.raw_high)
    return grads


def _store_mlp_grads(grads: dict, prefix: str, layer_grads: list[MlpLayer]) -> None:
    for i, g in enumerate(layer_grads):
        grads[f"{prefix}.{i}.weight"] = g.weight
        grads[f"{prefix}.{i}.bias"] = g.bias
        if g.ln_gain is not None:
            grads[f"{prefix}.{i}.ln_gain"] = g.ln_gain
            grads[f"{prefix}.{i}.ln_bias"] = g.ln_bias


# ---------------------------------------------------------------------------
# Checkpoints
# ---------------------------------------------------------------------------


def save_checkpoint(state: ModelState, path: str | os.PathLike) -> None:
    """JSON header (config, shapes, layout) followed by an f64 parameter payload."""
    names, arrays = zip(*list(iter_params(state)))
    layout = []
    offset = 0
    for name, arr in zip(names, arrays):
        layout.append({"name": name, "shape": list(arr.shape), "offset": offset})
        offset += arr.size
    header = {
        "config": asdict(state.config),
        "dim": state.dim,
        "layout": layout,
        "total_values": offset,
        "payload": "little-endian float64, concatenated in layout order",
    }
    blob = json.dumps(header, sort_keys=True).encode("utf-8")
    with atomic_file(path) as f:
        f.write(CHECKPOINT_MAGIC)
        f.write(_BLOB_LEN.pack(len(blob)))
        f.write(blob)
        for arr in arrays:
            write_array(f, arr, "<f8")


def load_checkpoint(path: str | os.PathLike) -> ModelState:
    """Read a checkpoint; a malformed header or payload is a CacheFormatError."""
    file = CacheFile(path, CHECKPOINT_MAGIC, _BLOB_LEN, "checkpoint")
    try:
        (blob_len,) = file.fields
        if blob_len > file.payload_bytes:
            raise CacheFormatError(
                f"truncated checkpoint header: {blob_len} bytes announced, "
                f"{file.payload_bytes} present"
            )
        blob = np.empty(blob_len, dtype=np.uint8)
        file.read_into(blob, file.payload_offset)
        try:
            header = json.loads(blob.tobytes().decode("utf-8"))
            total = int(header["total_values"])
            dim = int(header["dim"])
            if dim < 1:
                raise ValueError(f"dim={dim}")
            layout = {e["name"]: (int(e["offset"]), tuple(e["shape"])) for e in header["layout"]}
            state = init_model(ModelConfig(**header["config"]), dim)
        except (ValueError, KeyError, TypeError) as exc:
            raise CacheFormatError(f"malformed checkpoint header: {exc!r}") from exc
        payload_bytes = file.payload_bytes - blob_len
        if payload_bytes != total * 8:
            raise CacheFormatError(
                f"checkpoint payload is {payload_bytes} bytes, expected {total * 8}"
            )
        flat = np.empty(total, dtype="<f8")
        file.read_into(flat, file.payload_offset + blob_len)
    finally:
        file.close()
    for name, arr in iter_params(state):
        if name not in layout:
            raise CacheFormatError(f"checkpoint missing parameter {name}")
        offset, shape = layout[name]
        if shape != arr.shape or not 0 <= offset <= total - arr.size:
            raise CacheFormatError(f"checkpoint parameter {name} has wrong shape or offset")
        arr[...] = flat[offset : offset + arr.size].reshape(shape)
    return state
