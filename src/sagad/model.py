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

import json
import os
import struct
from dataclasses import asdict, dataclass

import numpy as np

from .chebyshev import ChebBasisCache, chebyshev_nodes, chebyshev_series
from .context import ContextCache
from .errors import CacheFormatError, ConfigError

FUSION_MODES = ("adaptive", "mean", "concat")
CONTEXT_MODES = ("rq", "full_khop", "features_only")
FILTER_MODES = ("dual", "low_only", "high_only")
ACTIVATIONS = ("relu", "elu", "tanh", "identity")
NORMALIZATIONS = ("none", "layer")

CHECKPOINT_MAGIC = b"SGMDL001"

_LN_EPS = 1e-5
_SEED_DOMAIN_MODEL = 0x3A9
_PURPOSE_INIT = 1
_PURPOSE_DROPOUT = 2


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
    out = np.empty_like(x, dtype=np.float64)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


@dataclass
class FilterTrace:
    gamma_low_base: np.ndarray
    gamma_high_base: np.ndarray
    gamma_low: np.ndarray
    gamma_high: np.ndarray
    clamp_active: np.ndarray  # True where the low-pass prefix was floored


def reparam_filter_values(params: FilterParams) -> tuple[np.ndarray, np.ndarray]:
    """Monotone filter values at the interpolation nodes.

    High-pass: prefix sums of the gammas (non-decreasing).  Low-pass:
    gamma_0 minus the prefix sums of the remaining gammas, floored at 0
    (non-increasing).  Index 0 of both equals gamma_0.
    """
    gl, gh, _ = _reparam_with_trace(params)
    return gl, gh


def _reparam_with_trace(params: FilterParams) -> tuple[np.ndarray, np.ndarray, FilterTrace]:
    g_low = softplus(params.raw)
    g_high = g_low if params.shared else softplus(params.raw_high)

    gamma_high = np.cumsum(g_high)

    prefix = g_low[0] - np.cumsum(g_low[1:]) if len(g_low) > 1 else np.empty(0)
    clamp = prefix <= 0.0
    gamma_low = np.concatenate([[g_low[0]], np.maximum(prefix, 0.0)])
    trace = FilterTrace(
        gamma_low_base=g_low,
        gamma_high_base=g_high,
        gamma_low=gamma_low,
        gamma_high=gamma_high,
        clamp_active=clamp,
    )
    return gamma_low, gamma_high, trace


def interpolation_matrix(order: int) -> np.ndarray:
    """Matrix M with w = M gamma: w_k = (2 - delta_k0)/(K+1) sum_i gamma_i T_k(s_i)."""
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
    return scale[:, None] * t


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
    """Matmul whose per-row results do not depend on the batch size.

    Single-row inputs dispatch to a different BLAS kernel (GEMV) with a
    different accumulation order; padding to two rows keeps every batch on
    the same GEMM path so splitting a batch never changes the output bits.
    """
    if x.shape[0] == 1:
        return (np.concatenate([x, np.zeros_like(x)]) @ w)[:1]
    return x @ w


def mlp_forward(
    params: MlpParams,
    x: np.ndarray,
    train_mode: bool = False,
    dropout_rng: np.random.Generator | None = None,
) -> tuple[np.ndarray, list[dict]]:
    """Forward pass; returns output and per-layer trace for the backward pass.

    Hidden layers apply linear -> (layer norm) -> activation -> (dropout);
    the final layer is linear only.  Dropout is inverted and only active in
    train mode with an explicit rng.
    """
    trace: list[dict] = []
    out = np.asarray(x, dtype=np.float64)
    last = params.depth - 1
    for i, layer in enumerate(params.layers):
        entry: dict = {"x": out}
        pre = _row_stable_matmul(out, layer.weight) + layer.bias
        entry["pre"] = pre
        if i == last:
            out = pre
            trace.append(entry)
            break
        h = pre
        if layer.ln_gain is not None:
            mu = h.mean(axis=1, keepdims=True)
            var = h.var(axis=1, keepdims=True)
            invstd = 1.0 / np.sqrt(var + _LN_EPS)
            xhat = (h - mu) * invstd
            entry["ln"] = (invstd, xhat)
            h = layer.ln_gain * xhat + layer.ln_bias
        entry["normed"] = h
        act = _activate(params.activation, h)
        entry["act"] = act
        if train_mode and params.dropout > 0.0:
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
    trace: list[dict],
    d_out: np.ndarray,
) -> tuple[list[MlpLayer], np.ndarray]:
    """Gradients for every layer plus the gradient w.r.t. the input."""
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


def dual_embed(
    cache: ChebBasisCache,
    filter_params: FilterParams,
    batch: np.ndarray | slice,
) -> tuple[np.ndarray, np.ndarray]:
    """Low- and high-pass embeddings for the batch rows only."""
    gamma_low, gamma_high = reparam_filter_values(filter_params)
    w_low = cheb_weights(gamma_low)
    w_high = cheb_weights(gamma_high)
    block_rows = [np.asarray(b[batch], dtype=np.float64) for b in cache.blocks]
    return _combine(block_rows, w_low), _combine(block_rows, w_high)


def _combine(block_rows: list[np.ndarray], weights: np.ndarray) -> np.ndarray:
    out = weights[0] * block_rows[0]
    for k in range(1, len(block_rows)):
        out += weights[k] * block_rows[k]
    return out


def fusion_coefficients(
    state: ModelState,
    context_rows: np.ndarray | None,
    feature_rows: np.ndarray,
    train_mode: bool = False,
    rng: np.random.Generator | None = None,
) -> np.ndarray:
    """Per-node, per-dimension fusion gate in (0, 1)."""
    c, _, _ = _fusion_with_trace(state, context_rows, feature_rows, train_mode, rng)
    return c


def _fusion_with_trace(state, context_rows, feature_rows, train_mode, rng):
    if state.fusion_mlp is None:
        raise ValueError("this configuration does not materialize fusion coefficients")
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
    return _sigmoid(pre), pre, trace


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
    filter_trace: FilterTrace
    w_low: np.ndarray
    w_high: np.ndarray
    z_low: np.ndarray | None
    z_high: np.ndarray | None
    coef: np.ndarray | None
    fusion_trace: list | None
    z: np.ndarray
    clf_trace: list
    yhat: np.ndarray
    cbar: np.ndarray | None


def forward_bundle(
    state: ModelState,
    bundle: RowBundle,
    train_mode: bool = False,
    rng: np.random.Generator | None = None,
) -> ForwardTrace:
    cfg = state.config
    gamma_low, gamma_high, ftrace = _reparam_with_trace(state.filter)
    w_low = cheb_weights(gamma_low)
    w_high = cheb_weights(gamma_high)

    z_low = _combine(bundle.block_rows, w_low) if cfg.filter_mode != "high_only" else None
    z_high = _combine(bundle.block_rows, w_high) if cfg.filter_mode != "low_only" else None

    coef = None
    fusion_trace = None
    if state.fusion_mlp is not None:
        coef, _, fusion_trace = _fusion_with_trace(
            state, bundle.ctx_rows, bundle.feat_rows, train_mode, rng
        )

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
        filter_trace=ftrace,
        w_low=w_low,
        w_high=w_high,
        z_low=z_low,
        z_high=z_high,
        coef=coef,
        fusion_trace=fusion_trace,
        z=z,
        clf_trace=clf_trace,
        yhat=yhat,
        cbar=cbar,
    )


def forward(
    state: ModelState,
    cheb_cache: ChebBasisCache,
    context_cache: ContextCache | None,
    ids: np.ndarray | slice,
    train_mode: bool = False,
    rng: np.random.Generator | None = None,
) -> tuple[np.ndarray, np.ndarray | None]:
    """Anomaly probabilities and mean fusion coefficients for a batch."""
    bundle = gather_rows(cheb_cache, context_cache, ids, state.config)
    out = forward_bundle(state, bundle, train_mode, rng)
    return out.yhat, out.cbar


# ---------------------------------------------------------------------------
# Backward pass
# ---------------------------------------------------------------------------


def backward_bundle(
    state: ModelState,
    trace: ForwardTrace,
    d_yhat: np.ndarray,
    d_cbar: np.ndarray | None,
) -> dict[str, np.ndarray]:
    """Exact gradients of a scalar objective given d(obj)/d(yhat) and d(obj)/d(cbar)."""
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

    ft = trace.filter_trace
    # high-pass prefix sums: d(base_j) = sum_{i >= j} d(gamma_high_i)
    d_base_high = np.cumsum(d_gamma_high[::-1])[::-1]
    # low-pass clamped prefix differences
    masked = np.where(ft.clamp_active, 0.0, d_gamma_low[1:]) if k1 > 1 else np.empty(0)
    d_base_low = np.zeros(k1)
    d_base_low[0] = d_gamma_low[0] + masked.sum()
    if k1 > 1:
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
    with open(os.fspath(path), "wb") as f:
        f.write(CHECKPOINT_MAGIC)
        f.write(struct.pack("<Q", len(blob)))
        f.write(blob)
        for arr in arrays:
            f.write(np.ascontiguousarray(arr, dtype="<f8").tobytes())
        f.flush()
        os.fsync(f.fileno())


def load_checkpoint(path: str | os.PathLike) -> ModelState:
    with open(os.fspath(path), "rb") as f:
        magic = f.read(8)
        if magic != CHECKPOINT_MAGIC:
            raise CacheFormatError(f"bad checkpoint magic {magic!r}")
        (blob_len,) = struct.unpack("<Q", f.read(8))
        header = json.loads(f.read(blob_len).decode("utf-8"))
        payload = f.read()
    total = header["total_values"]
    if len(payload) != total * 8:
        raise CacheFormatError(
            f"checkpoint payload is {len(payload)} bytes, expected {total * 8}"
        )
    flat = np.frombuffer(payload, dtype="<f8")
    config = ModelConfig(**header["config"])
    state = init_model(config, header["dim"])
    values = {
        entry["name"]: flat[entry["offset"] : entry["offset"] + int(np.prod(entry["shape"]))]
        .reshape(entry["shape"])
        .copy()
        for entry in header["layout"]
    }
    for name, arr in iter_params(state):
        if name not in values:
            raise CacheFormatError(f"checkpoint missing parameter {name}")
        if values[name].shape != arr.shape:
            raise CacheFormatError(f"checkpoint parameter {name} has wrong shape")
        arr[...] = values[name]
    return state
