"""Dual-pass spectral filter model with node-adaptive fusion.

A shared non-negative coefficient vector is turned into a monotone
high-pass filter (prefix sums) and a monotone low-pass filter (clamped
prefix differences); both are mapped to Chebyshev expansion weights by
interpolation at the Chebyshev nodes.  Low- and high-pass embeddings are
read from the precomputed basis cache and mixed as c * z_low + (1 - c) *
z_high: c is a sigmoid-gated MLP conditioned on subgraph context, per node
and per feature dimension, or a constant in the ablations.  Each MLP is
linear layers with ReLU between them.  All gradients are computed by hand
in plain numpy.
"""

from __future__ import annotations

import functools
import json
import math
import os
from collections.abc import Mapping
from dataclasses import asdict, dataclass, field, fields

import numpy as np

from .cachefile import BinaryFormat, CacheFile, CacheRows
from .chebyshev import ChebBasisCache, chebyshev_nodes, chebyshev_series
from .context import ContextCache
from .errors import ConfigError

FUSION_MODES = ("adaptive", "mean", "concat", "low_only", "high_only")
CONTEXT_MODES = ("rq", "full_khop", "features_only")
# Every fusion mode but concat forms c * z_low + (1 - c) * z_high; c is
# the fusion gate for adaptive and this constant for the others.
_FIXED_GATE = {"mean": 0.5, "low_only": 1.0, "high_only": 0.0}
# The basis cache holds K+1 blocks of n*d f32, so this bound holds it to
# 257 times the features (the header would store K up to 2^16 - 1); the
# O(K^2) interpolation_matrix takes 2 ms here on a 2-core x86-64 host.
MAX_K = 256
# A depth-3 MLP has a hidden_dim^2 f64 layer, 8.4 MB at this bound, and
# training keeps seven f64 vectors of the parameter layout: parameters,
# gradients, two Adam moments, Adam's two scratch vectors and the best
# epoch's parameters.
MAX_HIDDEN_DIM = 1024

# header: u64 byte length of the JSON header that follows; then the f64 parameters
CHECKPOINT_FORMAT = BinaryFormat(b"SGMDL001", "<Q", "checkpoint")
CHECKPOINT_MAGIC = CHECKPOINT_FORMAT.magic

_SEED_DOMAIN_MODEL = 0x3A9
_PURPOSE_INIT = 1


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
    use_fpg: bool = True
    seed: int = 0
    hidden_dim: int = 64
    mlp_depth: int = 2

    def validate(self) -> None:
        for name, high in (("K", MAX_K), ("hidden_dim", MAX_HIDDEN_DIM)):
            value = getattr(self, name)
            if value < 1:
                raise ConfigError(f"{name} must be >= 1, got {value}")
            if value > high:
                raise ConfigError(f"{name} must be <= {high}, got {value}")
        for p, name in ((self.p_a, "p_a"), (self.p_n, "p_n")):
            if not 0.0 <= p <= 1.0:
                raise ConfigError(f"{name} must lie in [0, 1], got {p}")
        if self.p_a > self.p_n:
            raise ConfigError(f"p_a ({self.p_a}) must not exceed p_n ({self.p_n})")
        for name, legal in (("fusion_mode", FUSION_MODES), ("context_mode", CONTEXT_MODES)):
            value = getattr(self, name)
            if value not in legal:
                raise ConfigError(f"{name} must be one of {', '.join(legal)}, got {value!r}")
        if self.mlp_depth not in (1, 2, 3):
            raise ConfigError(f"mlp_depth must be 1, 2, or 3, got {self.mlp_depth}")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")

    def uses_fusion_mlp(self) -> bool:
        """C is materialized for adaptive fusion or for the preference loss."""
        return self.fusion_mode == "adaptive" or self.use_fpg

    def needs_context(self) -> bool:
        return self.uses_fusion_mlp() and self.context_mode != "features_only"


# ---------------------------------------------------------------------------
# Filter parameterization
# ---------------------------------------------------------------------------


def softplus(x: np.ndarray) -> np.ndarray:
    x = np.asarray(x, dtype=np.float64)
    return np.log1p(np.exp(-np.abs(x))) + np.maximum(x, 0.0)


def inv_softplus(y: float) -> float:
    return float(np.log(np.expm1(y)))


def _sigmoid(x: np.ndarray, ws: TileWorkspace | None = None, name: str = "sigmoid") -> np.ndarray:
    """Logistic function; exp is taken only of -|x|, so it never overflows.

    Every entry gets e = exp(-x) if x >= 0 else exp(x), and then 1/(1+e)
    or e/(1+e) respectively: e is set to 1 where x >= 0 and one quotient
    formed, which avoids a boolean gather and scatter.  The exponent is
    ``minimum(x, -x)`` rather than ``-abs(x)``: where x is NaN, minimum
    returns its first operand, so a NaN keeps its sign bit.  Every array
    is one of the buffers ``name.*`` of ``ws`` (of a new workspace if none
    is given).
    """
    ws = TileWorkspace(len(x)) if ws is None else ws
    pos = np.greater_equal(x, 0.0, out=ws.take(f"{name}.pos", x.shape, np.bool_))
    t = np.negative(x, out=ws.take(f"{name}.t", x.shape))
    np.minimum(x, t, out=t)
    e = np.exp(t, out=ws.take(f"{name}.e", x.shape))
    d = np.add(1.0, e, out=t)
    np.copyto(e, 1.0, where=pos)
    return np.divide(e, d, out=e)


def reparam_filter_values(raw: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Monotone filter values at the interpolation nodes.

    ``raw`` holds the unconstrained parameters; softplus maps them to the
    non-negative gammas that drive both filter shapes.  High-pass: prefix
    sums of the gammas (non-decreasing).  Low-pass: gamma_0 minus the
    prefix sums of the remaining gammas, floored at 0 (non-increasing).
    Index 0 of both equals gamma_0.
    """
    g = softplus(raw)
    gamma_high = np.cumsum(g)
    prefix = g[0] - np.cumsum(g[1:])
    gamma_low = np.concatenate([[g[0]], np.maximum(prefix, 0.0)])
    return gamma_low, gamma_high


@functools.lru_cache(maxsize=16)
def interpolation_matrix(order: int) -> np.ndarray:
    """Matrix M with w = M gamma: w_k = (2 - delta_k0)/(K+1) sum_i gamma_i T_k(s_i).

    Row k holds T_k at the nodes, from one three-term recurrence over k,
    the steps ``chebyshev_series`` takes.  Built once per order; the
    returned array is read-only because every caller shares it.
    """
    nodes = chebyshev_nodes(order)
    m = order + 1
    t = np.empty((m, m))
    t[0] = 1.0
    t[1:2] = nodes  # no such row at order 0
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


@dataclass
class MlpParams:
    """An MLP's layers; every hidden layer is linear then ReLU."""

    layers: list[MlpLayer]

    @property
    def depth(self) -> int:
        return len(self.layers)


def _activate(h: np.ndarray) -> np.ndarray:
    """Apply ReLU to ``h`` in place and return it."""
    np.maximum(h, 0.0, out=h)
    return h


def _activate_grad(out: np.ndarray) -> np.ndarray:
    """ReLU's derivative from its output alone: out > 0 exactly where its
    input is > 0."""
    return (out > 0).astype(np.float64)


def mlp_forward(
    params: MlpParams,
    x: np.ndarray,
    ws: TileWorkspace | None = None,
    name: str = "mlp",
    parts: list[slice] | None = None,
) -> tuple[np.ndarray, list[dict]]:
    """Forward pass; returns the output and the per-layer trace the
    backward pass needs.

    Hidden layers apply linear -> ReLU; the final layer is linear only.
    Each layer computes into its own matmul buffer, ``ws``'s buffer
    ``name.<layer>`` (of a new workspace if none is given), with ReLU
    applied in place, and the trace records each layer's input ``x`` and
    ReLU output ``act``: views of ``x`` and of the buffers, no copies.
    Each matmul runs on one of ``parts``, row ranges of ``x`` stacked by
    the caller (default: all rows), at a time: BLAS picks its kernel (GEMV
    for one row or one output column, GEMM otherwise) by the shape it is
    given, so only then does a part get the bits of a pass over it alone.
    """
    out = np.asarray(x, dtype=np.float64)
    ws = TileWorkspace(len(out)) if ws is None else ws
    parts = [slice(0, len(out))] if parts is None else parts
    trace: list[dict] = []
    last = params.depth - 1
    for i, layer in enumerate(params.layers):
        entry: dict = {"x": out}
        h = ws.take(f"{name}.{i}", (len(out), layer.weight.shape[1]))
        for rows in parts:
            np.matmul(out[rows], layer.weight, out=h[rows])
        h += layer.bias
        if i < last:
            entry["act"] = _activate(h)
        trace.append(entry)
        out = h
    return out, trace


def mlp_backward(
    params: MlpParams,
    trace: list[dict],
    d_out: np.ndarray,
    grads: MlpParams,
    input_grad: bool = True,
) -> np.ndarray | None:
    """Write every layer's gradients into ``grads`` (shaped as ``params``)
    and return the gradient w.r.t. the input (None without ``input_grad``).

    ``trace`` is the one ``mlp_forward`` returned.  ``d_out`` may cover
    the first rows of the traced pass only; those rows are differentiated.
    """
    d_cur = np.asarray(d_out, dtype=np.float64)
    rows = slice(0, len(d_cur))
    last = params.depth - 1
    for i in range(last, -1, -1):
        layer = params.layers[i]
        grad = grads.layers[i]
        entry = trace[i]
        if i < last:
            d_cur = d_cur * _activate_grad(entry["act"][rows])
        np.matmul(entry["x"][rows].T, d_cur, out=grad.weight)
        np.sum(d_cur, axis=0, out=grad.bias)
        if i == 0 and not input_grad:
            return None
        # one output column: the K=1 product is one multiply per entry either way
        d_cur = d_cur * layer.weight.T if d_cur.shape[1] == 1 else d_cur @ layer.weight.T
    return d_cur


# ---------------------------------------------------------------------------
# Parameter layout and model state
# ---------------------------------------------------------------------------


def param_layout(config: ModelConfig, dim: int) -> list[dict]:
    """Name, shape and offset into one flat vector of every trainable array
    of a model, in order: the filter vector, then the fusion MLP (if
    any) and the classifier, layer by layer (weight, then bias).

    Parameters, gradients, Adam moments and the checkpoint payload are
    all flat f64 vectors in this layout, and a checkpoint's header stores
    the list as it is.
    """
    shapes = [("filter.raw", (config.K + 1,))]
    mlps = []
    if config.uses_fusion_mlp():
        mlps.append(("fusion", dim if config.context_mode == "features_only" else 2 * dim, dim))
    mlps.append(("classifier", 2 * dim if config.fusion_mode == "concat" else dim, 1))
    for prefix, in_dim, out_dim in mlps:
        dims = [in_dim] + [config.hidden_dim] * (config.mlp_depth - 1) + [out_dim]
        for i in range(config.mlp_depth):
            width = dims[i + 1]
            shapes += [(f"{prefix}.{i}.weight", (dims[i], width)), (f"{prefix}.{i}.bias", (width,))]
    layout = []
    offset = 0
    for name, shape in shapes:
        layout.append({"name": name, "shape": list(shape), "offset": offset})
        offset += math.prod(shape)
    return layout


class ParamVector(Mapping[str, np.ndarray]):
    """A zeroed flat f64 vector in a ``param_layout``; indexing it by a
    parameter name gives that parameter's array, a view into ``flat``."""

    def __init__(self, layout: list[dict]):
        self.layout = layout
        sizes = [math.prod(slot["shape"]) for slot in layout]
        # little-endian, as checkpoints store it, so a payload is read straight in
        self.flat = np.zeros(sum(sizes), dtype="<f8")
        self._views = {
            slot["name"]: self.flat[slot["offset"] : slot["offset"] + size].reshape(slot["shape"])
            for slot, size in zip(layout, sizes)
        }
        self._mlps: dict[str, MlpParams | None] = {}

    def __getitem__(self, name: str) -> np.ndarray:
        return self._views[name]

    def mlp(self, prefix: str) -> MlpParams | None:
        """The layers of MLP ``prefix`` as views into ``flat`` (None if the
        layout has no such MLP), made on first use."""
        if prefix not in self._mlps:
            layers = []
            while f"{prefix}.{len(layers)}.weight" in self._views:
                i = len(layers)
                layers.append(MlpLayer(self[f"{prefix}.{i}.weight"], self[f"{prefix}.{i}.bias"]))
            self._mlps[prefix] = MlpParams(layers) if layers else None
        return self._mlps[prefix]

    def __iter__(self):
        return iter(self._views)

    def __len__(self) -> int:
        return len(self._views)


@dataclass
class ModelState:
    """A model's config and its zero-initialized parameters.

    ``params.flat`` holds every trainable value; ``filter``, the raw
    filter vector that ``reparam_filter_values`` takes, and the arrays of
    the MLP layers are views into it, so an update of either is seen by
    both.
    """

    config: ModelConfig
    dim: int
    params: ParamVector = field(init=False)
    filter: np.ndarray = field(init=False)
    fusion_mlp: MlpParams | None = field(init=False)
    classifier_mlp: MlpParams = field(init=False)

    def __post_init__(self) -> None:
        self.params = ParamVector(param_layout(self.config, self.dim))
        self.filter = self.params["filter.raw"]
        self.fusion_mlp = self.params.mlp("fusion")
        self.classifier_mlp = self.params.mlp("classifier")


def init_model(config: ModelConfig, dim: int) -> ModelState:
    """Seeded initialization: gammas near 1/(K+1), MLP weights +-1/sqrt(fan_in)
    and biases 0."""
    config.validate()
    rng = np.random.default_rng(
        np.random.SeedSequence([_SEED_DOMAIN_MODEL, config.seed, _PURPOSE_INIT])
    )
    state = ModelState(config, dim)
    state.filter[...] = inv_softplus(1.0 / (config.K + 1))
    for mlp in (state.fusion_mlp, state.classifier_mlp):
        if mlp is None:
            continue
        for layer in mlp.layers:
            bound = 1.0 / np.sqrt(layer.weight.shape[0])
            layer.weight[...] = rng.uniform(-bound, bound, size=layer.weight.shape)
    return state


# ---------------------------------------------------------------------------
# Tile workspace
# ---------------------------------------------------------------------------


class TileWorkspace:
    """Preallocated arrays for forward passes on up to ``rows`` rows.

    ``forward_bundle`` writes every intermediate into a named buffer of
    its workspace through ``out=``, and ``gather_rows`` given one reads
    the rows into it.  A buffer is made with ``rows`` rows on first use
    and reused by every later pass, which fills its first ``m`` rows: a
    loop over fixed tiles or epochs allocates nothing after its first
    pass.  What a pass returns, its trace included, is views into the
    buffers, overwritten by the next pass.
    """

    def __init__(self, rows: int):
        self.rows = rows
        self._buffers: dict[str, np.ndarray] = {}

    def take(self, name: str, shape: tuple[int, ...], dtype=np.float64) -> np.ndarray:
        """Buffer ``name``'s first ``shape[0]`` rows, an array of ``shape``
        (a buffer keeps the row shape and dtype of its first use)."""
        if shape[0] > self.rows:
            raise ValueError(f"{shape[0]} rows do not fit a workspace of {self.rows}")
        buf = self._buffers.get(name)
        if buf is None:
            buf = self._buffers[name] = np.empty((self.rows, *shape[1:]), dtype)
        return buf[: shape[0]]


# ---------------------------------------------------------------------------
# Row gathering and forward pass
# ---------------------------------------------------------------------------


@dataclass
class RowBundle:
    """Cached rows for one batch; the only graph-sized state is outside.

    The rows may be parts stacked by the caller, part i being rows
    ``bounds[i]:bounds[i + 1]``: ``forward_bundle`` gives each part's rows
    the bits of a pass over that part alone, and ``backward_bundle``
    differentiates the first part.
    """

    block_rows: list[np.ndarray]  # block 0, T_0 X, holds the features
    ctx_rows: np.ndarray | None
    bounds: tuple[int, ...] = ()  # () is one part of every row

    def parts(self) -> list[slice]:
        bounds = self.bounds or (0, len(self.block_rows[0]))
        return [slice(lo, hi) for lo, hi in zip(bounds, bounds[1:])]


def gather_rows(
    cheb_cache: ChebBasisCache,
    context_cache: ContextCache | None,
    ids: np.ndarray | slice,
    config: ModelConfig,
    ws: TileWorkspace | None = None,
) -> RowBundle:
    """The batch's rows of every basis block (and the context), as float64.

    ``ids`` is a slice or a 1-D integer array; the cache blocks may be
    ndarrays or ``CacheRows`` read from disk, which index the same way.
    With ``ws``, ``ids`` must be a unit-step slice, and the rows are read
    into the workspace's buffers.  This is a batch's one check; the
    forward pass checks the rows no more.
    """
    if cheb_cache.order != config.K:
        raise ValueError(f"basis cache order {cheb_cache.order} does not match model K={config.K}")
    if not isinstance(ids, slice):
        ids = np.asarray(ids)
        if ids.size and int(ids.min()) < 0:
            raise ValueError("negative batch id")
        if ids.size and int(ids.max()) >= cheb_cache.num_nodes:
            raise ValueError("batch id out of range for the basis cache")
    block_rows = [_rows(b, ids, ws, f"block.{k}") for k, b in enumerate(cheb_cache.blocks)]
    ctx_rows = None
    if config.needs_context():
        if context_cache is None:
            raise ValueError(f"context_mode={config.context_mode!r} requires a context cache")
        if (context_cache.num_nodes, context_cache.dim) != (cheb_cache.num_nodes, cheb_cache.dim):
            raise ValueError("context cache and basis cache disagree on (num_nodes, dim)")
        ctx_rows = _rows(context_cache.context, ids, ws, "ctx")
    return RowBundle(block_rows=block_rows, ctx_rows=ctx_rows)


def _rows(src: np.ndarray | CacheRows, ids: np.ndarray | slice, ws: TileWorkspace | None,
          name: str) -> np.ndarray:
    """Rows ``ids`` of one cache array as float64: a new array, or with
    ``ws`` its buffer ``name`` (a ``CacheRows`` is read into the buffer
    ``read`` first, in its own dtype)."""
    if ws is None:
        return np.asarray(src[ids], dtype=np.float64)
    if not isinstance(ids, slice) or ids.step not in (None, 1):
        raise ValueError("a workspace gather takes a unit-step slice of ids")
    start, stop, _ = ids.indices(len(src))
    shape = (max(stop - start, 0), *src.shape[1:])
    if isinstance(src, CacheRows):
        read = ws.take("read", shape, src.dtype)
        src.read_into(read, start)
    else:
        read = src[start:stop]
    out = ws.take(name, shape)
    np.copyto(out, read)
    return out


def _combine(block_rows: list[np.ndarray], weights: np.ndarray, out: np.ndarray,
             product: np.ndarray) -> np.ndarray:
    """sum_k weights[k] * block_rows[k] into ``out``, each product into ``product``."""
    out = np.multiply(weights[0], block_rows[0], out=out)
    for k in range(1, len(block_rows)):
        out += np.multiply(weights[k], block_rows[k], out=product)
    return out


def _fusion_gate(state, bundle, ws, parts):
    """Per-node, per-dimension fusion gate in (0, 1), and the MLP trace."""
    inp = bundle.block_rows[0]  # the features
    if state.config.context_mode != "features_only":
        m, d = inp.shape
        inp = np.concatenate([bundle.ctx_rows, inp], axis=1, out=ws.take("fusion.in", (m, 2 * d)))
    pre, trace = mlp_forward(state.fusion_mlp, inp, ws, "fusion", parts)
    return _sigmoid(pre, ws, "gate"), trace


@dataclass
class ForwardTrace:
    bundle: RowBundle
    gamma_low: np.ndarray
    z_low: np.ndarray
    z_high: np.ndarray
    coef: np.ndarray | None
    fusion_trace: list | None
    z: np.ndarray
    clf_trace: list
    yhat: np.ndarray
    cbar: np.ndarray | None


def forward_bundle(
    state: ModelState,
    bundle: RowBundle,
    ws: TileWorkspace | None = None,
) -> ForwardTrace:
    """The model's forward pass on one batch of gathered rows.

    ``yhat`` holds the anomaly probabilities, ``coef`` the fusion gate
    and ``cbar`` its per-node mean (both None without a fusion MLP);
    the rest is what ``backward_bundle`` needs.  Every intermediate is
    written into a buffer of the workspace ``ws`` (of a new one if none
    is given), so every array of the trace is a view into it, valid until
    its next pass; the bundle's rows are only read.  On a bundle of
    stacked parts, every elementwise step runs over all rows at once and
    every matmul part by part, so each row has the bits of a pass over its
    part alone.
    """
    cfg = state.config
    parts = bundle.parts()
    m, d = bundle.block_rows[0].shape
    ws = TileWorkspace(m) if ws is None else ws
    product = ws.take("product", (m, d))
    gamma_low, gamma_high = reparam_filter_values(state.filter)
    z_low = _combine(bundle.block_rows, cheb_weights(gamma_low), ws.take("z_low", (m, d)), product)
    z_high = _combine(bundle.block_rows, cheb_weights(gamma_high), ws.take("z_high", (m, d)),
                      product)

    coef = None
    fusion_trace = None
    if state.fusion_mlp is not None:
        coef, fusion_trace = _fusion_gate(state, bundle, ws, parts)

    if cfg.fusion_mode == "concat":
        z = np.concatenate([z_low, z_high], axis=1, out=ws.take("z", (m, 2 * d)))
    else:
        # c * z_low + (1 - c) * z_high
        c = _FIXED_GATE.get(cfg.fusion_mode, coef)
        z = np.multiply(c, z_low, out=ws.take("z", (m, d)))
        z += np.multiply(np.subtract(1.0, c, out=product), z_high, out=product)

    logits, clf_trace = mlp_forward(state.classifier_mlp, z, ws, "classifier", parts)
    yhat = _sigmoid(logits[:, 0], ws, "yhat")
    cbar = None if coef is None else np.mean(coef, axis=1, out=ws.take("cbar", (m,)))
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
    out: ParamVector | None = None,
) -> ParamVector:
    """Exact gradients of a scalar objective given d(obj)/d(yhat) and d(obj)/d(cbar)
    of the bundle's first part, as one vector in the state's parameter
    layout: ``out``, every value of which is written, or a new one.

    ``trace`` is a ``forward_bundle`` at the state's parameters, whose
    workspace no later pass has written.
    """
    cfg = state.config
    grad = ParamVector(state.params.layout) if out is None else out
    rows = trace.bundle.parts()[0]
    coef = None if trace.coef is None else trace.coef[rows]
    yhat = trace.yhat[rows]

    d_logits = (d_yhat * yhat * (1.0 - yhat))[:, None]
    d_z = mlp_backward(state.classifier_mlp, trace.clf_trace, d_logits, grad.mlp("classifier"))

    # d(cbar)/d(coef) is 1/d in every column of the row
    d_coef = None if coef is None or d_cbar is None else (d_cbar / coef.shape[1])[:, None]
    if cfg.fusion_mode == "concat":
        d = trace.z_low.shape[1]
        d_z_low = d_z[:, :d]
        d_z_high = d_z[:, d:]
    else:
        c = _FIXED_GATE.get(cfg.fusion_mode, coef)
        d_z_low = d_z * c
        d_z_high = d_z * (1.0 - c)
        if cfg.fusion_mode == "adaptive":
            dc = d_z * (trace.z_low[rows] - trace.z_high[rows])
            d_coef = dc if d_coef is None else np.add(dc, d_coef, out=dc)

    fusion_grad = grad.mlp("fusion")
    if d_coef is not None:
        d_pre = d_coef * coef * (1.0 - coef)
        mlp_backward(state.fusion_mlp, trace.fusion_trace, d_pre, fusion_grad, input_grad=False)
    elif fusion_grad is not None:  # no gradient reaches the gate
        for layer in fusion_grad.layers:
            layer.weight[...] = 0.0
            layer.bias[...] = 0.0

    k1 = len(trace.bundle.block_rows)
    d_w_low = np.zeros(k1)
    d_w_high = np.zeros(k1)
    for k, block in enumerate(trace.bundle.block_rows):
        d_w_low[k] = float(np.vdot(d_z_low, block[rows]))
        d_w_high[k] = float(np.vdot(d_z_high, block[rows]))

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

    grad["filter.raw"][...] = (d_base_low + d_base_high) * _sigmoid(state.filter)
    return grad


# ---------------------------------------------------------------------------
# Checkpoints
# ---------------------------------------------------------------------------


def _layout_mismatch(found, expected: list[dict]) -> str:
    """Name the first parameter whose checkpoint layout entry is wrong."""
    entries = found if isinstance(found, list) else []
    by_name = {str(e.get("name")): e for e in entries if isinstance(e, dict)}
    for want in expected:
        if want["name"] not in by_name:
            return f"checkpoint missing parameter {want['name']}"
        if by_name[want["name"]] != want:
            return f"checkpoint parameter {want['name']} has wrong shape or offset"
    return "checkpoint layout has parameters the model lacks, or another order"


def save_checkpoint(state: ModelState, path: str | os.PathLike) -> None:
    """JSON header (config, dim, layout) followed by the f64 parameter vector."""
    header = {
        "config": asdict(state.config),
        "dim": state.dim,
        "layout": state.params.layout,
        "total_values": state.params.flat.size,
        "payload": "little-endian float64, concatenated in layout order",
    }
    blob = np.frombuffer(json.dumps(header, sort_keys=True).encode("utf-8"), dtype=np.uint8)
    CHECKPOINT_FORMAT.write(path, (blob.size,), [(blob, "u1"), (state.params.flat, "<f8")])


def load_checkpoint(path: str | os.PathLike) -> ModelState:
    """Read a checkpoint; a malformed header or payload is a CacheFormatError,
    and so is a layout other than the one its config gives."""
    return CHECKPOINT_FORMAT.read(path, _checkpoint_from_file)


def _header_config(raw, file: CacheFile) -> ModelConfig:
    """The checkpoint's model config, which must name exactly the keys of
    ``ModelConfig``: the parameters were trained under every key it holds,
    so an unknown key is never dropped and a missing one never defaulted."""
    keys = {f.name for f in fields(ModelConfig)}
    if isinstance(raw, dict) and set(raw) != keys:
        raise file.fail(
            "malformed checkpoint header: model config keys differ from this version's "
            f"(unknown: {', '.join(sorted(set(raw) - keys)) or 'none'}; "
            f"missing: {', '.join(sorted(keys - set(raw))) or 'none'}); "
            "rerun `train` to write a checkpoint this version can load"
        )
    return ModelConfig(**raw)


def _checkpoint_from_file(file: CacheFile) -> ModelState:
    (blob_len,) = file.fields
    if blob_len > file.payload_bytes:
        raise file.fail(
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
        layout = header["layout"]
        config = _header_config(header["config"], file)
        config.validate()
    except (ValueError, KeyError, TypeError, ConfigError) as exc:
        raise file.fail(f"malformed checkpoint header: {exc!r}") from exc
    # every check is on the header's numbers: nothing is allocated for a
    # header that announces a model the payload does not hold
    expected = param_layout(config, dim)
    if layout != expected:
        raise file.fail(_layout_mismatch(layout, expected))
    size = sum(math.prod(slot["shape"]) for slot in expected)
    payload_bytes = file.payload_bytes - blob_len
    if total != size or payload_bytes != 8 * size:
        raise file.fail(
            f"checkpoint payload is {payload_bytes} bytes of total_values={total}, "
            f"expected {8 * size} bytes of {size}"
        )
    state = ModelState(config, dim)  # zeroed; no seeded init, as the payload replaces it
    file.read_into(state.params.flat, file.payload_offset + blob_len)
    return state
