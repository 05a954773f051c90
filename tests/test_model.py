import dataclasses
import json
import math
import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sagad.chebyshev import chebyshev_nodes
from sagad.context import build_context_cache
from sagad.errors import CacheFormatError, ConfigError
from sagad.model import (
    CHECKPOINT_MAGIC,
    FUSION_MODES,
    ModelConfig,
    TileWorkspace,
    cheb_weights,
    filter_response,
    forward_bundle,
    gather_rows,
    init_model,
    interpolation_matrix,
    inv_softplus,
    load_checkpoint,
    param_layout,
    reparam_filter_values,
    save_checkpoint,
)

from conftest import er_dataset, make_dataset
from oracles import (
    dense_spectral_oracle,
    fuse_per_mode,
    interpolation_matrix_per_unit_vector,
    whole_matrix_basis,
)


def run(state, cache, ctx, ids):
    """The forward pass on the batch ``ids``."""
    return forward_bundle(state, gather_rows(cache, ctx, ids, state.config))


def filter_from_gamma(gammas):
    """The raw filter vector whose softplus output equals the requested gammas."""
    return np.asarray(
        [inv_softplus(g) if g > 1e-300 else -745.0 for g in gammas], dtype=np.float64
    )


class TestReparam:
    def test_prefix_arithmetic(self):
        gl, gh = reparam_filter_values(filter_from_gamma([0.5, 0.2, 0.3]))
        np.testing.assert_allclose(gh, [0.5, 0.7, 1.0], atol=1e-12)
        np.testing.assert_allclose(gl, [0.5, 0.3, 0.0], atol=1e-12)

    def test_clamp_floors_at_zero(self):
        gl, _ = reparam_filter_values(filter_from_gamma([0.2, 0.3, 0.1]))
        np.testing.assert_allclose(gl, [0.2, 0.0, 0.0], atol=1e-12)

    def test_all_zero(self):
        gl, gh = reparam_filter_values(filter_from_gamma([0.0, 0.0, 0.0]))
        np.testing.assert_allclose(gl, 0.0, atol=1e-12)
        np.testing.assert_allclose(gh, 0.0, atol=1e-12)


class TestChebWeights:
    def test_constant_interpolation(self):
        w = cheb_weights([1.0, 1.0])
        np.testing.assert_allclose(w, [1.0, 0.0], atol=1e-12)

    def test_hand_case_order_one(self):
        w = cheb_weights([0.0, 1.0])
        np.testing.assert_allclose(w, [0.5, np.sqrt(0.5)], atol=1e-5)
        nodes = chebyshev_nodes(1)
        assert filter_response(w, nodes[0]) == pytest.approx(0.0, abs=1e-12)
        assert filter_response(w, nodes[1]) == pytest.approx(1.0, abs=1e-12)

    @given(st.integers(min_value=2, max_value=5), st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_interpolation_identity(self, order, seed):
        rng = np.random.default_rng(seed)
        gamma = rng.uniform(0.0, 3.0, order + 1)
        w = cheb_weights(gamma)
        vals = filter_response(w, chebyshev_nodes(order))
        np.testing.assert_allclose(vals, gamma, atol=1e-10)

    @given(st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_monotone_at_nodes(self, seed):
        rng = np.random.default_rng(seed)
        order = int(rng.integers(2, 6))
        raw = rng.normal(0, 2, order + 1)
        gl, gh = reparam_filter_values(raw)
        nodes = chebyshev_nodes(order)
        high = filter_response(cheb_weights(gh), nodes)
        low = filter_response(cheb_weights(gl), nodes)
        assert np.all(np.diff(high) >= -1e-10)
        assert np.all(np.diff(low) <= 1e-10)

    @pytest.mark.parametrize("order", range(1, 11))
    def test_interpolation_matrix_equals_the_explicit_recurrence(self, order):
        """Reference: T_0 = 1, T_1 = s, T_k = 2 s T_{k-1} - T_{k-2} at the
        nodes s, one row per k, scaled by (2 - delta_k0) / (K + 1)."""
        nodes = chebyshev_nodes(order)
        m = order + 1
        t = np.empty((m, m))
        t[0] = 1.0
        t[1] = nodes
        for k in range(2, m):
            t[k] = 2.0 * nodes * t[k - 1] - t[k - 2]
        scale = np.full(m, 2.0 / m)
        scale[0] = 1.0 / m
        np.testing.assert_array_equal(bits(interpolation_matrix(order)), bits(scale[:, None] * t))

    @pytest.mark.parametrize("order", [1, 2, 3, 10, 64, 256])
    def test_interpolation_matrix_equals_one_series_per_unit_vector(self, order):
        np.testing.assert_array_equal(bits(interpolation_matrix(order)),
                                      bits(interpolation_matrix_per_unit_vector(order)))

    def test_interpolation_matrix_built_once_per_order(self):
        m = interpolation_matrix(3)
        assert interpolation_matrix(3) is m
        assert not m.flags.writeable
        with pytest.raises(ValueError):
            m[0, 0] = 1.0

    @given(st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_floored_entries_are_where_the_prefix_is_not_positive(self, seed):
        # the backward pass masks the low-pass gradient where gamma_low[1:] == 0;
        # that is the set where the unfloored prefix difference is <= 0
        rng = np.random.default_rng(seed)
        raw = rng.normal(0, 2, int(rng.integers(2, 7)))
        gl, _ = reparam_filter_values(raw)
        g = np.log1p(np.exp(-np.abs(raw))) + np.maximum(raw, 0.0)
        prefix = g[0] - np.cumsum(g[1:])
        np.testing.assert_array_equal(gl[1:] == 0.0, prefix <= 0.0)

    def test_complementarity_without_clamp(self):
        gamma = np.array([1.0, 0.2, 0.1, 0.15])
        gl, gh = reparam_filter_values(filter_from_gamma(gamma))
        ts = np.linspace(-1.0, 1.0, 257)
        total = filter_response(cheb_weights(gl), ts) + filter_response(cheb_weights(gh), ts)
        np.testing.assert_allclose(total, 2.0 * gamma[0], atol=1e-10)


class TestFilterResponse:
    def test_constant(self):
        assert filter_response([0.7], 0.123) == pytest.approx(0.7)

    def test_linear_term(self):
        assert filter_response([0.0, 1.0, 0.0], 0.3) == pytest.approx(0.3)

    def test_interpolated_high_value(self):
        w = cheb_weights([0.0, 1.0])
        s1 = chebyshev_nodes(1)[1]
        assert filter_response(w, s1) == pytest.approx(1.0, abs=1e-12)


def dual_embed(cache, fp, ids):
    """z_low and z_high of the forward pass of a model with raw filter ``fp``."""
    state = init_model(ModelConfig(K=cache.order, context_mode="features_only", hidden_dim=4),
                       cache.dim)
    state.filter[...] = fp
    out = run(state, cache, None, ids)
    return out.z_low, out.z_high


class TestDualEmbed:
    def _cache(self, seed=0, n=14, d=3, order=3):
        ds = er_dataset(n, 0.3, d, seed=seed)
        return ds, whole_matrix_basis(ds, order, np.float64)

    def test_identity_low_pass_returns_features(self):
        ds, cache = self._cache()
        fp = filter_from_gamma([1.0, 0.0, 0.0, 0.0])
        z_low, _ = dual_embed(cache, fp, np.arange(ds.num_nodes))
        np.testing.assert_allclose(z_low, ds.features, atol=1e-10)

    def test_eigenvector_is_scaled_by_response(self):
        ds = make_dataset([[0, 1]], [[1.0], [-1.0]], [0, 0])
        cache = whole_matrix_basis(ds, 2, np.float64)
        fp = filter_from_gamma([0.8, 0.3, 0.1])
        gl, gh = reparam_filter_values(fp)
        z_low, z_high = dual_embed(cache, fp, np.arange(2))
        # (1,-1)/sqrt(2) is the eigenvector at scaled eigenvalue +1
        f_low = filter_response(cheb_weights(gl), 1.0)
        f_high = filter_response(cheb_weights(gh), 1.0)
        np.testing.assert_allclose(z_low[:, 0], f_low * ds.features[:, 0], atol=1e-10)
        np.testing.assert_allclose(z_high[:, 0], f_high * ds.features[:, 0], atol=1e-10)

    def test_unclamped_sum_is_twice_gamma0_features(self):
        ds, cache = self._cache(seed=2)
        fp = filter_from_gamma([1.0, 0.2, 0.1, 0.05])
        z_low, z_high = dual_embed(cache, fp, np.arange(ds.num_nodes))
        np.testing.assert_allclose(z_low + z_high, 2.0 * ds.features, atol=1e-10)

    def test_matches_dense_oracle(self):
        ds, cache = self._cache(seed=3, n=40)
        fp = filter_from_gamma([0.6, 0.3, 0.2, 0.1])
        gl, gh = reparam_filter_values(fp)
        z_low, z_high = dual_embed(cache, fp, np.arange(ds.num_nodes))
        np.testing.assert_allclose(z_low, dense_spectral_oracle(ds, cheb_weights(gl)), atol=1e-9)
        np.testing.assert_allclose(z_high, dense_spectral_oracle(ds, cheb_weights(gh)), atol=1e-9)

    def test_out_of_range_batch_rejected(self):
        ds, cache = self._cache()
        fp = filter_from_gamma([1.0, 0.0, 0.0, 0.0])
        from sagad.model import gather_rows

        with pytest.raises(ValueError, match="out of range"):
            gather_rows(cache, None, np.asarray([999]), ModelConfig(context_mode="features_only"))


    def test_context_of_another_dimension_rejected(self):
        ds, cache = self._cache()
        narrow = er_dataset(ds.num_nodes, 0.3, ds.num_features - 1, seed=9)
        ctx = build_context_cache(narrow)
        with pytest.raises(ValueError, match="disagree on"):
            gather_rows(cache, ctx, np.arange(4), ModelConfig())


class TestFusion:
    def _setup(self, config=None, seed=0):
        ds = er_dataset(12, 0.3, 4, seed=seed)
        config = config or ModelConfig(K=2, hidden_dim=8, seed=seed)
        cache = whole_matrix_basis(ds, config.K, np.float64)
        ctx = build_context_cache(ds)
        state = init_model(config, ds.num_features)
        return ds, cache, ctx, state

    def test_zero_parameters_give_half(self):
        ds, cache, ctx, state = self._setup()
        for layer in state.fusion_mlp.layers:
            layer.weight[...] = 0.0
            layer.bias[...] = 0.0
        c = run(state, cache, ctx, np.arange(5)).coef
        assert c.shape == (5, ds.num_features)
        np.testing.assert_allclose(c, 0.5)

    def test_open_interval(self):
        ds, cache, ctx, state = self._setup(seed=1)
        c = run(state, cache, ctx, np.arange(ds.num_nodes)).coef
        assert np.all(c > 0.0) and np.all(c < 1.0)

    def test_identical_rows_identical_coefficients(self):
        ds, cache, ctx, state = self._setup(seed=2)
        c = run(state, cache, ctx, np.asarray([0, 0])).coef
        np.testing.assert_array_equal(c[0], c[1])

    @pytest.mark.parametrize("use_fpg", [True, False])
    @pytest.mark.parametrize("fusion_mode", FUSION_MODES)
    def test_forward_matches_per_mode_formula(self, fusion_mode, use_fpg):
        """Every mode's one gated mix (or concat) gives its own formula's
        embedding bit for bit."""
        cfg = ModelConfig(K=2, hidden_dim=8, fusion_mode=fusion_mode, use_fpg=use_fpg, seed=4)
        ds, cache, ctx, state = self._setup(cfg, seed=4)
        prng = np.random.default_rng(11)
        state.params.flat += prng.normal(0.0, 0.5, state.params.flat.shape)
        for train_mode in (False, True):
            out = forward_bundle(state, gather_rows(cache, ctx, np.arange(ds.num_nodes), cfg),
                                 train_mode)
            want = fuse_per_mode(out.z_low, out.z_high, out.coef, fusion_mode)
            assert out.z.shape == want.shape
            np.testing.assert_array_equal(bits(out.z), bits(want))

    def test_adaptive_stays_between_embeddings(self):
        ds, cache, ctx, state = self._setup(seed=3)
        out = run(state, cache, ctx, np.arange(ds.num_nodes))
        lo = np.minimum(out.z_low, out.z_high)
        hi = np.maximum(out.z_low, out.z_high)
        assert np.all(out.z >= lo - 1e-12) and np.all(out.z <= hi + 1e-12)


class TestForward:
    def _setup(self, config, seed=0, n=16):
        ds = er_dataset(n, 0.3, 3, seed=seed)
        cache = whole_matrix_basis(ds, config.K, np.float64)
        ctx = build_context_cache(ds) if config.needs_context() else None
        state = init_model(config, ds.num_features)
        return ds, cache, ctx, state

    def test_zero_classifier_scores_half(self):
        cfg = ModelConfig(K=2, hidden_dim=8)
        ds, cache, ctx, state = self._setup(cfg)
        for layer in state.classifier_mlp.layers:
            layer.weight[...] = 0.0
            layer.bias[...] = 0.0
        yhat = run(state, cache, ctx, np.arange(ds.num_nodes)).yhat
        np.testing.assert_allclose(yhat, 0.5)

    def test_low_only_reduces_to_classifier_of_zlow(self):
        cfg = ModelConfig(K=2, hidden_dim=8, fusion_mode="low_only", use_fpg=False)
        ds, cache, ctx, state = self._setup(cfg)
        assert state.fusion_mlp is None
        from sagad.model import mlp_forward, _sigmoid

        out = run(state, cache, None, np.arange(ds.num_nodes))
        assert out.cbar is None
        w_low = cheb_weights(reparam_filter_values(state.filter)[0])
        z_low = sum(w_low[k] * np.asarray(cache.blocks[k], dtype=np.float64) for k in range(3))
        logits, _ = mlp_forward(state.classifier_mlp, z_low)
        np.testing.assert_allclose(out.yhat, _sigmoid(logits[:, 0]), atol=1e-12)

    def test_eval_mode_is_deterministic(self):
        cfg = ModelConfig(K=3, hidden_dim=8)
        ds, cache, ctx, state = self._setup(cfg, seed=4)
        a = run(state, cache, ctx, np.arange(ds.num_nodes))
        b = run(state, cache, ctx, np.arange(ds.num_nodes))
        np.testing.assert_array_equal(a.yhat, b.yhat)
        np.testing.assert_array_equal(a.cbar, b.cbar)

    def test_batch_invariance(self):
        cfg = ModelConfig(K=3, hidden_dim=8)
        ds, cache, ctx, state = self._setup(cfg, seed=5, n=20)
        whole = run(state, cache, ctx, np.arange(20))
        part1 = run(state, cache, ctx, np.arange(0, 11))
        part2 = run(state, cache, ctx, np.arange(11, 20))
        np.testing.assert_array_equal(whole.yhat, np.concatenate([part1.yhat, part2.yhat]))
        np.testing.assert_array_equal(whole.cbar, np.concatenate([part1.cbar, part2.cbar]))

    def test_probabilities_in_open_interval(self):
        cfg = ModelConfig(K=2, hidden_dim=8)
        ds, cache, ctx, state = self._setup(cfg, seed=6)
        out = run(state, cache, ctx, np.arange(ds.num_nodes))
        assert np.all((out.yhat > 0) & (out.yhat < 1))
        assert np.all((out.cbar > 0) & (out.cbar < 1))


def bits(a):
    return np.ascontiguousarray(a, dtype=np.float64).view(np.uint64)


class TestTileWorkspace:
    """An eval-mode pass through a workspace writes every intermediate
    into its buffers and gives every output the bits of a pass without."""

    @pytest.mark.parametrize("use_fpg", [True, False])
    @pytest.mark.parametrize("context_mode", ["rq", "features_only"])
    @pytest.mark.parametrize("fusion_mode", FUSION_MODES)
    def test_same_bits_as_a_pass_without(self, fusion_mode, context_mode, use_fpg):
        cfg = ModelConfig(K=3, hidden_dim=8, mlp_depth=3, fusion_mode=fusion_mode,
                          context_mode=context_mode, use_fpg=use_fpg, seed=2)
        ds = er_dataset(20, 0.3, 3, seed=3)
        cache = whole_matrix_basis(ds, cfg.K, np.float64)
        ctx = build_context_cache(ds) if cfg.needs_context() else None
        state = init_model(cfg, ds.num_features)
        ws = TileWorkspace(8)
        previous = None
        for lo, hi in ((0, 8), (8, 16), (16, 20)):  # the last tile is partial
            want = run(state, cache, ctx, np.arange(lo, hi))
            got = forward_bundle(state, gather_rows(cache, ctx, slice(lo, hi), cfg, ws), ws=ws)
            for name in ("yhat", "cbar", "coef", "z", "z_low", "z_high"):
                if getattr(want, name) is None:
                    assert getattr(got, name) is None, name
                else:
                    np.testing.assert_array_equal(bits(getattr(got, name)),
                                                  bits(getattr(want, name)), err_msg=name)
            if previous is not None:  # the same buffer, not a new array
                assert np.shares_memory(got.yhat, previous)
            previous = got.yhat

    def test_train_mode_takes_no_workspace(self):
        cfg = ModelConfig(K=2, hidden_dim=4)
        ds = er_dataset(12, 0.3, 3, seed=1)
        state = init_model(cfg, ds.num_features)
        ws = TileWorkspace(12)
        bundle = gather_rows(whole_matrix_basis(ds, cfg.K), build_context_cache(ds),
                             slice(0, 12), cfg, ws)
        with pytest.raises(ValueError, match="eval mode"):
            forward_bundle(state, bundle, train_mode=True, ws=ws)

    def test_gather_takes_a_unit_slice_that_fits(self):
        cfg = ModelConfig(K=2, context_mode="features_only")
        cache = whole_matrix_basis(er_dataset(12, 0.3, 3, seed=1), cfg.K)
        for ids in (np.arange(4), slice(0, 8, 2)):
            with pytest.raises(ValueError, match="unit-step slice"):
                gather_rows(cache, None, ids, cfg, TileWorkspace(8))
        with pytest.raises(ValueError, match="do not fit"):
            gather_rows(cache, None, slice(0, 9), cfg, TileWorkspace(8))


def masked_sigmoid(x):
    """The logistic function by boolean gather and scatter: the reference
    for ``_sigmoid``, which must give every entry the same bits."""
    out = np.empty_like(x, dtype=np.float64)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


class TestSigmoid:
    def test_bitwise_equal_to_masked_reference(self):
        from sagad.model import _sigmoid

        tiny = np.finfo(np.float64).tiny
        special = [0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan, 745.0, -745.0, 746.0, -746.0,
                   1e-300, -1e-300, 5e-324, -5e-324, tiny, -tiny, tiny / 3, -tiny / 3,
                   36.7, -36.7, 710.0, -710.0]
        rng = np.random.default_rng(0)
        grid = np.concatenate([special, np.linspace(-60.0, 60.0, 24_001),
                               rng.uniform(-800.0, 800.0, 4000), 10.0 * rng.standard_normal(4000)])
        strided = grid[: grid.size // 7 * 7].reshape(-1, 7)[:, ::2]
        for x in (grid, strided):
            np.testing.assert_array_equal(bits(_sigmoid(x)), bits(masked_sigmoid(x)))


class TestActivations:
    """The in-place ReLU and the derivative taken from its output give
    every entry the bits of the reference formulas: ReLU into a new array,
    and its derivative from the pre-activation."""

    @staticmethod
    def _grid():
        tiny = np.finfo(np.float64).tiny
        special = [0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan, 1e-300, -1e-300, 5e-324,
                   -5e-324, tiny, -tiny, 1e-17, -1e-17, 20.0, -20.0, 40.0, -40.0, 710.0, -710.0,
                   1e308, -1e308]
        rng = np.random.default_rng(0)
        return np.concatenate([special, np.linspace(-30.0, 30.0, 6001),
                               10.0 * rng.standard_normal(4000)])

    def test_in_place_activation_equals_reference(self):
        from sagad.model import _activate

        pre = self._grid()
        out = _activate(pre.copy())
        np.testing.assert_array_equal(bits(out), bits(np.maximum(pre, 0.0)))

    def test_grad_from_output_equals_reference(self):
        from sagad.model import _activate_grad

        pre = self._grid()
        out = np.maximum(pre, 0.0)
        np.testing.assert_array_equal(bits(_activate_grad(out)),
                                      bits((pre > 0).astype(np.float64)))


class TestLeanEvalForward:
    """The eval-mode forward keeps no trace and computes hidden layers in
    place; its outputs equal a train-mode forward's bit for bit."""

    @staticmethod
    def _state(dim, **cfg):
        state = init_model(ModelConfig(K=3, hidden_dim=6, **cfg), dim)
        prng = np.random.default_rng(7)
        for _, arr in state.params.items():  # both ReLU signs
            arr += prng.normal(0.0, 0.5, arr.shape)
        return state

    @pytest.mark.parametrize("fusion_mode", FUSION_MODES)
    @pytest.mark.parametrize("context_mode", ["rq", "features_only"])
    @pytest.mark.parametrize("depth", [1, 2, 3])
    @pytest.mark.parametrize("use_fpg", [True, False])
    @pytest.mark.parametrize("rows", [1, 7])
    @pytest.mark.parametrize("as_slice", [False, True], ids=["ids", "slice"])
    def test_equals_train_mode_forward(
        self, fusion_mode, context_mode, depth, use_fpg, rows, as_slice
    ):
        # Training gathers id arrays (copies); scoring gathers slices, whose
        # f64 rows are views of the cache blocks, so an in-place write by the
        # forward would corrupt the cache.
        ds = er_dataset(12, 0.3, 4, seed=1)
        cache = whole_matrix_basis(ds, 3, np.float64)
        ctx = build_context_cache(ds)
        state = self._state(ds.num_features, mlp_depth=depth, fusion_mode=fusion_mode,
                            context_mode=context_mode, use_fpg=use_fpg)
        ids = slice(2, 2 + rows) if as_slice else np.arange(2, 2 + rows)
        bundle = gather_rows(cache, ctx, ids, state.config)
        assert all(np.shares_memory(r, b) == as_slice
                   for r, b in zip(bundle.block_rows, cache.blocks))
        inputs = [b.copy() for b in bundle.block_rows]
        lean = forward_bundle(state, bundle)
        full = forward_bundle(state, bundle, train_mode=True)
        assert lean.fusion_trace is None and lean.clf_trace is None
        assert full.clf_trace is not None
        np.testing.assert_array_equal(bits(lean.yhat), bits(full.yhat))
        assert (lean.cbar is None) == (full.cbar is None) == (state.fusion_mlp is None)
        if lean.cbar is not None:
            np.testing.assert_array_equal(bits(lean.cbar), bits(full.cbar))
        for before, after in zip(inputs, bundle.block_rows):
            np.testing.assert_array_equal(bits(before), bits(after))


class TestStackedParts:
    """A bundle of stacked parts (train rows, then val rows, in training)
    gives each part's rows the bits of a forward pass over that part alone,
    in both modes: elementwise steps are row-local, and every matmul runs
    on one part at a time, since BLAS picks its kernel by the shape (a
    one-row part or the one-column head is a GEMV alone and a GEMM
    stacked, and the two round differently)."""

    @staticmethod
    def _state(cfg, dim):
        state = init_model(cfg, dim)
        prng = np.random.default_rng(11)
        for _, arr in state.params.items():  # both ReLU signs
            arr += prng.normal(0.0, 0.5, arr.shape)
        return state

    @staticmethod
    def _stacked(cache, ctx, ids, sizes, cfg):
        bundle = gather_rows(cache, ctx, ids, cfg)
        bundle.bounds = tuple(int(b) for b in np.cumsum([0, *sizes]))
        return bundle

    @pytest.mark.parametrize("hidden_dim", [1, 8, 64])
    @pytest.mark.parametrize("depth", [1, 2, 3])
    @pytest.mark.parametrize("sizes", [(50, 50), (1, 50), (50, 1), (2, 2), (1, 2, 50)])
    @pytest.mark.parametrize("dim,fusion_mode", [(32, "adaptive"), (5, "adaptive"),
                                                 (32, "concat")])
    def test_each_part_has_the_bits_of_its_own_pass(self, hidden_dim, depth, sizes, dim,
                                                    fusion_mode):
        ds = er_dataset(120, 0.05, dim, seed=3)
        cache = whole_matrix_basis(ds, 3, np.float64)
        ctx = build_context_cache(ds)
        cfg = ModelConfig(K=3, hidden_dim=hidden_dim, mlp_depth=depth, fusion_mode=fusion_mode)
        state = self._state(cfg, dim)
        ids = np.random.default_rng(len(sizes)).permutation(ds.num_nodes)[: sum(sizes)]
        stacked = self._stacked(cache, ctx, ids, sizes, cfg)
        for train_mode in (False, True):
            whole = forward_bundle(state, stacked, train_mode=train_mode)
            for rows in stacked.parts():
                alone = forward_bundle(state, gather_rows(cache, ctx, ids[rows], cfg),
                                       train_mode=train_mode)
                for name in ("z_low", "z_high", "coef", "cbar", "z", "yhat"):
                    np.testing.assert_array_equal(bits(getattr(whole, name)[rows]),
                                                  bits(getattr(alone, name)), err_msg=name)

    @pytest.mark.parametrize("fusion_mode", FUSION_MODES)
    @pytest.mark.parametrize("use_fpg", [True, False])
    @pytest.mark.parametrize("sizes", [(1, 7), (7, 1), (50, 50)])
    def test_gradients_are_those_of_the_first_part(self, fusion_mode, use_fpg, sizes):
        from sagad.model import ParamVector
        from sagad.training import TrainConfig, loss_and_grads_bundle, loss_labels

        ds = er_dataset(120, 0.05, 6, seed=4, anomaly_frac=0.3)
        cache = whole_matrix_basis(ds, 3, np.float64)
        ctx = build_context_cache(ds)
        cfg = ModelConfig(K=3, hidden_dim=8, fusion_mode=fusion_mode, use_fpg=use_fpg)
        state = self._state(cfg, ds.num_features)
        ids = np.random.default_rng(5).permutation(ds.num_nodes)[: sum(sizes)]
        terms = loss_labels(ds.labels[ids[: sizes[0]]], 0.4, cfg)
        tc = TrainConfig(weight_decay=0.01)
        out = ParamVector(state.params.layout)
        out.flat[...] = np.nan  # every value is written
        bundle = self._stacked(cache, ctx, ids, sizes, cfg)
        stacked = loss_and_grads_bundle(state, bundle, terms, tc, out,
                                        forward_bundle(state, bundle, train_mode=True))
        alone = loss_and_grads_bundle(state, gather_rows(cache, ctx, ids[: sizes[0]], cfg),
                                      terms, tc)
        assert stacked.grads is out
        assert stacked.data_loss == alone.data_loss
        np.testing.assert_array_equal(bits(out.flat), bits(alone.grads.flat))


class TestConfigValidation:
    def test_p_ordering_enforced(self):
        with pytest.raises(ConfigError, match="p_a"):
            ModelConfig(p_a=0.9, p_n=0.1).validate()

    def test_unknown_mode_rejected(self):
        with pytest.raises(ConfigError, match="fusion_mode"):
            ModelConfig(fusion_mode="other").validate()

    def test_depth_bounds(self):
        with pytest.raises(ConfigError, match="mlp_depth"):
            ModelConfig(mlp_depth=4).validate()

    @pytest.mark.parametrize("hidden_dim", [0, -3])
    def test_hidden_dim_below_one_rejected(self, hidden_dim):
        with pytest.raises(ConfigError, match=f"hidden_dim must be >= 1, got {hidden_dim}"):
            init_model(ModelConfig(hidden_dim=hidden_dim), 3)

    def test_negative_seed_rejected(self):
        with pytest.raises(ConfigError, match="seed must be >= 0, got -1"):
            init_model(ModelConfig(seed=-1), 3)


def _per_array_init(cfg, dim):
    """Initialization as it was written per MLP layer, allocating each
    array: the reference for init_model's draws into the flat vector."""
    rng = np.random.default_rng(np.random.SeedSequence([0x3A9, cfg.seed, 1]))
    raw0 = inv_softplus(1.0 / (cfg.K + 1))
    arrays = [np.full(cfg.K + 1, raw0)]
    fusion_in = dim if cfg.context_mode == "features_only" else 2 * dim
    mlps = [(fusion_in, dim)] if cfg.uses_fusion_mlp() else []
    concat = cfg.fusion_mode == "concat"
    for in_dim, out_dim in mlps + [(2 * dim if concat else dim, 1)]:
        dims = [in_dim] + [cfg.hidden_dim] * (cfg.mlp_depth - 1) + [out_dim]
        for i in range(cfg.mlp_depth):
            bound = 1.0 / np.sqrt(dims[i])
            arrays.append(rng.uniform(-bound, bound, size=(dims[i], dims[i + 1])))
            arrays.append(np.zeros(dims[i + 1]))
    return arrays


def _per_array_checkpoint(state):
    """Checkpoint bytes as they were written one parameter array at a time:
    the reference for save_checkpoint's single flat payload."""
    names, arrays = zip(*[(n, a.copy()) for n, a in state.params.items()])
    layout, offset = [], 0
    for name, arr in zip(names, arrays):
        layout.append({"name": name, "shape": list(arr.shape), "offset": offset})
        offset += arr.size
    header = {
        "config": dataclasses.asdict(state.config),
        "dim": state.dim,
        "layout": layout,
        "total_values": offset,
        "payload": "little-endian float64, concatenated in layout order",
    }
    blob = json.dumps(header, sort_keys=True).encode("utf-8")
    payload = b"".join(arr.astype("<f8").tobytes() for arr in arrays)
    return CHECKPOINT_MAGIC + struct.pack("<Q", len(blob)) + blob + payload


_LAYOUT_CONFIGS = [
    ModelConfig(K=2, hidden_dim=4),
    ModelConfig(K=3, hidden_dim=8, mlp_depth=3, seed=5),
    ModelConfig(K=1, hidden_dim=3, mlp_depth=1, fusion_mode="concat", use_fpg=False, seed=2),
    ModelConfig(K=2, hidden_dim=5, context_mode="features_only", seed=9),
]


class TestParamLayout:
    @pytest.mark.parametrize("cfg", _LAYOUT_CONFIGS)
    def test_init_matches_per_array_reference(self, cfg):
        state = init_model(cfg, 3)
        ref = _per_array_init(cfg, 3)
        assert len(ref) == len(state.params)
        for (_, arr), want in zip(state.params.items(), ref):
            np.testing.assert_array_equal(arr, want)

    def test_arrays_are_views_of_one_vector(self):
        state = init_model(_LAYOUT_CONFIGS[1], 3)
        slots = state.params.layout
        assert [s["name"] for s in slots] == [name for name, _ in state.params.items()]
        ends = [s["offset"] + int(np.prod(s["shape"])) for s in slots]
        assert [s["offset"] for s in slots] == [0] + ends[:-1]
        assert ends[-1] == state.params.flat.size
        state.params.flat[...] = np.arange(state.params.flat.size)
        for slot, end in zip(slots, ends):
            np.testing.assert_array_equal(
                state.params[slot["name"]].reshape(-1), np.arange(slot["offset"], end)
            )
        assert state.classifier_mlp.layers[-1].bias[0] == state.params.flat[-1]
        np.testing.assert_array_equal(state.filter, np.arange(state.config.K + 1))




class TestCheckpoint:
    def test_roundtrip_preserves_outputs(self, tmp_path):
        cfg = ModelConfig(K=3, hidden_dim=8, mlp_depth=2, seed=3)
        ds = er_dataset(15, 0.3, 3, seed=7)
        cache = whole_matrix_basis(ds, cfg.K, np.float64)
        ctx = build_context_cache(ds)
        state = init_model(cfg, ds.num_features)
        rng = np.random.default_rng(1)
        for _, arr in state.params.items():
            arr += rng.normal(0, 0.1, arr.shape)
        path = tmp_path / "model.bin"
        save_checkpoint(state, path)
        loaded = load_checkpoint(path)
        for (na, a), (nb, b) in zip(state.params.items(), loaded.params.items()):
            assert na == nb
            np.testing.assert_array_equal(a, b)
        ya = run(state, cache, ctx, np.arange(ds.num_nodes)).yhat
        yb = run(loaded, cache, ctx, np.arange(ds.num_nodes)).yhat
        np.testing.assert_array_equal(ya, yb)

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "model.bin"
        path.write_bytes(b"NOTMAGIC" + b"\x00" * 32)
        with pytest.raises(CacheFormatError, match="magic"):
            load_checkpoint(path)

    @pytest.mark.parametrize(("content", "message"), [
        (CHECKPOINT_MAGIC + b"\x00\x00", "truncated checkpoint header"),  # a 10-byte file
        (CHECKPOINT_MAGIC + struct.pack("<Q", 50) + b"{}", "truncated checkpoint header"),
        (CHECKPOINT_MAGIC + struct.pack("<Q", 5) + b"{bad}", "malformed checkpoint header"),
        (CHECKPOINT_MAGIC + struct.pack("<Q", 2) + b"\xff\xfe", "malformed checkpoint header"),
        (CHECKPOINT_MAGIC + struct.pack("<Q", 2) + b"[]", "malformed checkpoint header"),
    ])
    def test_malformed_header_rejected(self, tmp_path, content, message):
        path = tmp_path / "model.bin"
        path.write_bytes(content)
        with pytest.raises(CacheFormatError, match=message):
            load_checkpoint(path)

    @staticmethod
    def _rewrite_header(path, edit):
        save_checkpoint(init_model(ModelConfig(K=2, hidden_dim=4), 3), path)
        raw = path.read_bytes()
        (blob_len,) = struct.unpack("<Q", raw[8:16])
        header = json.loads(raw[16 : 16 + blob_len])
        edit(header)
        blob = json.dumps(header).encode()
        path.write_bytes(raw[:8] + struct.pack("<Q", len(blob)) + blob + raw[16 + blob_len :])

    @pytest.mark.parametrize("key", ["total_values", "config", "dim", "layout"])
    def test_missing_header_key_rejected(self, tmp_path, key):
        path = tmp_path / "model.bin"
        self._rewrite_header(path, lambda header: header.pop(key))
        message = f"malformed checkpoint header: KeyError\\('{key}'\\)"
        with pytest.raises(CacheFormatError, match=message):
            load_checkpoint(path)

    @pytest.mark.parametrize("edit", [
        lambda header: header.update(dim=0),
        lambda header: header.update(dim=-3),
        lambda header: header["config"].update(K="x"),
        lambda header: header["config"].update(bogus=1),
        lambda header: header["config"].pop("fusion_mode"),
        lambda header: header["config"].update(K=0),
        lambda header: header["config"].update(hidden_dim=0),
        lambda header: header["config"].update(fusion_mode="bogus"),
        lambda header: header["config"].update(mlp_depth=9),
    ])
    def test_bad_header_value_rejected(self, tmp_path, edit):
        path = tmp_path / "model.bin"
        self._rewrite_header(path, edit)
        with pytest.raises(CacheFormatError, match="malformed checkpoint header") as err:
            load_checkpoint(path)
        assert f"(in {path})" in str(err.value)

    @pytest.mark.parametrize("cfg", _LAYOUT_CONFIGS)
    def test_bytes_equal_per_array_writer(self, tmp_path, cfg):
        state = init_model(cfg, 3)
        rng = np.random.default_rng(7)
        for _, arr in state.params.items():
            arr += rng.normal(0, 0.1, arr.shape)
        save_checkpoint(state, tmp_path / "model.bin")
        assert (tmp_path / "model.bin").read_bytes() == _per_array_checkpoint(state)

    @pytest.mark.parametrize(("edit", "message"), [
        (lambda layout: layout[1].update(shape=[3, 4]),
         "checkpoint parameter fusion.0.weight has wrong shape or offset"),
        (lambda layout: layout[2].update(offset=layout[2]["offset"] + 1),
         "checkpoint parameter fusion.0.bias has wrong shape or offset"),
        (lambda layout: layout.pop(3), "checkpoint missing parameter fusion.1.weight"),
        (lambda layout: layout.append({"name": "extra", "shape": [1], "offset": 0}),
         "parameters the model lacks, or another order"),
        (lambda layout: layout.reverse(), "parameters the model lacks, or another order"),
        (lambda layout: layout.clear(), "checkpoint missing parameter filter.raw"),
        (lambda layout: layout.__setitem__(0, {"name": [1]}),
         "checkpoint missing parameter filter.raw"),
        (lambda layout: layout.__setitem__(0, "filter.raw"),
         "checkpoint missing parameter filter.raw"),
    ])
    def test_layout_mismatch_rejected(self, tmp_path, edit, message):
        path = tmp_path / "model.bin"
        self._rewrite_header(path, lambda header: edit(header["layout"]))
        with pytest.raises(CacheFormatError, match=message):
            load_checkpoint(path)

    def test_total_values_checked(self, tmp_path):
        path = tmp_path / "model.bin"
        self._rewrite_header(path, lambda header: header.update(total_values=3))
        with pytest.raises(CacheFormatError, match="checkpoint payload is .* total_values=3"):
            load_checkpoint(path)

    @pytest.mark.parametrize("dim", [10**7, 10**9])
    @pytest.mark.parametrize("consistent", [False, True])
    def test_huge_dim_fails_before_allocating(self, tmp_path, dim, consistent):
        """A header announcing dim = 1e7 or 1e9 (a 1.2 GB or 120 GB model
        here) is checked on its numbers alone: the layout, then total_values
        and the payload size, before the parameter vector is allocated."""
        path = tmp_path / "model.bin"

        def edit(header):
            header["dim"] = dim
            if consistent:  # the layout and total of that dim
                header["layout"] = param_layout(ModelConfig(**header["config"]), dim)
                header["total_values"] = sum(math.prod(s["shape"]) for s in header["layout"])

        self._rewrite_header(path, edit)
        message = "checkpoint payload is" if consistent else "wrong shape or offset"
        tracemalloc.start()
        try:
            with pytest.raises(CacheFormatError, match=message):
                load_checkpoint(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1e6

    def test_payload_size_checked(self, tmp_path):
        path = tmp_path / "model.bin"
        save_checkpoint(init_model(ModelConfig(K=2, hidden_dim=4), 3), path)
        path.write_bytes(path.read_bytes()[:-8])
        with pytest.raises(CacheFormatError, match="checkpoint payload is"):
            load_checkpoint(path)
