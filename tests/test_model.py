import itertools
import json
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sagad.chebyshev import build_cheb_basis, chebyshev_nodes, dense_spectral_oracle
from sagad.context import build_context_cache
from sagad.errors import CacheFormatError, ConfigError
from sagad.model import (
    ACTIVATIONS,
    CHECKPOINT_MAGIC,
    FILTER_MODES,
    FUSION_MODES,
    NORMALIZATIONS,
    FilterParams,
    ModelConfig,
    cheb_weights,
    filter_response,
    forward_bundle,
    fuse,
    gather_rows,
    init_model,
    interpolation_matrix,
    inv_softplus,
    iter_params,
    load_checkpoint,
    reparam_filter_values,
    save_checkpoint,
)

from conftest import er_dataset, make_dataset


def run(state, cache, ctx, ids):
    """The forward pass on the batch ``ids``."""
    return forward_bundle(state, gather_rows(cache, ctx, ids, state.config))


def filter_from_gamma(gammas):
    """FilterParams whose softplus output equals the requested gammas."""
    raw = np.asarray(
        [inv_softplus(g) if g > 1e-300 else -745.0 for g in gammas], dtype=np.float64
    )
    return FilterParams(raw=raw)


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

    def test_decoupled_vectors(self):
        raw = filter_from_gamma([0.5, 0.2]).raw
        raw_high = filter_from_gamma([0.1, 0.4]).raw
        gl, gh = reparam_filter_values(FilterParams(raw=raw, raw_high=raw_high))
        np.testing.assert_allclose(gl, [0.5, 0.3], atol=1e-12)
        np.testing.assert_allclose(gh, [0.1, 0.5], atol=1e-12)


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
        gl, gh = reparam_filter_values(FilterParams(raw=raw))
        nodes = chebyshev_nodes(order)
        high = filter_response(cheb_weights(gh), nodes)
        low = filter_response(cheb_weights(gl), nodes)
        assert np.all(np.diff(high) >= -1e-10)
        assert np.all(np.diff(low) <= 1e-10)

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
        gl, _ = reparam_filter_values(FilterParams(raw=raw))
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
    """z_low and z_high of the forward pass of a model with filter ``fp``."""
    state = init_model(ModelConfig(K=cache.order, context_mode="features_only", hidden_dim=4),
                       cache.dim)
    state.filter = fp
    out = run(state, cache, None, ids)
    return out.z_low, out.z_high


class TestDualEmbed:
    def _cache(self, seed=0, n=14, d=3, order=3):
        ds = er_dataset(n, 0.3, d, seed=seed)
        return ds, build_cheb_basis(ds, order, dtype=np.float64)

    def test_identity_low_pass_returns_features(self):
        ds, cache = self._cache()
        fp = filter_from_gamma([1.0, 0.0, 0.0, 0.0])
        z_low, _ = dual_embed(cache, fp, np.arange(ds.num_nodes))
        np.testing.assert_allclose(z_low, ds.features, atol=1e-10)

    def test_eigenvector_is_scaled_by_response(self):
        ds = make_dataset([[0, 1]], [[1.0], [-1.0]], [0, 0])
        cache = build_cheb_basis(ds, 2, dtype=np.float64)
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


class TestFusion:
    def _setup(self, config=None, seed=0):
        ds = er_dataset(12, 0.3, 4, seed=seed)
        config = config or ModelConfig(K=2, hidden_dim=8, seed=seed)
        cache = build_cheb_basis(ds, config.K, dtype=np.float64)
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

    def test_fuse_extremes_and_mean(self):
        z_low = np.asarray([[1.0, 2.0]])
        z_high = np.asarray([[3.0, 6.0]])
        np.testing.assert_array_equal(fuse(z_low, z_high, np.ones_like(z_low), "adaptive"), z_low)
        np.testing.assert_array_equal(fuse(z_low, z_high, np.zeros_like(z_low), "adaptive"), z_high)
        half = fuse(z_low, z_high, np.full_like(z_low, 0.5), "adaptive")
        np.testing.assert_array_equal(half, fuse(z_low, z_high, None, "mean"))

    def test_concat_doubles_width(self):
        z = fuse(np.ones((3, 2)), np.zeros((3, 2)), None, "concat")
        assert z.shape == (3, 4)

    def test_adaptive_stays_between_embeddings(self):
        ds, cache, ctx, state = self._setup(seed=3)
        out = run(state, cache, ctx, np.arange(ds.num_nodes))
        lo = np.minimum(out.z_low, out.z_high)
        hi = np.maximum(out.z_low, out.z_high)
        assert np.all(out.z >= lo - 1e-12) and np.all(out.z <= hi + 1e-12)


class TestForward:
    def _setup(self, config, seed=0, n=16):
        ds = er_dataset(n, 0.3, 3, seed=seed)
        cache = build_cheb_basis(ds, config.K, dtype=np.float64)
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
        cfg = ModelConfig(K=2, hidden_dim=8, filter_mode="low_only", use_fpg=False)
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
        cfg = ModelConfig(K=3, hidden_dim=8, dropout=0.4)
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


class TestLeanEvalForward:
    """The eval-mode forward keeps no trace and computes hidden layers in
    place; its outputs equal a train-mode (dropout 0) forward's bit for bit."""

    @staticmethod
    def _state(dim, **cfg):
        state = init_model(ModelConfig(K=3, hidden_dim=6, **cfg), dim)
        prng = np.random.default_rng(7)
        for _, arr in iter_params(state):  # both ReLU signs, non-trivial LN gains
            arr += prng.normal(0.0, 0.5, arr.shape)
        return state

    @pytest.mark.parametrize("activation", ACTIVATIONS)
    @pytest.mark.parametrize("normalization", NORMALIZATIONS)
    @pytest.mark.parametrize("fusion_mode", FUSION_MODES)
    @pytest.mark.parametrize("filter_mode", FILTER_MODES)
    @pytest.mark.parametrize("context_mode", ["rq", "features_only"])
    def test_equals_train_mode_forward(self, activation, normalization, fusion_mode,
                                       filter_mode, context_mode):
        ds = er_dataset(12, 0.3, 4, seed=1)
        cache = build_cheb_basis(ds, 3, dtype=np.float64)
        ctx = build_context_cache(ds)
        for depth, use_fpg, rows in itertools.product((1, 3), (True, False), (1, 7)):
            state = self._state(ds.num_features, activation=activation, mlp_depth=depth,
                                normalization=normalization, fusion_mode=fusion_mode,
                                filter_mode=filter_mode, context_mode=context_mode,
                                use_fpg=use_fpg)
            bundle = gather_rows(cache, ctx, np.arange(2, 2 + rows), state.config)
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


class TestCheckpoint:
    def test_roundtrip_preserves_outputs(self, tmp_path):
        cfg = ModelConfig(K=3, hidden_dim=8, mlp_depth=2, normalization="layer", seed=3)
        ds = er_dataset(15, 0.3, 3, seed=7)
        cache = build_cheb_basis(ds, cfg.K, dtype=np.float64)
        ctx = build_context_cache(ds)
        state = init_model(cfg, ds.num_features)
        rng = np.random.default_rng(1)
        for _, arr in iter_params(state):
            arr += rng.normal(0, 0.1, arr.shape)
        path = tmp_path / "model.bin"
        save_checkpoint(state, path)
        loaded = load_checkpoint(path)
        for (na, a), (nb, b) in zip(iter_params(state), iter_params(loaded)):
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
    ])
    def test_bad_header_value_rejected(self, tmp_path, edit):
        path = tmp_path / "model.bin"
        self._rewrite_header(path, edit)
        with pytest.raises(CacheFormatError, match="malformed checkpoint header"):
            load_checkpoint(path)

    def test_payload_size_checked(self, tmp_path):
        path = tmp_path / "model.bin"
        save_checkpoint(init_model(ModelConfig(K=2, hidden_dim=4), 3), path)
        path.write_bytes(path.read_bytes()[:-8])
        with pytest.raises(CacheFormatError, match="checkpoint payload is"):
            load_checkpoint(path)
