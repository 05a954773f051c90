import math

import numpy as np
import pytest

from sagad.chebyshev import build_cheb_basis
from sagad.context import build_context_cache
from sagad.errors import ConfigError
from sagad.graph import SplitSet
from sagad.model import ModelConfig, dropout_rng, gather_rows, init_model, iter_params
from sagad.training import (
    TrainConfig,
    adam_step,
    bce_loss_grad,
    compute_beta,
    evaluate_objective,
    fpg_loss_grad,
    init_optimizer,
    loss_and_grads_bundle,
    objective_terms,
    score_all,
    train,
)

from conftest import er_dataset

EPS = 1e-7


def data_loss(yhat, cbar, labels, beta, cfg, eps):
    """The objective's data loss (BCE, plus FPG when enabled), no weight decay."""
    state = init_model(cfg, 1)
    return objective_terms(state, yhat, cbar, labels, beta, TrainConfig(clamp_eps=eps))[0]


class TestComputeBeta:
    def test_protocol_ratio(self):
        labels = np.asarray([1] * 20 + [0] * 80, dtype=np.int8)
        split = SplitSet(
            train=np.arange(0, 50), val=np.arange(50, 100), test=np.asarray([], dtype=int)
        )
        assert compute_beta(split, labels) == pytest.approx(0.25)

    def test_balanced(self):
        labels = np.asarray([1, 0, 1, 0], dtype=np.int8)
        split = SplitSet(train=np.asarray([0, 1]), val=np.asarray([2, 3]), test=np.asarray([], dtype=int))
        assert compute_beta(split, labels) == pytest.approx(1.0)

    def test_missing_class_rejected(self):
        labels = np.zeros(4, dtype=np.int8)
        split = SplitSet(train=np.asarray([0, 1]), val=np.asarray([2, 3]), test=np.asarray([], dtype=int))
        with pytest.raises(ValueError, match="both classes"):
            compute_beta(split, labels)


class TestFpgLoss:
    def test_targets_met_exactly(self):
        cbar = np.asarray([EPS, 1.0 - EPS])
        labels = np.asarray([1, 0])
        loss = fpg_loss_grad(cbar, labels, beta=1.0, p_a=0.0, p_n=1.0, eps=EPS)[0]
        assert loss == pytest.approx(0.0, abs=1e-6)

    def test_uninformative_half(self):
        cbar = np.asarray([0.5, 0.5])
        labels = np.asarray([1, 0])
        loss = fpg_loss_grad(cbar, labels, beta=1.0, p_a=0.0, p_n=1.0, eps=EPS)[0]
        assert loss == pytest.approx(-math.log(0.5), abs=1e-9)

    def test_single_normal(self):
        loss = fpg_loss_grad(np.asarray([0.8]), np.asarray([0]), beta=1.0, p_a=0.0, p_n=1.0, eps=EPS)[0]
        assert loss == pytest.approx(-math.log(0.8), abs=1e-9)

    def test_stationary_at_target(self):
        # per-node term is minimized where the mean coefficient equals the target
        for target in (0.2, 0.5, 0.85):
            below, _ = fpg_loss_grad(
                np.asarray([target - 1e-4]), np.asarray([0]), 1.0, 0.1, target, EPS
            )
            above, _ = fpg_loss_grad(
                np.asarray([target + 1e-4]), np.asarray([0]), 1.0, 0.1, target, EPS
            )
            at, grad_at = fpg_loss_grad(
                np.asarray([target]), np.asarray([0]), 1.0, 0.1, target, EPS
            )
            assert below > at and above > at
            assert grad_at[0] == pytest.approx(0.0, abs=1e-9)

    def test_nonnegative(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            cbar = rng.uniform(0.01, 0.99, 6)
            labels = rng.integers(0, 2, 6)
            if labels.sum() in (0, 6):
                continue
            loss = fpg_loss_grad(cbar, labels, 0.5, 0.2, 0.8, EPS)[0]
            assert loss >= 0.0


class TestBceLoss:
    def test_near_zero_at_optimum(self):
        yhat = np.asarray([1.0 - EPS, EPS])
        labels = np.asarray([1, 0])
        assert bce_loss_grad(yhat, labels, beta=1.0, eps=EPS)[0] <= 2 * EPS * abs(math.log(EPS))

    def test_weighted_half(self):
        yhat = np.asarray([0.5, 0.5])
        labels = np.asarray([1, 0])
        loss = bce_loss_grad(yhat, labels, beta=0.25, eps=EPS)[0]
        assert loss == pytest.approx(1.25 / 2 * math.log(2), abs=1e-9)

    def test_single_normal_half(self):
        loss = bce_loss_grad(np.asarray([0.5]), np.asarray([0]), beta=0.25, eps=EPS)[0]
        assert loss == pytest.approx(math.log(2), abs=1e-9)


class TestTotalLoss:
    def test_fpg_disabled_equals_bce(self):
        cfg = ModelConfig(use_fpg=False)
        yhat = np.asarray([0.3, 0.6])
        labels = np.asarray([1, 0])
        assert data_loss(yhat, None, labels, 0.5, cfg, EPS) == bce_loss_grad(yhat, labels, 0.5, EPS)[0]

    def test_sum_of_hand_cases(self):
        # the two sub-loss oracles add: 0.43322 + 0.69315 = 1.12637
        yhat = np.asarray([0.5, 0.5])
        cbar = np.asarray([0.5, 0.5])
        labels = np.asarray([1, 0])
        bce_part = bce_loss_grad(yhat, labels, beta=0.25, eps=EPS)[0]
        fpg_part = fpg_loss_grad(cbar, labels, beta=1.0, p_a=0.0, p_n=1.0, eps=EPS)[0]
        assert bce_part + fpg_part == pytest.approx(1.12637, abs=1e-5)

    def test_total_is_sum_of_parts(self):
        cfg = ModelConfig(use_fpg=True, p_a=0.1, p_n=0.9)
        yhat = np.asarray([0.3, 0.8, 0.5])
        cbar = np.asarray([0.4, 0.6, 0.5])
        labels = np.asarray([1, 0, 0])
        expected = bce_loss_grad(yhat, labels, 0.5, EPS)[0] + fpg_loss_grad(cbar, labels, 0.5, 0.1, 0.9, EPS)[0]
        assert data_loss(yhat, cbar, labels, 0.5, cfg, EPS) == pytest.approx(expected, abs=1e-12)

    def test_objective_adds_the_weight_decay_term(self):
        cfg = ModelConfig(use_fpg=False)
        state = init_model(cfg, 2)
        yhat, labels = np.asarray([0.3, 0.6]), np.asarray([1, 0])
        loss, objective, _, _ = objective_terms(
            state, yhat, None, labels, 0.5, TrainConfig(weight_decay=0.1, clamp_eps=EPS)
        )
        sq = sum(float(np.sum(p * p)) for _, p in iter_params(state))
        assert loss == bce_loss_grad(yhat, labels, 0.5, EPS)[0]
        assert objective == pytest.approx(loss + 0.05 * sq, rel=1e-12)

    def test_requires_cbar_when_enabled(self):
        cfg = ModelConfig(use_fpg=True)
        with pytest.raises(ValueError, match="fusion"):
            data_loss(np.asarray([0.5]), None, np.asarray([0]), 1.0, cfg, EPS)


class TestAdam:
    def _scalar_state(self):
        cfg = ModelConfig(K=1, hidden_dim=2, mlp_depth=1, use_fpg=False,
                          context_mode="features_only", filter_mode="low_only")
        state = init_model(cfg, 1)
        return state

    def test_first_step_magnitude(self):
        state = self._scalar_state()
        opt = init_optimizer(state)
        name, param = next(iter_params(state))
        before = param.copy()
        grads = {n: np.zeros_like(a) for n, a in iter_params(state)}
        grads[name] = np.ones_like(param)
        adam_step(state, grads, opt, lr=1e-3)
        delta = param - before
        np.testing.assert_allclose(delta, -1e-3 / (1 + 1e-8), atol=1e-12)

    def test_zero_gradient_keeps_parameters(self):
        state = self._scalar_state()
        opt = init_optimizer(state)
        before = {n: a.copy() for n, a in iter_params(state)}
        grads = {n: np.zeros_like(a) for n, a in iter_params(state)}
        adam_step(state, grads, opt, lr=0.1, weight_decay=0.0)
        for n, a in iter_params(state):
            np.testing.assert_array_equal(a, before[n])

    def test_deterministic(self):
        runs = []
        for _ in range(2):
            state = self._scalar_state()
            opt = init_optimizer(state)
            rng = np.random.default_rng(0)
            for _ in range(5):
                grads = {n: rng.normal(size=a.shape) for n, a in iter_params(state)}
                adam_step(state, grads, opt, lr=0.01)
            runs.append({n: a.copy() for n, a in iter_params(state)})
        for n in runs[0]:
            np.testing.assert_array_equal(runs[0][n], runs[1][n])


def _fd_setup(cfg, seed=0, n=16):
    ds = er_dataset(n, 0.3, 3, seed=seed)
    cache = build_cheb_basis(ds, cfg.K, dtype=np.float64)
    ctx = build_context_cache(ds) if cfg.needs_context() else None
    state = init_model(cfg, ds.num_features)
    prng = np.random.default_rng(seed + 100)
    for _, arr in iter_params(state):
        arr += prng.normal(0, 0.25, arr.shape)
    bundle = gather_rows(cache, ctx, np.arange(n), cfg)
    return ds, cache, ctx, state, bundle


def _fd_check(state, bundle, labels, tc, cfg, h=1e-5):
    rng = dropout_rng(cfg.seed, 0) if cfg.dropout > 0 else None
    breakdown = loss_and_grads_bundle(state, bundle, labels, 1.0, tc, rng)
    worst = 0.0
    for name, arr in iter_params(state):
        grad = breakdown.grads[name].reshape(-1)
        flat = arr.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + h
            rng = dropout_rng(cfg.seed, 0) if cfg.dropout > 0 else None
            f_plus = evaluate_objective(state, bundle, labels, 1.0, tc, rng)
            flat[i] = orig - h
            rng = dropout_rng(cfg.seed, 0) if cfg.dropout > 0 else None
            f_minus = evaluate_objective(state, bundle, labels, 1.0, tc, rng)
            flat[i] = orig
            fd = (f_plus - f_minus) / (2 * h)
            err = abs(grad[i] - fd) / max(abs(grad[i]), abs(fd), 1e-3)
            worst = max(worst, err)
    return worst


class TestGradients:
    def test_finite_difference_agreement(self):
        cfg = ModelConfig(K=2, hidden_dim=4, mlp_depth=2)
        ds, cache, ctx, state, bundle = _fd_setup(cfg)
        worst = _fd_check(state, bundle, ds.labels.astype(float), TrainConfig(), cfg)
        assert worst <= 1e-4

    def test_weight_decay_gradient(self):
        cfg = ModelConfig(K=2, hidden_dim=4, mlp_depth=1, activation="identity")
        ds, cache, ctx, state, bundle = _fd_setup(cfg, seed=1)
        tc = TrainConfig(weight_decay=0.05)
        worst = _fd_check(state, bundle, ds.labels.astype(float), tc, cfg)
        assert worst <= 1e-4

    def test_frozen_path_gets_zero_gradient(self):
        # high-pass raw vector is unused under low_only with decoupled gammas
        cfg = ModelConfig(
            K=2, hidden_dim=4, filter_mode="low_only", share_gamma=False, use_fpg=False,
            context_mode="features_only",
        )
        ds, cache, ctx, state, bundle = _fd_setup(cfg, seed=2)
        breakdown = loss_and_grads_bundle(
            state, bundle, ds.labels.astype(float), 1.0, TrainConfig()
        )
        np.testing.assert_array_equal(breakdown.grads["filter.raw_high"], 0.0)

    def test_gradients_scale_linearly(self):
        # doubling the loss (scaling both terms) doubles every gradient entry
        from sagad.model import backward_bundle, forward_bundle
        from sagad.training import bce_loss_grad

        cfg = ModelConfig(K=2, hidden_dim=4, use_fpg=True)
        ds, cache, ctx, state, bundle = _fd_setup(cfg, seed=3)
        y = ds.labels.astype(float)
        trace = forward_bundle(state, bundle, train_mode=True)
        _, d_yhat = bce_loss_grad(trace.yhat, y, 1.0, EPS)
        _, d_cbar = fpg_loss_grad(trace.cbar, y, 1.0, cfg.p_a, cfg.p_n, EPS)
        g1 = backward_bundle(state, trace, d_yhat, d_cbar)
        g2 = backward_bundle(state, trace, 2.0 * d_yhat, 2.0 * d_cbar)
        for name in g1:
            np.testing.assert_allclose(g2[name], 2.0 * g1[name], atol=1e-14)

    def test_backward_needs_a_train_mode_forward(self):
        from sagad.model import backward_bundle, forward_bundle, mlp_backward
        from sagad.training import bce_loss_grad

        cfg = ModelConfig(K=2, hidden_dim=4, use_fpg=True)
        ds, cache, ctx, state, bundle = _fd_setup(cfg, seed=3)
        y = ds.labels.astype(float)
        trace = forward_bundle(state, bundle)
        _, d_yhat = bce_loss_grad(trace.yhat, y, 1.0, EPS)
        _, d_cbar = fpg_loss_grad(trace.cbar, y, 1.0, cfg.p_a, cfg.p_n, EPS)
        with pytest.raises(ValueError, match="train-mode forward"):
            backward_bundle(state, trace, d_yhat, d_cbar)
        with pytest.raises(ValueError, match="train-mode forward"):
            mlp_backward(state.classifier_mlp, trace.clf_trace, d_yhat[:, None])

    def test_gradients_cover_every_parameter(self):
        cfg = ModelConfig(K=2, hidden_dim=4)
        ds = er_dataset(16, 0.3, 3, seed=4)
        cache = build_cheb_basis(ds, cfg.K, dtype=np.float64)
        ctx = build_context_cache(ds)
        state = init_model(cfg, 3)
        bundle = gather_rows(cache, ctx, np.arange(8), cfg)
        breakdown = loss_and_grads_bundle(state, bundle, ds.labels[:8], 1.0, TrainConfig())
        names = {n for n, _ in iter_params(state)}
        assert set(breakdown.grads) == names


class TestTrainLoop:
    def _toy(self, seed=0, n=60):
        rng = np.random.default_rng(seed)
        ds = er_dataset(n, 0.15, 4, seed=seed, anomaly_frac=0.3)
        # make classes linearly separable in features
        ds.features[ds.labels == 1] += 2.5
        cache = build_cheb_basis(ds, 2, dtype=np.float64)
        ctx = build_context_cache(ds)
        ids = rng.permutation(n)
        anom = [i for i in ids if ds.labels[i] == 1]
        norm = [i for i in ids if ds.labels[i] == 0]
        split = SplitSet(
            train=np.asarray(anom[:5] + norm[:10]),
            val=np.asarray(anom[5:10] + norm[10:20]),
            test=np.asarray(anom[10:] + norm[20:]),
        )
        return ds, cache, ctx, split

    def test_loss_decreases_on_separable_data(self):
        ds, cache, ctx, split = self._toy()
        cfg = ModelConfig(K=2, hidden_dim=8, seed=0)
        tc = TrainConfig(max_epochs=50, patience=50, lr=0.02)
        _, history = train(ds.labels, cache, ctx, cfg, tc, split)
        assert history[-1].train_loss < history[0].train_loss

    def test_patience_zero_runs_one_epoch(self):
        ds, cache, ctx, split = self._toy(seed=1)
        cfg = ModelConfig(K=2, hidden_dim=8)
        tc = TrainConfig(max_epochs=100, patience=0)
        _, history = train(ds.labels, cache, ctx, cfg, tc, split)
        assert len(history) == 1

    def test_same_seed_identical_history(self):
        ds, cache, ctx, split = self._toy(seed=2)
        cfg = ModelConfig(K=2, hidden_dim=8, seed=5, dropout=0.2)
        tc = TrainConfig(max_epochs=12, patience=12)
        _, h1 = train(ds.labels, cache, ctx, cfg, tc, split)
        _, h2 = train(ds.labels, cache, ctx, cfg, tc, split)
        assert [(r.train_loss, r.val_auprc) for r in h1] == [
            (r.train_loss, r.val_auprc) for r in h2
        ]

    def test_best_checkpoint_restored(self):
        ds, cache, ctx, split = self._toy(seed=3)
        cfg = ModelConfig(K=2, hidden_dim=8, seed=1)
        tc = TrainConfig(max_epochs=30, patience=30)
        state, history = train(ds.labels, cache, ctx, cfg, tc, split)
        best = max(r.val_auprc for r in history)
        from sagad.model import forward_bundle

        val_bundle = gather_rows(cache, ctx, np.asarray(split.val), cfg)
        out = forward_bundle(state, val_bundle)
        from sagad.metrics import average_precision

        assert average_precision(out.yhat, ds.labels[np.asarray(split.val)]) == pytest.approx(best)

    def test_empty_split_rejected(self):
        ds, cache, ctx, split = self._toy(seed=4)
        bad = SplitSet(train=np.asarray([], dtype=int), val=split.val, test=split.test)
        with pytest.raises(ValueError, match="non-empty"):
            train(ds.labels, cache, ctx, ModelConfig(K=2), TrainConfig(), bad)

    def test_config_validation(self):
        with pytest.raises(ConfigError):
            TrainConfig(patience=10, max_epochs=5).validate()
        with pytest.raises(ConfigError):
            TrainConfig(clamp_eps=0.7).validate()


class TestScoreAll:
    def test_batch_size_invariance(self):
        ds = er_dataset(50, 0.2, 3, seed=5)
        cfg = ModelConfig(K=2, hidden_dim=8, seed=2)
        cache = build_cheb_basis(ds, cfg.K, dtype=np.float64)
        ctx = build_context_cache(ds)
        state = init_model(cfg, 3)
        a = score_all(state, cache, ctx, batch_size=1)
        b = score_all(state, cache, ctx, batch_size=4096)
        c = score_all(state, cache, ctx, batch_size=7)
        np.testing.assert_array_equal(a, b)
        np.testing.assert_array_equal(a, c)

    def test_zero_classifier_scores_half(self):
        ds = er_dataset(30, 0.2, 3, seed=6)
        cfg = ModelConfig(K=2, hidden_dim=8)
        cache = build_cheb_basis(ds, cfg.K, dtype=np.float64)
        ctx = build_context_cache(ds)
        state = init_model(cfg, 3)
        for layer in state.classifier_mlp.layers:
            layer.weight[...] = 0.0
            layer.bias[...] = 0.0
        np.testing.assert_allclose(score_all(state, cache, ctx), 0.5)

    def test_scores_in_open_interval(self):
        ds = er_dataset(30, 0.2, 3, seed=7)
        cfg = ModelConfig(K=2, hidden_dim=8, seed=3)
        cache = build_cheb_basis(ds, cfg.K, dtype=np.float64)
        ctx = build_context_cache(ds)
        state = init_model(cfg, 3)
        scores = score_all(state, cache, ctx)
        assert np.all((scores > 0) & (scores < 1))
