import math
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sagad.context import build_context_cache
from sagad.errors import ConfigError
from sagad.graph import SplitSet
from sagad import training
from sagad.model import (
    FUSION_MODES,
    ModelConfig,
    ParamVector,
    gather_rows,
    init_model,
)
from sagad.training import (
    TrainConfig,
    adam_step,
    bce_loss_grad,
    compute_beta,
    data_loss_terms,
    fpg_loss_grad,
    init_optimizer,
    loss_and_grads_bundle,
    loss_labels,
    score_all,
    train,
)

from conftest import er_dataset
from oracles import evaluate_objective, two_pass_train, whole_matrix_basis

EPS = 1e-7


def bce(yhat, labels, beta, eps=EPS):
    return bce_loss_grad(yhat, loss_labels(labels, beta), eps)


def fpg(cbar, labels, beta, p_a, p_n, eps=EPS):
    return fpg_loss_grad(cbar, loss_labels(labels, beta, ModelConfig(p_a=p_a, p_n=p_n)), eps)


def data_loss(yhat, cbar, labels, beta, cfg):
    """The objective's data loss (BCE, plus FPG when enabled), no weight decay."""
    state = init_model(cfg, 1)
    return data_loss_terms(state, yhat, cbar, loss_labels(labels, beta, cfg))[0]


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
        loss = fpg(cbar, labels, beta=1.0, p_a=0.0, p_n=1.0, eps=EPS)[0]
        assert loss == pytest.approx(0.0, abs=1e-6)

    def test_uninformative_half(self):
        cbar = np.asarray([0.5, 0.5])
        labels = np.asarray([1, 0])
        loss = fpg(cbar, labels, beta=1.0, p_a=0.0, p_n=1.0, eps=EPS)[0]
        assert loss == pytest.approx(-math.log(0.5), abs=1e-9)

    def test_single_normal(self):
        loss = fpg(np.asarray([0.8]), np.asarray([0]), beta=1.0, p_a=0.0, p_n=1.0, eps=EPS)[0]
        assert loss == pytest.approx(-math.log(0.8), abs=1e-9)

    def test_stationary_at_target(self):
        # per-node term is minimized where the mean coefficient equals the target
        for target in (0.2, 0.5, 0.85):
            below, _ = fpg(
                np.asarray([target - 1e-4]), np.asarray([0]), 1.0, 0.1, target, EPS
            )
            above, _ = fpg(
                np.asarray([target + 1e-4]), np.asarray([0]), 1.0, 0.1, target, EPS
            )
            at, grad_at = fpg(
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
            loss = fpg(cbar, labels, 0.5, 0.2, 0.8, EPS)[0]
            assert loss >= 0.0


class TestBceLoss:
    def test_near_zero_at_optimum(self):
        yhat = np.asarray([1.0 - EPS, EPS])
        labels = np.asarray([1, 0])
        assert bce(yhat, labels, beta=1.0, eps=EPS)[0] <= 2 * EPS * abs(math.log(EPS))

    def test_weighted_half(self):
        yhat = np.asarray([0.5, 0.5])
        labels = np.asarray([1, 0])
        loss = bce(yhat, labels, beta=0.25, eps=EPS)[0]
        assert loss == pytest.approx(1.25 / 2 * math.log(2), abs=1e-9)

    def test_single_normal_half(self):
        loss = bce(np.asarray([0.5]), np.asarray([0]), beta=0.25, eps=EPS)[0]
        assert loss == pytest.approx(math.log(2), abs=1e-9)


class TestTotalLoss:
    def test_fpg_disabled_equals_bce(self):
        cfg = ModelConfig(use_fpg=False)
        yhat = np.asarray([0.3, 0.6])
        labels = np.asarray([1, 0])
        assert data_loss(yhat, None, labels, 0.5, cfg) == bce(yhat, labels, 0.5, EPS)[0]

    def test_sum_of_hand_cases(self):
        # the two sub-loss oracles add: 0.43322 + 0.69315 = 1.12637
        yhat = np.asarray([0.5, 0.5])
        cbar = np.asarray([0.5, 0.5])
        labels = np.asarray([1, 0])
        bce_part = bce(yhat, labels, beta=0.25, eps=EPS)[0]
        fpg_part = fpg(cbar, labels, beta=1.0, p_a=0.0, p_n=1.0, eps=EPS)[0]
        assert bce_part + fpg_part == pytest.approx(1.12637, abs=1e-5)

    def test_total_is_sum_of_parts(self):
        cfg = ModelConfig(use_fpg=True, p_a=0.1, p_n=0.9)
        yhat = np.asarray([0.3, 0.8, 0.5])
        cbar = np.asarray([0.4, 0.6, 0.5])
        labels = np.asarray([1, 0, 0])
        expected = bce(yhat, labels, 0.5, EPS)[0] + fpg(cbar, labels, 0.5, 0.1, 0.9, EPS)[0]
        assert data_loss(yhat, cbar, labels, 0.5, cfg) == pytest.approx(expected, abs=1e-12)

    def test_objective_adds_the_weight_decay_term(self):
        cfg = ModelConfig(K=2, hidden_dim=4, use_fpg=False)
        ds, _, _, state, bundle = _fd_setup(cfg)
        labels = ds.labels.astype(float)
        loss = evaluate_objective(state, bundle, labels, 0.5, TrainConfig())
        objective = evaluate_objective(state, bundle, labels, 0.5, TrainConfig(weight_decay=0.1))
        sq = sum(float(np.sum(p * p)) for _, p in state.params.items())
        terms = loss_labels(labels, 0.5, cfg)
        assert loss == loss_and_grads_bundle(state, bundle, terms, TrainConfig()).data_loss
        assert objective == pytest.approx(loss + 0.05 * sq, rel=1e-12)

    def test_requires_cbar_when_enabled(self):
        cfg = ModelConfig(use_fpg=True)
        with pytest.raises(ValueError, match="fusion"):
            data_loss(np.asarray([0.5]), None, np.asarray([0]), 1.0, cfg)


class TestAdam:
    def _scalar_state(self):
        cfg = ModelConfig(K=1, hidden_dim=2, mlp_depth=1, use_fpg=False,
                          context_mode="features_only", fusion_mode="low_only")
        state = init_model(cfg, 1)
        return state

    def test_first_step_magnitude(self):
        state = self._scalar_state()
        opt = init_optimizer(state)
        name, param = next(iter(state.params.items()))
        before = param.copy()
        grads = ParamVector(state.params.layout)
        grads[name][...] = 1.0
        adam_step(state, grads.flat, opt, lr=1e-3)
        delta = param - before
        np.testing.assert_allclose(delta, -1e-3 / (1 + 1e-8), atol=1e-12)

    def test_zero_gradient_keeps_parameters(self):
        state = self._scalar_state()
        opt = init_optimizer(state)
        before = {n: a.copy() for n, a in state.params.items()}
        adam_step(state, np.zeros_like(state.params.flat), opt, lr=0.1)
        for n, a in state.params.items():
            np.testing.assert_array_equal(a, before[n])

    def test_deterministic(self):
        runs = []
        for _ in range(2):
            state = self._scalar_state()
            opt = init_optimizer(state)
            rng = np.random.default_rng(0)
            for _ in range(5):
                adam_step(state, rng.normal(size=state.params.flat.shape), opt, lr=0.01)
            runs.append({n: a.copy() for n, a in state.params.items()})
        for n in runs[0]:
            np.testing.assert_array_equal(runs[0][n], runs[1][n])

    def test_wrong_gradient_length_rejected(self):
        state = self._scalar_state()
        with pytest.raises(ValueError, match="gradient has shape"):
            adam_step(state, np.zeros(state.params.flat.size + 1), init_optimizer(state), lr=0.1)

    def test_flat_update_equals_per_array_reference(self):
        # the reference is Adam written per parameter array; the flat
        # update does the same elementwise arithmetic and must match it bit
        # for bit over many steps and gradients spanning ten decades
        cfg = ModelConfig(K=3, hidden_dim=8)
        state = init_model(cfg, 5)
        ref = {n: a.copy() for n, a in state.params.items()}
        m = {n: np.zeros_like(a) for n, a in ref.items()}
        v = {n: np.zeros_like(a) for n, a in ref.items()}
        opt = init_optimizer(state)
        rng = np.random.default_rng(11)
        grads = ParamVector(state.params.layout)
        for step in range(1, 201):
            grads.flat[...] = rng.normal(size=grads.flat.size) * 10.0 ** rng.uniform(
                -8, 2, grads.flat.size
            )
            adam_step(state, grads.flat, opt, lr=0.01)
            bc1, bc2 = 1.0 - 0.9**step, 1.0 - 0.999**step
            for name, param in ref.items():
                g = grads[name]
                m[name] *= 0.9
                m[name] += (1.0 - 0.9) * g
                v[name] *= 0.999
                v[name] += (1.0 - 0.999) * (g * g)
                param -= 0.01 * (m[name] / bc1) / (np.sqrt(v[name] / bc2) + 1e-8)
        for name, param in state.params.items():
            np.testing.assert_array_equal(param, ref[name])


def _fd_setup(cfg, seed=0, n=16):
    ds = er_dataset(n, 0.3, 3, seed=seed)
    cache = whole_matrix_basis(ds, cfg.K, np.float64)
    ctx = build_context_cache(ds) if cfg.needs_context() else None
    state = init_model(cfg, ds.num_features)
    prng = np.random.default_rng(seed + 100)
    for _, arr in state.params.items():
        arr += prng.normal(0, 0.25, arr.shape)
    bundle = gather_rows(cache, ctx, np.arange(n), cfg)
    return ds, cache, ctx, state, bundle


def _fd_check(state, bundle, labels, tc, h=1e-5):
    breakdown = loss_and_grads_bundle(state, bundle, loss_labels(labels, 1.0, state.config), tc)
    worst = 0.0
    for name, arr in state.params.items():
        grad = breakdown.grads[name].reshape(-1)
        flat = arr.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + h
            f_plus = evaluate_objective(state, bundle, labels, 1.0, tc)
            flat[i] = orig - h
            f_minus = evaluate_objective(state, bundle, labels, 1.0, tc)
            flat[i] = orig
            fd = (f_plus - f_minus) / (2 * h)
            err = abs(grad[i] - fd) / max(abs(grad[i]), abs(fd), 1e-3)
            worst = max(worst, err)
    return worst


class TestGradients:
    def test_finite_difference_agreement(self):
        cfg = ModelConfig(K=2, hidden_dim=4, mlp_depth=2)
        ds, cache, ctx, state, bundle = _fd_setup(cfg)
        worst = _fd_check(state, bundle, ds.labels.astype(float), TrainConfig())
        assert worst <= 1e-4

    def test_weight_decay_gradient(self):
        cfg = ModelConfig(K=2, hidden_dim=4, mlp_depth=1)
        ds, cache, ctx, state, bundle = _fd_setup(cfg, seed=1)
        tc = TrainConfig(weight_decay=0.05)
        worst = _fd_check(state, bundle, ds.labels.astype(float), tc)
        assert worst <= 1e-4

    def test_gradients_scale_linearly(self):
        # doubling the loss (scaling both terms) doubles every gradient entry
        from sagad.model import backward_bundle, forward_bundle

        cfg = ModelConfig(K=2, hidden_dim=4, use_fpg=True)
        ds, cache, ctx, state, bundle = _fd_setup(cfg, seed=3)
        y = ds.labels.astype(float)
        trace = forward_bundle(state, bundle)
        _, d_yhat = bce(trace.yhat, y, 1.0, EPS)
        _, d_cbar = fpg(trace.cbar, y, 1.0, cfg.p_a, cfg.p_n, EPS)
        g1 = backward_bundle(state, trace, d_yhat, d_cbar)
        g2 = backward_bundle(state, trace, 2.0 * d_yhat, 2.0 * d_cbar)
        for name in g1:
            np.testing.assert_allclose(g2[name], 2.0 * g1[name], atol=1e-14)

    def test_weight_decay_is_added_once(self):
        # L2 enters the gradient only in the objective: wd * params on top
        # of the data-loss gradient, bit for bit
        cfg = ModelConfig(K=2, hidden_dim=4)
        ds, cache, ctx, state, bundle = _fd_setup(cfg, seed=5)
        y = ds.labels.astype(float)
        terms = loss_labels(y, 1.0, cfg)
        plain = loss_and_grads_bundle(state, bundle, terms, TrainConfig()).grads
        decayed = loss_and_grads_bundle(state, bundle, terms, TrainConfig(weight_decay=0.1)).grads
        np.testing.assert_array_equal(decayed.flat, plain.flat + 0.1 * state.params.flat)

    def test_gradients_cover_every_parameter(self):
        cfg = ModelConfig(K=2, hidden_dim=4)
        ds = er_dataset(16, 0.3, 3, seed=4)
        cache = whole_matrix_basis(ds, cfg.K, np.float64)
        ctx = build_context_cache(ds)
        state = init_model(cfg, 3)
        bundle = gather_rows(cache, ctx, np.arange(8), cfg)
        breakdown = loss_and_grads_bundle(state, bundle, loss_labels(ds.labels[:8], 1.0, cfg),
                                          TrainConfig())
        names = {n for n, _ in state.params.items()}
        assert set(breakdown.grads) == names


class TestTrainLoop:
    def _toy(self, seed=0, n=60):
        rng = np.random.default_rng(seed)
        ds = er_dataset(n, 0.15, 4, seed=seed, anomaly_frac=0.3)
        # make classes linearly separable in features
        ds.features[ds.labels == 1] += 2.5
        cache = whole_matrix_basis(ds, 2, np.float64)
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

    def test_patience_one_stops_at_the_first_epoch_without_gain(self):
        ds, cache, ctx, split = self._toy(seed=1)
        cfg = ModelConfig(K=2, hidden_dim=8)
        tc = TrainConfig(max_epochs=100, patience=1)
        _, history = train(ds.labels, cache, ctx, cfg, tc, split)
        auprc = [r.val_auprc for r in history]
        assert all(b > a for a, b in zip(auprc, auprc[1:-1]))
        assert len(history) == 100 or auprc[-1] <= max(auprc[:-1])

    def test_same_seed_identical_history(self):
        ds, cache, ctx, split = self._toy(seed=2)
        cfg = ModelConfig(K=2, hidden_dim=8, seed=5)
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

    def test_fusion_modes_train_different_parameters(self):
        """No two fusion modes are the same model: on one graph, with the
        same seed and init, each trains its own parameter payload."""
        ds, cache, ctx, split = self._toy(seed=6)
        tc = TrainConfig(max_epochs=10, patience=10)
        payloads = {
            mode: train(ds.labels, cache, ctx, ModelConfig(K=2, hidden_dim=8, fusion_mode=mode),
                        tc, split)[0].params.flat.tobytes()
            for mode in FUSION_MODES
        }
        assert len(set(payloads.values())) == len(FUSION_MODES)

    def test_empty_split_rejected(self):
        ds, cache, ctx, split = self._toy(seed=4)
        bad = SplitSet(train=np.asarray([], dtype=int), val=split.val, test=split.test)
        with pytest.raises(ValueError, match="non-empty"):
            train(ds.labels, cache, ctx, ModelConfig(K=2), TrainConfig(), bad)

    def test_final_parameters_kept_when_no_epoch_improves(self, monkeypatch):
        ds, cache, ctx, split = self._toy(seed=5)
        cfg = ModelConfig(K=2, hidden_dim=8, seed=4)
        tc = TrainConfig(max_epochs=3, patience=3)
        monkeypatch.setattr(training, "average_precision", lambda scores, labels: math.nan)
        state, history = train(ds.labels, cache, ctx, cfg, tc, split)
        assert len(history) == 3
        ref = init_model(cfg, cache.dim)
        opt = init_optimizer(ref)
        ids = np.asarray(split.train)
        bundle = gather_rows(cache, ctx, ids, cfg)
        beta = compute_beta(split, ds.labels)
        for _ in range(3):
            terms = loss_labels(ds.labels[ids], beta, cfg)
            grads = loss_and_grads_bundle(ref, bundle, terms, tc).grads
            adam_step(ref, grads.flat, opt, tc.lr)
        np.testing.assert_array_equal(state.params.flat, ref.params.flat)

    def test_config_validation(self):
        with pytest.raises(ConfigError):
            TrainConfig(patience=10, max_epochs=5).validate()

    @pytest.mark.parametrize(("fields", "message"), [
        ({"patience": 0}, "patience must be >= 1, got 0"),
        ({"patience": -2}, "patience must be >= 1, got -2"),
        ({"lr": math.nan}, "lr must be a finite number, got nan"),
        ({"lr": math.inf}, "lr must be a finite number, got inf"),
        ({"weight_decay": math.nan}, "weight_decay must be a finite number, got nan"),
        ({"weight_decay": math.inf}, "weight_decay must be a finite number, got inf"),
    ])
    def test_patience_bounds(self, fields, message):
        with pytest.raises(ConfigError, match=message):
            TrainConfig(**fields).validate()


def _split(labels, n_train, n_val, seed):
    """Random train and val ids: val holds an anomaly (its AUPRC needs
    one) and train a normal, so train + val holds both classes."""
    rng = np.random.default_rng(seed)
    anom = rng.permutation(np.flatnonzero(labels == 1))
    norm = rng.permutation(np.flatnonzero(labels == 0))
    val = anom[:1]
    train = norm[:1]
    rest = rng.permutation(np.concatenate([anom[1:], norm[1:]]))
    train = np.concatenate([train, rest[: n_train - 1]])
    val = np.concatenate([val, rest[n_train - 1 : n_train + n_val - 2]])
    assert (len(train), len(val)) == (n_train, n_val)
    return SplitSet(train=train, val=val, test=np.asarray([], dtype=np.int64))


def _assert_same_training(labels, cache, ctx, cfg, tc, split):
    state, history = train(labels, cache, ctx, cfg, tc, split)
    ref_state, ref_history = two_pass_train(labels, cache, ctx, cfg, tc, split)
    assert state.params.flat.tobytes() == ref_state.params.flat.tobytes()
    # EpochRecord compares its floats with ==; compare their bits, NaN included
    assert [(r.epoch, struct.pack("<dd", r.train_loss, r.val_auprc)) for r in history] == [
        (r.epoch, struct.pack("<dd", r.train_loss, r.val_auprc)) for r in ref_history]
    return history


class TestOnePassLoop:
    """``train`` makes one forward pass per epoch over the train and val rows
    stacked; ``oracles.two_pass_train``, a train pass and a validation pass
    per epoch, is its reference, bit for bit: the parameter bytes and every
    history record."""

    @staticmethod
    def _graph(seed, dim=3, n=40):
        ds = er_dataset(n, 0.1, dim, seed=seed, anomaly_frac=0.3)
        return ds, whole_matrix_basis(ds, 4, np.float64)

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 2**16), n_train=st.integers(1, 12), n_val=st.integers(1, 12),
           fusion_mode=st.sampled_from(FUSION_MODES),
           context_mode=st.sampled_from(["rq", "full_khop", "features_only"]),
           use_fpg=st.booleans(), depth=st.integers(1, 3), hidden_dim=st.sampled_from([1, 3, 8]),
           K=st.integers(1, 4), weight_decay=st.sampled_from([0.0, 0.01]),
           lr=st.sampled_from([0.01, 0.1]), epochs=st.integers(1, 25), patience=st.integers(1, 25))
    def test_random_configs_match_the_two_pass_loop(self, seed, n_train, n_val, fusion_mode,
                                                    context_mode, use_fpg, depth, hidden_dim, K,
                                                    weight_decay, lr, epochs, patience):
        ds = er_dataset(40, 0.1, 3, seed=seed % 7, anomaly_frac=0.3)
        cache = whole_matrix_basis(ds, K, np.float64)
        pooled = context_mode != "features_only"
        ctx = build_context_cache(ds, mode=context_mode) if pooled else None
        cfg = ModelConfig(K=K, hidden_dim=hidden_dim, mlp_depth=depth, fusion_mode=fusion_mode,
                          context_mode=context_mode, use_fpg=use_fpg, seed=seed)
        tc = TrainConfig(lr=lr, weight_decay=weight_decay, max_epochs=epochs,
                         patience=min(patience, epochs))
        split = _split(ds.labels, n_train, n_val, seed)
        _assert_same_training(ds.labels, cache, ctx, cfg, tc, split)

    @pytest.mark.parametrize("n_train,n_val", [(1, 1), (1, 2), (2, 1), (2, 2), (1, 20), (20, 1)])
    def test_one_and_two_row_parts(self, n_train, n_val):
        ds, cache = self._graph(seed=8)
        ctx = build_context_cache(ds)
        cfg = ModelConfig(K=4, hidden_dim=8)
        tc = TrainConfig(max_epochs=40, patience=40, lr=0.05)
        history = _assert_same_training(ds.labels, cache, ctx, cfg, tc,
                                        _split(ds.labels, n_train, n_val, n_train * 10 + n_val))
        assert len(history) == 40

    def test_patience_stop(self, monkeypatch):
        ds, cache = self._graph(seed=9, dim=4)
        ctx = build_context_cache(ds)
        cfg = ModelConfig(K=4, hidden_dim=8)
        tc = TrainConfig(max_epochs=400, patience=5, lr=0.05)
        split = _split(ds.labels, 12, 12, 3)
        history = _assert_same_training(ds.labels, cache, ctx, cfg, tc, split)
        assert 5 < len(history) < 400
        # the stopping epoch's validation pass is the last work: no backward follows it
        assert self._passes(monkeypatch, ds.labels, cache, ctx, cfg, tc, split) == {
            "forward_bundle": len(history) + 1, "loss_and_grads_bundle": len(history)}

    @staticmethod
    def _passes(monkeypatch, *args):
        calls = {"forward_bundle": 0, "loss_and_grads_bundle": 0}
        for name in calls:
            def counted(*a, _name=name, _fn=getattr(training, name), **kw):
                calls[_name] += 1
                return _fn(*a, **kw)
            monkeypatch.setattr(training, name, counted)
        train(*args)
        return calls

    def test_every_epoch_writes_into_one_workspace(self, monkeypatch):
        """Every epoch's pass writes its trace into the buffers of the one
        workspace the run made, not into new arrays."""
        ds, cache = self._graph(seed=11)
        ctx = build_context_cache(ds)
        passes = []

        def recorded(*args, _fn=training.forward_bundle, **kw):
            passes.append(out := _fn(*args, **kw))
            return out

        monkeypatch.setattr(training, "forward_bundle", recorded)
        train(ds.labels, cache, ctx, ModelConfig(K=4, hidden_dim=8),
              TrainConfig(max_epochs=5, patience=5), _split(ds.labels, 6, 6, 5))
        assert len(passes) == 6
        for out in passes[1:]:
            for name in ("yhat", "cbar", "z"):
                assert np.shares_memory(getattr(out, name), getattr(passes[0], name)), name

    def test_every_val_auprc_nan(self, monkeypatch):
        # both loops look the metric up on ``training``; no epoch improves, so
        # the final parameters stay and the patience stop comes at epoch 4
        monkeypatch.setattr(training, "average_precision", lambda scores, labels: math.nan)
        ds, cache = self._graph(seed=10)
        ctx = build_context_cache(ds)
        cfg = ModelConfig(K=4, hidden_dim=8)
        tc = TrainConfig(max_epochs=30, patience=5)
        split = _split(ds.labels, 6, 6, 4)
        history = _assert_same_training(ds.labels, cache, ctx, cfg, tc, split)
        assert len(history) == 5 and all(math.isnan(r.val_auprc) for r in history)
        assert self._passes(monkeypatch, ds.labels, cache, ctx, cfg, tc, split) == {
            "forward_bundle": 6, "loss_and_grads_bundle": 5}


class TestScoreAll:
    def test_zero_classifier_scores_half(self):
        ds = er_dataset(30, 0.2, 3, seed=6)
        cfg = ModelConfig(K=2, hidden_dim=8)
        cache = whole_matrix_basis(ds, cfg.K, np.float64)
        ctx = build_context_cache(ds)
        state = init_model(cfg, 3)
        for layer in state.classifier_mlp.layers:
            layer.weight[...] = 0.0
            layer.bias[...] = 0.0
        np.testing.assert_allclose(score_all(state, cache, ctx), 0.5)

    def test_scores_in_open_interval(self):
        ds = er_dataset(30, 0.2, 3, seed=7)
        cfg = ModelConfig(K=2, hidden_dim=8, seed=3)
        cache = whole_matrix_basis(ds, cfg.K, np.float64)
        ctx = build_context_cache(ds)
        state = init_model(cfg, 3)
        scores = score_all(state, cache, ctx)
        assert np.all((scores > 0) & (scores < 1))

    def test_sink_gets_each_tile_in_order(self, monkeypatch):
        ds = er_dataset(30, 0.2, 3, seed=8)
        cfg = ModelConfig(K=2, hidden_dim=8, seed=4)
        cache = whole_matrix_basis(ds, cfg.K, np.float64)
        ctx = build_context_cache(ds)
        state = init_model(cfg, 3)
        monkeypatch.setattr(training, "SCORE_ROWS", 8)
        tiles = []
        assert score_all(state, cache, ctx, lambda lo, s: tiles.append((lo, s.copy()))) is None
        assert [(lo, s.size) for lo, s in tiles] == [(0, 8), (8, 8), (16, 8), (24, 6)]
        np.testing.assert_array_equal(np.concatenate([s for _, s in tiles]),
                                      score_all(state, cache, ctx))
