"""Acceptance suite: one test per release criterion.

Each test pins the tolerance it must meet and prints a single PASS line
when it holds (run with -s to see them).  All thresholds are fixed here,
not tuned at runtime.
"""

import gc
import json
import os
import time
import tracemalloc

import numpy as np
import pytest

from sagad.chebyshev import build_cheb_basis, chebyshev_nodes, dense_spectral_oracle, write_cache
from sagad.cli import dispatch, parse_config
from sagad.context import build_context_cache, max_rq_subgraph, rayleigh_quotient
from sagad.csbm import separability_experiment, strong_separation_params
from sagad.graph import GraphDataset, SparseAdjacency, SplitSet
from sagad.metrics import auroc, average_precision, rec_at_k
from sagad.model import (
    FilterParams,
    ModelConfig,
    cheb_weights,
    dropout_rng,
    filter_response,
    gather_rows,
    init_model,
    iter_params,
    reparam_filter_values,
)
from sagad.training import (
    TrainConfig,
    evaluate_objective,
    loss_and_grads_bundle,
    score_all,
    train,
)

from conftest import er_dataset


def report(number: int, name: str, detail: str) -> None:
    print(f"\nACCEPTANCE {number} PASS - {name} ({detail})")


# ---------------------------------------------------------------------------
# 1. Spectral oracle equivalence
# ---------------------------------------------------------------------------


def test_criterion_1_spectral_oracle_equivalence():
    start = time.perf_counter()
    rng = np.random.default_rng(101)
    worst = 0.0
    for trial in range(50):
        n = int(rng.integers(20, 201))
        order = int(rng.integers(2, 6))
        ds = er_dataset(n, 0.1, int(rng.integers(1, 6)), seed=trial)
        gamma = rng.uniform(0.0, 2.0, order + 1)
        weights = cheb_weights(gamma)
        cache = build_cheb_basis(ds, order, dtype=np.float64)
        combo = sum(weights[k] * cache.blocks[k] for k in range(order + 1))
        oracle = dense_spectral_oracle(ds, weights)
        worst = max(worst, float(np.max(np.abs(combo - oracle))))
    elapsed = time.perf_counter() - start
    assert worst <= 1e-8, f"max-abs deviation {worst:.3e} exceeds 1e-8"
    assert elapsed < 30.0, f"runtime {elapsed:.1f}s exceeds 30s"
    report(1, "spectral oracle equivalence", f"worst {worst:.2e}, {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# 2. Interpolation identity + monotonicity + complementarity
# ---------------------------------------------------------------------------


def test_criterion_2_interpolation_and_monotonicity():
    start = time.perf_counter()
    rng = np.random.default_rng(202)
    worst_interp = 0.0
    worst_comp = 0.0
    for _ in range(1000):
        order = int(rng.integers(2, 6))
        raw = rng.normal(0.0, 2.0, order + 1)
        fp = FilterParams(raw=raw)
        gamma_low, gamma_high = reparam_filter_values(fp)
        nodes = chebyshev_nodes(order)
        for gamma in (gamma_low, gamma_high):
            vals = filter_response(cheb_weights(gamma), nodes)
            worst_interp = max(worst_interp, float(np.max(np.abs(vals - gamma))))
        high = filter_response(cheb_weights(gamma_high), nodes)
        low = filter_response(cheb_weights(gamma_low), nodes)
        assert np.all(np.diff(high) >= -1e-10), "high-pass not monotone at nodes"
        assert np.all(np.diff(low) <= 1e-10), "low-pass not monotone at nodes"
        if np.all(gamma_low[1:] > 0):  # no clamp active
            ts = rng.uniform(-1.0, 1.0, 16)
            total = filter_response(cheb_weights(gamma_low), ts) + filter_response(
                cheb_weights(gamma_high), ts
            )
            worst_comp = max(worst_comp, float(np.max(np.abs(total - 2.0 * gamma_low[0]))))
    elapsed = time.perf_counter() - start
    assert worst_interp <= 1e-10, f"interpolation error {worst_interp:.3e}"
    assert worst_comp <= 1e-10, f"complementarity error {worst_comp:.3e}"
    assert elapsed < 5.0, f"runtime {elapsed:.1f}s exceeds 5s"
    report(2, "interpolation + monotonicity", f"errs {worst_interp:.1e}/{worst_comp:.1e}, {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# 3. Gradient correctness
# ---------------------------------------------------------------------------


def _gradient_configs():
    depths = [1, 2, 3]
    activations = ["relu", "elu", "tanh", "identity"]
    fusions = ["adaptive", "mean", "concat"]
    contexts = ["rq", "full_khop", "features_only"]
    filters = ["dual", "low_only", "high_only"]
    rng = np.random.default_rng(303)
    configs = []
    for i in range(20):
        configs.append(
            ModelConfig(
                K=int(rng.integers(2, 5)),
                hidden_dim=4,
                mlp_depth=depths[i % 3],
                activation=activations[i % 4],
                fusion_mode=fusions[i % 3],
                context_mode=contexts[i % 3],
                filter_mode=filters[i % 5 % 3],
                use_fpg=bool(i % 2),
                normalization="layer" if i % 5 == 0 else "none",
                dropout=0.3 if i % 7 == 0 else 0.0,
                share_gamma=bool((i // 2) % 2),
                seed=i,
            )
        )
    return configs


def test_criterion_3_gradient_correctness():
    start = time.perf_counter()
    h = 1e-5
    worst = 0.0
    for idx, cfg in enumerate(_gradient_configs()):
        ds = er_dataset(16, 0.3, 3, seed=idx)
        cache = build_cheb_basis(ds, cfg.K, dtype=np.float64)
        ctx = build_context_cache(
            ds, mode="full_khop" if cfg.context_mode == "full_khop" else "rq"
        ) if cfg.needs_context() else None
        state = init_model(cfg, 3)
        prng = np.random.default_rng(1000 + idx)
        for _, arr in iter_params(state):
            arr += prng.normal(0.0, 0.3, arr.shape)
        bundle = gather_rows(cache, ctx, np.arange(16), cfg)
        labels = ds.labels.astype(np.float64)
        tc = TrainConfig(weight_decay=0.01 if idx % 3 == 0 else 0.0)

        def objective():
            rng = dropout_rng(cfg.seed, 0) if cfg.dropout > 0 else None
            return evaluate_objective(state, bundle, labels, 1.0, tc, rng)

        rng = dropout_rng(cfg.seed, 0) if cfg.dropout > 0 else None
        grads = loss_and_grads_bundle(state, bundle, labels, 1.0, tc, rng).grads
        for name, arr in iter_params(state):
            flat = arr.reshape(-1)
            gflat = grads[name].reshape(-1)
            for j in range(flat.size):
                orig = flat[j]
                flat[j] = orig + h
                f_plus = objective()
                flat[j] = orig - h
                f_minus = objective()
                flat[j] = orig
                fd = (f_plus - f_minus) / (2.0 * h)
                err = abs(gflat[j] - fd) / max(abs(gflat[j]), abs(fd), 1e-3)
                worst = max(worst, err)
    elapsed = time.perf_counter() - start
    assert worst <= 1e-4, f"max relative gradient error {worst:.3e} exceeds 1e-4"
    assert elapsed < 60.0, f"runtime {elapsed:.1f}s exceeds 60s"
    report(3, "gradient correctness (20 configs)", f"worst {worst:.2e}, {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# 4. Metric oracles
# ---------------------------------------------------------------------------


def test_criterion_4_metric_oracles():
    start = time.perf_counter()
    rng = np.random.default_rng(404)
    worst = 0.0
    done = 0
    while done < 200:
        n = int(rng.integers(4, 201))
        scores = np.round(rng.random(n), 2)
        labels = rng.integers(0, 2, n)
        if labels.sum() in (0, n):
            continue
        done += 1
        pos = scores[labels == 1]
        neg = scores[labels == 0]
        oracle = (
            np.sum(pos[:, None] > neg[None, :]) + 0.5 * np.sum(pos[:, None] == neg[None, :])
        ) / (len(pos) * len(neg))
        worst = max(worst, abs(auroc(scores, labels) - oracle))
    fix_scores = np.asarray([0.9, 0.8, 0.3, 0.1])
    fix_labels = np.asarray([1, 0, 1, 0])
    assert auroc(fix_scores, fix_labels) == pytest.approx(0.75, abs=1e-12)
    assert average_precision(fix_scores, fix_labels) == pytest.approx(0.83333, abs=1e-5)
    assert rec_at_k(fix_scores, fix_labels, k=2) == pytest.approx(0.5, abs=1e-12)
    elapsed = time.perf_counter() - start
    assert worst <= 1e-12, f"auroc deviates from pairwise oracle by {worst:.3e}"
    assert elapsed < 5.0, f"runtime {elapsed:.1f}s exceeds 5s"
    report(4, "metric oracles", f"worst auroc dev {worst:.1e}, fixtures exact, {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# 5. RQ sampler contracts
# ---------------------------------------------------------------------------


def test_criterion_5_rq_sampler():
    start = time.perf_counter()
    rng = np.random.default_rng(505)
    checked = 0
    graph_seed = 0
    while checked < 500:
        ds = er_dataset(80, 0.06, 3, seed=graph_seed)
        graph_seed += 1
        for v in range(ds.num_nodes):
            if checked >= 500:
                break
            if len(ds.adjacency.neighbors(v)) <= 10:
                auto = max_rq_subgraph(v, ds)
                forced = max_rq_subgraph(v, ds, branch="exhaustive")
                assert rayleigh_quotient(auto, ds) == rayleigh_quotient(forced, ds), (
                    f"auto branch differs from exhaustive at node {v}"
                )
                checked += 1

    ds = er_dataset(120, 0.08, 4, seed=909)
    scaled = GraphDataset(
        adjacency=ds.adjacency,
        features=np.asarray(ds.features) * 3.7,
        labels=ds.labels,
    )
    for _ in range(1000):
        size = int(rng.integers(1, 12))
        subset = rng.choice(120, size=size, replace=False)
        rq = rayleigh_quotient(subset, ds)
        rq_scaled = rayleigh_quotient(subset, scaled)
        assert rq_scaled == pytest.approx(rq, rel=1e-9, abs=1e-12), "scale invariance violated"
        members = set(int(i) for i in subset)
        max_deg = max(
            sum(1 for j in ds.adjacency.neighbors(int(i)) if int(j) in members)
            for i in subset
        )
        assert rq <= 2.0 * max(max_deg, 1) + 1e-9, "degree bound violated"
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0, f"runtime {elapsed:.1f}s exceeds 30s"
    report(5, "RQ sampler exact branch + invariances", f"500 nodes, 1000 subsets, {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# 6. Linear-separability desk check
# ---------------------------------------------------------------------------


def test_criterion_6_separability_desk_check():
    start = time.perf_counter()
    accs, mis_accs = [], []
    for seed in range(5):
        res = separability_experiment(strong_separation_params(seed=seed, dim=64, n=4000))
        accs.append(res.accuracy)
        mis_accs.append(res.accuracy_misfiltered)
        assert res.accuracy >= 0.99, f"seed {seed}: accuracy {res.accuracy:.4f} < 0.99"
        assert res.accuracy_misfiltered <= res.accuracy, (
            f"seed {seed}: all-low-pass did not degrade accuracy"
        )
        assert res.mean_margin_misfiltered < res.mean_margin, (
            f"seed {seed}: no margin degradation under misfiltering"
        )
    elapsed = time.perf_counter() - start
    assert elapsed < 120.0, f"runtime {elapsed:.1f}s exceeds 2 min"
    report(
        6,
        "separability desk check",
        f"acc min {min(accs):.4f}, misfiltered max {max(mis_accs):.4f}, {elapsed:.1f}s",
    )


# ---------------------------------------------------------------------------
# 7. End-to-end smoke via the CLI
# ---------------------------------------------------------------------------


def test_criterion_7_end_to_end_smoke(tmp_path):
    start = time.perf_counter()
    data_dir = str(tmp_path / "data")
    run_dir = str(tmp_path / "run")
    cfg = parse_config(None, {"dataset": data_dir, "run_dir": run_dir})
    assert cfg.csbm.n_a == 90 and cfg.csbm.n_n == 2910  # 3% anomalies of 3000
    for command in ("synth-csbm", "preprocess", "sample-context", "train", "eval"):
        assert dispatch(command, cfg) == 0, f"{command} failed"
    report_path = os.path.join(run_dir, "report.csv")
    with open(report_path) as f:
        report_text = f.read()
    rows = {
        line.split(",")[1]: float(line.split(",")[2])
        for line in report_text.strip().splitlines()[1:]
    }
    elapsed = time.perf_counter() - start
    assert rows["auroc"] >= 0.80, f"test AUROC {rows['auroc']:.4f} < 0.80"
    assert elapsed < 120.0, f"pipeline took {elapsed:.1f}s, budget 2 min"
    report(7, "end-to-end smoke", f"AUROC {rows['auroc']:.4f}, {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# 8. Scalability properties
# ---------------------------------------------------------------------------


def _ring_dataset(n, d, seed=0):
    rng = np.random.default_rng(seed)
    idx = np.arange(n, dtype=np.int64)
    edges = np.concatenate(
        [np.stack([idx, (idx + 1) % n], axis=1), rng.integers(0, n, size=(n, 2), dtype=np.int64)]
    )
    adj = SparseAdjacency.from_edges(n, edges)
    features = rng.standard_normal((n, d)).astype(np.float32)
    labels = (rng.random(n) < 0.05).astype(np.int8)
    return GraphDataset(adjacency=adj, features=features, labels=labels)


def test_criterion_8a_cache_size_exact(tmp_path):
    ds = er_dataset(37, 0.2, 5, seed=808)
    for order in (1, 3, 5):
        cache = build_cheb_basis(ds, order)
        path = tmp_path / f"c{order}.bin"
        write_cache(cache, path)
        expected = 28 + (order + 1) * 37 * 5 * 4
        assert os.path.getsize(path) == expected, "cache file size formula violated"
    report(8, "cache size exact (part a)", "28 + (K+1)*n*d*4 bytes for K in {1,3,5}")


def test_criterion_8b_trainer_memory_independent_of_n():
    cfg = ModelConfig(K=3, context_mode="features_only", hidden_dim=64, mlp_depth=2)
    tc = TrainConfig(max_epochs=25, patience=25)

    def peak_for(n):
        ds = _ring_dataset(n, 8, seed=1)
        anom = np.nonzero(ds.labels == 1)[0][:20]
        norm = np.nonzero(ds.labels == 0)[0][:80]
        split = SplitSet(
            train=np.concatenate([anom[:10], norm[:40]]),
            val=np.concatenate([anom[10:], norm[40:]]),
            test=np.asarray([], dtype=np.int64),
        )
        cache = build_cheb_basis(ds, cfg.K)
        tracemalloc.start()
        tracemalloc.reset_peak()
        train(ds.labels, cache, None, cfg, tc, split)
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        return peak

    peak_for(5_000)  # warmup so one-time allocations do not skew the first run
    small = peak_for(20_000)
    large = peak_for(200_000)
    change = abs(large - small) / small
    assert change < 0.05, f"trainer peak changed {change * 100:.2f}% for 10x nodes"
    report(
        8,
        "trainer memory independent of n (part b)",
        f"{small / 1e6:.2f} MB vs {large / 1e6:.2f} MB ({change * 100:.2f}%)",
    )


def test_criterion_8c_score_all_scales_linearly():
    try:
        from threadpoolctl import threadpool_limits
    except ImportError:  # pragma: no cover
        threadpool_limits = None
    cfg = ModelConfig(K=3, context_mode="features_only", hidden_dim=64, mlp_depth=2)
    sizes = (10_000, 100_000, 1_000_000)
    setups = {}
    for n in sizes:
        ds = _ring_dataset(n, 8)
        setups[n] = (init_model(cfg, 8), build_cheb_basis(ds, cfg.K))

    def one_run(n):
        state, cache = setups[n]
        t0 = time.perf_counter()
        score_all(state, cache, None, batch_size=8192)
        return time.perf_counter() - t0

    limiter = threadpool_limits(limits=1) if threadpool_limits else None
    try:
        for n in sizes:
            one_run(n)  # first-touch warmup
        best = {n: np.inf for n in sizes}
        gc.disable()
        for _ in range(5):
            for n in sizes:
                one_run(n)  # wake the CPU governor, then measure
                best[n] = min(best[n], one_run(n))
        gc.enable()
    finally:
        if limiter is not None:
            limiter.unregister()
    per_node = {n: best[n] / n for n in sizes}
    ratio = max(per_node.values()) / min(per_node.values())
    detail = ", ".join(f"n={n}: {per_node[n] * 1e6:.2f}us" for n in sizes)
    assert ratio <= 1.2, f"per-node time ratio {ratio:.3f} exceeds 1.2 ({detail})"
    report(8, "score_all linear scaling (part c)", f"ratio {ratio:.3f}; {detail}")


# ---------------------------------------------------------------------------
# 9. Optional reproduction report on externally converted benchmarks
# ---------------------------------------------------------------------------


@pytest.mark.skipif(
    "SAGAD_GADBENCH_DIR" not in os.environ,
    reason="informative only: set SAGAD_GADBENCH_DIR to converted benchmark datasets",
)
def test_criterion_9_benchmark_reproduction(tmp_path):
    """Informative reproduction run on user-converted benchmark datasets.

    Expects <SAGAD_GADBENCH_DIR>/<name>/ in the documented dataset-directory
    format; averages the standard metrics over all provided splits and
    writes reproduction_report.json next to the datasets.
    """
    base = os.environ["SAGAD_GADBENCH_DIR"]
    targets = {"weibo": ("auprc", 0.90), "tolokers": ("auroc", 0.70)}
    results = {}
    for name, (metric, threshold) in targets.items():
        data_dir = os.path.join(base, name)
        if not os.path.isdir(data_dir):
            pytest.skip(f"dataset {name} not found under {base}")
        run_dir = str(tmp_path / name)
        cfg = parse_config(None, {"dataset": data_dir, "run_dir": run_dir})
        dispatch("preprocess", cfg)
        dispatch("sample-context", cfg)
        from sagad.graph import load_dataset

        num_splits = len(load_dataset(data_dir).splits)
        values = []
        for split in range(num_splits):
            import dataclasses

            split_cfg = dataclasses.replace(cfg, split_index=split)
            dispatch("train", split_cfg)
            dispatch("eval", split_cfg)
        with open(os.path.join(run_dir, "report.csv")) as f:
            report_rows = f.read().strip().splitlines()[1:]
        values = [float(r.split(",")[2]) for r in report_rows if r.split(",")[1] == metric]
        results[name] = float(np.mean(values))
        assert results[name] >= threshold
    with open(os.path.join(base, "reproduction_report.json"), "w") as f:
        json.dump(results, f, indent=2)
