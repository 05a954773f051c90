import numpy as np
import pytest

from sagad.csbm import (
    CsbmParams,
    generate_csbm,
    kappa_eff,
    margin_condition_value,
    random_walk_filter,
    separability_experiment,
    standard_splits,
    strong_separation_params,
    theoretical_separator,
)
from sagad.errors import ConfigError

from adjacency_contract import assert_adjacency_contract
from conftest import make_dataset


def small_params(**kwargs):
    defaults = dict(
        n_a=40,
        n_n=160,
        mu=np.asarray([-0.5, 0.0]),
        nu=np.asarray([0.5, 0.0]),
        p1=0.3,
        q1=0.05,
        p2=0.05,
        q2=0.3,
        regime_frac=0.5,
        seed=0,
    )
    defaults.update(kwargs)
    return CsbmParams(**defaults)


class TestParamsValidation:
    def test_regime_ordering_enforced(self):
        with pytest.raises(ConfigError, match="p1 > q1"):
            small_params(p1=0.05, q1=0.3).validate()
        with pytest.raises(ConfigError, match="p2 < q2"):
            small_params(p2=0.3, q2=0.05).validate()

    def test_mean_norm_bounded(self):
        with pytest.raises(ConfigError, match="norm"):
            small_params(mu=np.asarray([2.0, 0.0])).validate()


class TestGeneration:
    def test_graph_is_simple_and_symmetric(self):
        sample = generate_csbm(small_params())
        assert_adjacency_contract(sample.dataset.adjacency, sample.dataset.num_nodes)

    def test_cross_class_pair_probability(self):
        # one anomaly + one normal, both homophilic, theta=1: the single
        # possible edge appears with probability q1
        hits = 0
        trials = 2000
        for seed in range(trials):
            params = CsbmParams(
                n_a=1, n_n=1,
                mu=np.asarray([0.0]), nu=np.asarray([0.0]),
                p1=0.5, q1=0.1, p2=0.1, q2=0.5,
                regime_frac=0.0, seed=seed,
            )
            sample = generate_csbm(params)
            hits += sample.dataset.adjacency.num_edges
        assert hits / trials == pytest.approx(0.1, abs=3 * np.sqrt(0.1 * 0.9 / trials))

    def test_intra_pair_probability_via_three_nodes(self):
        # two normal homophilic nodes with p1=0.5: count the normal-normal edge
        hits = 0
        trials = 2000
        for seed in range(trials):
            params = CsbmParams(
                n_a=1, n_n=2,
                mu=np.asarray([0.0]), nu=np.asarray([0.0]),
                p1=0.5, q1=0.0, p2=0.0, q2=0.01,
                regime_frac=0.0, seed=seed,
            )
            sample = generate_csbm(params)
            adj = sample.dataset.adjacency
            hits += int(2 in adj.neighbors(1))
        assert hits / trials == pytest.approx(0.5, abs=3 * np.sqrt(0.25 / trials))

    def test_no_structural_signal_when_rates_match(self):
        # p = q in both regimes: intra-class neighbor share matches the prior
        params = small_params(
            n_a=400, n_n=1600, p1=0.05, q1=0.049999, p2=0.0499, q2=0.05, seed=2,
        )
        sample = generate_csbm(params)
        ds = sample.dataset
        rows = np.repeat(np.arange(ds.num_nodes), np.diff(ds.adjacency.row_offsets))
        same = ds.labels[rows] == ds.labels[ds.adjacency.col_indices]
        anom_rows = ds.labels[rows] == 1
        frac = float(np.mean(same[anom_rows]))
        expected = params.pi_a
        se = np.sqrt(expected * (1 - expected) / anom_rows.sum())
        assert frac == pytest.approx(expected, abs=4 * se)

    def test_feature_means_concentrate(self):
        params = small_params(n_a=500, n_n=2000, seed=3)
        sample = generate_csbm(params)
        x = np.asarray(sample.dataset.features, dtype=np.float64)
        mean_a = x[:500].mean(axis=0)
        mean_n = x[500:].mean(axis=0)
        assert np.linalg.norm(mean_a - params.mu) <= 3.0 / np.sqrt(500)
        assert np.linalg.norm(mean_n - params.nu) <= 3.0 / np.sqrt(2000)

    def test_ego_degrees_match_formula(self):
        # closed-form row degree: theta_i * n * (pi_a b_{z,a} + pi_n b_{z,n})
        params = small_params(n_a=200, n_n=1800, p1=0.10, q1=0.02, p2=0.02, q2=0.10,
                              regime_frac=0.4, seed=4)
        sample = generate_csbm(params, include_ego=True)
        y, r, theta = sample.dataset.labels, sample.regimes, sample.theta
        n, pi_a = params.n, params.pi_a
        deg = np.diff(sample.ego.indptr)
        for z in (1, 0):
            for h in (0, 1):
                mask = (y == z) & (r == h)
                intra = params.p1 if h == 0 else params.p2
                inter = params.q1 if h == 0 else params.q2
                beta_a = intra if z == 1 else inter
                beta_n = inter if z == 1 else intra
                expect = theta[mask] * n * (pi_a * beta_a + (1 - pi_a) * beta_n)
                se = np.sqrt(np.sum(expect)) / mask.sum()
                assert abs(deg[mask].mean() - expect.mean()) <= 3 * se

    def test_neighbor_class_share_concentrates(self):
        # homophilic class-a ego rows: share of class-a neighbors near
        # pi_a p1 / (pi_a p1 + pi_n q1)
        params = small_params(n_a=300, n_n=2700, p1=0.12, q1=0.02, p2=0.02, q2=0.12,
                              regime_frac=0.3, seed=5)
        sample = generate_csbm(params, include_ego=True)
        y, r = sample.dataset.labels, sample.regimes
        ego = sample.ego
        mask = (y == 1) & (r == 0)
        rows = np.repeat(np.arange(params.n), np.diff(ego.indptr))
        row_sel = mask[rows]
        nbr_labels = y[ego.indices[row_sel]]
        frac = float(np.mean(nbr_labels == 1))
        pi_a = params.pi_a
        omega = pi_a * params.p1 / (pi_a * params.p1 + (1 - pi_a) * params.q1)
        se = np.sqrt(omega * (1 - omega) / row_sel.sum())
        assert frac == pytest.approx(omega, abs=3 * se)

    def test_theta_normalized_per_class(self):
        params = small_params(theta_min=0.5, theta_max=2.0, seed=6)
        sample = generate_csbm(params)
        y = sample.dataset.labels
        assert sample.theta[y == 1].mean() == pytest.approx(1.0)
        assert sample.theta[y == 0].mean() == pytest.approx(1.0)
        assert np.all(sample.theta > 0)

    def test_deterministic_given_seed(self):
        a = generate_csbm(small_params(seed=7))
        b = generate_csbm(small_params(seed=7))
        np.testing.assert_array_equal(a.dataset.features, b.dataset.features)
        np.testing.assert_array_equal(a.dataset.adjacency.col_indices, b.dataset.adjacency.col_indices)
        np.testing.assert_array_equal(a.regimes, b.regimes)

    def test_overflowing_probabilities_are_counted(self):
        # wide theta spread pushes theta_i * theta_j * p1 past 1 for some pairs
        params = small_params(p1=0.9, theta_min=0.2, theta_max=3.0, seed=8)
        sample = generate_csbm(params)
        assert sample.clipped_pairs > 0
        # clipping keeps the graph valid
        assert_adjacency_contract(sample.dataset.adjacency, sample.dataset.num_nodes)


class TestRandomWalkFilter:
    def test_neighbor_mean_swap(self):
        ds = make_dataset([[0, 1]], [[1.0], [3.0]], [0, 0])
        filtered, isolated = random_walk_filter(ds.adjacency.csr, ds.features, np.asarray([0, 0]))
        np.testing.assert_allclose(filtered, [[3.0], [1.0]])
        assert not isolated.any()

    def test_heterophilic_sign_flip(self):
        ds = make_dataset([[0, 1]], [[1.0], [3.0]], [0, 0])
        filtered, _ = random_walk_filter(ds.adjacency.csr, ds.features, np.asarray([1, 0]))
        assert filtered[0, 0] == pytest.approx(-3.0)
        assert filtered[1, 0] == pytest.approx(1.0)

    def test_triangle_neighbor_mean(self):
        ds = make_dataset([[0, 1], [0, 2], [1, 2]], [[0.0], [3.0], [6.0]], [0, 0, 0])
        filtered, _ = random_walk_filter(ds.adjacency.csr, ds.features, np.zeros(3, dtype=int))
        assert filtered[0, 0] == pytest.approx(4.5)

    def test_isolated_flagged_not_raised(self):
        ds = make_dataset([[0, 1]], [[1.0], [1.0], [5.0]], [0, 0, 0], num_nodes=3)
        filtered, isolated = random_walk_filter(ds.adjacency.csr, ds.features, np.zeros(3, dtype=int))
        assert isolated[2] and not isolated[0]
        np.testing.assert_array_equal(filtered[2], 0.0)


    def test_directed_rows_match_a_per_row_loop(self):
        ego = generate_csbm(small_params(seed=9), include_ego=True).ego
        rng = np.random.default_rng(9)
        x = rng.standard_normal((ego.shape[0], 3))
        regimes = rng.integers(0, 2, ego.shape[0])
        filtered, isolated = random_walk_filter(ego, x, regimes)
        for i in range(ego.shape[0]):
            nbrs = ego.indices[ego.indptr[i]:ego.indptr[i + 1]]
            assert isolated[i] == (len(nbrs) == 0)
            want = np.zeros(3) if len(nbrs) == 0 else x[nbrs].mean(axis=0)
            sign = 1.0 if regimes[i] == 0 else -1.0
            np.testing.assert_allclose(filtered[i], sign * want, rtol=1e-12, atol=1e-12)


class TestSeparator:
    def test_symmetric_case(self):
        spec = theoretical_separator(
            np.asarray([0.5, 0.0]), np.asarray([-0.5, 0.0]), pi_a=0.5, R=1.0
        )
        np.testing.assert_allclose(spec.w_star, [-1.0, 0.0])
        assert spec.tau_pi == pytest.approx(0.0)
        assert spec.b_star == pytest.approx(0.0)

    def test_prior_shift_value(self):
        spec = theoretical_separator(
            np.asarray([0.5, 0.0]), np.asarray([-0.5, 0.0]), pi_a=0.1, R=1.0
        )
        assert spec.tau_pi == pytest.approx(np.log(1.0 / 9.0), abs=1e-5)
        assert spec.b_star == pytest.approx(np.log(1.0 / 9.0), abs=1e-5)

    def test_scale_invariance_of_decision(self):
        mu = np.asarray([0.3, -0.2])
        nu = np.asarray([-0.4, 0.5])
        rng = np.random.default_rng(0)
        x = rng.standard_normal((50, 2))
        one = theoretical_separator(mu, nu, 0.2, R=1.0)
        two = theoretical_separator(mu, nu, 0.2, R=2.0)
        np.testing.assert_allclose(two.w_star, 2.0 * one.w_star)
        assert two.tau_pi == pytest.approx(2.0 * one.tau_pi)
        assert two.b_star == pytest.approx(2.0 * one.b_star)
        np.testing.assert_array_equal(one.predict(x), two.predict(x))

    def test_identical_means_rejected(self):
        with pytest.raises(ValueError, match="coincide"):
            theoretical_separator(np.ones(3), np.ones(3), 0.1)


class TestSeparabilityExperiment:
    def test_kappa_eff_value(self):
        params = strong_separation_params()
        pa = params.pi_a
        expected = min(
            pa * 0.15 + (1 - pa) * 0.004,
            pa * 0.004 + (1 - pa) * 0.15,
        )
        assert kappa_eff(params) == pytest.approx(expected)

    def test_margin_value_formula(self):
        params = strong_separation_params()
        expected = 1.0 * np.sqrt(64 * 4000 * kappa_eff(params)) / np.log(4000)
        assert margin_condition_value(params) == pytest.approx(expected)

    def test_strong_config_separates(self):
        res = separability_experiment(strong_separation_params(seed=0, n=1500))
        assert res.accuracy >= 0.99
        assert res.accuracy_misfiltered <= res.accuracy
        assert res.mean_margin_misfiltered < res.mean_margin

    def test_equal_means_fall_back_to_majority(self):
        params = small_params(mu=np.zeros(2), nu=np.zeros(2))
        res = separability_experiment(params)
        assert res.accuracy == pytest.approx(max(params.pi_a, 1 - params.pi_a))
        assert res.separator is None

    def test_accuracy_trend_in_dimension(self):
        # weak margins so the feature-noise term is visible at low d
        means = []
        for d in (16, 128):
            accs = []
            for seed in range(3):
                u = np.ones(d) / np.sqrt(d)
                params = CsbmParams(
                    n_a=150, n_n=1350,
                    mu=-0.25 * u, nu=0.25 * u,
                    p1=0.10, q1=0.006, p2=0.006, q2=0.10,
                    regime_frac=0.5, seed=seed,
                )
                accs.append(separability_experiment(params).accuracy)
            means.append(float(np.mean(accs)))
        assert means[1] >= means[0] - 0.01


class TestStandardSplits:
    def test_budget_and_disjointness(self):
        labels = np.asarray([1] * 50 + [0] * 450, dtype=np.int8)
        splits = standard_splits(labels, num_splits=3, seed=1)
        assert len(splits) == 3
        for s in splits:
            labeled = np.concatenate([s.train, s.val])
            assert len(labeled) == 100
            assert np.sum(labels[labeled] == 1) == 20
            assert np.sum(labels[labeled] == 0) == 80
            assert len(set(labeled.tolist()) & set(s.test.tolist())) == 0
            assert len(s.test) == 400

    def test_test_ids_match_the_set_formula(self):
        rng = np.random.default_rng(3)
        labels = rng.choice(np.asarray([1, 0, -1], dtype=np.int8), size=700, p=[0.1, 0.7, 0.2])
        for seed in range(4):
            for s in standard_splits(labels, num_splits=3, seed=seed):
                labeled = set(int(i) for i in np.concatenate([s.train, s.val]))
                want = np.asarray([i for i in range(len(labels)) if i not in labeled],
                                  dtype=np.int64)
                assert s.test.dtype == want.dtype
                np.testing.assert_array_equal(s.test, want)

    def test_insufficient_labels_rejected(self):
        labels = np.asarray([1] * 5 + [0] * 95, dtype=np.int8)
        with pytest.raises(ValueError, match="not enough"):
            standard_splits(labels)
