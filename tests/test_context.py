import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sagad.context import (
    build_context_cache,
    max_rq_subgraph,
    rayleigh_quotient,
    read_context_cache,
    write_context_cache,
)
from sagad.errors import CacheFormatError
from sagad.graph import GraphDataset

import rq_oracle
from conftest import er_dataset, make_dataset


def star(center_feature, leaf_features):
    k = len(leaf_features)
    edges = [[0, i + 1] for i in range(k)]
    features = [center_feature] + list(leaf_features)
    return make_dataset(edges, features, [0] * (k + 1))


class TestRayleighQuotient:
    def test_antipodal_pair_attains_two(self):
        ds = make_dataset([[0, 1]], [[1.0], [-1.0]], [0, 0])
        assert rayleigh_quotient([0, 1], ds) == pytest.approx(2.0)

    def test_constant_signal_is_zero(self):
        ds = make_dataset([[0, 1]], [[1.0], [1.0]], [0, 0])
        assert rayleigh_quotient([0, 1], ds) == pytest.approx(0.0)

    def test_two_channel_trace_ratio(self):
        ds = make_dataset([[0, 1]], [[1.0, 1.0], [-1.0, 1.0]], [0, 0])
        # (4 + 0) / (2 + 2)
        assert rayleigh_quotient([0, 1], ds) == pytest.approx(1.0)

    def test_empty_subset_rejected(self):
        ds = make_dataset([[0, 1]], [[1.0], [1.0]], [0, 0])
        with pytest.raises(ValueError, match="non-empty"):
            rayleigh_quotient([], ds)

    def test_zero_denominator_returns_zero(self):
        ds = make_dataset([[0, 1]], [[0.0], [0.0]], [0, 0])
        assert rayleigh_quotient([0, 1], ds) == 0.0

    def test_nonnegative_and_degree_bounded(self):
        rng = np.random.default_rng(3)
        ds = er_dataset(40, 0.15, 3, seed=3)
        for _ in range(200):
            size = int(rng.integers(1, 10))
            subset = rng.choice(40, size=size, replace=False)
            rq = rayleigh_quotient(subset, ds)
            assert rq >= 0.0
            max_deg = max(
                sum(1 for j in ds.adjacency.neighbors(int(i)) if j in set(subset))
                for i in subset
            )
            assert rq <= 2.0 * max(max_deg, 1) + 1e-9

    @given(st.floats(min_value=0.1, max_value=50.0), st.integers(min_value=0, max_value=10))
    @settings(max_examples=30, deadline=None)
    def test_scale_invariance(self, scale, seed):
        ds = er_dataset(15, 0.3, 2, seed=seed)
        rng = np.random.default_rng(seed)
        subset = rng.choice(15, size=5, replace=False)
        base = rayleigh_quotient(subset, ds)
        scaled = make_dataset(
            np.argwhere(np.triu(ds.adjacency.to_scipy().toarray(), 1) > 0),
            ds.features * scale,
            ds.labels,
            num_nodes=15,
        )
        assert rayleigh_quotient(subset, scaled) == pytest.approx(base, rel=1e-9)


class TestMaxRqSubgraph:
    def test_star_picks_contrast_leaf(self):
        ds = star([1.0], [[1.0], [-1.0]])
        subset = max_rq_subgraph(0, ds)
        np.testing.assert_array_equal(subset, [0, 2])
        assert rayleigh_quotient(subset, ds) == pytest.approx(2.0)

    def test_isolated_node_alone(self):
        ds = make_dataset([[0, 1]], [[1.0], [1.0], [1.0]], [0, 0, 0], num_nodes=3)
        np.testing.assert_array_equal(max_rq_subgraph(2, ds), [2])

    def test_identical_features_stay_alone(self):
        ds = star([1.0], [[1.0], [1.0], [1.0]])
        np.testing.assert_array_equal(max_rq_subgraph(0, ds), [0])

    def test_invalid_node_rejected(self):
        ds = star([1.0], [[1.0]])
        with pytest.raises(ValueError, match="out of range"):
            max_rq_subgraph(5, ds)

    def test_exhaustive_branch_used_for_small_degrees(self):
        ds = er_dataset(30, 0.2, 2, seed=7)
        for v in range(30):
            if len(ds.adjacency.neighbors(v)) <= 10:
                auto = max_rq_subgraph(v, ds)
                forced = max_rq_subgraph(v, ds, branch="exhaustive")
                assert rayleigh_quotient(auto, ds) == rayleigh_quotient(forced, ds)

    def test_greedy_never_below_singleton(self):
        ds = er_dataset(40, 0.3, 3, seed=8)
        for v in range(40):
            subset = max_rq_subgraph(v, ds, branch="greedy")
            assert rayleigh_quotient(subset, ds) >= rayleigh_quotient([v], ds) - 1e-12

    def test_greedy_bounded_by_exhaustive(self):
        ds = er_dataset(25, 0.25, 2, seed=9)
        for v in range(25):
            if 1 <= len(ds.adjacency.neighbors(v)) <= 10:
                greedy = rayleigh_quotient(max_rq_subgraph(v, ds, branch="greedy"), ds)
                best = rayleigh_quotient(max_rq_subgraph(v, ds, branch="exhaustive"), ds)
                assert greedy <= best + 1e-12

    def test_candidate_cap_is_seeded(self):
        rng = np.random.default_rng(0)
        edges = [[0, i] for i in range(1, 30)]
        features = rng.standard_normal((30, 2))
        ds = make_dataset(edges, features, [0] * 30)
        a = max_rq_subgraph(0, ds, cap=8, seed=11)
        b = max_rq_subgraph(0, ds, cap=8, seed=11)
        np.testing.assert_array_equal(a, b)
        c = max_rq_subgraph(0, ds, cap=8, seed=12)
        # different seed may (and here does) sample different candidates
        assert len(a) >= 1 and len(c) >= 1

    def test_rq_monotone_in_deviation_scale(self):
        # star graphs with zero-mean leaves: scaling the center's deviation
        # from the leaf mean can only increase the subgraph energy ratio
        rng = np.random.default_rng(21)
        for _ in range(20):
            k = int(rng.integers(2, 7))
            leaves = rng.standard_normal((k, 3))
            leaves -= leaves.mean(axis=0, keepdims=True)
            delta = rng.standard_normal(3)
            prev = -np.inf
            for s in (1.0, 2.0, 4.0, 8.0):
                ds = star(list(s * delta), [list(row) for row in leaves])
                rq = rayleigh_quotient(np.arange(k + 1), ds)
                assert rq >= prev - 1e-9
                prev = rq


class TestContextCache:
    def test_mean_of_antipodal_pair_is_zero(self):
        ds = star([1.0], [[1.0], [-1.0]])
        cache = build_context_cache(ds)
        assert cache.context[0, 0] == pytest.approx(0.0)
        assert cache.subgraph_size[0] == 2

    def test_singleton_keeps_own_features(self):
        ds = make_dataset([[0, 1]], [[1.0], [1.0], [7.0]], [0, 0, 0], num_nodes=3)
        cache = build_context_cache(ds)
        assert cache.context[2, 0] == pytest.approx(7.0)
        assert cache.subgraph_size[2] == 1

    def test_deterministic_across_runs(self):
        ds = er_dataset(40, 0.2, 3, seed=13)
        a = build_context_cache(ds, seed=5)
        b = build_context_cache(ds, seed=5)
        np.testing.assert_array_equal(a.context, b.context)
        np.testing.assert_array_equal(a.subgraph_size, b.subgraph_size)

    def test_full_khop_mode_means_neighborhood(self):
        ds = make_dataset([[0, 1], [0, 2]], [[0.0], [3.0], [6.0]], [0, 0, 0])
        cache = build_context_cache(ds, mode="full_khop")
        assert cache.context[0, 0] == pytest.approx(3.0)  # mean of {0,1,2}
        assert cache.subgraph_size[0] == 3

    def test_unknown_mode_rejected(self):
        ds = er_dataset(5, 0.5, 1)
        with pytest.raises(ValueError, match="context mode"):
            build_context_cache(ds, mode="bogus")

    def test_file_roundtrip(self, tmp_path):
        ds = er_dataset(20, 0.2, 3, seed=15)
        cache = build_context_cache(ds)
        path = tmp_path / "ctx.bin"
        write_context_cache(cache, path)
        with read_context_cache(path) as loaded:
            np.testing.assert_array_equal(cache.context, loaded.context[:])
            np.testing.assert_array_equal(cache.subgraph_size, loaded.subgraph_size)

    def test_corrupt_magic_rejected(self, tmp_path):
        ds = er_dataset(8, 0.4, 2, seed=16)
        path = tmp_path / "ctx.bin"
        write_context_cache(build_context_cache(ds), path)
        data = bytearray(path.read_bytes())
        data[0] ^= 0xFF
        path.write_bytes(bytes(data))
        with pytest.raises(CacheFormatError, match="magic"):
            read_context_cache(path)


# ---------------------------------------------------------------------------
# The batched kernel against the scalar oracle (tests/rq_oracle.py)
# ---------------------------------------------------------------------------


def _with_features(ds, features):
    return GraphDataset(adjacency=ds.adjacency, features=features, labels=ds.labels)


def gaussian_er(n, p, seed):
    return er_dataset(n, p, 3, seed=seed)


def integer_er(n, p, seed):
    """Features in {-1, 0, 1}: exact RQ ties are common."""
    ds = er_dataset(n, p, 3, seed=seed)
    rng = np.random.default_rng(seed + 1000)
    return _with_features(ds, rng.integers(-1, 2, size=(n, 3)).astype(np.float64))


def decimal_er(n, p, seed):
    """Features in multiples of 0.1: ties that hold in real arithmetic but
    only up to rounding in binary, so sums must be taken in the same order."""
    ds = er_dataset(n, p, 3, seed=seed)
    rng = np.random.default_rng(seed + 4000)
    return _with_features(ds, rng.integers(-3, 4, size=(n, 3)) * 0.1)


def zero_rows_er(n, p, seed):
    """A third of the rows are all zero: some subsets have den == 0, and at a
    zero-feature node every subset of leaves has RQ 1 up to rounding."""
    ds = er_dataset(n, p, 3, seed=seed)
    features = np.array(ds.features)
    features[np.random.default_rng(seed + 2000).random(n) < 0.33] = 0.0
    return _with_features(ds, features)


def identical_leaves(num_leaves, seed):
    """A star whose leaves share one feature row, plus a few distinct
    leaves and an edge between two of the identical ones."""
    rng = np.random.default_rng(seed)
    leaf = rng.standard_normal(2)
    rows = [rng.standard_normal(2)] + [leaf] * num_leaves + list(rng.standard_normal((3, 2)))
    k = len(rows) - 1
    edges = [[0, i] for i in range(1, k + 1)] + [[1, 2]]
    return make_dataset(edges, rows, [0] * (k + 1))


def degree_at_cap(cap, seed):
    """Center 0 has exactly ``cap`` neighbors, node 1 has cap + 1, node
    cap + 3 is isolated."""
    rng = np.random.default_rng(seed)
    n = cap + 4
    edges = [[0, i] for i in range(1, cap + 1)] + [[1, i] for i in range(2, cap + 3)]
    return make_dataset(edges, rng.standard_normal((n, 2)), [0] * n, num_nodes=n)


def corpus():
    for kind in (gaussian_er, integer_er, decimal_er, zero_rows_er):
        for p in (0.06, 0.15, 0.3):
            for seed in (0, 1, 2):
                yield f"{kind.__name__}-p{p}-s{seed}", kind(50, p, seed)
    # Here a greedy step flips (at cap 16) if a candidate's weight into the
    # subset is summed in insertion order rather than by one dot product.
    yield "decimal_er-n40-p0.3-s20", decimal_er(40, 0.3, 20)
    for num_leaves in (3, 12):
        yield f"identical_leaves-{num_leaves}", identical_leaves(num_leaves, num_leaves)
    for cap in (8, 16):
        yield f"degree_at_cap-{cap}", degree_at_cap(cap, cap)
    # isolated nodes: ids past the last edge endpoint
    yield "isolated", make_dataset([[0, 1], [1, 2]], np.eye(5), [0] * 5, num_nodes=5)


CORPUS = dict(corpus())


class TestMatchesOracle:
    """Same subsets and the same context bytes as the per-node sampler."""

    @pytest.mark.parametrize("cap", [8, 16])
    @pytest.mark.parametrize("name", sorted(CORPUS))
    def test_context_cache_bit_identical(self, name, cap):
        ds = CORPUS[name]
        for seed in (0, 7):
            cache = build_context_cache(ds, cap=cap, seed=seed)
            context, sizes = rq_oracle.context_rows(ds, cap=cap, seed=seed)
            np.testing.assert_array_equal(cache.subgraph_size, sizes)
            assert cache.context.tobytes() == context.tobytes()

    @pytest.mark.parametrize("cap", [8, 16])
    @pytest.mark.parametrize("name", sorted(CORPUS))
    def test_each_branch_matches(self, name, cap):
        ds = CORPUS[name]
        for v in range(ds.num_nodes):
            k = min(len(ds.adjacency.neighbors(v)), cap)
            branches = ["auto", "greedy"] + (["exhaustive"] if k <= 10 else [])
            for branch in branches:
                got = max_rq_subgraph(v, ds, cap=cap, seed=3, branch=branch)
                want = rq_oracle.max_rq_subgraph(v, ds, cap=cap, seed=3, branch=branch)
                np.testing.assert_array_equal(got, want, err_msg=f"node {v} {branch}")

    def test_corpus_covers_every_case(self):
        """Both branches, capped nodes, degree == cap, isolated nodes and
        zero-energy subsets all occur in the corpus."""
        degrees = np.concatenate([np.diff(ds.adjacency.row_offsets) for ds in CORPUS.values()])
        assert np.any(degrees == 0)
        assert np.any((degrees >= 1) & (degrees <= 8))
        assert np.any((degrees > 10) & (degrees <= 16))
        assert np.any(degrees > 16)
        assert np.any(degrees == 8) and np.any(degrees == 16)
        zero = [np.any(~CORPUS[name].features.any(axis=1)) for name in CORPUS if "zero" in name]
        assert all(zero)


class TestKernelLimits:
    def test_cap_below_one_rejected(self):
        ds = er_dataset(10, 0.3, 2, seed=1)
        for cap in (0, -1):
            with pytest.raises(ValueError, match="cap must be >= 1"):
                build_context_cache(ds, cap=cap)
            with pytest.raises(ValueError, match="cap must be >= 1"):
                max_rq_subgraph(0, ds, cap=cap)

    def test_forced_exhaustive_above_limit_rejected(self, monkeypatch):
        # 40 candidates would need 2^40 subsets; the check comes first
        from sagad import context

        def no_tables(k):
            raise AssertionError("subset tables built")

        monkeypatch.setattr(context, "_subset_tables", no_tables)
        ds = star([1.0], [[float(i)] for i in range(40)])
        with pytest.raises(ValueError, match="2\\^40 subsets"):
            max_rq_subgraph(0, ds, branch="exhaustive")
        with pytest.raises(ValueError, match="2\\^11 subsets"):
            max_rq_subgraph(0, ds, cap=11, branch="exhaustive")
        # at the cap, 10 candidates are still solved exactly
        monkeypatch.undo()
        np.testing.assert_array_equal(
            max_rq_subgraph(0, ds, cap=10, branch="exhaustive"),
            rq_oracle.max_rq_subgraph(0, ds, cap=10, branch="exhaustive"),
        )

    def test_chunking_does_not_change_results(self, monkeypatch):
        from sagad import context

        ds = integer_er(60, 0.3, 4)
        whole = build_context_cache(ds, cap=16, seed=2)
        monkeypatch.setattr(context, "_CHUNK_VALUES", 1)  # one node per chunk
        small = build_context_cache(ds, cap=16, seed=2)
        assert whole.context.tobytes() == small.context.tobytes()
        np.testing.assert_array_equal(whole.subgraph_size, small.subgraph_size)
