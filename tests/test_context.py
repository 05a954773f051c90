import os
import tempfile
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sagad import context
from sagad.context import (
    EXHAUSTIVE_DEGREE_LIMIT,
    MAX_CANDIDATE_CAP,
    ContextCache,
    _candidates,
    _local_weights,
    _oriented_edges,
    build_context_cache,
    read_context_cache,
    write_context_cache,
)
from sagad.errors import CacheFormatError
from sagad.graph import FEATURES_FORMAT, FeatureFile, GraphDataset, SparseAdjacency

import rq_oracle
from conftest import LoggedColumns, er_dataset, image_graph, make_dataset, messy_edges
from oracles import csr, full_khop_pool
from rq_kernel import max_rq_subgraph
from rq_oracle import rayleigh_quotient


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
            np.argwhere(np.triu(csr(ds.adjacency).toarray(), 1) > 0),
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
            np.testing.assert_array_equal(cache.subgraph_size, loaded.subgraph_size[:])

    @pytest.mark.parametrize("mode", ["rq", "full_khop"])
    def test_built_with_a_path_is_the_written_in_memory_cache(self, tmp_path, mode):
        ds = er_dataset(30, 0.2, 3, seed=17)
        write_context_cache(build_context_cache(ds, seed=3, mode=mode), tmp_path / "want.bin")
        with build_context_cache(ds, seed=3, mode=mode, path=tmp_path / "ctx.bin") as disk:
            assert disk.file is not None and not disk.file.closed
            assert (disk.num_nodes, disk.dim) == (30, 3)
        assert disk.file.closed
        assert (tmp_path / "ctx.bin").read_bytes() == (tmp_path / "want.bin").read_bytes()

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


def equal_degree_ring(n, seed):
    """Each node joined to the three nearest on either side of a ring: every
    degree is 6, so every edge's orientation is decided by id alone, and
    consecutive nodes form triangles."""
    rng = np.random.default_rng(seed)
    edges = [[v, (v + step) % n] for v in range(n) for step in (1, 2, 3)]
    return make_dataset(edges, rng.standard_normal((n, 3)), [0] * n)


def capped_hub_triangles(num_leaves, seed):
    """Hub 0 above both caps; leaves i and j (1 <= i < j) are joined when
    j - i <= 2, so any sample of its leaves holds triangles among itself."""
    rng = np.random.default_rng(seed)
    n = num_leaves + 1
    edges = [[0, i] for i in range(1, n)]
    edges += [[i, j] for i in range(1, n) for j in (i + 1, i + 2) if j < n]
    return make_dataset(edges, rng.integers(-2, 3, size=(n, 3)) * 0.5, [0] * n)


def rank_against_id(seed):
    """Degree order against id order: node 0's neighbors 1..6 are paired
    (1, 6), (2, 5), (3, 4), and the smaller id of each pair also holds
    pendants 7..18, so it has the higher degree.  Each pair's edge then
    lies only in the out-list of its larger id, and the edges from node 0
    to 1..3 only in node 0's."""
    rng = np.random.default_rng(seed)
    edges = [[0, i] for i in range(1, 7)] + [[1, 6], [2, 5], [3, 4]]
    edges += [[1 + p % 3, 7 + p] for p in range(12)]
    return make_dataset(edges, rng.standard_normal((19, 2)), [0] * 19)


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
    # cases of the degree-oriented edge lookup (test_corpus_covers_the_edge_lookup)
    yield "equal_degree_ring", equal_degree_ring(30, 5)
    yield "capped_hub_triangles", capped_hub_triangles(40, 6)
    yield "rank_against_id", rank_against_id(7)


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


class TestEdgeLookup:
    def test_corpus_covers_the_edge_lookup(self):
        """Edges between equal-degree candidates, a capped node whose sample
        holds a triangle, and an edge among candidates whose lower-degree
        endpoint has the larger id."""
        equal = triangle = against = False
        for ds in CORPUS.values():
            adj, degree = ds.adjacency, np.diff(ds.adjacency.row_offsets)
            for v in range(ds.num_nodes):
                cand = _candidates(adj, np.asarray([v]), min(degree[v], 8), 8, 3)[0, 1:]
                pairs = [(a, b) for a in cand for b in cand if a < b and b in adj.neighbors(a)]
                equal |= any(degree[a] == degree[b] for a, b in pairs)
                against |= any(degree[a] > degree[b] for a, b in pairs)
                if degree[v] > 8:
                    triangle |= any(c > b and c in adj.neighbors(a) and c in adj.neighbors(b)
                                    for a, b in pairs for c in cand)
        assert equal and triangle and against

    def test_weights_match_each_candidate_pair(self):
        """The scanned weights equal one dot product per joined pair, and
        zero elsewhere, for every node of the corpus, with all the nodes of
        one candidate count in one chunk."""
        for ds in CORPUS.values():
            adj, x = ds.adjacency, np.asarray(ds.features, dtype=np.float64)
            edges = _oriented_edges(adj, x)
            for cap in (8, 16):
                count = np.minimum(np.diff(adj.row_offsets), cap)
                for k in np.unique(count):
                    ids = _candidates(adj, np.flatnonzero(count == k), k, cap, 3)
                    w = _local_weights(ids, edges, np.zeros(ds.num_nodes, dtype=bool))
                    want = np.zeros_like(w)
                    for slot, row in enumerate(ids):
                        pos = {int(a): i for i, a in enumerate(row)}
                        for i, a in enumerate(row):
                            for j in (pos[int(b)] for b in adj.neighbors(a) if int(b) in pos):
                                diff = x[a] - x[row[j]]
                                want[slot, i, j] = diff @ diff
                    assert w.tobytes() == want.tobytes(), f"k {k} cap {cap}"


class TestKernelLimits:
    def test_cap_below_one_rejected(self):
        ds = er_dataset(10, 0.3, 2, seed=1)
        for cap in (0, -1):
            with pytest.raises(ValueError, match="cap must be >= 1"):
                build_context_cache(ds, cap=cap)

    def test_cap_above_bound_rejected(self):
        ds = er_dataset(10, 0.3, 2, seed=1)
        for cap in (MAX_CANDIDATE_CAP + 1, 10**20):
            with pytest.raises(ValueError, match=f"cap must be <= {MAX_CANDIDATE_CAP}, got {cap}"):
                build_context_cache(ds, cap=cap)
        build_context_cache(ds, cap=MAX_CANDIDATE_CAP)

    def test_ten_candidates_solved_exactly(self):
        # a node of degree 40 capped at 10 candidates, the exhaustive limit
        ds = star([1.0], [[float(i)] for i in range(40)])
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


class TestSamplerMemory:
    def test_rq_holds_f32_features_and_one_oriented_edge_list(self, tmp_path):
        # ring plus 15n random edges (mean degree ~32), features read from features.bin
        n, d = 6000, 64
        rng = np.random.default_rng(2)
        ring = np.arange(n)
        edges = np.concatenate([np.stack([ring, (ring + 1) % n], axis=1),
                                rng.integers(0, n, size=(15 * n, 2))])
        adj = SparseAdjacency.from_edges(n, edges)
        FEATURES_FORMAT.write(tmp_path / "features.bin", (n, d),
                              [(rng.standard_normal((n, d)), "<f4")])
        ds = GraphDataset(adjacency=adj, features=FeatureFile(str(tmp_path), n, d),
                          labels=np.zeros(n, dtype=np.int8))
        for k in range(EXHAUSTIVE_DEGREE_LIMIT + 1):
            context._subset_tables(k)  # shared tables, built once per process
        tracemalloc.start()
        tracemalloc.reset_peak()
        cache = build_context_cache(ds, cap=64, mode="rq")
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        assert cache.context.dtype == np.float32
        # the f32 features and output, 12 B per undirected edge (an out-list
        # target and its f64 energy), 64 B per node (out-list offsets, node
        # energies, the order by candidate count and the sizes) and four
        # f64 arrays of one chunk.  A 2m int64 key array (1.5 MB here) or an
        # n x d f64 copy of the features (+1.5 MB) does not fit.
        bound = 2 * n * d * 4 + 12 * adj.num_edges + 64 * n + 4 * 8 * context._CHUNK_VALUES
        assert peak <= bound, f"peak {peak / 1e6:.2f} MB, bound {bound / 1e6:.2f} MB"

    def test_streamed_rq_holds_one_range_of_context(self, tmp_path, monkeypatch):
        """Written to a file, the sampler holds one range of context rows
        (an eighth here), not the n x d context (+2.7 MB here)."""
        n, d = 6000, 128
        rng = np.random.default_rng(2)
        ring = np.arange(n)
        edges = np.concatenate([np.stack([ring, (ring + 1) % n], axis=1),
                                rng.integers(0, n, size=(15 * n, 2))])
        FEATURES_FORMAT.write(tmp_path / "features.bin", (n, d),
                              [(rng.standard_normal((n, d)), "<f4")])
        ds = GraphDataset(adjacency=SparseAdjacency.from_edges(n, edges),
                          features=FeatureFile(str(tmp_path), n, d),
                          labels=np.zeros(n, dtype=np.int8))
        for k in range(EXHAUSTIVE_DEGREE_LIMIT + 1):
            context._subset_tables(k)
        monkeypatch.setattr(context, "_RQ_ROWS", n // 8)
        tracemalloc.start()
        tracemalloc.reset_peak()
        build_context_cache(ds, cap=64, mode="rq", path=tmp_path / "ctx.bin").close()
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        bound = (n * d * 4 + n // 8 * d * 4 + 12 * ds.adjacency.num_edges + 64 * n
                 + 4 * 8 * context._CHUNK_VALUES)
        assert peak <= bound, f"peak {peak / 1e6:.2f} MB, bound {bound / 1e6:.2f} MB"


class TestRowRanges:
    """Both modes fill the context one row range at a time; the bytes do
    not depend on the ranges, built in memory or streamed to the file."""

    @pytest.mark.parametrize("name", ["integer_er-p0.3-s1", "zero_rows_er-p0.15-s2",
                                      "degree_at_cap-8", "capped_hub_triangles", "isolated"])
    @pytest.mark.parametrize("rows", ["1", "7", "n", "n+5"])
    def test_rq_bytes_do_not_depend_on_the_ranges(self, tmp_path, monkeypatch, name, rows):
        ds = CORPUS[name]
        n = ds.num_nodes
        write_context_cache(ContextCache(n, ds.num_features, *rq_oracle.context_rows(ds, 8, 7)),
                            tmp_path / "oracle.bin")
        monkeypatch.setattr(context, "_RQ_ROWS", {"1": 1, "7": 7, "n": n, "n+5": n + 5}[rows])
        write_context_cache(build_context_cache(ds, cap=8, seed=7), tmp_path / "mem.bin")
        with image_graph(ds, str(tmp_path / "data")) as on_disk:
            build_context_cache(on_disk, cap=8, seed=7, path=tmp_path / "ctx.bin").close()
        want = (tmp_path / "oracle.bin").read_bytes()
        assert (tmp_path / "mem.bin").read_bytes() == want
        assert (tmp_path / "ctx.bin").read_bytes() == want

    @pytest.mark.parametrize("mode", ["rq", "full_khop"])
    def test_empty_graph(self, tmp_path, mode):
        ds = make_dataset(np.zeros((0, 2)), np.zeros((0, 3)), [], num_nodes=0)
        cache = build_context_cache(ds, mode=mode)
        assert cache.context.shape == (0, 3) and cache.subgraph_size.shape == (0,)
        with build_context_cache(ds, mode=mode, path=tmp_path / "ctx.bin") as disk:
            assert (disk.num_nodes, disk.dim) == (0, 3)
            assert disk.context[:].shape == (0, 3)
        assert (tmp_path / "ctx.bin").stat().st_size == context.CONTEXT_FORMAT.header_bytes


class TestChunkedFullKhop:
    """The pool against one f64 scipy product (``oracles.full_khop_pool``),
    byte for byte, whatever the row chunking and the in-memory feature
    dtype: built in memory, and streamed to the cache file from the
    columns of a dataset image."""

    @staticmethod
    def _check(ds, rows_per_chunk=None):
        values = (context._POOL_VALUES if rows_per_chunk is None
                  else rows_per_chunk * ds.num_features)
        expected, sizes = full_khop_pool(ds)
        with mock.patch.object(context, "_POOL_VALUES", values), \
                tempfile.TemporaryDirectory() as tmp:
            cache = build_context_cache(ds, mode="full_khop")
            assert cache.context.dtype == np.float32
            assert cache.context.tobytes() == expected.tobytes()
            np.testing.assert_array_equal(cache.subgraph_size, sizes)
            oracle, streamed = os.path.join(tmp, "oracle.bin"), os.path.join(tmp, "ctx.bin")
            write_context_cache(ContextCache(ds.num_nodes, ds.num_features, expected, sizes),
                                oracle)
            with image_graph(ds, os.path.join(tmp, "data")) as on_disk:
                with build_context_cache(on_disk, mode="full_khop", path=streamed) as disk:
                    assert disk.context[:].tobytes() == expected.tobytes()
            with open(oracle, "rb") as want, open(streamed, "rb") as got:
                assert got.read() == want.read()

    @pytest.mark.parametrize("rows_per_chunk", [1, 7, None])
    def test_bit_identical_to_one_product(self, rows_per_chunk):
        rng = np.random.default_rng(8)
        graphs = [
            er_dataset(50, 0.12, 6, seed=17),
            # isolated nodes 15..19
            make_dataset(np.argwhere(np.triu(rng.random((15, 15)) < 0.3, 1)),
                         rng.standard_normal((20, 3)), [0] * 20),
            make_dataset(np.zeros((0, 2)), rng.standard_normal((6, 2)), [0] * 6),
        ]
        for ds in graphs:  # None: one chunk holds every row
            for dtype in (np.float64, np.float32):
                self._check(_with_features(ds, ds.features.astype(dtype)), rows_per_chunk)

    def test_isolated_nodes_end_a_chunk(self):
        # a chunk pools its rows by descending degree: chunks of three rows
        # are nodes 0-2 (degrees 1, 2, 2), nodes 3-5 (2, 1 and isolated
        # node 5 last), then isolated nodes alone
        rng = np.random.default_rng(3)
        self._check(make_dataset([[0, 1], [1, 2], [2, 3], [3, 4]],
                                 rng.standard_normal((11, 4)), [0] * 11), rows_per_chunk=3)

    @given(st.integers(min_value=0, max_value=2**32 - 1), st.integers(min_value=1, max_value=9),
           st.sampled_from([np.float32, np.float64]))
    @settings(max_examples=60, deadline=None)
    def test_random_graphs(self, seed, rows_per_chunk, dtype):
        """Duplicates, self-loops and isolated nodes in the edge list, and
        features of both signs of zero, so a sum that started elsewhere
        than at +0 would show."""
        n, edges = messy_edges(seed)
        rng = np.random.default_rng(seed)
        features = rng.integers(-2, 3, size=(n, 3)) * 0.5
        features[rng.random((n, 3)) < 0.2] = -0.0
        ds = make_dataset(edges, np.zeros((n, 3)), [0] * n)
        self._check(_with_features(ds, features.astype(dtype)), rows_per_chunk)

    def test_edgeless_graph(self):
        rng = np.random.default_rng(4)
        for rows_per_chunk in (1, 2, 9):
            self._check(make_dataset(np.zeros((0, 2)), rng.standard_normal((5, 3)), [0] * 5),
                        rows_per_chunk)

    def test_each_chunk_reads_its_columns_once(self):
        ds = er_dataset(40, 0.15, 3, seed=6)
        offsets = ds.adjacency.row_offsets
        columns = LoggedColumns(ds.adjacency.col_indices)
        logged = GraphDataset(SparseAdjacency(offsets, columns), ds.features, ds.labels)
        with mock.patch.object(context, "_POOL_VALUES", 7 * ds.num_features):
            cache = build_context_cache(logged, mode="full_khop")
        assert cache.context.tobytes() == full_khop_pool(ds)[0].tobytes()
        assert [(s.start, s.stop) for s in columns.reads] == [
            (offsets[lo], offsets[min(lo + 7, 40)]) for lo in range(0, 40, 7)]

    def test_failure_mid_stream_keeps_the_previous_file(self, tmp_path, monkeypatch):
        ds = er_dataset(30, 0.2, 3, seed=4)
        path = tmp_path / "context_cache.bin"
        build_context_cache(er_dataset(12, 0.3, 3, seed=5), mode="full_khop", path=path).close()
        previous = path.read_bytes()
        # the first chunk is pooled and written, the second one's read fails
        columns = LoggedColumns(ds.adjacency.col_indices, fail_after=1)
        failing = GraphDataset(SparseAdjacency(ds.adjacency.row_offsets, columns), ds.features,
                               ds.labels)
        monkeypatch.setattr(context, "_POOL_VALUES", 4 * ds.num_features)
        with pytest.raises(RuntimeError, match="column read failed"):
            build_context_cache(failing, mode="full_khop", path=path)
        assert len(columns.reads) == 2
        assert path.read_bytes() == previous
        assert os.listdir(tmp_path) == ["context_cache.bin"]
