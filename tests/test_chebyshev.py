import os
import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp

from sagad import chebyshev
from sagad.chebyshev import (
    CACHE_FORMAT,
    ChebBasisCache,
    build_cheb_basis,
    chebyshev_nodes,
    read_cache,
    write_cache,
)
from sagad.errors import CacheFormatError
from sagad.graph import (
    FEATURES_FORMAT,
    FeatureFile,
    GraphDataset,
    SparseAdjacency,
    normalized_adjacency,
)

from conftest import er_dataset, make_dataset
from oracles import dense_spectral_oracle


class TestBasisRecurrence:
    def test_block_zero_is_features(self):
        ds = er_dataset(20, 0.2, 3, seed=1)
        cache = build_cheb_basis(ds, 3, dtype=np.float64)
        np.testing.assert_array_equal(cache.blocks[0], ds.features)

    def test_single_edge_first_block(self):
        ds = make_dataset([[0, 1]], [[1.0], [1.0]], [0, 0])
        cache = build_cheb_basis(ds, 2, dtype=np.float64)
        # scaled Laplacian is the negated normalized adjacency
        np.testing.assert_allclose(cache.blocks[1], [[-1.0], [-1.0]])

    def test_recurrence_matches_direct_apply(self):
        ds = er_dataset(30, 0.2, 2, seed=2)
        cache = build_cheb_basis(ds, 4, dtype=np.float64)
        l_hat = -normalized_adjacency(ds.adjacency).toarray()
        for k in range(2, 5):
            expected = 2.0 * l_hat @ cache.blocks[k - 1] - cache.blocks[k - 2]
            np.testing.assert_allclose(cache.blocks[k], expected, atol=1e-12)

    def test_order_below_one_rejected(self):
        ds = er_dataset(10, 0.3, 2)
        with pytest.raises(ValueError, match="order"):
            build_cheb_basis(ds, 0)


class TestDenseOracle:
    def test_identity_filter_returns_features(self):
        ds = er_dataset(25, 0.2, 3, seed=3)
        out = dense_spectral_oracle(ds, [1.0, 0.0, 0.0])
        np.testing.assert_allclose(out, ds.features, atol=1e-10)

    def test_linear_filter_applies_laplacian(self):
        ds = er_dataset(25, 0.2, 3, seed=4)
        out = dense_spectral_oracle(ds, [0.0, 1.0])
        l_hat = -normalized_adjacency(ds.adjacency).toarray()
        np.testing.assert_allclose(out, l_hat @ ds.features, atol=1e-10)

    def test_recurrence_agrees_with_oracle(self):
        rng = np.random.default_rng(11)
        ds = er_dataset(50, 0.1, 4, seed=5)
        cache = build_cheb_basis(ds, 5, dtype=np.float64)
        w = rng.uniform(-1, 1, 6)
        combo = sum(w[k] * cache.blocks[k] for k in range(6))
        oracle = dense_spectral_oracle(ds, w)
        assert np.max(np.abs(combo - oracle)) <= 1e-8

    def test_size_limit_enforced(self):
        ds = er_dataset(30, 0.2, 2)
        with pytest.raises(ValueError, match="n <= 10"):
            dense_spectral_oracle(ds, [1.0, 0.0], max_nodes=10)

    def test_scaled_spectrum_in_unit_interval(self):
        ds = er_dataset(60, 0.15, 2, seed=6)
        l_hat = -normalized_adjacency(ds.adjacency).toarray()
        eigvals = np.linalg.eigvalsh(l_hat)
        assert eigvals.min() >= -1.0 - 1e-10
        assert eigvals.max() <= 1.0 + 1e-10


class TestNodes:
    def test_ascending_and_symmetric(self):
        for order in range(1, 8):
            nodes = chebyshev_nodes(order)
            assert np.all(np.diff(nodes) > 0)
            np.testing.assert_allclose(nodes, -nodes[::-1], atol=1e-12)

    def test_known_values_order_two(self):
        np.testing.assert_allclose(
            chebyshev_nodes(2), [-np.sqrt(3) / 2, 0.0, np.sqrt(3) / 2], atol=1e-12
        )


class TestCacheFile:
    def _small_cache(self, order=3, seed=7):
        ds = er_dataset(12, 0.3, 2, seed=seed)
        return build_cheb_basis(ds, order)  # f32 blocks, the on-disk dtype

    def test_roundtrip_bit_exact(self, tmp_path):
        cache = self._small_cache()
        path = tmp_path / "c.bin"
        write_cache(cache, path)
        with read_cache(path) as loaded:
            assert loaded.order == cache.order
            assert loaded.num_nodes == cache.num_nodes
            assert loaded.dim == cache.dim
            for k, a in enumerate(cache.blocks):
                np.testing.assert_array_equal(a, loaded.blocks[k][:])

    def test_file_size_formula(self, tmp_path):
        cache = self._small_cache(order=4)
        path = tmp_path / "c.bin"
        write_cache(cache, path)
        expected = 28 + (cache.order + 1) * cache.num_nodes * cache.dim * 4
        assert os.path.getsize(path) == expected
        assert CACHE_FORMAT.header_bytes == 28

    def test_bad_magic_rejected(self, tmp_path):
        cache = self._small_cache()
        path = tmp_path / "c.bin"
        write_cache(cache, path)
        data = bytearray(path.read_bytes())
        data[:8] = b"XXXXXXXX"
        path.write_bytes(bytes(data))
        with pytest.raises(CacheFormatError, match="magic"):
            read_cache(path)

    def test_truncated_payload_rejected(self, tmp_path):
        cache = self._small_cache()
        path = tmp_path / "c.bin"
        write_cache(cache, path)
        data = path.read_bytes()
        path.write_bytes(data[:-5])
        with pytest.raises(CacheFormatError, match="payload"):
            read_cache(path)

    def test_unwritable_path_raises(self, tmp_path):
        cache = self._small_cache()
        blocker = tmp_path / "not_a_dir"
        blocker.write_bytes(b"file")
        with pytest.raises(OSError):
            write_cache(cache, blocker / "cache.bin")

    def test_missing_file_rejected(self, tmp_path):
        with pytest.raises(CacheFormatError, match="not found"):
            read_cache(tmp_path / "absent.bin")

    def test_header_contract(self, tmp_path):
        cache = self._small_cache(order=2)
        path = tmp_path / "c.bin"
        write_cache(cache, path)
        with read_cache(path) as loaded:
            assert (loaded.num_nodes, loaded.dim, loaded.order) == (12, 2, 2)


class TestGrowthBound:
    def test_blocks_do_not_blow_up(self):
        # unit-norm feature columns; |T_k| <= 1 on [-1,1] bounds each block
        ds = er_dataset(40, 0.2, 3, seed=8)
        ds.features /= np.linalg.norm(ds.features, axis=0, keepdims=True)
        cache = build_cheb_basis(ds, 8, dtype=np.float64)
        for k, block in enumerate(cache.blocks):
            assert np.max(np.abs(block)) <= 10.0, f"block {k} exploded"


def whole_matrix_basis(ds, order, dtype=np.float32):
    """The recurrence over the whole normalized matrix in ``dtype``: values
    formed in f64 and rounded once, three ``dtype`` buffers (test oracle for
    the row-chunked one)."""
    a = ds.adjacency.to_csr()
    counts = np.diff(a.indptr)
    deg = counts.astype(np.float64)
    with np.errstate(divide="ignore"):
        dinv_sqrt = np.where(deg > 0, 1.0 / np.sqrt(deg), 0.0)
    vals = (np.repeat(dinv_sqrt, counts) * dinv_sqrt[a.indices]).astype(dtype)
    a_norm = sp.csr_matrix((vals, a.indices, a.indptr), shape=a.shape)
    b_prev = np.array(ds.features, dtype=dtype)
    b_cur = a_norm @ b_prev
    np.negative(b_cur, out=b_cur)
    blocks = [b_prev, b_cur]
    for _ in range(2, order + 1):
        b_next = a_norm @ b_cur
        b_next *= -2.0
        b_next -= b_prev
        blocks.append(b_next)
        b_prev, b_cur = b_cur, b_next
    return ChebBasisCache(order, ds.num_nodes, ds.num_features, blocks)


def _heavy_tailed_dataset(n=3000, d=6, seed=13):
    """Chung-Lu graph on Pareto(1.5) weights: hubs of degree in the hundreds
    beside leaves of degree one, so the normalized values span a wide range."""
    rng = np.random.default_rng(seed)
    p = rng.pareto(1.5, n) + 1.0
    p /= p.sum()
    edges = np.stack([rng.choice(n, 4 * n, p=p), rng.choice(n, 4 * n, p=p)], axis=1)
    return make_dataset(edges, rng.standard_normal((n, d)), [0] * n)


def _graphs():
    rng = np.random.default_rng(3)
    # 23 nodes, 5 of them isolated (19..23 never appear in an edge)
    edges = np.argwhere(np.triu(rng.random((18, 18)) < 0.25, 1))
    return {
        "isolated": make_dataset(edges, rng.standard_normal((23, 4)), [0] * 23),
        "edgeless": make_dataset(np.zeros((0, 2)), rng.standard_normal((9, 3)), [0] * 9),
        "er": er_dataset(40, 0.15, 5, seed=12),
        # one hub row spans every chunk's columns; degrees 1 and 29 meet in each entry
        "star": make_dataset([[0, v] for v in range(1, 30)], rng.standard_normal((30, 3)),
                             [0] * 30),
        # bipartite: the spectrum reaches -1, and T_k X carries signal k hops across chunks
        "path": make_dataset([[v, v + 1] for v in range(30)], rng.standard_normal((31, 2)),
                             [0] * 31),
        # every row is full, so each chunk reads all n columns of the previous block
        "complete": make_dataset(np.argwhere(np.triu(np.ones((12, 12)), 1)),
                                 rng.standard_normal((12, 3)), [0] * 12),
    }


class TestStreamedBasis:
    @pytest.mark.parametrize("name", ["isolated", "edgeless", "er", "star", "path", "complete"])
    @pytest.mark.parametrize("chunk", ["1", "7", "n", "n+5"])
    @pytest.mark.parametrize("order", [1, 2, 3, 4])
    def test_file_is_byte_identical_to_whole_matrix(self, tmp_path, monkeypatch, name, chunk,
                                                    order):
        ds = _graphs()[name]
        n = ds.num_nodes
        monkeypatch.setattr(chebyshev, "_CHUNK_ROWS", {"1": 1, "7": 7, "n": n, "n+5": n + 5}[chunk])
        write_cache(whole_matrix_basis(ds, order), tmp_path / "oracle.bin")
        with build_cheb_basis(ds, order, path=tmp_path / "c.bin") as disk:
            assert (disk.order, disk.num_nodes, disk.dim) == (order, n, ds.num_features)
        assert (tmp_path / "c.bin").read_bytes() == (tmp_path / "oracle.bin").read_bytes()
        # the in-memory sink collects the same chunks
        write_cache(build_cheb_basis(ds, order), tmp_path / "mem.bin")
        assert (tmp_path / "mem.bin").read_bytes() == (tmp_path / "oracle.bin").read_bytes()
        # and f64 blocks come from an f64 recurrence, just as independent of the chunking
        f64 = build_cheb_basis(ds, order, dtype=np.float64)
        for got, want in zip(f64.blocks, whole_matrix_basis(ds, order, np.float64).blocks):
            assert got.dtype == np.float64
            np.testing.assert_array_equal(got, want)

    @pytest.mark.parametrize("name", ["isolated", "edgeless", "er", "star", "path", "complete",
                                      "heavy-tailed"])
    def test_f32_blocks_stay_within_rounding_of_the_f64_reference(self, name):
        ds = _heavy_tailed_dataset() if name == "heavy-tailed" else _graphs()[name]
        order = 4
        f32 = build_cheb_basis(ds, order)
        f64 = build_cheb_basis(ds, order, dtype=np.float64)
        for k, (low, ref) in enumerate(zip(f32.blocks, f64.blocks)):
            assert low.dtype == np.float32
            deviation = np.max(np.abs(low - ref))
            assert deviation <= 1e-5 * np.max(np.abs(ref)), f"block {k}: max |delta| {deviation}"

    def test_f64_features_are_not_overwritten(self):
        ds = er_dataset(20, 0.2, 3, seed=1)
        before = ds.features.copy()
        build_cheb_basis(ds, 4, dtype=np.float64)
        np.testing.assert_array_equal(ds.features, before)

    def test_file_holds_f32_only(self, tmp_path):
        with pytest.raises(ValueError, match="float32"):
            build_cheb_basis(er_dataset(10, 0.3, 2), 2, dtype=np.float64, path=tmp_path / "c.bin")
        assert os.listdir(tmp_path) == []

    def test_failure_mid_stream_keeps_the_previous_file(self, tmp_path, monkeypatch):
        ds = er_dataset(30, 0.2, 3, seed=4)
        path = tmp_path / "cheb_cache.bin"
        build_cheb_basis(er_dataset(12, 0.3, 3, seed=5), 2, path=path).close()
        previous = path.read_bytes()
        real, calls = chebyshev.normalized_adjacency, []

        def fail_after_first_chunk(*args):
            calls.append(args)
            if len(calls) > 1:
                raise RuntimeError("recurrence failed")
            return real(*args)

        monkeypatch.setattr(chebyshev, "_CHUNK_ROWS", 4)
        monkeypatch.setattr(chebyshev, "normalized_adjacency", fail_after_first_chunk)
        with pytest.raises(RuntimeError, match="recurrence failed"):
            build_cheb_basis(ds, 3, path=path)
        assert path.read_bytes() == previous
        assert os.listdir(tmp_path) == ["cheb_cache.bin"]


class TestBasisMemory:
    def test_streamed_basis_holds_two_f32_buffers(self, tmp_path):
        # ring plus 3n random edges, features read from features.bin
        n, d = 50_000, 32
        rng = np.random.default_rng(2)
        ring = np.arange(n)
        edges = np.concatenate([np.stack([ring, (ring + 1) % n], axis=1),
                                rng.integers(0, n, size=(3 * n, 2))])
        adj = SparseAdjacency.from_edges(n, edges)
        FEATURES_FORMAT.write(tmp_path / "features.bin", (n, d),
                              [(rng.standard_normal((n, d)), "<f4")])
        ds = GraphDataset(adjacency=adj, features=FeatureFile(str(tmp_path), n, d),
                          labels=np.zeros(n, dtype=np.int8))
        build_cheb_basis(ds, 3, path=tmp_path / "warmup.bin").close()
        tracemalloc.start()
        tracemalloc.reset_peak()
        build_cheb_basis(ds, 3, path=tmp_path / "c.bin").close()
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        # beyond the two buffers: the degree scaling and its f64 temporaries
        # (40 bytes per node), and one chunk's normalized values with their
        # f64 temporaries and index slices (40 bytes per stored entry) and
        # its sparse product
        rows = chebyshev._CHUNK_ROWS
        offsets = adj.row_offsets
        chunk_entries = max(offsets[min(lo + rows, n)] - offsets[lo] for lo in range(0, n, rows))
        allowance = 40 * n + 40 * int(chunk_entries) + rows * d * 4
        assert peak <= 2 * n * d * 4 + allowance, (
            f"peak {peak / 1e6:.1f} MB, bound {(2 * n * d * 4 + allowance) / 1e6:.1f} MB")
