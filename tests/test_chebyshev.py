import os

import numpy as np
import pytest

from sagad.chebyshev import (
    build_cheb_basis,
    chebyshev_nodes,
    dense_spectral_oracle,
    expected_cache_bytes,
    read_cache,
    write_cache,
)
from sagad.errors import CacheFormatError
from sagad.graph import normalized_adjacency

from conftest import er_dataset, make_dataset


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
        l_hat = -normalized_adjacency(ds.adjacency).to_scipy().toarray()
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
        l_hat = -normalized_adjacency(ds.adjacency).to_scipy().toarray()
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
        l_hat = -normalized_adjacency(ds.adjacency).to_scipy().toarray()
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
        assert expected == expected_cache_bytes(cache.order, cache.num_nodes, cache.dim)

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


class TestSelfLoops:
    def test_self_loop_flag_changes_operator_consistently(self):
        ds = er_dataset(30, 0.2, 3, seed=10)
        rng = np.random.default_rng(0)
        w = rng.uniform(0, 1, 4)
        cache = build_cheb_basis(ds, 3, dtype=np.float64, add_self_loops=True)
        combo = sum(w[k] * cache.blocks[k] for k in range(4))
        oracle = dense_spectral_oracle(ds, w, add_self_loops=True)
        np.testing.assert_allclose(combo, oracle, atol=1e-9)
        plain = build_cheb_basis(ds, 3, dtype=np.float64)
        assert not np.allclose(cache.blocks[1], plain.blocks[1])


class TestGrowthBound:
    def test_blocks_do_not_blow_up(self):
        # unit-norm feature columns; |T_k| <= 1 on [-1,1] bounds each block
        ds = er_dataset(40, 0.2, 3, seed=8)
        ds.features /= np.linalg.norm(ds.features, axis=0, keepdims=True)
        cache = build_cheb_basis(ds, 8, dtype=np.float64)
        for k, block in enumerate(cache.blocks):
            assert np.max(np.abs(block)) <= 10.0, f"block {k} exploded"
