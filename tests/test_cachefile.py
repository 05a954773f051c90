"""Caches read by row: the row source, its reads, and the file's lifetime."""

import gc
import os

import numpy as np
import pytest

from sagad import cachefile
from sagad.chebyshev import build_cheb_basis, read_cache, write_cache
from sagad.context import build_context_cache, read_context_cache, write_context_cache
from sagad.errors import CacheFormatError
from sagad.model import ModelConfig, gather_rows, init_model
from sagad.training import score_all

from conftest import er_dataset


@pytest.fixture
def written(tmp_path):
    """A K=3 basis cache and a context cache of one small graph, in memory and on disk."""
    ds = er_dataset(60, 0.1, 5, seed=21)
    cheb = build_cheb_basis(ds, 3)
    ctx = build_context_cache(ds, seed=4)
    write_cache(cheb, tmp_path / "cheb.bin")
    write_context_cache(ctx, tmp_path / "ctx.bin")
    return cheb, ctx, tmp_path / "cheb.bin", tmp_path / "ctx.bin"


def _open_fds() -> int:
    return len(os.listdir("/proc/self/fd"))


class TestRowSource:
    IDS = [
        np.arange(60),
        np.asarray([0]),
        np.asarray([59]),
        np.asarray([3, 4, 5, 9, 10, 40]),     # sorted runs
        np.asarray([40, 3, 10, 4, 9, 5]),     # the same rows, caller's order
        np.asarray([7, 7, 2, 7, 2]),          # duplicates
        np.asarray([5, 6], dtype=np.uint32),
        np.asarray([], dtype=np.int64),
        [1, 2, 30],
    ]
    SLICES = [slice(None), slice(0, 10), slice(10, 60), slice(55, 100), slice(30, 30),
              slice(40, 20), slice(None, None, 7), slice(50, 10, -3)]

    def test_matches_ndarray_indexing(self, written):
        cheb, ctx, cheb_path, ctx_path = written
        with read_cache(cheb_path) as disk, read_context_cache(ctx_path) as disk_ctx:
            for ids in self.IDS + self.SLICES:
                for k, block in enumerate(cheb.blocks):
                    got = disk.blocks[k][ids]
                    assert got.dtype == np.float32
                    np.testing.assert_array_equal(got, block[ids])
                np.testing.assert_array_equal(disk_ctx.context[ids], ctx.context[ids])
            assert disk.blocks[0].shape == (60, 5) and len(disk_ctx.context) == 60

    def test_contiguous_runs_are_coalesced(self, written, monkeypatch):
        _, _, cheb_path, _ = written
        reads = []
        real = os.preadv

        def counting(fd, buffers, offset):
            reads.append(offset)
            return real(fd, buffers, offset)

        with read_cache(cheb_path) as disk:
            monkeypatch.setattr(cachefile.os, "preadv", counting)
            disk.blocks[2][10:42]
            assert len(reads) == 1
            reads.clear()
            disk.blocks[2][np.asarray([40, 3, 10, 4, 9, 5, 4])]  # runs {3,4,5}, {9,10}, {40}
            assert len(reads) == 3
            row = 5 * 4
            assert sorted(reads) == [disk.blocks[2].offset + r * row for r in (3, 9, 40)]

    @pytest.mark.parametrize("bad", [[-1], [0, -2], [60], np.asarray([1.0, 2.0]),
                                     np.zeros((2, 2), dtype=np.int64)])
    def test_bad_ids_raise_instead_of_reading(self, written, bad):
        _, _, cheb_path, _ = written
        with read_cache(cheb_path) as disk, pytest.raises(IndexError):
            disk.blocks[1][bad]

    def test_short_read_raises(self, written):
        cheb, _, cheb_path, _ = written
        with read_cache(cheb_path) as disk:
            # the writer truncates in place: a cache rewritten smaller while open
            write_cache(build_cheb_basis(er_dataset(10, 0.3, 5, seed=1), 3), cheb_path)
            with pytest.raises(CacheFormatError, match="short read"):
                disk.blocks[3][50:60]
            with pytest.raises(CacheFormatError, match="short read"):
                disk.blocks[3][np.asarray([2, 58])]

    def test_oversized_payload_rejected(self, written):
        _, _, cheb_path, ctx_path = written
        for path, reader in ((cheb_path, read_cache), (ctx_path, read_context_cache)):
            with open(path, "ab") as f:
                f.write(b"\0" * 4)
            with pytest.raises(CacheFormatError, match="payload"):
                reader(path)

    def test_truncated_header_rejected(self, written):
        _, _, cheb_path, ctx_path = written
        for path, reader in ((cheb_path, read_cache), (ctx_path, read_context_cache)):
            data = path.read_bytes()
            path.write_bytes(data[:14])
            with pytest.raises(CacheFormatError, match="truncated"):
                reader(path)

    def test_zero_subgraph_size_rejected(self, written):
        _, ctx, _, ctx_path = written
        data = bytearray(ctx_path.read_bytes())
        data[-4:] = b"\0\0\0\0"  # the last node's u4 subgraph size
        ctx_path.write_bytes(bytes(data))
        with pytest.raises(CacheFormatError, match="subgraph sizes"):
            read_context_cache(ctx_path)


@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="needs /proc/self/fd")
class TestFileLifetime:
    def test_with_block_closes_the_file(self, written):
        _, _, cheb_path, ctx_path = written
        before = _open_fds()
        with read_cache(cheb_path) as disk, read_context_cache(ctx_path) as disk_ctx:
            assert _open_fds() == before + 2
        assert _open_fds() == before
        assert disk.file.closed and disk_ctx.file.closed
        with pytest.raises(ValueError, match="closed"):
            disk.blocks[0][0:3]
        disk.close()  # closing twice is a no-op

    def test_rejected_file_is_closed(self, written):
        _, _, cheb_path, _ = written
        data = cheb_path.read_bytes()
        cheb_path.write_bytes(data[:-5])
        before = _open_fds()
        with pytest.raises(CacheFormatError, match="payload"):
            read_cache(cheb_path)
        cheb_path.write_bytes(b"XXXXXXXX" + data[8:])
        with pytest.raises(CacheFormatError, match="magic"):
            read_cache(cheb_path)
        assert _open_fds() == before

    def test_unclosed_cache_warns_and_is_closed(self, written):
        _, _, cheb_path, _ = written
        before = _open_fds()
        with pytest.warns(ResourceWarning, match="unclosed cache file"):
            read_cache(cheb_path)
            gc.collect()
        assert _open_fds() == before

    def test_built_cache_closes_as_a_no_op(self, written):
        cheb, ctx, _, _ = written
        with cheb, ctx:
            pass
        assert cheb.file is None and ctx.file is None


class TestGatherFromDisk:
    def test_gather_and_scores_match_in_memory(self, written):
        cheb, ctx, cheb_path, ctx_path = written
        cfg = ModelConfig(K=3, hidden_dim=8, seed=3)
        state = init_model(cfg, 5)
        ids = np.asarray([17, 3, 3, 59, 0, 18, 16])
        with read_cache(cheb_path) as disk, read_context_cache(ctx_path) as disk_ctx:
            a = gather_rows(cheb, ctx, ids, cfg)
            b = gather_rows(disk, disk_ctx, ids, cfg)
            for x, y in zip(a.block_rows + [a.ctx_rows], b.block_rows + [b.ctx_rows]):
                assert y.dtype == np.float64
                np.testing.assert_array_equal(x, y)
            for batch_size in (7, 1024):
                np.testing.assert_array_equal(score_all(state, disk, disk_ctx, batch_size),
                                              score_all(state, cheb, ctx, batch_size))

    def test_negative_ids_rejected(self, written):
        cheb, ctx, cheb_path, _ = written
        cfg = ModelConfig(K=3, context_mode="features_only")
        with read_cache(cheb_path) as disk:
            for cache in (cheb, disk):
                with pytest.raises(ValueError, match="negative"):
                    gather_rows(cache, None, np.asarray([4, -1]), cfg)

    def test_order_mismatch_rejected(self, written):
        cheb, _, _, _ = written
        with pytest.raises(ValueError, match="order 3 does not match model K=5"):
            gather_rows(cheb, None, np.arange(4), ModelConfig(K=5, context_mode="features_only"))
