"""Caches read by row: the row source, its reads, and the file's lifetime."""

import gc
import os
import subprocess
import sys
import tracemalloc
import zlib

import numpy as np
import pytest

from sagad import cachefile, context, training
from sagad.chebyshev import CACHE_FORMAT, build_cheb_basis, read_cache, write_cache
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
            # a cache truncated in place while open (to the size of a 10-node one)
            os.truncate(cheb_path, CACHE_FORMAT.header_bytes + 4 * 10 * 5 * 4)
            with pytest.raises(CacheFormatError, match="short read"):
                disk.blocks[3][50:60]
            with pytest.raises(CacheFormatError, match="short read"):
                disk.blocks[3][np.asarray([2, 58])]

    def test_rewrite_while_open_keeps_the_old_rows(self, written):
        # the writers replace the file: an open reader keeps reading the
        # complete old cache, never a mix of old and new rows
        cheb, _, cheb_path, _ = written
        with read_cache(cheb_path) as disk:
            write_cache(build_cheb_basis(er_dataset(10, 0.3, 5, seed=1), 3), cheb_path)
            np.testing.assert_array_equal(disk.blocks[3][50:60], cheb.blocks[3][50:60])
        with read_cache(cheb_path) as fresh:
            assert fresh.num_nodes == 10

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

    @pytest.mark.parametrize("node", [0, 6, 7, 59])
    def test_sizes_are_checked_a_chunk_at_a_time_and_not_kept(self, written, monkeypatch, node):
        _, ctx, _, ctx_path = written
        monkeypatch.setattr(context, "_SIZE_CHUNK", 7)  # 60 nodes: 9 chunks, the last of 4
        with read_context_cache(ctx_path) as disk:
            assert isinstance(disk.subgraph_size, cachefile.CacheRows)
            np.testing.assert_array_equal(disk.subgraph_size[:], ctx.subgraph_size)
        data = bytearray(ctx_path.read_bytes())
        at = len(data) - 4 * (60 - node)
        data[at : at + 4] = b"\0\0\0\0"  # node's u4 subgraph size
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
    def test_gather_and_scores_match_in_memory(self, written, monkeypatch):
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
            for rows in (59, training.SCORE_ROWS):  # 60 nodes: a one-row last tile, one tile
                monkeypatch.setattr(training, "SCORE_ROWS", rows)
                np.testing.assert_array_equal(score_all(state, disk, disk_ctx),
                                              score_all(state, cheb, ctx))

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


class TestAtomicWrite:
    def _writers(self):
        """(name, write, others): ``write(d)`` writes the binary file ``d/name``
        and, outside the binary codec, the text files ``others``."""
        from sagad import model
        from sagad.graph import write_dataset

        ds = er_dataset(20, 0.2, 3, seed=9)
        state = init_model(ModelConfig(K=2, hidden_dim=4), 3)
        return [
            ("out.bin", lambda d: write_cache(build_cheb_basis(ds, 2), d / "out.bin"), ()),
            ("out.bin", lambda d: write_context_cache(build_context_cache(ds), d / "out.bin"), ()),
            ("out.bin", lambda d: model.save_checkpoint(state, d / "out.bin"), ()),
            ("features.bin", lambda d: write_dataset(ds, d),
             ("edges.tsv", "labels.csv", "meta.json", "splits.json")),
        ]

    def test_failed_write_keeps_the_previous_file(self, tmp_path, monkeypatch):
        real = cachefile.write_array

        def fail_after_writing(*args):
            real(*args)  # the header and one array reach the file...
            raise OSError("disk full")  # ...then the disk fills

        for i, (name, write, others) in enumerate(self._writers()):
            d = tmp_path / str(i)
            d.mkdir()
            path = d / name
            path.write_bytes(b"previous")
            with monkeypatch.context() as m:
                m.setattr(cachefile, "write_array", fail_after_writing)
                with pytest.raises(OSError, match="disk full"):
                    write(d)
            assert path.read_bytes() == b"previous", name
            assert set(os.listdir(d)) - set(others) == {name}, name
            write(d)  # and a complete write replaces it
            assert path.read_bytes() != b"previous"
            assert sorted(os.listdir(d)) == sorted([name, *others])

    def test_failed_sweep_keeps_the_previous_csv(self, tmp_path, monkeypatch):
        from sagad import cli, csbm

        real, calls = csbm.separability_experiment, []

        def fail_on_second_call(*args, **kwargs):
            calls.append(1)
            if len(calls) == 2:
                raise OSError("disk full")
            return real(*args, **kwargs)

        path = tmp_path / "csbm_sweep.csv"
        path.write_bytes(b"previous")
        monkeypatch.setattr(csbm, "separability_experiment", fail_on_second_call)
        cfg = cli.parse_config(None, {"run_dir": str(tmp_path), "sweep.dims": "8,16",
                                      "sweep.seeds": "0", "sweep.n": "200"})
        with pytest.raises(OSError, match="disk full"):
            cli.dispatch("csbm-sweep", cfg)
        assert len(calls) == 2
        assert path.read_bytes() == b"previous"
        assert not [name for name in os.listdir(tmp_path) if name.endswith(".tmp")]

    def test_text_write_cut_short_keeps_the_previous_file(self, tmp_path):
        """A ``score`` whose CSV outgrows the process's file-size limit (EFBIG,
        as on a full disk) leaves the previous scores file as it was."""
        from sagad import graph, model

        ds = er_dataset(400, 0.02, 3, seed=9)
        graph.write_dataset(ds, tmp_path / "data")
        run = tmp_path / "run"
        run.mkdir()
        build_cheb_basis(ds, 3, path=run / "cheb_cache.bin").close()
        write_context_cache(build_context_cache(ds), run / "context_cache.bin")
        model.save_checkpoint(init_model(ModelConfig(), 3), run / "checkpoint_0.bin")
        path = run / "scores_0.csv"
        path.write_bytes(b"previous")
        limit = 4096  # above config_score.json, below the ~9 kB of scores
        code = ("import resource, sys\n"
                f"resource.setrlimit(resource.RLIMIT_FSIZE, ({limit}, {limit}))\n"
                "from sagad import training\n"
                "training.SCORE_ROWS = 19  # 400 rows: 21 full tiles, then one row\n"
                "from sagad.cli import main\n"
                "sys.exit(main(sys.argv[1:]))\n")
        src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
        done = subprocess.run(
            [sys.executable, "-c", code, "score", "--dataset", str(tmp_path / "data"),
             "--run-dir", str(run)],
            env={**os.environ, "PYTHONPATH": src, "PYTHONDONTWRITEBYTECODE": "1"},
            capture_output=True, text=True, timeout=120,
        )
        assert done.returncode != 0
        assert "File too large" in done.stderr
        assert path.read_bytes() == b"previous"
        assert not [name for name in os.listdir(run) if name.endswith(".tmp")]

    def test_new_file_mode_is_that_of_open(self, tmp_path):
        with cachefile.atomic_file(tmp_path / "a.bin") as f:
            f.write(b"x")
        with open(tmp_path / "b.bin", "wb") as f:
            f.write(b"x")
        assert os.stat(tmp_path / "a.bin").st_mode == os.stat(tmp_path / "b.bin").st_mode

    def test_arrays_are_written_as_their_bytes(self, tmp_path):
        arrays = [(np.arange(12, dtype=np.float64).reshape(3, 4), "<f4"),
                  (np.arange(6, dtype=np.float32)[::2], "<f8"),  # strided
                  (np.arange(5, dtype=np.int64), "<u4"),
                  (np.zeros((0, 3), dtype=np.float32), "<f4")]
        with cachefile.atomic_file(tmp_path / "a.bin") as f:
            for arr, dtype in arrays:
                cachefile.write_array(f, arr, dtype)
        expected = b"".join(np.ascontiguousarray(a, dtype=t).tobytes() for a, t in arrays)
        assert (tmp_path / "a.bin").read_bytes() == expected


class TestFingerprint:
    @pytest.mark.parametrize("size", [0, 1, cachefile._FINGERPRINT_CHUNK,
                                      3 * cachefile._FINGERPRINT_CHUNK + 17])
    def test_equals_crc32_of_the_whole_file(self, tmp_path, size):
        content = np.random.default_rng(size).integers(0, 256, size, dtype=np.uint8).tobytes()
        (tmp_path / "f").write_bytes(content)
        assert cachefile.fingerprint(tmp_path / "f") == (size, zlib.crc32(content))

    def test_memory_does_not_grow_with_the_file(self, tmp_path):
        (tmp_path / "f").write_bytes(b"\x5a" * (32 * cachefile._FINGERPRINT_CHUNK))
        tracemalloc.start()
        try:
            cachefile.fingerprint(tmp_path / "f")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * cachefile._FINGERPRINT_CHUNK
