"""Cache files read by row: a checked header plus an open file.

``CacheFile`` checks a cache's magic and fixed-size header, takes the
payload size from ``os.fstat`` and keeps the file open; the payload is
never read whole.  ``CacheRows`` is one (n, d) little-endian f32 matrix in
that payload, read by ``rows[ids]`` with positioned reads (``os.preadv``)
into a preallocated buffer.  A process that scores or trains therefore
holds only the rows it asked for, whatever the size of the cache.

``np.memmap`` is not used on purpose: the page-cache pages a mapped read
faults in are counted in the process's RSS, and on a Linux host with large
page-cache folios a memmapped gather of a hundred rows of a 512 MB cache
kept 416 MB resident.
"""

from __future__ import annotations

import os
import struct
import warnings
import weakref

import numpy as np

from .errors import CacheFormatError

_ROW_DTYPE = np.dtype("<f4")


class CacheFile:
    """One open cache file: its header fields and its payload's offset and size.

    The descriptor is released by ``close()``; if the file is dropped
    unclosed, a finalizer closes it and warns with a ResourceWarning, as an
    unclosed Python file does.
    """

    def __init__(self, path: str | os.PathLike, magic: bytes, header: struct.Struct, what: str):
        self.path = os.fspath(path)
        try:
            self.fd = os.open(self.path, os.O_RDONLY)
        except FileNotFoundError:
            raise CacheFormatError(f"{what} not found: {self.path}") from None
        self._finalizer = weakref.finalize(self, _close_unclosed, self.fd, self.path)
        try:
            found = os.pread(self.fd, len(magic), 0)
            if found != magic:
                raise CacheFormatError(f"bad {what} magic {found!r} (expected {magic!r})")
            raw = os.pread(self.fd, header.size, len(magic))
            if len(raw) != header.size:
                raise CacheFormatError(f"truncated {what} header")
            self.fields = header.unpack(raw)
            self.payload_offset = len(magic) + header.size
            self.payload_bytes = os.fstat(self.fd).st_size - self.payload_offset
        except BaseException:
            self.close()
            raise

    @property
    def closed(self) -> bool:
        return not self._finalizer.alive

    def close(self) -> None:
        if self._finalizer.detach() is not None:
            os.close(self.fd)

    def read_into(self, out: np.ndarray, offset: int) -> None:
        """Fill the C-contiguous array ``out`` from the file at byte ``offset``.

        Raises CacheFormatError if the file ends first: ``out`` comes from
        ``np.empty``, so a short read must never reach the caller.
        """
        if self.closed:
            raise ValueError(f"read from closed cache file {self.path}")
        view = out.reshape(-1).view(np.uint8)
        done = 0
        while done < view.size:
            got = os.preadv(self.fd, [view[done:]], offset + done)
            if got == 0:
                raise CacheFormatError(
                    f"short read from {self.path}: {done} of {view.size} bytes at offset "
                    f"{offset}; the file was truncated or rewritten while open"
                )
            done += got


def _close_unclosed(fd: int, path: str) -> None:
    warnings.warn(f"unclosed cache file {path}", ResourceWarning)
    os.close(fd)


class CacheRows:
    """An (n, d) ``<f4`` matrix stored at ``offset`` in an open cache file.

    ``rows[ids]`` takes a slice or a 1-D integer array, as row selection on
    an ndarray does, and returns a new float32 array of the selected rows
    in the order asked for.  A unit-step slice is one read; an id array
    is read as the contiguous runs of its sorted unique ids.  Ids must lie
    in [0, n): a negative id raises IndexError instead of wrapping.
    """

    def __init__(self, file: CacheFile, offset: int, num_rows: int, dim: int):
        self.file = file
        self.offset = offset
        self.shape = (num_rows, dim)
        self.dtype = _ROW_DTYPE
        self._row_bytes = dim * _ROW_DTYPE.itemsize

    def __len__(self) -> int:
        return self.shape[0]

    def __getitem__(self, ids) -> np.ndarray:
        n = self.shape[0]
        if isinstance(ids, slice):
            start, stop, step = ids.indices(n)
            if step == 1:
                return self._read_run(start, max(stop - start, 0))
            ids = np.arange(start, stop, step)
        ids = np.asarray(ids)
        if ids.ndim != 1 or (ids.size and ids.dtype.kind not in "iu"):
            raise IndexError("cache rows take a slice or a 1-D integer id array")
        if ids.size == 0:
            return self._read_run(0, 0)
        if int(ids.min()) < 0 or int(ids.max()) >= n:
            raise IndexError(f"row id out of range [0, {n})")
        if not np.all(ids[1:] > ids[:-1]):
            uniq, inverse = np.unique(ids, return_inverse=True)
            return self._read_sorted(uniq)[inverse.reshape(-1)]
        return self._read_sorted(ids)

    def _read_run(self, start: int, count: int) -> np.ndarray:
        out = np.empty((count, self.shape[1]), dtype=_ROW_DTYPE)
        self.file.read_into(out, self.offset + start * self._row_bytes)
        return out

    def _read_sorted(self, ids: np.ndarray) -> np.ndarray:
        """Rows of strictly increasing ids, one read per run of consecutive ids."""
        out = np.empty((ids.size, self.shape[1]), dtype=_ROW_DTYPE)
        cuts = (np.flatnonzero(np.diff(ids) != 1) + 1).tolist()
        for lo, hi in zip([0] + cuts, cuts + [ids.size]):
            self.file.read_into(out[lo:hi], self.offset + int(ids[lo]) * self._row_bytes)
        return out


class FileBacked:
    """``close()`` and ``with`` support for a cache that may hold an open file.

    A cache built in memory has ``file = None``, and closing it is a no-op.
    """

    file: CacheFile | None

    def close(self) -> None:
        if self.file is not None:
            self.file.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc) -> None:
        self.close()
