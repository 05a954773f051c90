"""The one write path of every file sagad writes, the one codec of the
binary files (the basis and context caches, the dataset image,
features.bin and checkpoints), the caches' row reader and the streamed
file fingerprint.

A ``BinaryFormat`` is one file type: magic bytes, a fixed-size header and
the name and error class its messages use.  It writes a file atomically
(magic, header, then arrays) and opens one as a ``CacheFile``, which
checks the magic and header, takes the payload size from ``os.fstat`` and
keeps the file open; a cache's payload is never read whole.  ``CacheRows``
is one array in that payload, an (n, d) little-endian f32 matrix or the
dataset image's CSR columns, read by ``rows[ids]`` with positioned reads
(``os.preadv``) into a preallocated buffer.  A process that scores or
trains therefore holds only the rows it asked for, whatever the size of
the cache.

``np.memmap`` is not used on purpose: the page-cache pages a mapped read
faults in are counted in the process's RSS, and on a Linux host with large
page-cache folios a memmapped gather of a hundred rows of a 512 MB cache
kept 416 MB resident.
"""

from __future__ import annotations

import contextlib
import os
import struct
import warnings
import weakref
import zlib
from collections.abc import Callable, Iterable
from typing import TypeVar

import numpy as np

from .errors import CacheFormatError, SagadError

_FINGERPRINT_CHUNK = 1 << 18
T = TypeVar("T")


class BinaryFormat:
    """One binary file type: ``magic``, then a ``header`` of fixed-size
    fields (a ``struct`` format), then the payload.

    ``what`` names the file in messages; every format error is raised as
    ``error`` (a CacheFormatError unless the file is a dataset file).
    """

    def __init__(self, magic: bytes, header: str, what: str,
                 error: type[SagadError] = CacheFormatError):
        self.magic = magic
        self.header = struct.Struct(header)
        self.what = what
        self.error = error
        self.header_bytes = len(magic) + self.header.size

    def write(self, path: str | os.PathLike, fields: tuple,
              arrays: Iterable[tuple[np.ndarray, str]]) -> None:
        """Write the magic, ``fields`` and each ``(array, dtype)`` in turn,
        atomically; ``arrays`` may be a generator, so a payload larger than
        memory streams to the file."""
        with self.writer(path, fields) as f:
            for arr, dtype in arrays:
                write_array(f, arr, dtype)

    @contextlib.contextmanager
    def writer(self, path: str | os.PathLike, fields: tuple):
        """The new file of ``write``, open after its magic and ``fields``
        for a caller that writes the payload itself: it replaces ``path``
        when the block ends (see ``atomic_file``).  Bytes written can be
        read back with ``pread_into`` on its ``fileno()`` once flushed."""
        with atomic_file(path) as f:
            f.write(self.magic)
            f.write(self.header.pack(*fields))
            yield f

    def open(self, path: str | os.PathLike, build: Callable[[CacheFile], T]) -> T:
        """``build(file)`` on ``path`` opened with its magic and header checked.

        The file stays open for what ``build`` returns to read by row; if
        ``build`` raises, the file is closed.
        """
        file = CacheFile(path, self)
        try:
            return build(file)
        except BaseException:
            file.close()
            raise

    def read(self, path: str | os.PathLike, build: Callable[[CacheFile], T]) -> T:
        """As ``open``, for a ``build`` that reads what it needs: the file is
        closed when ``build`` returns."""
        with contextlib.closing(CacheFile(path, self)) as file:
            return build(file)


class CacheFile:
    """One open file of a ``BinaryFormat``: its header fields and its
    payload's offset and size.

    The descriptor is released by ``close()``; if the file is dropped
    unclosed, a finalizer closes it and warns with a ResourceWarning, as an
    unclosed Python file does.
    """

    def __init__(self, path: str | os.PathLike, fmt: BinaryFormat):
        self.path = os.fspath(path)
        self.what, self.error = fmt.what, fmt.error
        try:
            self.fd = os.open(self.path, os.O_RDONLY)
        except FileNotFoundError:
            raise self.error(f"{self.what} not found: {self.path}") from None
        self._finalizer = weakref.finalize(self, _close_unclosed, self.fd, self.path)
        try:
            found = os.pread(self.fd, len(fmt.magic), 0)
            if found != fmt.magic:
                raise self.fail(f"bad {self.what} magic {found!r}, expected {fmt.magic!r}")
            raw = os.pread(self.fd, fmt.header.size, len(fmt.magic))
            if len(raw) != fmt.header.size:
                raise self.fail(f"truncated {self.what} header")
            self.fields = fmt.header.unpack(raw)
            self.payload_offset = fmt.header_bytes
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

    def fail(self, message: str) -> SagadError:
        """The format's error for ``message``, naming this file."""
        return self.error(f"{message} (in {self.path})")

    def expect_payload(self, nbytes: int) -> None:
        if self.payload_bytes != nbytes:
            raise self.fail(
                f"{self.what}: payload is {self.payload_bytes} bytes, expected {nbytes}"
            )

    def read_into(self, out: np.ndarray, offset: int) -> None:
        """Fill the C-contiguous array ``out`` from the file at byte
        ``offset``; ``pread_into`` with this format's error."""
        if self.closed:
            raise ValueError(f"read from closed cache file {self.path}")
        pread_into(self.fd, out, offset, self.path, self.error)


def pread_into(fd: int, out: np.ndarray, offset: int, path: str,
               error: type[SagadError] = CacheFormatError) -> None:
    """Fill the C-contiguous array ``out`` from the open file ``fd`` (named
    ``path`` in messages) at byte ``offset``, with positioned reads.

    Raises ``error`` if the file ends first: ``out`` comes from
    ``np.empty``, so a short read must never reach the caller.
    """
    view = out.reshape(-1).view(np.uint8)
    done = 0
    while done < view.size:
        got = os.preadv(fd, [view[done:]], offset + done)
        if got == 0:
            raise error(
                f"short read from {path}: {done} of {view.size} bytes at offset "
                f"{offset}; the file was truncated or rewritten while open"
            )
        done += got


def _close_unclosed(fd: int, path: str) -> None:
    warnings.warn(f"unclosed cache file {path}", ResourceWarning)
    os.close(fd)


class CacheRows:
    """An array of ``shape`` and little-endian ``dtype`` (f32 by default)
    stored at ``offset`` in an open cache file: an (n, d) matrix of a
    cache, or a 1-D array such as the dataset image's CSR columns.

    ``rows[ids]`` takes a slice or a 1-D integer array, as row selection on
    an ndarray does, and returns a new array of the selected rows in the
    order asked for.  A unit-step slice is one read; an id array is read
    as the contiguous runs of its sorted unique ids.  Ids must lie in
    [0, n): a negative id raises IndexError instead of wrapping.
    """

    def __init__(self, file: CacheFile, offset: int, shape: tuple[int, ...],
                 dtype: str | np.dtype = "<f4"):
        self.file = file
        self.offset = offset
        self.shape = tuple(shape)
        self.dtype = np.dtype(dtype)
        self._row_bytes = int(np.prod(self.shape[1:], dtype=np.int64)) * self.dtype.itemsize

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

    def read_into(self, out: np.ndarray, start: int) -> None:
        """Fill ``out``, a C-contiguous array of this dtype, with rows
        ``start:start + len(out)``: one read into a buffer the caller
        keeps (``rows[start:stop]`` reads the same rows into a new one)."""
        if out.dtype != self.dtype or out.shape[1:] != self.shape[1:]:
            raise ValueError(f"cannot read rows of {self.shape[1:]} {self.dtype} "
                             f"into {out.shape[1:]} {out.dtype}")
        if start < 0 or start + len(out) > self.shape[0]:
            raise IndexError(f"rows [{start}, {start + len(out)}) out of range [0, {self.shape[0]})")
        self.file.read_into(out, self.offset + start * self._row_bytes)

    def _read_run(self, start: int, count: int) -> np.ndarray:
        out = np.empty((count, *self.shape[1:]), dtype=self.dtype)
        self.read_into(out, start)
        return out

    def _read_sorted(self, ids: np.ndarray) -> np.ndarray:
        """Rows of strictly increasing ids, one read per run of consecutive ids."""
        out = np.empty((ids.size, *self.shape[1:]), dtype=self.dtype)
        cuts = (np.flatnonzero(np.diff(ids) != 1) + 1).tolist()
        for lo, hi in zip([0] + cuts, cuts + [ids.size]):
            self.file.read_into(out[lo:hi], self.offset + int(ids[lo]) * self._row_bytes)
        return out


@contextlib.contextmanager
def atomic_file(path: str | os.PathLike):
    """Open a new binary file to be written in place of ``path``.

    The bytes go to a temporary file in the same directory, which is
    fsynced and renamed onto ``path`` (``os.replace``) when the block
    ends.  If the block raises, the temporary file is removed, so ``path``
    holds either its previous content or all of the new one, never part.
    """
    path = os.fspath(path)
    # os.urandom, not `secrets`: that imports hashlib's OpenSSL (+4 MB RSS)
    tmp = f"{path}.{os.getpid()}-{os.urandom(4).hex()}.tmp"
    # mode as `open(path, "wb")` would create the file with; readable too,
    # for a writer that reads back what it wrote (`BinaryFormat.writer`)
    fd = os.open(tmp, os.O_RDWR | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(fd, "wb") as f:
            yield f
            f.flush()
            os.fsync(f.fileno())
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def write_text(path: str | os.PathLike, chunks: Iterable[str]) -> None:
    """Write each string of ``chunks`` to ``path`` as UTF-8, atomically (see
    ``atomic_file``); ``chunks`` may be a generator, so a text larger than
    memory streams to the file, and one that raises leaves ``path`` as it was."""
    with atomic_file(path) as f:
        for chunk in chunks:
            f.write(chunk.encode("utf-8"))


def write_array(f, arr: np.ndarray, dtype: str) -> None:
    """Write ``arr`` as C-order ``dtype`` values straight from its buffer
    (no ``tobytes`` copy; a converted copy only if dtype or order differ)."""
    f.write(np.ascontiguousarray(arr, dtype=dtype).reshape(-1).view(np.uint8))


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


def fingerprint(path: str | os.PathLike) -> tuple[int, int]:
    """``(size, crc32)`` of a file's bytes, read in fixed-size chunks, so a
    file of any size is fingerprinted in constant memory.  zlib, not
    hashlib: hashlib's OpenSSL import costs 4 MB of RSS."""
    buf = bytearray(_FINGERPRINT_CHUNK)
    view = memoryview(buf)
    size = crc = 0
    with open(path, "rb", buffering=0) as f:
        while got := f.readinto(buf):
            crc = zlib.crc32(view[:got], crc)
            size += got
    return size, crc
