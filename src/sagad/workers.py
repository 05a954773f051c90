"""Scoring on several CPUs: forked workers that each score one run of tiles.

``runs(n)`` cuts the ``training.SCORE_ROWS`` tiles of n nodes into
contiguous runs of whole tiles, one per process (``processes``), so each
tile is the same rows through the same code as in one process and every
score keeps its bits.  ``forked`` forks one worker per run but the first,
which the caller scores itself.  A worker writes its run's encoded tiles
to its own temporary file in the run directory, unlinked from the start,
and ends with ``os._exit``, never returning to the caller; the caller
then reads the parts back in node order.
"""

from __future__ import annotations

import contextlib
import os
import signal
import tempfile
import threading
import typing
from collections.abc import Callable
from dataclasses import dataclass

from .errors import SagadError
from .training import SCORE_ROWS

# At most this many processes score, and each gets at least MIN_TILES
# tiles: on a 2-core x86-64 host, 20 tiles (n = 20k) scored about 10 ms
# slower in two processes than in one, and 40 tiles about as fast.
MAX_PROCESSES = 8
MIN_TILES = 20


def processes(tiles: int) -> int:
    """How many processes score ``tiles`` tiles: one per CPU this process
    may run on (so ``taskset -c 0`` makes it one), at most
    ``MAX_PROCESSES``, each with at least ``MIN_TILES`` tiles.  One where
    ``os.fork`` is missing, or while another Python thread runs: a forked
    child holds only the thread that forked, and any lock another thread
    held stays locked in it."""
    if not hasattr(os, "fork") or threading.active_count() > 1:
        return 1
    cpus = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
            else os.cpu_count() or 1)
    return max(1, min(cpus, MAX_PROCESSES, tiles // MIN_TILES))


def runs(n: int) -> list[tuple[int, int]]:
    """[0, n) cut into ``processes`` contiguous ranges of whole scoring
    tiles, as even in tiles as they can be."""
    tiles = -(-n // SCORE_ROWS)
    count = processes(tiles)
    cuts = [min(tiles * i // count * SCORE_ROWS, n) for i in range(count + 1)]
    return list(zip(cuts[:-1], cuts[1:]))


@dataclass
class Worker:
    """A forked worker: its nodes lo:hi, its part file, and its pid until
    it is reaped."""

    lo: int
    hi: int
    part: typing.BinaryIO
    pid: int | None = None

    def reap(self, kill: bool = False) -> int:
        """Wait for the worker (killed first if ``kill``); its exit code."""
        pid, self.pid = self.pid, None
        if kill:
            with contextlib.suppress(ProcessLookupError):
                os.kill(pid, signal.SIGKILL)
        return os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])


def score_part(worker: Worker, score: Callable, encode: Callable, parent: int) -> None:
    """A worker's job: score its nodes with ``score(sink, lo, hi)`` and
    write each tile's ``encode(lo, scores)`` to its part file.  A worker
    whose parent has exited (it is then another process's child) stops
    before its next tile."""

    def write(lo: int, scores) -> None:
        if os.getppid() != parent:
            raise SagadError(f"the scoring process {parent} exited")
        worker.part.write(encode(lo, scores))

    score(write, worker.lo, worker.hi)
    worker.part.flush()


@contextlib.contextmanager
def forked(ranges: list[tuple[int, int]], score: Callable, encode: Callable, directory: str):
    """Fork one worker per ``(lo, hi)`` of ``ranges``, each running
    ``score_part`` into its own unlinked temporary file in ``directory``.

    Yields an iterator over the workers in order, each once it has exited
    with status 0, its part file rewound; a worker that failed raises a
    SagadError naming its nodes and exit status, and a part file or fork
    that fails (an OSError, such as EAGAIN at the process limit) one
    naming its nodes.  When the block ends, by any way, every worker not
    yet reaped is killed and reaped and every part file is closed.
    """
    parent, started = os.getpid(), []
    try:
        for lo, hi in ranges:
            try:
                started.append(worker := Worker(lo, hi, tempfile.TemporaryFile(dir=directory)))
                worker.pid = os.fork()
            except OSError as exc:
                raise SagadError(f"cannot start the scoring worker for nodes {lo}..{hi - 1}: "
                                 f"{exc}") from exc
            if worker.pid == 0:
                status = 1
                try:
                    score_part(worker, score, encode, parent)
                    status = 0
                except BaseException as exc:  # reported here; the worker then exits
                    with contextlib.suppress(OSError):
                        os.write(2, f"error: scoring worker for nodes {lo}..{hi - 1}: "
                                    f"{type(exc).__name__}: {exc}\n".encode())
                finally:
                    os._exit(status)  # no return to the caller, no exit handlers, no flushes
        yield _finished(started)
    finally:
        for worker in started:
            if worker.pid is not None:
                worker.reap(kill=True)
            worker.part.close()


def _finished(started: list[Worker]):
    """Each worker in turn, its part file rewound, once it exited with status 0."""
    for w in started:
        code = w.reap()
        if code:
            how = f"killed by signal {-code}" if code < 0 else f"exit status {code}"
            raise SagadError(f"scoring worker for nodes {w.lo}..{w.hi - 1} failed ({how})")
        w.part.seek(0)
        yield w
