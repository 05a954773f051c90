"""Row-range jobs on several CPUs: forked workers that each run one
contiguous range of rows.

Every job that fills an n-row output range by range, with rows that do
not depend on how [0, n) is cut, runs here: scoring (``training``), the
Chebyshev basis (``chebyshev``) and both context modes (``context``).
``Job.ranges(n)`` cuts [0, n) into contiguous ranges of whole ``unit``-row
blocks, one per process (``processes``), so each row is the same rows
through the same code as in one process and keeps its bits.  ``forked``
forks one worker per range but the first, which the caller runs itself.
A worker hands each piece of its output to ``put``: into its own
temporary part file, unlinked from the start, which the caller reads back
in row order, or (with no part directory) straight into its place in an
output file opened before the fork.  It ends with ``os._exit``, never
returning to the caller.  Forking, reaping, part files, the stop of an
orphaned worker and every error message are here once, for every job.
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

# At most this many processes run one job.
MAX_PROCESSES = 8


def processes(units: int, min_units: int) -> int:
    """How many processes share ``units`` blocks of rows: one per CPU this
    process may run on (so ``taskset -c 0`` makes it one), at most
    ``MAX_PROCESSES``, each with at least ``min_units`` blocks.  One where
    ``os.fork`` is missing, or while another Python thread runs: a forked
    child holds only the thread that forked, and any lock another thread
    held stays locked in it."""
    if not hasattr(os, "fork") or threading.active_count() > 1:
        return 1
    cpus = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
            else os.cpu_count() or 1)
    return max(1, min(cpus, MAX_PROCESSES, units // max(min_units, 1)))


@dataclass
class Job:
    """A row-range job: its ``name`` in messages ("<name> worker for rows
    a..b"), the ``unit`` its ranges are cut at (a scoring tile; one row
    for the set-up jobs) and the ``min_units`` each process gets at least,
    below which a fork costs more than it saves.  No key, flag or
    environment variable sets either: the worker count is derived."""

    name: str
    min_units: int
    unit: int = 1

    def ranges(self, n: int) -> list[tuple[int, int]]:
        """[0, n) cut into ``processes`` contiguous ranges of whole units,
        as even in units as they can be."""
        units = -(-n // self.unit)
        count = processes(units, self.min_units)
        cuts = [min(units * i // count * self.unit, n) for i in range(count + 1)]
        return list(zip(cuts[:-1], cuts[1:]))


@dataclass
class Worker:
    """A forked worker: its rows lo:hi, its part file (None when it writes
    into the output itself), and its pid until it is reaped."""

    lo: int
    hi: int
    part: typing.BinaryIO | None
    pid: int | None = None

    @property
    def part_name(self) -> str:
        """Its part file, as messages name it."""
        return f"the part file of rows {self.lo}..{self.hi - 1}"

    def reap(self, kill: bool = False) -> int:
        """Wait for the worker (killed first if ``kill``); its exit code."""
        pid, self.pid = self.pid, None
        if kill:
            with contextlib.suppress(ProcessLookupError):
                os.kill(pid, signal.SIGKILL)
        return os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])


def run_part(job: Job, worker: Worker, work: Callable, put: Callable, parent: int) -> None:
    """A worker's part of ``job``: ``work(sink, lo, hi)`` on its rows, each
    ``sink(*piece)`` going to ``put(part, *piece)``.  A worker whose parent
    has exited (it is then another process's child) stops before its next
    piece."""

    def sink(*piece) -> None:
        if os.getppid() != parent:
            raise SagadError(f"the {job.name} process {parent} exited")
        put(worker.part, *piece)

    work(sink, worker.lo, worker.hi)
    if worker.part is not None:
        worker.part.flush()


@contextlib.contextmanager
def forked(job: Job, ranges: list[tuple[int, int]], work: Callable, put: Callable,
           directory: str | None):
    """Fork one worker per ``(lo, hi)`` of ``ranges``, each running
    ``run_part``: with ``directory``, into its own unlinked temporary file
    there; without, ``put`` gets None for a part and writes each piece
    where it belongs, at a fixed place in a file opened before the fork.

    Yields an iterator over the workers in order, each once it has exited
    with status 0, its part file rewound; a worker that failed raises a
    SagadError naming the job, its rows and its exit status, and a part
    file or fork that fails (an OSError, such as EAGAIN at the process
    limit) one naming the job and its rows.  When the block ends, by any
    way, every worker not yet reaped is killed and reaped and every part
    file is closed.
    """
    parent, started = os.getpid(), []
    try:
        for lo, hi in ranges:
            try:
                part = None if directory is None else tempfile.TemporaryFile(dir=directory)
                started.append(worker := Worker(lo, hi, part))
                worker.pid = os.fork()
            except OSError as exc:
                raise SagadError(f"cannot start the {job.name} worker for rows {lo}..{hi - 1}: "
                                 f"{exc}") from exc
            if worker.pid == 0:
                status = 1
                try:
                    run_part(job, worker, work, put, parent)
                    status = 0
                except BaseException as exc:  # reported here; the worker then exits
                    with contextlib.suppress(OSError):
                        os.write(2, f"error: {job.name} worker for rows {lo}..{hi - 1}: "
                                    f"{type(exc).__name__}: {exc}\n".encode())
                finally:
                    os._exit(status)  # no return to the caller, no exit handlers, no flushes
        yield _finished(job, started)
    finally:
        for worker in started:
            if worker.pid is not None:
                worker.reap(kill=True)
            if worker.part is not None:
                worker.part.close()


def _finished(job: Job, started: list[Worker]):
    """Each worker in turn, its part file rewound, once it exited with status 0."""
    for w in started:
        code = w.reap()
        if code:
            how = f"killed by signal {-code}" if code < 0 else f"exit status {code}"
            raise SagadError(f"{job.name} worker for rows {w.lo}..{w.hi - 1} failed ({how})")
        if w.part is not None:
            w.part.seek(0)
        yield w
