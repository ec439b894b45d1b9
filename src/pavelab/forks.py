"""Forked child processes, one pipe each: the one fork helper of the package.

`verify` splits its suite instances over such children, `pave` its paving
trials, and `fileio.read_matrix` the rows of a large matrix file, each over
at most `CPUS` processes; `gen` norms its matrix in one child while it
writes the file.  No package code starts a thread.  A child runs one job
on the write end of its own pipe and leaves by `os._exit` on every path,
so it never flushes the buffers or runs the exit handlers it inherited.  The parent reads the pipes
while the block runs; on leaving, every child is reaped, and killed first
when the block raises.
"""
from __future__ import annotations

import contextlib
import os
import signal
import sys
import threading
from typing import BinaryIO, Callable, Iterable, Iterator

from .errors import CapacityError

# Processes one split may use, this one among them: one per CPU the process
# may use.  Read at call time, so that a caller (or a test) may change it.
try:
    CPUS = len(os.sched_getaffinity(0))
except AttributeError:  # no affinity call on this platform
    CPUS = os.cpu_count() or 1


def may_fork(procs: int) -> bool:
    """Whether to split work over `procs` processes: only on Linux, for more
    than one, and while no other thread runs (a forked child would inherit
    the locks other threads hold)."""
    return sys.platform == "linux" and procs > 1 and threading.active_count() == 1


class Children:
    """The children of one `forked` block: their `pids` and the read ends of
    their pipes (`pipes`, binary files), and once the block is left their
    exit codes (`codes`, negative for the signal that killed a child)."""

    def __init__(self) -> None:
        self.pids: list[int] = []
        self.pipes: list[BinaryIO] = []
        self.codes: list[int] = []

    def kill(self) -> None:
        """SIGKILL every child; one that has exited is still a zombie until
        reaped, so its pid names no other process."""
        for pid in self.pids:
            os.kill(pid, signal.SIGKILL)


@contextlib.contextmanager
def forked(jobs: Iterable[Callable[[BinaryIO], None]], what: str) -> Iterator[Children]:
    """One forked child per job, in order: job(pipe) runs in the child on the
    write end of the child's pipe, and the child exits 0 when it returns, 1
    when it raises.  Yields the `Children`.  On leaving, each pipe is closed
    (a child still writing gets EPIPE) and each child reaped; when the block
    raises, every child is killed first.  A refused fork raises
    `CapacityError` naming `what`, after the children forked before it are
    killed and reaped."""
    children = Children()
    try:
        for job in jobs:
            read, write = os.pipe()
            try:
                pid = os.fork()
            except OSError as exc:  # a process or memory limit
                os.close(read)
                os.close(write)
                raise CapacityError(f"cannot fork a {what} process: {exc}") from exc
            if pid == 0:
                status = 1
                try:
                    os.close(read)
                    with open(write, "wb") as pipe:
                        job(pipe)
                    status = 0
                finally:
                    os._exit(status)
            os.close(write)
            children.pids.append(pid)
            children.pipes.append(open(read, "rb"))
        yield children
    except BaseException:
        children.kill()
        raise
    finally:
        for pid, pipe in zip(children.pids, children.pipes):
            pipe.close()
            children.codes.append(os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1]))
