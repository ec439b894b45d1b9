"""Forked child processes, one pipe each: the one process layer of the package.

`processes` sizes every split and `split` runs one: `verify` splits its
suite instances, `pave` its paving trials, `gen` its write and its printed
norm, and `fileio.read_matrix` a large file's rows (through `forked`).  No
package code starts a thread.  A child runs one job on the write end of its
own pipe and leaves by `os._exit` on every path, so it never flushes the
buffers or runs the exit handlers it inherited.  On leaving a `forked`
block every child is reaped, and killed first when the block raises.
"""
from __future__ import annotations

import contextlib
import os
import pickle
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


def processes(pieces: int) -> int:
    """The processes to split `pieces` pieces of work over, this one among
    them: one per CPU (`CPUS`), at most one per piece, and 1 where
    `may_fork` refuses."""
    procs = min(CPUS, pieces)
    return procs if may_fork(procs) else 1


class Children:
    """The children of one `forked` block: their `pids` and the read ends of
    their pipes (`pipes`, binary files), and once the block is left their
    exit codes (`codes`, negative for the signal that killed a child)."""

    def __init__(self) -> None:
        self.pids: list[int] = []
        self.pipes: list[BinaryIO] = []
        self.codes: list[int] = []


@contextlib.contextmanager
def forked(jobs: Iterable[Callable[[BinaryIO], None]], what: str) -> Iterator[Children]:
    """One forked child per job, in order: job(pipe) runs in the child on the
    write end of the child's pipe, and the child exits 0 when it returns, 1
    when it raises.  Yields the `Children`.  On leaving, each pipe is closed
    (a child still writing gets EPIPE) and each child reaped; when the block
    raises, every child is SIGKILLed first (one that has exited is a zombie
    until reaped, so its pid names no other process).  A refused fork raises
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
        for pid in children.pids:
            os.kill(pid, signal.SIGKILL)
        raise
    finally:
        for pid, pipe in zip(children.pids, children.pipes):
            pipe.close()
            children.codes.append(os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1]))


def _run(calls):
    """(outcomes of the calls in order, up to the first that raises; that
    exception, or None)."""
    outcomes = []
    try:
        for call in calls:
            outcomes.append(call())
    except Exception as exc:  # re-raised by the caller, after the outcomes before it
        return outcomes, exc
    return outcomes, None


def split(calls, what: str):
    """_run(calls), with call i run by process i mod N: this one and N - 1
    forked children, N = `processes(len(calls))`, each on its calling
    thread.  Each child pickles its outcomes down its pipe; one that dies
    without them gives a MemoryError naming the `what` process and its pid.
    When call 0 raises, no child's outcome can be used, so the children are
    killed, not awaited."""
    procs = processes(len(calls))
    if procs == 1:
        return _run(calls)
    jobs = [lambda pipe, share=calls[w::procs]: pipe.write(pickle.dumps(_run(share)))
            for w in range(1, procs)]
    own = ([], None)
    try:
        with forked(jobs, what) as children:
            own = _run(calls[::procs])
            if not own[0] and own[1] is not None:
                raise own[1]  # call 0 failed: no child's outcome is needed
            payloads = [pipe.read() for pipe in children.pipes]
    except Exception as exc:
        if exc is not own[1]:
            raise
        return own
    shares = [own]
    for pid, payload, code in zip(children.pids, payloads, children.codes):
        if code == 0:
            shares.append(pickle.loads(payload))
        else:
            how = f"killed by signal {-code}" if code < 0 else f"exited {code}"
            shares.append(([], MemoryError(f"{what} process {pid} {how} without a result")))
    outcomes = []
    for i in range(len(calls)):
        done, error = shares[i % procs]
        if i // procs == len(done):
            return outcomes, error
        outcomes.append(done[i // procs])
    return outcomes, None
