import errno
import functools
import os
import signal
import sys
import threading
import time

import pytest

from pavelab import forks
from pavelab.errors import CapacityError

from .test_cli import _assert_no_children

pytestmark = pytest.mark.skipif(sys.platform != "linux", reason="splits fork on Linux only")

_PARENT = os.getpid()
_CPUS = [1, 2, 3]


def _call(i, bad=None, act=None):
    """(i, whether this process is the test's own); raises at i == bad, and
    first runs act() when called in a child."""
    if act is not None and os.getpid() != _PARENT:
        act()
    if i == bad:
        raise ValueError(f"call {i}")
    return i, os.getpid() == _PARENT


def _calls(count=7, **kwargs):
    return [functools.partial(_call, i, **kwargs) for i in range(count)]


@pytest.fixture
def at_cpus(monkeypatch):
    """Sets `forks.CPUS`; the list it gives holds the pid of every child
    forked, in order."""
    forked, real_fork = [], os.fork

    def fork():
        pid = real_fork()
        if pid:
            forked.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", fork)

    def at(cpus):
        monkeypatch.setattr(forks, "CPUS", cpus)
        return forked

    yield at
    _assert_no_children()


@pytest.mark.parametrize("cpus", _CPUS)
def test_outcomes_come_back_in_order(at_cpus, cpus):
    """Call i runs in process i mod N, this one at i mod N == 0."""
    forked = at_cpus(cpus)
    assert forks.split(_calls(), "test") == ([(i, i % cpus == 0) for i in range(7)], None)
    assert len(forked) == cpus - 1


@pytest.mark.parametrize("cpus", _CPUS)
@pytest.mark.parametrize("bad", [0, 3, 6])
def test_raise_gives_the_outcomes_before_it(at_cpus, cpus, bad):
    at_cpus(cpus)
    outcomes, error = forks.split(_calls(bad=bad), "test")
    assert outcomes == [(i, i % cpus == 0) for i in range(bad)]
    assert type(error) is ValueError and error.args == (f"call {bad}",)


@pytest.mark.parametrize("cpus", [2, 3])
def test_killed_child_gives_a_memory_error(at_cpus, cpus):
    """Calls 1 .. N - 1, each the first of its child, kill their process:
    the first of them gives the error, naming `what` and the child's pid."""
    forked = at_cpus(cpus)
    outcomes, error = forks.split(_calls(act=lambda: os.kill(os.getpid(), signal.SIGKILL)), "test")
    assert outcomes == [(0, True)] and type(error) is MemoryError
    assert str(error) == f"test process {forked[0]} killed by signal 9 without a result"


@pytest.mark.parametrize("cpus, refused", [(2, 1), (3, 2)])
def test_refused_fork_raises_capacity_error(monkeypatch, cpus, refused):
    """The `refused`-th fork fails: the children forked before it are
    killed and reaped, and no call runs."""
    calls, real_fork = [], os.fork

    def fork():
        calls.append(1)
        if len(calls) == refused:
            raise BlockingIOError(errno.EAGAIN, "Resource temporarily unavailable")
        return real_fork()

    monkeypatch.setattr(forks, "CPUS", cpus)
    monkeypatch.setattr(os, "fork", fork)
    ran = []
    with pytest.raises(CapacityError, match="^cannot fork a test process: "):
        forks.split([functools.partial(ran.append, i) for i in range(7)], "test")
    assert len(calls) == refused and ran == []
    _assert_no_children()


@pytest.mark.parametrize("cpus", _CPUS)
def test_failed_own_first_call_kills_the_children(at_cpus, cpus):
    """No child's outcome is used once call 0 fails, so a child sleeping
    60 s is killed, not awaited, and the error is call 0's own."""
    forked = at_cpus(cpus)
    start = time.perf_counter()
    outcomes, error = forks.split(_calls(bad=0, act=lambda: time.sleep(60)), "test")
    assert time.perf_counter() - start < 30
    assert outcomes == [] and type(error) is ValueError and error.args == ("call 0",)
    assert len(forked) == cpus - 1


def test_processes(monkeypatch):
    monkeypatch.setattr(forks, "CPUS", 3)
    assert [forks.processes(pieces) for pieces in (0, 1, 2, 3, 7)] == [1, 1, 2, 3, 3]
    release = threading.Event()
    other = threading.Thread(target=release.wait)
    other.start()
    try:
        assert forks.processes(7) == 1
    finally:
        release.set()
        other.join(timeout=10)
    assert not other.is_alive() and forks.processes(7) == 3
    monkeypatch.setattr(sys, "platform", "darwin")
    assert forks.processes(7) == 1
