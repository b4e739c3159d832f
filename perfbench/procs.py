"""CPU time and resident memory of the processes under test, from /proc."""

from __future__ import annotations

import ctypes
import os
import signal
import time

_TICKS = os.sysconf("SC_CLK_TCK")
_PAGE = os.sysconf("SC_PAGE_SIZE")


def cpu_seconds(pid: int) -> float:
    """User plus system CPU time of ``pid`` so far."""
    with open(f"/proc/{pid}/stat") as fh:
        fields = fh.read().rsplit(")", 1)[1].split()
    # fields[0] is the state (field 3 of stat); utime/stime are 14 and 15.
    return (int(fields[11]) + int(fields[12])) / _TICKS


def rss_bytes(pid: int) -> int:
    with open(f"/proc/{pid}/statm") as fh:
        return int(fh.read().split()[1]) * _PAGE


def children(pid: int) -> list[int]:
    """Live direct children of ``pid`` (scans /proc for the parent pid)."""
    out = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as fh:
                fields = fh.read().rsplit(")", 1)[1].split()
        except OSError:
            continue
        if int(fields[1]) == pid:
            out.append(int(entry))
    return sorted(out)


_PR_SET_CHILD_SUBREAPER = 36


def become_subreaper() -> None:
    """Make this process the parent of every orphaned descendant (Linux).

    A process the benchmark starts can start its own (the resource
    tracker ``multiprocessing`` spawns for shared memory, say) and exit
    before it; the orphan is re-parented here instead of to init, so
    :func:`reap_children` can wait for it.
    """
    libc = ctypes.CDLL(None, use_errno=True)
    if libc.prctl(_PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0) != 0:
        raise OSError(ctypes.get_errno(), "prctl(PR_SET_CHILD_SUBREAPER) failed")


def stop_resource_tracker() -> None:
    """Stop this process's ``multiprocessing`` resource tracker, if it
    started one, and wait for it: it otherwise outlives the process."""
    from multiprocessing import resource_tracker

    resource_tracker._resource_tracker._stop()


def reap_children(grace: float = 10.0) -> int:
    """Wait for every child of this process to end; kill those still
    running after ``grace`` seconds.  Returns how many there were."""
    deadline = time.perf_counter() + grace
    reaped: set[int] = set()
    while time.perf_counter() < deadline + 5.0:
        left = children(os.getpid())
        if not left:
            break
        for pid in left:
            reaped.add(pid)
            if time.perf_counter() >= deadline:
                try:
                    os.kill(pid, signal.SIGKILL)
                except ProcessLookupError:
                    pass
            try:
                os.waitpid(pid, 0 if time.perf_counter() >= deadline else os.WNOHANG)
            except ChildProcessError:
                pass
        time.sleep(0.05)
    return len(reaped)


class ResourceSampler:
    """CPU and peak RSS of a fixed set of processes over a timed region.

    ``start`` and ``stop`` read every process's CPU time, so the CPU figure
    is exact.  Resident memory is sampled: call :meth:`sample` from the
    driving loop (it reads /proc at most every ``interval`` seconds), and
    the peak of each process's samples is kept.  ``exclude_bytes`` is
    subtracted from the driving process's figure: the generated inputs it
    holds are not part of the system under test.
    """

    def __init__(self, pids: list[int], *, exclude_bytes: int = 0, interval: float = 0.05):
        self.pids = list(pids)
        self.exclude_bytes = exclude_bytes
        self.interval = interval
        self._next = 0.0
        self._cpu0: dict[int, float] = {}
        self.cpu_by_pid: dict[int, float] = {}
        self.peak: dict[int, int] = {}

    def start(self) -> None:
        self._cpu0 = {pid: cpu_seconds(pid) for pid in self.pids}
        self._next = 0.0
        self.sample()

    def sample(self) -> None:
        now = time.perf_counter()
        if now < self._next:
            return
        self._next = now + self.interval
        for pid in self.pids:
            try:
                rss = rss_bytes(pid)
            except OSError:
                continue
            if rss > self.peak.get(pid, 0):
                self.peak[pid] = rss

    def stop(self) -> None:
        self._next = 0.0
        self.sample()
        self.cpu_by_pid = {pid: cpu_seconds(pid) - self._cpu0[pid] for pid in self.pids}

    @property
    def rss_peak_mb(self) -> float:
        total = sum(self.peak.values()) - self.exclude_bytes
        return total / (1 << 20)
