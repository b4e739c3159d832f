"""Same-run machine-speed reference for the time metrics.

The host under this benchmark changes speed by up to 1.8x within seconds:
a fixed pure-Python loop takes anywhere from ~30 to ~50 ms, in CPU time as
well as in wall time, so the slowdown is the processor itself and not the
scheduler, and each of the two virtual CPUs switches on its own.
Ten-second windows of an unchanged workload then spread by ~20% between
their quartiles, more than any useful regression bound.

The benchmark therefore runs a small fixed reference computation between
requests and reports every time metric at a nominal machine speed: a time
measured while the reference took ``cost`` seconds of CPU is multiplied by
``NOMINAL_S / cost``.  On ten-second windows of the noisy-lockstep loop
this cut the spread from ~16% to ~1%.  The reference is benchmark code,
so a change to the program cannot move it.

The host also takes whole stretches of time away from the virtual CPUs
(steal: 1% of their busy time in one hour, 13-16% in the next).  CPU
times do not see it, but every wall-clock figure does, and a reference
timed in CPU time cannot: ten runs of the sharded workload then spread
by 0.17-0.19 in throughput, by 0.03-0.07 in CPU per sample.  Wall
clock times are therefore also multiplied by the share of the probed
CPUs' runnable time the host did not steal, read from /proc/stat.
"""

from __future__ import annotations

import os
import time

import numpy as np

#: CPU seconds the reference computation takes at the nominal speed.
NOMINAL_S = 1.2e-3
#: Neighbouring reference runs whose median gives one speed reading.
_SMOOTH = 5
#: Neighbouring readings whose /proc/stat differences give one steal share.
_STEAL_WINDOW = 9

_DATA = np.arange(20_000, dtype=np.float64)


def reference() -> float:
    """CPU seconds of one run of the fixed reference computation (a
    Python loop plus a few NumPy passes, like the program's own mix)."""
    start = time.thread_time()
    total = 0
    for i in range(20_000):
        total += i
    (_DATA * 1.0001).sum()
    np.sort(_DATA[::-1])
    return time.thread_time() - start


def cpu_ticks(cpus) -> tuple[int, int]:
    """Clock ticks of ``cpus`` so far, from /proc/stat: (stolen by the
    host, wanted to run: user, nice, system, irq, softirq and steal)."""
    stolen = runnable = 0
    with open("/proc/stat") as fh:
        for line in fh:
            name, *fields = line.split()
            if name[:3] == "cpu" and name[3:].isdigit() and int(name[3:]) in cpus:
                user, nice, system, _idle, _iowait, irq, softirq, steal = map(int, fields[:8])
                stolen += steal
                runnable += user + nice + system + irq + softirq + steal
    return stolen, runnable


class SpeedProbe:
    """Reference runs spread over a measurement, and the scale factor they
    give for any moment of it.

    With ``every_cpu`` each reading runs the reference once pinned to each
    CPU this process may use and takes the mean: the two virtual CPUs of
    this host do not always run at the same speed, and a workload whose
    processes use both is slowed by both.
    """

    def __init__(self, interval: float, every_cpu: bool = False) -> None:
        self.interval = interval
        self.every_cpu = every_cpu
        self.times: list[float] = []
        self.costs: list[float] = []
        self.ticks: list[tuple[int, int]] = []  # cpu_ticks() at each reading
        self.spent = 0.0  # CPU seconds the readings took, in this process
        self._next = 0.0

    def tick(self, force: bool = False) -> None:
        """Run the reference if ``interval`` seconds passed since the last."""
        now = time.perf_counter()
        if not force and now < self._next:
            return
        self._next = now + self.interval
        allowed = os.sched_getaffinity(0)
        self.ticks.append(cpu_ticks(allowed))
        if self.every_cpu:
            costs = []
            try:
                for cpu in sorted(allowed):
                    os.sched_setaffinity(0, {cpu})
                    costs.append(reference())
            finally:
                os.sched_setaffinity(0, allowed)
        else:
            costs = [reference()]
        self.spent += sum(costs)
        self.costs.append(sum(costs) / len(costs))
        self.times.append(now)

    def factors(self, at) -> np.ndarray:
        """``NOMINAL_S / cost`` at each time in ``at``, interpolated between
        smoothed reference readings."""
        if not self.costs:
            raise RuntimeError("no reference readings were taken")
        costs = np.asarray(self.costs)
        half = _SMOOTH // 2
        smooth = np.array(
            [np.median(costs[max(0, i - half) : i + half + 1]) for i in range(costs.size)]
        )
        return NOMINAL_S / np.interp(np.asarray(at, dtype=np.float64), self.times, smooth)

    def stolen_share(self, at) -> np.ndarray:
        """Share of the time the probed CPUs wanted to run that the host
        took away, at each time in ``at`` (over ``_STEAL_WINDOW`` readings)."""
        ticks = np.asarray(self.ticks, dtype=np.float64)
        index = np.arange(len(ticks))
        lo = np.maximum(index - _STEAL_WINDOW // 2, 0)
        hi = np.minimum(index + _STEAL_WINDOW // 2, len(ticks) - 1)
        stolen = ticks[hi, 0] - ticks[lo, 0]
        runnable = ticks[hi, 1] - ticks[lo, 1]
        share = np.divide(stolen, runnable, out=np.zeros(len(ticks)), where=runnable > 0)
        return np.interp(np.asarray(at, dtype=np.float64), self.times, share)

    def wall_factors(self, at) -> np.ndarray:
        """Scale factors for wall-clock times: :meth:`factors` times the
        share of the time the host left to the probed CPUs.  CPU times
        need no such term: stolen time is not charged to any process."""
        return self.factors(at) * (1.0 - self.stolen_share(at))

    def mean_factor(self, start: float, end: float) -> float:
        """Mean scale factor over ``[start, end]``."""
        return float(np.mean(self.factors(np.linspace(start, end, 64))))
