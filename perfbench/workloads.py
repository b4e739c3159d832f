"""Seeded input generators for the four benchmark workloads.

Every input comes from :mod:`repro.traces` and a NumPy generator seeded
with ``--seed``; nothing is downloaded.  Each generator returns the
per-stream inputs together with each stream's ground-truth period and
kind, so that lock fractions can be reported per kind.

Where the levels come from.  Two are measured rows of the ROADMAP's
Scaling section (1000 lockstep streams, window 128): sine plus 1%
Gaussian noise and ``noisy_periodic_signal(noise_std=0.05)``.  The NAS-FT
base trace is the model that reproduces the paper's Figures 3 and 4 (its
own 0.6-CPU per-sample jitter).  Every other level and share below --
the extra ``perturb_trace`` noise and drift on FT and counter traces,
the counter noise, the event jitter and drops, the 40/30/15/15 mix of
noisy-lockstep and the 1/4 FT share of sharded-trace-models -- has no
measurement behind it: it is this benchmark's choice, fixed once.  None
is tuned to make every stream lock: a stream that the detector cannot
settle counts against ``lock_fraction`` as it is.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from perfbench.configs import EVENT_WINDOW
from repro.traces import (
    CounterPhase,
    all_spec_models,
    drop_samples,
    generate_ft_cpu_trace,
    hardware_counter_trace,
    jitter_period,
    noisy_periodic_signal,
    perturb_trace,
    periodic_signal,
)


#: Sine plus this much Gaussian noise (relative to the unit amplitude);
#: ROADMAP, Scaling.
SINE_NOISE = 0.01
#: ``noisy_periodic_signal`` noise; ROADMAP, Scaling.
NOISY_SIGNAL_STD = 0.05
#: Unsourced from here on (see the module docstring).
#: ``perturb_trace`` noise (in CPUs) and drift applied to NAS-FT traces.
FT_NOISE = 0.25
FT_DRIFT = 1.0
#: Relative counter noise, plus perturbation noise and drift as a share
#: of the mean counter rate, for hardware-counter traces.
HW_RELATIVE_NOISE = 0.02
HW_PERTURB_NOISE = 0.01
HW_DRIFT = 0.05
#: Per-event drop probability of the event streams, and the share of
#: two-iteration runs that ``jitter_period`` stretches or shrinks between
#: runs of ``EVENT_EXACT_RUN`` exact iterations.
EVENT_DROP = 0.002
EVENT_JITTER_SHARE = 0.1
EVENT_EXACT_RUN = 8
#: SPEC models whose loop body fits the event window.
SPEC_EVENT_MODELS = ("apsi", "swim", "tomcatv", "turb3d")

#: Ground-truth periods are drawn from these sets so that every seed sees
#: the same spread of periods; the seed permutes them over the streams.
MAGNITUDE_PERIODS = np.arange(6, 41)
WIRE_PERIODS = np.arange(4, 36, 2)


@dataclass
class Workload:
    """Generated inputs: one array per stream plus its true period and
    the kind of signal it is."""

    name: str
    streams: dict[str, np.ndarray] = field(default_factory=dict)
    truth: dict[str, int] = field(default_factory=dict)
    kinds: dict[str, str] = field(default_factory=dict)

    @property
    def ids(self) -> list[str]:
        return list(self.streams)

    @property
    def nbytes(self) -> int:
        return sum(arr.nbytes for arr in self.streams.values())


def _periods(rng: np.random.Generator, choices: np.ndarray, count: int) -> np.ndarray:
    reps = -(-count // choices.size)
    return rng.permutation(np.tile(choices, reps))[:count]


def _sine(period: int, length: int, rng: np.random.Generator) -> np.ndarray:
    phase = rng.uniform(0.0, 2.0 * np.pi)
    t = np.arange(length)
    return np.sin(2.0 * np.pi * t / period + phase) + rng.normal(0.0, SINE_NOISE, length)


def _ft(length: int, rng: np.random.Generator) -> tuple[np.ndarray, int]:
    base = generate_ft_cpu_trace(
        iterations=length // 44 + 2, seed=int(rng.integers(1 << 31))
    )
    trace = perturb_trace(
        base, noise_std=FT_NOISE, drift=FT_DRIFT, seed=int(rng.integers(1 << 31))
    )
    return np.asarray(trace.values[:length], dtype=np.float64), 44


def _hw(period: int, length: int, rng: np.random.Generator) -> np.ndarray:
    """Counter deltas of an iteration of ``period`` samples cut into two to
    four phases of random length and rate."""
    cuts = rng.choice(np.arange(1, period), size=int(rng.integers(1, 4)), replace=False)
    bounds = [0, *sorted(int(c) for c in cuts), period]
    phases = [
        CounterPhase(
            duration=hi - lo,
            instructions_per_sample=float(rng.uniform(1e5, 1e6)),
        )
        for lo, hi in zip(bounds, bounds[1:])
    ]
    base = hardware_counter_trace(
        phases,
        length // period + 1,
        relative_noise=HW_RELATIVE_NOISE,
        seed=int(rng.integers(1 << 31)),
    )
    mean = float(np.mean(base.values))
    trace = perturb_trace(
        base,
        noise_std=HW_PERTURB_NOISE * mean,
        drift=HW_DRIFT * mean,
        seed=int(rng.integers(1 << 31)),
    )
    return np.asarray(trace.values[:length], dtype=np.float64)


def noisy_lockstep(seed: int, streams: int = 1000, length: int = 512) -> Workload:
    """Sine plus noise, noisy periodic signals and trace models, mixed.

    Shares are fixed (40% sine, 30% ``noisy_periodic_signal``, 15% NAS-FT,
    15% hardware counters); the seed picks periods, phases and noise.
    """
    rng = np.random.default_rng([seed, 1])
    kinds = ["sine"] * (streams * 40 // 100) + ["noisy"] * (streams * 30 // 100)
    kinds += ["ft"] * (streams * 15 // 100)
    kinds += ["hw"] * (streams - len(kinds))
    kinds = list(rng.permutation(kinds))
    periods = _periods(rng, MAGNITUDE_PERIODS, streams)
    work = Workload("noisy-lockstep")
    for i, kind in enumerate(kinds):
        sid = f"s{i:04d}"
        period = int(periods[i])
        if kind == "sine":
            values = _sine(period, length, rng)
        elif kind == "noisy":
            values = noisy_periodic_signal(
                period, length, noise_std=NOISY_SIGNAL_STD, seed=rng
            )
        elif kind == "ft":
            values, period = _ft(length, rng)
        else:
            values = _hw(period, length, rng)
        work.streams[sid] = np.ascontiguousarray(values, dtype=np.float64)
        work.truth[sid] = period
        work.kinds[sid] = kind
    return work


def wire_small_frames(seed: int, streams: int = 16, length: int = 4096) -> Workload:
    """Clean ``periodic_signal`` streams (the fast path's home ground)."""
    rng = np.random.default_rng([seed, 2])
    periods = _periods(rng, WIRE_PERIODS, streams)
    work = Workload("wire-small-frames")
    for i in range(streams):
        sid = f"w{i:02d}"
        work.streams[sid] = periodic_signal(int(periods[i]), length, seed=rng)
        work.truth[sid] = int(periods[i])
        work.kinds[sid] = "clean"
    return work


def routed_events(seed: int, streams: int = 128, length: int = 4096) -> Workload:
    """SPEC address streams with occasional jittered iterations and drops.

    Each stream takes the loop body of one single-level SPEC model (or
    turb3d's inner loop, the one nested pattern that fits the event
    window) and shifts its addresses so that streams differ.  Runs of
    exact iterations alternate with short runs stretched or shrunk by up
    to one event (``jitter_period``); events are then dropped at random.
    All streams are cut to ``length`` so they can travel as lockstep frames.
    """
    rng = np.random.default_rng([seed, 3])
    models = [m for m in all_spec_models() if m.name in SPEC_EVENT_MODELS]
    # Every seed gets the same number of streams of each model (their event
    # rates differ); the seed only decides which stream gets which.
    order = rng.permutation(np.arange(streams) % len(models))
    work = Workload("routed-durable-events")
    for i in range(streams):
        sid = f"e{i:02d}"
        model = models[int(order[i])]
        period = max(p for p in model.expected_periods if 2 * p < EVENT_WINDOW)
        pattern = (model.outer_pattern[:period] + 1_000_000 * (i + 1)).astype(np.float64)
        pieces: list[np.ndarray] = []
        total = 0
        while total < 1.1 * length + EVENT_WINDOW:  # room for the drops
            if rng.random() < EVENT_JITTER_SHARE:
                piece = jitter_period(
                    pattern, 2, max_shift=1, seed=int(rng.integers(1 << 31))
                )
            else:
                piece = np.tile(pattern, EVENT_EXACT_RUN)
            pieces.append(piece)
            total += piece.size
        values = drop_samples(
            np.concatenate(pieces), EVENT_DROP, seed=int(rng.integers(1 << 31))
        )
        work.streams[sid] = np.round(values[:length]).astype(np.int64)
        work.truth[sid] = int(period)
        work.kinds[sid] = model.name
    return work


def sharded_traces(seed: int, streams: int = 256, length: int = 512) -> Workload:
    """NAS-FT (a quarter) and hardware-counter trace models, perturbed."""
    rng = np.random.default_rng([seed, 4])
    periods = _periods(rng, MAGNITUDE_PERIODS, streams)
    work = Workload("sharded-trace-models")
    for i in range(streams):
        sid = f"t{i:03d}"
        if i % 4 == 0:
            values, period = _ft(length, rng)
        else:
            period = int(periods[i])
            values = _hw(period, length, rng)
        work.streams[sid] = np.ascontiguousarray(values, dtype=np.float64)
        work.truth[sid] = period
        work.kinds[sid] = "ft" if i % 4 == 0 else "hw"
    return work


def chunk_plan(seed: int, streams: int, length: int, low: int, high: int) -> np.ndarray:
    """Unequal per-stream chunk lengths: ``plan[c, s]`` samples of stream
    ``s`` go in call ``c``; each column sums to ``length``."""
    rng = np.random.default_rng([seed, 5])
    columns = []
    for _ in range(streams):
        sizes = []
        left = length
        while left > 0:
            size = min(int(rng.integers(low, high + 1)), left)
            sizes.append(size)
            left -= size
        columns.append(sizes)
    calls = max(len(c) for c in columns)
    plan = np.zeros((calls, streams), dtype=np.int64)
    for s, sizes in enumerate(columns):
        plan[: len(sizes), s] = sizes
    return plan
