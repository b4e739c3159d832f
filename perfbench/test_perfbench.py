"""Tests of the benchmark's own machinery (not of the program it measures)."""

from __future__ import annotations

import asyncio
import os
import subprocess
import sys
import textwrap
import types

import numpy as np
import pytest

from perfbench import metrics, speed, stats, tracing, workloads


@pytest.mark.parametrize(
    "generate",
    [
        lambda seed: workloads.noisy_lockstep(seed, streams=40, length=256),
        lambda seed: workloads.wire_small_frames(seed, length=256),
        lambda seed: workloads.routed_events(seed, streams=8, length=256),
        lambda seed: workloads.sharded_traces(seed, streams=8, length=256),
    ],
)
def test_generator_is_deterministic_per_seed(generate):
    first, again, other = generate(3), generate(3), generate(4)
    assert first.truth == again.truth
    assert first.ids == again.ids
    for sid in first.ids:
        assert np.array_equal(first.streams[sid], again.streams[sid])
    assert any(
        not np.array_equal(first.streams[sid], other.streams[sid]) for sid in first.ids
    )
    lengths = {arr.size for arr in first.streams.values()}
    assert lengths == {256}


def test_chunk_plan_covers_every_stream_exactly():
    plan = workloads.chunk_plan(5, 6, 300, 8, 64)
    assert np.all(plan.sum(axis=0) == 300)
    assert plan.max() <= 64
    assert np.array_equal(plan, workloads.chunk_plan(5, 6, 300, 8, 64))


def test_tail_keeps_ten_samples_beyond():
    values = np.arange(1, 101, dtype=float)  # 1..100
    # p95 leaves 5 samples beyond; p90 leaves 10.
    assert stats.tail(values) == (90.0, 90.0, 100)
    # 200 samples: p95 leaves exactly 10; the ladder stops there.
    assert stats.tail(np.arange(1, 201, dtype=float)) == (95.0, 190.0, 200)
    assert stats.tail(np.arange(1, 1001, dtype=float)) == (95.0, 950.0, 1000)
    # 20 samples: only the median leaves ten beyond it.
    assert stats.tail(np.arange(20, dtype=float))[0] == 50.0
    # Fewer than 20: no ladder percentile qualifies; the maximum is reported.
    assert stats.tail(np.arange(19, dtype=float)) == (100.0, 18.0, 19)
    for n in (20, 57, 200, 1234, 20000):
        pct, value, count = stats.tail(np.random.default_rng(n).random(n))
        assert count == n
        assert np.sum(np.random.default_rng(n).random(n) > value) >= stats.MIN_BEYOND


def test_grid_median_interpolates_within_the_step():
    # Plain median 49 for both; the grouped one sees the shift toward 57.
    assert stats.grid_median([41, 49, 49, 49, 57]) == pytest.approx(49.0)
    assert stats.grid_median([41, 49, 49, 57, 57]) == pytest.approx(51.0)
    assert stats.grid_median([12, 12, 12]) == pytest.approx(12.0)


def test_stolen_share_scales_wall_clock_times_only():
    probe = speed.SpeedProbe(interval=1.0)
    probe.times = [0.0, 1.0, 2.0]
    probe.costs = [speed.NOMINAL_S] * 3
    # (stolen, runnable) ticks: 25 of 100 runnable ticks stolen per second.
    probe.ticks = [(0, 0), (25, 100), (50, 200)]
    assert probe.stolen_share([0.5, 1.5]).tolist() == pytest.approx([0.25, 0.25])
    assert probe.factors([1.0]).tolist() == pytest.approx([1.0])
    assert probe.wall_factors([1.0]).tolist() == pytest.approx([0.75])


def _spans(rows):
    return np.array(rows, dtype=tracing.SPAN_DTYPE)


def test_self_time_subtracts_union_of_children():
    spans = _spans(
        [
            # id, name, start, end, parent, request, work
            (0, 0, 0.0, 10.0, -1, -1, 0),
            (1, 1, 1.0, 3.0, 0, -1, 0),
            (2, 1, 2.0, 5.0, 0, -1, 0),  # overlaps span 1
            (3, 2, 1.5, 2.0, 1, -1, 0),
            (4, 1, 9.0, 12.0, 0, -1, 0),  # runs past its parent: clipped
        ]
    )
    own = tracing.self_times(spans)
    assert own.tolist() == pytest.approx([10.0 - 4.0 - 1.0, 1.5, 3.0, 0.5, 3.0])


def test_wrappers_record_nesting_counts_and_requests(tmp_path):
    def leaf(x):
        return x * 2

    async def fetch(x):
        await asyncio.sleep(0)
        return mod.leaf(x)

    def outer(x):
        return mod.leaf(x) + 1

    mod = types.SimpleNamespace(leaf=leaf, fetch=fetch, outer=outer)
    tracer = tracing.Tracer()
    tracer.wrap(mod, "leaf", "t.leaf", lambda a, k, r: r)
    tracer.wrap(mod, "outer", "t.outer")
    tracer.wrap(mod, "fetch", "t.fetch")
    assert mod.outer(3) == 7  # disabled: nothing recorded
    assert tracer.rows == []
    tracer.enabled = True
    token = tracing.REQUEST.set(42)
    try:
        assert mod.outer(3) == 7
        assert asyncio.run(mod.fetch(5)) == 10
    finally:
        tracing.REQUEST.reset(token)
    path = tracer.dump(str(tmp_path), "test")
    tracer.uninstall()
    assert mod.leaf is leaf
    summary = tracing.summarize([path], driver_pid=os.getpid(), window=(0.0, 1e12))
    layers = summary["layers"]
    assert layers["t.leaf"]["calls"] == 2
    assert layers["t.leaf"]["work"] == 6 + 10
    assert layers["t.outer"]["calls"] == 1
    rows = {tracer.names[r[1]]: r for r in tracer.rows if tracer.names[r[1]] != "t.leaf"}
    leaves = [r for r in tracer.rows if tracer.names[r[1]] == "t.leaf"]
    assert {r[4] for r in leaves} == {rows["t.outer"][0], rows["t.fetch"][0]}
    assert all(r[5] == 42 for r in tracer.rows)
    assert layers["t.outer"]["self_s"] <= layers["t.outer"]["total_s"]


def test_metric_names():
    bench = metrics.BENCHMARK
    names = [m["name"] for m in bench["end_to_end"] + bench["per_layer"]]
    names += [w["name"] for w in bench["workloads"]]
    assert len(names) == len(set(names))
    for name in names:
        assert metrics.NAME.match(name), name


def test_every_layer_metric_has_a_prediction_and_a_value():
    assert sorted(metrics.MOVES) == sorted(metrics.PER_LAYER)
    values = metrics.per_layer({"layers": {}, "coverage": 1.0, "overhead_ratio": 1.0}, {})
    assert list(values) == metrics.PER_LAYER


def test_run_waits_for_orphans_and_the_resource_tracker():
    # In a child interpreter: becoming a subreaper changes the process.
    script = textwrap.dedent(
        """
        import os, subprocess
        from multiprocessing import shared_memory
        from perfbench import procs

        procs.become_subreaper()
        shm = shared_memory.SharedMemory(create=True, size=64)  # starts the tracker
        shm.close()
        shm.unlink()
        subprocess.run(["sh", "-c", "sleep 0.3 & exit 0"], check=True)
        assert len(procs.children(os.getpid())) == 2  # the tracker and the orphan
        procs.stop_resource_tracker()
        assert procs.reap_children(grace=5.0) == 1
        assert procs.children(os.getpid()) == []
        """
    )
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    subprocess.run([sys.executable, "-c", script], cwd=root, check=True, timeout=60)
