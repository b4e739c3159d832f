"""Property tests: batched period selection == the per-stream oracle.

``select_periods_batch`` replaces the magnitude bank's per-stream
``select_period`` loop with whole-matrix passes; the ROADMAP's lockstep
bottleneck only moves safely if every row of the batched result is
*exactly* what the scalar call would have produced — including NaN
padding, plateau handling, the ``min_depth`` gate, harmonic suppression
and the deepest-then-smallest-lag tie break.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import kernels
from repro.core.distance import amdf_profile
from repro.core.minima import find_local_minima, select_period, select_periods_batch
from repro.kernels import numpy_backend
from repro.traces import noisy_periodic_signal


def oracle_rows(matrix, *, min_lag, min_depth, harmonic_tolerance):
    out = []
    for row in matrix:
        candidate = select_period(
            row,
            min_lag=min_lag,
            min_depth=min_depth,
            harmonic_tolerance=harmonic_tolerance,
        )
        out.append(
            (0, 0.0, 0.0)
            if candidate is None
            else (candidate.lag, candidate.distance, candidate.depth)
        )
    return out


def batch_rows(matrix, **kwargs):
    lags, distances, depths = select_periods_batch(matrix, **kwargs)
    return list(zip(lags.tolist(), distances.tolist(), depths.tolist()))


@st.composite
def profile_matrices(draw):
    streams = draw(st.integers(min_value=1, max_value=6))
    lags = draw(st.integers(min_value=2, max_value=40))
    # Values with repeats (plateaus), zeros and NaN stretches: the shapes
    # that exercise every branch of the minima search.
    value = st.one_of(
        st.just(np.nan),
        st.just(0.0),
        st.integers(min_value=0, max_value=6).map(float),
        st.floats(min_value=0.0, max_value=100.0, allow_nan=False),
    )
    rows = draw(
        st.lists(
            st.lists(value, min_size=lags, max_size=lags),
            min_size=streams,
            max_size=streams,
        )
    )
    return np.array(rows, dtype=float)


ROW_KINDS = ("noisy", "ties", "near_harmonic", "alternating", "sharp")


def fleet_row(kind, lags, rng):
    """One profile row of a given shape; ``rng`` fixes its details."""
    grid = np.arange(lags)
    if kind == "noisy":
        # AMDF of a noisy sine: many shallow minima around the real ones.
        period = int(rng.integers(3, 33))
        t = np.arange(2 * lags)
        signal = np.sin(2 * np.pi * t / period + rng.uniform(0, 2 * np.pi))
        signal += rng.normal(0.0, rng.choice([0.01, 0.05, 0.3]), t.size)
        return amdf_profile(signal, lags - 1)
    if kind == "ties":
        # Dips at multiples of p with quantised values: exact depth ties
        # between fundamentals, harmonics and unrelated minima.
        period = int(rng.integers(2, 13))
        row = rng.integers(3, 6, lags).astype(float)
        dips = grid % period == 0
        row[dips] = rng.integers(0, 2, dips.sum())
    elif kind == "near_harmonic":
        # Dips at p and at k*p +- 1: deep minima that are not multiples.
        period = int(rng.integers(3, 17))
        row = np.full(lags, 5.0) + rng.integers(0, 3, lags) * 0.25
        row[period::period] = rng.choice([0.1, 0.5, 1.0])
        for k in range(2, lags // period + 1):
            near = k * period + int(rng.choice([-1, 1]))
            if near < lags:
                row[near] = rng.choice([0.0, 0.1, 0.5, 1.5])
    elif kind == "alternating":
        # Every other lag a minimum: about lags / 2 candidates.
        row = np.where(grid % 2 == 0, rng.integers(0, 4, lags) * 0.5, 6.0)
    else:
        period = int(rng.integers(2, 30))
        row = np.where(grid % period == 0, 0.1, 3.0)
    row[0] = np.nan
    return row


@st.composite
def fleet_matrices(draw):
    """Fleet-sized matrices mixing rows that the fast paths settle with
    fallback rows from several candidate-count buckets."""
    streams = draw(st.integers(min_value=1, max_value=64))
    lags = draw(st.integers(min_value=8, max_value=128))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return np.array([fleet_row(rng.choice(ROW_KINDS), lags, rng) for _ in range(streams)])


def noisy_fleet(streams=1000, length=128, seed=2024):
    """AMDF profiles of sines with 1% noise and of ``noisy_periodic_signal``."""
    rng = np.random.default_rng(seed)
    rows = []
    for s in range(streams):
        period = int(rng.integers(6, 41))
        if s % 2:
            t = np.arange(length)
            signal = np.sin(2 * np.pi * t / period + rng.uniform(0, 2 * np.pi))
            signal += rng.normal(0.0, 0.01, length)
        else:
            signal = noisy_periodic_signal(
                period, length, noise_std=0.05, seed=int(rng.integers(1 << 31))
            )
        rows.append(amdf_profile(signal))
    return np.array(rows)


class TestBatchEqualsOracle:
    # The kernel_backend fixture only swaps which (stateless) kernel
    # module the batch call dispatches to, so reusing it across
    # hypothesis examples is sound.
    @settings(
        max_examples=300,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(
        matrix=profile_matrices(),
        min_lag=st.integers(min_value=1, max_value=6),
        min_depth=st.floats(min_value=0.0, max_value=1.0),
        tolerance=st.floats(min_value=0.0, max_value=0.5),
    )
    def test_every_row_matches_select_period(
        self, kernel_backend, matrix, min_lag, min_depth, tolerance
    ):
        params = dict(min_lag=min_lag, min_depth=min_depth, harmonic_tolerance=tolerance)
        assert batch_rows(matrix, **params) == oracle_rows(matrix, **params)

    @settings(
        max_examples=60,
        deadline=None,
        derandomize=True,
        suppress_health_check=[
            HealthCheck.function_scoped_fixture,
            HealthCheck.too_slow,
        ],
    )
    @given(
        matrix=fleet_matrices(),
        min_lag=st.integers(min_value=1, max_value=4),
        min_depth=st.sampled_from([0.0, 0.1, 0.25, 0.5]),
        tolerance=st.sampled_from([0.0, 0.05, 0.15, 0.4]),
    )
    def test_fleet_rows_match_select_period(
        self, kernel_backend, matrix, min_lag, min_depth, tolerance
    ):
        params = dict(min_lag=min_lag, min_depth=min_depth, harmonic_tolerance=tolerance)
        assert batch_rows(matrix, **params) == oracle_rows(matrix, **params)

    def test_mixed_bucket_fleet(self, kernel_backend):
        # One matrix whose rows' candidate counts span several
        # power-of-two buckets, up to every even lag from 2 to 126.
        rng = np.random.default_rng(7)
        matrix = np.array(
            [fleet_row(kind, 128, rng) for kind in ROW_KINDS for _ in range(12)]
        )
        counts = [
            sum(c.depth >= 0.25 for c in find_local_minima(row)) for row in matrix
        ]
        assert len({int(np.ceil(np.log2(max(k, 1)))) for k in counts}) >= 4
        assert max(counts) == 63
        expected = oracle_rows(matrix, min_lag=1, min_depth=0.25, harmonic_tolerance=0.15)
        assert batch_rows(matrix) == expected

    def test_tolerance_boundary_is_inclusive(self, kernel_backend):
        # Row mean 4: depths 0.5 at lag 2, 0.75 at lag 4 and 0.625 at lag
        # 7, all exact.  Lag 4 is exactly the tolerance deeper than lag 2,
        # so lag 2 drops it and lag 7 wins; neither fast path settles it.
        row = np.array([np.nan, 5, 2, 5, 1, 5, 5, 1.5, 7.5])
        expected = select_period(row, harmonic_tolerance=0.25)
        assert expected.lag == 7
        assert batch_rows(row[None, :], harmonic_tolerance=0.25) == [(7, 1.5, 0.625)]

    def test_realistic_periodic_profiles(self):
        # A sharp profile with harmonics: minima at 5, 10, 15, ... must
        # resolve to the fundamental in every row.
        lags = np.arange(41, dtype=float)
        profile = np.where(lags % 5 == 0, 0.1, 3.0)
        profile[0] = np.nan
        matrix = np.stack([profile, profile * 2.0, np.full(41, np.nan)])
        selected, _, _ = select_periods_batch(matrix, min_lag=2)
        assert selected.tolist() == [5, 5, 0]

    def test_rejects_non_2d(self):
        with pytest.raises(ValueError):
            select_periods_batch(np.zeros(8))

    def test_empty_lag_axis(self):
        lags, distances, depths = select_periods_batch(np.empty((3, 0)))
        assert lags.tolist() == [0, 0, 0]
        assert distances.tolist() == [0.0, 0.0, 0.0]
        assert depths.tolist() == [0.0, 0.0, 0.0]


class TestNoPerRowFallback:
    """The NumPy backend resolves every row of a noisy fleet in whole-block
    passes: the per-row scalar helper is never called."""

    def test_noisy_fleet_never_calls_best_candidate_index(self, monkeypatch):
        matrix = noisy_fleet()
        expected = oracle_rows(matrix, min_lag=1, min_depth=0.25, harmonic_tolerance=0.15)

        def per_row(*args, **kwargs):
            raise AssertionError("batched selection fell back to per-row Python")

        resolved = []
        block_resolver = numpy_backend._resolve_harmonics

        def spy(qualifies, depths, tolerance):
            resolved.append(qualifies.shape[0])
            return block_resolver(qualifies, depths, tolerance)

        monkeypatch.setattr(numpy_backend, "best_candidate_index", per_row)
        monkeypatch.setattr(numpy_backend, "harmonic_kept_mask", per_row)
        monkeypatch.setattr(numpy_backend, "_resolve_harmonics", spy)
        previous = kernels.set_backend("numpy")
        try:
            got = batch_rows(matrix)
        finally:
            kernels.set_backend(previous)
        assert got == expected
        # Not vacuous: the fast paths leave a third of this fleet over.
        assert sum(resolved) >= 250
