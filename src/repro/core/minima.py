"""Local-minimum search on d(m) profiles and harmonic filtering.

The period reported by the DPD is the lag at which the distance profile
``d(m)`` has a (deep) local minimum (Figure 4 of the paper).  Two practical
complications are handled here:

* **Harmonics.**  When the window is several times longer than the true
  period ``p``, ``d(m)`` is (near) zero at every multiple of ``p``.  The
  detector must report the fundamental, not one of its multiples.
* **Shallow minima.**  Real traces (e.g. CPU-usage samples) never repeat
  exactly; a minimum only indicates a period when it is deep relative to
  the overall level of the profile.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro import kernels
from repro.kernels.numpy_backend import (
    best_candidate_index as _best_candidate_index,
    harmonic_kept_mask as _harmonic_kept_mask,
)
from repro.util.validation import check_positive

__all__ = [
    "PeriodCandidate",
    "find_local_minima",
    "select_period",
    "select_periods_batch",
    "filter_harmonics",
]


@dataclass(frozen=True)
class PeriodCandidate:
    """One candidate period extracted from a distance profile.

    Attributes
    ----------
    lag:
        The candidate period ``m``.
    distance:
        ``d(m)`` at the candidate lag.
    depth:
        Relative depth of the minimum: ``1 - d(m) / mean(d)``.  1.0 means a
        perfect (zero-distance) match; values near 0 mean the minimum is
        barely below the profile average.
    """

    lag: int
    distance: float
    depth: float

    def __post_init__(self) -> None:
        if self.lag <= 0:
            raise ValueError("lag must be positive")


def _check_min_lag(min_lag: int) -> None:
    # Lag 0 is the no-candidate marker of the batched result, and
    # PeriodCandidate rejects non-positive lags: refuse it up front, the
    # same way on every entry point.
    if min_lag < 1:
        raise ValueError(f"min_lag must be >= 1, got {min_lag}")


def _minima_arrays(
    profile: np.ndarray, min_lag: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Vectorised local-minimum search; returns (lags, distances, depths).

    This runs on the per-sample hot path of the magnitude detector, so no
    Python loop over lags is allowed and no candidate objects are built.
    """
    profile = np.asarray(profile, dtype=float)
    n = profile.size
    empty = (np.empty(0, dtype=np.int64), np.empty(0), np.empty(0))
    finite_mask = np.isfinite(profile)
    if not np.any(finite_mask):
        return empty
    # Padded sum over the full profile (zeros at non-finite lags), not a
    # compacted fancy-indexed mean: this is the exact computation the
    # batched 2-D search runs per row, so single-profile and batched
    # selection stay bit-for-bit identical.
    mean = float(np.where(finite_mask, profile, 0.0).sum() / finite_mask.sum())
    eligible = finite_mask.copy()
    eligible[: min(max(min_lag, 0), n)] = False
    if not np.any(eligible):
        return empty
    values = profile
    # Neighbour values, with +inf standing in for neighbours outside the
    # eligible lag set (so endpoints qualify when below their one
    # neighbour).
    left = np.full(n, np.inf)
    left[1:] = np.where(eligible[:-1], values[:-1], np.inf)
    right = np.full(n, np.inf)
    right[:-1] = np.where(eligible[1:], values[1:], np.inf)
    with np.errstate(invalid="ignore"):
        is_min = eligible & (values <= left) & (values <= right)
        # Plateau handling: skip a lag when the previous lag had the same
        # value and was itself a minimum (keep only the first of a
        # plateau).
        plateau = np.zeros(n, dtype=bool)
        plateau[1:] = eligible[:-1] & (values[:-1] == values[1:]) & (
            left[1:] <= right[1:]
        )
    is_min &= ~plateau
    lags = np.nonzero(is_min)[0]
    if lags.size == 0:
        return empty
    found = values[lags]
    if mean > 0:
        depths = 1.0 - found / mean
    else:
        depths = np.where(found == 0, 1.0, 0.0)
    return lags, found, depths


def find_local_minima(profile: np.ndarray, *, min_lag: int = 1) -> list[PeriodCandidate]:
    """Return every local minimum of ``profile`` as a candidate period.

    ``profile[m]`` must contain ``d(m)``; non-finite entries are ignored.
    A point is a local minimum when it is not larger than both neighbours
    (plateaus report their first point).  Endpoints qualify when they are
    below their single neighbour, so that a monotonically decreasing
    profile still yields its final lag as a candidate.
    """
    _check_min_lag(min_lag)
    lags, found, depths = _minima_arrays(profile, min_lag)
    return [
        PeriodCandidate(lag=int(lag), distance=float(value), depth=float(depth))
        for lag, value, depth in zip(lags, found, depths)
    ]


def filter_harmonics(
    candidates: list[PeriodCandidate],
    *,
    tolerance: float = 0.15,
) -> list[PeriodCandidate]:
    """Remove candidates that are integer multiples of a stronger candidate.

    A candidate at lag ``k*m`` is dropped when a candidate exists at lag
    ``m`` whose distance is not worse than the multiple's distance by more
    than ``tolerance`` (relative to the profile scale encoded in ``depth``).
    The fundamental period therefore survives and its harmonics do not.

    Only a *kept* candidate can explain away its multiples: a lag that was
    itself dropped as a harmonic never suppresses a deeper minimum further
    up the lag axis.  The pairwise divisibility/depth comparisons run as
    one broadcast matrix; the remaining forward pass over candidates (in
    lag order) only resolves that kept-set dependency and is skipped
    entirely when no candidate pair is harmonic-related.
    """
    check_positive(tolerance + 1e-12, "tolerance")
    if not candidates:
        return []
    by_lag = sorted(candidates, key=lambda c: c.lag)
    lags = np.array([c.lag for c in by_lag], dtype=np.int64)
    depths = np.array([c.depth for c in by_lag])
    kept_mask = _harmonic_kept_mask(lags, depths, tolerance)
    if kept_mask.all():
        return by_lag
    return [c for c, keep in zip(by_lag, kept_mask) if keep]


def select_period(
    profile: np.ndarray,
    *,
    min_lag: int = 1,
    min_depth: float = 0.25,
    harmonic_tolerance: float = 0.15,
) -> PeriodCandidate | None:
    """Select the period reported by the DPD from a distance profile.

    The deepest non-harmonic local minimum whose relative depth is at least
    ``min_depth`` is returned; ``None`` when no minimum qualifies (the
    stream is considered aperiodic over the current window).
    """
    check_positive(harmonic_tolerance + 1e-12, "harmonic_tolerance")
    _check_min_lag(min_lag)
    lags, found, depths = _minima_arrays(profile, min_lag)
    keep = depths >= min_depth
    if not np.any(keep):
        return None
    lags, found, depths = lags[keep], found[keep], depths[keep]
    # Deepest non-harmonic minimum wins; ties broken in favour of the
    # smaller lag (the fundamental) so that exact multiples never
    # displace the fundamental.
    best = _best_candidate_index(lags, depths, harmonic_tolerance)
    return PeriodCandidate(
        lag=int(lags[best]), distance=float(found[best]), depth=float(depths[best])
    )


def select_periods_batch(
    profiles: np.ndarray,
    *,
    min_lag: int = 1,
    min_depth: float = 0.25,
    harmonic_tolerance: float = 0.15,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Run :func:`select_period` over every row of a profile matrix at once.

    ``profiles`` has shape ``(streams, lags)`` — the layout of the
    structure-of-arrays lockstep bank, whose per-evaluation Python loop
    over streams this replaces (the ROADMAP's magnitude-lockstep
    bottleneck).  The search itself runs in the active
    :mod:`repro.kernels` backend — a fused ``@njit`` row kernel when
    numba is installed, the vectorised whole-matrix NumPy reference
    otherwise; every backend is bit-for-bit identical to the scalar
    :func:`select_period` per row.

    Returns
    -------
    (lags, distances, depths):
        One entry per row; ``lags[s] == 0`` means row ``s`` selected no
        period (:func:`select_period` returning ``None``), otherwise the
        three values are exactly the fields of the
        :class:`PeriodCandidate` the per-stream call would build.
    """
    check_positive(harmonic_tolerance + 1e-12, "harmonic_tolerance")
    _check_min_lag(min_lag)
    P = np.asarray(profiles, dtype=float)
    if P.ndim != 2:
        raise ValueError(f"profiles must be 2-D (streams, lags), got shape {P.shape}")
    return kernels.select_periods_batch_impl(P, min_lag, min_depth, harmonic_tolerance)
