"""Pure-NumPy reference implementations of the columnar hot-path kernels.

This backend is the portable fallback of the registry in
:mod:`repro.kernels` — always importable, no compiled dependencies —
and the *reference* the compiled backends are held to: the equivalence
contract is bit-for-bit against these functions (which are themselves
bit-for-bit against the scalar engines; see the hypothesis suites in
``tests/core/test_minima_batch.py`` and ``tests/service/test_soa.py``).

The code is the vectorised hot-path implementation that previously
lived inline in :mod:`repro.core.minima`, :mod:`repro.service.soa` and
:mod:`repro.service.event_soa`, extracted verbatim so every backend
sits behind one dispatch seam.
"""

from __future__ import annotations

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

__all__ = [
    "best_candidate_index",
    "event_step_mismatches",
    "harmonic_kept_mask",
    "magnitude_advance_sums",
    "select_periods_batch_impl",
]


# ----------------------------------------------------------------------
# (a) chunked magnitude AMDF insert/evict recurrence
# ----------------------------------------------------------------------
def magnitude_advance_sums(
    sums: np.ndarray, ext: np.ndarray, window: int, length: int
) -> None:
    """Advance the incremental AMDF sums of a full-window bank by a chunk.

    The per-step insert/evict terms of the recurrence are materialised
    for the whole chunk in two strided 3-D passes over ``ext`` (window
    contents oldest-first ++ incoming columns), then applied step by
    step as plain 2-D adds — same values, same order, bit-for-bit the
    arithmetic of the scalar engine's per-sample update.
    """
    top = sums.shape[1] - 1
    # sw[s, j, k] = ext[s, j + k]; row j spans ext[j .. j + top].
    sw = sliding_window_view(ext, top + 1, axis=1)
    # Insert terms: step t adds |x_new - x_prev(m)| at lag m, where
    # x_new = ext[:, window + t]; column k of the block is lag top-k.
    base = window - top
    add_rev = np.abs(
        sw[:, base : base + length, top : top + 1] - sw[:, base : base + length, :top]
    )
    # Evict terms: step t removes |x_old(m) - x_evicted| at lag m,
    # where x_evicted = ext[:, t]; column k of the block is lag k+1.
    sub = np.abs(sw[:, :length, 1 : top + 1] - sw[:, :length, :1])
    body = sums[:, 1 : top + 1]
    for step_t in range(length):
        body += add_rev[:, step_t, ::-1]
        body -= sub[:, step_t, :]


# ----------------------------------------------------------------------
# (c) event-bank incremental mismatch update
# ----------------------------------------------------------------------
def event_step_mismatches(
    buffers: np.ndarray,
    mismatches: np.ndarray,
    column: np.ndarray,
    head: int,
    fill: int,
    window: int,
) -> None:
    """One lockstep step of the event bank's mismatch counts (in place).

    Identical slice arithmetic to ``EventPeriodicityDetector.update``,
    lifted to 2-D: every stream shares ``head``/``fill`` because the
    bank advances in lockstep.  The caller writes ``column`` into the
    ring afterwards.
    """
    top = mismatches.shape[1] - 1
    sample = column[:, None]
    if fill:
        m = min(top, fill)
        if m <= head:
            mismatches[:, 1 : m + 1] += buffers[:, head - m : head][:, ::-1] != sample
        else:
            if head:
                mismatches[:, 1 : head + 1] += buffers[:, head - 1 :: -1] != sample
            tail = m - head
            mismatches[:, head + 1 : m + 1] += (
                buffers[:, -1 : -tail - 1 : -1] != sample
            )
    if fill == window and fill > 1:
        evicted = buffers[:, head].copy()[:, None]
        m = min(top, fill - 1)
        first = min(m, fill - 1 - head)
        if first:
            mismatches[:, 1 : first + 1] -= (
                buffers[:, head + 1 : head + 1 + first] != evicted
            )
        if m > first:
            mismatches[:, first + 1 : m + 1] -= buffers[:, : m - first] != evicted


# ----------------------------------------------------------------------
# (b) whole-matrix period selection
# ----------------------------------------------------------------------
def harmonic_kept_mask(
    lags: np.ndarray, depths: np.ndarray, tolerance: float
) -> np.ndarray:
    """Harmonic-filter survivor mask over lag-sorted candidate arrays.

    The array-level core of :func:`repro.core.minima.filter_harmonics`
    and :func:`repro.core.minima.select_period`.  The batched selection
    resolves whole blocks of rows with the same rule instead
    (:func:`_resolve_block`).
    """
    # suppresses[i, j]: candidate i, *if kept*, drops candidate j.
    ratio_exact = (lags[None, :] % lags[:, None]) == 0
    suppresses = (
        ratio_exact
        & (lags[:, None] < lags[None, :])
        & (depths[None, :] <= depths[:, None] + tolerance)
    )
    kept_mask = np.ones(lags.size, dtype=bool)
    if not suppresses.any():
        return kept_mask
    for j in range(lags.size):
        kept_mask[j] = not np.any(kept_mask[:j] & suppresses[:j, j])
    return kept_mask


def best_candidate_index(
    lags: np.ndarray, depths: np.ndarray, tolerance: float
) -> int:
    """Index of the winning candidate among lag-sorted candidate arrays.

    Applies the harmonic filter, then picks the deepest survivor with
    ties broken in favour of the smaller lag — exactly the
    ``min(candidates, key=(-depth, lag))`` rule of
    :func:`repro.core.minima.select_period`.
    """
    kept = np.flatnonzero(harmonic_kept_mask(lags, depths, tolerance))
    order = np.lexsort((lags[kept], -depths[kept]))
    return int(kept[order[0]])


def _minima_matrix(
    profiles: np.ndarray, min_lag: int
) -> tuple[np.ndarray, np.ndarray]:
    """Row-wise local-minimum search; returns ``(is_min, depths)`` matrices.

    The 2-D lift of the scalar search in
    :func:`repro.core.minima.find_local_minima`: every comparison and
    the per-row profile mean are the same expressions evaluated along
    ``axis=1``, so row ``s`` of the result is bit-for-bit the 1-D
    search over ``profiles[s]``.
    """
    P = np.asarray(profiles, dtype=float)
    streams, n = P.shape
    finite = np.isfinite(P)
    counts = finite.sum(axis=1)
    means = np.where(finite, P, 0.0).sum(axis=1) / np.maximum(counts, 1)
    eligible = finite.copy()
    eligible[:, : min(max(min_lag, 0), n)] = False
    left = np.full((streams, n), np.inf)
    left[:, 1:] = np.where(eligible[:, :-1], P[:, :-1], np.inf)
    right = np.full((streams, n), np.inf)
    right[:, :-1] = np.where(eligible[:, 1:], P[:, 1:], np.inf)
    with np.errstate(invalid="ignore"):
        is_min = eligible & (P <= left) & (P <= right)
        plateau = np.zeros((streams, n), dtype=bool)
        plateau[:, 1:] = eligible[:, :-1] & (P[:, :-1] == P[:, 1:]) & (
            left[:, 1:] <= right[:, 1:]
        )
    is_min &= ~plateau
    mean_col = means[:, None]
    positive = mean_col > 0
    with np.errstate(invalid="ignore", divide="ignore"):
        depths = np.where(
            positive,
            1.0 - P / np.where(positive, mean_col, 1.0),
            np.where(P == 0, 1.0, 0.0),
        )
    return is_min, depths


#: Element budget of one block's ``(rows, K, K)`` suppression tensor: its
#: transient arrays stay around a megabyte each however many rows fall
#: into the widest candidate bucket.
_BLOCK_ELEMENTS = 1 << 18


def _resolve_harmonics(
    qualifies: np.ndarray, depths: np.ndarray, tolerance: float
) -> np.ndarray:
    """Winning lag of every row: :func:`best_candidate_index` for a block.

    Row ``r`` holds one profile's qualifying-candidate mask and depths
    (at least one candidate per row).  Rows are grouped into
    power-of-two buckets of their candidate count ``K`` so that a row
    with few minima is not padded to the widest one, and each bucket is
    cut into blocks of at most ``_BLOCK_ELEMENTS`` tensor elements.
    """
    counts = qualifies.sum(axis=1)
    widths = 1 << np.ceil(np.log2(counts)).astype(np.int64)
    best = np.empty(counts.size, dtype=np.int64)
    for width in np.unique(widths).tolist():
        members = np.flatnonzero(widths == width)
        step = max(1, _BLOCK_ELEMENTS // (width * width))
        for lo in range(0, members.size, step):
            rows = members[lo : lo + step]
            best[rows] = _resolve_block(
                qualifies[rows], depths[rows], counts[rows], width, tolerance
            )
    return best


def _resolve_block(
    qualifies: np.ndarray,
    depths: np.ndarray,
    counts: np.ndarray,
    width: int,
    tolerance: float,
) -> np.ndarray:
    """Harmonic filter plus tie break for rows of at most ``width`` candidates.

    The candidates of each row are compacted, in ascending lag order,
    into padded ``(rows, width)`` lag/depth arrays.  ``drops[r, i, j]``
    is :func:`harmonic_kept_mask`'s ``suppresses[i, j]`` for row ``r``.
    The kept set is its unique fixed point: ``drops`` only points from a
    lag to a multiple of it, so every chain is at most ``log2(max lag)``
    long and the whole-block iteration settles within that many rounds
    plus one (one more round confirms it).  Each round counts, per
    candidate, the kept candidates that drop it as a float32 batched
    matmul, exact for counts below 2**24.
    """
    streams = counts.size
    row_of, cols = np.nonzero(qualifies)
    slot = np.arange(cols.size) - np.repeat(np.cumsum(counts) - counts, counts)
    lags = np.ones((streams, width), dtype=np.int32)
    lags[row_of, slot] = cols
    cand_depths = np.full((streams, width), -np.inf)
    cand_depths[row_of, slot] = depths[row_of, cols]
    valid = np.arange(width)[None, :] < counts[:, None]
    drops = (lags[:, None, :] % lags[:, :, None]) == 0
    drops &= cand_depths[:, None, :] <= cand_depths[:, :, None] + tolerance
    drops &= np.triu(np.ones((width, width), dtype=bool), 1)
    drops &= valid[:, None, :]
    weights = drops.astype(np.float32)
    kept = valid
    while True:
        dropped = np.matmul(kept[:, None, :].astype(np.float32), weights)[:, 0, :]
        settled = valid & (dropped == 0)
        if np.array_equal(settled, kept):
            break
        kept = settled
    # Deepest kept candidate; argmax returns the first maximum, which is
    # the smallest lag on an exact depth tie.  Slot 0 is always kept.
    winner = np.where(kept, cand_depths, -np.inf).argmax(axis=1)
    return lags[np.arange(streams), winner]


def select_periods_batch_impl(
    P: np.ndarray, min_lag: int, min_depth: float, harmonic_tolerance: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Whole-matrix period selection (see ``minima.select_periods_batch``).

    The local-minimum search, depth computation and ``min_depth`` gate
    run as single whole-matrix passes.  Two sufficient-condition fast
    paths then settle the rows of a locked, clean periodic fleet.  They
    cannot settle rows with competing minima, which noisy profiles have
    in numbers (about a third of the rows of a fleet of noisy sines);
    those rows go to a block resolver that runs the harmonic filter and
    tie break for all of them at once (:func:`_resolve_harmonics`).  No
    step loops over rows in Python.
    """
    streams = P.shape[0]
    out_lags = np.zeros(streams, dtype=np.int64)
    out_dist = np.zeros(streams, dtype=np.float64)
    out_depth = np.zeros(streams, dtype=np.float64)
    if P.shape[1] == 0:
        return out_lags, out_dist, out_depth
    is_min, depths = _minima_matrix(P, min_lag)
    with np.errstate(invalid="ignore"):
        qualifies = is_min & (depths >= min_depth)
    has_any = qualifies.any(axis=1)
    if not has_any.any():
        return out_lags, out_dist, out_depth
    # Whole-matrix fast paths: two sufficient conditions, each settling a
    # row with a few whole-matrix passes, together covering essentially
    # every evaluation of a locked clean periodic stream (minima at p, 2p,
    # 3p, ... plus the odd shallow spurious minimum); only rows with
    # genuinely competing minima pay the block resolution below.
    #
    # (A) Let m0 be the row's smallest qualifying lag.  Nothing can
    #     suppress m0 (suppression needs a smaller kept lag), so m0
    #     always survives the harmonic filter.  When every qualifying
    #     multiple of m0 lies within the harmonic tolerance of m0's
    #     depth (m0 suppresses it) and every qualifying non-multiple is
    #     no deeper than m0 (it cannot out-rank m0, and ties break
    #     toward the smaller lag — m0), the winner is m0.
    # (B) Let j* be the row's deepest qualifying lag (smallest lag on a
    #     depth tie — the lexsort order).  When no qualifying strict
    #     divisor of j* is deep enough to suppress it (kept lags are a
    #     subset of qualifying ones, so this is conservative), j*
    #     survives the filter, and as the pre-filter deepest it wins.
    first = qualifies.argmax(axis=1)
    lag_grid = np.arange(P.shape[1], dtype=np.int64)
    m0 = np.maximum(first, 1)[:, None]
    d0 = depths[np.arange(streams), first][:, None]
    with np.errstate(invalid="ignore"):
        multiple = lag_grid[None, :] % m0 == 0
        explained = np.where(
            multiple, depths <= d0 + harmonic_tolerance, depths <= d0
        )
        fast_a = has_any & np.all(explained | ~qualifies, axis=1)
        masked = np.where(qualifies, depths, -np.inf)
        dmax = masked.max(axis=1)
        jstar = (masked == dmax[:, None]).argmax(axis=1)
        divisor = (
            (np.maximum(jstar, 1)[:, None] % np.maximum(lag_grid, 1)[None, :] == 0)
            & (lag_grid[None, :] < jstar[:, None])
        )
        threat = qualifies & divisor & (depths + harmonic_tolerance >= dmax[:, None])
        fast_b = has_any & ~fast_a & ~threat.any(axis=1)
    # When A and B both hold they provably agree, so precedence is moot.
    best = np.where(fast_a, first, jstar)
    fallback = np.flatnonzero(has_any & ~fast_a & ~fast_b)
    if fallback.size:
        best[fallback] = _resolve_harmonics(
            qualifies[fallback], depths[fallback], harmonic_tolerance
        )
    rows = np.flatnonzero(has_any)
    best = best[rows]
    out_lags[rows] = best
    out_dist[rows] = P[rows, best]
    out_depth[rows] = depths[rows, best]
    return out_lags, out_dist, out_depth
