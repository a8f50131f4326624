"""Pure SVT kernels: noise in, transcript out.

Each kernel is a *deterministic* function of the true answers, thresholds,
and pre-sampled noise — no generator in sight.  Sampling lives in
:mod:`repro.engine.noise` / :mod:`repro.engine.batch`; keeping it out of the
kernels means the batch ≡ streaming question becomes a statement about pure
functions: feed both forms the exact same noise arrays and they must return
the exact same :class:`~repro.core.base.SVTResult`, field for field.  The
``*_stream`` twins are query-at-a-time Python transliterations of the
Figure 1 listings and exist purely as the equivalence oracle (and as living
documentation of what the vectorized forms compute).

Kernel families, mapping onto the Figure 1 variants:

* :func:`threshold_kernel` — one rho, i.i.d. query noise, halt at the c-th
  positive.  Covers Alg. 1/7 (optionally with the independent eps3 numeric
  phase), Alg. 3 (``release_noisy=True``: the positive *releases* the very
  ``q_i + nu_i`` that won the comparison), and Alg. 4.
* :func:`dpbook_kernel` — Alg. 2: the threshold noise is refreshed after
  every positive, splitting the run into constant-rho segments; each segment
  ends at the first hit of a :func:`first_hits` scan from the segment's
  start, so the run reads only the queries it processes.
* :func:`nocut_kernel` — Alg. 5/6 and GPTT: no cutoff, every query is
  processed, so the whole run is a single vectorized comparison.
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple, Union

import numpy as np

from repro.core.base import ABOVE, BELOW, SVTResult
from repro.exceptions import InvalidParameterError

__all__ = [
    "cut_at_cth_positive",
    "threshold_kernel",
    "threshold_kernel_stream",
    "dpbook_kernel",
    "dpbook_kernel_stream",
    "first_hits",
    "nocut_kernel",
    "nocut_kernel_stream",
    "THRESHOLD_BYTES_PER_CELL",
    "DPBOOK_BYTES_PER_CELL",
    "NOCUT_BYTES_PER_CELL",
    "NOCUT_NONOISE_BYTES_PER_CELL",
]

# ---------------------------------------------------------------------------
# Working-set models: peak live bytes per (trial, query) cell of each kernel
# family, used by repro.engine.plans to size trial chunks.  Counted from the
# arrays each multi-trial path actually holds at once (float64 = 8, bool/int
# masks as labelled), with slack for the shuffle row and selection scatter.
# Deliberately conservative — the budget caps *peak* footprint.
# ---------------------------------------------------------------------------

#: threshold_kernel shape (Alg. 1/3/4/7): shuffled values (8) + nu block (8)
#: + noisy-comparison intermediate (8) + above (1) + cumsum (8) + prefix and
#: positives masks (2) + slack.
THRESHOLD_BYTES_PER_CELL = 48

#: Alg. 2's dense cell: a conservative upper bound, kept at the threshold
#: shape plus 8 bytes a cell.  The cell holds less at (trials, n): the nu
#: block, the (shuffled) values and the positives mask; its refresh rounds
#: form ``values + nu`` one scan window at a time (:func:`first_hits`),
#: never as a matrix.
DPBOOK_BYTES_PER_CELL = 56

#: nocut_kernel with query noise (Alg. 6 / GPTT): no halt bookkeeping, but
#: the selection scatter still runs a cumsum; one intermediate fewer than
#: the threshold shape.
NOCUT_BYTES_PER_CELL = 44

#: nocut_kernel without query noise (Alg. 5): no nu block and no noisy
#: intermediate at all — the comparison broadcasts against rho alone.
NOCUT_NONOISE_BYTES_PER_CELL = 32


#: A first-hit scan compares this many queries per trial in its first step
#: and doubles every further step of the same scan, while one step compares
#: at most :data:`SCAN_STEP_CAP` (trial, query) cells over all the trials
#: it scans together (but never fewer than ``SCAN_STEP`` queries a trial):
#: a hit a few positions away costs a few hundred comparisons, a long scan
#: O(distance / cap) steps, and a step's intermediates stay small however
#: many trials scan at once.
SCAN_STEP = 256
SCAN_STEP_CAP = 1 << 16


def first_hits(
    values: np.ndarray,
    thresholds: np.ndarray,
    nu: np.ndarray,
    rows: np.ndarray,
    start: np.ndarray,
    rho: np.ndarray,
    nu_scale: Optional[float] = None,
) -> np.ndarray:
    """Each row's first query at or after its start that clears its threshold.

    For every ``i``, the smallest ``j >= start[i]`` with ``values[r, j] +
    nu[r, j] * nu_scale >= thresholds[j] + rho[i]`` where ``r = rows[i]``,
    or -1 when the row has none.  *values* and *nu* are ``(trials, n)``
    (*values* may be a broadcast view), *thresholds* is ``(n,)``;
    ``nu_scale=None`` reads *nu* as is.  The rows are scanned together in
    windows that start at :data:`SCAN_STEP` queries and grow, so a scan
    costs the distance to its hit, not n; ``values + nu`` is formed only for
    the window being compared, with the same float operations as the full
    matrix, so the hits are exactly those of a full-width comparison.
    """
    n = values.shape[1]
    hits = np.full(len(rows), -1, dtype=np.int64)
    pos = np.array(start, dtype=np.int64)
    live = np.nonzero(pos < n)[0]
    step = SCAN_STEP
    while live.size:
        r, at = rows[live][:, None], pos[live]
        width = min(step, n - int(at.min()))
        cols = at[:, None] + np.arange(width)
        inside = cols < n
        np.minimum(cols, n - 1, out=cols)
        noise = nu[r, cols]
        if nu_scale is not None:
            noise *= nu_scale
        above = values[r, cols] + noise >= thresholds[cols] + rho[live][:, None]
        above &= inside
        first = np.argmax(above, axis=1)
        found = above[np.arange(live.size), first]
        hits[live[found]] = at[found] + first[found]
        pos[live] = at + width
        live = live[~found & (at + width < n)]
        step = min(2 * step, max(SCAN_STEP, SCAN_STEP_CAP // max(live.size, 1)))
    return hits


def cut_at_cth_positive(above: np.ndarray, c: int) -> Tuple[int, bool]:
    """Halt-point of a cutoff-c run given the full comparison vector.

    Returns ``(processed, halted)``: the run consumes queries up to and
    including the c-th positive, or the whole stream when fewer than c
    comparisons succeed.
    """
    cum = np.cumsum(above)
    hit = np.nonzero(cum == c)[0]
    if hit.size and above[hit[0]]:
        return int(hit[0]) + 1, True
    return int(above.size), False


def _as_values(values: Sequence[float]) -> np.ndarray:
    arr = np.asarray(values, dtype=float)
    if arr.ndim != 1:
        raise InvalidParameterError("answers must be a 1-D sequence")
    return arr


def threshold_kernel(
    values: Sequence[float],
    thresholds: np.ndarray,
    rho: float,
    nu: np.ndarray,
    c: int,
    numeric_noise: Optional[np.ndarray] = None,
    release_noisy: bool = False,
) -> SVTResult:
    """Vectorized single-rho cutoff kernel (Alg. 1/3/4/7).

    ``numeric_noise`` (Alg. 7 eps3 phase) holds one fresh-noise draw per
    positive ordinal; ``release_noisy`` (Alg. 3) instead releases the
    comparison's own ``q_i + nu_i``.  The two are mutually exclusive.
    """
    if release_noisy and numeric_noise is not None:
        raise InvalidParameterError("release_noisy excludes an independent numeric phase")
    arr = _as_values(values)
    noisy = arr + nu
    above = noisy >= thresholds + rho
    processed, halted = cut_at_cth_positive(above, c)
    positives = np.nonzero(above[:processed])[0]

    answers: list = [BELOW] * processed
    if release_noisy:
        for i in positives:
            answers[int(i)] = float(noisy[i])
    elif numeric_noise is not None:
        for k, i in enumerate(positives):
            answers[int(i)] = float(arr[i] + numeric_noise[k])
    else:
        for i in positives:
            answers[int(i)] = ABOVE
    return SVTResult(
        answers=answers,
        positives=[int(i) for i in positives],
        processed=processed,
        halted=halted,
        noisy_threshold_trace=[float(rho)],
    )


def threshold_kernel_stream(
    values: Sequence[float],
    thresholds: np.ndarray,
    rho: float,
    nu: np.ndarray,
    c: int,
    numeric_noise: Optional[np.ndarray] = None,
    release_noisy: bool = False,
) -> SVTResult:
    """Query-at-a-time reference for :func:`threshold_kernel`."""
    if release_noisy and numeric_noise is not None:
        raise InvalidParameterError("release_noisy excludes an independent numeric phase")
    arr = _as_values(values)
    result = SVTResult(noisy_threshold_trace=[float(rho)])
    count = 0
    for i in range(arr.size):
        noisy = arr[i] + nu[i]
        result.processed += 1
        if noisy >= thresholds[i] + rho:
            result.positives.append(i)
            if release_noisy:
                result.answers.append(float(noisy))
            elif numeric_noise is not None:
                result.answers.append(float(arr[i] + numeric_noise[count]))
            else:
                result.answers.append(ABOVE)
            count += 1
            if count >= c:
                result.halted = True
                break
        else:
            result.answers.append(BELOW)
    return result


def dpbook_kernel(
    values: Sequence[float],
    thresholds: np.ndarray,
    rhos: np.ndarray,
    nu: np.ndarray,
    c: int,
) -> SVTResult:
    """Vectorized Alg. 2 kernel: segmented first-hit scans with per-segment rho.

    ``rhos[0]`` is the initial threshold noise; ``rhos[k]`` the refresh used
    after the k-th positive (the listing refreshes after *every* positive,
    including the c-th, so up to ``c + 1`` entries are consumed — pass at
    least that many).  Each query is examined exactly once; a "segment" is a
    maximal run under one rho, ended by a positive, found by one
    :func:`first_hits` scan from the segment's start.
    """
    arr = _as_values(values)
    n = arr.size
    if len(rhos) < min(c, n) + 1:
        raise InvalidParameterError(f"need at least min(c, n)+1 threshold draws, got {len(rhos)}")
    row = np.zeros(1, dtype=np.int64)
    thr = np.asarray(thresholds, dtype=float)
    noise = np.asarray(nu, dtype=float)[None, :]

    rho = float(rhos[0])
    trace = [rho]
    positives: list[int] = []
    start = 0
    processed = n
    halted = False
    while start < n:
        pos = int(first_hits(arr[None, :], thr, noise, row, [start], np.array([rho]))[0])
        if pos < 0:
            break
        positives.append(pos)
        rho = float(rhos[len(positives)])
        trace.append(rho)
        if len(positives) >= c:
            processed = pos + 1
            halted = True
            break
        start = pos + 1

    above_set = set(positives)
    return SVTResult(
        answers=[ABOVE if i in above_set else BELOW for i in range(processed)],
        positives=positives,
        processed=processed,
        halted=halted,
        noisy_threshold_trace=trace,
    )


def dpbook_kernel_stream(
    values: Sequence[float],
    thresholds: np.ndarray,
    rhos: np.ndarray,
    nu: np.ndarray,
    c: int,
) -> SVTResult:
    """Query-at-a-time reference for :func:`dpbook_kernel`."""
    arr = _as_values(values)
    rho = float(rhos[0])
    result = SVTResult(noisy_threshold_trace=[rho])
    count = 0
    for i in range(arr.size):
        result.processed += 1
        if arr[i] + nu[i] >= thresholds[i] + rho:
            result.answers.append(ABOVE)
            result.positives.append(i)
            count += 1
            rho = float(rhos[count])
            result.noisy_threshold_trace.append(rho)
            if count >= c:
                result.halted = True
                break
        else:
            result.answers.append(BELOW)
    return result


def nocut_kernel(
    values: Sequence[float],
    thresholds: np.ndarray,
    rho: float,
    nu: Optional[np.ndarray] = None,
) -> SVTResult:
    """Vectorized no-cutoff kernel (Alg. 5/6, GPTT); ``nu=None`` means no query noise."""
    arr = _as_values(values)
    noisy = arr + nu if nu is not None else arr + 0.0
    above = noisy >= thresholds + rho
    positives = np.nonzero(above)[0]
    return SVTResult(
        answers=[ABOVE if flag else BELOW for flag in above],
        positives=[int(i) for i in positives],
        processed=int(arr.size),
        halted=False,
        noisy_threshold_trace=[float(rho)],
    )


def nocut_kernel_stream(
    values: Sequence[float],
    thresholds: np.ndarray,
    rho: float,
    nu: Optional[np.ndarray] = None,
) -> SVTResult:
    """Query-at-a-time reference for :func:`nocut_kernel`."""
    arr = _as_values(values)
    result = SVTResult(noisy_threshold_trace=[float(rho)])
    for i in range(arr.size):
        noisy = arr[i] + (nu[i] if nu is not None else 0.0)
        result.processed += 1
        if noisy >= thresholds[i] + rho:
            result.answers.append(ABOVE)
            result.positives.append(i)
        else:
            result.answers.append(BELOW)
    return result
