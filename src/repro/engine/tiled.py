"""Two-axis tiled execution: every variant over a lazy score axis.

The classic engine materializes a handful of ``(trials, n)`` blocks; at the
paper's full AOL configuration (n ≈ 2.3M) even a single trial's row is
hundreds of megabytes, so :func:`repro.engine.plans.plan_trials` can tile
the query axis too.  This module runs one trial chunk over that tile grid:
scores come from a :class:`~repro.data.scores.ScoreSource` one
``block(lo, hi)`` at a time, noise comes from the per-trial streams one tile
at a time, and each kernel *folds* its running state (firing counts, halt
positions, top-c heaps, SER/FNR inputs) across the n-tiles instead of
holding the full row.

**Bit-identity is the contract, not an aspiration.**  A NumPy block draw
consumes the bit stream exactly like the equivalent sequence of smaller
draws, so drawing a trial's query noise tile by tile (in query order, from
the same per-trial stream) reproduces the dense engine's one full-width
draw bit for bit.  The two places that must *revisit* noise re-derive it
from bit-generator state checkpoints
(:class:`~repro.engine.noise.TrialStreams`) rather than storing it, the same
re-derivation trick that makes the per-trial streams chunk-invariant:

* shared-unit epsilon grids re-read the same unit tiles once per grid point,
  replayed from each tile's checkpoint;
* Alg. 2's segmented rescans (later rounds re-read the query noise under a
  refreshed threshold) give every scanning trial a *noise cursor* — a
  replay generator sitting exactly at its next scan position — that scans
  forward in growing steps, so a round costs its scan distance rather than
  a tile.  The rescans visit the tiles in order and keep the current score
  and threshold tile as a one-tile cache, so beyond the live round-1 sweep
  each tile is read at most once per epsilon cell.

Consequently, for every registry variant and every ``(chunk_trials,
chunk_n)`` grid, the tiled result equals the dense per-trial-stream result
exactly: same selections, same ``processed``/``passes``/``examined``
accounting, same SER/FNR — enforced across all variants by
``tests/engine/test_engine_tiled.py``.

What the fold keeps per trial is O(c): the selection so far, a firing
count, a halt position, Alg. 2's cursor.  What it streams is
O(chunk_trials × chunk_n): one score tile, one noise tile, one comparison
tile.  Nothing is ever
materialized at (trials, n) — except the optional ``positives_mask``, which
is only built when ``trials * n`` is small enough to afford it (the
no-cutoff variants' mask is genuinely dense information).

Shuffled query order is not supported here: a per-trial permutation of a
2.3M-item universe is itself a dense (trials, n) object.  Tiled runs raise
on ``shuffle=True``; the paper-protocol experiment harness keeps its dense
shuffle path (bounded by its own ``max_bytes`` trial chunking).
"""

from __future__ import annotations

import math
from typing import List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.core.allocation import BudgetAllocation
from repro.core.base import normalize_thresholds
from repro.data.scores import ScoreSource, topc_stats
from repro.engine.kernels import SCAN_STEP as _SCAN_STEP, SCAN_STEP_CAP as _SCAN_STEP_CAP
from repro.engine.noise import TrialStreams
from repro.engine.plans import noise_plan
from repro.engine.trials import TrialBatch, _scatter_selection, _svt_scales
from repro.exceptions import InvalidParameterError
from repro.metrics.utility import metrics_from_topc

__all__ = ["run_tiled_chunk", "MASK_MATERIALIZE_LIMIT"]

#: Build the (trials, n) positives mask only below this many cells (16M cells
#: = 16 MB of bool); above it the mask stays None and callers use
#: ``selection`` / ``num_positives`` instead.
MASK_MATERIALIZE_LIMIT = 1 << 24

_SINGLE_PASS = ("alg1", "alg3", "alg4", "alg5", "alg6", "gptt")


class _ThresholdView:
    """Tile-sliced thresholds without materializing the scalar broadcast.

    A scalar threshold comes back as a read-only zero-stride view; callers
    only read it.
    """

    def __init__(self, thresholds, n: int) -> None:
        arr = np.asarray(thresholds, dtype=float)
        if arr.ndim == 0:
            self._scalar: Optional[np.ndarray] = arr
            self._arr: Optional[np.ndarray] = None
        else:
            self._scalar = None
            self._arr = normalize_thresholds(thresholds, n)

    def __call__(self, lo: int, hi: int) -> np.ndarray:
        if self._arr is None:
            return np.broadcast_to(self._scalar, (hi - lo,))
        return self._arr[lo:hi]


class _UnitTiles:
    """The shared unit noise of one epsilon grid, as replayable checkpoints.

    ``rho`` is the pre-drawn ``(trials,)`` unit threshold noise; ``states``
    holds each tile's per-trial bit-generator states at the moment the unit
    tile was drawn (None for variants without query noise).  ``kind`` is the
    tile distribution ("laplace"/"gumbel").
    """

    __slots__ = ("rho", "states", "kind")

    def __init__(self, rho, states, kind: str) -> None:
        self.rho = rho
        self.states = states
        self.kind = kind


def _draw_unit_tiles(
    key: str, streams: TrialStreams, tiles: Sequence[Tuple[int, int]]
) -> Optional[_UnitTiles]:
    """Consume one grid's unit noise from the live streams, keeping only
    checkpoints (tiles are re-derived per grid point, never stored).

    Draw order per trial matches the dense ``_draw_units`` exactly: the unit
    rho first, then the unit query-noise block (as its tile sequence).
    Returns None for retraversal, whose per-pass draws are data-dependent.
    """
    if key == "retraversal":
        return None
    if key == "em":
        states = []
        for lo, hi in tiles:
            states.append(streams.checkpoint())
            streams.gumbel_tile(hi - lo)
        return _UnitTiles(rho=None, states=states, kind="gumbel")
    rho = streams.rho(1.0)
    if key == "alg5":
        return _UnitTiles(rho=rho, states=None, kind="laplace")
    states = []
    for lo, hi in tiles:
        states.append(streams.checkpoint())
        streams.laplace_tile(1.0, hi - lo)
    return _UnitTiles(rho=rho, states=states, kind="laplace")


def _unit_replay_iter(streams, states, tiles, kind: str, mult: float):
    """Re-derive the unit tiles in scan order, scaled, via replay streams."""
    rep = streams.replayers(states[0])
    for lo, hi in tiles:
        if kind == "gumbel":
            yield rep.gumbel_tile(hi - lo)
        else:
            yield rep.laplace_tile(1.0, hi - lo) * mult


def _live_iter(streams, tiles, kind: str, scale: float = 1.0):
    """Draw the tiles fresh from the live streams, in scan order."""
    for lo, hi in tiles:
        if kind == "gumbel":
            yield streams.gumbel_tile(hi - lo)
        else:
            yield streams.laplace_tile(scale, hi - lo)


# ---------------------------------------------------------------------------
# Single-pass fold: Alg. 1/3/4 (cutoff) and Alg. 5/6/GPTT (no cutoff).
# ---------------------------------------------------------------------------


def _fold_single_pass(
    source: ScoreSource,
    thrv: _ThresholdView,
    tiles: Sequence[Tuple[int, int]],
    rho: np.ndarray,
    nu_iter,
    c: int,
    cutoff: bool,
    mask_out: Optional[np.ndarray],
):
    """One vectorized scan over the tile grid, folding counts and selections.

    ``nu_iter`` yields one scaled ``(trials, width)`` query-noise tile per
    grid tile (or is None for the noise-free Alg. 5).  Exactly reproduces
    ``cut_matrix`` + ``selection_matrix`` over the implied dense comparison
    matrix.
    """
    trials = rho.size
    n = source.n
    count = np.zeros(trials, dtype=np.int64)
    halted = np.zeros(trials, dtype=bool)
    processed = np.full(trials, n, dtype=np.int64)
    selection = np.full((trials, c), -1, dtype=np.int64)

    for k, (lo, hi) in enumerate(tiles):
        w = hi - lo
        nu = None if nu_iter is None else next(nu_iter)
        if w == 0:
            continue
        v = source.block(lo, hi)
        t = thrv(lo, hi)
        if nu is None:
            cmp = v[None, :] >= t[None, :] + rho[:, None]
        else:
            cmp = v[None, :] + nu >= t[None, :] + rho[:, None]
        cols = np.arange(w)
        if cutoff:
            act = ~halted
            cum = np.cumsum(cmp, axis=1) + count[:, None]
            hit = (cum == c) & cmp
            has = hit.any(axis=1)
            first = np.argmax(hit, axis=1)
            newly = act & has
            stop = np.where(has, first, w - 1)
            sel_mask = cmp & (cum <= c) & act[:, None]
            sel_mask &= cols[None, :] <= stop[:, None]
            rows, cc = np.nonzero(sel_mask)
            selection[rows, cum[rows, cc] - 1] = lo + cc
            if mask_out is not None:
                mask_out[:, lo:hi] = sel_mask
            processed[newly] = lo + first[newly] + 1
            count[act] = np.where(newly[act], c, cum[act, -1])
            halted |= newly
        else:
            cum = np.cumsum(cmp, axis=1) + count[:, None]
            sel_mask = cmp & (cum <= c)
            rows, cc = np.nonzero(sel_mask)
            selection[rows, cum[rows, cc] - 1] = lo + cc
            if mask_out is not None:
                mask_out[:, lo:hi] = cmp
            count = cum[:, -1]
    if not cutoff:
        halted[:] = False
        processed[:] = n
    return selection, processed, halted, count


# ---------------------------------------------------------------------------
# Alg. 2: segmented rescans over the tile grid with per-trial noise cursors.
# ---------------------------------------------------------------------------


def _scan_to_hit(
    gen: np.random.Generator,
    v: np.ndarray,
    t: np.ndarray,
    off: int,
    rho: float,
    draw_scale: float,
    mult: float,
    step: int,
) -> Tuple[int, int]:
    """Advance one trial's noise cursor through the tile ``(v, t)``.

    Scans from tile offset *off* in growing steps (the first-hit scan
    policy of :data:`repro.engine.kernels.SCAN_STEP`, one trial wide: a
    cursor draws its noise as it scans) and returns ``(hit,
    step)``: the offset of the first ``v + nu >= t + rho`` (-1 if the tile
    ends without one) and the step size a continuing scan resumes with.  On
    a hit the cursor is restored to the step's saved state and redrawn
    through the hit, so it sits exactly at ``hit + 1``; on a miss it sits at
    the tile's end.
    """
    w = v.size
    while off < w:
        m = min(step, w - off)
        saved = gen.bit_generator.state
        nu = gen.laplace(scale=draw_scale, size=m) * mult
        above = v[off : off + m] + nu >= t[off : off + m] + rho
        j = int(np.argmax(above))
        if above[j]:
            gen.bit_generator.state = saved
            gen.laplace(scale=draw_scale, size=j + 1)
            return off + j, step
        off += m
        step = min(2 * step, _SCAN_STEP_CAP)
    return -1, step


def _fold_dpbook(
    source: ScoreSource,
    thrv: _ThresholdView,
    tiles: Sequence[Tuple[int, int]],
    streams: TrialStreams,
    rho0: np.ndarray,
    nu_scale: float,
    refresh_scale: float,
    c: int,
    unit_states: Optional[list],
):
    """Alg. 2 over the tile grid: rounds of first-hit scans on noise cursors.

    Every trial still scanning owns a *cursor*: a replay generator that sits
    exactly at its next scan position in the query-noise block.  A round
    scans forward from there (:func:`_scan_to_hit`), so it costs its scan
    distance, not a tile width, and a hit leaves the cursor at ``hit + 1``,
    where the next round starts.

    With ``unit_states=None`` round 1 is the live sweep: each tile's query
    noise is drawn from the live streams for all trials at once (exactly n
    draws per trial, the dense draw order), and a trial's cursor is cut
    from the checkpoint of the tile holding its first hit.  With shared unit
    noise, round 1 is a cursor scan too, replayed from the grid's unit
    checkpoints.  Either way the live streams then see only the
    data-dependent refresh draws, taken in each trial's event order.

    The cursor rounds run tile-major: tiles are visited in order, and each
    is read from ``source`` once and kept as the one cached score/threshold
    tile while every cursor inside it scans, refreshes and rescans up to
    its end.  Cursors only move forward, so no tile is read again.
    """
    trials = len(streams)
    n = source.n
    rho = rho0.copy()
    count = np.zeros(trials, dtype=np.int64)
    selection = np.full((trials, c), -1, dtype=np.int64)
    processed = np.full(trials, n, dtype=np.int64)
    halted = np.zeros(trials, dtype=bool)
    pos = np.zeros(trials, dtype=np.int64)
    step = np.full(trials, _SCAN_STEP, dtype=np.int64)
    cursors: List[Optional[np.random.Generator]] = [None] * trials

    def commit(t_idx: int, hit: int) -> bool:
        """Record a hit and refresh rho; True while the trial scans on."""
        selection[t_idx, count[t_idx]] = hit
        count[t_idx] += 1
        if count[t_idx] >= c:
            processed[t_idx] = hit + 1
            halted[t_idx] = True
            return False
        rho[t_idx] = float(streams.gens[t_idx].laplace(scale=refresh_scale))
        pos[t_idx] = hit + 1
        step[t_idx] = _SCAN_STEP
        return hit + 1 < n

    if unit_states is None:
        draw_scale, mult = nu_scale, 1.0
        hit_pos = np.full(trials, -1, dtype=np.int64)
        for lo, hi in tiles:
            states = streams.checkpoint()
            nu = streams.laplace_tile(nu_scale, hi - lo)
            need = hit_pos < 0
            if hi == lo or not need.any():
                continue  # the live streams must still advance
            v = source.block(lo, hi)
            t = thrv(lo, hi)
            above = v[None, :] + nu >= t[None, :] + rho[:, None]
            first = np.argmax(above, axis=1)
            for t_idx in np.nonzero(need & above[np.arange(trials), first])[0]:
                j = int(first[t_idx])
                hit_pos[t_idx] = lo + j
                cursors[t_idx] = streams.replayer(t_idx, states[t_idx])
                cursors[t_idx].laplace(scale=draw_scale, size=j + 1)
        active = [
            t_idx for t_idx in range(trials)
            if hit_pos[t_idx] >= 0 and commit(t_idx, int(hit_pos[t_idx]))
        ]
    else:
        draw_scale, mult = 1.0, nu_scale
        active = list(range(trials)) if n else []
        for t_idx in active:
            cursors[t_idx] = streams.replayer(t_idx, unit_states[0][t_idx])

    for lo, hi in tiles:
        if not active:
            break
        here = [t_idx for t_idx in active if pos[t_idx] < hi]
        if not here:
            continue
        v = source.block(lo, hi)
        t = thrv(lo, hi)
        for t_idx in here:
            while True:
                j, step[t_idx] = _scan_to_hit(
                    cursors[t_idx], v, t, int(pos[t_idx]) - lo, float(rho[t_idx]),
                    draw_scale, mult, int(step[t_idx]),
                )
                if j < 0:
                    pos[t_idx] = hi
                    break
                if not commit(t_idx, lo + j):
                    active.remove(t_idx)
                    break
                if pos[t_idx] >= hi:
                    break
    return selection, processed, halted, count


# ---------------------------------------------------------------------------
# EM: running top-c merge over the tile grid.
# ---------------------------------------------------------------------------


def _top_c_merge(
    keys: np.ndarray, idx: np.ndarray, c: int
) -> Tuple[np.ndarray, np.ndarray]:
    """Each row's c largest keys (and their indices), key-descending.

    Equals ``argsort(-keys, kind="stable")[:, :c]``: ties keep their column
    order.  Instead of sorting whole rows it partitions out each row's c-th
    largest key, keeps every candidate ``>=`` it (all ties included), and
    stable-sorts only those, padded to the widest row with ``-inf`` keys
    that sort after every candidate.
    """
    trials, m = keys.shape
    order = None
    if m > c:
        kth = np.partition(keys, m - c, axis=1)[:, m - c]
        rows, cols = np.nonzero(keys >= kth[:, None])
        counts = np.bincount(rows, minlength=trials)
        # A row has fewer than c candidates only if NaN keys (which the
        # partition ranks largest, the sort last) crowd out its kth.
        if counts.min() >= c:
            slots = np.arange(rows.size) - (np.cumsum(counts) - counts)[rows]
            cand = np.full((trials, int(counts.max())), -np.inf)
            cand_cols = np.zeros(cand.shape, dtype=np.int64)
            cand[rows, slots] = keys[rows, cols]
            cand_cols[rows, slots] = cols
            order = np.argsort(-cand, axis=1, kind="stable")[:, :c]
            order = np.take_along_axis(cand_cols, order, axis=1)
    if order is None:
        order = np.argsort(-keys, axis=1, kind="stable")[:, :c]
    return np.take_along_axis(keys, order, axis=1), np.take_along_axis(idx, order, axis=1)


def _fold_em(
    source: ScoreSource,
    tiles: Sequence[Tuple[int, int]],
    gumbel_iter,
    epsilon: float,
    c: int,
    delta: float,
    monotonic: bool,
    trials: int,
):
    """c-round EM selections via a streaming row-wise top-c merge.

    Keys are ``logits + gumbel`` exactly as the dense kernel computes them;
    the per-tile merge (:func:`_top_c_merge`) keeps each trial's c best
    ``(key, index)`` pairs in key-descending order with ties to the lower
    index — the dense stable-argsort order.
    """
    from repro.mechanisms.exponential import _validate_eps, _validate_sensitivity

    n = source.n
    if n == 0:
        raise InvalidParameterError("values must be a non-empty (trials, n) matrix")
    c_eff = int(min(c, n))
    sensitivity = _validate_sensitivity(delta)
    per_round = _validate_eps(epsilon) / c_eff
    denom = sensitivity if monotonic else 2.0 * sensitivity
    scale = per_round / denom

    best_keys = np.empty((trials, 0), dtype=float)
    best_idx = np.empty((trials, 0), dtype=np.int64)
    for lo, hi in tiles:
        w = hi - lo
        gumbel = next(gumbel_iter)
        if w == 0:
            continue
        v = source.block(lo, hi)
        keys = scale * v[None, :] + gumbel
        idx = np.broadcast_to(np.arange(lo, hi, dtype=np.int64), (trials, w))
        best_keys, best_idx = _top_c_merge(
            np.concatenate([best_keys, keys], axis=1),
            np.concatenate([best_idx, idx], axis=1),
            c_eff,
        )
    return best_idx


# ---------------------------------------------------------------------------
# Retraversal: literal multi-pass rescans, tiles iterated per pass.
# ---------------------------------------------------------------------------


def _fold_retraversal(
    source: ScoreSource,
    thrv: _ThresholdView,
    tiles: Sequence[Tuple[int, int]],
    streams: TrialStreams,
    allocation: BudgetAllocation,
    c: int,
    delta: float,
    monotonic: bool,
    threshold_bump_d: float,
    max_passes: int,
):
    """SVT-ReTr with the n axis tiled inside each pass.

    Per pass and per tile, each still-active trial draws fresh Laplace noise
    for its *available* (not yet selected) positions in that tile — the
    sequence of per-tile draws concatenates to exactly the one
    available-width block the dense literal path draws per pass, so
    selection order, ``passes``, and ``examined`` match it bit for bit.
    Availability is reconstructed from the O(c) selected-position sets, not
    a (trials, n) mask.
    """
    from repro.engine.retraversal import _validate_retraversal

    _validate_retraversal(c, delta, threshold_bump_d, max_passes)
    trials = len(streams)
    n = source.n
    c_eff = int(min(c, n)) if n else int(c)
    factor = c_eff if monotonic else 2 * c_eff
    query_scale = factor * delta / allocation.eps2
    bump = threshold_bump_d * math.sqrt(2.0) * query_scale
    rho = streams.rho(delta / allocation.eps1)

    selection = np.full((trials, max(c_eff, 1)), -1, dtype=np.int64)
    count = np.zeros(trials, dtype=np.int64)
    passes = np.zeros(trials, dtype=np.int64)
    examined = np.zeros(trials, dtype=np.int64)
    picked_positions: List[List[int]] = [[] for _ in range(trials)]
    active = (
        np.ones(trials, dtype=bool)
        if n and c_eff > 0
        else np.zeros(trials, dtype=bool)
    )

    while active.any():
        idx = np.nonzero(active)[0]
        stopped = np.zeros(trials, dtype=bool)
        new_picks: List[List[int]] = [[] for _ in range(trials)]
        for lo, hi in tiles:
            w = hi - lo
            if w == 0:
                continue
            v = source.block(lo, hi)
            t = thrv(lo, hi)
            avail = np.ones((idx.size, w), dtype=bool)
            nu = np.zeros((idx.size, w), dtype=float)
            for row, t_idx in enumerate(idx):
                for p in picked_positions[t_idx]:
                    if lo <= p < hi:
                        avail[row, p - lo] = False
                m = int(avail[row].sum())
                if m:
                    # Drawn even for trials already stopped this pass: the
                    # dense path samples the whole pass's block up front.
                    nu[row, avail[row]] = streams.gens[t_idx].laplace(
                        scale=query_scale, size=m
                    )
            above = avail & (v[None, :] + nu >= t[None, :] + bump + rho[idx, None])
            cum = np.cumsum(above, axis=1)
            for row, t_idx in enumerate(idx):
                if stopped[t_idx]:
                    continue
                need = c_eff - count[t_idx] - len(new_picks[t_idx])
                row_above = above[row]
                row_cum = cum[row]
                hit_cols = np.nonzero(row_above & (row_cum == need))[0]
                if hit_cols.size:
                    stop_col = int(hit_cols[0])
                    stopped[t_idx] = True
                else:
                    stop_col = w - 1
                examined[t_idx] += int(avail[row, : stop_col + 1].sum())
                pick_cols = np.nonzero(row_above[: stop_col + 1])[0]
                new_picks[t_idx].extend(lo + int(p) for p in pick_cols)
        for t_idx in idx:
            for p in new_picks[t_idx]:
                selection[t_idx, count[t_idx]] = p
                count[t_idx] += 1
                picked_positions[t_idx].append(p)
            passes[t_idx] += 1
            active[t_idx] = (
                count[t_idx] < c_eff
                and passes[t_idx] < max_passes
                and count[t_idx] < n
            )
    return selection, passes, examined, count < c_eff, count, c_eff


# ---------------------------------------------------------------------------
# Cell assembly and the chunk entry point.
# ---------------------------------------------------------------------------


def _assemble(
    key: str,
    epsilon: float,
    c: int,
    trials: int,
    n: int,
    selection: np.ndarray,
    processed: np.ndarray,
    halted: np.ndarray,
    num_positives: np.ndarray,
    source: ScoreSource,
    topc: Optional[Tuple[float, float, int]],
    compute_metrics: bool,
    mask: Optional[np.ndarray],
    keep_mask: bool,
    passes: Optional[np.ndarray] = None,
    exhausted: Optional[np.ndarray] = None,
):
    if compute_metrics:
        if topc is None:
            topc = topc_stats(source, c)
        top_sum, boundary, slots_above = topc
        valid = selection >= 0
        picked = np.full(selection.shape, -np.inf)
        if valid.any():
            picked[valid] = source.take(selection[valid])
        ser, fnr = metrics_from_topc(picked, valid, c, top_sum, boundary, slots_above)
    else:
        ser = fnr = np.full(trials, np.nan)
    if mask is None and keep_mask:
        mask = _scatter_selection(selection, trials, n)
    return TrialBatch(
        variant=key,
        epsilon=float(epsilon),
        c=c,
        trials=trials,
        n=n,
        processed=processed,
        halted=halted,
        num_positives=num_positives,
        selection=selection,
        ser=ser,
        fnr=fnr,
        positives_mask=mask,
        passes=passes,
        exhausted=exhausted,
    )


def _tiled_cell(
    key: str,
    epsilon: float,
    *,
    source: ScoreSource,
    thrv: _ThresholdView,
    tiles: Sequence[Tuple[int, int]],
    streams: TrialStreams,
    c: int,
    delta: float,
    monotonic: bool,
    ratio,
    threshold_bump_d: float,
    max_passes: int,
    compute_metrics: bool,
    topc,
    keep_mask: bool,
    unit: Optional[_UnitTiles],
):
    trials = len(streams)
    n = source.n
    if key == "retraversal":
        allocation = BudgetAllocation.from_ratio(
            epsilon, c, ratio=ratio if ratio is not None else "1:1", monotonic=monotonic
        )
        selection, passes, examined, exhausted, count, _c_eff = _fold_retraversal(
            source, thrv, tiles, streams, allocation, c, delta, monotonic,
            threshold_bump_d, max_passes,
        )
        return _assemble(
            key, epsilon, c, trials, n, selection, examined, ~exhausted, count,
            source, topc, compute_metrics, None, keep_mask,
            passes=passes, exhausted=exhausted,
        )
    if key == "em":
        if unit is not None:
            gumbel_iter = _unit_replay_iter(streams, unit.states, tiles, "gumbel", 1.0)
        else:
            gumbel_iter = _live_iter(streams, tiles, "gumbel")
        selection = _fold_em(
            source, tiles, gumbel_iter, epsilon, c, delta, monotonic, trials
        )
        processed = np.full(trials, n, dtype=np.int64)
        halted = np.zeros(trials, dtype=bool)
        num_positives = (selection >= 0).sum(axis=1)
        return _assemble(
            key, epsilon, c, trials, n, selection, processed, halted, num_positives,
            source, topc, compute_metrics, None, keep_mask,
        )
    if key == "alg1":
        allocation = BudgetAllocation.from_ratio(
            epsilon, c, ratio=ratio if ratio is not None else "1:1", monotonic=monotonic
        )
        rho_scale, nu_scale = _svt_scales(allocation, c, delta, monotonic)
        refresh_scale = None
        cutoff = True
    else:
        plan = noise_plan(key, epsilon, c, delta)
        rho_scale, nu_scale = plan.rho_scale, plan.nu_scale
        refresh_scale = plan.refresh_scale
        cutoff = plan.cutoff

    rho = unit.rho * rho_scale if unit is not None else streams.rho(rho_scale)
    mask_out = (
        np.zeros((trials, n), dtype=bool) if (keep_mask and key in ("alg5", "alg6", "gptt")) else None
    )
    if key == "alg2":
        selection, processed, halted, count = _fold_dpbook(
            source, thrv, tiles, streams, rho, nu_scale, refresh_scale, c,
            unit.states if unit is not None else None,
        )
        return _assemble(
            key, epsilon, c, trials, n, selection, processed, halted, count,
            source, topc, compute_metrics, None, keep_mask,
        )
    if nu_scale is None:
        nu_iter = None
    elif unit is not None:
        nu_iter = _unit_replay_iter(streams, unit.states, tiles, "laplace", nu_scale)
    else:
        nu_iter = _live_iter(streams, tiles, "laplace", nu_scale)
    selection, processed, halted, count = _fold_single_pass(
        source, thrv, tiles, rho, nu_iter, c, cutoff, mask_out
    )
    return _assemble(
        key, epsilon, c, trials, n, selection, processed, halted, count,
        source, topc, compute_metrics, mask_out, keep_mask,
    )


def run_tiled_chunk(
    key: str,
    source: ScoreSource,
    epsilons: Union[float, Sequence[float]],
    c: int,
    trials: int,
    rngs: Sequence[np.random.Generator],
    tiles: Sequence[Tuple[int, int]],
    thresholds: Union[float, Sequence[float]] = 0.0,
    sensitivity: float = 1.0,
    monotonic: bool = False,
    ratio=None,
    threshold_bump_d: float = 0.0,
    max_passes: int = 100,
    compute_metrics: bool = True,
    share_noise: bool = True,
    topc: Optional[Tuple[float, float, int]] = None,
    keep_positives_mask: Optional[bool] = None,
):
    """Run one trial chunk of one variant over the two-axis tile grid.

    ``rngs`` must be per-trial generators (the execution layer's derived
    streams); ``tiles`` the ``[lo, hi)`` query ranges in scan order covering
    ``source``.  ``topc`` optionally carries a precomputed
    :func:`~repro.data.scores.topc_stats` triple so sharded chunks don't
    re-stream the reference.  ``keep_positives_mask=None`` materializes the
    (trials, n) mask only under :data:`MASK_MATERIALIZE_LIMIT`.

    Returns a :class:`~repro.engine.trials.TrialBatch` (or ``{epsilon:
    TrialBatch}`` for a grid) bit-identical to the dense per-trial-stream
    engine run with the same generators.
    """
    if len(rngs) != trials:
        raise InvalidParameterError(
            f"got {len(rngs)} per-trial generators for {trials} trials"
        )
    streams = TrialStreams(rngs)
    n = source.n
    thrv = _ThresholdView(thresholds, n)
    delta = float(sensitivity)
    keep_mask = (
        trials * n <= MASK_MATERIALIZE_LIMIT
        if keep_positives_mask is None
        else bool(keep_positives_mask)
    )
    cell_kwargs = dict(
        source=source, thrv=thrv, tiles=tiles, streams=streams, c=c, delta=delta,
        monotonic=monotonic, ratio=ratio, threshold_bump_d=threshold_bump_d,
        max_passes=max_passes, compute_metrics=compute_metrics, topc=topc,
        keep_mask=keep_mask,
    )
    if not np.isscalar(epsilons):
        eps_list = [float(eps) for eps in epsilons]
        if not share_noise:
            return {
                eps: _tiled_cell(key, eps, unit=None, **cell_kwargs)
                for eps in eps_list
            }
        unit = _draw_unit_tiles(key, streams, tiles)
        return {
            eps: _tiled_cell(key, eps, unit=unit, **cell_kwargs) for eps in eps_list
        }
    return _tiled_cell(key, float(epsilons), unit=None, **cell_kwargs)
