"""Lazy score backends: the full query universe without the full array.

The paper's headline experiments run over the AOL item universe — 2,290,685
items — and every layer of the engine used to assume the score axis is one
dense in-memory array.  A :class:`ScoreSource` replaces that assumption with
the minimal out-of-core contract: a length ``n``, a dtype, and
``block(lo, hi)`` returning any requested slice as a fresh ndarray.  Blocks
must be *recomputable* — reading the same range twice returns the same
values, regardless of what was read in between — because the tiled engine
(:mod:`repro.engine.tiled`) holds at most one score tile at a time and
re-reads the others when it comes back to them: once per retraversal pass,
once per epsilon-grid cell, and once more for Alg. 2's rescans after its
first sweep.

Three concrete sources cover the deployment shapes:

* :class:`DenseScores` — wraps an in-memory array (the transparent upgrade
  path: :func:`as_score_source` turns any array-like into one);
* :class:`GeneratorScores` — distribution-backed: each fixed-size tile is
  derived from its own ``(seed, tile-index)`` coordinates, so tiles are
  recomputable and independent of visit order, and the full AOL-scale
  universe costs no resident memory at all;
* :class:`MemmapScores` — a file of raw scores mapped read-only, for score
  vectors that exist on disk but not in RAM.

:func:`topc_stats` computes the true top-c reference (sum, boundary value,
strict-above count) in one streaming pass — everything the SER/FNR metrics
need from the score multiset — and :class:`SourceDataset` adapts a source to
the experiment harness's dataset protocol.
"""

from __future__ import annotations

import math
from typing import Callable, Optional, Sequence, Tuple, Union

import numpy as np

from repro.exceptions import InvalidParameterError
from repro.rng import derive_rng

__all__ = [
    "ScoreSource",
    "DenseScores",
    "GeneratorScores",
    "MemmapScores",
    "SourceDataset",
    "as_score_source",
    "topc_values",
    "topc_stats",
    "DEFAULT_SCORE_TILE",
]

#: Default aligned tile width for sources that generate (rather than store)
#: their scores, and for streaming reductions over any source.
DEFAULT_SCORE_TILE = 262_144


class ScoreSource:
    """The lazy score contract: ``n`` items, ``block(lo, hi)`` slices.

    Subclasses implement :meth:`block`; everything else (``take``,
    ``to_array``, iteration over aligned tiles) is derived.  ``block`` must
    return a fresh 1-D float ndarray of length ``hi - lo`` and must be a pure
    function of the range — the tiled engine re-reads ranges freely.
    """

    #: Number of items (set by subclasses).
    n: int = 0

    @property
    def dtype(self) -> np.dtype:
        return np.dtype(float)

    def block(self, lo: int, hi: int) -> np.ndarray:
        raise NotImplementedError

    def _check_range(self, lo: int, hi: int) -> None:
        if not 0 <= lo <= hi <= self.n:
            raise InvalidParameterError(
                f"block range [{lo}, {hi}) outside [0, {self.n})"
            )

    def _take_tile(self) -> int:
        """Grouping width for :meth:`take` block reads (sources with their
        own aligned tile override so gathers align with their cache)."""
        return DEFAULT_SCORE_TILE

    def take(self, indices) -> np.ndarray:
        """Scores at arbitrary *indices* (grouped into block reads).

        The default groups the requested indices by aligned tile so each
        tile is materialized at most once; dense and memmap sources override
        with direct fancy indexing.
        """
        idx = np.asarray(indices, dtype=np.int64).ravel()
        if idx.size == 0:
            return np.empty(0, dtype=float)
        if idx.min() < 0 or idx.max() >= self.n:
            raise InvalidParameterError("take indices out of range")
        width = self._take_tile()
        out = np.empty(idx.size, dtype=float)
        tiles = idx // width
        for tile in np.unique(tiles):
            lo = int(tile) * width
            hi = min(lo + width, self.n)
            values = self.block(lo, hi)
            mask = tiles == tile
            out[mask] = values[idx[mask] - lo]
        return out

    def to_array(self) -> np.ndarray:
        """Materialize the whole vector (small-n paths and adapters only)."""
        return self.block(0, self.n)

    def tile_bounds(self, tile: int = DEFAULT_SCORE_TILE):
        """The aligned ``[lo, hi)`` ranges covering the source, in order."""
        if tile <= 0:
            raise InvalidParameterError("tile must be > 0")
        return [(lo, min(lo + tile, self.n)) for lo in range(0, self.n, tile)]

    def __len__(self) -> int:
        return int(self.n)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}(n={self.n})"


class DenseScores(ScoreSource):
    """An in-memory score vector wrapped in the lazy contract."""

    def __init__(self, scores) -> None:
        arr = np.asarray(scores, dtype=float)
        if arr.ndim != 1:
            raise InvalidParameterError("scores must be a 1-D sequence")
        self._scores = arr
        self.n = int(arr.size)

    def block(self, lo: int, hi: int) -> np.ndarray:
        self._check_range(lo, hi)
        return self._scores[lo:hi].astype(float, copy=False)

    def take(self, indices) -> np.ndarray:
        idx = np.asarray(indices, dtype=np.int64).ravel()
        if idx.size and (idx.min() < 0 or idx.max() >= self.n):
            raise InvalidParameterError("take indices out of range")
        return self._scores[idx].astype(float, copy=False)

    def to_array(self) -> np.ndarray:
        return self._scores


#: A tile sampler: ``(rng, lo, hi) -> (hi - lo,) scores`` for one aligned tile.
TileSampler = Callable[[np.random.Generator, int, int], np.ndarray]


def _power_law_tile(params: tuple, rng, lo: int, hi: int) -> np.ndarray:
    """Closed-form power-law supports for one tile (module-level: picklable)."""
    head, alpha, num_records = params
    ranks = np.arange(lo + 1, hi + 1, dtype=float)
    supports = head * ranks ** (-alpha)
    return np.clip(np.rint(supports), 1.0, float(num_records))


class _PowerLawSampler:
    """Picklable wrapper binding :func:`_power_law_tile` to its parameters."""

    def __init__(self, head: float, alpha: float, num_records: int) -> None:
        self.params = (float(head), float(alpha), int(num_records))

    def __call__(self, rng, lo: int, hi: int) -> np.ndarray:
        return _power_law_tile(self.params, rng, lo, hi)


class GeneratorScores(ScoreSource):
    """Distribution-backed scores derived tile by tile from coordinates.

    Each aligned tile ``[k * tile, (k+1) * tile)`` is produced by calling
    ``sampler(rng_k, lo, hi)`` where ``rng_k`` is derived from ``(seed,
    "scores", k)`` alone — never from a live stream — so any tile can be
    recomputed at any time, in any order, on any worker, and always comes
    out identical.  ``block`` assembles arbitrary ranges from the overlapped
    aligned tiles, which keeps results independent of how the engine happens
    to tile the n axis.

    The sampler may ignore its rng entirely (deterministic closed forms like
    :meth:`power_law`); randomized samplers stay reproducible through the
    derived generator.  For ``parallel="process"`` runs the sampler must be
    picklable (a module-level function or a small callable object).
    """

    def __init__(
        self,
        n: int,
        sampler: TileSampler,
        seed: int = 0,
        tile: int = DEFAULT_SCORE_TILE,
    ) -> None:
        if int(n) < 0:
            raise InvalidParameterError("n must be non-negative")
        if int(tile) <= 0:
            raise InvalidParameterError("tile must be > 0")
        self.n = int(n)
        self._sampler = sampler
        self._seed = int(seed)
        self._tile = int(tile)
        # One-tile cache: the service hot path reads single items, and the
        # engine re-reads the same tile across passes/epsilons — without it
        # every scalar read would regenerate a full aligned tile.
        self._cached_k: Optional[int] = None
        self._cached_values: Optional[np.ndarray] = None

    @classmethod
    def power_law(
        cls,
        n: int,
        head_support: float,
        alpha: float,
        num_records: int,
        seed: int = 0,
        tile: int = DEFAULT_SCORE_TILE,
    ) -> "GeneratorScores":
        """The AOL-shape synthetic: ``s_i = clip(rint(head * i^-alpha), 1, R)``.

        A jitter-free :func:`repro.data.generators.power_law_supports`: the
        score of rank i is a pure function of i, so the 2.3M-item universe
        needs no resident array at all.
        """
        if head_support <= 0 or alpha < 0:
            raise InvalidParameterError("head_support must be > 0 and alpha >= 0")
        return cls(n, _PowerLawSampler(head_support, alpha, num_records), seed=seed, tile=tile)

    def _take_tile(self) -> int:
        return self._tile

    def take(self, indices) -> np.ndarray:
        """Gather via the aligned tiles directly — no per-read slice copy.

        With the one-tile cache this makes repeated scalar reads (the
        service streaming path) O(1) after the first touch of a tile.
        """
        idx = np.asarray(indices, dtype=np.int64).ravel()
        if idx.size == 0:
            return np.empty(0, dtype=float)
        if idx.min() < 0 or idx.max() >= self.n:
            raise InvalidParameterError("take indices out of range")
        out = np.empty(idx.size, dtype=float)
        tiles = idx // self._tile
        for k in np.unique(tiles):
            values = self._aligned_tile(int(k))
            mask = tiles == k
            out[mask] = values[idx[mask] - int(k) * self._tile]
        return out

    def _aligned_tile(self, k: int) -> np.ndarray:
        if k == self._cached_k:
            return self._cached_values
        lo = k * self._tile
        hi = min(lo + self._tile, self.n)
        rng = derive_rng(self._seed, "scores", k)
        values = np.asarray(self._sampler(rng, lo, hi), dtype=float)
        if values.shape != (hi - lo,):
            raise InvalidParameterError(
                f"sampler returned shape {values.shape} for tile [{lo}, {hi})"
            )
        self._cached_k, self._cached_values = k, values
        return values

    def block(self, lo: int, hi: int) -> np.ndarray:
        self._check_range(lo, hi)
        if lo == hi:
            return np.empty(0, dtype=float)
        first, last = lo // self._tile, (hi - 1) // self._tile
        parts = [self._aligned_tile(k) for k in range(first, last + 1)]
        out = parts[0] if len(parts) == 1 else np.concatenate(parts)
        start = lo - first * self._tile
        return out[start : start + (hi - lo)].copy()

    def __getstate__(self):
        # Workers regenerate tiles from coordinates; don't ship the cache.
        state = self.__dict__.copy()
        state["_cached_k"] = None
        state["_cached_values"] = None
        return state


class MemmapScores(ScoreSource):
    """Scores stored in a raw binary file, mapped read-only.

    ``path`` holds ``n`` items of *dtype* (default float64) laid out flat —
    what ``array.tofile(path)`` writes.  Blocks are copied out of the map so
    callers can mutate them freely.
    """

    def __init__(self, path, dtype=np.float64, n: Optional[int] = None) -> None:
        self._path = str(path)
        self._dtype = np.dtype(dtype)
        self._map = np.memmap(self._path, dtype=self._dtype, mode="r")
        if n is not None:
            if int(n) > self._map.size:
                raise InvalidParameterError(
                    f"file holds {self._map.size} items, asked for n={n}"
                )
            self._map = self._map[: int(n)]
        self.n = int(self._map.size)

    @property
    def dtype(self) -> np.dtype:
        return self._dtype

    def block(self, lo: int, hi: int) -> np.ndarray:
        self._check_range(lo, hi)
        # astype always copies: a float64 file would otherwise hand back a
        # read-only view pinning the map, breaking the fresh-ndarray contract.
        return self._map[lo:hi].astype(float)

    def take(self, indices) -> np.ndarray:
        idx = np.asarray(indices, dtype=np.int64).ravel()
        if idx.size and (idx.min() < 0 or idx.max() >= self.n):
            raise InvalidParameterError("take indices out of range")
        return np.asarray(self._map[idx], dtype=float)

    def __reduce__(self):
        # Re-open the map in the worker instead of pickling the mapped pages.
        return (type(self), (self._path, self._dtype, self.n))


def as_score_source(scores) -> ScoreSource:
    """Coerce *scores* (source, array, or sequence) into a :class:`ScoreSource`."""
    if isinstance(scores, ScoreSource):
        return scores
    return DenseScores(scores)


def topc_values(
    source: Union[ScoreSource, Sequence[float]],
    c: int,
    tile: int = DEFAULT_SCORE_TILE,
) -> np.ndarray:
    """The c highest scores, ascending, from one streaming pass over *source*.

    Matches ``np.sort(scores)[-c:]`` exactly (same value multiset, same
    ascending order) without materializing the score vector.
    """
    src = as_score_source(source)
    if not isinstance(c, (int, np.integer)) or int(c) <= 0:
        raise InvalidParameterError(f"c must be a positive integer, got {c!r}")
    c = int(c)
    if c > src.n:
        raise InvalidParameterError(f"c={c} exceeds the number of candidates {src.n}")
    best = np.empty(0, dtype=float)
    for lo, hi in src.tile_bounds(tile):
        merged = np.concatenate([best, src.block(lo, hi)])
        if merged.size > c:
            merged = merged[np.argpartition(merged, merged.size - c)[merged.size - c :]]
        best = merged
    return np.sort(best)


def topc_stats(
    source: Union[ScoreSource, Sequence[float]],
    c: int,
    tile: int = DEFAULT_SCORE_TILE,
) -> Tuple[float, float, int]:
    """``(top_sum, boundary, slots_above)`` — the SER/FNR top-c reference.

    ``top_sum`` is the ascending-order sum of the c highest scores (the same
    summation order the dense metrics use), ``boundary`` the c-th highest
    score, and ``slots_above`` the number of scores strictly above the
    boundary (every such score is necessarily in the top c, so it is counted
    from the top-c vector alone).
    """
    top = topc_values(source, c, tile)
    boundary = float(top[0])
    if not math.isfinite(boundary):
        raise InvalidParameterError("top-c scores must be finite")
    return float(top.sum()), boundary, int(np.count_nonzero(top > boundary))


class SourceDataset:
    """Adapter giving a lazy :class:`ScoreSource` the dataset harness protocol.

    Provides the pieces :func:`repro.experiments.runner.run_selection_experiment`
    consumes — ``name``, ``supports``, ``num_items``, ``threshold_for_c``,
    ``head`` — with the threshold computed by a streaming top-(c+1) rather
    than a sort of the materialized vector.  ``supports`` does materialize
    (the shuffle-protocol harness is inherently dense in n); pair it with the
    harness's ``max_bytes`` so the (trials, n) working set stays bounded.
    """

    def __init__(self, name: str, source: ScoreSource, num_records: int = 0) -> None:
        self.name = str(name)
        self.source = as_score_source(source)
        self.num_records = int(num_records)

    @property
    def num_items(self) -> int:
        return int(self.source.n)

    @property
    def supports(self) -> np.ndarray:
        return self.source.to_array()

    def top_c_scores(self, c: int) -> np.ndarray:
        if c <= 0:
            raise InvalidParameterError(f"c must be positive, got {c!r}")
        return topc_values(self.source, min(int(c), self.num_items))[::-1]

    def threshold_for_c(self, c: int) -> float:
        """The paper's threshold: average of the c-th and (c+1)-th scores."""
        if c <= 0:
            raise InvalidParameterError(f"c must be positive, got {c!r}")
        if c >= self.num_items:
            if not self.num_items:
                return 0.0
            return float(
                min(self.source.block(lo, hi).min() for lo, hi in self.source.tile_bounds())
            )
        top = topc_values(self.source, int(c) + 1)  # ascending: [c+1-th, c-th, ...]
        return float(top[0] + top[1]) / 2.0

    def head(self, n: int = 300) -> np.ndarray:
        return self.source.block(0, min(int(n), self.num_items))

    def __len__(self) -> int:
        return self.num_items
