"""Two-axis tiled execution: tiled must equal dense, bit for bit.

The out-of-core contract: for every registry variant and every
``(chunk_trials, chunk_n)`` grid, running over a lazy ``ScoreSource`` with
the query axis tiled produces exactly the dense per-trial-stream result —
selections, ``processed``/``passes``/``examined`` accounting, positives,
SER/FNR.  Plus the planner's forced-tiling fallback, the epsilon-grid
shared-noise path, the mask-materialization policy, shuffle rejection, Alg. 2's
noise cursors at a scale where scans cross tiles, the EM top-c merge's tie
order, and the number of score-tile reads per call.
"""

from collections import Counter

import numpy as np
import pytest

import repro.engine.tiled as tiled_mod
from repro.data.scores import DenseScores, GeneratorScores, MemmapScores, ScoreSource
from repro.engine.plans import plan_trials
from repro.engine.trials import run_trials
from repro.exceptions import InvalidParameterError
from repro.rng import derive_rngs

ALL_KEYS = (
    "alg1", "alg2", "alg3", "alg4", "alg5", "alg6", "gptt", "retraversal", "em",
)

FIELDS = (
    "selection", "processed", "halted", "num_positives", "ser", "fnr",
    "positives_mask", "passes", "exhausted",
)


@pytest.fixture(scope="module")
def scores():
    gen = np.random.default_rng(3)
    return np.sort(gen.pareto(1.2, 143))[::-1] * 40


def assert_batches_equal(a, b, msg=""):
    for field in FIELDS:
        left, right = getattr(a, field), getattr(b, field)
        if left is None and right is None:
            continue
        assert left is not None and right is not None, f"{msg}: {field} None mismatch"
        np.testing.assert_array_equal(left, right, err_msg=f"{msg}: {field}")


class TestTiledEqualsDense:
    @pytest.mark.parametrize("key", ALL_KEYS)
    @pytest.mark.parametrize("chunk_n", (1, 11, 64, 143, 500))
    def test_bit_identical_every_variant(self, scores, key, chunk_n):
        """The tentpole guarantee, over the whole (variant, chunk_n) grid."""
        c, eps, trials = 4, 0.6, 7
        kwargs = dict(
            thresholds=float(scores[c]), allow_non_private=True, monotonic=True,
        )
        dense = run_trials(
            key, scores, eps, c, trials,
            rng=derive_rngs(2, trials, "tiled", key), **kwargs,
        )
        tiled = run_trials(
            key, scores, eps, c, trials,
            rng=derive_rngs(2, trials, "tiled", key), chunk_n=chunk_n, **kwargs,
        )
        assert_batches_equal(dense, tiled, f"{key} chunk_n={chunk_n}")

    @pytest.mark.parametrize("key", ("alg1", "alg2", "retraversal", "em"))
    @pytest.mark.parametrize("chunk_trials", (1, 3, 7))
    def test_both_axes_chunked(self, scores, key, chunk_trials):
        """chunk_trials x chunk_n grids: both axes split at once."""
        c, eps, trials = 3, 0.5, 7
        budget = chunk_trials * 29 * 64  # chunk_trials trials of 29-wide tiles
        kwargs = dict(thresholds=float(scores[c]), allow_non_private=True)
        dense = run_trials(
            key, scores, eps, c, trials,
            rng=derive_rngs(9, trials, "axes", key), **kwargs,
        )
        tiled = run_trials(
            key, scores, eps, c, trials,
            rng=derive_rngs(9, trials, "axes", key),
            chunk_n=29, max_bytes=budget, **kwargs,
        )
        assert_batches_equal(dense, tiled, f"{key} chunk_trials={chunk_trials}")

    def test_forced_tiling_when_row_exceeds_budget(self, scores):
        """A budget below one full-width row must tile, not overshoot."""
        plan = plan_trials(8, scores.size, max_bytes=scores.size * 8, variant="alg1")
        assert plan.tiled and plan.chunk_trials == 1
        a = run_trials(
            "alg1", scores, 0.7, 3, 8, thresholds=float(scores[3]),
            rng=6, max_bytes=scores.size * 8,
        )
        b = run_trials(
            "alg1", scores, 0.7, 3, 8, thresholds=float(scores[3]),
            rng=6, max_bytes=10**12,
        )
        assert_batches_equal(a, b, "forced tiling vs one chunk")

    @pytest.mark.parametrize("key", ("alg1", "alg2", "alg5", "retraversal", "em"))
    @pytest.mark.parametrize("share_noise", (True, False))
    def test_epsilon_grid_tiled(self, scores, key, share_noise):
        """Grid cells (shared unit noise or independent) survive tiling."""
        c, trials = 3, 6
        eps_grid = [0.2, 0.6, 1.1]
        kwargs = dict(
            thresholds=float(scores[c]), allow_non_private=True,
            share_noise=share_noise,
        )
        dense = run_trials(
            key, scores, eps_grid, c, trials,
            rng=derive_rngs(4, trials, "grid", key), **kwargs,
        )
        tiled = run_trials(
            key, scores, eps_grid, c, trials,
            rng=derive_rngs(4, trials, "grid", key), chunk_n=17, **kwargs,
        )
        assert set(dense) == set(tiled)
        for eps in eps_grid:
            assert_batches_equal(
                dense[eps], tiled[eps], f"{key} share={share_noise} eps={eps}"
            )

    def test_selection_sweep_grid_matches_per_epsilon_runs(self, scores):
        """Each tiled grid cell equals the standalone tiled run (the
        run_selection_sweep epsilon-grid guarantee on the tiled path)."""
        c, trials = 3, 5
        eps_grid = [0.3, 0.9]
        grid = run_trials(
            "alg1", scores, eps_grid, c, trials, thresholds=float(scores[c]),
            rng=derive_rngs(11, trials, "sweep"), chunk_n=23,
        )
        for eps in eps_grid:
            solo = run_trials(
                "alg1", scores, eps, c, trials, thresholds=float(scores[c]),
                rng=derive_rngs(11, trials, "sweep"), chunk_n=23,
            )
            np.testing.assert_array_equal(grid[eps].selection, solo.selection)
            np.testing.assert_array_equal(grid[eps].ser, solo.ser)

    @pytest.mark.parametrize("key", ("retraversal", "alg2"))
    def test_work_accounting_survives_tiling(self, scores, key):
        """examined/passes are the Section-5 work currency: exact, not close."""
        c, trials = 5, 9
        kwargs = dict(
            thresholds=float(scores[c]), allow_non_private=True,
            monotonic=True, threshold_bump_d=1.0, max_passes=7,
        )
        dense = run_trials(
            key, scores, 0.4, c, trials, rng=derive_rngs(7, trials, "work", key),
            **kwargs,
        )
        tiled = run_trials(
            key, scores, 0.4, c, trials, rng=derive_rngs(7, trials, "work", key),
            chunk_n=10, **kwargs,
        )
        np.testing.assert_array_equal(dense.examined, tiled.examined)
        if dense.passes is not None:
            np.testing.assert_array_equal(dense.passes, tiled.passes)
            np.testing.assert_array_equal(dense.exhausted, tiled.exhausted)


class TestScoreSources:
    def test_generator_and_memmap_match_dense(self, scores, tmp_path):
        """The same values through all three source kinds: same outputs."""
        path = tmp_path / "scores.f64"
        scores.astype(float).tofile(path)
        dense_src = DenseScores(scores)
        mm = MemmapScores(path)
        runs = [
            run_trials(
                "alg1", src, 0.6, 4, 6, thresholds=float(scores[4]),
                rng=derive_rngs(2, 6, "src"), chunk_n=19,
            )
            for src in (dense_src, mm)
        ]
        assert_batches_equal(runs[0], runs[1], "dense vs memmap")

    def test_generator_scores_visit_order_free(self):
        """GeneratorScores tiles derive from coordinates: a run that reads
        them through a different tile grid sees identical scores."""

        src = GeneratorScores.power_law(
            701, head_support=900.0, alpha=1.0, num_records=30_000, tile=64
        )
        thr = float(src.to_array()[5])
        a = run_trials("alg1", src, 0.5, 4, 5, thresholds=thr,
                       rng=derive_rngs(1, 5, "gen"), chunk_n=701)
        b = run_trials("alg1", src, 0.5, 4, 5, thresholds=thr,
                       rng=derive_rngs(1, 5, "gen"), chunk_n=53)
        assert_batches_equal(a, b, "tile-grid independence")

    def test_score_source_routes_through_exec(self):
        """Passing a ScoreSource (no other knobs) uses derived streams —
        the execution layer's semantics."""
        src = GeneratorScores.power_law(
            200, head_support=500.0, alpha=0.9, num_records=10_000
        )
        thr = float(src.block(4, 5)[0])
        via_source = run_trials("alg1", src, 0.5, 3, 4, thresholds=thr, rng=0)
        via_exec = run_trials(
            "alg1", src.to_array(), 0.5, 3, 4, thresholds=thr, rng=0,
            max_bytes=10**12,
        )
        assert_batches_equal(via_source, via_exec, "source vs exec")


class TestTiledPolicies:
    def test_shuffle_rejected(self, scores):
        with pytest.raises(InvalidParameterError):
            run_trials(
                "alg1", scores, 0.5, 3, 4, thresholds=float(scores[3]),
                rng=0, chunk_n=16, shuffle=True,
            )

    def test_mask_suppressed_above_limit(self, scores, monkeypatch):
        monkeypatch.setattr(tiled_mod, "MASK_MATERIALIZE_LIMIT", 10)
        batch = run_trials(
            "alg6", scores, 0.5, 3, 4, thresholds=float(scores[3]),
            rng=0, chunk_n=16, allow_non_private=True,
        )
        assert batch.positives_mask is None
        assert batch.num_positives.shape == (4,)
        with pytest.raises(InvalidParameterError):
            batch.positives(0)
        # Cutoff metrics and accounting still exact vs the mask-bearing run.
        monkeypatch.undo()
        full = run_trials(
            "alg6", scores, 0.5, 3, 4, thresholds=float(scores[3]),
            rng=0, chunk_n=16, allow_non_private=True,
        )
        np.testing.assert_array_equal(batch.selection, full.selection)
        np.testing.assert_array_equal(batch.num_positives, full.num_positives)
        np.testing.assert_array_equal(batch.ser, full.ser)

    def test_mask_limit_applies_to_total_trials(self, scores, monkeypatch):
        """Per-chunk masks may be under the limit while their merge is not:
        the policy must consider the merged (trials, n) height."""
        # 3 chunks x 3 trials: each chunk is 3*143=429 cells (under a 500-
        # cell limit) but the merged mask would be 1287 cells (over it).
        monkeypatch.setattr(tiled_mod, "MASK_MATERIALIZE_LIMIT", 500)
        tiled = run_trials(
            "alg1", scores, 0.5, 3, 9, thresholds=float(scores[3]), rng=0,
            chunk_n=50, max_bytes=3 * 50 * 64,
        )
        assert tiled.positives_mask is None
        # Same shape through the one-axis chunked path (dense per-chunk
        # masks dropped before the merge).
        chunked = run_trials(
            "alg1", scores, 0.5, 3, 9, thresholds=float(scores[3]), rng=0,
            max_bytes=3 * scores.size * 64,
        )
        assert chunked.positives_mask is None
        np.testing.assert_array_equal(tiled.num_positives, chunked.num_positives)

    def test_tiled_process_backend_identical(self, scores):
        kwargs = dict(thresholds=float(scores[3]), chunk_n=29,
                      max_bytes=2 * 29 * 64)
        serial = run_trials("alg1", scores, 0.7, 3, 8, rng=5, **kwargs)
        sharded = run_trials(
            "alg1", scores, 0.7, 3, 8, rng=5, parallel="process", workers=2,
            **kwargs,
        )
        assert_batches_equal(serial, sharded, "tiled serial vs process")

    def test_no_metrics_skips_topc(self):
        """compute_metrics=False must not stream the top-c reference (c may
        exceed n for transcript workloads)."""
        src = DenseScores(np.array([3.0, 1.0]))
        batch = run_trials(
            "alg1", src, 0.5, 5, 3, thresholds=0.0, rng=0, chunk_n=1,
            compute_metrics=False,
        )
        assert np.isnan(batch.ser).all()

    def test_bad_chunk_n_rejected(self, scores):
        with pytest.raises(InvalidParameterError):
            run_trials("alg1", scores, 0.5, 3, 4, rng=0, chunk_n=0)


@pytest.fixture(scope="module")
def shuffled_scores():
    """200k heavy-tailed scores in random order: the few above a high
    threshold sit tens of thousands of positions apart."""
    gen = np.random.default_rng(5)
    return gen.permutation(np.sort(gen.pareto(1.2, 200_003))[::-1] * 40)


class TestDpbookCursors:
    """Alg. 2's per-trial noise cursors where their steps matter: scans whose
    steps grow to the cap and that cross tile boundaries."""

    @pytest.mark.parametrize("chunk_n", (33_333, 70_001, 200_003))
    @pytest.mark.parametrize("eps", (1.0, (0.5, 1.0, 2.0)), ids=("live", "shared"))
    def test_sparse_hits_bit_identical(self, shuffled_scores, monkeypatch, chunk_n, eps):
        c, trials = 6, 5
        thr = float(np.sort(shuffled_scores)[::-1][3])
        scans = []
        scan = tiled_mod._scan_to_hit

        def recording_scan(gen, v, t, off, rho, draw_scale, mult, step):
            hit, step_out = scan(gen, v, t, off, rho, draw_scale, mult, step)
            scans.append((off, step, step_out))
            return hit, step_out

        monkeypatch.setattr(tiled_mod, "_scan_to_hit", recording_scan)
        eps_arg = list(eps) if isinstance(eps, tuple) else eps
        kwargs = dict(thresholds=thr, share_noise=True)
        dense = run_trials(
            "alg2", shuffled_scores, eps_arg, c, trials,
            rng=derive_rngs(1, trials, "cursor"), **kwargs,
        )
        tiled = run_trials(
            "alg2", shuffled_scores, eps_arg, c, trials,
            rng=derive_rngs(1, trials, "cursor"), chunk_n=chunk_n, **kwargs,
        )
        if isinstance(eps, tuple):
            assert set(dense) == set(tiled)
            pairs = [(dense[e], tiled[e]) for e in eps]
        else:
            pairs = [(dense, tiled)]
        for a, b in pairs:
            assert_batches_equal(a, b, f"alg2 eps={eps} chunk_n={chunk_n}")
        # The fixture really exercises the cursor: several hits per trial,
        # scans whose steps grow to the cap, and, when tiled, scans that
        # carry on into the next tile.
        assert (pairs[0][0].num_positives >= 2).all()
        assert any(out == tiled_mod._SCAN_STEP_CAP for _off, _step, out in scans)
        if chunk_n < shuffled_scores.size:
            assert any(off == 0 and step > tiled_mod._SCAN_STEP for off, step, _out in scans)

    def test_threshold_array(self, shuffled_scores):
        c, trials = 5, 4
        n = shuffled_scores.size
        thr = np.sort(shuffled_scores)[::-1][3] * np.linspace(0.8, 1.2, n)
        dense = run_trials(
            "alg2", shuffled_scores, 1.5, c, trials, thresholds=thr,
            rng=derive_rngs(3, trials, "cursor-thr"),
        )
        tiled = run_trials(
            "alg2", shuffled_scores, 1.5, c, trials, thresholds=thr,
            rng=derive_rngs(3, trials, "cursor-thr"), chunk_n=45_678,
        )
        assert_batches_equal(dense, tiled, "alg2 threshold array")


class CountingScores(ScoreSource):
    """Counts ``block`` reads per range of a wrapped source."""

    def __init__(self, inner: ScoreSource) -> None:
        self.inner = inner
        self.n = inner.n
        self.reads: Counter = Counter()

    def block(self, lo, hi):
        self.reads[(lo, hi)] += 1
        return self.inner.block(lo, hi)

    def take(self, indices):
        return self.inner.take(indices)


class TestTileReads:
    """Wall-clock-free work bounds: Alg. 2 reads each score tile O(1) times
    per call, not once per round per trial."""

    def _source(self):
        return CountingScores(GeneratorScores.power_law(
            20_000, head_support=5_000.0, alpha=1.0, num_records=50_000, tile=4096,
        ))

    def test_alg2_reads_each_tile_at_most_twice(self):
        src = self._source()
        c, trials = 12, 6
        thr = float(src.inner.block(c, c + 1)[0])
        batch = run_trials(
            "alg2", src, 0.5, c, trials, thresholds=thr, rng=derive_rngs(2, trials, "reads"),
            chunk_n=3_000, compute_metrics=False,
        )
        # Many more rounds than tiles were run ...
        assert batch.num_positives.sum() > 4 * len(src.reads)
        # ... yet each tile was read by the live sweep and one cursor pass.
        assert max(src.reads.values()) <= 2

    def test_alg2_shared_grid_reads_each_tile_once_per_cell(self):
        src = self._source()
        c, trials = 12, 6
        eps_grid = [0.3, 0.5, 0.9]
        thr = float(src.inner.block(c, c + 1)[0])
        run_trials(
            "alg2", src, eps_grid, c, trials, thresholds=thr,
            rng=derive_rngs(2, trials, "reads"), chunk_n=3_000, compute_metrics=False,
        )
        assert max(src.reads.values()) <= len(eps_grid)


def _em_reference(v, gumbel, scale, c):
    keys = scale * v[None, :] + gumbel
    return np.argsort(-keys, axis=1, kind="stable")[:, :c]


class TestEmMerge:
    """The partition-based top-c merge keeps the stable-argsort order:
    key-descending, ties to the lower index."""

    @pytest.mark.parametrize("width", (1, 2, 3, 7, 50))
    @pytest.mark.parametrize("noise", ("zero", "integer"))
    @pytest.mark.parametrize("n,c", ((40, 5), (4, 6), (40, 40)))
    def test_ties_match_stable_argsort(self, width, noise, n, c):
        trials = 5
        gen = np.random.default_rng(width * 31 + n)
        v = gen.integers(0, 3, size=n).astype(float)
        if noise == "zero":
            gumbel = np.zeros((trials, n))
        else:
            gumbel = gen.integers(0, 2, size=(trials, n)).astype(float)
        src = DenseScores(v)
        tiles = src.tile_bounds(width)
        stub = iter([gumbel[:, lo:hi] for lo, hi in tiles])
        eps, delta = 2.0, 1.0
        got = tiled_mod._fold_em(src, tiles, stub, eps, c, delta, True, trials)
        c_eff = min(c, n)
        scale = eps / c_eff / delta
        np.testing.assert_array_equal(got, _em_reference(v, gumbel, scale, c_eff))

    def test_merge_with_nan_and_inf_keys(self):
        keys = np.array([
            [1.0, np.nan, 3.0, np.nan, np.nan, 3.0, -np.inf],
            [-np.inf, -np.inf, -np.inf, 0.0, np.inf, np.inf, 2.0],
        ])
        idx = np.broadcast_to(np.arange(7), keys.shape)
        for c in (1, 2, 3, 6):
            order = np.argsort(-keys, axis=1, kind="stable")[:, :c]
            got_keys, got_idx = tiled_mod._top_c_merge(keys, idx, c)
            np.testing.assert_array_equal(got_idx, order)
            np.testing.assert_array_equal(got_keys, np.take_along_axis(keys, order, axis=1))
