"""The multi-trial engine layer: noise blocks, trial batches, metrics."""

import numpy as np
import pytest
from scipy import stats

from repro.attacks.estimator import event_frequency
from repro.core.allocation import BudgetAllocation
from repro.core.svt import run_svt_batch
from repro.engine.noise import laplace_matrix, laplace_vector
from repro.engine.trials import (
    cut_matrix,
    run_trials,
    selection_matrix,
    svt_selection_matrix,
    transcript_sampler,
)
from repro.exceptions import InvalidParameterError, NonPrivateMechanismError
from repro.metrics.utility import (
    batch_selection_metrics,
    false_negative_rate,
    score_error_rate,
)
from repro.rng import derive_rng, derive_rngs
from repro.variants.dpbook import run_dpbook
from repro.variants.registry import ALGORITHMS


class TestDeriveRngs:
    def test_matches_scalar_derivation(self):
        rngs = derive_rngs(99, 5, "mech", "alg1", 10)
        for i, gen in enumerate(rngs):
            expected = derive_rng(99, "mech", "alg1", 10, i)
            assert gen.normal() == expected.normal()

    def test_negative_n_rejected(self):
        with pytest.raises(ValueError):
            derive_rngs(0, -1)


class TestNoiseBlocks:
    def test_single_generator_one_block(self):
        a = laplace_matrix(np.random.default_rng(3), 2.0, 4, 7)
        b = np.random.default_rng(3).laplace(scale=2.0, size=(4, 7))
        np.testing.assert_array_equal(a, b)

    def test_per_trial_rows_match_streams(self):
        rngs = derive_rngs(1, 3, "noise")
        block = laplace_matrix(rngs, 1.5, 3, 6)
        for i in range(3):
            gen = derive_rng(1, "noise", i)
            np.testing.assert_array_equal(block[i], gen.laplace(scale=1.5, size=6))

    def test_vector_then_matrix_per_stream_order(self):
        """rho then nu per trial stream — the run_svt_batch draw order."""
        rngs = derive_rngs(2, 2, "noise")
        rho = laplace_vector(rngs, 3.0, 2)
        nu = laplace_matrix(rngs, 1.0, 2, 4)
        gen = derive_rng(2, "noise", 0)
        assert rho[0] == gen.laplace(scale=3.0)
        np.testing.assert_array_equal(nu[0], gen.laplace(scale=1.0, size=4))

    def test_wrong_list_length_rejected(self):
        with pytest.raises(InvalidParameterError):
            laplace_matrix(derive_rngs(0, 2), 1.0, 3, 4)


class TestCutAndSelection:
    def test_cut_matrix_rows(self):
        above = np.array(
            [[True, True, False], [False, False, False], [True, False, True]]
        )
        processed, halted = cut_matrix(above, 2)
        np.testing.assert_array_equal(processed, [2, 3, 3])
        np.testing.assert_array_equal(halted, [True, False, True])
        processed, halted = cut_matrix(above, 0)
        np.testing.assert_array_equal(processed, [3, 3, 3])
        np.testing.assert_array_equal(halted, [False, False, False])

    def test_selection_matrix_caps_at_c(self):
        above = np.array([[True, True, True, True]])
        sel, counts = selection_matrix(above, 2)
        np.testing.assert_array_equal(sel, [[0, 1]])
        np.testing.assert_array_equal(counts, [2])

    def test_selection_respects_processed_prefix(self):
        above = np.array([[True, False, True, True]])
        sel, counts = selection_matrix(above, 3, processed=np.array([3]))
        np.testing.assert_array_equal(sel, [[0, 2, -1]])
        np.testing.assert_array_equal(counts, [2])


class TestBatchMetrics:
    @pytest.mark.parametrize("seed", range(20))
    def test_matches_scalar_metrics(self, seed):
        """Vectorized SER/FNR ≡ the per-trial two-pointer, ties included."""
        gen = np.random.default_rng(seed)
        # Integer scores with many duplicates exercise the tie handling.
        scores = gen.integers(0, 8, 30).astype(float)
        if np.sort(scores)[-5:].sum() <= 0:
            scores[0] = 5.0
        c = int(gen.integers(1, 6))
        trials = 10
        picks = [
            gen.choice(30, size=gen.integers(0, 10), replace=False) for _ in range(trials)
        ]
        width = max(max((p.size for p in picks), default=0), 1)
        sel = np.full((trials, width), -1, dtype=np.int64)
        for t, p in enumerate(picks):
            sel[t, : p.size] = p
        ser, fnr = batch_selection_metrics(scores, sel, c)
        for t, p in enumerate(picks):
            assert ser[t] == pytest.approx(score_error_rate(scores, p, c))
            assert fnr[t] == pytest.approx(false_negative_rate(scores, p, c))

    def test_requires_base_scores_for_2d(self):
        with pytest.raises(InvalidParameterError):
            batch_selection_metrics(np.ones((2, 3)), np.zeros((2, 1), dtype=np.int64), 1)

    def test_duplicate_indices_rejected(self):
        scores = np.array([3.0, 2.0, 1.0])
        with pytest.raises(InvalidParameterError):
            batch_selection_metrics(scores, np.array([[0, 0]]), 2)

    def test_out_of_range_indices_rejected(self):
        scores = np.array([3.0, 2.0, 1.0])
        with pytest.raises(InvalidParameterError):
            batch_selection_metrics(scores, np.array([[0, 3]]), 2)
        with pytest.raises(InvalidParameterError):
            batch_selection_metrics(scores, np.array([[-2, 0]]), 2)


@pytest.fixture(scope="module")
def scores():
    gen = np.random.default_rng(0)
    return np.sort(gen.pareto(1.1, 200))[::-1] * 50


class TestRunTrialsBitExactness:
    """With per-trial streams, the engine reproduces a per-trial loop exactly."""

    @pytest.mark.parametrize("key", ["alg1", "alg3", "alg4", "alg5", "alg6"])
    def test_matches_run_batch_loop(self, scores, key):
        c, eps, trials = 4, 0.8, 12
        thr = float(scores[c])
        rngs = derive_rngs(5, trials, "t", key)
        batch = run_trials(
            key, scores, eps, c, trials, thresholds=thr, rng=rngs, allow_non_private=True
        )
        info = ALGORITHMS[key]
        for t in range(trials):
            gen = derive_rng(5, "t", key, t)
            res = info.run_batch(
                scores, epsilon=eps, c=c, thresholds=thr, rng=gen, allow_non_private=True
            )
            assert batch.positives(t).tolist() == res.positives
            assert batch.processed[t] == res.processed
            assert batch.halted[t] == res.halted

    def test_svt_selection_matrix_matches_loop(self, scores):
        c, eps, trials = 5, 0.5, 10
        thr = float(scores[c])
        alloc = BudgetAllocation.from_ratio(eps, c, ratio="1:c^(2/3)", monotonic=True)
        rngs = derive_rngs(7, trials, "mech")
        vals = np.broadcast_to(scores, (trials, scores.size))
        sel = svt_selection_matrix(vals, thr, alloc, c, monotonic=True, rng=rngs)
        for t in range(trials):
            gen = derive_rng(7, "mech", t)
            res = run_svt_batch(scores, alloc, c, thresholds=thr, monotonic=True, rng=gen)
            assert sel[t][sel[t] >= 0].tolist() == res.positives


class TestRunTrialsSemantics:
    def test_seed_mode_uses_one_stream(self, scores):
        """A raw seed must be coerced once: rho, nu (and refreshes) continue
        one generator rather than each replaying the seed's bit stream,
        which would leave threshold and query noise perfectly correlated."""
        for key in ("alg1", "alg2", "alg5"):
            from_seed = run_trials(
                key, scores, 0.7, 3, 9, thresholds=1.0, rng=6, allow_non_private=True
            )
            from_gen = run_trials(
                key, scores, 0.7, 3, 9, thresholds=1.0,
                rng=np.random.default_rng(6), allow_non_private=True,
            )
            np.testing.assert_array_equal(
                from_seed.positives_mask, from_gen.positives_mask
            )

    def test_seed_mode_one_stream_selection_matrix(self, scores):
        alloc = BudgetAllocation.from_ratio(0.5, 3, "1:1")
        vals = np.broadcast_to(scores, (6, scores.size))
        a = svt_selection_matrix(vals, 1.0, alloc, 3, rng=8)
        b = svt_selection_matrix(vals, 1.0, alloc, 3, rng=np.random.default_rng(8))
        np.testing.assert_array_equal(a, b)

    def test_epsilon_sweep_shares_unit_noise_per_cell(self, scores):
        """The epsilon grid rescales ONE unit noise block: every cell is
        bit-identical to the standalone run at that epsilon (paired-across-
        epsilon semantics, one sampling pass for the whole grid)."""
        gen = np.random.default_rng(2)
        answers = gen.normal(0.0, 1.0, 100) + 2.0  # noise-dominated outcomes
        kwargs = dict(thresholds=1.0, rng=4)
        a = run_trials("alg1", answers, [0.3, 0.6], 3, 20, **kwargs)
        b = run_trials("alg1", answers, [0.3, 0.6], 3, 20, **kwargs)
        for eps in (0.3, 0.6):
            np.testing.assert_array_equal(a[eps].positives_mask, b[eps].positives_mask)
            standalone = run_trials("alg1", answers, eps, 3, 20, **kwargs)
            np.testing.assert_array_equal(
                a[eps].positives_mask, standalone.positives_mask
            )

    def test_epsilon_sweep_share_noise_off_restores_independent_cells(self, scores):
        """share_noise=False keeps the legacy semantics: one stream consumed
        sequentially across cells, so the second cell does not replay the
        first cell's draws (nor a standalone run's)."""
        gen = np.random.default_rng(2)
        answers = gen.normal(0.0, 1.0, 100) + 2.0
        kwargs = dict(thresholds=1.0, rng=4, share_noise=False)
        a = run_trials("alg1", answers, [0.3, 0.6], 3, 20, **kwargs)
        b = run_trials("alg1", answers, [0.3, 0.6], 3, 20, **kwargs)
        for eps in (0.3, 0.6):
            np.testing.assert_array_equal(a[eps].positives_mask, b[eps].positives_mask)
        standalone = run_trials("alg1", answers, 0.6, 3, 20, thresholds=1.0, rng=4)
        assert not np.array_equal(a[0.6].positives_mask, standalone.positives_mask)

    def test_alg2_distribution_matches_streaming(self):
        """Alg. 2's refresh loop: engine vs streaming positive-count histogram."""
        answers = np.array([1.0, 0.0, 2.0, -1.0, 1.5])
        trials = 3_000
        batch = run_trials("alg2", answers, 2.0, 2, trials, thresholds=1.0, rng=0)
        stream_counts = np.bincount(
            [
                run_dpbook(answers, 2.0, 2, thresholds=1.0, rng=10_000 + i).num_positives
                for i in range(trials)
            ],
            minlength=3,
        )
        batch_counts = np.bincount(batch.num_positives, minlength=3)
        _, p, _, _ = stats.chi2_contingency(np.vstack([stream_counts, batch_counts]) + 1)
        assert p > 0.001

    def test_opt_in_enforced(self, scores):
        with pytest.raises(NonPrivateMechanismError):
            run_trials("alg5", scores, 1.0, 2, 5, rng=0)

    def test_epsilon_sweep_returns_dict(self, scores):
        out = run_trials("alg1", scores, [0.1, 1.0], 3, 8, thresholds=float(scores[3]), rng=0)
        assert set(out) == {0.1, 1.0}
        # More budget cannot hurt on average (generously toleranced).
        assert out[1.0].ser_mean <= out[0.1].ser_mean + 0.2

    def test_shuffle_maps_back_to_original(self, scores):
        c = 3
        batch = run_trials(
            "alg1", scores, 100.0, c, 10, thresholds=float(scores[c]), rng=1, shuffle=True
        )
        # With a huge budget the selection is essentially the true top-c,
        # whatever the per-trial order — indices must be original identities.
        for t in range(batch.trials):
            sel = batch.selection[t]
            assert set(sel[sel >= 0].tolist()) <= set(range(scores.size))
        assert batch.ser_mean < 0.2

    def test_metrics_match_manual_computation(self, scores):
        c = 4
        batch = run_trials("alg1", scores, 0.5, c, 6, thresholds=float(scores[c]), rng=3)
        for t in range(batch.trials):
            sel = batch.selection[t]
            sel = sel[sel >= 0]
            assert batch.ser[t] == pytest.approx(score_error_rate(scores, sel, c))
            assert batch.fnr[t] == pytest.approx(false_negative_rate(scores, sel, c))

    def test_trial_count_validation(self, scores):
        with pytest.raises(InvalidParameterError):
            run_trials("alg1", scores, 1.0, 2, 0, rng=0)

    def test_unknown_variant(self, scores):
        with pytest.raises(InvalidParameterError):
            run_trials("alg9", scores, 1.0, 2, 5, rng=0)


class TestTranscriptSampler:
    def test_vectorized_frequency_identical_to_loop(self):
        """Engine sampler under event_frequency(vectorized=True) is bit-equal
        to running the registry mechanism once per spawned generator."""
        answers = [1.0, -0.5, 0.5]
        info = ALGORITHMS["alg1"]

        def loop_mechanism(gen):
            res = info.run(answers, epsilon=1.0, c=1, thresholds=0.0, rng=gen)
            return (res.processed, tuple(res.positives))

        sampler = transcript_sampler("alg1", answers, 1.0, 1)
        event = lambda out: out[1] == (0,)
        freq_loop = event_frequency(loop_mechanism, event, trials=500, rng=11)
        freq_vec = event_frequency(sampler, event, trials=500, rng=11, vectorized=True)
        assert freq_loop == freq_vec

    def test_uncapped_positives_in_transcript(self):
        """No-cutoff variants report every positive, not just the first c."""
        sampler = transcript_sampler(
            "alg5", [1e6] * 7, 100.0, 2, allow_non_private=True
        )
        outputs = sampler(derive_rngs(0, 3, "s"))
        for processed, positives in outputs:
            assert processed == 7
            assert positives == tuple(range(7))

    def test_output_length_validated(self):
        with pytest.raises(InvalidParameterError):
            event_frequency(lambda rngs: [1], lambda o: True, trials=3, rng=0, vectorized=True)
