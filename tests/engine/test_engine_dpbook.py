"""Dense Alg. 2 against the full-width rescan it replaced, bit for bit.

The dense cell (:func:`repro.engine.trials._dpbook_trials`) finds each
refresh round's hits with first-hit window scans.  The oracle below is the
full-width form: every round compares the whole ``(active trials, n)``
noisy matrix and cuts/selects with two row-wise cumsums.  Both must return
the same ``TrialBatch`` and leave every generator in the same state, for
each RNG form, since the refresh draws are consumed round by round in
ascending trial order.
"""

import tracemalloc

import numpy as np
import pytest

from repro.data.generators import generate_dataset
from repro.data.scores import topc_values
from repro.engine import trials as trials_mod
from repro.engine.kernels import SCAN_STEP
from repro.engine.noise import laplace_matrix, laplace_vector
from repro.engine.trials import run_trials
from repro.rng import derive_rngs, ensure_rng

FIELDS = (
    "processed", "halted", "num_positives", "selection", "ser", "fnr",
    "positives_mask", "passes", "exhausted",
)


def _full_rescan_above(values, thr, plan, c, rng, trials, units=None):
    """Alg. 2 comparison matrix by one full-width rescan per refresh round."""
    n = values.shape[1]
    if units is not None:
        rho = units.rho * plan.rho_scale
        nu = units.nu * plan.nu_scale
    else:
        rho = laplace_vector(rng, plan.rho_scale, trials)
        nu = laplace_matrix(rng, plan.nu_scale, trials, n)
    rho = rho.copy()
    noisy = values + nu
    per_trial = isinstance(rng, (list, tuple))
    shared = None if per_trial else ensure_rng(rng)
    above = np.zeros((trials, n), dtype=bool)
    start = np.zeros(trials, dtype=np.int64)
    count = np.zeros(trials, dtype=np.int64)
    active = np.full(trials, n > 0)  # an empty row has nothing to argmax
    cols = np.arange(n)
    while active.any():
        idx = np.nonzero(active)[0]
        sub = noisy[idx] >= thr[None, :] + rho[idx, None]
        sub &= cols[None, :] >= start[idx, None]
        has_hit = sub.any(axis=1)
        pos = np.argmax(sub, axis=1)
        active[idx[~has_hit]] = False
        hit_trials, hit_pos = idx[has_hit], pos[has_hit]
        above[hit_trials, hit_pos] = True
        count[hit_trials] += 1
        start[hit_trials] = hit_pos + 1
        done = count[hit_trials] >= c
        active[hit_trials[done]] = False
        refresh = hit_trials[~done]
        if refresh.size:
            if per_trial:
                rho[refresh] = [float(rng[t].laplace(scale=plan.refresh_scale))
                                for t in refresh]
            else:
                rho[refresh] = shared.laplace(scale=plan.refresh_scale, size=refresh.size)
    return above


def _oracle_trials(values, thr, plan, c, rng, trials, units=None):
    """The oracle's matrix cut and selected with two cumsums, as the cell did."""
    above = _full_rescan_above(values, thr, plan, c, rng, trials, units)
    n = above.shape[1]
    cum = np.cumsum(above, axis=1)
    hit = (cum == c) & above
    halted = hit.any(axis=1)
    first = np.argmax(hit, axis=1) if n else np.zeros(trials, dtype=np.int64)
    processed = np.where(halted, first + 1, n)
    prefix = np.arange(n)[None, :] < processed[:, None]
    mask = above & (cum <= c) & prefix
    rows, cols = np.nonzero(mask)
    selection = np.full((trials, c), -1, dtype=np.int64)
    selection[rows, cum[rows, cols] - 1] = cols
    # The cell builds its positives mask by scattering the selection; the
    # full-width cell kept ``above & prefix``.  They must agree.
    np.testing.assert_array_equal(
        trials_mod._scatter_selection(selection, trials, n), above & prefix
    )
    return selection, processed, halted, (above & prefix).sum(axis=1)


def _rng_pair(form, trials):
    if form == "seed":
        return 17, 17
    if form == "generator":
        return np.random.default_rng(17), np.random.default_rng(17)
    return derive_rngs(17, trials, "dpbook"), derive_rngs(17, trials, "dpbook")


def _states(rng):
    if isinstance(rng, list):
        return [gen.bit_generator.state for gen in rng]
    if isinstance(rng, np.random.Generator):
        return rng.bit_generator.state
    return None  # a seed: the stream lives inside the call


def _assert_same(monkeypatch, answers, eps, c, trials, form, **kwargs):
    """The dense cell and the oracle agree on every field and stream state."""
    rng_new, rng_old = _rng_pair(form, trials)
    new = run_trials("alg2", answers, eps, c, trials, rng=rng_new, **kwargs)
    with monkeypatch.context() as patch:
        patch.setattr(trials_mod, "_dpbook_trials", _oracle_trials)
        old = run_trials("alg2", answers, eps, c, trials, rng=rng_old, **kwargs)
    news = new if isinstance(new, dict) else {eps: new}
    olds = old if isinstance(old, dict) else {eps: old}
    assert list(news) == list(olds)
    for key in news:
        for field in FIELDS:
            a, b = getattr(news[key], field), getattr(olds[key], field)
            if a is None and b is None:
                continue
            np.testing.assert_array_equal(a, b, err_msg=f"eps={key}: {field}")
            assert a.dtype == b.dtype, field
    assert _states(rng_new) == _states(rng_old)
    return news


@pytest.fixture(scope="module")
def scores():
    return np.random.default_rng(5).exponential(20.0, size=1500)


RNG_FORMS = ("seed", "generator", "list")
EPS_FORMS = {
    "single": (0.7, {}),
    "grid-shared": ([0.3, 0.7, 2.0], {"share_noise": True}),
    "grid-fresh": ([0.3, 0.7, 2.0], {"share_noise": False}),
}


class TestDenseAlg2EqualsFullRescan:
    @pytest.mark.parametrize("form", RNG_FORMS)
    @pytest.mark.parametrize("eps_form", sorted(EPS_FORMS))
    @pytest.mark.parametrize("shuffle", (False, True))
    def test_scalar_threshold(self, monkeypatch, scores, form, eps_form, shuffle):
        eps, kwargs = EPS_FORMS[eps_form]
        thr = float(np.sort(scores)[::-1][6])
        news = _assert_same(monkeypatch, scores, eps, 6, 9, form,
                            thresholds=thr, shuffle=shuffle, **kwargs)
        # Several refreshes per trial, so the round order matters.
        assert max(b.num_positives.mean() for b in news.values()) >= 2

    @pytest.mark.parametrize("form", RNG_FORMS)
    @pytest.mark.parametrize("eps_form", sorted(EPS_FORMS))
    def test_per_query_thresholds(self, monkeypatch, scores, form, eps_form):
        eps, kwargs = EPS_FORMS[eps_form]
        thr = np.sort(scores)[::-1][5] * np.linspace(0.7, 1.3, scores.size)
        _assert_same(monkeypatch, scores, eps, 5, 8, form, thresholds=thr,
                     shuffle=True, **kwargs)

    @pytest.mark.parametrize("form", RNG_FORMS)
    def test_no_halt(self, monkeypatch, scores, form):
        """Fewer than c hits: every trial scans to the end of its row."""
        top = np.sort(scores)[::-1]
        thr = float(top[2] + top[3]) / 2
        news = _assert_same(monkeypatch, scores, 40.0, 6, 6, form, thresholds=thr)
        batch = news[40.0]
        assert batch.num_positives.max() >= 2
        assert not batch.halted.any()
        assert (batch.processed == scores.size).all()

    @pytest.mark.parametrize("form", RNG_FORMS)
    def test_c_at_least_n(self, monkeypatch, form):
        answers = np.arange(7.0)
        for c in (7, 12):
            _assert_same(monkeypatch, answers, 0.5, c, 5, form, thresholds=-50.0,
                         compute_metrics=False)

    @pytest.mark.parametrize("form", RNG_FORMS)
    @pytest.mark.parametrize("eps_form", ("single", "grid-shared"))
    def test_empty_answers(self, monkeypatch, form, eps_form):
        eps, kwargs = EPS_FORMS[eps_form]
        news = _assert_same(monkeypatch, np.zeros(0), eps, 3, 4, form,
                            compute_metrics=False, **kwargs)
        for batch in news.values():
            assert (batch.processed == 0).all() and (batch.selection == -1).all()

    @pytest.mark.parametrize(
        "n, hits",
        [
            (1024, (SCAN_STEP - 1,)),
            (1024, (SCAN_STEP,)),
            (1024, (3 * SCAN_STEP - 1,)),
            (1024, (SCAN_STEP - 1, SCAN_STEP, 3 * SCAN_STEP - 1)),
            (SCAN_STEP, (SCAN_STEP - 1,)),
            (3 * SCAN_STEP, (0, 3 * SCAN_STEP - 1)),
            (50_000, (49_999,)),
        ],
    )
    @pytest.mark.parametrize("form", ("generator", "list"))
    def test_hits_on_window_boundaries(self, monkeypatch, form, n, hits):
        """Hits on the last and first query of a scan window, and one that
        takes a scan through windows grown to many times the first."""
        answers = np.full(n, -1e6)
        answers[list(hits)] = 1e6
        c = len(hits) + 1
        news = _assert_same(monkeypatch, answers, 1.0, c, 3, form,
                            thresholds=0.0, compute_metrics=False)
        batch = news[1.0]
        expected = np.full(c, -1)
        expected[: len(hits)] = hits
        assert (batch.selection == expected).all()
        assert not batch.halted.any()


class TestDenseAlg2Memory:
    @pytest.fixture(scope="class")
    def aol(self):
        return generate_dataset("AOL", rng=1, scale=0.1).supports.astype(float)

    @pytest.mark.parametrize("where", ("c-th score", "above every score"))
    def test_peak_stays_near_the_noise_block(self, aol, where):
        """No (trials, n) intermediate besides the noise block and the
        positives mask: peak <= 1.5x the float64 block, whether the scans
        stop early (T at the c-th score) or run every row to its end."""
        c, trials = 50, 16
        thr = float(topc_values(aol, c)[0]) if where == "c-th score" else aol.max() + 1e7
        tracemalloc.start()
        try:
            run_trials("alg2", aol, 1.0, c, trials, thresholds=thr, rng=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        block = trials * aol.size * 8
        assert peak <= 1.5 * block, f"peak {peak / 1e6:.1f} MB vs block {block / 1e6:.1f} MB"
