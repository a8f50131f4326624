"""Multi-trial batch execution: every Monte-Carlo trial in one numpy pass.

The figure-level artifacts of the paper (Figures 2-5) average SER/FNR over
hundreds of trials per (variant, epsilon, c) cell.  Running each trial
through a Python-level mechanism call leaves an interpreter loop around the
hot path; this module removes it:

* the query noise for *all* trials is one ``(trials, n)`` Laplace block
  (:mod:`repro.engine.noise`), the threshold noise one ``(trials,)`` vector;
* the halt point and the first-c selections of every trial fall out of one
  row-wise cumsum and one masked scatter (the cut :func:`cut_matrix` and
  :func:`selection_matrix` expose), and the cumsum's first-c mask is also
  the positives mask;
* SER/FNR for all trials come from the vectorized
  :func:`repro.metrics.utility.batch_selection_metrics`.

Alg. 2's threshold refresh makes its comparison row depend on the trial's
own history; :func:`_dpbook_trials` handles it in refresh rounds, each a
first-hit scan per still-active trial from where its last round stopped
(:func:`repro.engine.kernels.first_hits`: windows vectorized across the
trials that grow from a few hundred queries, so a round costs the distance
it scans, not n).  The per-query noise is still drawn as a single up-front
block (each query is examined at most once, so one draw per query is the
correct semantics) and read window by window; the rounds return each
trial's selection and halt point directly.
The Section-5 methods route through :mod:`repro.engine.retraversal`:
``"retraversal"`` runs segmented multi-pass rescans and ``"em"`` a row-wise
Gumbel-max, so *every* registry method now executes vectorized end to end.

**Epsilon grids.**  Passing a sequence of epsilons returns ``{epsilon:
TrialBatch}``.  By default (``share_noise=True``) the engine samples one
*unit* noise block per cell — ``Lap(1)`` threshold/query noise, standard
Gumbel for EM — and rescales it per epsilon, so a Figure 4/5 sweep pays for
its noise once instead of once per grid point.  Because a NumPy Laplace draw
is linear in ``scale`` for a fixed bit stream, the rescaled results are
bit-identical to re-running each epsilon with a freshly rewound generator —
paired-across-epsilon semantics, lower variance in cross-epsilon
differences.  Alg. 2's refresh draws and retraversal's per-pass blocks are
data-dependent and stay fresh per epsilon; ``share_noise=False`` restores
fully independent cells (one stream consumed sequentially).

**Memory & parallelism.**  ``max_bytes`` caps the engine's block footprint by
splitting the trial axis into chunks, and ``parallel="process"`` shards the
chunks across a process pool — see :mod:`repro.engine.exec`.  Both switch
the run onto per-trial derived streams so results are independent of the
chunk boundaries and worker count.

``rng`` may be a seed/Generator (fastest: one block draw) or a list of
per-trial Generators (bit-compatible with a per-trial loop — what the
experiment harness uses to keep its historical results reproducible).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.core.allocation import BudgetAllocation
from repro.core.base import normalize_thresholds
from repro.data.scores import ScoreSource
from repro.engine.kernels import first_hits
from repro.engine.noise import (
    TrialRngs,
    gumbel_matrix,
    laplace_matrix,
    laplace_vector,
)
from repro.engine.plans import NoisePlan, noise_plan
from repro.engine.retraversal import em_selection_matrix, retraversal_trials
from repro.exceptions import InvalidParameterError
from repro.metrics.utility import batch_selection_metrics
from repro.rng import ensure_rng
from repro.variants._common import require_opt_in, validate_inputs

__all__ = [
    "TrialBatch",
    "cut_matrix",
    "selection_matrix",
    "svt_selection_matrix",
    "svt_selection_grid",
    "run_trials",
    "transcript_sampler",
]


def _first_c(above: np.ndarray, c: int) -> Tuple[np.ndarray, np.ndarray]:
    """One row-wise cumsum: the padded first-c selection and its mask.

    ``mask`` marks each row's positives up to and including its c-th — the
    prefix a cutoff run processes — so it is both the selection mask and a
    cutoff run's positives mask.  ``selection`` is ``(trials, c)``,
    right-padded with -1, in selection order.
    """
    trials, n = above.shape
    cum = np.cumsum(above, axis=1)
    mask = above & (cum <= c)
    rows, cols = np.nonzero(mask)
    selection = np.full((trials, c), -1, dtype=np.int64)
    selection[rows, cum[rows, cols] - 1] = cols
    return selection, mask


def _halt_points(selection: np.ndarray, n: int) -> Tuple[np.ndarray, np.ndarray]:
    """``(processed, halted)`` of cutoff runs from their padded selections:
    a run halts right after its c-th positive, else processes all n."""
    last = selection[:, -1]
    halted = last >= 0
    return np.where(halted, last + 1, n), halted


def cut_matrix(above: np.ndarray, c: int) -> Tuple[np.ndarray, np.ndarray]:
    """Row-wise halt points: ``(processed, halted)`` for a (trials, n) run.

    The vectorized form of :func:`repro.engine.kernels.cut_at_cth_positive`:
    a trial halts right after its c-th positive comparison; with ``c < 1``
    no trial halts.
    """
    trials, n = above.shape
    if c < 1:
        return np.full(trials, n, dtype=np.int64), np.zeros(trials, dtype=bool)
    selection, _mask = _first_c(above, c)
    return _halt_points(selection, n)


def selection_matrix(
    above: np.ndarray, c: int, processed: Optional[np.ndarray] = None
) -> Tuple[np.ndarray, np.ndarray]:
    """Per-trial selected indices: the first c positives within the processed prefix.

    Returns ``(selection, counts)`` where ``selection`` is ``(trials, c)``
    right-padded with -1 (selection order preserved) and ``counts`` the
    number of selections per trial.
    """
    if processed is not None:
        above = above & (np.arange(above.shape[1])[None, :] < processed[:, None])
    selection, mask = _first_c(above, c)
    return selection, mask.sum(axis=1)


def _svt_scales(
    allocation: BudgetAllocation, c: int, delta: float, monotonic: bool
) -> Tuple[float, float]:
    """(rho_scale, nu_scale) of Alg. 7 under one allocation."""
    factor = c if monotonic else 2 * c
    return delta / allocation.eps1, factor * delta / allocation.eps2


def _svt_select(
    values: np.ndarray, thr: np.ndarray, rho: np.ndarray, nu: np.ndarray, c: int
) -> np.ndarray:
    """Compare/cut/select tail shared by the single- and grid-epsilon paths.

    One implementation keeps the grid's "cell == per-epsilon call" guarantee
    a statement about noise scaling alone.
    """
    above = values + nu >= thr[None, :] + rho[:, None]
    selection, _mask = _first_c(above, c)
    return selection


def svt_selection_matrix(
    values: np.ndarray,
    thresholds: Union[float, Sequence[float]],
    allocation: BudgetAllocation,
    c: int,
    monotonic: bool = False,
    sensitivity: float = 1.0,
    rng: TrialRngs = None,
) -> np.ndarray:
    """Alg. 7 top-c selection for a whole (trials, n) matrix of answers.

    The batched form of calling :func:`repro.core.svt.run_svt_batch` once per
    row: per trial one rho draw then one length-n noise block, so with a list
    of per-trial generators the selections are bit-identical to the loop.
    Returns the padded ``(trials, c)`` selection matrix.
    """
    values = np.asarray(values, dtype=float)
    if values.ndim != 2:
        raise InvalidParameterError("values must be a (trials, n) matrix")
    trials, n = values.shape
    thr = normalize_thresholds(thresholds, n)
    rho_scale, nu_scale = _svt_scales(allocation, c, float(sensitivity), monotonic)
    if not isinstance(rng, (list, tuple)):
        # Coerce once: the samplers below must continue ONE stream.  Passing
        # a raw seed to each would replay the same bit stream twice, leaving
        # rho and nu perfectly correlated.
        rng = ensure_rng(rng)
    rho = laplace_vector(rng, rho_scale, trials)
    nu = laplace_matrix(rng, nu_scale, trials, n)
    return _svt_select(values, thr, rho, nu, c)


def svt_selection_grid(
    values: np.ndarray,
    thresholds: Union[float, Sequence[float]],
    allocations: Dict[float, BudgetAllocation],
    c: int,
    monotonic: bool = False,
    sensitivity: float = 1.0,
    rng: TrialRngs = None,
) -> Dict[float, np.ndarray]:
    """Alg. 7 selections for a whole epsilon grid from one unit noise block.

    ``allocations`` maps each epsilon to its budget split.  One ``Lap(1)``
    rho vector and nu matrix are drawn and rescaled per epsilon, which (by
    linearity of the Laplace sampler in ``scale``) is bit-identical to
    calling :func:`svt_selection_matrix` per epsilon with a rewound
    generator — the old per-epsilon sweep behavior, at one draw's cost.
    """
    values = np.asarray(values, dtype=float)
    if values.ndim != 2:
        raise InvalidParameterError("values must be a (trials, n) matrix")
    trials, n = values.shape
    thr = normalize_thresholds(thresholds, n)
    if not isinstance(rng, (list, tuple)):
        rng = ensure_rng(rng)
    rho_unit = laplace_vector(rng, 1.0, trials)
    nu_unit = laplace_matrix(rng, 1.0, trials, n)
    out: Dict[float, np.ndarray] = {}
    for epsilon, allocation in allocations.items():
        rho_scale, nu_scale = _svt_scales(allocation, c, float(sensitivity), monotonic)
        out[float(epsilon)] = _svt_select(
            values, thr, rho_unit * rho_scale, nu_unit * nu_scale, c
        )
    return out


@dataclass
class TrialBatch:
    """All trials of one (variant, epsilon, c) cell, computed in one pass.

    ``selection`` holds each trial's first-c positive indices (into the
    possibly shuffled query order that trial saw — already mapped back to
    original identities when ``shuffle=True``), right-padded with -1.
    ``ser``/``fnr`` are per-trial metrics against the true top-c of the
    answer multiset.

    For the retraversal method three extra per-trial arrays are populated:
    ``passes`` (full traversals), ``exhausted`` (pass limit hit before c
    selections), and ``processed`` counts total query *examinations* across
    passes (the :attr:`RetraversalResult.examined` accounting) rather than a
    one-pass prefix length.
    """

    variant: str
    epsilon: float
    c: int
    trials: int
    n: int
    processed: np.ndarray
    halted: np.ndarray
    num_positives: np.ndarray
    selection: np.ndarray
    ser: np.ndarray
    fnr: np.ndarray
    positives_mask: Optional[np.ndarray]
    passes: Optional[np.ndarray] = None
    exhausted: Optional[np.ndarray] = None

    def positives(self, trial: int) -> np.ndarray:
        """All positive indices of one trial (uncapped, unlike ``selection``).

        Runs through the execution layer whose merged ``(trials, n)`` mask
        would exceed the out-of-core size policy
        (:data:`repro.engine.tiled.MASK_MATERIALIZE_LIMIT`) carry no
        positives mask; use ``selection``/``num_positives``.
        """
        if self.positives_mask is None:
            raise InvalidParameterError(
                "this batch carries no positives mask: trials * n exceeds the "
                "out-of-core mask size policy; use selection/num_positives "
                "instead"
            )
        return np.nonzero(self.positives_mask[trial])[0]

    @property
    def examined(self) -> np.ndarray:
        """Per-trial query examinations (alias of ``processed``; total across
        passes for retraversal)."""
        return self.processed

    @property
    def ser_mean(self) -> float:
        return float(self.ser.mean())

    @property
    def ser_std(self) -> float:
        return float(self.ser.std(ddof=1)) if self.trials > 1 else 0.0

    @property
    def fnr_mean(self) -> float:
        return float(self.fnr.mean())

    @property
    def fnr_std(self) -> float:
        return float(self.fnr.std(ddof=1)) if self.trials > 1 else 0.0

    @property
    def positive_rate(self) -> float:
        """Mean number of positives per trial."""
        return float(self.num_positives.mean())


# ---------------------------------------------------------------------------
# Per-variant noise plans.
# ---------------------------------------------------------------------------

_OPT_IN = {
    "alg3": "Alg. 3 (Roth 2011 lecture notes)",
    "alg4": "Alg. 4 (Lee & Clifton 2014)",
    "alg5": "Alg. 5 (Stoddard et al. 2014)",
    "alg6": "Alg. 6 (Chen et al. 2015)",
    "gptt": "GPTT (Chen & Machanavajjhala 2015 model)",
}

_KNOWN = (
    "alg1", "alg2", "alg3", "alg4", "alg5", "alg6", "gptt", "retraversal", "em",
)


def _normalize_variant(variant) -> str:
    # The alias table is shared with registry.get_method so every entry
    # point accepts the same spellings (imported here, not at module level,
    # only to keep the package's engine-after-variants import order obvious).
    from repro.variants.registry import METHOD_ALIASES

    key = getattr(variant, "key", variant)
    normalized = str(key).strip().lower().replace(" ", "").replace(".", "")
    if normalized.isdigit():
        normalized = f"alg{normalized}"
    normalized = METHOD_ALIASES.get(normalized, normalized)
    if normalized not in _KNOWN:
        raise InvalidParameterError(f"unknown variant {key!r}; known: {sorted(_KNOWN)}")
    return normalized


@dataclass(frozen=True)
class _UnitNoise:
    """Pre-drawn unit noise for one epsilon grid (rescaled per epsilon)."""

    rho: Optional[np.ndarray] = None  # (trials,) Lap(1)
    nu: Optional[np.ndarray] = None  # (trials, n) Lap(1)
    gumbel: Optional[np.ndarray] = None  # (trials, n) standard Gumbel


def _draw_units(key: str, rng: TrialRngs, trials: int, n: int) -> Optional[_UnitNoise]:
    """Draw the sharable unit blocks of one variant, in its draw order.

    Returns ``None`` for retraversal, whose per-pass blocks are
    data-dependent (size = that trial's remaining queries) and cannot be
    pre-drawn; its grid cells sample fresh noise per epsilon.
    """
    if key == "retraversal":
        return None
    if key == "em":
        return _UnitNoise(gumbel=gumbel_matrix(rng, trials, n))
    if key == "alg5":
        return _UnitNoise(rho=laplace_vector(rng, 1.0, trials))
    return _UnitNoise(
        rho=laplace_vector(rng, 1.0, trials),
        nu=laplace_matrix(rng, 1.0, trials, n),
    )


def _above_for_variant(
    key: str,
    values: np.ndarray,
    thr: np.ndarray,
    epsilon: float,
    c: int,
    delta: float,
    monotonic: bool,
    ratio: Optional[Union[str, float]],
    rng: TrialRngs,
    trials: int,
    units: Optional[_UnitNoise] = None,
) -> Tuple[np.ndarray, bool]:
    """The (trials, n) comparison matrix plus whether the variant has a cutoff.

    Every threshold variant but Alg. 2, whose refresh rounds return their
    results directly (:func:`_dpbook_trials`).

    With *units* the threshold/query noise comes from the pre-drawn unit
    blocks rescaled to this epsilon's scales instead of fresh draws.
    """
    n = values.shape[1]
    if key == "alg1":
        allocation = BudgetAllocation.from_ratio(
            epsilon, c, ratio=ratio if ratio is not None else "1:1", monotonic=monotonic
        )
        rho_scale, nu_scale = _svt_scales(allocation, c, delta, monotonic)
        if units is not None:
            rho = units.rho * rho_scale
            nu = units.nu * nu_scale
        else:
            rho = laplace_vector(rng, rho_scale, trials)
            nu = laplace_matrix(rng, nu_scale, trials, n)
        return values + nu >= thr[None, :] + rho[:, None], True
    plan = noise_plan(key, epsilon, c, delta)
    if units is not None:
        rho = units.rho * plan.rho_scale
    else:
        rho = laplace_vector(rng, plan.rho_scale, trials)
    if plan.nu_scale is None:
        return values >= thr[None, :] + rho[:, None], plan.cutoff
    if units is not None:
        nu = units.nu * plan.nu_scale
    else:
        nu = laplace_matrix(rng, plan.nu_scale, trials, n)
    return values + nu >= thr[None, :] + rho[:, None], plan.cutoff


def _dpbook_trials(
    values: np.ndarray,
    thr: np.ndarray,
    plan: NoisePlan,
    c: int,
    rng: TrialRngs,
    trials: int,
    units: Optional[_UnitNoise] = None,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Alg. 2 for all trials: refresh rounds of first-hit window scans.

    Returns ``(selection, processed, halted, count)``.  One up-front noise
    block covers every query (each is examined at most once).  A round
    scans every still-active trial forward from its current position to its
    next hit (:func:`repro.engine.kernels.first_hits`, vectorized across
    the trials, in windows that grow from
    :data:`~repro.engine.kernels.SCAN_STEP` queries), so a round costs the
    distance it scans; ``values + nu`` exists only per window.
    The trials that hit short of c then draw their refreshed rho, in
    ascending trial order — one draw per hit, round by round, the order a
    full-width rescan per round consumes the stream in.  In grid mode the
    initial rho and the nu block come from the shared unit noise (scaled
    per window); the outcome-dependent refresh draws stay fresh per
    epsilon.
    """
    n = values.shape[1]
    if units is not None:
        rho = units.rho * plan.rho_scale
        nu, nu_scale = units.nu, plan.nu_scale
    else:
        rho = laplace_vector(rng, plan.rho_scale, trials)
        nu, nu_scale = laplace_matrix(rng, plan.nu_scale, trials, n), None

    per_trial = isinstance(rng, (list, tuple))
    shared = None if per_trial else ensure_rng(rng)
    selection = np.full((trials, c), -1, dtype=np.int64)
    count = np.zeros(trials, dtype=np.int64)
    processed = np.full(trials, n, dtype=np.int64)
    halted = np.zeros(trials, dtype=bool)
    pos = np.zeros(trials, dtype=np.int64)
    active = np.arange(trials) if n else np.zeros(0, dtype=np.int64)
    while active.size:
        hits = first_hits(values, thr, nu, active, pos[active], rho[active], nu_scale)
        # Trials with no further hit under the current rho are done.
        found = hits >= 0
        hit_trials, hit_pos = active[found], hits[found]
        selection[hit_trials, count[hit_trials]] = hit_pos
        count[hit_trials] += 1
        done = count[hit_trials] >= c
        processed[hit_trials[done]] = hit_pos[done] + 1
        halted[hit_trials[done]] = True
        refresh = hit_trials[~done]
        if refresh.size:
            scale = plan.refresh_scale
            if per_trial:
                rho[refresh] = [float(rng[t].laplace(scale=scale)) for t in refresh]
            else:
                rho[refresh] = shared.laplace(scale=scale, size=refresh.size)
        pos[refresh] = hit_pos[~done] + 1
        active = refresh[pos[refresh] < n]
    return selection, processed, halted, count


def _scatter_selection(selection: np.ndarray, trials: int, n: int) -> np.ndarray:
    """(trials, n) boolean mask of the selected indices."""
    mask = np.zeros((trials, n), dtype=bool)
    rows, cols = np.nonzero(selection >= 0)
    mask[rows, selection[rows, cols]] = True
    return mask


def run_trials(
    variant,
    answers: Sequence[float],
    epsilons: Union[float, Sequence[float]],
    c: int,
    trials: int,
    thresholds: Union[float, Sequence[float]] = 0.0,
    sensitivity: float = 1.0,
    rng: TrialRngs = None,
    shuffle: bool = False,
    monotonic: bool = False,
    ratio: Optional[Union[str, float]] = None,
    threshold_bump_d: float = 0.0,
    max_passes: int = 100,
    allow_non_private: bool = False,
    compute_metrics: bool = True,
    share_noise: bool = True,
    max_bytes: Union[int, str, None] = None,
    parallel: Optional[str] = None,
    workers: Optional[int] = None,
    chunk_n: Optional[int] = None,
    memory_probe: Optional[Callable[[], int]] = None,
) -> Union[TrialBatch, Dict[float, TrialBatch]]:
    """Run *trials* Monte-Carlo repetitions of one variant in a single pass.

    Parameters
    ----------
    variant:
        A registry key (``"alg1"``..``"alg6"``, flexible spelling), a
        :class:`~repro.variants.registry.VariantInfo`, ``"gptt"`` (even eps
        split), ``"retraversal"`` (Section 5 SVT-ReTr; also ``"retr"``), or
        ``"em"`` (the c-round exponential-mechanism baseline).
    epsilons:
        A single budget or a sequence; a sequence returns ``{epsilon:
        TrialBatch}``.  With ``share_noise=True`` (default) the grid reuses
        one unit noise block rescaled per epsilon (see the module docstring);
        ``share_noise=False`` restores fully independent cells.
    shuffle:
        Randomize the query order independently per trial (the paper's
        experiment protocol); selections are mapped back to original
        identities.
    monotonic / ratio:
        Alg. 1 and retraversal: monotonic noise scales and the eps1:eps2
        split.  ``monotonic`` also selects the EM exponent.
    threshold_bump_d / max_passes:
        Retraversal only: the threshold increment in D units and the pass
        cap (see :func:`repro.core.retraversal.svt_retraversal`).
    rng:
        Seed/Generator, or a list of per-trial Generators for bit-exact
        agreement with a per-trial loop.
    max_bytes / parallel / workers / chunk_n:
        Execution knobs (see :mod:`repro.engine.exec`): ``max_bytes`` caps
        the working set (an int, or ``"auto"`` to target a fraction of the
        machine's available memory) by chunking the trial axis — and, when
        even one full-width trial row exceeds the budget, by tiling the
        query axis too (:mod:`repro.engine.tiled`); ``chunk_n`` forces a
        query-axis tile width explicitly.  ``parallel="process"`` runs the
        chunks on a ProcessPoolExecutor with *workers* processes.  With
        ``max_bytes="auto"`` on the serial backends the run re-plans
        between chunks from a live memory read (*memory_probe*, default the
        /proc/meminfo reader) instead of one planning-time sample.  Any of
        these knobs switches to per-trial derived streams, making results
        independent of chunking, tiling, and worker count.  *answers* may
        also be a lazy :class:`~repro.data.scores.ScoreSource` (e.g.
        ``GeneratorScores`` for the AOL-scale universe), which routes
        through the same execution layer; tiled runs do not support
        ``shuffle=True`` (a per-trial permutation is itself a dense
        (trials, n) object).

    SER/FNR treat *answers* as the scores being selected over (the
    selection-experiment reading); disable with ``compute_metrics=False``
    when the answers are not scores (e.g. attack transcripts).
    """
    key = _normalize_variant(variant)
    if key in _OPT_IN:
        require_opt_in(allow_non_private, _OPT_IN[key], "see repro.variants")
    if trials <= 0:
        raise InvalidParameterError("trials must be > 0")
    if (
        max_bytes is not None
        or parallel is not None
        or chunk_n is not None
        or isinstance(answers, ScoreSource)
    ):
        from repro.engine.exec import execute_trials

        return execute_trials(
            key, answers, epsilons, c, trials,
            thresholds=thresholds, sensitivity=sensitivity, rng=rng,
            shuffle=shuffle, monotonic=monotonic, ratio=ratio,
            threshold_bump_d=threshold_bump_d, max_passes=max_passes,
            allow_non_private=allow_non_private, compute_metrics=compute_metrics,
            share_noise=share_noise, max_bytes=max_bytes, parallel=parallel,
            workers=workers, chunk_n=chunk_n, memory_probe=memory_probe,
        )
    if not isinstance(rng, (list, tuple)):
        # One shared stream for shuffle + every noise draw (and across an
        # epsilon sweep).  Coercing the seed once here is load-bearing: the
        # samplers each accept RngLike, and handing the same raw seed to
        # rho-, nu-, and refresh-sampling would replay one bit stream,
        # correlating noises that must be independent.
        rng = ensure_rng(rng)

    base = np.asarray(answers, dtype=float)
    if base.ndim != 1:
        raise InvalidParameterError("answers must be a 1-D sequence")
    n = base.size
    thr = normalize_thresholds(thresholds, n)
    delta = float(sensitivity)

    cell_kwargs = dict(
        base=base, thr=thr, c=c, trials=trials, delta=delta, monotonic=monotonic,
        ratio=ratio, threshold_bump_d=threshold_bump_d, max_passes=max_passes,
        compute_metrics=compute_metrics, rng=rng,
    )

    if not np.isscalar(epsilons):
        eps_list = [float(eps) for eps in epsilons]
        for eps in eps_list:
            validate_inputs(eps, sensitivity, c)
        if not share_noise:
            return {
                eps: run_trials(
                    key, answers, eps, c, trials,
                    thresholds=thresholds, sensitivity=sensitivity, rng=rng,
                    shuffle=shuffle, monotonic=monotonic, ratio=ratio,
                    threshold_bump_d=threshold_bump_d, max_passes=max_passes,
                    allow_non_private=allow_non_private,
                    compute_metrics=compute_metrics, share_noise=False,
                )
                for eps in eps_list
            }
        perms, values = _shuffled_values(base, trials, n, rng, shuffle)
        units = _draw_units(key, rng, trials, n)
        return {
            eps: _run_cell(key, eps, values=values, perms=perms, units=units, **cell_kwargs)
            for eps in eps_list
        }

    epsilon = float(epsilons)
    validate_inputs(epsilon, sensitivity, c)
    perms, values = _shuffled_values(base, trials, n, rng, shuffle)
    return _run_cell(key, epsilon, values=values, perms=perms, units=None, **cell_kwargs)


def _shuffled_values(
    base: np.ndarray, trials: int, n: int, rng: TrialRngs, shuffle: bool
) -> Tuple[Optional[np.ndarray], np.ndarray]:
    """Per-trial (possibly shuffled) score rows, plus the permutations used."""
    if not shuffle:
        return None, np.broadcast_to(base, (trials, n))
    if isinstance(rng, (list, tuple)):
        perms = np.stack([gen.permutation(n) for gen in rng])
    else:
        perms = np.argsort(rng.random((trials, n)), axis=1)
    return perms, base[perms]


def _run_cell(
    key: str,
    epsilon: float,
    *,
    base: np.ndarray,
    values: np.ndarray,
    perms: Optional[np.ndarray],
    thr: np.ndarray,
    c: int,
    trials: int,
    delta: float,
    monotonic: bool,
    ratio: Optional[Union[str, float]],
    threshold_bump_d: float,
    max_passes: int,
    compute_metrics: bool,
    rng: TrialRngs,
    units: Optional[_UnitNoise],
) -> TrialBatch:
    """One fully-vectorized (variant, epsilon, c) cell."""
    n = base.size
    passes = exhausted = None
    if key == "retraversal":
        allocation = BudgetAllocation.from_ratio(
            epsilon, c, ratio=ratio if ratio is not None else "1:1", monotonic=monotonic
        )
        retr = retraversal_trials(
            values, allocation, c,
            thresholds=thr, sensitivity=delta, monotonic=monotonic,
            threshold_bump_d=threshold_bump_d, max_passes=max_passes, rng=rng,
        )
        selection = retr.selection
        processed = retr.examined
        halted = ~retr.exhausted
        passes, exhausted = retr.passes, retr.exhausted
        positives_mask = _scatter_selection(selection, trials, n)
        num_positives = retr.num_selected
    elif key == "em":
        selection = em_selection_matrix(
            values, epsilon, c,
            sensitivity=delta, monotonic=monotonic, rng=rng,
            gumbel=units.gumbel if units is not None else None,
        )
        processed = np.full(trials, n, dtype=np.int64)
        halted = np.zeros(trials, dtype=bool)
        positives_mask = _scatter_selection(selection, trials, n)
        num_positives = (selection >= 0).sum(axis=1)
    elif key == "alg2":
        selection, processed, halted, num_positives = _dpbook_trials(
            values, thr, noise_plan(key, epsilon, c, delta), c, rng, trials, units
        )
        positives_mask = _scatter_selection(selection, trials, n)
    else:
        above, has_cutoff = _above_for_variant(
            key, values, thr, epsilon, c, delta, monotonic, ratio, rng, trials, units
        )
        selection, first_c = _first_c(above, c)
        if has_cutoff:
            processed, halted = _halt_points(selection, n)
            positives_mask = first_c
        else:
            processed = np.full(trials, n, dtype=np.int64)
            halted = np.zeros(trials, dtype=bool)
            positives_mask = above
        num_positives = positives_mask.sum(axis=1)

    if compute_metrics:
        ser, fnr = batch_selection_metrics(values, selection, c, base_scores=base)
    else:
        ser = fnr = np.full(trials, np.nan)

    if perms is not None:
        valid = selection >= 0
        selection = np.where(
            valid, np.take_along_axis(perms, np.where(valid, selection, 0), axis=1), -1
        )
        # Re-express the positives mask over original identities too.
        original_mask = np.zeros_like(positives_mask)
        rows, cols = np.nonzero(positives_mask)
        original_mask[rows, perms[rows, cols]] = True
        positives_mask = original_mask
    return TrialBatch(
        variant=key,
        epsilon=epsilon,
        c=c,
        trials=trials,
        n=n,
        processed=processed,
        halted=halted,
        num_positives=num_positives,
        selection=selection,
        ser=ser,
        fnr=fnr,
        positives_mask=positives_mask,
        passes=passes,
        exhausted=exhausted,
    )


def transcript_sampler(
    variant,
    answers: Sequence[float],
    epsilon: float,
    c: int,
    thresholds: Union[float, Sequence[float]] = 0.0,
    sensitivity: float = 1.0,
    allow_non_private: bool = False,
):
    """A vectorized mechanism for the Monte-Carlo privacy estimator.

    Returns a callable suitable for
    :func:`repro.attacks.estimator.event_frequency` with
    ``vectorized=True``: given the estimator's list of per-trial generators
    it runs *all* trials through the batch engine at once and yields one
    hashable transcript ``(processed, positives)`` per trial.
    """

    def sample(rngs: Sequence[np.random.Generator]) -> List[tuple]:
        batch = run_trials(
            variant,
            answers,
            epsilon,
            c,
            trials=len(rngs),
            thresholds=thresholds,
            sensitivity=sensitivity,
            rng=list(rngs),
            allow_non_private=allow_non_private,
            compute_metrics=False,
        )
        out = []
        for t in range(batch.trials):
            out.append(
                (int(batch.processed[t]), tuple(int(i) for i in batch.positives(t)))
            )
        return out

    return sample
