"""The sweep phase in a fresh process: set up, then rounds of
``repro.engine.run_trials`` calls, one per variant a round.

Run by ``perfbench/run.py``, never imported by it (the point of a fresh
process is that set-up pays the imports)::

    python3 perfbench/sweep.py <config-json> <spawn-perf-counter>

The last stdout line is a JSON object: set-up seconds and, unless the config
asks for set-up only, the warm wall and CPU times, selection digest and
output-check failures of each variant, and peak RSS.  A traced run makes one warm round
in which each variant's untraced calls are followed by a traced one, and adds
the per-layer self times of the traced calls.
"""

from __future__ import annotations

import hashlib
import json
import resource
import sys
import time

#: A warm round repeats a variant until its calls take about this long (by
#: its cold call), at most ``MAX_REPEATS`` times, so that fast variants get
#: many timed calls and not one per round of the slowest.
REPEAT_SLICE_S = 1.0
MAX_REPEATS = 8


def _check_batch(batch, n: int, c: int, limit: int, tiled: bool) -> list:
    """Output checks on one (variant, epsilon) batch; returns failures."""
    import numpy as np

    bad = []
    sel = np.asarray(batch.selection)
    for row in sel:
        picked = row[row >= 0]
        if picked.size > c:
            bad.append(f"{batch.variant}: a trial selected {picked.size} > c={c} items")
        if picked.size and (picked.max() >= n or np.unique(picked).size != picked.size):
            bad.append(f"{batch.variant}: a trial selected out-of-range or repeated items")
        if np.any(row[picked.size:] != -1) or np.any(row < -1):
            bad.append(f"{batch.variant}: selection padding is not -1")
    for name in ("ser", "fnr"):
        values = np.asarray(getattr(batch, name))
        if not np.all((values >= 0.0) & (values <= 1.0)):
            bad.append(f"{batch.variant}: {name} outside [0, 1]")
    mask = batch.positives_mask
    if tiled and mask is not None and mask.size > limit:
        bad.append(f"{batch.variant}: materialized a {mask.shape} mask past "
                   f"MASK_MATERIALIZE_LIMIT={limit}")
    return sorted(set(bad))


def _digest(result) -> str:
    batches = [result[k] for k in sorted(result)] if isinstance(result, dict) else [result]
    h = hashlib.sha256()
    for batch in batches:
        h.update(batch.selection.astype("<i8").tobytes())
    return h.hexdigest()[:16]


def main(config: dict, t_spawn: float) -> dict:
    trace = bool(config["trace"])
    recorder = hooks = None
    if trace:
        from spans import EngineHooks, SpanRecorder, self_times

    import numpy as np
    from repro.data.generators import generate_dataset
    from repro.data.scores import GeneratorScores, topc_values
    from repro.engine import run_trials
    from repro.engine.tiled import MASK_MATERIALIZE_LIMIT

    missing: list = []
    if trace:
        recorder = SpanRecorder()
        hooks = EngineHooks(recorder)
        recorder.tag = "setup"
        missing = hooks.install()

    seed = int(config["seed"])
    c = int(config["c"])
    if config["source"] == "dense":
        answers = generate_dataset("AOL", rng=seed, scale=config["scale"]).supports.astype(float)
        n = answers.size
    else:
        answers = GeneratorScores.power_law(
            config["n"], head_support=config["head_support"], alpha=config["alpha"],
            num_records=config["num_records"],
        )
        n = answers.n
    threshold = float(topc_values(answers, c)[0])  # T at the c-th score
    kwargs = dict(thresholds=threshold, rng=seed)
    if config.get("max_bytes"):
        kwargs.update(max_bytes=int(config["max_bytes"]), chunk_n=n // config["chunk_div"])
    epsilons = config["epsilons"]
    eps_arg = epsilons if len(epsilons) > 1 else epsilons[0]
    if hooks is not None:
        hooks.uninstall()

    # Warm-up on a small slice so first-call costs land in set-up, not in
    # the first variant's timing.
    warm = np.sort(np.asarray(answers.block(0, 4096) if config["source"] != "dense"
                              else answers[:4096]))[::-1]
    for variant in config["variants"]:
        run_trials(variant, warm, eps_arg, c, 2, thresholds=float(warm[c - 1]), rng=seed)
    setup_s = time.perf_counter() - t_spawn
    if config.get("setup_only"):
        return {"setup_s": setup_s}

    def call(variant: str) -> tuple:
        t0, cpu0 = time.perf_counter(), time.process_time()
        result = run_trials(variant, answers, eps_arg, c, config["trials"], **kwargs)
        wall, cpu = time.perf_counter() - t0, time.process_time() - cpu0
        batches = result.values() if isinstance(result, dict) else [result]
        failures = []
        for batch in batches:
            failures += _check_batch(batch, n, c, MASK_MATERIALIZE_LIMIT,
                                     config["source"] != "dense")
        return wall, cpu, _digest(result), failures

    # Round 0 is cold: the first full-size call of each variant pays for
    # fresh memory, which later calls reuse.  It is checked but not timed;
    # the warm rounds after it are timed and must repeat its selections.
    start = time.perf_counter()
    calls, repeats = {}, {}
    for variant in config["variants"]:
        cold_wall, _cpu, digest, failures = call(variant)
        calls[variant] = {"digest": digest, "failures": failures, "warm_s": [],
                          "warm_cpu_s": []}
        repeats[variant] = min(MAX_REPEATS, max(1, round(REPEAT_SLICE_S / cold_wall)))
    cold_round = time.perf_counter() - start
    last_round = cold_round
    while not calls[config["variants"][0]]["warm_s"] or (
            not trace and time.perf_counter() - start + last_round <= config["budget_s"]):
        t_round = time.perf_counter()
        for variant in config["variants"]:
            entry = calls[variant]
            for _ in range(repeats[variant]):
                wall, cpu, digest, failures = call(variant)
                entry["warm_s"].append(wall)
                entry["warm_cpu_s"].append(cpu)
                entry["failures"] += failures
                if digest != entry["digest"]:
                    entry["failures"].append(f"{variant}: the same seed gave different "
                                             f"selections in consecutive calls")
            if trace:
                recorder.tag = variant
                hooks.install()
                t0 = time.perf_counter()
                recorder.call("run_trials", "exec", run_trials, variant, answers,
                              eps_arg, c, config["trials"], **kwargs)
                traced_wall = time.perf_counter() - t0
                hooks.uninstall()
                spans = [s for s in recorder.spans if s.tag == variant]
                entry.update(
                    traced_wall_s=traced_wall,
                    layers_s=recorder.layer_totals(variant),
                    noise_mb=sum(s.mb for s in spans if s.layer == "noise"),
                    fold_tiles=sum(s.count for s in spans if s.name == "run_tiled_chunk"),
                    merges=[s.count for s in spans if s.name == "merge_batches"],
                )
        last_round = time.perf_counter() - t_round

    out = {
        "setup_s": setup_s,
        "n": n,
        "calls": calls,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if trace:
        data = [s for s in recorder.spans if s.layer == "data"]
        out["data_ms"] = 1e3 * sum(
            own for s, own in zip(recorder.spans, self_times(recorder.spans))
            if s.layer == "data"
        )
        out["data_calls"] = sum(1 for s in data if s.name != "topc_values")
        out["missing_hooks"] = missing
    return out


if __name__ == "__main__":
    result = main(json.loads(sys.argv[1]), float(sys.argv[2]))
    print(json.dumps(result))
