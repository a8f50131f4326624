"""The repository's benchmark: offline sweeps and open-loop serving.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Each workload pairs one sweep phase (the
engine's ``run_trials`` in fresh processes) with one serve phase (the real
``repro serve --tcp`` under open-loop load); see ``perfbench/GLOSSARY.md``
for what every metric means and why each workload exists.  With ``--trace
0`` the last stdout line reports every end-to-end metric of
``BENCHMARK.json``; with ``--trace 1`` every per-layer metric.  Output
checks run either way, and a failed check makes ``correct`` false.
Diagnostics and the run record go to stderr.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

#: Engine variants, with the suffix their metrics carry.
VARIANTS = {"alg1": "alg1", "alg2": "alg2", "retraversal": "retr", "em": "em"}


@dataclass(frozen=True)
class Workload:
    sweep: dict
    serve: "object"  # serve.ServeConfig (imported lazily: it needs numpy)
    #: Share of ``--seconds`` the sweep phase gets; the serve phase gets the
    #: rest.
    sweep_share: float


def _workloads(tiny: bool) -> Dict[str, Workload]:
    from serve import ServeConfig

    dense = dict(source="dense", scale=0.1, c=50, epsilons=[0.1, 0.5, 1.0], trials=16)
    tiled = dict(source="generator", n=2_290_685, head_support=180_000, alpha=1.05,
                 num_records=647_377, c=25, epsilons=[0.1], trials=4,
                 max_bytes=256 << 20, chunk_div=4)
    # ``outstanding`` keeps the server's queues busy through its drains
    # while staying far below ``--max-queue``, so nothing is shed.  The
    # generator's lateness limits sit far above its quiet-host lag (a few
    # ms) because on a shared two-core host the neighbours' load can stall
    # the generator's process for tens of ms.
    interactive = ServeConfig(shards=1, durable=False, block=0, repeat_prob=0.9,
                              reopen_every=0, low=2000, high=6000, outstanding=2048,
                              max_lag_ms=250.0)
    bulk = ServeConfig(shards=2, durable=True, block=1024, repeat_prob=0.5,
                       reopen_every=16, low=25, high=60, outstanding=16, max_lag_ms=500.0)
    if tiny:  # test-only sizes: the same code paths in a few seconds
        dense.update(scale=0.005, trials=2, c=5)
        tiled.update(n=300_000, head_support=20_000, num_records=80_000, c=5, trials=2)
        interactive = ServeConfig(shards=1, durable=False, block=0, repeat_prob=0.9,
                                  reopen_every=0, low=100, high=200, outstanding=32,
                                  max_lag_ms=125.0, tenants=16)
        bulk = ServeConfig(shards=2, durable=True, block=64, repeat_prob=0.5,
                           reopen_every=4, low=10, high=20, outstanding=4,
                           max_lag_ms=250.0, tenants=16)
    # The dense sweep's calls are short, so host noise moves each one more:
    # it gets the larger share, for more timed calls per variant.
    return {
        "sweep-dense.serve-interactive": Workload(dense, interactive, sweep_share=0.6),
        "sweep-aol-tiled.serve-bulk-durable": Workload(tiled, bulk, sweep_share=0.5),
    }


# ---------------------------------------------------------------------------
# Run record.
# ---------------------------------------------------------------------------

def fsync_probe_ms(directory: Path, rounds: int = 20) -> float:
    """Median latency of a 4 KiB write + fsync in *directory*."""
    path = directory / "fsync-probe"
    times = []
    with open(path, "wb") as fh:
        for _ in range(rounds):
            t0 = time.perf_counter()
            fh.write(b"\0" * 4096)
            fh.flush()
            os.fsync(fh.fileno())
            times.append((time.perf_counter() - t0) * 1e3)
    path.unlink()
    return statistics.median(times)


def run_record(rundir: Path) -> dict:
    import numpy

    commit = "unknown"
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True,
                text=True, timeout=10, check=True,
            ).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    return {
        "cpus": sorted(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "commit": commit,
        "fsync_probe_ms": fsync_probe_ms(rundir),
    }


# ---------------------------------------------------------------------------
# Sweep phase.
# ---------------------------------------------------------------------------

#: Set-up-only sweep processes per run, besides the measuring one, so that
#: ``setup_s`` is a median of several set-ups.
SETUP_SAMPLES = 2


def _sweep_process(config: dict) -> dict:
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    t_spawn = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, str(HERE / "sweep.py"), json.dumps(config), repr(t_spawn)],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=170,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"sweep process failed:\n{proc.stderr[-3000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_sweep(cfg: dict, seed: int, budget: float, trace: bool) -> tuple:
    """Set-up samples, then one measuring process that spends the rest of
    *budget* on warm rounds; returns ``(set-up seconds, its result)``."""
    config = {**cfg, "seed": seed, "trace": int(trace), "variants": list(VARIANTS)}
    start = time.perf_counter()
    setups = [_sweep_process({**config, "setup_only": 1})["setup_s"]
              for _ in range(SETUP_SAMPLES)]
    remaining = budget - (time.perf_counter() - start) - statistics.median(setups)
    result = _sweep_process({**config, "budget_s": remaining})
    return setups + [result["setup_s"]], result


def sweep_failures(result: dict) -> List[str]:
    return [f for call in result["calls"].values() for f in call["failures"]]


def trials_per_call(cfg: dict) -> int:
    return cfg["trials"] * len(cfg["epsilons"])


def sweep_layers(result: dict, failures: List[str]) -> Dict[str, float]:
    """Each variant's layer self times per traced ``run_trials`` call.

    Every engine hook must be found, and the time no hooked function covers
    must stay within the tracing overhead the run reports; anything else
    fails the run.
    """
    from spans import attribution_failure

    failures += [f"engine hook not found: {name}" for name in result["missing_hooks"]]
    out: Dict[str, float] = {
        "data.block_ms": result["data_ms"],
        "data.block_calls": float(result["data_calls"]),
    }
    for variant, suffix in VARIANTS.items():
        call = result["calls"][variant]
        traced = call["traced_wall_s"]
        overhead = traced / call["warm_s"][-1]
        failure = attribution_failure(call["layers_s"], traced, call["warm_s"][-1])
        if failure:
            failures.append(f"{variant}: {failure}")
        merges = call["merges"]
        out.update({
            f"noise.ms.{suffix}": 1e3 * call["layers_s"]["noise"],
            f"noise.mb.{suffix}": call["noise_mb"],
            f"kernel.ms.{suffix}": 1e3 * call["layers_s"]["kernel"],
            f"fold.ms.{suffix}": 1e3 * call["layers_s"]["fold"],
            f"fold.tiles.{suffix}": float(call["fold_tiles"]),
            f"metrics.ms.{suffix}": 1e3 * call["layers_s"]["metrics"],
            f"exec.ms.{suffix}": 1e3 * call["layers_s"]["exec"],
            f"exec.chunks.{suffix}": statistics.mean(merges) if merges else 0.0,
            f"trace.overhead.{suffix}": overhead,
        })
    return out


# ---------------------------------------------------------------------------
# The run.
# ---------------------------------------------------------------------------

def measure(name: str, seed: int, seconds: float, trace: bool, tiny: bool,
            rundir: Path) -> dict:
    from serve import ServePhase, layer_metrics

    work = _workloads(tiny)[name]
    record = run_record(rundir)
    print(f"run record: {json.dumps(record)}", file=sys.stderr)
    failures: List[str] = []

    setups, sweep = run_sweep(work.sweep, seed, work.sweep_share * seconds, trace)
    failures += sweep_failures(sweep)
    phase = ServePhase(work.serve, seed, ROOT, rundir, (1 - work.sweep_share) * seconds)
    calls = list(sweep["calls"].values())
    attempted = sum(1 + len(c["warm_s"]) for c in calls)
    failed = sum(1 for c in calls if c["failures"])

    if trace:
        traced = asyncio.run(phase.measure_traced())
        rungs = traced["rungs"] + traced["plain"]["rungs"]
        metrics = {**sweep_layers(sweep, failures),
                   **layer_metrics(work.serve, traced),
                   "disk.fsync_probe_ms": record["fsync_probe_ms"]}
    else:
        served = asyncio.run(phase.measure())
        rungs = served["rungs"]
        low, high = rungs[0], rungs[1]
        metrics = {
            "setup_s": statistics.median(setups) + statistics.median(served["setup_samples"]),
            # Per CPU-second of the (single-threaded) sweep process: on an idle
            # machine that equals wall time, and it leaves out the time a
            # shared host takes the vCPU away, which moved wall-clock rates
            # by a third between runs of one build.
            **{f"trials_per_s.{suffix}": trials_per_call(work.sweep) / statistics.median(
                sweep["calls"][v]["warm_cpu_s"]) for v, suffix in VARIANTS.items()},
            "peak_rss_mb.sweep": sweep["peak_rss_mb"],
            "peak_rss_mb.serve": served["peak_rss_mb"],
            "cpu_ms_per_kreq.high": served["cpu_ms_per_kreq"],
            "success_rate": 1.0 - (low.failed + high.failed) / (low.attempted + high.attempted),
        }
        print(f"set-up seconds: sweep {setups}, serve {served['setup_samples']}",
              file=sys.stderr)
    for rung in rungs:
        print(f"rung {rung.name}: {json.dumps(vars(rung))}", file=sys.stderr)
        if rung.name in ("low", "high") and not rung.valid:
            failures.append(f"rung {rung.name}: the generator fell behind "
                            f"(lag p99 {rung.lag_p99_ms:.2f} ms)")
    failures += phase.failures
    attempted += sum(r.attempted for r in rungs)
    failed += sum(r.failed for r in rungs)
    for failure in failures:
        print(f"CHECK FAILED: {failure}", file=sys.stderr)
    return {"correct": not failures, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="test-only input sizes (the benchmark's own tests)")
    args = parser.parse_args(argv)
    # A stopped run still stops its servers and sweep processes: SIGTERM
    # unwinds through the same ``finally`` blocks as an error.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    if not (ROOT / "src" / "repro").is_dir():
        print(f"error: no program to measure: {ROOT / 'src' / 'repro'} is missing",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = spec["per_layer" if args.trace else "end_to_end"]
    if args.workload not in _workloads(args.tiny):
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2

    rundir = ROOT / ".perfbench-run" / f"{args.workload}-{args.seed}-{os.getpid()}"
    rundir.mkdir(parents=True)
    try:
        result = measure(args.workload, args.seed, args.seconds, bool(args.trace),
                         args.tiny, rundir)
    finally:
        shutil.rmtree(rundir, ignore_errors=True)
        try:
            rundir.parent.rmdir()
        except OSError:
            pass

    metrics = result["metrics"]
    if set(metrics) != {m["name"] for m in declared}:
        print(f"error: measured {sorted(metrics)} but BENCHMARK.json declares "
              f"{sorted(m['name'] for m in declared)}", file=sys.stderr)
        return 3
    out = {}
    for m in declared:
        value = float(metrics[m["name"]])
        if value != value:  # NaN: nothing was measured
            result["correct"] = False
            print(f"CHECK FAILED: {m['name']} was not measured", file=sys.stderr)
            value = 0.0
        out[m["name"]] = {"value": value, "unit": m["unit"]}
    result["metrics"] = out
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
