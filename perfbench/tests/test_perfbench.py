"""The benchmark's own tests, at tiny sizes.

    python3 -m pytest perfbench/tests -q
"""

import asyncio
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

from loadgen import (  # noqa: E402
    goodput, poisson_schedule, send_on_schedule, summarize, tally,
)
from spans import (  # noqa: E402
    EngineHooks, Span, SpanRecorder, attribution_failure, self_times,
)


# ---------------------------------------------------------------------------
# Self-time arithmetic.
# ---------------------------------------------------------------------------

def test_self_time_subtracts_the_union_of_children():
    spans = [
        Span("root", "exec", 0.0, 10.0, -1, "v"),
        Span("a", "kernel", 1.0, 4.0, 0, "v"),
        Span("a.noise", "noise", 2.0, 3.0, 1, "v"),
        Span("b", "fold", 5.0, 9.0, 0, "v"),
        Span("c", "metrics", 8.0, 10.0, 0, "v"),  # overlaps b by 1
    ]
    assert self_times(spans) == pytest.approx([2.0, 2.0, 1.0, 4.0, 2.0])


def test_recorder_layers_add_up_to_the_root():
    ticks = iter(range(100))
    rec = SpanRecorder(clock=lambda: float(next(ticks)))
    rec.tag = "alg1"

    def leaf():
        return None

    wrapped_leaf = rec.wrap(leaf, "leaf", "noise")

    def middle():
        wrapped_leaf()
        wrapped_leaf()

    wrapped_middle = rec.wrap(middle, "middle", "kernel")
    rec.call("run_trials", "exec", lambda: wrapped_middle())
    root = rec.spans[0]
    totals = rec.layer_totals("alg1")
    assert [s.parent for s in rec.spans] == [-1, 0, 1, 1]
    assert sum(totals.values()) == pytest.approx(root.end - root.start)
    assert totals["noise"] == pytest.approx(2.0)
    assert totals["unattributed"] == pytest.approx(2.0)  # root: entry and exit ticks


class SteppedClock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


def _traced_call(inner_hooked: bool) -> tuple:
    """A timed call spending 1 s in a hooked kernel and 5 s in an inner
    function that is hooked or not; returns (layer totals, traced wall)."""
    clock = SteppedClock()
    rec = SpanRecorder(clock=clock)
    rec.tag = "alg1"

    def kernel():
        clock.now += 1.0

    def inner():
        clock.now += 5.0

    kernel = rec.wrap(kernel, "kernel", "kernel")
    if inner_hooked:
        inner = rec.wrap(inner, "inner", "noise")

    def run_trials():
        kernel()
        inner()

    rec.call("run_trials", "exec", run_trials)
    return rec.layer_totals("alg1"), clock.now


def test_time_outside_every_hook_fails_the_attribution_check():
    totals, wall = _traced_call(inner_hooked=False)
    assert totals["unattributed"] == pytest.approx(5.0)
    # Tracing cost 2 % here; 5 s of 6 s fell in no layer.
    failure = attribution_failure(totals, traced_s=wall, untraced_s=wall / 1.02)
    assert failure is not None and "fell in no hooked layer" in failure

    totals, wall = _traced_call(inner_hooked=True)
    assert totals["unattributed"] == pytest.approx(0.0)
    assert totals["noise"] == pytest.approx(5.0)
    assert attribution_failure(totals, traced_s=wall, untraced_s=wall / 1.02) is None


def test_engine_hooks_wrap_every_lookup_site_and_restore():
    import repro.engine.trials as trials
    from repro.engine import run_trials

    original = trials.cut_matrix
    rec = SpanRecorder()
    hooks = EngineHooks(rec)
    assert hooks.install() == []
    try:
        assert trials.cut_matrix is not original
        rec.tag = "alg1"
        scores = np.arange(200, dtype=float)[::-1]
        rec.call("run_trials", "exec", run_trials, "alg1", scores, [0.5, 1.0], 5, 3,
                 thresholds=150.0, rng=0)
    finally:
        hooks.uninstall()
    assert trials.cut_matrix is original
    totals = rec.layer_totals("alg1")
    root = rec.spans[0]
    assert sum(totals.values()) == pytest.approx(root.end - root.start)
    assert totals["kernel"] > 0 and totals["noise"] > 0
    assert totals["unattributed"] < 0.5 * (root.end - root.start)
    assert any(s.mb > 0 for s in rec.spans if s.layer == "noise")


# ---------------------------------------------------------------------------
# The open-loop generator, on a fake clock.
# ---------------------------------------------------------------------------

class FakeClock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    async def sleep(self, seconds: float) -> None:
        self.now += seconds


def test_latency_counts_from_due_time_and_lag_is_reported():
    clock = FakeClock()
    due = np.array([0.010, 0.020, 0.030, 0.040, 0.050])

    def send(i: int, j: int) -> None:
        if i == 1:
            clock.now += 0.025  # the generator stalls while sending request 1

    sent = asyncio.run(send_on_schedule(due, send, clock, clock.sleep))
    # Request 1 is sent after the stall; 2 and 3 fell due during it and go
    # out late in one batch; 4 is on time again.
    assert sent == pytest.approx([0.010, 0.045, 0.045, 0.045, 0.050])
    recv = sent + 0.002  # the server answers everything in 2 ms
    result = summarize("r", 100.0, due, sent, recv, np.zeros(5, bool), max_lag_ms=50.0)
    lateness = (sent - due) * 1e3
    assert result.lag_max_ms == pytest.approx(lateness.max())
    assert result.lag_p99_ms == pytest.approx(np.percentile(lateness, 99))
    # From the due time, the stall shows in every request due during it.
    assert result.p99_ms == pytest.approx(np.percentile((recv - due) * 1e3, 99))
    assert result.p99_ms > 20.0 and result.send_p50_ms == pytest.approx(2.0)
    assert result.valid and result.failed == 0


def test_a_generator_that_fell_behind_makes_the_rung_invalid():
    due = np.linspace(0.0, 1.0, 50)
    sent = due + 0.030  # 30 ms late throughout, limit 25 ms
    result = summarize("r", 50.0, due, sent, sent + 0.001, np.zeros(50, bool), 25.0)
    assert not result.valid


def test_missing_and_failure_responses_count_as_failed():
    due = np.arange(4, dtype=float)
    recv = np.array([0.5, np.nan, 2.5, 3.5])
    failed = np.array([False, False, True, False])
    result = summarize("r", 1.0, due, due.copy(), recv, failed, 500.0)
    assert result.attempted == 4 and result.failed == 2
    assert result.p50_ms == pytest.approx(500.0)


def test_poisson_schedule_is_seeded():
    a = poisson_schedule(1000.0, 2.0, np.random.default_rng([7, 0]))
    b = poisson_schedule(1000.0, 2.0, np.random.default_rng([7, 0]))
    assert np.array_equal(a, b)
    assert 1800 < a.size < 2200 and np.all(np.diff(a) > 0) and a[-1] < 2.0


def test_tally_reads_typed_responses():
    assert tally(b'{"type": "answer", "ticket": 0, "tenant": "t", "item": 3, '
                 b'"id": 12, "value": 0.0, "from_history": true}') == (12, "answer", 1, 0)
    assert tally(b'{"type": "answer", "ticket": 0, "tenant": "t", "item": 3, '
                 b'"id": 13, "error": "budget exhausted"}') == (13, "answer", 0, 1)
    assert tally(b'{"type":"answers","ticket":2,"tenant":"t","count":4,"id":9,'
                 b'"errors":[[1,"x"]],"values_b64":"","history_b64":""}') == (9, "answers", 3, 1)
    assert tally(b'{"type": "overloaded", "shed": 1, "id": 4}') == (4, "overloaded", 0, 0)
    with pytest.raises(ValueError):
        tally(b'{"type": "error", "error": "malformed JSON"}')


# ---------------------------------------------------------------------------
# max_rate_rps: goodput of the capacity rung.
# ---------------------------------------------------------------------------

def test_goodput_counts_successes_the_server_completes_per_second():
    # Requests go out at 400/s for 4 s; the server answers 100/s in order,
    # so its backlog grows throughout and the goodput is its own pace.
    sent = np.arange(1600) / 400.0
    recv = np.arange(1600) / 100.0 + 0.01
    ok = np.ones(1600, bool)
    assert goodput(sent, recv, ok) == pytest.approx(100.0, rel=0.02)
    # A server that sheds every other request completes half as many.
    ok[::2] = False
    assert goodput(sent, recv, ok) == pytest.approx(50.0, rel=0.02)
    # A request never answered is no completion.
    recv[150:250] = np.nan
    ok[:] = True
    assert goodput(sent, recv, ok) == pytest.approx(200 / 3, rel=0.02)


def test_goodput_of_a_server_that_keeps_up_is_the_sending_rate():
    sent = np.arange(1000) / 250.0
    assert goodput(sent, sent + 0.002, np.ones(1000, bool)) == pytest.approx(250.0, rel=0.02)


# ---------------------------------------------------------------------------
# End to end, tiny sizes.
# ---------------------------------------------------------------------------

def _run(cwd: Path, workload: str, trace: int, timeout: float = 170):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "6", "--trace", str(trace), "--tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=timeout,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [
    "sweep-dense.serve-interactive", "sweep-aol-tiled.serve-bulk-durable",
])
def test_workload_runs_end_to_end(workload, trace):
    proc = _run(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr[-3000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = spec["per_layer" if trace else "end_to_end"]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"], proc.stderr[-3000:]
    assert result["attempted"] >= 1 and result["failed"] == 0
    assert {m["name"]: m["unit"] for m in declared} == {
        k: v["unit"] for k, v in result["metrics"].items()}
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())
    assert not (ROOT / ".perfbench-run").exists()


def test_refuses_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(tmp_path, "sweep-dense.serve-interactive", 0, timeout=60)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
