"""The observability subsystem: histograms, the RSS sampler, the AIMD policy."""

import asyncio
import io
import json
import threading

import pytest

from repro.engine.plans import available_memory_bytes
from repro.exceptions import InvalidParameterError
from repro.service.runtime import RuntimeServer, ServerConfig
from repro.service.runtime.metrics import (
    AdaptiveDrainPolicy,
    Counter,
    Histogram,
    MetricsRegistry,
    RssSampler,
)


class TestPrimitives:
    def test_counter_concurrent_adds(self):
        counter = Counter("hits")
        threads = [
            threading.Thread(target=lambda: [counter.add() for _ in range(10_000)])
            for _ in range(8)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert counter.value == 80_000

    def test_counter_rejects_negative(self):
        with pytest.raises(InvalidParameterError):
            Counter("x").add(-1)

    def test_histogram_quantiles_and_snapshot(self):
        hist = Histogram("lat", buckets=[1.0, 10.0, 100.0])
        for value in [0.5] * 50 + [5.0] * 40 + [50.0] * 9 + [500.0]:
            hist.observe(value)
        assert hist.count == 100
        assert hist.mean == pytest.approx((0.5 * 50 + 5 * 40 + 50 * 9 + 500) / 100)
        assert hist.quantile(0.5) <= 1.0  # median in the first bucket
        assert 10.0 <= hist.quantile(0.99) <= 100.0
        snap = hist.snapshot()
        assert snap["count"] == 100
        assert snap["buckets"]["+inf"] == 1
        assert snap["p50"] == pytest.approx(hist.quantile(0.5))

    def test_histogram_rejects_unsorted_buckets(self):
        with pytest.raises(InvalidParameterError):
            Histogram("bad", buckets=[10.0, 1.0])

    def test_registry_get_or_create_and_snapshot(self):
        registry = MetricsRegistry()
        assert registry.counter("a") is registry.counter("a")
        registry.counter("a").add(3)
        registry.gauge("g").set(1.5)
        registry.histogram("h").observe(2.0)
        snap = registry.snapshot()
        assert snap["counters"]["a"] == 3
        assert snap["gauges"]["g"] == 1.5
        assert snap["histograms"]["h"]["count"] == 1


class TestWeightedObservation:
    def test_observe_n_counts_once_per_request(self):
        hist = Histogram("h", buckets=[1.0, 10.0])
        hist.observe_n(5.0, 100)
        assert hist.count == 100
        assert hist.sum == pytest.approx(500.0)
        assert hist.snapshot()["buckets"]["10.0"] == 100

    def test_observe_n_nonpositive_weight_is_a_noop(self):
        hist = Histogram("h", buckets=[1.0])
        hist.observe_n(5.0, 0)
        hist.observe_n(5.0, -3)
        assert hist.count == 0


class TestSnapshotConsistency:
    """The contract the Prometheus scrape depends on: per-metric snapshots
    are internally consistent and monotone under concurrent writers —
    no torn histogram (count/sum/buckets disagreeing), no counter going
    backwards, no weighted observation split across a read."""

    def test_no_torn_reads_under_concurrent_writers(self):
        registry = MetricsRegistry()
        hist = registry.histogram("h", buckets=[1.0, 10.0, 100.0])
        counter = registry.counter("c")
        stop = threading.Event()

        def writer():
            while not stop.is_set():
                hist.observe_n(5.0, 3)  # weight 3: a torn read breaks %3
                counter.add(3)

        threads = [threading.Thread(target=writer) for _ in range(4)]
        for t in threads:
            t.start()
        try:
            last_count, last_sum, last_c = 0, 0.0, 0
            for _ in range(300):
                snap = registry.snapshot()
                h = snap["histograms"]["h"]
                # Internal consistency: the buckets account for exactly
                # `count` observations, and every observation was 5.0.
                assert sum(h["buckets"].values()) == h["count"]
                assert h["sum"] == pytest.approx(5.0 * h["count"])
                # Atomicity: observe_n(…, 3) lands whole or not at all.
                assert h["count"] % 3 == 0
                # Monotonicity across snapshots.
                assert h["count"] >= last_count
                assert h["sum"] >= last_sum
                assert snap["counters"]["c"] >= last_c
                last_count, last_sum = h["count"], h["sum"]
                last_c = snap["counters"]["c"]
        finally:
            stop.set()
            for t in threads:
                t.join()
        assert last_count > 0  # the stress actually ran

    def test_quantiles_never_crash_mid_write(self):
        hist = Histogram("h", buckets=[1.0, 10.0])
        stop = threading.Event()

        def writer():
            while not stop.is_set():
                hist.observe(0.5)
                hist.observe(50.0)

        t = threading.Thread(target=writer)
        t.start()
        try:
            for _ in range(200):
                q50, q99 = hist.quantile(0.5), hist.quantile(0.99)
                assert 0.0 <= q50 <= q99 <= 10.0
        finally:
            stop.set()
            t.join()


class TestRssSampler:
    def test_sample_updates_gauges_with_live_values(self):
        registry = MetricsRegistry()
        sampler = RssSampler(registry)
        rss, available = sampler.sample()
        assert rss > 0 and available > 0
        assert registry.gauge("rss_bytes").value == rss
        assert registry.gauge("available_bytes").value == available

    def test_memory_probe_matches_plans_reader(self):
        probe = RssSampler().memory_probe()
        direct = available_memory_bytes()
        # Both are live reads of the same /proc source; allow drift.
        assert probe == pytest.approx(direct, rel=0.2)

    def test_rss_grows_with_allocation(self):
        sampler = RssSampler()
        before = sampler.rss_bytes()
        blob = bytearray(64 << 20)  # 64 MiB
        blob[::4096] = b"x" * len(blob[::4096])  # touch every page
        after = sampler.rss_bytes()
        del blob
        assert after - before > 32 << 20


SUPPORTS = [5.0] * 64


def run_load(n_queries, **overrides):
    """Drive a stdio server with *n_queries* across several forced drains."""
    defaults = dict(seed=9, window=16, adaptive=True, drain_idle_s=0.001)
    defaults.update(overrides)
    server = RuntimeServer(SUPPORTS, ServerConfig(**defaults))
    lines = []
    for i in range(n_queries):
        lines.append(json.dumps({"op": "query", "tenant": f"t{i % 4}",
                                 "item": i % 64, "id": i}))
        if i % 8 == 7:
            lines.append("")  # blank line: force a drain boundary
    stdout = io.StringIO()
    asyncio.run(server.serve_stdin(io.StringIO("\n".join(lines) + "\n"), stdout))
    return server, server.local.snapshot()


class TestEmissionUnderLoad:
    """AdaptiveDrainPolicy and RssSampler keep their metrics live while the
    server is actually draining — the sustained-load half of the scrape."""

    def test_policy_emission_tracks_drains(self):
        server, snap = run_load(96)
        drains = snap["counters"]["drains_total"]
        assert drains > 1  # the blank lines really did split the load
        assert snap["histograms"]["drain_latency_ms"]["count"] == drains
        # The gauge mirrors the policy's live window after every adaptive step.
        assert snap["gauges"]["drain_window"] == server.local.policy.window
        assert snap["gauges"]["ingress_depth"] == 0  # fully drained at EOF
        # Budgets exhaust partway through; answered + rejected covers all.
        assert snap["counters"]["requests_total"] == 96
        assert (snap["counters"]["answered_total"]
                + snap["counters"]["rejected_total"]) == 96

    def test_rss_sampler_emits_on_snapshot(self):
        _, snap = run_load(16)
        assert snap["gauges"]["rss_bytes"] > 0
        assert snap["gauges"]["available_bytes"] > 0

    def test_traced_load_emits_per_stage_series(self):
        _, snap = run_load(48, trace=True, trace_slow_ms=0.0)
        hists = snap["histograms"]
        # Every request got an ingress_wait observation and a full span.
        assert hists['stage_ms{stage="ingress_wait"}']["count"] == 48
        assert hists["request_span_ms"]["count"] == 48
        assert snap["counters"]["trace_spans_total"] == 48
        assert snap["counters"]["trace_slow_total"] == 48  # threshold 0
        # Drain-level stages are weighted by served requests, so their
        # counts match the request count, not the drain count.
        for stage in ("gate_exec", "respond_encode", "send"):
            assert hists[f'stage_ms{{stage="{stage}"}}']["count"] == 48


class TestAdaptivePolicy:
    def test_shrinks_when_over_target(self):
        policy = AdaptiveDrainPolicy(initial=4096, target_ms=5.0)
        # Mild overshoot scales by the latency ratio (5/6.25 = 0.8)...
        assert policy.observe(6.25, drained=4096, queue_depth=10_000) == 3276
        # ...while heavy overshoot is floored at the multiplicative shrink.
        assert policy.observe(100.0, drained=3276, queue_depth=10_000) == 1638

    def test_hard_floor_on_catastrophic_drain(self):
        policy = AdaptiveDrainPolicy(initial=4096, min_window=256, target_ms=5.0)
        policy.observe(5000.0, drained=4096, queue_depth=0)
        assert policy.window == 2048  # multiplicative shrink floor (0.5x)

    def test_grows_only_under_pressure(self):
        policy = AdaptiveDrainPolicy(initial=1024, target_ms=5.0)
        # Fast drain but shallow queue: no growth (a bigger window can't fill).
        assert policy.observe(0.5, drained=1024, queue_depth=10) == 1024
        # Fast drain with a deep queue: grow.
        grown = policy.observe(0.5, drained=1024, queue_depth=5000)
        assert grown > 1024
        assert policy.observe(0.5, drained=grown, queue_depth=10_000) > grown

    def test_respects_bounds_and_is_deterministic(self):
        policy = AdaptiveDrainPolicy(
            initial=512, min_window=256, max_window=1024, target_ms=5.0
        )
        for _ in range(10):
            policy.observe(0.1, drained=policy.window, queue_depth=10**6)
        assert policy.window == 1024
        for _ in range(10):
            policy.observe(1000.0, drained=policy.window, queue_depth=0)
        assert policy.window == 256
        # Empty drains never move the window.
        assert policy.observe(1000.0, drained=0, queue_depth=0) == 256

    def test_validates_parameters(self):
        with pytest.raises(InvalidParameterError):
            AdaptiveDrainPolicy(initial=10, min_window=100)
        with pytest.raises(InvalidParameterError):
            AdaptiveDrainPolicy(shrink=1.5)
        with pytest.raises(InvalidParameterError):
            AdaptiveDrainPolicy(target_ms=0.0)
