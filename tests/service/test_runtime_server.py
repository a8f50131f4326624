"""The concurrent runtime server: ingestion, backpressure, bit-identity.

The load-bearing guarantee: concurrent ingestion is an *arrival* concern,
never an *execution* concern — answers produced by the server under many
concurrent clients are bit-identical to a single-threaded drain of the same
per-tenant request sequences (``mode="per-session"``, whose per-session
streams make results independent of how requests interleave across
tenants).  Around that: typed error responses for malformed JSONL, typed
``overloaded`` shedding at the admission bound, per-connection response
ordering, and graceful TCP shutdown.
"""

import asyncio
import io
import json
import socket
import threading

import numpy as np
import pytest

from repro.service import SVTQueryService
from repro.service.runtime import RuntimeServer, ServerConfig
from repro.service.runtime.server import _Connection, _IngressEntry, IngressQueue

SUPPORTS = np.linspace(1000.0, 10.0, 120)


def make_server(**overrides) -> RuntimeServer:
    defaults = dict(
        error_threshold=600.0, seed=5, mode="per-session", window=64,
        drain_idle_s=0.001,
    )
    defaults.update(overrides)
    return RuntimeServer(SUPPORTS, ServerConfig(**defaults))


def run_stdin(server: RuntimeServer, text: str):
    stdout = io.StringIO()
    asyncio.run(server.serve_stdin(io.StringIO(text), stdout))
    return [json.loads(line) for line in stdout.getvalue().splitlines()]


class TestProtocol:
    def test_malformed_jsonl_returns_typed_error_and_survives(self):
        """A broken line must produce an ``error`` response, not a crash."""
        server = make_server()
        lines = run_stdin(
            server,
            '{"op": "query", "tenant": "a", "item": 0}\n'
            '{"op": "query", "tenant": "a" INVALID\n'
            "[1, 2, 3]\n"
            '{"op": "frobnicate"}\n'
            '{"op": "query"}\n'
            '{"op": "query", "tenant": "a", "item": "NaN-ish"}\n'
            '{"op": "query", "tenant": "a", "item": 1}\n',
        )
        errors = [entry for entry in lines if entry["type"] == "error"]
        assert len(errors) == 5
        assert "malformed JSON" in errors[0]["error"]
        assert "JSON object" in errors[1]["error"]
        assert "unknown op" in errors[2]["error"]
        assert "invalid query payload" in errors[3]["error"]
        assert "invalid query payload" in errors[4]["error"]
        # The loop stayed alive: both real queries were answered.
        answers = [entry for entry in lines if entry["type"] == "answer"]
        assert [a["item"] for a in answers] == [0, 1]
        assert server.metrics.counter("errors_total").value == 5

    def test_mark_op_stamps_client_send_time(self):
        """A ``mark`` beacon answers nothing and backdates ingress_wait."""
        import time

        server = make_server(trace=True, trace_slow_ms=0.0)
        t0 = time.perf_counter() - 0.5  # the client "sent" 500 ms ago
        lines = run_stdin(
            server,
            json.dumps({"op": "mark", "t": t0}) + "\n"
            '{"op": "query", "tenant": "a", "item": 0}\n',
        )
        assert [entry["type"] for entry in lines] == ["answer"]
        wait = server.local.tracer.stage_hist["ingress_wait"]
        assert wait.count == 1
        assert wait.sum >= 500.0  # measured from the mark, not admission

    def test_mark_without_timestamp_is_typed_error(self):
        server = make_server()
        lines = run_stdin(server, '{"op": "mark"}\n')
        assert lines[0]["type"] == "error"
        assert "invalid mark payload" in lines[0]["error"]

    def test_out_of_range_item_is_typed_rejection(self):
        lines = run_stdin(
            make_server(), '{"op": "query", "tenant": "a", "item": 99999}\n'
        )
        assert lines[0]["type"] == "answer" and "outside" in lines[0]["error"]

    def test_query_block_roundtrip_plain_and_b64(self):
        server = make_server()
        items = np.array([0, 1, 0, 2], dtype=np.int64)
        b64 = __import__("base64").b64encode(items.tobytes()).decode()
        lines = run_stdin(
            server,
            json.dumps({"op": "query_block", "tenant": "a", "items": items.tolist()})
            + "\n"
            + json.dumps(
                {"op": "query_block", "tenant": "b", "items_b64": b64, "bin": True}
            )
            + "\n",
        )
        plain, packed = lines
        assert plain["type"] == "answers" and plain["count"] == 4
        assert len(plain["values"]) == 4 and len(plain["from_history"]) == 4
        assert packed["type"] == "answers" and packed["count"] == 4
        values = np.frombuffer(
            __import__("base64").b64decode(packed["values_b64"]), dtype="<f8"
        )
        history = np.unpackbits(
            np.frombuffer(
                __import__("base64").b64decode(packed["history_b64"]), dtype=np.uint8
            )
        )[:4].astype(bool)
        assert values.size == 4 and np.isfinite(values).all()
        # Repeats of an already-released item come from history.
        assert history[2] or plain["from_history"][2]

    def test_open_and_close_ops(self):
        """``open`` applies at admission; ``close`` is drain-ordered, so it
        never outruns queries admitted before it."""
        server = make_server(auto_open=False)
        lines = run_stdin(
            server,
            '{"op": "open", "tenant": "a", "epsilon": 2.0, "threshold": 500, "c": 2}\n'
            '{"op": "query", "tenant": "a", "item": 0}\n'
            '{"op": "close", "tenant": "a"}\n'
            '{"op": "query", "tenant": "a", "item": 0}\n',
        )
        kinds = [entry["type"] for entry in lines]
        assert kinds == ["opened", "answer", "closed", "error"]
        assert lines[0]["session"] == "a#0"
        assert "value" in lines[1]  # served before the eviction
        assert lines[2]["released"] > 0.0
        # The post-close query finds no session (auto-open disabled).
        assert "no open session" in lines[3]["error"]

    def test_metrics_op_reports_counters(self):
        server = make_server()
        lines = run_stdin(
            server,
            "a 0\na 0\n\n"  # legacy framing still speaks the same protocol
            '{"op": "metrics"}\n',
        )
        snap = [entry for entry in lines if entry["type"] == "metrics"][0]
        assert snap["counters"]["requests_total"] == 2
        assert snap["counters"]["answered_total"] == 2
        assert snap["counters"]["drains_total"] >= 1
        assert snap["gauges"]["rss_bytes"] > 0
        assert snap["shed_rate"] == 0.0


class TestBackpressure:
    def test_overloaded_shed_is_typed_and_lossless(self):
        """Requests beyond max_queue shed with a typed response, in order."""
        server = make_server(max_queue=3)
        conn = _Connection(stream=io.StringIO())
        responses = []
        for k in range(6):
            responses.append(
                server.local.ingest_line(
                    json.dumps({"op": "query", "tenant": "t", "item": 0, "id": k}),
                    conn,
                )
            )
        admitted = [r for r in responses if r is None]
        shed = [r for r in responses if r is not None]
        assert len(admitted) == 3 and len(shed) == 3
        assert all(r["type"] == "overloaded" for r in shed)
        assert [r["id"] for r in shed] == [3, 4, 5]
        assert server.metrics.counter("shed_total").value == 3
        assert server.local.snapshot()["shed_rate"] == 0.5
        # The admitted half still drains fine afterwards — no deadlock.
        served = asyncio.run(server.local.drain_once())
        assert served == 3

    def test_block_weight_counts_toward_admission(self):
        server = make_server(max_queue=10)
        conn = _Connection(stream=io.StringIO())
        ok = server.local.ingest_line(
            json.dumps({"op": "query_block", "tenant": "t", "items": list(range(8))}),
            conn,
        )
        assert ok is None
        refused = server.local.ingest_line(
            json.dumps({"op": "query_block", "tenant": "t", "items": [0, 1, 2]}),
            conn,
        )
        assert refused["type"] == "overloaded" and refused["shed"] == 3

    def test_ingress_queue_thread_safety(self):
        """Racing producers never lose or duplicate admissions."""
        queue = IngressQueue(limit=10_000)
        conn = _Connection(stream=io.StringIO())

        def produce(base):
            for k in range(500):
                queue.try_put(
                    _IngressEntry(
                        kind="query", tenant="t", lane=None, conn=conn,
                        request_id=base + k, item=0,
                    )
                )

        threads = [threading.Thread(target=produce, args=(i * 500,)) for i in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert queue.depth == 4000
        seen = set()
        while queue.depth:
            for entry in queue.take(64):
                seen.add(entry.request_id)
        assert seen == set(range(4000))


def expected_single_threaded(requests, mode="per-session"):
    """The reference: one service, one submit loop, one big drain."""
    service = SVTQueryService(SUPPORTS, seed=5, mode=mode)
    # Same derived per-tenant streams as the server's auto-open (same seed).
    for tenant in dict.fromkeys(tenant for tenant, _ in requests):
        service.open_session(
            tenant, epsilon=1.0, error_threshold=600.0, c=3, svt_fraction=0.5
        )
    rows = [
        service.batcher.submit(service.manager.session(tenant), item)
        for tenant, item in requests
    ]
    result = service.drain()
    out = {}
    for (tenant, item), row in zip(requests, rows):
        out.setdefault(tenant, []).append(
            (float(result.values[row]), bool(result.from_history[row]), bool(result.ok[row]))
        )
    return out


class TestConcurrentBitIdentity:
    def test_concurrent_tcp_matches_single_threaded_drain(self):
        """8 concurrent TCP clients == one single-threaded drain, bit for bit.

        Each tenant's stream arrives on its own connection (per-tenant order
        is the request order; cross-tenant interleaving is whatever the
        event loop makes of it), and the server drains on its own schedule
        with an adaptive window — none of which may change a single bit of
        any answer in per-session mode.
        """
        rng = np.random.default_rng(11)
        per_client = {
            f"tenant-{cid}": [int(x) for x in rng.integers(0, 40, size=60)]
            for cid in range(8)
        }
        requests = [
            (tenant, item)
            for tenant, items in per_client.items()
            for item in items
        ]
        expected = expected_single_threaded(requests)

        server = make_server(window=97, adaptive=True, target_drain_ms=0.5)

        async def main():
            await server.serve_tcp("127.0.0.1", 0)
            host, port = server.tcp_address

            def client(tenant, items, out):
                with socket.create_connection((host, port)) as sock:
                    stream = sock.makefile("rwb")
                    for k, item in enumerate(items):
                        stream.write(
                            json.dumps(
                                {"op": "query", "tenant": tenant, "item": item, "id": k}
                            ).encode()
                            + b"\n"
                        )
                    stream.flush()
                    got = [json.loads(stream.readline()) for _ in items]
                out[tenant] = got

            loop = asyncio.get_running_loop()
            outs: dict = {}
            await asyncio.gather(
                *[
                    loop.run_in_executor(None, client, tenant, items, outs)
                    for tenant, items in per_client.items()
                ]
            )
            await server.shutdown()
            return outs

        outs = asyncio.run(main())
        for tenant, got in outs.items():
            # Per-connection responses arrive in request order.
            assert [g["id"] for g in got] == list(range(len(got)))
            for response, (value, hist, ok) in zip(got, expected[tenant]):
                if ok:
                    assert response["value"] == value  # bit-identical
                    assert response["from_history"] == hist
                else:
                    assert "error" in response
        assert server.metrics.counter("drains_total").value >= 1

    def test_drain_boundaries_do_not_change_results(self):
        """The same trace through wildly different windows is bit-identical."""
        rng = np.random.default_rng(3)
        text = "".join(
            f"tenant-{int(t)} {int(i)}\n"
            for t, i in zip(rng.integers(0, 6, 300), rng.integers(0, 40, 300))
        )
        outputs = []
        for window in (1, 7, 300):
            server = make_server(window=window, adaptive=False)
            lines = run_stdin(server, text)
            outputs.append(
                [(e["tenant"], e.get("value"), e.get("from_history")) for e in lines]
            )
        assert outputs[0] == outputs[1] == outputs[2]


class TestGracefulShutdown:
    def test_shutdown_drains_pending_and_closes(self):
        server = make_server()

        async def main():
            await server.serve_tcp("127.0.0.1", 0)
            host, port = server.tcp_address
            reader, writer = await asyncio.open_connection(host, port)
            writer.write(
                b'{"op": "query", "tenant": "a", "item": 0, "id": 1}\n'
            )
            await writer.drain()
            line = json.loads(await reader.readline())
            await server.shutdown()
            assert not server.local.ingress.depth
            # A new connection is refused after shutdown.
            with pytest.raises(OSError):
                await asyncio.open_connection(host, port)
            writer.close()
            return line

        line = asyncio.run(main())
        assert line["type"] == "answer" and line["id"] == 1

    def test_session_ttl_expires_between_drains(self):
        server = make_server(session_ttl=0.0001, window=1)
        lines = run_stdin(server, "a 0\n\nb 1\n\n")
        assert server.local.expired_tenants  # tenant a (at least) expired
        assert server.metrics.counter("sessions_expired_total").value >= 1
        assert all("type" in entry for entry in lines)


class TestGridOp:
    def test_grid_op_answers_every_lane(self):
        server = make_server(mode="shared", error_threshold=600.0)
        lines = run_stdin(
            server,
            '{"op": "open", "tenant": "a", "epsilon": 1.0, "threshold": 600}\n'
            '{"op": "open", "tenant": "a", "lane": "strict", "epsilon": 0.5, "threshold": 100, "c": 2}\n'
            '{"op": "grid", "tenant": "a", "item": 0, "id": 9}\n',
        )
        grid = [entry for entry in lines if entry["type"] == "grid"][0]
        assert grid["id"] == 9
        assert set(grid["lanes"]) == {"default", "strict"}
        for lane in grid["lanes"].values():
            assert ("value" in lane) or ("error" in lane)


class TestMetricsCli:
    def test_repro_metrics_queries_a_live_server(self, capsys):
        """``repro metrics`` round-trips a snapshot from a TCP server."""
        from repro.cli import main

        server = make_server()

        async def scenario():
            await server.serve_tcp("127.0.0.1", 0)
            host, port = server.tcp_address
            loop = asyncio.get_running_loop()
            code = await loop.run_in_executor(
                None, main, ["metrics", "--host", host, "--port", str(port)]
            )
            await server.shutdown()
            return code

        assert asyncio.run(scenario()) == 0
        out = capsys.readouterr().out
        assert "shed rate: 0.00%" in out
        assert "requests_total: 0" in out
        assert "drain_latency_ms" in out
