"""The HTTP admin plane: probes, the scrape, listings, profiling — over a
live runtime, end to end."""

import asyncio
import json
import time

import pytest

from repro.service.observability.promexport import CONTENT_TYPE
from repro.service.observability.tracing import STAGES
from repro.service.runtime import RuntimeServer, ServerConfig

SUPPORTS = [5.0] * 64


async def http_get(host, port, path):
    """One-shot HTTP GET (Connection: close); returns (status, headers, body)."""
    reader, writer = await asyncio.open_connection(host, port)
    writer.write(
        f"GET {path} HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n".encode()
    )
    await writer.drain()
    raw = await reader.read()
    writer.close()
    try:
        await writer.wait_closed()
    except (ConnectionError, RuntimeError):
        pass
    head, _, body = raw.partition(b"\r\n\r\n")
    lines = head.split(b"\r\n")
    status = int(lines[0].split()[1])
    headers = {}
    for line in lines[1:]:
        key, _, value = line.partition(b": ")
        headers[key.decode().lower()] = value.decode()
    return status, headers, body


async def drive_queries(address, count, tenants=4):
    reader, writer = await asyncio.open_connection(*address)
    for i in range(count):
        writer.write(
            (json.dumps({"op": "query", "tenant": f"t{i % tenants}",
                         "item": i % 64, "id": i}) + "\n").encode()
        )
    await writer.drain()
    for _ in range(count):
        assert await reader.readline()
    writer.close()
    await writer.wait_closed()


@pytest.fixture(params=[1, 2], ids=["shards1", "shards2"])
def serve(request):
    """Boot a TCP server + admin plane over one backend or two shard
    workers, run *scenario*, shut down — the admin plane reads the same
    front-end views either way."""

    def run(config, scenario):
        async def main():
            server = RuntimeServer(SUPPORTS, config, shards=request.param)
            await server.serve_tcp("127.0.0.1", 0)
            try:
                return await scenario(server)
            finally:
                await server.shutdown()

        return asyncio.run(main())

    return run


TRACED = dict(seed=11, trace=True, trace_slow_ms=0.0, admin_port=0, window=64)


class TestProbes:
    def test_healthz_and_readyz(self, serve):
        async def scenario(server):
            host, port = server.admin.address
            status, headers, body = await http_get(host, port, "/healthz")
            assert (status, body) == (200, b"ok\n")
            status, _, body = await http_get(host, port, "/readyz")
            payload = json.loads(body)
            assert status == 200 and payload["ready"] is True
            assert payload["drain_loop"] == "ok"
            assert payload["store"] == "none"
            # A stale heartbeat flips readiness without killing liveness.
            if server.local is not None:
                server.local.drain_beat = time.monotonic() - 60.0
            status, _, body = await http_get(host, port, "/readyz")
            # The drain loop may legitimately refresh the beat between the
            # poke and the probe; assert the contract, not the race.
            payload = json.loads(body)
            assert status in (200, 503)
            status, _, _ = await http_get(host, port, "/healthz")
            assert status == 200

        serve(ServerConfig(**TRACED), scenario)

    def test_readiness_reports_closed_store_and_shutdown(self, serve, tmp_path):
        async def scenario(server):
            ok, detail = await server.readiness()
            assert ok and detail["store"] == "ok"
            return server

        server = serve(
            ServerConfig(seed=1, admin_port=0, state_dir=str(tmp_path)), scenario
        )
        ok, detail = asyncio.run(server.readiness())
        assert not ok
        assert detail["closing"] is True
        assert detail["store"] == "closed"


class TestMetricsScrape:
    def test_prometheus_content_type_and_lines(self, serve):
        async def scenario(server):
            await drive_queries(server.tcp_address, 16)
            host, port = server.admin.address
            status, headers, body = await http_get(host, port, "/metrics")
            assert status == 200
            assert headers["content-type"] == CONTENT_TYPE
            text = body.decode()
            assert "# TYPE repro_requests_total counter" in text
            assert 'le="+Inf"' in text
            # Every traced stage is a labeled series of one family.
            for stage in STAGES:
                assert f'repro_stage_ms_count{{stage="{stage}"}}' in text
            # Sample lines parse as "name value".
            for line in text.splitlines():
                if line and not line.startswith("#"):
                    float(line.rsplit(" ", 1)[1])

        serve(ServerConfig(**TRACED), scenario)


class TestTraceRoutes:
    def test_debug_trace_reports_stages_and_attribution(self, serve):
        async def scenario(server):
            await drive_queries(server.tcp_address, 32)
            host, port = server.admin.address
            status, _, body = await http_get(host, port, "/debug/trace")
            assert status == 200
            report = json.loads(body)
            assert set(report["stages"]) == set(STAGES)
            assert report["spans_total"] == 32
            assert report["total"]["count"] == 32
            assert report["stage_p50_sum_ms"] > 0.0

        serve(ServerConfig(**TRACED), scenario)

    def test_debug_slow_limit(self, serve):
        async def scenario(server):
            await drive_queries(server.tcp_address, 32)
            host, port = server.admin.address
            status, _, body = await http_get(host, port, "/debug/slow?limit=3")
            assert status == 200
            payload = json.loads(body)
            assert len(payload["slow"]) == 3  # threshold 0: everything is slow
            assert payload["slow_threshold_ms"] == 0.0

        serve(ServerConfig(**TRACED), scenario)

    def test_trace_routes_404_when_tracing_disabled(self, serve):
        async def scenario(server):
            host, port = server.admin.address
            for path in ("/debug/trace", "/debug/slow"):
                status, _, body = await http_get(host, port, path)
                assert status == 404
                assert "tracing disabled" in json.loads(body)["error"]

        serve(ServerConfig(seed=2, admin_port=0), scenario)


class TestListings:
    def test_sessions_pagination(self, serve):
        async def scenario(server):
            await drive_queries(server.tcp_address, 16, tenants=5)
            host, port = server.admin.address
            status, _, body = await http_get(host, port, "/sessions?limit=2&offset=1")
            assert status == 200
            page = json.loads(body)
            assert page["total"] == 5
            assert [s["tenant"] for s in page["sessions"]] == ["t1", "t2"]
            first = page["sessions"][0]
            assert first["session_id"] == "t1#0"
            assert first["spent"] > 0.0
            assert first["served"] >= 1
            # Past-the-end offset is an empty page, not an error.
            _, _, body = await http_get(host, port, "/sessions?offset=99")
            assert json.loads(body)["sessions"] == []

        serve(ServerConfig(**TRACED), scenario)

    def test_audit_after_seq_pagination(self, serve):
        async def scenario(server):
            await drive_queries(server.tcp_address, 12, tenants=3)
            host, port = server.admin.address
            status, _, body = await http_get(host, port, "/audit?limit=1000")
            assert status == 200
            full = json.loads(body)
            assert full["count"] == len(full["records"]) > 0
            seqs = [r["seq"] for r in full["records"]]
            assert seqs == sorted(seqs)
            pivot = seqs[len(seqs) // 2]
            _, _, body = await http_get(host, port, f"/audit?after_seq={pivot}")
            tail = json.loads(body)
            assert all(r["seq"] > pivot for r in tail["records"])
            assert tail["count"] == len([s for s in seqs if s > pivot])
            assert tail["next_seq"] == full["next_seq"]

        serve(ServerConfig(**TRACED), scenario)

    def test_audit_paging_sees_every_record_exactly_once(self, serve):
        """Paging by the last seq of each small page walks the whole log.
        Sharded, every shard numbers its seqs from 0, so pages cross seq
        groups that hold one record per shard."""

        async def scenario(server):
            await drive_queries(server.tcp_address, 24, tenants=6)
            host, port = server.admin.address
            _, _, body = await http_get(host, port, "/audit?limit=1000")
            everything = [(r["seq"], r.get("shard"))
                          for r in json.loads(body)["records"]]
            seen, after = [], -1
            while True:
                _, _, body = await http_get(
                    host, port, f"/audit?after_seq={after}&limit=3"
                )
                page = json.loads(body)["records"]
                if not page:
                    break
                seen += [(r["seq"], r.get("shard")) for r in page]
                after = page[-1]["seq"]
            return everything, seen

        everything, seen = serve(ServerConfig(**TRACED), scenario)
        assert len(seen) == len(set(seen))
        assert sorted(seen) == sorted(everything)
        assert len(everything) > 3


class TestAuditEps:
    def test_audit_eps_route_reads_the_posted_report(self, serve):
        async def scenario(server):
            host, port = server.admin.address
            _, _, body = await http_get(host, port, "/audit/eps")
            before = json.loads(body)
            reader, writer = await asyncio.open_connection(*server.tcp_address)
            writer.write((json.dumps({
                "op": "audit_report", "trials": 40, "guesses": 40,
                "correct": 40, "eps_lb": 2.0, "charged_eps": 1.0, "id": 1,
            }) + "\n").encode())
            await writer.drain()
            posted = json.loads(await reader.readline())
            writer.close()
            await writer.wait_closed()
            status, _, body = await http_get(host, port, "/audit/eps")
            return before, posted, status, json.loads(body)

        before, posted, status, after = serve(
            ServerConfig(seed=8, admin_port=0), scenario
        )
        assert before == {"audited": False, "gate_fault": None}
        assert posted["type"] == "audit_report" and posted["id"] == 1
        assert status == 200
        assert after["audited"] and after["caught"] and after["eps_lb"] == 2.0


class TestHttpConformance:
    def test_unknown_route_404_and_index(self, serve):
        async def scenario(server):
            host, port = server.admin.address
            status, _, body = await http_get(host, port, "/nope")
            assert status == 404
            assert "/metrics" in json.loads(body)["routes"]
            status, _, body = await http_get(host, port, "/")
            assert status == 200 and "/readyz" in json.loads(body)["routes"]

        serve(ServerConfig(seed=3, admin_port=0), scenario)

    def test_post_is_405(self, serve):
        async def scenario(server):
            host, port = server.admin.address
            reader, writer = await asyncio.open_connection(host, port)
            writer.write(b"POST /metrics HTTP/1.1\r\nHost: t\r\n\r\n")
            await writer.drain()
            line = await reader.readline()
            assert b"405" in line
            writer.close()
            await writer.wait_closed()

        serve(ServerConfig(seed=4, admin_port=0), scenario)

    def test_keep_alive_serves_sequential_requests(self, serve):
        async def scenario(server):
            host, port = server.admin.address
            reader, writer = await asyncio.open_connection(host, port)
            for _ in range(2):
                writer.write(b"GET /healthz HTTP/1.1\r\nHost: t\r\n\r\n")
                await writer.drain()
                status_line = await reader.readline()
                assert b"200" in status_line
                length = None
                while True:
                    line = await reader.readline()
                    if line.lower().startswith(b"content-length:"):
                        length = int(line.split(b":")[1])
                    if line == b"\r\n":
                        break
                assert (await reader.readexactly(length)) == b"ok\n"
            writer.close()
            await writer.wait_closed()

        serve(ServerConfig(seed=5, admin_port=0), scenario)


class TestProfiler:
    def test_profile_returns_collapsed_stacks(self, serve):
        async def scenario(server):
            host, port = server.admin.address
            status, headers, body = await http_get(
                host, port, "/debug/profile?seconds=0.1"
            )
            assert status == 200
            assert headers["content-type"].startswith("text/plain")
            header = body.decode().splitlines()[0]
            assert header.startswith("# samples:")

        serve(ServerConfig(seed=6, admin_port=0), scenario)

    def test_profile_rejects_bad_duration(self, serve):
        async def scenario(server):
            host, port = server.admin.address
            for bad in ("0", "-1", "9999"):
                status, _, _ = await http_get(
                    host, port, f"/debug/profile?seconds={bad}"
                )
                assert status == 400

        serve(ServerConfig(seed=7, admin_port=0), scenario)


class TestCliServeIntegration:
    def test_serve_config_carries_observability_knobs(self):
        config = ServerConfig(trace=True, trace_slow_ms=5.0, trace_exemplars=32,
                              admin_port=0)
        server = RuntimeServer(SUPPORTS, config)
        assert server.local.tracer is not None
        assert server.local.tracer.slow_ms == 5.0
        assert server.local.tracer._ring.maxlen == 32

    def test_untraced_server_has_no_tracer(self):
        server = RuntimeServer(SUPPORTS, ServerConfig())
        assert server.local.tracer is None
        assert server.admin is None
