"""The sharded runtime: placement, bit-identity, failure, rebalancing.

The contract under test, in order of load-bearing-ness:

* **Placement** is consistent hashing over blake2b — deterministic across
  processes, balanced, and *minimal*: changing the shard set moves only the
  tenants whose successor point changed (exact assertions, not tolerances).
* **Bit-identity**: in ``per-session`` mode a tenant's responses through
  the router + N worker processes are byte-for-byte the single-process
  runtime's, for every protocol op — sharding is an arrival concern.
* **Shed-once accounting**: an overload is counted (and answered) exactly
  once, at the owning worker's ingress queue, and surfaces per-shard as
  ``shed_total{shard="K"}`` next to the summed aggregate.
* **Partial failure**: SIGKILL of one worker degrades *only* its tenants
  to typed ``unavailable``; restart replays the shard's durable state and
  every shard's audit seq chain stays contiguous from 0.
* **Rebalancing**: decommissioning a shard releases its sessions' unspent
  budget and rehashes exactly its tenants onto the survivors.
"""

import asyncio
import io
import json
import os
import signal

import numpy as np
import pytest

from repro.service.runtime import (
    HashRing,
    RuntimeServer,
    ServerConfig,
)

SUPPORTS = np.linspace(1000.0, 10.0, 120)


def make_config(**overrides) -> ServerConfig:
    defaults = dict(
        error_threshold=600.0, seed=7, mode="per-session", window=64,
        drain_idle_s=0.001,
    )
    defaults.update(overrides)
    return ServerConfig(**defaults)


def run_single_stdin(text: str, **overrides):
    server = RuntimeServer(SUPPORTS, make_config(**overrides))
    stdout = io.StringIO()
    asyncio.run(server.serve_stdin(io.StringIO(text), stdout))
    return [json.loads(line) for line in stdout.getvalue().splitlines()]


def run_sharded_stdin(text: str, shards: int = 2, **overrides):
    async def main():
        server = RuntimeServer(SUPPORTS, make_config(**overrides), shards=shards)
        stdout = io.StringIO()
        try:
            await server.serve_stdin(io.StringIO(text), stdout)
        finally:
            await server.shutdown()
        return server, [json.loads(line) for line in stdout.getvalue().splitlines()]

    return asyncio.run(main())


def tenants_on(ring: HashRing, shard: int, count: int, prefix: str = "t"):
    """The first *count* tenant names the ring places on *shard*."""
    found = []
    i = 0
    while len(found) < count:
        name = f"{prefix}{i}"
        if ring.shard_for(name) == shard:
            found.append(name)
        i += 1
    return found


class TestHashRing:
    def test_deterministic_across_instances(self):
        a, b = HashRing(range(4)), HashRing(range(4))
        assert all(a.shard_for(f"t{i}") == b.shard_for(f"t{i}") for i in range(500))

    def test_balance(self):
        ring = HashRing(range(4))
        counts = {k: 0 for k in range(4)}
        for i in range(2000):
            counts[ring.shard_for(f"tenant-{i}")] += 1
        # Virtual nodes keep the spread sane: no shard starves or hogs.
        assert min(counts.values()) >= 0.08 * 2000
        assert max(counts.values()) <= 0.45 * 2000

    def test_growing_moves_tenants_only_to_the_new_shard(self):
        old, new = HashRing(range(4)), HashRing(range(5))
        moved = 0
        for i in range(2000):
            tenant = f"tenant-{i}"
            before, after = old.shard_for(tenant), new.shard_for(tenant)
            if before != after:
                assert after == 4  # movement is *to* the new shard only
                moved += 1
        assert 0 < moved < 1000  # some rebalancing, far from a reshuffle

    def test_without_moves_only_the_removed_shards_tenants(self):
        ring = HashRing(range(4))
        survivor_ring = ring.without(2)
        assert survivor_ring.shards == (0, 1, 3)
        for i in range(2000):
            tenant = f"tenant-{i}"
            before, after = ring.shard_for(tenant), survivor_ring.shard_for(tenant)
            if before != 2:
                assert after == before  # untouched placement, exactly
            else:
                assert after != 2

    def test_degenerate_rings_rejected(self):
        with pytest.raises(ValueError):
            HashRing([])
        with pytest.raises(ValueError):
            HashRing([0]).without(0)
        with pytest.raises(ValueError):
            HashRing([1, 1])


class TestShardedBitIdentity:
    def test_all_ops_match_single_process_per_tenant(self):
        """Every protocol op through 3 worker processes == one process.

        ``per-session`` mode: a tenant's noise streams derive from
        ``(seed, tenant, epoch)`` alone, so neither cohort composition nor
        process placement may change a bit.  Responses are keyed by unique
        ``id``; two things differ *by design* and are excluded: cross-tenant
        interleaving, and ``ticket`` — the serving process's admission
        sequence number (process-local diagnostics, like ``pending`` in an
        overload response; a cross-shard global ticket would serialize the
        shards on a shared counter).  Everything else — values, history
        bits, session ids, released budgets, lane payloads — must match
        byte for byte.
        """
        items = np.array([0, 5, 0, 9], dtype=np.int64)
        b64 = __import__("base64").b64encode(items.tobytes()).decode()
        lines = []
        rid = 0

        def req(**payload):
            nonlocal rid
            rid += 1
            lines.append(json.dumps({**payload, "id": rid}))
            return rid

        for t in [f"tenant-{i}" for i in range(8)]:
            req(op="open", tenant=t, epsilon=2.0, threshold=500.0, c=4)
            req(op="open", tenant=t, lane="hi", epsilon=0.5, threshold=550.0, c=2)
            req(op="query", tenant=t, item=1)
            req(op="query", tenant=t, item=1)  # repeat: history path
            req(op="query", tenant=t, lane="hi", item=2)
            req(op="query_block", tenant=t, items=[3, 4, 3])
            req(op="query_block", tenant=t, items_b64=b64, bin=True)
            req(op="grid", tenant=t, item=6)
            req(op="close", tenant=t)
            req(op="query", tenant=t, item=7)  # auto-reopen: epoch 1
        script = "\n".join(lines) + "\n"

        single = run_single_stdin(script)
        _, sharded = run_sharded_stdin(script, shards=3)

        def strip(r):
            return {k: v for k, v in r.items() if k != "ticket"}

        by_id_single = {r["id"]: strip(r) for r in single}
        by_id_sharded = {r["id"]: strip(r) for r in sharded}
        assert by_id_single.keys() == by_id_sharded.keys()
        assert by_id_single == by_id_sharded  # bit-identical payloads

        # Per-tenant response order is the request order on both paths,
        # and sharded tickets still increase along each tenant's stream
        # (per-shard monotone admission implies per-tenant monotone).
        def order(responses):
            per = {}
            for r in responses:
                per.setdefault(r.get("tenant"), []).append(r["id"])
            return per

        assert order(single) == order(sharded)
        per_tenant_tickets = {}
        for r in sharded:
            if "ticket" in r:
                per_tenant_tickets.setdefault(r["tenant"], []).append(r["ticket"])
        for tenant, tickets in per_tenant_tickets.items():
            assert tickets == sorted(tickets), tenant

    def test_legacy_lines_and_blank_drain_through_router(self, capsys):
        """The stdio dialect survives routing: legacy two-token lines,
        blank-line force drain, malformed legacy errors on stderr."""
        _, out = run_sharded_stdin(
            "tenant-a 0\ntenant-b 1\n\nnot-a-number x\ntenant-a 0\n", shards=2
        )
        answers = [r for r in out if r["type"] == "answer"]
        assert sorted((a["tenant"], a["item"]) for a in answers) == [
            ("tenant-a", 0), ("tenant-a", 0), ("tenant-b", 1),
        ]
        assert "error:" in capsys.readouterr().err


class TestShedAccountingAndAdminPlane:
    def test_shed_once_per_shard_labels_and_merged_exposition(self):
        """One boot, three guarantees: an overload answered exactly once
        and charged to exactly one shard's ``shed_total``; the merged
        ``/metrics`` exposition labels per-shard series and keeps one TYPE
        line per family; merged sessions/readiness agree with the wire."""

        async def main():
            # max_queue=8 with weight-16 blocks: every block sheds, and the
            # single scalar query per tenant is admitted — deterministic.
            server = RuntimeServer(
                SUPPORTS, make_config(max_queue=8, admin_port=0), shards=2
            )
            await server.serve_tcp("127.0.0.1", 0)
            host, port = server.tcp_address
            reader, writer = await asyncio.open_connection(host, port)

            async def rpc(payload):
                writer.write((json.dumps(payload) + "\n").encode())
                await writer.drain()
                return json.loads(await reader.readline())

            shard0 = tenants_on(server.ring, 0, 1)[0]
            shard1 = tenants_on(server.ring, 1, 1)[0]
            sheds = []
            for tenant, n in ((shard0, 3), (shard1, 2)):
                for _ in range(n):
                    sheds.append(await rpc({
                        "op": "query_block", "tenant": tenant,
                        "items": list(range(16)),
                    }))
            assert [r["type"] for r in sheds] == ["overloaded"] * 5
            for tenant in (shard0, shard1):  # one admitted query per shard
                answer = await rpc({"op": "query", "tenant": tenant,
                                    "item": 0, "id": 9})
                assert answer["type"] == "answer"

            snap = await rpc({"op": "metrics"})
            counters = snap["counters"]
            # Counted once, at the owning worker: 5 shed responses, each a
            # weight-16 block, charge shed_total exactly 5*16 — the router
            # added no second admission hop — and the per-shard labels
            # partition the aggregate exactly.
            assert counters["shed_total"] == 5 * 16
            assert counters['shed_total{shard="0"}'] == 3 * 16
            assert counters['shed_total{shard="1"}'] == 2 * 16
            assert counters["router_requests_total"] == 7  # 5 blocks + 2 queries
            assert counters["answered_total"] == 2
            assert snap["shards"]["alive"] == [0, 1]

            ahost, aport = server.admin.address
            areader, awriter = await asyncio.open_connection(ahost, aport)
            awriter.write(f"GET /metrics HTTP/1.1\r\nHost: {ahost}\r\n"
                          "Connection: close\r\n\r\n".encode())
            await awriter.drain()
            raw = (await areader.read()).decode()
            awriter.close()
            body = raw.split("\r\n\r\n", 1)[1]
            assert 'repro_shed_total{shard="0"} 48' in body
            assert 'repro_shed_total{shard="1"} 32' in body
            assert "repro_shed_total 80" in body
            type_lines = [l for l in body.splitlines() if l.startswith("# TYPE ")]
            assert len(type_lines) == len(set(type_lines))
            # Families stay contiguous blocks: every sample sits under the
            # TYPE line of its own family.
            current = None
            for line in body.splitlines():
                if line.startswith("# TYPE "):
                    current = line.split()[2]
                elif line:
                    name = line.split("{", 1)[0].split(" ", 1)[0]
                    assert name.startswith(current), (line, current)

            sessions = await rpc({"op": "sessions"})
            listed = {(s["tenant"], s["shard"]) for s in sessions["sessions"]}
            assert listed == {(shard0, 0), (shard1, 1)}  # auto-opened
            status = await rpc({"op": "status"})
            assert status["ready"] is True
            assert set(status["shards"]) == {"0", "1"}

            writer.close()
            await server.shutdown()

        asyncio.run(main())


class TestWorkerDeathAndRecovery:
    def test_sigkill_degrades_one_shard_and_restart_replays_it(self, tmp_path):
        """SIGKILL one worker: its tenants get typed ``unavailable``, the
        other shard keeps answering, restart recovers the durable shard-K
        state (sessions answer without auto-open), and every shard's audit
        seq chain is contiguous from 0."""

        async def main():
            server = RuntimeServer(
                SUPPORTS,
                make_config(state_dir=str(tmp_path / "state"), auto_open=False),
                shards=2,
            )
            await server.serve_tcp("127.0.0.1", 0)
            host, port = server.tcp_address
            reader, writer = await asyncio.open_connection(host, port)

            async def rpc(payload):
                writer.write((json.dumps(payload) + "\n").encode())
                await writer.drain()
                return json.loads(await reader.readline())

            victims = tenants_on(server.ring, 0, 2)
            survivors = tenants_on(server.ring, 1, 2)
            for tenant in victims + survivors:
                assert (await rpc({"op": "open", "tenant": tenant}))["type"] == "opened"
                assert (await rpc({"op": "query", "tenant": tenant, "item": 0,
                                   "id": 1}))["type"] == "answer"

            os.kill(server.backends[0].pid, signal.SIGKILL)
            deadline = asyncio.get_running_loop().time() + 10.0
            while not server.backends[0].down:
                assert asyncio.get_running_loop().time() < deadline
                await asyncio.sleep(0.02)

            for tenant in victims:
                degraded = await rpc({"op": "query", "tenant": tenant,
                                      "item": 1, "id": 2})
                assert degraded["type"] == "unavailable"
                assert degraded["shard"] == 0
                assert degraded["tenant"] == tenant
            for tenant in survivors:  # the blast radius is one shard
                assert (await rpc({"op": "query", "tenant": tenant, "item": 1,
                                   "id": 3}))["type"] == "answer"
            ready, detail = await server.readiness()
            assert ready is False
            assert detail["shards"]["0"]["state"] == "down"

            info = await server.restart_shard(0)
            assert info["recovered_sessions"] == len(victims)
            ready, _ = await server.readiness()
            assert ready is True
            for tenant in victims:
                # auto_open is off: only a replayed session can answer.
                recovered = await rpc({"op": "query", "tenant": tenant,
                                       "item": 2, "id": 4})
                assert recovered["type"] == "answer", recovered

            audit = await rpc({"op": "audit", "limit": 10_000})
            per_shard_seqs = {}
            for record in audit["records"]:
                per_shard_seqs.setdefault(record["shard"], []).append(record["seq"])
            assert set(per_shard_seqs) == {0, 1}
            for shard, seqs in per_shard_seqs.items():
                assert sorted(seqs) == list(range(len(seqs))), (shard, seqs)

            writer.close()
            await server.shutdown()

        asyncio.run(main())


class TestDecommission:
    def test_eviction_releases_budget_and_rehashes_onto_survivors(self):
        async def main():
            server = RuntimeServer(SUPPORTS, make_config(), shards=3)
            await server.serve_tcp("127.0.0.1", 0)
            host, port = server.tcp_address
            reader, writer = await asyncio.open_connection(host, port)

            async def rpc(payload):
                writer.write((json.dumps(payload) + "\n").encode())
                await writer.drain()
                return json.loads(await reader.readline())

            evicted = tenants_on(server.ring, 2, 2)
            kept = tenants_on(server.ring, 0, 1) + tenants_on(server.ring, 1, 1)
            for tenant in evicted + kept:
                assert (await rpc({"op": "query", "tenant": tenant, "item": 0,
                                   "id": 1}))["type"] == "answer"
            placement_before = {t: server.ring.shard_for(t) for t in kept}

            released = await server.decommission(2)
            assert set(released) == set(evicted)
            assert all(eps > 0.0 for eps in released.values())

            for tenant in evicted:  # rehash: served again, on a survivor
                again = await rpc({"op": "query", "tenant": tenant, "item": 1,
                                   "id": 2})
                assert again["type"] == "answer", again
                assert server.ring.shard_for(tenant) in (0, 1)
            # Untouched tenants kept their exact placement.
            assert {t: server.ring.shard_for(t) for t in kept} == placement_before

            sessions = await rpc({"op": "sessions", "limit": 100})
            where = {s["tenant"]: s["shard"] for s in sessions["sessions"]}
            for tenant in evicted:
                assert where[tenant] == server.ring.shard_for(tenant)
            snap = await rpc({"op": "metrics"})
            assert snap["shards"]["decommissioned"] == [2]
            assert snap["shards"]["alive"] == [0, 1]

            writer.close()
            await server.shutdown()

        asyncio.run(main())


class TestSnapshotMerging:
    """The pure merge functions behind the aggregated admin plane."""

    def test_histogram_merge_matches_single_histogram_semantics(self):
        from repro.service.runtime.metrics import Histogram
        from repro.service.runtime.shard import merge_histogram_snapshots

        bounds = [1.0, 5.0, 25.0]
        values = [0.5, 2.0, 3.0, 10.0, 30.0, 0.1, 4.0, 7.0]
        whole = Histogram("h", buckets=bounds)
        half_a = Histogram("h", buckets=bounds)
        half_b = Histogram("h", buckets=bounds)
        for i, v in enumerate(values):
            whole.observe(v)
            (half_a if i % 2 == 0 else half_b).observe(v)
        merged = merge_histogram_snapshots([half_a.snapshot(), half_b.snapshot()])
        reference = whole.snapshot()
        # count/sum/buckets merge exactly; quantiles re-interpolate with the
        # same linear scheme, so they match the single histogram's.
        assert merged == reference

    def test_histogram_merge_empty(self):
        from repro.service.runtime.shard import merge_histogram_snapshots

        assert merge_histogram_snapshots([])["count"] == 0

    def test_merge_snapshots_labels_and_aggregates(self):
        from repro.service.runtime.shard import merge_snapshots

        per_shard = {
            0: {"counters": {"requests_total": 3, 'hits{route="/a"}': 1},
                "gauges": {"queue_depth": 2},
                "histograms": {}},
            1: {"counters": {"requests_total": 4, "shed_total": 4},
                "gauges": {"queue_depth": 5},
                "histograms": {}},
        }
        snap = merge_snapshots(per_shard, {"counters": {"router_requests_total": 7},
                                           "gauges": {}, "histograms": {}})
        c = snap["counters"]
        assert c["requests_total"] == 7
        assert c['requests_total{shard="0"}'] == 3
        assert c['requests_total{shard="1"}'] == 4
        assert c['hits{route="/a",shard="0"}'] == 1
        assert c["router_requests_total"] == 7
        assert snap["gauges"]["queue_depth"] == 7  # additive gauges sum
        assert snap["shed_rate"] == round(4 / 7, 6)


    def test_merge_audit_pages_never_end_inside_a_seq_group(self):
        """2 shards x seqs 0-5, limit 3, paging by the last seq: every
        record exactly once (a page cut inside a seq group would lose that
        seq's records on the higher shards)."""
        from repro.service.runtime.shard import merge_audit

        def shard_view(after_seq, limit):
            records = [{"seq": s} for s in range(6) if s > after_seq]
            return {"next_seq": 6, "records": records[:limit]}

        seen, after = [], -1
        while True:
            page = merge_audit({k: shard_view(after, 3) for k in (0, 1)},
                               after, 3)["records"]
            if not page:
                break
            seen += [(r["seq"], r["shard"]) for r in page]
            after = page[-1]["seq"]
        assert seen == [(s, k) for s in range(6) for k in (0, 1)]


class TestStatus:
    def test_status_keys_match_and_totals_sum_over_shards(self):
        """``status`` has one shape at every shard count, and the sharded
        totals are the sums of the shards' own."""
        from repro.service.runtime.server import STATUS_TOTALS

        async def run(shards):
            server = RuntimeServer(SUPPORTS, make_config(), shards=shards)
            await server.serve_tcp("127.0.0.1", 0)
            reader, writer = await asyncio.open_connection(*server.tcp_address)

            async def rpc(payload):
                writer.write((json.dumps(payload) + "\n").encode())
                await writer.drain()
                return json.loads(await reader.readline())

            for i in range(9):
                tenant = f"tenant-{i}"
                assert (await rpc({"op": "query", "tenant": tenant,
                                   "item": i}))["type"] == "answer"
                if i % 3 == 0:
                    assert (await rpc({"op": "close",
                                       "tenant": tenant}))["type"] == "closed"
            status = await rpc({"op": "status"})
            per = [await server.backends[k].view("status")
                   for k in range(shards)] if shards > 1 else None
            writer.close()
            await server.shutdown()
            return status, per

        single, _ = asyncio.run(run(1))
        sharded, per = asyncio.run(run(3))
        assert single.keys() == sharded.keys()
        assert set(single["shards"]) == {"0"}
        assert set(sharded["shards"]) == {"0", "1", "2"}
        for key in STATUS_TOTALS:
            assert sharded[key] == pytest.approx(sum(p[key] for p in per)), key
        # Same per-tenant traffic, same fleet-wide accounting.
        assert (single["sessions_open"], single["sessions_closed"]) == (6, 3)
        for key in ("sessions_open", "sessions_closed", "audit_records",
                    "next_audit_seq"):
            assert sharded[key] == single[key], key
        assert sharded["epsilon_spent"] == pytest.approx(single["epsilon_spent"])


class TestShardedAudit:
    def test_canary_audit_across_shards_catches_broken_gate(self):
        """The continuous-audit path through the router: canary sessions
        pinned onto *distinct* shards, the bound computed from the
        router-merged responses, the ``audit_report`` op held at the router
        and its gauges merged unrelabeled into the aggregate ``/metrics``
        view.  With ``gate_fault='rho-reuse'`` (propagated to every worker
        via the shard config) the catch is deterministic — no statistics,
        every canary firing is a noiseless tell."""
        from repro.service.auditor import eps_lower_bound, plant_canaries

        planted, plan = plant_canaries(SUPPORTS, threshold=600.0)

        async def main():
            server = RuntimeServer(
                planted, make_config(gate_fault="rho-reuse"), shards=2
            )
            await server.serve_tcp("127.0.0.1", 0)
            host, port = server.tcp_address
            reader, writer = await asyncio.open_connection(host, port)

            async def rpc(payload):
                writer.write((json.dumps(payload) + "\n").encode())
                await writer.drain()
                return json.loads(await reader.readline())

            # Eight canary tenants per shard, secret bits alternating.
            names = (tenants_on(server.ring, 0, 8, prefix="canary-a")
                     + tenants_on(server.ring, 1, 8, prefix="canary-b"))
            trials = correct = 0
            for i, tenant in enumerate(names):
                bit = i % 2
                opened = await rpc({**plan.open_payload(tenant), "id": 2 * i})
                assert opened["type"] == "opened"
                answer = await rpc({"op": "query", "tenant": tenant,
                                    "item": plan.item_for(bit),
                                    "id": 2 * i + 1})
                assert answer["type"] == "answer"
                trials += 1
                correct += plan.guess(answer) == bit
            assert correct == trials == len(names)  # the noiseless tell

            # Both shards actually hosted canaries (the pinning worked).
            sessions = await rpc({"op": "sessions"})
            shards_used = {s["shard"] for s in sessions["sessions"]
                           if s["tenant"].startswith("canary-")}
            assert shards_used == {0, 1}

            eps_lb = eps_lower_bound(trials, trials, correct)
            posted = await rpc({
                "op": "audit_report", "trials": trials, "guesses": trials,
                "correct": correct, "eps_lb": eps_lb,
                "charged_eps": plan.charged_eps, "id": 99,
            })
            assert posted["type"] == "audit_report"
            assert posted["caught"] is True and posted["eps_lb"] > 1.0

            # Router-held totals surface unrelabeled in the merged snapshot.
            snap = await rpc({"op": "metrics"})
            assert snap["counters"]["audit_trials_total"] == trials
            assert snap["gauges"]["audited_eps_lb"] == eps_lb
            assert snap["gauges"]["audit_charged_eps"] == plan.charged_eps

            writer.close()
            await server.shutdown()

        asyncio.run(main())
