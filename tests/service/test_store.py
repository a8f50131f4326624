"""The durable store: WAL framing, retry, compaction, exact recovery.

The contract under test: after any sequence of flushes and checkpoints,
reopening the directory and calling :func:`restore_service` yields a
service whose sessions, lanes, pools, rng streams, and audit chain are
*bit-identical* to the one that wrote it — and whose future answers match
an uninterrupted in-memory reference exactly.  Around that: torn-tail
truncation, mid-file corruption refusal, SQLITE_BUSY retry with backoff,
closed-session compaction, and the typed ``unavailable`` degradation the
runtime surfaces when the store stays down.
"""

import json
import sqlite3
import zlib

import numpy as np
import pytest

from repro.accounting.budget import BudgetPool
from repro.exceptions import InvalidParameterError, StoreUnavailableError
from repro.service import SVTQueryService, verify_audit
from repro.service.store import (
    DurableStore,
    FaultInjector,
    StoreConfig,
    WRITE_POINTS,
    restore_service,
)
from repro.service.store.sqlite import _crc_line, _parse_crc_line

SUPPORTS = np.linspace(1000.0, 10.0, 120)


def make_service(seed=11, mode="per-session"):
    return SVTQueryService(SUPPORTS, seed=seed, mode=mode)


def open_and_query(service, tenant="acme", items=(0, 3, 7), **config):
    defaults = dict(epsilon=1.0, error_threshold=600.0, c=20)
    defaults.update(config)
    service.open_session(tenant, **defaults)
    return [service.answer(tenant, item).value for item in items]


class TestWalFraming:
    def test_crc_line_roundtrips(self):
        events = [{"t": "meta", "m": {"manager_seed": 7}}]
        line = _crc_line(events)
        assert line.endswith(b"\n")
        assert _parse_crc_line(line[:-1]) == events

    def test_bad_crc_and_bad_json_are_torn(self):
        line = _crc_line([{"t": "meta", "m": {}}])[:-1]
        assert _parse_crc_line(b"999 " + line.split(b" ", 1)[1]) is None
        assert _parse_crc_line(b"nonsense") is None
        payload = b'{"not": "a list"}'
        framed = str(zlib.crc32(payload)).encode() + b" " + payload
        assert _parse_crc_line(framed) is None

    def test_torn_final_line_is_truncated_on_open(self, tmp_path):
        store = DurableStore(tmp_path)
        store.attach(make_service())
        open_and_query(store._service)
        store.flush()
        good = store.wal_path.read_bytes()
        store.abandon()
        # A crash mid-append: half of the next record, no newline.
        store.wal_path.write_bytes(good + _crc_line([{"t": "meta", "m": {}}])[:7])
        reopened = DurableStore(tmp_path)
        assert reopened.torn_tail
        assert reopened.stats["torn_tail_truncated"] == 1
        assert reopened.wal_path.read_bytes() == good
        service, info = restore_service(reopened, SUPPORTS)
        assert info.torn_tail and len(service.manager) == 1
        reopened.close()

    def test_torn_final_line_with_newline_is_truncated(self, tmp_path):
        store = DurableStore(tmp_path)
        store.attach(make_service())
        store.flush()
        good = store.wal_path.read_bytes()
        store.abandon()
        store.wal_path.write_bytes(good + b"123 [{\"t\":\n")
        reopened = DurableStore(tmp_path)
        assert reopened.torn_tail
        assert reopened.wal_path.read_bytes() == good
        reopened.close()

    def test_midfile_corruption_raises(self, tmp_path):
        store = DurableStore(tmp_path)
        store.attach(make_service())
        store.flush()
        good = store.wal_path.read_bytes()
        store.abandon()
        store.wal_path.write_bytes(b"garbage line\n" + good)
        with pytest.raises(InvalidParameterError, match="corrupt WAL record"):
            DurableStore(tmp_path)


class TestRetry:
    def test_busy_errors_back_off_then_succeed(self, tmp_path):
        store = DurableStore(tmp_path, StoreConfig(retries=5, backoff_s=1e-4))
        calls = {"n": 0}

        def flaky():
            calls["n"] += 1
            if calls["n"] < 3:
                raise sqlite3.OperationalError("database is locked")
            return "ok"

        assert store._with_retry("test", flaky) == "ok"
        assert calls["n"] == 3
        assert store.stats["retries"] == 2
        store.close()

    def test_retry_exhaustion_raises_unavailable_with_attempts(self, tmp_path):
        store = DurableStore(tmp_path, StoreConfig(retries=3, backoff_s=1e-4))

        def always_busy():
            raise sqlite3.OperationalError("database is locked")

        with pytest.raises(StoreUnavailableError) as err:
            store._with_retry("test", always_busy)
        assert err.value.attempts == 3
        store.close()

    def test_non_busy_sqlite_error_fails_fast(self, tmp_path):
        store = DurableStore(tmp_path, StoreConfig(retries=5, backoff_s=1e-4))
        calls = {"n": 0}

        def broken():
            calls["n"] += 1
            raise sqlite3.OperationalError("no such table: nope")

        with pytest.raises(StoreUnavailableError):
            store._with_retry("test", broken)
        assert calls["n"] == 1  # not retried: this will never heal
        store.close()

    def test_concurrent_writer_lock_is_survived(self, tmp_path):
        """A real SQLITE_BUSY: another connection holds the write lock for
        the first attempts, then releases; the checkpoint must land."""
        store = DurableStore(tmp_path, StoreConfig(retries=8, backoff_s=1e-3,
                                                   busy_timeout_ms=1))
        store.attach(make_service())
        open_and_query(store._service)
        store.flush()
        rival = sqlite3.connect(store.db_path, timeout=0.05,
                                check_same_thread=False)
        rival.execute("BEGIN IMMEDIATE")
        import threading

        release = threading.Timer(0.05, rival.rollback)
        release.start()
        applied = store.checkpoint()  # retries until the rival lets go
        release.join()
        assert applied > 0
        assert store.stats["retries"] >= 1
        rival.close()
        store.close()


class TestRoundtrip:
    def test_recovery_is_bit_identical_to_uninterrupted(self, tmp_path):
        """The tentpole property: (write → crash → recover → continue)
        produces exactly the answers of never crashing at all."""
        reference = make_service()
        open_and_query(reference, "acme")
        open_and_query(reference, "zeno", items=(1, 4))

        durable = make_service()
        store = DurableStore(tmp_path)
        store.attach(durable)
        open_and_query(durable, "acme")
        open_and_query(durable, "zeno", items=(1, 4))
        store.flush()
        store.abandon()  # SIGKILL stand-in: nothing after the flush survives

        recovered, info = restore_service(DurableStore(tmp_path), SUPPORTS)
        assert info.sessions == 2 and info.report.ok

        follow_up = [(tenant, item) for tenant in ("acme", "zeno")
                     for item in (2, 9, 11, 50)]
        for tenant, item in follow_up:
            expected = reference.answer(tenant, item)
            got = recovered.answer(tenant, item)
            assert got.value == expected.value  # bit-identical, not approx
            assert got.from_history == expected.from_history
        assert recovered.manager.total_spent() == reference.manager.total_spent()

    def test_shared_mode_engine_rng_continues_exactly(self, tmp_path):
        reference = make_service(mode="shared")
        durable = make_service(mode="shared")
        store = DurableStore(tmp_path)
        store.attach(durable)
        for service in (reference, durable):
            service.open_session("acme", epsilon=1.0, error_threshold=600.0, c=30)
            service.submit_many("acme", np.array([0, 2, 5]))
            service.drain()
        store.close()  # graceful shutdown path this time

        recovered, _ = restore_service(DurableStore(tmp_path), SUPPORTS)
        for service in (reference, recovered):
            service.submit_many("acme", np.array([7, 8, 9, 40]))
        ref, got = reference.drain(), recovered.drain()
        np.testing.assert_array_equal(got.values, ref.values)

    def test_lanes_and_pool_recover_with_positions(self, tmp_path):
        store = DurableStore(tmp_path)
        service = make_service()
        store.attach(service)
        pool = BudgetPool(3.0)
        service.manager.open_session(
            "acme", epsilon=1.0, error_threshold=600.0, c=10, pool=pool
        )
        service.manager.open_lane(
            "acme", "reports", epsilon=0.5, error_threshold=700.0, c=4
        )
        service.answer("acme", 3)
        store.close()

        recovered, info = restore_service(DurableStore(tmp_path), SUPPORTS)
        assert info.lanes == 1
        parent = recovered.manager.session("acme")
        assert set(parent.lanes) == {"reports"}
        assert parent.pool.total == 3.0
        assert parent.pool.drawn == pool.drawn
        assert parent.pool.refunded == pool.refunded
        assert parent.lanes["reports"].pool is parent.pool

    def test_recovery_refuses_wrong_dataset(self, tmp_path):
        store = DurableStore(tmp_path)
        store.attach(make_service())
        store.close()
        with pytest.raises(InvalidParameterError, match="wrong score file"):
            restore_service(DurableStore(tmp_path), SUPPORTS[:50])

    def test_recovery_refuses_empty_directory(self, tmp_path):
        with pytest.raises(InvalidParameterError, match="manager_seed"):
            restore_service(DurableStore(tmp_path), SUPPORTS)

    def test_recovery_rejects_tampered_ledger(self, tmp_path):
        """A doctored state snapshot understating spend must not recover
        verify-green: the ledger/audit reconciliation catches it."""
        store = DurableStore(tmp_path)
        service = make_service()
        store.attach(service)
        open_and_query(service)
        store.flush()
        store.abandon()
        # Strip the session's ledger entries in the snapshotted state.
        raw = DurableStore(tmp_path)
        lines = []
        for chunk in raw.wal_path.read_bytes().split(b"\n"):
            if not chunk:
                continue
            events = _parse_crc_line(chunk)
            for ev in events:
                if ev["t"] == "state":
                    ev["s"]["entries"] = ev["s"]["entries"][:1]
            lines.append(_crc_line(events))
        raw.abandon()
        raw.wal_path.write_bytes(b"".join(lines))
        with pytest.raises(InvalidParameterError, match="inconsistent accounting"):
            restore_service(DurableStore(tmp_path), SUPPORTS)


class TestCheckpointCompaction:
    def test_checkpoint_truncates_wal_and_preserves_state(self, tmp_path):
        store = DurableStore(tmp_path)
        service = make_service()
        store.attach(service)
        open_and_query(service)
        store.flush()
        assert store.wal_batches > 0
        store.checkpoint()
        assert store.wal_batches == 0
        assert store.wal_path.stat().st_size == 0
        state = store.load_state()
        assert state.sessions and state.records

    def test_auto_checkpoint_after_n_batches(self, tmp_path):
        store = DurableStore(tmp_path, StoreConfig(checkpoint_every=3))
        service = make_service()
        store.attach(service)
        service.open_session("acme", epsilon=2.0, error_threshold=600.0, c=50)
        for item in range(6):
            service.answer("acme", item)
            store.flush()
        assert store.stats["checkpoints"] >= 2
        assert store.wal_batches < 3

    def test_closed_sessions_compact_to_archive(self, tmp_path):
        """Recovery cost is bounded by *live* state: closed sessions leave
        the snapshot, and the archive still completes the audit chain."""
        store = DurableStore(tmp_path)
        service = make_service()
        store.attach(service)
        open_and_query(service, "acme")
        open_and_query(service, "zeno", items=(1,))
        service.evict("acme")
        store.flush()
        store.checkpoint()
        assert store.stats["archived_records"] > 0

        state = store.load_state()
        assert all(info["tenant"] == "zeno" for info in state.sessions.values())
        assert "acme#0" not in state.closed
        live_sessions = {r.session for r in state.records}
        assert live_sessions == {"zeno#0"}
        # Archive + live records rebuild the *complete* verifiable chain.
        archived = store.load_archive()
        assert {r.session for r in archived} == {"acme#0"}
        full = sorted(archived + state.records, key=lambda r: r.seq)
        assert [r.seq for r in full] == list(range(len(full)))

    def test_archive_reader_dedupes_replayed_lines(self, tmp_path):
        store = DurableStore(tmp_path)
        service = make_service()
        store.attach(service)
        open_and_query(service)
        service.evict("acme")
        store.flush()
        store.checkpoint()
        first = store.load_archive()
        assert first
        # A crash between archive-fsync and DELETE-commit replays the
        # compaction; the archive must tolerate its own duplicate lines.
        data = store.archive_path.read_bytes()
        store.archive_path.write_bytes(data + data)
        assert store.load_archive() == first

    def test_recovered_service_keeps_compacted_seq_numbering(self, tmp_path):
        store = DurableStore(tmp_path)
        service = make_service()
        store.attach(service)
        open_and_query(service, "acme")
        open_and_query(service, "zeno", items=(1,))
        service.evict("acme")
        store.flush()
        store.checkpoint()
        next_seq = service.audit.next_seq
        store.abandon()

        recovered, _ = restore_service(DurableStore(tmp_path), SUPPORTS)
        # New records must continue after the archived ones, never reuse.
        assert recovered.audit.next_seq == next_seq
        before = len(recovered.audit)
        recovered.evict("zeno")
        fresh = list(recovered.audit)[before:]
        assert fresh and all(r.seq >= next_seq for r in fresh)


class TestFaultInjection:
    def test_unknown_point_and_action_are_rejected(self):
        faults = FaultInjector()
        with pytest.raises(InvalidParameterError):
            faults.arm("not-a-point")
        faults.arm("flush-begin", "frobnicate")
        with pytest.raises(InvalidParameterError, match="unknown fault action"):
            faults.fire("flush-begin")

    def test_from_env_parses_spec(self):
        faults = FaultInjector.from_env({"REPRO_STORE_FAULT": "wal-fsync:3:raise"})
        assert faults.armed
        faults.fire("wal-fsync")
        faults.fire("wal-fsync")
        with pytest.raises(StoreUnavailableError):
            faults.fire("wal-fsync")
        assert not faults.armed

    def test_every_point_is_reachable(self, tmp_path):
        """Each named write point actually fires during a flush+checkpoint
        cycle — a renamed call site would silently kill the crash tests."""
        for point in WRITE_POINTS:
            hits = []
            store = DurableStore(tmp_path / point)
            store.faults.arm(point, lambda **ctx: hits.append(point))
            service = make_service()
            store.attach(service)
            open_and_query(service)
            service.evict("acme")  # makes compaction (archive-write) run
            store.flush()
            store.checkpoint()
            store.close()
            assert hits == [point], f"write point {point!r} never fired"

    def test_failed_flush_keeps_state_pending_then_retries_clean(self, tmp_path):
        """A flush that dies mid-write loses nothing: the next flush repairs
        the WAL tail and persists the same events exactly once."""
        store = DurableStore(tmp_path)
        service = make_service()
        store.attach(service)
        open_and_query(service)
        store.faults.arm("wal-line", "torn-raise")  # half the line, then die
        with pytest.raises(StoreUnavailableError):
            store.flush()
        assert store._pending_audit  # still pending, not dropped
        n = store.flush()  # clean retry
        assert n > 0 and not store._pending_audit
        store.abandon()
        recovered, info = restore_service(DurableStore(tmp_path), SUPPORTS)
        assert info.report.ok
        assert len(recovered.audit) == len(service.audit)

    def test_flush_failure_surfaces_as_unavailable_response(self, tmp_path):
        """Satellite: retry exhaustion degrades to a typed ``unavailable``
        JSONL response — the connection survives, the spend stays pending."""
        import io
        import asyncio

        from repro.service.runtime import RuntimeServer, ServerConfig

        server = RuntimeServer(SUPPORTS, ServerConfig(
            error_threshold=600.0, seed=5, mode="per-session",
            state_dir=str(tmp_path), drain_idle_s=0.001,
        ))
        server.local.store.faults.arm("flush-begin", "raise")
        stdout = io.StringIO()
        asyncio.run(server.serve_stdin(io.StringIO(
            '{"op": "query", "tenant": "a", "item": 0}\n'
        ), stdout))
        lines = [json.loads(line) for line in stdout.getvalue().splitlines()]
        assert lines and lines[0]["type"] == "unavailable"
        assert "durable store unavailable" in lines[0]["error"]
        assert server.metrics.counter("store_unavailable_total").value >= 1
        # The store healed (one-shot fault): the next round answers, and the
        # retried query's spend reaches disk with the rest of the batch.
        stdout = io.StringIO()
        asyncio.run(server.serve_stdin(io.StringIO(
            '{"op": "query", "tenant": "a", "item": 0}\n'
        ), stdout))
        server.local.close_store()
        lines = [json.loads(line) for line in stdout.getvalue().splitlines()]
        assert lines and lines[0]["type"] == "answer"
        recovered, info = restore_service(DurableStore(tmp_path), SUPPORTS)
        assert info.report.ok and len(recovered.audit) == len(server.local.service.audit)

    def test_open_failure_is_typed_unavailable(self, tmp_path):
        import io
        import asyncio

        from repro.service.runtime import RuntimeServer, ServerConfig

        server = RuntimeServer(SUPPORTS, ServerConfig(
            error_threshold=600.0, seed=5, state_dir=str(tmp_path),
            drain_idle_s=0.001,
        ))
        server.local.store.faults.arm("flush-begin", "raise")
        stdout = io.StringIO()
        asyncio.run(server.serve_stdin(io.StringIO(
            '{"op": "open", "tenant": "a", "epsilon": 1.0, "c": 5}\n'
        ), stdout))
        server.local.close_store()
        lines = [json.loads(line) for line in stdout.getvalue().splitlines()]
        assert lines[0]["type"] == "unavailable" and lines[0]["op"] == "open"


class TestServerDurability:
    def make(self, tmp_path, **overrides):
        from repro.service.runtime import RuntimeServer, ServerConfig

        defaults = dict(error_threshold=600.0, seed=5, mode="per-session",
                        state_dir=str(tmp_path), drain_idle_s=0.001)
        defaults.update(overrides)
        return RuntimeServer(SUPPORTS, ServerConfig(**defaults))

    def run_stdin(self, server, text):
        import io
        import asyncio

        stdout = io.StringIO()
        asyncio.run(server.serve_stdin(io.StringIO(text), stdout))
        return [json.loads(line) for line in stdout.getvalue().splitlines()]

    def test_graceful_shutdown_flushes_and_server_recovers(self, tmp_path):
        """Satellite: close_store() leaves nothing pending; a rebooted
        server resumes the same sessions with history intact."""
        server = self.make(tmp_path)
        first = self.run_stdin(
            server,
            '{"op": "open", "tenant": "a", "epsilon": 1.0, "c": 8}\n'
            '{"op": "query", "tenant": "a", "item": 3}\n',
        )
        server.local.close_store()
        assert server.local.store.stats["flushes"] >= 1

        reborn = self.make(tmp_path)
        assert reborn.local.recovery is not None and reborn.local.recovery.report.ok
        again = self.run_stdin(
            reborn, '{"op": "query", "tenant": "a", "item": 3}\n'
        )
        reborn.local.close_store()
        answer = [l for l in first if l["type"] == "answer"][0]
        repeat = [l for l in again if l["type"] == "answer"][0]
        assert repeat["value"] == answer["value"] and repeat["from_history"]

    def test_recovery_metrics_are_observed(self, tmp_path):
        server = self.make(tmp_path)
        self.run_stdin(server, '{"op": "query", "tenant": "a", "item": 0}\n')
        server.local.close_store()
        reborn = self.make(tmp_path)
        snap = reborn.local.snapshot()
        assert snap["histograms"]["recovery_time_ms"]["count"] == 1
        assert "store_flushes" in snap["gauges"]
        reborn.local.close_store()

    def test_persisted_seed_supersedes_config(self, tmp_path):
        server = self.make(tmp_path, seed=5)
        self.run_stdin(server, '{"op": "query", "tenant": "a", "item": 0}\n')
        server.local.close_store()
        # A reboot with the wrong --seed must keep the persisted streams.
        reborn = self.make(tmp_path, seed=99)
        assert reborn.local.service.manager.seed == server.local.service.manager.seed
        reborn.local.close_store()

    def test_fresh_dir_boots_fresh_and_audit_stays_green(self, tmp_path):
        server = self.make(tmp_path)
        assert server.local.recovery is None
        lines = self.run_stdin(
            server,
            '{"op": "query", "tenant": "a", "item": 0}\n'
            '{"op": "close", "tenant": "a"}\n',
        )
        server.local.close_store()
        assert [l["type"] for l in lines] == ["answer", "closed"]
        recovered, info = restore_service(DurableStore(tmp_path), SUPPORTS)
        report = verify_audit(recovered.audit, recovered.manager.audit_sessions())
        assert report.ok
