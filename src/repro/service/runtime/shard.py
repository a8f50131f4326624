"""The sharded backend: N worker processes behind the front end's hash ring.

One :class:`~repro.service.runtime.server.RuntimeServer` front end serves
``repro serve`` at every shard count.  With ``--shards 1`` it drives one
in-process :class:`~repro.service.runtime.server.LocalBackend`; with
``--shards N`` it drives the N :class:`RemoteBackend` workers this module
defines.  The single-process stack tops out where one core does — its
asyncio ingress, drain loop, and NumPy gate kernels share a GIL and a CPU —
so sharding partitions for scale, the core idiom of the LSST/Qserv design
(PAPERS.md): tenants are consistent-hashed onto N **worker processes**, each
running the very same front end over its own local backend — its own
:class:`RequestBatcher`, drain loop, :class:`AdaptiveDrainPolicy`,
:class:`MetricsRegistry`, and (with ``state_dir``) a private
:class:`DurableStore`/:class:`AuditLog` under ``state_dir/shard-K/``.

**Topology.**  The front end parses each JSONL line just far enough to learn
``(op, tenant)`` and forwards the raw line bytes verbatim over a per-client
Unix-domain-socket channel to the owning worker; worker responses pump back
whole-line-atomically onto the client socket.  The front end holds **no
admission queue**: backpressure and shedding happen only at each worker's
:class:`IngressQueue`, so an overloaded request is counted (and answered
``overloaded``) exactly once, never once per hop.  View ops (``metrics``,
``status``, ``sessions``, ``audit``, ``trace``, ``drain``) ride a separate
per-worker control channel, and the front end merges the answers with the
``merge_*`` functions below.

**Why the semantics survive sharding.**  A tenant's derived noise streams
are a pure function of ``(seed, tenant, epoch)`` — independent of which
process evaluates them or what other tenants share its cohort (in
``per-session`` mode) — and every op of a tenant lands on one shard over
one ordered channel.  Per-tenant responses are therefore **bit-identical**
to the single-process runtime, modulo one process-local diagnostic: the
``ticket`` admission sequence number, which is the serving worker's, not a
global one (a front-end-coordinated ticket would serialize every shard on
a shared counter).  Enforced in ``tests/service/test_sharding.py``.
``shared`` mode keeps its documented cohort-composition dependence:
identical semantics, different draws.

**Operations.**  Readiness gates on **all** shards ready; recovery stays
per-shard (each worker replays its own ``shard-K`` state on boot); a dead
worker degrades its tenants to typed ``unavailable`` responses while every
other shard keeps serving, until the front end's ``restart_shard`` replays
it back.  ``decommission`` is shard-aware eviction: close the shard's
sessions (releasing unspent budget), drop it from the hash ring, stop the
worker — its tenants rehash onto the survivors while every other tenant's
placement is untouched (an exact property of consistent hashing, tested).
"""

from __future__ import annotations

import asyncio
import json
import os
import threading
import time
from bisect import bisect_right
from dataclasses import replace
from hashlib import blake2b
from typing import Dict, List, Optional, Tuple

from repro.service.runtime.metrics import metric_key, parse_metric_key

__all__ = [
    "HashRing",
    "RemoteBackend",
    "merge_snapshots",
    "merge_histogram_snapshots",
    "merge_sessions",
    "merge_audit",
    "merge_trace",
]

#: The longest request or response line any transport accepts (16 MiB: a
#: 1M-item b64 block is ~11 MiB).  Client sockets and the worker channels
#: carry the same frames, so they share one limit.
_READLINE_LIMIT = 1 << 24

#: Virtual nodes per shard on the hash ring.  64 points per shard keeps the
#: max/min tenant-share ratio under ~1.6 at 4 shards while the ring stays
#: small enough to rebuild on every membership change.
RING_REPLICAS = 64

#: How long a graceful worker start may take before boot fails loudly
#: (recovery replay of a large shard-K state dominates this).
WORKER_READY_TIMEOUT_S = 120.0


class HashRing:
    """Consistent tenant->shard placement with virtual nodes.

    Hashing is :func:`hashlib.blake2b` (not Python's salted ``hash``), so
    placement is identical across processes, runs, and interpreter
    restarts — the property that lets a rebooted front end route straight
    to the shard whose durable state holds each tenant.  Removing a shard
    (:meth:`without`) moves **only** that shard's tenants: every surviving
    ring point keeps its position, so a tenant whose successor point
    survives keeps its placement exactly (tested, not just asserted).
    """

    def __init__(self, shards, replicas: int = RING_REPLICAS) -> None:
        self.replicas = int(replicas)
        self.shards: Tuple[int, ...] = tuple(sorted(int(s) for s in shards))
        if not self.shards:
            raise ValueError("a hash ring needs at least one shard")
        if len(set(self.shards)) != len(self.shards):
            raise ValueError("duplicate shard ids on the ring")
        points = []
        for shard in self.shards:
            for replica in range(self.replicas):
                points.append((self._hash(f"shard-{shard}#{replica}"), shard))
        points.sort()
        self._hashes = [h for h, _ in points]
        self._owners = [s for _, s in points]

    @staticmethod
    def _hash(text: str) -> int:
        return int.from_bytes(blake2b(text.encode(), digest_size=8).digest(), "big")

    def shard_for(self, tenant: str) -> int:
        """The shard owning *tenant*: the first ring point clockwise."""
        index = bisect_right(self._hashes, self._hash(str(tenant)))
        return self._owners[index % len(self._owners)]

    def without(self, shard: int) -> "HashRing":
        survivors = [s for s in self.shards if s != int(shard)]
        if not survivors:
            raise ValueError("cannot remove the last shard from the ring")
        return HashRing(survivors, replicas=self.replicas)

    def __len__(self) -> int:
        return len(self.shards)


# ----------------------------------------------------------------------
# The worker process: the same front end over one local backend.
# ----------------------------------------------------------------------
def _shard_worker_main(shard: int, supports, config, socket_path: str,
                       conn) -> None:
    """Spawn target: serve one shard on a Unix socket until told to stop.

    *conn* is the control pipe to the front end: the worker sends one ready
    message (with its pid and recovery summary) after it is listening, then
    blocks on commands.  Pipe EOF means the front end died — the worker
    shuts down gracefully rather than orphaning itself.
    """
    import signal

    # The front end owns Ctrl-C: a terminal SIGINT reaches the whole process
    # group, and racing KeyboardInterrupt tracebacks in workers would tear
    # connections the front end is still draining.  Workers exit on command.
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    try:
        asyncio.run(_shard_worker_async(shard, supports, config, socket_path, conn))
    except KeyboardInterrupt:  # pragma: no cover - masked above
        pass


async def _shard_worker_async(shard: int, supports, config, socket_path: str,
                              conn) -> None:
    # Imported here, not at the top: server.py imports this module.
    from repro.service.runtime.server import RuntimeServer

    server = RuntimeServer(supports, config)
    info = (await server.start())[0]
    await server.serve_unix(socket_path)
    stop = asyncio.Event()
    loop = asyncio.get_running_loop()

    def watch() -> None:
        try:
            conn.recv()  # any command (or front-end death) means: stop
        except (EOFError, OSError):
            pass
        loop.call_soon_threadsafe(stop.set)

    threading.Thread(target=watch, daemon=True, name=f"shard-{shard}-ctl").start()
    conn.send({"ready": True, "shard": shard, **info})
    await stop.wait()
    await server.shutdown()
    # Last words: the front end answers status and metrics for a stopped
    # shard from these (the CLI's end-of-run summary reads them).
    try:
        conn.send({"stopped": True, "shard": shard,
                   "status": await server.status_view(),
                   "metrics": server.final_snapshot})
    except (BrokenPipeError, OSError):  # pragma: no cover - front end gone
        pass


class _ControlChannel:
    """One serialized request/response lane to a worker, for view ops.

    Control traffic (metrics, drain, status, listings) rides its own Unix
    connection per shard so it can never interleave with — or be stalled
    behind — a client's data channel.  A lock serializes calls because the
    protocol pairs one response line to one request line.
    """

    def __init__(self, reader: asyncio.StreamReader, writer) -> None:
        self.reader = reader
        self.writer = writer
        self.lock = asyncio.Lock()
        self.closed = False

    async def call(self, payload: dict) -> dict:
        async with self.lock:
            self.writer.write(
                (json.dumps(payload, separators=(",", ":")) + "\n").encode()
            )
            await self.writer.drain()
            line = await self.reader.readline()
        if not line:
            self.closed = True
            raise ConnectionError("control channel closed")
        return json.loads(line)

    def close(self) -> None:
        self.closed = True
        try:
            self.writer.close()
        except RuntimeError:  # pragma: no cover - loop already gone
            pass


class _Channel:
    """One client's data channel to one shard, with line accounting.

    ``sent`` counts forwarded request lines that owe a response line
    (everything except ``mark``); ``received`` counts response lines pumped
    back.  The delta is the client's in-flight work on that shard — what
    disconnect handling must wait out before closing.
    """

    __slots__ = ("reader", "writer", "pump", "sent", "received", "closed")

    def __init__(self, reader: asyncio.StreamReader, writer) -> None:
        self.reader = reader
        self.writer = writer
        self.pump: Optional[asyncio.Task] = None
        self.sent = 0
        self.received = 0
        self.closed = False

    def close(self) -> None:
        self.closed = True
        try:
            self.writer.close()
        except RuntimeError:  # pragma: no cover - loop already gone
            pass


class RemoteBackend:
    """One shard worker seen from the front end.

    Owns the worker process and its control pipe (start, ready, stop), the
    control channel the front end's views ride (:meth:`view`, :meth:`call`),
    and the per-client data channels raw request lines are forwarded on
    (:meth:`open_channel`).  ``down`` flips the instant the process dies
    unexpectedly; a graceful :meth:`stop` keeps the worker's last status
    and metrics in :attr:`final`, so views over a stopped fleet still read.
    """

    def __init__(self, shard: int, supports, config, socket_path: str,
                 ctx) -> None:
        self.shard = int(shard)
        self.supports = supports
        state_dir = config.state_dir
        if state_dir is not None:
            state_dir = os.path.join(state_dir, f"shard-{shard}")
        # Workers never run their own admin plane — the front end's merged
        # one is the operational surface.
        self.config = replace(config, state_dir=state_dir, admin_port=None)
        self.socket_path = socket_path
        self._ctx = ctx
        self.process = None
        self.pipe = None
        self.ready_info: Optional[dict] = None
        self.down = True
        self.stopping = False
        #: ``{"status": ..., "metrics": ...}`` the worker sent as it stopped.
        self.final: Optional[dict] = None
        self._control: Optional[_ControlChannel] = None
        self._sentinel: Optional[int] = None

    @property
    def pid(self) -> Optional[int]:
        return None if self.process is None else self.process.pid

    # ------------------------------------------------------------------
    # Lifecycle.
    # ------------------------------------------------------------------
    async def start(self) -> dict:
        """Spawn the worker (unless it runs) and wait for its ready info."""
        if self.process is not None and self.process.is_alive():
            return self.ready_info
        if os.path.exists(self.socket_path):
            os.unlink(self.socket_path)
        parent, child = self._ctx.Pipe()
        self.process = self._ctx.Process(
            target=_shard_worker_main,
            args=(self.shard, self.supports, self.config, self.socket_path, child),
            daemon=True,
            name=f"repro-shard-{self.shard}",
        )
        self.down = True
        self.stopping = False
        self.final = None
        self.process.start()
        child.close()
        self.pipe = parent
        loop = asyncio.get_running_loop()
        self.ready_info = await loop.run_in_executor(None, self._wait_ready)
        self.down = False
        self._sentinel = self.process.sentinel
        loop.add_reader(self._sentinel, self._on_exit)
        return self.ready_info

    def _wait_ready(self, timeout: float = WORKER_READY_TIMEOUT_S) -> dict:
        if not self.pipe.poll(timeout):
            raise TimeoutError(
                f"shard {self.shard} did not become ready within {timeout:g}s"
            )
        info = self.pipe.recv()
        if not isinstance(info, dict) or not info.get("ready"):
            raise RuntimeError(f"shard {self.shard} failed to start: {info!r}")
        return info

    def _on_exit(self) -> None:
        """Flip the shard down the instant its process exits unexpectedly."""
        self._unwatch()
        if not self.stopping:
            self.mark_down()

    def _unwatch(self) -> None:
        if self._sentinel is not None:
            try:
                asyncio.get_running_loop().remove_reader(self._sentinel)
            except (RuntimeError, OSError):  # pragma: no cover - loop gone
                pass
            self._sentinel = None

    def mark_down(self) -> None:
        if self.down:
            return
        self.down = True
        if self._control is not None:
            self._control.close()
            self._control = None

    async def stop(self) -> None:
        """Stop the worker gracefully (it drains and closes its store)."""
        self._unwatch()
        self.stopping = True
        if self._control is not None:
            self._control.close()
            self._control = None
        if self.pipe is None:
            return
        try:
            self.pipe.send("shutdown")
        except (BrokenPipeError, OSError):
            pass
        await asyncio.get_running_loop().run_in_executor(None, self._join)

    def _join(self, timeout: float = 15.0) -> None:
        """Wait for exit (escalating to SIGKILL), keeping its last words.

        The pipe is read before the join: a worker blocked sending a large
        final message would otherwise never exit."""
        deadline = time.monotonic() + timeout
        try:
            while self.pipe.poll(max(deadline - time.monotonic(), 0.0)):
                message = self.pipe.recv()
                if isinstance(message, dict) and message.get("stopped"):
                    self.final = message
                    break
        except (EOFError, OSError):
            pass
        self.process.join(max(deadline - time.monotonic(), 0.1))
        if self.process.is_alive():  # pragma: no cover - wedged worker
            self.process.kill()
            self.process.join(5.0)
        self.pipe.close()
        self.pipe = None

    # ------------------------------------------------------------------
    # Control plane.
    # ------------------------------------------------------------------
    async def call(self, payload: dict) -> Optional[dict]:
        """One request/response round trip on the control channel (None
        when the shard is down or dies mid-call)."""
        if self.down:
            return None
        try:
            if self._control is None or self._control.closed:
                reader, writer = await asyncio.open_unix_connection(
                    self.socket_path, limit=_READLINE_LIMIT
                )
                self._control = _ControlChannel(reader, writer)
            return await self._control.call(payload)
        except (ConnectionError, OSError, json.JSONDecodeError):
            if not self.stopping:
                self.mark_down()
            return None

    async def view(self, op: str, **args) -> Optional[dict]:
        """The worker's own answer to the view op *op*, without its
        ``type``/``id`` framing; None if it has none (down, or tracing off).
        A stopped worker answers ``status`` and ``metrics`` from
        :attr:`final`."""
        if self.final is not None:
            return self.final.get(op)
        response = await self.call({"op": op, **args})
        if response is None or response.get("type") == "error":
            return None
        response.pop("type", None)
        return response

    # ------------------------------------------------------------------
    # Data plane.
    # ------------------------------------------------------------------
    async def open_channel(self, sink, preamble: Optional[bytes] = None
                           ) -> Optional[_Channel]:
        """A fresh data channel whose response lines pump into *sink* (a
        client connection); *preamble* is written first.  None if down."""
        if self.down:
            return None
        try:
            reader, writer = await asyncio.open_unix_connection(
                self.socket_path, limit=_READLINE_LIMIT
            )
        except (ConnectionError, OSError):
            self.mark_down()
            return None
        chan = _Channel(reader, writer)
        chan.pump = asyncio.create_task(self._pump(chan, sink))
        if preamble is not None:
            writer.write(preamble)
        return chan

    async def _pump(self, chan: _Channel, sink) -> None:
        """Forward *chan*'s response bytes to *sink*, whole lines only.

        Chunks cut at the last newline so concurrent pumps (one per shard)
        interleave on the client socket at line granularity — the protocol's
        atomicity unit — never mid-frame.  ``await flush`` propagates client
        socket backpressure up the chain to the worker.
        """
        pending = b""
        try:
            while True:
                data = await chan.reader.read(1 << 16)
                if not data:
                    break
                pending += data
                cut = pending.rfind(b"\n")
                if cut < 0:
                    continue
                chunk, pending = pending[:cut + 1], pending[cut + 1:]
                chan.received += chunk.count(b"\n")
                sink.send_raw(chunk)
                await sink.flush()
        except (ConnectionError, OSError, asyncio.CancelledError):
            pass
        finally:
            chan.closed = True
            if chan.received < chan.sent and not self.stopping:
                # EOF with responses still owed: the worker died mid-flight.
                self.mark_down()


# ----------------------------------------------------------------------
# Merging per-shard views into one plane.
# ----------------------------------------------------------------------
def merge_histogram_snapshots(snaps: List[dict]) -> dict:
    """Sum histogram snapshots that share one bucket layout.

    Buckets, counts, and sums add; the quantiles are re-interpolated from
    the merged buckets with the same linear-within-bucket scheme
    :class:`~repro.service.runtime.metrics.Histogram` uses, so an
    aggregated p99 means the same thing as a per-shard one (up to bucket
    resolution — quantiles of sums are not sums of quantiles).
    """
    snaps = [s for s in snaps if s]
    if not snaps:
        return {"count": 0, "sum": 0.0, "mean": 0.0,
                "p50": 0.0, "p90": 0.0, "p99": 0.0, "buckets": {}}
    merged: Dict[str, int] = {str(b): 0 for b in snaps[0].get("buckets", {})}
    count = 0
    total = 0.0
    for snap in snaps:
        count += int(snap.get("count", 0))
        total += float(snap.get("sum", 0.0))
        for bound, n in snap.get("buckets", {}).items():
            merged[str(bound)] = merged.get(str(bound), 0) + int(n)

    def quantile(q: float) -> float:
        if count == 0:
            return 0.0
        rank = q * count
        seen = 0.0
        prev = 0.0
        for bound, n in merged.items():
            hi = prev if bound == "+inf" else float(bound)
            if n and seen + n >= rank:
                frac = min(max((rank - seen) / n, 0.0), 1.0)
                return prev + (hi - prev) * frac
            seen += n
            if bound != "+inf":
                prev = float(bound)
        return prev

    return {
        "count": count,
        "sum": round(total, 6),
        "mean": round(total / count, 6) if count else 0.0,
        "p50": round(quantile(0.50), 6),
        "p90": round(quantile(0.90), 6),
        "p99": round(quantile(0.99), 6),
        "buckets": merged,
    }


def merge_snapshots(per_shard: Dict[int, dict],
                    router_snapshot: Optional[dict] = None) -> dict:
    """One metrics view from N worker snapshots plus the front end's own.

    Every worker series appears twice: relabeled with ``shard="K"`` (the
    per-shard ``shed_total{shard="0"}`` drill-down) and folded into an
    unlabeled aggregate under its original key — counters and histogram
    buckets sum, gauges sum too (meaningful for the additive ones: RSS,
    queue depth, open sessions, connections; per-shard values remain the
    authority for the rest, e.g. ``drain_window``).  The front end's own
    ``router_*`` and audit series merge in unrelabeled — there is exactly
    one front end.
    """
    counters: Dict[str, float] = {}
    gauges: Dict[str, float] = {}
    histograms: Dict[str, dict] = {}
    hist_parts: Dict[str, List[dict]] = {}
    for shard in sorted(per_shard):
        snap = per_shard[shard]
        tag = str(shard)
        for key, value in snap.get("counters", {}).items():
            name, labels = parse_metric_key(key)
            counters[metric_key(name, {**labels, "shard": tag})] = value
            counters[key] = counters.get(key, 0) + value
        for key, value in snap.get("gauges", {}).items():
            name, labels = parse_metric_key(key)
            gauges[metric_key(name, {**labels, "shard": tag})] = value
            gauges[key] = gauges.get(key, 0) + value
        for key, hist in snap.get("histograms", {}).items():
            name, labels = parse_metric_key(key)
            histograms[metric_key(name, {**labels, "shard": tag})] = hist
            hist_parts.setdefault(key, []).append(hist)
    for key, parts in hist_parts.items():
        histograms[key] = merge_histogram_snapshots(parts)
    if router_snapshot is not None:
        for section, dest in (("counters", counters), ("gauges", gauges),
                              ("histograms", histograms)):
            for key, value in router_snapshot.get(section, {}).items():
                dest[key] = value
    snap = {
        "counters": dict(sorted(counters.items())),
        "gauges": dict(sorted(gauges.items())),
        "histograms": dict(sorted(histograms.items())),
    }
    requests = snap["counters"].get("requests_total", 0)
    shed = snap["counters"].get("shed_total", 0)
    snap["shed_rate"] = round(shed / requests, 6) if requests else 0.0
    return snap


def merge_sessions(per_shard: Dict[int, dict], limit: int, offset: int) -> dict:
    """Tenant-sorted page over every shard's session listing.

    Each shard must have been asked for its first ``offset + limit``
    sessions; every entry is tagged with its shard.
    """
    sessions: List[dict] = []
    total = closed_total = 0
    for shard in sorted(per_shard):
        view = per_shard[shard]
        total += int(view.get("total", 0))
        closed_total += int(view.get("closed_total", 0))
        sessions.extend({**entry, "shard": shard}
                        for entry in view.get("sessions", []))
    sessions.sort(key=lambda s: s["tenant"])
    return {
        "total": total,
        "offset": offset,
        "limit": limit,
        "closed_total": closed_total,
        "sessions": sessions[offset:offset + limit],
    }


def merge_audit(per_shard: Dict[int, dict], after_seq: int, limit: int) -> dict:
    """Seq-merged audit page: every shard's records, sorted ``(seq, shard)``.

    Shards mint independent seq spaces (each contiguous from 0 — that
    per-shard contiguity is the replay-verification invariant), so the
    merged view tags each record with its shard and orders by seq first:
    interleaved but deterministic, and filterable back to any single
    shard's contiguous chain.  Each shard must have been asked for its
    first *limit* records after *after_seq*.

    A page never ends inside a seq group: it runs on through every shard's
    record at its last seq (so it may hold up to ``shards - 1`` records
    more than *limit*), which makes ``after_seq = <last seq of the page>``
    resume exactly where it stopped.  Every shard returned all its records
    up to that seq — a shard cut off below it would have filled the page
    first.
    """
    records: List[dict] = []
    next_seq = 0
    for shard in sorted(per_shard):
        view = per_shard[shard]
        next_seq = max(next_seq, int(view.get("next_seq", 0)))
        records.extend({**record, "shard": shard}
                       for record in view.get("records", []))
    records.sort(key=lambda r: (r["seq"], r["shard"]))
    end = min(limit, len(records))
    while 0 < end < len(records) and records[end]["seq"] == records[end - 1]["seq"]:
        end += 1
    selected = records[:end]
    return {
        "after_seq": after_seq,
        "limit": limit,
        "count": len(selected),
        "next_seq": next_seq,
        "records": selected,
    }


def merge_trace(reports: List[dict], slow_limit: int) -> Optional[dict]:
    """Merged ``/debug/trace``: summed spans, bucket-merged stages, the
    newest *slow_limit* exemplars across shards (None without reports)."""
    if not reports:
        return None
    stages = {}
    for stage in reports[0].get("stages", {}):
        stages[stage] = merge_histogram_snapshots(
            [r["stages"][stage] for r in reports if stage in r.get("stages", {})]
        )
    slow = sorted(
        (ex for r in reports for ex in r.get("slow", [])),
        key=lambda e: e.get("at", 0.0),
    )
    return {
        "glossary": reports[0].get("glossary", {}),
        "slow_threshold_ms": reports[0].get("slow_threshold_ms"),
        "spans_total": sum(int(r.get("spans_total", 0)) for r in reports),
        "slow_total": sum(int(r.get("slow_total", 0)) for r in reports),
        "stages": stages,
        "stage_p50_sum_ms": round(
            sum(s.get("p50", 0.0) for s in stages.values()), 6
        ),
        "gate_kernel": merge_histogram_snapshots(
            [r["gate_kernel"] for r in reports if "gate_kernel" in r]
        ),
        "total": merge_histogram_snapshots(
            [r["total"] for r in reports if "total" in r]
        ),
        "slow": slow[-max(int(slow_limit), 0):] if slow_limit else [],
    }
