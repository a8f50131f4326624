"""The service runtime: one asyncio front end over one or N backends.

``repro serve`` has a single front end, :class:`RuntimeServer`.  It owns
everything a client or an operator touches — the transports (TCP, stdio,
and the Unix socket a shard worker listens on), client connections, the
HTTP admin plane, graceful shutdown, and the response of every op — and it
drives one of two backends:

* **one in-process** :class:`LocalBackend` (``shards=1``, the default):
  each request line goes straight to the backend's dispatcher — no router
  parse, no hop, no merge;
* **N shard workers** (:class:`~repro.service.runtime.shard.RemoteBackend`,
  ``shards=N``): the front end parses ``(op, tenant)``, forwards the raw
  line to the tenant's shard on the consistent-hash ring, and merges the
  workers' views (see :mod:`repro.service.runtime.shard`).  Every worker
  process runs this same front end over one local backend.

The local backend is the layer between the wire and the batcher:

* **Framing** — newline-delimited JSON; each request line is one op (see
  :data:`PROTOCOL`), each response line one typed object.  Malformed input
  never kills the loop: it becomes a typed ``error`` response and the
  connection lives on.
* **Admission control** — every query passes through a bounded, thread-safe
  :class:`IngressQueue` before it may touch the batcher.  When the queue is
  full the request is **shed** with a typed ``overloaded`` response instead
  of queueing unboundedly or blocking the reader (which would deadlock a
  client that pipelines requests ahead of reading responses).  Backpressure
  is therefore explicit and loss-free at the protocol level: the client
  knows exactly which requests were never executed.
* **Batched draining** — a single drain loop owns the (deliberately
  single-threaded) :class:`~repro.service.batcher.RequestBatcher` and
  :class:`~repro.service.engine.ServiceEngine`: it takes up to one window of
  admitted requests, submits them, executes one cross-session drain, and
  routes each answer back to the connection that asked.  Concurrency lives
  *around* the engine, never inside it — which is what keeps concurrent
  results bit-identical to a single-threaded drain of the same per-tenant
  request order (enforced in ``tests/service/test_runtime_server.py``).
* **Adaptive sizing** — drain latency and queue depth feed the
  :class:`~repro.service.runtime.metrics.AdaptiveDrainPolicy`, so the window
  grows while drains are cheap and collapses when a drain blows its latency
  target.  All counters/histograms are served live by the ``metrics`` op.
* **Durability** — with ``state_dir`` configured, every drain stages its
  responses in an outbox, flushes the :class:`~repro.service.store.
  DurableStore` (write-ahead fsync), and only then sends: a client never
  sees an answer whose budget spend isn't on disk.  Boot recovers the
  previous process's exact state when the directory holds one; a store that
  exhausts its bounded retries degrades answers to typed ``unavailable``
  responses instead of killing connections; graceful shutdown flushes,
  checkpoints, and closes the store.
* **Observability** — opt-in per-request span tracing (``ServerConfig.
  trace``) feeds per-stage latency histograms and a slow-request exemplar
  ring (:mod:`repro.service.observability`).

The front end's HTTP admin plane (``ServerConfig.admin_port``) serves
health/readiness probes, the Prometheus ``/metrics`` scrape, paginated
session/audit listings, and on-demand sampling profiles from the same views
the JSONL ops answer with — one code path at every shard count.

The protocol speaks both shapes of request: scalar ``query`` ops and
``query_block`` ops carrying a whole item array (optionally base64-packed
int64, the wire analog of the batcher's array lane), plus ``grid`` ops that
gate one query across every budget lane of a multi-budget tenant.
"""

from __future__ import annotations

import asyncio
import base64
import binascii
import json
import multiprocessing
import os
import shutil
import sys
import tempfile
import threading
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Set, Tuple, Union

import numpy as np

from repro.exceptions import ReproError, StoreUnavailableError
from repro.service.engine import SVTQueryService
from repro.service.observability.httpadmin import AdminPlane
from repro.service.observability.tracing import RequestTracer
from repro.service.runtime.metrics import (
    DEFAULT_OCCUPANCY_BUCKETS,
    AdaptiveDrainPolicy,
    MetricsRegistry,
    RssSampler,
)
from repro.service.runtime.shard import (
    _READLINE_LIMIT,
    HashRing,
    RemoteBackend,
    merge_audit,
    merge_sessions,
    merge_snapshots,
    merge_trace,
)
from repro.service.store import (
    DurableStore,
    FaultInjector,
    StoreConfig,
    restore_service,
)

#: fsync latencies sit well under the drain-latency buckets on local disks.
FSYNC_BUCKETS_MS = (0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 25.0, 50.0, 100.0)

#: Recovery replays whole services, so the tail stretches to seconds.
RECOVERY_BUCKETS_MS = (1.0, 5.0, 10.0, 25.0, 50.0, 100.0, 250.0, 500.0,
                       1000.0, 2500.0, 5000.0, 10000.0)

__all__ = ["ServerConfig", "IngressQueue", "LocalBackend", "RuntimeServer",
           "PROTOCOL", "parse_request_line", "fold_audit_report"]

#: One line per op; one typed response line per request (``answers`` lines
#: cover a whole block).  Shared reference for docs, tests, and the CLI.
PROTOCOL = {
    "open": "open a tenant session (or, with 'lane', attach a budget lane)",
    "query": "one item query: {op, tenant, item, lane?, id?}",
    "query_block": "an item-array query: {op, tenant, items|items_b64, lane?, bin?, id?}",
    "grid": "gate one item under every budget lane: {op, tenant, item, id?}",
    "drain": "force a drain of everything admitted",
    "metrics": "live counters/histograms/gauges snapshot",
    "close": "evict a tenant, releasing unspent budget",
    "mark": "timing beacon: {op, t}; stamps following requests on this "
            "connection so traced ingress_wait starts at client send",
    "sessions": "paginated live-session listing: {op, limit?, offset?}",
    "audit": "audit records (archive + live): {op, after_seq?, limit?}; a "
             "page never ends inside a seq group, so after_seq = its last "
             "seq resumes it",
    "status": "readiness verdict (per shard under 'shards') + accounting "
              "totals summed over shards: sessions_open, sessions_closed, "
              "audit_records, next_audit_seq, epsilon_spent",
    "trace": "per-stage latency report (requires --trace): {op, slow?}",
    "audit_report": "record empirical-audit results: {op, trials, guesses, "
                    "correct, eps_lb, charged_eps, confidence?, rule?, id?}",
}

#: Ops the front end answers itself, from views over every backend; the
#: rest are data-plane ops a backend executes.
FRONT_OPS = frozenset({"metrics", "drain", "status", "sessions", "audit",
                       "trace", "audit_report"})

#: The accounting totals a ``status`` response sums over shards.
STATUS_TOTALS = ("sessions_open", "sessions_closed", "audit_records",
                 "next_audit_seq", "epsilon_spent")


def fold_audit_report(metrics, prev: Optional[dict], payload: dict,
                      default_charged: float) -> dict:
    """Fold one cumulative ``audit_report`` payload into *metrics*.

    Counters advance by the delta against *prev*; a payload with fewer
    trials than the previous report is a fresh audit run and counts in
    full.  Raises ``ValueError``/``KeyError`` on malformed payloads — the
    front end turns those into typed ``error`` lines.
    """
    trials = int(payload["trials"])
    guesses = int(payload["guesses"])
    correct = int(payload["correct"])
    if not 0 <= correct <= guesses <= trials:
        raise ValueError(
            f"need 0 <= correct <= guesses <= trials, "
            f"got {correct}/{guesses}/{trials}"
        )
    eps_lb = float(payload["eps_lb"])
    charged = float(payload.get("charged_eps", default_charged))
    before = prev or {}
    for name, now in (("audit_trials_total", trials),
                      ("audit_guesses_total", guesses),
                      ("audit_correct_total", correct)):
        key = name[len("audit_"):-len("_total")]
        last = int(before.get(key, 0))
        metrics.counter(name).add(now - last if now >= last else now)
    metrics.gauge("audited_eps_lb").set(eps_lb)
    metrics.gauge("audit_charged_eps").set(charged)
    return {
        "trials": trials,
        "guesses": guesses,
        "correct": correct,
        "accuracy": round(correct / guesses, 6) if guesses else None,
        "eps_lb": eps_lb,
        "charged_eps": charged,
        "confidence": float(payload.get("confidence", 0.95)),
        "delta": float(payload.get("delta", 0.0)),
        "rule": payload.get("rule"),
        "caught": bool(eps_lb > charged),
    }

#: Retained TTL-eviction records (:attr:`LocalBackend.expired_tenants`).
EXPIRY_LOG_LIMIT = 1024


@dataclass(frozen=True)
class ServerConfig:
    """Runtime knobs plus the default session configuration for auto-open.

    ``max_queue`` bounds admitted-but-undrained requests (the shed point);
    ``window`` seeds the drain batch size, which :class:`AdaptiveDrainPolicy`
    then steers within [min_window, max_window] when ``adaptive`` is on.
    """

    epsilon: float = 1.0
    error_threshold: float = 1.0
    c: int = 3
    svt_fraction: float = 0.5
    monotonic: bool = False
    mode: str = "shared"
    seed: Optional[int] = None
    auto_open: bool = True
    session_ttl: Optional[float] = None
    max_queue: int = 65536
    window: int = 4096
    min_window: int = 256
    max_window: int = 65536
    adaptive: bool = True
    target_drain_ms: float = 5.0
    drain_idle_s: float = 0.002
    #: Directory for the durable store (None = in-memory only).  When the
    #: directory already holds a bootstrapped service, boot recovers it —
    #: ``seed`` is then superseded by the persisted seed, while ``mode``
    #: still applies (an explicit runtime choice, not accounting state).
    state_dir: Optional[str] = None
    #: WAL flush batches between automatic snapshot checkpoints.
    checkpoint_every: int = 256
    #: Per-request span tracing: per-stage latency histograms plus a
    #: bounded ring of slow-request exemplars (``trace_slow_ms`` threshold,
    #: ``trace_exemplars`` ring size).  Off by default — on, it costs one
    #: weighted histogram observation per stage per drain plus one per wire
    #: entry, which the server bench bounds at <10% throughput.
    trace: bool = False
    trace_slow_ms: float = 50.0
    trace_exemplars: int = 256
    #: HTTP admin plane (``/healthz``, ``/metrics``, ...) on its own port,
    #: sharing the event loop.  None = disabled; 0 = ephemeral port.
    admin_port: Optional[int] = None
    admin_host: str = "127.0.0.1"
    #: Injectable gate fault (see :data:`repro.engine.gate.GATE_FAULTS`) —
    #: the empirical privacy auditor's broken-gate mode.  Stamped onto every
    #: session the service opens (recovered ones included).  None in
    #: production; ``repro serve --gate-fault`` / ``REPRO_GATE_FAULT`` set it.
    gate_fault: Optional[str] = None


@dataclass
class _IngressEntry:
    """One admitted request: what to run and where the answer goes."""

    kind: str  # "query" | "block" | "grid"
    tenant: str
    lane: Optional[str]
    conn: "_Connection"
    request_id: Optional[Any] = None
    item: Optional[int] = None
    items: Optional[np.ndarray] = None
    bin: bool = False
    #: Admission timestamp (perf_counter), stamped at construction: the
    #: request tracer's ``ingress_wait`` runs from here to drain pickup.
    t_admit: float = field(default_factory=time.perf_counter)
    #: Client send timestamp (perf_counter epoch) from the connection's
    #: latest ``mark`` op, if any.  When present, ``ingress_wait`` starts
    #: here instead of at admission, so the bytes' time in socket buffers
    #: (readers starve while a drain blocks the loop) is attributed to the
    #: queue rather than silently dropped — the X-Request-Start pattern.
    t_client: Optional[float] = None

    @property
    def weight(self) -> int:
        return int(self.items.size) if self.items is not None else 1


class IngressQueue:
    """Bounded, thread-safe MPSC queue between producers and the drain loop.

    Producers (connection handlers, or plain threads in tests) call
    :meth:`try_put`; a False return means the request was shed — the caller
    answers ``overloaded`` and moves on, so producers never block and the
    drain loop can never be deadlocked by a full queue.  The single consumer
    (the drain loop) calls :meth:`take`.  Weights count *requests*, not
    entries: one 4096-item block occupies 4096 slots, keeping the shed
    threshold meaningful under the array lane.
    """

    def __init__(self, limit: int) -> None:
        if limit <= 0:
            raise ValueError("ingress limit must be > 0")
        self.limit = int(limit)
        self._entries: deque = deque()
        self._depth = 0
        self._lock = threading.Lock()
        self._event = asyncio.Event()
        self._loop: Optional[asyncio.AbstractEventLoop] = None

    def attach(self, loop: asyncio.AbstractEventLoop) -> None:
        """Bind the consumer's event loop (for cross-thread wakeups)."""
        self._loop = loop

    def _notify(self) -> None:
        loop = self._loop
        if loop is None:
            self._event.set()
            return
        try:
            running = asyncio.get_running_loop()
        except RuntimeError:
            running = None
        if running is loop:
            self._event.set()
        else:
            loop.call_soon_threadsafe(self._event.set)

    def try_put(self, entry: _IngressEntry) -> bool:
        """Admit *entry* unless its weight would breach the bound."""
        weight = entry.weight
        with self._lock:
            if self._depth + weight > self.limit:
                return False
            self._entries.append(entry)
            self._depth += weight
        self._notify()
        return True

    def take(self, max_requests: Optional[int] = None) -> List[_IngressEntry]:
        """Pop entries totalling at most *max_requests* (at least one entry
        when non-empty, so an oversized block can always make progress)."""
        out: List[_IngressEntry] = []
        taken = 0
        with self._lock:
            while self._entries:
                weight = self._entries[0].weight
                if out and max_requests is not None and taken + weight > max_requests:
                    break
                entry = self._entries.popleft()
                out.append(entry)
                taken += weight
                self._depth -= weight
                if max_requests is not None and taken >= max_requests:
                    break
            if not self._entries:
                self._event.clear()
        return out

    @property
    def depth(self) -> int:
        """Admitted requests not yet drained (weighted)."""
        return self._depth

    def __len__(self) -> int:
        return self._depth

    async def wait(self, timeout: Optional[float] = None) -> bool:
        """Wait until something is queued (or *timeout* elapses)."""
        if self._depth:
            return True
        try:
            await asyncio.wait_for(self._event.wait(), timeout)
            return True
        except asyncio.TimeoutError:
            return False


class _Connection:
    """One client's response sink (TCP writer or a text stream)."""

    __slots__ = ("writer", "stream", "name", "closed", "pending", "mark_t0")

    def __init__(self, writer=None, stream=None, name: str = "conn") -> None:
        self.writer = writer
        self.stream = stream
        self.name = name
        self.closed = False
        self.pending = 0  # admitted entries whose response hasn't been sent
        self.mark_t0: Optional[float] = None  # latest "mark" op timestamp

    def send(self, payload: dict) -> None:
        self.send_raw(
            (json.dumps(payload, separators=(",", ":"), default=float) + "\n").encode()
        )

    def send_raw(self, data: bytes) -> None:
        if self.closed:
            return
        try:
            if self.writer is not None:
                self.writer.write(data)
            else:
                self.stream.write(data.decode())
        except (ConnectionError, RuntimeError, ValueError):
            self.closed = True

    async def flush(self) -> None:
        if self.closed:
            return
        try:
            if self.writer is not None:
                await self.writer.drain()
            elif hasattr(self.stream, "flush"):
                self.stream.flush()
        except (ConnectionError, RuntimeError, ValueError):
            self.closed = True


def _b64_items(text: str) -> np.ndarray:
    # validate=False: strict alphabet checking costs ~40% of the decode on
    # the hot path, and a corrupted payload still fails safely — either here
    # on length, or as typed out-of-range rejections at drain time.
    raw = base64.b64decode(text.encode("ascii"))
    if len(raw) % 8:
        raise ValueError("items_b64 must be little-endian int64 bytes")
    return np.frombuffer(raw, dtype="<i8").astype(np.int64, copy=False)


def _b64(data: bytes) -> str:
    return base64.b64encode(data).decode("ascii")


def parse_request_line(raw: str) -> Tuple[Optional[dict], Optional[dict]]:
    """Decode one wire line into ``(payload, error)``.

    The single framing authority, shared by :meth:`LocalBackend.ingest_line`
    and the sharded front end's router (which must agree byte-for-byte on
    what a line means).  A blank line returns ``(None, None)`` — the
    force-drain signal.  Malformed input returns a typed ``error`` response
    as the second element; legacy ``"tenant item"`` framing (the PR 3 CLI)
    is folded into a ``query`` payload, with parse failures carrying the
    ``_legacy`` flag so stdio transports can keep the old report-on-stderr
    contract.
    """
    line = raw.strip()
    if not line:
        return None, None
    if not line.startswith(("{", "[")):
        parts = line.split()
        if len(parts) != 2:
            return None, {"type": "error", "error": f"bad request line {line!r}",
                          "_legacy": True}
        try:
            item = int(parts[1])
        except ValueError:
            return None, {"type": "error", "error": f"bad request line {line!r}",
                          "_legacy": True}
        return {"op": "query", "tenant": parts[0], "item": item}, None
    try:
        payload = json.loads(line)
    except json.JSONDecodeError as exc:
        return None, {"type": "error", "error": f"malformed JSON: {exc}"}
    if not isinstance(payload, dict):
        return None, {"type": "error", "error": "request must be a JSON object"}
    return payload, None


class _FrontOp(dict):
    """A parsed request for an op in :data:`FRONT_OPS`, handed back by the
    local backend's dispatcher for the front end to answer."""


class LocalBackend:
    """The in-process drain-loop stack in front of one :class:`SVTQueryService`.

    Owns the service, the durable store, the ingress queue, the metrics
    registry, the request tracer, and the drain loop — no transports: the
    front end feeds it request lines (:meth:`ingest_line`) and owns every
    connection the answers go to.  With a drain loop (:meth:`start_drain_loop`,
    TCP and Unix transports) draining runs as a background task; without
    one (stdio) the front end drains inline at window boundaries
    (:meth:`drain_inline`).
    """

    #: Never down: it is this process.
    down = False

    def __init__(self, supports, config: ServerConfig) -> None:
        self.config = config
        #: Durable persistence (None = the pre-store in-memory behavior).
        self.store: Optional[DurableStore] = None
        #: :class:`~repro.service.store.RecoveryInfo` when boot replayed one.
        self.recovery = None
        if self.config.state_dir is not None:
            store = DurableStore(
                self.config.state_dir,
                StoreConfig(checkpoint_every=self.config.checkpoint_every),
                faults=FaultInjector.from_env(),
            )
            if store.has_state():
                self.service, self.recovery = restore_service(
                    store, supports, mode=self.config.mode
                )
                # The fault knob is a runtime choice like ``mode``, never
                # accounting state: re-stamp recovered sessions so a reboot
                # cannot silently heal (or break) the gate under audit.
                self.service.manager.gate_fault = self.config.gate_fault
                for sess in self.service.manager:
                    sess.gate_fault = self.config.gate_fault
                    for lane in sess.lanes.values():
                        lane.gate_fault = self.config.gate_fault
            else:
                self.service = SVTQueryService(
                    supports, seed=self.config.seed,
                    mode=self.config.mode, gate_fault=self.config.gate_fault,
                )
                store.attach(self.service)
            self.store = store
        else:
            self.service = SVTQueryService(
                supports, seed=self.config.seed,
                mode=self.config.mode, gate_fault=self.config.gate_fault,
            )
        #: What :meth:`start` reports: this process's pid, plus the recovery
        #: summary when boot replayed durable state.
        self.ready_info: Dict[str, Any] = {"pid": os.getpid()}
        if self.recovery is not None:
            self.ready_info["recovered_sessions"] = self.recovery.sessions
            self.ready_info["recovery_summary"] = self.recovery.summary()
        self.metrics = MetricsRegistry()
        self.sampler = RssSampler(self.metrics)
        self.policy = AdaptiveDrainPolicy(
            initial=min(max(self.config.window, self.config.min_window),
                        self.config.max_window),
            min_window=self.config.min_window,
            max_window=max(self.config.max_window, self.config.min_window),
            target_ms=self.config.target_drain_ms,
        )
        self.ingress = IngressQueue(self.config.max_queue)
        #: Per-request span tracing (None unless ``config.trace``).
        self.tracer: Optional[RequestTracer] = (
            RequestTracer(
                self.metrics,
                slow_ms=self.config.trace_slow_ms,
                max_exemplars=self.config.trace_exemplars,
            )
            if self.config.trace
            else None
        )
        self._drain_task: Optional[asyncio.Task] = None
        #: Monotonic heartbeat the drain loop refreshes every iteration —
        #: the freshness signal behind the admin plane's ``/readyz``.
        self.drain_beat = time.monotonic()
        self._closing = False
        self._force_drain = False
        self._drain_lock = asyncio.Lock()
        #: ``(tenant, released epsilon)`` per TTL eviction, most recent
        #: :data:`EXPIRY_LOG_LIMIT` only (a long-running TTL server would
        #: otherwise grow this without bound); set :attr:`on_expire` for a
        #: live per-eviction hook (the CLI wires it to stderr).
        self.expired_tenants: List[Tuple[str, float]] = []
        self.on_expire: Optional[Callable[[str, float], None]] = None
        # Hot counters, bound once.
        m = self.metrics
        self._c_requests = m.counter("requests_total")
        self._c_answered = m.counter("answered_total")
        self._c_rejected = m.counter("rejected_total")
        self._c_shed = m.counter("shed_total")
        self._c_errors = m.counter("errors_total")
        self._c_drains = m.counter("drains_total")
        self._c_db = m.counter("db_accesses_total")
        self._c_expired = m.counter("sessions_expired_total")
        self._h_drain = m.histogram("drain_latency_ms")
        self._h_occupancy = m.histogram("batch_occupancy_rows", DEFAULT_OCCUPANCY_BUCKETS)
        self._g_depth = m.gauge("ingress_depth")
        self._g_window = m.gauge("drain_window")
        self._g_sessions = m.gauge("open_sessions")
        self._g_window.set(self.policy.window)
        # Durability metrics (populated only when a store is configured).
        self._c_store_events = m.counter("store_events_total")
        self._c_store_unavailable = m.counter("store_unavailable_total")
        self._h_fsync = m.histogram("fsync_latency_ms", FSYNC_BUCKETS_MS)
        self._h_recovery = m.histogram("recovery_time_ms", RECOVERY_BUCKETS_MS)
        self._g_wal = m.gauge("store_wal_batches")
        if self.recovery is not None:
            self._h_recovery.observe(self.recovery.duration_ms)
            self._g_sessions.set(len(self.service.manager))

    # ------------------------------------------------------------------
    # Parsing and dispatch (one request line in, at most one immediate
    # response out; queries respond later, from the drain).
    # ------------------------------------------------------------------
    def ingest_line(self, raw: str, conn: _Connection) -> Optional[dict]:
        """Handle one request line; returns an immediate response or None.

        Never raises on bad input: malformed JSON, unknown ops, and invalid
        payloads all come back as typed ``error`` responses so one broken
        client line can't take the server down (the crash this replaces was
        a raw ``json.loads`` traceback unwinding the accept loop).  An op
        the front end answers comes back as its parsed :class:`_FrontOp`.
        """
        payload, error = parse_request_line(raw)
        if error is not None:
            self._c_errors.add()
            return error
        if payload is None:
            self._force_drain = True
            return None
        return self._dispatch(payload, conn)

    def _error(self, message: str, request_id=None) -> dict:
        self._c_errors.add()
        out = {"type": "error", "error": message}
        if request_id is not None:
            out["id"] = request_id
        return out

    def _dispatch(self, payload: dict, conn: _Connection) -> Optional[dict]:
        op = payload.get("op")
        request_id = payload.get("id")
        try:
            if op == "query":
                return self._admit(
                    _IngressEntry(
                        kind="query",
                        tenant=str(payload["tenant"]),
                        lane=payload.get("lane"),
                        conn=conn,
                        request_id=request_id,
                        item=int(payload["item"]),
                        t_client=conn.mark_t0,
                    )
                )
            if op == "query_block":
                if "items_b64" in payload:
                    items = _b64_items(payload["items_b64"])
                else:
                    items = np.asarray(payload["items"], dtype=np.int64)
                if items.ndim != 1:
                    return self._error("items must be a flat array", request_id)
                return self._admit(
                    _IngressEntry(
                        kind="block",
                        tenant=str(payload["tenant"]),
                        lane=payload.get("lane"),
                        conn=conn,
                        request_id=request_id,
                        items=items,
                        bin=bool(payload.get("bin", False)),
                        t_client=conn.mark_t0,
                    )
                )
            if op == "grid":
                return self._admit(
                    _IngressEntry(
                        kind="grid",
                        tenant=str(payload["tenant"]),
                        lane=None,
                        conn=conn,
                        request_id=request_id,
                        item=int(payload["item"]),
                        t_client=conn.mark_t0,
                    )
                )
            if op == "mark":
                # Timing beacon, no response line: requests after it on this
                # connection trace their ingress_wait from the client's own
                # send timestamp (perf_counter epoch — same-host comparable;
                # cross-host clients should simply not send marks).
                conn.mark_t0 = float(payload["t"])
                return None
            if op == "open":
                return self._handle_open(payload, request_id)
            if op == "close":
                # Drain-ordered: eviction must not outrun queries that were
                # admitted before it, so it rides the ingress queue and the
                # drain executes it after the preceding segment's answers.
                entry = _IngressEntry(
                    kind="close", tenant=str(payload["tenant"]), lane=None,
                    conn=conn, request_id=request_id,
                )
                self._force_drain = True
                if not self.ingress.try_put(entry):
                    return self._error("close refused: ingress full", request_id)
                entry.conn.pending += 1
                return None
            if op in FRONT_OPS:
                return _FrontOp(payload)
            return self._error(f"unknown op {op!r}; known: {sorted(PROTOCOL)}", request_id)
        except (KeyError, TypeError, ValueError, binascii.Error) as exc:
            return self._error(f"invalid {op or 'request'} payload: {exc}", request_id)
        except ReproError as exc:
            return self._error(str(exc), request_id)

    def _admit(self, entry: _IngressEntry) -> Optional[dict]:
        self._c_requests.add(entry.weight)
        if not self.ingress.try_put(entry):
            self._c_shed.add(entry.weight)
            out = {
                "type": "overloaded",
                "shed": entry.weight,
                "pending": self.ingress.depth,
                "limit": self.ingress.limit,
            }
            if entry.request_id is not None:
                out["id"] = entry.request_id
            return out
        entry.conn.pending += 1
        self._g_depth.set(self.ingress.depth)
        return None

    def _handle_open(self, payload: dict, request_id) -> dict:
        tenant = str(payload["tenant"])
        cfg = self.config
        kwargs = dict(
            epsilon=float(payload.get("epsilon", cfg.epsilon)),
            error_threshold=float(payload.get("threshold", cfg.error_threshold)),
            c=int(payload.get("c", cfg.c)),
            svt_fraction=float(payload.get("svt_fraction", cfg.svt_fraction)),
            monotonic=bool(payload.get("monotonic", cfg.monotonic)),
        )
        lane = payload.get("lane")
        if lane is not None:
            if payload.get("pool") is not None:
                raise ValueError(
                    "'pool' applies to the tenant session, not a lane — "
                    "open the session with a pool first; lanes inherit it"
                )
            if tenant not in self.service.manager:
                if not self.config.auto_open:
                    raise ValueError(
                        f"no open session for tenant {tenant!r} to attach a lane to"
                    )
                self._auto_open(tenant)
            session = self.service.manager.open_lane(tenant, str(lane), **kwargs)
        else:
            pool = payload.get("pool")
            if pool is not None:
                from repro.accounting.budget import BudgetPool

                kwargs["pool"] = BudgetPool(float(pool))
            session = self.service.open_session(tenant, ttl_s=cfg.session_ttl, **kwargs)
        self._g_sessions.set(len(self.service.manager))
        # Opens respond immediately (not from a drain), so the open — its
        # pool draw and gate charge included — must commit here, before the
        # "opened" frame releases it to the client.
        try:
            self._store_flush()
        except StoreUnavailableError as exc:
            self._c_store_unavailable.add()
            out = {
                "type": "unavailable",
                "op": "open",
                "tenant": tenant,
                "error": f"durable store unavailable: {exc}",
            }
            if request_id is not None:
                out["id"] = request_id
            return out
        out = {
            "type": "opened",
            "tenant": tenant,
            "lane": lane,
            "session": session.session_id,
        }
        if request_id is not None:
            out["id"] = request_id
        return out

    def _auto_open(self, tenant: str):
        cfg = self.config
        return self.service.open_session(
            tenant,
            epsilon=cfg.epsilon,
            error_threshold=cfg.error_threshold,
            c=cfg.c,
            svt_fraction=cfg.svt_fraction,
            monotonic=cfg.monotonic,
            ttl_s=cfg.session_ttl,
        )

    def _session_for(self, entry: _IngressEntry):
        manager = self.service.manager
        if entry.tenant not in manager:
            if not self.config.auto_open:
                raise ReproError(f"no open session for tenant {entry.tenant!r}")
            self._auto_open(entry.tenant)
            self._g_sessions.set(len(manager))
        return manager.session(entry.tenant).lane(entry.lane)

    # ------------------------------------------------------------------
    # The drain: admitted entries -> batcher -> engine -> responses.
    # ------------------------------------------------------------------
    def force_drain(self) -> int:
        """Ask for a drain of everything admitted; returns the queue depth."""
        self._force_drain = True
        return self.ingress.depth

    async def drain_inline(self) -> None:
        """Stdio's drain rule: drain once a drain is forced or a full
        window is queued (single producer, deterministic boundaries)."""
        if self._force_drain or self.ingress.depth >= self.config.window:
            await self.drain_once()

    async def drain_once(self, window: Optional[int] = None) -> int:
        """Run one drain cycle, flush the connections it answered, and
        return the number of requests served."""
        async with self._drain_lock:
            served, answered = self._drain_sync(window)
        for conn in answered:
            await conn.flush()
        return served

    def _store_flush(self) -> None:
        """The durability barrier: flush the store, feed the fsync metrics.

        Raises :class:`StoreUnavailableError` when the write could not be
        made durable after the store's bounded retries — the caller decides
        what degrades (answers become typed ``unavailable`` responses)."""
        store = self.store
        if store is None:
            return
        events = store.flush()
        if events:
            self._c_store_events.add(events)
            self._h_fsync.observe(store.stats["last_fsync_ms"])
        self._g_wal.set(store.wal_batches)

    def _store_flush_quiet(self) -> None:
        """Best-effort flush where no requester is waiting (TTL expiry)."""
        try:
            self._store_flush()
        except StoreUnavailableError:
            self._c_store_unavailable.add()

    def _drain_sync(self, window: Optional[int] = None
                    ) -> Tuple[int, Set[_Connection]]:
        self._force_drain = False
        expired_any = False
        if self.config.session_ttl is not None:
            before = dict(self.service.manager.released_budget)
            expired = self.service.expire()
            if expired:
                expired_any = True
                self._c_expired.add(len(expired))
                released = self.service.manager.released_budget
                for tenant in expired:
                    delta = released.get(tenant, 0.0) - before.get(tenant, 0.0)
                    self.expired_tenants.append((tenant, delta))
                    if self.on_expire is not None:
                        self.on_expire(tenant, delta)
                del self.expired_tenants[:-EXPIRY_LOG_LIMIT]
                self._g_sessions.set(len(self.service.manager))
        entries = self.ingress.take(window)
        self._g_depth.set(self.ingress.depth)
        if not entries:
            if expired_any:
                self._store_flush_quiet()
            return 0, set()
        start = time.perf_counter()
        # Stage accumulators for the request tracer: _run_segment adds the
        # cohort_form / gate_exec / respond_encode seconds of every segment
        # (plus the engine's kernel-ms sub-span); flush and send are timed
        # here.  None keeps the untraced hot path free of the bookkeeping.
        tracer = self.tracer
        stage_acc: Optional[Dict[str, float]] = (
            {"cohort_form": 0.0, "gate_exec": 0.0, "respond_encode": 0.0,
             "gate_kernel": 0.0}
            if tracer is not None
            else None
        )
        # Drain-ordered control: a "close" splits the window into segments —
        # everything admitted before it is answered first, then the tenant
        # is evicted, then the rest of the window proceeds.  Responses are
        # *staged*, not sent: nothing reaches a client until the durability
        # barrier below has committed the state the responses were built on.
        served = 0
        outbox: List[Tuple[_Connection, object, Optional[dict]]] = []
        segment: List[_IngressEntry] = []
        for entry in entries:
            if entry.kind != "close":
                segment.append(entry)
                continue
            served += self._run_segment(segment, outbox, stage_acc)
            segment = []
            entry.conn.pending -= 1
            try:
                released = self.service.evict(entry.tenant)
            except ReproError as exc:
                outbox.append((entry.conn, self._error(str(exc), entry.request_id), None))
                continue
            self._g_sessions.set(len(self.service.manager))
            out = {"type": "closed", "tenant": entry.tenant, "released": released}
            fallback = {"type": "unavailable", "op": "close", "tenant": entry.tenant}
            if entry.request_id is not None:
                out["id"] = entry.request_id
                fallback["id"] = entry.request_id
            outbox.append((entry.conn, out, fallback))
        served += self._run_segment(segment, outbox, stage_acc)

        # Durability barrier: fsync the drain's spends/releases, then send.
        # On store failure, every response with a fallback degrades to a
        # typed "unavailable" — the connection lives, the answer (computed
        # against state the disk never saw) is withheld.
        failure: Optional[str] = None
        t_flush = time.perf_counter()
        if self.store is not None:
            try:
                self._store_flush()
            except StoreUnavailableError as exc:
                failure = str(exc)
        t_send = time.perf_counter()
        answered: Set[_Connection] = set()
        for conn, payload, fallback in outbox:
            answered.add(conn)
            if failure is not None and fallback is not None:
                self._c_store_unavailable.add()
                conn.send({**fallback, "error": f"durable store unavailable: {failure}"})
            elif isinstance(payload, bytes):
                conn.send_raw(payload)
            else:
                conn.send(payload)

        t_done = time.perf_counter()
        elapsed_ms = (t_done - start) * 1e3
        self._c_drains.add()
        self._h_drain.observe(elapsed_ms)
        if self.config.adaptive:
            self.policy.observe(elapsed_ms, served, self.ingress.depth)
            self._g_window.set(self.policy.window)
        if tracer is not None and served:
            # After the drain metrics: span bookkeeping must not inflate the
            # drain-latency signal the adaptive policy steers on.
            self._record_spans(
                tracer, entries, stage_acc, start, t_flush, t_send, t_done, served
            )
        self.drain_beat = time.monotonic()
        return served, answered

    def _record_spans(
        self,
        tracer: RequestTracer,
        entries: List[_IngressEntry],
        stage_acc: Dict[str, float],
        t_pickup: float,
        t_flush: float,
        t_send: float,
        t_done: float,
        served: int,
    ) -> None:
        """Fold one drain's timings into the tracer.

        Drain-level stages are observed once, weighted by the requests the
        drain served (every one of them experienced that latency);
        ``ingress_wait`` is per wire entry against its client ``mark``
        timestamp when it sent one (socket-buffer time counts as queueing
        then) or its admission stamp otherwise.  The per-entry total
        stitches both — the span a client would measure from send/admission
        to its response hitting the socket buffer.
        """
        drain_ms = {
            "cohort_form": stage_acc["cohort_form"] * 1e3,
            "gate_exec": stage_acc["gate_exec"] * 1e3,
            "respond_encode": stage_acc["respond_encode"] * 1e3,
            "store_flush": (t_send - t_flush) * 1e3,
            "send": (t_done - t_send) * 1e3,
        }
        for stage, ms in drain_ms.items():
            tracer.observe_stage(stage, ms, served)
        if stage_acc["gate_kernel"]:
            tracer.observe_gate_kernel(stage_acc["gate_kernel"], served)
        drain_total = sum(drain_ms.values())
        for entry in entries:
            if entry.kind == "close":
                continue
            t_from = entry.t_client if entry.t_client is not None else entry.t_admit
            wait_ms = max((t_pickup - t_from) * 1e3, 0.0)
            tracer.observe_stage("ingress_wait", wait_ms, entry.weight)
            tracer.record_entry(
                kind=entry.kind,
                tenant=entry.tenant,
                weight=entry.weight,
                wait_ms=wait_ms,
                drain_stages_ms=drain_ms,
                total_ms=wait_ms + drain_total,
            )

    def _run_segment(
        self,
        entries: List[_IngressEntry],
        outbox: List[Tuple["_Connection", object, Optional[dict]]],
        stage_acc: Optional[Dict[str, float]] = None,
    ) -> int:
        """Stage one segment's responses: batched queries, then grid ops.

        Appends ``(conn, payload, fallback)`` triples to *outbox* instead of
        sending — the caller releases them after the durability barrier.
        ``fallback`` (None for plain error responses, which commit nothing)
        is the typed ``unavailable`` frame sent in the payload's place when
        the store cannot commit the state behind it."""
        if not entries:
            return 0
        t0 = time.perf_counter()
        batcher = self.service.batcher
        grids: List[_IngressEntry] = []
        submitted: List[Tuple[_IngressEntry, Optional[int], Optional[str]]] = []
        for entry in entries:
            if entry.kind == "grid":
                grids.append(entry)
                continue
            try:
                session = self._session_for(entry)
                if entry.kind == "block":
                    submitted.append(
                        (entry, batcher.submit_block(session, entry.items), None)
                    )
                else:
                    submitted.append((entry, batcher.submit(session, entry.item), None))
            except ReproError as exc:
                submitted.append((entry, None, str(exc)))
        t1 = time.perf_counter()
        result = self.service.drain()
        t2 = time.perf_counter()
        base = int(result.tickets[0]) if len(result) else 0

        served = 0
        n_answered = n_rejected = 0  # batched into the counters once per segment
        for entry, ticket, fail in submitted:
            entry.conn.pending -= 1
            if fail is not None:
                outbox.append((entry.conn, self._error(fail, entry.request_id), None))
                continue
            served += entry.weight
            fallback: Dict[str, Any] = {"type": "unavailable", "tenant": entry.tenant}
            if entry.lane is not None:
                fallback["lane"] = entry.lane
            if entry.request_id is not None:
                fallback["id"] = entry.request_id
            if entry.kind == "query":
                row = ticket - base
                fallback["item"] = entry.item
                out: Dict[str, Any] = {
                    "type": "answer",
                    "ticket": ticket,
                    "tenant": entry.tenant,
                    "item": entry.item,
                }
                if entry.lane is not None:
                    out["lane"] = entry.lane
                if entry.request_id is not None:
                    out["id"] = entry.request_id
                if result.ok[row]:
                    out["value"] = float(result.values[row])
                    out["from_history"] = bool(result.from_history[row])
                    n_answered += 1
                else:
                    out["error"] = result.errors[row]
                    n_rejected += 1
                outbox.append((entry.conn, out, fallback))
            else:
                size = int(entry.items.size)
                fallback["count"] = size
                lo = ticket - base
                hi = lo + size
                ok = result.ok[lo:hi]
                values = result.values[lo:hi]
                history = result.from_history[lo:hi]
                answered = int(ok.sum())
                n_answered += answered
                n_rejected += size - answered
                # Responses are byte-assembled: one dict + full json.dumps
                # per block is measurable at 2M req/s (b64 columns are the
                # payload; the header is a handful of scalar fields).
                head = (
                    f'{{"type":"answers","ticket":{ticket},'
                    f'"tenant":{json.dumps(entry.tenant)},"count":{size}'
                )
                if entry.lane is not None:
                    head += f',"lane":{json.dumps(entry.lane)}'
                if entry.request_id is not None:
                    head += f',"id":{json.dumps(entry.request_id)}'
                if answered != size:
                    errors = [
                        [int(off), result.errors[lo + off]]
                        for off in np.nonzero(~ok)[0]
                    ]
                    head += f',"errors":{json.dumps(errors)}'
                if entry.bin:
                    payload = (
                        head
                        + ',"values_b64":"'
                        + _b64(np.ascontiguousarray(values, dtype="<f8").tobytes())
                        + '","history_b64":"'
                        + _b64(np.packbits(history).tobytes())
                        + '"}\n'
                    )
                else:
                    columns = {
                        "values": [
                            None if not good else float(v)
                            for good, v in zip(ok, values)
                        ],
                        "from_history": [bool(h) for h in history],
                    }
                    payload = (
                        head + "," + json.dumps(columns, default=float)[1:] + "\n"
                    )
                outbox.append((entry.conn, payload.encode(), fallback))

        # Grid ops run after the window's batched queries, in admission
        # order; each gates one item across every lane of its tenant.
        for entry in grids:
            entry.conn.pending -= 1
            try:
                session = self._session_for(entry)  # lane is None: the parent
                lanes = session.answer_grid(entry.item, mode="shared" if
                                            self.config.mode == "shared" else "per-lane")
            except ReproError as exc:
                outbox.append((entry.conn, self._error(str(exc), entry.request_id), None))
                continue
            served += 1
            payload: Dict[str, Any] = {}
            answered_lanes = 0
            for name, lane_answer in lanes.items():
                if lane_answer.ok:
                    payload[name] = {
                        "value": lane_answer.answer.value,
                        "from_history": lane_answer.answer.from_history,
                    }
                    answered_lanes += 1
                else:
                    payload[name] = {"error": lane_answer.error}
            if answered_lanes:
                self._c_answered.add()
            else:
                self._c_rejected.add()
            out = {"type": "grid", "tenant": entry.tenant, "item": entry.item,
                   "lanes": payload}
            fallback = {"type": "unavailable", "tenant": entry.tenant,
                        "item": entry.item}
            if entry.request_id is not None:
                out["id"] = entry.request_id
                fallback["id"] = entry.request_id
            outbox.append((entry.conn, out, fallback))

        self._c_answered.add(n_answered)
        self._c_rejected.add(n_rejected)
        self._c_db.add(int((result.ok & ~result.from_history).sum()))
        for rows in result.block_rows:
            self._h_occupancy.observe(rows)
        if stage_acc is not None:
            # Grid ops execute inside the staging window above, so their
            # gate time lands in respond_encode — an accepted approximation
            # for what is a rare per-request op.
            stage_acc["cohort_form"] += t1 - t0
            stage_acc["gate_exec"] += t2 - t1
            stage_acc["respond_encode"] += time.perf_counter() - t2
            stage_acc["gate_kernel"] += result.gate_ms
        return served

    async def _drain_loop(self) -> None:
        """The background consumer: drain whenever a window fills, a
        force-drain arrives, or the idle flush timer fires with work pending."""
        while True:
            self.drain_beat = time.monotonic()
            if self._closing and not self.ingress.depth:
                break
            await self.ingress.wait(timeout=max(self.config.drain_idle_s, 0.05))
            if not self.ingress.depth:
                if self._closing:
                    break
                continue
            window = self.policy.window if self.config.adaptive else self.config.window
            if (
                self.ingress.depth < window
                and not self._force_drain
                and not self._closing
            ):
                # Partial window: give producers one idle interval to top it
                # up, then flush whatever is there (bounded added latency).
                await asyncio.sleep(self.config.drain_idle_s)
            await self.drain_once(window)

    # ------------------------------------------------------------------
    # Lifecycle.
    # ------------------------------------------------------------------
    async def start(self) -> dict:
        """Bind the ingress queue to the running loop; returns
        :attr:`ready_info`.  Safe to call once per event loop."""
        self.ingress.attach(asyncio.get_running_loop())
        return self.ready_info

    def start_drain_loop(self) -> None:
        """Run draining as a background task (idempotent)."""
        if self._drain_task is None:
            self._drain_task = asyncio.create_task(self._drain_loop())

    async def stop(self) -> None:
        """Graceful stop: drain dry, end the drain loop, and flush,
        checkpoint and close the durable store."""
        self._closing = True
        while self.ingress.depth:
            await self.drain_once()
        task = self._drain_task
        if task is not None:
            self.ingress._notify()
            try:
                await asyncio.wait_for(task, timeout=5.0)
            except asyncio.TimeoutError:  # pragma: no cover - defensive
                task.cancel()
        self.close_store()

    def close_store(self) -> None:
        """Flush pending state, checkpoint, and close the durable store.

        Part of every graceful exit: pending audit appends must not die in
        memory when the process stops on purpose.  Safe without a store,
        safe to call twice."""
        if self.store is None:
            return
        try:
            self.store.close()
        except StoreUnavailableError as exc:  # pragma: no cover - disk failure
            self._c_store_unavailable.add()
            print(f"store close failed: {exc}", file=sys.stderr)

    # ------------------------------------------------------------------
    # Views: this backend's own answers, which the front end serves as is
    # (one backend) or merges (N shards).
    # ------------------------------------------------------------------
    #: A drain-loop heartbeat older than this marks the server not-ready:
    #: the loop visits at least every idle interval (<=50 ms), so seconds
    #: of silence mean it is wedged or dead, not merely busy.
    READY_BEAT_STALE_S = 5.0

    def status_view(self) -> dict:
        """Readiness verdict plus accounting totals.

        Ready means the drain loop's heartbeat is fresh (or no loop exists —
        stdio drains inline) and the durable store, when configured, still
        accepts flushes.  ``/healthz`` stays 200 through all of this — the
        process is alive; it just shouldn't get traffic.
        """
        detail: Dict[str, Any] = {"closing": self._closing}
        ok = not self._closing
        task = self._drain_task
        if task is None:
            detail["drain_loop"] = "inline"
        else:
            age = time.monotonic() - self.drain_beat
            detail["drain_beat_age_s"] = round(age, 3)
            if task.done():
                detail["drain_loop"] = "dead"
                ok = False
            elif age > self.READY_BEAT_STALE_S:
                detail["drain_loop"] = "stalled"
                ok = False
            else:
                detail["drain_loop"] = "ok"
        if self.store is None:
            detail["store"] = "none"
        elif self.store.closed:
            detail["store"] = "closed"
            ok = False
        else:
            detail["store"] = "ok"
        manager = self.service.manager
        return {
            "ready": ok,
            **detail,
            "pid": os.getpid(),
            "sessions_open": len(manager),
            "sessions_closed": len(manager.closed_sessions()),
            "audit_records": len(self.service.audit),
            "next_audit_seq": manager.audit.next_seq,
            "epsilon_spent": manager.total_spent(),
        }

    def snapshot(self) -> dict:
        """The metrics snapshot served by the ``metrics`` op."""
        self.sampler.sample()
        self._g_depth.set(self.ingress.depth)
        self._g_sessions.set(len(self.service.manager))
        if self.store is not None:
            stats = self.store.stats
            self._g_wal.set(self.store.wal_batches)
            self.metrics.gauge("store_flushes").set(stats["flushes"])
            self.metrics.gauge("store_retries").set(stats["retries"])
            self.metrics.gauge("store_checkpoints").set(stats["checkpoints"])
            self.metrics.gauge("store_archived_records").set(stats["archived_records"])
            self.metrics.gauge("store_last_flush_ms").set(stats["last_flush_ms"])
        snap = self.metrics.snapshot()
        requests = snap["counters"].get("requests_total", 0)
        shed = snap["counters"].get("shed_total", 0)
        snap["shed_rate"] = round(shed / requests, 6) if requests else 0.0
        return snap

    def sessions_view(self, limit: int = 50, offset: int = 0) -> dict:
        """Paginated live-session listing, sorted by tenant."""
        limit = max(int(limit), 0)
        offset = max(int(offset), 0)
        manager = self.service.manager
        live = sorted(manager, key=lambda s: s.tenant)
        page = live[offset:offset + limit]
        return {
            "total": len(live),
            "offset": offset,
            "limit": limit,
            "closed_total": len(manager.closed_sessions()),
            "sessions": [
                {
                    "tenant": s.tenant,
                    "session_id": s.session_id,
                    "epsilon": s.epsilon,
                    "c": s.c,
                    "svt_fraction": s.svt_fraction,
                    "spent": s.ledger.spent,
                    "released": s.ledger.released,
                    "served": s.served,
                    "database_accesses": s.database_accesses,
                    "exhausted": s.exhausted,
                    "lanes": sorted(s.lanes),
                    "opened_at": s.opened_at,
                    "ttl_s": s.ttl_s,
                }
                for s in page
            ],
        }

    def audit_view(self, after_seq: int = -1, limit: int = 100) -> dict:
        """Audit records after *after_seq*: live log + archived, merged.

        Compaction archives closed sessions out of the live store; the
        archive is the only place their records still exist after a reboot,
        so this view merges both (live wins on a seq tie)."""
        after_seq = int(after_seq)
        limit = max(int(limit), 0)
        log = self.service.manager.audit
        by_seq: Dict[int, Any] = {}
        if self.store is not None:
            for record in self.store.load_archive():
                if record.seq > after_seq:
                    by_seq[record.seq] = record
        for record in log:
            if record.seq > after_seq:
                by_seq[record.seq] = record
        selected = [by_seq[seq] for seq in sorted(by_seq)][:limit]
        return {
            "after_seq": after_seq,
            "limit": limit,
            "count": len(selected),
            "next_seq": log.next_seq,
            "records": [r._asdict() for r in selected],
        }

    def trace_view(self, slow_limit: int = 32) -> Optional[dict]:
        """The ``/debug/trace`` payload, or None when tracing is off."""
        if self.tracer is None:
            return None
        return self.tracer.report(slow_limit=max(int(slow_limit), 0))


class _Client:
    """One ingress connection: its response sink and, when sharded, its
    data channels to the shards plus its latest ``mark`` line (replayed
    onto channels opened later)."""

    __slots__ = ("conn", "legacy_stderr", "channels", "mark")

    def __init__(self, conn: _Connection, legacy_stderr: bool = False) -> None:
        self.conn = conn
        self.legacy_stderr = legacy_stderr
        self.channels: Dict[int, Any] = {}
        self.mark: Optional[bytes] = None

    def send(self, payload: dict) -> None:
        if payload.pop("_legacy", False) and self.legacy_stderr:
            # Legacy "tenant item" framing reported parse failures on
            # stderr; stdio keeps that contract for legacy lines only.
            print(f"error: {payload['error']}", file=sys.stderr)
            return
        self.conn.send(payload)

    def in_flight(self) -> int:
        """Responses still owed on live channels (a dead shard owes none)."""
        return sum(chan.sent - chan.received
                   for chan in self.channels.values() if not chan.closed)


#: Worst-last orders for folding per-shard readiness into one verdict.
_DRAIN_LOOP_STATES = ("inline", "ok", "stalled", "dead")
_STORE_STATES = ("none", "ok", "closed")


class RuntimeServer:
    """The front end of ``repro serve``, over one backend or N shards.

    ``shards=1`` (the default) runs one in-process :class:`LocalBackend`
    (:attr:`local`): request lines go straight to its dispatcher and its
    views are served as they are.  ``shards=N`` runs N worker processes
    (:attr:`backends`, each a :class:`RemoteBackend`) behind a consistent-
    hash :class:`HashRing`: tenant ops are forwarded verbatim to their
    shard, view ops answered by merging every live shard's view.  Either
    way this class alone owns the transports (:meth:`serve_tcp`,
    :meth:`serve_stdin`, :meth:`serve_unix`), client handling, the admin
    plane (:meth:`start_admin`), :meth:`shutdown`, and the response of
    every op the front end answers (:data:`FRONT_OPS`).
    """

    def __init__(self, supports, config: Optional[ServerConfig] = None,
                 shards: int = 1) -> None:
        self.config = config or ServerConfig()
        self.num_shards = int(shards)
        if self.num_shards < 1:
            raise ValueError("shards must be >= 1")
        self.decommissioned: Set[int] = set()
        self.runtime_dir: Optional[str] = None
        if self.num_shards == 1:
            #: The in-process backend (None when sharded).
            self.local: Optional[LocalBackend] = LocalBackend(supports, self.config)
            self.backends: Dict[int, Union[LocalBackend, RemoteBackend]] = {
                0: self.local}
            self.ring: Optional[HashRing] = None
            self.metrics = self.local.metrics
        else:
            self.local = None
            self.ring = HashRing(range(self.num_shards))
            # Unix socket paths must stay under ~107 bytes, so the sockets
            # live in their own short-lived tmp dir, never under state_dir.
            self.runtime_dir = tempfile.mkdtemp(prefix="repro-shards-")
            ctx = multiprocessing.get_context("spawn")
            supports = np.ascontiguousarray(supports, dtype=float)
            self.backends = {
                k: RemoteBackend(k, supports, self.config,
                                 os.path.join(self.runtime_dir, f"s{k}"), ctx)
                for k in range(self.num_shards)
            }
            self.metrics = MetricsRegistry()
            self.sampler = RssSampler(self.metrics)
            self._c_routed = self.metrics.counter("router_requests_total")
            self._c_unavailable = self.metrics.counter("router_unavailable_total")
            self._g_shards = self.metrics.gauge("router_shards_alive")
        sharded = self.local is None
        self._c_errors = self.metrics.counter(
            "router_errors_total" if sharded else "errors_total")
        self._g_clients = self.metrics.gauge(
            "router_clients" if sharded else "connections")
        # Empirical-audit metrics, fed by the ``audit_report`` op (the
        # ``repro audit-live`` driver posts its running totals here so the
        # audited bound is scrapeable next to the ledger's charge).  Canary
        # tenants hash onto many shards, so the audit belongs to the front
        # end: sharded, these series merge unrelabeled into /metrics.
        for name in ("audit_trials_total", "audit_guesses_total",
                     "audit_correct_total"):
            self.metrics.counter(name)
        for name in ("audited_eps_lb", "audit_charged_eps"):
            self.metrics.gauge(name)
        #: The most recent ``audit_report`` payload (behind ``/audit/eps``).
        self._audit_report: Optional[dict] = None
        #: The HTTP admin plane, once started (see :meth:`start_admin`).
        self.admin: Optional[AdminPlane] = None
        self._clients: Set[_Client] = set()
        self._listeners: List[asyncio.AbstractServer] = []
        self._tcp_server: Optional[asyncio.AbstractServer] = None
        self._unix_path: Optional[str] = None
        self._closing = False
        #: The metrics view :meth:`shutdown` takes once every backend has
        #: stopped (the CLI summary and bench harnesses read it).
        self.final_snapshot: Optional[dict] = None

    # ------------------------------------------------------------------
    # Lifecycle.
    # ------------------------------------------------------------------
    def live_shards(self) -> List[int]:
        return [k for k, b in sorted(self.backends.items())
                if not b.down and k not in self.decommissioned]

    async def start(self) -> Dict[int, dict]:
        """Boot the backends and, when configured, the admin plane.

        Spawns the shard workers and waits until each reports ready —
        recovery included, so a front end that says ready can serve every
        recovered tenant.  Idempotent; returns each shard's ready info
        (pid, plus ``recovery_summary`` when boot replayed durable state).
        """
        if self.local is None and self.config.state_dir is not None:
            os.makedirs(self.config.state_dir, exist_ok=True)
        shards = [k for k in sorted(self.backends) if k not in self.decommissioned]
        infos = await asyncio.gather(*(self.backends[k].start() for k in shards))
        if self.config.admin_port is not None:
            await self.start_admin()
        return dict(zip(shards, infos))

    async def start_admin(
        self, host: Optional[str] = None, port: Optional[int] = None
    ) -> Tuple[str, int]:
        """Start the HTTP admin plane (idempotent); returns its address.

        Runs on the current event loop — call from the same loop the
        transports run on, so ``/readyz`` and ``/debug/profile`` observe the
        loop they share with the drain.
        """
        if self.admin is None:
            self.admin = AdminPlane(
                self,
                host=self.config.admin_host if host is None else host,
                port=(self.config.admin_port or 0) if port is None else port,
            )
            await self.admin.start()
        return self.admin.address

    async def shutdown(self) -> None:
        """Graceful stop: refuse new connections, answer everything already
        queued, stop the backends (each flushes and closes its durable
        store), take :attr:`final_snapshot`, and close the connections."""
        if self._closing:
            return
        self._closing = True
        if self.admin is not None:
            await self.admin.close()
            self.admin = None
        for server in self._listeners:
            server.close()
            await server.wait_closed()
        self._listeners = []
        if self._unix_path is not None:
            try:
                os.unlink(self._unix_path)
            except OSError:
                pass
        for client in list(self._clients):
            await self._finish(client)
        await asyncio.gather(*(backend.stop() for backend in self.backends.values()))
        self.final_snapshot = await self.snapshot()
        for client in list(self._clients):
            client.conn.closed = True
            if client.conn.writer is not None:
                try:
                    client.conn.writer.close()
                    await client.conn.writer.wait_closed()
                except (ConnectionError, RuntimeError):
                    pass
        if self.runtime_dir is not None:
            shutil.rmtree(self.runtime_dir, ignore_errors=True)

    async def restart_shard(self, shard: int) -> dict:
        """Respawn one worker; recovery replays its ``shard-K`` state.

        The typed-``unavailable`` degradation window for the shard's tenants
        ends here: placement never changed (the ring is untouched), so the
        recovered sessions serve again exactly where they were.
        """
        if shard in self.decommissioned:
            raise ValueError(f"shard {shard} was decommissioned")
        backend = self.backends[shard]
        await backend.stop()
        self._drop_channels(shard)
        return await backend.start()

    async def decommission(self, shard: int) -> Dict[str, float]:
        """Shard-aware eviction: retire *shard*, rehash its tenants away.

        Ring first (new traffic reroutes immediately), then close every
        session on the leaving shard — releasing unspent budget into its
        audit log — then stop the worker.  Returns ``{tenant: released}``.
        Tenants whose placement did not point at *shard* are untouched (the
        consistent-hash no-movement property); the evicted tenants' next
        request lands on a survivor as a fresh session/epoch.
        """
        if shard in self.decommissioned or shard not in self.backends:
            raise ValueError(f"no live shard {shard}")
        if self.ring is None or len(self.ring) <= 1:
            raise ValueError("cannot decommission the last shard")
        self.ring = self.ring.without(shard)
        backend = self.backends[shard]
        released: Dict[str, float] = {}
        view = await backend.view("sessions", limit=1_000_000, offset=0)
        for entry in (view or {}).get("sessions", []):
            response = await backend.call({"op": "close", "tenant": entry["tenant"]})
            if response is not None and response.get("type") == "closed":
                released[entry["tenant"]] = response.get("released", 0.0)
        await backend.stop()
        self.decommissioned.add(shard)
        self._drop_channels(shard)
        return released

    def _drop_channels(self, shard: int) -> None:
        for client in self._clients:
            chan = client.channels.pop(shard, None)
            if chan is not None and not chan.closed:
                chan.close()

    # ------------------------------------------------------------------
    # Transports and client handling.
    # ------------------------------------------------------------------
    async def serve_tcp(self, host: str = "127.0.0.1", port: int = 0):
        """Start the TCP listener (plus the drain loop or the shard
        workers); returns the asyncio server.

        The caller owns the lifetime: ``await server.shutdown()`` stops
        accepting, answers everything queued, and closes every connection.
        """
        await self._serve_prepare()
        self._tcp_server = await asyncio.start_server(
            self._handle_client, host, port, limit=_READLINE_LIMIT
        )
        self._listeners.append(self._tcp_server)
        return self._tcp_server

    @property
    def tcp_address(self) -> Tuple[str, int]:
        sock = self._tcp_server.sockets[0]
        return sock.getsockname()[:2]

    async def serve_unix(self, path: str):
        """Unix-domain-socket flavor of :meth:`serve_tcp`: same framing, a
        filesystem address instead of a port.  This is the data plane a
        shard worker exposes to the front end that spawned it."""
        await self._serve_prepare()
        self._unix_path = str(path)
        server = await asyncio.start_unix_server(
            self._handle_client, path=str(path), limit=_READLINE_LIMIT
        )
        self._listeners.append(server)
        return server

    async def _serve_prepare(self) -> None:
        await self.start()
        if self.local is not None:
            self.local.start_drain_loop()

    async def serve_stdin(self, stdin=None, stdout=None) -> None:
        """Stdio transport: read request lines until EOF, then answer
        everything still queued.

        Single-producer and deterministic: every request line yields its
        response line and a blank line force-drains.  With one backend a
        blank line or a full window drains inline, in request order; with
        shards, lines of different tenants may interleave across shards
        while per-tenant order holds.
        """
        stdin = stdin if stdin is not None else sys.stdin
        stdout = stdout if stdout is not None else sys.stdout
        await self.start()
        client = self._connect(_Connection(stream=stdout, name="stdin"),
                               legacy_stderr=True)
        loop = asyncio.get_running_loop()
        try:
            while True:
                raw = await loop.run_in_executor(None, stdin.readline)
                if raw == "":
                    break
                await self._ingest(client, raw.encode())
                if self.local is not None:
                    await self.local.drain_inline()
        finally:
            await self._finish(client)
            self._disconnect(client)

    async def _handle_client(self, reader: asyncio.StreamReader, writer) -> None:
        client = self._connect(
            _Connection(writer=writer, name=str(writer.get_extra_info("peername")))
        )
        try:
            while True:
                try:
                    raw = await reader.readline()
                except (ConnectionError, asyncio.LimitOverrunError, ValueError) as exc:
                    client.send(self._error(f"unreadable frame: {exc}"))
                    break
                if not raw:
                    break
                await self._ingest(client, raw)
        finally:
            await self._finish(client)
            self._disconnect(client)
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionError, RuntimeError):
                pass

    def _connect(self, conn: _Connection, legacy_stderr: bool = False) -> _Client:
        client = _Client(conn, legacy_stderr)
        self._clients.add(client)
        self._g_clients.set(len(self._clients))
        return client

    def _disconnect(self, client: _Client) -> None:
        self._clients.discard(client)
        self._g_clients.set(len(self._clients))

    async def _finish(self, client: _Client) -> None:
        """Wait out the client's queued work, so no answer it is owed hits
        a closed socket, then close its shard channels."""
        conn = client.conn
        if self.local is not None:
            self.local.force_drain()
            while conn.pending and not conn.closed:
                await self.local.drain_once()
        elif client.in_flight():
            await self.force_drain()
            deadline = time.monotonic() + 30.0
            while client.in_flight() and time.monotonic() < deadline:
                await asyncio.sleep(0.005)
        for chan in client.channels.values():
            chan.close()
        for chan in client.channels.values():
            try:
                await asyncio.wait_for(chan.pump, timeout=5.0)
            except asyncio.TimeoutError:  # pragma: no cover - defensive
                chan.pump.cancel()
        await conn.flush()

    async def _ingest(self, client: _Client, raw: bytes) -> None:
        """Handle one request line and send its immediate response, if any
        (queries answer later: from the drain, or pumped back from a shard)."""
        if self.local is not None:
            response = self.local.ingest_line(raw.decode("utf-8", "replace"),
                                              client.conn)
            if type(response) is _FrontOp:
                response = await self._front_op(response)
        else:
            response = await self._route(client, raw)
        if response is not None:
            client.send(response)
            await client.conn.flush()

    async def _route(self, client: _Client, raw: bytes) -> Optional[dict]:
        """Sharded ingest: parse just enough, forward tenant ops verbatim."""
        payload, error = parse_request_line(raw.decode("utf-8", "replace"))
        if error is not None:
            self._c_errors.add()
            return error
        if payload is None:  # blank line: the force-drain signal
            await self.force_drain()
            return None
        op = payload.get("op")
        if op in FRONT_OPS:
            return await self._front_op(payload)
        if not raw.endswith(b"\n"):
            raw += b"\n"
        if op == "mark":
            # Validated here because a forwarded *bad* mark would make every
            # worker emit an error line the accounting never charged for; a
            # good mark yields no response and replays onto late channels.
            try:
                float(payload["t"])
            except (KeyError, TypeError, ValueError) as exc:
                return self._error(f"invalid mark payload: {exc}", payload.get("id"))
            client.mark = raw
            for chan in client.channels.values():
                if not chan.closed:
                    chan.writer.write(raw)
            return None
        # Tenant ops — and ops a worker rejects (an unknown op, a query with
        # no tenant) — route to a shard: the worker's dispatcher is the one
        # authority on payload validity, so its typed errors come back
        # verbatim.  A missing tenant routes to the ring's "" slot.
        tenant = payload.get("tenant")
        shard = self.ring.shard_for("" if tenant is None else str(tenant))
        self._c_routed.add()
        chan = client.channels.get(shard)
        if chan is None or chan.closed:
            chan = await self.backends[shard].open_channel(client.conn, client.mark)
            if chan is not None:
                client.channels[shard] = chan
        if chan is None:
            self._c_unavailable.add()
            out: Dict[str, Any] = {
                "type": "unavailable",
                "shard": shard,
                "error": f"shard {shard} unavailable",
            }
            if tenant is not None:
                out["tenant"] = tenant
            if payload.get("id") is not None:
                out["id"] = payload["id"]
            return out
        chan.sent += 1
        chan.writer.write(raw)
        await chan.writer.drain()
        return None

    def _error(self, message: str, request_id=None) -> dict:
        self._c_errors.add()
        out = {"type": "error", "error": message}
        if request_id is not None:
            out["id"] = request_id
        return out

    async def _front_op(self, payload: dict) -> dict:
        """The response to one :data:`FRONT_OPS` request — the only place
        these responses are built, at every shard count."""
        op = payload.get("op")
        request_id = payload.get("id")
        try:
            if op == "metrics":
                out = {"type": "metrics", **(await self.snapshot())}
            elif op == "drain":
                out = {"type": "draining", "pending": await self.force_drain()}
            elif op == "status":
                out = {"type": "status", **(await self.status_view())}
            elif op == "sessions":
                out = {"type": "sessions", **(await self.sessions_view(
                    limit=int(payload.get("limit", 50)),
                    offset=int(payload.get("offset", 0))))}
            elif op == "audit":
                out = {"type": "audit", **(await self.audit_view(
                    after_seq=int(payload.get("after_seq", -1)),
                    limit=int(payload.get("limit", 100))))}
            elif op == "audit_report":
                out = {"type": "audit_report", **self.record_audit_report(payload)}
            else:  # trace
                report = await self.trace_view(slow_limit=int(payload.get("slow", 32)))
                if report is None:
                    return self._error("tracing disabled; start with --trace",
                                       request_id)
                out = {"type": "trace", **report}
        except (KeyError, TypeError, ValueError) as exc:
            return self._error(f"invalid {op} payload: {exc}", request_id)
        if request_id is not None:
            out["id"] = request_id
        return out

    # ------------------------------------------------------------------
    # Views, behind the view ops and the admin plane: the local backend's
    # own with one backend, merged over the live shards otherwise.
    # ------------------------------------------------------------------
    async def _per_shard(self, op: str, **args) -> Dict[int, dict]:
        shards = self.live_shards()
        views = await asyncio.gather(*(self.backends[k].view(op, **args)
                                       for k in shards))
        return {k: v for k, v in zip(shards, views) if v is not None}

    async def snapshot(self) -> dict:
        """The metrics snapshot served by the ``metrics`` op and ``/metrics``."""
        if self.local is not None:
            return self.local.snapshot()
        self.sampler.sample()
        self._g_shards.set(len(self.live_shards()))
        per = await self._per_shard("metrics")
        sections = {
            k: {s: v.get(s, {}) for s in ("counters", "gauges", "histograms")}
            for k, v in per.items()
        }
        snap = merge_snapshots(sections, self.metrics.snapshot())
        snap["shards"] = {
            "count": self.num_shards,
            "alive": self.live_shards(),
            "down": [k for k, b in sorted(self.backends.items())
                     if b.down and k not in self.decommissioned],
            "decommissioned": sorted(self.decommissioned),
        }
        return snap

    async def status_view(self) -> dict:
        """The ``status`` op: readiness plus accounting totals.

        Ready iff the front end is not closing and every non-retired shard
        is ready; ``shards`` holds each shard's own verdict, ``drain_loop``
        and ``store`` the worst of them, and the totals are sums over the
        shards that answered.  One backend is shard 0.
        """
        if self.local is not None:
            per = {0: self.local.status_view()}
        else:
            per = await self._per_shard("status")
        ready = not self._closing
        shards: Dict[str, dict] = {}
        for k, backend in sorted(self.backends.items()):
            status = per.get(k)
            if k in self.decommissioned:
                shards[str(k)] = {"state": "decommissioned"}
            elif status is None:
                shards[str(k)] = {"ready": False, "state": "down", "pid": backend.pid}
                ready = False
            else:
                shards[str(k)] = {key: status[key]
                                  for key in ("ready", "drain_loop", "store", "pid")}
                ready = ready and bool(status["ready"])
        answered = list(per.values())
        out: Dict[str, Any] = {
            "ready": ready,
            "closing": self._closing,
            "drain_loop": max((s["drain_loop"] for s in answered),
                              key=_DRAIN_LOOP_STATES.index, default="dead"),
            "store": max((s["store"] for s in answered),
                         key=_STORE_STATES.index, default="none"),
        }
        ages = [s["drain_beat_age_s"] for s in answered if "drain_beat_age_s" in s]
        if ages:
            out["drain_beat_age_s"] = max(ages)
        out["pid"] = os.getpid()
        out["shards"] = shards
        for key in STATUS_TOTALS:
            out[key] = sum(s[key] for s in answered)
        return out

    async def readiness(self) -> Tuple[bool, dict]:
        """The ``/readyz`` verdict and its detail (see :meth:`status_view`)."""
        detail = await self.status_view()
        return detail.pop("ready"), detail

    async def force_drain(self) -> int:
        """Force every backend to drain; returns the summed pending depth."""
        if self.local is not None:
            return self.local.force_drain()
        per = await self._per_shard("drain")
        return int(sum(v.get("pending", 0) for v in per.values()))

    async def sessions_view(self, limit: int = 50, offset: int = 0) -> dict:
        """Paginated live-session listing, sorted by tenant (sharded: each
        entry tagged with its shard)."""
        if self.local is not None:
            return self.local.sessions_view(limit=limit, offset=offset)
        limit = max(int(limit), 0)
        offset = max(int(offset), 0)
        per = await self._per_shard("sessions", limit=offset + limit, offset=0)
        return merge_sessions(per, limit, offset)

    async def audit_view(self, after_seq: int = -1, limit: int = 100) -> dict:
        """Audit records after *after_seq* (sharded: seq-merged, each tagged
        with its shard; see :func:`merge_audit` for paging)."""
        if self.local is not None:
            return self.local.audit_view(after_seq=after_seq, limit=limit)
        after_seq = int(after_seq)
        limit = max(int(limit), 0)
        per = await self._per_shard("audit", after_seq=after_seq, limit=limit)
        return merge_audit(per, after_seq, limit)

    async def trace_view(self, slow_limit: int = 32) -> Optional[dict]:
        """The ``/debug/trace`` payload, or None when tracing is off."""
        if self.local is not None:
            return self.local.trace_view(slow_limit=slow_limit)
        if not self.config.trace:
            return None
        per = await self._per_shard("trace", slow=int(slow_limit))
        return merge_trace([per[k] for k in sorted(per)], slow_limit)

    async def slow_view(self, limit: int = 64) -> Optional[dict]:
        """Just the slow-request exemplar ring, or None when tracing is off."""
        report = await self.trace_view(slow_limit=limit)
        if report is None:
            return None
        return {"slow_threshold_ms": report["slow_threshold_ms"],
                "slow": report["slow"]}

    def record_audit_report(self, payload: dict) -> dict:
        """Fold one ``audit_report`` op into the metrics and the view.

        The driver posts *cumulative* totals for its run; counters advance
        by the delta against the previous report (a report with fewer trials
        than the last one is a fresh run and counts in full).
        """
        report = fold_audit_report(
            self.metrics, self._audit_report, payload,
            default_charged=self.config.epsilon,
        )
        self._audit_report = report
        return report

    def audit_eps_view(self) -> dict:
        """The ``/audit/eps`` payload: the latest empirical-audit report
        (or a typed not-yet-audited answer) plus the active fault knob."""
        out = {"audited": self._audit_report is not None,
               "gate_fault": self.config.gate_fault}
        if self._audit_report is not None:
            out.update(self._audit_report)
        return out
