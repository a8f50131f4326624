"""The HTTP admin plane: probe, scrape, and profile a live runtime.

The JSONL protocol's ``metrics`` op requires a protocol-speaking client; a
load balancer health check, a Prometheus scraper, and an engineer with
``curl`` all speak HTTP.  :class:`AdminPlane` is a deliberately small
HTTP/1.1 server — asyncio + stdlib only, GET/HEAD only, no TLS, bind it to
loopback or an operator network — that shares the runtime's event loop but
listens on its **own** port, so operational traffic can never consume a
protocol connection slot (and the protocol port stays a pure data plane).

Routes:

======================  ======================================================
``/healthz``            liveness: the event loop answers (always 200)
``/readyz``             readiness: drain-loop heartbeat fresh + store open,
                        on every shard
``/metrics``            Prometheus text exposition of the full registry
``/debug/trace``        per-stage latency breakdown + slow exemplars (JSON)
``/debug/slow``         just the slow-request exemplar ring (``?limit=``)
``/debug/profile``      sampling profile, collapsed stacks (``?seconds=``)
``/sessions``           paginated live-session listing (``?limit=&offset=``)
``/audit``              audit records after a seq (``?after_seq=&limit=``),
                        live log and archived (compacted) records merged
``/audit/eps``          latest empirical-audit report: eps lower bound,
                        charged eps, guess totals, and the caught verdict
``/``                   JSON index of all of the above
======================  ======================================================

Everything here reads shared structures the drain loop writes concurrently
— but every read is either lock-protected (histograms, the exemplar ring,
the audit log's append lock) or a point-in-time snapshot, so a scrape can
never torn-read a request's accounting.  ``/debug/profile`` is the one
blocking route; it runs in the default executor so the event loop (and the
drain loop riding it) keeps serving while the sampler watches it.
"""

from __future__ import annotations

import asyncio
import json
from typing import Dict, Optional, Tuple
from urllib.parse import parse_qs, urlsplit

from repro.service.observability.profiler import ProfilerBusyError, SamplingProfiler
from repro.service.observability.promexport import CONTENT_TYPE, render_prometheus

__all__ = ["AdminPlane"]

_MAX_PROFILE_S = 30.0
_MAX_PAGE = 1000

_ROUTE_HELP = {
    "/healthz": "liveness probe (always 200 while the loop runs)",
    "/readyz": "readiness: drain heartbeat + durable store state, per shard",
    "/metrics": "Prometheus text exposition (version 0.0.4)",
    "/debug/trace": "stage latency breakdown + slow exemplars",
    "/debug/slow": "slow-request exemplars; ?limit=N",
    "/debug/profile": "collapsed-stack sampling profile; ?seconds=N",
    "/sessions": "live sessions; ?limit=N&offset=M",
    "/audit": "audit records; ?after_seq=S&limit=N",
    "/audit/eps": "latest empirical-audit eps lower bound vs charged eps",
}


def _first_int(query: Dict[str, list], key: str, default: int) -> int:
    try:
        return int(query[key][0])
    except (KeyError, IndexError, ValueError):
        return default


def _first_float(query: Dict[str, list], key: str, default: float) -> float:
    try:
        return float(query[key][0])
    except (KeyError, IndexError, ValueError):
        return default


class AdminPlane:
    """The runtime's operational HTTP surface, on its own port.

    Owns nothing but a listener and a profiler: all state it serves belongs
    to the :class:`~repro.service.runtime.server.RuntimeServer` front end
    it wraps, whatever the number of shards behind it.
    ``start()`` must run on the same event loop as the runtime (the drain
    heartbeat and ``run_in_executor`` both assume it).
    """

    def __init__(
        self,
        server,
        host: str = "127.0.0.1",
        port: int = 0,
        profiler: Optional[SamplingProfiler] = None,
    ) -> None:
        self.server = server
        self.host = host
        self.port = int(port)
        self.profiler = profiler if profiler is not None else SamplingProfiler()
        self._http: Optional[asyncio.AbstractServer] = None

    async def start(self) -> asyncio.AbstractServer:
        self._http = await asyncio.start_server(self._handle, self.host, self.port)
        return self._http

    @property
    def address(self) -> Tuple[str, int]:
        assert self._http is not None, "admin plane not started"
        sock = self._http.sockets[0]
        return sock.getsockname()[:2]

    async def close(self) -> None:
        if self._http is not None:
            self._http.close()
            await self._http.wait_closed()
            self._http = None

    # ------------------------------------------------------------------
    # HTTP plumbing.
    # ------------------------------------------------------------------
    async def _handle(self, reader: asyncio.StreamReader, writer) -> None:
        try:
            while True:
                try:
                    head = await reader.readuntil(b"\r\n\r\n")
                except asyncio.IncompleteReadError as exc:
                    if exc.partial.strip():
                        self._respond(writer, 400, "text/plain; charset=utf-8",
                                      b"malformed request\n", close=True)
                    break
                except (asyncio.LimitOverrunError, ConnectionError):
                    break
                request_line, _, header_blob = head.partition(b"\r\n")
                parts = request_line.decode("latin-1").split()
                if len(parts) != 3:
                    self._respond(writer, 400, "text/plain; charset=utf-8",
                                  b"malformed request line\n", close=True)
                    break
                method, target, _version = parts
                keep = b"connection: close" not in header_blob.lower()
                if method not in ("GET", "HEAD"):
                    self._respond(writer, 405, "text/plain; charset=utf-8",
                                  b"GET only\n", close=not keep)
                else:
                    split = urlsplit(target)
                    query = parse_qs(split.query)
                    try:
                        status, ctype, body = await self._route(split.path, query)
                    except Exception as exc:  # route bug -> 500, conn lives
                        status, ctype, body = (
                            500,
                            "application/json",
                            self._json({"error": str(exc)}),
                        )
                    self._respond(writer, status, ctype, body,
                                  close=not keep, head=method == "HEAD")
                await writer.drain()
                if not keep:
                    break
        except (ConnectionError, RuntimeError):
            pass
        finally:
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionError, RuntimeError):
                pass

    _STATUS = {200: "OK", 400: "Bad Request", 404: "Not Found",
               405: "Method Not Allowed", 409: "Conflict",
               500: "Internal Server Error", 503: "Service Unavailable"}

    def _respond(self, writer, status: int, ctype: str, body: bytes,
                 close: bool = False, head: bool = False) -> None:
        reason = self._STATUS.get(status, "Unknown")
        conn = "close" if close else "keep-alive"
        header = (
            f"HTTP/1.1 {status} {reason}\r\n"
            f"Content-Type: {ctype}\r\n"
            f"Content-Length: {len(body)}\r\n"
            f"Connection: {conn}\r\n\r\n"
        ).encode("latin-1")
        writer.write(header if head else header + body)

    @staticmethod
    def _json(payload) -> bytes:
        return (json.dumps(payload, default=float) + "\n").encode()

    # ------------------------------------------------------------------
    # Routes.  Every data-bearing route reads a front-end *view*
    # (``snapshot``, ``readiness``, ``sessions_view``, ...): the same views
    # the JSONL ops answer with, at every shard count — the in-process
    # backend's own with one backend, merged over the shards otherwise.
    # ------------------------------------------------------------------
    async def _route(self, path: str, query: Dict[str, list]):
        if path in ("/", "/help"):
            return 200, "application/json", self._json({"routes": _ROUTE_HELP})
        if path == "/healthz":
            return 200, "text/plain; charset=utf-8", b"ok\n"
        if path == "/readyz":
            ok, detail = await self.server.readiness()
            return (200 if ok else 503), "application/json", self._json(
                {"ready": ok, **detail}
            )
        if path == "/metrics":
            text = render_prometheus(await self.server.snapshot())
            return 200, CONTENT_TYPE, text.encode()
        if path == "/debug/trace":
            report = await self.server.trace_view()
            if report is None:
                return 404, "application/json", self._json(
                    {"error": "tracing disabled; start with --trace"}
                )
            return 200, "application/json", self._json(report)
        if path == "/debug/slow":
            limit = min(max(_first_int(query, "limit", 64), 0), _MAX_PAGE)
            payload = await self.server.slow_view(limit)
            if payload is None:
                return 404, "application/json", self._json(
                    {"error": "tracing disabled; start with --trace"}
                )
            return 200, "application/json", self._json(payload)
        if path == "/debug/profile":
            return await self._profile(query)
        if path == "/sessions":
            limit = min(max(_first_int(query, "limit", 50), 0), _MAX_PAGE)
            offset = max(_first_int(query, "offset", 0), 0)
            page = await self.server.sessions_view(limit=limit, offset=offset)
            return 200, "application/json", self._json(page)
        if path == "/audit/eps":
            view = self.server.audit_eps_view()
            return 200, "application/json", self._json(view)
        if path == "/audit":
            after_seq = _first_int(query, "after_seq", -1)
            limit = min(max(_first_int(query, "limit", 100), 0), _MAX_PAGE)
            view = await self.server.audit_view(after_seq=after_seq, limit=limit)
            return 200, "application/json", self._json(view)
        return 404, "application/json", self._json(
            {"error": f"no route {path!r}", "routes": sorted(_ROUTE_HELP)}
        )

    async def _profile(self, query: Dict[str, list]):
        seconds = _first_float(query, "seconds", 2.0)
        if not 0.0 < seconds <= _MAX_PROFILE_S:
            return 400, "application/json", self._json(
                {"error": f"seconds must be in (0, {_MAX_PROFILE_S:g}]"}
            )
        loop = asyncio.get_running_loop()
        try:
            text = await loop.run_in_executor(
                None, self.profiler.collapsed, seconds
            )
        except ProfilerBusyError as exc:
            return 409, "application/json", self._json({"error": str(exc)})
        return 200, "text/plain; charset=utf-8", text.encode()
