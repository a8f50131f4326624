"""Load over at most ``nproc`` TCP connections from one event loop.

Latency rungs are open loop: a seeded Poisson schedule, each request timed
from its due time.  An open loop sends on schedule whatever the server
does, so a stall delays every request due during it and shows in their
latencies; a closed loop would quietly send less.  How late the generator
itself ran (``lag``) is kept per request, and a rung where the generator
fell behind is invalid: its numbers describe the generator, not the server.

The capacity rung is the one closed loop: it keeps a fixed number of
requests in flight, so the server always has work queued but never more
than that, and counts what it completes per second.
"""

from __future__ import annotations

import asyncio
import gc
import json
import math
import re
import time
from dataclasses import dataclass, field
from typing import Awaitable, Callable, Dict, List, Optional

import numpy as np

#: Responses that answer a request but report a failure.
FAILURE_TYPES = ("error", "overloaded", "unavailable")


def poisson_schedule(rate: float, seconds: float, rng: np.random.Generator) -> np.ndarray:
    """Due offsets (seconds from the rung start) of a Poisson arrival process."""
    expected = rate * seconds
    gaps = rng.exponential(1.0 / rate, size=int(expected + 6 * math.sqrt(expected) + 16))
    due = np.cumsum(gaps)
    while due[-1] < seconds:  # astronomically rare; keep the process exact
        more = np.cumsum(rng.exponential(1.0 / rate, size=gaps.size)) + due[-1]
        due = np.concatenate([due, more])
    return due[due < seconds]


def percentile(values: np.ndarray, q: float) -> float:
    return float(np.percentile(values, q)) if values.size else float("nan")


def goodput(sent: np.ndarray, recv: np.ndarray, ok: np.ndarray) -> float:
    """Successful responses per second received while the rung was sending,
    after its first quarter (which the server spends filling its queues)."""
    t0, t1 = np.nanmin(sent), np.nanmax(sent)
    t0 += 0.25 * (t1 - t0)
    if t1 <= t0:
        return float("nan")
    return float(np.count_nonzero(ok & (recv >= t0) & (recv <= t1)) / (t1 - t0))


@dataclass
class RungResult:
    """What one open-loop rung measured."""

    name: str
    rate: float
    attempted: int
    failed: int  # failure responses plus missing responses
    p50_ms: float  # latency from due time, over answered requests
    p99_ms: float
    lag_p99_ms: float
    lag_max_ms: float
    valid: bool  # the generator kept up: lag p99 within the workload's limit
    send_p50_ms: float = float("nan")  # latency from actual send time
    counts: Dict[str, int] = field(default_factory=dict)


@dataclass
class CapacityResult:
    """What the capacity rung measured."""

    name: str
    outstanding: int
    attempted: int
    failed: int  # failure responses plus missing responses
    goodput_rps: float  # see :func:`goodput`
    counts: Dict[str, int] = field(default_factory=dict)


def summarize(name: str, rate: float, due: np.ndarray, sent: np.ndarray,
              recv: np.ndarray, failed: np.ndarray, max_lag_ms: float,
              counts: Optional[Dict[str, int]] = None) -> RungResult:
    """Fold per-request timestamps into a :class:`RungResult`.

    ``recv`` is NaN for a request never answered; ``failed`` marks requests
    answered with a failure type.  Both count as failures.
    """
    answered = ~np.isnan(recv) & ~failed
    lat = (recv[answered] - due[answered]) * 1e3
    lag = (sent - due) * 1e3
    lag = lag[~np.isnan(lag)]
    lag_p99 = percentile(lag, 99)
    return RungResult(
        name=name, rate=rate, attempted=int(due.size),
        failed=int(due.size - answered.sum()),
        p50_ms=percentile(lat, 50), p99_ms=percentile(lat, 99),
        lag_p99_ms=lag_p99, lag_max_ms=float(lag.max()) if lag.size else float("nan"),
        valid=bool(lag.size == due.size and lag_p99 <= max_lag_ms),
        send_p50_ms=percentile((recv[answered] - sent[answered]) * 1e3, 50),
        counts=dict(counts or {}),
    )


async def send_on_schedule(
    due: np.ndarray,
    send: Callable[[int, int], None],
    clock: Callable[[], float],
    sleep: Callable[[float], Awaitable[None]],
) -> np.ndarray:
    """Send requests ``[i, j)`` as soon as they fall due; returns send times.

    ``due`` holds absolute clock times.  Every wake-up sends all requests
    already due in one batch, so a late wake-up makes requests late (their
    lag) but never drops or reorders them.
    """
    sent = np.full(due.size, np.nan)
    i = 0
    while i < due.size:
        now = clock()
        if due[i] > now:
            await sleep(due[i] - now)
            now = clock()
        j = int(np.searchsorted(due, now, side="right"))
        j = max(j, i + 1)
        send(i, j)
        sent[i:j] = clock()
        i = j
    return sent


class Connection:
    """One TCP connection: a writer plus a reader task that stamps each
    response line with its arrival time."""

    def __init__(self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter,
                 on_line: Callable[[bytes, float], None]) -> None:
        self.reader = reader
        self.writer = writer
        self.on_line = on_line
        self.task = asyncio.get_running_loop().create_task(self._read())

    async def _read(self) -> None:
        tail = b""
        while True:
            chunk = await self.reader.read(1 << 20)
            if not chunk:
                return
            now = time.perf_counter()
            lines = (tail + chunk).split(b"\n")
            tail = lines.pop()
            for line in lines:
                if line:
                    self.on_line(line, now)

    async def close(self) -> None:
        self.writer.close()
        try:
            await self.writer.wait_closed()
        except OSError:
            pass
        self.task.cancel()
        try:
            await self.task
        except (asyncio.CancelledError, OSError):
            pass


_HEAD = re.compile(rb'"type": ?"(\w+)".*?"id": ?(\d+)')
_COUNT = re.compile(rb'"count": ?(\d+)')


def tally(line: bytes) -> tuple:
    """``(id, type, items answered, items rejected)`` of one response line.

    Lines are read from their header bytes (the generator must keep up
    with tens of thousands a second); only block answers that carry
    per-item errors are fully parsed.  A rejection (budget exhausted) is a
    correct answer; it is kept apart only so the totals can be checked
    against the server's counters.
    """
    head = _HEAD.match(line, 1)
    if head is None:
        raise ValueError("no type and id")
    kind = head.group(1).decode()
    rid = int(head.group(2))
    if kind == "answer":
        answered = b'"value"' in line
        return rid, kind, int(answered), int(not answered)
    if kind == "answers":
        if b'"errors"' not in line:
            return rid, kind, int(_COUNT.search(line).group(1)), 0
        msg = json.loads(line)
        rejected = len(msg["errors"])
        return rid, kind, int(msg["count"]) - rejected, rejected
    return rid, kind, 0, 0


class LoadClient:
    """Requests by id over a few connections; every response is matched to
    exactly one request, and anything unmatched is a protocol failure."""

    def __init__(self) -> None:
        self.conns: List[Connection] = []
        self.recv: Dict[int, float] = {}
        # id -> (type, items answered, items rejected); bulk payloads are
        # dropped as soon as they are counted.
        self.responses: Dict[int, tuple] = {}
        self.protocol_errors: List[str] = []
        self._waiters: Dict[int, asyncio.Future] = {}
        # Called with each response's id once it is recorded.
        self.on_response: Optional[Callable[[int], None]] = None
        self.next_id = 0
        self.window = range(0)  # the ids of the rung being driven
        self.window_recv = 0

    async def connect(self, host: str, port: int, count: int) -> None:
        for _ in range(count):
            reader, writer = await asyncio.open_connection(host, port, limit=1 << 24)
            self.conns.append(Connection(reader, writer, self._on_line))

    def _on_line(self, line: bytes, now: float) -> None:
        try:
            rid, *counts = tally(line)
            waiter = self._waiters.pop(rid, None)
            if waiter is not None:
                waiter.set_result(json.loads(line))
        except (ValueError, KeyError, TypeError):
            self.protocol_errors.append(f"untyped or unmatched response {line[:120]!r}")
            return
        if rid in self.recv:
            self.protocol_errors.append(f"second response for request {rid}")
            return
        self.recv[rid] = now
        self.responses[rid] = tuple(counts)
        if rid in self.window:
            self.window_recv += 1
        if self.on_response is not None:
            self.on_response(rid)

    def ids(self, count: int) -> range:
        out = range(self.next_id, self.next_id + count)
        self.next_id += count
        return out

    def write(self, conn: int, payload: bytes) -> None:
        self.conns[conn].writer.write(payload)

    async def call(self, payload: dict, conn: int = 0, timeout: float = 30.0) -> dict:
        """One request/response round trip (set-up and read-out ops)."""
        rid = self.ids(1)[0]
        fut = asyncio.get_running_loop().create_future()
        self._waiters[rid] = fut
        self.write(conn, json.dumps({**payload, "id": rid}).encode() + b"\n")
        return await asyncio.wait_for(fut, timeout)

    def open_window(self, count: int) -> range:
        """Ids for the next rung; responses to them are counted as they come."""
        self.window = self.ids(count)
        self.window_recv = 0
        return self.window

    async def drain_window(self, deadline: float) -> None:
        while self.window_recv < len(self.window) and time.perf_counter() < deadline:
            await asyncio.sleep(0.005)

    async def close(self) -> None:
        for conn in self.conns:
            await conn.close()


async def run_rung(client: LoadClient, name: str, rate: float, seconds: float,
                   lines: Callable[[int, int], List[tuple]], rng: np.random.Generator,
                   max_lag_ms: float, drain_timeout: float) -> RungResult:
    """Drive one rung.

    ``lines(first_id, count)`` returns ``(connection, payload_bytes)`` for
    ``count`` consecutive requests whose ids start at ``first_id``.
    """
    offsets = poisson_schedule(rate, seconds, rng)
    ids = client.open_window(offsets.size)
    payload = lines(ids[0], offsets.size)
    # The generator's own collector pauses would read as server latency;
    # the one full collection runs before the schedule starts.
    gc.collect()
    gc.disable()
    start = time.perf_counter() + 0.05
    due = start + offsets
    try:
        sent = await send_on_schedule(due, lambda i, j: _send(client, payload[i:j]),
                                      time.perf_counter, asyncio.sleep)
        await client.drain_window(time.perf_counter() + drain_timeout)
    finally:
        gc.enable()
    recv, failed, kinds = _responses(client, ids)
    return summarize(name, rate, due, sent, recv, failed, max_lag_ms, kinds)


def _responses(client: LoadClient, ids: range) -> tuple:
    """Arrival times (NaN if none), failure flags and response-type counts."""
    recv = np.array([client.recv.get(i, np.nan) for i in ids])
    kinds: Dict[str, int] = {}
    failed = np.zeros(len(ids), dtype=bool)
    for k, rid in enumerate(ids):
        got = client.responses.get(rid)
        if got is None:
            continue
        kinds[got[0]] = kinds.get(got[0], 0) + 1
        failed[k] = got[0] in FAILURE_TYPES
    return recv, failed, kinds


def _send(client: LoadClient, payload: List[tuple]) -> None:
    batches: Dict[int, List[bytes]] = {}
    for conn, data in payload:
        batches.setdefault(conn, []).append(data)
    for conn, parts in batches.items():
        client.write(conn, b"".join(parts))


async def run_capacity(client: LoadClient, name: str, outstanding: int, seconds: float,
                       lines: Callable[[int, int], List[tuple]],
                       drain_timeout: float) -> CapacityResult:
    """Keep *outstanding* requests in flight for *seconds*: each response
    releases the next request.  The capacity is :func:`goodput` over the
    requests sent."""
    first = client.next_id
    client.window = range(first, first + (1 << 62))  # closed when sending stops
    client.window_recv = 0
    sent: List[float] = []
    gc.collect()
    gc.disable()
    stop_at = time.perf_counter() + seconds

    def release(count: int) -> None:
        ids = client.ids(count)
        _send(client, lines(ids[0], count))
        sent.extend([time.perf_counter()] * count)

    def on_response(rid: int) -> None:
        if rid >= first and time.perf_counter() < stop_at:
            release(1)

    client.on_response = on_response
    try:
        release(outstanding)
        await asyncio.sleep(max(0.0, stop_at - time.perf_counter()))
        client.on_response = None
        client.window = range(first, client.next_id)
        await client.drain_window(time.perf_counter() + drain_timeout)
    finally:
        client.on_response = None
        gc.enable()
    ids = client.window
    recv, failed, kinds = _responses(client, ids)
    ok = ~np.isnan(recv) & ~failed
    return CapacityResult(
        name=name, outstanding=outstanding, attempted=len(ids),
        failed=int(len(ids) - ok.sum()),
        goodput_rps=goodput(np.array(sent), recv, ok), counts=kinds,
    )
