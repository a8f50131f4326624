"""The serve phase: boot the real ``repro serve --tcp`` and drive its rungs.

The server runs as a subprocess with CLI defaults apart from the flags each
workload names; everything about it is measured from outside: latencies at
the client, CPU and peak memory from ``/proc``, per-stage times from the
server's own ``trace`` and ``metrics`` ops.
"""

from __future__ import annotations

import asyncio
import base64
import os
import re
import shutil
import signal
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional

import numpy as np

from loadgen import LoadClient, RungResult, run_capacity, run_rung

_CLK_TCK = os.sysconf("SC_CLK_TCK")

#: TCP connections the generator opens: one per usable CPU.
CONNECTIONS = len(os.sched_getaffinity(0))

#: Share of the traced run's serve time spent on the capacity rung; the
#: rest goes to the named rungs.
CAPACITY_SHARE = 0.25

#: Server boots per untraced run (each up to all tenants opened), so that
#: the serve part of ``setup_s`` is a median; the last one is measured.
SETUP_BOOTS = 3


@dataclass(frozen=True)
class ServeConfig:
    """One serve workload.  ``low``/``high`` are the named rungs; the
    capacity rung keeps ``outstanding`` requests in flight."""

    shards: int
    durable: bool
    block: int  # items per arrival; 0 sends single-item ``query`` lines
    repeat_prob: float
    reopen_every: int  # every n-th arrival re-opens its tenant (0: never)
    low: float
    high: float
    outstanding: int
    max_lag_ms: float  # a named rung whose generator ran later (p99) is invalid
    tenants: int = 256


# ---------------------------------------------------------------------------
# The server process and its process tree.
# ---------------------------------------------------------------------------

def _children() -> Dict[int, List[int]]:
    kids: Dict[int, List[int]] = {}
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat", "rb") as fh:
                stat = fh.read()
        except OSError:
            continue
        ppid = int(stat[stat.rindex(b")") + 2:].split()[1])
        kids.setdefault(ppid, []).append(int(entry))
    return kids


def process_tree(pid: int) -> List[int]:
    kids = _children()
    tree, todo = [], [pid]
    while todo:
        p = todo.pop()
        tree.append(p)
        todo.extend(kids.get(p, ()))
    return tree


def tree_cpu_s(pids: List[int]) -> float:
    total = 0
    for pid in pids:
        try:
            with open(f"/proc/{pid}/stat", "rb") as fh:
                fields = fh.read().rsplit(b")", 1)[1].split()
        except OSError:
            continue
        total += int(fields[11]) + int(fields[12])  # utime + stime
    return total / _CLK_TCK


def tree_hwm_mb(pids: List[int]) -> float:
    total = 0.0
    for pid in pids:
        try:
            with open(f"/proc/{pid}/status") as fh:
                for line in fh:
                    if line.startswith("VmHWM:"):
                        total += int(line.split()[1]) / 1024.0
        except OSError:
            continue
    return total


class ServerProcess:
    """``python -m repro.cli serve ... --tcp --port 0`` and its stderr."""

    def __init__(self, args: List[str], root: Path, timeout: float = 120.0) -> None:
        self.t_start = time.perf_counter()
        env = {**os.environ, "PYTHONPATH": str(root / "src")}
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "serve", *args],
            cwd=root, env=env, stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE, text=True,
        )
        self.lines: List[str] = []
        self._listening = threading.Event()
        self._reader = threading.Thread(target=self._read_stderr, daemon=True)
        self._reader.start()
        self.tree: List[int] = [self.proc.pid]
        if not self._listening.wait(timeout) or self.proc.poll() is not None:
            self.kill()
            raise RuntimeError("server did not start: " + "".join(self.lines[-20:]))
        self.boot_s = time.perf_counter() - self.t_start
        match = re.search(r"listening on ([\d.]+):(\d+)", "".join(self.lines))
        self.address = (match.group(1), int(match.group(2)))
        self.tree = process_tree(self.proc.pid)

    def _read_stderr(self) -> None:
        for line in self.proc.stderr:
            self.lines.append(line)
            if "listening on" in line:
                self._listening.set()
        self._listening.set()

    def cpu_s(self) -> float:
        return tree_cpu_s(self.tree)

    def hwm_mb(self) -> float:
        return tree_hwm_mb(self.tree)

    def stop(self, timeout: float = 60.0) -> str:
        """Graceful SIGTERM shutdown; returns the whole stderr."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
        try:
            self.proc.wait(timeout)
        except subprocess.TimeoutExpired:
            self.kill()
        self._reap_tree()
        self._reader.join(timeout=10.0)
        return "".join(self.lines)

    def kill(self) -> None:
        for pid in reversed(self.tree):
            try:
                os.kill(pid, signal.SIGKILL)
            except OSError:
                pass
        self.proc.wait()
        self._reap_tree()

    def _reap_tree(self) -> None:
        """Wait until every process of the tree is gone (killing stragglers)."""
        deadline = time.perf_counter() + 10.0
        for pid in self.tree[1:]:
            while _alive(pid):
                if time.perf_counter() > deadline:
                    try:
                        os.kill(pid, signal.SIGKILL)
                    except OSError:
                        pass
                time.sleep(0.02)


def _alive(pid: int) -> bool:
    try:
        with open(f"/proc/{pid}/stat", "rb") as fh:
            return fh.read().rsplit(b")", 1)[1].split()[0] != b"Z"
    except OSError:
        return False


# ---------------------------------------------------------------------------
# Inputs: everything the server sees is generated from the workload seed.
# ---------------------------------------------------------------------------

class Inputs:
    """Tenants, score file and request lines for one serve workload."""

    #: Distinct arrivals generated; longer runs cycle through them.
    POOL = 1 << 18

    def __init__(self, cfg: ServeConfig, seed: int, rundir: Path) -> None:
        from repro.service import WorkloadSpec, generate_workload

        requests = 1024 * cfg.block if cfg.block else self.POOL
        spec = WorkloadSpec(tenants=cfg.tenants, requests=requests,
                            threshold_factor=0.8, repeat_prob=cfg.repeat_prob)
        wl = generate_workload(spec, rng=seed)
        self.cfg = cfg
        self.threshold = wl.error_threshold
        self.scores = rundir / "scores.txt"
        self.scores.write_text("\n".join(repr(float(x)) for x in wl.supports) + "\n")
        self.names = [wl.tenant_name(t) for t in range(cfg.tenants)]
        if cfg.block:
            self.tenants, self.bodies = _blocks(wl.tenants, wl.items, cfg.block, self.names)
        else:
            self.tenants = wl.tenants
            self.bodies = [
                f'{{"op":"query","tenant":"{self.names[t]}","item":{int(i)},"id":'.encode()
                for t, i in zip(wl.tenants, wl.items)
            ]
        self.cursor = 0
        self.arrival = 0

    def open_line(self, tenant: int) -> bytes:
        return f'{{"op":"open","tenant":"{self.names[tenant]}","id":'.encode()

    def lines(self, first_id: int, count: int) -> List[tuple]:
        """The next ``count`` arrivals as ``(connection, line)``."""
        out = []
        for k in range(count):
            pos = self.cursor % len(self.bodies)
            self.cursor += 1
            self.arrival += 1
            tenant = int(self.tenants[pos])
            every = self.cfg.reopen_every
            body = self.open_line(tenant) if every and self.arrival % every == 0 else self.bodies[pos]
            out.append((tenant % CONNECTIONS, body + str(first_id + k).encode() + b"}\n"))
        return out


def _blocks(tenants: np.ndarray, items: np.ndarray, size: int, names: List[str]):
    """Chop each tenant's request stream into ``size``-item blocks, ordered
    by where each block starts in the trace."""
    order = np.argsort(tenants, kind="stable")
    starts, owners, bodies = [], [], []
    sorted_t = tenants[order]
    bounds = np.flatnonzero(np.diff(sorted_t)) + 1
    for lo, hi in zip([0, *bounds.tolist()], [*bounds.tolist(), sorted_t.size]):
        for a in range(lo, hi - size + 1, size):
            idx = order[a:a + size]
            owners.append(int(sorted_t[a]))
            starts.append(int(idx[0]))
            b64 = base64.b64encode(items[idx].astype("<i8").tobytes()).decode()
            bodies.append(
                f'{{"op":"query_block","tenant":"{names[owners[-1]]}",'
                f'"items_b64":"{b64}","bin":true,"id":'.encode()
            )
    rank = np.argsort(starts, kind="stable")
    return np.array(owners)[rank], [bodies[i] for i in rank]


# ---------------------------------------------------------------------------
# The phase.
# ---------------------------------------------------------------------------

def _hist(snap: dict, name: str) -> dict:
    return snap.get("histograms", {}).get(name, {})


def _gauge(snap: dict, name: str, reduce=sum) -> float:
    gauges = snap.get("gauges", {})
    if name in gauges:
        return float(gauges[name])
    labeled = [float(v) for k, v in gauges.items() if k.startswith(name + "{")]
    return float(reduce(labeled)) if labeled else 0.0


class ServePhase:
    """Boots servers, drives rungs, and collects what the run reports."""

    def __init__(self, cfg: ServeConfig, seed: int, root: Path, rundir: Path,
                 seconds: float) -> None:
        self.cfg = cfg
        self.seed = seed
        self.root = root
        self.rundir = rundir
        self.seconds = seconds
        self.inputs = Inputs(cfg, seed, rundir)
        self.failures: List[str] = []
        self.rung_index = 0

    def _args(self, state_dir: Optional[Path], trace: bool) -> List[str]:
        args = [str(self.inputs.scores), "--threshold", repr(self.inputs.threshold),
                "--tcp", "--port", "0", "--seed", str(self.seed)]
        if self.cfg.shards > 1:
            args += ["--shards", str(self.cfg.shards)]
        if state_dir is not None:
            args += ["--state-dir", str(state_dir)]
        if trace:
            args.append("--trace")
        return args

    async def _boot(self, trace: bool, state_dir: Optional[Path]):
        server = await asyncio.to_thread(ServerProcess, self._args(state_dir, trace), self.root)
        client = LoadClient()
        try:
            await client.connect(*server.address, CONNECTIONS)
            opens = client.open_window(self.cfg.tenants)
            for t, rid in zip(range(self.cfg.tenants), opens):
                client.write(t % CONNECTIONS,
                             self.inputs.open_line(t) + str(rid).encode() + b"}\n")
            await client.drain_window(time.perf_counter() + 60.0)
            opened = sum(1 for rid in opens
                         if client.responses.get(rid, ("",))[0] == "opened")
            if opened != self.cfg.tenants:
                raise RuntimeError(f"only {opened}/{self.cfg.tenants} tenants opened")
        except BaseException:
            await client.close()
            await asyncio.to_thread(server.stop)
            raise
        setup_s = time.perf_counter() - server.t_start
        return server, client, setup_s

    async def _rung(self, client: LoadClient, name: str, rate: float,
                    seconds: float) -> RungResult:
        rng = np.random.default_rng([self.seed, self.rung_index])
        self.rung_index += 1
        result = await run_rung(
            client, name, rate, seconds, self.inputs.lines, rng, self.cfg.max_lag_ms,
            drain_timeout=max(10.0, 2 * seconds),
        )
        await asyncio.sleep(0.2)  # let the last drain settle before the next rung
        return result

    async def _check_counts(self, client: LoadClient) -> dict:
        """Every request got one typed response, and the client's answer
        tally equals the server's ``answered_total + rejected_total``."""
        snap = await client.call({"op": "metrics"})
        if client.protocol_errors:
            self.failures += client.protocol_errors[:5]
        answered = sum(r[1] for r in client.responses.values())
        rejected = sum(r[2] for r in client.responses.values())
        counters = snap["counters"]
        served = int(counters.get("answered_total", 0) + counters.get("rejected_total", 0))
        if answered + rejected != served:
            self.failures.append(
                f"client saw {answered}+{rejected} answers, server counted {served}")
        return snap

    def _state_dir(self, label: str) -> Optional[Path]:
        if not self.cfg.durable:
            return None
        path = self.rundir / f"state-{label}"
        shutil.rmtree(path, ignore_errors=True)
        return path

    def _check_recovery(self, state_dir: Path) -> float:
        """Reboot on the run's state dir: every shard must print an ok
        recovery summary.  Returns the reboot time in ms."""
        server = ServerProcess(self._args(state_dir, False), self.root)
        reboot_ms = server.boot_s * 1e3
        log = server.stop()
        shards = self.cfg.shards
        for k in range(shards):
            if not re.search(rf"shard {k}: pid \d+; recovered \d+ sessions .* in [\d.]+ ms", log):
                self.failures.append(f"shard {k} printed no ok recovery summary")
        return reboot_ms

    async def _pass(self, trace: bool, seconds: float, state_dir: Optional[Path],
                    capacity: bool = False) -> dict:
        """Boot, warm up, run ``low`` and ``high`` (server CPU timed over
        ``high``), then, if asked, the capacity rung."""
        cfg = self.cfg
        server, client, setup_s = await self._boot(trace, state_dir)
        try:
            await self._warm_up(client)
            low = await self._rung(client, "low", cfg.low, seconds)
            cpu0 = server.cpu_s()
            high = await self._rung(client, "high", cfg.high, seconds)
            cpu_ms_per_kreq = (server.cpu_s() - cpu0) * 1e3 / (high.attempted / 1e3)
            rungs = [low, high]
            if capacity:
                rungs.append(await run_capacity(
                    client, "capacity", cfg.outstanding, CAPACITY_SHARE * self.seconds,
                    self.inputs.lines, drain_timeout=30.0))
            out = {"setup_s": setup_s, "rungs": rungs, "cpu_ms_per_kreq": cpu_ms_per_kreq,
                   "snapshot": await self._check_counts(client), "peak_rss_mb": server.hwm_mb()}
            if trace:
                report = await client.call({"op": "trace", "slow": 0})
                if report.get("type") != "trace":
                    raise RuntimeError(f"trace op failed: {report}")
                out["trace"] = report
        finally:
            await client.close()
            log = await asyncio.to_thread(server.stop)
        out["log"] = log
        return out

    async def _warm_up(self, client: LoadClient) -> None:
        """An unreported burst at the high rate, so the first measured rung
        does not pay first-drain allocations and the drain window's climb."""
        await self._rung(client, "warm-up", self.cfg.high, 1.5)

    async def _setup_only(self) -> float:
        """One more boot, up to all tenants opened, then a shutdown."""
        server, client, setup_s = await self._boot(False, self._state_dir("setup"))
        await client.close()
        await asyncio.to_thread(server.stop)
        return setup_s

    async def measure(self) -> dict:
        """The untraced run: set-up boots, then ``low`` and ``high`` on the
        last one."""
        setups = [await self._setup_only() for _ in range(SETUP_BOOTS - 1)]
        state_dir = self._state_dir("main")
        run = await self._pass(False, self.seconds / 2, state_dir)
        run["setup_samples"] = setups + [run["setup_s"]]
        run["recovery_ms"] = self._check_recovery(state_dir) if state_dir else 0.0
        return run

    async def measure_traced(self) -> dict:
        """The traced run: ``low``, ``high`` and the capacity rung on an
        untraced server (the latencies and capacity), then ``low`` and
        ``high`` on a ``--trace`` server (the stages); the ratio of their
        server CPU prices the tracing."""
        seconds = (1 - CAPACITY_SHARE) * self.seconds / 4
        plain = await self._pass(False, seconds, self._state_dir("plain"), capacity=True)
        state_dir = self._state_dir("traced")
        traced = await self._pass(True, seconds, state_dir)
        traced["recovery_ms"] = self._check_recovery(state_dir) if state_dir else 0.0
        traced["plain"] = plain
        traced["overhead"] = traced["cpu_ms_per_kreq"] / plain["cpu_ms_per_kreq"]
        return traced


def layer_metrics(cfg: ServeConfig, traced: dict) -> Dict[str, float]:
    """The serve per-layer metrics from one :meth:`ServePhase.measure_traced`."""
    report, snap = traced["trace"], traced["snapshot"]
    stages = report.get("stages", {})
    counters = snap.get("counters", {})

    def stage(name: str, q: str = "p50") -> float:
        return float(stages.get(name, {}).get(q, 0.0))

    answered = float(counters.get("answered_total", 0))
    served = re.search(r"served \d+ requests across (\d+) sessions.*?\((\d+) audit records",
                       traced["log"])
    kernel = float(report.get("gate_kernel", {}).get("p50", 0.0))
    low, high = traced["rungs"]
    plain_low, plain_high, capacity = traced["plain"]["rungs"]
    rungs = [low, high]
    attempted = sum(r.attempted for r in rungs)
    counts = {k: sum(r.counts.get(k, 0) for r in rungs)
              for k in ("error", "overloaded", "unavailable")}
    missing = sum(r.attempted - sum(r.counts.values()) for r in rungs)
    span_p50 = float(report.get("total", {}).get("p50", 0.0))
    return {
        "latency_p50_ms.low": plain_low.p50_ms,
        "latency_p99_ms.low": plain_low.p99_ms,
        "latency_p50_ms.high": plain_high.p50_ms,
        "latency_p99_ms.high": plain_high.p99_ms,
        "max_rate_rps": capacity.goodput_rps,
        "ingress_wait.p50_ms": stage("ingress_wait"),
        "ingress_wait.p99_ms": stage("ingress_wait", "p99"),
        "respond_encode.p50_ms": stage("respond_encode"),
        "send.p50_ms": stage("send"),
        "cohort_form.p50_ms": stage("cohort_form"),
        "gate_exec.p50_ms": stage("gate_exec"),
        "gate_kernel.p50_ms": kernel,
        "gate_bookkeeping.p50_ms": stage("gate_exec") - kernel,
        "store_flush.p50_ms": stage("store_flush"),
        "store_flush.p99_ms": stage("store_flush", "p99"),
        "fsync.p99_ms": float(_hist(snap, "fsync_latency_ms").get("p99", 0.0)),
        "store.flushes": _gauge(snap, "store_flushes"),
        "store.recovery_ms": traced["recovery_ms"],
        "router.hop_p50_ms": (high.send_p50_ms - span_p50) if cfg.shards > 1 else 0.0,
        "drains": float(counters.get("drains_total", 0)),
        "rows_per_drain": float(_hist(snap, "batch_occupancy_rows").get("mean", 0.0)),
        "drain.p99_ms": float(_hist(snap, "drain_latency_ms").get("p99", 0.0)),
        "drain_window": _gauge(snap, "drain_window", reduce=lambda v: sum(v) / len(v)),
        "history_rate": 1.0 - float(counters.get("db_accesses_total", 0)) / answered
        if answered else 0.0,
        "rejected_exhausted": float(counters.get("rejected_total", 0)),
        "sessions_opened": float(served.group(1)) if served else 0.0,
        "audit_records": float(served.group(2)) if served else 0.0,
        "shed": float(counts["overloaded"]),
        "unavailable": float(counts["unavailable"]),
        "errors": float(counts["error"]),
        "error_rate": (sum(counts.values()) + missing) / attempted,
        "server.cpu_ms_per_kreq": traced["cpu_ms_per_kreq"],
        "gen.lag_p99_ms": high.lag_p99_ms,
        "gen.lag_max_ms": high.lag_max_ms,
        "trace.overhead": traced["overhead"],
    }
