"""Command-line interface.

Installed as ``repro`` (see pyproject) and runnable as ``python -m repro.cli``.

Subcommands
-----------
``generate``
    Synthesize one of the evaluation datasets; write item supports (one per
    line) or a FIMI ``.dat`` transaction file.
``select``
    Privately select the top-c of a score file with EM / SVT / SVT-ReTr and
    report SER/FNR against the true top-c.
``mine``
    Private frequent-itemset mining over a ``.dat`` transaction file.
``audit``
    Audit a Figure-1 variant's eps-DP claim on an adversarial neighboring
    pair (exact, via the Eq.-(5) verifier).
``experiment``
    Run the Section-6 reproduction (delegates to ``repro.experiments``).
``serve``
    Run the multi-tenant SVT query service over a score file.  Default:
    requests stream in on stdin — JSONL ops or legacy ``tenant item`` lines
    — and typed JSON responses stream out; ``--tcp`` starts the concurrent
    asyncio listener (bounded-queue admission control, typed ``overloaded``
    shedding, adaptive drain windows).  Pending queries are answered in
    cross-session batched drains either way.
``metrics``
    Fetch the live counters/histograms snapshot from a running ``serve
    --tcp`` server; ``--format prom`` renders it as Prometheus text
    exposition, ``--format json`` as raw JSON.
``trace-report``
    Fetch the per-stage latency breakdown (and slow-request exemplars)
    from a traced server's admin plane and render it as a table.
``load-test``
    Closed-loop throughput benchmark of the service: a Zipf multi-tenant
    workload served both batched and query-at-a-time, with requests/sec,
    batch occupancy, and latency percentiles (optionally written to JSON).
    ``--workload canary`` mixes the auditor's planted threshold-straddling
    pair into the trace.
``audit-live``
    Empirical privacy audit of a live server: run the canary guessing game
    end to end (boot a stdio subprocess, or ``--connect`` to a TCP server),
    invert the guess record into an epsilon lower bound, and compare it to
    the charged budget.  ``--expect healthy|broken`` turns the verdict into
    an exit code (the CI gate); ``--out`` writes ``AUDIT_report.json``.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path
from typing import List, Optional

import numpy as np

from repro.applications.itemset_mining import private_top_c_itemsets
from repro.core.selection import SELECTION_METHODS, select_top_c
from repro.data.generators import DATASET_GENERATORS, generate_dataset
from repro.data.loaders import load_transactions, save_transactions
from repro.data.transaction_db import TransactionDatabase
from repro.exceptions import ReproError
from repro.metrics.privacy import privacy_report
from repro.metrics.utility import selection_report
from repro.rng import derive_rng

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Sparse Vector Technique reproduction toolkit (Lyu, Su, Li; VLDB 2017)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="synthesize an evaluation dataset")
    gen.add_argument("dataset", choices=sorted(DATASET_GENERATORS))
    gen.add_argument("--scale", type=float, default=1.0, help="size factor in (0, 1]")
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--out", type=Path, required=True, help="output file")
    gen.add_argument(
        "--format",
        choices=("supports", "dat"),
        default="supports",
        help="supports: one integer per line; dat: FIMI transactions",
    )
    gen.add_argument(
        "--records",
        type=int,
        default=None,
        help="transaction count for --format dat (default: scaled Table-1 count, capped at 50k)",
    )

    sel = sub.add_parser("select", help="private top-c selection over a score file")
    sel.add_argument("scores", type=Path, help="file with one numeric score per line")
    sel.add_argument("--epsilon", type=float, required=True)
    sel.add_argument("-c", "--top", type=int, required=True, dest="c")
    sel.add_argument("--method", choices=SELECTION_METHODS, default="em")
    sel.add_argument("--threshold", type=float, default=None)
    sel.add_argument("--bump-d", type=float, default=0.0)
    sel.add_argument("--monotonic", action="store_true")
    sel.add_argument("--seed", type=int, default=None)

    mine = sub.add_parser("mine", help="private frequent itemsets from a .dat file")
    mine.add_argument("database", type=Path)
    mine.add_argument("--epsilon", type=float, required=True)
    mine.add_argument("-c", "--top", type=int, required=True, dest="c")
    mine.add_argument("--method", choices=("em", "svt", "svt-retraversal"), default="em")
    mine.add_argument("--threshold", type=float, default=None)
    mine.add_argument("--max-size", type=int, default=2)
    mine.add_argument("--counts", action="store_true", help="also release noisy supports")
    mine.add_argument("--seed", type=int, default=None)

    audit = sub.add_parser("audit", help="audit a variant's eps-DP claim")
    audit.add_argument(
        "variant", choices=("alg1", "alg2", "alg4", "alg5", "alg6"),
        help="alg3 has continuous outputs; see examples/privacy_violation_demo.py",
    )
    audit.add_argument("--epsilon", type=float, default=1.0)
    audit.add_argument("-c", "--cutoff", type=int, default=2, dest="c")
    audit.add_argument("--mc-trials", type=int, default=0)

    exp = sub.add_parser("experiment", help="run the Section-6 reproduction")
    exp.add_argument("--tiny", action="store_true")
    exp.add_argument("--no-charts", action="store_true")

    serve = sub.add_parser(
        "serve",
        help="serve tenant queries over stdin JSONL or a concurrent TCP listener",
    )
    serve.add_argument("scores", type=Path, help="file with one numeric score per line")
    serve.add_argument("--epsilon", type=float, default=1.0, help="per-session budget")
    serve.add_argument("--threshold", type=float, required=True, help="error threshold T")
    serve.add_argument("-c", "--top", type=int, default=3, dest="c",
                       help="database accesses per session")
    serve.add_argument("--svt-fraction", type=float, default=0.5)
    serve.add_argument("--mode", choices=("shared", "per-session"), default="shared")
    serve.add_argument("--batch", type=int, default=256, dest="batch",
                       help="drain window: drain after this many pending requests "
                            "(blank line or EOF also drains; the adaptive policy "
                            "resizes it in --tcp mode)")
    serve.add_argument("--seed", type=int, default=None)
    serve.add_argument("--audit-log", type=Path, default=None, dest="audit_log",
                       help="persist the audit trail to this JSONL file on exit "
                            "(replayable via AuditLog.replay / verify_audit)")
    serve.add_argument("--state-dir", type=Path, default=None, dest="state_dir",
                       help="durable state directory: spends/audit fsync before "
                            "responses, and boot recovers the previous state")
    serve.add_argument("--checkpoint-every", type=int, default=256,
                       dest="checkpoint_every",
                       help="WAL batches between snapshot checkpoints")
    serve.add_argument("--session-ttl", type=float, default=None, dest="session_ttl",
                       help="expire sessions after this many seconds, releasing "
                            "unspent budget (checked at every drain)")
    serve.add_argument("--tcp", action="store_true",
                       help="listen on --host/--port for concurrent JSONL clients "
                            "instead of reading stdin")
    serve.add_argument("--shards", type=int, default=1,
                       help="1 (default) serves from this process; N>1 "
                            "consistent-hashes tenants onto N worker processes "
                            "behind the same front end "
                            "(per-shard state under <state-dir>/shard-K)")
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=7707,
                       help="TCP port (0 picks an ephemeral one)")
    serve.add_argument("--max-queue", type=int, default=65536, dest="max_queue",
                       help="admission bound: requests beyond this many pending "
                            "are shed with a typed 'overloaded' response")
    serve.add_argument("--no-adaptive", action="store_true", dest="no_adaptive",
                       help="disable the drain-window feedback controller "
                            "(fixed --batch window)")
    serve.add_argument("--target-drain-ms", type=float, default=5.0,
                       dest="target_drain_ms",
                       help="drain-latency target steering the adaptive window")
    serve.add_argument("--trace", action="store_true",
                       help="per-request span tracing: stage latency histograms "
                            "+ slow-request exemplars (see 'repro trace-report')")
    serve.add_argument("--trace-slow-ms", type=float, default=50.0,
                       dest="trace_slow_ms",
                       help="requests slower than this land in the exemplar ring")
    serve.add_argument("--admin-port", type=int, default=None, dest="admin_port",
                       help="start the HTTP admin plane (/healthz /readyz /metrics "
                            "/sessions /audit /debug/*) on this port (0 = ephemeral)")
    serve.add_argument("--admin-host", default="127.0.0.1", dest="admin_host")
    serve.add_argument("--gate-fault", default=os.environ.get("REPRO_GATE_FAULT"),
                       dest="gate_fault", metavar="FAULT",
                       help="TEST ONLY: run the gate with a known privacy bug "
                            "('rho-reuse' reuses the threshold noise as the "
                            "per-query noise, i.e. a noiseless gate) so "
                            "'repro audit-live' can prove it catches one; "
                            "env REPRO_GATE_FAULT sets the default")

    met = sub.add_parser(
        "metrics", help="fetch a live metrics snapshot from a running TCP server"
    )
    met.add_argument("--host", default="127.0.0.1")
    met.add_argument("--port", type=int, default=7707)
    met.add_argument("--format", choices=("text", "prom", "json"), default="text",
                     dest="format",
                     help="text: human-readable summary (default); prom: Prometheus "
                          "text exposition, scrape-identical to the admin plane's "
                          "/metrics; json: the raw snapshot")
    met.add_argument("--raw", action="store_true",
                     help="deprecated alias for --format json")

    trace = sub.add_parser(
        "trace-report",
        help="latency breakdown from a traced server's admin plane",
    )
    trace.add_argument("--host", default="127.0.0.1")
    trace.add_argument("--port", type=int, required=True,
                       help="the admin-plane port (serve --admin-port)")
    trace.add_argument("--slow", type=int, default=5, dest="slow",
                       help="slow-request exemplars to show (0 = none)")
    trace.add_argument("--json", action="store_true", dest="as_json",
                       help="print the raw /debug/trace JSON")

    load = sub.add_parser("load-test", help="closed-loop service throughput benchmark")
    load.add_argument("--tenants", type=int, default=256)
    load.add_argument("--requests", type=int, default=20_000)
    load.add_argument("--dataset", choices=sorted(DATASET_GENERATORS), default="Zipf")
    load.add_argument("--scale", type=float, default=0.05)
    load.add_argument("--workload", choices=("zipf", "canary"), default="zipf",
                      help="zipf: the plain multi-tenant trace; canary: the same "
                           "trace with the auditor's planted threshold-straddling "
                           "pair mixed in (--canary-fraction of requests)")
    load.add_argument("--canary-fraction", type=float, default=0.1,
                      dest="canary_fraction",
                      help="fraction of requests rewritten onto the planted "
                           "canary pair under --workload canary")
    load.add_argument("--batch", type=int, default=8_192, help="submit window size")
    load.add_argument("--epsilon", type=float, default=1.0)
    load.add_argument("-c", "--top", type=int, default=3, dest="c")
    load.add_argument("--threshold-factor", type=float, default=0.8,
                      help="error threshold as a fraction of the head support")
    load.add_argument("--seed", type=int, default=0)
    load.add_argument("--skip-streaming", action="store_true",
                      help="measure only the batched path")
    load.add_argument("--record", type=Path, default=None,
                      help="write the measurements to this JSON file")

    live = sub.add_parser(
        "audit-live",
        help="empirical eps-attack against a live server (canary guessing game)",
        description="Runs the canary distinguisher against the real service — "
                    "a booted stdio subprocess by default, or an already-"
                    "running TCP server via --connect — and reports the "
                    "empirical epsilon lower bound against the charged budget.",
    )
    live.add_argument("--trials", type=int, default=200)
    live.add_argument("--confidence", type=float, default=0.95)
    live.add_argument("--epsilon", type=float, default=1.0,
                      help="canary session budget (the charged eps under test)")
    live.add_argument("--rule", choices=("fire-high", "release-value"),
                      default="fire-high", help="distinguisher guessing rule")
    live.add_argument("--seed", type=int, default=0)
    live.add_argument("--background", type=int, default=4,
                      help="background Zipf queries interleaved per trial "
                           "(0 = idle-box audit)")
    live.add_argument("--scores", type=Path, default=None,
                      help="planted score file (write_planted_scores format); "
                           "synthesized when omitted, required with --connect")
    live.add_argument("--emit-scores", type=Path, default=None, dest="emit_scores",
                      help="just synthesize and write a planted score file "
                           "(for booting 'repro serve' externally), then exit")
    live.add_argument("--connect", default=None, metavar="HOST:PORT",
                      help="attach to a running TCP server instead of booting "
                           "a stdio subprocess")
    live.add_argument("--shards", type=int, default=1,
                      help="boot mode: worker shards for the subprocess server")
    live.add_argument("--gate-fault", default=None, dest="gate_fault",
                      help="boot mode: run the subprocess server with this "
                           "known-broken gate (e.g. 'rho-reuse') — the audit "
                           "should then flag it")
    live.add_argument("--dataset", choices=sorted(DATASET_GENERATORS),
                      default="Zipf", help="dataset behind a synthesized plant")
    live.add_argument("--scale", type=float, default=0.02)
    live.add_argument("--threshold-factor", type=float, default=0.6,
                      dest="threshold_factor",
                      help="plant threshold as a fraction of the head support")
    live.add_argument("--expect", choices=("healthy", "broken"), default=None,
                      help="assert the verdict: healthy = bound stays under "
                           "the charged eps, broken = violation caught "
                           "(exit 1 on mismatch — the CI gate)")
    live.add_argument("--out", type=Path, default=None,
                      help="write the AUDIT_report.json artifact here")

    return parser


def _cmd_generate(args: argparse.Namespace) -> int:
    dataset = generate_dataset(args.dataset, rng=args.seed, scale=args.scale)
    if args.format == "supports":
        args.out.write_text("\n".join(str(int(s)) for s in dataset.supports) + "\n")
        print(
            f"wrote {dataset.num_items} item supports for {dataset.name} "
            f"(scale {args.scale}) to {args.out}"
        )
        return 0
    records = args.records if args.records is not None else min(dataset.num_records, 50_000)
    probabilities = np.clip(dataset.supports / dataset.num_records, 0.0, 1.0)
    db = TransactionDatabase.synthesize(
        records, probabilities, rng=derive_rng(args.seed, "cli-dat")
    )
    save_transactions(db, args.out)
    print(f"wrote {db.num_records} transactions over {db.num_items} items to {args.out}")
    return 0


def _cmd_select(args: argparse.Namespace) -> int:
    scores = np.array(
        [float(line) for line in args.scores.read_text().split() if line.strip()]
    )
    picked = select_top_c(
        scores,
        args.epsilon,
        args.c,
        method=args.method,
        monotonic=args.monotonic,
        threshold=args.threshold,
        threshold_bump_d=args.bump_d,
        rng=args.seed,
    )
    report = selection_report(scores, picked, args.c)
    print(f"selected indices: {' '.join(str(int(i)) for i in picked)}")
    print(
        f"selected {report.num_selected}/{args.c}  "
        f"SER={report.ser:.4f}  FNR={report.fnr:.4f}  "
        f"precision={report.precision:.4f}  recall={report.recall:.4f}"
    )
    return 0


def _cmd_mine(args: argparse.Namespace) -> int:
    db = load_transactions(args.database)
    mined = private_top_c_itemsets(
        db,
        epsilon=args.epsilon,
        c=args.c,
        method=args.method,
        max_size=args.max_size,
        threshold=args.threshold,
        release_counts=args.counts,
        rng=args.seed,
    )
    print(f"database: {db.num_records} transactions, {db.num_items} items")
    print(f"{len(mined)} itemsets selected (eps={args.epsilon}, method={args.method}):")
    for entry in mined:
        rendered = "{" + ", ".join(str(i) for i in entry.itemset) + "}"
        if entry.noisy_support is None:
            print(f"  {rendered}")
        else:
            print(f"  {rendered}  noisy support {entry.noisy_support:.1f}")
    return 0


def _cmd_audit(args: argparse.Namespace) -> int:
    # A canonical adversarial pair: below-queries rise by Delta while
    # deep-tail above-candidates fall by Delta (the both-directions geometry
    # the broken variants cannot afford).
    if args.variant == "alg5":
        answers_d, answers_dp = [0.0, 1.0], [1.0, 0.0]
    else:
        answers_d = [2.0, 2.0, 2.0, -10.0, -10.0]
        answers_dp = [3.0, 3.0, 3.0, -11.0, -11.0]
    report = privacy_report(
        args.variant,
        answers_d,
        answers_dp,
        epsilon=args.epsilon,
        c=args.c,
        mc_trials=args.mc_trials,
    )
    print(report)
    return 1 if report.violated else 0


def _cmd_serve(args: argparse.Namespace) -> int:
    import asyncio

    from repro.service.runtime import RuntimeServer, ServerConfig

    supports = np.array(
        [float(line) for line in args.scores.read_text().split() if line.strip()]
    )
    config = ServerConfig(
        epsilon=args.epsilon,
        error_threshold=args.threshold,
        c=args.c,
        svt_fraction=args.svt_fraction,
        mode=args.mode,
        seed=args.seed,
        session_ttl=args.session_ttl,
        max_queue=args.max_queue,
        window=args.batch,
        min_window=min(256, args.batch),
        max_window=max(65536, args.batch),
        adaptive=not args.no_adaptive,
        target_drain_ms=args.target_drain_ms,
        state_dir=None if args.state_dir is None else str(args.state_dir),
        checkpoint_every=args.checkpoint_every,
        trace=args.trace,
        trace_slow_ms=args.trace_slow_ms,
        admin_port=args.admin_port,
        admin_host=args.admin_host,
        gate_fault=args.gate_fault,
    )
    if args.gate_fault:
        print(f"WARNING: gate fault {args.gate_fault!r} active — this server "
              f"is deliberately broken (audit target only)", file=sys.stderr)
    if args.shards < 1:
        print("error: --shards must be >= 1", file=sys.stderr)
        return 2
    if args.audit_log is not None and args.shards > 1:
        # Each shard owns an independent audit seq space persisted under
        # state_dir/shard-K; one flat export file would scramble them.  The
        # seq-merged /audit view (or per-shard state dirs) is the sharded
        # equivalent.
        print("error: --audit-log is single-process only; with --shards use "
              "--state-dir (per-shard audit under shard-K/) or the /audit "
              "admin route", file=sys.stderr)
        return 2
    sharded = args.shards > 1
    server = RuntimeServer(supports, config, shards=args.shards)
    if server.local is not None:
        server.local.on_expire = lambda tenant, released: print(
            f"expired session for tenant {tenant} (released {released:g} epsilon)",
            file=sys.stderr,
        )

    async def main() -> dict:
        import signal

        for shard, info in sorted((await server.start()).items()):
            summary = info.get("recovery_summary")
            if sharded:
                line = f"shard {shard}: pid {info['pid']}"
                print(line + (f"; {summary}" if summary else ""), file=sys.stderr)
            elif summary:
                print(summary, file=sys.stderr)
        if args.tcp:
            await server.serve_tcp(args.host, args.port)
            host, port = server.tcp_address
            shards = f"; {args.shards} shards" if sharded else ""
            print(f"listening on {host}:{port} (JSONL{shards}; ctrl-C stops)",
                  file=sys.stderr)
            if server.admin is not None:
                ahost, aport = server.admin.address
                print(f"admin plane on http://{ahost}:{aport} "
                      f"(/healthz /readyz /metrics ...)", file=sys.stderr)
            stop = asyncio.Event()
            loop = asyncio.get_running_loop()
            for sig in (signal.SIGINT, signal.SIGTERM):
                try:
                    loop.add_signal_handler(sig, stop.set)
                except NotImplementedError:  # pragma: no cover - non-POSIX loops
                    pass
            await stop.wait()
            print("shutting down", file=sys.stderr)
        else:
            await server.serve_stdin()
        # Shutdown flushes and closes every durable store; the end-of-run
        # summary then reads the same status totals at any shard count.
        await server.shutdown()
        return await server.status_view()

    status = asyncio.run(main())
    if config.state_dir is not None:
        where = f"under {config.state_dir}/shard-K" if sharded else f"to {config.state_dir}"
        print(f"durable state checkpointed {where}", file=sys.stderr)
    counters = server.final_snapshot["counters"]
    served = int(counters.get("answered_total", 0) + counters.get("rejected_total", 0))
    sessions = status["sessions_open"] + status["sessions_closed"]
    on_shards = f" on {args.shards} shards" if sharded else ""
    print(
        f"served {served} requests across {sessions} sessions{on_shards} "
        f"({status['audit_records']} audit records, "
        f"total epsilon spent {status['epsilon_spent']:g})",
        file=sys.stderr,
    )
    if args.audit_log is not None:
        written = server.local.service.audit.to_jsonl(args.audit_log)
        print(f"audit log: {written} records written to {args.audit_log}", file=sys.stderr)
    return 0


def _cmd_metrics(args: argparse.Namespace) -> int:
    import json
    import socket

    with socket.create_connection((args.host, args.port), timeout=5.0) as sock:
        stream = sock.makefile("rwb")
        stream.write(json.dumps({"op": "metrics"}).encode() + b"\n")
        stream.flush()
        line = stream.readline()
    if not line:
        print("error: no response from server", file=sys.stderr)
        return 2
    snapshot = json.loads(line)
    fmt = "json" if args.raw else args.format
    if fmt == "json":
        print(json.dumps(snapshot, indent=2))
        return 0
    if fmt == "prom":
        from repro.service.observability import render_prometheus

        # Same encoder as the admin plane's /metrics: a snapshot fetched
        # over the JSONL protocol renders scrape-identical exposition.
        sys.stdout.write(render_prometheus(snapshot))
        return 0
    counters = snapshot.get("counters", {})
    gauges = snapshot.get("gauges", {})
    print(f"shed rate: {snapshot.get('shed_rate', 0.0):.2%}")
    for name in sorted(counters):
        print(f"  {name}: {counters[name]}")
    for name in sorted(gauges):
        print(f"  {name}: {gauges[name]:g}")
    for name, hist in sorted(snapshot.get("histograms", {}).items()):
        print(
            f"  {name}: n={hist['count']} mean={hist['mean']:g} "
            f"p50={hist['p50']:g} p99={hist['p99']:g}"
        )
    return 0


def _cmd_trace_report(args: argparse.Namespace) -> int:
    import json
    from urllib.error import URLError
    from urllib.request import urlopen

    url = f"http://{args.host}:{args.port}/debug/trace"
    try:
        with urlopen(url, timeout=10.0) as response:
            report = json.loads(response.read())
    except URLError as exc:
        print(f"error: cannot fetch {url}: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:  # connection refused and friends
        print(f"error: cannot fetch {url}: {exc}", file=sys.stderr)
        return 2
    if "error" in report:
        print(f"error: {report['error']}", file=sys.stderr)
        return 2
    if args.as_json:
        print(json.dumps(report, indent=2))
        return 0
    glossary = report.get("glossary", {})
    total = report.get("total", {})
    print(f"request spans: {report.get('spans_total', 0)} "
          f"({report.get('slow_total', 0)} slower than "
          f"{report.get('slow_threshold_ms', 0):g} ms)")
    print(f"{'stage':<15} {'count':>10} {'p50 ms':>9} {'p90 ms':>9} "
          f"{'p99 ms':>9}  description")
    for stage, hist in report.get("stages", {}).items():
        print(f"{stage:<15} {hist.get('count', 0):>10} "
              f"{hist.get('p50', 0):>9.3f} {hist.get('p90', 0):>9.3f} "
              f"{hist.get('p99', 0):>9.3f}  {glossary.get(stage, '')}")
    kernel = report.get("gate_kernel", {})
    if kernel.get("count"):
        print(f"{'  gate_kernel':<15} {kernel['count']:>10} "
              f"{kernel.get('p50', 0):>9.3f} {kernel.get('p90', 0):>9.3f} "
              f"{kernel.get('p99', 0):>9.3f}  pure kernel time within gate_exec")
    print(f"stage p50 sum {report.get('stage_p50_sum_ms', 0):g} ms vs "
          f"request-span p50 {total.get('p50', 0):g} ms "
          f"(p99 {total.get('p99', 0):g} ms)")
    slow = report.get("slow", [])
    if args.slow and slow:
        print(f"slowest exemplars (most recent {min(args.slow, len(slow))}):")
        for ex in slow[-args.slow:]:
            stages = " ".join(f"{k}={v:g}" for k, v in ex.get("stages", {}).items())
            print(f"  {ex.get('kind')}/{ex.get('tenant')} "
                  f"x{ex.get('requests')}: {ex.get('total_ms'):g} ms ({stages})")
    return 0


def _cmd_load_test(args: argparse.Namespace) -> int:
    import json

    from repro.service import SVTQueryService, WorkloadSpec, generate_workload
    from repro.service.workload import generate_canary_workload, run_batched, run_streaming

    spec = WorkloadSpec(
        tenants=args.tenants,
        requests=args.requests,
        dataset=args.dataset,
        dataset_scale=args.scale,
        epsilon=args.epsilon,
        c=args.c,
        threshold_factor=args.threshold_factor,
    )
    if args.workload == "canary":
        workload, plan = generate_canary_workload(
            spec, rng=args.seed, canary_fraction=args.canary_fraction
        )
        print(
            f"canary mixture: {args.canary_fraction:.0%} of requests hit the "
            f"planted pair (items {plan.item_lo}/{plan.item_hi}, scores "
            f"{plan.score_lo:g}/{plan.score_hi:g} around T={plan.threshold:g})"
        )
    else:
        workload = generate_workload(spec, rng=args.seed)
    batched = run_batched(
        SVTQueryService(workload.supports, seed=args.seed),
        workload,
        batch_size=args.batch,
        session_seed=args.seed,
    )
    print(
        f"batched:   {batched.requests_per_sec:>12,.0f} req/s   "
        f"occupancy {batched.mean_block_rows:.0f} rows/block   "
        f"p50/p99 {batched.latency_p50_ms:.2f}/{batched.latency_p99_ms:.2f} ms   "
        f"history rate {batched.history_rate:.1%}"
    )
    payload = {"workload": vars(args) | {"record": None}, "batched": batched.as_record()}
    if not args.skip_streaming:
        streaming = run_streaming(
            SVTQueryService(workload.supports, seed=args.seed),
            workload,
            session_seed=args.seed,
        )
        speedup = streaming.duration_s / batched.duration_s
        print(
            f"streaming: {streaming.requests_per_sec:>12,.0f} req/s   "
            f"(per-session loop)   speedup {speedup:.1f}x"
        )
        payload["streaming"] = streaming.as_record()
        payload["speedup"] = round(speedup, 2)
    if args.record is not None:
        args.record.write_text(json.dumps(payload, indent=2, default=str) + "\n")
        print(f"record written: {args.record}")
    return 0


def _cmd_audit_live(args: argparse.Namespace) -> int:
    import json
    import subprocess
    import tempfile

    from repro.service.auditor import (
        AuditConfig,
        JsonLineClient,
        load_planted_plan,
        plant_canaries,
        run_audit,
        write_planted_scores,
        write_report,
    )

    if args.scores is not None:
        supports = np.array(
            [float(line) for line in args.scores.read_text().split() if line.strip()]
        )
        plan = load_planted_plan(supports, epsilon=args.epsilon, rule=args.rule)
    else:
        dataset = generate_dataset(args.dataset, rng=args.seed, scale=args.scale)
        base = dataset.supports.astype(float)
        supports, plan = plant_canaries(
            base,
            threshold=args.threshold_factor * float(base[0]),
            epsilon=args.epsilon,
            rule=args.rule,
        )

    if args.emit_scores is not None:
        count = write_planted_scores(args.emit_scores, supports)
        print(
            f"wrote {count} planted scores to {args.emit_scores} "
            f"(pair at items {plan.item_lo}/{plan.item_hi}, "
            f"T={plan.threshold:g}; serve with --threshold {plan.threshold:g})"
        )
        return 0

    config = AuditConfig(
        trials=args.trials,
        confidence=args.confidence,
        seed=args.seed,
        background_every=args.background,
    )
    process = None
    temp_scores: Optional[str] = None
    if args.connect is not None:
        if args.scores is None:
            print("error: --connect needs --scores (the planted score file "
                  "the server was booted on)", file=sys.stderr)
            return 2
        host, _, port = args.connect.rpartition(":")
        try:
            client = JsonLineClient.connect_tcp(host or "127.0.0.1", int(port))
        except (OSError, ValueError) as exc:
            print(f"error: cannot connect to {args.connect}: {exc}", file=sys.stderr)
            return 2
        target = f"tcp {args.connect}"
    else:
        scores_path = args.scores
        if scores_path is None:
            fd, temp_scores = tempfile.mkstemp(suffix=".scores", prefix="audit-")
            os.close(fd)
            write_planted_scores(temp_scores, supports)
            scores_path = temp_scores
        command = [
            sys.executable, "-m", "repro.cli", "serve", str(scores_path),
            "--threshold", str(plan.threshold),
            "--epsilon", str(args.epsilon),
            "--seed", str(args.seed),
        ]
        if args.shards > 1:
            command += ["--shards", str(args.shards)]
        if args.gate_fault:
            command += ["--gate-fault", args.gate_fault]
        # stderr inherits: the subprocess's boot/summary lines stay visible.
        process = subprocess.Popen(
            command, stdin=subprocess.PIPE, stdout=subprocess.PIPE
        )
        client = JsonLineClient.from_process(process)
        target = (f"stdio subprocess (pid {process.pid}, shards {args.shards}, "
                  f"gate fault {args.gate_fault or 'none'})")

    print(f"auditing {target}: {args.trials} trials, rule {args.rule!r}, "
          f"charged eps {plan.charged_eps:g}", file=sys.stderr)
    try:
        report = run_audit(client, plan, config, num_items=supports.size)
    finally:
        client.close()  # boot mode: stdin EOF drains and stops the server
        if process is not None:
            process.wait(timeout=60)
        if temp_scores is not None:
            os.unlink(temp_scores)
    report["server"] = {
        "target": "connect" if args.connect else "boot",
        "shards": args.shards,
        "gate_fault": args.gate_fault,
    }

    accuracy = report["accuracy"]
    print(f"guesses: {report['correct']}/{report['guesses']} correct "
          f"({report['trials']} trials"
          + (f", accuracy {accuracy:.3f}" if accuracy is not None else "")
          + ")")
    if report["caught"]:
        print(f"VIOLATION CAUGHT: empirical eps lower bound "
              f"{report['eps_lb']:.3f} exceeds the charged eps "
              f"{report['charged_eps']:g} at {args.confidence:.0%} confidence")
    else:
        print(f"clean: empirical eps lower bound {report['eps_lb']:.3f} stays "
              f"under the charged eps {report['charged_eps']:g} at "
              f"{args.confidence:.0%} confidence")
    if args.out is not None:
        write_report(args.out, report)
        print(f"report written: {args.out}")
    if args.expect is not None:
        expected_caught = args.expect == "broken"
        if report["caught"] != expected_caught:
            print(f"error: expected {args.expect} but the audit said "
                  f"{'caught' if report['caught'] else 'clean'} "
                  f"({json.dumps({k: report[k] for k in ('trials', 'guesses', 'correct', 'eps_lb', 'charged_eps')})})",
                  file=sys.stderr)
            return 1
        print(f"verdict matches --expect {args.expect}")
    return 0


def _cmd_experiment(args: argparse.Namespace) -> int:
    from repro.experiments.__main__ import main as experiments_main

    forwarded: List[str] = []
    if args.tiny:
        forwarded.append("--tiny")
    if args.no_charts:
        forwarded.append("--no-charts")
    return experiments_main(forwarded)


_HANDLERS = {
    "generate": _cmd_generate,
    "select": _cmd_select,
    "mine": _cmd_mine,
    "audit": _cmd_audit,
    "experiment": _cmd_experiment,
    "serve": _cmd_serve,
    "metrics": _cmd_metrics,
    "trace-report": _cmd_trace_report,
    "load-test": _cmd_load_test,
    "audit-live": _cmd_audit_live,
}


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _HANDLERS[args.command](args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
