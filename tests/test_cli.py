"""Tests for the command-line interface."""

import numpy as np
import pytest

from repro.cli import main
from repro.data.loaders import load_transactions


class TestGenerate:
    def test_supports_format(self, tmp_path, capsys):
        out = tmp_path / "zipf.txt"
        code = main(["generate", "Zipf", "--scale", "0.01", "--out", str(out)])
        assert code == 0
        values = [int(v) for v in out.read_text().split()]
        assert len(values) == 100
        assert values == sorted(values, reverse=True)
        assert "wrote 100 item supports" in capsys.readouterr().out

    def test_dat_format(self, tmp_path, capsys):
        out = tmp_path / "db.dat"
        code = main(
            [
                "generate", "BMS-POS", "--scale", "0.01", "--out", str(out),
                "--format", "dat", "--records", "200", "--seed", "1",
            ]
        )
        assert code == 0
        db = load_transactions(out)
        assert db.num_records <= 200  # empty transactions are kept, so <= is exact count
        assert "transactions" in capsys.readouterr().out


class TestSelect:
    @pytest.fixture
    def scores_file(self, tmp_path):
        path = tmp_path / "scores.txt"
        path.write_text("\n".join(str(100 - i) for i in range(50)))
        return path

    def test_em_selection(self, scores_file, capsys):
        code = main(
            [
                "select", str(scores_file), "--epsilon", "100", "-c", "5",
                "--method", "em", "--monotonic", "--seed", "0",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "SER=0.0000" in out
        assert "selected 5/5" in out

    def test_svt_needs_threshold(self, scores_file, capsys):
        code = main(
            ["select", str(scores_file), "--epsilon", "1", "-c", "5", "--method", "svt"]
        )
        assert code == 2
        assert "error" in capsys.readouterr().err

    def test_svt_with_threshold(self, scores_file, capsys):
        code = main(
            [
                "select", str(scores_file), "--epsilon", "100", "-c", "5",
                "--method", "svt", "--threshold", "95", "--seed", "0",
            ]
        )
        assert code == 0
        assert "selected" in capsys.readouterr().out


class TestMine:
    def test_mining_runs(self, tmp_path, capsys):
        db_path = tmp_path / "db.dat"
        rng = np.random.default_rng(0)
        lines = []
        for _ in range(300):
            items = [i for i in range(6) if rng.random() < 0.7 - 0.1 * i]
            lines.append(" ".join(str(i) for i in items) or "0")
        db_path.write_text("\n".join(lines) + "\n")
        code = main(
            [
                "mine", str(db_path), "--epsilon", "50", "-c", "4",
                "--counts", "--seed", "0",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "4 itemsets selected" in out
        assert "noisy support" in out


class TestAudit:
    def test_private_variant_passes(self, capsys):
        code = main(["audit", "alg1", "--epsilon", "1.0", "-c", "2"])
        assert code == 0
        assert "ok" in capsys.readouterr().out

    def test_broken_variant_flagged(self, capsys):
        code = main(["audit", "alg5", "--epsilon", "1.0"])
        assert code == 1
        out = capsys.readouterr().out
        assert "VIOLATED" in out

    def test_alg4_flagged(self, capsys):
        code = main(["audit", "alg4", "--epsilon", "1.0", "-c", "2"])
        assert code == 1
        assert "VIOLATED" in capsys.readouterr().out


class TestExperiment:
    def test_tiny_experiment(self, capsys):
        code = main(["experiment", "--tiny", "--no-charts"])
        assert code == 0
        assert "Figure 5" in capsys.readouterr().out


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            main([])

    def test_unknown_subcommand(self):
        with pytest.raises(SystemExit):
            main(["frobnicate"])


class TestServe:
    @pytest.fixture
    def scores_file(self, tmp_path):
        path = tmp_path / "scores.txt"
        path.write_text("\n".join(str(1000 - 10 * i) for i in range(60)))
        return path

    def test_serve_answers_stdin_requests(self, scores_file, capsys, monkeypatch):
        import io
        import json

        monkeypatch.setattr(
            "sys.stdin", io.StringIO("alice 0\nbob 1\nalice 0\n\nbob 2\n")
        )
        code = main(
            ["serve", str(scores_file), "--threshold", "600", "--seed", "5"]
        )
        assert code == 0
        captured = capsys.readouterr()
        lines = [json.loads(line) for line in captured.out.splitlines()]
        assert [entry["ticket"] for entry in lines] == [0, 1, 2, 3]
        repeat = lines[2]
        assert repeat["tenant"] == "alice" and repeat["from_history"]
        assert repeat["value"] == lines[0]["value"]
        assert "2 sessions" in captured.err

    @pytest.mark.parametrize("shards", [1, 2])
    def test_serve_summary_at_any_shard_count(self, scores_file, capsys,
                                              monkeypatch, shards):
        """One serve path: the end-of-run summary reads the status totals
        the same way whether one process or two shard workers served."""
        import io
        import re

        monkeypatch.setattr("sys.stdin", io.StringIO("alice 0\nbob 1\nalice 0\n"))
        code = main(["serve", str(scores_file), "--threshold", "600",
                     "--seed", "5", "--mode", "per-session",
                     "--shards", str(shards)])
        assert code == 0
        captured = capsys.readouterr()
        assert captured.out.count("\n") == 3
        summary = re.search(
            r"served (\d+) requests across (\d+) sessions.*?\((\d+) audit records",
            captured.err,
        )
        assert summary is not None, captured.err
        assert summary.group(1, 2) == ("3", "2")
        assert int(summary.group(3)) > 0

    def test_serve_reports_bad_lines(self, scores_file, capsys, monkeypatch):
        import io

        monkeypatch.setattr("sys.stdin", io.StringIO("nonsense\nalice 0\n"))
        code = main(["serve", str(scores_file), "--threshold", "600"])
        assert code == 0
        captured = capsys.readouterr()
        assert "bad request line" in captured.err
        assert captured.out.count("\n") == 1

    def test_serve_persists_audit_log(self, scores_file, capsys, monkeypatch, tmp_path):
        import io

        from repro.service.audit import AuditLog

        audit_path = tmp_path / "audit.jsonl"
        monkeypatch.setattr("sys.stdin", io.StringIO("alice 0\nbob 1\n"))
        code = main(
            [
                "serve", str(scores_file), "--threshold", "600", "--seed", "5",
                "--audit-log", str(audit_path),
            ]
        )
        assert code == 0
        captured = capsys.readouterr()
        assert "audit log:" in captured.err
        replayed = AuditLog.replay(audit_path)
        assert len(replayed) > 0
        sessions = {r.session for r in replayed}
        assert {"alice#0", "bob#0"} <= sessions


class TestMetricsAndTraceReport:
    """The operator-side CLI against a live server: ``metrics --format`` and
    ``trace-report`` exercise the same encoders the admin plane serves."""

    @pytest.fixture
    def live_server(self):
        import asyncio
        import json
        import socket
        import threading

        from repro.service.runtime import RuntimeServer, ServerConfig

        server = RuntimeServer(
            [5.0] * 64,
            ServerConfig(seed=11, trace=True, trace_slow_ms=0.0, admin_port=0),
        )
        ready = threading.Event()
        info = {}
        loop = asyncio.new_event_loop()

        async def boot():
            await server.serve_tcp("127.0.0.1", 0)
            info["tcp"] = server.tcp_address
            info["admin"] = server.admin.address
            ready.set()

        def run():
            asyncio.set_event_loop(loop)
            loop.run_until_complete(boot())
            loop.run_forever()

        thread = threading.Thread(target=run, daemon=True)
        thread.start()
        assert ready.wait(5.0)
        # Put some traffic through so the scrape and the trace have content.
        with socket.create_connection(info["tcp"]) as sock:
            stream = sock.makefile("rwb")
            for i in range(8):
                stream.write(
                    (json.dumps({"op": "query", "tenant": f"t{i % 2}",
                                 "item": i % 64, "id": i}) + "\n").encode()
                )
            stream.flush()
            for _ in range(8):
                assert stream.readline()
        yield info
        future = asyncio.run_coroutine_threadsafe(server.shutdown(), loop)
        future.result(5.0)
        loop.call_soon_threadsafe(loop.stop)
        thread.join(5.0)
        loop.close()

    def test_metrics_format_json(self, live_server, capsys):
        import json

        host, port = live_server["tcp"]
        code = main(
            ["metrics", "--host", host, "--port", str(port), "--format", "json"]
        )
        assert code == 0
        snapshot = json.loads(capsys.readouterr().out)
        assert snapshot["counters"]["requests_total"] == 8

    def test_metrics_format_prom_matches_scrape(self, live_server, capsys):
        host, port = live_server["tcp"]
        code = main(
            ["metrics", "--host", host, "--port", str(port), "--format", "prom"]
        )
        assert code == 0
        text = capsys.readouterr().out
        assert "# TYPE repro_requests_total counter" in text
        assert 'le="+Inf"' in text
        assert 'repro_stage_ms_count{stage="ingress_wait"} 8' in text.splitlines()

    def test_metrics_raw_is_json_alias(self, live_server, capsys):
        import json

        host, port = live_server["tcp"]
        code = main(["metrics", "--host", host, "--port", str(port), "--raw"])
        assert code == 0
        assert "counters" in json.loads(capsys.readouterr().out)

    def test_trace_report_table(self, live_server, capsys):
        host, port = live_server["admin"]
        code = main(["trace-report", "--host", host, "--port", str(port)])
        assert code == 0
        out = capsys.readouterr().out
        assert "ingress_wait" in out
        assert "stage p50 sum" in out and "request-span p50" in out

    def test_trace_report_json(self, live_server, capsys):
        import json

        host, port = live_server["admin"]
        code = main(
            ["trace-report", "--host", host, "--port", str(port), "--json"]
        )
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert report["spans_total"] == 8
        assert "ingress_wait" in report["stages"]

    def test_trace_report_unreachable_is_rc2(self, capsys):
        import socket

        # Grab a port that is definitely not listening.
        with socket.socket() as sock:
            sock.bind(("127.0.0.1", 0))
            port = sock.getsockname()[1]
        code = main(["trace-report", "--host", "127.0.0.1", "--port", str(port)])
        assert code == 2
        assert "error" in capsys.readouterr().err


class TestLoadTest:
    def test_load_test_records_metrics(self, tmp_path, capsys):
        import json

        record = tmp_path / "bench.json"
        code = main(
            [
                "load-test", "--tenants", "8", "--requests", "500",
                "--scale", "0.02", "--batch", "200", "--record", str(record),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "batched:" in out and "speedup" in out
        payload = json.loads(record.read_text())
        assert payload["batched"]["requests"] == 500
        assert "latency_p99_ms" in payload["batched"]
        assert "speedup" in payload

    def test_skip_streaming(self, capsys):
        code = main(
            [
                "load-test", "--tenants", "4", "--requests", "200",
                "--scale", "0.02", "--skip-streaming",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "batched:" in out and "streaming" not in out
