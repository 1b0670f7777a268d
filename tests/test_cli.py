"""Tests for the command-line interface."""

import io
import json
import re
import signal
import subprocess
import sys
from pathlib import Path

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_query_defaults(self):
        args = build_parser().parse_args(["query", "country | currency"])
        assert args.text == "country | currency"
        assert args.inference == "table-centric"
        assert args.scale == 0.4
        assert args.trace is False

    def test_batch_deadline_default_off(self):
        args = build_parser().parse_args(["batch", "a | b"])
        assert args.deadline_ms is None

    def test_eval_method_choices(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["eval", "--methods", "bogus"])

    def test_workload_command(self):
        args = build_parser().parse_args(["workload"])
        assert args.command == "workload"

    @pytest.mark.parametrize("argv, message", [
        (["query", "a | b", "--parallel-mode", "process"],
         "unrecognized arguments: --parallel-mode process"),
        (["serve", "--execution-mode", "async"],
         "unrecognized arguments: --execution-mode async"),
        (["index", "build", "--out", "d", "--parallel-mode", "serial"],
         "unrecognized arguments: --parallel-mode serial"),
        (["index", "build", "--out", "d", "--format", "json"],
         "unrecognized arguments: --format json"),
        (["index", "compact", "d", "--format", "bin"],
         "unrecognized arguments: --format bin"),
    ], ids=["parallel-mode-process", "serve-execution-mode",
            "index-build-parallel-mode", "index-build-format",
            "index-compact-format"])
    def test_removed_modes_exit_2(self, argv, message, capsys):
        with pytest.raises(SystemExit) as err:
            build_parser().parse_args(argv)
        assert err.value.code == 2
        stderr = capsys.readouterr().err
        assert stderr.startswith("usage:") and message in stderr


class TestCommands:
    def test_workload_lists_queries(self):
        out = io.StringIO()
        assert main(["workload"], out=out) == 0
        text = out.getvalue()
        assert "dog breed" in text
        assert "us states | capitals | largest cities" in text
        assert text.count("\n") >= 60

    def test_query_end_to_end(self):
        out = io.StringIO()
        code = main(
            ["query", "country | currency", "--scale", "0.15", "--rows", "3"],
            out=out,
        )
        assert code == 0
        text = out.getvalue()
        assert "candidates:" in text
        assert "country | currency" in text
        assert "trace:" not in text  # only under --trace

    def test_query_trace_prints_span_tree(self):
        out = io.StringIO()
        code = main(
            ["query", "country | currency", "--scale", "0.15", "--rows", "3",
             "--trace"],
            out=out,
        )
        assert code == 0
        text = out.getvalue()
        assert "trace:" in text
        for stage in ("parse", "probe.index1", "probe.read2", "column_map",
                      "consolidate", "rank"):
            assert stage in text
        assert "ms" in text

    def test_query_invalid_rows_is_cli_error(self, capsys):
        code = main(
            ["query", "country | currency", "--scale", "0.02",
             "--rows", "0"],
            out=io.StringIO(),
        )
        assert code == 2
        assert "page_size" in capsys.readouterr().err

    def test_batch_deadline_ms_reports_degraded(self):
        out = io.StringIO()
        code = main(
            ["batch", "country | currency", "dog breed", "--scale", "0.15",
             "--deadline-ms", "0.001"],
            out=out,
        )
        assert code == 0
        text = out.getvalue()
        assert "(degraded)" in text
        assert "deadline 0.001ms:" in text
        assert "2 deadline hits" in text

    def test_batch_without_deadline_not_degraded(self):
        out = io.StringIO()
        code = main(
            ["batch", "country | currency", "--scale", "0.15"], out=out
        )
        assert code == 0
        assert "(degraded)" not in out.getvalue()

    def test_batch_invalid_deadline_is_cli_error(self, capsys):
        code = main(
            ["batch", "country | currency", "--scale", "0.02",
             "--deadline-ms", "-5"],
            out=io.StringIO(),
        )
        assert code == 2
        assert "deadline_ms" in capsys.readouterr().err

    def test_batch_removed_workers_option_exits_2(self, capsys):
        """``batch --workers`` went with the batch thread pool: argparse
        refuses it as an unrecognized argument."""
        with pytest.raises(SystemExit) as exit_info:
            main(["batch", "country | currency", "--workers", "2"],
                 out=io.StringIO())
        assert exit_info.value.code == 2
        assert "--workers" in capsys.readouterr().err

    def test_bad_config_file_is_cli_error(self, capsys):
        out = io.StringIO()
        code = main(
            ["query", "country | currency", "--config", "/nonexistent.json"],
            out=out,
        )
        assert code == 2
        assert "error:" in capsys.readouterr().err

    def test_invalid_query_text_is_cli_error(self, capsys):
        out = io.StringIO()
        code = main(["query", "  |  ", "--scale", "0.02"], out=out)
        assert code == 2
        assert "column keyword" in capsys.readouterr().err

    def test_corpus_census_and_save(self, tmp_path):
        out = io.StringIO()
        path = tmp_path / "store.jsonl"
        code = main(
            ["corpus", "--scale", "0.05", "--save", str(path)], out=out
        )
        assert code == 0
        assert path.exists()
        assert "data tables:" in out.getvalue()
        from repro.index.store import TableStore

        store = TableStore.load(path)
        assert len(store) > 10


class TestIndexCommands:
    def test_build_requires_out(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["index", "build"])

    def test_index_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["index"])

    def test_build_then_info_then_query(self, tmp_path):
        corpus_dir = str(tmp_path / "corpus")
        out = io.StringIO()
        code = main(
            ["index", "build", "--out", corpus_dir, "--scale", "0.1",
             "--num-shards", "3"],
            out=out,
        )
        assert code == 0
        built_text = out.getvalue()
        assert "3-shard corpus" in built_text
        assert "shard sizes:" in built_text

        out = io.StringIO()
        assert main(["index", "info", corpus_dir], out=out) == 0
        info_text = out.getvalue()
        assert "kind: sharded" in info_text
        assert "num_shards: 3" in info_text
        assert "shard-0000" in info_text

        out = io.StringIO()
        code = main(
            ["query", "country | currency", "--index", corpus_dir,
             "--rows", "3"],
            out=out,
        )
        assert code == 0
        assert "candidates:" in out.getvalue()

    def test_build_one_shard_by_default(self, tmp_path):
        corpus_dir = str(tmp_path / "one")
        out = io.StringIO()
        code = main(
            ["index", "build", "--out", corpus_dir, "--scale", "0.1"],
            out=out,
        )
        assert code == 0
        assert "1-shard corpus" in out.getvalue()
        out = io.StringIO()
        assert main(["index", "info", corpus_dir], out=out) == 0
        info_text = out.getvalue()
        assert "version: 3" in info_text
        assert "kind: sharded" in info_text
        assert "num_shards: 1" in info_text

    @staticmethod
    def tree_bytes(root):
        """Every file under ``root`` with its bytes."""
        return {
            str(p.relative_to(root)): p.read_bytes()
            for p in sorted(root.rglob("*")) if p.is_file()
        }

    def test_repair_rederives_v3_snapshot_byte_exactly(self, tmp_path):
        corpus_dir = tmp_path / "corpus"
        assert main(
            ["index", "build", "--out", str(corpus_dir), "--scale", "0.05",
             "--num-shards", "2"],
            out=io.StringIO(),
        ) == 0
        assert main(["index", "verify", str(corpus_dir)],
                    out=io.StringIO()) == 0
        before = self.tree_bytes(corpus_dir)
        victim = corpus_dir / "shard-0001" / "index.bin"
        blob = bytearray(victim.read_bytes())
        blob[len(blob) // 2] ^= 0xFF
        victim.write_bytes(bytes(blob))
        out = io.StringIO()
        assert main(["index", "verify", str(corpus_dir)], out=out) == 1
        assert "shard-0001 checksum [repairable]" in out.getvalue()
        out = io.StringIO()
        assert main(["index", "repair", str(corpus_dir)], out=out) == 0
        assert "repaired shard-0001" in out.getvalue()
        assert self.tree_bytes(corpus_dir) == before
        assert main(["index", "verify", str(corpus_dir)],
                    out=io.StringIO()) == 0

    def test_incremental_add_compact_flow(self, tmp_path):
        """The README quickstart: index build -> add -> compact."""
        corpus_dir = str(tmp_path / "corpus")
        out = io.StringIO()
        assert main(
            ["index", "build", "--out", corpus_dir, "--scale", "0.05",
             "--num-shards", "2"],
            out=out,
        ) == 0

        out = io.StringIO()
        assert main(
            ["index", "add", corpus_dir, "--scale", "0.02",
             "--prefix", "live-"],
            out=out,
        ) == 0
        add_text = out.getvalue()
        assert "journaled" in add_text
        assert "journal_depth:" in add_text

        out = io.StringIO()
        assert main(["index", "info", corpus_dir], out=out) == 0
        info_text = out.getvalue()
        assert "journal_seq: 0" in info_text
        assert "journal_depth: 0" not in info_text  # journal is non-empty

        # Queries serve the journaled corpus (snapshot + replayed journal).
        out = io.StringIO()
        assert main(
            ["query", "country | currency", "--index", corpus_dir,
             "--rows", "2"],
            out=out,
        ) == 0

        out = io.StringIO()
        assert main(["index", "compact", corpus_dir], out=out) == 0
        compact_text = out.getvalue()
        assert "folded" in compact_text
        assert "journal_depth: 0" in compact_text

        out = io.StringIO()
        assert main(["index", "info", corpus_dir], out=out) == 0
        info_text = out.getvalue()
        assert "journal_depth: 0" in info_text
        assert "journal_seq: 0" not in info_text  # seq advanced

    def test_add_with_colliding_prefix_is_cli_error(self, tmp_path, capsys):
        corpus_dir = str(tmp_path / "corpus")
        out = io.StringIO()
        assert main(
            ["index", "build", "--out", corpus_dir, "--scale", "0.05"],
            out=out,
        ) == 0
        # An empty prefix regenerates ids the build already took.
        code = main(
            ["index", "add", corpus_dir, "--scale", "0.05", "--seed", "42",
             "--prefix", ""],
            out=io.StringIO(),
        )
        assert code == 2
        assert "already in corpus" in capsys.readouterr().err

    def test_info_field_names_match_spec(self, tmp_path):
        """`index info` keys must equal the DESIGN.md spec's field names."""
        corpus_dir = str(tmp_path / "corpus")
        assert main(
            ["index", "build", "--out", corpus_dir, "--scale", "0.05"],
            out=io.StringIO(),
        ) == 0
        out = io.StringIO()
        assert main(["index", "info", corpus_dir], out=out) == 0
        keys = [
            line.split(":")[0] for line in out.getvalue().splitlines()
            if ":" in line and not line.startswith(" ")
        ]
        assert keys[:8] == [
            "format", "version", "kind", "num_shards", "num_tables",
            "journal_seq", "journal_depth", "boosts",
        ]

    def test_info_on_non_corpus_is_cli_error(self, tmp_path, capsys):
        out = io.StringIO()
        code = main(["index", "info", str(tmp_path)], out=out)
        assert code == 2
        assert "not a persisted corpus" in capsys.readouterr().err

    def test_config_num_shards_selects_sharded_backend(self, tmp_path):
        import json as _json

        from repro.cli import _build_service, build_parser

        config_path = tmp_path / "cfg.json"
        config_path.write_text(_json.dumps({"num_shards": 3}))
        args = build_parser().parse_args(
            ["query", "country | currency", "--scale", "0.1",
             "--config", str(config_path)]
        )
        service = _build_service(args)
        assert service.corpus.num_shards == 3

    def test_index_with_nondefault_scale_warns(self, tmp_path, capsys):
        corpus_dir = str(tmp_path / "corpus")
        out = io.StringIO()
        assert main(
            ["index", "build", "--out", corpus_dir, "--scale", "0.1"],
            out=out,
        ) == 0
        out = io.StringIO()
        assert main(
            ["query", "dog breed", "--index", corpus_dir, "--scale", "0.9"],
            out=out,
        ) == 0
        assert "--scale/--seed" in capsys.readouterr().err


class TestServeCommand:
    def test_parser_defaults(self):
        args = build_parser().parse_args(["serve"])
        assert args.command == "serve"
        assert args.host == "127.0.0.1"
        assert args.port == 8080
        assert args.workers == 4
        assert args.queue_depth == 64
        assert args.rate_limit is None
        assert args.burst == 10
        assert args.deadline_ms is None

    def test_build_server_wires_flags_through(self):
        from repro.cli import _build_server

        args = build_parser().parse_args(
            ["serve", "--scale", "0.02", "--port", "0", "--workers", "2",
             "--queue-depth", "5", "--rate-limit", "9.5", "--burst", "3",
             "--deadline-ms", "250"]
        )
        server = _build_server(args)
        config = server.config
        assert config.port == 0
        assert config.workers == 2
        assert config.queue_depth == 5
        assert config.rate_limit == 9.5
        assert config.rate_burst == 3
        assert config.default_deadline_ms == 250

    def test_serve_loopback_round_trip(self):
        """Start the built server in-process and query it over a socket."""
        from repro.cli import _build_server
        from repro.serve import ServeClient

        args = build_parser().parse_args(
            ["serve", "--scale", "0.02", "--port", "0", "--workers", "2"]
        )
        server = _build_server(args).start()
        try:
            with ServeClient(server.host, server.port) as client:
                status, _, body = client.healthz()
                assert status == 200 and body["status"] == "ok"
                status, _, body = client.query(
                    {"query": "country | currency"}
                )
                assert status == 200
                assert body["answer"]["header"]
                assert body["serving"]["cache_hit"] is False
        finally:
            server.shutdown()

    def test_invalid_serve_flags_are_cli_errors(self, capsys):
        code = main(
            ["serve", "--scale", "0.02", "--port", "0", "--workers", "0"],
            out=io.StringIO(),
        )
        assert code == 2
        assert "workers" in capsys.readouterr().err

    def test_serve_subprocess_sigint_drains_and_exits_zero(self):
        """The README flow: start `repro serve`, query it, Ctrl-C it."""
        import http.client

        repo_src = Path(__file__).resolve().parent.parent / "src"
        proc = subprocess.Popen(
            [sys.executable, "-u", "-m", "repro", "serve", "--port", "0",
             "--scale", "0.02"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
            env={"PYTHONPATH": str(repo_src), "PATH": "/usr/bin:/bin"},
        )
        try:
            banner = proc.stdout.readline()
            match = re.search(r"http://([\d.]+):(\d+)", banner)
            assert match, f"no serving banner in {banner!r}"
            host, port = match.group(1), int(match.group(2))
            conn = http.client.HTTPConnection(host, port, timeout=60)
            conn.request("GET", "/healthz")
            reply = conn.getresponse()
            assert reply.status == 200
            reply.read()
            conn.request(
                "POST", "/query",
                body=json.dumps({"query": "dog breed"}).encode("utf-8"),
                headers={"Content-Type": "application/json"},
            )
            reply = conn.getresponse()
            body = json.loads(reply.read())
            assert reply.status == 200
            assert "answer" in body and "serving" in body
            conn.close()
        finally:
            proc.send_signal(signal.SIGINT)
            returncode = proc.wait(timeout=60)
        assert returncode == 0
        assert "shutting down" in proc.stdout.read()
