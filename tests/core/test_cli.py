"""Tests for the command-line interface (repro.cli)."""

from __future__ import annotations

import json

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_generate_defaults(self):
        args = build_parser().parse_args(["generate", "hello"])
        assert args.command == "generate"
        assert args.model == "stories15M"
        assert args.variant == "full"
        assert args.tokens == 48

    def test_unknown_variant_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["generate", "hi", "--variant", "warp"])

    def test_bench_energy_choices(self):
        args = build_parser().parse_args(["bench", "--energy", "board"])
        assert args.energy == "board"
        with pytest.raises(SystemExit):
            build_parser().parse_args(["bench", "--energy", "solar"])

    def test_export_graph_defaults(self):
        args = build_parser().parse_args(["export-graph"])
        assert args.format == "dot"
        assert args.output == "-"


class TestGenerateCommand:
    def test_generates_and_prints_metrics(self, capsys):
        code = main([
            "generate", "Once upon a time",
            "--model", "test-small", "--tokens", "8", "--stride", "4",
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "latency" in out
        assert "tokens/s" in out

    def test_from_checkpoint_files(self, capsys, tmp_path,
                                   small_checkpoint, tiny_tokenizer):
        from repro.llama.checkpoint import save_checkpoint
        ckpt = save_checkpoint(small_checkpoint, tmp_path / "m.bin")
        tok = tiny_tokenizer.save(tmp_path / "t.bin")
        code = main([
            "generate", "Lily went home",
            "--checkpoint", str(ckpt), "--tokenizer", str(tok),
            "--tokens", "6", "--stride", "4",
        ])
        assert code == 0
        assert "tokens/J" in capsys.readouterr().out


class TestBenchCommand:
    def test_bench_prints_tables_and_writes_json(self, capsys, tmp_path):
        json_path = tmp_path / "rows.json"
        code = main([
            "bench", "--model", "test-small",
            "--prompt-tokens", "4", "--tokens", "12", "--stride", "8",
            "--json", str(json_path),
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "headline speedup" in out
        assert "normalized_latency" in out
        rows = json.loads(json_path.read_text())
        assert {r["variant"] for r in rows} >= {"unoptimized", "full"}


class TestServeBenchCommand:
    def test_serves_requests_and_reports_speedup(self, capsys, tmp_path):
        json_path = tmp_path / "serve.json"
        code = main([
            "serve-bench", "--model", "test-small",
            "--requests", "8", "--tokens", "10",
            "--json", str(json_path),
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "continuous-batching speedup" in out
        assert "queue_wait_ms" in out
        payload = json.loads(json_path.read_text())
        assert len(payload["requests"]) == 8
        aggregate = payload["aggregate"]
        assert aggregate["n_requests"] == 8
        # The acceptance bar: batched serving at least doubles the
        # sequential baseline's aggregate throughput (deterministic sim).
        assert aggregate["speedup"] >= 2.0

    def test_parser_defaults(self):
        args = build_parser().parse_args(["serve-bench"])
        assert args.requests == 8
        assert args.batch_tokens == 16
        assert args.kv_budget_mb == 256
        assert args.paged is False
        assert args.block_size == 16
        assert args.shared_prefix is False
        assert args.tensor_parallel == 1
        assert args.interconnect_gbps == 25.0
        assert args.arrival_rate is None

    def test_tensor_parallel_run_reports_interconnect(self, capsys):
        code = main([
            "serve-bench", "--model", "test-small",
            "--requests", "4", "--tokens", "8",
            "--tensor-parallel", "2", "--interconnect-gbps", "16",
            "--json", "-",
        ])
        out = capsys.readouterr().out
        assert code == 0
        aggregate = json.loads(out)["aggregate"]
        assert aggregate["tensor_parallel"] == 2
        assert aggregate["interconnect_fraction"] > 0.0
        assert aggregate["backend"]["backend"] == "sharded"
        assert len(aggregate["shard_utilization"]) == 2

    def test_arrival_rate_spreads_the_run(self, capsys):
        code = main([
            "serve-bench", "--model", "test-small",
            "--requests", "4", "--tokens", "6",
            "--arrival-rate", "200", "--json", "-",
        ])
        out = capsys.readouterr().out
        assert code == 0
        aggregate = json.loads(out)["aggregate"]
        assert aggregate["n_requests"] == 4
        # An open-loop arrival process stretches the makespan past the
        # all-at-t0 compute-only span.
        assert aggregate["makespan_seconds"] > 0.0

    def test_paged_shared_prefix_json_stdout(self, capsys):
        code = main([
            "serve-bench", "--model", "test-small",
            "--requests", "4", "--tokens", "8", "--seed", "5",
            "--paged", "--block-size", "8", "--shared-prefix",
            "--json", "-",
        ])
        out = capsys.readouterr().out
        assert code == 0
        payload = json.loads(out)  # '-' streams machine-readable JSON only
        aggregate = payload["aggregate"]
        assert aggregate["paged"] is True
        assert aggregate["n_requests"] == 4
        assert aggregate["prefix_hit_rate"] >= 0.0
        assert "peak_running" in aggregate

    def test_paged_reports_prefix_hit_rate(self, capsys):
        code = main([
            "serve-bench", "--model", "test-small",
            "--requests", "4", "--tokens", "8",
            "--paged", "--shared-prefix",
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "prefix-hit rate" in out
        assert "preemptions" in out
        assert "peak concurrency" in out


class TestRejectedConfiguration:
    """A flag combination the configuration objects reject is a usage
    error (status 2, one ``speedllm <cmd>: error:`` line), not the
    status 1 a failed ``--check`` uses, and not a traceback."""

    @pytest.mark.parametrize("flags, message", [
        (["--batch-tokens", "0"], "max_batch_tokens must be positive"),
        (["--kv-budget-mb", "0"], "kv_budget_bytes must be positive"),
        (["--prefill-chunk-tokens", "4"], "requires chunked_prefill"),
        (["--speculative", "ngram", "--spec-tokens", "0"],
         "num_draft_tokens must be in"),
        (["--quant-kv"], "require a quant mode"),
        (["--requests", "0"], "at least one workload"),
        (["--tensor-parallel", "3"],
         "n_heads (4) is not divisible by tensor-parallel degree 3"),
        (["--replicas", "2", "--batch-tokens", "0"],
         "max_batch_tokens must be positive"),
        (["--replicas", "3", "--disaggregate", "--prefill-replicas", "3"],
         "n_prefill_replicas must be in"),
    ])
    def test_serve_bench_exits_2_with_one_error_line(self, capsys, flags,
                                                     message):
        with pytest.raises(SystemExit) as exit_info:
            main(["serve-bench", "--model", "test-small", *flags])
        assert exit_info.value.code == 2
        err = capsys.readouterr().err
        assert err.splitlines()[-1].startswith("speedllm serve-bench: error: ")
        assert message in err.splitlines()[-1]
        assert "Traceback" not in err

    @pytest.mark.parametrize("argv", [
        ["compile-bench", "--model", "test-small", "--fp32-logits"],
        ["serve-api", "--model", "test-small", "--ctx-bucket", "0"],
        ["trace", "--model", "test-small", "--requests", "0"],
        ["bench", "--model", "test-small", "--stride", "0"],
    ])
    def test_every_configuring_command_does(self, capsys, argv):
        with pytest.raises(SystemExit) as exit_info:
            main(argv)
        assert exit_info.value.code == 2
        assert f"speedllm {argv[0]}: error: " in capsys.readouterr().err

    def test_errors_after_configuration_keep_their_type(self, monkeypatch):
        """Only the flag-mapping region is a usage error."""
        from repro import bench

        def broken(*args, **kwargs):
            raise ValueError("raised by the run, not by a flag")

        monkeypatch.setattr(bench, "serve_bench", broken)
        with pytest.raises(ValueError, match="raised by the run"):
            main(["serve-bench", "--model", "test-small"])


class TestCompileBenchCommand:
    def test_parser_defaults(self):
        args = build_parser().parse_args(["compile-bench"])
        assert args.model == "stories15M"
        assert args.ctx_bucket == 32
        assert args.min_speedup == 1.10
        assert args.min_hit_rate == 0.90

    def test_reports_speedup_and_hit_rates(self, capsys):
        code = main([
            "compile-bench", "--model", "test-small",
            "--requests", "3", "--prompt-words", "12", "--tokens", "16",
            "--ctx-bucket", "8",
            "--min-speedup", "0.99", "--min-hit-rate", "0.50",
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "autotuned speedup" in out
        assert "cache hit rate" in out
        assert "token identity         PASS" in out

    def test_json_payload_carries_headline_numbers(self, capsys):
        code = main([
            "compile-bench", "--model", "test-small",
            "--requests", "3", "--prompt-words", "12", "--tokens", "16",
            "--ctx-bucket", "8",
            "--min-speedup", "0.99", "--min-hit-rate", "0.50",
            "--json", "-",
        ])
        out = capsys.readouterr().out
        assert code == 0
        payload = json.loads(out)
        assert payload["schema"] == "COMPILE_BENCH_v1"
        assert payload["verdict"] == "pass"
        assert payload["token_identity"] == "pass"
        assert payload["speedup"] >= 0.99
        assert payload["steady_state_hit_rate"] >= 0.5
        assert payload["autotune"]["searches"] > 0
        assert payload["host"]["warm_vs_cold_speedup"] > 1.0

    def test_unmeetable_threshold_fails(self, capsys):
        code = main([
            "compile-bench", "--model", "test-small",
            "--requests", "2", "--prompt-words", "12", "--tokens", "8",
            "--ctx-bucket", "8", "--min-speedup", "100.0",
        ])
        captured = capsys.readouterr()
        assert code == 1
        assert "below the required" in captured.err

    @pytest.mark.parametrize("flag, in_label", [([], False),
                                                (["--fp32-logits"], True)])
    def test_fp32_logits_reaches_the_engine(self, capsys, flag, in_label):
        code = main([
            "compile-bench", "--model", "test-small",
            "--requests", "2", "--prompt-words", "12", "--tokens", "8",
            "--ctx-bucket", "8", "--min-speedup", "0.5",
            "--min-hit-rate", "0.5", "--quant", "int8", *flag, "--json", "-",
        ])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert ("fp32head" in payload["quant"]) == in_label

    def test_serve_bench_compile_stats_flag(self, capsys):
        code = main([
            "serve-bench", "--model", "test-small",
            "--requests", "4", "--tokens", "8",
            "--autotune", "--ctx-bucket", "8", "--compile-stats",
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "compile phases" in out
        assert "compile cache" in out
        assert "tile autotuner" in out


class TestValidateCommand:
    def test_validation_passes_on_small_model(self, capsys):
        code = main([
            "validate", "--model", "test-small", "--prompts", "2",
            "--tokens", "6",
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "PASS" in out
        assert "TOTAL" in out


class TestExportGraphCommand:
    def test_dot_to_stdout(self, capsys):
        code = main(["export-graph", "--model", "test-micro", "--format", "dot"])
        out = capsys.readouterr().out
        assert code == 0
        assert out.startswith("digraph")

    def test_json_to_file_fused(self, tmp_path, capsys):
        path = tmp_path / "graph.json"
        code = main([
            "export-graph", "--model", "test-micro", "--fused",
            "--format", "json", "--output", str(path),
        ])
        assert code == 0
        payload = json.loads(path.read_text())
        kinds = {op["kind"] for op in payload["operators"]}
        assert "fused" in kinds
