"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_workload_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "nonexistent"])

    @pytest.mark.parametrize(
        "argv",
        [
            ["list"],
            ["seq", "compress"],
            ["seq", "compress", "--size", "100"],
            ["distill", "crc", "--show-asm"],
            ["run", "compress", "--slaves", "4", "--task-size", "50"],
            ["suite"],
            ["lint", "compress"],
            ["lint", "--all"],
            ["lint", "crc", "--size", "200", "--task-size", "40"],
            ["lint", "crc", "--format", "json"],
            ["analyze", "crc"],
            ["analyze", "--all"],
            ["analyze", "crc", "--size", "40", "--format", "json"],
        ],
    )
    def test_accepts_valid_invocations(self, argv):
        args = build_parser().parse_args(argv)
        assert args.command == argv[0]

    @pytest.mark.parametrize(
        "argv, flag",
        [
            (["run", "compress", "--task-size", "1"], "--task-size"),
            (["distill", "compress", "--task-size", "1"], "--task-size"),
            (["lint", "compress", "--task-size", "1"], "--task-size"),
            (["run", "compress", "--slaves", "0"], "--slaves"),
            (["timeline", "compress", "--slaves", "0"], "--slaves"),
            (["run", "compress", "--runtime", "process", "--workers", "0"],
             "--workers"),
            (["run", "compress", "--runtime", "parallel"], "--runtime"),
            (["run", "compress", "--runtime", "sim"], "--runtime"),
            (["trace", "compress", "--runtime", "sim"], "--runtime"),
            (["run", "compress", "--runtime", "thread"], "--runtime"),
        ],
    )
    def test_out_of_range_values_are_usage_errors(self, argv, flag, capsys):
        """Rejected at parse time: exit 2 with one usage line, never a
        config-validation traceback."""
        with pytest.raises(SystemExit) as exit_info:
            main(argv)
        assert exit_info.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage: ") and err.count("usage:") == 1
        assert f"error: argument {flag}: " in err
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "argv",
        [
            ["bench", "--serve"],
            ["bench", "--serve-rates", "2,8"],
            ["bench", "--serve-requests", "24"],
            ["bench", "--serve-workers", "2"],
            ["bench", "--serve-seed", "0"],
            ["sim", "compress", "--output", "BENCH_summary.json"],
            ["sim", "compress", "--no-scenarios"],
        ],
    )
    def test_deleted_flags_are_usage_errors(self, argv, capsys):
        """The serving and cluster sweeps are stages of ``repro bench``;
        their settings are constants and only ``bench`` writes the
        summary."""
        with pytest.raises(SystemExit) as exit_info:
            main(argv)
        assert exit_info.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_serve_runtime_defaults_to_eager(self):
        """As ``EpisodeServer()`` does."""
        assert build_parser().parse_args(["serve"]).runtime == "eager"


class TestCommands:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "compress" in out and "interp" in out

    def test_seq(self, capsys):
        assert main(["seq", "compress", "--size", "200"]) == 0
        out = capsys.readouterr().out
        assert "halted after" in out
        assert "result[0]" in out

    def test_distill(self, capsys):
        assert main(["distill", "compress", "--size", "300"]) == 0
        out = capsys.readouterr().out
        assert "static:" in out
        assert "dynamic:" in out

    def test_distill_show_asm(self, capsys):
        assert main(
            ["distill", "compress", "--size", "300", "--show-asm"]
        ) == 0
        out = capsys.readouterr().out
        assert "fork" in out

    def test_run(self, capsys):
        assert main(
            ["run", "compress", "--size", "300", "--slaves", "4"]
        ) == 0
        out = capsys.readouterr().out
        assert "equivalent to SEQ" in out
        assert "speedup" in out

    def test_run_runtime_flag_beats_the_environment(
        self, monkeypatch, capsys
    ):
        """An explicit ``--runtime eager`` is immune to REPRO_RUNTIME,
        and ``--workers`` always reaches the engine."""
        from repro.experiments import harness

        built = []
        create_engine = harness.create_engine

        def recording(*args, **kwargs):
            built.append(create_engine(*args, **kwargs))
            return built[-1]

        monkeypatch.setattr(harness, "create_engine", recording)
        monkeypatch.setenv("REPRO_RUNTIME", "process")
        assert main([
            "run", "crc", "--size", "6", "--runtime", "eager",
            "--workers", "3",
        ]) == 0
        assert [engine.runtime for engine in built] == ["eager"]
        assert built[0].config.num_slaves == 3
        out = capsys.readouterr().out
        assert "runtime:                 eager (3 slave workers)" in out

    def test_run_with_task_size(self, capsys):
        assert main(
            ["run", "compress", "--size", "300", "--task-size", "40"]
        ) == 0
        out = capsys.readouterr().out
        assert "speedup" in out

    def test_lint_single_workload(self, capsys):
        assert main(["lint", "compress", "--size", "300"]) == 0
        out = capsys.readouterr().out
        assert "compress: ok" in out
        assert "compress: distilled: ok" in out
        assert "lint: 1 workload(s), clean" in out

    def test_lint_without_workload_or_all_fails(self, capsys):
        assert main(["lint"]) == 2
        err = capsys.readouterr().err
        assert "--all" in err

    def test_lint_json(self, capsys):
        import json

        assert main(["lint", "crc", "--size", "200", "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["ok"] is True
        assert payload["workloads"][0]["workload"] == "crc"
        reports = payload["workloads"][0]["reports"]
        assert all(r["ok"] for r in reports)
        # Same finding schema as ``repro analyze --format json``.
        assert {"subject", "ok", "errors", "warnings", "findings"} <= (
            set(reports[0])
        )

    def test_analyze_text(self, capsys):
        assert main(["analyze", "crc", "--size", "40"]) == 0
        out = capsys.readouterr().out
        assert "anchor" in out
        assert "proven" in out
        assert "static verify skips" in out

    def test_analyze_json(self, capsys):
        import json

        assert main(
            ["analyze", "crc", "--size", "40", "--format", "json"]
        ) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["ok"] is True
        entry = payload["workloads"][0]
        assert entry["workload"] == "crc"
        assert entry["safety"]["counts"]["proven"] >= 1
        assert entry["runtime"]["static_verify_skips"] > 0
        assert entry["regions"]

    def test_analyze_without_workload_or_all_fails(self, capsys):
        assert main(["analyze"]) == 2
        err = capsys.readouterr().err
        assert "--all" in err

    def test_timeline(self, capsys):
        assert main(
            ["timeline", "compress", "--size", "300", "--slaves", "2",
             "--width", "40"]
        ) == 0
        out = capsys.readouterr().out
        assert "master" in out
        assert "slave 0" in out
        assert "legend" in out

    def test_trace_export_and_import(self, tmp_path, capsys):
        path = str(tmp_path / "trace.jsonl")
        assert main(
            ["trace", "compress", "--size", "200", "--export", path]
        ) == 0
        assert f"to {path}" in capsys.readouterr().out
        assert main(["trace", "--import", path]) == 0
        assert "imported" in capsys.readouterr().out

    def test_sim(self, capsys):
        assert main(
            ["sim", "compress", "--size", "300", "--slaves", "2,4"]
        ) == 0
        out = capsys.readouterr().out
        assert "slave-count sweep" in out
        for scenario in (
            "contended-link", "heterogeneous-slaves", "slave-failure"
        ):
            assert scenario in out


class TestTraceInputErrors:
    """Bad ``repro trace`` input ends in one ``trace:`` line, exit 2."""

    def assert_usage_error(self, argv, capsys, message):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("trace: ")
        assert captured.err.count("\n") == 1
        assert message in captured.err
        assert "Traceback" not in captured.err
        return captured

    def test_missing_import_file(self, tmp_path, capsys):
        path = str(tmp_path / "missing.jsonl")
        self.assert_usage_error(
            ["trace", "--import", path], capsys, "missing.jsonl"
        )

    def test_unknown_event_kind(self, tmp_path, capsys):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"kind": "nosuch"}\n')
        self.assert_usage_error(
            ["trace", "--import", str(path)], capsys,
            "trace line 1: unknown event kind 'nosuch'",
        )

    def test_export_into_missing_directory(self, tmp_path, capsys):
        path = str(tmp_path / "absent" / "trace.jsonl")
        captured = self.assert_usage_error(
            ["trace", "compress", "--size", "200", "--export", path],
            capsys, "absent",
        )
        # The bad path is caught before the capture runs.
        assert "captured" not in captured.out
