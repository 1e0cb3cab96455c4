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
            (["run", "compress", "--runtime", "thread", "--workers", "0"],
             "--workers"),
            (["run", "compress", "--runtime", "parallel"], "--runtime"),
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
