"""CLI execution flags and the ``fouryears telemetry`` subcommand."""

import json

import pytest

from repro.cli import build_parser, main
from repro.engine.telemetry import read_telemetry


class TestExecutionFlags:
    def test_jobs_defaults_to_auto(self):
        args = build_parser().parse_args(["simulate"])
        assert args.jobs == "auto"
        assert args.telemetry is None

    def test_jobs_is_the_only_worker_flag(self, capsys):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["simulate", "--shard-strategy", "cost"])
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_invalid_jobs_exits_2(self, tmp_path, capsys):
        code = main([
            "simulate", "--scale", "0.002",
            "--out", str(tmp_path / "t.jsonl"), "--jobs", "warp",
        ])
        assert code == 2
        assert "jobs must be" in capsys.readouterr().err

    def test_simulate_prints_plan_line(self, tmp_path, capsys):
        code = main([
            "simulate", "--scale", "0.002", "--seed", "7",
            "--out", str(tmp_path / "t.jsonl"), "--jobs", "serial",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "plan: serial" in out
        assert "policy requested serial execution" in out


class TestTelemetrySubcommand:
    @pytest.fixture(scope="class")
    def recorded(self, tmp_path_factory):
        out_dir = tmp_path_factory.mktemp("telemetry")
        telemetry = out_dir / "runs.jsonl"
        for seed in ("7", "8"):
            assert main([
                "simulate", "--scale", "0.002", "--seed", seed,
                "--out", str(out_dir / f"t{seed}.jsonl"),
                "--telemetry", str(telemetry),
            ]) == 0
        return telemetry

    def test_file_accumulates_one_run_per_invocation(self, recorded):
        runs = read_telemetry(recorded)
        assert len(runs) == 2
        assert all(run.kind == "trace" for run in runs)

    def test_renders_plan_stage_and_shard_tables(self, recorded, capsys):
        assert main(["telemetry", str(recorded)]) == 0
        out = capsys.readouterr().out
        assert "run 1/2: trace" in out
        assert "run 2/2: trace" in out
        assert "stage:execute" in out
        assert "per-shard execution" in out
        assert "est cost" not in out

    def test_last_flag_shows_only_latest(self, recorded, capsys):
        assert main(["telemetry", str(recorded), "--last"]) == 0
        out = capsys.readouterr().out
        assert "run 2/2: trace" in out
        assert "run 1/2" not in out

    def test_schema_v1_document_still_renders(self, tmp_path, capsys):
        # v1 carried cost-model keys that v2 dropped; old files must
        # still read back and render, the extra keys ignored.
        v1 = {
            "schema_version": 1,
            "kind": "trace",
            "plan": {
                "requested_jobs": "auto", "mode": "parallel", "jobs": 2,
                "reason": "estimated parallel win on 2 CPUs",
                "probed_cpus": 2, "cpu_source": "sched_getaffinity",
                "n_shards": 2,
                "estimated_serial_seconds": 3.0,
                "estimated_parallel_seconds": 1.8,
            },
            "stages": [
                {"name": "execute", "wall_seconds": 1.2, "cpu_seconds": 2.2},
            ],
            "shards": [
                {"index": i, "idc": f"dc0{i}", "n_servers": 100,
                 "n_tickets": 900, "estimated_cost": 100.0,
                 "dispatch_order": 1 - i, "queue_depth": 0,
                 "wall_seconds": 0.6, "cpu_seconds": 0.6}
                for i in range(2)
            ],
            "cache": None,
        }
        path = tmp_path / "v1.jsonl"
        path.write_text(json.dumps(v1) + "\n", encoding="utf-8")
        (run,) = read_telemetry(path)
        assert run.schema_version == 1
        assert run.plan.reason == "estimated parallel win on 2 CPUs"
        assert [s.idc for s in run.shards] == ["dc00", "dc01"]
        assert main(["telemetry", str(path)]) == 0
        out = capsys.readouterr().out
        assert "run 1/1: trace" in out
        assert "parallel (jobs=2)" in out
        assert "per-shard execution" in out and "dc01" in out

    def test_missing_file_exits_2(self, tmp_path, capsys):
        code = main(["telemetry", str(tmp_path / "absent.jsonl")])
        assert code == 2
        assert "no telemetry file" in capsys.readouterr().err

    def test_malformed_file_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.jsonl"
        bad.write_text("{broken\n", encoding="utf-8")
        assert main(["telemetry", str(bad)]) == 2
        assert "error:" in capsys.readouterr().err

    def test_empty_file_exits_1(self, tmp_path, capsys):
        empty = tmp_path / "empty.jsonl"
        empty.write_text("", encoding="utf-8")
        assert main(["telemetry", str(empty)]) == 1
        assert "no runs recorded" in capsys.readouterr().out
