"""CLI tests for the robustness subcommands: corrupt, validate, --lenient."""

import json

import pytest

from repro.cli import build_parser, main


@pytest.fixture(scope="module")
def trace(tmp_path_factory):
    out = tmp_path_factory.mktemp("cli-robust") / "trace.jsonl"
    assert main(["simulate", "--scale", "0.01", "--seed", "7", "--out", str(out)]) == 0
    return out


@pytest.fixture(scope="module")
def corrupted(trace, tmp_path_factory):
    out = tmp_path_factory.mktemp("dirty") / "dirty.jsonl"
    code = main([
        "corrupt", str(trace), "--out", str(out),
        "--seed", "11", "--intensity", "0.1",
    ])
    assert code == 0
    return out


class TestParser:
    def test_corrupt_defaults(self):
        args = build_parser().parse_args(["corrupt", "trace.jsonl"])
        assert args.out == "corrupted.jsonl"
        assert args.seed == 20170626
        assert args.intensity == 0.05
        assert args.kind is None

    def test_validate_parses(self):
        args = build_parser().parse_args(["validate", "dump.csv"])
        assert args.dataset == "dump.csv"

    def test_lenient_flags(self):
        assert build_parser().parse_args(["report", "t.jsonl", "--lenient"]).lenient
        assert build_parser().parse_args(["analyze", "t.jsonl", "--lenient"]).lenient


class TestCorrupt:
    def test_writes_output_and_manifest(self, corrupted):
        assert corrupted.exists()
        manifest_path = corrupted.with_name(corrupted.name + ".manifest.json")
        manifest = json.loads(manifest_path.read_text())
        assert manifest["seed"] == 11
        assert manifest["n_output"] >= manifest["n_input"] > 0
        assert len(manifest["injections"]) == 6  # default specs: every kind

    def test_same_seed_same_bytes(self, trace, tmp_path):
        outs = []
        for name in ("a.jsonl", "b.jsonl"):
            out = tmp_path / name
            assert main([
                "corrupt", str(trace), "--out", str(out), "--seed", "99",
            ]) == 0
            outs.append(out)
        assert outs[0].read_bytes() == outs[1].read_bytes()
        manifests = [
            (o.with_name(o.name + ".manifest.json")).read_text() for o in outs
        ]
        assert manifests[0] == manifests[1]

    def test_gzip_output_same_bytes(self, trace, tmp_path):
        outs = []
        for name in ("a.jsonl.gz", "b.jsonl.gz"):
            out = tmp_path / name
            assert main([
                "corrupt", str(trace), "--out", str(out), "--seed", "99",
            ]) == 0
            outs.append(out)
        assert outs[0].read_bytes() == outs[1].read_bytes()

    def test_selected_kinds_only(self, trace, tmp_path, capsys):
        out = tmp_path / "skewed.jsonl"
        code = main([
            "corrupt", str(trace), "--out", str(out),
            "--kind", "clock_skew:0.3", "--kind", "drop_op_time",
        ])
        assert code == 0
        manifest = json.loads(
            (out.with_name(out.name + ".manifest.json")).read_text()
        )
        assert [i["kind"] for i in manifest["injections"]] == [
            "clock_skew", "drop_op_time",
        ]

    def test_unknown_kind_fails(self, trace, tmp_path):
        code = main([
            "corrupt", str(trace),
            "--out", str(tmp_path / "x.jsonl"), "--kind", "gremlins",
        ])
        assert code != 0


class TestValidate:
    def test_clean_trace_passes(self, trace, capsys):
        assert main(["validate", str(trace)]) == 0
        out = capsys.readouterr().out
        assert "skipped 0 lines" in out
        assert "data quality: ok" in out

    def test_corrupted_trace_flagged(self, corrupted, capsys):
        assert main(["validate", str(corrupted)]) == 1
        out = capsys.readouterr().out
        assert "skipped" in out
        assert "data quality:" in out


class TestLenientAnalysis:
    def test_report_lenient_survives_corruption(self, corrupted, capsys):
        assert main(["report", str(corrupted), "--lenient"]) == 0
        out = capsys.readouterr().out
        assert "Table I" in out
        assert "skipped" in out  # quarantine summary printed

    def test_report_strict_still_dies(self, corrupted, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["report", str(corrupted)])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert "error: line" in err
        assert "--lenient" in err

    def test_analyze_lenient(self, corrupted, capsys):
        assert main(["analyze", str(corrupted), "--lenient"]) == 0
        out = capsys.readouterr().out
        assert "RT (D_fixing)" in out
