"""The command-line interface."""

import pytest

import repro.dse.engine as engine_mod
from repro.cli import _parse_point, build_parser, main
from repro.dse.space import DesignPoint
from repro.dse.sweep import DesignPointResult, WorkloadOutcome
from repro.errors import MappingError, NeuroMeterError


def test_parse_point():
    assert _parse_point("64,2,2,4") == DesignPoint(64, 2, 2, 4)


def test_parse_point_rejects_garbage():
    with pytest.raises(NeuroMeterError):
        _parse_point("64x2")


def test_parser_lists_all_commands():
    parser = build_parser()
    text = parser.format_help()
    for command in ("report", "validate", "simulate", "dse", "sparsity"):
        assert command in text


def test_report_command(capsys):
    assert main(["report", "--point", "32,2,2,2", "--depth", "1"]) == 0
    out = capsys.readouterr().out
    assert "peak TOPS" in out
    assert "white space" in out


def test_report_rejects_bad_point(capsys):
    assert main(["report", "--point", "nope"]) == 2
    assert "error:" in capsys.readouterr().err


def test_validate_single_chip(capsys):
    assert main(["validate", "--chip", "tpu-v1"]) == 0
    out = capsys.readouterr().out
    assert "TPU-v1" in out
    assert "TDP" in out


def test_simulate_command(capsys):
    code = main(
        [
            "simulate",
            "--workload",
            "resnet",
            "--batch",
            "2",
            "--point",
            "32,2,2,2",
        ]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "throughput" in out
    assert "TOPS/W" in out


def test_dse_explicit_points(capsys):
    code = main(
        ["dse", "--batch", "1", "--point", "32,2,1,2", "--point", "64,1,1,2"]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "(32,2,1,2)" in out
    assert "(64,1,1,2)" in out


def test_sparsity_command(capsys):
    assert main(["sparsity", "--sparsity", "0.9"]) == 0
    out = capsys.readouterr().out
    assert "TU8" in out
    assert "0.90" in out


def test_timing_command(capsys):
    assert main(["timing", "--point", "32,2,2,2", "--top", "5"]) == 0
    out = capsys.readouterr().out
    assert "cycle ns" in out
    assert "ok" in out


def test_optimize_command(capsys):
    code = main(
        [
            "optimize",
            "--objective",
            "tops-per-watt",
            "--point",
            "64,2,2,4",
            "--point",
            "128,4,1,1",
        ]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "best for tops-per-watt: (128,4,1,1)" in out


def test_optimize_reports_infeasible(capsys):
    code = main(
        [
            "optimize",
            "--objective",
            "tops",
            "--max-area",
            "1",
            "--point",
            "64,2,2,4",
        ]
    )
    assert code == 2
    assert "error:" in capsys.readouterr().err


def test_floorplan_command(capsys):
    assert main(["floorplan", "--point", "32,2,2,2", "--columns", "24"]) == 0
    out = capsys.readouterr().out
    assert "outline" in out
    assert "cores" in out


def _fake_evaluate(point, workloads=(), batches=(), ctx=None, slo=10.0):
    """Cheap evaluate_point stand-in for engine-flag tests."""
    if point == DesignPoint(4, 1, 1, 1) and workloads:
        raise MappingError("cannot map conv1")
    outcomes = tuple(
        WorkloadOutcome(
            workload=name,
            batch=1,
            regime="bs=1",
            achieved_tops=10.0,
            utilization=0.5,
            runtime_power_w=80.0,
            latency_ms=1.0,
        )
        for name, _graph in workloads
    )
    return DesignPointResult(
        point=point,
        area_mm2=300.0,
        tdp_w=100.0,
        peak_tops=50.0,
        estimate=None,
        outcomes=outcomes,
    )


def test_dse_engine_flags_parse_on_both_subcommands():
    parser = build_parser()
    for command in ("dse", "optimize"):
        args = parser.parse_args(
            [command, "--jobs", "2", "--timeout-s", "5",
             "--journal", "j.jsonl", "--resume", "--keep-going"]
        )
        assert args.jobs == 2
        assert args.timeout_s == 5.0
        assert args.journal == "j.jsonl"
        assert args.resume and args.keep_going


def test_dse_keep_going_isolates_failures(capsys, monkeypatch):
    # Pin the scalar backend: the fake is patched over evaluate_point,
    # which the default auto backend would bypass via the vector path.
    monkeypatch.setattr(engine_mod, "evaluate_point", _fake_evaluate)
    code = main(
        ["dse", "--batch", "1", "--keep-going", "--backend", "scalar",
         "--point", "4,1,1,1", "--point", "16,1,2,2"]
    )
    assert code == 0
    captured = capsys.readouterr()
    assert "(16,1,2,2)" in captured.out
    # The broken point is salvaged as a peak-only (degraded) row, and its
    # original failure is explained on stderr.
    assert "(4,1,1,1)" in captured.out
    assert "degraded points" in captured.err
    assert "MappingError" in captured.err


def test_dse_without_keep_going_aborts(capsys, monkeypatch):
    monkeypatch.setattr(engine_mod, "evaluate_point", _fake_evaluate)
    code = main(
        ["dse", "--batch", "1", "--backend", "scalar",
         "--point", "4,1,1,1"]
    )
    assert code == 2
    assert "error:" in capsys.readouterr().err


def test_dse_expanded_space_requires_the_surrogate(capsys, monkeypatch):
    monkeypatch.setattr(engine_mod, "evaluate_point", _fake_evaluate)
    code = main(["dse", "--expanded-space", "--batch", "1"])
    assert code == 2
    captured = capsys.readouterr()
    assert "--strategy surrogate" in captured.err
    assert captured.out == ""


def test_dse_resume_requires_journal(capsys, monkeypatch):
    monkeypatch.setattr(engine_mod, "evaluate_point", _fake_evaluate)
    code = main(["dse", "--resume", "--point", "16,1,2,2"])
    assert code == 2
    assert "--journal" in capsys.readouterr().err


def test_dse_journal_resume_roundtrip(capsys, monkeypatch, tmp_path):
    journal = str(tmp_path / "dse.jsonl")
    monkeypatch.setattr(engine_mod, "evaluate_point", _fake_evaluate)
    assert main(
        ["dse", "--batch", "1", "--point", "16,1,2,2",
         "--journal", journal]
    ) == 0
    capsys.readouterr()

    def explode(point, workloads=(), batches=(), ctx=None, slo=10.0):
        raise AssertionError("journaled point was re-evaluated")

    monkeypatch.setattr(engine_mod, "evaluate_point", explode)
    assert main(
        ["dse", "--batch", "1", "--point", "16,1,2,2",
         "--journal", journal, "--resume"]
    ) == 0
    assert "(16,1,2,2)" in capsys.readouterr().out


def test_optimize_keep_going_reports_failures(capsys, monkeypatch):
    monkeypatch.setattr(engine_mod, "evaluate_point", _fake_evaluate)
    code = main(
        ["optimize", "--objective", "achieved-tops", "--keep-going",
         "--point", "4,1,1,1", "--point", "16,1,2,2"]
    )
    assert code == 0
    captured = capsys.readouterr()
    assert "best for achieved-tops: (16,1,2,2)" in captured.out


def test_simulate_bounds_flag(capsys):
    code = main(
        [
            "simulate",
            "--workload",
            "resnet",
            "--batch",
            "1",
            "--point",
            "32,2,2,2",
            "--bounds",
            "3",
        ]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "dominant bound" in out


def test_serve_flags_parse():
    parser = build_parser()
    args = parser.parse_args(
        ["serve", "--port", "0", "--jobs", "3", "--timeout-s", "5",
         "--deadline-s", "30", "--max-inflight", "16",
         "--retry-attempts", "4", "--breaker-threshold", "2",
         "--journal-dir", "/tmp/j", "--drain-grace-s", "7"]
    )
    assert args.port == 0
    assert args.jobs == 3
    assert args.max_inflight == 16
    assert args.retry_attempts == 4
    assert args.breaker_threshold == 2
    assert args.journal_dir == "/tmp/j"
    assert args.drain_grace_s == 7.0


def test_remote_flag_parses_on_report_and_dse():
    parser = build_parser()
    for argv in (
        ["report", "--point", "32,2,2,2",
         "--remote", "http://127.0.0.1:8757"],
        ["dse", "--point", "32,2,2,2",
         "--remote", "http://127.0.0.1:8757"],
    ):
        args = parser.parse_args(argv)
        assert args.remote == "http://127.0.0.1:8757"


def test_remote_report_refuses_unreachable_daemon(capsys):
    # Port 9 (discard) is never a NeuroMeter daemon: the client must
    # fail fast with a typed, actionable error, not a traceback.
    code = main(["report", "--point", "32,2,2,2",
                 "--remote", "http://127.0.0.1:9"])
    assert code == 2
    err = capsys.readouterr().err
    assert "error:" in err
