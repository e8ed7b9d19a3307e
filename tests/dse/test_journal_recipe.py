"""A journal resumes only for the recipe it was written for.

``run_sweep`` stamps every journal it creates with a recipe digest —
context, workload names and content, batches, latency SLO — and a resume,
a shard worker and a shard merge check that stamp (and their own digests)
through :func:`repro.dse.journal.check_stamps`.  Options that never change
a row (backend, jobs, retries) stay out of the recipe, and journals
written before the stamp existed still resume.
"""

from __future__ import annotations

import json

import pytest

import repro.dse.engine as engine_mod
from repro.arch.component import ModelContext
from repro.cli import _WORKLOADS, main
from repro.config.presets import datacenter_context
from repro.dse.engine import run_sweep
from repro.dse.journal import (
    Journal,
    JournalEntry,
    check_stamps,
    journal_header,
    load_journal,
    recipe_digest,
    summarize_result,
)
from repro.dse.optimizer import Objective, optimize_design
from repro.dse.shard import build_manifest, merge_journals, run_shard
from repro.dse.space import DesignPoint
from repro.dse.sweep import DesignPointResult, WorkloadOutcome
from repro.errors import ConfigurationError, MappingError
from repro.perf.graph import Graph
from repro.perf.ops import Conv2d
from repro.tech.node import node

POINTS = [DesignPoint(16, 1, 2, 2), DesignPoint(32, 1, 2, 2)]
DEGRADES = DesignPoint(32, 1, 2, 2)
FAILS = DesignPoint(8, 1, 2, 2)


def _result(point, workloads=()) -> DesignPointResult:
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
        for name, _ in workloads
    )
    return DesignPointResult(
        point=point,
        area_mm2=100.0 + point.x,
        tdp_w=50.0,
        peak_tops=10.0,
        estimate=None,
        outcomes=outcomes,
    )


@pytest.fixture
def fake_model(monkeypatch):
    """A cheap stand-in model: recipes, not numbers, are under test.

    ``DEGRADES`` fails whenever it is simulated, so the engine's retry
    salvages its peak-only row (status ``degraded``); ``FAILS`` always
    fails.
    """

    def fake(point, workloads=(), batches=(), ctx=None, slo=10.0):
        if point == FAILS:
            raise MappingError("the stand-in point never maps")
        if point == DEGRADES and workloads:
            raise MappingError("cannot map the stand-in workload")
        return _result(point, workloads)

    monkeypatch.setattr(engine_mod, "evaluate_point", fake)


def _tiny(channels: int) -> Graph:
    """A one-layer graph; two of them differ only in their layers."""
    graph = Graph("tiny", (8, 8, 3))
    graph.add("conv", Conv2d(out_channels=channels))
    return graph


def _sweep(path, resume=False, **kwargs):
    recipe = {"workloads": [("tiny", _tiny(16))], "batches": [1]}
    recipe.update(kwargs)
    return run_sweep(
        POINTS,
        strict=False,
        journal_path=path,
        resume=resume,
        **recipe,
    )


# -- the recipe -----------------------------------------------------------------


def test_recipe_covers_what_changes_a_row():
    base = recipe_digest([("tiny", _tiny(16))], [1])
    assert base == recipe_digest([("tiny", _tiny(16))], [1])
    assert base == recipe_digest(
        [("tiny", _tiny(16))], [1], datacenter_context()
    )
    others = [
        recipe_digest([("tiny", _tiny(32))], [1]),  # workload content
        recipe_digest([("other", _tiny(16))], [1]),  # workload name
        recipe_digest([("tiny", _tiny(16))], [256]),  # batches
        recipe_digest([("tiny", _tiny(16))], [1], latency_slo_ms=5.0),
        recipe_digest(
            [("tiny", _tiny(16))],
            [1],
            ModelContext(tech=node(28), freq_ghz=1.0),  # clock
        ),
        recipe_digest(
            [("tiny", _tiny(16))],
            [1],
            ModelContext(tech=node(16), freq_ghz=0.7),  # node
        ),
    ]
    assert len({base, *others}) == 1 + len(others)


def test_stand_in_workloads_have_a_recipe():
    assert recipe_digest([("fake", None)], [1]) != recipe_digest([], [1])


def test_new_journals_carry_the_recipe(tmp_path, fake_model):
    path = tmp_path / "sweep.jsonl"
    _sweep(path)
    meta = journal_header(path)["meta"]
    assert meta["recipe"] == recipe_digest([("tiny", _tiny(16))], [1])


# -- refusals -------------------------------------------------------------------


@pytest.mark.parametrize(
    "change",
    [
        {"ctx": ModelContext(tech=node(28), freq_ghz=1.0)},
        {"ctx": ModelContext(tech=node(16), freq_ghz=0.7)},
        {"batches": [256]},
        {"workloads": [("tiny", _tiny(32))]},
        {"workloads": [("other", _tiny(16))]},
        {"latency_slo_ms": 5.0},
    ],
    ids=["clock", "node", "batches", "workload-content", "workload-name",
         "slo"],
)
def test_resume_refuses_another_recipe(tmp_path, fake_model, change):
    path = tmp_path / "sweep.jsonl"
    _sweep(path)
    before = path.read_bytes()
    with pytest.raises(ConfigurationError, match="recipe") as excinfo:
        _sweep(path, resume=True, **change)
    assert str(path) in str(excinfo.value)
    assert path.read_bytes() == before  # refused before touching the file


def test_cli_resume_from_another_recipe_exits_2(tmp_path, capsys):
    path = str(tmp_path / "j.jsonl")
    argv = ["dse", "--point", "16,1,2,2", "--journal", path]
    assert main(argv + ["--batch", "1"]) == 0
    written = journal_header(path)["meta"]["recipe"]
    capsys.readouterr()
    assert main(argv + ["--batch", "256", "--resume"]) == 2
    err = capsys.readouterr().err
    assert path in err
    assert written in err
    workloads = [(name, fn()) for name, fn in _WORKLOADS.items()]
    assert recipe_digest(workloads, [256]) in err


# -- acceptances ----------------------------------------------------------------


@pytest.mark.parametrize(
    "change",
    [
        {"backend": "auto"},
        {"jobs": 2},
        {"retry_degraded": False},
        {"timeout_s": 30.0, "chunk_size": 1},
        {"ctx": datacenter_context()},
    ],
    ids=["backend", "jobs", "retry", "timeout-chunks", "explicit-ctx"],
)
def test_resume_ignores_what_never_changes_a_row(tmp_path, fake_model,
                                                 change):
    path = tmp_path / "sweep.jsonl"
    _sweep(path)
    report = _sweep(path, resume=True, **change)
    assert all(record.from_journal for record in report.records)


def test_journal_without_a_recipe_still_resumes(tmp_path, fake_model):
    path = tmp_path / "legacy.jsonl"
    with Journal(path) as journal:  # header written before the stamp
        journal.append(JournalEntry(
            point=POINTS[0],
            status="ok",
            metrics=summarize_result(_result(POINTS[0])),
        ))
    report = _sweep(path, resume=True, batches=[256])
    assert [r.from_journal for r in report.records] == [True, False]
    assert "recipe" not in journal_header(path).get("meta", {})


def test_check_stamps_compares_only_shared_stamps(tmp_path):
    path = tmp_path / "sweep.jsonl"
    assert check_stamps(path, {"recipe": "a"}) == {}  # no file yet
    meta = {"sweep_digest": "s1", "shard": 0, "shards": 2}
    with Journal(path, meta=meta):
        pass
    # A stamp the header lacks passes; a descriptive key is not a stamp.
    assert check_stamps(path, {"recipe": "r", "shards": 3}) == meta
    with pytest.raises(ConfigurationError, match="no recipe"):
        check_stamps(path, {"recipe": "r"}, required=("recipe",))
    with pytest.raises(ConfigurationError, match="sweep digest s1"):
        check_stamps(path, {"sweep_digest": "s2"})
    with pytest.raises(ConfigurationError, match="shard 0"):
        check_stamps(path, {"shard": 1})


# -- callers --------------------------------------------------------------------


def test_optimize_warm_start_reports_the_cold_failures(tmp_path,
                                                       fake_model):
    path = tmp_path / "opt.jsonl"
    options = {
        "objective": Objective.PEAK_TOPS,
        "workloads": [("fake", None)],
        "strict": False,
        "journal_path": path,
    }
    points = POINTS + [FAILS]
    cold = optimize_design(points, **options)
    assert [r.status for r in run_sweep(
        points, [("fake", None)], journal_path=path, resume=True,
    ).records] == ["ok", "degraded", "failed"]
    warm = optimize_design(points, resume=True, **options)
    assert warm.exact_evaluations == 0
    # Failed points only: a degraded row ranks, its failure is not one.
    assert [f.point for f in cold.failures] == [FAILS]
    assert [f.describe() for f in warm.failures] == [
        f.describe() for f in cold.failures
    ]
    assert [r.point for r in warm.ranking] == [r.point for r in cold.ranking]


def test_optimize_warm_start_refuses_another_recipe(tmp_path, fake_model):
    path = tmp_path / "opt.jsonl"
    options = {
        "objective": Objective.PEAK_TOPS,
        "workloads": [("tiny", _tiny(16))],
        "strict": False,
        "journal_path": path,
    }
    optimize_design(POINTS, **options)
    with pytest.raises(ConfigurationError, match="recipe"):
        optimize_design(
            POINTS,
            ctx=ModelContext(tech=node(28), freq_ghz=1.0),
            resume=True,
            **options,
        )


def test_shard_merge_refuses_shards_run_at_another_clock(tmp_path):
    manifest = build_manifest(
        [DesignPoint(4 * (i + 1), 1, 2, 2) for i in range(4)], 2
    )
    run_shard(manifest, 0, tmp_path)
    run_shard(
        manifest, 1, tmp_path, ctx=ModelContext(tech=node(28), freq_ghz=1.0)
    )
    with pytest.raises(ConfigurationError, match="recipe"):
        merge_journals(manifest, tmp_path)


def test_shard_resume_refuses_another_clock(tmp_path):
    manifest = build_manifest(
        [DesignPoint(4 * (i + 1), 1, 2, 2) for i in range(2)], 1
    )
    run_shard(manifest, 0, tmp_path)
    with pytest.raises(ConfigurationError, match="recipe"):
        run_shard(
            manifest, 0, tmp_path,
            ctx=ModelContext(tech=node(28), freq_ghz=1.0),
        )


def test_merged_journal_keeps_the_recipe_and_resumes(tmp_path):
    manifest = build_manifest(
        [DesignPoint(4 * (i + 1), 1, 2, 2) for i in range(4)], 2
    )
    manifest_path = manifest.write(tmp_path / "manifest.json")
    for index in range(2):
        run_shard(manifest, index, tmp_path)
    merged = str(tmp_path / "merged.jsonl")
    assert main(
        ["merge", "--manifest", manifest_path, "--output", merged]
    ) == 0
    meta = journal_header(merged)["meta"]
    assert meta["recipe"] == recipe_digest()
    assert meta["sweep_digest"] == manifest.sweep_digest
    entries = load_journal(merged)
    assert {entry.source for entry in entries} == {"exact"}
    report = run_sweep(manifest.points, journal_path=merged, resume=True)
    assert all(record.from_journal for record in report.records)
    with pytest.raises(ConfigurationError, match="recipe"):
        run_sweep(
            manifest.points,
            ctx=ModelContext(tech=node(28), freq_ghz=1.0),
            journal_path=merged,
            resume=True,
        )
    # Every merged line parses as a point row or the header.
    for line in open(merged, encoding="utf-8"):
        assert json.loads(line)["kind"] in ("header", "point")
