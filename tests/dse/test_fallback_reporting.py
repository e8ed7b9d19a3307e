"""Per-point fallback provenance through the engine, journal, and report.

When the ``auto`` backend routes a point back to the scalar path, the
reason (the ``repro.batch.estimator`` taxonomy) must land on the
:class:`PointRecord`, survive a journal round trip, and roll up in
:meth:`SweepReport.fallback_totals` — instead of vanishing as it did
before PR 7.
"""

from __future__ import annotations

import pytest

from dataclasses import replace

from repro.arch.chip import Chip
from repro.batch.estimator import BUILD_FAILED, SRAM_INFEASIBLE
from repro.config.presets import (
    datacenter_context,
    datacenter_design_point,
    tpu_v1,
)
from repro.dse.engine import run_sweep
from repro.dse.journal import load_journal
from repro.dse.space import DesignPoint


class ForeignPoint(DesignPoint):
    """Builds a chip of a shape no preset has; it vectorizes all the same."""

    def build(self):
        return tpu_v1()


class InfeasiblePoint(DesignPoint):
    """Builds a chip whose Mem no SRAM organization can feed."""

    def build(self):
        chip = datacenter_design_point(self.x, self.n, self.tx, self.ty)
        core = chip.config.core
        mem = replace(core.mem, read_bandwidth_gbps=1e9)
        return Chip(replace(chip.config, core=replace(core, mem=mem)))


class BrokenPoint(DesignPoint):
    """build() raises outright."""

    def build(self):
        raise RuntimeError("intentional build failure")


def test_auto_backend_tags_fallback_reasons_on_records():
    ctx = datacenter_context()
    points = [
        DesignPoint(16, 1, 2, 2),
        ForeignPoint(8, 1, 1, 1),
        BrokenPoint(4, 1, 1, 1),
    ]
    report = run_sweep(points, ctx=ctx, backend="auto", retry_degraded=False)
    by_coords = {(r.point.x, r.point.n): r for r in report.records}

    vectorized = by_coords[(16, 1)]
    assert vectorized.status == "ok"
    assert vectorized.fallback is None

    foreign = by_coords[(8, 1)]
    assert foreign.status == "ok"
    assert foreign.fallback is None  # every shape vectorizes

    broken = by_coords[(4, 1)]
    assert broken.status == "failed"  # scalar re-raises the real error
    assert broken.fallback == BUILD_FAILED
    assert broken.failure is not None
    assert "intentional build failure" in broken.failure.message

    assert report.fallback_totals() == {BUILD_FAILED: 1}


def test_scalar_backend_reports_no_fallbacks():
    report = run_sweep(
        [DesignPoint(16, 1, 2, 2)], ctx=datacenter_context(),
        backend="scalar",
    )
    assert report.fallback_totals() == {}
    assert all(r.fallback is None for r in report.records)


def test_fallback_reason_round_trips_through_the_journal(tmp_path):
    ctx = datacenter_context()
    journal = tmp_path / "sweep.jsonl"
    points = [DesignPoint(16, 1, 2, 2), InfeasiblePoint(8, 1, 1, 1)]
    run_sweep(points, ctx=ctx, backend="auto", journal_path=journal)

    entries = load_journal(journal)
    by_coords = {(e.point.x, e.point.n): e for e in entries}
    assert by_coords[(16, 1)].fallback is None
    assert by_coords[(8, 1)].fallback == SRAM_INFEASIBLE

    # Resume rehydrates the tag onto the records of the resumed sweep.
    # (The subclass point cannot match its journal row — rehydrated
    # points are base DesignPoints — so it re-evaluates and is re-tagged;
    # the base point comes straight from the journal.)
    resumed = run_sweep(
        points, ctx=ctx, backend="auto", journal_path=journal, resume=True
    )
    resumed_by_coords = {
        (r.point.x, r.point.n): r for r in resumed.records
    }
    assert resumed_by_coords[(16, 1)].from_journal
    assert resumed_by_coords[(8, 1)].fallback == SRAM_INFEASIBLE
    assert resumed.fallback_totals() == {SRAM_INFEASIBLE: 1}


def test_workload_metrics_include_latency(tmp_path):
    from repro.workloads import mobilenet_v2

    ctx = datacenter_context()
    report = run_sweep(
        [DesignPoint(16, 1, 2, 2)],
        [("MobileNet", mobilenet_v2())],
        [1],
        ctx,
        backend="auto",
        journal_path=tmp_path / "sweep.jsonl",
    )
    (record,) = report.records
    (outcome,) = record.metrics["outcomes"]
    assert outcome["latency_ms"] is not None
    assert outcome["latency_ms"] > 0

    (entry,) = load_journal(tmp_path / "sweep.jsonl")
    (journaled,) = entry.metrics["outcomes"]
    assert journaled["latency_ms"] == outcome["latency_ms"]
