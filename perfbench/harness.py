"""Shared bookkeeping for the workloads: ops, samples, failures, layers."""

from __future__ import annotations

import time
from collections import defaultdict
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field
from typing import Iterator, Optional

from perfbench import stats
from perfbench.spans import SpanRecorder
from perfbench.tracing import installed

#: End-to-end metrics every workload reports: name -> (unit, better).
END_TO_END = {
    "setup_s": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
    "model_max_err_pct": ("%", "lower"),
    "cold_op_ms": ("ms", "lower"),
    "warm_op_ms": ("ms", "lower"),
    "batch_points_per_s": ("points/s", "higher"),
}

#: Per-layer metrics every traced run reports (0 where a layer is idle).
PER_LAYER = {
    "batch.simulate_workloads.s": "s",
    "batch.estimate_grid.s": "s",
    "batch.substrate.s": "s",
    "batch.estimate_points.self_s": "s",
    "batch.graph_spec.s": "s",
    "batch.graph_spec.calls": "count",
    "batch.points_per_call": "points",
    "batch.fallback_points": "count",
    "cache.lookups": "count",
    "cache.hit_ratio": "ratio",
    "cache.stores": "count",
    "cache.evictions": "count",
    "cache.get.s": "s",
    "cache.put.s": "s",
    "journal.appends": "count",
    "journal.append.s": "s",
    "engine.run_sweep.self_s": "s",
    "integrity.validate_result.s": "s",
    "surrogate.fit.s": "s",
    "surrogate.fit.calls": "count",
    "surrogate.predict.s": "s",
    "surrogate.featurize.s": "s",
    "surrogate.training_rows.s": "s",
    "surrogate.evaluate.s": "s",
    "surrogate.evaluate.points_per_call": "points",
    "surrogate.search.self_s": "s",
    "surrogate.frontier_per_eval": "ratio",
    "serve.estimate.engine_ms": "ms",
    "serve.estimate.overhead_ms": "ms",
    "serve.cold_estimate.engine_ms": "ms",
    "serve.cold_estimate.overhead_ms": "ms",
    "serve.sweep.engine_ms": "ms",
    "serve.sweep.overhead_ms": "ms",
    "serve.responses.2xx": "count",
    "serve.responses.4xx": "count",
    "serve.responses.5xx": "count",
    "serve.pool.respawns": "count",
    "serve.parent_cache.misses_per_request": "count",
    "serve.requests_journaled": "count",
    "serve.worker_rss_mb": "MB",
    "model.area_err_pct.tpu_v1": "%",
    "model.area_err_pct.tpu_v2": "%",
    "model.area_err_pct.eyeriss": "%",
    "model.tdp_err_pct.tpu_v1": "%",
    "model.tdp_err_pct.tpu_v2": "%",
    "setup.import_s": "s",
    "setup.warmup_s": "s",
    "setup.daemon_boot_s": "s",
    "trace.overhead_pct": "%",
}

#: Span name -> per-layer metric fed by the span's total time.
SPAN_TOTALS = {
    "batch.simulate_workloads": "batch.simulate_workloads.s",
    "batch.estimate_grid": "batch.estimate_grid.s",
    "batch.substrate": "batch.substrate.s",
    "batch.graph_spec": "batch.graph_spec.s",
    "cache.get": "cache.get.s",
    "cache.put": "cache.put.s",
    "journal.append": "journal.append.s",
    "integrity.validate_result": "integrity.validate_result.s",
    "surrogate.fit": "surrogate.fit.s",
    "surrogate.predict": "surrogate.predict.s",
    "surrogate.featurize": "surrogate.featurize.s",
    "surrogate.training_rows": "surrogate.training_rows.s",
    "surrogate.evaluate": "surrogate.evaluate.s",
}

#: Span name -> per-layer metric fed by the span's call count.
SPAN_CALLS = {
    "batch.graph_spec": "batch.graph_spec.calls",
    "journal.append": "journal.appends",
    "surrogate.fit": "surrogate.fit.calls",
}

#: Span name -> per-layer metric fed by the span's self time.
SPAN_SELF = {
    "batch.estimate_points": "batch.estimate_points.self_s",
    "engine.run_sweep": "engine.run_sweep.self_s",
    # The search's exact evaluations are run_sweep calls too.
    "surrogate.evaluate": "engine.run_sweep.self_s",
    "surrogate.search": "surrogate.search.self_s",
}


@dataclass
class Run:
    """Everything one workload run measured."""

    workload: str
    seconds: float
    trace: bool
    #: Whether traced ops wrap the program's functions; false when the
    #: program runs in another process (the daemon).
    wraps_program: bool = True
    recorder: SpanRecorder = field(default_factory=SpanRecorder)
    #: Op kind -> op times in seconds, untraced and traced.
    timings: dict = field(default_factory=lambda: defaultdict(list))
    traced: dict = field(default_factory=lambda: defaultdict(list))
    layer_rows: list = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    failures: list = field(default_factory=list)
    #: End-to-end metric -> value, and -> the sample count behind it.
    e2e: dict = field(default_factory=dict)
    counts: dict = field(default_factory=dict)
    #: Per-workload figures under their own names: name -> (value, unit, n).
    figures: dict = field(default_factory=dict)
    layers: dict = field(default_factory=dict)
    report: list = field(default_factory=list)
    main_kind: str = ""

    def traced_op(self, index: int) -> bool:
        """In a traced run, ops alternate traced / untraced."""
        return self.trace and index % 2 == 0

    @contextmanager
    def op(self, kind: str, traced: bool, span: str, per: int = 1,
           **attrs) -> Iterator[dict]:
        """Time one op of ``kind``; the body stores its output in the box.

        An op that is a burst of ``per`` identical calls records the time
        per call.  An op that raises is counted as failed and suppressed,
        so one bad op cannot end the run; ``box["ok"]`` tells the caller
        whether to check the output.
        """
        box: dict = {"op_id": None, "ok": False}
        self.attempted += 1
        wrappers = (
            installed(self.recorder) if traced and self.wraps_program
            else nullcontext()
        )
        scope = (
            self.recorder.span(span, self.recorder.new_op(), kind=kind,
                               **attrs)
            if traced else nullcontext()
        )
        try:
            with wrappers, scope as record:
                if record is not None:
                    box["op_id"] = record.op_id
                start = time.perf_counter()
                yield box
                elapsed = (time.perf_counter() - start) / per
        except Exception as error:
            self.fail(f"{kind} op raised {type(error).__name__}: {error}")
            return
        (self.traced if traced else self.timings)[kind].append(elapsed)
        box["elapsed"] = elapsed
        box["ok"] = True

    def fail(self, message: str) -> None:
        self.failed += 1
        if len(self.failures) < 5:
            self.failures.append(message)

    def check(self, problem: Optional[str]) -> None:
        """Count a failed output check (at most once per op)."""
        if problem:
            self.fail(problem)

    def span_layers(self, op_ids: list) -> dict:
        """Per-layer values summed over the spans of ``op_ids``."""
        values = {name: 0.0 for name in PER_LAYER}
        for op_id in op_ids:
            for name, row in self.recorder.per_op(op_id).items():
                if name in SPAN_TOTALS:
                    values[SPAN_TOTALS[name]] += row["total_s"]
                if name in SPAN_CALLS:
                    values[SPAN_CALLS[name]] += row["calls"]
                if name in SPAN_SELF:
                    values[SPAN_SELF[name]] += row["self_s"]
        return values

    def span_attr_total(self, op_ids: list, name: str, attr: str) -> tuple:
        """(sum of ``attr``, calls) over spans called ``name``."""
        total = calls = 0
        for span in self.recorder.spans:
            if span.op_id in op_ids and span.name == name:
                total += span.attrs.get(attr, 0)
                calls += 1
        return total, calls

    def layer_row(self, op_ids: list, cache_delta: dict) -> dict:
        """Per-layer values of one traced op group: span sums, batch
        call shapes, and the estimate-cache counter deltas."""
        row = self.span_layers(op_ids)
        points, calls = self.span_attr_total(
            op_ids, "batch.estimate_points", "points"
        )
        fallbacks, _ = self.span_attr_total(
            op_ids, "batch.estimate_points", "fallbacks"
        )
        lookups = cache_delta["hits"] + cache_delta["misses"]
        row.update({
            "batch.points_per_call": points / calls if calls else 0.0,
            "batch.fallback_points": fallbacks,
            "cache.lookups": lookups,
            "cache.hit_ratio": (
                cache_delta["hits"] / lookups if lookups else 0.0
            ),
            "cache.stores": cache_delta["stores"],
            "cache.evictions": cache_delta["evictions"],
        })
        return row

    def finish_layers(self) -> None:
        """Medians of the traced op groups, plus the tracing overhead."""
        for name in PER_LAYER:
            values = [row[name] for row in self.layer_rows if name in row]
            self.layers[name] = stats.median(values) if values else 0.0
        traced = self.traced[self.main_kind]
        plain = self.timings[self.main_kind]
        if traced and plain:
            self.layers["trace.overhead_pct"] = 100.0 * (
                stats.median(traced) / stats.median(plain) - 1.0
            )

    def all_samples(self, kind: str) -> list:
        """Every sample of ``kind``, traced or not."""
        return self.timings[kind] + self.traced[kind]

    def p50(self, kind: str) -> float:
        return stats.median(self.all_samples(kind))

    def report_timing(self, label: str, kind: str, scale: float,
                      unit: str) -> None:
        """One human report line: p50, tail and sample count of ``kind``."""
        samples = self.all_samples(kind)
        tail = stats.tail(samples)
        tail_text = (
            f"p{tail[0]:g} {tail[1] * scale:.4g} {unit}" if tail
            else "no tail: <10 samples beyond p90"
        )
        self.report.append(
            f"{label}: p50 {stats.median(samples) * scale:.4g} {unit}, "
            f"{tail_text}, n={len(samples)}"
        )
