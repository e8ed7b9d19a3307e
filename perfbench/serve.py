"""``serve_mixed``: mixed closed-loop traffic through ``neurometer serve``.

One ``ServeClient`` keeps one request in flight against a daemon on its
default engine flags, through a seeded sequence of hot and cold-context
``/estimate``, ``/sweep`` and ``/optimize`` requests.  The HTTP layer,
admission, the executor hop, the forked pool and the request-log and
journal fsyncs run only here.
"""

from __future__ import annotations

import os
import time

from perfbench import checks, gen, inproc, stats
from perfbench.daemon import Daemon, alive, vm_hwm_mb
from perfbench.harness import Run

NAME = "serve_mixed"

#: The program runs in the daemon, out of reach of in-process wrappers;
#: traced runs record client-side request spans only.
IN_PROCESS = False

#: Daemon boots (each with its warm-up) timed per run for ``setup_s``.
SETUP_TRIALS = 3


def _points():
    from repro.dse.space import full_grid

    return [[p.x, p.n, p.tx, p.ty] for p in full_grid()]


def _warm_up(client, points: list) -> None:
    """Warm the hot set, the workload graphs and ``/optimize``.

    A peak-only sweep of one point per ``(X, N)`` core signature leaves
    the daemon's parent cache exactly as a sweep of all 210 points does
    (the parent only pre-computes per-core substrates; point results
    live in pool workers, which every recipe change re-forks).
    """
    signatures = {}
    for point in points:
        signatures.setdefault(tuple(point[:2]), point)
    client.sweep(list(signatures.values()))
    client.sweep(points[:gen.SWEEP_POINTS], workloads=list(
        inproc.WORKLOAD_NAMES), batch=1)
    client.optimize()


def setup(src_dir: str, tmpdir: str) -> dict:
    start = time.perf_counter()
    from repro.serve.client import ServeClient

    import_s = time.perf_counter() - start
    state = {
        "points": _points(),
        "peak_refs": checks.load("table1.json")["peak"],
        "refs": checks.load("serve.json"),
    }
    local_s = time.perf_counter() - start
    trials, boots, warmups = [], [], []
    daemon = None
    for trial in range(SETUP_TRIALS):
        if daemon is not None:
            daemon.stop(state["client"])
            daemon.remove_workdir()
        daemon = Daemon(src_dir, os.path.join(tmpdir, f"daemon-{trial}"))
        state["client"] = None
        try:
            started = time.perf_counter()
            state["client"] = ServeClient(daemon.start())
            warm_start = time.perf_counter()
            _warm_up(state["client"], state["points"])
        except BaseException:
            daemon.stop(state["client"])
            daemon.remove_workdir()
            raise
        done = time.perf_counter()
        trials.append(local_s + done - started)
        boots.append(daemon.boot_s)
        warmups.append(done - warm_start)
    state.update(daemon=daemon, setup_s=stats.median(trials),
                 import_s=import_s, boot_s=stats.median(boots),
                 warmup_s=stats.median(warmups))
    return state


def _request(client, request: dict):
    kind = request["kind"]
    if kind == "hot":
        return client.estimate(request["point"])
    if kind == "cold":
        return client.estimate(request["point"], node=request["node"],
                               freq=request["freq"])
    if kind == "sweep":
        return client.sweep(request["points"],
                            workloads=list(inproc.WORKLOAD_NAMES), batch=1)
    return client.optimize()


def _records(kind: str, payload: dict) -> list:
    if kind == "sweep":
        return payload["records"]
    return [payload] if kind in ("hot", "cold") else []


def _check(kind: str, payload: dict, state: dict):
    if kind == "optimize":
        expected = state["refs"]["optimize"]
        return checks.first_difference(
            expected, {key: payload[key] for key in expected},
            "optimize response",
        )
    for record in _records(kind, payload):
        if record["status"] != "ok" or record.get("degraded"):
            return (f"{kind} {record['point']}: status "
                    f"{record['status']}, degraded {record.get('degraded')}")
    if kind == "hot":
        return checks.check_rows(
            state["peak_refs"],
            {checks.point_key(payload["point"]): payload["metrics"]},
            "hot estimate",
        )
    if kind == "sweep":
        return checks.check_rows(
            state["refs"]["batch1"],
            {checks.point_key(r["point"]): r["metrics"]
             for r in payload["records"]},
            "sweep",
        )
    return None


def _check_cold(cold: list) -> list:
    """Cold-context rows against local scalar evaluation (after timing)."""
    from repro.arch.component import ModelContext
    from repro.dse.engine import run_sweep
    from repro.dse.space import DesignPoint
    from repro.tech.node import node as tech_node

    problems = []
    for request, metrics in cold:
        ctx = ModelContext(tech=tech_node(float(request["node"])),
                           freq_ghz=float(request["freq"]))
        report = run_sweep([DesignPoint(*request["point"])], ctx=ctx,
                           backend="scalar")
        record = report.records[0]
        label = (f"cold estimate {request['point']} @ "
                 f"{request['node']} nm/{request['freq']} GHz")
        problems.append(
            f"{label}: local status {record.status}"
            if record.status != "ok"
            else checks.first_difference(record.metrics, metrics, label)
        )
    return problems


def _status_delta(before: dict, after: dict, requests: int) -> dict:
    def by_class(status: dict, digit: str) -> int:
        return sum(count for code, count in
                   status["responses_by_status"].items()
                   if code.startswith(digit))

    misses = after["cache"]["misses"] - before["cache"]["misses"]
    return {
        "serve.responses.2xx": by_class(after, "2") - by_class(before, "2"),
        "serve.responses.4xx": by_class(after, "4") - by_class(before, "4"),
        "serve.responses.5xx": by_class(after, "5") - by_class(before, "5"),
        "serve.pool.respawns": (after["pool"]["spawned_total"]
                                - before["pool"]["spawned_total"]),
        "serve.parent_cache.misses_per_request": misses / max(1, requests),
        "serve.requests_journaled": (after["requests_journaled"]
                                     - before["requests_journaled"]),
    }


#: Request kinds after which the pool still holds the peak-only recipe.
_KEEPS_POOL = ("hot", "optimize")


def run(state: dict, run: Run, seed: int, tmpdir: str) -> None:
    client = state["client"]
    daemon = state["daemon"]
    requests = gen.serve_requests(seed, state["points"])
    engine: dict = {"hot": [], "cold": [], "sweep": []}
    overhead: dict = {"hot": [], "cold": [], "sweep": []}
    cold = []
    before = client.status()
    deadline = time.perf_counter() + run.seconds
    index = 0
    previous = "sweep"  # the warm-up ends on a workload /sweep
    while time.perf_counter() < deadline:
        request = next(requests)
        kind = request["kind"]
        # A hot estimate right after a recipe change pays for re-forking
        # the pool; it is timed apart from hot estimates on a warm pool.
        op_kind = kind
        if kind == "hot" and previous not in _KEEPS_POOL:
            op_kind = "hot_refork"
        previous = kind
        traced = run.traced_op(index)
        index += 1
        with run.op(op_kind, traced, f"serve.{op_kind}") as box:
            box["payload"] = _request(client, request)
        if not box["ok"]:
            continue
        payload = box["payload"]
        run.check(_check(kind, payload, state))
        if kind == "cold":
            cold.append((request, payload["metrics"]))
        if traced and op_kind in engine:
            engine_s = sum(r["wall_time_s"] for r in _records(kind, payload))
            engine[op_kind].append(1e3 * engine_s)
            overhead[op_kind].append(1e3 * (box["elapsed"] - engine_s))
    after = client.status()
    # Settle the pool on one fixed recipe before reading memory, so the
    # reading does not depend on which request happened to come last.
    settle = {"kind": "sweep", "points": state["points"][:gen.SWEEP_POINTS]}
    run.attempted += 1
    run.check(_check("sweep", _request(client, settle), state))
    for problem in _check_cold(cold):
        run.check(problem)
    workers = client.status()["pool"]["worker_pids"]
    worker_mb = sum(vm_hwm_mb(pid) for pid in workers)
    run.e2e["peak_rss_mb"] = vm_hwm_mb(daemon.proc.pid) + worker_mb
    run.layer_rows.append({
        **_status_delta(before, after, index),
        "serve.worker_rss_mb": worker_mb,
        **{f"serve.{name}.engine_ms": stats.median(values)
           for name, values in _named(engine).items() if values},
        **{f"serve.{name}.overhead_ms": stats.median(values)
           for name, values in _named(overhead).items() if values},
    })
    code = daemon.stop(client)
    if code != 0:
        run.fail(f"daemon exited with {code} after /drain")
    leftover = [pid for pid in [daemon.proc.pid, *workers] if alive(pid)]
    if leftover:
        run.fail(f"processes left after teardown: {leftover}")
    daemon.remove_workdir()
    _finish(run)


def _named(by_kind: dict) -> dict:
    names = {"hot": "estimate", "cold": "cold_estimate", "sweep": "sweep"}
    return {names[kind]: values for kind, values in by_kind.items()}


def _finish(run: Run) -> None:
    run.main_kind = "hot"
    kinds = ("hot", "hot_refork", "cold", "sweep", "optimize")
    if not all(run.all_samples(kind) for kind in kinds):
        run.fail("a request kind got no sample in the time window")
        return
    counts = {kind: len(run.all_samples(kind)) for kind in kinds}
    every_hot = run.all_samples("hot") + run.all_samples("hot_refork")
    hot, cold, sweep, optimize = (
        run.p50(kind) for kind in ("hot", "cold", "sweep", "optimize")
    )
    run.e2e.update(cold_op_ms=1e3 * cold, warm_op_ms=1e3 * hot,
                   batch_points_per_s=gen.SWEEP_POINTS / sweep)
    run.counts.update(cold_op_ms=counts["cold"], warm_op_ms=counts["hot"],
                      batch_points_per_s=counts["sweep"])
    run.figures.update({
        "estimate_p50_ms": (1e3 * stats.median(every_hot), "ms",
                            len(every_hot)),
        "cold_estimate_p50_ms": (1e3 * cold, "ms", counts["cold"]),
        "sweep_p50_ms": (1e3 * sweep, "ms", counts["sweep"]),
        "optimize_p50_ms": (1e3 * optimize, "ms", counts["optimize"]),
    })
    tail = stats.tail(every_hot)
    if tail is not None:
        run.figures[f"estimate_p{tail[0]:g}_ms"] = (
            1e3 * tail[1], "ms", len(every_hot)
        )
    run.report_timing("hot /estimate, warm pool", "hot", 1e3, "ms")
    run.report_timing("hot /estimate after a recipe change", "hot_refork",
                      1e3, "ms")
    run.report_timing("cold-context /estimate", "cold", 1e3, "ms")
    run.report_timing("/sweep (16 points, 3 workloads)", "sweep", 1e3, "ms")
    run.report_timing("/optimize", "optimize", 1e3, "ms")
