"""Self-tests of the benchmark's own machinery.

Run with ``python3 -m pytest perfbench/tests``.
"""

import itertools
import math
import os
import threading
import time

import pytest

from perfbench import checks, cpus, gen, stats
from perfbench.daemon import Daemon, alive
from perfbench.run import ROOT, SRC
from perfbench.spans import SpanRecorder, covered


def _recorder(ticks):
    clock = iter(ticks)
    return SpanRecorder(clock=lambda: float(next(clock)))


def test_self_time_of_nested_and_sibling_spans():
    # root [0, 10] holds siblings a [1, 3] and b [4, 8]; b holds c [5, 6].
    recorder = _recorder([0, 1, 3, 4, 5, 6, 8, 10])
    with recorder.span("root"):
        with recorder.span("a"):
            pass
        with recorder.span("b"):
            with recorder.span("c"):
                pass
    by_name = {s.name: s.span_id for s in recorder.spans}
    selfs = recorder.self_times()
    assert selfs[by_name["root"]] == 10 - 2 - 4
    assert selfs[by_name["a"]] == 2
    assert selfs[by_name["b"]] == 4 - 1
    assert selfs[by_name["c"]] == 1
    assert {s.op_id for s in recorder.spans} == {1}
    assert recorder.spans[by_name["c"] - 1].parent_id == by_name["b"]
    summary = {name: (calls, total, own)
               for name, calls, total, own in recorder.summary()}
    assert summary["root"] == (1, 10, 4)


def test_overlapping_children_are_not_counted_twice():
    assert covered([(1, 4), (2, 5), (7, 8)], 0, 10) == 5
    assert covered([(-5, 2), (9, 20)], 0, 10) == 3


def test_each_op_gets_its_own_id():
    recorder = SpanRecorder()
    for _ in range(2):
        with recorder.span("op", recorder.new_op()):
            with recorder.span("inner"):
                pass
    first, second = recorder.spans[0].op_id, recorder.spans[2].op_id
    assert first != second
    assert recorder.spans[1].op_id == first
    assert recorder.per_op(second)["inner"]["calls"] == 1


def test_tail_picks_highest_percentile_with_ten_beyond():
    assert stats.tail(list(range(200))) == (95.0, 189)
    assert stats.tail(list(range(1000))) == (99.0, 989)
    assert stats.tail(list(range(199)))[0] == 90.0
    assert stats.tail(list(range(100))) == (90.0, 89)
    assert stats.tail(list(range(20))) is None
    assert stats.tail([]) is None


def test_seeded_generators_reproduce_their_inputs():
    points = [[x, 1, 1, 1] for x in range(210)]
    assert gen.grid_order(7, 210) == gen.grid_order(7, 210)
    assert sorted(gen.grid_order(7, 210)) == list(range(210))
    assert gen.grid_order(7, 210) != gen.grid_order(8, 210)
    assert gen.search_seeds(7) == gen.search_seeds(7)
    assert sorted(gen.search_seeds(7)) == list(gen.SEARCH_SEED_POOL)

    def take(seed):
        return list(itertools.islice(gen.serve_requests(seed, points), 500))

    first = take(7)
    assert first == take(7)
    assert first != take(8)
    kinds = [r["kind"] for r in first]
    assert 0.6 < kinds.count("hot") / len(kinds) < 0.85
    contexts = [(r["node"], r["freq"]) for r in first if r["kind"] == "cold"]
    assert len(contexts) == len(set(contexts))


def test_output_check_catches_a_one_ulp_change():
    row = {"area_mm2": 394.125, "outcomes": [
        {"workload": "resnet", "batch": 1, "latency_ms": 1.0775857142857144}
    ]}
    same = {"area_mm2": 394.125, "outcomes": [
        {"workload": "resnet", "batch": 1, "latency_ms": 1.0775857142857144}
    ]}
    assert checks.first_difference(row, same) is None
    bumped = {**same, "outcomes": [dict(same["outcomes"][0])]}
    bumped["outcomes"][0]["latency_ms"] = math.nextafter(
        1.0775857142857144, math.inf
    )
    problem = checks.first_difference(row, bumped)
    assert problem is not None and "outcomes[0].latency_ms" in problem
    assert checks.check_rows({"1,1,1,1": row}, {"1,1,1,1": bumped}, "op")
    assert checks.first_difference({"batch": 1}, {"batch": 1.0})


def test_cpu_alternation_moves_the_thread_and_cleans_up():
    allowed = os.sched_getaffinity(0)
    turns = {frozenset([cpu]) for cpu in allowed} if len(allowed) > 1 \
        else set()
    seen = set()
    with cpus.alternating() as count:
        deadline = time.monotonic() + 20 * cpus.PERIOD_S * len(allowed)
        while seen != turns and time.monotonic() < deadline:
            mask = frozenset(os.sched_getaffinity(0))
            if len(mask) == 1:
                seen.add(mask)
    assert count == len(allowed)
    assert seen == turns
    assert os.sched_getaffinity(0) == allowed
    assert all(t.name != "perfbench-cpus" for t in threading.enumerate())


def test_daemon_teardown_leaves_no_process(tmp_path):
    from repro.serve.client import ServeClient

    daemon = Daemon(SRC, str(tmp_path / "daemon"))
    client = ServeClient(daemon.start())
    try:
        client.estimate([16, 1, 2, 2])
        workers = client.status()["pool"]["worker_pids"]
        assert workers
    finally:
        code = daemon.stop(client)
    assert code == 0
    deadline = time.monotonic() + 10
    while any(alive(pid) for pid in workers) and time.monotonic() < deadline:
        time.sleep(0.05)
    assert not alive(daemon.proc.pid)
    assert not any(alive(pid) for pid in workers)
    daemon.remove_workdir()
    assert not os.path.exists(daemon.workdir)


def test_daemon_boot_failure_is_reported(tmp_path):
    daemon = Daemon(str(tmp_path / "no-src"), str(tmp_path / "daemon"))
    with pytest.raises(RuntimeError, match="before listening"):
        daemon.start()
    daemon.stop()


def test_benchmark_json_lists_the_reported_metrics():
    import json

    from perfbench.harness import END_TO_END, PER_LAYER

    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    assert {m["name"]: (m["unit"], m["better"])
            for m in bench["end_to_end"]} == END_TO_END
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == PER_LAYER
    assert {w["name"] for w in bench["workloads"]} == {
        "table1_dse", "surrogate_search", "serve_mixed"}
