"""``surrogate_search``: budget-16 searches over the expanded space.

Each cold op is the search ``neurometer dse --strategy surrogate
--expanded-space --eval-budget 16`` runs, from the cache state of a
fresh process and with a journal.  After each search the finished
journal is reopened (``resume=True``) in bursts for a share of the time
window: that warm op spends no budget and must re-derive the same
verified frontier.  This is the only workload where ``fit_surrogate``
works, and its exact-verification rounds drive ``repro.batch`` with
2-8-point batches.
"""

from __future__ import annotations

import os
import time

from perfbench import checks, gen, inproc, stats
from perfbench.harness import Run

NAME = "surrogate_search"
IN_PROCESS = True
REFS = "surrogate.json"

#: Exact evaluations per search (the CLI flag ``--eval-budget 16``).
EVAL_BUDGET = 16

#: Searches every run makes, so that ``cold_op_ms`` never rests on one
#: sample; another starts only while half of one still fits the window.
MIN_SEARCHES = 2

#: Share of the time window spent reopening the journal after each
#: search.  A reopening (5-8 ms) is far shorter than the host's fast and
#: slow phases (0.3-4 s), so a handful in a row land in one phase and
#: their median jumps between the modes from run to run; bursts over a
#: few seconds after every search span several phases.
WARM_SHARE = 0.2

#: Reopenings per warm burst (one op, timed per reopening: ~0.3-0.5 s).
RESUME_BURST = 64


def setup() -> dict:
    start = time.perf_counter()
    from repro.cache.store import get_estimate_cache
    from repro.dse.engine import run_sweep
    from repro.dse.journal import summarize_result
    from repro.dse.space import SpaceAxes, full_grid
    from repro.dse.surrogate import surrogate_search

    import_s = time.perf_counter() - start
    state = {
        "search": surrogate_search,
        "summarize": summarize_result,
        "cache": get_estimate_cache,
        "axes": SpaceAxes.expanded(),
        "workloads": inproc.workloads(),
        "refs": checks.load(REFS),
        "import_s": import_s,
    }
    start = time.perf_counter()
    # First use of the batch path imports its modules; pay it here.
    run_sweep(full_grid()[:4], state["workloads"], [1], backend="auto")
    inproc.reset_caches()
    state["warmup_s"] = time.perf_counter() - start
    return state


def frontier_rows(result, summarize) -> list:
    """The verified frontier as ``[point key, metrics]`` pairs."""
    return [[checks.point_key(row.point), summarize(row)]
            for row in result.frontier]


def _check(result, expected: list, summarize, spent: int, label: str):
    if result.failures or result.fallback_totals or result.cancelled:
        return (f"{label}: failures {len(result.failures)}, fallbacks "
                f"{result.fallback_totals}, cancelled {result.cancelled}")
    if result.exact_evaluations != spent:
        return (f"{label}: {result.exact_evaluations} exact evaluations, "
                f"expected {spent}")
    return checks.first_difference(
        expected, frontier_rows(result, summarize), f"{label} frontier"
    )


def _another_fits(run: Run, index: int, deadline: float) -> bool:
    if index < MIN_SEARCHES:
        return True
    searches = run.all_samples("search")
    expected = stats.median(searches) if searches else 0.0
    return time.perf_counter() + expected / 2 < deadline


def run(state: dict, run: Run, seed: int, tmpdir: str) -> None:
    search = state["search"]
    cache = state["cache"]
    refs = state["refs"]
    recipe = {"axes": state["axes"], "eval_budget": EVAL_BUDGET,
              "workloads": state["workloads"], "batch": 1}
    deadline = time.perf_counter() + run.seconds
    for index, search_seed in enumerate(gen.search_seeds(seed)):
        if not _another_fits(run, index, deadline):
            break
        traced = run.traced_op(index)
        journal = os.path.join(tmpdir, f"search-{search_seed}.jsonl")
        expected = refs[str(search_seed)]
        label = f"search seed {search_seed}"
        inproc.reset_caches()
        stats_before = cache().stats.snapshot()
        with run.op("search", traced, "surrogate.search",
                    seed=search_seed) as box:
            box["result"] = search(None, seed=search_seed,
                                   journal_path=journal, **recipe)
        if box["ok"]:
            result = box["result"]
            run.check(_check(result, expected, state["summarize"],
                             EVAL_BUDGET, label))
            if traced:
                run.layer_rows.append(_layer_row(
                    run, box["op_id"], result,
                    cache().stats.delta_since(stats_before),
                ))
            warm_end = time.perf_counter() + WARM_SHARE * run.seconds
            while True:
                with run.op("resume", False, "surrogate.search",
                            per=RESUME_BURST) as box:
                    box["results"] = [
                        search(None, seed=search_seed, journal_path=journal,
                               resume=True, **recipe)
                        for _ in range(RESUME_BURST)
                    ]
                if box["ok"]:
                    run.check(checks.first_problem(
                        _check(reopened, expected, state["summarize"], 0,
                               f"{label} resume")
                        for reopened in box["results"]
                    ))
                if time.perf_counter() >= warm_end:
                    break
        if os.path.exists(journal):
            os.remove(journal)
    _finish(run)


def _layer_row(run: Run, op_id: int, result, delta: dict) -> dict:
    row = run.layer_row([op_id], delta)
    evaluated, rounds = run.span_attr_total(
        [op_id], "surrogate.evaluate", "points"
    )
    row["surrogate.evaluate.points_per_call"] = (
        evaluated / rounds if rounds else 0.0
    )
    row["surrogate.frontier_per_eval"] = (
        len(result.frontier) / result.exact_evaluations
    )
    return row


def _finish(run: Run) -> None:
    run.e2e["peak_rss_mb"] = inproc.own_peak_rss_mb()
    run.main_kind = "search"
    searches = run.all_samples("search")
    resumes = run.all_samples("resume")
    if not (searches and resumes):
        run.fail("no complete search in the time window")
        return
    search_p50 = run.p50("search")
    run.e2e.update(cold_op_ms=1e3 * search_p50,
                   warm_op_ms=1e3 * run.p50("resume"),
                   batch_points_per_s=EVAL_BUDGET / search_p50)
    run.counts.update(cold_op_ms=len(searches), warm_op_ms=len(resumes),
                      batch_points_per_s=len(searches))
    run.figures["search_p50_s"] = (search_p50, "s", len(searches))
    run.report_timing("budget-16 search", "search", 1.0, "s")
    run.report_timing(f"reopen finished search (per reopening, bursts of "
                      f"{RESUME_BURST})", "resume", 1e3, "ms")
