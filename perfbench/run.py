"""Run one benchmark workload (or all three) and print its metrics.

    python3 perfbench/run.py --workload table1_dse --seed 1 --seconds 30 \\
        --trace 0

prints a human report (every metric with its unit and sample count) and,
as the last line, one JSON object ``{"correct", "attempted", "failed",
"metrics"}``: the end-to-end metrics with ``--trace 0``, the per-layer
metrics with ``--trace 1``.  ``--workload all`` runs the three workloads
in turn.  ``--regen-refs`` rewrites the reference outputs in
``perfbench/refs`` from the current program.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import time
from contextlib import nullcontext

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

#: Set-ups timed per in-process run (each in a fresh interpreter).
SETUP_TRIALS = 3

#: Environment switches that would change what the program computes or
#: where it writes; the benchmark runs the program on its defaults.
_PROGRAM_ENV = ("NEUROMETER_CACHE", "NEUROMETER_CACHE_DIR",
                "NEUROMETER_CACHE_SIZE", "NEUROMETER_SEED")


def _bootstrap() -> None:
    """Import the program from this checkout's ``src`` or fail."""
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        sys.exit(f"perfbench: no program source at {SRC}")
    for path in (SRC, ROOT):
        if path not in sys.path:
            sys.path.insert(0, path)
    for name in _PROGRAM_ENV:
        os.environ.pop(name, None)
    import repro

    if not os.path.abspath(repro.__file__).startswith(SRC + os.sep):
        sys.exit(f"perfbench: imported repro from {repro.__file__}, "
                 f"not from {SRC}")


def _modules() -> dict:
    from perfbench import serve, surrogate, table1

    return {m.NAME: m for m in (table1, surrogate, serve)}


def _setup_probe(name: str) -> int:
    from perfbench import cpus

    with cpus.alternating():
        state = _modules()[name].setup()
    print(json.dumps({"import_s": state["import_s"],
                      "warmup_s": state["warmup_s"]}), flush=True)
    return 0


def _timed_setups(name: str) -> list:
    """Set up ``name`` in fresh interpreters; (seconds, probe) per trial."""
    trials = []
    for _ in range(SETUP_TRIALS):
        started = time.perf_counter()
        child = subprocess.Popen(
            [sys.executable, os.path.abspath(__file__), "--setup-probe",
             name],
            stdin=subprocess.DEVNULL, stdout=subprocess.PIPE, text=True,
        )
        try:
            line = child.stdout.readline()
            elapsed = time.perf_counter() - started
            code = child.wait(timeout=120)
        finally:
            if child.poll() is None:
                child.kill()
                child.wait()
            child.stdout.close()
        if code != 0 or not line:
            raise RuntimeError(f"set-up probe for {name} failed")
        trials.append((elapsed, json.loads(line)))
    return trials


def _run_workload(name: str, seed: int, seconds: float, trace: bool,
                  tmpdir: str):
    from perfbench import cpus, inproc, stats
    from perfbench.harness import Run

    module = _modules()[name]
    run = Run(workload=name, seconds=seconds, trace=trace,
              wraps_program=module.IN_PROCESS)
    workdir = os.path.join(tmpdir, name)
    os.makedirs(workdir, exist_ok=True)
    if module.IN_PROCESS:
        trials = _timed_setups(name)
        setup_s = stats.median([seconds_ for seconds_, _ in trials])
        setup = {f"setup.{key}": stats.median([p[key] for _, p in trials])
                 for key in ("import_s", "warmup_s")}
        setup["setup.daemon_boot_s"] = 0.0
        state = module.setup()
    else:
        state = module.setup(SRC, workdir)
        setup_s = state["setup_s"]
        setup = {"setup.import_s": state["import_s"],
                 "setup.warmup_s": state["warmup_s"],
                 "setup.daemon_boot_s": state["boot_s"]}
    try:
        # The daemon's processes already share the CPUs; a single
        # in-process thread takes turns on them (see perfbench/cpus.py).
        with cpus.alternating() if module.IN_PROCESS else nullcontext():
            module.run(state, run, seed, workdir)
    finally:
        if "daemon" in state:
            state["daemon"].stop(state["client"])
            state["daemon"].remove_workdir()
    errors = inproc.model_errors()
    run.e2e["setup_s"] = setup_s
    run.counts["setup_s"] = SETUP_TRIALS
    run.e2e["model_max_err_pct"] = max(errors.values())
    run.counts["model_max_err_pct"] = 1
    run.counts["peak_rss_mb"] = 1
    run.layer_rows = [{**row, **errors, **setup} for row in run.layer_rows] \
        or [{**errors, **setup}]
    if trace:
        run.finish_layers()
    return run


def _print_run(run) -> None:
    from perfbench.harness import END_TO_END, PER_LAYER

    mode = "traced" if run.trace else "untraced"
    print(f"== {run.workload} ({mode}, {run.seconds:g} s window)")
    for name, (unit, better) in END_TO_END.items():
        if name in run.e2e:
            print(f"  {name:<22} {run.e2e[name]:>12.5g} {unit:<9} "
                  f"n={run.counts.get(name, 0):<4} ({better} is better)")
    for name, (value, unit, count) in run.figures.items():
        print(f"  {name:<22} {value:>12.5g} {unit:<9} n={count}")
    for line in run.report:
        print(f"  {line}")
    if run.trace:
        for name, unit in PER_LAYER.items():
            print(f"  {name:<40} {run.layers.get(name, 0.0):>12.5g} {unit}")
        print("  span summary: name, calls, total s, self s")
        for name, calls, total, own in run.recorder.summary():
            print(f"    {name:<30} {calls:>7} {total:>10.4f} {own:>10.4f}")
    print(f"  ops: {run.attempted} attempted, {run.failed} failed")
    for failure in run.failures:
        print(f"  FAILED: {failure}")


def _metrics(run) -> dict:
    from perfbench.harness import END_TO_END, PER_LAYER

    if run.trace:
        return {name: {"value": float(run.layers.get(name, 0.0)),
                       "unit": unit} for name, unit in PER_LAYER.items()}
    return {name: {"value": float(run.e2e[name]), "unit": unit}
            for name, (unit, _) in END_TO_END.items() if name in run.e2e}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", default="all",
                        choices=["table1_dse", "surrogate_search",
                                 "serve_mixed", "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--regen-refs", action="store_true",
                        help="rewrite perfbench/refs from this program")
    parser.add_argument("--setup-probe", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    _bootstrap()
    if args.setup_probe:
        return _setup_probe(args.setup_probe)
    if args.regen_refs:
        from perfbench import regen

        return regen.main()
    tmpdir = os.path.join(ROOT, ".perfbench", f"tmp-{os.getpid()}")
    os.makedirs(tmpdir, exist_ok=True)
    os.environ["TMPDIR"] = tmpdir
    names = (list(_modules()) if args.workload == "all"
             else [args.workload])
    runs = []
    try:
        for name in names:
            runs.append(_run_workload(name, args.seed, args.seconds,
                                      bool(args.trace), tmpdir))
    finally:
        shutil.rmtree(tmpdir, ignore_errors=True)
    for run in runs:
        _print_run(run)
        if run.trace:
            path = os.path.join(ROOT, ".perfbench",
                                f"trace-{run.workload}-{args.seed}.jsonl")
            run.recorder.write_jsonl(path)
            print(f"  spans written to {os.path.relpath(path, ROOT)}")
    attempted = sum(run.attempted for run in runs)
    failed = sum(run.failed for run in runs)
    if len(runs) == 1:
        metrics = _metrics(runs[0])
    else:
        metrics = {f"{run.workload}.{name}": value for run in runs
                   for name, value in _metrics(run).items()}
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
