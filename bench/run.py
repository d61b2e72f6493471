"""swmlab benchmark: one workload per run, in one process and one thread.

    python3 bench/run.py --workload exact-n8 --seed 0 --seconds 15 --trace 0

Run from the repository root.  Set-up imports numpy and the ``swmlab``
package from ``src/`` and writes the workload's seeded instance files under
``.bench_run/<workload>/``.  The run then repeats the workload's fixed task
list (in-process ``swmlab.cli.main`` calls with ``--out``, stderr captured)
until ``--seconds`` have passed, checks every output, and prints a
summary followed by one JSON line.  With ``--trace 0`` the JSON holds the
end-to-end metrics; with ``--trace 1`` one untraced and one traced pass run
and the JSON holds the per-layer metrics (see README.md).
"""
from __future__ import annotations

import argparse
import contextlib
import importlib
import io
import json
import resource
import shutil
import statistics
import sys
from pathlib import Path
from time import perf_counter

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_run"
SETUP_REPEATS = 5

import checks  # noqa: E402  (the benchmark's own modules, next to this file)
from clock import SpeedClock  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import SPEED_KERNEL, WORKLOADS, sw  # noqa: E402


def fresh_import():
    """Import swmlab from scratch, so every set-up repeat pays for it."""
    for name in [k for k in sys.modules
                 if k == "swmlab" or k.startswith("swmlab.")]:
        del sys.modules[name]
    importlib.import_module("swmlab")
    importlib.import_module("swmlab.cli")


def setup(build, seed: int, work: Path):
    """Repeat import and instance generation; return the last repeat's
    tasks and each repeat's start and end time."""
    times = []
    for rep in range(SETUP_REPEATS):
        inputs = work / f"inputs{rep}"
        inputs.mkdir(parents=True)
        start = perf_counter()
        fresh_import()
        tasks, warm = build(seed, inputs)
        times.append((start, perf_counter()))
    return tasks, warm, times


def run_task(task, out_dir: Path, tracer=None) -> dict:
    """Run one task; exceptions out of the program are recorded, not
    raised."""
    outcome = {"exit": None, "error": None, "report": None}
    span = tracer.span("bench.task", task=task.label) if tracer \
        else contextlib.nullcontext()
    with span, contextlib.redirect_stderr(io.StringIO()):
        try:
            if task.call is not None:
                outcome["report"] = task.call()
            else:
                out = out_dir / f"{task.label}.json"
                outcome["out"] = out
                outcome["exit"] = sw("cli").main(task.argv + ["--out",
                                                              str(out)])
        except SystemExit as exc:
            outcome["exit"] = exc.code
        except Exception as exc:  # noqa: BLE001 -- counted as a failure
            outcome["error"] = f"{type(exc).__name__}: {exc}"
    return outcome


def run_pass(tasks, out_dir: Path, tracer=None):
    """Run the task list once; return the pass's start and end times and
    the outcomes.  Reports are read after the end time is taken."""
    out_dir.mkdir(parents=True)
    start = perf_counter()
    outcomes = [run_task(t, out_dir, tracer) for t in tasks]
    interval = (start, perf_counter())
    for task, outcome in zip(tasks, outcomes):
        out = outcome.pop("out", None)
        if out is not None and out.exists():
            outcome["report"] = json.loads(out.read_text())
        outcome["summary"] = checks.summarize(task, outcome)
        outcome.pop("report")
    return interval, outcomes


def judge(workload: str, seed: int, tasks, passes):
    """Check every pass; return verdict counts, the non-ok results and
    whether the baseline record applies (lp-sweep has none per seed)."""
    golden = checks.load_golden()
    recorded = golden["seeds"].get(workload, {}).get(str(seed), {})
    counts = {"ok": 0, "known": 0, "failed": 0}
    notes = []
    for outcomes in passes:
        summaries = {t.label: o["summary"] for t, o in zip(tasks, outcomes)}
        for task, outcome in zip(tasks, outcomes):
            problems = checks.check_task(task, outcome, summaries, recorded,
                                         golden["lp_reference"])
            verdict = checks.classify(task, problems)
            counts[verdict] += 1
            if verdict != "ok":
                notes.append((verdict, task, problems))
    return counts, notes, bool(recorded) or workload not in golden["seeds"]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "swmlab" / "__init__.py").is_file():
        print(f"error: no swmlab package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.trace:
        return traced_run(args)

    start = perf_counter()
    import numpy  # noqa: F401  -- its import is part of set-up
    numpy_import = (start, perf_counter())
    clock = SpeedClock(SPEED_KERNEL[args.workload])
    clock.start()
    try:
        build = WORKLOADS[args.workload]
        work = WORK / args.workload
        shutil.rmtree(work, ignore_errors=True)
        tasks, warm, reps = setup(build, args.seed, work)
        run_pass(warm, work / "warm")
        intervals, passes = [], []
        begin = perf_counter()
        while not passes or perf_counter() - begin < args.seconds:
            interval, outcomes = run_pass(tasks, work / f"pass{len(passes)}")
            if not passes:   # later passes add only allocator growth
                peak_rss_mb = resource.getrusage(
                    resource.RUSAGE_SELF).ru_maxrss / 1024
            intervals.append(interval)
            passes.append(outcomes)
    finally:
        clock.stop()

    metrics = {
        "wall_s": statistics.median(clock.seconds(*i) for i in intervals),
        "setup_s": clock.seconds(*numpy_import)
        + statistics.median(clock.seconds(*r) for r in reps),
        "peak_rss_mb": peak_rss_mb,
    }
    raw = statistics.median(b - a for a, b in intervals)
    return report(args, tasks, passes, metrics,
                  {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB",
                   "pass_frac": "fraction"},
                  [f"{len(passes)} passes; raw median pass wall time "
                   f"{raw:.3f} s"])


def traced_run(args) -> int:
    """One untraced and one traced pass; per-layer metrics of the latter."""
    build = WORKLOADS[args.workload]
    work = WORK / args.workload
    shutil.rmtree(work, ignore_errors=True)
    tasks, warm, _ = setup(build, args.seed, work)
    run_pass(warm, work / "warm")
    (start, end), untraced = run_pass(tasks, work / "untraced")
    tracer = Tracer()
    tracer.install()
    try:
        with tracer.span("bench"):
            with tracer.span("bench.generate"):
                inputs = work / "inputs-traced"
                inputs.mkdir()
                tasks = build(args.seed, inputs)[0]
            with tracer.span("bench.pass"):
                traced = run_pass(tasks, work / "traced", tracer)[1]
    finally:
        tracer.uninstall()
    metrics = tracer.metrics()
    metrics["trace.overhead_s"] = tracer.total["bench.pass"] - (end - start)
    (work / f"trace-seed{args.seed}.json").write_text(json.dumps(
        {"workload": args.workload, "seed": args.seed, "metrics": metrics,
         "spans": tracer.span_records()}))
    units = {k: ("1/s" if k.endswith("_per_s") else "s"
                 if k.endswith("_s") else "count") for k in metrics}
    return report(args, tasks, [untraced, traced], metrics, units, [])


def report(args, tasks, passes, metrics, units, lines) -> int:
    """Check all outputs, print the summary and the JSON result line."""
    counts, notes, has_golden = judge(args.workload, args.seed, tasks, passes)
    attempted = sum(counts.values())
    if not args.trace:
        metrics["pass_frac"] = counts["ok"] / attempted
    fail_frac = (counts["failed"] + counts["known"]) / attempted
    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}")
    for name, value in metrics.items():
        print(f"  {name} = {value!r} {units[name]}")
    print(f"  fail_frac = {fail_frac!r} ({counts['failed']} unexpected and "
          f"{counts['known']} known failures of {attempted} tasks)")
    for line in lines:
        print(f"  {line}")
    if not has_golden:
        print("  note: no baseline record for this seed; golden "
              "comparisons skipped, reference checks still run")
    seen = set()
    for verdict, task, problems in notes:
        if (verdict, task.label) in seen:
            continue
        seen.add((verdict, task.label))
        tag = f"known {task.known}" if verdict == "known" else "FAILED"
        print(f"  {tag}: {task.label}: "
              + "; ".join(f"{c}: {m}" for c, m in problems))
    print(json.dumps({
        "correct": counts["failed"] == 0, "attempted": attempted,
        "failed": counts["failed"],
        "metrics": {k: {"value": v, "unit": units[k]}
                    for k, v in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
