"""Self-tests of the benchmark's checker and tracer.

    python3 -m pytest bench/test_bench.py -q
"""
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import checks  # noqa: E402
import run  # noqa: E402
from tracer import LAYERS, Tracer  # noqa: E402
from workloads import Task, WORKLOADS, sw  # noqa: E402

EXACT = Task("simulate-exact", "simulate", ["simulate", "x.json"])
MC = Task("simulate-mc", "simulate", ["simulate", "x.json"],
          info={"exact": "simulate-exact", "sigmas": 4.0})
EXACT_SUMMARY = {"ratio": 0.8, "beta": 0.1, "w": [0.5, 0.3],
                 "a": [0.1, 0.0], "b": [0.05, 0.05], "stderr_ratio": None}


def problems(task, summary, exit_code=0, error=None, golden=None,
             reference=None, others=None):
    summaries = dict(others or {})
    summaries[task.label] = summary
    outcome = {"exit": exit_code, "error": error, "summary": summary}
    return checks.check_task(task, outcome, summaries, golden or {},
                             reference or {})


def codes(found):
    return {code for code, _ in found}


def test_clean_outcome_has_no_problems():
    golden = {EXACT.label: checks.golden_values(EXACT, EXACT_SUMMARY)}
    assert problems(EXACT, EXACT_SUMMARY, golden=golden) == []


def test_perturbed_value_is_flagged():
    golden = {EXACT.label: checks.golden_values(EXACT, EXACT_SUMMARY)}
    perturbed = dict(EXACT_SUMMARY, w=[0.5, 0.3 + 1e-6])
    assert codes(problems(EXACT, perturbed, golden=golden)) == {"golden"}


def test_last_ulp_change_is_tolerated():
    golden = {EXACT.label: checks.golden_values(EXACT, EXACT_SUMMARY)}
    nudged = dict(EXACT_SUMMARY, ratio=0.8 + 3e-16)
    assert problems(EXACT, nudged, golden=golden) == []


def test_wrong_exit_code_is_flagged():
    assert codes(problems(EXACT, EXACT_SUMMARY, exit_code=1)) == {"exit"}


def test_exception_is_flagged():
    found = problems(EXACT, {}, exit_code=None, error="AttributeError: x")
    assert codes(found) == {"exception"}


def test_bound_and_mc_references():
    low = dict(EXACT_SUMMARY, ratio=0.5)
    assert codes(problems(EXACT, low)) == {"bound"}
    mc = dict(EXACT_SUMMARY, ratio=0.9, stderr_ratio=0.01)
    assert codes(problems(MC, mc, others={EXACT.label: EXACT_SUMMARY})) \
        == {"mc"}
    mc_close = dict(mc, ratio=0.83)
    assert problems(MC, mc_close, others={EXACT.label: EXACT_SUMMARY}) == []


def test_lp_checked_against_reference_and_closed_form():
    task = Task("lp-general-n8-beta0", "lp", ["lp"],
                known="lp.general_closed_form")
    summary = {"status": "optimal", "objective": 0.5, "max_violation": 0.0,
               "iterations": 7, "difference": -6e-3}
    found = problems(task, summary, reference={task.label: 0.5})
    assert codes(found) == {"closed_form"}
    assert checks.classify(task, found) == "known"
    found = problems(task, summary, reference={task.label: 0.51})
    assert codes(found) == {"closed_form", "reference"}
    assert checks.classify(task, found) == "failed"


def test_known_defect_fixed_counts_as_ok():
    task = Task("malformed-nan-weight", "malformed", ["classify"],
                expect_exit=2, known="instances.nan_weight")
    assert checks.classify(task, problems(task, {}, exit_code=0)) == "known"
    assert checks.classify(task, problems(task, {}, exit_code=2)) == "ok"
    assert checks.classify(task, problems(task, {}, exit_code=None,
                                          error="TypeError: t")) == "failed"


@pytest.fixture(scope="module")
def traced(tmp_path_factory):
    """One traced pass over the exact-n8 warm-up tasks."""
    run.fresh_import()
    work = tmp_path_factory.mktemp("bench")
    results = []
    for rep in range(2):
        tracer = Tracer()
        tracer.install()
        try:
            with tracer.span("bench"):
                inputs = work / f"inputs{rep}"
                inputs.mkdir()
                tasks = WORKLOADS["exact-n8"](0, inputs)[1]
                with tracer.span("bench.pass"):
                    run.run_pass(tasks, work / f"out{rep}", tracer)
        finally:
            tracer.uninstall()
        results.append(tracer)
    return results


def test_self_times_sum_to_traced_wall(traced):
    m = traced[0].metrics()
    total = sum(m[f"{layer}.self_s"] for layer in LAYERS) + m["bench.self_s"]
    assert m["trace.wall_s"] > 0
    assert abs(total - m["trace.wall_s"]) <= 1e-6 + 1e-3 * m["trace.wall_s"]


def test_counts_repeat_exactly(traced):
    first, second = (t.metrics() for t in traced)
    counts = [k for k in first if not k.endswith("_s")]
    assert first["oracles.value_queries"] > 0
    assert first["gain.orders"] > 0 and first["core.greedy_calls"] > 0
    assert {k: first[k] for k in counts} == {k: second[k] for k in counts}


def test_spans_are_recorded_and_names_restored(traced):
    names = {span["name"] for span in traced[0].span_records()}
    assert {"cli.main", "gain.expected_trace", "instances.load"} <= names
    assert "gain.trace_one" not in names   # kept as an aggregate only
    assert not hasattr(sw("cli").main, "__wrapped__")
    assert not hasattr(sw("gain").greedy, "__wrapped__")


def test_speed_clock_rescales_by_local_kernel_time():
    from clock import REFERENCE_KERNEL_S, SpeedClock
    clock = SpeedClock("dense")
    ref = REFERENCE_KERNEL_S["dense"]
    # samples every second; the kernel takes the reference time for the
    # first three and twice that (half speed) from then on
    clock.ends = [float(t) for t in range(1, 11)]
    clock.costs = [ref] * 3 + [2 * ref] * 7
    assert clock.seconds(0.0, 0.5) == pytest.approx(0.5)
    assert clock.seconds(8.0, 9.0) == pytest.approx((1.0 - 2 * ref) / 2)
