"""Output checks behind the benchmark's failure counts.

``summarize`` reduces one task's outcome to the values the checks need;
``check_task`` returns the task's problems as (code, message) pairs.
Independent references are used where one exists: recorded HiGHS optima
for every LP, the beta-lambda closed form above its threshold, the exact
ratio for every Monte-Carlo ratio, the move/copy cross-check identity, the
bound ratio >= 1/2 + beta/2 and the verify exit codes.  Everything else
(trace vectors, classification labels) is compared with values recorded at
the baseline commit in ``golden.json``, for the seeds recorded there.
"""
from __future__ import annotations

import json
import math
from pathlib import Path

from workloads import KNOWN_DEFECTS

GOLDEN_PATH = Path(__file__).resolve().parent / "golden.json"
GOLDEN_REL_TOL = 1e-9
GOLDEN_ABS_TOL = 1e-12
BOUND_TOL = 1e-9          # ratio >= 1/2 + beta/2 and the cross-check identity
LP_REFERENCE_TOL = 1e-7   # simplex optimum against HiGHS
LP_FEASIBILITY_TOL = 1e-9
CLOSED_FORM_TOL = 1e-8    # acceptance criteria 1 and 2
LABELS = {"modular", "supermodular", "submodular", "none"}

# summary fields compared with golden.json, per task kind
GOLDEN_FIELDS = {
    "simulate": ("ratio", "beta", "w", "a", "b", "stderr_ratio"),
    "verify": ("ratio", "beta", "eq1_lhs", "eq1_rhs", "ex_x",
               "reduction_rhs"),
    "conjecture": ("lhs", "rhs"),
    "scan": ("count", "min_gap"),
    "classify": ("labels",),
    "rsub": ("passed",),
}


def summarize(task, outcome: dict) -> dict:
    """Values the checks read, taken from the task's JSON report."""
    report = outcome.get("report")
    if report is None:
        return {}
    if task.kind == "rsub":
        return report
    r = report["results"]
    if task.kind == "simulate":
        return {"ratio": r["ratio"], "beta": r["beta"], "w": r["w"],
                "a": r["a"], "b": r["b"],
                "stderr_ratio": r.get("stderr", {}).get("ratio")}
    if task.kind == "verify":
        checks = r["checks"]
        out = {"passed": r["passed"]}
        if "lemmas" in checks:
            out.update(ratio=checks["lemmas"]["ratio"],
                       beta=checks["lemmas"]["beta"])
        if "eq1" in checks:
            out.update(eq1_lhs=checks["eq1"]["lhs"],
                       eq1_rhs=checks["eq1"]["rhs"])
        if "secondhalf" in checks:
            out.update(ex_x=checks["secondhalf"]["ex_x"],
                       reduction_rhs=checks["secondhalf"]["reduction_rhs"])
        return out
    if task.kind in ("conjecture", "load"):
        entry = r["instances"][0]
        return {k: entry[k] for k in ("n", "m", "lhs", "rhs",
                                      "crosscheck_error", "counterexample")}
    if task.kind == "scan":
        entries = r["instances"]
        return {"count": len(entries), "min_gap": r["min_gap"],
                "max_crosscheck_error": max(e["crosscheck_error"]
                                            for e in entries)}
    if task.kind == "classify":
        return {"labels": [a["classification"]["label"]
                           for a in r["agents"]]}
    if task.kind == "lp":
        sol = r["solution"]
        return {"status": sol["status"], "objective": sol["objective"],
                "max_violation": sol["max_violation"],
                "iterations": sol["iterations"],
                "difference": r.get("difference")}
    return {}


def _close(a, b) -> bool:
    if isinstance(a, list) and isinstance(b, list):
        return len(a) == len(b) and all(_close(x, y) for x, y in zip(a, b))
    if isinstance(a, float) or isinstance(b, float):
        if a is None or b is None:
            return a is b
        return math.isclose(a, b, rel_tol=GOLDEN_REL_TOL,
                            abs_tol=GOLDEN_ABS_TOL)
    return a == b


def golden_values(task, summary: dict) -> dict:
    fields = task.info.get("golden", GOLDEN_FIELDS.get(task.kind, ()))
    return {k: summary[k] for k in fields if k in summary}


def check_task(task, outcome: dict, summaries: dict, golden: dict,
               lp_reference: dict) -> list[tuple[str, str]]:
    """Problems with one task's outcome; ``summaries`` holds the pass's
    summaries by label, ``golden`` the recorded values for this seed."""
    if outcome.get("error"):
        return [("exception", outcome["error"])]
    if task.argv is not None and outcome.get("exit") != task.expect_exit:
        return [("exit", f"exit {outcome.get('exit')}, "
                         f"expected {task.expect_exit}")]
    if task.kind == "malformed":
        return []
    s = summaries.get(task.label)
    if not s:
        return [("report", "no report written")]
    problems = []
    kind = task.kind
    if kind == "simulate":
        if s["stderr_ratio"] is None and \
                s["ratio"] < 0.5 + s["beta"] / 2 - BOUND_TOL:
            problems.append(("bound", f"ratio {s['ratio']!r} < 1/2 + "
                                      f"beta/2 = {0.5 + s['beta'] / 2!r}"))
        if "exact" in task.info:
            exact = summaries.get(task.info["exact"], {}).get("ratio")
            limit = task.info["sigmas"] * s["stderr_ratio"] + BOUND_TOL
            if exact is None:
                problems.append(("mc", "exact ratio missing"))
            elif abs(s["ratio"] - exact) > limit:
                problems.append(("mc", f"MC ratio {s['ratio']!r} is more "
                                       f"than {task.info['sigmas']} stderr "
                                       f"from exact {exact!r}"))
    elif kind == "verify":
        if not s["passed"]:
            problems.append(("verify", "report says a check failed"))
        if "ratio" in s and s["ratio"] < 0.5 + s["beta"] / 2 - BOUND_TOL:
            problems.append(("bound", f"ratio {s['ratio']!r} < 1/2 + beta/2"))
    elif kind == "conjecture":
        if s["crosscheck_error"] > BOUND_TOL:
            problems.append(("crosscheck",
                             f"crosscheck error {s['crosscheck_error']!r}"))
    elif kind == "scan":
        if s["max_crosscheck_error"] > BOUND_TOL:
            problems.append(("crosscheck", "crosscheck error "
                             f"{s['max_crosscheck_error']!r}"))
    elif kind == "classify":
        if not set(s["labels"]) <= LABELS:
            problems.append(("label", f"unknown labels {s['labels']}"))
    elif kind == "load":
        if (s["n"], s["m"]) != (task.info["n"], task.info["m"]):
            problems.append(("report", f"loaded n={s['n']}, m={s['m']}"))
    elif kind == "rsub":
        # coverage is second-order supermodular, so R must be submodular
        if not all(s["passed"]):
            problems.append(("rsub", "R not submodular on a coverage oracle"))
    elif kind == "lp":
        if s["status"] != "optimal" or \
                s["max_violation"] > LP_FEASIBILITY_TOL:
            problems.append(("status", f"{s['status']}, max violation "
                                       f"{s['max_violation']!r}"))
        ref = lp_reference.get(task.label)
        if ref is None:
            problems.append(("reference", "no HiGHS reference recorded"))
        elif abs(s["objective"] - ref) > LP_REFERENCE_TOL:
            problems.append(("reference", f"objective {s['objective']!r}, "
                                          f"HiGHS {ref!r}"))
        if s["difference"] is not None and \
                abs(s["difference"]) > CLOSED_FORM_TOL:
            problems.append(("closed_form", "simplex minus closed form = "
                                            f"{s['difference']!r}"))
    expected = golden.get(task.label)
    if expected is not None:
        got = golden_values(task, s)
        bad = [k for k in expected if not _close(got.get(k), expected[k])]
        if bad:
            problems.append(("golden", f"differs from the baseline "
                                       f"record in {bad}"))
    return problems


def classify(task, problems) -> str:
    """ok, known (fails only the way its known defect does) or failed."""
    if not problems:
        return "ok"
    code = KNOWN_DEFECTS.get(task.known)
    if code is not None and all(p[0] == code for p in problems):
        return "known"
    return "failed"


def load_golden() -> dict:
    return json.loads(GOLDEN_PATH.read_text())
