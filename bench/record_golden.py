"""Record the reference values the checks compare with, into golden.json.

    python3 bench/record_golden.py --seeds 0-9,1000

For each seeded workload and seed it runs one pass and stores the fields
``checks.GOLDEN_FIELDS`` names; for every LP of the lp-sweep it stores the
HiGHS optimum from ``scipy.optimize.linprog``.  Run it only on a commit
whose outputs are trusted: the records define what later runs must match.
"""
from __future__ import annotations

import argparse
import json
import shutil
import sys

import checks
import run
from spread import parse_seeds
from workloads import LP_SWEEP, WORKLOADS, lp_label, sw

SEEDED = ("exact-n8", "scan-small", "oracle-checks")


def rounded(value):
    """12 significant digits: far inside the 1e-9 comparison tolerance,
    and a third smaller on disk."""
    if isinstance(value, float):
        return float(f"{value:.12g}")
    if isinstance(value, list):
        return [rounded(v) for v in value]
    return value


def highs_optimum(family: str, n: int, lam, beta: str) -> float:
    import numpy as np
    from scipy.optimize import linprog
    lp, parse = sw("lp"), sw("cli")._parse_rational
    beta = parse(beta)
    if family == "beta":
        model = lp.build_lp_beta(n, beta)
    elif family == "beta-lambda":
        model = lp.build_lp_beta_lambda(n, parse(lam), beta)
    else:
        model = lp.build_lp_general(n)
    a = np.array([[float(c) for c in row] for row in model.rows])
    b = np.array([float(v) for v in model.rhs])
    c = np.array([float(v) for v in model.objective])
    res = linprog(c, A_ub=-a, b_ub=-b, bounds=(0, None), method="highs")
    if res.status != 0:
        raise RuntimeError(f"HiGHS failed on {family} n={n}: {res.message}")
    return float(res.fun) + float(model.constant)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seeds", default="0-9,1000")
    args = parser.parse_args()
    sys.path.insert(0, str(run.SRC))
    run.fresh_import()
    golden = {"seeds": {}, "lp_reference": {
        lp_label(f, n, beta): highs_optimum(f, n, lam, beta)
        for f, n, lam, beta in LP_SWEEP}}
    work = run.WORK / "record"
    for name in SEEDED:
        for seed in parse_seeds(args.seeds):
            shutil.rmtree(work, ignore_errors=True)
            (work / "inputs").mkdir(parents=True)
            tasks = WORKLOADS[name](seed, work / "inputs")[0]
            outcomes = run.run_pass(tasks, work / "out")[1]
            summaries = {t.label: o["summary"]
                         for t, o in zip(tasks, outcomes)}
            for task, outcome in zip(tasks, outcomes):
                problems = checks.check_task(task, outcome, summaries, {},
                                             golden["lp_reference"])
                if checks.classify(task, problems) == "failed":
                    raise RuntimeError(f"{name} seed {seed} {task.label}: "
                                       f"{problems}")
            values = {t.label: checks.golden_values(t, summaries[t.label])
                      for t in tasks}
            golden["seeds"].setdefault(name, {})[str(seed)] = {
                label: {k: rounded(v) for k, v in fields.items()}
                for label, fields in values.items() if fields}
            print(f"recorded {name} seed {seed}", flush=True)
    shutil.rmtree(work, ignore_errors=True)
    checks.GOLDEN_PATH.write_text(json.dumps(golden, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
