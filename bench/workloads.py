"""The benchmark's workloads: seeded instance files and fixed task lists.

Each workload's ``build(seed, directory)`` writes its instance files and
returns two task lists: the timed list and a small untimed warm-up list
that touches the same code paths at tiny sizes.  Instances come only from
the seed; the structure that sets the cost of a run (families, n, m, the
task list) is fixed per workload, so runs with different seeds do the same
amount of work.  Tasks drive the ``swmlab`` CLI the way a user does; a task
calls the library only where the CLI has no entry point.
"""
from __future__ import annotations

import importlib
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Optional

# Defects confirmed at the baseline commit, each with the problem code its
# task fails with.  A fix turns the task into a pass, lowering fail_frac.
KNOWN_DEFECTS = {
    "instances.non_object_agent": "exception",   # AttributeError, exit 1
    "instances.nan_weight": "exit",              # accepted, exit 0
    "instances.fractional_capacity": "exit",     # truncated to 1, exit 0
    "lp.general_closed_form": "closed_form",     # criterion 2
}
FAMILIES = ("coverage", "budgeted_additive", "b_matching", "cut", "table")
GENERATORS = {"coverage": "random_coverage_oracle",
              "budgeted_additive": "random_budgeted_oracle",
              "b_matching": "random_b_matching_oracle",
              "cut": "random_cut_oracle",
              "table": "random_table_oracle"}


def sw(name: str):
    """The current ``swmlab.<name>`` module (set-up re-imports the package)."""
    return importlib.import_module(f"swmlab.{name}")


@dataclass
class Task:
    label: str                     # unique within a workload
    kind: str                      # selects the output check
    argv: Optional[list] = None    # CLI arguments, ``--out`` is added
    call: Optional[Callable] = None  # library call for tasks without CLI
    expect_exit: int = 0
    known: Optional[str] = None    # KNOWN_DEFECTS entry it shows at seed
    info: dict = field(default_factory=dict)


def _save(directory: Path, name: str, instance) -> str:
    path = directory / name
    sw("instances").save_instance(path, instance)
    return str(path)


def _mixed(n: int, m: int, seed: int, rng_key, offset: int = 0):
    """Instance whose agent a has family FAMILIES[(offset + a) % 5]."""
    import numpy as np
    rng = np.random.default_rng(rng_key)
    inst = sw("instances")
    oracles = tuple(getattr(inst, GENERATORS[FAMILIES[(offset + a) % 5]])(
        n, rng) for a in range(m))
    return sw("core").Instance(oracles, name=f"mixed-n{n}-m{m}-s{seed}",
                               seed=seed)


# ---------------------------------------------------------------------------
# exact-n8
# ---------------------------------------------------------------------------

def _exact_suite(big, mid, small, samples, seed, prefix=""):
    return [
        Task(prefix + "simulate-exact", "simulate",
             ["simulate", big, "--mode", "exact"]),
        Task(prefix + "simulate-mc", "simulate",
             ["simulate", big, "--mode", "mc", "--samples", str(samples),
              "--seed", str(seed)],
             info={"exact": prefix + "simulate-exact", "sigmas": 4.0}),
        Task(prefix + "verify-eq1", "verify", ["verify", big, "--checks",
                                               "eq1"]),
        Task(prefix + "verify-lemmas", "verify", ["verify", mid, "--checks",
                                                  "lemmas"]),
        Task(prefix + "verify-secondhalf", "verify",
             ["verify", small, "--checks", "secondhalf"]),
        Task(prefix + "conjecture", "conjecture", ["conjecture", mid]),
    ]


def build_exact_n8(seed: int, d: Path):
    inst = sw("instances")
    files = {n: _save(d, f"mixed-n{n}.json",
                      inst.random_instance(n, 3, seed=seed * 1000 + n,
                                           families=FAMILIES))
             for n in (8, 7, 6, 4)}
    return (_exact_suite(files[8], files[7], files[6], 20000, seed),
            _exact_suite(files[4], files[4], files[4], 200, seed, "warm-"))


# ---------------------------------------------------------------------------
# scan-small
# ---------------------------------------------------------------------------

SCAN_INSTANCES = 100
SCAN_MC_SAMPLES = 200


def _malformed_specs(seed: int) -> dict:
    """Instance files the loader must reject with exit code 2.

    ``known`` names the ones that do not exit 2 at the baseline commit.
    """
    import numpy as np
    w = [round(float(x), 4) for x in
         np.random.default_rng([seed, 7]).uniform(0.1, 1.0, size=3)]
    agent = {"kind": "budgeted_additive", "budget": 1.0, "weights": w}
    return {
        "bad-json": ('{"version": 1, "agents": [', None),
        "empty-agents": ({"version": 1, "agents": []}, None),
        "unknown-kind": ({"agents": [{"kind": "sphere", "weights": w}]},
                         None),
        "n-mismatch": ({"n": 4, "agents": [agent]}, None),
        "negative-weight": ({"agents": [dict(agent, weights=[-w[0]] + w[1:])]},
                            None),
        "non-submodular-table": ({"agents": [{"kind": "table", "n": 2,
                                              "table": {"": 0, "0": w[0],
                                                        "1": w[1],
                                                        "0,1": 3.0}}]},
                                 None),
        "non-object-agent": ({"agents": [agent, 7]},
                             "instances.non_object_agent"),
        "nan-weight": ({"agents": [dict(agent, weights=[float("nan")]
                                        + w[1:])]}, "instances.nan_weight"),
        "fractional-capacity": ({"agents": [{"kind": "b_matching",
                                             "capacity": 1.7, "weights": w}]},
                                "instances.fractional_capacity"),
    }


def _scan_instance_tasks(k: int, n: int, path: str, seed: int) -> list:
    key = f"i{k:03d}"
    checks = ["lemmas"]
    if n % 2 == 0:
        checks.append("secondhalf")
    if n % 4 == 0:
        checks.append("eq1")
    return [
        Task(f"{key}-classify", "classify", ["classify", path]),
        Task(f"{key}-verify", "verify",
             ["verify", path, "--checks", ",".join(checks)]),
        Task(f"{key}-conjecture", "conjecture", ["conjecture", path]),
        Task(f"{key}-simulate-mc", "simulate",
             ["simulate", path, "--mode", "mc", "--samples",
              str(SCAN_MC_SAMPLES), "--seed", str(seed + k)],
             info={"exact": f"{key}-verify", "sigmas": 6.0,
                   "golden": ("ratio",)}),
    ]


def build_scan_small(seed: int, d: Path):
    tasks = []
    for k in range(SCAN_INSTANCES):
        n, m = 2 + k % 4, 2 + (k // 4) % 2
        path = _save(d, f"scan-{k:03d}.json",
                     _mixed(n, m, seed, [seed, k], offset=k))
        tasks += _scan_instance_tasks(k, n, path, seed)
    tasks.append(Task("conjecture-random", "scan",
                      ["conjecture", "--random", "50", "--nmax", "5",
                       "--mmax", "3", "--seed", str(seed)]))
    for name, (spec, known) in _malformed_specs(seed).items():
        path = d / f"malformed-{name}.json"
        path.write_text(spec if isinstance(spec, str) else json.dumps(spec))
        tasks.append(Task(f"malformed-{name}", "malformed",
                          ["classify", str(path)], expect_exit=2,
                          known=known))
    warm = [t for t in tasks if t.label.startswith(("i000-", "i003-"))]
    return tasks, warm


# ---------------------------------------------------------------------------
# oracle-checks
# ---------------------------------------------------------------------------

# classification n per family: coverage, cut and table always enumerate in
# full; budgeted and b-matching stop early at a seed-dependent point, so they
# run at n where even their slowest seeds stay a small share of the pass
CLASSIFY_N = {"coverage": 9, "budgeted_additive": 10, "b_matching": 8,
              "cut": 9, "table": 9}
R_SUB_N = 10


def _r_submodular(path: str):
    """check_R_submodular for every S = {i}, Z = {j}, i != j."""
    def call():
        oracle = sw("instances").load_instance(path).oracles[0]
        check = sw("oracles").check_R_submodular
        n = oracle.n
        return {"passed": [check(oracle, [i], [j]).passed
                           for i in range(n) for j in range(n) if i != j]}
    return call


def _oracle_tasks(files: dict, seed: int, prefix: str = "") -> list:
    tasks = []
    for fam in FAMILIES:
        n = files["load", fam][1]
        tasks.append(Task(f"{prefix}load-n{n}-{fam}", "load",
                          ["conjecture", files["load", fam][0], "--mode",
                           "mc", "--samples", "1", "--seed", str(seed)],
                          info={"n": n, "m": 2}))
    for fam in FAMILIES:
        path, n = files["classify", fam]
        tasks.append(Task(f"{prefix}classify-n{n}-{fam}", "classify",
                          ["classify", path]))
    path, n = files["rsub"]
    tasks.append(Task(f"{prefix}r-submodular-n{n}-coverage", "rsub",
                      call=_r_submodular(path)))
    if "spot" in files:
        path, n = files["spot"]
        tasks.append(Task(f"{prefix}load-n{n}-coverage-budgeted", "load",
                          ["conjecture", path, "--mode", "mc", "--samples",
                           "1", "--seed", str(seed)], info={"n": n, "m": 2}))
    return tasks


def _oracle_files(seed: int, d: Path, n_load: int, n_classify: dict,
                  n_rsub: int, n_spot: Optional[int], prefix: str) -> dict:
    inst = sw("instances")
    files = {}
    for i, fam in enumerate(FAMILIES):
        files["load", fam] = (_save(
            d, f"{prefix}load-{fam}.json",
            inst.random_family_instance(fam, n_load, 2, seed * 1000 + i)),
            n_load)
        n = n_classify[fam]
        files["classify", fam] = (_save(
            d, f"{prefix}classify-{fam}.json",
            inst.random_family_instance(fam, n, 1, seed * 1000 + 10 + i)), n)
    files["rsub"] = (_save(d, f"{prefix}rsub.json",
                           inst.random_family_instance(
                               "coverage", n_rsub, 1, seed * 1000 + 20)),
                     n_rsub)
    if n_spot is not None:
        spot = _mixed(n_spot, 2, seed, [seed, 21])
        files["spot"] = (_save(d, f"{prefix}spot.json", spot), n_spot)
    return files


def build_oracle_checks(seed: int, d: Path):
    full = _oracle_files(seed, d, 12, CLASSIFY_N, R_SUB_N, 16, "")
    # the warm-up leaves out the sampled check above n=12: it costs the
    # same 100k samples per agent at any n
    warm = _oracle_files(seed, d, 6, dict.fromkeys(FAMILIES, 5), 5, None,
                         "warm-")
    return (_oracle_tasks(full, seed),
            _oracle_tasks(warm, seed, "warm-"))


# ---------------------------------------------------------------------------
# lp-sweep
# ---------------------------------------------------------------------------

# beta above n=128 runs for minutes, so the beta family stops there
LP_SWEEP = ([("beta", n, None, "1/100") for n in (8, 32, 128)]
            + [("beta-lambda", n, "13/16", beta)
               for n in (16, 64, 256) for beta in ("0", "1/100")]
            + [("general", n, None, "0")
               for n in (8, 16, 32, 64, 128, 256, 512, 1024)])


def lp_label(family: str, n: int, beta: str) -> str:
    return f"lp-{family}-n{n}-beta{beta.replace('/', '_')}"


def _lp_tasks(sweep) -> list:
    tasks = []
    for family, n, lam, beta in sweep:
        argv = ["lp", "--family", family, "--n", str(n), "--beta", beta]
        if lam is not None:
            argv += ["--lambda", lam]
        tasks.append(Task(lp_label(family, n, beta), "lp", argv,
                          known="lp.general_closed_form"
                          if family == "general" else None))
    return tasks


def build_lp_sweep(seed: int, d: Path):
    """The LP families have no random input; the seed is not used."""
    warm = [("beta", 8, None, "1/100"), ("beta-lambda", 16, "13/16", "0"),
            ("general", 8, None, "0")]
    return _lp_tasks(LP_SWEEP), _lp_tasks(warm)


WORKLOADS = {"exact-n8": build_exact_n8, "scan-small": build_scan_small,
             "oracle-checks": build_oracle_checks, "lp-sweep": build_lp_sweep}
# the speed kernel that matches each workload's work (see clock.py): only
# lp-sweep spends its time in dense numpy row operations
SPEED_KERNEL = {"exact-n8": "scalar", "scan-small": "scalar",
                "oracle-checks": "scalar", "lp-sweep": "dense"}
