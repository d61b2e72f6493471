"""Command-line front end.

Subcommands: simulate | lp | classify | verify | conjecture.  Reports are
JSON with sorted keys, so identical inputs and seeds produce byte-identical
files; timing goes to stderr only.  Exit codes: 0 success, 1 verification
failure (for ``lp``, an LP that is not optimal), 2 usage or size error, or
an input or output path that cannot be read or written.  Output paths are
checked before any work, so a call that fails on one writes nothing; an
output path that repeats another path of the same call is refused there.
"""
from __future__ import annotations

import argparse
import errno
import functools
import json
import os
import sys
import time
from fractions import Fraction
from pathlib import Path

from . import __version__
from .errors import SwmlabError
from .gain import GainContext, conjecture_check, expected_trace, verify_eq1, \
    verify_lemmas, verify_second_half
from .instances import load_instance, random_instance
from .lp import (LAMBDA_THRESHOLD, build_lp_beta, build_lp_beta_lambda,
                 build_lp_general, closed_form_beta_lambda,
                 closed_form_general, solve)
from .oracles import classify_second_order

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_USAGE = 2


def _parse_rational(text: str) -> Fraction:
    if "/" in text:
        num, den = (int(x) for x in text.split("/", 1))
        if den == 0:
            raise ValueError(f"{text!r} has a zero denominator")
        return Fraction(num, den)
    return Fraction(text)


def _write_file(path, text: str) -> None:
    """Write ``text`` to ``path``; a path that cannot be written is a usage
    error (exit 2) that names it, as an unreadable instance is."""
    try:
        Path(path).write_text(text)
    except OSError as exc:
        raise SwmlabError(f"{path}: {exc.strerror}") from exc


def _check_writable(*paths, instance=None) -> None:
    """Raise the error ``_write_file`` would raise for the first of
    ``paths`` (None for an output not asked for) that cannot be written,
    so that a call fails before its work and writes nothing.  A path that
    names the ``instance`` file or an earlier output is refused too: the
    call would overwrite it.  Paths are compared as ``os.path.abspath``
    strings, so two spellings through a link are not caught."""
    taken = {os.path.abspath(instance): "the instance"} if instance else {}
    for path in filter(None, paths):
        full = os.path.abspath(path)
        if full in taken:
            raise SwmlabError(f"{path}: same path as {taken[full]}")
        taken[full] = "another output"
        parent = os.path.dirname(path) or "."
        exists = os.access(path, os.F_OK)
        if exists and os.path.isdir(path):
            code = errno.EISDIR
        elif not exists and not os.path.isdir(parent):
            code = (errno.ENOTDIR if os.access(parent, os.F_OK)
                    else errno.ENOENT)
        elif not os.access(path if exists else parent, os.W_OK):
            code = errno.EACCES
        else:
            continue
        raise SwmlabError(f"{path}: {os.strerror(code)}")


def _write_report(report: dict, out_path) -> None:
    """Write ``report`` as JSON; a NaN or infinity in it, which JSON cannot
    hold, is a ValueError (exit 2) raised before anything is written."""
    payload = json.dumps(report, sort_keys=True, indent=2,
                         allow_nan=False) + "\n"
    if out_path:
        _write_file(out_path, payload)
    else:
        sys.stdout.write(payload)


def _report(command: str, parameters: dict, results: dict) -> dict:
    return {"command": command, "parameters": parameters,
            "results": results, "version": __version__}


def _refuse_unused(args, options, where: str) -> None:
    """Raise ValueError naming each of ``options`` that was given, since
    the run would not use it."""
    given = [f"--{opt}" for opt in options if getattr(args, opt) is not None]
    if given:
        raise ValueError(f"{', '.join(given)} not used {where}")


def _fill_defaults(args, defaults: dict) -> None:
    """Set each option that was not given to its default."""
    for opt, default in defaults.items():
        if getattr(args, opt) is None:
            setattr(args, opt, default)


def cmd_simulate(args) -> int:
    if args.mode == "exact":
        _refuse_unused(args, ["seed", "samples"], "in exact mode")
    _fill_defaults(args, {"samples": 10_000, "seed": 0})
    csv_path = args.csv or (args.out
                            and str(Path(args.out).with_suffix(".csv")))
    _check_writable(args.out, csv_path, instance=args.instance)
    instance = load_instance(args.instance)
    ctx = GainContext(instance)
    trace = expected_trace(ctx, mode=args.mode, samples=args.samples,
                           seed=args.seed)
    results = trace.to_dict()
    results["lower_bound_half_plus_beta"] = 0.5 + trace.beta / 2
    report = _report("simulate", {
        "instance": str(args.instance), "mode": args.mode,
        "samples": args.samples if args.mode != "exact" else None,
        "seed": args.seed if args.mode != "exact" else None,
    }, results)
    _write_report(report, args.out)
    if csv_path:
        _write_file(csv_path, trace.to_csv())
    if trace.states is not None:
        print(f"states = {trace.states}", file=sys.stderr)
    else:
        print(f"orders = {trace.samples}", file=sys.stderr)
    print(f"ratio = {trace.ratio!r}", file=sys.stderr)
    print(f"beta = {trace.beta!r}", file=sys.stderr)
    print(f"bound 1/2 + beta/2 = {0.5 + trace.beta / 2!r}", file=sys.stderr)
    return EXIT_OK


def cmd_lp(args) -> int:
    beta = _parse_rational(args.beta)
    if args.lam is not None and args.family != "beta-lambda":
        raise ValueError("--lambda applies only to family beta-lambda")
    if beta != 0 and args.family == "general":
        raise ValueError("--beta does not apply to family general")
    _check_writable(args.out, args.export_lp)
    start = time.perf_counter()
    if args.family == "beta":
        model = build_lp_beta(args.n, beta)
    elif args.family == "beta-lambda":
        if args.lam is None:
            raise ValueError("--lambda is required for family beta-lambda")
        lam = _parse_rational(args.lam)
        model = build_lp_beta_lambda(args.n, lam, beta)
    else:
        model = build_lp_general(args.n)
    print(f"build = {time.perf_counter() - start:.3f} s", file=sys.stderr)
    closed = None
    if args.family == "beta-lambda" and float(lam) > LAMBDA_THRESHOLD:
        closed = closed_form_beta_lambda(args.n, lam, beta)
    elif args.family == "general" and args.n >= 8:
        closed = closed_form_general(args.n)
    if args.export_lp:
        _write_file(args.export_lp, model.to_text())
    start = time.perf_counter()
    solution = solve(model)
    print(f"solve = {time.perf_counter() - start:.3f} s", file=sys.stderr)
    print(f"solver = {solution.solver}", file=sys.stderr)
    results = {"model": {k: (str(v) if isinstance(v, Fraction) else v)
                         for k, v in model.metadata.items()},
               "num_vars": model.num_vars, "num_rows": model.num_rows,
               "solution": solution.to_dict()}
    if solution.structure is not None:
        results["structure"] = solution.structure
    optimal = solution.status == "optimal"
    if optimal:
        print(f"optimum = {solution.objective!r}", file=sys.stderr)
    else:
        print(f"LP status: {solution.status}", file=sys.stderr)
    if closed is not None and optimal:
        closed_val = closed if isinstance(closed, float) else closed.exact
        results["closed_form"] = closed_val
        results["difference"] = solution.objective - closed_val
        if not isinstance(closed, float):
            results["asymptotic"] = closed.asymptotic
        print(f"closed form = {closed_val!r}", file=sys.stderr)
        print(f"difference = {solution.objective - closed_val!r}",
              file=sys.stderr)
    report = _report("lp", {"family": args.family, "n": args.n,
                            "lambda": args.lam, "beta": args.beta}, results)
    _write_report(report, args.out)
    return EXIT_OK if optimal else EXIT_VERIFY_FAILED


def cmd_classify(args) -> int:
    _check_writable(args.out, instance=args.instance)
    instance = load_instance(args.instance)
    agents = []
    for idx, oracle in enumerate(instance.oracles):
        cls = classify_second_order(oracle)
        agents.append({"agent": idx, "kind": oracle.kind,
                       "classification": cls.to_dict()})
        print(f"agent {idx} ({oracle.kind}): {cls.label}", file=sys.stderr)
    report = _report("classify", {"instance": str(args.instance)},
                     {"agents": agents})
    _write_report(report, args.out)
    return EXIT_OK


def cmd_verify(args) -> int:
    _check_writable(args.out, instance=args.instance)
    instance = load_instance(args.instance)
    ctx = GainContext(instance)
    wanted = [c.strip() for c in args.checks.split(",") if c.strip()]
    suites = {"lemmas": verify_lemmas, "eq1": verify_eq1,
              "secondhalf": verify_second_half}
    unknown = set(wanted) - set(suites)
    if not wanted:
        raise ValueError(f"no checks given; choose from {sorted(suites)}")
    if unknown:
        raise ValueError(f"unknown checks: {sorted(unknown)}; "
                         f"choose from {sorted(suites)}")
    repeated = {c for c in wanted if wanted.count(c) > 1}
    if repeated:
        raise ValueError(f"repeated checks: {sorted(repeated)}")
    # every suite runs before any line is printed, so a call that fails on
    # a later suite reports only its error
    reports = {check: suites[check](ctx) for check in wanted}
    for check, rep in reports.items():
        print(f"{check}: {'PASS' if rep.passed else 'FAIL'}", file=sys.stderr)
        print(f"{check}: states = {rep.states}", file=sys.stderr)
    all_passed = all(rep.passed for rep in reports.values())
    results = {check: rep.to_dict() for check, rep in reports.items()}
    report = _report("verify", {"instance": str(args.instance),
                                "checks": wanted},
                     {"checks": results, "passed": all_passed})
    _write_report(report, args.out)
    return EXIT_OK if all_passed else EXIT_VERIFY_FAILED


def cmd_conjecture(args) -> int:
    if args.instance and args.random is not None:
        raise ValueError("give an instance path or --random COUNT, not both")
    if args.instance:
        unused = ["nmax", "mmax"]
        if args.mode == "exact":
            unused += ["seed", "samples"]
        _refuse_unused(args, unused,
                       f"with an instance path in {args.mode} mode")
    elif args.random is not None and args.mode == "exact":
        _refuse_unused(args, ["samples"], "with --random in exact mode")
    _fill_defaults(args, {"nmax": 5, "mmax": 3, "seed": 0, "samples": 1000})
    _check_writable(args.out, instance=args.instance)
    if args.instance:
        instances = [(str(args.instance), load_instance(args.instance))]
    elif args.random is not None:
        if args.random < 1:
            raise ValueError(f"--random must be at least 1, got {args.random}")
        instances = []
        for k in range(args.random):
            n = 2 + (k % max(1, args.nmax - 1))
            m = 2 + (k % max(1, args.mmax - 1))
            inst = random_instance(min(n, args.nmax), min(m, args.mmax),
                                   seed=args.seed + k)
            instances.append((inst.name, inst))
    else:
        raise ValueError("provide an instance path or --random COUNT")
    reports, states = [], 0
    for name, inst in instances:
        rep = conjecture_check(inst, mode=args.mode, samples=args.samples,
                               seed=args.seed)
        reports.append({"instance": name, **rep.to_dict()})
        states += rep.states or 0
    min_gap = min(entry["gap"] for entry in reports)
    counterexample = next((entry for entry in reports
                           if entry["counterexample"]), None)
    results = {"instances": reports, "min_gap": min_gap,
               "counterexample": counterexample}
    if args.mode == "exact":
        print(f"states = {states}", file=sys.stderr)
    else:
        print(f"orders = {args.samples * len(instances)}", file=sys.stderr)
    print(f"min gap = {min_gap!r}", file=sys.stderr)
    if counterexample:
        print(f"counterexample on {counterexample['instance']}",
              file=sys.stderr)
    report = _report("conjecture", {
        "instance": str(args.instance) if args.instance else None,
        "random": args.random, "nmax": args.nmax, "mmax": args.mmax,
        "seed": args.seed, "mode": args.mode,
    }, results)
    _write_report(report, args.out)
    return EXIT_OK


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: ``parse_args`` keeps no
    state between calls, and building the tree costs about a millisecond
    per ``main`` call.  It holds no handlers; ``main`` finds
    ``cmd_<subcommand>`` when it runs."""
    parser = argparse.ArgumentParser(
        prog="swmlab",
        description="Online submodular welfare maximization workbench")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("simulate", help="expected greedy trace of an instance")
    p.add_argument("instance")
    p.add_argument("--mode", choices=["exact", "mc"], default="exact")
    # no defaults here: cmd_simulate refuses them in exact mode
    p.add_argument("--samples", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--out", help="JSON report path (default: stdout)")
    p.add_argument("--csv", help="CSV trace path")

    p = sub.add_parser("lp", help="build and solve a factor-revealing LP")
    p.add_argument("--family", choices=["beta", "beta-lambda", "general"],
                   required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--lambda", dest="lam",
                   help="lambda as decimal or fraction, e.g. 13/16")
    p.add_argument("--beta", default="0")
    p.add_argument("--out")
    p.add_argument("--export-lp", help="write the plain-text LP listing here")

    p = sub.add_parser("classify",
                       help="second-order classification per agent")
    p.add_argument("instance")
    p.add_argument("--out")

    p = sub.add_parser("verify", help="run the trace verification suites")
    p.add_argument("instance")
    p.add_argument("--checks", default="lemmas",
                   help="comma-separated: lemmas,eq1,secondhalf")
    p.add_argument("--out")

    p = sub.add_parser("conjecture",
                       help="move/copy reordering conjecture scan")
    p.add_argument("instance", nargs="?")
    p.add_argument("--random", type=int,
                   help="scan this many seeded random instances")
    # no defaults here: cmd_conjecture refuses the ones a path leaves unused
    p.add_argument("--nmax", type=int)
    p.add_argument("--mmax", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--mode", choices=["exact", "mc"], default="exact")
    p.add_argument("--samples", type=int)
    p.add_argument("--out")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    start = time.monotonic()
    try:
        # looked up at call time, not stored in the parser: the parser is
        # built once, and a handler wrapped after that must still run
        code = globals()[f"cmd_{args.subcommand}"](args)
    except (SwmlabError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except MemoryError as exc:   # a model too large to allocate
        print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return EXIT_USAGE
    print(f"elapsed: {time.monotonic() - start:.3f}s", file=sys.stderr)
    return code


def entry():
    sys.exit(main())


if __name__ == "__main__":
    entry()
