"""Call tracing installed from outside the program.

The tracer wraps the public functions of each swmlab module and rebinds
every name that refers to them (the defining module, modules that imported
them, and the package namespace), so calls made inside the program are seen
too.  Each wrapped call is timed on one stack: a call's self time is its
duration minus the time of the wrapped calls it made, so self times of all
names plus the benchmark's own self time add up to the traced wall time.

Functions called more than about 10^4 times per run (``HOT``) keep only an
aggregate count and time; every other call is also kept as a span
(id, parent, task, name, start, end) in memory and written out at the end.
``ValuationOracle.value_mask`` is only counted, because a timer per query
would cost more than the query itself.
"""
from __future__ import annotations

import contextlib
import functools
import inspect
import math
import sys
from time import perf_counter

# (module, attribute or Class.method, traced name)
TRACED = [
    ("swmlab.oracles", "make_coverage", "oracles.build"),
    ("swmlab.oracles", "make_budgeted_additive", "oracles.build"),
    ("swmlab.oracles", "make_additive", "oracles.build"),
    ("swmlab.oracles", "make_b_matching", "oracles.build"),
    ("swmlab.oracles", "make_cut", "oracles.build"),
    ("swmlab.oracles", "make_table", "oracles.build"),
    ("swmlab.oracles", "tabulate", "oracles.build"),
    ("swmlab.oracles", "check_axioms", "oracles.check_axioms"),
    ("swmlab.oracles", "spot_check_axioms", "oracles.spot_check"),
    ("swmlab.oracles", "classify_second_order", "oracles.classify"),
    ("swmlab.oracles", "check_R_submodular", "oracles.check_R_submodular"),
    ("swmlab.core", "greedy", "core.greedy"),
    ("swmlab.core", "optimal", "core.optimal"),
    ("swmlab.gain", "GainContext.__init__", "gain.context"),
    ("swmlab.gain", "trace_one", "gain.trace_one"),
    ("swmlab.gain", "expected_trace", "gain.expected_trace"),
    ("swmlab.gain", "verify_lemmas", "gain.verify_lemmas"),
    ("swmlab.gain", "verify_eq1", "gain.verify_eq1"),
    ("swmlab.gain", "verify_second_half", "gain.verify_second_half"),
    ("swmlab.gain", "conjecture_check", "gain.conjecture_check"),
    ("swmlab.lp", "build_lp_beta", "lp.build"),
    ("swmlab.lp", "build_lp_beta_lambda", "lp.build"),
    ("swmlab.lp", "build_lp_general", "lp.build"),
    ("swmlab.lp", "simplex_solve", "lp.simplex"),
    ("swmlab.lp", "closed_form_beta_lambda", "lp.closed_form"),
    ("swmlab.lp", "closed_form_general", "lp.closed_form"),
    ("swmlab.instances", "load_instance", "instances.load"),
    ("swmlab.instances", "save_instance", "instances.save"),
    ("swmlab.instances", "random_instance", "instances.generate"),
    ("swmlab.instances", "random_family_instance", "instances.generate"),
    ("swmlab.instances", "random_coverage_oracle", "instances.generate"),
    ("swmlab.instances", "random_budgeted_oracle", "instances.generate"),
    ("swmlab.instances", "random_b_matching_oracle", "instances.generate"),
    ("swmlab.instances", "random_cut_oracle", "instances.generate"),
    ("swmlab.instances", "random_table_oracle", "instances.generate"),
]
CLI_FUNCTIONS = ("main", "build_parser", "cmd_simulate", "cmd_lp",
                 "cmd_classify", "cmd_verify", "cmd_conjecture",
                 "_write_report", "_report", "_parse_rational")
HOT = {"core.greedy", "core.optimal", "gain.trace_one"}
ORDER_ENUMERATORS = {"gain.expected_trace", "gain.verify_lemmas",
                     "gain.verify_eq1", "gain.verify_second_half",
                     "gain.conjecture_check"}
LAYERS = ("oracles", "core", "gain", "lp", "instances", "cli")
ROOT = "bench"


def _layer(name: str) -> str:
    return name.split(".", 1)[0]


def _orders(args: inspect.BoundArguments) -> int:
    """Orders an exhaustive or sampled call walks, from its inputs."""
    args.apply_defaults()
    a = args.arguments
    n = a["instance"].n if "instance" in a else a["ctx"].n
    if a.get("mode", "exact") == "exact":
        return math.factorial(n)
    return int(a["samples"])


class Tracer:
    """Stack of open calls, per-name aggregates and the list of spans."""

    def __init__(self):
        self.calls: dict[str, int] = {}
        self.total: dict[str, float] = {}
        self.self_time: dict[str, float] = {}
        self.counters: dict[str, int] = {}
        self.spans: list[list] = []
        self._stack: list[list] = []   # [name, child time, span id]
        self._value_queries = [0]
        self._restore: list[tuple] = []
        self._task = None

    # -- recording --------------------------------------------------------

    def count(self, key: str, amount: int = 1):
        self.counters[key] = self.counters.get(key, 0) + amount

    def _enter(self, name: str):
        sid = len(self.spans) if name not in HOT else None
        parent = self._stack[-1][2] if self._stack else None
        frame = [name, 0.0, sid]
        if sid is not None:
            self.spans.append([sid, parent, self._task, name, 0.0, 0.0])
        self._stack.append(frame)
        return frame

    def _exit(self, frame, start: float, end: float):
        self._stack.pop()
        name, child, sid = frame
        dur = end - start
        self.calls[name] = self.calls.get(name, 0) + 1
        self.total[name] = self.total.get(name, 0.0) + dur
        self.self_time[name] = self.self_time.get(name, 0.0) + dur - child
        if self._stack:
            self._stack[-1][1] += dur
        if sid is not None:
            self.spans[sid][4:6] = [start, end]

    @contextlib.contextmanager
    def span(self, name: str, task=None):
        """A span opened by the benchmark itself."""
        if task is not None:
            self._task = task
        frame = self._enter(name)
        start = perf_counter()
        try:
            yield
        finally:
            self._exit(frame, start, perf_counter())

    def _wrap(self, fn, name: str):
        tracer = self
        layer = _layer(name)
        sig = inspect.signature(fn)
        counts_orders = name in ORDER_ENUMERATORS

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if counts_orders:
                tracer.count("gain.orders",
                             _orders(sig.bind(*args, **kwargs)))
            elif name == "core.optimal":
                inst = args[0] if args else kwargs["instance"]
                items = args[1] if len(args) > 1 else kwargs.get("items")
                k = inst.n if items is None else len(items)
                tracer.count("core.optimal_assignments", inst.m ** k)
            frame = tracer._enter(name)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                tracer._note_error(layer, name, exc)
                raise
            finally:
                tracer._exit(frame, start, perf_counter())
            if name == "lp.simplex":
                tracer.count("lp.pivots", result.iterations)
            return result

        return wrapper

    def _note_error(self, layer: str, name: str, exc: BaseException):
        from swmlab.errors import SwmlabError
        if name == "instances.load" and isinstance(exc, SwmlabError):
            self.count("instances.rejected")
        # count an exception once per layer it leaves, and only when it is
        # not one of the error types the CLI maps to exit code 2
        parent = self._stack[-2][0] if len(self._stack) > 1 else ROOT
        if _layer(parent) != layer and \
                not isinstance(exc, (SwmlabError, ValueError)):
            self.count(f"{layer}.errors")

    # -- installing -------------------------------------------------------

    def install(self):
        """Wrap every traced function and rebind all names that refer to it."""
        modules = [m for k, m in sorted(sys.modules.items())
                   if (k == "swmlab" or k.startswith("swmlab.")) and m]
        targets = list(TRACED) + [("swmlab.cli", f, "cli." + f.lstrip("_"))
                                  for f in CLI_FUNCTIONS]
        for modname, attr, name in targets:
            module = sys.modules[modname]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(module, cls_name)
                orig = cls.__dict__[meth]
                self._set(cls, meth, self._wrap(orig, name))
                continue
            orig = getattr(module, attr)
            wrapped = self._wrap(orig, name)
            for mod in modules:
                for key, val in list(vars(mod).items()):
                    if val is orig:
                        self._set(mod, key, wrapped)
        oracles = sys.modules["swmlab.oracles"]
        base = oracles.ValuationOracle
        orig_vm = base.__dict__["value_mask"]
        cell = self._value_queries

        def value_mask(self, mask, _orig=orig_vm, _cell=cell):
            _cell[0] += 1
            return _orig(self, mask)

        self._set(base, "value_mask", value_mask)

    def _set(self, owner, key, value):
        self._restore.append((owner, key, getattr(owner, key)))
        setattr(owner, key, value)

    def uninstall(self):
        for owner, key, value in reversed(self._restore):
            setattr(owner, key, value)
        self._restore.clear()

    # -- reporting --------------------------------------------------------

    def metrics(self) -> dict:
        """Per-layer metrics; times in seconds, counts as integers."""
        st, calls = self.self_time, self.calls
        c = dict(self.counters)
        c["oracles.value_queries"] = self._value_queries[0]

        def s(name):
            return st.get(name, 0.0)

        out = {
            "oracles.value_queries": c["oracles.value_queries"],
            "oracles.build_s": s("oracles.build"),
            "oracles.check_axioms_s": s("oracles.check_axioms"),
            "oracles.spot_check_s": s("oracles.spot_check"),
            "oracles.classify_s": s("oracles.classify"),
            "oracles.check_R_submodular_s": s("oracles.check_R_submodular"),
            "core.greedy_calls": calls.get("core.greedy", 0),
            "core.greedy_s": s("core.greedy"),
            "core.optimal_calls": calls.get("core.optimal", 0),
            "core.optimal_assignments": c.get("core.optimal_assignments", 0),
            "core.optimal_s": s("core.optimal"),
            "gain.orders": c.get("gain.orders", 0),
            "gain.trace_one_calls": calls.get("gain.trace_one", 0),
            "gain.trace_one_s": s("gain.trace_one"),
            "gain.context_s": s("gain.context"),
            "gain.expected_trace_s": s("gain.expected_trace"),
            "gain.verify_lemmas_s": s("gain.verify_lemmas"),
            "gain.verify_eq1_s": s("gain.verify_eq1"),
            "gain.verify_second_half_s": s("gain.verify_second_half"),
            "gain.conjecture_check_s": s("gain.conjecture_check"),
            "lp.solves": calls.get("lp.simplex", 0),
            "lp.pivots": c.get("lp.pivots", 0),
            "lp.build_s": s("lp.build"),
            "lp.simplex_s": s("lp.simplex"),
            "lp.closed_form_s": s("lp.closed_form"),
            "instances.loads": calls.get("instances.load", 0),
            "instances.load_s": self.total.get("instances.load", 0.0),
            "instances.rejected": c.get("instances.rejected", 0),
            "instances.generate_s": s("instances.generate"),
            "cli.calls": calls.get("cli.main", 0),
        }
        layer_self = {layer: 0.0 for layer in LAYERS}
        for name, t in st.items():
            if _layer(name) in layer_self:
                layer_self[_layer(name)] += t
        for layer in LAYERS:
            out[f"{layer}.self_s"] = layer_self[layer]
            out[f"{layer}.errors"] = c.get(f"{layer}.errors", 0)
        gain_core = layer_self["gain"] + layer_self["core"]
        out["gain.orders_per_s"] = (out["gain.orders"] / gain_core
                                    if gain_core > 0 else 0.0)
        out["bench.self_s"] = sum(t for name, t in st.items()
                                  if _layer(name) == ROOT)
        out["trace.wall_s"] = self.total.get(ROOT, 0.0)
        return out

    def span_records(self) -> list[dict]:
        keys = ("id", "parent", "task", "name", "start", "end")
        return [dict(zip(keys, sp)) for sp in self.spans]
