"""Monotone submodular valuation oracles and their structural checks.

Item sets are handled internally as integer bitmasks over the ground set
``{0, .., n-1}``.  Public entry points accept any iterable of item indices.
All oracles are immutable after construction and cache their full value
table for small ground sets, so repeated queries are array lookups.
"""
from __future__ import annotations

import itertools
import math
import numbers
from dataclasses import dataclass
from typing import Iterable, Optional

import numpy as np

from .errors import AxiomViolationError, InvalidQueryError, SizeGuardError

ABS_TOL = 1e-12
EXHAUSTIVE_MAX_N = 12    # value-table precompute and exhaustive-check cap


def as_mask(items: Iterable[int], n: int) -> int:
    """Convert an iterable of item indices to a bitmask, validating range."""
    mask = 0
    for i in items:
        i = int(i)
        if i < 0 or i >= n:
            raise InvalidQueryError(f"item {i} outside ground set of size {n}")
        mask |= 1 << i
    return mask


def _finite(x, what: str) -> float:
    """``x`` as a float; NaN and infinities are rejected."""
    x = float(x)
    if not math.isfinite(x):
        raise ValueError(f"{what} must be finite, got {x!r}")
    return x


def _integer(x, what: str) -> int:
    """``x`` as an int; only integers are accepted (not bools, floats or
    strings), so a malformed count is rejected instead of truncated."""
    if isinstance(x, bool) or not isinstance(x, numbers.Integral):
        raise ValueError(f"{what} must be an integer, got {x!r}")
    return int(x)


def mask_items(mask: int) -> tuple[int, ...]:
    """Inverse of as_mask: the sorted item indices set in the bitmask."""
    out = []
    i = 0
    while mask:
        if mask & 1:
            out.append(i)
        mask >>= 1
        i += 1
    return tuple(out)


class ValuationOracle:
    """Base class: a monotone, normalized, submodular set function.

    Subclasses implement ``_raw_value(mask)``, or set ``_table`` to their
    full value table before calling ``__init__``; queries go through
    ``value_mask`` which serves from the table when there is one.  The
    table is precomputed when the ground set is small enough.
    """

    kind = "abstract"
    _table: Optional[np.ndarray] = None

    def __init__(self, n: int):
        if n < 1:
            raise ValueError("ground set must be non-empty")
        self.n = n
        self._full = (1 << n) - 1
        if self._table is None and n <= EXHAUSTIVE_MAX_N:
            self._table = np.empty(1 << n)
            for m in range(1 << n):
                self._table[m] = self._raw_value(m)

    def _raw_value(self, mask: int) -> float:
        raise NotImplementedError

    def value_mask(self, mask: int) -> float:
        if mask & ~self._full:
            raise InvalidQueryError(
                f"query mask {mask:#x} outside ground set of size {self.n}")
        if self._table is not None:
            return float(self._table[mask])
        return self._raw_value(mask)

    def value(self, items: Iterable[int]) -> float:
        return self.value_mask(as_mask(items, self.n))

    def marginal_gain_mask(self, mask: int, e: int) -> float:
        if e < 0 or e >= self.n:
            raise InvalidQueryError(f"item {e} outside ground set of size {self.n}")
        bit = 1 << e
        if mask & bit:
            return 0.0
        return self.value_mask(mask | bit) - self.value_mask(mask)

    def to_spec(self) -> dict:
        """JSON-serializable description, see the instance file format."""
        raise NotImplementedError

    def __repr__(self):
        return f"<{type(self).__name__} kind={self.kind} n={self.n}>"


def value(oracle: ValuationOracle, s: Iterable[int]) -> float:
    """Value query: v(S)."""
    return oracle.value(s)


def marginal_gain(oracle: ValuationOracle, a: Iterable[int], e: int) -> float:
    """MG(A, e) = v(A + e) - v(A); zero when e is already in A."""
    return oracle.marginal_gain_mask(as_mask(a, oracle.n), e)


def gain_reduction(oracle: ValuationOracle, a: Iterable[int],
                   s: Iterable[int], e: int) -> float:
    """GR(A, S, e) = MG(A, e) - MG(A + S, e); non-negative for submodular v."""
    amask = as_mask(a, oracle.n)
    smask = as_mask(s, oracle.n)
    return (oracle.marginal_gain_mask(amask, e)
            - oracle.marginal_gain_mask(amask | smask, e))


# ---------------------------------------------------------------------------
# Concrete families
# ---------------------------------------------------------------------------

class CoverageOracle(ValuationOracle):
    """Weighted coverage: v(S) = total weight of universe elements covered."""

    kind = "coverage"

    def __init__(self, universe_weights, item_sets):
        self.universe_weights = [_finite(w, "universe weight")
                                 for w in universe_weights]
        u = len(self.universe_weights)
        if any(w < 0 for w in self.universe_weights):
            raise ValueError("universe weights must be non-negative")
        self.item_sets = [tuple(sorted(set(_integer(e, "element index")
                                           for e in s))) for s in item_sets]
        self._elem_masks = []
        for s in self.item_sets:
            em = 0
            for e in s:
                if e < 0 or e >= u:
                    raise ValueError(f"element {e} outside universe of size {u}")
                em |= 1 << e
            self._elem_masks.append(em)
        self._weight_cache: dict[int, float] = {0: 0.0}
        super().__init__(len(self.item_sets))

    def _covered_weight(self, emask: int) -> float:
        w = self._weight_cache.get(emask)
        if w is None:
            w = 0.0
            m, i = emask, 0
            while m:
                if m & 1:
                    w += self.universe_weights[i]
                m >>= 1
                i += 1
            self._weight_cache[emask] = w
        return w

    def _raw_value(self, mask: int) -> float:
        em, i = 0, 0
        m = mask
        while m:
            if m & 1:
                em |= self._elem_masks[i]
            m >>= 1
            i += 1
        return self._covered_weight(em)

    def to_spec(self):
        return {"kind": "coverage",
                "universe_weights": list(self.universe_weights),
                "item_sets": [list(s) for s in self.item_sets]}


class BudgetedAdditiveOracle(ValuationOracle):
    """Budgeted additive: v(S) = min(budget, sum of item weights in S)."""

    kind = "budgeted_additive"

    def __init__(self, budget, weights):
        self.budget = _finite(budget, "budget")
        self.weights = [_finite(w, "weight") for w in weights]
        if self.budget < 0 or any(w < 0 for w in self.weights):
            raise ValueError("budget and weights must be non-negative")
        super().__init__(len(self.weights))

    def _raw_value(self, mask: int) -> float:
        total, i = 0.0, 0
        while mask:
            if mask & 1:
                total += self.weights[i]
            mask >>= 1
            i += 1
        return min(self.budget, total)

    def to_spec(self):
        return {"kind": "budgeted_additive", "budget": self.budget,
                "weights": list(self.weights)}


class BMatchingOracle(ValuationOracle):
    """Capacitated selection with free disposal: keep the best ``capacity`` items."""

    kind = "b_matching"

    def __init__(self, capacity, weights):
        self.capacity = _integer(capacity, "capacity")
        if self.capacity < 1:
            raise ValueError(
                f"capacity must be a positive integer, got {capacity!r}")
        self.weights = [_finite(w, "weight") for w in weights]
        if any(w < 0 for w in self.weights):
            raise ValueError("weights must be non-negative")
        super().__init__(len(self.weights))

    def _raw_value(self, mask: int) -> float:
        ws = []
        i = 0
        while mask:
            if mask & 1:
                ws.append(self.weights[i])
            mask >>= 1
            i += 1
        ws.sort(reverse=True)
        return float(sum(ws[:self.capacity]))

    def to_spec(self):
        return {"kind": "b_matching", "capacity": self.capacity,
                "weights": list(self.weights)}


SINK = -1


class CutOracle(ValuationOracle):
    """Cut value of S against the rest of the vertex set (items plus a sink).

    Edges are (u, v, w) with vertex ``-1`` denoting the sink, which is never
    part of S.  The constructor verifies monotonicity exhaustively and
    rejects non-monotone configurations, so every accepted cut oracle meets
    the standing monotone-submodular assumptions.
    """

    kind = "cut"

    def __init__(self, n, edges):
        n = _integer(n, "n")
        if n > EXHAUSTIVE_MAX_N:
            raise SizeGuardError(
                f"cut construction requires exhaustive monotonicity check; "
                f"ground size {n} exceeds {EXHAUSTIVE_MAX_N}")
        self.edges = []
        for u, v, w in edges:
            u, v = _integer(u, "vertex"), _integer(v, "vertex")
            w = _finite(w, "edge weight")
            if w < 0:
                raise ValueError("edge weights must be non-negative")
            for x in (u, v):
                if x != SINK and not (0 <= x < n):
                    raise ValueError(f"vertex {x} outside items/sink for n={n}")
            if u == v:
                raise ValueError("self-loops are not allowed")
            self.edges.append((u, v, w))
        super().__init__(n)
        self._check_monotone()

    def _raw_value(self, mask: int) -> float:
        total = 0.0
        for u, v, w in self.edges:
            inu = u != SINK and bool(mask >> u & 1)
            inv = v != SINK and bool(mask >> v & 1)
            if inu != inv:
                total += w
        return total

    def _check_monotone(self):
        mono, _ = _first_violations(self._table, self.n, self._full, ABS_TOL)
        if mono is not None:
            a, e = mono
            raise AxiomViolationError("cut construction is not monotone",
                                      witness=(mask_items(a), e))

    def to_spec(self):
        return {"kind": "cut", "n": self.n,
                "edges": [[u, v, w] for u, v, w in self.edges]}


def subset_key(items: Iterable[int]) -> str:
    """Canonical string key for a subset: sorted indices joined by commas."""
    return ",".join(str(i) for i in sorted(items))


def _parse_subset_key(key, n) -> int:
    if isinstance(key, str):
        items = [int(p) for p in key.split(",") if p != ""]
    else:
        items = list(key)
    return as_mask(items, n)


class TableOracle(ValuationOracle):
    """Exact lookup oracle from an explicit table of all 2^n subset values."""

    kind = "table"

    def __init__(self, n, values, check=True):
        n = _integer(n, "n")
        if n > 20:
            raise SizeGuardError(f"table oracle limited to n <= 20, got {n}")
        table = np.full(1 << n, np.nan)
        for key, v in values.items():
            table[_parse_subset_key(key, n)] = _finite(v, "table value")
        missing = np.flatnonzero(np.isnan(table))
        if missing.size:
            raise ValueError(
                f"table is missing {missing.size} subsets, "
                f"first: {{{subset_key(mask_items(int(missing[0])))}}}")
        self._table = table
        super().__init__(n)
        if check and n <= EXHAUSTIVE_MAX_N:
            report = check_axioms(self)
            if not report.passed:
                raise AxiomViolationError(
                    f"table violates axioms: {report.failed_axioms()}",
                    witness=report.witnesses)

    def to_spec(self):
        return {"kind": "table", "n": self.n,
                "table": {subset_key(mask_items(m)): float(self._table[m])
                          for m in range(1 << self.n)}}


def make_coverage(universe_weights, item_sets) -> CoverageOracle:
    return CoverageOracle(universe_weights, item_sets)


def make_budgeted_additive(budget, weights) -> BudgetedAdditiveOracle:
    return BudgetedAdditiveOracle(budget, weights)


def make_additive(weights) -> BudgetedAdditiveOracle:
    """Plain additive function, as a budgeted-additive with a slack budget."""
    return BudgetedAdditiveOracle(sum(weights) + 1.0, weights)


def make_b_matching(capacity, weights) -> BMatchingOracle:
    return BMatchingOracle(capacity, weights)


def make_cut(n, edges) -> CutOracle:
    return CutOracle(n, edges)


def make_table(n, values, check=True) -> TableOracle:
    return TableOracle(n, values, check=check)


def tabulate(oracle: ValuationOracle) -> TableOracle:
    """Freeze any small oracle into an explicit table oracle."""
    if oracle.n > EXHAUSTIVE_MAX_N:
        raise SizeGuardError("tabulate requires n <= %d" % EXHAUSTIVE_MAX_N)
    vals = {subset_key(mask_items(m)): oracle.value_mask(m)
            for m in range(1 << oracle.n)}
    return TableOracle(oracle.n, vals, check=False)


def oracle_from_spec(spec: dict) -> ValuationOracle:
    """Build an oracle from its JSON description (inverse of ``to_spec``)."""
    kind = spec.get("kind")
    if kind == "coverage":
        return make_coverage(spec["universe_weights"], spec["item_sets"])
    if kind == "budgeted_additive":
        return make_budgeted_additive(spec["budget"], spec["weights"])
    if kind == "b_matching":
        return make_b_matching(spec["capacity"], spec["weights"])
    if kind == "cut":
        return make_cut(spec["n"], spec["edges"])
    if kind == "table":
        table = spec["table"]
        if not isinstance(table, dict):
            raise TypeError("table must map subset keys to values")
        n = spec.get("n")
        if n is None:
            n = 1 + max((int(p) for k in table if k for p in k.split(",")),
                        default=0)
        return make_table(n, table)
    raise ValueError(f"unknown oracle kind: {kind!r}")


# ---------------------------------------------------------------------------
# Axiom checking
# ---------------------------------------------------------------------------

@dataclass
class AxiomReport:
    normalized: bool
    monotone: bool
    submodular: bool
    witnesses: dict

    @property
    def passed(self) -> bool:
        return self.normalized and self.monotone and self.submodular

    def failed_axioms(self) -> list[str]:
        return [name for name, ok in
                [("normalized", self.normalized), ("monotone", self.monotone),
                 ("submodular", self.submodular)] if not ok]

    def to_dict(self):
        return {"normalized": self.normalized, "monotone": self.monotone,
                "submodular": self.submodular, "passed": self.passed,
                "witnesses": {k: repr(v) for k, v in self.witnesses.items()}}


def _first_violations(t: np.ndarray, n: int, free: int, tol: float):
    """First violations of monotonicity and local submodularity of the set
    function with value table ``t`` (indexed by bitmask over ``n`` items).

    A runs over the subsets of ``free``, and e, f over distinct items of
    ``free`` outside A.  Returns ``(mono, sub)``: the first ``(A, e)`` with
    v(A + e) < v(A) - tol and the first ``(A, f, e)`` with
    MG(A, e) < MG(A + f, e) - tol, each first in ascending (A, e, f) order
    and None when there is no violation.  Sets are bitmasks.
    """
    masks = np.arange(1 << n)
    in_free = (masks & ~free) == 0
    mono, sub = [], []
    for e in mask_items(free):
        ebit = 1 << e
        a_ok = in_free & ((masks & ebit) == 0)
        t_e = t[masks | ebit]
        hits = np.flatnonzero(a_ok & (t_e < t - tol))
        if hits.size:
            mono.append((int(hits[0]), e))
        mg = t_e - t
        for f in mask_items(free & ~ebit):
            fbit = 1 << f
            mg_f = t[masks | ebit | fbit] - t[masks | fbit]
            hits = np.flatnonzero(a_ok & ((masks & fbit) == 0)
                                  & (mg < mg_f - tol))
            if hits.size:
                sub.append((int(hits[0]), e, f))
    mono = min(mono, default=None)
    if not sub:
        return mono, None
    a, e, f = min(sub)
    return mono, (a, f, e)


def check_axioms(oracle: ValuationOracle, tol: float = ABS_TOL) -> AxiomReport:
    """Exhaustively verify normalization, monotonicity and submodularity.

    Witnesses record the first violation per axiom: ``(A, e)`` for
    monotonicity and ``(A, S, e)`` with a negative gain reduction for
    submodularity.  Refuses ground sets above the exhaustive cap.
    """
    n = oracle.n
    if n > EXHAUSTIVE_MAX_N:
        raise SizeGuardError(
            f"exhaustive axiom check limited to n <= {EXHAUSTIVE_MAX_N} "
            f"(got n={n}); use spot_check_axioms for a randomized scan")
    witnesses: dict = {}
    normalized = abs(oracle.value_mask(0)) <= tol
    if not normalized:
        witnesses["normalized"] = (oracle.value_mask(0),)
    mono, sub = _first_violations(oracle._table, n, oracle._full, tol)
    if mono is not None:
        a, e = mono
        witnesses["monotone"] = (frozenset(mask_items(a)), e)
    if sub is not None:
        a, f, e = sub
        witnesses["submodular"] = (frozenset(mask_items(a)),
                                   frozenset((f,)), e)
    return AxiomReport(normalized, mono is None, sub is None, witnesses)


@dataclass
class SpotCheckReport:
    samples: int
    seed: int
    violation: Optional[tuple]

    @property
    def no_violation_found(self) -> bool:
        return self.violation is None


def spot_check_axioms(oracle: ValuationOracle, samples: int = 100_000,
                      seed: int = 0, tol: float = ABS_TOL) -> SpotCheckReport:
    """Randomized scan for large ground sets.

    Samples ``samples`` (A, f, e) triples from a seeded generator and tests
    the monotone and submodular inequalities.  A clean run means "no
    violation found", never "passes".
    """
    rng = np.random.default_rng(seed)
    n = oracle.n
    for _ in range(samples):
        m = int(rng.integers(0, 1 << n))
        e, f = (int(x) for x in rng.choice(n, size=2, replace=False))
        m &= ~((1 << e) | (1 << f))
        mg_a = oracle.marginal_gain_mask(m, e)
        if mg_a < -tol:
            return SpotCheckReport(samples, seed,
                                   ("monotone", frozenset(mask_items(m)), e))
        mg_af = oracle.marginal_gain_mask(m | (1 << f), e)
        if mg_a < mg_af - tol:
            return SpotCheckReport(samples, seed,
                                   ("submodular", frozenset(mask_items(m)),
                                    frozenset((f,)), e))
    return SpotCheckReport(samples, seed, None)


# ---------------------------------------------------------------------------
# Second-order classification
# ---------------------------------------------------------------------------

@dataclass
class SecondOrderClass:
    """Classification of GR(A, S, e) monotonicity in A.

    ``label`` is the strongest class satisfied: ``modular`` (both directions
    hold, i.e. GR is constant in A), ``supermodular`` (GR non-increasing in
    A), ``submodular`` (non-decreasing), or ``none``.  Witnesses are
    (A, B, S, e) tuples violating the excluded direction and can be replayed
    through ``gain_reduction``.
    """
    label: str
    witness_supermodular: Optional[tuple] = None
    witness_submodular: Optional[tuple] = None

    @property
    def is_second_order_supermodular(self) -> bool:
        return self.label in ("modular", "supermodular")

    def to_dict(self):
        return {"label": self.label,
                "witness_supermodular": repr(self.witness_supermodular),
                "witness_submodular": repr(self.witness_submodular)}


def classify_second_order(oracle: ValuationOracle,
                          tol: float = ABS_TOL) -> SecondOrderClass:
    """Classify second-order behavior from the signs of third differences.

    The definition compares GR(A, S, e) against GR(B, S, e) for A subset of
    B, S disjoint from B, and e outside B and S (inside them the marginal
    gains are degenerate and carry no second-order information).  That gap
    telescopes into a sum of third differences
    D(C; f, s, e) = GR(C, {s}, e) - GR(C + f, {s}, e) over items f, s and
    sets C outside {f, s, e}, and in exact arithmetic D is symmetric in
    f, s and e.  So the label only needs the sign of D for each triple of
    items and each C outside it; ``tol`` is applied to each D.  Each
    witness is one such (C, C + f, {s}, e).  Refuses ground sets above the
    exhaustive cap.
    """
    n = oracle.n
    if n > EXHAUSTIVE_MAX_N:
        raise SizeGuardError(
            f"second-order classification limited to n <= {EXHAUSTIVE_MAX_N} "
            f"(got n={n})")
    t = oracle._table
    masks = np.arange(1 << n)
    wit = [None, None]   # violates GR(A,..) >= GR(B,..), resp. <=
    for f, s, e in itertools.combinations(range(n), 3):
        fbit, sbit, ebit = 1 << f, 1 << s, 1 << e
        c = masks[(masks & (fbit | sbit | ebit)) == 0]
        cf = c | fbit
        d = (((t[c | ebit] - t[c]) - (t[c | sbit | ebit] - t[c | sbit]))
             - ((t[cf | ebit] - t[cf]) - (t[cf | sbit | ebit] - t[cf | sbit])))
        for k, bad in enumerate((d < -tol, d > tol)):
            hits = np.flatnonzero(bad)
            if wit[k] is None and hits.size:
                a = int(c[hits[0]])
                wit[k] = (frozenset(mask_items(a)),
                          frozenset(mask_items(a | fbit)),
                          frozenset((s,)), e)
        if None not in wit:
            break
    wit_super, wit_sub = wit
    if wit_super is None and wit_sub is None:
        label = "modular"
    elif wit_super is None:      # GR non-increasing in A always held
        label = "supermodular"
    elif wit_sub is None:        # GR non-decreasing in A always held
        label = "submodular"
    else:
        label = "none"
    return SecondOrderClass(label, wit_super, wit_sub)


@dataclass
class RSubmodularReport:
    passed: bool
    s: frozenset
    z: frozenset
    witness: Optional[tuple] = None

    def to_dict(self):
        return {"passed": self.passed, "s": sorted(self.s),
                "z": sorted(self.z), "witness": repr(self.witness)}


def check_R_submodular(oracle: ValuationOracle, s: Iterable[int],
                       z: Iterable[int], tol: float = ABS_TOL) -> RSubmodularReport:
    """Verify submodularity of the gain-reduction-potential function R.

    R(A) = (v(S+Z) - v(Z)) - (v(S+Z+A) - v(Z+A)) on subsets A of the ground
    set outside S and Z.  For second-order supermodular oracles R must be
    submodular; this checks it exhaustively.
    """
    n = oracle.n
    if n > EXHAUSTIVE_MAX_N:
        raise SizeGuardError(f"check limited to n <= {EXHAUSTIVE_MAX_N}")
    smask = as_mask(s, n)
    zmask = as_mask(z, n)
    if smask & zmask:
        raise ValueError("S and Z must be disjoint")
    t = oracle._table
    masks = np.arange(1 << n)
    base = t[smask | zmask] - t[zmask]
    r = base - (t[masks | smask | zmask] - t[masks | zmask])
    domain = oracle._full & ~(smask | zmask)
    _, sub = _first_violations(r, n, domain, tol)
    sset, zset = frozenset(mask_items(smask)), frozenset(mask_items(zmask))
    if sub is None:
        return RSubmodularReport(True, sset, zset)
    a, f, e = sub
    witness = (frozenset(mask_items(a)), frozenset((f,)), e)
    return RSubmodularReport(False, sset, zset, witness)
