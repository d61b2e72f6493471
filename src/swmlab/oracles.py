"""Monotone submodular valuation oracles and their structural checks.

Item sets are int64 bitmasks over the ground set ``{0, .., n-1}``, so a
ground set has at most ``SAMPLED_MAX_N`` (63) items.  Public entry points
accept any iterable of item indices.  All oracles are immutable after
construction.  Each family has one evaluator, ``_values``, which reads an
int64 array of bitmasks at once; it builds the full value table for small
ground sets, so repeated queries are array lookups, and serves every query
and the sampled check above them.  The exhaustive checks and the
second-order classifier read that table as one row of marginal gains per
item, built by ``_gain_rows``; every check tests monotonicity as
MG(A, e) < -tol.  A check not given ``tol`` takes ``_default_tol``, which
scales ``ABS_TOL`` with the oracle's largest value, so its verdict does not
depend on the unit of value; an explicit ``tol`` is absolute.
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
EXHAUSTIVE_MAX_N = 16    # value-table precompute and exhaustive-check cap
SAMPLED_MAX_N = 63       # every set is an int64 bitmask
TABLE_CHUNK = 1 << 12    # sets per vectorised call while building a table
CHECK_CHUNK = 1 << 14    # marginal gains per block of the exhaustive scan


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

    Subclasses implement ``_values(masks)``, which evaluates a 1-D int64
    array of sets, or set ``_table`` to their full value table before
    calling ``__init__``.  Queries go through ``value_mask``, which serves
    from the table when there is one and reads ``_values`` on a
    one-element array otherwise.  The table is built with ``_values`` when
    the ground set is small enough.  Ground sets above ``SAMPLED_MAX_N``
    items are refused, since sets are int64 bitmasks.
    """

    kind = "abstract"
    _table: Optional[np.ndarray] = None

    def __init__(self, n: int):
        if n < 1:
            raise ValueError("ground set must be non-empty")
        if n > SAMPLED_MAX_N:
            raise SizeGuardError(
                f"valuation oracles are limited to n <= {SAMPLED_MAX_N} "
                f"(int64 bitmasks); got n={n}")
        self.n = n
        self._full = (1 << n) - 1
        if self._table is None and n <= EXHAUSTIVE_MAX_N:
            self._table = np.empty(1 << n)
            for lo in range(0, 1 << n, TABLE_CHUNK):
                hi = min(lo + TABLE_CHUNK, 1 << n)
                self._table[lo:hi] = self._values(np.arange(lo, hi))

    def _values(self, masks: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def value_mask(self, mask: int) -> float:
        if mask & ~self._full:
            raise InvalidQueryError(
                f"query mask {mask:#x} outside ground set of size {self.n}")
        if self._table is not None:
            return float(self._table[mask])
        return float(self._values(np.array([mask], dtype=np.int64))[0])

    def value_masks(self, masks: np.ndarray) -> np.ndarray:
        """Values of an int64 array of sets inside the ground set (not
        checked), of any shape, bit-identical to ``value_mask`` on each: a
        gather from the table when there is one, ``_values`` otherwise."""
        if self._table is not None:
            return self._table[masks]
        return self._values(masks.ravel()).reshape(masks.shape)

    def value(self, items: Iterable[int]) -> float:
        return self.value_mask(as_mask(items, self.n))

    def marginal_gain_mask(self, mask: int, e: int) -> float:
        if e < 0 or e >= self.n:
            raise InvalidQueryError(f"item {e} outside ground set of size {self.n}")
        bit = 1 << e
        if mask & bit and not mask & ~self._full:   # else value_mask raises
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
        self._holders = [0] * u      # per element: the items covering it
        for i, s in enumerate(self.item_sets):
            for e in s:
                if e < 0 or e >= u:
                    raise ValueError(f"element {e} outside universe of size {u}")
                self._holders[e] |= 1 << i
        super().__init__(len(self.item_sets))

    def _values(self, masks):
        total = np.zeros(len(masks))
        for w, holders in zip(self.universe_weights, self._holders):
            total += ((masks & holders) != 0) * w
        return total

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

    def _values(self, masks):
        total = np.zeros(len(masks))
        for i, w in enumerate(self.weights):
            total += (masks >> i & 1) * w
        return np.minimum(self.budget, total)

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

    def _values(self, masks):
        total = np.zeros(len(masks))
        taken = np.zeros(len(masks), dtype=np.int64)
        for i in sorted(range(self.n), key=lambda i: -self.weights[i]):
            take = (masks >> i & 1) * (taken < self.capacity)
            total += take * self.weights[i]
            taken += take
        return total

    def to_spec(self):
        return {"kind": "b_matching", "capacity": self.capacity,
                "weights": list(self.weights)}


SINK = -1


class CutOracle(ValuationOracle):
    """Cut value of S against the rest of the vertex set (items plus a sink).

    Edges are (u, v, w) with vertex ``-1`` denoting the sink, which is never
    part of S.  The constructor runs the axiom gate ``_check`` and rejects
    non-monotone configurations (and, should rounding break it, any other
    axiom), so every accepted cut oracle meets the standing
    monotone-submodular assumptions.
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
        _check(self)

    def _values(self, masks):
        inside = {SINK: False}
        inside.update((i, (masks & 1 << i) != 0) for i in range(self.n))
        total = np.zeros(len(masks))
        for u, v, w in self.edges:
            total += (inside[u] ^ inside[v]) * w
        return total

    def to_spec(self):
        return {"kind": "cut", "n": self.n,
                "edges": [[u, v, w] for u, v, w in self.edges]}


def subset_key(items: Iterable[int]) -> str:
    """Canonical string key for a subset: sorted indices joined by commas."""
    return ",".join(str(i) for i in sorted(items))


def _subset_keys(n: int) -> list[str]:
    """``subset_key`` of every set over ``n`` items, indexed by bitmask."""
    keys = [""]
    for i in range(n):
        keys += [f"{k},{i}" if k else str(i) for k in keys]
    return keys


def _subset_key_items(key) -> list[int]:
    """The items of a subset key, a comma-separated string or a collection
    of item indices, not checked against a ground set; ValueError if the
    key is neither."""
    try:
        if isinstance(key, str):
            return [int(p) for p in key.split(",") if p != ""]
        return [int(i) for i in key]
    except (TypeError, ValueError):
        raise ValueError(f"cannot read subset key {key!r}") from None


class TableOracle(ValuationOracle):
    """Exact lookup oracle from an explicit table of all 2^n subset values.

    ``values`` maps subset keys to values, or is an array of the 2^n values
    indexed by bitmask (copied).  A key in the canonical form of
    ``subset_key`` is read by one lookup; any other spelling is parsed, and
    a later key overwrites an earlier one for the same set.  With ``check``
    the oracle passes through the axiom gate ``_check``."""

    kind = "table"

    def __init__(self, n, values, check=True):
        n = _integer(n, "n")
        if n > 20:
            raise SizeGuardError(f"table oracle limited to n <= 20, got {n}")
        if isinstance(values, np.ndarray):
            if values.shape != (1 << n,):
                raise ValueError(f"table array must have shape ({1 << n},), "
                                 f"got {values.shape}")
            table = np.array(values, dtype=float)
            if not np.isfinite(table).all():
                raise ValueError("table values must be finite")
        else:
            table = np.full(1 << n, np.nan)
            canonical = dict(zip(_subset_keys(n), range(1 << n)))
            for key, v in values.items():
                mask = canonical.get(key)
                if mask is None:
                    mask = as_mask(_subset_key_items(key), n)
                table[mask] = _finite(v, "table value")
        missing = np.flatnonzero(np.isnan(table))
        if missing.size:
            raise ValueError(
                f"table is missing {missing.size} subsets, "
                f"first: {{{subset_key(mask_items(int(missing[0])))}}}")
        self._table = table
        super().__init__(n)
        if check:
            _check(self)

    def _values(self, masks):
        return self._table[masks]

    def to_spec(self):
        return {"kind": "table", "n": self.n,
                "table": dict(zip(_subset_keys(self.n),
                                  self._table.tolist()))}


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
    return TableOracle(oracle.n, oracle._table, check=False)


def oracle_from_spec(spec: dict) -> ValuationOracle:
    """Build an oracle from its JSON description (inverse of ``to_spec``),
    refusing fields its kind does not read.  Every oracle returned has
    passed the axiom gate ``_check``, in its constructor or here."""
    kind = spec.get("kind")
    fields = {"coverage": ("universe_weights", "item_sets"),
              "budgeted_additive": ("budget", "weights"),
              "b_matching": ("capacity", "weights"),
              "cut": ("n", "edges"), "table": ("n", "table")}.get(kind)
    if fields is None:
        raise ValueError(f"unknown oracle kind: {kind!r}")
    unknown = [f for f in spec if f != "kind" and f not in fields]
    if unknown:
        raise ValueError(f"unknown fields for kind {kind!r}: {unknown}")
    if kind == "coverage":
        return _check(make_coverage(spec["universe_weights"],
                                    spec["item_sets"]))
    if kind == "budgeted_additive":
        return _check(make_budgeted_additive(spec["budget"], spec["weights"]))
    if kind == "b_matching":
        return _check(make_b_matching(spec["capacity"], spec["weights"]))
    if kind == "cut":
        return make_cut(spec["n"], spec["edges"])
    table = spec["table"]
    if not isinstance(table, dict):
        raise TypeError("table must map subset keys to values")
    n = spec.get("n")
    if n is None:
        n = 1 + max((i for k in table for i in _subset_key_items(k)),
                    default=0)
    return make_table(n, table)


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

    def to_dict(self):
        return {"normalized": self.normalized, "monotone": self.monotone,
                "submodular": self.submodular, "passed": self.passed,
                "witnesses": {k: repr(v) for k, v in self.witnesses.items()}}


def _spread(x, items):
    """Insert a zero bit at each of the distinct positions ``items`` of
    ``x`` (an int or an int array): bit j of ``x`` moves to the j-th
    position outside ``items``.  The map keeps the order of its inputs."""
    for i in sorted(items):
        x = (x >> i << (i + 1)) | (x & ((1 << i) - 1))
    return x


def _gain_rows(t: np.ndarray, items) -> np.ndarray:
    """Rows of marginal gains of the set function with value table ``t``:
    row r is MG(., e), e = items[r], over the sets without e, ascending,
    with bit e squeezed out.  It is ``hi - lo`` of ``t.reshape(-1, 2,
    1 << e)``, the sets with e less those without, as every check reads."""
    rows = np.empty((len(items), t.size >> 1))
    for row, e in zip(rows, items):
        split = t.reshape(-1, 2, 1 << e)
        np.subtract(split[:, 1], split[:, 0], out=row.reshape(-1, 1 << e))
    return rows


def _first_violations(t: np.ndarray, n: int, tol: float):
    """First violations of monotonicity and local submodularity of the set
    function with value table ``t`` (indexed by bitmask over ``n`` items).

    A runs over all sets, and e, f over distinct items outside A.  Returns
    ``(mono, sub)``: the first ``(A, e)`` with MG(A, e) < -tol and the
    first ``(A, f, e)`` with MG(A, e) < MG(A + f, e) - tol, in ascending
    (A, e, f) order, sets as bitmasks; None when there is no violation.

    The scan reads the rows of ``_gain_rows`` for a chunk of items, at most
    ``CHECK_CHUNK`` values or one row, and each chunk costs one comparison
    for monotonicity and one per bit position p of a row for local
    submodularity: in row e, position p stands for item f = p + (p >= e).
    Hits are located only in a chunk that has some.  A check thus makes
    about ceil(n / max(1, CHECK_CHUNK / 2^(n-1))) * n comparisons: n while
    one chunk holds every row (n <= 11), n^2 at n >= 15, where a chunk is
    one row, as many as a loop over item pairs but on contiguous rows.
    """
    mono, sub = [], []
    step = max(1, CHECK_CHUNK // max(t.size >> 1, 1))
    for first in range(0, n, step):
        items = range(first, min(first + step, n))
        mg = _gain_rows(t, items)
        bad = mg < -tol
        for row in np.flatnonzero(bad.any(axis=1)):
            e = items[row]
            mono.append((_spread(int(bad[row].argmax()), (e,)), e))
        for pos in range(n - 1):
            pair = mg.reshape(len(items), -1, 2, 1 << pos)
            bad = pair[:, :, 0] < pair[:, :, 1] - tol
            if bad.any():
                bad = bad.reshape(len(items), -1)
                for row in np.flatnonzero(bad.any(axis=1)):
                    e = items[row]
                    f = pos + (pos >= e)
                    sub.append((_spread(int(bad[row].argmax()), (e, f)),
                                e, f))
    mono = min(mono, default=None)
    if not sub:
        return mono, None
    a, e, f = min(sub)
    return mono, (a, f, e)


def _default_tol(oracle: ValuationOracle) -> float:
    """The tolerance of a check not given one, ABS_TOL * max(1, |v(N)|):
    v(N), the value of the whole ground set, is the largest value a
    monotone oracle takes, so float rounding of its values is not read as
    a violation, whatever their unit.  A v(N) that is not finite is
    refused."""
    top = _finite(oracle.value_mask(oracle._full),
                  f"{oracle.kind} value of the ground set")
    return ABS_TOL * max(1.0, abs(top))


def _normalization(oracle: ValuationOracle, tol: float) -> dict:
    """The witness of |v(empty set)| > tol, empty if there is none."""
    v0 = oracle.value_mask(0)
    return {} if abs(v0) <= tol else {"normalized": (v0,)}


def check_axioms(oracle: ValuationOracle,
                 tol: Optional[float] = None) -> AxiomReport:
    """Exhaustively verify normalization, monotonicity and submodularity.

    Reads the oracle's value table through ``_first_violations``, so every
    set and every pair of items outside it is checked, monotonicity as
    MG(A, e) < -tol like ``spot_check_axioms``.  Witnesses record the
    first violation per axiom in ascending (A, e, f) order: ``(A, e)`` for
    monotonicity and ``(A, {f}, e)`` with a negative gain reduction for
    submodularity.  Refuses ground sets above the exhaustive cap
    ``EXHAUSTIVE_MAX_N``; ``spot_check_axioms`` samples those.  ``tol``
    defaults to ``_default_tol``, ABS_TOL * max(1, |v(N)|).
    """
    n = oracle.n
    if n > EXHAUSTIVE_MAX_N:
        raise SizeGuardError(
            f"exhaustive axiom check limited to n <= {EXHAUSTIVE_MAX_N} "
            f"(got n={n}); use spot_check_axioms for a randomized scan")
    tol = _default_tol(oracle) if tol is None else tol
    witnesses = _normalization(oracle, tol)
    mono, sub = _first_violations(oracle._table, n, tol)
    if mono is not None:
        a, e = mono
        witnesses["monotone"] = (frozenset(mask_items(a)), e)
    if sub is not None:
        a, f, e = sub
        witnesses["submodular"] = (frozenset(mask_items(a)),
                                   frozenset((f,)), e)
    return AxiomReport("normalized" not in witnesses, mono is None,
                       sub is None, witnesses)


@dataclass
class SpotCheckReport:
    samples: int
    seed: int
    violation: Optional[tuple]

    @property
    def no_violation_found(self) -> bool:
        return self.violation is None


def spot_check_axioms(oracle: ValuationOracle, samples: int = 100_000,
                      seed: int = 0,
                      tol: Optional[float] = None) -> SpotCheckReport:
    """Randomized scan for ground sets above the exhaustive cap.

    Draws ``samples`` triples (A, f, e), e != f both outside A, in one
    batch from a generator seeded with ``seed``, and tests
    MG(A, e) >= -tol and MG(A, e) >= MG(A + f, e) - tol on them with one
    vectorised evaluation of the four terms per slice of ``TABLE_CHUNK``
    samples, stopping at the first slice with a violation.  The report
    holds the first violating sample (monotonicity before submodularity
    within a sample).  ``tol`` defaults to ``_default_tol``, as in
    ``check_axioms``.
    A clean run means "no violation found", never "passes".  Needs
    n >= 2.
    """
    n = oracle.n
    tol = _default_tol(oracle) if tol is None else tol
    rng = np.random.default_rng(seed)
    es = rng.integers(0, n, size=samples)
    fs = (es + rng.integers(1, n, size=samples)) % n
    sets = rng.integers(0, 1 << n, size=samples)
    values = oracle._values
    for lo in range(0, samples, TABLE_CHUNK):
        e, f = es[lo:lo + TABLE_CHUNK], fs[lo:lo + TABLE_CHUNK]
        ebit, fbit = 1 << e, 1 << f
        a = sets[lo:lo + TABLE_CHUNK] & ~(ebit | fbit)
        v_ae, v_a, v_aef, v_af = values(np.concatenate(
            (a | ebit, a, a | ebit | fbit, a | fbit))).reshape(4, -1)
        mg = v_ae - v_a
        mono = mg < -tol
        bad = np.flatnonzero(mono | (mg < v_aef - v_af - tol))
        if bad.size:
            k = bad[0]
            aset, ek = frozenset(mask_items(int(a[k]))), int(e[k])
            if mono[k]:
                return SpotCheckReport(samples, seed, ("monotone", aset, ek))
            return SpotCheckReport(
                samples, seed,
                ("submodular", aset, frozenset((int(f[k]),)), ek))
    return SpotCheckReport(samples, seed, None)


def _check(oracle: ValuationOracle) -> ValuationOracle:
    """The axiom gate for oracle input: ``oracle`` if it meets the standing
    assumptions, else ``AxiomViolationError``.  Up to ``EXHAUSTIVE_MAX_N``
    items it reads ``check_axioms``; above, normalization and the rest by
    ``spot_check_axioms``.  Both branches compare at ``_default_tol``, so
    an oracle whose v(N) is not finite is refused.  A non-monotone cut
    gets its own message and an (A, e) witness, A sorted.
    """
    if oracle.n <= EXHAUSTIVE_MAX_N:
        witnesses = check_axioms(oracle).witnesses
    else:
        tol = _default_tol(oracle)
        witnesses = _normalization(oracle, tol)
        violation = spot_check_axioms(oracle, tol=tol).violation
        if violation is not None:
            witnesses[violation[0]] = violation[1:]
    if not witnesses:
        return oracle
    if oracle.kind == "cut" and "monotone" in witnesses:
        a, e = witnesses["monotone"]
        raise AxiomViolationError("cut construction is not monotone",
                                  witness=(tuple(sorted(a)), e))
    raise AxiomViolationError(
        f"{oracle.kind} violates axioms: {list(witnesses)}",
        witness=witnesses)


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
                          tol: Optional[float] = None) -> SecondOrderClass:
    """Classify second-order behavior from the signs of third differences.

    The definition compares GR(A, S, e) against GR(B, S, e) for A subset of
    B, S disjoint from B, and e outside B and S (inside them the marginal
    gains are degenerate and carry no second-order information).  That gap
    telescopes into a sum of third differences
    D(C; f, s, e) = GR(C, {s}, e) - GR(C + f, {s}, e) over items f, s and
    sets C outside {f, s, e}, and in exact arithmetic D is symmetric in
    f, s and e.  So the label only needs the sign of D for each triple of
    items f < s < e and each C outside it; ``tol`` is applied to each D,
    and defaults to ``_default_tol``, ABS_TOL * max(1, |v(N)|).
    Each witness is the first such (C, C + f, {s}, e) in (f, s, e, C)
    order.  Refuses ground sets above the exhaustive cap.

    The scan reads the rows of ``_gain_rows``, MG(., e) with bit e
    squeezed out, as ``_first_violations`` does.  Per pair f < s, in
    (f, s) order, the rows e > s are differenced over bit s into
    GR(C, {s}, e), then over bit f into D, up to the first pair by which
    both witnesses are found.
    """
    n = oracle.n
    if n > EXHAUSTIVE_MAX_N:
        raise SizeGuardError(
            f"second-order classification limited to n <= {EXHAUSTIVE_MAX_N} "
            f"(got n={n})")
    tol = _default_tol(oracle) if tol is None else tol
    mg = _gain_rows(oracle._table, range(n))
    wit = [None, None]   # violates GR(A,..) >= GR(B,..), resp. <=
    for f, s in itertools.combinations(range(n - 1), 2):
        rows = n - 1 - s
        gr = mg[s + 1:].reshape(rows, -1, 2, 1 << s)
        gr = (gr[:, :, 0] - gr[:, :, 1]).reshape(rows, -1, 2, 1 << f)
        d = (gr[:, :, 0] - gr[:, :, 1]).reshape(rows, -1)
        for k, bad in enumerate((d < -tol, d > tol)):
            if wit[k] is None and bad.any():
                row = int(bad.any(axis=1).argmax())
                e = s + 1 + row
                a = _spread(int(bad[row].argmax()), (f, s, e))
                wit[k] = (frozenset(mask_items(a)),
                          frozenset(mask_items(a | 1 << f)),
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
                       z: Iterable[int],
                       tol: Optional[float] = None) -> RSubmodularReport:
    """Verify submodularity of the gain-reduction-potential function R.

    R(A) = (v(S+Z) - v(Z)) - (v(S+Z+A) - v(Z+A)) on subsets A of the ground
    set outside S and Z.  For second-order supermodular oracles R must be
    submodular; this checks it exhaustively, on R's table over those sets.
    ``tol`` defaults to ``_default_tol``, ABS_TOL * max(1, |v(N)|), since
    R takes values in [0, v(N)] on a monotone submodular oracle.
    """
    n = oracle.n
    if n > EXHAUSTIVE_MAX_N:
        raise SizeGuardError(f"check limited to n <= {EXHAUSTIVE_MAX_N}")
    tol = _default_tol(oracle) if tol is None else tol
    smask = as_mask(s, n)
    zmask = as_mask(z, n)
    if smask & zmask:
        raise ValueError("S and Z must be disjoint")
    t = oracle._table
    sz = mask_items(smask | zmask)
    # r[x] = R(sets[x]), where bit j of x stands for the j-th item outside
    # S and Z; both maps keep the ascending (A, e, f) witness order
    sets = _spread(np.arange(1 << (n - len(sz))), sz)
    domain = [i for i in range(n) if i not in sz]
    base = t[smask | zmask] - t[zmask]
    r = base - (t[sets | smask | zmask] - t[sets | zmask])
    _, sub = _first_violations(r, len(domain), tol)
    sset, zset = frozenset(mask_items(smask)), frozenset(mask_items(zmask))
    if sub is None:
        return RSubmodularReport(True, sset, zset)
    a, f, e = sub
    witness = (frozenset(mask_items(int(sets[a]))), frozenset((domain[f],)),
               domain[e])
    return RSubmodularReport(False, sset, zset, witness)
