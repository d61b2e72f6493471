"""Gain instrumentation for greedy allocation traces.

For a fixed reference (optimal) allocation and indexing permutation sigma,
Gain(j, A) measures how much item j could still add by going to its
reference agent, given the current allocation A plus the reference agent's
earlier-sigma reference items.  The trace vectors w_i, a_i, b_i record, per
arrival position, greedy's welfare increment and the Gain reduction it
inflicts on already-arrived (b) and future (a) items; beta = sum of b_i.

Exact expectations over all n! arrival orders come from chains of greedy
states, all run by one layer loop (``_forward``) under one cap,
``EXACT_TRACE_MAX_N``: greedy's agent masks after k arrivals fix the arrived
set, every item's Gain and the a/b split of the next step, so each state is
expanded once however many orders reach it.  A layer is an int64 array of
state rows ``[r, S]`` (greedy's m agent masks, then any rows a chain
carries: further arrived sets, or tags held above bit n, so a state's
arrived items are the union of its rows below bit n) with a probability
vector ``[S]``, in first-occurrence order.  One step lists the transitions
(state, unarrived item j) state-major with j ascending, runs
``core.greedy_steps`` once on all of them, and merges equal new states,
compared row by row whatever the row width, in order of first occurrence,
adding their probabilities with ``np.bincount`` in transition order.
Every expectation then adds its terms with ordered cumulative sums in that
same order, so each report has the bytes a loop over the states and
transitions, one scalar query at a time, gives.

The chain from the empty allocation (``_state_pass``) runs once per
``GainContext`` and serves ``expected_trace`` (in exact mode, and in
Monte-Carlo mode up to the cap), ``verify_lemmas`` (its per-step bounds
checked as arrays over each layer's transitions, each witness order read
back along the first transition into each state), ``verify_eq1`` and
``verify_second_half``.
Chains from chosen start states run as batches: the eq1 joint chains and
the second half's Y chains from batches of the states after n/2 arrivals
(``CHAIN_BATCH`` bounds a batch's widest layer), and
``conjecture_check``'s n move-side chains together with the chain from
the empty allocation, told apart by a tag row.  No suite enumerates
orders.

Monte-Carlo mode reads its orders from the seeded stream of
``orders.orders``: sample k of ``seed`` is the order that NumPy's
generator seeded with ``SeedSequence(entropy=seed, spawn_key=(k,))`` draws
with ``permutation(n)`` (SeedSequence -> PCG64 -> Fisher-Yates), computed
for a whole batch at once, so each sample can be replayed on its own and
the results are reproducible.  It takes a batch of orders at a time and
sums the per-order values in sample order, so it reports what a
``trace_one`` loop over the same orders gives, bit for bit.  Up to
``EXACT_TRACE_MAX_N`` items every step a sample of ``expected_trace`` can
take is a transition of the state pass, so a batch of ``WALK_BATCH``
orders walks the pass (``_walk_batch``): per position one lookup from
(state, item) to the transition, whose w, a and b it reads and whose
next-layer state it moves to.  Above the cap, and for ``trace_one`` (one
row of a batch), per-order traces run as batches of ``MC_BATCH`` orders
(``_trace_batch``), one greedy step for every order of the batch at once
through ``core.greedy_steps``.
``conjecture_check`` runs greedy on the moved orders of each sample at any
n: it takes an ``Instance`` and builds no ``GainContext``, so there is
no pass to walk (each moved order is a permutation and could walk one).
"""
from __future__ import annotations

import math
from functools import cached_property
from itertools import islice
from dataclasses import dataclass, field
from typing import NamedTuple, Optional, Sequence

import numpy as np

from .core import (OPTIMAL_MAX_ASSIGNMENTS, Allocation, Instance,
                   _overlapping, greedy, greedy_steps, marginal_gains,
                   optimal, union, welfare)
from .errors import InvalidQueryError, SizeGuardError
from .oracles import ABS_TOL, classify_second_order, mask_items
from .orders import orders as seeded_orders

EXACT_TRACE_MAX_N = 8      # cap of every exact expectation (_forward)
MC_BATCH = 1024            # orders per batch of greedy runs (_trace_batch,
                           # conjecture_check); bounds their memory
WALK_BATCH = 2048          # orders per batch of state-pass walks; bounds the
                           # memory of Monte-Carlo expected_trace up to the cap
CHAIN_BATCH = 4096         # widest layer of one batch of chains from chosen
                           # start states (eq1, second half); bounds memory
IDENTITY_TOL = 1e-10
_A_B = np.array([False, True])[:, None, None]   # a: future items, b: arrived


class GainContext:
    """Instance plus the reference allocation and sigma that define Gain.

    Every trace and check divides by the reference optimum, so one that is
    not finite and positive is refused."""

    def __init__(self, instance: Instance,
                 opt_allocation: Optional[Allocation] = None,
                 sigma: Optional[Sequence[int]] = None):
        self.instance = instance
        n, m = instance.n, instance.m
        if opt_allocation is None:
            opt_allocation, opt_value, opt_map = optimal(instance)
        else:
            if opt_allocation.assigned_mask != (1 << n) - 1:
                raise ValueError("reference allocation must assign every item")
            if _overlapping(opt_allocation.masks):
                raise ValueError(
                    "reference allocation must give each item to one agent")
            opt_value = welfare(instance, opt_allocation)
            opt_map = {j: ell for ell, msk in enumerate(opt_allocation.masks)
                       for j in mask_items(msk)}
        self.opt_value = float(opt_value)
        if not (math.isfinite(self.opt_value) and self.opt_value > 0):
            raise ValueError("reference optimum must be finite and positive, "
                             f"got {self.opt_value!r}")
        self.opt_allocation = opt_allocation
        self.opt_map = opt_map
        if sigma is None:
            sigma = tuple(range(n))
        else:
            sigma = tuple(int(x) for x in sigma)
            if sorted(sigma) != list(range(n)):
                raise ValueError("sigma must be a permutation of the items")
        self.sigma = sigma

        # prior[j] = reference agent's reference items strictly before j in sigma
        self._prior = [0] * n
        before = 0
        for j in sigma:
            self._prior[j] = opt_allocation.masks[opt_map[j]] & before
            before |= 1 << j
        self._agent_items = [tuple(j for j in range(n) if opt_map[j] == ell)
                             for ell in range(m)]
        self._ref = np.array([opt_map[j] for j in range(n)], dtype=np.int64)
        # per reference agent with items: its items, their prior masks, bits
        self._gain_columns = [
            (ell, np.array(items), np.array([self._prior[i] for i in items],
                                            dtype=np.int64),
             np.left_shift(1, np.array(items, dtype=np.int64)))
            for ell, items in enumerate(self._agent_items) if items]

    @property
    def n(self) -> int:
        return self.instance.n

    @property
    def m(self) -> int:
        return self.instance.m

    @cached_property
    def _pass(self) -> "_StatePass":
        """The state pass, run once and shared by every exact suite."""
        return _state_pass(self)


def gain(ctx: GainContext, j: int, a: Allocation) -> float:
    """Gain(j, A) per the fixed reference allocation and sigma."""
    if a.m != ctx.m:
        raise ValueError("allocation agent count mismatch")
    if j < 0 or j >= ctx.n:
        raise InvalidQueryError(f"item {j} outside ground set of size {ctx.n}")
    if a.assigned_mask >> ctx.n:
        raise InvalidQueryError(f"allocation holds items outside the ground "
                                f"set of size {ctx.n}")
    masks = np.array(a.masks, dtype=np.int64)[:, None]
    return float(_item_gains(ctx, masks)[0, j])


def gain_set(ctx: GainContext, s, a: Allocation) -> float:
    """Gain(S, A) = sum of Gain(j, A) over j in S."""
    return sum(gain(ctx, j, a) for j in s)


@dataclass
class TraceOne:
    """Trace vectors for a single arrival order (not yet averaged)."""

    order: tuple[int, ...]
    w: np.ndarray
    a: np.ndarray
    b: np.ndarray
    gain_before: np.ndarray        # Gain(pi_i, A^{i-1}) per position
    welfare: float


def trace_one(ctx: GainContext, order: Sequence[int]) -> TraceOne:
    """Run greedy along one order and split each step's Gain reduction into
    the part hitting already-arrived items (b) and future items (a): one
    row of ``_trace_batch``.

    The arriving item itself counts as arrived, so its own Gain drop lands
    in b.
    """
    order = tuple(int(j) for j in order)
    if sorted(order) != list(range(ctx.n)):
        raise ValueError("trace_one requires a permutation of the items")
    w, av, bv, gb = (x[0] for x in _trace_batch(
        ctx, np.array([order], dtype=np.int64)))
    return TraceOne(order, w, av, bv, gb, float(w.sum()))


@dataclass
class _Layer:
    """Chain states after k arrivals, in first-occurrence order: int64
    rows ``states[r, S]``, whose first m rows are greedy's agent masks and
    any further rows either further arrived sets or tags held above bit n,
    so the union of the rows below bit n is the arrived set, and their
    probabilities ``p[S]``."""

    states: np.ndarray
    p: np.ndarray


@dataclass
class _Step:
    """The transitions (state, unarrived item j) of one layer, state-major
    with j ascending: source state ``src``, item ``items``, probability
    ``q``, greedy's agent and marginal (None when the chain's ``advance``
    does not report them), ``inv``, the next-layer state it leads to, and
    ``keep``, per next-layer state the transition that first leads to it."""

    src: np.ndarray
    items: np.ndarray
    q: np.ndarray
    chosen: Optional[np.ndarray]
    marginal: Optional[np.ndarray]
    inv: np.ndarray
    keep: np.ndarray


def _batches(size: int, reach: int):
    """Slices that cut ``size`` start states into runs of consecutive ones,
    each with at most ``CHAIN_BATCH // reach`` states (at least one), for
    chains of which each start state reaches at most ``reach`` states at
    the widest layer."""
    step = max(1, CHAIN_BATCH // reach)
    return [slice(lo, lo + step) for lo in range(0, size, step)]


def _or_rows(rows: np.ndarray) -> np.ndarray:
    return np.bitwise_or.reduce(rows, axis=0)


def _member(masks: np.ndarray, n: int) -> np.ndarray:
    """[S, n] booleans: item j is in ``masks[s]``."""
    return (masks[:, None] >> np.arange(n) & 1) != 0


def _row_sums(values: np.ndarray, keep: np.ndarray) -> np.ndarray:
    """Per row, the sum of ``values[s, j]`` over the j where ``keep``,
    added in ascending j from 0.0, as a loop over the items adds them (the
    other items add 0.0, which changes no sum but the sign of a zero, and
    the final + 0.0 turns a -0.0 into the loop's 0.0)."""
    return np.where(keep, values, 0.0).cumsum(axis=1)[:, -1] + 0.0


def _first_occurrence(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Merge the equal columns of int64 ``rows[r, T]``: returns ``inv``,
    each column's merged index, and ``keep``, the column where each merged
    state first occurs, so merged states are numbered in order of first
    occurrence.  Columns are compared row by row, whatever their width."""
    size = rows.shape[1]
    perm = np.lexsort(rows)                  # stable: ties keep column order
    srt = rows[:, perm]
    start = np.ones(size, dtype=bool)
    start[1:] = (srt[:, 1:] != srt[:, :-1]).any(axis=0)
    heads = perm[start]                      # first column of each group
    first = np.zeros(size, dtype=bool)
    first[heads] = True
    rank = first.cumsum() - 1
    inv = np.empty(size, dtype=np.int64)
    inv[perm] = rank[heads][start.cumsum() - 1]
    return inv, first.nonzero()[0]


def _forward(inst: Instance, layer: _Layer, depth: int, advance=None):
    """Yield ``(layer, None)`` at ``depth``, then ``(layer, step)`` after
    each further arrival, down to depth n.  A state's arrived items are
    the union of all its rows below bit n (the rows after greedy's agent
    masks are further arrived sets, or tags held above bit n).  From a
    state of probability p at depth k each item j not arrived arrives next
    with probability q = p/(n-k).  One ``advance(k, states, items) ->
    (chosen, marginal, new states)`` call (default: ``greedy_steps``,
    which carries the rows after the m agents' rows) takes every
    transition of the layer; equal new states merge in first-occurrence
    order, their q added in transition order.  Every exact expectation
    runs here, under the one cap."""
    n = inst.n
    if n > EXACT_TRACE_MAX_N:
        raise SizeGuardError(f"exact expectations are capped at "
                             f"n={EXACT_TRACE_MAX_N}; got n={n}")
    bits = np.left_shift(1, np.arange(n))
    yield layer, None
    for k in range(depth, n):
        rows = layer.states
        src, items = np.nonzero((_or_rows(rows)[:, None] & bits) == 0)
        q = (layer.p / (n - k))[src]
        if advance is None:
            chosen, marginal, new = greedy_steps(inst, rows[:, src], items)
        else:
            chosen, marginal, new = advance(k, rows[:, src], items)
        inv, keep = _first_occurrence(new)
        layer = _Layer(new[:, keep],
                       np.bincount(inv, weights=q, minlength=len(keep)))
        yield layer, _Step(src, items, q, chosen, marginal, inv, keep)


class _Transitions(NamedTuple):
    """The transitions (state, unarrived item j) from the states after k
    arrivals of the state pass, state-major with j ascending, as arrays
    over the transitions: the source state ``src``, the item ``items``,
    the marginal w and the Gain reductions a and b (the rows of ``wab``),
    the arriving item's Gain before the step ``gain_j``, and the
    next-layer state ``inv``; per next-layer state, the transition ``keep``
    that first leads to it; and ``index[s, j]``, the number of transition
    (s, j), or -1 where item j has arrived at state s."""

    src: np.ndarray
    items: np.ndarray
    keep: np.ndarray
    wab: np.ndarray
    gain_j: np.ndarray
    inv: np.ndarray
    index: np.ndarray

    @property
    def w(self) -> np.ndarray:
        return self.wab[0]

    @property
    def a(self) -> np.ndarray:
        return self.wab[1]

    @property
    def b(self) -> np.ndarray:
        return self.wab[2]

    @property
    def reduction(self) -> np.ndarray:
        """The total Gain reduction a + b of each transition."""
        return self.a + self.b


@dataclass
class _StatePass:
    """Raw expected trace vectors, the number of reachable greedy states,
    the layer ``half`` of states after n//2 arrivals, every item's Gain at
    the empty allocation and at each state of ``half`` ([S, n]), and the
    transitions of each layer k, ``steps[k]``."""

    w: np.ndarray
    a: np.ndarray
    b: np.ndarray
    states: int
    half: _Layer
    empty_gains: np.ndarray
    half_gains: np.ndarray
    steps: list[_Transitions]


def _state_pass(ctx: GainContext) -> _StatePass:
    """Expected w, a, b over all n! orders by one forward chain over the
    greedy states reachable from the empty allocation.

    Each step reads every item's Gain at the source and at the new state
    (computed once per merged state and gathered) and splits its drop into
    a and b with ``_split_drops``; the transitions add q*w, q*a and q*b at
    position k in transition order, so each sum is the one a loop over the
    transitions gives.
    """
    inst, n, m = ctx.instance, ctx.n, ctx.m
    chain = _forward(inst, _Layer(np.zeros((m, 1), dtype=np.int64),
                                  np.ones(1)), 0)
    half = next(chain)[0]
    gains = empty_gains = half_gains = _item_gains(ctx, half.states)
    totals = np.zeros((n, 3))              # rows: positions; columns w, a, b
    states, steps = 1, []
    for k, (layer, step) in enumerate(chain):
        new = _item_gains(ctx, layer.states)
        ab = _split_drops(ctx, gains[step.src], new[step.inv], step.chosen,
                          _member(_or_rows(layer.states), n)[step.inv])
        wab = np.vstack((step.marginal, ab))
        totals[k] = _running_sum(totals[k], (step.q * wab).T)
        index = np.full((len(gains), n), -1, dtype=np.int32)
        index[step.src, step.items] = np.arange(len(step.src))
        steps.append(_Transitions(step.src, step.items, step.keep, wab,
                                  gains[step.src, step.items], step.inv,
                                  index))
        states += len(layer.p)
        gains = new
        if k + 1 == n // 2:
            half, half_gains = layer, new
    w, av, bv = totals.T.copy()
    return _StatePass(w, av, bv, states, half, empty_gains, half_gains, steps)


def _first_paths(steps: list[_Transitions], k: int,
                 targets: np.ndarray) -> np.ndarray:
    """[len(targets), k]: the items along which the pass first reaches each
    state ``targets`` (indices into the layer after k arrivals), read by
    following each state's first transition (``keep``) back."""
    out = np.empty((len(targets), k), dtype=np.int64)
    for d in range(k - 1, -1, -1):
        first = steps[d].keep[targets]
        out[:, d] = steps[d].items[first]
        targets = steps[d].src[first]
    return out


@dataclass
class GainTrace:
    """Expected trace vectors, exact or Monte-Carlo.

    ``w``, ``a``, ``b`` are normalized so the reference optimum is 1; the
    raw (unnormalized) vectors are kept alongside.  ``beta`` is the
    normalized sum of b.  In MC mode ``stderr`` holds standard-error
    estimates for the ratio and the vectors.
    """

    n: int
    opt_value: float
    mode: str
    w: np.ndarray
    a: np.ndarray
    b: np.ndarray
    raw_w: np.ndarray
    raw_a: np.ndarray
    raw_b: np.ndarray
    samples: Optional[int] = None
    seed: Optional[int] = None
    stderr: Optional[dict] = None
    states: Optional[int] = None     # reachable greedy states, exact mode

    @property
    def beta(self) -> float:
        return float(self.b.sum())

    @property
    def expected_welfare(self) -> float:
        return float(self.raw_w.sum())

    @property
    def ratio(self) -> float:
        return float(self.w.sum())

    def to_dict(self) -> dict:
        out = {
            "n": self.n,
            "opt_value": self.opt_value,
            "mode": self.mode,
            "w": [float(x) for x in self.w],
            "a": [float(x) for x in self.a],
            "b": [float(x) for x in self.b],
            "raw_w": [float(x) for x in self.raw_w],
            "raw_a": [float(x) for x in self.raw_a],
            "raw_b": [float(x) for x in self.raw_b],
            "beta": self.beta,
            "expected_welfare": self.expected_welfare,
            "ratio": self.ratio,
        }
        if self.samples is not None:
            out["samples"] = self.samples
        if self.seed is not None:
            out["seed"] = self.seed
        if self.stderr is not None:
            out["stderr"] = {k: ([float(x) for x in v]
                                 if isinstance(v, np.ndarray) else float(v))
                             for k, v in self.stderr.items()}
        return out

    def to_csv(self) -> str:
        lines = ["i,w,a,b"]
        for i in range(self.n):
            lines.append(f"{i + 1},{float(self.w[i])!r},"
                         f"{float(self.a[i])!r},{float(self.b[i])!r}")
        return "\n".join(lines) + "\n"


def _mc_batches(n: int, mode: str, samples: int, seed: int, batch: int):
    """The ``samples`` seeded orders that Monte-Carlo ``mode`` averages,
    samples k = 0, 1, .. of ``orders.orders``, in batches of ``batch``
    rows."""
    if mode != "mc":
        raise ValueError(f"unknown mode {mode!r}; use 'exact' or 'mc'")
    if samples < 1:
        raise ValueError("samples must be positive")
    return (seeded_orders(seed, lo, min(lo + batch, samples), n)
            for lo in range(0, samples, batch))


def _running_sum(total, rows):
    """``total + rows[0] + rows[1] + ..``, added strictly in row order (a
    cumulative sum, unlike ``np.sum``, never regroups its terms)."""
    return np.concatenate((np.asarray(total)[None], rows)).cumsum(axis=0)[-1]


def _item_gains(ctx: GainContext, masks: np.ndarray) -> np.ndarray:
    """Gain(i, A) of every item i, one column each, for a batch of
    allocations A with agent masks ``masks[m, S]``: a gather from each
    item's reference agent at its mask OR ``prior[i]``."""
    out = np.empty((masks.shape[1], ctx.n))
    for ell, items, prior, bits in ctx._gain_columns:
        out[:, items] = marginal_gains(ctx.instance.oracles[ell],
                                       masks[ell][:, None] | prior, bits)
    return out


def _split_drops(ctx: GainContext, before: np.ndarray, after: np.ndarray,
                 chosen: np.ndarray, now: np.ndarray) -> np.ndarray:
    """a and b (the rows of a [2, S] array) of a batch of greedy steps,
    from every item's Gain ``before`` and ``after`` each step ([S, n]), the
    chosen agents and the arrived items after it (``now``, [S, n]
    booleans).  The Gain drop d of every item whose reference agent was
    chosen and whose d != 0 goes into b if the item has arrived and into a
    otherwise, added in ascending item order; the other items add 0.0 in
    their place, which changes no sum, since a sum of nonzero terms that
    starts at 0.0 is never -0.0."""
    d = before - after
    hit = (chosen[:, None] == ctx._ref) & (d != 0.0)
    terms = np.where(hit & (now == _A_B), d, 0.0)       # [2, S, n]
    return terms.cumsum(axis=2, out=terms)[:, :, -1]


def _trace_batch(ctx: GainContext, orders: np.ndarray
                 ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """w, a, b and the arriving item's Gain before each step, per position,
    of greedy along each row of ``orders`` (int64 [S, n]), as C-contiguous
    [S, n] arrays.  Each step reads every item's Gain at the new masks and
    splits the drops with ``_split_drops``, as the state pass does."""
    size, n = orders.shape
    rows = np.arange(size)
    masks = np.zeros((ctx.m, size), dtype=np.int64)
    gains = _item_gains(ctx, masks)
    w, av, bv, gb = np.zeros((4, size, n))
    for pos in range(n):
        items = orders[:, pos]
        gb[:, pos] = gains[rows, items]
        chosen, w[:, pos], masks = greedy_steps(ctx.instance, masks, items)
        new = _item_gains(ctx, masks)
        av[:, pos], bv[:, pos] = _split_drops(ctx, gains, new, chosen,
                                              _member(_or_rows(masks), n))
        gains = new
    return w, av, bv, gb


def _walk_batch(sp: _StatePass, orders: np.ndarray) -> np.ndarray:
    """[S, 3, n]: w, a and b per position of greedy along each row of
    ``orders`` (int64 [S, n]), read off the state pass.  Each row starts
    at the empty allocation; per position it looks up the transition from
    its state by the arriving item, reads the transition's values and
    moves to its next-layer state.  These are the values of
    ``_trace_batch``, bit for bit: a transition's marginal is the same
    elementwise ``greedy_steps`` float, and its a and b come from
    ``_split_drops`` on the same Gain rows."""
    size, n = orders.shape
    v = np.empty((size, 3, n))
    state = np.zeros(size, dtype=np.int64)
    for pos, step in enumerate(sp.steps):
        # ``take`` on flat indices gathers faster than fancy indexing
        t = step.index.take(state * n + orders[:, pos])
        v[:, :, pos] = step.wab.take(t, axis=1).T
        state = step.inv.take(t)
    return v


def _add_orders(acc: np.ndarray, v: np.ndarray) -> np.ndarray:
    """``acc`` plus the orders of a batch, one at a time in sample order:
    row 0 adds each order's w, a and b (``v``, [S, 3, n]) and welfare, row
    1 their squares.  ``acc`` goes into the first order's terms (x + y is
    y + x, bit for bit) and the terms are summed in place.  The result is
    a new [2, 3n + 1] array, so nothing of the batch outlives the call."""
    size = len(v)
    terms = np.empty((size, 2, acc.shape[1]))
    terms[:, 0, :-1] = v.reshape(size, -1)
    terms[:, 0, -1] = v[:, 0].sum(axis=1)   # as trace_one's float(w.sum())
    np.square(terms[:, 0], out=terms[:, 1])
    terms[0] += acc
    return terms.cumsum(axis=0, out=terms)[-1].copy()


def expected_trace(ctx: GainContext, mode: str = "exact",
                   samples: int = 10_000, seed: int = 0) -> GainTrace:
    """Expected trace over all n! orders (exact: one forward pass over the
    reachable greedy states) or the average of ``trace_one`` over the
    seeded orders k = 0 .. ``samples`` - 1 (MC).

    Sample k of ``seed`` is the order that NumPy's ``permutation(n)``, a
    Fisher-Yates shuffle of ``arange(n)``, draws from a PCG64 generator
    seeded by ``SeedSequence(entropy=seed, spawn_key=(k,))``.
    ``orders.orders(seed, k, k + 1, n)[0]`` replays it, and ``trace_one``
    on it gives the sample's w, a and b.  ``seed`` must be a non-negative
    integer.

    MC mode takes a batch of orders at a time, so its memory does not
    grow with ``samples``, and sums each order's vectors and welfare in
    sample order: its values are the ones a ``trace_one`` loop over the
    same orders gives, bit for bit.  Up to ``EXACT_TRACE_MAX_N`` items it
    reads the vectors of ``WALK_BATCH`` orders at a time off the state
    pass (``_walk_batch``), built once per context and shared with exact
    mode; above the cap it runs greedy along every order of a batch of
    ``MC_BATCH`` at once (``_trace_batch``).
    """
    n, opt = ctx.n, ctx.opt_value
    if mode == "exact":
        sp = ctx._pass
        return GainTrace(n, opt, mode, sp.w / opt, sp.a / opt, sp.b / opt,
                         sp.w, sp.a, sp.b, states=sp.states)
    acc = np.zeros((2, 3 * n + 1))
    walk = n <= EXACT_TRACE_MAX_N
    batches = _mc_batches(n, mode, samples, seed,
                          WALK_BATCH if walk else MC_BATCH)
    sp = ctx._pass if walk else None
    for batch in batches:
        acc = _add_orders(acc, _walk_batch(sp, batch) if walk
                          else np.stack(_trace_batch(ctx, batch)[:3], axis=1))
    s, s2 = acc[:, :-1].reshape(2, 3, n)
    swel, swel2 = acc[:, -1]
    raw_w, raw_a, raw_b = s / samples

    def se(s, s2):
        var = np.maximum(s2 / samples - (s / samples) ** 2, 0.0)
        return np.sqrt(var / samples)

    err_w, err_a, err_b = se(s, s2) / opt
    stderr = {"w": err_w, "a": err_a, "b": err_b,
              "ratio": float(se(swel, swel2)) / opt}
    return GainTrace(n, opt, "monte_carlo", raw_w / opt, raw_a / opt,
                     raw_b / opt, raw_w, raw_a, raw_b, samples=samples,
                     seed=seed, stderr=stderr)


# ---------------------------------------------------------------------------
# Per-lemma verification
# ---------------------------------------------------------------------------

@dataclass
class LemmaReport:
    """Verdicts for the per-step bounds, the expectation bounds, and the
    prefix identities (the latter only for even n).

    Per-step bounds are checked once per greedy transition (state, j), so
    each violated transition is listed once, however many orders take it.
    A per-step violation is ``(kind, order, i, w, bound)``: ``order``
    starts with the first-occurrence path to the state (its first
    transition in the pass, followed back), then j at index i (0-based),
    then the other items ascending, so ``trace_one(ctx, order)`` replays
    it: its ``w[i]`` is ``w``, and ``bound`` is its ``gain_before[i]``
    (``step_lower_bound``) or ``a[i] + b[i]`` (``step_reduction``).
    ``states`` counts the reachable greedy states; it is not reported.
    """

    n: int
    m: int
    step_lower_bound_ok: bool          # marginal >= Gain of the arriving item
    step_reduction_ok: bool            # marginal >= total Gain reduction caused
    ratio_bound_ok: bool               # ratio >= 1/2 and >= 1/2 + beta/2
    position_bound_ok: bool            # w_i >= 1/n - sum_{j<i} a_j/(n-j)
    prefix_identities_ok: Optional[bool]  # the two half-prefix identities
    ratio: float
    beta: float
    violations: list = field(default_factory=list)
    details: dict = field(default_factory=dict)
    states: Optional[int] = None

    @property
    def passed(self) -> bool:
        return (self.step_lower_bound_ok and self.step_reduction_ok
                and self.ratio_bound_ok and self.position_bound_ok
                and self.prefix_identities_ok is not False)

    def to_dict(self) -> dict:
        return {"n": self.n, "m": self.m, "passed": self.passed,
                "step_lower_bound_ok": self.step_lower_bound_ok,
                "step_reduction_ok": self.step_reduction_ok,
                "ratio_bound_ok": self.ratio_bound_ok,
                "position_bound_ok": self.position_bound_ok,
                "prefix_identities_ok": self.prefix_identities_ok,
                "ratio": self.ratio, "beta": self.beta,
                "violations": [repr(v) for v in self.violations],
                "details": {k: (float(v) if np.isscalar(v) else
                                [float(x) for x in v])
                            for k, v in self.details.items()}}


def verify_lemmas(ctx: GainContext, tol: float = ABS_TOL,
                  identity_tol: float = IDENTITY_TOL) -> LemmaReport:
    """Check the per-order and expectation bounds over all n! orders.

    Per order: each greedy marginal is at least the arriving item's Gain,
    and at least the total Gain reduction the step causes; both are checked
    on every transition of the state pass, which covers every step of
    every order.  In expectation (optimum normalized to 1): ratio >= 1/2 +
    beta/2, and w_i >= 1/n - sum_{j<i} a_j/(n-j) for every position.  For
    even n the two half-prefix identities are checked as equalities; their
    left sides are read from the states after n/2 arrivals, whose arrived
    set is the first half and whose complement is the second half.
    The expectation bounds compare normalized values at ``tol``, the
    per-step bounds raw values at ``tol * max(1, opt)``.
    """
    n, m = ctx.n, ctx.m
    sp = ctx._pass
    opt = ctx.opt_value
    step_tol = tol * max(1.0, opt)
    violations = []
    step_lb_ok = step_red_ok = True
    for k, step in enumerate(sp.steps):
        w_step, gain_j, reduction = step.w, step.gain_j, step.reduction
        low = w_step < gain_j - step_tol
        red = w_step < reduction - step_tol
        step_lb_ok = step_lb_ok and not low.any()
        step_red_ok = step_red_ok and not red.any()
        hits = np.flatnonzero(low | red)
        if not hits.size:
            continue
        paths = _first_paths(sp.steps, k, step.src[hits]).tolist()
        for t, prefix in zip(hits, paths):
            prefix.append(int(step.items[t]))
            order = tuple(prefix + [i for i in range(n) if i not in prefix])
            for kind, hit, bound in (("step_lower_bound", low, gain_j),
                                     ("step_reduction", red, reduction)):
                if hit[t]:
                    violations.append((kind, order, k, float(w_step[t]),
                                       float(bound[t])))
    w, a, b = sp.w / opt, sp.a / opt, sp.b / opt
    ratio = float(w.sum())
    beta = float(b.sum())
    ratio_ok = ratio >= 0.5 - tol and ratio >= 0.5 + beta / 2 - tol
    if not ratio_ok:
        violations.append(("ratio_bound", ratio, beta))

    position_ok = True
    acc = 0.0
    for i in range(n):
        lower = 1.0 / n - acc
        if w[i] < lower - tol:
            position_ok = False
            violations.append(("position_bound", i + 1, float(w[i]), lower))
        if i + 1 < n:
            acc += a[i] / (n - (i + 1))  # positions are 1-based: a_j/(n-j)

    details = {"w": w, "a": a, "b": b}
    identities_ok: Optional[bool] = None
    if n % 2 == 0:
        half = n // 2
        layer = sp.half
        drop = sp.empty_gains - sp.half_gains
        first = _member(_or_rows(layer.states), n)
        lhs1 = float(_running_sum(0.0, layer.p * _row_sums(drop, ~first)))
        lhs2 = float(_running_sum(0.0, layer.p * _row_sums(drop, first)))
        lhs1 /= opt
        lhs2 /= opt
        rhs1 = sum(a[j - 1] * (n / 2) / (n - j) for j in range(1, half + 1))
        rhs2 = sum(a[j - 1] * (n / 2 - j) / (n - j) + b[j - 1]
                   for j in range(1, half + 1))
        identities_ok = bool(abs(lhs1 - rhs1) <= identity_tol
                             and abs(lhs2 - rhs2) <= identity_tol)
        if not identities_ok:
            violations.append(("prefix_identity", lhs1, rhs1, lhs2, rhs2))
        details.update(identity1_lhs=lhs1, identity1_rhs=rhs1,
                       identity2_lhs=lhs2, identity2_rhs=rhs2)

    return LemmaReport(n, m, step_lb_ok, step_red_ok, ratio_ok, position_ok,
                       identities_ok, ratio, beta, violations, details,
                       states=sp.states)


# ---------------------------------------------------------------------------
# Concatenated allocation A' and its expectation bound
# ---------------------------------------------------------------------------

def build_A_prime(ctx: GainContext, order: Sequence[int]
                  ) -> tuple[Allocation, float]:
    """Union of three allocations built from one order split as
    S1 (first n/2), S2 (next n/4), S3 (last n/4): greedy on the full order,
    greedy on (S2, S3) alone, and the optimum restricted to S2.

    Returns the unioned allocation and its welfare margin over greedy's
    allocation of S1 alone.
    """
    inst, n = ctx.instance, ctx.n
    if n % 4 != 0:
        raise ValueError(f"order length must be divisible by 4, got n={n}")
    order = tuple(int(j) for j in order)
    if sorted(order) != list(range(n)):
        raise ValueError("order must be a permutation of the items")
    half, three_q = n // 2, 3 * n // 4
    g_full = greedy(inst, order)
    g_23 = greedy(inst, order[half:])
    opt_s2, _, _ = optimal(inst, items=sorted(order[half:three_q]))
    a_prime = union(union(g_full.allocation, g_23.allocation), opt_s2)
    # greedy on S1 alone is the first n/2 steps of the full run
    g_s1 = [0] * ctx.m
    for j, ell in zip(order[:half], g_full.choices):
        g_s1[ell] |= 1 << j
    margin = welfare(inst, a_prime) - welfare(inst, Allocation(g_s1))
    return a_prime, float(margin)


@dataclass
class Eq1Report:
    """The eq1 bound in expectation; ``states`` (not reported) counts the
    reachable greedy states plus the joint states of the A' chain."""

    n: int
    m: int
    lhs: float
    rhs: float
    passed: bool
    states: Optional[int] = None

    @property
    def margin(self) -> float:
        return self.lhs - self.rhs

    def to_dict(self) -> dict:
        return {"n": self.n, "m": self.m, "lhs": self.lhs, "rhs": self.rhs,
                "margin": self.margin, "passed": self.passed}


def _expected_A_prime_margin(ctx: GainContext, half: _Layer
                             ) -> tuple[float, int]:
    """E[V(A') - V(G(S1))] over all orders (see ``build_A_prime``), and the
    number of joint states visited.

    A joint chain starts at every state after n/2 arrivals, which is
    greedy's allocation of S1, and runs to depth n; the chains run in
    batches of consecutive start states (``_batches``).  The joint state
    is the row of full-greedy masks, masks of greedy on (S2, S3) alone and
    S2, the items that arrive between depths n/2 and 3n/4; each row is
    within the arrived set.  Greedy never moves an item, so the joint
    state fixes its half state (the full masks on the items greedy on (S2,
    S3) has not seen), chains never meet, and a batch's layer is its
    chains' layers one after another.  The optimum on S2 is computed once
    per subset, over its items in sorted order.
    """
    inst, n, m = ctx.instance, ctx.n, ctx.m
    three_q = 3 * n // 4

    def advance(k, rows, items):
        _, _, new = greedy_steps(inst, rows, items)    # full; rest carried
        new[m:2 * m] = greedy_steps(inst, rows[m:2 * m], items)[2]
        if k < three_q:
            new[2 * m] |= np.left_shift(1, items)
        return None, None, new

    opt_s2: dict = {}
    margin, states = 0.0, 0
    for part in _batches(len(half.p), math.factorial(n - n // 2)):
        p = half.p[part]
        start = _Layer(np.vstack((half.states[:, part],
                                  np.zeros((m + 1, len(p)), np.int64))), p)
        for layer, _ in _forward(inst, start, n // 2, advance=advance):
            states += len(layer.p)
        full, g23, s2 = (layer.states[:m], layer.states[m:2 * m],
                         layer.states[-1])
        s1 = ~_or_rows(g23)              # at depth n every item has arrived
        for x in set(s2.tolist()) - opt_s2.keys():
            opt_s2[x] = optimal(inst, items=mask_items(x))[0].masks
        h = np.array([opt_s2[x] for x in s2.tolist()], dtype=np.int64).T
        a_prime = g_s1 = np.zeros(len(layer.p))
        for o, f, g, hk in zip(inst.oracles, full, g23, h):
            a_prime = a_prime + o.value_masks(f | g | hk)
            g_s1 = g_s1 + o.value_masks(f & s1)
        margin = _running_sum(margin, layer.p * (a_prime - g_s1))
    return margin, states


def verify_eq1(ctx: GainContext, tol: float = IDENTITY_TOL) -> Eq1Report:
    """Check, in expectation over all orders with the optimum normalized
    to 1, that the unioned allocation's margin over greedy-on-S1 is at least
    1/4 + sum_{i<=n/2}((i - n/4)/(n - i) a_i - b_i)
        + sum_{n/2<i<=3n/4} (n/4)/(n - i) a_i.
    """
    n = ctx.n
    if n % 4 != 0:
        raise ValueError(f"n must be divisible by 4, got {n}")
    sp = ctx._pass
    margin, joint_states = _expected_A_prime_margin(ctx, sp.half)
    opt = ctx.opt_value
    lhs = margin / opt
    a, b = sp.a / opt, sp.b / opt
    half, three_q = n // 2, 3 * n // 4
    rhs = 0.25
    for i in range(1, half + 1):
        rhs += (i - n / 4) / (n - i) * a[i - 1] - b[i - 1]
    for i in range(half + 1, three_q + 1):
        rhs += (n / 4) / (n - i) * a[i - 1]
    return Eq1Report(n, ctx.m, float(lhs), float(rhs),
                     bool(lhs >= rhs - tol), states=sp.states + joint_states)


# ---------------------------------------------------------------------------
# Second-half machinery: best counterfactual allocation, X and Y_i
# ---------------------------------------------------------------------------

@dataclass
class SecondHalfReport:
    """The second-half bounds in expectation, in unnormalized units.
    ``states`` (not reported) counts the reachable greedy states plus the
    states of the Y chains."""

    n: int
    m: int
    ex_x: float
    reduction_rhs: float
    reduction_ok: bool                    # E[X] >= sum (a_j j/(n-j) - b_j)
    second_order_supermodular: bool
    recursion_ok: Optional[bool]          # E[Y_{i+1}] >= (n-i)/(n-i+1) E[Y_i] - b_i
    slack_ok: Optional[bool]              # sum g_i <= sum_{i>n/2} b_i
    ex_y: Optional[np.ndarray] = None
    g: Optional[np.ndarray] = None
    note: str = ""
    states: Optional[int] = None

    @property
    def passed(self) -> bool:
        return (self.reduction_ok and self.recursion_ok is not False
                and self.slack_ok is not False)

    def to_dict(self) -> dict:
        return {"n": self.n, "m": self.m, "passed": self.passed,
                "ex_x": self.ex_x, "reduction_rhs": self.reduction_rhs,
                "reduction_ok": self.reduction_ok,
                "second_order_supermodular": self.second_order_supermodular,
                "recursion_ok": self.recursion_ok, "slack_ok": self.slack_ok,
                "ex_y": None if self.ex_y is None else
                        [float(x) for x in self.ex_y],
                "g": None if self.g is None else [float(x) for x in self.g],
                "note": self.note}


def verify_second_half(ctx: GainContext, tol: float = IDENTITY_TOL
                       ) -> SecondHalfReport:
    """Verify the second-half bounds in expectation over all n! orders.

    Greedy's allocation of the first half S1 is a state at depth n/2 of the
    state pass.  The best assignment of the second-half items, the one
    that most reduces Gain(S1) given that allocation, is a function of the
    state alone: the first maximizer over all m^(n/2) assignments, listed
    with the lowest item's agent varying fastest.  Its reduction is X.  Its
    restriction to the items arriving at positions i..n defines Y_i, which
    depends on the half state and greedy's state after i-1 arrivals, so
    E[Y_i] comes from a forward chain started at each half state.  Both
    run on batches of consecutive half states (``_batches``), each batch's
    chains as one tagged chain, and add their terms in the order of the
    half states, then of the chain states.  Checks:
    E[X] >= sum_{j<=n/2}(a_j j/(n-j) - b_j) for any oracles; the Y
    recursion and the slack/b inequality additionally, when every agent's
    oracle is second-order supermodular.
    """
    inst, n, m = ctx.instance, ctx.n, ctx.m
    if n % 2 != 0:
        raise ValueError(f"n must be even, got {n}")
    if m ** n > OPTIMAL_MAX_ASSIGNMENTS:   # optimal's bound: m^(n/2) <= 3162
        raise SizeGuardError(f"verify_second_half needs m^n <= "
                             f"{OPTIMAL_MAX_ASSIGNMENTS}; got {m}^{n}")
    sp = ctx._pass
    half = n // 2
    supermodular = all(
        classify_second_order(o).is_second_order_supermodular
        for o in inst.oracles)

    codes = np.arange(m ** half)
    ex_x = 0.0
    ex_y = np.zeros(half)             # Y_i for i = n/2+1 .. n
    states = sp.states
    # agent[t, ell, h]: assignment h gives the t-th lowest second-half
    # item to agent ell
    agent = ((codes // m ** np.arange(half)[:, None] % m)[:, None, :]
             == np.arange(m)[:, None]).astype(np.int64)
    layer = sp.half
    for part in _batches(len(layer.p), max(len(codes), math.factorial(half))):
        # every half state against every assignment of its second-half
        # items
        base, p = layer.states[:, part], layer.p[part]
        size = len(p)
        first = _member(_or_rows(base), n)                   # S1, [S, n]
        rest = np.left_shift(1, np.nonzero(~first)[1]).reshape(size, half)
        hats = np.einsum("tlh,st->lsh", agent, rest)   # disjoint bits: OR
        g_base = _row_sums(sp.half_gains[part], first)
        reduction = g_base[:, None] - _row_sums(
            _item_gains(ctx, (base[:, :, None] | hats).reshape(m, -1)),
            first.repeat(len(codes), axis=0)).reshape(size, -1)
        best = reduction.argmax(axis=1)      # the first maximizer
        ex_x = _running_sum(ex_x, p * reduction[np.arange(size), best])

        # Y_i = Gain(S1, A^G_{i-1}) - Gain(S1, A^G_{i-1} + best on the
        # unarrived items), read at depths n/2 .. n-1 of chains started at
        # the half states, told apart by a tag row holding the index of
        # their half state above bit n
        best = hats[:, np.arange(size), best]
        start = _Layer(np.vstack((base, np.arange(size) << n)), p)
        for y, (before, _) in zip(range(half), _forward(inst, start, half)):
            states += len(before.p)
            masks, tag = before.states[:m], before.states[m] >> n
            hat = masks | best[:, tag] & ~_or_rows(masks)
            ex_y[y] = _running_sum(ex_y[y], before.p * (
                _row_sums(_item_gains(ctx, masks), first[tag])
                - _row_sums(_item_gains(ctx, hat), first[tag])))

    a, b = sp.a, sp.b
    rhs = sum(a[j - 1] * j / (n - j) - b[j - 1] for j in range(1, half + 1))
    reduction_ok = ex_x >= rhs - tol

    recursion_ok = slack_ok = None
    g = None
    if supermodular:
        recursion_ok = True
        for i in range(half + 1, n):   # relates Y_i and Y_{i+1}
            lhs = ex_y[i - half]
            bound = (n - i) / (n - i + 1) * ex_y[i - half - 1] - b[i - 1]
            if lhs < bound - tol:
                recursion_ok = False
        g = np.array([ex_x / half - ex_y[i - half - 1] / (n - i + 1)
                      for i in range(half + 1, n + 1)])
        slack_ok = bool(g.sum() <= b[half:].sum() + tol)

    note = "" if supermodular else \
        "recursion and slack checks skipped: not second-order supermodular"
    return SecondHalfReport(n, m, float(ex_x), float(rhs), bool(reduction_ok),
                            supermodular, recursion_ok, slack_ok, ex_y, g,
                            note, states=states)


# ---------------------------------------------------------------------------
# Move/copy permutation conjecture
# ---------------------------------------------------------------------------

@dataclass
class ConjectureReport:
    n: int
    m: int
    lhs: float                 # E[sum_i last marginal with pi_i copied to end]
    rhs: float                 # E[sum_i last marginal with pi_i moved to end]
    crosscheck: float          # n * E[last marginal], must equal rhs
    mode: str
    samples: Optional[int] = None
    seed: Optional[int] = None
    counterexample: bool = False
    states: Optional[int] = None     # states of every chain, exact mode

    @property
    def gap(self) -> float:
        return self.rhs - self.lhs

    @property
    def crosscheck_error(self) -> float:
        return abs(self.rhs - self.crosscheck)

    def to_dict(self) -> dict:
        return {"n": self.n, "m": self.m, "lhs": self.lhs, "rhs": self.rhs,
                "gap": self.gap, "crosscheck": self.crosscheck,
                "crosscheck_error": self.crosscheck_error, "mode": self.mode,
                "samples": self.samples, "seed": self.seed,
                "counterexample": self.counterexample}


def _copy_sums(inst: Instance, final: np.ndarray, items: np.ndarray
               ) -> np.ndarray:
    """Per set of greedy's final agent masks ``final[:, s]``, the sum, in
    the order of ``items[s]`` (int64 [S, n]), of greedy's marginal for
    each item arriving again on top of it: the best marginal any agent's
    final set offers, under greedy's tie rule."""
    size, n = items.shape
    _, best, _ = greedy_steps(inst, final.repeat(n, axis=1), items.ravel())
    return _row_sums(best.reshape(size, n), True)


def _conjecture_batch(inst: Instance, orders: np.ndarray
                      ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Copy-sum, move-sum and last marginal of each row of ``orders``.

    Greedy runs once on all n moved orders of every row, (row, i) being
    the row with its item at position i moved to the end; moving the last
    item is the row itself.  The move-sum adds the moved runs' last
    marginals in ascending i.  The copy-sum adds, in arrival order,
    greedy's marginal for each item arriving again at the row's final
    masks (``_copy_sums``).
    """
    size, n = orders.shape
    idx = [[*range(i), *range(i + 1, n), i] for i in range(n)]
    moved = orders[:, idx].reshape(size * n, n)
    masks = np.zeros((inst.m, size * n), dtype=np.int64)
    for pos in range(n):
        _, last, masks = greedy_steps(inst, masks, moved[:, pos])
    last = last.reshape(size, n)
    return (_copy_sums(inst, masks[:, n - 1::n], orders),
            _row_sums(last, True), last[:, n - 1])


def _conjecture_chains(inst: Instance) -> tuple[float, float, float, int]:
    """(copy side, move side, crosscheck, states) over all n! orders.

    The chain from the empty allocation gives the copy side from its final
    states and n * E[last marginal] from its last step.  Moving pi_i to the
    end makes (prefix, last item) a uniform pair, so the move side sums
    over items j greedy's expected marginal for j after the others arrive
    in random order: a chain started at depth 1 with j counted as arrived.
    After the first step of the chain from the empty allocation all n + 1
    chains are at depth 1, so they run on as one batch, told apart by a
    tag row holding j's bit (0 for the chain from the empty allocation,
    whose states come first in every layer), an arrived set.  Each copy
    side term is greedy's marginal for an item arriving again
    (``_copy_sums``).
    """
    n, m = inst.n, inst.m
    bits = np.left_shift(1, np.arange(n))
    empty = _Layer(np.zeros((m + 1, 1), np.int64), np.ones(1))
    first, step = next(islice(_forward(inst, empty, 0), 1, None))
    start = _Layer(np.hstack((first.states,
                              np.vstack((np.zeros((m, n), np.int64), bits)))),
                   np.concatenate((first.p, np.ones(n))))
    states = 1
    for layer, later in _forward(inst, start, 1):
        states += len(layer.p)
        step = later or step
    # the last step has one transition per state, with q = p; those of the
    # chain from the empty allocation come first, as its states do
    steps = (layer.states[m][step.inv] == 0).sum()
    last = _running_sum(0.0, step.q[:steps] * step.marginal[:steps])
    own = (layer.states[m] == 0).sum()
    lhs = _running_sum(0.0, layer.p[:own] * _copy_sums(
        inst, layer.states[:m, :own], np.tile(np.arange(n), (own, 1))))
    tag = layer.states[m, own:]
    _, moved, _ = greedy_steps(inst, layer.states[:m, own:],
                               (tag[:, None] & bits).argmax(axis=1))
    rhs = _running_sum(0.0, layer.p[own:] * moved)
    return float(lhs), float(rhs), float(n * last), states


def conjecture_check(instance: Instance, mode: str = "exact",
                     samples: int = 1000, seed: int = 0,
                     tol: float = IDENTITY_TOL) -> ConjectureReport:
    """Compare the expected total last-marginal under copy-to-end versus
    move-to-end reorderings, over all n! orders (exact: chains of greedy
    states) or seeded sample orders (MC).

    A negative gap is reported as a counterexample, never asserted; the
    move-side expectation is cross-checked against n times the expected
    last marginal, which is an exact identity over all orders.
    """
    n = instance.n
    if mode == "exact":
        lhs, rhs, crosscheck, states = _conjecture_chains(instance)
        return ConjectureReport(n, instance.m, lhs, rhs, crosscheck, mode,
                                counterexample=lhs > rhs + tol, states=states)
    lhs_sum = rhs_sum = last_sum = 0.0
    for batch in _mc_batches(n, mode, samples, seed, MC_BATCH):
        c, mv, last = _conjecture_batch(instance, batch)
        lhs_sum = float(_running_sum(lhs_sum, c))
        rhs_sum = float(_running_sum(rhs_sum, mv))
        last_sum = float(_running_sum(last_sum, last))
    lhs, rhs = lhs_sum / samples, rhs_sum / samples
    return ConjectureReport(n, instance.m, lhs, rhs, n * last_sum / samples,
                            "monte_carlo", samples=samples, seed=seed,
                            counterexample=lhs > rhs + tol)
