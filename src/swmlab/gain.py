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
expanded once however many orders reach it.  The chain from the empty
allocation (``_state_pass``) serves ``expected_trace`` in exact mode,
``verify_lemmas``, ``verify_eq1`` and ``verify_second_half``; the latter two
and ``conjecture_check`` run further chains from chosen start states.  No
suite enumerates orders.  Monte-Carlo mode draws each order from its own
seeded generator, so its results are reproducible, and runs greedy on
batches of ``MC_BATCH`` orders at once through ``core.greedy_steps``; it
sums the per-order values in sample order, so it reports what a
``trace_one`` loop over the same orders gives, bit for bit.
"""
from __future__ import annotations

from functools import lru_cache
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .core import (Allocation, Instance, greedy, greedy_step, greedy_steps,
                   marginal_gains, optimal, union, welfare)
from .errors import InvalidQueryError, SizeGuardError
from .oracles import SAMPLED_MAX_N, classify_second_order, mask_items

EXACT_TRACE_MAX_N = 8      # cap of every exact expectation (_forward)
SECOND_HALF_MAX_M = 3      # verify_second_half tries m^(n/2) assignments
MC_BATCH = 1024            # orders per Monte-Carlo batch; bounds its memory
DEFAULT_TOL = 1e-12
IDENTITY_TOL = 1e-10


class GainContext:
    """Instance plus the reference allocation and sigma that define Gain."""

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
            opt_value = welfare(instance, opt_allocation)
            opt_map = {j: ell for ell, msk in enumerate(opt_allocation.masks)
                       for j in mask_items(msk)}
        self.opt_allocation = opt_allocation
        self.opt_value = float(opt_value)
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

    @property
    def n(self) -> int:
        return self.instance.n

    @property
    def m(self) -> int:
        return self.instance.m

    def gain_masks(self, j: int, masks: Sequence[int]) -> float:
        ell = self.opt_map[j]
        base = masks[ell] | self._prior[j]
        return self.instance.oracles[ell].marginal_gain_mask(base, j)

    def gain_set_masks(self, items, masks: Sequence[int]) -> float:
        return sum(self.gain_masks(j, masks) for j in items)


def gain(ctx: GainContext, j: int, a: Allocation) -> float:
    """Gain(j, A) per the fixed reference allocation and sigma."""
    if a.m != ctx.m:
        raise ValueError("allocation agent count mismatch")
    if j < 0 or j >= ctx.n:
        raise InvalidQueryError(f"item {j} outside ground set of size {ctx.n}")
    return ctx.gain_masks(j, a.masks)


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
    gains_initial: np.ndarray      # Gain(j, empty) per item
    gains_half: Optional[np.ndarray]  # Gain(j, A^G(S1)) per item, n even only


def trace_one(ctx: GainContext, order: Sequence[int]) -> TraceOne:
    """Run greedy along one order and split each step's Gain reduction into
    the part hitting already-arrived items (b) and future items (a).

    The arriving item itself counts as arrived, so its own Gain drop lands
    in b.  Only items whose reference agent is the chosen agent can change,
    which keeps the update incremental.
    """
    inst, n = ctx.instance, ctx.n
    order = tuple(int(j) for j in order)
    if sorted(order) != list(range(n)):
        raise ValueError("trace_one requires a permutation of the items")
    masks = [0] * ctx.m
    gains = [ctx.gain_masks(j, masks) for j in range(n)]
    gains_initial = np.array(gains)
    gains_half = None
    half = n // 2 if n % 2 == 0 else None
    w = np.zeros(n)
    av = np.zeros(n)
    bv = np.zeros(n)
    gb = np.zeros(n)
    arrived = 0
    for pos, j in enumerate(order):
        best_ell, w[pos] = greedy_step(inst, masks, j)
        gb[pos] = gains[j]
        arrived |= 1 << j
        masks[best_ell] |= 1 << j
        bi = ai = 0.0
        for k in ctx._agent_items[best_ell]:
            new = ctx.gain_masks(k, masks)
            d = gains[k] - new
            if d != 0.0:
                if arrived >> k & 1:
                    bi += d
                else:
                    ai += d
                gains[k] = new
        bv[pos] = bi
        av[pos] = ai
        if half is not None and pos + 1 == half:
            gains_half = np.array(gains)
    return TraceOne(order, w, av, bv, gb, float(w.sum()),
                    gains_initial, gains_half)


def _prefix_masks(m: int, order: Sequence[int], choices: Sequence[int]
                  ) -> list[tuple[int, ...]]:
    """Greedy's agent masks after 0, 1, .., len(order) steps of a run."""
    masks = [0] * m
    out = [tuple(masks)]
    for j, ell in zip(order, choices):
        masks[ell] |= 1 << j
        out.append(tuple(masks))
    return out


def _arrived(masks: Sequence[int]) -> int:
    out = 0
    for msk in masks:
        out |= msk
    return out


def _give(masks: tuple[int, ...], ell: int, j: int) -> tuple[int, ...]:
    """``masks`` with item j added to agent ell."""
    return masks[:ell] + (masks[ell] | 1 << j,) + masks[ell + 1:]


def _advance(inst: Instance, masks: tuple[int, ...], j: int
             ) -> tuple[int, ...]:
    """Greedy's agent masks after item j arrives on top of ``masks``."""
    return _give(masks, greedy_step(inst, masks, j)[0], j)


def _forward(inst: Instance, layer: dict, depth: int, arrived=_arrived,
             move=None):
    """Yield ``layer``, a {chain state: probability} map at ``depth``, then
    the layer after each further arrival, down to depth n.  From a state of
    probability p at depth k, each item j not in ``arrived(state)`` arrives
    next with probability q = p/(n-k), leading to ``move(k, state, j, q)``
    (default: greedy's agent masks); one state's moves come in a row, by
    ascending j.  Every exact expectation runs here, under the one cap."""
    n = inst.n
    if n > EXACT_TRACE_MAX_N:
        raise SizeGuardError(f"exact expectations are capped at "
                             f"n={EXACT_TRACE_MAX_N}; got n={n}")
    move = move or (lambda k, masks, j, q: _advance(inst, masks, j))
    yield layer
    for k in range(depth, n):
        nxt: dict = {}
        for state, p in layer.items():
            done = arrived(state)
            q = p / (n - k)
            for j in range(n):
                if not done >> j & 1:
                    key = move(k, state, j, q)
                    nxt[key] = nxt.get(key, 0.0) + q
        layer = nxt
        yield layer


@dataclass
class _StatePass:
    """Raw expected trace vectors and the reachable greedy states."""

    w: np.ndarray
    a: np.ndarray
    b: np.ndarray
    layers: list     # layers[k] = {agent masks after k arrivals: probability}

    @property
    def states(self) -> int:
        return sum(len(layer) for layer in self.layers)


def _state_pass(ctx: GainContext, step=None) -> _StatePass:
    """Expected w, a, b over all n! orders by one forward chain over the
    greedy states reachable from the empty allocation.

    The transition by item j adds q*w, q*a and q*b at position k, its
    per-step values computed with the same float operations as
    ``trace_one``.  ``step(k, masks, j, w, gain_j, a, b)``, when given,
    sees every transition (state, j) once.
    """
    inst, n, m = ctx.instance, ctx.n, ctx.m
    w, av, bv = [0.0] * n, [0.0] * n, [0.0] * n

    @lru_cache(maxsize=1)      # _forward takes one state's moves in a row
    def expand(masks):
        return _arrived(masks), [ctx.gain_masks(i, masks) for i in range(n)]

    def move(k, masks, j, q):
        arrived, gains = expand(masks)
        ell, g = greedy_step(inst, masks, j)
        new = _give(masks, ell, j)
        now = arrived | 1 << j
        bi = ai = 0.0
        for i in ctx._agent_items[ell]:
            d = gains[i] - ctx.gain_masks(i, new)
            if d != 0.0:
                if now >> i & 1:
                    bi += d
                else:
                    ai += d
        w[k] += q * g
        av[k] += q * ai
        bv[k] += q * bi
        if step is not None:
            step(k, masks, j, g, gains[j], ai, bi)
        return new

    layers = list(_forward(inst, {(0,) * m: 1.0}, 0, move=move))
    return _StatePass(np.array(w), np.array(av), np.array(bv), layers)


def _prefix_reaching(inst: Instance, layers: list, masks: tuple[int, ...]
                     ) -> tuple[int, ...]:
    """An arrival prefix along which greedy reaches the reachable ``masks``,
    found by stepping back one layer at a time."""
    prefix = []
    for depth in range(len(mask_items(_arrived(masks))), 0, -1):
        masks, j = _step_back(inst, layers[depth - 1], masks)
        prefix.append(j)
    return tuple(reversed(prefix))


def _step_back(inst: Instance, layer: dict, masks: tuple[int, ...]
               ) -> tuple[tuple[int, ...], int]:
    """A state in ``layer`` and an item j whose greedy step leads from that
    state to ``masks``; one exists whenever ``masks`` is reachable."""
    for ell, msk in enumerate(masks):
        for j in mask_items(msk):
            prev = masks[:ell] + (msk & ~(1 << j),) + masks[ell + 1:]
            if prev in layer and greedy_step(inst, prev, j)[0] == ell:
                return prev, j
    raise ValueError(f"greedy state {masks} is not reachable")


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


def _mc_rng(seed: int, k: int) -> np.random.Generator:
    """The generator of the k-th Monte-Carlo order of ``seed``."""
    return np.random.default_rng(np.random.SeedSequence(entropy=seed,
                                                        spawn_key=(k,)))


def _mc_order(seed: int, k: int, n: int) -> tuple[int, ...]:
    return tuple(_mc_rng(seed, k).permutation(n).tolist())


def _mc_batch(seed: int, lo: int, hi: int, n: int) -> np.ndarray:
    """Orders lo .. hi-1 of ``seed`` as the rows of an int64 array."""
    orders = np.empty((hi - lo, n), dtype=np.int64)
    for row, k in enumerate(range(lo, hi)):
        orders[row] = _mc_rng(seed, k).permutation(n)
    return orders


def _mc_batches(n: int, mode: str, samples: int, seed: int):
    """The ``samples`` seeded orders that Monte-Carlo ``mode`` averages,
    ``_mc_order(seed, k, n)`` for k = 0, 1, .., in batches of ``MC_BATCH``
    rows."""
    if mode not in ("mc", "monte_carlo"):
        raise ValueError(f"unknown mode {mode!r}; use 'exact' or 'mc'")
    if samples < 1:
        raise ValueError("samples must be positive")
    if n > SAMPLED_MAX_N:
        raise SizeGuardError(f"Monte-Carlo mode keeps sets as int64 bitmasks, "
                             f"so n <= {SAMPLED_MAX_N}; got n={n}")
    return (_mc_batch(seed, lo, min(lo + MC_BATCH, samples), n)
            for lo in range(0, samples, MC_BATCH))


def _running_sum(total, rows):
    """``total + rows[0] + rows[1] + ..``, added strictly in row order (a
    cumulative sum, unlike ``np.sum``, never regroups its terms)."""
    return np.cumsum(np.concatenate((np.asarray(total)[None], rows)),
                     axis=0)[-1]


def _item_gains(ctx: GainContext, masks: np.ndarray) -> np.ndarray:
    """Gain(i, A) of every item i, one column each, for a batch of
    allocations A with agent masks ``masks[m, S]``: a gather from each
    item's reference agent at its mask OR ``prior[i]``."""
    out = np.empty((masks.shape[1], ctx.n))
    for ell, items in enumerate(ctx._agent_items):
        if items:
            items = list(items)
            base = masks[ell][:, None] | np.array([ctx._prior[i]
                                                   for i in items])
            out[:, items] = marginal_gains(ctx.instance.oracles[ell], base,
                                           np.left_shift(1, items))
    return out


def _trace_batch(ctx: GainContext, orders: np.ndarray
                 ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``trace_one``'s w, a and b for each row of ``orders`` (int64
    [S, n]), as C-contiguous [S, n] arrays, by the same float operations.

    After each greedy step the Gain drop d of every item whose reference
    agent was chosen and whose d != 0 goes into b if the item has arrived
    and into a otherwise, added in ascending item order; the other items
    add 0.0 in their place, which changes no sum, since a sum of nonzero
    terms that starts at 0.0 is never -0.0."""
    n = ctx.n
    size = len(orders)
    masks = np.zeros((ctx.m, size), dtype=np.int64)
    gains = _item_gains(ctx, masks)
    ref = np.array([ctx.opt_map[i] for i in range(n)])
    items = np.arange(n)
    w, av, bv = np.zeros((3, size, n))
    arrived = np.zeros(size, dtype=np.int64)
    for pos in range(n):
        chosen, w[:, pos], masks = greedy_steps(ctx.instance, masks,
                                                orders[:, pos])
        arrived |= np.left_shift(1, orders[:, pos])
        new = _item_gains(ctx, masks)
        d = gains - new
        hit = (chosen[:, None] == ref) & (d != 0.0)
        now = (arrived[:, None] >> items & 1) != 0
        bv[:, pos] = np.cumsum(np.where(hit & now, d, 0.0), axis=1)[:, -1]
        av[:, pos] = np.cumsum(np.where(hit & ~now, d, 0.0), axis=1)[:, -1]
        gains = np.where(hit, new, gains)
    return w, av, bv


def expected_trace(ctx: GainContext, mode: str = "exact",
                   samples: int = 10_000, seed: int = 0) -> GainTrace:
    """Expected trace over all n! orders (exact: one forward pass over the
    reachable greedy states) or the average of ``trace_one`` over the
    seeded orders ``_mc_order(seed, k, n)``, k < ``samples`` (MC).

    MC mode traces ``MC_BATCH`` orders at a time with the batched greedy
    step, so its memory does not grow with ``samples``, and sums each
    order's vectors and welfare in sample order: its values are the ones a
    ``trace_one`` loop over the same orders gives, bit for bit.
    """
    n, opt = ctx.n, ctx.opt_value
    if mode == "exact":
        sp = _state_pass(ctx)
        return GainTrace(n, opt, mode, sp.w / opt, sp.a / opt, sp.b / opt,
                         sp.w, sp.a, sp.b, states=sp.states)
    s, s2 = np.zeros((3, n)), np.zeros((3, n))     # rows w, a, b
    swel = swel2 = 0.0
    for orders in _mc_batches(n, mode, samples, seed):
        w, av, bv = _trace_batch(ctx, orders)
        v = np.stack((w, av, bv), axis=1)
        wel = w.sum(axis=1)        # as trace_one's float(w.sum()) per row
        s, s2 = _running_sum(s, v), _running_sum(s2, v * v)
        swel, swel2 = _running_sum(swel, wel), _running_sum(swel2, wel * wel)
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
    A per-step violation is ``(kind, order, i, w, bound)``: ``order`` is a
    full arrival order whose first i items lead greedy to the state and
    whose item i (0-based) is j, so ``trace_one(ctx, order)`` replays it:
    its ``w[i]`` is ``w``, and ``bound`` is its ``gain_before[i]``
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


def verify_lemmas(ctx: GainContext, tol: float = DEFAULT_TOL,
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
    """
    inst, n, m = ctx.instance, ctx.n, ctx.m
    flagged = []          # (kind, position, state, item, w, bound)

    def check(k, masks, j, w_step, gain_j, a_step, b_step):
        if w_step < gain_j - tol:
            flagged.append(("step_lower_bound", k, masks, j, w_step, gain_j))
        if w_step < a_step + b_step - tol:
            flagged.append(("step_reduction", k, masks, j, w_step,
                            a_step + b_step))

    sp = _state_pass(ctx, check)
    violations = []
    for kind, k, masks, j, w_step, bound in flagged:
        prefix = _prefix_reaching(inst, sp.layers, masks) + (j,)
        rest = tuple(i for i in range(n) if i not in prefix)
        violations.append((kind, prefix + rest, k, float(w_step),
                           float(bound)))
    step_lb_ok = all(v[0] != "step_lower_bound" for v in flagged)
    step_red_ok = all(v[0] != "step_reduction" for v in flagged)
    opt = ctx.opt_value
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
        initial = [ctx.gain_masks(j, (0,) * m) for j in range(n)]
        lhs1 = lhs2 = 0.0
        for masks, p in sp.layers[half].items():
            first = _arrived(masks)
            drop1 = drop2 = 0.0
            for j in range(n):
                d = initial[j] - ctx.gain_masks(j, masks)
                if first >> j & 1:
                    drop2 += d
                else:
                    drop1 += d
            lhs1 += p * drop1
            lhs2 += p * drop2
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
    g_s1 = _prefix_masks(ctx.m, order[:half], g_full.choices)[-1]
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


def _expected_A_prime_margin(ctx: GainContext, half_layer: dict
                             ) -> tuple[float, int]:
    """E[V(A') - V(G(S1))] over all orders (see ``build_A_prime``), and the
    number of joint states visited.

    From each state at depth n/2, which is greedy's allocation of S1, a
    joint chain runs to depth n.  Its state is the pair (full-greedy masks,
    masks of greedy on (S2, S3) alone) plus S2, the items that arrive
    between depths n/2 and 3n/4.  Greedy never moves an item, so chains
    from different half states never meet and run one at a time.  The
    optimum on S2 is computed once per subset, over its items in sorted
    order.
    """
    inst, n, m = ctx.instance, ctx.n, ctx.m
    three_q = 3 * n // 4

    def move(k, state, j, q):
        full, g23, s2 = state
        return (_advance(inst, full, j), _advance(inst, g23, j),
                s2 | 1 << j if k < three_q else s2)

    opt_s2: dict = {}
    margin = 0.0
    states = 0
    for half, p_half in half_layer.items():
        for layer in _forward(inst, {(half, (0,) * m, 0): p_half}, n // 2,
                              lambda state: _arrived(state[0]), move):
            states += len(layer)
        g_s1 = sum(o.value_mask(msk) for o, msk in zip(inst.oracles, half))
        for (full, g23, s2), p in layer.items():     # the depth-n layer
            if s2 not in opt_s2:
                opt_s2[s2] = optimal(inst, items=mask_items(s2))[0].masks
            a_prime = sum(o.value_mask(f | g | h) for o, f, g, h in
                          zip(inst.oracles, full, g23, opt_s2[s2]))
            margin += p * (a_prime - g_s1)
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
    sp = _state_pass(ctx)
    margin, joint_states = _expected_A_prime_margin(ctx, sp.layers[n // 2])
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
    E[Y_i] comes from a forward chain started at each half state.  Checks:
    E[X] >= sum_{j<=n/2}(a_j j/(n-j) - b_j) for any oracles; the Y
    recursion and the slack/b inequality additionally, when every agent's
    oracle is second-order supermodular.
    """
    inst, n, m = ctx.instance, ctx.n, ctx.m
    if n % 2 != 0:
        raise ValueError(f"n must be even, got {n}")
    if m > SECOND_HALF_MAX_M:
        raise SizeGuardError(f"verify_second_half is capped at "
                             f"m={SECOND_HALF_MAX_M}; got m={m}")
    sp = _state_pass(ctx)
    half = n // 2
    supermodular = all(
        classify_second_order(o).is_second_order_supermodular
        for o in inst.oracles)

    ex_x = 0.0
    ex_y = np.zeros(half)             # Y_i for i = n/2+1 .. n
    states = sp.states
    for base, p_half in sp.layers[half].items():
        s1 = _arrived(base)
        first = mask_items(s1)
        hats = [(0,) * m]
        for j in mask_items((1 << n) - 1 & ~s1):
            hats = [_give(hat, ell, j) for ell in range(m) for hat in hats]

        def gain_with(masks, hat):
            return ctx.gain_set_masks(first, [x | h for x, h in
                                              zip(masks, hat)])

        g_base = ctx.gain_set_masks(first, base)
        best = max(hats, key=lambda hat: g_base - gain_with(base, hat))
        ex_x += p_half * (g_base - gain_with(base, best))
        # Y_i = Gain(S1, A^G_{i-1}) - Gain(S1, A^G_{i-1} + best on the
        # unarrived items), read at depths n/2 .. n-1 of the chain
        chain = _forward(inst, {base: p_half}, half)
        for y, layer in zip(range(half), chain):
            states += len(layer)
            for before, p in layer.items():
                rest = ~_arrived(before)
                ex_y[y] += p * (ctx.gain_set_masks(first, before)
                                - gain_with(before, [h & rest for h in best]))

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


def _copy_sum(inst: Instance, final: Sequence[int], items) -> float:
    """Sum over ``items`` of the best marginal any agent's final set offers."""
    total = 0.0
    for j in items:
        total += max(o.marginal_gain_mask(msk, j)
                     for o, msk in zip(inst.oracles, final))
    return total


def _conjecture_batch(inst: Instance, orders: np.ndarray
                      ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Copy-sum, move-sum and last marginal of each row of ``orders``.

    Greedy runs once on all n moved orders of every row, (row, i) being
    the row with its item at position i moved to the end; moving the last
    item is the row itself.  The move-sum adds the moved runs' last
    marginals in ascending i.  The copy-sum adds, in arrival order, the
    best marginal any agent's final set offers (the first largest, as
    ``max`` picks it).
    """
    size, n = orders.shape
    idx = [[*range(i), *range(i + 1, n), i] for i in range(n)]
    moved = orders[:, idx].reshape(size * n, n)
    masks = np.zeros((inst.m, size * n), dtype=np.int64)
    for pos in range(n):
        _, last, masks = greedy_steps(inst, masks, moved[:, pos])
    last = last.reshape(size, n)
    move = np.zeros(size)
    for i in range(n):
        move += last[:, i]
    final = masks[:, n - 1::n, None].repeat(n, axis=2)     # [m, S, n]
    bits = np.left_shift(1, orders)
    best = marginal_gains(inst.oracles[0], final[0], bits)
    for o, msk in zip(inst.oracles[1:], final[1:]):
        g = marginal_gains(o, msk, bits)
        best = np.where(g > best, g, best)
    copy = np.zeros(size)
    for pos in range(n):
        copy += best[:, pos]
    return copy, move, last[:, n - 1]


def _conjecture_chains(inst: Instance) -> tuple[float, float, float, int]:
    """(copy side, move side, crosscheck, states) over all n! orders.

    The chain from the empty allocation gives the copy side from its final
    states and n * E[last marginal] from the states before.  Moving pi_i to
    the end makes (prefix, last item) a uniform pair, so the move side sums
    over items j greedy's expected marginal for j after the others arrive
    in random order: a chain started at depth 1 with j counted as arrived.
    """
    n, empty = inst.n, (0,) * inst.m
    layers = list(_forward(inst, {empty: 1.0}, 0))
    states = sum(len(layer) for layer in layers)
    lhs = last = 0.0
    for final, p in layers[n].items():
        lhs += p * _copy_sum(inst, final, range(n))
    for masks, p in layers[n - 1].items():
        j = ((1 << n) - 1 & ~_arrived(masks)).bit_length() - 1
        last += p * greedy_step(inst, masks, j)[1]
    rhs = 0.0
    for j in range(n):
        for layer in _forward(inst, {empty: 1.0}, 1,
                              lambda masks, j=j: _arrived(masks) | 1 << j):
            states += len(layer)
        for masks, p in layer.items():     # the depth-n layer
            rhs += p * greedy_step(inst, masks, j)[1]
    return lhs, rhs, n * last, states


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
    for orders in _mc_batches(n, mode, samples, seed):
        c, mv, last = _conjecture_batch(instance, orders)
        lhs_sum = float(_running_sum(lhs_sum, c))
        rhs_sum = float(_running_sum(rhs_sum, mv))
        last_sum = float(_running_sum(last_sum, last))
    lhs, rhs = lhs_sum / samples, rhs_sum / samples
    return ConjectureReport(n, instance.m, lhs, rhs, n * last_sum / samples,
                            "monte_carlo", samples=samples, seed=seed,
                            counterexample=lhs > rhs + tol)
