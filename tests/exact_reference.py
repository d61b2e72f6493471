"""Scalar reference implementations, kept for the byte-identity tests.

Each oracle family's value of one set (``raw_value``), Gain, the per-order
trace and the exact suites are computed here one set, one item and one
greedy state at a time.  The exact suites walk greedy states: a layer is
a {agent masks: probability} dict, ``_forward`` calls ``move`` once per
transition (state, arrived item), and every per-step value is a scalar
oracle query.  The brute-force optimum loops over assignment codes.  Each
Monte-Carlo order comes from its own NumPy generator (``mc_order``).
``swmlab`` does the same work on int64 arrays of sets and must report the
same bytes.  Sums run as explicit loops from 0, as the builtin ``sum``
adds floats up to Python 3.11.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Optional

import numpy as np

from swmlab.core import Allocation
from swmlab.errors import SizeGuardError
from swmlab.gain import (EXACT_TRACE_MAX_N, IDENTITY_TOL, DEFAULT_TOL,
                         ConjectureReport, Eq1Report, GainTrace, LemmaReport,
                         SecondHalfReport, TraceOne)
from swmlab.oracles import (SINK, BMatchingOracle, BudgetedAdditiveOracle,
                            CoverageOracle, CutOracle, classify_second_order,
                            mask_items)


def _total(values):
    """0 + values[0] + values[1] + .., added in order."""
    out = 0
    for v in values:
        out = out + v
    return out


def raw_value(oracle, mask):
    """The value of the set ``mask`` by a loop over the family's terms, in
    the order its ``_values`` adds them."""
    if isinstance(oracle, CoverageOracle):
        total = 0.0
        for w, holders in zip(oracle.universe_weights, oracle._holders):
            if mask & holders:
                total += w
        return total
    if isinstance(oracle, BudgetedAdditiveOracle):
        total = 0.0
        for i in mask_items(mask):
            total += oracle.weights[i]
        return min(oracle.budget, total)
    if isinstance(oracle, BMatchingOracle):
        total = 0.0
        for w in sorted((oracle.weights[i] for i in mask_items(mask)),
                        reverse=True)[:oracle.capacity]:
            total += w
        return total
    if isinstance(oracle, CutOracle):
        total = 0.0
        for u, v, w in oracle.edges:
            inu = u != SINK and bool(mask >> u & 1)
            inv = v != SINK and bool(mask >> v & 1)
            if inu != inv:
                total += w
        return total
    raise TypeError(f"no scalar evaluator for {oracle!r}")


def value(oracle, mask):
    """``value_mask`` with ``raw_value`` where there is no value table."""
    if oracle._table is not None:
        return float(oracle._table[mask])
    return raw_value(oracle, mask)


def marginal_gain(oracle, mask, j):
    bit = 1 << j
    if mask & bit:
        return 0.0
    return value(oracle, mask | bit) - value(oracle, mask)


def greedy_step(inst, masks, j):
    """One step of ``core.greedy`` by scalar queries: the first agent with
    the largest marginal for item j, and that marginal."""
    best_ell, best_gain = 0, -1.0
    for ell, oracle in enumerate(inst.oracles):
        g = marginal_gain(oracle, masks[ell], j)
        if g > best_gain:
            best_ell, best_gain = ell, g
    return best_ell, best_gain


def greedy_run(inst, order):
    """``core.greedy`` by scalar steps: the agent masks, the marginals and
    the chosen agents of the run."""
    masks, marginals, choices = [0] * inst.m, [], []
    for j in order:
        ell, g = greedy_step(inst, masks, j)
        masks[ell] |= 1 << j
        marginals.append(g)
        choices.append(ell)
    return tuple(masks), tuple(marginals), tuple(choices)


def gain_masks(ctx, j, masks):
    """Gain(j, A) for the agent masks of A, by scalar queries."""
    ell = ctx.opt_map[j]
    return marginal_gain(ctx.instance.oracles[ell],
                         masks[ell] | ctx._prior[j], j)


def prefix_masks(m, order, choices):
    """Greedy's agent masks after 0, 1, .., len(order) steps of a run."""
    masks = [0] * m
    out = [tuple(masks)]
    for j, ell in zip(order, choices):
        masks[ell] |= 1 << j
        out.append(tuple(masks))
    return out


@dataclass
class Trace(TraceOne):
    """``TraceOne`` plus every item's Gain at the empty allocation and
    after n/2 arrivals (n even only)."""

    gains_initial: np.ndarray
    gains_half: Optional[np.ndarray]


def trace_one(ctx, order):
    """Greedy along one order, one step and one scalar Gain at a time.

    Only items whose reference agent is the chosen agent can change, and
    an item's tracked Gain is updated only when its drop is nonzero.
    """
    inst, n = ctx.instance, ctx.n
    order = tuple(int(j) for j in order)
    masks = [0] * ctx.m
    gains = [gain_masks(ctx, j, masks) for j in range(n)]
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
            new = gain_masks(ctx, k, masks)
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
    return Trace(order, w, av, bv, gb, float(w.sum()), gains_initial,
                 gains_half)


def mc_order(seed, k, n):
    """The k-th Monte-Carlo order of ``seed``, drawn by its own NumPy
    generator: the reference that ``swmlab.orders.orders`` is held to."""
    rng = np.random.default_rng(np.random.SeedSequence(entropy=seed,
                                                       spawn_key=(k,)))
    return tuple(rng.permutation(n).tolist())


def optimal(instance, items=None):
    """The first maximizer over all assignment codes, one code at a time,
    with the first listed item as the least significant digit."""
    n, m = instance.n, instance.m
    items = list(range(n) if items is None else items)
    best_masks, best_value = None, -1.0
    for code in range(m ** len(items)):
        masks = [0] * m
        c = code
        for j in items:
            masks[c % m] |= 1 << j
            c //= m
        v = _total(o.value_mask(msk)
                   for o, msk in zip(instance.oracles, masks))
        if v > best_value:
            best_value, best_masks = v, masks
    opt_map = {j: ell for ell, msk in enumerate(best_masks)
               for j in mask_items(msk)}
    return Allocation(tuple(best_masks)), float(best_value), opt_map


def gain_set(ctx, items, masks):
    return _total(gain_masks(ctx, j, masks) for j in items)


def _arrived(masks):
    out = 0
    for msk in masks:
        out |= msk
    return out


def _give(masks, ell, j):
    """``masks`` with item j added to agent ell."""
    return masks[:ell] + (masks[ell] | 1 << j,) + masks[ell + 1:]


def _advance(inst, masks, j):
    """Greedy's agent masks after item j arrives on top of ``masks``."""
    return _give(masks, greedy_step(inst, masks, j)[0], j)


def _forward(inst, layer, depth, arrived=_arrived, move=None):
    """Yield ``layer``, a {chain state: probability} map at ``depth``, then
    the layer after each further arrival, down to depth n; from a state of
    probability p at depth k, each item j not in ``arrived(state)`` leads
    with probability q = p/(n-k) to ``move(k, state, j, q)``."""
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


def _state_pass(ctx, step=None, parents=None):
    """(w, a, b, layers): the expected raw trace and the greedy layers.
    ``parents``, if given, gets each state's first transition (state, j):
    the first insertion, as states are inserted in first-occurrence
    order."""
    inst, n, m = ctx.instance, ctx.n, ctx.m
    w, av, bv = [0.0] * n, [0.0] * n, [0.0] * n

    @lru_cache(maxsize=1)
    def expand(masks):
        return _arrived(masks), [gain_masks(ctx, i, masks) for i in range(n)]

    def move(k, masks, j, q):
        arrived, gains = expand(masks)
        ell, g = greedy_step(inst, masks, j)
        new = _give(masks, ell, j)
        now = arrived | 1 << j
        bi = ai = 0.0
        for i in ctx._agent_items[ell]:
            d = gains[i] - gain_masks(ctx, i, new)
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
        if parents is not None:
            parents.setdefault(new, (masks, j))
        return new

    layers = list(_forward(inst, {(0,) * m: 1.0}, 0, move=move))
    return np.array(w), np.array(av), np.array(bv), layers


def _states(layers):
    return sum(len(layer) for layer in layers)


def expected_trace(ctx):
    n, opt = ctx.n, ctx.opt_value
    w, a, b, layers = _state_pass(ctx)
    return GainTrace(n, opt, "exact", w / opt, a / opt, b / opt, w, a, b,
                     states=_states(layers))


def verify_lemmas(ctx, tol=DEFAULT_TOL, identity_tol=IDENTITY_TOL):
    n, m = ctx.n, ctx.m
    flagged = []

    def check(k, masks, j, w_step, gain_j, a_step, b_step):
        if w_step < gain_j - tol:
            flagged.append(("step_lower_bound", k, masks, j, w_step, gain_j))
        if w_step < a_step + b_step - tol:
            flagged.append(("step_reduction", k, masks, j, w_step,
                            a_step + b_step))

    parents: dict = {}
    w, a, b, layers = _state_pass(ctx, check, parents)
    violations = []
    for kind, k, masks, j, w_step, bound in flagged:
        prefix = (j,)
        for _ in range(k):
            masks, i = parents[masks]
            prefix = (i,) + prefix
        rest = tuple(i for i in range(n) if i not in prefix)
        violations.append((kind, prefix + rest, k, float(w_step),
                           float(bound)))
    step_lb_ok = all(v[0] != "step_lower_bound" for v in flagged)
    step_red_ok = all(v[0] != "step_reduction" for v in flagged)
    opt = ctx.opt_value
    w, a, b = w / opt, a / opt, b / opt
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
            acc += a[i] / (n - (i + 1))
    details = {"w": w, "a": a, "b": b}
    identities_ok = None
    if n % 2 == 0:
        half = n // 2
        initial = [gain_masks(ctx, j, (0,) * m) for j in range(n)]
        lhs1 = lhs2 = 0.0
        for masks, p in layers[half].items():
            first = _arrived(masks)
            drop1 = drop2 = 0.0
            for j in range(n):
                d = initial[j] - gain_masks(ctx, j, masks)
                if first >> j & 1:
                    drop2 += d
                else:
                    drop1 += d
            lhs1 += p * drop1
            lhs2 += p * drop2
        lhs1 /= opt
        lhs2 /= opt
        rhs1 = _total(a[j - 1] * (n / 2) / (n - j) for j in range(1, half + 1))
        rhs2 = _total(a[j - 1] * (n / 2 - j) / (n - j) + b[j - 1]
                      for j in range(1, half + 1))
        identities_ok = bool(abs(lhs1 - rhs1) <= identity_tol
                             and abs(lhs2 - rhs2) <= identity_tol)
        if not identities_ok:
            violations.append(("prefix_identity", lhs1, rhs1, lhs2, rhs2))
        details.update(identity1_lhs=lhs1, identity1_rhs=rhs1,
                       identity2_lhs=lhs2, identity2_rhs=rhs2)
    return LemmaReport(n, m, step_lb_ok, step_red_ok, ratio_ok, position_ok,
                       identities_ok, ratio, beta, violations, details,
                       states=_states(layers))


def verify_eq1(ctx, tol=IDENTITY_TOL):
    """One joint chain per state after n/2 arrivals."""
    inst, n, m = ctx.instance, ctx.n, ctx.m
    if n % 4 != 0:
        raise ValueError(f"n must be divisible by 4, got {n}")
    w, a, b, layers = _state_pass(ctx)
    half, three_q = n // 2, 3 * n // 4

    def move(k, state, j, q):
        full, g23, s2 = state
        return (_advance(inst, full, j), _advance(inst, g23, j),
                s2 | 1 << j if k < three_q else s2)

    opt_s2: dict = {}
    margin = 0.0
    states = _states(layers)
    for masks, p_half in layers[half].items():
        for layer in _forward(inst, {(masks, (0,) * m, 0): p_half}, half,
                              lambda state: _arrived(state[0]), move):
            states += len(layer)
        g_s1 = _total(o.value_mask(msk) for o, msk in zip(inst.oracles,
                                                           masks))
        for (full, g23, s2), p in layer.items():
            if s2 not in opt_s2:
                opt_s2[s2] = optimal(inst, items=mask_items(s2))[0].masks
            a_prime = _total(o.value_mask(f | g | h) for o, f, g, h in
                             zip(inst.oracles, full, g23, opt_s2[s2]))
            margin += p * (a_prime - g_s1)
    opt = ctx.opt_value
    lhs = margin / opt
    a, b = a / opt, b / opt
    rhs = 0.25
    for i in range(1, half + 1):
        rhs += (i - n / 4) / (n - i) * a[i - 1] - b[i - 1]
    for i in range(half + 1, three_q + 1):
        rhs += (n / 4) / (n - i) * a[i - 1]
    return Eq1Report(n, m, float(lhs), float(rhs), bool(lhs >= rhs - tol),
                     states=states)


def verify_second_half(ctx, tol=IDENTITY_TOL):
    """The best assignment per half state over every listed hat, and one
    Y chain per half state."""
    inst, n, m = ctx.instance, ctx.n, ctx.m
    if n % 2 != 0:
        raise ValueError(f"n must be even, got {n}")
    w, a, b, layers = _state_pass(ctx)
    half = n // 2
    supermodular = all(
        classify_second_order(o).is_second_order_supermodular
        for o in inst.oracles)
    ex_x = 0.0
    ex_y = np.zeros(half)
    states = _states(layers)
    for base, p_half in layers[half].items():
        s1 = _arrived(base)
        first = mask_items(s1)
        hats = [(0,) * m]
        for j in mask_items((1 << n) - 1 & ~s1):
            hats = [_give(hat, ell, j) for ell in range(m) for hat in hats]

        def gain_with(masks, hat):
            return gain_set(ctx, first, [x | h for x, h in zip(masks, hat)])

        g_base = gain_set(ctx, first, base)
        best = max(hats, key=lambda hat: g_base - gain_with(base, hat))
        ex_x += p_half * (g_base - gain_with(base, best))
        chain = _forward(inst, {base: p_half}, half)
        for y, layer in zip(range(half), chain):
            states += len(layer)
            for before, p in layer.items():
                rest = ~_arrived(before)
                ex_y[y] += p * (gain_set(ctx, first, before)
                                - gain_with(before, [h & rest for h in best]))
    rhs = _total(a[j - 1] * j / (n - j) - b[j - 1] for j in range(1, half + 1))
    reduction_ok = ex_x >= rhs - tol
    recursion_ok = slack_ok = None
    g = None
    if supermodular:
        recursion_ok = True
        for i in range(half + 1, n):
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


def conjecture_check(inst, tol=IDENTITY_TOL):
    """Exact mode: the chain from the empty allocation, then one chain per
    item j started at depth 1 with j counted as arrived."""
    n, m, empty = inst.n, inst.m, (0,) * inst.m
    layers = list(_forward(inst, {empty: 1.0}, 0))
    states = _states(layers)
    lhs = last = 0.0
    for final, p in layers[n].items():
        total = 0.0
        for j in range(n):
            total += max(o.marginal_gain_mask(msk, j)
                         for o, msk in zip(inst.oracles, final))
        lhs += p * total
    for masks, p in layers[n - 1].items():
        j = ((1 << n) - 1 & ~_arrived(masks)).bit_length() - 1
        last += p * greedy_step(inst, masks, j)[1]
    rhs = 0.0
    for j in range(n):
        for layer in _forward(inst, {empty: 1.0}, 1,
                              lambda masks, j=j: _arrived(masks) | 1 << j):
            states += len(layer)
        for masks, p in layer.items():
            rhs += p * greedy_step(inst, masks, j)[1]
    return ConjectureReport(n, m, lhs, rhs, n * last, "exact",
                            counterexample=lhs > rhs + tol, states=states)
