import importlib
import itertools
import json
import math
import struct
import tracemalloc

import numpy as np
import pytest

import exact_reference as ref
import swmlab as sl
from swmlab.errors import InvalidQueryError, SizeGuardError
from swmlab.gain import (ConjectureReport, EXACT_TRACE_MAX_N, GainTrace,
                         MC_BATCH, WALK_BATCH)
from swmlab.instances import random_family_instance, random_instance
from swmlab.oracles import mask_items

# the module itself: ``sl.gain`` is the Gain function
gain_module = importlib.import_module("swmlab.gain")
TOL = 1e-12
IDENTITY_TOL = 1e-10
FAMILIES = ("coverage", "budgeted_additive", "b_matching", "cut", "table")


def brute_gain(ctx, j, alloc_masks):
    """Definition replayed from scratch, without the context's caches."""
    ell = ctx.opt_map[j]
    pos = ctx.sigma.index(j)
    earlier = set(ctx.sigma[:pos])
    opt_items = set(mask_items(ctx.opt_allocation.masks[ell]))
    base = set(mask_items(alloc_masks[ell])) | (opt_items & earlier)
    oracle = ctx.instance.oracles[ell]
    return sl.value(oracle, base | {j}) - sl.value(oracle, base)


def enumerated_trace(ctx):
    """Raw w, a, b as the average of the reference trace loop over all n!
    orders, each position summed exactly: the reference for the state
    pass."""
    traces = [ref.trace_one(ctx, order)
              for order in itertools.permutations(range(ctx.n))]
    return tuple(np.array([math.fsum(getattr(t, f)[i] for t in traces)
                           / len(traces) for i in range(ctx.n)])
                 for f in "wab")


def order_terms(inst, order):
    """(copy-sum, move-sum, last marginal) of one order, from greedy runs."""
    run = sl.greedy(inst, order)
    final = run.allocation.masks
    copy = move = 0.0
    for j in order:
        copy += max(o.marginal_gain_mask(msk, j)
                    for o, msk in zip(inst.oracles, final))
    for i in range(len(order)):
        moved = order[:i] + order[i + 1:] + order[i:i + 1]
        move += sl.greedy(inst, moved).marginals[-1]
    return copy, move, run.marginals[-1]


def per_order_trace(ctx, samples, seed):
    """Monte-Carlo ``expected_trace`` as a loop of the reference trace over
    the seeded orders, summed order by order: the reference for the batched
    path."""
    n, opt = ctx.n, ctx.opt_value
    s, s2 = np.zeros((3, n)), np.zeros((3, n))
    swel = swel2 = 0.0
    for k in range(samples):
        t = ref.trace_one(ctx, ref.mc_order(seed, k, n))
        v = np.array((t.w, t.a, t.b))
        s += v
        s2 += v * v
        swel += t.welfare
        swel2 += t.welfare * t.welfare
    raw_w, raw_a, raw_b = s / samples

    def se(s, s2):
        var = np.maximum(s2 / samples - (s / samples) ** 2, 0.0)
        return np.sqrt(var / samples)

    err_w, err_a, err_b = se(s, s2) / opt
    stderr = {"w": err_w, "a": err_a, "b": err_b,
              "ratio": float(se(np.array(swel), np.array(swel2))) / opt}
    return GainTrace(n, opt, "monte_carlo", raw_w / opt, raw_a / opt,
                     raw_b / opt, raw_w, raw_a, raw_b, samples=samples,
                     seed=seed, stderr=stderr)


def per_order_conjecture(inst, samples, seed, tol=IDENTITY_TOL):
    """Monte-Carlo ``conjecture_check`` as a loop of ``order_terms`` over
    the seeded orders: the reference for the batched path."""
    lhs_sum = rhs_sum = last_sum = 0.0
    for k in range(samples):
        c, mv, last = order_terms(inst, ref.mc_order(seed, k, inst.n))
        lhs_sum += c
        rhs_sum += mv
        last_sum += last
    lhs, rhs = lhs_sum / samples, rhs_sum / samples
    return ConjectureReport(inst.n, inst.m, lhs, rhs,
                            inst.n * last_sum / samples, "monte_carlo",
                            samples=samples, seed=seed,
                            counterexample=lhs > rhs + tol)


def report_bytes(report):
    return json.dumps(report.to_dict(), sort_keys=True)


def traced_peak(call):
    """The ``tracemalloc`` peak, in bytes, of ``call()``."""
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def enumerated_conjecture(inst):
    """(lhs, rhs, crosscheck) as the average of ``order_terms`` over all n!
    orders, summed exactly: the reference for the exact mode."""
    terms = [order_terms(inst, order)
             for order in itertools.permutations(range(inst.n))]
    lhs, rhs, last = (math.fsum(col) / len(terms) for col in zip(*terms))
    return lhs, rhs, inst.n * last


def enumerated_second_half(ctx):
    """E[X] and E[Y_i] as the average over all n! orders of the per-order
    loop, each summed exactly: the reference for verify_second_half.  The
    best assignment of the second-half items is the first maximizer with
    the items in ascending order, so it depends on greedy's allocation of
    the first half alone, never on the order the second half arrives in."""
    n, m = ctx.n, ctx.m
    half = n // 2
    xs, ys = [], [[] for _ in range(half)]
    for order in itertools.permutations(range(n)):
        prefix = ref.prefix_masks(m, order, sl.greedy(ctx.instance,
                                                      order).choices)
        first, rest = sorted(order[:half]), sorted(order[half:])
        base = prefix[half]
        g_base = ref.gain_set(ctx, first, base)
        best_code, best_red = 0, -1.0
        for code in range(m ** half):
            c = code
            hat = [0] * m
            for j in rest:
                hat[c % m] |= 1 << j
                c //= m
            red = g_base - ref.gain_set(
                ctx, first, [b | h for b, h in zip(base, hat)])
            if red > best_red:
                best_code, best_red = code, red
        xs.append(best_red)
        hat_agent = {}
        c = best_code
        for j in rest:
            hat_agent[j] = c % m
            c //= m
        for i in range(half + 1, n + 1):
            before = prefix[i - 1]
            hat = [0] * m
            for j in order[i - 1:]:
                hat[hat_agent[j]] |= 1 << j
            ys[i - half - 1].append(
                ref.gain_set(ctx, first, before) - ref.gain_set(
                    ctx, first, [b | h for b, h in zip(before, hat)]))
    return (math.fsum(xs) / len(xs),
            np.array([math.fsum(y) / len(xs) for y in ys]))


def family_or_mixed(kind, n, m, seed):
    if kind == "mixed":
        return random_instance(n, m, seed, families=FAMILIES)
    return random_family_instance(kind, n, m, seed)


class TestGain:
    def test_sum_over_empty_equals_opt(self):
        for seed in range(5):
            inst = random_instance(5, 2, seed)
            ctx = sl.GainContext(inst)
            total = sl.gain_set(ctx, range(5), sl.Allocation.empty(2))
            assert total == pytest.approx(ctx.opt_value, abs=TOL)

    def test_item_already_with_reference_agent(self, or_indicator):
        ctx = sl.GainContext(or_indicator)
        assert sl.gain(ctx, 0, ctx.opt_allocation) == 0.0

    def test_or_indicator_values(self, or_indicator):
        ctx = sl.GainContext(or_indicator)
        empty = sl.Allocation.empty(2)
        assert sl.gain(ctx, 0, empty) == 1.0
        assert sl.gain(ctx, 1, empty) == 1.0

    def test_matches_brute_force_definition(self):
        inst = random_instance(4, 2, 3)
        ctx = sl.GainContext(inst)
        for masks in itertools.product(range(4), repeat=2):
            if masks[0] & masks[1]:
                continue
            for j in range(4):
                assert sl.gain(ctx, j, sl.Allocation(masks)) == \
                    pytest.approx(brute_gain(ctx, j, masks), abs=TOL)

    @pytest.mark.parametrize("kind,n", [(kind, 5) for kind in FAMILIES]
                             + [("mixed", 5), ("coverage", 18),
                                ("budgeted_additive", 18)])
    def test_gain_and_gain_set_match_brute_force(self, kind, n):
        """At n=18 there is no value table, so Gain reads ``_values``."""
        ctx = mc_context(family_or_mixed(kind, n, 2, 4))
        subsets = [s for r in range(6)
                   for s in itertools.combinations(range(5), r)]
        for a0 in range(1 << 5):
            alloc = sl.Allocation((a0, (1 << 5) - 1 & ~a0 & 0b10110))
            brute = [brute_gain(ctx, j, alloc.masks) for j in range(n)]
            for j in range(n):
                assert sl.gain(ctx, j, alloc) == \
                    pytest.approx(brute[j], abs=TOL)
                assert sl.gain(ctx, j, alloc) == \
                    ref.gain_masks(ctx, j, alloc.masks)
            for s in subsets[::7]:
                assert sl.gain_set(ctx, s, alloc) == \
                    pytest.approx(math.fsum(brute[j] for j in s), abs=TOL)

    def test_mask_outside_ground_set_refused(self):
        ctx = sl.GainContext(random_instance(4, 2, 1))
        for masks in ((1 << 4, 0), (0b1, 0b10 | 1 << 9), (-1, 0)):
            alloc = sl.Allocation(masks, multiset=True)
            with pytest.raises(InvalidQueryError, match="outside"):
                sl.gain(ctx, 0, alloc)
            with pytest.raises(InvalidQueryError, match="outside"):
                sl.gain_set(ctx, (1, 2), alloc)
        with pytest.raises(InvalidQueryError, match="item 4 outside"):
            sl.gain(ctx, 4, sl.Allocation.empty(2))

    def test_monotone_decreasing_in_allocation(self):
        inst = random_instance(4, 2, 6)
        ctx = sl.GainContext(inst)
        for small in itertools.product(range(16), repeat=2):
            if small[0] & small[1]:
                continue
            for big in itertools.product(range(16), repeat=2):
                if big[0] & big[1]:
                    continue
                if not all(s & b == s for s, b in zip(small, big)):
                    continue
                for j in range(4):
                    assert sl.gain(ctx, j, sl.Allocation(small)) >= \
                        sl.gain(ctx, j, sl.Allocation(big)) - TOL

    def test_sigma_free_per_agent_identity(self):
        inst = random_instance(4, 2, 9)
        sigmas = [(0, 1, 2, 3), (3, 1, 0, 2), (2, 3, 1, 0)]
        alloc = sl.Allocation.from_sets([{0}, {2}], 4)
        for sigma in sigmas:
            ctx = sl.GainContext(inst, sigma=sigma)
            for ell in range(2):
                items = [j for j in range(4) if ctx.opt_map[j] == ell]
                total = sum(sl.gain(ctx, j, alloc) for j in items)
                oracle = inst.oracles[ell]
                expected = (oracle.value_mask(
                    ctx.opt_allocation.masks[ell] | alloc.masks[ell])
                    - oracle.value_mask(alloc.masks[ell]))
                assert total == pytest.approx(expected, abs=TOL)


class TestGainContext:
    def test_multiset_reference_allocation_refused(self):
        """A reference allocation that gives an item to two agents would
        count it twice in the optimum (4.0 here, against a true 3.0)."""
        inst = sl.Instance((sl.make_additive([1, 2]), sl.make_additive([1, 2])))
        with pytest.raises(ValueError, match="each item to one agent"):
            sl.GainContext(inst, opt_allocation=sl.Allocation(
                (0b11, 0b01), multiset=True))
        ctx = sl.GainContext(inst, opt_allocation=sl.Allocation((0b11, 0)))
        assert ctx.opt_value == 3.0
        assert sl.expected_trace(ctx).ratio == 1.0

    def test_reference_allocation_must_assign_every_item(self):
        inst = random_instance(3, 2, 0)
        with pytest.raises(ValueError, match="every item"):
            sl.GainContext(inst, opt_allocation=sl.Allocation((0b011, 0)))


class TestGainSet:
    def test_empty_set(self, or_indicator):
        ctx = sl.GainContext(or_indicator)
        assert sl.gain_set(ctx, (), sl.Allocation.empty(2)) == 0.0

    def test_all_items_at_reference_allocation(self):
        inst = random_instance(4, 3, 2)
        ctx = sl.GainContext(inst)
        assert sl.gain_set(ctx, range(4), ctx.opt_allocation) == \
            pytest.approx(0.0, abs=TOL)


class TestTraceOne:
    def test_single_item_instance(self):
        # the arriving item counts among the arrived set, so its own gain
        # drop lands in b: with one item, b_1 is the item's full value
        o = sl.make_additive([2.0])
        ctx = sl.GainContext(sl.Instance((o,)))
        t = sl.trace_one(ctx, (0,))
        assert t.w[0] == 2.0 and t.a[0] == 0.0 and t.b[0] == 2.0

    def test_telescoping_identity(self):
        # sum of all reductions = Gain(N, empty) - Gain(N, final allocation)
        for seed in range(5):
            inst = random_instance(4, 2, seed)
            ctx = sl.GainContext(inst)
            for order in itertools.permutations(range(4)):
                t = sl.trace_one(ctx, order)
                run = sl.greedy(inst, order)
                final = sl.gain_set(ctx, range(4), run.allocation)
                assert t.a.sum() + t.b.sum() == \
                    pytest.approx(ctx.opt_value - final, abs=TOL)

    def test_or_indicator_cross_checked_against_recomputation(self,
                                                              or_indicator):
        ctx = sl.GainContext(or_indicator)
        for order in [(0, 1), (1, 0)]:
            t = sl.trace_one(ctx, order)
            # replay: recompute every Gain from the definition at each prefix
            masks = [0, 0]
            gains = {j: brute_gain(ctx, j, masks) for j in range(2)}
            arrived = set()
            for pos, j in enumerate(order):
                run = sl.greedy(or_indicator, order[:pos + 1])
                arrived.add(j)
                new_masks = list(run.allocation.masks)
                new_gains = {k: brute_gain(ctx, k, new_masks)
                             for k in range(2)}
                b_i = sum(gains[k] - new_gains[k] for k in arrived)
                a_i = sum(gains[k] - new_gains[k]
                          for k in range(2) if k not in arrived)
                assert t.b[pos] == pytest.approx(b_i, abs=TOL)
                assert t.a[pos] == pytest.approx(a_i, abs=TOL)
                gains = new_gains

    @pytest.mark.parametrize("kind", FAMILIES + ("mixed", "ties",
                                                 "saturated"))
    def test_matches_reference_loop_on_every_order(self, kind):
        """``trace_one``, one row of the batched trace, has the bytes of
        the scalar reference loop on every order for n <= 6."""
        for n in range(1, 7):
            m = 2 + n % 2
            if kind == "ties":
                inst = equal_additive(n, m)
            elif kind == "saturated":
                inst = saturated_budgets(n, m)
            else:
                inst = family_or_mixed(kind, n, m, 30 + n)
            ctx = sl.GainContext(inst)
            for order in itertools.permutations(range(n)):
                got, want = sl.trace_one(ctx, order), ref.trace_one(ctx, order)
                assert got.order == want.order
                for f in ("w", "a", "b", "gain_before"):
                    assert getattr(got, f).tobytes() == \
                        getattr(want, f).tobytes()
                assert struct.pack("d", got.welfare) == \
                    struct.pack("d", want.welfare)

    def test_gain_before_is_the_state_pass_gain_at_signed_zeros(self):
        """Two agents whose table holds -0.0: Gain drops of zero flip the
        sign of a zero Gain, and ``gain_before`` still has the bytes of
        the state pass's ``gain_j`` along every order, as the lemma
        witnesses' replay needs."""
        table = np.array([0.0, -0.0, 1.0, 1.0, -0.0, -0.0, 1.0, 1.0])
        ctx = sl.GainContext(sl.Instance((sl.make_table(3, table),) * 2))
        steps = ctx._pass.steps
        for order in itertools.permutations(range(3)):
            got = sl.trace_one(ctx, order).gain_before
            state = 0
            for pos, step in enumerate(steps):
                t = step.index[state, order[pos]]
                assert got[pos].tobytes() == step.gain_j[t].tobytes()
                state = step.inv[t]

    def test_rejects_non_permutation(self):
        ctx = sl.GainContext(random_instance(3, 2, 0))
        for order in ((0, 1), (0, 1, 1), (0, 1, 3)):
            with pytest.raises(ValueError, match="permutation"):
                sl.trace_one(ctx, order)

    def test_choices_match_greedy_on_every_order(self):
        inst = random_instance(5, 3, 2)    # cut, budgeted additive, coverage
        ctx = sl.GainContext(inst)
        for order in itertools.permutations(range(5)):
            t = sl.trace_one(ctx, order)
            run = sl.greedy(inst, order)
            assert np.array_equal(t.w, run.marginals)


class TestExpectedTrace:
    def test_or_indicator_ratio(self, or_indicator):
        trace = sl.expected_trace(sl.GainContext(or_indicator))
        assert trace.ratio == pytest.approx(0.75, abs=TOL)

    def test_single_agent_ratio_one(self):
        inst = random_family_instance("coverage", 4, 1, 0)
        trace = sl.expected_trace(sl.GainContext(inst))
        assert trace.ratio == pytest.approx(1.0, abs=TOL)

    @pytest.mark.parametrize("seed", range(5))
    def test_ratio_beats_half_plus_half_beta(self, seed):
        inst = random_instance(5, 2, seed)
        trace = sl.expected_trace(sl.GainContext(inst))
        assert trace.ratio >= 0.5 + trace.beta / 2 - TOL

    def test_trace_invariants(self):
        inst = random_instance(5, 3, 4)
        trace = sl.expected_trace(sl.GainContext(inst))
        for i in range(5):
            assert trace.w[i] >= trace.a[i] + trace.b[i] - TOL
        assert trace.beta == pytest.approx(float(trace.b.sum()), abs=TOL)
        assert trace.expected_welfare == \
            pytest.approx(float(trace.raw_w.sum()), abs=TOL)

    @pytest.mark.parametrize("n", range(2, 8))
    @pytest.mark.parametrize("kind", FAMILIES + ("mixed",))
    def test_exact_matches_enumerated_average(self, kind, n):
        ctx = sl.GainContext(family_or_mixed(kind, n, 3 if n < 7 else 2, n))
        trace = sl.expected_trace(ctx, mode="exact")
        for got, ref in zip((trace.raw_w, trace.raw_a, trace.raw_b),
                            enumerated_trace(ctx)):
            assert np.abs(got - ref).max() <= TOL

    def test_exact_matches_enumerated_average_n8(self):
        ctx = sl.GainContext(random_instance(8, 3, 0, families=FAMILIES))
        trace = sl.expected_trace(ctx, mode="exact")
        for got, ref in zip((trace.raw_w, trace.raw_a, trace.raw_b),
                            enumerated_trace(ctx)):
            assert np.abs(got - ref).max() <= TOL
        assert 0 < trace.states < math.factorial(8)

    def test_exact_mode_size_guard(self):
        o = sl.make_additive([1.0] * 9)
        ctx = sl.GainContext(sl.Instance((o,)))
        with pytest.raises(SizeGuardError):
            sl.expected_trace(ctx, mode="exact")

    @pytest.mark.parametrize("mode", ("monte_carlo", "MC", "bogus"))
    def test_unknown_mode_raises(self, mode):
        """Only 'exact' and 'mc' are modes; 'monte_carlo' is the label an
        MC report carries, not a mode."""
        ctx = sl.GainContext(random_instance(4, 2, 0))
        with pytest.raises(ValueError, match="use 'exact' or 'mc'"):
            sl.expected_trace(ctx, mode=mode)
        with pytest.raises(ValueError, match="use 'exact' or 'mc'"):
            sl.conjecture_check(ctx.instance, mode=mode)

    def test_mc_same_seed_bit_reproducible(self):
        inst = random_instance(6, 2, 1)
        ctx = sl.GainContext(inst)
        t1 = sl.expected_trace(ctx, mode="mc", samples=300, seed=5)
        t2 = sl.expected_trace(ctx, mode="mc", samples=300, seed=5)
        assert np.array_equal(t1.w, t2.w)
        assert np.array_equal(t1.b, t2.b)
        assert t1.stderr["ratio"] == t2.stderr["ratio"]

    def test_mc_converges_to_exact_within_three_stderr(self):
        inst = random_instance(5, 2, 2)
        ctx = sl.GainContext(inst)
        exact = sl.expected_trace(ctx)
        mc = sl.expected_trace(ctx, mode="mc", samples=4000, seed=0)
        band = max(3 * mc.stderr["ratio"], 1e-9)
        assert abs(mc.ratio - exact.ratio) <= band

    def test_csv_export_shape(self, or_indicator):
        trace = sl.expected_trace(sl.GainContext(or_indicator))
        lines = trace.to_csv().strip().splitlines()
        assert lines[0] == "i,w,a,b"
        assert len(lines) == 3


class TestVerifyLemmas:
    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("n,m", [(2, 2), (4, 2), (6, 3)])
    def test_random_instances_pass(self, n, m, seed):
        inst = random_instance(n, m, seed)
        rep = sl.verify_lemmas(sl.GainContext(inst))
        assert rep.passed, rep.violations[:3]

    def test_single_agent_trivial(self):
        inst = random_family_instance("budgeted_additive", 4, 1, 0)
        assert sl.verify_lemmas(sl.GainContext(inst)).passed

    def test_additive_reduction_equality_on_own_item(self, additive_2x2):
        # with additive oracles the only Gain drop at each step is the
        # arriving item's own, and it equals the greedy marginal exactly
        # when greedy agrees with the reference agent
        ctx = sl.GainContext(additive_2x2)
        t = sl.trace_one(ctx, (0, 1))
        assert t.w[0] == t.a[0] + t.b[0]
        assert t.w[1] == t.a[1] + t.b[1]

    def test_odd_n_skips_identities(self):
        inst = random_instance(3, 2, 0)
        rep = sl.verify_lemmas(sl.GainContext(inst))
        assert rep.prefix_identities_ok is None
        assert rep.passed

    def test_size_guard(self):
        o = sl.make_additive([1.0] * 9)
        with pytest.raises(SizeGuardError):
            sl.verify_lemmas(sl.GainContext(sl.Instance((o,))))

    def test_n8_m3_passes(self):
        ctx = sl.GainContext(random_instance(8, 3, 0, families=FAMILIES))
        rep = sl.verify_lemmas(ctx)
        assert rep.passed, rep.violations[:3]
        assert rep.prefix_identities_ok
        assert 0 < rep.states < math.factorial(8)

    @pytest.mark.parametrize("seed", range(3))
    def test_prefix_identity_sums_match_enumeration(self, seed):
        n = 6
        ctx = sl.GainContext(random_instance(n, 3, seed, families=FAMILIES))
        rep = sl.verify_lemmas(ctx)
        first, second = [], []
        for order in itertools.permutations(range(n)):
            t = ref.trace_one(ctx, order)
            drop = t.gains_initial - t.gains_half
            first += [drop[j] for j in order[:n // 2]]
            second += [drop[j] for j in order[n // 2:]]
        scale = math.factorial(n) * ctx.opt_value
        assert rep.details["identity1_lhs"] == \
            pytest.approx(math.fsum(second) / scale, abs=TOL)
        assert rep.details["identity2_lhs"] == \
            pytest.approx(math.fsum(first) / scale, abs=TOL)

    @pytest.mark.parametrize("seed", range(3))
    def test_violation_witnesses_replay(self, seed):
        # a negative tolerance flags every transition, so every reachable
        # (state, item) pair yields one witness of each kind
        ctx = sl.GainContext(random_instance(5, 3, seed, families=FAMILIES))
        rep = sl.verify_lemmas(ctx, tol=-10.0)
        assert not rep.step_lower_bound_ok and not rep.step_reduction_ok
        steps = [v for v in rep.violations
                 if v[0] in ("step_lower_bound", "step_reduction")]
        pairs = {(v[1][:v[2]], v[1][v[2]]) for v in steps}
        assert len(steps) == 2 * len(pairs)
        for kind, order, i, w, bound in steps:
            assert sorted(order) == list(range(5))
            t = ref.trace_one(ctx, order)
            assert t.w[i] == w
            if kind == "step_lower_bound":
                assert t.gain_before[i] == bound
            else:
                assert t.a[i] + t.b[i] == bound


class TestBuildAPrime:
    def test_single_agent_collapses(self):
        inst = random_family_instance("coverage", 4, 1, 3)
        ctx = sl.GainContext(inst)
        order = (2, 0, 3, 1)
        _, margin = sl.build_A_prime(ctx, order)
        o = inst.oracles[0]
        expected = sl.value(o, range(4)) - sl.value(o, order[:2])
        assert margin == pytest.approx(expected, abs=TOL)

    def test_margin_matches_direct_welfare_evaluation(self):
        for seed in range(5):
            inst = random_instance(4, 2, seed)
            ctx = sl.GainContext(inst)
            order = (1, 3, 0, 2)
            a_prime, margin = sl.build_A_prime(ctx, order)
            g_s1 = sl.greedy(inst, order[:2])
            assert margin == pytest.approx(
                sl.welfare(inst, a_prime) - g_s1.welfare, abs=TOL)

    def test_contains_full_greedy_allocation(self):
        inst = random_instance(4, 2, 7)
        ctx = sl.GainContext(inst)
        order = (0, 1, 2, 3)
        a_prime, _ = sl.build_A_prime(ctx, order)
        full = sl.greedy(inst, order).allocation
        for got, sub in zip(a_prime.masks, full.masks):
            assert got & sub == sub

    def test_s1_masks_from_prefix_match_greedy_on_s1(self):
        # build_A_prime reads greedy's allocation of S1 off the full run;
        # running greedy on S1 alone stays here as the reference
        inst = random_instance(8, 2, 3)
        ctx = sl.GainContext(inst)
        for k, order in enumerate(itertools.permutations(range(8))):
            g_s1 = sl.greedy(inst, order[:4]).allocation
            choices = sl.greedy(inst, order).choices
            assert ref.prefix_masks(2, order[:4], choices)[-1] == g_s1.masks
            if k % 97 == 0:
                a_prime, margin = sl.build_A_prime(ctx, order)
                assert margin == \
                    sl.welfare(inst, a_prime) - sl.welfare(inst, g_s1)

    def test_rejects_bad_size(self):
        inst = random_instance(6, 2, 0)
        with pytest.raises(ValueError):
            sl.build_A_prime(sl.GainContext(inst), (0, 1, 2, 3, 4, 5))


class TestVerifyEq1:
    @pytest.mark.parametrize("seed", range(8))
    def test_n4_m2_instances(self, seed):
        inst = random_instance(4, 2, seed)
        rep = sl.verify_eq1(sl.GainContext(inst))
        assert rep.passed, rep.to_dict()

    def test_single_agent(self):
        inst = random_family_instance("b_matching", 4, 1, 1)
        assert sl.verify_eq1(sl.GainContext(inst)).passed

    @pytest.mark.parametrize("n,m,seed", [(4, 2, 0), (4, 3, 1), (4, 3, 2),
                                          (8, 3, 0)])
    def test_lhs_matches_enumerated_A_prime(self, n, m, seed):
        ctx = sl.GainContext(random_instance(n, m, seed, families=FAMILIES))
        margins = [sl.build_A_prime(ctx, order)[1]
                   for order in itertools.permutations(range(n))]
        ref = math.fsum(margins) / (len(margins) * ctx.opt_value)
        assert sl.verify_eq1(ctx).lhs == pytest.approx(ref, abs=TOL)

    def test_additive_instances(self, additive_2x2):
        o1 = sl.make_additive([3.0, 2.0, 1.0, 4.0])
        o2 = sl.make_additive([2.0, 3.0, 4.0, 1.0])
        inst = sl.Instance((o1, o2))
        assert sl.verify_eq1(sl.GainContext(inst)).passed


class TestVerifySecondHalf:
    def test_single_agent_trivial(self):
        inst = random_family_instance("coverage", 4, 1, 2)
        rep = sl.verify_second_half(sl.GainContext(inst))
        assert rep.passed
        assert rep.ex_x == pytest.approx(0.0, abs=TOL)

    @pytest.mark.parametrize("seed", range(5))
    def test_coverage_n4_m2_all_three_checks(self, seed):
        inst = random_family_instance("coverage", 4, 2, seed)
        rep = sl.verify_second_half(sl.GainContext(inst))
        assert rep.second_order_supermodular
        assert rep.reduction_ok and rep.recursion_ok and rep.slack_ok

    def test_additive_reduction_bound(self):
        o1 = sl.make_additive([3.0, 2.0, 1.0, 4.0])
        o2 = sl.make_additive([1.0, 4.0, 2.0, 3.0])
        inst = sl.Instance((o1, o2))
        rep = sl.verify_second_half(sl.GainContext(inst))
        assert rep.passed

    def test_non_supermodular_skips_conditional_checks(self):
        inst = random_family_instance("budgeted_additive", 4, 2, 0)
        rep = sl.verify_second_half(sl.GainContext(inst))
        assert not rep.second_order_supermodular
        assert rep.recursion_ok is None and rep.slack_ok is None
        assert rep.reduction_ok   # holds regardless of second-order class

    def test_size_guards(self):
        o = sl.make_additive([1.0] * 10)
        with pytest.raises(SizeGuardError):
            sl.verify_second_half(sl.GainContext(sl.Instance((o, o, o))))

    def test_given_reference_kept_within_the_optimum_bound(self):
        """A given reference allocation skips ``optimal``, whose bound
        m^n <= 10^7 keeps the m^(n/2) assignments per half state small;
        the second half refuses what ``optimal`` would refuse."""
        o = sl.make_additive([1.0] * 8)
        inst = sl.Instance((o,) * 8)
        ctx = sl.GainContext(inst, opt_allocation=sl.Allocation(
            (0xFF,) + (0,) * 7))
        with pytest.raises(SizeGuardError, match=r"m\^n <= 10000000; "
                           r"got 8\^8"):
            sl.verify_second_half(ctx)
        with pytest.raises(SizeGuardError):
            sl.optimal(inst)

    @pytest.mark.parametrize(
        "kind,n,m,seed",
        [(kind, n, m, n + m) for kind in FAMILIES + ("mixed",)
         for n in (2, 4, 6) for m in (1, 2, 3)]
        # a tie between best assignments: ordering the second-half items
        # by arrival moved E[Y] here by 6.6e-3
        + [("mixed", 6, 2, 1)]
        # more than three agents
        + [(kind, n, m, n + m) for kind in ("coverage", "mixed")
           for n, m in ((4, 4), (4, 5), (6, 4))])
    def test_matches_enumerated_orders(self, kind, n, m, seed):
        ctx = sl.GainContext(family_or_mixed(kind, n, m, seed))
        rep = sl.verify_second_half(ctx)
        ex_x, ex_y = enumerated_second_half(ctx)
        _, a, b = enumerated_trace(ctx)
        rhs = sum(a[j - 1] * j / (n - j) - b[j - 1]
                  for j in range(1, n // 2 + 1))
        assert rep.ex_x == pytest.approx(ex_x, abs=TOL)
        assert rep.reduction_rhs == pytest.approx(rhs, abs=TOL)
        assert np.abs(rep.ex_y - ex_y).max() <= TOL
        assert rep.ex_y[0] == pytest.approx(rep.ex_x, abs=TOL)   # Y = X
        assert rep.states > 0

    def test_n8_m3_passes(self):
        ctx = sl.GainContext(random_family_instance("coverage", 8, 3, 0))
        rep = sl.verify_second_half(ctx)
        assert rep.second_order_supermodular
        assert rep.passed, rep.to_dict()
        assert "states" not in rep.to_dict()


class TestConjecture:
    def test_single_agent(self):
        inst = random_family_instance("coverage", 4, 1, 0)
        rep = sl.conjecture_check(inst)
        assert not rep.counterexample
        assert rep.crosscheck_error < TOL

    def test_single_agent_additive_copy_worthless(self):
        inst = sl.Instance((sl.make_additive([1.0, 2.0, 3.0]),))
        rep = sl.conjecture_check(inst)
        assert rep.lhs == pytest.approx(0.0, abs=TOL)
        assert rep.rhs > 0

    @pytest.mark.parametrize("seed", range(8))
    def test_seeded_table_instances(self, seed):
        inst = random_instance(4, 2, seed, families=("table",))
        rep = sl.conjecture_check(inst)
        assert rep.crosscheck_error < TOL
        assert rep.gap >= -IDENTITY_TOL

    def test_mc_mode_reproducible(self):
        inst = random_instance(5, 2, 3)
        r1 = sl.conjecture_check(inst, mode="mc", samples=50, seed=9)
        r2 = sl.conjecture_check(inst, mode="mc", samples=50, seed=9)
        assert r1.lhs == r2.lhs and r1.rhs == r2.rhs

    def test_mc_is_per_order_average(self):
        inst = random_instance(6, 3, 4, families=FAMILIES)
        rep = sl.conjecture_check(inst, mode="mc", samples=40, seed=2)
        lhs = rhs = last = 0.0
        for k in range(40):
            c, mv, la = order_terms(inst, ref.mc_order(2, k, 6))
            lhs += c
            rhs += mv
            last += la
        assert (rep.lhs, rep.rhs, rep.crosscheck) == \
            (lhs / 40, rhs / 40, 6 * last / 40)
        assert rep.mode == "monte_carlo" and rep.states is None

    @pytest.mark.parametrize("m", (1, 2, 3))
    @pytest.mark.parametrize("n", range(2, 8))
    @pytest.mark.parametrize("kind", FAMILIES + ("mixed",))
    def test_exact_matches_enumerated_orders(self, kind, n, m):
        inst = family_or_mixed(kind, n, m, 10 * n + m)
        rep = sl.conjecture_check(inst)
        lhs, rhs, crosscheck = enumerated_conjecture(inst)
        assert rep.lhs == pytest.approx(lhs, abs=TOL)
        assert rep.rhs == pytest.approx(rhs, abs=TOL)
        assert rep.crosscheck == pytest.approx(crosscheck, abs=TOL)
        assert 0 < rep.states

    def test_n8_m3_within_cap(self):
        inst = random_instance(8, 3, 0, families=FAMILIES)
        rep = sl.conjecture_check(inst)
        assert rep.crosscheck_error < TOL
        assert rep.gap >= -IDENTITY_TOL and not rep.counterexample
        assert 0 < rep.states < math.factorial(8)
        assert "states" not in rep.to_dict()

    def test_size_guard(self):
        o = sl.make_additive([1.0] * 9)
        with pytest.raises(SizeGuardError, match="capped at n=8"):
            sl.conjecture_check(sl.Instance((o,)))


def mc_context(inst):
    """A context whose optimum is cheap to find; above a few thousand
    assignments greedy's allocation of the identity order is the reference
    allocation instead (any allocation of every item defines Gain)."""
    if inst.m ** inst.n <= 5000:
        return sl.GainContext(inst)
    alloc = sl.greedy(inst, range(inst.n)).allocation
    return sl.GainContext(inst, opt_allocation=alloc)


def equal_additive(n, m):
    """m identical additive agents with equal weights: every step ties."""
    return sl.Instance(tuple(sl.make_additive([1.0] * n) for _ in range(m)))


def saturated_budgets(n, m):
    """Budgeted agents that fill up after one item, so most marginals tie
    at zero."""
    return sl.Instance(tuple(sl.make_budgeted_additive(1.0, [1.0] * n)
                             for _ in range(m)))


class TestBatchedMonteCarlo:
    """The batched Monte-Carlo paths report the bytes a per-order loop over
    the same seeded orders reports."""

    @pytest.mark.parametrize("n", range(1, 13))
    def test_trace_matches_per_order_loop_each_n(self, n):
        m = 1 + n % 4
        kind = (FAMILIES + ("mixed",))[n % 6]
        ctx = mc_context(family_or_mixed(kind, n, m, 100 + n))
        got = sl.expected_trace(ctx, mode="mc", samples=300, seed=n)
        assert report_bytes(got) == report_bytes(per_order_trace(ctx, 300, n))

    @pytest.mark.parametrize("m", (1, 2, 3, 4))
    @pytest.mark.parametrize("kind", FAMILIES + ("mixed",))
    def test_trace_matches_per_order_loop_each_family(self, kind, m):
        ctx = mc_context(family_or_mixed(kind, 6, m, 7 * m))
        got = sl.expected_trace(ctx, mode="mc", samples=120, seed=m)
        assert report_bytes(got) == report_bytes(per_order_trace(ctx, 120, m))

    @pytest.mark.parametrize("samples", (1, MC_BATCH - 1, MC_BATCH,
                                         MC_BATCH + 1, 2500))
    def test_trace_matches_per_order_loop_across_batches(self, samples):
        ctx = mc_context(random_instance(5, 3, 11, families=FAMILIES))
        got = sl.expected_trace(ctx, mode="mc", samples=samples, seed=4)
        assert report_bytes(got) == \
            report_bytes(per_order_trace(ctx, samples, 4))

    @pytest.mark.parametrize("make", (equal_additive, saturated_budgets))
    @pytest.mark.parametrize("n,m", ((4, 2), (7, 3), (8, 3), (9, 4)))
    def test_trace_ties_match_per_order_loop(self, make, n, m):
        ctx = mc_context(make(n, m))
        got = sl.expected_trace(ctx, mode="mc", samples=MC_BATCH + 1, seed=3)
        assert report_bytes(got) == \
            report_bytes(per_order_trace(ctx, MC_BATCH + 1, 3))

    @pytest.mark.parametrize("kind", FAMILIES + ("mixed",))
    @pytest.mark.parametrize("n,m", ((1, 2), (3, 3), (5, 2), (6, 3)))
    def test_walk_matches_batched_greedy_on_every_order(self, kind, n, m):
        """Read off the state pass, every order's w, a and b have the bits
        that greedy run along the order gives."""
        ctx = mc_context(family_or_mixed(kind, n, m, 5 * n + m))
        orders = np.array(list(itertools.permutations(range(n))))
        walked = gain_module._walk_batch(ctx._pass, orders)
        traced = np.stack(gain_module._trace_batch(ctx, orders)[:3], axis=1)
        assert walked.tobytes() == traced.tobytes()

    @pytest.mark.parametrize("make", (equal_additive, saturated_budgets))
    def test_walk_matches_batched_greedy_on_ties(self, make):
        ctx = mc_context(make(6, 3))
        orders = np.array(list(itertools.permutations(range(6))))
        walked = gain_module._walk_batch(ctx._pass, orders)
        traced = np.stack(gain_module._trace_batch(ctx, orders)[:3], axis=1)
        assert walked.tobytes() == traced.tobytes()

    @pytest.mark.parametrize("n", (2, 5, EXACT_TRACE_MAX_N))
    def test_greedy_steps_do_not_grow_with_samples(self, n, monkeypatch):
        """Up to the cap the samples are read off the state pass, so 10
        samples and 20,000 run the same greedy steps: the pass's."""
        calls = []
        steps = gain_module.greedy_steps
        monkeypatch.setattr(gain_module, "greedy_steps",
                            lambda *args: calls.append(1) or steps(*args))
        inst = random_instance(n, 3, n, families=FAMILIES)
        counts = []
        for samples in (10, 20_000):
            calls.clear()
            sl.expected_trace(mc_context(inst), mode="mc", samples=samples,
                              seed=1)
            counts.append(len(calls))
        assert counts[0] == counts[1] == n

    def test_state_pass_shared_by_mc_and_exact(self, monkeypatch):
        built = []
        state_pass = gain_module._state_pass
        monkeypatch.setattr(gain_module, "_state_pass",
                            lambda ctx: built.append(1) or state_pass(ctx))
        ctx = sl.GainContext(random_instance(6, 2, 3, families=FAMILIES))
        sl.expected_trace(ctx, mode="mc", samples=50, seed=2)
        assert built == [1]
        assert sl.expected_trace(ctx, mode="exact").states == ctx._pass.states
        assert built == [1]

    def test_trace_or_indicator_matches_per_order_loop(self, or_indicator):
        ctx = sl.GainContext(or_indicator)
        got = sl.expected_trace(ctx, mode="mc", samples=1025, seed=0)
        assert report_bytes(got) == report_bytes(per_order_trace(ctx, 1025, 0))

    @pytest.mark.parametrize("kind", ("coverage", "budgeted_additive"))
    def test_trace_without_value_tables(self, kind):
        inst = random_family_instance(kind, 18, 2, 5)
        assert all(o._table is None for o in inst.oracles)
        ctx = mc_context(inst)
        got = sl.expected_trace(ctx, mode="mc", samples=200, seed=1)
        assert report_bytes(got) == report_bytes(per_order_trace(ctx, 200, 1))

    @pytest.mark.parametrize("n,m,kind,samples", [
        (1, 2, "mixed", 5), (2, 1, "table", 40), (3, 4, "mixed", 300),
        (5, 2, "cut", 1), (6, 3, "mixed", MC_BATCH + 1),
        (8, 2, "b_matching", 150), (10, 3, "coverage", 60)])
    def test_conjecture_matches_per_order_loop(self, n, m, kind, samples):
        inst = family_or_mixed(kind, n, m, n * m)
        got = sl.conjecture_check(inst, mode="mc", samples=samples, seed=n)
        assert report_bytes(got) == \
            report_bytes(per_order_conjecture(inst, samples, n))

    @pytest.mark.parametrize("make", (equal_additive, saturated_budgets))
    def test_conjecture_ties_match_per_order_loop(self, make):
        inst = make(6, 3)
        got = sl.conjecture_check(inst, mode="mc", samples=400, seed=2)
        assert report_bytes(got) == \
            report_bytes(per_order_conjecture(inst, 400, 2))

    def test_conjecture_without_value_tables(self):
        inst = random_family_instance("coverage", 18, 2, 6)
        got = sl.conjecture_check(inst, mode="mc", samples=3, seed=1)
        assert report_bytes(got) == \
            report_bytes(per_order_conjecture(inst, 3, 1))

    def test_more_items_than_int64_bits_refused(self):
        """Sets are int64 bitmasks from construction on: no oracle, and so
        no instance, has more than 63 items, and at 63 both batched paths
        run."""
        with pytest.raises(SizeGuardError, match="n <= 63"):
            sl.make_additive([1.0] * 64)
        inst = sl.Instance((sl.make_additive([1.0] * 63),))
        ctx = sl.GainContext(inst, opt_allocation=sl.Allocation(((1 << 63)
                                                                 - 1,)))
        trace = sl.expected_trace(ctx, mode="mc", samples=2)
        assert trace.raw_w.tolist() == [1.0] * 63
        rep = sl.conjecture_check(inst, mode="mc", samples=2)
        assert rep.rhs == rep.crosscheck == 63.0

    @pytest.mark.parametrize("n", (1, 5, 8, 9, 16, 17, 40))
    def test_row_sums_equal_per_row_sums(self, n):
        """Per-order welfare is ``W.sum(axis=1)`` on the batch, which must
        round as ``trace_one``'s ``float(w.sum())`` does on each row."""
        rng = np.random.default_rng(n)
        scale = 10.0 ** rng.integers(-9, 9, (MC_BATCH, n))
        w = rng.random((MC_BATCH, n)) * scale
        rows = [float(np.array(row).sum()) for row in w.tolist()]
        assert w.sum(axis=1).tolist() == rows
        # as Monte-Carlo mode reads w, out of a [S, 3, n] batch
        v = np.stack((w, w + 1.0, w + 2.0), axis=1)
        assert v[:, 0].sum(axis=1).tolist() == rows

    def test_memory_bounded_by_batch(self):
        """The traced peak does not grow with the number of samples."""
        ctx = sl.GainContext(random_instance(8, 3, 1, families=FAMILIES))
        ctx._pass     # built once per context, whatever the sample count

        def peak(samples):
            tracemalloc.start()
            try:
                sl.expected_trace(ctx, mode="mc", samples=samples, seed=0)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        small, large = peak(2_000), peak(20_000)
        # one 20,000-order array of w alone would add 1.28 MB
        assert large - small < 256 * 1024, (small, large)

    def test_walk_memory_bounded_by_walk_batch(self):
        """Up to the cap a batch holds ``WALK_BATCH`` orders: ten full
        batches peak where one does."""
        ctx = sl.GainContext(random_instance(8, 3, 1, families=FAMILIES))
        ctx._pass
        small, large = (traced_peak(lambda: sl.expected_trace(
            ctx, mode="mc", samples=k * WALK_BATCH, seed=0)) for k in (1, 10))
        assert large - small < 256 * 1024, (small, large)

    def test_conjecture_memory_bounded_by_batch(self):
        inst = random_instance(8, 3, 1, families=FAMILIES)
        small, large = (traced_peak(lambda: sl.conjecture_check(
            inst, mode="mc", samples=k * MC_BATCH, seed=0)) for k in (2, 20))
        assert large - small < 256 * 1024, (small, large)

    @pytest.mark.parametrize("suite,n", [("trace", 3), ("trace", 8),
                                         ("trace", 10), ("conjecture", 6)])
    def test_batch_size_never_changes_report(self, suite, n, monkeypatch):
        """The walk (trace, n <= 8) and the batched greedy runs (trace at
        n = 10, conjecture) report the same bytes whatever the batch size,
        a partial last batch included."""
        inst = random_instance(n, 3, 30 + n, families=FAMILIES)
        ctx = mc_context(inst)
        reports = set()
        for size in (1, 7, 2048):
            monkeypatch.setattr(gain_module, "MC_BATCH", size)
            monkeypatch.setattr(gain_module, "WALK_BATCH", size)
            if suite == "trace":
                rep = sl.expected_trace(ctx, mode="mc", samples=60, seed=n)
            else:
                rep = sl.conjecture_check(inst, mode="mc", samples=60, seed=n)
            reports.add(report_bytes(rep))
        assert len(reports) == 1

    @pytest.mark.parametrize("n", (1, 5, 8, 13))
    def test_add_orders_equals_concatenated_cumsum(self, n):
        """Adding ``acc`` into the first order's terms and summing in place
        gives the bits of a cumulative sum that starts from ``acc``."""
        rng = np.random.default_rng(n)
        size, width = WALK_BATCH, 3 * n + 1
        v = (rng.standard_normal((size, 3, n))
             * 10.0 ** rng.integers(-9, 9, (size, 3, n)))
        acc = (rng.standard_normal((2, width))
               * 10.0 ** rng.integers(-9, 9, (2, width)))
        before = acc.copy()
        terms = np.empty((size, 2, width))
        terms[:, 0, :-1] = v.reshape(size, -1)
        terms[:, 0, -1] = v[:, 0].sum(axis=1)
        np.square(terms[:, 0], out=terms[:, 1])
        want = np.concatenate((acc[None], terms)).cumsum(axis=0)[-1]
        got = gain_module._add_orders(acc, v)
        assert got.tobytes() == want.tobytes()
        assert acc.tobytes() == before.tobytes()
