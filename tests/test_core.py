import itertools
import math

import numpy as np
import pytest

import swmlab as sl
from exact_reference import greedy_run, greedy_step
from swmlab.core import greedy_steps
from swmlab.errors import InvalidQueryError, SizeGuardError
from swmlab.oracles import ValuationOracle
from swmlab.instances import random_instance

TOL = 1e-12


class TestWelfare:
    def test_empty_allocation(self, additive_2x2):
        assert sl.welfare(additive_2x2, sl.Allocation.empty(2)) == 0.0

    def test_single_agent_gets_everything(self):
        o = sl.make_additive([1, 2, 3])
        inst = sl.Instance((o,))
        alloc = sl.Allocation.from_sets([{0, 1, 2}], 3)
        assert sl.welfare(inst, alloc) == sl.value(o, {0, 1, 2})

    def test_hand_sum(self, additive_2x2):
        alloc = sl.Allocation.from_sets([{0}, {1}], 2)
        assert sl.welfare(additive_2x2, alloc) == 6.0

    def test_dimension_mismatch(self, additive_2x2):
        with pytest.raises(ValueError):
            sl.welfare(additive_2x2, sl.Allocation.empty(3))


class TestUnion:
    def test_with_empty(self):
        a = sl.Allocation.from_sets([{0}, {1}], 2)
        assert sl.union(a, sl.Allocation.empty(2)).masks == a.masks

    def test_idempotent(self):
        a = sl.Allocation.from_sets([{0}, {1}], 2)
        u = sl.union(a, a)
        assert u.masks == a.masks and not u.multiset

    def test_cross_agent_overlap_sets_multiset_flag(self):
        a = sl.Allocation.from_sets([{0}, set()], 1 + 1)
        b = sl.Allocation.from_sets([set(), {0}], 2)
        u = sl.union(a, b)
        assert u.masks == (1, 1)
        assert u.multiset

    def test_disjointness_enforced_outside_union(self):
        with pytest.raises(ValueError):
            sl.Allocation((1, 1))


class TestGreedy:
    def test_single_agent(self):
        o = sl.make_additive([1, 2, 3])
        inst = sl.Instance((o,))
        run = sl.greedy(inst, (2, 0, 1))
        assert run.welfare == sl.value(o, {0, 1, 2})
        assert run.allocation.masks == (0b111,)

    def test_or_indicator_order_01(self, or_indicator):
        run = sl.greedy(or_indicator, (0, 1))
        assert run.choices == (0, 0)    # tie at item 0 goes to agent 0
        assert run.welfare == 1.0

    def test_or_indicator_order_10(self, or_indicator):
        run = sl.greedy(or_indicator, (1, 0))
        assert run.choices == (0, 1)
        assert run.welfare == 2.0

    def test_invalid_item(self, or_indicator):
        with pytest.raises(InvalidQueryError):
            sl.greedy(or_indicator, (0, 2))

    def test_repeated_item_is_worthless_to_holder(self):
        o = sl.make_additive([5.0, 1.0])
        inst = sl.Instance((o,))
        run = sl.greedy(inst, (0, 0, 1))
        assert run.marginals == (5.0, 0.0, 1.0)

    def test_all_items_assigned(self):
        for seed in range(5):
            inst = random_instance(5, 2, seed)
            run = sl.greedy(inst, range(5))
            assert run.allocation.assigned_mask == 0b11111

    def test_marginals_match_prefix_welfare_deltas(self):
        for seed in range(5):
            inst = random_instance(5, 3, seed)
            for order in [(0, 1, 2, 3, 4), (4, 2, 0, 3, 1)]:
                run = sl.greedy(inst, order)
                cum = 0.0
                masks = [0] * inst.m
                for pos, j in enumerate(order):
                    masks[run.choices[pos]] |= 1 << j
                    cum += run.marginals[pos]
                    prefix_welfare = sl.welfare(inst,
                                                sl.Allocation(tuple(masks)))
                    assert prefix_welfare == pytest.approx(cum, abs=TOL)


class RawTable(ValuationOracle):
    """A value table taken as given: NaN, negative marginals and all."""

    kind = "raw"

    def __init__(self, table):
        self._table = np.asarray(table, dtype=float)
        super().__init__(len(self._table).bit_length() - 1)


def scalar_steps(inst, masks, items):
    """The scalar reference ``greedy_step`` column by column, as arrays
    like ``greedy_steps``."""
    chosen, gains, new = [], [], masks.copy()
    for s, j in enumerate(items.tolist()):
        ell, g = greedy_step(inst, masks[:, s].tolist(), j)
        chosen.append(ell)
        gains.append(g)
        new[ell, s] |= 1 << j
    return np.array(chosen), np.array(gains), new


class TestGreedySteps:
    """The batched greedy step against the scalar reference step on random
    batches, masks that already hold the arriving item included."""

    def check(self, inst, size, seed):
        rng = np.random.default_rng(seed)
        masks = rng.integers(0, 1 << inst.n, size=(inst.m, size))
        items = rng.integers(0, inst.n, size=size)
        got = greedy_steps(inst, masks, items)
        want = scalar_steps(inst, masks, items)
        assert np.array_equal(got[0], want[0])
        assert got[1].tobytes() == want[1].tobytes()
        assert np.array_equal(got[2], want[2])
        assert ((masks >> items & 1) != 0).any()

    @pytest.mark.parametrize("m", (1, 2, 3, 4))
    @pytest.mark.parametrize("seed", range(4))
    def test_random_instances(self, m, seed):
        self.check(random_instance(7, m, seed), 500, seed)

    def test_ties(self):
        o = sl.make_budgeted_additive(2.0, [1.0] * 6)
        self.check(sl.Instance((o, o, o)), 500, 0)

    def test_without_value_tables(self):
        inst = random_instance(18, 3, 0, families=("coverage",
                                                   "budgeted_additive"))
        assert all(o._table is None for o in inst.oracles)
        self.check(inst, 200, 1)

    def test_nan_and_gains_below_minus_one(self):
        rng = np.random.default_rng(3)
        oracles = []
        for _ in range(3):
            t = rng.choice([np.nan, -3.0, -1.0, 0.0, 0.5, 2.0], size=16)
            oracles.append(RawTable(t))
        self.check(sl.Instance(tuple(oracles)), 2000, 4)


class TestGreedyAgainstScalarStep:
    """``greedy`` replays the scalar reference step on every order,
    repeated items, ties, NaN and gains below -1 included."""

    def check(self, inst, order):
        run = sl.greedy(inst, order)
        masks, marginals, choices = greedy_run(inst, order)
        assert run.order == tuple(order)
        assert run.allocation.masks == masks
        assert run.allocation.multiset == any(
            a & b for a, b in itertools.combinations(masks, 2))
        assert run.marginals == marginals and run.choices == choices
        assert all(type(g) is float for g in run.marginals)
        assert all(type(ell) is int for ell in run.choices)
        assert type(run.welfare) is float

    @pytest.mark.parametrize("m", (1, 2, 3, 4))
    def test_random_orders_with_repeats(self, m):
        rng = np.random.default_rng(m)
        for seed in range(4):
            inst = random_instance(7, m, seed)
            self.check(inst, rng.permutation(7).tolist())
            self.check(inst, rng.integers(0, 7, size=12).tolist())

    def test_repeated_item_goes_to_a_second_agent(self):
        inst = sl.Instance((sl.make_additive([5.0, 1.0]),
                            sl.make_additive([2.0, 1.0])))
        run = sl.greedy(inst, (0, 0, 0, 1))
        assert run.choices == (0, 1, 0, 0)
        assert run.marginals == (5.0, 2.0, 0.0, 1.0)
        assert run.allocation.multiset
        self.check(inst, (0, 0, 0, 1))

    def test_ties(self):
        o = sl.make_budgeted_additive(2.0, [1.0] * 6)
        inst = sl.Instance((o, o, o))
        for order in ((0, 1, 2, 3, 4, 5), (5, 5, 4, 0, 3, 3, 1, 2)):
            self.check(inst, order)
        # each tie goes to the lowest agent whose budget is not spent
        assert sl.greedy(inst, range(6)).choices == (0, 0, 1, 1, 2, 2)

    def test_nan_and_gains_below_minus_one(self):
        rng = np.random.default_rng(5)
        seen = set()
        for _ in range(20):
            inst = sl.Instance(tuple(
                RawTable(rng.choice([np.nan, -3.0, -1.0, 0.0, 0.5, 2.0],
                                    size=16)) for _ in range(3)))
            order = rng.integers(0, 4, size=8).tolist()
            self.check(inst, order)
            seen.update(sl.greedy(inst, order).marginals)
        assert -1.0 in seen

    def test_without_value_tables(self):
        inst = random_instance(18, 3, 0, families=("coverage",
                                                   "budgeted_additive"))
        assert all(o._table is None for o in inst.oracles)
        self.check(inst, np.random.default_rng(2).permutation(18).tolist())


class TestOptimal:
    def test_single_agent(self):
        o = sl.make_additive([1, 2])
        inst = sl.Instance((o,))
        alloc, value, opt_map = sl.optimal(inst)
        assert alloc.masks == (0b11,)
        assert value == 3.0
        assert opt_map == {0: 0, 1: 0}

    def test_or_indicator(self, or_indicator):
        alloc, value, opt_map = sl.optimal(or_indicator)
        assert value == 2.0
        assert opt_map == {0: 1, 1: 0}

    def test_additive_2x2(self, additive_2x2):
        _, value, opt_map = sl.optimal(additive_2x2)
        assert value == 6.0
        assert opt_map == {0: 0, 1: 1}

    def test_first_maximizer_is_canonical(self):
        # identical agents: every assignment ties, so the all-to-agent-0
        # assignment (code 0) must win
        o = sl.make_additive([1.0, 1.0])
        inst = sl.Instance((o, o))
        alloc, _, opt_map = sl.optimal(inst)
        assert opt_map == {0: 0, 1: 0}

    def test_restricted_item_subset(self, additive_2x2):
        alloc, value, opt_map = sl.optimal(additive_2x2, items=[1])
        assert value == 3.0
        assert opt_map == {1: 1}
        assert alloc.assigned_mask == 0b10

    def test_size_guard(self):
        o = sl.make_additive([1.0] * 15)
        inst = sl.Instance(tuple([o] * 4))   # 4^15 > 10^7
        with pytest.raises(SizeGuardError):
            sl.optimal(inst)

    def test_beats_random_assignments(self):
        rng = np.random.default_rng(0)
        for seed in range(3):
            inst = random_instance(5, 3, seed)
            _, opt_value, _ = sl.optimal(inst)
            for _ in range(350):
                masks = [0] * 3
                for j in range(5):
                    masks[int(rng.integers(0, 3))] |= 1 << j
                v = sl.welfare(inst, sl.Allocation(tuple(masks)))
                assert v <= opt_value + TOL


class TestClassicalGuarantee:
    @pytest.mark.parametrize("seed", range(8))
    def test_greedy_at_least_half_of_opt_every_order(self, seed):
        inst = random_instance(4, 2, seed)    # m^n = 16 <= 10^4
        _, opt_value, _ = sl.optimal(inst)
        for order in itertools.permutations(range(4)):
            run = sl.greedy(inst, order)
            assert run.welfare >= 0.5 * opt_value - TOL
