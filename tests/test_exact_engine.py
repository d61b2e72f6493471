"""The array-native exact engine reports the bytes and state counts of the
reference engine in ``exact_reference``, which walks one greedy state and
one transition at a time."""
import importlib
import itertools
import json

import numpy as np
import pytest

import exact_reference as ref
import swmlab as sl
from swmlab import core
from swmlab.errors import SizeGuardError
from swmlab.instances import random_family_instance, random_instance

gain = importlib.import_module("swmlab.gain")   # the package exports gain()
FAMILIES = ("coverage", "budgeted_additive", "b_matching", "cut", "table")


def report_bytes(report):
    return json.dumps(report.to_dict(), sort_keys=True)


def assert_same(got, want):
    assert report_bytes(got) == report_bytes(want)
    assert got.states == want.states


def equal_additive(n, m):
    """m identical additive agents with equal weights: every step ties."""
    return sl.Instance(tuple(sl.make_additive([1.0] * n) for _ in range(m)))


def saturated_budgets(n, m):
    """Budgeted agents that fill up after one item, so most marginals tie
    at zero."""
    return sl.Instance(tuple(sl.make_budgeted_additive(1.0, [1.0] * n)
                             for _ in range(m)))


def mixed(n, m):
    """A random instance mixing every oracle family."""
    return random_instance(n, m, n * m, families=FAMILIES)


def check_every_suite(inst):
    """Each exact suite on a fresh context (the reference has no shared
    state pass), and every suite again on one shared context."""
    n = inst.n
    suites = [(sl.expected_trace, ref.expected_trace),
              (sl.verify_lemmas, ref.verify_lemmas)]
    if n % 4 == 0:
        suites.append((sl.verify_eq1, ref.verify_eq1))
    if n % 2 == 0:
        suites.append((sl.verify_second_half, ref.verify_second_half))
    shared = sl.GainContext(inst)
    for fast, slow in suites:
        want = slow(sl.GainContext(inst))
        assert_same(fast(sl.GainContext(inst)), want)
        assert_same(fast(shared), want)
    assert_same(sl.conjecture_check(inst), ref.conjecture_check(inst))


@pytest.mark.parametrize("m", (1, 2, 3, 4))
@pytest.mark.parametrize("n", range(1, 9))
@pytest.mark.parametrize("kind", FAMILIES)
def test_suites_match_reference(kind, n, m):
    check_every_suite(random_family_instance(kind, n, m, 10 * n + m))


@pytest.mark.parametrize("n,m", ((3, 2), (6, 3), (8, 3)))
def test_mixed_families_match_reference(n, m):
    check_every_suite(random_instance(n, m, n * m, families=FAMILIES))


@pytest.mark.parametrize("make", (equal_additive, saturated_budgets))
@pytest.mark.parametrize("n,m", ((2, 2), (4, 3), (5, 4), (8, 2), (8, 4)))
def test_ties_match_reference(make, n, m):
    check_every_suite(make(n, m))


def test_or_indicator_matches_reference(or_indicator):
    check_every_suite(or_indicator)


def test_eq1_row_wider_than_63_bits():
    """n=8, m=4: the joint row is 2m+1 = 9 masks of 8 bits, 72 bits, so no
    single int64 key could hold it; the merge must still keep every joint
    state apart."""
    inst = random_instance(8, 4, 5, families=FAMILIES)
    assert (2 * inst.m + 1) * inst.n == 72
    assert_same(sl.verify_eq1(sl.GainContext(inst)),
                ref.verify_eq1(sl.GainContext(inst)))


def test_chain_batches_change_no_byte(monkeypatch):
    """eq1 and the second half run their chains in batches of consecutive
    half states; any batch size gives the reference's bytes."""
    inst = random_instance(8, 3, 4, families=FAMILIES)
    for fast, slow in ((sl.verify_eq1, ref.verify_eq1),
                       (sl.verify_second_half, ref.verify_second_half)):
        want = slow(sl.GainContext(inst))
        for batch in (1, 30, 200, 10 ** 6):
            monkeypatch.setattr(gain, "CHAIN_BATCH", batch)
            assert_same(fast(sl.GainContext(inst)), want)


@pytest.mark.parametrize("tol", (-10.0, -0.02, 0.0))
@pytest.mark.parametrize("seed", range(3))
def test_lemma_witnesses_match_reference_and_replay(seed, tol):
    """A tight tolerance forces per-step violations: every transition at
    -10, a share of them at -0.02, rounding-level ones at 0.  The
    witnesses come in the reference's order, and each replays through
    the reference trace loop."""
    inst = random_instance(5 + seed % 2, 3, seed, families=FAMILIES)
    got = sl.verify_lemmas(sl.GainContext(inst), tol=tol)
    assert_same(got, ref.verify_lemmas(sl.GainContext(inst), tol=tol))
    ctx = sl.GainContext(inst)
    steps = [v for v in got.violations
             if v[0] in ("step_lower_bound", "step_reduction")]
    assert steps or tol == 0.0
    for kind, order, i, w, bound in steps:
        t = ref.trace_one(ctx, order)
        assert t.w[i] == w
        if kind == "step_lower_bound":
            assert t.gain_before[i] == bound
        else:
            assert t.a[i] + t.b[i] == bound


@pytest.mark.parametrize("seed", (8, 9))
def test_lemma_witnesses_at_the_cap(seed):
    """n=8, m=3 at tol=-10: every transition of the pass gives one witness
    of each kind, its order starts with the first-occurrence path to the
    transition's state, the witnesses equal the reference's, and each
    replays through the reference trace loop."""
    inst = random_instance(8, 3, seed, families=FAMILIES)
    ctx = sl.GainContext(inst)
    got = sl.verify_lemmas(ctx, tol=-10.0)
    assert_same(got, ref.verify_lemmas(sl.GainContext(inst), tol=-10.0))
    steps = [v for v in got.violations
             if v[0] in ("step_lower_bound", "step_reduction")]
    transitions = sum(len(step[0]) for step in ctx._pass.steps)
    assert len(steps) == 2 * transitions
    assert len({v[1][:v[2] + 1] for v in steps}) == transitions
    for kind, order, i, w, bound in steps:
        assert sorted(order) == list(range(8))
        assert list(order[i + 1:]) == sorted(order[i + 1:])
        t = ref.trace_one(ctx, order)
        assert t.w[i] == w
        if kind == "step_lower_bound":
            assert t.gain_before[i] == bound
        else:
            assert t.a[i] + t.b[i] == bound


@pytest.mark.parametrize("n", (2, 4, 6))
def test_identity_violations_match_reference(n):
    """A negative identity tolerance fails both prefix identities, so the
    report lists their sides as the reference does."""
    inst = random_instance(n, 3, n, families=FAMILIES)
    got = sl.verify_lemmas(sl.GainContext(inst), identity_tol=-1.0)
    assert not got.prefix_identities_ok
    assert_same(got, ref.verify_lemmas(sl.GainContext(inst),
                                       identity_tol=-1.0))


def test_state_pass_runs_once_per_context(monkeypatch):
    calls = []
    real = gain._state_pass
    monkeypatch.setattr(gain, "_state_pass",
                        lambda ctx: calls.append(1) or real(ctx))
    ctx = sl.GainContext(random_instance(8, 2, 3, families=FAMILIES))
    reports = [sl.verify_lemmas(ctx), sl.verify_second_half(ctx),
               sl.verify_eq1(ctx), sl.expected_trace(ctx)]
    assert len(calls) == 1
    fresh = [sl.verify_lemmas, sl.verify_second_half, sl.verify_eq1,
             sl.expected_trace]
    for rep, suite in zip(reports, fresh):
        assert_same(rep, suite(sl.GainContext(ctx.instance)))


def test_size_guard_leaves_nothing_cached():
    ctx = sl.GainContext(sl.Instance((sl.make_additive([1.0] * 9),)))
    for _ in range(2):
        with pytest.raises(SizeGuardError, match="capped at n=8"):
            sl.verify_lemmas(ctx)


class TestFirstOccurrence:
    def test_merges_in_first_occurrence_order(self):
        rows = np.array([[3, 1, 3, 2, 1, 3], [0, 5, 0, 0, 5, 1]])
        inv, keep = gain._first_occurrence(rows)
        assert keep.tolist() == [0, 1, 3, 5]
        assert inv.tolist() == [0, 1, 0, 2, 1, 3]

    def test_matches_dict_on_random_rows(self):
        rng = np.random.default_rng(0)
        for width in (1, 2, 9):
            rows = rng.integers(0, 3, (width, 400)).astype(np.int64)
            seen = {}
            want = [seen.setdefault(col, len(seen))
                    for col in zip(*rows.tolist())]
            inv, keep = gain._first_occurrence(rows)
            assert inv.tolist() == want
            assert [tuple(c) for c in rows[:, keep].T.tolist()] == list(seen)

    def test_rows_differing_only_in_high_bits(self):
        top = np.int64(1) << np.int64(62)
        rows = np.array([[top, 0, top, top], [1, 1, 1, 0]], dtype=np.int64)
        inv, keep = gain._first_occurrence(rows)
        assert inv.tolist() == [0, 1, 0, 2] and keep.tolist() == [0, 1, 3]


class TestOptimal:
    """The chunked optimum returns the reference loop's first maximizer."""

    @pytest.mark.parametrize("kind", FAMILIES)
    @pytest.mark.parametrize("n,m", ((1, 3), (4, 2), (6, 3), (8, 3)))
    def test_matches_reference_loop(self, kind, n, m):
        inst = random_family_instance(kind, n, m, n + m)
        assert core.optimal(inst) == ref.optimal(inst)

    @pytest.mark.parametrize("make", (equal_additive, saturated_budgets))
    def test_ties_keep_first_maximizer(self, make):
        inst = make(6, 3)
        assert core.optimal(inst) == ref.optimal(inst)
        assert core.optimal(inst, items=[4, 1, 2]) == \
            ref.optimal(inst, items=[4, 1, 2])

    @pytest.mark.parametrize("chunk", (1, 2, 7, 81))
    def test_chunk_boundaries(self, monkeypatch, chunk):
        monkeypatch.setattr(core, "OPTIMAL_CHUNK", chunk)
        for inst in (random_instance(4, 3, 2, families=FAMILIES),
                     saturated_budgets(4, 3)):
            for items in (None, [3, 0], []):
                assert core.optimal(inst, items=items) == \
                    ref.optimal(inst, items=items)

    @pytest.mark.parametrize("m", (2, 3, 4))
    @pytest.mark.parametrize("make", (equal_additive, saturated_budgets,
                                      mixed))
    def test_chunk_boundaries_in_the_suites(self, monkeypatch, make, m):
        """eq1's S2 optima and the second half's best assignments come from
        the optimum's chunked search: at any chunk size the suites give
        the reference's bytes and state counts."""
        cases = [(sl.verify_eq1, ref.verify_eq1, n) for n in (4, 8)] + \
            [(sl.verify_second_half, ref.verify_second_half, n)
             for n in (4, 6)]
        for fast, slow, n in cases:
            inst = make(n, m)
            want = slow(sl.GainContext(inst))
            for chunk in (1, 2, 7):
                monkeypatch.setattr(core, "OPTIMAL_CHUNK", chunk)
                assert_same(fast(sl.GainContext(inst)), want)
            monkeypatch.undo()

    @pytest.mark.parametrize("chunk", (2, 1 << 16))
    @pytest.mark.parametrize("n,m", ((4, 2), (4, 4), (8, 3), (8, 4)))
    @pytest.mark.parametrize("make", (equal_additive, saturated_budgets,
                                      mixed))
    def test_batched_search_matches_optimal(self, monkeypatch, make, n, m,
                                            chunk):
        """One search over every S2 set of size n/4, as eq1 runs it,
        returns per set the masks and value of ``optimal`` on its items in
        ascending order."""
        monkeypatch.setattr(core, "OPTIMAL_CHUNK", chunk)
        inst = make(n, m)
        sets = list(itertools.combinations(range(n), n // 4))
        masks, values = core._best_assignments(
            m, np.left_shift(1, np.array(sets, dtype=np.int64)),
            lambda h: core._welfares(inst, h))
        for row, items in enumerate(sets):
            alloc, value, _ = core.optimal(inst, items=items)
            assert tuple(masks[:, row].tolist()) == alloc.masks
            assert values[row] == value

    def test_every_subset_of_items(self):
        inst = random_instance(5, 3, 9, families=FAMILIES)
        for k in range(6):
            for items in itertools.permutations(range(5), k):
                assert core.optimal(inst, items=items) == \
                    ref.optimal(inst, items=items)
