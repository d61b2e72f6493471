import itertools
import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import exact_reference as ref
import swmlab as sl
from swmlab import oracles
from swmlab.cli import main
from swmlab.core import marginal_gains
from swmlab.errors import AxiomViolationError, InvalidQueryError, SizeGuardError
from swmlab.instances import (ORACLE_GENERATORS, random_coverage_oracle,
                              random_family_instance)
from swmlab.oracles import (ABS_TOL, CHECK_CHUNK, TABLE_CHUNK, AxiomReport,
                            CoverageOracle, SecondOrderClass, TableOracle,
                            _first_violations, _gain_rows, _spread,
                            _subset_keys, as_mask, mask_items,
                            oracle_from_spec, subset_key)

TOL = 1e-12


def random_oracle(family, n, seed):
    return ORACLE_GENERATORS[family](n, np.random.default_rng(seed))


class TestValue:
    def test_duplicate_coverage(self):
        o = sl.make_coverage([1.0], [[0], [0]])
        assert sl.value(o, {0, 1}) == 1.0

    def test_empty_set_is_zero(self):
        for family in ORACLE_GENERATORS:
            o = random_oracle(family, 4, 0)
            assert sl.value(o, ()) == 0.0

    def test_budget_clamp(self):
        o = sl.make_budgeted_additive(5, [3, 4])
        assert sl.value(o, {0, 1}) == 5.0
        assert sl.value(o, {0}) == 3.0

    def test_out_of_range_item(self):
        o = sl.make_additive([1.0, 2.0])
        with pytest.raises(InvalidQueryError):
            sl.value(o, {0, 2})

    def test_deterministic(self):
        o = random_oracle("coverage", 5, 1)
        assert sl.value(o, {0, 3}) == sl.value(o, {3, 0})


class TestMarginalGain:
    def test_singleton_from_empty(self):
        o = random_oracle("b_matching", 4, 2)
        for e in range(4):
            assert sl.marginal_gain(o, (), e) == sl.value(o, {e})

    def test_additive(self):
        o = sl.make_additive([3, 4])
        assert sl.marginal_gain(o, {0}, 1) == 4.0

    def test_capacity_one_saturated(self):
        o = sl.make_b_matching(1, [5, 2])
        assert sl.marginal_gain(o, {0}, 1) == 0.0

    def test_element_already_present(self):
        o = random_oracle("coverage", 4, 3)
        assert sl.marginal_gain(o, {1, 2}, 1) == 0.0

    @pytest.mark.parametrize("mask", [-1, (1 << 40) | 1, 0b1001])
    def test_mask_outside_ground_set_holding_e(self, mask):
        o = sl.make_additive([1, 2, 3])
        with pytest.raises(InvalidQueryError) as want:
            o.value_mask(mask)
        with pytest.raises(InvalidQueryError) as got:
            o.marginal_gain_mask(mask, 0)
        assert str(got.value) == str(want.value)


class TestGainReduction:
    def test_empty_s_is_zero(self):
        o = random_oracle("cut", 4, 0)
        assert sl.gain_reduction(o, {0}, (), 2) == 0.0

    def test_additive_is_zero_everywhere(self):
        o = sl.make_additive([1.0, 2.5, 0.5])
        for amask in range(8):
            a = mask_items(amask)
            for smask in range(8):
                s = mask_items(smask)
                for e in range(3):
                    if (amask | smask) >> e & 1:
                        continue   # MG is degenerate once e is inside
                    assert sl.gain_reduction(o, a, s, e) == 0.0

    def test_coverage_overlap(self):
        o = sl.make_coverage([1.0, 1.0], [[0], [0], [0, 1]])
        assert sl.gain_reduction(o, (), {0}, 2) == 1.0

    def test_nonnegative_on_accepted_oracles(self):
        for family in ORACLE_GENERATORS:
            o = random_oracle(family, 4, 5)
            for amask in range(16):
                a = mask_items(amask)
                for smask in range(16):
                    s = mask_items(smask)
                    for e in range(4):
                        assert sl.gain_reduction(o, a, s, e) >= -TOL


class TestConstructors:
    def test_coverage_full_set(self):
        weights = [0.5, 1.5, 2.0]
        o = sl.make_coverage(weights, [[0], [1], [0, 1]])
        # element 2 is uncovered by every item
        assert sl.value(o, {0, 1, 2}) == 2.0

    def test_coverage_element_out_of_range(self):
        with pytest.raises(ValueError):
            sl.make_coverage([1.0], [[0, 1]])

    def test_b_matching_capacity_fits_all(self):
        o = sl.make_b_matching(2, [5, 2])
        assert sl.value(o, {0, 1}) == 7.0

    def test_b_matching_top_one(self):
        o = sl.make_b_matching(1, [5, 2])
        assert sl.value(o, {0, 1}) == 5.0

    def test_cut_single_sink_edge(self):
        o = sl.make_cut(1, [(0, -1, 2.5)])
        assert sl.value(o, {0}) == 2.5

    def test_cut_empty_graph(self):
        o = sl.make_cut(3, [])
        for mask in range(8):
            assert o.value_mask(mask) == 0.0

    def test_cut_two_unit_sink_edges(self):
        o = sl.make_cut(2, [(0, -1, 1.0), (1, -1, 1.0)])
        assert sl.value(o, {0, 1}) == 2.0

    def test_cut_rejects_non_monotone(self):
        # a pure item-item edge: adding the second endpoint closes the cut
        with pytest.raises(AxiomViolationError,
                           match="^cut construction is not monotone$") as err:
            sl.make_cut(2, [(0, 1, 1.0)])
        assert err.value.witness == ((0,), 1)

    def test_cut_rounding_accepted(self):
        """Items 0 and 3 share no edge, so MG(., 0) is constant in item 3
        in exact arithmetic; in floats it rises by about 1e-10, far above
        ``ABS_TOL`` but within the default tolerance, which scales with
        v(N) (about 2.5e6 here), so the cut is accepted."""
        edges = [(0, 1, 51182.1625), (0, -1, 955417.3267),
                 (1, -1, 229743.6514), (2, -1, 953784.5024),
                 (3, -1, 380648.3068)]
        o = sl.make_cut(4, edges)
        assert sl.check_axioms(o).passed
        assert sl.check_axioms(o, tol=ABS_TOL).witnesses == {
            "submodular": (frozenset(), frozenset({3}), 0)}

    def test_table_additive_identity(self):
        weights = [1.0, 2.0]
        vals = {subset_key(mask_items(m)):
                sum(weights[i] for i in mask_items(m)) for m in range(4)}
        o = sl.make_table(2, vals)
        assert sl.value(o, {0, 1}) == 3.0

    def test_table_rejects_superadditive_pair(self):
        vals = {"": 0, "0": 0.5, "1": 1, "2": 1, "0,1": 1, "0,2": 1,
                "1,2": 3, "0,1,2": 3}
        with pytest.raises(AxiomViolationError) as err:
            sl.make_table(3, vals)
        assert err.value.witness is not None

    def test_table_or_function_accepted(self):
        o = sl.make_table(2, {"": 0, "0": 1, "1": 1, "0,1": 1})
        assert sl.value(o, {0, 1}) == 1.0

    def test_table_missing_subset(self):
        with pytest.raises(ValueError, match="missing"):
            sl.make_table(2, {"": 0, "0": 1, "1": 1})

    def test_table_above_exhaustive_cap(self):
        vals = {key: 0.1 * m for m, key in enumerate(_subset_keys(17))}
        o = sl.make_table(17, vals)
        assert o.to_spec() == {"kind": "table", "n": 17, "table": vals}
        for mask in (0, 1, 0b10101010101010101, (1 << 17) - 1):
            assert o.value_mask(mask) == vals[subset_key(mask_items(mask))]

    @pytest.mark.parametrize("n", [12, 16, 17, 20])
    def test_table_above_cap_accepts_rounded_additive(self, n):
        """Decimal item weights: the values carry float rounding of more
        than ABS_TOL, which the default tolerance, scaled with v(N),
        absorbs in the exhaustive check and in the sampled scan alike."""
        weights = np.round(np.random.default_rng(n).random(n) * 1000, 4)
        masks = np.arange(1 << n)
        vals = sum(w * ((masks >> i) & 1) for i, w in enumerate(weights))
        assert sl.make_table(n, vals).n == n
        assert sl.make_table(n, 0.1 * masks).n == n

    @pytest.mark.parametrize("n", [17, 20])
    def test_table_above_exhaustive_cap_is_checked(self, n):
        """Normalization exactly, the rest by the sampled scan."""
        count = np.array([m.bit_count() for m in range(1 << n)], dtype=float)
        assert sl.make_table(n, count).n == n
        unnormalized = count.copy()
        unnormalized[0] = 1.0
        with pytest.raises(AxiomViolationError, match="'normalized'") as err:
            sl.make_table(n, unnormalized)
        assert err.value.witness["normalized"] == (1.0,)
        with pytest.raises(AxiomViolationError,
                           match=r"violates axioms: \['submodular'\]") as err:
            sl.make_table(n, count ** 2)
        a, s, e = err.value.witness["submodular"]
        assert sl.gain_reduction(TableOracle(n, count ** 2, check=False),
                                 a, s, e) < -TOL

    def test_table_planted_violation_above_cap(self):
        """+5 on the full set of 17 items: still monotone, not submodular;
        the seeded scan finds it."""
        n = 17
        vals = np.array([m.bit_count() for m in range(1 << n)], dtype=float)
        vals[-1] += 5
        with pytest.raises(AxiomViolationError,
                           match=r"violates axioms: \['submodular'\]") as err:
            sl.make_table(n, vals)
        a, s, e = err.value.witness["submodular"]
        assert a | s | {e} == set(range(n))
        assert sl.make_table(n, vals, check=False).n == n

    def test_table_key_spellings(self):
        canonical = sl.make_table(2, {"": 0, "0": 1, "1": 1, "0,1": 1.5})
        for vals in ({"": 0, "0": 1, " 1": 1, "1,0": 1.5},
                     {"": 0, "00": 1, "1,": 1, "1,,0": 1.5},
                     {(): 0, (0,): 1, (1,): 1, (1, 0): 1.5}):
            o = sl.make_table(2, vals)
            assert np.array_equal(o._table, canonical._table), vals

    def test_later_key_for_the_same_set_wins(self):
        """Two spellings of {0, 1}: the later one's value is kept,
        whichever spelling is canonical."""
        base = {"": 0, "0": 1, "1": 1}
        for pair, want in (({"0,1": 1, "1,0": 2}, 2.0),
                           ({"1,0": 2, "0,1": 1}, 1.0),
                           ({"0,1": 1.5, "1,0": 1.25, "1,,0": 2}, 2.0)):
            o = sl.make_table(2, {**base, **pair})
            assert o.value_mask(0b11) == want, pair

    def test_subset_keys_are_canonical(self):
        keys = _subset_keys(10)
        assert keys == [subset_key(mask_items(m)) for m in range(1 << 10)]

    def test_cut_loads_at_cap_and_is_refused_above(self):
        def edges(n):
            return [(i, -1, 1.0) for i in range(n)] + [(0, 1, 0.5)]
        o = sl.make_cut(16, edges(16))
        assert o.value_mask((1 << 16) - 1) == 16.0
        with pytest.raises(SizeGuardError, match="exceeds 16"):
            sl.make_cut(17, edges(17))

    def test_tabulate_roundtrip(self):
        o = random_oracle("coverage", 4, 7)
        t = sl.tabulate(o)
        for mask in range(16):
            assert t.value_mask(mask) == o.value_mask(mask)
        assert t._table is not o._table
        back = oracle_from_spec(t.to_spec())
        assert np.array_equal(back._table, o._table)

    def test_coverage_from_spec_passes_the_gate(self, monkeypatch,
                                                tmp_path, capsys):
        """A coverage oracle whose evaluator is broken (+0.5 on the full
        set of three items: still monotone, not submodular) is refused by
        ``oracle_from_spec``; ``make_coverage`` does not check."""
        real = CoverageOracle._values
        monkeypatch.setattr(CoverageOracle, "_values",
                            lambda self, masks: real(self, masks)
                            + 0.5 * (masks == 0b111))
        spec = {"kind": "coverage", "universe_weights": [1.0, 1.0, 1.0],
                "item_sets": [[0], [1], [2]]}
        with pytest.raises(AxiomViolationError,
                           match=r"^coverage violates axioms: "
                                 r"\['submodular'\]$") as err:
            oracle_from_spec(spec)
        assert list(err.value.witness) == ["submodular"]
        unchecked = sl.make_coverage(spec["universe_weights"],
                                     spec["item_sets"])
        assert unchecked.value_mask(0b111) == 3.5
        path = tmp_path / "broken.json"
        path.write_text(json.dumps({"agents": [spec]}))
        assert main(["classify", str(path)]) == 2
        assert "error: coverage violates axioms: ['submodular']" in \
            capsys.readouterr().err.splitlines()

    def test_table_from_array(self):
        arr = np.array([0.0, 1.0, 1.0, 1.5])
        o = sl.make_table(2, arr)
        assert np.array_equal(o._table, arr) and o._table is not arr
        with pytest.raises(ValueError, match="shape"):
            sl.make_table(2, arr[:3])
        with pytest.raises(ValueError, match="finite"):
            sl.make_table(2, np.array([0.0, 1.0, np.nan, 1.5]))
        with pytest.raises(AxiomViolationError):
            sl.make_table(2, np.array([0.0, 1.0, 1.0, 3.0]))

    def test_subclass_with_only_values(self):
        class Sqrt(sl.ValuationOracle):
            kind = "sqrt"

            def _values(self, masks):
                count = np.zeros(len(masks))
                for i in range(self.n):
                    count += masks >> i & 1
                return np.sqrt(count)

        o = Sqrt(5)
        assert o.value_mask(0b111) == 3 ** 0.5
        assert sl.check_axioms(o).passed
        big = Sqrt(40)                 # above the table cap: no table
        assert big._table is None
        assert big.value_mask((1 << 40) - 1) == 40 ** 0.5
        assert big.value_masks(np.array([[0, 0b1011]])).tolist() == \
            [[0.0, 3 ** 0.5]]
        assert sl.spot_check_axioms(big, samples=500).violation is None

    def test_subclass_without_evaluator_refused(self):
        class Empty(sl.ValuationOracle):
            pass

        with pytest.raises(NotImplementedError):
            Empty(3)                   # building the table needs _values
        with pytest.raises(NotImplementedError):
            Empty(20).value_mask(1)

    @pytest.mark.parametrize("make", [
        lambda n: sl.make_coverage([1.0], [[0]] * n),
        lambda n: sl.make_budgeted_additive(1.0, [1.0] * n),
        lambda n: sl.make_additive([1.0] * n),
        lambda n: sl.make_b_matching(2, [1.0] * n),
        lambda n: sl.make_cut(n, [(0, -1, 1.0)]),
        lambda n: sl.make_table(n, {}),
    ])
    def test_more_than_63_items_refused(self, make):
        """Every set is an int64 bitmask, so no family takes 64 items (cut
        and table oracles stop below that, at their own caps)."""
        with pytest.raises(SizeGuardError, match="n <= |exceeds"):
            make(64)


def _independent_axiom_check(oracle, tol=TOL):
    """Slower, differently-ordered re-verification of the three axioms."""
    n = oracle.n
    normalized = abs(oracle.value(())) <= tol
    monotone = True
    submodular = True
    subsets = [frozenset(c) for r in range(n + 1)
               for c in itertools.combinations(range(n), r)]
    for small in subsets:
        for big in subsets:
            if small <= big and oracle.value(small) > oracle.value(big) + tol:
                monotone = False
    for small in subsets:
        for big in subsets:
            if not small <= big:
                continue
            for e in range(n):
                if e in big:
                    continue
                if (sl.marginal_gain(oracle, small, e)
                        < sl.marginal_gain(oracle, big, e) - tol):
                    submodular = False
    return normalized, monotone, submodular


class TestCheckAxioms:
    @pytest.mark.parametrize("family", sorted(ORACLE_GENERATORS))
    @pytest.mark.parametrize("seed", range(5))
    def test_random_families_pass(self, family, seed):
        for n in (2, 4, 8):
            o = random_oracle(family, n, seed)
            assert sl.check_axioms(o).passed

    def test_cross_validated_against_independent_order(self):
        for family in sorted(ORACLE_GENERATORS):
            o = random_oracle(family, 4, 11)
            rep = sl.check_axioms(o)
            assert (rep.normalized, rep.monotone, rep.submodular) == \
                _independent_axiom_check(o)

    def test_bad_table_reports_witness(self):
        vals = {"": 0, "0": 1, "1": 1, "0,1": 3}
        o = TableOracle(2, vals, check=False)
        rep = sl.check_axioms(o)
        assert not rep.submodular
        a, s, e = rep.witnesses["submodular"]
        assert sl.gain_reduction(o, a, s, e) < -TOL

    def test_monotone_boundary_agrees_with_spot_check(self):
        """MG({0}, 1) = -1.0000889e-12 lies just below -tol, while
        v({0, 1}) < v({0}) - tol does not hold in floats: both checks read
        the first form and report the same witness at one explicit,
        absolute tolerance."""
        low = {"": 0.0, "0": 2.661302722922926, "1": 1.0,
               "0,1": 2.661302722921926}
        vals = dict(low)
        vals.update((f"{k},2" if k else "2", v + 1.0) for k, v in low.items())
        o = TableOracle(3, vals, check=False)
        assert o.marginal_gain_mask(1, 1) < -TOL
        assert not o.value_mask(3) < o.value_mask(1) - TOL
        rep = sl.check_axioms(o, tol=TOL)
        assert not rep.monotone
        assert rep.witnesses["monotone"] == (frozenset({0}), 1)
        scan = sl.spot_check_axioms(o, samples=2000, seed=0, tol=TOL)
        assert scan.violation == ("monotone", frozenset({0}), 1)

    def test_refuses_large_ground_set(self):
        o = sl.make_additive([1.0] * 17)
        with pytest.raises(SizeGuardError):
            sl.check_axioms(o)

    def test_spot_check_clean_and_dirty(self):
        clean = sl.make_additive([1.0] * 14)
        assert sl.spot_check_axioms(clean, samples=2000, seed=0).no_violation_found
        vals = {"": 0, "0": 1, "1": 1, "0,1": 3}
        dirty = TableOracle(2, vals, check=False)
        scan = sl.spot_check_axioms(dirty, samples=2000, seed=0)
        assert scan.violation is not None
        assert scan.violation[0] == "submodular"

    def test_spot_check_is_seed_deterministic(self):
        o = random_oracle("coverage", 6, 2)
        r1 = sl.spot_check_axioms(o, samples=500, seed=3)
        r2 = sl.spot_check_axioms(o, samples=500, seed=3)
        assert r1 == r2


def _reference_spot_check(oracle, samples, seed, tol=TOL):
    """The sampled check one sample at a time through ``marginal_gain_mask``,
    on the same seeded draws as ``spot_check_axioms``."""
    n = oracle.n
    rng = np.random.default_rng(seed)
    es = rng.integers(0, n, size=samples)
    fs = (es + rng.integers(1, n, size=samples)) % n
    sets = rng.integers(0, 1 << n, size=samples)
    for m, e, f in zip(sets.tolist(), es.tolist(), fs.tolist()):
        m &= ~((1 << e) | (1 << f))
        mg_a = oracle.marginal_gain_mask(m, e)
        if mg_a < -tol:
            return ("monotone", frozenset(mask_items(m)), e)
        if mg_a < oracle.marginal_gain_mask(m | (1 << f), e) - tol:
            return ("submodular", frozenset(mask_items(m)), frozenset((f,)), e)
    return None


class TestSpotCheck:
    def test_first_violation_matches_scalar_loop(self):
        pool = [_random_int_table(n, seed) for n in range(2, 7)
                for seed in range(8)]
        pool += [random_oracle(family, 20 if family != "cut" else 16, 3)
                 for family in sorted(ORACLE_GENERATORS)
                 if family != "table"]
        kinds = set()
        for o in pool:
            scan = sl.spot_check_axioms(o, samples=300, seed=5)
            assert scan.violation == _reference_spot_check(o, 300, 5), o
            kinds.add(scan.violation and scan.violation[0])
        assert kinds == {"monotone", "submodular", None}


def _unsliced_spot_check(oracle, samples, seed, tol=TOL):
    """The sampled check with every term evaluated on all samples at once:
    the index and the report of its first violation, or None."""
    n = oracle.n
    rng = np.random.default_rng(seed)
    e = rng.integers(0, n, size=samples)
    f = (e + rng.integers(1, n, size=samples)) % n
    ebit, fbit = 1 << e, 1 << f
    a = rng.integers(0, 1 << n, size=samples) & ~(ebit | fbit)
    values = oracle._values
    mg = values(a | ebit) - values(a)
    mono = mg < -tol
    bad = np.flatnonzero(
        mono | (mg < values(a | ebit | fbit) - values(a | fbit) - tol))
    if not bad.size:
        return None
    k = int(bad[0])
    aset, ek = frozenset(mask_items(int(a[k]))), int(e[k])
    if mono[k]:
        return k, ("monotone", aset, ek)
    return k, ("submodular", aset, frozenset((int(f[k]),)), ek)


class TestSpotCheckSlices:
    """Evaluating the draws slice by slice reports the violation that one
    evaluation of all of them reports."""

    @pytest.mark.parametrize("bad,bump,seed,kind", (
        (13936, 0.5, 0, "submodular"), (13722, -1.5, 2, "monotone")))
    def test_one_bad_set_past_the_first_slice(self, bad, bump, seed, kind):
        n = 14
        t = np.array([bin(x).count("1") for x in range(1 << n)], float)
        t[bad] += bump       # an additive table off at one set
        o = TableOracle(n, t, check=False)
        k, violation = _unsliced_spot_check(o, 30_000, seed)
        assert k >= TABLE_CHUNK and violation[0] == kind
        assert sl.spot_check_axioms(o, 30_000, seed).violation == violation

    def test_clean_coverage_without_table(self):
        o = random_oracle("coverage", 24, 1)
        assert o._table is None
        assert _unsliced_spot_check(o, 20_000, 2) is None
        assert sl.spot_check_axioms(o, 20_000, 2).violation is None


def _with_reference(family, n, seed):
    """A random oracle of the family and its scalar reference evaluator;
    a table's reference is the coverage oracle it was tabulated from."""
    if family == "table":
        cov = random_oracle("coverage", n, seed)
        return sl.tabulate(cov), lambda m: ref.raw_value(cov, m)
    o = random_oracle(family, n, seed)
    return o, lambda m: ref.raw_value(o, m)


class TestValuesMatchRawValue:
    """Each family's evaluator ``_values`` is bit-identical to the scalar
    reference ``exact_reference.raw_value``, and so is ``value_mask``,
    which reads it above the table cap."""

    @pytest.mark.parametrize("family", sorted(ORACLE_GENERATORS))
    def test_every_set_up_to_n12(self, family):
        for n in range(1, 13):
            o, raw = _with_reference(family, n, n)
            masks = np.arange(1 << n)
            expected = np.array([raw(m) for m in range(1 << n)])
            assert np.array_equal(o._values(masks), expected)
            assert np.array_equal(o._table, expected)

    @pytest.mark.parametrize("family,n", [
        (family, n) for family in sorted(ORACLE_GENERATORS)
        for n in (16, 17, 20, 40, 63)
        if n <= 16 or family not in ("cut", "table")])
    def test_random_sets_above_n12(self, family, n):
        o, raw = _with_reference(family, n, n)
        masks = np.random.default_rng(n).integers(0, 1 << n, size=2000)
        expected = np.array([raw(m) for m in masks.tolist()])
        assert np.array_equal(o._values(masks), expected)
        assert (o._table is None) == (n > 16)
        # one-set queries, bit for bit (a float's bytes tell -0.0 apart)
        got = [o.value_mask(m) for m in masks[:200].tolist()]
        assert np.array(got).tobytes() == expected[:200].tobytes()

    def test_coverage_universe_beyond_int64_element_masks(self):
        for n, masks in ((10, np.arange(1 << 10)),
                         (40, np.random.default_rng(0).integers(
                             0, 1 << 40, size=2000))):
            o = random_coverage_oracle(n, np.random.default_rng(n), 70)
            assert max(e for s in o.item_sets for e in s) >= 64
            expected = np.array([ref.raw_value(o, m)
                                 for m in masks.tolist()])
            assert np.array_equal(o._values(masks), expected)


class TestClassifySecondOrder:
    def test_additive_is_modular(self):
        assert sl.classify_second_order(sl.make_additive([1, 2, 3])).label \
            == "modular"

    @pytest.mark.parametrize("seed", range(10))
    def test_coverage_is_supermodular(self, seed):
        for n in (3, 4, 5, 6):
            o = random_oracle("coverage", n, seed)
            assert sl.classify_second_order(o).label == "supermodular"

    @pytest.mark.parametrize("seed", range(5))
    def test_cut_is_modular(self, seed):
        o = random_oracle("cut", 4, seed)
        assert sl.classify_second_order(o).label == "modular"

    def test_witness_replays(self):
        o = random_oracle("coverage", 4, 1)
        cls = sl.classify_second_order(o)
        assert cls.witness_supermodular is None
        a, b, s, e = cls.witness_submodular
        assert sl.gain_reduction(o, a, s, e) \
            > sl.gain_reduction(o, b, s, e) + TOL

    def test_modular_means_both_directions(self):
        cls = sl.classify_second_order(sl.make_additive([2.0, 1.0, 0.5]))
        assert cls.witness_supermodular is None
        assert cls.witness_submodular is None
        assert cls.is_second_order_supermodular

    def test_refuses_large_ground_set(self):
        with pytest.raises(SizeGuardError):
            sl.classify_second_order(sl.make_additive([1.0] * 17))

    def test_classifies_at_cap(self):
        o = random_oracle("coverage", 16, 0)
        assert sl.classify_second_order(o).label == "supermodular"

    @pytest.mark.parametrize("seed", [2, 3])
    def test_label_does_not_depend_on_the_unit(self, seed):
        """Universe weights times 1000, at one decimal: the third
        differences carry rounding above ABS_TOL, which the default
        tolerance, scaled with v(N), absorbs."""
        spec = random_coverage_oracle(8, np.random.default_rng(seed)).to_spec()
        o = sl.make_coverage([round(w * 1000, 1)
                              for w in spec["universe_weights"]],
                             spec["item_sets"])
        assert sl.classify_second_order(o).label == "supermodular"
        assert sl.classify_second_order(o, tol=ABS_TOL).label == "none"


class TestRSubmodular:
    def test_empty_s_trivial(self):
        o = random_oracle("coverage", 4, 0)
        assert sl.check_R_submodular(o, (), {1}).passed

    def test_additive_r_is_zero(self):
        o = sl.make_additive([1, 2, 3, 4])
        assert sl.check_R_submodular(o, {0}, {1}).passed

    def test_random_coverage_passes(self):
        o = random_oracle("coverage", 6, 5)
        assert sl.check_R_submodular(o, {0, 1}, {2}).passed

    def test_overlap_rejected(self):
        o = random_oracle("coverage", 4, 0)
        with pytest.raises(ValueError):
            sl.check_R_submodular(o, {0, 1}, {1})

    def test_all_disjoint_pairs_on_supermodular_oracle(self):
        o = random_oracle("coverage", 5, 9)
        assert sl.classify_second_order(o).is_second_order_supermodular
        for smask in range(32):
            for zmask in range(32):
                if smask & zmask:
                    continue
                rep = sl.check_R_submodular(o, mask_items(smask),
                                            mask_items(zmask))
                assert rep.passed, rep.to_dict()

    def test_runs_at_cap(self):
        o = random_oracle("coverage", 16, 0)
        assert sl.check_R_submodular(o, {0, 1}, {2}).passed

    def test_refuses_large_ground_set(self):
        with pytest.raises(SizeGuardError):
            sl.check_R_submodular(sl.make_additive([1.0] * 17), {0}, {1})


# ---------------------------------------------------------------------------
# Exhaustive enumerators over value queries, kept as references for the
# table-native checks at small n
# ---------------------------------------------------------------------------

def _reference_check_axioms(oracle, tol=TOL):
    n = oracle.n
    witnesses = {}
    normalized = abs(oracle.value_mask(0)) <= tol
    if not normalized:
        witnesses["normalized"] = (oracle.value_mask(0),)

    monotone = True
    for m in range(1 << n):
        vm = oracle.value_mask(m)
        for e in range(n):
            bit = 1 << e
            if m & bit:
                continue
            if oracle.value_mask(m | bit) - vm < -tol:
                monotone = False
                witnesses["monotone"] = (frozenset(mask_items(m)), e)
                break
        if not monotone:
            break

    submodular = True
    for m in range(1 << n):
        vm = oracle.value_mask(m)
        for e in range(n):
            ebit = 1 << e
            if m & ebit:
                continue
            mg_a = oracle.value_mask(m | ebit) - vm
            for f in range(n):
                fbit = 1 << f
                if f == e or m & fbit:
                    continue
                mg_af = (oracle.value_mask(m | ebit | fbit)
                         - oracle.value_mask(m | fbit))
                if mg_a < mg_af - tol:
                    submodular = False
                    witnesses["submodular"] = (frozenset(mask_items(m)),
                                               frozenset((f,)), e)
                    break
            if not submodular:
                break
        if not submodular:
            break
    return AxiomReport(normalized, monotone, submodular, witnesses)


def _reference_gr(oracle, amask, smask, e):
    return (oracle.marginal_gain_mask(amask, e)
            - oracle.marginal_gain_mask(amask | smask, e))


def _reference_classify_label(oracle, tol=TOL):
    """Compares GR(A, S, e) with GR(B, S, e) for every A subset of B, S
    disjoint from B and e outside both."""
    n = oracle.n
    full = (1 << n) - 1
    found_super = found_sub = False
    for b in range(1 << n):
        comp = full & ~b
        s = comp
        while s:
            rest = comp & ~s
            a = b
            while True:
                for e in mask_items(rest):
                    d = (_reference_gr(oracle, a, s, e)
                         - _reference_gr(oracle, b, s, e))
                    found_super |= d < -tol
                    found_sub |= d > tol
                if a == 0:
                    break
                a = (a - 1) & b
            s = (s - 1) & comp
        if found_super and found_sub:
            break
    return {(False, False): "modular", (False, True): "supermodular",
            (True, False): "submodular", (True, True): "none"}[
        found_super, found_sub]


def _reference_R_witness(oracle, smask, zmask, tol=TOL):
    """First (A, {f}, e) in ascending (A, e, f) order at which R is not
    submodular, or None."""
    domain = ((1 << oracle.n) - 1) & ~(smask | zmask)
    base = oracle.value_mask(smask | zmask) - oracle.value_mask(zmask)
    r = {a: base - (oracle.value_mask(smask | zmask | a)
                    - oracle.value_mask(zmask | a))
         for a in range(1 << oracle.n) if not a & ~domain}
    bits = mask_items(domain)
    for a in r:
        for e in bits:
            ebit = 1 << e
            if a & ebit:
                continue
            for f in bits:
                fbit = 1 << f
                if f == e or a & fbit:
                    continue
                if (r[a | ebit] - r[a]
                        < r[a | ebit | fbit] - r[a | fbit] - tol):
                    return (frozenset(mask_items(a)), frozenset((f,)), e)
    return None


def _random_int_table(n, seed):
    """Unchecked table of small random integers; most break the axioms."""
    rng = np.random.default_rng([n, seed])
    vals = {subset_key(mask_items(m)): int(rng.integers(0, 4)) if m
            else int(rng.integers(0, 2) * (seed % 4 == 0))
            for m in range(1 << n)}
    return TableOracle(n, vals, check=False)


def _reference_pool(nmax):
    """Random oracles of every family with n = 2..nmax, plus random
    integer tables with n = 2..min(nmax, 5)."""
    pool = [random_oracle(family, n, seed)
            for family in sorted(ORACLE_GENERATORS)
            for n in range(2, nmax + 1) for seed in range(3)]
    pool += [_random_int_table(n, seed)
             for n in range(2, min(nmax, 5) + 1) for seed in range(15)]
    return pool


def _face(cube, fixed):
    """View of the sets that contain item i exactly when ``fixed[i]`` is 1,
    over a value table reshaped to one axis per item (item i on axis
    n-1-i).  In C order it lists the sets outside ``fixed`` ascending, so
    its flat index k stands for the set ``_spread(k, fixed)`` plus the
    fixed items that are in."""
    idx = [slice(None)] * cube.ndim
    for i, bit in fixed.items():
        idx[cube.ndim - 1 - i] = bit
    return cube[tuple(idx)]


def reference_first_violations(t, n, tol):
    """The pair loop that ``_first_violations`` replaced: each pair {e, f}
    reads the four ``_face`` views of the table on the 2^(n-2) sets
    outside it.  Monotonicity is MG(A, e) < -tol, the rule of every axiom
    check."""
    cube = t.reshape((2,) * n)
    mono, sub = [], []
    for e in range(n):
        hits = np.flatnonzero(_face(cube, {e: 1}) - _face(cube, {e: 0})
                              < -tol)
        if hits.size:
            mono.append((_spread(int(hits[0]), (e,)), e))
    for e, f in itertools.combinations(range(n), 2):
        t_a, t_e, t_f, t_ef = (_face(cube, {e: x, f: y})
                               for x, y in ((0, 0), (1, 0), (0, 1), (1, 1)))
        for x, y, t_x, t_y in ((e, f, t_e, t_f), (f, e, t_f, t_e)):
            hits = np.flatnonzero(t_x - t_a < t_ef - t_y - tol)
            if hits.size:
                sub.append((_spread(int(hits[0]), (e, f)), x, y))
    mono = min(mono, default=None)
    if not sub:
        return mono, None
    a, e, f = min(sub)
    return mono, (a, f, e)


class TestGainRows:
    @pytest.mark.parametrize("family", sorted(ORACLE_GENERATORS))
    @pytest.mark.parametrize("n", [1, 2, 5, 9, 12])
    def test_rows_are_marginal_gains_bytes(self, family, n):
        """Every row is the subtraction ``core.marginal_gains`` makes."""
        o = random_oracle(family, n, 7)
        rows = _gain_rows(o._table, range(n))
        outside = np.arange(1 << (n - 1))
        for e in range(n):
            want = marginal_gains(o, _spread(outside, (e,)), 1 << e)
            assert rows[e].tobytes() == want.tobytes(), e


class TestFirstViolationsAgainstPairLoop:
    """The stacked-row scan returns the pair loop's (mono, sub) on every
    table, including the witnesses, at every tolerance."""

    TOLS = (0.0, ABS_TOL, -0.5)

    def assert_same(self, t, n, seen=None):
        """Compare at every tolerance; record which axioms broke."""
        for tol in self.TOLS:
            got = _first_violations(t, n, tol)
            assert got == reference_first_violations(t, n, tol), (n, tol)
            if seen is not None:
                seen.add(tuple(x is None for x in got))

    def test_reference_pool(self):
        seen = set()
        for o in _reference_pool(6):
            self.assert_same(o._table, o.n, seen)
        assert {(True, True), (True, False), (False, False)} <= seen

    def test_random_integer_tables(self):
        rng = np.random.default_rng(19)
        seen = set()
        for n in range(2, 11):
            for _ in range(4):
                self.assert_same(rng.integers(0, 4, 1 << n).astype(float), n,
                                 seen)
        assert (False, False) in seen

    @pytest.mark.parametrize("family", sorted(ORACLE_GENERATORS))
    def test_families_with_one_entry_shifted(self, family):
        rng = np.random.default_rng(len(family))
        seen = set()
        for n in range(2, 13):
            base = random_oracle(family, n, n)._table
            for shift in (0.3, -0.3, 1e-9, -1e-9):
                t = base.copy()
                t[rng.integers(0, 1 << n)] += shift
                self.assert_same(t, n, seen)
        assert len(seen) > 1

    @pytest.mark.parametrize("n", [14, 16])
    def test_planted_violations(self, n):
        count = np.array([m.bit_count() for m in range(1 << n)], dtype=float)
        planted = 0b111 << (n // 2)
        seen = set()
        for where, shift in ((planted, 0.5), (planted, -1.5),
                             ((1 << n) - 1, -2.0)):
            t = count.copy()
            t[where] += shift
            self.assert_same(t, n, seen)
        assert {(True, False), (False, False)} <= seen

    @staticmethod
    def geometric_table(n):
        """v(S) = 1 - 2^-|S|: strictly submodular, with gains 2^-(k+1) and
        second differences 2^-(k+2) at |S| = k, all exact in floats."""
        count = np.array([m.bit_count() for m in range(1 << n)])
        return 1 - np.ldexp(1.0, -count)

    @pytest.mark.parametrize("n", range(11, 17))
    def test_planted_at_every_position(self, n, monkeypatch):
        """For each bit position p of a row, one violation pair that is
        the first violation: at the first set of row p (v({p, p+1}) raised
        by 3/8, so MG({p+1}, p) > MG({}, p)) and at the last set of row 0
        (v(A) raised by 3/4 of the smallest second difference left intact,
        A = N - {0, p+1}).  Blocks of one row (``CHECK_CHUNK`` 1 and 64)
        put both at the edges of a block; the default packs up to 16 rows.
        Every block size returns the pair loop's answer."""
        base = self.geometric_table(n)
        full = (1 << n) - 1
        planted = []
        for p in range(n - 1):
            first = base.copy()
            first[3 << p] += 0.375
            a = full & ~(1 | 2 << p)
            last = base.copy()
            last[a] += 0.75 * 2.0 ** (2 - n)
            planted += [(first, (0, p + 1, p)), (last, (a, p + 1, 0))]
        cases = [(t, sub, tol) for t, sub in planted
                 for tol in (0.0, ABS_TOL)]
        cases.append((planted[0][0], None, -0.5))
        for t, sub, tol in cases:
            want = reference_first_violations(t, n, tol)
            if sub is not None:
                assert want[1] == sub
            for chunk in (1, 64, CHECK_CHUNK):
                monkeypatch.setattr(oracles, "CHECK_CHUNK", chunk)
                assert _first_violations(t, n, tol) == want, (n, chunk, tol)

    @pytest.mark.parametrize("chunk", [1, 64, CHECK_CHUNK])
    def test_random_tables_above_ten_items(self, chunk, monkeypatch):
        monkeypatch.setattr(oracles, "CHECK_CHUNK", chunk)
        rng = np.random.default_rng(23)
        for n in range(11, 17):
            t = rng.integers(0, 4, 1 << n).astype(float)
            self.assert_same(t, n)

    def test_R_against_the_reference_above_ten_items(self, monkeypatch):
        """Domains of 11 and 12 items: R of a coverage oracle is
        submodular; a budget breaks it, and so does a value raised on a
        set that holds Z but not S, deep inside the domain or next to its
        last set."""
        coverage = random_oracle("coverage", 13, 4)
        cases = [(coverage, 1, 2), (coverage, 1 << 12, 0),
                 (random_oracle("budgeted_additive", 13, 3), 1, 2)]
        for where in (0b0011011011010, 0b0111111111110):
            raised = coverage._table.copy()
            raised[where] += 0.5
            cases.append((TableOracle(13, raised, check=False), 1 << 12, 2))
        verdicts = set()
        for o, smask, zmask in cases:
            want = _reference_R_witness(o, smask, zmask)
            for chunk in (1, CHECK_CHUNK):
                monkeypatch.setattr(oracles, "CHECK_CHUNK", chunk)
                rep = sl.check_R_submodular(o, mask_items(smask),
                                            mask_items(zmask))
                assert (rep.passed, rep.witness) == (want is None, want)
            verdicts.add(want is None)
        assert verdicts == {True, False}

    def test_domains_of_zero_and_one_items(self):
        for t in (np.array([0.0]), np.array([2.0])):
            self.assert_same(t, 0)
        for t in (np.array([0.0, 1.0]), np.array([0.0, -1.0])):
            self.assert_same(t, 1)
        o = random_oracle("coverage", 3, 0)
        for s, z in (({0}, {1, 2}), ({0}, {1}), ((), {0, 1}), ((), (0, 1, 2))):
            rep = sl.check_R_submodular(o, s, z)
            assert rep.passed and rep.witness is None
            assert _reference_R_witness(o, as_mask(s, 3), as_mask(z, 3)) \
                is None

    def test_memory_at_cap(self):
        """At n=16 the scan's temporaries, with the masks of every bit
        position built cold, stay within 1.5 MB beside the 0.5 MB table:
        a stack of all 16 gain rows alone would take 4 MB."""
        o = random_oracle("coverage", 16, 0)
        oracles._bit_clear_masks.clear()
        tracemalloc.start()
        try:
            assert sl.check_axioms(o).passed
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 3 << 19


def reference_classify_second_order(oracle, tol):
    """The triple loop that the stacked-row classifier replaced, kept
    unchanged: each triple f < s < e reads the eight ``_face`` views of the
    table on the 2^(n-3) sets outside it."""
    n = oracle.n
    cube = oracle._table.reshape((2,) * n)
    wit = [None, None]
    for f, s, e in itertools.combinations(range(n), 3):
        def t(x, y, z):
            return _face(cube, {f: x, s: y, e: z})
        d = (((t(0, 0, 1) - t(0, 0, 0)) - (t(0, 1, 1) - t(0, 1, 0)))
             - ((t(1, 0, 1) - t(1, 0, 0)) - (t(1, 1, 1) - t(1, 1, 0))))
        for k, bad in enumerate((d < -tol, d > tol)):
            hits = np.flatnonzero(bad)
            if wit[k] is None and hits.size:
                a = _spread(int(hits[0]), (f, s, e))
                wit[k] = (frozenset(mask_items(a)),
                          frozenset(mask_items(a | 1 << f)),
                          frozenset((s,)), e)
        if None not in wit:
            break
    label = {(False, False): "modular", (False, True): "supermodular",
             (True, False): "submodular", (True, True): "none"}[
        wit[0] is not None, wit[1] is not None]
    return SecondOrderClass(label, *wit)


class TestClassifyAgainstTripleLoop:
    """The stacked-row classifier returns the triple loop's label and both
    witnesses on every table, at every tolerance."""

    TOLS = (0.0, ABS_TOL, -0.5)

    def assert_same(self, t, n, seen):
        """Compare at every tolerance; record the labels seen."""
        o = TableOracle(n, t, check=False)
        for tol in self.TOLS:
            got = sl.classify_second_order(o, tol)
            assert got == reference_classify_second_order(o, tol), (n, tol)
            seen.add(got.label)

    def test_reference_pool(self):
        seen = set()
        for o in _reference_pool(6):
            self.assert_same(o._table, o.n, seen)
        assert seen == {"modular", "supermodular", "submodular", "none"}

    def test_random_integer_tables(self):
        rng = np.random.default_rng(20)
        seen = set()
        for n in range(1, 11):
            for _ in range(4):
                self.assert_same(rng.integers(0, 4, 1 << n).astype(float), n,
                                 seen)
        assert {"modular", "none"} <= seen

    @pytest.mark.parametrize("family", sorted(ORACLE_GENERATORS))
    def test_families_with_one_entry_shifted(self, family):
        rng = np.random.default_rng(len(family))
        seen = set()
        for n in range(3, 13):
            base = random_oracle(family, n, n)._table
            for shift in (0.3, -0.3, 1e-9, -1e-9):
                t = base.copy()
                t[rng.integers(0, 1 << n)] += shift
                self.assert_same(t, n, seen)
        assert len(seen) > 1

    @pytest.mark.parametrize("n", [14, 16])
    def test_planted_violations(self, n):
        count = np.array([m.bit_count() for m in range(1 << n)], dtype=float)
        planted = 0b111 << (n // 2)
        seen = set()
        for where, shift in ((0, 0.0), (planted, 0.5), (planted, -1.5),
                             ((1 << n) - 1, -2.0), (0b1011, 0.25)):
            t = count.copy()
            t[where] += shift
            self.assert_same(t, n, seen)
        assert {"modular", "submodular", "none"} <= seen

    def test_memory_at_cap(self):
        """At n=16 the marginal-gain rows (4 MB) and one pair's
        differences stay under 8 MB beside the 0.5 MB table."""
        o = random_oracle("coverage", 16, 0)
        tracemalloc.start()
        try:
            assert sl.classify_second_order(o).label == "supermodular"
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 << 20


class TestAgainstReference:
    def test_axiom_reports_match(self):
        pool = _reference_pool(6)
        assert any(not sl.check_axioms(o).passed for o in pool)
        for o in pool:
            assert sl.check_axioms(o) == _reference_check_axioms(o), o

    def test_labels_match(self):
        labels = set()
        for o in _reference_pool(6):
            label = sl.classify_second_order(o).label
            assert label == _reference_classify_label(o), o
            labels.add(label)
        assert labels == {"modular", "supermodular", "submodular", "none"}

    def test_witnesses_replay(self):
        for o in _reference_pool(6):
            cls = sl.classify_second_order(o)
            for wit, sign in ((cls.witness_supermodular, -1),
                              (cls.witness_submodular, 1)):
                if wit is None:
                    continue
                a, b, s, e = wit
                assert a <= b and len(b - a) == 1 and len(s) == 1
                d = sl.gain_reduction(o, a, s, e) - sl.gain_reduction(o, b, s, e)
                assert sign * d > TOL

    def test_R_verdicts_match_for_every_disjoint_pair(self):
        verdicts = set()
        for o in _reference_pool(4):
            for smask in range(1 << o.n):
                for zmask in range(1 << o.n):
                    if smask & zmask:
                        continue
                    rep = sl.check_R_submodular(o, mask_items(smask),
                                                mask_items(zmask))
                    witness = _reference_R_witness(o, smask, zmask)
                    assert rep.passed == (witness is None)
                    assert rep.witness == witness
                    verdicts.add(rep.passed)
        assert verdicts == {True, False}


@given(weights=st.lists(st.floats(0, 100, allow_nan=False), min_size=1,
                        max_size=6),
       budget=st.floats(0, 300, allow_nan=False))
@settings(max_examples=50, deadline=None)
def test_budgeted_additive_always_passes_axioms(weights, budget):
    o = sl.make_budgeted_additive(budget, weights)
    assert sl.check_axioms(o).passed


@given(weights=st.lists(st.floats(0, 100, allow_nan=False), min_size=1,
                        max_size=6),
       capacity=st.integers(1, 6))
@settings(max_examples=50, deadline=None)
def test_b_matching_always_passes_axioms(weights, capacity):
    o = sl.make_b_matching(capacity, weights)
    assert sl.check_axioms(o).passed
