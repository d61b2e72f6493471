import json
import math
import re
import tempfile
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import swmlab as sl
from swmlab.cli import main
from swmlab.errors import AxiomViolationError, InstanceFormatError, SwmlabError
from swmlab.instances import instance_from_spec
from swmlab.oracles import ABS_TOL, TableOracle, _subset_keys, mask_items

NAN, INF = math.nan, math.inf
BUDGETED = {"kind": "budgeted_additive", "budget": 1.0, "weights": [0.5, 0.7]}


def _exits_2(spec) -> bool:
    with tempfile.TemporaryDirectory() as d:
        path = Path(d) / "bad.json"
        path.write_text(json.dumps(spec))
        return main(["classify", str(path)]) == 2


@pytest.mark.parametrize("entry", [7, None, "agent", [BUDGETED]])
def test_non_object_agent_is_format_error(entry):
    spec = {"agents": [BUDGETED, entry]}
    with pytest.raises(InstanceFormatError, match="agent 1"):
        instance_from_spec(spec)
    assert _exits_2(spec)


@pytest.mark.parametrize("bad", [NAN, INF, -INF])
@pytest.mark.parametrize("agent", [
    lambda x: {"kind": "budgeted_additive", "budget": 1.0, "weights": [x, 1]},
    lambda x: {"kind": "budgeted_additive", "budget": x, "weights": [1, 1]},
    lambda x: {"kind": "b_matching", "capacity": 1, "weights": [1, x]},
    lambda x: {"kind": "coverage", "universe_weights": [1, x],
               "item_sets": [[0], [1]]},
    lambda x: {"kind": "cut", "n": 2, "edges": [[0, -1, 1], [1, -1, x]]},
    lambda x: {"kind": "table", "n": 1, "table": {"": 0, "0": x}},
], ids=["weight", "budget", "b_matching-weight", "universe-weight",
        "edge-weight", "table-value"])
def test_non_finite_numbers_rejected(agent, bad):
    spec = {"agents": [agent(bad)]}
    with pytest.raises(InstanceFormatError, match="finite"):
        instance_from_spec(spec)
    assert _exits_2(spec)


def test_oracle_constructors_reject_nan():
    with pytest.raises(ValueError):
        sl.make_additive([1.0, NAN])
    with pytest.raises(ValueError):
        sl.make_budgeted_additive(NAN, [1.0])
    with pytest.raises(ValueError):
        sl.make_coverage([NAN], [[0]])
    with pytest.raises(ValueError):
        sl.make_cut(1, [(0, -1, NAN)])
    with pytest.raises(ValueError):
        sl.make_table(1, {"": 0.0, "0": NAN})


def test_oracle_constructors_take_real_numbers_only():
    """NumPy and ``Fraction`` reals are read as floats; bools, NumPy bools
    and numeric strings are refused."""
    o = sl.make_budgeted_additive(np.float64(2.5),
                                  [np.int64(1), Fraction(1, 2), 1.25])
    assert o.to_spec() == {"kind": "budgeted_additive", "budget": 2.5,
                           "weights": [1.0, 0.5, 1.25]}
    for bad in (True, np.bool_(False), "0.5", None):
        with pytest.raises(ValueError, match="must be a real number"):
            sl.make_budgeted_additive(2, [bad, 1])


@pytest.mark.parametrize("capacity", [1.7, 2.0, "2", True])
def test_non_integer_capacity_rejected(capacity):
    spec = {"agents": [{"kind": "b_matching", "capacity": capacity,
                        "weights": [0.5, 0.7]}]}
    with pytest.raises(InstanceFormatError, match="capacity"):
        instance_from_spec(spec)
    assert _exits_2(spec)


@pytest.mark.parametrize("agent", [
    {"kind": "cut", "n": 2.5, "edges": [[0, -1, 1], [1, -1, 1]]},
    {"kind": "cut", "n": True, "edges": [[0, -1, 1]]},
    {"kind": "cut", "n": 2, "edges": [[0, -1, 1], [1.5, -1, 1]]},
    {"kind": "coverage", "universe_weights": [1, 1], "item_sets": [[0.7]]},
    {"kind": "coverage", "universe_weights": [1, 1], "item_sets": [["1"]]},
    {"kind": "table", "n": 2.5,
     "table": {"": 0, "0": 1, "1": 1, "0,1": 1}},
    {"kind": "table", "n": True, "table": {"": 0, "0": 1}},
], ids=["cut-n", "cut-n-bool", "cut-vertex", "coverage-element",
        "coverage-element-string", "table-n", "table-n-bool"])
def test_non_integer_counts_and_indices_rejected(agent):
    spec = {"agents": [agent]}
    with pytest.raises(InstanceFormatError, match="must be an integer"):
        instance_from_spec(spec)
    assert _exits_2(spec)


@pytest.mark.parametrize("field, value", [
    ("n", True), ("n", 1.0), ("m", 1.0), ("m", "1")])
def test_non_integer_instance_counts_rejected(field, value):
    spec = {"n": 1, "m": 1, "agents": [{"kind": "budgeted_additive",
                                        "budget": 1.0, "weights": [0.5]}]}
    spec[field] = value
    with pytest.raises(InstanceFormatError, match="must be an integer"):
        instance_from_spec(spec)
    assert _exits_2(spec)


@pytest.mark.parametrize("field, value, message", [
    ("version", True, "unsupported format version True"),
    ("version", 1.0, "unsupported format version 1.0"),
    ("version", "1", "unsupported format version '1'"),
    ("version", 2, "unsupported format version 2"),
    ("name", 7, "field 'name' must be a string, got 7"),
    ("name", ["a"], "field 'name' must be a string, got ['a']"),
    ("seed", "x", "field 'seed' must be an integer, got 'x'"),
    ("seed", 1.5, "field 'seed' must be an integer, got 1.5"),
    ("seed", True, "field 'seed' must be an integer, got True")])
def test_malformed_header_fields_rejected(field, value, message):
    """Only the integer 1 is version 1; a name is a string and a seed an
    integer, and either may be null."""
    spec = {"agents": [BUDGETED], field: value}
    with pytest.raises(InstanceFormatError, match=re.escape(message)):
        instance_from_spec(spec)
    assert _exits_2(spec)


def test_null_name_and_seed_accepted():
    instance = instance_from_spec({"version": 1, "name": None, "seed": None,
                                   "agents": [BUDGETED]})
    assert (instance.name, instance.seed) == (None, None)
    instance = instance_from_spec({"name": "x", "seed": -3,
                                   "agents": [BUDGETED]})
    assert (instance.name, instance.seed) == ("x", -3)


def test_table_must_be_an_object():
    spec = {"agents": [{"kind": "table", "table": [0, 1]}]}
    with pytest.raises(InstanceFormatError, match="table"):
        instance_from_spec(spec)


@pytest.mark.parametrize("table, n", [
    ({"": 0, "0": 1}, 1),
    ({"": 0, "0": 1, "1": 1, "0,1": 1}, 2),
])
def test_table_ground_size_inferred_from_keys(table, n):
    inst = instance_from_spec({"agents": [{"kind": "table", "table": table}]})
    assert inst.n == n


def test_table_tuple_keys_load_with_n_inferred():
    """Keys that ``make_table`` accepts infer n as JSON string keys do."""
    table = {(): 0.0, (0,): 1.0, (1,): 1.0, (0, 1): 1.5}
    inst = instance_from_spec({"agents": [{"kind": "table", "table": table}]})
    assert inst.n == 2
    assert inst.oracles[0]._table.tolist() == [0.0, 1.0, 1.0, 1.5]
    strings = {"": 0.0, "0": 1.0, "1": 1.0, "0,1": 1.5}
    same = instance_from_spec({"agents": [{"kind": "table",
                                           "table": strings}]})
    assert same.oracles[0]._table.tolist() == [0.0, 1.0, 1.0, 1.5]


@pytest.mark.parametrize("key", [1, None, 2.5])
def test_table_unreadable_key_is_format_error(key):
    spec = {"agents": [{"kind": "table", "table": {"": 0.0, key: 1.0}}]}
    with pytest.raises(InstanceFormatError,
                       match=f"agent 0: cannot read subset key {key!r}"):
        instance_from_spec(spec)


def test_table_unreadable_string_key_exits_2():
    spec = {"agents": [{"kind": "table", "table": {"": 0.0, "0,x": 1.0}}]}
    with pytest.raises(InstanceFormatError,
                       match="agent 0: cannot read subset key '0,x'"):
        instance_from_spec(spec)
    assert _exits_2(spec)


def test_table_without_item_keys_defaults_to_one_item():
    with pytest.raises(InstanceFormatError, match="missing 1 subsets"):
        instance_from_spec({"agents": [{"kind": "table", "table": {"": 0}}]})


@pytest.mark.parametrize("families", [("table",), ("table", "coverage"),
                                      ("cut",), ("cut", "coverage")])
def test_each_agent_checked_once_on_load(families, monkeypatch):
    """Every agent passes the axiom gate once: a table or cut agent in its
    constructor, every other agent in ``oracle_from_spec``.  A table built
    directly still checks."""
    import swmlab.oracles as oracles
    checked = []
    real = oracles.check_axioms

    def counting(oracle, *args, **kwargs):
        checked.append(oracle)
        return real(oracle, *args, **kwargs)

    spec = sl.instance_to_spec(sl.random_instance(5, 4, 3, families=families))
    monkeypatch.setattr(oracles, "check_axioms", counting)
    inst = instance_from_spec(spec)
    assert len(checked) == inst.m
    assert sorted(map(id, checked)) == sorted(map(id, inst.oracles))
    checked.clear()
    table = sl.make_table(5, inst.oracles[0]._table)
    assert checked == [table]


def test_agents_above_cap_spot_checked_once_at_their_tolerance(monkeypatch):
    """Above the exhaustive cap each agent is spot-checked once, at the
    one rule ABS_TOL * max(1, |v(N)|): v(N) is 17 for the coverage agent,
    the budget 5 for the budgeted agent and 250 * 17 for the table."""
    import swmlab.oracles as oracles
    n = 17
    values = 250.0 * np.array([m.bit_count() for m in range(1 << n)])
    spec = {"agents": [
        {"kind": "coverage", "universe_weights": [1.0] * n,
         "item_sets": [[i] for i in range(n)]},
        {"kind": "budgeted_additive", "budget": 5.0, "weights": [1.0] * n},
        {"kind": "table", "n": n,
         "table": dict(zip(_subset_keys(n), values.tolist()))}]}
    seen = []
    real = oracles.spot_check_axioms

    def recording(oracle, *args, **kwargs):
        seen.append((oracle.kind, kwargs["tol"]))
        return real(oracle, *args, **kwargs)

    monkeypatch.setattr(oracles, "spot_check_axioms", recording)
    monkeypatch.setattr(oracles, "check_axioms", lambda *a, **k: 1 / 0)
    inst = instance_from_spec(spec)
    assert inst.n == n
    assert seen == [("coverage", ABS_TOL * n),
                    ("budgeted_additive", ABS_TOL * 5.0),
                    ("table", ABS_TOL * 250.0 * n)]


def _decimal_agent(kind, n, seed):
    """A coverage or budgeted agent whose weights have two decimals and
    lie in [0, 1000]."""
    rng = np.random.default_rng(seed)
    if kind == "coverage":
        weights = np.round(rng.uniform(0, 1000, n + 2), 2).tolist()
        sets = [np.flatnonzero(rng.random(n + 2) < 0.5).tolist()
                for _ in range(n)]
        return {"kind": kind, "universe_weights": weights, "item_sets": sets}
    weights = np.round(rng.uniform(0, 1000, n), 2).tolist()
    return {"kind": kind, "budget": round(0.6 * sum(weights), 2),
            "weights": weights}


@pytest.mark.parametrize("n", [12, 16])
@pytest.mark.parametrize("kind", ["coverage", "budgeted_additive"])
def test_decimal_weights_load(kind, n):
    """The values carry float rounding above ABS_TOL, which the gate's
    tolerance, scaled with v(N), absorbs."""
    inst = instance_from_spec({"agents": [_decimal_agent(kind, n, 1)]})
    assert inst.n == n
    assert not sl.check_axioms(inst.oracles[0], tol=ABS_TOL).submodular


@pytest.mark.filterwarnings("ignore:overflow encountered")
def test_ground_set_value_beyond_float_range_rejected(capsys):
    spec = {"agents": [{"kind": "coverage", "universe_weights": [1e308, 1e308],
                        "item_sets": [[0, 1], [1]]}, BUDGETED]}
    message = "agent 0: coverage value of the ground set must be finite, " \
              "got inf"
    with pytest.raises(InstanceFormatError) as err:
        instance_from_spec(spec)
    assert str(err.value) == message
    assert _exits_2(spec)
    assert f"error: {message}" in capsys.readouterr().err.splitlines()


@pytest.mark.parametrize("agent, extra", [
    ({"kind": "coverage", "universe_weights": [1.0], "item_sets": [[0]]},
     "n"),
    (BUDGETED, "n"),
    ({"kind": "b_matching", "capacity": 1, "weights": [0.5, 0.7]}, "n"),
    ({"kind": "cut", "n": 1, "edges": [[0, -1, 1.0]]}, "weights"),
    ({"kind": "table", "table": {"": 0, "0": 1, "1": 1, "0,1": 1}}, "N"),
], ids=["coverage", "budgeted_additive", "b_matching", "cut", "table"])
def test_unknown_agent_field_rejected(agent, extra, capsys):
    """Each kind refuses a field it does not read, so a misspelt size
    (``N``) or one its kind takes from other fields (``n``) cannot be
    silently ignored."""
    spec = {"agents": [dict(agent, **{extra: 1})]}
    message = f"agent 0: unknown fields for kind {agent['kind']!r}: " \
              f"[{extra!r}]"
    with pytest.raises(InstanceFormatError) as err:
        instance_from_spec(spec)
    assert str(err.value) == message
    assert _exits_2(spec)
    assert f"error: {message}" in capsys.readouterr().err.splitlines()


@pytest.mark.parametrize("family", ["coverage", "budgeted_additive",
                                    "b_matching", "cut", "table"])
def test_saved_specs_still_load(family):
    inst = sl.random_family_instance(family, 4, 2, 5)
    back = instance_from_spec(sl.instance_to_spec(inst))
    assert sl.instance_to_spec(back) == sl.instance_to_spec(inst)


@pytest.mark.parametrize("n", [14, 16])
def test_planted_submodularity_violation_rejected_on_load(n, tmp_path, capsys):
    """v(S) = |S|, plus 0.5 on one three-item set P: still monotone, but
    MG(A, e) < MG(A + f, e) for every A = P - {e, f}."""
    planted = 0b111 << (n // 2)
    vals = {key: m.bit_count() + 0.5 * (m == planted)
            for m, key in enumerate(_subset_keys(n))}
    with pytest.raises(AxiomViolationError) as err:
        sl.make_table(n, vals)
    assert list(err.value.witness) == ["submodular"]
    a, s, e = err.value.witness["submodular"]
    assert a | s | {e} == set(mask_items(planted))
    unchecked = TableOracle(n, vals, check=False)
    assert sl.gain_reduction(unchecked, a, s, e) < -1e-12
    path = tmp_path / "planted.json"
    path.write_text(json.dumps({"agents": [{"kind": "table", "n": n,
                                            "table": vals}]}))
    assert main(["classify", str(path)]) == 2
    assert "violates axioms: ['submodular']" in capsys.readouterr().err


def test_sampled_check_limited_to_int64_masks(capsys):
    def spec(n):
        return {"agents": [{"kind": "budgeted_additive", "budget": 100.0,
                            "weights": [1.0] * n}]}
    assert instance_from_spec(spec(63)).n == 63
    assert _exits_2(spec(64))
    assert "limited to n <= 63" in capsys.readouterr().err


@pytest.mark.parametrize("agent,message", [
    ({"kind": "coverage", "universe_weights": [1.0], "item_sets": [[0]] * 64},
     "limited to n <= 63"),
    ({"kind": "budgeted_additive", "budget": 1.0, "weights": [1.0] * 64},
     "limited to n <= 63"),
    ({"kind": "b_matching", "capacity": 2, "weights": [1.0] * 64},
     "limited to n <= 63"),
    ({"kind": "cut", "n": 64, "edges": [[0, -1, 1.0]]}, "exceeds 16"),
    ({"kind": "table", "n": 64, "table": {"": 0.0}}, "limited to n <= 20"),
])
def test_every_family_refuses_64_items(agent, message, capsys):
    assert _exits_2({"agents": [agent]})
    assert message in capsys.readouterr().err


# Malformed-input fuzzing: field values are drawn from plausible shapes
# (small numbers, number lists, nested lists) mixed with arbitrary JSON.
_numbers = st.one_of(st.integers(-2, 5), st.integers(),
                     st.floats(allow_nan=True, allow_infinity=True))
_scalars = st.one_of(st.none(), st.booleans(), _numbers, st.text(max_size=3))
_json = st.recursive(_scalars, lambda inner: st.one_of(
    st.lists(inner, max_size=3),
    st.dictionaries(st.text(max_size=3), inner, max_size=3)), max_leaves=6)
_field = st.one_of(_numbers, st.lists(_numbers, max_size=4),
                   st.lists(st.lists(_numbers, max_size=3), max_size=4),
                   st.dictionaries(st.sampled_from(["", "0", "1", "0,1"]),
                                   _numbers, max_size=4),
                   _json)
_agent = st.one_of(_json, st.fixed_dictionaries(
    {"kind": st.sampled_from(["coverage", "budgeted_additive", "b_matching",
                              "cut", "table", "sphere"])},
    optional={f: _field for f in ("universe_weights", "item_sets", "budget",
                                  "weights", "capacity", "n", "edges",
                                  "table")}))
_spec = st.one_of(_json, st.fixed_dictionaries(
    {"agents": st.lists(_agent, max_size=3)},
    optional={"version": _json, "n": _json, "m": _json, "name": _json,
              "seed": _json}))


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(_spec)
def test_only_swmlab_errors_escape_the_loader(spec):
    try:
        instance_from_spec(spec)
    except SwmlabError:
        assert _exits_2(spec)
