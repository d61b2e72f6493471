"""Instance files and seeded random instance generators.

The JSON format is:

    {"version": 1, "n": 2, "m": 2, "name": "...", "seed": 0,
     "agents": [{"kind": "coverage", ...}, {"kind": "table", ...}]}

with one oracle spec per agent (see the oracle constructors for the
kind-specific fields).  ``oracles.oracle_from_spec`` builds each agent and
passes it through the one axiom gate, ``oracles._check``; the loader adds
the instance-level checks (version, name and seed, agent list, declared n
and m, one shared ground set).
"""
from __future__ import annotations

import json
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from .core import Instance
from .errors import InstanceFormatError, SwmlabError
from .oracles import (_integer, make_b_matching, make_budgeted_additive,
                      make_coverage, make_cut, oracle_from_spec, tabulate)

FORMAT_VERSION = 1


def instance_to_spec(instance: Instance) -> dict:
    spec = {"version": FORMAT_VERSION, "n": instance.n, "m": instance.m,
            "agents": [o.to_spec() for o in instance.oracles]}
    if instance.name is not None:
        spec["name"] = instance.name
    if instance.seed is not None:
        spec["seed"] = instance.seed
    return spec


def instance_from_spec(spec: dict) -> Instance:
    if not isinstance(spec, dict):
        raise InstanceFormatError("instance file must contain a JSON object")
    version = spec.get("version", FORMAT_VERSION)
    # only the integer 1: True and 1.0 compare equal to it
    if type(version) is not int or version != FORMAT_VERSION:
        raise InstanceFormatError(f"unsupported format version {version!r}")
    name, seed = spec.get("name"), spec.get("seed")
    if name is not None and not isinstance(name, str):
        raise InstanceFormatError(f"field 'name' must be a string, "
                                  f"got {name!r}")
    if seed is not None:
        try:
            _integer(seed, "field 'seed'")
        except ValueError as exc:
            raise InstanceFormatError(str(exc)) from exc
    agents = spec.get("agents")
    if not isinstance(agents, list) or not agents:
        raise InstanceFormatError("field 'agents' must be a non-empty list")
    oracles = []
    for idx, agent_spec in enumerate(agents):
        if not isinstance(agent_spec, dict):
            raise InstanceFormatError(f"agent {idx} must be a JSON object")
        try:
            oracle = oracle_from_spec(agent_spec)
        except SwmlabError:
            raise
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            raise InstanceFormatError(f"agent {idx}: {exc}") from exc
        oracles.append(oracle)
    n = oracles[0].n
    for key in ("n", "m"):
        if key in spec:
            try:
                _integer(spec[key], f"field {key!r}")
            except ValueError as exc:
                raise InstanceFormatError(str(exc)) from exc
    if "n" in spec and spec["n"] != n:
        raise InstanceFormatError(
            f"declared n={spec['n']} but agent 0 has ground size {n}")
    if "m" in spec and spec["m"] != len(oracles):
        raise InstanceFormatError(
            f"declared m={spec['m']} but {len(oracles)} agents listed")
    for idx, oracle in enumerate(oracles):
        if oracle.n != n:
            raise InstanceFormatError(
                f"agent {idx} has ground size {oracle.n}, expected {n}")
    return Instance(tuple(oracles), name=name, seed=seed)


def load_instance(path) -> Instance:
    path = Path(path)
    try:
        spec = json.loads(path.read_text())
    except OSError as exc:
        raise InstanceFormatError(f"{path}: {exc.strerror}") from exc
    except json.JSONDecodeError as exc:
        raise InstanceFormatError(f"{path}: invalid JSON at line "
                                  f"{exc.lineno}: {exc.msg}") from exc
    return instance_from_spec(spec)


def save_instance(path, instance: Instance):
    Path(path).write_text(
        json.dumps(instance_to_spec(instance), sort_keys=True, indent=2) + "\n")


# ---------------------------------------------------------------------------
# Seeded random generators
# ---------------------------------------------------------------------------

def _rng(seed) -> np.random.Generator:
    return seed if isinstance(seed, np.random.Generator) \
        else np.random.default_rng(seed)


def random_coverage_oracle(n: int, rng, universe: Optional[int] = None):
    """Random weighted coverage oracle with guaranteed set overlap.

    The first element of the universe is shared by the first three items
    (when n >= 3), so the oracle has strictly varying gain reductions.
    """
    rng = _rng(rng)
    u = universe if universe is not None else n + 2
    weights = np.round(rng.uniform(0.1, 1.0, size=u), 4).tolist()
    sets = []
    for i in range(n):
        members = set(np.flatnonzero(rng.random(u) < 0.5).tolist())
        if i < 3:
            members.add(0)
        sets.append(sorted(members))
    return make_coverage(weights, sets)


def random_budgeted_oracle(n: int, rng):
    rng = _rng(rng)
    weights = np.round(rng.uniform(0.1, 1.0, size=n), 4).tolist()
    budget = round(0.6 * sum(weights), 4)
    return make_budgeted_additive(budget, weights)


def random_b_matching_oracle(n: int, rng):
    rng = _rng(rng)
    weights = np.round(rng.uniform(0.1, 1.0, size=n), 4).tolist()
    capacity = int(rng.integers(1, max(2, n)))
    return make_b_matching(capacity, weights)


def random_cut_oracle(n: int, rng):
    """Random monotone cut oracle: every item's sink-edge weight covers the
    total weight of its item-item edges, which forces monotonicity."""
    rng = _rng(rng)
    edges = []
    incident = [0.0] * n
    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() < 0.5:
                w = round(float(rng.uniform(0.05, 0.5)), 4)
                edges.append((u, v, w))
                incident[u] += w
                incident[v] += w
    for u in range(n):
        sink_w = round(incident[u] + float(rng.uniform(0.05, 0.5)), 4)
        edges.append((u, -1, sink_w))
    return make_cut(n, edges)


def random_table_oracle(n: int, rng):
    """Tabulated snapshot of a random coverage oracle."""
    return tabulate(random_coverage_oracle(n, rng))


ORACLE_GENERATORS = {
    "coverage": random_coverage_oracle,
    "budgeted_additive": random_budgeted_oracle,
    "b_matching": random_b_matching_oracle,
    "cut": random_cut_oracle,
    "table": random_table_oracle,
}


def random_instance(n: int, m: int, seed: int,
                    families: Sequence[str] = ("coverage",
                                               "budgeted_additive",
                                               "b_matching", "cut"),
                    name: Optional[str] = None) -> Instance:
    """Instance with one random oracle per agent, each agent's family an
    independent uniform draw from the requested list."""
    rng = np.random.default_rng(seed)
    for fam in families:
        if fam not in ORACLE_GENERATORS:
            raise ValueError(f"unknown oracle family {fam!r}")
    picks = [families[int(rng.integers(0, len(families)))] for _ in range(m)]
    oracles = tuple(ORACLE_GENERATORS[fam](n, rng) for fam in picks)
    return Instance(oracles, name=name or f"random-n{n}-m{m}-s{seed}",
                    seed=seed)


def random_family_instance(family: str, n: int, m: int, seed: int) -> Instance:
    """Instance whose agents all come from one oracle family."""
    return random_instance(n, m, seed, families=(family,),
                           name=f"{family}-n{n}-m{m}-s{seed}")
