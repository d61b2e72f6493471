"""Instances, allocations, the online greedy allocator and brute-force optimum.

Allocations store one bitmask per agent.  Items absent from every mask are
unallocated.  ``greedy`` runs one order, one item at a time, and accepts
general item sequences, possibly with repeats, because the
simulated-sequence experiments replay items; a repeated item contributes per
the union semantics (second copy worth zero to an agent that already holds
it).  ``greedy_steps``, which every engine in ``gain`` runs, takes one of
its steps for a whole batch of states.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

import numpy as np

from .errors import InvalidQueryError, SizeGuardError
from .oracles import ValuationOracle, as_mask, mask_items

OPTIMAL_MAX_ASSIGNMENTS = 10 ** 7
OPTIMAL_CHUNK = 1 << 16    # assignments ``optimal`` evaluates at once


@dataclass(frozen=True)
class Instance:
    """n items, m agents, one valuation oracle per agent."""

    oracles: tuple[ValuationOracle, ...]
    name: Optional[str] = None
    seed: Optional[int] = None

    def __post_init__(self):
        object.__setattr__(self, "oracles", tuple(self.oracles))
        if not self.oracles:
            raise ValueError("instance needs at least one agent")
        n = self.oracles[0].n
        if any(o.n != n for o in self.oracles):
            raise ValueError("all oracles must share the same ground size")

    @property
    def n(self) -> int:
        return self.oracles[0].n

    @property
    def m(self) -> int:
        return len(self.oracles)


@dataclass(frozen=True)
class Allocation:
    """Per-agent item sets as bitmasks.

    ``multiset`` marks allocations produced by unions where the same item
    appears under several agents; welfare stays well-defined per agent.
    """

    masks: tuple[int, ...]
    multiset: bool = False

    def __post_init__(self):
        object.__setattr__(self, "masks", tuple(int(m) for m in self.masks))
        if not self.multiset and _overlapping(self.masks):
            raise ValueError(
                "agents share items; build via union() for multisets")

    @property
    def m(self) -> int:
        return len(self.masks)

    @property
    def assigned_mask(self) -> int:
        out = 0
        for m in self.masks:
            out |= m
        return out

    @classmethod
    def empty(cls, m: int) -> "Allocation":
        return cls((0,) * m)

    @classmethod
    def from_sets(cls, sets: Iterable[Iterable[int]], n: int,
                  multiset: bool = False) -> "Allocation":
        return cls(tuple(as_mask(s, n) for s in sets), multiset=multiset)


def _overlapping(masks: Iterable[int]) -> bool:
    seen = 0
    for m in masks:
        if seen & m:
            return True
        seen |= m
    return False


def welfare(instance: Instance, a: Allocation) -> float:
    """V(A) = sum of each agent's value for its assigned set."""
    if a.m != instance.m:
        raise ValueError(f"allocation has {a.m} agents, instance has {instance.m}")
    return sum(o.value_mask(m) for o, m in zip(instance.oracles, a.masks))


def union(a: Allocation, b: Allocation) -> Allocation:
    """Per-agent set union; duplicate copies of an item contribute nothing.

    The result may assign one item to several agents and is then flagged
    ``multiset``.
    """
    if a.m != b.m:
        raise ValueError("allocations have different agent counts")
    masks = tuple(x | y for x, y in zip(a.masks, b.masks))
    return Allocation(masks, multiset=_overlapping(masks) or a.multiset
                      or b.multiset)


@dataclass(frozen=True)
class GreedyRun:
    order: tuple[int, ...]
    allocation: Allocation
    marginals: tuple[float, ...]
    choices: tuple[int, ...]          # chosen agent per position

    @property
    def welfare(self) -> float:
        return float(sum(self.marginals))


def marginal_gains(oracle: ValuationOracle, masks: np.ndarray, bits
                   ) -> np.ndarray:
    """``marginal_gain_mask`` over an int64 array of sets: MG of the item
    with bit ``bits`` on each set, 0.0 where the set already holds it.
    ``masks`` and ``bits`` (one int or an array) broadcast together."""
    up = masks | bits
    gains = oracle.value_masks(up) - oracle.value_masks(masks)
    return np.where(up == masks, 0.0, gains)


def greedy_steps(instance: Instance, masks: np.ndarray, items: np.ndarray
                 ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``greedy``'s step on a batch: item ``items[s]`` arrives on top of the
    agent masks ``masks[:, s]`` (int64, one row per agent).  Returns the
    chosen agents, their marginals and the new masks.  Agents are scanned
    in ascending order from a best of -1.0 that only a strictly larger
    marginal replaces, so ties and NaN resolve as in ``greedy``.
    Rows of ``masks`` after the m agents' rows (tags) are carried over
    unchanged."""
    bits = np.left_shift(1, items)
    best = np.full(len(items), -1.0)
    chosen = np.zeros(len(items), dtype=np.int64)
    for ell, oracle in enumerate(instance.oracles):
        g = marginal_gains(oracle, masks[ell], bits)
        better = g > best
        best = np.where(better, g, best)
        chosen[better] = ell
    new = masks.copy()
    new[chosen, np.arange(len(items))] |= bits
    return chosen, best, new


def greedy(instance: Instance, order: Sequence[int]) -> GreedyRun:
    """Process items in order, giving each to the agent with the largest
    marginal gain, ties to the lowest agent index."""
    n = instance.n
    order = tuple(int(j) for j in order)
    masks = [0] * instance.m
    marginals, choices = [], []
    for j in order:
        if j < 0 or j >= n:
            raise InvalidQueryError(f"item {j} outside ground set of size {n}")
        ell, g = 0, -1.0
        for k, oracle in enumerate(instance.oracles):
            gain = oracle.marginal_gain_mask(masks[k], j)
            if gain > g:
                ell, g = k, gain
        masks[ell] |= 1 << j
        marginals.append(g)
        choices.append(ell)
    return GreedyRun(order, Allocation(tuple(masks),
                                       multiset=_overlapping(masks)),
                     tuple(marginals), tuple(choices))


def optimal(instance: Instance, items: Optional[Iterable[int]] = None
            ) -> tuple[Allocation, float, dict[int, int]]:
    """Brute-force welfare maximizer over full assignments of ``items``
    (default: all items).

    Enumerates agent choices in lexicographic order with the first listed
    item as the least significant digit and returns the first maximizer, so
    opt_map is canonical.  Assignments are evaluated ``OPTIMAL_CHUNK`` at a
    time: each one's welfare adds its agents' values in agent order, the
    first maximizer of a chunk is its ``np.argmax``, and a later chunk
    replaces the best so far only when strictly larger.
    """
    n, m = instance.n, instance.m
    if items is None:
        items = range(n)
    items = [int(j) for j in items]
    for j in items:
        if j < 0 or j >= n:
            raise InvalidQueryError(f"item {j} outside ground set of size {n}")
    if len(set(items)) != len(items):
        raise ValueError("items to assign must be distinct")
    k = len(items)
    total = m ** k
    if total > OPTIMAL_MAX_ASSIGNMENTS:
        raise SizeGuardError(
            f"optimal enumerates m^k assignments; {m}^{k} = {total} exceeds "
            f"{OPTIMAL_MAX_ASSIGNMENTS}")
    best_masks: Optional[list[int]] = None
    best_value = -1.0
    for lo in range(0, total, OPTIMAL_CHUNK):
        codes = np.arange(lo, min(lo + OPTIMAL_CHUNK, total))
        cols = np.arange(len(codes))
        masks = np.zeros((m, len(codes)), dtype=np.int64)
        c = codes
        for j in items:
            masks[c % m, cols] |= 1 << j
            c = c // m
        v = np.zeros(len(codes))
        for o, msk in zip(instance.oracles, masks):
            v = v + o.value_masks(msk)
        top = int(np.argmax(v))
        if v[top] > best_value:
            best_value, best_masks = float(v[top]), masks[:, top].tolist()
    alloc = Allocation(tuple(best_masks))
    opt_map = {j: ell for ell, msk in enumerate(best_masks)
               for j in mask_items(msk)}
    return alloc, float(best_value), opt_map
