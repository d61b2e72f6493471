"""The seeded stream of Monte-Carlo arrival orders.

Sample k of ``seed`` at size n is the permutation that NumPy's
``default_rng(SeedSequence(entropy=seed, spawn_key=(k,))).permutation(n)``
returns.  ``orders`` computes it for a whole batch of k at once with
unsigned integer array arithmetic, in three steps:

- SeedSequence: the seed's 32-bit little-endian words, zero-padded to the
  pool size 4, are hashed into a 4-word pool, then the spawn key's words
  are mixed into every pool word.  The hash constants do not depend on the
  data, so the seed's part is computed once per seed (and cached) and only
  the spawn words run over a vector of k.  ``generate_state(4, uint64)``
  then gives PCG64's seed and increment.
- PCG64 (128-bit LCG, XSL-RR output): a 128-bit state is a pair of uint64
  arrays (high, low).  ``next_uint32`` returns the low half of a 64-bit
  output and buffers the high half for the next call, so each output gives
  two 32-bit draws, low half first.
- ``permutation``: Fisher-Yates on ``arange(n)`` for i = n-1 .. 1, swapping
  position i with ``random_interval(i)``, a draw masked to the smallest
  all-ones mask >= i and rejected while it exceeds i.  The draws are
  walked once, in rounds: every row still shuffling steps its generator
  as often as the furthest of them needs if no draw is rejected, then
  reads those draws one at a time, each row filling its own position.
  Rows that are done leave after the round, and the generators narrow to
  the rest before the next one, so only rows still shuffling draw.

The stream is defined by this code: tests hold it to NumPy's generator
and to pinned orders, so a NumPy release that changed its generator would
show up as a failing reference test, not as different reports.
"""
from __future__ import annotations

import operator
from functools import lru_cache

import numpy as np

_M32 = 0xFFFFFFFF
_U32 = np.uint32
_U64 = np.uint64
_POOL = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_PCG_MULT = (_U64(0x2360ED051FC65DA4), _U64(0x4385DF649FCCF645))
_LOW32 = _U64(_M32)


def _words(x: int) -> list[int]:
    """The 32-bit little-endian words of a non-negative int, [0] for 0."""
    out = [x & _M32]
    while x > _M32:
        x >>= 32
        out.append(x & _M32)
    return out


class _HashMix:
    """SeedSequence's hashmix of uint32 arrays, with its running hash
    constant: ``const`` to start, multiplied by ``mult`` at every call."""

    def __init__(self, const: int, mult: int):
        self.const, self.mult = const, mult

    def __call__(self, value: np.ndarray) -> np.ndarray:
        value = value ^ _U32(self.const)
        self.const = self.const * self.mult & _M32
        value = value * _U32(self.const)
        return value ^ (value >> _U32(16))


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    r = _U32(_MIX_L) * x - _U32(_MIX_R) * y
    return r ^ (r >> _U32(16))


def _mix_in(pool: list, words, hashmix: _HashMix) -> None:
    """Mix each of ``words`` into every pool word, in order."""
    for word in words:
        for dst in range(_POOL):
            pool[dst] = _mix(pool[dst], hashmix(word))


@lru_cache(maxsize=16)
def _seed_pool(seed: int) -> tuple[tuple, int]:
    """The part of ``_pool`` that depends on the seed alone: the pool
    (uint32 arrays [1]) after the seed's words, and the hash constant the
    spawn words start from."""
    entropy = _words(seed)
    entropy += [0] * (_POOL - len(entropy))
    words = list(np.array(entropy, dtype=_U32)[:, None])
    hashmix = _HashMix(_INIT_A, _MULT_A)
    pool = [hashmix(w) for w in words[:_POOL]]
    for src in range(_POOL):
        for dst in range(_POOL):
            if src != dst:
                pool[dst] = _mix(pool[dst], hashmix(pool[src]))
    _mix_in(pool, words[_POOL:], hashmix)
    for word in pool:               # every call with this seed shares them
        word.flags.writeable = False
    return tuple(pool), hashmix.const


def _pool(seed: int, spawn: np.ndarray) -> list:
    """SeedSequence's entropy pool (uint32 arrays [K]) for ``seed`` and one
    spawn key per column of ``spawn`` (uint32 [words, K])."""
    pool, const = _seed_pool(seed)
    pool = list(pool)
    _mix_in(pool, spawn, _HashMix(const, _MULT_A))
    return pool


def _state_words(pool: list) -> list:
    """``generate_state(4, uint64)``: four uint64 arrays, each from two
    uint32 words of the cycled pool, low word first."""
    hashmix = _HashMix(_INIT_B, _MULT_B)
    words = [hashmix(pool[i % _POOL]).astype(_U64) for i in range(2 * _POOL)]
    return [lo | (hi << _U64(32)) for lo, hi in zip(words[::2], words[1::2])]


def _mul_hi(a: np.ndarray, b: np.uint64) -> np.ndarray:
    """The high 64 bits of the 128-bit products a * b (uint64), from the
    32-bit halves; neither partial sum u nor v can overflow."""
    a0, a1 = a & _LOW32, a >> _U64(32)
    b0, b1 = b & _LOW32, b >> _U64(32)
    u = a1 * b0 + (a0 * b0 >> _U64(32))
    v = (u & _LOW32) + a0 * b1
    return a1 * b1 + (u >> _U64(32)) + (v >> _U64(32))


def _step(hi, lo, inc_hi, inc_lo):
    """One PCG64 step, state * multiplier + increment mod 2^128."""
    m_hi, m_lo = _PCG_MULT
    new_lo = lo * m_lo + inc_lo
    new_hi = (_mul_hi(lo, m_lo) + hi * m_lo + lo * m_hi + inc_hi
              + (new_lo < inc_lo))
    return new_hi, new_lo


def _xsl_rr(hi, lo):
    x = hi ^ lo
    rot = hi >> _U64(58)
    return (x >> rot) | (x << ((_U64(64) - rot) & _U64(63)))


class _Pcg64:
    """PCG64 generators, one per row, seeded as NumPy's ``PCG64`` from a
    SeedSequence's ``generate_state(4, uint64)`` words."""

    def __init__(self, words: list):
        seed_hi, seed_lo, inc_hi, inc_lo = words
        self.inc_hi = (inc_hi << _U64(1)) | (inc_lo >> _U64(63))
        self.inc_lo = (inc_lo << _U64(1)) | _U64(1)
        hi, lo = self.inc_hi, self.inc_lo           # one step from state 0
        lo = lo + seed_lo
        hi = hi + seed_hi + (lo < seed_lo)
        self.hi, self.lo = _step(hi, lo, self.inc_hi, self.inc_lo)

    def draws(self, steps: int) -> np.ndarray:
        """The next ``2 * steps`` 32-bit draws of every generator, one row
        per draw (int64 [2 * steps, rows]): ``next_uint32`` returns the low
        half of a 64-bit output and then, from its buffer, the high half."""
        out = np.empty((steps, 2, len(self.lo)), dtype=_U64)
        for s in range(steps):
            self.hi, self.lo = _step(self.hi, self.lo, self.inc_hi,
                                     self.inc_lo)
            x = _xsl_rr(self.hi, self.lo)
            np.bitwise_and(x, _LOW32, out=out[s, 0])
            np.right_shift(x, _U64(32), out=out[s, 1])
        return out.reshape(2 * steps, len(self.lo)).view(np.int64)

    def narrow(self, keep: np.ndarray) -> None:
        """Keep only the generators ``keep`` (indices, in order)."""
        self.hi, self.lo = self.hi[keep], self.lo[keep]
        self.inc_hi, self.inc_lo = self.inc_hi[keep], self.inc_lo[keep]


def _permutations(gen: _Pcg64, n: int) -> np.ndarray:
    """``Generator.permutation(n)`` of each generator, one row each.  A row
    fills position i = n-1 .. 1: it reads its next draw, accepts it if the
    masked value is at most i and then swaps the two positions.  Each
    round draws as many values as the furthest live row needs if none is
    rejected, and every live row reads them in turn; a row that reaches
    i = 0 stays there, swapping its position 0 with itself.  After the
    round the generator narrows to the rows still shuffling, so a finished
    row is never stepped again."""
    size = len(gen.lo)
    out = np.tile(np.arange(n, dtype=np.int64), (size, 1))
    flat = out.reshape(-1)
    masks = np.array([(1 << i.bit_length()) - 1 for i in range(n)])
    start = np.arange(size if n > 1 else 0) * n  # flat index of position 0
    pos = np.full(len(start), n - 1)             # the position to fill
    while len(start):
        for draw in gen.draws(int(pos.max()) // 2 + 1):
            value = draw & masks[pos]
            ok = value <= pos
            at = start + pos
            to = np.where(ok, start + value, at)    # a rejected draw swaps
            flat[at], flat[to] = flat[to], flat[at]  # at with itself
            pos -= ok
            np.maximum(pos, 0, out=pos)
        live = np.flatnonzero(pos)
        start, pos = start[live], pos[live]
        gen.narrow(live)
    return out


def _spawn_words(ks: np.ndarray, count: int) -> np.ndarray:
    """The ``count`` little-endian 32-bit words of each spawn index."""
    return np.stack([(ks >> _U64(32 * w)) & _LOW32
                     for w in range(count)]).astype(_U32)


def orders(seed: int, lo: int, hi: int, n: int) -> np.ndarray:
    """Monte-Carlo orders lo .. hi-1 of ``seed`` as the rows of an int64
    array ``[hi - lo, n]``: row k - lo is
    ``default_rng(SeedSequence(entropy=seed, spawn_key=(k,))).permutation(n)``.

    ``seed`` is a non-negative integer (a NumPy integer gives the orders of
    the equal int); indices run up to 2^64, where a spawn key would gain a
    third word.
    """
    seed = operator.index(seed)
    if seed < 0:
        raise ValueError("expected non-negative integer")
    if not 0 <= lo <= hi <= 1 << 64:
        raise ValueError(f"sample indices must satisfy 0 <= lo <= hi <= 2^64;"
                         f" got lo={lo}, hi={hi}")
    parts = [np.empty((0, n), dtype=np.int64)]
    # a spawn index k < 2^32 is one word (0 included), below 2^64 two
    for count, edge in ((1, 1 << 32), (2, 1 << 64)):
        top = min(hi, edge)
        if lo < top:
            ks = np.arange(lo, top, dtype=_U64)
            pool = _pool(seed, _spawn_words(ks, count))
            parts.append(_permutations(_Pcg64(_state_words(pool)), n))
            lo = top
    return np.concatenate(parts)
