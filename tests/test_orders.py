import numpy as np
import pytest

import exact_reference as ref
from swmlab import orders as orders_module
from swmlab.gain import MC_BATCH, _mc_batches
from swmlab.orders import orders

SEEDS = (0, 1, 2, 7, 12345, 2**32 - 1, 2**32, 2**40 + 3, 2**64 + 5,
         2**130 + 1)
SIZES = (1, 2, 3, 5, 8, 13, 40, 63)


def reference(seed, lo, hi, n):
    """Orders lo .. hi-1, each from its own NumPy generator."""
    return np.array([ref.mc_order(seed, k, n) for k in range(lo, hi)],
                    dtype=np.int64).reshape(hi - lo, n)


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("n", SIZES)
def test_matches_per_order_generator(seed, n):
    for lo, hi in ((0, 20), (977, 990)):
        got = orders(seed, lo, hi, n)
        assert got.dtype == np.int64 and got.shape == (hi - lo, n)
        np.testing.assert_array_equal(got, reference(seed, lo, hi, n))


@pytest.mark.parametrize("lo, hi", [(0, MC_BATCH - 1), (0, MC_BATCH + 1),
                                    (MC_BATCH - 1, 2 * MC_BATCH + 1),
                                    (5, 5)])
def test_batch_edges(lo, hi):
    np.testing.assert_array_equal(orders(3, lo, hi, 6),
                                  reference(3, lo, hi, 6))


@pytest.mark.parametrize("n", (9, 17, 33, 63))
def test_wide_batches(n, monkeypatch):
    """At these sizes many positions i have a mask above i, so rows reject
    often: the draws run out more than once, and each round steps only
    the rows still shuffling."""
    rounds = []
    draws = orders_module._Pcg64.draws

    def counted(gen, steps):
        rounds.append(len(gen.lo))
        return draws(gen, steps)

    monkeypatch.setattr(orders_module._Pcg64, "draws", counted)
    np.testing.assert_array_equal(orders(5, 0, 3000, n),
                                  reference(5, 0, 3000, n))
    assert len(rounds) >= 3 and rounds[0] == 3000
    assert all(a > b for a, b in zip(rounds, rounds[1:])), rounds


def test_mc_batches_are_the_stream_in_sample_order():
    samples = 2 * MC_BATCH + 3
    batches = list(_mc_batches(5, "mc", samples, 11, MC_BATCH))
    assert [len(b) for b in batches] == [MC_BATCH, MC_BATCH, 3]
    np.testing.assert_array_equal(np.concatenate(batches),
                                  reference(11, 0, samples, 5))


def test_spawn_key_gaining_a_second_word():
    """k = 2^32 is the first index whose spawn key has two 32-bit words."""
    lo, hi = 2**32 - 3, 2**32 + 3
    for n in (2, 8, 13):
        np.testing.assert_array_equal(orders(9, lo, hi, n),
                                      reference(9, lo, hi, n))


def test_pinned_stream():
    """The stream is fixed by these values, whatever NumPy version runs."""
    assert orders(0, 0, 3, 8).tolist() == [[5, 3, 0, 1, 2, 4, 7, 6],
                                           [6, 3, 4, 7, 2, 0, 1, 5],
                                           [3, 4, 6, 7, 0, 1, 5, 2]]
    assert orders(1, 0, 3, 8).tolist() == [[4, 7, 1, 5, 2, 3, 0, 6],
                                           [6, 3, 7, 5, 4, 1, 0, 2],
                                           [0, 2, 4, 1, 5, 7, 6, 3]]
    assert orders(12345, 0, 1, 63).tolist() == [[
        11, 24, 54, 23, 21, 6, 57, 25, 42, 5, 28, 39, 10, 16, 37, 26, 31,
        46, 20, 60, 53, 27, 41, 47, 43, 0, 55, 4, 32, 14, 15, 56, 22, 61,
        38, 58, 51, 29, 2, 35, 18, 50, 9, 49, 62, 48, 3, 59, 7, 34, 1, 30,
        33, 13, 17, 12, 19, 40, 44, 8, 52, 36, 45]]


def test_numpy_integer_seed_is_the_equal_int():
    for seed in (np.int64(7), np.uint64(2**63 + 1), np.uint32(5)):
        np.testing.assert_array_equal(orders(seed, 0, 40, 8),
                                      orders(int(seed), 0, 40, 8))


def test_negative_seed_refused():
    with pytest.raises(ValueError, match="expected non-negative integer"):
        orders(-1, 0, 3, 4)
    with pytest.raises(ValueError, match="expected non-negative integer"):
        orders(np.int64(-5), 0, 3, 4)


def test_float_seed_refused():
    with pytest.raises(TypeError):
        orders(1.0, 0, 3, 4)


@pytest.mark.parametrize("lo, hi", [(-1, 2), (4, 3), (0, 2**64 + 1)])
def test_bad_indices_refused(lo, hi):
    with pytest.raises(ValueError, match="sample indices"):
        orders(1, lo, hi, 4)
