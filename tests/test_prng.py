import numpy as np

from stateful_agg import ring
from stateful_agg.prng import hash_key, rekeyed_rng

# Bounds of the widths seed expansion draws at: 17, 18, 30 and 31 bits.
BOUNDS = [ring.find_ntt_prime(64, bits) for bits in (17, 18, 30, 31)]
EDGE_KEYS = [0, 1, 2**64 - 1, 2**64, 2**128 - 1]


def _draws(g: np.random.Generator) -> list:
    out = [g.integers(0, p, size=9, dtype=np.uint64) for p in BOUNDS]
    out.append(g.bytes(13))
    out.append(g.random(5))
    out.extend(g.integers(0, p, size=1000, dtype=np.uint64) for p in BOUNDS)
    return out


def _same(a: list, b: list) -> bool:
    return all(
        x == y if isinstance(x, bytes) else np.array_equal(x, y) for x, y in zip(a, b)
    ) and len(a) == len(b)


def test_rekeyed_rng_matches_fresh_philox_draw_for_draw():
    keys = EDGE_KEYS + [hash_key("rekey-test", i) for i in range(200)]
    for key in keys:
        fresh = np.random.Generator(np.random.Philox(key=key))
        assert _same(_draws(rekeyed_rng(key)), _draws(fresh)), key


def test_rekeyed_rng_after_a_half_used_word():
    # An odd number of uint32 draws leaves half of a 64-bit word buffered.
    for key in EDGE_KEYS:
        rekeyed_rng(7).integers(0, 2**31, size=3, dtype=np.uint32)
        fresh = np.random.Generator(np.random.Philox(key=key))
        assert _same(_draws(rekeyed_rng(key)), _draws(fresh)), key


def test_rekeyed_rng_after_a_partial_bytes_draw():
    for key in EDGE_KEYS:
        rekeyed_rng(9).bytes(5)
        fresh = np.random.Generator(np.random.Philox(key=key))
        assert _same(_draws(rekeyed_rng(key)), _draws(fresh)), key


def test_rekeyed_rng_same_key_replays():
    a = rekeyed_rng(hash_key("replay")).integers(0, BOUNDS[3], size=64, dtype=np.uint64)
    b = rekeyed_rng(hash_key("replay")).integers(0, BOUNDS[3], size=64, dtype=np.uint64)
    assert np.array_equal(a, b)
