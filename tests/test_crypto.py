import numpy as np
import pytest

from stateful_agg import crypto, ring, sharing
from stateful_agg.prng import ctx_rng

from helpers import run_rng

PR = ring.RingParams.from_bits(8, 40, 2**12)  # N=8, 40-bit two-limb q, T=2^12


def _encode(vals, pr=PR):
    return ring.encode(vals, 1, 12, pr)


def test_derive_public_deterministic():
    a = crypto.derive_public("seed", 3, 2, PR)
    b = crypto.derive_public("seed", 3, 2, PR)
    assert a == b and len(a) == 2 and a != crypto.derive_public("seed", 4, 2, PR)


def test_derive_public_empty():
    assert crypto.derive_public("seed", 1, 0, PR) == ()


def test_derive_public_no_collisions():
    seen = set()
    for i in range(10000):
        (e,) = crypto.derive_public("scan", i, 1, PR)
        seen.add(e.res.tobytes())
    assert len(seen) == 10000


def test_store_degenerate_is_plaintext():
    a = crypto.derive_public("s", 1, 1, PR)
    x = _encode([1, 2, 3, 4, 5, 6, 7, 0])
    msg = crypto.encrypt(a, PR.zero(), x, 0.0, run_rng("sm"), (1,))
    assert msg[0] == x[0]


def test_store_message_shape_error():
    a = crypto.derive_public("s", 1, 2, PR)
    with pytest.raises(ValueError, match="plaintext"):
        crypto.encrypt(a, PR.zero(), _encode([1] * 8), 0.0, run_rng("se"), (1,))


def test_store_mask_roundtrip():
    a = crypto.derive_public("s", 1, 1, PR)
    x = _encode([9, 0, 0, 0, 0, 0, 0, 0])
    rng = run_rng("mask")
    mask = [ring.sample_uniform(rng, PR)]
    plain = crypto.encrypt(a, PR.zero(), x, 0.0, ctx_rng("n", 1), (1,))
    masked = crypto.encrypt(a, PR.zero(), x, 0.0, ctx_rng("n", 1), (1,), mask=mask)
    assert masked[0] - mask[0] == plain[0]


def test_distributed_encryption_sums_to_joint_ciphertext():
    # Three clients with key shares summing to s, inputs (x, 0, 0): the sum of
    # their uploads decrypts to x under s.
    rng = run_rng("dist")
    s = ring.sample_uniform(rng, PR)
    shares = sharing.ashare(s, 3, rng)
    a = crypto.derive_public("dist", 1, 1, PR)
    x = [5, 100, 7, 0, 0, 0, 0, 3]
    msgs = [
        crypto.encrypt(a, sh, _encode(x if j == 0 else [0] * 8), 2.0, ctx_rng("dn", j), (1,))
        for j, sh in enumerate(shares)
    ]
    agg = msgs[0][0] + msgs[1][0] + msgs[2][0]
    plain = (agg - ring.mul(a[0], s)).centered() % PR.T
    assert [int(v) for v in ring.decode([plain], 8, 1, 12)] == x


def test_reveal_zero_weights():
    msg = crypto.encrypt([PR.zero()], PR.zero(), [PR.zero()], 0.0, run_rng("rz"), ())
    assert msg[0] == PR.zero()


def test_reveal_single_weight_is_negated_key_product():
    rng = run_rng("r1")
    s = ring.sample_uniform(rng, PR)
    a = crypto.derive_public("r1", 1, 1, PR)
    basis = crypto.reveal_mask({1: a}, {1: 1})
    msg = crypto.encrypt(basis, s, [PR.zero()], 0.0, ctx_rng("rn"), (1,))
    assert msg[0] == -ring.mul(a[0], s)


def test_reveal_unknown_round():
    with pytest.raises(ValueError, match="unknown round"):
        crypto.reveal_mask({1: [PR.zero()]}, {2: 1})


def test_store_then_reveal_open_single_round():
    # One stored round under shares of s; reveal shares cancel the key term
    # and the remainder mod T is the plaintext.
    rng = run_rng("open1")
    s = ring.sample_uniform(rng, PR)
    shares = sharing.ashare(s, 2, rng)
    a = crypto.derive_public("open1", 1, 1, PR)
    x = [3, 1, 4, 1, 5, 9, 2, 6]
    stored = crypto.encrypt(a, shares[0], _encode(x), 2.0, ctx_rng("o", 1), (1,))[0] + \
        crypto.encrypt(a, shares[1], _encode([0] * 8), 2.0, ctx_rng("o", 2), (1,))[0]
    reveal_agg = [PR.zero()]
    basis = crypto.reveal_mask({1: a}, {1: 1})
    for j, sh in enumerate(shares):
        msg = crypto.encrypt(basis, sh, [PR.zero()], 2.0, ctx_rng("o", 10 + j), (1,))
        reveal_agg[0] = reveal_agg[0] + msg[0]
    out = crypto.open({1: (stored,)}, reveal_agg, {1: 1}, 8, 1, 12)
    assert [int(v) for v in out] == x


def test_open_zero_state():
    out = crypto.open({}, [PR.zero()], {}, 8, 1, 12)
    assert [int(v) for v in out] == [0] * 8


def test_open_centered_reduction_handles_negative_noise():
    # w = T*e + x with e = -1: plain mod-q reduction would give garbage.
    e = PR.from_coeffs([-1, 0, 0, 0, 0, 0, 0, 0])
    x = _encode([7, 0, 0, 0, 0, 0, 0, 0])
    w = x[0] + e.scalar(PR.T)
    out = crypto.open({}, [w], {}, 8, 1, 12)
    assert int(out[0]) == 7


def test_message_homomorphism():
    # Dec(a*c1 + b*c2) = a*x1 + b*x2 mod T for bounded combiners.
    rng = run_rng("hom")
    s = ring.sample_uniform(rng, PR)
    pub = crypto.derive_public("hom", 1, 1, PR)
    x1, x2 = [10, 0, 0, 0, 0, 0, 0, 0], [0, 0, 0, 20, 0, 0, 0, 0]
    c1 = crypto.encrypt(pub, s, _encode(x1), 2.0, ctx_rng("h", 1), (1,))[0]
    c2 = crypto.encrypt(pub, s, _encode(x2), 2.0, ctx_rng("h", 2), (1,))[0]
    a, b = 3, 5
    combined = c1.scalar(a) + c2.scalar(b)
    key_term = ring.mul(pub[0], s).scalar(a + b)
    plain = (combined - key_term).centered() % PR.T
    got = [int(v) for v in ring.decode([plain], 8, 1, 12)]
    want = [(a * u + b * v) % PR.T for u, v in zip(x1, x2)]
    assert got == want


def test_noise_budget_no_wraparound_smalls():
    # 200 fresh encrypt/decrypt cycles at desk scale stay exact.
    rng = run_rng("budget")
    pub = crypto.derive_public("budget", 1, 1, PR)
    for trial in range(200):
        s = ring.sample_uniform(rng, PR)
        x = [int(v) for v in rng.integers(0, 2**8, 8)]
        c = crypto.encrypt(pub, s, _encode(x), 3.2, ctx_rng("b", trial), (1,))[0]
        plain = (c - ring.mul(pub[0], s)).centered() % PR.T
        assert [int(v) for v in ring.decode([plain], 8, 1, 12)] == x


def _reveal_reference(round_elems, weights, key_share, sigma_flood, rng, x_elems):
    # Reference flooding: one sampled element per weighted round, scaled by
    # its weight, summed, then scaled by T.
    params = key_share.params
    out = []
    for e, base in enumerate(crypto.reveal_mask(round_elems, weights)):
        g = params.zero()
        for wt in weights.values():
            if wt:
                g = g + ring.sample_gaussian(rng, sigma_flood, params).scalar(wt)
        out.append(ring.mul(base, key_share) + g.scalar(params.T) + x_elems[e])
    return out


@pytest.mark.parametrize("case", ["empty", "single", "mixed", "47-rounds"])
def test_reveal_message_matches_per_round_flooding(case):
    pr = ring.RingParams.from_bits(256, 54, 2**12)
    rng = run_rng("rv-ref", case)
    rounds = 47 if case == "47-rounds" else 4
    elems = {k: [ring.sample_uniform(rng, pr) for _ in range(2)] for k in range(1, rounds + 1)}
    weights = {
        "empty": {},
        "single": {1: 1},
        "mixed": {1: 0, 2: pr.q - 1, 3: 5, 4: 0},
        "47-rounds": {k: int(rng.integers(0, 2**40)) for k in elems},
    }[case]
    s = ring.sample_uniform(rng, pr)
    x = [ring.sample_uniform(rng, pr) for _ in range(2)]
    basis = crypto.reveal_mask(elems, weights)
    got = crypto.encrypt(basis, s, x, 44.8, ctx_rng("rv", case), tuple(weights.values()))
    want = _reveal_reference(elems, weights, s, 44.8, ctx_rng("rv", case), x)
    assert list(got) == want


def _reveal_mask_per_round(round_elems, weights):
    """Reference: one scalar multiple and one subtraction per weighted round."""
    m = len(next(iter(round_elems.values())))
    pr = next(iter(round_elems.values()))[0].params
    acc = [pr.zero() for _ in range(m)]
    for k, w in weights.items():
        for e in range(m):
            acc[e] = acc[e] - round_elems[k][e].scalar(w)
    return acc


def _open_per_round(stored, reveal_agg, weights, ell):
    acc = list(reveal_agg)
    for k, w in weights.items():
        if w:
            for e in range(len(acc)):
                acc[e] = acc[e] + stored[k][e].scalar(w)
    coeffs = [a.centered() % a.params.T for a in acc]
    return ring.decode(coeffs, ell, 1, 12)


def _weight_sets(q):
    rounds = range(1, 48)
    rng = run_rng("accum-weights")
    mixed = {k: [0, 1, q - 1, 2**64 + 12345, -3, 2**70 - 1][k % 6] for k in rounds}
    return [
        {},
        {5: 0},
        {1: 0, 2: 0},
        {k: 1 for k in rounds},
        {k: q - 1 for k in rounds},
        {k: 2**64 + k for k in rounds},
        mixed,
        {k: int(rng.integers(-(2**62), 2**62)) * (2**40 + k) for k in rounds},
    ]


@pytest.mark.parametrize("m", [1, 3])
def test_reveal_mask_and_open_match_per_round_scalars(m):
    # 47 rounds; weights include {}, 0, 1, q-1 and values above 2^64.
    rng = run_rng("accum", m)
    stored = {k: tuple(ring.sample_uniform(rng, PR) for _ in range(m)) for k in range(1, 48)}
    reveal_agg = [ring.sample_uniform(rng, PR) for _ in range(m)]
    for weights in _weight_sets(PR.q):
        assert crypto.reveal_mask(stored, weights) == _reveal_mask_per_round(stored, weights)
        got = crypto.open(stored, reveal_agg, weights, 8 * m, 1, 12)
        want = _open_per_round(stored, reveal_agg, weights, 8 * m)
        assert [int(v) for v in got] == [int(v) for v in want]
    with pytest.raises(ValueError, match="unknown round 48"):
        crypto.reveal_mask(stored, {1: 1, 48: 0})


def test_store_message_with_noise_and_mask_matches_termwise_sum():
    rng = run_rng("store-terms")
    a = crypto.derive_public("store-terms", 1, 2, PR)
    s = ring.sample_uniform(rng, PR)
    x = _encode(list(range(16)))
    mask = [ring.sample_uniform(rng, PR) for _ in range(2)]
    got = crypto.encrypt(a, s, x, 3.2, ctx_rng("st", 1), (1,), mask=mask)
    g = ctx_rng("st", 1)
    want = [
        ring.mul(a[k], s) + x[k] + ring.sample_gaussian(g, 3.2, PR).scalar(PR.T) + mask[k]
        for k in range(2)
    ]
    assert list(got) == want


@pytest.mark.parametrize("N", [8, 2048])
def test_encrypt_matches_one_sample_gaussian_per_noise_weight(N):
    # The flood is drawn per element as one block; the reference draws each
    # weight's Gaussian with its own sample_gaussian call, element by element.
    pr = ring.RingParams.from_bits(N, 54, 2**12)
    rng = run_rng("flood-block", N)
    m = 3
    basis = tuple(ring.sample_uniform(rng, pr) for _ in range(m))
    s = ring.sample_uniform(rng, pr)
    x = [ring.sample_uniform(rng, pr) for _ in range(m)]
    mask = [ring.sample_uniform(rng, pr) for _ in range(m)]
    for weights in [(1,), (1,) * 47, (5, 0, pr.q - 1, 5, 2**64 + 12345, 1)]:
        got = crypto.encrypt(basis, s, x, 44.8, ctx_rng("fb", N, len(weights)), weights, mask)
        g = ctx_rng("fb", N, len(weights))
        want = []
        for e in range(m):
            terms = [(1, x[e]), (1, ring.mul(basis[e], s)), (1, mask[e])]
            terms += [(c * pr.T, ring.sample_gaussian(g, 44.8, pr)) for c in weights if c]
            want.append(ring.lincomb(terms, pr))
        assert got == tuple(want)


def test_encrypt_forms_no_product_for_a_zero_basis(monkeypatch):
    # A reveal with no earlier weights gets an all-zero basis: its upload is
    # x + mask + T * (1*g_1 + 3*g_2), the same as with the zero product added.
    rng = run_rng("zero-basis")
    s = ring.sample_uniform(rng, PR)
    x = _encode(list(range(16)))
    mask = [ring.sample_uniform(rng, PR) for _ in range(2)]
    basis = (PR.zero(), PR.zero())
    g = ctx_rng("zb", 1)
    want = tuple(
        ring.mul(basis[k], s) + x[k] + mask[k]
        + ring.sample_gaussian(g, 3.2, PR).scalar(PR.T)
        + ring.sample_gaussian(g, 3.2, PR).scalar(3 * PR.T)
        for k in range(2)
    )

    def no_mul(a, b):
        raise AssertionError("ring.mul called for a zero basis element")

    monkeypatch.setattr(ring, "mul", no_mul)
    got = crypto.encrypt(basis, s, x, 3.2, ctx_rng("zb", 1), (1, 3), mask=mask)
    assert got == want


@pytest.mark.parametrize("mask_len", [1, 3])
def test_encrypt_refuses_a_mask_of_the_wrong_length(mask_len):
    rng = run_rng("mask-length", mask_len)
    basis = [ring.sample_uniform(rng, PR) for _ in range(2)]
    x = [ring.sample_uniform(rng, PR) for _ in range(2)]
    mask = [ring.sample_uniform(rng, PR) for _ in range(mask_len)]
    with pytest.raises(ValueError, match="mask shape does not match message shape"):
        crypto.encrypt(basis, PR.zero(), x, 0.0, ctx_rng("n", 1), (1,), mask=mask)
