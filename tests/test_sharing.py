import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stateful_agg import ring, sharing
from stateful_agg.prng import ctx_rng

from helpers import run_rng

F17 = ring.RingParams(1, 2, q=17)  # degree-1 ring: plain mod-17 scalars
SMALL = ring.RingParams(8, 2, q=97)


def scalar(v, pr=F17):
    """v in Z_q as an element of pr, a degree-1 ring."""
    return pr.from_coeffs([v])


def degree1(pr):
    """Z_q over pr's limbs: the degree-1 ring scalars are shared in."""
    return ring.RingParams(1, pr.T, limbs=pr.limbs)


def shamir_points(secret, poly, xs, p):
    """Reference: evaluate secret + poly[0]*x + poly[1]*x^2 + ... at each x, mod p."""
    out = []
    for x in xs:
        acc = 0
        for c in reversed(poly):
            acc = (acc + c) * x % p
        out.append((acc + secret) % p)
    return out


def test_ashare_single():
    rng = run_rng("a1")
    secret = ring.sample_uniform(rng, SMALL)
    shares = sharing.ashare(secret, 1, rng)
    assert len(shares) == 1 and shares[0] == secret


def test_ashare_zero_secret():
    rng = run_rng("a0")
    shares = sharing.ashare(SMALL.zero(), 3, rng)
    assert sharing.piece_sum(shares, SMALL) == SMALL.zero()


def test_ashare_sum_oracle():
    rng = run_rng("asum")
    secret = ring.sample_uniform(rng, SMALL)
    shares = sharing.ashare(secret, 5, rng)
    acc = np.zeros(8, dtype=object)
    for s in shares:
        acc = acc + s.coeffs
    assert list(acc % SMALL.q) == list(secret.coeffs)


def test_ashare_invalid_count():
    with pytest.raises(ValueError, match="count"):
        sharing.ashare(SMALL.zero(), 0, run_rng("bad"))


def test_ashare_counts_property():
    rng = run_rng("adall")
    for d in range(1, 65):
        secret = ring.sample_uniform(rng, SMALL)
        assert sharing.piece_sum(sharing.ashare(secret, d, rng), SMALL) == secret


def test_shamir_hand_example():
    # polynomial 5 + 3X over F_17: shares at 1,2,3 are 8, 11, 14
    assert shamir_points(5, [3], [1, 2, 3], 17) == [8, 11, 14]
    s8, s11, s14 = scalar(8), scalar(11), scalar(14)
    got = sharing.trec([(1, s8), (2, s11)], 2)
    assert got == scalar(5)
    assert sharing.trec([(2, s11), (3, s14)], 2) == scalar(5)
    assert sharing.trec([(1, s8), (3, s14)], 2) == scalar(5)


def test_tshare_trec_exhaustive_small_field():
    rng = run_rng("ex17")
    for h in range(1, 11):
        for t in range(1, h + 1):
            for secret in range(0, 17, 4):
                ts = sharing.tshare(scalar(secret), h, t, rng)
                assert sharing.trec(ts) == scalar(secret)
                # any t-subset reconstructs
                assert sharing.trec(list(ts.shares[:t]), t) == scalar(secret)
                assert sharing.trec(list(ts.shares[-t:]), t) == scalar(secret)


def test_tshare_t1_each_share_alone():
    rng = run_rng("t1")
    ts = sharing.tshare(scalar(9), 4, 1, rng)
    for pair in ts.shares:
        assert sharing.trec([pair], 1) == scalar(9)


def test_tshare_full_threshold_insufficient():
    rng = run_rng("th")
    ts = sharing.tshare(scalar(5), 3, 3, rng)
    with pytest.raises(ValueError, match="at least 3"):
        sharing.trec(list(ts.shares[:2]), 3)


def test_trec_duplicate_points():
    with pytest.raises(ValueError, match="duplicate"):
        sharing.trec([(1, scalar(8)), (1, scalar(8))], 2)


def test_trec_invalid_threshold():
    with pytest.raises(ValueError, match="threshold"):
        sharing.tshare(scalar(5), 3, 4, run_rng("x"))


def test_tshare_uniform_share_distribution():
    # t=2, h=3 over F_17: as the blinding coefficient sweeps the field, each
    # share value is hit exactly once -> single shares reveal nothing.
    for secret in (0, 5, 16):
        for x in (1, 2, 3):
            seen = sorted(
                shamir_points(secret, [a], [x], 17)[0] for a in range(17)
            )
            assert seen == list(range(17))


def test_tshare_ring_element():
    rng = run_rng("tring")
    secret = ring.sample_uniform(rng, SMALL)
    ts = sharing.tshare(secret, 5, 3, rng)
    assert sharing.trec(ts) == secret
    subset = sharing.trec(list(ts.shares[1:4]), 3)
    assert subset == secret
    assert sharing.trec(list(ts.shares), 3) == secret


def test_tshare_zero():
    rng = run_rng("tzero")
    ts = sharing.tshare(scalar(0), 4, 2, rng)
    assert sharing.trec(ts) == scalar(0)


def test_tshare_rns_scalar():
    pr = degree1(ring.RingParams.from_bits(8, 50, 2))
    rng = run_rng("trns")
    secret = scalar(123456789012345 % pr.q, pr)
    ts = sharing.tshare(secret, 5, 3, rng)
    assert sharing.trec(list(ts.shares[:3]), 3) == secret


def test_expand_seed_deterministic():
    a = sharing.expand_seed(42, SMALL)
    b = sharing.expand_seed(42, SMALL)
    c = sharing.expand_seed(43, SMALL)
    assert a == b and a != c


def test_seed_reshare_sum():
    rng = run_rng("sr")
    secret = ring.sample_uniform(rng, SMALL)
    sr = sharing.seed_reshare(secret, 4, rng)
    acc = sr.correction
    for s in sr.seeds:
        acc = acc + sharing.expand_seed(s, SMALL)
    assert acc == secret


def test_seed_reshare_single():
    rng = run_rng("sr1")
    secret = ring.sample_uniform(rng, SMALL)
    sr = sharing.seed_reshare(secret, 1, rng)
    assert sr.correction == secret - sharing.expand_seed(sr.seeds[0], SMALL)


def test_seed_reshare_peer_bits():
    rng = run_rng("srbits")
    sr = sharing.seed_reshare(SMALL.zero(), 7, rng)
    assert len(sr.seeds) == 7
    assert all(s < 2**sharing.SEED_BITS for s in sr.seeds)


def _newton_horner(values, x, p):
    """Value at x, mod p, of the polynomial through (k, values[k]) for
    k = 0..len(values)-1, over Python ints: Newton's divided differences
    (the points are k, so x_k - x_(k-j) = j), then Horner's rule on the
    nested form c_0 + (x - 0)(c_1 + (x - 1)(c_2 + ...))."""
    coef = [v % p for v in values]
    for j in range(1, len(coef)):
        for k in range(len(coef) - 1, j - 1, -1):
            coef[k] = (coef[k] - coef[k - 1]) * pow(j, -1, p) % p
    acc = 0
    for k in reversed(range(len(coef))):
        acc = (acc * (x - k) + coef[k]) % p
    return acc


def _horner_shares(secrets, h, t, rng, pr):
    """Reference seeded sharing.  Per secret, t-1 seeds of 16 bytes each,
    drawn one by one; the shares at points 1..t-1 are the seeds' expansions
    (a uniform element on a Philox keyed by the seed), and each limb and
    coefficient of the share at x >= t is the value at x of the polynomial
    through (0, secret) and those t-1 points.  Returns per secret its seeds
    and the (L, W) residues of its shares at 1..h."""
    out = []
    for s in secrets:
        seeds = [int.from_bytes(rng.bytes(16), "big") for _ in range(t - 1)]
        rows = [s.res] + [ring.sample_uniform(ctx_rng("seed-expand", sd), pr).res for sd in seeds]
        shares = [[[int(v) for v in row] for row in res] for res in rows[1:]]
        for x in range(t, h + 1):
            shares.append([
                [
                    _newton_horner([int(res[l, w]) for res in rows], x, p)
                    for w in range(s.res.shape[1])
                ]
                for l, p in enumerate(pr.limbs)
            ])
        out.append((seeds, shares))
    return out


def _share_residues(ts):
    return [[[int(v) for v in row] for row in value.res] for _, value in ts.shares]


# A single 31-bit limb: with h = t = 20 the Lagrange weights mod p reach
# ~2^31, so t * max(weight) * p exceeds 2^64 and the kernel must reduce early.
WIDE = ring.RingParams(8, 3, limbs=(ring.find_ntt_prime(16, 31),))


@pytest.mark.parametrize(
    "logq, limbs, h, t",
    [(27, 1, 5, 3), (50, 2, 6, 4), (100, 4, 4, 2), (50, 2, 4, 1), (100, 4, 5, 5), (None, 1, 20, 20)],
)
def test_tshare_matches_horner_reference(logq, limbs, h, t):
    pr = WIDE if logq is None else ring.RingParams.from_bits(8, logq, 3)
    assert len(pr.limbs) == limbs
    if pr is WIDE:
        p = pr.limbs[0]
        # The Lagrange weight of point i at x interpolates the indicator of i.
        wmax = max(
            _newton_horner([int(k == i) for k in range(t)], x, p)
            for x in range(t, h + 1) for i in range(t)
        )
        assert t * wmax * (p - 1) >= 2**64
    elems = [ring.sample_uniform(run_rng("hr-e", h, t, k), pr) for k in range(3)]
    scalars = [
        scalar(int(run_rng("hr-s", h, t, k).integers(0, 2**62)) % pr.q, degree1(pr))
        for k in range(3)
    ]
    for secrets in (elems, scalars):
        want = _horner_shares(secrets, h, t, run_rng("hr", h, t), secrets[0].params)
        many = sharing.tshare_many(secrets, h, t, run_rng("hr", h, t))
        rng = run_rng("hr", h, t)
        single = [sharing.tshare(s, h, t, rng) for s in secrets]
        for (seeds, ref), a, b in zip(want, many, single):
            assert _share_residues(a) == _share_residues(b) == ref
            assert list(a.seeds) == list(b.seeds) == seeds
            assert [x for x, _ in a.shares] == list(range(1, h + 1))


def _property_params(limbs, N):
    pr = ring.RingParams.from_bits(8, {1: 27, 2: 50, 3: 75, 4: 100}[limbs], 3)
    return pr if N == 8 else degree1(pr)


@settings(max_examples=60, deadline=None)
@given(
    h=st.integers(1, 12),
    data=st.data(),
    limbs=st.integers(1, 4),
    N=st.sampled_from([1, 8]),
    K=st.integers(1, 3),
    key=st.integers(0, 2**32 - 1),
)
def test_seeded_sharing_properties(h, data, limbs, N, K, key):
    # Every t-subset interpolates to its secret, the shares at 1..t-1 are the
    # expansions of seeds drawn from the generator, and one tshare_many call
    # shares as K tshare calls on one generator do.
    t = data.draw(st.integers(1, h), label="t")
    pr = _property_params(limbs, N)
    secrets = [ring.sample_uniform(run_rng("prop-secret", key, k), pr) for k in range(K)]
    many = sharing.tshare_many(secrets, h, t, run_rng("prop", key))
    rng, draws = run_rng("prop", key), run_rng("prop", key)
    single = [sharing.tshare(s, h, t, rng) for s in secrets]
    for secret, a, b in zip(secrets, many, single):
        seeds = tuple(int.from_bytes(draws.bytes(16), "big") for _ in range(t - 1))
        assert a.seeds == b.seeds == seeds
        assert _share_residues(a) == _share_residues(b)
        for x, seed in enumerate(seeds, start=1):
            assert a.shares[x - 1] == (x, sharing.expand_seed(seed, pr))
        for subset in itertools.combinations(a.shares, t):
            assert sharing.trec(list(subset), t) == secret


def test_trec_every_t_subset_and_summed_bundles():
    pr = ring.RingParams.from_bits(8, 50, 3)
    h, t = 5, 3
    rng = run_rng("subsets")
    secrets = [ring.sample_uniform(rng, pr) for _ in range(3)]
    shared = sharing.tshare_many(secrets, h, t, rng)
    # Shamir is linear: the point-wise sum of the sharings shares the sum.
    summed = [
        (x, sharing.piece_sum([ts.shares[x - 1][1] for ts in shared], pr))
        for x in range(1, h + 1)
    ]
    total = sharing.piece_sum(secrets, pr)
    for subset in itertools.combinations(range(h), t):
        for ts, secret in zip(shared, secrets):
            assert sharing.trec([ts.shares[i] for i in subset], t) == secret
        assert sharing.trec([summed[i] for i in subset], t) == total
    value = scalar(987654321012345 % pr.q, degree1(pr))
    ts = sharing.tshare(value, h, t, rng)
    for subset in itertools.combinations(ts.shares, t):
        assert sharing.trec(list(subset), t) == value


# One, two and four limbs; the single limb is 31 bits wide.
SUM_PARAMS = [
    ring.RingParams(64, 3, limbs=(ring.find_ntt_prime(128, 31),)),
    ring.RingParams.from_bits(64, 50, 3),
    ring.RingParams.from_bits(64, 100, 3),
]


@pytest.mark.parametrize("pr", SUM_PARAMS, ids=["1-limb-31-bit", "2-limb", "4-limb"])
@pytest.mark.parametrize("d", [0, 1, 34, 64])
def test_piece_sum_equals_per_seed_expansion_sum(pr, d):
    rng = run_rng("piece-sum", len(pr.limbs), d)
    seeds = [int.from_bytes(rng.bytes(16), "big") for _ in range(d)]
    expanded = [sharing.expand_seed(s, pr) for s in seeds]
    want = pr.zero()
    for s in seeds:
        want = want + sharing.expand_seed(s, pr)
    assert sharing.piece_sum(expanded, pr) == want
    elems = [ring.sample_uniform(rng, pr) for _ in range(d)]
    mixed = pr.zero()
    for e in elems:
        mixed = mixed + e
    assert sharing.piece_sum(elems, pr) == mixed
    assert sharing.piece_sum(expanded + elems, pr) == want + mixed


def test_piece_sum_rejects_foreign_params():
    other = ring.RingParams(8, 2, q=113)
    with pytest.raises(ValueError, match="mismatch"):
        sharing.piece_sum([SMALL.zero(), other.zero()], SMALL)


@pytest.mark.parametrize("d", [1, 2, 34])
@pytest.mark.parametrize("lead", [0, 1, 3])
def test_seed_reshare_one_draw_equals_single_seed_draws(d, lead):
    # `lead` uint32 draws first, so the generator may start mid-word.
    pr = SUM_PARAMS[1]
    secret = ring.sample_uniform(run_rng("one-draw-secret"), pr)
    rng, ref = run_rng("one-draw", d, lead), run_rng("one-draw", d, lead)
    rng.integers(0, 2**32, size=lead, dtype=np.uint32)
    ref.integers(0, 2**32, size=lead, dtype=np.uint32)
    sr = sharing.seed_reshare(secret, d, rng)
    want = tuple(int.from_bytes(ref.bytes(16), "big") for _ in range(d))
    assert sr.seeds == want
    total = pr.zero()
    for s in want:
        total = total + sharing.expand_seed(s, pr)
    assert sr.correction == secret - total
    assert rng.integers(0, 2**32, size=5, dtype=np.uint32).tolist() == ref.integers(
        0, 2**32, size=5, dtype=np.uint32
    ).tolist()


@pytest.mark.parametrize("pr", SUM_PARAMS, ids=["1-limb-31-bit", "2-limb", "4-limb"])
@pytest.mark.parametrize("d", [1, 2, 5, 64])
def test_ashare_and_reconstruct_match_elementwise_reference(pr, d):
    secret = ring.sample_uniform(run_rng("ashare-ref-secret", d), pr)
    ref_rng = run_rng("ashare-ref", len(pr.limbs), d)
    parts = [ring.sample_uniform(ref_rng, pr) for _ in range(d - 1)]
    last = secret
    for p in parts:
        last = last - p
    want = parts + [last]
    got = sharing.ashare(secret, d, run_rng("ashare-ref", len(pr.limbs), d))
    assert list(got) == want
    acc = want[0]
    for e in want[1:]:
        acc = acc + e
    assert sharing.piece_sum(got, pr) == acc == secret
    assert sharing.piece_sum(list(reversed(want)), pr) == secret


@pytest.mark.parametrize("make, why", [
    (lambda: sharing.trec([(1, SMALL.one()), (2, SMALL.one())]),
     "threshold required when passing raw share pairs"),
    (lambda: sharing.seed_reshare(SMALL.one(), 0, run_rng("seed-reshare-d0")),
     "share count must be >= 1"),
], ids=["trec-without-t", "seed-reshare-d0"])
def test_malformed_sharing_inputs_fail_closed(make, why):
    with pytest.raises(ValueError, match=why):
        make()
