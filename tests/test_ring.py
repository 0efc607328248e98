import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from stateful_agg import ring
from stateful_agg.prng import ctx_rng

from helpers import negacyclic_reference, run_rng

TINY = ring.RingParams(4, 2, q=17)

# chi-square critical value at the 0.999 level, 16 degrees of freedom
CHI2_999_DF16 = 39.252


def test_add_identity():
    a = TINY.from_coeffs([1, 2, 3, 4])
    assert (a + TINY.zero()) == a


def test_add_wraparound():
    a = TINY.from_coeffs([1, 2, 3, 4])
    b = TINY.from_coeffs([16, 16, 16, 16])
    assert list((a + b).coeffs) == [0, 1, 2, 3]


def test_add_matches_bigint_oracle():
    pr = ring.RingParams.from_bits(8, 40, 2)
    rng = run_rng("add-oracle")
    for _ in range(50):
        av = [int(rng.integers(0, 2**40)) % pr.q for _ in range(8)]
        bv = [int(rng.integers(0, 2**40)) % pr.q for _ in range(8)]
        got = pr.from_coeffs(av) + pr.from_coeffs(bv)
        want = [(x + y) % pr.q for x, y in zip(av, bv)]
        assert list(got.coeffs) == want


def test_add_params_mismatch():
    other = ring.RingParams(4, 2, q=97)
    with pytest.raises(ValueError, match="mismatch"):
        TINY.zero() + other.zero()


def test_mul_identity():
    a = TINY.from_coeffs([5, 7, 11, 13])
    assert ring.mul(a, TINY.one()) == a


def test_mul_negacyclic_wrap():
    # X * X^3 = X^4 = -1
    x = TINY.from_coeffs([0, 1, 0, 0])
    x3 = TINY.from_coeffs([0, 0, 0, 1])
    assert list(ring.mul(x, x3).coeffs) == [16, 0, 0, 0]


@pytest.mark.parametrize("n", [8, 256])
def test_ntt_matches_schoolbook_and_reference(n):
    pr = ring.RingParams.from_bits(n, 24, 2)
    rng = run_rng("ntt", n)
    trials = 1000 if n == 8 else 50
    for t in range(trials):
        a = ring.sample_uniform(rng, pr)
        b = ring.sample_uniform(rng, pr)
        fast = ring.mul_ntt(a, b)
        slow = ring.mul_schoolbook(a, b)
        assert fast == slow
        if t < 5:
            want = negacyclic_reference(a.coeffs, b.coeffs, n, pr.q)
            assert list(fast.coeffs) == want


def test_mul_dispatch_threshold():
    # Below the NTT threshold mul uses the quadratic path; both agree anyway.
    pr = ring.RingParams.from_bits(16, 20, 2)
    rng = run_rng("dispatch")
    a, b = ring.sample_uniform(rng, pr), ring.sample_uniform(rng, pr)
    assert ring.mul(a, b) == ring.mul_schoolbook(a, b) == ring.mul_ntt(a, b)


@pytest.mark.parametrize("logq", [30, 60, 90])
def test_mul_paths_agree_at_the_ntt_threshold(logq):
    # N=128 is the smallest degree on the NTT path; N=64 stays quadratic.
    assert ring.NTT_MIN_DEGREE == 128
    for n in (64, 128):
        pr = ring.RingParams.from_bits(n, logq, 2)
        rng = run_rng("threshold", n, logq)
        for _ in range(3):
            a, b = ring.sample_uniform(rng, pr), ring.sample_uniform(rng, pr)
            assert ring.mul(a, b) == ring.mul_schoolbook(a, b) == ring.mul_ntt(a, b)


def test_distributivity():
    pr = ring.RingParams.from_bits(8, 30, 2)
    rng = run_rng("distrib")
    for _ in range(50):
        a, b, c = (ring.sample_uniform(rng, pr) for _ in range(3))
        assert ring.mul(a, b + c) == ring.mul(a, b) + ring.mul(a, c)


def test_scalar_mul():
    a = TINY.from_coeffs([1, 2, 3, 4])
    assert a.scalar(0) == TINY.zero()
    assert a.scalar(1) == a
    assert a.scalar(3) == a + a + a
    # negative scalars reduce mod q
    assert a.scalar(-1) == -a


def test_rns_matches_single_modulus_semantics():
    # Two-limb modulus: all ops agree with big-int arithmetic mod q.
    pr = ring.RingParams.from_bits(8, 50, 2)
    assert len(pr.limbs) == 2
    rng = run_rng("rns")
    for _ in range(20):
        av = [int(rng.integers(0, 2**50)) % pr.q for _ in range(8)]
        bv = [int(rng.integers(0, 2**50)) % pr.q for _ in range(8)]
        a, b = pr.from_coeffs(av), pr.from_coeffs(bv)
        assert list((a + b).coeffs) == [(x + y) % pr.q for x, y in zip(av, bv)]
        assert list(ring.mul(a, b).coeffs) == negacyclic_reference(av, bv, 8, pr.q)
        k = int(rng.integers(-(2**20), 2**20))
        assert list(a.scalar(k).coeffs) == [(k * x) % pr.q for x in av]


def test_centered_lift():
    pr = ring.RingParams(4, 2, q=17)
    e = pr.from_coeffs([0, 1, 9, 16])
    assert list(e.centered()) == [0, 1, -8, -1]


def test_sample_uniform_deterministic():
    a = ring.sample_uniform(ctx_rng("u", 1), TINY)
    b = ring.sample_uniform(ctx_rng("u", 1), TINY)
    c = ring.sample_uniform(ctx_rng("u", 2), TINY)
    assert a == b
    assert a != c


def test_sample_uniform_chi_square():
    rng = ctx_rng("chi2")
    draws = np.concatenate(
        [np.asarray(ring.sample_uniform(rng, TINY).coeffs, dtype=np.int64) for _ in range(25000)]
    )
    counts = np.bincount(draws, minlength=17)
    expected = len(draws) / 17
    stat = float(((counts - expected) ** 2 / expected).sum())
    assert stat < CHI2_999_DF16


def test_sample_gaussian_zero_sigma():
    assert ring.sample_gaussian(ctx_rng("g"), 0.0, TINY) == TINY.zero()


def test_sample_gaussian_stats():
    draws = ring.gaussian_ints(ctx_rng("gstats"), 3.2, 100000)
    se = 3.2 / np.sqrt(len(draws))
    assert abs(draws.mean()) < 3 * se
    assert abs(draws.std() - 3.2) < 0.02 * 3.2


def test_sample_gaussian_deterministic():
    a = ring.sample_gaussian(ctx_rng("gd"), 2.5, TINY)
    b = ring.sample_gaussian(ctx_rng("gd"), 2.5, TINY)
    assert a == b


def test_sample_gaussian_truncation():
    draws = ring.gaussian_ints(ctx_rng("gt"), 1.0, 200000)
    assert abs(draws).max() <= 12


def test_encode_identity_packing():
    pr = ring.RingParams.from_bits(4, 30, 2**16)
    els = ring.encode([7, 8, 9], 1, 16, pr)
    assert len(els) == 1
    assert list(els[0].coeffs) == [7, 8, 9, 0]


def test_encode_packed_example():
    pr = ring.RingParams.from_bits(4, 40, 2**32)
    els = ring.encode([1, 2, 3, 4], 2, 16, pr)
    assert list(els[0].coeffs) == [1 + 2 * 2**16, 3 + 4 * 2**16, 0, 0]


def test_encode_decode_roundtrip():
    pr = ring.RingParams.from_bits(4, 40, 2**32)
    rng = run_rng("pack")
    for ell in (1, 4, 7, 9):
        vals = [int(v) for v in rng.integers(0, 2**16, ell)]
        els = ring.encode(vals, 2, 16, pr)
        packed = (ell + 1) // 2
        assert len(els) == (packed + 3) // 4
        assert [int(v) for v in ring.decode(els, ell, 2, 16)] == vals


def test_encode_signed_unpacked():
    pr = ring.RingParams.from_bits(4, 30, 2**16)
    els = ring.encode([-3, 5], 1, 16, pr)
    assert list(els[0].coeffs) == [2**16 - 3, 5, 0, 0]


def test_encode_overflow():
    pr = ring.RingParams.from_bits(4, 40, 2**32)
    with pytest.raises(ValueError, match="slot"):
        ring.encode([2**16, 0], 2, 16, pr)


def test_decode_zero():
    pr = ring.RingParams.from_bits(4, 40, 2**32)
    assert [int(v) for v in ring.decode([pr.zero()], 4, 2, 16)] == [0, 0, 0, 0]


def test_params_validation():
    with pytest.raises(ValueError, match="power of two"):
        ring.RingParams(3, 2, q=17)
    with pytest.raises(ValueError, match="coprime"):
        ring.RingParams(4, 17, q=17)
    with pytest.raises(ValueError, match="mod 2N"):
        ring.RingParams(4, 2, q=19)  # 19 != 1 mod 8


def test_choose_limbs_bit_lengths():
    for n, logq in [(8, 17), (16, 50), (2048, 44), (4096, 96), (4096, 109),
                    (8192, 218), (16384, 413), (16384, 434)]:
        limbs = ring.choose_limbs(n, logq)
        q = 1
        for p in limbs:
            q *= p
        assert q.bit_length() == logq
        assert all((p - 1) % (2 * n) == 0 for p in limbs)
        assert all(p.bit_length() <= ring.LIMB_MAX_BITS + 1 for p in limbs)
        assert len(set(limbs)) == len(limbs)
        # every split must build a valid parameter set
        ring.RingParams(n, 3, limbs=limbs)


# Values of logq that no set of distinct primes congruent to 1 mod 2N and
# below 2^(LIMB_MAX_BITS+1) can realize, up to each N's security cap.
INFEASIBLE_LOGQ = {2048: {15}, 4096: {15}, 8192: {16, 19, 32}, 16384: {19, 32, 33, 35}}


def test_choose_limbs_every_logq_up_to_the_security_cap():
    from stateful_agg.params import SECURITY_LOGQ

    for n, cap in sorted(SECURITY_LOGQ.items()):
        infeasible = set()
        for logq in range((2 * n).bit_length() + 1, cap + 1):
            try:
                limbs = ring.choose_limbs(n, logq)
            except ValueError as exc:
                assert f"logq={logq}" in str(exc) and f"N={n}" in str(exc)
                infeasible.add(logq)
                continue
            assert len(set(limbs)) == len(limbs)
            assert all(ring._is_prime(p) and (p - 1) % (2 * n) == 0 for p in limbs)
            assert all(p.bit_length() <= ring.LIMB_MAX_BITS + 1 for p in limbs)
            q = 1
            for p in limbs:
                q *= p
            assert q.bit_length() == logq, (n, logq)
        assert infeasible == INFEASIBLE_LOGQ[n], n


def _searchsorted_table(sigma):
    # Reference inverse-CDF table: the sampler must return exactly
    # zs[searchsorted(cdf, u, "left")] for every u it draws.
    bound = int(np.ceil(12 * sigma))
    zs = np.arange(-bound, bound + 1, dtype=np.int64)
    logp = -(zs.astype(np.float64) ** 2) / (2 * sigma * sigma)
    cdf = np.cumsum(np.exp(logp - logp.max()))
    return zs, cdf / cdf[-1]


class _FixedWords(np.random.Philox):
    """A Philox whose random_raw returns chosen words, for crafted draws."""

    def __init__(self, words):
        super().__init__(0)
        self.words = np.asarray(words, dtype=np.uint64)

    def random_raw(self, size=None, output=True):
        return self.words.reshape(size).copy()


def _as_words(u):
    """The words whose doubles (x >> 11) * 2^-53 are floor(u * 2^53) * 2^-53,
    once with the low 11 bits clear and once with them all set."""
    x = (np.asarray(u, dtype=np.float64) * 2.0**53).astype(np.uint64) << np.uint64(11)
    return np.concatenate([x, x | np.uint64(0x7FF)])


def _check_crafted_words(sigma, words):
    # The float lookup on the doubles Generator.random makes of the words.
    zs, cdf = _searchsorted_table(sigma)
    want = zs[np.searchsorted(cdf, (words >> np.uint64(11)) * 2.0**-53, side="left")]
    got = ring.gaussian_ints(np.random.Generator(_FixedWords(words)), sigma, len(words))
    assert got.dtype == np.int64 and np.array_equal(got, want)
    rows = words[: len(words) // 2 * 2]
    block = ring.gaussian_ints(np.random.Generator(_FixedWords(rows)), sigma, (2, len(rows) // 2))
    assert np.array_equal(block, want[: len(rows)].reshape(2, -1))


@pytest.mark.parametrize("sigma", [0.3, 1.0, 3.2, 44.8, 64.0, 250.0])
def test_gaussian_ints_match_searchsorted(sigma):
    zs, cdf = _searchsorted_table(sigma)
    for size in (1, 64, 2048, (3, 700), 10**6):
        got = ring.gaussian_ints(ctx_rng("gss", sigma, str(size)), sigma, size)
        u = ctx_rng("gss", sigma, str(size)).random(size)
        assert got.shape == u.shape
        assert np.array_equal(got, zs[np.searchsorted(cdf, u, side="left")])


@pytest.mark.parametrize("sigma", [0.3, 1.0, 3.2, 44.8, 64.0, 250.0, 640.0])
def test_gaussian_ints_match_searchsorted_on_crafted_uniforms(sigma):
    # The words where an integer lookup can go wrong: every direct-table
    # bucket edge k << (64 - b) and its neighbours, every threshold
    # thr[i] << 11 and (thr[i] +- 1) << 11, and the doubles at the float
    # table's bucket edges b/m, its cdf values, their neighbours and the
    # ends of [0, 1), each also with the low 11 bits all set.
    thr, _, shift, _ = ring._gauss_table(sigma)
    _, cdf = _searchsorted_table(sigma)
    one = np.uint64(1)
    edges = np.arange(1 << (64 - int(shift)), dtype=np.uint64) << shift
    at = np.concatenate([thr, thr - one, thr + one]) << np.uint64(11)
    m = len(cdf)
    u = np.concatenate([np.arange(m + 1) / m, cdf, [0.0, 1.0 - 2.0**-53]])
    u = np.concatenate([u, np.nextafter(u, 0.0), np.nextafter(u, 1.0)])
    words = np.concatenate([edges, edges - one, edges + one, at, at | np.uint64(0x7FF)])
    _check_crafted_words(sigma, np.concatenate([words, _as_words(u[(u >= 0.0) & (u < 1.0)])]))


@pytest.mark.parametrize("sigma", [0.3, 1.0, 3.2, 44.8, 64.0, 250.0])
def test_gaussian_ints_match_searchsorted_at_eighth_bucket_edges(sigma):
    # The doubles b/(8m) for m table entries and their neighbours on both
    # sides: a grid finer than the table that no threshold is aligned to.
    _, cdf = _searchsorted_table(sigma)
    m8 = 8 * len(cdf)
    edges = np.arange(m8 + 1) / m8
    u = np.concatenate([edges, np.nextafter(edges, 0.0), np.nextafter(edges, 1.0)])
    _check_crafted_words(sigma, _as_words(u[(u >= 0.0) & (u < 1.0)]))


def _same_state(a, b):
    if isinstance(a, dict):
        return a.keys() == b.keys() and all(_same_state(a[k], b[k]) for k in a)
    return np.array_equal(a, b)


@pytest.mark.parametrize("sigma", [0.3, 1.0, 3.2, 44.8, 64.3, 250.0, 640.0])
def test_gaussian_ints_match_float_lookup_on_a_twin_generator(sigma):
    zs, cdf = _searchsorted_table(sigma)
    for size in (1, 64, 2048, (24, 2048), 10**6):
        rng, twin = ctx_rng("twin", sigma, str(size)), ctx_rng("twin", sigma, str(size))
        got = ring.gaussian_ints(rng, sigma, size)
        want = zs[np.searchsorted(cdf, twin.random(size), side="left")]
        assert got.dtype == np.int64 and got.shape == want.shape
        assert np.array_equal(got, want)
        assert _same_state(rng.bit_generator.state, twin.bit_generator.state)


@pytest.mark.parametrize("bitgen", [np.random.PCG64, np.random.PCG64DXSM, np.random.SFC64])
def test_gaussian_ints_match_float_lookup_on_other_64_bit_generators(bitgen):
    zs, cdf = _searchsorted_table(44.8)
    rng, twin = np.random.Generator(bitgen(7)), np.random.Generator(bitgen(7))
    got = ring.gaussian_ints(rng, 44.8, (3, 2048))
    assert np.array_equal(got, zs[np.searchsorted(cdf, twin.random((3, 2048)), side="left")])
    assert _same_state(rng.bit_generator.state, twin.bit_generator.state)


@pytest.mark.parametrize("sigma", [10.55, 2730.56])
def test_gaussian_ints_table_dtype_holds_the_sentinel(sigma):
    # bound = ceil(12 sigma) is 127 and 32767: the sentinel bound + 1 needs
    # the next wider dtype than -bound..bound does.
    zs, cdf = _searchsorted_table(sigma)
    assert int(zs[-1]) in (127, 32767)
    rng, twin = ctx_rng("sentinel", sigma), ctx_rng("sentinel", sigma)
    want = zs[np.searchsorted(cdf, twin.random((4, 2048)), side="left")]
    assert np.array_equal(ring.gaussian_ints(rng, sigma, (4, 2048)), want)


def test_gaussian_ints_refuse_a_generator_whose_doubles_take_two_words():
    # MT19937 builds each double from two 32-bit words, so its raw words
    # cannot reproduce Generator.random: fail closed, draw nothing.
    rng = np.random.Generator(np.random.MT19937(5))
    before = rng.bit_generator.state
    with pytest.raises(TypeError, match="MT19937"):
        ring.gaussian_ints(rng, 3.2, 64)
    with pytest.raises(TypeError, match="MT19937"):
        ring.sample_gaussian(rng, 3.2, TINY)
    assert _same_state(rng.bit_generator.state, before)


def test_gaussian_ints_guide_never_starts_past_the_answer():
    # Every direct-table bucket either holds the sentinel bound + 1 or holds
    # no threshold and answers with -bound plus the count of thresholds
    # below it, which is the lookup's answer for every word in the bucket.
    for sigma in (0.3, 3.2, 44.8, 250.0, 640.0):
        thr, table, shift, bound = ring._gauss_table(sigma)
        lo = np.arange(len(table), dtype=np.uint64) << (shift - np.uint64(11))
        hi = lo + (np.uint64(1) << (shift - np.uint64(11))) - np.uint64(1)
        below = np.searchsorted(thr, lo, side="left")
        direct = table != bound + 1
        assert np.array_equal(table[direct], below[direct] - bound)
        assert np.array_equal(below[direct], np.searchsorted(thr, hi[direct], side="right"))
        # The sentinel is rare: fewer buckets than thresholds.
        assert 0 < (~direct).sum() <= len(thr)


def _lincomb_params():
    one = ring.find_ntt_prime(64, 31)
    assert one.bit_length() == 31
    return [
        ring.RingParams(32, 2**8 + 1, limbs=(one,)),
        ring.RingParams(32, 2**8 + 1, limbs=ring.choose_limbs(32, 40)),
        ring.RingParams(32, 2**8 + 1, limbs=ring.choose_limbs(32, 109)),
    ]


@pytest.mark.parametrize("which", [0, 1, 2])
def test_lincomb_matches_per_term_scalars(which):
    pr = _lincomb_params()[which]
    assert len(pr.limbs) == [1, 2, 4][which]
    rng = run_rng("lincomb", which)
    weights = [0, 1, -1, pr.q - 1, pr.q + 1, 2**64 + 12345, -(2**70)]
    terms = [(weights[k % 7], ring.sample_uniform(rng, pr)) for k in range(47)]
    want = pr.zero()
    for w, a in terms:
        want = want + a.scalar(w)
    assert ring.lincomb(terms, pr) == want
    assert ring.lincomb(iter(terms), pr) == want
    assert ring.lincomb([], pr) == pr.zero()


def test_lincomb_rejects_mixed_params():
    pr, other = _lincomb_params()[1:]
    with pytest.raises(ValueError, match="ring params mismatch"):
        ring.lincomb([(1, pr.one()), (0, other.one())], pr)


@pytest.mark.parametrize(
    "pr,sigma",
    [
        # ceil(12 sigma) below the smallest limb: the conditional-add path.
        (TINY, 0.3),
        (TINY, 1.0),
        (ring.RingParams.from_bits(64, 44, 2**16), 13.0),
        (ring.RingParams.from_bits(64, 44, 2**16), 250.0),
        # ceil(12 sigma) = 24 and 1200 reach the limb 17: the np.mod path.
        (TINY, 2.0),
        (TINY, 100.0),
    ],
)
def test_sample_gaussian_matches_signed_mod(pr, sigma):
    for seed in range(5):
        got = ring.sample_gaussian(ctx_rng("gmod", seed), sigma, pr)
        ints = ring.gaussian_ints(ctx_rng("gmod", seed), sigma, pr.N)
        want = np.mod(ints, np.array(pr.limbs, dtype=np.int64)[:, None]).astype(np.uint64)
        assert got.res.dtype == np.uint64
        assert np.array_equal(got.res, want)


def _weighted_gaussian_reference(rng, sigma, pr, weights):
    """sum_k w_k * g_k with one gaussian_ints(rng, sigma, N) call per weight,
    each reduced by a signed np.mod and combined by lincomb."""
    ps = np.array(pr.limbs, dtype=np.int64)[:, None]
    terms = []
    for w in weights:
        res = np.mod(ring.gaussian_ints(rng, sigma, pr.N), ps).astype(np.uint64)
        terms.append((w, ring.RingElement(res, pr)))
    return ring.lincomb(terms, pr)


def _weighted_gaussian(rng, sigma, pr, weights):
    """sum_k w_k * g_k from one unit sample_gaussian draw per weight."""
    return ring.lincomb([(w, ring.sample_gaussian(rng, sigma, pr)) for w in weights], pr)


# 193 = 3*64 + 1 is prime: a 32-coefficient ring whose one limb a single
# draw at sigma 44.8 (bound 538) already overruns, so every draw takes the
# np.mod branch; at sigma 3.2 (bound 39) a single draw stays below it.
_WEIGHTED_PARAMS = {
    "1-limb-31-bit": ring.RingParams(32, 2**8 + 1, limbs=(ring.find_ntt_prime(64, 31),)),
    "2-limb": ring.RingParams(32, 2**8 + 1, limbs=ring.choose_limbs(32, 40)),
    "4-limb": ring.RingParams(32, 2**8 + 1, limbs=ring.choose_limbs(32, 109)),
    "2048-2-limb": ring.RingParams(2048, 2**16, limbs=ring.choose_limbs(2048, 54)),
    "tiny-limb": ring.RingParams(32, 2, limbs=(193,)),
}


def _weight_vectors(q):
    return {
        "one": (1,),
        "47-ones": (1,) * 47,
        "repeated": (3, 1, 3, 7, 1, 3, 3, 7),
        "distinct": (2, 5, 11, 13),
        "with-zero": (0, 4, 0, 4),
        "wide": (q - 1, 2**64 + 12345, q - 1, 1),
    }


@pytest.mark.parametrize("sigma", [3.2, 44.8])
@pytest.mark.parametrize("which", list(_WEIGHTED_PARAMS))
def test_weighted_sample_gaussian_matches_per_draw_lincomb(which, sigma):
    # A weighted sum of Gaussian elements is lincomb over unit draws; each
    # draw's reduction must agree with a signed np.mod, on either branch.
    pr = _WEIGHTED_PARAMS[which]
    for name, weights in _weight_vectors(pr.q).items():
        got = _weighted_gaussian(ctx_rng("wsg", which, name), sigma, pr, weights)
        want = _weighted_gaussian_reference(ctx_rng("wsg", which, name), sigma, pr, weights)
        assert got.res.dtype == np.uint64
        assert got == want, name
    one = ring.sample_gaussian(ctx_rng("wsg-1"), sigma, pr)
    assert one == _weighted_gaussian_reference(ctx_rng("wsg-1"), sigma, pr, (1,))
    assert (one.res < np.array(pr.limbs, dtype=np.uint64)[:, None]).all()


def test_weighted_sample_gaussian_reaches_past_the_conditional_add():
    # Single draws at sigma 100 overrun the limb 193: a conditional add
    # alone would leave values outside [0, p).
    pr = _WEIGHTED_PARAMS["tiny-limb"]
    ints = ring.gaussian_ints(ctx_rng("wsg-over"), 100.0, (47, pr.N))
    assert np.abs(ints).max() >= 193
    got = _weighted_gaussian(ctx_rng("wsg-over"), 100.0, pr, (1,) * 47)
    assert got.res.max() < 193
    assert np.array_equal(got.res[0], np.mod(ints.sum(axis=0), 193).astype(np.uint64))


@settings(max_examples=60, deadline=None)
@given(
    weights=st.lists(
        st.one_of(st.integers(-3, 3), st.integers(-(2**80), 2**80)), min_size=1, max_size=12
    ),
    which=st.sampled_from(["1-limb-31-bit", "4-limb", "tiny-limb"]),
    sigma=st.sampled_from([0.3, 3.2, 44.8]),
    seed=st.integers(0, 2**32),
)
def test_weighted_sample_gaussian_property(weights, which, sigma, seed):
    pr = _WEIGHTED_PARAMS[which]
    got = _weighted_gaussian(ctx_rng("wsg-prop", seed), sigma, pr, weights)
    assert got == _weighted_gaussian_reference(ctx_rng("wsg-prop", seed), sigma, pr, weights)


# The flood is not truncated, so its values come from a one-limb ring wide
# enough that |round(X)| < p/2 for every draw these tests can make.
_FLOOD_RING = ring.RingParams(2048, 2**16, limbs=(ring.find_ntt_prime(4096, 30),))


def _flood_ints(rng, sigma, count):
    p = _FLOOD_RING.limbs[0]
    res = np.concatenate(
        [ring.sample_flood(rng, sigma, _FLOOD_RING).res[0] for _ in range(count)]
    ).astype(np.int64)
    return np.where(res > p // 2, res - p, res)


@pytest.mark.parametrize("sigma", [307.1, 666450.0])
def test_sample_flood_mean_and_variance(sigma):
    # round(X) for X ~ N(0, sigma^2) has mean 0 and variance sigma^2 + 1/12.
    # Over M = 64 * 2048 draws the sample mean's standard error is
    # sigma / sqrt(M) and the sample variance's relative one sqrt(2 / M)
    # (0.39%); both must fall within five of them.
    draws = _flood_ints(ctx_rng("flood-stats", sigma), sigma, 64)
    m = len(draws)
    assert abs(draws.mean()) < 5 * sigma / math.sqrt(m)
    var = sigma * sigma + 1 / 12
    assert abs(draws.var() / var - 1) < 5 * math.sqrt(2 / m)
    assert np.abs(draws).max() <= 12 * sigma


@pytest.mark.parametrize("pr,sigma,passes", [
    (_FLOOD_RING, 307.1, False),  # every draw below the limb: the conditional add
    (_WEIGHTED_PARAMS["4-limb"], 666450.0, False),
    (_WEIGHTED_PARAMS["tiny-limb"], 100.0, True),  # draws pass the limb 193: np.mod
])
def test_sample_flood_matches_signed_mod_of_rounded_normals(pr, sigma, passes):
    widest = 0
    for seed in range(3):
        got = ring.sample_flood(ctx_rng("flood-mod", seed), sigma, pr)
        ints = np.rint(ctx_rng("flood-mod", seed).normal(0.0, sigma, pr.N)).astype(np.int64)
        want = np.mod(ints, np.array(pr.limbs, dtype=np.int64)[:, None]).astype(np.uint64)
        assert np.array_equal(got.res, want)
        widest = max(widest, int(np.abs(ints).max()))
    assert (widest >= min(pr.limbs)) == passes


def test_sample_flood_replays_from_the_same_generator():
    a = [ring.sample_flood(ctx_rng("flood-replay"), 307.1, _FLOOD_RING) for _ in range(2)]
    rng = ctx_rng("flood-replay")
    b = [ring.sample_flood(rng, 307.1, _FLOOD_RING) for _ in range(2)]
    assert a[0] == a[1] == b[0] != b[1]


def _encode_reference(values, pf, slot_width, params):
    """Slot packing over Python ints, one value at a time."""
    vals = [int(v) for v in values]
    n = params.N
    if pf == 1:
        coeffs = [v % params.T for v in vals]
    else:
        for v in vals:
            if not 0 <= v < 1 << slot_width:
                raise ValueError(f"value {v} does not fit a {slot_width}-bit slot")
        coeffs = [0] * -(-len(vals) // pf)
        for i, v in enumerate(vals):
            coeffs[i // pf] += v << ((i % pf) * slot_width)
    coeffs += [0] * (-len(coeffs) % n)
    return [
        params.from_coeffs(np.array(coeffs[k : k + n], dtype=object))
        for k in range(0, len(coeffs), n)
    ]


# (pf, slot_width) pairs: every pf up to 4, slot widths up to 62, and sets
# with T > 2^62 (pf == 1 at 2^64 and 2^70, slots of 63 and 70 bits).
PACKING_GRID = [
    (pf, w) for pf in (1, 2, 3, 4) for w in (1, 8, 16, 26, 31, 52, 62)
] + [(1, 64), (1, 70), (2, 63), (3, 70)]

# 9 limbs: q exceeds every T of the grid by more than a bit.
WIDE = ring.choose_limbs(8, 280)


def _grid_values(rng, pf, w, ell):
    if pf == 1:
        # Signed values, some beyond T.
        return [int(v) * 2 ** max(0, w - 60) + 5 for v in rng.integers(-(2**61), 2**61, ell)]
    if w <= 62:
        return [int(v) for v in rng.integers(0, 2**w, ell)]
    return [(int(v) << (w - 62)) | 1 for v in rng.integers(0, 2**62, ell)]


@pytest.mark.parametrize("pf,w", PACKING_GRID)
def test_encode_matches_python_int_reference(pf, w):
    pr = ring.RingParams(8, 2 ** (pf * w), limbs=WIDE)
    rng = run_rng("encode-ref", pf, w)
    for ell in (0, 1, 5, 8 * pf, 8 * pf + 3, 3 * 8 * pf):
        vals = _grid_values(rng, pf, w, ell)
        want = _encode_reference(vals, pf, w, pr)
        inputs = [vals, np.array(vals, dtype=object)]
        if all(-(2**63) <= v < 2**63 for v in vals):
            inputs.append(np.array(vals, dtype=np.int64))
        for arr in inputs:
            got = ring.encode(arr, pf, w, pr)
            assert got == want
            assert all(e.res.dtype == np.uint64 for e in got)
    if pf > 1:
        for bad in (-1, 2**w):
            with pytest.raises(ValueError, match=f"value {bad} does not fit a {w}-bit slot"):
                ring.encode([0, 1, bad, 2], pf, w, pr)
            with pytest.raises(ValueError, match=f"value {bad} does not fit a {w}-bit slot"):
                _encode_reference([0, 1, bad, 2], pf, w, pr)


@pytest.mark.parametrize("pf,w", PACKING_GRID)
def test_decode_inverts_encode(pf, w):
    pr = ring.RingParams(8, 2 ** (pf * w), limbs=WIDE)
    rng = run_rng("decode-roundtrip", pf, w)
    for ell in (1, 8 * pf + 3, 3 * 8 * pf):
        vals = _grid_values(rng, pf, w, ell)
        got = ring.decode(ring.encode(vals, pf, w, pr), ell, pf, w)
        assert len(got) == ell
        assert [int(v) for v in got] == [v % pr.T for v in vals]


@pytest.mark.parametrize("logq,limbs", [(20, 1), (40, 2), (120, 4)])
@pytest.mark.parametrize("k", [1, 31, 52, 62, 64])
def test_centered_mod_t_matches_centered(logq, limbs, k):
    pr = ring.RingParams(8, 2**k, limbs=ring.choose_limbs(8, logq))
    assert len(pr.limbs) == limbs
    q = pr.q
    rng = run_rng("lift", logq, k)
    edges = [0, q // 2, q // 2 + 1, q - 1, 1, q // 2 - 1, 2, q - 2]
    boundary = pr.from_coeffs(np.array(edges, dtype=object))
    for a in [boundary] + [ring.sample_uniform(rng, pr) for _ in range(50)]:
        got = ring.centered_mod_t(a)
        assert got.dtype == np.uint64
        assert [int(v) for v in got] == [int(v) for v in a.centered() % pr.T]


@pytest.mark.parametrize("T", [3, 2**8 + 1, 2**65])
def test_centered_mod_t_falls_back_beyond_powers_of_two_up_to_2_64(T):
    pr = ring.RingParams(8, T, limbs=ring.choose_limbs(8, 120))
    a = ring.sample_uniform(run_rng("lift-fallback", T), pr)
    assert list(ring.centered_mod_t(a)) == list(a.centered() % T)


# Reference NTT: radix-2 in-place kernels and Python-loop tables.  Every
# butterfly reduces with %, and the twiddles are powers built one multiply
# at a time.


def _reference_bit_reverse(n):
    width = n.bit_length() - 1
    return [int(format(i, f"0{width}b")[::-1], 2) if width else 0 for i in range(n)]


def _reference_tables(limbs, n):
    brv = _reference_bit_reverse(n)
    psi_rows, ipsi_rows = [], []
    for p in limbs:
        psi = ring._primitive_2n_root(p, 2 * n)
        for root, rows in ((psi, psi_rows), (pow(psi, -1, p), ipsi_rows)):
            pows, acc = [], 1
            for _ in range(n):
                pows.append(acc)
                acc = acc * root % p
            rows.append([pows[b] for b in brv])
    n_inv = np.array([pow(n, -1, p) for p in limbs], dtype=np.uint64).reshape(-1, 1)
    return np.array(psi_rows, dtype=np.uint64), np.array(ipsi_rows, dtype=np.uint64), n_inv


def _reference_ntt(res, psi, ps):
    a = res.copy()
    n = a.shape[1]
    t, m = 1, n // 2
    while m >= 1:
        view = a.reshape(-1, t, 2 * m)
        w = psi[:, t : 2 * t, None]
        u = view[:, :, :m]
        vw = view[:, :, m:] * w % ps
        lo = (u + vw) % ps
        hi = (u + ps - vw) % ps
        view[:, :, :m] = lo
        view[:, :, m:] = hi
        t *= 2
        m //= 2
    return a


def _reference_intt(res, psi_inv, ps, n_inv):
    a = res.copy()
    n = a.shape[1]
    t, m = n // 2, 1
    while m < n:
        view = a.reshape(-1, t, 2 * m)
        w = psi_inv[:, t : 2 * t, None]
        u = view[:, :, :m]
        v = view[:, :, m:]
        lo = (u + v) % ps
        hi = (u + ps - v) * w % ps
        view[:, :, :m] = lo
        view[:, :, m:] = hi
        t //= 2
        m *= 2
    return a * n_inv % ps.reshape(-1, 1)


def _widest_limbs(N, count):
    """The `count` largest primes 1 mod 2N below 2^31: the tightest case
    for the transforms' 2^52 bound."""
    limbs, k = [], (2**31 - 2) // (2 * N)
    while len(limbs) < count:
        if ring._is_prime(k * 2 * N + 1):
            limbs.append(k * 2 * N + 1)
        k -= 1
    return tuple(limbs)


NTT_CASES = [
    (256, ring.choose_limbs(256, 24)),
    (256, _widest_limbs(256, 2)),
    (2048, ring.choose_limbs(2048, 44)),
    (2048, _widest_limbs(2048, 2)),
    (4096, ring.choose_limbs(4096, 106)),
    (4096, _widest_limbs(4096, 3)),
    (16384, ring.choose_limbs(16384, 60)),
    (16384, _widest_limbs(16384, 7)),
]
NTT_IDS = [f"{N}-{len(limbs)}x{max(limbs).bit_length()}bit" for N, limbs in NTT_CASES]


@pytest.mark.parametrize("N,limbs", NTT_CASES, ids=NTT_IDS)
def test_ntt_kernels_match_reference_kernels(N, limbs):
    tbl = ring._tables(limbs, N)
    psi, psi_inv, n_inv = _reference_tables(limbs, N)
    ps = np.array(limbs, dtype=np.uint64).reshape(-1, 1, 1)
    top = ps.reshape(-1, 1) - np.uint64(1)
    spikes = []
    for idx in (0, N - 1):
        s = np.zeros((len(limbs), N), dtype=np.uint64)
        s[:, idx] = top[:, 0]
        spikes.append(s)
    rng = run_rng("ntt-kernels", N, limbs)
    inputs = [
        rng.integers(0, 2**63, (len(limbs), N), dtype=np.uint64) % ps.reshape(-1, 1),
        np.repeat(top, N, axis=1),
        np.zeros((len(limbs), N), dtype=np.uint64),
        *spikes,
    ]
    for x in inputs:
        fwd = ring._ntt(x, tbl)
        assert np.array_equal(fwd, _reference_ntt(x, psi, ps))
        assert np.array_equal(ring._intt(x, tbl), _reference_intt(x, psi_inv, ps, n_inv))
        assert np.array_equal(ring._intt(fwd, tbl), x)


def _python_int_tables(p, N):
    """The six four-step tables of ring._NttTables for one limb, as lists of
    rows of Python-int residues: forward F2, T, F1 and inverse G1, U, G2."""
    n1 = 2 ** ((N.bit_length() - 1) // 2)
    n2 = N // n1
    psi = ring._primitive_2n_root(p, 2 * N)
    psi_inv, n_inv = pow(psi, -1, p), pow(N, -1, p)
    brv1, brv2 = _reference_bit_reverse(n1), _reference_bit_reverse(n2)
    odd = [2 * brv2[r] + 1 for r in range(n2)]
    f2 = [[pow(psi, n1 * j2 * odd[r], p) for j2 in range(n2)] for r in range(n2)]
    tw = [[pow(psi, j1 * odd[r], p) for j1 in range(n1)] for r in range(n2)]
    f1 = [[pow(psi, 2 * n2 * j1 * brv1[c], p) for c in range(n1)] for j1 in range(n1)]
    g1 = [[pow(psi_inv, 2 * n2 * j1 * brv1[c], p) for j1 in range(n1)] for c in range(n1)]
    u = [[pow(psi_inv, j1 * odd[r], p) for j1 in range(n1)] for r in range(n2)]
    g2 = [[n_inv * pow(psi_inv, n1 * j2 * odd[r], p) % p for r in range(n2)] for j2 in range(n2)]
    return f2, tw, f1, g1, u, g2


def _stage_bound_holds(stage, p, limb, first):
    """The analytic bound of one stage's table on one limb: inner*x*|top
    part| < 2^52 and, below the top part, Horner's
    (p+1)/2 * 2^s + inner*x*|part| < 2^52, with x = p-1 for the first
    stage's residues in [0, p) and (p+1)/2 after a reduction."""
    op, parts, s = stage
    inner = {ring._left: parts.shape[-1], ring._right: parts.shape[-2], np.multiply: 1}[op]
    x = p - 1 if first else (p + 1) // 2
    tops = [int(np.abs(parts[limb, i]).max()) for i in range(parts.shape[1])]
    horner = [(p + 1) // 2 * 2**s + inner * x * top for top in tops[:-1]]
    return inner * x * tops[-1] < 2**52 and all(h < 2**52 for h in horner)


@pytest.mark.parametrize("N,limbs", NTT_CASES[:4], ids=NTT_IDS[:4])
def test_ntt_tables_match_python_int_powers(N, limbs):
    # Each table's parts recombine, sum_i part_i * 2^(s*i), to the Python-int
    # power of psi at its entry's exponent, per limb.
    tbl = ring._tables(limbs, N)
    assert (tbl.n1, tbl.n2) == (2 ** ((N.bit_length() - 1) // 2), N // tbl.n1)
    stages = tbl.fwd + tbl.inv
    ops = [ring._left, np.multiply, ring._right, ring._right, np.multiply, ring._left]
    assert [op for op, _, _ in stages] == ops
    for l, p in enumerate(limbs):
        for (op, parts, s), want in zip(stages, _python_int_tables(p, N)):
            assert np.array_equal(parts[l], np.rint(parts[l]))
            got = sum(
                parts[l, i].astype(np.int64).astype(object) * 2 ** (s * i)
                for i in range(parts.shape[1])
            )
            assert (got % p).tolist() == want
    assert ring._bit_reverse(N).tolist() == _reference_bit_reverse(N)


@pytest.mark.parametrize(
    "N,logq,parts",
    [
        (2048, 35, (1, 1, 1)),  # cohort: 17/18-bit limbs
        (2048, 34, (1, 1, 1)),  # dropout
        (2048, 44, (1, 1, 1)),  # acceptance criterion 8: two 22-bit limbs
        (4096, 106, (2, 1, 2)),  # high-dim: 26/27-bit limbs
    ],
)
def test_ntt_splits_of_the_workload_rings(N, logq, parts):
    tbl = ring._tables(ring.choose_limbs(N, logq), N)
    for stages in (tbl.fwd, tbl.inv):
        assert tuple(st[1].shape[1] for st in stages) == parts


def test_ntt_splits_of_the_widest_limbs_at_16384():
    limbs = _widest_limbs(16384, 2)
    tbl = ring._tables(limbs, 16384)
    for stages in (tbl.fwd, tbl.inv):
        assert tuple(st[1].shape[1] for st in stages) == (3, 2, 2)
        for at, stage in enumerate(stages):
            for l, p in enumerate(limbs):
                assert _stage_bound_holds(stage, p, l, at == 0)


def _ntt_limbs(N, bits, count):
    """Up to `count` distinct primes 1 mod 2N, the largest below 2^bits."""
    limbs, k = [], (2**bits - 2) // (2 * N)
    while len(limbs) < count and k > 0:
        p = k * 2 * N + 1
        if ring._is_prime(p):
            limbs.append(p)
        k -= 1
    return tuple(limbs)


@settings(max_examples=40, deadline=None)
@given(
    log_n=st.integers(7, 14),
    bits=st.integers(12, 31),
    count=st.integers(1, 3),
    seed=st.integers(0, 2**32 - 1),
)
def test_ntt_split_bound_and_kernels_property(log_n, bits, count, seed):
    # Every stage's parts keep the analytic partial-sum bound below 2^52 on
    # every limb, and the transforms equal the radix-2 reference on
    # all-(p-1), spike and random inputs.
    N = 2**log_n
    limbs = _ntt_limbs(N, max(bits, log_n + 2), count)
    assume(len(limbs) == count)
    tbl = ring._NttTables(limbs, N)
    for stages in (tbl.fwd, tbl.inv):
        for at, stage in enumerate(stages):
            for l, p in enumerate(limbs):
                assert _stage_bound_holds(stage, p, l, at == 0)
    psi, psi_inv, n_inv = _reference_tables(limbs, N)
    ps = np.array(limbs, dtype=np.uint64).reshape(-1, 1, 1)
    top = ps.reshape(-1, 1) - np.uint64(1)
    rng = np.random.default_rng(seed)
    spike = np.zeros((len(limbs), N), dtype=np.uint64)
    spike[:, rng.integers(N)] = top[:, 0]
    for x in (
        np.repeat(top, N, axis=1),
        spike,
        rng.integers(0, 2**63, (len(limbs), N), dtype=np.uint64) % ps.reshape(-1, 1),
    ):
        assert np.array_equal(ring._ntt(x, tbl), _reference_ntt(x, psi, ps))
        assert np.array_equal(ring._intt(x, tbl), _reference_intt(x, psi_inv, ps, n_inv))


def test_ntt_matches_schoolbook_on_widest_limbs():
    pr = ring.RingParams(256, 2**16, limbs=_widest_limbs(256, 2))
    rng = run_rng("ntt-wide")
    top = pr.from_coeffs(np.full(256, pr.q - 1, dtype=object))
    for a, b in [(top, top)] + [
        (ring.sample_uniform(rng, pr), ring.sample_uniform(rng, pr)) for _ in range(5)
    ]:
        assert ring.mul_ntt(a, b) == ring.mul_schoolbook(a, b)


@pytest.mark.parametrize("make, why", [
    (lambda: ring.RingParams(4, 2, limbs=(57,)), "limb 57 is not prime"),
    (lambda: ring.RingParams(4, 2, limbs=(ring.find_ntt_prime(8, 33),)), "exceeds 31 bits"),
    (lambda: ring.RingParams(4, 2, limbs=(17, 17)), "limbs must be distinct"),
    (lambda: ring.RingParams(4, 2, limbs=(17,), q=41), "q does not match limb product"),
    (lambda: ring.RingParams(4, 1, limbs=(17,)), "T must be at least 2"),
    (lambda: TINY.from_coeffs([1, 2, 3]), "need exactly 4 coefficients"),
    (lambda: ring.encode([1], 0, 1, TINY), "packing factor must be >= 1"),
    (lambda: ring.encode([1, 2], 2, 8, ring.RingParams(4, 2**12, q=17)),
     "pf \\* slot_width exceeds plaintext modulus width"),
    (lambda: ring.gaussian_ints(ctx_rng("sigma"), -1.0, (4,)), "sigma must be nonnegative"),
    (lambda: ring.sample_flood(ctx_rng("sigma"), 2.0**48, TINY), "outside \\[0, 2\\^48\\)"),
], ids=["non-prime", "over-wide", "duplicate", "q-mismatch", "T-below-2", "coeff-count",
        "pf-below-1", "slots-wider-than-T", "negative-sigma", "flood-too-wide"])
def test_malformed_ring_inputs_fail_closed(make, why):
    with pytest.raises(ValueError, match=why):
        make()
