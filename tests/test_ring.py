import numpy as np
import pytest

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
        got = ring.add(pr.from_coeffs(av), pr.from_coeffs(bv))
        want = [(x + y) % pr.q for x, y in zip(av, bv)]
        assert list(got.coeffs) == want


def test_add_params_mismatch():
    other = ring.RingParams(4, 2, q=97)
    with pytest.raises(ValueError, match="mismatch"):
        ring.add(TINY.zero(), other.zero())


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


def test_distributivity():
    pr = ring.RingParams.from_bits(8, 30, 2)
    rng = run_rng("distrib")
    for _ in range(50):
        a, b, c = (ring.sample_uniform(rng, pr) for _ in range(3))
        assert ring.mul(a, b + c) == ring.mul(a, b) + ring.mul(a, c)


def test_scalar_mul():
    a = TINY.from_coeffs([1, 2, 3, 4])
    assert ring.scalar_mul(0, a) == TINY.zero()
    assert ring.scalar_mul(1, a) == a
    assert ring.scalar_mul(3, a) == a + a + a
    # negative scalars reduce mod q
    assert ring.scalar_mul(-1, a) == -a


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


class _FixedUniforms:
    """Stands in for a Generator whose .random returns chosen values."""

    def __init__(self, u):
        self.u = np.asarray(u, dtype=np.float64)

    def random(self, size):
        return self.u.reshape(size).copy()


@pytest.mark.parametrize("sigma", [0.3, 1.0, 3.2, 44.8, 64.0, 250.0])
def test_gaussian_ints_match_searchsorted(sigma):
    zs, cdf = _searchsorted_table(sigma)
    for size in (1, 64, 2048, (3, 700), 10**6):
        got = ring.gaussian_ints(ctx_rng("gss", sigma, str(size)), sigma, size)
        u = ctx_rng("gss", sigma, str(size)).random(size)
        assert got.shape == u.shape
        assert np.array_equal(got, zs[np.searchsorted(cdf, u, side="left")])


@pytest.mark.parametrize("sigma", [0.3, 1.0, 3.2, 44.8, 64.0, 250.0])
def test_gaussian_ints_match_searchsorted_on_crafted_uniforms(sigma):
    # Bucket edges b/m, every cdf value, their neighbours on both sides and
    # the ends of [0, 1): the draws where a table lookup can go wrong.
    zs, cdf = _searchsorted_table(sigma)
    m = len(cdf)
    edges = np.concatenate([np.arange(m + 1) / m, cdf, [0.0, 1.0 - 2.0**-53]])
    u = np.concatenate([edges, np.nextafter(edges, 0.0), np.nextafter(edges, 1.0)])
    u = u[(u >= 0.0) & (u < 1.0)]
    want = zs[np.searchsorted(cdf, u, side="left")]
    # Calls below the guide table's minimum size search directly.
    small = np.array_split(np.arange(len(u)), -(-len(u) // (ring._GUIDE_MIN_DRAWS - 1)))
    for part in small:
        got = ring.gaussian_ints(_FixedUniforms(u[part]), sigma, len(part))
        assert np.array_equal(got, want[part])
    reps = -(-ring._GUIDE_MIN_DRAWS // len(u))
    got = ring.gaussian_ints(_FixedUniforms(np.tile(u, reps)), sigma, reps * len(u))
    assert np.array_equal(got, np.tile(want, reps))


def _mul_sum_case(N, logq, seed):
    pr = ring.RingParams(N, 2**8 + 1, limbs=ring.choose_limbs(N, logq))
    rng = run_rng("mul-sum", N, logq, seed)
    weights = [0, 1, pr.q - 1, 2**64 + 12345, 7]
    return pr, [(w, ring.sample_uniform(rng, pr), ring.sample_uniform(rng, pr)) for w in weights]


@pytest.mark.parametrize(
    "N,logq,limbs",
    [(32, 40, 2), (2048, 30, 1), (2048, 54, 2), (4096, 109, 4)],
)
def test_mul_sum_matches_weighted_products(N, logq, limbs):
    pr, terms = _mul_sum_case(N, logq, 0)
    assert len(pr.limbs) == limbs
    want = pr.zero()
    for w, a, b in terms:
        want = want + ring.mul(a, b).scalar(w)
    assert ring.mul_sum(terms) == want
    assert ring.mul_sum(terms[1:2]) == ring.mul(terms[1][1], terms[1][2])
    assert ring.mul_sum(terms[:1]) == pr.zero()


def test_mul_sum_rejects_mixed_params_and_no_terms():
    pr, terms = _mul_sum_case(32, 40, 1)
    other = ring.RingParams(32, 2**8 + 1, limbs=ring.choose_limbs(32, 41))
    with pytest.raises(ValueError, match="mismatch"):
        ring.mul_sum(terms + [(1, other.one(), other.one())])
    with pytest.raises(ValueError, match="at least one"):
        ring.mul_sum([])


def test_gaussian_ints_guide_never_starts_past_the_answer(monkeypatch):
    # u just below 5/6 lands in bucket 5 of 6 (u*6 rounds up to 5.0); with a
    # cdf value at u itself, that bucket must start its search at or before it.
    u = np.nextafter(5 / 6, 0.0)
    assert int(u * 6) == 5
    zs, cdf = np.arange(6), np.array([0.1, 0.3, 0.5, 0.7, u, 1.0])
    monkeypatch.setattr(ring, "_gauss_table", lambda sigma: (zs, cdf, ring._guide_table(cdf)))
    draws = ring.gaussian_ints(_FixedUniforms([u] * 256), 1.0, 256)
    assert draws.tolist() == [4] * 256


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
