"""Arithmetic in the negacyclic ring R_q = Z_q[X]/(X^N + 1).

N is a power of two and q is a product of one or more distinct odd primes,
each congruent to 1 mod 2N so that a negacyclic NTT exists.  Coefficients
are held in residue form, one uint64 row per prime limb; this keeps every
multiplication inside native 64-bit words (limbs stay below 2^31, so limb
products fit uint64 with room for the butterfly additions).  Values are
lifted back to Z_q via the CRT only where an integer answer is needed.

Also provides the uniform and discrete-Gaussian samplers and the slot
packing used to encode input vectors into plaintext coefficients.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import Iterable, Sequence

import numpy as np

__all__ = [
    "RingParams",
    "RingElement",
    "add",
    "mul",
    "mul_sum",
    "lincomb",
    "scalar_mul",
    "sample_uniform",
    "sample_gaussian",
    "gaussian_ints",
    "encode",
    "decode",
    "find_ntt_prime",
    "choose_limbs",
]

# NTT pays off above this degree; below it the quadratic path is cheaper
# and doubles as the independent reference in tests.
NTT_MIN_DEGREE = 256

# Limbs are capped below 2^31 so a*b < 2^62 leaves headroom in uint64.
LIMB_MAX_BITS = 30


# ---------------------------------------------------------------------------
# Prime and root-of-unity machinery
# ---------------------------------------------------------------------------

_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def _is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin, valid for n < 3.3e24."""
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def find_ntt_prime(two_n: int, bits: int, *, below: bool = True) -> int:
    """Largest (or smallest) prime p = k*two_n + 1 with p < 2^bits (or >=)."""
    if below:
        k = (2**bits - 2) // two_n
        step = -1
    else:
        k = (2 ** (bits - 1)) // two_n + 1
        step = 1
    while k > 0:
        p = k * two_n + 1
        if _is_prime(p):
            return p
        k += step
    raise ValueError(f"no prime of form k*{two_n}+1 below 2^{bits}")


def choose_limbs(N: int, logq: int) -> tuple[int, ...]:
    """Pick distinct NTT-friendly primes whose product has exactly logq bits.

    Bit widths are split as evenly as possible across limbs so no limb
    exceeds the uint64-safe cap; the last limb is then nudged to land the
    product exactly in [2^(logq-1), 2^logq).  Where that split has no
    primes, a search over limb counts and widths takes over; raises
    ValueError naming N and logq when no split exists at all.
    """
    two_n = 2 * N
    min_bits = max(4, two_n.bit_length() + 1)
    if logq < min_bits:
        raise ValueError(f"logq={logq} too small for N={N}")
    try:
        return _even_split(two_n, logq)
    except ValueError:
        pass
    top = LIMB_MAX_BITS + 1
    # Every limb exceeds 2N = 2^a, so c limbs have more than a*c bits.
    a = two_n.bit_length() - 1
    for count in range(-(-logq // top), (logq - 1) // a + 1):
        found = _search_split(two_n, 2 ** (logq - 1), 2**logq, count, ())
        if found is not None:
            return tuple(sorted(found))
    raise ValueError(
        f"no distinct primes congruent to 1 mod 2N below 2^{top} have a product "
        f"of exactly logq={logq} bits for N={N}"
    )


def _even_split(two_n: int, logq: int) -> tuple[int, ...]:
    """The even split of `choose_limbs`; ValueError where it has no primes."""
    count = max(1, math.ceil(logq / LIMB_MAX_BITS))
    if count == 1:
        p = find_ntt_prime(two_n, logq)
        if p.bit_length() != logq:
            raise ValueError(f"no {logq}-bit prime congruent to 1 mod {two_n}")
        return (p,)
    lo = logq // count
    n_hi = logq - lo * count
    targets = [lo + 1] * n_hi + [lo] * (count - n_hi)
    limbs: list[int] = []
    cursors: dict[int, int] = {}
    for tbits in targets[:-1]:
        k = cursors.get(tbits, (2**tbits - 2) // two_n)
        while True:
            if k <= 0:
                raise ValueError(f"not enough {tbits}-bit primes congruent to 1 mod {two_n}")
            p = k * two_n + 1
            k -= 1
            if _is_prime(p) and p not in limbs:
                limbs.append(p)
                break
        cursors[tbits] = k
    others = math.prod(limbs)
    k = 2 ** (logq - 1) // (others * two_n) + 1
    while True:
        p = k * two_n + 1
        if (others * p).bit_length() > logq:
            raise ValueError(f"could not hit logq={logq} with 2N={two_n}")
        if p.bit_length() > LIMB_MAX_BITS + 1:
            raise ValueError(f"limb split for logq={logq}, 2N={two_n} exceeds the word cap")
        if _is_prime(p) and p not in limbs and (others * p).bit_length() == logq:
            limbs.append(p)
            break
        k += 1
    return tuple(sorted(limbs))


def _search_split(two_n: int, lo: int, hi: int, count: int, used: tuple[int, ...]):
    """`count` distinct primes k*two_n + 1 below 2^(LIMB_MAX_BITS+1), none in
    `used`, whose product lies in [lo, hi); None when there are none.

    Each limb but the last is the largest unused prime of some bit width,
    widest first; the last limb is the smallest prime that fits."""
    top = LIMB_MAX_BITS + 1
    if count == 1:
        k = max(1, -(-(lo - 1) // two_n))
        end = min(hi, 2**top)
        while (p := k * two_n + 1) < end:
            if p not in used and _is_prime(p):
                return [p]
            k += 1
        return None
    for bits in range(top, two_n.bit_length() - 1, -1):
        k = (2**bits - 2) // two_n
        while (p := k * two_n + 1).bit_length() == bits and (p in used or not _is_prime(p)):
            k -= 1
        if p.bit_length() != bits:
            continue
        rest_lo, rest_hi = -(-lo // p), -(-hi // p)
        if rest_lo >= 2 ** (top * (count - 1)):
            break  # narrower limbs only leave more for the rest
        if rest_hi <= (two_n + 1) ** (count - 1):
            continue
        rest = _search_split(two_n, rest_lo, rest_hi, count - 1, used + (p,))
        if rest is not None:
            return [p, *rest]
    return None


def _primitive_2n_root(p: int, two_n: int) -> int:
    """Element of multiplicative order exactly 2N mod p (requires 2N | p-1)."""
    exp = (p - 1) // two_n
    n = two_n // 2
    for g in range(2, p):
        psi = pow(g, exp, p)
        if pow(psi, n, p) == p - 1:
            return psi
    raise ValueError(f"no primitive 2N-th root mod {p}")


def _bit_reverse(n: int) -> np.ndarray:
    width = n.bit_length() - 1
    out = np.zeros(n, dtype=np.int64)
    for i in range(n):
        out[i] = int(format(i, f"0{width}b")[::-1], 2) if width else 0
    return out


class _NttTables:
    """Twiddle tables for the negacyclic transform, stacked across limbs so
    one numpy pass per butterfly stage covers the whole residue matrix."""

    def __init__(self, limbs: tuple[int, ...], n: int):
        self.n = n
        brv = _bit_reverse(n)
        psi_rows, ipsi_rows, ninv = [], [], []
        for p in limbs:
            psi = _primitive_2n_root(p, 2 * n)
            pows = np.empty(n, dtype=np.uint64)
            acc = 1
            for i in range(n):
                pows[i] = acc
                acc = acc * psi % p
            psi_rows.append(pows[brv])
            psi_inv = pow(psi, -1, p)
            ipows = np.empty(n, dtype=np.uint64)
            acc = 1
            for i in range(n):
                ipows[i] = acc
                acc = acc * psi_inv % p
            ipsi_rows.append(ipows[brv])
            ninv.append(pow(n, -1, p))
        self.psi = np.stack(psi_rows)  # (L, N), bit-reversed twiddles
        self.psi_inv = np.stack(ipsi_rows)
        self.n_inv = np.array(ninv, dtype=np.uint64).reshape(-1, 1)
        self.ps = np.array(limbs, dtype=np.uint64).reshape(-1, 1, 1)
        self.ps_flat = self.ps.reshape(-1, 1)


@lru_cache(maxsize=None)
def _tables(limbs: tuple[int, ...], n: int) -> _NttTables:
    return _NttTables(limbs, n)


def _ntt(res: np.ndarray, tbl: _NttTables) -> np.ndarray:
    """Forward transform of an (L, N) residue stack, bit-reversed output."""
    a = res.copy()
    n = tbl.n
    t, m = 1, n // 2
    while m >= 1:
        view = a.reshape(-1, t, 2 * m)
        w = tbl.psi[:, t : 2 * t, None]
        u = view[:, :, :m]
        vw = view[:, :, m:] * w % tbl.ps
        lo = (u + vw) % tbl.ps
        hi = (u + tbl.ps - vw) % tbl.ps
        view[:, :, :m] = lo
        view[:, :, m:] = hi
        t *= 2
        m //= 2
    return a


def _intt(res: np.ndarray, tbl: _NttTables) -> np.ndarray:
    """Inverse transform, bit-reversed input, normal-order output.

    The odd-lane product fuses into one reduction: u + p - v < 2^32 and
    w < 2^31, so the product stays inside uint64.
    """
    a = res.copy()
    n = tbl.n
    t, m = n // 2, 1
    while m < n:
        view = a.reshape(-1, t, 2 * m)
        w = tbl.psi_inv[:, t : 2 * t, None]
        u = view[:, :, :m]
        v = view[:, :, m:]
        lo = (u + v) % tbl.ps
        hi = (u + tbl.ps - v) * w % tbl.ps
        view[:, :, :m] = lo
        view[:, :, m:] = hi
        t //= 2
        m *= 2
    return a * tbl.n_inv % tbl.ps_flat


# ---------------------------------------------------------------------------
# Parameters and elements
# ---------------------------------------------------------------------------


class RingParams:
    """Degree N, plaintext modulus T, and the prime limbs whose product is q."""

    __slots__ = ("N", "T", "limbs", "q", "_crt_weights", "_ps")

    def __init__(self, N: int, T: int, limbs: Sequence[int] | None = None, q: int | None = None):
        if N < 1 or N & (N - 1):
            raise ValueError("N must be a power of two")
        if limbs is None:
            if q is None:
                raise ValueError("provide q or limbs")
            limbs = (q,)
        limbs = tuple(int(p) for p in limbs)
        for p in limbs:
            if not _is_prime(p):
                raise ValueError(f"limb {p} is not prime")
            if p.bit_length() > LIMB_MAX_BITS + 1:
                raise ValueError(f"limb {p} exceeds {LIMB_MAX_BITS + 1} bits")
            if (p - 1) % (2 * N):
                raise ValueError(f"limb {p} is not 1 mod 2N (N={N})")
        if len(set(limbs)) != len(limbs):
            raise ValueError("limbs must be distinct")
        self.N = N
        self.limbs = limbs
        self.q = math.prod(limbs)
        if q is not None and q != self.q:
            raise ValueError("q does not match limb product")
        if T < 2:
            raise ValueError("T must be at least 2")
        if math.gcd(T, self.q) != 1:
            raise ValueError("T must be coprime to q")
        self.T = T
        # CRT lift: value = sum_l res_l * w_l mod q with w_l = (q/p_l) * (q/p_l)^-1 mod p_l.
        weights = []
        for p in limbs:
            m = self.q // p
            weights.append(m * pow(m % p, -1, p) % self.q)
        self._crt_weights = tuple(weights)
        self._ps = np.array(limbs, dtype=np.uint64).reshape(-1, 1)

    @classmethod
    def from_bits(cls, N: int, logq: int, T: int) -> "RingParams":
        return cls(N, T, limbs=choose_limbs(N, logq))

    @property
    def logq(self) -> int:
        return self.q.bit_length()

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, RingParams)
            and self.N == other.N
            and self.limbs == other.limbs
            and self.T == other.T
        )

    def __hash__(self) -> int:
        return hash((self.N, self.limbs, self.T))

    def __repr__(self) -> str:
        return f"RingParams(N={self.N}, q={self.q} ({self.logq} bits, {len(self.limbs)} limbs), T=2^{(self.T - 1).bit_length()})"

    # Constructors ---------------------------------------------------------

    def zero(self) -> "RingElement":
        return RingElement(np.zeros((len(self.limbs), self.N), dtype=np.uint64), self)

    def one(self) -> "RingElement":
        res = np.zeros((len(self.limbs), self.N), dtype=np.uint64)
        res[:, 0] = 1
        return RingElement(res, self)

    def from_coeffs(self, values) -> "RingElement":
        """Build an element from N integers; any sign, reduced mod q."""
        vals = np.asarray(values)
        if vals.shape != (self.N,):
            raise ValueError(f"need exactly {self.N} coefficients")
        if vals.dtype == object:
            res = np.empty((len(self.limbs), self.N), dtype=np.uint64)
            for l, p in enumerate(self.limbs):
                res[l] = (vals % p).astype(np.uint64)
        else:
            # Native integers reduce per limb without Python-int round trips.
            v64 = vals.astype(np.int64)
            res = np.mod(v64[None, :], np.array(self.limbs, dtype=np.int64)[:, None]).astype(
                np.uint64
            )
        return RingElement(res, self)


def _check_same_params(a: "RingElement", b: "RingElement") -> None:
    if a.params is not b.params and a.params != b.params:
        raise ValueError("ring params mismatch")


def _limb_col(k: int, limbs: tuple[int, ...]) -> np.ndarray:
    """An integer's residues as an (L, 1) column, one per limb."""
    k = int(k)
    return np.array([k % p for p in limbs], dtype=np.uint64).reshape(-1, 1)


class RingElement:
    """Immutable element of R_q, stored as per-limb residue rows."""

    __slots__ = ("res", "params", "_ntt_forms")

    def __init__(self, res: np.ndarray, params: RingParams):
        self.res = res
        self.params = params
        self._ntt_forms = None

    # Views ------------------------------------------------------------

    @property
    def coeffs(self) -> np.ndarray:
        """Coefficients lifted to [0, q) as Python ints."""
        pr = self.params
        acc = np.zeros(pr.N, dtype=object)
        for row, w in zip(self.res, pr._crt_weights):
            acc += row.astype(object) * w
        return acc % pr.q

    def centered(self) -> np.ndarray:
        """Coefficients lifted to the symmetric range (-q/2, q/2]."""
        q = self.params.q
        c = self.coeffs
        return np.where(c > q // 2, c - q, c)

    # Arithmetic ---------------------------------------------------------

    def __add__(self, other: "RingElement") -> "RingElement":
        _check_same_params(self, other)
        ps = self.params._ps
        return RingElement((self.res + other.res) % ps, self.params)

    def __sub__(self, other: "RingElement") -> "RingElement":
        _check_same_params(self, other)
        ps = self.params._ps
        return RingElement((self.res + ps - other.res) % ps, self.params)

    def __neg__(self) -> "RingElement":
        ps = self.params._ps
        return RingElement((ps - self.res) % ps, self.params)

    def scalar(self, k: int) -> "RingElement":
        ps = self.params._ps
        return RingElement(self.res * _limb_col(k, self.params.limbs) % ps, self.params)

    def __mul__(self, other):
        if isinstance(other, RingElement):
            return mul(self, other)
        return self.scalar(other)

    def __rmul__(self, other):
        return self.scalar(other)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, RingElement)
            and self.params == other.params
            and np.array_equal(self.res, other.res)
        )

    def __hash__(self):
        return hash((self.params, self.res.tobytes()))

    def __repr__(self) -> str:
        return f"RingElement(N={self.params.N}, coeffs={list(self.coeffs[:4])}...)"

    def _ntt(self) -> np.ndarray:
        if self._ntt_forms is None:
            pr = self.params
            self._ntt_forms = _ntt(self.res, _tables(pr.limbs, pr.N))
        return self._ntt_forms


# Functional aliases matching the operation names used elsewhere.


def add(a: RingElement, b: RingElement) -> RingElement:
    return a + b


def scalar_mul(k: int, a: RingElement) -> RingElement:
    return a.scalar(k)


def mul(a: RingElement, b: RingElement) -> RingElement:
    """Negacyclic product; NTT for large N, schoolbook below."""
    _check_same_params(a, b)
    if a.params.N >= NTT_MIN_DEGREE:
        return mul_ntt(a, b)
    return mul_schoolbook(a, b)


def mul_ntt(a: RingElement, b: RingElement) -> RingElement:
    _check_same_params(a, b)
    pr = a.params
    tbl = _tables(pr.limbs, pr.N)
    prod = a._ntt() * b._ntt() % tbl.ps_flat
    return RingElement(_intt(prod, tbl), pr)


def lincomb(terms: Iterable[tuple[int, RingElement]], params: RingParams) -> RingElement:
    """Sum of w * a mod q over (w, a) terms, with one reduction.

    Weights are any Python integers: negative, zero (skipped) or wider than
    a word.  Unit weights add without a multiply.  Every term is reduced
    below p < 2^31, so up to 2^33 terms sum inside uint64.
    """
    acc = np.zeros((len(params.limbs), params.N), dtype=np.uint64)
    ps = params._ps
    for w, a in terms:
        if a.params is not params and a.params != params:
            raise ValueError("ring params mismatch")
        if w == 1:
            acc += a.res
        elif w:
            acc += a.res * _limb_col(w, params.limbs) % ps
    return RingElement(acc % ps, params)


def mul_sum(terms: Iterable[tuple[int, RingElement, RingElement]]) -> RingElement:
    """Sum of w * a * b over (w, a, b) terms, with one inverse NTT.

    The pointwise products of the (cached) forward transforms are weighted
    per limb and summed in residue form; the transform is linear, so one
    inverse NTT of the sum equals the sum of the individual products.
    """
    terms = list(terms)
    if not terms:
        raise ValueError("mul_sum needs at least one term")
    first = terms[0][1]
    for _w, a, b in terms:
        _check_same_params(first, a)
        _check_same_params(a, b)
    pr = first.params
    if pr.N < NTT_MIN_DEGREE:
        return lincomb(((w, mul_schoolbook(a, b)) for w, a, b in terms), pr)
    tbl = _tables(pr.limbs, pr.N)
    ps = tbl.ps_flat
    # As in lincomb: each term is below p < 2^31.
    acc = np.zeros((len(pr.limbs), pr.N), dtype=np.uint64)
    for w, a, b in terms:
        prod = a._ntt() * b._ntt() % ps
        if w != 1:
            prod = prod * _limb_col(w, pr.limbs) % ps
        acc += prod
    return RingElement(_intt(acc % ps, tbl), pr)


def mul_schoolbook(a: RingElement, b: RingElement) -> RingElement:
    """Quadratic negacyclic convolution, exact per limb via Python ints."""
    _check_same_params(a, b)
    pr = a.params
    n = pr.N
    out = np.empty_like(a.res)
    for l, p in enumerate(pr.limbs):
        conv = np.convolve(a.res[l].astype(object), b.res[l].astype(object))
        folded = conv[:n].copy()
        if n > 1 or len(conv) > n:
            tail = conv[n:]
            folded[: len(tail)] -= tail
        out[l] = (folded % p).astype(np.uint64)
    return RingElement(out, pr)


# ---------------------------------------------------------------------------
# Samplers
# ---------------------------------------------------------------------------


def sample_uniform(rng: np.random.Generator, params: RingParams) -> RingElement:
    """Coefficients i.i.d. uniform in [0, q); uniform per limb is uniform mod q."""
    res = np.empty((len(params.limbs), params.N), dtype=np.uint64)
    for l, p in enumerate(params.limbs):
        res[l] = rng.integers(0, p, size=params.N, dtype=np.uint64)
    return RingElement(res, params)


# Measured crossover: a 64-draw call costs ~40% more through the guide
# table than through searchsorted, a 2048-draw call about a third as much.
_GUIDE_MIN_DRAWS = 256


@lru_cache(maxsize=64)
def _gauss_table(sigma: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Inverse-CDF table for the discrete Gaussian, truncated at 12 sigma,
    with its guide table."""
    bound = int(math.ceil(12 * sigma))
    zs = np.arange(-bound, bound + 1, dtype=np.int64)
    logp = -(zs.astype(np.float64) ** 2) / (2 * sigma * sigma)
    pmf = np.exp(logp - logp.max())
    cdf = np.cumsum(pmf)
    cdf /= cdf[-1]
    return zs, cdf, _guide_table(cdf)


def _guide_table(cdf: np.ndarray) -> np.ndarray:
    """guide[b] for b = 0..m (m = len(cdf)): the first index whose cdf
    reaches b/m, so a draw u in bucket floor(u*m) starts its search there
    and usually lands within a step (Chen & Asau, 1974).

    The thresholds sit 2^-50 below b/m: u*m can round up to b for a u just
    under b/m, and the search from guide[b] only ever steps forward.
    """
    m = len(cdf)
    return np.searchsorted(cdf, np.arange(m + 1) / m - 2.0**-50, side="left")


def gaussian_ints(
    rng: np.random.Generator, sigma: float, size: int | tuple[int, ...]
) -> np.ndarray:
    """Discrete Gaussian integers, stddev sigma, via inverse-CDF lookup.

    Returns zs[searchsorted(cdf, u, "left")] for u = rng.random(size).  The
    guide table finds that index in one step for most draws; the rest (the
    tails crowd into the first and last buckets) are searched.  Below
    _GUIDE_MIN_DRAWS draws the table's fixed cost outweighs the search.
    """
    if sigma < 0:
        raise ValueError("sigma must be nonnegative")
    if sigma == 0:
        return np.zeros(size, dtype=np.int64)
    zs, cdf, guide = _gauss_table(float(sigma))
    u = rng.random(size)
    if u.size < _GUIDE_MIN_DRAWS:
        return zs[np.searchsorted(cdf, u, side="left")]
    idx = guide[(u * (len(guide) - 1)).astype(np.intp)]
    idx += cdf[idx] < u
    miss = cdf[idx] < u
    if miss.any():
        idx[miss] = np.searchsorted(cdf, u[miss], side="left")
    return zs[idx]


def sample_gaussian(rng: np.random.Generator, sigma: float, params: RingParams) -> RingElement:
    """Element with independent discrete-Gaussian coefficients, reduced mod q."""
    ints = gaussian_ints(rng, sigma, params.N)
    return RingElement(np.mod(ints, params._ps.astype(np.int64)).view(np.uint64), params)


# ---------------------------------------------------------------------------
# Plaintext packing
# ---------------------------------------------------------------------------


def encode(values, pf: int, slot_width: int, params: RingParams) -> list[RingElement]:
    """Pack a vector of integers into plaintext ring elements.

    With pf == 1 each value occupies a whole coefficient and is reduced
    mod T, so signed values (e.g. noise contributions) are fine.  With
    pf >= 2, values share coefficients in slot_width-bit lanes and must
    lie in [0, 2^slot_width) so that lane sums cannot carry into a
    neighbouring slot before the headroom is exhausted.
    """
    if pf < 1:
        raise ValueError("packing factor must be >= 1")
    arr = np.asarray(values)
    n = params.N
    total = -(-len(arr) // (pf * n))
    if pf == 1:
        # Whole-coefficient encoding accepts signed values, reduced mod T.
        if arr.dtype != object and params.T <= 2**62:
            coeffs = np.zeros(total * n, dtype=np.int64)
            coeffs[: len(arr)] = np.mod(arr.astype(np.int64), params.T)
        else:
            coeffs = np.zeros(total * n, dtype=object)
            coeffs[: len(arr)] = [int(v) % params.T for v in arr]
        return [params.from_coeffs(coeffs[k * n : (k + 1) * n]) for k in range(total)]
    if pf * slot_width > (params.T - 1).bit_length():
        raise ValueError("pf * slot_width exceeds plaintext modulus width")
    vals = [int(v) for v in arr]
    limit = 1 << slot_width
    for v in vals:
        if not 0 <= v < limit:
            raise ValueError(f"value {v} does not fit a {slot_width}-bit slot")
    coeffs = np.zeros(total * n, dtype=object)
    for i, v in enumerate(vals):
        coeffs[i // pf] += v << ((i % pf) * slot_width)
    return [params.from_coeffs(coeffs[k * n : (k + 1) * n]) for k in range(total)]


def decode(elems: Iterable, length: int, pf: int, slot_width: int) -> np.ndarray:
    """Unpack slot-packed coefficients; exact inverse of encode on its range.

    Accepts RingElements or plain coefficient arrays (already reduced mod T).
    Out-of-range slot contents are returned verbatim.
    """
    arrays = []
    for e in elems:
        arrays.append(e.coeffs if isinstance(e, RingElement) else np.asarray(e, dtype=object))
    flat = np.concatenate(arrays) if arrays else np.zeros(0, dtype=object)
    out = np.zeros(length, dtype=object)
    if pf == 1:
        out[:] = flat[:length]
        return out
    mask = (1 << slot_width) - 1
    for i in range(length):
        out[i] = (int(flat[i // pf]) >> ((i % pf) * slot_width)) & mask
    return out
