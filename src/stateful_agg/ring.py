"""Arithmetic in the negacyclic ring R_q = Z_q[X]/(X^N + 1).

N is a power of two and q is a product of one or more distinct odd primes,
each congruent to 1 mod 2N so that a negacyclic NTT exists.  Coefficients
are held in residue form, one uint64 row per prime limb; this keeps every
multiplication inside native 64-bit words: limbs stay below 2^31, so a
product of two residues fits uint64.  The NTT is Bailey's four-step
transform as three stages per direction, two float64 matrix products
(np.matmul) around a pointwise twiddle product, on every limb at once.
Each table is split into as few narrow parts as keep every product and
partial sum an integer below 2^52, which float64 holds exactly in any
summation order, and each stage's result is brought back to a residue by
subtracting a rounded float quotient times p (see _NttTables).  Values are
lifted back to Z_q via the CRT only where an integer answer is needed.

Also provides the uniform, discrete-Gaussian and rounded-Gaussian samplers
and the slot packing used to encode input vectors into plaintext
coefficients.  Packing works on residues: encode builds limb residues from
int64 slot values, and the reveal's lift to the centered value mod T
(centered_mod_t) runs on uint64 mixed-radix digits when T is a power of two
no larger than 2^64.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import Iterable, Sequence

import numpy as np

__all__ = [
    "RingParams",
    "RingElement",
    "mul",
    "lincomb",
    "sample_uniform",
    "sample_gaussian",
    "sample_flood",
    "gaussian_ints",
    "encode",
    "decode",
    "centered_mod_t",
    "find_ntt_prime",
    "choose_limbs",
]

# Smallest degree at which mul uses the NTT.  Per mul, forward
# transforms included (2-core VM, 1-3 limbs): at N=128 the NTT takes
# 250-460 us against 1000-2300 us for schoolbook; at N=64 they tie on one
# limb; at N=16 schoolbook takes 20-60 us against 140-170 us.  The
# quadratic path doubles as the independent reference in tests.
NTT_MIN_DEGREE = 128

# Limbs are capped below 2^31: a*b < 2^62 fits uint64, and the NTT's
# float64 sums stay exact with tables split into a few parts (see
# _NttTables).
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


def find_ntt_prime(two_n: int, bits: int) -> int:
    """Largest prime p = k*two_n + 1 with p < 2^bits."""
    k = (2**bits - 2) // two_n
    while k > 0:
        p = k * two_n + 1
        if _is_prime(p):
            return p
        k -= 1
    raise ValueError(f"no prime of form k*{two_n}+1 below 2^{bits}")


@lru_cache(maxsize=None)
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
    """The permutation i -> i with its log2(n) bits reversed."""
    width = n.bit_length() - 1
    idx = np.arange(n, dtype=np.int64)
    out = np.zeros(n, dtype=np.int64)
    for b in range(width):
        out |= ((idx >> b) & 1) << (width - 1 - b)
    return out


def _powers(roots: list[int], limbs: tuple[int, ...], n: int) -> np.ndarray:
    """(L, n) table of root^i mod p per limb, built by doubling:
    pows[2^k : 2^(k+1)] = pows[:2^k] * root^(2^k) mod p."""
    pows = np.empty((len(limbs), n), dtype=np.uint64)
    pows[:, 0] = 1
    ps = np.array(limbs, dtype=np.uint64).reshape(-1, 1)
    k = 1
    while k < n:
        step = np.array([pow(w, k, p) for w, p in zip(roots, limbs)], dtype=np.uint64)
        np.multiply(pows[:, :k], step.reshape(-1, 1), out=pows[:, k : 2 * k])
        pows[:, k : 2 * k] %= ps
        k *= 2
    return pows


# Float64 holds every integer up to 2^53 exactly.  Every value the
# transforms form stays below _EXACT (see _NttTables), so that q*p and the
# rounding of x/p in _reduce are exact too.
_EXACT = 2**52


def _split(c: np.ndarray, limbs: tuple[int, ...], inner: int, first: bool):
    """A stage's table c, (L, rows, cols) float64 residues centered into
    |c| <= (p-1)/2, as (parts, s): parts (L, k, rows, cols) float64 with
    c = sum_i parts[:, i] * 2^(s*i), for the fewest k that keep the stage's
    values below 2^52 (see _NttTables).

    The stage sums `inner` products of a part with inputs of magnitude at
    most x = p-1 (`first`: residues in [0, p)) or (p+1)/2 (reduced).  The
    parts below the top are balanced s-bit digits, |d| <= 2^(s-1) with
    s = ceil(bits/k), and the top part is what remains: |rest| <= R after
    one more digit gives |rest| <= floor((R + 2^(s-1)) / 2^s).  k must
    keep, on every limb, inner*x*|top| < 2^52 and, for each lower part,
    (p+1)/2 * 2^s + inner*x*2^(s-1) < 2^52 (Horner's step).
    """
    bits = max((p - 1) // 2 for p in limbs).bit_length()
    k = 0
    while True:
        k += 1
        s = -(-bits // k)
        fits = True
        for p in limbs:
            x, top = (p - 1 if first else (p + 1) // 2), (p - 1) // 2
            for _ in range(k - 1):
                top = (top + 2 ** (s - 1)) >> s
            fits &= inner * x * top < _EXACT
            fits &= k == 1 or (p + 1) // 2 * 2**s + inner * x * 2 ** (s - 1) < _EXACT
        if fits:
            break
    if k == 1:
        return c[:, None], s
    parts = np.empty((c.shape[0], k, *c.shape[1:]))
    for i in range(k - 1):
        # Balanced digits: c - rint(c / 2^s) * 2^s, exact on these integers.
        q = np.rint(c * 2.0**-s)
        np.subtract(c, q * 2.0**s, out=parts[:, i])
        c = q
    parts[:, k - 1] = c
    return parts, s


def _left(x: np.ndarray, m: np.ndarray, out: np.ndarray) -> None:
    np.matmul(m, x, out=out)


def _right(x: np.ndarray, m: np.ndarray, out: np.ndarray) -> None:
    np.matmul(x, m, out=out)


class _NttTables:
    """Four-step tables (Bailey, J. Supercomputing 1990) of the negacyclic
    transform, as float64 matrices on which np.matmul is exact.

    Layout.  N = N1*N2 with N1 = 2^floor(log2(N)/2), and a coefficient
    vector is the (N2, N1) matrix A[j2, j1] = a[j1 + N1*j2].  With psi of
    order 2N, the forward transform puts a(psi^(2k+1)) at position
    brv_N(k), brv being bit reversal.  For k = k2 + N2*k1 and
    j = j1 + N1*j2, psi^(j(2k+1)) factors, since psi^(2N) = 1, as
    psi^(N1*j2*(2k2+1)) * psi^(j1*(2k2+1)) * psi^(2*N2*j1*k1): the twist
    psi^j = psi^(N1*j2) * psi^j1 folds into the first two factors.  And
    brv_N(k) = brv_N2(k2)*N1 + brv_N1(k1), so indexing rows by
    r = brv_N2(k2) and columns by c = brv_N1(k1) makes the (N2, N1)
    result, row-major, the bit-reversed output itself:

        forward  ((F2 @ A) * T) @ F1      F2[r, j2] = psi^(N1*j2*(2k2+1))
                                          T[r, j1]  = psi^(j1*(2k2+1))
                                          F1[j1, c] = psi^(2*N2*j1*k1)
        inverse  G2 @ ((Y @ G1) * U)      G1 = F1^T, U = T, G2 = F2^T / N,
                                          each at psi^-1

    Each table is gathered from one row of psi powers by its exponents
    mod 2N.  `fwd` and `inv` hold the three stages in order as
    (op, parts, s), parts (L, k, rows, cols) from _split.

    Exactness.  Values are integers held in float64.  A stage sums `inner`
    products (N2, 1, N1 forward; N1, 1, N2 inverse) of a part with an
    input below x = p-1 in the first stage, whose input is the residues in
    [0, p), and x = (p+1)/2 after that.  _split picks the parts so that
    inner*x*|part| < 2^52: every product and every partial sum, in any
    order BLAS adds them and on any number of threads, is an integer
    below 2^52, hence exact.  _reduce maps such a value v to v - q*p with
    q = rint(v * fl(1/p)).  The float quotient is within
    |v|/p * 2^-52 < 1/p of v/p, so q is the integer nearest v/p, or the
    next one when v = +-(p-1)/2 mod p; q*p < 2^53 is exact, and so is the
    difference, which lies in [-(p+1)/2, (p+1)/2].  With k > 1 parts the
    top part's product is reduced, then Horner's rule takes acc * 2^s plus
    the next part's product, below (p+1)/2 * 2^s + inner*x*|part| < 2^52,
    and reduces again.  The last reduction floors instead: the float
    quotient being within 1/p of v/p, the result lies in [0, p], equal to
    p only for a zero residue, which the uint64 result maps to 0.

    Parts per stage, (F2 or G1, T or U, F1 or G2): one each for limbs up
    to 23 bits at N = 2048; (2, 1, 2) for the 26/27-bit limbs at
    N = 4096; (3, 2, 2) for 31-bit limbs at N = 16384.  Every limb is
    below 2^31 and 2N divides p - 1, so N2 <= 2^15 and a split exists for
    every ring the library builds.
    """

    def __init__(self, limbs: tuple[int, ...], n: int):
        n1 = 1 << (n.bit_length() - 1) // 2
        n2 = n // n1
        two_n = 2 * n
        ps = np.array(limbs, dtype=np.uint64).reshape(-1, 1)
        pows = _powers([_primitive_2n_root(p, two_n) for p in limbs], limbs, n)
        n_inv = np.array([pow(n, -1, p) for p in limbs], dtype=np.uint64).reshape(-1, 1)

        pf = ps.astype(np.float64)

        def centered(w: np.ndarray) -> np.ndarray:
            """Residues w of psi^e for e < N, centered, extended by
            psi^(e+N) = -psi^e to every exponent mod 2N."""
            row = np.empty((len(limbs), two_n))
            c = row[:, :n]
            np.copyto(c, w.view(np.int64))
            c -= (c > pf // 2) * pf
            np.negative(c, out=row[:, n:])
            return row

        psi = centered(pows)
        psi_n = centered(pows * n_inv % ps)  # psi^e / N
        # Exponents mod 2N, a power of two: & (2N - 1), negatives included.
        mask = two_n - 1
        odd = (2 * _bit_reverse(n2) + 1)[:, None]
        j1, j2 = np.arange(n1), np.arange(n2)
        f2 = odd * (n1 * j2) & mask
        tw = odd * j1 & mask
        f1 = j1[:, None] * (2 * n2 * _bit_reverse(n1)) & mask

        def stage(op, row, exps, inner, first):
            return op, *_split(np.take(row, exps, axis=1), limbs, inner, first)

        # The inverse reads psi^-e = psi^(2N - e).
        self.n1, self.n2 = n1, n2
        self.fwd = (
            stage(_left, psi, f2, n2, True),
            stage(np.multiply, psi, tw, 1, False),
            stage(_right, psi, f1, n1, False),
        )
        self.inv = (
            stage(_right, psi, -f1.T & mask, n1, True),
            stage(np.multiply, psi, -tw & mask, 1, False),
            stage(_left, psi_n, -f2.T & mask, n2, False),
        )
        # p per entry: same-shape operands take numpy's fastest loops.
        self.p_int = np.repeat(ps, n, axis=1)
        self.p = self.p_int.astype(np.float64).reshape(-1, n2, n1)
        self.p_inv = 1.0 / self.p


@lru_cache(maxsize=None)
def _tables(limbs: tuple[int, ...], n: int) -> _NttTables:
    return _NttTables(limbs, n)


def _reduce(x: np.ndarray, tbl: _NttTables, tmp: np.ndarray, rounding=np.rint) -> None:
    """x -= rounding(x * (1/p)) * p in place, for integers |x| < 2^52 (see
    _NttTables): into [-(p+1)/2, (p+1)/2] with np.rint, [0, p] with np.floor."""
    np.multiply(x, tbl.p_inv, out=tmp)
    rounding(tmp, out=tmp)
    np.multiply(tmp, tbl.p, out=tmp)
    np.subtract(x, tmp, out=x)


def _transform(res: np.ndarray, stages, tbl: _NttTables) -> np.ndarray:
    """The three stages on an (L, N) residue stack in [0, p), into [0, p).

    One scratch allocation holds two sets of k (L, N2, N1) slots, which
    take turns as a stage's input and output, and one slot for the
    reductions' quotients.  A stage's product with part i lands in output
    slot i, and Horner's rule folds the slots down into slot 0.  The result
    is allocated before the scratch, so freeing the scratch frees the top
    of the heap rather than a hole below the result: in the other order,
    each `mul` at N = 4096 took about 250 page faults."""
    L, n = res.shape
    k_max = max(parts.shape[1] for _, parts, _ in stages)
    out = np.empty((L, n), dtype=np.uint64)
    scratch = np.empty((2 * k_max + 1, L, tbl.n2, tbl.n1))
    src = scratch[:k_max].transpose(1, 0, 2, 3)
    dst = scratch[k_max : 2 * k_max].transpose(1, 0, 2, 3)
    tmp = scratch[2 * k_max]
    np.copyto(src[:, 0], res.reshape(L, tbl.n2, tbl.n1))
    for at, (op, parts, s) in enumerate(stages, start=1):
        k = parts.shape[1]
        op(src[:, :1], parts, dst[:, :k])
        for i in range(k - 1, -1, -1):
            if i < k - 1:
                np.multiply(dst[:, i + 1], float(2**s), out=tmp)
                dst[:, i] += tmp
            last = at == len(stages) and i == 0
            _reduce(dst[:, i], tbl, tmp, np.floor if last else np.rint)
        src, dst = dst, src
    np.copyto(out.view(np.int64), src[:, 0].reshape(L, n), casting="unsafe")
    wrapped = tmp.view(np.uint64).reshape(L, n)  # out - p wraps unless out == p
    np.subtract(out, tbl.p_int, out=wrapped)
    np.minimum(out, wrapped, out=out)
    return out


def _ntt(res: np.ndarray, tbl: _NttTables) -> np.ndarray:
    """Forward transform of an (L, N) residue stack in [0, p), bit-reversed
    output in [0, p)."""
    return _transform(res, tbl.fwd, tbl)


def _intt(res: np.ndarray, tbl: _NttTables) -> np.ndarray:
    """Inverse transform, bit-reversed input in [0, p), normal-order output
    in [0, p)."""
    return _transform(res, tbl.inv, tbl)


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
    prod = a._ntt() * b._ntt() % pr._ps
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


# Generator.random(size) is (x >> 11) * 2^-53 over the words x that
# random_raw(size) returns, and uses them up alike, for these bit generators.
_RAW_DOUBLE_BITGENS = (np.random.Philox, np.random.PCG64, np.random.PCG64DXSM, np.random.SFC64)


@lru_cache(maxsize=64)
def _gauss_table(sigma: float) -> tuple[np.ndarray, np.ndarray, np.uint64, np.integer]:
    """(thr, table, shift, bound) for the discrete Gaussian on -bound..bound,
    bound = ceil(12 sigma).  thr[i] = floor(cdf[i] * 2^53) for the float
    inverse CDF, so cdf[i] < (x >> 11) * 2^-53 exactly when thr[i] < x >> 11.
    table maps the top b = 64 - shift bits of x to the answer, -bound plus
    the count of thresholds below that bucket (a guide table, Chen & Asau
    1974), in the narrowest signed dtype; a bucket holding a threshold
    stores the sentinel bound + 1.  b = 16, or 16 buckets per cdf entry up to
    2^18: 2^18 beat 2^16 by 20% at sigma 640, 2^20 fell out of cache."""
    bound = int(math.ceil(12 * sigma))
    logp = -(np.arange(-bound, bound + 1, dtype=np.float64) ** 2) / (2 * sigma * sigma)
    cdf = np.cumsum(np.exp(logp - logp.max()))
    thr = (cdf / cdf[-1] * 2.0**53).astype(np.uint64)
    b = min(18, max(16, len(thr).bit_length() + 4))
    # Each distinct threshold bucket (the last, 2^b, lies past the table)
    # ends a run of buckets that share its first threshold's index.
    k = (thr >> np.uint64(53 - b)).astype(np.intp)
    first = np.flatnonzero(np.diff(k, prepend=-1))
    z = (first - bound).astype(np.min_scalar_type(-(bound + 2)))  # holds bound + 1
    table = np.repeat(z, np.diff(k[first], prepend=-1))
    table[k[first[:-1]]] = bound + 1
    return thr, table[: 1 << b], np.uint64(64 - b), z.dtype.type(bound)  # cheaper compares


def gaussian_ints(
    rng: np.random.Generator, sigma: float, size: int | tuple[int, ...]
) -> np.ndarray:
    """Discrete Gaussian int64 draws, stddev sigma, truncated at ceil(12 sigma):
    zs[searchsorted(cdf, rng.random(size), "left")] (inverse-CDF sampling,
    Peikert 2010), leaving rng in the same state.  They read the words x of
    rng.bit_generator.random_raw(size), which random() turns into exactly
    (x >> 11) * 2^-53 for Philox, PCG64, PCG64DXSM and SFC64, through
    _gauss_table's integer tables.  Other bit generators raise TypeError
    (MT19937 builds each double from two 32-bit words)."""
    bitgen = rng.bit_generator
    if not isinstance(bitgen, _RAW_DOUBLE_BITGENS):
        name = type(bitgen).__name__
        raise TypeError(f"gaussian_ints cannot reproduce Generator.random from {name} words")
    if sigma < 0:
        raise ValueError("sigma must be nonnegative")
    if sigma == 0:
        return np.zeros(size, dtype=np.int64)
    thr, table, shift, bound = _gauss_table(float(sigma))
    x = bitgen.random_raw(size)
    z = table[(x >> shift).view(np.intp)]
    miss = (z == bound + 1).ravel().nonzero()[0]
    if miss.size:
        z.ravel()[miss] = np.searchsorted(thr, x.ravel()[miss] >> np.uint64(11)) - bound
    return z.astype(np.int64)


def _signed_element(ints: np.ndarray, bound: int, params: RingParams) -> RingElement:
    """The element whose coefficients are the int64 values ints, |ints| <=
    bound: one conditional add of p while bound stays below the smallest
    limb, otherwise a signed np.mod."""
    ps = params._ps.astype(np.int64)
    if bound < min(params.limbs):
        res = np.where(ints < 0, ints + ps, ints)
    else:
        res = np.mod(ints, ps)
    return RingElement(res.view(np.uint64), params)


def sample_gaussian(rng: np.random.Generator, sigma: float, params: RingParams) -> RingElement:
    """One element with discrete-Gaussian coefficients, gaussian_ints(rng,
    sigma, N) mod q."""
    return _signed_element(gaussian_ints(rng, sigma, params.N), math.ceil(12 * sigma), params)


def sample_flood(rng: np.random.Generator, sigma: float, params: RingParams) -> RingElement:
    """One element with coefficients round(X) mod q, X ~ N(0, sigma^2)
    i.i.d.: a rounded continuous Gaussian, the reveals' flooding noise (see
    crypto).  Generator.normal (a ziggurat) draws it with no table, at a
    cost that does not depend on sigma.  round(X) has mean 0 and variance
    sigma^2 + 1/12 up to terms of order exp(-2 pi^2 sigma^2); it is not
    truncated, but |round(X)| > 12 sigma needs |X| > 12 sigma - 1/2, which
    for sigma >= 2 has probability below 2^-103.  Widths of 2^48 and more
    raise ValueError: a draw could pass 2^53, where doubles skip integers."""
    if not 0 <= sigma < 2.0**48:
        raise ValueError(f"flood width {sigma} is outside [0, 2^48)")
    ints = np.rint(rng.normal(0.0, sigma, params.N)).astype(np.int64)
    return _signed_element(ints, int(np.abs(ints).max()), params)


# ---------------------------------------------------------------------------
# Plaintext packing
# ---------------------------------------------------------------------------

# 2^62 is the largest power of two an int64 holds, so encode keeps T and
# the slot bound 2^slot_width in int64 up to it.
_INT64_BITS = 62


def _int_values(arr: np.ndarray, native: bool) -> np.ndarray:
    """arr as int64 when `native` and every value converts, else as Python ints."""
    if native:
        try:
            return arr.astype(np.int64)
        except OverflowError:
            pass
    return np.array([int(v) for v in arr], dtype=object)


def encode(values, pf: int, slot_width: int, params: RingParams) -> list[RingElement]:
    """Pack a vector of integers into plaintext ring elements.

    With pf == 1 each value occupies a whole coefficient and is reduced
    mod T, so signed values (e.g. noise contributions) are fine.  With
    pf >= 2, values share coefficients in slot_width-bit lanes and must
    lie in [0, 2^slot_width) so that lane sums cannot carry into a
    neighbouring slot before the headroom is exhausted.

    Limb p of a coefficient holding slots v_s is built directly as
    sum_s v_s * (2^(s * slot_width) mod p) mod p, reduced once where that
    sum fits uint64 (pf * 2^(slot_width + 31) < 2^64, or pf == 1), and
    term by term otherwise.  The values stay
    in int64 unless one cannot: T > 2^62 with pf == 1, slot_width > 62, or
    an input too wide for int64; those go through Python ints.
    """
    if pf < 1:
        raise ValueError("packing factor must be >= 1")
    arr = np.asarray(values)
    n = params.N
    total = -(-len(arr) // (pf * n))
    if pf == 1:
        # Whole-coefficient encoding accepts signed values, reduced mod T.
        vals = _int_values(arr, params.T <= 2**_INT64_BITS) % params.T
    else:
        if pf * slot_width > (params.T - 1).bit_length():
            raise ValueError("pf * slot_width exceeds plaintext modulus width")
        vals = _int_values(arr, slot_width <= _INT64_BITS)
        bad = (vals < 0) | (vals >= 1 << slot_width)
        if bad.any():
            raise ValueError(f"value {vals[bad.argmax()]} does not fit a {slot_width}-bit slot")
    # Every value is now nonnegative, so int64 ones reduce as uint64.
    slots = np.zeros(total * n * pf, dtype=object if vals.dtype == object else np.uint64)
    slots[: len(vals)] = vals
    ps = params._ps
    lanes = np.ascontiguousarray(slots.reshape(total * n, pf).T)
    if lanes.dtype != object and (pf == 1 or pf << (slot_width + 31) < 2**64):
        # A lane times 2^(s*w) mod p is below 2^(w+31): the pf of them sum
        # without wrapping, and one reduction serves them all.
        res = lanes[0]
        for s, lane in enumerate(lanes[1:], start=1):
            res = res + lane * _limb_col(1 << (s * slot_width), params.limbs)
        res = res % ps
    else:
        res = np.zeros((len(params.limbs), total * n), dtype=np.uint64)
        for s, lane in enumerate(lanes):
            if lane.dtype == object:
                r = np.stack([(lane % p).astype(np.uint64) for p in params.limbs])
            else:
                r = lane % ps
            res += r * _limb_col(1 << (s * slot_width), params.limbs) % ps if s else r
        res %= ps
    per_elem = res.reshape(len(params.limbs), total, n).transpose(1, 0, 2).copy()
    return [RingElement(per_elem[k], params) for k in range(total)]


@lru_cache(maxsize=None)
def _mixed_radix(limbs: tuple[int, ...]):
    """Constants of the Garner lift over `limbs` (see centered_mod_t).

    With radix_i = p_0 * ... * p_(i-1), a value below q is
    sum_i d_i * radix_i with digits d_i in [0, p_i), and
    d_i = (r_i - sum_(j<i) d_j * radix_j) * radix_i^-1 mod p_i.
    """
    q = math.prod(limbs)
    radix = [math.prod(limbs[:i]) for i in range(len(limbs))]
    steps = [
        (np.uint64(p), np.uint64(pow(radix[i] % p, -1, p)), [np.uint64(r % p) for r in radix[:i]])
        for i, p in enumerate(limbs)
    ]
    half = [np.uint64(q // 2 // radix[i] % p) for i, p in enumerate(limbs)]
    wrapped = [np.uint64(r % 2**64) for r in radix]
    return steps, half, wrapped, np.uint64(-q % 2**64)


def centered_mod_t(a: RingElement) -> np.ndarray:
    """a.centered() % T, computed from the residues.

    When T is a power of two no larger than 2^64 the result is a uint64
    array: a mixed-radix (Garner) lift gives each coefficient's digits,
    comparing them with the digits of q // 2 from the most significant
    tells which coefficients lie above q/2, and the value is formed
    mod 2^64 with wrapping products and masked with T - 1 (Bajard et al.,
    SAC 2016; Halevi, Polyakov and Shoup, CT-RSA 2019).  Any other T goes
    through centered() and returns Python ints.
    """
    T = a.params.T
    if T & (T - 1) or T > 2**64:
        return a.centered() % T
    steps, half, wrapped, neg_q = _mixed_radix(a.params.limbs)
    digits = []
    for r, (p, inv, weights) in zip(a.res, steps):
        if weights:
            y = sum(d * w % p for d, w in zip(digits, weights)) % p
            r = (r + p - y) * inv % p
        digits.append(r)
    above = np.zeros(a.params.N, dtype=bool)
    tie = np.ones(a.params.N, dtype=bool)
    for d, h in zip(reversed(digits), reversed(half)):
        above |= tie & (d > h)
        tie &= d == h
    value = sum(d * w for d, w in zip(digits, wrapped))
    return np.where(above, value + neg_q, value) & np.uint64(T - 1)


def decode(elems: Iterable, length: int, pf: int, slot_width: int) -> np.ndarray:
    """Unpack slot-packed coefficients; exact inverse of encode on its range.

    Accepts RingElements, which are lifted with centered_mod_t, or plain
    coefficient arrays already reduced mod T.  Slots come out by shifts and
    masks: in uint64 when T is a power of two no larger than 2^64, as Python
    ints for any other T.  Out-of-range slot contents are returned verbatim.
    """
    arrays = [centered_mod_t(e) if isinstance(e, RingElement) else np.asarray(e) for e in elems]
    flat = np.concatenate(arrays) if arrays else np.zeros(0, dtype=object)
    if pf == 1:
        # A copy: a slice would keep every coefficient alive with the reveal.
        return flat[:length].copy()
    idx = np.arange(length)
    words, shifts, mask = flat[idx // pf], idx % pf * slot_width, (1 << slot_width) - 1
    if words.dtype == object:
        return (words >> shifts.astype(object)) & mask
    return (words.astype(np.uint64) >> shifts.astype(np.uint64)) & np.uint64(mask)
