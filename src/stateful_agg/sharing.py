"""Additive and Shamir threshold secret sharing over R_q, plus the
seed-compressed resharing that replaces full key shares with short PRG
seeds and a single correction element sent to the server.

Shamir sharing of a ring element is applied coefficientwise, one
polynomial per coefficient, and independently per prime limb of q (the
evaluation points 1..h must be invertible, which holds per limb).  Scalar
secrets in Z_q are shared the same way via their limb residues.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

import numpy as np

from . import ring
from .prng import hash_key, rekeyed_rng

__all__ = [
    "ThresholdShares",
    "SeedReshare",
    "ashare",
    "tshare",
    "tshare_many",
    "trec",
    "seed_reshare",
    "expand_seed",
    "piece_sum",
    "SEED_BITS",
]

SEED_BITS = 128


# ---------------------------------------------------------------------------
# Additive sharing
# ---------------------------------------------------------------------------


def ashare(
    secret: ring.RingElement, d: int, rng: np.random.Generator
) -> tuple[ring.RingElement, ...]:
    """Split into d uniform elements summing to the secret."""
    if d < 1:
        raise ValueError("share count must be >= 1")
    pr = secret.params
    parts = [ring.sample_uniform(rng, pr) for _ in range(d - 1)]
    parts.append(secret - piece_sum(parts, pr))
    return tuple(parts)


# ---------------------------------------------------------------------------
# Shamir threshold sharing
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ThresholdShares:
    """Pairs (evaluation point, share value); any t of them reconstruct."""

    shares: tuple[tuple[int, object], ...]
    threshold: int
    params: "ring.RingParams | None" = None  # modulus context for scalar shares


def _as_residues(secret, params: ring.RingParams) -> np.ndarray:
    """Residue stack (L, k) for a ring element or (L, 1) for a scalar."""
    if isinstance(secret, ring.RingElement):
        return secret.res
    v = int(secret)
    return np.array([[v % p] for p in params.limbs], dtype=np.uint64)


def _from_residues(res: np.ndarray, params: ring.RingParams, scalar: bool):
    if scalar:
        val = 0
        for row, w in zip(res, params._crt_weights):
            val += int(row[0]) * w
        return val % params.q
    return ring.RingElement(res.astype(np.uint64), params)


def _shamir_stack(res: np.ndarray, h: int, t: int, rng: np.random.Generator, limbs) -> np.ndarray:
    """Shares of a (K, L, W) residue stack at points 1..h, shape (h, K, L, W).

    The polynomial coefficients are drawn secret by secret, then by power,
    then by limb, so a stack of K secrets consumes `rng` exactly as K
    single-secret calls do.  Each point sums its Vandermonde terms x^k
    unreduced in uint64 and reduces once, or every few terms when
    (t-1) * max(x^k mod p) * p could overflow.
    """
    K, L, W = res.shape
    coeffs = np.empty((L, t - 1, K, W), dtype=np.uint64)
    for k in range(K):
        for c in range(t - 1):
            for l, p in enumerate(limbs):
                coeffs[l, c, k] = rng.integers(0, p, size=W, dtype=np.uint64)
    out = np.empty((h, K, L, W), dtype=np.uint64)
    for l, p in enumerate(limbs):
        pw = np.uint64(p)
        powers = [[pow(x, c, p) for c in range(1, t)] for x in range(1, h + 1)]
        vmax = max((v for row in powers for v in row), default=1)
        # Terms c*v (c < p, v <= vmax) that fit in uint64 on top of a sum below p.
        chunk = max(1, (2**64 - p) // (vmax * (p - 1)))
        for xi, row in enumerate(powers):
            acc = res[:, l].astype(np.uint64)
            for c, v in enumerate(row, start=1):
                acc += coeffs[l, c - 1] * np.uint64(v)
                if c % chunk == 0:
                    acc -= acc // pw * pw
            out[xi, :, l] = acc - acc // pw * pw
    return out


def _share(secrets: Sequence, h: int, t: int, rng: np.random.Generator, params) -> list[ThresholdShares]:
    scalar = not isinstance(secrets[0], ring.RingElement)
    if not scalar:
        params = secrets[0].params
    elif params is None:
        raise ValueError("scalar secrets need ring params for the modulus")
    if t < 1 or t > h:
        raise ValueError(f"threshold t={t} must satisfy 1 <= t <= h={h}")
    if h >= min(params.limbs):
        raise ValueError("committee size must be below every prime limb")
    res = np.stack([_as_residues(s, params) for s in secrets])
    out = _shamir_stack(res, h, t, rng, params.limbs)

    def value(share_res: np.ndarray):
        if scalar:
            return _from_residues(share_res, params, True)
        return ring.RingElement(share_res, params)  # a view into `out`, no copy

    return [
        ThresholdShares(
            tuple((x, value(out[x - 1, k])) for x in range(1, h + 1)),
            t,
            params if scalar else None,
        )
        for k in range(len(secrets))
    ]


def tshare(
    secret,
    h: int,
    t: int,
    rng: np.random.Generator,
    params: ring.RingParams | None = None,
) -> ThresholdShares:
    """Shamir-share a ring element or a scalar in Z_q among h holders.

    Shares are degree-(t-1) polynomial evaluations at points 1..h with the
    secret as constant term, done per coefficient and per limb.
    """
    return _share([secret], h, t, rng, params)[0]


def tshare_many(
    secrets: Sequence,
    h: int,
    t: int,
    rng: np.random.Generator,
    params: ring.RingParams | None = None,
) -> list[ThresholdShares]:
    """Shamir-share several ring elements (or several scalars) at once.

    Gives exactly the shares of one `tshare` call per secret, in order, on
    the same generator.
    """
    if not secrets:
        return []
    return _share(secrets, h, t, rng, params)


@lru_cache(maxsize=256)
def _lagrange_at_zero(xs: tuple[int, ...], limbs: tuple[int, ...]) -> np.ndarray:
    """Weights (len(xs), L) interpolating at 0 from points xs, per limb."""
    lam = np.empty((len(xs), len(limbs)), dtype=np.uint64)
    for l, p in enumerate(limbs):
        for i, xi in enumerate(xs):
            num, den = 1, 1
            for xj in xs:
                if xj != xi:
                    num = num * xj % p
                    den = den * (xj - xi) % p
            lam[i, l] = num * pow(den, -1, p) % p
    lam.setflags(write=False)
    return lam


def trec(shares, t: int | None = None, params: ring.RingParams | None = None):
    """Reconstruct by Lagrange interpolation at 0 from at least t shares."""
    if isinstance(shares, ThresholdShares):
        t = shares.threshold if t is None else t
        params = shares.params if params is None else params
        pairs = list(shares.shares)
    else:
        pairs = list(shares)
        if t is None:
            raise ValueError("threshold required when passing raw share pairs")
    if len(pairs) < t:
        raise ValueError(f"need at least {t} shares, got {len(pairs)}")
    xs = tuple(x for x, _ in pairs)
    if len(set(xs)) != len(xs):
        raise ValueError("duplicate evaluation points")
    first = pairs[0][1]
    scalar = not isinstance(first, ring.RingElement)
    if scalar and params is None:
        raise ValueError("scalar reconstruction needs ring params")
    pr = params if scalar else first.params
    vals = np.stack([_as_residues(v, pr) for _, v in pairs])
    lam = _lagrange_at_zero(xs, pr.limbs)
    acc = (vals * lam[:, :, None] % pr._ps).sum(axis=0) % pr._ps
    return _from_residues(acc, pr, scalar)


# ---------------------------------------------------------------------------
# Seed-compressed resharing
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SeedReshare:
    """d short seeds for the peers plus one correction element for the server.

    expand(seed_1) + ... + expand(seed_d) + correction == secret.
    """

    seeds: tuple[int, ...]
    correction: ring.RingElement


def expand_seed(seed: int, params: ring.RingParams) -> ring.RingElement:
    """Deterministic expansion of a short seed to a uniform ring element."""
    return ring.sample_uniform(rekeyed_rng(hash_key("seed-expand", seed)), params)


def piece_sum(pieces, params: ring.RingParams) -> ring.RingElement:
    """Sum of ring-element pieces with one reduction."""
    return ring.lincomb(((1, p) for p in pieces), params)


def seed_reshare(
    secret: ring.RingElement, d: int, rng: np.random.Generator, rows=None
) -> SeedReshare:
    """Reshare via d fresh 128-bit seeds; peers get seeds, server gets y*.

    Each seed is expanded once.  With `rows` (d uint64 residue arrays, one
    per seed in order, such as the receivers' rows of a round inbox) each
    expansion is also added into its row unreduced, so the receiver never
    expands the seed again.
    """
    if d < 1:
        raise ValueError("share count must be >= 1")
    # One draw of d*16 bytes equals d draws of 16: both are whole uint32 words.
    width = SEED_BITS // 8
    raw = rng.bytes(width * d)
    seeds = tuple(int.from_bytes(raw[k : k + width], "big") for k in range(0, width * d, width))
    pr = secret.params
    acc = np.zeros((len(pr.limbs), pr.N), dtype=np.uint64)
    for k, seed in enumerate(seeds):
        piece = expand_seed(seed, pr).res
        acc += piece
        if rows is not None:
            rows[k] += piece
    return SeedReshare(seeds, secret - ring.RingElement(acc % pr._ps, pr))
