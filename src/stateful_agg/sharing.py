"""Additive and Shamir threshold secret sharing over R_q, plus the
seed-compressed resharing that replaces full key shares with short PRG
seeds and a single correction element sent to the server.

Shamir sharing of a ring element is applied coefficientwise, one
polynomial per coefficient, and independently per prime limb of q (the
evaluation points 1..h must be invertible, which holds per limb).  A
scalar in Z_q is an element of the degree-1 ring over the same limbs.
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
    """Pairs (evaluation point, share element); any t of them reconstruct."""

    shares: tuple[tuple[int, ring.RingElement], ...]
    threshold: int


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


def tshare(secret: ring.RingElement, h: int, t: int, rng: np.random.Generator) -> ThresholdShares:
    """Shamir-share a ring element among h holders.

    Shares are degree-(t-1) polynomial evaluations at points 1..h with the
    secret as constant term, done per coefficient and per limb.
    """
    return tshare_many([secret], h, t, rng)[0]


def tshare_many(
    secrets: Sequence[ring.RingElement], h: int, t: int, rng: np.random.Generator
) -> list[ThresholdShares]:
    """Shamir-share several ring elements at once.

    Gives exactly the shares of one `tshare` call per secret, in order, on
    the same generator.
    """
    if not secrets:
        return []
    if t < 1 or t > h:
        raise ValueError(f"threshold t={t} must satisfy 1 <= t <= h={h}")
    pr = secrets[0].params
    if h >= min(pr.limbs):
        raise ValueError("committee size must be below every prime limb")
    out = _shamir_stack(np.stack([s.res for s in secrets]), h, t, rng, pr.limbs)
    # Each share is a view into `out`, no copy.
    return [
        ThresholdShares(tuple((x, ring.RingElement(out[x - 1, k], pr)) for x in range(1, h + 1)), t)
        for k in range(len(secrets))
    ]


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


def trec(shares, t: int | None = None) -> ring.RingElement:
    """Reconstruct by Lagrange interpolation at 0 from at least t shares."""
    if isinstance(shares, ThresholdShares):
        t = shares.threshold if t is None else t
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
    pr = pairs[0][1].params
    vals = np.stack([v.res for _, v in pairs])
    lam = _lagrange_at_zero(xs, pr.limbs)
    return ring.RingElement((vals * lam[:, :, None] % pr._ps).sum(axis=0) % pr._ps, pr)


# ---------------------------------------------------------------------------
# Seed-compressed resharing
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SeedReshare:
    """d short seeds for the peers plus one correction element for the server.

    expand(seed_1) + ... + expand(seed_d) + correction == secret; the
    expansions, made once, are kept in seed order for the sender's backups.
    """

    seeds: tuple[int, ...]
    correction: ring.RingElement
    expansions: tuple[ring.RingElement, ...]


def expand_seed(seed: int, params: ring.RingParams) -> ring.RingElement:
    """Deterministic expansion of a short seed to a uniform ring element."""
    return ring.sample_uniform(rekeyed_rng(hash_key("seed-expand", seed)), params)


def piece_sum(pieces, params: ring.RingParams) -> ring.RingElement:
    """Sum of ring-element pieces with one reduction."""
    return ring.lincomb(((1, p) for p in pieces), params)


def seed_reshare(secret: ring.RingElement, d: int, rng: np.random.Generator) -> SeedReshare:
    """Reshare via d fresh 128-bit seeds; peers get seeds, server gets y*.

    Each seed is expanded once; the caller that routes the seeds can hand
    the kept expansions on (to a round inbox, to backups), so no receiver
    or backup expands a seed again.
    """
    if d < 1:
        raise ValueError("share count must be >= 1")
    # One draw of d*16 bytes equals d draws of 16: both are whole uint32 words.
    width = SEED_BITS // 8
    raw = rng.bytes(width * d)
    seeds = tuple(int.from_bytes(raw[k : k + width], "big") for k in range(0, width * d, width))
    expansions = tuple(expand_seed(seed, secret.params) for seed in seeds)
    return SeedReshare(seeds, secret - piece_sum(expansions, secret.params), expansions)
