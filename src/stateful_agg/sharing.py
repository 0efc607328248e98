"""Additive and Shamir threshold secret sharing over R_q, plus the
seed-compressed resharing that replaces full key shares with short PRG
seeds and a single correction element sent to the server.

Shamir sharing of a ring element is applied coefficientwise, one
polynomial per coefficient, and independently per prime limb of q (the
evaluation points 1..h must be invertible, which holds per limb).  A
scalar in Z_q is an element of the degree-1 ring over the same limbs.

Shamir shares are seed-compressed, the seed-for-share trade of
pseudorandom secret sharing (Cramer, Damgard and Ishai, TCC 2005).  For
each secret, t-1 fresh 128-bit seeds are drawn, and the shares at points
1..t-1 are their `expand_seed` expansions; the shares at points t..h are
the values there of the degree-(t-1) polynomial through (0, secret) and
those t-1 points.  So holders 1..t-1 can be sent a seed instead of an
element: one sharing costs (t-1) seeds and h-t+1 elements (`share_bits`).

Security: the sharing is as hiding as one with uniform coefficients, up
to the PRG.  Fix f(0) = secret.  For any set S of t-1 nonzero points,
the values of f on S are an affine bijection of the t-1 values at 1..t-1
(both sets, with 0, determine f by interpolation), whose linear part does
not depend on the secret.  With the seeded values uniform, a coalition of
fewer than t holders sees uniform values, and with them pseudorandom, it
sees values indistinguishable from uniform, independent of the secret.
Any t shares still interpolate to the secret.
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
    "share_bits",
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
    """Pairs (evaluation point, share element); any t of them reconstruct.

    seeds[x-1] is the seed whose `expand_seed` is the share at point x, for
    x = 1..t-1: those holders can be sent the seed instead of the element."""

    shares: tuple[tuple[int, ring.RingElement], ...]
    threshold: int
    seeds: tuple[int, ...]


def share_bits(h: int, t: int, elem_bits: int) -> int:
    """Bits that carry one `tshare` sharing of an element of elem_bits bits:
    t-1 seeded shares, each a seed or the element if that is shorter, and
    h-t+1 computed elements."""
    return (t - 1) * min(SEED_BITS, elem_bits) + (h - t + 1) * elem_bits


@lru_cache(maxsize=256)
def _lagrange(xs: tuple[int, ...], at: tuple[int, ...], limbs: tuple[int, ...]) -> np.ndarray:
    """Weights (len(at), len(xs), L): per limb, the polynomial of degree
    below len(xs) through the points xs takes at `at[a]` the value
    sum_i lam[a, i] * (its value at xs[i])."""
    lam = np.empty((len(at), len(xs), len(limbs)), dtype=np.uint64)
    for l, p in enumerate(limbs):
        for a, z in enumerate(at):
            for i, xi in enumerate(xs):
                num, den = 1, 1
                for xj in xs:
                    if xj != xi:
                        num = num * (z - xj) % p
                        den = den * (xi - xj) % p
                lam[a, i, l] = num * pow(den, -1, p) % p
    lam.setflags(write=False)
    return lam


def _combine(lam: np.ndarray, vals: np.ndarray, pr: ring.RingParams, out=None) -> np.ndarray:
    """sum_i lam[a, i] * vals[i] mod each limb of pr, in out[a] (a new
    array if None), for every point a of the weights lam (P, T, L), from
    residues vals (T, ..., L, W); out is (P, ..., L, W).  Per limb, the terms add
    unreduced in uint64 and reduce once, or every few terms when they could
    overflow (limbs near 2^31).  The reductions divide by the scalar limb,
    which numpy does fast, and one scratch array serves every operation."""
    P, T = lam.shape[:2]
    if out is None:
        out = np.empty((P,) + vals.shape[1:], dtype=np.uint64)
    scratch = np.empty(out[:, ..., 0, :].shape, dtype=np.uint64)

    def reduce(acc, pw):
        np.floor_divide(acc, pw, out=scratch)
        np.multiply(scratch, pw, out=scratch)
        acc -= scratch

    for l, p in enumerate(pr.limbs):
        pw = np.uint64(p)
        w = lam[:, :, l].reshape((P, T) + (1,) * (vals.ndim - 2))
        # Terms below p^2 that fit in uint64 on top of a sum below p.
        chunk = (2**64 - p) // (p - 1) ** 2
        acc = out[:, ..., l, :]
        np.multiply(w[:, 0], vals[0, ..., l, :], out=acc)
        for i in range(1, T):
            if i % chunk == 0:
                reduce(acc, pw)
            np.multiply(w[:, i], vals[i, ..., l, :], out=scratch)
            acc += scratch
        reduce(acc, pw)
    return out


def tshare(secret: ring.RingElement, h: int, t: int, rng: np.random.Generator) -> ThresholdShares:
    """Shamir-share a ring element among h holders: evaluations at points
    1..h of a degree-(t-1) polynomial with the secret as constant term,
    coefficientwise and per limb.  The shares at points 1..t-1 are the
    expansions of t-1 fresh seeds drawn from rng; see the module docstring.
    """
    return tshare_many([secret], h, t, rng)[0]


def tshare_many(
    secrets: Sequence[ring.RingElement], h: int, t: int, rng: np.random.Generator
) -> list[ThresholdShares]:
    """Shamir-share several ring elements at once.

    Gives exactly the shares of one `tshare` call per secret, in order, on
    the same generator: the seeds are drawn secret by secret.
    """
    if not secrets:
        return []
    if t < 1 or t > h:
        raise ValueError(f"threshold t={t} must satisfy 1 <= t <= h={h}")
    pr = secrets[0].params
    if h >= min(pr.limbs):
        raise ValueError("committee size must be below every prime limb")
    seeds = [_draw_seeds(rng, t - 1) for _ in secrets]
    # vals[0] holds the secrets (the values at point 0), vals[x] the shares
    # at point x: seed expansions below t, Lagrange evaluations from t on.
    vals = np.empty((h + 1, len(secrets), len(pr.limbs), pr.N), dtype=np.uint64)
    for k, s in enumerate(secrets):
        vals[0, k] = s.res
        for x, seed in enumerate(seeds[k], start=1):
            vals[x, k] = expand_seed(seed, pr).res
    lam = _lagrange(tuple(range(t)), tuple(range(t, h + 1)), pr.limbs)
    _combine(lam, vals[:t], pr, vals[t:])
    # Each share is a view into `vals`, no copy.
    return [
        ThresholdShares(
            tuple((x, ring.RingElement(vals[x, k], pr)) for x in range(1, h + 1)), t, own
        )
        for k, own in enumerate(seeds)
    ]


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
    return ring.RingElement(_combine(_lagrange(xs, (0,), pr.limbs), vals, pr)[0], pr)


# ---------------------------------------------------------------------------
# Seed-compressed resharing
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SeedReshare:
    """d short seeds for the peers plus one correction element for the server.

    expand(seed_1) + ... + expand(seed_d) + correction == secret; the
    expansions, made once, are kept in seed order for the sender's backups
    (empty when `seed_reshare` was asked not to keep them).
    """

    seeds: tuple[int, ...]
    correction: ring.RingElement
    expansions: tuple[ring.RingElement, ...]


def _draw_seeds(rng: np.random.Generator, count: int) -> tuple[int, ...]:
    """count fresh SEED_BITS-bit seeds.  One draw of count*16 bytes equals
    count draws of 16: both are whole uint32 words."""
    width = SEED_BITS // 8
    raw = rng.bytes(width * count)
    return tuple(int.from_bytes(raw[k : k + width], "big") for k in range(0, width * count, width))


def expand_seed(seed: int, params: ring.RingParams) -> ring.RingElement:
    """Deterministic expansion of a short seed to a uniform ring element."""
    return ring.sample_uniform(rekeyed_rng(hash_key("seed-expand", seed)), params)


def piece_sum(pieces, params: ring.RingParams) -> ring.RingElement:
    """Sum of ring-element pieces with one reduction."""
    return ring.lincomb(((1, p) for p in pieces), params)


def seed_reshare(
    secret: ring.RingElement, d: int, rng: np.random.Generator, route=None, keep: bool = True
) -> SeedReshare:
    """Reshare via d fresh 128-bit seeds; peers get seeds, server gets y*.

    Each seed is expanded once, handed as it is made to route(k, expansion)
    for its seed index k, if a route is given, and kept (in seed order) only
    with `keep`: a caller that routes the expansions to a round inbox and
    backs none up holds one at a time, and no receiver or backup expands a
    seed again.
    """
    if d < 1:
        raise ValueError("share count must be >= 1")
    pr = secret.params
    seeds = _draw_seeds(rng, d)
    acc = np.zeros_like(secret.res)  # as piece_sum: each expansion is below p < 2^31
    kept = []
    for k, seed in enumerate(seeds):
        expansion = expand_seed(seed, pr)
        acc += expansion.res
        if route is not None:
            route(k, expansion)
        if keep:
            kept.append(expansion)
    return SeedReshare(seeds, secret - ring.RingElement(acc % pr._ps, pr), tuple(kept))
