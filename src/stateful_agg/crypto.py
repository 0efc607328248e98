"""Symmetric RLWE encryption with key and message homomorphism.

Every client upload has one form, linear in the client's key share s:
    w[e] = b[e]*s + x[e] + T * g[e]
A store encrypts the encoded input under the round's public elements (b =
a), g a discrete Gaussian of width sigma_n: the RLWE error, whose hardness
is stated for that distribution.  A reveal is a decryption share under the
composed public basis b = -sum_k w_k * d_k of the stored rounds it
releases, g one rounded Gaussian flood of width sigma_n * ||w||_2.  Because
the scheme is linear in both the key and the message, clients holding
additive shares of s can each encrypt with their share and the server's sum
is a valid ciphertext under s; adding the weighted stored ciphertexts to a
reveal's sum cancels every key term and leaves the plaintext plus a
T-multiple.

The flood.  Beyond the plaintext, an opening exposes T times the weighted
stored errors mu = sum_k w_k * E_k, an integer vector, plus the floods T *
round(X), X ~ N(0, sigma^2).  For integer mu, round(mu + X) = mu +
round(X) is a function of the continuous mu + X, so by data processing the
flood hides mu as well as the continuous Gaussian does (noise flooding,
Asharov et al., EUROCRYPT 2012).  Its variance, sigma_n^2 * sum_k w_k^2 plus
the rounding's 1/12, is that of the per-round floods sum_k w_k * g_k it
replaced, so noise_budget is unchanged.  It is not truncated, but
|round(X)| > 12 sigma has probability below 2^-103 (ring.sample_flood), so
GAUSS_TAIL still bounds it.  The input DP noise (ideal) stays discrete: its
guarantee is the discrete Gaussian mechanism's, not a shift argument.
"""

from __future__ import annotations

from typing import Mapping, Sequence

import numpy as np

from . import ring
from .prng import ctx_rng

__all__ = [
    "derive_public",
    "encrypt",
    "reveal_mask",
    "open",
]


def derive_public(
    global_seed, round_index: int, m: int, params: ring.RingParams
) -> tuple[ring.RingElement, ...]:
    """m uniform elements as a pure function of (global seed, round)."""
    rng = ctx_rng(global_seed, "public-round", round_index)
    return tuple(ring.sample_uniform(rng, params) for _ in range(m))


def encrypt(
    basis: Sequence[ring.RingElement],
    key_share: ring.RingElement,
    x_elems: Sequence[ring.RingElement],
    sigma: float,
    rng: np.random.Generator,
    flood: float | None = None,
) -> tuple[ring.RingElement, ...]:
    """One upload: basis[e]*s + x[e] + T * g[e], one draw per element, in order.

    A store (flood None) draws g[e] = ring.sample_gaussian(rng, sigma), none
    when sigma is 0.  A reveal passes its width sigma_n * ||w||_2 as flood
    and draws g[e] = ring.sample_flood(rng, flood), none when it is 0; as
    round(mu + X) = mu + round(X) for integer mu, the flood hides the
    weighted stored errors mu (see the module docstring).  An all-zero basis
    element (a reveal with no earlier weights) adds no key term and costs no
    product.
    """
    if len(x_elems) != len(basis):
        raise ValueError(f"{len(basis)} basis elements but {len(x_elems)} plaintext elements")
    params = key_share.params
    width, sample = (sigma, ring.sample_gaussian) if flood is None else (flood, ring.sample_flood)
    out = []
    for e, b in enumerate(basis):
        terms = [(1, x_elems[e])]
        if b.res.any():
            terms.append((1, ring.mul(b, key_share)))
        if width > 0:
            terms.append((params.T, sample(rng, width, params)))
        out.append(ring.lincomb(terms, params))
    return tuple(out)


def reveal_mask(
    round_elems: Mapping[int, Sequence[ring.RingElement]],
    weights: Mapping[int, int],
) -> list[ring.RingElement]:
    """The public mask -sum_k w_k * d_k applied to key shares in reveals.

    An all-zero d_k (the basis of a reveal with no earlier weights) adds
    nothing and is skipped.
    """
    some = next(iter(round_elems.values()), None)
    if some is None:
        raise ValueError("no rounds available")
    for k in weights:
        if k not in round_elems:
            raise ValueError(f"weight references unknown round {k}")
    params = some[0].params
    return [
        ring.lincomb(
            ((-w, round_elems[k][e]) for k, w in weights.items() if round_elems[k][e].res.any()),
            params,
        )
        for e in range(len(some))
    ]


def open(
    stored: Mapping[int, Sequence[ring.RingElement]],
    reveal_agg: Sequence[ring.RingElement],
    weights: Mapping[int, int],
    ell: int,
    pf: int,
    slot_width: int,
) -> np.ndarray:
    """Combine stored ciphertexts with the aggregated reveal and decode.

    Every ciphertext is under the one key s, so reveal_agg + sum_k w_k *
    stored[k] cancels the key term.  Computes that sum, lifts each
    coefficient to its signed representative (noise is signed, so
    reduction mod T must happen on centered values), reduces mod T and
    unpacks the plaintext slots.  Valid in the noise regime where the total
    signed magnitude stays below q/2.  When T is a power of two no larger
    than 2^64 the lift runs on the residues (ring.centered_mod_t) and the
    result is a uint64 array; any other T, such as the powers of two above
    2^64 that params.make_paramset builds for wide packed slots, is lifted
    through Python ints.
    """
    params = reveal_agg[0].params
    coeff_arrays = []
    for e, agg in enumerate(reveal_agg):
        terms = [(1, agg)] + [(w, stored[k][e]) for k, w in weights.items()]
        coeff_arrays.append(ring.centered_mod_t(ring.lincomb(terms, params)))
    return ring.decode(coeff_arrays, ell, pf, slot_width)
