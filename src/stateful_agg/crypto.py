"""Symmetric RLWE encryption with key and message homomorphism.

Every client upload has one form, linear in the client's key share s:
    w[e] = b[e]*s + x[e] + T * sum_k c_k * g_k
with one fresh small Gaussian g_k per nonzero noise weight c_k (plus a
self-mask under dropout recovery).  A store encrypts the encoded input
under the round's public elements (b = a, noise weights (1,)).  A reveal
is a decryption share under the composed public basis b = -sum_k w_k * d_k
of the stored rounds it releases, flooded with one Gaussian per weighted
round (noise weights w_k).  Because the scheme is linear in both the key
and the message, clients holding additive shares of s can each encrypt
with their share and the server's sum is a valid ciphertext under s;
adding the weighted stored ciphertexts to a reveal's sum cancels every key
term and leaves the plaintext plus a T-multiple.
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
    noise_weights: Sequence[int],
    mask: Sequence[ring.RingElement] | None = None,
) -> tuple[ring.RingElement, ...]:
    """One upload: basis[e]*s + x[e] (+ mask[e]) + T * sum_k c_k * g_k.

    Draws one Gaussian per nonzero noise weight c_k, per element and in
    order; none when sigma is 0.  An element's draws are one block, which
    ring.sample_gaussian sums with the weights c_k * T.  A basis element
    that is all zero (a reveal with no earlier weights) contributes no key
    term and costs no product.
    """
    if len(x_elems) != len(basis):
        raise ValueError(f"{len(basis)} basis elements but {len(x_elems)} plaintext elements")
    if mask is not None and len(mask) != len(basis):
        raise ValueError("mask shape does not match message shape")
    params = key_share.params
    flood = [c * params.T for c in noise_weights if c] if sigma > 0 else []
    out = []
    for e, b in enumerate(basis):
        terms = [(1, x_elems[e])]
        if b.res.any():
            terms.append((1, ring.mul(b, key_share)))
        if mask is not None:
            terms.append((1, mask[e]))
        if flood:
            terms.append((1, ring.sample_gaussian(rng, sigma, params, flood)))
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
