"""Symmetric RLWE encryption with key and message homomorphism.

A plaintext vector encoded as m ring elements is encrypted under key s as
    w[k] = a[k]*s + T*e[k] + x[k]
with small Gaussian e.  Because the scheme is linear in both the key and
the message, clients holding additive shares of s can each encrypt with
their share and the server's sum is a valid ciphertext under s.

Reveal messages are decryption shares with flooding noise: the client sends
    (-sum_k w_k * d_k) * s_share + T * g,
where d_k is the public mask of stored round k and g sums one fresh
Gaussian per weighted round.  Adding the weighted stored ciphertexts then
cancels every key term and leaves the plaintext plus a T-multiple.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from typing import Mapping, Sequence

import numpy as np

from . import ring
from .prng import ctx_rng

__all__ = [
    "PublicRound",
    "StoreMessage",
    "RevealMessage",
    "derive_public",
    "store_message",
    "reveal_message",
    "reveal_mask",
    "open",
]


@dataclass(frozen=True)
class PublicRound:
    """Per-round public elements, derived identically by every party."""

    round_index: int
    elems: tuple[ring.RingElement, ...]


@dataclass(frozen=True)
class StoreMessage:
    w: tuple[ring.RingElement, ...]


@dataclass(frozen=True)
class RevealMessage:
    w: tuple[ring.RingElement, ...]


def derive_public(global_seed, round_index: int, m: int, params: ring.RingParams) -> PublicRound:
    """m uniform elements as a pure function of (global seed, round)."""
    rng = ctx_rng(global_seed, "public-round", round_index)
    return PublicRound(round_index, tuple(ring.sample_uniform(rng, params) for _ in range(m)))


def store_message(
    a_elems: Sequence[ring.RingElement],
    key_share: ring.RingElement,
    x_elems: Sequence[ring.RingElement],
    sigma_n: float,
    rng: np.random.Generator,
    mask: Sequence[ring.RingElement] | None = None,
) -> StoreMessage:
    """Encrypt the encoded input under a key share: a*s + T*e + x (+ mask)."""
    if len(x_elems) != len(a_elems):
        raise ValueError(f"{len(a_elems)} public elements but {len(x_elems)} plaintext elements")
    if mask is not None and len(mask) != len(a_elems):
        raise ValueError("mask shape does not match message shape")
    params = key_share.params
    out = []
    for k, (a, x) in enumerate(zip(a_elems, x_elems)):
        terms = [(1, ring.mul(a, key_share)), (1, x)]
        if sigma_n > 0:
            terms.append((params.T, ring.sample_gaussian(rng, sigma_n, params)))
        if mask is not None:
            terms.append((1, mask[k]))
        out.append(ring.lincomb(terms, params))
    return StoreMessage(tuple(out))


def reveal_mask(
    round_elems: Mapping[int, Sequence[ring.RingElement]],
    weights: Mapping[int, int],
) -> list[ring.RingElement]:
    """The public mask -sum_k w_k * d_k applied to key shares in reveals."""
    if not round_elems and not weights:
        raise ValueError("no rounds available")
    some = next(iter(round_elems.values()), None)
    if some is None:
        raise ValueError("no rounds available")
    for k in weights:
        if k not in round_elems:
            raise ValueError(f"weight references unknown round {k}")
    params = some[0].params
    return [
        ring.lincomb(((-w, round_elems[k][e]) for k, w in weights.items()), params)
        for e in range(len(some))
    ]


def reveal_message(
    round_elems: Mapping[int, Sequence[ring.RingElement]],
    weights: Mapping[int, int],
    key_share: ring.RingElement,
    sigma_flood: float,
    rng: np.random.Generator,
    x_elems: Sequence[ring.RingElement] | None = None,
    mask: Sequence[ring.RingElement] | None = None,
    mask_elems: Sequence[ring.RingElement] | None = None,
) -> RevealMessage:
    """Decryption share with flooding noise, optionally carrying own input.

    mask_elems short-circuits recomputation of the public reveal mask when
    the caller already derived it for the whole cohort.
    """
    params = key_share.params
    base = list(mask_elems) if mask_elems is not None else reveal_mask(round_elems, weights)
    # One Gaussian per weighted round, scaled by w_k * T, drawn as lincomb
    # reaches it so that only one is held at a time.
    flood = [w * params.T for w in weights.values() if w] if sigma_flood > 0 else []
    out = []
    for e in range(len(base)):
        terms = [(1, ring.mul(base[e], key_share))]
        if x_elems is not None:
            terms.append((1, x_elems[e]))
        if mask is not None:
            terms.append((1, mask[e]))
        noise = ((wt, ring.sample_gaussian(rng, sigma_flood, params)) for wt in flood)
        out.append(ring.lincomb(chain(terms, noise), params))
    return RevealMessage(tuple(out))


def open(
    stored: Mapping[int, Sequence[ring.RingElement]],
    reveal_agg: Sequence[ring.RingElement],
    weights: Mapping[int, int],
    ell: int,
    pf: int,
    slot_width: int,
    corrections: Sequence[ring.RingElement] | None = None,
    masks_sum: Sequence[ring.RingElement] | None = None,
) -> np.ndarray:
    """Combine stored ciphertexts with the aggregated reveal and decode.

    Computes reveal_agg + sum_k w_k * stored[k] - corrections - masks_sum,
    lifts each coefficient to its signed representative (noise is signed,
    so reduction mod T must happen on centered values), reduces mod T and
    unpacks the plaintext slots.  Valid in the noise regime where the total
    signed magnitude stays below q/2.  When T is a power of two no larger
    than 2^64 (every T that params.make_paramset builds) the lift runs on
    the residues (ring.centered_mod_t) and the result is a uint64 array;
    any other T is lifted through Python ints.
    """
    params = reveal_agg[0].params
    coeff_arrays = []
    for e, agg in enumerate(reveal_agg):
        terms = [(1, agg)] + [(w, stored[k][e]) for k, w in weights.items() if w]
        terms += [(-1, sub[e]) for sub in (corrections, masks_sum) if sub is not None]
        coeff_arrays.append(ring.centered_mod_t(ring.lincomb(terms, params)))
    return ring.decode(coeff_arrays, ell, pf, slot_width)
