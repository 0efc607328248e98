"""Deterministic randomness derivation.

Every random choice in the simulator is drawn from a generator keyed by a
hash of (root seed, context tags), so whole runs replay bit-for-bit from a
single integer seed.  Philox is counter-based, which matches the on-paper
model of seed expansion as counter-mode application of a fixed permutation.

Because a key and a zero counter fully define a Philox stream, re-keying
one generator in place gives the same draws as building a new one, at a
tenth of the cost.  `rekeyed_rng` does that on one module-level generator.
Its rule: the caller uses up the stream before the next `rekeyed_rng` call,
which rewinds the same generator.  It serves seed expansion and the
Gaussian input noise, where each stream is drawn in full on the spot; it
is not a general `ctx_rng` replacement, since callers hold `ctx_rng`
generators across other calls.
"""

from __future__ import annotations

import hashlib

import numpy as np

__all__ = ["hash_key", "ctx_rng", "rekeyed_rng"]

_MASK64 = 2**64 - 1

_SHARED_BITGEN = np.random.Philox(0)
_SHARED = np.random.Generator(_SHARED_BITGEN)
_SHARED_STATE = _SHARED_BITGEN.state


def hash_key(*parts) -> int:
    """Derive a 128-bit integer key from arbitrary context parts."""
    h = hashlib.sha256()
    for part in parts:
        if isinstance(part, bytes):
            h.update(b"b" + part)
        elif isinstance(part, str):
            h.update(b"s" + part.encode("utf-8"))
        elif isinstance(part, (int, np.integer)):
            v = int(part)
            h.update(b"i" + v.to_bytes((v.bit_length() + 8) // 8 + 1, "big", signed=True))
        elif isinstance(part, float):
            h.update(b"f" + repr(part).encode("ascii"))
        elif isinstance(part, (tuple, list)):
            h.update(b"(")
            h.update(hash_key(*part).to_bytes(16, "big"))
            h.update(b")")
        elif part is None:
            h.update(b"n")
        else:
            raise TypeError(f"cannot derive key from {type(part).__name__}")
        h.update(b"|")
    return int.from_bytes(h.digest()[:16], "big")


def ctx_rng(*parts) -> np.random.Generator:
    """Generator keyed by the given context; same context, same stream."""
    return np.random.Generator(np.random.Philox(key=hash_key(*parts)))


def rekeyed_rng(key: int) -> np.random.Generator:
    """The shared generator, re-keyed to a 128-bit key: it draws exactly as
    a fresh `Generator(Philox(key=key))` does, until the next call."""
    st = _SHARED_STATE
    st["state"]["key"][:] = (key & _MASK64, key >> 64)
    st["state"]["counter"][:] = 0
    st["buffer"][:] = 0
    st["buffer_pos"] = 4
    st["has_uint32"] = 0
    st["uinteger"] = 0
    _SHARED_BITGEN.state = st
    return _SHARED
