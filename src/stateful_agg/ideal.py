"""Trusted-party reference for stateful aggregation.

Maintains the append-only state v_i = sum_j x_{i,j} + sum_{k<i} w_{i,k} v_k
over signed big integers and reduces mod T only at reveal, so the reference
is immune to any packing or headroom choices made by a real run.  Reveal of
round i's value is delivered one round late, during round i+1.

Also owns input materialization: turning each round's input rule plus the
clients' data into the concrete integer vectors submitted, with all noise
drawn deterministically from a seed so a protocol run can replay it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import program as prog
from .dp import per_client_std
from .prng import hash_key, rekeyed_rng
from .ring import gaussian_ints

__all__ = ["IdealState", "IdealResult", "materialize_inputs", "evaluate_program", "run_ideal"]


@dataclass
class IdealState:
    values: list[np.ndarray] = field(default_factory=list)
    reveals: list[tuple[int, np.ndarray]] = field(default_factory=list)


@dataclass
class IdealResult:
    reveals: list[tuple[int, np.ndarray]]
    state: IdealState


def materialize_inputs(
    p: prog.Program,
    data_inputs,
    n: int,
    noise_seed: int = 0,
    gamma: float = 0.0,
) -> np.ndarray:
    """Concrete (r, n, ell) integer submissions implied by the input rules.

    data_inputs supplies the data rounds (None means all zeros).  Gaussian
    rules draw per client with variance target/(n*(1-gamma)); draws depend
    only on (noise_seed, round, client), so two runs with the same seed see
    identical noise.

    The submissions are int64 when the data rounds' values convert to
    int64 and max|data| plus the widest noise draw (gaussian_ints truncates
    at 12 sigma) stays below 2^62; otherwise they are Python ints.
    """
    if data_inputs is None:
        data = np.zeros((p.r, n, p.ell), dtype=np.int64)
    else:
        data = np.asarray(data_inputs)
    if data.shape != (p.r, n, p.ell):
        raise ValueError(f"data inputs must have shape {(p.r, n, p.ell)}, got {data.shape}")
    stds = {
        i: per_client_std(instr.rule.variance, n, gamma)
        for i, instr in enumerate(p.rounds, start=1)
        if instr.rule.kind != prog.ZERO and instr.rule.variance > 0
    }
    noise = max((math.ceil(12 * s) for s in stds.values()), default=0)
    rows = [i for i, instr in enumerate(p.rounds) if instr.rule.kind == prog.DATA]
    values = _int64_or_object(data[rows], noise)
    out = np.zeros((p.r, n, p.ell), dtype=values.dtype)
    out[rows] = values
    for i, std in stds.items():
        for j in range(n):
            # Each stream is drawn in full on the spot: `rekeyed_rng`'s rule.
            rng = rekeyed_rng(hash_key(noise_seed, "input-noise", i, j))
            out[i - 1, j] += gaussian_ints(rng, std, p.ell).astype(out.dtype)
    return out


def _int64_or_object(values: np.ndarray, noise: int) -> np.ndarray:
    """Integer values as int64 when int64 holds them and max|values| + noise
    < 2^62, else as Python ints."""
    if values.dtype == object or np.can_cast(values.dtype, np.int64):
        try:
            v64 = values.astype(np.int64)
        except (OverflowError, TypeError, ValueError):
            v64 = None
        if v64 is not None and (
            v64.size == 0 or max(-int(v64.min()), int(v64.max())) + noise < 2**62
        ):
            return v64
    return values.astype(object)


def evaluate_program(p: prog.Program, inputs: np.ndarray, T: int) -> IdealResult:
    """Run the functionality on already-materialized inputs.

    inputs has shape (r, n, ell); reveals carry residues in [0, T).
    """
    inputs = np.asarray(inputs, dtype=object)
    if inputs.shape[0] != p.r or inputs.shape[2] != p.ell:
        raise ValueError(f"inputs shaped {inputs.shape} do not match program ({p.r}, n, {p.ell})")
    state = IdealState()
    for i, instr in enumerate(p.rounds, start=1):
        v = inputs[i - 1].sum(axis=0)
        for k, w in instr.weights:
            v = v + int(w) * state.values[k - 1]
        state.values.append(v)
        if instr.mode == prog.REVEAL:
            state.reveals.append((i, v % T))
    return IdealResult(reveals=list(state.reveals), state=state)


def run_ideal(
    p: prog.Program,
    data_inputs,
    T: int,
    n: int,
    noise_seed: int = 0,
    gamma: float = 0.0,
) -> IdealResult:
    """Materialize inputs from the rules, then evaluate."""
    errs = prog.validate(p)
    if errs:
        raise ValueError("invalid program: " + "; ".join(errs))
    inputs = materialize_inputs(p, data_inputs, n, noise_seed, gamma)
    return evaluate_program(p, inputs, T)
