"""Shared test utilities: independent reference implementations and random
problem generators.  Everything here is deliberately naive; these are the
oracles the library is checked against."""

from __future__ import annotations

import hashlib

import numpy as np

from stateful_agg import params, protocol
from stateful_agg import program as prog
from stateful_agg.prng import ctx_rng


def negacyclic_reference(a, b, n, q):
    """Schoolbook negacyclic convolution over Python ints."""
    out = [0] * n
    for i, ai in enumerate(a):
        for j, bj in enumerate(b):
            k = i + j
            if k < n:
                out[k] += int(ai) * int(bj)
            else:
                out[k - n] -= int(ai) * int(bj)
    return [v % q for v in out]


def eager_eval(p: prog.Program, inputs, q=None):
    """Direct recursion v_i = sum_j x_ij + sum_k w_ik v_k; the lazy-weights oracle."""
    values = []
    reveals = []
    for i, instr in enumerate(p.rounds, start=1):
        v = inputs[i - 1].sum(axis=0)
        for k, w in instr.weights:
            v = v + w * values[k - 1]
        if q is not None:
            v = v % q
        values.append(v)
        if instr.mode == prog.REVEAL:
            reveals.append((i, v))
    return values, reveals


def random_program(rng: np.random.Generator, r_max=8, n_max=8, ell_max=32,
                   weight_lo=-2, weight_hi=2, reveal_bias=0.5):
    """Random valid program with data-only inputs; returns (program, n)."""
    r = int(rng.integers(1, r_max + 1))
    n = int(rng.integers(1, n_max + 1))
    ell = int(rng.integers(1, ell_max + 1))
    rounds = []
    for i in range(1, r + 1):
        mode = prog.REVEAL if rng.random() < reveal_bias else prog.STORE
        weights = {}
        for k in range(1, i):
            if rng.random() < 0.5:
                w = int(rng.integers(weight_lo, weight_hi + 1))
                if w:
                    weights[k] = w
        rounds.append(prog.Instruction.make(mode, prog.InputRule.data(), weights))
    return prog.Program(ell=ell, rounds=rounds), n


def desk_paramset(p: prog.Program, n: int, input_bits: int = 6, **kw):
    """Small-degree parameter set sized for the program's actual weights."""
    kw.setdefault("N", 32)
    kw.setdefault("d", 4)
    return params.make_paramset(
        n=n, r=p.r, ell=p.ell, input_bits=input_bits,
        stats=prog.reveal_stats(p), **kw,
    )


def random_data(rng: np.random.Generator, p: prog.Program, n: int, input_bits: int = 6):
    return rng.integers(0, 2**input_bits, size=(p.r, n, p.ell)).astype(object)


def reveals_equal(a, b) -> bool:
    if len(a) != len(b):
        return False
    for (r1, v1), (r2, v2) in zip(a, b):
        if r1 != r2 or len(v1) != len(v2):
            return False
        if any(int(x) != int(y) for x, y in zip(v1, v2)):
            return False
    return True


def run_rng(*parts) -> np.random.Generator:
    return ctx_rng("test", *parts)


def routed_receivers(seed, pset, i: int, j: int) -> list[int]:
    """Receivers of client j's pieces in round i, one piece each: the
    distinct values of the d public picks its `client_step` draws."""
    rng = ctx_rng(seed, "reshare", i, j)
    return sorted({int(v) for v in rng.integers(0, pset.n, size=pset.d)})


def running_sum_program(r: int, ell: int) -> prog.Program:
    """Round i reveals x_i + v_(i-1): every reveal reads every earlier round."""
    return prog.Program(ell=ell, rounds=[
        prog.Instruction.make(prog.REVEAL, prog.InputRule.data(), {i - 1: 1} if i > 1 else {})
        for i in range(1, r + 1)
    ])


def _hash_run(h, res, diag) -> None:
    """Feed a run's reveals, key history and deficits to the hash h."""
    for rnd, vec in res.reveals:
        h.update(f"{rnd}:{[int(v) for v in vec]}".encode())
    for shares in res.key_history:
        for sh in shares:
            h.update(b"-" if sh is None else sh.res.tobytes())
    for _rnd, deficit in sorted((diag.deficits if diag else {}).items()):
        h.update(b"-" if deficit is None else deficit.res.tobytes())


def run_digest(res, diag=None) -> str:
    """SHA-256 over a run's reveals, key history, deficits and transcript rows."""
    h = hashlib.sha256()
    _hash_run(h, res, diag)
    h.update(repr([
        (row.round, row.mode, row.c2s_bytes, row.c2c_bytes, row.c2c_messages, row.dropped)
        for row in res.transcript.rows
    ]).encode())
    return h.hexdigest()


def invariant_digest(res, diag) -> str:
    """SHA-256 over what a dropout run's recovery must leave unchanged
    whatever its backups look like: reveals, key history, deficits, mask
    secrets and recovered piece counts (no traffic)."""
    h = hashlib.sha256()
    _hash_run(h, res, diag)
    for rnd, j in sorted(diag.mask_secrets):
        h.update(f"{rnd},{j}:".encode() + diag.mask_secrets[(rnd, j)].res.tobytes())
    h.update(repr(sorted(diag.recovered_pieces.items())).encode())
    return h.hexdigest()


def capture_servers(monkeypatch) -> list:
    """Wrap `protocol.server_step` so that the runs that follow record their
    `ServerState`, once each, in the returned list."""
    servers = []
    step = protocol.server_step

    def recording_step(server, *args, **kwargs):
        if not any(s is server for s in servers):
            servers.append(server)
        return step(server, *args, **kwargs)

    monkeypatch.setattr(protocol, "server_step", recording_step)
    return servers


def stored_digest(server) -> str:
    """SHA-256 over a server's stored aggregates, by round and element: every
    upload's noise, and any self-mask left unstripped, shows here."""
    h = hashlib.sha256()
    for rnd in sorted(server.stored):
        h.update(f"{rnd}:".encode())
        for elem in server.stored[rnd]:
            h.update(elem.res.tobytes())
    return h.hexdigest()
