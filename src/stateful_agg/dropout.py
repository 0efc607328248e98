"""Dropout-resilient protocol: chaperone committees, threshold backups of
key shares, and self-masked uploads.

A client that drops out of its round sends nothing at all.  Three repairs
keep the run correct:

* every resharing piece sent to a next-cohort receiver is also threshold
  shared to the receiver's chaperone committee (h clients one cohort later);
  if the receiver drops, a quorum of t chaperones releases its incoming
  pieces and the server accumulates them into the recovery element Z;
* every upload is blinded by a self-mask expanded from a short secret whose
  threshold shares go to the sender's own chaperones; the chaperones
  release them only for clients that completed their round, so the server
  can strip masks of survivors while a dropout's half-sent ciphertext
  stays blinded forever;
* reveals subtract the weighted products of public round bases with each
  round's accumulated key deficit, restoring what a full-key cohort would
  have uploaded.

The simulator's router is the ground truth for who dropped; it refuses to
release a dropped client's mask secret, and the run aborts with
QuorumError if any needed committee falls below its threshold.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import crypto, ring, sharing
from . import program as prog
from .ideal import materialize_inputs
from .params import ParamSet
from .prng import ctx_rng, hash_key
from .protocol import (
    ClientState,
    ProtocolError,
    RoundContext,
    RoundRecord,
    RunResult,
    ServerState,
    Transcript,
    build_context,
    run_noise_seed,
)

__all__ = [
    "QuorumError",
    "DropoutSchedule",
    "Diagnostics",
    "chaperone_committee",
    "prg_mask",
    "mask_and_store",
    "backup_shares",
    "recover_round",
    "run_dropout_protocol",
    "survivor_inputs",
    "random_schedule",
]


class QuorumError(ProtocolError):
    """A needed chaperone committee fell below its reconstruction threshold."""

    def __init__(self, msg: str, transcript: Transcript | None = None):
        super().__init__(msg)
        self.transcript = transcript


DropoutSchedule = dict[int, frozenset[int]]


def normalize_schedule(schedule, pset: ParamSet, r: int) -> DropoutSchedule:
    out: DropoutSchedule = {}
    for rnd, members in (schedule or {}).items():
        rnd = int(rnd)
        mem = frozenset(int(j) for j in members)
        if not mem:
            continue
        if not 1 <= rnd <= r:
            raise ValueError(f"dropout round {rnd} outside 1..{r}")
        if any(not 0 <= j < pset.n for j in mem):
            raise ValueError(f"dropout indices out of range in round {rnd}")
        if len(mem) > pset.beta * pset.n:
            raise ValueError(
                f"round {rnd}: {len(mem)} dropouts exceed beta*n = {pset.beta * pset.n:.2f}"
            )
        out[rnd] = mem
    return out


def random_schedule(pset: ParamSet, r: int, seed: int) -> DropoutSchedule:
    """Per round, a uniform subset of floor(beta*n) clients drops."""
    count = int(pset.beta * pset.n)
    if count == 0:
        return {}
    rng = ctx_rng(seed, "dropout-schedule")
    return {
        i: frozenset(int(v) for v in rng.choice(pset.n, size=count, replace=False))
        for i in range(1, r + 1)
    }


def survivor_inputs(inputs: np.ndarray, schedule: DropoutSchedule) -> np.ndarray:
    """Zero the submissions of dropped clients; the reference run on these
    inputs is what a correct dropout run must reveal."""
    out = inputs.copy()
    for rnd, dropped in schedule.items():
        for j in dropped:
            out[rnd - 1, j, :] = 0
    return out


def chaperone_committee(run_seed, pset: ParamSet, cohort: int, index: int, kind: str) -> tuple[int, ...]:
    """Committee (h member indices in cohort+1) guarding one client's
    backups ("key") or mask secret ("mask"); deterministic in the run seed."""
    if pset.h > pset.n:
        raise ValueError("committee size h cannot exceed cohort size n")
    ident = (run_seed, "committee", kind, cohort) if pset.single_committee else (
        run_seed, "committee", kind, cohort, index,
    )
    rng = ctx_rng(*ident)
    return tuple(int(v) for v in rng.choice(pset.n, size=pset.h, replace=False))


def prg_mask(secret: int, m: int, params: ring.RingParams) -> list[ring.RingElement]:
    """Expand a mask secret to message-shaped elements; secret 0 expands to
    zeros (lets tests switch masking off without touching the flow)."""
    if secret == 0:
        return [params.zero() for _ in range(m)]
    rng = ctx_rng("self-mask-prg", secret)
    return [ring.sample_uniform(rng, params) for _ in range(m)]


def _uniform_zq(rng: np.random.Generator, params: ring.RingParams) -> int:
    residues = [int(rng.integers(0, p)) for p in params.limbs]
    val = 0
    for res, w in zip(residues, params._crt_weights):
        val += res * w
    return val % params.q


@dataclass
class Router:
    """Simulator-side ground truth: mailboxes, backups, and release guards."""

    mail: list[list]
    backups: dict[tuple[int, int], list[dict[int, tuple[int, ring.RingElement]]]] = field(
        default_factory=dict
    )
    mask_shares: dict[tuple[int, int], dict[int, tuple[int, int]]] = field(default_factory=dict)
    mask_escrow: dict[tuple[int, int], int] = field(default_factory=dict)
    released_mask_secrets: set[tuple[int, int]] = field(default_factory=set)

    def forget_round(self, rnd: int) -> None:
        """Drop round rnd's backups, mask shares and escrow once recovery
        has read them; the release log stays for the privacy check."""
        for store in (self.backups, self.mask_shares, self.mask_escrow):
            for key in [key for key in store if key[0] == rnd]:
                del store[key]


@dataclass
class Diagnostics:
    masks_reconstructed: dict[tuple[int, int], bool] = field(default_factory=dict)
    recovered_pieces: dict[int, int] = field(default_factory=dict)
    mask_secrets: dict[tuple[int, int], int] = field(default_factory=dict)
    dropped: dict[int, frozenset[int]] = field(default_factory=dict)
    # Cumulative key deficit (recovery accumulator) applicable to each round.
    deficits: dict[int, ring.RingElement | None] = field(default_factory=dict)

    def assert_dropped_masks_private(self, router: Router) -> None:
        leaked = {
            (c, j)
            for (c, j) in router.released_mask_secrets
            if j in self.dropped.get(c, frozenset())
        }
        if leaked:
            raise ProtocolError(f"mask secrets of dropped clients released: {sorted(leaked)}")


@dataclass
class DropoutStepResult:
    state: ClientState
    message: crypto.StoreMessage
    pieces: list[tuple[int, ring.RingElement]]
    mask_secret: int
    c2s_bits: int = 0
    c2c_bits: int = 0
    c2c_messages: int = 0


def mask_and_store(
    state: ClientState, ctx: RoundContext, incoming, x_vec
) -> DropoutStepResult:
    """Client round with self-masking: like the synchronous step, but the
    upload carries PRG(mask secret) and resharing pieces are returned for
    chaperone backup."""
    pset = ctx.pset
    rp = pset.ring()
    i, j = ctx.index, state.index
    rp_zero_share = rp.zero()
    if ctx.index == 1:
        key_share = ring.sample_uniform(ctx_rng(ctx.run_seed, "initial-key", j), rp)
    else:
        key_share = rp_zero_share
        for item in incoming or ():
            key_share = key_share + item
    secret = _uniform_zq(ctx_rng(ctx.run_seed, "mask-secret", i, j), rp)
    mask = prg_mask(secret, pset.m, rp)
    noise_rng = ctx_rng(ctx.run_seed, "enc-noise", i, j)
    x_elems = ring.encode(x_vec, pset.pf, pset.slot_width, rp)
    if ctx.instr.mode == prog.STORE:
        msg = crypto.store_message(
            ctx.public, key_share, x_elems, pset.sigma_n, noise_rng, mask=mask
        )
    else:
        msg = crypto.reveal_message(
            {}, ctx.weights, key_share, pset.sigma_flood, noise_rng,
            x_elems=x_elems, mask_elems=ctx.basis, mask=mask,
        )
    share_rng = ctx_rng(ctx.run_seed, "reshare", i, j)
    receivers = [int(v) for v in share_rng.integers(0, pset.n, size=pset.d)]
    parts = sharing.ashare(key_share, pset.d, share_rng)
    pieces = list(zip(receivers, parts.shares))
    logq, N = pset.logq, pset.N
    return DropoutStepResult(
        state=ClientState(i, j, key_share),
        message=msg,
        pieces=pieces,
        mask_secret=secret,
        c2s_bits=pset.packed_coeffs * logq,
        c2c_bits=pset.d * N * logq + pset.d * pset.h * N * logq + pset.h * logq,
        c2c_messages=pset.d + pset.d * pset.h + pset.h,
    )


def backup_shares(
    router: Router,
    ctx: RoundContext,
    sender: int,
    pieces: list[tuple[int, ring.RingElement]],
    committees: dict[int, tuple[int, ...]],
) -> None:
    """Threshold-share each resharing piece to its receiver's committee.

    The piece sent to receiver R in cohort i+1 is recoverable by any t of
    R's h chaperones (cohort i+2) if R drops.  `committees` caches the key
    committees of cohort i+1 by receiver for the whole round; missing ones
    are derived and added."""
    pset = ctx.pset
    rng = ctx_rng(ctx.run_seed, "backup", ctx.index, sender)
    shared = sharing.tshare_many([piece for _, piece in pieces], pset.h, pset.t, rng)
    for (recv, _), tsh in zip(pieces, shared):
        committee = committees.get(recv)
        if committee is None:
            committee = committees[recv] = chaperone_committee(
                ctx.run_seed, pset, ctx.index + 1, recv, "key"
            )
        bundle = {chap: (point, value) for chap, (point, value) in zip(committee, tsh.shares)}
        router.backups.setdefault((ctx.index + 1, recv), []).append(bundle)


def _distribute_mask_shares(router: Router, ctx: RoundContext, res: DropoutStepResult) -> None:
    pset = ctx.pset
    rp = pset.ring()
    i, j = ctx.index, res.state.index
    committee = chaperone_committee(ctx.run_seed, pset, i, j, "mask")
    tsh = sharing.tshare(res.mask_secret, pset.h, pset.t, ctx_rng(ctx.run_seed, "mask-share", i, j), params=rp)
    router.mask_shares[(i, j)] = {
        chap: (point, value) for chap, (point, value) in zip(committee, tsh.shares)
    }
    router.mask_escrow[(i, j)] = res.mask_secret


def recover_round(
    server: ServerState,
    router: Router,
    rnd: int,
    dropped: frozenset[int],
    next_dropped: frozenset[int],
    diagnostics: Diagnostics,
    transcript: Transcript | None = None,
) -> tuple[int, int]:
    """Round-boundary repairs for `rnd`, executed one round later.

    Recovers the incoming pieces of rnd's dropped clients into the key
    deficit, finalizes the round's deficit snapshot, and reconstructs the
    self-masks of its survivors.  Returns released item counts
    (key elements, mask scalars) for cost accounting, counted per piece.
    Frees the round's backups and mask shares afterwards.
    """
    pset = server.pset
    rp = server.ring_params
    delta = None
    pieces_recovered = 0
    released_elems = 0
    for j in sorted(dropped):
        bundles = router.backups.get((rnd, j), [])
        if not bundles:
            continue
        # Every bundle of (rnd, j) went to j's one key committee, and Shamir
        # sharing is linear: interpolating the point-wise sum of the bundles
        # recovers the sum of j's incoming pieces.
        alive = [
            (chap, point)
            for chap, (point, _) in sorted(bundles[0].items())
            if chap not in next_dropped
        ]
        if len(alive) < pset.t:
            raise QuorumError(
                f"round {rnd}: only {len(alive)} of {pset.t} committee shares "
                f"available for dropped client {j}",
                transcript,
            )
        summed = [
            (point, sharing.reconstruct_additive([bundle[chap][1] for bundle in bundles]))
            for chap, point in alive[: pset.t]
        ]
        incoming = sharing.trec(summed, pset.t)
        delta = incoming if delta is None else delta + incoming
        pieces_recovered += len(bundles)
        released_elems += pset.t * len(bundles)
    if delta is not None:
        server.drift = delta if server.drift is None else server.drift + delta
    if rnd in server.deficit:
        server.deficit[rnd] = server.drift
    diagnostics.recovered_pieces[rnd] = pieces_recovered
    diagnostics.deficits[rnd] = server.drift

    # Survivor masks: chaperones release only for clients that completed.
    mask_scalars = 0
    if rnd in server.stored:
        total = None
        for j in range(pset.n):
            if j in dropped:
                continue
            key = (rnd, j)
            if pset.self_mask_reveal:
                secret = router.mask_escrow[key]
                mask_scalars += 1
            else:
                shares = router.mask_shares.get(key, {})
                alive = [
                    (point, value)
                    for chap, (point, value) in sorted(shares.items())
                    if chap not in next_dropped
                ]
                if len(alive) < pset.t:
                    raise QuorumError(
                        f"round {rnd}: cannot reconstruct mask of surviving client {j}",
                        transcript,
                    )
                secret = sharing.trec(alive[: pset.t], pset.t, params=rp)
                mask_scalars += pset.t
            router.released_mask_secrets.add(key)
            diagnostics.masks_reconstructed[key] = True
            mask = prg_mask(secret, pset.m, rp)
            if total is None:
                total = mask
            else:
                total = [a + b for a, b in zip(total, mask)]
        server.masks_sum[rnd] = tuple(total) if total is not None else None
    router.forget_round(rnd)
    return released_elems, mask_scalars


def run_dropout_protocol(
    p: prog.Program,
    pset: ParamSet,
    schedule=None,
    data_inputs=None,
    seed: int = 0,
    track_keys: bool = False,
) -> tuple[RunResult, Diagnostics]:
    """Simulate the program under a dropout schedule.

    Reveals equal the reference run on inputs with dropped submissions
    zeroed.  Raises QuorumError when a committee cannot reach quorum.
    """
    errs = prog.validate(p)
    if errs:
        raise ValueError("invalid program: " + "; ".join(errs))
    if p.ell != pset.ell:
        raise ValueError(f"program length {p.ell} does not match params {pset.ell}")
    if not 1 <= pset.t <= pset.h:
        raise ValueError("need 1 <= t <= h")
    sched = normalize_schedule(schedule, pset, p.r)
    rp = pset.ring()
    n = pset.n
    inputs = materialize_inputs(p, data_inputs, n, run_noise_seed(seed), pset.gamma)
    global_seed = hash_key(seed, "public-elements")
    server = ServerState(p, pset)
    router = Router(mail=[[] for _ in range(n)])
    transcript = Transcript()
    diagnostics = Diagnostics(dropped=dict(sched))
    key_history: list[list[ring.RingElement | None]] = []
    for i in range(1, p.r + 1):
        ctx = build_context(server, global_seed, i, seed)
        dropped = sched.get(i, frozenset())
        rec = RoundRecord(round=i, mode=ctx.instr.mode, dropped=len(dropped))
        next_mail: list[list] = [[] for _ in range(n)]
        round_keys: list[ring.RingElement | None] = []
        messages = []
        key_committees: dict[int, tuple[int, ...]] = {}
        for j in range(n):
            if j in dropped:
                round_keys.append(None)
                continue
            res = mask_and_store(ClientState(i, j), ctx, router.mail[j], inputs[i - 1][j])
            diagnostics.mask_secrets[(i, j)] = res.mask_secret
            for recv, piece in res.pieces:
                next_mail[recv].append(piece)
            backup_shares(router, ctx, j, res.pieces, key_committees)
            _distribute_mask_shares(router, ctx, res)
            messages.append(res.message)
            round_keys.append(res.state.key_share)
            rec.c2s_bytes += res.c2s_bits / 8.0
            rec.c2c_bytes += res.c2c_bits / 8.0
            rec.c2c_messages += res.c2c_messages
        if track_keys:
            key_history.append(round_keys)
        server.absorb_round(i, ctx.basis, messages, [], server.drift)
        # Round-boundary repairs for the previous round, then its reveal.
        if i >= 2:
            prev_dropped = sched.get(i - 1, frozenset())
            elems, scalars = recover_round(
                server, router, i - 1, prev_dropped, dropped, diagnostics, transcript
            )
            rec.c2s_bytes += (elems * pset.N + scalars) * pset.logq / 8.0
            if p.instruction(i - 1).mode == prog.REVEAL:
                transcript.reveals.append((i - 1, server.open_round(i - 1)))
        transcript.rows.append(rec)
        router.mail = next_mail
    # Flush round r+1: repairs for round r, then its reveal if any.
    recover_round(server, router, p.r, sched.get(p.r, frozenset()), frozenset(), diagnostics, transcript)
    if p.r >= 1 and p.instruction(p.r).mode == prog.REVEAL:
        transcript.reveals.append((p.r, server.open_round(p.r)))
    diagnostics.assert_dropped_masks_private(router)
    result = RunResult(
        reveals=list(transcript.reveals),
        transcript=transcript,
        key_history=key_history if track_keys else None,
    )
    return result, diagnostics
