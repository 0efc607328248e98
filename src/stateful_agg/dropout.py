"""Dropout recovery: a layer on the round engine of `protocol`, with one
chaperone committee per client, threshold backups of key shares, and
self-masked uploads.

A client that drops out of its round sends nothing at all.  Three repairs
keep the run correct:

* every sender threshold shares the one resharing piece it routes to each
  distinct next-cohort receiver among the receiver's chaperones (h clients
  one cohort later); the chaperones at points 1..t-1 get a 128-bit seed
  whose expansion is their share, the other h-t+1 an element
  (`sharing.tshare_many`); Shamir sharing is linear, so if the receiver
  drops, each of a quorum of t chaperones releases the sum of its shares
  for it, and the server interpolates the receiver's incoming pieces' sum
  into the recovery element Z;
* every upload is blinded by a self-mask expanded from a uniform secret
  of the degree-k ring over the run's limbs, k the least power of two
  with k * log2(q) >= 128 (`mask_ring`), whose threshold shares, seeded
  alike, go to the sender's own chaperones; they release them only for
  clients that completed their round, so the server can strip masks of
  survivors while a dropout's half-sent ciphertext stays blinded forever.
  A server that holds a dropout's upload and its key share could find a
  mask secret by trying each one until the upload minus b*s minus the
  mask comes out small; at 128 bits that search is out of reach, where
  one element of Z_q (about 2^33 at the `dropout` workload's shape) was not.
  Masks in Bonawitz et al. (CCS 2017) have full seed entropy for the
  same reason;
* the pieces recovered for round i's dropped receivers are lost to the
  key of cohort i and of every later one, so the server folds basis * lost
  into the aggregates of rounds i and i+1, absorbed before the repair, and
  into every later one through the key drift: each aggregate stays a
  ciphertext under the full key.

Client j of round i has one committee in cohort i+1, public and fixed by
the run seed, i and j (`chaperone_committee`).  Its member at point x holds
j's shares at x of both secrets and releases exactly one: the key-piece
sum's if j dropped, the mask secret's if j survived (as in Bonawitz et al.,
CCS 2017).  A survivor's mask is released anyway, so only the key backups
protect its input; a dropped client's key pieces are recovered anyway, so
only its mask protects a half-sent upload.  An adversary who decides who
counts as dropped could attack whichever of two committees is weaker, so
one committee per client is never weaker than two, and it halves the
number of committees that hold secrets.

`Recovery` plugs these into `protocol.run_protocol`: the engine asks it
which clients drop, for each survivor's self-mask (its secret is shared
on the spot), to back up each survivor's pieces, and to repair each round
before its reveal.  It alone holds the backups and mask shares, by round
and evaluation point.  Round i's repair, run once round i+1 is in, draws
each client's committee, hands the server the recovered pieces and
survivors' masks in one call and frees round i's state.  With seed
resharing, a sender backs up the expansions its step made of its seeds.

The schedule is the ground truth for who dropped: a dropped client's mask
secret is never released, and the run aborts with QuorumError if any
needed committee falls below its threshold.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from . import ring, sharing
from . import program as prog
from .params import ParamSet
from .prng import ctx_rng
from .protocol import (
    ClientStepResult,
    ProtocolError,
    RoundContext,
    RunResult,
    ServerState,
    run_protocol,
)

__all__ = [
    "QuorumError",
    "DropoutSchedule",
    "Diagnostics",
    "chaperone_committee",
    "mask_ring",
    "prg_mask",
    "Recovery",
    "backup_shares",
    "recover_round",
    "run_dropout_protocol",
    "survivor_inputs",
    "random_schedule",
]


class QuorumError(ProtocolError):
    """A needed chaperone committee fell below its reconstruction threshold."""


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


def chaperone_committee(run_seed, pset: ParamSet, cohort: int, index: int) -> tuple[int, ...]:
    """The one committee of client `index` of round `cohort`: h distinct
    members of cohort+1, public as it derives from the run seed.  Member
    committee[x-1] holds the client's shares at point x of both secrets."""
    if pset.h > pset.n:
        raise ValueError("committee size h cannot exceed cohort size n")
    # The tag the key committees had while masks had committees of their own.
    rng = ctx_rng(run_seed, "committee", "key", cohort, index)
    return tuple(int(v) for v in rng.choice(pset.n, size=pset.h, replace=False))


MASK_SECRET_BITS = 128


@lru_cache(maxsize=64)
def mask_ring(rp: ring.RingParams) -> ring.RingParams:
    """The mask secrets' ring: degree k over rp's limbs, k the least power of
    two with k * log2(q) >= MASK_SECRET_BITS.  ValueError if k exceeds N, so
    a run fails before its first upload."""
    k = 1
    while k * math.log2(rp.q) < MASK_SECRET_BITS:
        k *= 2
    if k > rp.N:
        raise ValueError(
            f"a {MASK_SECRET_BITS}-bit mask secret needs degree {k} over q of "
            f"{rp.logq} bits, above N={rp.N}"
        )
    return ring.RingParams(k, rp.T, limbs=rp.limbs)


def prg_mask(secret: ring.RingElement, m: int, params: ring.RingParams) -> list[ring.RingElement]:
    """Expand a mask secret, keyed by its residues, to message-shaped elements."""
    rng = ctx_rng("self-mask-prg", secret.res.tolist())
    return [ring.sample_uniform(rng, params) for _ in range(m)]


@dataclass
class Diagnostics:
    # Release log of survivors' mask secrets, by (round, client).
    masks_reconstructed: dict[tuple[int, int], bool] = field(default_factory=dict)
    recovered_pieces: dict[int, int] = field(default_factory=dict)
    mask_secrets: dict[tuple[int, int], ring.RingElement] = field(default_factory=dict)
    # Cumulative key deficit (recovery accumulator) applicable to each round.
    deficits: dict[int, ring.RingElement | None] = field(default_factory=dict)

    def assert_dropped_masks_private(self, schedule: DropoutSchedule) -> None:
        leaked = {
            (c, j) for (c, j) in self.masks_reconstructed if j in schedule.get(c, frozenset())
        }
        if leaked:
            raise ProtocolError(f"mask secrets of dropped clients released: {sorted(leaked)}")


def _quorum(committee, next_dropped: frozenset[int], t: int, held, msg: str) -> ring.RingElement:
    """Interpolate what the first t members of `committee`, by client
    index, still alive one round later release: committee[x-1] releases
    held[x-1], its share at point x.  QuorumError(msg) if fewer than t are
    alive; msg may name the live count as {alive}."""
    alive = sorted((c, x) for x, c in enumerate(committee, start=1) if c not in next_dropped)
    if len(alive) < t:
        raise QuorumError(msg.format(alive=len(alive)))
    return sharing.trec([(x, held[x - 1]) for _, x in alive[:t]], t)


@dataclass
class KeyBackups:
    """What the chaperones of one round's receivers hold of their key pieces.

    sums[R, x-1] is the unreduced residue sum, (L, N) uint64, of the shares
    that R's chaperone at point x was sent; every share is below its limb
    p < 2^31, so up to 2^33 of them add without overflow.  pieces[R] counts
    the senders that routed a piece to R."""

    sums: np.ndarray
    pieces: np.ndarray


def backup_shares(
    recovery: Recovery, ctx: RoundContext, res: ClientStepResult
) -> list[sharing.ThresholdShares]:
    """Threshold-share each of a sender's pieces among its receiver's chaperones.

    A sender routes one piece to each of its G distinct receivers in
    cohort i+1, so a piece is all that recovery needs of the sender if its
    receiver R drops: any t of R's h chaperones (cohort i+2) recover it.
    The G pieces are shared in one call; R's chaperones at points 1..t-1
    are sent a seed, the others an element.  Each chaperone adds the value
    of its share (a seed's expansion, for a seeded one) into its running
    sum in round i+1's `KeyBackups`, kept by point: who the chaperones are
    matters only when they release.  Returns the G sharings sent."""
    pset = ctx.pset
    rp = pset.ring()
    record = recovery.backups.get(ctx.index + 1)
    if record is None:
        shape = (pset.n, pset.h, len(rp.limbs), pset.N)
        record = recovery.backups[ctx.index + 1] = KeyBackups(
            np.zeros(shape, dtype=np.uint64), np.zeros(pset.n, dtype=np.int64)
        )
    rng = ctx_rng(ctx.run_seed, "backup", ctx.index, res.index)
    shared = sharing.tshare_many(res.pieces, pset.h, pset.t, rng)
    for (recv, _), tsh in zip(res.reshares, shared):
        for x, share in tsh.shares:
            record.sums[recv, x - 1] += share.res
        record.pieces[recv] += 1
    return shared


def recover_round(
    server: ServerState, recovery: Recovery, rnd: int, next_dropped: frozenset[int], run_seed
) -> tuple[int, int]:
    """Round-boundary repairs for `rnd`, executed one round later.

    Walks rnd's clients once, drawing each one's committee from the run
    seed; a quorum of its members releases one sharing per client: a
    dropped client's summed key shares, if it was sent pieces, which
    interpolate to their sum (Shamir sharing is linear), or a survivor's
    mask shares.  Hands both to the server's repair.  Returns released item
    counts (key elements, mask scalars) for cost accounting: t per key
    release, and t times the mask ring's degree per mask release.
    Frees the round's backups and mask shares.
    """
    pset = server.pset
    rp = server.ring_params
    diagnostics = recovery.diagnostics
    dropped = recovery.dropped(rnd)
    record = recovery.backups.pop(rnd, None)
    mask_shares = recovery.mask_shares.pop(rnd, {})
    recovered, masks = [], []
    pieces_recovered = 0
    for j in range(pset.n):
        committee = chaperone_committee(run_seed, pset, rnd, j)
        if j not in dropped:
            secret = _quorum(
                committee, next_dropped, pset.t, mask_shares[j],
                f"round {rnd}: cannot reconstruct mask of surviving client {j}",
            )
            diagnostics.masks_reconstructed[(rnd, j)] = True
            masks.append(prg_mask(secret, pset.m, rp))
        elif record is not None and record.pieces[j]:
            held = [ring.RingElement(sums % rp._ps, rp) for sums in record.sums[j]]
            recovered.append(_quorum(
                committee, next_dropped, pset.t, held,
                f"round {rnd}: only {{alive}} of {pset.t} committee shares "
                f"available for dropped client {j}",
            ))
            pieces_recovered += int(record.pieces[j])
    diagnostics.recovered_pieces[rnd] = pieces_recovered
    diagnostics.deficits[rnd] = server.repair(rnd, recovered, masks)
    return pset.t * len(recovered), pset.t * mask_ring(rp).N * len(masks)


class Recovery:
    """The dropout layer `protocol.run_protocol` calls at four points of a
    run, and the one holder of its recovery state: the schedule, the
    diagnostics, and the key backups and mask-secret shares (`mask_ring`
    elements) of rounds not yet repaired, each kept by round and evaluation
    point and popped at the round's repair."""

    def __init__(self, schedule: DropoutSchedule):
        self.schedule = schedule
        self.diagnostics = Diagnostics()
        # Round -> its receivers' chaperones' running sums.
        self.backups: dict[int, KeyBackups] = {}
        # Round -> survivor -> its mask secret's shares at points 1..h.
        self.mask_shares: dict[int, dict[int, tuple[ring.RingElement, ...]]] = {}

    def dropped(self, i: int) -> frozenset[int]:
        return self.schedule.get(i, frozenset())

    def mask(self, ctx: RoundContext, j: int) -> list[ring.RingElement]:
        """Survivor j's self-mask for round ctx.index, from a fresh secret
        that is Shamir-shared among j's chaperones on the spot."""
        pset, i = ctx.pset, ctx.index
        rp = pset.ring()
        secret = ring.sample_uniform(ctx_rng(ctx.run_seed, "mask-secret", i, j), mask_ring(rp))
        tsh = sharing.tshare(secret, pset.h, pset.t, ctx_rng(ctx.run_seed, "mask-share", i, j))
        self.mask_shares.setdefault(i, {})[j] = tuple(share for _, share in tsh.shares)
        self.diagnostics.mask_secrets[(i, j)] = secret
        return prg_mask(secret, pset.m, rp)

    def backup(self, ctx: RoundContext, res: ClientStepResult) -> tuple[int, int]:
        """Share a survivor's pieces (with seeds, the expansions its step
        made) among their receivers' chaperones; returns the extra
        client-to-client bits and messages, the h mask shares `mask` sent
        included."""
        pset = ctx.pset
        g = len(backup_shares(self, ctx, res))
        # h shares of each piece and of the mask secret, t-1 of each seeded.
        bits = g * sharing.share_bits(pset.h, pset.t, pset.N * pset.logq)
        k = mask_ring(pset.ring()).N
        return bits + sharing.share_bits(pset.h, pset.t, k * pset.logq), pset.h * (g + 1)

    def repair(self, server: ServerState, rnd: int, next_dropped: frozenset[int], run_seed) -> float:
        """Repairs of round rnd before its reveal, with the committees of the
        run seeded `run_seed`; returns the bytes the chaperones release to
        the server."""
        elems, scalars = recover_round(server, self, rnd, next_dropped, run_seed)
        return (elems * server.pset.N + scalars) * server.pset.logq / 8.0


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
    recovery = Recovery(normalize_schedule(schedule, pset, p.r))
    result = run_protocol(p, pset, data_inputs, seed, track_keys, recovery=recovery)
    recovery.diagnostics.assert_dropped_masks_private(recovery.schedule)
    return result, recovery.diagnostics
