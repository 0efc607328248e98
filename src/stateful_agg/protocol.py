"""The round engine of secure stateful aggregation.

One cohort of n ephemeral clients acts per round.  A persistent global key
s, defined by the uniform samples of the first cohort, is carried from
cohort to cohort by additive resharing: each client makes d uniform picks
(with replacement) from the next cohort and splits its share once per
distinct receiver, G <= min(d, n) ways with E[G] = n * (1 - (1 - 1/n)^d);
the receivers sum what they get.  With seed resharing the pieces are
128-bit PRG seeds and a per-client correction element goes to the server
instead, so the cohorts' key falls short of s by the sum of the
corrections, the drift; the server folds basis * drift into each aggregate
it absorbs, so every stored aggregate is a ciphertext under s.  The
simulation delivers pieces through one residue inbox per round, (n, L, N)
uint64: a sender adds each piece (an additive part, or a seed's expansion,
made once for its correction, its receiver and its backup) into its
receiver's row as it is made, and the receiver's key share is that row
reduced once.  Only a run with a recovery layer keeps a step's pieces, for
the backups.

Every upload, store or reveal, is one `crypto.encrypt` under the round's
public mask basis: the fresh public elements for a store, with one Gaussian
of noise, and the composed negative combination of the stored rounds' bases
for a reveal, with one flooding Gaussian per weighted round.  The server
keeps one aggregate under s per round plus the round's basis, and a reveal
is a linear function of them: the round's sparse flattened weights
(`program.compose_all`), applied once, at reveal time.  The server
originates no messages of its own; it only aggregates and forwards.

`run_protocol` is the one round loop.  Without a recovery layer no client
drops; `dropout.run_dropout_protocol` hands it one, which the loop asks
which clients drop, for each survivor's self-mask and backups, and for the
repairs of each round before its reveal.  A repair folds the key pieces
lost with the round's dropped clients into the aggregates that miss them
and strips the survivors' self-masks, so every reveal reads mask-free
aggregates under s.  Within a round, client steps are pure functions of
(seed, round, index) apart from the pieces they add into the round's
shared inbox.  That sum is exact and order-free, so the steps could run in
any order, or in parallel processes (not threads: seed expansion re-keys
one generator per process) with one inbox each, summed at the round
barrier; the loop is sequential for reproducibility of the transcript row
order.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import crypto, ring, sharing
from . import program as prog
from .ideal import materialize_inputs
from .params import ParamSet, noise_budget, slot_width_for
from .prng import ctx_rng, hash_key

__all__ = [
    "RoundContext",
    "ClientStepResult",
    "ServerState",
    "Transcript",
    "RoundRecord",
    "RunResult",
    "ProtocolError",
    "check_packing",
    "client_step",
    "server_step",
    "run_protocol",
]


class ProtocolError(RuntimeError):
    pass


def run_noise_seed(seed: int) -> int:
    """Seed under which a run started with `seed` draws its rule noise."""
    return hash_key(seed, "input-noise")


@dataclass
class RoundRecord:
    round: int
    mode: str
    c2s_bytes: float = 0.0
    c2c_messages: int = 0
    c2c_bytes: float = 0.0
    dropped: int = 0


@dataclass
class Transcript:
    rows: list[RoundRecord] = field(default_factory=list)


@dataclass
class RunResult:
    reveals: list[tuple[int, np.ndarray]]
    transcript: Transcript
    key_history: list[list[ring.RingElement]] | None = None


@dataclass
class RoundContext:
    """Public per-round data every client derives or receives identically."""

    index: int
    instr: prog.Instruction
    basis: tuple[ring.RingElement, ...]  # key mask: public elements, or reveal mask
    noise_weights: tuple[int, ...]  # store (1,); reveal: signed flattened weights
    pset: ParamSet
    run_seed: int


@dataclass
class ClientStepResult:
    index: int
    key_share: ring.RingElement
    message: tuple[ring.RingElement, ...]
    reshares: list[tuple[int, object]]
    correction: ring.RingElement | None
    # The elements the reshares stand for, in order: the additive parts, or
    # the seeds' expansions if the step keeps them (for backups; else
    # empty).  The round loop drops them once backed up.
    pieces: tuple[ring.RingElement, ...]


def client_step(
    ctx: RoundContext, j: int, incoming, x_vec, mask=None, inbox=None, keep_pieces=True
) -> ClientStepResult:
    """Client j's round: derive key share, encrypt, reshare onward.

    incoming is this client's row of the previous round's inbox: the
    unreduced residue sum of the pieces the previous cohort routed to it
    (unused in round 1).  mask, if given, is added to the upload.  The
    client makes d uniform picks from the next cohort and sends one piece
    to each distinct receiver: G <= min(d, n) pieces, sorted by receiver.
    Each piece, a seed's expansion or an additive part, is added into its
    receiver's row of `inbox`, this round's (n, L, N) uint64 array, if one
    is given, as it is made.  Returns the upload, the routed reshare
    pieces (seeds or elements), the server-bound correction if any, and
    the pieces as elements; seed expansions only with `keep_pieces`.
    """
    pset = ctx.pset
    rp = pset.ring()
    i = ctx.index
    if i == 1:
        key_share = ring.sample_uniform(ctx_rng(ctx.run_seed, "initial-key", j), rp)
    else:
        key_share = ring.RingElement(incoming % rp._ps, rp)
    noise_rng = ctx_rng(ctx.run_seed, "enc-noise", i, j)
    msg = crypto.encrypt(
        ctx.basis, key_share, ring.encode(x_vec, pset.pf, pset.slot_width, rp),
        pset.sigma_n, noise_rng, ctx.noise_weights, mask,
    )
    share_rng = ctx_rng(ctx.run_seed, "reshare", i, j)
    receivers = sorted({int(v) for v in share_rng.integers(0, pset.n, size=pset.d)})

    def route(k: int, piece: ring.RingElement) -> None:
        if inbox is not None:
            inbox[receivers[k]] += piece.res

    if pset.seed_resharing:
        sr = sharing.seed_reshare(key_share, len(receivers), share_rng, route, keep_pieces)
        sent, correction, pieces = sr.seeds, sr.correction, sr.expansions
    else:
        pieces = sharing.ashare(key_share, len(receivers), share_rng)
        sent, correction = pieces, None
        for k, piece in enumerate(pieces):
            route(k, piece)
    reshares = list(zip(receivers, sent))
    return ClientStepResult(j, key_share, msg, reshares, correction, pieces)


class ServerState:
    """Per-round aggregates under the full key s, plus reveal bookkeeping."""

    def __init__(self, p: prog.Program, pset: ParamSet):
        self.program = p
        self.pset = pset
        rp = pset.ring()
        self.ring_params = rp
        self.weights = prog.compose_all(p)  # round i's at i-1, own 1 implicit
        self.stored: dict[int, tuple[ring.RingElement, ...]] = {}
        self.basis: dict[int, tuple[ring.RingElement, ...]] = {}
        # Key deficit of the cohort that produced round k's messages
        # (accumulated resharing corrections and lost pieces, None while
        # zero), already folded into stored[k].
        self.deficit: dict[int, ring.RingElement | None] = {}
        self.drift: ring.RingElement | None = None

    def open_round(self, i: int) -> np.ndarray:
        """Decode the value revealed at round i (delivered one round later)."""
        pset = self.pset
        return crypto.open(
            self.stored, self.stored[i], self.weights[i - 1], pset.ell, pset.pf, pset.slot_width
        )

    def _fold(self, rnd: int, parts, key: ring.RingElement | None) -> None:
        """Set round rnd's stored aggregate to the weighted sum of `parts`,
        (weight, m elements) pairs, plus basis_rnd * key: one lincomb per
        element.  An all-zero basis element, or a key of None, forms no
        product."""
        self.stored[rnd] = tuple(
            ring.lincomb(
                [(w, part[e]) for w, part in parts]
                + ([(1, ring.mul(b, key))] if key is not None and b.res.any() else []),
                self.ring_params,
            )
            for e, b in enumerate(self.basis[rnd])
        )

    def shift_drift(self, elems) -> None:
        """Add elements to the key drift (None while zero); with none it stays
        the same object, whose cached transform the next fold reuses."""
        terms = [(1, e) for e in elems]
        if terms:
            if self.drift is not None:
                terms.append((1, self.drift))
            self.drift = ring.lincomb(terms, self.ring_params)

    def repair(self, rnd: int, recovered, masks) -> ring.RingElement | None:
        """Dropout repair of round rnd, before anything reads it: the dropped
        clients' recovered key pieces are lost to round rnd's cohort and to
        every later one, so their sum joins the drift, round rnd's deficit
        and round rnd+1's (snapshot at its `server_step`, before this
        repair), and basis * lost is folded into both rounds' aggregates.
        Strips the survivors' self-masks (one list of m elements each) from
        round rnd's aggregate in the same fold.  Returns the deficit."""
        lost = sharing.piece_sum(recovered, self.ring_params) if recovered else None
        if lost is not None:
            self.shift_drift([lost])
            for k in (rnd, rnd + 1):
                if k in self.deficit:
                    prior = self.deficit[k]
                    self.deficit[k] = lost if prior is None else prior + lost
            if rnd + 1 in self.stored:
                self._fold(rnd + 1, [(1, self.stored[rnd + 1])], lost)
        self._fold(rnd, [(1, self.stored[rnd])] + [(-1, mk) for mk in masks], lost)
        return self.deficit[rnd]


def server_step(server: ServerState, ctx: RoundContext, messages, dropped=frozenset()) -> None:
    """Absorb a round's uploads, one from every client not in `dropped`;
    any other count is a synchrony violation.  The uploads are under the
    cohort's key, s minus the drift, so basis * drift joins their sum."""
    expected = server.pset.n - len(dropped)
    if len(messages) != expected:
        raise ProtocolError(
            f"round {ctx.index}: expected {expected} messages, got {len(messages)}"
        )
    i = ctx.index
    server.basis[i] = tuple(ctx.basis)
    server.deficit[i] = server.drift
    server._fold(i, [(1, res.message) for res in messages], server.drift)
    server.shift_drift(res.correction for res in messages if res.correction is not None)


def build_context(server: ServerState, global_seed, i: int, run_seed: int) -> RoundContext:
    pset = server.pset
    rp = server.ring_params
    instr = server.program.instruction(i)
    if instr.mode == prog.STORE:
        basis = crypto.derive_public(global_seed, i, pset.m, rp)
        noise_weights = (1,)
    else:
        weights = server.weights[i - 1]
        basis = tuple(crypto.reveal_mask(server.basis, weights)) if weights else tuple(
            rp.zero() for _ in range(pset.m)
        )
        noise_weights = tuple(weights.values())
    return RoundContext(i, instr, basis, noise_weights, pset, run_seed)


def check_packing(p: prog.Program, pf: int, tables) -> None:
    """Packed slots (pf >= 2) hold nonnegative values, and a reveal's lanes
    must not borrow from each other.  A Gaussian input rule draws signed
    noise, and a negative flattened weight (`tables`, the program's
    compose_all tables) on a data round subtracts across lanes, so either
    program must run unpacked.  Zero rounds carry no lanes."""
    if pf < 2:
        return
    noisy = [i for i, ins in enumerate(p.rounds, start=1) if ins.rule.variance > 0]
    if noisy:
        raise ValueError(
            f"packing (pf={pf}) needs nonnegative inputs, but the Gaussian rule of "
            f"round {noisy[0]} draws signed noise; use pf=1"
        )
    for i, table in _reveal_tables(p, tables):
        for k, w in table.items():
            if w < 0 and p.instruction(k).rule.kind == prog.DATA:
                raise ValueError(
                    f"packing (pf={pf}) needs nonnegative weights on data rounds, but "
                    f"round {i} reads data round {k} with weight {w}; use pf=1"
                )


def _check_packed_lanes(p: prog.Program, pset: ParamSet, tables, inputs) -> None:
    """Packed lanes (pf >= 2) must hold every reveal's sum without carrying:
    the slot width must cover each reveal's weights over n inputs of
    input_bits, and every submitted value must fit input_bits."""
    if pset.pf < 2:
        return
    for i, table in _reveal_tables(p, tables):
        weight_sum = 1 + sum(abs(w) for w in table.values())
        need = slot_width_for(pset.input_bits, pset.n, 0.0, weight_sum)
        if pset.slot_width < need:
            raise ValueError(
                f"slot_width={pset.slot_width} is below the {need} bits that round {i}'s "
                f"reveal needs (weight sum {weight_sum} over n={pset.n} inputs of "
                f"{pset.input_bits} bits); its packed lanes would carry"
            )
    top = 1 << pset.input_bits
    if inputs.size and (inputs.min() < 0 or inputs.max() >= top):
        i, j, k = np.argwhere((inputs < 0) | (inputs >= top))[0]
        raise ValueError(
            f"round {i + 1}, client {j}: data value {inputs[i, j, k]} is outside "
            f"[0, 2^{pset.input_bits}) of input_bits={pset.input_bits}; its packed lane would carry"
        )


def _reveal_tables(p: prog.Program, tables):
    """(round, flattened weights) of each reveal round."""
    return [
        (i, table) for i, (ins, table) in enumerate(zip(p.rounds, tables), start=1)
        if ins.mode == prog.REVEAL
    ]


def run_protocol(
    p: prog.Program,
    pset: ParamSet,
    data_inputs=None,
    seed: int = 0,
    track_keys: bool = False,
    *,
    recovery=None,
) -> RunResult:
    """Simulate the whole program; reveals are exact mod T in the noise
    regime the parameter set was sized for.  Raises ValueError before round
    1 when the cohort is empty, when a recovery layer's committees fail
    1 <= t <= h <= n, when the parameter set fails the noise budget of the
    program's reveal weights, since its reveals could wrap, or when packed
    lanes could carry (`check_packing`, and a slot width or an input too
    narrow for the reveals).

    Runs every round, then flushes the last reveal.  Round i's reveal is
    opened after round i+1's uploads are absorbed.  A recovery layer (see
    `dropout.Recovery`) names each round's dropped clients, masks and backs
    up every survivor's step, and repairs round i-1 before its reveal;
    without one no client drops.  Round r's survivors reshare and back up
    like every other cohort's: the state is append-only and outlives any
    simulated prefix, so the last cohort hands the key on too.
    """
    errs = prog.validate(p)
    if errs:
        raise ValueError("invalid program: " + "; ".join(errs))
    if p.ell != pset.ell:
        raise ValueError(f"program length {p.ell} does not match params {pset.ell}")
    if pset.n < 1:
        raise ValueError(f"cohort size n={pset.n}: a run needs at least one client")
    if recovery is not None and not 1 <= pset.t <= pset.h:
        raise ValueError(f"need 1 <= t <= h, got t={pset.t} and h={pset.h}")
    if recovery is not None and pset.h > pset.n:
        raise ValueError(f"committee size h={pset.h} exceeds cohort size n={pset.n}")
    server = ServerState(p, pset)
    check_packing(p, pset.pf, server.weights)
    budget = noise_budget(pset, prog.reveal_stats(p, server.weights))
    if not budget.ok:
        raise ValueError(
            f"noise needs {budget.required_bits:.1f} bits, over the budget of "
            f"{budget.budget_bits:.1f} bits (logq={pset.logq}); reveals would wrap"
        )
    n = pset.n
    inputs = materialize_inputs(p, data_inputs, n, run_noise_seed(seed), pset.gamma)
    _check_packed_lanes(p, pset, server.weights, inputs)
    global_seed = hash_key(seed, "public-elements")
    cost = pset.cost()  # every survivor's upload and peer traffic
    transcript = Transcript()
    reveals: list[tuple[int, np.ndarray]] = []
    key_history: list[list[ring.RingElement | None]] = []

    def deliver(k: int) -> None:
        if k >= 1 and p.instruction(k).mode == prog.REVEAL:
            reveals.append((k, server.open_round(k)))

    # Round i's pieces, summed per receiver in residue form; a dropped
    # receiver's row is never read (recovery rebuilds it from backups).
    shape = (n, len(server.ring_params.limbs), pset.N)
    inbox = np.zeros(shape, dtype=np.uint64)
    for i in range(1, p.r + 1):
        ctx = build_context(server, global_seed, i, seed)
        dropped = recovery.dropped(i) if recovery else frozenset()
        rec = RoundRecord(round=i, mode=ctx.instr.mode, dropped=len(dropped))
        next_inbox = np.zeros(shape, dtype=np.uint64)
        results = []
        keys: list[ring.RingElement | None] = [None] * n
        for j in range(n):
            if j in dropped:
                continue
            mask = recovery.mask(ctx, j) if recovery else None
            res = client_step(
                ctx, j, inbox[j], inputs[i - 1][j], mask, next_inbox, keep_pieces=bool(recovery)
            )
            backup_bits, backup_messages = recovery.backup(ctx, res) if recovery else (0, 0)
            res.pieces = ()  # a round's worth would be n*G elements
            rec.c2s_bytes += cost.client_server_bytes
            rec.c2c_bytes += len(res.reshares) * cost.piece_bytes + backup_bits / 8.0
            rec.c2c_messages += len(res.reshares) + backup_messages
            results.append(res)
            keys[j] = res.key_share
        if track_keys:
            key_history.append(keys)
        server_step(server, ctx, results, dropped)
        if recovery and i >= 2:
            rec.c2s_bytes += recovery.repair(server, i - 1, dropped, seed)
        deliver(i - 1)
        transcript.rows.append(rec)
        inbox = next_inbox
    # Flush round r+1: round r's repairs, counted in round r's row, then
    # its reveal.
    if recovery and p.r:
        transcript.rows[-1].c2s_bytes += recovery.repair(server, p.r, frozenset(), seed)
    deliver(p.r)
    return RunResult(
        reveals=reveals,
        transcript=transcript,
        key_history=key_history if track_keys else None,
    )
