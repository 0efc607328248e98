"""Parameter selection, the communication cost model, and committee sizing.

Security is enforced against an embedded table of maximum modulus widths
per ring degree at the 128-bit level from the standard homomorphic
encryption parameter recommendations, rather than re-running a lattice
estimator.

Cost model: a client uploads the used ciphertext coefficients (unused ones
are dropped), plus one full-size correction element with seed resharing, so
bytes per round = (ceil(ell/pf) + N) * logq / 8.  Of its d uniform picks
from the next cohort, each distinct receiver gets one piece: a 128-bit
seed, or a whole element of N * logq bits without seed resharing.  The
fanout G is at most min(d, n), with E[G] = n * (1 - (1 - 1/n)^d).
Expansion is measured against a cleartext baseline of 16-bit entries.

Noise accounting tracks the l-infinity coefficient norm of the error.  Each
Gaussian term is bounded by a 12-sigma tail; per-term bounds combine by
root-sum-square across the 2*n*sum(w^2) independent terms of a reveal for
the operating estimate, and by the weighted triangle inequality for an
absolute worst case.  Feasibility checks gate on the estimate (the triangle
bound concedes over a factor 40 at cohort sizes in the thousands and would
never reproduce practical modulus sizes).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import ring
from .prng import ctx_rng
from .sharing import SEED_BITS

__all__ = [
    "SECURITY_LOGQ",
    "max_logq",
    "CostReport",
    "cost_model",
    "NoiseBudget",
    "noise_budget",
    "committee_sizes",
    "simulate_honest_links",
    "grid_search",
    "ParamSet",
    "make_paramset",
    "slot_width_for",
    "sigma_schedule",
    "format_bytes",
]

SIGMA = 3.2
GAUSS_TAIL = 12.0

# Max log2(q) for 128-bit security per ring degree.
SECURITY_LOGQ = {2048: 54, 4096: 109, 8192: 218, 16384: 438}

BASELINE_INPUT_BITS = 16

# Failure probability the derived resharing fanout d is sized for.
DELTA_LINKS = 2.0**-40


def max_logq(N: int) -> int:
    try:
        return SECURITY_LOGQ[N]
    except KeyError:
        raise ValueError(f"no security entry for N={N} (supported: {sorted(SECURITY_LOGQ)})")


def sigma_schedule(r: int, sigma: float = SIGMA) -> tuple[float, float]:
    """(sigma_s, sigma_n): secret width and fresh-encryption noise width.

    The encryption noise grows with the number of releases r so that the
    per-release decryption leakage stays as hard as a standalone scheme at
    width sigma.
    """
    return math.sqrt(2.0) * sigma, 2.0 * sigma * math.sqrt(r + 1.0)


def slot_width_for(input_bits: int, n: int, dp_sigma: float = 0.0, weight_sum: float = 1.0) -> int:
    """Bits per packed slot: entry width, aggregation headroom, noise margin.

    weight_sum is the largest sum of absolute flattened weights over any
    reveal; packed slots must hold n * weight_sum entries without carrying
    into the neighbouring lane (unit for one-shot releases).
    """
    contributions = n * max(1.0, weight_sum)
    width = input_bits + (math.ceil(math.log2(contributions)) if contributions > 1 else 0)
    if dp_sigma > 0:
        width += math.ceil(math.log2(GAUSS_TAIL * dp_sigma))
    return width


# ---------------------------------------------------------------------------
# Cost model
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CostReport:
    client_server_bytes: float
    piece_bytes: float
    expansion: float


def cost_model(
    N: int,
    logq: int,
    ell: int,
    pf: int,
    input_bits: int = BASELINE_INPUT_BITS,
    seed_resharing: bool = True,
) -> CostReport:
    """Per-client, per-round communication.

    Upload: the ceil(ell/pf) occupied ciphertext coefficients, plus with
    seed resharing one uncompressible correction element of N
    coefficients, logq bits each.  Client-to-client: one piece per
    distinct receiver of the client's d picks (G <= min(d, n) of them, a
    number the draw fixes), each a seed of SEED_BITS bits, or an element of
    N * logq bits without seed resharing.
    """
    if pf < 1:
        raise ValueError("packing factor must be >= 1")
    coeffs = -(-ell // pf)
    if seed_resharing:
        c2s, piece_bits = (coeffs + N) * logq / 8.0, SEED_BITS
    else:
        c2s, piece_bits = coeffs * logq / 8.0, N * logq
    cleartext = ell * input_bits / 8.0
    return CostReport(c2s, piece_bits / 8.0, c2s / cleartext if cleartext else math.inf)


def format_bytes(b: float) -> str:
    """1000-based units with two decimals, matching benchmark conventions."""
    if b >= 1e6:
        return f"{b / 1e6:.2f} MB"
    if b >= 1e3:
        return f"{b / 1e3:.2f} KB"
    return f"{b:.0f} B"


# ---------------------------------------------------------------------------
# Noise budget
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class NoiseBudget:
    ok: bool
    required_bits: float  # estimate: 12-sigma tails combined by RSS
    worstcase_bits: float  # triangle-inequality combination
    budget_bits: float  # log2(q/2)
    deficit_bits: float  # shortfall of the estimate, 0 when ok


def _budget_bits(T: int, sigma_n: float, n: int, sum_abs: float, sum_sq: float) -> tuple[float, float]:
    t_bits = math.log2(T)
    est = GAUSS_TAIL * sigma_n * math.sqrt(2.0 * n * sum_sq) + sum_abs
    worst = GAUSS_TAIL * sigma_n * 2.0 * n * sum_abs + sum_abs
    return t_bits + math.log2(est), t_bits + math.log2(worst)


def noise_budget(pset: "ParamSet", stats: tuple[float, float] | None = None) -> NoiseBudget:
    """Check T * (accumulated noise tail) + plaintext < q/2.

    stats is the worst per-reveal (sum |w|, sum w^2) over flattened weights;
    (1, 1) models independent per-round releases.
    """
    sum_abs, sum_sq = stats if stats is not None else (1.0, 1.0)
    req, worst = _budget_bits(pset.T, pset.sigma_n, pset.n, sum_abs, sum_sq)
    budget = pset.logq - 1.0
    return NoiseBudget(
        ok=req < budget,
        required_bits=req,
        worstcase_bits=worst,
        budget_bits=budget,
        deficit_bits=max(0.0, req - budget),
    )


# ---------------------------------------------------------------------------
# Committees
# ---------------------------------------------------------------------------


def committee_sizes(n: int, r: int, gamma: float, delta: float) -> int:
    """Resharing picks d so that, except with probability delta, every
    honest client links to an honest peer across all n*r client slots:
    d >= ln(2nr/delta) / (1 - gamma).  The d uniform picks are made with
    replacement; the event depends only on the set of receivers, so a
    client sends one piece per distinct pick, G <= min(d, n) of them with
    E[G] = n * (1 - (1 - 1/n)^d)."""
    if n < 1 or r < 1:
        raise ValueError(f"cohort size n={n} and round count r={r} must be >= 1")
    if not 0 <= gamma < 1:
        raise ValueError("gamma must be in [0, 1)")
    if not 0 < delta < 1:
        raise ValueError("delta must be in (0, 1)")
    return max(1, math.ceil(math.log(2.0 * n * r / delta) / (1.0 - gamma)))


def simulate_honest_links(
    n: int, d: int, gamma: float, cohorts: int, seed: int = 0, chunk: int = 2000
) -> int:
    """Count cohorts where some honest client fails to reach or be reached
    by an honest peer, under d uniform picks with replacement."""
    corrupt_count = int(math.floor(gamma * n))
    failures = 0
    rng = ctx_rng(seed, "honest-links", n, d)
    done = 0
    while done < cohorts:
        batch = min(chunk, cohorts - done)
        picks = rng.integers(0, n, size=(batch, n, d))
        # Receivers with index < corrupt_count are the corrupt ones; the
        # uniform choice makes the labelling irrelevant.
        sender_ok = (picks >= corrupt_count).any(axis=2)  # (batch, n)
        honest_senders = np.ones((batch, n), dtype=bool)
        honest_senders[:, :corrupt_count] = False
        send_fail = (~sender_ok & honest_senders).any(axis=1)
        # Receiver side: every honest receiver needs a message from an honest sender.
        recv_from_honest = np.zeros((batch, n), dtype=bool)
        for b in range(batch):
            hs = picks[b, corrupt_count:, :].ravel()
            recv_from_honest[b, np.unique(hs)] = True
        recv_fail = (~recv_from_honest & honest_senders).any(axis=1)
        failures += int((send_fail | recv_fail).sum())
        done += batch
    return failures


# ---------------------------------------------------------------------------
# Parameter sets
# ---------------------------------------------------------------------------


@dataclass
class ParamSet:
    """Every knob a run needs: ring shape, packing, noise schedule, cohort
    geometry, committee sizes, and the resharing mode."""

    N: int
    logq: int
    pf: int
    slot_width: int
    ell: int
    input_bits: int
    n: int
    r: int
    d: int
    h: int
    t: int
    gamma: float = 0.0
    beta: float = 0.0
    seed_resharing: bool = True
    # Built on first use; `dataclasses.replace` starts a fresh one.
    _ring: ring.RingParams | None = field(default=None, init=False, repr=False, compare=False)

    @property
    def T(self) -> int:
        return 2 ** (self.pf * self.slot_width)

    @property
    def sigma_s(self) -> float:
        return sigma_schedule(self.r)[0]

    @property
    def sigma_n(self) -> float:
        return sigma_schedule(self.r)[1]

    @property
    def packed_coeffs(self) -> int:
        return -(-self.ell // self.pf)

    @property
    def m(self) -> int:
        return -(-self.packed_coeffs // self.N)

    def ring(self) -> ring.RingParams:
        if self._ring is None:
            self._ring = ring.RingParams.from_bits(self.N, self.logq, self.T)
        return self._ring

    def cost(self) -> CostReport:
        return cost_model(
            self.N, self.logq, self.ell, self.pf, self.input_bits, self.seed_resharing
        )


def make_paramset(
    *,
    n: int,
    r: int,
    ell: int,
    input_bits: int,
    N: int | None = None,
    logq: int | None = None,
    pf: int = 1,
    gamma: float = 0.0,
    beta: float = 0.0,
    d: int | None = None,
    h: int | None = None,
    t: int | None = None,
    dp_sigma: float = 0.0,
    slot_width: int | None = None,
    stats: tuple[float, float] = (1.0, 1.0),
    margin_bits: int = 4,
    enforce_security: bool = False,
    seed_resharing: bool = True,
) -> ParamSet:
    """Assemble a parameter set, deriving anything not pinned explicitly.

    With enforce_security the modulus is clamped to the embedded table (and
    N must appear in it); otherwise desk-scale toy degrees are accepted and
    logq is sized from the noise budget plus a safety margin, then stepped
    up to the first width a limb split realizes.  When packing
    (pf > 1) the slot width also covers the program's weight accumulation so
    lane sums cannot carry across slots; unpacked coefficients wrap mod T,
    which is the functionality's own semantics.
    """
    if pf >= 2 and dp_sigma > 0:
        raise ValueError(
            f"packing (pf={pf}) needs nonnegative inputs, but dp_sigma={dp_sigma} draws "
            "signed noise; use pf=1"
        )
    if slot_width is None:
        slot_width = slot_width_for(
            input_bits, n, dp_sigma, weight_sum=stats[0] if pf > 1 else 1.0
        )
    packed = -(-ell // pf)
    if N is None:
        N = 16
        while N < min(packed, 2048):
            N *= 2
    _, sigma_n = sigma_schedule(r)
    if logq is None:
        req, _ = _budget_bits(2 ** (pf * slot_width), sigma_n, n, *stats)
        logq = _buildable_logq(N, math.floor(req + 1.0) + 1 + margin_bits, enforce_security)
    if enforce_security and logq > max_logq(N):
        raise ValueError(f"logq={logq} exceeds the {max_logq(N)}-bit cap for N={N}")
    if d is None:
        d = committee_sizes(n, r, gamma, DELTA_LINKS)
    if h is None:
        h = min(d, n)
    if t is None:
        t = h // 2 + 1
    if h > n:
        raise ValueError(f"committee size h={h} cannot exceed cohort size n={n}")
    return ParamSet(
        N=N, logq=logq, pf=pf, slot_width=slot_width, ell=ell, input_bits=input_bits,
        n=n, r=r, d=d, h=h, t=t, gamma=gamma, beta=beta, seed_resharing=seed_resharing,
    )


def _buildable_logq(N: int, logq: int, enforce_security: bool) -> int:
    """The smallest logq at or above the given one that a limb split
    realizes; never above the security cap when enforced."""
    cap = max_logq(N) if enforce_security else None
    while True:
        try:
            ring.choose_limbs(N, logq)
            return logq
        except ValueError:
            if cap is not None and logq >= cap:
                raise
            logq += 1


def grid_search(
    n: int,
    ell: int,
    r: int,
    input_bits: int,
    dp_sigma: float = 0.0,
    gamma: float = 0.0,
    stats: tuple[float, float] = (1.0, 1.0),
) -> ParamSet:
    """Minimize upload bytes over ring degree, packing factor, and modulus
    width, subject to the security table and the noise budget.

    With dp_sigma > 0 only pf=1 is considered: packed slots hold
    nonnegative values, and Gaussian inputs are signed.
    """
    committee_sizes(n, r, gamma, 0.5)  # a bad gamma fails by name, not as an empty grid
    best = None
    for N in sorted(SECURITY_LOGQ):
        cap = SECURITY_LOGQ[N]
        pf = 0
        while True:
            pf += 1
            # The slot width make_paramset gives this packing factor.
            slot = slot_width_for(input_bits, n, dp_sigma, weight_sum=stats[0] if pf > 1 else 1.0)
            if pf * slot > cap or (pf > 1 and dp_sigma > 0):
                break
            try:
                pset = make_paramset(
                    n=n, r=r, ell=ell, input_bits=input_bits, N=N, pf=pf, gamma=gamma,
                    dp_sigma=dp_sigma, stats=stats, margin_bits=0, enforce_security=True,
                )
            except ValueError:
                continue  # the budget needs more than the cap, or nothing up to it builds
            key = (pset.cost().client_server_bytes, N, pf)
            if best is None or key < best[0]:
                best = (key, pset)
    if best is None:
        raise ValueError("no feasible parameters: every (N, pf, logq) cell violates a cap")
    return best[1]
