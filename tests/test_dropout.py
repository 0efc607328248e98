import hashlib
import itertools
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stateful_agg import dp, dropout, ideal, params, protocol, ring, sharing
from stateful_agg import program as prog
from stateful_agg.prng import ctx_rng

from helpers import (
    capture_servers, desk_paramset, invariant_digest, random_data, random_program,
    reveals_equal, routed_receivers, run_digest, run_rng, running_sum_program, stored_digest,
)


def _sum_program(r, ell):
    rounds = [prog.Instruction.make(prog.STORE, prog.InputRule.data()) for _ in range(r - 1)]
    rounds.append(
        prog.Instruction.make(prog.REVEAL, prog.InputRule.data(), {k: 1 for k in range(1, r)})
    )
    return prog.Program(ell=ell, rounds=rounds)


def _survivor_reference(p, pset, data, seed, schedule):
    inputs = ideal.materialize_inputs(
        p, data, pset.n, protocol.run_noise_seed(seed), pset.gamma
    )
    return ideal.evaluate_program(p, dropout.survivor_inputs(inputs, schedule), pset.T)


def _pset(p, n, **kw):
    kw.setdefault("beta", 0.4)
    # Element pieces, as the pinned scenarios ran; seed-mode tests pass True.
    kw.setdefault("seed_resharing", False)
    kw.setdefault("h", 3)
    kw.setdefault("t", 2)
    return desk_paramset(p, n=n, **kw)


def test_empty_schedule_matches_synchronous_protocol():
    p = _sum_program(4, 2)
    pset = _pset(p, 6, beta=0.0)
    data = random_data(run_rng("empty"), p, 6)
    res, diag = dropout.run_dropout_protocol(p, pset, {}, data_inputs=data, seed=7)
    sync = protocol.run_protocol(p, pset, data_inputs=data, seed=7)
    assert reveals_equal(res.reveals, sync.reveals)
    assert all(diag.masks_reconstructed.values())
    assert diag.recovered_pieces == {i: 0 for i in diag.recovered_pieces}


def test_empty_program_reveals_nothing_under_dropout():
    p = prog.Program(ell=1, rounds=[])
    pset = _pset(p, 4, beta=0.0)
    res, _diag = dropout.run_dropout_protocol(p, pset, {})
    assert res.reveals == protocol.run_protocol(p, pset).reveals == []
    assert res.transcript.rows == []


def test_single_dropout_mid_run():
    p = _sum_program(4, 3)
    pset = _pset(p, 6)
    data = random_data(run_rng("one"), p, 6)
    schedule = {2: frozenset({3})}
    res, diag = dropout.run_dropout_protocol(p, pset, schedule, data_inputs=data, seed=11)
    assert reveals_equal(res.reveals, _survivor_reference(p, pset, data, 11, schedule).reveals)
    assert diag.recovered_pieces[2] > 0
    assert (2, 3) not in diag.masks_reconstructed


def test_dropped_receiver_of_routed_pieces_matches_reference():
    # Client 4 drops in rounds 2 and 3 after the previous cohorts routed
    # pieces to it; its inbox rows are never read, and recovery rebuilds the
    # pieces from its chaperones' backups.  The reveal reads four store
    # rounds encrypted under the key, so a wrong recovery would show.
    p = _sum_program(5, 3)
    pset = _pset(p, 6, d=6)
    data = random_data(run_rng("dropped-receiver"), p, 6)
    schedule = {2: frozenset({4}), 3: frozenset({4})}
    res, diag = dropout.run_dropout_protocol(
        p, pset, schedule, data_inputs=data, seed=23, track_keys=True
    )
    assert diag.recovered_pieces[2] > 0 and diag.recovered_pieces[3] > 0
    assert res.key_history[1][4] is None and res.key_history[2][4] is None
    assert reveals_equal(res.reveals, _survivor_reference(p, pset, data, 23, schedule).reveals)


def test_consecutive_round_dropouts():
    # Drops in adjacent rounds exercise backups flowing from cohort i to the
    # committees two cohorts later.  h - drops >= t keeps every quorum alive.
    p = _sum_program(5, 2)
    pset = _pset(p, 8, h=5, t=2)
    data = random_data(run_rng("consec"), p, 8)
    schedule = {2: frozenset({0, 5}), 3: frozenset({1, 6})}
    res, _ = dropout.run_dropout_protocol(p, pset, schedule, data_inputs=data, seed=13)
    assert reveals_equal(res.reveals, _survivor_reference(p, pset, data, 13, schedule).reveals)


def test_dropout_in_reveal_round():
    # Two of six clients drop in the last round; h - t = 2 chaperones of
    # each client of round 2 may be among them.
    p = _sum_program(3, 2)
    pset = _pset(p, 6, h=4)
    data = random_data(run_rng("revdrop"), p, 6)
    schedule = {3: frozenset({0, 1})}
    res, _ = dropout.run_dropout_protocol(p, pset, schedule, data_inputs=data, seed=17)
    assert reveals_equal(res.reveals, _survivor_reference(p, pset, data, 17, schedule).reveals)


def test_random_schedules_match_survivor_reference():
    rng = run_rng("sweep")
    for trial in range(10):
        p, _ = random_program(rng, r_max=5, n_max=1, ell_max=3)
        n = 8
        pset = _pset(p, n, beta=0.25, h=4, t=2)
        schedule = dropout.random_schedule(pset, p.r, trial)
        data = random_data(rng, p, n)
        res, _ = dropout.run_dropout_protocol(p, pset, schedule, data_inputs=data, seed=trial)
        ref = _survivor_reference(p, pset, data, trial, schedule)
        assert reveals_equal(res.reveals, ref.reveals), f"trial {trial}"


def test_dropped_mask_secret_never_released():
    p = _sum_program(4, 2)
    pset = _pset(p, 6)
    data = random_data(run_rng("priv"), p, 6)
    schedule = {2: frozenset({1}), 3: frozenset({4})}
    res, diag = dropout.run_dropout_protocol(p, pset, schedule, data_inputs=data, seed=19)
    for (c, j), _secret in diag.mask_secrets.items():
        if j in schedule.get(c, frozenset()):
            raise AssertionError("dropped client produced a message")
    assert (2, 1) not in diag.masks_reconstructed
    assert (3, 4) not in diag.masks_reconstructed
    # survivors' masks were all reconstructed
    for c in range(1, 5):
        for j in range(6):
            if j not in schedule.get(c, frozenset()):
                assert diag.masks_reconstructed.get((c, j))


def test_key_backups_released_only_for_dropped():
    p = _sum_program(3, 1)
    pset = _pset(p, 5)
    schedule = {2: frozenset({2})}
    _res, diag = dropout.run_dropout_protocol(p, pset, schedule, seed=23)
    assert diag.recovered_pieces.get(2, 0) > 0
    assert diag.recovered_pieces.get(1, 0) == 0
    assert diag.recovered_pieces.get(3, 0) == 0


def test_degenerate_committee_h1_t1():
    # With single-member committees, the dropped client must not itself sit
    # on any round-1 client's committee, or that mask becomes unrecoverable.
    p = _sum_program(3, 2)
    pset = _pset(p, 6, h=1, t=1)
    blocked = {
        dropout.chaperone_committee(29, pset, 1, j)[0] for j in range(6)
    }
    free = [j for j in range(6) if j not in blocked]
    assert free, "seed 29 leaves no drop candidate; pick another seed"
    data = random_data(run_rng("h1"), p, 6)
    schedule = {2: frozenset({free[0]})}
    res, _ = dropout.run_dropout_protocol(p, pset, schedule, data_inputs=data, seed=29)
    assert reveals_equal(res.reveals, _survivor_reference(p, pset, data, 29, schedule).reveals)


def test_quorum_failure_aborts():
    # Drop a client, then drop enough of its chaperones that the committee
    # cannot reach its threshold.
    p = _sum_program(4, 1)
    pset = _pset(p, 4, h=2, t=2, beta=0.5)
    victim = 1
    committee = dropout.chaperone_committee(31, pset, 2, victim)
    schedule = {2: frozenset({victim}), 3: frozenset({committee[0]})}
    with pytest.raises(dropout.QuorumError, match="round"):
        dropout.run_dropout_protocol(p, pset, schedule, seed=31)


def test_chaperones_that_drop_are_just_missing():
    # Losing fewer than h - t + 1 committee members leaves recovery intact.
    p = _sum_program(4, 1)
    pset = _pset(p, 6, h=3, t=2, beta=0.34)
    victim = 0
    committee = dropout.chaperone_committee(37, pset, 2, victim)
    schedule = {2: frozenset({victim}), 3: frozenset({committee[0]})}
    data = random_data(run_rng("chapdrop"), p, 6)
    res, _ = dropout.run_dropout_protocol(p, pset, schedule, data_inputs=data, seed=37)
    assert reveals_equal(res.reveals, _survivor_reference(p, pset, data, 37, schedule).reveals)


def test_mask_reconstruction_matches_prg():
    pr = ring.RingParams.from_bits(32, 60, 2**16)
    # The secret is shared as an element of the degree-4 ring over pr's
    # limbs: two coefficients of 60 bits fall short of 128.
    mr = dropout.mask_ring(pr)
    assert (mr.N, mr.limbs) == (4, pr.limbs)
    rng = run_rng("maskrec")
    secret = ring.sample_uniform(rng, mr)
    shares = sharing.tshare(secret, 5, 3, rng)
    rec = sharing.trec(list(shares.shares[1:4]), 3)
    assert rec == secret
    assert dropout.prg_mask(secret, 2, pr) == dropout.prg_mask(rec, 2, pr)


def _uniform_zq_reference(rng, params, k):
    """Reference mask-secret draw: k uniform residues per limb, CRT-lifted
    through Python ints to k coefficients in Z_q."""
    residues = [rng.integers(0, p, size=k, dtype=np.uint64).tolist() for p in params.limbs]
    return [
        sum(int(res[c]) * w for res, w in zip(residues, params._crt_weights)) % params.q
        for c in range(k)
    ]


@pytest.mark.parametrize("logq, limbs", [(None, 1), (60, 2), (90, 3)])
def test_mask_secrets_match_uniform_zq_reference(logq, limbs):
    # No digest covers the mask secrets: masks are stripped before anything
    # is digested.
    p = _sum_program(4, 2)
    pset = _pset(p, 6, logq=logq)
    rp = pset.ring()
    assert len(rp.limbs) == limbs
    data = random_data(run_rng("mask-secrets", limbs), p, 6)
    schedule = {2: frozenset({3}), 4: frozenset({0, 5})}
    res, diag = dropout.run_dropout_protocol(p, pset, schedule, data_inputs=data, seed=41)
    assert reveals_equal(res.reveals, _survivor_reference(p, pset, data, 41, schedule).reveals)
    survivors = {
        (i, j) for i in range(1, p.r + 1) for j in range(6) if j not in schedule.get(i, ())
    }
    assert set(diag.mask_secrets) == survivors
    # k coefficients, k the least power of two with k * log2(q) >= 128.
    k = dropout.mask_ring(rp).N
    assert k * math.log2(rp.q) >= 128 > k / 2 * math.log2(rp.q)
    for (i, j), secret in diag.mask_secrets.items():
        want = _uniform_zq_reference(ctx_rng(41, "mask-secret", i, j), rp, k)
        assert secret.coeffs.tolist() == want


def test_key_recovery_invariant():
    # After recovery, surviving shares plus the recovery accumulator equal
    # the global key defined by the first cohort's senders.
    p = _sum_program(5, 1)
    pset = _pset(p, 6, h=5, t=2)
    schedule = {2: frozenset({1}), 4: frozenset({0, 2})}
    res, diag = dropout.run_dropout_protocol(p, pset, schedule, seed=47, track_keys=True)
    s = None
    for sh in res.key_history[0]:
        if sh is not None:
            s = sh if s is None else s + sh
    for i, shares in enumerate(res.key_history, start=1):
        total = None
        for sh in shares:
            if sh is not None:
                total = sh if total is None else total + sh
        deficit = diag.deficits.get(i)
        if deficit is not None:
            total = total + deficit
        assert total == s, f"round {i}: survivors + Z != global key"


def test_schedule_validation():
    p = _sum_program(3, 1)
    pset = _pset(p, 6, beta=0.2)
    with pytest.raises(ValueError, match="exceed"):
        dropout.run_dropout_protocol(p, pset, {2: frozenset({0, 1, 2})}, seed=1)
    with pytest.raises(ValueError, match="outside"):
        dropout.run_dropout_protocol(p, pset, {9: frozenset({0})}, seed=1)


@pytest.mark.parametrize("client", [-1, 6])
def test_schedule_with_a_client_outside_the_cohort_fails_closed(client):
    p = _sum_program(3, 1)
    with pytest.raises(ValueError, match="dropout indices out of range in round 2"):
        dropout.normalize_schedule({2: [client]}, _pset(p, 6), p.r)


def test_committee_threshold_is_checked_before_round_one():
    p = _sum_program(3, 1)
    pset = _pset(p, 6)
    with pytest.raises(ValueError, match="need 1 <= t <= h"):
        dropout.run_dropout_protocol(p, replace(pset, t=pset.h + 1), {}, seed=1)


def _client_steps(monkeypatch) -> list:
    """Wrap `protocol.client_step` so that it records each call's (round,
    client) in the returned list."""
    steps, step = [], protocol.client_step

    def recorded(ctx, j, *args, **kwargs):
        steps.append((ctx.index, j))
        return step(ctx, j, *args, **kwargs)

    monkeypatch.setattr(protocol, "client_step", recorded)
    return steps


def test_committee_larger_than_cohort_fails_before_round_one(monkeypatch):
    # A committee of h distinct members needs h <= n clients per cohort.
    p = running_sum_program(4, 1)
    pset = replace(_pset(p, 6), h=7)
    steps = _client_steps(monkeypatch)
    with pytest.raises(ValueError, match="committee size h=7 exceeds cohort size n=6"):
        dropout.run_dropout_protocol(p, pset, {}, seed=1)
    assert steps == []


def test_mask_ring_wider_than_the_ring_fails_before_any_upload(monkeypatch):
    # At N = 4 a 128-bit mask secret needs more coefficients than an
    # element has.
    p = _sum_program(3, 1)
    pset = _pset(p, 6, N=4)
    assert 4 * math.log2(pset.ring().q) < 128
    steps = _client_steps(monkeypatch)
    with pytest.raises(ValueError, match="128-bit mask secret needs degree .* above N=4"):
        dropout.run_dropout_protocol(p, pset, {}, seed=1)
    assert steps == []


def test_mask_secret_carries_128_bits_and_each_coefficient_keys_the_mask():
    # A server that holds a dropout's upload and key share could try every
    # mask secret until the upload minus b*s minus the mask comes out
    # small; every secret must carry at least 128 bits, and each of its
    # coefficients must change the mask.
    p, pset, data, schedule, seed = _consecutive_case()
    _res, diag = dropout.run_dropout_protocol(p, pset, schedule, data_inputs=data, seed=seed)
    rp = pset.ring()
    assert diag.mask_secrets
    for secret in diag.mask_secrets.values():
        assert secret.params.limbs == rp.limbs
        assert secret.params.N * math.log2(rp.q) >= 128
    secret = diag.mask_secrets[(1, 0)]
    mask = dropout.prg_mask(secret, pset.m, rp)
    for c in range(secret.params.N):
        unit = secret.params.from_coeffs([int(c == e) for e in range(secret.params.N)])
        assert dropout.prg_mask(secret + unit, pset.m, rp) != mask, c


def _run_digest(res, diag) -> str:
    h = hashlib.sha256()
    for rnd, vec in res.reveals:
        h.update(f"{rnd}:{[int(v) for v in vec]}".encode())
    for shares in res.key_history:
        for sh in shares:
            h.update(b"-" if sh is None else sh.res.tobytes())
    for rnd, deficit in sorted(diag.deficits.items()):
        h.update(b"-" if deficit is None else deficit.res.tobytes())
    h.update(repr(sorted(diag.recovered_pieces.items())).encode())
    h.update(repr([(row.c2s_bytes, row.c2c_bytes, row.c2c_messages) for row in res.transcript.rows]).encode())
    return h.hexdigest()


PINNED_DIGEST = "8a0085fc92c2a887d95a4adb17f9b3fe9855ed61af1fbc3f2c079b1e9e5fcb57"


def test_key_history_and_reveals_are_pinned():
    # Key shares, deficits, reveals and traffic of a run with drops in
    # consecutive rounds; the digest pins every backup and recovery to the
    # draws the seed fixes, so a change to either shows here.
    p = _sum_program(6, 3)
    pset = _pset(p, 8, h=5, t=3, beta=0.25)
    data = random_data(run_rng("pinned"), p, 8)
    schedule = {2: frozenset({0, 5}), 3: frozenset({1}), 5: frozenset({2, 7})}
    res, diag = dropout.run_dropout_protocol(
        p, pset, schedule, data_inputs=data, seed=53, track_keys=True
    )
    assert reveals_equal(res.reveals, _survivor_reference(p, pset, data, 53, schedule).reveals)
    assert _run_digest(res, diag) == PINNED_DIGEST


def _mask_quorum_case(alive, seed_resharing):
    # Client 0 survives round 2; all but `alive` of its chaperones drop in
    # round 3, when the chaperones must release its mask shares.
    p = _sum_program(4, 2)
    pset = _pset(p, 8, h=5, t=3, beta=0.375, seed_resharing=seed_resharing)
    committee = dropout.chaperone_committee(59, pset, 2, 0)
    schedule = {3: frozenset(committee[alive:])}
    return p, pset, schedule


def test_mask_quorum_exactly_t_alive():
    for seed_resharing in (False, True):
        p, pset, schedule = _mask_quorum_case(alive=3, seed_resharing=seed_resharing)
        data = random_data(run_rng("maskq"), p, 8)
        res, diag = dropout.run_dropout_protocol(p, pset, schedule, data_inputs=data, seed=59)
        ref = _survivor_reference(p, pset, data, 59, schedule)
        assert reveals_equal(res.reveals, ref.reveals), seed_resharing
        assert diag.masks_reconstructed[(2, 0)]


def test_mask_quorum_t_minus_one_alive_aborts():
    for seed_resharing in (False, True):
        p, pset, schedule = _mask_quorum_case(alive=2, seed_resharing=seed_resharing)
        with pytest.raises(dropout.QuorumError, match="round 2: cannot reconstruct mask"):
            dropout.run_dropout_protocol(p, pset, schedule, seed=59)


def _key_quorum_case(alive, seed_resharing):
    # Client 0 drops in round 2; all but `alive` of its chaperones drop in
    # round 3, when they must release its incoming pieces.
    p = _sum_program(4, 2)
    pset = _pset(p, 8, h=5, t=3, beta=0.375, seed_resharing=seed_resharing)
    committee = dropout.chaperone_committee(61, pset, 2, 0)
    schedule = {2: frozenset({0}), 3: frozenset(committee[alive:])}
    return p, pset, schedule


def test_key_quorum_exactly_t_alive():
    for seed_resharing in (False, True):
        p, pset, schedule = _key_quorum_case(alive=3, seed_resharing=seed_resharing)
        data = random_data(run_rng("keyq"), p, 8)
        res, diag = dropout.run_dropout_protocol(p, pset, schedule, data_inputs=data, seed=61)
        ref = _survivor_reference(p, pset, data, 61, schedule)
        assert reveals_equal(res.reveals, ref.reveals), seed_resharing
        assert diag.recovered_pieces[2] > 0


def test_key_quorum_t_minus_one_alive_aborts():
    # Recovery walks the clients in index order, so client 0's error comes
    # first even though round 3's drops also thin other clients' committees.
    for seed_resharing in (False, True):
        p, pset, schedule = _key_quorum_case(alive=2, seed_resharing=seed_resharing)
        with pytest.raises(
            dropout.QuorumError,
            match="round 2: only 2 of 3 committee shares available for dropped client",
        ):
            dropout.run_dropout_protocol(p, pset, schedule, seed=61)


def test_repaired_rounds_are_freed():
    # Each round's key backups and mask shares are popped at its repair;
    # only the backups meant for the never-run cohort r+1 remain.
    p = _sum_program(5, 2)
    pset = _pset(p, 8, h=5, t=2)
    schedule = {2: frozenset({0, 5}), 3: frozenset({1, 6})}
    recovery = _CheckedRecovery(schedule)
    data = random_data(run_rng("freed"), p, 8)
    res = protocol.run_protocol(
        p, replace(pset, seed_resharing=False), data_inputs=data, seed=67, recovery=recovery
    )
    assert reveals_equal(res.reveals, _survivor_reference(p, pset, data, 67, schedule).reveals)
    assert list(recovery.backups) == [p.r + 1]
    assert not recovery.mask_shares
    assert sorted(recovery.seen) == list(range(2, p.r + 2))


def test_running_sum_dropout_run_is_pinned():
    # Reveals in every round read every earlier round, while recovery
    # rewrites the deficits those reveals correct for.
    p = running_sum_program(6, 8)
    pset = params.make_paramset(
        n=6, r=p.r, ell=p.ell, input_bits=20, N=256, d=3, h=4, t=2, beta=0.34,
        stats=prog.reveal_stats(p), seed_resharing=False,
    )
    data = random_data(run_rng("pin-dropout"), p, 6, input_bits=20)
    schedule = {2: frozenset({1}), 3: frozenset({4}), 5: frozenset({0, 3})}
    res, diag = dropout.run_dropout_protocol(
        p, pset, schedule, data_inputs=data, seed=73, track_keys=True
    )
    assert reveals_equal(res.reveals, _survivor_reference(p, pset, data, 73, schedule).reveals)
    assert sum(d is not None for d in diag.deficits.values()) >= 3
    want = "d1e6efba9a4ea71db72a78d7404f3ac12d16031bf14f030f8d8d09f5ca70c9b1"
    assert run_digest(res, diag) == want


def test_empty_schedule_key_history_matches_plain_resharing_run():
    # Without dropouts the recovery layer leaves key derivation and plain
    # resharing as the synchronous run does them.
    p = _sum_program(4, 2)
    pset = _pset(p, 6, beta=0.0)
    data = random_data(run_rng("empty-keys"), p, 6)
    res, _ = dropout.run_dropout_protocol(
        p, pset, {}, data_inputs=data, seed=7, track_keys=True
    )
    sync = protocol.run_protocol(p, pset, data_inputs=data, seed=7, track_keys=True)
    assert len(res.key_history) == p.r
    assert res.key_history == sync.key_history


def _consecutive_case():
    # The scenario of test_key_history_and_reveals_are_pinned.
    p = _sum_program(6, 3)
    pset = _pset(p, 8, h=5, t=3, beta=0.25)
    data = random_data(run_rng("pinned"), p, 8)
    schedule = {2: frozenset({0, 5}), 3: frozenset({1}), 5: frozenset({2, 7})}
    return p, pset, data, schedule, 53


def _running_sum_case():
    # The scenario of test_running_sum_dropout_run_is_pinned.
    p = running_sum_program(6, 8)
    pset = params.make_paramset(
        n=6, r=p.r, ell=p.ell, input_bits=20, N=256, d=3, h=4, t=2, beta=0.34,
        stats=prog.reveal_stats(p), seed_resharing=False,
    )
    data = random_data(run_rng("pin-dropout"), p, 6, input_bits=20)
    schedule = {2: frozenset({1}), 3: frozenset({4}), 5: frozenset({0, 3})}
    return p, pset, data, schedule, 73


def _perfbench_case():
    # The shape of the benchmark's dropout workload: a noisy prefix tree,
    # n=16, N=2048, d=8, h=6, t=4, one dropout per round.
    p = dp.tree_program(2, sigma=2.0, ell=64)
    pset = params.make_paramset(
        n=16, r=p.r, ell=p.ell, input_bits=8, N=2048, stats=prog.reveal_stats(p),
        dp_sigma=2.0, h=6, t=4, d=8, beta=1 / 16, seed_resharing=False,
    )
    data = random_data(run_rng("perfbench-shaped"), p, 16, input_bits=8)
    return p, pset, data, dropout.random_schedule(pset, p.r, 0), 0


# The run digests were recorded when mask secrets became 128-bit elements
# of the mask ring; before that, when each sender began routing one piece per
# distinct receiver;
# what recovery delivers does not depend on how the backups are cut.  The
# stored-aggregate digests of the runs that recover pieces were recorded
# when repairs began folding the lost pieces into the aggregates, which
# keeps them under the full key; the running sum's reveal bases are all
# zero, so its aggregates form no product and kept their digest.
INVARIANT_DIGESTS = {
    "consecutive": (
        _consecutive_case,
        "1158063d4f6a4cfe9f0a56cd125eeedacef5aa1b279396ffea66afb980711170",
        "fc8eefd7fda310bd9863fdc9a30533fe782414d650a5fea778738676827eafd5",
    ),
    "running-sum": (
        _running_sum_case,
        "58f7145a2bc2b2220f82cfa32eae35826df08de3186882f7dbb7b887394a1fbf",
        "cbc375d0772aecd07c8cb605cb068b587df1e647123174ff5170be2805c80259",
    ),
    "perfbench": (
        _perfbench_case,
        "59dfa3bc4a67c713eb2cf398eaf124e5d7633e1c34847e063c4dd13c3ab5a92f",
        "28e163a1d35da80e8c7539a7d6b1957dd25a20c482a6d1732e1e884d9701ec10",
    ),
}


@pytest.mark.parametrize("case", sorted(INVARIANT_DIGESTS))
def test_dropout_run_invariants_are_pinned(monkeypatch, case):
    # Reveals, key history, deficits, mask secrets, recovered piece counts
    # and the server's stored aggregates (the uploads' noise and stripped
    # masks) are pinned; transcript bytes are not.
    make, want, want_stored = INVARIANT_DIGESTS[case]
    p, pset, data, schedule, seed = make()
    servers = capture_servers(monkeypatch)
    res, diag = dropout.run_dropout_protocol(
        p, pset, schedule, data_inputs=data, seed=seed, track_keys=True
    )
    assert reveals_equal(res.reveals, _survivor_reference(p, pset, data, seed, schedule).reveals)
    assert len(servers) == 1
    assert (invariant_digest(res, diag), stored_digest(servers[0])) == (want, want_stored)


# run_digest of the consecutive-drops run with seed pieces: key shares,
# deficits (corrections and recovered pieces), reveals and traffic.
SEED_RESHARING_DIGESTS = {
    "consecutive": "e6014559d38e2dee91450e47bdb52d7f689eaac2a2c1dc65739792830748f588",
}


@pytest.mark.parametrize("case", sorted(INVARIANT_DIGESTS))
def test_seed_resharing_dropout_runs_match_survivor_reference(case):
    # The same scenarios with seed pieces: senders back up their seeds'
    # expansions, and the corrections move the drift between repairs.
    p, pset, data, schedule, seed = INVARIANT_DIGESTS[case][0]()
    pset = replace(pset, seed_resharing=True)
    res, diag = dropout.run_dropout_protocol(
        p, pset, schedule, data_inputs=data, seed=seed, track_keys=True
    )
    assert reveals_equal(res.reveals, _survivor_reference(p, pset, data, seed, schedule).reveals)
    assert sum(diag.recovered_pieces.values()) > 0
    if case in SEED_RESHARING_DIGESTS:
        assert run_digest(res, diag) == SEED_RESHARING_DIGESTS[case]


def test_stored_aggregates_are_under_the_full_key(monkeypatch):
    # Seed pieces move the drift every round and recovery loses pieces in
    # rounds 2, 3 and 5; still every stored aggregate, store or reveal, is
    # basis_k * s plus the survivors' input sum plus a T-multiple of noise,
    # with s the key the first cohort defined.
    p, pset, data, schedule, seed = _consecutive_case()
    pset = replace(pset, seed_resharing=True)
    servers = capture_servers(monkeypatch)
    res, diag = dropout.run_dropout_protocol(
        p, pset, schedule, data_inputs=data, seed=seed, track_keys=True
    )
    assert sum(diag.recovered_pieces.values()) > 0
    server, rp = servers[0], pset.ring()
    assert not schedule.get(1)
    s = sharing.piece_sum(res.key_history[0], rp)
    inputs = dropout.survivor_inputs(
        ideal.materialize_inputs(p, data, pset.n, protocol.run_noise_seed(seed), pset.gamma),
        schedule,
    )
    assert sorted(server.stored) == list(range(1, p.r + 1))
    for k, agg in server.stored.items():
        plain = [
            ring.centered_mod_t(c - ring.mul(b, s)) for c, b in zip(agg, server.basis[k])
        ]
        got = ring.decode(plain, p.ell, pset.pf, pset.slot_width)
        want = inputs[k - 1].sum(axis=0) % pset.T
        assert [int(v) for v in got] == [int(v) for v in want], k


def test_seed_resharing_dropout_run_expands_each_routed_seed_once(monkeypatch):
    # A survivor's backups share the expansions its step made: a run makes
    # one expansion per routed piece seed, none for recovery.  Apart from
    # those, each sharing expands its t-1 share seeds once, for the G
    # pieces and the mask secret of every survivor.
    p, pset, data, schedule, seed = _consecutive_case()
    pset = replace(pset, seed_resharing=True)
    expanded, share_seeds = [], []
    expand, tshare_many = sharing.expand_seed, sharing.tshare_many

    def counted(s, params):
        expanded.append(s)
        return expand(s, params)

    def recorded(*args):
        shared = tshare_many(*args)
        share_seeds.extend(s for ts in shared for s in ts.seeds)
        return shared

    monkeypatch.setattr(sharing, "expand_seed", counted)
    monkeypatch.setattr(sharing, "tshare_many", recorded)
    res, diag = dropout.run_dropout_protocol(p, pset, schedule, data_inputs=data, seed=seed)
    assert reveals_equal(res.reveals, _survivor_reference(p, pset, data, seed, schedule).reveals)
    assert sum(diag.recovered_pieces.values()) > 0
    fanouts = [
        len(routed_receivers(seed, pset, i, j))
        for i in range(1, p.r + 1) for j in range(pset.n) if j not in schedule.get(i, ())
    ]
    shares = set(share_seeds)
    pieces = [s for s in expanded if s not in shares]
    assert len(pieces) == len(set(pieces)) == sum(fanouts)
    assert sorted(s for s in expanded if s in shares) == sorted(share_seeds)
    assert len(share_seeds) == len(shares) == (pset.t - 1) * sum(g + 1 for g in fanouts)


def _senders(seed, pset, recv):
    """The round-1 senders that route a piece to round-2 client recv."""
    return [j for j in range(pset.n) if recv in routed_receivers(seed, pset, 1, j)]


def _shared_receiver(seed, pset):
    """The first round-2 client that two or more round-1 senders route a
    piece to."""
    for recv in range(pset.n):
        if len(_senders(seed, pset, recv)) >= 2:
            return recv
    raise AssertionError(f"seed {seed}: no receiver is fed by two round-1 senders")


def _shared_case(seed_resharing=False):
    # Round 1: several senders route a piece to R, which drops in round 2.
    # Round r = 4: a receiver of round 3's pieces drops, so the final flush
    # recovers key pieces as well as survivors' masks.
    p = _sum_program(4, 2)
    pset = _pset(p, 6, d=3, h=3, t=2, beta=0.34, seed_resharing=seed_resharing)
    seed = 83
    recv = _shared_receiver(seed, pset)
    last = min({r for j in range(pset.n) for r in routed_receivers(seed, pset, 3, j)})
    return p, pset, {2: frozenset({recv}), 4: frozenset({last})}, seed


def _expected_rows(p, pset, schedule, seed):
    """Closed-form (c2s_bytes, c2c_bytes, c2c_messages) of each round.

    A survivor uploads packed_coeffs coefficients, plus a correction
    element with seed resharing, and sends one piece (an element, or a seed
    of SEED_BITS) to each of its G distinct receivers, plus h shares of
    each piece and h shares of its mask secret, an element of the mask
    ring's degree k.  Of each h, the shares at points 1..t-1 travel as a
    seed of SEED_BITS, or as the value where that is shorter, and the other
    h-t+1 as values: N*logq bits for a piece, k*logq for a mask secret.
    Round i's repair, counted in round i+1's row (round r's in row r),
    releases t elements for each dropped client of round i that a survivor
    of round i-1 sent pieces to, and t*k scalars for each survivor's
    mask."""
    n, N, logq, h, t = pset.n, pset.N, pset.logq, pset.h, pset.t
    k = dropout.mask_ring(pset.ring()).N
    upload = (pset.packed_coeffs + (N if pset.seed_resharing else 0)) * logq
    piece = sharing.SEED_BITS if pset.seed_resharing else N * logq
    backup = (t - 1) * min(sharing.SEED_BITS, N * logq) + (h - t + 1) * N * logq
    mask = (t - 1) * min(sharing.SEED_BITS, k * logq) + (h - t + 1) * k * logq
    survivors = {
        i: [j for j in range(n) if j not in schedule.get(i, ())] for i in range(1, p.r + 1)
    }

    def repair(i):
        sent_to = {
            recv for j in survivors.get(i - 1, ())
            for recv in routed_receivers(seed, pset, i - 1, j)
        }
        keyed = len(schedule.get(i, frozenset()) & sent_to)
        return (t * keyed * N + t * k * len(survivors[i])) * logq / 8

    rows = []
    for i in range(1, p.r + 1):
        c2s = len(survivors[i]) * upload / 8
        c2s += (repair(i - 1) if i >= 2 else 0) + (repair(i) if i == p.r else 0)
        fanouts = [len(routed_receivers(seed, pset, i, j)) for j in survivors[i]]
        c2c = sum(g * (piece + backup) + mask for g in fanouts) / 8
        rows.append((c2s, c2c, sum(g + h * (g + 1) for g in fanouts)))
    return rows


def test_transcript_rows_match_closed_forms():
    # One piece and one backup per (sender, receiver), t released elements
    # per recovered receiver, and round r's repair counted in row r.
    p, pset, schedule, seed = _shared_case()
    data = random_data(run_rng("doubled"), p, pset.n)
    res, diag = dropout.run_dropout_protocol(p, pset, schedule, data_inputs=data, seed=seed)
    assert reveals_equal(res.reveals, _survivor_reference(p, pset, data, seed, schedule).reveals)
    got = [(row.c2s_bytes, row.c2c_bytes, row.c2c_messages) for row in res.transcript.rows]
    assert got == _expected_rows(p, pset, schedule, seed)
    assert diag.recovered_pieces[4] > 0


def test_transcript_rows_match_closed_forms_with_seed_resharing():
    # Each survivor uploads its correction element too, and sends G seeds
    # to peers next to the same backups.
    p, pset, schedule, seed = _shared_case(seed_resharing=True)
    data = random_data(run_rng("doubled"), p, pset.n)
    res, diag = dropout.run_dropout_protocol(p, pset, schedule, data_inputs=data, seed=seed)
    assert reveals_equal(res.reveals, _survivor_reference(p, pset, data, seed, schedule).reveals)
    got = [(row.c2s_bytes, row.c2c_bytes, row.c2c_messages) for row in res.transcript.rows]
    assert got == _expected_rows(p, pset, schedule, seed)
    assert diag.recovered_pieces[4] > 0


def _wire_bits(message, logq):
    """Bits of one peer message: a seed (an int) is SEED_BITS, an element
    N*logq."""
    return sharing.SEED_BITS if isinstance(message, int) else message.params.N * logq


@pytest.mark.parametrize("seed_resharing", [False, True])
def test_peer_traffic_is_rebuilt_from_the_messages_sent(monkeypatch, seed_resharing):
    # Each survivor's client-to-client bytes and messages, rebuilt from the
    # pieces it routed and the sharings its backups and mask produced: a
    # holder at a seeded point is sent the seed, or the value where that is
    # shorter, and every other holder the value.
    p, pset, schedule, seed = _shared_case(seed_resharing)
    logq = pset.logq
    sent, sender = {}, []
    tshare, mask, backup = sharing.tshare, dropout.Recovery.mask, dropout.backup_shares

    def mask_recorded(self, ctx, j):
        sender.append((ctx.index, j))
        return mask(self, ctx, j)

    def tshare_recorded(*args):
        ts = tshare(*args)
        sent.setdefault(sender[-1], []).append(ts)
        return ts

    def backup_recorded(recovery, ctx, res):
        shared = backup(recovery, ctx, res)
        sent.setdefault((ctx.index, res.index), []).extend(
            [piece for _, piece in res.reshares] + shared
        )
        return shared

    monkeypatch.setattr(dropout.Recovery, "mask", mask_recorded)
    monkeypatch.setattr(sharing, "tshare", tshare_recorded)
    monkeypatch.setattr(dropout, "backup_shares", backup_recorded)
    data = random_data(run_rng("doubled"), p, pset.n)
    res, diag = dropout.run_dropout_protocol(p, pset, schedule, data_inputs=data, seed=seed)
    assert reveals_equal(res.reveals, _survivor_reference(p, pset, data, seed, schedule).reveals)
    assert diag.recovered_pieces[4] > 0
    rows = {i: [0, 0] for i in range(1, p.r + 1)}
    for (i, j), messages in sent.items():
        assert j not in schedule.get(i, ())
        for msg in messages:
            if not isinstance(msg, sharing.ThresholdShares):
                rows[i][0] += _wire_bits(msg, logq)
                rows[i][1] += 1
                continue
            assert len(msg.seeds) == pset.t - 1 and len(msg.shares) == pset.h
            for x, share in msg.shares:
                if x <= len(msg.seeds):
                    assert share == sharing.expand_seed(msg.seeds[x - 1], share.params)
                    bits = min(_wire_bits(msg.seeds[x - 1], logq), _wire_bits(share, logq))
                else:
                    bits = _wire_bits(share, logq)
                rows[i][0] += bits
                rows[i][1] += 1
    assert len(sent) == sum(pset.n - len(schedule.get(i, ())) for i in rows)
    got = [(row.c2c_bytes, row.c2c_messages) for row in res.transcript.rows]
    assert got == [(bits / 8, count) for bits, count in rows.values()]


def test_final_flush_repair_is_counted_in_last_row():
    # Client 0 drops in the last round, after round 3's cohort sent it three
    # pieces.  Without the final flush the rows carry 1282.5 client-to-server
    # bytes: 23 uploads (310.5) and the mask releases of rounds 1 to 3 (324
    # each).  Round r's repair, released at the flush, lands in row r: t=2
    # times k=8 scalars for each of the 5 survivors' masks (270 bytes at
    # logq=27) and t=2 summed elements for client 0's pieces (216 bytes at
    # N=32).
    p = dp.tree_program(1, 0.0, ell=4)
    pset = _pset(p, 6, d=2, h=3, t=2, beta=0.2, input_bits=8)
    assert (p.r, pset.logq, dropout.mask_ring(pset.ring()).N) == (4, 27, 8)
    schedule = {4: frozenset({0})}
    res, diag = dropout.run_dropout_protocol(p, pset, schedule, seed=89)
    assert diag.recovered_pieces[4] == 3
    rows = [row.c2s_bytes for row in res.transcript.rows]
    assert rows == [c2s for c2s, _, _ in _expected_rows(p, pset, schedule, 89)]
    assert sum(rows) == 1282.5 + 270.0 + 216.0


class _CheckedRecovery(dropout.Recovery):
    """Copies, before every repair(rnd), the key backups of round rnd+1
    (complete since round rnd) and round rnd's mask shares, and checks that
    the repair leaves no record of a round at or before rnd."""

    def __init__(self, schedule):
        super().__init__(schedule)
        self.seen = {}
        self.mask_seen = {}

    def repair(self, server, rnd, next_dropped, run_seed):
        record = self.backups[rnd + 1]
        self.seen[rnd + 1] = (record.sums.copy(), record.pieces.copy())
        self.mask_seen[rnd] = dict(self.mask_shares[rnd])
        out = super().repair(server, rnd, next_dropped, run_seed)
        assert all(k > rnd for k in self.backups)
        return out


def _checked_run(p, pset, data, schedule, seed):
    recovery = _CheckedRecovery(dropout.normalize_schedule(schedule, pset, p.r))
    res = protocol.run_protocol(
        p, replace(pset, seed_resharing=False), data_inputs=data, seed=seed,
        track_keys=True, recovery=recovery,
    )
    assert reveals_equal(res.reveals, _survivor_reference(p, pset, data, seed, schedule).reveals)
    return res, recovery


def test_backup_records_count_pieces_per_receiver():
    p, pset, schedule, seed = _shared_case()
    data = random_data(run_rng("doubled"), p, pset.n)
    _res, recovery = _checked_run(p, pset, data, schedule, seed)
    for i in range(2, p.r + 2):
        # Round i's receivers: one piece from each survivor of round i-1
        # that picked them, however often it picked them.
        routed = [
            recv for j in range(pset.n) if j not in schedule.get(i - 1, ())
            for recv in routed_receivers(seed, pset, i - 1, j)
        ]
        _sums, pieces = recovery.seen[i]
        assert list(pieces) == [routed.count(recv) for recv in range(pset.n)]
    # R got one piece from each of several round-1 senders; each counts.
    recv = _shared_receiver(seed, pset)
    senders = len(_senders(seed, pset, recv))
    assert recovery.seen[2][1][recv] == senders >= 2
    assert recovery.diagnostics.recovered_pieces[2] == senders


@pytest.mark.parametrize("make", [_consecutive_case, _running_sum_case])
def test_backup_sums_interpolate_to_key_shares(make):
    # Before repair(i), any t points of a receiver's running sums in round
    # i+1's record interpolate to the key share it derived in round i+1.
    p, pset, data, schedule, seed = make()
    res, recovery = _checked_run(p, pset, data, schedule, seed)
    rp = pset.ring()
    for i in range(2, p.r + 1):
        sums, _pieces = recovery.seen[i]
        for recv, key in enumerate(res.key_history[i - 1]):
            if key is None:
                continue
            for xs in itertools.combinations(range(1, pset.h + 1), pset.t):
                points = [(x, ring.RingElement(sums[recv, x - 1] % rp._ps, rp)) for x in xs]
                assert sharing.trec(points, pset.t) == key, (i, recv, xs)


@pytest.mark.parametrize("make", [_consecutive_case, _running_sum_case])
def test_mask_shares_interpolate_to_mask_secrets(make):
    # Before repair(i), survivor j's mask secret is held as its shares at
    # points 1..h, and any t of them interpolate to the secret recorded for
    # (i, j).
    p, pset, data, schedule, seed = make()
    _res, recovery = _checked_run(p, pset, data, schedule, seed)
    secrets = recovery.diagnostics.mask_secrets
    mr = dropout.mask_ring(pset.ring())
    for i in range(1, p.r + 1):
        survivors = {j for j in range(pset.n) if j not in schedule.get(i, ())}
        assert set(recovery.mask_seen[i]) == survivors
        for j, held in recovery.mask_seen[i].items():
            assert len(held) == pset.h
            for xs in itertools.combinations(range(1, pset.h + 1), pset.t):
                rec = sharing.trec([(x, held[x - 1]) for x in xs], pset.t)
                assert rec.params == mr and rec == secrets[(i, j)], (i, j, xs)


def test_each_committee_is_drawn_once_at_its_rounds_repair(monkeypatch):
    # Drops in rounds 2, 3 and 5, with chaperones among round 3's.  Client
    # j of round i has one committee, drawn once, during round i's repair,
    # and its first t members alive in round i+1 release from it: the key
    # shares (elements) of a dropped client that was sent pieces, the mask
    # shares (mask-ring elements, degree k) of a survivor.
    p, pset, data, schedule, seed = _consecutive_case()
    k = dropout.mask_ring(pset.ring()).N
    draw, trec, repair = dropout.chaperone_committee, sharing.trec, dropout.Recovery.repair
    draws, releases, repairing = {}, [], []

    def recorded_draw(*args):
        draws.setdefault(args[2:4], []).append((repairing[-1] if repairing else None, draw(*args)))
        return draws[args[2:4]][-1][1]

    def recorded_trec(shares, t=None):
        rec = trec(shares, t)
        releases.append((repairing[-1], rec.params.N, [x for x, _ in shares]))
        return rec

    def recorded_repair(self, server, rnd, *rest):
        repairing.append(rnd)
        out = repair(self, server, rnd, *rest)
        repairing.pop()
        return out

    monkeypatch.setattr(dropout, "chaperone_committee", recorded_draw)
    monkeypatch.setattr(sharing, "trec", recorded_trec)
    monkeypatch.setattr(dropout.Recovery, "repair", recorded_repair)
    res, diag = dropout.run_dropout_protocol(p, pset, schedule, data_inputs=data, seed=seed)
    assert reveals_equal(res.reveals, _survivor_reference(p, pset, data, seed, schedule).reveals)
    assert sorted(draws) == [(i, j) for i in range(1, p.r + 1) for j in range(pset.n)]
    assert all(len(d) == 1 and d[0][0] == i for (i, _), d in draws.items())
    want, stepped_over = [], 0
    for i in range(1, p.r + 1):
        gone = schedule.get(i + 1, frozenset())
        sent_to = set() if i == 1 else {
            recv for j in range(pset.n) if j not in schedule.get(i - 1, ())
            for recv in routed_receivers(seed, pset, i - 1, j)
        }
        for j in range(pset.n):
            by_index = sorted((c, x) for x, c in enumerate(draws[(i, j)][0][1], start=1))
            xs = [x for c, x in by_index if c not in gone][: pset.t]
            stepped_over += xs != [x for _, x in by_index[: pset.t]]
            if j not in schedule.get(i, ()):
                want.append((i, k, xs))
            elif j in sent_to:
                want.append((i, pset.N, xs))
    assert releases == want
    assert {n for _, n, _ in releases} == {k, pset.N} and stepped_over


def _shared_key_quorum_case(alive, seed_resharing):
    # Receiver R, sent a piece by each of several round-1 senders, drops in
    # round 2; all but `alive` of its chaperones drop in round 3, when they
    # must release its summed shares.
    p = _sum_program(4, 2)
    pset = _pset(p, 8, h=5, t=3, beta=0.375, seed_resharing=seed_resharing)
    seed = 97
    recv = _shared_receiver(seed, pset)
    committee = dropout.chaperone_committee(seed, pset, 2, recv)
    schedule = {2: frozenset({recv}), 3: frozenset(committee[alive:])}
    return p, pset, schedule, seed, recv


def test_key_quorum_exactly_t_alive_with_summed_pieces():
    for seed_resharing in (False, True):
        p, pset, schedule, seed, recv = _shared_key_quorum_case(3, seed_resharing)
        data = random_data(run_rng("keyq-summed"), p, 8)
        res, diag = dropout.run_dropout_protocol(p, pset, schedule, data_inputs=data, seed=seed)
        ref = _survivor_reference(p, pset, data, seed, schedule)
        assert reveals_equal(res.reveals, ref.reveals), seed_resharing
        assert diag.recovered_pieces[2] == len(_senders(seed, pset, recv)) >= 2


def test_key_quorum_t_minus_one_alive_with_summed_pieces_aborts():
    for seed_resharing in (False, True):
        p, pset, schedule, seed, recv = _shared_key_quorum_case(2, seed_resharing)
        with pytest.raises(
            dropout.QuorumError,
            match=f"round 2: only 2 of 3 committee shares available for dropped client {recv}$",
        ):
            dropout.run_dropout_protocol(p, pset, schedule, seed=seed)


@settings(max_examples=40, deadline=None)
@given(
    program_seed=st.integers(0, 2**32 - 1),
    n=st.integers(4, 8),
    d=st.integers(1, 4),
    t=st.integers(1, 2),
    seed_resharing=st.booleans(),
    drops=st.data(),
)
def test_random_programs_and_schedules_match_survivor_reference(
    program_seed, n, d, t, seed_resharing, drops
):
    # h = t + 2 and at most two drops per round: every committee keeps a
    # quorum, so every run must reveal the survivor reference, in either
    # resharing mode.
    p, _ = random_program(run_rng("property", program_seed), r_max=5, n_max=1, ell_max=3)
    pset = _pset(p, n, d=d, h=t + 2, t=t, beta=2 / n, seed_resharing=seed_resharing)
    schedule = dropout.normalize_schedule({
        i: drops.draw(st.sets(st.integers(0, n - 1), max_size=2), label=f"round {i}")
        for i in range(1, p.r + 1)
    }, pset, p.r)
    data = random_data(run_rng("property-data", program_seed), p, n)
    res, _ = dropout.run_dropout_protocol(p, pset, schedule, data_inputs=data, seed=program_seed)
    ref = _survivor_reference(p, pset, data, program_seed, schedule)
    assert reveals_equal(res.reveals, ref.reveals)
