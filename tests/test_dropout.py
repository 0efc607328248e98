import hashlib
from dataclasses import replace

import numpy as np
import pytest

from stateful_agg import dropout, ideal, params, protocol, ring, sharing
from stateful_agg import program as prog
from stateful_agg.prng import ctx_rng

from helpers import (
    desk_paramset, random_data, random_program, reveals_equal, run_digest, run_rng,
    running_sum_program,
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
    kw.setdefault("h", 3)
    kw.setdefault("t", 2)
    return desk_paramset(p, n=n, **kw)


def test_empty_schedule_matches_synchronous_protocol():
    p = _sum_program(4, 2)
    pset = _pset(p, 6, beta=0.0)
    data = random_data(run_rng("empty"), p, 6)
    res, diag = dropout.run_dropout_protocol(p, pset, {}, data_inputs=data, seed=7)
    sync = protocol.run_protocol(
        p, pset.with_overrides(seed_resharing=False), data_inputs=data, seed=7
    )
    assert reveals_equal(res.reveals, sync.reveals)
    assert all(diag.masks_reconstructed.values())
    assert diag.recovered_pieces == {i: 0 for i in diag.recovered_pieces}


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
    p = _sum_program(3, 2)
    pset = _pset(p, 6)
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
    # on any round-1 mask committee, or that mask becomes unrecoverable.
    p = _sum_program(3, 2)
    pset = _pset(p, 6, h=1, t=1)
    blocked = {
        dropout.chaperone_committee(29, pset, 1, j, "mask")[0] for j in range(6)
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
    committee = dropout.chaperone_committee(31, pset, 2, victim, "key")
    schedule = {2: frozenset({victim}), 3: frozenset({committee[0]})}
    with pytest.raises(dropout.QuorumError, match="round"):
        dropout.run_dropout_protocol(p, pset, schedule, seed=31)


def test_chaperones_that_drop_are_just_missing():
    # Losing fewer than h - t + 1 committee members leaves recovery intact.
    p = _sum_program(4, 1)
    pset = _pset(p, 6, h=3, t=2, beta=0.34)
    victim = 0
    committee = dropout.chaperone_committee(37, pset, 2, victim, "key")
    schedule = {2: frozenset({victim}), 3: frozenset({committee[0]})}
    data = random_data(run_rng("chapdrop"), p, 6)
    res, _ = dropout.run_dropout_protocol(p, pset, schedule, data_inputs=data, seed=37)
    assert reveals_equal(res.reveals, _survivor_reference(p, pset, data, 37, schedule).reveals)


def test_mask_reconstruction_matches_prg():
    pr = ring.RingParams(8, 2, q=97)
    rng = run_rng("maskrec")
    secret = 55
    shares = sharing.tshare(secret, 5, 3, rng, params=pr)
    rec = sharing.trec(list(shares.shares[1:4]), 3, params=pr)
    assert rec == secret
    a = dropout.prg_mask(secret, 2, pr)
    b = dropout.prg_mask(rec, 2, pr)
    assert a == b


def _uniform_zq_reference(rng, params):
    """Reference mask-secret draw: one uniform residue per limb, CRT-lifted
    through Python ints."""
    residues = [int(rng.integers(0, p)) for p in params.limbs]
    val = 0
    for res, w in zip(residues, params._crt_weights):
        val += res * w
    return val % params.q


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
    for (i, j), secret in diag.mask_secrets.items():
        assert secret == _uniform_zq_reference(ctx_rng(41, "mask-secret", i, j), rp)


def test_zero_mask_hook():
    pr = ring.RingParams(8, 2, q=97)
    assert all(e == pr.zero() for e in dropout.prg_mask(0, 3, pr))


def test_single_committee_flag():
    p = _sum_program(4, 2)
    pset = _pset(p, 6, single_committee=True)
    for j in range(6):
        assert dropout.chaperone_committee(1, pset, 2, j, "key") == \
            dropout.chaperone_committee(1, pset, 2, 0, "key")
    data = random_data(run_rng("single"), p, 6)
    schedule = {2: frozenset({5})}
    res, _ = dropout.run_dropout_protocol(p, pset, schedule, data_inputs=data, seed=41)
    assert reveals_equal(res.reveals, _survivor_reference(p, pset, data, 41, schedule).reveals)


def test_self_mask_reveal_flag():
    p = _sum_program(4, 2)
    pset = _pset(p, 6, self_mask_reveal=True)
    data = random_data(run_rng("selfrev"), p, 6)
    schedule = {2: frozenset({3})}
    res, diag = dropout.run_dropout_protocol(p, pset, schedule, data_inputs=data, seed=43)
    assert reveals_equal(res.reveals, _survivor_reference(p, pset, data, 43, schedule).reveals)
    assert (2, 3) not in diag.masks_reconstructed


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


PINNED_DIGEST = "8cce77125c29a6046c2a4dbd2f3401435e21aa6578e9b2cb8b3af5616f399364"


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


def _mask_quorum_case(alive):
    # Client 0 survives round 2; all but `alive` of its mask chaperones drop
    # in round 3, when the chaperones must release its mask shares.
    p = _sum_program(4, 2)
    pset = _pset(p, 8, h=5, t=3, beta=0.375)
    committee = dropout.chaperone_committee(59, pset, 2, 0, "mask")
    schedule = {3: frozenset(committee[alive:])}
    return p, pset, schedule


def test_mask_quorum_exactly_t_alive():
    p, pset, schedule = _mask_quorum_case(alive=3)
    data = random_data(run_rng("maskq"), p, 8)
    res, diag = dropout.run_dropout_protocol(p, pset, schedule, data_inputs=data, seed=59)
    assert reveals_equal(res.reveals, _survivor_reference(p, pset, data, 59, schedule).reveals)
    assert diag.masks_reconstructed[(2, 0)]


def test_mask_quorum_t_minus_one_alive_aborts():
    p, pset, schedule = _mask_quorum_case(alive=2)
    with pytest.raises(dropout.QuorumError, match="round 2: cannot reconstruct mask"):
        dropout.run_dropout_protocol(p, pset, schedule, seed=59)


def _key_quorum_case(alive):
    # Client 0 drops in round 2; all but `alive` of its key chaperones drop
    # in round 3, when they must release its incoming pieces.
    p = _sum_program(4, 2)
    pset = _pset(p, 8, h=5, t=3, beta=0.375)
    committee = dropout.chaperone_committee(61, pset, 2, 0, "key")
    schedule = {2: frozenset({0}), 3: frozenset(committee[alive:])}
    return p, pset, schedule


def test_key_quorum_exactly_t_alive():
    p, pset, schedule = _key_quorum_case(alive=3)
    data = random_data(run_rng("keyq"), p, 8)
    res, diag = dropout.run_dropout_protocol(p, pset, schedule, data_inputs=data, seed=61)
    assert reveals_equal(res.reveals, _survivor_reference(p, pset, data, 61, schedule).reveals)
    assert diag.recovered_pieces[2] > 0


def test_key_quorum_t_minus_one_alive_aborts():
    # Key recovery runs before mask release, so the key committee's error
    # comes first even though round 3's drops also thin mask committees.
    p, pset, schedule = _key_quorum_case(alive=2)
    with pytest.raises(
        dropout.QuorumError,
        match="round 2: only 2 of 3 committee shares available for dropped client",
    ):
        dropout.run_dropout_protocol(p, pset, schedule, seed=61)


def test_repaired_rounds_are_freed():
    # Each round's backups, mask shares and key committees are popped at its
    # repair; only the backups meant for the never-run cohort r+1 remain.
    p = _sum_program(5, 2)
    pset = _pset(p, 8, h=5, t=2)
    schedule = {2: frozenset({0, 5}), 3: frozenset({1, 6})}
    recovery = dropout.Recovery(schedule)
    data = random_data(run_rng("freed"), p, 8)
    res = protocol.run_protocol(
        p, replace(pset, seed_resharing=False), data_inputs=data, seed=67, recovery=recovery
    )
    assert reveals_equal(res.reveals, _survivor_reference(p, pset, data, 67, schedule).reveals)
    assert all(rnd > p.r for rnd in recovery.backups)
    assert not recovery.mask_shares
    assert not recovery.key_committees


def test_running_sum_dropout_run_is_pinned():
    # Reveals in every round read every earlier round, while recovery
    # rewrites the deficits those reveals correct for.
    p = running_sum_program(6, 8)
    pset = params.make_paramset(
        n=6, r=p.r, ell=p.ell, input_bits=20, N=256, d=3, h=4, t=2, beta=0.34,
        stats=prog.reveal_stats(p),
    )
    data = random_data(run_rng("pin-dropout"), p, 6, input_bits=20)
    schedule = {2: frozenset({1}), 3: frozenset({4}), 5: frozenset({0, 3})}
    res, diag = dropout.run_dropout_protocol(
        p, pset, schedule, data_inputs=data, seed=73, track_keys=True
    )
    assert reveals_equal(res.reveals, _survivor_reference(p, pset, data, 73, schedule).reveals)
    assert sum(d is not None for d in diag.deficits.values()) >= 3
    want = "33a66fb74451455678e528a26b688cf99e2dec1c6dbc86d84c10eac38cf43338"
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
    sync = protocol.run_protocol(
        p, pset.with_overrides(seed_resharing=False), data_inputs=data, seed=7,
        track_keys=True,
    )
    assert len(res.key_history) == p.r
    assert res.key_history == sync.key_history
