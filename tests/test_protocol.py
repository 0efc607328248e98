from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stateful_agg import dropout, ideal, params, protocol, ring, sharing
from stateful_agg import program as prog
from stateful_agg.dp import tree_program
from stateful_agg.prng import ctx_rng

from helpers import (
    capture_servers, desk_paramset, random_data, random_program, reveals_equal, routed_receivers,
    run_digest, run_rng, running_sum_program, stored_digest,
)


def _sum_program(r, ell):
    rounds = [prog.Instruction.make(prog.STORE, prog.InputRule.data()) for _ in range(r - 1)]
    rounds.append(
        prog.Instruction.make(prog.REVEAL, prog.InputRule.data(), {k: 1 for k in range(1, r)})
    )
    return prog.Program(ell=ell, rounds=rounds)


def _reference(p, pset, data, seed):
    inputs = ideal.materialize_inputs(
        p, data, pset.n, protocol.run_noise_seed(seed), pset.gamma
    )
    return ideal.evaluate_program(p, inputs, pset.T)


def test_long_running_aggregation_matches_reference():
    p = _sum_program(4, 3)
    pset = desk_paramset(p, n=5)
    data = random_data(run_rng("lra"), p, 5)
    res = protocol.run_protocol(p, pset, data_inputs=data, seed=1)
    assert reveals_equal(res.reveals, _reference(p, pset, data, 1).reveals)


def test_single_31_bit_limb_run_matches_reference():
    # logq=31 at N=2048 has no even two-limb split; one 31-bit limb realizes it.
    p = _sum_program(3, 4)
    pset = replace(desk_paramset(p, n=4, N=2048), logq=31)
    assert params.noise_budget(pset).ok
    assert len(pset.ring().limbs) == 1
    data = random_data(run_rng("limb31"), p, 4)
    res = protocol.run_protocol(p, pset, data_inputs=data, seed=3)
    assert reveals_equal(res.reveals, _reference(p, pset, data, 3).reveals)


def test_zero_input_reveal_is_zero():
    p = prog.Program(ell=4, rounds=[prog.Instruction.make(prog.REVEAL, prog.InputRule.zero())])
    pset = desk_paramset(p, n=3)
    res = protocol.run_protocol(p, pset, seed=2)
    assert [int(v) for v in res.reveals[0][1]] == [0, 0, 0, 0]


def test_matches_reference_r4_n5_l8():
    rng = run_rng("r4n5")
    p, _ = random_program(rng, r_max=4, n_max=1, ell_max=1)
    p = prog.Program(ell=8, rounds=_sum_program(4, 8).rounds)
    pset = desk_paramset(p, n=5)
    data = random_data(rng, p, 5)
    res = protocol.run_protocol(p, pset, data_inputs=data, seed=3)
    assert reveals_equal(res.reveals, _reference(p, pset, data, 3).reveals)


def test_noise_rules_replay_identically():
    # A program with per-client Gaussian rules matches the reference exactly
    # when both draw from the run's noise seed.
    rounds = [
        prog.Instruction.make(prog.STORE, prog.InputRule.gauss(25.0)),
        prog.Instruction.make(prog.REVEAL, prog.InputRule.data(variance=9.0), {1: 1}),
    ]
    p = prog.Program(ell=2, rounds=rounds)
    pset = desk_paramset(p, n=6, input_bits=8)
    data = random_data(run_rng("noisy"), p, 6, input_bits=8)
    res = protocol.run_protocol(p, pset, data_inputs=data, seed=17)
    assert reveals_equal(res.reveals, _reference(p, pset, data, 17).reveals)


def test_first_round_keys_are_seeded_uniform():
    p = _sum_program(2, 1)
    pset = desk_paramset(p, n=4)
    a = protocol.run_protocol(p, pset, seed=5, track_keys=True)
    b = protocol.run_protocol(p, pset, seed=5, track_keys=True)
    assert a.key_history[0] == b.key_history[0]
    c = protocol.run_protocol(p, pset, seed=6, track_keys=True)
    assert a.key_history[0] != c.key_history[0]


def test_key_sum_invariant_100_rounds_plain_resharing():
    r = 100
    p = prog.Program(
        ell=1,
        rounds=[prog.Instruction.make(prog.STORE, prog.InputRule.zero()) for _ in range(r)],
    )
    pset = desk_paramset(p, n=4, N=16, seed_resharing=False, d=3)
    res = protocol.run_protocol(p, pset, seed=9, track_keys=True)
    s = res.key_history[0][0]
    for sh in res.key_history[0][1:]:
        s = s + sh
    for i, shares in enumerate(res.key_history, start=1):
        total = shares[0]
        for sh in shares[1:]:
            total = total + sh
        assert total == s, f"key sum drifted at round {i}"


def test_key_sum_invariant_seed_resharing_with_corrections():
    # With seed resharing the cohort sum drifts by the accumulated server
    # corrections; reveals still match the reference exactly.
    p = _sum_program(6, 2)
    pset = desk_paramset(p, n=4, seed_resharing=True)
    data = random_data(run_rng("drift"), p, 4)
    res = protocol.run_protocol(p, pset, data_inputs=data, seed=21)
    assert reveals_equal(res.reveals, _reference(p, pset, data, 21).reveals)


def test_seed_and_plain_resharing_agree():
    p = _sum_program(5, 3)
    data = random_data(run_rng("dual"), p, 4)
    res_seed = protocol.run_protocol(p, desk_paramset(p, n=4, seed_resharing=True),
                                     data_inputs=data, seed=8)
    res_plain = protocol.run_protocol(p, desk_paramset(p, n=4, seed_resharing=False),
                                      data_inputs=data, seed=8)
    assert reveals_equal(res_seed.reveals, res_plain.reveals)


def test_reveals_invariant_to_crypto_randomness():
    # Same data, different protocol seeds: freshly rerandomized shares and
    # noise must leave the revealed values untouched.
    p = _sum_program(3, 2)
    pset = desk_paramset(p, n=4)
    data = random_data(run_rng("rerand"), p, 4)
    base = protocol.run_protocol(p, pset, data_inputs=data, seed=100)
    for trial in range(20):
        other = protocol.run_protocol(p, pset, data_inputs=data, seed=101 + trial)
        assert reveals_equal(base.reveals, other.reveals)


def test_transcript_deterministic():
    p = _sum_program(4, 2)
    pset = desk_paramset(p, n=3)
    data = random_data(run_rng("det"), p, 3)
    a = protocol.run_protocol(p, pset, data_inputs=data, seed=12)
    b = protocol.run_protocol(p, pset, data_inputs=data, seed=12)
    assert a.transcript.rows == b.transcript.rows
    assert reveals_equal(a.reveals, b.reveals)


def test_client_to_client_bytes_seed_resharing():
    # d=7 picks among n=5 receivers: one seed per distinct receiver.
    p = _sum_program(3, 2)
    pset = desk_paramset(p, n=5, d=7, seed_resharing=True)
    res = protocol.run_protocol(p, pset, seed=4)
    for i, row in enumerate(res.transcript.rows, start=1):
        seeds = sum(len(routed_receivers(4, pset, i, j)) for j in range(pset.n))
        assert seeds < pset.n * pset.d
        assert row.c2c_bytes == seeds * sharing.SEED_BITS / 8
        assert row.c2c_messages == seeds


@pytest.mark.parametrize("seed_resharing", [True, False])
def test_cost_equals_synchronous_run_per_client_bytes(seed_resharing):
    # Seeds plus a correction element, or whole elements to peers: each row
    # counts every survivor's upload and one cost-model piece per distinct
    # receiver.
    p = _sum_program(3, 5)
    pset = desk_paramset(p, n=4, d=3, seed_resharing=seed_resharing)
    res = protocol.run_protocol(p, pset, seed=5)
    cost = pset.cost()
    for i, row in enumerate(res.transcript.rows, start=1):
        pieces = sum(len(routed_receivers(5, pset, i, j)) for j in range(pset.n))
        assert row.c2s_bytes == pset.n * cost.client_server_bytes
        assert row.c2c_bytes == pieces * cost.piece_bytes
    per_piece = sharing.SEED_BITS if seed_resharing else pset.N * pset.logq
    assert cost.piece_bytes == per_piece / 8


def test_client_to_server_bytes_match_cost_model_benchmark_row():
    # The first benchmark row's parameter set: N=2048, 44-bit q, no packing,
    # vector length 1000.  Per-client upload per round must equal the cost
    # model: (1000 + 2048) * 44 / 8 = 16764 bytes.
    p = _sum_program(2, 1000)
    pset = params.make_paramset(
        n=40, r=2, ell=1000, input_bits=16, N=2048, logq=44, pf=1,
        slot_width=26, d=2, seed_resharing=True,
    )
    data = random_data(run_rng("t1row"), p, 40, input_bits=16)
    res = protocol.run_protocol(p, pset, data_inputs=data, seed=33)
    cost = params.cost_model(2048, 44, 1000, 1)
    for row in res.transcript.rows:
        assert row.c2s_bytes / pset.n == pytest.approx(cost.client_server_bytes)
    assert cost.client_server_bytes == pytest.approx(16764.0)
    assert reveals_equal(res.reveals, _reference(p, pset, data, 33).reveals)


def test_server_step_missing_message():
    p = _sum_program(2, 1)
    pset = desk_paramset(p, n=3)
    server = protocol.ServerState(p, pset)
    ctx = protocol.build_context(server, "gs", 1, 0)
    with pytest.raises(protocol.ProtocolError, match="expected 3"):
        protocol.server_step(server, ctx, [])


def test_program_params_length_mismatch():
    p = _sum_program(2, 3)
    pset = desk_paramset(_sum_program(2, 4), n=3)
    with pytest.raises(ValueError, match="length"):
        protocol.run_protocol(p, pset, seed=1)


def test_vectors_spanning_multiple_ring_elements():
    # ell=40 at N=16 packs into three ring elements per message.
    p = _sum_program(3, 40)
    pset = desk_paramset(p, n=4, N=16)
    assert pset.m == 3
    data = random_data(run_rng("multi"), p, 4)
    res = protocol.run_protocol(p, pset, data_inputs=data, seed=77)
    assert reveals_equal(res.reveals, _reference(p, pset, data, 77).reveals)


def test_packed_slots_through_protocol():
    # Two entries per coefficient: headroom covers the cohort sum.
    p = _sum_program(3, 8)
    pset = params.make_paramset(
        n=4, r=3, ell=8, input_bits=6, N=16, pf=2, d=3,
        stats=prog.reveal_stats(p),
    )
    assert pset.T == 2 ** (2 * pset.slot_width)
    data = random_data(run_rng("packed"), p, 4)
    res = protocol.run_protocol(p, pset, data_inputs=data, seed=78)
    assert reveals_equal(res.reveals, _reference(p, pset, data, 78).reveals)


def test_plaintext_modulus_above_2_64_run_matches_reference():
    # Three 28-bit slots per coefficient: T = 2^84, so the lift mod T and
    # the unpacking run on Python ints (ring.centered_mod_t, ring.decode).
    p = tree_program(1, 0.0, ell=64)
    pset = params.make_paramset(
        n=4, r=p.r, ell=p.ell, input_bits=24, N=16, pf=3, stats=prog.reveal_stats(p),
    )
    assert (pset.T, pset.logq) == (2**84, 99)
    data = random_data(run_rng("wide-T"), p, 4, input_bits=24)
    res = protocol.run_protocol(p, pset, data_inputs=data, seed=84)
    assert len(res.reveals) == 2
    assert reveals_equal(res.reveals, _reference(p, pset, data, 84).reveals)


def test_weights_on_reveal_rounds_supported():
    # Later rounds may reference earlier revealed values; the composed mask
    # bases keep the key terms cancelling.
    rounds = [
        prog.Instruction.make(prog.STORE, prog.InputRule.data()),
        prog.Instruction.make(prog.REVEAL, prog.InputRule.data(), {1: 2}),
        prog.Instruction.make(prog.REVEAL, prog.InputRule.data(), {2: -1}),
        prog.Instruction.make(prog.REVEAL, prog.InputRule.data(), {1: 1, 2: 1, 3: 1}),
    ]
    p = prog.Program(ell=2, rounds=rounds)
    pset = desk_paramset(p, n=4)
    data = random_data(run_rng("revref"), p, 4)
    res = protocol.run_protocol(p, pset, data_inputs=data, seed=55)
    assert reveals_equal(res.reveals, _reference(p, pset, data, 55).reveals)


def test_running_sum_run_is_pinned():
    # Every round reveals, so flooding noise, the key drift of seed
    # resharing and the two-limb NTT path all feed the digest.
    p = running_sum_program(10, 8)
    pset = params.make_paramset(
        n=4, r=p.r, ell=p.ell, input_bits=20, N=256, d=3, stats=prog.reveal_stats(p)
    )
    assert len(pset.ring().limbs) == 2
    data = random_data(run_rng("pin-running"), p, 4, input_bits=20)
    res = protocol.run_protocol(p, pset, data_inputs=data, seed=71, track_keys=True)
    assert reveals_equal(res.reveals, _reference(p, pset, data, 71).reveals)
    assert run_digest(res) == "0c6369575166d7df3ec9e65a1a578c8d4ef21794c9f80d07f56a6bb960d3d3e9"


def test_running_sum_stored_aggregates_are_pinned(monkeypatch):
    # The reveal digests never see an upload; the stored aggregates carry
    # every client's encryption and flooding noise.
    p = running_sum_program(10, 8)
    pset = params.make_paramset(
        n=4, r=p.r, ell=p.ell, input_bits=20, N=256, d=3, stats=prog.reveal_stats(p)
    )
    data = random_data(run_rng("pin-running"), p, 4, input_bits=20)
    servers = capture_servers(monkeypatch)
    res = protocol.run_protocol(p, pset, data_inputs=data, seed=71)
    assert reveals_equal(res.reveals, _reference(p, pset, data, 71).reveals)
    assert len(servers) == 1
    assert stored_digest(servers[0]) == (
        "c44b2f3a687acf43ab0ebf36572e8b2e6106c692f85f769a5d1fe61733605fdf"
    )


def test_plain_resharing_running_sum_run_is_pinned():
    # Plain resharing routes whole ring elements, the piece path the
    # dropout recovery layer backs up; keys, reveals and traffic feed the
    # digest.
    p = running_sum_program(10, 8)
    pset = params.make_paramset(
        n=4, r=p.r, ell=p.ell, input_bits=20, N=256, d=3, seed_resharing=False,
        stats=prog.reveal_stats(p),
    )
    data = random_data(run_rng("pin-plain"), p, 4, input_bits=20)
    res = protocol.run_protocol(p, pset, data_inputs=data, seed=79, track_keys=True)
    assert reveals_equal(res.reveals, _reference(p, pset, data, 79).reveals)
    assert run_digest(res) == "079298c13d887fab3b55dacc14b3c6dfd997eb2f09d71f67aa33c92c9db0a118"


def test_server_step_expects_one_upload_per_survivor():
    p = _sum_program(2, 1)
    pset = desk_paramset(p, n=4)
    server = protocol.ServerState(p, pset)
    ctx = protocol.build_context(server, "gs", 1, 0)
    uploads = [
        protocol.client_step(ctx, j, [], np.zeros(p.ell, dtype=object))
        for j in range(pset.n)
    ]
    dropped = frozenset({1, 3})
    for count in range(pset.n + 1):
        if count == pset.n - len(dropped):
            continue
        with pytest.raises(protocol.ProtocolError, match="round 1: expected 2 messages"):
            protocol.server_step(server, ctx, uploads[:count], dropped)
    assert 1 not in server.stored
    protocol.server_step(server, ctx, uploads[:2], dropped)
    assert 1 in server.stored


def test_packed_gaussian_run_fails_closed_before_round_one(monkeypatch):
    # Gaussian inputs are signed and packed slots hold nonnegative values.
    # make_paramset refuses pf=2 with dp_sigma > 0; a set built without
    # dp_sigma still reaches the engine, which reads the program's rules.
    p = tree_program(2, 2.0, ell=8)
    pset = params.make_paramset(
        n=4, r=p.r, ell=8, input_bits=8, N=32, pf=2, stats=prog.reveal_stats(p),
    )

    def no_step(*args, **kwargs):
        raise AssertionError("a client step ran")

    monkeypatch.setattr(protocol, "client_step", no_step)
    with pytest.raises(ValueError, match=r"packing \(pf=2\).*Gaussian rule of round 1.*pf=1"):
        protocol.run_protocol(p, pset, seed=1)
    with pytest.raises(ValueError, match=r"packing \(pf=2\)"):
        dropout.run_dropout_protocol(p, pset, {}, seed=1)


def test_empty_cohort_fails_closed_before_round_one(monkeypatch):
    # make_paramset with an explicit d builds a set with no clients; the run
    # refuses it instead of revealing zeros from a cohort that does not exist.
    p = running_sum_program(2, 1)
    pset = params.make_paramset(n=0, r=p.r, ell=p.ell, input_bits=8, d=4, N=32)
    assert pset.n == 0

    def no_step(*args, **kwargs):
        raise AssertionError("a client step ran")

    monkeypatch.setattr(protocol, "client_step", no_step)
    with pytest.raises(ValueError, match=r"cohort size n=0"):
        protocol.run_protocol(p, pset, seed=1)


def _no_client_steps(monkeypatch):
    def no_step(*args, **kwargs):
        raise AssertionError("a client step ran")

    monkeypatch.setattr(protocol, "client_step", no_step)


def _difference_program():
    # Round 2 reveals x2 - x1 over two data rounds.
    return prog.Program(ell=4, rounds=[
        prog.Instruction.make(prog.STORE, prog.InputRule.data()),
        prog.Instruction.make(prog.REVEAL, prog.InputRule.data(), {1: -1}),
    ])


def test_packed_negative_weight_on_a_data_round_fails_closed(monkeypatch):
    # Both clients submit x1 = [5, 0, 0, 0], then x2 = [1, 0, 0, 0]: the
    # reveal is -8 = 4088 mod T = 2^12, but packed lanes subtracted in place
    # borrow from each other, and the run revealed [56, 63, 0, 0].
    p = _difference_program()
    pset = params.make_paramset(
        n=2, r=2, ell=4, input_bits=4, N=16, pf=2, stats=prog.reveal_stats(p),
    )
    assert pset.T == 2**12
    data = np.zeros((2, 2, 4), dtype=np.int64)
    data[0, :, 0], data[1, :, 0] = 5, 1
    assert ideal.run_ideal(p, data, pset.T, 2).reveals[0][1].tolist() == [4088, 0, 0, 0]
    _no_client_steps(monkeypatch)
    with pytest.raises(ValueError, match=r"packing \(pf=2\).*round 2 reads data round 1 with weight -1"):
        protocol.run_protocol(p, pset, data, seed=1)
    # Unpacked, the lanes are whole coefficients and the difference wraps mod T.
    monkeypatch.undo()
    unpacked = replace(pset, pf=1, slot_width=12)
    res = protocol.run_protocol(p, unpacked, data, seed=1)
    assert reveals_equal(res.reveals, _reference(p, unpacked, data, 1).reveals)


def test_packed_slot_width_below_the_reveals_needs_fails_closed(monkeypatch):
    # Four 6-bit inputs under a weight sum of 2 need 6 + 3 bits per lane.
    p = _sum_program(2, 8)
    pset = params.make_paramset(
        n=4, r=2, ell=8, input_bits=6, N=16, pf=2, stats=prog.reveal_stats(p),
    )
    assert pset.slot_width == params.slot_width_for(6, 4, 0.0, 2.0) == 9
    _no_client_steps(monkeypatch)
    narrow = replace(pset, slot_width=8)
    with pytest.raises(ValueError, match=r"slot_width=8 is below the 9 bits that round 2's reveal"):
        protocol.run_protocol(p, narrow, seed=1)


def test_grid_search_pick_for_gaussian_program_runs():
    p = tree_program(2, 2.0, ell=20000)
    pset = params.grid_search(4, 20000, p.r, 8, dp_sigma=2.0, stats=prog.reveal_stats(p))
    assert pset.pf == 1
    data = random_data(run_rng("gauss-grid"), p, 4, input_bits=8)
    res = protocol.run_protocol(p, pset, data_inputs=data, seed=4)
    assert len(res.reveals) == 4
    assert reveals_equal(res.reveals, _reference(p, pset, data, 4).reveals)


def test_server_step_stores_the_sum_of_the_uploads():
    p = _sum_program(2, 40)
    pset = desk_paramset(p, n=5)
    server = protocol.ServerState(p, pset)
    ctx = protocol.build_context(server, "gs", 1, 0)
    data = random_data(run_rng("agg"), p, pset.n)
    uploads = [
        protocol.client_step(ctx, j, [], data[0][j])
        for j in range(pset.n)
    ]
    protocol.server_step(server, ctx, uploads)
    want = list(uploads[0].message)
    for res in uploads[1:]:
        want = [a + w for a, w in zip(want, res.message)]
    assert list(server.stored[1]) == want


def test_seed_resharing_expands_each_seed_once(monkeypatch):
    # The sender's expansion feeds both its correction and the receiver's
    # inbox row, so a run makes one expansion per routed seed: one per
    # distinct receiver of each client's d picks.  Store rounds encrypt
    # under the key, so a lost piece would show in the reveal.
    p = _sum_program(5, 4)
    pset = desk_paramset(p, n=4, d=3)
    assert pset.seed_resharing
    seeds = []
    expand = sharing.expand_seed

    def counted(seed, params):
        seeds.append(seed)
        return expand(seed, params)

    monkeypatch.setattr(sharing, "expand_seed", counted)
    data = random_data(run_rng("expand-once"), p, 4)
    res = protocol.run_protocol(p, pset, data_inputs=data, seed=19)
    routed = sum(
        len(routed_receivers(19, pset, i, j)) for i in range(1, p.r + 1) for j in range(pset.n)
    )
    assert len(seeds) == routed < pset.n * pset.d * p.r
    assert len(set(seeds)) == len(seeds)
    assert reveals_equal(res.reveals, _reference(p, pset, data, 19).reveals)


def test_run_composes_the_weights_once(monkeypatch):
    # The noise-budget check and the server read the same signed tables.
    p = running_sum_program(4, 2)
    pset = desk_paramset(p, n=4)
    calls = []
    compose = prog.compose_all

    def counted(*args):
        calls.append(args)
        return compose(*args)

    monkeypatch.setattr(prog, "compose_all", counted)
    data = random_data(run_rng("compose-once"), p, 4)
    res = protocol.run_protocol(p, pset, data_inputs=data, seed=3)
    assert len(calls) == 1
    assert reveals_equal(res.reveals, _reference(p, pset, data, 3).reveals)


def test_plain_resharing_with_empty_inboxes_is_pinned():
    # With d=2 picks per sender among n=4 receivers, some receivers get no
    # piece in a round and hold a zero key share; the digest was recorded
    # when each sender began routing one piece per distinct receiver.
    p = _sum_program(6, 5)
    pset = params.make_paramset(
        n=4, r=p.r, ell=p.ell, input_bits=8, N=64, d=2, seed_resharing=False,
        stats=prog.reveal_stats(p),
    )
    data = random_data(run_rng("pin-inbox"), p, 4, input_bits=8)
    res = protocol.run_protocol(p, pset, data_inputs=data, seed=84, track_keys=True)
    assert reveals_equal(res.reveals, _reference(p, pset, data, 84).reveals)
    assert sum(not k.res.any() for keys in res.key_history[1:] for k in keys) == 6
    assert run_digest(res) == "052b38fe741ebdc1d3fb501ac3a6079a8a87c43eada41ecb807685c716b11d8f"


def test_fold_forms_no_product_for_zero_basis_elements(monkeypatch):
    # Absorb and repair fold basis_k[e] * key into each element of a stored
    # aggregate; an all-zero basis element, or a zero drift (None), forms
    # no ring.mul and leaves the element the plain sum.
    p = _sum_program(3, 40)
    pset = desk_paramset(p, n=3, N=16)
    assert pset.m == 3
    server = protocol.ServerState(p, pset)
    rp = server.ring_params
    rng = run_rng("zero-fold")
    a, b, drift, lost = (ring.sample_uniform(rng, rp) for _ in range(4))
    messages = [tuple(ring.sample_uniform(rng, rp) for _ in range(pset.m)) for _ in range(pset.n)]
    uploads = [
        protocol.ClientStepResult(j, rp.zero(), msg, [], None, ()) for j, msg in enumerate(messages)
    ]
    sums = [sharing.piece_sum([msg[e] for msg in messages], rp) for e in range(pset.m)]
    ctx = protocol.build_context(server, "gs", 1, 0)
    products = []
    mul = ring.mul

    def counted(x, y):
        products.append((x, y))
        return mul(x, y)

    monkeypatch.setattr(ring, "mul", counted)
    server.drift = drift
    protocol.server_step(server, replace(ctx, basis=(a, rp.zero(), b)), uploads)
    assert products == [(a, drift), (b, drift)]
    assert server.stored[1] == (sums[0] + mul(a, drift), sums[1], sums[2] + mul(b, drift))
    server.drift = None
    protocol.server_step(server, replace(ctx, index=2, basis=(a, b, rp.zero())), uploads)
    assert server.stored[2] == tuple(sums)
    products.clear()
    # Round 1's lost piece reaches rounds 1 and 2: two products each.
    server.repair(1, [lost], [])
    assert products == [(a, lost), (b, lost), (a, lost), (b, lost)]
    assert server.stored[2] == (sums[0] + mul(a, lost), sums[1] + mul(b, lost), sums[2])
    # A running sum reveals under all-zero bases only: no product at all,
    # though seed resharing moves the drift every round.
    products.clear()
    q = running_sum_program(6, 8)
    qset = params.make_paramset(
        n=4, r=q.r, ell=q.ell, input_bits=20, N=256, d=3, stats=prog.reveal_stats(q)
    )
    assert qset.seed_resharing
    data = random_data(run_rng("zero-fold-run"), q, 4, input_bits=20)
    res = protocol.run_protocol(q, qset, data_inputs=data, seed=72)
    assert reveals_equal(res.reveals, _reference(q, qset, data, 72).reveals)
    assert products == []


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(2, 9),
    d=st.integers(1, 12),
    seed=st.integers(0, 2**32 - 1),
    seed_resharing=st.booleans(),
)
def test_one_piece_per_distinct_receiver(n, d, seed, seed_resharing):
    # The d picks are drawn with replacement; a sender routes one piece to
    # each distinct pick, in receiver order, and the pieces (with the
    # correction, in seed mode) sum to its key share.
    p = _sum_program(2, 1)
    pset = desk_paramset(p, n=n, d=d, N=16, seed_resharing=seed_resharing)
    rp = pset.ring()
    ctx = protocol.build_context(protocol.ServerState(p, pset), "gs", 1, seed)
    picks = ctx_rng(seed, "reshare", 1, 0).integers(0, n, size=d)
    inbox = np.zeros((n, len(rp.limbs), pset.N), dtype=np.uint64)
    res = protocol.client_step(ctx, 0, [], np.zeros(1, dtype=object), inbox=inbox)
    receivers = [recv for recv, _ in res.reshares]
    assert receivers == sorted(set(picks.tolist()))
    assert len(res.pieces) == len(receivers) <= min(d, n)
    for recv in range(n):
        want = res.pieces[receivers.index(recv)].res if recv in receivers else 0
        assert (inbox[recv] == want).all()
    if seed_resharing:
        expanded = [sharing.expand_seed(s, rp) for _, s in res.reshares]
        assert expanded == list(res.pieces)
        assert sharing.piece_sum(expanded + [res.correction], rp) == res.key_share
    else:
        assert [part for _, part in res.reshares] == list(res.pieces)
        assert res.correction is None
        assert sharing.piece_sum(res.pieces, rp) == res.key_share
