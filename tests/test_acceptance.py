"""Acceptance suite: one test per release criterion, each printing a
PASS line with its measured figures (run with -s to see them)."""

import math
import time

import numpy as np

from stateful_agg import crypto, dp, dropout, ideal, params, protocol, ring, sharing
from stateful_agg import program as prog
from stateful_agg.prng import ctx_rng

from helpers import (
    desk_paramset,
    eager_eval,
    random_data,
    random_program,
    reveals_equal,
    run_rng,
)


def _reference(p, pset, data, seed, schedule=None):
    inputs = ideal.materialize_inputs(
        p, data, pset.n, protocol.run_noise_seed(seed), pset.gamma
    )
    if schedule:
        inputs = dropout.survivor_inputs(inputs, schedule)
    return ideal.evaluate_program(p, inputs, pset.T)


def test_criterion_1_reference_equivalence_no_dropouts():
    rng = run_rng("criterion-1")
    t0 = time.monotonic()
    for trial in range(200):
        p, n = random_program(rng, r_max=8, n_max=8, ell_max=32)
        pset = desk_paramset(p, n=n)
        data = random_data(rng, p, n)
        res = protocol.run_protocol(p, pset, data_inputs=data, seed=trial)
        ref = _reference(p, pset, data, trial)
        assert reveals_equal(res.reveals, ref.reveals), f"trial {trial}"
    elapsed = time.monotonic() - t0
    assert elapsed < 60.0, f"took {elapsed:.1f}s"
    print(f"\n[PASS] criterion 1: 200/200 runs equal the reference exactly ({elapsed:.1f}s)")


def test_criterion_2_reference_equivalence_with_dropouts():
    rng = run_rng("criterion-2")
    t0 = time.monotonic()
    n, beta = 12, 0.2
    for trial in range(100):
        p, _ = random_program(rng, r_max=6, n_max=1, ell_max=8)
        pset = desk_paramset(p, n=n, beta=beta, h=5, t=3)
        schedule = {}
        for i in range(1, p.r + 1):
            count = int(rng.integers(0, int(beta * n) + 1))
            if count:
                schedule[i] = frozenset(
                    int(v) for v in rng.choice(n, size=count, replace=False)
                )
        data = random_data(rng, p, n)
        res, diag = dropout.run_dropout_protocol(
            p, pset, schedule, data_inputs=data, seed=trial
        )
        ref = _reference(p, pset, data, trial, schedule)
        assert reveals_equal(res.reveals, ref.reveals), f"trial {trial}"
        for (c, j) in diag.masks_reconstructed:
            assert j not in schedule.get(c, frozenset()), "dropped mask reconstructed"
    elapsed = time.monotonic() - t0
    assert elapsed < 120.0, f"took {elapsed:.1f}s"
    print(f"\n[PASS] criterion 2: 100/100 dropout runs equal the survivor reference ({elapsed:.1f}s)")


def test_criterion_3_flattened_weights_match_eager_recursion():
    q = 2**31 - 1
    rng = run_rng("criterion-3")
    for trial in range(500):
        p, n = random_program(rng, r_max=8, n_max=4, ell_max=4)
        inputs = rng.integers(0, q, size=(p.r, n, p.ell)).astype(object)
        values, _ = eager_eval(p, inputs, q=q)
        tables = prog.compose_all(p)
        sums = [inputs[i].sum(axis=0) % q for i in range(p.r)]
        for i in range(1, p.r + 1):
            lazy = np.zeros(p.ell, dtype=object)
            for k, w in {**tables[i - 1], i: 1}.items():
                lazy = lazy + w * sums[k - 1]
            assert list(lazy % q) == list(values[i - 1]), f"trial {trial} round {i}"
    print("\n[PASS] criterion 3: lazy weights equal eager recursion on 500 programs")


BENCHMARK_ROWS = [
    (10**3, 10**3, 2048, 44, 1, 16.76e3, 8.38),
    (10**5, 10**3, 2048, 54, 1, 20.57e3, 10.29),
    (10**7, 10**3, 4096, 64, 1, 40.77e3, 20.38),
    (10**3, 10**5, 4096, 96, 3, 449.16e3, 2.25),
    (10**5, 10**5, 4096, 87, 2, 588.29e3, 2.94),
    (10**7, 10**5, 4096, 103, 2, 696.49e3, 3.48),
    (10**3, 10**7, 16384, 434, 16, 34.88e6, 1.74),
    (10**5, 10**7, 16384, 413, 12, 43.87e6, 2.19),
    (10**7, 10**7, 16384, 417, 10, 52.98e6, 2.65),
]


def test_criterion_4_benchmark_table_reproduction():
    worst_b, worst_e = 0.0, 0.0
    for _n, ell, N, logq, pf, bytes_expect, exp_expect in BENCHMARK_ROWS:
        c = params.cost_model(N, logq, ell, pf)
        rel = abs(c.client_server_bytes - bytes_expect) / bytes_expect
        err = abs(c.expansion - exp_expect)
        worst_b, worst_e = max(worst_b, rel), max(worst_e, err)
        assert rel < 0.005, (N, logq, ell, pf)
        assert err < 0.02, (N, logq, ell, pf)
    ps = params.grid_search(10**3, 10**3, 1000, 16, dp_sigma=0.0)
    assert ps.N == 2048 and ps.pf == 1
    assert abs(ps.logq - 44) <= 3
    comm = ps.cost().client_server_bytes
    assert abs(comm - 16.76e3) / 16.76e3 < 0.10
    print(
        f"\n[PASS] criterion 4: 9/9 rows (worst byte err {worst_b * 100:.2f}%, "
        f"worst expansion err {worst_e:.3f}); search picks N=2048 pf=1 logq={ps.logq}"
    )


def test_criterion_5_noise_schedule():
    for r, sn_expect in ((10, 21.22639866), (1000, 202.4869379)):
        s_s, s_n = params.sigma_schedule(r)
        assert abs(s_s - 4.525483400) / 4.525483400 < 1e-4
        assert abs(s_n - sn_expect) / sn_expect < 1e-4
        pset = params.make_paramset(n=10, r=r, ell=4, input_bits=8, N=16, d=2)
        assert pset.sigma_s == s_s and pset.sigma_n == s_n
    print("\n[PASS] criterion 5: sigma_s and sigma_n match the schedule to 4 digits")


def test_criterion_6_tree_mechanism():
    # Exact prefixes at sigma = 0.
    h, n = 3, 4
    p = dp.tree_program(h, 0.0, ell=1)
    rng = run_rng("criterion-6")
    T = 2**30
    for trial in range(100):
        data = np.zeros((p.r, n, 1), dtype=object)
        for i in range(1, 2**h + 1):
            data[2 * i - 1] = rng.integers(0, 1000, size=(n, 1)).astype(object)
        res = ideal.run_ideal(p, data, T, n=n)
        run = 0
        for i, (_rnd, vec) in enumerate(res.reveals, start=1):
            v = int(vec[0])
            run += v - T if v > T // 2 else v
            assert run == int(data[1 : 2 * i : 2].sum()), f"trial {trial} prefix {i}"
        if trial < 3:  # spot-check the full protocol path as well
            pset = desk_paramset(p, n=n, N=16, input_bits=10)
            proto = protocol.run_protocol(p, pset, data_inputs=data, seed=trial)
            assert reveals_equal(proto.reveals, _reference(p, pset, data, trial).reveals)
    # Noise variance of every prefix stays below (h+1) sigma^2.
    sigma, trials = 10.0, 10**4
    pn = dp.tree_program(h, sigma, ell=1)
    outs = np.zeros((trials, 2**h))
    for trial in range(trials):
        res = ideal.run_ideal(pn, None, T, n=n, noise_seed=trial)
        stream = [int(v[0]) - T if int(v[0]) > T // 2 else int(v[0]) for _, v in res.reveals]
        outs[trial] = np.cumsum(stream)
    bound = (h + 1) * sigma**2 * (1 + 3 / math.sqrt(trials))
    worst = float(outs.var(axis=0).max())
    assert worst <= bound
    print(
        f"\n[PASS] criterion 6: exact prefixes (100 sets); worst prefix noise variance "
        f"{worst:.1f} <= {bound:.1f}"
    )


def test_criterion_7_matrix_factorization_mechanism():
    rng = run_rng("criterion-7")
    worst = 0.0
    for trial in range(20):
        r = int(rng.integers(2, 17))
        b = int(rng.integers(1, 5))
        c = dp.random_banded(r, b, 12, rng)
        # streaming application of A C^-1 equals the dense computation
        released = rng.normal(0, 1000, size=(r, 4))
        pp = dp.PostProcessor(c)
        got = np.stack([pp.push(released[i]) for i in range(r)])
        want = dp.dense_postprocess(c, released)
        scale = max(1.0, float(np.max(np.abs(want))))
        rel = float(np.max(np.abs(got - want))) / scale
        worst = max(worst, rel)
        assert rel <= 1e-9, f"trial {trial}"
        assert pp.buffered_vectors <= c.band
        # B C = A exactly in rational arithmetic
        bm = dp.factor_b(c, exact=True)
        ce = c.exact()
        for i in range(r):
            for j in range(r):
                dot = sum(bm[i][k] * ce[k][j] for k in range(r))
                assert dot == (1 if i >= j else 0), f"trial {trial} ({i},{j})"
    print(f"\n[PASS] criterion 7: 20/20 factors, worst stream error {worst:.2e}, BC = A exact")


def test_criterion_8_noise_budget_end_to_end():
    # 1000 opens, each of a 100-round accumulation over 3-client cohorts.
    # Per-client noise is drawn individually; the cohort's aggregate upload
    # is built in one step via key homomorphism (the client messages sum to
    # exactly that ciphertext, which the spot checks below assert bit for
    # bit on sampled rounds).
    t0 = time.monotonic()
    N, logq, r, n, input_bits, ell = 2048, 44, 100, 3, 8, 1000
    slot = 17  # 8-bit entries, 300 weighted contributions: sums < 2^17
    rp = ring.RingParams.from_bits(N, logq, 2**slot)
    assert rp.q.bit_length() == 44
    sigma_n = params.sigma_schedule(r)[1]
    t_mod = 2**slot
    publics = {
        k: crypto.derive_public("budget-acceptance", k, 1, rp) for k in range(1, r)
    }
    weights = {k: 1 for k in range(1, r)}
    basis = crypto.reveal_mask(publics, weights)
    data_rng = ctx_rng("c8-data")
    wraps = 0
    for trial in range(1000):
        trial_rng = ctx_rng("c8-run", trial)
        s = ring.sample_uniform(trial_rng, rp)
        shares = sharing.ashare(s, n, trial_rng)
        noise_rng = ctx_rng("c8-noise", trial)
        spot_rounds = {int(v) for v in trial_rng.integers(1, r, size=2)}
        stored: dict[int, tuple] = {}
        truth = np.zeros(ell, dtype=np.int64)
        for k in range(1, r):
            x = data_rng.integers(0, 2**input_bits, size=(n, ell))
            truth += x.sum(axis=0)
            e = ring.gaussian_ints(noise_rng, sigma_n, (n, N))
            agg = crypto.encrypt(
                publics[k], s, ring.encode(x.sum(axis=0), 1, slot, rp), 0.0, trial_rng
            )[0] + rp.from_coeffs(e.sum(axis=0)).scalar(t_mod)
            if k in spot_rounds:
                by_client = None
                for j, share in enumerate(shares):
                    mj = crypto.encrypt(
                        publics[k], share, ring.encode(x[j], 1, slot, rp), 0.0, trial_rng
                    )[0] + rp.from_coeffs(e[j]).scalar(t_mod)
                    by_client = mj if by_client is None else by_client + mj
                assert by_client == agg, f"trial {trial}: client sum != aggregate"
            stored[k] = (agg,)
        x_r = data_rng.integers(0, 2**input_bits, size=(n, ell))
        truth += x_r.sum(axis=0)
        # flooding: one rounded Gaussian per client, of width sigma_n * ||w||_2
        g = rp.zero()
        for _ in range(n):
            g = g + ring.sample_flood(noise_rng, sigma_n * math.sqrt(r - 1), rp)
        reveal_agg = crypto.encrypt(
            basis, s, ring.encode(x_r.sum(axis=0), 1, slot, rp), 0.0, trial_rng, flood=0.0
        )[0] + g.scalar(t_mod)
        opened = crypto.open(stored, [reveal_agg], weights, ell, 1, slot)
        if any(int(a) != int(b) % t_mod for a, b in zip(opened, truth)):
            wraps += 1
    elapsed = time.monotonic() - t0
    assert wraps == 0
    print(f"\n[PASS] criterion 8: 1000/1000 opens exact, zero wraparounds ({elapsed:.0f}s)")


def test_criterion_9_committee_bound():
    n = r = 100
    gamma, delta = 0.2, 2.0**-20
    d = params.committee_sizes(n, r, gamma, delta)
    assert d == 30
    failures = params.simulate_honest_links(n, d, gamma, cohorts=10**4, seed=99)
    assert failures == 0
    print(f"\n[PASS] criterion 9: d={d}, 0 honest-link failures in 10^4 cohorts")
