import ast
import math
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest

import stateful_agg
from stateful_agg import dp, ideal, params, protocol, ring
from stateful_agg import program as prog
from stateful_agg.dp import tree_program

BENCHMARK_ROWS = [
    # n, l, N, logq, pf, client bytes, expansion
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


def test_max_logq_table():
    assert params.max_logq(2048) == 54
    assert params.max_logq(4096) == 109
    assert params.max_logq(8192) == 218
    assert params.max_logq(16384) == 438
    with pytest.raises(ValueError, match="no security entry"):
        params.max_logq(1024)


def test_max_logq_monotone():
    caps = [params.max_logq(n) for n in (2048, 4096, 8192, 16384)]
    assert caps == sorted(caps)


def test_table_rows_consistent_with_caps():
    for _n, _l, N, logq, _pf, _b, _e in BENCHMARK_ROWS:
        assert logq <= params.max_logq(N)


@pytest.mark.parametrize("row", BENCHMARK_ROWS)
def test_cost_model_reproduces_benchmark_rows(row):
    _n, ell, N, logq, pf, bytes_expect, exp_expect = row
    c = params.cost_model(N, logq, ell, pf)
    assert abs(c.client_server_bytes - bytes_expect) / bytes_expect < 0.005
    assert abs(c.expansion - exp_expect) < 0.02


def test_cost_model_c2c_bytes():
    # One piece per distinct receiver: a 128-bit seed, or a whole element.
    assert params.cost_model(2048, 44, 1000, 1).piece_bytes == 128 / 8
    c = params.cost_model(2048, 44, 1000, 1, seed_resharing=False)
    assert c.piece_bytes == 2048 * 44 / 8


def test_cost_model_zero_width_inputs_have_infinite_expansion():
    # Every run asks its parameter set for its cost; zero-width inputs have
    # no cleartext to compare against.
    c = params.cost_model(32, 27, 4, 1, input_bits=0)
    assert c.client_server_bytes == (4 + 32) * 27 / 8
    assert c.expansion == math.inf


def test_format_bytes():
    assert params.format_bytes(16764) == "16.76 KB"
    assert params.format_bytes(34795082) == "34.80 MB"
    assert params.format_bytes(12) == "12 B"


def test_sigma_schedule_formulas():
    s_s, s_n = params.sigma_schedule(1000)
    assert s_s == pytest.approx(math.sqrt(2) * 3.2, rel=1e-12)
    assert s_n == pytest.approx(2 * 3.2 * math.sqrt(1001), rel=1e-12)
    assert s_n == pytest.approx(202.4869, rel=1e-4)
    assert s_s == pytest.approx(4.5255, rel=1e-4)


def test_slot_width_headroom():
    assert params.slot_width_for(16, 1000) == 26
    assert params.slot_width_for(16, 1) == 16
    # noise margin: 12 sigma tail bits on top
    assert params.slot_width_for(16, 1000, dp_sigma=100.0) == 26 + math.ceil(math.log2(1200))


def test_noise_budget_trivial_program_ok():
    pset = params.make_paramset(
        n=10**3, r=1000, ell=10**3, input_bits=16, N=2048, logq=44, pf=1
    )
    report = params.noise_budget(pset)
    assert report.ok
    assert report.deficit_bits == 0.0
    assert report.required_bits < report.budget_bits
    assert report.worstcase_bits > report.required_bits


def test_noise_budget_tiny_modulus_deficit():
    pset = params.make_paramset(
        n=10**3, r=1000, ell=10**3, input_bits=16, N=2048, logq=20, pf=1
    )
    report = params.noise_budget(pset)
    assert not report.ok
    assert report.deficit_bits > 0
    # direct arithmetic: requirement is log2(T * (12 sigma_n sqrt(2n) + 1))
    want = math.log2(2**26 * (12 * pset.sigma_n * math.sqrt(2000) + 1))
    assert report.required_bits == pytest.approx(want, rel=1e-9)


def test_noise_budget_uses_program_stats():
    pset = params.make_paramset(
        n=10**3, r=1000, ell=10**3, input_bits=16, N=2048, logq=44, pf=1
    )
    heavy = params.noise_budget(pset, stats=(1000.0, 1000.0))
    light = params.noise_budget(pset, stats=(1.0, 1.0))
    assert heavy.required_bits > light.required_bits


def test_grid_search_recovers_first_row():
    ps = params.grid_search(10**3, 10**3, 1000, 16, dp_sigma=0.0)
    assert ps.N == 2048
    assert ps.pf == 1
    assert abs(ps.logq - 44) <= 3
    got = ps.cost().client_server_bytes
    assert abs(got - 16.76e3) / 16.76e3 < 0.10


def test_grid_search_packing_pays_off_for_long_vectors():
    ps = params.grid_search(10**5, 10**5, 1000, 16)
    assert ps.pf >= 2


def test_grid_search_scalar_input_no_packing():
    ps = params.grid_search(10**3, 1, 1000, 16)
    assert ps.pf == 1


def test_grid_search_satisfies_own_constraints():
    for n, ell in [(10**3, 10**3), (10**5, 10**5), (10**3, 10**7)]:
        ps = params.grid_search(n, ell, 1000, 16)
        assert ps.logq <= params.max_logq(ps.N)
        assert params.noise_budget(ps).ok
        assert 2 ** (ps.pf * ps.slot_width) == ps.T


def test_grid_search_infeasible():
    with pytest.raises(ValueError, match="no feasible"):
        params.grid_search(10**7, 10**3, 1000, 400)


def test_committee_sizes_examples():
    assert params.committee_sizes(1, 1, 0.0, 0.5) == 2
    # (ln(2e6) + 40 ln 2) / 0.9 = 46.93...
    assert params.committee_sizes(1000, 1000, 0.1, 2.0**-40) == 47
    with pytest.raises(ValueError):
        params.committee_sizes(10, 10, 1.0, 0.5)


@pytest.mark.parametrize("n, r, name", [(10, 0, "r=0"), (0, 10, "n=0")])
def test_committee_sizes_names_a_zero_count(n, r, name):
    with pytest.raises(ValueError, match=name):
        params.committee_sizes(n, r, 0.0, 0.5)


def test_committee_bound_arithmetic():
    n, r, gamma, delta = 100, 100, 0.2, 2.0**-20
    want = math.ceil((math.log(2 * n * r) + 20 * math.log(2)) / (1 - gamma))
    assert params.committee_sizes(n, r, gamma, delta) == want == 30


def test_simulated_honest_links_small():
    d = params.committee_sizes(50, 50, 0.2, 2.0**-10)
    assert params.simulate_honest_links(50, d, 0.2, 2000, seed=5) == 0


def test_simulated_honest_links_fail_when_d_tiny():
    # d=1 with a fifth of each cohort corrupt fails quickly.
    assert params.simulate_honest_links(50, 1, 0.2, 2000, seed=6) > 0


def test_make_paramset_derivations():
    ps = params.make_paramset(n=100, r=50, ell=64, input_bits=8, N=64, d=6)
    assert ps.T == 2 ** ps.slot_width
    assert ps.slot_width == 8 + 7
    assert ps.h == min(6, 100) and ps.t == 4
    assert ps.m == 1
    assert params.noise_budget(ps).ok
    rp = ps.ring()
    assert rp.q.bit_length() == ps.logq


def test_make_paramset_security_enforcement():
    with pytest.raises(ValueError, match="cap"):
        params.make_paramset(
            n=10, r=10, ell=10, input_bits=8, N=2048, logq=60, enforce_security=True
        )


def test_paramset_stats_from_program():
    p = tree_program(3, 1.0)
    stats = prog.reveal_stats(p)
    ps = params.make_paramset(n=10, r=p.r, ell=1, input_bits=8, N=16, d=3, stats=stats)
    assert params.noise_budget(ps, stats).ok


def test_grid_search_sizes_modulus_for_the_packed_slot_width():
    # A reveal's flattened weights sum to 56179 in absolute value, which
    # widens packed slots by 16 bits; the modulus has to be sized for the
    # plaintext modulus of the wider slots.
    p = dp.mf_program(dp.random_banded(4, 3, 16, np.random.default_rng(1)), 0.0, ell=4096)
    stats = prog.reveal_stats(p)
    ps = params.grid_search(4, p.ell, p.r, 8, stats=stats)
    assert params.noise_budget(ps, stats).ok
    data = np.random.default_rng(2).integers(0, 2**8, size=(p.r, 4, p.ell)).astype(object)
    res = protocol.run_protocol(p, ps, data_inputs=data, seed=3)
    inputs = ideal.materialize_inputs(p, data, 4, protocol.run_noise_seed(3), ps.gamma)
    want = ideal.evaluate_program(p, inputs, ps.T).reveals
    assert [i for i, _ in res.reveals] == [i for i, _ in want]
    for (_, got), (_, ref) in zip(res.reveals, want):
        assert [int(v) for v in got] == [int(v) for v in ref]


def _one_reveal(ell):
    return prog.Program(ell=ell, rounds=[prog.Instruction.make(prog.REVEAL, prog.InputRule.data())])


def test_make_paramset_steps_past_an_unbuildable_modulus():
    # The noise budget asks for logq=32 here, which no limb split realizes
    # at N=8192; the derived modulus steps up to the next one that builds.
    p = _one_reveal(8)
    stats = prog.reveal_stats(p)
    ps = params.make_paramset(n=4, r=1, ell=8, input_bits=16, N=8192, stats=stats)
    assert ps.logq == 33
    assert ps.ring().limbs == ring.choose_limbs(8192, 33)
    assert ps.ring().logq == ps.logq
    assert params.noise_budget(ps, stats).ok


def test_make_paramset_pinned_unbuildable_modulus_still_raises():
    ps = params.make_paramset(n=4, r=1, ell=8, input_bits=16, N=8192, logq=32)
    with pytest.raises(ValueError, match=r"logq=32 bits for N=8192"):
        ps.ring()


def test_grid_search_picks_a_modulus_that_builds():
    # Every pick over these shapes builds its ring and holds its own noise
    # budget; the smallest needs the 14-bit floor of a limb at N=2048.
    failures = []
    for n in (1, 2, 4, 10, 100, 1000):
        for ell in (1, 8, 64, 1000):
            for r in (1, 4, 64):
                for input_bits in (1, 2, 4, 8, 16):
                    ps = params.grid_search(n, ell, r, input_bits)
                    try:
                        built = ps.ring().logq == ps.logq
                    except ValueError:
                        built = False
                    if not (built and params.noise_budget(ps).ok):
                        failures.append((n, ell, r, input_bits, ps.N, ps.logq))
    assert failures == []
    ps = params.grid_search(1, 1, 1, 1)
    assert (ps.N, ps.logq) == (2048, 14)


def test_grid_search_never_packs_gaussian_inputs():
    # Long vectors pick pf >= 2 without noise; signed noise keeps pf=1.
    assert params.grid_search(10**3, 10**5, 1000, 16).pf >= 2
    for n, ell in ((10**3, 10**5), (4, 20000), (100, 1000)):
        ps = params.grid_search(n, ell, 1000, 16, dp_sigma=2.0)
        assert ps.pf == 1
        assert params.noise_budget(ps).ok


def test_make_paramset_refuses_packed_gaussian_sets():
    # Packed slots hold nonnegative values and Gaussian inputs are signed:
    # the set fails closed with the engine's wording, before any run.
    stats = prog.reveal_stats(tree_program(2, 2.0, ell=8))
    with pytest.raises(ValueError, match=r"packing \(pf=2\) needs nonnegative inputs.*pf=1"):
        params.make_paramset(
            n=4, r=8, ell=8, input_bits=8, N=32, pf=2, dp_sigma=2.0, stats=stats
        )
    assert params.make_paramset(n=4, r=8, ell=8, input_bits=8, N=32, dp_sigma=2.0).pf == 1


def test_grid_search_rejects_a_bad_gamma_by_name():
    with pytest.raises(ValueError, match=r"gamma must be in \[0, 1\)"):
        params.grid_search(10, 10, 10, 8, gamma=1.0)


def test_replace_rederives_plaintext_modulus_and_ring():
    ps = params.make_paramset(n=4, r=2, ell=8, input_bits=8, N=16)
    assert ps.ring().T == ps.T
    w = ps.slot_width + 3
    packed = replace(ps, pf=2, slot_width=w)
    assert packed.T == 2 ** (2 * w)
    assert packed.ring().T == packed.T and ps.ring().T == ps.T


def test_every_paramset_field_is_read():
    # A field no module reads is a knob a run silently ignores.
    read = set()
    for path in Path(stateful_agg.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                read.add(node.attr)
    unread = [f.name for f in fields(params.ParamSet) if f.init and f.name not in read]
    assert unread == []


@pytest.mark.parametrize("make, why", [
    (lambda: params.committee_sizes(8, 4, 0.0, 0.0), "delta must be in \\(0, 1\\)"),
    (lambda: params.committee_sizes(8, 4, 0.0, 1.0), "delta must be in \\(0, 1\\)"),
    (lambda: params.cost_model(2048, 34, 64, 0), "packing factor must be >= 1"),
], ids=["delta-0", "delta-1", "pf-below-1"])
def test_malformed_params_inputs_fail_closed(make, why):
    with pytest.raises(ValueError, match=why):
        make()
