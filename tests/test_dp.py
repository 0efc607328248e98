import numpy as np
import pytest

from stateful_agg import dp, ideal
from stateful_agg import program as prog
from stateful_agg.ring import gaussian_ints

from helpers import run_rng

T = 2**30


def _centered(v):
    v = int(v)
    return v - T if v > T // 2 else v


def _reveal_stream(p, data, n, noise_seed, gamma=0.0):
    res = ideal.run_ideal(p, data, T, n=n, noise_seed=noise_seed, gamma=gamma)
    return [_centered(v[0]) for _, v in res.reveals]


# ---------------------------------------------------------------------------
# Noise splitting
# ---------------------------------------------------------------------------


def test_per_client_std_formula():
    assert dp.per_client_std(100.0, 25, 0.0) == pytest.approx(2.0)
    assert dp.per_client_std(90.0, 10, 0.1) == pytest.approx(np.sqrt(10.0))
    with pytest.raises(ValueError):
        dp.per_client_std(1.0, 10, 1.0)


def test_honest_sum_variance_hits_target():
    # Honest clients alone reach the target variance within 5%.
    target_var, n, gamma = 64.0, 10, 0.2
    honest = n - int(gamma * n)
    std = dp.per_client_std(target_var, n, gamma)
    rng = run_rng("splitvar")
    draws = gaussian_ints(rng, std, honest * 100000).reshape(100000, honest)
    total = draws.sum(axis=1)
    assert abs(total.var() - target_var) / target_var < 0.05


# ---------------------------------------------------------------------------
# Baseline
# ---------------------------------------------------------------------------


def test_baseline_zero_noise_reveals_cohort_sums():
    p = dp.baseline_program(3, 0.0, ell=2)
    assert p.r == 3 and all(i.mode == prog.REVEAL for i in p.rounds)
    data = run_rng("base0").integers(0, 100, size=(3, 4, 2)).astype(object)
    res = ideal.run_ideal(p, data, T, n=4)
    for i, (rnd, vec) in enumerate(res.reveals, start=1):
        assert rnd == i
        assert [int(v) for v in vec] == [int(v) for v in data[i - 1].sum(axis=0)]


def test_baseline_single_round():
    p = dp.baseline_program(1, 0.0)
    assert p.r == 1


def test_baseline_prefix_variance_grows_linearly():
    # Prefix j accumulates j independent release noises: var ~ j * sigma^2.
    sigma, n, trials, r = 8.0, 4, 4000, 3
    p = dp.baseline_program(r, sigma, ell=1)
    prefixes = np.zeros((trials, r))
    for trial in range(trials):
        stream = _reveal_stream(p, None, n, noise_seed=trial)
        prefixes[trial] = np.cumsum(stream)
    for j in range(1, r + 1):
        var = prefixes[:, j - 1].var()
        assert abs(var - j * sigma**2) < 0.15 * j * sigma**2


# ---------------------------------------------------------------------------
# Prefix tree
# ---------------------------------------------------------------------------


def test_tree_program_shape():
    p = dp.tree_program(3, 1.0)
    assert p.r == 2**4
    assert all(p.rounds[i].mode == prog.STORE for i in range(0, 16, 2))
    assert all(p.rounds[i].mode == prog.REVEAL for i in range(1, 16, 2))


def test_tree_weight_indices_round8():
    # Data round i=4 releases with +1 on its own noise node (7) and -1 on
    # the two nodes it replaces (5 and 3).
    p = dp.tree_program(3, 1.0)
    assert dict(p.rounds[7].weights) == {7: 1, 5: -1, 3: -1}
    assert dict(p.rounds[1].weights) == {1: 1}
    assert dict(p.rounds[3].weights) == {3: 1, 1: -1}


def test_tree_prefixes_exact_with_zero_noise():
    # Cohort sums 1, 2, 3, 4 produce running outputs 1, 3, 6, 10.
    p = dp.tree_program(2, 0.0)
    data = np.zeros((8, 1, 1), dtype=object)
    for i in range(1, 5):
        data[2 * i - 1, 0, 0] = i
    stream = _reveal_stream(p, data, 1, noise_seed=0)
    assert list(np.cumsum(stream)) == [1, 3, 6, 10]


@pytest.mark.parametrize("h", [0, 1, 2, 3, 4])
def test_tree_prefixes_exact_all_heights(h):
    p = dp.tree_program(h, 0.0, ell=2)
    n = 3
    rng = run_rng("treeh", h)
    data = np.zeros((p.r, n, 2), dtype=object)
    for i in range(1, 2**h + 1):
        data[2 * i - 1] = rng.integers(0, 50, size=(n, 2)).astype(object)
    res = ideal.run_ideal(p, data, T, n=n)
    run = np.zeros(2, dtype=object)
    for i, (rnd, vec) in enumerate(res.reveals, start=1):
        run = run + np.array([_centered(v) for v in vec], dtype=object)
        want = data[1 : 2 * i : 2].sum(axis=(0, 1))
        assert [int(v) for v in run] == [int(v) for v in want]


def test_tree_noise_variance_bound():
    # Every prefix output touches at most h+1 noise nodes.
    h, sigma, trials, n = 2, 10.0, 2000, 4
    p = dp.tree_program(h, sigma, ell=1)
    outs = np.zeros((trials, 2**h))
    for trial in range(trials):
        outs[trial] = np.cumsum(_reveal_stream(p, None, n, noise_seed=trial))
    bound = (h + 1) * sigma**2 * (1 + 3 / np.sqrt(trials))
    for j in range(2**h):
        assert outs[:, j].var() <= bound


# ---------------------------------------------------------------------------
# Banded matrices and discretization
# ---------------------------------------------------------------------------


def test_discretize_identity_on_discrete():
    c = dp.random_banded(6, 3, 8, run_rng("disc"))
    again = dp.discretize_c(c.real(), 8, band=c.band)
    assert np.array_equal(c.scaled, again.scaled)


def test_discretize_never_grows_frobenius():
    rng = run_rng("frob")
    for _ in range(100):
        r, b = int(rng.integers(2, 10)), int(rng.integers(1, 5))
        c = np.zeros((r, r))
        for i in range(r):
            for j in range(max(0, i - b + 1), i + 1):
                c[i, j] = rng.uniform(0.05, 1.0)
        c /= np.linalg.norm(c)
        disc = dp.discretize_c(c, 12, band=b)
        assert np.linalg.norm(disc.real()) <= np.linalg.norm(c) + 1e-12


def test_discretize_entrywise_error():
    rng = run_rng("entry")
    c = np.tril(rng.uniform(0.1, 1.0, size=(5, 5)))
    disc = dp.discretize_c(c, 10)
    assert np.max(np.abs(disc.real() - c)) <= 2**-10


def test_banded_validation():
    with pytest.raises(ValueError, match="diagonal"):
        dp.BandedMatrix(np.int64([[0, 0], [1, 4]]), band=2, precision_bits=2)
    with pytest.raises(ValueError, match="band"):
        dp.BandedMatrix(np.int64([[4, 0, 0], [1, 4, 0], [1, 1, 4]]), band=2, precision_bits=2)
    with pytest.raises(ValueError, match="triangular"):
        dp.BandedMatrix(np.int64([[4, 1], [0, 4]]), band=2, precision_bits=2)


def test_banded_csv_roundtrip(tmp_path):
    c = dp.random_banded(7, 3, 12, run_rng("csv"))
    path = tmp_path / "c.csv"
    dp.save_banded(c, path)
    c2 = dp.load_banded(path)
    assert np.array_equal(c.scaled, c2.scaled)
    assert (c.band, c.precision_bits) == (c2.band, c2.precision_bits)


def test_random_banded_properties():
    rng = run_rng("rb")
    for _ in range(20):
        c = dp.random_banded(int(rng.integers(2, 12)), int(rng.integers(1, 5)), 12, rng)
        assert np.linalg.norm(c.real()) <= 1.0 + 1e-12
        assert np.all(np.diag(c.scaled) != 0)


# ---------------------------------------------------------------------------
# Matrix-factorization program
# ---------------------------------------------------------------------------


def test_mf_identity_reveals_inputs():
    c = dp.BandedMatrix(np.int64([[1, 0, 0], [0, 1, 0], [0, 0, 1]]), band=1, precision_bits=0)
    p = dp.mf_program(c, 0.0, ell=1)
    data = np.zeros((6, 2, 1), dtype=object)
    for i, v in enumerate([5, 7, 9]):
        data[2 * i, 0, 0] = v
    stream = _reveal_stream(p, data, 2, noise_seed=0)
    assert stream == [5, 7, 9]


def test_mf_bidiagonal_half_subdiagonal():
    # C = [[1, 0], [1/2, 1]] at one fractional bit: release 2 is x2 + x1/2.
    scaled = np.int64([[2, 0, 0], [1, 2, 0], [0, 1, 2]])
    c = dp.BandedMatrix(scaled, band=2, precision_bits=1)
    p = dp.mf_program(c, 0.0, ell=1)
    data = np.zeros((6, 1, 1), dtype=object)
    data[0, 0, 0], data[2, 0, 0], data[4, 0, 0] = 8, 12, 20
    stream = _reveal_stream(p, data, 1, noise_seed=0)
    descaled = [v / 2 for v in stream]
    assert descaled == [8.0, 12 + 4.0, 20 + 6.0]


def test_mf_matches_matrix_times_stream_with_noise():
    # With seeded noise the releases are exactly scaled(C) X + eta.
    rng = run_rng("mfnoise")
    c = dp.random_banded(5, 3, 6, rng)
    sigma, n = 4.0, 3
    p = dp.mf_program(c, sigma, ell=1)
    data = np.zeros((10, n, 1), dtype=object)
    xs = []
    for i in range(5):
        data[2 * i] = rng.integers(0, 30, size=(n, 1)).astype(object)
        xs.append(int(data[2 * i].sum()))
    seed = 77
    stream = _reveal_stream(p, data, n, noise_seed=seed)
    inputs = ideal.materialize_inputs(p, data, n, noise_seed=seed)
    for i in range(5):
        eta_i = int(inputs[2 * i + 1].sum())  # the noise cohort's aggregate
        want = sum(int(c.scaled[i, k]) * xs[k] for k in range(5)) + eta_i
        assert stream[i] == want


# ---------------------------------------------------------------------------
# Streaming post-processing
# ---------------------------------------------------------------------------


def test_postprocess_identity_gives_prefix_sums():
    c = dp.BandedMatrix(np.int64(np.eye(4)), band=1, precision_bits=0)
    pp = dp.PostProcessor(c)
    outs = [pp.push([v])[0] for v in [1.0, 2.0, 3.0, 4.0]]
    assert outs == [1.0, 3.0, 6.0, 10.0]


def test_postprocess_matches_dense_oracle():
    rng = run_rng("stream")
    for _ in range(10):
        r, b = 5, int(rng.integers(1, 4))
        c = dp.random_banded(r, b, 12, rng)
        released = rng.normal(0, 100, size=(r, 3)) + rng.integers(-50, 50, size=(r, 3))
        pp = dp.PostProcessor(c)
        got = np.stack([pp.push(released[i]) for i in range(r)])
        want = dp.dense_postprocess(c, released)
        assert np.max(np.abs(got - want)) <= 1e-9 * max(1.0, np.max(np.abs(want)))


def test_postprocess_memory_bound():
    c = dp.random_banded(12, 4, 10, run_rng("mem"))
    pp = dp.PostProcessor(c)
    for i in range(12):
        pp.push([float(i)])
        assert pp.buffered_vectors <= c.band


def test_factor_b_exact_identity():
    # B C = A exactly in rational arithmetic for representable C.
    rng = run_rng("bc")
    for _ in range(5):
        c = dp.random_banded(int(rng.integers(2, 9)), int(rng.integers(1, 5)), 12, rng)
        b = dp.factor_b(c, exact=True)
        ce = c.exact()
        r = c.rows
        for i in range(r):
            for j in range(r):
                got = sum(b[i][k] * ce[k][j] for k in range(r))
                assert got == (1 if i >= j else 0)


def test_center_mod():
    assert list(dp.center_mod([0, 1, T - 1, T // 2], T)) == [0, 1, -1, T // 2]


def _headerless_matrix(tmp_path):
    path = tmp_path / "c.csv"
    path.write_text("2,1,4\n16\n16\n")
    return dp.load_banded(path)


def _overlong_stream():
    post = dp.PostProcessor(dp.random_banded(2, 2, 8, run_rng("overlong")))
    for _ in range(3):
        post.push(np.zeros(1))


@pytest.mark.parametrize("make, why", [
    (lambda tmp_path: dp.baseline_program(0, 1.0), "need at least one round"),
    (lambda tmp_path: dp.tree_program(-1, 1.0), "tree height must be >= 0"),
    (lambda tmp_path: dp.BandedMatrix(np.ones((2, 3), dtype=np.int64), 2, 4),
     "matrix must be square"),
    (_headerless_matrix, "missing banded-matrix header"),
    (lambda tmp_path: _overlong_stream(), "stream longer than the factor matrix"),
], ids=["baseline-r0", "tree-h-1", "non-square", "no-header", "overlong-stream"])
def test_malformed_dp_inputs_fail_closed(tmp_path, make, why):
    with pytest.raises(ValueError, match=why):
        make(tmp_path)
