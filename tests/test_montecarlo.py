import math
import tracemalloc

import numpy as np
import pytest
from scipy.special import betainc, logsumexp
from scipy.stats import kstest

from sphglass import montecarlo
from sphglass.geometry import ConstraintMatrix
from sphglass.mixture import InvalidField, MixtureSpec
from sphglass.montecarlo import (
    SAMPLE_BLOCK,
    _disorder_rep,
    draw_disorder,
    estimate_free_energy,
    hamiltonian_batch,
    overlap_log_volume,
    sample_constrained,
)

from conftest import hamiltonian, householder_constrained_samples, overlap_window_log_volume, xi_scalar

Q2 = ConstraintMatrix(np.array([[1.0, 0.5], [0.5, 1.0]]))
Q3 = ConstraintMatrix(np.array([[1.0, 0.5, -0.2], [0.5, 1.0, 0.3], [-0.2, 0.3, 1.0]]))
CONSTRAINTS = {1: ConstraintMatrix(np.array([[1.0]])), 2: Q2, 3: Q3}
BETAS = {2: [0.4, 0.3, 0.25], 4: [0.2, 0.1, 0.15]}


def sum_xi_cross(spec: MixtureSpec, r12: np.ndarray) -> float:
    """Sum over the entrywise kernel at a (generally non-symmetric) cross overlap."""
    n = spec.n
    return sum(xi_scalar(spec, j + 1, k + 1, float(r12[j, k])) for j in range(n) for k in range(n))


def empirical_cov(h1: np.ndarray, h2: np.ndarray) -> tuple[float, float]:
    prod = (h1 - h1.mean()) * (h2 - h2.mean())
    return float(prod.mean()), float(prod.std(ddof=1) / np.sqrt(prod.size))


def test_constraint_exactness(rng):
    sig = sample_constrained(Q2, 32, 8, seed=4)
    for block in sig:
        overlap = block @ block.T / 32
        assert np.max(np.abs(overlap - Q2.matrix)) <= 1e-10


@pytest.mark.parametrize("n, n_sites", [(n, n_sites) for n in (1, 2, 3) for n_sites in (4 * n, 13, 64)])
def test_sampler_matches_the_householder_judge(n, n_sites):
    # the Cholesky QR gives the same draws as the sign-fixed Householder QR,
    # down to rounding, from the smallest N the sampler takes
    got = sample_constrained(CONSTRAINTS[n], n_sites, 300, seed=n_sites)
    want = householder_constrained_samples(CONSTRAINTS[n], n_sites, 300, seed=n_sites)
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)


def test_batch_matches_single_config():
    spec = MixtureSpec(2, {2: [0.4, 0.3], 4: [0.2, 0.1]})
    disorder = draw_disorder(spec.degrees, 12, seed=8)
    sig = sample_constrained(Q2, 12, 5, seed=9)
    batch = hamiltonian_batch(sig, disorder, spec)
    singles = np.array([hamiltonian(block, disorder, spec) for block in sig])
    assert np.allclose(batch, singles, rtol=1e-12)


def assert_batch_matches_singles(sig, disorder, spec):
    batch = hamiltonian_batch(sig, disorder, spec)
    singles = np.array([hamiltonian(block, disorder, spec) for block in sig])
    np.testing.assert_allclose(batch, singles, rtol=1e-12, atol=1e-12 * np.abs(singles).max())
    return batch


@pytest.mark.parametrize("degrees", [(2,), (4,), (2, 4)])
@pytest.mark.parametrize("n_sites", [12, 13, 32])
@pytest.mark.parametrize("n", [1, 2, 3])
def test_batch_matches_single_config_grid(n, n_sites, degrees):
    spec = MixtureSpec(n, {p: BETAS[p][:n] for p in degrees})
    disorder = draw_disorder(spec.degrees, n_sites, seed=100 * n + n_sites)
    sig = sample_constrained(CONSTRAINTS[n], n_sites, 6, seed=n_sites)
    assert_batch_matches_singles(sig, disorder, spec)


@pytest.mark.parametrize("degrees", [(4,), (2, 4)])
@pytest.mark.parametrize("n_sites", [1, 2, 3, 5])
@pytest.mark.parametrize("n", [1, 2, 3])
def test_batch_matches_single_config_with_repeated_indices(n, n_sites, degrees):
    # at these sizes almost every quadruple repeats an index; the batch needs
    # no constraint manifold, so the spins are arbitrary
    spec = MixtureSpec(n, {p: BETAS[p][:n] for p in degrees})
    disorder = draw_disorder(spec.degrees, n_sites, seed=10 * n + n_sites)
    sig = np.random.default_rng(n_sites).standard_normal((7, n, n_sites))
    assert_batch_matches_singles(sig, disorder, spec)


@pytest.mark.parametrize("n_sites", [1, 2, 5, 9])
def test_quartic_form_stores_each_monomial_once(n_sites):
    form = draw_disorder([4], n_sites, seed=n_sites).tensors[4]
    c, d, order = montecarlo._pair_indices(n_sites)
    b, a = np.tril_indices(n_sites)
    assert form.shape == (c.size, c.size)
    rows, cols = np.nonzero(form)
    assert rows.size == math.comb(n_sites + 3, 4)
    assert np.all(b[rows] <= c[cols])
    # y[order] are the row pair products x_a x_b, in the order of b
    x = np.arange(1.0, n_sites + 1.0)
    assert np.array_equal((x[c] * x[d])[order], x[a] * x[b])
    # the column groups tile the columns, and each holds its columns' rows
    groups = montecarlo._column_groups(n_sites)
    assert [g[0] for g in groups[1:]] == [g[1] for g in groups[:-1]]
    assert (groups[0][0], groups[-1][1]) == (0, c.size)
    for c0, c1, r1 in groups:
        inside = (cols >= c0) & (cols < c1)
        assert np.all(rows[inside] < r1)


class _UnitNormals:
    """A generator whose every standard normal is 1, so a drawn coefficient is its own standard deviation."""

    def standard_normal(self, size):
        return np.ones(size)


@pytest.mark.parametrize("n_sites", [1, 2, 3, 4, 5, 6, 7])
def test_quartic_form_covariance_is_exact(monkeypatch, n_sites):
    # Cov(<T, x^4>, <T, y^4>) = sum Var(T_abcd) x_a x_b x_c x_d y_a y_b y_c y_d
    # over the independent coefficients, which must be (x . y)^4, the
    # covariance of a raw N^4 Gaussian tensor; no Monte Carlo
    monkeypatch.setattr(montecarlo, "stream", lambda seed, *key: _UnitNormals())
    variance = draw_disorder([4], n_sites, seed=0).tensors[4] ** 2
    b, a = np.tril_indices(n_sites)
    c, d = np.triu_indices(n_sites)
    vectors = np.random.default_rng(n_sites).standard_normal((4, n_sites))
    for x, y in [(vectors[0], vectors[1]), (vectors[2], vectors[3]), (vectors[0], vectors[0])]:
        rows, cols = x[a] * x[b] * y[a] * y[b], x[c] * x[d] * y[c] * y[d]
        assert rows @ variance @ cols == pytest.approx(float(x @ y) ** 4, rel=1e-12)


@pytest.mark.parametrize("n_sites", [33, montecarlo.MAX_SITES])
def test_grouped_quartic_contraction_at_large_sizes(n_sites):
    # the N^4 judge stops at N = 32; the dense bilinear form over every pair,
    # with no column groups, covers each group boundary up to the largest N
    betas = [0.2, 0.1]
    spec = MixtureSpec(2, {4: betas})
    disorder = draw_disorder([4], n_sites, seed=n_sites)
    sig = sample_constrained(Q2, n_sites, 5, seed=n_sites)
    b, a = np.tril_indices(n_sites)
    c, d = np.triu_indices(n_sites)
    want = np.zeros(len(sig))
    for j, beta in enumerate(betas):
        x = sig[:, j, :]
        y_rows, y = x[:, a] * x[:, b], x[:, c] * x[:, d]
        want += beta * n_sites**-1.5 * np.einsum("si,si->s", y_rows @ disorder.tensors[4], y)
    got = hamiltonian_batch(sig, disorder, spec)
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12 * np.abs(want).max())


def test_quartic_form_memory_is_bounded():
    # at the mc-estimate workload's size the form is 2.2 MB; four live
    # (a, b, c, d) quadruple arrays would add 1.7 MB, and a raw N^4 draw 8 MB;
    # the layout is built cold, whatever sizes ran before
    montecarlo._quartic_layout.cache_clear()
    tracemalloc.start()
    try:
        draw_disorder([4], 32, seed=2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 5e6


@pytest.mark.parametrize("n_sites", [12, 13, 32])
def test_batch_skips_silent_copy(n_sites):
    # copy 0 has beta = 0 at every degree: its spins must not enter H
    spec = MixtureSpec(3, {2: [0.0, 0.3, 0.25], 4: [0.0, 0.1, 0.15]})
    disorder = draw_disorder(spec.degrees, n_sites, seed=7)
    sig = sample_constrained(Q3, n_sites, 6, seed=8)
    batch = assert_batch_matches_singles(sig, disorder, spec)
    sig[:, 0, :] = 1e3
    assert np.array_equal(hamiltonian_batch(sig, disorder, spec), batch)


@pytest.mark.parametrize("count", [1, SAMPLE_BLOCK - 1, SAMPLE_BLOCK + 1])
def test_blocked_batch_matches_single_configs_with_field(count):
    # one sample, one short of a block and one past it; p = 2 and p = 4 on
    # every copy, and a field, through the replicate task itself
    spec = MixtureSpec(2, {2: [0.3, 0.2], 4: [0.1, 0.15]})
    h = np.array([0.3, -0.2])
    n_sites, seed, rep = 13, 29, 1
    disorder_seed, config_seed = (
        int(np.random.SeedSequence(seed, spawn_key=(rep, k)).generate_state(1)[0]) for k in (0, 1)
    )
    disorder = draw_disorder(spec.degrees, n_sites, disorder_seed)
    sig = sample_constrained(Q2, n_sites, count, config_seed)
    assert_batch_matches_singles(sig, disorder, spec)
    energies = [hamiltonian(b, disorder, spec) + float(h @ b.sum(axis=1)) for b in sig]
    got = _disorder_rep((Q2.matrix, n_sites, spec, h, count, seed, rep))
    assert got == pytest.approx(logsumexp(energies) - np.log(count), rel=0, abs=1e-12)


def test_disorder_replicate_memory_is_bounded():
    # one replicate at the mc-estimate workload's size; holding the pair
    # products of all 2000 samples at once peaks at about 43 MB
    spec = MixtureSpec(2, {2: [0.3, 0.3], 4: [0.1, 0.1]})
    args = (Q2.matrix, 32, spec, np.zeros(2), 2000, 1, 0)
    montecarlo._quartic_layout.cache_clear()
    tracemalloc.start()
    try:
        value = _disorder_rep(args)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.isfinite(value)
    assert peak <= 20e6


def test_batch_rejects_mismatched_input():
    spec = MixtureSpec(2, {2: [0.4, 0.3], 4: [0.2, 0.1]})
    disorder = draw_disorder(spec.degrees, 12, seed=8)
    sig = sample_constrained(Q2, 12, 3, seed=9)
    wrong_sites = sample_constrained(Q2, 13, 3, seed=9)
    for bad in (sig[:, :1, :], wrong_sites, sig[0]):
        with pytest.raises(ValueError, match=r"sigmas must have shape \(S, n, N\) = \(S, 2, 12\)"):
            hamiltonian_batch(bad, disorder, spec)
    with pytest.raises(ValueError, match="sigma must have shape"):
        hamiltonian(sig[0, :1], disorder, spec)
    only_p2 = draw_disorder([2], 12, seed=8)
    for energy, spins in ((hamiltonian_batch, sig), (hamiltonian, sig[0])):
        with pytest.raises(ValueError, match="lacks the degree-4 tensor"):
            energy(spins, only_p2, spec)
    # a raw N^4 tensor, an N x N one or a short form in place of the (P, P)
    # quartic form, P = 78 at N = 12; and a p = 2 tensor of the wrong shape
    good = disorder.tensors
    for bad in (np.random.default_rng(0).standard_normal((12,) * 4), good[2], good[4][:, :-1]):
        malformed = montecarlo.DisorderRealization(12, {2: good[2], 4: bad}, seed=8)
        with pytest.raises(ValueError, match=r"degree-4 disorder must have shape \(78, 78\)"):
            hamiltonian_batch(sig, malformed, spec)
    malformed = montecarlo.DisorderRealization(12, {2: good[4], 4: good[4]}, seed=8)
    with pytest.raises(ValueError, match=r"degree-2 disorder must have shape \(12, 12\)"):
        hamiltonian_batch(sig, malformed, spec)


def test_degree_two_draw_keeps_its_bits_beside_degree_four():
    # the p = 2 tensor is drawn first, so adding p = 4 leaves its stream alone
    for n_sites, seed in ((8, 1), (32, 5)):
        both = draw_disorder([4, 2], n_sites, seed=seed).tensors
        assert np.array_equal(both[2], draw_disorder([2], n_sites, seed=seed).tensors[2])


def test_covariance_fidelity_two_spin():
    # empirical Cov(H(s1), H(s2)) vs N * Sum(xi(R12)) within 5 sample stderr
    rng = np.random.default_rng(11)
    n_sites, draws = 24, 2000
    spec = MixtureSpec(2, {2: [0.4, 0.3]})
    pairs = sample_constrained(Q2, n_sites, 10, seed=14)
    for pair_idx in range(5):
        s1, s2 = pairs[2 * pair_idx], pairs[2 * pair_idx + 1]
        h1 = np.empty(draws)
        h2 = np.empty(draws)
        for d in range(draws):
            g = rng.standard_normal((n_sites, n_sites))
            q1 = np.einsum("ij,i,j->", g, s1[0], s1[0]), np.einsum("ij,i,j->", g, s1[1], s1[1])
            q2 = np.einsum("ij,i,j->", g, s2[0], s2[0]), np.einsum("ij,i,j->", g, s2[1], s2[1])
            scale = n_sites ** -0.5
            h1[d] = scale * (0.4 * q1[0] + 0.3 * q1[1])
            h2[d] = scale * (0.4 * q2[0] + 0.3 * q2[1])
        emp, se = empirical_cov(h1, h2)
        target = n_sites * sum_xi_cross(spec, s1 @ s2.T / n_sites)
        assert abs(emp - target) <= 5 * se


def test_covariance_fidelity_four_spin():
    rng = np.random.default_rng(12)
    n_sites, draws = 10, 1500
    spec = MixtureSpec(1, {4: [0.3]})
    # a pair at overlap 0.8: the target N 0.09 r12^4 = 0.369 lies about 14
    # sample stderr from zero (two independent spins meet near 0, at 5e-10)
    q = ConstraintMatrix(np.array([[1.0, 0.8], [0.8, 1.0]]))
    s1, s2 = sample_constrained(q, n_sites, 1, seed=15)[0]
    h1 = np.empty(draws)
    h2 = np.empty(draws)
    scale = n_sites ** -1.5
    for d in range(draws):
        g = rng.standard_normal((n_sites,) * 4)
        t1 = np.einsum("ijkl,i,j,k,l->", g, s1, s1, s1, s1)
        t2 = np.einsum("ijkl,i,j,k,l->", g, s2, s2, s2, s2)
        h1[d] = 0.3 * scale * t1
        h2[d] = 0.3 * scale * t2
    emp, se = empirical_cov(h1, h2)
    r12 = float(s1 @ s2 / n_sites)
    target = n_sites * 0.09 * r12**4
    assert abs(emp - target) <= 5 * se


def test_covariance_fidelity_four_spin_of_the_drawn_form():
    # through draw_disorder and hamiltonian_batch, on two spins at overlap
    # 0.8: Var H = N xi(1) and Cov(H(s1), H(s2)) = N xi(0.8), each within 5
    # sample stderr
    n_sites, draws = 10, 1500
    spec = MixtureSpec(1, {4: [0.3]})
    q = ConstraintMatrix(np.array([[1.0, 0.8], [0.8, 1.0]]))
    pair = sample_constrained(q, n_sites, 1, seed=15)[0][:, None, :]
    energies = np.array([hamiltonian_batch(pair, draw_disorder([4], n_sites, seed=d), spec) for d in range(draws)])
    h1, h2 = energies.T
    for u, v, overlap in ((h1, h2, 0.8), (h1, h1, 1.0), (h2, h2, 1.0)):
        emp, se = empirical_cov(u, v)
        assert abs(emp - n_sites * 0.09 * overlap**4) <= 5 * se


def test_variance_matches_kernel_diagonal():
    # Var H = N * xi(1) for one copy (raw tensors reproduce the covariance)
    rng = np.random.default_rng(13)
    n_sites, draws = 20, 4000
    beta = 0.5
    sig = sample_constrained(ConstraintMatrix(np.array([[1.0]])), n_sites, 1, seed=3)[0][0]
    vals = np.empty(draws)
    for d in range(draws):
        g = rng.standard_normal((n_sites, n_sites))
        vals[d] = beta * n_sites**-0.5 * np.einsum("ij,i,j->", g, sig, sig)
    target = n_sites * beta**2
    se = float(np.std(vals**2, ddof=1) / np.sqrt(draws))
    assert abs(np.var(vals, ddof=1) - target) <= 5 * se


def test_sphere_projection_kolmogorov_smirnov():
    # one copy: projections have the exact sphere-overlap law
    n_sites = 24
    sig = sample_constrained(ConstraintMatrix(np.array([[1.0]])), n_sites, 10_000, seed=21)
    t = sig[:, 0, 0] / np.sqrt(n_sites)

    def cdf(x):
        x = np.clip(x, -1.0, 1.0)
        return 0.5 * (1.0 + np.sign(x) * betainc(0.5, (n_sites - 1) / 2.0, x**2))

    result = kstest(t, cdf)
    assert result.pvalue > 0.01


def test_rotation_invariance_low_moments(rng):
    n_sites = 16
    sig = sample_constrained(Q2, n_sites, 4000, seed=22)
    gauss = rng.standard_normal((n_sites, n_sites))
    rot, _ = np.linalg.qr(gauss)
    rotated = sig @ rot.T
    for moment in (1, 2):
        m_orig = np.mean(sig**moment, axis=0)
        m_rot = np.mean(rotated**moment, axis=0)
        assert np.abs(m_orig.mean() - m_rot.mean()) < 0.05
    # overlap structure is rotation invariant exactly
    assert np.allclose(rotated[0] @ rotated[0].T / n_sites, Q2.matrix, atol=1e-9)


def test_estimator_beta_zero_exact():
    result = estimate_free_energy(Q2, 32, 0.01, MixtureSpec.zero(2), np.zeros(2), 6, 40, seed=5)
    assert result.value - overlap_log_volume(Q2) == pytest.approx(0.0, abs=1e-12)
    assert result.stderr == pytest.approx(0.0, abs=1e-12)
    assert result.analytic_reference == pytest.approx(overlap_log_volume(Q2), abs=0)


def test_estimator_seed_determinism_and_worker_invariance():
    spec = MixtureSpec(1, {2: [0.3]})
    q1 = ConstraintMatrix(np.array([[1.0]]))
    a = estimate_free_energy(q1, 16, 0.01, spec, np.zeros(1), 6, 100, seed=77, workers=1)
    b = estimate_free_energy(q1, 16, 0.01, spec, np.zeros(1), 6, 100, seed=77, workers=1)
    assert a.value == b.value and a.stderr == b.stderr
    c = estimate_free_energy(q1, 16, 0.01, spec, np.zeros(1), 6, 100, seed=77, workers=2)
    assert a.value == c.value and a.stderr == c.stderr


def test_estimator_with_field_runs(rng):
    spec = MixtureSpec(1, {2: [0.2]})
    q1 = ConstraintMatrix(np.array([[1.0]]))
    res = estimate_free_energy(q1, 16, 0.01, spec, np.array([0.3]), 5, 200, seed=6)
    assert np.isfinite(res.value)
    assert res.analytic_reference is None


def test_estimator_matches_plain_loop_with_field():
    # same seed streams as the estimator, single-configuration H plus an explicit field
    spec = MixtureSpec(2, {2: [0.3, 0.2], 4: [0.1, 0.15]})
    h = np.array([0.3, -0.2])
    n_sites, reps, samples, seed = 13, 3, 40, 41
    res = estimate_free_energy(Q2, n_sites, 0.01, spec, h, reps, samples, seed=seed)
    values = []
    for rep in range(reps):
        disorder_seed, config_seed = (
            int(np.random.SeedSequence(seed, spawn_key=(rep, k)).generate_state(1)[0]) for k in (0, 1)
        )
        disorder = draw_disorder(spec.degrees, n_sites, disorder_seed)
        sigmas = sample_constrained(Q2, n_sites, samples, config_seed)
        energies = [hamiltonian(b, disorder, spec) + float(h @ b.sum(axis=1)) for b in sigmas]
        values.append((logsumexp(energies) - np.log(samples)) / n_sites + overlap_log_volume(Q2))
    assert res.value == pytest.approx(np.mean(values), rel=0, abs=1e-12)
    assert res.stderr == pytest.approx(np.std(values, ddof=1) / np.sqrt(reps), rel=0, abs=1e-12)


def test_workload_size_estimate_keeps_its_digits():
    # the mc-estimate benchmark workload at seed 1; the values were measured
    # with the Householder sampler and samples-first pair products, so a
    # faster sampler or contraction may move only the last digits
    spec = MixtureSpec(2, {2: [0.3, 0.3], 4: [0.1, 0.1]})
    result = estimate_free_energy(Q2, 32, 0.01, spec, np.zeros(2), 4, 2000, seed=1)
    assert result.value == pytest.approx(-0.02189233920183299, rel=0, abs=1e-12)
    assert result.stderr == pytest.approx(0.009626329394184847, rel=0, abs=1e-12)


def test_one_disorder_replicate_reports_an_infinite_stderr():
    # one replicate says nothing about the spread over disorder
    spec = MixtureSpec(1, {2: [0.3]})
    q1 = ConstraintMatrix(np.array([[1.0]]))
    one = estimate_free_energy(q1, 8, 0.01, spec, np.zeros(1), 1, 50, seed=3)
    assert math.isfinite(one.value) and one.stderr == math.inf
    two = estimate_free_energy(q1, 8, 0.01, spec, np.zeros(1), 2, 50, seed=3)
    assert 0.0 < two.stderr < math.inf


def test_budget_guards():
    spec = MixtureSpec(1, {2: [0.3]})
    with pytest.raises(ValueError):
        draw_disorder([6], 16, seed=0)
    with pytest.raises(ValueError):
        draw_disorder([2], 100, seed=0)
    with pytest.raises(ValueError):
        sample_constrained(Q2, 4, 3, seed=0)  # N < 4n
    with pytest.raises(ValueError):
        estimate_free_energy(Q2, 16, 0.01, MixtureSpec.zero(2), np.zeros(2), 0, 10, seed=0)
    with pytest.raises(ValueError, match="epsilon must be positive"):
        estimate_free_energy(Q2, 16, 0.0, MixtureSpec.zero(2), np.zeros(2), 2, 10, seed=0)


@pytest.mark.parametrize(
    "budgets, field",
    [
        pytest.param({"n_sites": -5}, "N", id="-5-0.01-N"),
        pytest.param({"n_sites": 7}, "N", id="7-0.01-N"),
        pytest.param({"n_sites": 65}, "N", id="65-0.01-N"),
        pytest.param({"n_sites": 16.0}, "N", id="N-float"),
        pytest.param({"n_sites": True}, "N", id="N-bool"),
        pytest.param({"epsilon": 0.0}, "epsilon", id="16-0.0-epsilon"),
        pytest.param({"epsilon": -1.0}, "epsilon", id="16--1.0-epsilon"),
        pytest.param({"epsilon": float("inf")}, "epsilon", id="epsilon-infinite"),
        pytest.param({"epsilon": True}, "epsilon", id="epsilon-bool"),
        pytest.param({"epsilon": "0.01"}, "epsilon", id="epsilon-string"),
        pytest.param({"disorder_reps": 0}, "disorder_reps", id="disorder_reps-zero"),
        pytest.param({"disorder_reps": -3}, "disorder_reps", id="disorder_reps-negative"),
        pytest.param({"disorder_reps": 2.5}, "disorder_reps", id="disorder_reps-float"),
        pytest.param({"disorder_reps": True}, "disorder_reps", id="disorder_reps-bool"),
        pytest.param({"config_samples": 0}, "config_samples", id="config_samples-zero"),
        pytest.param({"config_samples": 10.0}, "config_samples", id="config_samples-float"),
        pytest.param({"config_samples": "10"}, "config_samples", id="config_samples-string"),
        pytest.param({"config_samples": False}, "config_samples", id="config_samples-bool"),
    ],
)
def test_bad_budget_is_refused_before_any_draw(monkeypatch, budgets, field):
    # the estimator names a bad budget on entry, before any replicate draws
    # (Q2 has n = 2, so 4n = 8)
    def no_draw(*args):
        raise AssertionError("drawn before the budgets were checked")

    monkeypatch.setattr(montecarlo, "draw_disorder", no_draw)
    monkeypatch.setattr(montecarlo, "sample_constrained", no_draw)
    args = {"n_sites": 16, "epsilon": 0.01, "disorder_reps": 2, "config_samples": 10, **budgets}
    spec = MixtureSpec(2, {2: [0.3, 0.2]})
    with pytest.raises(InvalidField, match=f"^{field} must be") as caught:
        estimate_free_energy(
            Q2, args["n_sites"], args["epsilon"], spec, np.zeros(2), args["disorder_reps"], args["config_samples"], 0
        )
    assert caught.value.field == field


def test_degenerate_constraint_is_refused_before_any_draw(monkeypatch):
    # Cholesky factors this Q, but the one degeneracy predicate calls it
    # singular: the estimator refuses it instead of sampling every replicate
    # to a -inf value with a nan stderr
    q = ConstraintMatrix(np.array([[1.0, 1.0 - 1e-13], [1.0 - 1e-13, 1.0]]))
    assert q.is_degenerate()
    np.linalg.cholesky(q.matrix)
    spec = MixtureSpec(2, {2: [0.3, 0.2]})

    def no_draw(*args):
        raise AssertionError("disorder drawn for a degenerate constraint")

    monkeypatch.setattr(montecarlo, "draw_disorder", no_draw)
    with pytest.raises(ValueError, match="positive definite for manifold sampling"):
        estimate_free_energy(q, 16, 0.01, spec, np.zeros(2), 3, 20, seed=0)
    with pytest.raises(ValueError, match="positive definite for manifold sampling"):
        sample_constrained(q, 16, 5, seed=0)


def test_direct_estimate_tracks_variational_value_two_copies():
    # headline check: the desk-scale estimator and the variational optimum
    # agree for a coupled pair at small coupling
    from sphglass.optimizer import PathSearchConfig, minimize_over_paths

    q = ConstraintMatrix(np.array([[1.0, 0.3], [0.3, 1.0]]))
    spec = MixtureSpec(2, {2: [0.2, 0.2]})
    opt = minimize_over_paths(
        q, np.zeros(2), spec, PathSearchConfig(max_levels=1, restarts=1, max_iterations=80), seed=2
    )
    est = estimate_free_energy(q, 48, 0.01, spec, np.zeros(2), 120, 2000, seed=33)
    assert abs(est.value - opt.best_value) <= 0.02 + 3 * est.stderr


def test_overlap_log_volume_identity_and_pair():
    assert overlap_log_volume(np.eye(3)) == 0.0
    assert overlap_log_volume(Q2) == pytest.approx(0.5 * np.log(0.75), rel=1e-14)
    assert overlap_log_volume(np.array([[1.0, 1.0], [1.0, 1.0]])) == -np.inf


@pytest.mark.parametrize("n", range(4, 13))
def test_overlap_log_volume_equicorrelated(n):
    rho = 0.9
    q = (1.0 - rho) * np.eye(n) + rho * np.ones((n, n))
    half_log_det = 0.5 * (np.log1p((n - 1) * rho) + (n - 1) * np.log(1.0 - rho))
    assert overlap_log_volume(q) == pytest.approx(half_log_det, rel=1e-12)
    assert overlap_log_volume(ConstraintMatrix(q)) == pytest.approx(
        0.5 * np.sum(np.log(np.linalg.eigvalsh(q))), rel=1e-12
    )
    assert overlap_log_volume(np.ones((n, n))) == -np.inf


def test_overlap_window_quadrature_matches_asymptote():
    target = 0.5 * np.log(0.75)
    got = overlap_window_log_volume(0.5, 2000, 0.003)
    assert got == pytest.approx(target, abs=2e-3)
    # a much larger window is dominated by its inner edge and drifts upward
    wide = overlap_window_log_volume(0.5, 2000, 0.05)
    assert wide > target + 5e-3
