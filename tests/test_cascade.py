import tracemalloc

import numpy as np
import pytest
from scipy.special import logsumexp

from sphglass.cascade import (
    LEAF_BLOCK,
    CascadeSpec,
    cascade_free_energy_mc,
    nested_recursion_mc,
    sample_finite_cascade,
    theta_cascade_value,
    _gaussian_factor,
    _weighted_logsumexp,
)
from sphglass.functional import InvalidPath, closed_form_Y0, logdet_pd, solve_pd, theta_term
from sphglass.geometry import DiscretePath
from sphglass.mixture import MixtureSpec
from sphglass.parallel import stream

from conftest import random_constraint, random_mixture, random_multiplier, random_path


def scalar_path(x0: float = 0.9) -> DiscretePath:
    return DiscretePath(xs=[0.0, x0, 1.0], qs=[[[0.0]], [[1.0]]])


def test_nested_mc_zero_mixture_exact(rng):
    q = random_constraint(rng, 2)
    path = DiscretePath.simple(q.matrix, 0.5)
    spec = MixtureSpec.zero(2)
    lam = random_multiplier(rng, path, spec)
    h = np.array([0.4, -0.2])
    cs = CascadeSpec(path=path, spec=spec, lam=lam, h=h)
    res = nested_recursion_mc(cs, [64], seed=1)
    expected = -0.5 * logdet_pd(lam) + 0.5 * float(h @ np.linalg.solve(lam, h))
    assert res.estimate == pytest.approx(expected, rel=1e-13)
    assert res.stderr == 0.0


def test_nested_mc_single_level_closed_form():
    spec = MixtureSpec(1, {2: [0.3]})
    path = scalar_path(0.9)
    lam = np.array([[1.18]])
    cs = CascadeSpec(path=path, spec=spec, lam=lam, h=np.zeros(1))
    res = nested_recursion_mc(cs, [200_000], seed=7)
    target = closed_form_Y0(lam, path, np.zeros(1), spec)
    assert abs(res.estimate - target) <= 3 * res.stderr
    assert res.stderr < 5e-3


def test_nested_mc_two_levels_closed_form(rng):
    q = random_constraint(rng, 2)
    path = random_path(rng, q.matrix, 2)
    spec = random_mixture(rng, 2, scale=0.4)
    lam = random_multiplier(rng, path, spec, margin=0.6)
    h = rng.uniform(-0.3, 0.3, size=2)
    cs = CascadeSpec(path=path, spec=spec, lam=lam, h=h)
    res = nested_recursion_mc(cs, [2000, 2000], seed=13)
    target = closed_form_Y0(lam, path, h, spec)
    assert abs(res.estimate - target) <= 3 * max(res.stderr, 1e-4)
    assert res.stderr < 5e-3


def test_nested_mc_three_levels(rng):
    q = random_constraint(rng, 2)
    path = random_path(rng, q.matrix, 3)
    spec = random_mixture(rng, 2, scale=0.35)
    lam = random_multiplier(rng, path, spec, margin=0.7)
    h = np.array([0.1, -0.2])
    cs = CascadeSpec(path=path, spec=spec, lam=lam, h=h)
    res = nested_recursion_mc(cs, [200, 150, 100], seed=3)
    target = closed_form_Y0(lam, path, h, spec)
    assert abs(res.estimate - target) <= 4 * res.stderr


def test_nested_mc_leaf_budget_guard(rng):
    q = random_constraint(rng, 2)
    path = random_path(rng, q.matrix, 3)
    spec = random_mixture(rng, 2)
    lam = random_multiplier(rng, path, spec)
    cs = CascadeSpec(path=path, spec=spec, lam=lam, h=np.zeros(2))
    with pytest.raises(ValueError, match="leaf limit"):
        nested_recursion_mc(cs, [400, 300, 200], seed=0)


def whole_array_nested_mc(cs: CascadeSpec, counts: tuple[int, ...], seed: int) -> tuple[float, float]:
    """Reference: every leaf held at once, each level drawn whole in C order."""
    path, n = cs.path, cs.path.n
    rng = stream(seed, 0)
    zsum = np.zeros(n)
    for k in range(1, path.r + 1):
        z = rng.standard_normal(counts[:k] + (n,)) @ _gaussian_factor(cs.increment_covariances[k - 1]).T
        zsum = zsum[..., None, :] + z
    w = zsum + cs.h
    quad = np.einsum("...i,ij,...j->...", w, solve_pd(cs.lam, np.eye(n)), w)
    y = -0.5 * logdet_pd(cs.lam) + 0.5 * quad
    for k in range(path.r - 1, 0, -1):
        x_k = path.xs[k + 1]
        y = (logsumexp(x_k * y, axis=-1) - np.log(counts[k])) / x_k
    x0 = path.xs[1]
    wts = np.exp(x0 * y - np.max(x0 * y))
    estimate = (np.max(x0 * y) + np.log(np.mean(wts))) / x0
    stderr = np.std(wts, ddof=1) / np.sqrt(counts[0]) / (x0 * np.mean(wts))
    return float(estimate), float(stderr)


# No leaf count divides LEAF_BLOCK, and for r >= 2 the last block of parents
# is ragged; (7, 70001) has leaf groups larger than one block.
PARITY_COUNTS = [(70001,), (257, 311), (7, 70001), (13, 90, 397)]


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("counts", PARITY_COUNTS)
def test_nested_mc_matches_whole_array_reference(rng, n, counts):
    rows = max(1, LEAF_BLOCK // counts[-1])
    assert LEAF_BLOCK % counts[-1] != 0
    assert rows == 1 or int(np.prod(counts[:-1])) % rows != 0
    q = random_constraint(rng, n)
    path = random_path(rng, q.matrix, len(counts))
    spec = random_mixture(rng, n, scale=0.4)
    lam = random_multiplier(rng, path, spec, margin=0.6)
    h = np.zeros(n) if n == 1 else rng.uniform(-0.3, 0.3, size=n)
    cs = CascadeSpec(path=path, spec=spec, lam=lam, h=h)
    res = nested_recursion_mc(cs, counts, seed=29)
    estimate, stderr = whole_array_nested_mc(cs, counts, seed=29)
    assert res.estimate == pytest.approx(estimate, rel=1e-12)
    assert res.stderr == pytest.approx(stderr, rel=1e-12)


def test_nested_mc_leaf_memory_is_bounded(rng):
    # 3M leaves at n=2: the whole-array algorithm peaks at about 340 MB of
    # numpy buffers; streaming the leaf level keeps a few LEAF_BLOCK arrays
    q = random_constraint(rng, 2)
    path = random_path(rng, q.matrix, 2)
    spec = random_mixture(rng, 2, scale=0.4)
    lam = random_multiplier(rng, path, spec, margin=0.6)
    cs = CascadeSpec(path=path, spec=spec, lam=lam, h=np.array([0.1, -0.2]))
    tracemalloc.start()
    try:
        res = nested_recursion_mc(cs, [1000, 3000], seed=5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.isfinite(res.estimate)
    assert peak < 16e6


def test_cascade_free_energy_worker_invariance():
    path = scalar_path(0.6)
    spec = MixtureSpec(1, {2: [0.3]})
    cs = CascadeSpec(path=path, spec=spec, lam=np.array([[1.3]]), h=np.zeros(1))
    a = cascade_free_energy_mc(300, cs, 8.0, 120, seed=9, workers=1)
    b = cascade_free_energy_mc(300, cs, 8.0, 120, seed=9, workers=3)
    assert a.estimate == b.estimate and a.stderr == b.stderr


def test_nested_mc_reproducible_bit_exact():
    spec = MixtureSpec(1, {2: [0.4]})
    path = scalar_path(0.7)
    lam = np.array([[1.5]])
    cs = CascadeSpec(path=path, spec=spec, lam=lam, h=np.zeros(1))
    a = nested_recursion_mc(cs, [5000], seed=123)
    b = nested_recursion_mc(cs, [5000], seed=123)
    assert a.estimate == b.estimate and a.stderr == b.stderr


def test_nested_mc_budget_validation(rng):
    q = random_constraint(rng, 2)
    path = random_path(rng, q.matrix, 2)
    spec = random_mixture(rng, 2)
    lam = random_multiplier(rng, path, spec)
    cs = CascadeSpec(path=path, spec=spec, lam=lam, h=np.zeros(2))
    with pytest.raises(ValueError):
        nested_recursion_mc(cs, [100], seed=0)  # wrong level count
    with pytest.raises(ValueError):
        nested_recursion_mc(cs, [0, 10], seed=0)


BAD_BREAKPOINTS = (
    [0.0, 0.7, 0.3, 1.0],  # decreasing
    [0.0, 0.5, 0.5, 1.0],  # repeated
    [0.1, 0.4, 0.8, 1.0],  # x_{-1} != 0
    [0.0, 0.4, 0.8, 0.9],  # x_r != 1
)


@pytest.mark.parametrize("xs", BAD_BREAKPOINTS)
def test_closed_forms_and_oracles_share_the_breakpoint_rule(xs):
    # theta_term, closed_form_Y0, CascadeSpec (hence nested_recursion_mc)
    # and theta_cascade_value all reject a path unless
    # 0 = x_{-1} < x_0 < ... < x_r = 1
    spec = MixtureSpec(1, {2: [0.5]})
    path = DiscretePath(xs=xs, qs=[[[0.0]], [[0.5]], [[1.0]]])
    lam = np.array([[3.0]])
    with pytest.raises(InvalidPath, match="breakpoints must satisfy"):
        theta_term(path, spec)
    with pytest.raises(InvalidPath, match="breakpoints must satisfy"):
        closed_form_Y0(lam, path, np.zeros(1), spec)
    with pytest.raises(ValueError, match="breakpoints must satisfy"):
        CascadeSpec(path=path, spec=spec, lam=lam, h=np.zeros(1))
    with pytest.raises(ValueError, match="breakpoints must satisfy"):
        theta_cascade_value(path, spec)


def test_theta_cascade_zero_mixture(rng):
    q = random_constraint(rng, 2)
    path = random_path(rng, q.matrix, 2)
    assert theta_cascade_value(path, MixtureSpec.zero(2)) == 0.0


def test_theta_cascade_single_increment():
    beta = 0.7
    spec = MixtureSpec(1, {2: [beta]})
    for x0 in (0.3, 0.9):
        assert theta_cascade_value(scalar_path(x0), spec) == pytest.approx(
            0.5 * x0 * beta**2, rel=1e-14
        )


def test_theta_cascade_equals_theta_term(rng):
    for _ in range(10):
        n = int(rng.integers(1, 4))
        q = random_constraint(rng, n)
        path = random_path(rng, q.matrix, int(rng.integers(1, 4)))
        spec = random_mixture(rng, n)
        tt = theta_term(path, spec)
        tc = theta_cascade_value(path, spec)
        assert tc == pytest.approx(tt, rel=1e-13, abs=1e-15)


def test_finite_cascade_weights_normalized_and_deterministic():
    path = scalar_path(0.5)
    a = sample_finite_cascade(path, 500, seed=3)
    b = sample_finite_cascade(path, 500, seed=3)
    assert np.array_equal(a.weights, b.weights)
    assert a.weights.sum() == pytest.approx(1.0, abs=1e-15)
    assert np.all(a.weights > 0)


def test_finite_cascade_rejects_small_k():
    with pytest.raises(ValueError):
        sample_finite_cascade(scalar_path(0.5), 50, seed=0)


def test_finite_cascade_second_moment_identity():
    # Poisson-Dirichlet: E sum v^2 = 1 - x_0
    path = scalar_path(0.5)
    second = [
        float(np.sum(sample_finite_cascade(path, 10_000, seed=1000 + rep).weights ** 2))
        for rep in range(200)
    ]
    assert np.mean(second) == pytest.approx(0.5, abs=0.02)


def test_finite_cascade_two_levels_structure():
    path = DiscretePath(xs=[0.0, 0.3, 0.7, 1.0], qs=[[[0.0]], [[0.5]], [[1.0]]])
    fc = sample_finite_cascade(path, 120, seed=5)
    assert fc.depth == 2 and fc.weights.size == 120**2
    assert fc.weights.sum() == pytest.approx(1.0, abs=1e-14)
    anc = fc.ancestor_index(1)
    assert anc[0] == 0 and anc[-1] == 119


def test_weighted_logsumexp_shift_correctness(rng):
    logw = np.log(rng.dirichlet(np.ones(1000)))
    values = rng.standard_normal(1000)
    base = _weighted_logsumexp(logw, values)
    for shift in (1e3, 1e6):
        shifted = _weighted_logsumexp(logw, values + shift)
        assert shifted - shift == pytest.approx(base, abs=1e-12 * max(1.0, shift / 1e3))


def test_cascade_free_energy_zero_mixture():
    path = scalar_path(0.5)
    spec = MixtureSpec.zero(1)
    cs = CascadeSpec(path=path, spec=spec, lam=np.array([[2.0]]), h=np.zeros(1))
    res = cascade_free_energy_mc(200, cs, m_effective=8.0, reps=100, seed=3)
    assert res.estimate == pytest.approx(0.0, abs=1e-15)
    assert res.stderr == pytest.approx(0.0, abs=1e-15)


def test_cascade_free_energy_near_rs_smoke():
    beta = 0.3
    spec = MixtureSpec(1, {2: [beta]})
    path = DiscretePath(xs=[0.0, 1.0 - 1e-6, 1.0], qs=[[[0.0]], [[1.0]]])
    target = theta_cascade_value(path, spec)
    cs = CascadeSpec(path=path, spec=spec, lam=np.array([[1 + 2 * beta**2]]), h=np.zeros(1))
    res = cascade_free_energy_mc(4000, cs, m_effective=16.0, reps=120, seed=21)
    assert abs(res.estimate - target) <= 0.15 * target


def test_cascade_free_energy_truncation_stability():
    # doubling K moves the estimate by less than its standard error
    beta = 0.3
    spec = MixtureSpec(1, {2: [beta]})
    path = DiscretePath(xs=[0.0, 1.0 - 1e-6, 1.0], qs=[[[0.0]], [[1.0]]])
    cs = CascadeSpec(path=path, spec=spec, lam=np.array([[1 + 2 * beta**2]]), h=np.zeros(1))
    small = cascade_free_energy_mc(5000, cs, 16.0, 300, seed=41)
    large = cascade_free_energy_mc(10000, cs, 16.0, 300, seed=41)
    assert abs(large.estimate - small.estimate) <= max(small.stderr, large.stderr)


def test_cascade_free_energy_validations():
    path = scalar_path(0.5)
    spec = MixtureSpec(1, {2: [0.3]})
    cs = CascadeSpec(path=path, spec=spec, lam=np.array([[1.5]]), h=np.zeros(1))
    with pytest.raises(ValueError):
        cascade_free_energy_mc(200, cs, m_effective=100.0, reps=100, seed=0)
    with pytest.raises(ValueError):
        cascade_free_energy_mc(200, cs, m_effective=8.0, reps=10, seed=0)
