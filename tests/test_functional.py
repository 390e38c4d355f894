import math

import numpy as np
import pytest

from sphglass import verify
from sphglass.functional import (
    MEMBERSHIP_MARGIN,
    InvalidPath,
    NotInL,
    _lapack,
    _PathContext,
    _sym_basis,
    closed_form_Y0,
    evaluate,
    logdet_pd,
    theta_term,
)
from sphglass.geometry import ConstraintMatrix, DiscretePath
from sphglass.mixture import MixtureSpec, delta_increments

from conftest import (
    random_constraint,
    random_mixture,
    random_multiplier,
    random_path,
    refine_path,
    scalar_functional_value,
)


def scalar_path(x0: float = 0.5) -> DiscretePath:
    return DiscretePath(xs=[0.0, x0, 1.0], qs=[[[0.0]], [[1.0]]])


def test_lambda_chain_scalar():
    spec = MixtureSpec(1, {2: [1.0]})
    ctx = _PathContext.of(scalar_path(0.5), np.array([[1.0]]), np.zeros(1), spec)
    lam = np.array([[3.0]])
    assert (lam - ctx.tails)[0][0, 0] == pytest.approx(2.0, abs=0)
    assert ctx.feasible_value(lam) is not None


def test_lambda_chain_zero_mixture_is_constant(rng):
    q = random_constraint(rng, 3)
    path = random_path(rng, q.matrix, 3)
    lam = random_multiplier(rng, path, MixtureSpec.zero(3))
    chain = lam - _PathContext.of(path, q, np.zeros(3), MixtureSpec.zero(3)).tails
    for k in range(path.r + 1):
        assert np.array_equal(chain[k], lam)


def test_lambda_chain_forward_reconstruction(rng):
    # rebuild Lambda from Lambda_0 + sum x_k Delta_{k+1}
    for _ in range(5):
        q = random_constraint(rng, 2)
        path = random_path(rng, q.matrix, 2)
        spec = random_mixture(rng, 2)
        lam = random_multiplier(rng, path, spec)
        chain = lam - _PathContext.of(path, q, np.zeros(2), spec).tails
        deltas = delta_increments(spec, path)
        rebuilt = chain[0] + sum(path.xs[k + 1] * deltas[k] for k in range(path.r))
        assert np.allclose(rebuilt, lam, atol=1e-14 * max(1.0, np.abs(lam).max()))


def test_evaluate_zero_mixture_logdet():
    q = ConstraintMatrix(np.array([[1.0, 0.5], [0.5, 1.0]]))
    path = DiscretePath.simple(q.matrix, 0.5)
    breakdown = evaluate(np.linalg.inv(q.matrix), path, q, np.zeros(2), MixtureSpec.zero(2))
    assert breakdown.total == pytest.approx(0.5 * math.log(0.75), abs=1e-14)
    assert breakdown.total == pytest.approx(-0.143841, abs=5e-7)


def test_evaluate_matches_scalar_brute_force():
    spec = MixtureSpec(1, {2: [0.3]})
    path = scalar_path(0.999)
    lam = 1.0 + 2 * 0.3**2
    got = evaluate(np.array([[lam]]), path, ConstraintMatrix(np.array([[1.0]])), np.zeros(1), spec)
    oracle = scalar_functional_value(lam, [0.0, 0.999, 1.0], [0.0, 1.0], {2: 0.3})
    assert got.total == pytest.approx(oracle, rel=1e-12)
    assert got.total == pytest.approx(0.045, abs=1e-3)


def test_evaluate_scalar_brute_force_with_field(rng):
    for _ in range(5):
        x0 = float(rng.uniform(0.2, 0.9))
        x1 = float(rng.uniform(x0 + 0.05, 0.99))
        q1 = float(rng.uniform(0.1, 0.9))
        beta = float(rng.uniform(0.2, 0.8))
        hval = float(rng.uniform(-0.5, 0.5))
        spec = MixtureSpec(1, {2: [beta]})
        path = DiscretePath(xs=[0.0, x0, x1, 1.0], qs=[[[0.0]], [[q1]], [[1.0]]])
        lam = 2 * beta**2 + float(rng.uniform(0.5, 2.0))
        got = evaluate(
            np.array([[lam]]), path, ConstraintMatrix(np.array([[1.0]])), np.array([hval]), spec
        )
        oracle = scalar_functional_value(lam, [0.0, x0, x1, 1.0], [0.0, q1, 1.0], {2: beta}, hval)
        assert got.total == pytest.approx(oracle, rel=1e-11)


def test_breakdown_consistency(rng):
    for _ in range(10):
        n = int(rng.integers(1, 4))
        q = random_constraint(rng, n)
        path = random_path(rng, q.matrix, int(rng.integers(1, 4)))
        spec = random_mixture(rng, n)
        lam = random_multiplier(rng, path, spec)
        h = rng.uniform(-0.5, 0.5, size=n)
        b = evaluate(lam, path, q, h, spec)
        total = (
            b.trace_term + b.const_term + b.logdet_term + b.field_term + b.cascade_term - b.theta_term
        )
        assert b.total == pytest.approx(total, rel=1e-12)


def test_refinement_invariance(rng):
    for _ in range(20):
        n = int(rng.integers(1, 4))
        q = random_constraint(rng, n)
        path = random_path(rng, q.matrix, int(rng.integers(1, 3)))
        spec = random_mixture(rng, n)
        lam = random_multiplier(rng, path, spec)
        h = rng.uniform(-0.5, 0.5, size=n)
        base = evaluate(lam, path, q, h, spec).total
        k = int(rng.integers(0, path.r + 1))
        mid = float(rng.uniform(path.xs[k] + 1e-6, path.xs[k + 1] - 1e-6))
        refined = refine_path(path, k, mid)
        again = evaluate(lam, refined, q, h, spec).total
        assert again == pytest.approx(base, rel=1e-12, abs=1e-12)


def test_not_in_l_raised():
    spec = MixtureSpec(1, {2: [1.0]})
    path = scalar_path(0.9)
    # Lambda_0 = 1.5 - 0.9 * 2 = -0.3 < 0
    with pytest.raises(NotInL):
        evaluate(np.array([[1.5]]), path, ConstraintMatrix(np.array([[1.0]])), np.zeros(1), spec)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_margin_level_alone_rejects_a_multiplier(rng, n):
    # L_0 = 0.5e-12 I is positive definite, L_0 less the margin is not: only
    # the margin level of the stacked Cholesky fails, and that failure does
    # not reach the value, so feasible_value must test it on its own
    q = random_constraint(rng, n)
    spec = random_mixture(rng, n)
    path = random_path(rng, q.matrix, 2)
    ctx = _PathContext.of(path, q, np.array([0.2, -0.1, 0.3][:n]), spec)
    lam = ctx.tails[0] + 0.5 * MEMBERSHIP_MARGIN * np.eye(n)
    np.linalg.cholesky(lam - ctx.tails[0])
    with np.errstate(invalid="ignore"):
        chol = _lapack.cholesky(lam[None] - ctx.guarded_tails)
        assert np.isnan(chol[0]).all() and not np.isnan(chol[1:]).any()
        assert math.isfinite(ctx._factored(lam, chol[1:]).value)
        assert ctx.feasible_value(lam) is None
        assert ctx.feasible_value(lam + 2.0 * MEMBERSHIP_MARGIN * np.eye(n)) is not None
    with pytest.raises(NotInL, match="Lambda_0 not positive definite"):
        ctx.member_factors(lam)


@pytest.mark.parametrize("n", [2, 3])
def test_rotated_context_keeps_its_constants(rng, n):
    # the rotated context holds Q = diag(mu) and its own Q / 2: at u^T L u
    # its value is the original's and its gradient u^T G u, so a constant
    # left in the original basis shows
    q = random_constraint(rng, n)
    mu, u = np.linalg.eigh(q.matrix)
    spec = random_mixture(rng, n)
    path = random_path(rng, q.matrix, 2)
    ctx = _PathContext.of(path, q, np.array([0.2, -0.1, 0.3][:n]), spec)
    lam = random_multiplier(rng, path, spec)
    rotated = ctx.rotated(u, mu)
    lam_rotated = u.T @ lam @ u
    lam_rotated = (lam_rotated + lam_rotated.T) / 2.0
    factored = ctx.member_factors(lam)
    factored_rotated = rotated.member_factors(lam_rotated)
    assert factored_rotated.value == pytest.approx(factored.value, rel=1e-12, abs=1e-12)
    grad = ctx.gradient(factored)
    np.testing.assert_allclose(rotated.gradient(factored_rotated), u.T @ grad @ u, rtol=0, atol=1e-12)


def test_invalid_path_raised():
    spec = MixtureSpec(1, {2: [1.0]})
    bad = DiscretePath(xs=[0.0, 0.7, 0.3, 1.0], qs=[[[0.0]], [[0.5]], [[1.0]]])
    with pytest.raises(InvalidPath):
        evaluate(np.array([[3.0]]), bad, ConstraintMatrix(np.array([[1.0]])), np.zeros(1), spec)


def test_convexity_in_multiplier(rng):
    for _ in range(20):
        n = int(rng.integers(1, 4))
        q = random_constraint(rng, n)
        path = random_path(rng, q.matrix, int(rng.integers(1, 3)))
        spec = random_mixture(rng, n)
        h = rng.uniform(-0.5, 0.5, size=n)
        lam_a = random_multiplier(rng, path, spec)
        lam_b = random_multiplier(rng, path, spec)
        mid = evaluate(0.5 * (lam_a + lam_b), path, q, h, spec).total
        avg = 0.5 * (
            evaluate(lam_a, path, q, h, spec).total + evaluate(lam_b, path, q, h, spec).total
        )
        assert mid <= avg + 1e-10


def _one_level_context(delta: np.ndarray, x0: float) -> _PathContext:
    """The kernel on the path 0 -> Delta at x_0 with xi'(Q) = Q, so Delta_1 = Delta."""
    path, spec = verify._one_level(delta, x0)
    return _PathContext.of(path, None, np.zeros(delta.shape[0]), spec)


def _trace_limit(lam: np.ndarray, delta: np.ndarray) -> float:
    """The x_0 -> 0 limit of the cascade term (1 / (2 x_0)) log(|L_1| / |L_1 - x_0 Delta_1|):
    1/2 tr(L_1^{-1} Delta_1), by L'Hopital and the derivative of a determinant."""
    return 0.5 * float(np.trace(np.linalg.solve(lam, delta)))


def test_jacobi_limit_scalar():
    lam = np.array([[2.0]])
    ctx = _one_level_context(np.array([[1.0]]), 1e-16)
    limit = _trace_limit(lam, ctx.deltas[0])
    assert limit == pytest.approx(0.25, rel=1e-15)
    assert ctx.breakdown(lam).cascade_term == pytest.approx(limit, rel=1e-15)


def test_jacobi_limit_zero_increment():
    lam = np.eye(3) * 2.0
    ctx = _one_level_context(np.zeros((3, 3)), 1e-6)
    assert _trace_limit(lam, ctx.deltas[0]) == 0.0
    assert ctx.breakdown(lam).cascade_term == 0.0


def test_jacobi_limit_matches_small_x0(rng):
    for _ in range(10):
        n = int(rng.integers(1, 4))
        g = rng.standard_normal((n, n))
        lam1 = g @ g.T / n + 0.5 * np.eye(n)
        a = rng.standard_normal((n, n))
        ctx = _one_level_context(a @ a.T / n, 1e-6)
        assert ctx.breakdown(lam1).cascade_term == pytest.approx(_trace_limit(lam1, ctx.deltas[0]), abs=1e-4)


# the Gaussian quadratic-form identity: the kernel's closed form on the path
# 0 -> C at x (``verify._kernel_side``) and its judge, the Gaussian integral
# by range reduction (``verify._gaussian_integral``), both less 1/2 log|A|


def test_gaussian_identity_example():
    a, c = np.array([[2.0]]), np.array([[1.0]])
    expected = math.log(4.0 / 3.0) - 0.5 * math.log(2.0)
    assert verify._kernel_side(a, c, 0.5, np.zeros(1)) == pytest.approx(expected, rel=1e-12)
    assert verify._gaussian_integral(a, c, 0.5, np.zeros(1)) == pytest.approx(expected, rel=1e-12)


def test_gaussian_identity_deterministic_when_c_zero(rng):
    n = 3
    g = rng.standard_normal((n, n))
    a = g @ g.T / n + 0.5 * np.eye(n)
    y = rng.standard_normal(n)
    c = np.zeros((n, n))
    expected = 0.5 * float(y @ np.linalg.solve(a, y)) - 0.5 * logdet_pd(a)
    assert verify._kernel_side(a, c, 0.7, y) == pytest.approx(expected, rel=1e-12)
    assert verify._gaussian_integral(a, c, 0.7, y) == pytest.approx(expected, rel=1e-12)


def test_gaussian_identity_pure_logdet_when_y_zero(rng):
    n = 2
    g = rng.standard_normal((n, n))
    a = g @ g.T / n + 1.0 * np.eye(n)
    c = 0.3 * np.eye(n)
    x = 0.6
    expected = (logdet_pd(a) - logdet_pd(a - x * c)) / (2 * x) - 0.5 * logdet_pd(a)
    assert verify._kernel_side(a, c, x, np.zeros(n)) == pytest.approx(expected, rel=1e-13)
    assert verify._gaussian_integral(a, c, x, np.zeros(n)) == pytest.approx(expected, rel=1e-12)


def test_gaussian_identity_rank_deficient_c(rng):
    # C = v v^T: the judge integrates over the one direction of C's range
    n = 3
    g = rng.standard_normal((n, n))
    a = g @ g.T / n + 0.5 * np.eye(n)
    v = rng.standard_normal(n)
    c = 0.2 * np.outer(v, v) / float(v @ v)
    y = rng.standard_normal(n)
    assert verify._range_factor(c).shape == (n, 1)
    kernel = verify._kernel_side(a, c, 0.8, y)
    assert kernel == pytest.approx(verify._gaussian_integral(a, c, 0.8, y), rel=1e-12)


def test_gaussian_identity_divergent():
    # A - xC = 1 - 0.9 * 2 < 0: the expectation diverges, and L_0 leaves L
    with pytest.raises(NotInL):
        verify._kernel_side(np.array([[1.0]]), np.array([[2.0]]), 0.9, np.zeros(1))


@pytest.mark.parametrize("suite", [verify.identity_suite, verify.jacobi_suite], ids=["identity", "jacobi"])
def test_verify_suites_judge_the_kernel(monkeypatch, suite):
    # a kernel whose log-determinant increments are off by 1e-3 must fail
    # the suites: they read the kernel, not copies of its closed forms
    assert all(check["pass"] for check in suite(0, count=5))
    increments = _PathContext._increments
    monkeypatch.setattr(_PathContext, "_increments", lambda ctx, cinv: increments(ctx, cinv) * (1.0 + 1e-3))
    assert not any(check["pass"] for check in suite(0, count=5))


def test_closed_form_zero_mixture(rng):
    q = random_constraint(rng, 2)
    path = DiscretePath.simple(q.matrix, 0.5)
    lam = random_multiplier(rng, path, MixtureSpec.zero(2))
    got = closed_form_Y0(lam, path, np.zeros(2), MixtureSpec.zero(2))
    assert got == pytest.approx(-0.5 * logdet_pd(lam), rel=1e-13)


def test_closed_form_scalar_arithmetic():
    # r=1, Lambda=1.18, Delta_1=0.18, x_0=0.9, h=0
    spec = MixtureSpec(1, {2: [0.3]})
    path = scalar_path(0.9)
    got = closed_form_Y0(np.array([[1.18]]), path, np.zeros(1), spec)
    expected = -0.5 * math.log(1.18) + (1.0 / 1.8) * math.log(1.18 / 1.018)
    assert got == pytest.approx(expected, rel=1e-12)


def test_theta_term_zero_mixture(rng):
    q = random_constraint(rng, 2)
    path = random_path(rng, q.matrix, 2)
    assert theta_term(path, MixtureSpec.zero(2)) == 0.0


def test_theta_term_single_increment():
    spec = MixtureSpec(1, {2: [0.7]})
    for x0 in (0.25, 0.5, 0.9):
        assert theta_term(scalar_path(x0), spec) == pytest.approx(0.5 * x0 * 0.7**2, rel=1e-14)


def test_theta_term_abel_resummation(rng):
    # telescoped form: sum_k (x_k - x_{k-1}) * (-Sum theta(Q_k)) / 2 + boundary
    from sphglass.mixture import theta_matrix

    for _ in range(5):
        n = int(rng.integers(1, 4))
        q = random_constraint(rng, n)
        path = random_path(rng, q.matrix, int(rng.integers(2, 4)))
        spec = random_mixture(rng, n)
        direct = theta_term(path, spec)
        sums = [float(np.sum(theta_matrix(spec, path.qs[k]))) for k in range(path.r + 1)]
        xs = path.xs
        telescoped = 0.5 * sums[-1]  # x_r = 1 boundary
        for k in range(1, path.r + 1):
            telescoped -= 0.5 * (xs[k + 1] - xs[k]) * sums[k]
        assert direct == pytest.approx(telescoped, rel=1e-12, abs=1e-14)


@pytest.mark.parametrize("x0", [1e-9, 1e-12, 1e-15])
def test_logdet_increment_stable_for_tiny_scale(rng, x0):
    # at a tiny x_0 the cascade term (1 / (2 x_0)) log(|L_1| / |L_0|) is its
    # Jacobi limit up to O(x_0): the kernel's log1p increments keep the
    # digits that differencing two log-determinants would cancel, so the
    # path rule needs no floor on the breakpoint gaps
    n = 3
    q = random_constraint(rng, n)
    spec = random_mixture(rng, n)
    path = DiscretePath.simple(q.matrix, x0)
    lam = random_multiplier(rng, path, spec)
    got = evaluate(lam, path, q, np.zeros(n), spec).cascade_term
    assert got == pytest.approx(_trace_limit(lam, delta_increments(spec, path)[0]), rel=1e-6)


def _spd_stack(rng, levels: int, n: int) -> np.ndarray:
    g = rng.standard_normal((levels, n, n + 2))
    return g @ g.swapaxes(1, 2) / (n + 2) + 0.1 * np.eye(n)


def _rejects(fn, *args) -> bool:
    """Whether fn raises, np.linalg's LinAlgError or the "invalid" flag that
    np.linalg's wrappers turn into it."""
    try:
        with np.errstate(invalid="raise"):
            fn(*args)
    except (np.linalg.LinAlgError, FloatingPointError):
        return True
    return False


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_lapack_gufuncs_are_np_linalg_bit_for_bit(rng, n):
    # the kernel's four LAPACK calls skip np.linalg's wrappers; the private
    # gufuncs must give the same arrays, bit for bit, and fail on exactly
    # the inputs np.linalg raises on
    for levels in range(1, 7):
        a = _spd_stack(rng, levels, n)
        chol = _lapack.cholesky(a)
        assert np.array_equal(chol, np.linalg.cholesky(a))
        assert np.array_equal(_lapack.inv(chol), np.linalg.inv(chol))
        sym = a - rng.uniform(0.0, 2.0) * np.eye(n)  # indefinite too
        assert np.array_equal(_lapack.eigvalsh(sym), np.linalg.eigvalsh(sym))
        for m in sym:
            b = rng.standard_normal(n)
            assert np.array_equal(_lapack.solve(m, b), np.linalg.solve(m, b))
        assert not _rejects(_lapack.cholesky, a)

        # a chain that leaves the cone at each position: that level comes
        # back NaN, the others as np.linalg factors them alone
        for k in range(levels):
            bad = a.copy()
            bad[k] -= (np.linalg.eigvalsh(a[k])[0] + 0.5) * np.eye(n)
            assert _rejects(np.linalg.cholesky, bad)
            assert _rejects(_lapack.cholesky, bad)
            with np.errstate(invalid="ignore"):
                out = _lapack.cholesky(bad)
            assert np.isnan(out[k]).all()
            rest = np.delete(np.arange(levels), k)
            assert np.array_equal(out[rest], np.linalg.cholesky(a[rest]))

    # a NaN entry, an exactly singular system: the gufunc fails where the
    # wrapper raises, and gives the wrapper's array where it does not
    nan_entry = np.eye(n)
    nan_entry[n - 1, 0] = nan_entry[0, n - 1] = np.nan
    singular = np.ones((n, n))
    singular[0] = 0.0
    b = np.ones(n)
    for m in (nan_entry, singular):
        for fn, gufunc, args in (
            (np.linalg.cholesky, _lapack.cholesky, (m,)),
            (np.linalg.inv, _lapack.inv, (m,)),
            (np.linalg.eigvalsh, _lapack.eigvalsh, (m,)),
            (np.linalg.solve, _lapack.solve, (m, b)),
        ):
            assert _rejects(gufunc, *args) == _rejects(fn, *args)
            with np.errstate(invalid="ignore"):
                out = gufunc(*args)
            if _rejects(fn, *args):
                assert np.isnan(out).all()
            else:
                assert np.array_equal(out, fn(*args), equal_nan=True)
    assert _rejects(np.linalg.solve, singular, b)


@pytest.mark.parametrize("n", range(1, 7))
def test_basis_maps_coordinates_to_exactly_symmetric_matrices(rng, n):
    # the Newton step basis.cols @ v is exactly symmetric, so a trial
    # lam + t step needs no symmetrization
    basis = _sym_basis(n)
    assert basis is _sym_basis(n)
    assert np.array_equal(basis.cols, basis.rows.T)
    assert np.array_equal(basis.ridge, 1e-12 * np.eye(n * (n + 1) // 2))
    lam = rng.standard_normal((n, n))
    lam = lam + lam.T
    for _ in range(50):
        m = len(basis.rows)
        v = rng.standard_normal(m) * np.exp(rng.uniform(-30.0, 30.0, size=m))
        step = (basis.cols @ v).reshape(n, n)
        assert np.array_equal(step, step.T)
        trial = lam + 0.37 * step
        assert np.array_equal(trial, trial.T)
