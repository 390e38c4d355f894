import dataclasses
import itertools

import numpy as np
import pytest

from sphglass.functional import NotInL, closed_form_Y0, evaluate
from sphglass.geometry import ConstraintMatrix, DiscretePath
from sphglass.mixture import MixtureSpec
from sphglass.optimizer import (
    InnerSolveReport,
    PathSearchConfig,
    _PathContext,
    _inner_minimize_ctx,
    detect_degenerate,
    inner_gradient,
    inner_minimize,
    minimize_over_paths,
)

from conftest import (
    random_constraint,
    random_mixture,
    random_multiplier,
    random_path,
    reference_breakdown,
)

Q1 = ConstraintMatrix(np.array([[1.0]]))


def fast_config(**kw) -> PathSearchConfig:
    base = dict(max_levels=1, restarts=1, max_iterations=60)
    base.update(kw)
    return PathSearchConfig(**base)


def test_gradient_zero_mixture_closed_form(rng):
    q = random_constraint(rng, 3)
    path = DiscretePath.simple(q.matrix, 0.5)
    lam = random_multiplier(rng, path, MixtureSpec.zero(3))
    g = inner_gradient(lam, path, q, np.zeros(3), MixtureSpec.zero(3))
    expected = 0.5 * (q.matrix - np.linalg.inv(lam))
    assert np.allclose(g, expected, atol=1e-12)
    g_star = inner_gradient(np.linalg.inv(q.matrix), path, q, np.zeros(3), MixtureSpec.zero(3))
    assert np.max(np.abs(g_star)) <= 1e-12


def test_gradient_matches_finite_differences(rng):
    q = random_constraint(rng, 2)
    path = random_path(rng, q.matrix, 2)
    spec = random_mixture(rng, 2)
    h = np.array([0.3, -0.2])
    lam = random_multiplier(rng, path, spec, margin=0.6)
    g = inner_gradient(lam, path, q, h, spec)
    eps = 1e-6
    for _ in range(10):
        b = rng.standard_normal((2, 2))
        b = (b + b.T) / 2.0
        up = evaluate(lam + eps * b, path, q, h, spec).total
        down = evaluate(lam - eps * b, path, q, h, spec).total
        fd = (up - down) / (2 * eps)
        analytic = float(np.sum(g * b))
        assert analytic == pytest.approx(fd, rel=1e-6, abs=1e-9)


def test_gradient_scalar_stationary_point():
    # x_0 -> 1: gradient vanishes at Lambda = 1 + 2 beta^2
    beta = 0.4
    spec = MixtureSpec(1, {2: [beta]})
    path = DiscretePath(xs=[0.0, 1.0 - 1e-9, 1.0], qs=[[[0.0]], [[1.0]]])
    g = inner_gradient(np.array([[1.0 + 2 * beta**2]]), path, Q1, np.zeros(1), spec)
    assert abs(g[0, 0]) <= 1e-6


def test_hessian_matches_gradient_differences(rng):
    # the Newton model: directional derivatives of the gradient match H b
    from sphglass.optimizer import _PathContext, _to_coords

    for _ in range(5):
        n = int(rng.integers(1, 4))
        q = random_constraint(rng, n)
        path = random_path(rng, q.matrix, int(rng.integers(1, 4)))
        spec = random_mixture(rng, n)
        h = rng.uniform(-0.5, 0.5, size=n)
        lam = random_multiplier(rng, path, spec, margin=0.8)
        ctx = _PathContext(path, q.matrix, h, spec)
        _, _, hess = ctx.value_grad_hess(lam)
        eps = 1e-6
        for _ in range(3):
            b = rng.standard_normal((n, n))
            b = (b + b.T) / 2.0
            _, grad_up, _ = ctx.value_grad_hess(lam + eps * b)
            _, grad_dn, _ = ctx.value_grad_hess(lam - eps * b)
            fd = _to_coords((grad_up - grad_dn) / (2 * eps))
            hv = hess @ _to_coords(b)
            scale = max(1.0, float(np.max(np.abs(hv))))
            assert float(np.max(np.abs(fd - hv))) <= 1e-5 * scale


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("r", [1, 2, 3])
def test_path_context_value_matches_evaluate(rng, n, r):
    # the stacked kernel behind evaluate, closed_form_Y0 and the optimizer
    # against the level-by-level reference, term by term, with and without a
    # field; x_0 = 1e-7 exercises the log1p increments
    q = random_constraint(rng, n)
    spec = random_mixture(rng, n)
    random_xs = random_path(rng, q.matrix, r)
    tiny_x0 = DiscretePath(xs=np.concatenate([[0.0, 1e-7], random_xs.xs[2:]]), qs=random_xs.qs)
    for path in (random_xs, tiny_x0):
        lam = random_multiplier(rng, path, spec, margin=0.5)
        for h in (np.zeros(n), rng.uniform(-0.5, 0.5, size=n)):
            expected = reference_breakdown(lam, path, q, h, spec)
            got = evaluate(lam, path, q, h, spec)
            for term, value in expected.to_dict().items():
                assert getattr(got, term) == pytest.approx(value, rel=1e-12, abs=0), term
            assert _PathContext(path, q.matrix, h, spec).value(lam) == pytest.approx(
                expected.total, rel=1e-12, abs=0
            )
            y0 = expected.logdet_term + expected.field_term + expected.cascade_term
            assert closed_form_Y0(lam, path, h, spec) == pytest.approx(y0, rel=1e-12, abs=0)


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("r", [1, 2, 3])
@pytest.mark.parametrize("field", [False, True])
def test_value_grad_hess_from_feasible_factor_is_bitwise_fresh(rng, n, r, field):
    # the (value, chol) pair feasible_value hands on is what value_grad_hess
    # would compute itself: reusing it must not change a single bit
    q = random_constraint(rng, n)
    path = random_path(rng, q.matrix, r)
    spec = random_mixture(rng, n)
    h = rng.uniform(-0.5, 0.5, size=n) if field else np.zeros(n)
    ctx = _PathContext(path, q.matrix, h, spec)
    for lam in (ctx.lambda_start(), random_multiplier(rng, path, spec)):
        factored = ctx.feasible_value(lam)
        assert factored is not None
        fresh = ctx.value_grad_hess(lam)
        reused = ctx.value_grad_hess(lam, factored)
        assert factored[0] == fresh[0] == reused[0]
        assert np.array_equal(fresh[1], reused[1])
        assert np.array_equal(fresh[2], reused[2])


def test_warm_inner_solve_factors_each_point_once(rng, monkeypatch):
    # every point the warm-started Newton loop moves to has been factored by
    # feasible_value; value_grad_hess must reuse those factors, so the solve
    # makes exactly one Cholesky call per feasibility test
    q = random_constraint(rng, 2)
    spec = random_mixture(rng, 2)
    h = np.array([0.2, -0.1])
    path = random_path(rng, q.matrix, 2)
    lam0 = _inner_minimize_ctx(_PathContext(path, q.matrix, h, spec))[0].lambda_star
    # a smaller x_0 shrinks only the tail of L_0, so lam0 stays feasible
    xs = path.xs.copy()
    xs[1] *= 0.9
    ctx = _PathContext(DiscretePath(xs=xs, qs=path.qs), q.matrix, h, spec)

    calls = {"cholesky": 0, "feasible_value": 0}
    cholesky = np.linalg.cholesky
    feasible_value = _PathContext.feasible_value

    def counting_cholesky(a):
        calls["cholesky"] += 1
        return cholesky(a)

    def counting_feasible_value(self, lam):
        calls["feasible_value"] += 1
        return feasible_value(self, lam)

    monkeypatch.setattr(np.linalg, "cholesky", counting_cholesky)
    monkeypatch.setattr(_PathContext, "feasible_value", counting_feasible_value)
    rep, _ = _inner_minimize_ctx(ctx, lam0=lam0)
    assert rep.status == "converged"
    assert rep.iterations >= 1
    assert calls["feasible_value"] >= 2
    assert calls["cholesky"] == calls["feasible_value"]


def test_gradient_requires_admissible_multiplier():
    spec = MixtureSpec(1, {2: [1.0]})
    path = DiscretePath.simple(np.array([[1.0]]), 0.9)
    with pytest.raises(NotInL):
        inner_gradient(np.array([[1.5]]), path, Q1, np.zeros(1), spec)


def test_inner_minimize_zero_mixture(rng):
    q = random_constraint(rng, 3)
    path = DiscretePath.simple(q.matrix, 0.5)
    report = inner_minimize(path, q, np.zeros(3), MixtureSpec.zero(3))
    assert report.status == "converged"
    assert report.value == pytest.approx(0.5 * np.linalg.slogdet(q.matrix)[1], abs=1e-10)
    assert np.allclose(report.lambda_star, np.linalg.inv(q.matrix), atol=1e-6)


def test_inner_minimize_high_temperature_scalar():
    spec = MixtureSpec(1, {2: [0.3]})
    path = DiscretePath(xs=[0.0, 0.999, 1.0], qs=[[[0.0]], [[1.0]]])
    report = inner_minimize(path, Q1, np.zeros(1), spec)
    assert report.status == "converged"
    assert report.value == pytest.approx(0.045, abs=1e-3)
    # 1-D grid oracle over the multiplier
    grid = np.linspace(2 * 0.3**2 * 0.999 + 1e-6 + 1e-12, 3.0, 20001)
    vals = [
        evaluate(np.array([[lam]]), path, Q1, np.zeros(1), spec).total
        for lam in grid
        if lam - 0.999 * 2 * 0.3**2 > 1e-10
    ]
    assert report.value == pytest.approx(min(vals), abs=1e-7)


def test_inner_minimize_two_copy_grid_oracle():
    # exhaustive grid over Lambda = a I + b (Q - I)
    q = ConstraintMatrix(np.array([[1.0, 0.3], [0.3, 1.0]]))
    spec = MixtureSpec(2, {2: [0.2, 0.2]})
    path = DiscretePath.simple(q.matrix, 0.5)
    report = inner_minimize(path, q, np.zeros(2), spec)
    assert report.status == "converged"
    best = np.inf
    for a in np.linspace(0.7, 2.0, 140):
        for b in np.linspace(-0.9, 0.9, 180):
            lam = a * np.eye(2) + b * (q.matrix - np.eye(2))
            try:
                val = evaluate(lam, path, q.matrix, np.zeros(2), spec).total
            except (NotInL, np.linalg.LinAlgError):
                continue
            best = min(best, val)
    assert report.value <= best + 1e-9
    assert report.value == pytest.approx(best, abs=1e-3)


def _restart_problems(rng, count: int, starts: int = 5):
    """Random inner problems (q, path, spec, h), each with feasible starts."""
    for _ in range(count):
        n = int(rng.integers(1, 4))
        q = random_constraint(rng, n)
        path = random_path(rng, q.matrix, int(rng.integers(1, 3)))
        spec = random_mixture(rng, n)
        h = rng.uniform(-0.4, 0.4, size=n)
        lam0s = [
            random_multiplier(rng, path, spec, margin=float(rng.uniform(0.2, 2.0)))
            for _ in range(starts)
        ]
        yield q, path, spec, h, lam0s


def test_inner_minimize_restart_agreement(rng):
    # convexity: random feasible starts land on the same value
    for q, path, spec, h, lam0s in _restart_problems(rng, 20):
        values = []
        for lam0 in lam0s:
            rep = inner_minimize(path, q, h, spec, lambda_init=lam0)
            assert rep.status == "converged"
            values.append(rep.value)
        assert max(values) - min(values) <= 1e-8


def test_inner_minimize_converges_at_the_rounding_optimum():
    # in this population some solves end at the optimum to rounding with a
    # gradient norm of 1.04-1.10e-8 against the tolerance 1e-8; no Armijo
    # test resolves their predicted decrease of ~1e-16, which must not be
    # reported as a boundary stall
    rng = np.random.default_rng(0)
    for q, path, spec, h, lam0s in _restart_problems(rng, 300):
        for lam0 in lam0s:
            rep = inner_minimize(path, q, h, spec, lambda_init=lam0)
            assert rep.status == "converged", (rep.status, rep.gradient_norm, rep.value)


def test_inner_minimize_divergence_on_pd_constraint_raises(monkeypatch):
    # a diverging solve is legitimate only for degenerate Q; on a positive
    # definite Q it is a solver failure that must not pass silently (an
    # assert would vanish under python -O)
    import sphglass.optimizer as optimizer

    def diverging(ctx, lam0=None):
        report = InnerSolveReport(
            lambda_star=np.eye(ctx.n), value=-2e12, gradient_norm=1.0, iterations=1, status="diverging"
        )
        return report, None

    monkeypatch.setattr(optimizer, "_inner_minimize_ctx", diverging)
    spec = MixtureSpec(2, {2: [0.3, 0.3]})
    q = np.array([[1.0, 0.3], [0.3, 1.0]])
    with pytest.raises(RuntimeError, match="smallest eigenvalue of Q is 7.000e-01"):
        inner_minimize(DiscretePath.simple(q, 0.5), q, np.zeros(2), spec)
    degenerate = np.ones((2, 2))
    rep = inner_minimize(DiscretePath.simple(degenerate, 0.5), degenerate, np.zeros(2), spec)
    assert rep.status == "diverging"


def test_detect_degenerate_certificate():
    spec = MixtureSpec(2, {2: [0.3, 0.3]})
    q = np.array([[1.0, 1.0], [1.0, 1.0]])
    path = DiscretePath.simple(q, 0.5)
    cert = detect_degenerate(q, path, np.zeros(2), spec)
    assert cert is not None
    vals = cert.objective_values
    assert vals[0] > vals[1] > vals[2]
    assert vals[2] < -100.0


def test_detect_degenerate_moderate_ray_matches_evaluate():
    # the certificate, computed in the eigenbasis of Q, agrees with the
    # standard evaluation at moderate scale; Q is the Gram matrix of n unit
    # vectors in R^{n-1}, reached by a random monotone path of r levels
    for n, r, with_field in itertools.product((2, 3, 4), (1, 2, 3), (False, True)):
        rng = np.random.default_rng(100 * n + 10 * r + with_field)
        f = rng.standard_normal((n, n - 1))
        f /= np.linalg.norm(f, axis=1, keepdims=True)
        q = f @ f.T
        q = (q + q.T) / 2.0
        np.fill_diagonal(q, 1.0)
        path = random_path(rng, q, r)
        spec = random_mixture(rng, n)
        h = rng.uniform(-0.5, 0.5, size=n) if with_field else np.zeros(n)
        cert = detect_degenerate(q, path, h, spec, d11_values=(10.0, 1e3, 1e6))
        vals = cert.objective_values
        assert vals[0] > vals[1] > vals[2]
        # gaps dominated by -1/2 log d11: at least (1/2) log 100 per step
        assert vals[0] - vals[1] >= 0.5 * np.log(100.0)
        assert vals[1] - vals[2] >= 0.5 * np.log(100.0)
        # reconstruct the ray points and evaluate through the public functional
        eigs, vecs = np.linalg.eigh(q)
        ctx = _PathContext(path, q, h, spec)
        base = np.zeros(n)
        for k in range(ctx.r + 1):
            s = vecs.T @ ctx.tails[k] @ vecs
            base = np.maximum(base, np.sum(np.abs(s), axis=1) - np.abs(np.diag(s)) + np.diag(s))
        d = base + 1.0
        for d11, expected in zip((10.0, 1e3, 1e6), vals):
            dd = d.copy()
            dd[0] = max(d11, dd[0])
            lam = vecs @ np.diag(dd) @ vecs.T
            got = evaluate((lam + lam.T) / 2.0, path, q, h, spec).total
            assert got == pytest.approx(expected, rel=1e-9), (n, r, with_field, d11)


def test_detect_degenerate_passes_pd():
    spec = MixtureSpec(2, {2: [0.3, 0.3]})
    assert detect_degenerate(np.eye(2), DiscretePath.simple(np.eye(2), 0.5), np.zeros(2), spec) is None


@pytest.mark.parametrize("n", range(4, 13))
def test_detect_degenerate_passes_equicorrelated(n):
    # smallest eigenvalue 0.1 at every n; a determinant test misfires from n = 8
    q = 0.1 * np.eye(n) + 0.9 * np.ones((n, n))
    spec = MixtureSpec(n, {2: [0.3] * n})
    assert detect_degenerate(q, DiscretePath.simple(q, 0.5), np.zeros(n), spec) is None


def test_small_but_positive_eigenvalue_is_not_degenerate():
    off = 0.999  # smallest eigenvalue 1e-3
    q = ConstraintMatrix(np.array([[1.0, off], [off, 1.0]]))
    spec = MixtureSpec(2, {2: [0.1, 0.1]})
    path = DiscretePath.simple(q.matrix, 0.5)
    assert detect_degenerate(q.matrix, path, np.zeros(2), spec) is None
    report = inner_minimize(path, q, np.zeros(2), spec)
    assert report.status == "converged"
    assert np.isfinite(report.value)


def test_minimize_zero_mixture_every_level(rng):
    q = random_constraint(rng, 2)
    target = 0.5 * np.linalg.slogdet(q.matrix)[1]
    report = minimize_over_paths(
        q, np.zeros(2), MixtureSpec.zero(2), fast_config(max_levels=2), seed=3
    )
    assert not report.degenerate
    for _, value in report.per_level_values:
        assert value == pytest.approx(target, abs=1e-8)
    assert report.best_value == pytest.approx(target, abs=1e-8)


def test_minimize_high_temperature_scalar():
    spec = MixtureSpec(1, {2: [0.3]})
    report = minimize_over_paths(
        Q1, np.zeros(1), spec, PathSearchConfig(max_levels=2, restarts=2, max_iterations=200), seed=5
    )
    assert report.best_value == pytest.approx(0.045, abs=1e-4)
    assert report.best_path.r == 1  # parsimony tie-break


def test_minimize_low_temperature_gap_and_monotonicity():
    spec = MixtureSpec(1, {2: [1.0]})
    report = minimize_over_paths(
        Q1, np.zeros(1), spec, PathSearchConfig(max_levels=2, restarts=2, max_iterations=250), seed=5
    )
    annealed = 0.5
    assert report.best_value < annealed - 1e-3
    values = [v for _, v in report.per_level_values]
    assert values[1] <= values[0] + 1e-6
    # the two-level value matches the known optimum of this model
    assert report.best_value == pytest.approx(np.sqrt(2) - 0.75 - 0.25 * np.log(2.0), abs=1e-4)


def test_minimize_degenerate_short_circuits():
    spec = MixtureSpec(2, {2: [0.3, 0.3]})
    q = np.array([[1.0, 1.0], [1.0, 1.0]])
    report = minimize_over_paths(q, np.zeros(2), spec, fast_config(), seed=0)
    assert report.degenerate
    assert report.best_value == -np.inf
    assert report.certificate is not None
    assert report.certificate.objective_values[2] < -100.0


def test_minimize_rejects_non_decreasing_certificate(monkeypatch):
    # -inf is declared only when the ray values strictly decrease
    import sphglass.optimizer as optimizer

    spec = MixtureSpec(2, {2: [0.3, 0.3]})
    q = np.array([[1.0, 1.0], [1.0, 1.0]])
    for values in ([-5.0, -5.0, -7.0], [-5.0, -6.0, -4.0], [1.0, 2.0, 3.0]):
        remaining = iter(values)
        monkeypatch.setattr(optimizer._PathContext, "value", lambda self, lam: next(remaining))
        with pytest.raises(RuntimeError, match="not strictly decreasing"):
            minimize_over_paths(q, np.zeros(2), spec, fast_config(), seed=0)


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_rank_deficient_constraints_certify_divergence(n):
    # Gram matrices of n unit vectors in R^{n-1}: unit diagonal, one null
    # direction; the certificate must show a strict decrease and minimize
    # must report -inf with it
    rng = np.random.default_rng(1000 + n)
    for _ in range(10):
        f = rng.standard_normal((n, n - 1))
        f /= np.linalg.norm(f, axis=1, keepdims=True)
        q = f @ f.T
        q = (q + q.T) / 2.0
        np.fill_diagonal(q, 1.0)
        spec = random_mixture(rng, n)
        h = rng.uniform(-0.5, 0.5, size=n)
        report = minimize_over_paths(q, h, spec, fast_config(), seed=0)
        assert report.degenerate
        assert report.best_value == -np.inf
        values = report.certificate.objective_values
        assert values[0] > values[1] > values[2]


def test_single_copy_exactly_solvable_values():
    # the single-copy pure 2-spin model is exactly solvable: value beta^2/2
    # up to the transition at 1/sqrt(2), then sqrt(2) beta - 3/4
    # - log(sqrt(2) beta)/2; checks both branches and the matching point
    def known(beta: float) -> float:
        if beta <= 1 / np.sqrt(2):
            return beta**2 / 2
        a = np.sqrt(2) * beta
        return a - 0.75 - 0.5 * np.log(a)

    config = PathSearchConfig(max_levels=2, restarts=2, max_iterations=250)
    for beta in (0.5, 0.8, 1.2):
        spec = MixtureSpec(1, {2: [beta]})
        rep = minimize_over_paths(Q1, np.zeros(1), spec, config, seed=11)
        assert rep.best_value == pytest.approx(known(beta), abs=2e-6)


def test_coupled_pair_replica_symmetric_corner():
    # small coupling: the optimum sits in the x -> 1 corner where the value
    # reduces to (Sum xi(Q) + log det Q) / 2 (stationarity gives
    # Lambda_0 = Q^{-1} there)
    from sphglass.mixture import xi_matrix

    spec = MixtureSpec(2, {2: [0.15, 0.2]})
    q = ConstraintMatrix(np.array([[1.0, 0.4], [0.4, 1.0]]))
    config = PathSearchConfig(max_levels=2, restarts=2, max_iterations=250)
    rep = minimize_over_paths(q, np.zeros(2), spec, config, seed=12)
    target = 0.5 * float(np.sum(xi_matrix(spec, q.matrix))) + 0.5 * np.log(
        np.linalg.det(q.matrix)
    )
    assert rep.best_value == pytest.approx(target, abs=2e-6)


def test_scalar_profile_matches_cholesky_for_single_copy():
    spec = MixtureSpec(1, {2: [0.6]})
    kw = dict(max_levels=2, restarts=2, max_iterations=200)
    rep_scalar = minimize_over_paths(
        Q1, np.zeros(1), spec, PathSearchConfig(q_parameterization="scalar_profile", **kw), seed=9
    )
    rep_chol = minimize_over_paths(
        Q1, np.zeros(1), spec, PathSearchConfig(q_parameterization="cholesky_increments", **kw), seed=9
    )
    assert rep_scalar.best_value == pytest.approx(rep_chol.best_value, abs=1e-6)


def test_level_monotonicity_two_copies(rng):
    q = random_constraint(rng, 2)
    spec = MixtureSpec(2, {2: [0.5, 0.4]})
    report = minimize_over_paths(
        q, np.zeros(2), spec, PathSearchConfig(max_levels=3, restarts=1, max_iterations=120), seed=11
    )
    values = [v for _, v in report.per_level_values]
    for a, b in zip(values[:-1], values[1:]):
        assert b <= a + 1e-6


PAIR_SPEC = MixtureSpec(2, {2: [0.9, 0.9], 4: [0.4, 0.4]})
PAIR_Q = np.array([[1.0, 0.3], [0.3, 1.0]])
PAIR_CONFIG = dict(max_levels=2, restarts=0, max_iterations=60)  # the pair-sweep budget


def test_cholesky_increments_searches_two_levels():
    # the larger family must reach well below its own one-level value on the
    # pair-sweep model at q12 = 0.3 (the scalar profile reaches 0.97418577
    # against 0.99704078); a search whose r >= 2 candidates all fail would
    # fall back to the level-1 value
    config = PathSearchConfig(q_parameterization="cholesky_increments", **PAIR_CONFIG)
    report = minimize_over_paths(PAIR_Q, np.zeros(2), PAIR_SPEC, config, seed=1)
    (_, level1), (_, level2) = report.per_level_values
    assert level2 <= level1 - 0.01


def test_search_ignores_last_bit_noise_in_the_objective(monkeypatch):
    # a seeded relative perturbation of +-2.3e-16 on every inner value must
    # not steer the search elsewhere
    import sphglass.optimizer as optimizer

    config = PathSearchConfig(**PAIR_CONFIG)
    base = minimize_over_paths(PAIR_Q, np.zeros(2), PAIR_SPEC, config, seed=1).best_value
    solve = optimizer._inner_minimize_ctx
    for noise_seed in range(3):
        noise = np.random.default_rng(noise_seed)

        def perturbed(ctx, lam0=None):
            rep, factored = solve(ctx, lam0=lam0)
            value = rep.value * (1.0 + noise.choice([-2.3e-16, 2.3e-16]))
            return dataclasses.replace(rep, value=value), factored

        monkeypatch.setattr(optimizer, "_inner_minimize_ctx", perturbed)
        moved = minimize_over_paths(PAIR_Q, np.zeros(2), PAIR_SPEC, config, seed=1).best_value
        assert abs(moved - base) < 1e-9


def test_search_inner_solve_count_on_the_exact_model(monkeypatch):
    # the outer search's cost in inner solves, counted rather than timed, on
    # the single-copy pure 2-spin model at the sk-minimize budget
    import sphglass.optimizer as optimizer

    calls = [0]
    solve = optimizer._inner_minimize_ctx

    def counting(ctx, lam0=None):
        calls[0] += 1
        return solve(ctx, lam0=lam0)

    monkeypatch.setattr(optimizer, "_inner_minimize_ctx", counting)
    config = PathSearchConfig(max_levels=3, restarts=1, max_iterations=150, x_grid_resolution=0.5)
    report = minimize_over_paths(Q1, np.zeros(1), MixtureSpec(1, {2: [1.0]}), config, seed=1)
    assert report.best_value == pytest.approx(np.sqrt(2) - 0.75 - 0.25 * np.log(2.0), abs=2e-6)
    assert calls[0] <= 600


def test_search_cholesky_count_on_the_exact_model(monkeypatch):
    # the path gradient reuses the factors of the inner solve's final
    # iterate, so an objective call makes no Cholesky call of its own beyond
    # the Newton loop's (sk-minimize config, seed 1)
    calls = [0]
    cholesky = np.linalg.cholesky

    def counting(a):
        calls[0] += 1
        return cholesky(a)

    monkeypatch.setattr(np.linalg, "cholesky", counting)
    config = PathSearchConfig(max_levels=3, restarts=1, max_iterations=150, x_grid_resolution=0.5)
    minimize_over_paths(Q1, np.zeros(1), MixtureSpec(1, {2: [1.0]}), config, seed=1)
    assert calls[0] <= 750


def test_config_validation():
    with pytest.raises(ValueError):
        PathSearchConfig(max_levels=0)
    with pytest.raises(ValueError):
        PathSearchConfig(x_grid_resolution=-1.0)
    with pytest.raises(ValueError):
        PathSearchConfig(q_parameterization="other")
