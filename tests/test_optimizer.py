import dataclasses
import itertools
import json
import warnings
from types import SimpleNamespace

import numpy as np
import pytest

from sphglass.functional import NotInL, _lapack, closed_form_Y0, evaluate
from sphglass.geometry import ConstraintMatrix, DiscretePath, validate_path
from sphglass.mixture import InvalidField, MixtureSpec
from sphglass.optimizer import (
    _FAMILIES,
    MIN_X_GRID_RESOLUTION,
    VALUE_TOLERANCE,
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
SK_CONFIG = dict(max_levels=3, restarts=1, max_iterations=150, x_grid_resolution=0.5)  # the sk-minimize budget


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
    from sphglass.functional import _PathContext, _sym_basis

    for _ in range(5):
        n = int(rng.integers(1, 4))
        q = random_constraint(rng, n)
        path = random_path(rng, q.matrix, int(rng.integers(1, 4)))
        spec = random_mixture(rng, n)
        h = rng.uniform(-0.5, 0.5, size=n)
        lam = random_multiplier(rng, path, spec, margin=0.8)
        ctx = _PathContext.of(path, q, h, spec)
        hess = ctx.hessian(ctx.member_factors(lam))
        eps = 1e-6
        for _ in range(3):
            b = rng.standard_normal((n, n))
            b = (b + b.T) / 2.0
            grad_up = ctx.gradient(ctx.member_factors(lam + eps * b))
            grad_dn = ctx.gradient(ctx.member_factors(lam - eps * b))
            basis = _sym_basis(n).rows
            fd = basis @ ((grad_up - grad_dn) / (2 * eps)).ravel()
            hv = hess @ (basis @ b.ravel())
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
            assert _PathContext.of(path, q, h, spec).member_factors(lam).value == pytest.approx(
                expected.total, rel=1e-12, abs=0
            )
            y0 = expected.logdet_term + expected.field_term + expected.cascade_term
            assert closed_form_Y0(lam, path, h, spec) == pytest.approx(y0, rel=1e-12, abs=0)


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("r", [1, 2, 3])
def test_factors_carry_the_chain_inverses(rng, n, r):
    # one triangular inverse per factorization: the chain's inverses handed
    # on with the factors are those of a dense inverse, and the increments
    # and field term built from it match the level-by-level reference;
    # x_0 = 1e-7 exercises the log1p increments
    q = random_constraint(rng, n)
    spec = random_mixture(rng, n)
    random_xs = random_path(rng, q.matrix, r)
    tiny_x0 = DiscretePath(xs=np.concatenate([[0.0, 1e-7], random_xs.xs[2:]]), qs=random_xs.qs)
    for path in (random_xs, tiny_x0):
        lam = random_multiplier(rng, path, spec, margin=0.5)
        for h in (np.zeros(n), rng.uniform(-0.5, 0.5, size=n)):
            ctx = _PathContext.of(path, q, h, spec)
            factored = ctx.feasible_value(lam)
            assert factored is not None
            dense = np.linalg.inv(lam - ctx.tails)
            for got, want in zip(factored.inv, dense):
                assert np.array_equal(got, got.T)
                assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))
            expected = reference_breakdown(lam, path, q, h, spec)
            cascade = float(np.sum(0.5 * factored.increments / path.xs[1:-1]))
            assert cascade == pytest.approx(expected.cascade_term, rel=1e-12, abs=0)
            assert factored.value == pytest.approx(expected.total, rel=1e-12, abs=0)
            grad = ctx.gradient(factored)
            assert np.array_equal(grad, grad.T)


@pytest.mark.parametrize("warm", [True, False], ids=["warm", "cold"])
def test_inner_solve_factors_each_point_once(rng, monkeypatch, warm):
    # every point the Newton loop moves to, its start included, has been
    # factored by feasible_value; gradient and hessian take those factors, so the
    # solve makes exactly one chain Cholesky call per feasibility test.  A
    # cold start also factors Q once, for the Q^{-1} of lambda_start
    q = random_constraint(rng, 2)
    spec = random_mixture(rng, 2)
    h = np.array([0.2, -0.1])
    path = random_path(rng, q.matrix, 2)
    lam0 = _inner_minimize_ctx(_PathContext.of(path, q, h, spec))[0].lambda_star
    # a smaller x_0 shrinks only the tail of L_0, so lam0 stays feasible
    xs = path.xs.copy()
    xs[1] *= 0.9
    ctx = _PathContext.of(DiscretePath(xs=xs, qs=path.qs), q, h, spec)

    calls = {"cholesky": 0, "feasible_value": 0}
    feasible_value = _PathContext.feasible_value

    def counting_cholesky(cholesky):
        def counted(a):
            calls["cholesky"] += 1
            return cholesky(a)

        return counted

    def counting_feasible_value(self, lam):
        calls["feasible_value"] += 1
        return feasible_value(self, lam)

    # the chain goes through the kernel's gufunc, Q through np.linalg
    monkeypatch.setattr(_lapack, "cholesky", counting_cholesky(_lapack.cholesky))
    monkeypatch.setattr(np.linalg, "cholesky", counting_cholesky(np.linalg.cholesky))
    monkeypatch.setattr(_PathContext, "feasible_value", counting_feasible_value)
    rep, _ = _inner_minimize_ctx(ctx, lam0=lam0 if warm else None)
    assert rep.status == "converged"
    assert rep.iterations >= 1
    assert calls["feasible_value"] >= 2
    assert calls["cholesky"] == calls["feasible_value"] + (0 if warm else 1)


def test_inner_solve_makes_one_inverse_per_feasibility_test_and_one_solve_per_newton_step(rng, monkeypatch):
    # each factorization is followed by one stacked triangular inverse, and
    # each Newton step solves for its direction; the Hessian and the path
    # gradient read the inverses handed on with the factors, and neither
    # factors, inverts, takes eigenvalues nor solves
    q = random_constraint(rng, 2)
    spec = random_mixture(rng, 2)
    h = np.array([0.2, -0.1])
    path = random_path(rng, q.matrix, 2)
    lam0 = _inner_minimize_ctx(_PathContext.of(path, q, h, spec))[0].lambda_star
    xs = path.xs.copy()
    xs[1] *= 0.9
    ctx = _PathContext.of(DiscretePath(xs=xs, qs=path.qs), q, h, spec)

    calls = {"cholesky": 0, "eigvalsh": 0, "inv": 0, "solve": 0, "feasible_value": 0}
    feasible_value = _PathContext.feasible_value

    def counting(name, fn):
        def counted(*args):
            calls[name] += 1
            return fn(*args)

        return counted

    for name in ("cholesky", "eigvalsh", "inv", "solve"):
        monkeypatch.setattr(_lapack, name, counting(name, getattr(_lapack, name)))
    monkeypatch.setattr(_PathContext, "feasible_value", counting("feasible_value", feasible_value))
    rep, factored = _inner_minimize_ctx(ctx, lam0=lam0)
    assert rep.status == "converged"
    assert rep.iterations >= 1
    assert calls["inv"] == calls["feasible_value"]
    assert calls["solve"] == rep.iterations

    calls.update(cholesky=0, eigvalsh=0, inv=0, solve=0)
    ctx.gradient(factored)
    ctx.hessian(factored)
    ctx.envelope_gradient(factored)
    assert calls["cholesky"] == calls["eigvalsh"] == calls["inv"] == calls["solve"] == 0


@pytest.mark.parametrize("warm", [True, False], ids=["warm", "cold"])
def test_inner_solve_builds_one_hessian_per_newton_step(rng, monkeypatch, warm):
    # the Hessian is built for a step the loop takes, never at the point
    # where it stops: one per Newton solve, and one per counted iteration
    q = random_constraint(rng, 2)
    spec = random_mixture(rng, 2)
    h = np.array([0.2, -0.1])
    path = random_path(rng, q.matrix, 2)
    lam0 = _inner_minimize_ctx(_PathContext.of(path, q, h, spec))[0].lambda_star
    xs = path.xs.copy()
    xs[1] *= 0.9
    ctx = _PathContext.of(DiscretePath(xs=xs, qs=path.qs), q, h, spec)

    calls = {"hessian": 0, "solve": 0}
    hessian, solve = _PathContext.hessian, _lapack.solve

    def counting_hessian(self, factored):
        calls["hessian"] += 1
        return hessian(self, factored)

    def counting_solve(a, b):
        calls["solve"] += 1
        return solve(a, b)

    monkeypatch.setattr(_PathContext, "hessian", counting_hessian)
    monkeypatch.setattr(_lapack, "solve", counting_solve)
    rep, _ = _inner_minimize_ctx(ctx, lam0=lam0 if warm else None)
    assert rep.status == "converged"
    assert rep.iterations >= 1
    assert calls["hessian"] == calls["solve"] == rep.iterations

    # the same over a whole search, whose solves end at every status
    calls.update(hessian=0, solve=0)
    minimize_over_paths(q, h, spec, fast_config(max_levels=2, max_iterations=20), seed=3)
    assert calls["solve"] > 0
    assert calls["hessian"] == calls["solve"]


@pytest.mark.parametrize("field", [False, True], ids=["no-field", "field"])
@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("family", sorted(_FAMILIES))
def test_search_candidates_match_checked_contexts_bit_for_bit(rng, monkeypatch, family, n, field):
    # each objective call builds its context from the family's (xs, qs)
    # arrays, with no DiscretePath, no symmetry check and, at r = 1, the one
    # mixture pass of its level; the context of the checked path gives the
    # same inner solve, gradient, Hessian and envelope gradient, bit for bit
    q = random_constraint(rng, n)
    spec = random_mixture(rng, n)
    h = rng.uniform(-0.5, 0.5, size=n) if field else np.zeros(n)
    built = []
    init = _PathContext.__init__

    def recording(ctx, xs, qs, *args):
        init(ctx, xs, qs, *args)
        built.append((xs, qs, ctx))

    config = PathSearchConfig(max_levels=3, restarts=1, max_iterations=4, q_parameterization=family)
    with monkeypatch.context() as patch:
        patch.setattr(_PathContext, "__init__", recording)
        report = minimize_over_paths(q, h, spec, config, seed=1)
    # the last context is the final re-solve's, built the same way from the
    # reported path
    *searched, final = built
    assert np.array_equal(final[0], report.best_path.xs) and np.array_equal(final[1], report.best_path.qs)
    candidates: dict[int, list] = {}
    for entry in searched:
        candidates.setdefault(entry[2].r, []).append(entry)
    assert sorted(candidates) == [1, 2, 3]
    assert all(c[2].deltas is candidates[1][0][2].deltas for c in candidates[1])
    sampled = [final] + [entry for group in candidates.values() for entry in group[:: max(1, len(group) // 4)]]
    for xs, qs, lean in sampled:
        checked = _PathContext.of(DiscretePath(xs=xs, qs=qs), q, h, spec)
        assert lean.qinv is not None and checked.qinv is None
        assert np.array_equal(lean.lambda_start(), checked.lambda_start())
        lean_rep, lean_factored = _inner_minimize_ctx(lean)
        checked_rep, checked_factored = _inner_minimize_ctx(checked)
        assert np.array_equal(lean_rep.lambda_star, checked_rep.lambda_star)
        assert (lean_rep.value, lean_rep.iterations, lean_rep.status) == (
            checked_rep.value,
            checked_rep.iterations,
            checked_rep.status,
        )
        for got, want in zip(lean_factored, checked_factored):
            assert np.array_equal(got, want)
        assert np.array_equal(lean.gradient(lean_factored), checked.gradient(checked_factored))
        assert np.array_equal(lean.hessian(lean_factored), checked.hessian(checked_factored))
        for got, want in zip(lean.envelope_gradient(lean_factored), checked.envelope_gradient(checked_factored)):
            assert np.array_equal(got, want)


@pytest.mark.parametrize("offset, status", [(None, "max_iterations"), (1e-6, "converged")], ids=["cold", "near"])
def test_inner_solve_that_runs_out_of_steps(rng, monkeypatch, offset, status):
    # with one Newton step allowed the loop runs out: the report counts that
    # step, and the status rule after the loop calls the solve converged
    # exactly when the step landed within the gradient tolerance
    import sphglass.optimizer as optimizer

    q = random_constraint(rng, 2)
    spec = random_mixture(rng, 2)
    ctx = _PathContext.of(random_path(rng, q.matrix, 2), q, np.array([0.2, -0.1]), spec)
    lam0 = None if offset is None else _inner_minimize_ctx(ctx)[0].lambda_star + offset * np.eye(2)
    monkeypatch.setattr(optimizer, "INNER_MAX_ITERATIONS", 1)
    rep, _ = _inner_minimize_ctx(ctx, lam0=lam0)
    assert rep.iterations == 1
    assert rep.status == status
    within = rep.gradient_norm <= optimizer.INNER_GRADIENT_TOLERANCE * max(1.0, abs(rep.value))
    assert within == (status == "converged")


def test_gradient_requires_admissible_multiplier():
    spec = MixtureSpec(1, {2: [1.0]})
    path = DiscretePath.simple(np.array([[1.0]]), 0.9)
    with pytest.raises(NotInL):
        inner_gradient(np.array([[1.5]]), path, Q1, np.zeros(1), spec)


@pytest.mark.parametrize("t", [0.5e-12, 2e-12, 1e-6])
def test_gradient_and_evaluate_share_the_membership_rule(rng, t):
    # Lambda = tails_0 + t I puts L_0 = t I on either side of the margin
    # 1e-12: inner_gradient and evaluate admit or reject it together
    q = random_constraint(rng, 2)
    spec = random_mixture(rng, 2)
    path = random_path(rng, q.matrix, 2)
    lam = _PathContext.of(path, q, np.zeros(2), spec).tails[0] + t * np.eye(2)
    outcomes = []
    for call in (inner_gradient, evaluate):
        try:
            call(lam, path, q, np.zeros(2), spec)
            outcomes.append(True)
        except NotInL:
            outcomes.append(False)
    assert outcomes == [t > 1e-12] * 2


def test_inner_minimize_zero_mixture(rng):
    q = random_constraint(rng, 3)
    path = DiscretePath.simple(q.matrix, 0.5)
    report = inner_minimize(path, q, np.zeros(3), MixtureSpec.zero(3))
    assert report.status == "converged"
    assert report.value == pytest.approx(0.5 * np.linalg.slogdet(q.matrix)[1], abs=1e-10)
    assert np.allclose(report.lambda_star, np.linalg.inv(q.matrix), atol=1e-6)


def test_inner_minimize_high_temperature_scalar():
    from scipy.optimize import minimize_scalar

    spec = MixtureSpec(1, {2: [0.3]})
    path = DiscretePath(xs=[0.0, 0.999, 1.0], qs=[[[0.0]], [[1.0]]])
    report = inner_minimize(path, Q1, np.zeros(1), spec)
    assert report.status == "converged"
    assert report.value == pytest.approx(0.045, abs=1e-3)
    # bounded Brent over the multiplier, through evaluate alone
    floor = 0.999 * 2 * 0.3**2
    judge = minimize_scalar(
        lambda lam: evaluate(np.array([[lam]]), path, Q1, np.zeros(1), spec).total,
        bounds=(floor + 1e-6, 3.0),
        method="bounded",
        options={"xatol": 1e-10},
    )
    assert judge.success
    assert report.value <= judge.fun + 1e-12
    assert report.value == pytest.approx(judge.fun, abs=1e-12)


def test_inner_minimize_two_copy_oracle():
    from scipy.optimize import minimize

    # Nelder-Mead over all three entries of the symmetric Lambda, through
    # evaluate alone; a multiplier outside the admissible set scores inf
    q = ConstraintMatrix(np.array([[1.0, 0.3], [0.3, 1.0]]))
    spec = MixtureSpec(2, {2: [0.2, 0.2]})
    path = DiscretePath.simple(q.matrix, 0.5)
    report = inner_minimize(path, q, np.zeros(2), spec)
    assert report.status == "converged"

    def value(entries):
        a, b, c = entries
        try:
            return evaluate(np.array([[a, b], [b, c]]), path, q.matrix, np.zeros(2), spec).total
        except (NotInL, np.linalg.LinAlgError):
            return np.inf

    judge = minimize(
        value, [1.3, 0.0, 1.3], method="Nelder-Mead",
        options={"xatol": 1e-10, "fatol": 1e-15},
    )
    assert judge.success
    assert report.value <= judge.fun + 1e-12
    assert report.value == pytest.approx(judge.fun, abs=1e-12)


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
        ctx = _PathContext.of(path, q, h, spec)
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
        monkeypatch.setattr(
            optimizer._PathContext, "member_factors", lambda self, lam: SimpleNamespace(value=next(remaining))
        )
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


def _single_copy_value(beta: float) -> float:
    """The single-copy pure 2-spin model is exactly solvable: value beta^2/2
    up to the transition at 1/sqrt(2), then sqrt(2) beta - 3/4 - log(sqrt(2) beta)/2."""
    if beta <= 1 / np.sqrt(2):
        return beta**2 / 2
    a = np.sqrt(2) * beta
    return a - 0.75 - 0.5 * np.log(a)


def test_single_copy_exactly_solvable_values():
    # checks both branches and the matching point
    config = PathSearchConfig(max_levels=2, restarts=2, max_iterations=250)
    for beta in (0.5, 0.8, 1.2):
        spec = MixtureSpec(1, {2: [beta]})
        rep = minimize_over_paths(Q1, np.zeros(1), spec, config, seed=11)
        assert rep.best_value == pytest.approx(_single_copy_value(beta), abs=2e-6)


def test_single_copy_values_to_the_breakpoint_floor():
    # the optima sit at x_{r-1} -> 1, which the breakpoint box reaches to
    # within 1e-8, so the search is exact far below the 2e-6 above
    config = PathSearchConfig(max_levels=2, restarts=2, max_iterations=250)
    for beta in (0.5, 0.8, 1.2):
        spec = MixtureSpec(1, {2: [beta]})
        rep = minimize_over_paths(Q1, np.zeros(1), spec, config, seed=11)
        assert rep.best_value == pytest.approx(_single_copy_value(beta), abs=1e-8)


def test_single_copy_level_one_reaches_the_replica_symmetric_corner():
    # at r = 1 the infimum is the corner x_0 -> 1, value beta^2 / 2 = 0.5
    spec = MixtureSpec(1, {2: [1.0]})
    rep = minimize_over_paths(Q1, np.zeros(1), spec, PathSearchConfig(**SK_CONFIG), seed=1)
    assert rep.per_level_values[0] == (1, pytest.approx(0.5, abs=1e-9))


def test_best_value_is_the_returned_levels_own_value():
    # at beta = 0.8 levels 2 and 3 tie within VALUE_TOLERANCE: parsimony
    # returns the level-2 path, and best_value must be that path's value,
    # which the final cold inner solve on it reproduces
    spec = MixtureSpec(1, {2: [0.8]})
    rep = minimize_over_paths(Q1, np.zeros(1), spec, PathSearchConfig(**SK_CONFIG), seed=1)
    levels = dict(rep.per_level_values)
    assert rep.best_path.r == 2
    assert abs(levels[3] - levels[2]) <= VALUE_TOLERANCE
    assert rep.best_value == levels[2]
    assert rep.best_value == pytest.approx(rep.inner.value, abs=1e-12)


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


@pytest.mark.parametrize("family", sorted(_FAMILIES))
def test_level_monotonicity_two_copies(rng, family):
    q = random_constraint(rng, 2)
    spec = MixtureSpec(2, {2: [0.5, 0.4]})
    config = PathSearchConfig(max_levels=3, restarts=1, max_iterations=120, q_parameterization=family)
    report = minimize_over_paths(q, np.zeros(2), spec, config, seed=11)
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


def test_cholesky_increments_normalize_the_grams_once_per_objective_call(monkeypatch):
    # chain hands the eigh of the Gram sum to the pullback: a level-r >= 2
    # objective call makes one, level 1 has no middle level and makes none,
    # and each level r >= 2 makes one more for its winning path
    import sphglass.optimizer as optimizer

    eighs = [0]
    eigh = np.linalg.eigh
    search = optimizer.scipy_minimize
    starts = []  # (level, objective calls, eigh calls) per start

    def counted_eigh(a, *args, **kwargs):
        eighs[0] += 1
        return eigh(a, *args, **kwargs)

    def counted_search(fun, x0, **options):
        calls = [0]

        def counted_fun(vec):
            calls[0] += 1
            return fun(vec)

        before = eighs[0]
        res = search(counted_fun, x0, **options)
        level = next(r for r in (1, 2) if _FAMILIES["cholesky_increments"](r, PAIR_Q).n_params == x0.size)
        starts.append((level, calls[0], eighs[0] - before))
        return res

    q = ConstraintMatrix(PAIR_Q)
    monkeypatch.setattr(np.linalg, "eigh", counted_eigh)
    monkeypatch.setattr(optimizer, "scipy_minimize", counted_search)
    config = PathSearchConfig(q_parameterization="cholesky_increments", **PAIR_CONFIG)
    minimize_over_paths(q, np.zeros(2), PAIR_SPEC, config, seed=1)
    assert sorted({level for level, _, _ in starts}) == [1, 2]
    for level, calls, made in starts:
        assert made == (calls if level == 2 else 0), (level, calls, made)
    assert eighs[0] == sum(made for _, _, made in starts) + 1


@pytest.mark.parametrize("family", ["scalar_profile", "cholesky_increments"])
def test_deep_search_returns_a_valid_path(family):
    # twelve levels share the breakpoint box: every gap must stay positive
    config = PathSearchConfig(q_parameterization=family, **{**PAIR_CONFIG, "max_levels": 12})
    report = minimize_over_paths(PAIR_Q, np.zeros(2), PAIR_SPEC, config, seed=1)
    assert validate_path(report.best_path, PAIR_Q).ok


@pytest.mark.parametrize("name", sorted(_FAMILIES))
@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("r", [1, 2, 3])
def test_family_starts_lie_inside_their_bounds(rng, name, n, r):
    # L-BFGS-B silently clips a start that lies outside its bounds
    q = random_constraint(rng, n).matrix
    family = _FAMILIES[name](r, q)
    starts = family.starts(PathSearchConfig(restarts=3, x_grid_resolution=0.25), seed=4)
    # default and corner, three restarts, and the 0.25 grid at r = 1
    assert len(starts) == 2 + 3 + (3 if r == 1 else 0)
    # the default grid is empty: the default, the corner and the restarts
    assert len(family.starts(PathSearchConfig(restarts=3), seed=4)) == 2 + 3
    # r = 1 has no middle level, so no level parameter
    if r == 1:
        assert family.n_params == r + 1
    bounds = family.bounds()
    assert len(bounds) == family.n_params
    lower = np.array([-np.inf if lo is None else lo for lo, _ in bounds])
    upper = np.array([np.inf if hi is None else hi for _, hi in bounds])
    for start in starts:
        assert start.shape == (family.n_params,)
        assert np.all(lower <= start) and np.all(start <= upper)


def _judge_model(i: int):
    # n = 1..4 against three temperatures, each pair once; a field on i >= 6
    rng = np.random.default_rng(2000 + i)
    n = 1 + i % 4
    q = random_constraint(rng, n)
    spec = random_mixture(rng, n, scale=(0.5, 1.25, 2.0)[i % 3])
    h = rng.uniform(-0.5, 0.5, size=n) if i >= 6 else np.zeros(n)
    return q, spec, h


# best_value of each _judge_model(i), seed i, as the search with the level
# warm start found it (max_levels=3, restarts=1, max_iterations=150)
JUDGE_VALUES = {
    "scalar_profile": (
        0.0457903076, 0.4703754040, 0.5680339023, 0.1649622284, 0.4132157904, 0.5408880611,
        0.3053136084, 1.0414757809, 0.4289244632, -0.1017850557, 0.5867454180, 3.3995469752,
    ),
    "cholesky_increments": (
        0.0457903076, 0.4693474812, 0.5657863573, 0.1649622284, 0.4132157904, 0.5373887048,
        0.3017715032, 1.0359141358, 0.4289117604, -0.1018017575, 0.5809504582, 3.3318365160,
    ),
}


@pytest.mark.parametrize("family", sorted(JUDGE_VALUES))
def test_search_reaches_the_pinned_values(family):
    # the search gate: a change to the starts or the level loop may lower
    # these values but not raise any by more than the tie tolerance
    config = PathSearchConfig(max_levels=3, restarts=1, max_iterations=150, q_parameterization=family)
    for i, pinned in enumerate(JUDGE_VALUES[family]):
        q, spec, h = _judge_model(i)
        report = minimize_over_paths(q, h, spec, config, seed=i)
        assert report.best_value <= pinned + VALUE_TOLERANCE, f"model {i}"


@pytest.mark.parametrize("family", sorted(JUDGE_VALUES))
def test_level_one_grid_repeats_the_default_and_corner_optimum(monkeypatch, family):
    # r = 1 searches the one breakpoint x_0, convex in it for n = 1: the
    # default search, with no grid, reaches the value of the 0.25 grid's
    # search in fewer objective calls
    import sphglass.optimizer as optimizer

    solve = optimizer.scipy_minimize
    calls = []

    def counting(*args, **kwargs):
        res = solve(*args, **kwargs)
        calls[-1] += res.nfev
        return res

    monkeypatch.setattr(optimizer, "scipy_minimize", counting)
    for i in range(len(JUDGE_VALUES[family])):
        q, spec, h = _judge_model(i)
        values = []
        for config in (PathSearchConfig(max_levels=1, q_parameterization=family),
                       PathSearchConfig(max_levels=1, q_parameterization=family, x_grid_resolution=0.25)):
            calls.append(0)
            values.append(minimize_over_paths(q, h, spec, config, seed=i).best_value)
        assert abs(values[0] - values[1]) <= 1e-12, f"model {i}"
        assert calls[-2] < calls[-1], f"model {i}"


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
    config = PathSearchConfig(**SK_CONFIG)
    report = minimize_over_paths(Q1, np.zeros(1), MixtureSpec(1, {2: [1.0]}), config, seed=1)
    assert report.best_value == pytest.approx(np.sqrt(2) - 0.75 - 0.25 * np.log(2.0), abs=2e-6)
    assert calls[0] <= 160


# the benchmark's sk-minimize and pair-sweep configs at seed 1
SK_MINIMIZE = {
    "task": "minimize",
    "n": 1,
    "mixture": {"2": [1.0]},
    "Q": [[1.0]],
    "seed": 1,
    "search": {"max_levels": 3, "restarts": 1, "max_iterations": 150, "x_grid_resolution": 0.5},
}
PAIR_SWEEP = {
    "task": "sweep",
    "n": 2,
    "mixture": {"2": [0.9, 0.9], "4": [0.4, 0.4]},
    "Q": [[1.0, 0.5], [0.5, 1.0]],
    "seed": 1,
    "search": {"max_levels": 2, "restarts": 0, "max_iterations": 60},
    "sweep": {"parameter": "q12", "values": [0.3, 0.7]},
}


@pytest.mark.parametrize(
    "config, pinned", [(SK_MINIMIZE, (106, 297, 297)), (PAIR_SWEEP, (84, 259, 259))], ids=["sk-minimize", "pair-sweep"]
)
def test_search_work_is_pinned(monkeypatch, config, pinned):
    # a trim of the path kernel keeps the search's work: its objective
    # calls, the Newton steps of their inner solves and the Hessians built
    import sphglass.optimizer as optimizer
    from sphglass import cli

    counts = [0, 0, 0]
    search, solve, hessian = optimizer.scipy_minimize, optimizer._inner_minimize_ctx, _PathContext.hessian

    def counted_search(*args, **kwargs):
        res = search(*args, **kwargs)
        counts[0] += res.nfev
        return res

    def counted_solve(ctx, lam0=None):
        report, factored = solve(ctx, lam0=lam0)
        counts[1] += report.iterations
        return report, factored

    def counted_hessian(ctx, factored):
        counts[2] += 1
        return hessian(ctx, factored)

    monkeypatch.setattr(optimizer, "scipy_minimize", counted_search)
    monkeypatch.setattr(optimizer, "_inner_minimize_ctx", counted_solve)
    monkeypatch.setattr(_PathContext, "hessian", counted_hessian)
    code, _ = cli.run(cli.load_config(json.dumps(config)))
    assert code == 0
    assert tuple(counts) == pinned


def test_search_cholesky_count_on_the_exact_model(monkeypatch):
    # the path gradient reuses the factors of the inner solve's final
    # iterate, so an objective call makes no Cholesky call of its own beyond
    # the Newton loop's (sk-minimize config, seed 1); the chain goes through
    # the kernel's gufunc, Q and the search family through np.linalg
    calls = [0]

    def counting(cholesky):
        def counted(a):
            calls[0] += 1
            return cholesky(a)

        return counted

    monkeypatch.setattr(_lapack, "cholesky", counting(_lapack.cholesky))
    monkeypatch.setattr(np.linalg, "cholesky", counting(np.linalg.cholesky))
    config = PathSearchConfig(**SK_CONFIG)
    minimize_over_paths(Q1, np.zeros(1), MixtureSpec(1, {2: [1.0]}), config, seed=1)
    assert calls[0] <= 750


def test_config_validation():
    with pytest.raises(ValueError):
        PathSearchConfig(max_levels=0)
    with pytest.raises(ValueError):
        PathSearchConfig(x_grid_resolution=-1.0)
    # the grid of level-1 starts is bounded: at most 99 breakpoints
    with pytest.raises(ValueError, match="x_grid_resolution must be at least 0.01"):
        PathSearchConfig(x_grid_resolution=1e-3)
    with pytest.raises(ValueError):
        PathSearchConfig(x_grid_resolution=float("nan"))
    PathSearchConfig(x_grid_resolution=MIN_X_GRID_RESOLUTION)
    with pytest.raises(ValueError):
        PathSearchConfig(q_parameterization="other")


@pytest.mark.parametrize(
    "field, value",
    [
        ("max_levels", 2.5),
        ("max_levels", True),
        ("restarts", 1.5),
        ("restarts", True),
        ("restarts", "2"),
        ("max_iterations", 2.0),
        ("x_grid_resolution", True),
        ("x_grid_resolution", "0.5"),
        ("x_grid_resolution", float("inf")),
    ],
)
def test_search_config_refuses_a_non_integer_budget_or_non_finite_grid(field, value):
    # such a budget used to pass here and fail later inside the search
    with pytest.raises(InvalidField, match=f"^{field} must be") as caught:
        PathSearchConfig(**{field: value})
    assert caught.value.field == field


class _StopSearch(Exception):
    pass


def test_failed_eigenvalues_score_inf_and_raise(rng, monkeypatch):
    # a failed eigvalsh gufunc returns NaN where np.linalg raised
    # LinAlgError; the non-finite value still raises it, so the search's
    # objective scores the candidate inf and evaluate raises
    q = random_constraint(rng, 2)
    spec = random_mixture(rng, 2)
    h = np.array([0.2, -0.1])
    path = random_path(rng, q.matrix, 2)
    lam = random_multiplier(rng, path, spec)
    monkeypatch.setattr(_lapack, "eigvalsh", lambda a: np.full(a.shape[:-1], np.nan))
    with pytest.raises(np.linalg.LinAlgError):
        evaluate(lam, path, q, h, spec)

    scored = []

    def first_call(fun, x0, **options):
        scored.append(fun(x0))
        raise _StopSearch

    import sphglass.optimizer as optimizer

    monkeypatch.setattr(optimizer, "scipy_minimize", first_call)
    with pytest.raises(_StopSearch):
        minimize_over_paths(q, h, spec, fast_config(), seed=1)
    value, grad = scored[0]
    assert value == np.inf
    assert not grad.any()


def test_singular_newton_system_takes_the_steepest_descent_step(rng, monkeypatch):
    # a singular Newton system makes the solve gufunc return NaN, not raise:
    # the step is then along minus the gradient, as it was on LinAlgError
    q = random_constraint(rng, 2)
    spec = random_mixture(rng, 2)
    h = np.array([0.2, -0.1])
    path = random_path(rng, q.matrix, 2)
    ctx = _PathContext.of(path, q, h, spec)
    lam0 = random_multiplier(rng, path, spec, margin=0.5)
    grad0 = ctx.gradient(ctx.member_factors(lam0))

    solve = _lapack.solve
    trials = []
    feasible_value = _PathContext.feasible_value

    def recording_feasible_value(self, lam):
        trials.append(lam)
        return feasible_value(self, lam)

    monkeypatch.setattr(_lapack, "solve", lambda a, b: solve(np.zeros_like(a), b))
    monkeypatch.setattr(_PathContext, "feasible_value", recording_feasible_value)
    rep, _ = _inner_minimize_ctx(ctx, lam0=lam0)
    assert rep.iterations >= 1
    assert rep.value < ctx.member_factors(lam0).value
    step = trials[1] - lam0  # trials[0] is the warm-start probe at lam0
    assert np.allclose(step / np.linalg.norm(step), -grad0 / np.linalg.norm(grad0), rtol=0, atol=1e-12)


def test_failed_gufuncs_warn_nowhere(rng):
    # the gufuncs flag a failure as "invalid"; every public entry that can
    # meet one runs them under the kernel's error state, so no
    # RuntimeWarning escapes whatever the filter
    q = random_constraint(rng, 2)
    spec = random_mixture(rng, 2)
    h = np.array([0.2, -0.1])
    path = random_path(rng, q.matrix, 2)
    outside = -np.eye(2)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NotInL):
            evaluate(outside, path, q, h, spec)
        with pytest.raises(NotInL):
            inner_gradient(outside, path, q, h, spec)
        report = inner_minimize(path, q, h, spec, lambda_init=outside)
        assert report.status == "converged"
