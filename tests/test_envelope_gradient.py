"""The path gradient of the inner-solved functional and its pullbacks.

V(path) = min_Lambda P(Lambda, path) is differentiated by the envelope
theorem: ``_PathContext.envelope_gradient`` at the inner minimizer.  Every
check here is against central differences of V itself, each side solved
again by the inner Newton loop.
"""

import numpy as np
import pytest

from sphglass.functional import _PathContext
from sphglass.geometry import DiscretePath
from sphglass.optimizer import (
    _CholeskyIncrements,
    _ScalarProfile,
    _clamped_xs,
    _inner_minimize_ctx,
)

from conftest import random_constraint, random_mixture, random_path

STEP = 1e-6


def _solved(path, q, h, spec):
    ctx = _PathContext(path, q, h, spec)
    return ctx, _inner_minimize_ctx(ctx)[0]


def _central(value_at):
    return (value_at(STEP) - value_at(-STEP)) / (2.0 * STEP)


def _model(rng, n, field):
    q = random_constraint(rng, n).matrix
    spec = random_mixture(rng, n)
    h = rng.uniform(-0.5, 0.5, size=n) if field else np.zeros(n)
    return q, h, spec


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("r", [1, 2, 3])
@pytest.mark.parametrize("field", [False, True])
def test_envelope_gradient_matches_central_differences(rng, n, r, field):
    q, h, spec = _model(rng, n, field)
    path = random_path(rng, q, r)
    ctx, rep = _solved(path, q, h, spec)
    assert rep.status == "converged"
    grad_x, grad_q = ctx.envelope_gradient(rep.lambda_star)
    assert grad_x.shape == (r,)
    assert grad_q.shape == (r - 1, n, n)

    def value(xs, qs):
        return _solved(DiscretePath(xs=xs, qs=qs), q, h, spec)[1].value

    for m in range(r):
        unit = np.zeros(r + 2)
        unit[m + 1] = 1.0
        fd = _central(lambda t: value(path.xs + t * unit, path.qs))
        assert grad_x[m] == pytest.approx(fd, rel=1e-6, abs=1e-7), f"x_{m}"
    for k in range(1, r):
        for a in range(n):
            for b in range(a, n):
                unit = np.zeros((r + 1, n, n))
                unit[k, a, b] = unit[k, b, a] = 1.0
                fd = _central(lambda t: value(path.xs, path.qs + t * unit))
                analytic = float(np.sum(grad_q[k - 1] * unit[k]))
                assert analytic == pytest.approx(fd, rel=1e-6, abs=1e-7), f"Q_{k}[{a}, {b}]"


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("r", [1, 2, 3])
@pytest.mark.parametrize("field", [False, True])
def test_envelope_gradient_from_the_solved_factors_is_bitwise_fresh(rng, n, r, field):
    # the inner solve returns its final iterate's (value, chol, increments);
    # the gradient from them must not differ in a single bit from the one
    # that factors the chain again
    q, h, spec = _model(rng, n, field)
    path = random_path(rng, q, r)
    ctx = _PathContext(path, q, h, spec)
    rep, factored = _inner_minimize_ctx(ctx)
    assert factored[0] == rep.value
    fresh_x, fresh_q = ctx.envelope_gradient(rep.lambda_star)
    handed_x, handed_q = ctx.envelope_gradient(rep.lambda_star, factored)
    assert np.array_equal(fresh_x, handed_x)
    assert np.array_equal(fresh_q, handed_q)


def _check_pullback(param, params, q, h, spec, tol=1e-7):
    ctx, rep = _solved(param.path(params), q, h, spec)
    assert rep.status == "converged"
    grad = param.pullback(params, *ctx.envelope_gradient(rep.lambda_star))
    assert grad.shape == params.shape
    for i in range(params.size):
        unit = np.zeros(params.size)
        unit[i] = 1.0
        fd = _central(lambda t: _solved(param.path(params + t * unit), q, h, spec)[1].value)
        assert grad[i] == pytest.approx(fd, rel=1e-6, abs=tol), f"parameter {i}"


@pytest.mark.parametrize("family", [_ScalarProfile, _CholeskyIncrements])
@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("r", [1, 2, 3])
@pytest.mark.parametrize("field", [False, True])
def test_pullback_matches_central_differences(rng, family, n, r, field):
    q, h, spec = _model(rng, n, field)
    param = family(r, q)
    params = param.default() + rng.normal(0.0, 0.5, size=param.n_params)
    assert not np.any(_clamped_xs(params[: r + 1])[1])  # an interior path
    _check_pullback(param, params, q, h, spec)


@pytest.mark.parametrize("family", [_ScalarProfile, _CholeskyIncrements])
@pytest.mark.parametrize("weights, clamp", [([0.0, -50.0, 0.0], 1), ([0.0, 0.0, -14.0], 2)])
def test_pullback_through_the_breakpoint_clamps(rng, family, weights, clamp):
    # x_1 pinned to x_0 + X_LOWER (clamp 1) or to the top of the box
    # (clamp 2: the softmax share 1 - 4e-7 lies above the top 1 - 1e-6, so
    # a gradient leaking through the clamp would show at 1e-8): the
    # pullback must follow the clamp as implemented
    q, h, spec = _model(rng, 2, True)
    param = family(2, q)
    params = param.default()
    params[:3] = weights
    assert list(_clamped_xs(params[:3])[1]) == [0, clamp]
    _check_pullback(param, params, q, h, spec, tol=2e-9)
