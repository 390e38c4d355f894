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
from sphglass.mixture import MixtureSpec, xi_second_matrix
from sphglass.optimizer import (
    _CholeskyIncrements,
    _ScalarProfile,
    _inner_minimize_ctx,
)

from conftest import random_constraint, random_mixture, random_path

STEP = 1e-6


def _solved(path, q, h, spec):
    """The context, the inner solve's report and its final iterate's factors."""
    ctx = _PathContext.of(path, q, h, spec)
    return (ctx, *_inner_minimize_ctx(ctx))


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
    ctx, rep, factored = _solved(path, q, h, spec)
    assert rep.status == "converged"
    grad_x, grad_q = ctx.envelope_gradient(factored)
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
@pytest.mark.parametrize("degrees", [(2,), (4,), (2, 4)])
def test_context_xi_second_is_the_mixture_kernel_bitwise(rng, n, r, degrees):
    # the context takes xi'' of Q_1..Q_{r-1} from its one checked mixture
    # pass, and it must be the public kernel's value to the bit
    q = random_constraint(rng, n).matrix
    spec = MixtureSpec(n, {p: rng.uniform(0.1, 1.0, size=n) for p in degrees})
    path = random_path(rng, q, r)
    ctx = _PathContext.of(path, q, np.zeros(n), spec)
    assert ctx.xi_seconds.shape == (r - 1, n, n)
    assert np.array_equal(ctx.xi_seconds, xi_second_matrix(spec, path.qs[1:-1]))


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("r", [1, 2, 3])
@pytest.mark.parametrize("field", [False, True])
def test_the_solved_factors_are_those_of_the_returned_multiplier(rng, n, r, field):
    # the inner solve hands back its final iterate's factors: the path
    # gradient from them must not differ in a single bit from the one at the
    # factors of the multiplier it reports
    q, h, spec = _model(rng, n, field)
    path = random_path(rng, q, r)
    ctx, rep, factored = _solved(path, q, h, spec)
    assert factored.value == rep.value
    fresh_x, fresh_q = ctx.envelope_gradient(ctx.member_factors(rep.lambda_star))
    handed_x, handed_q = ctx.envelope_gradient(factored)
    assert np.array_equal(fresh_x, handed_x)
    assert np.array_equal(fresh_q, handed_q)


def _check_pullback(param, params, q, h, spec):
    ctx, rep, factored = _solved(param.path(params), q, h, spec)
    assert rep.status == "converged"
    grad = param.pullback(params, param.chain(params)[2], *ctx.envelope_gradient(factored))
    assert grad.shape == params.shape
    for i in range(params.size):
        unit = np.zeros(params.size)
        unit[i] = 1.0
        fd = _central(lambda t: _solved(param.path(params + t * unit), q, h, spec)[1].value)
        assert grad[i] == pytest.approx(fd, rel=1e-6, abs=1e-7), f"parameter {i}"


@pytest.mark.parametrize("family", [_ScalarProfile, _CholeskyIncrements])
@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("r", [1, 2, 3])
@pytest.mark.parametrize("field", [False, True])
def test_pullback_matches_central_differences(rng, family, n, r, field):
    # the breakpoint weights are drawn inside their box; the second input
    # puts the last one a few steps above its floor, so x_{r-1} sits within
    # about 3e-6 of 1 and each central difference stays inside the box
    q, h, spec = _model(rng, n, field)
    param = family(r, q)
    params = param.default() + rng.normal(0.0, 0.5, size=param.n_params)
    params[: r + 1] = rng.uniform(0.2, 1.0, size=r + 1)
    near_floor = params.copy()
    near_floor[r] = param.floor + 3.0 * STEP
    for point in (params, near_floor):
        _check_pullback(param, point, q, h, spec)
