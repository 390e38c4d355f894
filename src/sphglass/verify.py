"""Seeded verification suites that judge the path kernel.

Shared by the ``verify-identities`` subcommand and the acceptance tests.  Each
suite runs the kernel itself, ``functional._PathContext``, on the one-level
path 0 -> C with breakpoint x and the pure p = 2 mixture beta = 1/sqrt(2) on
every copy, so that xi'(Q) = Q and Delta_1 = C:

- the Gaussian quadratic-form identity: the kernel's ``closed_form_Y0`` at
  L = A with field y against the Gaussian integral
  (1/x) log E exp((x/2) (A^{-1}(y + g), y + g)) - 1/2 log|A|, g ~ N(0, C),
  taken by reduction to the range of C, and optionally against a Monte Carlo
  mean of the same expectation;
- the small-x_0 limit: the kernel's cascade term
  (1/(2 x_0)) log(|L_1| / |L_1 - x_0 Delta_1|) at x_0 = ``JACOBI_X0``
  against its trace limit 1/2 tr(L_1^{-1} Delta_1).
"""

from __future__ import annotations

import numpy as np

from sphglass.functional import _PathContext, _sym, closed_form_Y0, logdet_pd, solve_pd
from sphglass.geometry import DiscretePath
from sphglass.mixture import MixtureSpec, check_count
from sphglass.parallel import standard_error, stream

__all__ = [
    "random_identity_instance",
    "identity_suite",
    "mc_identity_check",
    "jacobi_suite",
]

IDENTITY_TOL = 1e-12
JACOBI_TOL = 1e-4
JACOBI_X0 = 1e-6


def _one_level(c: np.ndarray, x: float) -> tuple[DiscretePath, MixtureSpec]:
    """The path 0 -> C with breakpoint x, and the mixture whose xi'(Q) is Q."""
    n = c.shape[0]
    path = DiscretePath(xs=[0.0, x, 1.0], qs=[np.zeros((n, n)), c])
    return path, MixtureSpec(n, {2: np.full(n, np.sqrt(0.5))})


def _kernel_side(a: np.ndarray, c: np.ndarray, x: float, y: np.ndarray) -> float:
    """``closed_form_Y0`` at L = A with field y on ``_one_level(c, x)``:

    (1/(2x)) log(|A| / |A - xC|) + 1/2 ((A - xC)^{-1} y, y) - 1/2 log|A|.
    Raises NotInL when A - xC is not positive definite.
    """
    path, spec = _one_level(c, x)
    return closed_form_Y0(a, path, y, spec)


def _range_factor(c: np.ndarray) -> np.ndarray:
    """W with W W^T = C on the range of C, so W z is N(0, C) for standard normal z."""
    eigs, vecs = np.linalg.eigh(c)
    keep = eigs > max(float(eigs[-1]), 0.0) * 1e-14
    return vecs[:, keep] * np.sqrt(eigs[keep])


def _gaussian_integral(a: np.ndarray, c: np.ndarray, x: float, y: np.ndarray) -> float:
    """(1/x) log E exp((x/2) (A^{-1}(y + g), y + g)) - 1/2 log|A| for g ~ N(0, C).

    With g = W z (``_range_factor``) the exponent is x/2 (A^{-1}y, y)
    + b^T z + 1/2 z^T M z, where M = x W^T A^{-1} W and b = x W^T A^{-1} y,
    so the expectation is exp(x/2 (A^{-1}y, y)) |I - M|^{-1/2}
    exp(1/2 ((I - M)^{-1} b, b)).  A PSD-singular C is fine.  Raises
    LinAlgError when I - M is not positive definite: the expectation diverges.
    """
    w = _range_factor(c)
    a_inv_y = solve_pd(a, y)
    value = 0.5 * float(y @ a_inv_y) - 0.5 * logdet_pd(a)
    if w.shape[1] == 0:
        return value
    m = x * (w.T @ solve_pd(a, w))
    b = x * (w.T @ a_inv_y)
    eye_m = _sym(np.eye(m.shape[0]) - m)
    return value + 0.5 * (float(b @ solve_pd(eye_m, b)) - logdet_pd(eye_m)) / x


def _random_pd(rng: np.random.Generator, n: int, floor: float = 0.4) -> np.ndarray:
    g = rng.standard_normal((n, n))
    return g @ g.T / n + floor * np.eye(n)


def random_identity_instance(rng: np.random.Generator, n_max: int = 4, mc_safe: bool = False):
    """Random (A, C, x, y) with A - xC comfortably PD.

    With ``mc_safe`` the instance also keeps A - 2xC PD so the Monte Carlo
    estimator of E exp((x/2) quadratic) has a finite second moment and its
    standard error is meaningful.
    """
    n = int(rng.integers(1, n_max + 1))
    a = _random_pd(rng, n)
    g = rng.standard_normal((n, n))
    c = g @ g.T / n
    x = float(rng.uniform(0.15, 1.0))
    lam_min_a = float(np.linalg.eigvalsh(a)[0])
    top_c = float(np.linalg.eigvalsh(c)[-1])
    frac = 0.4 if mc_safe else 0.85
    if top_c > 0:
        c = c * (frac * lam_min_a / (x * top_c)) * float(rng.uniform(0.3, 1.0))
    y = rng.standard_normal(n)
    return a, c, x, y


def identity_suite(seed: int, count: int = 100, n_max: int = 4) -> list[dict]:
    """The kernel's closed form vs the Gaussian integral on ``count`` random instances."""
    count = check_count(count, "count", 0)
    rng = stream(seed, 31)
    checks = []
    for i in range(count):
        a, c, x, y = random_identity_instance(rng, n_max=n_max)
        kernel = _kernel_side(a, c, x, y)
        judge = _gaussian_integral(a, c, x, y)
        err = abs(kernel - judge) / max(1.0, abs(judge))
        checks.append(
            {
                "name": "gaussian_quadratic_identity",
                "instance": i,
                "kernel": kernel,
                "gaussian_integral": judge,
                "relative_error": err,
                "tolerance": IDENTITY_TOL,
                "pass": bool(err <= IDENTITY_TOL),
            }
        )
    return checks


def mc_identity_check(seed: int, count: int = 10, samples: int = 1_000_000, n_max: int = 4) -> list[dict]:
    """Monte Carlo estimate of E exp((x/2) (A^{-1}(y + g), y + g)) vs the
    kernel's closed form; ``samples`` is at least 2, for a standard error."""
    count = check_count(count, "count", 0)
    samples = check_count(samples, "samples", 2)
    rng = stream(seed, 32)
    checks = []
    for i in range(count):
        a, c, x, y = random_identity_instance(rng, n_max=n_max, mc_safe=True)
        factor = _range_factor(c)
        w = rng.standard_normal((samples, factor.shape[1])) @ factor.T + y
        quad = np.einsum("si,ij,sj->s", w, solve_pd(a, np.eye(a.shape[0])), w)
        vals = np.exp(0.5 * x * quad)
        mean = float(np.mean(vals))
        se = standard_error(vals)
        target = float(np.exp(x * (_kernel_side(a, c, x, y) + 0.5 * logdet_pd(a))))
        checks.append(
            {
                "name": "gaussian_identity_mc",
                "instance": i,
                "mc_mean": mean,
                "mc_stderr": se,
                "closed_form": target,
                "pass": bool(abs(mean - target) <= 3.0 * se),
            }
        )
    return checks


def jacobi_suite(seed: int, count: int = 50, n_max: int = 4, x0: float = JACOBI_X0) -> list[dict]:
    """|kernel's cascade term at x0 - trace limit| <= 1e-4 on random PD pairs."""
    count = check_count(count, "count", 0)
    rng = stream(seed, 33)
    checks = []
    for i in range(count):
        n = int(rng.integers(1, n_max + 1))
        lam1 = _random_pd(rng, n)
        g = rng.standard_normal((n, n))
        delta1 = g @ g.T / n
        top = float(np.linalg.eigvalsh(delta1)[-1])
        if top > 2.0:
            delta1 = delta1 * (2.0 / top)
        path, spec = _one_level(delta1, x0)
        kernel_term = _PathContext.of(path, None, np.zeros(n), spec).breakdown(lam1).cascade_term
        limit = 0.5 * float(np.trace(np.linalg.solve(lam1, delta1)))
        err = abs(kernel_term - limit)
        checks.append(
            {
                "name": "jacobi_limit",
                "instance": i,
                "kernel_term": kernel_term,
                "trace_limit": limit,
                "abs_error": err,
                "tolerance": JACOBI_TOL,
                "pass": bool(err <= JACOBI_TOL),
            }
        )
    return checks
