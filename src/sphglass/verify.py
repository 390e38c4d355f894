"""Seeded verification suites for the two determinant identities.

Shared by the ``verify-identities`` subcommand and the acceptance tests: the
Gaussian quadratic-form identity (two closed-form routes, optionally cross
checked by Monte Carlo) and the small-x limit of the log-determinant ratio
against its trace form.
"""

from __future__ import annotations

import numpy as np

from sphglass.functional import gaussian_quadratic_identity, jacobi_limit_term, logdet_pd, solve_pd
from sphglass.mixture import check_count
from sphglass.parallel import stream

__all__ = [
    "random_identity_instance",
    "identity_suite",
    "mc_identity_check",
    "jacobi_suite",
]

IDENTITY_TOL = 1e-12
JACOBI_TOL = 1e-4
JACOBI_X0 = 1e-6


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
    """Closed-form left vs right side on ``count`` random instances."""
    count = check_count(count, "count", 0)
    rng = stream(seed, 31)
    checks = []
    for i in range(count):
        a, c, x, y = random_identity_instance(rng, n_max=n_max)
        lhs, rhs = gaussian_quadratic_identity(a, c, x, y)
        err = abs(lhs - rhs) / max(1.0, abs(rhs))
        checks.append(
            {
                "name": "gaussian_quadratic_identity",
                "instance": i,
                "lhs": lhs,
                "rhs": rhs,
                "relative_error": err,
                "tolerance": IDENTITY_TOL,
                "pass": bool(err <= IDENTITY_TOL),
            }
        )
    return checks


def mc_identity_check(seed: int, count: int = 10, samples: int = 1_000_000, n_max: int = 4) -> list[dict]:
    """Monte Carlo estimate of the left expectation vs the closed form;
    ``samples`` is at least 2, for a standard error."""
    count = check_count(count, "count", 0)
    samples = check_count(samples, "samples", 2)
    rng = stream(seed, 32)
    checks = []
    for i in range(count):
        a, c, x, y = random_identity_instance(rng, n_max=n_max, mc_safe=True)
        lhs, rhs = gaussian_quadratic_identity(a, c, x, y)
        n = a.shape[0]
        eigs, vecs = np.linalg.eigh(c)
        factor = vecs * np.sqrt(np.clip(eigs, 0.0, None))
        g = rng.standard_normal((samples, n)) @ factor.T
        w = g + y
        quad = np.einsum("si,ij,sj->s", w, solve_pd(a, np.eye(n)), w)
        vals = np.exp(0.5 * x * quad)
        mean = float(np.mean(vals))
        se = float(np.std(vals, ddof=1) / np.sqrt(samples))
        target = float(np.exp(x * rhs))
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
    """|log-ratio term at x0 - trace limit| <= 1e-4 on random PD pairs."""
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
        ratio_term = (logdet_pd(lam1) - logdet_pd(lam1 - x0 * delta1)) / (2.0 * x0)
        limit = jacobi_limit_term(lam1, delta1)
        err = abs(ratio_term - limit)
        checks.append(
            {
                "name": "jacobi_limit",
                "instance": i,
                "ratio_term": ratio_term,
                "trace_limit": limit,
                "abs_error": err,
                "tolerance": JACOBI_TOL,
                "pass": bool(err <= JACOBI_TOL),
            }
        )
    return checks
