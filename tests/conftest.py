"""Shared generators and independent oracles for the test suite."""

import math

import numpy as np
import pytest

from sphglass.functional import FunctionalBreakdown
from sphglass.geometry import ConstraintMatrix, DiscretePath
from sphglass.mixture import MixtureSpec, delta_increments, theta_matrix


def random_constraint(rng: np.random.Generator, n: int, min_eig: float = 0.05) -> ConstraintMatrix:
    """Random positive definite correlation-style constraint with unit diagonal."""
    while True:
        g = rng.standard_normal((n, max(n + 2, 2 * n)))
        m = g @ g.T / g.shape[1] + 0.2 * np.eye(n)
        d = np.sqrt(np.diag(m))
        q = m / np.outer(d, d)
        q = (q + q.T) / 2.0
        np.fill_diagonal(q, 1.0)
        if np.linalg.eigvalsh(q)[0] > min_eig:
            return ConstraintMatrix(q)


def random_path(rng: np.random.Generator, q: np.ndarray, r: int) -> DiscretePath:
    """Random monotone PSD chain from 0 to q with r levels and random breakpoints.

    The levels are chol W_k chol^T for partial sums W_k of random Gram
    matrices normalized to W_r = I; for a singular q, whose Cholesky
    factorization fails, chol is a square root of q from its eigenbasis.
    """
    n = q.shape[0]
    try:
        chol = np.linalg.cholesky(q)
    except np.linalg.LinAlgError:
        evals, evecs = np.linalg.eigh(q)
        chol = evecs * np.sqrt(np.clip(evals, 0.0, None))
    grams = []
    for _ in range(r):
        a = rng.standard_normal((n, n))
        grams.append(a @ a.T + 1e-6 * np.eye(n))
    total = np.sum(grams, axis=0)
    evals, evecs = np.linalg.eigh(total)
    inv_sqrt = evecs @ np.diag(evals ** -0.5) @ evecs.T
    qs = np.zeros((r + 1, n, n))
    partial = np.zeros((n, n))
    for k in range(1, r):
        partial = partial + grams[k - 1]
        w = inv_sqrt @ partial @ inv_sqrt
        mat = chol @ ((w + w.T) / 2.0) @ chol.T
        qs[k] = (mat + mat.T) / 2.0
    qs[r] = q
    cuts = np.sort(rng.uniform(0.05, 0.95, size=r))
    xs = np.concatenate([[0.0], cuts, [1.0]])
    return DiscretePath(xs=xs, qs=qs)


def random_mixture(rng: np.random.Generator, n: int, scale: float = 0.5) -> MixtureSpec:
    terms = {2: scale * rng.uniform(0.2, 1.0, size=n)}
    if rng.random() < 0.5:
        terms[4] = scale * rng.uniform(0.1, 0.5, size=n)
    return MixtureSpec(n, terms)


def random_multiplier(
    rng: np.random.Generator, path: DiscretePath, spec: MixtureSpec, margin: float = 0.3
) -> np.ndarray:
    """Multiplier strictly inside the admissible set of the given path."""
    n = path.n
    deltas = delta_increments(spec, path)
    tail = sum(path.xs[k + 1] * deltas[k] for k in range(path.r)) if path.r else np.zeros((n, n))
    g = rng.standard_normal((n, n))
    pd = g @ g.T / n + margin * np.eye(n)
    return np.asarray(tail + pd)


def scalar_functional_value(lam: float, xs, q_levels, terms: dict, h: float = 0.0) -> float:
    """Independent single-copy implementation of the functional in plain floats."""

    def xi(x):
        return sum(b * b * x**p for p, b in terms.items())

    def xi_prime(x):
        return sum(p * b * b * x ** (p - 1) for p, b in terms.items())

    def theta(x):
        return x * xi_prime(x) - xi(x)

    r = len(xs) - 2
    deltas = [xi_prime(q_levels[k]) - xi_prime(q_levels[k - 1]) for k in range(1, r + 1)]
    lams = [0.0] * (r + 1)
    lams[r] = lam
    for k in range(r - 1, -1, -1):
        lams[k] = lams[k + 1] - xs[k + 1] * deltas[k]
    if lams[0] <= 0:
        raise ValueError("outside the admissible set")
    value = lam * q_levels[r] - 1.0 - math.log(lams[r]) + h * h / lams[0]
    for k in range(r):
        value += (1.0 / xs[k + 1]) * math.log(lams[k + 1] / lams[k])
    value *= 0.5
    value -= 0.5 * sum(
        xs[k + 1] * (theta(q_levels[k + 1]) - theta(q_levels[k])) for k in range(r)
    )
    return value


def reference_breakdown(lam, path: DiscretePath, q, h, spec: MixtureSpec) -> FunctionalBreakdown:
    """Level-by-level reference for the stacked path kernel of ``functional``.

    Builds the multiplier chain L_r = lam, L_k = L_{k+1} - x_k Delta_{k+1}
    one matrix at a time and takes each cascade increment
    log|L_{k+1}| - log|L_k| as sum_i log1p(x_k mu_i) over the generalized
    eigenvalues mu of (Delta_{k+1}, L_k), stable at breakpoints near 0.
    Raises LinAlgError when a chain matrix is not positive definite.
    """
    qmat = q.matrix if isinstance(q, ConstraintMatrix) else np.asarray(q, dtype=float)
    lam = np.asarray(lam, dtype=float)
    h = np.asarray(h, dtype=float)
    deltas = delta_increments(spec, path)
    r, xs = path.r, path.xs
    chain = [lam] * (r + 1)
    for k in range(r - 1, -1, -1):
        chain[k] = chain[k + 1] - xs[k + 1] * deltas[k]
    cascade = 0.0
    for k in range(r):
        chol = np.linalg.cholesky(chain[k])
        half = np.linalg.solve(chol, deltas[k])
        conj = np.linalg.solve(chol, half.T).T
        mu = np.linalg.eigvalsh((conj + conj.T) / 2.0)
        cascade += 0.5 * float(np.sum(np.log1p(xs[k + 1] * mu))) / xs[k + 1]
    theta = 0.0
    for k in range(r):
        diff = theta_matrix(spec, path.qs[k + 1]) - theta_matrix(spec, path.qs[k])
        theta += 0.5 * xs[k + 1] * float(np.sum(diff))
    trace = 0.5 * float(np.trace(lam @ qmat))
    const = -0.5 * path.n
    logdet = -float(np.sum(np.log(np.diag(np.linalg.cholesky(lam)))))
    field = 0.5 * float(h @ np.linalg.solve(chain[0], h))
    return FunctionalBreakdown(
        total=trace + const + logdet + field + cascade - theta,
        trace_term=trace,
        const_term=const,
        logdet_term=logdet,
        field_term=field,
        cascade_term=cascade,
        theta_term=theta,
    )


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
