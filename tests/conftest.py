"""Shared generators and independent oracles for the test suite."""

import math
from itertools import permutations

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import gammaln

from sphglass.functional import FunctionalBreakdown
from sphglass.geometry import ConstraintMatrix, DiscretePath
from sphglass.mixture import MixtureSpec, delta_increments, theta_matrix
from sphglass.montecarlo import DisorderRealization
from sphglass.parallel import logsumexp, stream


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


def xi_scalar(spec: MixtureSpec, j: int, j2: int, x: float) -> float:
    """Plain-float kernel entry sum_p beta_p(j) beta_p(j') x^p, the judge of ``xi_matrix``.

    Indices are 1-based like the copies; one outside 1..n raises IndexError.
    """
    for name, index in (("j", j), ("j2", j2)):
        if not 1 <= index <= spec.n:
            raise IndexError(f"{name}={index} out of range 1..{spec.n}")
    return sum(float(beta[j - 1]) * float(beta[j2 - 1]) * float(x) ** p for p, beta in spec.terms.items())


def overlap_window_log_volume(q12: float, n_sites: int, epsilon: float) -> float:
    """Exact finite-N window mass for two copies, the judge of ``overlap_log_volume``.

    (1/N) log of the probability that the overlap t of two independent
    uniform sphere points, with density c_N (1 - t^2)^{(N-3)/2}, lies in
    [q - eps, q + eps]; 1-D quadrature, log-scaled against underflow at
    large N.
    """
    if not -1.0 < q12 < 1.0:
        raise ValueError("q12 must lie in (-1, 1)")
    lo = max(q12 - epsilon, -1.0 + 1e-12)
    hi = min(q12 + epsilon, 1.0 - 1e-12)
    log_c = gammaln(n_sites / 2.0) - gammaln((n_sites - 1) / 2.0) - 0.5 * np.log(np.pi)
    exponent = 0.5 * (n_sites - 3)
    ref = exponent * np.log1p(-min(abs(lo), abs(hi)) ** 2)

    def integrand(t: float) -> float:
        return float(np.exp(exponent * np.log1p(-t * t) - ref))

    mass, _ = quad(integrand, lo, hi, limit=200)
    return float((np.log(mass) + ref + log_c) / n_sites)


def _contract(tensor: np.ndarray, vec: np.ndarray) -> float:
    """Full contraction of an order-p tensor with p copies of vec."""
    cur = tensor
    while cur.ndim > 0:
        cur = np.tensordot(cur, vec, axes=([cur.ndim - 1], [0]))
    return float(cur)


def quartic_tensor(form: np.ndarray, n_sites: int) -> np.ndarray:
    """The symmetric N^4 tensor G whose quartic form is T, <G, x^4> = <T, x^4>.

    Row (a, b), a <= b, of T in ``np.tril_indices`` order meets column
    (c, d), c <= d, in ``np.triu_indices`` order; T is read only where
    b <= c.  G holds T_abcd / m at each of the m distinct orderings of
    (a, b, c, d), with m counted from the orderings themselves.
    """
    b, a = np.tril_indices(n_sites)
    c, d = np.triu_indices(n_sites)
    rows, cols = np.nonzero(b[:, None] <= c[None, :])
    quad = (a[rows], b[rows], c[cols], d[cols])
    shape = (n_sites,) * 4
    codes = np.sort([np.ravel_multi_index(index, shape) for index in permutations(quad)], axis=0)
    distinct = 1 + np.count_nonzero(np.diff(codes, axis=0), axis=0)
    coef = form[rows, cols] / distinct
    tensor = np.zeros(shape)
    for index in permutations(quad):
        tensor[index] = coef
    return tensor


def hamiltonian(sigma: np.ndarray, disorder: DisorderRealization, spec: MixtureSpec) -> float:
    """H(sigma) by direct contraction, the judge of ``montecarlo.hamiltonian_batch``.

    H(sigma) = sum_j sum_p beta_p(j) N^{-(p-1)/2} <g_p, sigma(j)^{otimes p}>,
    with g_2 the raw tensor and g_4 the symmetric tensor ``quartic_tensor``
    of the drawn quartic form.
    """
    sigma = np.asarray(sigma, dtype=float)
    if sigma.ndim != 2 or sigma.shape != (spec.n, disorder.n_sites):
        raise ValueError(f"sigma must have shape (n, N) = ({spec.n}, {disorder.n_sites})")
    n_sites = disorder.n_sites
    total = 0.0
    for p, beta in spec.terms.items():
        if not np.any(beta):
            continue
        if p not in disorder.tensors:
            raise ValueError(f"disorder realization lacks the degree-{p} tensor")
        tensor = disorder.tensors[p]
        if p == 4:
            tensor = quartic_tensor(tensor, n_sites)
        scale = n_sites ** (-(p - 1) / 2.0)
        for j in range(spec.n):
            if beta[j] == 0.0:
                continue
            total += beta[j] * scale * _contract(tensor, sigma[j])
    return total


def householder_constrained_samples(q: ConstraintMatrix, n_sites: int, count: int, seed: int) -> np.ndarray:
    """The judge of ``montecarlo.sample_constrained``: the same draws through a Householder QR.

    G ~ (count, N, n) standard normals from ``stream(seed, 0)``, U its QR
    factor with the signs fixed so that R has a positive diagonal, and each
    block sqrt(N) * L U^T with L the Cholesky factor of Q.
    """
    chol = np.linalg.cholesky(q.matrix)
    gauss = stream(seed, 0).standard_normal((count, n_sites, q.n))
    q_fac, r_fac = np.linalg.qr(gauss)
    signs = np.sign(np.einsum("sii->si", r_fac))
    signs[signs == 0] = 1.0
    q_fac = q_fac * signs[:, None, :]
    return np.sqrt(n_sites) * np.einsum("ij,skj->sik", chol, q_fac)


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


def path_value_at(path: DiscretePath, x: float) -> np.ndarray:
    """Left-continuous evaluation of the step function: Q_k for x_{k-1} < x <= x_k; Q_0 at 0."""
    if x <= path.xs[0]:
        return path.qs[0]
    k = int(np.searchsorted(path.xs[1:], x, side="left"))
    return path.qs[min(k, path.r)]


def refine_path(path: DiscretePath, k: int, x_new: float) -> DiscretePath:
    """Insert breakpoint x_new in (x_{k-1}, x_k), duplicating Q_k: the refinement judge.

    The step function is unchanged, so every evaluation of the path must be
    invariant.
    """
    if not 0 <= k <= path.r:
        raise IndexError(f"level k={k} out of range 0..{path.r}")
    lo, hi = path.xs[k], path.xs[k + 1]
    if not lo < x_new < hi:
        raise ValueError(f"x_new={x_new} outside open interval ({lo}, {hi})")
    xs = np.insert(path.xs, k + 1, x_new)
    qs = np.insert(path.qs, k, path.qs[k], axis=0)
    return DiscretePath(xs=xs, qs=qs)


def finite_cascade_weights(path: DiscretePath, K: int, seed: int) -> np.ndarray:
    """Leaf weights of the path's Ruelle cascade truncated to K atoms per node.

    Level k (1-based) gives every node the top K atoms of a Poisson process
    with intensity x t^{-x-1} dt, x = x_{k-1}, as Gamma_i^{-1/x} for the
    cumulative exponentials Gamma_i of ``stream(seed, 0)``.  The K^r leaves
    are the normalized products down the tree, level-1 index major.
    """
    rng = stream(seed, 0)
    logw = np.zeros(1)
    for x in path.xs[1:-1]:
        gammas = np.cumsum(rng.exponential(size=(logw.size, K)), axis=1)
        logw = (logw[:, None] - np.log(gammas) / float(x)).ravel()
    weights = np.exp(logw - logsumexp(logw))
    return weights / weights.sum()  # exact unit mass after the log-space shift


def cascade_free_energy_sim(path: DiscretePath, spec: MixtureSpec, K: int, m_effective: float, reps: int, seed: int):
    """(1/M) E log sum_alpha v_alpha exp(sqrt(M) Y(alpha)) by direct simulation,
    the judge of ``theta_cascade_value``; returns (estimate, stderr).

    Y is the tree Gaussian with level variances C_k - C_{k-1}, C_k =
    Sum(theta(Q_k)).  Replicate ``rep`` seeds its cascade and its tree Gaussian
    (streams 0 and 1) from SeedSequence(seed, spawn_key=(17, rep)).  Converges
    to ``theta_cascade_value`` as K and M grow, slowly.
    """
    v = np.clip(np.diff([float(np.sum(theta)) for theta in theta_matrix(spec, path.qs)]), 0.0, None)
    values = []
    for rep in range(reps):
        rep_seed = int(np.random.SeedSequence(seed, spawn_key=(17, rep)).generate_state(1)[0])
        rng = stream(rep_seed, 1)
        y = np.zeros(1)
        for var in v:
            y = (y[:, None] + rng.standard_normal((y.size, K)) * np.sqrt(var)).ravel()
        log_weights = np.log(finite_cascade_weights(path, K, rep_seed))
        values.append(logsumexp(log_weights + np.sqrt(m_effective) * y) / m_effective)
    return float(np.mean(values)), float(np.std(values, ddof=1) / np.sqrt(reps))


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
