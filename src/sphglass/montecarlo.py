"""Desk-scale direct estimator of the constrained free energy.

The estimator decomposes the windowed integral over spin configurations into
an exact-manifold average times an analytic volume factor:

    (1/N) log [ Vol * <exp(H + field)>_{overlap manifold} ].

``sample_constrained`` samples the manifold {R(sigma, sigma) = Q} exactly
(orthonormalized Gaussian rows conjugated by the Cholesky factor of Q), so
every sample lies inside the overlap window for every epsilon > 0, and the
window volume enters through its exponential-scale closed form
``overlap_log_volume`` = 1/2 log det Q.  Direct rejection sampling of the
window would have exponentially small acceptance; the decomposition is exact
at the exponential scale and testable at beta = 0, where the Monte Carlo
factor is exactly 1.

Disorder tensors are raw i.i.d. Gaussians (not symmetrized), shared across
copies, which reproduces the model covariance
Cov(H(s1), H(s2)) = N * Sum(xi(R_{1,2})) exactly.

The simple-mean log-partition estimator is biased at finite sample sizes;
callers audit the bias by doubling budgets rather than correcting it.

scipy is imported by the two functions that call it: ``logsumexp`` in the
per-replicate task ``_disorder_rep`` and ``quad``/``gammaln`` in
``overlap_window_log_volume``.  Importing this module loads numpy only.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from sphglass.geometry import ConstraintMatrix, is_degenerate_spectrum
from sphglass.mixture import MixtureSpec
from sphglass.parallel import run_tasks, stream

__all__ = [
    "DisorderRealization",
    "EstimatorResult",
    "draw_disorder",
    "hamiltonian",
    "hamiltonian_batch",
    "sample_constrained",
    "estimate_free_energy",
    "overlap_log_volume",
    "overlap_window_log_volume",
]

MAX_SITES = 64
MAX_DEGREE = 4


@dataclass(frozen=True)
class DisorderRealization:
    """One i.i.d. standard Gaussian tensor per degree, shared across copies."""

    n_sites: int
    tensors: dict[int, np.ndarray]
    seed: int


def _check_budget(n_sites: int, degrees) -> None:
    if n_sites > MAX_SITES:
        raise ValueError(f"N={n_sites} exceeds the supported maximum {MAX_SITES}")
    for p in degrees:
        if p > MAX_DEGREE:
            raise ValueError(f"degree p={p} exceeds the supported maximum {MAX_DEGREE}")


def draw_disorder(degrees, n_sites: int, seed: int) -> DisorderRealization:
    _check_budget(n_sites, degrees)
    rng = stream(seed, 0)
    tensors = {}
    for p in sorted(set(int(p) for p in degrees)):
        tensors[p] = rng.standard_normal((n_sites,) * p)
    return DisorderRealization(n_sites=n_sites, tensors=tensors, seed=int(seed))


def _contract(tensor: np.ndarray, vec: np.ndarray) -> float:
    """Full contraction of an order-p tensor with p copies of vec."""
    cur = tensor
    while cur.ndim > 0:
        cur = np.tensordot(cur, vec, axes=([cur.ndim - 1], [0]))
    return float(cur)


def hamiltonian(sigma: np.ndarray, disorder: DisorderRealization, spec: MixtureSpec) -> float:
    """H(sigma) = sum_j sum_p beta_p(j) N^{-(p-1)/2} <g_p, sigma(j)^{otimes p}>."""
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
        scale = n_sites ** (-(p - 1) / 2.0)
        for j in range(spec.n):
            if beta[j] == 0.0:
                continue
            total += beta[j] * scale * _contract(disorder.tensors[p], sigma[j])
    return total


def _pair_form(tensor: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Fold an order-4 tensor G into its quadratic form on pair products.

    With the P = N(N+1)/2 unordered pairs a <= b and y_ab = x_a x_b,
    <G, x^{otimes 4}> = y^T F y, where F[(ab), (cd)] sums G[a', b', c', d']
    over the orderings (a', b') of {a, b} and (c', d') of {c, d}, with weight
    1/2 for each diagonal pair a = b (whose two orderings coincide).  F is
    gathered block by block from the (N^2, N^2) view by ordered-pair indices,
    so beyond F itself it holds one P x P block, and no symmetrized copy of G
    (134 MB at N = 64) is built.  Returns (F, a, b), so y = x[:, a] * x[:, b].
    """
    n_sites = tensor.shape[0]
    a, b = np.triu_indices(n_sites)
    ab, ba = a * n_sites + b, b * n_sites + a
    square = tensor.reshape(n_sites * n_sites, n_sites * n_sites)
    form = square[np.ix_(ab, ab)]
    for rows, cols in ((ab, ba), (ba, ab), (ba, ba)):
        form += square[np.ix_(rows, cols)]
    weight = np.where(a == b, 0.5, 1.0)
    form *= weight[:, None]
    form *= weight[None, :]
    return form, a, b


def hamiltonian_batch(sigmas: np.ndarray, disorder: DisorderRealization, spec: MixtureSpec) -> np.ndarray:
    """Vectorized H over a batch of spin blocks, shape (S, n, N) -> (S,).

    Each degree is one quadratic form ((y @ F) * y).sum(1), one matrix
    product per copy x = sigmas[:, j, :]:

    - p = 2: y = x and F = G, since <G, x x> = x^T G x;
    - p = 4: y_ab = x_a x_b over the P = N(N+1)/2 pairs a <= b and F the pair
      form of G (``_pair_form``), folded once per call and shared by all
      copies, since <G, x^{otimes 4}> = y^T F y.  That is 2 S P^2 flops per
      copy instead of 2 S N^4.

    ``hamiltonian`` contracts the raw tensor directly and is the reference
    this is tested against.
    """
    sigmas = np.asarray(sigmas, dtype=float)
    if sigmas.ndim != 3 or sigmas.shape[1:] != (spec.n, disorder.n_sites):
        raise ValueError(f"sigmas must have shape (S, n, N) = (S, {spec.n}, {disorder.n_sites})")
    n_sites = disorder.n_sites
    out = np.zeros(sigmas.shape[0])
    for p, beta in spec.terms.items():
        if not np.any(beta):
            continue
        if p not in disorder.tensors:
            raise ValueError(f"disorder realization lacks the degree-{p} tensor")
        tensor = disorder.tensors[p]
        scale = n_sites ** (-(p - 1) / 2.0)
        if p == 2:
            form = tensor
        else:
            form, a, b = _pair_form(tensor)
        for j in range(spec.n):
            if beta[j] == 0.0:
                continue
            x = sigmas[:, j, :]
            y = x if p == 2 else x[:, a] * x[:, b]
            out += beta[j] * scale * ((y @ form) * y).sum(1)
    return out


def sample_constrained(
    q: ConstraintMatrix | np.ndarray, n_sites: int, epsilon: float, count: int, seed: int
) -> np.ndarray:
    """Exact-manifold samples: (count, n, N) blocks with R(sigma, sigma) = Q.

    Rows are sqrt(N) * L U with L the Cholesky factor of Q and U orthonormal
    rows from a Gaussian QR, so the law is invariant under ambient rotations
    and the overlap matrix equals Q to rounding, hence lies in the epsilon
    window for every epsilon > 0.
    """
    qmat = q.matrix if isinstance(q, ConstraintMatrix) else np.asarray(q, dtype=float)
    n = qmat.shape[0]
    if n_sites < 4 * n:
        raise ValueError(f"need N >= 4n = {4 * n}, got N={n_sites}")
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    try:
        chol = np.linalg.cholesky(qmat)
    except np.linalg.LinAlgError:
        raise ValueError("constraint must be positive definite for manifold sampling") from None
    rng = stream(seed, 0)
    gauss = rng.standard_normal((count, n_sites, n))
    q_fac, r_fac = np.linalg.qr(gauss)
    signs = np.sign(np.einsum("sii->si", r_fac))
    signs[signs == 0] = 1.0
    q_fac = q_fac * signs[:, None, :]
    return np.sqrt(n_sites) * np.einsum("ij,skj->sik", chol, q_fac)


@dataclass(frozen=True)
class EstimatorResult:
    value: float
    stderr: float
    n_sites: int
    n_copies: int
    epsilon: float
    disorder_reps: int
    config_samples: int
    seed: int
    analytic_reference: float | None = None

    def to_dict(self) -> dict:
        out = {
            "value": self.value,
            "stderr": self.stderr,
            "N": self.n_sites,
            "n": self.n_copies,
            "epsilon": self.epsilon,
            "disorder_reps": self.disorder_reps,
            "config_samples": self.config_samples,
            "seed": self.seed,
        }
        if self.analytic_reference is not None:
            out["analytic_reference"] = self.analytic_reference
        return out


def _disorder_rep(args) -> float:
    from scipy.special import logsumexp

    qmat, n_sites, epsilon, spec, h, config_samples, seed, rep = args
    disorder_seed = np.random.SeedSequence(seed, spawn_key=(rep, 0)).generate_state(1)[0]
    config_seed = np.random.SeedSequence(seed, spawn_key=(rep, 1)).generate_state(1)[0]
    disorder = draw_disorder(spec.degrees, n_sites, int(disorder_seed))
    sigmas = sample_constrained(qmat, n_sites, epsilon, config_samples, int(config_seed))
    energies = hamiltonian_batch(sigmas, disorder, spec)
    h = np.asarray(h, dtype=float)
    if np.any(h):
        energies = energies + sigmas.sum(axis=2) @ h
    return float(logsumexp(energies) - np.log(config_samples))


def estimate_free_energy(
    q: ConstraintMatrix | np.ndarray,
    n_sites: int,
    epsilon: float,
    spec: MixtureSpec,
    h: np.ndarray,
    disorder_reps: int,
    config_samples: int,
    seed: int,
    workers: int = 1,
) -> EstimatorResult:
    """Simple-mean estimate of the windowed free energy at system size N.

    Per disorder realization the manifold average of exp(H + field) is a
    plain mean over ``config_samples`` exact-overlap samples (log-sum-exp with
    max shift); the analytic window volume 1/2 log det Q is added and the
    disorder replicates give the standard error.  Biased at finite budgets:
    pair with a doubling-budget stability check.
    """
    qmat = q.matrix if isinstance(q, ConstraintMatrix) else np.asarray(q, dtype=float)
    _check_budget(n_sites, spec.degrees)
    if disorder_reps < 1 or config_samples < 1:
        raise ValueError("sample budgets must be positive")
    volume = overlap_log_volume(qmat)
    args = [
        (qmat, n_sites, epsilon, spec, np.asarray(h, dtype=float), config_samples, int(seed), rep)
        for rep in range(disorder_reps)
    ]
    logs = np.array(run_tasks(_disorder_rep, args, workers=workers))
    values = logs / n_sites + volume
    value = float(np.mean(values))
    stderr = float(np.std(values, ddof=1) / np.sqrt(disorder_reps)) if disorder_reps > 1 else 0.0
    reference = volume if spec.is_zero() and not np.any(np.asarray(h, dtype=float)) else None
    return EstimatorResult(
        value=value,
        stderr=stderr,
        n_sites=n_sites,
        n_copies=qmat.shape[0],
        epsilon=epsilon,
        disorder_reps=disorder_reps,
        config_samples=config_samples,
        seed=int(seed),
        analytic_reference=reference,
    )


def overlap_log_volume(q: ConstraintMatrix | np.ndarray) -> float:
    """Exponential-scale normalized volume of the overlap slice: 1/2 log det Q.

    Degenerate constraints return -inf (the slice volume decays faster than
    any exponential rate).
    """
    qmat = q.matrix if isinstance(q, ConstraintMatrix) else np.asarray(q, dtype=float)
    eigs = np.linalg.eigvalsh(qmat)
    if is_degenerate_spectrum(eigs):
        return float("-inf")
    return 0.5 * float(np.sum(np.log(eigs)))


def overlap_window_log_volume(q12: float, n_sites: int, epsilon: float) -> float:
    """Exact finite-N check for two copies: (1/N) log of the window mass.

    The overlap t of two independent uniform sphere points has density
    c_N (1 - t^2)^{(N-3)/2}; integrates the window [q - eps, q + eps] by 1-D
    quadrature (log-scaled to avoid underflow at large N).
    """
    from scipy.integrate import quad
    from scipy.special import gammaln

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
