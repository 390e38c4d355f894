"""Desk-scale direct estimator of the constrained free energy.

The estimator decomposes the windowed integral over spin configurations into
an exact-manifold average times an analytic volume factor:

    (1/N) log [ Vol * <exp(H + field)>_{overlap manifold} ].

``sample_constrained`` samples the manifold {R(sigma, sigma) = Q} exactly
(Gaussian rows orthonormalized by a Cholesky QR, then mixed by the Cholesky
factor of Q), so every sample lies inside the overlap window for every
epsilon > 0, and the window volume enters through its exponential-scale
closed form ``overlap_log_volume`` = 1/2 log det Q, from the eigenvalues the
``ConstraintMatrix`` keeps.  Direct rejection sampling of the
window would have exponentially small acceptance; the decomposition is exact
at the exponential scale and testable at beta = 0, where the Monte Carlo
factor is exactly 1.

The disorder is Gaussian and shared across copies: for p = 2 a raw i.i.d.
N x N tensor G (not symmetrized), and for p = 4 the quartic form itself, one
independent coefficient T_abcd ~ N(0, m_abcd) per monomial x_a x_b x_c x_d,
a <= b <= c <= d, where m_abcd counts the distinct orderings of (a, b, c, d).
Folding a raw N^4 tensor over those orderings gives the same law; both give
Cov(<T, x^4>, <T, y^4>) = sum m x_a..x_d y_a..y_d = (x . y)^4, so every
degree reproduces the model covariance Cov(H(s1), H(s2)) = N * Sum(xi(R_{1,2}))
exactly, and the form takes C(N+3, 4) normals where a raw tensor takes N^4.

The simple-mean log-partition estimator is biased low at finite sample
sizes, and nothing here corrects or flags that.  Measured for two copies
with a p = 4 term at N = 32, four replicates of 2,000 samples and seeds
200-239, the mean of estimate minus the replica-symmetric value is -0.011;
8,000 samples move it only to -0.009, and at N = 64 it is -0.016.  The
plain mean of exp(H) rests on few samples: the median effective sample
size is 33 of 2,000 at N = 32.

The p = 4 energy is a quadratic form in the pair products y_cd = x_c x_d,
c <= d, that stores each monomial once, at the sorted pairing (a, b | c, d).
With the row pairs in the order of b and the column pairs in the order of c
that form is block upper triangular, so the contraction multiplies only the
blocks of ``QUARTIC_GROUPS`` column groups that can hold a coefficient: 26 %
of the P x P form at N = 32, P = N(N+1)/2.  The pair products are (P, S)
arrays with the samples on the last axis, so each gather of a pair copies a
contiguous row of samples.

Each disorder replicate holds its samples and its disorder, and contracts
the energies in blocks of ``SAMPLE_BLOCK`` samples, so its memory does not
grow with the pair-product arrays of every sample at once.  Its log-mean-exp
is the numpy ``parallel.log_mean_exp`` and the replicates' standard error
``parallel.standard_error``, so nothing here loads scipy.  The exact
finite-N window mass that checks ``overlap_log_volume`` is a quadrature
judge in the test suite.

A raw Q goes through ``ConstraintMatrix.of`` at each public function.
``estimate_free_energy`` validates Q, h and its budgets once and hands the
``ConstraintMatrix`` to every replicate, which validates nothing again.  A
bad N, epsilon, ``disorder_reps`` or ``config_samples`` raises
``mixture.InvalidField``, whose ``field`` names it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from sphglass.geometry import ConstraintMatrix, check_field
from sphglass.mixture import InvalidField, MixtureSpec, check_count, check_real
from sphglass.parallel import log_mean_exp, run_tasks, standard_error, stream

__all__ = [
    "DisorderRealization",
    "EstimatorResult",
    "draw_disorder",
    "hamiltonian_batch",
    "sample_constrained",
    "estimate_free_energy",
    "overlap_log_volume",
]

MAX_SITES = 64
MAX_DEGREE = 4
# samples contracted at once by hamiltonian_batch (each p = 4 pair-product
# array is 1 MB at N = 32)
SAMPLE_BLOCK = 256
# column groups of the p = 4 quartic form that hamiltonian_batch multiplies
QUARTIC_GROUPS = 8


@dataclass(frozen=True)
class DisorderRealization:
    """The Gaussian disorder of each degree, shared across copies.

    ``tensors[2]`` is an i.i.d. standard normal N x N tensor G and
    ``tensors[4]`` the (P, P) quartic form T of ``_quartic_form``,
    P = N(N+1)/2.
    """

    n_sites: int
    tensors: dict[int, np.ndarray]
    seed: int


def _check_budget(n_sites, degrees, minimum: int = 1) -> int:
    """N as a count in [minimum, ``MAX_SITES``], each degree at most ``MAX_DEGREE``."""
    for p in degrees:
        if p > MAX_DEGREE:
            raise ValueError(f"degree p={p} exceeds the supported maximum {MAX_DEGREE}")
    n_sites = check_count(n_sites, "N", minimum)
    if n_sites > MAX_SITES:
        raise InvalidField("N", f"must be at most {MAX_SITES}, got {n_sites}")
    return n_sites


def draw_disorder(degrees, n_sites: int, seed: int) -> DisorderRealization:
    degrees = sorted({check_count(p, "degree", 2) for p in degrees})
    n_sites = _check_budget(n_sites, degrees)
    rng = stream(seed, 0)
    tensors = {}
    for p in degrees:
        tensors[p] = _quartic_form(n_sites, rng) if p == 4 else rng.standard_normal((n_sites,) * p)
    return DisorderRealization(n_sites=n_sites, tensors=tensors, seed=int(seed))


def _quartic_form(n_sites: int, rng: np.random.Generator) -> np.ndarray:
    """Draw the p = 4 disorder as its (P, P) form on the sorted quartic monomials.

    <T, x^{otimes 4}> = sum over a <= b <= c <= d of T_abcd x_a x_b x_c x_d,
    with independent T_abcd ~ N(0, m_abcd), m_abcd = 24 over the product of
    the run-length factorials of (a, b, c, d): the law of the sum of a raw
    N^4 Gaussian tensor over the m_abcd distinct orderings.  Each monomial
    is stored once, at row (a, b) and column (c, d).  The P = N(N+1)/2 rows
    are the pairs a <= b in the order of b (``np.tril_indices``), the columns
    the pairs c <= d in the order of c (``np.triu_indices``), so T is block
    upper triangular: the rows with b in [s, e) meet only the column
    suffix c >= s, and the columns with c in [s, e) only the row prefix
    b < e.  The C(N+3, 4) coefficients take that many normals from ``rng``,
    in row-major order.
    """
    b, a = np.tril_indices(n_sites)
    c, d = np.triu_indices(n_sites)
    support = b[:, None] <= c[None, :]
    # the run-length factorial product, from the ties a = b, b = c and c = d
    run = np.ones(np.count_nonzero(support), dtype=np.int8)
    repeats = np.ones_like(run)
    for tie in ((a == b)[:, None], b[:, None] == c, c == d):
        run = np.where(np.broadcast_to(tie, support.shape)[support], run + 1, 1)
        repeats *= run
    coef = np.sqrt(24 / repeats)
    coef *= rng.standard_normal(coef.size)
    # T is allocated last, which keeps the tracemalloc peak under 4 MB at N = 32
    form = np.zeros(support.shape)
    form[support] = coef
    return form


def _pair_indices(n_sites: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(c, d, order) for the quartic form of ``_quartic_form``.

    For spins xt of shape (N, S), y = xt[c] * xt[d] are its column pair
    products and y[order] its row pair products x_a x_b, each (P, S).
    """
    b, a = np.tril_indices(n_sites)
    c, d = np.triu_indices(n_sites)
    return c, d, a * n_sites - a * (a - 1) // 2 + b - a


def _column_groups(n_sites: int) -> list[tuple[int, int, int]]:
    """(first column, end column, end row) of each column group of the quartic form.

    The columns with c in [s, e) meet only the rows with b < e.  The cuts
    s = N - N sqrt(g / QUARTIC_GROUPS) give groups of about P / QUARTIC_GROUPS
    columns each.
    """
    cuts = sorted({n_sites - round(n_sites * math.sqrt(g / QUARTIC_GROUPS)) for g in range(QUARTIC_GROUPS + 1)})
    return [
        (s * n_sites - s * (s - 1) // 2, e * n_sites - e * (e - 1) // 2, e * (e + 1) // 2)
        for s, e in zip(cuts[:-1], cuts[1:])
    ]


def hamiltonian_batch(sigmas: np.ndarray, disorder: DisorderRealization, spec: MixtureSpec) -> np.ndarray:
    """H over a batch of spin blocks, shape (S, n, N) -> (S,).

    H(sigma) = sum_j sum_p beta_p(j) N^{-(p-1)/2} <g_p, sigma(j)^{otimes p}>.
    Each degree is a quadratic form in products of spins, per copy
    x = sigmas[:, j, :]:

    - p = 2: the row dot products of x @ G with x, since <G, x x> = x^T G x;
    - p = 4: the quartic form T drawn by ``_quartic_form``, shared by all
      copies and blocks.  The block's spins are copied once as xt = x.T,
      shape (N, S), and y_cd = x_c x_d over the P = N(N+1)/2 pairs c <= d
      is the (P, S) array xt[c] * xt[d], so each gather copies a row of
      samples.  Then <T, x^{otimes 4}> = colsum((T^T @ y_rows) * y) for the
      row pair products y_rows = y[order].  The product T^T @ y_rows is
      filled one column group of T at a time (``_column_groups``), from the
      row prefix that group meets.  At N = 32 the eight groups of
      ``QUARTIC_GROUPS`` cover 26 % of the P x P form (the floor is
      C(N+3, 4) / P^2 = 18.8 %), so a copy costs about 2 S 0.26 P^2 flops
      where the full form costs 2 S P^2.

    The samples are walked in blocks of ``SAMPLE_BLOCK``, so beyond T the
    contraction holds O(SAMPLE_BLOCK * P) floats rather than O(S * P).  A
    disorder entry of the wrong shape, such as a raw N^4 tensor for p = 4,
    raises ValueError.  The test suite's direct contraction of the symmetric
    N^4 tensor that T stands for is the reference this is tested against.
    """
    sigmas = np.asarray(sigmas, dtype=float)
    if sigmas.ndim != 3 or sigmas.shape[1:] != (spec.n, disorder.n_sites):
        raise ValueError(f"sigmas must have shape (S, n, N) = (S, {spec.n}, {disorder.n_sites})")
    n_sites = disorder.n_sites
    count = sigmas.shape[0]
    out = np.zeros(count)
    for p, beta in spec.terms.items():
        if not np.any(beta):
            continue
        if p not in disorder.tensors:
            raise ValueError(f"disorder realization lacks the degree-{p} tensor")
        tensor = np.asarray(disorder.tensors[p])
        side = n_sites if p == 2 else n_sites * (n_sites + 1) // 2
        if tensor.shape != (side, side):
            raise ValueError(f"degree-{p} disorder must have shape ({side}, {side}), got {tensor.shape}")
        scale = n_sites ** (-(p - 1) / 2.0)
        if p == 4:
            c, d, order = _pair_indices(n_sites)
            groups = _column_groups(n_sites)
        for j in range(spec.n):
            if beta[j] == 0.0:
                continue
            coef = beta[j] * scale
            for start in range(0, count, SAMPLE_BLOCK):
                x = sigmas[start : start + SAMPLE_BLOCK, j, :]
                if p == 2:
                    energy = np.einsum("si,si->s", x @ tensor, x)
                else:
                    xt = np.ascontiguousarray(x.T)
                    # in place: one 1 MB temporary fewer at N = 32
                    y = xt[c]
                    y *= xt[d]
                    y_rows = y[order]
                    product = np.empty_like(y)
                    for c0, c1, r1 in groups:
                        np.matmul(tensor[:r1, c0:c1].T, y_rows[:r1], out=product[c0:c1])
                    energy = np.einsum("is,is->s", product, y)
                out[start : start + SAMPLE_BLOCK] += coef * energy
    return out


def sample_constrained(q: ConstraintMatrix | np.ndarray, n_sites: int, count: int, seed: int) -> np.ndarray:
    """Exact-manifold samples: (count, n, N) blocks with R(sigma, sigma) = Q.

    Each block is sqrt(N) * L U^T with L the Cholesky factor of Q and U the
    orthonormal (N, n) QR factor of an N x n standard Gaussian block G, the
    one whose R has a positive diagonal.  It is formed by Cholesky QR: with
    C C^T = G^T G, U = G C^-T and R = C^T, so the block is
    sqrt(N) L C^-1 G^T.  The law is invariant under ambient rotations and
    the overlap matrix equals Q to rounding, hence lies in the overlap
    window for every window width epsilon > 0.  N >= 4n and ``count`` >= 1
    are counts.  A degenerate Q (``ConstraintMatrix.is_degenerate``) raises
    ValueError.
    """
    q = ConstraintMatrix.of(q)
    n = q.n
    n_sites = check_count(n_sites, "N", 4 * n)
    count = check_count(count, "count", 1)
    if q.is_degenerate():
        raise ValueError("constraint must be positive definite for manifold sampling")
    scaled_chol = np.sqrt(n_sites) * np.linalg.cholesky(q.matrix)
    rng = stream(seed, 0)
    gauss_t = rng.standard_normal((count, n_sites, n)).transpose(0, 2, 1)
    gram_chol = np.linalg.cholesky(gauss_t @ gauss_t.transpose(0, 2, 1))
    return (scaled_chol @ np.linalg.inv(gram_chol)) @ gauss_t


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
    q, n_sites, spec, h, config_samples, seed, rep = args
    disorder_seed = np.random.SeedSequence(seed, spawn_key=(rep, 0)).generate_state(1)[0]
    config_seed = np.random.SeedSequence(seed, spawn_key=(rep, 1)).generate_state(1)[0]
    disorder = draw_disorder(spec.degrees, n_sites, int(disorder_seed))
    sigmas = sample_constrained(q, n_sites, config_samples, int(config_seed))
    energies = hamiltonian_batch(sigmas, disorder, spec)
    if np.any(h):
        energies = energies + sigmas.sum(axis=2) @ h
    return float(log_mean_exp(energies, 1.0))


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
    plain mean over ``config_samples`` exact-overlap samples (log-mean-exp with
    max shift); the analytic window volume 1/2 log det Q is added and the
    disorder replicates give the standard error, inf for a single
    replicate.  Biased low at finite budgets, by about 0.01 at N = 32 (see
    the module docstring); the standard error does not cover that bias.

    ``epsilon`` is the overlap window width.  Every exact-manifold sample lies
    in every window, so it is only checked to be positive and echoed in the
    result.  A raw ``q`` goes through ``ConstraintMatrix.of``.  Before any
    replicate runs, a budget that breaks its rule raises ``InvalidField``:
    N, ``disorder_reps`` and ``config_samples`` are counts (``check_count``)
    with N in [4n, ``MAX_SITES``], and epsilon is a real > 0.  An invalid or
    degenerate Q, an invalid h or a degree above ``MAX_DEGREE`` raises
    ValueError.
    """
    q = ConstraintMatrix.of(q)
    h = check_field(h, q.n)
    n_sites = _check_budget(n_sites, spec.degrees, 4 * q.n)
    epsilon = check_real(epsilon, "epsilon")
    if not epsilon > 0:
        raise InvalidField("epsilon", f"must be positive, got {epsilon}")
    disorder_reps = check_count(disorder_reps, "disorder_reps", 1)
    config_samples = check_count(config_samples, "config_samples", 1)
    if q.is_degenerate():
        raise ValueError("constraint must be positive definite for manifold sampling")
    volume = overlap_log_volume(q)
    args = [(q, n_sites, spec, h, config_samples, int(seed), rep) for rep in range(disorder_reps)]
    logs = np.array(run_tasks(_disorder_rep, args, workers=workers))
    values = logs / n_sites + volume
    value = float(np.mean(values))
    stderr = standard_error(values)
    reference = volume if spec.is_zero() and not np.any(h) else None
    return EstimatorResult(
        value=value,
        stderr=stderr,
        n_sites=n_sites,
        n_copies=q.n,
        epsilon=epsilon,
        disorder_reps=disorder_reps,
        config_samples=config_samples,
        seed=int(seed),
        analytic_reference=reference,
    )


def overlap_log_volume(q: ConstraintMatrix | np.ndarray) -> float:
    """Exponential-scale normalized volume of the overlap slice: 1/2 log det Q.

    Degenerate constraints return -inf (the slice volume decays faster than
    any exponential rate).  The eigenvalues are the constraint's own; a raw
    ``q`` goes through ``ConstraintMatrix.of``.
    """
    q = ConstraintMatrix.of(q)
    if q.is_degenerate():
        return float("-inf")
    return 0.5 * float(np.sum(np.log(q.eigenvalues)))
