"""Stochastic oracles for the closed forms of the nested Gaussian recursion.

Three independent verification routes:

- ``nested_recursion_mc`` evaluates the recursion Y_k = (1/x_k) log E_k
  exp(x_k Y_{k+1}) by literal nested Monte Carlo over the level increments
  z_k ~ N(0, Delta_k), with only the innermost Gaussian integral replaced by
  its known closed form (the leaf value -1/2 log|L| + 1/2 (L^{-1}(sum z + h),
  sum z + h)).  Agreement with ``closed_form_Y0`` checks every determinant
  identity the functional relies on.  The leaf level is drawn and reduced in
  blocks of whole leaf groups, taking the normals in the order one whole draw
  would, so its memory is O(max(LEAF_BLOCK, leaves per group) * n) rather
  than O(all leaves * n).
- ``theta_cascade_value`` computes the exact large-system limit of the
  cascade-averaged tree Gaussian with covariance Sum(theta(Q_{level}))
  level by level: each level is a log-Gaussian moment contributing
  (1/x_k)(x_k^2 v_k / 2), i.e. x_k v_k / 2.  This pins the overall 1/2 on the
  theta sum of the functional.
- ``sample_finite_cascade`` + ``cascade_free_energy_mc`` simulate the finite
  hierarchical-weight average directly so the limit value above can be seen
  emerging from an actual cascade (slow convergence, loose tolerances).

Nested sampling never reuses inner samples across outer samples: the
log-of-mean transform is nonlinear and reuse would bias the estimator.
Standard errors come from the delta method on the outermost log; inner-level
bias is controlled by doubling-samples stability checks, not bias formulas.

scipy's ``logsumexp`` is imported where it is called, in the r = 3 level loop
of ``nested_recursion_mc`` and in ``sample_finite_cascade``; importing this
module loads numpy only, and r <= 2 nested runs never load scipy.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from sphglass.functional import solve_pd, logdet_pd
from sphglass.geometry import DiscretePath, _frozen, check_breakpoints
from sphglass.mixture import MixtureSpec, check_symmetric, delta_increments, theta_matrix
from sphglass.parallel import run_tasks, stream

__all__ = [
    "CascadeSpec",
    "NestedMCResult",
    "FiniteCascade",
    "nested_recursion_mc",
    "theta_cascade_value",
    "sample_finite_cascade",
    "cascade_free_energy_mc",
]

MAX_NESTED_LEVELS = 3
MAX_NESTED_COPIES = 3
# caps the work of nested_recursion_mc and the size of a finite cascade
MAX_LEAVES = 20_000_000
# leaves drawn and reduced at once by nested_recursion_mc (1 MB per array at n=2)
LEAF_BLOCK = 1 << 16


@dataclass(frozen=True)
class CascadeSpec:
    """Model bundle for the recursion oracles.

    ``increment_covariances`` are the z_k covariances, the path increment
    matrices Delta_k, computed at construction.  The path's breakpoints must
    satisfy 0 = x_{-1} < x_0 < ... < x_r = 1 (InvalidPath otherwise).
    """

    path: DiscretePath
    spec: MixtureSpec
    lam: np.ndarray
    h: np.ndarray
    increment_covariances: tuple[np.ndarray, ...] = field(init=False)

    def __post_init__(self):
        check_breakpoints(self.path)
        object.__setattr__(self, "lam", _frozen(check_symmetric(self.lam, "Lambda")))
        object.__setattr__(self, "h", _frozen(self.h))
        object.__setattr__(self, "increment_covariances", tuple(delta_increments(self.spec, self.path)))


@dataclass(frozen=True)
class NestedMCResult:
    estimate: float
    stderr: float
    samples_per_level: tuple[int, ...]
    seed: int

    def to_dict(self) -> dict:
        return {
            "estimate": self.estimate,
            "stderr": self.stderr,
            "samples_per_level": list(self.samples_per_level),
            "seed": self.seed,
        }


def _gaussian_factor(cov: np.ndarray) -> np.ndarray:
    """B with B B^T = cov for PSD cov (negative rounding clipped to zero)."""
    eigs, vecs = np.linalg.eigh(cov)
    return vecs * np.sqrt(np.clip(eigs, 0.0, None))


def nested_recursion_mc(
    cspec: CascadeSpec, samples: list[int] | tuple[int, ...], seed: int
) -> NestedMCResult:
    """Nested Monte Carlo estimate of Y_0 with a delta-method standard error.

    ``samples[k]`` draws are used for the expectation at level k (over
    z_{k+1}); cost is the product of the per-level counts.

    The increments of levels 1..r-1 are drawn whole, in C order.  The leaf
    level r is drawn in blocks of whole leaf groups, walking the parents in C
    order, so the generator yields the same normals in the same order as one
    draw of the full ``counts + (n,)`` leaf array would.  Each block is
    reduced by the level-r log-mean-exp before the next is drawn, so the
    leaf level holds O(max(LEAF_BLOCK, samples[-1]) * n) floats at a time
    (for r = 1 the single parent row is one block).
    """
    path, spec, lam, h = cspec.path, cspec.spec, cspec.lam, cspec.h
    r, n = path.r, path.n
    if r > MAX_NESTED_LEVELS:
        raise ValueError(f"nested MC supports r <= {MAX_NESTED_LEVELS}, got r={r}")
    if n > MAX_NESTED_COPIES:
        raise ValueError(f"nested MC supports n <= {MAX_NESTED_COPIES}, got n={n}")
    counts = tuple(int(s) for s in samples)
    if len(counts) != r or any(s < 1 for s in counts):
        raise ValueError(f"need {r} positive per-level sample counts, got {samples}")
    if int(np.prod(counts)) > MAX_LEAVES:
        raise ValueError("sample budget exceeds the leaf limit")

    leaf_const = -0.5 * logdet_pd(lam)
    lam_inv = solve_pd(lam, np.eye(n))
    rng = stream(seed, 0)
    factors = [_gaussian_factor(cov) for cov in cspec.increment_covariances]

    # accumulate h + sum_{k<r} z_k; every level uses fresh draws for every
    # branch of the nesting (shape counts[:k] + (n,)), never reusing inner
    # samples
    zsum = h
    for k in range(1, r):
        z = rng.standard_normal(counts[:k] + (n,)) @ factors[k - 1].T
        zsum = zsum[..., None, :] + z
    parents = zsum.reshape(-1, n)

    # level r, one block of whole leaf groups at a time.  With r = 1 level r
    # is the outermost level: its single parent row is one block, kept whole
    # for the delta-method standard error below.
    leaves = counts[-1]
    x_leaf = path.xs[r]
    rows = max(1, LEAF_BLOCK // leaves)
    half = np.full(n, 0.5)
    y = np.empty((len(parents), leaves) if r == 1 else len(parents))
    for start in range(0, len(parents), rows):
        block = parents[start : start + rows]
        w = rng.standard_normal((len(block) * leaves, n)) @ factors[-1].T
        w = w.reshape(len(block), leaves, n)
        w += block[:, None, :]
        quad = w @ lam_inv
        quad *= w
        values = quad @ half  # half the row sums; .sum(-1) over n <= 3 is slower
        values += leaf_const
        y[start : start + len(block)] = values if r == 1 else _log_mean_exp_rows(values, x_leaf)
    y = y.reshape(counts[:-1] if r > 1 else counts)

    for k in range(r - 2, 0, -1):  # only for r = 3 (MAX_NESTED_LEVELS)
        from scipy.special import logsumexp

        x_k = path.xs[k + 1]
        y = (logsumexp(x_k * y, axis=-1) - np.log(counts[k])) / x_k

    x0 = path.xs[1]
    shifted = x0 * y
    shift = float(np.max(shifted))
    wts = np.exp(shifted - shift)
    mean_w = float(np.mean(wts))
    estimate = (shift + np.log(mean_w)) / x0
    if counts[0] > 1:
        stderr = float(np.std(wts, ddof=1)) / np.sqrt(counts[0]) / (x0 * mean_w)
    else:
        stderr = float("inf")
    return NestedMCResult(estimate=float(estimate), stderr=stderr, samples_per_level=counts, seed=int(seed))


def _log_mean_exp_rows(values: np.ndarray, x: float) -> np.ndarray:
    """(1/x) log mean_j exp(x values[i, j]) for every row i, overwriting ``values``.

    A plain max shift per row: scipy's ``logsumexp`` costs more in per-call
    overhead than the arithmetic on one block.
    """
    values *= x
    top = values.max(axis=1)
    values -= top[:, None]
    np.exp(values, out=values)
    return (top + np.log(values.mean(axis=1))) / x


def theta_cascade_value(path: DiscretePath, spec: MixtureSpec) -> float:
    """Exact limit of the cascade-averaged tree Gaussian free energy.

    The tree process has covariance C_k = Sum(theta(Q_k)) at overlap depth k;
    level k of the weight recursion is a log-Gaussian moment and contributes
    (1/x_k) * (x_k^2 (C_{k+1} - C_k) / 2).  Summing levels gives
    1/2 sum_k x_k (C_{k+1} - C_k), adjudicating the prefactor of the theta
    sum in the functional.
    """
    check_breakpoints(path)
    cov = _tree_covariances(path, spec)
    total = 0.0
    for k in range(path.r):
        x_k = path.xs[k + 1]
        v_k = cov[k + 1] - cov[k]
        if v_k < -1e-10 * max(1.0, abs(cov[k + 1])):
            raise ValueError(f"tree covariance decreases at level {k + 1}: increment {v_k:.3e}")
        total += 0.5 * x_k * v_k
    return total


@dataclass(frozen=True)
class FiniteCascade:
    """Depth-r cascade truncated to K atoms per node.

    ``weights`` is the flat leaf array over {1..K}^r in lexicographic order
    (level-1 index major).
    """

    depth: int
    branching: int
    weights: np.ndarray

    def ancestor_index(self, level: int) -> np.ndarray:
        """Map leaf index -> node index at ``level`` (1-based levels)."""
        span = self.branching ** (self.depth - level)
        return np.arange(self.weights.size) // span


def sample_finite_cascade(path: DiscretePath, K: int, seed: int) -> FiniteCascade:
    """Hierarchical weights from truncated Poisson processes.

    At tree level k (1-based) every node spawns the top-K atoms of a Poisson
    process with intensity x_{k-1} t^{-x_{k-1}-1} dt, generated by the
    cumulative-exponential transform u_i = Gamma_i^{-1/x}; leaf weights are
    the normalized products down the tree.
    """
    from scipy.special import logsumexp

    r = path.r
    if r < 1:
        raise ValueError("cascade depth must be >= 1")
    if K < 100:
        raise ValueError("K must be >= 100 for a stable normalization")
    if K**r > MAX_LEAVES:
        raise ValueError(f"K^r = {K**r} leaves exceed the supported limit")
    rng = stream(seed, 0)
    logw = np.zeros(1)
    for k in range(1, r + 1):
        x = float(path.xs[k])  # x_{k-1}
        nodes = K ** (k - 1)
        gaps = rng.exponential(size=(nodes, K))
        gammas = np.cumsum(gaps, axis=1)
        log_atoms = -np.log(gammas) / x
        logw = (logw[:, None] + log_atoms).ravel()
    norm = logsumexp(logw)
    if not np.isfinite(norm):
        raise ValueError("cascade weights underflowed; increase K")
    logw = logw - norm
    weights = np.exp(logw)
    weights /= weights.sum()  # exact unit mass after the log-space shift
    return FiniteCascade(depth=r, branching=K, weights=weights)


def _tree_covariances(path: DiscretePath, spec: MixtureSpec) -> np.ndarray:
    """C_k = Sum(theta(Q_k)) for k = 0..r, from one stacked mixture pass."""
    return np.array([float(np.sum(theta)) for theta in theta_matrix(spec, path.qs)])


def _weighted_logsumexp(log_weights: np.ndarray, values: np.ndarray) -> float:
    """log sum_alpha v_alpha exp(values_alpha) with a max shift."""
    s = log_weights + values
    m = float(np.max(s))
    return m + float(np.log(np.sum(np.exp(s - m))))


def _cascade_rep(args) -> float:
    path, v, m_eff, K, seed = args
    cascade = sample_finite_cascade(path, K, seed=int(seed))
    rng = stream(seed, 1)
    r = path.r
    y = np.zeros(1)
    for k in range(1, r + 1):
        nodes = K ** (k - 1)
        eta = rng.standard_normal((nodes, K)) * np.sqrt(v[k - 1])
        y = (y[:, None] + eta).ravel()
    return _weighted_logsumexp(np.log(cascade.weights), np.sqrt(m_eff) * y) / m_eff


def cascade_free_energy_mc(
    branching: int,
    cspec: CascadeSpec,
    m_effective: float,
    reps: int,
    seed: int,
    workers: int = 1,
) -> NestedMCResult:
    """Direct simulation of (1/M) E log sum_alpha v_alpha exp(sqrt(M) Y(alpha)).

    The tree has the path's depth r, ``branching`` atoms per node and the
    path's x-parameters; every replicate samples its own cascade and tree
    Gaussian, so the average is over disorder and cascade.  Converges to
    ``theta_cascade_value`` as M and K grow (slowly; tolerances are loose by
    design).
    """
    path = cspec.path
    if path.r > 2:
        raise ValueError("free-energy simulation supports depth <= 2")
    if not 1.0 <= m_effective <= 64.0:
        raise ValueError("M_effective must lie in [1, 64]")
    if reps < 100:
        raise ValueError("need at least 100 replicates")
    seeds = [np.random.SeedSequence(int(seed), spawn_key=(17, rep)).generate_state(1)[0] for rep in range(reps)]
    # tree covariance increments, clipped at zero against rounding
    v = np.clip(np.diff(_tree_covariances(path, cspec.spec)), 0.0, None)
    args = [(path, v, float(m_effective), int(branching), int(s)) for s in seeds]
    values = np.array(run_tasks(_cascade_rep, args, workers=workers))
    estimate = float(np.mean(values))
    stderr = float(np.std(values, ddof=1) / np.sqrt(reps)) if reps > 1 else float("inf")
    return NestedMCResult(
        estimate=estimate, stderr=stderr, samples_per_level=(int(branching),) * path.r, seed=int(seed)
    )
