"""Stochastic oracles for the closed forms of the nested Gaussian recursion.

Two independent verification routes, the two oracles ``cascade-check`` runs:

- ``nested_recursion_mc`` evaluates the recursion Y_k = (1/x_k) log E_k
  exp(x_k Y_{k+1}) by literal nested Monte Carlo over the level increments
  z_k ~ N(0, Delta_k), with only the innermost Gaussian integral replaced by
  its known closed form (the leaf value -1/2 log|L| + 1/2 (L^{-1}(sum z + h),
  sum z + h)).  Agreement with ``closed_form_Y0`` checks every determinant
  identity the functional relies on.  The leaf level is drawn and reduced in
  blocks of whole leaf groups, block i from its own SFC64 generator keyed
  (seed, 1, i), so a block is a function of the seed and its index alone;
  every other draw comes from the PCG64 ``parallel.stream``.  The calling
  thread and one helper thread take alternate blocks, each with its own
  buffers, so the leaf memory is O(2 * max(LEAF_BLOCK, leaves per group) *
  (n + 1)) rather than O(all leaves * n).  The leaf factor is the square
  root of Delta_r that diagonalises the leaf quadratic form, so each leaf
  value is c + l.z + sum_k m_k z_k^2, with m built once and l, c once per
  parent, and normal k of every leaf of a block is one contiguous row.
- ``theta_cascade_value`` computes the exact large-system limit of the
  cascade-averaged tree Gaussian with covariance Sum(theta(Q_{level}))
  level by level: each level is a log-Gaussian moment contributing
  (1/x_k)(x_k^2 v_k / 2), i.e. x_k v_k / 2.  This pins the overall 1/2 on the
  theta sum of the functional.

Nested sampling never reuses inner samples across outer samples: the
log-of-mean transform is nonlinear and reuse would bias the estimator.
Every level of the recursion, the leaf level and the outermost one
included, is the one in-place ``parallel.log_mean_exp``.  The standard error
comes from the delta method on the outermost log, as the
``parallel.standard_error`` of the weights that its reduction leaves behind,
and ``cascade-check``'s 3-sigma rule reads that outermost-level stderr only:
the bias of the inner levels' log-of-mean is not in it.  No routine of this
module loads scipy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from sphglass.functional import solve_pd, logdet_pd
from sphglass.geometry import DiscretePath, _frozen, check_field, check_path
from sphglass.mixture import (
    InvalidField,
    MixtureSpec,
    _check_copies,
    _path_levels,
    check_count,
    check_symmetric,
)
from sphglass.parallel import log_mean_exp, standard_error, stream

__all__ = ["CascadeSpec", "NestedMCResult", "nested_recursion_mc", "theta_cascade_value"]

MAX_NESTED_LEVELS = 3
MAX_NESTED_COPIES = 3
# caps the work of nested_recursion_mc
MAX_LEAVES = 20_000_000
# leaves drawn and reduced at once by nested_recursion_mc: each of its two
# threads owns a normal buffer of 1 MB at n=2 and a leaf value buffer of 0.5 MB
LEAF_BLOCK = 1 << 16


@dataclass(frozen=True)
class CascadeSpec:
    """Model bundle for the recursion oracles.

    ``increment_covariances`` are the z_k covariances, the path increment
    matrices Delta_k, computed at construction.  The path must pass
    ``validate_path`` with its end matrix free (InvalidPath otherwise), and
    the mixture must model its n copies (``InvalidField("mixture", ...)``
    otherwise).
    """

    path: DiscretePath
    spec: MixtureSpec
    lam: np.ndarray
    h: np.ndarray
    increment_covariances: tuple[np.ndarray, ...] = field(init=False)

    def __post_init__(self):
        check_path(self.path)
        _check_copies(self.spec, self.path.n)
        object.__setattr__(self, "lam", _frozen(check_symmetric(self.lam, "Lambda")))
        object.__setattr__(self, "h", _frozen(check_field(self.h, self.path.n)))
        deltas = _path_levels(self.spec, self.path.qs)[0]
        object.__setattr__(self, "increment_covariances", tuple(deltas))


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


def _diagonal_leaf_form(cov: np.ndarray, lam_inv: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(B', m): B' B'^T = cov, and 1/2 B'^T lam_inv B' = diag(m).

    B' = B V for the ``_gaussian_factor`` B of cov and the eigenvectors V of
    1/2 B^T lam_inv B.  V is orthogonal, so B' is another square root of cov
    and B' z has the law of B z for a standard normal z.
    """
    factor = _gaussian_factor(cov)
    m, rotation = np.linalg.eigh(0.5 * factor.T @ lam_inv @ factor)
    return factor @ rotation, m


def _leaf_stream(seed: int, block: int) -> np.random.Generator:
    """SFC64 generator of leaf block ``block``, keyed like ``stream(seed, 1, block)``."""
    return np.random.Generator(np.random.SFC64(np.random.SeedSequence(int(seed), spawn_key=(1, block))))


def nested_recursion_mc(
    cspec: CascadeSpec, samples: list[int] | tuple[int, ...], seed: int
) -> NestedMCResult:
    """Nested Monte Carlo estimate of Y_0 with a delta-method standard error.

    ``samples[k]`` draws are used for the expectation at level k (over
    z_{k+1}); cost is the product of the per-level counts.  Before any draw,
    a bad budget raises ``InvalidField``: ``samples[i]`` names an entry that
    is not a count (``check_count``) of at least 1, and ``samples`` a list
    that does not hold one count per level or whose product exceeds
    ``MAX_LEAVES``; a path of more than ``MAX_NESTED_LEVELS`` levels or more
    than ``MAX_NESTED_COPIES`` copies raises ``InvalidField`` for ``path`` or
    ``n``.  With ``samples[0] == 1`` the standard error is inf.

    The increments of levels 1..r-1 are drawn whole, in C order, from the
    PCG64 ``stream(seed, 0)``.  The leaf level r is drawn in blocks of
    ``max(1, LEAF_BLOCK // samples[-1])`` whole leaf groups, walking the
    parents in C order; block i draws its normals from its own SFC64
    generator, keyed by ``SeedSequence(seed, spawn_key=(1, i))``, into an
    ``(n, leaves in the block)`` buffer in C order, so normal k of every leaf
    of the block is one contiguous row.  The calling thread reduces blocks
    0, 2, 4, ... and one helper thread blocks 1, 3, 5, ..., each into its
    own buffers and its own rows of the level-r values; the helper is joined
    before the function returns or raises, and an exception of either thread
    propagates.  Since every block depends on (seed, i) alone, the result
    does not depend on the block order, the BLAS thread count or the number
    of CPUs.

    Leaf j of parent i, with partial sum p_i = h + sum_{k<r} z_k, has the
    value -1/2 log|L| + 1/2 w^T L^{-1} w at w = p_i + B z_ij, where
    B B^T = Delta_r and z_ij is its drawn standard normal.  B is taken with
    1/2 B^T L^{-1} B = diag(m) (``_diagonal_leaf_form``), so the value is
    c_i + l_i . z_ij + sum_k m_k z_ijk^2 with no cross terms, l_i =
    B^T L^{-1} p_i and c_i = -1/2 log|L| + 1/2 p_i^T L^{-1} p_i.  The
    level-r weight x_r is folded into l and m, and c_i is added after the
    block's log-mean-exp; every leaf still enters exp(x_r v) on its own.
    Each block is reduced as soon as it is drawn, so the leaf level holds
    O(2 * max(LEAF_BLOCK, samples[-1]) * (n + 1)) floats at a time (for
    r = 1 the single parent row is one block, reduced on the calling thread
    with one set of buffers).  Levels r - 1, ..., 1 are the same
    log-mean-exp over the last axis of the values below them.  The standard
    error reads the weights the outermost reduction leaves in place: for
    r = 1 those of the calling thread's single leaf block.
    """
    path, spec, lam, h = cspec.path, cspec.spec, cspec.lam, cspec.h
    r, n = path.r, path.n
    if r > MAX_NESTED_LEVELS:
        raise InvalidField("path", f"has r={r} levels; nested MC supports r <= {MAX_NESTED_LEVELS}")
    if n > MAX_NESTED_COPIES:
        raise InvalidField("n", f"is {n}; nested MC supports n <= {MAX_NESTED_COPIES}")
    if len(samples) != r:
        raise InvalidField("samples", f"needs one sample count per level ({r} levels), got {samples!r}")
    counts = tuple(check_count(count, f"samples[{i}]", 1) for i, count in enumerate(samples))
    budget = math.prod(counts)
    if budget > MAX_LEAVES:
        raise InvalidField("samples", f"asks for {budget} leaves, above the leaf limit {MAX_LEAVES}")

    leaf_const = -0.5 * logdet_pd(lam)
    lam_inv = solve_pd(lam, np.eye(n))
    rng = stream(seed, 0)
    factors = [_gaussian_factor(cov) for cov in cspec.increment_covariances[:-1]]

    # accumulate h + sum_{k<r} z_k; every level uses fresh draws for every
    # branch of the nesting (shape counts[:k] + (n,)), never reusing inner
    # samples
    zsum = h
    for k in range(1, r):
        z = rng.standard_normal(counts[:k] + (n,)) @ factors[k - 1].T
        zsum = zsum[..., None, :] + z
    parents = zsum.reshape(-1, n)

    # the leaf value c_i + l_i . z + sum_k m_k z_k^2 of the docstring, with
    # x_r folded into l and m
    leaves = counts[-1]
    x_leaf = path.xs[r]
    leaf, quad = _diagonal_leaf_form(cspec.increment_covariances[-1], lam_inv)
    quad = x_leaf * quad
    lin = (x_leaf * parents @ (lam_inv @ leaf)).T.copy()  # (n, parents), one row per k
    const = leaf_const + 0.5 * np.sum((parents @ lam_inv) * parents, axis=1)

    # level r, one block of whole leaf groups at a time
    rows = max(1, LEAF_BLOCK // leaves)
    blocks = range(0, len(parents), rows)
    size = min(rows, len(parents)) * leaves
    y = np.empty(len(parents))

    def reduce_blocks(first: int, normals: np.ndarray, values: np.ndarray) -> None:
        """Draw and reduce leaf blocks first, first + 2, ... into their rows of y."""
        for i in range(first, len(blocks), 2):
            start = blocks[i]
            stop = min(start + rows, len(parents))
            count = (stop - start) * leaves
            # a prefix of the flat buffer, so a short last block is contiguous too
            z = normals[: n * count].reshape(n, stop - start, leaves)
            _leaf_stream(seed, i).standard_normal(out=z)
            block = values[:count].reshape(stop - start, leaves)
            for k in range(n):
                # z_k (m_k z_k + l_ik), in the value buffer for k = 0 and in
                # the spent row k - 1 of the normals after that
                term = block if k == 0 else z[k - 1]
                np.multiply(z[k], quad[k], out=term)
                term += lin[k, start:stop, None]
                term *= z[k]
                if k:
                    block += term
            y[start:stop] = const[start:stop] + log_mean_exp(block, x_leaf)

    from concurrent.futures import ThreadPoolExecutor

    # one set of buffers per thread (a single one when there is one block and
    # the helper has none), allocated before the helper starts; leaving the
    # with block joins the helper, also when the calling thread's share raises
    work = [(np.empty(n * size), np.empty(size)) for _ in blocks[:2]]
    with ThreadPoolExecutor(max_workers=1) as helper:
        helped = helper.submit(reduce_blocks, 1, *work[-1])
        reduce_blocks(0, *work[0])
        helped.result()
    y = y.reshape(counts[:-1])

    # levels r - 1, ..., 1; with r = 1 the leaf level was the outermost one
    weights = work[0][1][:leaves]
    for k in range(r - 1, 0, -1):
        weights = path.xs[k] * y
        y = log_mean_exp(weights, path.xs[k])

    # delta method: Y_0 = (1/x_1) log mean(w), with the shift cancelling
    stderr = standard_error(weights) / (path.xs[1] * float(np.mean(weights)))
    return NestedMCResult(estimate=float(y), stderr=stderr, samples_per_level=counts, seed=int(seed))


def theta_cascade_value(path: DiscretePath, spec: MixtureSpec) -> float:
    """Exact limit of the cascade-averaged tree Gaussian free energy.

    The tree process has covariance C_k = Sum(theta(Q_k)) at overlap depth k;
    level k of the weight recursion is a log-Gaussian moment and contributes
    (1/x_k) * (x_k^2 (C_{k+1} - C_k) / 2).  Summing levels gives
    1/2 sum_k x_k (C_{k+1} - C_k), adjudicating the prefactor of the theta
    sum in the functional.  Raises InvalidPath unless the path passes
    ``validate_path`` (its end matrix is free), and InvalidField unless the
    mixture models the path's n copies.
    """
    check_path(path)
    _check_copies(spec, path.n)
    cov = _tree_covariances(path, spec)
    total = 0.0
    for k in range(path.r):
        total += 0.5 * path.xs[k + 1] * (cov[k + 1] - cov[k])
    return total


def _tree_covariances(path: DiscretePath, spec: MixtureSpec) -> np.ndarray:
    """C_k = Sum(theta(Q_k)) for k = 0..r, from one stacked mixture pass."""
    return np.array([float(np.sum(theta)) for theta in _path_levels(spec, path.qs)[1]])
