"""Minimization of the variational functional.

Structure of the double infimum:

- ``inner_minimize``: for a fixed path the objective is convex in the
  multiplier (a log-det barrier composite), so a damped Newton method finds
  the global minimizer.  The backtracking line search doubles as the cone
  safeguard: any step that would push the end of the multiplier chain out of
  the positive-definite cone fails its Cholesky test and is halved.
- ``detect_degenerate``: a degenerate constraint makes the infimum -inf.  The
  divergence is certified constructively: in the constraint eigenbasis, its
  null eigenvalues (``geometry.null_eigenvalues``) set to 0, pad the diagonal
  so every chain matrix keeps a Gershgorin margin, then push the diagonal
  entry of the null direction to infinity.  The values along that ray, of
  the functional's own kernel built in that basis, strictly decrease.
- ``minimize_over_paths``: the outer infimum over discrete paths is a
  restarted gradient search (L-BFGS-B over a smooth parameterization of the
  monotone chain and the breakpoints), with the inner Newton solve at every
  candidate.  ``_PathFamily`` owns the parameter vector of a level: the
  r + 1 breakpoint weights, held by L-BFGS-B in the box [floor, 1], then
  the level parameters.  Its path, gradient pullback, bounds and starts
  handle the weights; a family (``_FAMILIES``: ``scalar_profile``,
  ``cholesky_increments``) maps only its level parameters to
  Q_1 .. Q_{r-1}.  The breakpoints are the cumulative shares
  x_i = cum_i / S of the weights, so every breakpoint gap, x_0 and
  1 - x_{r-1} included, is at least ``X_GAP`` and the search reaches the
  x_{r-1} -> 1 corner to within it.  The inner problem is strictly convex,
  so the gradient of V(path) = min_Lambda P(Lambda, path) is the envelope
  gradient ``_PathContext.envelope_gradient`` at the inner minimizer
  (Danskin), pulled back to the parameters.  Each level starts from the
  default path, the replica-symmetric corner and seeded random draws; a
  breakpoint grid at r = 1 is opt-in (``x_grid_resolution`` below 1).
  Every reported value is the functional at an admissible multiplier and
  path, so it is an honest upper bound on the infimum.  A level-r path is a level-(r + 1) path with one interval
  duplicated, so each level records the lowest value found up to it, and
  per-level values never increase.

The public entry points ``inner_gradient``, ``inner_minimize`` and
``detect_degenerate`` build their path's context with the one checked entry
``_PathContext.of``, which checks Q, h, the path and the mixture's size.
``minimize_over_paths`` checks Q, h and the mixture's size
(``mixture._check_copies``) before any work.  The search's own paths are
valid by construction: Q_0 = 0, Q_r = Q, PSD increments, every gap at least
``X_GAP``, and every Q_k exactly symmetric (a scalar multiple of Q, or
``_sym`` of a product) and finite unless the family's own arithmetic
overflows, which numpy reports where it happens.  So each objective call
skips what would only re-check them: it builds no ``DiscretePath``, which
would copy and freeze the arrays and test their finiteness, and its mixture
pass (``mixture._path_levels``) does not test their symmetry.  It calls the
``_PathContext`` constructor on the family's (xs, qs) arrays.  At r = 1 the
chain is the fixed 0 -> Q, so its mixture pass runs once per level.  Q^{-1},
the cold start's, is taken once per search.  A level's winning path is built
as a ``DiscretePath`` once, after its starts, and the final re-solve builds
its context the way the candidates do.

Each start of the search is one ``scipy_minimize`` run: the search's own
reverse-communication loop over L-BFGS-B's compiled ``setulb``, which does
what ``scipy.optimize.minimize(method="L-BFGS-B", jac=True)`` does with the
search's options, point for point, without its per-start and per-call
wrappers.  A level builds its box, the arrays (lower, upper), once for all
its starts.  ``setulb`` comes from ``_lbfgsb_kernel``, which loads scipy's
compiled ``optimize/_lbfgsb`` extension by file on the first search, without
running ``scipy/optimize/__init__``; so importing this module loads numpy
only, and a search loads no scipy module.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import math
from dataclasses import asdict, dataclass
from functools import lru_cache
from pathlib import Path
from typing import NamedTuple

import numpy as np

from sphglass.geometry import ConstraintMatrix, DiscretePath, check_field, check_multiplier, null_eigenvalues
from sphglass.functional import (
    _Factors,
    _lapack,
    _lapack_errstate,
    _PathContext,
    _sym,
    _sym_basis,
    solve_pd,
)
from sphglass.mixture import (
    InvalidField,
    MixtureSpec,
    _check_copies,
    _path_levels,
    check_count,
    check_real,
)
from sphglass.parallel import stream

__all__ = [
    "MIN_X_GRID_RESOLUTION",
    "PathSearchConfig",
    "InnerSolveReport",
    "OptimizationReport",
    "DivergenceCertificate",
    "inner_gradient",
    "inner_minimize",
    "detect_degenerate",
    "minimize_over_paths",
    "scipy_minimize",
]

X_GAP = 2e-9  # smallest breakpoint gap the search can reach: the box floor of its weights
# the finest breakpoint grid of the level-1 starts: at most 99 grid starts
MIN_X_GRID_RESOLUTION = 0.01
CERTIFICATE_D11 = (1e10, 1e95, 1e180)
INNER_MAX_ITERATIONS = 80  # Newton steps per inner solve
INNER_GRADIENT_TOLERANCE = 1e-8  # relative to max(1, |value|)
# values within this of the best count as ties between levels
VALUE_TOLERANCE = 1e-6
# L-BFGS-B stops once a step gains less than 1e-3 of the tie tolerance
# (relative to max(1, |value|)), or the projected gradient is below 1e-9
SEARCH_FTOL = 1e-3 * VALUE_TOLERANCE
SEARCH_GTOL = 1e-9
# a Newton decrement below this fraction of max(1, |value|) is rounding noise
NEWTON_DECREMENT_FLOOR = 16.0 * np.finfo(float).eps


def inner_gradient(
    lam: np.ndarray,
    path: DiscretePath,
    q: ConstraintMatrix | np.ndarray,
    h: np.ndarray,
    spec: MixtureSpec,
) -> np.ndarray:
    """Gradient matrix G of the functional in the multiplier.

    (G, B)_F is the directional derivative along any symmetric B:
    G = 1/2 [Q - L^{-1} + sum_k (1/x_k)(L_{k+1}^{-1} - L_k^{-1})
             - L_0^{-1} h h^T L_0^{-1}].

    Raises InvalidPath for a path that fails ``validate_path`` and NotInL
    when lam is not in the admissible set, by the same rule as ``evaluate``.
    """
    ctx = _PathContext.of(path, q, h, spec)
    return ctx.gradient(ctx.member_factors(check_multiplier(lam, ctx.n)))


@dataclass(frozen=True)
class InnerSolveReport:
    lambda_star: np.ndarray
    value: float
    gradient_norm: float
    iterations: int
    status: str  # converged | max_iterations | boundary_stall | diverging

    def to_dict(self) -> dict:
        return {**asdict(self), "lambda_star": self.lambda_star.tolist()}


@dataclass(frozen=True)
class PathSearchConfig:
    """The search's budgets and path family, each field checked on construction.

    The budgets are counts (``mixture.check_count``) and
    ``x_grid_resolution`` a real (``check_real``) of at least
    ``MIN_X_GRID_RESOLUTION``; a bad field raises ``InvalidField``.

    The level-1 breakpoint grid {res, 2 res, ...} in (0, 1) is opt-in: at
    the default 1.0 it is empty.  Level 1 searches one parameter, the
    breakpoint x_0 of the path 0 -> Q, and for n = 1 its value is convex in
    x_0 (the Crisanti-Sommers functional), so the default and corner starts
    reach the optimum that a grid would repeat.
    """

    max_levels: int = 2
    x_grid_resolution: float = 1.0
    q_parameterization: str = "scalar_profile"  # or "cholesky_increments"
    restarts: int = 2
    max_iterations: int = 300  # L-BFGS-B iterations per start; 2x that in objective calls

    def __post_init__(self):
        for name, minimum in (("max_levels", 1), ("restarts", 0), ("max_iterations", 1)):
            object.__setattr__(self, name, check_count(getattr(self, name), name, minimum))
        res = check_real(self.x_grid_resolution, "x_grid_resolution")
        if res < MIN_X_GRID_RESOLUTION:
            raise InvalidField("x_grid_resolution", f"must be at least {MIN_X_GRID_RESOLUTION}, got {res!r}")
        if self.q_parameterization not in _FAMILIES:
            family = self.q_parameterization
            raise InvalidField("q_parameterization", f"must be one of {list(_FAMILIES)}, got {family!r}")


@_lapack_errstate
def _inner_minimize_ctx(ctx: _PathContext, lam0=None) -> tuple[InnerSolveReport, _Factors]:
    """Damped Newton solve over the multiplier for one path context.

    Every point the loop moves to has just been factored by
    ``feasible_value``: the warm-start probe at ``lam0``, the cold start
    ``lambda_start`` (through its raising form ``member_factors``) and each
    accepted line-search trial.  Their ``_Factors`` go straight into
    ``gradient``, so each feasibility test costs one stacked
    ``_lapack.cholesky`` and one stacked ``_lapack.inv``.  Each Newton step
    builds one ``hessian`` and makes one ``_lapack.solve``; a point where
    the loop stops gets no Hessian.  The step's slope (G, step)_F is
    step_vec . gvec in the basis coordinates, the product the descent test
    takes anyway, or -gvec . gvec for the steepest-descent step.  Each
    trial is lam + step, and a failed one halves the step in place along
    with t, which keeps it exactly t times the full step.  A trial is
    exactly symmetric as it stands, since ``_sym_basis`` maps the step back
    to an exactly symmetric matrix.  The whole solve runs under one
    ``_lapack_errstate``, so a failed gufunc shows only as NaN: an
    infeasible trial as None from ``feasible_value``, a singular or
    non-finite Newton system as a step that is not a descent direction.
    A warm start ``lam0`` is taken as it stands: the checked
    ``lambda_init`` of ``inner_minimize`` or the search's previous
    lambda*, each an exactly symmetric float matrix.  Returns the report and
    the final iterate's ``_Factors``, ready for ``envelope_gradient``.
    """
    factored = None
    if lam0 is not None:
        lam = lam0
        factored = ctx.feasible_value(lam)
    if factored is None:
        lam = ctx.lambda_start()
        factored = ctx.member_factors(lam)
    n = ctx.n
    basis, basis_t, ridge = _sym_basis(n)
    gtol = INNER_GRADIENT_TOLERANCE
    status = "max_iterations"
    value, g = factored.value, ctx.gradient(factored).ravel()
    gnorm = math.sqrt(g @ g)
    iterations = 0
    for iterations in range(1, INNER_MAX_ITERATIONS + 1):
        if gnorm <= gtol * max(1.0, abs(value)):
            status = "converged"
            iterations -= 1
            break
        if value < -1e12:
            status = "diverging"
            break
        gvec = basis @ g
        step_vec = _lapack.solve(ctx.hessian(factored) + ridge, -gvec)
        # the slope of the step; NaN, from a singular or non-finite system,
        # fails the descent test too
        slope = float(step_vec @ gvec)
        newton = slope < 0.0
        if not newton:
            step_vec = -gvec  # Hessian ill-conditioned: steepest descent
            slope = -float(gvec @ gvec)
        step = (basis_t @ step_vec).reshape(n, n)

        # backtracking doubles as the cone safeguard: any trial whose chain
        # leaves the PD cone fails the Cholesky inside feasible_value
        t = 1.0
        improved = False
        for _ in range(40):
            if t * abs(slope) < 1e-17 * max(1.0, abs(value)):
                break  # predicted decrease below float resolution
            trial = lam + step
            trial_factored = ctx.feasible_value(trial)
            if trial_factored is not None and trial_factored.value <= value + 1e-4 * t * slope:
                lam, factored = trial, trial_factored
                improved = True
                break
            t *= 0.5
            step *= 0.5  # exactly t times the full step: t is a power of two
        if not improved:
            # a full Newton step that predicts a decrease within a few ulps
            # of the value cannot pass the Armijo test: the solve already
            # sits at the optimum to rounding, whatever the gradient norm
            at_optimum = newton and -slope <= NEWTON_DECREMENT_FLOOR * max(1.0, abs(value))
            status = "converged" if at_optimum else "boundary_stall"
            break
        value, g = factored.value, ctx.gradient(factored).ravel()
        gnorm = math.sqrt(g @ g)
    if status == "max_iterations" and gnorm <= gtol * max(1.0, abs(value)):
        status = "converged"
    report = InnerSolveReport(
        lambda_star=lam, value=value, gradient_norm=gnorm, iterations=iterations, status=status
    )
    return report, factored


def inner_minimize(
    path: DiscretePath,
    q: ConstraintMatrix | np.ndarray,
    h: np.ndarray,
    spec: MixtureSpec,
    lambda_init: np.ndarray | None = None,
) -> InnerSolveReport:
    """Convex minimization over the multiplier for a fixed path.

    The objective is convex on the admissible set, so the local optimum found
    by damped Newton is global; for positive definite Q the solve never
    diverges, and a diverging report there raises RuntimeError.  Raises
    InvalidPath for a path that fails ``validate_path``, and ValueError
    naming Lambda for a ``lambda_init`` that is not an exactly symmetric
    n x n matrix (``check_multiplier``).
    """
    q = ConstraintMatrix.of(q)
    ctx = _PathContext.of(path, q, h, spec)
    lam0 = None if lambda_init is None else check_multiplier(lambda_init, ctx.n)
    report, _ = _inner_minimize_ctx(ctx, lam0=lam0)
    if report.status == "diverging" and not q.is_degenerate():
        raise RuntimeError(
            "inner solve diverged on a positive definite constraint: "
            f"smallest eigenvalue of Q is {q.eigenvalues[0]:.3e}"
        )
    return report


# ---------------------------------------------------------------------------
# degeneracy dichotomy


@dataclass(frozen=True)
class DivergenceCertificate:
    """Three multipliers along the constructed ray with strictly decreasing values."""

    d11_values: tuple[float, ...]
    objective_values: tuple[float, ...]
    null_eigenvalue: float

    def to_dict(self) -> dict:
        return {
            "d11_values": list(self.d11_values),
            "objective_values": list(self.objective_values),
            "null_eigenvalue": self.null_eigenvalue,
        }


def detect_degenerate(
    q: ConstraintMatrix | np.ndarray,
    path: DiscretePath,
    h: np.ndarray,
    spec: MixtureSpec,
    d11_values: tuple[float, ...] = CERTIFICATE_D11,
) -> DivergenceCertificate | None:
    """Return a divergence certificate when Q is degenerate, else None.

    The ray fixes the constraint eigenbasis U with (U^T Q U)_{11} = 0, pads
    the diagonal D so every chain matrix keeps a positive Gershgorin margin,
    and drives D_11 through ``d11_values``.  The values are those at diag(D)
    of the path context that the ``_PathContext`` constructor builds in the
    basis U, with Q = diag(mu), U^T h and U^T Delta_k U (its qs and xi''
    stay in the original frame; no value reads them): in the original basis,
    entries as large as D_11 would bury the O(1) eigenvalues of the chain in
    rounding.  The null eigenvalues of Q (``geometry.null_eigenvalues``) are
    clamped to exact zero, or a remnant ~1e-16 times D_11 = 1e180 would
    dominate the trace term.  Raises InvalidPath for a path that fails
    ``validate_path``, whatever Q, and RuntimeError unless the values
    strictly decrease.
    """
    q = ConstraintMatrix.of(q)
    ctx = _PathContext.of(path, q, h, spec)
    if not q.is_degenerate():
        return None

    # the certificate's own eigenbasis; ascending eigenvalues, so column 0
    # of vecs is the null direction
    eigs, vecs = np.linalg.eigh(q.matrix)
    mu_clamped = np.where(null_eigenvalues(eigs), 0.0, eigs)
    deltas, thetas, xi_seconds = _path_levels(spec, path.qs)
    levels = (_sym(vecs.T @ deltas @ vecs), thetas, xi_seconds)
    ctx = _PathContext(path.xs, path.qs, np.diag(mu_clamped), vecs.T @ ctx.h, levels)

    # Gershgorin padding against every chain tail, margin 1; the zero tail
    # of the last level keeps it nonnegative
    tails = ctx.tails
    diag = np.diagonal(tails, axis1=1, axis2=2)
    d_diag = np.max(np.sum(np.abs(tails), axis=2) - np.abs(diag) + diag, axis=0) + 1.0

    values = []
    for d11 in d11_values:
        d = d_diag.copy()
        d[0] = max(d11, d_diag[0])
        values.append(ctx.member_factors(np.diag(d)).value)
    if not all(later < earlier for earlier, later in zip(values, values[1:])):
        raise RuntimeError(
            "degeneracy certificate does not show a divergence: objective values "
            f"{values} along the ray are not strictly decreasing"
        )
    return DivergenceCertificate(
        d11_values=tuple(float(v) for v in d11_values),
        objective_values=tuple(values),
        null_eigenvalue=float(eigs[0]),
    )


# ---------------------------------------------------------------------------
# path families


def _shares(w: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """cum_i / S for i < len(w) - 1: r + 1 positive weights to 0 < x_0 < ... < x_{r-1} < 1.

    Written into ``out`` when given.
    """
    cum = w.cumsum()
    return np.divide(cum[:-1], cum[-1], out=out)


def _shares_pullback(w: np.ndarray, grad: np.ndarray) -> np.ndarray:
    """Pull d/d(cum_i / S) back to the weights: d(cum_i / S)/dw_j = ([j <= i] - cum_i / S) / S."""
    suffix = np.zeros(len(w))  # suffix[j] = sum_{i >= j} grad_i, and suffix[-1] = 0
    grad[::-1].cumsum(out=suffix[-2::-1])
    suffix -= float(grad @ _shares(w))
    suffix /= w.sum()
    return suffix


class _PathFamily:
    """The parameter vector of a level-r search and its discrete path.

    The vector is the r + 1 breakpoint weights, which L-BFGS-B holds in
    [``floor``, 1], then the level parameters: ``per_level`` for each of r
    steps at r >= 2, none at r = 1.  The breakpoints are the shares
    x_i = cum_i / S of the weights; S is at most r + 1, so every gap
    w_j / S is at least ``X_GAP``.  Q_0 = 0, Q_r = Q,
    and a family maps only its level parameters: to Q_1 .. Q_{r-1}
    (``_levels``), the pullback of d/dQ_k to them (``_levels_pullback``)
    and the default (``_level_default``).  ``_levels`` also returns what it
    computed on the way that the pullback needs, and ``chain`` hands that on
    as its third value, so ``pullback`` at the same parameters recomputes
    none of it.  At r = 1 there is no middle level, so the map and its
    pullback are not called and that value is None.
    """

    def __init__(self, r: int, qmat: np.ndarray, per_level: int):
        self.r = r
        self.qmat = qmat
        self.floor = max(1e-8, (r + 1) * X_GAP)
        self.n_params = (r + 1) + (r * per_level if r > 1 else 0)

    def chain(self, params: np.ndarray) -> tuple[np.ndarray, np.ndarray, object]:
        """The breakpoints xs and matrices qs of ``path(params)``, as plain
        arrays, and the levels' state for ``pullback``."""
        r, n = self.r, self.qmat.shape[0]
        qs = np.zeros((r + 1, n, n))
        state = None
        if r > 1:
            qs[1:r], state = self._levels(params[r + 1 :])
        qs[r] = self.qmat
        xs = np.zeros(r + 2)
        xs[-1] = 1.0
        _shares(params[: r + 1], out=xs[1:-1])
        return xs, qs, state

    def path(self, params: np.ndarray) -> DiscretePath:
        xs, qs, _ = self.chain(params)
        return DiscretePath(xs=xs, qs=qs)

    def pullback(self, params: np.ndarray, state, grad_x: np.ndarray, grad_q: np.ndarray) -> np.ndarray:
        """Gradient in the parameters from the path gradient (d/dx, d/dQ_k);
        ``state`` is the third value of ``chain(params)``."""
        r = self.r
        out = np.zeros(self.n_params)
        out[: r + 1] = _shares_pullback(params[: r + 1], grad_x)
        if r > 1:
            out[r + 1 :] = self._levels_pullback(params[r + 1 :], state, grad_q)
        return out

    def default(self) -> np.ndarray:
        return np.concatenate([np.ones(self.r + 1), self._level_default()])

    def bounds(self) -> tuple[np.ndarray, np.ndarray]:
        """(lower, upper): the weights' box [floor, 1]; every level parameter
        is free, -inf to inf."""
        lower = np.full(self.n_params, -np.inf)
        upper = np.full(self.n_params, np.inf)
        lower[: self.r + 1] = self.floor
        upper[: self.r + 1] = 1.0
        return lower, upper

    def starts(self, config: PathSearchConfig, seed: int) -> list[np.ndarray]:
        """Starts of the level-r search, each inside ``bounds()``.

        The default, the replica-symmetric corner, the breakpoint grid of
        ``config.x_grid_resolution`` at r = 1 (empty by default: a search
        convex in x_0 for n = 1 needs no grid) and ``config.restarts``
        random draws from the level's own stream
        ``parallel.stream(seed, r)``.  L-BFGS-B clips a start into
        its bounds, so a draw maps its weights into the box: exp(z - max z)
        keeps the shares of a softmax of z.
        """
        r = self.r
        rng = stream(seed, r)
        corner = self.default()  # breakpoints stacked against 1
        corner[1 : r + 1] = self.floor
        starts = [self.default(), corner]
        if r == 1:
            res = config.x_grid_resolution
            for g in np.arange(res, 1.0, res):
                s = self.default()
                s[:2] = (g, 1.0 - g)
                starts.append(s)
        for _ in range(config.restarts):
            s = rng.normal(0.0, 1.5, size=self.n_params)
            s[: r + 1] = np.maximum(np.exp(s[: r + 1] - s[: r + 1].max()), self.floor)
            starts.append(s)
        return starts


class _ScalarProfile(_PathFamily):
    """Paths Q_k = q_k Q for a monotone scalar profile (always valid).

    The profile q_1 < ... < q_{r-1} is the shares of r steps exp(u_j).  At
    r = 1 there is no profile, and the family keeps no level parameter.
    """

    def __init__(self, r: int, qmat: np.ndarray):
        super().__init__(r, qmat, 1)

    def _levels(self, u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The levels and, as their state, the steps w = exp(u)."""
        w = np.exp(np.clip(u, -60.0, 60.0))
        return _shares(w)[:, None, None] * self.qmat, w

    def _levels_pullback(self, u: np.ndarray, w: np.ndarray, grad_q: np.ndarray) -> np.ndarray:
        grad_profile = (grad_q * self.qmat).sum(axis=(1, 2))
        return np.where(np.abs(u) < 60.0, w * _shares_pullback(w, grad_profile), 0.0)

    def _level_default(self) -> np.ndarray:
        return np.zeros(self.n_params - self.r - 1)


class _CholeskyIncrements(_PathFamily):
    """Paths Q_k = M W_k M^T with W_k monotone PSD partial sums, W_r = I.

    M is the Cholesky factor of Q; the W_k come from normalized partial sums
    of free Gram increments, so every increment is PSD by construction and
    the endpoint hits Q exactly.  The level parameters are the lower
    triangles of the r increments' factors.
    """

    RIDGE = 1e-8

    def __init__(self, r: int, qmat: np.ndarray):
        self.n = qmat.shape[0]
        self.m = self.n * (self.n + 1) // 2
        super().__init__(r, qmat, self.m)
        self.chol = np.linalg.cholesky(qmat)
        self._tril = np.tril_indices(self.n)

    def _levels(self, u: np.ndarray) -> tuple[np.ndarray, tuple]:
        """Q_k = M R P_k R M^T with P_k the partial Gram sums and R = S^{-1/2}.

        The Grams are L_k L_k^T + ridge I of the lower-triangular factors
        L_k, and S is their sum.  The state is (L_k, P_1 .. P_{r-1}, R, and
        S's eigenvectors and root eigenvalues): one ``eigh`` of S.
        """
        lows = np.zeros((self.r, self.n, self.n))
        lows[:, self._tril[0], self._tril[1]] = u.reshape(self.r, self.m)
        grams = lows @ lows.swapaxes(1, 2) + self.RIDGE * np.eye(self.n)
        evals, evecs = np.linalg.eigh(grams.sum(axis=0))
        roots = np.sqrt(np.clip(evals, 1e-30, None))
        inv_sqrt = evecs @ np.diag(1.0 / roots) @ evecs.T
        partial = np.cumsum(grams, axis=0)[: self.r - 1]
        levels = _sym(self.chol @ _sym(inv_sqrt @ partial @ inv_sqrt) @ self.chol.T)
        return levels, (lows, partial, inv_sqrt, evecs, roots)

    def _levels_pullback(self, u: np.ndarray, state: tuple, grad_q: np.ndarray) -> np.ndarray:
        """d/d(lower triangles) from d/dQ_k.

        d/dW_k = M^T G_k M; d/dP_k = R (d/dW_k) R; d/dR = sum_k 2 sym(d/dW_k
        R P_k).  R is a spectral function of S, so d/dS is the Daleckii-Krein
        form E (F . E^T (d/dR) E) E^T, with divided differences
        F_ij = -1 / (s_i s_j (s_i + s_j)) of t -> t^{-1/2} at the roots s.
        Each Gram L L^T + ridge I gets d/dS plus the d/dP_k it enters, and
        pulls back to 2 (d/dGram) L on the lower triangle.
        """
        n = self.n
        lows, partial, inv_sqrt, evecs, roots = state
        grad_w = self.chol.T @ grad_q @ self.chol
        grad_p = inv_sqrt @ grad_w @ inv_sqrt
        grad_r = 2.0 * _sym(np.sum(grad_w @ inv_sqrt @ partial, axis=0))
        divided = -1.0 / (np.outer(roots, roots) * (roots[:, None] + roots[None, :]))
        grad_s = evecs @ (divided * (evecs.T @ grad_r @ evecs)) @ evecs.T
        # Gram l enters P_k for every k > l
        later = np.concatenate([np.cumsum(grad_p[::-1], axis=0)[::-1], np.zeros((1, n, n))])
        grad_lows = 2.0 * (grad_s + later) @ lows
        return grad_lows[:, self._tril[0], self._tril[1]].ravel()

    def _level_default(self) -> np.ndarray:
        return np.tile(np.eye(self.n)[self._tril], (self.n_params - self.r - 1) // self.m)


_FAMILIES = {"scalar_profile": _ScalarProfile, "cholesky_increments": _CholeskyIncrements}


# ---------------------------------------------------------------------------
# outer search


@dataclass(frozen=True)
class OptimizationReport:
    best_value: float
    best_path: DiscretePath | None
    inner: InnerSolveReport | None
    per_level_values: tuple[tuple[int, float], ...]
    degenerate: bool
    certificate: DivergenceCertificate | None = None

    def to_dict(self) -> dict:
        return {
            "best_value": self.best_value,
            "best_path": None
            if self.best_path is None
            else {"xs": self.best_path.xs.tolist(), "Qs": self.best_path.qs.tolist()},
            "inner": None if self.inner is None else self.inner.to_dict(),
            "per_level_values": [[r, v] for r, v in self.per_level_values],
            "degenerate": self.degenerate,
            "certificate": None if self.certificate is None else self.certificate.to_dict(),
        }


class _SearchResult(NamedTuple):
    """The end of one L-BFGS-B run: the last point, its value, the objective
    calls and the iterations."""

    fun: float
    x: np.ndarray
    nfev: int
    nit: int


@lru_cache(maxsize=1)
def _lbfgsb_kernel():
    """scipy's compiled L-BFGS-B extension, loaded by file.

    The file is ``optimize/_lbfgsb`` with one of the interpreter's extension
    suffixes, in the package directory that ``importlib.util.find_spec``
    gives for scipy without importing it.  The module is executed but not
    registered in ``sys.modules``, so ``scipy/optimize/__init__`` never
    runs; a later ``import scipy.optimize`` loads its own copy beside it.
    A missing file raises ImportError naming the directory and the stem
    searched.
    """
    scipy = importlib.util.find_spec("scipy")
    if scipy is None:
        raise ImportError("scipy is not installed; the search needs its compiled L-BFGS-B kernel")
    directory = Path(scipy.submodule_search_locations[0]) / "optimize"
    for suffix in importlib.machinery.EXTENSION_SUFFIXES:
        file = directory / ("_lbfgsb" + suffix)
        if file.is_file():
            spec = importlib.util.spec_from_file_location("_lbfgsb", file)
            module = importlib.util.module_from_spec(spec)
            spec.loader.exec_module(module)
            return module
    suffixes = ", ".join(importlib.machinery.EXTENSION_SUFFIXES)
    raise ImportError(f"no compiled L-BFGS-B kernel _lbfgsb with a suffix of ({suffixes}) in {directory}")


def scipy_minimize(fun, x0: np.ndarray, *, bounds: tuple[np.ndarray, np.ndarray], max_iterations: int):
    """L-BFGS-B on ``fun(x) -> (value, gradient)`` inside the box ``bounds``.

    ``bounds`` is (lower, upper), one entry per parameter, with -inf and inf
    where a side is free.  This is the reverse-communication loop of
    ``scipy.optimize.minimize(method="L-BFGS-B", jac=True)`` (scipy 1.17)
    over the compiled ``setulb``, loaded on the first call, with the search's
    options: 10 corrections, 20 line-search steps, ``SEARCH_FTOL`` and
    ``SEARCH_GTOL``, at most ``max_iterations`` iterations and
    2 ``max_iterations`` objective calls.  It visits the same points, so it
    returns the same bits, without ``minimize``'s per-start and per-call
    wrappers.  The start is clipped into the box.  ``setulb`` asks for the
    value at a point by ``task[0] == 3``, at the start first; like
    ``minimize``'s cache, the loop does not score again a point equal to the
    last one scored, and the objective gets a copy of the point.  At each
    new iterate (``task[0] == 1``) the loop stops with code 504 after
    ``max_iterations`` iterations, or with 502 once the calls exceed
    2 ``max_iterations``; any other task ends the run.

    ``setulb`` comes from ``_lbfgsb_kernel``, by file, because importing
    scipy.optimize would take most of a fresh interpreter's start-up and
    about 40 MB of memory for this one function.  That ties the search to
    scipy's private file layout, ``scipy/optimize/_lbfgsb<extension
    suffix>``, as the loop ties it to ``setulb``'s arguments (scipy >= 1.15).
    ``nfev`` is the number of objective calls; the function is public so that
    ``perfbench``'s tracer, which wraps every public name, counts those calls
    as ``optimizer.objective_calls``.
    """
    setulb = _lbfgsb_kernel().setulb

    m, maxls = 10, 20
    lower, upper = bounds
    has_lower, has_upper = np.isfinite(lower), np.isfinite(upper)
    # setulb's bound codes: 0 free, 1 lower only, 2 both, 3 upper only
    nbd = (has_lower + 3 * has_upper - 2 * (has_lower & has_upper)).astype(np.int32)
    low = np.where(has_lower, lower, 0.0)
    up = np.where(has_upper, upper, 0.0)
    x = np.clip(np.asarray(x0, dtype=np.float64), lower, upper)
    n = x.size
    wa = np.zeros(2 * m * n + 5 * n + 11 * m * m + 8 * m)
    iwa = np.zeros(3 * n, dtype=np.int32)
    task = np.zeros(2, dtype=np.int32)
    ln_task = np.zeros(2, dtype=np.int32)
    lsave = np.zeros(4, dtype=np.int32)
    isave = np.zeros(44, dtype=np.int32)
    dsave = np.zeros(29)
    factr = SEARCH_FTOL / np.finfo(float).eps
    max_calls = 2 * max_iterations

    scored = np.full(n, np.nan)  # equal to no point, so the start is scored
    f, g = 0.0, np.zeros(n)
    nfev = nit = 0
    while True:
        setulb(m, x, low, up, nbd, f, g, factr, SEARCH_GTOL, wa, iwa, task, lsave, isave, dsave, maxls, ln_task)
        if task[0] == 3:
            if not np.array_equal(x, scored):
                scored = x.copy()
                f, g = fun(x.copy())
                g = np.array(g, dtype=np.float64)
                nfev += 1
        elif task[0] == 1:
            nit += 1
            if nit >= max_iterations:
                task[:] = 5, 504
            elif nfev > max_calls:
                task[:] = 5, 502
        else:
            break
    return _SearchResult(fun=f, x=x, nfev=nfev, nit=nit)


def minimize_over_paths(
    q: ConstraintMatrix | np.ndarray,
    h: np.ndarray,
    spec: MixtureSpec,
    config: PathSearchConfig | None = None,
    seed: int = 0,
) -> OptimizationReport:
    """Search inf over multipliers and discrete paths with r = 1..max_levels.

    Degenerate constraints short-circuit to -inf with the certificate of
    ``detect_degenerate`` on the one-level path 0 -> Q, which raises
    RuntimeError when its values do not strictly decrease.  Level r records
    the lowest value of levels 1..r.  The reported best path is that of the
    smallest r whose value is within ``VALUE_TOLERANCE`` of the overall best
    (parsimony tie-break); that level improved on every level before it, so
    ``best_value`` is the value of its own path.
    """
    config = config or PathSearchConfig()
    q = ConstraintMatrix.of(q)
    h = check_field(h, q.n)
    _check_copies(spec, q.n)
    qmat = q.matrix

    # only a degenerate Q needs the certificate: checking the probe path of a
    # positive definite Q would decompose Q again
    if q.is_degenerate():
        return OptimizationReport(
            best_value=-np.inf,
            best_path=None,
            inner=None,
            per_level_values=(),
            degenerate=True,
            certificate=detect_degenerate(q, DiscretePath.simple(qmat, 0.5), h, spec),
        )

    per_level: list[tuple[int, float]] = []
    level_best_paths: dict[int, DiscretePath] = {}
    prev_best = np.inf
    qinv = solve_pd(qmat, np.eye(q.n))

    for r in range(1, config.max_levels + 1):
        family = _FAMILIES[config.q_parameterization](r, qmat)
        warm_lambda: list[np.ndarray | None] = [None]
        # at r = 1 every candidate's chain is 0 -> Q
        fixed_levels = _path_levels(spec, family.chain(family.default())[1]) if r == 1 else None

        def objective(vec: np.ndarray) -> tuple[float, np.ndarray]:
            try:
                xs, qs, state = family.chain(vec)
                levels = _path_levels(spec, qs) if fixed_levels is None else fixed_levels
                ctx = _PathContext(xs, qs, qmat, h, levels, qinv)
                rep, factored = _inner_minimize_ctx(ctx, lam0=warm_lambda[0])
                warm_lambda[0] = rep.lambda_star
                grad_x, grad_q = ctx.envelope_gradient(factored)
                return rep.value, family.pullback(vec, state, grad_x, grad_q)
            except (ValueError, np.linalg.LinAlgError):
                return np.inf, np.zeros_like(vec)

        level_value = np.inf
        level_x = None
        bounds = family.bounds()
        for start in family.starts(config, seed):
            res = scipy_minimize(objective, start, bounds=bounds, max_iterations=config.max_iterations)
            if res.fun < level_value:
                level_value = float(res.fun)
                level_x = res.x
        # every level-r path is a level-(r + 1) path with one interval
        # duplicated, so a level records the best value so far; one that
        # does not improve on it ties an earlier level, and the tie-break
        # below never returns its path
        prev_best = min(prev_best, level_value)
        per_level.append((r, prev_best))
        level_best_paths[r] = None if level_x is None else family.path(level_x)

    lowest = min(v for _, v in per_level)
    best_r, best_value = next((r, v) for r, v in per_level if v <= lowest + VALUE_TOLERANCE)
    best_path = level_best_paths[best_r]
    levels = _path_levels(spec, best_path.qs)
    inner, _ = _inner_minimize_ctx(_PathContext(best_path.xs, best_path.qs, qmat, h, levels, qinv))
    return OptimizationReport(
        best_value=best_value,
        best_path=best_path,
        inner=inner,
        per_level_values=tuple(per_level),
        degenerate=False,
        certificate=None,
    )
