"""Minimization of the variational functional.

Structure of the double infimum:

- ``inner_minimize``: for a fixed path the objective is convex in the
  multiplier (a log-det barrier composite), so a damped Newton method finds
  the global minimizer.  The backtracking line search doubles as the cone
  safeguard: any step that would push the end of the multiplier chain out of
  the positive-definite cone fails its Cholesky test and is halved.
- ``detect_degenerate``: a degenerate constraint makes the infimum -inf.  The
  divergence is certified constructively: rotate to the constraint
  eigenbasis, pad the diagonal so every chain matrix keeps a Gershgorin
  margin, then push the diagonal entry aligned with the null direction to
  infinity.  The certificate reports strictly decreasing objective values
  along that ray.
- ``minimize_over_paths``: the outer infimum over discrete paths has no known
  algorithm, so it is a restarted derivative-free search (Nelder-Mead over a
  smooth parameterization of the monotone chain and the breakpoints), with
  the inner Newton solve at every candidate.  Reported values are therefore
  honest upper bounds on the infimum; level r + 1 is warm-started from the
  refined level-r optimum so per-level values never increase.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.optimize import minimize as _scipy_minimize

from sphglass.geometry import (
    DEGENERACY_RTOL,
    ConstraintMatrix,
    DiscretePath,
    is_degenerate_spectrum,
    refine_path,
)
from sphglass.functional import (
    MEMBERSHIP_MARGIN,
    NotInL,
    _PathContext,
    _sym,
    _sym_basis,
    logdet_pd,
    solve_pd,
)
from sphglass.mixture import MixtureSpec, check_symmetric

__all__ = [
    "PathSearchConfig",
    "InnerSolveReport",
    "OptimizationReport",
    "DivergenceCertificate",
    "inner_gradient",
    "inner_minimize",
    "detect_degenerate",
    "minimize_over_paths",
]

X_UPPER = 1.0 - 1e-6  # breakpoints may approach but not reach 1
X_LOWER = 1e-9
CERTIFICATE_D11 = (1e10, 1e95, 1e180)
# a Newton decrement below this fraction of max(1, |value|) is rounding noise
NEWTON_DECREMENT_FLOOR = 16.0 * np.finfo(float).eps


def _to_coords(g: np.ndarray) -> np.ndarray:
    return _sym_basis(g.shape[0]) @ g.ravel()


def _from_coords(v: np.ndarray, n: int) -> np.ndarray:
    return (_sym_basis(n).T @ v).reshape(n, n)


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
    """
    lam = check_symmetric(lam, "Lambda")
    qmat = q.matrix if isinstance(q, ConstraintMatrix) else np.asarray(q, dtype=float)
    ctx = _PathContext(path, qmat, h, spec)
    if ctx.min_eig0(lam) <= MEMBERSHIP_MARGIN:
        raise NotInL("Lambda_0 not positive definite at the requested point")
    _, grad, _ = ctx.value_grad_hess(lam)
    return grad


@dataclass(frozen=True)
class InnerSolveReport:
    lambda_star: np.ndarray
    value: float
    gradient_norm: float
    iterations: int
    status: str  # converged | max_iterations | boundary_stall | diverging

    def to_dict(self) -> dict:
        return {
            "lambda_star": self.lambda_star.tolist(),
            "value": self.value,
            "gradient_norm": self.gradient_norm,
            "iterations": self.iterations,
            "status": self.status,
        }


@dataclass(frozen=True)
class PathSearchConfig:
    max_levels: int = 2
    x_grid_resolution: float = 0.25
    q_parameterization: str = "scalar_profile"  # or "cholesky_increments"
    restarts: int = 2
    tolerance_value: float = 1e-6
    max_iterations: int = 300  # outer Nelder-Mead budget per start
    inner_max_iterations: int = 80
    inner_gradient_tolerance: float = 1e-8

    def __post_init__(self):
        if self.max_levels < 1:
            raise ValueError("max_levels must be >= 1")
        if self.x_grid_resolution <= 0:
            raise ValueError("x_grid_resolution must be positive")
        if self.q_parameterization not in ("scalar_profile", "cholesky_increments"):
            raise ValueError(f"unknown q_parameterization {self.q_parameterization!r}")
        if self.restarts < 0 or self.max_iterations < 1 or self.inner_max_iterations < 1:
            raise ValueError("iteration/restart budgets must be positive")


def _inner_minimize_ctx(ctx: _PathContext, config: PathSearchConfig, lam0=None) -> InnerSolveReport:
    """Damped Newton solve over the multiplier for one path context.

    Every point the loop moves to has just been factored by
    ``feasible_value``: the warm-start probe at ``lam0`` and each accepted
    line-search trial.  Their ``(value, chol)`` pair goes straight into
    ``value_grad_hess``, so each iterate costs one stacked Cholesky call, and
    the result is bitwise that of re-factoring.  Only the cold start
    (``lambda_start``) is factored inside ``value_grad_hess``.
    """
    lam = None
    factored = None
    if lam0 is not None:
        candidate = _sym(np.asarray(lam0, dtype=float))
        factored = ctx.feasible_value(candidate)
        if factored is not None:
            lam = candidate
    if lam is None:
        lam = ctx.lambda_start()
    n = ctx.n
    gtol = config.inner_gradient_tolerance
    status = "max_iterations"
    value, grad, hess = ctx.value_grad_hess(lam, factored)
    gnorm = float(np.linalg.norm(grad))
    iterations = 0
    for iterations in range(1, config.inner_max_iterations + 1):
        if gnorm <= gtol * max(1.0, abs(value)):
            status = "converged"
            iterations -= 1
            break
        if value < -1e12:
            status = "diverging"
            break
        gvec = _to_coords(grad)
        step_vec = None
        try:
            step_vec = np.linalg.solve(hess + 1e-12 * np.eye(hess.shape[0]), -gvec)
        except np.linalg.LinAlgError:
            step_vec = None
        newton = step_vec is not None and float(step_vec @ gvec) < 0.0
        if not newton:
            step_vec = -gvec  # Hessian ill-conditioned: steepest descent
        step = _from_coords(step_vec, n)

        # backtracking doubles as the cone safeguard: any trial whose chain
        # leaves the PD cone fails the Cholesky inside feasible_value
        slope = float(np.sum(grad * step))
        t = 1.0
        improved = False
        for _ in range(40):
            if t * abs(slope) < 1e-17 * max(1.0, abs(value)):
                break  # predicted decrease below float resolution
            trial = _sym(lam + t * step)
            factored = ctx.feasible_value(trial)
            if factored is not None and factored[0] <= value + 1e-4 * t * slope:
                lam = trial
                improved = True
                break
            t *= 0.5
        if not improved:
            # a full Newton step that predicts a decrease within a few ulps
            # of the value cannot pass the Armijo test: the solve already
            # sits at the optimum to rounding, whatever the gradient norm
            at_optimum = newton and -slope <= NEWTON_DECREMENT_FLOOR * max(1.0, abs(value))
            status = "converged" if at_optimum else "boundary_stall"
            break
        value, grad, hess = ctx.value_grad_hess(lam, factored)
        gnorm = float(np.linalg.norm(grad))
    else:
        iterations = config.inner_max_iterations
    if status == "max_iterations" and gnorm <= gtol * max(1.0, abs(value)):
        status = "converged"
    return InnerSolveReport(
        lambda_star=lam, value=value, gradient_norm=gnorm, iterations=iterations, status=status
    )


def inner_minimize(
    path: DiscretePath,
    q: ConstraintMatrix | np.ndarray,
    h: np.ndarray,
    spec: MixtureSpec,
    config: PathSearchConfig | None = None,
    lambda_init: np.ndarray | None = None,
) -> InnerSolveReport:
    """Convex minimization over the multiplier for a fixed path.

    The objective is convex on the admissible set, so the local optimum found
    by damped Newton is global; for positive definite Q the solve never
    diverges, and a diverging report there raises RuntimeError.
    """
    config = config or PathSearchConfig()
    qmat = q.matrix if isinstance(q, ConstraintMatrix) else np.asarray(q, dtype=float)
    ctx = _PathContext(path, qmat, h, spec)
    report = _inner_minimize_ctx(ctx, config, lam0=lambda_init)
    if report.status == "diverging":
        eigs = np.linalg.eigvalsh(qmat)
        if not is_degenerate_spectrum(eigs):
            raise RuntimeError(
                "inner solve diverged on a positive definite constraint: "
                f"smallest eigenvalue of Q is {eigs[0]:.3e}"
            )
    return report


# ---------------------------------------------------------------------------
# degeneracy dichotomy


@dataclass(frozen=True)
class DivergenceCertificate:
    """Three multipliers along the constructed ray with decreasing values."""

    d11_values: tuple[float, ...]
    objective_values: tuple[float, ...]
    null_eigenvalue: float

    def to_dict(self) -> dict:
        return {
            "d11_values": list(self.d11_values),
            "objective_values": list(self.objective_values),
            "null_eigenvalue": self.null_eigenvalue,
        }


def _ray_objective(
    ctx: _PathContext, u: np.ndarray, mu_clamped: np.ndarray, d_diag: np.ndarray
) -> float:
    """Objective at Lambda = U diag(d) U^T, evaluated in the eigenbasis of Q.

    Working on D - U^T tail U keeps the huge ray entry on the diagonal, where
    the chain matrices stay diagonally dominant: assembling Lambda in the
    original basis would bury the O(1) eigenvalues under rounding of entries
    as large as D_11.  Clamping the near-null constraint eigenvalues to exact
    zero likewise keeps the trace term finite (a float remnant ~1e-16 times
    D_11 = 1e180 would dominate otherwise).
    """
    total = 0.5 * float(d_diag @ mu_clamped) - 0.5 * ctx.n - ctx.theta_const
    for j in range(ctx.r + 1):
        rotated = _sym(u.T @ ctx.tails[j] @ u)
        total += ctx.logdet_coeffs[j] * logdet_pd(np.diag(d_diag) - rotated)
    if ctx.has_field:
        rotated0 = _sym(u.T @ ctx.tails[0] @ u)
        h_rot = u.T @ ctx.h
        total += 0.5 * float(h_rot @ solve_pd(np.diag(d_diag) - rotated0, h_rot))
    return total


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
    and drives D_11 through ``d11_values``.
    """
    qmat = q.matrix if isinstance(q, ConstraintMatrix) else np.asarray(q, dtype=float)
    eigs, vecs = np.linalg.eigh(qmat)
    if not is_degenerate_spectrum(eigs):
        return None

    ctx = _PathContext(path, qmat, h, spec)
    u = vecs  # ascending eigenvalues: column 0 is the null direction
    mu_clamped = np.where(eigs > DEGENERACY_RTOL * eigs[-1], eigs, 0.0)

    # Gershgorin padding against every chain tail, margin 1
    base = np.zeros(ctx.n)
    for k in range(ctx.r + 1):
        s = u.T @ ctx.tails[k] @ u
        radius = np.sum(np.abs(s), axis=1) - np.abs(np.diag(s)) + np.diag(s)
        base = np.maximum(base, radius)
    d_diag = base + 1.0

    values = []
    for d11 in d11_values:
        d = d_diag.copy()
        d[0] = max(d11, d_diag[0])
        values.append(_ray_objective(ctx, u, mu_clamped, d))
    return DivergenceCertificate(
        d11_values=tuple(float(v) for v in d11_values),
        objective_values=tuple(values),
        null_eigenvalue=float(eigs[0]),
    )


# ---------------------------------------------------------------------------
# path parameterizations


def _xs_from_weights(u: np.ndarray) -> np.ndarray:
    """Map r + 1 unconstrained reals to interior breakpoints x_0 < ... < x_{r-1}."""
    w = np.exp(np.clip(u, -60.0, 60.0))
    cum = np.cumsum(w)
    inner = cum[:-1] / cum[-1]
    out = np.empty_like(inner)
    prev = 0.0
    for i, v in enumerate(inner):
        remaining = inner.size - 1 - i
        hi = X_UPPER - remaining * X_LOWER
        out[i] = min(max(v, prev + X_LOWER), hi)
        prev = out[i]
    return out


def _weights_from_xs(inner_xs: np.ndarray) -> np.ndarray:
    xs = np.concatenate([[0.0], inner_xs, [1.0]])
    w = np.clip(np.diff(xs), 1e-12, None)
    return np.log(w)


def _monotone_unit(u: np.ndarray) -> np.ndarray:
    """Map r unconstrained reals to 0 <= q_1 <= ... <= q_{r-1} <= q_r = 1."""
    w = np.exp(np.clip(u, -60.0, 60.0))
    cum = np.cumsum(w)
    return cum[:-1] / cum[-1]


class _ScalarProfile:
    """Paths Q_k = q_k Q for a monotone scalar profile (always valid)."""

    def __init__(self, r: int, qmat: np.ndarray):
        self.r = r
        self.qmat = qmat
        self.n_params = (r + 1) + (r if r >= 2 else 0)

    def path(self, params: np.ndarray) -> DiscretePath:
        r, n = self.r, self.qmat.shape[0]
        inner_xs = _xs_from_weights(params[: r + 1])
        if r >= 2:
            profile = _monotone_unit(params[r + 1 : r + 1 + r])
        else:
            profile = np.empty(0)
        qs = np.empty((r + 1, n, n))
        qs[0] = 0.0
        for k in range(1, r):
            qs[k] = profile[k - 1] * self.qmat
        qs[r] = self.qmat
        return DiscretePath(xs=np.concatenate([[0.0], inner_xs, [1.0]]), qs=qs)

    def params(self, path: DiscretePath) -> np.ndarray:
        r = self.r
        out = [_weights_from_xs(path.xs[1:-1])]
        if r >= 2:
            scale = float(np.trace(self.qmat))
            q_levels = np.array([np.trace(path.qs[k]) / scale for k in range(1, r + 1)])
            q_levels = np.clip(q_levels, 1e-12, 1.0)
            steps = np.clip(np.diff(np.concatenate([[0.0], q_levels])), 1e-12, None)
            out.append(np.log(steps))
        return np.concatenate(out)

    def default(self) -> np.ndarray:
        r = self.r
        out = [np.zeros(r + 1)]
        if r >= 2:
            out.append(np.zeros(r))
        return np.concatenate(out)


class _CholeskyIncrements:
    """Paths Q_k = M W_k M^T with W_k monotone PSD partial sums, W_r = I.

    M is the Cholesky factor of Q; the W_k come from normalized partial sums
    of free Gram increments, so every increment is PSD by construction and
    the endpoint hits Q exactly.
    """

    RIDGE = 1e-8

    def __init__(self, r: int, qmat: np.ndarray):
        self.r = r
        self.n = qmat.shape[0]
        self.qmat = qmat
        self.chol = np.linalg.cholesky(qmat)
        self.m = self.n * (self.n + 1) // 2
        self.n_params = (r + 1) + r * self.m
        self._tril = np.tril_indices(self.n)

    def _grams(self, params: np.ndarray) -> np.ndarray:
        grams = np.empty((self.r, self.n, self.n))
        for k in range(self.r):
            vec = params[self.r + 1 + k * self.m : self.r + 1 + (k + 1) * self.m]
            low = np.zeros((self.n, self.n))
            low[self._tril] = vec
            grams[k] = low @ low.T + self.RIDGE * np.eye(self.n)
        return grams

    def path(self, params: np.ndarray) -> DiscretePath:
        r, n = self.r, self.n
        inner_xs = _xs_from_weights(params[: r + 1])
        grams = self._grams(params)
        total = grams.sum(axis=0)
        evals, evecs = np.linalg.eigh(total)
        inv_sqrt = evecs @ np.diag(1.0 / np.sqrt(np.clip(evals, 1e-30, None))) @ evecs.T
        qs = np.empty((r + 1, n, n))
        qs[0] = 0.0
        partial = np.zeros((n, n))
        for k in range(1, r):
            partial = partial + grams[k - 1]
            w = _sym(inv_sqrt @ partial @ inv_sqrt)
            qs[k] = _sym(self.chol @ w @ self.chol.T)
        qs[r] = self.qmat
        return DiscretePath(xs=np.concatenate([[0.0], inner_xs, [1.0]]), qs=qs)

    def params(self, path: DiscretePath) -> np.ndarray:
        out = [_weights_from_xs(path.xs[1:-1])]
        for k in range(1, self.r + 1):
            inc = path.qs[k] - path.qs[k - 1]
            conj = np.linalg.solve(self.chol, np.linalg.solve(self.chol, inc.T).T)
            conj = _sym(conj) + 1e-10 * np.eye(self.n)
            try:
                low = np.linalg.cholesky(conj)
            except np.linalg.LinAlgError:
                low = np.linalg.cholesky(conj + 1e-6 * np.eye(self.n))
            out.append(low[self._tril])
        return np.concatenate(out)

    def default(self) -> np.ndarray:
        out = [np.zeros(self.r + 1)]
        eye_vec = np.eye(self.n)[self._tril]
        for _ in range(self.r):
            out.append(eye_vec)
        return np.concatenate(out)


def _parameterization(name: str, r: int, qmat: np.ndarray):
    if name == "scalar_profile":
        return _ScalarProfile(r, qmat)
    return _CholeskyIncrements(r, qmat)


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


def _corner_xs(r: int) -> np.ndarray:
    """Breakpoints stacked against 1: the replica-symmetric corner."""
    return np.array([X_UPPER - (r - 1 - k) * 1e-7 for k in range(r)])


def _level_starts(
    param, r: int, config: PathSearchConfig, warm_path: DiscretePath | None, rng: np.random.Generator
) -> list[np.ndarray]:
    starts = [param.default()]
    corner = param.default().copy()
    corner[: r + 1] = _weights_from_xs(_corner_xs(r))
    starts.append(corner)
    if r == 1:
        res = config.x_grid_resolution
        for g in np.arange(res, 1.0, res):
            s = param.default().copy()
            s[:2] = _weights_from_xs(np.array([g]))
            starts.append(s)
    if warm_path is not None:
        try:
            starts.append(param.params(warm_path))
        except (ValueError, np.linalg.LinAlgError):
            pass
    for _ in range(config.restarts):
        starts.append(rng.normal(0.0, 1.5, size=param.n_params))
    return starts


def _embed(path: DiscretePath) -> DiscretePath:
    """Duplicate the widest level so a level-r optimum seeds level r + 1."""
    widths = np.diff(path.xs)
    k = int(np.argmax(widths))
    mid = 0.5 * (path.xs[k] + path.xs[k + 1])
    return refine_path(path, k, mid)


def minimize_over_paths(
    q: ConstraintMatrix | np.ndarray,
    h: np.ndarray,
    spec: MixtureSpec,
    config: PathSearchConfig | None = None,
    seed: int = 0,
) -> OptimizationReport:
    """Search inf over multipliers and discrete paths with r = 1..max_levels.

    Degenerate constraints short-circuit to -inf with a certificate, but only
    once its objective values strictly decrease along the ray; a certificate
    that does not raises RuntimeError.  The reported best path is the
    smallest r whose value is within ``tolerance_value`` of the overall best
    (parsimony tie-break).
    """
    config = config or PathSearchConfig()
    qmat = q.matrix if isinstance(q, ConstraintMatrix) else np.asarray(q, dtype=float)
    n = qmat.shape[0]

    probe = DiscretePath.simple(qmat, 0.5)
    certificate = detect_degenerate(qmat, probe, h, spec)
    if certificate is not None:
        values = certificate.objective_values
        if not all(later < earlier for earlier, later in zip(values, values[1:])):
            raise RuntimeError(
                "degeneracy certificate does not show a divergence: objective values "
                f"{[float(v) for v in values]} along the ray are not strictly decreasing"
            )
        return OptimizationReport(
            best_value=-np.inf,
            best_path=None,
            inner=None,
            per_level_values=(),
            degenerate=True,
            certificate=certificate,
        )

    per_level: list[tuple[int, float]] = []
    level_best_paths: dict[int, DiscretePath] = {}
    warm: DiscretePath | None = None
    prev_best = np.inf

    for r in range(1, config.max_levels + 1):
        param = _parameterization(config.q_parameterization, r, qmat)
        rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(r,)))
        warm_lambda: list[np.ndarray | None] = [None]

        def objective(vec: np.ndarray) -> float:
            try:
                path = param.path(vec)
                ctx = _PathContext(path, qmat, h, spec)
                rep = _inner_minimize_ctx(ctx, config, lam0=warm_lambda[0])
                warm_lambda[0] = rep.lambda_star
                return rep.value
            except (ValueError, np.linalg.LinAlgError):
                return np.inf

        level_value = np.inf
        level_path = None
        for start in _level_starts(param, r, config, warm, rng):
            res = _scipy_minimize(
                objective,
                start,
                method="Nelder-Mead",
                options={
                    "maxiter": config.max_iterations,
                    "maxfev": 2 * config.max_iterations,
                    "xatol": 1e-7,
                    "fatol": config.tolerance_value * 1e-3,
                    "adaptive": True,
                },
            )
            if res.fun < level_value:
                level_value = float(res.fun)
                level_path = param.path(res.x)
        # refinement can only help: a level-r path embeds into level r + 1
        if level_value > prev_best and warm is not None:
            level_value = prev_best
            level_path = warm
        per_level.append((r, level_value))
        level_best_paths[r] = level_path
        prev_best = min(prev_best, level_value)
        warm = _embed(level_path) if level_path is not None else None

    best_value = min(v for _, v in per_level)
    best_r = min(r for r, v in per_level if v <= best_value + config.tolerance_value)
    best_path = level_best_paths[best_r]
    ctx = _PathContext(best_path, qmat, h, spec)
    inner = _inner_minimize_ctx(ctx, config)
    return OptimizationReport(
        best_value=best_value,
        best_path=best_path,
        inner=inner,
        per_level_values=tuple(per_level),
        degenerate=False,
        certificate=None,
    )
