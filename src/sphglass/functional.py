"""The variational functional and its closed-form constituents.

Given a positive-definite multiplier L (n x n), a discrete path, a constraint
Q, a field h, and a mixture, the functional is

    P = 1/2 [ tr(L Q) - n - log|L| + (L_0^{-1} h, h)
              + sum_k (1/x_k) log(|L_{k+1}| / |L_k|) ]
        - 1/2 sum_k x_k Sum(theta(Q_{k+1}) - theta(Q_k)),

where the multiplier chain runs backwards, L_r = L and
L_k = L_{k+1} - x_k Delta_{k+1}, and membership in the admissible set
requires L_0 to stay positive definite.  Because the increments Delta are
PSD, the chain is monotone, so L_0 > 0 already forces every L_k > 0.

One kernel, ``_PathContext``, computes it: ``evaluate`` and
``closed_form_Y0`` read their terms from it, and the optimizer minimizes over
it, searches paths with its envelope gradient and certifies divergence with
it.  Log-determinants are always taken through a Cholesky factorization
(never the raw determinant) for conditioning near the admissibility boundary,
and the field term uses a linear solve rather than an explicit inverse.
"""

from __future__ import annotations

import copy
from dataclasses import asdict, dataclass
from functools import lru_cache

import numpy as np

from sphglass.geometry import ConstraintMatrix, DiscretePath, InvalidPath, check_breakpoints, validate_path
from sphglass.mixture import MixtureSpec, check_symmetric, path_levels, xi_second_matrix

__all__ = [
    "NotInL",
    "InvalidPath",
    "DivergentGaussianIntegral",
    "FunctionalBreakdown",
    "MEMBERSHIP_MARGIN",
    "evaluate",
    "theta_term",
    "closed_form_Y0",
    "jacobi_limit_term",
    "gaussian_quadratic_identity",
    "logdet_pd",
]

# Determinant positivity is numerically meaningless near the boundary; the
# optimizer needs an eigenvalue margin to line-search against.
MEMBERSHIP_MARGIN = 1e-12


class NotInL(ValueError):
    """The multiplier leaves the admissible set: L_0 is not positive definite."""


class DivergentGaussianIntegral(ValueError):
    """A - xC is not positive definite: the Gaussian expectation diverges."""


def logdet_pd(a: np.ndarray) -> float:
    """log det of a symmetric positive definite matrix via Cholesky."""
    try:
        chol = np.linalg.cholesky(a)
    except np.linalg.LinAlgError as err:
        raise np.linalg.LinAlgError(f"matrix not positive definite: {err}") from None
    return 2.0 * float(np.sum(np.log(np.diag(chol))))


def solve_pd(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve a x = b for symmetric positive definite a."""
    chol = np.linalg.cholesky(a)
    y = np.linalg.solve(chol, b)
    return np.linalg.solve(chol.T, y)


def _sym(a: np.ndarray) -> np.ndarray:
    """Symmetric part of a matrix, or of each matrix in a stack."""
    return (a + a.swapaxes(-1, -2)) / 2.0


@lru_cache(maxsize=32)
def _sym_basis(n: int) -> np.ndarray:
    """Orthonormal basis of symmetric n x n matrices, rows are vec(E_a)."""
    rows = []
    for i in range(n):
        e = np.zeros((n, n))
        e[i, i] = 1.0
        rows.append(e.ravel())
    inv_sqrt2 = 1.0 / np.sqrt(2.0)
    for i in range(n):
        for j in range(i + 1, n):
            e = np.zeros((n, n))
            e[i, j] = e[j, i] = inv_sqrt2
            rows.append(e.ravel())
    basis = np.array(rows)
    basis.setflags(write=False)
    return basis


@dataclass(frozen=True)
class FunctionalBreakdown:
    """Value of the functional with its per-term decomposition for auditing.

    total = trace_term + const_term + logdet_term + field_term + cascade_term
            - theta_term.
    """

    total: float
    trace_term: float
    const_term: float
    logdet_term: float
    field_term: float
    cascade_term: float
    theta_term: float

    def to_dict(self) -> dict:
        return asdict(self)


def _theta_steps(thetas: np.ndarray) -> np.ndarray:
    """s_k = Sum(theta(Q_{k+1}) - theta(Q_k)), k = 0..r-1, from the theta levels."""
    return np.sum(np.diff(thetas, axis=0), axis=(1, 2))


def _theta_sum(x_all: np.ndarray, theta_steps: np.ndarray) -> float:
    """1/2 sum_k x_k s_k."""
    return float(np.sum(0.5 * x_all[:-1] * theta_steps))


class _PathContext:
    """Per-path precomputation shared by objective, gradient and Hessian.

    This is the one implementation of the functional: ``evaluate``,
    ``closed_form_Y0`` and the optimizer all run on it.  Every evaluation
    works on the whole multiplier chain L_k = Lambda - tails[k], k = 0..r, as
    one (r + 1, n, n) stack, so it costs one stacked Cholesky factorization
    whatever the number of levels.  The increments Delta_k and the theta
    levels come from one mixture pass (``path_levels``) over the path's chain
    Q_0..Q_r.

    ``feasible_value`` hands back the chain's factors and log-determinant
    increments with the value, and ``value_grad_hess`` and
    ``envelope_gradient`` accept that triple instead of factoring again.  The
    chain's factors from the guarded stacked call are bitwise those of a
    fresh ``cholesky(chain(lam))``: a stacked factorization treats each
    matrix on its own, so reusing them changes no bit of the value, gradient,
    Hessian or path gradient.
    """

    def __init__(self, path: DiscretePath, qmat: np.ndarray, h: np.ndarray, spec: MixtureSpec):
        self.qmat = qmat
        self.h = np.asarray(h, dtype=float)
        self.n = path.n
        self.r = path.r
        self.spec = spec
        self.qs = path.qs
        self.deltas, thetas = path_levels(spec, path)
        x_all = path.xs[1:]  # x_0 .. x_r = 1
        self.x_levels = x_all
        # tails[k] = sum_{l >= k} x_l Delta_{l+1}; Lambda_k = Lambda - tails[k]
        scaled = x_all[:-1, None, None] * self.deltas
        self.tails = np.concatenate(
            [np.cumsum(scaled[::-1], axis=0)[::-1], np.zeros((1, self.n, self.n))]
        )
        # logdet coefficients: the cascade sum telescopes into
        # sum_j w_j log|Lambda_j| with w_0 < 0 and w_j >= 0 otherwise
        self.logdet_coeffs = -np.diff(0.5 / x_all, prepend=0.0)
        # the value keeps the cascade in its increment form instead
        self.increment_coeffs = 0.5 / x_all[:-1] - 0.5
        self.theta_steps = _theta_steps(thetas)
        self.theta_const = _theta_sum(x_all, self.theta_steps)
        self.has_field = bool(np.any(self.h))

    def rotated(self, u: np.ndarray, mu: np.ndarray) -> "_PathContext":
        """This context conjugated by the orthonormal u, with Q = diag(mu).

        Delta_k, the tails and h become u^T Delta_k u, u^T tails_k u and
        u^T h; the breakpoints, theta levels and coefficients do not change.
        xi'' acts entrywise, so it does not commute with the rotation: the
        rotated context has no path levels and no ``envelope_gradient``.
        """
        out = copy.copy(self)
        out.qs = None
        out.qmat = np.diag(mu)
        out.h = u.T @ self.h
        out.deltas = _sym(u.T @ self.deltas @ u)
        out.tails = _sym(u.T @ self.tails @ u)
        return out

    def lambda_start(self) -> np.ndarray:
        return _sym(self.tails[0] + solve_pd(self.qmat, np.eye(self.n)))

    def chain(self, lam: np.ndarray) -> np.ndarray:
        return lam[None, :, :] - self.tails

    def factor(self, lam: np.ndarray) -> tuple[float, np.ndarray, np.ndarray]:
        """``(value, chol, increments)`` at lam; raises LinAlgError outside the PD cone."""
        return self._factored(lam, np.linalg.cholesky(self.chain(lam)))

    def value(self, lam: np.ndarray) -> float:
        """Objective at lam; raises LinAlgError outside the PD cone."""
        return self.factor(lam)[0]

    def _increments(self, chol: np.ndarray) -> np.ndarray:
        """log|L_{k+1}| - log|L_k| = sum_i log1p(x_k mu_i), k = 0..r-1.

        mu are the generalized eigenvalues of (Delta_{k+1}, L_k), taken from
        the factors of the chain: at breakpoints near 0 the coefficient 1/x
        would amplify the cancellation of two nearly equal log-determinants.
        """
        lower = chol[:-1]
        half = np.linalg.solve(lower, self.deltas)
        conj = np.linalg.solve(lower, half.swapaxes(1, 2))
        mu = np.linalg.eigvalsh(_sym(conj))
        return np.sum(np.log1p(self.x_levels[:-1, None] * mu), axis=1)

    def _factored(self, lam: np.ndarray, chol: np.ndarray) -> tuple[float, np.ndarray, np.ndarray]:
        """``(value, chol, increments)`` at lam from the Cholesky factors of its chain.

        The cascade sum is accumulated through the stable log-determinant
        increments of ``_increments``.
        """
        increments = self._increments(chol)
        total = (
            0.5 * float(np.trace(lam @ self.qmat))
            - 0.5 * self.n
            - self.theta_const
            - float(np.sum(np.log(np.diagonal(chol[0]))))
            + float(self.increment_coeffs @ increments)
        )
        if self.has_field:
            y = np.linalg.solve(chol[0], self.h)
            total += 0.5 * float(y @ y)
        return total, chol, increments

    def breakdown(self, lam: np.ndarray) -> FunctionalBreakdown:
        """The functional at lam term by term; raises NotInL outside L.

        ``total`` is the objective value the optimizer sees, from the same
        guarded factors as the terms.
        """
        factored = self.feasible_value(lam)
        if factored is None:
            raise NotInL(
                f"Lambda_0 not positive definite: smallest eigenvalue {self.min_eig0(lam):.3e} "
                f"<= margin {MEMBERSHIP_MARGIN:.0e}"
            )
        total, chol, increments = factored
        field = 0.0
        if self.has_field:
            y = np.linalg.solve(chol[0], self.h)
            field = 0.5 * float(y @ y)
        return FunctionalBreakdown(
            total=total,
            trace_term=0.5 * float(np.trace(lam @ self.qmat)),
            const_term=-0.5 * self.n,
            logdet_term=-float(np.sum(np.log(np.diagonal(chol[-1])))),
            field_term=field,
            cascade_term=float(np.sum(0.5 * increments / self.x_levels[:-1])),
            theta_term=self.theta_const,
        )

    def value_grad_hess(self, lam: np.ndarray, factored: tuple[float, np.ndarray, np.ndarray] | None = None):
        """Value, gradient matrix and Hessian in the symmetric basis at lam.

        ``factored`` is the ``(value, chol, increments)`` triple that
        ``feasible_value`` or ``factor`` returned for this same lam; without
        it the chain is factored here (and LinAlgError is raised outside the
        PD cone).
        """
        total, chol, _ = self.factor(lam) if factored is None else factored
        n = self.n
        basis = _sym_basis(n)
        # L_j^{-1} = C_j^{-T} (C_j^{-1} I), two stacked triangular solves
        eye = np.broadcast_to(np.eye(n), chol.shape)
        inv = _sym(np.linalg.solve(chol.swapaxes(1, 2), np.linalg.solve(chol, eye)))
        grad = 0.5 * self.qmat + np.einsum("j,jab->ab", self.logdet_coeffs, inv)
        # sum_j -w_j kron(inv_j, inv_j): rows (a, b), columns (c, d)
        curvature = np.einsum("j,jac,jbd->abcd", -self.logdet_coeffs, inv, inv)
        curvature = curvature.reshape(n * n, n * n)
        if self.has_field:
            wvec = inv[0] @ self.h
            grad -= 0.5 * np.outer(wvec, wvec)
            cross = np.kron(np.outer(wvec, wvec), inv[0])
            curvature += 0.5 * (cross + cross.T)
        return total, _sym(grad), basis @ curvature @ basis.T

    def envelope_gradient(
        self, lam: np.ndarray, factored: tuple[float, np.ndarray, np.ndarray] | None = None
    ) -> tuple[np.ndarray, np.ndarray]:
        """Gradient of the functional in the path at fixed lam.

        Returns ``(grad_x, grad_q)``: d/dx_m for the breakpoints x_0..x_{r-1}
        and the (r - 1, n, n) matrices d/dQ_k for Q_1..Q_{r-1} (Q_0 = 0 and
        Q_r = Q are fixed).  At the inner minimizer lam* this is the gradient
        of V(path) = min_Lambda P(Lambda, path) (Danskin: the inner problem
        is strictly convex).  With w_j the ``logdet_coeffs``, v = L_0^{-1} h
        and s_m the theta steps:

            dP/dx_m = (log|L_m| - log|L_{m+1}|) / (2 x_m^2)
                      - sum_{j<=m} w_j <L_j^{-1}, Delta_{m+1}>
                      + 1/2 v^T Delta_{m+1} v - 1/2 s_m,
            dP/dQ_k = xi''(Q_k) . (-sum_j w_j c_j L_j^{-1} + 1/2 c_0 v v^T
                                   - 1/2 (x_{k-1} - x_k) Q_k),

        with c_j = x_{k-1} - x_k for j < k, c_k = -x_k and c_j = 0 for j > k
        (the coefficient of Q_k's xi' in tails_j).  The log-ratio is the
        stable increment of ``_increments``.  ``factored`` is as in
        ``value_grad_hess``; without it the chain is factored here (and
        LinAlgError is raised outside the PD cone).
        """
        _, chol, increments = self.factor(lam) if factored is None else factored
        eye = np.broadcast_to(np.eye(self.n), chol.shape)
        inv = _sym(np.linalg.solve(chol.swapaxes(1, 2), np.linalg.solve(chol, eye)))
        x = self.x_levels[:-1]
        w = self.logdet_coeffs
        # pair[j, m] = <L_j^{-1}, Delta_{m+1}>, summed over j <= m
        pair = np.einsum("jab,mab->jm", inv[:-1], self.deltas)
        grad_x = (
            -increments / (2.0 * x * x)
            - np.sum(np.triu(w[:-1, None] * pair), axis=0)
            - 0.5 * self.theta_steps
        )
        if self.has_field:
            v = inv[0] @ self.h
            grad_x += 0.5 * np.einsum("a,mab,b->m", v, self.deltas, v)
        if self.r < 2:
            return grad_x, np.empty((0, self.n, self.n))
        levels = self.qs[1:-1]
        xi2 = xi_second_matrix(self.spec, levels)
        gap = (x[:-1] - x[1:])[:, None, None]  # x_{k-1} - x_k, k = 1..r-1
        below = np.cumsum(w[:, None, None] * inv, axis=0)[: self.r - 1]  # sum_{j<k}
        weighted = gap * below - (x[1:] * w[1 : self.r])[:, None, None] * inv[1 : self.r]
        outer = -weighted - 0.5 * gap * levels
        if self.has_field:
            outer += 0.5 * gap * np.outer(v, v)
        return grad_x, xi2 * outer

    def min_eig0(self, lam: np.ndarray) -> float:
        return float(np.linalg.eigvalsh(lam - self.tails[0])[0])

    def feasible_value(self, lam: np.ndarray) -> tuple[float, np.ndarray, np.ndarray] | None:
        """``(value, chol, increments)`` at lam, or None when the chain leaves the PD cone.

        Cholesky is the feasibility test: L_0 less the membership margin is
        factored in the same stacked call as the chain, whose factors the
        log-determinants need anyway.  ``chol`` holds the chain's factors,
        ready for ``value_grad_hess`` and ``envelope_gradient``.
        """
        chain = self.chain(lam)
        guarded = np.concatenate([chain[:1] - MEMBERSHIP_MARGIN * np.eye(self.n), chain])
        try:
            chol = np.linalg.cholesky(guarded)
        except np.linalg.LinAlgError:
            return None
        return self._factored(lam, chol[1:])


def evaluate(
    lam: np.ndarray,
    path: DiscretePath,
    q: ConstraintMatrix | np.ndarray,
    h: np.ndarray,
    spec: MixtureSpec,
) -> FunctionalBreakdown:
    """Evaluate the functional; raises NotInL / InvalidPath on bad inputs."""
    qmat = q.matrix if isinstance(q, ConstraintMatrix) else np.asarray(q, dtype=float)
    report = validate_path(path, qmat)
    if not report.ok:
        raise InvalidPath(f"invalid path: {[v.to_dict() for v in report.violations]}")
    lam = check_symmetric(lam, "Lambda")
    try:
        ctx = _PathContext(path, qmat, h, spec)
    except ValueError as err:  # path_levels rejects an increment Delta_k
        raise InvalidPath(str(err)) from None
    return ctx.breakdown(lam)


def theta_term(path: DiscretePath, spec: MixtureSpec) -> float:
    """1/2 sum_{k=0}^{r-1} x_k Sum(theta(Q_{k+1}) - theta(Q_k)).

    Carries the overall 1/2 prefactor of the functional: that convention
    reproduces the annealed high-temperature value beta^2/2 for a single
    copy of the pure 2-spin model and is what the cascade log-moment
    recursion yields level by level.
    """
    check_breakpoints(path)
    try:
        _, thetas = path_levels(spec, path)
    except ValueError as err:
        raise InvalidPath(str(err)) from None
    return _theta_sum(path.xs[1:], _theta_steps(thetas))


def closed_form_Y0(
    lam: np.ndarray, path: DiscretePath, h: np.ndarray, spec: MixtureSpec
) -> float:
    """Closed form of the nested Gaussian recursion:

    -1/2 log|L| + 1/2 (L_0^{-1} h, h) + 1/2 sum_k (1/x_k) log(|L_{k+1}|/|L_k|).

    Equals logdet_term + field_term + cascade_term of ``evaluate`` by
    construction; the nested Monte Carlo oracle checks it stochastically.
    Raises InvalidPath unless 0 = x_{-1} < x_0 < ... < x_r = 1.
    """
    check_breakpoints(path)
    lam = check_symmetric(lam, "Lambda")
    b = _PathContext(path, path.qs[-1], h, spec).breakdown(lam)
    return b.logdet_term + b.field_term + b.cascade_term


def jacobi_limit_term(lam1: np.ndarray, delta1: np.ndarray) -> float:
    """x_0 -> 0 limit of (1 / (2 x_0)) log(|L_1| / |L_1 - x_0 Delta_1|).

    Equals 1/2 tr(L_1^{-1} Delta_1) (L'Hopital plus the derivative of a
    determinant).  This is the correction term of the alternative convention
    that allows x_0 = 0; the functional itself requires x_0 > 0.
    """
    lam1 = check_symmetric(lam1, "Lambda_1")
    delta1 = check_symmetric(delta1, "Delta_1")
    return 0.5 * float(np.trace(solve_pd(lam1, delta1)))


def gaussian_quadratic_identity(
    a: np.ndarray, c: np.ndarray, x: float, y: np.ndarray
) -> tuple[float, float]:
    """Both closed-form sides of the Gaussian quadratic-form identity.

    For g Gaussian with covariance C, A positive definite and 0 < x <= 1:

        (1/x) log E exp( (x/2) (A^{-1}(y+g), y+g) )
            = (1/(2x)) log(|A| / |A - xC|) + 1/2 ((A - xC)^{-1} y, y).

    The left side is evaluated through the explicit Gaussian integral
    (reduction to the range of C, so PSD-singular C is fine), the right side
    through the displayed formula.  Both must agree to ~1e-12; a Monte Carlo
    estimate of the expectation provides the independent check in tests.
    """
    a = check_symmetric(a, "A")
    c = check_symmetric(c, "C")
    y = np.asarray(y, dtype=float)
    if not 0.0 < x <= 1.0:
        raise ValueError(f"x={x} outside (0, 1]")
    n = a.shape[0]
    if c.shape != a.shape or y.shape != (n,):
        raise ValueError("dimension mismatch between A, C, y")
    try:
        np.linalg.cholesky(a)
    except np.linalg.LinAlgError:
        raise ValueError("A must be positive definite") from None

    amxc = a - x * c
    try:
        ld_amxc = logdet_pd(amxc)
    except np.linalg.LinAlgError:
        raise DivergentGaussianIntegral(
            "A - xC is not positive definite; the expectation diverges"
        ) from None

    rhs = (logdet_pd(a) - ld_amxc) / (2.0 * x) + 0.5 * float(y @ solve_pd(amxc, y))

    # Left side: write g = W z with z standard normal on the range of C.
    eigs, vecs = np.linalg.eigh(c)
    keep = eigs > max(float(eigs[-1]), 0.0) * 1e-14
    w = vecs[:, keep] * np.sqrt(eigs[keep])
    a_inv_y = solve_pd(a, y)
    quad_y = float(y @ a_inv_y)
    if w.shape[1] == 0:
        return 0.5 * quad_y, rhs
    m = x * (w.T @ solve_pd(a, w))
    b = x * (w.T @ a_inv_y)
    eye_m = np.eye(m.shape[0]) - m
    try:
        ld_eye_m = logdet_pd(0.5 * (eye_m + eye_m.T))
    except np.linalg.LinAlgError:
        raise DivergentGaussianIntegral(
            "A - xC is not positive definite; the expectation diverges"
        ) from None
    lhs = (
        0.5 * x * quad_y
        - 0.5 * ld_eye_m
        + 0.5 * float(b @ solve_pd(0.5 * (eye_m + eye_m.T), b))
    ) / x
    return lhs, rhs
