"""The variational functional and its closed-form constituents.

Given a positive-definite multiplier L (n x n), a discrete path, a constraint
Q, a field h, and a mixture, the functional is

    P = 1/2 [ tr(L Q) - n - log|L| + (L_0^{-1} h, h)
              + sum_k (1/x_k) log(|L_{k+1}| / |L_k|) ]
        - 1/2 sum_k x_k Sum(theta(Q_{k+1}) - theta(Q_k)),

where the multiplier chain runs backwards, L_r = L and
L_k = L_{k+1} - x_k Delta_{k+1}, and membership in the admissible set
requires L_0 to stay positive definite.  Because the increments Delta are
PSD, the chain is monotone, so L_0 > 0 already forces every L_k > 0.  The
increments are PSD for every path that passes ``geometry.validate_path``: each
public function here checks its path once on entry, and the kernel trusts
it.  ``_PathContext.member_factors`` is the one membership rule for L, a
Cholesky factorization of L_0 less ``MEMBERSHIP_MARGIN``.

One kernel, ``_PathContext``, computes it: ``evaluate`` and
``closed_form_Y0`` read their terms from it, and the optimizer minimizes over
it, searches paths with its envelope gradient and certifies divergence with
it.  No second copy of its closed forms lives here: ``verify`` judges the
kernel itself against the Gaussian integral and the x_0 -> 0 trace limit.
Log-determinants are always taken through a Cholesky factorization (never
the raw determinant) for conditioning near the admissibility boundary.
Each factorization is followed by one stacked triangular inverse of the
factors; the cascade increments, the field term and the chain's inverses are
matrix products of those.  The kernel factors a multiplier in one place,
``_PathContext.feasible_value``; its derivatives take the resulting factors,
never the multiplier itself.  Its stacked factorization, inverse and
eigenvalues, and the optimizer's Newton solve, are ``_lapack``'s gufuncs, not
the ``np.linalg`` wrappers.  ``gradient`` and ``hessian`` are separate, so the
Newton loop builds a Hessian only for a step it takes.

A context has one constructor, over the (xs, qs) arrays of a chain and their
trusted mixture pass ``mixture._path_levels``.  A path enters through
``_PathContext.of``, the one checked entry: ``ConstraintMatrix.of``,
``check_field``, ``check_path`` and the mixture-size rule, once.  Every public
function that takes a path builds its context there, ``theta_term`` and
``delta_increments`` included; ``mixture`` takes matrices only.  The
optimizer's search and its degeneracy certificate (in the eigenbasis of Q)
call the constructor themselves, on chains valid by construction.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from functools import lru_cache, partial
from types import SimpleNamespace
from typing import NamedTuple

import numpy as np
from numpy.linalg import _umath_linalg

from sphglass.geometry import ConstraintMatrix, DiscretePath, InvalidPath, check_field, check_multiplier, check_path
from sphglass.mixture import MixtureSpec, _check_copies, _path_levels

__all__ = [
    "NotInL",
    "InvalidPath",
    "FunctionalBreakdown",
    "MEMBERSHIP_MARGIN",
    "evaluate",
    "theta_term",
    "delta_increments",
    "closed_form_Y0",
    "logdet_pd",
]

# Determinant positivity is numerically meaningless near the boundary; the
# optimizer needs an eigenvalue margin to line-search against.
MEMBERSHIP_MARGIN = 1e-12


# The stacked LAPACK gufuncs that np.linalg's cholesky, inv, eigvalsh and
# (one right-hand side) solve call, without the wrappers' per-call checks: the
# same routine on the same float64 arrays, so the same bits.  A failure raises
# nothing.  The failed matrix of a stack comes back as NaN and the "invalid"
# floating-point flag is set, so callers run these under ``_lapack_errstate``
# and test the result for NaN where np.linalg would raise LinAlgError.
_lapack = SimpleNamespace(
    cholesky=partial(_umath_linalg.cholesky_lo, signature="d->d"),
    inv=partial(_umath_linalg.inv, signature="d->d"),
    eigvalsh=partial(_umath_linalg.eigvalsh_lo, signature="d->d"),
    solve=partial(_umath_linalg.solve1, signature="dd->d"),
)
# The error state np.linalg's wrappers run the gufuncs under, less the raise
# on "invalid": every flag is ignored.  A decorator, entered afresh on each
# call of the function it wraps.
_lapack_errstate = np.errstate(invalid="ignore", over="ignore", divide="ignore", under="ignore")


class NotInL(ValueError):
    """The multiplier leaves the admissible set: L_0 is not positive definite."""


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


class _Basis(NamedTuple):
    """The Newton system's coordinates for symmetric n x n matrices.

    ``rows`` holds vec(E_a) of an orthonormal basis, ``cols`` is its
    transpose, which maps basis coordinates back to an exactly symmetric
    vec(B), and ``ridge`` is the 1e-12 I added to the Hessian in them.
    """

    rows: np.ndarray
    cols: np.ndarray
    ridge: np.ndarray


def _read_only(a: np.ndarray) -> np.ndarray:
    """``a``, made read-only: a cached constant that no caller may change."""
    a.setflags(write=False)
    return a


@lru_cache(maxsize=32)
def _sym_basis(n: int) -> _Basis:
    """The read-only ``_Basis`` of symmetric n x n matrices, built once per n."""
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
    basis = _read_only(np.array(rows))
    return _Basis(basis, basis.T, _read_only(1e-12 * np.eye(len(basis))))


@lru_cache(maxsize=32)
def _margin_eye(n: int) -> np.ndarray:
    """The read-only ``MEMBERSHIP_MARGIN`` I of size n, built once per n."""
    return _read_only(MEMBERSHIP_MARGIN * np.eye(n))


@lru_cache(maxsize=32)
def _upper_mask(r: int) -> np.ndarray:
    """The read-only r x r mask of j <= m, ``np.triu``'s, built once per r."""
    return _read_only(np.triu(np.ones((r, r), dtype=bool)))


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


class _Factors(NamedTuple):
    """The functional at one multiplier with what its derivatives take.

    ``chol`` holds the Cholesky factors C_k of the chain L_0..L_r,
    ``increments`` the log-determinant increments log|L_{k+1}| - log|L_k|,
    k = 0..r-1, and ``inv`` the exactly symmetric inverses L_k^{-1}.
    """

    value: float
    chol: np.ndarray
    increments: np.ndarray
    inv: np.ndarray


class _PathContext:
    """Per-path precomputation shared by objective, gradient and Hessian.

    This is the one implementation of the functional: ``evaluate``,
    ``closed_form_Y0`` and the optimizer all run on it.  Every evaluation
    works on the whole multiplier chain L_k = Lambda - tails[k], k = 0..r, as
    one (r + 1, n, n) stack, so it costs one stacked Cholesky factorization
    and one stacked triangular inverse (``_lapack.inv`` of the factors)
    whatever the number of levels.  The increments Delta_k, the theta levels
    and xi'' of the middle levels come from one mixture pass
    (``mixture._path_levels``) over the path's chain Q_0..Q_r.

    ``feasible_value`` is the one place a multiplier is factored, and
    ``member_factors`` its raising form.  They hand back the value with the
    chain's ``_Factors``, and ``gradient``, ``hessian`` and
    ``envelope_gradient`` take those factors, not a multiplier: the
    derivatives factor nothing and make no linear solve of their own.

    What does not change with the multiplier is built once: per context on
    construction, Q / 2 (``half_q``, the trace term's <Lambda, Q / 2> and the
    gradient's constant); per size,
    the read-only ``MEMBERSHIP_MARGIN`` I (``_margin_eye``), the Newton
    basis (``_sym_basis``) and ``envelope_gradient``'s j <= m mask
    (``_upper_mask``).

    ``qinv`` is Q^{-1} for ``lambda_start``; without it a cold start
    factors Q.
    """

    def __init__(self, xs, qs, qmat, h, levels, qinv=None):
        """The context of the path (xs, qs), trusted as it stands; ``of`` checks.

        ``xs``, ``qs`` and the float field ``h`` must be what a valid
        ``DiscretePath`` would hold, and ``levels`` the ``mixture._path_levels``
        of ``qs`` for a mixture of n copies.  The arrays are kept, not copied.
        The value, gradient and Hessian read neither ``qs`` nor the xi''
        levels; only ``envelope_gradient`` does.
        """
        self.qmat = qmat
        self.half_q = 0.5 * qmat
        self.qinv = qinv
        self.h = h
        r = self.r = xs.size - 2
        n = self.n = qs.shape[1]
        self.qs = qs
        self.deltas, thetas, xi_seconds = levels
        self.xi_seconds = xi_seconds[1:-1]  # xi''(Q_1..Q_{r-1})
        x_all = xs[1:]  # x_0 .. x_r = 1
        self.x_levels = x_all
        # guarded[k + 1] = tails[k] = sum_{l >= k} x_l Delta_{l+1}, so
        # Lambda_k = Lambda - tails[k]; guarded[r + 1] = tails[r] = 0
        guarded = np.zeros((r + 2, n, n))
        (x_all[:-1, None, None] * self.deltas)[::-1].cumsum(axis=0, out=guarded[r:0:-1])
        # guarded[0] = tails[0] + margin I: lam less it is L_0 less the margin
        np.add(guarded[1], _margin_eye(n), out=guarded[0])
        self.tails = guarded[1:]
        self.guarded_tails = guarded
        # logdet coefficients: the cascade sum telescopes into
        # sum_j w_j log|Lambda_j| with w_0 < 0 and w_j >= 0 otherwise
        half = 0.5 / x_all
        self.logdet_coeffs = -half
        self.logdet_coeffs[1:] += half[:-1]
        # the value keeps the cascade in its increment form instead
        self.increment_coeffs = half[:-1] - 0.5
        # s_k = Sum(theta(Q_{k+1}) - theta(Q_k)), k = 0..r-1, and 1/2 sum_k x_k s_k
        self.theta_steps = (thetas[1:] - thetas[:-1]).sum(axis=(1, 2))
        self.theta_const = float((0.5 * x_all[:-1] * self.theta_steps).sum())
        self.has_field = bool(self.h.any())

    @classmethod
    def of(cls, path: DiscretePath, q: ConstraintMatrix | np.ndarray | None, h, spec: MixtureSpec) -> "_PathContext":
        """The context of a path where it enters the library: the one checked entry.

        A raw ``q`` goes through ``ConstraintMatrix.of``; with ``q`` None the
        end matrix is free and Q_r stands in for Q.  Then h, the path and the
        mixture's size are checked, and one trusted mixture pass gives the
        levels.
        """
        q = None if q is None else ConstraintMatrix.of(q)
        qmat = path.qs[-1] if q is None else q.matrix
        h = check_field(h, qmat.shape[0])
        check_path(path, q)
        _check_copies(spec, qmat.shape[0])
        return cls(path.xs, path.qs, qmat, h, _path_levels(spec, path.qs))

    def lambda_start(self) -> np.ndarray:
        """The cold start tails[0] + Q^{-1}, inside L whatever the path."""
        qinv = solve_pd(self.qmat, np.eye(self.n)) if self.qinv is None else self.qinv
        return _sym(self.tails[0] + qinv)

    def _increments(self, cinv: np.ndarray) -> np.ndarray:
        """log|L_{k+1}| - log|L_k| = sum_i log1p(x_k mu_i), k = 0..r-1.

        mu are the generalized eigenvalues of (Delta_{k+1}, L_k): those of
        C_k^{-1} Delta_{k+1} C_k^{-T}, from the triangular inverses ``cinv``
        of the chain's factors.  At breakpoints near 0 the coefficient 1/x
        would amplify the cancellation of two nearly equal log-determinants.

        ``_lapack.eigvalsh`` (``eigvalsh_lo``) reads only the lower triangle,
        but the conjugate is symmetric only to rounding, and its lower
        triangle alone gives other bits than its symmetric part, which the
        search's values and step counts rest on; so it gets ``_sym(conj)``.
        """
        lower = cinv[:-1]
        conj = lower @ self.deltas @ lower.swapaxes(1, 2)
        mu = _lapack.eigvalsh(_sym(conj))
        return np.log1p(self.x_levels[:-1, None] * mu).sum(axis=1)

    def _factored(self, lam: np.ndarray, chol: np.ndarray) -> _Factors:
        """The ``_Factors`` at lam from the Cholesky factors of its chain.

        One stacked ``_lapack.inv`` of the factors gives the triangular
        inverses C_k^{-1}; the increments' conjugates, the field vector
        C_0^{-1} h and L_k^{-1} = C_k^{-T} C_k^{-1} are matrix products of
        them.  The cascade sum is accumulated through the stable
        log-determinant increments of ``_increments``.  Raises LinAlgError
        when the value is not finite, as when the eigenvalues of
        ``_increments`` fail.
        """
        cinv = _lapack.inv(chol)
        increments = self._increments(cinv)
        total = (
            float(np.vdot(lam, self.half_q))
            - 0.5 * self.n
            - self.theta_const
            - float(np.log(chol[0].diagonal()).sum())
            + float(self.increment_coeffs @ increments)
        )
        if self.has_field:
            y = cinv[0] @ self.h
            total += 0.5 * float(y @ y)
        if not math.isfinite(total):
            raise np.linalg.LinAlgError(f"functional value {total} is not finite")
        inv = _sym(cinv.swapaxes(1, 2) @ cinv)
        return _Factors(total, chol, increments, inv)

    def breakdown(self, lam: np.ndarray) -> FunctionalBreakdown:
        """The functional at lam term by term; raises NotInL outside L.

        ``total`` is the objective value the optimizer sees, from the same
        guarded factors as the terms.
        """
        factored = self.member_factors(lam)
        return FunctionalBreakdown(
            total=factored.value,
            trace_term=float(np.vdot(lam, self.half_q)),
            const_term=-0.5 * self.n,
            logdet_term=-float(np.sum(np.log(np.diagonal(factored.chol[-1])))),
            field_term=0.5 * float(self.h @ factored.inv[0] @ self.h),
            cascade_term=float(np.sum(0.5 * factored.increments / self.x_levels[:-1])),
            theta_term=self.theta_const,
        )

    def gradient(self, factored: _Factors) -> np.ndarray:
        """Gradient matrix in the multiplier, from ``factored``.

        ``factored`` is what ``feasible_value`` or ``member_factors``
        returned at the multiplier; its ``value`` is the value there.  The
        gradient is exactly symmetric: Q, every L_j^{-1} and v v^T are.
        """
        inv = factored.inv
        grad = self.half_q + np.einsum("j,jab->ab", self.logdet_coeffs, inv)
        if self.has_field:
            wvec = inv[0] @ self.h
            grad -= 0.5 * np.outer(wvec, wvec)
        return grad

    def hessian(self, factored: _Factors) -> np.ndarray:
        """Hessian in the coordinates of ``_sym_basis``, from ``factored`` as in ``gradient``."""
        inv = factored.inv
        n = self.n
        # sum_j -w_j kron(inv_j, inv_j): rows (a, b), columns (c, d)
        curvature = np.einsum("j,jac,jbd->abcd", -self.logdet_coeffs, inv, inv)
        curvature = curvature.reshape(n * n, n * n)
        if self.has_field:
            wvec = inv[0] @ self.h
            cross = np.kron(np.outer(wvec, wvec), inv[0])
            curvature += 0.5 * (cross + cross.T)
        basis = _sym_basis(n)
        return basis.rows @ curvature @ basis.cols

    def envelope_gradient(self, factored: _Factors) -> tuple[np.ndarray, np.ndarray]:
        """Gradient of the functional in the path at the multiplier of ``factored``.

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
        ``gradient``.
        """
        _, _, increments, inv = factored
        r = self.r
        x = self.x_levels[:-1]
        w = self.logdet_coeffs
        # pair[j, m] = <L_j^{-1}, Delta_{m+1}>, summed over j <= m
        pair = np.einsum("jab,mab->jm", inv[:-1], self.deltas)
        grad_x = (
            -increments / (2.0 * x * x)
            - np.where(_upper_mask(r), w[:-1, None] * pair, 0.0).sum(axis=0)
            - 0.5 * self.theta_steps
        )
        if self.has_field:
            v = inv[0] @ self.h
            grad_x += 0.5 * np.einsum("a,mab,b->m", v, self.deltas, v)
        if r < 2:
            return grad_x, np.empty((0, self.n, self.n))
        gap = (x[:-1] - x[1:])[:, None, None]  # x_{k-1} - x_k, k = 1..r-1
        below = (w[: r - 1, None, None] * inv[: r - 1]).cumsum(axis=0)  # sum_{j<k}
        weighted = gap * below - (x[1:] * w[1:r])[:, None, None] * inv[1:r]
        outer = -weighted - 0.5 * gap * self.qs[1:-1]
        if self.has_field:
            outer += 0.5 * gap * (v[:, None] * v)
        return grad_x, self.xi_seconds * outer

    @_lapack_errstate
    def member_factors(self, lam: np.ndarray) -> _Factors:
        """The ``_Factors`` at lam; raises NotInL unless ``feasible_value`` admits lam.

        The one membership rule for L: L_0 less the margin must factor.
        """
        factored = self.feasible_value(lam)
        if factored is None:
            smallest = float(np.linalg.eigvalsh(lam - self.tails[0])[0])
            raise NotInL(
                f"Lambda_0 not positive definite: smallest eigenvalue {smallest:.3e} "
                f"<= margin {MEMBERSHIP_MARGIN:.0e}"
            )
        return factored

    def feasible_value(self, lam: np.ndarray) -> _Factors | None:
        """The ``_Factors`` at lam, or None when the chain leaves the PD cone.

        Cholesky is the feasibility test: L_0 less the membership margin is
        factored in the same stacked call as the chain, whose factors the
        log-determinants need anyway.  A level that fails comes back as NaN.
        Callers run this under ``_lapack_errstate``; raises LinAlgError
        when the value at a factored chain is not finite.
        """
        chol = _lapack.cholesky(lam - self.guarded_tails)
        if np.isnan(chol).any():
            return None
        return self._factored(lam, chol[1:])


def evaluate(
    lam: np.ndarray,
    path: DiscretePath,
    q: ConstraintMatrix | np.ndarray,
    h: np.ndarray,
    spec: MixtureSpec,
) -> FunctionalBreakdown:
    """Evaluate the functional; raises NotInL / InvalidPath on bad inputs.

    A raw ``q`` goes through ``ConstraintMatrix.of``; an invalid constraint
    or field vector raises ValueError, and a mixture that does not model
    Q's n copies InvalidField.
    """
    ctx = _PathContext.of(path, q, h, spec)
    return ctx.breakdown(check_multiplier(lam, ctx.n))


def theta_term(path: DiscretePath, spec: MixtureSpec) -> float:
    """1/2 sum_{k=0}^{r-1} x_k Sum(theta(Q_{k+1}) - theta(Q_k)).

    Carries the overall 1/2 prefactor of the functional: that convention
    reproduces the annealed high-temperature value beta^2/2 for a single
    copy of the pure 2-spin model and is what the cascade log-moment
    recursion yields level by level.  Raises InvalidPath unless the path
    passes ``validate_path`` (its end matrix is free), and InvalidField
    unless the mixture models the path's n copies.
    """
    return _PathContext.of(path, None, np.zeros(path.n), spec).theta_const


def delta_increments(spec: MixtureSpec, path: DiscretePath) -> np.ndarray:
    """Increment matrices Delta_k = xi'(Q_k) - xi'(Q_{k-1}), k = 1..r.

    Returns a read-only (r, n, n) array; ``[k - 1]`` is Delta_k, PSD
    because the path passes ``validate_path``.  Raises InvalidPath unless
    it does (its end matrix is free), and InvalidField unless the mixture
    models the path's n copies.
    """
    return _PathContext.of(path, None, np.zeros(path.n), spec).deltas


def closed_form_Y0(
    lam: np.ndarray, path: DiscretePath, h: np.ndarray, spec: MixtureSpec
) -> float:
    """Closed form of the nested Gaussian recursion:

    -1/2 log|L| + 1/2 (L_0^{-1} h, h) + 1/2 sum_k (1/x_k) log(|L_{k+1}|/|L_k|).

    Equals logdet_term + field_term + cascade_term of ``evaluate`` by
    construction.  Its judges: the nested Monte Carlo oracle
    (``cascade.nested_recursion_mc``) at any depth, and on one-level paths
    with xi'(Q) = Q ``verify.identity_suite`` (the Gaussian integral by range
    reduction), ``verify.mc_identity_check`` (a Monte Carlo mean of the same
    integral) and ``verify.jacobi_suite`` (the cascade term at a small x_0
    against its trace limit).
    Raises InvalidPath unless the path passes ``validate_path``; its end
    matrix Q_r is free, not a constraint.
    """
    ctx = _PathContext.of(path, None, h, spec)
    b = ctx.breakdown(check_multiplier(lam, ctx.n))
    return b.logdet_term + b.field_term + b.cascade_term
