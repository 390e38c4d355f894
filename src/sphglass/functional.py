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

Log-determinants are always taken through a Cholesky factorization (never the
raw determinant) for conditioning near the admissibility boundary, and the
field term uses a linear solve rather than an explicit inverse.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from sphglass.geometry import ConstraintMatrix, DiscretePath, validate_path
from sphglass.mixture import MixtureSpec, check_symmetric, delta_increments, theta_matrix

__all__ = [
    "NotInL",
    "InvalidPath",
    "DivergentGaussianIntegral",
    "LambdaChain",
    "FunctionalBreakdown",
    "MEMBERSHIP_MARGIN",
    "lambda_chain",
    "evaluate",
    "theta_term",
    "closed_form_Y0",
    "jacobi_limit_term",
    "gaussian_quadratic_identity",
    "logdet_pd",
    "logdet_increment",
]

# Determinant positivity is numerically meaningless near the boundary; the
# optimizer needs an eigenvalue margin to line-search against.
MEMBERSHIP_MARGIN = 1e-12


class NotInL(ValueError):
    """The multiplier leaves the admissible set: L_0 is not positive definite."""


class InvalidPath(ValueError):
    """The discrete path violates its invariants."""


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


@dataclass(frozen=True)
class LambdaChain:
    """Backward multiplier recursion L_k = L_{k+1} - x_k Delta_{k+1}.

    ``lambdas[k]`` is L_k for k = 0..r; min_eig0 is the smallest eigenvalue
    of L_0, whose positivity decides membership in the admissible set.
    """

    lambdas: np.ndarray  # (r + 1, n, n)
    min_eig0: float

    @property
    def r(self) -> int:
        return self.lambdas.shape[0] - 1

    def in_admissible_set(self, margin: float = MEMBERSHIP_MARGIN) -> bool:
        return self.min_eig0 > margin


def lambda_chain(lam: np.ndarray, path: DiscretePath, spec: MixtureSpec) -> LambdaChain:
    """Build the chain from L_r = lam down to L_0.

    Membership failure is data (inspect ``min_eig0``), not an exception.
    """
    lam = check_symmetric(lam, "Lambda")
    deltas = delta_increments(spec, path)
    r = path.r
    chain = np.empty((r + 1,) + lam.shape)
    chain[r] = lam
    for k in range(r - 1, -1, -1):
        x_k = path.xs[k + 1]
        chain[k] = chain[k + 1] - x_k * deltas[k]
    chain.setflags(write=False)
    return LambdaChain(lambdas=chain, min_eig0=float(np.linalg.eigvalsh(chain[0])[0]))


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
        return {
            "total": self.total,
            "trace_term": self.trace_term,
            "const_term": self.const_term,
            "logdet_term": self.logdet_term,
            "field_term": self.field_term,
            "cascade_term": self.cascade_term,
            "theta_term": self.theta_term,
        }


def theta_term(path: DiscretePath, spec: MixtureSpec) -> float:
    """1/2 sum_{k=0}^{r-1} x_k Sum(theta(Q_{k+1}) - theta(Q_k)).

    Carries the overall 1/2 prefactor of the functional: that convention
    reproduces the annealed high-temperature value beta^2/2 for a single
    copy of the pure 2-spin model and is what the cascade log-moment
    recursion yields level by level.
    """
    _require_valid_increments(path, spec)
    total = 0.0
    for k in range(path.r):
        x_k = path.xs[k + 1]
        diff = theta_matrix(spec, path.qs[k + 1]) - theta_matrix(spec, path.qs[k])
        total += 0.5 * x_k * float(np.sum(diff))
    return total


def _require_valid_increments(path: DiscretePath, spec: MixtureSpec) -> None:
    xs = path.xs
    if np.any(np.diff(xs) <= 0) or xs[0] != 0.0 or xs[-1] != 1.0:
        raise InvalidPath("breakpoints must satisfy 0 = x_{-1} < x_0 < ... < x_r = 1")
    try:
        delta_increments(spec, path)
    except ValueError as err:
        raise InvalidPath(str(err)) from None


def logdet_increment(base: np.ndarray, scale: float, increment: np.ndarray) -> float:
    """log det(base + scale * increment) - log det(base), computed stably.

    Equals sum_i log1p(scale * mu_i) for the generalized eigenvalues mu of
    (increment, base); safe when scale * increment is far smaller than base,
    where differencing two log-determinants would cancel catastrophically.
    """
    chol = np.linalg.cholesky(base)
    half = np.linalg.solve(chol, increment)
    conj = np.linalg.solve(chol, half.T).T
    mu = np.linalg.eigvalsh((conj + conj.T) / 2.0)
    return float(np.sum(np.log1p(scale * mu)))


def _closed_form_terms(
    chain: LambdaChain, path: DiscretePath, h: np.ndarray, deltas: list[np.ndarray]
) -> tuple[float, float, float]:
    """(logdet_term, field_term, cascade_term) shared by the functional and
    the recursion closed form."""
    logdet_term = -0.5 * logdet_pd(chain.lambdas[-1])
    cascade_term = 0.0
    for k in range(chain.r):
        x_k = path.xs[k + 1]
        inc = logdet_increment(chain.lambdas[k], x_k, deltas[k])
        cascade_term += 0.5 * inc / x_k
    h = np.asarray(h, dtype=float)
    if np.any(h):
        field_term = 0.5 * float(h @ solve_pd(chain.lambdas[0], h))
    else:
        field_term = 0.0
    return logdet_term, field_term, cascade_term


def _checked_chain(lam: np.ndarray, path: DiscretePath, spec: MixtureSpec) -> LambdaChain:
    chain = lambda_chain(lam, path, spec)
    if not chain.in_admissible_set():
        raise NotInL(
            f"Lambda_0 not positive definite: smallest eigenvalue {chain.min_eig0:.3e} "
            f"<= margin {MEMBERSHIP_MARGIN:.0e}"
        )
    return chain


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
    chain = _checked_chain(lam, path, spec)

    trace = 0.5 * float(np.trace(lam @ qmat))
    const = -0.5 * path.n
    deltas = delta_increments(spec, path)
    logdet, field, cascade = _closed_form_terms(chain, path, np.asarray(h, dtype=float), deltas)
    theta = theta_term(path, spec)
    total = trace + const + logdet + field + cascade - theta
    return FunctionalBreakdown(
        total=total,
        trace_term=trace,
        const_term=const,
        logdet_term=logdet,
        field_term=field,
        cascade_term=cascade,
        theta_term=theta,
    )


def closed_form_Y0(
    lam: np.ndarray, path: DiscretePath, h: np.ndarray, spec: MixtureSpec
) -> float:
    """Closed form of the nested Gaussian recursion:

    -1/2 log|L| + 1/2 (L_0^{-1} h, h) + 1/2 sum_k (1/x_k) log(|L_{k+1}|/|L_k|).

    Equals logdet_term + field_term + cascade_term of ``evaluate`` by
    construction; the nested Monte Carlo oracle checks it stochastically.
    """
    lam = check_symmetric(lam, "Lambda")
    chain = _checked_chain(lam, path, spec)
    deltas = delta_increments(spec, path)
    logdet, field, cascade = _closed_form_terms(chain, path, np.asarray(h, dtype=float), deltas)
    return logdet + field + cascade


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
