"""Constraint matrices and discrete monotone PSD paths.

A discrete path is the order parameter of the variational formula: a
left-continuous step function from [0,1] into PSD matrices, encoded by
breakpoints 0 = x_{-1} < x_0 < ... < x_r = 1 and matrices
0 = Q_0 <= Q_1 <= ... <= Q_r = Q (PSD increments).  The value on (x_{k-1},
x_k] is Q_k.  Distances between paths are L1-in-space, Lebesgue-in-x, and
are computed exactly by merging breakpoints.

Paths are stored as breakpoint lists, never closures, so integration is exact
and instances hash/serialize reproducibly.  All types are immutable.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from sphglass.mixture import check_symmetric

__all__ = [
    "ConstraintMatrix",
    "DiscretePath",
    "PathViolation",
    "PathReport",
    "InvalidPath",
    "validate_path",
    "check_breakpoints",
    "path_distance",
    "refine_path",
    "MIN_X_GAP",
    "PSD_INCREMENT_TOL",
    "DEGENERACY_RTOL",
    "is_degenerate_spectrum",
]

# The functional divides by x_k; gaps below this amplify rounding.  The
# x_0 -> 0 boundary is handled by the dedicated Jacobi-limit term instead.
MIN_X_GAP = 1e-9
PSD_INCREMENT_TOL = 1e-10
# Q is degenerate when its smallest eigenvalue is at most this fraction of
# its largest
DEGENERACY_RTOL = 1e-12


def is_degenerate_spectrum(eigs: np.ndarray) -> bool:
    """The one degeneracy predicate for a constraint, given its ascending eigenvalues.

    Tests lambda_min <= DEGENERACY_RTOL * lambda_max.  A determinant test
    would misfire on well-conditioned Q of larger n: equicorrelated Q with
    rho = 0.9 has lambda_min = 0.1 at every n.
    """
    return bool(eigs[0] <= DEGENERACY_RTOL * eigs[-1])


def _frozen(a: np.ndarray) -> np.ndarray:
    a = np.array(a, dtype=float)
    a.setflags(write=False)
    return a


@dataclass(frozen=True)
class ConstraintMatrix:
    """n x n PSD overlap constraint with unit diagonal."""

    matrix: np.ndarray

    def __post_init__(self):
        m = check_symmetric(self.matrix, "Q")
        n = m.shape[0]
        if not np.array_equal(np.diag(m), np.ones(n)):
            raise ValueError("constraint diagonal must equal 1")
        off = m - np.diag(np.diag(m))
        if np.any(np.abs(off) > 1.0 + 1e-12):
            raise ValueError("constraint off-diagonals must lie in [-1, 1]")
        eigs = np.linalg.eigvalsh(m)
        if eigs[0] < -PSD_INCREMENT_TOL * max(1.0, eigs[-1]):
            raise ValueError(f"constraint not PSD: smallest eigenvalue {eigs[0]:.3e}")
        object.__setattr__(self, "matrix", _frozen(m))

    @property
    def n(self) -> int:
        return self.matrix.shape[0]

    def is_degenerate(self) -> bool:
        return is_degenerate_spectrum(np.linalg.eigvalsh(self.matrix))


@dataclass(frozen=True)
class DiscretePath:
    """Breakpoints xs = (x_{-1}, x_0, ..., x_r) and matrices qs = (Q_0..Q_r).

    len(xs) == r + 2 and qs.shape == (r + 1, n, n).  Construction checks
    shapes and finiteness only; ``validate_path`` produces the full report.
    """

    xs: np.ndarray
    qs: np.ndarray

    def __post_init__(self):
        xs = np.asarray(self.xs, dtype=float)
        qs = np.asarray(self.qs, dtype=float)
        if xs.ndim != 1 or xs.size < 3:
            raise ValueError("xs must be a 1-D array of length r + 2 with r >= 1")
        if qs.ndim != 3 or qs.shape[0] != xs.size - 1 or qs.shape[1] != qs.shape[2]:
            raise ValueError(
                f"qs must have shape (r + 1, n, n) matching xs; got {qs.shape} for {xs.size} breakpoints"
            )
        if not (np.all(np.isfinite(xs)) and np.all(np.isfinite(qs))):
            raise ValueError("path contains non-finite entries")
        object.__setattr__(self, "xs", _frozen(xs))
        object.__setattr__(self, "qs", _frozen(qs))

    @property
    def r(self) -> int:
        return self.xs.size - 2

    @property
    def n(self) -> int:
        return self.qs.shape[1]

    def value_at(self, x: float) -> np.ndarray:
        """Left-continuous evaluation: Q_k for x_{k-1} < x <= x_k; Q_0 at 0."""
        if x <= self.xs[0]:
            return self.qs[0]
        k = int(np.searchsorted(self.xs[1:], x, side="left"))
        k = min(k, self.qs.shape[0] - 1)
        return self.qs[k]

    @classmethod
    def simple(cls, q: np.ndarray, x0: float = 0.5) -> "DiscretePath":
        """One-level path 0 -> Q with the single interior breakpoint x0."""
        q = np.asarray(q, dtype=float)
        n = q.shape[0]
        return cls(xs=np.array([0.0, x0, 1.0]), qs=np.stack([np.zeros((n, n)), q]))


@dataclass(frozen=True)
class PathViolation:
    invariant: str
    index: int
    magnitude: float

    def to_dict(self) -> dict:
        return {"invariant": self.invariant, "index": self.index, "magnitude": self.magnitude}


@dataclass(frozen=True)
class PathReport:
    violations: tuple[PathViolation, ...]

    @property
    def ok(self) -> bool:
        return not self.violations

    def to_dict(self) -> dict:
        return {"ok": self.ok, "violations": [v.to_dict() for v in self.violations]}


def validate_path(path: DiscretePath, q: ConstraintMatrix | np.ndarray) -> PathReport:
    """Report every violated path invariant; never raises."""
    target = q.matrix if isinstance(q, ConstraintMatrix) else np.asarray(q, dtype=float)
    bad: list[PathViolation] = []
    xs, qs = path.xs, path.qs

    if xs[0] != 0.0:
        bad.append(PathViolation("x_start_zero", -1, float(xs[0])))
    if xs[-1] != 1.0:
        bad.append(PathViolation("x_end_one", path.r, float(xs[-1])))
    for i in range(1, xs.size):
        gap = xs[i] - xs[i - 1]
        if gap < MIN_X_GAP:
            bad.append(PathViolation("x_strictly_increasing", i - 1, float(gap)))

    if np.any(qs[0] != 0.0):
        bad.append(PathViolation("q0_zero", 0, float(np.max(np.abs(qs[0])))))
    if qs.shape[1] != target.shape[0] or not np.array_equal(qs[-1], target):
        mag = float(np.max(np.abs(qs[-1] - target))) if qs.shape[1] == target.shape[0] else float("inf")
        bad.append(PathViolation("q_end_equals_constraint", path.r, mag))

    for k in range(1, qs.shape[0]):
        inc = qs[k] - qs[k - 1]
        if not np.array_equal(inc, inc.T):
            bad.append(PathViolation("increment_symmetric", k, float(np.max(np.abs(inc - inc.T)))))
            continue
        eigs = np.linalg.eigvalsh(inc)
        tol = PSD_INCREMENT_TOL * max(1.0, float(np.max(np.abs(eigs))) if eigs.size else 0.0)
        if eigs.size and eigs[0] < -tol:
            bad.append(PathViolation("increment_psd", k, float(eigs[0])))

    return PathReport(tuple(bad))


class InvalidPath(ValueError):
    """The discrete path violates its invariants."""


def check_breakpoints(path: DiscretePath) -> None:
    """Raise InvalidPath unless 0 = x_{-1} < x_0 < ... < x_r = 1 (no MIN_X_GAP)."""
    xs = path.xs
    if xs[0] != 0.0 or xs[-1] != 1.0 or np.any(np.diff(xs) <= 0):
        raise InvalidPath("breakpoints must satisfy 0 = x_{-1} < x_0 < ... < x_r = 1")


def path_distance(a: DiscretePath, b: DiscretePath) -> float:
    """integral_0^1 ||a(x) - b(x)||_1 dx, exact on the merged breakpoints."""
    if a.n != b.n:
        raise ValueError(f"dimension mismatch: {a.n} vs {b.n}")
    cuts = np.unique(np.concatenate([a.xs, b.xs]))
    cuts = cuts[(cuts >= 0.0) & (cuts <= 1.0)]
    total = 0.0
    for lo, hi in zip(cuts[:-1], cuts[1:]):
        # left-continuity: the value on (lo, hi] is the value at hi
        diff = a.value_at(hi) - b.value_at(hi)
        total += (hi - lo) * float(np.sum(np.abs(diff)))
    return total


def refine_path(path: DiscretePath, k: int, x_new: float) -> DiscretePath:
    """Insert breakpoint x_new in (x_{k-1}, x_k), duplicating Q_k.

    The step function is unchanged, so the refined path has distance 0 from
    the original and every downstream evaluation is invariant.
    """
    if not 0 <= k <= path.r:
        raise IndexError(f"level k={k} out of range 0..{path.r}")
    lo, hi = path.xs[k], path.xs[k + 1]
    if not lo < x_new < hi:
        raise ValueError(f"x_new={x_new} outside open interval ({lo}, {hi})")
    xs = np.insert(path.xs, k + 1, x_new)
    qs = np.insert(path.qs, k, path.qs[k], axis=0)
    return DiscretePath(xs=xs, qs=qs)
