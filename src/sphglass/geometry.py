"""Constraint matrices and discrete monotone PSD paths.

A discrete path is the order parameter of the variational formula: a
left-continuous step function from [0,1] into PSD matrices, encoded by
breakpoints 0 = x_{-1} < x_0 < ... < x_r = 1 and matrices
0 = Q_0 <= Q_1 <= ... <= Q_r = Q (PSD increments).  The value on (x_{k-1},
x_k] is Q_k.

Paths are stored as breakpoint lists, never closures, so integration is exact
and instances compare by value and serialize reproducibly.  All types are
immutable.

``validate_path`` is the one path rule and ``check_path`` its raising form:
every public function that takes a path calls it once, where the path
enters, and nothing downstream checks the path again.  The rule owns the
exact symmetry of every level Q_k, so the mixture pass over a checked path
(``mixture._path_levels``) does not test it.

A raw constraint array enters the library in one way, ``ConstraintMatrix.of``,
which validates it; the constraint keeps the eigenvalues it was validated
with, so nothing decomposes Q again to decide degeneracy.  ``check_field`` is
the one check of the field vector h, and ``check_multiplier`` the one check
of a multiplier Lambda.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from sphglass.mixture import check_symmetric, not_psd

__all__ = [
    "ConstraintMatrix",
    "DiscretePath",
    "PathViolation",
    "PathReport",
    "InvalidPath",
    "validate_path",
    "check_path",
    "DEGENERACY_RTOL",
    "null_eigenvalues",
    "is_degenerate_spectrum",
    "check_field",
    "check_multiplier",
]

# Q is degenerate when its smallest eigenvalue is at most this fraction of
# its largest
DEGENERACY_RTOL = 1e-12


def null_eigenvalues(eigs: np.ndarray) -> np.ndarray:
    """The one null-eigenvalue rule: the mask of ascending ``eigs`` at most DEGENERACY_RTOL times the largest."""
    return eigs <= DEGENERACY_RTOL * eigs[-1]


def is_degenerate_spectrum(eigs: np.ndarray) -> bool:
    """The one degeneracy predicate for a constraint, given its ascending eigenvalues.

    Q is degenerate when its smallest eigenvalue is null (``null_eigenvalues``).
    A determinant test would misfire on well-conditioned Q of larger n:
    equicorrelated Q with rho = 0.9 has lambda_min = 0.1 at every n.
    """
    return bool(null_eigenvalues(eigs)[0])


def _frozen(a: np.ndarray) -> np.ndarray:
    a = np.array(a, dtype=float)
    a.setflags(write=False)
    return a


def check_field(h: np.ndarray, n: int, name: str = "h") -> np.ndarray:
    """The field vector as floats; raises ValueError unless it is n finite numbers."""
    h = np.asarray(h, dtype=float)
    if h.shape != (n,):
        raise ValueError(f"{name} must be a length-{n} vector, got shape {h.shape}")
    if not np.all(np.isfinite(h)):
        raise ValueError(f"{name} contains non-finite entries")
    return h


def check_multiplier(lam: np.ndarray, n: int) -> np.ndarray:
    """The multiplier as a new float array; raises ValueError naming Lambda
    unless it is an n x n matrix, finite and exactly symmetric
    (``check_symmetric``)."""
    lam = np.array(lam, dtype=float)
    if lam.shape != (n, n):
        raise ValueError(f"Lambda must be an {n}x{n} matrix, got shape {lam.shape}")
    return check_symmetric(lam, "Lambda")


@dataclass(frozen=True, eq=False)
class ConstraintMatrix:
    """n x n PSD overlap constraint with unit diagonal.

    Construction validates the matrix and keeps its ascending eigenvalues,
    read-only, in ``eigenvalues``: the degeneracy predicate, the overlap
    volume and the divergence checks read them instead of decomposing Q
    again.  ``of`` is the one way a raw array becomes a constraint.
    """

    matrix: np.ndarray
    eigenvalues: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        m = check_symmetric(self.matrix, "constraint Q")
        n = m.shape[0]
        if not np.array_equal(np.diag(m), np.ones(n)):
            raise ValueError("constraint diagonal must equal 1")
        off = m - np.diag(np.diag(m))
        if np.any(np.abs(off) > 1.0 + 1e-12):
            raise ValueError("constraint off-diagonals must lie in [-1, 1]")
        eigs = np.linalg.eigvalsh(m)
        if not_psd(eigs):
            raise ValueError(f"constraint not PSD: smallest eigenvalue {eigs[0]:.3e}")
        object.__setattr__(self, "matrix", _frozen(m))
        object.__setattr__(self, "eigenvalues", _frozen(eigs))

    @staticmethod
    def of(q: "ConstraintMatrix | np.ndarray") -> "ConstraintMatrix":
        """``q`` itself when it is a ConstraintMatrix, else a new, validated one."""
        return q if isinstance(q, ConstraintMatrix) else ConstraintMatrix(q)

    @property
    def n(self) -> int:
        return self.matrix.shape[0]

    def is_degenerate(self) -> bool:
        return is_degenerate_spectrum(self.eigenvalues)

    def __eq__(self, other) -> bool:
        if not isinstance(other, ConstraintMatrix):
            return NotImplemented
        return np.array_equal(self.matrix, other.matrix)


@dataclass(frozen=True, eq=False)
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
        if qs.ndim != 3 or qs.shape[0] != xs.size - 1 or qs.shape[1] != qs.shape[2] or qs.shape[1] < 1:
            raise ValueError(
                f"qs must have shape (r + 1, n, n), n >= 1, matching xs; "
                f"got {qs.shape} for {xs.size} breakpoints"
            )
        if not (np.isfinite(xs).all() and np.isfinite(qs).all()):
            raise ValueError("path contains non-finite entries")
        object.__setattr__(self, "xs", _frozen(xs))
        object.__setattr__(self, "qs", _frozen(qs))

    def __eq__(self, other) -> bool:
        if not isinstance(other, DiscretePath):
            return NotImplemented
        return np.array_equal(self.xs, other.xs) and np.array_equal(self.qs, other.qs)

    @property
    def r(self) -> int:
        return self.xs.size - 2

    @property
    def n(self) -> int:
        return self.qs.shape[1]

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


def validate_path(path: DiscretePath, q: ConstraintMatrix | np.ndarray | None) -> PathReport:
    """Report every violated path invariant: the one path rule.

    The rule is 0 = x_{-1} < x_0 < ... < x_r = 1 (strictly), Q_0 = 0, Q_r = Q,
    every level Q_k exactly symmetric and every increment Q_k - Q_{k-1} PSD
    by ``not_psd``.  Symmetric levels make the increments exactly symmetric;
    an increment next to an asymmetric level gets no PSD test.  With ``q``
    None the end check is skipped and Q_r is free.  Never raises on the
    path; a raw ``q`` goes through ``ConstraintMatrix.of``, so an invalid
    constraint raises ValueError.
    """
    bad: list[PathViolation] = []
    xs, qs = path.xs, path.qs

    if xs[0] != 0.0:
        bad.append(PathViolation("x_start_zero", -1, float(xs[0])))
    if xs[-1] != 1.0:
        bad.append(PathViolation("x_end_one", path.r, float(xs[-1])))
    gaps = np.diff(xs)
    for i in np.flatnonzero(gaps <= 0.0):
        bad.append(PathViolation("x_strictly_increasing", int(i), float(gaps[i])))

    if np.any(qs[0] != 0.0):
        bad.append(PathViolation("q0_zero", 0, float(np.max(np.abs(qs[0])))))
    if q is not None:
        target = ConstraintMatrix.of(q).matrix
        if qs.shape[1] != target.shape[0] or not np.array_equal(qs[-1], target):
            mag = float(np.max(np.abs(qs[-1] - target))) if qs.shape[1] == target.shape[0] else float("inf")
            bad.append(PathViolation("q_end_equals_constraint", path.r, mag))

    asymmetry = np.abs(qs - qs.swapaxes(1, 2)).max(axis=(1, 2))
    for k in np.flatnonzero(asymmetry):
        bad.append(PathViolation("q_symmetric", int(k), float(asymmetry[k])))
    symmetric = asymmetry == 0.0
    eigs = np.linalg.eigvalsh(np.diff(qs, axis=0))
    for k in np.flatnonzero(not_psd(eigs) & symmetric[1:] & symmetric[:-1]):
        bad.append(PathViolation("increment_psd", int(k) + 1, float(eigs[k, 0])))

    return PathReport(tuple(bad))


class InvalidPath(ValueError):
    """The discrete path violates its invariants; ``report`` lists them all."""

    # ``report`` has a default so that unpickling, which passes the message
    # alone and restores the attributes after, can rebuild the error
    def __init__(self, message: str, report: PathReport | None = None):
        super().__init__(message)
        self.report = report


def check_path(path: DiscretePath, q: ConstraintMatrix | np.ndarray | None = None) -> None:
    """The raising form of ``validate_path``, applied where a path enters the library.

    Raises InvalidPath naming the first violated invariant and its index,
    with the whole report attached.  A path that passes has exactly
    symmetric, finite levels and PSD mixture increments Delta_k (Schur
    product theorem), so the kernels downstream trust it.
    """
    report = validate_path(path, q)
    if not report.ok:
        first = report.violations[0]
        raise InvalidPath(
            f"path violates invariant {first.invariant!r} at index {first.index} "
            f"(magnitude {first.magnitude:.3e})",
            report,
        )
