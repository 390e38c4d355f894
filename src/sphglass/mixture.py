"""Mixture kernels of coupled even p-spin models.

A mixture assigns to every even degree p >= 2 a vector of inverse
temperatures, one entry per coupled copy.  From it we build the covariance
kernel

    xi_{j,j'}(x) = sum_p beta_p(j) beta_p(j') x^p,

its entrywise derivative xi', the companion theta(A) = A . xi'(A) - xi(A)
(Hadamard product), and the increment matrices Delta_k = xi'(Q_k) -
xi'(Q_{k-1}) along a monotone matrix path.  Every Delta_k is positive
semidefinite because Hadamard powers of PSD-ordered matrices stay ordered
(Schur product theorem: A >= B >= 0 implies A^{o m} >= B^{o m}).  The path
rule ``geometry.validate_path`` owns that order: a path is checked once where
it enters the library, so the increments here are the plain differences of
xi' and are not checked again.

One kernel does the arithmetic: ``_xi_terms`` accumulates xi, xi' and, on
request, xi'' of a matrix, or a stack of matrices, in one loop over degrees.
The public wrappers validate; ``_xi_terms`` trusts its caller.
``path_levels`` runs it once on a path's (r + 1, n, n) chain and returns the
increments together with theta and xi'' of every level; ``xi_pair``,
``xi_matrix``, ``xi_prime_matrix``, ``xi_second_matrix``, ``theta_matrix``
and ``delta_increments`` are thin users of the same pass, so every caller
sees the same bits.  ``_path_levels`` is ``path_levels`` without the check,
for chains already checked where they entered: a path that passes
``geometry.check_path`` has exactly symmetric, finite levels, and the
optimizer's own chains are exactly symmetric by construction.

The module also owns the input rules that the whole package shares:
``check_symmetric`` (exact symmetry, of one matrix or a stack) and
``not_psd`` ("PSD up to rounding", with the one tolerance
``PSD_TOLERANCE``), with which the constraint and the path rule decide;
``check_count`` and ``check_real``, which raise the one ``InvalidField``;
and ``_check_copies``, the one rule that a mixture's n is Q's, which raises
``InvalidField("mixture", ...)`` before any work.

All functions are pure and operate on immutable inputs; they are safe to call
concurrently.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, field
from typing import Mapping

import numpy as np

__all__ = [
    "MixtureSpec",
    "xi_matrix",
    "xi_prime_matrix",
    "theta_matrix",
    "xi_pair",
    "xi_second_matrix",
    "path_levels",
    "delta_increments",
    "check_symmetric",
    "not_psd",
    "InvalidField",
    "check_count",
    "check_real",
    "PSD_TOLERANCE",
]

# Relative noise floor of the one "PSD up to rounding" rule, ``not_psd``.
PSD_TOLERANCE = 1e-10

# Representability guards: with p <= 64 and |beta| <= 8 every monomial stays
# comfortably inside float64 range for |x| <= 2.
MAX_DEGREE = 64
MAX_BETA = 8.0


def int_power(x, p: int):
    """x**p for integer p >= 0 by repeated squaring (works on arrays).

    The result is a new array, never ``x`` itself; p = 0 gives ones.
    """
    if p < 0:
        raise ValueError("negative power")
    base = np.asarray(x, dtype=float)
    if p == 0:
        return np.ones_like(base)
    # the lowest set bit seeds the product (1 * base is base bitwise); an odd
    # p seeds it with the input, so that one is copied
    result = base.copy() if p & 1 else None
    p >>= 1
    while p:
        base = base * base
        if p & 1:
            result = base if result is None else result * base
        p >>= 1
    return result


class InvalidField(ValueError):
    """An input breaks its rule; ``field`` names the argument or config field."""

    def __init__(self, field: str, rule: str):
        super().__init__(f"{field} {rule}")
        self.field = field
        self.rule = rule


def check_count(value, field: str, minimum: int) -> int:
    """``value`` as an int: a Python or numpy int (no bool) of at least ``minimum``."""
    # np.bool_ is not an np.integer, but bool is an int
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise InvalidField(field, f"must be an integer, got {value!r}")
    if value < minimum:
        raise InvalidField(field, f"must be at least {minimum}, got {value!r}")
    return int(value)


def _check_copies(spec: MixtureSpec, n: int) -> None:
    """The one mixture-size rule: ``spec`` models the n copies of an n x n Q."""
    if spec.n != n:
        raise InvalidField("mixture", f"has n={spec.n} copies, Q is {n}x{n}")


def check_real(value, field: str) -> float:
    """``value`` as a float: a finite Python or numpy int or float (no bool)."""
    real = not isinstance(value, bool) and isinstance(value, (int, float, np.integer, np.floating))
    if not (real and -sys.float_info.max <= value <= sys.float_info.max):
        raise InvalidField(field, f"must be a finite number, got {value!r}")
    return float(value)


def check_symmetric(a: np.ndarray, name: str = "matrix", n: int | None = None) -> np.ndarray:
    """``a`` as floats; the one exact-symmetry rule, for one square matrix or,
    given ``n``, an n x n matrix or a stack (m, n, n) of them.  A matrix with
    a NaN or infinite entry is rejected as non-finite first; an asymmetric
    one is rejected naming the entry of the largest gap (first in row-major
    order)."""
    a = np.asarray(a, dtype=float)
    if n is None:
        if a.ndim != 2 or a.shape[0] != a.shape[1] or a.size == 0:
            raise ValueError(f"{name} must be a non-empty square matrix, got shape {a.shape}")
    elif a.ndim not in (2, 3) or a.shape[-2:] != (n, n):
        raise ValueError(f"{name} must be an {n}x{n} matrix or a stack of them, got shape {a.shape}")
    if not np.isfinite(a).all():
        raise ValueError(f"{name} contains non-finite entries")
    mirror = a.swapaxes(-1, -2)
    if not (a == mirror).all():
        gap = np.abs(a - mirror)
        entry = tuple(int(i) for i in np.unravel_index(int(np.argmax(gap)), gap.shape))
        swapped = entry[:-2] + entry[:-3:-1]
        raise ValueError(
            f"{name} must be exactly symmetric: entry {entry} = {float(a[entry])!r} "
            f"but {swapped} = {float(a[swapped])!r}"
        )
    return a


def not_psd(eigs: np.ndarray):
    """The one "PSD up to rounding" rule on the ascending eigenvalues of one
    matrix (n,) or a stack (m, n): lambda_min < -PSD_TOLERANCE * max(1,
    max |lambda|) fails.  Below scale 1 the floor is absolute, since the
    rounding in a path increment follows the scale of the chain."""
    return eigs[..., 0] < -PSD_TOLERANCE * np.maximum(1.0, np.max(np.abs(eigs), axis=-1))


@dataclass(frozen=True, eq=False)
class MixtureSpec:
    """Inverse-temperature vectors beta_p, one per even degree p.

    ``terms`` maps even p >= 2 to a length-n float vector; ``n`` and each
    degree are counts (``check_count``), never truncated.  Odd degrees are
    rejected at construction: the convexity of xi on [-1, 1], which the whole
    variational formula rests on, requires an even mixture.  A beta_p with
    both a positive and a negative entry is rejected too, as
    ``InvalidField("mixture", ...)`` naming the degree: the sum of
    xi_{j,j'}(Q_{j,j'}) is convex in Q when every Hessian weight
    p (p - 1) beta_p(j) beta_p(j') Q_{j,j'}^{p-2} is non-negative, and Guerra's
    interpolation, which makes each value of the functional an upper bound,
    needs that convexity.  Zero entries are allowed, and beta_p and -beta_p
    give the same model.
    """

    n: int
    terms: Mapping[int, np.ndarray] = field(default_factory=dict)
    # per degree, read-only and built once at construction: beta_p beta_p^T,
    # p beta_p beta_p^T and p (p - 1) beta_p beta_p^T, the coefficients of
    # xi, xi' and xi''
    outers: Mapping[int, tuple] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "n", check_count(self.n, "n", 1))
        clean: dict[int, np.ndarray] = {}
        for p, beta in self.terms.items():
            p = check_count(p, "degree", 2)
            if p % 2 != 0:
                raise ValueError(f"mixture degree {p} is not an even integer >= 2")
            if p > MAX_DEGREE:
                raise ValueError(f"mixture degree {p} exceeds supported maximum {MAX_DEGREE}")
            vec = np.asarray(beta, dtype=float)
            if vec.shape != (self.n,):
                raise ValueError(
                    f"beta_{p} must have length n={self.n}, got shape {vec.shape}"
                )
            if not np.all(np.isfinite(vec)):
                raise ValueError(f"beta_{p} has non-finite entries")
            if np.any(np.abs(vec) > MAX_BETA):
                raise ValueError(f"|beta_{p}| exceeds supported maximum {MAX_BETA}")
            if np.any(vec > 0.0) and np.any(vec < 0.0):
                raise InvalidField(
                    "mixture",
                    f"beta_{p} = {vec.tolist()} has entries of both signs; xi is convex only "
                    "with one sign per degree",
                )
            vec = vec.copy()
            vec.setflags(write=False)
            clean[p] = vec
        object.__setattr__(self, "terms", dict(sorted(clean.items())))
        outers = {}
        for p, vec in self.terms.items():
            outer = np.outer(vec, vec)
            outers[p] = (outer, float(p) * outer, float(p * (p - 1)) * outer)
            for coeff in outers[p]:
                coeff.setflags(write=False)
        object.__setattr__(self, "outers", outers)

    def __eq__(self, other) -> bool:
        if not isinstance(other, MixtureSpec):
            return NotImplemented
        return (
            self.n == other.n
            and self.degrees == other.degrees
            and all(np.array_equal(v, other.terms[p]) for p, v in self.terms.items())
        )

    @property
    def degrees(self) -> tuple[int, ...]:
        return tuple(self.terms.keys())

    def is_zero(self) -> bool:
        return all(not np.any(v) for v in self.terms.values())

    @classmethod
    def zero(cls, n: int) -> "MixtureSpec":
        return cls(n=n, terms={})

    @classmethod
    def from_json_terms(cls, n: int, terms: Mapping[str, list]) -> "MixtureSpec":
        """Build from the CLI wire format {"2": [...], "4": [...]}."""
        parsed = {}
        for key, beta in terms.items():
            try:
                p = int(key)
            except (TypeError, ValueError):
                raise ValueError(f"mixture degree {key!r} is not an integer") from None
            parsed[p] = beta
        return cls(n=n, terms=parsed)

    def json_terms(self) -> dict[str, list]:
        return {str(p): list(map(float, v)) for p, v in self.terms.items()}


def _xi_terms(spec: MixtureSpec, a: np.ndarray, second: bool):
    """xi(A), xi'(A) and, if ``second``, xi''(A) entrywise, from one pass over
    the degrees (xi'' is None otherwise).

    ``a`` is one float matrix or a stack (m, n, n) of them, which the caller
    has checked: exactly symmetric and finite.  A stack is level by level
    identical to one call per matrix.  xi accumulates (beta_p beta_p^T) .
    A^{o p}, xi' accumulates p (beta_p beta_p^T) . A^{o (p-1)} and xi''
    p (p-1) (beta_p beta_p^T) . A^{o (p-2)}, each coefficient from
    ``spec.outers``.  Each Hadamard power is formed once per pass by
    ``int_power``, however many degrees share it.  The outputs are exactly
    symmetric because the inputs are and every update is entrywise.
    """
    xi = np.zeros_like(a)
    xi_prime = np.zeros_like(a)
    xi_second = np.zeros_like(a) if second else None
    lowest = 2 if second else 1
    powers = {k: int_power(a, k) for p in spec.outers for k in range(p - lowest, p + 1)}
    for p, (outer, outer_prime, outer_second) in spec.outers.items():
        xi += outer * powers[p]
        xi_prime += outer_prime * powers[p - 1]
        if second:
            xi_second += outer_second * powers[p - 2]
    return xi, xi_prime, xi_second


def xi_pair(spec: MixtureSpec, a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """xi(A) and xi'(A) entrywise, of one symmetric matrix or a stack (m, n, n)."""
    return _xi_terms(spec, check_symmetric(a, "A", spec.n), False)[:2]


def xi_matrix(spec: MixtureSpec, a: np.ndarray) -> np.ndarray:
    """Entrywise xi: (xi(A))_{j,j'} = xi_{j,j'}(A_{j,j'})."""
    return xi_pair(spec, a)[0]


def xi_prime_matrix(spec: MixtureSpec, a: np.ndarray) -> np.ndarray:
    """Entrywise derivative: xi'_{j,j'}(x) = sum_p p beta_p(j) beta_p(j') x^{p-1}."""
    return xi_pair(spec, a)[1]


def xi_second_matrix(spec: MixtureSpec, a: np.ndarray) -> np.ndarray:
    """Entrywise second derivative: sum_p p (p-1) beta_p(j) beta_p(j') x^{p-2}.

    Like ``xi_pair`` it takes one symmetric matrix or a stack (m, n, n).
    """
    return _xi_terms(spec, check_symmetric(a, "A", spec.n), True)[2]


def theta_matrix(spec: MixtureSpec, a: np.ndarray) -> np.ndarray:
    """theta(A) = A . xi'(A) - xi(A), Hadamard product entrywise.

    Equivalently sum_p (p-1) beta_p(j) beta_p(j') x^p entrywise; computed via
    the defining combination so tests can cross-check the two forms.  Like
    ``xi_matrix`` it also takes a stack (m, n, n) of matrices.
    """
    a = check_symmetric(a, "A", spec.n)
    xi, xi_prime, _ = _xi_terms(spec, a, False)
    return a * xi_prime - xi


def _path_levels(spec: MixtureSpec, qs: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``path_levels`` of the chain ``qs``, which the caller has checked."""
    xi, xi_prime, xi_second = _xi_terms(spec, qs, True)
    deltas = xi_prime[1:] - xi_prime[:-1]
    deltas.setflags(write=False)
    return deltas, qs * xi_prime - xi, xi_second


def path_levels(spec: MixtureSpec, path) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Increments Delta_k, theta(Q_k) and xi''(Q_k) of a path from one mixture pass.

    Returns ``(deltas, thetas, xi_seconds)``: the read-only (r, n, n)
    increments of ``delta_increments`` and the (r + 1, n, n) stacks
    theta(Q_0..Q_r) and xi''(Q_0..Q_r), all from one ``_xi_terms`` call on
    ``path.qs``, which is checked first.
    """
    return _path_levels(spec, check_symmetric(path.qs, "A", spec.n))


def delta_increments(spec: MixtureSpec, path) -> np.ndarray:
    """Increment matrices Delta_k = xi'(Q_k) - xi'(Q_{k-1}), k = 1..r.

    Returns a read-only (r, n, n) array; ``[k - 1]`` is Delta_k.  Each
    increment is PSD for a path that passes ``geometry.validate_path``.
    """
    return path_levels(spec, path)[0]
