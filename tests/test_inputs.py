"""One rule per library input: the constraint Q, the field h, the path, "PSD
up to rounding", exact symmetry and counts, each checked in one place and the
same way at every public entry point."""

import re
from types import SimpleNamespace

import numpy as np
import pytest

from sphglass import cascade, functional, geometry, mixture, montecarlo, optimizer
from sphglass.cascade import CascadeSpec, nested_recursion_mc, theta_cascade_value
from sphglass.functional import closed_form_Y0, evaluate, theta_term
from sphglass.geometry import ConstraintMatrix, DiscretePath, InvalidPath, validate_path
from sphglass.mixture import (
    InvalidField,
    MixtureSpec,
    check_symmetric,
    delta_increments,
    path_levels,
    theta_matrix,
    xi_matrix,
    xi_pair,
    xi_prime_matrix,
    xi_second_matrix,
)
from sphglass.montecarlo import draw_disorder, estimate_free_energy, overlap_log_volume, sample_constrained
from sphglass.optimizer import (
    PathSearchConfig,
    detect_degenerate,
    inner_gradient,
    inner_minimize,
    minimize_over_paths,
)
from sphglass.verify import identity_suite, jacobi_suite, mc_identity_check

SPEC = MixtureSpec(2, {2: [0.5, 0.5]})
GOOD_Q = np.array([[1.0, 0.5], [0.5, 1.0]])
PATH = DiscretePath.simple(GOOD_Q, 0.5)
LAM = 2.0 * np.eye(2)
ZERO_H = np.zeros(2)
SEARCH = PathSearchConfig(max_levels=1, restarts=0, max_iterations=20)

# every public function that takes the constraint Q, called with a valid
# path, field and mixture
TAKES_Q = {
    "evaluate": lambda q: evaluate(LAM, PATH, q, ZERO_H, SPEC),
    "inner_gradient": lambda q: inner_gradient(LAM, PATH, q, ZERO_H, SPEC),
    "inner_minimize": lambda q: inner_minimize(PATH, q, ZERO_H, SPEC),
    "detect_degenerate": lambda q: detect_degenerate(q, PATH, ZERO_H, SPEC),
    "minimize_over_paths": lambda q: minimize_over_paths(q, ZERO_H, SPEC, SEARCH),
    "sample_constrained": lambda q: sample_constrained(q, 16, 5, seed=0),
    "estimate_free_energy": lambda q: estimate_free_energy(q, 16, 0.01, SPEC, ZERO_H, 2, 50, seed=0),
    "overlap_log_volume": overlap_log_volume,
    "validate_path": lambda q: validate_path(PATH, q),
}

BAD_Q = {
    "asymmetric": [[1.0, 0.5], [0.4, 1.0]],
    "diagonal-2": [[2.0, 0.5], [0.5, 2.0]],
    "not-psd": [[1.0, 2.0], [2.0, 1.0]],
}


@pytest.mark.parametrize("bad", BAD_Q)
@pytest.mark.parametrize("entry", TAKES_Q)
def test_every_entry_point_rejects_a_bad_raw_constraint(entry, bad):
    # a raw array goes through ConstraintMatrix.of, so the error is the
    # constraint's own, not a path, increment or attribute error downstream
    with pytest.raises(ValueError, match="^constraint "):
        TAKES_Q[entry](np.array(BAD_Q[bad]))


def test_of_hands_a_constraint_on_unchanged():
    q = ConstraintMatrix(GOOD_Q)
    assert ConstraintMatrix.of(q) is q
    assert np.array_equal(ConstraintMatrix.of(GOOD_Q).matrix, q.matrix)


@pytest.mark.parametrize("entry", ["minimize_over_paths", "estimate_free_energy"])
def test_a_raw_constraint_is_validated_and_decomposed_once(monkeypatch, entry):
    # the entry point builds one ConstraintMatrix and hands it on, so neither
    # the degeneracy probe nor a replicate validates or decomposes Q again
    built, decomposed = [], []
    post_init, eigvalsh = ConstraintMatrix.__post_init__, np.linalg.eigvalsh

    def counting_post_init(self):
        built.append(1)
        post_init(self)

    def counting_eigvalsh(a):
        if np.shape(a) == GOOD_Q.shape and np.array_equal(a, GOOD_Q):
            decomposed.append(1)
        return eigvalsh(a)

    monkeypatch.setattr(ConstraintMatrix, "__post_init__", counting_post_init)
    monkeypatch.setattr(np.linalg, "eigvalsh", counting_eigvalsh)
    TAKES_Q[entry](GOOD_Q.copy())
    assert len(built) == 1
    assert len(decomposed) == 1


def test_constraint_keeps_its_spectrum_read_only():
    q = ConstraintMatrix(GOOD_Q)
    assert np.array_equal(q.eigenvalues, np.linalg.eigvalsh(GOOD_Q))
    assert not q.eigenvalues.flags.writeable
    assert "eigenvalues" not in repr(q)


# every public function that takes the field h
TAKES_H = {
    "evaluate": lambda h: evaluate(LAM, PATH, GOOD_Q, h, SPEC),
    "closed_form_Y0": lambda h: closed_form_Y0(LAM, PATH, h, SPEC),
    "inner_gradient": lambda h: inner_gradient(LAM, PATH, GOOD_Q, h, SPEC),
    "inner_minimize": lambda h: inner_minimize(PATH, GOOD_Q, h, SPEC),
    "detect_degenerate": lambda h: detect_degenerate(GOOD_Q, PATH, h, SPEC),
    "minimize_over_paths": lambda h: minimize_over_paths(GOOD_Q, h, SPEC, SEARCH),
    "estimate_free_energy": lambda h: estimate_free_energy(GOOD_Q, 16, 0.01, SPEC, h, 2, 50, seed=0),
    "CascadeSpec": lambda h: CascadeSpec(path=PATH, spec=SPEC, lam=LAM, h=h),
}


@pytest.mark.parametrize(
    "h, message",
    [(np.zeros(3), "^h must be a length-2 vector"), (np.array([0.1, np.nan]), "^h contains non-finite")],
    ids=["wrong-length", "nan"],
)
@pytest.mark.parametrize("entry", TAKES_H)
def test_every_entry_point_checks_the_field(entry, h, message):
    with pytest.raises(ValueError, match=message):
        TAKES_H[entry](h)


# every public function that takes a multiplier Lambda
TAKES_LAMBDA = {
    "evaluate": lambda lam: evaluate(lam, PATH, GOOD_Q, ZERO_H, SPEC),
    "closed_form_Y0": lambda lam: closed_form_Y0(lam, PATH, ZERO_H, SPEC),
    "inner_gradient": lambda lam: inner_gradient(lam, PATH, GOOD_Q, ZERO_H, SPEC),
    "inner_minimize": lambda lam: inner_minimize(PATH, GOOD_Q, ZERO_H, SPEC, lambda_init=lam),
    "CascadeSpec": lambda lam: CascadeSpec(path=PATH, spec=SPEC, lam=lam, h=ZERO_H),
}


@pytest.mark.parametrize(
    "lam, message",
    [
        (3.0 * np.eye(3), r"^Lambda must be an 2x2 matrix, got shape \(3, 3\)$"),
        (np.stack([LAM, LAM]), r"^Lambda must be an 2x2 matrix, got shape \(2, 2, 2\)$"),
        (np.array([2.0, 2.0]), r"^Lambda must be an 2x2 matrix, got shape \(2,\)$"),
        (np.array([[2.0, 0.1], [0.0, 2.0]]), r"^Lambda must be exactly symmetric: entry \(0, 1\) = 0\.1"),
        (np.array([[2.0, np.nan], [np.nan, 2.0]]), "^Lambda contains non-finite entries$"),
    ],
    ids=["wrong-size", "stack", "vector", "asymmetric", "nan"],
)
@pytest.mark.parametrize("entry", TAKES_LAMBDA)
def test_every_entry_point_checks_the_multiplier(entry, lam, message):
    # a Lambda of the wrong size is refused by name, not broadcast against
    # the chain, and an asymmetric warm start is refused, not symmetrized
    with pytest.raises(ValueError, match=message):
        TAKES_LAMBDA[entry](lam)


def test_a_checked_warm_start_is_not_aliased():
    lam = LAM.copy()
    report = inner_minimize(PATH, GOOD_Q, ZERO_H, SPEC, lambda_init=lam)
    assert report.status == "converged"
    assert not np.shares_memory(report.lambda_star, lam)


def _equicorrelated_below_zero(n: int, c: float) -> tuple[np.ndarray, float]:
    """Unit-diagonal n x n matrix whose smallest eigenvalue is about -c * tol."""
    scale = n / (n - 1)  # the largest eigenvalue 1 - rho, to first order
    delta = c * 1e-10 * scale / (n - 1)
    rho = -1.0 / (n - 1) - delta
    m = (1.0 - rho) * np.eye(n) + rho * np.ones((n, n))
    eigs = np.linalg.eigvalsh(m)
    return m, eigs[0] / (1e-10 * max(1.0, float(np.max(np.abs(eigs)))))


@pytest.mark.parametrize("n", [3, 4])
@pytest.mark.parametrize("c, accepted", [(0.5, True), (2.0, False)])
def test_one_psd_rule_at_the_boundary(n, c, accepted):
    # smallest eigenvalue -0.5 tol is rounding, -2 tol is not, with
    # tol = 1e-10 max(1, max |lambda|): the constraint and the path rule
    # agree
    m, ratio = _equicorrelated_below_zero(n, c)
    assert ratio == pytest.approx(-c, rel=1e-3)

    try:
        ConstraintMatrix(m)
        constraint_ok = True
    except ValueError as err:
        assert "not PSD" in str(err)
        constraint_ok = False

    path = DiscretePath.simple(m, 0.5)  # its one increment is m itself
    report = validate_path(path, np.eye(n))
    path_ok = ("increment_psd", 1) not in {(v.invariant, v.index) for v in report.violations}

    assert constraint_ok == path_ok == accepted


@pytest.mark.parametrize(
    "entry, call",
    [
        ("constraint Q", lambda a: ConstraintMatrix(a)),
        ("Lambda", lambda a: evaluate(a, PATH, GOOD_Q, ZERO_H, SPEC)),
        ("A", lambda a: xi_pair(SPEC, np.stack([np.eye(2), a]))),
    ],
    ids=["Q", "Lambda", "xi_pair-stack"],
)
def test_one_symmetry_rule_rejects_non_finite_entries_first(entry, call):
    # a NaN is unequal to itself, so a symmetry check alone would call the
    # matrix asymmetric and print "nan but nan"
    for bad in (np.nan, np.inf):
        with pytest.raises(ValueError, match=f"^{entry} contains non-finite entries$"):
            call(np.array([[1.0, bad], [bad, 1.0]]))


def _chain(a):
    # path_levels and delta_increments read only ``qs``; a DiscretePath would
    # refuse the non-finite chain itself
    return SimpleNamespace(qs=np.stack([np.zeros((2, 2)), a]))


@pytest.mark.parametrize(
    "call, stacked",
    [
        (lambda a: xi_matrix(SPEC, a), False),
        (lambda a: xi_prime_matrix(SPEC, a), False),
        (lambda a: xi_second_matrix(SPEC, a), False),
        (lambda a: theta_matrix(SPEC, a), False),
        (lambda a: path_levels(SPEC, _chain(a)), True),
        (lambda a: delta_increments(SPEC, _chain(a)), True),
    ],
    ids=["xi_matrix", "xi_prime_matrix", "xi_second_matrix", "theta_matrix", "path_levels", "delta_increments"],
)
def test_public_mixture_kernels_keep_their_checks(call, stacked):
    # the mixture kernel trusts its caller; each public wrapper checks first
    for bad in (np.nan, np.inf):
        with pytest.raises(ValueError, match="^A contains non-finite entries$"):
            call(np.array([[1.0, bad], [bad, 1.0]]))
    at, mirror = ("1, 0, 1", "1, 1, 0") if stacked else ("0, 1", "1, 0")
    message = rf"^A must be exactly symmetric: entry \({at}\) = 0\.3 but \({mirror}\) = 0\.2$"
    with pytest.raises(ValueError, match=message):
        call(np.array([[1.0, 0.3], [0.2, 1.0]]))


def test_inputs_compare_by_value():
    q = ConstraintMatrix.of(GOOD_Q)
    assert q == ConstraintMatrix(GOOD_Q)
    assert q != ConstraintMatrix(np.eye(2))
    assert q != GOOD_Q.tolist()
    assert PATH == DiscretePath.simple(GOOD_Q, 0.5)
    assert PATH != DiscretePath.simple(GOOD_Q, 0.4)
    assert PATH != DiscretePath(xs=[0.0, 0.3, 0.7, 1.0], qs=np.stack([np.zeros((2, 2)), 0.5 * GOOD_Q, GOOD_Q]))
    assert SPEC == MixtureSpec(2, {2: np.array([0.5, 0.5])})
    assert SPEC != MixtureSpec(2, {2: [0.5, 0.4]})
    assert SPEC != MixtureSpec(2, {2: [0.5, 0.5], 4: [0.0, 0.0]})
    assert SPEC != MixtureSpec(3, {2: [0.5, 0.5, 0.5]})
    for a, b in ((q, q), (PATH, PATH), (SPEC, SPEC)):
        assert type(a == b) is bool


def test_one_symmetry_rule_names_the_largest_gap():
    a = np.array([[1.0, 0.5, 0.2], [0.5, 1.0, 0.1], [0.2, 0.1 + 1e-7, 1.0]])
    with pytest.raises(ValueError, match=r"^A must be exactly symmetric: entry \(1, 2\) = 0\.1 but \(2, 1\)"):
        check_symmetric(a, "A")
    # in a stack the entry carries the matrix index; ties go to the first
    # entry in row-major order
    stack = np.stack([np.eye(2), [[1.0, 0.3], [0.2, 1.0]]])
    with pytest.raises(ValueError, match=r"entry \(1, 0, 1\) = 0\.3 but \(1, 1, 0\) = 0\.2"):
        xi_pair(SPEC, stack)
    with pytest.raises(ValueError, match="must be a non-empty square matrix"):
        check_symmetric(stack, "Lambda")  # a stack only where the caller allows it
    with pytest.raises(ValueError, match=r"2x2 matrix or a stack"):
        xi_pair(SPEC, np.eye(3))


# every public function that takes a path; those that take no Q leave the
# end matrix Q_r free
Q_MID = 0.5 * GOOD_Q
TAKES_PATH = {
    "evaluate": lambda p: evaluate(LAM, p, GOOD_Q, ZERO_H, SPEC),
    "inner_minimize": lambda p: inner_minimize(p, GOOD_Q, ZERO_H, SPEC),
    "inner_gradient": lambda p: inner_gradient(LAM, p, GOOD_Q, ZERO_H, SPEC),
    "detect_degenerate": lambda p: detect_degenerate(GOOD_Q, p, ZERO_H, SPEC),
    "closed_form_Y0": lambda p: closed_form_Y0(LAM, p, ZERO_H, SPEC),
    "theta_term": lambda p: theta_term(p, SPEC),
    "CascadeSpec": lambda p: CascadeSpec(path=p, spec=SPEC, lam=LAM, h=ZERO_H),
    "theta_cascade_value": lambda p: theta_cascade_value(p, SPEC),
}
TAKES_Q_AND_PATH = ("evaluate", "inner_minimize", "inner_gradient", "detect_degenerate")

# (breakpoints, Q_0..Q_r) of each invalid path, and the invariant it breaks
# first for the entries that take Q and for those whose end matrix is free
# (None: a free end takes the path).  The asymmetric levels of the last two
# are off by less than the rounding of their increments, which are exactly
# symmetric, so only the level rule sees them.
BAD_PATHS = {
    "decreasing-x": ([0.0, 0.6, 0.4, 1.0], [0.0 * GOOD_Q, Q_MID, GOOD_Q], "x_strictly_increasing", "x_strictly_increasing"),
    "x0-zero": ([0.0, 0.0, 0.6, 1.0], [0.0 * GOOD_Q, Q_MID, GOOD_Q], "x_strictly_increasing", "x_strictly_increasing"),
    "xr-not-one": ([0.0, 0.4, 0.6, 0.9], [0.0 * GOOD_Q, Q_MID, GOOD_Q], "x_end_one", "x_end_one"),
    "q0-not-zero": ([0.0, 0.4, 0.6, 1.0], [0.1 * GOOD_Q, Q_MID, GOOD_Q], "q0_zero", "q0_zero"),
    "qr-not-q": ([0.0, 0.4, 0.6, 1.0], [0.0 * GOOD_Q, Q_MID, 0.9 * GOOD_Q], "q_end_equals_constraint", None),
    "increment-not-psd": ([0.0, 0.4, 0.6, 1.0], [0.0 * GOOD_Q, 1.2 * GOOD_Q, GOOD_Q], "increment_psd", "increment_psd"),
    "middle-level-not-symmetric": (
        [0.0, 0.3, 0.5, 0.7, 1.0],
        [0.0 * GOOD_Q, 0.25 * np.ones((2, 2)), [[0.5, 0.0], [1e-18, 0.5]], GOOD_Q],
        "q_symmetric",
        "q_symmetric",
    ),
    "free-end-not-symmetric": (
        [0.0, 0.4, 0.6, 1.0],
        [0.0 * GOOD_Q, GOOD_Q, [[2.0, 1e-17], [2e-17, 2.0]]],
        "q_end_equals_constraint",
        "q_symmetric",
    ),
}


@pytest.mark.parametrize("bad", BAD_PATHS)
@pytest.mark.parametrize("entry", TAKES_PATH)
def test_every_entry_point_applies_the_one_path_rule(entry, bad):
    xs, qs, with_q, free_end = BAD_PATHS[bad]
    invariant = with_q if entry in TAKES_Q_AND_PATH else free_end
    path = DiscretePath(xs=xs, qs=np.stack(qs))
    if invariant is None:
        TAKES_PATH[entry](path)
        return
    with pytest.raises(InvalidPath, match=f"invariant '{invariant}'") as err:
        TAKES_PATH[entry](path)
    assert err.value.report.violations[0].invariant == invariant


@pytest.mark.parametrize("entry", TAKES_PATH)
def test_every_path_entry_checks_its_path_once_and_its_chain_never_again(monkeypatch, entry):
    # the path rule runs once where the path enters, and it owns the levels'
    # symmetry: no symmetry check sees the chain (a stack) afterwards
    rules, stacks = [], []

    def counting_validate_path(path, q=None):
        rules.append(1)
        return validate_path(path, q)

    def counting_check_symmetric(a, *args):
        stacks.append(np.ndim(a) == 3)
        return check_symmetric(a, *args)

    monkeypatch.setattr(geometry, "validate_path", counting_validate_path)
    for module in (mixture, geometry, functional, optimizer, cascade):
        if hasattr(module, "check_symmetric"):  # Lambda's rule calls geometry's
            monkeypatch.setattr(module, "check_symmetric", counting_check_symmetric)
    path = DiscretePath(xs=[0.0, 0.3, 0.7, 1.0], qs=np.stack([np.zeros((2, 2)), Q_MID, GOOD_Q]))
    TAKES_PATH[entry](path)
    assert len(rules) == 1
    assert not any(stacks)


# every public function that takes a mixture with Q or a path, and Q or the
# path's end matrix is 2 x 2
TAKES_SPEC = {
    "evaluate": lambda spec: evaluate(LAM, PATH, GOOD_Q, ZERO_H, spec),
    "closed_form_Y0": lambda spec: closed_form_Y0(LAM, PATH, ZERO_H, spec),
    "theta_term": lambda spec: theta_term(PATH, spec),
    "inner_gradient": lambda spec: inner_gradient(LAM, PATH, GOOD_Q, ZERO_H, spec),
    "inner_minimize": lambda spec: inner_minimize(PATH, GOOD_Q, ZERO_H, spec),
    "detect_degenerate": lambda spec: detect_degenerate(GOOD_Q, PATH, ZERO_H, spec),
    "minimize_over_paths": lambda spec: minimize_over_paths(GOOD_Q, ZERO_H, spec, SEARCH),
    "estimate_free_energy": lambda spec: estimate_free_energy(GOOD_Q, 16, 0.01, spec, ZERO_H, 2, 50, seed=0),
    "CascadeSpec": lambda spec: CascadeSpec(path=PATH, spec=spec, lam=LAM, h=ZERO_H),
    "theta_cascade_value": lambda spec: theta_cascade_value(PATH, spec),
}


@pytest.mark.parametrize("copies", [1, 3])
@pytest.mark.parametrize("entry", TAKES_SPEC)
def test_every_entry_point_applies_the_one_mixture_size_rule(monkeypatch, entry, copies):
    # a mixture of the wrong size is refused before any search or draw, not
    # broadcast against Q
    def no_work(*args, **kwargs):
        raise AssertionError("work started before the mixture's size was checked")

    monkeypatch.setattr(optimizer, "scipy_minimize", no_work)
    monkeypatch.setattr(montecarlo, "run_tasks", no_work)
    spec = MixtureSpec(copies, {2: [0.5] * copies})
    with pytest.raises(InvalidField, match=f"^mixture has n={copies} copies, Q is 2x2$") as err:
        TAKES_SPEC[entry](spec)
    assert err.value.field == "mixture"


# every public count argument: (call with the count, field, a valid count)
CSPEC = CascadeSpec(path=PATH, spec=SPEC, lam=LAM, h=ZERO_H)
COUNTS = {
    "PathSearchConfig-max_levels": (lambda v: PathSearchConfig(max_levels=v), "max_levels", 1),
    "PathSearchConfig-restarts": (lambda v: PathSearchConfig(restarts=v), "restarts", 0),
    "PathSearchConfig-max_iterations": (lambda v: PathSearchConfig(max_iterations=v), "max_iterations", 1),
    "estimate_free_energy-N": (lambda v: estimate_free_energy(GOOD_Q, v, 0.01, SPEC, ZERO_H, 2, 50, seed=0), "N", 16),
    "estimate_free_energy-disorder_reps": (
        lambda v: estimate_free_energy(GOOD_Q, 16, 0.01, SPEC, ZERO_H, v, 50, seed=0),
        "disorder_reps",
        2,
    ),
    "estimate_free_energy-config_samples": (
        lambda v: estimate_free_energy(GOOD_Q, 16, 0.01, SPEC, ZERO_H, 2, v, seed=0),
        "config_samples",
        50,
    ),
    "sample_constrained-n_sites": (lambda v: sample_constrained(GOOD_Q, v, 5, seed=0), "N", 16),
    "sample_constrained-count": (lambda v: sample_constrained(GOOD_Q, 16, v, seed=0), "count", 5),
    "draw_disorder-n_sites": (lambda v: draw_disorder([2], v, seed=0), "N", 8),
    "draw_disorder-degree": (lambda v: draw_disorder([v], 8, seed=0), "degree", 2),
    "nested_recursion_mc": (lambda v: nested_recursion_mc(CSPEC, [v], seed=0), "samples[0]", 20),
    "MixtureSpec-n": (lambda v: MixtureSpec(v, {2: [0.5, 0.5]}), "n", 2),
    "MixtureSpec-degree": (lambda v: MixtureSpec(2, {v: [0.5, 0.5]}), "degree", 2),
    "identity_suite": (lambda v: identity_suite(0, count=v), "count", 1),
    "jacobi_suite": (lambda v: jacobi_suite(0, count=v), "count", 1),
    "mc_identity_check-count": (lambda v: mc_identity_check(0, count=v, samples=100), "count", 1),
    "mc_identity_check-samples": (lambda v: mc_identity_check(0, count=1, samples=v), "samples", 2),
}


@pytest.mark.parametrize("bad", [True, np.bool_(True), 2.5, "2"], ids=["bool", "numpy-bool", "float", "string"])
@pytest.mark.parametrize("entry", COUNTS)
def test_every_count_entry_applies_the_one_count_rule(entry, bad):
    call, field, valid = COUNTS[entry]
    # a numpy int is a count, and it is handed on as the same Python int
    assert repr(call(np.int64(valid))) == repr(call(valid))
    # nothing else is: a bool is not 1, and a float is refused, not truncated
    with pytest.raises(InvalidField, match=f"^{re.escape(field)} must be an integer, got ") as caught:
        call(bad)
    assert caught.value.field == field


@pytest.mark.parametrize(
    "call, field, minimum",
    [
        (lambda v: identity_suite(0, count=v), "count", 0),
        (lambda v: jacobi_suite(0, count=v), "count", 0),
        (lambda v: mc_identity_check(0, count=v, samples=100), "count", 0),
        (lambda v: mc_identity_check(0, count=1, samples=v), "samples", 2),
    ],
    ids=["identity_suite", "jacobi_suite", "mc_identity_check-count", "mc_identity_check-samples"],
)
def test_verify_suites_check_their_counts_on_entry(call, field, minimum):
    # the minimum itself runs (no check, or a two-sample standard error);
    # one below it is refused before any draw
    call(minimum)
    with pytest.raises(InvalidField, match=f"^{field} must be at least {minimum}, got {minimum - 1}$"):
        call(minimum - 1)
