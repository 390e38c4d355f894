import numpy as np
import pytest

from sphglass.geometry import (
    ConstraintMatrix,
    DiscretePath,
    check_breakpoints,
    is_degenerate_spectrum,
    path_distance,
    refine_path,
    validate_path,
)

from conftest import random_constraint, random_path


def q2(off: float = 0.5) -> np.ndarray:
    return np.array([[1.0, off], [off, 1.0]])


def test_constraint_invariants():
    ConstraintMatrix(q2(0.5))
    with pytest.raises(ValueError, match="diagonal"):
        ConstraintMatrix(np.array([[0.9, 0.5], [0.5, 1.0]]))
    with pytest.raises(ValueError, match="PSD"):
        ConstraintMatrix(
            np.array([[1.0, 0.9, -0.9], [0.9, 1.0, 0.9], [-0.9, 0.9, 1.0]])
        )
    with pytest.raises(ValueError, match="off-diagonals"):
        ConstraintMatrix(np.array([[1.0, 1.2], [1.2, 1.0]]))


def test_constraint_degeneracy_flag():
    assert ConstraintMatrix(np.array([[1.0, 1.0], [1.0, 1.0]])).is_degenerate()
    assert not ConstraintMatrix(q2(0.5)).is_degenerate()


def equicorrelated(n: int, rho: float) -> np.ndarray:
    return (1.0 - rho) * np.eye(n) + rho * np.ones((n, n))


@pytest.mark.parametrize("n", range(4, 13))
def test_equicorrelated_degeneracy_follows_smallest_eigenvalue(n):
    # rho = 0.9 has smallest eigenvalue 0.1 at every n, while the product of
    # eig / eig_max falls below 1e-12 from n = 8 on
    well = equicorrelated(n, 0.9)
    assert not ConstraintMatrix(well).is_degenerate()
    assert not is_degenerate_spectrum(np.linalg.eigvalsh(well))
    assert ConstraintMatrix(equicorrelated(n, 1.0)).is_degenerate()
    singular = equicorrelated(n, 0.9)
    singular[:2, :2] = 1.0  # copies 1 and 2 coincide
    assert ConstraintMatrix(singular).is_degenerate()


def test_validate_simple_pd_path_passes():
    q = ConstraintMatrix(q2(0.5))
    path = DiscretePath.simple(q.matrix, 0.5)
    assert validate_path(path, q).ok


def test_validate_reports_nonincreasing_xs():
    q = ConstraintMatrix(q2(0.5))
    path = DiscretePath(
        xs=[0.0, 0.7, 0.3, 1.0],
        qs=np.stack([np.zeros((2, 2)), 0.5 * q.matrix, q.matrix]),
    )
    report = validate_path(path, q)
    assert not report.ok
    names = {(v.invariant, v.index) for v in report.violations}
    assert ("x_strictly_increasing", 1) in names


def test_check_breakpoints_enforces_strict_unit_interval_rule():
    qs = [[[0.0]], [[0.5]], [[1.0]]]
    check_breakpoints(DiscretePath(xs=[0.0, 0.3, 0.7, 1.0], qs=qs))
    for xs in ([0.0, 0.7, 0.3, 1.0], [0.0, 0.5, 0.5, 1.0], [0.1, 0.4, 0.8, 1.0], [0.0, 0.4, 0.8, 0.9]):
        with pytest.raises(ValueError, match="breakpoints must satisfy"):
            check_breakpoints(DiscretePath(xs=xs, qs=qs))


def test_validate_reports_psd_increment_violation():
    q = ConstraintMatrix(q2(0.5))
    q1 = np.array([[0.9, 0.0], [0.0, 0.1]])  # q - q1 indefinite
    path = DiscretePath(xs=[0.0, 0.3, 0.7, 1.0], qs=np.stack([np.zeros((2, 2)), q1, q.matrix]))
    report = validate_path(path, q)
    bad = [v for v in report.violations if v.invariant == "increment_psd"]
    assert bad and bad[0].index == 2
    # the reported magnitude is the negative eigenvalue of Q - Q_1
    expected = float(np.linalg.eigvalsh(q.matrix - q1)[0])
    assert bad[0].magnitude == pytest.approx(expected, rel=1e-12)


def test_validate_reports_wrong_endpoint():
    q = ConstraintMatrix(q2(0.5))
    path = DiscretePath.simple(q2(0.4), 0.5)
    report = validate_path(path, q)
    assert any(v.invariant == "q_end_equals_constraint" for v in report.violations)


def test_distance_identical_paths_is_zero(rng):
    q = random_constraint(rng, 3)
    path = random_path(rng, q.matrix, 2)
    assert path_distance(path, path) == 0.0


def test_distance_unit_jump_rectangle():
    a = DiscretePath(xs=[0.0, 0.5, 1.0], qs=[[[0.0]], [[1.0]]])
    b = DiscretePath(xs=[0.0, 0.75, 1.0], qs=[[[0.0]], [[1.0]]])
    assert path_distance(a, b) == pytest.approx(0.25, abs=1e-15)


def test_distance_matches_mc_quadrature(rng):
    q = random_constraint(rng, 2)
    a = random_path(rng, q.matrix, 2)
    b = random_path(rng, q.matrix, 3)
    exact = path_distance(a, b)
    xs = rng.uniform(0.0, 1.0, size=100_000)
    vals = [float(np.sum(np.abs(a.value_at(x) - b.value_at(x)))) for x in xs]
    assert exact == pytest.approx(float(np.mean(vals)), abs=1e-3 * max(1.0, exact) + 3e-3)


def test_distance_dimension_mismatch():
    a = DiscretePath(xs=[0.0, 0.5, 1.0], qs=[[[0.0]], [[1.0]]])
    b = DiscretePath.simple(q2(0.5), 0.5)
    with pytest.raises(ValueError):
        path_distance(a, b)


def test_metric_properties(rng):
    q = random_constraint(rng, 2)
    paths = [random_path(rng, q.matrix, int(rng.integers(1, 4))) for _ in range(3)]
    a, b, c = paths
    assert path_distance(a, b) == pytest.approx(path_distance(b, a), rel=1e-12)
    assert path_distance(a, c) <= path_distance(a, b) + path_distance(b, c) + 1e-12
    assert path_distance(a, a) == 0.0


def test_refine_keeps_step_function(rng):
    q = random_constraint(rng, 3)
    path = random_path(rng, q.matrix, 2)
    for k in range(path.r + 1):
        mid = 0.5 * (path.xs[k] + path.xs[k + 1])
        refined = refine_path(path, k, mid)
        assert refined.r == path.r + 1
        assert path_distance(path, refined) == 0.0
        assert validate_path(refined, q).ok


def test_refine_rejects_outside_interval():
    path = DiscretePath(xs=[0.0, 0.5, 1.0], qs=[[[0.0]], [[1.0]]])
    with pytest.raises(ValueError):
        refine_path(path, 0, 0.7)
    with pytest.raises(IndexError):
        refine_path(path, 5, 0.7)


def test_validate_agrees_with_delta_increments(rng):
    # paths that validate cleanly are exactly the ones the increment map accepts
    from sphglass.mixture import MixtureSpec, delta_increments

    spec = MixtureSpec(2, {2: [0.8, 0.6]})
    q = ConstraintMatrix(q2(0.5))
    good = random_path(rng, q.matrix, 2)
    assert validate_path(good, q).ok
    delta_increments(spec, good)  # must not raise
    q1 = np.array([[0.9, 0.0], [0.0, 0.1]])
    bad = DiscretePath(xs=[0.0, 0.3, 0.7, 1.0], qs=np.stack([np.zeros((2, 2)), q1, q.matrix]))
    assert any(v.invariant == "increment_psd" for v in validate_path(bad, q).violations)
    with pytest.raises(ValueError):
        delta_increments(spec, bad)


def test_left_continuous_evaluation():
    q = q2(0.5)
    path = DiscretePath(xs=[0.0, 0.4, 1.0], qs=np.stack([np.zeros((2, 2)), q]))
    assert np.array_equal(path.value_at(0.4), np.zeros((2, 2)))  # (0, 0.4] -> Q_0
    assert np.array_equal(path.value_at(0.41), q)
    assert np.array_equal(path.value_at(1.0), q)
    assert np.array_equal(path.value_at(0.0), np.zeros((2, 2)))
