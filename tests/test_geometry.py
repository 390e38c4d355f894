import numpy as np
import pytest

from sphglass.geometry import (
    ConstraintMatrix,
    DiscretePath,
    InvalidPath,
    PathViolation,
    check_path,
    is_degenerate_spectrum,
    validate_path,
)

from conftest import path_value_at, random_constraint, random_path, refine_path


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


@pytest.mark.parametrize(
    "xs, invariant",
    [
        ([0.0, 0.7, 0.3, 1.0], "x_strictly_increasing"),
        ([0.0, 0.5, 0.5, 1.0], "x_strictly_increasing"),
        ([0.1, 0.4, 0.8, 1.0], "x_start_zero"),
        ([0.0, 0.4, 0.8, 0.9], "x_end_one"),
    ],
    ids=["decreasing", "repeated", "start-not-zero", "end-not-one"],
)
def test_validate_enforces_strict_unit_interval_rule(xs, invariant):
    qs = [[[0.0]], [[0.5]], [[1.0]]]
    assert validate_path(DiscretePath(xs=[0.0, 0.3, 0.7, 1.0], qs=qs), None).ok
    report = validate_path(DiscretePath(xs=xs, qs=qs), None)
    assert [v.invariant for v in report.violations] == [invariant]


def test_strict_rule_accepts_any_positive_gap():
    # no gap floor: x_0 = 1e-15 and a last gap of 1e-9 in floats both pass
    qs = [[[0.0]], [[0.5]], [[1.0]]]
    for xs in ([0.0, 1e-15, 0.5, 1.0], [0.0, 0.5, 1.0 - 1e-9, 1.0], [0.0, 0.5, 0.5 + 1e-14, 1.0]):
        assert validate_path(DiscretePath(xs=xs, qs=qs), np.eye(1)).ok


def test_check_path_raises_the_first_violation_with_the_report():
    q = ConstraintMatrix(q2(0.5))
    path = DiscretePath(xs=[0.0, 0.7, 0.3, 1.0], qs=np.stack([np.zeros((2, 2)), 0.5 * q.matrix, 0.9 * q.matrix]))
    with pytest.raises(InvalidPath, match="'x_strictly_increasing' at index 1") as err:
        check_path(path, q)
    assert err.value.report == validate_path(path, q)
    assert [v.invariant for v in err.value.report.violations] == ["x_strictly_increasing", "q_end_equals_constraint"]
    check_path(DiscretePath(xs=[0.0, 0.3, 0.7, 1.0], qs=path.qs))  # no Q: the end matrix is free


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


def test_validate_reports_each_asymmetric_level_and_skips_its_increments():
    # the rule owns the levels' symmetry: an asymmetric level is reported
    # with its largest gap, and the increments next to it, which are not
    # symmetric either, get no PSD test (their lower triangles are indefinite)
    q = ConstraintMatrix(q2(0.5))
    q1 = np.array([[0.5, 0.0], [2.0, 0.5]])
    path = DiscretePath(xs=[0.0, 0.3, 0.7, 1.0], qs=np.stack([np.zeros((2, 2)), q1, q.matrix]))
    assert validate_path(path, q).violations == (PathViolation("q_symmetric", 1, 2.0),)


def test_validate_reports_wrong_endpoint():
    q = ConstraintMatrix(q2(0.5))
    path = DiscretePath.simple(q2(0.4), 0.5)
    report = validate_path(path, q)
    assert any(v.invariant == "q_end_equals_constraint" for v in report.violations)


def test_refine_keeps_step_function(rng):
    q = random_constraint(rng, 3)
    path = random_path(rng, q.matrix, 2)
    for k in range(path.r + 1):
        mid = 0.5 * (path.xs[k] + path.xs[k + 1])
        refined = refine_path(path, k, mid)
        assert refined.r == path.r + 1
        # the same value at every breakpoint of the refined path and inside every piece
        cuts = refined.xs
        for x in np.concatenate([cuts, 0.5 * (cuts[:-1] + cuts[1:])]):
            assert np.array_equal(path_value_at(refined, x), path_value_at(path, x))
        assert validate_path(refined, q).ok


def test_refine_rejects_outside_interval():
    path = DiscretePath(xs=[0.0, 0.5, 1.0], qs=[[[0.0]], [[1.0]]])
    with pytest.raises(ValueError):
        refine_path(path, 0, 0.7)
    with pytest.raises(IndexError):
        refine_path(path, 5, 0.7)


def test_validate_rejects_a_nonmonotone_chain(rng):
    q = ConstraintMatrix(q2(0.5))
    good = random_path(rng, q.matrix, 2)
    assert validate_path(good, q).ok
    q1 = np.array([[0.9, 0.0], [0.0, 0.1]])
    bad = DiscretePath(xs=[0.0, 0.3, 0.7, 1.0], qs=np.stack([np.zeros((2, 2)), q1, q.matrix]))
    assert any(v.invariant == "increment_psd" for v in validate_path(bad, q).violations)


def test_left_continuous_evaluation():
    q = q2(0.5)
    path = DiscretePath(xs=[0.0, 0.4, 1.0], qs=np.stack([np.zeros((2, 2)), q]))
    assert np.array_equal(path_value_at(path, 0.4), np.zeros((2, 2)))  # (0, 0.4] -> Q_0
    assert np.array_equal(path_value_at(path, 0.41), q)
    assert np.array_equal(path_value_at(path, 1.0), q)
    assert np.array_equal(path_value_at(path, 0.0), np.zeros((2, 2)))
