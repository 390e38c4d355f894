import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sphglass.geometry import DiscretePath
from sphglass.mixture import (
    InvalidField,
    MixtureSpec,
    delta_increments,
    int_power,
    path_levels,
    theta_matrix,
    xi_matrix,
    xi_pair,
    xi_prime_matrix,
    xi_second_matrix,
)

from conftest import random_constraint, random_path, xi_scalar


def test_xi_scalar_single_term():
    spec = MixtureSpec(2, {2: [1.0, 1.0]})
    assert xi_scalar(spec, 1, 2, 0.5) == pytest.approx(0.25, abs=0)


def test_xi_scalar_at_zero():
    spec = MixtureSpec(2, {2: [0.7, 0.4], 4: [0.2, 0.1]})
    assert xi_scalar(spec, 1, 2, 0.0) == 0.0


def test_xi_scalar_sums_squared_coefficients_at_one():
    spec = MixtureSpec(1, {2: [0.3], 4: [0.1]})
    assert xi_scalar(spec, 1, 1, 1.0) == pytest.approx(0.10, rel=1e-15)


def test_xi_scalar_index_out_of_range():
    spec = MixtureSpec(2, {2: [1.0, 1.0]})
    with pytest.raises(IndexError):
        xi_scalar(spec, 0, 1, 0.5)
    with pytest.raises(IndexError):
        xi_scalar(spec, 1, 3, 0.5)


def test_xi_matrix_entrywise_square():
    spec = MixtureSpec(2, {2: [1.0, 1.0]})
    a = np.array([[1.0, 0.5], [0.5, 1.0]])
    assert np.allclose(xi_matrix(spec, a), [[1.0, 0.25], [0.25, 1.0]], atol=0)


def test_xi_matrix_zero_mixture():
    a = np.array([[1.0, 0.3], [0.3, 1.0]])
    assert np.array_equal(xi_matrix(MixtureSpec.zero(2), a), np.zeros((2, 2)))


def test_xi_matrix_asymmetric_temperatures():
    # brute-force entrywise sum over p for beta_2 = (1, 2)
    spec = MixtureSpec(2, {2: [1.0, 2.0]})
    a = np.array([[1.0, 0.5], [0.5, 1.0]])
    expected = np.array(
        [[xi_scalar(spec, j + 1, k + 1, a[j, k]) for k in range(2)] for j in range(2)]
    )
    assert np.allclose(expected, [[1.0, 0.5], [0.5, 4.0]], atol=0)
    assert np.allclose(xi_matrix(spec, a), expected, atol=0)


def test_xi_matrix_dimension_mismatch():
    spec = MixtureSpec(2, {2: [1.0, 1.0]})
    with pytest.raises(ValueError):
        xi_matrix(spec, np.eye(3))


def test_xi_prime_examples():
    spec = MixtureSpec(2, {2: [1.0, 1.0]})
    a = np.array([[1.0, 0.5], [0.5, 1.0]])
    assert xi_prime_matrix(spec, a)[0, 1] == pytest.approx(1.0, abs=0)
    assert np.array_equal(xi_prime_matrix(spec, np.zeros((2, 2))), np.zeros((2, 2)))
    spec1 = MixtureSpec(1, {2: [0.3], 4: [0.1]})
    assert xi_prime_matrix(spec1, np.array([[1.0]]))[0, 0] == pytest.approx(0.22, rel=1e-14)


def test_theta_pure_two_spin():
    spec = MixtureSpec(1, {2: [1.0]})
    assert theta_matrix(spec, np.array([[0.5]]))[0, 0] == pytest.approx(0.25, abs=0)


def test_theta_at_zero():
    spec = MixtureSpec(2, {2: [0.5, 0.4], 4: [0.2, 0.3]})
    assert np.array_equal(theta_matrix(spec, np.zeros((2, 2))), np.zeros((2, 2)))


def test_theta_pure_four_spin():
    # oracle: theta(x) = 3 beta^2 x^4 for the pure 4-spin kernel
    spec = MixtureSpec(1, {4: [1.0]})
    assert theta_matrix(spec, np.array([[0.5]]))[0, 0] == pytest.approx(3 * 0.5**4, rel=1e-15)


def test_delta_scalar():
    spec = MixtureSpec(1, {2: [1.0]})
    path = DiscretePath(xs=[0.0, 0.5, 1.0], qs=[[[0.0]], [[1.0]]])
    (delta,) = delta_increments(spec, path)
    assert delta[0, 0] == pytest.approx(2.0, abs=0)


def test_delta_zero_for_equal_levels():
    spec = MixtureSpec(2, {2: [0.8, 0.6]})
    q = np.array([[1.0, 0.4], [0.4, 1.0]])
    path = DiscretePath(xs=[0.0, 0.3, 0.7, 1.0], qs=np.stack([np.zeros((2, 2)), q, q]))
    deltas = delta_increments(spec, path)
    assert np.array_equal(deltas[1], np.zeros((2, 2)))


def test_delta_eigenvalues_oracle():
    # direct eigendecomposition of Delta_2 = 2 (Q_2 - Q_1)
    spec = MixtureSpec(2, {2: [1.0, 1.0]})
    q1 = np.array([[0.4, 0.2], [0.2, 0.4]])
    q2 = np.array([[1.0, 0.5], [0.5, 1.0]])
    path = DiscretePath(xs=[0.0, 0.3, 0.7, 1.0], qs=np.stack([np.zeros((2, 2)), q1, q2]))
    deltas = delta_increments(spec, path)
    eigs = np.linalg.eigvalsh(deltas[1])
    assert np.allclose(eigs, [0.6, 1.8], atol=1e-12)
    assert np.allclose(deltas[1], 2 * (q2 - q1), atol=0)


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("r", [1, 2, 3])
def test_one_pass_matches_single_kernels_bitwise(rng, n, r):
    # the stacked one-pass kernel against a per-matrix, per-function
    # reference with the same arithmetic: every bit must agree
    q = random_constraint(rng, n)
    path = random_path(rng, q.matrix, r)
    terms = {2: rng.uniform(0.1, 1.0, n), 4: rng.uniform(0.0, 0.5, n), 6: rng.uniform(0.0, 0.3, n)}
    spec = MixtureSpec(n, terms)
    xi, xi_prime = xi_pair(spec, path.qs)
    deltas, thetas, seconds = path_levels(spec, path)
    assert xi.shape == xi_prime.shape == thetas.shape == seconds.shape == (r + 1, n, n)
    ref_primes = []
    for k, a in enumerate(path.qs):
        ref_xi = np.zeros((n, n))
        ref_prime = np.zeros((n, n))
        ref_second = np.zeros((n, n))
        for p, beta in spec.terms.items():
            ref_xi += np.outer(beta, beta) * int_power(a, p)
            ref_prime += float(p) * np.outer(beta, beta) * int_power(a, p - 1)
            ref_second += float(p * (p - 1)) * np.outer(beta, beta) * int_power(a, p - 2)
        ref_primes.append(ref_prime)
        assert np.array_equal(seconds[k], ref_second)
        assert np.array_equal(seconds[k], xi_second_matrix(spec, a))
        assert np.array_equal(xi[k], ref_xi)
        assert np.array_equal(xi[k], xi_matrix(spec, a))
        assert np.array_equal(xi_prime[k], ref_prime)
        assert np.array_equal(xi_prime[k], xi_prime_matrix(spec, a))
        assert np.array_equal(thetas[k], a * ref_prime - ref_xi)
        assert np.array_equal(thetas[k], theta_matrix(spec, a))
    assert np.array_equal(deltas, np.diff(ref_primes, axis=0))
    assert np.array_equal(deltas, delta_increments(spec, path))
    assert not deltas.flags.writeable


def test_int_power_is_ones_seeded_squaring_bitwise(rng):
    # the reference seeds the product with ones; seeding it with the first
    # factor instead must give the same bits, and never hand back the input
    def reference(x, p):
        result = np.ones_like(x)
        base = x.copy()
        while p:
            if p & 1:
                result = result * base
            base = base * base
            p >>= 1
        return result

    special = np.array([0.0, -0.0, 1e-200, -1e150, 1.5, -0.7, np.inf, np.nan])
    for x in (np.array(0.3), special, rng.uniform(-1.5, 1.5, size=(3, 2, 2))):
        before = x.copy()
        for p in range(65):
            with np.errstate(over="ignore", under="ignore", invalid="ignore"):
                got, want = int_power(x, p), reference(x, p)
            assert np.array_equal(got, want, equal_nan=True), p
            assert np.array_equal(np.signbit(got), np.signbit(want)), p
            assert not np.shares_memory(got, x), p
        assert np.array_equal(x, before, equal_nan=True)
    with pytest.raises(ValueError):
        int_power(special, -1)


def test_odd_degree_rejected_at_construction():
    with pytest.raises(ValueError, match="even"):
        MixtureSpec(1, {3: [1.0]})
    with pytest.raises(ValueError):
        MixtureSpec(1, {1: [1.0]})


def test_degree_key_is_a_count_not_truncated():
    # a float key used to become its integer part: 4.9 was degree 4
    with pytest.raises(InvalidField, match=r"^degree must be an integer, got 4\.9$"):
        MixtureSpec(1, {4.9: [1.0]})
    # the wire format keeps its own message for a key that is no integer
    with pytest.raises(ValueError, match=r"^mixture degree 'x' is not an integer$"):
        MixtureSpec.from_json_terms(1, {"x": [1.0]})
    assert MixtureSpec.from_json_terms(1, {"4": [1.0]}).degrees == (4,)


# the first three are the beta_2 of the n = 2 pure p = 2 models whose search
# values fall below the exact free energy; the last mixes signs around a zero
MIXED_SIGN_BETAS = [(0.3, -0.3), (0.5, -0.5), (1.0, -1.0), (-0.2, 0.0, 0.4)]


@pytest.mark.parametrize("beta", MIXED_SIGN_BETAS)
def test_mixed_sign_beta_is_refused_naming_the_degree(beta):
    n = len(beta)
    with pytest.raises(InvalidField, match=r"^mixture beta_2 = \[.*\] has entries of both signs") as err:
        MixtureSpec(n, {2: beta})
    assert err.value.field == "mixture"
    # the sign rule holds degree by degree
    with pytest.raises(InvalidField, match=r"^mixture beta_4 = "):
        MixtureSpec(n, {2: np.full(n, 0.5), 4: beta})


def test_one_sign_per_degree_passes_and_a_negated_beta_is_the_same_model():
    beta = {2: [0.5, 0.0, 0.3], 4: [-0.0, -0.2, -0.1]}
    spec = MixtureSpec(3, beta)
    negated = MixtureSpec(3, {p: -np.asarray(b) for p, b in beta.items()})
    a = np.array([[1.0, 0.4, -0.2], [0.4, 1.0, 0.3], [-0.2, 0.3, 1.0]])
    for kernel in (xi_matrix, xi_prime_matrix, xi_second_matrix, theta_matrix):
        assert np.array_equal(kernel(spec, a), kernel(negated, a))
    assert MixtureSpec(2, {2: [0.0, 0.0]}).is_zero()


def test_kernel_coefficients_are_built_once_per_degree():
    spec = MixtureSpec(2, {2: [0.7, 0.4], 4: [0.2, 0.1]})
    for p, beta in spec.terms.items():
        outer, outer_prime, outer_second = spec.outers[p]
        assert np.array_equal(outer, np.outer(beta, beta))
        assert np.array_equal(outer_prime, float(p) * outer)
        assert np.array_equal(outer_second, float(p * (p - 1)) * outer)
        assert not any(c.flags.writeable for c in spec.outers[p])


def test_wrong_beta_length_rejected():
    with pytest.raises(ValueError):
        MixtureSpec(2, {2: [1.0]})


@given(
    x=st.floats(-1.0, 1.0),
    b2=st.floats(0.0, 2.0),
    b4=st.floats(0.0, 1.0),
)
@settings(max_examples=50, deadline=None)
def test_matrix_matches_scalar_entrywise(x, b2, b4):
    spec = MixtureSpec(2, {2: [b2, 0.5 * b2], 4: [b4, b4]})
    a = np.array([[x, 0.5 * x], [0.5 * x, x]])
    mat = xi_matrix(spec, a)
    for j in range(2):
        for k in range(2):
            assert mat[j, k] == pytest.approx(xi_scalar(spec, j + 1, k + 1, a[j, k]), rel=1e-14, abs=1e-300)


@given(x=st.floats(-0.99, 0.99), b2=st.floats(0.1, 2.0), b4=st.floats(0.0, 1.0))
@settings(max_examples=50, deadline=None)
def test_derivative_matches_finite_difference(x, b2, b4):
    spec = MixtureSpec(1, {2: [b2], 4: [b4]})
    hstep = 1e-5
    fd = (xi_scalar(spec, 1, 1, x + hstep) - xi_scalar(spec, 1, 1, x - hstep)) / (2 * hstep)
    exact = xi_prime_matrix(spec, np.array([[x]]))[0, 0]
    # third-derivative bound on [-1, 1] for p <= 4 with these coefficients
    c = 24 * (b2 * b2 + b4 * b4) + 1.0
    assert abs(exact - fd) <= c * hstep**2


@pytest.mark.parametrize("n", [1, 2, 3])
def test_second_derivative_matches_central_differences_of_xi_prime(rng, n):
    # xi'' entrywise against central differences of xi', on one matrix and
    # on a stack, with degrees 2, 4 and 6
    spec = MixtureSpec(n, {p: rng.uniform(0.1, 1.0, size=n) for p in (2, 4, 6)})
    g = rng.uniform(-0.9, 0.9, (2, n, n))
    stack = (g + g.swapaxes(1, 2)) / 2.0
    step = 1e-5
    fd = (xi_prime_matrix(spec, stack + step) - xi_prime_matrix(spec, stack - step)) / (2 * step)
    assert np.allclose(xi_second_matrix(spec, stack), fd, rtol=1e-8, atol=1e-9)
    assert np.array_equal(xi_second_matrix(spec, stack[0]), xi_second_matrix(spec, stack)[0])
    assert not np.any(xi_second_matrix(MixtureSpec.zero(n), stack))


def test_diagonal_convexity_on_grid():
    spec = MixtureSpec(1, {2: [0.8], 4: [0.5]})
    xs = np.linspace(-1.0, 1.0, 101)
    vals = np.array([xi_scalar(spec, 1, 1, float(x)) for x in xs])
    second = vals[:-2] - 2 * vals[1:-1] + vals[2:]
    assert np.all(second >= -1e-12)


def test_schur_psd_on_random_chains(rng):
    for _ in range(10):
        n = int(rng.integers(1, 5))
        q = random_constraint(rng, n)
        path = random_path(rng, q.matrix, int(rng.integers(1, 4)))
        terms = {2: rng.uniform(0.1, 1.0, size=n), 4: rng.uniform(0.0, 0.5, size=n)}
        deltas = delta_increments(MixtureSpec(n, terms), path)
        for d in deltas:
            assert np.linalg.eigvalsh(d)[0] >= -1e-10 * max(1.0, np.abs(d).max())


def test_symmetry_preserved(rng):
    spec = MixtureSpec(3, {2: rng.uniform(0.1, 1.0, 3), 4: rng.uniform(0.0, 0.4, 3)})
    g = rng.uniform(-1.0, 1.0, (3, 3))
    a = (g + g.T) / 2.0
    for fn in (xi_matrix, xi_prime_matrix, xi_second_matrix, theta_matrix):
        out = fn(spec, a)
        assert np.array_equal(out, out.T)
