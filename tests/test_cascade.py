import concurrent.futures
import hashlib
import math
import sys
import threading
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest
from scipy.special import logsumexp

from sphglass.cascade import (
    LEAF_BLOCK,
    CascadeSpec,
    nested_recursion_mc,
    theta_cascade_value,
    _gaussian_factor,
)
from sphglass.functional import InvalidPath, closed_form_Y0, logdet_pd, solve_pd, theta_term
from sphglass.geometry import DiscretePath
from sphglass.mixture import InvalidField, MixtureSpec
from sphglass import cascade, parallel
from sphglass.parallel import stream

from conftest import (
    cascade_free_energy_sim,
    finite_cascade_weights,
    random_constraint,
    random_mixture,
    random_multiplier,
    random_path,
)


def scalar_path(x0: float = 0.9) -> DiscretePath:
    return DiscretePath(xs=[0.0, x0, 1.0], qs=[[[0.0]], [[1.0]]])


def test_nested_mc_zero_mixture_exact(rng):
    q = random_constraint(rng, 2)
    path = DiscretePath.simple(q.matrix, 0.5)
    spec = MixtureSpec.zero(2)
    lam = random_multiplier(rng, path, spec)
    h = np.array([0.4, -0.2])
    cs = CascadeSpec(path=path, spec=spec, lam=lam, h=h)
    res = nested_recursion_mc(cs, [64], seed=1)
    expected = -0.5 * logdet_pd(lam) + 0.5 * float(h @ np.linalg.solve(lam, h))
    assert res.estimate == pytest.approx(expected, rel=1e-13)
    assert res.stderr == 0.0


def test_nested_mc_single_level_closed_form():
    spec = MixtureSpec(1, {2: [0.3]})
    path = scalar_path(0.9)
    lam = np.array([[1.18]])
    cs = CascadeSpec(path=path, spec=spec, lam=lam, h=np.zeros(1))
    res = nested_recursion_mc(cs, [200_000], seed=7)
    target = closed_form_Y0(lam, path, np.zeros(1), spec)
    assert abs(res.estimate - target) <= 3 * res.stderr
    assert res.stderr < 5e-3


def test_nested_mc_two_levels_closed_form(rng):
    q = random_constraint(rng, 2)
    path = random_path(rng, q.matrix, 2)
    spec = random_mixture(rng, 2, scale=0.4)
    lam = random_multiplier(rng, path, spec, margin=0.6)
    h = rng.uniform(-0.3, 0.3, size=2)
    cs = CascadeSpec(path=path, spec=spec, lam=lam, h=h)
    res = nested_recursion_mc(cs, [2000, 2000], seed=13)
    target = closed_form_Y0(lam, path, h, spec)
    assert abs(res.estimate - target) <= 3 * max(res.stderr, 1e-4)
    assert res.stderr < 5e-3


def test_nested_mc_three_levels(rng):
    q = random_constraint(rng, 2)
    path = random_path(rng, q.matrix, 3)
    spec = random_mixture(rng, 2, scale=0.35)
    lam = random_multiplier(rng, path, spec, margin=0.7)
    h = np.array([0.1, -0.2])
    cs = CascadeSpec(path=path, spec=spec, lam=lam, h=h)
    res = nested_recursion_mc(cs, [200, 150, 100], seed=3)
    target = closed_form_Y0(lam, path, h, spec)
    assert abs(res.estimate - target) <= 4 * res.stderr


def test_nested_mc_leaf_budget_guard(rng):
    q = random_constraint(rng, 2)
    path = random_path(rng, q.matrix, 3)
    spec = random_mixture(rng, 2)
    lam = random_multiplier(rng, path, spec)
    cs = CascadeSpec(path=path, spec=spec, lam=lam, h=np.zeros(2))
    with pytest.raises(InvalidField, match="leaf limit") as err:
        nested_recursion_mc(cs, [400, 300, 200], seed=0)
    assert err.value.field == "samples"  # the rule judges the whole list


def whole_array_nested_mc(cs: CascadeSpec, counts: tuple[int, ...], seed: int) -> tuple[float, float]:
    """Reference: every leaf held at once.

    Levels 1..r-1 are drawn whole in C order from stream(seed, 0); leaf block
    i, ``max(1, LEAF_BLOCK // leaves)`` parents in C order, from an SFC64
    generator keyed (seed, 1, i), drawn as (n, leaves in the block) and
    transposed.  The leaf factor is the square root B V of Delta_r, with V the
    eigenvectors of 1/2 B^T Lambda^{-1} B.
    """
    path, n = cs.path, cs.path.n
    rng = stream(seed, 0)
    parents, leaves = math.prod(counts[:-1]), counts[-1]
    rows = max(1, LEAF_BLOCK // leaves)
    leaf_normals = np.concatenate([
        np.random.Generator(np.random.SFC64(np.random.SeedSequence(seed, spawn_key=(1, i))))
        .standard_normal((n, min(rows, parents - start) * leaves)).T
        for i, start in enumerate(range(0, parents, rows))
    ])
    lam_inv = solve_pd(cs.lam, np.eye(n))
    factors = [_gaussian_factor(cov) for cov in cs.increment_covariances]
    factors[-1] = factors[-1] @ np.linalg.eigh(0.5 * factors[-1].T @ lam_inv @ factors[-1])[1]
    zsum = np.zeros(n)
    for k in range(1, path.r + 1):
        normals = rng.standard_normal(counts[:k] + (n,)) if k < path.r else leaf_normals.reshape(counts + (n,))
        z = normals @ factors[k - 1].T
        zsum = zsum[..., None, :] + z
    w = zsum + cs.h
    quad = np.einsum("...i,ij,...j->...", w, lam_inv, w)
    y = -0.5 * logdet_pd(cs.lam) + 0.5 * quad
    for k in range(path.r - 1, 0, -1):
        x_k = path.xs[k + 1]
        y = (logsumexp(x_k * y, axis=-1) - np.log(counts[k])) / x_k
    x0 = path.xs[1]
    wts = np.exp(x0 * y - np.max(x0 * y))
    estimate = (np.max(x0 * y) + np.log(np.mean(wts))) / x0
    stderr = np.std(wts, ddof=1) / np.sqrt(counts[0]) / (x0 * np.mean(wts))
    return float(estimate), float(stderr)


# No leaf count divides LEAF_BLOCK, and for r >= 2 the last block of parents
# is ragged; (7, 70001) has leaf groups larger than one block.
PARITY_COUNTS = [(70001,), (257, 311), (7, 70001), (13, 90, 397)]


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("counts", PARITY_COUNTS)
def test_nested_mc_matches_whole_array_reference(rng, n, counts):
    rows = max(1, LEAF_BLOCK // counts[-1])
    assert LEAF_BLOCK % counts[-1] != 0
    assert rows == 1 or int(np.prod(counts[:-1])) % rows != 0
    q = random_constraint(rng, n)
    path = random_path(rng, q.matrix, len(counts))
    spec = random_mixture(rng, n, scale=0.4)
    lam = random_multiplier(rng, path, spec, margin=0.6)
    h = np.zeros(n) if n == 1 else rng.uniform(-0.3, 0.3, size=n)
    cs = CascadeSpec(path=path, spec=spec, lam=lam, h=h)
    res = nested_recursion_mc(cs, counts, seed=29)
    estimate, stderr = whole_array_nested_mc(cs, counts, seed=29)
    assert res.estimate == pytest.approx(estimate, rel=1e-12)
    assert res.stderr == pytest.approx(stderr, rel=1e-12)


# pure p = 2 with Q - Q_1 = 0.3 * 11^T makes Delta_2 rank one: the leaf factor
# has a zero column, and the leaf quadratic form and linear term share its
# null direction
SINGULAR_Q = np.array([[1.0, 0.5], [0.5, 1.0]])
SINGULAR_LEAF = CascadeSpec(
    path=DiscretePath(xs=[0.0, 0.4, 0.8, 1.0], qs=[np.zeros((2, 2)), SINGULAR_Q - 0.3, SINGULAR_Q]),
    spec=MixtureSpec(2, {2: [0.5, 0.4]}),
    lam=np.array([[2.0, 0.3], [0.3, 2.0]]),
    h=np.array([0.1, -0.2]),
)


@pytest.mark.parametrize("counts", [(257, 311), (7, 70001)])
def test_nested_mc_matches_whole_array_reference_on_a_singular_leaf_increment(counts):
    cs = SINGULAR_LEAF
    eigs = np.linalg.eigvalsh(cs.increment_covariances[-1])
    assert abs(eigs[0]) <= 1e-12 * eigs[1]
    res = nested_recursion_mc(cs, counts, seed=29)
    estimate, stderr = whole_array_nested_mc(cs, counts, seed=29)
    assert res.estimate == pytest.approx(estimate, rel=1e-12)
    assert res.stderr == pytest.approx(stderr, rel=1e-12)


def test_nested_mc_leaf_memory_is_bounded(rng):
    # 3M leaves at n=2: the whole-array algorithm peaks at about 340 MB of
    # numpy buffers; streaming the leaf level keeps a few LEAF_BLOCK arrays
    q = random_constraint(rng, 2)
    path = random_path(rng, q.matrix, 2)
    spec = random_mixture(rng, 2, scale=0.4)
    lam = random_multiplier(rng, path, spec, margin=0.6)
    cs = CascadeSpec(path=path, spec=spec, lam=lam, h=np.array([0.1, -0.2]))
    tracemalloc.start()
    try:
        res = nested_recursion_mc(cs, [1000, 3000], seed=5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.isfinite(res.estimate)
    assert peak < 16e6


def test_nested_mc_reproducible_bit_exact():
    spec = MixtureSpec(1, {2: [0.4]})
    path = scalar_path(0.7)
    lam = np.array([[1.5]])
    cs = CascadeSpec(path=path, spec=spec, lam=lam, h=np.zeros(1))
    a = nested_recursion_mc(cs, [5000], seed=123)
    b = nested_recursion_mc(cs, [5000], seed=123)
    assert a.estimate == b.estimate and a.stderr == b.stderr



# the model of the benchmark's cascade-check (perfbench/workloads.py)
WORKLOAD_Q = np.array([[1.0, 0.5], [0.5, 1.0]])
WORKLOAD_SPEC = MixtureSpec(2, {2: [0.5, 0.4], 4: [0.2, 0.15]})


def workload_cascade(xs, q_scales) -> CascadeSpec:
    path = DiscretePath(xs=xs, qs=[scale * WORKLOAD_Q for scale in q_scales])
    lam = np.array([[2.0, 0.3], [0.3, 2.0]])
    return CascadeSpec(path=path, spec=WORKLOAD_SPEC, lam=lam, h=np.array([0.1, -0.2]))


WORKLOAD_R2 = workload_cascade([0.0, 0.3, 0.7, 1.0], [0.0, 0.5, 1.0])
WORKLOAD_R3 = workload_cascade([0.0, 0.3, 0.6, 0.8, 1.0], [0.0, 0.3, 0.6, 1.0])


@pytest.mark.parametrize(
    "cs, counts, recorded",
    [
        (WORKLOAD_R2, [40, 3000], ("-0x1.ab7ccfce02134p-2", "0x1.dc43d654d8273p-7")),
        (WORKLOAD_R3, [5, 7, 3000], ("-0x1.8e275e28b506dp-2", "0x1.f839a68b78c18p-6")),
    ],
    ids=["workload-r2", "r3-short-last-block"],
)
def test_nested_mc_reproduces_the_recorded_bits(cs, counts, recorded):
    # float.hex recorded when leaf block i was first drawn from an SFC64
    # generator keyed (seed, 1, i) into an (n, leaves) buffer and reduced in
    # the diagonal leaf form: the stream key, the bit generator, the block
    # layout and the leaf arithmetic must stay exactly as they were.  Both
    # budgets have 21 parent rows per leaf block and a short last block (19
    # and 14 rows).
    rows = LEAF_BLOCK // counts[-1]
    assert rows == 21 and math.prod(counts[:-1]) % rows in (19, 14)
    res = nested_recursion_mc(cs, counts, seed=1)
    assert (res.estimate.hex(), res.stderr.hex()) == recorded


def random_leaf_cascade(rng, n: int) -> CascadeSpec:
    q = random_constraint(rng, n)
    path = random_path(rng, q.matrix, 2)
    spec = random_mixture(rng, n, scale=0.4)
    return CascadeSpec(path=path, spec=spec, lam=random_multiplier(rng, path, spec, margin=0.6), h=np.zeros(n))


@pytest.mark.parametrize("case", ["n=1", "n=2", "n=3", "singular"])
def test_diagonal_leaf_form_is_a_square_root_with_a_diagonal_quadratic_form(rng, case):
    # B' B'^T = Delta_r keeps the law of the leaf increment, and a diagonal
    # 1/2 B'^T L^{-1} B' leaves no cross terms in the leaf value
    for _ in range(1 if case == "singular" else 5):
        cs = SINGULAR_LEAF if case == "singular" else random_leaf_cascade(rng, int(case[-1]))
        cov = cs.increment_covariances[-1]
        lam_inv = solve_pd(cs.lam, np.eye(cs.path.n))
        leaf, m = cascade._diagonal_leaf_form(cov, lam_inv)
        scale = np.max(np.abs(cov))
        np.testing.assert_allclose(leaf @ leaf.T, cov, rtol=0, atol=1e-12 * scale)
        quad = 0.5 * leaf.T @ lam_inv @ leaf
        np.testing.assert_allclose(quad, np.diag(m), rtol=0, atol=1e-12 * np.max(np.abs(m)))
        if case == "singular":
            assert np.min(np.abs(m)) <= 1e-12 * np.max(np.abs(m))


@pytest.mark.parametrize(
    "cs, counts",
    [(WORKLOAD_R2, [40, 3000]), (WORKLOAD_R3, [5, 7, 3000]), (SINGULAR_LEAF, [7, 70001])],
    ids=["workload-r2", "r3-short-last-block", "groups-above-one-block"],
)
def test_leaf_blocks_draw_their_own_sfc64_streams(monkeypatch, cs, counts):
    # block i's normals are the first draws of SFC64 keyed (seed, 1, i), as an
    # (n, leaves in the block) array, and no two blocks share a normal
    drawn = {}
    leaf_stream = cascade._leaf_stream

    class Recorder:
        def __init__(self, seed, block):
            self.generator, self.block = leaf_stream(seed, block), block

        def standard_normal(self, out):
            self.generator.standard_normal(out=out)
            assert self.block not in drawn
            drawn[self.block] = out.copy()

    monkeypatch.setattr(cascade, "_leaf_stream", Recorder)
    nested_recursion_mc(cs, counts, seed=7)
    parents, leaves, n = math.prod(counts[:-1]), counts[-1], cs.path.n
    rows = max(1, LEAF_BLOCK // leaves)
    starts = range(0, parents, rows)
    assert sorted(drawn) == list(range(len(starts)))
    for i, start in enumerate(starts):
        shape = (n, min(rows, parents - start) * leaves)
        expected = np.random.Generator(np.random.SFC64(np.random.SeedSequence(7, spawn_key=(1, i))))
        assert np.array_equal(drawn[i].reshape(shape), expected.standard_normal(shape))
    every = np.concatenate([normals.reshape(-1) for normals in drawn.values()])
    assert np.unique(every).size == every.size


class OneThreadPool:
    """Stand-in for ThreadPoolExecutor that runs the helper's share on the calling thread.

    ``at_submit`` runs it inside ``submit``, before the calling thread's own
    share; otherwise it runs when its result is read, after that share.
    """

    def __init__(self, at_submit: bool):
        self.at_submit = at_submit

    def __call__(self, max_workers: int):
        assert max_workers == 1
        return self

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def submit(self, fn, *args):
        if self.at_submit:
            fn(*args)
            return SimpleNamespace(result=lambda: None)
        return SimpleNamespace(result=lambda: fn(*args))


@pytest.mark.parametrize(
    "cs, counts",
    [(WORKLOAD_R2, [40, 3000]), (WORKLOAD_R3, [5, 7, 3000]), (WORKLOAD_R2, [100, 3000])],
    ids=["workload-r2", "r3-short-last-block", "five-blocks"],
)
def test_nested_mc_bits_do_not_depend_on_block_order_or_thread(monkeypatch, cs, counts):
    # every leaf block is a function of (seed, block index) alone.  With the
    # helper's share run first on the calling thread, the two-block budgets
    # reduce block 1 before block 0 (reverse order) and five blocks go 1, 3,
    # 0, 2, 4; run last, every block is reduced in C order on the calling
    # thread.  The threaded run also switches threads as often as it can.
    def bits(res):
        return res.estimate.hex(), res.stderr.hex()

    expected = bits(nested_recursion_mc(cs, counts, seed=1))
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        assert bits(nested_recursion_mc(cs, counts, seed=1)) == expected
    finally:
        sys.setswitchinterval(interval)
    for at_submit in (True, False):
        with monkeypatch.context() as patch:
            patch.setattr(concurrent.futures, "ThreadPoolExecutor", OneThreadPool(at_submit))
            assert bits(nested_recursion_mc(cs, counts, seed=1)) == expected


def test_nested_mc_joins_its_helper_thread(monkeypatch):
    # cli.run may fork a worker pool after a cascade-check, and a fork taken
    # while another thread runs can deadlock, so no thread may outlive the
    # call, also when a leaf block raises on either thread
    before = threading.active_count()
    caller = threading.get_ident()
    reduce = cascade.log_mean_exp
    reducers = []

    def record(values, x):
        # a leaf block is a 2-d (parents, leaves) array, the outermost level 1-d
        reducers.append((threading.get_ident(), values.ndim))
        return reduce(values, x)

    monkeypatch.setattr(cascade, "log_mean_exp", record)
    nested_recursion_mc(WORKLOAD_R2, [40, 3000], seed=1)
    assert threading.active_count() == before
    # the two leaf blocks were reduced on two threads, one of them the
    # caller, and the outermost level on the caller after both
    leaf_threads = [thread for thread, ndim in reducers if ndim == 2]
    assert len(leaf_threads) == 2 and caller in leaf_threads and len(set(leaf_threads)) == 2
    assert reducers[-1] == (caller, 1) and len(reducers) == 3

    for on_caller in (True, False):
        failure = RuntimeError("leaf reduction failed")

        def fail_on_one_thread(values, x):
            if values.ndim == 2 and (threading.get_ident() == caller) == on_caller:
                raise failure
            return reduce(values, x)

        monkeypatch.setattr(cascade, "log_mean_exp", fail_on_one_thread)
        with pytest.raises(RuntimeError) as err:
            nested_recursion_mc(WORKLOAD_R2, [40, 3000], seed=1)
        assert err.value is failure
        assert threading.active_count() == before


def test_nested_mc_budget_validation(rng):
    q = random_constraint(rng, 2)
    path = random_path(rng, q.matrix, 2)
    spec = random_mixture(rng, 2)
    lam = random_multiplier(rng, path, spec)
    cs = CascadeSpec(path=path, spec=spec, lam=lam, h=np.zeros(2))
    with pytest.raises(InvalidField, match="one sample count per level") as err:
        nested_recursion_mc(cs, [100], seed=0)
    assert err.value.field == "samples"
    with pytest.raises(ValueError, match=r"samples\[0\] must be at least 1"):
        nested_recursion_mc(cs, [0, 10], seed=0)
    # a count is a Python or numpy int, never truncated from a float, a bool
    # or a string; the error names the entry
    for bad, index in (
        ([10, 100.7], 1),
        ([np.float64(50.2), 10], 0),
        ([10, True], 1),
        ([np.bool_(True), 10], 0),
        (["10", 10], 0),
    ):
        with pytest.raises(ValueError, match=rf"samples\[{index}\] must be an integer"):
            nested_recursion_mc(cs, bad, seed=0)
    ints = nested_recursion_mc(cs, [np.int64(20), 30], seed=0)
    assert ints.samples_per_level == (20, 30)
    assert type(ints.samples_per_level[0]) is int


BAD_BREAKPOINTS = (
    [0.0, 0.7, 0.3, 1.0],  # decreasing
    [0.0, 0.5, 0.5, 1.0],  # repeated
    [0.1, 0.4, 0.8, 1.0],  # x_{-1} != 0
    [0.0, 0.4, 0.8, 0.9],  # x_r != 1
)


@pytest.mark.parametrize("xs", BAD_BREAKPOINTS)
def test_closed_forms_and_oracles_share_the_breakpoint_rule(xs):
    # theta_term, closed_form_Y0, CascadeSpec (hence nested_recursion_mc)
    # and theta_cascade_value all reject a path unless
    # 0 = x_{-1} < x_0 < ... < x_r = 1, naming the broken breakpoint invariant
    spec = MixtureSpec(1, {2: [0.5]})
    path = DiscretePath(xs=xs, qs=[[[0.0]], [[0.5]], [[1.0]]])
    lam = np.array([[3.0]])
    broken = "^path violates invariant 'x_(start_zero|end_one|strictly_increasing)'"
    with pytest.raises(InvalidPath, match=broken):
        theta_term(path, spec)
    with pytest.raises(InvalidPath, match=broken):
        closed_form_Y0(lam, path, np.zeros(1), spec)
    with pytest.raises(ValueError, match=broken):
        CascadeSpec(path=path, spec=spec, lam=lam, h=np.zeros(1))
    with pytest.raises(ValueError, match=broken):
        theta_cascade_value(path, spec)


def test_theta_cascade_zero_mixture(rng):
    q = random_constraint(rng, 2)
    path = random_path(rng, q.matrix, 2)
    assert theta_cascade_value(path, MixtureSpec.zero(2)) == 0.0


def test_theta_cascade_single_increment():
    beta = 0.7
    spec = MixtureSpec(1, {2: [beta]})
    for x0 in (0.3, 0.9):
        assert theta_cascade_value(scalar_path(x0), spec) == pytest.approx(
            0.5 * x0 * beta**2, rel=1e-14
        )


def test_theta_cascade_takes_every_path_check_path_takes():
    # Q_2 = Q_1 - 5e-11 is monotone up to check_path's rounding allowance;
    # at this mixture the tree covariance then falls by about 4.5e-8, and
    # the oracle sums that increment as theta_term does
    spec = MixtureSpec(1, {2: [8.0], 4: [8.0]})
    path = DiscretePath(xs=[0.0, 0.4, 0.8, 1.0], qs=[[[0.0]], [[1.0]], [[1.0 - 5e-11]]])
    covariances = cascade._tree_covariances(path, spec)
    assert covariances[2] < covariances[1]
    assert theta_cascade_value(path, spec) == pytest.approx(theta_term(path, spec), rel=1e-13)


def test_nested_mc_caps_name_their_field_before_any_draw(monkeypatch):
    # r and n above the caps raise InvalidField (a ValueError) naming "path"
    # and "n", before any normal is drawn
    def no_draw(*args):
        raise AssertionError("drew before refusing the path")

    monkeypatch.setattr(cascade, "stream", no_draw)
    monkeypatch.setattr(cascade, "_leaf_stream", no_draw)
    deep = workload_cascade([0.0, 0.2, 0.4, 0.6, 0.8, 1.0], [0.0, 0.2, 0.4, 0.6, 1.0])
    assert deep.path.r == 4
    with pytest.raises(InvalidField, match="r <= 3") as err:
        nested_recursion_mc(deep, [2, 2, 2, 2], seed=0)
    assert err.value.field == "path"
    wide = CascadeSpec(
        path=DiscretePath.simple(np.eye(4), 0.5), spec=MixtureSpec(4, {2: [0.3] * 4}), lam=3.0 * np.eye(4), h=np.zeros(4)
    )
    with pytest.raises(InvalidField, match="n <= 3") as err:
        nested_recursion_mc(wide, [2], seed=0)
    assert err.value.field == "n"


def test_theta_cascade_equals_theta_term(rng):
    for _ in range(10):
        n = int(rng.integers(1, 4))
        q = random_constraint(rng, n)
        path = random_path(rng, q.matrix, int(rng.integers(1, 4)))
        spec = random_mixture(rng, n)
        tt = theta_term(path, spec)
        tc = theta_cascade_value(path, spec)
        assert tc == pytest.approx(tt, rel=1e-13, abs=1e-15)


def test_finite_cascade_weights_normalized_and_deterministic():
    path = scalar_path(0.5)
    a = finite_cascade_weights(path, 500, seed=3)
    b = finite_cascade_weights(path, 500, seed=3)
    assert np.array_equal(a, b)
    assert a.sum() == pytest.approx(1.0, abs=1e-15)
    assert np.all(a > 0)


def test_finite_cascade_second_moment_identity():
    # Poisson-Dirichlet: E sum v^2 = 1 - x_0
    path = scalar_path(0.5)
    second = [
        float(np.sum(finite_cascade_weights(path, 10_000, seed=1000 + rep) ** 2))
        for rep in range(200)
    ]
    assert np.mean(second) == pytest.approx(0.5, abs=0.02)


def test_finite_cascade_two_levels_structure():
    path = DiscretePath(xs=[0.0, 0.3, 0.7, 1.0], qs=[[[0.0]], [[0.5]], [[1.0]]])
    weights = finite_cascade_weights(path, 120, seed=5)
    assert weights.size == 120**2
    assert weights.sum() == pytest.approx(1.0, abs=1e-14)


def test_weighted_logsumexp_shift_correctness(rng):
    # log sum w exp(v) as the log-mean-exp of log w + v, and a shift of every
    # entry comes back out exactly as far as the rounding of the entries allows
    logw = np.log(rng.dirichlet(np.ones(1000)))
    values = rng.standard_normal(1000)
    base = parallel.log_mean_exp(logw + values, 1.0)
    for shift in (1e3, 1e6):
        weights = logw + (values + shift)
        shifted = parallel.log_mean_exp(weights, 1.0)
        assert shifted - shift == pytest.approx(base, abs=1e-12 * max(1.0, shift / 1e3))
        assert np.max(weights) == 1.0


def plain_log_mean_exp(values) -> float:
    """log mean exp over a list of floats, with the math module and a max shift."""
    top = max(values)
    return top + math.log(math.fsum(math.exp(v - top) for v in values) / len(values))


@pytest.mark.parametrize("center", [0.0, 700.0, -700.0])
def test_logsumexp_matches_plain_float_reference(rng, center):
    # entries up to about 720: exp of one of them alone overflows a float.
    # parallel.log_mean_exp reduces the last axis in place and leaves the
    # weights exp(v - max), whose largest entry per row is exactly 1
    for size in (1, 2, 7, 1000):
        values = center + 5.0 * rng.standard_normal(size)
        ref = plain_log_mean_exp(values.tolist())
        weights = values.copy()
        assert parallel.log_mean_exp(weights, 1.0) == pytest.approx(ref, rel=1e-15, abs=1e-15)
        assert np.max(weights) == 1.0
        rows = values.reshape(1, size).repeat(3, axis=0) + np.arange(3.0)[:, None]
        weights = rows.copy()
        # the rows hold x times the terms, and the result is divided by x
        got = parallel.log_mean_exp(weights, 0.5)
        assert got.shape == (3,)
        assert np.array_equal(np.max(weights, axis=-1), np.ones(3))
        for i in range(3):
            assert got[i] == pytest.approx(plain_log_mean_exp(rows[i].tolist()) / 0.5, rel=1e-15, abs=1e-15)
    # one sample: log mean exp(v) = v exactly
    one = center + 0.25
    assert parallel.log_mean_exp(np.array([one]), 1.0) == one
    assert np.array_equal(parallel.log_mean_exp(np.array([[one], [-one]]), 1.0), [one, -one])


@pytest.mark.parametrize("size", [2, 7, 1000])
def test_standard_error_is_the_sample_std_over_root_n(rng, size):
    values = 3.0 + rng.standard_normal(size)
    expected = np.std(values, ddof=1) / np.sqrt(values.size)
    assert parallel.standard_error(values).hex() == float(expected).hex()
    assert parallel.standard_error(values.tolist()).hex() == float(expected).hex()
    # one value has no spread to estimate: the error of its mean is unbounded
    assert parallel.standard_error(values[:1]) == math.inf


def test_cascade_free_energy_zero_mixture():
    path = scalar_path(0.5)
    estimate, stderr = cascade_free_energy_sim(path, MixtureSpec.zero(1), 200, m_effective=8.0, reps=100, seed=3)
    assert estimate == pytest.approx(0.0, abs=1e-15)
    assert stderr == pytest.approx(0.0, abs=1e-15)


def test_cascade_free_energy_near_rs_smoke():
    beta = 0.3
    spec = MixtureSpec(1, {2: [beta]})
    path = DiscretePath(xs=[0.0, 1.0 - 1e-6, 1.0], qs=[[[0.0]], [[1.0]]])
    target = theta_cascade_value(path, spec)
    estimate, _ = cascade_free_energy_sim(path, spec, 4000, m_effective=16.0, reps=120, seed=21)
    assert abs(estimate - target) <= 0.15 * target


def test_cascade_free_energy_truncation_stability():
    # doubling K moves the estimate by less than its standard error
    beta = 0.3
    spec = MixtureSpec(1, {2: [beta]})
    path = DiscretePath(xs=[0.0, 1.0 - 1e-6, 1.0], qs=[[[0.0]], [[1.0]]])
    small, small_err = cascade_free_energy_sim(path, spec, 5000, 16.0, 300, seed=41)
    large, large_err = cascade_free_energy_sim(path, spec, 10000, 16.0, 300, seed=41)
    assert abs(large - small) <= max(small_err, large_err)


TWO_LEVELS = DiscretePath(xs=[0.0, 0.3, 0.7, 1.0], qs=[[[0.0]], [[0.5]], [[1.0]]])


@pytest.mark.parametrize(
    "path, beta, args, recorded",
    [
        (TWO_LEVELS, 0.5, (100, 8.0, 100, 3), ("0x1.88d9cb5c2b2bap-4", "0x1.5ba0184dfe630p-7")),
        (TWO_LEVELS, 0.5, (200, 16.0, 100, 3), ("0x1.85fe6ea2cf32ep-4", "0x1.cb04d14003523p-8")),
        (scalar_path(0.6), 0.3, (300, 8.0, 120, 9), ("0x1.486e11fa604dep-6", "0x1.753e27517a942p-8")),
    ],
    ids=["two-levels-100", "two-levels-200", "one-level-300"],
)
def test_cascade_free_energy_sim_reproduces_the_recorded_values(path, beta, args, recorded):
    # the float.hex recorded from the library simulation this judge replaced,
    # cascade_free_energy_mc(K, cspec, M, reps, seed=seed): the judge draws
    # the same streams in the same order
    K, m_effective, reps, seed = args
    estimate, stderr = cascade_free_energy_sim(path, MixtureSpec(1, {2: [beta]}), K, m_effective, reps, seed=seed)
    assert (estimate.hex(), stderr.hex()) == recorded


@pytest.mark.parametrize(
    "path, K, seed, recorded",
    [
        (scalar_path(0.5), 500, 3, "8c548c3802a9fcdca58cfa8009b48aade8ca297a1cfc59ff473232b0fd2ba63d"),
        (TWO_LEVELS, 120, 5, "182f76aebba172e6b4f003740b0d128dba9a49864fd2842b7616ec8f71199360"),
    ],
    ids=["one-level-500", "two-levels-120"],
)
def test_finite_cascade_weights_reproduce_the_recorded_draws(path, K, seed, recorded):
    # the sha256 of the weights the library's sample_finite_cascade drew
    weights = finite_cascade_weights(path, K, seed=seed)
    assert hashlib.sha256(np.ascontiguousarray(weights).tobytes()).hexdigest() == recorded
