"""Acceptance gate: one test per release criterion, each printing a
pass/fail line with its measured error and runtime.

Run with ``pytest tests/test_acceptance.py -v -s``.
"""

import json
import math
import time

import numpy as np
import pytest

from sphglass.cascade import CascadeSpec, nested_recursion_mc, theta_cascade_value
from sphglass.cli import load_config, run
from sphglass.functional import closed_form_Y0, evaluate, theta_term
from sphglass.geometry import ConstraintMatrix, DiscretePath
from sphglass.mixture import MixtureSpec
from sphglass.optimizer import PathSearchConfig, inner_gradient, minimize_over_paths
from sphglass.montecarlo import estimate_free_energy
from sphglass.reporting import to_json
from sphglass import verify as verify_mod

from conftest import (
    cascade_free_energy_sim,
    overlap_window_log_volume,
    random_constraint,
    random_mixture,
    random_multiplier,
    random_path,
    refine_path,
)

SEED = 987654321


def report_line(num: int, name: str, ok: bool, detail: str) -> None:
    print(f"[criterion {num:02d}] {name}: {'PASS' if ok else 'FAIL'} ({detail})")


def test_criterion_01_zero_mixture_closed_form():
    rng = np.random.default_rng(SEED + 1)
    config = PathSearchConfig(max_levels=1, restarts=1, max_iterations=40)
    start = time.perf_counter()
    worst = 0.0
    for i in range(20):
        n = int(rng.integers(1, 5))
        q = random_constraint(rng, n)
        rep = minimize_over_paths(q, np.zeros(n), MixtureSpec.zero(n), config, seed=i)
        target = 0.5 * float(np.linalg.slogdet(q.matrix)[1])
        worst = max(worst, abs(rep.best_value - target))
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-6 and elapsed < 10.0
    report_line(1, "beta=0 gives half log det Q", ok, f"worst err {worst:.2e}, {elapsed:.1f}s")
    assert worst <= 1e-6
    assert elapsed < 10.0


def test_criterion_02_degeneracy_dichotomy():
    start = time.perf_counter()
    rank_deficient = [
        np.array([[1.0, 1.0], [1.0, 1.0]]),
        np.array([[1.0, -1.0], [-1.0, 1.0]]),
        np.ones((3, 3)),
    ]
    spec2 = {2: [0.3, 0.3]}
    config = PathSearchConfig(max_levels=1, restarts=1, max_iterations=40)
    ok = True
    details = []
    for q in rank_deficient:
        n = q.shape[0]
        spec = MixtureSpec(n, {2: [0.3] * n})
        rep = minimize_over_paths(q, np.zeros(n), spec, config, seed=0)
        vals = rep.certificate.objective_values
        good = (
            rep.degenerate
            and rep.best_value == -np.inf
            and vals[0] > vals[1] > vals[2]
            and vals[2] < -100.0
        )
        ok = ok and good
        details.append(f"third={vals[2]:.1f}")
    # the CLI-level contract: exit status 2 with the certificate in the report
    cfg = load_config(
        json.dumps(
            {
                "n": 2,
                "mixture": spec2,
                "Q": [[1.0, 1.0], [1.0, 1.0]],
                "task": "minimize",
                "seed": 3,
                "search": {"max_levels": 1, "restarts": 1, "max_iterations": 40},
            }
        )
    )
    code, report = run(cfg)
    ok = ok and code == 2 and report["body"]["degenerate"] is True
    elapsed = time.perf_counter() - start
    report_line(2, "degenerate Q diverges with certificate", ok and elapsed < 5.0,
                f"{'; '.join(details)}, exit={code}, {elapsed:.1f}s")
    assert ok
    assert elapsed < 5.0


def test_criterion_03_high_temperature_value():
    start = time.perf_counter()
    spec = MixtureSpec(1, {2: [0.3]})
    q = ConstraintMatrix(np.array([[1.0]]))
    config = PathSearchConfig(max_levels=2, restarts=2, max_iterations=200)
    rep = minimize_over_paths(q, np.zeros(1), spec, config, seed=SEED)
    err = abs(rep.best_value - 0.045)
    elapsed = time.perf_counter() - start
    ok = err <= 1e-4 and elapsed < 30.0
    report_line(3, "high-temperature single copy hits beta^2/2", ok,
                f"value {rep.best_value:.6f}, err {err:.2e}, {elapsed:.1f}s")
    assert err <= 1e-4
    assert elapsed < 30.0


def test_criterion_04_low_temperature_gap():
    # The single-copy pure 2-spin model at this coupling is the spherical SK
    # model at beta = 1.  Its replica-symmetric Crisanti-Sommers value at
    # overlap q is 2P(q) = 1 - q^2 + q/(1-q) + log(1-q); q = 0 (the annealed
    # value 0.5) is a local maximum and the stationary point (1-q)^2 = 1/2
    # gives the exact optimum sqrt(2) - 3/4 - log(2)/4 = 0.4909268...
    # (Kosterlitz-Thouless-Jones).  The search must go below the annealed
    # value by exactly that gap, at the exact-value tolerance 2e-6.
    exact_gap = 0.5 - (math.sqrt(2) - 0.75 - math.log(2) / 4)
    start = time.perf_counter()
    spec = MixtureSpec(1, {2: [1.0]})
    q = ConstraintMatrix(np.array([[1.0]]))
    config = PathSearchConfig(max_levels=3, restarts=2, max_iterations=250)
    rep = minimize_over_paths(q, np.zeros(1), spec, config, seed=SEED)
    values = [v for _, v in rep.per_level_values]
    monotone = all(b <= a + 1e-6 for a, b in zip(values[:-1], values[1:]))
    below = rep.best_value < 0.5
    gap = 0.5 - rep.best_value
    gap_err = abs(gap - exact_gap)
    elapsed = time.perf_counter() - start
    ok = monotone and below and gap_err <= 2e-6 and elapsed < 120.0
    report_line(4, f"low-temperature value below annealed by the exact gap {exact_gap:.7f} within 2e-6", ok,
                f"best {rep.best_value:.7f}, gap {gap:.7f}, gap err {gap_err:.2e}, "
                f"levels {[round(v, 6) for v in values]}, {elapsed:.1f}s")
    assert monotone, f"per-level values increased: {values}"
    assert below, f"best value {rep.best_value} not below the annealed 0.5"
    assert elapsed < 120.0
    assert gap_err <= 2e-6, (
        f"gap {gap:.7f} differs from the exact spherical-SK gap {exact_gap:.7f} "
        f"by {gap_err:.2e} > 2e-6"
    )


def test_criterion_05_gaussian_identity():
    start = time.perf_counter()
    closed = verify_mod.identity_suite(SEED, count=100)
    mc = verify_mod.mc_identity_check(SEED, count=10, samples=1_000_000)
    worst = max(c["relative_error"] for c in closed)
    ok = all(c["pass"] for c in closed) and all(c["pass"] for c in mc)
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 60.0
    report_line(5, "Gaussian quadratic identity (closed + MC)", ok,
                f"worst rel {worst:.2e}, mc {sum(c['pass'] for c in mc)}/10, {elapsed:.1f}s")
    assert all(c["pass"] for c in closed)
    assert all(c["pass"] for c in mc)
    assert elapsed < 60.0


def test_criterion_06_recursion_closed_form():
    start = time.perf_counter()
    rng = np.random.default_rng(SEED + 6)
    failures = []
    worst_z = 0.0
    for i in range(20):
        n = int(rng.integers(1, 3))
        r = int(rng.integers(1, 3))
        q = random_constraint(rng, n)
        path = random_path(rng, q.matrix, r)
        spec = random_mixture(rng, n, scale=0.4)
        lam = random_multiplier(rng, path, spec, margin=0.6)
        h = rng.uniform(-0.3, 0.3, size=n)
        cspec = CascadeSpec(path=path, spec=spec, lam=lam, h=h)
        budgets = [1_000_000] if r == 1 else [2000, 2000]
        res = nested_recursion_mc(cspec, budgets, seed=SEED + 100 + i)
        target = closed_form_Y0(lam, path, h, spec)
        z = abs(res.estimate - target) / res.stderr if res.stderr > 0 else 0.0
        worst_z = max(worst_z, z)
        if abs(res.estimate - target) > 3 * res.stderr:
            failures.append((i, z))
    elapsed = time.perf_counter() - start
    ok = not failures and elapsed < 300.0
    report_line(6, "nested MC matches recursion closed form", ok,
                f"20 instances, worst |z| {worst_z:.2f}, {elapsed:.1f}s")
    assert not failures, f"instances beyond 3 stderr: {failures}"
    assert elapsed < 300.0


def test_criterion_07_jacobi_limit():
    start = time.perf_counter()
    checks = verify_mod.jacobi_suite(SEED, count=50)
    worst = max(c["abs_error"] for c in checks)
    elapsed = time.perf_counter() - start
    ok = all(c["pass"] for c in checks) and elapsed < 5.0
    report_line(7, "small-x limit equals trace form", ok, f"worst {worst:.2e}, {elapsed:.1f}s")
    assert all(c["pass"] for c in checks)
    assert elapsed < 5.0


def test_criterion_08_gradient_and_convexity():
    start = time.perf_counter()
    rng = np.random.default_rng(SEED + 8)
    worst_rel = 0.0
    for _ in range(50):
        n = int(rng.integers(1, 5))
        q = random_constraint(rng, n)
        path = random_path(rng, q.matrix, int(rng.integers(1, 4)))
        spec = random_mixture(rng, n)
        h = rng.uniform(-0.4, 0.4, size=n)
        lam = random_multiplier(rng, path, spec, margin=0.6)
        grad = inner_gradient(lam, path, q, h, spec)
        b = rng.standard_normal((n, n))
        b = (b + b.T) / 2.0
        b /= np.linalg.norm(b)
        eps = 1e-6
        fd = (
            evaluate(lam + eps * b, path, q, h, spec).total
            - evaluate(lam - eps * b, path, q, h, spec).total
        ) / (2 * eps)
        analytic = float(np.sum(grad * b))
        worst_rel = max(worst_rel, abs(fd - analytic) / max(1.0, abs(analytic)))
    convex_violation = -np.inf
    for _ in range(100):
        n = int(rng.integers(1, 4))
        q = random_constraint(rng, n)
        path = random_path(rng, q.matrix, int(rng.integers(1, 3)))
        spec = random_mixture(rng, n)
        h = rng.uniform(-0.4, 0.4, size=n)
        lam_a = random_multiplier(rng, path, spec)
        lam_b = random_multiplier(rng, path, spec)
        mid = evaluate(0.5 * (lam_a + lam_b), path, q, h, spec).total
        avg = 0.5 * (
            evaluate(lam_a, path, q, h, spec).total + evaluate(lam_b, path, q, h, spec).total
        )
        convex_violation = max(convex_violation, mid - avg)
    elapsed = time.perf_counter() - start
    ok = worst_rel <= 1e-6 and convex_violation <= 1e-10 and elapsed < 60.0
    report_line(8, "gradient matches differences; objective midpoint-convex", ok,
                f"worst rel {worst_rel:.2e}, convexity slack {convex_violation:.2e}, {elapsed:.1f}s")
    assert worst_rel <= 1e-6
    assert convex_violation <= 1e-10
    assert elapsed < 60.0


def test_criterion_09_refinement_invariance():
    start = time.perf_counter()
    rng = np.random.default_rng(SEED + 9)
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(1, 4))
        q = random_constraint(rng, n)
        path = random_path(rng, q.matrix, int(rng.integers(1, 4)))
        spec = random_mixture(rng, n)
        lam = random_multiplier(rng, path, spec)
        h = rng.uniform(-0.4, 0.4, size=n)
        base = evaluate(lam, path, q, h, spec).total
        k = int(rng.integers(0, path.r + 1))
        mid = float(rng.uniform(path.xs[k] + 1e-6, path.xs[k + 1] - 1e-6))
        refined = evaluate(lam, refine_path(path, k, mid), q, h, spec).total
        worst = max(worst, abs(refined - base) / max(1.0, abs(base)))
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-12 and elapsed < 10.0
    report_line(9, "duplicate-level refinement leaves the value fixed", ok,
                f"worst rel {worst:.2e}, {elapsed:.1f}s")
    assert worst <= 1e-12
    assert elapsed < 10.0


def test_criterion_10_monte_carlo_vs_variational_value():
    start = time.perf_counter()
    # (a) finite-N window quadrature for a coupled pair at q12 = 0.5.  The
    # window must be a few boundary layers wide (the integral is dominated by
    # its inner edge, whose log-density sits 0.656 * eps above the target) yet
    # small enough that the edge shift stays inside the tolerance: at N = 2000
    # that window is roughly eps in [5e-4, 6e-3].
    target = 0.5 * math.log(0.75)
    quad_errors = {
        eps: abs(overlap_window_log_volume(0.5, 2000, eps) - target) for eps in (0.003, 0.005)
    }
    ok_a = all(err <= 2e-3 for err in quad_errors.values())
    # (b) direct estimate vs the variational value for one copy at beta = 0.3
    spec = MixtureSpec(1, {2: [0.3]})
    q1 = ConstraintMatrix(np.array([[1.0]]))
    opt = minimize_over_paths(
        q1, np.zeros(1), spec, PathSearchConfig(max_levels=2, restarts=2, max_iterations=200),
        seed=SEED,
    )
    est = estimate_free_energy(q1, 64, 0.01, spec, np.zeros(1), 200, 4000, seed=SEED)
    est2 = estimate_free_energy(q1, 64, 0.01, spec, np.zeros(1), 400, 8000, seed=SEED + 1)
    gap = abs(est.value - opt.best_value)
    ok_b = gap <= 0.02 + 3 * est.stderr
    drift = abs(est2.value - est.value)
    ok_stable = drift <= 0.01
    elapsed = time.perf_counter() - start
    ok = ok_a and ok_b and ok_stable and elapsed < 600.0
    report_line(10, "direct Monte Carlo corroborates the variational value", ok,
                f"quad errs {quad_errors[0.003]:.1e}/{quad_errors[0.005]:.1e}, "
                f"gap {gap:.4f} vs {0.02 + 3 * est.stderr:.4f}, doubling drift {drift:.4f}, {elapsed:.1f}s")
    assert ok_a, f"window quadrature errors {quad_errors}"
    assert ok_b, f"estimate {est.value} vs optimum {opt.best_value} (stderr {est.stderr})"
    assert ok_stable, f"doubling the budgets moved the estimate by {drift}"
    assert elapsed < 600.0


def test_criterion_11_theta_term_adjudication():
    start = time.perf_counter()
    rng = np.random.default_rng(SEED + 11)
    worst = 0.0
    for _ in range(50):
        n = int(rng.integers(1, 4))
        q = random_constraint(rng, n)
        path = random_path(rng, q.matrix, int(rng.integers(1, 4)))
        spec = random_mixture(rng, n)
        tt = theta_term(path, spec)
        tc = theta_cascade_value(path, spec)
        worst = max(worst, abs(tt - tc) / max(1e-30, abs(tt)))
    exact = worst <= 1e-13
    # the finite cascade simulation approaches the same value near the
    # replica-symmetric corner, pinning the one-half prefactor
    beta = 0.3
    spec = MixtureSpec(1, {2: [beta]})
    path = DiscretePath(xs=[0.0, 1.0 - 1e-6, 1.0], qs=[[[0.0]], [[1.0]]])
    target = theta_cascade_value(path, spec)
    sim, _ = cascade_free_energy_sim(path, spec, 10_000, m_effective=32.0, reps=200, seed=SEED)
    rel = abs(sim - target) / target
    ok_sim = rel <= 0.10
    elapsed = time.perf_counter() - start
    ok = exact and ok_sim and elapsed < 300.0
    report_line(11, "theta-sum prefactor adjudicated by the cascade", ok,
                f"algebraic worst rel {worst:.1e}, simulation rel {rel:.1%}, {elapsed:.1f}s")
    assert exact
    assert ok_sim, f"cascade simulation {sim} vs limit {target} (rel {rel:.2%})"
    assert elapsed < 300.0


def test_criterion_12_reproducibility(tmp_path):
    start = time.perf_counter()
    base = {
        "n": 1,
        "mixture": {"2": [0.3]},
        "Q": [[1.0]],
        "h": [0.0],
        "seed": 31415,
        "search": {"max_levels": 1, "restarts": 1, "max_iterations": 40},
    }
    tasks = {
        "minimize": {},
        "verify-identities": {"budgets": {"identity_instances": 10, "jacobi_instances": 5}},
        "cascade-check": {
            "path": {"xs": [0.0, 0.9, 1.0], "Qs": [[[0.0]], [[1.0]]]},
            "lambda": [[1.18]],
            "budgets": {"samples_per_level": [20000]},
        },
        "mc-estimate": {"budgets": {"N": 16, "epsilon": 0.01, "disorder_reps": 4, "config_samples": 100}},
        "sweep": {"sweep": {"parameter": "beta_scale", "values": [0.5, 1.0]}},
    }
    ok = True
    for task, extra in tasks.items():
        raw = dict(base)
        raw.update(extra)
        raw["task"] = task
        bodies = []
        for _ in range(2):
            code, report = run(load_config(json.dumps(raw)))
            assert code == 0, f"{task} failed with exit {code}"
            bodies.append(to_json(report["body"]).encode())
        same = bodies[0] == bodies[1]
        ok = ok and same
        assert same, f"task {task} produced differing report bodies"
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 60.0
    report_line(12, "stochastic subcommands are byte-reproducible", ok, f"5 tasks x 2 runs, {elapsed:.1f}s")
    assert elapsed < 60.0
