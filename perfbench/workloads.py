"""The benchmark's workloads: a config per seed, a reference, a gate.

Each workload is one JSON config for the public CLI path
(``cli.load_config`` -> ``cli.run`` -> ``reporting.render_report``).  The
seed goes into the config's ``"seed"`` field and is the only thing that
changes between runs of a workload.  Importing this module loads no numpy,
so the set-up probe can build a config before it starts its clock.

Why each workload exists, and which layer metrics it should move, is in
``perfbench/README.md``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

# Kosterlitz-Thouless-Jones value of the spherical SK model at beta = 1:
# sqrt(2) beta - 3/4 - log(sqrt(2) beta) / 2.
SK_EXACT = math.sqrt(2.0) - 0.75 - 0.25 * math.log(2.0)
SK_TOLERANCE = 2e-6  # the tolerance of test_single_copy_exactly_solvable_values

Q_PAIR = [[1.0, 0.5], [0.5, 1.0]]


@dataclass(frozen=True)
class Verdict:
    ok: bool
    value_err: float  # |output - reference|
    detail: str


@dataclass(frozen=True)
class Workload:
    name: str
    config: Callable[[int, bool], dict]
    check: Callable[[dict], Verdict]
    probe: str  # the hostspeed.SpeedProbe kind that resembles the workload's work


def rs_corner(mixture: dict, q: list) -> float:
    """Replica-symmetric corner value (Sum_jj' xi_jj'(Q_jj') + log det Q) / 2.

    Plain floats, independent of the package's kernels.  Q is 2x2.
    """
    xi_sum = 0.0
    for degree, betas in mixture.items():
        p = int(degree)
        for j in range(2):
            for k in range(2):
                xi_sum += betas[j] * betas[k] * q[j][k] ** p
    det = q[0][0] * q[1][1] - q[0][1] * q[1][0]
    return 0.5 * xi_sum + 0.5 * math.log(det)


def _monotone(levels: list) -> bool:
    values = [v for _, v in levels]
    return all(b <= a for a, b in zip(values, values[1:]))


# --------------------------------------------------------------------------
# sk-minimize: n = 1 pure 2-spin, the one model with an exact answer


def _sk_config(seed: int, tiny: bool) -> dict:
    search = {"max_levels": 3, "restarts": 1, "max_iterations": 150, "x_grid_resolution": 0.5}
    if tiny:
        search = {"max_levels": 2, "restarts": 0, "max_iterations": 5, "x_grid_resolution": 0.5}
    return {
        "task": "minimize",
        "n": 1,
        "mixture": {"2": [1.0]},
        "Q": [[1.0]],
        "seed": seed,
        "search": search,
    }


def _sk_check(body: dict) -> Verdict:
    err = body["best_value"] - SK_EXACT
    monotone = _monotone(body["per_level_values"])
    ok = abs(err) <= SK_TOLERANCE and monotone and not body["degenerate"]
    return Verdict(ok, abs(err), f"best_value - exact = {err:.3e}, levels monotone: {monotone}")


# --------------------------------------------------------------------------
# pair-sweep: n = 2 minimize over a q12 sweep, with a p = 4 term


PAIR_MIXTURE = {"2": [0.9, 0.9], "4": [0.4, 0.4]}
PAIR_Q12 = (0.3, 0.7)
# best values of a much larger search (max_levels=3, restarts=3,
# max_iterations=400, seed 1); value_err is the worst row's distance to them
PAIR_REFERENCE = {0.3: 0.9741857746277826, 0.7: 0.9215664133327748}


def _pair_q(q12: float) -> list:
    return [[1.0, q12], [q12, 1.0]]


def _pair_config(seed: int, tiny: bool) -> dict:
    search = {"max_levels": 2, "restarts": 0, "max_iterations": 5 if tiny else 60}
    return {
        "task": "sweep",
        "n": 2,
        "mixture": PAIR_MIXTURE,
        "Q": Q_PAIR,
        "seed": seed,
        "search": search,
        "sweep": {"parameter": "q12", "values": list(PAIR_Q12)},
    }


def _pair_check(body: dict) -> Verdict:
    rows = body["rows"]
    values = [row["value"] for row in rows]
    # the search includes the replica-symmetric corner, so no row may exceed it
    above = [
        row["value"] for row in rows
        if row["degenerate"] or row["best_value"] > rs_corner(PAIR_MIXTURE, _pair_q(row["value"])) + 1e-9
    ]
    err = max(abs(row["best_value"] - PAIR_REFERENCE[row["value"]]) for row in rows)
    ok = values == list(PAIR_Q12) and not above
    return Verdict(ok, err, f"rows {values}, above their RS corner: {above}, worst row - reference = {err:.3e}")


# --------------------------------------------------------------------------
# mc-estimate: the direct Monte Carlo estimator at high temperature


MC_MIXTURE = {"2": [0.3, 0.3], "4": [0.1, 0.1]}


def _mc_config(seed: int, tiny: bool) -> dict:
    budgets = {"N": 32, "epsilon": 0.01, "disorder_reps": 4, "config_samples": 2000}
    if tiny:
        budgets = {"N": 8, "epsilon": 0.01, "disorder_reps": 2, "config_samples": 50}
    return {
        "task": "mc-estimate",
        "n": 2,
        "mixture": MC_MIXTURE,
        "Q": Q_PAIR,
        "seed": seed,
        "budgets": budgets,
    }


def _mc_check(body: dict) -> Verdict:
    err = body["value"] - rs_corner(MC_MIXTURE, Q_PAIR)
    allowed = 0.02 + 3.0 * body["stderr"]  # the rule of acceptance criterion 10
    ok = abs(err) <= allowed
    return Verdict(ok, abs(err), f"estimate - RS corner = {err:.4f}, allowed {allowed:.4f}")


# --------------------------------------------------------------------------
# cascade-check: nested Monte Carlo of the Y-recursion, with a field


def _cascade_config(seed: int, tiny: bool) -> dict:
    samples = [50, 50] if tiny else [3000, 3000]
    return {
        "task": "cascade-check",
        "n": 2,
        "mixture": {"2": [0.5, 0.4], "4": [0.2, 0.15]},
        "Q": Q_PAIR,
        "h": [0.1, -0.2],
        "seed": seed,
        "path": {
            "xs": [0.0, 0.3, 0.7, 1.0],
            "Qs": [[[0.0, 0.0], [0.0, 0.0]], [[0.5, 0.25], [0.25, 0.5]], Q_PAIR],
        },
        "lambda": [[2.0, 0.3], [0.3, 2.0]],
        "budgets": {"samples_per_level": samples},
    }


def _cascade_check(body: dict) -> Verdict:
    gap = body["recursion_abs_gap"]
    detail = (
        f"recursion gap {gap:.3e} vs stderr {body['nested_mc']['stderr']:.3e}, "
        f"theta pass: {body['theta_pass']}"
    )
    return Verdict(bool(body["passed"]), gap, detail)


WORKLOADS = {
    w.name: w
    for w in (
        Workload("sk-minimize", _sk_config, _sk_check, "calls"),
        Workload("pair-sweep", _pair_config, _pair_check, "calls"),
        Workload("mc-estimate", _mc_config, _mc_check, "stream"),
        Workload("cascade-check", _cascade_config, _cascade_check, "mixed"),
    )
}
