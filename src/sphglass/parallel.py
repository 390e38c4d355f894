"""Deterministic seeded task execution.

Every stochastic routine derives one RNG stream per task from
(seed, *task index) and reduces results in task order, so a fixed seed gives
bit-identical output at any worker count.  ``stream`` is a PCG64 generator
seeded by ``SeedSequence(seed, spawn_key=key)``.  The leaf blocks of
``cascade.nested_recursion_mc`` take the same key with the SFC64 bit
generator, which draws their normals faster; every other draw is PCG64.
Workers > 1 fan the tasks out to a process pool; the default is sequential.
``multiprocessing`` is imported inside that branch, so a sequential run never
loads it.

The Monte Carlo routines share two rules, in numpy alone: ``log_mean_exp``,
the max-shift (1/x) log-mean-exp that ``montecarlo`` and every level of
``cascade.nested_recursion_mc`` reduce their samples with, and
``standard_error``, the standard error of a mean that they and ``verify``
report.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

__all__ = ["stream", "run_tasks", "log_mean_exp", "standard_error"]


def stream(seed: int, *key: int) -> np.random.Generator:
    """Independent generator for the task identified by ``key``."""
    return np.random.default_rng(np.random.SeedSequence(int(seed), spawn_key=tuple(key)))


def _call(packed):
    fn, arg = packed
    return fn(arg)


def run_tasks(fn: Callable, args: Sequence, workers: int = 1) -> list:
    """Ordered map of ``fn`` over ``args``; parallel only when workers > 1."""
    if workers <= 1 or len(args) <= 1:
        return [fn(a) for a in args]
    from multiprocessing import get_context

    with get_context("fork").Pool(processes=min(workers, len(args))) as pool:
        return pool.map(_call, [(fn, a) for a in args])


def log_mean_exp(values: np.ndarray, x: float):
    """(1/x) log mean exp(values) over the last axis, overwriting ``values``.

    ``values`` holds x times the terms, finite floats.  The max of each row is
    subtracted in place before the exp, so nothing overflows and no shifted
    copy is allocated; ``values`` is left holding the weights
    exp(values - max), whose largest entry per row is 1.  Returns a 0-d array
    for 1-d ``values`` and an array of the leading shape otherwise.
    """
    top = values.max(axis=-1, keepdims=True)
    values -= top
    np.exp(values, out=values)
    return (top[..., 0] + np.log(values.mean(axis=-1))) / x


def standard_error(values) -> float:
    """std(values, ddof=1) / sqrt(N), the standard error of their mean; inf for N = 1."""
    values = np.asarray(values)
    if values.size == 1:
        return float("inf")
    return float(np.std(values, ddof=1) / np.sqrt(values.size))
