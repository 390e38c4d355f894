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

``logsumexp`` is the max-shift log-sum-exp that the Monte Carlo routines of
``montecarlo`` and ``cascade`` share, in numpy alone.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

__all__ = ["stream", "run_tasks", "logsumexp"]


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


def logsumexp(a, axis: int | None = None):
    """log sum exp(a) over ``axis`` (all entries when None), for finite ``a``.

    Shifted by the max, so exp(a - max) <= 1 never overflows.  Returns a float
    for ``axis=None`` and an array otherwise.
    """
    a = np.asarray(a, dtype=float)
    top = np.max(a, axis=axis, keepdims=True)
    total = np.log(np.sum(np.exp(a - top), axis=axis, keepdims=True)) + top
    return float(total.item()) if axis is None else np.squeeze(total, axis=axis)
