"""Call tracing for the benchmark's traced runs.

A ``Tracer`` rebinds, for the length of one traced repetition, every public
function of the measured ``sphglass`` modules (the names in each module's
``__all__``, plus the public methods, ``__init__`` and ``__post_init__`` of
the classes listed there) and the ``numpy.linalg`` entry points.  Each
rebinding is replaced in every ``sphglass`` module that imported the name,
so calls through ``from x import f`` are traced too.  No file under ``src/``
changes.

Every call records a span: name, parent span, start, end.  Self time is a
span's duration minus the durations of its direct children, accumulated as
the calls return.  Spans stay in memory; the benchmark writes them out once,
when the run ends.
"""

from __future__ import annotations

import functools
import inspect
import math
import sys
import time
from array import array

import numpy as np
import scipy.optimize

# The verify module is not measured: no workload runs it.
MEASURED_MODULES = (
    "cascade",
    "cli",
    "functional",
    "geometry",
    "mixture",
    "montecarlo",
    "optimizer",
    "parallel",
    "reporting",
)
NUMPY_LINALG = (
    "cholesky", "det", "eig", "eigh", "eigvalsh", "inv", "lstsq", "norm", "qr", "slogdet", "solve", "svd",
)
CONSTRUCTORS = ("__init__", "__post_init__")

# Counters read from a traced call's result, keyed by the traced name.
COUNTED = {
    # Nelder-Mead's function evaluations are the outer objective calls
    "optimizer.scipy_minimize": ("optimizer.objective_calls", lambda result: result.nfev),
    "cascade.nested_recursion_mc": (
        "cascade.leaves",
        lambda result: math.prod(result.samples_per_level),
    ),
}


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.calls: list[int] = []
        self.total: list[float] = []  # inclusive seconds per name
        self.self_time: list[float] = []
        self.failed: list[int] = []  # calls that raised
        self.counters: dict[str, float] = {key: 0.0 for key, _ in COUNTED.values()}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self._stack: list[list] = []  # [span index, seconds covered by children]
        self._undo: list[tuple[object, str, object]] = []

    # ---------------------------------------------------------------- wrapping

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
            self.calls.append(0)
            self.total.append(0.0)
            self.self_time.append(0.0)
            self.failed.append(0)
        return self._ids[name]

    def wrap(self, name: str, fn):
        nid = self._name_id(name)
        calls, total, self_time, failed = self.calls, self.total, self.self_time, self.failed
        stack = self._stack
        s_name, s_parent, s_start, s_end = self.span_name, self.span_parent, self.span_start, self.span_end
        counter = COUNTED.get(name)
        counters = self.counters
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = [len(s_start), 0.0]
            s_name.append(nid)
            s_parent.append(stack[-1][0] if stack else -1)
            s_end.append(0.0)
            stack.append(frame)
            start = clock()
            s_start.append(start)
            ok = False
            try:
                result = fn(*args, **kwargs)
                ok = True
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                s_end[frame[0]] = end
                calls[nid] += 1
                total[nid] += duration
                self_time[nid] += duration - frame[1]
                if stack:
                    stack[-1][1] += duration
                if not ok:
                    failed[nid] += 1
            if counter is not None:
                counters[counter[0]] += counter[1](result)
            return result

        return traced

    def _set(self, owner, attr: str, value) -> None:
        # vars(), not getattr(): a classmethod read through its class comes
        # back bound, and restoring that would drop the descriptor
        self._undo.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def _rebind_everywhere(self, original, wrapper, modules) -> None:
        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._set(module, attr, wrapper)

    def _wrap_class(self, layer: str, cls) -> None:
        for attr, raw in list(vars(cls).items()):
            if attr.startswith("_") and attr not in CONSTRUCTORS:
                continue
            name = f"{layer}.{cls.__name__}.{attr}"
            if isinstance(raw, (staticmethod, classmethod)):
                self._set(cls, attr, type(raw)(self.wrap(name, raw.__func__)))
            elif inspect.isfunction(raw):
                self._set(cls, attr, self.wrap(name, raw))

    def install(self) -> None:
        """Rebind the measured functions; ``uninstall`` puts them back."""
        modules = [m for key, m in sys.modules.items() if key == "sphglass" or key.startswith("sphglass.")]
        for short in MEASURED_MODULES:
            module = sys.modules[f"sphglass.{short}"]
            for public in module.__all__:
                obj = getattr(module, public)
                if getattr(obj, "__module__", None) != module.__name__:
                    continue
                if inspect.isfunction(obj):
                    self._rebind_everywhere(obj, self.wrap(f"{short}.{public}", obj), modules)
                elif inspect.isclass(obj):
                    self._wrap_class(short, obj)
        optimizer = sys.modules["sphglass.optimizer"]
        self._rebind_everywhere(
            scipy.optimize.minimize,
            self.wrap("optimizer.scipy_minimize", scipy.optimize.minimize),
            [optimizer],
        )
        for fn_name in NUMPY_LINALG:
            self._set(np.linalg, fn_name, self.wrap(f"numpy.{fn_name}", getattr(np.linalg, fn_name)))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    # ----------------------------------------------------------------- results

    def _by_name(self, table: list, name: str):
        nid = self._ids.get(name)
        return 0 if nid is None else table[nid]

    def _by_layer(self, table: list, layer: str):
        return sum(v for n, v in zip(self.names, table) if n.split(".", 1)[0] == layer)

    def layer_metrics(self) -> dict[str, float]:
        """The per-layer metrics of one traced repetition."""
        m: dict[str, float] = {}
        for layer in ("optimizer", "functional", "mixture", "geometry", "cascade", "cli", "numpy"):
            m[f"{layer}.self_s"] = self._by_layer(self.self_time, layer)
        for layer in ("functional", "mixture", "geometry"):
            m[f"{layer}.calls"] = self._by_layer(self.calls, layer)
        objective_calls = self.counters["optimizer.objective_calls"]
        m["optimizer.objective_calls"] = objective_calls
        search_s = self._by_name(self.total, "optimizer.minimize_over_paths")
        m["optimizer.us_per_objective_call"] = 1e6 * search_s / objective_calls if objective_calls else 0.0
        for fn_name in ("cholesky", "solve", "eigvalsh"):
            m[f"numpy.{fn_name}_calls"] = self._by_name(self.calls, f"numpy.{fn_name}")
        m["numpy.cholesky_failed"] = self._by_name(self.failed, "numpy.cholesky")
        for fn_name in ("hamiltonian_batch", "sample_constrained", "draw_disorder"):
            m[f"montecarlo.{fn_name}_s"] = self._by_name(self.total, f"montecarlo.{fn_name}")
        m["montecarlo.replicates"] = self._by_name(self.calls, "montecarlo.draw_disorder")
        m["cascade.nested_recursion_mc_s"] = self._by_name(self.total, "cascade.nested_recursion_mc")
        m["cascade.leaves"] = self.counters["cascade.leaves"]
        m["reporting.render_s"] = self._by_name(self.total, "reporting.render_report")
        m["spans"] = len(self.span_start)
        return m

    def span_arrays(self) -> dict[str, np.ndarray]:
        return {
            "name_id": np.frombuffer(self.span_name, dtype=np.int32),
            "parent": np.frombuffer(self.span_parent, dtype=np.int32),
            "start": np.frombuffer(self.span_start, dtype=np.float64),
            "end": np.frombuffer(self.span_end, dtype=np.float64),
        }
