"""Deterministic report rendering.

Reports are {"header": {...}, "body": {...}} with the timestamp isolated in
the header, so the body of any rerun with the same seed and worker count is
byte-identical on the same BLAS thread count.  The header records that count
as the thread variables were set in the environment (``blas_threads``, null
where unset), since a BLAS matrix product's rounding can depend on how many
threads split it.  Floats print with 17 significant digits for bit-faithful
reproduction checks; non-finite floats render as quoted strings to stay
valid JSON.
"""

from __future__ import annotations

import math
import os
import time
from typing import Any

__all__ = ["render_float", "to_json", "to_csv", "make_report", "render_report"]

BLAS_THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def render_float(x: float) -> str:
    if math.isnan(x):
        return '"nan"'
    if math.isinf(x):
        return '"inf"' if x > 0 else '"-inf"'
    return format(float(x), ".17g")


def _escape(s: str) -> str:
    import json

    return json.dumps(s)


def to_json(obj: Any, indent: int = 0) -> str:
    pad = "  " * indent
    if obj is None:
        return "null"
    if obj is True:
        return "true"
    if obj is False:
        return "false"
    if isinstance(obj, str):
        return _escape(obj)
    if isinstance(obj, (int,)) and not isinstance(obj, bool):
        return str(obj)
    if isinstance(obj, float):
        return render_float(obj)
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = []
        for key in sorted(obj):
            items.append(f'{pad}  {_escape(str(key))}: {to_json(obj[key], indent + 1)}')
        return "{\n" + ",\n".join(items) + f"\n{pad}}}"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        items = [f"{pad}  {to_json(v, indent + 1)}" for v in obj]
        return "[\n" + ",\n".join(items) + f"\n{pad}]"
    # numpy scalars and arrays
    if hasattr(obj, "tolist"):
        return to_json(obj.tolist(), indent)
    raise TypeError(f"cannot render {type(obj)!r}")


def _flatten(prefix: str, obj: Any, rows: list) -> None:
    if isinstance(obj, dict):
        for key in sorted(obj):
            _flatten(f"{prefix}.{key}" if prefix else str(key), obj[key], rows)
    elif isinstance(obj, (list, tuple)):
        for i, v in enumerate(obj):
            _flatten(f"{prefix}[{i}]", v, rows)
    else:
        if isinstance(obj, float):
            value = render_float(obj).strip('"')
        elif obj is None:
            value = ""
        else:
            value = str(obj)
        rows.append((prefix, value))


def to_csv(body: Any, columns: list[str] | None = None) -> str:
    """Flat key,value CSV; tabular bodies (list of dicts) get real columns."""
    if columns and isinstance(body, list):
        lines = [",".join(columns)]
        for row in body:
            cells = []
            for col in columns:
                v = row.get(col, "")
                cells.append(render_float(v).strip('"') if isinstance(v, float) else str(v))
            lines.append(",".join(cells))
        return "\n".join(lines) + "\n"
    rows: list[tuple[str, str]] = []
    _flatten("", body, rows)
    return "key,value\n" + "\n".join(f"{k},{v}" for k, v in rows) + "\n"


def make_report(task: str, seed: int | None, workers: int, body: dict) -> dict:
    return {
        "header": {
            "task": task,
            "seed": seed,
            "workers": workers,
            "blas_threads": {name: os.environ.get(name) for name in BLAS_THREAD_VARIABLES},
            "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S", time.gmtime()),
        },
        "body": body,
    }


def render_report(report: dict, fmt: str = "json", columns: list[str] | None = None) -> str:
    if fmt == "json":
        return to_json(report) + "\n"
    if fmt == "csv":
        return to_csv(report["body"], columns=columns)
    raise ValueError(f"unknown format {fmt!r}")
