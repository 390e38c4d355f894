#!/usr/bin/env python3
"""sphglass benchmark: one workload through the public CLI path, in one process.

    python3 perfbench/run.py --workload sk-minimize --seed 1 --seconds 24 --trace 0

A repetition loads the workload's config, runs it and renders the report
(``cli.load_config`` -> ``cli.run`` -> ``reporting.render_report``), then
checks the output against the workload's reference.  Repetitions run until
``--seconds`` have passed; every one uses the same seed, so every report body
must hash to the same digest.

``--trace 0`` reports the end-to-end metrics of ``BENCHMARK.json``: medians
over the repetitions, the peak RSS, and the median ``setup_s`` of several
fresh interpreters.  Each timed span runs under a ``hostspeed.SpeedProbe``
of the kind the workload names, and its time is rescaled to the probe's
reference host speed, which takes the host's drift out of the figures; the
raw times are in ``info``.
``--trace 1`` alternates untraced and traced repetitions, without the
probe, and reports the per-layer metrics (medians over the traced ones) and
the trace overhead.  Spans are written to ``.bench_out/`` when the run ends.

The second-to-last line of stdout is an ``info`` object (versions, thread
pinning, per-repetition times, body digest); the last line is the result.
"""

import os

# One BLAS/OpenMP thread, set before numpy loads; the set-up probes inherit it.
THREAD_PINNING = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(THREAD_PINNING)

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402

from hostspeed import SpeedProbe  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUP_PROBES = 7


@dataclass
class Rep:
    wall_s: float
    cpu_s: float
    scaled_wall_s: float  # at the reference host speed; the raw time without a probe
    scaled_cpu_s: float
    failed: bool
    value_err: float
    body_sha256: str | None
    detail: str


def parse_args(argv):
    parser = argparse.ArgumentParser(description="Run one sphglass benchmark workload.")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True, help="workload seed, 0 <= seed < 2**64")
    parser.add_argument("--seconds", type=float, required=True, help="how long to repeat the workload")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="smoke-test budgets; the numbers mean nothing")
    args = parser.parse_args(argv)
    if not 0 <= args.seed < 2**64:
        parser.error("--seed must lie in [0, 2**64)")
    return args


def measure_setup(config_text: str) -> list[tuple[float, float]]:
    """(raw, scaled) seconds from import to a loaded config, each in a fresh interpreter."""
    times = []
    for _ in range(SETUP_PROBES):
        done = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), config_text],
            capture_output=True, text=True, timeout=120, check=True,
        )
        raw, scaled = done.stdout.split()[-2:]
        times.append((float(raw), float(scaled)))
    return times


def import_sphglass():
    sys.path.insert(0, str(SRC))
    from sphglass import cli, reporting

    if Path(cli.__file__).resolve().parent != SRC / "sphglass":
        raise SystemExit(f"imported sphglass from {cli.__file__}, not from {SRC}")
    return cli, reporting


def environment() -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):  # numpy without the dict form of show_config
        blas_name = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas_name,
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "thread_pinning": {k: os.environ.get(k) for k in THREAD_PINNING},
        "workers": 1,
    }


def one_rep(cli, reporting, workload, config_text: str, tracer=None, probe: SpeedProbe | None = None) -> Rep:
    if tracer is not None:
        tracer.install()
    try:
        with probe or contextlib.nullcontext():
            cpu0 = time.process_time()
            t0 = time.perf_counter()
            try:
                code, report = cli.run(cli.load_config(config_text))
                reporting.render_report(report)
                error = None
            except Exception:  # a run that raises is counted as failed, not fatal
                code, report, error = 1, None, traceback.format_exc()
            wall = time.perf_counter() - t0
            cpu = time.process_time() - cpu0
    finally:
        if tracer is not None:
            tracer.uninstall()
    times = (wall, cpu, probe.scaled(wall), probe.scaled(cpu)) if probe else (wall, cpu, wall, cpu)
    if error is not None:
        return Rep(*times, True, math.nan, None, error)
    try:
        verdict = workload.check(report["body"])
    except (KeyError, TypeError, ValueError) as err:
        return Rep(*times, True, math.nan, None, f"report body not checkable: {err!r}")
    digest = hashlib.sha256(reporting.to_json(report["body"]).encode()).hexdigest()
    detail = verdict.detail if code == 0 else f"exit status {code}; {verdict.detail}"
    return Rep(*times, code != 0 or not verdict.ok, verdict.value_err, digest, detail)


def write_spans(workload: str, tracers) -> Path:
    import numpy as np

    OUT.mkdir(exist_ok=True)
    path = OUT / f"spans-{workload}.npz"
    arrays = {}
    for i, tracer in enumerate(tracers):
        arrays[f"rep{i}_names"] = np.array(tracer.names)
        for key, values in tracer.span_arrays().items():
            arrays[f"rep{i}_{key}"] = values
    np.savez(path, **arrays)
    return path


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "sphglass" / "__init__.py").is_file():
        print(f"error: no sphglass sources under {SRC}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workload = WORKLOADS[args.workload]
    config_text = json.dumps(workload.config(args.seed, args.tiny))

    setup = [] if args.trace else measure_setup(config_text)
    cli, reporting = import_sphglass()
    if args.trace:
        from tracer import Tracer

    plain: list[Rep] = []
    traced: list[Rep] = []
    tracers = []
    start = time.perf_counter()
    while True:
        if args.trace and len(traced) < len(plain):
            tracers.append(Tracer())
            traced.append(one_rep(cli, reporting, workload, config_text, tracers[-1]))
        else:
            probe = None if args.trace else SpeedProbe(workload.probe)
            plain.append(one_rep(cli, reporting, workload, config_text, probe=probe))
        if time.perf_counter() - start >= args.seconds and (traced or not args.trace):
            break

    reps = plain + traced
    digests = sorted({r.body_sha256 for r in reps if r.body_sha256 is not None})
    first_digest = next((r.body_sha256 for r in reps if r.body_sha256 is not None), None)
    for rep in reps:
        if rep.body_sha256 is not None and rep.body_sha256 != first_digest:
            rep.failed = True
            rep.detail = "report body differs from the first repetition with the same seed"
    failed = sum(r.failed for r in reps)
    # a repetition that raised has no value to compare; fail_rate counts it
    value_err = max((r.value_err for r in reps if math.isfinite(r.value_err)), default=0.0)
    failures = [r.detail for r in reps if r.failed]
    for detail in failures[:3]:
        print(f"[{args.workload}] failed repetition: {detail}", file=sys.stderr)

    if args.trace:
        per_rep = [t.layer_metrics() for t in tracers]
        values = {key: statistics.median(m[key] for m in per_rep) for key in per_rep[0]}
        values["trace_overhead_s"] = statistics.median(r.wall_s for r in traced) - statistics.median(
            r.wall_s for r in plain
        )
        values["value_err"] = value_err
        values["fail_rate"] = failed / len(reps)
        spans_file = str(write_spans(args.workload, tracers).relative_to(ROOT))
    else:
        values = {
            "setup_s": statistics.median(scaled for _, scaled in setup),
            "wall_s": statistics.median(r.scaled_wall_s for r in plain),
            "cpu_s": statistics.median(r.scaled_cpu_s for r in plain),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        spans_file = None

    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    info = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "tiny": args.tiny,
        "reps": len(plain),
        "traced_reps": len(traced),
        "raw_wall_s_each": [round(r.wall_s, 4) for r in plain],
        "scaled_wall_s_each": [round(r.scaled_wall_s, 4) for r in plain],
        "traced_wall_s_each": [round(r.wall_s, 4) for r in traced],
        "raw_setup_s_each": [round(raw, 4) for raw, _ in setup],
        "scaled_setup_s_each": [round(scaled, 4) for _, scaled in setup],
        "value_err": value_err,
        "fail_rate": failed / len(reps),
        "check": failures[0] if failures else reps[0].detail,
        "body_sha256": digests,
        "body_identical": len(digests) == 1,
        "spans_file": spans_file,
        "environment": environment(),
    }
    print(json.dumps({"info": info}))
    print(json.dumps({"correct": failed == 0, "attempted": len(reps), "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
