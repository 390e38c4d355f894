"""Smoke test of the benchmark: every workload at tiny budgets, both modes.

    python3 -m pytest perfbench/test_smoke.py -q

Checks the output format (every metric of ``BENCHMARK.json`` printed with
its unit, the result keys, the recorded environment) and that each layer's
counters read zero on the workloads that never reach it.  Tiny budgets are
too small for the correctness gates, so their verdict is not asserted here.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]

# counters that must be zero (False) or positive (True) on each workload
LAYER_REACH = {
    "sk-minimize": {"optimizer.objective_calls": True, "montecarlo.replicates": False, "cascade.leaves": False},
    "pair-sweep": {"optimizer.objective_calls": True, "montecarlo.replicates": False, "cascade.leaves": False},
    "mc-estimate": {"optimizer.objective_calls": False, "montecarlo.replicates": True, "cascade.leaves": False},
    "cascade-check": {"optimizer.objective_calls": False, "montecarlo.replicates": False, "cascade.leaves": True},
}


def run_bench(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args], cwd=cwd, capture_output=True, text=True, timeout=170
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_is_printed_with_its_unit(workload, trace):
    done = run_bench(ROOT, "--workload", workload, "--seed", "3", "--seconds", "0", "--trace", str(trace), "--tiny")
    assert done.returncode == 0, done.stderr
    info_line, result_line = done.stdout.strip().splitlines()[-2:]
    result = json.loads(result_line)
    info = json.loads(info_line)["info"]

    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["attempted"] >= 1 and 0 <= result["failed"] <= result["attempted"]
    wanted = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == wanted
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())

    assert info["body_identical"]
    assert info["environment"]["thread_pinning"] == {
        "OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"
    }
    if trace:
        assert (ROOT / info["spans_file"]).is_file()
        for name, reached in LAYER_REACH[workload].items():
            assert (result["metrics"][name]["value"] > 0) == reached, name


def test_uninstall_restores_every_binding():
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    import numpy as np
    import sphglass.cli  # noqa: F401  (loads every measured module)
    from tracer import Tracer

    def bindings():
        owners = [m for key, m in sys.modules.items() if key.startswith("sphglass")] + [np.linalg]
        owners += [c for m in list(owners) for c in vars(m).values() if isinstance(c, type)]
        return {(id(o), k): v for o in owners for k, v in vars(o).items()}

    before = bindings()
    tracer = Tracer()
    tracer.install()
    try:
        assert bindings() != before
    finally:
        tracer.uninstall()
    after = bindings()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)


@pytest.mark.parametrize("kind", ["calls", "stream", "mixed"])
def test_speed_probe_samples_and_restores_the_alarm_handler(kind):
    sys.path[:0] = [str(HERE)]
    import signal
    import time

    from hostspeed import INTERVAL_S, SpeedProbe

    before = signal.getsignal(signal.SIGALRM)
    with SpeedProbe(kind) as probe:
        start = time.perf_counter()
        while time.perf_counter() - start < 4 * INTERVAL_S:
            pass
        seconds = time.perf_counter() - start
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert len(probe.samples) >= 3
    assert 0 < probe.scaled(seconds) < 10 * seconds


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    done = run_bench(tmp_path, "--workload", WORKLOADS[0], "--seed", "1", "--seconds", "1", "--trace", "0")
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
