"""What a fresh interpreter loads, and what it computes before scipy is loaded.

``import sphglass`` loads numpy and the package only; each scipy submodule is
imported inside the function that calls it, and ``multiprocessing`` inside
the fan-out branch of ``parallel.run_tasks``.  These tests run in a new
interpreter, because the test session itself has long imported scipy.
"""

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def run_fresh(script: str, *args: str) -> dict:
    """Run ``script`` in a new interpreter with src on the path; return its JSON output."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run(
        [sys.executable, "-c", textwrap.dedent(script), *args],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.strip().splitlines()[-1])


GUARD = """
    import json
    import sys

    def scipy_modules():
        return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))

    configs = json.loads(sys.argv[1])
    steps = {}
    import sphglass
    steps["import sphglass"] = scipy_modules()
    from sphglass import cli
    steps["import sphglass.cli"] = scipy_modules()
    minimize = cli.load_config(configs["minimize"])
    steps["load_config minimize"] = scipy_modules()
    for task in ("evaluate", "cascade-check", "cascade-check r=3", "mc-estimate"):
        code, _ = cli.run(cli.load_config(configs[task]))
        assert code == 0, task
        steps["run " + task] = scipy_modules()
    code, _ = cli.run(minimize)
    assert code == 0
    print(json.dumps({"steps": steps, "optimize_after_minimize": "scipy.optimize" in sys.modules}))
"""


def test_scipy_is_loaded_only_by_the_code_that_calls_it():
    q = [[1.0, 0.5], [0.5, 1.0]]
    model = {"n": 2, "mixture": {"2": [0.3, 0.3]}, "Q": q, "h": [0.1, 0.0], "seed": 1}
    path = {"xs": [0.0, 0.5, 1.0], "Qs": [[[0.0, 0.0], [0.0, 0.0]], q]}
    configs = {
        "minimize": {**model, "task": "minimize", "search": {"max_levels": 1, "restarts": 0, "max_iterations": 5}},
        "evaluate": {**model, "task": "evaluate", "path": path, "lambda": [[2.0, 0.3], [0.3, 2.0]]},
        "cascade-check": {
            **model,
            "task": "cascade-check",
            "path": path,
            "lambda": [[2.0, 0.3], [0.3, 2.0]],
            "budgets": {"samples_per_level": [200]},
        },
        "cascade-check r=3": {
            **model,
            "task": "cascade-check",
            "path": {
                "xs": [0.0, 0.3, 0.6, 0.8, 1.0],
                "Qs": [[[0.0, 0.0], [0.0, 0.0]], [[0.3, 0.15], [0.15, 0.3]], [[0.6, 0.3], [0.3, 0.6]], q],
            },
            "lambda": [[2.0, 0.3], [0.3, 2.0]],
            "budgets": {"samples_per_level": [20, 20, 20]},
        },
        "mc-estimate": {
            **model,
            "task": "mc-estimate",
            "budgets": {"N": 16, "epsilon": 0.01, "disorder_reps": 2, "config_samples": 50},
        },
    }
    out = run_fresh(GUARD, json.dumps({task: json.dumps(cfg) for task, cfg in configs.items()}))
    assert out["steps"] == {step: [] for step in out["steps"]}
    assert len(out["steps"]) == 7
    # the guard can see an import: the search loads scipy.optimize
    assert out["optimize_after_minimize"]


MULTIPROCESSING = """
    import json
    import sys

    def loaded():
        return sorted(m for m in sys.modules if m.split(".")[0] == "multiprocessing")

    steps = {}
    from sphglass import cli
    steps["import sphglass.cli"] = loaded()
    cli.load_config(sys.argv[1])
    steps["load_config"] = loaded()
    from sphglass.parallel import run_tasks

    assert run_tasks(abs, [1, -2], workers=2) == [1, 2]
    print(json.dumps({"steps": steps, "after_fan_out": "multiprocessing" in sys.modules}))
"""


def test_cli_start_up_loads_no_multiprocessing():
    # only run_tasks with workers > 1 forks a pool, so only that branch
    # imports multiprocessing
    config = {"task": "minimize", "n": 2, "mixture": {"2": [0.3, 0.3]}, "Q": [[1.0, 0.5], [0.5, 1.0]], "seed": 1}
    out = run_fresh(MULTIPROCESSING, json.dumps(config))
    assert out["steps"] == {"import sphglass.cli": [], "load_config": []}
    # the guard can see an import: a fan-out loads multiprocessing
    assert out["after_fan_out"]


WORKERS = """
    import json
    import sys

    import numpy as np

    from sphglass.mixture import MixtureSpec
    from sphglass.montecarlo import estimate_free_energy

    assert "scipy" not in sys.modules
    q = np.array([[1.0, 0.3], [0.3, 1.0]])
    spec = MixtureSpec(2, {2: [0.3, 0.3]})
    h = np.array([0.1, -0.2])

    def results(workers):
        mc = estimate_free_energy(q, 16, 0.01, spec, h, 2, 50, seed=7, workers=workers)
        return [mc.value.hex(), mc.stderr.hex()]

    # the forked workers start before anything has imported scipy
    fanned_out = results(2)
    scipy_before_serial = "scipy" in sys.modules
    print(json.dumps({"workers2": fanned_out, "workers1": results(1), "scipy_before_serial": scipy_before_serial}))
"""


def test_worker_fan_out_reproduces_before_scipy_is_loaded():
    out = run_fresh(WORKERS)
    assert not out["scipy_before_serial"]
    assert out["workers2"] == out["workers1"]


CASCADE_BODY = """
    import json
    import sys

    from sphglass import cli
    from sphglass.reporting import to_json

    code, report = cli.run(cli.load_config(sys.argv[1]))
    assert code == 0
    print(json.dumps({"blas_threads": report["header"]["blas_threads"], "body": to_json(report["body"])}))
"""


def test_cascade_check_body_does_not_depend_on_blas_thread_count(monkeypatch):
    # OpenBLAS reads its thread count once, when numpy loads, so each count
    # gets a fresh interpreter.  The config keeps the leaf blocks of the
    # benchmark's cascade-check (whole groups of 3000 leaves) at a fraction of
    # its draws.  mc-estimate is left out: the rounding of its column-group
    # GEMM is known to change with the thread count.
    q = [[1.0, 0.5], [0.5, 1.0]]
    config = {
        "task": "cascade-check",
        "n": 2,
        "mixture": {"2": [0.5, 0.4], "4": [0.2, 0.15]},
        "Q": q,
        "h": [0.1, -0.2],
        "seed": 1,
        "path": {"xs": [0.0, 0.3, 0.7, 1.0], "Qs": [[[0.0, 0.0], [0.0, 0.0]], [[0.5, 0.25], [0.25, 0.5]], q]},
        "lambda": [[2.0, 0.3], [0.3, 2.0]],
        "budgets": {"samples_per_level": [40, 3000]},
    }
    outs = []
    for threads in ("1", "2"):
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", threads)
        outs.append(run_fresh(CASCADE_BODY, json.dumps(config)))
        assert outs[-1]["blas_threads"]["OPENBLAS_NUM_THREADS"] == threads
    assert outs[0]["body"] == outs[1]["body"]
