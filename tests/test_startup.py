"""What a fresh interpreter loads, and what it computes before scipy is loaded.

``import sphglass`` loads numpy and the package only; each scipy submodule is
imported inside the function that calls it.  These tests run in a new
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
    for task in ("evaluate", "cascade-check"):
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
    }
    out = run_fresh(GUARD, json.dumps({task: json.dumps(cfg) for task, cfg in configs.items()}))
    assert out["steps"] == {step: [] for step in out["steps"]}
    assert len(out["steps"]) == 5
    # the guard can see an import: the search loads scipy.optimize
    assert out["optimize_after_minimize"]


WORKERS = """
    import json
    import sys

    import numpy as np

    from sphglass.cascade import CascadeSpec, cascade_free_energy_mc
    from sphglass.geometry import DiscretePath
    from sphglass.mixture import MixtureSpec
    from sphglass.montecarlo import estimate_free_energy

    assert "scipy" not in sys.modules
    q = np.array([[1.0, 0.3], [0.3, 1.0]])
    spec = MixtureSpec(2, {2: [0.3, 0.3]})
    h = np.array([0.1, -0.2])
    path = DiscretePath(xs=np.array([0.0, 0.6, 1.0]), qs=np.array([[[0.0]], [[1.0]]]))
    cspec = CascadeSpec(path=path, spec=MixtureSpec(1, {2: [0.3]}), lam=np.array([[1.3]]), h=np.zeros(1))

    def results(workers):
        mc = estimate_free_energy(q, 16, 0.01, spec, h, 2, 50, seed=7, workers=workers)
        cascade = cascade_free_energy_mc(100, cspec, 8.0, 100, seed=9, workers=workers)
        return [mc.value.hex(), mc.stderr.hex(), cascade.estimate.hex(), cascade.stderr.hex()]

    # the forked workers start before anything has imported scipy
    fanned_out = results(2)
    scipy_before_serial = "scipy" in sys.modules
    print(json.dumps({"workers2": fanned_out, "workers1": results(1), "scipy_before_serial": scipy_before_serial}))
"""


def test_worker_fan_out_reproduces_before_scipy_is_loaded():
    out = run_fresh(WORKERS)
    assert not out["scipy_before_serial"]
    assert out["workers2"] == out["workers1"]
