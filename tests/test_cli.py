import importlib.util
import json
import math
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from sphglass.cli import ConfigError, load_config, main, run
from sphglass.functional import closed_form_Y0, theta_term
from sphglass.reporting import render_float, to_json

from conftest import random_constraint, random_mixture, random_multiplier, random_path

MINIMAL = {
    "n": 1,
    "mixture": {"2": [0.3]},
    "Q": [[1.0]],
    "h": [0.0],
    "task": "minimize",
    "seed": 42,
}


def config_text(**overrides) -> str:
    cfg = dict(MINIMAL)
    cfg.update(overrides)
    return json.dumps(cfg)


def test_load_minimal_config():
    cfg = load_config(config_text())
    assert cfg.n == 1 and cfg.task == "minimize" and cfg.seed == 42
    assert cfg.mixture.terms[2][0] == 0.3


def test_parse_error_reports_line_and_column():
    with pytest.raises(ConfigError, match=r"line \d+, column \d+"):
        load_config('{"n": 1,,}')


def test_diagonal_error_message():
    text = config_text(n=2, mixture={"2": [0.3, 0.3]}, Q=[[0.9, 0.0], [0.0, 1.0]], h=[0.0, 0.0])
    with pytest.raises(ConfigError, match="constraint diagonal must equal 1"):
        load_config(text)


@pytest.mark.parametrize(
    "beta, rho", [((0.3, -0.3), 0.5), ((0.5, -0.5), 0.5), ((0.5, -0.5), 0.0), ((1.0, -1.0), 0.5)]
)
def test_mixed_sign_mixture_is_a_config_error(beta, rho):
    # pure p = 2 models whose search values fall below the exact free energy:
    # xi is not convex, so the functional is no upper bound
    text = config_text(n=2, mixture={"2": list(beta)}, Q=[[1.0, rho], [rho, 1.0]], h=[0.0, 0.0])
    with pytest.raises(ConfigError, match=r'^"mixture" invalid: mixture beta_2 = .* has entries of both signs'):
        load_config(text)


def test_asymmetric_matrix_rejected_and_named():
    # 1e-7 is inside allclose's default rtol, so a tolerant check would accept it
    q = [[1.0, 0.5, 0.2], [0.5, 1.0, 0.1], [0.2, 0.1 + 1e-7, 1.0]]
    text = config_text(n=3, mixture={"2": [0.3] * 3}, Q=q, h=[0.0] * 3)
    with pytest.raises(ConfigError, match=r'"Q" must be exactly symmetric: entry \(1, 2\)'):
        load_config(text)
    lam = [[2.0, 0.3], [0.3 - 1e-12, 2.0]]
    text = config_text(n=2, mixture={"2": [0.3, 0.3]}, Q=[[1.0, 0.5], [0.5, 1.0]], h=[0.0, 0.0], **{"lambda": lam})
    with pytest.raises(ConfigError, match=r'"lambda" must be exactly symmetric: entry \(0, 1\)'):
        load_config(text)


def test_path_error_names_offending_index():
    text = config_text(
        path={"xs": [0.0, 0.7, 0.3, 1.0], "Qs": [[[0.0]], [[0.5]], [[1.0]]]}
    )
    with pytest.raises(ConfigError, match="x_strictly_increasing.*index 1"):
        load_config(text)


def test_nonmonotone_q_chain_error_names_index():
    text = config_text(
        n=2,
        mixture={"2": [0.3, 0.3]},
        Q=[[1.0, 0.5], [0.5, 1.0]],
        h=[0.0, 0.0],
        path={
            "xs": [0.0, 0.4, 0.7, 1.0],
            "Qs": [
                [[0.0, 0.0], [0.0, 0.0]],
                [[0.9, 0.0], [0.0, 0.1]],
                [[1.0, 0.5], [0.5, 1.0]],
            ],
        },
    )
    with pytest.raises(ConfigError, match="increment_psd.*index 2"):
        load_config(text)


def test_asymmetric_path_level_is_a_path_config_error(tmp_path, capsys):
    # the middle level is off by 1e-18, below the rounding of its exactly
    # symmetric increments: the path rule refuses it on load, with its report
    path = {
        "xs": [0.0, 0.3, 0.5, 0.7, 1.0],
        "Qs": [[[0.0, 0.0], [0.0, 0.0]], [[0.25, 0.25], [0.25, 0.25]], [[0.5, 0.0], [1e-18, 0.5]], [[1.0, 0.5], [0.5, 1.0]]],
    }
    overrides = {"n": 2, "mixture": {"2": [0.3, 0.3]}, "Q": [[1.0, 0.5], [0.5, 1.0]], "h": [0.0, 0.0], "path": path}
    cfg_file = tmp_path / "asymmetric.json"
    cfg_file.write_text(config_text(task="evaluate", **{"lambda": [[3.0, 0.0], [0.0, 3.0]]}, **overrides))
    assert main(["evaluate", "--config", str(cfg_file)]) == 1
    error = json.loads(capsys.readouterr().err)["error"]
    assert error["kind"] == "config"
    assert error["message"].startswith('"path" invalid: path violates invariant \'q_symmetric\' at index 2')
    assert error["details"] == {"ok": False, "violations": [{"invariant": "q_symmetric", "index": 2, "magnitude": 1e-18}]}


def test_run_requires_seed_for_stochastic_tasks():
    cfg = load_config(config_text())
    cfg.seed = None
    with pytest.raises(ConfigError, match="seed"):
        run(cfg)


def test_evaluate_zero_mixture_fixture():
    q = [[1.0, 0.5], [0.5, 1.0]]
    lam = np.linalg.inv(np.array(q)).tolist()
    cfg = load_config(
        config_text(
            n=2,
            mixture={},
            Q=q,
            h=[0.0, 0.0],
            task="evaluate",
            path={"xs": [0.0, 0.5, 1.0], "Qs": [[[0.0, 0.0], [0.0, 0.0]], q]},
            **{"lambda": lam},
        )
    )
    code, report = run(cfg)
    assert code == 0
    assert report["body"]["total"] == pytest.approx(0.5 * math.log(0.75), abs=1e-12)


def test_minimize_degenerate_exit_code(tmp_path):
    cfg_file = tmp_path / "degen.json"
    cfg_file.write_text(
        config_text(
            n=2,
            mixture={"2": [0.3, 0.3]},
            Q=[[1.0, 1.0], [1.0, 1.0]],
            h=[0.0, 0.0],
            search={"max_levels": 1, "restarts": 1, "max_iterations": 40},
        )
    )
    out = tmp_path / "report.json"
    code = main(["minimize", "--config", str(cfg_file), "--out", str(out)])
    assert code == 2
    report = json.loads(out.read_text())
    assert report["body"]["degenerate"] is True
    assert report["body"]["best_value"] == "-inf"
    values = report["body"]["certificate"]["objective_values"]
    assert values[0] > values[1] > values[2] and values[2] < -100


def test_solver_runtime_error_reported_as_json(tmp_path, monkeypatch, capsys):
    # a certificate whose values do not decrease makes minimize raise
    # RuntimeError; main reports it in the error format, not as a traceback
    from sphglass import optimizer

    monkeypatch.setattr(optimizer._PathContext, "member_factors", lambda self, lam: SimpleNamespace(value=0.0))
    cfg_file = tmp_path / "degen.json"
    cfg_file.write_text(
        config_text(
            n=2,
            mixture={"2": [0.3, 0.3]},
            Q=[[1.0, 1.0], [1.0, 1.0]],
            h=[0.0, 0.0],
            search={"max_levels": 1, "restarts": 1, "max_iterations": 40},
        )
    )
    assert main(["minimize", "--config", str(cfg_file)]) == 1
    error = json.loads(capsys.readouterr().err)["error"]
    assert error["kind"] == "runtime"
    assert "degeneracy certificate does not show a divergence" in error["message"]


def test_verify_identities_subcommand(tmp_path):
    cfg_file = tmp_path / "verify.json"
    cfg_file.write_text(
        config_text(task="verify-identities", budgets={"identity_instances": 20, "jacobi_instances": 10})
    )
    out = tmp_path / "verify.json.out"
    code = main(["verify-identities", "--config", str(cfg_file), "--out", str(out)])
    assert code == 0
    report = json.loads(out.read_text())
    assert report["body"]["passed"] is True
    assert report["body"]["total"] == 30
    assert all(c["pass"] for c in report["body"]["checks"])


def test_verify_identities_reports_every_default_check_by_name(tmp_path):
    # default budgets: 100 checks of the kernel against the Gaussian integral,
    # then 50 of its small-x_0 cascade term against the trace limit
    cfg_file = tmp_path / "verify.json"
    cfg_file.write_text(config_text(task="verify-identities", seed=0))
    out = tmp_path / "verify.json.out"
    assert main(["verify-identities", "--config", str(cfg_file), "--out", str(out)]) == 0
    body = json.loads(out.read_text())["body"]
    assert (body["total"], body["failures"], body["passed"]) == (150, 0, True)
    names = [check["name"] for check in body["checks"]]
    assert names == ["gaussian_quadratic_identity"] * 100 + ["jacobi_limit"] * 50


# an r = 3 path to the identity, for which the default 2000 samples per level
# exceed the leaf limit
R3_PAIR_PATH = {
    "xs": [0.0, 0.2, 0.5, 0.8, 1.0],
    "Qs": [[[0.0, 0.0], [0.0, 0.0]], [[0.25, 0.0], [0.0, 0.25]], [[0.5, 0.0], [0.0, 0.5]], [[1.0, 0.0], [0.0, 1.0]]],
}
R4_PAIR_PATH = {
    "xs": [0.0, 0.2, 0.4, 0.6, 0.8, 1.0],
    "Qs": [[[s, 0.0], [0.0, s]] for s in (0.0, 0.25, 0.5, 0.75, 1.0)],
}
FOUR_COPIES = {
    "n": 4, "mixture": {"2": [0.3] * 4}, "Q": np.eye(4).tolist(), "h": [0.0] * 4, "lambda": (3.0 * np.eye(4)).tolist(),
    "path": {"xs": [0.0, 0.5, 1.0], "Qs": [np.zeros((4, 4)).tolist(), np.eye(4).tolist()]},
}


def _config_error(tmp_path, capsys, task, flags=(), **overrides) -> str:
    # runs the subcommand and returns the message of its config error
    cfg_file = tmp_path / "bad.json"
    cfg_file.write_text(config_text(task=task, **overrides))
    assert main([task, "--config", str(cfg_file), *flags]) == 1
    error = json.loads(capsys.readouterr().err)["error"]
    assert error["kind"] == "config"
    return error["message"]


@pytest.mark.parametrize(
    "task, overrides, field",
    [
        ("mc-estimate", {"budgets": {"N": "x"}}, '"budgets.N"'),
        ("mc-estimate", {"budgets": {"disorder_reps": 0}}, '"budgets.disorder_reps"'),
        ("mc-estimate", {"budgets": {"config_samples": 0}}, '"budgets.config_samples"'),
        ("sweep", {"sweep": {"parameter": "q12", "values": [0.3, 1.5]}}, '"sweep.values[1]"'),
        ("sweep", {"sweep": {"parameter": "q12", "values": ["a"]}}, '"sweep.values[0]"'),
        ("cascade-check", {"budgets": {"samples_per_level": 5}}, '"budgets.samples_per_level"'),
        ("cascade-check", {"budgets": {"samples_per_level": ["x"]}}, '"budgets.samples_per_level[0]"'),
        ("cascade-check", {"budgets": {"samples_per_level": [20.5]}}, '"budgets.samples_per_level[0]"'),
        # one outermost sample has an infinite stderr, so the 3-sigma rule could not fail
        ("cascade-check", {"budgets": {"samples_per_level": [1]}}, '"budgets.samples_per_level[0]"'),
        # the oracle's own rules on the whole list: one count per level, and the leaf limit
        ("cascade-check", {"budgets": {"samples_per_level": [20, 20]}}, '"budgets.samples_per_level"'),
        ("cascade-check", {"path": R3_PAIR_PATH}, '"budgets.samples_per_level"'),
        # the oracle's caps on the model: r <= 3 and n <= 3
        ("cascade-check", {"path": R4_PAIR_PATH, "budgets": {"samples_per_level": [2, 2, 2, 2]}}, '"path"'),
        ("cascade-check", FOUR_COPIES, '"n"'),
        # an integer field takes a JSON integer only: no truncation, no bool, no string
        ("mc-estimate", {"budgets": {"N": 32.7, "disorder_reps": 2, "config_samples": 10}}, '"budgets.N"'),
        ("mc-estimate", {"budgets": {"N": 16, "disorder_reps": True, "config_samples": 10}},
         '"budgets.disorder_reps"'),
        ("minimize", {"search": {"max_levels": 2.5}}, '"search.max_levels"'),
        ("minimize", {"search": {"restarts": 1.5}}, '"search.restarts"'),
        ("minimize", {"search": {"max_levels": 1, "restarts": 0, "max_iterations": 2.5}}, '"search.max_iterations"'),
        ("minimize", {"search": {"restarts": "2"}}, '"search.restarts"'),
        ("minimize", {"search": {"restarts": -1}}, '"search.restarts"'),
        ("minimize", {"search": {"max_levels": 0}}, '"search.max_levels"'),
        # every array field names itself when it is not a rectangular array of numbers
        ("evaluate", {"h": "ab"}, '"h"'),
        ("evaluate", {"h": [0.0, float("nan")]}, '"h"'),
        ("evaluate", {"Q": [[1.0, 0.5], [0.5]]}, '"Q"'),
        ("evaluate", {"lambda": [[2.0, "x"], [0.0, 2.0]]}, '"lambda"'),
        ("evaluate", {"path": {"xs": [0.0, "a", 1.0], "Qs": [[[0.0, 0.0], [0.0, 0.0]], [[1.0, 0.0], [0.0, 1.0]]]}},
         '"path.xs"'),
        ("evaluate", {"path": {"xs": [0.0, 0.5, 1.0], "Qs": [[[0.0, 0.0], [0.0, 0.0]], [[1.0, 0.0], [0.0]]]}},
         '"path.Qs"'),
        ("minimize", {"n": True}, '"n"'),
        # a float field takes a finite JSON number only: no string, bool or NaN
        ("minimize", {"search": {"x_grid_resolution": "a"}}, '"search.x_grid_resolution"'),
        ("minimize", {"search": {"x_grid_resolution": True}}, '"search.x_grid_resolution"'),
        ("minimize", {"search": {"x_grid_resolution": float("nan")}}, '"search.x_grid_resolution"'),
        ("minimize", {"search": {"x_grid_resolution": 0.0}}, '"search.x_grid_resolution"'),
        ("minimize", {"search": {"x_grid_resolution": 1e-3}}, '"search.x_grid_resolution"'),
        ("mc-estimate", {"budgets": {"epsilon": True}}, '"budgets.epsilon"'),
        ("mc-estimate", {"budgets": {"epsilon": "0.01"}}, '"budgets.epsilon"'),
        ("mc-estimate", {"budgets": {"epsilon": float("inf")}}, '"budgets.epsilon"'),
        # the header's seed, the worker count and every sweep value are numbers too
        ("minimize", {"seed": True}, '"seed"'),
        ("minimize", {"seed": 2**64}, '"seed"'),
        ("mc-estimate", {"workers": True}, '"workers"'),
        ("sweep", {"sweep": {"parameter": "q12", "values": ["0.3"]}}, '"sweep.values[0]"'),
        ("sweep", {"sweep": {"parameter": "beta_scale", "values": [0.5, True]}}, '"sweep.values[1]"'),
        ("minimize", {"search": {"restarts": True}}, '"search.restarts"'),
        ("minimize", {"search": {"q_parameterization": "other"}}, '"search.q_parameterization"'),
        # the estimator's own range rules: 4n <= N <= MAX_SITES and epsilon > 0 (n = 2 here)
        ("mc-estimate", {"budgets": {"N": -5}}, '"budgets.N"'),
        ("mc-estimate", {"budgets": {"N": 5}}, '"budgets.N"'),
        ("mc-estimate", {"budgets": {"N": 100}}, '"budgets.N"'),
        ("mc-estimate", {"budgets": {"epsilon": 0}}, '"budgets.epsilon"'),
        ("mc-estimate", {"budgets": {"epsilon": -1}}, '"budgets.epsilon"'),
    ],
    ids=["N-not-integer", "disorder-reps-zero", "config-samples-zero", "q12-out-of-range", "value-not-number",
         "samples-per-level-not-list", "samples-per-level-entry-not-integer", "samples-per-level-entry-float",
         "samples-per-level-outermost-one", "samples-per-level-wrong-length", "samples-per-level-r3-default",
         "cascade-r-above-cap", "cascade-n-above-cap",
         "N-float", "disorder-reps-bool", "max-levels-float", "restarts-float", "max-iterations-float",
         "restarts-string", "restarts-negative", "max-levels-zero",
         "h-string", "h-nan", "Q-ragged", "lambda-string-entry", "path-xs-string-entry", "path-Qs-ragged",
         "n-bool", "x-grid-string", "x-grid-bool", "x-grid-nan", "x-grid-zero", "x-grid-too-fine",
         "epsilon-bool", "epsilon-string", "epsilon-infinite", "seed-bool", "seed-above-u64", "workers-bool",
         "sweep-value-string", "sweep-value-bool", "restarts-bool", "family-unknown",
         "N-negative", "N-below-4n", "N-above-max-sites", "epsilon-zero", "epsilon-negative"],
)
def test_bad_budget_or_sweep_value_names_its_field(tmp_path, capsys, task, overrides, field):
    q = [[1.0, 0.0], [0.0, 1.0]]
    pair = {"n": 2, "mixture": {"2": [0.3, 0.3]}, "Q": q, "h": [0.0, 0.0], "lambda": [[2.0, 0.0], [0.0, 2.0]],
            "path": {"xs": [0.0, 0.5, 1.0], "Qs": [[[0.0, 0.0], [0.0, 0.0]], q]}}
    message = _config_error(tmp_path, capsys, task, **{**pair, **overrides})
    assert message.startswith(field)


@pytest.mark.parametrize(
    "flags, field",
    [(["--workers", "0"], '"workers"'), (["--seed", "-1"], '"seed"'), (["--seed", str(2**64)], '"seed"')],
    ids=["workers-zero", "seed-negative", "seed-above-u64"],
)
def test_command_line_flags_obey_the_config_rules(tmp_path, capsys, flags, field):
    budgets = {"N": 16, "epsilon": 0.01, "disorder_reps": 2, "config_samples": 10}
    message = _config_error(tmp_path, capsys, "mc-estimate", flags, budgets=budgets)
    assert message.startswith(field)


@pytest.mark.parametrize(
    "task, flags, overrides",
    [("minimize", ["--workers", "2"], {}), ("minimize", [], {"workers": 2}), ("cascade-check", ["--workers", "64"], {})],
    ids=["minimize-flag", "minimize-config-key", "cascade-check-flag"],
)
def test_only_mc_estimate_takes_more_than_one_worker(tmp_path, capsys, task, flags, overrides):
    # the flag stays on every subcommand, so the refusal is a config error
    # (exit 1), not argparse's usage error (exit 2)
    message = _config_error(tmp_path, capsys, task, flags, **overrides)
    assert message.startswith('"workers"')


def test_mc_estimate_runs_and_records_two_workers():
    budgets = {"N": 16, "epsilon": 0.01, "disorder_reps": 2, "config_samples": 10}
    code, report = run(load_config(config_text(task="mc-estimate", mixture={}, workers=2, budgets=budgets)))
    assert code == 0 and report["header"]["workers"] == 2



@pytest.mark.parametrize(
    "task, overrides, field",
    [
        ("mc-estimate", {"budgets": {"N": 16, "disorder_rep": 2, "config_samples": 10}}, '"budgets.disorder_rep"'),
        ("sweep", {"sweep": {"parameter": "beta_scale", "values": [0.5], "valeus": [1.0]}}, '"sweep.valeus"'),
        ("minimize", {"seeds": [1, 2]}, '"seeds"'),
        ("evaluate", {"path": {"xs": [0.0, 0.5, 1.0], "Qs": [[[0.0]], [[1.0]]], "qs": []}, "lambda": [[2.0]]},
         '"path.qs"'),
        ("verify-identities", {"budgets": {"identity_instance": 2, "jacobi_instances": 0}},
         '"budgets.identity_instance"'),
        ("cascade-check", {"budgets": {"samples_per_levels": [20]}}, '"budgets.samples_per_levels"'),
        ("minimize", {"seeds": [1, 2], "worker": 2}, '"seeds", "worker"'),
    ],
    ids=[
        "budget-typo", "sweep-typo", "top-level-typo", "path-typo",
        "identity-budget-typo", "cascade-budget-typo", "every-unknown-key-named",
    ],
)
def test_config_key_that_no_task_reads_is_an_error_that_names_it(tmp_path, capsys, task, overrides, field):
    # a misspelt key must not leave its field at the default
    message = _config_error(tmp_path, capsys, task, **overrides)
    assert message.startswith(field)
    assert "no task reads" in message


def test_task_less_config_refuses_an_unknown_key(tmp_path, capsys):
    model = {key: value for key, value in MINIMAL.items() if key != "task"}
    cfg_file = tmp_path / "shared.json"
    cfg_file.write_text(json.dumps({**model, "Lambda": [[2.0]]}))
    assert main(["minimize", "--config", str(cfg_file)]) == 1
    error = json.loads(capsys.readouterr().err)["error"]
    assert error["kind"] == "config" and error["message"].startswith('"Lambda"')


def test_budget_keys_of_other_tasks_are_accepted(tmp_path):
    # a config without "task" can carry the budgets of several subcommands
    budgets = {"identity_instances": 2, "jacobi_instances": 0, "samples_per_level": [20], "N": 16}
    model = {key: value for key, value in MINIMAL.items() if key != "task"}
    cfg_file = tmp_path / "shared.json"
    cfg_file.write_text(json.dumps({**model, "budgets": budgets}))
    assert main(["verify-identities", "--config", str(cfg_file), "--out", str(tmp_path / "out.json")]) == 0


@pytest.mark.parametrize(
    "output, shown",
    [(5, "5"), (True, "True"), (["r.json"], "['r.json']"), ({"file": "r.json"}, "{'file': 'r.json'}")],
    ids=["number", "bool", "list", "object"],
)
def test_output_must_be_a_path_string(tmp_path, capsys, output, shown):
    message = _config_error(tmp_path, capsys, "minimize", output=output)
    assert message == f'"output" must be a file path string, got {shown}'


def test_null_output_writes_the_report_to_stdout(tmp_path, capsys):
    cfg_file = tmp_path / "verify.json"
    budgets = {"identity_instances": 2, "jacobi_instances": 0}
    cfg_file.write_text(config_text(task="verify-identities", budgets=budgets, output=None))
    assert main(["verify-identities", "--config", str(cfg_file)]) == 0
    assert "body" in json.loads(capsys.readouterr().out)


@pytest.mark.parametrize("content", [None, b"\xff\xfe{}", "directory"], ids=["missing", "not-utf8", "directory"])
def test_unreadable_config_file_is_an_io_error(tmp_path, capsys, content):
    # exit 1 with a JSON error, not a traceback
    cfg_file = tmp_path / "config.json"
    if content == "directory":
        cfg_file.mkdir()
    elif content is not None:
        cfg_file.write_bytes(content)
    assert main(["minimize", "--config", str(cfg_file)]) == 1
    assert json.loads(capsys.readouterr().err)["error"]["kind"] == "io"


@pytest.mark.parametrize("via", ["config", "flag"])
def test_report_in_a_missing_directory_is_an_io_error(tmp_path, capsys, via):
    cfg_file = tmp_path / "verify.json"
    budgets = {"identity_instances": 2, "jacobi_instances": 0}
    target = str(tmp_path / "absent" / "r.json")
    flags = ["--out", target] if via == "flag" else []
    output = target if via == "config" else None
    cfg_file.write_text(config_text(task="verify-identities", budgets=budgets, output=output))
    assert main(["verify-identities", "--config", str(cfg_file), *flags]) == 1
    error = json.loads(capsys.readouterr().err)["error"]
    assert error["kind"] == "io" and "absent" in error["message"]


def test_report_onto_a_directory_is_an_io_error(tmp_path, capsys):
    cfg_file = tmp_path / "verify.json"
    budgets = {"identity_instances": 2, "jacobi_instances": 0}
    cfg_file.write_text(config_text(task="verify-identities", budgets=budgets, output=str(tmp_path)))
    assert main(["verify-identities", "--config", str(cfg_file)]) == 1
    assert json.loads(capsys.readouterr().err)["error"]["kind"] == "io"


@pytest.mark.parametrize(
    "name, task",
    [("sk-minimize", "minimize"), ("pair-sweep", "sweep"), ("mc-estimate", "mc-estimate"),
     ("cascade-check", "cascade-check")],
)
def test_benchmark_workload_configs_use_only_known_keys(monkeypatch, name, task):
    # the benchmark's configs must load under the unknown-key rule, full and tiny
    spec = importlib.util.spec_from_file_location(
        "perfbench_workloads", Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    )
    workloads = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, workloads)  # dataclasses look their module up there
    spec.loader.exec_module(workloads)
    for tiny in (False, True):
        cfg = load_config(json.dumps(workloads.WORKLOADS[name].config(1, tiny)))
        assert cfg.task == task


def test_verify_identities_rejects_negative_instance_counts(tmp_path, capsys):
    budgets = {"identity_instances": 2, "jacobi_instances": -1}
    message = _config_error(tmp_path, capsys, "verify-identities", budgets=budgets)
    assert message.startswith('"budgets.jacobi_instances"')


def test_verify_identities_that_checks_nothing_is_an_error(tmp_path, capsys):
    # a suite with zero checks must not report "passed": true
    budgets = {"identity_instances": 0, "jacobi_instances": 0}
    message = _config_error(tmp_path, capsys, "verify-identities", budgets=budgets)
    assert "selects no check" in message


def test_verify_identities_reads_mc_samples_only_for_mc_checks(tmp_path):
    budgets = {"identity_instances": 2, "jacobi_instances": 0, "mc_instances": 0, "mc_samples": 1}
    cfg_file = tmp_path / "verify.json"
    cfg_file.write_text(config_text(task="verify-identities", budgets=budgets))
    assert main(["verify-identities", "--config", str(cfg_file), "--out", str(tmp_path / "out.json")]) == 0


def test_cascade_check_sample_counts_are_json_integers(tmp_path, capsys):
    # a sample count is a count: 400 runs, and 400.0 is refused like any
    # float, with no report written
    for samples, code in (([400], 0), ([400.0], 1)):
        cfg_file = tmp_path / "cc.json"
        cfg_file.write_text(
            config_text(
                task="cascade-check",
                path={"xs": [0.0, 0.9, 1.0], "Qs": [[[0.0]], [[1.0]]]},
                budgets={"samples_per_level": samples},
                **{"lambda": [[1.18]]},
            )
        )
        out = tmp_path / f"cc-{code}.json"
        assert main(["cascade-check", "--config", str(cfg_file), "--out", str(out)]) == code
        if code == 0:
            assert json.loads(out.read_text())["body"]["nested_mc"]["samples_per_level"] == [400]
    assert not out.exists()
    error = json.loads(capsys.readouterr().err)["error"]
    assert error["kind"] == "config"
    assert error["message"].startswith('"budgets.samples_per_level[0]" must be an integer')


def test_task_subcommand_conflict(tmp_path):
    cfg_file = tmp_path / "c.json"
    cfg_file.write_text(config_text(task="evaluate"))
    assert main(["minimize", "--config", str(cfg_file)]) == 1


def test_report_body_byte_identical_across_reruns(tmp_path):
    cfg_file = tmp_path / "m.json"
    cfg_file.write_text(
        config_text(search={"max_levels": 1, "restarts": 1, "max_iterations": 40})
    )
    bodies = []
    for name in ("a.json", "b.json"):
        out = tmp_path / name
        code = main(["minimize", "--config", str(cfg_file), "--out", str(out)])
        assert code == 0
        report = json.loads(out.read_text())
        bodies.append(to_json(report["body"]))
    assert bodies[0] == bodies[1]


def test_header_records_blas_thread_pinning(tmp_path, monkeypatch):
    # the thread variables go into the header as set, null where unset, and
    # not into the body.  numpy is loaded already, so setting them here does
    # not change the BLAS thread count; test_startup checks in fresh
    # interpreters that a cascade-check body does not depend on it
    cfg_file = tmp_path / "mc.json"
    cfg_file.write_text(
        config_text(
            task="mc-estimate",
            n=2,
            mixture={"2": [0.3, 0.3], "4": [0.1, 0.1]},
            Q=[[1.0, 0.5], [0.5, 1.0]],
            h=[0.0, 0.0],
            budgets={"N": 16, "epsilon": 0.01, "disorder_reps": 2, "config_samples": 50},
        )
    )
    settings = (
        {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": None, "MKL_NUM_THREADS": "2"},
        {"OPENBLAS_NUM_THREADS": None, "OMP_NUM_THREADS": None, "MKL_NUM_THREADS": None},
    )
    bodies = []
    for i, setting in enumerate(settings):
        for name, value in setting.items():
            if value is None:
                monkeypatch.delenv(name, raising=False)
            else:
                monkeypatch.setenv(name, value)
        out = tmp_path / f"mc{i}.out"
        assert main(["mc-estimate", "--config", str(cfg_file), "--out", str(out)]) == 0
        report = json.loads(out.read_text())
        assert report["header"]["blas_threads"] == setting
        assert "blas_threads" not in report["body"]
        bodies.append(to_json(report["body"]))
    assert bodies[0] == bodies[1]


def test_sweep_csv(tmp_path):
    cfg_file = tmp_path / "sweep.json"
    cfg_file.write_text(
        config_text(
            task="sweep",
            sweep={"parameter": "beta_scale", "values": [0.0, 1.0]},
            search={"max_levels": 1, "restarts": 1, "max_iterations": 40},
        )
    )
    out = tmp_path / "sweep.csv"
    code = main(["sweep", "--config", str(cfg_file), "--format", "csv", "--out", str(out)])
    assert code == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "parameter,value,best_value,degenerate"
    assert len(lines) == 3
    # beta_scale = 0 reduces to the pure constraint volume, log det 1 = 0
    first = lines[1].split(",")
    assert abs(float(first[2])) < 1e-6


def test_mc_estimate_subcommand(tmp_path):
    cfg_file = tmp_path / "mc.json"
    cfg_file.write_text(
        config_text(
            task="mc-estimate",
            mixture={},
            budgets={"N": 16, "epsilon": 0.01, "disorder_reps": 4, "config_samples": 50},
        )
    )
    out = tmp_path / "mc.json.out"
    code = main(["mc-estimate", "--config", str(cfg_file), "--out", str(out)])
    assert code == 0
    report = json.loads(out.read_text())
    assert report["body"]["value"] == pytest.approx(0.0, abs=1e-12)  # log det 1
    assert report["body"]["analytic_reference"] == 0.0


def test_cascade_check_subcommand(tmp_path):
    cfg_file = tmp_path / "cc.json"
    cfg_file.write_text(
        config_text(
            task="cascade-check",
            path={"xs": [0.0, 0.9, 1.0], "Qs": [[[0.0]], [[1.0]]]},
            budgets={"samples_per_level": [50000]},
            **{"lambda": [[1.18]]},
        )
    )
    out = tmp_path / "cc.json.out"
    code = main(["cascade-check", "--config", str(cfg_file), "--out", str(out)])
    assert code == 0
    report = json.loads(out.read_text())
    assert report["body"]["recursion_pass"] is True
    assert report["body"]["theta_pass"] is True


def test_cascade_check_theta_rule_takes_a_path_within_rounding(tmp_path):
    # Q_1 = 1 + 5e-11 above the end matrix is monotone up to check_path's
    # rounding allowance; the theta oracle sums the falling last increment
    # as theta_term does instead of refusing the path
    cfg_file = tmp_path / "cc.json"
    cfg_file.write_text(
        config_text(
            task="cascade-check",
            mixture={"2": [8.0], "4": [8.0]},
            path={"xs": [0.0, 0.4, 0.8, 1.0], "Qs": [[[0.0]], [[1.0 + 5e-11]], [[1.0]]]},
            budgets={"samples_per_level": [20, 20]},
            **{"lambda": [[400.0]]},
        )
    )
    out = tmp_path / "cc.json.out"
    main(["cascade-check", "--config", str(cfg_file), "--out", str(out)])
    assert json.loads(out.read_text())["body"]["theta_pass"] is True


def _cascade_model(rng, n: int, r: int, field: bool) -> dict:
    q = random_constraint(rng, n)
    path = random_path(rng, q.matrix, r)
    spec = random_mixture(rng, n)
    lam = random_multiplier(rng, path, spec)
    return {
        "task": "cascade-check",
        "n": n,
        "mixture": spec.json_terms(),
        "Q": q.matrix.tolist(),
        "h": (rng.uniform(-0.4, 0.4, size=n) if field else np.zeros(n)).tolist(),
        "seed": 1,
        "path": {"xs": path.xs.tolist(), "Qs": path.qs.tolist()},
        "lambda": ((lam + lam.T) / 2.0).tolist(),
        "budgets": {"samples_per_level": [3] * r},
    }


WORKLOAD_CASCADE_MODEL = {
    "task": "cascade-check",
    "n": 2,
    "mixture": {"2": [0.5, 0.4], "4": [0.2, 0.15]},
    "Q": [[1.0, 0.5], [0.5, 1.0]],
    "h": [0.1, -0.2],
    "seed": 1,
    "path": {
        "xs": [0.0, 0.3, 0.7, 1.0],
        "Qs": [[[0.0, 0.0], [0.0, 0.0]], [[0.5, 0.25], [0.25, 0.5]], [[1.0, 0.5], [0.5, 1.0]]],
    },
    "lambda": [[2.0, 0.3], [0.3, 2.0]],
    "budgets": {"samples_per_level": [3, 3]},
}


def test_cascade_check_closed_forms_are_the_public_ones_bitwise():
    # the body reads its closed forms from one evaluate; they are the values
    # closed_form_Y0 and theta_term return, bit for bit
    rng = np.random.default_rng(2718)
    configs = [WORKLOAD_CASCADE_MODEL]
    configs += [_cascade_model(rng, n, r, field) for n in (1, 2, 3) for r in (1, 2, 3) for field in (False, True)]
    for raw in configs:
        config = load_config(json.dumps(raw))
        _, report = run(config)
        body = report["body"]
        target = closed_form_Y0(config.lam, config.path, config.h, config.mixture)
        theta = theta_term(config.path, config.mixture)
        assert body["closed_form_target"].hex() == target.hex()
        assert body["theta_term"].hex() == theta.hex()
        assert body["theta_pass"] is True


def test_render_float_17_digits():
    assert render_float(1.0 / 3.0) == "0.33333333333333331"
    assert render_float(float("-inf")) == '"-inf"'
    assert json.loads(to_json({"x": 1.0 / 3.0}))["x"] == 1.0 / 3.0
