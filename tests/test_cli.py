import json
import math

import numpy as np
import pytest

from sphglass.cli import ConfigError, load_config, main, run, serialize_config
from sphglass.reporting import render_float, to_json

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


def test_round_trip():
    cfg = load_config(config_text())
    again = load_config(json.dumps(serialize_config(cfg)))
    assert serialize_config(cfg) == serialize_config(again)


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

    monkeypatch.setattr(optimizer._PathContext, "value", lambda self, lam: 0.0)
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


def _config_error(tmp_path, capsys, task, **overrides) -> str:
    # runs the subcommand and returns the message of its config error
    cfg_file = tmp_path / "bad.json"
    cfg_file.write_text(config_text(task=task, **overrides))
    assert main([task, "--config", str(cfg_file)]) == 1
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
    ],
    ids=["N-not-integer", "disorder-reps-zero", "config-samples-zero", "q12-out-of-range", "value-not-number",
         "samples-per-level-not-list", "samples-per-level-entry-not-integer"],
)
def test_bad_budget_or_sweep_value_names_its_field(tmp_path, capsys, task, overrides, field):
    q = [[1.0, 0.0], [0.0, 1.0]]
    pair = {"n": 2, "mixture": {"2": [0.3, 0.3]}, "Q": q, "h": [0.0, 0.0], "lambda": [[2.0, 0.0], [0.0, 2.0]],
            "path": {"xs": [0.0, 0.5, 1.0], "Qs": [[[0.0, 0.0], [0.0, 0.0]], q]}}
    message = _config_error(tmp_path, capsys, task, **pair, **overrides)
    assert message.startswith(field)


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


def test_cascade_check_takes_integral_float_sample_counts(tmp_path):
    reports = []
    for samples in ([400], [400.0]):
        cfg_file = tmp_path / "cc.json"
        cfg_file.write_text(
            config_text(
                task="cascade-check",
                path={"xs": [0.0, 0.9, 1.0], "Qs": [[[0.0]], [[1.0]]]},
                budgets={"samples_per_level": samples},
                **{"lambda": [[1.18]]},
            )
        )
        out = tmp_path / "cc.json.out"
        main(["cascade-check", "--config", str(cfg_file), "--out", str(out)])
        reports.append(json.loads(out.read_text())["body"])
    assert reports[0] == reports[1]
    assert reports[0]["nested_mc"]["samples_per_level"] == [400]


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


def test_render_float_17_digits():
    assert render_float(1.0 / 3.0) == "0.33333333333333331"
    assert render_float(float("-inf")) == '"-inf"'
    assert json.loads(to_json({"x": 1.0 / 3.0}))["x"] == 1.0 / 3.0
