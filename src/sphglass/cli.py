"""Config-driven command line interface.

Subcommands: ``evaluate``, ``minimize``, ``verify-identities``,
``cascade-check``, ``mc-estimate``, ``sweep``.  Every run loads one JSON
config describing the model (n, mixture, Q, h), task parameters, and a seed;
the report is JSON (or CSV for tabular sweeps) with the timestamp isolated in
a header so rerunning with the same seed and worker count reproduces the
body byte for byte on the same BLAS thread count.

Exit status: 0 on success, 2 when the constraint is degenerate and the
infimum diverges (the certificate is in the report), 1 on any error, which
is printed to stderr as ``{"error": {"kind": ..., "message": ...}}``.  A
config key that no task reads is a config error, so a typo cannot fall back
to a default.
"""

from __future__ import annotations

import argparse
import json
import sys
from contextlib import contextmanager
from dataclasses import dataclass, field as dataclass_field
from pathlib import Path

import numpy as np

from sphglass import cascade as cascade_mod
from sphglass import montecarlo as mc_mod
from sphglass.functional import InvalidPath, NotInL, evaluate
from sphglass.geometry import ConstraintMatrix, DiscretePath, check_field, check_path
from sphglass.mixture import InvalidField, MixtureSpec, check_count, check_real, check_symmetric
from sphglass.optimizer import PathSearchConfig, minimize_over_paths
from sphglass.reporting import make_report, render_report, to_json
from sphglass import verify as verify_mod

__all__ = ["ConfigError", "RunConfig", "load_config", "run", "main"]

TASKS = ("evaluate", "minimize", "verify-identities", "cascade-check", "mc-estimate", "sweep")
STOCHASTIC_TASKS = ("minimize", "verify-identities", "cascade-check", "mc-estimate", "sweep")
# the keys some task reads, at the top level, in "budgets" (those of every
# task, since a config without "task" can serve several subcommands), in
# "sweep" and in "path"
CONFIG_KEYS = (
    "n", "mixture", "Q", "h", "task", "seed", "workers", "format", "output",
    "path", "lambda", "search", "budgets", "sweep",
)
BUDGET_KEYS = (
    "identity_instances", "jacobi_instances", "mc_instances", "mc_samples", "samples_per_level",
    "N", "epsilon", "disorder_reps", "config_samples",
)
SWEEP_KEYS = ("parameter", "values")
PATH_KEYS = ("xs", "Qs")


class ConfigError(ValueError):
    """Semantic config problem; the message names the offending field.

    ``details`` optionally carries a machine-readable payload (for example a
    path validation report) that the CLI renders as structured JSON.
    """

    def __init__(self, message: str, details: dict | None = None):
        super().__init__(message)
        self.details = details


@dataclass
class RunConfig:
    n: int
    mixture: MixtureSpec
    q: ConstraintMatrix
    h: np.ndarray
    task: str | None = None
    seed: int | None = None
    workers: int = 1
    out: str | None = None
    fmt: str = "json"
    path: DiscretePath | None = None
    lam: np.ndarray | None = None
    search: PathSearchConfig = dataclass_field(default_factory=PathSearchConfig)
    budgets: dict = dataclass_field(default_factory=dict)
    sweep: dict = dataclass_field(default_factory=dict)


def _require(cond: bool, message: str):
    if not cond:
        raise ConfigError(message)


@contextmanager
def _named(prefix: str = "", fields: dict[str, str] | None = None):
    """Re-raise the package's ``InvalidField`` as a ``ConfigError`` that
    names the config field ``prefix + field`` (or ``fields[field]``)."""
    try:
        yield
    except InvalidField as err:
        name = (fields or {}).get(err.field, prefix + err.field)
        raise ConfigError(f'"{name}" {err.rule}') from None


def _known_keys(raw: dict, known: tuple[str, ...], prefix: str = ""):
    """Refuse the keys of ``raw`` outside ``known``, naming each as ``prefix + key``."""
    unknown = [f'"{prefix}{key}"' for key in raw if key not in known]
    _require(not unknown, f"{', '.join(unknown)}: no task reads this config key (known: {', '.join(known)})")


def _number(raw, name: str, minimum: int | None = None):
    """``raw`` as a count of at least ``minimum`` or, with none, a finite
    real; an error names the config field ``name``."""
    with _named():
        return check_real(raw, name) if minimum is None else check_count(raw, name, minimum)


def _seed(raw) -> int:
    """The "seed" field or ``--seed`` flag: a u64 integer."""
    seed = _number(raw, "seed", minimum=0)
    _require(seed < 2**64, f'"seed" must be a u64 integer, got {seed!r}')
    return seed


def _workers(raw) -> int:
    """The "workers" field or ``--workers`` flag: a positive integer."""
    return _number(raw, "workers", minimum=1)


def _budget(config: RunConfig, key: str, default: int, minimum: int) -> int:
    """The count ``budgets[key]`` (or ``default``) through ``_number``."""
    return _number(config.budgets.get(key, default), f"budgets.{key}", minimum)


def _array(raw, name: str) -> np.ndarray:
    """A config array field as floats: rectangular, and JSON numbers only."""
    try:
        arr = np.asarray(raw)
    except ValueError:  # ragged
        arr = None
    _require(
        arr is not None and arr.dtype.kind in "iuf",
        f'"{name}" must be a rectangular array of numbers, got {raw!r}',
    )
    return arr.astype(float)


def _parse_matrix(raw, n: int, name: str) -> np.ndarray:
    mat = _array(raw, name)
    _require(mat.shape == (n, n), f'"{name}" must be an {n}x{n} matrix, got shape {mat.shape}')
    try:
        return check_symmetric(mat, f'"{name}"')
    except ValueError as err:
        raise ConfigError(str(err)) from None


def load_config(text: str) -> RunConfig:
    """Parse and validate a config document.

    JSON syntax errors surface with line/column; semantic errors name the
    violated field and invariant.
    """
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as err:
        raise ConfigError(f"config parse error at line {err.lineno}, column {err.colno}: {err.msg}") from None
    _require(isinstance(raw, dict), "config must be a JSON object")
    _known_keys(raw, CONFIG_KEYS)

    _require("n" in raw, 'missing required field "n"')
    n = _number(raw["n"], "n", minimum=1)

    mixture_raw = raw.get("mixture", {})
    _require(isinstance(mixture_raw, dict), '"mixture" must map degree strings to coefficient arrays')
    try:
        mixture = MixtureSpec.from_json_terms(n, mixture_raw)
    except ValueError as err:
        raise ConfigError(f'"mixture" invalid: {err}') from None

    _require("Q" in raw, 'missing required field "Q"')
    qmat = _parse_matrix(raw["Q"], n, "Q")
    try:
        q = ConstraintMatrix(qmat)
    except ValueError as err:
        raise ConfigError(f'"Q" invalid: {err}') from None

    h = _array(raw.get("h", np.zeros(n)), "h")
    try:
        h = check_field(h, n, '"h"')
    except ValueError as err:
        raise ConfigError(str(err)) from None

    task = raw.get("task")
    if task is not None:
        _require(task in TASKS, f'"task" must be one of {TASKS}, got {task!r}')

    seed = raw.get("seed")
    if seed is not None:
        seed = _seed(seed)

    workers = _workers(raw.get("workers", 1))

    fmt = raw.get("format", "json")
    _require(fmt in ("json", "csv"), '"format" must be "json" or "csv"')

    path = None
    if "path" in raw:
        praw = raw["path"]
        _require(isinstance(praw, dict) and "xs" in praw and "Qs" in praw, '"path" needs "xs" and "Qs"')
        _known_keys(praw, PATH_KEYS, "path.")
        xs = _array(praw["xs"], "path.xs")
        qs = _array(praw["Qs"], "path.Qs")
        try:
            path = DiscretePath(xs=xs, qs=qs)
            check_path(path, q)
        except InvalidPath as err:
            raise ConfigError(f'"path" invalid: {err}', details=err.report.to_dict()) from None
        except ValueError as err:
            raise ConfigError(f'"path" invalid: {err}') from None

    lam = None
    if "lambda" in raw:
        lam = _parse_matrix(raw["lambda"], n, "lambda")

    search_raw = raw.get("search", {})
    _require(isinstance(search_raw, dict), '"search" must be an object')
    try:
        with _named("search."):
            search = PathSearchConfig(**search_raw)
    except TypeError as err:  # an unknown field
        raise ConfigError(f'"search" invalid: {err}') from None

    budgets = raw.get("budgets", {})
    _require(isinstance(budgets, dict), '"budgets" must be an object')
    _known_keys(budgets, BUDGET_KEYS, "budgets.")
    sweep = raw.get("sweep", {})
    _require(isinstance(sweep, dict), '"sweep" must be an object')
    _known_keys(sweep, SWEEP_KEYS, "sweep.")

    out = raw.get("output")
    _require(out is None or isinstance(out, str), f'"output" must be a file path string, got {out!r}')

    return RunConfig(
        n=n,
        mixture=mixture,
        q=q,
        h=h,
        task=task,
        seed=seed,
        workers=workers,
        out=out,
        fmt=fmt,
        path=path,
        lam=lam,
        search=search,
        budgets=budgets,
        sweep=sweep,
    )


# ---------------------------------------------------------------------------
# task runners


def _run_evaluate(config: RunConfig) -> tuple[int, dict]:
    _require(config.path is not None, 'task "evaluate" requires a "path"')
    _require(config.lam is not None, 'task "evaluate" requires a "lambda"')
    breakdown = evaluate(config.lam, config.path, config.q, config.h, config.mixture)
    return 0, breakdown.to_dict()


def _run_minimize(config: RunConfig) -> tuple[int, dict]:
    report = minimize_over_paths(
        config.q, config.h, config.mixture, config.search, seed=config.seed or 0
    )
    return (2 if report.degenerate else 0), report.to_dict()


def _run_verify(config: RunConfig) -> tuple[int, dict]:
    seed = config.seed or 0
    identity_count = _budget(config, "identity_instances", 100, minimum=0)
    jacobi_count = _budget(config, "jacobi_instances", 50, minimum=0)
    mc_count = _budget(config, "mc_instances", 0, minimum=0)
    _require(
        identity_count + jacobi_count + mc_count > 0,
        '"budgets" selects no check: identity_instances, jacobi_instances and mc_instances are all 0',
    )
    checks = verify_mod.identity_suite(seed, count=identity_count)
    checks += verify_mod.jacobi_suite(seed, count=jacobi_count)
    if mc_count:
        mc_samples = _budget(config, "mc_samples", 1_000_000, minimum=2)  # the stderr needs two
        checks += verify_mod.mc_identity_check(seed, count=mc_count, samples=mc_samples)
    passed = all(c["pass"] for c in checks)
    body = {
        "checks": checks,
        "total": len(checks),
        "failures": sum(1 for c in checks if not c["pass"]),
        "passed": passed,
    }
    return (0 if passed else 1), body


def _run_cascade_check(config: RunConfig) -> tuple[int, dict]:
    _require(config.path is not None, 'task "cascade-check" requires a "path"')
    _require(config.lam is not None, 'task "cascade-check" requires a "lambda"')
    seed = config.seed or 0
    raw = config.budgets.get("samples_per_level", [2000] * config.path.r)
    _require(isinstance(raw, list), f'"budgets.samples_per_level" must be an array, got {raw!r}')
    # the outermost count feeds the stderr of the pass rule, which needs two
    samples = [
        _number(s, f"budgets.samples_per_level[{i}]", minimum=2 if i == 0 else 1) for i, s in enumerate(raw)
    ]
    cspec = cascade_mod.CascadeSpec(config.path, config.mixture, config.lam, config.h)
    # the closed forms of the recursion and of the theta sum are terms of the
    # functional; none of them reads Q, which the path ends at
    closed = evaluate(config.lam, config.path, config.q, config.h, config.mixture)
    target = closed.logdet_term + closed.field_term + closed.cascade_term
    # its length and leaf-limit rules, and the caps on r ("path") and n
    with _named(fields={"samples": "budgets.samples_per_level"}):
        result = cascade_mod.nested_recursion_mc(cspec, samples, seed)
    gap = abs(result.estimate - target)
    recursion_pass = bool(gap <= 3.0 * result.stderr or gap <= 1e-12)
    tt = closed.theta_term
    tc = cascade_mod.theta_cascade_value(config.path, config.mixture)
    theta_pass = bool(abs(tt - tc) <= 1e-12 * max(1.0, abs(tt)))
    body = {
        "closed_form_target": target,
        "nested_mc": result.to_dict(),
        "recursion_abs_gap": gap,
        "recursion_pass": recursion_pass,
        "theta_term": tt,
        "theta_cascade_value": tc,
        "theta_pass": theta_pass,
        "passed": recursion_pass and theta_pass,
    }
    return (0 if body["passed"] else 1), body


def _run_mc_estimate(config: RunConfig) -> tuple[int, dict]:
    # the estimator owns the rules of its budgets; they go in as loaded
    budgets = config.budgets
    with _named("budgets."):
        result = mc_mod.estimate_free_energy(
            config.q,
            budgets.get("N", 32),
            budgets.get("epsilon", 0.01),
            config.mixture,
            config.h,
            budgets.get("disorder_reps", 100),
            budgets.get("config_samples", 2000),
            config.seed or 0,
            workers=config.workers,
        )
    return 0, result.to_dict()


def _run_sweep(config: RunConfig) -> tuple[int, dict]:
    sweep = config.sweep
    _require(bool(sweep), 'task "sweep" requires a "sweep" object')
    parameter = sweep.get("parameter")
    values = sweep.get("values")
    _require(parameter in ("beta_scale", "q12"), '"sweep.parameter" must be "beta_scale" or "q12"')
    _require(isinstance(values, list) and values, '"sweep.values" must be a non-empty array')
    _require(parameter == "beta_scale" or config.n == 2, 'sweep over "q12" requires n = 2')
    models = []  # every row's model is checked before the first search runs
    for i, raw in enumerate(values):
        value = _number(raw, f"sweep.values[{i}]")
        try:
            if parameter == "beta_scale":
                terms = {p: value * beta for p, beta in config.mixture.terms.items()}
                models.append((value, MixtureSpec(n=config.n, terms=terms), config.q))
            else:
                q_i = ConstraintMatrix(np.array([[1.0, value], [value, 1.0]]))
                models.append((value, config.mixture, q_i))
        except ValueError as err:
            raise ConfigError(f'"sweep.values[{i}]" invalid: {raw!r}: {err}') from None
    rows = []
    for i, (value, spec_i, q_i) in enumerate(models):
        report = minimize_over_paths(
            q_i, config.h, spec_i, config.search, seed=(config.seed or 0) + i
        )
        rows.append(
            {
                "parameter": parameter,
                "value": value,
                "best_value": report.best_value,
                "degenerate": report.degenerate,
            }
        )
    return 0, {"rows": rows, "columns": ["parameter", "value", "best_value", "degenerate"]}


_RUNNERS = {
    "evaluate": _run_evaluate,
    "minimize": _run_minimize,
    "verify-identities": _run_verify,
    "cascade-check": _run_cascade_check,
    "mc-estimate": _run_mc_estimate,
    "sweep": _run_sweep,
}


def run(config: RunConfig) -> tuple[int, dict]:
    """Dispatch to the configured task; returns (exit status, report).

    Only ``mc-estimate`` fans out, so any other task with ``workers`` != 1
    raises a ``ConfigError`` that names "workers".
    """
    _require(config.task in TASKS, f'"task" must be set to one of {TASKS}')
    if config.task in STOCHASTIC_TASKS:
        _require(config.seed is not None, f'task "{config.task}" requires a "seed"')
    if config.workers != 1:
        _require(config.task == "mc-estimate", f'"workers" must be 1 for task "{config.task}", got {config.workers}')
    code, body = _RUNNERS[config.task](config)
    report = make_report(config.task, config.seed, config.workers, body)
    return code, report


def _error(kind: str, err: Exception, details: dict | None = None) -> int:
    """Print ``{"error": {"kind", "message"[, "details"]}}`` to stderr; returns exit status 1."""
    payload = {"kind": kind, "message": str(err)}
    if details is not None:
        payload["details"] = details
    print(to_json({"error": payload}), file=sys.stderr)
    return 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="sphglass",
        description="Constrained free energy of coupled spherical mixed p-spin glasses",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in TASKS:
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="JSON config file")
        p.add_argument("--seed", type=int, default=None, help="override the config seed")
        p.add_argument("--workers", type=int, default=None, help="worker processes for mc-estimate's replicates (other tasks: 1)")
        p.add_argument("--out", default=None, help="output file (default: stdout)")
        p.add_argument("--format", dest="fmt", choices=["json", "csv"], default=None)
    args = parser.parse_args(argv)

    try:
        config_text = Path(args.config).read_text()
    except (OSError, UnicodeDecodeError) as err:
        return _error("io", err)
    try:
        config = load_config(config_text)
        if config.task is not None and config.task != args.command:
            raise ConfigError(
                f'config task {config.task!r} conflicts with subcommand {args.command!r}'
            )
        config.task = args.command
        if args.seed is not None:
            config.seed = _seed(args.seed)
        if args.workers is not None:
            config.workers = _workers(args.workers)
        if args.out is not None:
            config.out = args.out
        if args.fmt is not None:
            config.fmt = args.fmt
        code, report = run(config)
    except ConfigError as err:
        return _error("config", err, err.details)
    except (NotInL, InvalidPath) as err:
        return _error(type(err).__name__, err)
    except (ValueError, np.linalg.LinAlgError) as err:
        return _error("value", err)
    except RuntimeError as err:
        return _error("runtime", err)

    columns = report["body"].get("columns") if isinstance(report["body"], dict) else None
    if config.fmt == "csv" and columns:
        text = render_report({"header": report["header"], "body": report["body"]["rows"]}, "csv", columns=columns)
    else:
        text = render_report(report, config.fmt)
    try:
        if config.out:
            Path(config.out).write_text(text)
        else:
            sys.stdout.write(text)
    except OSError as err:
        return _error("io", err)
    return code


if __name__ == "__main__":
    raise SystemExit(main())
