"""Every workload, both modes, one table.

    python3 perfbench/report.py [--seed 1]

Runs ``run.py`` once untraced and once traced per workload, each for the
``run_seconds`` of ``BENCHMARK.json``, and prints each
metric with its unit, plus the checks: ``fail_rate``, ``value_err``, whether
the same-seed report bodies were byte-identical, and the trace overhead.
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run(workload: str, seed: int, seconds: float, trace: int) -> tuple[dict, dict]:
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600, check=True,
    )
    info_line, result_line = done.stdout.strip().splitlines()[-2:]
    return json.loads(info_line)["info"], json.loads(result_line)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    for w in spec["workloads"]:
        name = w["name"]
        for trace in (0, 1):
            info, result = run(name, args.seed, seconds, trace)
            print(f"{name}  trace={trace}  correct={result['correct']}  "
                  f"attempted={result['attempted']}  failed={result['failed']}  "
                  f"body_identical={info['body_identical']}")
            for metric, m in result["metrics"].items():
                print(f"  {metric:34s} {m['value']:.6g} {m['unit']}")
        print(f"  {'check':34s} {info['check']}")


if __name__ == "__main__":
    main()
