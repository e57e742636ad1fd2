"""Smoke run of the benchmark at tiny input sizes.

    python3 perfbench/smoke.py

Runs every workload of BENCHMARK.json untraced and traced with
`--size tiny`, one process at a time, and checks that each run exits 0,
reports itself correct, and emits exactly the metrics BENCHMARK.json
names, with their units.  Takes about two minutes; it is not part of
the test suite, because the benchmark is not a test gate.
"""

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def check(spec, workload, trace):
    argv = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "7",
            "--seconds", "1", "--trace", str(trace), "--size", "tiny"]
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=300)
    if proc.returncode != 0:
        return [f"exit code {proc.returncode}: {proc.stderr.strip()[-300:]}"]
    result = json.loads(proc.stdout.splitlines()[-1])
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"result keys {sorted(result)}")
    if result.get("correct") is not True:
        problems.append("run reports correct = false: " + proc.stdout.splitlines()[-2][-300:])
    wanted = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    got = result.get("metrics", {})
    if set(got) != set(wanted):
        problems.append(f"missing {sorted(set(wanted) - set(got))}, extra {sorted(set(got) - set(wanted))}")
    for name, unit in wanted.items():
        entry = got.get(name, {})
        if entry.get("unit") != unit or not isinstance(entry.get("value"), (int, float)):
            problems.append(f"{name}: {entry}")
    return problems


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    failed = False
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            problems = check(spec, workload, trace)
            print(f"{workload:16s} trace={trace} {'ok' if not problems else 'FAIL'}")
            for p in problems:
                print("    " + p)
            failed = failed or bool(problems)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
