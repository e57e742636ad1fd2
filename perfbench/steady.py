"""Run-to-run spread of the end-to-end metrics.

    python3 perfbench/steady.py [--seeds 10] [--first-seed 100] [--out FILE]

Runs the benchmark once per seed and workload of BENCHMARK.json, for
its run_seconds, one process at a time, rotating the workload order
from one seed to the next so that slow spells of the host fall on
different workloads.  For each workload and
metric it prints the quartiles of the runs and the quartile spread
(q3 - q1) / median next to the metric's bound in BENCHMARK.json, and
the spreads of the unscaled set-up and timed-phase figures from the
record lines, and the failed and attempted operations summed over the
seeds; two sets of runs of the same code at the same seeds must give
the same sums.  Raw
results go to the JSON file named by --out.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def spread(values):
    """Quartile spread (q3 - q1) / median."""
    q1, med, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / med


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=100)
    ap.add_argument("--out", default=None)
    args = ap.parse_args()
    if args.seeds < 2:
        ap.error("quartiles need --seeds 2 or more")

    values = {w: {} for w in names}
    walls = {w: [] for w in names}
    failed_frac = {w: [] for w in names}
    records = {w: [] for w in names}
    for i in range(args.seeds):
        seed = args.first_seed + i
        order = names[i % len(names):] + names[: i % len(names)]
        for w in order:
            t0 = time.perf_counter()
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", w, "--seed", str(seed),
                 "--seconds", str(spec["run_seconds"]), "--trace", "0"],
                cwd=ROOT, capture_output=True, text=True, timeout=600)
            walls[w].append(time.perf_counter() - t0)
            if proc.returncode != 0:
                sys.exit(f"{w} seed {seed}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
            record, result = (json.loads(line) for line in proc.stdout.splitlines()[-2:])
            if not result["correct"]:
                print(f"{w} seed {seed}: correct = false: {record['unexpected']}")
            for name, m in result["metrics"].items():
                values[w].setdefault(name, []).append(m["value"])
            failed_frac[w].append(record["failed_frac"])
            records[w].append(record)
            print(f"seed {seed} {w:16s} {walls[w][-1]:6.1f}s " + " ".join(
                f"{k}={m['value']:.4g}" for k, m in result["metrics"].items()), flush=True)

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    print(f"\n{'workload':16s} {'metric':12s} {'q1':>11s} {'median':>11s} {'q3':>11s} {'spread':>7s} {'bound':>6s}")
    for w in names:
        for name, vals in values[w].items():
            q1, med, q3 = statistics.quantiles(vals, n=4)
            flag = "" if spread(vals) < bounds[name] / 3 else "  <-- above bound/3"
            print(f"{w:16s} {name:12s} {q1:11.5g} {med:11.5g} {q3:11.5g} {spread(vals):7.3f} {bounds[name]:6.2f}{flag}")
        raw = {"setup_s": [statistics.median(r["setup_runs_s"]) for r in records[w]],
               "ops_per_s": [r["raw_ops_per_s"] for r in records[w]],
               "op_p50_ms": [r["raw_op_p50_ms"] for r in records[w]]}
        print(f"{w:16s} {'unscaled':12s} " + "   ".join(
            f"{name} {spread(vals):.3f}" for name, vals in raw.items()))
        print(f"{w:16s} {'wall_s':12s} median {statistics.median(walls[w]):.1f}"
              f"   failed_frac median {statistics.median(failed_frac[w]):.3f}"
              f"   failed {sum(r['failed'] for r in records[w])}"
              f" of {sum(r['attempted'] for r in records[w])} over all seeds")
    if args.out:
        Path(args.out).write_text(json.dumps({"values": values, "walls": walls, "records": records}, indent=1))


if __name__ == "__main__":
    main()
