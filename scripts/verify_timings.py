"""Median wall time of each verify property over a few seeds.

Runs every property of `hilbertball.verify` once per seed at the given
dimension and trial count and prints, per property, the median wall
time with its suite and whether it passed at every seed, slowest first,
then the median total.  The timings are taken here, outside the report,
so `hilbertball verify` prints exactly what it prints without them.

    python3 scripts/verify_timings.py --dim 4 --trials 200 --seeds 0 11 12345
"""

import argparse
import statistics
import time

from hilbertball import verify


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--dim", type=int, default=4)
    ap.add_argument("--trials", type=int, default=200)
    ap.add_argument("--seeds", type=int, nargs="+", default=[0, 11, 12345])
    args = ap.parse_args()

    times = {}
    passed = {}
    totals = []
    for seed in args.seeds:
        cfg = verify.VerifyConfig(dim=args.dim, trials=args.trials, seed=seed)
        total = 0.0
        for index, (suite, name, _, _) in enumerate(verify.PROPERTIES):
            start = time.perf_counter()
            result = verify.run_property(index, cfg)
            span = time.perf_counter() - start
            total += span
            times.setdefault((suite, name), []).append(span)
            passed[name] = passed.get(name, True) and result.passed
        totals.append(total)

    print("# median wall time over seeds %s, dim %d, %d trials"
          % (" ".join(map(str, args.seeds)), args.dim, args.trials))
    print("%-32s %-9s %10s  %s" % ("property", "suite", "median_s", "passed"))
    rows = sorted(times.items(), key=lambda kv: -statistics.median(kv[1]))
    for (suite, name), spans in rows:
        print("%-32s %-9s %10.4f  %s"
              % (name, suite, statistics.median(spans), passed[name]))
    print("%-32s %-9s %10.4f" % ("total", "", statistics.median(totals)))


if __name__ == "__main__":
    main()
