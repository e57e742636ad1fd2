"""Median wall time of each verify property over a few seeds.

Runs every property of `hilbertball.verify` ROUNDS times per seed at the
given dimension and trial count and prints, per property, the median
wall time over all those runs with its suite and whether it passed at
every seed, slowest first, then the median total of one round.  The timings are taken here, outside the report,
so `hilbertball verify` prints exactly what it prints without them.

With `--against DIR` the package under DIR/src runs each property too,
in the same process, right before or after each of this tree's runs of
it (the order alternating from round to round), so that both meet the
same load on the host; each row also gives that package's median and the ratio
of this tree's median to it.  A property the other package lacks reads
`-` there.

    python3 scripts/verify_timings.py --dim 4 --trials 200 --seeds 0 11 12345
    python3 scripts/verify_timings.py --against ../parent-checkout
"""

import argparse
import statistics
import sys
import time
from pathlib import Path

from kernel_timings import load_package, owned

ROUNDS = 5


def timed_property(package, name, cfg_args):
    """Wall time of one run of the named property, and whether it passed.
    The package's modules stand in sys.modules meanwhile, for its lazy
    imports."""
    verify, entries = package
    index = [entry[1] for entry in verify.PROPERTIES].index(name)
    cfg = verify.VerifyConfig(**cfg_args)
    held = owned()
    sys.modules.update(entries)
    try:
        start = time.perf_counter()
        result = verify.run_property(index, cfg)
        return time.perf_counter() - start, result.passed
    finally:
        owned()
        sys.modules.update(held)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--dim", type=int, default=4)
    ap.add_argument("--trials", type=int, default=200)
    ap.add_argument("--seeds", type=int, nargs="+", default=[0, 11, 12345])
    ap.add_argument("--against", help="a checkout whose src/ package is timed alongside")
    args = ap.parse_args()

    sources = [Path(__file__).resolve().parent.parent / "src"]
    if args.against:
        sources.append(Path(args.against) / "src")
    packages = [(mods["verify"], entries)
                for mods, entries in (load_package(src, ("verify",)) for src in sources)]
    names = [(suite, name) for suite, name, _, _ in packages[0][0].PROPERTIES]
    has = [{name for _, name, _, _ in verify.PROPERTIES} for verify, _ in packages]

    times = [{} for _ in packages]
    passed = {}
    totals = [[] for _ in packages]
    for seed in args.seeds:
        cfg_args = {"dim": args.dim, "trials": args.trials, "seed": seed}
        for turn in range(ROUNDS):
            order = list(range(len(packages)))[::1 if turn % 2 == 0 else -1]
            total = [0.0] * len(packages)
            for suite, name in names:
                for side in order:
                    if name not in has[side]:
                        continue
                    span, ok = timed_property(packages[side], name, cfg_args)
                    total[side] += span
                    times[side].setdefault(name, []).append(span)
                    if side == 0:
                        passed[name] = passed.get(name, True) and ok
            for side, spans in enumerate(totals):
                spans.append(total[side])

    print("# median wall time over %d rounds at each of seeds %s, dim %d, %d trials"
          % (ROUNDS, " ".join(map(str, args.seeds)), args.dim, args.trials))
    head = "%-32s %-9s %10s" % ("property", "suite", "median_s")
    if args.against:
        head += " %10s %7s" % ("other_s", "ratio")
    print(head + "  passed")

    def other(name):
        if name not in times[1]:
            return " %10s %7s" % ("-", "-")
        mine, theirs = statistics.median(times[0][name]), statistics.median(times[1][name])
        return " %10.4f %7.2f" % (theirs, mine / theirs)

    for suite, name in sorted(names, key=lambda key: -statistics.median(times[0][key[1]])):
        line = "%-32s %-9s %10.4f" % (name, suite, statistics.median(times[0][name]))
        if args.against:
            line += other(name)
        print(line + "  %s" % passed[name])
    line = "%-32s %-9s %10.4f" % ("total", "", statistics.median(totals[0]))
    if args.against:
        line += " %10.4f %7.2f" % (statistics.median(totals[1]),
                                   statistics.median(totals[0]) / statistics.median(totals[1]))
    print(line)


if __name__ == "__main__":
    main()
