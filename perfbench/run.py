"""Benchmark of the hilbertball package, one workload per invocation.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the package is imported from its
`src/`.  Set-up (importing the package, generating the operation pool
from the seed, writing the input files, one warm-up call) happens twice
untimed before the timed phase, then in one block of timed set-ups
before it and one after it, each block at least SETUP_REPEATS set-ups
and SETUP_SECONDS long; `setup_s` is the median of the timed set-ups.
The timed phase runs one operation at a time, closed loop, cycling
through the pool until `--seconds` have passed and every operation of
the pool has run.  Every operation's output is then checked against an
independent oracle, and repeated executions must reproduce its first
output exactly.  `attempted` and `failed` count the pool's operations,
not their executions, so they depend on the seed alone.

With `--trace 0` the last stdout line carries the end-to-end metrics;
with `--trace 1` a fixed list of operations runs once untraced and once
under `tracing.Tracer`, and the last line carries the per-layer metrics.
The line before it is a JSON record of the environment, the failure
breakdown and the figures that do not fit the last line's schema.
`--size tiny` shrinks every input for a smoke run (see smoke.py).
"""

import os
import sys
import time

START = time.perf_counter()
# Matrices are at most 17x17: one BLAS thread, set before numpy loads.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS
sys.dont_write_bytecode = True  # leave no bytecode caches in the checkout

import argparse  # noqa: E402
import contextlib  # noqa: E402
import bisect  # noqa: E402
import gc  # noqa: E402
import importlib  # noqa: E402
import itertools  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import warnings  # noqa: E402
from array import array  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
# Each of the two blocks of timed set-ups (see timed_set_ups).
SETUP_REPEATS = 3
SETUP_SECONDS = 2.0


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=("full", "tiny"), default="full")
    return p.parse_args(argv)


def import_package():
    """Import hilbertball afresh from this checkout's src/.

    Modules of an earlier import are dropped first, so each set-up pays
    for executing the package's modules; third-party modules stay loaded.
    """
    for name in [n for n in sys.modules if n == "hilbertball" or n.startswith("hilbertball.")]:
        del sys.modules[name]
    hb = importlib.import_module("hilbertball")
    importlib.import_module("hilbertball.cli")  # not imported by the package
    if SRC.resolve() not in Path(hb.__file__).resolve().parents:
        sys.exit(f"perfbench: hilbertball came from {hb.__file__}, not {SRC}")
    return hb


def environment():
    import scipy

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fp:
            for line in fp:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "blas_threads": BLAS_THREADS,
    }


class HostClock:
    """Samples how fast the host runs package-like code, from a timer.

    On a shared host the speed of identical work swings by up to 2x
    within a minute, with CPU time tracking wall time.  While the clock
    runs, a timer signal every INTERVAL seconds times a fixed reference
    kernel: small-matrix numpy work in a Python loop, like the package's
    own.  The samples fall uniformly in time, also inside long
    operations.  `measure` leaves their time out of what it measures,
    and `scale` brings each measured duration to the speed at which the
    kernel takes REFERENCE_S, using the samples taken around it.
    """

    INTERVAL = 0.02
    WINDOW = 0.5  # seconds of samples on either side of a measured span
    # The kernel's time on an uncontended 2-vCPU Xeon host.  Only ratios
    # between runs on one host matter, so any fixed value would do.
    REFERENCE_S = 0.35e-3

    def __init__(self):
        self.M = np.arange(25.0).reshape(5, 5) / 25.0
        self.starts, self.durations = [], []

    def kernel(self):
        s = 0.0
        for i in range(150):
            s += float(np.linalg.norm(self.M @ self.M[i % 5]))
        return s

    def _tick(self, signum, frame):
        t0 = time.perf_counter()
        self.kernel()
        self.starts.append(t0)
        self.durations.append(time.perf_counter() - t0)

    def __enter__(self):
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, self.INTERVAL, self.INTERVAL)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def measure(self, fn, *args):
        """(fn(*args), span): the span is (start, end, duration without
        the kernel runs inside it)."""
        n = len(self.starts)
        t0 = time.perf_counter()
        result = fn(*args)
        t1 = time.perf_counter()
        inside = sum(d for s, d in zip(self.starts[n:], self.durations[n:]) if t0 <= s <= t1)
        return result, (t0, t1, t1 - t0 - inside)

    def scale(self, spans):
        """Each span's duration at the reference speed, by the mean kernel
        time of the samples within WINDOW seconds of the span."""
        total = list(itertools.accumulate(self.durations, initial=0.0))
        scaled = []
        for t0, t1, duration in spans:
            i = bisect.bisect_left(self.starts, t0 - self.WINDOW)
            j = bisect.bisect_right(self.starts, t1 + self.WINDOW)
            scaled.append(duration * self.REFERENCE_S * (j - i) / (total[j] - total[i]))
        return scaled


def tail(latencies):
    """Latency at the highest percentile that leaves at least ten
    operations beyond it, with that percentile.  With 20 operations or
    fewer that percentile would lie below the median, so the median is
    reported instead, as percentile 50."""
    ordered = sorted(latencies)
    n = len(ordered)
    if n <= 20:
        return statistics.median(ordered), 50.0
    return ordered[n - 11], 100.0 * (n - 10) / n


def set_up(wl_class, args, workdir):
    hb = import_package()
    wl = wl_class(hb, args.seed, args.size == "tiny", str(workdir))
    return wl, wl.setup()


@contextlib.contextmanager
def bytecode_under(path):
    """Keep the bytecode of modules imported in the block under `path`,
    so that import time neither depends on caches in src/ nor leaves any."""
    sys.pycache_prefix, sys.dont_write_bytecode = str(path), False
    try:
        yield
    finally:
        sys.pycache_prefix, sys.dont_write_bytecode = None, True


def timed_set_ups(args, wl_class, workdir, clock):
    """One block of timed set-ups, at least SETUP_REPEATS of them and
    until SETUP_SECONDS have passed: (workload, pool, spans); the last
    set-up's workload and pool are returned."""
    spans = []
    with bytecode_under(workdir / "pycache"):
        start = time.perf_counter()
        while len(spans) < SETUP_REPEATS or time.perf_counter() - start < SETUP_SECONDS:
            (wl, ops), span = clock.measure(set_up, wl_class, args, workdir)
            spans.append(span)
    return wl, ops, spans


def set_up_phase(args, wl_class, workdir, clock):
    """Set-ups before the timed phase: (workload, pool, spans of the
    timed set-ups, cold start).

    The first set-up is the cold start, which also loads the third-party
    modules.  The second compiles the package into `workdir`.  Both are
    untimed; then comes one block of timed set-ups.
    """
    set_up(wl_class, args, workdir)
    cold_start_s = time.perf_counter() - START
    with bytecode_under(workdir / "pycache"):
        set_up(wl_class, args, workdir)
    return (*timed_set_ups(args, wl_class, workdir, clock), cold_start_s)


def timed_run(wl, ops, seconds, clock):
    """Closed loop over the pool until `seconds` have passed and every
    operation of the pool has run at least once.

    The clock's spans are kept as three arrays (starts, ends,
    durations), so that their bookkeeping adds little to the peak
    resident memory of runs with many short operations.
    """
    first, executed, mismatched = {}, [], set()
    spans = (array("d"), array("d"), array("d"))
    start = time.perf_counter()
    while len(executed) < len(ops) or time.perf_counter() - start < seconds:
        op = ops[len(executed) % len(ops)]
        out, span = clock.measure(wl.run, op)
        for column, value in zip(spans, span):
            column.append(value)
        executed.append(op.index)
        out = wl.collect(op, out)
        if op.index not in first:
            first[op.index] = out
        elif out != first[op.index]:
            mismatched.add(op.index)
    return first, spans, executed, mismatched


def latency_metrics(latencies, executed):
    """Timing metrics of the timed phase from the scaled latencies.

    An operation's latency is the median of its executions, and each
    operation of the pool counts once.  The mix of operations is thus
    fixed by the seed, however many executions fit in the run, and a
    rare stall of a short operation, which runs many times, does not
    become the tail.
    """
    runs = {}
    for idx, lat in zip(executed, latencies):
        runs.setdefault(idx, []).append(lat)
    per_op = [statistics.median(v) for v in runs.values()]
    op_tail, tail_pct = tail(per_op)
    return {
        "ops_per_s": {"value": len(per_op) / sum(per_op), "unit": "1/s"},
        "op_p50_ms": {"value": 1e3 * statistics.median(per_op), "unit": "ms"},
        "op_tail_ms": {"value": 1e3 * op_tail, "unit": "ms"},
    }, tail_pct


def traced_run(wl, ops):
    """The same operations untraced, then traced: outputs, spans, overhead."""
    from tracing import Tracer

    def once():
        outs, busy = [], 0.0
        for op in ops:
            t0 = time.perf_counter()
            out = wl.run(op)
            busy += time.perf_counter() - t0
            outs.append(wl.collect(op, out))
        return outs, busy

    plain, plain_s = once()
    tracer = Tracer()
    tracer.install()
    try:
        traced, traced_s = once()
    finally:
        tracer.uninstall()
    return tracer, plain, traced, traced_s - plain_s


def run(args, wl_class, workdir):
    """One benchmark run: (record line, result line)."""
    clock = HostClock()
    # The traced run times spans, so no timer may interrupt it.
    with clock if not args.trace else contextlib.nullcontext():
        wl, ops, setups, cold_start_s = set_up_phase(args, wl_class, workdir, clock)
        # Keep the collector from re-scanning the input pool during timing.
        gc.collect()
        gc.freeze()
        if not args.trace:
            first, spans, executed, mismatched = timed_run(wl, ops, args.seconds, clock)
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            # A second block of set-ups, half a minute after the first,
            # meets the host in another spell of contention.
            setups += timed_set_ups(args, wl_class, workdir, clock)[2]

    record = {"workload": args.workload, "seed": args.seed, "size": args.size,
              "trace": args.trace, "env": environment(),
              "cold_start_s": cold_start_s, "setup_runs_s": [span[2] for span in setups]}
    unexpected = []
    if args.trace:
        ops = ops[: wl.trace_count]
        tracer, plain, traced, overhead_s = traced_run(wl, ops)
        first = dict(enumerate(plain))
        executed = list(range(len(ops)))
        if plain != traced:
            unexpected.append("traced_output_differs")
    elif mismatched:
        unexpected.append("repeat_output_differs")

    # An operation is attempted once however often the timed phase
    # repeated it, so `attempted` and `failed` depend on the seed alone.
    failures = {}
    for i, out in first.items():
        kind = wl.check(ops[i], out)
        if kind is not None:
            failures[kind] = failures.get(kind, 0) + 1
    unexpected += sorted(k for k in failures if k not in wl.KNOWN)
    attempted, failed = len(first), sum(failures.values())
    record.update({"attempted": attempted, "executions": len(executed),
                   "failed": failed, "failed_frac": failed / attempted,
                   "failures": failures, "known_defects": wl.KNOWN,
                   "norm_gap_max": wl.norm_gap_max()})

    if args.trace:
        per_layer = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
        metrics = tracer.metrics(per_layer, overhead_s, wl.norm_gap_max())
        silent = [c for c in wl.DOMINATED if metrics[c]["value"] == 0]
        if silent:
            unexpected.append("zero_counters:" + ",".join(silent))
    else:
        timing, tail_pct = latency_metrics(clock.scale(zip(*spans)), executed)
        metrics = {"setup_s": {"value": statistics.median(clock.scale(setups)), "unit": "s"},
                   **timing, "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"}}
        raw, _ = latency_metrics(spans[2], executed)
        record.update({"host_factor": clock.REFERENCE_S / statistics.fmean(clock.durations),
                       "host_samples": len(clock.durations),
                       "op_tail_percentile": tail_pct,
                       "raw_op_p50_ms": raw["op_p50_ms"]["value"],
                       "raw_ops_per_s": raw["ops_per_s"]["value"]})
    record["unexpected"] = unexpected
    result = {"correct": not unexpected, "attempted": attempted, "failed": failed, "metrics": metrics}
    return record, result


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "hilbertball" / "__init__.py").is_file():
        sys.exit(f"perfbench: no hilbertball package under {SRC}")
    sys.path[:0] = [str(HERE), str(SRC)]
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        sys.exit(f"perfbench: unknown workload {args.workload!r}; pick one of {', '.join(WORKLOADS)}")
    # The library's own roundoff warnings are not outputs; silence them so
    # that repeated runs print the same bytes.
    warnings.filterwarnings("ignore", category=RuntimeWarning, module=r"hilbertball\.")

    workdir = ROOT / ".perfbench_work" / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        record, result = run(args, WORKLOADS[args.workload], workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass
    print(json.dumps(record))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
