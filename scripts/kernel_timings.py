"""Median per-call time of the layer kernels, on single objects and stacks.

Times `evaluate`, `star_operator`, `star_pointwise`,
`hamiltonian_field`, `poisson_bracket`, `dispersion` (on Hermitian
matrices), `kahler_condition_check`, `mobius_apply`, `mirror_apply`,
`transport_from_origin`, `k_factor`, `metric`, `distance`, the
`BallPoint` and `ExtendedOperator` constructors, `compose` (the product
T @ R of two operators), `rim op` (the sequence of one `geometry_rim`
operation of perfbench: a distance, a transport composed with a group
member, the two Moebius images and their distance), `mat_exp`,
`op_norm`, the membership checks
`is_inhomogeneous_unitary` and `check_block_conditions` (on group
members), `lie_algebra_check` (on Lie elements) and `is_self_adjoint`
(on Hermitian matrices) at each dimension, and `disc_evolve_closed`,
which acts on the disc, at dimension 1 when 1 is among the dimensions.
Each is timed once on single objects (`BallPoint`, `ExtendedOperator`,
one mirror, one `TangentVector` pair, one (dim+1) x (dim+1) matrix, one
disc generator with one point and one time) and once on stacks of STACK
of them (arrays over one leading axis), and the script prints the
median over REPEATS rounds of the time per call in microseconds.  The
`BallPoint` constructor is timed on one point and on the stack of STACK
points, which it checks as one; `distance`, `ExtendedOperator`,
`compose` and `rim op` take single objects only, so their stacked
column reads `-`.  A call that raises is not timed, and its
cell reads `err`.  Then come the
`trajectory` rows, the layer behind `evolve`: a hyperbolic disc flow,
an exponential flow at dim 8 and a Schroedinger flow at dim 16, each
STEPS steps from one point (stacked column `-`), the `trajectory_csv`
rows, the CSV text `evolve` writes for STEPS + 1 samples at each of
CSV_DIMS (stacked column `-`), and the `norm_b` and
`norm_s` rows, the norms behind `norm --which b|s` (the exact invariant
norm, and the cone search at its default samples), on one operator at
dim NORM_DIM (stacked column `-`).  The `cli norm b` row times one
in-process `cli.main(["norm", FILE, "--which", "b"])` call on that
operator, stdout captured, and the `import hilbertball.cli` row is the
median wall time of IMPORT_RUNS fresh interpreters that import the CLI,
start-up included.  Each dimension ends with one row per property of
`hilbertball.verify`: the median over VERIFY_ROUNDS rounds of the time
of one `run_property` call at that dimension, `--trials` trials and
seed SEED (stacked column `-`), or `err` where that call's result
carries an error, which is then not timed; the verdict is the report's,
not this table's.  verify takes dims 1..16 only, so a larger dimension
has no such rows.  Inputs come from a fixed seed; the timings are taken
here, outside any report.

With `--against DIR` the package under DIR/src is timed on the same
inputs too, its rounds alternating with this tree's so that both meet
the same load on the host, and each row also gives that package's
times and the ratio of this tree's time to its; the fresh interpreters
of the import row alternate between the two trees too.  A
`trajectory_csv` row whose text differs between the two trees ends in
`differs`.  A verify property that package lacks reads `-` there, and
a stacked call it cannot run, on a kernel that takes single objects
only, reads `err`.  Its modules are out of sys.modules while it runs,
so it must import them at load time: a lazy import inside one fails
that call, and a verify row then reads `err`.

    python3 scripts/kernel_timings.py --dims 1 4 16 --trials 200
    python3 scripts/kernel_timings.py --against ../parent-checkout
"""

import argparse
import contextlib
import importlib
import io
import os
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

ROUND_SECONDS = 0.01
REPEATS = 41
STACK = 200
STEPS = 1000
NORM_DIM = 4
CSV_DIMS = (1, 8, 16)
IMPORT_RUNS = 5
VERIFY_ROUNDS = 5
SEED = 0
MODULES = ("algebra", "cli", "dynamics", "geometry", "isometries", "numerics", "serialize", "verify")


def owned():
    """Take every hilbertball module out of sys.modules and return them."""
    return {k: sys.modules.pop(k) for k in list(sys.modules)
            if k == "hilbertball" or k.startswith("hilbertball.")}


def load_package(src):
    """The MODULES of the hilbertball package under `src`, imported
    apart from any copy already loaded."""
    held = owned()
    sys.path.insert(0, str(src))
    try:
        return {name: importlib.import_module("hilbertball." + name) for name in MODULES}
    finally:
        sys.path.remove(str(src))
        owned()
        sys.modules.update(held)


def round_count(fn):
    """Calls per round: enough for the round to last ROUND_SECONDS; None
    for a call that raises."""
    try:
        fn()
    except Exception:
        return None
    start = time.perf_counter()
    fn()
    return max(1, int(ROUND_SECONDS / max(time.perf_counter() - start, 1e-7)))


def per_call_us(fns, repeats=REPEATS):
    """Median over `repeats` rounds of the mean time of one call, in
    microseconds, for each of `fns`, or `err` for one whose call raises,
    such as a stacked call on a tree whose kernel takes single objects
    only; their rounds alternate."""
    numbers = [round_count(fn) for fn in fns]
    rounds = [[] for _ in fns]
    for _ in range(repeats):
        for fn, number, spans in zip(fns, numbers, rounds):
            if number is None:
                continue
            start = time.perf_counter()
            for _ in range(number):
                fn()
            spans.append((time.perf_counter() - start) / number)
    return [1e6 * statistics.median(spans) if spans else "err" for spans in rounds]


def cgauss(rng, shape):
    """Complex Gaussian entries: the real parts drawn first, then the
    imaginary parts."""
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def in_ball(rng, W):
    """The rows of W scaled to norms uniform in [0, 0.85)."""
    return (rng.uniform(0.0, 0.85, len(W)) / np.linalg.norm(W, axis=-1))[:, None] * W


def draw(dim, rng):
    """Raw arrays: two point sets, two operator stacks, transport bases,
    tangent parts, totally real mirror frames (unitary matrices) and
    disc generators (a, b) with their times."""
    def points():
        return in_ball(rng, cgauss(rng, (STACK, dim)))

    return (points(), points(), cgauss(rng, (STACK, dim + 1, dim + 1)), cgauss(rng, (STACK, dim + 1, dim + 1)),
            points(), cgauss(rng, (STACK, dim)), cgauss(rng, (STACK, dim)),
            np.linalg.qr(cgauss(rng, (STACK, dim, dim)))[0],
            (rng.standard_normal(STACK), cgauss(rng, STACK), rng.uniform(-2.0, 2.0, STACK)))


def cases(mods, arrays):
    """(kernel, single call, stacked call or None) on one package."""
    algebra, dynamics, geometry, isometries, numerics = (
        mods[name] for name in ("algebra", "dynamics", "geometry", "isometries", "numerics"))
    Z, W, C, Cp, bases, hol, antihol, frames, (a, b, times) = arrays
    T = isometries.transport_from_origin(bases)
    S = geometry.TangentVector(hol, antihol)
    F = isometries.MirrorTransformation.from_basis(frames)
    z, w = geometry.BallPoint(Z[0]), geometry.BallPoint(W[0])
    c, cp = isometries.ExtendedOperator(C[0]), isometries.ExtendedOperator(Cp[0])
    t = isometries.ExtendedOperator(T[0])
    s = geometry.TangentVector(hol[0], antihol[0])
    f = isometries.MirrorTransformation.from_basis(frames[0])
    # eps A is in the Lie algebra for every anti-Hermitian A
    X = isometries.epsilon_matrix(Z.shape[-1]) @ (C - C.conj().swapaxes(-1, -2))
    H = C + C.conj().swapaxes(-1, -2)
    x, h = isometries.ExtendedOperator(X[0]), isometries.ExtendedOperator(H[0])
    base, r = geometry.BallPoint(bases[1]), isometries.ExtendedOperator(T[1])

    def rim_op():
        geometry.distance(z, w)
        M = isometries.transport_from_origin(base) @ r
        return geometry.distance(isometries.mobius_apply(M, z), isometries.mobius_apply(M, w))

    disc = () if Z.shape[-1] != 1 else (
        ("disc_evolve_closed",
         lambda: dynamics.disc_evolve_closed(dynamics.DiscGenerator(a[0], b[0]), Z[0, 0], times[0]),
         lambda: dynamics.disc_evolve_closed(dynamics.DiscGenerator(a, b), Z[:, 0], times)),)
    return (
        ("evaluate", lambda: algebra.evaluate(c, z), lambda: algebra.evaluate(C, Z)),
        ("star_operator", lambda: algebra.star_operator(c, cp), lambda: algebra.star_operator(C, Cp)),
        ("star_pointwise", lambda: algebra.star_pointwise(c, cp, z),
         lambda: algebra.star_pointwise(C, Cp, Z)),
        ("hamiltonian_field", lambda: algebra.hamiltonian_field(c, z),
         lambda: algebra.hamiltonian_field(C, Z)),
        ("poisson_bracket", lambda: algebra.poisson_bracket(c, cp, z),
         lambda: algebra.poisson_bracket(C, Cp, Z)),
        ("dispersion", lambda: algebra.dispersion(h, z), lambda: algebra.dispersion(H, Z)),
        ("kahler_condition_check", lambda: algebra.kahler_condition_check(c, z),
         lambda: algebra.kahler_condition_check(C, Z)),
        ("mobius_apply", lambda: isometries.mobius_apply(t, z), lambda: isometries.mobius_apply(T, Z)),
        ("mirror_apply", lambda: isometries.mirror_apply(f, z), lambda: isometries.mirror_apply(F, Z)),
        ("transport_from_origin", lambda: isometries.transport_from_origin(z),
         lambda: isometries.transport_from_origin(Z)),
        ("k_factor", lambda: geometry.k_factor(z), lambda: geometry.k_factor(Z)),
        ("metric", lambda: geometry.metric(z, s, s), lambda: geometry.metric(Z, S, S)),
        ("distance", lambda: geometry.distance(z, w), None),
        ("BallPoint", lambda: geometry.BallPoint(Z[0]), lambda: geometry.BallPoint(Z)),
        ("ExtendedOperator", lambda: isometries.ExtendedOperator(C[0]), None),
        ("compose", lambda: t @ r, None),
        ("rim op", rim_op, None),
        ("mat_exp", lambda: numerics.mat_exp(C[0]), lambda: numerics.mat_exp(C)),
        ("op_norm", lambda: numerics.op_norm(C[0]), lambda: numerics.op_norm(C)),
        ("is_inhomogeneous_unitary", lambda: isometries.is_inhomogeneous_unitary(t),
         lambda: isometries.is_inhomogeneous_unitary(T)),
        ("check_block_conditions", lambda: isometries.check_block_conditions(t),
         lambda: isometries.check_block_conditions(T)),
        ("lie_algebra_check", lambda: isometries.lie_algebra_check(x), lambda: isometries.lie_algebra_check(X)),
        ("is_self_adjoint", lambda: algebra.is_self_adjoint(h), lambda: algebra.is_self_adjoint(H)),
    ) + disc


def draw_flows(rng):
    """Raw inputs of the trajectory rows: an exponential-flow generator
    of norm 0.5 at dim 8 with its start point, and a Hamiltonian of norm
    2 at dim 16 with its start point."""
    def start(dim, radius):
        w = cgauss(rng, dim)
        return radius * w / np.linalg.norm(w)

    G = cgauss(rng, (8, 8))
    u = cgauss(rng, 8)
    X = np.zeros((9, 9), dtype=complex)
    X[:8, :8], X[:8, 8], X[8, :8], X[8, 8] = G - G.conj().T, u, u.conj(), 0.5j
    G = cgauss(rng, (16, 16))
    H = G + G.conj().T
    return (0.5 / np.linalg.norm(X, 2) * X, start(8, 0.6),
            2.0 / np.linalg.norm(H, 2) * H, start(16, 0.8))


def flow_cases(mods, arrays):
    """(row, dim, one STEPS-step trajectory) on one package."""
    dynamics, geometry, isometries = (mods[name] for name in ("dynamics", "geometry", "isometries"))
    X, zx, H, zh = arrays
    disc = dynamics.DiscGenerator(0.3, 0.8 + 0.2j)
    gen, ham = isometries.ExtendedOperator(X), dynamics.HamiltonianGenerator(H)
    z1, zx, zh = geometry.BallPoint([0.5]), geometry.BallPoint(zx), geometry.BallPoint(zh)
    return (
        ("trajectory_disc", 1, lambda: dynamics.trajectory(disc, z1, STEPS * 0.002, 0.002)),
        ("trajectory_exp", 8, lambda: dynamics.trajectory(gen, zx, STEPS * 0.005, 0.005)),
        ("trajectory_schrodinger", 16, lambda: dynamics.trajectory(ham, zh, STEPS * 0.01, 0.01)),
    )


def draw_csv(rng):
    """Raw inputs of the trajectory_csv rows: STEPS + 1 sample times, and
    as many points in the ball at each of CSV_DIMS."""
    times = np.arange(STEPS + 1) * 0.002
    return [(times, in_ball(rng, cgauss(rng, (STEPS + 1, dim)))) for dim in CSV_DIMS]


def csv_cases(mods, samples):
    """(row, dim, one trajectory CSV text) on one package."""
    serialize = mods["serialize"]
    return tuple(("trajectory_csv", points.shape[1],
                  lambda times=times, points=points: serialize.trajectory_csv(times, points))
                 for times, points in samples)


def draw_operator(rng):
    """The operator of the norm rows: complex Gaussian entries, the
    norm_estimators workload's unclustered draw."""
    return cgauss(rng, (NORM_DIM + 1, NORM_DIM + 1))


def norm_cases(mods, C):
    """(row, dim, one estimator call) on one package."""
    algebra, isometries = mods["algebra"], mods["isometries"]
    op = isometries.ExtendedOperator(C)
    return (
        ("norm_b", NORM_DIM, lambda: algebra.norm_b(op)),
        ("norm_s", NORM_DIM, lambda: algebra.norm_s(op)),
    )


def cli_cases(mods, operator_file):
    """(row, dim, one in-process `hilbertball norm` call) on one package,
    its stdout captured."""
    cli = mods["cli"]

    def norm_b():
        with contextlib.redirect_stdout(io.StringIO()):
            return cli.main(["norm", operator_file, "--which", "b"])

    return (("cli norm b", NORM_DIM, norm_b),)


def verify_cases(mods, dim, trials):
    """{property: one `run_property` call} on one package, at dim and
    trials.  DomainError for a dim or trial count verify rejects."""
    verify = mods["verify"]
    cfg = verify.VerifyConfig(dim, trials, seed=SEED)
    return {name: lambda index=index: verify.run_property(index, cfg)
            for index, (_, name, _, _) in enumerate(verify.PROPERTIES)}


def import_us(srcs):
    """Median over IMPORT_RUNS of the wall time, in microseconds, of a
    fresh interpreter that imports hilbertball.cli from each of `srcs`;
    the interpreters alternate between them."""
    spans = [[] for _ in srcs]
    for _ in range(IMPORT_RUNS):
        for src, runs in zip(srcs, spans):
            path = os.pathsep.join(p for p in (str(src), os.environ.get("PYTHONPATH")) if p)
            start = time.perf_counter()
            subprocess.run([sys.executable, "-c", "import hilbertball.cli"], check=True,
                           env=dict(os.environ, PYTHONPATH=path))
            runs.append(time.perf_counter() - start)
    return [1e6 * statistics.median(runs) for runs in spans]


def verify_times(calls):
    """Per tree, the time of its verify call (None, a tree that lacks the
    property), or `err` for a tree whose `run_property` result carries
    an error: a failing call is not timed as if it were a result."""
    ran = [call is not None and call().error is None for call in calls]
    spans = iter(per_call_us([call for call, ok in zip(calls, ran) if ok], VERIFY_ROUNDS))
    return [next(spans) if ok else None if call is None else "err" for call, ok in zip(calls, ran)]


def same_output(calls):
    """Whether the calls, one per tree, all return what the first does."""
    first = calls[0]()
    return all(call() == first for call in calls[1:])


def row(name, dim, single, stacked=(None, None)):
    """One table line: this tree's time per call on single objects and on
    stacks, then with --against (a second time in `single`) the other
    tree's and the ratios.  A time that is None reads `-`; a string, such
    as `err`, reads as itself and leaves its ratio `-`."""
    cells = [single[0], stacked[0]]
    if len(single) > 1:
        cells += [single[1], stacked[1]] + [
            pair[0] / pair[1] if all(isinstance(x, float) for x in pair) else None
            for pair in (single, stacked)]
    return "%-30s %4s" % (name, dim) + "".join(
        " %*s" % (width, "-" if x is None else x if isinstance(x, str) else "%.2f" % x)
        for width, x in zip((10, 11, 10, 11, 7, 7), cells))


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--dims", type=int, nargs="+", default=[1, 4, 16])
    ap.add_argument("--trials", type=int, default=200, help="trials of each verify property")
    ap.add_argument("--against", help="a checkout whose src/ package is timed alongside")
    args = ap.parse_args()

    srcs = [Path(__file__).resolve().parent.parent / "src"]
    if args.against:
        srcs.append(Path(args.against) / "src")
    packages = [load_package(src) for src in srcs]
    rng = np.random.default_rng(SEED)
    print("# median us per call over %d rounds; stacks of %d; verify rows over %d rounds at %d trials"
          % (REPEATS, STACK, VERIFY_ROUNDS, args.trials))
    head = "%-30s %4s %10s %11s" % ("kernel", "dim", "single_us", "stacked_us")
    if args.against:
        head += " %10s %11s %7s %7s" % ("other_1", "other_k", "ratio_1", "ratio_k")
    print(head)
    for dim in args.dims:
        arrays = draw(dim, rng)
        for cases_row in zip(*(cases(mods, arrays) for mods in packages)):
            single = per_call_us([case[1] for case in cases_row])
            stacked = per_call_us([case[2] for case in cases_row]) if cases_row[0][2] else [None] * 2
            print(row(cases_row[0][0], dim, single, stacked))
        try:
            tables = [verify_cases(mods, dim, args.trials) for mods in packages]
        except ValueError as err:
            print("# no verify rows at dim %d: %s" % (dim, err))
            continue
        for name in tables[0]:
            print(row(name, dim, verify_times([table.get(name) for table in tables])))
    C = draw_operator(np.random.default_rng(SEED))
    with tempfile.TemporaryDirectory() as tmp:
        operator_file = os.path.join(tmp, "operator.json")
        packages[0]["serialize"].save_matrix(operator_file, C)
        rows = zip(*(flow_cases(mods, draw_flows(np.random.default_rng(SEED)))
                     + csv_cases(mods, draw_csv(np.random.default_rng(SEED)))
                     + norm_cases(mods, C) + cli_cases(mods, operator_file) for mods in packages))
        timed = []
        for cases_row in rows:
            name, dim = cases_row[0][:2]
            calls = [case[2] for case in cases_row]
            # the trees must write the same CSV text for its times to compare
            differs = name == "trajectory_csv" and not same_output(calls)
            timed.append((name, dim, per_call_us(calls), "  differs" if differs else ""))
    timed.append(("import hilbertball.cli", "-", import_us(srcs), ""))
    for name, dim, spans, note in timed:
        print(row(name, dim, spans) + note)


if __name__ == "__main__":
    main()
