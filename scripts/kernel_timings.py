"""Median per-call time of the package's layers: its kernels on single
objects and on stacks, its verify properties, and the commands behind
the CLI.

Every row is (name, dim, single call, stacked call or None), and one
loop times them all: the median over REPEATS rounds of the time of one
call, in microseconds, each round making enough calls to last
ROUND_SECONDS.  The rows, in the order they print:

* at each of `--dims`, the kernel rows: the kernels of `numerics`,
  `geometry`, `isometries`, `algebra` and `dynamics` that the commands
  spend their time in, each called once on single objects and once on
  stacks of STACK of them along one leading axis, and `rim op`, the
  sequence of one `geometry_rim` operation of perfbench.  A row of a
  kernel that takes single objects only has no stacked call, and
  `disc_evolve_closed`, which acts on the disc, comes at dim 1 only;
* then the verify rows at that dim: one `run_property` call of each
  property of `hilbertball.verify`, at `--trials` trials and seed SEED,
  over VERIFY_ROUNDS rounds; the verdict is the report's, not this
  table's.  A dim or trial count that verify rejects (it takes dims
  1..16) has no verify rows;
* the command rows: STEPS-step trajectories of the three flows behind
  `evolve`, the CSV text it writes at each of CSV_DIMS, the norms behind
  `norm --which b|s` on one operator at dim NORM_DIM, `load_matrix` of
  that operator and of the Schroedinger row's Hamiltonian from their
  files, and one in-process `hilbertball norm` and `hilbertball evolve
  schrodinger` call each, stdout captured;
* last, `import hilbertball.cli`: the wall time of a fresh interpreter
  that imports the CLI, start-up included, over IMPORT_RUNS rounds.

Inputs come from a fixed seed and are drawn once, through `verify`'s
draws; the timings are taken here, outside any report.

With `--against DIR` the package under DIR/src is timed on the same
inputs too, its rounds alternating with this tree's so that both meet
the same load on the host, and each row also gives that package's times
and the ratio of this tree's time to its.  The trees' rows match by
(name, dim), and one rule holds for every row: a row the other tree
lacks reads `-`; a call that raises, or a verify result that carries an
error, reads `err` and is not timed; a row whose call returns text ends
in `differs` when the trees' texts differ.  The other package's modules
are out of sys.modules while it runs, so it must import them at load
time: a lazy import inside one fails that call, which then reads `err`.

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


def probe(fn):
    """fn's value and the calls per round that make a round last
    ROUND_SECONDS, or (None, None) for a call that raises."""
    try:
        value = fn()
    except Exception:
        return None, None
    start = time.perf_counter()
    fn()
    return value, max(1, int(ROUND_SECONDS / max(time.perf_counter() - start, 1e-7)))


def per_call_us(fns, repeats):
    """For each of `fns`, the median over `repeats` rounds of the mean
    time of one call in microseconds (None for no call, `err` for one
    that raises), and the value of its first call; their rounds
    alternate."""
    probes = [probe(fn) if fn else (None, None) for fn in fns]
    rounds = [[] for _ in fns]
    for _ in range(repeats):
        for fn, (_, number), spans in zip(fns, probes, rounds):
            if number:
                start = time.perf_counter()
                for _ in range(number):
                    fn()
                spans.append((time.perf_counter() - start) / number)
    times = [1e6 * statistics.median(spans) if spans else "err" if fn else None for fn, spans in zip(fns, rounds)]
    return times, [value for value, _ in probes]


def draw(verify, dim, rng):
    """Raw arrays of the kernel rows: two point sets, two operator stacks,
    transport bases, tangent parts, totally real mirror frames (unitary
    matrices) and disc generators (a, b) with their times."""
    cgauss = verify._cgauss

    def points():
        return verify._points(rng, dim, STACK, 0.85)

    return (points(), points(), cgauss(rng, (STACK, dim + 1, dim + 1)), cgauss(rng, (STACK, dim + 1, dim + 1)),
            points(), cgauss(rng, (STACK, dim)), cgauss(rng, (STACK, dim)),
            np.linalg.qr(cgauss(rng, (STACK, dim, dim)))[0],
            (rng.standard_normal(STACK), cgauss(rng, STACK), rng.uniform(-2.0, 2.0, STACK)))


def ran(result):
    """A verify result; one that carries an error raises, so that its row
    reads `err`."""
    if result.error is not None:
        raise RuntimeError(result.error)
    return result


def dim_rows(mods, dim, arrays, trials):
    """The kernel rows and the verify rows of one package at `dim`, on the
    `arrays` that `draw` gives there, and at `trials` trials."""
    algebra, dynamics, geometry, isometries, numerics, verify = (
        mods[name] for name in ("algebra", "dynamics", "geometry", "isometries", "numerics", "verify"))
    Z, W, C, Cp, bases, hol, antihol, frames, (a, b, times) = arrays
    T, S = isometries.transport_from_origin(bases), geometry.TangentVector(hol, antihol)
    F, f = isometries.MirrorTransformation.from_basis(frames), isometries.MirrorTransformation.from_basis(frames[0])
    z, w = geometry.BallPoint(Z[0]), geometry.BallPoint(W[0])
    c, cp = isometries.ExtendedOperator(C[0]), isometries.ExtendedOperator(Cp[0])
    t, s = isometries.ExtendedOperator(T[0]), geometry.TangentVector(hol[0], antihol[0])
    # eps A is in the Lie algebra for every anti-Hermitian A
    X = isometries.epsilon_matrix(dim) @ (C - C.conj().swapaxes(-1, -2))
    H = C + C.conj().swapaxes(-1, -2)
    x, h = isometries.ExtendedOperator(X[0]), isometries.ExtendedOperator(H[0])
    base, r = geometry.BallPoint(bases[1]), isometries.ExtendedOperator(T[1])

    def rim_op():
        geometry.distance(z, w)
        M = isometries.transport_from_origin(base) @ r
        return geometry.distance(isometries.mobius_apply(M, z), isometries.mobius_apply(M, w))

    kernels = (
        ("evaluate", lambda: algebra.evaluate(c, z), lambda: algebra.evaluate(C, Z)),
        ("star_operator", lambda: algebra.star_operator(c, cp), lambda: algebra.star_operator(C, Cp)),
        ("star_pointwise", lambda: algebra.star_pointwise(c, cp, z), lambda: algebra.star_pointwise(C, Cp, Z)),
        ("hamiltonian_field", lambda: algebra.hamiltonian_field(c, z), lambda: algebra.hamiltonian_field(C, Z)),
        ("poisson_bracket", lambda: algebra.poisson_bracket(c, cp, z), lambda: algebra.poisson_bracket(C, Cp, Z)),
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
        ("disc_evolve_closed",
         lambda: dynamics.disc_evolve_closed(dynamics.DiscGenerator(a[0], b[0]), Z[0, 0], times[0]),
         lambda: dynamics.disc_evolve_closed(dynamics.DiscGenerator(a, b), Z[:, 0], times)),
    )
    # the disc flow acts on the disc, so its row comes at dim 1 only
    kernels = [(name, dim, single, stacked) for name, single, stacked in kernels
               if name != "disc_evolve_closed" or dim == 1]
    try:
        cfg = verify.VerifyConfig(dim, trials, seed=SEED)
    except ValueError:
        return kernels, []
    return kernels, [(name, dim, lambda index=index: ran(verify.run_property(index, cfg)), None)
                     for index, (_, name, _, _) in enumerate(verify.PROPERTIES)]


def command_inputs(mods, directory):
    """Raw inputs of the command rows, each group from a fresh generator at
    SEED: an exponential-flow generator of norm 0.5 at dim 8 and a
    Hamiltonian of norm 2 at dim 16, each with its start point; STEPS + 1
    sample times with as many points in the ball at each of CSV_DIMS; and
    the operator of the norm rows.  Then the files, written by `mods`'
    `serialize` under `directory`, of the operator, the Hamiltonian and
    its start point."""
    verify = mods["verify"]
    cgauss, rng = verify._cgauss, np.random.default_rng(SEED)

    def start(dim, radius):
        w = cgauss(rng, dim)
        return radius * w / np.linalg.norm(w)

    G, u = cgauss(rng, (8, 8)), cgauss(rng, 8)
    X = np.block([[G - G.conj().T, u[:, None]], [u.conj(), 0.5j]])
    G = cgauss(rng, (16, 16))
    H = G + G.conj().T
    X, zx, H, zh = 0.5 / np.linalg.norm(X, 2) * X, start(8, 0.6), 2.0 / np.linalg.norm(H, 2) * H, start(16, 0.8)
    rng = np.random.default_rng(SEED)
    samples = [(np.arange(STEPS + 1) * 0.002, verify._points(rng, dim, STEPS + 1, 0.85)) for dim in CSV_DIMS]
    C = cgauss(np.random.default_rng(SEED), (NORM_DIM + 1, NORM_DIM + 1))
    files = {name: os.path.join(directory, name + ".json") for name in ("operator", "hamiltonian", "state")}
    for name, M in zip(files, (C, H, zh.reshape(-1, 1))):
        mods["serialize"].save_matrix(files[name], M)
    return (X, zx, H, zh, samples, C), files


def quiet(cli, *argv):
    """One in-process `hilbertball` call through `cli`, its stdout captured."""
    with contextlib.redirect_stdout(io.StringIO()):
        return cli.main(list(argv))


def command_rows(mods, inputs, files, out):
    """The command rows of one package, on `command_inputs`; the evolve
    row writes its CSV to `out`."""
    algebra, cli, dynamics, geometry, isometries, serialize = (
        mods[name] for name in ("algebra", "cli", "dynamics", "geometry", "isometries", "serialize"))
    X, zx, H, zh, samples, C = inputs
    disc = dynamics.DiscGenerator(0.3, 0.8 + 0.2j)
    gen, ham, op = isometries.ExtendedOperator(X), dynamics.HamiltonianGenerator(H), isometries.ExtendedOperator(C)
    z1, zx, zh = geometry.BallPoint([0.5]), geometry.BallPoint(zx), geometry.BallPoint(zh)
    return [
        ("trajectory_disc", 1, lambda: dynamics.trajectory(disc, z1, STEPS * 0.002, 0.002), None),
        ("trajectory_exp", 8, lambda: dynamics.trajectory(gen, zx, STEPS * 0.005, 0.005), None),
        ("trajectory_schrodinger", 16, lambda: dynamics.trajectory(ham, zh, STEPS * 0.01, 0.01), None),
        *(("trajectory_csv", points.shape[1], lambda t=times, p=points: serialize.trajectory_csv(t, p), None)
          for times, points in samples),
        ("norm_b", NORM_DIM, lambda: algebra.norm_b(op), None),
        ("norm_s", NORM_DIM, lambda: algebra.norm_s(op), None),
        ("cli norm b", NORM_DIM, lambda: quiet(cli, "norm", files["operator"], "--which", "b"), None),
        ("load_matrix", NORM_DIM, lambda: serialize.load_matrix(files["operator"]), None),
        ("load_matrix", 16, lambda: serialize.load_matrix(files["hamiltonian"]), None),
        ("cli evolve schrodinger", 16, lambda: quiet(
            cli, "evolve", "schrodinger", "--state", files["state"], "--hamiltonian", files["hamiltonian"],
            "--t-max", repr(STEPS * 0.01), "--dt", "0.01", "--out", out), None),
    ]


def import_row(src):
    """The row of a fresh interpreter that imports hilbertball.cli from
    `src`; an import that fails raises."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in (str(src), os.environ.get("PYTHONPATH")) if p))
    return ("import hilbertball.cli", "-", lambda: subprocess.run(
        [sys.executable, "-c", "import hilbertball.cli"], check=True, capture_output=True, env=env), None)


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


def print_rows(trees, repeats):
    """Time the rows of the first of `trees` (one row list per tree), each
    with the row of the same (name, dim) in the others, over `repeats`
    rounds, and print them."""
    others = [{(name, dim): calls for name, dim, *calls in rows} for rows in trees[1:]]
    for name, dim, single, stacked in trees[0]:
        calls = [(single, stacked)] + [other.get((name, dim), (None, None)) for other in others]
        singles, values = per_call_us([call[0] for call in calls], repeats)
        stacks, _ = per_call_us([call[1] for call in calls], repeats)
        texts = {value for value in values if isinstance(value, str)}
        print(row(name, dim, singles, stacks) + ("  differs" if len(texts) > 1 else ""))


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--dims", type=int, nargs="+", default=[1, 4, 16])
    ap.add_argument("--trials", type=int, default=200, help="trials of each verify property")
    ap.add_argument("--against", help="a checkout whose src/ package is timed alongside")
    args = ap.parse_args()

    srcs = [Path(__file__).resolve().parent.parent / "src"] + ([Path(args.against) / "src"] if args.against else [])
    packages = [load_package(src) for src in srcs]
    rng = np.random.default_rng(SEED)
    print("# median us per call over %d rounds; stacks of %d; verify rows over %d rounds at %d trials"
          % (REPEATS, STACK, VERIFY_ROUNDS, args.trials))
    head = "%-30s %4s %10s %11s" % ("kernel", "dim", "single_us", "stacked_us")
    if args.against:
        head += " %10s %11s %7s %7s" % ("other_1", "other_k", "ratio_1", "ratio_k")
    print(head)
    for dim in args.dims:
        arrays = draw(packages[0]["verify"], dim, rng)
        kernels, verifies = zip(*(dim_rows(mods, dim, arrays, args.trials) for mods in packages))
        print_rows(kernels, REPEATS)
        print_rows(verifies, VERIFY_ROUNDS)
    with tempfile.TemporaryDirectory() as tmp:
        inputs, files = command_inputs(packages[0], tmp)
        print_rows([command_rows(mods, inputs, files, os.path.join(tmp, "evolve%d.csv" % i))
                    for i, mods in enumerate(packages)], REPEATS)
    print_rows([[import_row(src)] for src in srcs], IMPORT_RUNS)


if __name__ == "__main__":
    main()
