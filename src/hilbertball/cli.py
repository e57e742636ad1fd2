"""Command-line surface.

Subcommands: distance, evolve, star, norm, verify.  Vectors and
operators travel in the shared JSON matrix format; trajectories leave as
CSV.  Every command is deterministic given its flags and seed, floats
print with 17 significant digits, and the exit code tells the caller
what went wrong: 0 success, 1 verification failure, 2 unparseable
input or an `--out` file that cannot be written, 3 domain violation,
4 standard output closed by its reader (`verify all | head`), which
ends the command without a traceback.
"""

import argparse
import functools
import math
import os
import sys

from . import algebra, dynamics, geometry, serialize, verify
from .errors import DomainError, ParseError
from .isometries import ExtendedOperator
from .numerics import op_norm


def _parse_float(text, what):
    try:
        return float(text)
    except (TypeError, ValueError):
        raise ParseError(f"{what} must be a decimal number, got {text!r}")


def _parse_int(text, what):
    try:
        return int(text)
    except (TypeError, ValueError):
        raise ParseError(f"{what} must be an integer, got {text!r}")


def _load_point(path):
    return geometry.BallPoint(serialize.load_vector(path))


def _emit(doc):
    sys.stdout.write(serialize.dumps(doc))
    sys.stdout.write("\n")


def cmd_distance(args):
    u = _load_point(args.u_file)
    v = _load_point(args.v_file)
    d = geometry.distance(u, v)
    th = geometry.tanh_distance(u, v)
    _emit({"distance": d, "tanh_distance": th, "difference": abs(math.tanh(d) - th)})
    return 0


def _build_generator(args):
    if args.mode == "disc":
        a = _parse_float(args.a, "--a")
        b = complex(_parse_float(args.b_re, "--b-re"), _parse_float(args.b_im, "--b-im"))
        return dynamics.DiscGenerator(a, b)
    if args.mode == "schrodinger":
        if not args.hamiltonian:
            raise ParseError("schrodinger mode needs --hamiltonian")
        H = serialize.load_matrix(args.hamiltonian)
        return dynamics.HamiltonianGenerator(H)
    if not args.generator:
        raise ParseError("exp mode needs --generator")
    return ExtendedOperator(serialize.load_matrix(args.generator))


def cmd_evolve(args):
    gen = _build_generator(args)
    z0 = _load_point(args.state)
    t_max = _parse_float(args.t_max, "--t-max")
    dt = _parse_float(args.dt, "--dt")
    times, points = dynamics.trajectory(gen, z0, t_max, dt)
    text = serialize.trajectory_csv(times, points.vector)
    if args.out:
        serialize.write_text(args.out, text)
        _emit(
            {
                "samples": len(times),
                "max_norm": float(points.norm().max()),
                "out": args.out,
            }
        )
    else:
        sys.stdout.write(text)
    return 0


def cmd_star(args):
    left = ExtendedOperator(serialize.load_matrix(args.left))
    right = ExtendedOperator(serialize.load_matrix(args.right))
    product = algebra.star_operator(left, right)
    doc = serialize.matrix_to_json(product.matrix)
    if args.out:
        serialize.save_matrix(args.out, product.matrix)
    if args.state:
        z = _load_point(args.state)
        via_operator = algebra.evaluate(product, z)
        pointwise = algebra.star_pointwise(left, right, z)
        _emit(
            {
                "value": [via_operator.real, via_operator.imag],
                "pointwise": [pointwise.real, pointwise.imag],
                "difference": abs(via_operator - pointwise),
            }
        )
    elif not args.out:
        _emit(doc)
    return 0


def cmd_norm(args):
    C = ExtendedOperator(serialize.load_matrix(args.operator))
    samples = _parse_int(args.samples, "--samples")
    seed = _parse_int(args.seed, "--seed")
    # b is exact: it takes no samples or seed, which are still validated
    if samples < 1:
        raise DomainError(f"--samples must be at least 1, got {samples}")
    if seed < 0:
        raise DomainError(f"--seed must be non-negative, got {seed}")
    if args.which == "b":
        est = algebra.norm_b(C)
        # norm_b reads its own SVD; op_norm reads a Gram matrix's eigvalsh
        oracle = op_norm(C.matrix)
        gap = (oracle - est) / oracle if oracle > 0.0 else 0.0
        _emit({"which": "b", "estimate": est, "oracle_op_norm": oracle, "gap": gap})
    elif args.which == "s":
        _emit({"which": "s", "estimate": algebra.norm_s(C, samples=samples, seed=seed)})
    else:
        _emit({"which": "d", "estimate": algebra.norm_d(C, samples=samples, seed=seed)})
    return 0


def cmd_verify(args):
    cfg = verify.VerifyConfig(
        dim=_parse_int(args.dim, "--dim"),
        trials=_parse_int(args.trials, "--trials"),
        seed=_parse_int(args.seed, "--seed"),
    )
    report = verify.run_suite(args.suite, cfg)
    _emit(report)
    if not report["passed"]:
        names = ", ".join(report["failed_properties"])
        print(f"verification failed: {names}", file=sys.stderr)
        return 1
    return 0


@functools.cache
def build_parser():
    """The argument parser, built once per process and shared by every
    `main` call; callers must not mutate it.  Each `parse_args` call
    returns a fresh namespace, so calls share no state."""
    p = argparse.ArgumentParser(
        prog="hilbertball",
        description="Hyperbolic-ball state space: distances, flows, the "
        "operator function algebra, and its verification suite.",
    )
    sub = p.add_subparsers(dest="command", required=True)

    d = sub.add_parser("distance", help="distance between two stored points")
    d.add_argument("u_file")
    d.add_argument("v_file")
    d.set_defaults(func=cmd_distance)

    e = sub.add_parser("evolve", help="emit a flow trajectory as CSV")
    e.add_argument("mode", choices=["disc", "schrodinger", "exp"])
    e.add_argument("--state", required=True, help="initial point (JSON vector)")
    e.add_argument("--t-max", required=True, dest="t_max")
    e.add_argument("--dt", required=True)
    e.add_argument("--a", default="0", help="disc rotation parameter (disc mode only)")
    e.add_argument("--b-re", default="0", dest="b_re")
    e.add_argument("--b-im", default="0", dest="b_im")
    e.add_argument("--hamiltonian", help="JSON matrix for schrodinger mode")
    e.add_argument("--generator", help="JSON matrix for exp mode")
    e.add_argument("--out", help="CSV destination (stdout when omitted)")
    e.set_defaults(func=cmd_evolve)

    s = sub.add_parser("star", help="noncommutative product of two operators")
    s.add_argument("left")
    s.add_argument("right")
    s.add_argument("--state", help="also evaluate the product at this point")
    s.add_argument("--out", help="write the product operator here")
    s.set_defaults(func=cmd_star)

    n = sub.add_parser("norm", help="invariant norm (b, exact) or sampled cone norm (s, d)")
    n.add_argument("operator")
    n.add_argument("--which", choices=["b", "s", "d"], default="b")
    n.add_argument("--samples", default="2048")
    n.add_argument("--seed", default="0")
    n.set_defaults(func=cmd_norm)

    v = sub.add_parser("verify", help="run the property-verification suites")
    v.add_argument(
        "suite", nargs="?", default="all", choices=["geometry", "algebra", "dynamics", "all"]
    )
    v.add_argument("--dim", default="4")
    v.add_argument("--trials", default="200")
    v.add_argument("--seed", default="0")
    v.set_defaults(func=cmd_verify)
    return p


def _attach_negative_numbers(argv):
    """argv with each negative number written onto the long flag before
    it, `--a -1e-3` as `--a=-1e-3`: argparse reads only plain decimals such
    as -0.5 as values, and takes -1e-3 or -inf for an unknown option."""
    out = []
    for arg in argv:
        flag = out[-1] if out else ""
        if arg.startswith("-") and flag.startswith("--") and flag != "--" and "=" not in flag \
                and _is_number(arg):
            out[-1] += "=" + arg
        else:
            out.append(arg)
    return out


def _is_number(text):
    try:
        float(text)
    except ValueError:
        return False
    return True


def main(argv=None):
    args = build_parser().parse_args(_attach_negative_numbers(sys.argv[1:] if argv is None else argv))
    try:
        code = args.func(args)
        # a closed pipe shows here, not in the flush at interpreter exit
        sys.stdout.flush()
        return code
    except ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except BrokenPipeError:
        # what is still buffered goes to the null device, so that the
        # interpreter's own flush at exit raises nothing either
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 4


if __name__ == "__main__":
    sys.exit(main())
