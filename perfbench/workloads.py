"""The four benchmark workloads.

A workload turns the run's seed into a pool of operations (set-up,
untimed), runs one operation at a time (timed), and checks each distinct
operation's output against an oracle from `oracles` (untimed).  The
three CLI-shaped workloads call `hilbertball.cli.main` in-process with
stdout and stderr captured; `geometry_rim` calls the library directly.
Every call goes through a module attribute, so the traced run's rebinding
reaches it.

`check` returns None for a good output, or the kind of failure.  Each
workload lists in `KNOWN` the failure kinds that stand for a documented
baseline defect: they count as failed operations, and only a kind not
listed there makes the run incorrect.
"""

import io
import json
import math
import os
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field

import numpy as np

import oracles

BAND = 0.02  # the README's acceptance band for sampled norms


@dataclass
class Op:
    index: int
    tag: str
    argv: list = field(default_factory=list)
    data: dict = field(default_factory=dict)


def _cgauss(rng, shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def _direction(rng, dim):
    w = _cgauss(rng, dim)
    return w / np.linalg.norm(w)


def _haar(rng, n):
    Q, R = np.linalg.qr(_cgauss(rng, (n, n)))
    return Q * (np.diag(R) / np.abs(np.diag(R)))


def _lie_matrix(rng, dim, size):
    """A generator X with X* eps + eps X = 0, scaled to operator norm `size`."""
    G = _cgauss(rng, (dim, dim))
    u = _cgauss(rng, dim)
    X = np.zeros((dim + 1, dim + 1), dtype=complex)
    X[:dim, :dim] = G - G.conj().T
    X[:dim, dim] = u
    X[dim, :dim] = u.conj()
    X[dim, dim] = 1j * rng.standard_normal()
    return X * (size / oracles.op_norm(X))


def _num(x):
    return repr(float(x))


class Workload:
    name = ""
    KNOWN = {}
    # Per-layer counters this workload drives; the traced run fails its
    # self-check when one of them reads zero.
    DOMINATED = ()

    def __init__(self, hb, seed, tiny, workdir):
        self.hb = hb
        self.tiny = tiny
        self.workdir = workdir
        self.rng = np.random.default_rng([seed, sum(map(ord, self.name))])

    def path(self, name):
        return os.path.join(self.workdir, name)

    def write_matrix(self, name, M):
        path = self.path(name)
        self.hb.serialize.save_matrix(path, np.asarray(M, dtype=complex))
        return path

    def cli(self, argv):
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            try:
                code = self.hb.cli.main(argv)
            except SystemExit as exc:
                code = f"exit:{exc.code}"
            except Exception as exc:  # an escaped error is an output too
                code = f"raised:{type(exc).__name__}: {exc}"
        return code, out.getvalue(), err.getvalue()

    def setup(self):
        """Generate the operation pool and warm up; returns the pool."""
        self.ops = self.make_ops()
        self.warmup()
        return self.ops

    def collect(self, op, output):
        """Complete an output after its timed call (reads written files)."""
        return output

    def cli_failure(self, output):
        code = output[0]
        if code == 0:
            return None
        if isinstance(code, int):
            return f"exit_{code}"
        return code.split(":", 1)[0]

    def norm_gap_max(self):
        return 0.0


class VerifyAll(Workload):
    """`verify all --dim 4 --trials 200` at a fresh seed per operation."""

    name = "verify_all"
    DOMINATED = (
        "numerics.op_norm.calls",
        "numerics.mat_exp.calls",
        "geometry.distance.calls",
        "geometry.metric.calls",
        "geometry.k_factor.calls",
        "isometries.is_inhomogeneous_unitary.calls",
        "isometries.mobius_apply.calls",
        "algebra.evaluate.calls",
        "algebra.star_operator.calls",
        "dynamics.evolve_exp.calls",
        "dynamics.schrodinger_evolve.calls",
        "dynamics.disc_evolve_closed.calls",
        "serialize.dumps.calls",
        "cli.main.calls",
    )

    def make_ops(self):
        trials = "2" if self.tiny else "200"
        seeds = self.rng.integers(0, 2**31, size=2)
        return [
            Op(k, "verify", ["verify", "all", "--dim", "4", "--trials", trials, "--seed", str(s)])
            for k, s in enumerate(seeds)
        ]

    trace_count = 1

    def warmup(self):
        self.cli(["verify", "algebra", "--dim", "2", "--trials", "2", "--seed", "0"])

    def run(self, op):
        return self.cli(op.argv)

    def check(self, op, output):
        failure = self.cli_failure(output)
        if failure:
            return failure
        report = json.loads(output[1])
        props = report["properties"]
        if not props or report["failed_properties"] or not report["passed"]:
            return "property_failed"
        for p in props:
            if not (math.isfinite(p["max_defect"]) and p["max_defect"] <= p["tolerance"] and p["passed"]):
                return "property_failed"
        return None


class NormEstimators(Workload):
    """`norm C.json --which b|s|d --samples 2048` on 5x5 operators.  The
    second of every four operators has its top two singular values a
    relative gap of 1e-6, 1e-5, 1e-4 and 1e-3 apart, in turn; fixed gaps
    keep the clustered operators' cost the same from seed to seed."""

    name = "norm_estimators"
    KNOWN = {
        "op_norm_clustered": "power-iteration op_norm misses SVD by >1e-10 when the top singular values nearly coincide",
        "cone_estimate_below_band": "norm_s/norm_d sit more than 2% below the cone norm (sup on the rim)",
    }
    DOMINATED = (
        "numerics.op_norm.calls",
        "numerics.golden_max.calls",
        "geometry.BallPoint.calls",
        "isometries.ExtendedOperator.calls",
        "algebra.evaluate.calls",
        "algebra.star_operator.calls",
        "algebra.supremand.calls",
        "algebra.refine.calls",
        "serialize.dumps.calls",
        "cli.main.calls",
    )
    DIM = 4
    CLUSTER_EVERY = 4

    trace_count = 12

    def make_ops(self):
        rng = self.rng
        n = self.DIM + 1
        samples = "64" if self.tiny else "2048"
        ops = []
        self.gaps = []
        for k in range(4 if self.tiny else 16):
            clustered = k % self.CLUSTER_EVERY == 1
            if clustered:
                gap = 10.0 ** (-6 + (k // self.CLUSTER_EVERY) % 4)
                sigma = np.r_[1.0, 1.0 - gap, np.sort(rng.uniform(0.1, 0.9, n - 2))[::-1]]
                C = rng.uniform(1.0, 4.0) * (_haar(rng, n) * sigma) @ _haar(rng, n).conj().T
            else:
                C = _cgauss(rng, (n, n))
            path = self.write_matrix(f"C{k}.json", C)
            est_seed = str(int(rng.integers(0, 2**31)))
            for which in "bsd":
                ops.append(Op(len(ops), which,
                              ["norm", path, "--which", which, "--samples", samples, "--seed", est_seed],
                              {"C": C, "clustered": clustered}))
        return ops

    def warmup(self):
        for which in "bsd":
            self.cli(["norm", self.path("C0.json"), "--which", which, "--samples", "16"])

    def run(self, op):
        return self.cli(op.argv)

    def check(self, op, output):
        failure = self.cli_failure(output)
        if failure:
            return failure
        doc = json.loads(output[1])
        C = op.data["C"]
        est = doc["estimate"]
        if op.tag == "b":
            oracle = oracles.op_norm(C)
            if abs(doc["oracle_op_norm"] - oracle) > 1e-10 * oracle:
                return "op_norm_clustered" if op.data["clustered"] else "op_norm_inaccurate"
            below = "estimate_below_band"
        else:
            oracle = oracles.cone_norm(C)
            below = "cone_estimate_below_band"
        if not math.isfinite(est):
            return "nonfinite"
        gap = (oracle - est) / oracle
        self.gaps.append(gap)
        if gap < -1e-12:
            return "estimate_above_oracle"
        if gap > BAND:
            return below
        return None

    def norm_gap_max(self):
        return max(self.gaps, default=0.0)


class EvolveFlows(Workload):
    """`evolve ... --out F.csv`: exp at dim 8 and schrodinger at dim 16
    (1000 steps each), disc in the hyperbolic, elliptic and parabolic
    regimes (1000 steps each), and the README's disc example at t = 40."""

    name = "evolve_flows"
    KNOWN = {
        "readme_t40_exit_3": "README disc example a=0.3 b=0.8+0.2i z0=0.5 at --t-max 40 rounds onto the rim and exits 3",
    }
    DOMINATED = (
        "numerics.mat_exp.calls",
        "geometry.BallPoint.calls",
        "dynamics.trajectory.calls",
        "dynamics.disc_evolve_closed.calls",
        "dynamics.schrodinger_evolve.calls",
        "serialize.trajectory_csv.calls",
        "cli.main.calls",
    )
    TOL = 1e-9
    CHECK_EVERY = 25

    trace_count = 6

    def make_ops(self):
        rng = self.rng
        steps = 20 if self.tiny else 1000
        ops = []

        def add(tag, mode, z0, t_max, dt, flags, X):
            k = len(ops)
            zpath = self.write_matrix(f"z{k}.json", np.asarray(z0, dtype=complex).reshape(-1, 1))
            argv = ["evolve", mode, "--state", zpath, "--t-max", _num(t_max), "--dt", _num(dt),
                    *flags, "--out", self.path(f"traj{k}.csv")]
            ops.append(Op(k, tag, argv, {"X": X, "z0": np.asarray(z0, dtype=complex),
                                         "dt": dt, "steps": int(math.floor(t_max / dt + 1e-9))}))

        def disc(tag, a, b, z0, t_max, dt):
            X = np.array([[1j * a, b], [np.conj(b), -1j * a]])
            add(tag, "disc", [z0], t_max, dt,
                ["--a", _num(a), "--b-re", _num(b.real), "--b-im", _num(b.imag)], X)

        for _ in range(1 if self.tiny else 8):
            X = _lie_matrix(rng, 8, 0.5)
            k = len(ops)
            gpath = self.write_matrix(f"X{k}.json", X)
            z0 = rng.uniform(0.0, 0.7) * _direction(rng, 8)
            add("exp", "exp", z0, steps * 0.005, 0.005, ["--generator", gpath], X)

            G = _cgauss(rng, (16, 16))
            H = 0.5 * (G + G.conj().T)
            H *= 2.0 / oracles.op_norm(H)
            hpath = self.write_matrix(f"H{len(ops)}.json", H)
            X = np.zeros((17, 17), dtype=complex)
            X[:16, :16] = -1j * H
            z0 = rng.uniform(0.0, 0.9) * _direction(rng, 16)
            add("schrodinger", "schrodinger", z0, steps * 0.01, 0.01, ["--hamiltonian", hpath], X)

            phase = complex(np.exp(2j * math.pi * rng.uniform()))
            z0 = rng.uniform(0.0, 0.7) * phase
            a = rng.uniform(-1.0, 1.0)
            b = math.sqrt(a * a + rng.uniform(0.05, 0.5)) * complex(np.exp(2j * math.pi * rng.uniform()))
            disc("hyperbolic", a, b, z0, steps * 0.002, 0.002)
            a = rng.choice([-1.0, 1.0]) * rng.uniform(0.5, 1.5)
            b = abs(a) * rng.uniform(0.0, 0.9) * complex(np.exp(2j * math.pi * rng.uniform()))
            disc("elliptic", a, b, z0, steps * 0.002, 0.002)
            a = rng.choice([-1.0, 1.0]) * rng.uniform(0.2, 1.0)
            b = a * (1.0, 1j, -1.0, -1j)[int(rng.integers(4))]
            disc("parabolic", a, complex(b), z0, steps * 0.002, 0.002)
            disc("readme_t40", 0.3, 0.8 + 0.2j, 0.5, 40.0, 0.1)
        return ops

    def warmup(self):
        """Five-step versions of each mode of the first pool cycle."""
        for op in self.ops[:6]:
            argv = list(op.argv)
            argv[argv.index("--t-max") + 1] = _num(5 * op.data["dt"])
            self.cli(argv)

    def run(self, op):
        return self.cli(op.argv)

    def collect(self, op, output):
        csv = ""
        if output[0] == 0:
            with open(op.argv[-1], encoding="utf-8") as fp:
                csv = fp.read()
        return output + (csv,)

    def check(self, op, output):
        failure = self.cli_failure(output)
        if failure:
            return "readme_t40_exit_3" if op.tag == "readme_t40" and failure == "exit_3" else failure
        steps, dt = op.data["steps"], op.data["dt"]
        doc = json.loads(output[1])
        lines = output[3].splitlines()
        if doc["samples"] != steps + 1 or len(lines) != steps + 2:
            return "wrong_sample_count"
        z0, X = op.data["z0"], op.data["X"]
        for i in sorted(set(range(0, steps + 1, self.CHECK_EVERY)) | {steps}):
            row = [float(x) for x in lines[i + 1].split(",")]
            if row[0] != i * dt:
                return "wrong_time"
            z = np.array(row[1::2]) + 1j * np.array(row[2::2])
            if not np.all(np.isfinite(z)) or np.linalg.norm(z) >= 1.0:
                return "nonfinite"
            if np.max(np.abs(z - oracles.flow_point(X, z0, i * dt))) > self.TOL:
                return "off_exact_flow"
        return None


class GeometryRim(Workload):
    """One pair: distance(u, v) and distance(phi_T u, phi_T v) with
    T = transport_from_origin(p) @ R, at dims 1/4/16 and rim gaps
    1 - ||z|| log-uniform in [1e-12, 0.5]."""

    name = "geometry_rim"
    KNOWN = {
        "nonfinite": "distance returns inf near the rim (m - s cancellation)",
        "inaccurate": "distance off its 50-digit value by more than the rim-gap rounding allows",
        "domain_error": "phi_T of a rim point rounds onto the boundary",
    }
    DOMINATED = (
        "geometry.distance.calls",
        "geometry.BallPoint.calls",
        "isometries.mobius_apply.calls",
        "isometries.transport_from_origin.calls",
        "isometries.ExtendedOperator.calls",
    )
    DIMS = (1, 4, 16)

    @property
    def trace_count(self):
        return len(self.ops)

    def _rim_point(self, dim):
        BallPoint, DomainError = self.hb.geometry.BallPoint, self.hb.DomainError
        while True:
            gap = 10.0 ** self.rng.uniform(-12.0, math.log10(0.5))
            try:
                return BallPoint((1.0 - gap) * _direction(self.rng, dim))
            except DomainError:
                continue

    def make_ops(self):
        rng = self.rng
        ExtendedOperator = self.hb.isometries.ExtendedOperator
        ops = []
        for k in range(30 if self.tiny else 3000):
            dim = self.DIMS[k % 3]
            u, v = self._rim_point(dim), self._rim_point(dim)
            p = self.hb.geometry.BallPoint(rng.uniform(0.0, 0.85) * _direction(rng, dim))
            R = ExtendedOperator(oracles.expm(rng.uniform(-1.5, 1.5) * _lie_matrix(rng, dim, 1.0)))
            ops.append(Op(k, f"dim{dim}", data={"u": u, "v": v, "p": p, "R": R}))
        return ops

    def warmup(self):
        self.run(self.ops[0])

    def run(self, op):
        geometry, isometries = self.hb.geometry, self.hb.isometries
        d = op.data
        try:
            d1 = geometry.distance(d["u"], d["v"])
            T = isometries.transport_from_origin(d["p"]) @ d["R"]
            pu = isometries.mobius_apply(T, d["u"])
            pv = isometries.mobius_apply(T, d["v"])
            d2 = geometry.distance(pu, pv)
        except Exception as exc:  # an escaped error is an output too
            return ("raised", type(exc).__name__, str(exc))
        return (d1.hex(), d2.hex(), pu.vector.tobytes(), pv.vector.tobytes(), T.matrix.tobytes())

    def check(self, op, output):
        if output[0] == "raised":
            return "domain_error" if output[1] == "DomainError" else "raised"
        d1, d2 = float.fromhex(output[0]), float.fromhex(output[1])
        if not (math.isfinite(d1) and math.isfinite(d2)):
            return "nonfinite"
        u, v = op.data["u"].vector, op.data["v"].vector
        pu, pv = (np.frombuffer(b, dtype=complex) for b in output[2:4])
        n = u.size
        T = np.frombuffer(output[4], dtype=complex).reshape(n + 1, n + 1)
        D1, du, dv = oracles.distance(u, v)
        D2, dpu, dpv = oracles.distance(pu, pv)
        if abs(d1 - D1) > oracles.distance_tolerance(D1, du, dv, n):
            return "inaccurate"
        if abs(d2 - D2) > oracles.distance_tolerance(D2, dpu, dpv, n):
            return "inaccurate"
        allowed = (1e-12 * max(1.0, D1) + oracles.mobius_tolerance(T, u, pu, dpu)
                   + oracles.mobius_tolerance(T, v, pv, dpv))
        if abs(D2 - D1) > allowed:
            return "not_invariant"
        return None


WORKLOADS = {w.name: w for w in (VerifyAll, NormEstimators, EvolveFlows, GeometryRim)}
