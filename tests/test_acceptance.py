"""End-to-end acceptance gate.

One test per advertised guarantee, fourteen in all, each reporting a
single PASS/FAIL line with the measured defect next to the tolerance it
is held to; conftest prints the lines in the terminal summary.  Every
test seeds its own generator, so the file can be run alone, reordered,
or filtered without changing any draw.  The whole module is budgeted
to finish well under a minute.
"""

import math
import os
import subprocess
import sys

import numpy as np

from hilbertball import algebra, dynamics, geometry, isometries, numerics
from hilbertball.geometry import BallPoint, origin
from hilbertball.verify import _cgauss, _members, _mirrors, _points

from conftest import CRITERION_LINES, quadrature_distance


def _report(num, label, ok, detail):
    line = "criterion %2d %s  %s: %s" % (num, "PASS" if ok else "FAIL", label, detail)
    CRITERION_LINES.append(line)
    assert ok, line


def _self_adjoint(rng, dim):
    # an extended operator, unlike verify's n x n Hamiltonian
    G = _cgauss(rng, (dim + 1, dim + 1))
    return isometries.ExtendedOperator(0.5 * (G + G.conj().T))


# 1 -------------------------------------------------------------------

def test_distance_anchors():
    rng = np.random.default_rng(101)
    radial = 0.0
    agree = 0.0
    for _ in range(200):
        u = BallPoint(_points(rng, 4, ()))
        v = BallPoint(_points(rng, 4, ()))
        radial = max(radial, abs(math.tanh(geometry.distance(u, origin(4))) - u.norm()))
        agree = max(
            agree,
            abs(geometry.distance(u, v) - math.atanh(geometry.tanh_distance(u, v))),
        )
    quad = 0.0
    for _ in range(10):
        u = BallPoint(_points(rng, 4, (), 0.6))
        v = BallPoint(_points(rng, 4, (), 0.6))
        quad = max(quad, abs(geometry.distance(u, v) - quadrature_distance(u, v)))
    ok = radial <= 1e-12 and agree <= 1e-12 and quad <= 1e-6
    _report(1, "distance anchors", ok,
            "radial %.2e (tol 1e-12), log/tanh %.2e (tol 1e-12), quadrature %.2e (tol 1e-6)"
            % (radial, agree, quad))


# 2 -------------------------------------------------------------------

def test_isometry_invariance():
    rng = np.random.default_rng(102)
    mob = 0.0
    mir = 0.0
    for i in range(200):
        u = BallPoint(_points(rng, 4, ()))
        v = BallPoint(_points(rng, 4, ()))
        d = geometry.distance(u, v)
        if i % 2 == 0:
            T = isometries.ExtendedOperator(_members(rng, 4, 1)[0])
            d2 = geometry.distance(isometries.mobius_apply(T, u),
                                   isometries.mobius_apply(T, v))
            mob = max(mob, abs(d2 - d))
        else:
            F = _mirrors(rng, 4, 1)
            d2 = geometry.distance(BallPoint(isometries.mirror_apply(F, u).vector[0]),
                                   BallPoint(isometries.mirror_apply(F, v).vector[0]))
            mir = max(mir, abs(d2 - d))
    ok = mob < 1e-9 and mir < 1e-9
    _report(2, "isometry invariance", ok,
            "mobius %.2e, mirror %.2e (tol 1e-9, 200 triples)" % (mob, mir))


# 3 -------------------------------------------------------------------

def test_membership_routes_agree():
    rng = np.random.default_rng(103)
    deltas = (1e-5, 1e-3, 0.3)
    disagreements = 0
    accepted = 0
    for i in range(1000):
        kind = i % 5
        if kind == 0:
            T = isometries.ExtendedOperator(_members(rng, 4, 1)[0])
        elif kind == 1:
            T = isometries.transport_from_origin(BallPoint(_points(rng, 4, ())))
        elif kind == 2:
            T = isometries.ExtendedOperator((1.0 + deltas[i % 3]) * _members(rng, 4, 1)[0])
        elif kind == 3:
            T = isometries.ExtendedOperator(_cgauss(rng, (5, 5)))
        else:
            T = (isometries.epsilon_operator(4) if i % 2
                 else isometries.ExtendedOperator(_members(rng, 4, 1)[0]))
        a = bool(isometries.is_inhomogeneous_unitary(T, tol=1e-8))
        b = bool(isometries.check_block_conditions(T, tol=1e-8))
        if a != b:
            disagreements += 1
        if a:
            accepted += 1
    ok = disagreements == 0
    _report(3, "membership route equivalence", ok,
            "%d disagreements on 1000 candidates (%d accepted, tol 1e-8)"
            % (disagreements, accepted))


# 4 -------------------------------------------------------------------

def test_star_homomorphism_and_associativity():
    rng = np.random.default_rng(104)
    hom = 0.0
    for _ in range(200):
        C = isometries.ExtendedOperator(_cgauss(rng, (5, 5)))
        Cp = isometries.ExtendedOperator(_cgauss(rng, (5, 5)))
        z = BallPoint(_points(rng, 4, (), 0.8))
        got = algebra.star_pointwise(C, Cp, z)
        want = algebra.evaluate(algebra.star_operator(C, Cp), z)
        hom = max(hom, abs(got - want))
    assoc = 0.0
    for _ in range(50):
        A = isometries.ExtendedOperator(_cgauss(rng, (5, 5)))
        B = isometries.ExtendedOperator(_cgauss(rng, (5, 5)))
        C = isometries.ExtendedOperator(_cgauss(rng, (5, 5)))
        left = algebra.star_operator(algebra.star_operator(A, B), C)
        right = algebra.star_operator(A, algebra.star_operator(B, C))
        assoc = max(assoc, float(np.max(np.abs(left.matrix - right.matrix))))
    ok = hom < 1e-9 and assoc <= 1e-12
    _report(4, "star product is the operator product", ok,
            "pointwise vs operator %.2e (tol 1e-9, 200 triples), associativity %.2e (tol 1e-12)"
            % (hom, assoc))


# 5 -------------------------------------------------------------------

def test_commutator_matches_poisson_bracket():
    rng = np.random.default_rng(105)
    worst = 0.0
    for _ in range(200):
        C = isometries.ExtendedOperator(_cgauss(rng, (5, 5)))
        Cp = isometries.ExtendedOperator(_cgauss(rng, (5, 5)))
        z = BallPoint(_points(rng, 4, (), 0.8))
        comm = algebra.star_pointwise(C, Cp, z) - algebra.star_pointwise(Cp, C, z)
        worst = max(worst, abs(comm + 1j * algebra.poisson_bracket(C, Cp, z)))
    ok = worst < 1e-8
    _report(5, "commutator equals -i times the bracket", ok,
            "defect %.2e (tol 1e-8, 200 triples)" % worst)


# 6 -------------------------------------------------------------------

def test_invariant_norm_tracks_operator_norm():
    rng = np.random.default_rng(60)
    low = 2.0
    high = -1.0
    for _ in range(50):
        C = isometries.ExtendedOperator(_cgauss(rng, (5, 5)))
        est = algebra.norm_b(C)
        op = numerics.op_norm(C.matrix)
        low = min(low, est / op)
        high = max(high, (est - op) / op)
    unit_gap = abs(algebra.norm_b(algebra.unit(4)) - 1.0)
    w_gap = abs(algebra.norm_b(algebra.involution_failure_operator(4)) - math.sqrt(2.0))
    ok = low >= 1.0 - 1e-12 and high <= 1e-12 and unit_gap <= 1e-9 and w_gap <= 1e-9
    _report(6, "invariant norm is the operator norm", ok,
            "worst ratio 1 - %.2e (floor 1 - 1e-12), relative overshoot %.2e (tol 1e-12), "
            "unit gap %.2e, rank-one gap %.2e (tol 1e-9)"
            % (1.0 - low, high, unit_gap, w_gap))


# 7 -------------------------------------------------------------------

def test_involution_square_norms():
    W = algebra.involution_failure_operator(4)
    eps = isometries.epsilon_operator(4)
    plain = numerics.op_norm((W.adjoint() @ W).matrix)
    twisted = numerics.op_norm((W.adjoint() @ eps @ W).matrix)
    ok = abs(plain - 2.0) <= 1e-12 and twisted <= 1e-12
    _report(7, "plain square norm 2, twisted square zero", ok,
            "|plain - 2| = %.2e, twisted = %.2e (tol 1e-12)"
            % (abs(plain - 2.0), twisted))


# 8 -------------------------------------------------------------------

def test_cone_norm_not_submultiplicative():
    C1, C2 = algebra.submultiplicativity_witnesses(4)
    n1 = algebra.norm_s(C1)
    n2 = algebra.norm_s(C2)
    np_ = algebra.norm_s(algebra.star_operator(C1, C2))
    ratio = np_ / (n1 * n2)
    ok = (abs(n1 - 1.0 / math.sqrt(2.0)) <= 1e-6 and abs(n2 - 1.0) <= 1e-6
          and abs(np_ - 1.0) <= 1e-6 and ratio >= 1.41)
    _report(8, "product breaks the Banach inequality", ok,
            "norms %.6f / %.6f / %.6f (tol 1e-6), ratio %.4f (needs >= 1.41)"
            % (n1, n2, np_, ratio))


# 9 -------------------------------------------------------------------

def test_curvature_constant():
    rng = np.random.default_rng(109)
    worst = 0.0
    for _ in range(50):
        z = BallPoint(_points(rng, 4, (), 0.6))
        u = _cgauss(rng, 4)
        worst = max(worst, abs(geometry.sectional_curvature_probe(z, u) - geometry.CURVATURE))
    ok = worst <= 1e-8
    _report(9, "holomorphic sectional curvature -2", ok,
            "worst defect %.2e (tol 1e-8, 50 probes)" % worst)


# 10 ------------------------------------------------------------------

def test_disc_flows_and_schrodinger():
    rng = np.random.default_rng(110)
    regimes = [
        dynamics.DiscGenerator(0.3, 0.8 + 0.2j),   # |b| > |a|
        dynamics.DiscGenerator(1.1, 0.4 - 0.3j),   # |b| < |a|
        dynamics.DiscGenerator(1.0, 1.0j),         # |b| = |a|
    ]

    def disc_point():
        return complex(0.8 * math.sqrt(rng.uniform())
                       * np.exp(2j * math.pi * rng.uniform()))

    closed = 0.0
    for g in regimes:
        X = g.extended()
        for _ in range(15):
            z = disc_point()
            t = float(rng.uniform(-2.0, 2.0))
            a = dynamics.disc_evolve_closed(g, z, t)
            b = dynamics.evolve_exp(X, BallPoint([z]), t).vector[0]
            closed = max(closed, abs(a - b))
    group = 0.0
    for g in regimes:
        for _ in range(15):
            z = disc_point()
            t1 = float(rng.uniform(-1.0, 1.0))
            t2 = float(rng.uniform(-1.0, 1.0))
            step = dynamics.disc_evolve_closed(g, dynamics.disc_evolve_closed(g, z, t1), t2)
            direct = dynamics.disc_evolve_closed(g, z, t1 + t2)
            group = max(group, abs(step - direct))
    rot = 0.0
    g = dynamics.DiscGenerator(0.7, 0.0)
    for _ in range(15):
        z = disc_point()
        t = float(rng.uniform(-3.0, 3.0))
        rot = max(rot, abs(dynamics.disc_evolve_closed(g, z, t)
                           - np.exp(2j * 0.7 * t) * z))
    H = np.array([[1.0, 0.5 - 0.25j], [0.5 + 0.25j, -0.3]])
    gen = dynamics.HamiltonianGenerator(H)
    z0 = BallPoint(np.array([0.3 + 0.2j, -0.1 + 0.4j]))
    # the fourth-order stencil's truncation, h^4 ||z^(5)|| / 30, and its
    # rounding, about 1.5 eps ||z|| / h, are both near 1e-13 at h = 1e-3
    h = 1e-3
    t0 = 0.7
    mid = dynamics.schrodinger_evolve(gen, z0, t0).vector
    far_m, near_m, near_p, far_p = dynamics.schrodinger_evolve(gen, z0, t0 + h * np.array([-2.0, -1.0, 1.0, 2.0])).vector
    zdot = (far_m - 8.0 * near_m + 8.0 * near_p - far_p) / (12.0 * h)
    residual = float(np.linalg.norm(1j * zdot - H @ mid))
    ok = closed <= 1e-9 and group <= 1e-9 and rot <= 1e-12 and residual < 1e-11
    _report(10, "flows match their generators", ok,
            "closed vs exp %.2e (tol 1e-9), group law %.2e (tol 1e-9), "
            "rotation %.2e (tol 1e-12), schrodinger residual %.2e (tol 1e-11)"
            % (closed, group, rot, residual))


# 11 ------------------------------------------------------------------

def test_inner_product_recovered_from_distances():
    rng = np.random.default_rng(111)
    worst = 0.0
    for _ in range(200):
        u = BallPoint(_points(rng, 4, ()))
        e = _cgauss(rng, 4)
        v = BallPoint(u.norm() * e / np.linalg.norm(e))
        got = geometry.recover_inner_product(u, v)
        worst = max(worst, abs(got - complex(np.vdot(u.vector, v.vector))))
    ok = worst < 1e-9
    _report(11, "inner product from distance data", ok,
            "worst defect %.2e (tol 1e-9, 200 equal-norm pairs)" % worst)


# 12 ------------------------------------------------------------------

def test_uncertainty_lower_bound():
    rng = np.random.default_rng(112)
    margin = math.inf
    for _ in range(200):
        C = _self_adjoint(rng, 4)
        Cp = _self_adjoint(rng, 4)
        z = BallPoint(_points(rng, 4, (), 0.8))
        product = algebra.dispersion(C, z) * algebra.dispersion(Cp, z)
        bound = 0.5 * abs(algebra.poisson_bracket(C, Cp, z))
        margin = min(margin, product - bound)
    ok = margin >= -1e-12
    _report(12, "dispersion product dominates the bracket", ok,
            "worst margin %.2e (floor -1e-12, 200 triples)" % margin)


# 13 ------------------------------------------------------------------

def test_second_degree_certificate():
    rng = np.random.default_rng(113)
    worst = 0.0
    for _ in range(10):
        C = isometries.ExtendedOperator(_cgauss(rng, (5, 5)))
        z = BallPoint(_points(rng, 4, (), 0.6))
        worst = max(worst, algebra.kahler_condition_check(C, z))

    def quartic(W):
        return (1.0 - np.sum(np.abs(W) ** 2, axis=-1)) * np.abs(W[..., 0]) ** 4

    # fixed control point with a sizable first coordinate, where the
    # quartic term cannot hide in the stencil noise, at the step 0.05
    # that kahler_condition_check takes there
    e0 = np.eye(4, dtype=complex)[0]
    zc = np.array([0.5 + 0.1j, -0.2, 0.15j, 0.1])
    control = algebra.second_degree_defect(quartic, zc, 0.05, [e0])
    ok = worst < 1e-10 and control > 1e-3
    _report(13, "represented functions are degree two", ok,
            "worst defect %.2e (tol 1e-10), quartic control %.2e (needs > 1e-3)"
            % (worst, control))


# 14 ------------------------------------------------------------------

def test_verification_report_is_deterministic():
    cmd = [sys.executable, "-m", "hilbertball", "verify", "all",
           "--dim", "4", "--trials", "60", "--seed", "11"]
    # the subprocesses import the package this test imported
    src = os.path.dirname(os.path.dirname(algebra.__file__))
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    env = dict(os.environ, PYTHONPATH=path)
    first = subprocess.run(cmd, capture_output=True, env=env)
    second = subprocess.run(cmd, capture_output=True, env=env)
    ok = (first.returncode == 0 and second.returncode == 0
          and first.stdout == second.stdout and len(first.stdout) > 0)
    _report(14, "verification report byte-identical", ok,
            "exit codes %d/%d, %d bytes, identical %s"
            % (first.returncode, second.returncode, len(first.stdout),
               first.stdout == second.stdout))
