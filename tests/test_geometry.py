import math
import re

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings

from hilbertball import algebra, geometry, isometries
from hilbertball.errors import DomainError
from hilbertball.geometry import (
    BallPoint,
    TangentVector,
    connection,
    curve_length,
    distance,
    geodesic_from_origin,
    hermitian_energy,
    k_factor,
    kahler_form,
    metric,
    origin,
    recover_inner_product,
    sectional_curvature_probe,
    tanh_distance,
)

from conftest import ball_vectors, cgauss, quadrature_distance, random_point, same_bytes
from test_kernels import folded, rows_with


# oracle: the closed-form distance against the quadrature of the line
# element (conftest.quadrature_distance)

def test_distance_matches_metric_quadrature(rng):
    worst = 0.0
    for _ in range(8):
        u = random_point(rng, 3, max_norm=0.6)
        v = random_point(rng, 3, max_norm=0.6)
        worst = max(worst, abs(distance(u, v) - quadrature_distance(u, v)))
    assert worst < 1e-6


# frozen anchors ------------------------------------------------------

def test_radial_anchor():
    u = BallPoint(np.array([0.5 + 0j]))
    assert abs(distance(u, origin(1)) - math.atanh(0.5)) < 1e-15
    assert tanh_distance(u, origin(1)) == 0.5


def test_skew_pair_anchor():
    # inner product 0.25i, so the real-part reduction does not apply
    u = BallPoint(np.array([0.5 + 0j]))
    v = BallPoint(np.array([0.5j]))
    assert abs(distance(u, v) - 0.8403498862140019) < 1e-12
    # same number through the disk automorphism moving u to 0
    w = (v.vector[0] - u.vector[0]) / (1 - np.conj(u.vector[0]) * v.vector[0])
    assert abs(distance(u, v) - math.atanh(abs(w))) < 1e-13


def test_metric_frozen_value():
    z = BallPoint(np.array([0.3 + 0.4j, -0.2 + 0.1j]))
    X = TangentVector(np.array([0.5 + 0j, 0.25j]), np.array([0.1 - 0.2j, 0.3 + 0j]))
    Y = TangentVector(np.array([-0.2 + 0.6j, 0.15 + 0j]), np.array([0.4 + 0j, -0.05 + 0.35j]))
    want = 0.35005102040816327 - 0.008316326530612267j
    assert abs(metric(z, X, Y) - want) < 1e-15


def test_connection_frozen_value():
    z = BallPoint(np.array([0.3 + 0.4j, -0.2 + 0.1j]))
    got = connection(z, np.array([1.0 + 0j, 0j]), np.array([0j, 1.0 + 0j]))
    want = np.array([-0.28571429 - 0.14285714j, 0.42857143 - 0.57142857j])
    assert np.allclose(got, want, atol=1e-8)


def test_curvature_probe_frozen_origin():
    got = sectional_curvature_probe(origin(2), np.array([1.0 + 0j, 0j]))
    assert abs(got - (-1.9999999999765574)) < 1e-14


# metric structure ----------------------------------------------------

def test_k_factor_anchor():
    assert k_factor(origin(3)) == 1.0
    z = BallPoint(np.array([0.6 + 0j]))
    assert abs(k_factor(z) - 1.0 / 0.64) < 1e-15


def test_metric_symmetric_and_j_invariant(rng):
    for _ in range(50):
        z = random_point(rng, 3)
        X = TangentVector(cgauss(rng, 3), cgauss(rng, 3))
        Y = TangentVector(cgauss(rng, 3), cgauss(rng, 3))
        assert abs(metric(z, X, Y) - metric(z, Y, X)) < 1e-12
        assert abs(metric(z, X.apply_J(), Y.apply_J()) - metric(z, X, Y)) < 1e-12


def test_metric_positive_on_real_tangents(rng):
    for _ in range(100):
        z = random_point(rng, 4)
        u = cgauss(rng, 4)
        val = metric(z, TangentVector.real(u), TangentVector.real(u))
        assert abs(val.imag) < 1e-13
        assert val.real > 0.0


def test_kahler_form_antisymmetric(rng):
    z = random_point(rng, 3)
    X = TangentVector.real(cgauss(rng, 3))
    Y = TangentVector.real(cgauss(rng, 3))
    assert abs(kahler_form(z, X, Y) + kahler_form(z, Y, X)) < 1e-12
    # compatibility: omega(X, Y) = g(JX, Y)
    assert abs(kahler_form(z, X, Y) - metric(z, X.apply_J(), Y)) == 0.0


def test_hermitian_energy_is_half_real_evaluation(rng):
    z = random_point(rng, 3)
    u = cgauss(rng, 3)
    doubled = metric(z, TangentVector.real(u), TangentVector.real(u))
    assert isinstance(hermitian_energy(z, u), float)
    assert abs(hermitian_energy(z, u) - 0.5 * doubled.real) < 1e-12
    # an array of points and directions gives the single calls row by row
    Z = np.array([random_point(rng, 3).vector for _ in range(6)])
    U = cgauss(rng, Z.shape)
    singles = [hermitian_energy(BallPoint(w), v) for w, v in zip(Z, U)]
    assert same_bytes(hermitian_energy(Z, U), singles)


def test_hermitian_energy_dim1_poincare():
    z = BallPoint(np.array([0.4 + 0j]))
    du = np.array([1.0 + 0j])
    want = 1.0 / (1.0 - 0.16) ** 2
    assert abs(hermitian_energy(z, du) - want) < 1e-14


def test_connection_symmetric_vanishes_at_origin(rng):
    z = random_point(rng, 3)
    X, Y = cgauss(rng, 3), cgauss(rng, 3)
    assert np.allclose(connection(z, X, Y), connection(z, Y, X))
    assert np.allclose(connection(origin(3), X, Y), 0.0)


# distance properties -------------------------------------------------

@settings(max_examples=150)
@given(ball_vectors(dim=3), ball_vectors(dim=3))
def test_distance_log_and_tanh_agree(uv, vv):
    u, v = BallPoint(uv), BallPoint(vv)
    assert abs(math.tanh(distance(u, v)) - tanh_distance(u, v)) < 1e-12


@settings(max_examples=150)
@given(ball_vectors(dim=3), ball_vectors(dim=3))
def test_distance_symmetry_and_identity(uv, vv):
    u, v = BallPoint(uv), BallPoint(vv)
    assert distance(u, v) == distance(v, u)
    assert distance(u, u) == 0.0
    assert distance(u, v) >= 0.0


@settings(max_examples=100)
@given(ball_vectors(dim=2), ball_vectors(dim=2), ball_vectors(dim=2))
def test_triangle_inequality(av, bv, cv):
    a, b, c = BallPoint(av), BallPoint(bv), BallPoint(cv)
    assert distance(a, c) <= distance(a, b) + distance(b, c) + 1e-9


def test_distance_dimension_mismatch():
    with pytest.raises(DomainError):
        distance(origin(2), origin(3))


def test_distance_through_origin_adds():
    # u and -u lie on one radial geodesic
    u = BallPoint(np.array([0.3 + 0.4j, 0.1 - 0.2j]))
    r = u.norm()
    assert abs(distance(u, BallPoint(-u.vector)) - 2.0 * math.atanh(r)) < 1e-12


def test_distance_transport_invariant(rng):
    worst = 0.0
    for _ in range(60):
        u, v = random_point(rng, 4, 0.85), random_point(rng, 4, 0.85)
        T = isometries.transport_from_origin(random_point(rng, 4, 0.85))
        su, sv = isometries.mobius_apply(T, u), isometries.mobius_apply(T, v)
        worst = max(worst, abs(distance(su, sv) - distance(u, v)))
    assert worst < 1e-9


def mp_distance(u, v):
    """(1/2) log[(m + s)/(m - s)] in 120-digit arithmetic on the exact
    input floats: the cancelling form, evaluated where it cannot cancel."""
    with mpmath.workdps(120):
        a = [mpmath.mpc(x.real, x.imag) for x in u.vector]
        b = [mpmath.mpc(x.real, x.imag) for x in v.vector]
        c = mpmath.fsum(mpmath.conj(x) * y for x, y in zip(a, b))
        nu = mpmath.fsum(abs(x) ** 2 for x in a)
        nv = mpmath.fsum(abs(y) ** 2 for y in b)
        duv = mpmath.fsum(abs(x - y) ** 2 for x, y in zip(a, b))
        m = abs(1 - c)
        s = mpmath.sqrt(duv - nu * nv + abs(c) ** 2)
        return float(mpmath.log((m + s) / (m - s)) / 2)


def assert_distance_matches_mpmath(u, v):
    got, want = distance(u, v), mp_distance(u, v)
    du, dv = u.gap, v.gap
    eps = np.finfo(float).eps
    bound = 1e-12 * max(1.0, want) + 4 * u.dim * eps * (1.0 / du + 1.0 / dv)
    assert abs(got - want) <= bound, (u.dim, 1.0 - u.norm(), 1.0 - v.norm(), got, want)


def test_distance_near_the_rim_matches_mpmath(rng):
    # 1 - ||z||; the last one sits just inside BallPoint's 1e-12 margin
    gaps = (1e-4, 1e-6, 1e-8, 1e-10, 1.01e-12)
    for dim in (1, 4, 16):
        for gu in gaps:
            for gv in gaps:
                pu, pv = cgauss(rng, dim), cgauss(rng, dim)
                u = BallPoint((1.0 - gu) * pu / np.linalg.norm(pu))
                v = BallPoint((1.0 - gv) * pv / np.linalg.norm(pv))
                assert_distance_matches_mpmath(u, v)


def test_distance_of_nearby_points_matches_mpmath(rng):
    # v = u + h d with Re<u|d> <= 0, so v stays inside with u
    for dim in (1, 4, 16):
        for radius in (0.5, 0.99, 1.0 - 1e-6):
            for h in (1e-6, 1e-9, 1e-12):
                pu, d = cgauss(rng, dim), cgauss(rng, dim)
                u = radius * pu / np.linalg.norm(pu)
                d /= np.linalg.norm(d)
                if np.vdot(u, d).real > 0.0:
                    d = -d
                assert_distance_matches_mpmath(BallPoint(u), BallPoint(u + h * d))


@pytest.mark.parametrize("seed", [0, 11, 12345])
def test_distance_of_nearby_points_is_relatively_accurate(seed):
    # a small distance is read to a few eps relative: the gaps carry an
    # absolute rounding of eps each and the four dots one of n eps, so
    # the error model is c eps d (n + 1/du + 1/dv); measured c <= 0.98
    # at these seeds, and log((m + s)/den) in place of log1p misses by
    # up to 1.2e-4 relative
    rng = np.random.default_rng(seed)
    eps = np.finfo(float).eps
    for dim in (1, 4, 16):
        for _ in range(100):
            pu, d = cgauss(rng, dim), cgauss(rng, dim)
            u = BallPoint(rng.uniform(0.0, 0.98) * pu / np.linalg.norm(pu))
            v = BallPoint(u.vector + 10.0 ** rng.uniform(-12.0, -2.0) * d / np.linalg.norm(d))
            got, want = distance(u, v), mp_distance(u, v)
            assert abs(got - want) <= 4 * eps * want * (dim + 1.0 / u.gap + 1.0 / v.gap), (dim, got, want)


# geodesics and lengths -----------------------------------------------

def test_geodesic_param_is_euclidean_scaling():
    z = BallPoint(np.array([0.2 + 0.5j, -0.3 + 0j]))
    for t in (0.0, 0.25, 0.8, 1.0):
        g = geodesic_from_origin(z, t)
        assert np.array_equal(g.vector, t * z.vector)
        assert abs(distance(origin(2), g) - math.atanh(t * z.norm())) < 1e-13
    with pytest.raises(DomainError):
        geodesic_from_origin(z, 1.2)


def test_curve_length_radial_converges():
    z = BallPoint(np.array([0.7 + 0j]))
    want = math.atanh(0.7)
    errs = []
    for n in (64, 128, 256):
        ts = np.linspace(0.0, 1.0, n + 1)
        samples = [BallPoint(t * z.vector) for t in ts]
        errs.append(abs(curve_length(samples) - want))
    # second order: each doubling divides the error by about 4
    assert errs[2] < errs[0] / 8.0
    assert errs[2] < 1e-5


def test_curve_length_never_beats_distance(rng):
    # bent curves between random endpoints stay at least as long as the
    # geodesic distance
    for _ in range(10):
        u, v = random_point(rng, 2, 0.6), random_point(rng, 2, 0.6)
        bend = 0.3 * cgauss(rng, 2)
        ts = np.linspace(0.0, 1.0, 600)
        pts = []
        for t in ts:
            w = (1 - t) * u.vector + t * v.vector + t * (1 - t) * bend
            pts.append(BallPoint(w))
        assert curve_length(pts) >= distance(u, v) - 1e-6


def test_curve_length_needs_two_samples():
    with pytest.raises(DomainError):
        curve_length([origin(2)])


# curvature -----------------------------------------------------------

def test_curvature_constant_minus_two(rng):
    worst = 0.0
    for _ in range(25):
        z = random_point(rng, 3, max_norm=0.6)
        u = cgauss(rng, 3)
        worst = max(worst, abs(sectional_curvature_probe(z, u) + 2.0))
    assert worst < 1e-8


def test_curvature_probe_reads_directions_of_any_size(rng):
    # the probe reads u / ||u||, so 2^k u gives u's bits at any scale
    z, u = random_point(rng, 3, 0.8), cgauss(rng, 3)
    want = sectional_curvature_probe(z, u)
    for k in (-1000, -600, 600, 1000):
        assert sectional_curvature_probe(z, u * 2.0 ** k).hex() == want.hex()
    for bad in ([0.0, 0.0, 0.0], [0.1, np.nan, 0.0], [0.1, 0.0, complex(0.0, np.inf)]):
        with pytest.raises(DomainError, match="finite nonzero directions"):
            sectional_curvature_probe(z, np.array(bad, dtype=complex))


def test_curvature_probe_reads_the_point_it_is_given(rng):
    # the probe reads the metric on the line through z itself, so its
    # defect is the stencil's at that point, and it varies from point to
    # point; with Richardson at h = 4e-3 (1 - ||z||^2) it stays near 1e-9
    defects = []
    for dim in (1, 4, 16):
        for _ in range(10):
            z = random_point(rng, dim, max_norm=0.9)
            defects.append(abs(sectional_curvature_probe(z, cgauss(rng, dim)) + 2.0))
    assert max(defects) <= 2e-9
    assert len(set(defects)) == len(defects)


# inner product recovery ----------------------------------------------

def test_recover_inner_product(rng):
    worst = 0.0
    for _ in range(120):
        r = 0.85 * rng.uniform() ** 0.25
        g1, g2 = cgauss(rng, 3), cgauss(rng, 3)
        g1, g2 = r * g1 / np.linalg.norm(g1), r * g2 / np.linalg.norm(g2)
        rec = recover_inner_product(BallPoint(g1), BallPoint(g2))
        worst = max(worst, abs(rec - complex(np.vdot(g1, g2))))
    assert worst < 1e-9


def test_recover_equal_points_gives_norm_squared():
    u = BallPoint(np.array([0.3 + 0.4j, 0.1 + 0j]))
    rec = recover_inner_product(u, u)
    assert abs(rec - u.norm() ** 2) < 1e-9
    assert abs(rec.imag) < 1e-9


def test_recover_rejects_bad_inputs():
    u = BallPoint(np.array([0.5 + 0j]))
    v = BallPoint(np.array([0.25 + 0j]))
    with pytest.raises(DomainError):
        recover_inner_product(u, v)  # unequal norms
    with pytest.raises(DomainError):
        recover_inner_product(origin(1), origin(1))  # zero base point


# containers ----------------------------------------------------------

def test_ball_point_validation():
    with pytest.raises(DomainError):
        BallPoint(np.array([1.0 + 0j]))
    with pytest.raises(DomainError):
        BallPoint(np.array([0.8 + 0.8j]))
    p = BallPoint([0.1, 0.2])  # lists coerce
    assert p.dim == 2 and p.vector.dtype == complex


MARGIN_NORM = 1.0 - geometry.BOUNDARY_MARGIN


@pytest.mark.parametrize("entries, message", [
    ([0.1, np.nan], "point has non-finite entries"),
    ([complex(0.0, np.inf), 0.2], "point has non-finite entries"),
    ([1e200, 0.0], "point with norm inf is outside the open ball"),
    ([MARGIN_NORM, 0.0], "point with norm %.17g is outside the open ball" % MARGIN_NORM),
    ([0.6, 0.8j], "point with norm 1 is outside the open ball"),
    ([0.1, complex(0.0, np.inf)], "point has non-finite entries"),
    ([0.1, 1e200], "point with norm inf is outside the open ball"),
])
def test_ball_point_rejections_keep_their_messages(entries, message):
    # one DomainError and no numpy warning, alone or as row 1 of a stack
    with pytest.raises(DomainError) as caught:
        BallPoint(np.array(entries, dtype=complex))
    assert str(caught.value) == message and caught.value.row == 0
    with pytest.raises(DomainError) as caught:
        k_factor(np.array([[0.1, 0.2], entries], dtype=complex))
    assert str(caught.value) == message and caught.value.row == 1


def _outcome(call):
    try:
        return call()
    except DomainError:
        return "rejected"


def test_single_points_and_stacks_share_one_inside_rule(rng):
    # points within 40 ulps of the margin: a single point, a stack and a
    # map's image are inside exactly when <z|z> < _LIMIT_SQ, by np.vdot,
    # and each reads the gap 1 - <z|z>
    wrong = []
    for dim in (1, 2, 4, 16, 33):
        ident = isometries.ExtendedOperator.identity(dim)
        W = cgauss(rng, (1000, dim))
        V = (MARGIN_NORM * (1.0 + 1.1e-16 * rng.integers(-40, 40, (1000, 1)))
             * W / np.linalg.norm(W, axis=-1, keepdims=True))
        for v in V:
            sq = float(np.vdot(v, v).real)
            gap, inside = 1.0 - sq, sq < geometry._LIMIT_SQ
            got = (_outcome(lambda: BallPoint(v).gap.hex()),
                   _outcome(lambda: k_factor(v[None])[0].hex()),
                   _outcome(lambda: isometries.mobius_apply(ident, v[None]).vector.tobytes()))
            want = (gap.hex(), (1.0 / gap).hex(), v.tobytes()) if inside else ("rejected",) * 3
            if got != want:
                wrong.append((dim, v))
    assert wrong == []


@pytest.mark.parametrize("dim", [1, 4, 16])
def test_stack_gaps_are_the_single_points_gaps(rng, dim):
    # one inside rule: every row of a stack gets the gap that the row alone
    # gets, bit for bit, with 1 - ||z|| down to 3e-12
    W = cgauss(rng, (2000, dim))
    r = 1.0 - 10.0 ** rng.uniform(-11.5, 0.0, (2000, 1))
    Z = r * W / np.linalg.norm(W, axis=-1, keepdims=True)
    stack = BallPoint(Z)
    singles = [BallPoint(z).gap for z in Z]
    assert stack.gap.shape == (2000,) and same_bytes(stack.gap, singles)
    assert all(type(stack[i].gap) is float and stack[i].gap == singles[i] for i in (0, 999, 1999))
    assert same_bytes(BallPoint(Z.reshape(40, 50, dim)).gap, stack.gap.reshape(40, 50))
    # one bad row raises one DomainError that names it, over any leading axes
    for i, bad in ((int(rng.integers(2000)), np.ones(dim)), (1234, np.full(dim, np.nan))):
        Y = Z.copy()
        Y[i] = bad
        for shape in ((2000, dim), (40, 50, dim)):
            with pytest.raises(DomainError) as caught:
                BallPoint(Y.reshape(shape))
            assert caught.value.row == i
            assert str(caught.value) == str(pytest.raises(DomainError, BallPoint, bad).value)


def test_stacked_evaluate_and_differential_check_points_once(rng, monkeypatch):
    # a kernel checks a bare array of points once, and a BallPoint never
    # again, also a stack that another kernel returned
    checked = []
    check = BallPoint.__post_init__

    def counted(p):
        checked.append(np.shape(p.vector))
        check(p)

    C = cgauss(rng, (6, 4, 4))
    Z = np.array([random_point(rng, 3, 0.8).vector for _ in range(6)])
    monkeypatch.setattr(BallPoint, "__post_init__", counted)
    for kernel in (algebra.evaluate, algebra.holo_differential,
                   lambda C, Z: algebra.star_pointwise(C, C, Z), lambda C, Z: algebra.poisson_bracket(C, C, Z),
                   lambda C, Z: algebra.dispersion(C + C.conj().swapaxes(-1, -2), Z)):
        checked.clear()
        kernel(C, Z)
        assert checked == [Z.shape]
    checked.clear()
    P = BallPoint(Z)
    images = isometries.mobius_apply(isometries.transport_from_origin(P), P)
    for kernel in (algebra.evaluate, algebra.holo_differential, algebra.hamiltonian_field):
        kernel(C, images)
    assert checked == [Z.shape, Z.shape]


def test_ball_point_holds_a_read_only_copy():
    a = np.array([0.3 + 0.1j, -0.2j])
    p = BallPoint(a)
    a[0] = 5.0
    assert p.vector[0] == 0.3 + 0.1j and p.gap == 1.0 - float(np.vdot(p.vector, p.vector).real)
    with pytest.raises(ValueError):
        p.vector[0] = 5.0
    q = BallPoint(p.vector)
    assert q.vector is not p.vector and q.gap == p.gap


def distance_from_norms(u, v):
    """`distance` with the rim gaps taken from <z|z> on each call, as it
    was before points stored them."""
    w = u.vector - v.vector
    m = abs(1.0 - complex(np.vdot(u.vector, v.vector)))
    du, dv = (1.0 - float(np.real(np.vdot(p.vector, p.vector))) for p in (u, v))
    s = math.sqrt(0.5 * ((du + dv) * float(np.real(np.vdot(w, w)))
                         + (abs(np.vdot(u.vector, w)) ** 2 + abs(np.vdot(v.vector, w)) ** 2)))
    return 0.5 * math.log1p(2.0 * s / (du * dv / (m + s)))


def test_distance_with_stored_gaps_is_bit_equal_to_recomputed_norms(rng):
    for dim in (1, 4, 16):
        for k in range(100):
            if k % 2:
                # rim pairs, 1 - ||z|| down to just inside the margin
                gu, gv = 10.0 ** rng.uniform(-11.99, -1.0, 2)
                pu, pv = cgauss(rng, dim), cgauss(rng, dim)
                u = BallPoint((1.0 - gu) * pu / np.linalg.norm(pu))
                v = BallPoint((1.0 - gv) * pv / np.linalg.norm(pv))
            else:
                u, v = random_point(rng, dim), random_point(rng, dim)
            assert distance(u, v).hex() == distance_from_norms(u, v).hex()


def test_tangent_vector_structure():
    X = TangentVector.real(np.array([1.0 + 2j, 0.5 + 0j]))
    assert np.array_equal(X.hol, X.antihol)
    JJX = X.apply_J().apply_J()
    assert np.allclose(JJX.hol, -X.hol)
    with pytest.raises(DomainError):
        TangentVector(np.zeros(2), np.zeros(3))


@pytest.mark.parametrize("bad", ["rim", "nan"])
def test_point_check_names_the_first_bad_row(rng, bad):
    Z = cgauss(rng, (3, 4, 2)) * 0.1
    Z[1, 2] = [0.8, 0.7] if bad == "rim" else [0.1, np.nan]
    Z[2, 0] = [1.5, 0.0]
    # rows [1, 2] and [2, 0] are bad, 6 and 8 over the flattened leading
    # axes; the error names the first, not the one of largest norm
    with pytest.raises(DomainError) as caught:
        k_factor(Z)
    assert caught.value.row == 6
    if bad == "rim":
        assert str(caught.value) == ("point with norm %.17g is outside the open ball"
                                     % math.sqrt(0.8 ** 2 + 0.7 ** 2))
    else:
        assert str(caught.value) == "point has non-finite entries"


def test_points_rejected_at_the_margin_print_no_norm_below_it():
    # the message reads sqrt(<z|z>) from the <z|z> that rejected the
    # point, and sqrt(fl(m^2)) = m, so no printed norm falls below the
    # margin; np.linalg.norm sums in another order and printed one below
    # it for about 1 in 250 such points
    rng = np.random.default_rng(25)
    printed = []
    for dim in (2, 4, 16):
        for _ in range(100):
            g = cgauss(rng, dim)
            for k in range(-40, 41, 4):
                z = (MARGIN_NORM + k * np.spacing(MARGIN_NORM)) * g / np.linalg.norm(g)
                for call in (lambda: BallPoint(z), lambda: k_factor(z[None])):
                    try:
                        call()
                    except DomainError as exc:
                        printed.append(float(re.search(r"norm (\S+)", str(exc)).group(1)))
    assert len(printed) > 3000
    assert min(printed) >= MARGIN_NORM


@pytest.mark.parametrize("bad", ["rim", "nan"])
def test_stack_kernels_reject_one_bad_row(bad, request):
    folded(request)


@pytest.mark.parametrize("kernel", rows_with("mismatch"))
def test_single_object_kernels_reject_mismatched_dimensions(kernel, request):
    folded(request)


def test_stacked_geometry_kernels_equal_scalar_calls(request):
    folded(request)
