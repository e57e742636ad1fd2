import math

import numpy as np
import pytest

from hilbertball import algebra
from hilbertball.algebra import (
    cone_supremand,
    dispersion,
    evaluate,
    evaluate_blocks,
    fit_operator,
    gradient,
    hamiltonian_field,
    holo_differential,
    invariant_supremand,
    invariant_supremand_chain,
    involution_failure_operator,
    kahler_condition_check,
    norm_b,
    norm_b_estimate,
    norm_d,
    norm_d_estimate,
    norm_s,
    norm_s_estimate,
    poisson_bracket,
    second_degree_defect,
    star_operator,
    star_pointwise,
    submultiplicativity_witnesses,
    unit,
)
from hilbertball.errors import DomainError
from hilbertball.geometry import BallPoint
from hilbertball.isometries import ExtendedOperator, epsilon_operator
from hilbertball.numerics import op_norm

from conftest import cgauss, random_point, same_bytes, wirtinger_first
from test_kernels import folded


def random_operator(rng, dim):
    return ExtendedOperator(cgauss(rng, (dim + 1, dim + 1)))


def self_adjoint_operator(rng, dim):
    G = cgauss(rng, (dim + 1, dim + 1))
    return ExtendedOperator(0.5 * (G + G.conj().T))


# ---------------------------------------------------------------------
# oracle: the holomorphic differential is checked against a central
# finite difference of the function itself before anything downstream
# of it is trusted.
# ---------------------------------------------------------------------

def test_wirtinger_first_on_polynomial():
    a, b = 0.4 + 0.2j, -0.1 + 0.5j

    def g(s):
        return (a + s) ** 2 * np.conj(b + s)

    # d/ds at s=0 is 2 a conj(b); d/dsbar is a^2
    assert abs(wirtinger_first(g) - 2 * a * np.conj(b)) < 5e-8
    assert abs(wirtinger_first(g, conjugate=True) - a * a) < 5e-8


def test_holo_differential_matches_finite_differences(rng):
    worst = 0.0
    for _ in range(20):
        C = random_operator(rng, 3)
        z = random_point(rng, 3, 0.7)
        w = holo_differential(C, z)
        u = cgauss(rng, 3)
        u = u / np.linalg.norm(u)

        def g(s):
            return evaluate(C, BallPoint(z.vector + s * u))

        worst = max(worst, abs(np.dot(w, u) - wirtinger_first(g)))
    assert worst < 1e-6


def test_unit_evaluates_to_one(rng):
    one = unit(3)
    for _ in range(20):
        z = random_point(rng, 3, 0.95)
        assert abs(evaluate(one, z) - 1.0) < 1e-14


def test_evaluate_routes_agree(rng):
    for _ in range(30):
        C = random_operator(rng, 4)
        z = random_point(rng, 4)
        assert abs(evaluate(C, z) - evaluate_blocks(C, z)) < 1e-12


def test_evaluate_dimension_mismatch(rng):
    with pytest.raises(DomainError):
        evaluate(random_operator(rng, 3), random_point(rng, 2))


def test_evaluate_past_the_float_range_raises_one_domain_error(request):
    folded(request)
    # a finite value of the same operator keeps its bits
    assert evaluate(ExtendedOperator(np.full((3, 3), 1e300 + 0j)), BallPoint(np.zeros(2))) == 1e300


@pytest.mark.parametrize("name", ["evaluate_blocks", "holo_differential", "star_pointwise", "poisson_bracket",
                                  "dispersion", "gradient", "hamiltonian_field"],
                         ids=["evaluate_blocks-1-False", "holo_differential-1-True", "star_pointwise-2-True",
                              "poisson_bracket-2-True", "dispersion-1-True", "gradient-1-True",
                              "hamiltonian_field-1-True"])
def test_kernel_past_the_float_range_raises_one_domain_error(name, request):
    folded(request)


def test_operator_stacks_that_do_not_broadcast_raise_domain_error(request):
    folded(request)
    with pytest.raises(DomainError, match=r"^leading axes \(3,\) and \(4,\) do not broadcast$"):
        star_operator(np.zeros((3, 3, 3)), np.zeros((4, 3, 3)))


def test_star_frozen_value():
    rng = np.random.default_rng(5)
    Ca = ExtendedOperator(rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4)))
    Cb = ExtendedOperator(rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4)))
    z = BallPoint(np.array([0.2 + 0.1j, -0.3 + 0j, 0.15 - 0.25j]))
    want = 2.593211204851947 + 0.48620703435980195j
    assert abs(star_pointwise(Ca, Cb, z) - want) < 1e-12


def test_star_is_operator_homomorphism(rng):
    worst = 0.0
    for _ in range(40):
        Ca, Cb = random_operator(rng, 3), random_operator(rng, 3)
        z = random_point(rng, 3)
        pw = star_pointwise(Ca, Cb, z)
        viaop = evaluate(star_operator(Ca, Cb), z)
        worst = max(worst, abs(pw - viaop))
    assert worst < 1e-9


def test_star_associative(rng):
    for _ in range(20):
        C1, C2, C3 = (random_operator(rng, 3) for _ in range(3))
        left = star_operator(star_operator(C1, C2), C3)
        right = star_operator(C1, star_operator(C2, C3))
        assert op_norm(left.matrix - right.matrix) < 1e-12


def test_unit_is_star_neutral(rng):
    C = random_operator(rng, 3)
    one = unit(3)
    assert op_norm(star_operator(one, C).matrix - C.matrix) < 1e-14
    assert op_norm(star_operator(C, one).matrix - C.matrix) < 1e-14


def test_involution_is_pointwise_conjugation(rng):
    for _ in range(30):
        C = random_operator(rng, 3)
        z = random_point(rng, 3)
        assert abs(evaluate(C.adjoint(), z) - np.conj(evaluate(C, z))) < 1e-12


def test_commutator_is_minus_i_poisson(rng):
    worst = 0.0
    for _ in range(40):
        Ca, Cb = random_operator(rng, 3), random_operator(rng, 3)
        z = random_point(rng, 3)
        comm = star_pointwise(Ca, Cb, z) - star_pointwise(Cb, Ca, z)
        worst = max(worst, abs(comm + 1j * poisson_bracket(Ca, Cb, z)))
    assert worst < 1e-8


def test_gradient_of_unit_vanishes(rng):
    z = random_point(rng, 3)
    assert np.allclose(gradient(unit(3), z), 0.0)
    assert dispersion(unit(3), z) == 0.0


def test_hamiltonian_field_real_for_self_adjoint(rng):
    C = self_adjoint_operator(rng, 3)
    z = random_point(rng, 3)
    X = hamiltonian_field(C, z)
    # (u, ubar) pairs are the real tangent embedding
    assert np.allclose(X.hol, X.antihol)


def test_dispersion_requires_self_adjoint(rng):
    C = random_operator(rng, 3)
    with pytest.raises(DomainError):
        dispersion(C, random_point(rng, 3))


def test_uncertainty_product_bounds_bracket(rng):
    worst = 1.0
    for _ in range(60):
        Ca = self_adjoint_operator(rng, 3)
        Cb = self_adjoint_operator(rng, 3)
        z = random_point(rng, 3, 0.8)
        lhs = dispersion(Ca, z) * dispersion(Cb, z)
        rhs = 0.5 * abs(poisson_bracket(Ca, Cb, z))
        worst = min(worst, lhs - rhs)
    assert worst >= -1e-12


@pytest.mark.parametrize("seed", [0, 11, 12345])
def test_dispersion_is_the_star_product_variance(seed):
    # for self-adjoint C, dispersion^2 = f_C^2 - (f_C * f_C) through both
    # star routes, within 1024 eps of max(1, f_C^2), the rounding bound of
    # the membership checks: 5.7e-14 at worst over these draws at dims 1, 4
    # and 16, while a dispersion scaled by 1 + 1e-8 reads 2.5e-11 or more
    rng = np.random.default_rng(seed)
    bound = 1024 * np.finfo(float).eps
    for dim in (1, 4, 16):
        G = cgauss(rng, (200, dim + 1, dim + 1))
        C = 0.5 * (G + G.conj().swapaxes(-1, -2))
        Z = np.array([random_point(rng, dim).vector for _ in range(200)])
        f, d = evaluate(C, Z).real, dispersion(C, Z)
        size = np.maximum(1.0, f * f)
        for variance in (f * f - star_pointwise(C, C, Z), f * f - evaluate(star_operator(C, C), Z)):
            assert (np.abs(d * d - variance) / size).max() <= bound
            assert (np.abs((1.0 + 1e-8) ** 2 * d * d - variance) / size).min() > bound


def test_fit_operator_roundtrip(rng):
    C = random_operator(rng, 3)
    points = [random_point(rng, 3, 0.8) for _ in range(50)]
    vals = [evaluate(C, p) for p in points]
    pts = np.array([p.vector for p in points])
    got = fit_operator(pts, vals)
    assert op_norm(got - C.matrix) < 1e-9
    with pytest.raises(DomainError):
        fit_operator([], [])
    # (n+1)^2 = 16 unknowns need 16 points
    with pytest.raises(DomainError):
        fit_operator(pts[:15], vals[:15])


def test_stacked_evaluate_and_fit_equal_scalar_calls(request):
    folded(request)


def test_stacked_star_kernels_equal_scalar_calls(request):
    folded(request)


@pytest.mark.parametrize("n", [1, 4, 16])
def test_stacked_field_kernels_equal_scalar_calls(n, request):
    folded(request)


# norms ---------------------------------------------------------------

def test_norm_b_of_unit_is_one():
    assert abs(norm_b(unit(3)) - 1.0) < 1e-9


def test_norm_b_tracks_operator_norm(rng):
    # the invariant norm is read off the SVD: no shortfall, and any
    # overshoot is roundoff
    for i in range(10):
        C = random_operator(rng, 3)
        est = norm_b(C)
        o = op_norm(C.matrix)
        assert est <= o + 1e-12 * o
        assert est >= (1.0 - 1e-12) * o


def test_norm_b_estimate_reports_argmax(rng):
    C = random_operator(rng, 2)
    est = norm_b_estimate(C)
    # re-evaluating the supremand at the reported argmax reproduces the
    # value
    again = invariant_supremand(C, est.argmax_z, est.argmax_lambda)
    assert abs(again - est.value) < 1e-12


def _near_pair(n):
    # top two singular values 1e-6 apart, in random unitary frames
    rng = np.random.default_rng(11)
    U, V = (np.linalg.qr(cgauss(rng, (n + 1, n + 1)))[0] for _ in range(2))
    sigma = np.r_[2.0, 2.0 - 2e-6, np.linspace(1.0, 0.2, n - 1)]
    return (U * sigma) @ V.conj().T


@pytest.mark.parametrize("make", [
    lambda n: np.zeros((n + 1, n + 1)),
    lambda n: np.diag(np.r_[3.0, np.ones(n)]),
    lambda n: np.diag(np.r_[np.ones(n), 3.0]),
    lambda n: unit(n).matrix,
    lambda n: np.diag(np.r_[2.0, 2.0, np.ones(n - 1)]),
    _near_pair,
], ids=["zero", "lambda-zero", "z-zero", "unit", "repeated-top", "near-pair"])
def test_norm_b_edge_cases(make):
    # C = 0; v_n = 0, so the witness has lambda = 0; v[:n] = 0, so it has
    # z = 0; a repeated top singular value; a top pair 1e-6 apart
    n = 4
    C = ExtendedOperator(make(n))
    est = norm_b_estimate(C)
    top = np.linalg.svd(C.matrix, compute_uv=False)[0]
    assert abs(est.value - top) <= 1e-12 * top and abs(est.bound - top) <= 1e-12 * top
    BallPoint(est.argmax_z)  # raises unless the witness lies in the ball
    assert est.argmax_lambda >= 0.0
    again = invariant_supremand(C, est.argmax_z, est.argmax_lambda)
    assert abs(again - est.value) <= 1e-12 * top


def test_norm_s_estimate_reports_argmax(rng):
    C = random_operator(rng, 2)
    est = norm_s_estimate(C)
    # the cone counterpart: the reduced quotient at the reported argmax
    # reproduces the value
    assert abs(cone_supremand(C, est.argmax_z) - est.value) < 1e-12
    assert est.argmax_lambda is None


@pytest.mark.parametrize("radius", [0.5, 1.0 - 1e-6], ids=["inside", "rim"])
def test_line_quotient_equals_reduced_quotient(rng, radius):
    # a refine step maximises the quotient of two real quadratics in one
    # coordinate; along every coordinate line, the real and imaginary
    # parts of z, it is the literal cone quotient
    n = 4
    for _ in range(3):
        C = random_operator(rng, n)
        g = cgauss(rng, n)
        z = radius * g / np.linalg.norm(g)
        xi = np.append(z, 1.0)
        for k in range(n):
            for unit in (1.0, 1j):
                f = algebra._line_quotient(C.matrix, xi, k, unit)
                for x in np.linspace(-1.0, 1.0, 9):
                    moved = z.copy()
                    moved[k] = x + 1j * z[k].imag if unit == 1.0 else z[k].real + 1j * x
                    want = cone_supremand(C, moved)
                    assert abs(f(x) - want) <= 1e-12 * (1.0 + want)


def test_norm_s_reads_the_literal_quotient_at_most_once_per_step(rng, monkeypatch):
    # golden-section runs on the line quotient; the literal supremand
    # reads the start and only confirms a step, and the refine never
    # returns less than it got
    calls, gains = [], []
    supremand, refine = algebra.cone_supremand, algebra._refine

    def counted(C, zvec):
        calls.append(1)
        return supremand(C, zvec)

    def checked(*args):
        result = refine(*args)
        gains.append(result[2] >= args[3])
        return result

    monkeypatch.setattr(algebra, "cone_supremand", counted)
    monkeypatch.setattr(algebra, "_refine", checked)
    norm_s_estimate(random_operator(rng, 3))
    assert 0 < len(calls) <= algebra.REFINE_STEPS
    assert gains == [True]


def _count_golden_max(monkeypatch):
    calls = []
    golden_max = algebra.golden_max

    def counted(*args):
        calls.append(1)
        return golden_max(*args)

    monkeypatch.setattr(algebra, "golden_max", counted)
    return calls


def test_refine_stops_at_its_fixed_point(monkeypatch):
    # from its own output every coordinate step is rejected, so the
    # refine stops after one sweep of the 2n real coordinates and
    # returns its input bit for bit; at this seed the first ascent
    # settles before REFINE_STEPS
    n = 3
    rng = np.random.default_rng(1)
    C = random_operator(rng, n)
    g = cgauss(rng, n)
    z0 = 0.5 * g / np.linalg.norm(g)
    fn = lambda zv: cone_supremand(C, zv)
    calls = _count_golden_max(monkeypatch)
    z, _, val = algebra._refine(fn, z0, None, fn(z0), C.matrix)
    assert len(calls) < algebra.REFINE_STEPS
    calls.clear()
    z2, lam, val2 = algebra._refine(fn, z, None, val, C.matrix)
    assert len(calls) == 2 * n
    assert same_bytes(z2, z) and same_bytes([val2], [val]) and lam is None


def test_norm_s_refine_ends_early_once_settled(monkeypatch):
    # from the dual's argmax the ascent settles after one sweep of the 2n
    # real coordinates, well short of its REFINE_STEPS steps
    calls = _count_golden_max(monkeypatch)
    norm_s_estimate(random_operator(np.random.default_rng(2), 3))
    assert 0 < len(calls) < algebra.REFINE_STEPS


def test_supremand_routes_agree(rng):
    worst = 0.0
    for _ in range(25):
        C = random_operator(rng, 3)
        z = random_point(rng, 3, 0.8)
        lam = float(rng.uniform(0.1, 5.0))
        a = invariant_supremand(C, z.vector, lam)
        b = invariant_supremand_chain(C, z.vector, lam)
        worst = max(worst, abs(a - b))
    assert worst < 1e-10


def test_banach_inequality(rng):
    for _ in range(15):
        Ca, Cb = random_operator(rng, 3), random_operator(rng, 3)
        prod = norm_b(star_operator(Ca, Cb))
        assert prod <= norm_b(Ca) * norm_b(Cb) + 1e-12


def test_square_witness_norms():
    W = involution_failure_operator(4)
    eps = epsilon_operator(4)
    assert abs(op_norm((W.adjoint() @ W).matrix) - 2.0) < 1e-12
    assert op_norm((W.adjoint() @ eps @ W).matrix) < 1e-12
    assert abs(norm_b(W) - math.sqrt(2.0)) < 1e-9


def test_cone_norm_witness_values():
    C1, C2 = submultiplicativity_witnesses(3)
    assert abs(norm_s(C1) - 1.0 / math.sqrt(2.0)) < 1e-6
    assert abs(norm_s(C2) - 1.0) < 1e-6
    prod = star_operator(C1, C2)
    assert abs(norm_s(prod) - 1.0) < 1e-6
    # the product exceeds the product of norms: no Banach inequality on
    # the cone route
    assert norm_s(prod) > norm_s(C1) * norm_s(C2) + 0.2


def test_witness_alternative_slot():
    # with e_0 in the lower-left slot of the second witness instead of
    # the upper-right one the violation shows up in the reversed
    # multiplication order: both factors and their product sit at
    # 1/sqrt(2), overshooting the product of norms by sqrt(2)
    C1, _ = submultiplicativity_witnesses(3)
    C2 = ExtendedOperator.from_blocks(np.zeros((3, 3)), np.zeros(3), np.eye(3)[0], 0.0)
    prod = star_operator(C2, C1)
    root_half = 1.0 / math.sqrt(2.0)
    assert abs(norm_s(C2) - root_half) < 1e-6
    assert abs(norm_s(prod) - root_half) < 1e-6
    assert norm_s(prod) > norm_s(C2) * norm_s(C1) + 0.2


def test_norm_d_runs_deterministically(rng):
    C = random_operator(rng, 2)
    a = norm_d(C)
    b = norm_d(C)
    assert a == b
    assert a >= 0.0


def test_norm_d_runs_the_star_chain_once(rng, monkeypatch):
    # the chain is the independent check at the argmax; the dual and
    # the polish run on the eigenvectors and the reduced quotient
    calls = []
    chain = algebra.shifted_supremand_chain

    def counted(C, zvec):
        calls.append(1)
        return chain(C, zvec)

    monkeypatch.setattr(algebra, "shifted_supremand_chain", counted)
    norm_d_estimate(random_operator(rng, 3))
    assert len(calls) == 1


def test_norm_d_matches_norm_s(rng):
    for _ in range(5):
        C = random_operator(rng, 4)
        s = norm_s(C)
        assert abs(norm_d(C) - s) <= 1e-12 * (1.0 + s)


def s_lemma_cone_norm(C):
    """The cone norm by the S-lemma, min over mu >= 0 of
    lambda_max(C*C + mu eps), square rooted: numpy's eigvalsh and scipy's
    bounded scalar search, no code of the package."""
    from scipy.optimize import minimize_scalar

    M = C.conj().T @ C
    eps = np.diag(np.r_[-np.ones(len(C) - 1), 1.0])

    def top(mu):
        return float(np.linalg.eigvalsh(M + mu * eps)[-1])

    hi = 4.0 * top(0.0) + 1.0
    res = minimize_scalar(top, bounds=(0.0, hi), method="bounded", options={"xatol": 1e-14 * hi})
    return math.sqrt(min(res.fun, top(0.0)))


def assert_exact_cone_norm(C):
    """norm_s and norm_d within [-1e-12, 1e-6] relative below the oracle,
    the oracle at most 1e-12 above the bound, and the gap at most 1e-6;
    returns the shortfall."""
    want = s_lemma_cone_norm(C.matrix)
    est = norm_s_estimate(C)
    for value in (est.value, norm_d(C)):
        assert -1e-12 <= (want - value) / want <= 1e-6
    assert want <= est.bound * (1.0 + 1e-12)
    assert (est.bound - est.value) / est.bound <= 1e-6
    return (want - est.value) / want


@pytest.mark.parametrize("seed,n,count", [(401, 1, 50), (404, 4, 50), (416, 16, 50), (7, 4, 40)],
                         ids=["1", "4", "16", "readme-seed-7"])
def test_cone_norms_meet_the_s_lemma_oracle(seed, n, count):
    # complex-Gaussian operators, the README's 40 5x5 ones at seed 7
    # last; the argmax from the dual sits on the rim, pulled in to
    # MAX_RADIUS, which costs at most (1 - MAX_RADIUS) / 2 relative
    rng = np.random.default_rng(seed)
    worst = max(assert_exact_cone_norm(random_operator(rng, n)) for _ in range(count))
    assert worst <= 0.5e-6


def test_cone_norm_with_interior_supremum_is_the_operator_norm(rng):
    # the top right singular vector (z, 1)/||(z, 1)|| with ||z|| = 0.6 lies
    # inside the cone, so mu* = 0 and the cone norm is ||C||_2
    n = 4
    v = np.append(0.6 * (g := cgauss(rng, n)) / np.linalg.norm(g), 1.0)
    V = np.linalg.qr(np.column_stack([v, cgauss(rng, (n + 1, n))]))[0]
    U = np.linalg.qr(cgauss(rng, (n + 1, n + 1)))[0]
    C = ExtendedOperator(U @ np.diag([3.0, 2.0, 1.0, 0.5, 0.1]) @ V.conj().T)
    top = np.linalg.svd(C.matrix, compute_uv=False)[0]
    est = norm_s_estimate(C)
    for value in (est.value, norm_d(C), est.bound):
        assert abs(value - top) <= 1e-12 * top


@pytest.mark.parametrize("diagonal", [(3, 1, 1, 1, 2), (2, 2, 1, 1, 1)])
def test_cone_norm_at_a_repeated_top_eigenvalue(diagonal):
    # at mu* the top eigenvalue of C*C + mu eps is double, and the
    # eigenvector the dual returns lies inside the ball; the polish
    # carries it to the rim, where the supremum is the root mean square
    # of the largest of the first n entries and the last one
    C = ExtendedOperator(np.diag(np.array(diagonal, dtype=complex)))
    want = math.sqrt((max(diagonal[:-1]) ** 2 + diagonal[-1] ** 2) / 2.0)
    est = norm_s_estimate(C)
    for value in (est.value, norm_d(C)):
        assert want - 1e-6 <= value <= want * (1.0 + 1e-12)
    assert abs(est.bound - want) <= 1e-12 * want


def test_cone_norm_of_zero_is_zero():
    C = ExtendedOperator(np.zeros((5, 5), dtype=complex))
    with np.errstate(all="raise"):
        est = norm_s_estimate(C)
        assert (est.value, est.bound, norm_d(C)) == (0.0, 0.0, 0.0)


@pytest.mark.parametrize("estimator", [norm_b, norm_s, norm_d])
def test_broken_chain_route_is_caught(rng, monkeypatch, estimator):
    invariant, shifted = algebra.invariant_supremand_chain, algebra.shifted_supremand_chain
    monkeypatch.setattr(algebra, "invariant_supremand_chain",
                        lambda C, zvec, lam: 1.01 * invariant(C, zvec, lam))
    monkeypatch.setattr(algebra, "shifted_supremand_chain",
                        lambda C, zvec: 1.01 * shifted(C, zvec))
    with pytest.raises(RuntimeError, match="supremand routes disagree"):
        estimator(random_operator(rng, 2))


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("estimator", [norm_b, norm_s, norm_d])
def test_norms_scale_exactly_by_powers_of_two(estimator):
    # each norm is 1-homogeneous and is read on the operator scaled to
    # unit size, so 2^k C has exactly 2^k times C's norm, also where the
    # products of C would over- or underflow (C*C at 1e-200 rounds to 0);
    # a decimal scale rounds C's entries, which moves each norm by a
    # rounding of C's
    rng = np.random.default_rng(31)
    G = cgauss(rng, (5, 5))
    value = estimator(ExtendedOperator(G))
    for k in (664, -664, -996):
        assert estimator(ExtendedOperator(np.ldexp(G.view(float), k).view(complex))) == math.ldexp(value, k)
    for scale in (1e-300, 1e-200, 1e200):
        assert abs(estimator(ExtendedOperator(scale * G)) - scale * value) <= 1e-8 * scale * value
    # entries below the largest float whose norm is past it, and entries
    # whose modulus is past it, though no real or imaginary part is
    for huge in (np.ldexp(G.view(float), 1022).view(complex), np.diag(np.full(5, 1.7e308 + 1.7e308j))):
        with pytest.raises(DomainError, match="^the norm exceeds the float range$"):
            estimator(ExtendedOperator(huge))


# second-degree structure ---------------------------------------------

def test_kahler_condition_holds_for_represented_functions(rng):
    C = random_operator(rng, 3)
    z = random_point(rng, 3, 0.6)
    assert kahler_condition_check(C, z) < 1e-10


@pytest.mark.parametrize("n", [1, 4, 16])
def test_kahler_condition_defect_is_rounding_over_the_step_squared(n):
    # the stencil has no truncation error, so on 50 draws at each radius
    # the defect stays within 16 eps max|C_jk| / h^2 for the step h the
    # check takes, from ||z|| = 0.85 (h = 0.05) to 1 - 1e-10 (h = 5e-11)
    rng = np.random.default_rng(n)
    for radius in (0.85, 0.99, 0.999, 1.0 - 1e-6, 1.0 - 1e-10):
        C = cgauss(rng, (50, n + 1, n + 1))
        W = cgauss(rng, (50, n))
        Z = radius / np.linalg.norm(W, axis=-1)[:, None] * W
        h = np.minimum(0.05, 0.5 * (1.0 - np.linalg.norm(Z, axis=-1)))
        bound = 16 * np.finfo(float).eps * np.abs(C).max(axis=(-2, -1)) / h ** 2
        assert np.all(kahler_condition_check(C, Z) <= bound)


def test_kahler_condition_negative_control(rng):
    # a genuinely quartic rescaled function must be flagged, at the step
    # 0.05 that kahler_condition_check takes for ||z|| <= 0.9
    z = random_point(rng, 3, 0.6)

    def quartic(W):
        return (1.0 - np.sum(np.abs(W) ** 2, axis=-1)) * np.abs(W[..., 0]) ** 4

    e0 = np.eye(3, dtype=complex)[0]
    assert second_degree_defect(quartic, z.vector, 0.05, [e0]) > 1e-3


def test_kahler_condition_check_reads_its_stencil_in_one_evaluate_call(rng, monkeypatch):
    # 9 stencil points along each of FD_DIRECTIONS directions, for every
    # point of a stack, go through one call
    shapes = []
    evaluate_points = algebra.evaluate

    def counted(C, W):
        shapes.append(W.vector.shape)
        return evaluate_points(C, W)

    monkeypatch.setattr(algebra, "evaluate", counted)
    kahler_condition_check(random_operator(rng, 3), random_point(rng, 3, 0.6))
    assert shapes == [(9, algebra.FD_DIRECTIONS, 3)]
    kahler_condition_check(cgauss(rng, (5, 4, 4)), random_point(rng, 3, 0.6))
    assert shapes[1:] == [(9, algebra.FD_DIRECTIONS, 5, 3)]


def test_second_degree_defect_on_polynomials():
    # |a + s|^4 has d^2/ds^2 = 2 conj(a)^2 and d^2/dsbar^2 = 2 a^2 at 0,
    # both of modulus 2 |a|^2
    a = 0.3 - 0.7j
    calls = []

    def quartic(W):
        calls.append(W.shape)
        return np.abs(W[..., 0]) ** 4

    assert abs(second_degree_defect(quartic, [a], 1e-4, [[1.0]]) - 2 * abs(a) ** 2) < 1e-6
    assert calls == [(9, 1, 1)]

    # along u, w_0^2 + 3 conj(w_1)^2 has d^2 = 2 u_0^2 and dbar^2 =
    # 6 conj(u_1)^2, which differ: the defect is the larger modulus,
    # whichever derivative it comes from, and the largest over directions
    def quadratic(W):
        return W[..., 0] ** 2 + 3.0 * W[..., 1].conj() ** 2

    z = np.array([0.2, 0.1j])
    for u, want in (([1.0, 0.5], 2.0), ([0.5, 1.0], 6.0), ([1.0, 0.0], 2.0), ([0.0, 1.0], 6.0)):
        assert abs(second_degree_defect(quadratic, z, 1e-2, [u]) - want) < 1e-9
    defects = second_degree_defect(quadratic, np.stack([z, -z]), np.array([1e-2, 2e-2]), [[1.0, 0.5], [0.5, 1.0]])
    assert defects.shape == (2,) and np.allclose(defects, 6.0, rtol=0.0, atol=1e-9)
