import math
import os
import subprocess
import sys

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings

from hilbertball import numerics
from hilbertball.errors import DomainError
from hilbertball.numerics import (
    gaussian_directions,
    golden_max,
    hermitian_norm,
    mat_exp,
    op_norm,
    real_projection,
    sobol_unit,
)

from hilbertball.dynamics import TIME_BLOCK
from hilbertball.isometries import MembershipCheck
from hilbertball.verify import _points

from conftest import cgauss, complex_matrices, haar_unitary, same_bytes
from test_kernels import folded


# ---------------------------------------------------------------------
# oracles: matrices assembled from a known singular value decomposition
# U diag(sigma) V*, and LAPACK's SVD through np.linalg.svd, which op_norm
# does not use (it reads the top eigenvalue of a Gram matrix), and the
# matrix exponential from scipy (Pade with balancing, a genuinely
# different algorithm than the Taylor scaling-squaring used by the
# library).
# ---------------------------------------------------------------------

def with_singular_values(rng, sigma, n, m):
    """An n x m matrix whose singular values are exactly `sigma` (up to
    the roundoff of assembling it), in Haar-random singular frames."""
    S = np.zeros((n, m))
    S[np.arange(len(sigma)), np.arange(len(sigma))] = sigma
    return haar_unitary(rng, n) @ S @ haar_unitary(rng, m).conj().T


def test_op_norm_matches_svd(rng):
    # every rectangular shape up to 6 x 6, with the top two singular
    # values equal or a relative gap apart
    worst = 0.0
    for n in range(1, 7):
        for m in range(1, 7):
            for gap in (0.0, 1e-12, 1e-9, 1e-6, 1e-3):
                top = 10.0 ** rng.uniform(-2.0, 2.0)
                rest = rng.uniform(0.0, 1.0 - gap, 4)
                sigma = top * np.concatenate([[1.0, 1.0 - gap], rest])[:min(n, m)]
                M = with_singular_values(rng, sigma, n, m)
                worst = max(worst, abs(op_norm(M) - top) / top)
    assert worst <= 1e-13


def test_op_norm_anchors():
    assert op_norm(np.zeros((4, 4))) == 0.0
    assert op_norm(np.zeros((0, 3))) == 0.0
    assert abs(op_norm(np.diag([2.0, 1.0, 1.0, 1.0, 1.0])) - 2.0) < 1e-12
    # rank one: ||x y^H|| = ||x|| ||y||
    x = np.array([3.0, 4.0j])
    y = np.array([1.0, 1.0, 1.0 + 0j])
    assert abs(op_norm(np.outer(x, y.conj())) - 5.0 * math.sqrt(3.0)) < 1e-10
    # np.linalg.norm would return nan or a vector norm for these
    for bad in (np.array([[1.0, np.nan], [0.0, 1.0]]),
                np.array([[1.0, 0.0], [np.inf, 1.0]]),
                np.array([1.0, 2.0, 3.0])):
        with pytest.raises(DomainError):
            op_norm(bad)


def test_op_norm_degenerate_spectrum():
    # a nearly repeated top singular value must not cost accuracy
    M = np.diag([1.0, 1.0, 1.0 - 1e-14])
    assert abs(op_norm(M) - 1.0) < 1e-12


def test_mat_exp_matches_scipy(rng):
    worst = 0.0
    for _ in range(40):
        n = int(rng.integers(1, 6))
        M = cgauss(rng, (n, n))
        t = float(rng.uniform(-3.0, 3.0))
        worst = max(worst, op_norm(mat_exp(M, t) - scipy.linalg.expm(t * M)))
    assert worst < 1e-10


def test_mat_exp_relative_error_against_scipy():
    # 200 fixed draws of dims 1-5 with operator norms up to 12, every
    # other one a stack of 2-5 matrices; the Paterson-Stockmeyer sum
    # keeps every matrix within 2e-14 of expm relative to its norm
    rng = np.random.default_rng(13)
    worst = 0.0
    for k in range(200):
        n = int(rng.integers(1, 6))
        size = int(rng.integers(2, 6)) if k % 2 else 1
        M = cgauss(rng, (size, n, n))
        M *= (rng.uniform(0.0, 12.0, size) / np.linalg.norm(M, 2, axis=(1, 2)))[:, None, None]
        E = mat_exp(M) if size > 1 else mat_exp(M[0])[None]
        for Ei, Mi in zip(E, M):
            want = scipy.linalg.expm(Mi)
            worst = max(worst, op_norm(Ei - want) / op_norm(want))
    assert worst <= 2e-14


def test_mat_exp_large_argument(rng):
    # scaling-squaring should stay accurate well past ||tX|| = 1
    M = cgauss(rng, (4, 4))
    M = M / op_norm(M) * 12.0
    assert op_norm(mat_exp(M, 1.0) - scipy.linalg.expm(M)) < 1e-8


def test_mat_exp_additivity(rng):
    M = cgauss(rng, (5, 5))
    lhs = mat_exp(M, 0.7) @ mat_exp(M, 0.3)
    assert op_norm(lhs - mat_exp(M, 1.0)) < 1e-12


def test_mat_exp_skew_hermitian_is_unitary(rng):
    G = cgauss(rng, (4, 4))
    X = G - G.conj().T
    U = mat_exp(X, 1.3)
    assert op_norm(U.conj().T @ U - np.eye(4)) < 1e-12


@pytest.mark.parametrize("n", [2, 9, 17])
def test_mat_exp_batch_equals_scalar_calls(rng, n):
    X = cgauss(rng, (n, n))
    X *= 4.0 / np.linalg.norm(X, np.inf)
    # unsorted, with zeros and negatives, spanning halving counts 0 to 8
    # or more, and more times than one trajectory block
    ts = np.concatenate(
        [[0.0, -0.0], rng.uniform(-0.05, 0.05, 20), rng.uniform(-40.0, 40.0, 60)]
    )
    rng.shuffle(ts)
    norms = np.abs(ts) * np.linalg.norm(X, np.inf)
    assert norms.min() <= 0.5 and norms.max() > 2.0 ** 7 and ts.size > TIME_BLOCK
    stack = mat_exp(X, ts)
    assert stack.shape == (ts.size, n, n)
    for t, E in zip(ts.tolist(), stack):
        assert same_bytes(E, mat_exp(X, t))


def _dyadic(n, k):
    """An n x n matrix of infinity norm exactly 0.5 2^k."""
    D = np.zeros((n, n), dtype=complex)
    D[0, 0], D[0, -1], D[-1, 0] = 0.125, -0.375j, 0.25
    if n == 1:
        D[0, 0] = 0.5
    return D * 2.0 ** k


@pytest.mark.parametrize("n", [2, 5])
def test_mat_exp_stack_equals_scalar_calls(rng, n):
    # unsorted generators with the zero matrix, spanning halving counts 0
    # to 10, with norms exactly 0.5 2^k on the halving boundary, at a
    # positive and a negative time
    scales = np.concatenate([[0.0], rng.uniform(0.0, 0.4, 5), rng.uniform(1.0, 400.0, 10)])
    X = cgauss(rng, (scales.size, n, n))
    X *= (scales / np.linalg.norm(X, np.inf, axis=(1, 2)))[:, None, None]
    X = np.concatenate([X, [_dyadic(n, k) for k in range(-2, 9)], np.zeros((1, n, n))])
    rng.shuffle(X)
    assert all(np.linalg.norm(_dyadic(n, k), np.inf) == 0.5 * 2.0 ** k for k in range(-2, 9))
    for t in (1.0, -0.7, 2.0):
        stack = mat_exp(X, t)
        assert stack.shape == X.shape
        for Xi, E in zip(X, stack):
            assert same_bytes(E, mat_exp(Xi, t))
        # a single matrix is a stack of one
        for k in range(-2, 9):
            D = _dyadic(n, k)
            assert same_bytes(mat_exp(D, t), mat_exp(D[None], t)[0])


@pytest.mark.parametrize("n", [1, 3])
def test_mat_exp_halves_to_norm_at_most_one_half(n):
    # the halvings count is the smallest s >= 0 with norm / 2^s <= 0.5, on
    # and either side of the boundary norms 0.5 2^k and at the zero matrix
    cases = [np.zeros((n, n), dtype=complex)]
    for k in range(-3, 9):
        D = _dyadic(n, k)
        cases += [D, D * (1.0 + 2.0 ** -52), D * (1.0 - 2.0 ** -53)]
    for D in cases:
        nrm, count = float(np.linalg.norm(D, np.inf)), 0
        while nrm > 0.5:
            nrm, count = nrm / 2.0, count + 1
        E = numerics._taylor(D / 2.0 ** count)
        for _ in range(count):
            E = E @ E
        assert same_bytes(mat_exp(D), E)
        assert same_bytes(mat_exp(D, np.array([1.0, 1.0]))[1], E)


def test_op_norm_stack_equals_scalar_calls(request):
    folded(request)
    assert op_norm(np.zeros((3, 0, 2))).tolist() == [0.0, 0.0, 0.0]


def svd_norms(M):
    return np.linalg.svd(M, compute_uv=False)[..., 0]


@pytest.mark.parametrize("shape", [(60, 5, 5), (40, 3, 7), (40, 7, 3), (30, 1, 6), (30, 6, 1), (20, 17, 17)])
def test_op_norm_stack_matches_numpy_svd(rng, shape):
    # tall, wide and square stacks over twelve orders of magnitude, every
    # other matrix with its top two singular values a relative 1e-9 apart
    M = cgauss(rng, shape) * (10.0 ** rng.uniform(-6.0, 6.0, shape[0]))[:, None, None]
    U, sigma, Vh = np.linalg.svd(M, full_matrices=False)
    if sigma.shape[-1] > 1:
        sigma[::2, 1] = sigma[::2, 0] * (1.0 - 1e-9)
        M = (U * sigma[:, None, :]) @ Vh
    want = svd_norms(M)
    assert np.max(np.abs(op_norm(M) - want) / want) <= 1e-14


@pytest.mark.filterwarnings("error")
def test_op_norm_extreme_scales(rng):
    # the Gram matrix of M itself would overflow at 1e200 and underflow
    # at 1e-200; a zero matrix in the stack has norm 0
    M = cgauss(rng, (20, 4, 6))
    want = svd_norms(M)
    for scale in (1e200, 1e-200):
        got = op_norm(scale * M)
        assert np.isfinite(got).all()
        assert np.max(np.abs(got / scale - want) / want) <= 1e-13
        assert abs(op_norm(scale * M[3]) / scale - want[3]) <= 1e-13 * want[3]
    mixed = np.stack([1e200 * M[0], np.zeros((4, 6)), 1e-200 * M[1], M[2]])
    got = op_norm(mixed)
    assert np.isfinite(got).all() and got[1] == 0.0
    ref = np.array([1e200 * want[0], 0.0, 1e-200 * want[1], want[2]])
    assert np.all(np.abs(got - ref) <= 1e-13 * ref)
    # one scaling pass, by an exact power of two, takes 2^k M to the matrix
    # it takes M to, so the norm scales by 2^k bit for bit, alone and in a
    # stack
    for k in (664, -664, -996):
        scaled = np.ldexp(M.real, k) + 1j * np.ldexp(M.imag, k)
        assert same_bytes(op_norm(scaled), np.ldexp(op_norm(M), k))
        assert all(op_norm(scaled[i]) == np.ldexp(op_norm(M[i]), k) for i in range(len(M)))
    # a subnormal largest entry, which that pass takes to [1/2, 1) as it
    # takes a normal one: alone, in a stack, and as a dense matrix, whose
    # norm is the SVD's of its exact rescaling by 2^1060, rounded to the
    # subnormal grid of spacing 2^-1074
    tiny = np.diag([0.0, 0.0, 2.225e-313j])
    assert op_norm(tiny) == 2.225e-313
    assert op_norm(np.stack([tiny, np.eye(3)])).tolist() == [2.225e-313, 1.0]
    sub = np.ldexp(M[4].real, -1060) + 1j * np.ldexp(M[4].imag, -1060)
    exact = svd_norms((np.ldexp(sub.real, 1060) + 1j * np.ldexp(sub.imag, 1060))[None])[0]
    assert abs(op_norm(sub) - np.ldexp(exact, -1060)) <= np.ldexp(1.0, -1074)
    # a norm past the float range, of entries whose modulus is past it too
    # or is not, raises one DomainError, alone and in a stack
    for huge in (np.full((3, 3), 1.7e308 + 1.7e308j), np.full((3, 3), 1e308 + 0j)):
        for X in (huge, np.stack([np.eye(3), huge])):
            with pytest.raises(DomainError, match="^the norm overflowed the float range in op_norm$"):
                op_norm(X)


def test_hermitian_norm_matches_numpy_svd(rng):
    G = cgauss(rng, (50, 5, 5)) * (10.0 ** rng.uniform(-6.0, 6.0, 50))[:, None, None]
    H = G + G.conj().swapaxes(-1, -2)
    want = svd_norms(H)
    got = hermitian_norm(H)
    assert got.shape == (50,)
    assert np.max(np.abs(got - want) / want) <= 1e-14
    # the norm is the larger of -lambda_min and lambda_max
    assert hermitian_norm(np.diag([-3.0, 1.0, 2.0])) == 3.0
    assert hermitian_norm(np.diag([-1.0, 0.5, 2.0])) == 2.0
    assert isinstance(hermitian_norm(H[0]), float)
    assert hermitian_norm(np.zeros((0, 0))) == 0.0
    assert hermitian_norm(np.zeros((2, 0, 0))).tolist() == [0.0, 0.0]
    with pytest.raises(DomainError):
        hermitian_norm(np.array([[1.0, np.inf], [np.inf, 1.0]]))


@pytest.mark.parametrize("bad", ["nan_entry", "times_with_stack", "four_axes"])
def test_stacked_kernels_reject_bad_stacks(rng, bad):
    # times broadcast against the generators' leading axes, or raise
    # naming both shapes
    X = cgauss(rng, (3, 2, 2))
    t, message = 1.0, "non-finite"
    if bad == "nan_entry":
        X[1, 0, 1] = np.nan
    elif bad == "times_with_stack":
        t, message = np.array([0.1, 0.2, 0.3, 0.4]), r"^shapes of t and X \(4,\) and \(3,\) do not broadcast$"
    else:
        X, t, message = X[None], np.array([0.1, 0.2]), r"^shapes of t and X \(2,\) and \(1, 3\) do not broadcast$"
    with pytest.raises(DomainError, match=message):
        mat_exp(X, t)
    if bad == "nan_entry":
        with pytest.raises(DomainError):
            op_norm(X)


def _taylor_out_of_place(M):
    """Paterson-Stockmeyer as `_taylor` sums it, one new array per term."""
    M2 = M @ M
    powers, M4, eye = (None, M, M2, M2 @ M), M2 @ M2, np.eye(M.shape[-1])

    def chunk(j):
        top = min(3, numerics.EXP_TAYLOR_TERMS - 4 * j)
        B = numerics._TAYLOR[4 * j + top] * powers[top]
        for i in range(top - 1, 0, -1):
            B = B + numerics._TAYLOR[4 * j + i] * powers[i]
        return B + numerics._TAYLOR[4 * j] * eye

    R = chunk(numerics.EXP_TAYLOR_TERMS // 4)
    for j in range(numerics.EXP_TAYLOR_TERMS // 4 - 1, -1, -1):
        R = chunk(j) + M4 @ R
    return R


@pytest.mark.parametrize("n", [1, 5, 17])
def test_taylor_sums_in_place_with_the_bits_of_new_arrays(rng, n):
    M = cgauss(rng, (30, n, n))
    M *= (rng.uniform(0.0, 0.5, 30) / np.linalg.norm(M, np.inf, axis=(1, 2)))[:, None, None]
    assert same_bytes(numerics._taylor(M), _taylor_out_of_place(M))
    # every count 0: mat_exp is the Taylor sum with no sort or ldexp
    assert same_bytes(mat_exp(M), _taylor_out_of_place(M))


@pytest.mark.parametrize(
    "t", [np.array([[0.0, np.inf], [0.1, 0.2]]), np.array([0.1, np.nan]), np.array([np.inf]), np.nan]
)
def test_mat_exp_rejects_bad_times(t):
    with pytest.raises(DomainError):
        mat_exp(np.eye(2), t)


def test_mat_exp_past_the_float_range_raises_one_domain_error(request):
    folded(request)


INF, NAN = float("inf"), float("nan")


@pytest.mark.parametrize("value", [
    INF, -INF, NAN, complex(INF, 0.0), complex(0.5, NAN), np.float64(INF), np.complex128(NAN),
    np.array([0.5, INF]), np.array([[0.5, complex(0.0, NAN)]]), (np.zeros(2), np.array([NAN, 0.0])),
])
def test_guard_rejects_non_finite_numbers_and_arrays(value):
    # a Python number is read by cmath, anything else by numpy
    kernel = numerics._guard("the value")(lambda: value)
    with pytest.raises(DomainError, match=r"^the value overflowed the float range in <lambda>$"):
        kernel()


@pytest.mark.parametrize("value", [
    0.5, -1e308, True, False, 3, complex(1e308, -1e308), np.float64(2.0), np.bool_(True),
    np.array([0.5, -1e308]), np.array([True, False]), (np.zeros(2), np.ones(2)),
])
def test_guard_passes_finite_numbers_and_arrays_through(value):
    assert numerics._guard("the value")(lambda: value)() is value


def test_guard_reads_every_field_of_a_dataclass_result():
    # a membership verdict is a bool and a float, or arrays of them
    check = numerics._guard("the residual")(lambda ok, defect: MembershipCheck(ok, defect))
    for ok, defect in [(False, INF), (True, NAN), (np.array([True, False]), np.array([0.0, INF]))]:
        with pytest.raises(DomainError, match="the residual overflowed"):
            check(ok, defect)
    assert check(False, 1e308).defect == 1e308


@settings(max_examples=60)
@given(complex_matrices(dim=3))
def test_mat_exp_inverse_property(M):
    prod = mat_exp(M, 1.0) @ mat_exp(M, -1.0)
    assert op_norm(prod - np.eye(3)) < 1e-9 * max(1.0, op_norm(M)) ** 2


def realified(z):
    """C^n -> R^2n, real parts over imaginary parts, along the last axis."""
    return np.concatenate([z.real, z.imag], axis=-1)


def apply(pair, z):
    """A z + B conj(z) for a pair (A, B) and vectors along the last axis."""
    A, B = pair
    return (A @ z[..., None] + B @ z.conj()[..., None])[..., 0]


def test_real_projection_idempotent(rng):
    # complete real-orthonormal frames of R^8 as complex 4 x 8 frames:
    # column j realifies to column j of a real orthogonal matrix
    Q, _ = np.linalg.qr(rng.standard_normal((5, 8, 8)))
    V = Q[:, :4] + 1j * Q[:, 4:]
    P = real_projection(V[..., :3])
    Z = cgauss(rng, (5, 4))
    PZ = apply(P, Z)
    assert np.allclose(apply(P, PZ), PZ, atol=1e-14)
    # self-adjoint in the real inner product Re<u|v>
    W = cgauss(rng, (5, 4))
    lhs = np.sum(PZ.conj() * W, axis=-1).real
    rhs = np.sum(Z.conj() * apply(P, W), axis=-1).real
    assert np.allclose(lhs, rhs, atol=1e-14)
    # with the projection onto the other columns it is the identity (I, 0)
    (A, B), (Ac, Bc) = P, real_projection(V[..., 3:])
    assert op_norm(A + Ac - np.eye(4)).max() < 1e-14 and op_norm(B + Bc).max() < 1e-14
    # a stack of frames gives the stack of single projections, and nested
    # lists are read as the array they make, columns and all
    for k, frame in enumerate(V[..., :3]):
        for single in (real_projection(frame), real_projection(frame.tolist())):
            assert same_bytes(single[0], A[k]) and same_bytes(single[1], B[k])


@pytest.mark.filterwarnings("error")
def test_real_projection_rejects_skew_basis():
    e1 = np.array([1.0 + 0j, 0.0])
    with pytest.raises(DomainError):
        real_projection(np.stack([e1, 0.9 * e1], axis=-1))
    # a NaN Gram defect is no pass, nor is one past the float range
    with pytest.raises(DomainError, match="Gram defect nan"):
        real_projection(np.array([[np.nan], [0j]]))
    with pytest.raises(DomainError, match=r"^basis is not real-orthonormal \(Gram defect inf\)$"):
        real_projection(2.0 ** 600 * np.eye(3, 1))


def test_real_linear_map_apply(rng):
    # the pair (A, B) of a projection acts as the realified projection
    # Q Q^T of its real frame Q does on R^6
    Q, _ = np.linalg.qr(rng.standard_normal((6, 4)))
    P = real_projection(Q[:3] + 1j * Q[3:])
    Z = cgauss(rng, (4, 3))
    assert np.allclose(realified(apply(P, Z)), realified(Z) @ (Q @ Q.T), atol=1e-14)


def test_sobol_unit_deterministic():
    a = sobol_unit(64, 5, seed=3)
    b = sobol_unit(64, 5, seed=3)
    assert np.array_equal(a, b)
    assert a.shape == (64, 5)
    assert np.all((a >= 0.0) & (a < 1.0))


LAZY_SCIPY_PROBE = """
import sys
import hilbertball.cli
from hilbertball import numerics
print(sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy.")))
print(numerics.sobol_unit(4, 3, 0).shape, "scipy.stats" in sys.modules)
"""


def test_package_import_loads_no_scipy_until_the_sampler_runs():
    # a fresh interpreter, on the path that put this package in reach
    src = os.path.dirname(os.path.dirname(numerics.__file__))
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    env = dict(os.environ, PYTHONPATH=path)
    run = subprocess.run([sys.executable, "-c", LAZY_SCIPY_PROBE], capture_output=True,
                         text=True, env=env)
    assert run.returncode == 0, run.stderr
    assert run.stdout.splitlines() == ["[]", "(4, 3) True"]


def test_golden_max_unimodal():
    x, val = golden_max(lambda t: -(t - 0.37) ** 2, 0.0, 1.0)
    assert abs(x - 0.37) < 1e-6
    assert abs(val) < 1e-10


def test_gaussian_directions_inverse_cdf():
    import scipy.special

    u = np.array([0.5, scipy.special.ndtr(1.0), scipy.special.ndtr(-2.0)])
    g = gaussian_directions(u)
    assert np.allclose(g, [0.0, 1.0, -2.0], atol=1e-12)


def test_sample_ball_point_stays_inside():
    # verify's stacked point draw, over 200 seeds and a (3, 4) shape
    for seed in range(200):
        Z = _points(np.random.default_rng(seed), 5, (3, 4), 0.97)
        assert Z.shape == (3, 4, 5)
        assert np.linalg.norm(Z, axis=-1).max() <= 0.97 + 1e-12
