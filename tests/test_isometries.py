import numpy as np
import pytest

from hilbertball import verify
from hilbertball.algebra import SELF_ADJOINT_TOL, is_self_adjoint, star_operator
from hilbertball.dynamics import HamiltonianGenerator, evolve_exp
from hilbertball.errors import DomainError
from hilbertball.geometry import BallPoint, distance, origin
from hilbertball.isometries import (
    ExtendedOperator,
    MEMBERSHIP_TOL,
    MirrorTransformation,
    check_block_conditions,
    epsilon_matrix,
    epsilon_operator,
    inverse,
    is_inhomogeneous_unitary,
    lie_algebra_check,
    mirror_apply,
    mobius_apply,
    mobius_differential,
    transport_from_origin,
)
from hilbertball.numerics import hermitian_norm, mat_exp, op_norm

from conftest import cgauss, lie_element, random_point, rows_close, same_bytes, spectral_hermitian


def group_member(rng, dim):
    T = ExtendedOperator(mat_exp(lie_element(rng, dim).matrix, float(rng.uniform(-1.5, 1.5))))
    if rng.uniform() < 0.5:
        T = transport_from_origin(random_point(rng, dim, 0.8)) @ T
    return T


# ---------------------------------------------------------------------
# oracle: the differential of the fractional-linear action is checked
# against plain finite differences of the action itself.
# ---------------------------------------------------------------------

def test_mobius_differential_matches_finite_differences(rng):
    worst = 0.0
    for _ in range(20):
        T = group_member(rng, 3)
        z = random_point(rng, 3, 0.7)
        D = mobius_differential(T, z)
        h = cgauss(rng, 3)
        h = h / np.linalg.norm(h)

        def fd(eps):
            zp = mobius_apply(T, BallPoint(z.vector + eps * h)).vector
            zm = mobius_apply(T, BallPoint(z.vector - eps * h)).vector
            return (zp - zm) / (2.0 * eps)

        approx = (4.0 * fd(5e-5) - fd(1e-4)) / 3.0
        worst = max(worst, float(np.linalg.norm(D @ h - approx)))
    assert worst < 1e-7


# frozen anchors ------------------------------------------------------

def test_transport_frozen_blocks():
    u = BallPoint(np.array([0.6 + 0j, 0j]))
    T = transport_from_origin(u)
    # boost factor 1/sqrt(1 - 0.36) = 1.25 exactly; the bottom row holds
    # conj(y) = y
    M = T.matrix
    assert np.allclose(M[:2, :2], np.diag([1.25, 1.0]), atol=1e-15)
    assert np.allclose(M[:2, 2], [0.75, 0.0], atol=1e-15)
    assert np.allclose(M[2, :2], [0.75, 0.0], atol=1e-15)
    assert M[2, 2] == 1.25
    assert is_inhomogeneous_unitary(T).defect == 0.0


def test_transport_moves_origin_to_base(rng):
    for _ in range(30):
        u = random_point(rng, 4, 0.9)
        T = transport_from_origin(u)
        got = mobius_apply(T, origin(4))
        assert np.linalg.norm(got.vector - u.vector) < 1e-14


def test_epsilon_blocks():
    E = epsilon_matrix(3)
    assert np.array_equal(E, np.diag([-1.0, -1.0, -1.0, 1.0]).astype(complex))
    Eop = epsilon_operator(3)
    assert np.array_equal((Eop @ Eop).matrix, np.eye(4, dtype=complex))


# group structure -----------------------------------------------------

def test_members_satisfy_block_conditions(rng):
    for _ in range(30):
        T = group_member(rng, 3)
        assert check_block_conditions(T).defect < 1e-9
        assert check_block_conditions(T)
        assert is_inhomogeneous_unitary(T)


def test_membership_rejects_perturbation(rng):
    T = group_member(rng, 3)
    M = T.matrix.copy()
    M[0, 0] += 1e-4
    bad = ExtendedOperator(M)
    chk = is_inhomogeneous_unitary(bad)
    assert not chk
    assert chk.defect > 1e-5


def test_inverse_is_epsilon_conjugated_adjoint(rng):
    T = group_member(rng, 4)
    Tinv = inverse(T)
    assert op_norm((T @ Tinv).matrix - np.eye(5)) < 1e-12
    eps = epsilon_matrix(4)
    assert np.allclose(Tinv.matrix, eps @ T.adjoint().matrix @ eps, atol=1e-14)


def test_action_respects_composition(rng):
    S, T = group_member(rng, 3), group_member(rng, 3)
    z = random_point(rng, 3, 0.8)
    once = mobius_apply(S @ T, z)
    twice = mobius_apply(S, mobius_apply(T, z))
    assert np.linalg.norm(once.vector - twice.vector) < 1e-12


def test_action_preserves_ball_and_distance(rng):
    for _ in range(40):
        T = group_member(rng, 3)
        u, v = random_point(rng, 3, 0.85), random_point(rng, 3, 0.85)
        su, sv = mobius_apply(T, u), mobius_apply(T, v)
        assert su.norm() < 1.0
        assert abs(distance(su, sv) - distance(u, v)) < 1e-9


def test_single_objects_make_no_broadcast_call(rng, monkeypatch):
    # equal leading axes are their own broadcast: a single point under a
    # single member, the `geometry_rim` load, pays for no numpy call
    T = transport_from_origin(random_point(rng, 3, 0.5))
    z = random_point(rng, 3, 0.9)
    want = mobius_apply(T, z)
    monkeypatch.setattr(np, "broadcast_shapes", None)
    assert same_bytes(mobius_apply(T, z).vector, want.vector)


@pytest.mark.parametrize("scale", [1e-3, 1e-15, 1e-20, 1e-100, 1e-200])
def test_scaled_member_acts_as_the_member(scale):
    # phi_T depends on T only up to scale, so the degeneracy threshold
    # shrinks with T's bottom row
    T = verify._members(np.random.default_rng(0), 2, 1)[0]
    z = np.array([0.3, 0.1j])
    assert rows_close(mobius_apply(scale * T, z).vector, mobius_apply(T, z).vector, 1e-15)
    assert rows_close(mobius_differential(scale * T, z), mobius_differential(T, z), 1e-15)


def test_degenerate_denominators_raise_at_any_scale():
    # <y|z> + a vanishes for y = (1, 0), a = 0 at z = 0; so does every
    # entry of the zero matrix's bottom row
    T = np.eye(3, dtype=complex)
    T[2, 0], T[2, 2] = 1.0, 0.0
    for M in (T, 1e-15 * T, np.zeros((3, 3), dtype=complex)):
        for kernel in (mobius_apply, mobius_differential):
            with pytest.raises(DomainError, match="degenerate Moebius denominator"):
                kernel(M, np.zeros(2))


# infinitesimal elements ----------------------------------------------

def test_lie_elements_have_zero_defect(rng):
    for _ in range(20):
        X = lie_element(rng, 3)
        assert lie_algebra_check(X).defect < 1e-13
        assert lie_algebra_check(X)


def test_lie_check_rejects_symmetric_block(rng):
    G = cgauss(rng, (3, 3))
    bad = ExtendedOperator.from_blocks(G + G.conj().T, cgauss(rng, 3), cgauss(rng, 3), 0.5)
    assert not lie_algebra_check(bad)


def test_exp_element_stays_in_group(rng):
    X = lie_element(rng, 4)
    for t in (-3.0, -1.0, 0.5, 1.0, 3.0):
        assert is_inhomogeneous_unitary(mat_exp(X.matrix, t)).defect < 1e-9
    assert op_norm(mat_exp(X.matrix, 0.0) - np.eye(5)) == 0.0


# extended operator container -----------------------------------------

def test_from_blocks_roundtrip(rng):
    A = cgauss(rng, (3, 3))
    x, y = cgauss(rng, 3), cgauss(rng, 3)
    T = ExtendedOperator.from_blocks(A, x, y, 2.0 - 1.0j)
    assert np.allclose(T.matrix[:3, :3], A)
    assert np.allclose(T.matrix[:3, 3], x)
    assert T.matrix[3, 3] == 2.0 - 1.0j
    # bottom row carries the conjugate of y
    assert np.allclose(T.matrix[-1, :-1], y.conj())


def test_operator_arithmetic(rng):
    S = ExtendedOperator(cgauss(rng, (4, 4)))
    T = ExtendedOperator(cgauss(rng, (4, 4)))
    assert np.allclose((S @ T).matrix, S.matrix @ T.matrix)
    assert np.allclose(S.adjoint().matrix, S.matrix.conj().T)


def test_operator_rejects_nonsquare():
    with pytest.raises(DomainError):
        ExtendedOperator(np.zeros((3, 4)))


ENTRIES = np.array([[1.5, -2.0, 0.25], [3.0, -0.0, -0.5], [0.0, 4.0, 2.0]])
INPUT_TYPES = {
    "complex128": lambda M: np.asarray(M, dtype=complex),
    "complex64": lambda M: np.asarray(M, dtype=np.complex64),
    "real": lambda M: np.asarray(M, dtype=float),
    "int": lambda M: np.asarray(M, dtype=float).astype(int),
    "list": lambda M: np.asarray(M).tolist(),
}


@pytest.mark.parametrize("kind", sorted(INPUT_TYPES))
def test_operators_read_every_input_type_alike(kind):
    # a complex (n+1) x (n+1) array is only checked for finiteness, any
    # other input is converted first: both give the converted matrix
    # and the same errors
    convert, real = INPUT_TYPES[kind], kind in ("int", "real")
    M = ENTRIES if real else ENTRIES + 1j * ENTRIES[::-1]
    raw = convert(M)
    T = ExtendedOperator(raw)
    assert same_bytes(T.matrix, np.asarray(raw, dtype=complex)) and T.matrix.flags.c_contiguous
    assert same_bytes(ExtendedOperator(convert(M.T)).matrix, np.ascontiguousarray(convert(M.T), dtype=complex))
    with pytest.raises(DomainError, match=r"^expected a square matrix, got shape \(2, 3\)$"):
        ExtendedOperator(convert(M[:2]))
    with pytest.raises(DomainError, match=r"^extended operators act on C\^n \+ C with n >= 1$"):
        ExtendedOperator(convert(M[:1, :1]))
    with pytest.raises(DomainError, match=r"^expected a matrix, got array of ndim 3$"):
        ExtendedOperator(convert(M[None]))
    if kind != "int":
        for bad in (np.nan, np.inf, -np.inf if real else complex(0.0, -np.inf)):
            B = M.copy()
            B[1, 2] = bad
            with pytest.raises(DomainError, match=r"^matrix has non-finite entries$"):
                ExtendedOperator(convert(B))


def test_operators_keep_their_own_copy(rng):
    M = cgauss(rng, (4, 4))
    T = ExtendedOperator(M)
    want = M.copy()
    M[0, 0] = 7.0
    assert same_bytes(T.matrix, want) and not np.shares_memory(T.matrix, M)
    # a view, such as the adjoint's transpose, is copied to C order
    S = T.adjoint()
    assert S.matrix.flags.c_contiguous and same_bytes(S.matrix, np.ascontiguousarray(want.conj().T))
    assert same_bytes((T @ S).matrix, want @ want.conj().T)


@pytest.mark.parametrize("dim", [1, 4, 16])
def test_single_transports_are_their_rows_of_the_stack(rng, dim):
    Z = cgauss(rng, (10, dim))
    Z *= (rng.uniform(0.0, 0.95, 10) / np.linalg.norm(Z, axis=1))[:, None]
    Z[0] = 0.0  # the origin
    Z[1] = complex(-0.0, -0.0)  # the origin with signed zeros
    Z[2] = Z[2].real  # a real vector
    Z[3].imag = -0.0  # a real vector with -0.0 imaginary parts
    Z[4, ::2] = -0.0  # +-0.0 components
    Z[5, 1::2] = complex(0.0, -0.0)
    T = transport_from_origin(Z)
    for z, row in zip(Z, T):
        assert same_bytes(transport_from_origin(BallPoint(z)).matrix, row)


@pytest.mark.parametrize(
    "bad",
    [complex(np.nan, 0.1), complex(np.inf, 0.1), complex(0.1, np.nan), complex(0.1, -np.inf)],
    ids=["re_nan", "re_inf", "im_nan", "im_inf"],
)
@pytest.mark.parametrize(
    "make",
    [
        lambda bad: BallPoint(np.array([0.1, bad])),
        lambda bad: ExtendedOperator(np.array([[1.0, 0.0], [0.0, bad]])),
    ],
    ids=["BallPoint", "ExtendedOperator"],
)
def test_constructors_reject_non_finite_entries(make, bad):
    with pytest.raises(DomainError, match="non-finite"):
        make(bad)


# mirrors -------------------------------------------------------------

def test_conjugation_mirror():
    F = MirrorTransformation.from_basis(np.eye(3))
    x = BallPoint(np.array([0.3, -0.2, 0.45]))
    assert np.allclose(mirror_apply(F, x).vector, x.vector)
    z = BallPoint(np.array([0.3 + 0.4j, 0.1 - 0.2j, 0j]))
    assert np.allclose(mirror_apply(F, z).vector, z.vector.conj())


def test_mirror_is_involution(rng):
    Q, _ = np.linalg.qr(cgauss(rng, (3, 3)))
    F = MirrorTransformation.from_basis(Q[:, :2])
    z = random_point(rng, 3, 0.8)
    back = mirror_apply(F, mirror_apply(F, z))
    assert np.allclose(back.vector, z.vector, atol=1e-13)
    assert abs(mirror_apply(F, z).norm() - z.norm()) < 1e-13


def test_complex_subspace_mirror_commutes_with_i(rng):
    Q, _ = np.linalg.qr(cgauss(rng, (3, 3)))
    F = MirrorTransformation.from_basis(np.stack([Q[:, 0], 1j * Q[:, 0], Q[:, 1], 1j * Q[:, 1]], axis=-1))
    z = random_point(rng, 3, 0.8)
    a = mirror_apply(F, BallPoint(1j * z.vector)).vector
    b = 1j * mirror_apply(F, z).vector
    assert np.allclose(a, b, atol=1e-13)


def test_totally_real_mirror_conjugates_i(rng):
    Q, _ = np.linalg.qr(cgauss(rng, (3, 3)))
    F = MirrorTransformation.from_basis(Q)
    z = random_point(rng, 3, 0.8)
    a = mirror_apply(F, BallPoint(1j * z.vector)).vector
    b = -1j * mirror_apply(F, z).vector
    assert np.allclose(a, b, atol=1e-13)


def test_isometric_mirror_families_preserve_distance(rng):
    worst = 0.0
    for _ in range(40):
        Q, _ = np.linalg.qr(cgauss(rng, (3, 3)))
        basis = np.stack([Q[:, 0], 1j * Q[:, 0]], axis=-1) if rng.uniform() < 0.5 else Q
        F = MirrorTransformation.from_basis(basis)
        u, v = random_point(rng, 3, 0.85), random_point(rng, 3, 0.85)
        d0 = distance(u, v)
        d1 = distance(mirror_apply(F, u), mirror_apply(F, v))
        worst = max(worst, abs(d1 - d0))
    assert worst < 1e-9


def test_mixed_subspace_mirror_is_not_an_isometry():
    # reflection through C e1 + R e2 keeps norms and Re<u|v> but moves
    # the distance; this pins why sampling sticks to the two families
    # above
    e = np.eye(2, dtype=complex)
    F = MirrorTransformation.from_basis(np.stack([e[0], 1j * e[0], e[1]], axis=-1))
    u = BallPoint(np.array([0.5 + 0j, 0.3j]))
    v = BallPoint(np.array([0.1 + 0.2j, 0.4 + 0j]))
    d0 = distance(u, v)
    d1 = distance(mirror_apply(F, u), mirror_apply(F, v))
    assert abs(mirror_apply(F, u).norm() - u.norm()) < 1e-14
    assert abs(d1 - d0) > 1e-4


def test_stacked_mirrors_equal_single_mirrors(rng):
    Q, _ = np.linalg.qr(cgauss(rng, (6, 3, 3)))
    frames = np.concatenate([Q[..., :1], 1j * Q[..., :1]], axis=-1)
    F = MirrorTransformation.from_basis(frames)
    Z = np.array([random_point(rng, 3, 0.8).vector for _ in range(6)])
    images = mirror_apply(F, Z).vector
    assert images.shape == (6, 3)
    for frame, z, w in zip(frames, Z, images):
        single = MirrorTransformation.from_basis(frame)
        image = mirror_apply(single, BallPoint(z))
        assert isinstance(image, BallPoint) and same_bytes(image.vector, w)
    # one point under the stack, and the stack over another leading axis
    assert same_bytes(mirror_apply(F, BallPoint(Z[0])).vector,
                      mirror_apply(F, np.broadcast_to(Z[0], Z.shape)).vector)
    assert same_bytes(mirror_apply(F, np.stack([Z, Z])).vector[1], images)
    with pytest.raises(DomainError):
        mirror_apply(F, Z[:4])


def test_membership_check_truth_value(rng):
    T = np.array([group_member(rng, 3).matrix for _ in range(2)])
    assert bool(is_inhomogeneous_unitary(ExtendedOperator(T[0]))) is True
    assert bool(is_inhomogeneous_unitary(ExtendedOperator(2.0 * T[0]))) is False
    assert bool(is_inhomogeneous_unitary(T[:1])) is True
    with pytest.raises(ValueError, match="ambiguous"):
        bool(is_inhomogeneous_unitary(T))


def test_stacked_kernels_equal_scalar_calls(rng):
    T = np.array([group_member(rng, 3).matrix for _ in range(6)])
    T[1] *= 1.001  # off the group, but the same Moebius map
    X = np.array([lie_element(rng, 3).matrix for _ in range(6)])
    X[2, 0, 0] += 0.5  # off the Lie algebra
    Z = np.array([random_point(rng, 3, 0.8).vector for _ in range(6)])
    images = mobius_apply(T, Z).vector
    checks = {is_inhomogeneous_unitary: T, check_block_conditions: T, lie_algebra_check: X}
    stacked = {check: check(M) for check, M in checks.items()}
    assert images.shape == (6, 3) and stacked[is_inhomogeneous_unitary].ok.tolist().count(False) == 1
    assert stacked[lie_algebra_check].ok.tolist().count(False) == 1
    for i in range(6):
        Ti = ExtendedOperator(T[i])
        assert np.abs(images[i] - mobius_apply(Ti, BallPoint(Z[i])).vector).max() < 1e-15
        for check, M in checks.items():
            single = check(ExtendedOperator(M[i]))
            assert isinstance(single.ok, bool) and isinstance(single.defect, float)
            assert stacked[check].ok[i] == single.ok
            assert abs(stacked[check].defect[i] - single.defect) <= 1e-15 * max(1.0, single.defect)


def test_stacked_transport_inverse_differential_equal_scalar_calls(rng):
    n, k = 3, 8
    Z = np.array([random_point(rng, n, 0.8).vector for _ in range(k)])
    Z[3] = 0.0  # the origin's transport is the identity
    W = np.array([random_point(rng, n, 0.7).vector for _ in range(k)])
    points = [BallPoint(z) for z in Z]
    T = transport_from_origin(Z)
    single = [transport_from_origin(p).matrix for p in points]
    assert rows_close(T, single)
    assert same_bytes(T[3], np.eye(n + 1, dtype=complex))
    M = np.array([group_member(rng, n).matrix for _ in range(k)])
    M[1] *= 1.001  # off the group: the formula is applied all the same
    # eps T* eps only flips signs, so the stack is exact
    assert same_bytes(inverse(M), [inverse(ExtendedOperator(m)).matrix for m in M])
    D = mobius_differential(M, W)
    assert rows_close(D, [mobius_differential(ExtendedOperator(m), BallPoint(w))
                          for m, w in zip(M, W)])
    # any leading axes: one more is the same stack
    assert same_bytes(transport_from_origin(Z[None]), T[None])
    with pytest.raises(DomainError):
        transport_from_origin(Z[0, 0])
    with pytest.raises(DomainError):
        mobius_differential(M, W[:-1])


# ---------------------------------------------------------------------
# Every check reads max|eigenvalue| of its Hermitian residual through
# hermitian_norm; op_norm reads the same residual, built explicitly by
# `verify`, through a Gram matrix.  The two routes must agree on the zero
# set, near it and far from it.  A verdict allows the tolerance, or the
# rounding 1024 eps rho^k where that is larger, for rho = ||M||_F/sqrt(d)
# and k the residual's degree in M.
# ---------------------------------------------------------------------

ROUTES = verify._MEMBERSHIP_ROUTES
DEGREE = {"membership": 2, "blocks": 2, "lie": 1, "self_adjoint": 1}
TOL = {"membership": MEMBERSHIP_TOL, "blocks": MEMBERSHIP_TOL, "lie": MEMBERSHIP_TOL, "self_adjoint": SELF_ADJOINT_TOL}
EPS4 = epsilon_matrix(3)


def _rho(M):
    return np.linalg.norm(M, axis=(-2, -1)) / np.sqrt(M.shape[-1])


def _draws(rng, dim, exact, count=40):
    """Exact zeros of a defect, the same pushed off by relative 1e-5,
    1e-3 and 0.3, and Gaussian garbage over six orders of magnitude."""
    delta = np.array((1e-5, 1e-3, 0.3))[np.arange(count) % 3][:, None, None]
    garbage = cgauss(rng, (count, dim + 1, dim + 1)) * (10.0 ** rng.uniform(-3.0, 3.0, count))[:, None, None]
    return exact, (1.0 + delta) * exact, exact + delta * cgauss(rng, exact.shape), garbage


def _hermitian_part(G):
    return 0.5 * (G + G.conj().swapaxes(-1, -2))


@pytest.mark.parametrize("name", sorted(ROUTES))
def test_hermitian_defects_equal_op_norm_of_their_residuals(rng, name):
    check, members, residual_norm = ROUTES[name]
    for M in _draws(rng, 3, members(rng, 3, 40)):
        got, want = check(M).defect, residual_norm(M)
        assert got.shape == (40,)
        assert np.all(np.abs(got - want) <= 1e-13 * np.maximum(1.0, want))
        # single matrices take the same route
        assert abs(check(M[7]).defect - want[7]) <= 1e-13 * max(1.0, want[7])


def _unit_size_draws(rng, name, count=12):
    """Inputs with rho <= 1, and for self-adjointness ||C|| <= 1: the
    identity, I + U for a unitary U, and near-members whose residual sits
    at a tenth or ten times the tolerance."""
    tol = TOL[name]
    eye = np.eye(4, dtype=complex)
    unitary = np.zeros((count, 4, 4), dtype=complex)
    unitary[:, 3, 3] = 1.0
    unitary[:, :3, :3] = np.linalg.qr(cgauss(rng, (count, 3, 3)))[0]
    r = np.where(np.arange(count) % 2, 10.0, 0.1)[:, None, None] * tol
    if name in ("membership", "blocks"):
        # (1 - c) T moves T* eps T by (2c - c^2) eps
        near = (1.0 - r / 2.0) * unitary
    else:
        base = np.array([lie_element(rng, 3).matrix for _ in range(count)]) if name == "lie" \
            else _hermitian_part(cgauss(rng, (count, 4, 4)))
        base = 0.5 * base / op_norm(base)[:, None, None]
        # eps K for Hermitian K has the Lie residual 2K; K anti-Hermitian
        # has the self-adjointness residual 2K
        K = _hermitian_part(cgauss(rng, (count, 4, 4)))
        K = EPS4 @ K if name == "lie" else 1j * K
        near = base + r * K / (2.0 * op_norm(K)[:, None, None])
    return np.concatenate([eye[None], unitary, near])


@pytest.mark.parametrize("name", sorted(ROUTES))
def test_verdicts_at_unit_size_are_the_absolute_ones(rng, name):
    # where rho <= 1 the rounding allowance 1024 eps rho^k is below the
    # tolerance, so every verdict is the one the absolute tolerance gave
    check, _, residual_norm = ROUTES[name]
    tol = TOL[name]
    M = _unit_size_draws(rng, name)
    assert np.all(_rho(M) <= 1.0 + 1e-15)
    want = residual_norm(M)
    got = check(M)
    assert np.all(np.abs(got.defect - want) <= 1e-13 * np.maximum(1.0, want))
    assert got.ok.tolist() == (want <= tol).tolist()
    for i in range(len(M)):
        assert check(M[i]).ok == bool(want[i] <= tol)
    # both verdicts occur among the near-members
    assert got.ok[-2:].tolist() == [True, False]


def _sized_member(rng, name, size):
    """An exact zero of the check's residual with rho^k = size: a
    transport with rho^2 = size for the group, a conjugated Lie element
    or a Q diag(lambda) Q* with rho = size for the linear sets."""
    if name in ("membership", "blocks"):
        # the transport with boost m has the singular values m +- sqrt(m^2 - 1)
        # and n - 1 ones, so rho^2 = (4 m^2 + n - 3)/(n + 1) = m^2 at n = 3
        u = cgauss(rng, 3)
        return transport_from_origin(np.sqrt(1.0 - 1.0 / size) * u / np.linalg.norm(u))
    if name == "lie":
        T = group_member(rng, 3).matrix
        X = T @ lie_element(rng, 3).matrix @ inverse(T)
    else:
        X = spectral_hermitian(rng, 4, 1.0)
    return size / _rho(X) * X


@pytest.mark.parametrize("size", [1.0, 1e4, 1e6])
@pytest.mark.parametrize("name", sorted(ROUTES))
def test_residual_of_relative_1e6_fails_at_every_size(rng, name, size):
    check, _, residual_norm = ROUTES[name]
    k = DEGREE[name]
    M = _sized_member(rng, name, size)
    assert abs(_rho(M) ** k / size - 1.0) < 1e-9
    assert check(M)
    if k == 2:
        # (1 + c) T moves T* eps T by ((1 + c)^2 - 1) eps
        off = np.sqrt(1.0 + 1e-6 * size) * M
    else:
        K = _hermitian_part(cgauss(rng, (4, 4)))
        K = EPS4 @ K / 2.0 if name == "lie" else 1j * K
        off = M + 1e-6 * size * K / residual_norm(K)
    assert residual_norm(off) >= 0.99e-6 * size
    verdict = check(off)
    assert not verdict and verdict.defect >= 0.99e-6 * size


def test_large_valid_inputs_pass_every_check():
    # each was rejected while the tolerances were absolute
    rng = np.random.default_rng(3)
    product = np.linalg.multi_dot(list(verify._members(rng, 4, 64)))
    near_rim = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    transport = transport_from_origin((1.0 - 1e-8) * near_rim / np.linalg.norm(near_rim))
    eps = epsilon_matrix(4)
    for T in (product, transport):
        assert op_norm(T.conj().T @ eps @ T - eps) > 10.0 * MEMBERSHIP_TOL
        assert is_inhomogeneous_unitary(T) and check_block_conditions(T)
    S = verify._members(rng, 4, 1)[0]
    Y = S @ verify._lie_elements(rng, 4, 1)[0] @ inverse(S)
    Y *= 1.2e6 / op_norm(Y)
    assert op_norm(Y.conj().T @ eps + eps @ Y) > MEMBERSHIP_TOL
    assert lie_algebra_check(Y)


@pytest.mark.parametrize("size", [2e10, 1e12])
def test_eps_isotropic_matrices_fail_the_group_checks(size):
    # T* eps T = 0 leaves the residual's constant -eps, of norm 1, which
    # stays above the rounding allowance 1024 eps rho^2 up to rho^2 ~ 4e12
    flat = np.sqrt(size / 2.0) * np.ones((2, 2), dtype=complex)
    v = np.zeros(4, dtype=complex)
    v[[0, 3]] = 1.0
    w = cgauss(np.random.default_rng(5), 4)
    rank_one = np.sqrt(2.0 * size) * np.outer(v, w.conj() / np.linalg.norm(w))
    for T in (flat, rank_one):
        assert abs(_rho(T) ** 2 / size - 1.0) < 1e-12
        for check in (is_inhomogeneous_unitary, check_block_conditions):
            for tol in (MEMBERSHIP_TOL, verify.MEMBERSHIP_DECISION_TOL):
                verdict = check(T, tol)
                assert not verdict and abs(verdict.defect - 1.0) < 1e-3


def test_huge_non_members_fail_the_linear_checks(rng):
    # rho is summed over M/max|entry|, so it stays finite where the sum
    # of squares of M itself overflows and would pass any residual
    G = cgauss(rng, (4, 4))
    for scale in (1e160, 1e300):
        assert not lie_algebra_check(scale * G) and not is_self_adjoint(scale * G)
        with pytest.raises(DomainError):
            HamiltonianGenerator(scale * G)
        with pytest.raises(DomainError):
            evolve_exp(scale * G, origin(3), 1.0)


@pytest.mark.filterwarnings("error")
def test_residual_or_product_past_the_float_range_raises_one_domain_error():
    # finite operators whose residual or star product leaves the float
    # range give one DomainError that names the overflow, and no numpy
    # warning, singly and inside a stack.  The group residual and the
    # product have degree 2, so 2^600 times a unit-size matrix overflows
    # them; the linear residuals overflow at entries near the largest float
    rng = np.random.default_rng(28)
    G = cgauss(rng, (4, 4)) / 4.0
    big = np.ldexp(G.view(float), 600).view(complex)
    huge = 1e308j * np.ones((4, 4))
    cases = [(is_inhomogeneous_unitary, big), (check_block_conditions, big),
             (lie_algebra_check, huge), (is_self_adjoint, huge)]
    for check, M in cases:
        for T in (ExtendedOperator(M), np.stack([G, M])):
            with pytest.raises(DomainError, match=f"^the residual overflowed the float range in {check.__name__}$"):
                check(T)
    for C in (ExtendedOperator(big), np.stack([G, big])):
        with pytest.raises(DomainError, match="^the product overflowed the float range in star_operator$"):
            star_operator(C, C)
    # finite results keep their bits: at 2^500 the product and the group
    # residual reach 2^1000
    M = np.ldexp(G.view(float), 500).view(complex)
    eps = epsilon_matrix(3)
    assert same_bytes(star_operator(ExtendedOperator(M), ExtendedOperator(G)).matrix, M @ eps @ G)
    assert same_bytes(star_operator(np.stack([M, G]), G), np.stack([M @ eps @ G, G @ eps @ G]))
    verdict = is_inhomogeneous_unitary(np.stack([M, G]))
    residual = hermitian_norm((np.stack([M, G]).conj().swapaxes(-1, -2) * eps.diagonal().real) @ np.stack([M, G]) - eps)
    assert not verdict.ok.any() and same_bytes(verdict.defect, residual)
    assert same_bytes([is_inhomogeneous_unitary(ExtendedOperator(M)).defect], residual[:1])
