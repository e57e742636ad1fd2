import numpy as np
import pytest

from hilbertball.errors import DomainError
from hilbertball.geometry import BallPoint, distance, origin
from hilbertball.isometries import (
    ExtendedOperator,
    MirrorTransformation,
    block_condition_defect,
    check_block_conditions,
    epsilon_matrix,
    epsilon_operator,
    exp_element,
    inverse,
    is_inhomogeneous_unitary,
    lie_algebra_check,
    lie_defect,
    mirror_apply,
    mobius_apply,
    mobius_differential,
    transport_from_origin,
)
from hilbertball.numerics import op_norm

from conftest import cgauss, random_point, rows_close, same_bytes


def lie_element(rng, dim):
    G = cgauss(rng, (dim, dim))
    B = G - G.conj().T
    u = cgauss(rng, dim)
    X = ExtendedOperator.from_blocks(B, u, u, 1j * float(rng.standard_normal()))
    n = op_norm(X.matrix)
    return (1.0 / n) * X if n > 1.0 else X


def group_member(rng, dim):
    T = exp_element(lie_element(rng, dim), float(rng.uniform(-1.5, 1.5)))
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
    # boost factor 1/sqrt(1 - 0.36) = 1.25 exactly
    assert np.allclose(T.A, np.diag([1.25, 1.0]), atol=1e-15)
    assert np.allclose(T.x, [0.75, 0.0], atol=1e-15)
    assert np.allclose(T.y, [0.75, 0.0], atol=1e-15)
    assert T.a == 1.25
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
        assert block_condition_defect(T) < 1e-9
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


# infinitesimal elements ----------------------------------------------

def test_lie_elements_have_zero_defect(rng):
    for _ in range(20):
        X = lie_element(rng, 3)
        assert lie_defect(X) < 1e-13
        assert lie_algebra_check(X)


def test_lie_check_rejects_symmetric_block(rng):
    G = cgauss(rng, (3, 3))
    bad = ExtendedOperator.from_blocks(G + G.conj().T, cgauss(rng, 3), cgauss(rng, 3), 0.5)
    assert not lie_algebra_check(bad)


def test_exp_element_stays_in_group(rng):
    X = lie_element(rng, 4)
    for t in (-3.0, -1.0, 0.5, 1.0, 3.0):
        assert is_inhomogeneous_unitary(exp_element(X, t)).defect < 1e-9
    assert op_norm(exp_element(X, 0.0).matrix - np.eye(5)) == 0.0


# extended operator container -----------------------------------------

def test_from_blocks_roundtrip(rng):
    A = cgauss(rng, (3, 3))
    x, y = cgauss(rng, 3), cgauss(rng, 3)
    T = ExtendedOperator.from_blocks(A, x, y, 2.0 - 1.0j)
    assert np.allclose(T.A, A)
    assert np.allclose(T.x, x)
    assert np.allclose(T.y, y)
    assert T.a == 2.0 - 1.0j
    # bottom row carries the conjugate of y
    assert np.allclose(T.matrix[-1, :-1], y.conj())


def test_operator_arithmetic(rng):
    S = ExtendedOperator(cgauss(rng, (4, 4)))
    T = ExtendedOperator(cgauss(rng, (4, 4)))
    v = cgauss(rng, 4)
    assert np.allclose((S @ T).matrix, S.matrix @ T.matrix)
    assert np.allclose(S.apply(v), S.matrix @ v)
    assert np.allclose((S + T).matrix, S.matrix + T.matrix)
    assert np.allclose((S - T).matrix, S.matrix - T.matrix)
    assert np.allclose((2.5 * S).matrix, 2.5 * S.matrix)
    assert np.allclose(S.adjoint().matrix, S.matrix.conj().T)


def test_operator_rejects_nonsquare():
    with pytest.raises(DomainError):
        ExtendedOperator(np.zeros((3, 4)))


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
    F = MirrorTransformation.conjugation(3)
    x = BallPoint(np.array([0.3, -0.2, 0.45]))
    assert np.allclose(mirror_apply(F, x).vector, x.vector)
    z = BallPoint(np.array([0.3 + 0.4j, 0.1 - 0.2j, 0j]))
    assert np.allclose(mirror_apply(F, z).vector, z.vector.conj())


def test_mirror_is_involution(rng):
    Q, _ = np.linalg.qr(cgauss(rng, (3, 3)))
    F = MirrorTransformation.from_basis([Q[:, 0], Q[:, 1]])
    z = random_point(rng, 3, 0.8)
    back = mirror_apply(F, mirror_apply(F, z))
    assert np.allclose(back.vector, z.vector, atol=1e-13)
    assert abs(mirror_apply(F, z).norm() - z.norm()) < 1e-13


def test_complex_subspace_mirror_commutes_with_i(rng):
    Q, _ = np.linalg.qr(cgauss(rng, (3, 3)))
    basis = [Q[:, 0], 1j * Q[:, 0], Q[:, 1], 1j * Q[:, 1]]
    F = MirrorTransformation.from_basis(basis)
    z = random_point(rng, 3, 0.8)
    a = mirror_apply(F, BallPoint(1j * z.vector)).vector
    b = 1j * mirror_apply(F, z).vector
    assert np.allclose(a, b, atol=1e-13)


def test_totally_real_mirror_conjugates_i(rng):
    Q, _ = np.linalg.qr(cgauss(rng, (3, 3)))
    F = MirrorTransformation.from_basis([Q[:, j] for j in range(3)])
    z = random_point(rng, 3, 0.8)
    a = mirror_apply(F, BallPoint(1j * z.vector)).vector
    b = -1j * mirror_apply(F, z).vector
    assert np.allclose(a, b, atol=1e-13)


def test_isometric_mirror_families_preserve_distance(rng):
    worst = 0.0
    for _ in range(40):
        Q, _ = np.linalg.qr(cgauss(rng, (3, 3)))
        if rng.uniform() < 0.5:
            basis = [Q[:, 0], 1j * Q[:, 0]]
        else:
            basis = [Q[:, j] for j in range(3)]
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
    F = MirrorTransformation.from_basis([e[0], 1j * e[0], e[1]])
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
    images = mirror_apply(F, Z)
    assert images.shape == (6, 3)
    for frame, z, w in zip(frames, Z, images):
        single = MirrorTransformation.from_basis(list(frame.T))
        image = mirror_apply(single, BallPoint(z))
        assert isinstance(image, BallPoint) and same_bytes(image.vector, w)
    # one point under the stack, and the stack over another leading axis
    assert same_bytes(mirror_apply(F, BallPoint(Z[0])), mirror_apply(F, np.broadcast_to(Z[0], Z.shape)))
    assert same_bytes(mirror_apply(F, np.stack([Z, Z]))[1], images)
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
    images = mobius_apply(T, Z)
    check = is_inhomogeneous_unitary(T)
    blocks = block_condition_defect(T)
    lie = lie_defect(X)
    assert images.shape == (6, 3) and check.ok.tolist().count(False) == 1
    for i in range(6):
        Ti, Xi = ExtendedOperator(T[i]), ExtendedOperator(X[i])
        assert np.abs(images[i] - mobius_apply(Ti, BallPoint(Z[i])).vector).max() < 1e-15
        single = is_inhomogeneous_unitary(Ti)
        assert check.ok[i] == single.ok
        assert abs(check.defect[i] - single.defect) <= 1e-15 * max(1.0, single.defect)
        assert abs(blocks[i] - block_condition_defect(Ti)) <= 1e-15 * max(1.0, blocks[i])
        assert check_block_conditions(T)[i] == check_block_conditions(Ti)
        assert abs(lie[i] - lie_defect(Xi)) <= 1e-15 * max(1.0, lie[i])
        assert lie_algebra_check(X)[i] == lie_algebra_check(Xi)


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
