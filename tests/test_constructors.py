"""What `BallPoint` and `ExtendedOperator` hold: a copy of a caller's array,
checked in full, or the array a kernel of the package has just made,
handed over as it is with only the checks its making can fail."""

import numpy as np
import pytest
from conftest import cgauss, same_bytes

from hilbertball import algebra, dynamics, isometries
from hilbertball.errors import DomainError
from hilbertball.geometry import BOUNDARY_MARGIN, BallPoint, origin
from hilbertball.isometries import ExtendedOperator, MirrorTransformation, mobius_apply, transport_from_origin


def random_points(rng, shape, radius=0.8):
    """Points of norm up to `radius`, along the last axis of `shape`."""
    z = cgauss(rng, shape)
    return radius * rng.uniform(0.0, 1.0, shape[:-1] + (1,)) * z / np.linalg.norm(z, axis=-1, keepdims=True)


def revalidated_point(p):
    """`p` through the validating constructor: its vector and its gap."""
    q = BallPoint(p.vector)
    return same_bytes(q.vector, p.vector) and same_bytes(q.gap, p.gap) and not p.vector.flags.writeable


def revalidated_operator(T):
    """`T` through the validating constructor, which copies to C order."""
    return same_bytes(ExtendedOperator(T.matrix).matrix, T.matrix) and T.matrix.flags.c_contiguous


@pytest.mark.parametrize("dim", [1, 4, 16])
def test_package_made_points_are_those_of_the_validating_constructor(rng, dim):
    u, Z = BallPoint(random_points(rng, (dim,))), BallPoint(random_points(rng, (5, dim)))
    T = transport_from_origin(BallPoint(random_points(rng, (dim,), 0.6)))
    F = MirrorTransformation.from_basis(np.linalg.qr(cgauss(rng, (dim, dim)))[0])
    G = cgauss(rng, (dim, dim))
    H = G + G.conj().T
    # eps A is in the Lie algebra for every anti-Hermitian A
    K = 0.1 * cgauss(rng, (dim + 1, dim + 1))
    X = isometries.epsilon_matrix(dim) @ (K - K.conj().T)
    times = np.linspace(0.0, 0.3, 70)
    images = [
        mobius_apply(T, u), mobius_apply(T, Z), mobius_apply(T.matrix, Z.vector),
        isometries.mirror_apply(F, u), isometries.mirror_apply(F, Z),
        dynamics.evolve_exp(X, u, 0.4), dynamics.evolve_exp(X, u, times),
        dynamics.schrodinger_evolve(H, u, 0.7), dynamics.schrodinger_evolve(dynamics.HamiltonianGenerator(H), Z, 0.7),
        dynamics.trajectory(dynamics.HamiltonianGenerator(H), u, 1.0, 0.1)[1],
        dynamics.trajectory(ExtendedOperator(X), u, 20.0, 0.1)[1],
        origin(dim),
    ]
    if dim == 1:
        images.append(dynamics.trajectory(dynamics.DiscGenerator(0.3, 0.8 + 0.2j), u, 1.0, 0.01)[1])
    for p in images:
        assert revalidated_point(p)
    # a mirror's blocks are the caller's: one of another dtype gives a
    # point converted as a caller's array is
    wide = MirrorTransformation(F.A.astype(np.clongdouble), F.B)
    assert isometries.mirror_apply(wide, u).vector.dtype == complex


@pytest.mark.parametrize("dim", [1, 4, 16])
def test_package_made_operators_are_those_of_the_validating_constructor(rng, dim):
    p = BallPoint(random_points(rng, (dim,), 0.9))
    T, S = transport_from_origin(p), transport_from_origin(BallPoint(random_points(rng, (dim,), 0.5)))
    C = ExtendedOperator(cgauss(rng, (dim + 1, dim + 1)))
    H = cgauss(rng, (dim, dim))
    operators = [
        T, T @ S, T.adjoint(), C.adjoint(), isometries.inverse(T), isometries.epsilon_operator(dim),
        ExtendedOperator.identity(dim), algebra.scale_operator(dim, 0.25 - 2.0j), algebra.star_operator(C, T),
        dynamics.HamiltonianGenerator(H + H.conj().T).extended(),
    ]
    if dim == 1:
        operators.append(dynamics.DiscGenerator(0.3, 0.8 + 0.2j).extended())
    for op in operators:
        assert revalidated_operator(op)
    # the blocks a caller passes are still checked
    with pytest.raises(DomainError, match=r"^matrix has non-finite entries$"):
        algebra.scale_operator(dim, np.nan)
    with pytest.raises(DomainError, match=r"^expected a matrix, got array of ndim 3$"):
        dynamics.DiscGenerator(np.array([0.3, 0.4]), 0.2).extended()


def test_a_moebius_image_past_the_margin_is_rejected_as_before():
    # phi_T of a point just inside the margin, moved further out along its
    # line: the image rounds past 1 - BOUNDARY_MARGIN
    e = np.array([1.0, 0.0, 0.0], dtype=complex)
    u = (1.0 - 2.0 * BOUNDARY_MARGIN) * e
    T = transport_from_origin(BallPoint(0.5 * e))
    Z = np.stack([0.1 * e, 0.2 * e, u, 0.3 * e])
    for z, row in ((u, 0), (Z, 2)):
        W = isometries._moved(T.matrix, 3, z)
        with pytest.raises(DomainError) as before:
            BallPoint(W[..., :3] / W[..., 3, None])
        with pytest.raises(DomainError) as after:
            mobius_apply(T, z)
        assert str(after.value) == str(before.value) and after.value.row == before.value.row == row
        assert str(after.value).startswith("point with norm 0.99999999999")


@pytest.mark.xfail(strict=True, reason="FOUND: `@` of members whose product overflows warns before its DomainError")
def test_a_composition_past_the_float_range_raises_one_domain_error():
    T = ExtendedOperator(np.full((3, 3), 1e200 + 0j))
    with pytest.raises(DomainError, match=r"^matrix has non-finite entries$"):
        T @ T
