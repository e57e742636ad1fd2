"""Isometries of the ball: Moebius transformations from the extended
space, and mirror transformations from real subspaces.

Operators act on the extension C^n + C.  In block form

    T = [ A  x ]        acting as  (z, c) -> (A z + c x, <y|z> + a c),
        [ y* a ]

and the indefinite form is eps = diag(-I, 1).  The group condition
T* eps T = eps is equivalent to the three block identities

    A*A - y y* = I,    ||x||^2 - |a|^2 = -1,    A*x = a y,

where y y* is the rank-one outer product (so y = 0 is handled exactly).
Members act on the ball by phi_T(z) = (A z + x)/(<y|z> + a), and these
maps preserve the metric and the distance.  Mirror maps E_W - E_Wperp
for a real subspace W are the other family of isometries; they are
real-linear but not complex-linear, so a mirror is the complex pair
(A, B) of w = A z + B conj(z).

Membership in the group, in its Lie algebra (X* eps + eps X = 0) and,
in `algebra`, among self-adjoint operators follows one rule (`_verdict`):
the norm of a residual of degree k in M passes within max(tol, 1024 eps
rho(M)^k), the tolerance or the rounding of forming it, for the RMS
singular value rho(M) = ||M||_F / sqrt(d); rho is 1 at unitaries.

`mobius_apply`, `mobius_differential`, `transport_from_origin`,
`mirror_apply` and the membership checks take arrays over any leading
axes as well as single objects, with one formula body for both (see
`geometry`) and the edge rules of `numerics`.  A single object costs
little beyond its arithmetic (`scripts/kernel_timings.py` times both).
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .geometry import BallPoint, _matvec, _paired_points, _point
from .numerics import _as_complex_matrix, _eye, _guard, _pow2_scaled, hermitian_norm, real_projection

MEMBERSHIP_TOL = 1e-10
DEGENERATE_DENOMINATOR = 1e-14


@dataclass(frozen=True, eq=False)
class ExtendedOperator:
    """Complex operator on C^n + C stored as its full (n+1)x(n+1) matrix.

    Its algebra is the matrix's: `@` composes, `adjoint` is the conjugate
    transpose, and any other arithmetic, reading a block included, goes
    through `matrix`."""

    matrix: np.ndarray

    def __post_init__(self):
        m = _as_complex_matrix(self.matrix, square=True)
        if m.shape[0] < 2:
            raise DomainError("extended operators act on C^n + C with n >= 1")
        object.__setattr__(self, "matrix", m.copy())

    @classmethod
    def from_blocks(cls, A, x, y, a):
        A = np.asarray(A, dtype=complex)
        x = np.atleast_1d(np.asarray(x, dtype=complex))
        y = np.atleast_1d(np.asarray(y, dtype=complex))
        n = A.shape[0]
        m = np.zeros((n + 1, n + 1), dtype=complex)
        m[:n, :n] = A
        m[:n, n] = x
        m[n, :n] = np.conj(y)
        m[n, n] = a
        return cls(m)

    @classmethod
    def identity(cls, dim):
        return cls(np.eye(dim + 1, dtype=complex))

    @property
    def dim(self):
        """Dimension n of the underlying ball space."""
        return self.matrix.shape[0] - 1

    def adjoint(self):
        return ExtendedOperator(self.matrix.conj().T)

    def __matmul__(self, other):
        return ExtendedOperator(self.matrix @ other.matrix)


def _matrices(T):
    """The matrix of an ExtendedOperator, or a validated array of
    (n+1) x (n+1) matrices over leading axes, with n."""
    M = T.matrix if isinstance(T, ExtendedOperator) else _as_complex_matrix(T, square=True, stack=True)
    return M, M.shape[-1] - 1


def _operands(T, z):
    """Validated matrices, n, and the BallPoint of points of dimension n
    whose leading axes broadcast against the matrices'."""
    M, n = _matrices(T)
    return M, n, _paired_points(M.shape[:-2], z, n)


def epsilon_matrix(dim):
    """diag(-1, ..., -1, 1) on C^dim + C."""
    d = np.ones(dim + 1, dtype=complex)
    d[:dim] = -1.0
    return np.diag(d)


def epsilon_operator(dim):
    return ExtendedOperator(epsilon_matrix(dim))


@dataclass(frozen=True)
class MembershipCheck:
    """Verdict and measured defect; arrays of them for a stack."""

    ok: bool
    defect: float

    def __bool__(self):
        # a stack of several verdicts raises numpy's ambiguity error
        return bool(self.ok)


def _residual_norm(R):
    """`hermitian_norm` of a Hermitian residual R; inf where R overflowed."""
    try:
        return hermitian_norm(R)
    except DomainError:
        return np.full(R.shape[:-2], np.inf)


def _verdict(residual, M, k, tol):
    """MembershipCheck(residual <= max(tol, 1024 eps rho(M)^k), residual): a
    bool and a float for one matrix, arrays for a stack.  rho(M) is formed
    only past tol, from M scaled to unit size."""
    ok = residual <= tol
    if not np.all(ok):
        N, e = _pow2_scaled(M, (-2, -1))
        rho = np.ldexp(np.sqrt(np.square(np.abs(N)).sum(axis=(-2, -1)) / M.shape[-1]), e)
        ok = residual <= np.maximum(tol, 1024 * np.finfo(float).eps * rho ** k)
    return MembershipCheck(bool(ok), float(residual)) if np.ndim(residual) == 0 else MembershipCheck(ok, residual)


@_guard("the residual")
def is_inhomogeneous_unitary(T, tol=MEMBERSHIP_TOL):
    """Whether T* eps T = eps holds within tol (`_verdict`, k = 2), for an
    ExtendedOperator or a stack of (n+1) x (n+1) matrices; the residual is
    Hermitian for every T and read by `hermitian_norm`."""
    M, n = _matrices(T)
    eps = epsilon_matrix(n)
    # T* eps scales the columns of T* by +-1, which is exact
    residual = _residual_norm((M.conj().swapaxes(-1, -2) * eps.diagonal().real) @ M - eps)
    return _verdict(residual, M, 2, tol)


@_guard("the residual")
def check_block_conditions(T, tol=MEMBERSHIP_TOL):
    """`is_inhomogeneous_unitary` through the three block identities, on the
    largest residual; A*A - y y* - I is Hermitian, read by `hermitian_norm`."""
    M, n = _matrices(T)
    # the bottom row stores conj(y)
    A, x, yc, a = M[..., :n, :n], M[..., :n, n], M[..., n, :n], M[..., n, n]
    r1 = _residual_norm(A.conj().swapaxes(-1, -2) @ A - yc.conj()[..., :, None] * yc[..., None, :] - np.eye(n))
    r2 = np.abs(np.sum(x.real ** 2 + x.imag ** 2, axis=-1) - np.abs(a) ** 2 + 1.0)
    r3 = np.linalg.norm((A.conj().swapaxes(-1, -2) @ x[..., None])[..., 0] - a[..., None] * yc.conj(), axis=-1)
    return _verdict(np.maximum(np.maximum(r1, r2), r3), M, 2, tol)


def _moved(M, n, Z):
    """T zhat = (A z + x, <y|z> + a) over the leading axes, with the
    denominator <y|z> + a checked for degeneracy: below
    DEGENERATE_DENOMINATOR times the largest entry of T's bottom row (y, a),
    or times 1 where that entry is larger.  phi_T depends on T only up to
    scale, so a scaled-down member passes as the member does.  The row is
    read only past the absolute threshold, which a group member never
    trips on a point of the ball: its |<y|z> + a| exceeds 1 - ||z||."""
    W = _matvec(M[..., :, :n], Z) + M[..., :, n]
    den = abs(complex(W[n])) if W.ndim == 1 else np.abs(W[..., n])
    if (den < DEGENERATE_DENOMINATOR if W.ndim == 1 else np.count_nonzero(den < DEGENERATE_DENOMINATOR)):
        scale = np.clip(np.abs(M[..., n, :]).max(axis=-1), np.finfo(float).tiny, 1.0)
        if np.count_nonzero(den < DEGENERATE_DENOMINATOR * scale):
            raise DomainError("degenerate Moebius denominator")
    return W


def mobius_apply(T, z):
    """phi_T(z) = (A z + x)/(<y|z> + a); stays inside the ball for group
    members.

    Arrays of (n+1) x (n+1) matrices and of points (last axis) give the
    stack of images over their broadcast leading axes.  One degenerate
    denominator, or one point or image outside the ball, raises
    DomainError.
    """
    M, n, p = _operands(T, z)
    W = _moved(M, n, p.vector)
    return BallPoint(W[..., :n] / W[..., n, None])


def mobius_differential(T, z):
    """Complex Jacobian of phi_T at z, as an n x n matrix; the array of
    Jacobians over the leading axes of arrays of matrices and points.
    Each factor of the rank-one term is divided by the denominator on its
    own, so that a tiny or huge member forms no square of it."""
    M, n, p = _operands(T, z)
    W = _moved(M, n, p.vector)
    den = W[..., n, None, None]
    return M[..., :n, :n] / den - (W[..., :n, None] / den) * (M[..., n, None, :n] / den)


def transport_from_origin(u):
    """The canonical group member taking the origin to u.

    With m = (1 - ||u||^2)^(-1/2): A = I + (m - 1) E_u for the orthogonal
    projection E_u onto the line through u, x = y = m u, a = m.  Since
    (m - 1)/||u||^2 = m^2/(m + 1), A = I + m^2/(m + 1) u u*, which is I
    at the origin.  Self-adjoint blocks, deterministic, and phi_T(0) = u.
    A stack of points gives the array of their transports.
    """
    p = _point(u)
    U, n, single = p.vector, p.dim, p.vector.ndim == 1
    m = 1.0 / math.sqrt(p.gap) if single else 1.0 / np.sqrt(p.gap)[..., None]
    c = m * m / (m + 1.0)
    Uc = U.conj()
    T = np.empty(U.shape[:-1] + (n + 1, n + 1), dtype=complex)
    T[..., :n, :n] = _eye(n) + (c if single else c[..., None]) * (U[..., :, None] * Uc[..., None, :])
    T[..., :n, n] = m * U
    T[..., n, :n] = m * Uc
    T[..., n, n] = m if single else m[..., 0]
    return ExtendedOperator(T) if isinstance(u, BallPoint) and T.ndim == 2 else T


def inverse(T):
    """Group inverse eps T* eps (valid whenever T* eps T = eps); the array
    of inverses for a (k, n+1, n+1) stack of matrices."""
    M, n = _matrices(T)
    eps = epsilon_matrix(n)
    inv = eps @ M.conj().swapaxes(-1, -2) @ eps
    return ExtendedOperator(inv) if isinstance(T, ExtendedOperator) else inv


@dataclass(frozen=True, eq=False)
class MirrorTransformation:
    """The real-linear isometry E_W - E_Wperp for a real subspace W,
    stored as one map, the reflection 2 E_W - I, by the pair (A, B) of
    w = A z + B conj(z); stacks of A and B make a stack of mirrors."""

    A: np.ndarray
    B: np.ndarray

    @classmethod
    def from_basis(cls, basis):
        """The mirror through the real span of the columns of `basis`, an
        (..., n, k) array of real-orthonormal frames; leading axes give
        the stack of mirrors (see `real_projection`)."""
        A, B = real_projection(basis)
        return cls(2.0 * A - np.eye(A.shape[-1]), 2.0 * B)


def mirror_apply(F, z):
    """The image A z + B conj(z) of z under the mirror F.

    Arrays of points (last axis) and stacks of mirrors give the stack of
    images over their broadcast leading axes.  One point or image
    outside the ball raises DomainError.
    """
    Z = _paired_points(F.A.shape[:-2], z, F.A.shape[-1]).vector
    return BallPoint(_matvec(F.A, Z) + _matvec(F.B, Z.conj()))


@_guard("the residual")
def lie_algebra_check(X, tol=MEMBERSHIP_TOL):
    """Whether X* eps + eps X = 0 (exp(tX) in the group for all real t) holds
    within tol (`_verdict`, k = 1); the residual is read by `hermitian_norm`."""
    M, n = _matrices(X)
    # eps = diag(sign): both products are exact sign flips
    sign = epsilon_matrix(n).diagonal().real
    residual = _residual_norm(M.conj().swapaxes(-1, -2) * sign + sign[:, None] * M)
    return _verdict(residual, M, 1, tol)
