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
real-linear but not complex-linear.
"""

from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .geometry import BallPoint, _as_points, _check_points
from .numerics import RealLinearMap, _as_complex_matrix, mat_exp, op_norm, real_projection

MEMBERSHIP_TOL = 1e-10
DEGENERATE_DENOMINATOR = 1e-14


@dataclass(frozen=True, eq=False)
class ExtendedOperator:
    """Complex operator on C^n + C stored as its full (n+1)x(n+1) matrix."""

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

    @property
    def A(self):
        return self.matrix[: self.dim, : self.dim]

    @property
    def x(self):
        return self.matrix[: self.dim, self.dim]

    @property
    def y(self):
        # stored conjugated in the bottom row
        return np.conj(self.matrix[self.dim, : self.dim])

    @property
    def a(self):
        return complex(self.matrix[self.dim, self.dim])

    def adjoint(self):
        return ExtendedOperator(self.matrix.conj().T)

    def apply(self, vec):
        return self.matrix @ np.asarray(vec, dtype=complex)

    def __matmul__(self, other):
        return ExtendedOperator(self.matrix @ other.matrix)

    def __add__(self, other):
        return ExtendedOperator(self.matrix + other.matrix)

    def __sub__(self, other):
        return ExtendedOperator(self.matrix - other.matrix)

    def __mul__(self, scalar):
        return ExtendedOperator(self.matrix * complex(scalar))

    __rmul__ = __mul__


def _matrices(T):
    """The matrix of an ExtendedOperator, or a validated array of
    (n+1) x (n+1) matrices over leading axes, with n."""
    M = T.matrix if isinstance(T, ExtendedOperator) else _as_complex_matrix(T, square=True, stack=True)
    return M, M.shape[-1] - 1


def _stack_and_points(T, z):
    """A validated (k, n+1, n+1) stack of matrices, n, and a validated
    (k, n) array of points."""
    M, n = _matrices(T)
    Z = _as_points(z)
    if M.ndim != 3 or Z.shape != (M.shape[0], n):
        raise DomainError(f"need a (k, n+1, n+1) stack and a (k, n) array, got {M.shape} and {Z.shape}")
    return M, n, Z


def epsilon_matrix(dim):
    """diag(-1, ..., -1, 1) on C^dim + C."""
    d = np.ones(dim + 1, dtype=complex)
    d[:dim] = -1.0
    return np.diag(d)


def epsilon_operator(dim):
    return ExtendedOperator(epsilon_matrix(dim))


@dataclass(frozen=True)
class MembershipCheck:
    """Boolean verdict plus the measured defect (arrays of them, one per
    matrix, for a stack)."""

    ok: bool
    defect: float

    def __bool__(self):
        return self.ok


def is_inhomogeneous_unitary(T, tol=MEMBERSHIP_TOL):
    """Whether T* eps T = eps holds within tol, with the defect reported.

    T is an ExtendedOperator, or a (k, n+1, n+1) stack of matrices, for
    which the verdicts and defects are arrays.
    """
    M, n = _matrices(T)
    eps = epsilon_matrix(n)
    defect = op_norm(M.conj().swapaxes(-1, -2) @ eps @ M - eps)
    return MembershipCheck(defect <= tol, defect)


def block_condition_defect(T):
    """Largest residual of the three block identities; the array of them
    for a (k, n+1, n+1) stack of matrices."""
    M, n = _matrices(T)
    # the bottom row stores conj(y)
    A, x, yc, a = M[..., :n, :n], M[..., :n, n], M[..., n, :n], M[..., n, n]
    r1 = op_norm(A.conj().swapaxes(-1, -2) @ A - yc.conj()[..., :, None] * yc[..., None, :] - np.eye(n))
    r2 = np.abs(np.sum(x.real ** 2 + x.imag ** 2, axis=-1) - np.abs(a) ** 2 + 1.0)
    r3 = np.linalg.norm((A.conj().swapaxes(-1, -2) @ x[..., None])[..., 0] - a[..., None] * yc.conj(), axis=-1)
    defect = np.maximum(np.maximum(r1, r2), r3)
    return float(defect) if M.ndim == 2 else defect


def check_block_conditions(T, tol=MEMBERSHIP_TOL):
    return block_condition_defect(T) <= tol


def mobius_apply(T, z):
    """phi_T(z) = (A z + x)/(<y|z> + a); stays inside the ball for group
    members.

    A (k, n+1, n+1) stack of matrices and a (k, n) array of points give
    the (k, n) array of images, phi_{T_i}(z_i); one degenerate
    denominator, or one point or image outside the ball, raises
    DomainError.
    """
    if isinstance(T, ExtendedOperator):
        if T.dim != z.dim:
            raise DomainError("operator and point dimensions differ")
        den = complex(np.vdot(T.y, z.vector) + T.a)
        if abs(den) < DEGENERATE_DENOMINATOR:
            raise DomainError("degenerate Moebius denominator")
        return BallPoint((T.A @ z.vector + T.x) / den)
    M, n, Z = _stack_and_points(T, z)
    top = (M[:, :n, :n] @ Z[:, :, None])[:, :, 0] + M[:, :n, n]
    den = np.sum(M[:, n, :n] * Z, axis=-1) + M[:, n, n]
    if (np.abs(den) < DEGENERATE_DENOMINATOR).any():
        raise DomainError("degenerate Moebius denominator")
    return _check_points(top / den[:, None])


def mobius_differential(T, z):
    """Complex Jacobian of phi_T at z, as an n x n matrix.

    A (k, n+1, n+1) stack of matrices and a (k, n) array of points give
    the (k, n, n) array of Jacobians.
    """
    if isinstance(T, ExtendedOperator):
        den = complex(np.vdot(T.y, z.vector) + T.a)
        if abs(den) < DEGENERATE_DENOMINATOR:
            raise DomainError("degenerate Moebius denominator")
        top = T.A @ z.vector + T.x
        return T.A / den - np.outer(top, np.conj(T.y)) / (den * den)
    M, n, Z = _stack_and_points(T, z)
    A, yc = M[:, :n, :n], M[:, n, :n]
    den = np.sum(yc * Z, axis=-1) + M[:, n, n]
    if (np.abs(den) < DEGENERATE_DENOMINATOR).any():
        raise DomainError("degenerate Moebius denominator")
    top = (A @ Z[:, :, None])[:, :, 0] + M[:, :n, n]
    return A / den[:, None, None] - top[:, :, None] * yc[:, None, :] / (den * den)[:, None, None]


def transport_from_origin(u):
    """The canonical group member taking the origin to u.

    With m = (1 - ||u||^2)^(-1/2): A = I + (m - 1) E_u for the orthogonal
    projection E_u onto the line through u, x = y = m u, a = m.  Self-
    adjoint blocks, deterministic, and phi_T(0) = u.  A (k, n) array of
    points gives the (k, n+1, n+1) array of their transports.
    """
    if isinstance(u, BallPoint):
        n = u.dim
        nsq = u.norm_sq()
        if nsq == 0.0:
            return ExtendedOperator.identity(n)
        m = 1.0 / np.sqrt(1.0 - nsq)
        proj = np.outer(u.vector, np.conj(u.vector)) / nsq
        A = np.eye(n, dtype=complex) + (m - 1.0) * proj
        return ExtendedOperator.from_blocks(A, m * u.vector, m * u.vector, m)
    U = _as_points(u)
    if U.ndim != 2:
        raise DomainError(f"need a (k, n) array of points, got shape {U.shape}")
    k, n = U.shape
    nsq = np.sum(U.real ** 2 + U.imag ** 2, axis=-1)
    m = 1.0 / np.sqrt(1.0 - nsq)
    # the origin's projection is left at zero, so its transport is I
    proj = U[:, :, None] * U.conj()[:, None, :] / np.where(nsq > 0.0, nsq, 1.0)[:, None, None]
    T = np.empty((k, n + 1, n + 1), dtype=complex)
    T[:, :n, :n] = np.eye(n) + (m - 1.0)[:, None, None] * proj
    T[:, :n, n] = m[:, None] * U
    T[:, n, :n] = m[:, None] * U.conj()
    T[:, n, n] = m
    return T


def inverse(T):
    """Group inverse eps T* eps (valid whenever T* eps T = eps); the array
    of inverses for a (k, n+1, n+1) stack of matrices."""
    M, n = _matrices(T)
    eps = epsilon_matrix(n)
    inv = eps @ M.conj().swapaxes(-1, -2) @ eps
    return ExtendedOperator(inv) if isinstance(T, ExtendedOperator) else inv


@dataclass(frozen=True, eq=False)
class MirrorTransformation:
    """The real-linear isometry E_W - E_Wperp for a real subspace W."""

    projection: RealLinearMap
    complement_projection: RealLinearMap

    @classmethod
    def from_basis(cls, basis):
        p = real_projection(basis)
        return cls(p, p.complement())

    @classmethod
    def conjugation(cls, dim):
        """The mirror fixing all real points: entrywise conjugation."""
        basis = [np.eye(dim)[j].astype(complex) for j in range(dim)]
        return cls.from_basis(basis)


def mirror_apply(F, z):
    w = F.projection.apply(z.vector) - F.complement_projection.apply(z.vector)
    return BallPoint(w)


def lie_defect(X):
    """Residual of the infinitesimal group condition X* eps + eps X = 0;
    the array of them for a (k, n+1, n+1) stack of matrices."""
    M, n = _matrices(X)
    eps = epsilon_matrix(n)
    return op_norm(M.conj().swapaxes(-1, -2) @ eps + eps @ M)


def lie_algebra_check(X, tol=MEMBERSHIP_TOL):
    """True when exp(tX) stays in the group for all real t (an array of
    verdicts for a stack)."""
    return lie_defect(X) <= tol


def exp_element(X, t=1.0):
    """exp(t X) as an extended operator."""
    return ExtendedOperator(mat_exp(X.matrix, t))
