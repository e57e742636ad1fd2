"""One-parameter groups of ball isometries.

Disc generators are the 2x2 matrices X = [[ia, b], [conj(b), -ia]] with
a real and b complex; they satisfy X^2 = (|b|^2 - a^2) I, which is what
collapses exp(tX) to a closed form in every regime of
alpha = |b|^2 - a^2:

    alpha > 0:  z(t) = [(s + ia th) z + b th] / [conj(b) th z + s - ia th],
                s = sqrt(alpha), th = tanh(s t);
    alpha < 0:  the same with tan and sqrt(-alpha), falling back to the
                exponential route near the tangent poles;
    alpha = 0:  the parabolic map [(1 + iat) z + bt] / [conj(b) t z + 1 - iat]
                from exp(tX) = I + tX;
    b = 0:      the rotation z(t) = e^{2iat} z, exactly.

In any dimension a self-adjoint H drives the norm-preserving flow
z(t) = exp(-iHt) z, which is the quantum evolution this geometry
reproduces.  Trajectories always sample these exact flows; nothing here
integrates an ODE.

`evolve_exp` and `schrodinger_evolve` take a single generator and point,
arrays of them over any leading axes (see `geometry`), or one generator
and point with a 1-D array of times, which gives a list of points from
one batched exponential.
"""

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .geometry import BallPoint, _matvec, _paired_points, _points_result
from .isometries import ExtendedOperator, _matrices, lie_algebra_check, mobius_apply
from .numerics import _as_complex_matrix, mat_exp, op_norm

TAN_POLE_GUARD = 1e-8
GENERATOR_TOL = 1e-10
SELF_ADJOINT_TOL = 1e-12
# Times a trajectory exponentiates together: long enough to amortize the
# per-call overhead, short enough that the stack of matrices stays small.
TIME_BLOCK = 64


@dataclass(frozen=True)
class DiscGenerator:
    """Flow generator on the one-dimensional ball (the disc)."""

    a: float
    b: complex

    def matrix(self):
        return np.array(
            [[1j * self.a, self.b], [np.conj(self.b), -1j * self.a]], dtype=complex
        )

    def extended(self):
        return ExtendedOperator(self.matrix())


def alpha(g):
    """Discriminant |b|^2 - a^2 separating the three flow regimes."""
    return abs(g.b) ** 2 - g.a ** 2


@dataclass(frozen=True, eq=False)
class HamiltonianGenerator:
    """Self-adjoint H plus a phase parameter a; drives z(t) = e^{-iHt} z."""

    H: np.ndarray
    a: float = 0.0

    def __post_init__(self):
        H = np.asarray(self.H, dtype=complex)
        if H.ndim != 2 or H.shape[0] != H.shape[1]:
            raise DomainError("Hamiltonian must be square")
        if op_norm(H - H.conj().T) > SELF_ADJOINT_TOL:
            raise DomainError("Hamiltonian must be self-adjoint")
        object.__setattr__(self, "H", H)

    @property
    def dim(self):
        return self.H.shape[0]

    def extended(self):
        """The group generator whose Moebius flow equals the Schroedinger
        flow: diag(i(-H + aI), ia)."""
        n = self.dim
        m = np.zeros((n + 1, n + 1), dtype=complex)
        m[:n, :n] = 1j * (-self.H + self.a * np.eye(n))
        m[n, n] = 1j * self.a
        return ExtendedOperator(m)


def disc_evolve_closed(g, z, t):
    """Closed-form disc flow; |z| < 1 is preserved in every regime."""
    z = complex(z)
    if abs(z) >= 1.0:
        raise DomainError(f"disc point with |z| = {abs(z):.17g} is not interior")
    if t == 0.0:
        return z
    if g.b == 0:
        return cmath.exp(2j * g.a * t) * z
    al = alpha(g)
    if al > 0.0:
        s = math.sqrt(al)
        th = math.tanh(s * t)
        num = (s + 1j * g.a * th) * z + g.b * th
        den = np.conj(g.b) * th * z + s - 1j * g.a * th
    elif al < 0.0:
        s = math.sqrt(-al)
        if abs(math.cos(s * t)) < TAN_POLE_GUARD:
            # the printed quotient degenerates at the tangent pole; the
            # underlying Moebius map does not
            return evolve_exp(g.extended(), BallPoint([z]), t).vector[0]
        th = math.tan(s * t)
        num = (s + 1j * g.a * th) * z + g.b * th
        den = np.conj(g.b) * th * z + s - 1j * g.a * th
    else:
        num = (1.0 + 1j * g.a * t) * z + g.b * t
        den = np.conj(g.b) * t * z + 1.0 - 1j * g.a * t
    return complex(num / den)


def evolve_exp(X, z, t):
    """phi_{exp(tX)}(z) for any group generator in any dimension.

    A 1-D array of times gives a list of points, one per time, from one
    batched `mat_exp` and one stacked `mobius_apply`.  Arrays of
    generator matrices and of points with a scalar t give the array of
    phi_{exp(t X_i)}(z_i) over their leading axes; one matrix off the
    Lie algebra raises DomainError.
    """
    if not np.all(lie_algebra_check(X, GENERATOR_TOL)):
        raise DomainError("generator leaves the isometry Lie algebra")
    moved = mobius_apply(mat_exp(_matrices(X)[0], t), z)
    return [BallPoint(w) for w in moved] if np.ndim(t) else moved


def schrodinger_evolve(gen, z, t):
    """Norm-preserving quantum flow z(t) = exp(-iHt) z.

    A 1-D array of times gives a list of points, one per time, from one
    batched `mat_exp`.  Arrays of self-adjoint matrices H_i and of
    points with a scalar t give the array of exp(-i H_i t) z_i over
    their leading axes; one matrix that is not self-adjoint, or one
    point outside the ball, raises DomainError.
    """
    if isinstance(gen, HamiltonianGenerator):
        H = gen.H
    else:
        H = _as_complex_matrix(gen, square=True, stack=True)
        if np.any(op_norm(H - H.conj().swapaxes(-1, -2)) > SELF_ADJOINT_TOL):
            raise DomainError("Hamiltonian must be self-adjoint")
    U = mat_exp(-1j * H, t)
    moved = _matvec(U, _paired_points(U, z, H.shape[-1]))
    if np.ndim(t):
        return [BallPoint(w) for w in moved]
    return _points_result(moved, isinstance(z, BallPoint))


def trajectory(generator, z0, t_max, dt):
    """Samples of the exact flow at t = 0, dt, 2dt, ... up to t_max.

    Returns a list of (t, BallPoint).  t_max must cover at least one
    step, so the shortest output has two samples.  Disc flows are
    evaluated per step in closed form; the other generators go through
    `evolve_exp` or `schrodinger_evolve` TIME_BLOCK times at a time, so
    one block of matrices is alive at once.
    """
    if dt <= 0.0:
        raise DomainError("dt must be positive")
    if t_max < dt - 1e-15:
        raise DomainError("t_max must be at least dt")
    steps = int(math.floor(t_max / dt + 1e-9))
    times = [i * dt for i in range(steps + 1)]

    if isinstance(generator, DiscGenerator):
        if z0.dim != 1:
            raise DomainError("disc generators act on the one-dimensional ball")
        points = [BallPoint([disc_evolve_closed(generator, z0.vector[0], t)]) for t in times]
        return list(zip(times, points))
    if isinstance(generator, HamiltonianGenerator):
        flow = schrodinger_evolve
    elif isinstance(generator, ExtendedOperator):
        flow = evolve_exp
    else:
        raise DomainError(f"unsupported generator type {type(generator).__name__}")
    points = []
    for start in range(0, len(times), TIME_BLOCK):
        points += flow(generator, z0, np.array(times[start:start + TIME_BLOCK]))
    return list(zip(times, points))
