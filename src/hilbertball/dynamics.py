"""One-parameter groups of ball isometries.

Disc generators are the 2x2 matrices X = [[ia, b], [conj(b), -ia]] with
a real and b complex; they satisfy X^2 = alpha I, alpha = |b|^2 - a^2,
which collapses the exponential to exp(tX) = C I + S X with, for
s = sqrt(|alpha|),

    alpha < 0:  (C, S) = (cos st, sin(st) / s);
    alpha = 0:  (C, S) = (1, t);
    alpha > 0:  (C, S) = (1, tanh(st) / s), which is (cosh st, sinh(st) / s)
                divided by cosh st, a factor the quotient below cancels,
                so nothing overflows;

and the flow is the quotient z(t) = [(C + iaS) z + bS] / [conj(b) S z + C - iaS],
whose denominator has no zero on the disc at any time.  A rotation
(b = 0) is the case alpha = -a^2, and a = b = 0 the parabolic one.

In any dimension a self-adjoint H drives the norm-preserving flow
z(t) = exp(-iHt) z, which is the quantum evolution this geometry
reproduces.  H is unitarily diagonalizable, so the flow is read off one
eigendecomposition H = V diag(lambda) V* as V (e^{-i lambda t} * V* z)
with no matrix exponential.  Trajectories always sample these exact
flows; nothing here integrates an ODE.

`evolve_exp` and `schrodinger_evolve` take a single generator and point,
arrays of them over any leading axes (see `geometry`), or one generator
and point with a 1-D array of times, which gives the array of points,
one per time, from one batched exponential or one eigendecomposition.
`disc_evolve_closed` broadcasts the a and b of its generators, its disc
points and its times elementwise, the times being a scalar or a 1-D
array.  All follow the edge rules of `numerics`.  A trajectory is the
pair of arrays (times, points): disc and Schroedinger flows are one call
over all times, and exponential flows exponentiate only their first
TIME_BLOCK times and step each later block from the one before it by
exp(TIME_BLOCK dt X), by the group law exp((s + t)X) = exp(sX) exp(tX):
two `mat_exp` calls at most.
"""

import math
from dataclasses import dataclass

import numpy as np

from .algebra import is_self_adjoint
from .errors import DomainError
from .geometry import (
    BallPoint,
    _matvec,
    _paired_points,
    _points_result,
    _result,
    _vectors,
)
from .isometries import ExtendedOperator, _matrices, lie_algebra_check, mobius_apply
from .numerics import _as_complex_matrix, _as_times, _broadcast, _guard, _pow2_scaled, mat_exp

# Times a trajectory exponentiates together, and the length of the block
# it then steps along its grid: long enough to amortize the per-call
# overhead, short enough that the stack of matrices stays small.
TIME_BLOCK = 64


@dataclass(frozen=True)
class DiscGenerator:
    """Flow generator on the one-dimensional ball (the disc).  a and b
    may be arrays whose shapes broadcast, for a stack of generators."""

    a: float
    b: complex

    def matrix(self):
        """[[ia, b], [conj(b), -ia]]; the (..., 2, 2) stack for arrays a, b."""
        a, b = np.broadcast_arrays(np.asarray(self.a, dtype=float), np.asarray(self.b, dtype=complex))
        return np.stack([np.stack([1j * a, b], axis=-1), np.stack([b.conj(), -1j * a], axis=-1)], axis=-2)

    def extended(self):
        return ExtendedOperator(self.matrix())


def alpha(g):
    """Discriminant |b|^2 - a^2 separating the three flow regimes, the
    array of them for arrays a and b; +-inf past the largest float."""
    al, e = _scaled_generator(np.asarray(g.a, dtype=float), np.asarray(g.b, dtype=complex))[2:]
    with np.errstate(over="ignore"):
        return np.ldexp(al, 2 * e)


def _scaled_generator(a, b):
    """(2^-e a, 2^-e b, alpha 2^-2e, e) from a and b scaled together,
    which keeps alpha's sign.  DomainError for a non-finite a or b."""
    if not (np.isfinite(a).all() and np.isfinite(b).all()):
        raise DomainError("disc generator has non-finite a or b")
    ab, e = _pow2_scaled(np.stack(np.broadcast_arrays(a, b), axis=-1))
    a, b = ab[..., 0].real, ab[..., 1]
    return a, b, np.abs(b) ** 2 - a ** 2, e


def _hamiltonian(H, stack=False):
    """H as a validated self-adjoint matrix (`algebra.is_self_adjoint`), or
    with `stack` an array of them over leading axes; DomainError otherwise."""
    H = _as_complex_matrix(H, square=True, stack=stack)
    if not np.all(is_self_adjoint(H).ok):
        raise DomainError("Hamiltonian must be self-adjoint")
    return H


@dataclass(frozen=True, eq=False)
class HamiltonianGenerator:
    """A self-adjoint H; drives z(t) = e^{-iHt} z."""

    H: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "H", _hamiltonian(self.H))

    @property
    def dim(self):
        return self.H.shape[0]

    def extended(self):
        """The group generator whose Moebius flow equals the Schroedinger
        flow: diag(-iH, 0).  Adding iaI for a real a gives the same flow,
        since a multiple of the identity acts trivially on the ball."""
        n = self.dim
        m = np.zeros((n + 1, n + 1), dtype=complex)
        m[:n, :n] = -1j * self.H
        return ExtendedOperator(m)


@_guard("the flow")
def disc_evolve_closed(g, z, t):
    """Closed-form disc flow.  The exact flow keeps |z| < 1 in every
    regime, but the float result can round onto the rim: the hyperbolic
    orbit of (0.3, 0.8+0.2i) from 0.5 has |w| = 1.0 at t = 40, which
    `trajectory` rejects as outside the ball.

    The generator's a and b, the point z and the time t broadcast
    elementwise, t being a scalar or a 1-D array of times: scalars give a
    complex, arrays the array of flowed points over the broadcast shape,
    from one pass of the same formula with the regime picked entry by
    entry.  A scalar goes through it as an array of one entry, since
    numpy's scalar arithmetic rounds apart from its array loops, so its
    result has the bits of that entry of any array.  Every z passes the
    check `BallPoint` makes.
    """
    times = _as_times(np.asarray(t, dtype=float))
    z = _vectors(np.asarray(z, dtype=complex)[..., None])[0][..., 0]
    a, b = np.asarray(g.a, dtype=float), np.asarray(g.b, dtype=complex)
    shape = _broadcast(a.shape, b.shape, z.shape, times.shape, what="shapes of a, b, z and t")
    a, b, z, times = np.atleast_1d(a, b, z, times)
    a, b, al, e = _scaled_generator(a, b)
    # a, b and s = 2^e r scaled down by 2^e and S up, so S a and S b keep
    # their values; each regime's (C, S) is evaluated on its own entries only
    r = np.sqrt(np.abs(al))
    st = np.ldexp(r * times, e)
    C = np.ones_like(st)
    S = np.where(al == 0.0, np.ldexp(times, e), 0.0)
    np.cos(st, out=C, where=al < 0.0)
    np.sin(st, out=S, where=al < 0.0)
    np.tanh(st, out=S, where=al > 0.0)
    np.divide(S, r, out=S, where=al != 0.0)
    # [(C + iaS) z + bS] / [conj(b) S z + C - iaS] grouped by C and S,
    # whose coefficients need no time
    w = (C * z + S * (1j * a * z + b)) / (C + S * (b.conj() * z - 1j * a))
    return _result(w.reshape(shape))


def evolve_exp(X, z, t):
    """phi_{exp(tX)}(z) for any group generator in any dimension.

    A 1-D array of k times gives the (k, n) array of points, one per
    time, from one batched `mat_exp` and one stacked `mobius_apply`.
    Arrays of generator matrices and of points with a scalar t give the
    array of phi_{exp(t X_i)}(z_i) over their leading axes; one matrix
    off the Lie algebra raises DomainError, as `mat_exp` does for one
    exp(tX) past the float range.
    """
    if not np.all(lie_algebra_check(X).ok):
        raise DomainError("generator leaves the isometry Lie algebra")
    return mobius_apply(mat_exp(_matrices(X)[0], t), z)


@_guard("the flow")
def schrodinger_evolve(gen, z, t):
    """Norm-preserving quantum flow z(t) = exp(-iHt) z.

    H is diagonalized once by `eigh`, H = V diag(lambda) V*, and the
    flow is read off as V (e^{-i lambda t} * V* z): the spectral theorem
    in place of a matrix exponential.  A 1-D array of k times gives the
    (k, n) array of points, one per time, from that one decomposition.
    Arrays of self-adjoint matrices H_i and of points with a scalar t
    give the array of exp(-i H_i t) z_i over their leading axes; one
    matrix that is not self-adjoint, or one point outside the ball,
    raises DomainError.  Each point of a time array has the bits of the
    call at that scalar time.
    """
    H = gen.H if isinstance(gen, HamiltonianGenerator) else _hamiltonian(gen, stack=True)
    times = _as_times(t)
    if H.ndim > 2 and times.ndim:
        raise DomainError("a stack of Hamiltonians takes one scalar time")
    # the points pair with the times, or with the stack of Hamiltonians
    Z, _ = _paired_points(times.shape or H.shape[:-2], z, H.shape[-1])
    lam, V = np.linalg.eigh(H)
    coeffs = _matvec(V.conj().swapaxes(-1, -2), Z)
    phases = np.exp(-1j * (times[..., None] * lam))
    moved = _matvec(V, phases * coeffs)
    return _points_result(moved, isinstance(z, BallPoint))


def trajectory(generator, z0, t_max, dt):
    """Samples of the exact flow at t = 0, dt, 2dt, ... up to t_max.

    Returns `times`, the (N,) array i * dt, and `points`, the (N, n)
    array of z(t_i).  t_max must cover at least one step, so the
    shortest output has two samples.  Disc flows are one call of the
    closed form over all times, and Schroedinger flows one
    `schrodinger_evolve` call over all times, so each of their samples
    is the per-step flow bit for bit.  Exponential flows use the group
    law phi_{exp((s+t)X)} = phi_{exp(sX)} o phi_{exp(tX)}: the first
    TIME_BLOCK samples come from one batched `evolve_exp`, which checks
    the generator once, and each later block is the block before it
    moved by the one step exp(TIME_BLOCK dt X), a second `mat_exp` call,
    so later samples differ from the per-step exponentials by the
    roundoff of the steps before them.  Their points are checked block
    by block as they are made, the other flows' as one array; a sample
    that rounds out of the ball raises DomainError naming the first such
    sample, its time and its norm.
    """
    if dt <= 0.0:
        raise DomainError("dt must be positive")
    # NaN times pass the check above; NaN or an overflowing quotient
    # would reach the integer conversion
    span = t_max / dt
    if not math.isfinite(span):
        raise DomainError(f"t_max / dt must be a finite step count, got {t_max!r} / {dt!r}")
    steps = int(math.floor(span + 1e-9))
    if steps < 1:
        raise DomainError("t_max must be at least dt")
    times = np.arange(steps + 1) * dt

    start = 0
    try:
        if isinstance(generator, DiscGenerator):
            if z0.dim != 1:
                raise DomainError("disc generators act on the one-dimensional ball")
            points = _vectors(disc_evolve_closed(generator, z0.vector[0], times)[:, None])[0]
        elif isinstance(generator, HamiltonianGenerator):
            points = schrodinger_evolve(generator, z0, times)
        elif isinstance(generator, ExtendedOperator):
            blocks = [evolve_exp(generator, z0, times[:TIME_BLOCK])]
            if len(times) > TIME_BLOCK:
                shift = mat_exp(generator.matrix, times[TIME_BLOCK])
            for start in range(TIME_BLOCK, len(times), TIME_BLOCK):
                blocks.append(mobius_apply(shift, blocks[-1][:len(times) - start]))
            points = np.concatenate(blocks)
        else:
            raise DomainError(f"unsupported generator type {type(generator).__name__}")
    except DomainError as err:
        # a point check names the row of the first bad point of its array
        if not hasattr(err, "row"):
            raise
        i = start + err.row
        raise DomainError(f"sample {i} (t = {float(times[i])!r}): {err}") from None
    return times, points
