"""Hyperbolic geometry of the open unit ball of C^n.

The state space is B = {z : ||z|| < 1} carrying the Bergman-type metric
with conformal factor k_z = 1/(1 - ||z||^2).  On complexified tangent
pairs (u, vbar) the metric reads

    g_z((u, vbar), (u', vbar')) = k_z (<v|u'> + <v'|u>)
                                + k_z^2 (<v|z><z|u'> + <v'|z><z|u>),

with <a|b> antilinear in the first slot.  A real tangent vector u embeds
as the pair (u, ubar), which doubles the hermitian line element: in one
dimension g((u,ubar),(u,ubar)) = 2|u|^2/(1-|z|^2)^2.  Two normalization
conventions therefore coexist and both are pinned by exact anchors:

* lengths and the distance use the hermitian line element
  k||du||^2 + k^2|<z|du>|^2, the metric at ((du, 0), (0, du bar)),
  which makes tanh d(u,0) = ||u|| hold exactly; `hermitian_energy`
  evaluates it over leading axes like the other kernels;
* the curvature probe uses the doubled (real tangent) evaluation, which
  is what gives the constant holomorphic sectional curvature -2.

The distance between interior points is

    d(u,v) = (1/2) log[(m + s)/(m - s)],
    m = |1 - <u|v>|,  s = sqrt(||u-v||^2 - ||u||^2 ||v||^2 + |<u|v>|^2),

equivalently tanh d(u,v) = s/m.  The identity
m^2 - s^2 = (1 - ||u||^2)(1 - ||v||^2) keeps m - s strictly positive on
the open ball, and `distance` evaluates m - s through it so that nothing
cancels near the rim.  The rim gaps 1 - ||z||^2 it needs are stored on
each point: `BallPoint.gap`, computed once when the point is made.  The
radicand of s is evaluated as a sum of non-negative terms in w = u - v
(see `_distance_parts`), so nothing cancels for nearby points either.
m and s are invariant under the Moebius transport group as well as
under unitary and antiunitary maps, which is what makes d the geodesic
distance of the metric above.  When <u|v> happens to be real both
quantities reduce to 1 - <u|v> and the familiar real-part form of the
formula.

The kernels of this module and of `isometries`, `algebra` and `dynamics`
each have one formula body written over leading axes: points lie along
the last axis of an array and operators along the last two, and any axes
before those broadcast (the edge rules are `numerics`').  A single
object is the case with no leading axes.

Points are one type, `BallPoint`: a single point or a stack of them,
with their rim gaps 1 - <z|z>, checked by the one inside rule: finite,
with <z|z> < (1 - BOUNDARY_MARGIN)^2 and <z|z> of the bits of np.vdot.
A kernel turns its point argument into a `BallPoint` once, on entry, and
every kernel whose value is points returns one: `mobius_apply`,
`mirror_apply`, `evolve_exp`, `schrodinger_evolve` and the points of
`trajectory`.  An operator-valued kernel gives an `ExtendedOperator`
where one went in, and `transport_from_origin` one for a single
`BallPoint`; raw arrays give arrays, and the `numerics` kernels take
and give arrays only.  A scalar result is a Python float or complex.
Both constructors copy and fully check what a caller passes them.  An
array that a kernel has just made is handed over as it is: a point
still gets the inside rule, which an image can fail by rounding, and an
operator only the checks its making can fail (see
`isometries.ExtendedOperator`).
`distance`, `tanh_distance`, `recover_inner_product`, `connection`,
`geodesic_from_origin` and `algebra`'s norm estimators take single
points only, and `trajectory` starts from one; `disc_evolve_closed`,
whose points are complex numbers, broadcasts them elementwise instead.
"""

import math
from dataclasses import KW_ONLY, InitVar, dataclass, field

import numpy as np

from .errors import DomainError
from .numerics import _broadcast, _guard, _pow2_scaled

BOUNDARY_MARGIN = 1e-12
_LIMIT_SQ = (1.0 - BOUNDARY_MARGIN) ** 2
# Constant holomorphic sectional curvature of the ball, and the scale
# constant tied to it by c = 2/hbar.
CURVATURE = -2.0
HBAR = 2.0 / CURVATURE

NORM_MATCH_TOL = 1e-10


def _reject(z, sq):
    """Raise DomainError for points z, of squared norms sq, not all inside.
    Its `row` is the first non-finite point over the flattened leading
    axes, or if none the first outside, and its message gives that
    point's norm as sqrt(sq), so a point rejected at the margin never
    prints a norm below 1 - BOUNDARY_MARGIN.  Nothing here warns, even
    for huge or non-finite points, so it needs no np.errstate."""
    finite_rows = np.isfinite(z).all(axis=-1)
    finite = bool(finite_rows.all())
    row = int(np.argmax(~(np.asarray(sq) < _LIMIT_SQ) if finite else ~finite_rows))
    err = DomainError(f"point with norm {math.sqrt(np.ravel(sq)[row]):.17g} is outside the open ball"
                      if finite else "point has non-finite entries")
    err.row = row
    raise err


@dataclass(frozen=True, eq=False)
class BallPoint:
    """An interior point of the unit ball, ||z|| < 1, or a stack of them.

    `vector` has shape (..., n) (a scalar is a point of the disc) and is
    read-only: a copy of the caller's input, or the complex array a
    kernel of the package has just made, which it hands over without a
    copy.  `gap` holds the rim gaps 1 - <z|z>, a float or a read-only
    array of shape (...).  Either way the inside rule is checked, since
    an image of a kernel can round past the margin.  Indexing the
    leading axes gives points of the stack with their gaps, unchecked
    again.
    """

    vector: np.ndarray
    gap: float = field(init=False)
    _: KW_ONLY
    # set by the package's kernels only, for a fresh complex array of
    # at least one axis that nothing else holds
    _owned: InitVar[bool] = False

    def __post_init__(self, _owned):
        if _owned:
            v = self.vector
        else:
            try:
                v = np.array(self.vector, dtype=complex, ndmin=1)
            except (TypeError, ValueError):
                raise DomainError(f"cannot read {type(self.vector).__name__} as a point") from None
            object.__setattr__(self, "vector", v)
        v.setflags(write=False)
        if v.ndim == 1:
            # a single point pays for no np.errstate and no reduction
            sq = float(np.vdot(v, v).real)
            if not sq < _LIMIT_SQ:
                _reject(v, sq)
            gap = 1.0 - sq
        else:
            with np.errstate(over="ignore", invalid="ignore"):
                sq = _dots(v, v).real
            if not (sq < _LIMIT_SQ).all():
                _reject(v, sq)
            gap = 1.0 - sq
            gap.setflags(write=False)
        object.__setattr__(self, "gap", gap)

    @property
    def dim(self):
        return self.vector.shape[-1]

    def norm(self):
        """||z||: a float, or the array of norms of a stack, each norm
        the same bits alone and in a stack."""
        v = self.vector
        # np.linalg.norm's own formula along an axis, without its dispatch
        return _result(np.sqrt(np.add.reduce((v.conj() * v).real, axis=-1)))

    def __getitem__(self, index):
        lead = index if isinstance(index, tuple) else (index,)
        gap = self.gap[lead]
        return _fill(object.__new__(BallPoint), self.vector[lead + (slice(None),)],
                     gap if np.ndim(gap) else float(gap))


def _fill(p, vector, gap):
    """p holding the checked points `vector` and their gaps, read-only."""
    vector.setflags(write=False)
    if vector.ndim > 1:
        gap.setflags(write=False)
    object.__setattr__(p, "vector", vector)
    object.__setattr__(p, "gap", gap)
    return p


def _joined(points):
    """The stacks `points` joined along their first axis, unchecked again."""
    return _fill(object.__new__(BallPoint), np.concatenate([p.vector for p in points]),
                 np.concatenate([p.gap for p in points]))


def origin(dim):
    return BallPoint(np.zeros(dim, dtype=complex), _owned=True)


@dataclass(frozen=True, eq=False)
class TangentVector:
    """Complexified tangent element (u, vbar).

    `hol` stores u; `antihol` stores the vector v whose conjugate is the
    antiholomorphic component.  The complex structure sends (u, vbar) to
    (i u, -i vbar), which in this storage multiplies both parts by i.
    """

    hol: np.ndarray
    antihol: np.ndarray

    def __post_init__(self):
        u = np.atleast_1d(np.asarray(self.hol, dtype=complex))
        v = np.atleast_1d(np.asarray(self.antihol, dtype=complex))
        if u.shape != v.shape:
            raise DomainError("tangent parts must share one dimension")
        object.__setattr__(self, "hol", u)
        object.__setattr__(self, "antihol", v)

    @classmethod
    def real(cls, u):
        """Embed a real tangent direction u as the pair (u, ubar)."""
        return cls(u, u)

    def apply_J(self):
        return TangentVector(1j * self.hol, 1j * self.antihol)


def _point(z):
    """z as a BallPoint: z itself, or an array of points along its last
    axis checked by the inside rule."""
    if isinstance(z, BallPoint):
        return z
    if np.ndim(z) == 0:
        raise DomainError("points need at least one axis")
    return BallPoint(z)


def _paired_points(lead, z, n):
    """z as a BallPoint (`_point`) of dimension n, its leading axes
    broadcasting against `lead`, those of an array of matrices."""
    p = _point(z)
    if p.dim != n:
        raise DomainError("operator and point dimensions differ")
    if lead and p.vector.ndim > 1:  # no leading axes broadcast with any
        _broadcast(lead, p.vector.shape[:-1])
    return p


def _result(x):
    """A result with no leading axes as a Python scalar, any other as is."""
    return x.item() if x.ndim == 0 else x


def _dots(a, b):
    """<a|b> along the last axis, antilinear in a, over the leading axes.

    Each pair of rows is one BLAS dot.  A single pair of vectors goes to
    np.vdot, which gives the same bits as that row of the batched matmul
    without its cost per call.
    """
    if a.ndim == 1 and b.ndim == 1:
        return np.vdot(a, b)
    return (a.conj()[..., None, :] @ b[..., :, None])[..., 0, 0]


def _matvec(M, v):
    """M v over the leading axes of both; a single vector needs no
    trailing axis, as matmul appends one to a 1-D operand itself."""
    return M @ v if v.ndim == 1 else (M @ v[..., :, None])[..., 0]


def k_factor(z):
    """Conformal factor 1/(1 - ||z||^2), at least 1 on the ball.

    An array of points along its last axis gives the array of factors;
    one point outside the ball raises DomainError.
    """
    return _result(np.divide(1.0, _point(z).gap))


@_guard("the metric")
def metric(z, s, t):
    """Evaluate the metric at z on two complexified tangent vectors.

    z may also be an array of points along its last axis, and the parts
    of the tangent vectors arrays of vectors; their leading axes
    broadcast, and the result is then the complex array of values.  A
    value past the float range raises DomainError (`numerics`), for
    `kahler_form` and `hermitian_energy` too.
    """
    p = _point(z)
    k, Z = k_factor(p), p.vector
    if not s.hol.shape[-1] == t.hol.shape[-1] == Z.shape[-1]:
        raise DomainError(f"tangent parts of shape {s.hol.shape} and {t.hol.shape} do not match points {Z.shape}")
    _broadcast(s.hol.shape[:-1], t.hol.shape[:-1], Z.shape[:-1])
    term1 = _dots(s.antihol, t.hol) + _dots(t.antihol, s.hol)
    # np.multiply, not *: numpy's scalar complex multiply rounds apart from
    # its array loop, and one body must give a single call its stack row's bits
    term2 = np.multiply(_dots(s.antihol, Z), _dots(Z, t.hol)) + np.multiply(_dots(t.antihol, Z), _dots(Z, s.hol))
    return _result(k * term1 + k * k * term2)


@_guard("the metric")
def kahler_form(z, s, t):
    """The fundamental two-form, metric with J applied to the first slot."""
    return metric.__wrapped__(z, s.apply_J(), t)


def hermitian_energy(z, u):
    """k||u||^2 + k^2 |<z|u>|^2: the line element used for lengths.

    Evaluated as Re metric(z, (u,0), (0,ubar)), which also equals half
    the real-tangent evaluation metric(z, (u,ubar), (u,ubar)).  Arrays
    of points and of directions of one shape give the array of values.
    """
    u = np.asarray(u, dtype=complex)
    zero = np.zeros_like(u)
    return metric(z, TangentVector(u, zero), TangentVector(zero, u)).real


def connection(z, X, Y):
    """Christoffel correction k_z(<z|X> Y + <z|Y> X) for holomorphic fields.

    Symmetric in X and Y, zero at the origin.  Compatibility with the
    metric takes the form  d_X^hol h(U,V) = h(connection(z,X,U), V)  for
    constant fields, which the tests check by finite differences.
    """
    X = np.asarray(X, dtype=complex)
    Y = np.asarray(Y, dtype=complex)
    k = k_factor(z)
    return k * (np.vdot(z.vector, X) * Y + np.vdot(z.vector, Y) * X)


def _distance_parts(u, v):
    """m, s and the stored rim gaps 1 - ||u||^2, 1 - ||v||^2.

    s^2 is summed as (1/2)[(du + dv)||w||^2 + |<u|w>|^2 + |<v|w>|^2] with
    w = u - v: every term is non-negative, so nothing cancels for nearby
    points, and swapping u and v swaps two terms of one exact sum.
    """
    w = u.vector - v.vector
    c = complex(np.vdot(u.vector, v.vector))
    m = abs(1.0 - c)
    du, dv = u.gap, v.gap
    s_sq = (du + dv) * float(np.vdot(w, w).real) + (
        abs(np.vdot(u.vector, w)) ** 2 + abs(np.vdot(v.vector, w)) ** 2
    )
    return m, math.sqrt(0.5 * s_sq), du, dv


def distance(u, v):
    """Geodesic distance between interior points (logarithm form).

    m - s is taken as (1-||u||^2)(1-||v||^2) / (m + s), which does not
    cancel near the rim, and (m+s)/(m-s) = 1 + 2s/(m-s) goes through log1p.
    """
    if u.dim != v.dim:
        raise DomainError("points of different dimension")
    m, s, du, dv = _distance_parts(u, v)
    den = du * dv / (m + s)
    return 0.5 * math.log1p(2.0 * s / den)


def tanh_distance(u, v):
    """tanh of the distance, evaluated by its own closed formula s/m
    with m = |1 - <u|v>|; used as an independent cross-check of
    `distance`."""
    if u.dim != v.dim:
        raise DomainError("points of different dimension")
    m, s, _, _ = _distance_parts(u, v)
    return s / m


def geodesic_from_origin(z, t):
    """Point at parameter t on the radial geodesic from 0 to z."""
    if not 0.0 <= t <= 1.0:
        raise DomainError(f"geodesic parameter must lie in [0, 1], got {t}")
    return BallPoint(t * z.vector)


def curve_length(samples):
    """Length of a discretized curve by composite midpoint quadrature.

    Velocities are central differences across each interval (exact at the
    interval midpoint to second order); the integrand is the hermitian
    line element.  Converges at second order in the sample spacing.
    """
    if len(samples) < 2:
        raise DomainError("a curve needs at least 2 samples")
    Z = np.stack([p.vector for p in samples])
    n = Z.shape[0]
    dt = 1.0 / (n - 1)
    mids = 0.5 * (Z[1:] + Z[:-1])
    vels = (Z[1:] - Z[:-1]) / dt
    return float(np.sum(np.sqrt(hermitian_energy(mids, vels))) * dt)


# The curvature probe's stencil: the chart point w = 0, then the four
# axis steps of spacing 1 and of spacing 1/2, in units of its step.
_STENCIL = np.array([0.0, 1.0, -1.0, 1j, -1j, 0.5, -0.5, 0.5j, -0.5j])


def sectional_curvature_probe(z, u):
    """Numerical Gaussian curvature of the holomorphic section through z
    along the direction u; returns a value near the constant -2.

    The affine complex line w -> z + w u is totally geodesic, so the
    curvature of the metric it induces is the holomorphic sectional
    curvature at z.  With lambda(w) the real-tangent (doubled) metric of
    the unit direction u/||u|| at z + w u, that curvature is
    -(1/(2 lambda)) Laplacian(log lambda) at w = 0.  The Laplacian is the
    5-point stencil at spacings h and h/2, with h = 4e-3 (1 - ||z||^2)
    from the point's rim gap, combined by one Richardson step.  The
    defect reads about 1e-9 for ||z|| <= 0.9 and grows toward the rim,
    where the rounding of z + w u grows against h (4.4e-6 at
    ||z|| = 0.999); within about 1% of the margin a stencil point falls
    outside the ball and raises DomainError.

    Arrays of points and of directions of one shape give the array of
    curvatures over their leading axes.
    """
    p = _point(z)
    Z = p.vector
    U = np.array(u, dtype=complex, ndmin=1)
    if U.shape != Z.shape:
        raise DomainError(f"need points and directions of one shape, got {Z.shape} and {U.shape}")
    if not (np.isfinite(U).all() and U.any(axis=-1).all()):
        raise DomainError("curvature probe needs finite nonzero directions")
    U = _pow2_scaled(U)[0]
    U = U / np.linalg.norm(U, axis=-1)[..., None]

    # lambda at the stencil's nine chart points, one row per point
    h = 4e-3 * np.asarray(p.gap)
    w = _STENCIL.reshape((9,) + (1,) * Z.ndim) * h[..., None]
    D = np.broadcast_to(U, (9,) + U.shape)
    s = TangentVector.real(D)
    lam = metric(Z + w * D, s, s).real
    if not (lam > 0.0).all():
        raise DomainError("the metric is not positive along the probed line")
    f = np.log(lam)
    coarse = (f[1] + f[2] + f[3] + f[4] - 4.0 * f[0]) / (h * h)
    fine = (f[5] + f[6] + f[7] + f[8] - 4.0 * f[0]) / (0.25 * h * h)
    return _result(-(4.0 * fine - coarse) / (6.0 * lam[0]))


def recover_inner_product(u, v):
    """Rebuild <u|v> for equal-norm points from distances alone.

    For ||w|| = ||u|| the quantity M(w) = (1 - tanh^2 d(u,0)) cosh d(w,v)
    equals |1 - <w|v>|, by the distance formula together with
    m^2 - s^2 = (1-||w||^2)(1-||v||^2).  Probing with the four rotates
    +-u, +-iu of the base point turns the moduli into linear data:

        Re<u|v> = (M(-u)^2 - M(u)^2) / 4,
        Im<u|v> = (M(-iu)^2 - M(iu)^2) / 4,

    since |1 + c|^2 - |1 - c|^2 = 4 Re c and <iu|v> = -i<u|v>.  Only
    distances enter; the norm itself comes from d(u, 0).
    """
    if u.dim != v.dim:
        raise DomainError("points of different dimension")
    nu, nv = u.norm(), v.norm()
    if nu == 0.0:
        raise DomainError("recovery needs a nonzero base point")
    if abs(nu - nv) > NORM_MATCH_TOL:
        raise DomainError(
            f"recovery needs equal norms; got {nu:.17g} and {nv:.17g}"
        )
    o = origin(u.dim)
    fac = 1.0 - math.tanh(distance(u, o)) ** 2

    def m_sq(w):
        return (fac * math.cosh(distance(w, v))) ** 2

    re = (m_sq(BallPoint(-u.vector, _owned=True)) - m_sq(u)) / 4.0
    im = (m_sq(BallPoint(-1j * u.vector, _owned=True)) - m_sq(BallPoint(1j * u.vector, _owned=True))) / 4.0
    return complex(re, im)
