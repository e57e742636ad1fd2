"""The function algebra of the ball.

Every admissible observable-like function is represented by an extended
operator C through

    f_C(z) = <zhat | C zhat> / (1 - ||z||^2),    zhat = (z, 1),

and the representation is faithful.  The noncommutative product is

    (f * l)(z) = f(z) l(z) - (df)(grad l),

whose operator form is simply C eps C' (so the product of two
representable functions is representable).  eps itself represents the
constant function 1 and is the unit.  The derivative term carries the
coefficient `geometry.HBAR` = 2/CURVATURE = -1, pinned by the ball's
curvature -2 through c = 2/hbar.

Norms: the invariant norm of f_C equals the operator norm of C, and
`norm_b` reads it off the SVD.  Its supremand at a pair (z, lambda)
reduces algebraically to the Rayleigh quotient
||C (-z, lambda)|| / ||(-z, lambda)|| (conjugating the chain
t_lambda * conj(f) * h * f * t_lambda collapses eps I eps = I and leaves
D C*C D with D = diag(-I, lambda)), so the top right singular vector of
C is a witness (z, lambda).  `norm_s` and `norm_d` read one cone norm,
the supremum of ||C (z, 1)|| / ||(z, 1)||, by two routes: the shifted
chain conj(f) * h * f has operator C* eps I eps C = C*C, so `norm_d`
reads the chain where `norm_s` reads the quotient, at the same argmax.
By the S-lemma the cone norm squared is the minimum over mu >= 0 of
lambda_max(C*C + mu eps), and the top eigenvector at the minimum points
at the argmax, on the rim where mu > 0.  The search pulls that point
into ||z|| <= MAX_RADIUS and polishes it on the reduced quotient; along
one real coordinate of z, xi moves on a line, where the quotient
squared is a ratio of two real quadratics, and the polish's
golden-section search reads that ratio in plain floats, each step it
takes confirmed by the literal quotient.  Every estimate carries an
upper bound on its supremum: ||C||_2 for b, the dual's value for s and
d.  Every estimator re-evaluates its argmax once through the
function-level star chain; the two routes are required to agree.  Each
estimator reads C scaled to unit size (`numerics`) and scales its
1-homogeneous values back, so the norm of 2^k C is exactly 2^k times
C's wherever it is a float.

The kernels from `evaluate` to `kahler_condition_check` take arrays of
operators and of points over any leading axes as well as single objects,
with one formula body for both (see `geometry`).  Values past the float
range, scaling and broadcasting follow the rules of `numerics`.
"""

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import DomainError
from .geometry import HBAR, BallPoint, TangentVector, _dots, _matvec, _point, _result, kahler_form, metric
from .isometries import (ExtendedOperator, _matrices, _operands, _residual_norm, _verdict, epsilon_matrix,
                         epsilon_operator)
from .numerics import _broadcast, _finite, _guard, _pow2_scaled, golden_max

# on ||C - C*||, or the rounding 1024 eps rho(C) where larger (`is_self_adjoint`)
SELF_ADJOINT_TOL = 1e-12

MAX_RADIUS = 1.0 - 1e-6
REFINE_STEPS = 50
GOLDEN_ITERS = 40
DUAL_STEPS = 200
FD_DIRECTIONS = 8


def unit(dim):
    """The algebra unit: eps represents the constant function 1."""
    return epsilon_operator(dim)


def extended_point(z):
    """zhat = (z, 1) in C^n + C; for a stack of points, the array of
    their zhat."""
    z = _point(z).vector
    zh = np.empty(z.shape[:-1] + (z.shape[-1] + 1,), dtype=complex)
    zh[..., :-1] = z
    zh[..., -1] = 1.0
    return zh


def _form(C, zh):
    """<zhat|C zhat> over the leading axes."""
    return _dots(zh, _matvec(C, zh))


@_guard("f_C")
def evaluate(C, z):
    """f_C(z) through the compact form k_z <zhat|C zhat>.

    C may also be an array of (n+1) x (n+1) matrices and z an array of
    points along its last axis; their leading axes broadcast, and the
    result is the complex array of values.  One point outside the ball,
    or one value past the float range, raises DomainError.
    """
    C, _, p = _operands(C, z)
    return _result(np.divide(1.0, p.gap) * _form(C, extended_point(p)))


@_guard("f_C")
def evaluate_blocks(C, z):
    """f_C(z) through the expanded block formula
    (a + <y|z> + <z|x> + <z|Az>) k_z; agrees with `evaluate` to roundoff.
    Arrays of matrices and of points broadcast as in `evaluate`."""
    C, n, p = _operands(C, z)
    Z = p.vector
    # the bottom row stores conj(y)
    A, x, yc, a = C[..., :n, :n], C[..., :n, n], C[..., n, :n], C[..., n, n]
    return _result((a + _dots(yc.conj(), Z) + _dots(Z, x) + _dots(Z, _matvec(A, Z))) * np.divide(1.0, p.gap))


@_guard("f_C")
def holo_differential(C, z):
    """Components w of the holomorphic differential of f_C at z.

    The action on a holomorphic tangent u is the plain dot product w . u:
    (df)(u) = k <zhat|C(u,0)> + k^2 <zhat|C zhat><z|u>.  Arrays of
    matrices and of points broadcast over their leading axes as in
    `evaluate`, giving the array of differentials.
    """
    C, n, p = _operands(C, z)
    zh = extended_point(p)
    k = np.divide(1.0, p.gap)[..., None]
    row = (zh.conj()[..., None, :] @ C)[..., 0, :n]
    return k * row + (k * k) * _form(C, zh)[..., None] * p.vector.conj()


@_guard("f_C")
def gradient(C, z):
    """grad f_C = E_1 C zhat + <e_2|C zhat> z, a holomorphic vector; the
    array of them for arrays of matrices and points, as in `evaluate`."""
    return _gradient(*_operands(C, z))


def _gradient(C, n, p):
    """`gradient` on validated operands."""
    czh = _matvec(C, extended_point(p))
    return czh[..., :n] + czh[..., n, None] * p.vector


@_guard("f_C")
def hamiltonian_field(C, z):
    """Complexified Hamiltonian vector field of f_C.

    Holomorphic part -i grad f_C; antiholomorphic part the conjugate of
    -i grad f_{C*}.  For self-adjoint C this is the real field
    sgrad f + conj(sgrad f); the general form is the complex-bilinear
    extension in C, which is what makes the bracket below bilinear.
    Arrays broadcast as in `evaluate` and give arrays of fields.
    """
    C, n, p = _operands(C, z)
    # C* stored contiguously: the products of a transposed view round apart
    adjoint = np.ascontiguousarray(C.conj().swapaxes(-1, -2))
    return TangentVector(-1j * _gradient(C, n, p), -1j * _gradient(adjoint, n, p))


@_guard("f_C")
def poisson_bracket(C, Cp, z):
    """{f_C, f_C'} as the fundamental form on the two Hamiltonian fields;
    arrays broadcast as in `evaluate`."""
    p = _point(z)
    return kahler_form.__wrapped__(p, hamiltonian_field.__wrapped__(C, p), hamiltonian_field.__wrapped__(Cp, p))


@_guard("f_C")
def star_pointwise(C, Cp, z):
    """(f_C * f_C')(z) = f_C(z) f_C'(z) + HBAR (df_C)(grad f_C'), HBAR = -1.

    Arrays of matrices and of points broadcast as in `evaluate` and give
    the complex array of values."""
    p = _point(z)
    df, grad = holo_differential.__wrapped__(C, p), gradient.__wrapped__(Cp, p)
    _broadcast(df.shape[:-1], grad.shape[:-1])
    correction = _dots(df.conj(), grad)
    f, fp = evaluate.__wrapped__(C, p), evaluate.__wrapped__(Cp, p)
    # np.multiply, not *, as in `metric`: f f' rounds as in a stack's row
    return _result(np.multiply(f, fp) + HBAR * correction)


@_guard("the product")
def star_operator(C, Cp):
    """Operator form of the product: C eps C'.  Two arrays of matrices
    broadcast over their leading axes and give the array of products."""
    M, n = _matrices(C)
    Mp, m = _matrices(Cp)
    if n != m:
        raise DomainError("operator dimensions differ")
    _broadcast(M.shape[:-2], Mp.shape[:-2])
    P = M @ epsilon_matrix(n) @ Mp
    single = isinstance(C, ExtendedOperator) or isinstance(Cp, ExtendedOperator)
    # a product past the float range is left bare for the guard to name
    return ExtendedOperator(P, _owned=True) if single and P.ndim == 2 and np.isfinite(P).all() else P


@_guard("the residual")
def is_self_adjoint(C):
    """Whether ||C - C*|| <= max(SELF_ADJOINT_TOL, 1024 eps rho(C)), by the
    rule of the group checks (`isometries._verdict`); ||C - C*|| is read as
    the norm of i(C - C*), which is exactly Hermitian in floating point."""
    M, _ = _matrices(C)
    residual = _residual_norm(1j * (M - M.conj().swapaxes(-1, -2)))
    return _verdict(residual, M, 1, SELF_ADJOINT_TOL)


@_guard("f_C")
def dispersion(C, z):
    """Dispersion sqrt(g(Idf, Idf)/2) of the observable f_C at z.

    Only defined for self-adjoint C (real-valued functions), each operator
    of an array; arrays broadcast as in `evaluate`."""
    if not np.all(is_self_adjoint.__wrapped__(C).ok):
        raise DomainError("dispersion needs a self-adjoint operator")
    p = _point(z)
    field = hamiltonian_field.__wrapped__(C, p)
    val = 0.5 * abs(HBAR) * metric.__wrapped__(p, field, field).real
    return _result(np.sqrt(np.maximum(val, 0.0)))


# The stencil of the second Wirtinger derivatives in units of the step:
# the centre, then the axis steps and the diagonal steps.
_WIRTINGER = np.array([0.0, 1.0, -1.0, 1j, -1j, 1 + 1j, 1 - 1j, -1 + 1j, -1 - 1j])


def second_degree_defect(fn, z, h, directions):
    """Largest |d^2 g| or |dbar^2 g| at s = 0 of g(s) = fn(z + s u), u over
    the rows of the (k, n) array `directions`, by central differences of
    step h, one step or one per point of z.  `fn` maps an array of points
    to its values and is called once, on all (9, k, ..., n) stencil
    points; the result is the array of defects over z's leading axes."""
    z, U, h = np.asarray(z, dtype=complex), np.asarray(directions, dtype=complex), np.asarray(h)
    w = _WIRTINGER.reshape((9, 1) + (1,) * z.ndim) * h[..., None]
    g = fn(z + w * U.reshape(U.shape[:1] + (1,) * (z.ndim - 1) + U.shape[1:]))
    gxx = (g[1] - 2.0 * g[0] + g[2]) / (h * h)
    gyy = (g[3] - 2.0 * g[0] + g[4]) / (h * h)
    gxy = (g[5] - g[6] - g[7] + g[8]) / (4.0 * h * h)
    hol, anti = 0.25 * (gxx - gyy - 2j * gxy), 0.25 * (gxx - gyy + 2j * gxy)
    return _result(np.maximum(np.abs(hol), np.abs(anti)).max(axis=0))


def kahler_condition_check(C, z):
    """Defect of the degree-(1,1) property of (1 - ||z||^2) f_C.

    The rescaled function is exactly a + <y|z> + <z|x> + <z|Az>, so both
    pure second derivatives vanish identically and the stencil has no
    truncation error: the defect, taken along FD_DIRECTIONS fixed
    directions, is rounding divided by the step squared.  So the step is
    as large as the ball allows, h = min(0.05, (1 - ||z||)/2), which keeps
    every stencil point inside; the defect then stays within
    16 eps max|C_jk| / h^2: the worst of the tests' 50 draws at dim 4
    reads 3e-13 at ||z|| = 0.85, 3e-11 at 0.99, 4e-9 at 0.999, 2e-3 at
    1 - 1e-6 and 3e5 at 1 - 1e-10.  Arrays broadcast as in `evaluate`,
    and one `evaluate` call reads every stencil point.
    """
    C, n, p = _operands(C, z)
    Z = np.broadcast_to(p.vector, _broadcast(C.shape[:-2], p.vector.shape[:-1]) + (n,))
    D = np.random.default_rng(0xD1F).standard_normal((FD_DIRECTIONS, 2, n))
    U = D[:, 0] + 1j * D[:, 1]
    h = np.minimum(0.05, 0.5 * (1.0 - np.linalg.norm(Z, axis=-1)))
    return second_degree_defect(lambda W: evaluate(C, P := BallPoint(W)) * P.gap, Z, h,
                                U / np.linalg.norm(U, axis=-1)[:, None])


@_guard("the fit")
def fit_operator(points, values):
    """Least-squares recovery of C from samples of f_C.

    `points` is a (..., P, n) array of P points per fit and `values` the
    (..., P) array of f_C at them; the result is the (..., n+1, n+1)
    array of the fitted matrices, one per leading index.  Each sample
    contributes one linear equation
    (1 - ||z||^2) f(z) = sum_jk conj(zhat_j) C_jk zhat_k in the (n+1)^2
    entries of C, so at least (n+1)^2 points are needed; fewer raise
    DomainError.  Generic points determine C once there are enough of
    them, and the system is solved through its QR factorization.
    """
    p = _point(points)
    Z = p.vector
    b = np.asarray(values, dtype=complex)
    d = Z.shape[-1] + 1
    if Z.ndim < 2 or b.shape != Z.shape[:-1]:
        raise DomainError(f"need one value per point, got {b.shape} for points {Z.shape}")
    if Z.shape[-2] < d * d:
        raise DomainError(f"fitting (n+1)^2 = {d * d} entries needs as many points, got {Z.shape[-2]}")
    zh = extended_point(p)
    rows = (zh.conj()[..., :, None] * zh[..., None, :]).reshape(Z.shape[:-1] + (d * d,))
    rhs = b * p.gap
    Q, R = np.linalg.qr(rows)
    sol = np.linalg.solve(R, (Q.conj().swapaxes(-1, -2) @ rhs[..., None]))[..., 0]
    return sol.reshape(sol.shape[:-1] + (d, d))


# ---------------------------------------------------------------------------
# Norm estimation.
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class NormEstimate:
    """An estimator's value, its witness z and lambda (None for the cone
    norms), and an upper bound, to roundoff, on the supremum it reads:
    ||C||_2 for b, the S-lemma dual's value for s and d."""
    value: float
    argmax_z: np.ndarray
    argmax_lambda: Optional[float]
    bound: float


def scale_operator(dim, lam):
    """t_lambda's representing operator diag(I, lambda)."""
    n = dim
    m = np.eye(n + 1, dtype=complex)
    m[n, n] = lam
    # lam is the one entry not made here
    if not _finite(m[n, n]):
        raise DomainError("matrix has non-finite entries")
    return ExtendedOperator(m, _owned=True)


def invariant_supremand_chain(C, zvec, lam):
    """|t_{lambda^2}(z)^{-1} (t_lambda * conj(f) * h * f * t_lambda)(z)|^(1/2)
    evaluated literally through star products at function level."""
    z = BallPoint(zvec)
    n = C.dim
    tl = scale_operator(n, lam)
    ident = ExtendedOperator.identity(n)
    chain = star_operator(tl, star_operator(C.adjoint(), star_operator(ident, star_operator(C, tl))))
    denom = evaluate(scale_operator(n, lam * lam), z)
    num = evaluate(chain, z)
    if abs(denom) == 0.0:
        return 0.0
    return math.sqrt(abs(num) / abs(denom))


def invariant_supremand(C, zvec, lam):
    """The reduced Rayleigh form ||C (-z, lambda)|| / ||(-z, lambda)||."""
    xi = np.concatenate([-np.asarray(zvec, dtype=complex), [lam]])
    nx = np.linalg.norm(xi)
    if nx < 1e-10:
        return 0.0
    return float(np.linalg.norm(C.matrix @ xi) / nx)


def cone_supremand(C, zvec):
    """||C (z, 1)|| / ||(z, 1)||, the cone-restricted quotient."""
    xi = np.concatenate([np.asarray(zvec, dtype=complex), [1.0]])
    return float(np.linalg.norm(C.matrix @ xi) / np.linalg.norm(xi))


def shifted_supremand_chain(C, zvec):
    """|h(z)^{-1} (conj(f) * h * f)(z)|^(1/2) through star products."""
    z = BallPoint(zvec)
    ident = ExtendedOperator.identity(C.dim)
    chain = star_operator(C.adjoint(), star_operator(ident, C))
    denom = evaluate(ident, z)
    return math.sqrt(abs(evaluate(chain, z)) / abs(denom))


def _line_quotient(matrix, xi, k, unit):
    """The cone quotient ||M xi'|| / ||xi'|| on the real line
    xi' = xi_b + x d, d = unit e_k, where xi_b is xi without the part of
    its entry k along the complex unit `unit`: a plain-float function of x.

    Since d is orthogonal to xi_b in the real inner product, the quotient
    is sqrt((a0 + a1 x + a2 x^2) / (b0 + x^2)) with a0 = ||M xi_b||^2,
    a1 = 2 Re<M xi_b|M d>, a2 = ||M d||^2 and b0 = ||xi_b||^2 >= 1 (the
    last entry of xi = (z, 1) is 1).  It is 0 where the numerator rounds
    to zero or below.
    """
    xb = xi.copy()
    xb[k] -= unit * (unit.conjugate() * xb[k]).real
    mb, md = matrix @ xb, unit * matrix[:, k]
    a0, a1 = float(np.vdot(mb, mb).real), 2.0 * float(np.vdot(mb, md).real)
    a2, b0 = float(np.vdot(md, md).real), float(np.vdot(xb, xb).real)

    def quotient(x):
        num = a0 + x * (a1 + a2 * x)
        return math.sqrt(num / (b0 + x * x)) if num > 0.0 else 0.0

    return quotient


def _refine(scalar_fn, zvec, lam, best_val, matrix):
    """Coordinate-wise golden-section ascent from the dual's argmax.

    Each step moves one real coordinate of z, and so moves xi = (z, 1)
    along a line, where the quotient ||C xi|| / ||xi|| is the quotient of
    two real quadratics in that coordinate (`_line_quotient`, C being
    `matrix`).  Golden-section maximises it in plain floats; the step is
    taken only if `scalar_fn`, the literal cone quotient, beats the
    current value there, so the value returned is `best_val` or
    `scalar_fn` at the point returned.  `lam` is returned as given: the
    cone has no lambda, and the (z, lam, val) shape is what perfbench's
    tracer reads.

    The ascent ends early once 2n steps in a row are rejected: every
    coordinate has then been tried from the current point, and each
    later step would repeat one of those evaluations on identical
    inputs, so the result is bit-identical to running all REFINE_STEPS.
    """
    n = zvec.size
    coords = np.concatenate([zvec.real, zvec.imag])
    val = best_val
    rejected = 0
    for step in range(REFINE_STEPS):
        if rejected == 2 * n:
            break
        c = step % (2 * n)
        xi = np.append(coords[:n] + 1j * coords[n:], 1.0)
        rest = float(np.sum(coords ** 2) - coords[c] ** 2)
        half = math.sqrt(max(MAX_RADIUS ** 2 - rest, 0.0))
        x, fx = golden_max(_line_quotient(matrix, xi, c % n, 1j if c >= n else 1.0),
                           -half, half, GOLDEN_ITERS)
        rejected += 1
        if fx <= val:
            continue
        moved = coords.copy()
        moved[c] = x
        literal = scalar_fn(moved[:n] + 1j * moved[n:])
        if literal > val:
            coords, val, rejected = moved, literal, 0
    return coords[:n] + 1j * coords[n:], lam, val


def _check_routes(val, chain_val):
    """Raise unless the function-level star chain reproduces the reduced
    value to 1e-8 relative."""
    if abs(chain_val - val) > 1e-8 * (1.0 + val):
        raise RuntimeError(
            f"supremand routes disagree: chain {chain_val:.17g} vs reduced {val:.17g}"
        )


def _unscaled(value, e):
    """2^e value, a norm of C from that of 2^-e C; DomainError where
    it exceeds the float range."""
    try:
        return math.ldexp(value, int(e))
    except OverflowError:
        raise DomainError("the norm exceeds the float range") from None


def _cone_dual(G):
    """The S-lemma dual of the cone norm of C, G = C*C:
    phi(mu) = lambda_max(G + mu eps) bounds sup ||C xi||^2 / ||xi||^2 over
    the cone xi* eps xi >= 0 for every mu >= 0, and its minimum equals it.
    phi is convex with slope s(mu) = xi* eps xi at its top unit eigenvector
    xi, so mu* = 0 where s(0) >= 0 (the supremum is interior), and
    otherwise s changes sign at mu*.  The root of s is bracketed from
    [0, 2 phi(0)] by Illinois regula falsi, which converges superlinearly
    where s is smooth and narrows a jump of s, at a repeated top
    eigenvalue, like bisection.  As |s| <= 1, phi at the upper end exceeds
    the minimum by at most the bracket's width; the search stops once that
    is a rounding of phi, or after DUAL_STEPS steps.  Returns (phi, xi) at
    the upper end, where xi lies in the cone."""
    eps = epsilon_matrix(len(G) - 1)

    def top(mu):
        w, V = np.linalg.eigh(G + mu * eps)
        return w[-1], V[:, -1], 2.0 * abs(V[-1, -1]) ** 2 - 1.0

    phi, xi, s = top(0.0)
    if s >= 0.0:
        return phi, xi
    lo, s_lo, hi, side = 0.0, s, 2.0 * phi, 0
    phi, xi, s_hi = top(hi)
    for _ in range(DUAL_STEPS):
        if hi - lo <= np.finfo(float).eps * phi:
            break
        mu = hi - s_hi * (hi - lo) / (s_hi - s_lo)
        p, x, s = top(mu)
        # Illinois: an end kept twice running has its slope halved
        if s >= 0.0:
            hi, phi, xi, s_hi, s_lo, side = mu, p, x, s, s_lo * (0.5 if side > 0 else 1.0), 1
        else:
            lo, s_lo, s_hi, side = mu, s, s_hi * (0.5 if side < 0 else 1.0), -1
    return phi, xi


def _search(C):
    """The cone norm's argmax from its S-lemma dual (`_cone_dual`): z =
    xi[:n] / xi_n, for xi the top eigenvector at the dual's upper bracket
    end, pulled radially into ||z|| <= MAX_RADIUS, polished with
    `_refine` (which carries a start inside the ball, as at a repeated
    top eigenvalue, out to the rim), and re-evaluated once through the
    shifted star chain, which must agree.  At a rim argmax the squared
    quotient's slope along the ray is at most its value, so the pull
    costs the quotient at most (1 - MAX_RADIUS) / 2 relative, to first
    order.  Returns the estimates of s and d, read on C scaled to unit
    size and scaled back, with sqrt(phi) at the upper end as their
    bound."""
    M, e = _pow2_scaled(C.matrix, (-2, -1))
    S = ExtendedOperator(M, _owned=True)
    phi, xi = _cone_dual(M.conj().T @ M)
    z = xi[:-1] / xi[-1]
    z *= MAX_RADIUS / max(float(np.linalg.norm(z)), MAX_RADIUS)
    z, _, val = _refine(lambda zv: cone_supremand(S, zv), z, None, cone_supremand(S, z), M)
    val, chain_val = _unscaled(val, e), _unscaled(shifted_supremand_chain(S, z), e)
    _check_routes(val, chain_val)
    bound = _unscaled(math.sqrt(phi), e)
    return NormEstimate(val, z, None, bound), NormEstimate(chain_val, z, None, bound)


def norm_b_estimate(C):
    """The invariant norm of f_C, exactly: the supremand over (z, lambda)
    is the Rayleigh quotient at xi = (-z, lambda), so its supremum is
    ||C||_2, attained along the top right singular vector v of C.  With
    v's phase turned so that v_n >= 0 and v scaled so that
    max(2 ||v[:n]||, v_n) = 1, the witness is z = -v[:n] (inside the
    ball, ||z|| <= 1/2) and lambda = v_n; the value is the reduced
    quotient there, checked once against the star chain.  Both are read
    on C scaled to unit size."""
    M, e = _pow2_scaled(C.matrix, (-2, -1))
    S = ExtendedOperator(M, _owned=True)
    n = C.dim
    _, sv, Vh = np.linalg.svd(S.matrix)
    v = Vh[0].conj()
    v = v * np.exp(-1j * np.angle(v[n]))
    lam = abs(v[n])
    scale = max(2.0 * float(np.linalg.norm(v[:n])), lam)
    z, lam = -v[:n] / scale, lam / scale
    val = _unscaled(invariant_supremand(S, z, lam), e)
    _check_routes(val, _unscaled(invariant_supremand_chain(S, z, lam), e))
    return NormEstimate(val, z, lam, _unscaled(float(sv[0]), e))


def norm_s_estimate(C):
    """The cone norm, sup ||C (z,1)||/||(z,1)|| over the ball, read through
    the reduced quotient at the argmax of `_search`, with the dual's
    upper bound."""
    return _search(C)[0]


def norm_d_estimate(C):
    """The same cone norm read through the star chain
    |h(z)^{-1} (conj(f) * h * f)(z)|^(1/2) at the argmax of norm_s."""
    return _search(C)[1]


def norm_b(C):
    return norm_b_estimate(C).value


def norm_s(C):
    return norm_s_estimate(C).value


def norm_d(C):
    return norm_d_estimate(C).value


def _unit_and_projection(dim):
    """e_0 of C^dim and the rank-one projection onto it, the shared data
    of the two witnesses below."""
    E = np.zeros((dim, dim), dtype=complex)
    E[0, 0] = 1.0
    return E[0], E


def submultiplicativity_witnesses(dim):
    """A rank-one pair whose product breaks the Banach inequality for the
    cone-restricted norm by a factor sqrt(2).

    The first operator has the projection onto e_0 as its A block; the
    second holds e_0 in the upper-right slot.
    """
    v, E = _unit_and_projection(dim)
    first = ExtendedOperator.from_blocks(E, np.zeros(dim), np.zeros(dim), 0.0)
    second = ExtendedOperator.from_blocks(np.zeros((dim, dim)), v, np.zeros(dim), 0.0)
    return first, second


def involution_failure_operator(dim):
    """The rank-one operator with A-block E, the projection onto e_0, and
    lower-left e_0: its plain square has norm 2 while its eps-twisted
    square is zero."""
    v, E = _unit_and_projection(dim)
    return ExtendedOperator.from_blocks(E, np.zeros(dim), v, 0.0)
