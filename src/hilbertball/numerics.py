"""Dense complex linear algebra and numerical helpers.

Everything here is deliberately small-scale: matrices are at most a few
dozen entries.  Operator norms come from one `eigvalsh` call, in
`hermitian_norm`: a Hermitian matrix's norm is its largest
|eigenvalue|, and any other matrix's (`op_norm`) is the square root of
the norm of its Gram matrix, formed after the scaling rule below.  Both
are accurate to about n eps relative.  The matrix exponential (one
scaling by a power of two, a degree-18 Taylor polynomial summed by
Paterson-Stockmeyer in 7 matrix products, then squaring) and the
golden-section search are small deterministic routines written out
here.  A real-linear map of C^n, such as a projection onto a real
subspace, is the complex pair (A, B) of w = A z + B conj(z), which stacks
over leading axes like the other kernels.  All functions are pure.

Three rules at the edge of the domain live here, once for the package.
Float range: a kernel decorated with `_guard` runs with numpy's overflow
and invalid warnings off and raises one DomainError, "<what> overflowed
the float range in <kernel>", for a non-finite value in its result or in
a dataclass field of it; a kernel built from guarded ones calls their
bodies (`__wrapped__`).  Scaling: `_pow2_scaled` multiplies an input
exactly by 2^-e, e the exponent of its largest |real or imaginary
part|, and the caller scales its answer back by 2^e.  Broadcasting:
`_broadcast` raises DomainError where leading axes do not broadcast as
numpy's do, and makes no numpy call for equal shapes.

Only numpy loads with this module.  scipy is imported inside the two
sampling helpers, `sobol_unit` and `gaussian_directions`, which only the
cone-norm search calls, so no other command pays for its import.
"""

import cmath
import functools
import math

import numpy as np

from .errors import DomainError

# Convergence / validation thresholds.
EXP_TAYLOR_TERMS = 18
# 1/k!, the coefficients of the truncated Taylor series
_TAYLOR = tuple(1.0 / math.factorial(k) for k in range(EXP_TAYLOR_TERMS + 1))
GRAM_TOL = 1e-12


def _as_complex_matrix(M, square=False, stack=False):
    """M as a finite complex matrix, or with `stack` also as an array of
    matrices over leading axes; DomainError otherwise, also for input
    that numpy cannot read as a complex array."""
    try:
        M = np.asarray(M, dtype=complex)
    except (TypeError, ValueError):
        raise DomainError(f"cannot read {type(M).__name__} as a complex matrix") from None
    if M.ndim != 2 and not (stack and M.ndim > 2):
        raise DomainError(f"expected a matrix, got array of ndim {M.ndim}")
    if square and M.shape[-2] != M.shape[-1]:
        raise DomainError(f"expected a square matrix, got shape {M.shape}")
    if not _finite(M):
        raise DomainError("matrix has non-finite entries")
    return M


def _finite(x):
    """Whether x has no inf or nan: a Python number by cmath, else by numpy."""
    if isinstance(x, (int, float, complex)):
        return cmath.isfinite(x)
    return np.count_nonzero(finite := np.isfinite(x)) == finite.size


@functools.lru_cache(maxsize=16)
def _eye(n):
    """The complex n x n identity, read-only and shared by its callers."""
    eye = np.eye(n, dtype=complex)
    eye.setflags(write=False)
    return eye


def _guard(what):
    """Decorator: the float-range rule, `what` naming the kernel's values."""
    def decorate(kernel):
        quiet = np.errstate(over="ignore", invalid="ignore")(kernel)  # no errstate made per call
        @functools.wraps(kernel)
        def guarded(*args, **kwargs):
            value = quiet(*args, **kwargs)
            parts = vars(value).values() if hasattr(value, "__dataclass_fields__") else (value,)
            if not all(map(_finite, parts)):
                raise DomainError(f"{what} overflowed the float range in {kernel.__name__}")
            return value
        return guarded
    return decorate


def _pow2_scaled(x, axes=-1):
    """(2^-e x, e) by the scaling rule over the trailing `axes` of x, one e
    per index of the others; e is 0 where all are 0, where there are none,
    or where one is not finite."""
    v = np.ascontiguousarray(x, dtype=complex).view(float)
    e = np.frexp(np.abs(v).max(axis=axes, keepdims=True, initial=0.0))[1]
    return np.ldexp(v, -e).view(complex), e.squeeze(axis=axes)


def _broadcast(*shapes, what="leading axes"):
    """The shape that `shapes` broadcast to, by the broadcasting rule."""
    if shapes.count(shapes[0]) == len(shapes):
        return shapes[0]
    try:
        return np.broadcast_shapes(*shapes)
    except ValueError:
        raise DomainError(f"{what} {', '.join(map(str, shapes[:-1]))} and {shapes[-1]} do not broadcast") from None


@_guard("the norm")
def op_norm(M):
    """Largest singular value of a complex matrix, as 2^e sqrt(||G||).

    2^-e M is M scaled by the rule, and G its Gram matrix on the smaller
    side, whose norm, its top eigenvalue, `hermitian_norm` reads.  Each
    part of an entry of 2^-e M is below 1 and, unless M = 0, one is at
    least 1/2, so ||G|| lies between 1/4 and 2 m n: nothing overflows,
    and the top eigenvalue is accurate to about n eps relative whatever
    the spectral gap, so the norm agrees with the SVD's to a few eps
    relative, and op_norm(2^k M) is exactly 2^k op_norm(M) where both
    are normal.  An array of matrices over leading axes gives the array
    of their norms.  Non-finite entries and non-matrix input raise
    DomainError; an empty matrix has norm 0.
    """
    M = _as_complex_matrix(M, stack=True)
    N, e = _pow2_scaled(M, (-2, -1))
    Nh = N.conj().swapaxes(-1, -2)
    G = Nh @ N if M.shape[-1] <= M.shape[-2] else N @ Nh
    norm = np.ldexp(np.sqrt(hermitian_norm.__wrapped__(G)), e)
    return float(norm) if M.ndim == 2 else norm


@_guard("the norm")
def hermitian_norm(H):
    """Operator norm max(-lambda_min, lambda_max) of a Hermitian matrix,
    from one `eigvalsh`, which reads the lower triangle only; the array
    of them for a stack over leading axes.

    The caller guarantees H = H*: the defects that go through here are
    Hermitian for every input, not only at their zero.  Non-finite
    entries and a norm past the float range raise DomainError, as in
    `op_norm`; an empty matrix has norm 0.
    """
    H = _as_complex_matrix(H, square=True, stack=True)
    if H.size == 0:
        return np.zeros(H.shape[:-2]) if H.ndim > 2 else 0.0
    lam = np.linalg.eigvalsh(H)
    norm = np.maximum(-lam[..., 0], lam[..., -1])
    return float(norm) if H.ndim == 2 else norm


@_guard("exp(tX)")
def mat_exp(X, t=1.0):
    """exp(t X) by scaling-and-squaring with an 18-term Taylor kernel.

    t X is scaled by 2^-s, s the fewest halvings that bring its infinity
    norm to at most 0.5, where the truncated series is accurate to well
    below double roundoff, then the result is squared s times.  The
    times t and the generators X broadcast over their leading axes (the
    broadcasting rule), so an array of times with one matrix gives one
    exponential per time, and arrays of both pair them as numpy does.
    Each matrix gets its own s and is scaled by one `ldexp`, the stack
    is summed in one Taylor pass, and round r of squaring takes the
    matrices whose s is at least r, so every slice equals the single
    call's result bit for bit.  The scaling is exact unless it takes an
    entry below 2^-1022, where the entry rounds once to the subnormal
    grid.
    """
    X = _as_complex_matrix(X, square=True, stack=True)
    times = _as_times(t)
    lead = _broadcast(times.shape, X.shape[:-2], what="shapes of t and X")
    M = (times[..., None, None] * X).reshape((-1,) + X.shape[-2:])
    # the halvings count is the smallest s >= 0 with nrm / 2^s <= 1/2: for
    # nrm = f 2^e, f in [1/2, 1), that is e when f = 1/2 and e + 1
    # otherwise, clipped at 0 (frexp gives f = e = 0 for nrm = 0)
    f, e = np.frexp(np.linalg.norm(M, np.inf, axis=(1, 2)))
    counts = np.maximum(e + (f > 0.5), 0)
    if not counts.any():  # no halving, no squaring: nothing to sort
        return _taylor(M).reshape(lead + X.shape[-2:])
    # most halvings first, so the matrices still being squared at round r
    # are the leading sizes[r - 1] of the stack, the number whose count is
    # at least r
    order = np.argsort(-counts, kind="stable")
    sizes = np.cumsum(np.bincount(counts)[:0:-1])[::-1].tolist()
    R = _taylor(np.ldexp(M[order].view(float), -counts[order, None, None]).view(complex))
    for size in sizes:
        R[:size] = R[:size] @ R[:size]
    return R[np.argsort(order)].reshape(lead + X.shape[-2:])


def _as_times(t):
    """t as an array of finite real times; DomainError otherwise."""
    times = np.asarray(t)
    if times.dtype.kind not in "biuf":
        raise DomainError(f"time parameter must be real, got {times.dtype}")
    if not np.isfinite(times).all():
        raise DomainError("non-finite time parameter")
    return times


def _taylor(M):
    """The degree-EXP_TAYLOR_TERMS Taylor polynomial sum_k M^k / k! of a
    stack of matrices, summed by Paterson-Stockmeyer.

    The polynomial is split into chunks B_j = sum_{i<4} c_{4j+i} M^i in
    the powers M, M^2, M^3, and the chunks are combined by Horner's rule
    in M^4: B_0 + M^4 (B_1 + M^4 (B_2 + ...)).  That takes 7 matrix
    products where Horner's rule in M takes 18.  Each chunk is summed from
    its highest power down, which keeps the roundoff of Horner's rule.
    The sums run in place in three arrays the size of M, so a large
    stack allocates none per term.
    """
    M2 = M @ M
    powers = (None, M, M2, M2 @ M)
    M4 = M2 @ M2
    eye = _eye(M.shape[-1])
    B, spare = np.empty_like(M), np.empty_like(M)

    def chunk(j):
        """B_j, summed in B with `spare` as scratch."""
        top = min(3, EXP_TAYLOR_TERMS - 4 * j)
        np.multiply(_TAYLOR[4 * j + top], powers[top], out=B)
        for i in range(top - 1, 0, -1):
            np.add(B, np.multiply(_TAYLOR[4 * j + i], powers[i], out=spare), out=B)
        return np.add(B, _TAYLOR[4 * j] * eye, out=B)

    R = chunk(EXP_TAYLOR_TERMS // 4).copy()
    for j in range(EXP_TAYLOR_TERMS // 4 - 1, -1, -1):
        chunk(j)
        np.add(np.matmul(M4, R, out=spare), B, out=R)
    return R


@_guard("the projection")
def real_projection(basis):
    """Orthogonal projection (w.r.t. Re<.|.>) onto the real span of `basis`,
    as the pair (A, B) = (V V*/2, V V^T/2) of z -> A z + B conj(z).

    `basis` is an (..., n, k) array whose k columns are the frame V of
    C^n; leading axes give the stacks of A and B.  Each frame must be
    orthonormal in the real inner product, Re(V* V) = I; the worst Gram
    defect is reported on rejection.
    """
    V = np.asarray(basis, dtype=complex)
    if V.ndim < 2 or V.shape[-1] == 0:
        raise DomainError(f"a basis needs at least one vector, got shape {V.shape}")
    Vh = V.conj().swapaxes(-1, -2)
    defect = float(np.max(np.abs((Vh @ V).real - np.eye(V.shape[-1])), initial=0.0))
    if not defect <= GRAM_TOL:
        raise DomainError(f"basis is not real-orthonormal (Gram defect {defect:.3e})")
    return 0.5 * (V @ Vh), 0.5 * (V @ V.swapaxes(-1, -2))


# ---------------------------------------------------------------------------
# Supremum-estimation helpers: low-discrepancy candidates plus a scalar
# golden-section line search used coordinate by coordinate.
# ---------------------------------------------------------------------------

INV_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


def sobol_unit(samples, dim, seed):
    """`samples` points of the scrambled Sobol sequence in [0,1)^dim."""
    if samples < 1:
        raise DomainError("samples must be at least 1")
    from scipy.stats import qmc

    sampler = qmc.Sobol(d=dim, scramble=True, seed=seed)
    m = max(1, math.ceil(math.log2(samples)))
    pts = sampler.random_base2(m)
    return pts[:samples]


def gaussian_directions(u):
    """Map uniform variates to standard normals through the inverse CDF."""
    from scipy.special import ndtri

    clipped = np.clip(u, 1e-12, 1.0 - 1e-12)
    return ndtri(clipped)


def golden_max(f, lo, hi, iters=40):
    """Golden-section search for the maximum of f on [lo, hi].

    Returns (argmax, value).  The function is evaluated 2 + iters times;
    no derivative or unimodality certificate is required, the search just
    narrows toward the best bracket.
    """
    a, b = float(lo), float(hi)
    if not b > a:
        x = a
        return x, f(x)
    c = b - INV_GOLDEN * (b - a)
    d = a + INV_GOLDEN * (b - a)
    fc, fd = f(c), f(d)
    for _ in range(iters):
        if fc >= fd:
            b, d, fd = d, c, fc
            c = b - INV_GOLDEN * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + INV_GOLDEN * (b - a)
            fd = f(d)
    if fc >= fd:
        return c, fc
    return d, fd
