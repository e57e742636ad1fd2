"""Reference values that do not go through the code under test.

* operator norm: numpy's SVD;
* the cone norm estimated by `norm --which s|d`: the sup of
  ||C xi|| / ||xi|| over the cone xi = (z, 1), ||z|| < 1, which by the
  S-lemma equals  min over mu >= 0 of  lambda_max(C*C + mu eps)  (square
  rooted), with eps = diag(-I, 1); the minimum of this convex function is
  bracketed by numpy eigenvalues and scipy's bounded scalar search;
* flows: `scipy.linalg.expm` of the generator, applied as a Moebius map;
* distances: mpmath at 50 digits from the same float inputs, through
  d = (1/2) log[(m + s)^2 / (delta_u delta_v)] with delta = 1 - ||z||^2,
  which has no cancellation at the rim.
"""

import math

import numpy as np
from scipy.linalg import expm
from scipy.optimize import minimize_scalar

EPS = float(np.finfo(float).eps)
MP_DIGITS = 50


def op_norm(M):
    return float(np.linalg.svd(M, compute_uv=False)[0])


def cone_norm(C):
    M = C.conj().T @ C
    n = C.shape[0] - 1
    eps = np.diag(np.r_[-np.ones(n), 1.0])

    def top(mu):
        return float(np.linalg.eigvalsh(M + mu * eps)[-1])

    hi = 4.0 * top(0.0) + 1.0
    res = minimize_scalar(top, bounds=(0.0, hi), method="bounded",
                          options={"xatol": 1e-14 * hi})
    return math.sqrt(max(min(res.fun, top(0.0)), 0.0))


def mobius(T, z):
    """phi_T(z) for the (n+1)x(n+1) matrix T, in floats."""
    n = z.size
    return (T[:n, :n] @ z + T[:n, n]) / (T[n, :n] @ z + T[n, n])


def flow_point(X, z0, t):
    """Exact flow phi_{exp(tX)}(z0) through scipy's expm."""
    return mobius(expm(t * X), z0)


def _mp():
    from mpmath import mp

    mp.dps = MP_DIGITS
    return mp


def distance(u, v):
    """(d, delta_u, delta_v) for float vectors u, v, at MP_DIGITS digits."""
    mp = _mp()
    a = [mp.mpc(complex(x)) for x in u]
    b = [mp.mpc(complex(x)) for x in v]
    du = 1 - mp.fsum(abs(x) ** 2 for x in a)
    dv = 1 - mp.fsum(abs(x) ** 2 for x in b)
    m = abs(1 - mp.fsum(mp.conj(x) * y for x, y in zip(a, b)))
    s = mp.sqrt(max(m * m - du * dv, 0))
    d = mp.log((m + s) ** 2 / (du * dv)) / 2
    return float(d), float(du), float(dv)


def distance_tolerance(d, du, dv, dim):
    """Allowed error of a float distance: the rounding of each point's rim
    gap delta = 1 - ||z||^2 (about 2 dim eps absolute) moves d by up to
    dim eps / delta, taken with a factor 4, plus 1e-12 relative."""
    return 1e-12 * max(1.0, d) + 4.0 * dim * EPS * (1.0 / du + 1.0 / dv)


def mobius_tolerance(T, z, w, dw):
    """Allowed change of an exact distance when its endpoint w = phi_T(z)
    carries the rounding of one float Moebius evaluation: a few (n+1) eps
    relative in numerator and denominator, over the rim gap dw of w."""
    n = z.size
    den = abs(T[n, :n] @ z + T[n, n])
    A, x, yc, a = T[:n, :n], T[:n, n], T[n, :n], T[n, n]
    nz = np.linalg.norm(z)
    size = (np.linalg.norm(A, 2) * nz + np.linalg.norm(x)
            + np.linalg.norm(w) * (np.linalg.norm(yc) * nz + abs(a))) / den
    return 8.0 * (n + 1) * EPS * size / dw
