"""Randomized verification of the library's closed-form identities.

Every module contributes its invariants as named properties grouped into
three suites (geometry, algebra, dynamics).  A property draws its trials
from a generator seeded by (seed, property index) and returns its
defects as one array whose first axis is its trials, in draw order, with
a trial's several defects on a trailing axis.  `run_property` alone
reduces it: the trial count is its length, and the property passes when
its max, which keeps NaN, stays within the fixed tolerance.  Properties
draw their trials up front as arrays from the stacked generators and
pass them to the library's kernels, which take any leading axes.  The
exceptions loop: the distance properties measure one pair at a time through
`geometry.distance`, which takes single points only, and the twist
witness is a single fixed operator.  Reports are plain dicts with a
fixed field order and no timestamps, so a fixed seed reproduces the
output byte for byte.

All library calls go through module attributes (geometry.metric and
friends) rather than imported names; the self-test in the CLI suite
relies on being able to swap a deliberately broken implementation in and
watch the right property fail.
"""

import math
from dataclasses import asdict, dataclass
from typing import Optional

import numpy as np

from . import algebra, dynamics, geometry, isometries, numerics
from .errors import DomainError

SAMPLE_NORM = 0.85
PINNED_TRIALS = 1000
MEMBERSHIP_DECISION_TOL = 1e-8
# Entries of the least-squares systems that representation_injectivity
# solves at once (a trial's system has max(50, 2(n+1)^2) rows of (n+1)^2
# entries): bounds the memory of a run.  Larger blocks are no faster at
# dim 4 and raise its peak memory.
FIT_BLOCK = 1 << 13

SUITES = ("geometry", "algebra", "dynamics")


@dataclass(frozen=True)
class VerifyConfig:
    dim: int = 4
    trials: int = 200
    seed: int = 0

    def __post_init__(self):
        if not 1 <= self.dim <= 16:
            raise DomainError(f"dim must lie in [1, 16], got {self.dim}")
        if self.trials < 1:
            raise DomainError("trials must be at least 1")
        if self.seed < 0:
            raise DomainError(f"seed must be non-negative, got {self.seed}")


@dataclass(frozen=True)
class PropertyResult:
    """One property's verdict; its fields, in this order, are the
    property's entry in a report."""

    name: str
    suite: str
    trials: int
    max_defect: float
    tolerance: float
    passed: bool
    error: Optional[str] = None


# ---------------------------------------------------------------------------
# Random object generators.  Each property owns an independent stream, so
# adding trials to one property never shifts another's draws.
# ---------------------------------------------------------------------------

def _cgauss(rng, shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


# Stacked generators: `count` draws at once, returned as arrays (points
# along the last axis, matrices along the last two).

def _points(rng, dim, shape, max_norm=SAMPLE_NORM):
    """An array of points of C^dim of the given leading shape."""
    shape = tuple(np.atleast_1d(shape).tolist())
    W = _cgauss(rng, shape + (dim,))
    r = rng.uniform(0.0, max_norm, size=shape)
    nw = np.linalg.norm(W, axis=-1)
    # a zero Gaussian draw (probability zero) lands on the origin
    return (r / np.where(nw > 0.0, nw, 1.0))[..., None] * W


def _mirrors(rng, dim, count):
    """`count` random mirrors that are isometries of the distance, as one
    stack: each reflects either through a complex subspace (a unitary),
    or through the totally real span of a unitary frame (an antiunitary
    conjugation).  Reflections through other real subspaces preserve
    norms and the real part of the inner product but not the distance
    itself.  A complex k-subspace has the real frame (Q_k, i Q_k) of
    width 2k; the frames of one width go through one call."""
    Q, _ = np.linalg.qr(_cgauss(rng, (count, dim, dim)))
    # k = 0 marks a totally real span, the frame Q itself
    ks = np.where(rng.uniform(size=count) < 0.5, rng.integers(1, dim + 1, size=count), 0)
    A, B = np.empty((2, count, dim, dim), dtype=complex)
    for k in np.unique(ks).tolist():
        rows = ks == k
        frames = np.concatenate([Q[rows, :, :k], 1j * Q[rows, :, :k]], axis=-1) if k else Q[rows]
        F = isometries.MirrorTransformation.from_basis(frames)
        A[rows], B[rows] = F.A, F.B
    return isometries.MirrorTransformation(A, B)


def _operators(rng, dim, count):
    return _cgauss(rng, (count, dim + 1, dim + 1))


def _lie_elements(rng, dim, count):
    """Random generators X with X*eps + eps X = 0, scaled to at most unit
    size so that exp(tX) stays well conditioned for |t| up to a few."""
    G = _cgauss(rng, (count, dim, dim))
    u = _cgauss(rng, (count, dim))
    c = rng.standard_normal(count)
    X = np.zeros((count, dim + 1, dim + 1), dtype=complex)
    X[:, :dim, :dim] = G - G.conj().swapaxes(-1, -2)
    X[:, :dim, dim] = u
    X[:, dim, :dim] = u.conj()
    X[:, dim, dim] = 1j * c
    return X / np.maximum(numerics.op_norm(X), 1.0)[:, None, None]


def _members(rng, dim, count):
    """Random group elements: one-parameter flow samples, about every
    other one composed with a transport."""
    X = _lie_elements(rng, dim, count)
    t = rng.uniform(-1.5, 1.5, size=count)
    T = numerics.mat_exp(t[:, None, None] * X)
    moved = np.flatnonzero(rng.uniform(size=count) < 0.5)
    T[moved] = isometries.transport_from_origin(_points(rng, dim, moved.size)) @ T[moved]
    return T


def _self_adjoints(rng, dim, count, max_norm=2.0):
    G = _cgauss(rng, (count, dim, dim))
    H = 0.5 * (G + G.conj().swapaxes(-1, -2))
    scale = numerics.hermitian_norm(H)
    return H * np.where(scale > max_norm, max_norm / scale, 1.0)[:, None, None]


def _distance_defects(U, V, SU, SV):
    """|d(su, sv) - d(u, v)| row by row over arrays of points."""
    P = geometry.BallPoint
    return np.array([abs(geometry.distance(P(su), P(sv)) - geometry.distance(P(u), P(v)))
                     for u, v, su, sv in zip(U, V, SU, SV)])


# ---------------------------------------------------------------------------
# Geometry suite (core numerics, the metric, distances, isometries).
# ---------------------------------------------------------------------------

def _p_op_norm_square_identity(cfg, rng):
    """Trials cycle through sizes 2..9, drawn and checked size by size."""
    defects = np.empty(cfg.trials)
    for d in range(2, 10):
        M = _cgauss(rng, (len(defects[d - 2::8]), d, d))
        lhs = numerics.op_norm(M.conj().swapaxes(-1, -2) @ M)
        rhs = numerics.op_norm(M) ** 2
        defects[d - 2::8] = np.abs(lhs - rhs) / np.maximum(1.0, rhs)
    return defects


def _p_exp_additivity(cfg, rng):
    sizes = rng.integers(2, 7, size=cfg.trials)
    times = rng.uniform(-1.5, 1.5, size=(cfg.trials, 2))
    defects = np.empty(cfg.trials)
    for d in np.unique(sizes).tolist():
        picked = sizes == d
        X = _cgauss(rng, (int(picked.sum()), d, d)) / (2.0 * math.sqrt(d))
        s, t = times[picked, 0, None, None], times[picked, 1, None, None]
        lhs = numerics.mat_exp((s + t) * X)
        rhs = numerics.mat_exp(s * X) @ numerics.mat_exp(t * X)
        defects[picked] = numerics.op_norm(lhs - rhs)
    return defects


def _p_projection_complement_identity(cfg, rng):
    """A complete real-orthonormal frame of R^2n, split after column k:
    the projections onto its first k and its other 2n - k columns must
    add up to the identity (I, 0), and the first must fix its own
    columns and annihilate the others.  Completeness alone cannot see a
    wrong conjugate-linear half B, since the A halves add up to
    V V*/2 = I for every complete frame V; the action on the frame can.
    Split points are drawn first; the frames of one split come from one
    stacked QR.  A trial's defects are the completeness defect and the
    2n column errors."""
    n = cfg.dim
    ks = rng.integers(1, 2 * n, size=cfg.trials)
    defects = np.empty((cfg.trials, 2 * n + 1))
    for k in np.unique(ks).tolist():
        Q, _ = np.linalg.qr(rng.standard_normal((int(np.count_nonzero(ks == k)), 2 * n, 2 * n)))
        V = Q[:, :n] + 1j * Q[:, n:]
        A, B = numerics.real_projection(V[..., :k])
        Ac, Bc = numerics.real_projection(V[..., k:])
        image = A @ V + B @ V.conj()
        defects[ks == k] = np.c_[numerics.op_norm(A + Ac - np.eye(n)) + numerics.op_norm(B + Bc),
                                 np.linalg.norm(image[..., :k] - V[..., :k], axis=-2),
                                 np.linalg.norm(image[..., k:], axis=-2)]
    return defects


def _p_metric_positivity(cfg, rng):
    Z = _points(rng, cfg.dim, cfg.trials)
    s = geometry.TangentVector.real(_cgauss(rng, Z.shape))
    return -geometry.metric(Z, s, s).real


def _p_metric_j_invariance(cfg, rng):
    trials = max(cfg.trials, PINNED_TRIALS)
    Z = _points(rng, cfg.dim, trials)
    s, t = (geometry.TangentVector(_cgauss(rng, Z.shape), _cgauss(rng, Z.shape)) for _ in range(2))
    lhs = geometry.metric(Z, s.apply_J(), t.apply_J())
    rhs = geometry.metric(Z, s, t)
    return np.abs(lhs - rhs)


def _p_distance_symmetry(cfg, rng):
    U, V = _points(rng, cfg.dim, cfg.trials), _points(rng, cfg.dim, cfg.trials)
    return _distance_defects(U, V, V, U)


def _p_triangle_inequality(cfg, rng):
    U, V, W = (map(geometry.BallPoint, _points(rng, cfg.dim, cfg.trials)) for _ in range(3))
    gaps = [geometry.distance(u, w) - geometry.distance(u, v) - geometry.distance(v, w)
            for u, v, w in zip(U, V, W)]
    return np.maximum(0.0, gaps)


def _p_radial_distance_identity(cfg, rng):
    o = geometry.origin(cfg.dim)
    return np.array([abs(math.tanh(geometry.distance(u, o)) - u.norm())
                     for u in map(geometry.BallPoint, _points(rng, cfg.dim, cfg.trials))])


def _p_distance_formula_agreement(cfg, rng):
    U, V = (map(geometry.BallPoint, _points(rng, cfg.dim, cfg.trials)) for _ in range(2))
    return np.array([abs(math.tanh(geometry.distance(u, v)) - geometry.tanh_distance(u, v))
                     for u, v in zip(U, V)])


def _p_curvature_constancy(cfg, rng):
    Z = _points(rng, cfg.dim, cfg.trials, max_norm=0.7)
    U = _cgauss(rng, Z.shape)
    return np.abs(geometry.sectional_curvature_probe(Z, U) - geometry.CURVATURE)


def _p_group_closure(cfg, rng):
    T = _members(rng, cfg.dim, 2 * cfg.trials)
    T = T[: cfg.trials] @ T[cfg.trials:]
    return isometries.is_inhomogeneous_unitary(T).defect


def _p_membership_equivalence(cfg, rng):
    """The two membership routes must agree on clean members, scaled-off
    members, and arbitrary garbage: a disagreement is a defect of 1."""
    trials = max(cfg.trials, PINNED_TRIALS)
    count = [len(range(kind, trials, 4)) for kind in range(4)]
    # scaling a member off the group shifts T*eps T by a guaranteed
    # 2*delta, far beyond the decision tolerance
    delta = np.array((1e-5, 1e-3, 0.3))[np.arange(2, trials, 4) % 3]
    stacks = (
        _members(rng, cfg.dim, count[0]),
        isometries.transport_from_origin(_points(rng, cfg.dim, count[1])),
        (1.0 + delta)[:, None, None] * _members(rng, cfg.dim, count[2]),
        _operators(rng, cfg.dim, count[3]),
    )
    disagreements = np.empty(trials)
    for kind, T in enumerate(stacks):
        direct = isometries.is_inhomogeneous_unitary(T, MEMBERSHIP_DECISION_TOL).ok
        blocks = isometries.check_block_conditions(T, MEMBERSHIP_DECISION_TOL).ok
        disagreements[kind::4] = direct != blocks
    return disagreements


def _eps_of(M):
    return isometries.epsilon_matrix(M.shape[-1] - 1)


def _block_residual(T):
    """Largest norm of the three block identities of T* eps T = eps."""
    n = T.shape[-1] - 1
    A, x, y, a = T[..., :n, :n], T[..., :n, n], T[..., n, :n].conj(), T[..., n, n]
    Ah = A.conj().swapaxes(-1, -2)
    r1 = numerics.op_norm(Ah @ A - y[..., :, None] * y.conj()[..., None, :] - np.eye(n))
    r2 = np.abs(np.linalg.norm(x, axis=-1) ** 2 - np.abs(a) ** 2 + 1.0)
    r3 = np.linalg.norm((Ah @ x[..., None])[..., 0] - a[..., None] * y, axis=-1)
    return np.maximum(np.maximum(r1, r2), r3)


# name: (check, draws of exact members of its set, norm of its residual
# built explicitly and read by `op_norm`)
_MEMBERSHIP_ROUTES = {
    "membership": (isometries.is_inhomogeneous_unitary, _members,
                   lambda T: numerics.op_norm(T.conj().swapaxes(-1, -2) @ _eps_of(T) @ T - _eps_of(T))),
    "blocks": (isometries.check_block_conditions, _members, _block_residual),
    "lie": (isometries.lie_algebra_check, _lie_elements,
            lambda X: numerics.op_norm(X.conj().swapaxes(-1, -2) @ _eps_of(X) + _eps_of(X) @ X)),
    "self_adjoint": (algebra.is_self_adjoint, lambda rng, dim, count: _self_adjoints(rng, dim + 1, count),
                     lambda C: numerics.op_norm(C - C.conj().swapaxes(-1, -2))),
}


def _p_membership_defect_agreement(cfg, rng):
    """Each check's defect against `op_norm` of its residual built
    explicitly, within 1e-12 max(1, defect): forming a residual of size
    rho^k rounds it by about eps rho^k.  Trials cycle through the four
    checks; each check's draws cycle through its members plus 1e-5, 1e-3
    and 0.3 times a Gaussian matrix, and Gaussian garbage over six orders
    of magnitude.  The checks read their Hermitian residuals through
    `hermitian_norm`, so one that under-reports fails here."""
    n = cfg.dim
    defects = np.empty(cfg.trials)
    for k, (check, members, residual) in enumerate(_MEMBERSHIP_ROUTES.values()):
        count = len(defects[k::4])
        M, G = members(rng, n, count), _cgauss(rng, (count, n + 1, n + 1))
        kind = (np.arange(count) % 4)[:, None, None]
        garbage = (10.0 ** rng.uniform(-3.0, 3.0, count))[:, None, None] * G
        M = np.where(kind == 3, garbage, M + np.array((1e-5, 1e-3, 0.3, 0.0))[kind] * G)
        want = residual(M)
        defects[k::4] = np.abs(check(M).defect - want) / np.maximum(1.0, want)
    return defects


def _p_isometry_distance_invariance(cfg, rng):
    """Even trials move both points by a group member, odd ones by a
    mirror."""
    U, V = _points(rng, cfg.dim, cfg.trials), _points(rng, cfg.dim, cfg.trials)
    T = _members(rng, cfg.dim, len(U[0::2]))
    F = _mirrors(rng, cfg.dim, len(U[1::2]))
    SU, SV = np.empty_like(U), np.empty_like(V)
    SU[0::2] = isometries.mobius_apply(T, U[0::2])
    SV[0::2] = isometries.mobius_apply(T, V[0::2])
    SU[1::2] = isometries.mirror_apply(F, U[1::2])
    SV[1::2] = isometries.mirror_apply(F, V[1::2])
    return _distance_defects(U, V, SU, SV)


def _p_exponential_membership(cfg, rng):
    X = _lie_elements(rng, cfg.dim, cfg.trials)
    return np.stack([isometries.is_inhomogeneous_unitary(numerics.mat_exp(X, t)).defect
                     for t in (-2.0, -1.0, 0.5, 1.0, 3.0)], axis=-1)


def _p_transport_transitivity(cfg, rng):
    U, V = _points(rng, cfg.dim, cfg.trials), _points(rng, cfg.dim, cfg.trials)
    T = isometries.transport_from_origin(V) @ isometries.inverse(
        isometries.transport_from_origin(U)
    )
    W = isometries.mobius_apply(T, U)
    return np.linalg.norm(W - V, axis=-1)


# ---------------------------------------------------------------------------
# Algebra suite.
# ---------------------------------------------------------------------------

def _p_representation_injectivity(cfg, rng):
    """Fit each operator back from its values at twice as many points as
    it has entries (at least fifty).  Trials are drawn and fitted in
    blocks of at most FIT_BLOCK entries of the least-squares systems."""
    d = cfg.dim + 1
    samples = max(50, 2 * d * d)
    block = max(1, FIT_BLOCK // (samples * d * d))
    defects = []
    for start in range(0, cfg.trials, block):
        count = min(block, cfg.trials - start)
        C = _operators(rng, cfg.dim, count)
        Z = _points(rng, cfg.dim, (count, samples), max_norm=0.9)
        fitted = algebra.fit_operator(Z, algebra.evaluate(C[:, None], Z))
        defects.append(numerics.op_norm(fitted - C) / np.maximum(1.0, numerics.op_norm(C)))
    return np.concatenate(defects)


def _p_star_homomorphism(cfg, rng):
    C, Cp = _operators(rng, cfg.dim, cfg.trials), _operators(rng, cfg.dim, cfg.trials)
    Z = _points(rng, cfg.dim, cfg.trials)
    lhs = algebra.star_pointwise(C, Cp, Z)
    rhs = algebra.evaluate(algebra.star_operator(C, Cp), Z)
    return np.abs(lhs - rhs)


def _p_involution_conjugation(cfg, rng):
    C = _operators(rng, cfg.dim, cfg.trials)
    Z = _points(rng, cfg.dim, cfg.trials)
    defect = np.conj(algebra.evaluate(C, Z)) - algebra.evaluate(C.conj().swapaxes(-1, -2), Z)
    return np.abs(defect)


def _p_unit_function(cfg, rng):
    Z = _points(rng, cfg.dim, cfg.trials)
    return np.abs(algebra.evaluate(algebra.unit(cfg.dim).matrix, Z) - 1.0)


def _p_star_associativity(cfg, rng):
    C, Cp, Cpp = (_operators(rng, cfg.dim, cfg.trials) for _ in range(3))
    Z = _points(rng, cfg.dim, cfg.trials)
    full = algebra.evaluate(algebra.star_operator(algebra.star_operator(C, Cp), Cpp), Z)
    left = algebra.star_pointwise(algebra.star_operator(C, Cp), Cpp, Z)
    right = algebra.star_pointwise(C, algebra.star_operator(Cp, Cpp), Z)
    return np.stack([np.abs(full - left), np.abs(full - right)], axis=-1)


def _p_banach_inequality(cfg, rng):
    C, Cp = _operators(rng, cfg.dim, cfg.trials), _operators(rng, cfg.dim, cfg.trials)
    lhs = numerics.op_norm(algebra.star_operator(C, Cp))
    rhs = numerics.op_norm(C) * numerics.op_norm(Cp)
    return np.maximum(0.0, lhs - rhs) / np.maximum(1.0, rhs)


def _p_cstar_chain_identity(cfg, rng):
    ident = np.eye(cfg.dim + 1, dtype=complex)
    A = _operators(rng, cfg.dim, cfg.trials)
    chain = algebra.star_operator(algebra.star_operator(A.conj().swapaxes(-1, -2), ident), A)
    lhs = numerics.op_norm(chain)
    rhs = numerics.op_norm(A) ** 2
    return np.abs(lhs - rhs) / np.maximum(1.0, rhs)


def _p_involution_twist_witness(cfg, rng):
    A = algebra.involution_failure_operator(cfg.dim)
    plain = numerics.op_norm((A.adjoint() @ A).matrix)
    twisted = numerics.op_norm(algebra.star_operator(A.adjoint(), A).matrix)
    return np.array([[abs(plain - 2.0), twisted]])


# ---------------------------------------------------------------------------
# Dynamics suite.
# ---------------------------------------------------------------------------

def _p_flow_distance_invariance(cfg, rng):
    """Trials cycle through exponential, Schroedinger and disc flows."""
    times = rng.uniform(-2.0, 2.0, size=cfg.trials)
    t = [times[k::3, None, None] for k in range(3)]
    defects = np.empty(cfg.trials)
    U, V = _points(rng, cfg.dim, t[0].size), _points(rng, cfg.dim, t[0].size)
    X = t[0] * _lie_elements(rng, cfg.dim, t[0].size)
    defects[0::3] = _distance_defects(U, V, *(dynamics.evolve_exp(X, W, 1.0) for W in (U, V)))
    U, V = _points(rng, cfg.dim, t[1].size), _points(rng, cfg.dim, t[1].size)
    H = t[1] * _self_adjoints(rng, cfg.dim, t[1].size)
    defects[1::3] = _distance_defects(U, V, *(dynamics.schrodinger_evolve(H, W, 1.0) for W in (U, V)))
    U, V = _points(rng, 1, t[2].size), _points(rng, 1, t[2].size)
    b = _cgauss(rng, t[2].size)
    # keep the boost bounded so near-rim roundoff cannot eat into the
    # 1e-9 agreement being measured
    b = b / np.maximum(1.0, np.abs(b))
    g = dynamics.DiscGenerator(rng.standard_normal(t[2].size), b)
    defects[2::3] = _distance_defects(
        U, V, *(dynamics.disc_evolve_closed(g, W[:, 0], t[2].ravel())[:, None] for W in (U, V)))
    return defects


def _p_flow_group_law(cfg, rng):
    X = _lie_elements(rng, cfg.dim, cfg.trials)
    Z = _points(rng, cfg.dim, cfg.trials)
    times = rng.uniform(-1.5, 1.5, size=(cfg.trials, 2))
    s, t = times[:, 0, None, None], times[:, 1, None, None]
    once = dynamics.evolve_exp((s + t) * X, Z, 1.0)
    twice = dynamics.evolve_exp(s * X, dynamics.evolve_exp(t * X, Z, 1.0), 1.0)
    return np.linalg.norm(once - twice, axis=-1)


def _p_disc_closed_form_agreement(cfg, rng):
    """Trials cycle through the hyperbolic (|b| > |a|), elliptic
    (|b| < |a|) and parabolic (|b| = |a|) regimes."""
    a = rng.standard_normal(cfg.trials)
    phase = np.exp(2j * math.pi * rng.uniform(size=cfg.trials))
    spread = rng.uniform(size=cfg.trials)
    regime = np.arange(cfg.trials) % 3
    ratio = np.where(regime == 0, 1.2 + spread, np.where(regime == 1, 0.5 * spread, 1.0))
    b = np.abs(a) * ratio * phase
    Z = _points(rng, 1, cfg.trials)
    t = rng.uniform(-2.0, 2.0, size=cfg.trials)
    g = dynamics.DiscGenerator(a, b)
    closed = dynamics.disc_evolve_closed(g, Z[:, 0], t)
    viaexp = dynamics.evolve_exp(t[:, None, None] * g.matrix(), Z, 1.0)[:, 0]
    return np.abs(closed - viaexp)


def _p_quantum_flow_radius(cfg, rng):
    H = _self_adjoints(rng, cfg.dim, cfg.trials)
    Z = _points(rng, cfg.dim, cfg.trials)
    H = rng.uniform(-3.0, 3.0, size=cfg.trials)[:, None, None] * H
    moved = dynamics.schrodinger_evolve(H, Z, 1.0)
    fixed = dynamics.schrodinger_evolve(H, np.zeros_like(Z), 1.0)
    radius = np.abs(np.linalg.norm(moved, axis=-1) - np.linalg.norm(Z, axis=-1))
    return np.stack([np.linalg.norm(fixed, axis=-1), radius], axis=-1)


def _p_observable_pullback(cfg, rng):
    """f_C at a Moebius image equals the conformally rescaled quadratic
    form of the pushed-forward extended point."""
    n = cfg.dim
    T = _members(rng, n, cfg.trials)
    C = _operators(rng, n, cfg.trials)
    Z = _points(rng, n, cfg.trials)
    what = algebra.extended_point(isometries.mobius_apply(T, Z))
    tz = (T @ algebra.extended_point(Z)[:, :, None])[:, :, 0]
    # <y|z> + a, with y stored conjugated in the bottom row
    den = np.sum(T[:, n, :n] * Z, axis=-1) + T[:, n, n]

    def form(v):
        return np.sum(v.conj() * (C @ v[:, :, None])[:, :, 0], axis=-1)

    return np.abs(form(what) - form(tz) / np.abs(den) ** 2)


# ---------------------------------------------------------------------------
# Registry and runner.
# ---------------------------------------------------------------------------

PROPERTIES = (
    ("geometry", "op_norm_square_identity", 1e-10, _p_op_norm_square_identity),
    ("geometry", "exp_additivity", 1e-10, _p_exp_additivity),
    ("geometry", "projection_complement_identity", 1e-12, _p_projection_complement_identity),
    ("geometry", "metric_positivity", 1e-15, _p_metric_positivity),
    ("geometry", "metric_j_invariance", 1e-12, _p_metric_j_invariance),
    ("geometry", "distance_symmetry", 1e-12, _p_distance_symmetry),
    ("geometry", "triangle_inequality", 1e-9, _p_triangle_inequality),
    ("geometry", "radial_distance_identity", 1e-12, _p_radial_distance_identity),
    ("geometry", "distance_formula_agreement", 1e-12, _p_distance_formula_agreement),
    ("geometry", "curvature_constancy", 1e-6, _p_curvature_constancy),
    ("geometry", "group_closure", 1e-9, _p_group_closure),
    ("geometry", "membership_equivalence", 0.5, _p_membership_equivalence),
    ("geometry", "isometry_distance_invariance", 1e-9, _p_isometry_distance_invariance),
    ("geometry", "exponential_membership", 1e-9, _p_exponential_membership),
    ("geometry", "transport_transitivity", 1e-9, _p_transport_transitivity),
    ("algebra", "representation_injectivity", 1e-9, _p_representation_injectivity),
    ("algebra", "star_homomorphism", 1e-9, _p_star_homomorphism),
    ("algebra", "involution_conjugation", 1e-12, _p_involution_conjugation),
    ("algebra", "unit_function", 1e-14, _p_unit_function),
    ("algebra", "star_associativity", 1e-8, _p_star_associativity),
    ("algebra", "banach_inequality", 1e-12, _p_banach_inequality),
    ("algebra", "cstar_chain_identity", 1e-10, _p_cstar_chain_identity),
    ("algebra", "involution_twist_witness", 1e-12, _p_involution_twist_witness),
    ("dynamics", "flow_distance_invariance", 1e-9, _p_flow_distance_invariance),
    ("dynamics", "flow_group_law", 1e-9, _p_flow_group_law),
    ("dynamics", "disc_closed_form_agreement", 1e-9, _p_disc_closed_form_agreement),
    ("dynamics", "quantum_flow_radius", 1e-12, _p_quantum_flow_radius),
    ("dynamics", "observable_pullback", 1e-9, _p_observable_pullback),
    # appended, so that no other property's stream (seed, index) moves
    ("geometry", "membership_defect_agreement", 1e-12, _p_membership_defect_agreement),
)


def run_property(index, cfg):
    suite, name, tolerance, runner = PROPERTIES[index]
    rng = np.random.default_rng([cfg.seed, index])
    error = None
    try:
        defects = runner(cfg, rng)
        trials, max_defect = len(defects), float(np.max(defects, initial=0.0))
    except Exception as exc:
        # a property whose evaluation blows up has certainly failed; an
        # infinite defect keeps the report intact so the other
        # properties still get checked, and the exception says why
        trials, max_defect = cfg.trials, math.inf
        error = f"{type(exc).__name__}: {exc}"
    return PropertyResult(name, suite, trials, max_defect, tolerance, max_defect <= tolerance, error)


def run_suite(suite="all", config=None):
    """Run one suite (or all) and return the report dict.

    The report's property list is ordered by property name; the overall
    flag is the conjunction of the per-property verdicts.
    """
    cfg = config or VerifyConfig()
    if suite != "all" and suite not in SUITES:
        raise DomainError(f"unknown suite {suite!r}; pick one of {', '.join(SUITES)} or all")
    results = [
        run_property(i, cfg)
        for i, (s, _, _, _) in enumerate(PROPERTIES)
        if suite in ("all", s)
    ]
    results.sort(key=lambda r: r.name)
    failed = [r.name for r in results if not r.passed]
    report = {
        "suite": suite,
        "dim": cfg.dim,
        "trials": cfg.trials,
        "seed": cfg.seed,
        "properties": [asdict(r) for r in results],
        "failed_properties": failed,
        "passed": not failed,
    }
    return report
