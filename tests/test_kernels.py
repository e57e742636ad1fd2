"""The kernel table: one row per public kernel that takes stacks, and the
checks that hold every row to the contract of one formula body over
leading axes (`geometry`) under the edge rules of `numerics`:

- "stack": a stack equals its single calls, bit for bit, over one
  leading axis and over two, and at dim 4 with one operand, or all but
  one, single against the others' stacks, and over leading axes (2, 1)
  against (1, 3) and (3,) against (2, 3);
- "bad": one bad call (NaN, a point past the rim margin, or the row's
  `spoil`) raises one DomainError for the stack, whose `row` names the
  first bad point;
- "broadcast": leading axes (3,) against (4,) raise DomainError, not
  numpy's ValueError;
- "huge": operands past the float range raise one DomainError with the
  row's message and no numpy warning, alone and as one call of a stack,
  and a value within the range keeps its bits under the guard;
- "mismatch": operands of mismatched dimension raise DomainError.

A row skips a check, or a case of one, only by naming its reason in
`exempt`.  The tests of the kernel modules named in FOLDED run their
shares of the table, and `test_kernel_contract` runs the rest.  Every
public callable of the five kernel modules has a row or an UNTABLED
reason.
"""

import functools
import importlib
import math
import warnings
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np
import pytest

from hilbertball import algebra, dynamics, geometry, isometries, numerics
from hilbertball.dynamics import DiscGenerator, HamiltonianGenerator
from hilbertball.errors import DomainError
from hilbertball.geometry import BallPoint, TangentVector
from hilbertball.isometries import ExtendedOperator, MembershipCheck, MirrorTransformation

from conftest import cgauss, lie_element, same_bytes

DIMS = (1, 4, 16)
COUNT = 6  # calls per stack
BAD = COUNT - 2  # the call a bad-row test spoils
BADS = ("nan", "rim", "spoil")
HUGE_DIM = 2  # the dimension of the float-range cases
RIM = 1.0 - 1e-13  # a norm past BOUNDARY_MARGIN

# How an operand stacks, one letter per operand: SINGLE maps the draw's
# raw value to what a single call takes, STACKED (np.array by default) the
# calls' raw values to what a stacked call takes.  A capital letter is an
# operand that every call of the stack shares, passed in its single form.
SINGLE = {
    "p": BallPoint, "q": np.asarray, "c": complex, "a": np.asarray, "x": float,
    "o": ExtendedOperator, "h": HamiltonianGenerator,
    "t": lambda x: TangentVector(*x), "g": lambda x: DiscGenerator(*x),
    "f": MirrorTransformation.from_basis,
}
STACKED = {
    "t": lambda xs: TangentVector(*map(np.stack, zip(*xs))),
    "g": lambda xs: DiscGenerator(*map(np.array, zip(*xs))),
    "f": lambda xs: MirrorTransformation.from_basis(np.stack(xs)),
}
POINTS = "pqc"  # kinds whose calls are points: a bad one may sit past the rim
ONE = {"broadcast": "one operand", "mismatch": "one operand"}


@dataclass(frozen=True, eq=False)
class Row:
    """A kernel; `draw(rng, dim, i)` gives the raw operands of the i-th call
    of a stack, `kinds` how each stacks (SINGLE), and `huge(*operands)`
    cases past the float range, made from a good call, that raise
    `overflow`; `spoil` maps an operand's index to a function that makes
    it bad and the message that raises; `exempt` gives the reason for
    each check, stack layout ("axes", "one") or case a row skips, and
    `found` marks a check that fails by a defect not yet mended as a
    strict xfail.  Rows compare by identity, so `draw` can cache by row."""

    kernel: Callable
    kinds: str
    draw: Callable
    huge: Optional[Callable] = None
    overflow: str = "overflowed the float range in "
    spoil: dict = field(default_factory=dict)
    exempt: dict = field(default_factory=dict)
    found: dict = field(default_factory=dict)
    count: int = COUNT


def points(rng, n, count, i=None):
    """`count` points of norm below 0.8, or for the last call of a stack the origin."""
    Z = cgauss(rng, (count, n))
    return Z * (0.8 * rng.uniform(size=(count, 1)) ** (0.5 / n) / np.linalg.norm(Z, axis=-1, keepdims=True)
                * (i != COUNT - 1))


def point(rng, n, i=None):
    return points(rng, n, 1, i)[0]


def operator(rng, n):
    return cgauss(rng, (n + 1, n + 1))


def op_point(rng, n, i):
    return operator(rng, n), point(rng, n, i)


def hermitian(rng, n):
    G = cgauss(rng, (n, n))
    return G + G.conj().T


def member(rng, n, i):
    """A transport after a block unitary diag(U, e^(i theta)); for the second
    call 1.001 times one, off the group with the same Moebius map."""
    R = np.diag(np.exp(2j * np.pi * rng.uniform(size=n + 1)))
    R[:n, :n] = np.linalg.qr(cgauss(rng, (n, n)))[0]
    return isometries.transport_from_origin(point(rng, n)) @ R * (1.001 if i == 1 else 1.0)


def transport_point(rng, n, i):
    # the origin, signed zeros and real vectors among the calls
    z = point(rng, n)
    return [np.zeros(n, complex), np.full(n, complex(-0.0, -0.0)), z.real + 0j,
            z.real - 0j, np.where(np.arange(n) % 2, z, -0.0), z][i]


def frame(rng, n):
    q = np.linalg.qr(cgauss(rng, (n, n)))[0][:, :1]
    return np.concatenate([q, 1j * q], axis=-1)


def tangents(rng, n, i):
    return point(rng, n, i), tuple(cgauss(rng, (2, n))), tuple(cgauss(rng, (2, n)))


# every regime of the disc flow and the pole time of the elliptic one;
# generators whose discriminant numpy's scalar loops once rounded apart
# from its array loops; the boost whose exp(800 X) overflows
DISC = [(0.3, 0.8 + 0.2j), (1.1, 0.4 - 0.3j), (1.0, 1.0j), (0.7, 0.0), (0.0, 0.0), (-0.2, 0.05j)]
ALPHA_SPLIT = [(0.06211108170653912, -0.6909983885893376 + 1.396669796083153j),
               (-1.6493437006255456, 1.7108079173510844 + 0.9915751608374404j)]
FLOW_TIMES = [0.0, 1.7, -0.4, 0.05, 3.2, -2.9]
BOOST = np.array([[0, 0, 1], [0, 0, 0], [1, 0, 0]], dtype=complex)


def disc_call(rng, n, i):
    a, b = DISC[i]
    t = math.pi / (2.0 * math.sqrt(a * a - abs(b) ** 2)) if i == 1 else rng.uniform(-3.0, 3.0)
    return (a, b), 0.85 * math.sqrt(rng.uniform()) * complex(np.exp(2j * math.pi * rng.uniform())), t


def scaled(x, k):
    """x times 2^k, exactly."""
    return np.ldexp(np.asarray(x, dtype=complex).view(float), k).view(complex)


def f_huge(*ops, entry=1e300):
    # entries of 1e300 at a point 1e-8 from the rim: k_z ~ 5e7 carries f_C
    # past the float range; for C zhat, which has no k_z, entries of 1e308
    w = np.zeros_like(ops[-1])
    w[0] = 1.0 - 1e-8
    return [tuple(np.full_like(x, entry) for x in ops[:-1]) + (w,)]


def tangents_huge(z, s, t):
    # tangents of 1e200: the metric's products reach 1e400
    return [(z, tuple(1e200 * np.array(s)), tuple(1e200 * np.array(t)))]


def f_row(kernel, draw=op_point, huge=f_huge, **kw):
    return Row(kernel, "op" if draw is op_point else "oop", draw, huge=huge,
               overflow=f"^f_C overflowed the float range in {kernel.__name__}$", **kw)


def residual_row(kernel, draw, huge):
    return Row(kernel, "o", draw, huge=huge, exempt=ONE,
               overflow=f"^the residual overflowed the float range in {kernel.__name__}$")


# FOUND in CHANGES.md: `isometries._moved` forms T zhat past the float range with numpy's warning
MOBIUS_WARNS = "a matrix of entries near 1.7e308 warns in the Moebius maps"
METRIC = "^the metric overflowed the float range in metric$"  # the kernel or its reader's
EXP = r"^exp\(tX\) overflowed the float range in mat_exp$"
EIGEN = "^point has non-finite entries$"  # the Schroedinger phases past the float range

ROWS = {
    # numerics
    "op_norm": Row(numerics.op_norm, "a", lambda r, n, i: (cgauss(r, (n + 1, n + 3)),), exempt=ONE,
                   huge=lambda M: [(np.full_like(M, 1.7e308 + 1.7e308j),), (np.full_like(M, 1e308),)],
                   overflow="^the norm overflowed the float range in op_norm$"),
    "hermitian_norm": Row(numerics.hermitian_norm, "a", lambda r, n, i: (hermitian(r, n + 1),), exempt=ONE,
                          huge=lambda H: [(np.full_like(H, 1.7e308),)],
                          overflow="^the norm overflowed the float range in hermitian_norm$"),
    # generators stacked with their times, and one generator at many times
    "mat_exp": Row(numerics.mat_exp, "ax", lambda r, n, i: (4.0 * operator(r, n), r.uniform(-1.0, 1.0)),
                   huge=lambda X, t: [(scaled(X, 600), t), (1e300 * X, 1e10)], overflow=EXP,
                   exempt={"mismatch": "its time has no dimension"}),
    "mat_exp[times]": Row(numerics.mat_exp, "Ax",
                          lambda r, n, i: (operator(r, n), [0.0, -0.0, 0.01, -0.04, 30.0, -40.0][i]),
                          huge=lambda X, t: [(X, 2.0 ** 600)], overflow=EXP,
                          exempt={"broadcast": "one stacked operand", "mismatch": "its time has no dimension"}),
    "real_projection": Row(numerics.real_projection, "a", lambda r, n, i: (frame(r, n),),
                           exempt={**ONE, "huge": "a frame passes only with Re(V*V) = I, so no entry exceeds 1"}),
    # geometry
    "BallPoint": Row(BallPoint, "q", lambda r, n, i: (point(r, n, i),), exempt=ONE,
                     huge=lambda z: [(np.full_like(z, 1e200),)], overflow="^point with norm inf is outside"),
    "k_factor": Row(geometry.k_factor, "p", lambda r, n, i: (point(r, n, i),),
                    exempt={**ONE, "huge": "inside the margin k_z is below 1/(1 - (1 - 1e-12)^2), about 5e11"}),
    "metric": Row(geometry.metric, "ptt", tangents, huge=tangents_huge, overflow=METRIC),
    "kahler_form": Row(geometry.kahler_form, "ptt", tangents, huge=tangents_huge,
                       overflow="^the metric overflowed the float range in kahler_form$"),
    "hermitian_energy": Row(geometry.hermitian_energy, "pa", lambda r, n, i: (point(r, n, i), cgauss(r, n)), huge=lambda z, u: [(z, 1e200 * u)], overflow=METRIC),
    "sectional_curvature_probe": Row(geometry.sectional_curvature_probe, "pa",
                                     lambda r, n, i: (point(r, n, i), cgauss(r, n)),
                                     exempt={"huge": "the direction is normalized by an exact power of two",
                                             "one": "points and directions pair one to one"}),
    # isometries
    "mobius_apply": Row(isometries.mobius_apply, "op", lambda r, n, i: (member(r, n, i), point(r, n, i)),
                        huge=functools.partial(f_huge, entry=1.7e308), found={"huge": MOBIUS_WARNS}),
    "mobius_differential": Row(isometries.mobius_differential, "op",
                               lambda r, n, i: (member(r, n, i), point(r, n, i)),
                               huge=functools.partial(f_huge, entry=1.7e308), found={"huge": MOBIUS_WARNS}),
    "transport_from_origin": Row(isometries.transport_from_origin, "p", lambda r, n, i: (transport_point(r, n, i),),
                                 exempt={**ONE, "huge": "inside the margin m = (1 - ||u||^2)^(-1/2) is below 1e6"}),
    "inverse": Row(isometries.inverse, "o", lambda r, n, i: (member(r, n, i),),
                   exempt={**ONE, "huge": "eps T* eps only flips signs, so it cannot overflow"}),
    "mirror_apply": Row(isometries.mirror_apply, "fp", lambda r, n, i: (frame(r, n), point(r, n, i)),
                        exempt={"huge": "a mirror's entries are at most 2 and its image is a point of the ball"}),
    "is_inhomogeneous_unitary": residual_row(isometries.is_inhomogeneous_unitary,
                                             lambda r, n, i: (member(r, n, i),), lambda M: [(scaled(M, 600),)]),
    "check_block_conditions": residual_row(isometries.check_block_conditions,
                                           lambda r, n, i: (member(r, n, i),), lambda M: [(scaled(M, 600),)]),
    "lie_algebra_check": residual_row(isometries.lie_algebra_check,  # one call off the algebra
                                      lambda r, n, i: (lie_element(r, n).matrix + 0.5 * (i == 2),),
                                      lambda X: [(np.full_like(X, 1e308j),)]),
    # algebra
    "extended_point": Row(algebra.extended_point, "p", lambda r, n, i: (point(r, n, i),),
                          exempt={**ONE, "huge": "zhat = (z, 1) copies a point of the ball"}),
    "evaluate": f_row(algebra.evaluate),
    "evaluate_blocks": f_row(algebra.evaluate_blocks),
    "holo_differential": f_row(algebra.holo_differential),
    "gradient": f_row(algebra.gradient, huge=functools.partial(f_huge, entry=1e308)),
    "hamiltonian_field": f_row(algebra.hamiltonian_field, huge=functools.partial(f_huge, entry=1e308)),
    "poisson_bracket": f_row(algebra.poisson_bracket, lambda r, n, i: (operator(r, n),) + op_point(r, n, i)),
    "star_pointwise": f_row(algebra.star_pointwise, lambda r, n, i: (operator(r, n),) + op_point(r, n, i)),
    "star_operator": Row(algebra.star_operator, "oo", lambda r, n, i: (operator(r, n), operator(r, n)),
                         huge=lambda C, Cp: [(scaled(C, 600), scaled(C, 600))],
                         overflow="^the product overflowed the float range in star_operator$"),
    "is_self_adjoint": residual_row(algebra.is_self_adjoint,  # one call off the self-adjoint operators
                                    lambda r, n, i: (hermitian(r, n + 1) + 1j * (i == 2),),
                                    lambda C: [(np.full_like(C, 1e308j),)]),
    "dispersion": Row(algebra.dispersion, "op", lambda r, n, i: (hermitian(r, n + 1), point(r, n, i)),
                      huge=f_huge, overflow="^f_C overflowed the float range in dispersion$",
                      spoil={0: (lambda C: C + np.triu(C, 1), "dispersion needs a self-adjoint operator")}),
    "kahler_condition_check": Row(algebra.kahler_condition_check, "op", op_point, huge=f_huge,
                                  overflow="^f_C overflowed the float range in evaluate$"),
    "fit_operator": Row(algebra.fit_operator, "qa",
                        lambda r, n, i: (points(r, n, (n + 1) ** 2 + 2), cgauss(r, (n + 1) ** 2 + 2)),
                        huge=lambda Z, v: [(Z, np.full_like(v, 1e308))],
                        overflow="^the fit overflowed the float range in fit_operator$",
                        exempt={"one": "points and values pair one to one", "axes": "a fit takes its points on one axis",
                                16: "a fit at dim 16 solves a 291 x 289 QR; dims 1 and 4 hold its stack"},
                        count=2),
    # dynamics
    "DiscGenerator": Row(lambda g: g.matrix(), "g", lambda r, n, i: disc_call(r, n, i)[:1],
                         exempt={"huge": "a and b are copied into the matrix",
                                 "mismatch": "the disc has one dimension"}),
    "alpha": Row(dynamics.alpha, "g", lambda r, n, i: (ALPHA_SPLIT[i] if i < 2 else DISC[i],),
                 exempt={"huge": "past the largest float it returns +-inf by contract",
                         "mismatch": "the disc has one dimension"}),
    "disc_evolve_closed": Row(dynamics.disc_evolve_closed, "gcx", disc_call,
                              huge=lambda g, z, t: [((1e300, 0.0), z, 2.0 ** 1023)],
                              overflow="^the flow overflowed the float range in disc_evolve_closed$",
                              exempt={"mismatch": "the disc has one dimension"}),
    "evolve_exp": Row(dynamics.evolve_exp, "opX",
                      lambda r, n, i: (lie_element(r, n).matrix, point(r, n, i), (0.8, -2.5)[n % 2]),
                      huge=lambda X, z, t: [(BOOST, z, 800.0)], overflow=EXP,
                      spoil={0: (lambda X: X + np.eye(len(X), k=1), "Lie algebra")}),
    # a generator matrix at an array of times, each paired with its point
    "evolve_exp[times]": Row(dynamics.evolve_exp, "Apx",
                             lambda r, n, i: (lie_element(r, n).matrix, point(r, n, i), FLOW_TIMES[i]),
                             huge=lambda X, z, t: [(BOOST, z, 800.0)], overflow=EXP),
    "schrodinger_evolve": Row(dynamics.schrodinger_evolve, "hpX",
                              lambda r, n, i: (hermitian(r, n), point(r, n, i), (0.8, -2.5)[n % 2]),
                              huge=lambda H, z, t: [(np.diag([3.0, -1.0]), z, 2.0 ** 1023)], overflow=EIGEN,
                              spoil={0: (lambda H: H + 0.1j * np.eye(len(H), k=1), "self-adjoint")}),
    "schrodinger_evolve[times]": Row(dynamics.schrodinger_evolve, "Apx",
                                     lambda r, n, i: (hermitian(r, n), point(r, n, i), FLOW_TIMES[i]),
                                     huge=lambda H, z, t: [(np.diag([3.0, -1.0]), z, 2.0 ** 1023)], overflow=EIGEN),
}

# Public callables with no row: each takes one object, or is no kernel.
UNTABLED = {
    "distance": "single points",
    "tanh_distance": "single points, the cross-check of distance",
    "recover_inner_product": "single points, probed through distance",
    "connection": "a single point and fields",
    "geodesic_from_origin": "a single point and parameter",
    "curve_length": "one curve, whose samples it reads in one hermitian_energy call",
    "trajectory": "one generator from one point; its samples are the flows' rows",
    "second_degree_defect": "a stencil over the caller's function; kahler_condition_check's row stacks it",
    **dict.fromkeys(["norm_b", "norm_s", "norm_d", "norm_b_estimate", "norm_s_estimate", "norm_d_estimate",
                     "invariant_supremand", "invariant_supremand_chain", "cone_supremand",
                     "shifted_supremand_chain"], "a norm estimator of one operator"),
    "golden_max": "a scalar line search, the cone norm's polish",
    **dict.fromkeys(["origin", "unit", "epsilon_matrix", "epsilon_operator", "scale_operator",
                     "submultiplicativity_witnesses", "involution_failure_operator"],
                    "builds one fixed object of a given dimension"),
    **dict.fromkeys(["TangentVector", "ExtendedOperator", "MembershipCheck", "MirrorTransformation",
                     "HamiltonianGenerator", "NormEstimate"],
                    "a type: its stacks are rows of the kernels that take or return it"),
}


@functools.cache
def draw(row, dim, count=COUNT):
    """`count` calls' raw operands at `dim`, read-only, drawn once per row;
    a shared operand is the first call's."""
    rng = np.random.default_rng(dim)
    draws = [frozen(row.draw(rng, dim, i)) for i in range(count)]
    return [tuple(d0 if k.isupper() else x for k, d0, x in zip(row.kinds, draws[0], d)) for d in draws]


def frozen(x):
    """x, or the tuple of its parts, with its arrays made read-only."""
    if isinstance(x, tuple):
        return tuple(map(frozen, x))
    if isinstance(x, np.ndarray):
        x.flags.writeable = False
    return x


def singles(kinds, draws):
    """The operands of each single call of `draws`."""
    return [tuple(SINGLE[k.lower()](x) for k, x in zip(kinds, d)) for d in draws]


def stacked(kinds, draws, layout=None):
    """The operands of one call over `draws`: operand j stacks draws[i][j]
    over the index array layout[j], by default every call in order for a
    lowercase kind; an operand with no index array is the first call's,
    single."""
    if layout is None:
        layout = {j: np.arange(len(draws)) for j, k in enumerate(kinds) if k.islower()}
    return tuple(regroup(STACKED.get(k, np.array)([draws[i][j] for i in layout[j].ravel()]), layout[j].shape)
                 if j in layout else SINGLE[k.lower()](draws[0][j]) for j, k in enumerate(kinds))


def regroup(x, lead):
    """A stacked operand with its leading axis split into `lead`."""
    if isinstance(x, (TangentVector, DiscGenerator, MirrorTransformation)):
        return type(x)(*(regroup(v, lead) for v in vars(x).values()))
    return x.reshape(lead + x.shape[1:])


def parts(value):
    """A kernel's value as a tuple of arrays and scalars."""
    if isinstance(value, BallPoint):
        return value.vector, value.gap
    if isinstance(value, ExtendedOperator):
        return (value.matrix,)
    if isinstance(value, (TangentVector, MirrorTransformation, MembershipCheck)):
        return tuple(vars(value).values())
    return value if isinstance(value, tuple) else (value,)


def check_layout(row, draws, layout, calls):
    """The call that stacks `draws` over `layout` (see `stacked`) against
    its single calls, one per index of the broadcast leading axes, under
    `row`'s rule; `calls` holds the single calls made so far, by the
    draws that each operand takes."""
    lead = np.broadcast_shapes(*(i.shape for i in layout.values()))
    index = [np.broadcast_to(layout[j], lead).ravel() if j in layout else np.zeros(np.prod(lead), int)
             for j in range(len(row.kinds))]
    picks = {key: tuple(draws[i][j] for j, i in enumerate(key)) for key in zip(*index)}
    for key in picks.keys() - calls.keys():
        calls[key] = row.kernel(*singles(row.kinds, [picks[key]])[0])
    value = row.kernel(*stacked(row.kinds, draws, layout))
    keys = list(zip(*index))
    for got, want in zip(parts(value), zip(*(parts(calls[key]) for key in keys))):
        # a single call gives Python scalars, never numpy ones
        assert all(type(x) in (bool, float, complex) or type(x) is np.ndarray and x.ndim for x in want)
        got = np.reshape(got, (-1,) + np.shape(got)[len(lead):])
        assert same_bytes(got, np.array(want)), layout
    # a membership row draws one call off its set, whose verdict alone is False
    assert not isinstance(value, MembershipCheck) or np.count_nonzero(~value.ok) == 1, layout


def check_stack(row, dim):
    draws, n = draw(row, dim, row.count), row.count
    lower = [j for j, k in enumerate(row.kinds) if k.islower()]
    layouts = [dict.fromkeys(lower, np.arange(n))]
    if "axes" not in row.exempt:
        layouts.append(dict.fromkeys(lower, np.arange(n).reshape(2, -1)))
    if dim == 4 and len(lower) > 1 and "one" not in row.exempt:
        # one operand stacked against the others single, and one single
        # against the others' stacks
        layouts += [dict.fromkeys(keep, np.arange(3))
                    for keep in {frozenset(s) for j in lower for s in ([j], set(lower) - {j})}]
        # the first operand's leading axes against the others', which
        # broadcast apart: (2, 1) against (1, 3), and (3,) against (2, 3)
        layouts += [{**dict.fromkeys(lower, rest), lower[0]: first} for first, rest in
                    [(np.arange(2)[:, None], np.arange(3)[None]), (np.arange(3), np.arange(6).reshape(2, 3))]
                    if "axes" not in row.exempt]
    calls = {}
    for layout in layouts:
        check_layout(row, draws, layout, calls)


def spoiled(kind, x, bad):
    """A single operand of `kind` made bad: NaN, or a point past the rim."""
    if kind == "g":
        return math.nan, x[1]
    if kind == "t":
        return spoiled("a", x[0], bad), x[1]
    if kind in "cx":
        return complex(x) * RIM / abs(x) if bad == "rim" else math.nan
    y = np.array(x, dtype=complex)
    if bad == "rim":
        return RIM * y / np.linalg.norm(y, axis=-1, keepdims=True)
    y[...] = math.nan
    return y


def check_bad(row, bad, dim=4):
    draws = draw(row, dim)
    if bad == "spoil":
        cases = [(j, make, message) for j, (make, message) in row.spoil.items()]
    else:
        cases = [(j, functools.partial(spoiled, k, bad=bad), None) for j, k in enumerate(row.kinds)
                 if k.islower() and (bad == "nan" or k in POINTS)]
    for j, make, message in cases:
        bad_draws = [d[:j] + (make(d[j]),) + d[j + 1:] if i == BAD else d for i, d in enumerate(draws)]
        with pytest.raises(DomainError, match=message) as caught:
            row.kernel(*stacked(row.kinds, bad_draws))
        if row.kinds[j] in POINTS and bad != "spoil":
            # the first bad point over the flattened leading axes
            assert caught.value.row == BAD * np.prod(np.shape(draws[0][j])[:-1], dtype=int), (j, bad)


def check_broadcast(row, _, dim=4):
    # the first stacked operand over 3 calls, the second over 4, any other single
    lower = [j for j, k in enumerate(row.kinds) if k.islower()]
    draws = draw(row, dim)
    if len(lower) == 1:  # a disc generator's a against its b
        g = stacked(row.kinds, draws)[0]
        args = [DiscGenerator(g.a[:3], g.b[:4])]
    else:
        args = stacked(row.kinds, draws, {lower[0]: np.arange(3), lower[1]: np.arange(4)})
    # the message names the rule and both leading shapes
    with pytest.raises(DomainError, match="do not broadcast|one value per point|of one shape") as caught:
        row.kernel(*args)
    assert "(3," in str(caught.value) and "(4," in str(caught.value)


def check_huge(row, _):
    good = draw(row, HUGE_DIM, count=1)[0]
    for case in row.huge(*good):
        # the case alone, and after a good call that takes its shared operands
        paired = tuple(c if k.isupper() else g for k, g, c in zip(row.kinds, good, case))
        for args in (singles(row.kinds, [case])[0], stacked(row.kinds, [paired, case])):
            with warnings.catch_warnings(), pytest.raises(DomainError, match=row.overflow):
                warnings.simplefilter("error")
                row.kernel(*args)
    if hasattr(row.kernel, "__wrapped__"):
        args = singles(row.kinds, [good])[0]
        for a, b in zip(parts(row.kernel(*args)), parts(row.kernel.__wrapped__(*args))):
            assert same_bytes([a], [b])


def check_mismatch(row, _):
    # the first operand one dimension up from the others
    small, big = draw(row, 2, count=1)[0], draw(row, 3, count=1)[0]
    with pytest.raises(DomainError):
        row.kernel(*singles(row.kinds, [big[:1] + small[1:]])[0])


# each check with the cases it runs for a row that names none of them in `exempt`
CHECKS = {"stack": (check_stack, DIMS), "bad": (check_bad, BADS), "broadcast": (check_broadcast, (None,)),
          "huge": (check_huge, (None,)), "mismatch": (check_mismatch, (None,))}


def rows_with(check):
    """The rows that keep `check`: not exempt, and not failing it by a FOUND defect."""
    return [name for name, row in ROWS.items() if check not in {**row.exempt, **row.found}]


# Shares of the table that tests of the kernel modules run under the names
# they had before the table, since tier-1's test ids are a floor (ROADMAP):
# test -> (check, rows[, cases]), by default all the check's cases.  A
# parametrized one runs the row or the case its parameter picks.
FOLDED = {
    # test_numerics
    "test_op_norm_stack_equals_scalar_calls": ("stack", ["op_norm"]),
    "test_mat_exp_past_the_float_range_raises_one_domain_error": ("huge", ["mat_exp", "mat_exp[times]"]),
    # test_geometry
    "test_stacked_geometry_kernels_equal_scalar_calls": ("stack", ["k_factor", "metric", "sectional_curvature_probe"]),
    "test_stack_kernels_reject_one_bad_row": ("bad", rows_with("bad"), ("nan", "rim")),
    "test_single_object_kernels_reject_mismatched_dimensions": ("mismatch", rows_with("mismatch")),
    # test_isometries
    "test_single_transports_are_their_rows_of_the_stack": ("stack", ["transport_from_origin"]),
    "test_stacked_mirrors_equal_single_mirrors": ("stack", ["mirror_apply"]),
    "test_stacked_kernels_equal_scalar_calls": (
        "stack", ["mobius_apply", "is_inhomogeneous_unitary", "check_block_conditions", "lie_algebra_check"]),
    "test_stacked_transport_inverse_differential_equal_scalar_calls": ("stack", ["inverse", "mobius_differential"]),
    "test_residual_or_product_past_the_float_range_raises_one_domain_error": (
        "huge", ["is_inhomogeneous_unitary", "check_block_conditions", "lie_algebra_check", "is_self_adjoint",
                 "star_operator"]),
    # test_algebra
    "test_evaluate_past_the_float_range_raises_one_domain_error": ("huge", ["evaluate"]),
    "test_kernel_past_the_float_range_raises_one_domain_error": (
        "huge", ["evaluate_blocks", "holo_differential", "star_pointwise", "poisson_bracket", "dispersion",
                 "gradient", "hamiltonian_field"]),
    "test_operator_stacks_that_do_not_broadcast_raise_domain_error": (
        "broadcast", ["star_pointwise", "poisson_bracket", "star_operator"]),
    "test_stacked_evaluate_and_fit_equal_scalar_calls": ("stack", ["evaluate", "fit_operator"]),
    "test_stacked_star_kernels_equal_scalar_calls": (
        "stack", ["star_operator", "holo_differential", "gradient", "star_pointwise"]),
    "test_stacked_field_kernels_equal_scalar_calls": (
        "stack", ["hamiltonian_field", "evaluate_blocks", "dispersion", "poisson_bracket", "kahler_condition_check"]),
    # test_dynamics
    "test_evolve_exp_past_the_float_range_raises_one_domain_error": ("huge", ["evolve_exp", "evolve_exp[times]"]),
    "test_closed_flows_past_the_float_range_raise_one_domain_error": (
        "huge", ["schrodinger_evolve", "schrodinger_evolve[times]", "disc_evolve_closed"]),
    "test_time_array_flows_equal_scalar_calls": ("stack", ["evolve_exp[times]", "schrodinger_evolve[times]"]),
    "test_stacked_flows_equal_scalar_calls": ("stack", ["evolve_exp", "schrodinger_evolve"]),
    "test_stacked_flows_reject_bad_generators": ("bad", ["evolve_exp", "schrodinger_evolve"], ("spoil",)),
    "test_stacked_disc_flows_equal_scalar_calls": ("stack", ["disc_evolve_closed", "DiscGenerator"]),
    "test_disc_generator_shapes_that_do_not_broadcast_raise_domain_error": (
        "broadcast", ["DiscGenerator", "alpha", "disc_evolve_closed"]),
}
MODULES = ("test_numerics", "test_geometry", "test_isometries", "test_algebra", "test_dynamics")


def share(test, pick=None):
    """The (check, row, case) triples that `test` of FOLDED runs, or the
    ones of them that its parameter `pick` picks."""
    check, names, *cases = FOLDED[test]
    return [(check, name, case) for name in names for case in (cases[0] if cases else CHECKS[check][1])
            if case not in ROWS[name].exempt and pick in (None, name, case)]


CLAIMED = {triple for test in FOLDED for triple in share(test)}


def folded(request):
    """Runs the share of the calling test (FOLDED)."""
    callspec = getattr(request.node, "callspec", None)
    triples = share(request.function.__name__, *(callspec.params.values() if callspec else ()))
    assert triples
    for check, name, case in triples:
        CHECKS[check][0](ROWS[name], case)


def unfolded(check, name):
    """The cases of `check` on the row `name` that no FOLDED test runs."""
    return [case for case in CHECKS[check][1] if case not in ROWS[name].exempt and (check, name, case) not in CLAIMED]


@pytest.mark.parametrize("check, name", [
    pytest.param(check, name, marks=[pytest.mark.xfail(strict=True, reason=row.found[check])] if check in row.found
                 else []) for check in CHECKS for name, row in ROWS.items()
    if check not in row.exempt and unfolded(check, name)])
def test_kernel_contract(check, name):
    for case in unfolded(check, name):
        CHECKS[check][0](ROWS[name], case)


def test_each_share_runs_under_one_test():
    tests = {name: test for module in MODULES for name, test in vars(importlib.import_module(module)).items()
             if name in FOLDED}
    assert tests.keys() == FOLDED.keys()
    triples = [t for test in FOLDED for t in share(test)]
    assert len(set(triples)) == len(triples)
    assert not any(check in {**ROWS[name].exempt, **ROWS[name].found} for check, name, _ in triples)
    for name, test in tests.items():
        # a parametrized test picks each row or each case of its share once
        picks = [v for mark in getattr(test, "pytestmark", []) if mark.name == "parametrize" for v in mark.args[1]]
        picked = [t for pick in picks for t in share(name, pick)]
        assert not picks or len(picked) == len(share(name)) and set(picked) == set(share(name)), name


def test_every_public_callable_has_a_row_or_a_reason():
    public = {name for module in (numerics, geometry, isometries, algebra, dynamics)
              for name, value in vars(module).items()
              if not name.startswith("_") and callable(value) and value.__module__ == module.__name__}
    tabled = {name.split("[")[0] for name in ROWS}
    assert public - tabled - set(UNTABLED) == set()
    assert tabled & set(UNTABLED) == set() and (tabled | set(UNTABLED)) - public == set()
    assert all(reason for row in ROWS.values() for reason in row.exempt.values())


def test_malformed_operands_raise_one_domain_error():
    # input numpy cannot read as a complex array: a ragged list and a string
    C, z = np.eye(3), np.zeros(2)
    kernels = (numerics.op_norm, numerics.mat_exp, ExtendedOperator, lambda M: algebra.star_operator(M, C),
               lambda M: algebra.evaluate(M, z), BallPoint)
    for bad in ([[0.5, 0.1], [0.2]], "ab"):
        for kernel in kernels:
            with pytest.raises(DomainError, match="^cannot read (list|str) as a (complex matrix|point)$"):
                kernel(bad)
    # the numerics kernels take arrays, not the operator type
    for kernel in (numerics.op_norm, numerics.mat_exp):
        with pytest.raises(DomainError, match="^cannot read ExtendedOperator as a complex matrix$"):
            kernel(ExtendedOperator(np.eye(2)))


def test_an_extended_operator_comes_out_where_one_went_in(rng):
    # raw arrays give arrays; an ExtendedOperator, or for the transport a
    # single BallPoint, gives an ExtendedOperator
    u = point(rng, 2)
    T = isometries.transport_from_origin(u)
    for raw, wrapped in [(T, isometries.transport_from_origin(BallPoint(u))),
                         (isometries.inverse(T), isometries.inverse(ExtendedOperator(T))),
                         (algebra.star_operator(T, T), algebra.star_operator(ExtendedOperator(T), T))]:
        assert type(raw) is np.ndarray and type(wrapped) is ExtendedOperator
        assert same_bytes(raw, wrapped.matrix)
    assert type(isometries.transport_from_origin(BallPoint(u[None]))) is np.ndarray
    assert type(numerics.mat_exp(T)) is np.ndarray
    with pytest.raises(DomainError):
        numerics.mat_exp(ExtendedOperator(T))
