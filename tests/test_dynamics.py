import cmath
import math
import warnings

import mpmath
import numpy as np
import pytest
import scipy.linalg

from hilbertball import dynamics
from hilbertball.algebra import SELF_ADJOINT_TOL, dispersion, is_self_adjoint
from hilbertball.dynamics import (
    TIME_BLOCK,
    DiscGenerator,
    HamiltonianGenerator,
    alpha,
    disc_evolve_closed,
    evolve_exp,
    schrodinger_evolve,
    trajectory,
)
from hilbertball.errors import DomainError
from hilbertball.geometry import BallPoint, distance
from hilbertball.isometries import ExtendedOperator, lie_algebra_check, mobius_apply
from hilbertball.numerics import mat_exp, op_norm

from conftest import cgauss, lie_element, random_point, same_bytes, spectral_hermitian


# ---------------------------------------------------------------------
# oracle: every closed-form branch is checked against the exponential
# route, which shares no code with the quotient formulas.
# ---------------------------------------------------------------------

def disc_generators():
    return [
        DiscGenerator(0.3, 0.8 + 0.2j),   # alpha > 0
        DiscGenerator(1.1, 0.4 - 0.3j),   # alpha < 0
        DiscGenerator(1.0, 1.0j),         # alpha = 0
        DiscGenerator(0.7, 0.0),          # pure rotation
    ]


def test_closed_form_matches_exponential(rng):
    worst = 0.0
    for g in disc_generators():
        for _ in range(15):
            z = 0.85 * math.sqrt(rng.uniform()) * cmath.exp(2j * math.pi * rng.uniform())
            t = float(rng.uniform(-2.5, 2.5))
            closed = disc_evolve_closed(g, z, t)
            viaexp = evolve_exp(g.extended(), BallPoint([z]), t).vector[0]
            worst = max(worst, abs(closed - viaexp))
    assert worst < 1e-9


def test_closed_form_frozen_values():
    z = 0.25 - 0.35j
    got = disc_evolve_closed(DiscGenerator(0.3, 0.8 + 0.2j), z, 1.7)
    assert abs(got - (0.8161518399524931 + 0.468439698387984j)) < 1e-12
    got = disc_evolve_closed(DiscGenerator(1.1, 0.4 - 0.3j), z, 2.3)
    assert abs(got - (-0.3762519009653822 + 0.3117225688957735j)) < 1e-12
    got = disc_evolve_closed(DiscGenerator(1.0, 1.0j), z, 0.9)
    assert abs(got - (-0.2794766118108194 + 0.6723924258581434j)) < 1e-12


def test_rotation_branch_exact():
    g = DiscGenerator(math.pi / 4.0, 0.0)
    got = disc_evolve_closed(g, 0.3, 1.0)
    assert abs(got - 0.3j) < 1e-12


def test_alpha_signs():
    assert alpha(DiscGenerator(0.3, 0.8 + 0.2j)) > 0.0
    assert alpha(DiscGenerator(1.1, 0.4 - 0.3j)) < 0.0
    assert alpha(DiscGenerator(1.0, 1.0j)) == 0.0


def test_alpha_never_reads_nan(rng):
    # the plain |b|^2 - a^2 reads NaN when both squares overflow
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert alpha(DiscGenerator(1e200, 1e200j)) == 0.0
        assert alpha(DiscGenerator(1e200, 2e200j)) == math.inf
        assert alpha(DiscGenerator(2e200, -1e200)) == -math.inf
        # ordinary generators, alone and as arrays, keep the plain bits
        a = rng.uniform(-3.0, 3.0, 200)
        b = rng.uniform(-3.0, 3.0, 200) + 1j * rng.uniform(-3.0, 3.0, 200)
        assert same_bytes(alpha(DiscGenerator(a, b)), np.abs(b) ** 2 - a ** 2)
        for g in disc_generators():
            assert alpha(g) == abs(g.b) ** 2 - g.a ** 2


@pytest.mark.parametrize("a, b", [(math.nan, 0.8), (math.inf, 0.8), (0.3, complex(0.8, math.nan)),
                                  (0.3, complex(-math.inf, 0.2)), (np.array([0.3, math.nan]), 0.8)])
def test_non_finite_disc_generators_are_rejected(a, b):
    # a stack of generators is rejected for one bad entry; a trajectory
    # takes a single generator
    g = DiscGenerator(a, b)
    calls = [lambda: disc_evolve_closed(g, 0.5, 0.0), lambda: alpha(g)]
    if np.ndim(a) == 0:
        calls.append(lambda: trajectory(g, BallPoint([0.5]), 1.0, 0.1))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for call in calls:
            with pytest.raises(DomainError, match="disc generator has non-finite a or b"):
                call()


def test_disc_flow_group_law(rng):
    worst = 0.0
    for g in disc_generators():
        for _ in range(10):
            z = 0.7 * math.sqrt(rng.uniform()) * cmath.exp(2j * math.pi * rng.uniform())
            t, s = float(rng.uniform(-1.5, 1.5)), float(rng.uniform(-1.5, 1.5))
            once = disc_evolve_closed(g, z, t + s)
            twice = disc_evolve_closed(g, disc_evolve_closed(g, z, t), s)
            worst = max(worst, abs(once - twice))
    assert worst < 1e-9


def test_disc_flow_keeps_disc(rng):
    for g in disc_generators():
        for _ in range(25):
            z = 0.97 * math.sqrt(rng.uniform()) * cmath.exp(2j * math.pi * rng.uniform())
            assert abs(disc_evolve_closed(g, z, float(rng.uniform(-4, 4)))) < 1.0


@pytest.mark.xfail(strict=True, reason="the exact orbit nears the rim like e^{-2st}, faster than a "
                   "float w can follow: the README disc example at t = 40, FOUND in CHANGES.md")
def test_hyperbolic_disc_flow_stays_inside_at_t_40():
    w = disc_evolve_closed(DiscGenerator(0.3, 0.8 + 0.2j), 0.5, 40.0)
    assert 1.0 - abs(w) ** 2 > 0.0


def test_disc_rejects_boundary():
    # the ball's own rule: 1 - 1e-13 is inside the unit disc but past
    # BallPoint's margin, and both raise the same error
    for z in (1.0 + 0j, 1.0 - 1e-13):
        with pytest.raises(DomainError) as disc:
            disc_evolve_closed(DiscGenerator(0.5, 0.1), z, 0.3)
        with pytest.raises(DomainError) as ball:
            BallPoint([z])
        assert str(disc.value) == str(ball.value)


@pytest.mark.parametrize("z, message", [
    (1e200, "point with norm inf is outside the open ball"),
    (complex(0.0, np.inf), "point has non-finite entries"),
])
def test_disc_rejects_huge_points_without_a_warning(z, message):
    with pytest.raises(DomainError) as caught:
        disc_evolve_closed(DiscGenerator(0.3, 0.8), z, 1.0)
    assert str(caught.value) == message


def test_generators_sit_in_lie_algebra(rng):
    for g in disc_generators():
        assert lie_algebra_check(g.extended()).defect < 1e-13
    H = cgauss(rng, (3, 3))
    H = 0.5 * (H + H.conj().T)
    gen = HamiltonianGenerator(H)
    assert lie_algebra_check(gen.extended()).defect < 1e-13


def test_evolve_exp_rejects_non_generator(rng):
    G = cgauss(rng, (3, 3))
    bad = ExtendedOperator.from_blocks(G + G.conj().T, cgauss(rng, 3), cgauss(rng, 3), 1.0)
    with pytest.raises(DomainError):
        evolve_exp(bad, random_point(rng, 3), 0.5)


def test_evolve_exp_past_the_float_range_raises_one_domain_error():
    # the boost's exp(800 X) overflows in mat_exp's squaring
    X = ExtendedOperator(np.array([[0, 0, 1], [0, 0, 0], [1, 0, 0]], dtype=complex))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError, match=r"^exp\(tX\) overflowed the float range in mat_exp$"):
            evolve_exp(X, np.array([0.1, 0.2]), 800.0)
        with pytest.raises(DomainError, match=r"^exp\(tX\) overflowed"):
            evolve_exp(X, np.array([0.1, 0.2]), np.array([0.5, 800.0]))


@pytest.mark.filterwarnings("error")
def test_closed_flows_past_the_float_range_raise_one_domain_error():
    # lambda t past the float range leaves the phases of the Schroedinger
    # flow undefined, and st those of an elliptic disc flow: one DomainError
    # for a single time and for one time of an array, and no numpy warning
    H, z = HamiltonianGenerator(np.diag([3.0, -1.0])), BallPoint([0.1, 0.2])
    for t in (2.0 ** 1023, np.array([0.5, 2.0 ** 1023])):
        with pytest.raises(DomainError, match="^point has non-finite entries$"):
            schrodinger_evolve(H, z, t)
        with pytest.raises(DomainError, match="^the flow overflowed the float range in disc_evolve_closed$"):
            disc_evolve_closed(DiscGenerator(1e300, 0.0), 0.5, t)
    # a hyperbolic s past the float range is no such case: at t = 0 the
    # flow is z itself, where inf * 0 once read NaN
    assert disc_evolve_closed(DiscGenerator(0.3, 1.7e308 + 1.7e308j), 0.5, 0.0) == 0.5


def test_exp_flow_preserves_distance(rng):
    worst = 0.0
    for _ in range(20):
        X = lie_element(rng, 3)
        t = float(rng.uniform(-1.5, 1.5))
        u, v = random_point(rng, 3, 0.8), random_point(rng, 3, 0.8)
        du = distance(evolve_exp(X, u, t), evolve_exp(X, v, t))
        worst = max(worst, abs(du - distance(u, v)))
    assert worst < 1e-9


# quantum (linear) evolution ------------------------------------------

def test_schrodinger_matches_scipy():
    H = np.array([[1.0, 0.5 - 0.25j], [0.5 + 0.25j, -0.3]])
    gen = HamiltonianGenerator(H)
    z = BallPoint(np.array([0.3 + 0.1j, -0.2 + 0.25j]))
    got = schrodinger_evolve(gen, z, 0.7)
    oracle = scipy.linalg.expm(-0.7j * H) @ z.vector
    assert np.linalg.norm(got.vector - oracle) < 1e-12


def test_schrodinger_preserves_norm(rng):
    H = cgauss(rng, (4, 4))
    H = 0.5 * (H + H.conj().T)
    gen = HamiltonianGenerator(H)
    z = random_point(rng, 4, 0.9)
    for t in (0.1, 1.0, 7.5):
        out = schrodinger_evolve(gen, z, t)
        assert abs(out.norm() - z.norm()) < 1e-13


def test_schrodinger_residual_small():
    # central difference of the flow solves the equation of motion
    H = np.array([[0.6, 0.2 + 0.4j], [0.2 - 0.4j, -0.9]])
    gen = HamiltonianGenerator(H)
    z = BallPoint(np.array([0.4 + 0j, 0.1 - 0.3j]))
    t, dt = 0.8, 1e-4
    plus = schrodinger_evolve(gen, z, t + dt).vector
    minus = schrodinger_evolve(gen, z, t - dt).vector
    mid = schrodinger_evolve(gen, z, t).vector
    residual = (plus - minus) / (2.0 * dt) + 1j * (H @ mid)
    assert np.linalg.norm(residual) < 1e-6


def test_hamiltonian_generator_validation(rng):
    with pytest.raises(DomainError):
        HamiltonianGenerator(cgauss(rng, (3, 3)))  # not self-adjoint
    with pytest.raises(DomainError):
        HamiltonianGenerator(np.zeros((2, 3)))  # not square
    with pytest.raises(DomainError, match="non-finite"):
        HamiltonianGenerator(np.full((2, 2), np.nan))


@pytest.mark.parametrize("size", [1e4, 1e6])
def test_large_self_adjoint_hamiltonians_are_accepted(size):
    # the roundoff of Q diag(lambda) Q* grows with ||H||: at 1e4 most of
    # these draws are off by more than the absolute 1e-12, which rejected
    # them before the tolerance scaled with max(1, ||H||)
    rng = np.random.default_rng(7)
    H = np.array([spectral_hermitian(rng, 4, size) for _ in range(20)])
    assert np.count_nonzero(op_norm(H - H.conj().swapaxes(-1, -2)) > SELF_ADJOINT_TOL) >= 10
    assert is_self_adjoint(H).ok.all()
    for Hi in H:
        assert np.array_equal(HamiltonianGenerator(Hi).H, Hi)
    z = random_point(rng, 4, 0.8)
    assert schrodinger_evolve(H, np.broadcast_to(z.vector, (20, 4)), 0.1).shape == (20, 4)
    assert dispersion(ExtendedOperator(H[0]), random_point(rng, 3)) >= 0.0


@pytest.mark.parametrize("size", [1.0, 1e4, 1e6])
def test_hamiltonian_off_self_adjoint_by_relative_1e6_is_rejected(size):
    rng = np.random.default_rng(7)
    H = spectral_hermitian(rng, 4, size)
    G = cgauss(rng, (4, 4))
    K = G - G.conj().T
    off = H + 1e-6 * size / op_norm(K) * K
    assert not is_self_adjoint(off)
    with pytest.raises(DomainError, match="self-adjoint"):
        HamiltonianGenerator(off)
    with pytest.raises(DomainError, match="self-adjoint"):
        schrodinger_evolve(np.stack([H, off]), np.zeros((2, 4)), 0.1)
    with pytest.raises(DomainError, match="self-adjoint"):
        dispersion(ExtendedOperator(off), random_point(rng, 3))


def test_schrodinger_dimension_check(rng):
    H = np.eye(3)
    with pytest.raises(DomainError):
        schrodinger_evolve(HamiltonianGenerator(H), random_point(rng, 2), 0.1)


# trajectories --------------------------------------------------------

def test_trajectory_grid_and_interior():
    g = DiscGenerator(0.4, 0.3 + 0.1j)
    times, points = trajectory(g, BallPoint([0.2 + 0.1j]), 1.0, 0.25)
    assert times.shape == (5,) and points.shape == (5, 1)
    for i, t in enumerate(times):
        assert t == i * 0.25
    assert np.all(np.abs(points) < 1.0)
    assert points[0, 0] == 0.2 + 0.1j


def test_trajectory_matches_pointwise_flow():
    g = DiscGenerator(0.9, 0.5j)
    z0 = BallPoint([0.3 - 0.2j])
    for t, p in zip(*trajectory(g, z0, 2.0, 0.5)):
        direct = disc_evolve_closed(g, z0.vector[0], t)
        assert abs(p[0] - direct) < 1e-9


def test_trajectory_dispatches_all_generator_kinds(rng):
    H = cgauss(rng, (3, 3))
    H = 0.5 * (H + H.conj().T)
    z = random_point(rng, 3, 0.5)
    for gen in (HamiltonianGenerator(H), lie_element(rng, 3)):
        times, points = trajectory(gen, z, 0.6, 0.2)
        assert times.shape == (4,) and points.shape == (4, 3)
        assert np.all(np.linalg.norm(points, axis=-1) < 1.0)


def hamiltonian(rng, dim):
    H = cgauss(rng, (dim, dim))
    return HamiltonianGenerator(0.5 * (H + H.conj().T))


def batched_flows(rng):
    """(generator, flow) for the two flows that take an array of times."""
    return ((lie_element(rng, 3), evolve_exp), (hamiltonian(rng, 3), schrodinger_evolve))


def test_time_array_flows_equal_scalar_calls(rng):
    z = random_point(rng, 3, 0.8)
    times = [0.0, 1.7, -0.4, 0.05, 3.2, -2.9]
    for gen, flow in batched_flows(rng):
        for ts in (times, np.array(times)):
            points = flow(gen, z, ts)
            assert points.shape == (len(times), 3)
            for t, p in zip(times, points):
                assert same_bytes(p, flow(gen, z, t).vector)


@pytest.mark.parametrize("t", [np.zeros((2, 2)), np.array([0.1, np.nan]), np.nan, np.inf])
def test_time_array_flows_reject_bad_times(rng, t):
    z = random_point(rng, 3, 0.8)
    with pytest.raises(DomainError):
        evolve_exp(lie_element(rng, 3), z, t)
    with pytest.raises(DomainError):
        schrodinger_evolve(hamiltonian(rng, 3), z, t)
    # and the closed disc form, in every regime
    for g in disc_generators():
        with pytest.raises(DomainError):
            disc_evolve_closed(g, 0.3, t)


def test_time_array_flows_reject_unpaired_points(rng):
    # the points' leading axes pair with the times, so 4 points need 4 times
    Z = np.array([random_point(rng, 3, 0.8).vector for _ in range(4)])
    times = np.array([0.0, 0.5, 1.0])
    for gen, flow in batched_flows(rng):
        raw = gen.H if isinstance(gen, HamiltonianGenerator) else gen.matrix
        for g in (gen, raw):
            with pytest.raises(DomainError):
                flow(g, Z, times)


def test_stacked_flows_equal_scalar_calls(rng):
    Z = np.array([random_point(rng, 3, 0.8).vector for _ in range(5)])
    X = np.array([lie_element(rng, 3).matrix for _ in range(5)])
    H = np.array([hamiltonian(rng, 3).H for _ in range(5)])
    for stack, single, flow in ((X, ExtendedOperator, evolve_exp),
                                (H, HamiltonianGenerator, schrodinger_evolve)):
        for t in (0.8, -2.5):
            moved = flow(stack, Z, t)
            assert moved.shape == Z.shape
            for M, z, w in zip(stack, Z, moved):
                assert np.abs(w - flow(single(M), BallPoint(z), t).vector).max() < 1e-15


def test_stacked_flows_reject_bad_generators(rng):
    Z = np.array([random_point(rng, 3, 0.8).vector for _ in range(3)])
    X = np.array([lie_element(rng, 3).matrix for _ in range(3)])
    X[1, 0, 1] += 0.1
    H = np.array([hamiltonian(rng, 3).H for _ in range(3)])
    H[2, 0, 1] += 0.1j
    with pytest.raises(DomainError, match="Lie algebra"):
        evolve_exp(X, Z, 1.0)
    with pytest.raises(DomainError, match="self-adjoint"):
        schrodinger_evolve(H, Z, 1.0)


def flows_of_norm(rng, dim, norm):
    """(generator, flow, horizon) for both batched flows with operator
    norm `norm`: the Schroedinger flow runs to t = 40; the exponential
    flow, whose orbit may run out to the rim, to norm * t = 8 at most."""
    H = hamiltonian(rng, dim).H
    X = lie_element(rng, dim).matrix
    return (
        (HamiltonianGenerator(norm / op_norm(H) * H), schrodinger_evolve, 40.0),
        (ExtendedOperator(norm / op_norm(X) * X), evolve_exp, min(40.0, 8.0 / norm)),
    )


def scipy_flow(gen, z, times):
    """Every sample of the flow from scipy's expm, one matrix per time."""
    if isinstance(gen, HamiltonianGenerator):
        return scipy.linalg.expm(-1j * times[:, None, None] * gen.H) @ z.vector
    E = scipy.linalg.expm(times[:, None, None] * gen.matrix)
    W = E[:, :, :-1] @ z.vector + E[:, :, -1]
    return W[:, :-1] / W[:, -1:]


@pytest.mark.parametrize("dim", [1, 3, 8, 16])
@pytest.mark.parametrize("norm", [0.1, 0.5, 2.0])
def test_trajectory_stays_on_per_step_flow(rng, dim, norm):
    # a Schroedinger trajectory is one spectral call over all times, so
    # every sample is the per-step flow; an exponential flow's later
    # blocks are its first block moved by the group law, so they leave
    # the per-step exponentials by roundoff
    z = random_point(rng, dim, 0.8)
    for gen, flow, t_max in flows_of_norm(rng, dim, norm):
        times, points = trajectory(gen, z, t_max, 0.02)
        assert len(times) == int(round(t_max / 0.02)) + 1 > 2 * TIME_BLOCK
        assert all(t == i * 0.02 for i, t in enumerate(times.tolist()))
        per_step = flow(gen, z, times)
        exact = len(times) if flow is schrodinger_evolve else TIME_BLOCK
        assert same_bytes(points[:exact], per_step[:exact])
        assert np.abs(points - per_step).max() < 1e-13
        assert np.abs(points - scipy_flow(gen, z, times)).max() < 1e-13


@pytest.mark.parametrize("dim", [1, 2, 5, 16])
@pytest.mark.parametrize("norm", [0.1, 1.0, 2.0])
def test_spectral_schrodinger_matches_the_exponential_route(rng, dim, norm):
    # exp(-iHt) from one eigendecomposition against the Moebius flow of
    # the extended generator, which goes through mat_exp, up to t = 40
    H = hamiltonian(rng, dim).H
    gen = HamiltonianGenerator(norm / op_norm(H) * H)
    z = random_point(rng, dim, 0.8)
    times = np.linspace(0.0, 40.0, 161)
    got = schrodinger_evolve(gen, z, times)
    assert np.abs(got - evolve_exp(gen.extended(), z, times)).max() < 1e-13
    assert np.abs(np.linalg.norm(got, axis=-1) - z.norm()).max() < 1e-14


def test_exp_trajectory_checks_its_generator_once(rng, monkeypatch):
    calls = []

    def counted(X, *tol):
        calls.append(X)
        return lie_algebra_check(X, *tol)

    monkeypatch.setattr(dynamics, "lie_algebra_check", counted)
    X = lie_element(rng, 3)
    X = ExtendedOperator(0.5 / op_norm(X.matrix) * X.matrix)
    times, points = trajectory(X, random_point(rng, 3, 0.5), 5.0, 0.005)
    assert points.shape == (1001, 3) and len(calls) == 1


@pytest.mark.parametrize("samples", [2, 64, 65, 128, 129, 1001])
@pytest.mark.parametrize("dim", [1, 3, 8])
def test_exp_trajectory_equals_block_by_block_shifts(rng, dim, samples):
    # each later block is the block before it moved by one exponential,
    # exp(TIME_BLOCK dt X); the reference moves the blocks one at a time
    X = lie_element(rng, dim)
    X = ExtendedOperator(0.5 / op_norm(X.matrix) * X.matrix)
    z = random_point(rng, dim, 0.6)
    times, points = trajectory(X, z, (samples - 1) * 0.01, 0.01)
    assert len(times) == samples
    blocks, shift = [evolve_exp(X, z, times[:TIME_BLOCK])], mat_exp(X.matrix, TIME_BLOCK * 0.01)
    for start in range(TIME_BLOCK, samples, TIME_BLOCK):
        blocks.append(mobius_apply(shift, blocks[-1][:samples - start]))
    assert same_bytes(points, np.concatenate(blocks))


@pytest.mark.parametrize("samples", [2, 64, 65, 129, 1001, 8001])
def test_exp_trajectory_makes_at_most_two_exponentials(rng, monkeypatch, samples):
    # the head block's batched exponential, and one shift for all later blocks
    calls = []

    def counted(X, t=1.0):
        calls.append(t)
        return mat_exp(X, t)

    monkeypatch.setattr(dynamics, "mat_exp", counted)
    X = lie_element(rng, 3)
    X = ExtendedOperator(0.5 / op_norm(X.matrix) * X.matrix)
    times, points = trajectory(X, random_point(rng, 3, 0.5), (samples - 1) * 0.001, 0.001)
    assert len(points) == samples
    assert len(calls) == (2 if samples > TIME_BLOCK else 1)


def test_exp_trajectory_raises_before_its_shifts_overflow():
    # a boost leaves the ball near t = 14, far before exp(tX) overflows
    # near t = 710: the blocks stop at the first sample outside
    X = ExtendedOperator(np.array([[0, 0, 1], [0, 0, 0], [1, 0, 0]], dtype=complex))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError, match=r"^sample 141 \(t = 14\.100000000000001\): point with "
                                              r"norm \S+ is outside the open ball$"):
            trajectory(X, BallPoint([0.1, 0.2]), 800.0, 0.1)


def test_disc_closed_form_over_times_equals_scalar_calls(rng):
    # a scalar time goes through the formula as an array of one time, so
    # every entry of the array call is bit-equal to the scalar call
    for g in disc_generators():
        times = [0.0, -0.0, 1e-300, *rng.uniform(-6.0, 6.0, 40).tolist(), *(np.arange(50) * 0.05).tolist()]
        if alpha(g) < 0.0:
            pole = math.pi / (2.0 * math.sqrt(-alpha(g)))
            times += [pole, -pole, 3.0 * pole, pole + 0.5e-8, pole - 0.5e-8, pole + 2e-8]
        for z in (0.25 - 0.35j, 0.0, 0.93j):
            w = disc_evolve_closed(g, z, np.array(times))
            assert w.shape == (len(times),)
            scalar = [disc_evolve_closed(g, z, t) for t in times]
            assert all(type(x) is complex for x in scalar)
            assert same_bytes(w, np.array(scalar))
            # t = 0 returns z itself in every regime
            assert w[0] == w[1] == z


def mpmath_disc_flow(g, z, t):
    """phi_{exp(tX)}(z) from a 50-digit `mpmath.expm` of t X, a route
    that shares nothing with the (C, S) quotient."""
    with mpmath.workdps(50):
        ia, b = mpmath.mpc(0, g.a), mpmath.mpc(g.b.real, g.b.imag)
        E = mpmath.expm(mpmath.mpf(t) * mpmath.matrix([[ia, b], [mpmath.conj(b), -ia]]))
        w = mpmath.mpc(z.real, z.imag)
        return complex((E[0, 0] * w + E[0, 1]) / (E[1, 0] * w + E[1, 1]))


def test_disc_closed_form_matches_mpmath(rng):
    # the five generator kinds at random times, and the elliptic ones
    # within 1e-9 relative of the tangent poles (pi/2 + k pi)/s, where a
    # quotient divided through by cos(st) would blow up
    gens = disc_generators() + [DiscGenerator(0.0, 0.0), DiscGenerator(1.0, 0.1)]
    worst = 0.0
    for g in gens:
        times = rng.uniform(-5.0, 5.0, 30).tolist()
        if alpha(g) < 0.0:
            s = math.sqrt(-alpha(g))
            for k in range(-2, 3):
                pole = (math.pi / 2.0 + k * math.pi) / s
                times += [pole * (1.0 + d) for d in (0.0, 1e-9, -1e-9, *rng.uniform(-1e-9, 1e-9, 3))]
        z = 0.9 * np.sqrt(rng.uniform(size=len(times))) * np.exp(2j * math.pi * rng.uniform(size=len(times)))
        w = disc_evolve_closed(g, z, np.array(times))
        exact = [mpmath_disc_flow(g, zk, tk) for zk, tk in zip(z.tolist(), times)]
        worst = max(worst, float(np.max(np.abs(w - np.array(exact)))))
    assert worst < 1e-14


@pytest.mark.parametrize("a, b, t", [
    (0.1, 1e200, 1e-200),
    (1e200, 3e199 - 2e199j, 1e-200),
    (-1e200, 1e200j, 2e-200),
    (0.0, 1e-200, 1e200),
    (1e-200, 2e-200j, 1e200),
    (3e-170, 1e-170, -1e170),
    (1.7e308, 1.7e308 + 1.7e308j, 1e-308),
    (1.7e308, 0.5e308j, 1e-308),
    (0.3, 1.7e308 + 1.7e308j, 1.0),
])
def test_disc_flow_of_extreme_generators_matches_mpmath(a, b, t):
    # |b|^2 - a^2 overflows or underflows in doubles although t X is of
    # order one, in each regime; and s past the float range, whose orbit
    # is then within e^{-2st} of the rim point b/|b|
    g = DiscGenerator(a, b)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        w = disc_evolve_closed(g, 0.3 - 0.2j, t)
    exact = mpmath_disc_flow(g, 0.3 - 0.2j, t)
    assert abs(w - exact) < 1e-15
    assert abs(w - (0.3 - 0.2j)) > 0.1


def test_disc_flow_depends_on_t_x_alone(rng):
    # (2^k a, 2^k b) at time 2^-k t has the bits of (a, b) at t: the
    # discriminant's scaling by a power of two is exact, at any k
    gens = disc_generators() + [DiscGenerator(0.0, 0.0)]
    a = np.array([g.a for g in gens])
    b = np.array([g.b for g in gens])
    z = 0.85 * np.sqrt(rng.uniform(size=a.size)) * np.exp(2j * math.pi * rng.uniform(size=a.size))
    t = rng.uniform(-3.0, 3.0, size=a.size)
    w = disc_evolve_closed(DiscGenerator(a, b), z, t)
    for k in (-600, -90, -1, 1, 7, 600):
        scaled = DiscGenerator(np.ldexp(a, k), b * 2.0 ** k)
        assert same_bytes(disc_evolve_closed(scaled, z, np.ldexp(t, -k)), w)


def test_stacked_disc_flows_equal_scalar_calls(rng):
    # every regime and a pole time in one stack: each entry has the bits
    # of its scalar call, and a, b, z and t broadcast against each other
    gens = disc_generators() + [DiscGenerator(0.0, 0.0)]
    a = np.array([g.a for g in gens] * 3)
    b = np.array([g.b for g in gens] * 3)
    z = 0.85 * np.sqrt(rng.uniform(size=a.size)) * np.exp(2j * math.pi * rng.uniform(size=a.size))
    t = rng.uniform(-3.0, 3.0, size=a.size)
    t[1] = math.pi / (2.0 * math.sqrt(-alpha(gens[1])))
    stack = DiscGenerator(a, b)
    w = disc_evolve_closed(stack, z, t)
    scalar = [disc_evolve_closed(DiscGenerator(*ab), *zt) for ab, zt in
              zip(zip(a.tolist(), b.tolist()), zip(z.tolist(), t.tolist()))]
    assert same_bytes(w, np.array(scalar))
    assert same_bytes(stack.matrix(), np.array([DiscGenerator(*ab).matrix() for ab in zip(a, b)]))
    # one generator over many points and one time, and many over one point
    assert same_bytes(disc_evolve_closed(gens[0], z, t[0]),
                      np.array([disc_evolve_closed(gens[0], zk, t[0]) for zk in z.tolist()]))
    assert disc_evolve_closed(stack, 0.3, 1.0).shape == a.shape
    with pytest.raises(DomainError, match="do not broadcast"):
        disc_evolve_closed(stack, z[:4], 1.0)
    with pytest.raises(DomainError, match="outside the open ball"):
        disc_evolve_closed(stack, np.where(np.arange(a.size) == 5, 1.0, z), t)


def test_trajectory_rejects_non_generator(rng):
    G = cgauss(rng, (3, 3))
    bad = ExtendedOperator.from_blocks(G + G.conj().T, cgauss(rng, 3), cgauss(rng, 3), 1.0)
    with pytest.raises(DomainError, match="Lie algebra"):
        trajectory(bad, random_point(rng, 3), 1.0, 0.1)


def test_trajectory_validation(rng):
    g = DiscGenerator(0.1, 0.2)
    z = BallPoint([0.1 + 0j])
    with pytest.raises(DomainError):
        trajectory(g, z, 1.0, 0.0)
    with pytest.raises(DomainError):
        trajectory(g, z, 0.05, 0.1)  # horizon shorter than one step
    with pytest.raises(DomainError, match="at least dt"):
        trajectory(g, z, 0.5e-20, 1e-20)  # the step count is relative to dt
    assert trajectory(g, z, 1e-20, 1e-20)[1].shape == (2, 1)
    assert trajectory(g, z, 0.1, 0.1)[1].shape == (2, 1)
    with pytest.raises(DomainError):
        trajectory(g, random_point(rng, 2, 0.5), 1.0, 0.1)  # disc needs dim 1
    with pytest.raises(DomainError):
        disc_evolve_closed(g, 0.1, np.zeros((2, 2)))
