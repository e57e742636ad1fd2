import numpy as np
import pytest
from hypothesis import settings
from hypothesis import strategies as st

from hilbertball.geometry import BallPoint, hermitian_energy
from hilbertball.isometries import ExtendedOperator, inverse, mobius_apply, transport_from_origin
from hilbertball.numerics import op_norm

# One hypothesis profile for tier-1: the same examples on every run, and no
# per-example deadline.  A test sets only its own max_examples.
settings.register_profile("tier1", derandomize=True, deadline=None)
settings.load_profile("tier1")

# The acceptance gate's `criterion NN PASS/FAIL` lines.  They are printed
# in the terminal summary because output written during a test is
# captured.
CRITERION_LINES = []


def pytest_terminal_summary(terminalreporter):
    if CRITERION_LINES:
        terminalreporter.section("acceptance gate")
        for line in CRITERION_LINES:
            terminalreporter.write_line(line)


def cgauss(rng, shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def haar_unitary(rng, n):
    Q, R = np.linalg.qr(cgauss(rng, (n, n)))
    d = np.diag(R)
    return Q * (d / np.abs(d))


def spectral_hermitian(rng, dim, size):
    """Q diag(lambda) Q* with Q Haar-unitary and max |lambda| = size:
    self-adjoint in exact arithmetic, off it in floating point by a
    roundoff in proportion to size."""
    lam = rng.uniform(-1.0, 1.0, dim)
    Q = haar_unitary(rng, dim)
    return (Q * (size / np.abs(lam).max() * lam)) @ Q.conj().T


def same_bytes(a, b):
    """Equal shapes and bit-for-bit equal entries; the entries are compared
    as contiguous copies, since a view such as `.real` has no byte view."""
    a, b = np.ascontiguousarray(a), np.ascontiguousarray(b)
    return a.shape == b.shape and np.array_equal(a.view(np.uint8), b.view(np.uint8))


def rows_close(stacked, singles, rel=1e-15):
    """A stacked kernel's result against the list of its single-input
    results: equal shapes, and every difference within rel times the
    largest entry."""
    a, b = np.asarray(stacked), np.array(singles)
    return a.shape == b.shape and np.abs(a - b).max() <= rel * np.abs(b).max()


def wirtinger_first(g, h=1e-4, conjugate=False):
    """The holomorphic derivative (d/dx - i d/dy)/2 at s = 0 of a scalar
    function g of one complex step s, or with `conjugate` the
    antiholomorphic one (d/dx + i d/dy)/2, by central differences of
    spacing h along the two axes."""
    gx = (g(h) - g(-h)) / (2.0 * h)
    gy = (g(1j * h) - g(-1j * h)) / (2.0 * h)
    if conjugate:
        return 0.5 * (gx + 1j * gy)
    return 0.5 * (gx - 1j * gy)


def random_point(rng, dim, max_norm=0.9):
    g = cgauss(rng, dim)
    g = g / np.linalg.norm(g)
    # radius ~ uniform volume element, pushed toward the rim a little
    r = max_norm * rng.uniform() ** (1.0 / (2 * dim))
    return BallPoint(r * g)


def lie_element(rng, dim):
    """A random generator X of the group, X* eps + eps X = 0, scaled to
    at most unit operator norm."""
    G = cgauss(rng, (dim, dim))
    B = G - G.conj().T
    u = cgauss(rng, dim)
    X = ExtendedOperator.from_blocks(B, u, u, 1j * float(rng.standard_normal()))
    n = op_norm(X.matrix)
    return ExtendedOperator((1.0 / n) * X.matrix) if n > 1.0 else X


def quadrature_distance(u, v, panels=2048):
    """Oracle for the distance of two BallPoints: transport u to the
    origin, then integrate the line element along the radial segment to
    the image w of v, by the composite midpoint rule plus one Richardson
    step.  The quadrature is written out here so that the closed-form
    distance is checked against the metric itself, not against another
    formula; each rule's midpoints go through one stacked
    `hermitian_energy` call."""
    w = mobius_apply(inverse(transport_from_origin(u)), v).vector

    def arc(m):
        t = (np.arange(m) + 0.5) / m
        W = np.broadcast_to(w, (m, w.size))
        return float(np.sum(np.sqrt(hermitian_energy(t[:, None] * W, W)))) / m

    return (4.0 * arc(panels) - arc(panels // 2)) / 3.0


@pytest.fixture
def rng():
    return np.random.default_rng(20260822)


def finite(lo, hi):
    return st.floats(min_value=lo, max_value=hi, allow_nan=False, allow_infinity=False)


@st.composite
def ball_vectors(draw, dim=3, max_norm=0.9):
    re = draw(st.lists(finite(-1.0, 1.0), min_size=dim, max_size=dim))
    im = draw(st.lists(finite(-1.0, 1.0), min_size=dim, max_size=dim))
    v = np.asarray(re, dtype=float) + 1j * np.asarray(im, dtype=float)
    n = float(np.linalg.norm(v))
    scale = draw(finite(0.0, max_norm))
    if n > 0.0:
        v = v * (scale / n)
    else:
        v = np.zeros(dim, dtype=complex)
    return v


@st.composite
def complex_matrices(draw, dim=3, scale=2.0):
    re = draw(
        st.lists(
            st.lists(finite(-scale, scale), min_size=dim, max_size=dim),
            min_size=dim,
            max_size=dim,
        )
    )
    im = draw(
        st.lists(
            st.lists(finite(-scale, scale), min_size=dim, max_size=dim),
            min_size=dim,
            max_size=dim,
        )
    )
    return np.asarray(re, dtype=float) + 1j * np.asarray(im, dtype=float)
