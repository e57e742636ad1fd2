import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hilbertball import serialize
from hilbertball.errors import ParseError
from hilbertball.serialize import (
    dumps,
    format_float,
    load_matrix,
    load_vector,
    matrix_from_json,
    matrix_to_json,
    save_matrix,
    trajectory_csv,
    vector_from_json,
)

from conftest import complex_matrices


def test_format_float_normalizes_negative_zero():
    assert format_float(-0.0) == "0"
    assert format_float(0.1) == "0.10000000000000001"


@settings(max_examples=120)
@given(complex_matrices(dim=3, scale=1e6))
def test_matrix_roundtrip_is_exact(M):
    back = matrix_from_json(matrix_to_json(M))
    assert np.array_equal(back, M)


def test_roundtrip_through_text(tmp_path):
    rng = np.random.default_rng(11)
    M = rng.standard_normal((4, 2)) + 1j * rng.standard_normal((4, 2))
    p = tmp_path / "m.json"
    save_matrix(p, M)
    assert np.array_equal(load_matrix(p), M)
    # %.17g carries full binary64 precision, so the trip is bit exact
    text = p.read_text()
    assert json.loads(text)["rows"] == 4


def test_vector_roundtrip(tmp_path):
    v = np.array([1.0 + 2.0j, -0.5 + 0j])
    p = tmp_path / "v.json"
    save_matrix(p, v.reshape(-1, 1))
    assert np.array_equal(load_vector(p), v)


def test_vector_requires_single_column():
    obj = matrix_to_json(np.eye(2, dtype=complex))
    with pytest.raises(ParseError):
        vector_from_json(obj)


def test_parse_rejects_malformed_documents():
    good = matrix_to_json(np.eye(2, dtype=complex))
    for mutate in (
        lambda o: o.pop("rows"),
        lambda o: o.update(rows=0),
        lambda o: o.update(rows=True),
        lambda o: o.update(extra=1),
        lambda o: o.update(data=[[1.0, 2.0]]),
        lambda o: o["data"].__setitem__(0, [1.0]),
        lambda o: o["data"].__setitem__(0, [1.0, float("nan")]),
        lambda o: o["data"].__setitem__(0, [1.0, "x"]),
    ):
        obj = json.loads(json.dumps(good))
        mutate(obj)
        with pytest.raises(ParseError):
            matrix_from_json(obj)


class Half(float):
    """A float subclass, which the reader takes as a number."""


def per_entry_matrix(obj):
    """The reference reader: each [re, im] pair read on its own."""
    values = [complex(float(re), float(im)) for re, im in obj["data"]]
    return np.array(values, dtype=complex).reshape(obj["rows"], obj["cols"])


# Documents as JSON text: the matrix [[a], [b]] with its data in place of DATA
DOC = '{"rows": 2, "cols": 1, "data": [[0.25, -1], DATA]}'


@pytest.mark.parametrize("entry, message", [
    pytest.param(entry, message, id=name) for name, entry, message in [
        ("true", "[true, 0]", "data[1][0]: expected a number, got True"),
        ("string", '[0, "x"]', "data[1][1]: expected a number, got 'x'"),
        ("null", "[null, 0]", "data[1][0]: expected a number, got None"),
        ("nested", "[0, [1]]", "data[1][1]: expected a number, got [1]"),
        ("one", "[1]", "matrix: data[1] must be a [re, im] pair"),
        ("three", "[1, 2, 3]", "matrix: data[1] must be a [re, im] pair"),
        ("scalar", "1.5", "matrix: data[1] must be a [re, im] pair"),
        ("nan", "[0, NaN]", "data[1][1]: entries must be finite"),
        ("inf", "[Infinity, 0]", "data[1][0]: entries must be finite"),
        ("-inf", "[0, -Infinity]", "data[1][1]: entries must be finite"),
        ("1e400", "[1e400, 0]", "data[1][0]: entries must be finite"),
        ("10**400", "[0, 1" + "0" * 400 + "]", "data[1][1]: entries must be finite"),
        # the first bad entry in order is named
        ("first", '[NaN, "x"]', "data[1][0]: entries must be finite"),
    ]])
def test_reader_names_the_first_bad_entry(entry, message):
    with pytest.raises(ParseError) as caught:
        matrix_from_json(json.loads(DOC.replace("DATA", entry)))
    assert str(caught.value) == message


@pytest.mark.parametrize("entry, message", [
    pytest.param([0.0, 10 ** 400], "data[1][1]: entries must be finite", id="10**400"),
    # past Python's limit on the digits of an integer's text
    pytest.param([-(10 ** 4999), 0.0], "data[1][0]: entries must be finite", id="5000-digits"),
    pytest.param((0.0, 1.0), "matrix: data[1] must be a [re, im] pair", id="tuple"),
    pytest.param([0.0, np.int64(1)], "data[1][1]: expected a number, got np.int64(1)", id="numpy-int"),
])
def test_reader_names_bad_python_entries(entry, message):
    with pytest.raises(ParseError) as caught:
        matrix_from_json({"rows": 2, "cols": 1, "data": [[0.0, 0.0], entry]})
    assert str(caught.value) == message


@pytest.mark.parametrize("data", [
    pytest.param([[1, -2], [0, 3]], id="ints"),
    pytest.param([[-0.0, 0.0], [-0.0, -0.0]], id="signed-zeros"),
    pytest.param([[5e-324, -5e-324], [2.2250738585072014e-308, 1.7976931348623157e308]], id="extremes"),
    pytest.param([[2 ** 53 + 1, -(2 ** 64) - 1], [10 ** 300 + 1, 0.1]], id="rounded-ints"),
    pytest.param([[Half(0.5), np.float64(0.1)], [1, Half(-3.0)]], id="float-subclasses"),
])
def test_reader_reads_valid_entries_as_floats_do(data):
    obj = {"rows": 2, "cols": 1, "data": data}
    got, want = matrix_from_json(obj), per_entry_matrix(obj)
    assert got.shape == want.shape and got.tobytes() == want.tobytes()


def test_load_rejects_bad_file(tmp_path):
    p = tmp_path / "bad.json"
    p.write_text("{not json")
    with pytest.raises(ParseError):
        load_matrix(p)
    with pytest.raises(ParseError):
        load_matrix(tmp_path / "missing.json")


def test_trajectory_csv_golden():
    times = np.array([0.0, 0.5, 1.0])
    points = np.array([[0.1 + 0.2j], [0.3 - 0.1j], [complex(-0.0, -0.0)]])
    want = (
        "t,re_z1,im_z1\n"
        "0,0.10000000000000001,0.20000000000000001\n"
        "0.5,0.29999999999999999,-0.10000000000000001\n"
        "1,0,0\n"
    )
    assert trajectory_csv(times, points) == want


def per_row_csv(times, points):
    """The CSV text written one row and one %.17g field at a time."""
    dim = points.shape[1]
    lines = ["t," + ",".join(f"re_z{i},im_z{i}" for i in range(1, dim + 1))]
    for t, row in zip(times.tolist(), points.tolist()):
        fields = [t] + [x for z in row for x in (z.real, z.imag)]
        lines.append(",".join("%.17g" % (x + 0.0) for x in fields))
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("samples", [1, 1001])
@pytest.mark.parametrize("dim", [1, 8, 16])
def test_trajectory_csv_equals_per_row_formatting(rng, samples, dim):
    special = np.array([-0.0, 0.0, 5e-324, -2.2e-310, 1e300, -1e300, 1e-300, -1e-300,
                        3.0, -42.0, 2.0 ** 53, 1e16, 0.1, -1.0 / 3.0])
    times = np.cumsum(rng.uniform(0.0, 0.01, samples))
    times[0] = -0.0
    points = (rng.standard_normal((samples, dim)) * 10.0 ** rng.uniform(-300, 300, (samples, dim))
              + 1j * rng.standard_normal((samples, dim)))
    flat = points.reshape(-1)
    flat[:special.size] = special[:flat.size] + 1j * special[::-1][:flat.size]
    assert trajectory_csv(times, points) == per_row_csv(times, points)


def fields_csv(values):
    """The values as the fields of a dim-1 trajectory, in order (padded
    with zeros to whole rows), through `trajectory_csv` and through
    `per_row_csv`."""
    values = np.asarray(values, dtype=float)
    rows = np.concatenate([values, np.zeros(-values.size % 3)]).reshape(-1, 3)
    times, points = rows[:, 0], rows[:, 1:2] + 1j * rows[:, 2:3]
    return trajectory_csv(times, points), per_row_csv(times, points)


def signed(values):
    values = np.asarray(values, dtype=float)
    return np.concatenate([values, -values])


def ulps(values, count):
    """Each value and its neighbours up to `count` ulps away on each side."""
    out = [np.asarray(values, dtype=float)]
    for direction in (np.inf, -np.inf):
        step = out[0]
        for _ in range(count):
            step = np.nextafter(step, direction)
            out.append(step)
    return np.concatenate(out)


def test_csv_fields_at_every_decimal_exponent():
    # k = -4..14 is where %.17g writes fixed notation and the kernel
    # works; 1e-4 and 1e15 are its edges
    rng = np.random.default_rng(5)
    mantissas = np.concatenate([[1.0, 1.5, 2.0, 9.5, 9.999], rng.uniform(1.0, 10.0, 20)])
    values = (mantissas[:, None] * 10.0 ** np.arange(-6, 17)).ravel()
    a, b = fields_csv(signed(ulps(np.concatenate([values, [1e-4, 1e15]]), 2)))
    assert a == b


def test_csv_fields_near_powers_of_ten():
    powers = 10.0 ** np.arange(-5, 16)
    # 1 - j 2^-53 and its neighbours round up to the next decade at 17
    # digits
    below = (1.0 - np.arange(1, 40)[:, None] * 2.0 ** -53) * powers
    a, b = fields_csv(signed(np.concatenate([ulps(powers, 5), ulps(below.ravel(), 1)])))
    assert a == b
    assert "\n1,0.001,0.01\n" in fields_csv([0.0, 0.0, 0.0, 1.0, 1e-3, 1e-2])[0]


def test_csv_fields_at_ties_and_signed_zero():
    rng = np.random.default_rng(6)
    # M 2^-j whose digits stop at or past the 17th, among them exact
    # halfway cases such as 1e14 + 0.125
    dyadic = np.ldexp(rng.integers(1, 2 ** 53, 2000).astype(float), rng.integers(-60, 0, 2000))
    ties = 10.0 ** np.arange(0, 15) + 0.125
    a, b = fields_csv(signed(np.concatenate([dyadic, ties, np.arange(-500, 500) * 0.005,
                                             np.arange(1000) * 0.01, [0.0, -0.0]])))
    assert a == b
    assert fields_csv([1e14 + 0.125, -0.0, 0.0])[0].endswith("\n100000000000000.12,0,0\n")


@pytest.mark.parametrize("offset", [-1, 0, 1])
@pytest.mark.parametrize("dim", [1, 8, 16])
def test_csv_across_block_edges(rng, dim, offset):
    # block_rows whole rows fit in one block of fields; one more row
    # starts the next
    samples = serialize._CSV_BLOCK // (2 * dim + 1) + offset
    times = np.arange(samples) * 0.002
    points = (rng.standard_normal((samples, dim)) * 10.0 ** rng.uniform(-6, 3, (samples, dim))
              + 1j * rng.standard_normal((samples, dim)))
    assert trajectory_csv(times, points) == per_row_csv(times, points)


def test_csv_block_of_slow_fields_only():
    # every field of the first block is outside the kernel's range, with
    # the longest %.17g texts and subnormals, and at its first and last
    # positions; the next block starts with a kernel field
    rng = np.random.default_rng(7)
    longest = -1.2345678901234567e-300
    slow = np.concatenate([[longest, 5e-324, -2.2e-310, 1e300, 9.9999999999999991e-5, 1e15, -1e16],
                           signed(rng.uniform(1.0, 10.0, 200) * 10.0 ** rng.integers(-300, -4, 200)),
                           rng.uniform(1.0, 10.0, 200) * 10.0 ** rng.integers(15, 300, 200)])
    values = np.resize(slow, serialize._CSV_BLOCK)
    values[-1] = longest
    a, b = fields_csv(np.concatenate([values, [0.5, 3.0]]))
    assert a == b
    assert len("%.17g" % longest) == 24


@settings(max_examples=200)
@given(st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=1, max_size=40))
def test_csv_fields_equal_percent_formatting(values):
    a, b = fields_csv(values)
    assert a == b


def test_trajectory_csv_columns_follow_dimension():
    header = trajectory_csv(np.zeros(1), np.array([[0.1 + 0j, 0.2j, 0.0]])).splitlines()[0]
    assert header == "t,re_z1,im_z1,re_z2,im_z2,re_z3,im_z3"


@pytest.mark.parametrize("times, points", [
    (np.zeros(0), np.zeros((0, 1))),
    (np.zeros(2), np.zeros((3, 1))),
    (np.zeros(2), np.zeros(2)),
])
def test_trajectory_csv_rejects_unpaired_arrays(times, points):
    with pytest.raises(ParseError):
        trajectory_csv(times, points)


def test_dumps_is_deterministic_and_plain_json():
    doc = {
        "name": "x",
        "flag": np.bool_(True),
        "count": np.int64(3),
        "value": 0.1,
        "items": [1.0, 2.0, None],
        "nested": {"b": 1.0, "a": 2.0},
    }
    a, b = dumps(doc), dumps(doc)
    assert a == b
    parsed = json.loads(a)
    assert parsed["flag"] is True
    assert parsed["count"] == 3
    # insertion order of keys is preserved, not sorted
    assert a.index('"b"') < a.index('"a"')


def test_dumps_matches_format_float():
    assert '"v": 0.10000000000000001' in dumps({"v": 0.1})
