"""File formats: JSON matrices and vectors, CSV trajectories, reports.

A complex matrix travels as

    {"rows": R, "cols": C, "data": [[re, im], ...]}

with data in row-major order, one [re, im] pair per entry.  A vector is
the same object with cols fixed to 1.  Parsing is strict: wrong key
sets, wrong lengths, non-finite entries, and booleans posing as numbers
all raise ParseError rather than coerce.

All floats are written with %.17g, which round-trips IEEE doubles and
keeps repeated runs byte-identical.  The report dumper below preserves
dict insertion order and emits no timestamps for the same reason.
"""

import json
import math

import numpy as np

from .errors import ParseError


def format_float(x):
    """%.17g, with the sign of zero normalized away."""
    x = float(x)
    if x == 0.0:
        x = 0.0
    return "%.17g" % x


def _require(cond, message):
    if not cond:
        raise ParseError(message)


def _as_number(value, where):
    _require(
        isinstance(value, (int, float)) and not isinstance(value, bool),
        f"{where}: expected a number, got {value!r}",
    )
    value = float(value)
    _require(math.isfinite(value), f"{where}: entries must be finite")
    return value


def matrix_to_json(M):
    M = np.asarray(M, dtype=complex)
    if M.ndim == 1:
        M = M.reshape(-1, 1)
    rows, cols = M.shape
    data = [[float(v.real), float(v.imag)] for v in M.reshape(-1)]
    return {"rows": rows, "cols": cols, "data": data}


def matrix_from_json(obj):
    _require(isinstance(obj, dict), "matrix: expected a JSON object")
    _require(
        set(obj.keys()) == {"rows", "cols", "data"},
        f"matrix: keys must be rows, cols, data; got {sorted(obj.keys())}",
    )
    rows, cols = obj["rows"], obj["cols"]
    for name, value in (("rows", rows), ("cols", cols)):
        _require(
            isinstance(value, int) and not isinstance(value, bool) and value >= 1,
            f"matrix: {name} must be a positive integer",
        )
    data = obj["data"]
    _require(isinstance(data, list), "matrix: data must be a list")
    _require(
        len(data) == rows * cols,
        f"matrix: data has {len(data)} entries, expected {rows * cols}",
    )
    out = np.empty(rows * cols, dtype=complex)
    for i, entry in enumerate(data):
        _require(
            isinstance(entry, list) and len(entry) == 2,
            f"matrix: data[{i}] must be a [re, im] pair",
        )
        out[i] = complex(
            _as_number(entry[0], f"data[{i}][0]"), _as_number(entry[1], f"data[{i}][1]")
        )
    return out.reshape(rows, cols)


def vector_from_json(obj):
    M = matrix_from_json(obj)
    _require(M.shape[1] == 1, f"vector: cols must be 1, got {M.shape[1]}")
    return M[:, 0]


def load_json(path):
    try:
        with open(path, "r", encoding="utf-8") as fp:
            return json.load(fp)
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path} is not valid JSON: {exc}") from exc


def load_matrix(path):
    return matrix_from_json(load_json(path))


def load_vector(path):
    return vector_from_json(load_json(path))


def save_matrix(path, M):
    with open(path, "w", encoding="utf-8") as fp:
        fp.write(dumps(matrix_to_json(M)))
        fp.write("\n")


def trajectory_csv(times, points):
    """CSV text for a trajectory, header t,re_z1,im_z1,...

    `times` is the (N,) array of sample times and `points` the (N, n)
    array of points, as `dynamics.trajectory` returns them.  The body is
    one % format, the row's %.17g fields repeated N times, over all the
    floats at once; adding 0.0 turns -0.0 into 0.0, as `format_float`
    does.
    """
    times, points = np.asarray(times, dtype=float), np.asarray(points, dtype=complex)
    if times.ndim != 1 or points.shape[:1] != times.shape or points.ndim != 2:
        raise ParseError(f"trajectory needs (N,) times and (N, n) points, got "
                         f"{times.shape} and {points.shape}")
    if not times.size:
        raise ParseError("trajectory must contain at least one sample")
    dim = points.shape[1]
    header = ["t"]
    for i in range(1, dim + 1):
        header += [f"re_z{i}", f"im_z{i}"]
    rows = np.empty((times.size, 2 * dim + 1))
    rows[:, 0] = times
    rows[:, 1::2] = points.real
    rows[:, 2::2] = points.imag
    rows += 0.0
    row_fmt = ",".join(["%.17g"] * rows.shape[1]) + "\n"
    return ",".join(header) + "\n" + (row_fmt * times.size) % tuple(rows.ravel().tolist())


def dumps(obj):
    """Deterministic JSON: insertion-ordered keys, %.17g floats."""
    pieces = []
    _write(obj, pieces, 0)
    return "".join(pieces)


def _write(obj, pieces, depth):
    pad = "  " * depth
    inner = "  " * (depth + 1)
    if isinstance(obj, dict):
        if not obj:
            pieces.append("{}")
            return
        pieces.append("{\n")
        for i, (key, value) in enumerate(obj.items()):
            pieces.append(f"{inner}{json.dumps(str(key))}: ")
            _write(value, pieces, depth + 1)
            pieces.append(",\n" if i < len(obj) - 1 else "\n")
        pieces.append(pad + "}")
    elif isinstance(obj, (list, tuple)):
        if not obj:
            pieces.append("[]")
            return
        flat = all(not isinstance(v, (dict, list, tuple)) for v in obj)
        if flat:
            pieces.append("[")
            pieces.append(", ".join(_scalar(v) for v in obj))
            pieces.append("]")
        else:
            pieces.append("[\n")
            for i, value in enumerate(obj):
                pieces.append(inner)
                _write(value, pieces, depth + 1)
                pieces.append(",\n" if i < len(obj) - 1 else "\n")
            pieces.append(pad + "]")
    else:
        pieces.append(_scalar(obj))


def _scalar(obj):
    if isinstance(obj, (bool, np.bool_)):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        if math.isinf(obj):
            # the spelling Python's own json module reads back
            return "Infinity" if obj > 0 else "-Infinity"
        if math.isnan(obj):
            return "NaN"
        return format_float(obj)
    if obj is None:
        return "null"
    if isinstance(obj, str):
        return json.dumps(obj)
    raise TypeError(f"cannot serialize {type(obj).__name__}")
