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
`format_float` and `dumps` write each float with Python's `%`; a report
holds a few dozen.  `trajectory_csv` writes thousands, so it computes
the same text with a numpy kernel (`_csv_block`): the 17 correctly
rounded digits of each field come from exact integer arithmetic, and the
text is laid out for a whole block of fields at once.  It covers zero and
1e-4 <= |x| < 1e15, where %.17g writes fixed notation; every other field
goes through `%` as before.
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


# Fields per call of `_csv_block`: its transient arrays stay near 1 MB.
_CSV_BLOCK = 4096
# Decimal exponents k (10^k <= |x| < 10^(k+1)) of the kernel's range.
_K_MIN, _K_MAX = -4, 14
# A field's text is laid out in a 24-byte row, three little-endian
# words: byte 0 is the separator before the field, 1 the sign, 2..6 the
# "0.000" in front of the digits of a field with k < 0, 7 the lead
# digit and 8..23 the other 16 digits, as four groups of four.  Unused
# bytes and trailing zeros of the digits are NUL, and the NULs are
# deleted.  A field outside the kernel's range gets "%.17g" after its
# separator instead, filled in by one % pass over the block.
_SLOW_FIELD = int.from_bytes(b"\0%.17g", "little")


def _words(b):
    """Little-endian uint64 words of the bytes b[0], b[1], ... (at most
    8, along the first axis)."""
    return sum(b[j].astype(np.uint64) << np.uint64(8 * j) for j in range(len(b)))


def _csv_tables():
    """The kernel's lookup tables: the four ASCII digits of each group
    0..9999 as a little-endian uint32, then those of each group with its
    trailing zeros NUL; per k
    the prefix word; and per k the masks that move the integer digits
    of a k >= 0 field down a byte, the zeros that restore them, and the
    mask of the bytes that stay."""
    chars = np.indices((10,) * 4, np.uint8).reshape(4, -1) + np.uint8(ord("0"))
    trailing = chars == ord("0")
    for j in (2, 1, 0):
        trailing[j] &= trailing[j + 1]
    groups = np.concatenate([_words(chars), _words(np.where(trailing, 0, chars))]).astype(np.uint32)
    col, k = np.arange(24)[:, None], np.arange(_K_MIN, _K_MAX + 1)
    integer = (col >= 6) & (col <= 6 + k)
    rows = np.stack([np.where(col == 3, ord("."), ord("0")) * ((col >= 2) & (col < 3 - k)),
                     255 * integer, ord("0") * integer, 255 * ((col < 2) | (col >= 8 + k))], axis=1)
    # rows[c, t, k] is byte c of table t; its words are [w, t, k]
    words = _words(rows.reshape(3, 8, 4, -1).swapaxes(0, 1))
    return groups, words[0, 0], words[:, 1:].transpose(2, 1, 0)


_GROUPS, _PREFIX, _MOVE = _csv_tables()
_POW5 = 5 ** np.arange(22, dtype=np.int64)
_POW10 = 10.0 ** np.arange(22)


def _digits(ax, M, e, k):
    """round(|x| 10^(16 - k)) with ties to even, exactly, for |x| = M 2^(e - 53):
    M 5^(16 - k) 2^-s with s = 37 + k - e, from the float estimate D0 and
    the residual M 5^(16 - k) - D0 2^s, which int64 arithmetic modulo 2^64
    gets right because it is below 2^53 in size."""
    p = 16 - k
    D0 = (ax * _POW10[p]).astype(np.int64)
    s = 37 + k - e
    r = M * _POW5[p] - (D0 << s)
    q = r >> s
    D = D0 + q
    # up when the remainder is past half, or at half with D odd
    return D + (((r - (q << s)) << 1) + (D & 1) > (1 << s))


def _csv_block(x, seps):
    """The %.17g text of the floats x, each after its separator in
    seps (the byte, as uint64).  Fields in the range of the kernel
    are written by it; the others by one % pass over the block."""
    ax = np.abs(x)
    outside = ~((ax >= 1e-4) & (ax < 1e15))
    slow = np.flatnonzero(outside & (x != 0))
    # zero and the slow fields go through the kernel as 2, then are mended
    ax[outside] = 2.0
    m, e = np.frexp(ax)
    M = np.ldexp(m, 53).astype(np.int64)
    k = np.floor(np.log10(ax)).astype(np.int64)
    D = _digits(ax, M, e, k)
    # log10 may miss k by one near a power of ten: D then has 16 or 18
    # digits, or is 10^16, which may have been reached from below; at
    # the next k those give 17 digits, and 10^16 from above gives at
    # least 10^17, which like 10^17 itself is 10^16 at the k after
    low, high = D <= 10 ** 16, D > 10 ** 17
    off = np.flatnonzero(low | high)
    if off.size:
        k[off] += high[off].astype(np.int64) - low[off]
        D[off] = _digits(ax[off], M[off], e[off], k[off])
    top = np.flatnonzero(D >= 10 ** 17)
    D[top] = 10 ** 16
    k[top] += 1
    D[x == 0] = 0
    # (numpy's // by a constant is several times faster than its % or divmod)
    hi = D // 10 ** 8
    lo = D - hi * 10 ** 8
    lead = hi // 10 ** 8
    hi -= lead * 10 ** 8
    g1, g3 = hi // 10 ** 4, lo // 10 ** 4
    g2, g4 = hi - g1 * 10 ** 4, lo - g3 * 10 ** 4
    # a group is written without its trailing zeros when every group
    # after it is zero
    g4 += 10 ** 4
    g3 += (g4 == 10 ** 4) * 10 ** 4
    g2 += (g3 == 10 ** 4) * 10 ** 4
    g1 += (g2 == 10 ** 4) * 10 ** 4
    row = np.empty((x.size, 3), "<u8")
    row[:, 0] = (seps | (x < 0) * np.uint64(ord("-") << 8) | _PREFIX[k - _K_MIN]
                 | (lead + 48).astype(np.uint64) << np.uint64(56))
    row[:, 1] = _GROUPS[g1] | _GROUPS[g2] << np.uint64(32)
    row[:, 2] = _GROUPS[g3] | _GROUPS[g4] << np.uint64(32)
    # k >= 0: the integer digits move down one byte, zeros restored, and
    # the point goes after them unless no fraction digit is left
    big = np.flatnonzero(k >= 0)
    w = row[big]
    down = w >> np.uint64(8)
    down[:, :-1] |= w[:, 1:] << np.uint64(56)
    move = _MOVE[k[big] - _K_MIN]
    row[big] = (w & move[:, 2]) | (down & move[:, 0]) | move[:, 1]
    text = row.view(np.uint8)
    text[big, 7 + k[big]] = (text[big, 8 + k[big]] != 0) * ord(".")
    row[slow, 0] = seps[slow] | np.uint64(_SLOW_FIELD)
    row[slow, 1:] = 0
    out = row.tobytes().translate(None, b"\0").decode("ascii")
    return out % tuple(x[slow].tolist()) if slow.size else out


def trajectory_csv(times, points):
    """CSV text for a trajectory, header t,re_z1,im_z1,...

    `times` is the (N,) array of sample times and `points` the (N, n)
    array of points, as `dynamics.trajectory` returns them.  Every field
    is written as %.17g would write it, byte for byte, by `_csv_block`
    over _CSV_BLOCK fields at a time; adding 0.0 turns -0.0 into 0.0, as
    `format_float` does.
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
    # each field carries the separator before it, so the header's newline
    # is the first field's
    seps = np.full(rows.shape, ord(","), np.uint64)
    seps[:, 0] = ord("\n")
    fields, seps = rows.ravel(), seps.ravel()
    return "".join([",".join(header)] + [
        _csv_block(fields[i:i + _CSV_BLOCK], seps[i:i + _CSV_BLOCK])
        for i in range(0, fields.size, _CSV_BLOCK)] + ["\n"])


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
