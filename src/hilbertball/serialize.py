"""File formats: JSON matrices and vectors, CSV trajectories, reports.

A complex matrix travels as

    {"rows": R, "cols": C, "data": [[re, im], ...]}

with data in row-major order, one [re, im] pair per entry.  A vector is
the same object with cols fixed to 1.  Parsing is strict: wrong key
sets, wrong lengths, non-finite entries (an integer past the float range
among them), and booleans posing as numbers all raise ParseError rather
than coerce.  The reader checks the data list in bulk: one pass each for
the pair shape and the number type, one numpy conversion and one
finiteness test.  Only a list that fails a check is read again entry by
entry, which names the first bad entry.

All floats are written with %.17g, which round-trips IEEE doubles and
keeps repeated runs byte-identical.  The report dumper below preserves
dict insertion order and emits no timestamps for the same reason.
`format_float` and `dumps` write each float with Python's `%`; a report
holds a few dozen.  `trajectory_csv` writes thousands, so it computes
the same text with a numpy kernel (`_csv_block`): the 17 correctly
rounded digits of each field come from exact integer arithmetic, and the
text is laid out for a whole block of fields at once.  It covers zero and
1e-4 <= |x| < 1e15, where %.17g writes fixed notation.  Each other field
is formatted on its own with `%`, and its bytes are placed between the
kernel's runs of text, so no pass goes over the block's whole text but
the one that deletes its padding.
"""

import itertools
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
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ParseError(f"{where}: expected a number, got {value!r}")
    try:
        value = float(value)
    except OverflowError:
        # an integer literal past the float range
        value = math.inf
    _require(math.isfinite(value), f"{where}: entries must be finite")
    return value


def _pair(entry, i):
    _require(isinstance(entry, list) and len(entry) == 2, f"matrix: data[{i}] must be a [re, im] pair")
    return [_as_number(entry[0], f"data[{i}][0]"), _as_number(entry[1], f"data[{i}][1]")]


def _pairs(data):
    """The (n, 2) float array of data's [re, im] pairs, checked in bulk,
    or None when some entry is not a list of two finite numbers of type
    int or float exactly (a bool is neither)."""
    if set(map(type, data)) != {list} or set(map(len, data)) != {2}:
        return None
    if not set(map(type, itertools.chain.from_iterable(data))) <= {int, float}:
        return None
    try:
        pairs = np.array(data, dtype=float)
    except OverflowError:
        return None
    return pairs if np.isfinite(pairs).all() else None


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
    pairs = _pairs(data)
    if pairs is None:
        # read entry by entry: the first bad one raises, and a valid
        # entry of a subclass of list, int or float is read as before
        pairs = np.array([_pair(entry, i) for i, entry in enumerate(data)])
    return pairs.view(complex).reshape(rows, cols)


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
    except ValueError as exc:
        # an integer literal past Python's digit limit, or bytes that are not UTF-8
        raise ParseError(f"cannot read {path}: {exc}") from exc


def load_matrix(path):
    return matrix_from_json(load_json(path))


def load_vector(path):
    return vector_from_json(load_json(path))


def write_text(path, text):
    """Write `text` to the file at `path`; one that cannot be written
    raises ParseError, as one that cannot be read does."""
    try:
        with open(path, "w", encoding="utf-8") as fp:
            fp.write(text)
    except OSError as exc:
        raise ParseError(f"cannot write {path}: {exc}") from exc


def save_matrix(path, M):
    write_text(path, dumps(matrix_to_json(M)) + "\n")


# Fields per call of `_csv_block`: its transient arrays stay near 1 MB.
_CSV_BLOCK = 4096
# Decimal exponents k (10^k <= |x| < 10^(k+1)) of the kernel's range; its
# tables are indexed by kk = k - _K_MIN.
_K_MIN, _K_MAX = -4, 14
# The least binary exponent e (2^(e-1) <= |x| < 2^e) in the kernel's range,
# that of 1e-4; the greatest is 50, that of the doubles below 1e15.
_E_MIN = -13
# A field's text is laid out in a 24-byte row, three little-endian
# words: byte 0 is the separator before the field, 1 the sign, 2..6 the
# "0.000" in front of the digits of a field with k < 0, 7 the lead
# digit and 8..23 the other 16 digits, as four groups of four.  At k = 0
# the lead digit is byte 6 and the point byte 7.  Unused bytes and
# trailing zeros of the digits are NUL, and the NULs are deleted.


def _words(b):
    """Little-endian uint64 words of the bytes b[0], b[1], ... (at most
    8, along the first axis)."""
    return sum(b[j].astype(np.uint64) << np.uint64(8 * j) for j in range(len(b)))


def _csv_tables():
    """The kernel's lookup tables: the four ASCII digits of each group
    0..9999 as a little-endian uint32, then those of each group with its
    trailing zeros NUL; word 0 of a row (its separator left out) per kk,
    sign, lead digit and whether the fraction digits of a k = 0 field
    are all zero; per kk the masks that move the integer digits of
    a k >= 1 field down a byte, the zeros that restore them, and the mask
    of the bytes that stay; per kk the smallest double at or above 10^k;
    and the kk of 2^(e - 1) for each binary exponent e from _E_MIN."""
    chars = np.indices((10,) * 4, np.uint8).reshape(4, -1) + np.uint8(ord("0"))
    trailing = chars == ord("0")
    for j in (2, 1, 0):
        trailing[j] &= trailing[j + 1]
    groups = np.concatenate([_words(chars), _words(np.where(trailing, 0, chars))]).astype(np.uint32)
    col, k = np.arange(24)[:, None], np.arange(_K_MIN, _K_MAX + 1)
    integer = (col >= 6) & (col <= 6 + k)
    rows = np.stack([np.where(col == 3, ord("."), ord("0")) * ((col >= 2) & (col < 3 - k) & (k < 0)),
                     255 * integer, ord("0") * integer, 255 * ((col < 2) | (col >= 8 + k))], axis=1)
    # rows[c, t, k] is byte c of table t; its words are [w, t, k]
    words = _words(rows.reshape(3, 8, 4, -1).swapaxes(0, 1))
    # word 0 for (kk, sign, lead, whole): "0.000" cut to k, the sign, and
    # the lead digit, which at k = 0 comes a byte early, before the point
    # unless the field is whole
    sign = np.array([0, ord("-") << 8], np.uint64)
    lead = np.arange(ord("0"), ord("0") + 10, dtype=np.uint64)[:, None]
    at_zero = (lead << 48) | np.array([ord(".") << 56, 0], np.uint64)
    first = (words[0, 0, :, None, None, None] | sign[:, None, None]
             | np.where((k == 0)[:, None, None, None], at_zero, lead << 56))
    edges = 10.0 ** np.arange(_K_MIN, _K_MAX + 2)
    for j in range(_K_MIN, 0):
        # 10^j is not a double: take the one above it
        num, den = edges[j - _K_MIN].as_integer_ratio()
        if num * 10 ** -j < den:
            edges[j - _K_MIN] = np.nextafter(edges[j - _K_MIN], np.inf)
    exponents = np.arange(_E_MIN, 51)
    kk = np.maximum(np.searchsorted(edges, np.ldexp(1.0, exponents - 1), "right") - 1, 0)
    return groups, first.ravel(), words[:, 1:].transpose(2, 1, 0), edges, kk


_GROUPS, _WORD0, _MOVE, _EDGES, _KK_OF_E = _csv_tables()
_POW10 = np.array([float(10 ** (16 - k)) for k in range(_K_MIN, _K_MAX + 1)])
_POW5 = np.array([5 ** (16 - k) for k in range(_K_MIN, _K_MAX + 1)], dtype=np.int64)


def _digits(ax, M, e, kk):
    """round(|x| 10^(16 - k)) with ties to even, exactly, for |x| = M 2^(e - 53):
    an even estimate D0 plus f = (M 5^(16 - k) - D0 2^s) 2^-s rounded to
    even, with s = 37 + k - e.  int64 arithmetic modulo 2^64 gets the
    residual M 5^(16 - k) - D0 2^s right, since it is below 2^53 in size,
    and so does its float; and as D0 is even, rounding f to even rounds
    D0 + f to even."""
    D0 = (ax * _POW10.take(kk)).astype(np.int64) & -2
    s = kk - e + (37 + _K_MIN)
    r = M * _POW5.take(kk) - (D0 << s)
    # (ldexp's fast loop takes int32 exponents)
    return D0 + np.rint(np.ldexp(r.astype(float), (-s).astype(np.int32))).astype(np.int64)


def _csv_block(x, seps):
    """The %.17g text of the floats x, each after its separator in seps
    (the byte, as uint64).  Fields in the range of the kernel are written
    by it; the others one by one with %, their bytes placed between the
    kernel's runs of text."""
    ax = np.abs(x)
    inside = (ax >= 1e-4) & (ax < 1e15)
    # zero and the slow fields go through the kernel as 2; zero's digits
    # are then cleared, and the slow fields' rows left out of the text
    ax = np.where(inside, ax, 2.0)
    m, e = np.frexp(ax)
    M = np.ldexp(m, 53).astype(np.int64)
    # 2^(e - 1) <= |x| < 2^e spans at most two decades, so one exact
    # comparison with the next decade's edge gives k
    kk = _KK_OF_E.take(e - _E_MIN)
    kk += ax >= _EDGES[1:].take(kk)
    D = _digits(ax, M, e, kk) * inside
    # 17 digits that round up to 10^17 are 10^16 at the next decade
    top = np.flatnonzero(D == 10 ** 17)
    D[top] = 10 ** 16
    kk[top] += 1
    # (numpy's // by a constant is several times faster than its % or divmod)
    hi = D // 10 ** 8
    lo = D - hi * 10 ** 8
    lead = hi // 10 ** 8
    hi -= lead * 10 ** 8
    g1, g3 = hi // 10 ** 4, lo // 10 ** 4
    g2, g4 = hi - g1 * 10 ** 4, lo - g3 * 10 ** 4
    # a group is written without its trailing zeros when every group
    # after it is zero; the last always is
    zero = lo == 0
    np.add(g1, 10 ** 4, out=g1, where=zero & (g2 == 0))
    np.add(g2, 10 ** 4, out=g2, where=zero)
    np.add(g3, 10 ** 4, out=g3, where=g4 == 0)
    g4 += 10 ** 4
    row = np.empty((x.size, 3), np.uint64)
    # a k = 0 field has no fraction digit left when it is a whole number
    whole = ax == np.rint(ax)
    np.bitwise_or(seps, _WORD0.take(((kk * 2 + np.signbit(x)) * 10 + lead) * 2 + whole), out=row[:, 0])
    # the groups are the row's last four 32-bit words
    quads = row.view(np.uint32)
    for j, g in enumerate((g1, g2, g3, g4), 2):
        quads[:, j] = _GROUPS.take(g)
    # k >= 1: the integer digits move down one byte, zeros restored, and
    # the point goes after them unless no fraction digit is left
    big = np.flatnonzero(kk > -_K_MIN)
    if big.size:
        kb, w = kk[big], row[big]
        down = w >> np.uint64(8)
        down[:, :-1] |= w[:, 1:] << np.uint64(56)
        move = _MOVE[kb]
        w = (w & move[:, 2]) | (down & move[:, 0]) | move[:, 1]
        text, at = w.view(np.uint8), np.arange(big.size)
        text[at, 3 + kb] = (text[at, 4 + kb] != 0) * ord(".")
        row[big] = w
    slow = np.flatnonzero(~inside)
    slow = slow[x[slow] != 0]
    text, pieces, start = row.tobytes(), [], 0
    for i, sep, value in zip(slow.tolist(), seps[slow].tolist(), x[slow].tolist()):
        pieces += [text[start:24 * i].translate(None, b"\0"), b"%c%.17g" % (sep, value)]
        start = 24 * (i + 1)
    pieces.append(text[start:].translate(None, b"\0"))
    return b"".join(pieces).decode("ascii")


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
