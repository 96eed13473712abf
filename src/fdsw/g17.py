"""Correctly rounded ``%.17g`` of a float array, without a call per value.

``format_g17(values)`` returns ``[b"%.17g" % x for x in values]`` for
every double, byte for byte.  The diagram CLI prints every Bond number of
its grid this way; CPython's ``"%.17g" % x`` costs about 0.85 us per value,
which was most of the run time of ``fdsw diagram``.

The values 1e-6 <= x < 1e17 are formatted by array arithmetic.  With E the
decimal exponent of x (10**E <= x < 10**(E + 1), -6 <= E <= 16), the
scale k = 16 - E lies in 0..22, so 10**k is an exact double.  Dekker's
two-product (Numer. Math. 18, 1971) splits the exact product
x * 10**k = p + err with p = fl(x * 10**k): both are doubles, and
10**16 <= p + err < 10**17.  Because p >= 2**53, p is an even integer, so
the round-half-even 17-digit integer of x * 10**k is D = p + rint(err)
(added as integers).  D has 17 digits for every double: the gap between
doubles below 10**(E + 1) is wider than half a unit of the 17th digit, so
the rounding never carries into an 18th.  E starts as floor(log10(x)); where
log10 rounds across a power of ten, the exact p + err falls outside
[10**16, 10**17) and E is moved by one.  The ``%g`` layout is then built
from the digits of D: fixed notation for -4 <= E < 17 with the trailing
zeros (and a bare point) dropped, ``d.ddde-05`` below 1e-4.

Every other value (0, below 1e-6, 1e17 and above, -0.0, negatives,
infinities and NaN) and any value whose exponent the correction cannot
place in -6..16 goes through ``"%.17g" % x`` itself.
"""

from __future__ import annotations

import numpy as np

# The decimal exponents formatted by array arithmetic; 16 - E indexes _POW10.
E_MIN, E_MAX = -6, 16

# 10**k for 0 <= k <= 22: exact doubles (5**22 < 2**53).
_POW10 = np.array([float(10**k) for k in range(E_MAX - E_MIN + 1)])
_SPLITTER = 2.0**27 + 1.0  # Veltkamp's constant for 53-bit doubles


def _split(a):
    """a = hi + lo exactly, each half with at most 26 significant bits."""
    t = _SPLITTER * a
    hi = t - (t - a)
    return hi, a - hi


_POW10_HI, _POW10_LO = _split(_POW10)

# The four ASCII digits of 0..9999, packed little-endian into one integer
# each (the first digit in the lowest byte), and the count of trailing
# zero digits of each (4 for 0); built from the 100 digit pairs.
_PAIR = np.arange(100, dtype=np.uint64)
_PAIR_CHARS = (_PAIR // 10 + 48) | ((_PAIR % 10 + 48) << np.uint64(8))
_QUAD_CHARS = (_PAIR_CHARS[:, None] | (_PAIR_CHARS << np.uint64(16))).ravel()
_PAIR_ZEROS = ((_PAIR % 10 == 0).astype(np.int8) + (_PAIR == 0)).astype(np.int8)
_QUAD_ZEROS = np.where(_PAIR_ZEROS == 2, 2 + _PAIR_ZEROS[:, None], _PAIR_ZEROS).ravel()

# The layout of each exponent, indexed by E - E_MIN.  The output is
# prefix + digits[:a] + gap + digits[a:], cut after the last kept digit:
#   E >= 0        a = E + 1   gap "."       "123.45", "12345"
#   -4 <= E < 0   a = 0       "0." + zeros  "0.0012345"
#   E < -4        a = 1       gap "."       "1.2345" then "e-05"
_E = np.arange(E_MIN, E_MAX + 1)
_HEAD = np.where(_E >= 0, _E + 1, np.where(_E < -4, 1, 0))
_GAP = np.where((-4 <= _E) & (_E < 0), 1 - _E, 1)
_BYTES = 24  # three 64-bit lanes; the longest %.17g string has 24 bytes


def _lanes(strings: list[bytes]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Each string, NUL-padded to _BYTES, as three little-endian uint64 lanes."""
    packed = np.frombuffer(b"".join(s.ljust(_BYTES, b"\0") for s in strings), "<u8")
    return tuple(np.ascontiguousarray(lane) for lane in packed.reshape(-1, 3).T)


# The prefix "0.00" and the point after the head digits, at their bytes.
_FRAME = _lanes(
    [
        b"0." + b"0" * (-e - 1) if -4 <= e < 0 else b"\0" * a + b"."
        for e, a in zip(_E.tolist(), _HEAD.tolist())
    ]
)
# The exponents of scientific notation, by E - E_MIN.
_SUFFIX = np.frombuffer(b"e-06e-05", np.uint8).reshape(2, 4)
# _KEEP[i][n]: lane i of the mask of the first n bytes, 0 <= n <= _BYTES.
_KEEP = _lanes([b"\xff" * n for n in range(_BYTES + 1)])


def _two_product(x, e):
    """(p, err) with p = fl(x * 10**(16 - e)) and p + err the exact product."""
    k = 16 - e
    p = x * _POW10[k]
    x_hi, x_lo = _split(x)
    t_hi, t_lo = _POW10_HI[k], _POW10_LO[k]
    err = ((x_hi * t_hi - p) + x_hi * t_lo + x_lo * t_hi) + x_lo * t_lo
    return p, err


def _below(p, err, bound: float):
    """p + err < bound, exactly, for a bound that is a double."""
    return (p < bound) | ((p == bound) & (err < 0.0))


def _exponent_shift(p, err):
    """-1, 0 or +1: how far p + err lies outside [1e16, 1e17)."""
    return (~_below(p, err, 1e17)).view(np.int8) - _below(p, err, 1e16).view(np.int8)


def format_g17(values) -> np.ndarray:
    """``b"%.17g" % x`` of every x, as an array of dtype S24 and the same shape.

    ``.tolist()`` gives the bytes objects: numpy drops the NUL padding, and
    no ``%.17g`` string is longer than 24 bytes or contains a NUL.
    """
    x = np.asarray(values, dtype=float).ravel()
    arith = (x >= 1e-6) & (x < 1e17)
    xs = np.where(arith, x, 1.0)  # no log10 of 0, negatives or NaN
    e = np.clip(np.floor(np.log10(xs)).astype(np.intp), E_MIN, E_MAX)
    p, err = _two_product(xs, e)
    shift = _exponent_shift(p, err)
    moved = np.flatnonzero(shift)
    if moved.size:
        e[moved] += shift[moved]
        arith[moved] &= (E_MIN <= e[moved]) & (e[moved] <= E_MAX)
        e[moved] = np.clip(e[moved], E_MIN, E_MAX)
        p[moved], err[moved] = _two_product(xs[moved], e[moved])
        arith[moved] &= _exponent_shift(p[moved], err[moved]) == 0
    digits = p.astype(np.int64) + np.rint(err).astype(np.int64)

    # D = lead * 10**16 + q1 q2 q3 q4, in groups of four digits.
    upper, lower = np.divmod(digits, 100_000_000)
    lead, upper = np.divmod(upper, 100_000_000)
    q1, q2 = np.divmod(upper, 10_000)
    q3, q4 = np.divmod(lower, 10_000)
    zeros = _QUAD_ZEROS[q4]
    for done, q in ((4, q3), (8, q2), (12, q1)):
        more = zeros == done  # every group to the right is 0000
        if not more.any():
            break
        zeros += more * _QUAD_ZEROS[q]
    kept = 17 - zeros

    # The 17 digit characters as a little-endian 192-bit string c0 c1 c2.
    left = _QUAD_CHARS[q1] | (_QUAD_CHARS[q2] << np.uint64(32))
    right = _QUAD_CHARS[q3] | (_QUAD_CHARS[q4] << np.uint64(32))
    c0 = (lead.astype(np.uint64) + np.uint64(ord("0"))) | (left << np.uint64(8))
    c1 = (left >> np.uint64(56)) | (right << np.uint64(8))
    c2 = right >> np.uint64(56)

    # Head digits stay, the tail moves up by the gap, the frame fills in.
    row = e - E_MIN
    head, gap = _HEAD[row], _GAP[row]
    h0, h1, h2 = (c & lane[head] for c, lane in zip((c0, c1, c2), _KEEP))
    t0, t1, t2 = c0 ^ h0, c1 ^ h1, c2 ^ h2
    up = (8 * gap).astype(np.uint64)
    down = np.uint64(64) - up
    size = np.where(kept > head, kept + gap, head)
    out = np.empty((x.size, 3), np.uint64)
    out[:, 0] = (h0 | _FRAME[0][row] | (t0 << up)) & _KEEP[0][size]
    out[:, 1] = (h1 | _FRAME[1][row] | (t1 << up) | (t0 >> down)) & _KEEP[1][size]
    out[:, 2] = (h2 | _FRAME[2][row] | (t2 << up) | (t1 >> down)) & _KEEP[2][size]

    sci = np.flatnonzero(arith & (e < -4))
    if sci.size:
        chars = out.view(np.uint8)
        chars[sci[:, None], size[sci, None] + np.arange(4)] = _SUFFIX[e[sci] - E_MIN]
    strings = out.view(f"S{_BYTES}").ravel()
    for i in np.flatnonzero(~arith).tolist():
        strings[i] = b"%.17g" % x[i]
    return strings.reshape(np.shape(values))
