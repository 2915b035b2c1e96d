"""Python's float repr for whole arrays: repr(float(v)) as NUL-padded bytes.

The digits come from the Schubfach algorithm (R. Giulietti, "The Schubfach
way to render doubles", 2020), which finds the shortest decimal that reads
back as v and, of two such, the one nearer v (ties to an even last digit):
the digits Python's repr prints. Two changes to the published Java code
make it match repr: the one-digit-shorter candidate is tried for every
s >= 10 (Java keeps at least two digits), and subnormals with t < 3, which
run as c = 10 t, take the exponent k - 1 on both branches. The 128-bit
products are built from 32-bit halves in uint64, and the points run in
blocks that keep their temporaries in cache.

The layout is Python's: positional for decimal exponents -4 < decpt <= 16,
with ".0" after an integer, exponent form with at least two exponent digits
otherwise, and "nan", "inf", "-inf", "0.0", "-0.0". A row is built in
fixed slots, which hold NUL where a repr has no character: the sign, a
run of zeros and the digits with the point inserted, the exponent, and a
comma.
"""

import functools

import numpy as np

# bytes per row: the sign, 23 slots for leading zeros, digits and the
# point, 5 for the exponent, the comma
WIDTH = 30
# values per block: a block's uint64 temporaries stay in the L2 cache. A
# call may pass any number of values; the grid command passes all of a
# plane block's columns at once, since each call has a fixed cost of a
# few hundred microseconds that small columns would otherwise pay alone.
_BLOCK = 16384

_U = np.uint64
_M32 = _U(0xFFFFFFFF)
_MASK_63 = _U((1 << 63) - 1)
_EXP_BITS = _U(0x7FF0000000000000)
_K_MIN = -324  # decimal exponent k of 2**-1074, the smallest double
_K_MAX = 292   # k of the largest double
_C_TINY = 3    # subnormals with t < 3 run as 10 t, one digit more

# The digit slots Z: 4 zeros, the 17 digits of f right-aligned, one zero.
# A row's output slots 1..23 show Z with the point inserted before Z[p].
_PAD = 4
_ZSLOTS = _PAD + 17 + 1
_OUT_SLOTS = np.arange(_ZSLOTS + 1, dtype=np.int16)[:, np.newaxis]


@functools.cache
def _special_rows():
    """Rows but the comma of nan, nan (signed), inf, -inf, 0.0, -0.0."""
    table = np.zeros((WIDTH - 1, 6), dtype=np.uint8)
    for i, text in enumerate((b"nan", b"nan", b"inf", b"-inf", b"0.0",
                              b"-0.0")):
        sign = text[0] == ord("-")
        table[1 - sign:1 + len(text) - sign, i] = list(text)
    return table


@functools.cache
def _g_table():
    """g = g1 2**63 + g0 for k = K_MIN..K_MAX, split into a (5, 617) table.

    2**125 <= g < 2**126 and (g - 1) 2**r <= 10**-k < g 2**r for an integer
    r. Exact integer arithmetic, built on first use; the rows are g1 >> 32,
    g1 & M32, g1, g0 >> 32 and g0 & M32.
    """
    g1, g0 = [], []
    for k in range(_K_MIN, _K_MAX + 1):
        if k <= 0:
            p = 10 ** -k
            shift = 126 - p.bit_length()
            g = (p << shift if shift >= 0 else p >> -shift) + 1
        else:
            p = 10 ** k
            g = (1 << (125 + p.bit_length())) // p + 1
        g1.append(g >> 63)
        g0.append(g & ((1 << 63) - 1))
    g1 = np.array(g1, dtype=_U)
    g0 = np.array(g0, dtype=_U)
    return np.stack([g1 >> _U(32), g1 & _M32, g1, g0 >> _U(32), g0 & _M32])


def _mul_high(a_hi, a_lo, b_hi, b_lo):
    """High 64 bits of a b for a, b < 2**63 given as 32-bit halves."""
    lo_lo = a_lo * b_lo
    hi_lo = a_hi * b_lo
    mid = (lo_lo >> _U(32)) + (hi_lo & _M32) + a_lo * b_hi
    return a_hi * b_hi + (hi_lo >> _U(32)) + (mid >> _U(32))


def _rop(g, cp):
    """cp g 2**-127 rounded to odd (figure 8 of Giulietti's paper)."""
    g1_hi, g1_lo, g1, g0_hi, g0_lo = g
    cp_hi = cp >> _U(32)
    cp_lo = cp & _M32
    x1 = _mul_high(g0_hi, g0_lo, cp_hi, cp_lo)
    z = ((g1 * cp) >> _U(1)) + x1
    vbp = _mul_high(g1_hi, g1_lo, cp_hi, cp_lo) + (z >> _U(63))
    return vbp | (((z & _MASK_63) + _MASK_63) >> _U(63))


def _decimal(bits):
    """f, e with f 10**e the shortest decimal that reads back as |v|.

    f may end in zeros. For nan, inf and zeros, f and e are arbitrary.
    """
    t = bits & _U((1 << 52) - 1)
    bq = (bits >> _U(52)).astype(np.int64) & 0x7FF
    subnormal = bq == 0
    c = t | ((~subnormal).astype(_U) << _U(52))
    tiny = subnormal & (t < _U(_C_TINY))
    if tiny.any():
        c[tiny] *= _U(10)
    q = bq + (subnormal - 1075)
    # the powers of two above the smallest normal have a closer lower
    # neighbour: their interval is asymmetric
    irregular = (t == 0) & (bq > 1)
    k = (q * 661_971_961_083 - irregular * 274_743_187_321) >> 41
    h = (q + ((-k * 913_124_641_741) >> 38) + 2).astype(_U)
    g = [row[k - _K_MIN] for row in _g_table()]
    out = c & _U(1)
    cb = c << _U(2)
    # v and the bounds of its rounding interval, scaled
    vb = _rop(g, cb << h)
    vbl = _rop(g, (cb - _U(2) + irregular) << h) + out
    vbr = _rop(g, (cb + _U(2)) << h) - out
    s = vb >> _U(2)
    # one digit shorter: u' = 10 floor(s / 10) and w' = u' + 10
    sp10 = s // _U(10) * _U(10)
    upin = vbl <= sp10 << _U(2)
    wpin = (sp10 + _U(10)) << _U(2) <= vbr
    shorter = (s >= _U(10)) & (upin != wpin)
    # full length: u = s and w = s + 1; the nearer if both fit, ties even
    uin = vbl <= s << _U(2)
    win = (s + _U(1)) << _U(2) <= vbr
    cmp = vb.astype(np.int64) - ((s << _U(2)) + _U(2)).astype(np.int64)
    odd = (s & _U(1)).astype(bool)
    pick_w = win & (~uin | (cmp > 0) | ((cmp == 0) & odd))
    full = s + pick_w
    short = sp10 + _U(10) * ~upin
    return full + (short - full) * shorter, k - tiny


def _block_rows(bits):
    """The rows of one block of float64 bit patterns, as (WIDTH, n)."""
    n = bits.size
    f, e10 = _decimal(bits)
    # zs[1 + i] holds Z[i]; zs[0] and zs[-1] are NUL for the shifted reads
    zs = np.zeros((_ZSLOTS + 2, n), dtype=np.uint8)
    hi = f // _U(10 ** 9)
    parts = np.stack([hi, f - hi * _U(10 ** 9)]).astype(np.uint32)
    last = _PAD + 17  # zs row of the units digit
    for i in range(9):  # digit i from the right of both halves
        quot = parts // np.uint32(10)
        zs[last - 9 - i:last + 1 - i:9] = parts - quot * np.uint32(10)
        parts = quot
    nonzero = zs[1 + _PAD:1 + last] != 0
    lead, trail = np.zeros((2, n), dtype=np.int16)
    for count, order in ((lead, nonzero), (trail, nonzero[::-1])):
        seen = np.zeros(n, dtype=bool)
        for row in order:
            seen |= row
            count += ~seen
    ndig = 17 - lead - trail
    zs[1:-1] += ord("0")
    decpt = (17 - lead + e10).astype(np.int16)
    fixed = (decpt > -4) & (decpt <= 16)
    first = _PAD + lead
    # point before Z[p]: after decpt digits, or after the first digit
    p_fixed = decpt + first
    p = np.where(fixed, p_fixed, first + 1)
    start = np.where(fixed, np.minimum(first, p_fixed - 1), first)
    stop = np.maximum(first + ndig, (p_fixed + 1) * fixed)
    end = stop + (p < stop)
    rows = np.empty((WIDTH, n), dtype=np.uint8)
    shown = rows[1:_ZSLOTS + 2]
    # slot o shows Z[o] before the point and Z[o - 1] after it, and only
    # for start <= o < end (one unsigned compare)
    before = (_OUT_SLOTS < p).view(np.uint8)
    z_prev = zs[:-1]
    np.multiply(zs[1:] - z_prev, before, out=shown)
    shown += z_prev
    shown *= ((_OUT_SLOTS - start).view(np.uint16)
              < (end - start).view(np.uint16)).view(np.uint8)
    shown[p, np.arange(n)] = ord(".") * (p < stop)
    neg = (bits >> _U(63)).astype(np.uint8)
    rows[0] = neg * ord("-")
    expo = (decpt - 1) * ~fixed
    mag = np.abs(expo)
    tail = rows[_ZSLOTS + 2:]
    tail[0] = ord("e")
    tail[1] = ord("+") + (ord("-") - ord("+")) * (expo < 0)
    tail[2] = mag // 100 + ord("0") * (mag >= 100)
    tail[3] = mag // 10 % 10 + ord("0")
    tail[4] = mag % 10 + ord("0")
    tail[:5] *= (~fixed).view(np.uint8)
    tail[5] = ord(",")
    magbits = bits & _MASK_63
    special = np.flatnonzero((magbits >= _EXP_BITS) | (magbits == 0))
    if special.size:
        magbits = magbits[special]
        kind = (magbits <= _EXP_BITS) + (magbits == 0).astype(np.intp)
        rows[:-1, special] = _special_rows()[:, 2 * kind + neg[special]]
    return rows


def repr_rows(values):
    """Rows of WIDTH bytes: repr(float(v)), NUL padding, and a comma last.

    values is a float64 array, read flat in C order. The non-NUL bytes of
    the rows, in order, are the texts each followed by a comma.
    """
    bits = np.ascontiguousarray(values, dtype=np.float64).view(_U).ravel()
    rows = np.empty((bits.size, WIDTH), dtype=np.uint8)
    for start in range(0, bits.size, _BLOCK):
        stop = start + _BLOCK
        rows[start:stop] = _block_rows(bits[start:stop]).T
    return rows
