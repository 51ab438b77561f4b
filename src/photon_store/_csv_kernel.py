"""The bytes of Python's ``"%.12g"`` for a block of float64 rows,
computed with numpy: the CSV series writer of :mod:`runner`.

Each value's decimal exponent comes from its binary one, a double-double
product (Dekker 1971) with a table of 10**k scales it to a 12-digit
integer, and its text is laid out from lookup tables in a fixed-width
slot.  Values the product cannot settle are formatted by Python.
"""

from __future__ import annotations

import functools
from typing import NamedTuple

import numpy as np

# the kernel formats the values whose biased binary exponent lies in
# [_E_LO, _E_HI], |v| in about [1e-280, 1e280], and zeros; the rest,
# and the rare value too close to a rounding tie, take Python's %.12g
_E_LO, _E_HI = 1023 - 930, 1023 + 930
_POW_LO = -300  # least k of the 10**k table, which ends at -_POW_LO
_X_OFF = 300  # index of decimal exponent 0 in the tables by exponent
# the double-double's fraction is within 2**-52 of the exact one, so a
# fraction further than _TIE from 1/2 rounds the 12-digit mantissa as
# the exact value does
_TIE = 1e-15
_SPLIT = 134217729.0  # 2**27 + 1, Dekker's splitter
_WORD = np.uint64


def _split(v):
    """Dekker's split of ``v`` into 26 high and 27 low significant bits."""
    big = v * _SPLIT
    hi = big - (big - v)
    return hi, v - hi


class _CsvTables(NamedTuple):
    pow10: np.ndarray  # (k, 4): hi, lo of 10**k and hi's split
    fast: np.ndarray  # by biased exponent: all ones where the kernel formats
    x0: np.ndarray  # by biased exponent: floor(log10 |v|) or one less
    above: np.ndarray  # by biased exponent: 10**(x0 + 1), rounded
    digits: np.ndarray  # by 4-digit group: its ASCII at bytes 0-3
    nd: np.ndarray  # (3, 10**4): 2 * digits up to a group's last non-zero
    kind: np.ndarray  # by decimal exponent: first layout row
    # (kind, 2 nd, sign) -> masks of D << 8 over words 0-1 and of D << shift
    # over words 0-2, the fixed bytes of words 0-1, and the shift
    layout: np.ndarray
    exponent: np.ndarray  # by decimal exponent: slot words with "e+XX[X]"


@functools.cache
def _csv_tables() -> _CsvTables:
    """Lookup tables of the CSV kernel, built on the first write."""
    ks = range(_POW_LO, -_POW_LO + 1)
    pow10 = np.empty((len(ks), 4))
    for row, k in zip(pow10, ks):
        d = 10 ** abs(k)
        # int -> float and int / int round correctly: hi is 10**k
        # rounded, lo the rest rounded
        if k >= 0:
            row[0] = float(d)
            row[1] = d - int(row[0])
        else:
            row[0] = 1 / d
            num, den = row[0].as_integer_ratio()
            row[1] = (den - num * d) / (den * d)
    pow10[:, 2], pow10[:, 3] = _split(pow10[:, 0])

    e = np.arange(2048)
    fast = (e >= _E_LO) & (e <= _E_HI)
    # |v| in [2**(e-1023), 2**(e-1022)): floor((e - 1023) log10 2) by
    # Ryu's multiplier is floor(log10 |v|) or one less
    x0 = np.where(fast, ((e - 1023) * 78913) >> 18, 0)
    above = np.where(fast, pow10[x0 + 1 - _POW_LO, 0], np.inf)

    # built with int64 operations: each further numpy loop a process
    # runs maps more of numpy's code into its memory
    g = np.arange(10**4)
    ascii4 = sum((g // 10 ** (3 - j) % 10 + 48) << 8 * j for j in range(4))
    last = 4 - (g % 10 == 0) - (g % 100 == 0) - (g % 1000 == 0) - (g == 0)
    nd = np.stack([last, (4 + last) * (g != 0), (8 + last) * (g != 0)])

    # a slot is 24 bytes: the sign at 0, the digit field from 1, the
    # exponent at 14-18 and the separator at 23.  Kinds q: 0-11 fixed
    # with q + 1 integer digits, 12-15 fixed "0." with q - 12 zeros,
    # 16 exponent.  Of the 12 digits D, the field takes D << 8 (integer
    # digits) and D << shift (fraction digits after a dot, or all of
    # them after "0.0..")
    x = np.arange(-_X_OFF, _X_OFF + 1)
    q = np.where((x >= -4) & (x < 12), np.where(x < 0, 11 - x, x), 16)
    ax = np.where(x < 0, -x, x)
    big = ax >= 100
    text = np.zeros((x.size, 24), np.int64)
    text[:, 14] = ord("e")
    text[:, 15] = ord("+") + (x < 0) * (ord("-") - ord("+"))
    text[:, 16] = np.where(big, ax // 100, ax // 10 % 10) + 48
    text[:, 17] = np.where(big, ax // 10 % 10, ax % 10) + 48
    text[:, 18] = (ax % 10 + 48) * big
    text[:, 8:] *= (q == 16)[:, None]

    qq, n, neg, j = np.ix_(range(17), range(13), range(2), range(24))
    dotted = (qq <= 11) | (qq == 16)
    p = np.where(qq == 16, 1, qq + 1)
    s = np.where(dotted, 2, qq - 9)
    dot = dotted & (n > p)
    integer = dotted & (j >= 1) & (j <= p)
    fraction = np.where(dotted, dot & (j >= p + 2) & (j < n + 2), (j >= s) & (j < s + n))
    fixed = (j == 0) * neg * ord("-") + (dot & (j == p + 1)) * ord(".")
    fixed += (~dotted & (j >= 1) & (j < s)) * (ord("0") - (j == 2) * (ord("0") - ord(".")))

    def words(byte_rows):
        rows = np.broadcast_to(byte_rows, (17, 13, 2, 24))
        return np.ascontiguousarray(rows, np.uint8).view("<u8")

    layout = np.concatenate(
        [
            words(integer * 255)[..., :2],
            words(fraction * 255),
            words(fixed)[..., :2],
            np.broadcast_to(8 * s, (17, 13, 2, 1)).astype(_WORD),
        ],
        axis=-1,
    )
    return _CsvTables(
        pow10=pow10,
        fast=np.where(fast, ~_WORD(0), _WORD(0)),
        x0=x0,
        above=above,
        digits=ascii4.astype(_WORD),
        nd=(2 * nd).astype(np.uint8),
        kind=q * 26,
        layout=layout.reshape(-1, 8),
        exponent=text.astype(np.uint8).view("<u8"),
    )


def _mantissa(v: np.ndarray, tab: _CsvTables):
    """Each value's 12-digit mantissa m, correctly rounded, its decimal
    exponent x (|v| rounds to m * 10**(x - 11)), and which values the
    kernel leaves to Python's %.12g."""
    biased = v.view(np.int64) >> 52 & 0x7FF
    # |v|, or 0 where the kernel does not apply (x0 0, above inf there)
    a = (v.view(_WORD) & tab.fast.take(biased) & _WORD(2**63 - 1)).view(float)
    x = tab.x0.take(biased)
    x += a >= tab.above.take(biased)
    pw = tab.pow10.take(11 - _POW_LO - x, axis=0)
    # a * 10**(11 - x) = p + t: Dekker's exact product of a and hi plus
    # a * lo
    p = a * pw[:, 0]
    ah, al = _split(a)
    t = (((ah * pw[:, 2] - p) + ah * pw[:, 3] + al * pw[:, 2]) + al * pw[:, 3]) + a * pw[:, 1]
    whole = np.floor(p)
    half = (p - whole) + t + 0.5
    m = whole + np.floor(half)
    slow = ((a == 0.0) & (v != 0.0)) | (np.abs(half - 1.0) < _TIE)
    # x was floor(log10 |v|) or one less, and rounding may carry to 10**12
    carry = m >= 1e12
    m -= carry * 9e11
    x += carry
    return m.astype(np.int64), x, slow


def format_block(block: np.ndarray) -> str:
    """The rows of ``block`` as Python's ``"%.12g"`` writes them, each
    value followed by a comma or, ending its row, a newline.

    Each value is laid out in a 24-byte slot whose unused bytes are 0;
    one ``translate`` drops them.  A value the kernel leaves to Python
    marks its slot with byte 1, where its ``%.12g`` text is spliced in.
    """
    tab = _csv_tables()
    rows, cols = block.shape
    v = block.ravel()
    m, x, slow = _mantissa(v, tab)
    g0 = m // 10**8
    m -= g0 * 10**8
    g1 = m // 10**4
    g2 = m - g1 * 10**4
    d0 = tab.digits.take(g0) | tab.digits.take(g1) << _WORD(32)
    d1 = tab.digits.take(g2)
    nd = np.maximum(np.maximum(tab.nd[0].take(g0), tab.nd[1].take(g1)), tab.nd[2].take(g2))
    x += _X_OFF
    lay = tab.layout.take(tab.kind.take(x) + nd + np.signbit(v), axis=0)
    shift = lay[:, 7]
    back = 64 - shift
    out = tab.exponent.take(x, axis=0)
    out[:, 0] = ((d0 << _WORD(8)) & lay[:, 0]) | ((d0 << shift) & lay[:, 2]) | lay[:, 5]
    out[:, 1] |= (((d1 << _WORD(8)) | (d0 >> _WORD(56))) & lay[:, 1]) | lay[:, 6]
    out[:, 1] |= ((d1 << shift) | (d0 >> back)) & lay[:, 3]
    out[:, 2] |= (d1 >> back) & lay[:, 4]
    sep = np.full(cols, _WORD(ord(",") << 56))
    sep[-1] = ord("\n") << 56
    out.reshape(rows, cols, 3)[:, :, 2] |= sep
    if not slow.any():
        return out.tobytes().translate(None, b"\0").decode("ascii")
    idx = np.flatnonzero(slow)
    out[idx, 0] = 1
    out[idx, 1] = 0
    out[idx, 2] &= _WORD(0xFF << 56)
    parts = out.tobytes().translate(None, b"\0").split(b"\1")
    spliced = [b"%.12g" % value for value in v[idx].tolist()]
    spliced.append(b"")
    return b"".join(b for pair in zip(parts, spliced) for b in pair).decode("ascii")
