"""``"%.17g" % v`` for every value of a float64 array, in a few array passes.

``format_rows(data)`` returns the text of ``data``'s rows, each value as
``"%.17g" % v``, joined by ``,`` and ended by ``\\n``: byte for byte what the
``%`` operator writes.

Method, for |v| finite and normal, with |v| = fa * 2^ea, fa in [1/2, 1):

* The decimal exponent E, with 10^E <= |v| < 10^(E+1), is E0 or E0 + 1 for
  E0 = floor((ea - 1) log10 2) = ((ea - 1) * 78913) >> 18; one comparison
  with the least double >= 10^(E0+1) picks it exactly.
* The 17 digits are N = round(S), S = |v| * 10^(16-E) in [10^16, 10^17).
  With 10^k = (th + tl) * 2^g, th in [1, 2], a table built from exact
  integers, fa * th is formed exactly by Dekker's product of Veltkamp
  halves, fa * tl is added, and a power of two rescales exactly. That gives
  S as hi + lo, hi an integer double.
* The error of hi + lo is at most 2^-104 of the unscaled product fa * 10^k
  * 2^-g >= 1/2: 2^-106 from the table, 2^-106 from fa * tl and 2^-105 from
  the sum. So |hi + lo - S| <= 2^-103 * S < 1e-14, and N = hi + rint(lo)
  is round(S) unless the fraction lo - rint(lo) lies within 1e-14 of +-1/2.
  A value whose fraction lies within 2^-40 (about 9.1e-13) of +-1/2 is
  written by ``"%.17g" % v`` on its own, so exact ties such as
  123456789012.015625 round half to even, as CPython rounds them. So are
  subnormals, inf and nan. N = 10^17 carries into E + 1.
* The text follows the %g rule: fixed notation for -4 <= E < 17, otherwise
  ``d.ddd``, ``e``, the sign and at least two exponent digits; trailing
  zeros are removed, then a bare ``.``. A zero is N = 0 at E = 0, "0" or
  "-0".

Each value is laid out in 48 pad (zero) bytes: the sign and a ``0.000``
prefix, 17 digit bytes each followed by a slot for the point, the exponent
and the separator. The digits come four at a time from a table of 10000
words, and deleting the pad bytes gives the text. The tables are built on
first use.
"""

from __future__ import annotations

import functools

import numpy as np

# lowest and highest power of ten in the table
_K = 340
# half-width of the band around a tie of the 17th digit sent to "%.17g" % v
_BAND = 2.0**-40
_TINY = np.finfo(float).tiny
# little-endian, so that a word's bytes are in text order
_WORD = np.dtype("<i8")


@functools.cache
def _pow10():
    """th, th's Veltkamp halves, tl, g with 10^k = (th + tl) * 2^g, th in
    [1, 2], and the least double >= 10^k, for k in [-_K, _K]."""
    th, tl, g = [], [], []
    for k in range(-_K, _K + 1):
        num, den = (10**k, 1) if k >= 0 else (1, 10**-k)
        e = num.bit_length() - den.bit_length()
        if (num << max(-e, 0)) < (den << max(e, 0)):
            e -= 1  # now 2^e <= 10^k < 2^(e+1)
        num, den = (num << max(52 - e, 0), den << max(e - 52, 0))
        m = num / den  # correctly rounded, in [2^52, 2^53]
        th.append(m / 2.0**52)
        tl.append((num - int(m) * den) / (den << 52))
        g.append(e)
    th, tl, g = np.array(th), np.array(tl), np.array(g)
    s = th * 134217729.0
    thh = s - (s - th)
    # below the normal range `least` is only near 10^k
    with np.errstate(over="ignore"):
        least = np.ldexp(np.where(tl > 0, np.nextafter(th, 3.0), th), g)
    return th, thh, th - thh, tl, g, least


@functools.cache
def _text():
    """Words of a value's 48 bytes, as int64 (every byte is below 0x80)."""
    # bytes 8-39: 4 digits of a group, each followed by a pad byte
    d = np.arange(10000, dtype=np.int64)[:, None] // np.array([1000, 100, 10, 1]) % 10
    quad = ((d + 48) << np.array([0, 16, 32, 48])).sum(axis=1)
    tz4 = (d[:, ::-1].cumsum(axis=1) == 0).sum(axis=1).astype(np.int8)
    # the words 1-4 of a value that keeps its first `keep` (0-17) digits
    count = np.clip(np.arange(18, dtype=np.int64)[:, None] - np.array([1, 5, 9, 13]), 0, 4)
    mask = np.where(count == 4, -1, (1 << 16 * count) - 1)
    # per decimal exponent E in [-_K, _K]: the digit the point follows (-1
    # when it is in the "0." prefix), bytes 0-7 (the sign, then "0." and up
    # to 3 zeros) without and with "-", and bytes 40-47 ("e", the sign and
    # 2 or 3 digits of the exponent, or none)
    x = np.arange(-_K, _K + 1)
    fixed = (x >= -4) & (x < 17)
    point = np.where(fixed, x, 0)
    head = np.zeros((len(x), 2, 8), np.uint8)
    head[:, 1, 0] = ord("-")
    for z in range(1, 5):
        head[x == -z, :, 1 : 2 + z] = np.frombuffer(b"0.000"[: 1 + z], np.uint8)
    point[(x < 0) & fixed] = -1
    ex = np.zeros((len(x), 8), np.uint8)
    ex[:, 0] = ord("e")
    ex[:, 1] = np.where(x < 0, ord("-"), ord("+"))
    ex[:, 2] = np.where(abs(x) >= 100, 48 + abs(x) // 100, 0)
    ex[:, 3] = 48 + abs(x) // 10 % 10
    ex[:, 4] = 48 + abs(x) % 10
    ex[fixed] = 0
    return quad, tz4, mask, point, head.view(_WORD).ravel(), ex.view(_WORD).ravel()


def _decimal17(a: np.ndarray):
    """(N, E, exact) for a >= 0: a rounds to N * 10^(E-16) with 17 digits.

    N is in [10^16, 10^17), or 0 at E = 0 for a = 0. Lanes that are not
    exact (subnormal, inf, nan, near a tie) carry junk in that range.
    """
    th, thh, thl, tl, g, least = _pow10()
    zero = a == 0.0
    normal = (a >= _TINY) & (a < np.inf)
    exact = normal | zero
    x = np.where(normal, a, 1.0)
    fa, ea = np.frexp(x)
    # floor((ea - 1) log10 2) <= E <= that + 1
    e = (ea - 1) * 78913 >> 18
    e += x >= least.take(e + (_K + 1))
    k = (_K + 16) - e
    p = fa * th.take(k)
    s = fa * 134217729.0
    fh = s - (s - fa)
    fl = fa - fh
    hh, hl = thh.take(k), thl.take(k)
    lo = (((fh * hh - p) + fh * hl + fl * hh) + fl * hl) + fa * tl.take(k)
    scale = ((ea + g.take(k) + 1023).astype(np.int64) << 52).view(np.float64)
    lo *= scale
    r = np.rint(lo)
    exact &= np.abs(lo - r) < 0.5 - _BAND
    n = (p * scale).astype(np.int64) + r.astype(np.int64)
    carry = n == 10**17
    n -= carry * (9 * 10**16)
    e += carry
    return np.where(zero, 0, n), np.where(zero, 0, e), exact


def format_rows(data: np.ndarray) -> str:
    """The rows of a 2-D array, each value as "%.17g" % v, "," between, "\\n" after."""
    quad, tz4, mask, point, head, ex = _text()
    v = np.asarray(data, dtype=float)
    cols = v.shape[1]
    v = v.ravel()
    n, e, exact = _decimal17(np.abs(v))
    hi9 = n // 10**8
    lo8 = n - hi9 * 10**8
    d0 = hi9 // 10**8
    hi8 = hi9 - d0 * 10**8
    q = np.empty((len(v), 4), np.int64)
    q[:, 0] = hi8 // 10**4
    q[:, 1] = hi8 - q[:, 0] * 10**4
    q[:, 2] = lo8 // 10**4
    q[:, 3] = lo8 - q[:, 2] * 10**4
    tz = tz4.take(q)
    tz[:, 3] += (q[:, 3] == 0) * tz[:, 2]
    tz[:, 1] += (q[:, 1] == 0) * tz[:, 0]
    tz = tz[:, 3] + (lo8 == 0) * tz[:, 1]
    ie = e + _K
    dp = point.take(ie)
    cut = np.minimum(tz, 16 - dp)

    rows = np.empty((len(v), 6), _WORD)
    rows[:, 0] = head.take(2 * ie + np.signbit(v)) | (d0 + 48) << 48
    rows[:, 1:5] = quad.take(q) & mask.take(17 - cut, axis=0)
    rows[:, 5] = ex.take(ie)
    sep = np.full(cols, ord(","), np.int64)
    sep[-1] = ord("\n")
    rows.reshape(-1, cols, 6)[:, :, 5] |= sep << 40
    text = rows.view(np.uint8).reshape(len(v), 48)
    # the point, unless the fraction is all cut
    at = np.flatnonzero((dp >= 0) & (cut + dp < 16))
    text[at, 7 + 2 * dp[at]] = ord(".")
    for i in np.flatnonzero(~exact):
        s = np.frombuffer(("%.17g" % v[i]).encode(), np.uint8)
        text[i, :45] = 0
        text[i, : len(s)] = s
    return text.tobytes().translate(None, b"\0").decode("ascii")
