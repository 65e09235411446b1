"""``%.17g`` CSV cells formatted in NumPy, byte for byte.

:func:`format_rows` turns a float table into CSV rows whose bytes equal
``(",".join(["%.17g"] * m) + "\\n") * n % tuple(table.ravel().tolist())``.
Python's ``%`` spends about half a microsecond per cell in its correctly
rounded 17-digit conversion; here the digits of every cell come from one
exact product in array arithmetic.

**Digits.**  For ``1e-280 <= |x| < 1e280`` with decimal exponent ``E``,
``|x| * 10**(16 - E)`` is formed as a double-double: Dekker's exact split
product (*Numer. Math.* 18 (1971) 224) of ``|x|`` with the high part of
``10**p``, plus ``|x|`` times its low part.  The high part of the product
is an integer-valued double of at least ``2**53``, so the integer part is
exact in ``int64`` and the fraction is off by less than ``1e-14``;
rounding on ``fraction > 0.5`` gives the correctly rounded 17 digits.
``E`` comes from ``log10``, stepped once where the integer part falls
outside ``[10**16, 10**17)``.

**Fallback.**  A cell goes through Python's ``%`` when its fraction lies
within ``1e-9`` of one half (a tie or near tie, which ``%`` rounds half to
even), when its ``E`` is still unsettled after the step, and for ``±0``,
NaN, ``±inf`` and magnitudes outside the range.

**Layout.**  Each cell is a 32-byte field, unused bytes 0: its sign,
mantissa and ``e±XX`` by the ``%g`` rules (fixed notation for
``-4 <= E < 17`` with trailing zeros and a bare point dropped, else
``d.ddde±XX``), then its separator.  One ``translate`` deletes the 0s.
"""

from __future__ import annotations

import functools

import numpy as np

#: Magnitudes the array path formats; the others go through ``%``.
FAST_MIN, FAST_MAX = 1e-280, 1e280
#: Cells whose fraction lies this close to one half go through ``%``.
TIE_MARGIN = 1e-9

_P_MIN, _P_MAX = -270, 300   # exponents of the 10**p table; |x| in range needs -265..297
_SPLIT = 134217729.0         # 2**27 + 1, Dekker's splitter
_LOW, _HIGH = 10 ** 16, 10 ** 17
_CELL = 32                   # bytes of one cell's field, separator included
_FORMS = 23                  # fixed notation for E = -4..16, then d.ddde+XX and d.ddde-XX
_DROPS = 17                  # trailing zeros dropped: 0..16
_NO_EXPONENT = 400           # column of _tails() for a cell in fixed notation


@functools.cache
def _powers():
    """``(hi, lo)`` with ``hi + lo`` = ``10**p`` to 106 bits, ``p`` in ``[_P_MIN, _P_MAX]``.

    Built on first use from integers alone: ``hi`` is the correctly rounded
    ``10**p`` and ``lo`` the correctly rounded remainder ``10**p - hi``.
    """
    hi, lo = [], []
    for p in range(_P_MIN, _P_MAX + 1):
        num, den = (10 ** p, 1) if p >= 0 else (1, 10 ** -p)
        h = num / den
        h_num, h_den = h.as_integer_ratio()
        hi.append(h)
        lo.append((num * h_den - h_num * den) / (den * h_den))
    return np.array(hi), np.array(lo)


@functools.cache
def _quads():
    """``(words, zeros)`` of each 4-digit chunk ``0..9999``.

    ``words`` holds its four ASCII digits as one native ``uint32``;
    ``zeros`` counts its trailing zero digits (4 for 0).
    """
    k = np.arange(10 ** 4)
    words = np.empty((k.size, 4), dtype=np.uint8)
    zeros = np.zeros(k.size, dtype=np.uint8)
    for j in range(4):
        rest = k // 10
        digit = k - rest * 10
        words[:, 3 - j] = digit + ord("0")
        zeros += (zeros == j).view(np.uint8) * (digit == 0).view(np.uint8)
        k = rest
    return words.view(np.uint32).ravel(), zeros


@functools.cache
def _layouts():
    """Byte masks and literals of every cell layout: ``(take_a, take_b, literal)``.

    A layout is ``(form * _DROPS + dropped) * 2 + negative``.  Its row of
    ``_CELL`` bytes takes ``src[j]`` where ``take_a`` is 1 and ``src[j - 1]``
    (a digit past the point) where ``take_b`` is 1, and adds ``literal``:
    sign, point and ``e+``/``e-``.  ``src`` holds seven ``'0'``s, then the
    17 digits, in bytes 0..23; bytes 28..31 come from :func:`_tails`.
    """
    n = _FORMS * _DROPS * 2
    take_a, take_b, literal = (np.zeros((n, _CELL), dtype=np.uint8) for _ in range(3))
    for form in range(_FORMS):
        exp = form - 4 if form < 21 else 0
        point, start = 8 + exp, 7 + min(exp, 0)
        for dropped in range(min(_DROPS, 25 - point)):
            end = 25 - dropped - (dropped == 24 - point)
            for negative in (0, 1):
                row = (form * _DROPS + dropped) * 2 + negative
                take_a[row, start:min(point, end)] = 1
                take_b[row, point + 1:end] = 1
                if point < end:
                    literal[row, point] = ord(".")
                if negative:
                    literal[row, start - 1] = ord("-")
                if form >= 21:
                    literal[row, 26:28] = list(b"e+" if form == 21 else b"e-")
    return take_a, take_b, literal


@functools.cache
def _tails():
    """Bytes 28..31 of a cell, as ``uint32`` words: exponent digits and separator.

    Row 0 ends in ``,`` and row 1 in LF.  Column ``|E|`` holds two exponent
    digits, or three from 100; column ``_NO_EXPONENT`` the separator alone.
    """
    def tail(e, sep):
        digits = b"" if e == _NO_EXPONENT else b"%02d" % e
        return digits.rjust(3, b"\0") + sep
    return np.frombuffer(b"".join(tail(e, sep) for sep in (b",", b"\n")
                                  for e in range(_NO_EXPONENT + 1)),
                         dtype=np.uint32).reshape(2, -1)


def _split(v):
    """Dekker's split: ``v = big + small``, each with at most 26 significant bits."""
    s = v * _SPLIT
    big = s - (s - v)
    return big, v - big


def _scaled(a, exponent):
    """``(whole, frac)`` of ``a * 10**(16 - exponent)``.

    ``whole`` is exact when it is at least ``2**53``, and ``frac`` is off by
    less than ``1e-14``.
    """
    hi, lo = _powers()
    row = 16 - _P_MIN - exponent
    h = hi.take(row)
    big = a * h
    a_big, a_small = _split(a)
    h_big, h_small = _split(h)
    # The exact error of big, ((a_big*h_big - big) + a_big*h_small + a_small*h_big)
    # + a_small*h_small, then the low part of 10**p.
    small = a_big * h_big
    small -= big
    small += a_big * h_small
    small += a_small * h_big
    small += a_small * h_small
    small += a * lo.take(row)
    whole = np.floor(small)
    small -= whole
    digits = big.astype(np.int64)
    digits += whole.astype(np.int64)
    return digits, small


def _digits(a):
    """``(digits, exponent, settled)``: 17 correctly rounded digits of ``a``.

    ``digits`` is an ``int64`` in ``[10**16, 10**17)`` with
    ``a ≈ digits * 10**(exponent - 16)``; ``settled`` is False where the
    value must go through ``%`` instead.
    """
    settled = (a >= FAST_MIN) & (a < FAST_MAX)   # NaN fails both
    a = np.where(settled, a, 1.0)
    exponent = np.floor(np.log10(a)).astype(np.int64)
    digits, frac = _scaled(a, exponent)
    # log10 may land one off next to a power of ten: step those cells once.
    off = np.flatnonzero((digits < _LOW) | (digits >= _HIGH))
    if off.size:
        exponent[off] += np.where(digits[off] < _LOW, -1, 1)
        digits[off], frac[off] = _scaled(a[off], exponent[off])
    settled &= (digits >= _LOW) & (digits < _HIGH) & (np.abs(frac - 0.5) >= TIE_MARGIN)
    digits += frac > 0.5
    carry = digits == _HIGH
    digits[carry] = _LOW
    exponent += carry
    return digits, exponent, settled


def format_rows(table: np.ndarray) -> bytearray:
    """The CSV rows of a 2-D float table: ``%.17g`` per cell, ``,`` and LF."""
    rows, m = table.shape
    n = rows * m
    x = np.ascontiguousarray(table, dtype=float).ravel()
    digits, exponent, settled = _digits(np.abs(x))
    fixed = (exponent >= -4) & (exponent < 17)
    tail = np.where(fixed, _NO_EXPONENT, np.abs(exponent)).reshape(rows, m)
    tail[:, -1] += _NO_EXPONENT + 1
    form = np.where(fixed, exponent + 4, 21 + (exponent < 0))
    frac_digits = np.where(fixed, 16 - exponent, 16)
    # Each intermediate is dropped once used, which keeps a block's peak near
    # three 32-byte arrays per cell.
    del exponent, fixed

    # The leading digit and four 4-digit chunks, and the trailing zero digits.
    # int64 floor division and a product: faster than np.divmod, and the
    # chunks index the tables below without a cast.
    upper = digits // 10 ** 8
    lower = digits - upper * 10 ** 8
    del digits
    lead = upper // 10 ** 8
    upper -= lead * 10 ** 8
    chunks = [lead]
    for value in (upper, lower):
        high = value // 10 ** 4
        value -= high * 10 ** 4
        chunks += [high, value]
    del upper, lower
    words, zeros = _quads()
    trailing = zeros.take(chunks[4])
    for k, chunk in enumerate(chunks[3:0:-1], 1):
        trailing += (trailing == 4 * k).view(np.uint8) * zeros.take(chunk)
    layout = (form * _DROPS + np.minimum(trailing, frac_digits)) * 2 + np.signbit(x)
    del form, frac_digits, trailing

    # Four zero bytes, then the cells: the view one byte back starts inside them.
    buf = bytearray(4 + n * _CELL)
    flat = np.frombuffer(buf, dtype=np.uint8)
    cells = flat[4:].reshape(n, _CELL)
    src = cells.view(np.uint32)
    src[:, 0] = words[0]
    for k, chunk in enumerate(chunks):
        src[:, 1 + k] = words.take(chunk)
    del chunks
    take_a, take_b, literal = _layouts()
    part = take_b.take(layout, axis=0)
    part *= flat[3:-1].reshape(n, _CELL)
    cells *= take_a.take(layout, axis=0)
    cells += part
    cells += literal.take(layout, axis=0, out=part)
    del part
    src[:, -1] = _tails().take(tail.ravel())

    for i in np.flatnonzero(~settled).tolist():
        start = 4 + i * _CELL
        buf[start:start + _CELL - 1] = ("%.17g" % x[i]).encode().ljust(_CELL - 1, b"\0")
    return buf.translate(None, b"\0")
