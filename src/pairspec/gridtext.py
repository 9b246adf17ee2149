"""The text "%.17g" prints for every number of a float array, made for
whole arrays at once.

Each value is scaled by a power of ten to a 17-digit integer with a
double-double product, rounded half-even, and its digits come from a table
of 4-digit chunks; a value whose rounding is in doubt, or that is not
finite, is formatted by Python.  The bytes equal per-value "%.17g"
formatting (D. M. Gay, "Correctly rounded binary-decimal and
decimal-binary conversions", 1990; U. Adams, "Ryu revisited: printf
floating point conversion", OOPSLA 2019).
"""

import functools
from typing import NamedTuple

import numpy as np

# Byte slots of one number as "%.17g" prints it; its text is its nonzero
# slots in order.  Slot 0 holds "-" or nothing, slots 1-5 the "0." to "0.000"
# that fixed notation puts before a value below 1, and slots 27-31 "e", the
# exponent sign and two or three digits.  Slots 6-26 hold the digits: place
# p of the 20-place string "000" + 17 digits goes to slot 6 + p if it is an
# integer digit and to 7 + p if it is a fraction digit, so the decimal point
# fits in the gap.  Slots 0-7 and 24-31 are also read as 64-bit words.
_SLOTS = 32
_DIGITS = 6
# Numbers per formatting call.  At 8192 the temporaries (about 1 MiB) stay
# in cache; at 65536 the same grid took half as long again.
_BLOCK = 1 << 13
# The double-double product leaves an absolute error of about 2**-45 on the
# scaled value; a fraction this close to 1/2 (every exact tie among them)
# is formatted by Python instead.
_TIE_BAND = 2.0**-20
_TEN16 = 10**16
_TEN17 = 10**17


class _Tables(NamedTuple):
    k_min: int  # row k - k_min of the next five holds 10**k = (hi + lo) * 2**b
    hi: np.ndarray
    lo: np.ndarray
    b: np.ndarray
    hi_hi: np.ndarray  # Dekker halves of hi
    hi_lo: np.ndarray
    chunk: np.ndarray  # uint32: the four ASCII digits of 0..9999
    chunk_last: np.ndarray  # place of a chunk's last nonzero digit, -99 for 0
    mask: np.ndarray  # 20 bytes, 0xff at digit places 3 <= p < e, by e
    x_min: int  # row X - x_min of the next two belongs to decimal exponent X
    lead: np.ndarray  # word of slots 0-7: "0." to "0.000" for -4 <= X < 0
    exp: np.ndarray  # word of slots 24-31: "e+17", "e-308", ... outside that


@functools.cache
def _tables():
    """Lookup tables of the grid writer, built once, exactly, from Python
    integers.  The powers of ten cover k = 16 - X for every decimal
    exponent X of a double and its neighbours."""
    k_min, k_max = -294, 342
    his, los, bs = [], [], []
    for k in range(k_min, k_max + 1):
        num, den = (10**k, 1) if k >= 0 else (1, 10**-k)
        b = num.bit_length() - den.bit_length()
        if num << max(-b, 0) < den << max(b, 0):
            b -= 1
        num, den = num << max(-b, 0), den << max(b, 0)
        hi = num / den  # int / int rounds correctly
        his.append(hi)
        los.append(((num << 52) - int(hi * 2.0**52) * den) / (den << 52))
        bs.append(b)
    hi = np.array(his)
    split = 134217729.0 * hi  # 2**27 + 1
    hi_hi = split - (split - hi)

    digits = np.empty((10000, 4), dtype=np.int64)
    rest = np.arange(10000)
    for place in range(3, -1, -1):
        rest, digits[:, place] = np.divmod(rest, 10)
    chunk_last = np.full(10000, -99, dtype=np.int64)
    for place in range(4):
        chunk_last[digits[:, place] != 0] = place
    mask = np.zeros((21, 20), dtype=np.uint8)
    for end in range(3, 21):
        mask[end, 3:end] = 0xFF
    x_min, x_max = -330, 310
    lead = np.zeros((x_max - x_min + 1, 8), dtype=np.uint8)
    exp = np.zeros_like(lead)
    for x_exp in range(x_min, x_max + 1):
        if x_exp < -4 or x_exp >= 17:
            text = b"e%+03d" % x_exp
            exp[x_exp - x_min, 3 : 3 + len(text)] = list(text)
        elif x_exp < 0:
            text = b"0." + b"0" * (-x_exp - 1)
            lead[x_exp - x_min, 1 : 1 + len(text)] = list(text)
    tables = _Tables(
        k_min, hi, np.array(los), np.array(bs, dtype=np.int32), hi_hi, hi - hi_hi,
        (digits + ord("0")).astype(np.uint8).view(np.uint32).ravel(), chunk_last,
        mask.view(np.dtype((np.void, 20))).ravel(),
        x_min, lead.view(np.uint64).ravel(), exp.view(np.uint64).ravel(),
    )
    # Sweep worker threads share the tables; a write would raise.
    for array in tables:
        if isinstance(array, np.ndarray):
            array.flags.writeable = False
    return tables


def _scaled(t, a, x_exp):
    """floor(a * 10**(16 - x_exp)) as int64 and the fraction left over, for
    positive finite doubles a."""
    k = 16 - x_exp - t.k_min
    y = np.ldexp(a, t.b[k])  # exact: y is about 10**16
    p = y * t.hi[k]
    split = 134217729.0 * y
    y_hi = split - (split - y)
    y_lo = y - y_hi
    hi_hi, hi_lo = t.hi_hi[k], t.hi_lo[k]
    # p + r = y * (hi + lo), with p an integer whenever y * hi >= 2**52.
    r = ((y_hi * hi_hi - p) + y_hi * hi_lo + y_lo * hi_hi) + y_lo * hi_lo
    r += y * t.lo[k]
    floor_r = np.floor(r)
    return p.astype(np.int64) + floor_r.astype(np.int64), r - floor_r


def _number_slots(x):
    """The "%.17g" text of every value of a 1-D float64 array, as _SLOTS
    bytes per value."""
    t = _tables()
    n = x.size
    out = np.zeros((n, _SLOTS), dtype=np.uint8)
    a = np.abs(x)
    finite = np.isfinite(a)
    regular = finite & (a != 0)
    a = np.where(regular, a, 1.0)
    x_exp = np.floor(np.log10(a)).astype(np.int64)
    whole, frac = _scaled(t, a, x_exp)
    # log10 may miss the decimal exponent by one next to a power of ten.
    off = np.flatnonzero((whole < _TEN16) | (whole + (frac > 0.5) > _TEN17))
    if off.size:
        x_exp[off] += np.where(whole[off] < _TEN16, -1, 1)
        whole[off], frac[off] = _scaled(t, a[off], x_exp[off])
    digits17 = np.where(regular, whole + (frac > 0.5), 0)
    carry = digits17 == _TEN17
    digits17[carry] = _TEN16
    x_exp[carry] += 1
    x_exp[~regular] = 0

    # The 17 digits as five 4-digit chunks, "000d" first, read from a table.
    upper, lower = np.divmod(digits17, 10**8)
    chunks = np.empty((n, 5), dtype=np.int64)
    chunks[:, 0], upper = np.divmod(upper, 10**8)
    chunks[:, 1], chunks[:, 2] = np.divmod(upper, 10**4)
    chunks[:, 3], chunks[:, 4] = np.divmod(lower, 10**4)
    digits = t.chunk[chunks].view(np.uint8)  # (n, 20): place 3 + j is digit j
    last = t.chunk_last[chunks[:, 0]] - 3
    for i in range(1, 5):
        np.maximum(last, t.chunk_last[chunks[:, i]] + (4 * i - 3), out=last)
    np.maximum(last, 0, out=last)

    sci = (x_exp < -4) | (x_exp >= 17)
    whole_digits = np.where(sci, 1, np.maximum(x_exp + 1, 0))
    in_whole = t.mask[3 + whole_digits].view(np.uint8).reshape(n, 20)
    up_to_last = t.mask[4 + last].view(np.uint8).reshape(n, 20)
    out[:, _DIGITS : _DIGITS + 20] = digits & in_whole
    out[:, _DIGITS + 1 : _DIGITS + 21] |= digits & up_to_last & ~in_whole
    point = np.flatnonzero((last >= whole_digits) & (sci | (x_exp >= 0)))
    out.ravel()[point * _SLOTS + (_DIGITS + 3) + whole_digits[point]] = ord(".")
    words = out.view(np.uint64)
    words[:, 0] |= t.lead[x_exp - t.x_min]
    words[:, 3] |= t.exp[x_exp - t.x_min]
    out[:, 0] = np.signbit(x) * ord("-")

    for i in np.flatnonzero(~finite | (regular & (np.abs(frac - 0.5) < _TIE_BAND))):
        text = b"%.17g" % x[i]
        out[i] = 0
        out[i, 0] = ord("-") if text.startswith(b"-") else 0
        body = text.lstrip(b"-")
        out[i, 1 : 1 + len(body)] = np.frombuffer(body, dtype=np.uint8)
    return out


def lines(cells, lead=None):
    """ASCII of the lines "lead,c,...,c\\n", one per row of a 2-D real or
    complex (re+imj cells) array, or ",c,...,c\\n" when lead is None;
    yields a block of lines at a time."""
    per_row = (lead is not None) + cells.shape[1] * (2 if np.iscomplexobj(cells) else 1)
    step = max(1, _BLOCK // max(per_row, 1))
    for start in range(0, cells.shape[0], step):
        block = slice(start, start + step)
        yield _block_bytes(cells[block], None if lead is None else lead[block])


def _block_bytes(cells, lead):
    rows, cols = cells.shape
    parts = [cells.real, cells.imag] if np.iscomplexobj(cells) else [cells]
    numbers = parts if lead is None else [lead] + parts
    slots = _number_slots(np.concatenate([np.ravel(v) for v in numbers]))
    first = 0 if lead is None else 1
    # A field per lead and cell: the separator, the slots of each number
    # and, in a complex cell, "j".  A last field holds the newline.
    width = 1 + len(parts) * _SLOTS + (len(parts) - 1)
    buf = np.zeros((rows, first + cols + 1, width), dtype=np.uint8)
    if lead is not None:
        buf[:, 0, 1 : 1 + _SLOTS] = slots[:rows]
    body = buf[:, first : first + cols]
    body[..., 0] = ord(",")
    for i in range(len(parts)):
        part = slots[first * rows + i * rows * cols :][: rows * cols]
        body[..., 1 + i * _SLOTS : 1 + (i + 1) * _SLOTS] = part.reshape(rows, cols, _SLOTS)
    if len(parts) == 2:
        sign = body[..., 1 + _SLOTS]
        sign[sign == 0] = ord("+")  # the imaginary part prints as "%+.17g"
        body[..., -1] = ord("j")
    buf[:, -1, 0] = ord("\n")
    return buf[buf != 0].tobytes()
