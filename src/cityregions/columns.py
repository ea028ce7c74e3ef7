"""The ';' table format: the reader and the writer of ';'-separated artifacts.

``_split`` splits the lines of a byte buffer into fields, ``_decimals`` reads
number fields as float() and int() read them, bit for bit, and ``_text_column``
text fields; the ingest block path and ``read_columns`` both call them.
``read_columns`` reads every artifact a stage reads back but ``trace.txt``.
``_write_table`` writes ``trace.txt``, ``trips.txt``, ``stops.txt``, ``tree.txt``,
``events.txt`` and ``region_labels_plot.txt`` (``labels.txt`` has its own writer),
and ``taxi_id_fault`` says which ids a field holds. Both sides hold cells as
byte matrices, one column per cell and one row per byte position, so each
position is one contiguous vector; the writer masks the bytes its cells fill.
The module imports numpy and the standard library only, so ``cityregions
fit`` reads its samples through it and loads no stage.
"""

from __future__ import annotations

import itertools
from typing import IO, Sequence

import numpy as np

_ID_BYTES = 64  # the widest text field read from bytes: a wider taxi id takes the line parser
_CHUNK_ROWS = 1 << 15  # rows written at once: bounds the writer's byte matrix

_DECIMAL_DIGITS = 19  # k of at most 19 digits is built exactly in uint64
_DECIMAL_BYTES = 24  # a field's byte rows at most: 19 digits, a '-' and a point, in 8-row groups

_POW10 = 10 ** np.arange(20, dtype=np.uint64)


def _five_powers(most: int) -> tuple[np.ndarray, np.ndarray]:
    """The high and low 64 bits of Eisel-Lemire's 128-bit 5**-d for d = 0
    .. ``most``: 2**127 for d = 0, else 2**b // 5**d + 1 with b the least
    that sets bit 127, built from exact ints."""
    table = [1 << 127] + [(1 << (5**d).bit_length() + 127) // 5**d + 1
                          for d in range(1, most + 1)]
    return (np.array([c >> 64 for c in table], np.uint64),
            np.array([c & (1 << 64) - 1 for c in table], np.uint64))


_FIVE_HIGH, _FIVE_LOW = _five_powers(_DECIMAL_DIGITS)


def _product(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The high and low 64 bits of each 128-bit product of uint64s, from
    32-bit limbs whose products fit uint64."""
    a0, a1, b0, b1 = a & 0xFFFFFFFF, a >> 32, b & 0xFFFFFFFF, b >> 32
    low, cross1, cross2 = a0 * b0, a1 * b0, a0 * b1
    middle = (low >> 32) + (cross1 & 0xFFFFFFFF) + (cross2 & 0xFFFFFFFF)
    return (a1 * b1 + (cross1 >> 32) + (cross2 >> 32) + (middle >> 32),
            (low & 0xFFFFFFFF) | (middle << 32))


def _eisel_lemire(w: np.ndarray, d: np.ndarray) -> np.ndarray:
    """The float nearest w / 10**d, ties to even, for uint64 2**53 <= w <
    10**19 and 0 <= d <= ``_DECIMAL_DIGITS``, as fast_float's compute_float
    gives it (Lemire, SP&E 51(8), 2021): w is normalised to bit 63 and
    multiplied by the 128-bit 5**-d, and the low word's product is added
    only where the high word's bits below the 55 kept could take its carry.
    For 19 digits that product decides every rounding (Mushtak & Lemire,
    SP&E 53(6), 2023), so no field needs a slower path."""
    # leading zeros from float64's exponent, one short where w rounds up to a power of 2
    lz = (64 - np.frexp(w.astype(np.float64))[1]).astype(np.uint64)
    w = w << lz
    short = (w >> 63) ^ 1
    w <<= short
    lz += short
    high, low = _product(w, _FIVE_HIGH[d])
    carry = np.flatnonzero((high & 0x1FF) == 0x1FF)
    if len(carry):
        second, _ = _product(w[carry], _FIVE_LOW[d[carry]])
        sum_low = low[carry] + second
        high[carry] += sum_low < second
        low[carry] = sum_low
    upper = high >> 63
    shift = upper + 9
    mantissa = high >> shift
    # w / 10**d can lie halfway between two floats only where d <= 4 and the
    # low word is at most 1; there the shift dropped only zeros, and the tie
    # goes to the even mantissa
    near = np.flatnonzero((low <= 1) & (d <= 4))
    if len(near):
        m = mantissa[near]
        mantissa[near] &= ~(((m & 3) == 1) & ((m << shift[near]) == high[near])).astype(np.uint64)
    mantissa += mantissa & 1
    mantissa >>= 1
    carried = mantissa >> 53  # rounding up reached 2**53
    power2 = ((-217706 * d.astype(np.int64)) >> 16) + (63 + 1023) - lz.astype(np.int64)
    return (((mantissa & (1 << 52) - 1)
             | ((power2 + (upper + carried).astype(np.int64)).astype(np.uint64) << 52))
            .view(np.float64))


def _decimals(buf: np.ndarray, lo: np.ndarray, hi: np.ndarray,
              integer: np.ndarray | bool = False) -> tuple[np.ndarray, np.ndarray]:
    """The value of each field ``buf[lo[i]:hi[i]]`` as 8 bytes in a uint64,
    and the mask of the fields read: those of the form ``[-]digits[.digits]``
    with 1 to ``_DECIMAL_DIGITS`` digits and at most one point. A field
    holds float64 bits and reads as float() reads it, bit for bit; where
    ``integer`` (one flag, or one per field) it holds int64 bits, must have
    no point and fit, and reads as int() does.

    The fields are right-aligned in a byte matrix with one row per byte
    position, the layout ``_digits`` writes, and the bytes before a field
    read as NUL. A digit byte gives its value and a scale of 10, any other
    byte 0 and a scale of 1, so a point, a '-' or a NUL adds nothing to k.
    The rows are joined in pairs, then fours, then eights, each group's value and scale in the
    narrowest uint that holds them, and a Horner pass over the groups builds
    the digits k as a uint64; the point's row gives d, the digits after it.
    Where k < 2**53, k and 10**d are exact in float64 and one IEEE division
    rounds correctly, so k / 10**d is float()'s value (Clinger's fast path);
    larger k take ``_eisel_lemire``. A '-' negates the value, so '-0' reads
    as -0.0. Any other field is left with its mask False.
    """
    integer = np.asarray(integer, bool)
    n = hi - lo
    width = min(-(-int(n.max(initial=1)) // 8) * 8, _DECIMAL_BYTES)
    cells = np.ascontiguousarray(_spans(buf, hi - width, width).T)
    before = (width - np.minimum(n, width)).astype(np.uint8)  # the rows before the field
    cells *= np.arange(width, dtype=np.uint8)[:, None] >= before  # read as NUL, no digit or point
    point = (cells == ord(".")).view(np.uint8)
    points = point.sum(axis=0, dtype=np.uint8)
    # d, the digits after the point: the rows after it, as the field is right-aligned
    point *= np.arange(width - 1, -1, -1, dtype=np.uint8)[:, None]
    d = point.sum(axis=0, dtype=np.uint8)
    del point
    cells -= np.uint8(ord("0"))  # each digit's value; any other byte wraps to 10 or more
    scale = (cells < 10).view(np.uint8)
    digits = scale.sum(axis=0, dtype=np.uint8)
    cells *= scale  # a point or '-' adds 0 and keeps k's scale
    scale *= 9
    scale += 1
    value = cells[0::2] * scale[1::2] + cells[1::2]  # at most 99, and the scale 100
    scale = scale[0::2] * scale[1::2]
    del cells
    for wide in (np.uint16, np.uint32):
        value = value[0::2].astype(wide) * scale[1::2] + value[1::2]
        scale = scale[0::2].astype(wide) * scale[1::2]
    k = value[0].astype(np.uint64)
    for row_scale, row_value in zip(scale[1:], value[1:]):
        k *= row_scale  # wraps only where too many digits refuse the field
        k += row_value
    del value, scale
    neg = buf.take(lo, mode="clip") == ord("-")
    # every byte but the digits is a point, or a '-' that leads the field
    ok = ((n <= width) & (digits + points + neg == n) & (points <= 1)
          & (digits >= 1) & (digits <= _DECIMAL_DIGITS))
    values = k / _POW10.take(d, mode="clip")  # both convert to float64 exactly where k < 2**53
    big = np.flatnonzero(ok & (k >= 2**53) & ~integer)
    if len(big):
        values[big] = _eisel_lemire(k[big], d[big])
    np.negative(values, out=values, where=neg)
    words = values.view(np.uint64)
    if integer.any():
        ok &= ~integer | ((points == 0) & ((k < 2**63) | (neg & (k == 2**63))))
        words = np.where(integer, np.where(neg, -k, k), words)
    return words, ok


def format_number(x: float) -> str:
    """Integral floats print as ints; everything else as shortest round-trip repr."""
    if isinstance(x, float) and x.is_integer() and abs(x) < 2**53:
        return str(int(x))
    return repr(x)


def _digits(v: np.ndarray, width: int) -> tuple[np.ndarray, np.ndarray]:
    """The ASCII digits of each unsigned ``v`` right-aligned in ``width``
    positions, and the mask of the positions its digits fill (at least one)."""
    least = _POW10[width - 1::-1].copy()  # the least value that fills each position
    least[-1] = 0  # the last digit stays, also for 0
    keep = least[:, None] <= v
    v = v.astype(np.uint32 if width <= 9 else np.uint64)  # uint32 divides faster
    out = np.empty((width, len(v)), np.uint8)
    for j in range(width - 1, -1, -1):
        q = v // 10  # SIMD, as a division by a scalar; divmod and % run a scalar loop
        out[j], v = v - q * 10, q
    out += ord("0")
    return out, keep


def _signed_cells(neg: np.ndarray, magnitude: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """'-' where ``neg``, then the digits of the unsigned ``magnitude``."""
    digits, keep = _digits(magnitude, len(str(int(magnitude.max()))))
    return (np.vstack((np.full((1, len(neg)), ord("-"), np.uint8), digits)),
            np.vstack((neg, keep)))


def _float_cells(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The bytes of ``format_number`` of each value, and their mask.

    An integral value below 2**53 prints the digits of its int. A value with
    1e-4 <= |x| < 1e15 that is k / 10**d for the smallest d in 1..9 with
    ``k = rint(|x| * 10**d)`` and |x| < 2**52 / 10**d prints k with a point d
    digits from its end: IEEE division is correctly rounded, so that decimal
    reads back as x, and the floats there lie less than 10**-d apart, so no
    other decimal of at most d fraction digits does; it is the shortest
    round-trip string, which repr prints (the smallest d leaves no trailing
    zero). Any other value takes ``repr``'s text, which is ``format_number``'s
    there.

    trunc(|x|) is k // 10**d exactly, as the decimal lies at least 10**-d from
    an integer and rounding moves it less; so no digit needs a division by an
    array, only ``_digits``' by the scalar 10, which numpy runs in SIMD.
    """
    a = np.abs(x)
    done = np.isfinite(x) & (np.trunc(x) == x) & (a < 2**53)
    left = ~done & (a >= 1e-4) & (a < 1e15)
    a = np.where(done | left, a, 0.0)  # NaN, inf and 1e300 would warn below
    k = np.where(done, a, 0.0)  # exact ints below 2**53, as floats
    d = np.zeros(len(x), np.intp)
    for places in range(1, 10):
        if not left.any():
            break
        scale = 10.0 ** places
        kd = np.rint(a * scale)
        hit = left & (kd / scale == a) & (a < 2**52 / scale)
        np.copyto(k, kd, where=hit)
        d[hit] = places
        left &= ~hit
    done |= d > 0
    whole = np.trunc(np.where(done, a, 0.0)).astype(np.uint64)
    cells, keep = _signed_cells(done & (x < 0), whole)
    most = int(d.max(initial=0))
    if most:
        fraction, _ = _digits((k.astype(np.uint64) - whole * _POW10[d]) * _POW10[most - d], most)
        cells = np.vstack((cells, np.full((1, len(x)), ord("."), np.uint8), fraction))
        # the point where d > 0, fraction digit j where d > j
        keep = np.vstack((keep, np.append(0, np.arange(most))[:, None] < d))
    fallback = np.flatnonzero(~done)
    if len(fallback):
        # each such value is non-finite, non-integral or at least 2**53 in
        # size, where format_number is repr
        texts = list(map(repr, x[fallback].tolist()))
        width = max(map(len, texts))
        if width > len(cells):
            pad = ((0, width - len(cells)), (0, 0))
            cells, keep = np.pad(cells, pad), np.pad(keep, pad)
        cells[:width, fallback] = np.array(texts, f"S{width}").view(np.uint8).reshape(-1, width).T
        keep[:, fallback] = np.arange(len(cells))[:, None] < list(map(len, texts))
    return cells, keep


def _int_cells(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The bytes of ``str`` of each int, and their mask."""
    neg = x < 0
    magnitude = x.astype(np.uint64)
    magnitude[neg] = -magnitude[neg]  # modulo 2**64: |x|, also for -2**63
    return _signed_cells(neg, magnitude)


def _write_table(fh: IO[str], rows: int, columns: Sequence) -> None:
    """``rows`` lines, each the concatenation of its cells in ``columns``,
    written ``_CHUNK_ROWS`` rows at a time as one str.

    A column is a ``bytes`` (the same cell in every row), a float array (as
    ``format_number`` prints it), an int array (as ``str``) or a ``(texts,
    codes)`` pair whose row i is ``texts[codes[i]]``. Each text is encoded
    once, as UTF-8 with surrogates passed through, so the str written is the
    text itself. A chunk's cells fill one byte matrix, and the bytes their
    mask keeps, read line by line, are the lines; the mask comes from
    lengths, as a text may hold NUL.
    """
    tables = []
    for column in columns:
        if isinstance(column, tuple):
            raw = [text.encode("utf-8", "surrogatepass") for text in column[0]]
            width = max([1, *map(len, raw)])
            table = np.array(raw, f"S{width}").view(np.uint8).reshape(len(raw), width)
            column = (table.T, np.arange(width)[:, None] < list(map(len, raw)), column[1])
        tables.append(column)
    for a in range(0, rows, _CHUNK_ROWS):
        b = min(a + _CHUNK_ROWS, rows)
        cells = []
        for column in tables:
            if isinstance(column, bytes):
                cells.append((np.repeat(np.frombuffer(column, np.uint8)[:, None], b - a, axis=1),
                              np.ones((len(column), b - a), bool)))
            elif isinstance(column, tuple):
                table, filled, codes = column
                cells.append((table[:, codes[a:b]], filled[:, codes[a:b]]))
            elif column.dtype.kind == "f":
                cells.append(_float_cells(column[a:b].astype(np.float64, copy=False)))
            else:
                cells.append(_int_cells(column[a:b]))
        matrix, keep = (np.vstack(parts) for parts in zip(*cells))
        fh.write(matrix.T[keep.T].tobytes().decode("utf-8", "surrogatepass"))


def write_rows(fh: IO[str], columns: Sequence) -> None:
    """One line of ';'-joined fields per row: a float column as
    format_number prints it, an int column as str() does, and a ``(texts,
    codes)`` column as ``texts[codes[i]]`` in row i."""
    rows = len(columns[0][1] if isinstance(columns[0], tuple) else columns[0])
    _write_table(fh, rows, [part for column in columns for part in (column, b";")][:-1] + [b"\n"])


def _spans(buf: np.ndarray, at: np.ndarray, width: int) -> np.ndarray:
    """The ``width`` bytes of ``buf`` from each ``at[i]`` on, as the rows of
    a uint8 matrix; bytes before or past ``buf`` read as 0. Each row is one
    item of a view whose items start at every byte, so one gather copies
    it."""
    before = max(-int(at.min(initial=0)), 0)
    after = max(int(at.max(initial=0)) + width - len(buf), 0)
    if before or after:
        buf = np.concatenate((np.zeros(before, np.uint8), buf, np.zeros(after, np.uint8)))
    items = np.ndarray((len(buf) - width + 1,), f"V{width}", buf, strides=(1,))
    return items[at + before].view(np.uint8).reshape(len(at), width)


def _split(buf: np.ndarray, sep: int, width: int) -> tuple:
    """The lines of ``buf``, which ends in '\\n', split at the byte ``sep``:
    each line's '\\n' position; its field count (0 for a blank line) and
    its count of bytes outside ``0x21..0x7e`` but that '\\n', each one int
    where every line has the same; and ``lo``, ``hi``, where field k of
    line i is ``buf[lo[k, i]:hi[k, i]]`` for k < ``width`` and k below its
    field count. The ``sep`` and '\\n' positions are found in one scan, and
    are the bounds as they stand where every line holds ``width`` fields.
    """
    marks = np.flatnonzero((buf == sep) | (buf == ord("\n")))  # where each field ends
    starts = np.concatenate(([0], marks[:-1] + 1))  # where the field ending at each mark starts
    newline = buf.take(marks) == ord("\n")
    lines = np.count_nonzero(newline)
    # every line holds width fields, and none is blank (one empty field)
    if (len(marks) == lines * width and newline[width - 1::width].all()
            and (width > 1 or (starts < marks).all())):
        count = width
        lo, hi = (a.reshape(lines, width).T for a in (starts, marks))
        ends = hi[-1]
    else:
        last = np.flatnonzero(newline)  # each line's '\n' among the marks
        ends = marks[last]
        count = np.diff(last, prepend=-1)
        count -= (count == 1) & (starts[last] == ends)  # a blank line holds no field
        at = np.minimum(last - count + 1 + np.arange(width)[:, None], last)
        lo, hi = starts.take(at), marks.take(at)
    odd = buf - np.uint8(0x21) > np.uint8(0x7e - 0x21)  # wraps below 0x21, so '\n' too
    if np.count_nonzero(odd) == lines:  # the '\n's alone
        return ends, count, 0, lo, hi
    at = np.flatnonzero(buf.take(np.flatnonzero(odd)) == ord("\n"))  # each line's '\n' among them
    return ends, count, np.diff(at, prepend=-1) - 1, lo, hi


# the (parse, dtype) of a read_columns number field
FLOAT_FIELD = (float, np.float64)
INT_FIELD = (int, np.int64)


def _parse_column(field, texts: list[str]) -> np.ndarray:
    """One field's texts as an array: ids coded by a ``TaxiCodes``, any
    other field by its (parse, dtype)."""
    if isinstance(field, TaxiCodes):
        return field.encode(texts)
    parse, dtype = field
    return np.fromiter(map(parse, texts), dtype, len(texts))


_COLUMN_CHARS = 1 << 19  # text read_columns parses at once; its temporaries peak near 4.5 MB


def _text_column(buf: np.ndarray, lo: np.ndarray, hi: np.ndarray, field
                 ) -> tuple[np.ndarray, list[str]]:
    """Each text field ``buf[lo[i]:hi[i]]`` parsed by ``field`` as
    ``_parse_column`` parses it, and the distinct texts parsed. The fields
    are NUL-padded rows of bytes, compared as uint64 words; each distinct
    text among the heads of their runs of equal rows is parsed once."""
    n = hi - lo
    width = -(-max(int(n.max(initial=0)), 1) // 8) * 8
    rows = _spans(buf, lo, width)
    rows *= np.arange(width, dtype=np.uint8) < n[:, None]
    new = np.ones(len(rows), bool)  # where a run of equal rows starts
    new[1:] = False
    for word in rows.view(np.uint64).T:
        new[1:] |= word[1:] != word[:-1]
    heads = np.flatnonzero(new)
    # rows of one word sort faster as uint64 than as bytes
    key = rows[heads].view(np.uint64 if width == 8 else f"S{width}").ravel()
    distinct, run_text = np.unique(key, return_inverse=True)
    decoded = [b.decode("ascii") for b in distinct.view(f"S{width}").tolist()]
    return (np.repeat(_parse_column(field, decoded)[run_text], np.diff(heads, append=len(rows))),
            decoded)


def _byte_columns(text: str, fields: Sequence) -> list[np.ndarray] | None:
    """A chunk's columns read from its bytes, or None where they might
    differ from what ``_line_columns`` returns. The chunk must be printable
    ASCII but its '\\n's, so no field holds whitespace to strip, a '\\r' or
    NUL, and ``_split`` must find ``len(fields)`` fields on every line but a
    blank one, which is skipped. The number fields are read by one
    ``_decimals`` call, and only the fields it refuses by their parse; any
    other by ``_text_column``, where its widest text fits ``_ID_BYTES``. A
    parse that raises gives None.
    """
    if not text.isascii():
        return None
    if not text.endswith("\n"):
        text += "\n"  # the file's last line
    buf = np.frombuffer(text.encode("ascii"), np.uint8)
    width = len(fields)
    ends, count, odd, lo, hi = _split(buf, ord(";"), width)
    if np.count_nonzero(odd) or np.count_nonzero((count != width) & (count != 0)):
        return None  # a space or a control byte, or a line of another field count
    if np.count_nonzero(count == 0):  # skip the blank lines
        lo, hi = lo[:, count > 0], hi[:, count > 0]
    lines = lo.shape[1]
    columns: list = [None] * width
    number = [k for k, f in enumerate(fields) if f in (FLOAT_FIELD, INT_FIELD)]
    try:
        if number:  # every number field in one kernel call, a column after another
            words, read = _decimals(buf, *(a.take(number, axis=0).ravel() for a in (lo, hi)),
                                    np.repeat([fields[k] == INT_FIELD for k in number], lines))
            for i, k in enumerate(number):
                at = i * lines  # where the field's column starts among the kernel's
                values = words[at:at + lines].view(fields[k][1])
                refused = np.flatnonzero(~read[at:at + lines])
                if len(refused):
                    values[refused] = _parse_column(fields[k], list(map(text.__getitem__, map(
                        slice, lo[k, refused].tolist(), hi[k, refused].tolist()))))
                columns[k] = values
        for k, f in enumerate(fields):
            if columns[k] is None:
                if int((hi[k] - lo[k]).max(initial=0)) > _ID_BYTES:
                    return None  # it would widen its field on every line of the chunk
                columns[k], _ = _text_column(buf, lo[k], hi[k], f)
    except (ValueError, OverflowError):
        return None
    return columns


def _line_columns(lines: list[str], noun: str, fields: Sequence) -> list[np.ndarray]:
    """The columns of stripped, non-blank lines, parsed a column at a time
    when every line has ``len(fields)`` fields and no parse raises;
    otherwise line by line, so the first bad line raises ``expected N
    <noun> fields, got M`` or the error of its first bad field."""
    width = len(fields)
    try:
        if set(map(str.count, lines, itertools.repeat(";", len(lines)))) - {width - 1}:
            raise ValueError(f"a line without {width} fields")
        texts = ";".join(lines).split(";")
        return [_parse_column(f, texts[k::width]) for k, f in enumerate(fields)]
    except (ValueError, OverflowError):
        for line in lines:
            texts = line.split(";")
            if len(texts) != width:
                raise ValueError(f"expected {width} {noun} fields, got {len(texts)}") from None
            for f, text in zip(fields, texts):
                _parse_column(f, [text])
        raise


def _chunk_columns(text: str, noun: str, fields: Sequence) -> list[np.ndarray] | None:
    """A chunk's columns, from its bytes where ``_byte_columns`` reads them
    and otherwise from its stripped lines, or None where those hold no text."""
    parts = _byte_columns(text, fields)
    if parts is None:
        lines = [s for s in map(str.strip, text.split("\n")) if s]
        parts = _line_columns(lines, noun, fields) if lines else None
    return parts


def read_columns(fh: IO[str], noun: str, fields: Sequence) -> list[np.ndarray]:
    """The columns of a ';'-separated artifact, one per field, from a
    seekable stream that splits lines at '\\n' only. A stream shorter than
    ``_COLUMN_CHARS`` is one chunk, read once, and its parts are the
    columns. A longer one is read twice: once to count its lines, so that
    each column is allocated once, and once to parse it, ``_COLUMN_CHARS``
    of whole lines at a time.

    Every artifact a stage reads back, but ``trace.txt``, is read here, and
    so are the samples of ``cityregions fit``. ``fields`` gives each field's
    ``(parse, dtype)``: ``parse`` is a pure function that turns the text
    into a value or raises ValueError, and the value must fit the dtype. A
    ``TaxiCodes`` entry is the taxi-id column, coded through it. Lines are
    stripped and blank ones skipped. A chunk is read from its bytes by
    ``_byte_columns`` where it can be, and otherwise by ``_line_columns``.
    Both return the same values, so the first bad line raises ``expected N
    <noun> fields, got M`` or the error of its first bad field.
    """
    start = fh.tell()  # a stream that cannot seek raises here, before any of it is read
    dtypes = [np.int64 if isinstance(f, TaxiCodes) else f[1] for f in fields]
    text = fh.read(_COLUMN_CHARS)
    if len(text) < _COLUMN_CHARS:  # the whole stream in one chunk: its parts are the columns
        return _chunk_columns(text, noun, fields) or [np.empty(0, dtype) for dtype in dtypes]
    rows = 1 + text.count("\n")  # an unended last line holds no '\n'
    while text := fh.read(_COLUMN_CHARS):
        rows += text.count("\n")
    fh.seek(start)
    columns = [np.empty(rows, dtype) for dtype in dtypes]
    count = 0
    while text := fh.read(_COLUMN_CHARS):
        if not text.endswith("\n"):
            text += fh.readline()  # the rest of the chunk's last line
        parts = _chunk_columns(text, noun, fields)
        if parts is not None:
            for column, part in zip(columns, parts):
                column[count:count + len(part)] = part
            count += len(parts[0])
    return [column[:count] for column in columns]


def taxi_id_fault(taxi_id: str) -> str | None:
    """Why a taxi id would not read back unchanged from a ';' field, or None.
    A lone surrogate is no UTF-8: it reads back as '?'."""
    if not taxi_id:
        return "empty taxi id"
    if ";" in taxi_id:  # it would split a canonical trace.txt line
        return f"taxi id holds ';': {taxi_id!r}"
    if ("\n" in taxi_id or taxi_id != taxi_id.strip()
            or taxi_id.encode("utf-8", "replace").decode("utf-8") != taxi_id):
        return f"taxi id would not read back unchanged: {taxi_id!r}"
    return None


class TaxiCodes:
    """Taxi codes in first-seen order, renumbered into id order at the end."""

    def __init__(self) -> None:
        self.index: dict[str, int] = {}

    def encode(self, ids: Sequence[str]) -> np.ndarray:
        index = self.index
        for tid in set(ids).difference(index):
            index[tid] = len(index)
        return np.fromiter(map(index.__getitem__, ids), np.int64, len(ids))

    def ranked(self, taxi: np.ndarray) -> tuple[tuple[str, ...], np.ndarray]:
        """The ids ``taxi`` holds, ascending, and ``taxi`` recoded into that order."""
        taxi_ids = sorted(self.index)
        rank = np.argsort([self.index[tid] for tid in taxi_ids])  # each code's place in id order
        return compact_codes(taxi_ids, rank[taxi])


def compact_codes(taxi_ids: Sequence[str],
                  taxi: np.ndarray) -> tuple[tuple[str, ...], np.ndarray]:
    """The ids that codes ``taxi`` use, in table order, and ``taxi`` recoded into them."""
    used = np.bincount(taxi, minlength=len(taxi_ids)) > 0
    return tuple(itertools.compress(taxi_ids, used.tolist())), (np.cumsum(used) - 1)[taxi]
