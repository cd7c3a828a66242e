"""Test-only references: the scalar offset rule, the oracle for
dyadic_codec._bad_offsets; the scalar rectangle locator, the oracle for
dyadic_codec.locate_batch; the scalar bit writer and gamma writer, the
oracles for the field packer of bitcodes.write_container; the scalar bit and
gamma readers, which cut bits from a BitSource's bytes with integer shifts
and share no text with the library's tokeniser, and on them the
codeword-at-a-time multiset and triple readers, the oracles for
integer_codec.decode_multiset and dyadic_codec.decode_triples; '0'/'1'
string views of fields and payloads, the runs of a multiset, and one-shot
reference encoders of the unit and half-line schemes."""

import numpy as np

from dsim.bitcodes import (
    HEADER_SIZE,
    MAX_VALUE,
    SCHEME_HALFLINE,
    SCHEME_INTEGER,
    SCHEME_UNIT,
    BitSource,
    FormatError,
    TruncatedStreamError,
    read_header,
    write_container,
)
from dsim.dyadic_codec import (
    MAX_DEPTH,
    RETRY_BUDGET,
    DepthExceededError,
    locate_batch,
    write_triples,
)
from dsim.halfline_codec import restrict_to_bin
from dsim.integer_codec import encode_multiset


def _offset_in_range(k: int, a: int) -> bool:
    """True iff (k, a) names a rectangle: 0 <= k <= MAX_DEPTH, 0 <= a <=
    max(2**(k-1) - 1, 0), and a is a double, so R(k, a)'s x-interval holds one."""
    return (0 <= k <= MAX_DEPTH and 0 <= a <= ((1 << (k - 1)) - 1 if k else 0)
            and (a < 1 << 53 or float(a) == a))


def locate(x: float, y: float, f) -> tuple[int, int]:
    """Indices (k, a) of the rectangle containing hypograph point (x, y).

    The offset is tracked by doubling x one bit at a time, which is exact in
    binary floating point, so the result agrees with direct membership tests
    against rect_bounds.  Raises DepthExceededError when every depth up to
    MAX_DEPTH misses; callers with a randomness source may resample the point.
    """
    if not 0.0 <= x < 1.0:
        raise ValueError("x must lie in [0, 1)")
    if not 0.0 <= y < f.pdf(x):
        raise ValueError("point is not inside the density hypograph")
    if y < f.pdf(1.0):  # R(0, 0): the law has no mass past 1
        return 0, 0
    t = x
    a = 0
    for k in range(1, MAX_DEPTH + 1):
        if k > 1:
            t *= 2.0
            a <<= 1
            if t >= 1.0:
                t -= 1.0
                a |= 1
        if t < 0.5:
            y_lo = f.pdf((a + 1) * 2.0 ** (1 - k))
            y_hi = f.pdf((2 * a + 1) * 2.0 ** -k)
            if y_lo <= y < y_hi:
                return k, a
    raise DepthExceededError(f"no rectangle up to depth {MAX_DEPTH} contains the point")


class BitSink:
    """Append-only bit buffer, written one field at a time."""

    __slots__ = ("_bytes", "_acc", "_nacc")

    def __init__(self):
        self._bytes = bytearray()
        self._acc = 0  # pending bits, always < 8 of them
        self._nacc = 0

    def write_bits(self, value: int, width: int) -> None:
        """Append ``width`` bits holding ``value``, most significant first."""
        if width < 0:
            raise ValueError("width must be >= 0")
        if value < 0 or value >> width:
            raise ValueError(f"value {value} does not fit in {width} bits")
        acc = (self._acc << width) | value
        nacc = self._nacc + width
        if nacc >= 8:
            rest = nacc & 7
            self._bytes += (acc >> rest).to_bytes(nacc >> 3, "big")
            acc &= (1 << rest) - 1
            nacc = rest
        self._acc = acc
        self._nacc = nacc

    @property
    def bit_length(self) -> int:
        return 8 * len(self._bytes) + self._nacc

    def to_bytes(self) -> bytes:
        """Buffer contents, final partial byte padded with zero bits."""
        if self._nacc:
            return bytes(self._bytes) + bytes([(self._acc << (8 - self._nacc)) & 0xFF])
        return bytes(self._bytes)


def gamma_encode(z: int, sink: BitSink) -> None:
    """Append the Elias gamma codeword of z: floor(log2 z) zeros, then z in binary."""
    z = int(z)
    if not 1 <= z <= MAX_VALUE:
        raise ValueError(f"gamma code is defined for 1 <= Z <= 2**63 - 1, got {z}")
    sink.write_bits(z, 2 * z.bit_length() - 1)


def write_fields(fields) -> BitSink:
    """The (value, width) rows of fields written one at a time."""
    sink = BitSink()
    for value, width in np.asarray(fields, dtype=np.int64).reshape(-1, 2).tolist():
        sink.write_bits(value, width)
    return sink


def _peek(source: BitSource, width: int) -> int:
    """The width bits after source's position as an int, cut from its bytes by shifts."""
    pos, stop = source._pos, source._pos + width
    return int.from_bytes(source._data[pos >> 3:(stop + 7) >> 3], "big") >> (-stop & 7) & ((1 << width) - 1)


def read_bits(source: BitSource, width: int) -> int:
    """The next width bits of source as an int, or TruncatedStreamError."""
    if width < 0:
        raise ValueError("width must be >= 0")
    if width > source.bits_remaining:
        raise TruncatedStreamError("bit stream exhausted")
    value = _peek(source, width)
    source._pos += width
    return value


def gamma_decode(source: BitSource) -> int:
    # the zero run: no admissible codeword starts with more than 62 zeros
    width = min(63, source.bits_remaining)
    head = _peek(source, width)
    if not head:
        if width < 63:
            raise TruncatedStreamError("bit stream exhausted")
        raise FormatError("gamma prefix longer than any admissible value")
    zeros = width - head.bit_length()
    source._pos += zeros
    return read_bits(source, zeros + 1)  # the leading 1 and one bit per zero


def decode_multiset(source: BitSource, n: int) -> tuple[np.ndarray, np.ndarray]:
    """The runs of a multiset read one flag bit and one codeword at a time."""
    if not 0 <= n <= MAX_VALUE:
        raise ValueError("n must be in [0, 2**63 - 1]")
    values, starts = [], []
    filled = start = x = 0
    while filled < n:
        if values and not read_bits(source, 1):
            if filled - start > 1:  # a run is maximal, so a value follows it
                raise FormatError("zero run follows a zero run")
            filled += gamma_decode(source)
        else:
            x += gamma_decode(source)
            if x > MAX_VALUE:
                raise FormatError("decoded value exceeds 2**63 - 1")
            values.append(x)
            starts.append(filled)
            start = filled
            filled += 1
        if filled > n:
            raise FormatError("zero run overshoots the declared count")
    return np.array(values, dtype=np.int64), np.diff(np.array(starts + [n], dtype=np.int64))


def decode_triples(source: BitSource, n) -> list[tuple[int, int, int]]:
    """(k, a, count) triples read one codeword at a time until their counts sum
    to n, or bin by bin when n is a sequence of bin totals; a bin's heap nodes
    (1 << k >> 1) + a increase."""
    if np.ndim(n):
        return [t for total in np.asarray(n).tolist() for t in decode_triples(source, total)]
    if n < 0:
        raise ValueError("n must be >= 0")
    out = []
    total = 0
    last = -1
    while total < n:
        k = gamma_decode(source) - 1
        a = gamma_decode(source) - 1
        if not _offset_in_range(k, a):
            raise FormatError(f"no rectangle R(k={k}, a={a}) at depth <= {MAX_DEPTH}")
        if (1 << k >> 1) + a <= last:
            raise FormatError("a bin's rectangles are out of (k, a) order")
        last = (1 << k >> 1) + a
        count = gamma_decode(source)
        total += count
        if total > n:
            raise FormatError("triple counts overshoot the declared total")
        out.append((k, a, count))
    return out


def from_bitstring(s: str) -> BitSource:
    """A BitSource that serves the bits of a '0'/'1' string."""
    if not set(s) <= {"0", "1"}:
        raise ValueError("a bit string holds only the characters 0 and 1")
    padded = s + "0" * (-len(s) % 8)
    return BitSource(int(padded or "0", 2).to_bytes(len(padded) // 8, "big"), len(s))


def to_bitstring(fields) -> str:
    """The bits of fields, written one at a time, as a '0'/'1' string."""
    sink = write_fields(fields)
    data = sink.to_bytes()
    return format(int.from_bytes(data, "big"), f"0{8 * len(data)}b")[:sink.bit_length]


def bit_fields(s: str) -> np.ndarray:
    """Fields that write the bits of a '0'/'1' string, 63 at a time."""
    return np.array([(int(s[i:i + 63], 2), len(s[i:i + 63])) for i in range(0, len(s), 63)],
                    dtype=np.int64).reshape(-1, 2)


def packed(fields) -> BitSource:
    """A BitSource over the payload write_container packs of fields."""
    data = write_container(SCHEME_INTEGER, 0, fields)
    return BitSource(data, read_header(data).payload_bits, 8 * HEADER_SIZE)


def runs(values) -> tuple[np.ndarray, np.ndarray]:
    """A multiset of integers as encode_multiset takes it: its increasing
    distinct values and their multiplicities."""
    return np.unique(np.asarray(values, dtype=np.int64), return_counts=True)


def one_shot_triples(ks, offs, bad, which, resample_from) -> list[tuple[int, int, int]]:
    """(k, a, count) triples in (bin, k, a) order of points located all at once.

    Bin by bin, each flagged point is replaced in place by a fresh hypograph
    draw from resample_from(j) = (f, retry_rng), round after round, before one
    sort groups every point.
    """
    for j in dict.fromkeys(which[bad].tolist()):
        sel = np.flatnonzero(which == j)
        f, retry_rng = resample_from(j)
        for _ in range(RETRY_BUDGET):
            idx = sel[bad[sel]]
            rx = f.cdf_inverse(retry_rng.gen.random(idx.size))
            ry = retry_rng.gen.random(idx.size) * f.pdf(rx)
            ks[idx], offs[idx], bad[idx] = locate_batch(rx, ry, f)
            if not bad[sel].any():
                break
        else:
            raise DepthExceededError(f"depth budget still exhausted after {RETRY_BUDGET} resamples")
    rows = np.stack([which, ks, offs])[:, np.lexsort((offs, ks, which))]
    first = np.flatnonzero(np.diff(rows, prepend=-1).any(axis=0))
    counts = np.diff(first, append=rows.shape[1])
    return [(k, a, c) for (_, k, a), c in zip(rows[:, first].T.tolist(), counts.tolist())]


def unit_reference(f, n: int, rng) -> bytes:
    """The unit scheme's container with every point drawn and located at once:
    the x uniforms are the points stream's first n doubles, the heights its next n."""
    gen = rng.child("points").gen
    xs = f.cdf_inverse(gen.random(n))
    ys = gen.random(n) * f.pdf(xs)
    return write_container(SCHEME_UNIT, n, write_triples(one_shot_triples(
        *locate_batch(xs, ys, f), np.zeros(n, dtype=np.int64), lambda _: (f, rng.child("retry")))))


def halfline_reference(f, n: int, rng) -> bytes:
    """The half-line scheme's container with every point located at once: the
    draws sorted stably by bin, one draw of every height in that order."""
    values = f.sample(rng.child("values"), n)
    bins = np.floor(values).astype(np.int64) + 1
    order = np.argsort(bins, kind="stable")
    uniq, counts = runs(bins)
    which = np.repeat(np.arange(uniq.size), counts)
    shift = (uniq - 1).astype(float)
    values = values[order]
    ys = rng.child("heights").gen.random(n) * f.pdf(values)
    located = locate_batch(values - shift[which], ys, f, shift=shift, which=which)
    triples = one_shot_triples(*located, which, lambda j: (
        restrict_to_bin(f, int(uniq[j])), rng.child("retry", int(uniq[j]))))
    return write_container(SCHEME_HALFLINE, n, np.concatenate((encode_multiset(uniq, counts), write_triples(triples))))
