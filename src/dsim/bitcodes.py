"""Bit-level payloads, Elias gamma codes, and the on-disk container format.

All bit strings are most-significant-bit first: bit i of a stream lives in
bit (7 - i % 8) of byte i // 8.

A payload is a sequence of fields, an (F, 2) int64 array of (value, width)
rows, each value written in its width of bits after the fields before it.
The gamma codeword of Z in [1, 2**63 - 1] is the field (Z, gamma_length(Z)):
floor(log2 Z) zeros, then Z in binary.  Gamma is the only integer code; a
field that may be 0 is written as gamma of the field plus 1, and a flag bit
is the field (0, 1) or (1, 1).  write_container packs every field of a
container in one numpy pass.

A BitSource is a position in a payload's bytes, read by one tokeniser: one
compiled regex splits the bits after it into codewords, z zeros, a one and z
more bits for z <= 62, and at most one error token, the rest of the bits,
where none of those starts.  read_gammas reads bare codewords,
read_flagged_gammas codewords each followed by a flag bit; both run one
window loop, which formats only its window as '0'/'1' text, hands its caller
each window's values as an array, and the caller says where to stop.

read_header alone bounds n, by MAX_VALUE, so every decoder counts in int64.
read_container is the one framed read of a payload: it accepts a payload
only when the header names the scheme a codec decodes and the codec's
parse(source, n) reads it to its last bit.
"""

from __future__ import annotations

import functools
import re
import struct
from dataclasses import dataclass
from itertools import repeat

import numpy as np

__all__ = [
    "MAX_VALUE", "SCHEME_INTEGER", "SCHEME_UNIT", "SCHEME_HALFLINE", "SCHEME_NAMES", "HEADER_SIZE",
    "FormatError", "TruncatedStreamError", "BitSource", "ContainerHeader", "bit_length", "gamma_length",
    "GAMMA_WINDOW", "read_gammas", "read_flagged_gammas", "write_container", "read_header",
    "read_container"
]

MAX_VALUE = 2**63 - 1

MAGIC = b"DSIM"
VERSION = 1
HEADER_SIZE = 22  # magic 4 + version 1 + scheme 1 + n u64 + payload_bits u64

SCHEME_INTEGER = 0x01
SCHEME_UNIT = 0x02
SCHEME_HALFLINE = 0x03

SCHEME_NAMES = {SCHEME_INTEGER: "int", SCHEME_UNIT: "unit", SCHEME_HALFLINE: "halfline"}


class FormatError(ValueError):
    """Malformed container or codeword framing."""


class TruncatedStreamError(EOFError):
    """Bit stream ended before a complete codeword."""


class BitSource:
    """A bit position in a byte buffer, read up to bit_offset + bit_length; it holds no text."""

    __slots__ = ("_data", "_pos", "_end")

    def __init__(self, data: bytes, bit_length: int, bit_offset: int = 0):
        if bit_offset < 0 or bit_length < 0 or bit_offset + bit_length > 8 * len(data):
            raise ValueError("bit window exceeds the buffer")
        self._data, self._pos, self._end = data, bit_offset, bit_offset + bit_length

    @property
    def bits_remaining(self) -> int:
        return self._end - self._pos


_POWERS = np.left_shift(1, np.arange(63, dtype=np.int64))  # 2**0 to 2**62


def _as_int64(x) -> np.ndarray:
    try:
        return np.asarray(x, dtype=np.int64)
    except OverflowError:  # a Python int past int64
        raise ValueError("a value lies outside int64") from None


def bit_length(v):
    """int.bit_length of each int64 value >= 0, exact where a double is not."""
    return np.searchsorted(_POWERS, v, "right")


def gamma_length(z):
    """Exact codeword length in bits, 2*floor(log2 Z) + 1, of an int or elementwise of an int array."""
    z = _as_int64(z)
    if z.min(initial=1) < 1:
        raise ValueError("gamma code is defined for 1 <= Z <= 2**63 - 1")
    out = 2 * bit_length(z) - 1
    return out if out.ndim else int(out)


def _pack(fields: np.ndarray) -> tuple[bytes, int]:
    """The bytes of (value, width) rows written back to back, and their bit count.

    A field ends at the prefix sum of the widths.  Its value, below 2**63,
    is shifted to end there in the uint64 word that holds its last bit, and
    one reduceat ORs the fields of each word; the high part of a field that
    crosses into the word before goes there, and as at most one field
    crosses each word boundary, a fancy-index |= places them all.  It takes
    2**16 fields at a time, so its temporaries stay small at any size.
    """
    values, widths = fields.T
    if widths.min(initial=0) < 0:
        raise ValueError("a field needs a width >= 0")
    bits = int(widths.sum())
    words = np.zeros(bits // 64 + 1, dtype=np.uint64)
    end = 0
    for lo in range(0, len(fields), 1 << 16):
        v, w = values[lo:lo + (1 << 16)], widths[lo:lo + (1 << 16)]
        if (v >> np.minimum(w, 63)).any():
            raise ValueError("a field needs a value >= 0 that fits in its width")
        ends = w.cumsum() + end
        end = int(ends[-1])
        word = np.maximum(ends - 1, 0) >> 6
        shift = (-ends & 63).astype(np.uint64)
        v = v.astype(np.uint64)
        first = np.flatnonzero(np.concatenate(([True], word[1:] != word[:-1])))
        words[word[first]] |= np.bitwise_or.reduceat(v << shift, first)
        high = v >> np.uint64(1) >> (np.uint64(63) - shift)  # 0 where a field ends on a word's last bit
        cross = np.flatnonzero(high)
        words[word[cross] - 1] |= high[cross]
    return words.astype(">u8").tobytes()[:(bits + 7) >> 3], bits


@functools.cache
def _gamma_regex(flag: str) -> re.Pattern:
    """The tokeniser of codewords each followed by flag, compiled on first use:
    an import that reads no payload skips its 2-4 ms.

    One alternative per zero, nested, keeps a match linear in its length;
    "." matches a bit, as the string holds only '0' and '1'.
    """
    pattern = "1.{62}"
    for z in range(61, -1, -1):
        pattern = f"1.{{{z}}}|0(?:{pattern})"
    return re.compile(f"(?:{pattern}){flag}|.+")


# The largest window of bits tokenised at once, at least the 126 bits of the
# longest token.  A window holds at most one token per bit: at 2**18 its token
# list and values take at most 2 MiB each.
GAMMA_WINDOW = 1 << 18


def _read_tokens(source: BitSource, consume, flagged: bool) -> None:
    """The window loop of read_gammas and read_flagged_gammas.

    A flagged read, a multiset's, may stop long before the bits end, where
    the triples of a half-line payload begin: its windows double from 2**8
    bits up to GAMMA_WINDOW, so it tokenises little past where it stops.
    Each window of a triple read, which ends with its payload, is
    GAMMA_WINDOW bits.  A codeword is the odd-length part of a token; in the
    flagged grammar an even-length token also holds the flag bit after its
    codeword, which every token but the last in the bits has.  A token cut
    by a window's end goes to the next window.  The window's whole bytes, at
    most GAMMA_WINDOW + 14 bits, are the only text; positions are absolute.
    """
    regex = _gamma_regex(".?" if flagged else "")
    pos, window = source._pos, min(1 << 8 if flagged else GAMMA_WINDOW, GAMMA_WINDOW)
    while True:
        end = min(source._end, pos + window)
        window = min(2 * window, GAMMA_WINDOW)
        chunk = source._data[pos >> 3:(end + 7) >> 3]
        tokens = regex.findall(format(int.from_bytes(chunk, "big"), f"0{8 * len(chunk)}b"), pos & 7, end - (pos & ~7))
        last = tokens[-1] if tokens else ""
        code = last if len(last) % 2 else last[:-1]
        whole = (len(code) <= 125 and 2 * code.find("1") + 1 == len(code)
                 and (code != last or not flagged or end == source._end))
        # the error token, if any, is the last
        tail = tokens.pop() if tokens and not whole else ""
        stop = end - len(tail)
        values = np.fromiter(map(int, tokens, repeat(2)), np.uint64, len(tokens))
        if flagged:
            if tokens and len(tokens[-1]) % 2:  # the bits end after this codeword: a 1 asks for more
                values[-1] = values[-1] << np.uint64(1) | np.uint64(1)
            used = consume(values >> np.uint64(1), (values & np.uint64(1)).astype(bool))
        else:
            used = consume(values.view(np.int64))
        if used is not None:
            # right after the last codeword used, before any flag bit after it
            source._pos = stop - sum(map(len, tokens[used:])) - (1 - len(tokens[used - 1]) % 2)
            return
        source._pos = pos = stop
        if tail.startswith("0" * 63):
            raise FormatError("gamma prefix longer than any admissible value")
        if end == source._end:
            raise TruncatedStreamError("bit stream exhausted")


def read_gammas(source: BitSource, consume) -> None:
    """Hand consume the gamma values from source's position on, a window at a time.

    consume(values) takes the int64 values of a window's codewords in stream
    order and returns None to ask for the next window, or how many of them it
    used (at least 1), which leaves source right after the last of those.  A
    window ends before a malformed codeword; asked for more after it, the
    read raises what a codeword-at-a-time reader would there: FormatError on
    63 zeros in a row, else TruncatedStreamError.
    """
    _read_tokens(source, consume, False)


def read_flagged_gammas(source: BitSource, consume) -> None:
    """read_gammas over codewords each followed by a flag bit, but the last in the bits.

    consume(values, flags) takes a window's values, as uint64, and the bool
    flag after each, True for a last codeword with no bit after it, which
    asks for more; source is left after the codeword, not the flag.
    """
    _read_tokens(source, consume, True)


@dataclass(frozen=True)
class ContainerHeader:
    scheme: int
    n: int
    payload_bits: int


def write_container(scheme: int, n: int, fields) -> bytes:
    """Frame a payload of (value, width) fields, packed in one pass: magic,
    version, scheme byte, sample count, bit count, then the payload."""
    if scheme not in SCHEME_NAMES:
        raise ValueError(f"unknown scheme byte {scheme:#x}")
    if n < 0 or n >= 2**64:
        raise ValueError("sample count out of range for the header")
    payload, bits = _pack(_as_int64(fields).reshape(-1, 2))
    return MAGIC + struct.pack("<BBQQ", VERSION, scheme, n, bits) + payload


def read_header(data: bytes) -> ContainerHeader:
    """Parse and validate a container's header and framing, n <= MAX_VALUE too, without a payload reader."""
    if len(data) < HEADER_SIZE:
        raise FormatError(f"container shorter than the {HEADER_SIZE}-byte header")
    if data[:4] != MAGIC:
        raise FormatError(f"bad magic {data[:4]!r}")
    version, scheme, n, payload_bits = struct.unpack("<BBQQ", data[4:HEADER_SIZE])
    if version != VERSION:
        raise FormatError(f"unsupported version {version}")
    if scheme not in SCHEME_NAMES:
        raise FormatError(f"unknown scheme byte {scheme:#x}")
    if n > MAX_VALUE:
        raise FormatError(f"header declares {n} samples, more than 2**63 - 1")
    body_bits = 8 * (len(data) - HEADER_SIZE)
    if payload_bits > body_bits:
        raise FormatError(f"header declares {payload_bits} payload bits but only {body_bits} are present")
    if body_bits - payload_bits >= 8:
        raise FormatError("container holds more than one byte of padding")
    if data[-1] & ((1 << (body_bits - payload_bits)) - 1):
        raise FormatError("padding bits after the payload must be zero")
    return ContainerHeader(scheme, n, payload_bits)


def read_container(data: bytes, scheme: int, parse):
    """parse(source, n) over the whole payload of a container of the given scheme.

    FormatError is raised if the header names another scheme or if parse
    leaves payload bits unread.
    """
    header = read_header(data)
    if header.scheme != scheme:
        raise FormatError(f"expected a {SCHEME_NAMES[scheme]} container, got {SCHEME_NAMES[header.scheme]}")
    source = BitSource(data, header.payload_bits, bit_offset=8 * HEADER_SIZE)
    out = parse(source, header.n)
    if source.bits_remaining:
        raise FormatError(f"{source.bits_remaining} unread payload bits")
    return out
