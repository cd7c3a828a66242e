"""Bit-level streams, Elias gamma codes, and the on-disk container format.

All bit strings are most-significant-bit first: bit i of a stream lives in
bit (7 - i % 8) of byte i // 8.  Codewords produced here are prefix free, so
streams written back to back decode unambiguously.

read_gammas is the bulk gamma reader.  One compiled regex splits the bits
after a BitSource's position into codewords, z zeros, a one and z more bits
for z <= 62, and at most one error token, the rest of the bits, where none of
those starts.  It tokenises GAMMA_WINDOW bits at a time, so its tokens stay a
few MiB at any payload size, and hands each window's values to its caller as
an int64 array; the caller says where to stop.

Gamma is the only integer code; a field that may be 0 is written as gamma of
the field plus 1.  read_header alone bounds n, by MAX_VALUE, so every decoder
counts in int64.  read_container is the one framed read of a payload: it
accepts a payload only when the header names the scheme a codec decodes and
the codec's parse(source, n) reads it to its last bit.
"""

from __future__ import annotations

import functools
import re
import struct
from dataclasses import dataclass
from itertools import repeat

import numpy as np

__all__ = [
    "MAX_VALUE",
    "SCHEME_INTEGER",
    "SCHEME_UNIT",
    "SCHEME_HALFLINE",
    "SCHEME_NAMES",
    "HEADER_SIZE",
    "FormatError",
    "TruncatedStreamError",
    "BitSink",
    "BitSource",
    "ContainerHeader",
    "gamma_encode",
    "gamma_decode",
    "gamma_length",
    "GAMMA_WINDOW",
    "read_gammas",
    "write_container",
    "read_header",
    "read_container",
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


class BitSink:
    """Append-only bit buffer."""

    __slots__ = ("_bytes", "_acc", "_nacc")

    def __init__(self):
        self._bytes = bytearray()
        self._acc = 0  # pending bits, always < 8 of them
        self._nacc = 0

    def write_bit(self, bit: int) -> None:
        self.write_bits(bit, 1)

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
            if nacc < 16:  # one whole byte, the common case of a codec's writes
                self._bytes.append(acc >> rest)
            else:  # the whole bytes in one conversion, so a wide write stays linear
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


class BitSource:
    """Bounded bit reader over a byte buffer.

    The window is held as a string of '0' and '1' characters, read by slicing.
    Reading past ``bit_length`` raises TruncatedStreamError; padding bits
    beyond the declared payload are never silently served.
    """

    __slots__ = ("_bits", "_pos")

    def __init__(self, data: bytes, bit_length: int, bit_offset: int = 0):
        if bit_offset < 0 or bit_length < 0 or bit_offset + bit_length > 8 * len(data):
            raise ValueError("bit window exceeds the buffer")
        chunk = data[bit_offset >> 3:(bit_offset + bit_length + 7) >> 3]
        start = bit_offset & 7
        bits = format(int.from_bytes(chunk, "big"), f"0{8 * len(chunk)}b")
        self._bits = bits[start:start + bit_length]
        self._pos = 0

    @property
    def bits_remaining(self) -> int:
        return len(self._bits) - self._pos

    def read_bit(self) -> int:
        return self.read_bits(1)

    def read_bits(self, width: int) -> int:
        if width < 0:
            raise ValueError("width must be >= 0")
        pos = self._pos
        end = pos + width
        if end > len(self._bits):
            raise TruncatedStreamError("bit stream exhausted")
        self._pos = end
        return int(self._bits[pos:end] or "0", 2)


def _check_value(z: int) -> int:
    z = int(z)
    if z < 1 or z > MAX_VALUE:
        raise ValueError(f"gamma code is defined for 1 <= Z <= 2**63 - 1, got {z}")
    return z


def gamma_encode(z: int, sink: BitSink) -> None:
    """Append the Elias gamma codeword for a positive integer.

    The codeword is N zeros followed by the (N+1)-bit binary expansion of Z,
    where N = floor(log2 Z).  Writing Z in a field of 2N+1 bits produces
    exactly that layout because the leading bit of Z is 1.
    """
    z = _check_value(z)
    n = z.bit_length() - 1
    sink.write_bits(z, 2 * n + 1)


def gamma_decode(source: BitSource) -> int:
    bits, pos = source._bits, source._pos
    # the zero run: no admissible codeword starts with more than 62 zeros
    one = bits.find("1", pos, pos + 63)
    if one < 0:
        if len(bits) - pos < 63:
            raise TruncatedStreamError("bit stream exhausted")
        raise FormatError("gamma prefix longer than any admissible value")
    source._pos = one
    return source.read_bits(one - pos + 1)  # the leading 1 and one bit per zero


def gamma_length(z: int) -> int:
    """Exact codeword length in bits: 2*floor(log2 Z) + 1."""
    return 2 * (_check_value(z).bit_length() - 1) + 1


@functools.cache
def _gamma_regex() -> re.Pattern:
    """The tokeniser, compiled on first use: an import that reads no triple skips its 2-4 ms.

    One alternative per zero, nested, keeps a match linear in its length;
    "." matches a bit, as the string holds only '0' and '1'.
    """
    pattern = "1.{62}"
    for z in range(61, -1, -1):
        pattern = f"1.{{{z}}}|0(?:{pattern})"
    return re.compile(f"(?:{pattern})|.+")


# A window of bits holds at most one token per bit: at 2**18 its token list
# and values take at most 2 MiB each.
GAMMA_WINDOW = 1 << 18


def read_gammas(source: BitSource, consume) -> None:
    """Hand consume the gamma values from source's position on, a window at a time.

    consume(values) takes the int64 values of a window's codewords in stream
    order and returns None to ask for the next window, or how many of them it
    used, which leaves source right after the last of those.  A window ends
    before a malformed codeword; asked for more after it, the read raises what
    gamma_decode would there: FormatError on 63 zeros in a row, else
    TruncatedStreamError.
    """
    bits, pos = source._bits, source._pos
    while True:
        end = min(len(bits), pos + GAMMA_WINDOW)
        tokens = _gamma_regex().findall(bits, pos, end)
        # the error token, if any, is the last; a codeword has z zeros, a one, z bits
        tail = tokens.pop() if tokens and not (
            len(tokens[-1]) <= 125 and 2 * tokens[-1].find("1") + 1 == len(tokens[-1])) else ""
        stop = end - len(tail)
        used = consume(np.fromiter(map(int, tokens, repeat(2)), np.int64, len(tokens)))
        if used is not None:
            source._pos = stop - sum(map(len, tokens[used:]))
            return
        source._pos = pos = stop
        if tail.startswith("0" * 63):
            raise FormatError("gamma prefix longer than any admissible value")
        if end == len(bits):
            raise TruncatedStreamError("bit stream exhausted")


@dataclass(frozen=True)
class ContainerHeader:
    scheme: int
    n: int
    payload_bits: int


def write_container(scheme: int, n: int, payload: BitSink) -> bytes:
    """Frame a payload: magic, version, scheme byte, sample count, bit count."""
    if scheme not in SCHEME_NAMES:
        raise ValueError(f"unknown scheme byte {scheme:#x}")
    if n < 0 or n >= 2**64:
        raise ValueError("sample count out of range for the header")
    header = MAGIC + struct.pack("<BBQQ", VERSION, scheme, n, payload.bit_length)
    return header + payload.to_bytes()


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
