"""Bit-level streams, Elias gamma codes, and the on-disk container format.

All bit strings are most-significant-bit first: bit i of a stream lives in
bit (7 - i % 8) of byte i // 8.  Codewords produced here are prefix free, so
streams written back to back decode unambiguously.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

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
    "shifted_gamma_encode",
    "shifted_gamma_decode",
    "shifted_gamma_length",
    "write_container",
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
        out = self._bytes
        while nacc >= 8:
            nacc -= 8
            out.append((acc >> nacc) & 0xFF)
        self._acc = acc & ((1 << nacc) - 1)
        self._nacc = nacc

    @property
    def bit_length(self) -> int:
        return 8 * len(self._bytes) + self._nacc

    def to_bytes(self) -> bytes:
        """Buffer contents, final partial byte padded with zero bits."""
        if self._nacc:
            return bytes(self._bytes) + bytes([(self._acc << (8 - self._nacc)) & 0xFF])
        return bytes(self._bytes)

    def to_bitstring(self) -> str:
        bits = []
        for byte in self._bytes:
            bits.append(f"{byte:08b}")
        if self._nacc:
            bits.append(f"{self._acc:0{self._nacc}b}")
        return "".join(bits)


class BitSource:
    """Bounded bit reader over a byte buffer.

    Reading past ``bit_length`` raises TruncatedStreamError; padding bits
    beyond the declared payload are never silently served.
    """

    __slots__ = ("_data", "_pos", "_limit")

    def __init__(self, data: bytes, bit_length: int | None = None, bit_offset: int = 0):
        if bit_length is None:
            bit_length = 8 * len(data) - bit_offset
        if bit_offset < 0 or bit_length < 0 or bit_offset + bit_length > 8 * len(data):
            raise ValueError("bit window exceeds the buffer")
        self._data = data
        self._pos = bit_offset
        self._limit = bit_offset + bit_length

    @classmethod
    def from_bitstring(cls, s: str) -> "BitSource":
        sink = BitSink()
        for ch in s:
            sink.write_bit(int(ch))
        return cls(sink.to_bytes(), bit_length=len(s))

    @property
    def bits_remaining(self) -> int:
        return self._limit - self._pos

    def read_bit(self) -> int:
        pos = self._pos
        if pos >= self._limit:
            raise TruncatedStreamError("bit stream exhausted")
        self._pos = pos + 1
        return (self._data[pos >> 3] >> (7 - (pos & 7))) & 1

    def read_bits(self, width: int) -> int:
        if width < 0:
            raise ValueError("width must be >= 0")
        pos = self._pos
        end = pos + width
        if end > self._limit:
            raise TruncatedStreamError("bit stream exhausted")
        first, last = pos >> 3, (end + 7) >> 3
        chunk = int.from_bytes(self._data[first:last], "big")
        self._pos = end
        return (chunk >> (8 * last - end)) & ((1 << width) - 1)


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
    n = 0
    while source.read_bit() == 0:
        n += 1
        if n > 62:
            raise FormatError("gamma prefix longer than any admissible value")
    return (1 << n) | source.read_bits(n)


def gamma_length(z: int) -> int:
    """Exact codeword length in bits: 2*floor(log2 Z) + 1."""
    return 2 * (_check_value(z).bit_length() - 1) + 1


def shifted_gamma_encode(x: int, sink: BitSink) -> None:
    """Gamma code shifted to cover x >= 0 by encoding x + 1."""
    x = int(x)
    if x < 0:
        raise ValueError(f"shifted gamma code needs x >= 0, got {x}")
    gamma_encode(x + 1, sink)


def shifted_gamma_decode(source: BitSource) -> int:
    return gamma_decode(source) - 1


def shifted_gamma_length(x: int) -> int:
    x = int(x)
    if x < 0:
        raise ValueError(f"shifted gamma code needs x >= 0, got {x}")
    return gamma_length(x + 1)


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


def read_container(data: bytes) -> tuple[ContainerHeader, BitSource]:
    """Parse and validate a container, returning its header and payload reader."""
    if len(data) < HEADER_SIZE:
        raise FormatError(f"container shorter than the {HEADER_SIZE}-byte header")
    if data[:4] != MAGIC:
        raise FormatError(f"bad magic {data[:4]!r}")
    version, scheme, n, payload_bits = struct.unpack("<BBQQ", data[4:HEADER_SIZE])
    if version != VERSION:
        raise FormatError(f"unsupported version {version}")
    if scheme not in SCHEME_NAMES:
        raise FormatError(f"unknown scheme byte {scheme:#x}")
    body_bits = 8 * (len(data) - HEADER_SIZE)
    if payload_bits > body_bits:
        raise FormatError(f"header declares {payload_bits} payload bits but only {body_bits} are present")
    if body_bits - payload_bits >= 8:
        raise FormatError("container holds more than one byte of padding")
    if data[-1] & ((1 << (body_bits - payload_bits)) - 1):
        raise FormatError("padding bits after the payload must be zero")
    return ContainerHeader(scheme, n, payload_bits), BitSource(data, payload_bits, bit_offset=8 * HEADER_SIZE)
