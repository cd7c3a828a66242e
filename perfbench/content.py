"""An independent reader of dsim containers that counts what a stream holds.

The counts come from the bytes, not from calls into the codec, so a faster
bit layer or locator cannot redefine them.  The reader follows the format
described in ``dsim.bitcodes``, ``dsim.integer_codec``, ``dsim.dyadic_codec``
and ``dsim.halfline_codec``: a 22-byte header, then Elias gamma codewords.
"""

from __future__ import annotations

import struct

HEADER = struct.Struct("<4sBBQQ")  # magic, version, scheme, n, payload bits
SCHEMES = {1: "int", 2: "unit", 3: "halfline"}

COUNTS = ("bitcodes.payload_bits", "bitcodes.codewords", "dyadic_codec.triples",
          "dyadic_codec.max_depth", "halfline_codec.bins")


def header(data: bytes) -> tuple[str, int, int]:
    """(scheme name, sample count, payload bits) of a container."""
    magic, version, scheme, n, bits = HEADER.unpack_from(data)
    if magic != b"DSIM" or version != 1 or scheme not in SCHEMES:
        raise ValueError("not a version-1 dsim container")
    return SCHEMES[scheme], n, bits


class _Reader:
    """Payload bits as a '0'/'1' string, so a codeword's zero prefix is one find()."""

    def __init__(self, data: bytes, nbits: int):
        body = data[HEADER.size:]
        if 8 * len(body) < nbits:
            raise ValueError("payload shorter than its header says")
        self.bits = format(int.from_bytes(body, "big"), f"0{8 * len(body)}b")[:nbits] if body else ""
        self.pos = 0
        self.codewords = 0

    def bit(self) -> bool:
        if self.pos >= len(self.bits):
            raise ValueError("payload ends inside a group flag")
        self.pos += 1
        return self.bits[self.pos - 1] == "1"

    def gamma(self) -> int:
        one = self.bits.find("1", self.pos)
        end = 2 * one - self.pos + 1
        if one < 0 or end > len(self.bits):
            raise ValueError("payload ends inside a gamma codeword")
        value = int(self.bits[one:end], 2)
        self.pos = end
        self.codewords += 1
        return value


def _multiset(r: _Reader, n: int) -> list[int]:
    """Walk a sorted-difference multiset of n values; multiplicities in value order."""
    r.gamma()
    runs = [1]
    filled = 1
    while filled < n:
        if r.bit():
            r.gamma()
            runs.append(1)
            filled += 1
        else:
            j = r.gamma()
            runs[-1] += j
            filled += j
    if filled != n:
        raise ValueError("zero run overshoots the declared count")
    return runs


def _triples(r: _Reader, n: int, out: dict) -> None:
    """Walk (k, a, count) triples until the counts reach n."""
    total = 0
    while total < n:
        k = r.gamma() - 1
        a = r.gamma() - 1
        if a > (1 << max(k - 1, 0)) - 1:
            raise ValueError(f"offset {a} out of range at depth {k}")
        total += r.gamma()
        out["dyadic_codec.triples"] += 1
        out["dyadic_codec.max_depth"] = max(out["dyadic_codec.max_depth"], k)
    if total != n:
        raise ValueError("triple counts overshoot the declared total")


def count(data: bytes) -> dict[str, int]:
    """Payload bits, gamma codewords, triples, deepest triple and halfline bins."""
    scheme, n, nbits = header(data)
    out = dict.fromkeys(COUNTS, 0)
    out["bitcodes.payload_bits"] = nbits
    r = _Reader(data, nbits)
    if n and scheme == "int":
        _multiset(r, n)
    elif n and scheme == "unit":
        _triples(r, n, out)
    elif n:
        runs = _multiset(r, n)
        out["halfline_codec.bins"] = len(runs)
        for m in runs:
            _triples(r, m, out)
    if r.pos != nbits:
        raise ValueError(f"{nbits - r.pos} payload bits left unread")
    out["bitcodes.codewords"] = r.codewords
    return out
