"""Lossless codec for multisets of positive integers, and the sampling
scheme built on it: encode n i.i.d. draws as a multiset, decode the multiset
and return it in fresh uniform order.

The codeword serializes the sorted values X(1) <= ... <= X(n) through their
differences D_1 = X(1), D_i = X(i) - X(i-1).  D_1 is written bare as a gamma
codeword.  Each later group is either "1" followed by gamma(D_i) for a
positive difference, or "0" followed by gamma(j) for a run of j zero
differences (j maximal, so a positive difference or the end of the multiset
follows).  The decoder needs the target count n, which the container header
carries; no terminator is spent inside the payload.
"""

from __future__ import annotations

import numpy as np

from .bitcodes import (
    MAX_VALUE,
    SCHEME_INTEGER,
    BitSink,
    BitSource,
    FormatError,
    gamma_decode,
    gamma_encode,
    read_container,
    write_container,
)
from .distributions import IntegerDistribution
from .rng import RandomSource

__all__ = ["encode_multiset", "decode_multiset", "simulate", "desimulate"]


def encode_multiset(values, sink: BitSink | None = None) -> BitSink:
    """Append the codeword for a nonempty multiset of integers in [1, 2**63 - 1]."""
    arr = np.asarray(values, dtype=np.int64)
    if arr.ndim != 1 or arr.size == 0:
        raise ValueError("multiset must be a nonempty 1-d collection")
    if arr.min() < 1:
        raise ValueError("multiset values must be >= 1")
    if sink is None:
        sink = BitSink()
    uniq, counts = np.unique(arr, return_counts=True)
    gaps = np.diff(uniq, prepend=0)
    for j, (gap, m) in enumerate(zip(gaps.tolist(), counts.tolist())):
        if j:
            sink.write_bit(1)
        gamma_encode(gap, sink)
        if m > 1:
            sink.write_bit(0)
            gamma_encode(m - 1, sink)
    return sink


def decode_multiset(source: BitSource, n: int) -> np.ndarray:
    """Read back the sorted multiset of n values written by encode_multiset."""
    if n < 1:
        raise ValueError("n must be >= 1")
    out = np.empty(n, dtype=np.int64)
    x = gamma_decode(source)
    out[0] = x
    filled = 1
    while filled < n:
        if source.read_bit():
            x += gamma_decode(source)
            if x > MAX_VALUE:
                raise FormatError("decoded value exceeds 2**63 - 1")
            out[filled] = x
            filled += 1
        else:
            j = gamma_decode(source)
            if filled + j > n:
                raise FormatError("zero run overshoots the declared count")
            out[filled:filled + j] = x
            filled += j
    return out


def simulate(dist, n: int, rng: RandomSource) -> tuple[bytes, np.ndarray]:
    """Draw n i.i.d. values and encode them.

    Returns the container bytes and the sorted multiset that was encoded, so
    callers can check losslessness against the decoder's output.
    """
    if not isinstance(dist, IntegerDistribution):
        raise ValueError(f"the int scheme needs an integer distribution, got {dist!r}")
    if n < 0:
        raise ValueError("n must be >= 0")
    sink = BitSink()
    if n == 0:
        return write_container(SCHEME_INTEGER, 0, sink), np.empty(0, dtype=np.int64)
    values = dist.sample(rng.child("values"), n)
    encode_multiset(values, sink)
    return write_container(SCHEME_INTEGER, n, sink), np.sort(values)


def desimulate(data: bytes, rng: RandomSource) -> np.ndarray:
    """Decode a container into n exchangeable draws from the source law."""
    header, source = read_container(data)
    if header.scheme != SCHEME_INTEGER:
        raise FormatError(f"expected an integer-scheme container, got scheme {header.scheme:#x}")
    out = decode_multiset(source, header.n) if header.n else np.empty(0, dtype=np.int64)
    if source.bits_remaining:
        raise FormatError(f"{source.bits_remaining} unread payload bits after the multiset")
    rng.child("order").gen.shuffle(out)
    return out
