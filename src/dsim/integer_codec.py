"""Lossless codec for multisets of positive integers, and the sampling
scheme built on it: encode n i.i.d. draws as a multiset, decode the multiset
and return it in fresh uniform order.

The codeword serializes the sorted values X(1) <= ... <= X(n) through their
differences D_1 = X(1), D_i = X(i) - X(i-1).  D_1 is written bare as a gamma
codeword.  Each later group is either "1" followed by gamma(D_i) for a
positive difference, or "0" followed by gamma(j) for a run of j zero
differences (j maximal, so a positive difference or the end of the multiset
follows); the empty multiset has the empty codeword.  The decoder needs the
count n, which the container header carries, so no terminator is spent inside
the payload; it returns the distinct values and their multiplicities.
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
    """Append the codeword for a multiset of integers in [1, 2**63 - 1]."""
    arr = np.asarray(values, dtype=np.int64)
    if arr.ndim != 1:
        raise ValueError("multiset must be a 1-d collection")
    if arr.size and arr.min() < 1:
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


def decode_multiset(source: BitSource, n: int) -> tuple[np.ndarray, np.ndarray]:
    """The n values encode_multiset wrote, as (increasing distinct values, multiplicities)."""
    if n < 0:
        raise ValueError("n must be >= 0")
    # a slot per run: np.empty leaves the pages of the unused slots untouched
    values = np.empty(n, dtype=np.int64)
    starts = np.empty(n + 1, dtype=np.int64)
    runs = filled = x = 0
    while filled < n:
        if runs and not source.read_bit():
            filled += gamma_decode(source)
            if filled > n:
                raise FormatError("zero run overshoots the declared count")
        else:
            x += gamma_decode(source)
            if x > MAX_VALUE:
                raise FormatError("decoded value exceeds 2**63 - 1")
            values[runs] = x
            starts[runs] = filled
            runs += 1
            filled += 1
    starts[runs] = n
    return values[:runs], starts[1:runs + 1] - starts[:runs]


def simulate(dist, n: int, rng: RandomSource) -> tuple[bytes, np.ndarray]:
    """Draw n i.i.d. values and encode them.

    Returns the container bytes and the sorted multiset that was encoded, so
    callers can check losslessness against the decoder's output.
    """
    if not isinstance(dist, IntegerDistribution):
        raise ValueError(f"the int scheme needs an integer distribution, got {dist!r}")
    if n < 0:
        raise ValueError("n must be >= 0")
    values = dist.sample(rng.child("values"), n)
    return write_container(SCHEME_INTEGER, n, encode_multiset(values)), np.sort(values)


def desimulate(data: bytes, rng: RandomSource) -> np.ndarray:
    """Decode a container into n exchangeable draws from the source law."""
    header, source = read_container(data)
    if header.scheme != SCHEME_INTEGER:
        raise FormatError(f"expected an integer-scheme container, got scheme {header.scheme:#x}")
    out = np.repeat(*decode_multiset(source, header.n))
    if source.bits_remaining:
        raise FormatError(f"{source.bits_remaining} unread payload bits after the multiset")
    rng.child("order").gen.shuffle(out)
    return out
