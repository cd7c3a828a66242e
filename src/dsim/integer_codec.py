"""Lossless codec for multisets of positive integers, and the sampling
scheme built on it: encode n i.i.d. draws as a multiset, decode the multiset
and return it in fresh uniform order.

The codeword serializes the sorted values X(1) <= ... <= X(n) through their
differences D_1 = X(1), D_i = X(i) - X(i-1).  D_1 is written bare as a gamma
codeword.  Each later group is either "1" followed by gamma(D_i) for a
positive difference, or "0" followed by gamma(j) for a run of j zero
differences (j maximal, so a positive difference or the end of the multiset
follows, so the decoder rejects a zero run after a zero run); the empty
multiset has the empty codeword.  The decoder needs the count n, which the
container header carries, so no terminator is spent inside the payload.  Both
directions carry the multiset as runs, its distinct values in increasing
order and their multiplicities, so a scheme sorts its draws once.
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


def encode_multiset(values, counts) -> BitSink:
    """The codeword of the runs decode_multiset returns: increasing values in [1, 2**63 - 1], counts."""
    values = np.asarray(values, dtype=np.int64)
    counts = np.asarray(counts, dtype=np.int64)
    if values.ndim != 1 or values.shape != counts.shape:
        raise ValueError("runs must be two 1-d collections of one length")
    if values.size and (values[0] < 1 or counts.min() < 1 or not (values[1:] > values[:-1]).all()):
        raise ValueError("runs need increasing values >= 1 and counts >= 1")
    sink = BitSink()
    for j, (gap, m) in enumerate(zip(np.diff(values, prepend=0).tolist(), counts.tolist())):
        if j:
            sink.write_bit(1)
        gamma_encode(gap, sink)
        if m > 1:
            sink.write_bit(0)
            gamma_encode(m - 1, sink)
    return sink


def decode_multiset(source: BitSource, n: int) -> tuple[np.ndarray, np.ndarray]:
    """The n values encode_multiset wrote, as (increasing distinct values, multiplicities)."""
    if not 0 <= n <= MAX_VALUE:  # the range a header admits, so run starts are int64
        raise ValueError("n must be in [0, 2**63 - 1]")
    # a slot per run, of which the payload holds at most one per bit;
    # np.empty leaves the pages of the unused slots untouched
    slots = min(n, source.bits_remaining)
    values = np.empty(slots, dtype=np.int64)
    starts = np.empty(slots + 1, dtype=np.int64)
    runs = filled = start = x = 0
    while filled < n:
        if runs and not source.read_bit():
            if filled - start > 1:  # a run is maximal, so a value follows it
                raise FormatError("zero run follows a zero run")
            filled += gamma_decode(source)
        else:
            x += gamma_decode(source)
            if x > MAX_VALUE:
                raise FormatError("decoded value exceeds 2**63 - 1")
            values[runs] = x
            starts[runs] = start = filled
            runs += 1
            filled += 1
        if filled > n:
            raise FormatError("zero run overshoots the declared count")
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
    uniq, counts = np.unique(dist.sample(rng.child("values"), n), return_counts=True)
    return write_container(SCHEME_INTEGER, n, encode_multiset(uniq, counts)), np.repeat(uniq, counts)


def desimulate(data: bytes, rng: RandomSource) -> np.ndarray:
    """Decode a container into n exchangeable draws from the source law."""
    out = np.repeat(*read_container(data, SCHEME_INTEGER, decode_multiset))
    rng.child("order").gen.shuffle(out)
    return out
