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

encode_multiset returns the codeword as bitcodes fields, three per run, for
write_container to pack with whatever follows it.  decode_multiset reads it
with bitcodes.read_flagged_gammas, the one tokeniser, each codeword with the
flag after it, and finds each window's runs with a few array operations.
"""

from __future__ import annotations

import numpy as np

from .bitcodes import (MAX_VALUE, SCHEME_INTEGER, BitSource, FormatError, gamma_length, read_container,
                       read_flagged_gammas, write_container)
from .distributions import IntegerDistribution
from .rng import RandomSource

__all__ = ["encode_multiset", "decode_multiset", "simulate", "desimulate"]


def encode_multiset(values, counts) -> np.ndarray:
    """The fields of the runs decode_multiset returns: increasing values in [1, 2**63 - 1], counts.

    Three fields per run: the "1" before it, of width 0 on the first run,
    gamma of its difference, and "0" + gamma(count - 1), of width 0 for a
    count of 1.
    """
    values = np.asarray(values, dtype=np.int64)
    counts = np.asarray(counts, dtype=np.int64)
    if values.ndim != 1 or values.shape != counts.shape:
        raise ValueError("runs must be two 1-d collections of one length")
    if values.size and (values[0] < 1 or counts.min() < 1 or not (values[1:] > values[:-1]).all()):
        raise ValueError("runs need increasing values >= 1 and counts >= 1")
    fields = np.zeros((values.size, 3, 2), dtype=np.int64)
    fields[1:, 0] = 1
    gaps = values.copy()
    gaps[1:] -= values[:-1]
    fields[:, 1, 0] = gaps
    fields[:, 1, 1] = gamma_length(gaps)
    fields[:, 2, 0] = counts - 1
    fields[:, 2, 1] = np.where(counts > 1, gamma_length(np.maximum(counts - 1, 1)) + 1, 0)
    return fields.reshape(-1, 2)


def decode_multiset(source: BitSource, n: int) -> tuple[np.ndarray, np.ndarray]:
    """The n values encode_multiset wrote, as (increasing distinct values, multiplicities).

    A fault raises the class a codeword-at-a-time reader would meet first: a
    codeword's own (read_flagged_gammas), or FormatError for a value past
    2**63 - 1, a zero run that passes n, or a zero run after a zero run.
    """
    if not 0 <= n <= MAX_VALUE:  # the range a header admits, so run starts are int64
        raise ValueError("n must be in [0, 2**63 - 1]")
    values, starts = [np.zeros(0, dtype=np.uint64)], []
    x, filled, flag = np.uint64(0), 0, True  # the last value, the values read, the last flag

    def consume(z, flags):
        nonlocal x, filled, flag
        if not z.size:
            return None
        # a codeword after a 0 flag is a zero run's length, after a 1 a difference
        zero = np.concatenate(([not flag], ~flags[:-1]))
        reach = np.where(zero, z, np.uint64(1)).cumsum() + np.uint64(filled)
        z[zero] = 0
        xs = z.cumsum() + x
        # the read stops at the first codeword that takes the value past
        # 2**63 - 1, reaches or passes n, or is a zero run with a 0 flag after
        # it; every term is below 2**63 and every sum before that codeword is
        # at most 2**63 - 1, so the uint64 sums are exact up to it
        hits = ((xs > MAX_VALUE) | (reach >= np.uint64(n)) | (zero > flags)).nonzero()[0]
        stop = int(hits[0]) if hits.size else z.size
        runs = (~zero[:stop + 1]).nonzero()[0]
        values.append(xs.take(runs))
        starts.append(reach.take(runs) - np.uint64(1))
        if stop == z.size:
            x, filled, flag = xs[-1], int(reach[-1]), bool(flags[-1])
            return None
        if xs[stop] > MAX_VALUE:
            raise FormatError("decoded value exceeds 2**63 - 1")
        if reach[stop] > n:
            raise FormatError("zero run overshoots the declared count")
        if reach[stop] < n:  # a run is maximal, so a value follows it
            raise FormatError("zero run follows a zero run")
        return stop + 1

    if n:
        read_flagged_gammas(source, consume)
    starts.append(np.array([n], dtype=np.uint64))
    starts = np.concatenate(starts).astype(np.int64)
    return np.concatenate(values).astype(np.int64), starts[1:] - starts[:-1]


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
