"""Test-only references: the scalar rectangle locator, the oracle for
dyadic_codec.locate_batch, '0'/'1' string views of the bit streams, and the
runs of a multiset."""

import numpy as np

from dsim.bitcodes import BitSink, BitSource
from dsim.dyadic_codec import MAX_DEPTH, DepthExceededError


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


def from_bitstring(s: str) -> BitSource:
    """A BitSource that serves the bits of a '0'/'1' string."""
    if not set(s) <= {"0", "1"}:
        raise ValueError("a bit string holds only the characters 0 and 1")
    padded = s + "0" * (-len(s) % 8)
    return BitSource(int(padded or "0", 2).to_bytes(len(padded) // 8, "big"), len(s))


def to_bitstring(sink: BitSink) -> str:
    """The bits written to sink, as a '0'/'1' string."""
    data = sink.to_bytes()
    return format(int.from_bytes(data, "big"), f"0{8 * len(data)}b")[:sink.bit_length]


def runs(values) -> tuple[np.ndarray, np.ndarray]:
    """A multiset of integers as encode_multiset takes it: its increasing
    distinct values and their multiplicities."""
    return np.unique(np.asarray(values, dtype=np.int64), return_counts=True)
