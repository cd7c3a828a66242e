"""Sampling scheme for laws with a non-increasing density on [0, inf).

Each draw X lands in the unit bin [i - 1, i) with index i = floor(X) + 1.
The multiset of bin indices goes through the integer codec, then for every
occupied bin (ascending) the fractional positions are encoded with the
dyadic codec against that bin's renormalized density restriction.  The
fractional parts of the encoder's own draws already have the restricted law
conditioned on the bin, so they are reused as hypograph x-coordinates and
only the heights are drawn fresh.

The decoder never evaluates the density: bin counts come from the integer
payload and within-bin positions from the rectangle indices alone.
"""

from __future__ import annotations

import numpy as np

from .bitcodes import (
    SCHEME_HALFLINE,
    BitSink,
    FormatError,
    read_container,
    write_container,
)
from .distributions import MonotonePdf
from .dyadic_codec import (
    collect_triples,
    decode_triples,
    points_from_triples,
    write_triples,
)
from .integer_codec import decode_multiset, encode_multiset
from .rng import RandomSource

__all__ = ["restrict_to_bin", "simulate", "desimulate"]


def restrict_to_bin(f: MonotonePdf, i: int) -> MonotonePdf:
    """The law of X - (i - 1) given X in [i - 1, i), as a unit-support handle.

    P(i - 1 <= X < x) is a difference of cdf values while f.cdf(x) <= 1/2 and
    of survival values beyond, so it cancels neither near 0 nor deep in the tail.
    """
    if f.support != "halfline":
        raise ValueError("restriction is defined for half-line densities")
    i = int(i)
    if i < 1:
        raise ValueError("bin index must be >= 1")
    shift = float(i - 1)

    def mass_up_to(x):
        head = f.cdf(x)
        return np.where(head <= 0.5, head - f.cdf(shift), f.tail(shift) - f.tail(x))

    mass = float(mass_up_to(float(i)))
    if not mass > 0.0:
        raise ValueError(f"bin {i} carries no probability mass")

    def pdf(x):
        return np.where((x >= 0.0) & (x <= 1.0), f.pdf(x + shift) / mass, 0.0)

    def cdf(x):
        xc = np.clip(x, 0.0, 1.0)
        return np.clip(mass_up_to(xc + shift) / mass, 0.0, 1.0)

    def cdf_inverse(u):
        # Bisect cdf over the int64 bit patterns of [0, 1), which sort like the
        # floats they encode: 62 halvings reach 1 ulp at every scale, while
        # inverting f's own cdf at f.cdf(shift) + u * mass would saturate in
        # tail bins, where f.cdf is within rounding of 1.
        one = np.float64(1.0).view(np.int64)
        lo = np.zeros(np.shape(u), dtype=np.int64)
        hi = np.full(np.shape(u), one)
        for _ in range(62):
            mid = (lo + hi) >> 1
            below = cdf(mid.view(np.float64)) < u
            lo = np.where(below, mid, lo)
            hi = np.where(below, hi, mid)
        return np.minimum(hi, one - 1).view(np.float64)

    return MonotonePdf(f"{f.name}[bin {i}]", "unit", pdf, cdf, cdf_inverse,
                       f0=f.pdf(shift) / mass, params={"bin": i, "mass": mass})


def simulate(f: MonotonePdf, n: int, rng: RandomSource) -> bytes:
    """Draw n i.i.d. values of f and encode bins plus within-bin rectangles."""
    if not (isinstance(f, MonotonePdf) and f.support == "halfline"):
        raise ValueError(f"the half-line scheme needs a density on [0, inf), got {f!r}")
    if n < 0:
        raise ValueError("n must be >= 0")
    sink = BitSink()
    if n == 0:
        return write_container(SCHEME_HALFLINE, 0, sink)
    values = f.sample(rng.child("values"), n)
    bins = np.floor(values).astype(np.int64) + 1
    encode_multiset(bins, sink)
    heights = rng.child("heights").gen
    retry = rng.child("retry")
    # a stable sort keeps each bin's draws in draw order
    order = np.argsort(bins, kind="stable")
    uniq, starts = np.unique(bins[order], return_index=True)
    for i, xs in zip(uniq.tolist(), np.split((values - (bins - 1))[order], starts[1:])):
        restricted = restrict_to_bin(f, i)
        ys = heights.random(xs.size) * restricted.pdf(xs)
        write_triples(collect_triples(xs, ys, restricted, retry.child(i)), sink)
    return write_container(SCHEME_HALFLINE, n, sink)


def desimulate(data: bytes, rng: RandomSource) -> np.ndarray:
    """Regenerate n i.i.d. samples; needs only the codeword, never the density."""
    header, source = read_container(data)
    if header.scheme != SCHEME_HALFLINE:
        raise FormatError(f"expected a half-line container, got scheme {header.scheme:#x}")
    if header.n == 0:
        return np.empty(0, dtype=float)
    bins = decode_multiset(source, header.n)
    uniq, counts = np.unique(bins, return_counts=True)
    points = rng.child("points").gen
    chunks = []
    for i, count in zip(uniq, counts):
        triples = decode_triples(source, int(count))
        chunks.append(points_from_triples(triples, points) + (float(i) - 1.0))
    if source.bits_remaining:
        raise FormatError(f"{source.bits_remaining} unread payload bits after the last bin")
    out = np.concatenate(chunks)
    rng.child("order").gen.shuffle(out)
    return out
