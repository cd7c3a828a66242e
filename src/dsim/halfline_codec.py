"""Sampling scheme for laws with a non-increasing density on [0, inf).

Each draw X lands in the unit bin [i - 1, i) with index i = floor(X) + 1.
The multiset of bin indices goes through the integer codec, then for every
occupied bin (ascending) the fractional positions are encoded with the
dyadic codec against that bin's density restriction.  The fractional parts
of the encoder's own draws already have the restricted law conditioned on
the bin, so they are reused as hypograph x-coordinates and only the heights
are drawn fresh.

The encoder draws its values dyadic_codec.CHUNK at a time, then works on all
bins in one pass: one stable sort of the draws' bin keys gives their bin
order, and one np.unique of the keys the multiset's runs.  Each chunk gathers
its draws through that order and takes their bins from the runs it meets; a
slice of one draw gives the heights, and one locator call places the points
against f shifted into their bins, unnormalised: scaling a bin's density
scales its heights alike.  The call takes the left ends of the chunk's bins
and each point's bin as arrays; a bin's density is 0 past 1, so R(0, 0)'s
lower edge is 0.  One collect_triples call counts every chunk and one
write_triples call writes every bin, in bin order, after the multiset's
fields; write_container packs them all at once.  Only a bin with a point
that no rectangle up to MAX_DEPTH catches builds its normalised law
(restrict_to_bin), for collect_triples to redraw it.

The decoder never evaluates the density: it reads the integer payload as runs,
each occupied bin with its count, and within-bin positions come from the
rectangle indices alone.  One decode_triples call reads every bin's triples,
given the bins' counts, and one draw expands them all; a bin's left end plus
a position that rounds up to its right end is clamped back inside the bin.
"""

from __future__ import annotations

import numpy as np

from .bitcodes import SCHEME_HALFLINE, FormatError, read_container, write_container
from .distributions import MonotonePdf
from . import dyadic_codec
from .dyadic_codec import collect_triples, decode_triples, points_from_triples, write_triples
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
    head_at_shift, tail_at_shift = f.cdf(shift), f.tail(shift)

    def mass_up_to(x):
        head = f.cdf(x)
        return np.where(head <= 0.5, head - head_at_shift, tail_at_shift - f.tail(x))

    mass = float(mass_up_to(float(i)))
    if not mass > 0.0:
        raise ValueError(f"bin {i} carries no probability mass")

    def pdf(x):
        return np.where((x >= 0.0) & (x <= 1.0), f.pdf(x + shift), 0.0) / mass

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
    source, values = rng.child("values"), np.empty(n)
    for lo in range(0, n, dyadic_codec.CHUNK):  # chunks draw the same values with fewer temporaries
        values[lo:lo + dyadic_codec.CHUNK] = f.sample(source, min(dyadic_codec.CHUNK, n - lo))
    top = values.max(initial=0.0)
    if not (top < 2.0**63 and values.min(initial=0.0) >= 0.0):  # bins run from 1 to 2**63 - 1
        raise ValueError(f"{f.name} drew a value outside bins 1 to 2**63 - 1")
    # a stable sort of floor(X) keeps each bin's draws in draw order; numpy
    # radix-sorts 16-bit keys, about four times faster than int64 ones at
    # n = 10**6, and a cast floors the draws, which are >= 0
    key = values.astype(np.uint16 if top < 2**16 else np.int64)
    order = np.argsort(key, kind="stable")
    # the runs of the keys, each an occupied bin i = floor(X) + 1
    uniq, counts = np.unique(key, return_counts=True)
    del key  # the located chunks need only the order
    uniq = uniq.astype(np.int64) + 1
    edges = np.append(0, counts.cumsum())
    bins = encode_multiset(uniq, counts)
    shift = (uniq - 1).astype(float)  # per bin, its left end
    heights = rng.child("heights").gen  # its slices in turn are the per-bin draws in bin order

    def located():  # through the module, so a wrapper installed there sees each call
        for lo in range(0, n, dyadic_codec.CHUNK):
            v = values.take(order[lo:lo + dyadic_codec.CHUNK])
            # per point, its bin: the runs j0 to j1 - 1 meet the chunk, clipped to it
            j0, j1 = np.searchsorted(edges, lo, "right") - 1, np.searchsorted(edges, lo + v.size)
            w = np.repeat(np.arange(j1 - j0, dtype=np.int32), np.diff(edges[j0:j1 + 1].clip(lo, lo + v.size)))
            ys = heights.random(v.size) * f.pdf(v)
            # each draw's position inside its bin is exact
            yield *dyadic_codec.locate_batch(v - shift[j0:j1].take(w), ys, f, shift=shift[j0:j1],
                                             which=w), w + j0

    triples = collect_triples(located(), lambda j: (
        restrict_to_bin(f, int(uniq[j])), rng.child("retry", int(uniq[j]))))
    return write_container(SCHEME_HALFLINE, n, np.concatenate((bins, write_triples(triples))))


def _read_bins(source, n: int):
    """The payload as (bins, their counts, every bin's (k, a, count) rows in bin order)."""
    uniq, counts = decode_multiset(source, n)
    # an encoder's left end floor(X) is a double, as every integer below 2**53 is
    if any(float(left) != left for left in (uniq[uniq > 1 << 53] - 1).tolist()):
        raise FormatError("a bin's left end is not a double")
    return uniq, counts, decode_triples(source, counts)


def desimulate(data: bytes, rng: RandomSource) -> np.ndarray:
    """Regenerate n i.i.d. samples; needs only the codeword, never the density."""
    uniq, counts, triples = read_container(data, SCHEME_HALFLINE, _read_bins)
    # one draw of all the uniforms equals the per-bin draws in bin order
    out = points_from_triples(triples, rng.child("points").gen)
    # the encoder's i - 1 = floor(X) is a double, and left + frac may round up
    # to i: clamp to the last double below i, or to left if none lies between
    left = (uniq - 1).astype(float)
    out += np.repeat(left, counts)
    np.minimum(out, np.repeat(np.maximum(left, np.nextafter(uniq.astype(float), -np.inf)), counts), out=out)
    rng.child("order").gen.shuffle(out)
    return out
