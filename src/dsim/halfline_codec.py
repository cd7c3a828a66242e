"""Sampling scheme for laws with a non-increasing density on [0, inf).

Each draw X lands in the unit bin [i - 1, i) with index i = floor(X) + 1.
The multiset of bin indices goes through the integer codec, then for every
occupied bin (ascending) the fractional positions are encoded with the
dyadic codec against that bin's density restriction.  The fractional parts
of the encoder's own draws already have the restricted law conditioned on
the bin, so they are reused as hypograph x-coordinates and only the heights
are drawn fresh.

The encoder works on all bins in one pass: it sorts the draws by bin, draws
every height at once and locates every point with one locator call against
f shifted into its bin, unnormalised: scaling a bin's density scales its
heights alike.  The call takes each bin's left end and each point's bin as
arrays; a bin's density is 0 past 1, so R(0, 0)'s lower edge is 0.  Only a
bin with a point that no rectangle up to MAX_DEPTH catches builds its
normalised law (restrict_to_bin), for collect_triples to redraw that point.
The bytes are those of one stream per bin in turn.

The decoder never evaluates the density: it reads the integer payload as runs,
each occupied bin with its count, and within-bin positions come from the
rectangle indices alone.  It reads each bin's triples in turn and expands all
of them with one draw.
"""

from __future__ import annotations

import numpy as np

from .bitcodes import (
    SCHEME_HALFLINE,
    FormatError,
    read_container,
    write_container,
)
from .distributions import MonotonePdf
from . import dyadic_codec
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
    values = f.sample(rng.child("values"), n)
    if not values.max(initial=0.0) < 2.0**63:  # its bin would pass 2**63 - 1
        raise ValueError(f"{f.name} drew a value past bin 2**63 - 1")
    bins = np.floor(values).astype(np.int64) + 1
    sink = encode_multiset(bins)
    # a stable sort keeps each bin's draws in draw order; numpy radix-sorts
    # 16-bit keys, about four times faster than int64 ones at n = 10**6
    small = bins.max(initial=0) <= 1 << 16
    order = np.argsort((bins - 1).astype(np.uint16) if small else bins, kind="stable")
    bins = bins[order]
    # the runs of the sorted bins; bins are >= 1, so the first one starts a run
    edges = np.append(np.flatnonzero(np.diff(bins, prepend=0)), n)
    uniq = bins[edges[:-1]]
    del bins
    # per bin, its left end; per point, its bin
    shift = (uniq - 1).astype(float)
    which = np.repeat(np.arange(uniq.size, dtype=np.int32), np.diff(edges))
    values = values[order]
    del order
    # one draw of all the heights equals the per-bin draws in bin order
    ys = rng.child("heights").gen.random(n)
    ys *= f.pdf(values)
    xs = values - shift[which]  # each draw's position inside its bin, exactly
    del values
    # called through the module, so a wrapper installed there sees the call
    ks, offs, unresolved = dyadic_codec.locate_batch(xs, ys, f, shift=shift, which=which)
    for i, lo, hi in zip(uniq.tolist(), edges[:-1].tolist(), edges[1:].tolist()):
        write_triples(collect_triples(ks[lo:hi], offs[lo:hi], unresolved[lo:hi],
                                      lambda: (restrict_to_bin(f, i), rng.child("retry", i))), sink)
    return write_container(SCHEME_HALFLINE, n, sink)


def desimulate(data: bytes, rng: RandomSource) -> np.ndarray:
    """Regenerate n i.i.d. samples; needs only the codeword, never the density."""
    header, source = read_container(data)
    if header.scheme != SCHEME_HALFLINE:
        raise FormatError(f"expected a half-line container, got scheme {header.scheme:#x}")
    uniq, counts = decode_multiset(source, header.n)
    triples = [t for count in counts.tolist() for t in decode_triples(source, count)]
    if source.bits_remaining:
        raise FormatError(f"{source.bits_remaining} unread payload bits after the last bin")
    # one draw of all the uniforms equals the per-bin draws in bin order
    out = points_from_triples(triples, rng.child("points").gen)
    out += np.repeat(uniq.astype(float) - 1.0, counts)
    rng.child("order").gen.shuffle(out)
    return out
