"""Sampling scheme for laws with a non-increasing density on [0, inf).

Each draw X lands in the unit bin [i - 1, i) with index i = floor(X) + 1.
The multiset of bin indices goes through the integer codec, then for every
occupied bin (ascending) the fractional positions are encoded with the
dyadic codec against that bin's renormalized density restriction.  The
fractional parts of the encoder's own draws already have the restricted law
conditioned on the bin, so they are reused as hypograph x-coordinates and
only the heights are drawn fresh.

The encoder works on all bins in one pass: it sorts the draws by bin, draws
every height at once and locates every point with one locator call, each
point measured against its own bin's restriction (restrict_to_bin).  Every
bin is then grouped by collect_triples; only a bin holding a point that no
rectangle up to MAX_DEPTH catches builds its restricted law and retry source
to redraw that point.  The bytes are those of one stream per bin in turn.

The decoder never evaluates the density: bin counts come from the integer
payload and within-bin positions from the rectangle indices alone.  It reads
each bin's triples in turn and expands all of them with one draw.
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


def _mass_up_to(f: MonotonePdf, x, shift):
    """P(shift <= X < x): cdf values while f.cdf(x) <= 1/2, survival values beyond."""
    head = f.cdf(x)
    return np.where(head <= 0.5, head - f.cdf(shift), f.tail(shift) - f.tail(x))


def _bin_pdf(f: MonotonePdf, x, shift, mass, b=()):
    """restrict_to_bin(f, i).pdf(x) for the bins that index b picks from the
    arrays shift (i - 1) and mass.  The picks happen inside the expression,
    so no copy of them outlives its one operation."""
    return np.where((x >= 0.0) & (x <= 1.0), f.pdf(x + shift[b]) / mass[b], 0.0)


def _bin_runs(sorted_bins: np.ndarray):
    """The distinct values of a sorted array and the edges [0, ..., size] of their runs."""
    edges = np.concatenate(([0], np.flatnonzero(np.diff(sorted_bins)) + 1, [sorted_bins.size]))
    return sorted_bins[edges[:-1]], edges


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
    mass = float(_mass_up_to(f, float(i), shift))
    if not mass > 0.0:
        raise ValueError(f"bin {i} carries no probability mass")

    def pdf(x):
        return _bin_pdf(f, x, np.float64(shift), np.float64(mass))

    def cdf(x):
        xc = np.clip(x, 0.0, 1.0)
        return np.clip(_mass_up_to(f, xc + shift, shift) / mass, 0.0, 1.0)

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
    # a stable sort keeps each bin's draws in draw order; numpy radix-sorts
    # 16-bit keys, about four times faster than int64 ones at n = 10**6
    small = bins.max() <= 1 << 16
    order = np.argsort((bins - 1).astype(np.uint16) if small else bins, kind="stable")
    uniq, edges = _bin_runs(bins[order])
    del bins
    # per bin, the same shift and mass as restrict_to_bin; per point, its bin
    shift = (uniq - 1).astype(float)
    mass = _mass_up_to(f, uniq.astype(float), shift)
    empty = ~(mass > 0.0)
    if empty.any():
        raise ValueError(f"bin {uniq[empty][0]} carries no probability mass")
    which = np.repeat(np.arange(uniq.size, dtype=np.int32), np.diff(edges))

    def density(x, points):
        if np.ndim(x) == 0:  # a depth-0 corner: one value per bin
            return _bin_pdf(f, x, shift, mass)[which[points]]
        return _bin_pdf(f, x, shift, mass, which[points])

    xs = values[order]  # each draw's position inside its bin
    del values, order
    xs -= shift[which]
    # one draw of all the heights equals the per-bin draws in bin order
    ys = rng.child("heights").gen.random(n)
    ys *= density(xs, slice(None))
    # called through the module, so a wrapper installed there sees the call
    ks, offs, unresolved = dyadic_codec.locate_batch(xs, ys, f, density=density)
    for i, lo, hi in zip(uniq.tolist(), edges[:-1].tolist(), edges[1:].tolist()):
        write_triples(collect_triples(ks[lo:hi], offs[lo:hi], unresolved[lo:hi],
                                      lambda: (restrict_to_bin(f, i), rng.child("retry", i))), sink)
    return write_container(SCHEME_HALFLINE, n, sink)


def desimulate(data: bytes, rng: RandomSource) -> np.ndarray:
    """Regenerate n i.i.d. samples; needs only the codeword, never the density."""
    header, source = read_container(data)
    if header.scheme != SCHEME_HALFLINE:
        raise FormatError(f"expected a half-line container, got scheme {header.scheme:#x}")
    # no samples, no bins: decode_multiset needs n >= 1
    uniq, edges = (_bin_runs(decode_multiset(source, header.n)) if header.n
                   else (np.empty(0, dtype=np.int64), np.zeros(1, dtype=np.int64)))
    counts = np.diff(edges)
    triples = []
    for count in counts.tolist():
        triples += decode_triples(source, count)
    if source.bits_remaining:
        raise FormatError(f"{source.bits_remaining} unread payload bits after the last bin")
    # one draw of all the uniforms equals the per-bin draws in bin order
    out = points_from_triples(triples, rng.child("points").gen)
    out += np.repeat(uniq.astype(float) - 1.0, counts)
    rng.child("order").gen.shuffle(out)
    return out
