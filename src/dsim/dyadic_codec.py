"""Dyadic rectangle codec for laws with a non-increasing density on [0, 1].

The region under the density (its hypograph) is tiled, up to measure zero,
by half-open rectangles indexed by a depth k >= 0 and an offset a.  R(k, a)
spans x in [2**(1-k) * a, 2**-k * (2a + 1)) and y in
[f(2**(1-k) * (a + 1)), f(2**-k * (2a + 1))), or [0, f(1)) for R(0, 0), as
the law has no mass past 1; at depth k the admissible offsets are
0 <= a <= max(2**(k-1) - 1, 0).  Crucially the x-interval of a rectangle is
determined by (k, a) alone, so a decoder that knows only the indices can
regenerate points with the correct law: a uniform point of the hypograph
projects to an f-distributed x, and conditioned on its rectangle the
x-coordinate is uniform on that rectangle's x-interval.

The codeword lists the occupied rectangles in lexicographic (k, a) order,
which is the order of their heap nodes 2**(k-1) + a (node 0 for k = 0), each
as shifted-gamma(k), shifted-gamma(a), gamma(count).  For this scheme and
the half-line scheme, collect_triples is the one path from located points to
triples and write_triples the one writer of that layout.  No rectangle lies
deeper than MAX_DEPTH, the only depth: the locator searches every depth up
to it, collect_triples redraws the rare point that none catches, and the
decoder rejects deeper triples.
"""

from __future__ import annotations

import numpy as np

from .bitcodes import (
    SCHEME_UNIT,
    BitSink,
    BitSource,
    FormatError,
    gamma_decode,
    gamma_encode,
    read_container,
    shifted_gamma_decode,
    shifted_gamma_encode,
    write_container,
)
from .distributions import MonotonePdf
from .rng import RandomSource

__all__ = [
    "MAX_DEPTH",
    "RETRY_BUDGET",
    "DepthExceededError",
    "rect_bounds",
    "rect_area",
    "locate_batch",
    "write_triples",
    "decode_triples",
    "points_from_triples",
    "simulate",
    "desimulate",
]

MAX_DEPTH = 62
RETRY_BUDGET = 100


class DepthExceededError(ValueError):
    """No rectangle with depth k <= MAX_DEPTH contains the point."""


def _offset_in_range(k: int, a: int) -> bool:
    # R(k, a)'s x-interval holds a double exactly when a is one (as every int
    # below 2**53 is): otherwise the next double above a * 2**(1-k) is at
    # least (a + 1) * 2**(1-k)
    return (0 <= k <= MAX_DEPTH and 0 <= a <= ((1 << (k - 1)) - 1 if k else 0)
            and (a < 1 << 53 or float(a) == a))


def _check_index(k: int, a: int) -> None:
    if not _offset_in_range(k, a):
        raise ValueError(f"no rectangle R(k={k}, a={a}) at depth <= {MAX_DEPTH}")


def rect_bounds(k: int, a: int, f) -> tuple[float, float, float, float]:
    """Corners (x_lo, x_hi, y_lo, y_hi) of rectangle R(k, a)."""
    _check_index(k, a)
    x_lo = a * 2.0 ** (1 - k)
    x_hi = (2 * a + 1) * 2.0 ** -k
    y_lo = f.pdf((a + 1) * 2.0 ** (1 - k)) if k else 0.0
    y_hi = f.pdf((2 * a + 1) * 2.0 ** -k)
    return x_lo, x_hi, y_lo, y_hi


def rect_area(k: int, a: int, f) -> float:
    x_lo, x_hi, y_lo, y_hi = rect_bounds(k, a, f)
    return (x_hi - x_lo) * max(y_hi - y_lo, 0.0)


def locate_batch(xs: np.ndarray, ys: np.ndarray, f, *, shift=0.0, which=0):
    """Rectangles R(k, a) holding hypograph points: (ks, offsets, unresolved_mask).

    Point i lies under f(x + shift[which[i]]) on [0, 1], and R(0, 0) spans y
    in [0, f(1 + shift[which[i]])).  The half-line scheme passes each bin's
    left end and each point's bin, so one call locates every bin; a unit-scheme
    call passes neither, and a lone shift applies to every point.  Points that
    no rectangle up to MAX_DEPTH catches are flagged in the mask rather than
    raising, so callers can resample just those; flagged before any depth are
    those that no rectangle holds: x outside [0, 1), not a number, or y below
    0.  Each depth visits only the points still unplaced: m = floor(x * 2**k)
    is exact for x in [0, 1) and k <= MAX_DEPTH, its low bit is clear exactly
    when x lies in the left half of a depth-k cell, and a = m >> 1 is that
    cell's offset.

    The rectangles along the vertical line through a point are stacked, so
    each depth compares y with one threshold, f at the cell's middle.  The
    lower edge of R(k, a), f at the cell's right end (a + 1) * 2**(1-k), is
    f at the middle of the point's cell at the last earlier depth where it
    lay in a left half, or f(1) if there is none.  Both x values are an
    integer rounded to a double and scaled by a power of two, and rounding
    commutes with that scaling, so they are the same double even above
    2**53, and a point not placed there has y at or above it.

    A depth whose left-half points outnumber the 2**(k-1) cells of all its
    bins together evaluates f once on every bin's cell middles and reads each
    point's threshold with take; otherwise f is evaluated at each point's own
    middle.  Both give the same doubles, so every decision is the same.
    """
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    shift = np.reshape(np.asarray(shift, dtype=float), -1)
    per_bin = np.ndim(which) > 0 or shift.any()
    which = np.broadcast_to(which, xs.shape) if per_bin else which
    inside = (xs >= 0.0) & (xs < 1.0) & (ys >= 0.0)
    placed = inside & (ys < f.pdf(1.0 + shift)[which])
    ks = np.where(placed, np.int64(0), np.int64(-1))
    offs = np.zeros(xs.size, dtype=np.int64)
    # the points still unplaced that some rectangle may hold; each depth
    # compacts them by index, since a take through np.flatnonzero is several
    # times faster than a mask gather
    inside ^= placed
    idx = np.flatnonzero(inside)
    del inside, placed
    for k in range(1, MAX_DEPTH + 1):
        if not idx.size:
            break
        m = np.ldexp(xs.take(idx), k).astype(np.int64)
        left = np.flatnonzero((m & 1) == 0)
        a = m.take(left) >> 1
        del m
        points = idx.take(left)
        cells = 1 << (k - 1)
        if a.size > shift.size * cells:  # f at every bin's cell middles
            x = (2 * np.arange(cells) + 1) * 2.0 ** -k
            if per_bin:  # a row per bin, indexed in int64 as which may be int32
                grid = f.pdf((shift[:, None] + x).ravel())
                hi = grid.take(which.take(points) * np.int64(cells) + a)
            else:
                hi = f.pdf(x).take(a)
        else:
            x = (2 * a + 1) * 2.0 ** -k
            hi = f.pdf(x + shift.take(which.take(points)) if per_bin else x)
        hit = np.flatnonzero(ys.take(points) < hi)
        del hi
        placed = points.take(hit)
        ks[placed] = k
        offs[placed] = a.take(hit)
        rest = np.ones(idx.size, dtype=bool)
        rest[left.take(hit)] = False
        idx = idx.take(np.flatnonzero(rest))
    return ks, offs, ks < 0


def _hypograph_draw(f, gen, size: int):
    xs = f.cdf_inverse(gen.random(size))
    ys = gen.random(size) * f.pdf(xs)
    return xs, ys


def collect_triples(ks, offs, bad, resample_from) -> list[tuple[int, int, int]]:
    """Sorted (k, a, count) triples of located hypograph points.

    ks, offs and bad are locate_batch's output for points of some law f's
    hypograph.  The points that bad flags are replaced, in place, by fresh
    hypograph draws, which leaves the encoded law unchanged.  resample_from()
    returns (f, retry_rng) for those draws; it is called once, and only if
    bad flags a point.  DepthExceededError is raised if some are still
    uncaught after RETRY_BUDGET rounds.
    """
    rounds = 0
    while bad.any():
        if not rounds:
            f, retry_rng = resample_from()
        rounds += 1
        if rounds > RETRY_BUDGET:
            raise DepthExceededError(f"depth budget still exhausted after {RETRY_BUDGET} resamples")
        idx = np.flatnonzero(bad)
        rx, ry = _hypograph_draw(f, retry_rng.gen, idx.size)
        rks, roffs, rbad = locate_batch(rx, ry, f)
        ks[idx] = rks
        offs[idx] = roffs
        bad[idx] = rbad
    return _count_rectangles(ks, offs)


def _count_rectangles(ks: np.ndarray, offs: np.ndarray) -> list[tuple[int, int, int]]:
    """(k, a, count) of each distinct rectangle, in (k, a) order.

    R(k, a) is heap node 2**(k-1) + a (node 0 for k = 0).  Depth k fills the
    nodes [2**(k-1), 2**k), so node order is (k, a) order, and a node's bit
    length is its depth.
    """
    nodes = np.left_shift(1, ks - 1, out=np.zeros_like(ks), where=ks > 0)
    nodes += offs
    uniq, counts = np.unique(nodes, return_counts=True)
    out = []
    for node, count in zip(uniq.tolist(), counts.tolist()):
        k = node.bit_length()
        out.append((k, node - (1 << k >> 1), count))
    return out


def write_triples(triples, sink: BitSink) -> None:
    """Append each (k, a, count) as shifted-gamma(k), shifted-gamma(a), gamma(count)."""
    for k, a, count in triples:
        shifted_gamma_encode(k, sink)
        shifted_gamma_encode(a, sink)
        gamma_encode(count, sink)


def decode_triples(source: BitSource, n: int) -> list[tuple[int, int, int]]:
    """Read (k, a, count) triples until their counts sum to n (none for n = 0)."""
    if n < 0:
        raise ValueError("n must be >= 0")
    out = []
    total = 0
    while total < n:
        k = shifted_gamma_decode(source)
        a = shifted_gamma_decode(source)
        if not _offset_in_range(k, a):
            raise FormatError(f"no rectangle R(k={k}, a={a}) at depth <= {MAX_DEPTH}")
        count = gamma_decode(source)
        total += count
        if total > n:
            raise FormatError("triple counts overshoot the declared total")
        out.append((k, a, count))
    return out


def points_from_triples(triples, gen) -> np.ndarray:
    """Fresh uniforms on each triple's x-interval, concatenated in triple order."""
    for k, a, _ in triples:
        _check_index(k, a)
    ks, offs, counts = np.array(triples, dtype=np.int64).reshape(-1, 3).T
    width = np.ldexp(1.0, -ks)
    lo = offs * (2.0 * width)
    # one draw of all the uniforms equals the per-triple draws in triple order
    out = gen.random(int(counts.sum()))
    out *= np.repeat(width, counts)
    out += np.repeat(lo, counts)
    # rounding may graze the open right endpoint; pull it back inside
    return np.minimum(out, np.repeat(np.nextafter(lo + width, lo), counts), out=out)


def simulate(f, n: int, rng: RandomSource) -> bytes:
    """Draw n i.i.d. points of f's hypograph and encode their rectangles."""
    if not (isinstance(f, MonotonePdf) and f.support == "unit"):
        raise ValueError(f"the unit scheme needs a density on [0, 1], got {f!r}")
    if n < 0:
        raise ValueError("n must be >= 0")
    sink = BitSink()
    xs, ys = _hypograph_draw(f, rng.child("points").gen, n)
    write_triples(collect_triples(*locate_batch(xs, ys, f), lambda: (f, rng.child("retry"))), sink)
    return write_container(SCHEME_UNIT, n, sink)


def desimulate(data: bytes, rng: RandomSource) -> np.ndarray:
    """Regenerate n i.i.d. samples from an encoded rectangle list."""
    header, source = read_container(data)
    if header.scheme != SCHEME_UNIT:
        raise FormatError(f"expected a unit-scheme container, got scheme {header.scheme:#x}")
    triples = decode_triples(source, header.n)
    if source.bits_remaining:
        raise FormatError(f"{source.bits_remaining} unread payload bits after the triples")
    out = points_from_triples(triples, rng.child("points").gen)
    rng.child("order").gen.shuffle(out)
    return out
