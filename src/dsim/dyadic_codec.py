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
as gamma(k + 1), gamma(a + 1), gamma(count).  For this scheme and the
half-line scheme, collect_triples is the one path from located points to
triples, as a (T, 3) array, and write_triples the one writer of that layout,
as bitcodes fields; each takes every half-line bin in one call, their
triples in bin order; collect_triples keeps only counts of the CHUNK points
each locator call places, so the unit encoder's memory does not grow with n.
No rectangle lies deeper than MAX_DEPTH, the only depth: the locator
searches the depths up to it in two kinds of step, a grid step of one depth
whose thresholds come from every bin's cell grid while many points are
unplaced, and otherwise a band of max(1, W // r) depths for the r left,
each point's cells read off q = floor(x * 2**MAX_DEPTH) by shifts;
collect_triples redraws the rare point that none catches, and the decoder
rejects deeper triples.

decode_triples reads the triples back in bulk, every half-line bin in one
call and a lone total as one bin, as one (T, 3) int64 array of (k, a, count)
rows: bitcodes.read_gammas hands it the payload's gamma values a window at a
time, and it checks each window's rows with a few array operations, raising
the exception class a codeword-at-a-time reader would meet first; it
accepts a bin's rows only in increasing (k, a) order.
points_from_triples expands that array with one draw.
"""

from __future__ import annotations

import copy

import numpy as np

from .bitcodes import (MAX_VALUE, SCHEME_UNIT, BitSource, FormatError, bit_length, gamma_length, read_container,
                       read_gammas, write_container)
from .distributions import MonotonePdf
from .rng import RandomSource

__all__ = [
    "CHUNK", "W", "MAX_DEPTH", "RETRY_BUDGET", "DepthExceededError", "rect_bounds", "rect_area",
    "locate_batch", "write_triples", "decode_triples", "points_from_triples", "simulate", "desimulate"
]

MAX_DEPTH = 62
RETRY_BUDGET = 100
# The points an encoder draws, locates and counts at a time; no container byte
# depends on it.  A chunk's temporaries must fit in the free space glibc keeps
# at the top of its heap, twice the largest buffer it mapped on its own and
# freed: 16 MB after a decode at n = 10**6.  They peak at 6.1 MiB at 2**16;
# at 2**18 (23.3 MiB) every chunk gave its pages back to the kernel and
# faulted them in again: a unit encode at n = 10**6 after such a decode took
# 5,481-8,483 minor faults, against 0-1 at 2**16.
CHUNK = 1 << 16
# A locator step that is not a grid step compares the r points still
# unplaced with the next max(1, W // r) depths' thresholds in one 2-D pass,
# at most W entries once r <= W / 2.  A step costs some 25-45 us of numpy
# calls whatever r is: a one-point call that W = 1 split into 62 bands of
# one depth took 1.5-2.9 ms more than one band.  The 15 ceiling-sweep
# encodes took a median 7.7 ms a pass at W = 2**11, against 8.8 ms with
# one-depth steps alone (160 passes each, alternated in one process; 2
# shared cores, CPython 3.11.7, numpy 2.4.6); 2**10 read the same, 2**12 2%
# more, and 2**13 gave back most of the gain, as the band then evaluates f
# at many depths that a point never reaches.
W = 1 << 11


class DepthExceededError(ValueError):
    """No rectangle with depth k <= MAX_DEPTH contains the point."""


def _bad_offsets(ks: np.ndarray, offs: np.ndarray) -> np.ndarray:
    """Indices of the (k, a) pairs of two int64 arrays that name no rectangle.

    R(k, a)'s x-interval holds a double exactly when a is one (as every int
    below 2**53 is): otherwise the next double above a * 2**(1-k) is at least
    (a + 1) * 2**(1-k).  For 0 <= k <= 62, a < max(2**(k-1), 1) exactly when
    (2a | a) >> k is 0: 2a wraps negative for a >= 2**62, and | a keeps the
    sign 2a loses at a = -2**63.  Up to depth 54 such an a holds a double.
    """
    # as unsigned, a negative depth is past 54 too
    if not ks.size or ks.view(np.uint64).max() <= 54 and not ((offs << 1 | offs) >> ks).any():
        return np.zeros(0, dtype=np.intp)
    ok = (ks >= 0) & (ks <= MAX_DEPTH)
    ok &= ((offs << 1 | offs) >> ks.clip(0, MAX_DEPTH)) == 0
    big = np.flatnonzero(ok & (offs >= 1 << 53))
    a = offs.take(big)  # below 2**61, so its double converts back exactly
    ok[big] = a.astype(float).astype(np.int64) == a
    return np.flatnonzero(~ok)


def _x_intervals(k, a) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(ks, x_lo, width) of each R(k, a), elementwise over int arrays k and a; x_lo is exact."""
    try:
        ks, offs = np.broadcast_arrays(np.asarray(k, dtype=np.int64), np.asarray(a, dtype=np.int64))
    except OverflowError:  # an int past int64 names no rectangle either
        raise ValueError(f"no rectangle R(k={k}, a={a}) at depth <= {MAX_DEPTH}") from None
    bad = _bad_offsets(ks.reshape(-1), offs.reshape(-1))
    if bad.size:
        raise ValueError(f"no rectangle R(k={ks.flat[bad[0]]}, a={offs.flat[bad[0]]}) at depth <= {MAX_DEPTH}")
    width = np.ldexp(1.0, -ks)
    return ks, offs * (2.0 * width), width


def rect_bounds(k, a, f):
    """Corners (x_lo, x_hi, y_lo, y_hi) of each rectangle R(k, a), elementwise over int arrays k and a."""
    ks, x_lo, width = _x_intervals(k, a)
    x_hi = x_lo + width  # as x_lo is exact, this and x_lo + 2 * width each round once
    return x_lo, x_hi, np.where(ks > 0, f.pdf(x_lo + 2 * width), 0.0)[()], f.pdf(x_hi)


def rect_area(k, a, f):
    x_lo, x_hi, y_lo, y_hi = rect_bounds(k, a, f)
    return (x_hi - x_lo) * np.maximum(y_hi - y_lo, 0.0)


def locate_batch(xs: np.ndarray, ys: np.ndarray, f, *, shift=0.0, which=0):
    """Rectangles R(k, a) holding hypograph points: (ks, offsets, unresolved_mask).

    Point i lies under f(x + shift[which[i]]) on [0, 1], and R(0, 0) spans y
    in [0, f(1 + shift[which[i]])).  The half-line scheme passes each bin's
    left end and each point's bin, so one call locates every bin; a unit-scheme
    call passes neither, and a lone shift applies to every point.  Points that
    no rectangle up to MAX_DEPTH catches are flagged in the mask rather than
    raising, so callers can resample just those; flagged before any depth are
    those that no rectangle holds: x outside [0, 1), not a number, or y below
    0.  Each step visits only the points still unplaced, each as its index
    and q = floor(x * 2**MAX_DEPTH), exact for x in [0, 1): at depth k <=
    MAX_DEPTH, q >> (MAX_DEPTH - k) is floor(x * 2**k), whose low bit is
    clear exactly when x lies in the left half of its depth-k cell, and
    a = q >> (MAX_DEPTH + 1 - k) is that cell's offset.

    The rectangles along the vertical line through a point are stacked, so
    each depth compares y with one threshold, f at the cell's middle.  The
    lower edge of R(k, a), f at the cell's right end (a + 1) * 2**(1-k), is
    f at the middle of the point's cell at the last earlier depth where it
    lay in a left half, or f(1) if there is none.  Both x values are an
    integer rounded to a double and scaled by a power of two, and rounding
    commutes with that scaling, so they are the same double even above
    2**53, and a point not placed there has y at or above it.

    A step is one of two kinds.  While the r points unplaced at depth k are
    more than W / 2 and outnumber twice the 2**(k-1) cells of all bins
    together, a grid step takes depth k alone: f is evaluated once on every
    bin's cell middles, and each left-half point reads its threshold with
    take.  Every other step is a band of the next max(1, min(W // r,
    MAX_DEPTH + 1 - k)) depths: one f.pdf call on a raveled (band, r) array
    of each point's cell middles, a row per depth, and a point's first
    left-half depth with y below its threshold places it, as steps of one
    depth would.  Both kinds compute a threshold by the same expression,
    (2a + 1) * 2**-k plus the point's shift, so they give the same doubles
    and every decision is the same.
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
    # the points still unplaced that some rectangle may hold, as their indices
    # and q, cast from floats without a copy; each step compacts both by
    # index, since a take through np.flatnonzero is several times faster than
    # a mask gather at its sizes
    inside ^= placed
    idx = np.flatnonzero(inside)
    del inside, placed
    q = np.ldexp(xs.take(idx), MAX_DEPTH, out=np.empty(idx.size, np.int64), casting="unsafe")
    k = 1
    while idx.size and k <= MAX_DEPTH:
        cells = 1 << (k - 1)
        if idx.size > max(W // 2, shift.size * 2 * cells):  # a grid step, depth k alone
            left = np.flatnonzero((q & (1 << (MAX_DEPTH - k))) == 0)
            a = q.take(left) >> (MAX_DEPTH + 1 - k)
            points = idx.take(left)
            x = (2 * np.arange(cells) + 1) * 2.0 ** -k
            if per_bin:  # a row per bin, indexed in int64 as which may be int32
                grid = f.pdf((shift[:, None] + x).ravel())
                hi = grid.take(which.take(points) * np.int64(cells) + a)
            else:
                hi = f.pdf(x).take(a)
            hit = np.flatnonzero(ys.take(points) < hi)
            del hi
            ks[points.take(hit)] = k
            offs[points.take(hit)] = a.take(hit)
            k += 1
        else:  # a band, a row per depth and a column per point
            depth = np.arange(k, k + max(1, min(W // idx.size, MAX_DEPTH + 1 - k)))[:, None]
            cell = MAX_DEPTH + 1 - depth  # a point's depth-d cell offset is q >> cell
            x = (2 * (q >> cell) + 1) * np.ldexp(1.0, -depth)
            if per_bin:
                x += shift.take(which.take(idx))
            hit = ys.take(idx) < f.pdf(x.ravel()).reshape(x.shape)
            del x
            hit &= (q & (1 << (cell - 1))) == 0
            # a point's first hit places it: the shallowest depth has the widest cell shift
            first = (hit * cell.astype(np.uint8)).max(axis=0)
            del hit
            rows = np.flatnonzero(first)
            ks[idx.take(rows)] = MAX_DEPTH + 1 - first.take(rows)
            offs[idx.take(rows)] = q.take(rows) >> first.take(rows)
            k += depth.size
        rest = np.flatnonzero(ks.take(idx) < 0)  # still unplaced
        idx = idx.take(rest)
        q = q.take(rest)
    return ks, offs, ks < 0


def _hypograph_draw(f, gen, heights, size: int):
    xs = f.cdf_inverse(gen.random(size))
    ys = heights.random(size) * f.pdf(xs)
    return xs, ys


def collect_triples(located, resample_from) -> np.ndarray:
    """(k, a, count) rows of located hypograph points, bin by bin in (k, a) order,
    as the (T, 3) int64 array decode_triples returns.

    located yields locate_batch's (ks, offs, bad) for runs of points, each with
    its non-decreasing bins if it took which.  Only counts are kept; after the
    last run fresh hypograph draws replace the points bad flags, which leaves
    the law unchanged: resample_from(j) gives (f, retry_rng) for bin j, once per
    bin with such a point, in bin order.  DepthExceededError is raised if some
    are still unplaced after RETRY_BUDGET rounds.
    """
    counted, unplaced = [], {}
    for ks, offs, bad, *which in located:
        which = which[0] if which else np.zeros(ks.size, dtype=np.int8)
        if bad.any():
            for j, u in zip(*(a.tolist() for a in np.unique(which[bad], return_counts=True))):
                unplaced[j] = unplaced.get(j, 0) + u
            ks, offs, which = ks[~bad], offs[~bad], which[~bad]
        counted.append(_count_rectangles(ks, offs, which))
        # merge once the newer counts outweigh the merged ones, so each is merged O(log n) times
        if sum(c[2].size for c in counted[1:]) >= counted[0][2].size:
            counted = [_merged(counted)]
    for j, u in unplaced.items():
        f, retry_rng = resample_from(j)
        for _ in range(RETRY_BUDGET):
            ks, offs, bad = locate_batch(*_hypograph_draw(f, retry_rng.gen, retry_rng.gen, u), f)
            u = int(np.count_nonzero(bad))
            counted.append(_count_rectangles(ks[~bad], offs[~bad], np.full(ks.size - u, j)))
            if not u:
                break
        else:
            raise DepthExceededError(f"depth budget still exhausted after {RETRY_BUDGET} resamples")
    _, nodes, counts = _merged(counted or [(np.zeros(0, dtype=np.int64),) * 3])
    ks = bit_length(nodes)
    return np.stack((ks, nodes - ((1 << ks) >> 1), counts), axis=1)


def _count_rectangles(ks: np.ndarray, offs: np.ndarray, which: np.ndarray):
    """(bins, nodes, counts) of the distinct (bin, rectangle) pairs, in bin then node order.

    R(k, a) is heap node 2**(k-1) + a (node 0 for k = 0).  Depth k fills the
    nodes [2**(k-1), 2**k), so node order is (k, a) order, and a node's bit
    length is its depth.  A key puts the bin, from the first in which, above
    the deepest node's bits, so one np.unique sorts every bin; only where a
    key would pass 63 bits are the bins cut into runs of 2**(63 - depth).
    """
    keys = (np.int64(1) << ks) >> 1
    keys += offs
    depth = int(ks.max(initial=0))
    first, end = (int(which[0]), int(which[-1]) + 1) if which.size else (0, 1)
    out = []
    for lo_bin in range(first, end, 1 << (63 - depth)):
        lo, hi = np.searchsorted(which, (lo_bin, min(lo_bin + (1 << (63 - depth)), end)))
        if end - first > 1:  # a lone bin needs no rank; << reuses the int64 temporary
            keys[lo:hi] += np.subtract(which[lo:hi], lo_bin, dtype=np.int64) << depth
        uniq, counts = np.unique(keys[lo:hi], return_counts=True)
        out.append(((uniq >> depth) + lo_bin, uniq & ((1 << depth) - 1), counts))
    return out[0] if len(out) == 1 else tuple(np.concatenate(col) for col in zip(*out))


def _merged(parts):
    """One (bins, nodes, counts) whose counts sum those of equal (bin, node) pairs in parts."""
    if len(parts) == 1:
        return parts[0]
    bins, nodes, counts = (np.concatenate(col) for col in zip(*parts))
    order = np.lexsort((nodes, bins))
    first = np.flatnonzero(np.diff(bins[order], prepend=-1) | np.diff(nodes[order], prepend=-1))
    return bins[order[first]], nodes[order[first]], np.add.reduceat(counts[order], first)


def write_triples(rows) -> np.ndarray:
    """The fields of each (k, a, count) row: gamma(k + 1), gamma(a + 1), gamma(count)."""
    values = np.asarray(rows, dtype=np.int64).reshape(-1, 3) + (1, 1, 0)
    return np.stack((values, gamma_length(values)), axis=-1).reshape(-1, 2)


def decode_triples(source: BitSource, n) -> np.ndarray:
    """(k, a, count) rows, an int64 array of shape (T, 3), read until their counts sum to n.

    n may instead be a 1-d int64 array of bin totals: each bin's rows in turn,
    their counts summing to its total; a lone n is one bin.  n, or the bins'
    sum, lies in [0, MAX_VALUE], as in a header, else ValueError.  A fault
    raises the class a codeword-at-a-time reader would meet first: a codeword's
    own (read_gammas), or FormatError for an R(k, a) deeper than MAX_DEPTH,
    with an offset its depth does not admit, or whose heap node is not above
    the one before it in its bin, read before the last bin ends, or for a
    count that passes its bin's total.  So a payload it accepts is the one
    write_triples writes of its rows.  Totals of 0 read no bit.
    """
    bins = np.reshape(n, -1)
    ends = bins.cumsum()  # where each bin's counts end; an int64 sum that wraps turns negative
    if min(bins.min(initial=0), ends.min(initial=0)) < 0 or ends.max(initial=0) > MAX_VALUE:
        raise ValueError("n must be in [0, 2**63 - 1]")
    total = int(ends[-1]) if ends.size else 0
    if not total:
        return np.zeros((0, 3), dtype=np.int64)
    rows, carry, done, last = [], np.zeros(0, dtype=np.int64), 0, -1

    def consume(values):
        nonlocal carry, done, last
        v = np.concatenate((carry, values)) if carry.size else values
        m = v.size // 3
        u = v - 1  # gamma values less 1 are k and a
        block = u[:3 * m].reshape(m, 3)
        block[:, 2] += 1
        # counts and what is left are below 2**63, so the running sums are
        # exact in uint64 up to the first that reaches left and may wrap only
        # past it: a scan, not a search, finds that row, the one that reaches
        # the total, or m
        left = total - done
        reach = block[:, 2].cumsum(dtype=np.uint64)
        stop = int(np.append(reach >= left, True).argmax())
        # each (k, a) up to it, and one whose count is in the next window
        p = min(stop + 1, (v.size + 1) // 3)
        bad = _bad_offsets(u[:3 * p:3], u[1:3 * p:3])
        if bad.size:
            k, a = u[3 * bad[0]:3 * bad[0] + 2].tolist()
            raise FormatError(f"no rectangle R(k={k}, a={a}) at depth <= {MAX_DEPTH}")
        # each bin that ends within reach ends on a row, compared in uint64
        reach = reach[:stop + 1]
        lo, hi = ends.searchsorted([done, min(done + int(reach[-1]), total) if m else done], "right")
        targets = (ends[lo:hi] - done).astype(np.uint64)
        at = reach.searchsorted(targets)
        if (reach.take(at) != targets).any():
            raise FormatError("triple counts overshoot the declared total")
        # a bin's heap nodes increase, the row after a bin's last starts afresh
        nodes = np.left_shift(1, u[:3 * p:3]) >> 1
        nodes += u[1:3 * p:3]
        up = np.concatenate((nodes[:1] > last, nodes[1:] > nodes[:-1]))
        up[at[at + 1 < p] + 1] = True
        if not up.all():
            raise FormatError("a bin's rectangles are out of (k, a) order")
        rows.append(block[:stop + 1])
        if stop < m:
            return 3 * (stop + 1) - carry.size
        carry = v[3 * m:]
        if m:
            done += int(reach[-1])
            last = -1 if at.size and at[-1] == m - 1 else int(nodes[m - 1])
        return None

    read_gammas(source, consume)
    return rows[0] if len(rows) == 1 else np.concatenate(rows)


def points_from_triples(triples, gen) -> np.ndarray:
    """Fresh uniforms on each (k, a, count) row's x-interval, concatenated in row order."""
    ks, offs, counts = np.asarray(triples, dtype=np.int64).reshape(-1, 3).T
    _, lo, width = _x_intervals(ks, offs)
    # one draw of all the uniforms equals the per-row draws in row order
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
    gen = rng.child("points").gen  # the x uniforms are its first n doubles, the heights its next n
    heights = gen if n <= CHUNK else np.random.Generator(copy.deepcopy(gen.bit_generator).advance(n))
    located = (locate_batch(*_hypograph_draw(f, gen, heights, min(CHUNK, n - lo)), f)
               for lo in range(0, n, CHUNK))
    return write_container(SCHEME_UNIT, n, write_triples(collect_triples(located, lambda _: (f, rng.child("retry")))))


def desimulate(data: bytes, rng: RandomSource) -> np.ndarray:
    """Regenerate n i.i.d. samples from an encoded rectangle list."""
    triples = read_container(data, SCHEME_UNIT, decode_triples)
    out = points_from_triples(triples, rng.child("points").gen)
    rng.child("order").gen.shuffle(out)
    return out
