"""Dyadic rectangle decomposition, locate, and the unit-interval scheme."""

import functools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dsim import dyadic_codec, halfline_codec
from dsim.bitcodes import (
    SCHEME_UNIT,
    FormatError,
    read_container,
    read_header,
    write_container,
)
from dsim.bounds_analysis import ks_two_sample, verify_trial
from dsim.distributions import MonotonePdf, exponential, pareto_flat, triangular
from dsim.dyadic_codec import (
    MAX_DEPTH,
    W,
    DepthExceededError,
    _bad_offsets,
    collect_triples,
    decode_triples,
    desimulate,
    locate_batch,
    points_from_triples,
    rect_area,
    rect_bounds,
    simulate,
    write_triples,
)
from dsim.halfline_codec import restrict_to_bin
from dsim.rng import RandomSource
import oracles
from oracles import from_bitstring, halfline_reference, locate, packed, unit_reference

TRI = triangular()
# A steep law puts about 3% of its hypograph points beyond depth MAX_DEPTH, so
# every stream of a few thousand draws goes through the resampling path.
STEEP_HALFLINE = exponential(2.0**58)
STEEP_UNIT = restrict_to_bin(STEEP_HALFLINE, 1)
# Rate 6 on [0, 1): the density stays above f(1) ~ 0.015, the height of R(0, 0).
TRUNCATED_EXP = restrict_to_bin(exponential(6.0), 1)


def depth_area_sum(f, k: int) -> float:
    """Total area of all rectangles at one depth, summed over chunks of 2**16
    offsets so that memory stays bounded at any depth."""
    cells = 1 if k == 0 else 2 ** (k - 1)
    return sum(float(rect_area(k, np.arange(lo, min(lo + 2**16, cells)), f).sum())
               for lo in range(0, cells, 2**16))


@st.composite
def offset_pairs(draw):
    """A (k, a) pair, weighted to the edges of the offset rule: a near 0, near
    the depth's cell count, near 2**52, 2**53, 2**61, 2**62 and +-2**63, or 2**64."""
    k = draw(st.integers(-2, 64) | st.sampled_from([2**63, -2**63 - 1]))
    top = 1 << min(max(k - 1, 0), 64)
    near = draw(st.sampled_from([-2**63, 0, top, 2**52, 2**53, 2**61, 2**62, 2**63])) + draw(st.integers(-3, 3))
    return k, draw(st.just(near) | st.integers(-2**63, 2**63 - 1) | st.just(2**64))


class TestRectangles:
    def test_bounds_triangular(self):
        assert rect_bounds(0, 0, TRI) == (0.0, 1.0, 0.0, 0.0)
        assert rect_bounds(1, 0, TRI) == (0.0, 0.5, 0.0, 1.0)
        assert rect_bounds(2, 0, TRI) == (0.0, 0.25, 1.0, 1.5)
        assert rect_bounds(2, 1, TRI) == (0.5, 0.75, 0.0, 0.5)

    def test_areas_triangular(self):
        assert rect_area(0, 0, TRI) == 0.0
        assert rect_area(1, 0, TRI) == pytest.approx(0.5)
        assert rect_area(2, 0, TRI) == pytest.approx(0.125)
        assert rect_area(2, 1, TRI) == pytest.approx(0.125)

    def test_x_intervals_tile_the_unit_interval(self):
        # at each depth the x-intervals are disjoint; across depths nested
        for k in range(1, 8):
            starts = [rect_bounds(k, a, TRI)[0] for a in range(2 ** (k - 1))]
            ends = [rect_bounds(k, a, TRI)[1] for a in range(2 ** (k - 1))]
            assert all(e - s == 2.0**-k for s, e in zip(starts, ends))
            assert all(starts[i + 1] == starts[i] + 2.0 ** (1 - k) for i in range(len(starts) - 1))

    def test_partition_sums_triangular(self):
        # the cascade halves the uncovered mass at every depth
        running = 0.0
        for K in range(1, 13):
            running += sum(rect_area(K, a, TRI) for a in range(2 ** (K - 1)))
            assert running == pytest.approx(1.0 - 2.0**-K, abs=1e-10)

    def test_partition_sums_other_density(self):
        f = restrict_to_bin(exponential(1.0), 1)
        total = sum(depth_area_sum(f, k) for k in range(25))
        assert total == pytest.approx(1.0, abs=1e-6)

    def test_index_domain(self):
        with pytest.raises(ValueError):
            rect_bounds(-1, 0, TRI)
        with pytest.raises(ValueError):
            rect_bounds(0, 1, TRI)
        with pytest.raises(ValueError):
            rect_bounds(3, 4, TRI)
        rect_bounds(3, 3, TRI)  # largest admissible offset at depth 3

    @given(pairs=st.lists(offset_pairs(), min_size=1, max_size=12),
           f=st.sampled_from([TRI, restrict_to_bin(exponential(1.0), 1), STEEP_UNIT]))
    @settings(max_examples=300, deadline=None)
    # a sum rounded twice reads f one double off at (54, 2**52); 2a is 0 in int64 at a = -2**63
    @example(pairs=[(54, 2**52), (0, -2**63)], f=TRI)
    def test_one_offset_rule(self, pairs, f):
        # the library's one rule against the oracle's scalar one, rect_bounds
        # on arrays against rect_bounds on each pair, and its corners against
        # f at the exact x values rounded once
        named = [oracles._offset_in_range(k, a) for k, a in pairs]
        in64 = [(k, a, ok) for (k, a), ok in zip(pairs, named) if -2**63 <= min(k, a) and max(k, a) < 2**63]
        if in64:
            ks, offs, ok = (np.array(col) for col in zip(*in64))
            assert _bad_offsets(ks, offs).tolist() == np.flatnonzero(~ok).tolist()
        for (k, a), ok in zip(pairs, named):
            if not ok:
                with pytest.raises(ValueError):
                    rect_bounds(k, a, f)
        if not all(named):
            with pytest.raises(ValueError):
                rect_bounds(*zip(*pairs), f)
        good = [pair for pair, ok in zip(pairs, named) if ok]
        if good:
            scalar = np.array([rect_bounds(k, a, f) for k, a in good])
            assert np.array(rect_bounds(*np.array(good).T, f)).T.tobytes() == scalar.tobytes()
            for (k, a), corners in zip(good, scalar.tolist()):
                x_lo, x_hi, x_next = (float(Fraction(m, 2**k)) for m in (2 * a, 2 * a + 1, 2 * a + 2))
                assert corners == [x_lo, x_hi, f.pdf(x_next) if k else 0.0, f.pdf(x_hi)]


def assert_batch_matches_scalar(xs, ys, f):
    """Check locate_batch against scalar locate point by point."""
    ks, offs, bad = locate_batch(xs, ys, f)
    for x, y, k, a, unresolved in zip(xs.tolist(), ys.tolist(), ks.tolist(), offs.tolist(), bad.tolist()):
        if unresolved:
            with pytest.raises(DepthExceededError):
                locate(x, y, f)
        else:
            assert locate(x, y, f) == (k, a)
    return ks, bad


@pytest.mark.locator
class TestLocate:
    def test_known_points(self):
        assert locate(0.3, 0.7, TRI) == (1, 0)
        assert locate(0.3, 1.2, TRI) == (3, 1)
        assert locate(0.6, 0.2, TRI) == (2, 1)

    def test_agrees_with_rect_membership(self):
        rng = RandomSource.from_seed(55)
        xs = TRI.cdf_inverse(rng.gen.random(300))
        ys = rng.gen.random(300) * TRI.pdf(xs)
        for x, y in zip(xs, ys):
            try:
                k, a = locate(float(x), float(y), TRI)
            except DepthExceededError:
                continue
            x_lo, x_hi, y_lo, y_hi = rect_bounds(k, a, TRI)
            assert x_lo <= x < x_hi and y_lo <= y < y_hi

    def test_batch_matches_scalar(self):
        rng = RandomSource.from_seed(56)
        xs = TRI.cdf_inverse(rng.gen.random(500))
        ys = rng.gen.random(500) * TRI.pdf(xs)
        assert_batch_matches_scalar(xs, ys, TRI)

    def test_point_validation(self):
        with pytest.raises(ValueError):
            locate(1.0, 0.1, TRI)
        with pytest.raises(ValueError):
            locate(-0.1, 0.1, TRI)
        with pytest.raises(ValueError):
            locate(0.5, 1.5, TRI)  # above the density
        with pytest.raises(ValueError):
            locate(0.5, -0.2, TRI)

    def test_batch_matches_scalar_deep(self):
        # the steep law's draws sit at depths ~57 to 62, and some lie past 62
        rng = RandomSource.from_seed(58)
        xs = STEEP_UNIT.cdf_inverse(rng.gen.random(600))
        ys = rng.gen.random(600) * STEEP_UNIT.pdf(xs)
        ks, bad = assert_batch_matches_scalar(xs, ys, STEEP_UNIT)
        assert ks[~bad].min() >= 30 and ks.max() == MAX_DEPTH and bad.any()

    def test_batch_matches_scalar_depth_zero(self):
        # f(1) is about 0.015, so some draws fall in R(0, 0) under the floor
        rng = RandomSource.from_seed(59)
        xs = TRUNCATED_EXP.cdf_inverse(rng.gen.random(3000))
        ys = rng.gen.random(3000) * TRUNCATED_EXP.pdf(xs)
        ks, bad = assert_batch_matches_scalar(xs, ys, TRUNCATED_EXP)
        assert (ks == 0).any() and not bad.any()

    @pytest.mark.parametrize("f", [TRI, TRUNCATED_EXP], ids=["triangular", "truncated-exp"])
    def test_batch_matches_scalar_at_edge_points(self, f):
        xs = np.repeat([0.0, 0.5, 1.0 - 2.0**-53, 2.0**-62], 4)
        tops = f.pdf(xs)
        ys = tops * np.tile([0.0, 0.25, 0.5, 1.0], 4)
        ys[3::4] = np.nextafter(tops[3::4], 0.0)
        assert_batch_matches_scalar(xs, ys, f)


def single_triple(k: int, a: int, count: int) -> np.ndarray:
    return write_triples([(k, a, count)])


def no_redraw(j):
    raise AssertionError(f"bin {j} has no flagged point")


def grouped(ks, offs):
    """collect_triples of points that all lie in a rectangle, as one run in bin 0, as lists."""
    return collect_triples([(ks, offs, np.zeros(ks.size, dtype=bool))], no_redraw).tolist()


class TestHeapNodes:
    EDGES = [(0, 0), (1, 0), (62, 0), (62, 2**61 - 2**8)]

    def test_node_to_rectangle_inverts(self):
        gen = RandomSource.from_seed(80).gen
        ks = gen.integers(1, MAX_DEPTH + 1, 2000)
        offs = gen.integers(0, np.left_shift(1, ks - 1))
        pairs = sorted(set(zip(ks.tolist(), offs.tolist())) | set(self.EDGES))
        ks, offs = (np.array(col[::-1], dtype=np.int64) for col in zip(*pairs))
        assert grouped(ks, offs) == [[k, a, 1] for k, a in pairs]

    def test_grouping_matches_lexicographic_unique(self):
        gen = RandomSource.from_seed(81).gen
        ks = np.concatenate([gen.integers(0, 6, 5000), gen.integers(0, MAX_DEPTH + 1, 500)])
        offs = gen.integers(0, np.left_shift(1, np.maximum(ks - 1, 0)))
        offs[ks == 0] = 0
        edges = np.array(self.EDGES * 3, dtype=np.int64)
        ks, offs = np.concatenate([ks, edges[:, 0]]), np.concatenate([offs, edges[:, 1]])
        uniq, counts = np.unique(np.stack([ks, offs], axis=1), axis=0, return_counts=True)
        expected = [[int(k), int(a), int(c)] for (k, a), c in zip(uniq, counts)]
        assert grouped(ks, offs) == expected
        # counted in runs of a few hundred points, the counts merge to the same triples
        bad = np.zeros(ks.size, dtype=bool)
        assert collect_triples([(ks[i:i + 700], offs[i:i + 700], bad[i:i + 700])
                                for i in range(0, ks.size, 700)], no_redraw).tolist() == expected

    @pytest.mark.parametrize("depth", [MAX_DEPTH, MAX_DEPTH - 1])
    def test_bins_cut_into_runs_match_a_call_per_bin(self, depth):
        # a node at depth 62 leaves one key bit for the bin, so seven bins
        # group in runs of two (of four at depth 61)
        gen = RandomSource.from_seed(82).gen
        sizes = [40, 1, 25, 60, 3, 17, 9]
        which = np.repeat(np.arange(len(sizes), dtype=np.int32), sizes)
        pool = np.array([(0, 0), (1, 0), (5, 11), (depth, 0), (depth, 12345), (depth, 2 ** (depth - 1) - 1)])
        ks, offs = pool[gen.integers(0, len(pool), which.size)].T
        bad = np.zeros(which.size, dtype=bool)
        expected = []
        for j in range(len(sizes)):
            sel = which == j
            expected += grouped(ks[sel], offs[sel])
        assert max(k for k, _, _ in expected) == depth
        assert collect_triples([(ks, offs, bad, which)], no_redraw).tolist() == expected
        # runs that cut bins 0, 3 and 5 apart, and an empty last run, count each bin once
        cuts = [0, 30, 70, 100, 140, 155]
        assert collect_triples([(ks[i:j], offs[i:j], bad[i:j], which[i:j])
                                for i, j in zip(cuts, cuts[1:] + [which.size])], no_redraw).tolist() == expected


class TestTripleCodec:
    def test_written_triples_sorted_lexicographically(self):
        rng = RandomSource.from_seed(57)
        xs = TRI.cdf_inverse(rng.gen.random(400))
        ys = rng.gen.random(400) * TRI.pdf(xs)
        src = packed(write_triples(collect_triples([locate_batch(xs, ys, TRI)], lambda _: (TRI, rng.child("retry")))))
        triples = decode_triples(src, 400).tolist()
        assert src.bits_remaining == 0
        assert sum(c for _, _, c in triples) == 400
        assert triples == sorted(triples)
        assert len(set((k, a) for k, a, _ in triples)) == len(triples)

    def test_single_triple_decodes_to_interval(self):
        triples = decode_triples(packed(single_triple(1, 0, 3)), 3)
        assert triples.tolist() == [[1, 0, 3]]
        pts = points_from_triples(triples, RandomSource.from_seed(1).gen)
        assert pts.size == 3
        assert np.all((pts >= 0.0) & (pts < 0.5))

    def test_points_stay_in_their_interval(self):
        gen = RandomSource.from_seed(2).gen
        # at (53, 2**52 - 1) the right end is 1 - 2**-53, where rounding lands without the clamp
        for k, a in [(0, 0), (1, 0), (4, 7), (10, 511), (20, 1), (53, 2**52 - 1)]:
            pts = points_from_triples([(k, a, 1000)], gen)
            lo = a * 2.0 ** (1 - k)
            hi = (2 * a + 1) * 2.0**-k
            assert np.all((pts >= lo) & (pts < hi))

    def test_decode_overshoot(self):
        with pytest.raises(FormatError):
            decode_triples(packed(single_triple(1, 0, 5)), 3)

    def test_decode_offset_out_of_range(self):
        with pytest.raises(FormatError):  # depth 2 admits offsets 0 and 1 only
            decode_triples(packed(single_triple(2, 2, 1)), 1)

    def test_decode_depth_limit(self):
        for k, ok in [(62, True), (63, False)]:
            src = packed(single_triple(k, 0, 1))
            if ok:
                assert decode_triples(src, 1).tolist() == [[k, 0, 1]]
            else:
                with pytest.raises(FormatError):
                    decode_triples(src, 1)

    @pytest.mark.parametrize("k, a", [(62, 2**61 - 1), (55, 2**54 - 1)])
    def test_offset_holding_no_double_rejected(self, k, a):
        # float(a) rounds up to 2**(k-1), so a decoder would emit 1.0
        data = write_container(SCHEME_UNIT, 3, single_triple(k, a, 3))
        with pytest.raises(FormatError):
            desimulate(data, RandomSource.from_seed(1))
        with pytest.raises(ValueError):
            points_from_triples([(k, a, 3)], RandomSource.from_seed(1).gen)

    @pytest.mark.parametrize("k, a", [(62, 2**61 - 2**8), (55, 2**54 - 2)])
    def test_deepest_offsets_holding_a_double_decode(self, k, a):
        data = write_container(SCHEME_UNIT, 3, single_triple(k, a, 3))
        pts = desimulate(data, RandomSource.from_seed(1))
        # exact rational bounds: (2a + 1) * 2**-k need not be a double
        assert all(Fraction(a, 2 ** (k - 1)) <= Fraction(p) < Fraction(2 * a + 1, 2**k) for p in pts.tolist())

    def test_decode_of_zero_points_reads_no_bit(self):
        src = from_bitstring("1")
        assert decode_triples(src, 0).tolist() == []
        assert src.bits_remaining == 1
        with pytest.raises(ValueError):
            decode_triples(src, -1)


class TestScheme:
    def test_round_trip_shape(self):
        data = simulate(TRI, 1234, RandomSource.from_seed(8))
        header = read_header(data)
        assert header.scheme == SCHEME_UNIT
        assert header.n == 1234
        out = desimulate(data, RandomSource.from_seed(9))
        assert out.size == 1234
        assert np.all((out >= 0.0) & (out < 1.0))

    def test_deterministic(self):
        a = simulate(TRI, 500, RandomSource.from_seed(3))
        b = simulate(TRI, 500, RandomSource.from_seed(3))
        assert a == b
        x = desimulate(a, RandomSource.from_seed(4))
        y = desimulate(b, RandomSource.from_seed(4))
        assert np.array_equal(x, y)

    def test_empty(self):
        data = simulate(TRI, 0, RandomSource.from_seed(1))
        assert desimulate(data, RandomSource.from_seed(2)).size == 0

    def test_density_formula_positive_past_one(self):
        # the law has no mass past 1, so R(0, 0) reaches down to 0 whatever
        # the formula gives at 2; a flat one has f(2) = f(1)
        flat = MonotonePdf("flat", "unit", lambda x: np.ones_like(x), lambda x: np.clip(x, 0.0, 1.0),
                           lambda u: u, f0=1.0)
        assert rect_bounds(0, 0, flat) == (0.0, 1.0, 0.0, 1.0)
        data = simulate(flat, 1000, RandomSource.from_seed(1))
        assert read_container(data, SCHEME_UNIT, decode_triples).tolist() == [[0, 0, 1000]]
        out = desimulate(data, RandomSource.from_seed(2))
        assert out.size == 1000 and np.all((out >= 0.0) & (out < 1.0))

    def test_rejects_halfline_density(self):
        with pytest.raises(ValueError):
            simulate(exponential(1.0), 10, RandomSource.from_seed(1))

    def test_rejects_wrong_scheme_container(self):
        from dsim.bitcodes import SCHEME_INTEGER

        data = write_container(SCHEME_INTEGER, 0, [])
        with pytest.raises(FormatError):
            desimulate(data, RandomSource.from_seed(1))

    def test_rejects_trailing_payload_bits(self):
        data = write_container(SCHEME_UNIT, 2, np.concatenate((single_triple(1, 0, 2), [(1, 1)])))
        with pytest.raises(FormatError):
            desimulate(data, RandomSource.from_seed(1))

    def test_rejects_depth_no_encoder_writes(self):
        # 2**-5000 underflows, so without a depth limit this decodes to zeros
        data = write_container(SCHEME_UNIT, 3, single_triple(5000, 0, 3))
        assert len(data) == 26
        with pytest.raises(FormatError):
            desimulate(data, RandomSource.from_seed(1))

    @given(st.integers(1, 400), st.integers(0, 2**32))
    @settings(max_examples=30, deadline=None)
    def test_count_always_preserved(self, n, seed):
        data = simulate(TRI, n, RandomSource.from_seed(seed))
        out = desimulate(data, RandomSource.from_seed(seed + 1))
        assert out.size == n


class TestResampling:
    def test_encoder_draws_reach_past_the_depth_limit(self):
        gen = RandomSource.from_seed(70).child("points").gen
        xs = STEEP_UNIT.cdf_inverse(gen.random(5000))
        ys = gen.random(5000) * STEEP_UNIT.pdf(xs)
        assert locate_batch(xs, ys, STEEP_UNIT)[2].any()

    def test_collect_triples_resamples_within_the_limit(self):
        rng = RandomSource.from_seed(71)
        xs = STEEP_UNIT.cdf_inverse(rng.gen.random(5000))
        ys = rng.gen.random(5000) * STEEP_UNIT.pdf(xs)
        triples = collect_triples([locate_batch(xs, ys, STEEP_UNIT)], lambda _: (STEEP_UNIT, rng.child("retry")))
        assert sum(c for _, _, c in triples) == 5000
        assert max(k for k, _, _ in triples) <= MAX_DEPTH

    def test_stream_without_unresolved_points_derives_no_retry_source(self, monkeypatch):
        labels = []
        child = RandomSource.child

        def recording(self, *path):
            labels.extend(path)
            return child(self, *path)

        monkeypatch.setattr(RandomSource, "child", recording)
        # a triangular point lies past MAX_DEPTH with probability about 2**-62
        simulate(TRI, 1000, RandomSource.from_seed(75))
        assert "retry" not in labels and "points" in labels

    @pytest.mark.parametrize("codec, f", [(dyadic_codec, STEEP_UNIT), (halfline_codec, STEEP_HALFLINE)],
                             ids=["unit", "halfline"])
    def test_round_trip_law(self, codec, f):
        n = 5000
        data = codec.simulate(f, n, RandomSource.from_seed(72))
        assert data == codec.simulate(f, n, RandomSource.from_seed(72))
        out = codec.desimulate(data, RandomSource.from_seed(73))
        assert np.array_equal(out, codec.desimulate(data, RandomSource.from_seed(73)))
        assert out.size == n
        assert np.all((out >= 0.0) & (out < 1.0))
        # the unit law is the exponential's bin 1, which holds all but e**-(2**58) of its mass
        stat, ok = ks_two_sample(out, STEEP_HALFLINE.sample(RandomSource.from_seed(74), n))
        assert ok, f"KS={stat:.4f}"


CHUNK_CASES = [(codec, f, reference, n)
               for codec, f, reference in [(dyadic_codec, TRI, unit_reference),
                                           (halfline_codec, pareto_flat(2.0, 2.0), halfline_reference)]
               for n in (0, 1, *(m * dyadic_codec.CHUNK + d for m in (1, 4) for d in (-1, 0, 1)),
                         8 * dyadic_codec.CHUNK + 5)]


class TestChunks:
    @pytest.mark.parametrize("codec, f, reference, n", CHUNK_CASES,
                             ids=[f"{c[0].__name__.split('.')[-1]}-{c[3]}" for c in CHUNK_CASES])
    def test_containers_match_the_one_shot_reference(self, codec, f, reference, n):
        rng = RandomSource.from_seed(n % 1000)
        assert codec.simulate(f, n, rng) == reference(f, n, rng)

    @pytest.mark.parametrize("codec, f, reference", [(dyadic_codec, STEEP_UNIT, unit_reference),
                                                     (halfline_codec, STEEP_HALFLINE, halfline_reference)],
                             ids=["unit", "halfline"])
    @pytest.mark.parametrize("n", [3000, 5000])
    def test_redraws_after_small_chunks_match_the_one_shot_reference(self, monkeypatch, codec, f, reference, n):
        # chunks of 2**10 points leave unresolved points in several of them,
        # which are all redrawn after the last
        unresolved = []
        original = dyadic_codec.locate_batch

        def recording(xs, *args, **kwargs):
            out = original(xs, *args, **kwargs)
            unresolved.append((np.size(xs), int(out[2].sum())))
            return out

        monkeypatch.setattr(dyadic_codec, "CHUNK", 2**10)
        monkeypatch.setattr(dyadic_codec, "locate_batch", recording)
        for seed in (0, 1):
            rng = RandomSource.from_seed(seed)
            del unresolved[:]
            data = codec.simulate(f, n, rng)
            chunks = unresolved[:-(-n // 2**10)]
            assert [size for size, _ in chunks] == [2**10] * (n // 2**10) + [n % 2**10]
            assert sum(bad > 0 for _, bad in chunks) > 1
            assert data == reference(f, n, rng)

    def test_unit_stream_of_a_million_derives_only_its_points_source(self, monkeypatch):
        labels = []
        child = RandomSource.child
        monkeypatch.setattr(RandomSource, "child", lambda self, *path: labels.append(path) or child(self, *path))
        simulate(TRI, 10**6, RandomSource.from_seed(75))
        assert labels == [("points",)]


# Step edges lie on multiples of 1/GRID: some dyadic (1/4, 1/2, the half-line
# bin edges 1, 2, 3), some not (1/12, 1/3).
GRID = 12


def step_law(support: str, cuts, heights, length: int = GRID) -> MonotonePdf:
    """Density proportional to heights[j] between the j-th and (j+1)-th of the
    edges 0 < cuts < length, in units of 1/GRID, and 0 from length/GRID on.
    heights must be non-increasing; equal neighbours make a flat stretch."""
    edges = np.array([0, *cuts, length], dtype=float) / GRID
    end = edges[-1]
    h = np.asarray(heights, dtype=float)
    h /= h @ np.diff(edges)
    cum = np.concatenate(([0.0], np.cumsum(h * np.diff(edges))))

    def piece(x):
        return np.clip(np.searchsorted(edges, x, side="right") - 1, 0, h.size - 1)

    def pdf(x):
        return np.where((x >= 0.0) & (x < end), h[piece(x)], 0.0)

    def cdf(x):
        xc = np.clip(x, 0.0, end)
        j = piece(xc)
        return np.minimum(cum[j] + h[j] * (xc - edges[j]), 1.0)

    def cdf_inverse(u):
        j = np.clip(np.searchsorted(cum, u, side="right") - 1, 0, h.size - 1)
        return np.minimum(edges[j] + (u - cum[j]) / h[j], np.nextafter(end, 0.0))

    return MonotonePdf(f"step{list(cuts)}/{length}{list(heights)}", support, pdf, cdf, cdf_inverse,
                       f0=h[0], params={"jumps": edges[1:], "end": end})


@st.composite
def step_laws(draw, support: str) -> MonotonePdf:
    # a half-line law ends on a multiple of 1/4, at most 4
    length = GRID if support == "unit" else 3 * draw(st.integers(1, 16))
    cuts = sorted(draw(st.sets(st.integers(1, length - 1), max_size=5)))
    heights = draw(st.lists(st.integers(1, 4), min_size=len(cuts) + 1, max_size=len(cuts) + 1))
    return step_law(support, cuts, sorted(heights, reverse=True), length)


def unit_pieces(f: MonotonePdf):
    """(unit law, its jump points in (0, 1]): f itself, or each occupied bin's restriction."""
    jumps = f.params["jumps"]
    if f.support == "unit":
        return [(f, jumps)]
    return [(restrict_to_bin(f, i), jumps[(jumps > i - 1) & (jumps <= i)] - (i - 1))
            for i in range(1, math.ceil(f.params["end"]) + 1)]


def step_depth_area(f, k: int, jumps) -> float:
    """depth_area_sum(f, k) for a step density whose jumps lie in jumps.
    R(k, a) has positive height only when its cell's right half holds a jump,
    so only those offsets (and, against rounding, their neighbours) are summed."""
    if k == 0:
        return rect_area(0, 0, f)
    top = 2 ** (k - 1) - 1
    offs = {min(max(math.ceil(p * 2.0 ** (k - 1)) - 1 + d, 0), top) for p in jumps for d in (-1, 0, 1)}
    return sum(rect_area(k, a, f) for a in offs)


STEP_CASES = [
    step_law("unit", [1, 4, 6], [4, 3, 3, 1]),  # non-dyadic 1/12, 1/3; dyadic 1/2
    step_law("halfline", [5, 12, 18], [4, 2, 2, 1], 27),  # jump at the bin edge 1
    step_law("halfline", [4, 13, 36], [3, 2, 1, 1], 48),  # non-dyadic jumps on [0, 4]
]
ANY_STEP_LAW = st.one_of(step_laws("unit"), step_laws("halfline"))


@pytest.mark.locator
class TestStepLaws:
    """Arbitrary non-increasing step densities, not only the built-in laws."""

    @given(f=ANY_STEP_LAW, seed=st.integers(0, 2**32))
    @settings(max_examples=30, deadline=None)
    @example(f=STEP_CASES[1], seed=1)
    def test_locator_and_partition(self, f, seed):
        gen = RandomSource.from_seed(seed).gen
        for g, jumps in unit_pieces(f):
            xs = g.cdf_inverse(gen.random(100))
            ys = gen.random(100) * g.pdf(xs)
            assert_batch_matches_scalar(xs, ys, g)
            # points on each jump and just left of it, at the bottom, middle and top
            at = np.concatenate([jumps, np.nextafter(jumps, 0.0)])
            at = np.repeat(at[(at < 1.0) & (g.pdf(at) > 0.0)], 3)
            ys = g.pdf(at) * np.tile([0.0, 0.5, np.nextafter(1.0, 0.0)], at.size // 3)
            assert_batch_matches_scalar(at, ys, g)
            for k in range(11):
                assert step_depth_area(g, k, jumps) == pytest.approx(depth_area_sum(g, k), rel=1e-12, abs=1e-15)
            assert sum(step_depth_area(g, k, jumps) for k in range(25)) == pytest.approx(1.0, abs=1e-6)

    @given(f=ANY_STEP_LAW, n=st.integers(1, 400), seed=st.integers(0, 2**32))
    @settings(max_examples=30, deadline=None)
    @example(f=STEP_CASES[1], n=300, seed=1)
    def test_round_trip(self, f, n, seed):
        codec = dyadic_codec if f.support == "unit" else halfline_codec
        blob = codec.simulate(f, n, RandomSource.from_seed(seed))
        assert blob == codec.simulate(f, n, RandomSource.from_seed(seed))
        out = codec.desimulate(blob, RandomSource.from_seed(seed + 1))
        assert np.array_equal(out, codec.desimulate(blob, RandomSource.from_seed(seed + 1)))
        assert out.size == n and np.all((out >= 0.0) & (out < f.params["end"]))

    @pytest.mark.parametrize("f", STEP_CASES, ids=lambda f: f.name)
    def test_decoded_law(self, f):
        root = RandomSource.from_seed(2027)
        passed = sum(verify_trial(f, 2000, root.child(t))[2] for t in range(20))
        assert passed >= 18, f"only {passed}/20 seeds passed"


def unguarded_exponential(rate: float) -> MonotonePdf:
    """exponential(rate) truncated to [0, 1), its density written as one
    formula on every x, so that it is positive left of 0 and right of 1."""
    norm = -math.expm1(-rate)
    return MonotonePdf(f"exp({rate}) on [0, 1), unguarded", "unit",
                       lambda x: rate * np.exp(-rate * x) / norm,
                       lambda x: -np.expm1(-rate * np.clip(x, 0.0, 1.0)) / norm,
                       lambda u: -np.log1p(-u * norm) / rate, f0=rate / norm)


# Laws for the threshold grid: exact arithmetic, densities that are positive
# off [0, 1], a steep one among them (rate 1024 puts its draws below depth 8),
# and a tail bin's restriction.
GRID_LAWS = [TRI, unguarded_exponential(1024.0), unguarded_exponential(6.0),
             restrict_to_bin(exponential(1.0), 3)]
# points on a cell edge, and points with x = 1 or outside [0, 1], which lie in
# no rectangle and are flagged before the first depth
GRID_EDGES = np.array([0.0, 0.5, 1.0 - 2.0**-53, 1.0, -2.0**-60, -0.3, 1.0 + 2.0**-52, 1.7, 3.0])


def replayed_bands(xs, ys, ks, bad, shift=None, which=None) -> list[tuple[np.ndarray, np.ndarray]]:
    """The depths and f.pdf input of each band a locate_batch call ran,
    replayed from its output (ks, bad).  A point is still unplaced at depth k
    if the call placed it at k or deeper, or flagged it although it lies in
    [0, 1) x [0, inf).  While the r unplaced are more than W / 2 and than
    2**k per bin, twice the cells of the depth-k grid, a grid step takes
    depth k alone; every other step is a band of the next max(1, W // r)
    depths, or those up to MAX_DEPTH: a row per depth of each point's cell
    middle, shifted into its bin."""
    inside = (xs >= 0.0) & (xs < 1.0) & (ys >= 0.0)
    last = np.where(bad, np.where(inside, MAX_DEPTH + 1, -1), ks)
    bins = 1 if shift is None else shift.size
    bands, k = [], 1
    while k <= MAX_DEPTH and (idx := np.flatnonzero(last >= k)).size:
        if idx.size > max(W // 2, bins << k):
            k += 1
            continue
        depths = np.arange(k, min(k + max(1, W // idx.size), MAX_DEPTH + 1))
        # floor(x * 2**(d - 1)) is the offset a, so 2a + 1 rounds as an int64 would
        x = np.ldexp(2.0 * np.floor(np.ldexp(xs[idx], depths[:, None] - 1)) + 1.0, -depths[:, None])
        bands.append((depths, (x if shift is None else x + shift[which[idx]]).ravel()))
        k = int(depths[-1]) + 1
    return bands


def assert_ran(bands, calls):
    """Each replayed band is an f.pdf call, in the order they ran."""
    at = 0
    for _, band in bands:
        ran = [i for i in range(at, len(calls)) if np.array_equal(calls[i], band)]
        assert ran, f"no f.pdf call after the {at}th is the band of {band.size} values"
        at = ran[0] + 1


def assert_batch_matches_one_point_calls(f, gen, edges: int, size: int = 500) -> tuple[set[int], int]:
    """Locate size points of f's hypograph, and edges copies of GRID_EDGES,
    once together and once a point at a time, and compare.  Returns the
    depths that read their thresholds from a grid, and the number of bands,
    each checked to be an f.pdf call of the batch."""
    xs = f.cdf_inverse(gen.random(size))
    # heights within 2**-9 to 2**-12 of the density sit at depth 9 or more
    # where f is smooth, so depths 1 to 7 keep more left-half points than
    # their grid has entries.  An eighth of the heights are uniform, and an
    # eighth equal f at the right end of the point's cell at a depth up to
    # 7, a threshold that any rounding of the grid would move.
    ys = f.pdf(xs) * (1.0 - gen.random(xs.size) * np.ldexp(1.0, -gen.integers(9, 13, xs.size)))
    ys[::8] *= gen.random(ys[::8].size)
    k = gen.integers(1, 8, ys[1::8].size)
    ys[1::8] = f.pdf(np.ldexp(np.floor(np.ldexp(xs[1::8], k)) + 2.0, -k))
    # the edge points get uniform heights under f, or under f0 where f is 0,
    # scaled by up to 2**-3 so that some pass depth 0 at x = 3
    edge_xs = np.repeat(GRID_EDGES, edges)
    edge_ys = gen.random(edge_xs.size) * np.where(f.pdf(edge_xs) > 0.0, f.pdf(edge_xs), f.f0)
    edge_ys = np.ldexp(edge_ys, -gen.integers(0, 4, edge_ys.size))
    xs = np.concatenate([xs, edge_xs])
    ys = np.concatenate([ys, edge_ys])
    calls = []
    counted = MonotonePdf(f.name, "unit", lambda x: calls.append(np.copy(x)) or f.pdf(x),
                          f.cdf, f.cdf_inverse, f0=f.f0)
    batch = locate_batch(xs, ys, counted)
    for i in range(xs.size):
        one = locate_batch(xs[i:i + 1], ys[i:i + 1], f)
        assert tuple(int(v[i]) for v in batch) == tuple(int(v[0]) for v in one), (xs[i], ys[i])
    bands = replayed_bands(xs, ys, batch[0], batch[2])
    assert_ran(bands, calls)
    # the depth-k grid is the middles (2j + 1) * 2**-k of the 2**(k-1) cells;
    # its size alone would not tell it from a direct call on as many points
    grids = set()
    for x in calls:
        k = np.size(x).bit_length()
        if k and np.array_equal(x, (2 * np.arange(2 ** (k - 1)) + 1) * 2.0**-k):
            grids.add(k)
    return grids, len(bands)


@pytest.mark.locator
class TestThresholdGrid:
    """A batch reads the thresholds of its shallow depths from a grid of f.pdf
    values, and its last few points' from a band of depths; a one-point batch
    evaluates f.pdf at the middles of its own cells, one band from depth 1."""

    @pytest.mark.parametrize("f", GRID_LAWS, ids=lambda f: f.name)
    @given(seed=st.integers(0, 2**32), edges=st.integers(1, 4))
    @settings(max_examples=3, deadline=None)
    def test_batch_matches_one_point_calls(self, f, seed, edges):
        # 2000 draws keep more than W / 2 = 1024 points unplaced through
        # depth 7, so depths 1 to 7 go one at a time, and read the grid
        tabulated, bands = assert_batch_matches_one_point_calls(f, RandomSource.from_seed(seed).gen, edges, 2000)
        assert set(range(1, 8)) <= tabulated and bands

    @given(f=ANY_STEP_LAW, seed=st.integers(0, 2**32), edges=st.integers(1, 4))
    @settings(max_examples=3, deadline=None)
    @example(f=STEP_CASES[0], seed=1, edges=1)
    @example(f=STEP_CASES[2], seed=1, edges=1)
    def test_step_laws(self, f, seed, edges):
        # flat stretches place points near the surface early, so only the
        # first few depths take the grid, and fewer points serve them
        gen = RandomSource.from_seed(seed).gen
        for g, _ in unit_pieces(f):
            assert_batch_matches_one_point_calls(g, gen, edges, size=200)


def shifted_to_unit(f, s: float) -> MonotonePdf:
    """f(x + s) on [0, 1] and 0 elsewhere, unnormalised, as a unit handle."""
    return MonotonePdf(f"{f.name} from {s:g}", "unit",
                       lambda x: np.where((x >= 0.0) & (x <= 1.0), f.pdf(x + s), 0.0),
                       f.cdf, f.cdf_inverse, f0=f.pdf(s))


def assert_bins_match_their_own_calls(f, gen, size: int) -> tuple[set[int], int]:
    """Locate size draws of half-line law f, each against f shifted into its
    bin, in one call and again per bin and per point, and compare.  Returns
    the depths whose thresholds the one call read from a grid, and the number
    of its bands, each checked to be an f.pdf call."""
    values = f.cdf_inverse(gen.random(size))
    shift, which = np.unique(np.floor(values), return_inverse=True)
    which = which.astype(np.int32)  # as the half-line encoder passes it
    xs = values - shift[which]
    # heights near the surface, an eighth uniform and an eighth at f at the
    # right end of the point's cell at a depth up to 7, as in the grid test
    ys = f.pdf(values) * (1.0 - gen.random(size) * np.ldexp(1.0, -gen.integers(9, 13, size)))
    ys[::8] *= gen.random(ys[::8].size)
    k = gen.integers(1, 8, ys[1::8].size)
    ys[1::8] = f.pdf(np.ldexp(np.floor(np.ldexp(xs[1::8], k)) + 2.0, -k) + shift[which[1::8]])
    # and every bin's copies of the edge points, flagged or on a cell edge
    edge_which = np.repeat(np.arange(shift.size, dtype=np.int32), GRID_EDGES.size)
    edge_xs = np.tile(GRID_EDGES, shift.size)
    edge_ys = gen.random(edge_xs.size) * f.pdf(np.clip(edge_xs, 0.0, 1.0) + shift[edge_which])
    xs = np.concatenate([xs, edge_xs])
    ys = np.concatenate([ys, edge_ys])
    which = np.concatenate([which, edge_which])
    calls = []
    counted = MonotonePdf(f.name, "halfline", lambda x: calls.append(np.copy(x)) or f.pdf(x),
                          f.cdf, f.cdf_inverse, f0=f.f0)
    batch = locate_batch(xs, ys, counted, shift=shift, which=which)
    for j, s in enumerate(shift.tolist()):
        sel = np.flatnonzero(which == j)
        for alone in (locate_batch(xs[sel], ys[sel], shifted_to_unit(f, s)),
                      locate_batch(xs[sel], ys[sel], f, shift=s)):
            assert all(np.array_equal(v[sel], w) for v, w in zip(batch, alone)), (f.name, s)
    for i in range(xs.size):
        one = locate_batch(xs[i:i + 1], ys[i:i + 1], f, shift=shift, which=which[i:i + 1])
        assert tuple(int(v[i]) for v in batch) == tuple(int(v[0]) for v in one), (xs[i], ys[i], shift[which[i]])
    bands = replayed_bands(xs, ys, batch[0], batch[2], shift, which)
    assert_ran(bands, calls)
    # the depth-k grid is every bin's 2**(k-1) cell middles, bin after bin
    grids = set()
    for x in calls:
        k = (np.size(x) // shift.size).bit_length()
        if k and np.array_equal(x, (shift[:, None] + (2 * np.arange(2 ** (k - 1)) + 1) * 2.0**-k).ravel()):
            grids.add(k)
    return grids, len(bands)


@pytest.mark.locator
class TestBinShifts:
    """One call locates points under different bins' shifts of f: the same
    decisions as a call per bin against a unit handle and a call per point,
    with the shallow depths read from one grid over every bin and the last
    few points' from a band of depths."""

    # each size keeps more than W / 2 = 1024 points unplaced through the
    # deepest asserted depth, so those go one at a time (about 40%, 80% and
    # 20% of the draws get that far)
    @pytest.mark.parametrize("f, size, depths", [
        (pareto_flat(2.0, 2.0), 4000, 3),
        (exponential(1.0), 2000, 4),
        (STEP_CASES[2], 6000, 3),
    ], ids=lambda v: getattr(v, "name", None))
    @given(seed=st.integers(0, 2**32))
    @settings(max_examples=3, deadline=None)
    def test_one_call_matches_per_bin_and_one_point_calls(self, f, size, depths, seed):
        tabulated, bands = assert_bins_match_their_own_calls(f, RandomSource.from_seed(seed).gen, size)
        assert set(range(1, depths + 1)) <= tabulated and bands, sorted(tabulated)


# Laws for the stacked thresholds: the second puts its draws in a tail bin, and
# the third is positive only below x ~ 2**-10.5, where depths pass 53.
STACK_LAWS = [TRI, restrict_to_bin(exponential(1.0), 3), restrict_to_bin(exponential(2.0**20), 1)]
# any x in [0, 1); one in [0.5, 1), which lies in a left half at every depth
# past 53; or a tiny one, whose cell offsets pass 2**53 there
UNIT_XS = st.one_of(st.floats(0.0, 1.0, exclude_max=True), st.floats(0.5, 1.0, exclude_max=True),
                    st.builds(math.ldexp, st.floats(0.5, 1.0, exclude_max=True), st.integers(-60, -2)))


def left_depths(x: float) -> list[int]:
    """The depths k <= MAX_DEPTH at which x lies in the left half of its cell."""
    return [k for k in range(1, MAX_DEPTH + 1) if int(math.ldexp(x, k)) % 2 == 0]


def edge_heights(f, x: float, k: int) -> list[tuple[float, float]]:
    """Points (x, y) on the edges of x's rectangle at a depth k where x lies in
    a left half: y is f at the cell's right end or at its middle, or one double
    below either, kept if it lies in [0, f(x))."""
    a = int(math.ldexp(x, k)) >> 1
    top = float(f.pdf(x))
    points = []
    for edge in ((a + 1) * 2.0 ** (1 - k), (2 * a + 1) * 2.0**-k):
        y = float(f.pdf(edge))
        points += [(x, h) for h in (y, math.nextafter(y, -math.inf)) if 0.0 <= h < top]
    return points


def assert_oracle_batched_and_alone(f, points):
    xs, ys = np.array(points, dtype=float).reshape(-1, 2).T
    assert_batch_matches_scalar(xs, ys, f)
    for i in range(xs.size):
        assert_batch_matches_scalar(xs[i:i + 1], ys[i:i + 1], f)


@st.composite
def stacked_cases(draw):
    """A law on [0, 1) and up to 24 points on edges of their rectangles."""
    f = draw(st.one_of(st.sampled_from(STACK_LAWS),
                       ANY_STEP_LAW.flatmap(lambda law: st.sampled_from([g for g, _ in unit_pieces(law)]))))
    points = []
    for x in draw(st.lists(UNIT_XS, min_size=1, max_size=6)):
        points += edge_heights(f, x, draw(st.sampled_from(left_depths(x))))
    return f, points


@pytest.mark.locator
class TestStackedThresholds:
    """Each depth compares a point's height with f at the middle of its cell
    alone; the oracle tests both edges of its rectangle.  Heights on, and one
    double below, either edge agree, down to depth 62, where a + 1 and
    2a + 1 round to a double."""

    @given(case=stacked_cases())
    @settings(max_examples=200, deadline=None)
    def test_edge_heights_match_the_oracle(self, case):
        assert_oracle_batched_and_alone(*case)

    @pytest.mark.parametrize("f", STACK_LAWS, ids=lambda f: f.name)
    def test_depths_past_53(self, f):
        points = []
        for x in [1.0 - 2.0**-53, 0.5, 0.75 + 2.0**-52, 2.0**-12 * (1.0 + 2.0**-52), 2.0**-30 / 3.0]:
            for k in left_depths(x):
                if k > 53:
                    points += edge_heights(f, x, k)
        assert len(points) > 20
        assert_oracle_batched_and_alone(f, points)


def memoized(f) -> MonotonePdf:
    """f on [0, 1] with its pdf cached per double, for the oracle's scalar calls."""
    pdf = functools.cache(f.pdf)
    return MonotonePdf(f.name, "unit", lambda x: pdf(float(x)), f.cdf, f.cdf_inverse, f0=f.f0)


# (law, e, deep): each law's heights lie within 2**-e to 2**-(e + 3) of its
# density, but an eighth are uniform and up to an eighth on a threshold.
# That keeps more than W / 2 of 2000 draws unplaced through depth 8: at e = 9
# about 70% of the smooth laws'.  The steep laws' draws reach depth 62 at any
# height, and some lie past it.  A half-line law's points are located against
# every bin's shift at once; a mean of 2**10 spreads them over ~1300 bins,
# whose grid outnumbers them from depth 1, and its density changes by ~2**-10
# over a bin, so e = 20 keeps them unplaced as long.
BAND_CASES = [(TRI, 9, False), (STACK_LAWS[2], 9, False), (STEEP_UNIT, 0, True),
              (exponential(1.0), 9, False), (STEEP_HALFLINE, 0, True), (exponential(2.0**-10), 20, False)]


@pytest.mark.locator
class TestBands:
    """Once at most W / 2 points are unplaced, a batch compares them with the
    next W // r depths' thresholds in one pass, or with those up to MAX_DEPTH:
    the decisions of the grid steps, of one-point calls (one band from
    depth 1, capped by MAX_DEPTH) and of the oracle.  Where more than W / 2
    are unplaced at a depth whose grid, twice the cells of every bin,
    outnumbers them, as for a deep law or many bins, the step is a band of
    that one depth, f at each point's own cell middle."""

    @pytest.mark.parametrize("f, e, deep", BAND_CASES, ids=lambda v: getattr(v, "name", None))
    @given(seed=st.integers(0, 2**32))
    @settings(max_examples=3, deadline=None)
    def test_batch_matches_one_point_calls_and_the_oracle(self, f, e, deep, seed):
        gen = RandomSource.from_seed(seed).gen
        values = f.cdf_inverse(gen.random(2000))
        shift, which = np.unique(np.floor(values), return_inverse=True)
        which = which.astype(np.int32)
        xs = values - shift[which]
        ys = f.pdf(values) * (1.0 - gen.random(xs.size) * np.ldexp(1.0, -gen.integers(e, e + 4, xs.size)))
        ys[::8] *= gen.random(ys[::8].size)
        # another eighth on a threshold: f at the middle of the point's cell
        # at a depth where it lies in a left half, a height that y < f(middle)
        # does not place there, and that lies below f(x)
        k = gen.integers(1, MAX_DEPTH + 1, xs.size)
        tie = f.pdf(np.ldexp(2.0 * np.floor(np.ldexp(xs, k - 1)) + 1.0, -k) + shift[which])
        on = (np.arange(xs.size) % 8 == 1) & (np.floor(np.ldexp(xs, k)) % 2 == 0) & (tie < f.pdf(values))
        ys[on] = tie[on]
        bins = {"shift": shift, "which": which} if f.support == "halfline" else {}
        calls = []
        counted = MonotonePdf(f.name, f.support, lambda x: calls.append(np.copy(x)) or f.pdf(x),
                              f.cdf, f.cdf_inverse, f0=f.f0)
        ks, offs, bad = locate_batch(xs, ys, counted, **bins)
        bands = replayed_bands(xs, ys, ks, bad, *bins.values())
        # depths 1 to 8 went one at a time: grid steps, or bands of one depth
        # where the grid outnumbers the points
        multi = [depths for depths, _ in bands if depths.size > 1]
        assert multi and multi[0][0] > 8
        assert any(depths.size == 1 and x.size > W // 2 for depths, x in bands)
        assert_ran(bands, calls)
        # the oracle's law per bin, its scalar pdf cached: cells near 0 are shared
        laws = [memoized(shifted_to_unit(f, s) if bins else f) for s in shift.tolist()]
        for i in range(xs.size):
            one = locate_batch(xs[i:i + 1], ys[i:i + 1], f, **bins and {"shift": shift, "which": which[i:i + 1]})
            try:
                expected = (*locate(float(xs[i]), float(ys[i]), laws[which[i]]), False)
            except DepthExceededError:
                expected = (-1, 0, True)
            assert (int(ks[i]), int(offs[i]), bool(bad[i])) == tuple(v[0].item() for v in one) == expected, i
        if deep:
            assert ks.max() == MAX_DEPTH and bad.any()


@pytest.mark.locator
class TestDepthZero:
    """The law has no mass past 1, so the oracle, like the locator, takes
    R(0, 0) down to y = 0 whatever the density formula gives at 2."""

    @pytest.mark.parametrize("f", [
        MonotonePdf("flat", "unit", lambda x: np.ones_like(x), lambda x: np.clip(x, 0.0, 1.0),
                    lambda u: u, f0=1.0),
        unguarded_exponential(6.0),
    ], ids=["flat", "unguarded-exp"])
    def test_oracle_matches_the_locator_below_f_of_two(self, f):
        rng = RandomSource.from_seed(60)
        xs = f.cdf_inverse(rng.gen.random(2000))
        ys = rng.gen.random(2000) * f.pdf(xs)
        # heights 0 and f(2) / 2, at x = 0.3 among others
        low_xs = np.repeat([0.0, 0.3, 0.5, 1.0 - 2.0**-53], 2)
        low_ys = np.tile([0.0, 0.5], 4) * f.pdf(2.0)
        ks, bad = assert_batch_matches_scalar(np.append(xs, low_xs), np.append(ys, low_ys), f)
        assert np.all(ks[-8:] == 0) and not bad.any()
