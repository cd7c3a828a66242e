"""Bin restriction and the half-line sampling scheme."""

import math

import numpy as np
import pytest
from scipy.integrate import quad

from dsim import dyadic_codec, halfline_codec
from dsim.bitcodes import (
    SCHEME_HALFLINE,
    FormatError,
    read_container,
    read_header,
    write_container,
)
from dsim.distributions import MonotonePdf, exponential, pareto_flat, triangular
from dsim.dyadic_codec import collect_triples, locate_batch, write_triples
from dsim.halfline_codec import desimulate, restrict_to_bin, simulate
from dsim.integer_codec import decode_multiset, encode_multiset
from dsim.rng import RandomSource
from oracles import halfline_reference, read_bits, runs

EXP1 = exponential(1.0)


def sent_bins(data):
    """The bin of every value in a half-line container, as its multiset says."""
    def bins_only(source, n):
        bins = decode_multiset(source, n)
        read_bits(source, source.bits_remaining)  # the bins' triples follow the multiset
        return bins

    return np.repeat(*read_container(data, SCHEME_HALFLINE, bins_only))


class TestRestriction:
    def test_exp_first_bin_density_at_zero(self):
        f1 = restrict_to_bin(EXP1, 1)
        assert f1.support == "unit"
        assert f1.f0 == pytest.approx(1.5819767068693265, rel=1e-14)
        assert f1.pdf(0.0) == pytest.approx(f1.f0, rel=1e-14)

    def test_mass_normalizes(self):
        for i in (1, 2, 7, 40):
            fi = restrict_to_bin(EXP1, i)
            total = quad(fi.pdf, 0.0, 1.0)[0]
            assert total == pytest.approx(1.0, rel=1e-10)

    def test_memorylessness_of_exp_restrictions(self):
        # every bin of an exponential looks identical after renormalization
        f1, f9 = restrict_to_bin(EXP1, 1), restrict_to_bin(EXP1, 9)
        xs = np.linspace(0.0, 1.0, 50)
        assert np.allclose(f1.pdf(xs), f9.pdf(xs), rtol=1e-9)

    def test_deep_bin_stays_accurate(self):
        # survival-function differences avoid the cdf's saturation at 1
        f40 = restrict_to_bin(EXP1, 40)
        assert f40.params["mass"] == pytest.approx(math.exp(-39) * -math.expm1(-1.0), rel=1e-12)
        assert f40.pdf(0.0) == pytest.approx(1.5819767068693265, rel=1e-9)

    @pytest.mark.parametrize("lam", [1e-9, 1e-12])
    def test_nearly_flat_first_bin_stays_accurate(self, lam):
        # a survival difference 1 - tail(1) would cancel; cdf values keep their precision
        f1 = restrict_to_bin(exponential(lam), 1)
        assert f1.params["mass"] == pytest.approx(-math.expm1(-lam), rel=1e-15)
        assert quad(f1.pdf, 0.0, 1.0)[0] == pytest.approx(1.0, abs=1e-12)
        assert f1.cdf(1.0) == pytest.approx(1.0, abs=1e-12)

    def test_cdf_endpoints_and_inverse(self):
        fi = restrict_to_bin(pareto_flat(2.0, 2.0), 3)
        assert fi.cdf(0.0) == 0.0
        assert fi.cdf(1.0) == pytest.approx(1.0, abs=1e-12)
        us = np.linspace(0.0, 0.999, 200)
        assert np.allclose(fi.cdf(fi.cdf_inverse(us)), us, atol=1e-9)
        assert np.all(fi.cdf_inverse(us) < 1.0)

    def test_tail_bin_inverse_resolves_every_uniform(self):
        # inverting the unrestricted cdf at cdf(i - 1) + u * mass saturates this deep
        us = RandomSource.from_seed(12).gen.random(10_000)
        for fi in (restrict_to_bin(EXP1, 40), restrict_to_bin(pareto_flat(2.0, 2.0), 10**5)):
            xs = fi.cdf_inverse(us)
            assert np.unique(xs).size == us.size
            assert np.max(np.abs(fi.cdf(xs) - us)) <= 1e-9

    def test_head_bin_inverse_matches_closed_form(self):
        lam = 2.0**58
        f1 = restrict_to_bin(exponential(lam), 1)
        us = RandomSource.from_seed(13).gen.random(10_000)
        expected = -np.log1p(-us * f1.params["mass"]) / lam
        assert np.allclose(f1.cdf_inverse(us), expected, rtol=1e-9, atol=0.0)

    def test_pdf_is_conditional_density(self):
        fi = restrict_to_bin(pareto_flat(2.0, 2.0), 2)
        mass = fi.params["mass"]
        parent = pareto_flat(2.0, 2.0)
        for x in (0.0, 0.25, 0.8):
            assert fi.pdf(x) == pytest.approx(parent.pdf(x + 1.0) / mass, rel=1e-12)
        assert fi.pdf(1.5) == 0.0

    def test_validation(self):
        with pytest.raises(ValueError):
            restrict_to_bin(triangular(), 1)
        with pytest.raises(ValueError):
            restrict_to_bin(EXP1, 0)
        with pytest.raises(ValueError):
            restrict_to_bin(EXP1, 10**6)  # mass underflows to zero


class TestScheme:
    def test_round_trip_shape(self):
        data = simulate(EXP1, 3000, RandomSource.from_seed(21))
        header = read_header(data)
        assert header.scheme == SCHEME_HALFLINE
        assert header.n == 3000
        out = desimulate(data, RandomSource.from_seed(22))
        assert out.size == 3000
        assert np.all(out >= 0.0)

    def test_bin_counts_preserved(self):
        # the decoded values land in exactly the bins the encoder transmitted
        data = simulate(EXP1, 2000, RandomSource.from_seed(30))
        out = desimulate(data, RandomSource.from_seed(31))
        got_bins = np.sort(np.floor(out).astype(np.int64) + 1)
        assert np.array_equal(got_bins, sent_bins(data))

    @pytest.mark.parametrize("lam", [1e-17, 1e-15])
    def test_far_bins_decode_inside_their_bin(self, lam):
        # below 2**53 a bin's left end plus a fraction near 1 can round up to
        # its right end, and in [2**53, 2**54) float(i) - 1.0 can miss i - 1;
        # these laws put thousands of draws there
        data = simulate(exponential(lam), 20000, RandomSource.from_seed(0))
        out = desimulate(data, RandomSource.from_seed(100))
        assert np.array_equal(np.sort(np.floor(out).astype(np.int64) + 1), sent_bins(data))

    def test_fraction_rounding_up_to_the_right_end_is_clamped(self):
        # R(54, 2**53 - 1) lies in [1 - 2**-53, 1 - 2**-54]; 1 plus any of it
        # rounds to 2.0, the right end of bin 2
        fields = np.concatenate((encode_multiset([2], [1]), write_triples([(54, 2**53 - 1, 1)])))
        out = desimulate(write_container(SCHEME_HALFLINE, 1, fields), RandomSource.from_seed(1))
        assert out.tolist() == [np.nextafter(2.0, 0.0)]

    def test_deterministic(self):
        a = simulate(EXP1, 800, RandomSource.from_seed(5))
        b = simulate(EXP1, 800, RandomSource.from_seed(5))
        assert a == b
        x = desimulate(a, RandomSource.from_seed(6))
        y = desimulate(a, RandomSource.from_seed(6))
        assert np.array_equal(x, y)

    def test_empty(self):
        data = simulate(EXP1, 0, RandomSource.from_seed(1))
        assert desimulate(data, RandomSource.from_seed(2)).size == 0

    def test_pareto_flat_round_trip(self):
        pf = pareto_flat(2.0, 2.0)
        data = simulate(pf, 2000, RandomSource.from_seed(40))
        out = desimulate(data, RandomSource.from_seed(41))
        assert out.size == 2000
        assert np.all(out >= 0.0)

    def test_rejects_unit_density(self):
        with pytest.raises(ValueError):
            simulate(triangular(), 10, RandomSource.from_seed(1))

    def test_rejects_wrong_scheme_container(self):
        from dsim.bitcodes import SCHEME_UNIT

        data = write_container(SCHEME_UNIT, 0, [])
        with pytest.raises(FormatError):
            desimulate(data, RandomSource.from_seed(1))

    def test_rejects_deep_triple_inside_a_bin(self):
        fields = np.concatenate((encode_multiset(*runs([2, 2, 2])), write_triples([(5000, 0, 3)])))
        data = write_container(SCHEME_HALFLINE, 3, fields)
        with pytest.raises(FormatError):
            desimulate(data, RandomSource.from_seed(1))

    def test_rejects_offset_holding_no_double(self):
        # R(62, 2**61 - 1) would decode to 4.0, outside bin [3, 4)
        fields = np.concatenate((encode_multiset(*runs([4, 4, 4])), write_triples([(62, 2**61 - 1, 3)])))
        data = write_container(SCHEME_HALFLINE, 3, fields)
        with pytest.raises(FormatError):
            desimulate(data, RandomSource.from_seed(1))

    @pytest.mark.parametrize("i", [2**53 + 2, 2**62 + 3, 2**63 - 1])
    def test_rejects_bin_whose_left_end_is_no_double(self, i):
        # i - 1 lies between two doubles: the samples would round to another
        # bin (or, for the last bin, to 2**63, past every bin)
        fields = np.concatenate((encode_multiset([i], [2]), write_triples([(0, 0, 2)])))
        with pytest.raises(FormatError, match="left end"):
            desimulate(write_container(SCHEME_HALFLINE, 2, fields), RandomSource.from_seed(1))

    def test_law_with_bins_past_2_54_round_trips(self):
        # past 2**54 both ends of a unit bin round to one double, so a cdf
        # difference gives the bin no mass; the encoder needs none
        far = MonotonePdf("far", "halfline", lambda x: np.where(x >= 0.0, 2.0**-60, 0.0),
                          lambda x: np.clip(x * 2.0**-60, 0.0, 1.0), lambda u: u * 2.0**60, f0=2.0**-60)
        data = simulate(far, 50, RandomSource.from_seed(1))
        out = desimulate(data, RandomSource.from_seed(2))
        assert out.size == 50 and out.max() > 2.0**54
        assert np.all(np.isfinite(out)) and np.all((out >= 0.0) & (out <= 2.0**60))

    @pytest.mark.parametrize("far, message", [
        # draws in bin 6, where neither the density nor the cdf has anything
        (MonotonePdf("outside", "halfline", lambda x: np.where((x >= 0.0) & (x < 1.0), 1.0, 0.0),
                     lambda x: np.clip(x, 0.0, 1.0), lambda u: u + 5.0, f0=1.0),
         "bin 6 carries no probability mass"),
        # the cdf of exp(1) under a density that is 0 everywhere
        (MonotonePdf("flat zero", "halfline", lambda x: np.zeros_like(x),
                     lambda x: -np.expm1(-np.maximum(x, 0.0)), lambda u: -np.log1p(-u), f0=0.0),
         "depth budget still exhausted"),
    ], ids=["outside", "flat zero"])
    def test_draw_where_the_density_is_zero_rejected(self, far, message):
        # a zero height lies in no rectangle, so the points reach the retry path
        with pytest.raises(ValueError, match=message) as caught:
            simulate(far, 20, RandomSource.from_seed(1))
        assert any(entry.name == "collect_triples" for entry in caught.traceback)

    @pytest.mark.parametrize("below", [0.5, 1.5, 7e4])
    def test_negative_draw_rejected(self, below):
        # a cast to 16-bit bin keys would wrap a negative draw into a bin
        shifted = MonotonePdf("shifted", "halfline", EXP1.pdf, EXP1.cdf, lambda u: EXP1.cdf_inverse(u) - below,
                              f0=1.0)
        with pytest.raises(ValueError, match="outside bins 1 to 2"):
            simulate(shifted, 1000, RandomSource.from_seed(0))

    def test_output_law_single_seed(self):
        from dsim.bounds_analysis import ks_two_sample

        n = 10**4
        data = simulate(EXP1, n, RandomSource.from_seed(77))
        out = desimulate(data, RandomSource.from_seed(78))
        ref = EXP1.sample(RandomSource.from_seed(79), n)
        stat, ok = ks_two_sample(out, ref)
        assert ok, f"KS={stat:.4f}"


def per_bin_reference(f, n, rng, normalised=True):
    """The encoder as one unit stream per occupied bin, each in its own pass.
    A bin's draws are located against its normalised law, or, if not
    normalised, against f shifted into the bin; redraws come from the
    normalised law."""
    values = f.sample(rng.child("values"), n)
    bins = np.floor(values).astype(np.int64) + 1
    fields = [encode_multiset(*runs(bins))]
    heights = rng.child("heights").gen
    retry = rng.child("retry")
    order = np.argsort(bins, kind="stable")
    uniq, starts = np.unique(bins[order], return_index=True)
    for i, xs in zip(uniq.tolist(), np.split((values - (bins - 1))[order], starts[1:])):
        law, shift = (restrict_to_bin(f, i), 0.0) if normalised else (f, i - 1.0)
        ys = heights.random(xs.size) * law.pdf(xs + shift)
        fields.append(write_triples(collect_triples([locate_batch(xs, ys, law, shift=shift)],
                                                    lambda _: (restrict_to_bin(f, i), retry.child(i)))))
    return write_container(SCHEME_HALFLINE, n, np.concatenate(fields))


def restarting_power(alpha=1.0 / 16.0, bins=3):
    """Mass 1/bins in each of bins 1 to bins, with density alpha t**(alpha-1) / bins
    at t = x - (i - 1) in bin i: non-increasing within each bin and infinite at
    its left end.  The draws of bins 2 and 3 that round onto the bin's left end
    get an infinite height, which no rectangle holds, so those bins go through
    the resampling path.  (A bin's right end is the next bin's infinite start,
    so the depth-0 rectangle of bins 1 and 2 takes every finite point: the law
    exercises the bytes, not the decoded law.)"""

    def piece(x):
        j = np.floor(np.clip(x, 0.0, bins))
        return j, x - j

    def pdf(x):
        j, t = piece(x)
        with np.errstate(divide="ignore"):
            return np.where((x >= 0.0) & (x < bins), alpha * t ** (alpha - 1.0) / bins, 0.0)

    def cdf(x):
        j, t = piece(x)
        return np.where(x < 0.0, 0.0, (j + t**alpha) / bins)

    def tail(x):
        j, t = piece(x)
        return np.where(x < 0.0, 1.0, (bins - j - t**alpha) / bins)

    def cdf_inverse(u):
        j = np.floor(bins * u)
        return j + (bins * u - j) ** (1.0 / alpha)

    return MonotonePdf("restarting_power", "halfline", pdf, cdf, cdf_inverse, f0=np.inf, tail=tail)


RESTART = restarting_power()

# A bin of exp(lambda=1e-17) holds less mass than the ulp of its cdf, so the
# reference cannot normalise it.  Nearly every draw has a bin to itself, and
# the reference makes a pass per bin, so that law runs at small n only.
PER_BIN_CASES = ([(f, n, True) for n in (1, 7, 1000, 30000)
                  for f in (EXP1, exponential(0.01), exponential(2.0**58), pareto_flat(2.0, 2.0), pareto_flat(1.5, 1.2))]
                 + [(exponential(1e-17), n, False) for n in (1, 7, 1000)])


class TestOnePassEncoder:
    @pytest.mark.parametrize("f, n, normalised", PER_BIN_CASES, ids=[f"{n}-{f.name}" for f, n, _ in PER_BIN_CASES])
    def test_matches_per_bin_reference(self, f, n, normalised):
        for seed in (0, 1):
            rng = RandomSource.from_seed(seed)
            assert simulate(f, n, rng) == per_bin_reference(f, n, rng, normalised)

    def test_matches_per_bin_reference_past_16_bit_bins(self):
        # bins beyond 2**16 take the int64 sort rather than the 16-bit one
        f = exponential(2.0**-20)
        for seed in (0, 1):
            rng = RandomSource.from_seed(seed)
            values = f.sample(rng.child("values"), 1000)
            assert values.max() > 2**16 and values.min() < 2**16
            assert simulate(f, 1000, rng) == per_bin_reference(f, 1000, rng)

    def test_stuck_bin_is_located_once(self, monkeypatch):
        # one locator call covers every draw; later calls see only the retries
        seen = []
        original = dyadic_codec.locate_batch

        def counting(xs, *args, **kwargs):
            seen.append(np.size(xs))
            return original(xs, *args, **kwargs)

        monkeypatch.setattr(dyadic_codec, "locate_batch", counting)
        n = 30000
        simulate(exponential(2.0**58), n, RandomSource.from_seed(0))
        assert seen[0] == n and len(seen) > 1
        assert sum(seen[1:]) < n

    def test_resampling_bins_are_found(self):
        # the reference's own draws leave unresolved points in two bins
        rng = RandomSource.from_seed(3)
        values = RESTART.sample(rng.child("values"), 1000)
        bins = np.floor(values).astype(np.int64) + 1
        heights = rng.child("heights").gen
        stuck = []
        for i in np.unique(bins).tolist():
            restricted = restrict_to_bin(RESTART, i)
            xs = values[bins == i] - (i - 1)
            ys = heights.random(xs.size) * restricted.pdf(xs)
            if dyadic_codec.locate_batch(xs, ys, restricted)[2].any():
                stuck.append(i)
        assert stuck == [2, 3]

    def test_one_grouping_and_one_write_redraw_only_stuck_bins(self, monkeypatch):
        # the bins of test_resampling_bins_are_found, and no other, build a
        # normalised law and a retry source, each keyed by a Python int
        calls, built, retries = [], [], []
        for name in ("collect_triples", "write_triples"):
            original = getattr(halfline_codec, name)
            monkeypatch.setattr(halfline_codec, name, lambda *args, _name=name, _original=original, **kwargs:
                                calls.append(_name) or _original(*args, **kwargs))
        restrict, child = halfline_codec.restrict_to_bin, RandomSource.child
        monkeypatch.setattr(halfline_codec, "restrict_to_bin", lambda f, i: built.append(i) or restrict(f, i))
        monkeypatch.setattr(RandomSource, "child", lambda self, *path: (
            path[0] == "retry" and retries.append(path[1:])) or child(self, *path))
        simulate(RESTART, 1000, RandomSource.from_seed(3))
        assert calls == ["collect_triples", "write_triples"]
        assert built == [2, 3] and all(type(i) is int for i in built)
        assert retries == [(2,), (3,)]

    @pytest.mark.parametrize("n", [1000, 30000])
    def test_matches_per_bin_reference_when_bins_resample(self, n):
        for seed in (3, 4):
            rng = RandomSource.from_seed(seed)
            data = simulate(RESTART, n, rng)
            assert data == per_bin_reference(RESTART, n, rng)
            out = desimulate(data, RandomSource.from_seed(seed + 10))
            assert out.size == n and np.all((out >= 0.0) & (out < 3.0))

    @pytest.mark.parametrize("f", [RESTART, exponential(1e-17)], ids=lambda f: f.name)
    def test_small_chunks_match_the_one_shot_reference(self, monkeypatch, f):
        # chunks of 2**10 points cut bins apart (RESTART's three, each redrawn
        # in part) or hold about a thousand bins each (exp(1e-17))
        monkeypatch.setattr(dyadic_codec, "CHUNK", 2**10)
        for seed in (3, 4):
            rng = RandomSource.from_seed(seed)
            assert simulate(f, 3000, rng) == halfline_reference(f, 3000, rng)

    @pytest.mark.parametrize("f, n", [(f, n) for f in (exponential(1e-17), pareto_flat(2.0, 2.0))
                                      for n in (0, 1, 2**10, 2**10 + 1)] + [(pareto_flat(2.0, 2.0), 12000)],
                             ids=lambda v: v.name if isinstance(v, MonotonePdf) else str(v))
    def test_chunk_bin_slices_match_the_one_shot_reference(self, monkeypatch, f, n):
        # each chunk takes its bins from the runs it meets, clipped to it: one
        # bin per draw (exp(1e-17)), or, at n = 12000, pareto_flat's bin 1
        # with about 3,300 draws across four chunks of 2**10
        monkeypatch.setattr(dyadic_codec, "CHUNK", 2**10)
        for seed in (3, 4):
            rng = RandomSource.from_seed(seed)
            assert simulate(f, n, rng) == halfline_reference(f, n, rng)

    def test_chunk_edge_on_a_run_start_matches_the_one_shot_reference(self, monkeypatch):
        monkeypatch.setattr(dyadic_codec, "CHUNK", 2**10)
        for seed in (3, 4):
            rng = RandomSource.from_seed(seed)
            # the n whose last draw is the 2**10-th in bin 1: that bin's run
            # fills the first chunk, and bin 2's run starts the second
            draws = EXP1.sample(rng.child("values"), 2**12)
            n = int(np.flatnonzero(draws < 1.0)[2**10 - 1]) + 1
            assert n > 2**10
            assert simulate(EXP1, n, rng) == halfline_reference(EXP1, n, rng)
