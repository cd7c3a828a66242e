"""Length bounds, the enumerator, majorization, and the statistics helpers."""

import math
import tracemalloc

import numpy as np
import pytest
import scipy.stats

from dsim import desimulate_any, simulate_any
from dsim.bounds_analysis import (
    check_majorization,
    chi_square,
    chi_square_vs_pmf,
    empirical_length,
    exact_expected_length_unit,
    integer_cells,
    ks_two_sample,
    loglog_slope,
    paper_gamma_accounting,
    reference_bound,
    thm1_bound,
    thm2_bound,
    thm3_bound,
    thm4_bound,
    truncated_payload_bits,
    verify_trial,
)
from dsim.bitcodes import SCHEME_UNIT, FormatError, gamma_length, read_container, read_header, write_container
from dsim.distributions import MonotonePdf, exponential, geometric, pareto_flat, triangular, zipf
from dsim.dyadic_codec import decode_triples, rect_area
from dsim.dyadic_codec import desimulate as unit_desimulate, simulate as unit_simulate
from dsim.rng import RandomSource
from oracles import bit_fields, read_bits


class TestBounds:
    def test_frozen_values_at_n1(self):
        assert thm1_bound(2.0, 2.0, 1) == pytest.approx(200.0, rel=1e-12)
        assert thm2_bound(2.0, 1.0, 1) == pytest.approx(78.0, rel=1e-12)
        assert thm3_bound(1.0, 1) == pytest.approx(92.0, rel=1e-12)
        assert thm4_bound(1.7, 2.0, 0.5, 1) == pytest.approx(2131.8, rel=1e-12)

    def test_frozen_values_at_n1e4(self):
        n = 10**4
        assert thm1_bound(1.5, 2.0, n) == pytest.approx(99873.17224127692, rel=1e-12)
        assert thm2_bound(1.5, math.log(10 / 3), n) == pytest.approx(9745.866477406436, rel=1e-12)
        assert thm3_bound(2.0, n) == pytest.approx(93079.29334332918, rel=1e-12)
        assert thm4_bound(2.0, 2.0, 0.27216552697590873, n) == pytest.approx(1669879.43987415, rel=1e-12)

    def test_nondecreasing_in_n(self):
        ladder = [1, 2, 10, 100, 10**4, 10**6]
        for bound in (
            lambda n: thm1_bound(1.5, 2.0, n),
            lambda n: thm2_bound(1.5, 1.2, n),
            lambda n: thm3_bound(2.0, n),
            lambda n: thm4_bound(2.0, 2.0, 0.3, n),
        ):
            values = [bound(n) for n in ladder]
            assert values == sorted(values)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            thm1_bound(1.5, 1.0, 10)  # power needs lam > 1
        with pytest.raises(ValueError):
            thm1_bound(1.0, 2.0, 10)  # needs c > 1
        with pytest.raises(ValueError):
            thm2_bound(1.5, 0.0, 10)
        with pytest.raises(ValueError):
            thm3_bound(-0.1, 10)
        with pytest.raises(ValueError):
            thm4_bound(1.5, 2.0, 0.5, 0)


class TestGammaAccounting:
    def test_frozen(self):
        assert paper_gamma_accounting(8) == 7
        assert paper_gamma_accounting(2055) == 23
        assert paper_gamma_accounting(7039) == 26
        assert gamma_length(7039) == 25  # one bit tighter than the formula

    def test_matches_float_formula(self):
        for z in range(1, 5000):
            assert paper_gamma_accounting(z) == math.floor(2.0 * math.log2(z)) + 1

    def test_never_undershoots_construction(self):
        for z in (1, 2, 3, 100, 2**40, 2**40 + 12345):
            acct = paper_gamma_accounting(z)
            assert acct in (gamma_length(z), gamma_length(z) + 1)

    def test_domain(self):
        with pytest.raises(ValueError):
            paper_gamma_accounting(0)


def enumerate_rects(k_max):
    for k in range(k_max + 1):
        for a in range(1 if k == 0 else 2 ** (k - 1)):
            yield k, a


class TestEnumerator:
    def test_against_binomial_oracle(self):
        # brute-force the expectation with scipy's binomial pmf
        f, n, k_max = triangular(), 30, 5
        expected = 0.0
        for k, a in enumerate_rects(k_max):
            area = rect_area(k, a, f)
            if area <= 0.0:
                continue
            head = gamma_length(k + 1) + gamma_length(a + 1)
            pm = scipy.stats.binom.pmf(np.arange(1, n + 1), n, area)
            lengths = np.array([gamma_length(m) for m in range(1, n + 1)], dtype=float)
            expected += pm.sum() * head + float(pm @ lengths)
        got = exact_expected_length_unit(f, n, k_max=k_max)
        assert got == pytest.approx(expected, rel=1e-10)

    def test_single_sample_closed_form(self):
        # with n = 1 each rectangle contributes area * (head + 1)
        f, k_max = triangular(), 8
        expected = sum(
            rect_area(k, a, f) * (gamma_length(k + 1) + gamma_length(a + 1) + 1)
            for k, a in enumerate_rects(k_max)
            if rect_area(k, a, f) > 0.0
        )
        assert exact_expected_length_unit(f, 1, k_max=k_max) == pytest.approx(expected, rel=1e-12)

    def test_area_rounded_past_one(self):
        # a flat law's depth-0 area rounds above 1; it counts as certain
        f = MonotonePdf("flat", "unit", lambda x: np.where((x >= 0.0) & (x <= 1.0), 1.0 + 2.0**-52, 0.0),
                        lambda x: np.clip(x, 0.0, 1.0), lambda u: u, f0=1.0 + 2.0**-52)
        assert rect_area(0, 0, f) > 1.0
        assert exact_expected_length_unit(f, 100) == pytest.approx(15.0, rel=1e-6)

    @pytest.mark.parametrize("k_max, bits", [(8, 810.0470278236539), (12, 892.3672249564853),
                                             (15, 898.8685300835343)])
    def test_pinned_values(self, k_max, bits):
        # triangular at n = 1000, to the last bit of the float summed from
        # rect_area's doubles and scipy's binomial survival function
        assert exact_expected_length_unit(triangular(), 1000, k_max=k_max) == bits

    def test_memory_stays_flat_past_one_block(self):
        # depth 17 has 2**16 offsets, one block; depth 18 twice as many, which
        # all at once doubled the peak
        peaks = []
        for k_max in (17, 18):
            tracemalloc.start()
            try:
                exact_expected_length_unit(triangular(), 1000, k_max=k_max)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] < 1.25 * peaks[0]

    def test_nondecreasing_in_n(self):
        f = triangular()
        values = [exact_expected_length_unit(f, n) for n in (1, 10, 100, 1000)]
        assert values == sorted(values)

    def test_validation(self):
        with pytest.raises(ValueError):
            exact_expected_length_unit(exponential(1.0), 10)
        with pytest.raises(ValueError):
            exact_expected_length_unit(triangular(), 0)
        with pytest.raises(ValueError, match="k_max"):
            exact_expected_length_unit(triangular(), 10, k_max=-1)


class TestTruncatedPayload:
    def test_recount_matches_manual_walk(self):
        data = unit_simulate(triangular(), 200, RandomSource.from_seed(9))
        manual = 0
        for k, a, count in read_container(data, SCHEME_UNIT, decode_triples):
            if k <= 8:
                manual += gamma_length(k + 1) + gamma_length(a + 1) + gamma_length(count)
        assert truncated_payload_bits(data, k_max=8) == manual

    def test_untruncated_equals_payload(self):
        data = unit_simulate(triangular(), 500, RandomSource.from_seed(10))
        assert truncated_payload_bits(data, k_max=10**6) == read_header(data).payload_bits

    def test_empty_stream_keeps_no_bits(self):
        data = unit_simulate(triangular(), 0, RandomSource.from_seed(10))
        assert truncated_payload_bits(data) == 0

    def test_rejects_other_schemes(self):
        from dsim.integer_codec import simulate as int_simulate

        data = int_simulate(geometric(0.5), 10, RandomSource.from_seed(1))[0]
        with pytest.raises(ValueError):
            truncated_payload_bits(data)
        data = simulate_any(exponential(1.0), 10, RandomSource.from_seed(1))
        with pytest.raises(FormatError, match="expected a unit container, got halfline"):
            truncated_payload_bits(data)

    def test_rejects_unread_payload_bits(self):
        # the unit decoder rejects the same container
        data = unit_simulate(triangular(), 50, RandomSource.from_seed(12))
        header = read_header(data)
        bits = read_container(data, SCHEME_UNIT, lambda source, n: format(
            read_bits(source, header.payload_bits), f"0{header.payload_bits}b"))
        data = write_container(SCHEME_UNIT, header.n, bit_fields(bits + "101"))
        with pytest.raises(FormatError, match="3 unread payload bits"):
            truncated_payload_bits(data)
        with pytest.raises(FormatError, match="3 unread payload bits"):
            unit_desimulate(data, RandomSource.from_seed(13))

    def test_rejects_negative_depth_cut(self):
        data = unit_simulate(triangular(), 50, RandomSource.from_seed(11))
        with pytest.raises(ValueError, match="k_max"):
            truncated_payload_bits(data, k_max=-1)


class TestEmpirical:
    def test_reproducible_and_consistent(self):
        a = empirical_length(geometric(0.7), 200, 8, seed=123)
        b = empirical_length(geometric(0.7), 200, 8, seed=123)
        assert a == b
        assert a.trials == 8 and a.n == 200 and a.scheme == "int"
        arr = np.array(a.lengths, dtype=float)
        assert a.mean == pytest.approx(arr.mean())
        assert a.stderr == pytest.approx(arr.std(ddof=1) / math.sqrt(8))

    def test_lengths_are_true_payload_sizes(self):
        res = empirical_length(geometric(0.7), 50, 3, seed=7)
        root = RandomSource.from_seed(7)
        data = simulate_any(geometric(0.7), 50, root.child("trial", 1))
        assert res.lengths[1] == read_header(data).payload_bits

    def test_dispatch_type_errors(self):
        rng = RandomSource.from_seed(1)
        with pytest.raises(ValueError):
            simulate_any("mystery", 5, rng)
        with pytest.raises(ValueError):
            desimulate_any(b"", rng)


class TestReferenceBound:
    def test_certificate_routing(self):
        n = 1000
        geo = geometric(0.7)
        assert reference_bound(geo, n) == pytest.approx(
            thm2_bound(geo.tail_params.c, geo.tail_params.lam, n))
        zf = zipf(3.0)
        assert reference_bound(zf, n) == pytest.approx(
            thm1_bound(zf.tail_params.c, zf.tail_params.lam, n))
        tri = triangular()
        assert reference_bound(tri, n) == pytest.approx(thm3_bound(tri.f0, n))
        pf = pareto_flat(2.0, 2.0)
        assert reference_bound(pf, n) == pytest.approx(
            thm4_bound(2.0, 2.0, pf.f0, n))

    def test_missing_certificate_gives_none(self):
        from dsim.distributions import IntegerDistribution

        bare = IntegerDistribution("bare", lambda x: x, lambda x: x, lambda r, s: np.ones(s))
        assert reference_bound(bare, 10) is None


class TestStatisticalTests:
    def test_ks_matches_scipy(self):
        gen = np.random.default_rng(3)
        a, b = gen.normal(size=400), gen.normal(size=350)
        stat, _ = ks_two_sample(a, b)
        assert stat == pytest.approx(scipy.stats.ks_2samp(a, b).statistic, abs=1e-12)

    def test_ks_verdicts(self):
        gen = np.random.default_rng(4)
        same = ks_two_sample(gen.random(2000), gen.random(2000))
        assert same[1]
        apart = ks_two_sample(gen.random(100), gen.random(100) + 10.0)
        assert apart[0] == pytest.approx(1.0) and not apart[1]

    def test_chi_square_matches_scipy(self):
        counts = np.array([30, 50, 20], dtype=float)
        probs = np.array([0.3, 0.5, 0.2])
        stat, ok = chi_square(counts, probs)
        ref = scipy.stats.chisquare(counts, counts.sum() * probs)
        assert stat == pytest.approx(ref.statistic, abs=1e-12)
        assert ok

    def test_chi_square_validation(self):
        with pytest.raises(ValueError):
            chi_square([5.0], [1.0])
        with pytest.raises(ValueError):
            chi_square([5.0, 5.0], [0.6, 0.6])
        with pytest.raises(ValueError):
            chi_square([5.0, 5.0], [1.0, 0.0])

    def test_integer_cells_expected_counts(self):
        for dist in (geometric(0.7), zipf(3.0)):
            k, probs = integer_cells(dist, 10**4)
            assert k >= 1 and probs.size == k + 1
            assert probs.sum() == pytest.approx(1.0, abs=1e-9)
            assert np.all(10**4 * probs >= 10.0)

    def test_chi_square_vs_pmf_accepts_own_sampler(self):
        dist = geometric(0.6)
        samples = dist.sample(RandomSource.from_seed(11), 10**4)
        stat, ok = chi_square_vs_pmf(samples, dist)
        assert ok, f"chi2={stat:.2f}"


class TestVerifyTrial:
    @pytest.mark.parametrize(
        "scheme,dist,expected_test",
        [
            ("int", geometric(0.7), "chi_square"),
            ("unit", triangular(), "ks"),
            ("halfline", exponential(1.0), "ks"),
        ],
    )
    def test_round_trip_accepts(self, scheme, dist, expected_test):
        assert dist.support == scheme
        name, stat, ok = verify_trial(dist, 4000, RandomSource.from_seed(2))
        assert name == expected_test
        assert ok, f"{name}={stat:.4f}"


class TestSlope:
    def test_exact_power_law(self):
        points = [(n, 3.0 * n**0.7) for n in (10, 100, 1000, 10**4)]
        assert loglog_slope(points) == pytest.approx(0.7, abs=1e-12)

    def test_validation(self):
        with pytest.raises(ValueError):
            loglog_slope([(10, 5.0)])
        with pytest.raises(ValueError):
            loglog_slope([(10, 5.0), (20, -1.0)])
        with pytest.raises(ValueError):
            loglog_slope([(10, 5.0), (10, 6.0)])


class TestMajorant:
    def test_frozen_shape(self):
        m = pareto_flat(2.0, 2.0)
        assert m.params["t0"] == pytest.approx(math.sqrt(6.0), rel=1e-14)
        assert m.pdf(0.0) == pytest.approx(0.27216552697590873, rel=1e-14)
        assert m.pdf(m.params["t0"] / 2) == m.pdf(0.0)
        for x in (m.params["t0"], 5.0, 40.0):
            assert m.pdf(x) == pytest.approx(2.0 * 2.0 * x**-3.0, rel=1e-12)

    def test_flat_level_never_exceeds_one(self):
        for c in (1.1, 2.0, 5.0, 20.0):
            for lam in (1.1, 2.0, 5.0, 10.0):
                assert pareto_flat(c, lam).pdf(0.0) <= 1.0

    def test_cdf_consistency(self):
        m = pareto_flat(2.0, 2.0)
        assert m.cdf(m.params["t0"]) == pytest.approx(m.pdf(0.0) * m.params["t0"], rel=1e-12)
        assert m.cdf(1e9) == pytest.approx(1.0, abs=1e-12)

    def test_check_majorization_verdicts(self):
        m = pareto_flat(2.0, 2.0)
        grid = np.geomspace(0.01, 50.0, 25)
        assert check_majorization(exponential(1.0), m, grid)
        assert check_majorization(pareto_flat(2.0, 2.0), m, grid)
        # a lower flat level loses head mass immediately
        assert not check_majorization(pareto_flat(4.0, 2.0), m, [0.5])

    def test_grid_validation(self):
        m = pareto_flat(2.0, 2.0)
        with pytest.raises(ValueError):
            check_majorization(exponential(1.0), m, [])
        with pytest.raises(ValueError):
            check_majorization(exponential(1.0), m, [0.0, 1.0])
