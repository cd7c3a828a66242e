"""Built-in distributions: laws, samplers, certificates, spec strings."""

import math

import numpy as np
import pytest
import scipy.stats
from scipy.integrate import quad
from scipy.special import zeta

from dsim.distributions import (
    TailParams,
    _hurwitz_zeta,
    builtin,
    exponential,
    geometric,
    pareto_flat,
    parse_spec,
    triangular,
    validate_tail,
    zipf,
)
from dsim.rng import RandomSource

N_DRAWS = 10**5


def draws(dist, seed=101, n=N_DRAWS):
    return dist.sample(RandomSource.from_seed(seed), n)


class TestGeometric:
    dist = geometric(0.7)

    def test_pmf_values(self):
        assert self.dist.pmf(1) == pytest.approx(0.7)
        assert self.dist.pmf(3) == pytest.approx(0.7 * 0.09)
        assert self.dist.pmf(0) == 0.0
        assert self.dist.pmf(2.5) == 0.0

    def test_pmf_sums_to_one(self):
        xs = np.arange(1, 200)
        assert abs(self.dist.pmf(xs).sum() + self.dist.tail(199) - 1.0) < 1e-12

    def test_tail_identity(self):
        for x in range(0, 40):
            assert self.dist.tail(x) == pytest.approx(0.3**x, rel=1e-12)
        assert self.dist.tail(-1) == 1.0

    def test_sampler_is_exact_law(self):
        from dsim.bounds_analysis import chi_square_vs_pmf

        stat, ok = chi_square_vs_pmf(draws(self.dist), self.dist)
        assert ok, f"chi2={stat:.2f}"

    def test_certificate(self):
        cert = self.dist.tail_params
        assert cert.kind == "exponential"
        assert cert.c == 1.5
        assert cert.lam == pytest.approx(math.log(10 / 3), rel=1e-15)
        assert validate_tail(self.dist, cert.c, cert.lam, cert.kind, np.arange(1, 60))

    def test_parameter_domain(self):
        for p in (0.0, 1.0, -0.1, 1.5):
            with pytest.raises(ValueError):
                geometric(p)


class TestZipf:
    dist = zipf(3.0)

    def test_pmf_values(self):
        z3 = 1.2020569031595943  # zeta(3)
        assert self.dist.pmf(1) == pytest.approx(1 / z3, rel=1e-12)
        assert self.dist.pmf(4) == pytest.approx(4**-3 / z3, rel=1e-12)
        assert self.dist.pmf(0) == 0.0

    def test_pmf_plus_tail_is_one(self):
        for cut in (1, 10, 1000, 10**6):
            xs = np.arange(1, cut + 1)
            total = float(self.dist.pmf(xs).sum()) + self.dist.tail(cut)
            assert abs(total - 1.0) < 1e-9

    def test_tail_consistent_with_pmf(self):
        for x in (1, 5, 4095, 4096, 4097, 10**5):
            lhs = self.dist.tail(x - 1) - self.dist.tail(x)
            assert lhs == pytest.approx(self.dist.pmf(x), rel=1e-9)

    def test_sampler_is_exact_law(self):
        from dsim.bounds_analysis import chi_square_vs_pmf

        stat, ok = chi_square_vs_pmf(draws(self.dist), self.dist)
        assert ok, f"chi2={stat:.2f}"

    def test_sampler_is_inverse_cdf(self):
        # the sampler must return the smallest x with P(X > x) <= 1 - u,
        # including draws beyond the lookup table
        class StubSource:
            def __init__(self, values):
                self.gen = self
                self._values = np.asarray(values, dtype=float)

            def random(self, size):
                assert size == self._values.size
                return self._values

        us = [0.0, 0.5, 0.83, 0.9999, 1 - 1e-9, 1 - 1e-13]
        out = self.dist.sample(StubSource(us), len(us))
        for u, x in zip(us, out):
            x = int(x)
            assert self.dist.tail(x) <= 1.0 - u + 1e-18
            if x > 1:
                assert self.dist.tail(x - 1) > 1.0 - u
        assert out[-1] > 4096  # exercised the bisection fallback

    def test_certificate(self):
        cert = self.dist.tail_params
        assert (cert.kind, cert.c, cert.lam) == ("power", 1.5, 2.0)
        grid = np.concatenate([np.arange(1, 100), [10**3, 10**6]])
        assert validate_tail(self.dist, cert.c, cert.lam, cert.kind, grid)

    def test_parameter_domain(self):
        with pytest.raises(ValueError):
            zipf(2.0)

    def test_draws_past_the_table_match_scipy_zeta(self):
        # the sampler as it stood on scipy.special.zeta, kept as the reference
        def reference_sample(s, gen, size):
            z_full = float(zeta(s, 1.0))
            table = 1.0 - zeta(s, np.arange(2, 4098, dtype=float)) / z_full
            u = gen.random(size)
            idx = np.searchsorted(table, u, side="left")
            out = idx.astype(np.int64) + 1
            for j in np.flatnonzero(idx == table.size):
                target = (1.0 - u[j]) * z_full
                lo, hi = table.size + 1, 2 * (table.size + 1)
                while zeta(s, hi + 1.0) > target:
                    lo, hi = hi + 1, 2 * hi
                while lo < hi:
                    mid = (lo + hi) // 2
                    if zeta(s, mid + 1.0) <= target:
                        hi = mid
                    else:
                        lo = mid + 1
                out[j] = lo
            return out

        got = zipf(2.05).sample(RandomSource.from_seed(7), 50_000)
        want = reference_sample(2.05, RandomSource.from_seed(7).gen, 50_000)
        assert (got > 4097).sum() >= 3  # the bisection ran
        assert np.array_equal(got, want)


class TestHurwitzZeta:
    """The Cephes port is scipy.special.zeta bit for bit, not approximately."""

    @pytest.mark.parametrize("s", [2.2, 3.0, 7.0, 50.0])
    def test_zipf_table_matches_scipy(self, s):
        qs = np.arange(1, 4098, dtype=float)
        assert [_hurwitz_zeta(s, q) for q in qs.tolist()] == zeta(s, qs).tolist()

    def test_random_pairs_match_scipy(self):
        gen = np.random.default_rng(20261018)
        ss = gen.uniform(2.0, 30.0, 10_000)
        qs = np.floor(2.0 ** gen.uniform(0.0, 62.0, 10_000))
        qs[::7] += gen.random(qs[::7].size)  # fractional q as well
        assert (qs > 1e8).sum() > 1000  # the asymptotic branch
        assert [_hurwitz_zeta(s, q) for s, q in zip(ss.tolist(), qs.tolist())] == zeta(ss, qs).tolist()

    def test_zipf_tail_is_the_zeta_ratio(self):
        xs = np.array([0.0, 1.0, 2.5, 4096.0, 1e7, 1e9, 2.0**62])
        want = zeta(3.0, np.floor(xs) + 1.0) / float(zeta(3.0, 1.0))
        assert zipf(3.0).tail(xs).tolist() == want.tolist()

    @pytest.mark.parametrize("s", [2.2, 3.7])
    def test_zipf_tail_table_lookup_is_exact(self, s):
        # the table covers q = floor(x) + 1 <= 4097; every other q, inf and NaN among them, is computed
        xs = np.concatenate([np.random.default_rng(5).uniform(-5.0, 5000.0, 3000),
                             [0.0, 1.0, 4096.5, 4097.0, 4098.0, 1e9, np.inf, 1e300, np.nan]])
        qs = np.maximum(np.floor(xs), 0.0) + 1.0
        want = np.array([_hurwitz_zeta(s, q) for q in qs.tolist()]) / _hurwitz_zeta(s, 1.0)
        got = zipf(s).tail(xs)
        assert np.array_equal(got, want, equal_nan=True) and np.isnan(got[-1])

    def test_domain(self):
        for x, q in ((1.0, 1.0), (0.5, 2.0), (3.0, 0.0), (3.0, -1.5)):
            with pytest.raises(ValueError):
                _hurwitz_zeta(x, q)


class TestTriangular:
    dist = triangular()

    def test_shape(self):
        assert self.dist.support == "unit"
        assert self.dist.f0 == 2.0
        assert self.dist.pdf(0.0) == 2.0
        assert self.dist.pdf(0.5) == 1.0
        assert self.dist.pdf(1.5) == 0.0

    def test_cdf_matches_pdf(self):
        for x in (0.1, 0.3, 0.7, 1.0):
            integral = quad(self.dist.pdf, 0, x)[0]
            assert self.dist.cdf(x) == pytest.approx(integral, abs=1e-12)

    def test_inverse(self):
        us = np.linspace(0, 0.999999, 500)
        assert np.allclose(self.dist.cdf(self.dist.cdf_inverse(us)), us, atol=1e-12)

    def test_sampler_is_exact_law(self):
        stat = scipy.stats.kstest(draws(self.dist), self.dist.cdf).statistic
        assert stat <= 1.628 / math.sqrt(N_DRAWS)

    def test_inverse_domain(self):
        with pytest.raises(ValueError):
            self.dist.cdf_inverse(1.0)
        with pytest.raises(ValueError):
            self.dist.cdf_inverse(-0.01)


class TestExponential:
    dist = exponential(1.0)

    def test_shape(self):
        assert self.dist.support == "halfline"
        assert self.dist.f0 == 1.0
        assert self.dist.pdf(0.0) == 1.0
        assert self.dist.pdf(-1.0) == 0.0
        assert self.dist.tail(3.0) == pytest.approx(math.exp(-3.0), rel=1e-15)

    def test_tail_avoids_cdf_cancellation(self):
        assert self.dist.tail(45.0) == pytest.approx(math.exp(-45.0), rel=1e-15)
        assert 1.0 - self.dist.cdf(45.0) == 0.0  # the naive route saturates

    def test_certificate(self):
        cert = self.dist.tail_params
        assert (cert.kind, cert.lam) == ("power", 2.0)
        grid = np.concatenate([np.geomspace(0.01, 100, 80), [2.0]])
        assert validate_tail(self.dist, cert.c, cert.lam, cert.kind, grid)

    def test_slow_rate_needs_larger_c(self):
        # x^2 exp(-0.1 x) peaks at x = 20 with value 400 exp(-2) = 54.1
        d = exponential(0.1)
        grid = np.concatenate([np.geomspace(0.01, 500, 120), [20.0]])
        assert not validate_tail(d, 1.5, 2.0, "power", grid)
        cert = d.tail_params
        assert cert.c > 54.0
        assert validate_tail(d, cert.c, cert.lam, cert.kind, grid)

    def test_sampler_is_exact_law(self):
        stat = scipy.stats.kstest(draws(self.dist), self.dist.cdf).statistic
        assert stat <= 1.628 / math.sqrt(N_DRAWS)


class TestParetoFlat:
    dist = pareto_flat(2.0, 2.0)

    def test_knee_and_level(self):
        assert self.dist.params["t0"] == pytest.approx(math.sqrt(6.0), rel=1e-15)
        assert self.dist.f0 == pytest.approx(0.27216552697590873, rel=1e-15)
        # continuous at the knee
        t0 = self.dist.params["t0"]
        assert self.dist.pdf(t0 * (1 - 1e-12)) == pytest.approx(self.dist.f0, rel=1e-9)

    def test_tail_exactly_meets_certificate(self):
        for x in (2.5, 3.0, 10.0, 100.0):
            assert self.dist.tail(x) == pytest.approx(2.0 * x**-2, rel=1e-14)
        assert validate_tail(self.dist, 2.0, 2.0, "power", np.geomspace(0.01, 10**4, 200))

    def test_total_mass(self):
        mass = quad(self.dist.pdf, 0, self.dist.params["t0"])[0] + self.dist.tail(self.dist.params["t0"])
        assert mass == pytest.approx(1.0, abs=1e-12)

    def test_inverse(self):
        us = np.linspace(0, 0.999999, 500)
        assert np.allclose(self.dist.cdf(self.dist.cdf_inverse(us)), us, atol=1e-9)

    def test_sampler_is_exact_law(self):
        stat = scipy.stats.kstest(draws(self.dist), self.dist.cdf).statistic
        assert stat <= 1.628 / math.sqrt(N_DRAWS)

    def test_parameter_domain(self):
        with pytest.raises(ValueError):
            pareto_flat(1.0, 2.0)
        with pytest.raises(ValueError):
            pareto_flat(2.0, 1.0)


class TestSpecStrings:
    def test_round_trips(self):
        assert parse_spec("geometric:p=0.7").name == "geometric(p=0.7)"
        assert parse_spec("zipf:s=3").name == "zipf(s=3)"
        assert parse_spec("triangular").name == "triangular"
        assert parse_spec("exp:lambda=1").name == "exp(lambda=1)"
        assert parse_spec("pareto_flat:c=2,lambda=2").name == "pareto_flat(c=2,lambda=2)"

    def test_defaults(self):
        assert parse_spec("exp").f0 == 1.0
        assert parse_spec("pareto_flat").params["c"] == 2.0

    def test_builtin_dispatch(self):
        assert builtin("geometric", p=0.5).pmf(1) == 0.5
        with pytest.raises(ValueError):
            builtin("cauchy")

    def test_bad_specs(self):
        for bad in ("nope", "geometric:q=0.7", "zipf:s=abc", "exp:lambda", "geometric:p=0.7,x=1"):
            with pytest.raises(ValueError):
                parse_spec(bad)


class TestTailParams:
    def test_validation(self):
        with pytest.raises(ValueError):
            TailParams(c=1.0, lam=2.0, kind="power")
        with pytest.raises(ValueError):
            TailParams(c=2.0, lam=1.0, kind="power")
        with pytest.raises(ValueError):
            TailParams(c=2.0, lam=0.0, kind="exponential")
        with pytest.raises(ValueError):
            TailParams(c=2.0, lam=2.0, kind="gaussian")
        assert TailParams(c=2.0, lam=0.5, kind="exponential").lam == 0.5

    def test_validate_tail_grid_checks(self):
        with pytest.raises(ValueError):
            validate_tail(geometric(0.5), 1.5, 1.0, "exponential", [])
        with pytest.raises(ValueError):
            validate_tail(zipf(3.0), 1.5, 2.0, "power", [0.0, 1.0])
