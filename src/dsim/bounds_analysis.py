"""Expected-length bounds, exact and empirical length measurements, and the
statistical checks used to audit the schemes.

All logarithms in the closed-form bounds are base 2, matching lengths
measured in bits.  Bounds take the tail certificate (c, lambda) of the
source law and return a guaranteed ceiling on the expected codeword length
in bits; their growth in n is sublinear, which the benchmark harness checks
empirically via log-log slopes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.integrate import quad
from scipy.stats import binom as _binom
from scipy.stats import chi2 as _chi2

from . import desimulate_any, dyadic_codec, simulate_any
from .bitcodes import (SCHEME_UNIT, FormatError, gamma_length, read_container, read_header,
                       shifted_gamma_length)
from .distributions import IntegerDistribution, MonotonePdf
from .dyadic_codec import rect_area
from .rng import RandomSource

__all__ = [
    "thm1_bound",
    "thm2_bound",
    "thm3_bound",
    "thm4_bound",
    "paper_gamma_accounting",
    "check_majorization",
    "exact_expected_length_unit",
    "EmpiricalLength",
    "empirical_length",
    "reference_bound",
    "ks_two_sample",
    "chi_square",
    "chi_square_vs_pmf",
    "integer_cells",
    "verify_trial",
    "loglog_slope",
]


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise ValueError(message)


def thm1_bound(c: float, lam: float, n: int) -> float:
    """Length ceiling for the integer scheme under a power tail certificate:
    50 c lam n**(1/lam) log2(sqrt(n) + 1) / (lam - 1)."""
    _require(c > 1.0, "power certificate needs c > 1")
    _require(lam > 1.0, "power certificate needs lambda > 1")
    _require(n >= 1, "n must be >= 1")
    return 50.0 * c * lam * n ** (1.0 / lam) * math.log2(math.sqrt(n) + 1.0) / (lam - 1.0)


def thm2_bound(c: float, lam: float, n: int) -> float:
    """Length ceiling for the integer scheme under an exponential tail
    certificate: 13 (2 lam + 1) (c / lam) log2(n + 1)**2."""
    _require(c > 1.0, "exponential certificate needs c > 1")
    _require(lam > 0.0, "exponential certificate needs lambda > 0")
    _require(n >= 1, "n must be >= 1")
    return 13.0 * (2.0 * lam + 1.0) * (c / lam) * math.log2(n + 1.0) ** 2


def thm3_bound(f0: float, n: int) -> float:
    """Length ceiling for the unit scheme: 92 sqrt(n f0) log2(sqrt(n f0) + 1),
    where f0 is the density's value at zero (its maximum)."""
    _require(f0 >= 0.0, "f0 must be >= 0")
    _require(n >= 1, "n must be >= 1")
    root = math.sqrt(n * f0)
    return 92.0 * root * math.log2(root + 1.0)


def thm4_bound(c: float, lam: float, f0: float, n: int) -> float:
    """Length ceiling for the half-line scheme under a power tail certificate:
    418 c (lam + 1) max(n**(1/lam), sqrt(n)) max(sqrt(f0), 1)
    / min(lam - 1, 1) * log2(sqrt(n max(f0, 1)) + 1)."""
    _require(c > 1.0, "power certificate needs c > 1")
    _require(lam > 1.0, "power certificate needs lambda > 1")
    _require(f0 >= 0.0, "f0 must be >= 0")
    _require(n >= 1, "n must be >= 1")
    growth = max(n ** (1.0 / lam), math.sqrt(n))
    return (418.0 * c * (lam + 1.0) * growth * max(math.sqrt(f0), 1.0)
            / min(lam - 1.0, 1.0) * math.log2(math.sqrt(n * max(f0, 1.0)) + 1.0))


def paper_gamma_accounting(z: int) -> int:
    """The accounting form floor(2 log2 Z + 1), computed exactly in integers.

    This is the figure used when codeword lengths are summed by formula; it
    exceeds the constructed gamma length 2 floor(log2 Z) + 1 by one bit
    whenever frac(log2 Z) >= 1/2.
    """
    z = int(z)
    _require(z >= 1, "Z must be >= 1")
    return (z * z).bit_length()


def check_majorization(f: MonotonePdf, majorant: MonotonePdf, grid) -> bool:
    """True iff the head mass of f dominates the majorant's on the grid:
    integral of f over [0, x] >= integral of the majorant - 1e-9 at every grid x.

    The majorant is pareto_flat(c, lam), the least non-increasing density
    consistent with a (c, lam) power certificate: any density whose tail
    obeys the certificate majorizes it, so bounds derived for the majorant
    transfer to the original law.  f's integral comes from quadrature of its
    density, so the check does not assume f's cdf and pdf agree; the
    majorant's integral is its closed-form cdf.
    """
    grid = np.asarray(grid, dtype=float)
    _require(grid.size > 0, "grid must be nonempty")
    _require(bool(np.all(grid > 0.0)), "grid points must be positive")
    kinks = [float(majorant.params["t0"])]
    if "t0" in f.params:
        kinks.append(float(f.params["t0"]))
    for x in grid:
        pts = sorted(p for p in kinks if 0.0 < p < x) or None
        head, _ = quad(f.pdf, 0.0, float(x), points=pts, limit=200, epsabs=1e-12, epsrel=1e-10)
        if head < float(majorant.cdf(x)) - 1e-9:
            return False
    return True


def exact_expected_length_unit(f: MonotonePdf, n: int, k_max: int = 8) -> float:
    """Exact expected payload bits of the unit scheme, truncated to depth k_max.

    A rectangle of area A holds M ~ Binomial(n, A) points and costs its index
    header h plus gamma_length(M) = 1 + 2 #{j >= 1 : 2**j <= M} when M >= 1,
    so it adds (h + 1) P(M >= 1) + 2 sum_j P(M >= 2**j), with the tail
    probabilities taken from the binomial survival function.  Rectangles
    deeper than k_max are excluded; empirical comparisons must restrict to
    the same depths, since the excluded tail is cheap per sample but not zero.
    """
    if f.support != "unit":
        raise ValueError("the unit-scheme enumerator needs a density on [0, 1]")
    _require(n >= 1, "n must be >= 1")
    _require(k_max >= 0, "k_max must be >= 0")
    cuts = (1 << np.arange(int(n).bit_length()))[:, None] - 1  # P(M >= 2**j) = sf(2**j - 1)
    total = 0.0
    for k in range(k_max + 1):
        offsets = range(1 if k == 0 else 2 ** (k - 1))
        # rounding can push an area a hair past 1, where the binomial is undefined
        areas = np.minimum([rect_area(k, a, f) for a in offsets], 1.0)
        heads = np.array([shifted_gamma_length(k) + shifted_gamma_length(a) + 1 for a in offsets])
        tail = _binom.sf(cuts, n, areas)
        total += float(heads @ tail[0] + 2.0 * tail[1:].sum())
    return total


def truncated_payload_bits(data: bytes, k_max: int = 8) -> int:
    """Bits spent by a unit-scheme container on rectangles of depth <= k_max.

    This is the empirical counterpart of exact_expected_length_unit: the
    enumerator ignores rectangles deeper than k_max, so a fair comparison
    must drop their codeword bits too.
    """
    _require(k_max >= 0, "k_max must be >= 0")
    header, source = read_container(data)
    if header.scheme != SCHEME_UNIT:
        raise ValueError("depth truncation applies to unit-scheme containers")
    kept = 0
    for k, a, count in dyadic_codec.decode_triples(source, header.n):
        if k <= k_max:
            kept += shifted_gamma_length(k) + shifted_gamma_length(a) + gamma_length(count)
    if source.bits_remaining:
        raise FormatError(f"{source.bits_remaining} unread payload bits after the triples")
    return kept


@dataclass(frozen=True)
class EmpiricalLength:
    scheme: str
    dist_name: str
    n: int
    trials: int
    mean: float
    stderr: float
    lengths: tuple[int, ...]


def empirical_length(dist, n: int, trials: int, seed: int) -> EmpiricalLength:
    """Mean payload bits over independent simulate runs, with standard error.

    Trial t draws from the substream (seed, t), so results are reproducible
    and trials can be extended without disturbing earlier ones.
    """
    _require(trials >= 1, "trials must be >= 1")
    root = RandomSource.from_seed(seed)
    lengths = np.empty(trials, dtype=np.int64)
    for t in range(trials):
        data = simulate_any(dist, n, root.child("trial", t))
        lengths[t] = read_header(data).payload_bits
    mean = float(lengths.mean())
    stderr = float(lengths.std(ddof=1) / math.sqrt(trials)) if trials > 1 else 0.0
    return EmpiricalLength(dist.support, dist.name, n, trials,
                           mean, stderr, tuple(int(v) for v in lengths))


def reference_bound(dist, n: int) -> float | None:
    """The closed-form ceiling matching the law's support and certificate."""
    if dist.support == "unit":
        return thm3_bound(dist.f0, n)
    cert = dist.tail_params
    if cert is None:
        return None
    if dist.support == "int":
        return (thm2_bound if cert.kind == "exponential" else thm1_bound)(cert.c, cert.lam, n)
    return thm4_bound(cert.c, cert.lam, dist.f0, n) if cert.kind == "power" else None


_KS_COEFF = 1.628  # large-sample two-sample KS coefficient at 0.01, the level of every test
_MIN_EXPECTED = 10.0  # least expected count of a chi-square cell


def ks_two_sample(a, b) -> tuple[float, bool]:
    """Two-sample Kolmogorov-Smirnov statistic and accept/reject at level 0.01.

    The critical value is 1.628 sqrt((m + n) / (m n)), the standard
    large-sample coefficient at that level.
    """
    a = np.sort(np.asarray(a, dtype=float))
    b = np.sort(np.asarray(b, dtype=float))
    m, n = a.size, b.size
    _require(m > 0 and n > 0, "both samples must be nonempty")
    pooled = np.concatenate([a, b])
    gap = (np.searchsorted(a, pooled, side="right") / m
           - np.searchsorted(b, pooled, side="right") / n)
    stat = float(np.abs(gap).max())
    return stat, stat <= _KS_COEFF * math.sqrt((m + n) / (m * n))


def chi_square(counts, probs) -> tuple[float, bool]:
    """Pearson chi-square statistic against cell probabilities, and the
    accept/reject outcome at level 0.01 with len(counts) - 1 degrees."""
    counts = np.asarray(counts, dtype=float)
    probs = np.asarray(probs, dtype=float)
    _require(counts.shape == probs.shape and counts.ndim == 1, "counts and probs must be matching vectors")
    _require(counts.size >= 2, "need at least two cells")
    _require(bool(np.all(probs > 0.0)), "cell probabilities must be positive")
    _require(abs(float(probs.sum()) - 1.0) < 1e-6, "cell probabilities must sum to 1")
    expected = counts.sum() * probs
    stat = float(((counts - expected) ** 2 / expected).sum())
    critical = float(_chi2.ppf(0.99, counts.size - 1))
    return stat, stat <= critical


def integer_cells(dist: IntegerDistribution, n_draws: int) -> tuple[int, np.ndarray]:
    """Cut points for a chi-square test: cells {1}, ..., {K}, {> K} chosen so
    every expected count is at least 10.  Returns (K, probs)."""
    _require(n_draws >= 1, "n_draws must be >= 1")
    k = 1
    while k < 64 and n_draws * float(dist.pmf(k + 1)) >= _MIN_EXPECTED:
        k += 1
    while k > 1 and n_draws * float(dist.tail(k)) < _MIN_EXPECTED:
        k -= 1
    probs = np.append(dist.pmf(np.arange(1, k + 1)), float(dist.tail(k)))
    return k, probs


def chi_square_vs_pmf(samples, dist: IntegerDistribution) -> tuple[float, bool]:
    """Chi-square goodness of fit of integer samples against the handle's pmf,
    at level 0.01."""
    samples = np.asarray(samples)
    k, probs = integer_cells(dist, samples.size)
    counts = np.bincount(np.minimum(samples, k + 1), minlength=k + 2)[1:]
    return chi_square(counts, probs)


def verify_trial(dist, n: int, rng: RandomSource) -> tuple[str, float, bool]:
    """One encode/decode round trip plus a distribution test at level 0.01 on
    the output.

    Integer outputs face a chi-square test against the declared pmf; real
    outputs face a two-sample KS test against a fresh direct sample.
    Returns (test name, statistic, accepted).
    """
    data = simulate_any(dist, n, rng.child("sim"))
    out = desimulate_any(data, rng.child("dec"))
    if dist.support == "int":
        stat, ok = chi_square_vs_pmf(out, dist)
        return "chi_square", stat, ok
    reference = dist.sample(rng.child("ref"), n)
    stat, ok = ks_two_sample(out, reference)
    return "ks", stat, ok


def loglog_slope(points) -> float:
    """Least-squares slope of log(mean bits) against log(n)."""
    pts = [(float(n), float(y)) for n, y in points]
    _require(len(pts) >= 2, "need at least two (n, mean) points")
    _require(all(n > 0 and y > 0 for n, y in pts), "points must be positive")
    _require(len({n for n, _ in pts}) >= 2, "need at least two distinct n")
    xs = np.log([n for n, _ in pts])
    ys = np.log([y for _, y in pts])
    return float(np.polyfit(xs, ys, 1)[0])
