"""End-to-end checks of the package's headline claims.

Each test covers one numbered claim and prints a single summary line outside
pytest's capture, so a captured log still shows ACCEPTANCE k: PASS/FAIL next
to pytest's own verdicts.
"""

import math
import time
from contextlib import contextmanager

import numpy as np
import pytest

from dsim.bounds_analysis import (
    check_majorization,
    empirical_length,
    exact_expected_length_unit,
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
from dsim.bitcodes import BitSource
from dsim.cli import main as cli_main
from dsim.distributions import exponential, geometric, pareto_flat, triangular, validate_tail, zipf
from dsim.dyadic_codec import locate_batch, rect_area, rect_bounds
from dsim.dyadic_codec import simulate as unit_simulate
from dsim.integer_codec import decode_multiset, encode_multiset
from dsim.rng import RandomSource


@contextmanager
def criterion(capsys, idx):
    """Print exactly one ACCEPTANCE line for the enclosed checks."""
    note = {"detail": "ok"}
    try:
        yield note
    except BaseException as exc:
        with capsys.disabled():
            print(f"\nACCEPTANCE {idx}: FAIL - {exc}")
        raise
    with capsys.disabled():
        print(f"\nACCEPTANCE {idx}: PASS - {note['detail']}")


def formula_accounting(values) -> int:
    """Total codeword length under floor(2 log2 Z + 1) per integer, plus one
    flag bit for every codeword after the first."""
    values = sorted(values)
    total = paper_gamma_accounting(values[0])
    i = 1
    while i < len(values):
        if values[i] > values[i - 1]:
            total += 1 + paper_gamma_accounting(values[i] - values[i - 1])
            i += 1
        else:
            j = i
            while j < len(values) and values[j] == values[j - 1]:
                j += 1
            total += 1 + paper_gamma_accounting(j - i)
            i = j
    return total


def test_criterion_1_reference_frequency_table(capsys):
    # 10^4 draws tallied as value -> count; both length figures are exact
    with criterion(capsys, 1) as note:
        counts = {1: 7040, 2: 2056, 3: 641, 4: 184, 5: 53, 6: 13, 7: 9, 8: 3, 9: 1}
        values = np.repeat(list(counts), list(counts.values()))
        assert values.size == 10**4
        sink = encode_multiset(values)
        constructed = sink.bit_length
        accounted = formula_accounting(values)
        assert constructed == 135, f"constructed length {constructed} != 135"
        assert accounted == 139, f"accounted length {accounted} != 139"
        decoded = np.repeat(*decode_multiset(BitSource(sink.to_bytes(), sink.bit_length), values.size))
        assert np.array_equal(decoded, np.sort(values))
        note["detail"] = "constructed 135 bits, formula accounting 139 bits, lossless"


def test_criterion_2_thousand_lossless_round_trips(capsys):
    with criterion(capsys, 2) as note:
        start = time.monotonic()
        sizes = np.random.default_rng(20260814).integers(1, 10**4 + 1, size=1000)
        dists = (geometric(0.7), zipf(3.0))
        root = RandomSource.from_seed(314159)
        for t, n in enumerate(sizes):
            values = dists[t % 2].sample(root.child("case", t), int(n))
            sink = encode_multiset(values)
            decoded = np.repeat(*decode_multiset(BitSource(sink.to_bytes(), sink.bit_length), int(n)))
            assert np.array_equal(decoded, np.sort(values)), f"case {t} corrupted"
        elapsed = time.monotonic() - start
        assert elapsed < 30.0, f"took {elapsed:.1f} s"
        note["detail"] = f"1000/1000 multisets identical in {elapsed:.1f} s"


def _dominance_run(dist, trials, seed=2026):
    means = []
    worst = 0.0
    for n in (100, 1000, 10**4):
        result = empirical_length(dist, n, trials, seed)
        bound = reference_bound(dist, n)
        assert result.mean <= bound, f"n={n}: mean {result.mean:.1f} > bound {bound:.1f}"
        worst = max(worst, result.mean / bound)
        means.append((n, result.mean))
    slope = loglog_slope(means)
    assert 0.0 < slope < 1.0, f"slope {slope:.3f} not sublinear"
    return slope, worst


def test_criterion_3_geometric_below_exponential_tail_ceiling(capsys):
    with criterion(capsys, 3) as note:
        dist = geometric(0.7)
        cert = dist.tail_params
        assert cert.kind == "exponential" and cert.c == 1.5
        assert cert.lam == pytest.approx(math.log(10 / 3), rel=1e-12)
        assert reference_bound(dist, 50) == thm2_bound(cert.c, cert.lam, 50)
        slope, worst = _dominance_run(dist, trials=100)
        note["detail"] = f"mean/bound <= {worst:.3f} at all n, slope {slope:.3f}"


def test_criterion_4_zipf_below_power_tail_ceiling(capsys):
    with criterion(capsys, 4) as note:
        dist = zipf(3.0)
        cert = dist.tail_params
        assert cert.kind == "power" and cert.lam == 2.0
        grid = np.unique(np.geomspace(1, 10**6, 60).astype(np.int64))
        assert validate_tail(dist, cert.c, cert.lam, "power", grid)
        assert reference_bound(dist, 50) == thm1_bound(cert.c, cert.lam, 50)
        slope, worst = _dominance_run(dist, trials=100)
        note["detail"] = f"certificate holds, mean/bound <= {worst:.3f}, slope {slope:.3f}"


def test_criterion_5_exact_expectation_tracks_monte_carlo(capsys):
    with criterion(capsys, 5) as note:
        tri = triangular()
        ns = (100, 1000, 10**4)
        exact = [exact_expected_length_unit(tri, n, k_max=8) for n in ns]
        for n, value in zip(ns, exact):
            ceiling = thm3_bound(2.0, n)
            assert value <= ceiling, f"n={n}: exact {value:.1f} > bound {ceiling:.1f}"
        slope = loglog_slope(list(zip(ns, exact)))
        assert 0.0 < slope < 1.0, f"slope {slope:.3f} not sublinear"

        root = RandomSource.from_seed(2026)
        lengths = np.array([
            truncated_payload_bits(unit_simulate(tri, 1000, root.child("mc", t)), k_max=8)
            for t in range(200)
        ], dtype=float)
        stderr = lengths.std(ddof=1) / math.sqrt(lengths.size)
        gap = abs(lengths.mean() - exact[1])
        assert gap <= 3.0 * stderr, f"MC off by {gap / stderr:.2f} standard errors"
        note["detail"] = (f"slope {slope:.3f}, MC mean {lengths.mean():.1f} vs exact "
                          f"{exact[1]:.1f} ({gap / stderr:.2f} stderr)")


def brute_locate(xs, ys, f, k_cap):
    """Exhaustive membership scan over every rectangle of depth <= k_cap.

    Returns (ks, offsets, hit counts); a point inside no rectangle at these
    depths keeps k = -1 and count 0.
    """
    ks = np.full(xs.size, -1, dtype=np.int64)
    offs = np.full(xs.size, -1, dtype=np.int64)
    hits = np.zeros(xs.size, dtype=np.int64)
    for k in range(k_cap + 1):
        cell = np.floor(np.ldexp(xs, k)).astype(np.int64)
        a = cell >> 1
        inside = ((cell & 1) == 0) & (a <= max(2 ** (k - 1) - 1, 0))
        y_lo = f.pdf(np.ldexp((a + 1).astype(float), 1 - k))
        y_hi = f.pdf(np.ldexp((2 * a + 1).astype(float), -k))
        inside &= (ys >= y_lo) & (ys < y_hi)
        ks[inside] = k
        offs[inside] = a[inside]
        hits += inside
    return ks, offs, hits


def test_criterion_6_partition_identity_and_locator_oracle(capsys):
    with criterion(capsys, 6) as note:
        tri = triangular()
        depth_sum = [rect_area(0, 0, tri)]
        for k in range(1, 13):
            depth_sum.append(sum(rect_area(k, a, tri) for a in range(2 ** (k - 1))))
        for K in range(1, 13):
            covered = sum(depth_sum[: K + 1])
            assert covered == pytest.approx(1.0 - 2.0**-K, abs=1e-10), f"K={K}"

        m = 10**5
        gen = RandomSource.from_seed(606).gen
        xs = tri.cdf_inverse(gen.random(m))
        ys = gen.random(m) * tri.pdf(xs)
        ks, offs, unresolved = locate_batch(xs, ys, tri)

        # every returned rectangle must actually contain its point
        for i in np.flatnonzero(~unresolved):
            x_lo, x_hi, y_lo, y_hi = rect_bounds(int(ks[i]), int(offs[i]), tri)
            assert x_lo <= xs[i] < x_hi and y_lo <= ys[i] < y_hi, f"point {i}"

        k_cap = 25
        bk, boffs, hits = brute_locate(xs, ys, tri, k_cap)
        assert int(hits.max()) <= 1, "a point fell in two rectangles"
        seen = hits == 1
        agree = seen & ~unresolved & (ks == bk) & (offs == boffs)
        assert np.array_equal(agree, seen), "locator disagrees with the scan"
        deep = ~seen
        assert np.all(unresolved[deep] | (ks[deep] > k_cap)), (
            "locator claimed a shallow rectangle the scan ruled out")
        note["detail"] = (f"coverage exact for K<=12; {m} points agree with the "
                          f"membership scan ({int(deep.sum())} deeper than k={k_cap})")


def test_criterion_7_decoded_output_is_distributionally_exact(capsys):
    with criterion(capsys, 7) as note:
        pairs = [
            ("int", geometric(0.7)),
            ("unit", triangular()),
            ("halfline", exponential(1.0)),
            ("halfline", pareto_flat(2.0, 2.0)),
        ]
        root = RandomSource.from_seed(2026)
        rates = []
        for scheme, dist in pairs:
            passed = 0
            for t in range(100):
                passed += verify_trial(dist, 10**4, root.child(scheme, dist.name, t))[2]
            assert passed >= 90, f"{scheme}/{dist.name}: only {passed}/100 seeds passed"
            rates.append(f"{scheme}/{dist.name} {passed}/100")
        note["detail"] = "; ".join(rates)


def test_criterion_8_halfline_lengths_below_ceiling_with_majorization(capsys):
    with criterion(capsys, 8) as note:
        dist = pareto_flat(2.0, 2.0)
        cert = dist.tail_params
        assert reference_bound(dist, 50) == thm4_bound(cert.c, cert.lam, dist.f0, 50)
        slope, worst = _dominance_run(dist, trials=50)
        grid = np.geomspace(1e-3, 1e3, 40)
        for f in (exponential(1.0), dist):
            majorant = pareto_flat(f.tail_params.c, f.tail_params.lam)
            assert check_majorization(f, majorant, grid), f"{f.name} vs {majorant}"
        note["detail"] = f"mean/bound <= {worst:.3f}, slope {slope:.3f}, majorization holds"


def test_criterion_9_cli_outputs_are_byte_identical(tmp_path, capsys):
    with criterion(capsys, 9) as note:
        blobs, csvs, benches = [], [], []
        for tag in ("first", "second"):
            blob = tmp_path / f"{tag}.dsim"
            csv = tmp_path / f"{tag}.csv"
            bench = tmp_path / f"{tag}_bench.csv"
            assert cli_main(["encode", "--dist", "exp:lambda=1",
                             "-n", "500", "--seed", "99", "-o", str(blob)]) == 0
            assert cli_main(["decode", str(blob), "--seed", "100", "-o", str(csv)]) == 0
            assert cli_main(["bench", "--dist", "triangular",
                             "--n-list", "100,400", "--trials", "5", "--seed", "101",
                             "-o", str(bench)]) == 0
            blobs.append(blob.read_bytes())
            csvs.append(csv.read_bytes())
            benches.append(bench.read_bytes())
        assert blobs[0] == blobs[1], "container files differ between identical runs"
        assert csvs[0] == csvs[1], "decoded CSVs differ between identical runs"
        assert benches[0] == benches[1], "bench CSVs differ between identical runs"
        note["detail"] = "encode, decode, and bench outputs byte-identical across reruns"
