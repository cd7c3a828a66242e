"""Workloads of the dsim codec benchmark and the round trip each stream takes.

A workload is a fixed list of streams; one pass round-trips every stream once
through its codec's public ``simulate`` and ``desimulate``.  A stream's inputs
come only from the run seed, the pass index and the stream's position, so one
seed always gives the same containers and samples.

Callers put the repository's ``src`` directory on ``sys.path`` before
importing this module (see ``run.py``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from dsim import RandomSource, distributions, dyadic_codec, halfline_codec, integer_codec

CODECS = {"int": integer_codec, "unit": dyadic_codec, "halfline": halfline_codec}

# Label mixed into every stream key, so warm-up passes never repeat a
# measured pass's inputs.
MEASURED, WARMUP = 0, 1


def uniform_integers(high: int = 10**9) -> distributions.IntegerDistribution:
    """I.i.d. integers uniform on [1, high]: about one distinct value per draw."""

    def pmf(x):
        x = np.asarray(x)
        return np.where((x >= 1) & (x <= high) & (x == np.floor(x)), 1.0 / high, 0.0)

    def tail(x):
        x = np.floor(np.asarray(x, dtype=float))
        return np.clip((high - x) / high, 0.0, 1.0)

    def sampler(rng, size):
        return rng.gen.integers(1, high + 1, size=size, dtype=np.int64)

    return distributions.IntegerDistribution(f"uniform(1..{high})", pmf, tail, sampler)


def steep_unit(lam: float) -> distributions.MonotonePdf:
    """Exponential law with rate lam, truncated to [0, 1]."""
    norm = -np.expm1(-lam)

    def pdf(x):
        return np.where((x >= 0.0) & (x <= 1.0), lam * np.exp(-lam * np.clip(x, 0.0, 1.0)) / norm, 0.0)

    def cdf(x):
        return -np.expm1(-lam * np.clip(x, 0.0, 1.0)) / norm

    def cdf_inverse(u):
        return -np.log1p(-u * norm) / lam

    return distributions.MonotonePdf(f"steep(lambda={lam:g})", "unit", pdf, cdf, cdf_inverse, f0=lam / norm)


@dataclass(frozen=True)
class Stream:
    scheme: str
    dist: object
    n: int


@dataclass(frozen=True)
class Workload:
    name: str
    streams: tuple[Stream, ...]
    # Streams of the untimed warm-up pass: same laws, smaller n.
    warmup: tuple[Stream, ...]
    # payload_bits_per_sample covers passes [0, quality_passes), which every
    # run makes, so the figure depends on the seed alone.
    quality_passes: int
    # Decodes per container.  Decoding is far cheaper than encoding here, so
    # repeats give decode_samples_per_s as much timed work as a few passes.
    decodes: int = 1


def _scaled(streams, n):
    return tuple(Stream(s.scheme, s.dist, n) for s in streams)


def _density():
    # Encode is ~96% of this round trip and the dyadic locator and grouping
    # ~90% of encode; the bit layer writes only ~50 kbit per stream.
    streams = (Stream("unit", distributions.triangular(), 10**6),
               Stream("halfline", distributions.pareto_flat(2.0, 2.0), 10**6))
    return Workload("density-1e6", streams, _scaled(streams, 10**5), 4, decodes=10)


def _int_spread():
    # ~10^6 distinct values and ~19 bits per sample: both sides run the
    # per-codeword Python of the integer codec, and decode outweighs encode.
    # The dyadic codec is not used at all.
    streams = (Stream("int", uniform_integers(10**9), 10**6),)
    return Workload("int-spread", streams, _scaled(streams, 10**5), 1)


def _ceiling_sweep():
    # The paper's length experiment: fixed costs per stream and per bin
    # (substream derivation, bin restriction, framing) dominate at small n.
    laws = (("int", distributions.geometric(0.7)),
            ("int", distributions.zipf(3.0)),
            ("unit", distributions.triangular()),
            ("halfline", distributions.exponential(1.0)),
            ("halfline", distributions.pareto_flat(2.0, 2.0)))
    streams = tuple(Stream(scheme, dist, n) for scheme, dist in laws for n in (10**2, 10**3, 10**4))
    return Workload("ceiling-sweep", streams, streams, 10, decodes=3)


def _deep_levels():
    # A byte canary rather than a timed workload.  Laws squeezed into about
    # [0, 2**-14) put their triples at depths ~14 to ~34, deeper than the
    # streams of density-1e6 reach (21 to 24), at a small share of the cost.
    laws = (("unit", steep_unit(2.0**14)), ("halfline", distributions.exponential(2.0**14)))
    streams = tuple(Stream(scheme, dist, n) for scheme, dist in laws for n in (10**4, 10**5))
    return Workload("deep-levels", streams, _scaled(streams, 10**3), 1)


WORKLOADS = {"density-1e6": _density, "int-spread": _int_spread, "ceiling-sweep": _ceiling_sweep,
             "deep-levels": _deep_levels}


def build(name: str) -> Workload:
    return WORKLOADS[name]()


def stream_sources(seed: int, label: int, pass_index: int, position: int) -> tuple[RandomSource, RandomSource]:
    """Encoder and decoder sources of one stream.

    Built from a key rather than with ``RandomSource.child`` so that the
    benchmark's own derivations never show up in the traced ``rng`` layer.
    """
    key = (seed, label, pass_index, position)
    return RandomSource(key + (0,)), RandomSource(key + (1,))


def round_trip(stream: Stream, enc: RandomSource, dec: RandomSource, clock, decodes: int = 1):
    """Encode one stream, then decode it ``decodes`` times.

    Returns (container, encoded multiset or None, samples, encode_ns,
    decode_ns summed over the decodes); only the codec calls are inside the
    timed intervals.  Decoding is deterministic in its source, so every
    repeat must give the same samples.
    """
    codec = CODECS[stream.scheme]
    t0 = clock()
    encoded = codec.simulate(stream.dist, stream.n, enc)
    t1 = clock()
    data, multiset = encoded if stream.scheme == "int" else (encoded, None)
    decode_ns = 0
    samples = None
    for _ in range(decodes):
        t2 = clock()
        again = codec.desimulate(data, dec)
        decode_ns += clock() - t2
        if samples is not None and not np.array_equal(again, samples):
            raise RuntimeError("decoding the same container twice gave different samples")
        samples = again
    return data, multiset, samples, t1 - t0, decode_ns


def check(stream: Stream, multiset, samples) -> str | None:
    """Why a round trip is wrong, or None when it is right.

    'int' must give back exactly the multiset that simulate encoded; 'unit'
    and 'halfline' must give n finite values inside their support.
    """
    samples = np.asarray(samples)
    if samples.shape != (stream.n,):
        return f"decoded {samples.shape} values, expected {stream.n}"
    if stream.scheme == "int":
        if not np.array_equal(np.sort(samples), multiset):
            return "decoded multiset differs from the encoded one"
        return None
    if not np.all(np.isfinite(samples)):
        return "decoded a non-finite value"
    high = 1.0 if stream.scheme == "unit" else np.inf
    if samples.size and (samples.min() < 0.0 or samples.max() > high):
        return f"decoded a value outside the {stream.scheme} support"
    return None
