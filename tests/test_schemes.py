"""Properties shared by the three schemes: pinned container bytes, the
encoders' memory at n = 10**6 (and the unit encoder's at 10**7), the unit
encoder's page faults, the checks every codec makes on the kind of handle it
is given and on the scheme of the container it decodes, the empty stream, the
header's range of n, and decoding of corrupted payloads."""

import hashlib
import os
import platform
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dsim
from dsim import desimulate_any, dyadic_codec, halfline_codec, integer_codec, simulate_any
from dsim.bitcodes import (
    SCHEME_HALFLINE,
    SCHEME_INTEGER,
    SCHEME_UNIT,
    FormatError,
    TruncatedStreamError,
    read_container,
    read_header,
    write_container,
)
from dsim.distributions import exponential, geometric, pareto_flat, triangular, zipf
from dsim.rng import RandomSource
from oracles import bit_fields, read_bits

# sha256 of the container and of the decoded samples' bytes for each built-in
# scheme/law pair at n = 1000.  A container byte must never change, so these
# digests may only be re-recorded together with a new format version.
PINS = [
    ("int", geometric(0.7), 11,
     "23eb1617af441806070ae3a3c6e65bada3dab397e1406d0c5494e9bbf514c8c5",
     "b662877bbb2288397c9adfada8e6f3be92eab3757cf5e0c60e570b6e6d7155de"),
    ("int", zipf(3.0), 12,
     "9d913f32fde161d1e60a2f4d7cc6dfc9a3c3c33dcfef9b8f6623e38ae33b8c8e",
     "8018375a3ca48d7562320633954fd64dcfabd0b8b97a4d9edfc74a9404065341"),
    ("unit", triangular(), 13,
     "6c89b109e1aebcff42969196453fb4ede21e17f68a4ecae2377049dc46d14b43",
     "18dcfbc2303278dbb19392a46c9d459b6d3ac3fa850de00a6f00b4dcf68c5c28"),
    ("halfline", exponential(1.0), 14,
     "501b8d20389f3ba01582d2a63ce38fc68587b69c900e18d99e55d540de19ba85",
     "55c93be23d586f07926c229b6bb6bbc1348b7925ad46a13736d85d404526532c"),
    ("halfline", pareto_flat(2.0, 2.0), 15,
     "57509f77849d9e5f2dc18d3608a3a7cf2ccfe0f53939d1561cecc7bf09319cd8",
     "37c8eb156baf11772d5419295423fc45aa821fbfcab093054c3cd0b206842359"),
]


@pytest.mark.parametrize("scheme, dist, seed, container_sha, samples_sha", PINS,
                         ids=[f"{p[0]}-{p[1].name}" for p in PINS])
def test_container_and_samples_are_pinned(scheme, dist, seed, container_sha, samples_sha):
    root = RandomSource.from_seed(seed)
    assert dist.support == scheme
    data = simulate_any(dist, 1000, root.child("encode"))
    out = desimulate_any(data, root.child("decode"))
    assert hashlib.sha256(data).hexdigest() == container_sha
    assert hashlib.sha256(out.tobytes()).hexdigest() == samples_sha


# one sha256 over the containers and decoded samples of every density law
# below at several n and seeds: the unit scheme, the half-line scheme's head,
# tail and nearly flat bins, and the exponential(2**58) law whose encoder
# draws reach the resampling path.  Recorded like the pins above.
SWEEP_LAWS = [triangular(), exponential(1.0), exponential(0.01), exponential(2.0**14),
              exponential(2.0**58), pareto_flat(2.0, 2.0), pareto_flat(1.5, 1.2)]
SWEEP_SHA = "f496b0d19df1c5725aa12249771fd7253083c83d2076dc1709d0dbd830399748"


def test_density_sweep_is_pinned():
    h = hashlib.sha256()
    for dist in SWEEP_LAWS:
        for n in (1, 7, 1000, 30000):
            for seed in range(4):
                root = RandomSource.from_seed(seed)
                data = simulate_any(dist, n, root.child("encode"))
                h.update(data)
                h.update(desimulate_any(data, root.child("decode")).tobytes())
    assert h.hexdigest() == SWEEP_SHA


# one sha256 over the unit and half-line containers of the density laws at
# n = 10**6, where the locator reads the thresholds of depths 1 to about 9
# from a grid of density values; the sweep above reaches about depth 7.
# Recorded like the pins above.
MILLION_SHA = "7bc77717ff97ee262579d3da10de0f0a946dccf77cfd64c0344634399d52d275"


def test_containers_at_a_million_are_pinned():
    h = hashlib.sha256()
    for dist, seed in [(triangular(), 16), (pareto_flat(2.0, 2.0), 17)]:
        h.update(simulate_any(dist, 10**6, RandomSource.from_seed(seed).child("encode")))
    assert h.hexdigest() == MILLION_SHA


# The tracemalloc peak of one encode at n = 10**6 may grow by at most 10% over
# 5.9 MiB (unit) and 20.6 MiB (half-line), read on numpy 2.4.6.  The unit
# encoder draws, locates and counts dyadic_codec.CHUNK points at a time, so its
# peak is one chunk's temporaries and does not grow with n (71.5 MiB when it
# located every point at once, 23.3 MiB in chunks of 2**18).  The half-line
# encoder's peak is its n draws, their stable sort order and their 16-bit bin
# keys (43.9 MiB when it drew and located every point at once, 30.5 MiB when
# it also kept an int64 bin and a bin-sorted copy of every draw).  Per-bin
# density tables in the half-line locator, built at every depth, peaked at
# 112.5 MiB; the locator builds its per-bin grid only at a depth where it is
# smaller than the points it serves.
MEMORY_BOUNDS = [(dyadic_codec, triangular(), 5.9), (halfline_codec, pareto_flat(2.0, 2.0), 20.6)]


def encode_peak(codec, dist, n: int) -> int:
    tracemalloc.start()
    try:
        codec.simulate(dist, n, RandomSource.from_seed(5))
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("codec, dist, mib", MEMORY_BOUNDS, ids=["unit", "halfline"])
def test_encode_memory_at_a_million(codec, dist, mib):
    peak = encode_peak(codec, dist, 10**6)
    assert peak <= 1.1 * mib * 2**20, f"peak {peak / 2**20:.1f} MiB"


def test_unit_encode_memory_at_ten_million_keeps_the_bound_of_a_million():
    codec, dist, mib = MEMORY_BOUNDS[0]
    peak = encode_peak(codec, dist, 10**7)
    assert peak <= 1.1 * mib * 2**20, f"peak {peak / 2**20:.1f} MiB"


# Minor page faults of the two unit encodes at n = 10**6 that follow an encode
# and a decode.  Freeing a buffer of 10**6 doubles, which glibc maps on its
# own, raises glibc's heap trim threshold to twice that size, 16 MB.  One
# chunk's temporaries (5.9 MiB at CHUNK = 2**16) fit below it, so every chunk
# reuses the heap pages of the one before: 0-1 faults per encode.  With chunks
# of 2**18 (23.3 MiB) each chunk gave its pages back to the kernel and faulted
# them in again: 5,481-8,483 faults per encode.
FAULT_PROBE = """
import resource
from dsim import dyadic_codec
from dsim.distributions import triangular
from dsim.rng import RandomSource

def encode(seed):
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    data = dyadic_codec.simulate(triangular(), 10**6, RandomSource.from_seed(seed))
    return data, resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before

data, _ = encode(0)
dyadic_codec.desimulate(data, RandomSource.from_seed(1))
print(encode(1)[1], encode(2)[1])
"""


@pytest.mark.skipif(sys.platform != "linux" or platform.libc_ver()[0] != "glibc",
                    reason="the fault count follows glibc's heap trimming")
def test_unit_encodes_reuse_their_heap_pages():
    proc = subprocess.run([sys.executable, "-c", FAULT_PROBE], capture_output=True, text=True, check=True,
                          env={**os.environ, "PYTHONPATH": str(Path(dsim.__file__).parents[1])})
    faults = [int(v) for v in proc.stdout.split()]
    assert len(faults) == 2 and max(faults) < 1000, faults


@pytest.mark.parametrize("codec, dist", [
    (dyadic_codec, geometric(0.5)),
    (dyadic_codec, exponential(1.0)),
    (halfline_codec, geometric(0.5)),
    (halfline_codec, triangular()),
    (integer_codec, exponential(0.1)),
    (integer_codec, triangular()),
], ids=lambda v: getattr(v, "__name__", None) or v.name)
def test_codecs_reject_handles_of_the_wrong_kind(codec, dist):
    for seed in range(20):
        with pytest.raises(ValueError):
            codec.simulate(dist, 3, RandomSource.from_seed(seed))


@pytest.mark.parametrize("codec, scheme, dist", [
    (integer_codec, SCHEME_INTEGER, geometric(0.7)),
    (dyadic_codec, SCHEME_UNIT, triangular()),
    (halfline_codec, SCHEME_HALFLINE, exponential(1.0)),
], ids=["int", "unit", "halfline"])
def test_empty_stream_carries_no_payload(codec, scheme, dist):
    assert simulate_any(dist, 0, RandomSource.from_seed(1)) == write_container(scheme, 0, [])
    out = codec.desimulate(write_container(scheme, 0, []), RandomSource.from_seed(1))
    assert out.shape == (0,)
    assert out.dtype == (np.int64 if codec is integer_codec else np.float64)
    # leftover bits are rejected at n = 0 as at n >= 1
    with pytest.raises(FormatError, match="unread payload bits"):
        codec.desimulate(write_container(scheme, 0, [(0b1011, 4)]), RandomSource.from_seed(1))


def payload_of_two_to_the_63_draws(scheme: int) -> np.ndarray:
    """Draws of the value (or bin) 5 only, then, for a dyadic scheme, two
    rectangles of 2**62 draws each."""
    fields = [np.zeros((0, 2), dtype=np.int64)]
    if scheme != SCHEME_UNIT:
        fields.append(np.array([(5, 5), (2**63 - 1, 126)]))  # gamma(5), "0" + gamma(2**63 - 1)
    if scheme != SCHEME_INTEGER:
        fields.append(dyadic_codec.write_triples([(0, 0, 2**62), (1, 0, 2**62)]))
    return np.concatenate(fields)


@pytest.mark.parametrize("codec, scheme", [
    (integer_codec, SCHEME_INTEGER), (dyadic_codec, SCHEME_UNIT), (halfline_codec, SCHEME_HALFLINE),
], ids=["int", "unit", "halfline"])
def test_header_rejects_n_past_its_range_before_the_payload(codec, scheme):
    # n = 2**63 with the payload that would draw it: the header's own message
    # shows that no decoder reads a count past int64
    data = write_container(scheme, 2**63, payload_of_two_to_the_63_draws(scheme))
    with pytest.raises(FormatError, match=r"samples, more than 2\*\*63 - 1"):
        codec.desimulate(data, RandomSource.from_seed(1))


CODEC_LAWS = [(integer_codec, geometric(0.7)), (dyadic_codec, triangular()),
              (halfline_codec, exponential(1.0))]


@pytest.mark.parametrize("codec, law", [(codec, law) for codec, _ in CODEC_LAWS
                                        for other, law in CODEC_LAWS if other is not codec],
                         ids=lambda v: getattr(v, "__name__", None) or v.support)
def test_codecs_reject_containers_of_the_other_schemes(codec, law):
    data = simulate_any(law, 100, RandomSource.from_seed(3))
    with pytest.raises(FormatError):
        codec.desimulate(data, RandomSource.from_seed(4))


# the payload bits and n of one valid stream per built-in law, to corrupt below
VALID_PAYLOADS = []
for _dist, _n in [(geometric(0.7), 300), (zipf(3.0), 200), (triangular(), 300),
                  (exponential(1.0), 300), (pareto_flat(2.0, 2.0), 200)]:
    _data = simulate_any(_dist, _n, RandomSource.from_seed(_n))
    _header = read_header(_data)
    _bits = _header.payload_bits
    VALID_PAYLOADS.append((_header.scheme, _n, read_container(
        _data, _header.scheme, lambda source, n: format(read_bits(source, _bits), f"0{_bits}b"))))


@st.composite
def framed_payloads(draw):
    """A valid header over random bits, or over a valid payload with bits
    flipped and perhaps its tail cut; n stays at most 400."""
    if draw(st.booleans()):
        scheme = draw(st.sampled_from([SCHEME_INTEGER, SCHEME_UNIT, SCHEME_HALFLINE]))
        n = draw(st.integers(0, 400))
        bits = draw(st.text("01", max_size=400))
    else:
        scheme, n, valid = draw(st.sampled_from(VALID_PAYLOADS))
        bits = list(valid)
        for i in draw(st.lists(st.integers(0, len(bits) - 1), max_size=6)):
            bits[i] = "10"[int(bits[i])]
        if draw(st.booleans()):
            bits = bits[:draw(st.integers(0, len(bits)))]
        bits = "".join(bits)
        n += draw(st.sampled_from([0, 0, -1, 1]))
    return scheme, n, write_container(scheme, n, bit_fields(bits))


@given(framed_payloads())
@settings(max_examples=400, deadline=None)
def test_corrupted_payload_decodes_in_support_or_raises_a_format_error(case):
    scheme, n, data = case
    try:
        out = desimulate_any(data, RandomSource.from_seed(1))
    except (FormatError, TruncatedStreamError):
        return
    assert out.shape == (n,) and np.all(np.isfinite(out))
    if scheme == SCHEME_INTEGER:
        assert np.all(out >= 1)
    elif scheme == SCHEME_UNIT:
        assert np.all((out >= 0.0) & (out < 1.0))
    else:
        assert np.all(out >= 0.0)
