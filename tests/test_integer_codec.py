"""Multiset codec and the integer sampling scheme."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dsim
from dsim.bitcodes import (
    HEADER_SIZE,
    MAX_VALUE,
    SCHEME_INTEGER,
    FormatError,
    TruncatedStreamError,
    read_container,
    read_header,
    write_container,
)
from dsim.distributions import geometric, zipf
from dsim.integer_codec import decode_multiset, desimulate, encode_multiset, simulate
from dsim.rng import RandomSource
from oracles import bit_fields, from_bitstring, packed, runs, to_bitstring


def encode_to_bitstring(values) -> str:
    return to_bitstring(encode_multiset(*runs(values)))


def decode_bitstring(s: str, n: int) -> list[int]:
    return np.repeat(*decode_multiset(from_bitstring(s), n)).tolist()


class TestKnownCodewords:
    def test_singleton(self):
        assert encode_to_bitstring([5]) == "00101"

    def test_zero_run(self):
        # D = (3, 0, 0): bare gamma(3), then "0" + gamma(2) for the run
        assert encode_to_bitstring([3, 3, 3]) == "0110010"

    def test_positive_differences(self):
        # D = (1, 1, 2): gamma(1), "1" gamma(1), "1" gamma(2)
        assert encode_to_bitstring([1, 2, 4]) == "1111010"

    def test_interior_run(self):
        # sorted (2, 2, 5): gamma(2), "0" gamma(1), "1" gamma(3)
        assert encode_to_bitstring([5, 2, 2]) == "010011011"

    def test_decode_known(self):
        assert decode_bitstring("00101", 1) == [5]
        assert decode_bitstring("0110010", 3) == [3, 3, 3]
        assert decode_bitstring("1111010", 3) == [1, 2, 4]

    def test_decode_returns_runs(self):
        values, counts = decode_multiset(from_bitstring("010011011"), 3)
        assert values.tolist() == [2, 5] and counts.tolist() == [2, 1]
        assert values.dtype == counts.dtype == np.int64

    def test_order_does_not_matter(self):
        a = encode_to_bitstring([9, 1, 4, 4, 2])
        b = encode_to_bitstring([4, 4, 9, 2, 1])
        assert a == b

    def test_point_mass_payload(self):
        # one hundred copies of 1: gamma(1) + "0" + gamma(99) = 1 + 1 + 13
        assert encode_multiset(*runs([1] * 100))[:, 1].sum() == 15


class TestTableOfCounts:
    FREQS = [7040, 2056, 641, 184, 53, 13, 9, 3, 1]

    def test_constructed_length(self):
        values = np.repeat(np.arange(1, 10), self.FREQS)
        assert encode_multiset(*runs(values))[:, 1].sum() == 135

    def test_round_trip(self):
        values = np.repeat(np.arange(1, 10), self.FREQS)
        src = packed(encode_multiset(*runs(values)))
        assert np.array_equal(np.repeat(*decode_multiset(src, values.size)), np.sort(values))
        assert src.bits_remaining == 0


class TestRoundTrip:
    @given(st.lists(st.integers(1, 10**6), min_size=1, max_size=300))
    @settings(max_examples=200, deadline=None)
    def test_arbitrary_multisets(self, values):
        src = packed(encode_multiset(*runs(values)))
        assert np.repeat(*decode_multiset(src, len(values))).tolist() == sorted(values)
        assert src.bits_remaining == 0

    @given(st.lists(st.integers(MAX_VALUE - 3, MAX_VALUE), min_size=1, max_size=8))
    @settings(max_examples=50)
    def test_extreme_values(self, values):
        src = packed(encode_multiset(*runs(values)))
        assert np.repeat(*decode_multiset(src, len(values))).tolist() == sorted(values)

    @given(st.dictionaries(st.integers(1, 2**62), st.integers(1, 10**6), max_size=60))
    @settings(max_examples=200, deadline=None)
    def test_decoded_runs_rewrite_the_payload(self, multiplicity):
        # the runs decode_multiset returns are what encode_multiset takes
        values = sorted(multiplicity)
        s = to_bitstring(encode_multiset(values, [multiplicity[v] for v in values]))
        again = encode_multiset(*decode_multiset(from_bitstring(s), sum(multiplicity.values())))
        assert to_bitstring(again) == s

    def test_streams_compose(self):
        src = from_bitstring(encode_to_bitstring([4, 4, 7]) + encode_to_bitstring([1, 100]))
        assert np.repeat(*decode_multiset(src, 3)).tolist() == [4, 4, 7]
        assert np.repeat(*decode_multiset(src, 2)).tolist() == [1, 100]
        assert src.bits_remaining == 0


class TestValidation:
    def test_empty_multiset_has_the_empty_codeword(self):
        assert encode_multiset([], []).shape == (0, 2)
        with pytest.raises(ValueError):
            encode_multiset([[1, 2]], [[1, 1]])

    def test_nonpositive_rejected(self):
        with pytest.raises(ValueError):
            encode_multiset(*runs([3, 0]))
        with pytest.raises(ValueError):
            encode_multiset(*runs([-2]))

    @pytest.mark.parametrize("values, counts", [
        ([3, 2], [1, 1]),  # out of order
        ([2, 2], [1, 1]),  # a value repeated
        ([2, -2**63 + 1], [1, 1]),  # out of order, by a difference that wraps in int64
        ([0, 2], [1, 1]),  # below 1
        ([-5], [2]),
        ([1, 2], [1, 0]),  # a count below 1
        ([4], [-1]),
        ([1, 2], [1]),  # mismatched lengths
        ([1], [1, 1]),
        (3, 1),  # not 1-d
        ([[1, 2]], [1, 1]),
    ])
    def test_bad_runs_rejected(self, values, counts):
        with pytest.raises(ValueError):
            encode_multiset(values, counts)

    def test_too_large_rejected(self):
        with pytest.raises((ValueError, OverflowError)):
            encode_multiset([MAX_VALUE + 1], [1])

    def test_decode_of_zero_values_reads_no_bit(self):
        src = from_bitstring("1")
        values, counts = decode_multiset(src, 0)
        assert values.size == counts.size == 0
        assert values.dtype == counts.dtype == np.int64
        assert src.bits_remaining == 1
        with pytest.raises(ValueError):
            decode_multiset(src, -1)

    def test_decode_truncated(self):
        with pytest.raises(TruncatedStreamError):
            decode_bitstring("00101", 2)  # stream ends after the first value

    def test_decode_run_overshoot(self):
        # gamma(1) then "0" + gamma(3): run of 3 zeros after 1 value, n = 2
        with pytest.raises(FormatError):
            decode_bitstring("10011", 2)

    def test_zero_run_after_a_zero_run_rejected(self):
        # [5, 5, 5] as the encoder writes it, gamma(5) 0 gamma(2), and as two
        # zero runs, gamma(5) 0 gamma(1) 0 gamma(1): payload bytes 29 00 and 2a 80
        assert decode_bitstring("001010010", 3) == [5, 5, 5]
        data = write_container(SCHEME_INTEGER, 3, [(0b001010101, 9)])
        assert data[HEADER_SIZE:] == bytes.fromhex("2a80")
        with pytest.raises(FormatError, match="zero run follows a zero run"):
            desimulate(data, RandomSource.from_seed(1))

    def test_n_outside_the_header_range_rejected(self):
        for n in (-1, MAX_VALUE + 1, 2**64):
            with pytest.raises(ValueError):
                decode_multiset(from_bitstring("1"), n)


# Decodes int and halfline containers whose header declares far more values
# than the payload could hold, under a 1 GiB cap on the process's address
# space, and prints the name of the exception each one raises.
DECLARED_COUNT_PROBE = """
import resource
from dsim import halfline_codec, integer_codec
from dsim.bitcodes import SCHEME_HALFLINE, SCHEME_INTEGER, write_container
from dsim.rng import RandomSource
resource.setrlimit(resource.RLIMIT_AS, (1 << 30, resource.getrlimit(resource.RLIMIT_AS)[1]))
for codec, scheme in ((integer_codec, SCHEME_INTEGER), (halfline_codec, SCHEME_HALFLINE)):
    for n in (2**28, 2**40, 2**63 - 1):
        for payload in ([], [(1, 1)]):
            try:
                codec.desimulate(write_container(scheme, n, payload), RandomSource.from_seed(1))
            except Exception as exc:
                print(type(exc).__name__)
"""


class TestDeclaredCount:
    def test_payload_bounds_the_run_buffers(self):
        # every run of the multiset costs at least one bit, so the decoder
        # sizes nothing by a declared count that its payload cannot hold
        env = {**os.environ, "PYTHONPATH": str(Path(dsim.__file__).parents[1])}
        proc = subprocess.run([sys.executable, "-c", DECLARED_COUNT_PROBE],
                              capture_output=True, text=True, env=env)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == ["TruncatedStreamError"] * 12


# int payloads to mutate, each with its n: small and wide values, long and short runs
CANARY_PAYLOADS = [(to_bitstring(encode_multiset(*runs(dist.sample(RandomSource.from_seed(seed), n)))), n)
                   for dist, n, seed in ((geometric(0.7), 300, 1), (zipf(2.5), 40, 2), (geometric(0.3), 12, 3))]


@st.composite
def mutated_int_containers(draw):
    """An int canary with bits flipped, its payload cut short, or its header's n changed."""
    bits, n = draw(st.sampled_from(CANARY_PAYLOADS))
    bits = list(bits)
    for i in draw(st.lists(st.integers(0, len(bits) - 1), max_size=6)):
        bits[i] = "10"[int(bits[i])]
    if draw(st.booleans()):
        bits = bits[:draw(st.integers(0, len(bits)))]
    fields = bit_fields("".join(bits))
    return write_container(SCHEME_INTEGER, draw(st.one_of(st.just(n), st.integers(max(n - 3, 0), n + 3))), fields)


@given(mutated_int_containers())
@settings(max_examples=300, deadline=None)
def test_accepted_containers_reencode_byte_for_byte(data):
    # the decoder accepts only what the encoder writes: one container per multiset
    try:
        decoded = read_container(data, SCHEME_INTEGER, decode_multiset)
    except (FormatError, TruncatedStreamError):
        return
    assert write_container(SCHEME_INTEGER, read_header(data).n, encode_multiset(*decoded)) == data


class TestScheme:
    def test_round_trip_multiset_equality(self):
        dist = geometric(0.7)
        data, retained = simulate(dist, 5000, RandomSource.from_seed(3))
        out = desimulate(data, RandomSource.from_seed(4))
        assert out.size == 5000
        assert np.array_equal(np.sort(out), retained)

    def test_retained_multiset_is_the_sorted_draws(self):
        dist = geometric(0.7)
        _, retained = simulate(dist, 5000, RandomSource.from_seed(3))
        draws = dist.sample(RandomSource.from_seed(3).child("values"), 5000)
        assert retained.dtype == np.int64
        assert np.array_equal(retained, np.sort(draws))

    def test_header_fields(self):
        data, _ = simulate(zipf(3.0), 128, RandomSource.from_seed(9))
        header = read_header(data)
        assert header.n == 128
        assert header.payload_bits > 0

    def test_empty(self):
        data, retained = simulate(geometric(0.5), 0, RandomSource.from_seed(1))
        assert retained.size == 0
        assert desimulate(data, RandomSource.from_seed(2)).size == 0

    def test_encode_deterministic_in_seed(self):
        a, _ = simulate(geometric(0.7), 1000, RandomSource.from_seed(5))
        b, _ = simulate(geometric(0.7), 1000, RandomSource.from_seed(5))
        c, _ = simulate(geometric(0.7), 1000, RandomSource.from_seed(6))
        assert a == b
        assert a != c

    def test_decode_order_depends_on_seed_only(self):
        data, _ = simulate(geometric(0.7), 100, RandomSource.from_seed(5))
        a = desimulate(data, RandomSource.from_seed(1))
        b = desimulate(data, RandomSource.from_seed(1))
        c = desimulate(data, RandomSource.from_seed(2))
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)
        assert np.array_equal(np.sort(a), np.sort(c))

    def test_output_order_is_uniform(self):
        # three distinct values admit 6 orderings; check uniformity over seeds
        from dsim.bounds_analysis import chi_square

        data = write_container(SCHEME_INTEGER, 3, encode_multiset(*runs([1, 2, 3])))
        root = RandomSource.from_seed(1234)
        perms = {}
        counts = np.zeros(6, dtype=np.int64)
        for t in range(6000):
            out = tuple(desimulate(data, root.child(t)).tolist())
            idx = perms.setdefault(out, len(perms))
            counts[idx] += 1
        assert len(perms) == 6
        stat, ok = chi_square(counts, np.full(6, 1 / 6))
        assert ok, f"orderings not uniform: chi2={stat:.1f}"

    def test_rejects_wrong_scheme_container(self):
        from dsim.bitcodes import SCHEME_UNIT

        data = write_container(SCHEME_UNIT, 0, [])
        with pytest.raises(FormatError):
            desimulate(data, RandomSource.from_seed(1))

    def test_rejects_trailing_payload_bits(self):
        fields = np.concatenate((encode_multiset(*runs([1, 2])), [(1, 1)]))  # a stray bit after the multiset
        data = write_container(SCHEME_INTEGER, 2, fields)
        with pytest.raises(FormatError):
            desimulate(data, RandomSource.from_seed(1))
