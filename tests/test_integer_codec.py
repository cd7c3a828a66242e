"""Multiset codec and the integer sampling scheme."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dsim.bitcodes import (
    MAX_VALUE,
    BitSink,
    BitSource,
    FormatError,
    TruncatedStreamError,
    read_container,
)
from dsim.distributions import geometric, zipf
from dsim.integer_codec import decode_multiset, desimulate, encode_multiset, simulate
from dsim.rng import RandomSource


def encode_to_bitstring(values) -> str:
    return encode_multiset(values).to_bitstring()


def decode_bitstring(s: str, n: int) -> list[int]:
    return np.repeat(*decode_multiset(BitSource.from_bitstring(s), n)).tolist()


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
        values, counts = decode_multiset(BitSource.from_bitstring("010011011"), 3)
        assert values.tolist() == [2, 5] and counts.tolist() == [2, 1]
        assert values.dtype == counts.dtype == np.int64

    def test_order_does_not_matter(self):
        a = encode_to_bitstring([9, 1, 4, 4, 2])
        b = encode_to_bitstring([4, 4, 9, 2, 1])
        assert a == b

    def test_point_mass_payload(self):
        # one hundred copies of 1: gamma(1) + "0" + gamma(99) = 1 + 1 + 13
        sink = encode_multiset([1] * 100)
        assert sink.bit_length == 15


class TestTableOfCounts:
    FREQS = [7040, 2056, 641, 184, 53, 13, 9, 3, 1]

    def test_constructed_length(self):
        values = np.repeat(np.arange(1, 10), self.FREQS)
        assert encode_multiset(values).bit_length == 135

    def test_round_trip(self):
        values = np.repeat(np.arange(1, 10), self.FREQS)
        sink = encode_multiset(values)
        src = BitSource(sink.to_bytes(), sink.bit_length)
        assert np.array_equal(np.repeat(*decode_multiset(src, values.size)), np.sort(values))
        assert src.bits_remaining == 0


class TestRoundTrip:
    @given(st.lists(st.integers(1, 10**6), min_size=1, max_size=300))
    @settings(max_examples=200, deadline=None)
    def test_arbitrary_multisets(self, values):
        sink = encode_multiset(values)
        src = BitSource(sink.to_bytes(), sink.bit_length)
        assert np.repeat(*decode_multiset(src, len(values))).tolist() == sorted(values)
        assert src.bits_remaining == 0

    @given(st.lists(st.integers(MAX_VALUE - 3, MAX_VALUE), min_size=1, max_size=8))
    @settings(max_examples=50)
    def test_extreme_values(self, values):
        sink = encode_multiset(values)
        src = BitSource(sink.to_bytes(), sink.bit_length)
        assert np.repeat(*decode_multiset(src, len(values))).tolist() == sorted(values)

    def test_streams_compose(self):
        sink = encode_multiset([4, 4, 7])
        encode_multiset([1, 100], sink)
        src = BitSource(sink.to_bytes(), sink.bit_length)
        assert np.repeat(*decode_multiset(src, 3)).tolist() == [4, 4, 7]
        assert np.repeat(*decode_multiset(src, 2)).tolist() == [1, 100]
        assert src.bits_remaining == 0


class TestValidation:
    def test_empty_multiset_has_the_empty_codeword(self):
        assert encode_multiset([]).bit_length == 0
        with pytest.raises(ValueError):
            encode_multiset([[1, 2]])

    def test_nonpositive_rejected(self):
        with pytest.raises(ValueError):
            encode_multiset([3, 0])
        with pytest.raises(ValueError):
            encode_multiset([-2])

    def test_too_large_rejected(self):
        with pytest.raises((ValueError, OverflowError)):
            encode_multiset([MAX_VALUE + 1])

    def test_decode_of_zero_values_reads_no_bit(self):
        src = BitSource.from_bitstring("1")
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


class TestScheme:
    def test_round_trip_multiset_equality(self):
        dist = geometric(0.7)
        data, retained = simulate(dist, 5000, RandomSource.from_seed(3))
        out = desimulate(data, RandomSource.from_seed(4))
        assert out.size == 5000
        assert np.array_equal(np.sort(out), retained)

    def test_header_fields(self):
        data, _ = simulate(zipf(3.0), 128, RandomSource.from_seed(9))
        header = read_container(data)[0]
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

        sink = encode_multiset([1, 2, 3])
        from dsim.bitcodes import SCHEME_INTEGER, write_container

        data = write_container(SCHEME_INTEGER, 3, sink)
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
        from dsim.bitcodes import SCHEME_UNIT, write_container

        data = write_container(SCHEME_UNIT, 0, BitSink())
        with pytest.raises(FormatError):
            desimulate(data, RandomSource.from_seed(1))

    def test_rejects_trailing_payload_bits(self):
        sink = encode_multiset([1, 2])
        sink.write_bit(1)  # stray bit after the complete multiset
        from dsim.bitcodes import SCHEME_INTEGER, write_container

        data = write_container(SCHEME_INTEGER, 2, sink)
        with pytest.raises(FormatError):
            desimulate(data, RandomSource.from_seed(1))
