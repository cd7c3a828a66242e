"""Field packing, the gamma tokeniser, and container framing."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dsim
from dsim.bitcodes import (
    HEADER_SIZE,
    MAX_VALUE,
    SCHEME_HALFLINE,
    SCHEME_INTEGER,
    SCHEME_UNIT,
    BitSource,
    ContainerHeader,
    FormatError,
    TruncatedStreamError,
    bit_length,
    gamma_length,
    read_container,
    read_gammas,
    read_header,
    write_container,
)
from dsim.rng import RandomSource
from oracles import BitSink, from_bitstring, gamma_decode, gamma_encode, packed, read_bits, write_fields


def read_payload(data: bytes, scheme: int) -> tuple[int, int, int]:
    """(n, payload bit count, payload bits as an int) through the framed read."""
    return read_container(data, scheme, lambda source, n: (
        n, source.bits_remaining, read_bits(source, source.bits_remaining)))


def packed_bits(fields) -> str:
    """The payload bits write_container packs of fields, as a '0'/'1' string."""
    data = write_container(SCHEME_INTEGER, 0, fields)
    body = data[HEADER_SIZE:]
    return format(int.from_bytes(body, "big"), f"0{8 * len(body)}b")[:read_header(data).payload_bits]


def gammas(values) -> np.ndarray:
    """The fields of the gamma codewords of values."""
    values = np.asarray(values, dtype=np.int64)
    return np.stack((values, gamma_length(values)), axis=-1)


def read_values(source: BitSource, count: int) -> list[int]:
    """The next count gamma values of source, through read_gammas."""
    out = []

    def consume(values):
        out.extend(values.tolist())
        if len(out) >= count:
            used = values.size - (len(out) - count)
            del out[count:]
            return used
        return None

    if count:
        read_gammas(source, consume)
    return out


# values at the edges of the bit lengths and of double precision
EDGES = [1, 2, 3, 2**32 - 1, 2**32, 2**32 + 1, 2**53 - 1, 2**53, 2**53 + 1, 2**62, MAX_VALUE - 1, MAX_VALUE]


class TestPacker:
    def test_msb_first_layout(self):
        data = write_container(SCHEME_UNIT, 1, [(0b10110, 5)])
        assert data[HEADER_SIZE:] == bytes([0b10110000])
        assert read_header(data).payload_bits == 5

    def test_cross_byte_write(self):
        data = write_container(SCHEME_UNIT, 1, [(0xABC, 12)])
        assert data[HEADER_SIZE:] == bytes([0xAB, 0xC0])
        assert read_header(data).payload_bits == 12

    @pytest.mark.parametrize("field", [(4, 2), (-1, 8), (1, 0), (0, -1), (MAX_VALUE, 62)],
                             ids=["wide", "negative", "no-width", "negative-width", "max-in-62"])
    def test_value_must_fit(self, field):
        with pytest.raises(ValueError):
            write_container(SCHEME_UNIT, 1, [(0, 3), field])

    def test_value_past_int64_rejected(self):
        with pytest.raises(ValueError):
            write_container(SCHEME_UNIT, 1, [(2**63, 64)])

    def test_single_bits(self):
        assert packed_bits([(b, 1) for b in (1, 0, 1, 1, 0, 0, 1, 0, 1)]) == "101100101"

    def test_empty_and_zero_width_fields(self):
        assert packed_bits(np.zeros((0, 2), dtype=np.int64)) == ""
        assert packed_bits([(0, 0)] * 3) == ""
        assert packed_bits([(0, 0), (1, 1), (0, 0), (0, 2), (0, 0)]) == "100"

    def test_wide_fields_hold_leading_zeros(self):
        assert packed_bits([(1, 126), (MAX_VALUE, 126)]) == "0" * 125 + "1" + "0" * 63 + "1" * 63

    def test_long_payload_matches_the_scalar_writer(self):
        # about 10**6 bits, every field crossing a word boundary at its own offset
        values = np.arange(1, 2**63 - 2**46, 2**63 // 15625, dtype=np.int64)
        fields = np.stack((values, np.full(values.size, 64)), axis=-1)
        fields = np.concatenate(([(3, 3)], fields, [(0b10110, 5)]))
        data = write_container(SCHEME_UNIT, 1, fields)
        sink = write_fields(fields)
        assert read_header(data).payload_bits == sink.bit_length == 3 + 64 * values.size + 5
        assert data[HEADER_SIZE:] == sink.to_bytes()

    def test_runs_of_fields_meet_inside_words(self):
        # the packer takes 2**16 fields at a time; these of random widths
        # end their runs in the middle of a word
        gen = np.random.default_rng(5)
        values = gen.integers(0, MAX_VALUE, 3 * 2**16 + 77) >> gen.integers(0, 63, 3 * 2**16 + 77)
        fields = np.stack((values, bit_length(values) + gen.integers(0, 3, values.size)), axis=-1)
        data = write_container(SCHEME_UNIT, 1, fields)
        assert data[HEADER_SIZE:] == write_fields(fields).to_bytes()
        assert read_header(data).payload_bits == fields[:, 1].sum()

    @given(st.lists(st.tuples(st.one_of(st.sampled_from([0] + EDGES), st.integers(0, MAX_VALUE)),
                              st.integers(0, 126)), max_size=40))
    @settings(max_examples=300, deadline=None)
    def test_fields_match_the_scalar_writer(self, rows):
        # each value in a width from its own bit length up to 126
        fields = [(v, min(v.bit_length() + w, 126)) for v, w in rows]
        data = write_container(SCHEME_HALFLINE, len(fields), fields)
        sink = write_fields(fields)
        assert read_header(data).payload_bits == sink.bit_length
        assert data[HEADER_SIZE:] == sink.to_bytes()


class TestBitSource:
    def test_read_back(self):
        src = packed([(0b1011001011, 10)])
        assert read_bits(src, 3) == 0b101
        assert read_bits(src, 1) == 1
        assert read_bits(src, 6) == 0b001011
        assert src.bits_remaining == 0

    def test_limit_enforced(self):
        src = BitSource(b"\xff", bit_length=3)
        assert read_bits(src, 3) == 0b111
        with pytest.raises(TruncatedStreamError):
            read_bits(src, 1)

    def test_padding_not_served(self):
        # only 2 bits declared; the other 6 in the byte are out of bounds
        src = BitSource(b"\xc0", bit_length=2)
        assert read_bits(src, 2) == 0b11
        assert src.bits_remaining == 0
        with pytest.raises(TruncatedStreamError):
            read_values(src, 1)

    def test_offset_window(self):
        src = BitSource(b"\x0f\xf0", bit_length=8, bit_offset=4)
        assert read_bits(src, 8) == 0xFF

    def test_bad_window(self):
        with pytest.raises(ValueError):
            BitSource(b"\x00", bit_length=9)

    def test_from_bitstring(self):
        src = from_bitstring("0110")
        assert read_bits(src, 4) == 0b0110


class TestGammaCode:
    def test_known_codewords(self):
        assert packed_bits(gammas([1])) == "1"
        assert packed_bits(gammas([2])) == "010"
        assert packed_bits(gammas([4])) == "00100"
        assert packed_bits(gammas([5])) == "00101"
        assert packed_bits(gammas([10])) == "0001010"

    def test_known_lengths(self):
        assert gamma_length(1) == 1
        assert gamma_length(2) == 3
        assert gamma_length(99) == 13
        assert gamma_length(2055) == 23
        assert gamma_length(7039) == 25

    def test_lengths_of_arrays_are_exact(self):
        # a double rounds 2**63 - 2 up to 2**63, so a float log would be one bit long
        assert gamma_length(np.array(EDGES)).tolist() == [2 * v.bit_length() - 1 for v in EDGES]
        assert bit_length(np.array([0] + EDGES)).tolist() == [v.bit_length() for v in [0] + EDGES]
        values = np.random.default_rng(1).integers(1, MAX_VALUE, 10**4) >> np.arange(10**4) % 63
        assert gamma_length(values + 1).tolist() == [2 * int(v + 1).bit_length() - 1 for v in values]
        assert isinstance(gamma_length(5), int) and gamma_length(np.array(5)) == 5

    def test_decode_known(self):
        assert read_values(from_bitstring("0001010"), 1) == [10]
        assert read_values(from_bitstring("1"), 1) == [1]

    def test_round_trip_exhaustive_16bit(self):
        values = list(range(1, 2**16 + 1))
        src = packed(gammas(values))
        assert read_values(src, len(values)) == values
        assert src.bits_remaining == 0

    def test_length_matches_encoding(self):
        for z in [1, 2, 3, 7, 8, 255, 256, 2**40 - 1, 2**40, MAX_VALUE]:
            assert len(packed_bits(gammas([z]))) == gamma_length(z)

    def test_extreme_value(self):
        src = packed(gammas([MAX_VALUE]))
        assert src.bits_remaining == 125
        assert read_values(src, 1) == [MAX_VALUE]

    def test_domain(self):
        for bad in (0, -1, MAX_VALUE + 1, 2**64):
            with pytest.raises(ValueError):
                gamma_length(bad)
            with pytest.raises(ValueError):
                gamma_length(np.array([5, bad], dtype=object))
        with pytest.raises(ValueError):
            gamma_length(np.array([1, 2**63], dtype=np.uint64))  # wraps negative in int64

    def test_truncated_codeword(self):
        with pytest.raises(TruncatedStreamError):
            read_values(from_bitstring("0001"), 1)

    def test_corrupt_prefix(self):
        with pytest.raises(FormatError):
            read_values(BitSource(b"\x00" * 10, 80), 1)

    @given(st.lists(st.one_of(st.integers(1, 2**16), st.sampled_from(EDGES)), min_size=1, max_size=50))
    @settings(max_examples=200)
    def test_prefix_free_concatenation(self, values):
        src = packed(gammas(values))
        assert read_values(src, len(values)) == values
        assert src.bits_remaining == 0

    @given(st.lists(st.one_of(st.integers(1, 2**16), st.sampled_from(EDGES)), max_size=50))
    @settings(max_examples=200)
    def test_codewords_match_the_scalar_gamma_code(self, values):
        sink = BitSink()
        for z in values:
            gamma_encode(z, sink)
        assert write_container(SCHEME_UNIT, 1, gammas(values))[HEADER_SIZE:] == sink.to_bytes()
        src = packed(gammas(values))
        assert [gamma_decode(src) for _ in values] == values


class TestContainer:
    def test_header_layout(self):
        data = write_container(SCHEME_INTEGER, 0, [])
        assert len(data) == HEADER_SIZE == 22
        assert data[:4] == b"DSIM"
        assert data[4] == 1
        assert data[5] == SCHEME_INTEGER
        assert data[6:14] == (0).to_bytes(8, "little")
        assert data[14:22] == (0).to_bytes(8, "little")

    def test_round_trip(self):
        fields = [(0b101101, 6)]
        data = write_container(SCHEME_UNIT, 3, fields)
        assert read_header(data) == ContainerHeader(SCHEME_UNIT, 3, 6)
        assert read_payload(data, SCHEME_UNIT) == (3, 6, 0b101101)

    @given(st.integers(0, MAX_VALUE), st.binary(max_size=64), st.integers(0, 7))
    @settings(max_examples=100)
    def test_round_trip_random_payloads(self, n, body, spare):
        fields = [(byte, 8) for byte in body] + [((1 << spare) - 1, spare)]
        data = write_container(SCHEME_HALFLINE, n, fields)

        def parse(src, n):
            out = n, [read_bits(src, 8) for _ in body], read_bits(src, spare)
            assert src.bits_remaining == 0
            return out

        assert read_header(data).payload_bits == 8 * len(body) + spare
        assert read_container(data, SCHEME_HALFLINE, parse) == (n, list(body), (1 << spare) - 1)

    def test_foreign_scheme_rejected(self):
        data = write_container(SCHEME_HALFLINE, 2, [])
        with pytest.raises(FormatError, match="expected a unit container, got halfline"):
            read_payload(data, SCHEME_UNIT)
        with pytest.raises(FormatError, match="expected"):
            read_container(data, SCHEME_INTEGER, lambda source, n: pytest.fail("parsed a foreign payload"))

    @given(st.integers(0, MAX_VALUE))
    @settings(max_examples=20)
    def test_parse_receives_the_header_n(self, n):
        data = write_container(SCHEME_INTEGER, n, [])
        assert read_container(data, SCHEME_INTEGER, lambda source, got: got) == n

    def test_unread_bits_rejected(self):
        fields = [(0b10110, 5)]
        data = write_container(SCHEME_UNIT, 1, fields)
        assert read_container(data, SCHEME_UNIT, lambda source, n: read_bits(source, 5)) == 0b10110
        with pytest.raises(FormatError, match="3 unread payload bits"):
            read_container(data, SCHEME_UNIT, lambda source, n: read_bits(source, 2))
        with pytest.raises(FormatError, match="5 unread payload bits"):
            read_container(data, SCHEME_UNIT, lambda source, n: None)

    # 6 MiB of set bits where an n = 1 payload ends after a few; a payload
    # held as a '0'/'1' string peaked at 108 MiB before the first codeword.
    # An int read tokenises a few short windows, a half-line read one
    # GAMMA_WINDOW of triples.
    @pytest.mark.parametrize("scheme, mib", [(SCHEME_INTEGER, 1), (SCHEME_HALFLINE, 16)], ids=["int", "halfline"])
    def test_junk_payload_memory(self, scheme, mib):
        data = write_container(scheme, 1, np.tile([MAX_VALUE, 63], (6 * 2**23 // 63 + 1, 1)))
        tracemalloc.start()
        try:
            with pytest.raises(FormatError, match="unread payload bits"):
                dsim.desimulate_any(data, RandomSource.from_seed(2))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < mib * 2**20

    def test_bad_magic(self):
        data = write_container(SCHEME_INTEGER, 1, [])
        with pytest.raises(FormatError, match="magic"):
            read_payload(b"XSIM" + data[4:], SCHEME_INTEGER)

    def test_bad_version(self):
        data = bytearray(write_container(SCHEME_INTEGER, 1, []))
        data[4] = 99
        with pytest.raises(FormatError, match="version"):
            read_payload(bytes(data), SCHEME_INTEGER)

    def test_bad_scheme(self):
        data = bytearray(write_container(SCHEME_INTEGER, 1, []))
        data[5] = 0x77
        with pytest.raises(FormatError, match="scheme"):
            read_payload(bytes(data), SCHEME_INTEGER)
        with pytest.raises(ValueError):
            write_container(0x77, 1, [])

    def test_truncated_file(self):
        fields = [(0xFFFF, 16)]
        data = write_container(SCHEME_INTEGER, 1, fields)
        with pytest.raises(FormatError):
            read_payload(data[:10], SCHEME_INTEGER)
        with pytest.raises(FormatError):
            read_payload(data[:-1], SCHEME_INTEGER)

    def test_trailing_garbage_rejected(self):
        data = write_container(SCHEME_INTEGER, 1, [])
        with pytest.raises(FormatError):
            read_payload(data + b"\x00", SCHEME_INTEGER)

    def test_nonzero_padding_rejected(self):
        fields = [(0b1, 1)]
        for bit in (0x01, 0x40):  # the lowest and the highest of 7 padding bits
            data = bytearray(write_container(SCHEME_INTEGER, 1, fields))
            data[-1] |= bit
            with pytest.raises(FormatError, match="padding"):
                read_payload(bytes(data), SCHEME_INTEGER)

    def test_read_header_checks_what_read_container_checks(self):
        fields = [(0b1, 1)]
        data = write_container(SCHEME_UNIT, 3, fields)
        assert read_header(data) == ContainerHeader(SCHEME_UNIT, 3, 1)
        assert read_payload(data, SCHEME_UNIT) == (3, 1, 1)
        malformed = [data[:10], b"XSIM" + data[4:], data[:4] + b"\x63" + data[5:], data[:5] + b"\x77" + data[6:],
                     data[:-1], data + b"\x00", data[:-1] + bytes([data[-1] | 1])]
        for bad in malformed:
            with pytest.raises(FormatError):
                read_header(bad)
            with pytest.raises(FormatError):
                read_payload(bad, SCHEME_UNIT)

    def test_n_out_of_range(self):
        with pytest.raises(ValueError):
            write_container(SCHEME_INTEGER, -1, [])
        with pytest.raises(ValueError):
            write_container(SCHEME_INTEGER, 2**64, [])

    def test_header_admits_n_up_to_max_value(self):
        data = write_container(SCHEME_UNIT, MAX_VALUE, [])
        assert read_header(data).n == MAX_VALUE
        assert read_container(data, SCHEME_UNIT, lambda source, n: n) == MAX_VALUE

    @pytest.mark.parametrize("n", [MAX_VALUE + 1, 2**64 - 1])
    def test_header_rejects_n_past_max_value_before_the_payload(self, n):
        # the u64 field holds n, which the writer frames and the reader rejects
        data = write_container(SCHEME_UNIT, n, [])
        with pytest.raises(FormatError, match=r"2\*\*63 - 1"):
            read_header(data)
        with pytest.raises(FormatError):
            read_container(data, SCHEME_UNIT, lambda source, n: pytest.fail("parsed the payload"))
