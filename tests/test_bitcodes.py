"""Bit streams, gamma codes, and container framing."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dsim.bitcodes import (
    HEADER_SIZE,
    MAX_VALUE,
    SCHEME_HALFLINE,
    SCHEME_INTEGER,
    SCHEME_UNIT,
    BitSink,
    BitSource,
    ContainerHeader,
    FormatError,
    TruncatedStreamError,
    gamma_decode,
    gamma_encode,
    gamma_length,
    read_container,
    read_header,
    write_container,
)
from oracles import from_bitstring, to_bitstring


def read_payload(data: bytes, scheme: int) -> tuple[int, int, int]:
    """(n, payload bit count, payload bits as an int) through the framed read."""
    return read_container(data, scheme, lambda source, n: (
        n, source.bits_remaining, source.read_bits(source.bits_remaining)))


def encode_to_bitstring(z: int) -> str:
    sink = BitSink()
    gamma_encode(z, sink)
    return to_bitstring(sink)


class TestBitSink:
    def test_msb_first_layout(self):
        sink = BitSink()
        sink.write_bits(0b10110, 5)
        assert to_bitstring(sink) == "10110"
        assert sink.to_bytes() == bytes([0b10110000])
        assert sink.bit_length == 5

    def test_cross_byte_write(self):
        sink = BitSink()
        sink.write_bits(0xABC, 12)
        assert sink.to_bytes() == bytes([0xAB, 0xC0])
        assert sink.bit_length == 12

    def test_value_must_fit(self):
        sink = BitSink()
        with pytest.raises(ValueError):
            sink.write_bits(4, 2)
        with pytest.raises(ValueError):
            sink.write_bits(-1, 8)

    def test_single_bits(self):
        sink = BitSink()
        for b in (1, 0, 1, 1, 0, 0, 1, 0, 1):
            sink.write_bit(b)
        assert to_bitstring(sink) == "101100101"
        assert sink.to_bytes() == bytes([0b10110010, 0b10000000])

    def test_wide_write_matches_narrow_writes(self):
        # one write of about 10**6 bits, as a helper that frames a whole payload makes
        bits = "".join(format(v, "064b") for v in range(1, 2**64, 2**64 // 15625)) + "10110"
        wide, narrow = BitSink(), BitSink()
        wide.write_bits(3, 3)
        narrow.write_bits(3, 3)
        wide.write_bits(int(bits, 2), len(bits))
        for i in range(0, len(bits), 64):
            narrow.write_bits(int(bits[i:i + 64], 2), len(bits[i:i + 64]))
        assert wide.bit_length == narrow.bit_length == 3 + len(bits)
        assert wide.to_bytes() == narrow.to_bytes()


class TestBitSource:
    def test_read_back(self):
        sink = BitSink()
        sink.write_bits(0b1011001011, 10)
        src = BitSource(sink.to_bytes(), sink.bit_length)
        assert src.read_bits(3) == 0b101
        assert src.read_bit() == 1
        assert src.read_bits(6) == 0b001011
        assert src.bits_remaining == 0

    def test_limit_enforced(self):
        src = BitSource(b"\xff", bit_length=3)
        assert src.read_bits(3) == 0b111
        with pytest.raises(TruncatedStreamError):
            src.read_bit()

    def test_padding_not_served(self):
        # only 2 bits declared; the other 6 in the byte are out of bounds
        src = BitSource(b"\xc0", bit_length=2)
        assert src.read_bits(2) == 0b11
        with pytest.raises(TruncatedStreamError):
            src.read_bits(1)

    def test_offset_window(self):
        src = BitSource(b"\x0f\xf0", bit_length=8, bit_offset=4)
        assert src.read_bits(8) == 0xFF

    def test_bad_window(self):
        with pytest.raises(ValueError):
            BitSource(b"\x00", bit_length=9)

    def test_from_bitstring(self):
        src = from_bitstring("0110")
        assert src.read_bits(4) == 0b0110


class TestGammaCode:
    def test_known_codewords(self):
        assert encode_to_bitstring(1) == "1"
        assert encode_to_bitstring(2) == "010"
        assert encode_to_bitstring(4) == "00100"
        assert encode_to_bitstring(5) == "00101"
        assert encode_to_bitstring(10) == "0001010"

    def test_known_lengths(self):
        assert gamma_length(1) == 1
        assert gamma_length(2) == 3
        assert gamma_length(99) == 13
        assert gamma_length(2055) == 23
        assert gamma_length(7039) == 25

    def test_decode_known(self):
        assert gamma_decode(from_bitstring("0001010")) == 10
        assert gamma_decode(from_bitstring("1")) == 1

    def test_round_trip_exhaustive_16bit(self):
        sink = BitSink()
        for z in range(1, 2**16 + 1):
            gamma_encode(z, sink)
        src = BitSource(sink.to_bytes(), sink.bit_length)
        for z in range(1, 2**16 + 1):
            assert gamma_decode(src) == z
        assert src.bits_remaining == 0

    def test_length_matches_encoding(self):
        for z in [1, 2, 3, 7, 8, 255, 256, 2**40 - 1, 2**40, MAX_VALUE]:
            sink = BitSink()
            gamma_encode(z, sink)
            assert sink.bit_length == gamma_length(z)

    def test_extreme_value(self):
        sink = BitSink()
        gamma_encode(MAX_VALUE, sink)
        assert sink.bit_length == 125
        src = BitSource(sink.to_bytes(), sink.bit_length)
        assert gamma_decode(src) == MAX_VALUE

    def test_domain(self):
        for bad in (0, -1, MAX_VALUE + 1):
            with pytest.raises(ValueError):
                gamma_length(bad)
            with pytest.raises(ValueError):
                gamma_encode(bad, BitSink())

    def test_truncated_codeword(self):
        with pytest.raises(TruncatedStreamError):
            gamma_decode(from_bitstring("0001"))

    def test_corrupt_prefix(self):
        with pytest.raises(FormatError):
            gamma_decode(BitSource(b"\x00" * 10, 80))

    @given(st.lists(st.integers(1, 2**16), min_size=1, max_size=50))
    @settings(max_examples=200)
    def test_prefix_free_concatenation(self, values):
        sink = BitSink()
        for z in values:
            gamma_encode(z, sink)
        src = BitSource(sink.to_bytes(), sink.bit_length)
        assert [gamma_decode(src) for _ in values] == values
        assert src.bits_remaining == 0


class TestContainer:
    def test_header_layout(self):
        sink = BitSink()
        data = write_container(SCHEME_INTEGER, 0, sink)
        assert len(data) == HEADER_SIZE == 22
        assert data[:4] == b"DSIM"
        assert data[4] == 1
        assert data[5] == SCHEME_INTEGER
        assert data[6:14] == (0).to_bytes(8, "little")
        assert data[14:22] == (0).to_bytes(8, "little")

    def test_round_trip(self):
        sink = BitSink()
        sink.write_bits(0b101101, 6)
        data = write_container(SCHEME_UNIT, 3, sink)
        assert read_header(data) == ContainerHeader(SCHEME_UNIT, 3, 6)
        assert read_payload(data, SCHEME_UNIT) == (3, 6, 0b101101)

    @given(st.integers(0, MAX_VALUE), st.binary(max_size=64), st.integers(0, 7))
    @settings(max_examples=100)
    def test_round_trip_random_payloads(self, n, body, spare):
        sink = BitSink()
        for byte in body:
            sink.write_bits(byte, 8)
        if spare:
            sink.write_bits((1 << spare) - 1, spare)
        data = write_container(SCHEME_HALFLINE, n, sink)

        def parse(src, n):
            out = n, [src.read_bits(8) for _ in body], src.read_bits(spare)
            assert src.bits_remaining == 0
            return out

        assert read_header(data).payload_bits == 8 * len(body) + spare
        assert read_container(data, SCHEME_HALFLINE, parse) == (n, list(body), (1 << spare) - 1)

    def test_foreign_scheme_rejected(self):
        data = write_container(SCHEME_HALFLINE, 2, BitSink())
        with pytest.raises(FormatError, match="expected a unit container, got halfline"):
            read_payload(data, SCHEME_UNIT)
        with pytest.raises(FormatError, match="expected"):
            read_container(data, SCHEME_INTEGER, lambda source, n: pytest.fail("parsed a foreign payload"))

    @given(st.integers(0, MAX_VALUE))
    @settings(max_examples=20)
    def test_parse_receives_the_header_n(self, n):
        data = write_container(SCHEME_INTEGER, n, BitSink())
        assert read_container(data, SCHEME_INTEGER, lambda source, got: got) == n

    def test_unread_bits_rejected(self):
        sink = BitSink()
        sink.write_bits(0b10110, 5)
        data = write_container(SCHEME_UNIT, 1, sink)
        assert read_container(data, SCHEME_UNIT, lambda source, n: source.read_bits(5)) == 0b10110
        with pytest.raises(FormatError, match="3 unread payload bits"):
            read_container(data, SCHEME_UNIT, lambda source, n: source.read_bits(2))
        with pytest.raises(FormatError, match="5 unread payload bits"):
            read_container(data, SCHEME_UNIT, lambda source, n: None)

    def test_bad_magic(self):
        data = write_container(SCHEME_INTEGER, 1, BitSink())
        with pytest.raises(FormatError, match="magic"):
            read_payload(b"XSIM" + data[4:], SCHEME_INTEGER)

    def test_bad_version(self):
        data = bytearray(write_container(SCHEME_INTEGER, 1, BitSink()))
        data[4] = 99
        with pytest.raises(FormatError, match="version"):
            read_payload(bytes(data), SCHEME_INTEGER)

    def test_bad_scheme(self):
        data = bytearray(write_container(SCHEME_INTEGER, 1, BitSink()))
        data[5] = 0x77
        with pytest.raises(FormatError, match="scheme"):
            read_payload(bytes(data), SCHEME_INTEGER)
        with pytest.raises(ValueError):
            write_container(0x77, 1, BitSink())

    def test_truncated_file(self):
        sink = BitSink()
        sink.write_bits(0xFFFF, 16)
        data = write_container(SCHEME_INTEGER, 1, sink)
        with pytest.raises(FormatError):
            read_payload(data[:10], SCHEME_INTEGER)
        with pytest.raises(FormatError):
            read_payload(data[:-1], SCHEME_INTEGER)

    def test_trailing_garbage_rejected(self):
        data = write_container(SCHEME_INTEGER, 1, BitSink())
        with pytest.raises(FormatError):
            read_payload(data + b"\x00", SCHEME_INTEGER)

    def test_nonzero_padding_rejected(self):
        sink = BitSink()
        sink.write_bits(0b1, 1)
        for bit in (0x01, 0x40):  # the lowest and the highest of 7 padding bits
            data = bytearray(write_container(SCHEME_INTEGER, 1, sink))
            data[-1] |= bit
            with pytest.raises(FormatError, match="padding"):
                read_payload(bytes(data), SCHEME_INTEGER)

    def test_read_header_checks_what_read_container_checks(self):
        sink = BitSink()
        sink.write_bits(0b1, 1)
        data = write_container(SCHEME_UNIT, 3, sink)
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
            write_container(SCHEME_INTEGER, -1, BitSink())
        with pytest.raises(ValueError):
            write_container(SCHEME_INTEGER, 2**64, BitSink())

    def test_header_admits_n_up_to_max_value(self):
        data = write_container(SCHEME_UNIT, MAX_VALUE, BitSink())
        assert read_header(data).n == MAX_VALUE
        assert read_container(data, SCHEME_UNIT, lambda source, n: n) == MAX_VALUE

    @pytest.mark.parametrize("n", [MAX_VALUE + 1, 2**64 - 1])
    def test_header_rejects_n_past_max_value_before_the_payload(self, n):
        # the u64 field holds n, which the writer frames and the reader rejects
        data = write_container(SCHEME_UNIT, n, BitSink())
        with pytest.raises(FormatError, match=r"2\*\*63 - 1"):
            read_header(data)
        with pytest.raises(FormatError):
            read_container(data, SCHEME_UNIT, lambda source, n: pytest.fail("parsed the payload"))
