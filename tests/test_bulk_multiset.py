"""The bulk multiset reader against the codeword-at-a-time reference in oracles."""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dsim import bitcodes
from dsim.bitcodes import GAMMA_WINDOW, MAX_VALUE, FormatError, TruncatedStreamError
from dsim.integer_codec import decode_multiset, encode_multiset
import oracles
from oracles import from_bitstring, to_bitstring


def gamma(v: int) -> str:
    return "0" * (v.bit_length() - 1) + format(v, "b")


def read(reader, bits: str, n: int):
    """The runs a bit string decodes to and the bits left after them, or the
    class of what the read raised."""
    source = from_bitstring(bits)
    try:
        values, counts = reader(source, n)
    except (FormatError, TruncatedStreamError) as e:
        return type(e)
    assert values.dtype == counts.dtype == np.int64
    return values.tolist(), counts.tolist(), source.bits_remaining


@st.composite
def multiset_streams(draw):
    """Runs of small, wide and extreme values and counts, their bits flipped,
    cut or followed by junk, read with an n near theirs or any n through a
    narrow window."""
    values = sorted(draw(st.sets(st.one_of(st.integers(1, 2**20), st.integers(1, MAX_VALUE),
                                           st.integers(MAX_VALUE - 3, MAX_VALUE)), max_size=30)))
    counts = [draw(st.one_of(st.integers(1, 3), st.integers(1, 2**40))) for _ in values]
    if counts and draw(st.booleans()):
        counts[draw(st.integers(0, len(counts) - 1))] = draw(st.integers(1, 2**62))
    bits = list(to_bitstring(encode_multiset(values, counts)))
    for i in draw(st.lists(st.integers(0, len(bits) - 1), max_size=4)) if bits else ():
        bits[i] = "10"[int(bits[i])]
    if draw(st.booleans()):
        bits = bits[:draw(st.integers(0, len(bits)))]
    junk = draw(st.text("01", max_size=20))
    n = draw(st.one_of(st.just(sum(counts)), st.integers(max(sum(counts) - 2, 0), sum(counts) + 2),
                       st.integers(0, MAX_VALUE)))
    # the longest token, a codeword of 125 bits and its flag, fits every window
    return "".join(bits) + junk, n, draw(st.integers(126, 400))


@given(multiset_streams())
@settings(max_examples=400, deadline=None)
def test_runs_end_and_faults_match_the_scalar_reader(case):
    bits, n, window = case
    with mock.patch.object(bitcodes, "GAMMA_WINDOW", window):
        assert read(decode_multiset, bits, n) == read(oracles.decode_multiset, bits, n)


@pytest.mark.parametrize("bits, n, error", [
    ("", 1, TruncatedStreamError),
    ("0" * 63 + "1" + "0" * 63, 1, FormatError),  # 63 zeros, whatever follows
    ("0" * 62, 1, TruncatedStreamError),  # fewer than 63 bits left
    ("1", 2, TruncatedStreamError),  # no flag after the first value
    ("10", 3, TruncatedStreamError),  # a zero run's length cut short
    ("11" + "0" * 63, 2, FormatError),  # the next difference's prefix
    ("1" + "0011", 2, FormatError),  # a zero run of 3 overshoots n = 2
    ("1" + "01" + "01", 5, FormatError),  # a zero run after a zero run
    ("1" + "01" + "0", 5, FormatError),  # met at its flag, before its codeword
    ("1" + "01" + "0" + "0" * 63, 5, FormatError),
    (gamma(2**62) + "1" + gamma(2**62), 2, FormatError),  # the value reaches 2**63
    (gamma(MAX_VALUE) + "1" + gamma(MAX_VALUE) + "1" + gamma(MAX_VALUE), 3, FormatError),  # past 2**64 in all
], ids=["empty", "63-zeros", "62-zeros", "no-flag", "short-run", "next-prefix", "overshoot", "zero-after-zero",
        "zero-flag-then-end", "zero-flag-then-zeros", "value-2**63", "value-past-2**64"])
def test_faults_raise_what_the_scalar_reader_meets_first(bits, n, error):
    for reader in (decode_multiset, oracles.decode_multiset):
        with pytest.raises(error):
            reader(from_bitstring(bits), n)


def test_a_zero_run_that_reaches_n_reads_no_flag():
    # gamma(1) "0" gamma(2): n = 3 is reached, and the 0 after is the next field's
    for reader in (decode_multiset, oracles.decode_multiset):
        assert read(reader, "1" + "0010" + "0", 3) == ([1], [3], 1)


def test_runs_across_window_edges():
    values = np.cumsum(np.arange(1, 3 * GAMMA_WINDOW // 20, dtype=np.int64) ** 2)
    counts = 1 + np.arange(values.size) % 3
    bits = to_bitstring(encode_multiset(values, counts))
    assert len(bits) > 2 * GAMMA_WINDOW
    source = from_bitstring(bits + "01")
    got = decode_multiset(source, int(counts.sum()))
    assert got[0].tolist() == values.tolist() and got[1].tolist() == counts.tolist()
    assert source.bits_remaining == 2
    for reader in (decode_multiset, oracles.decode_multiset):
        with pytest.raises(TruncatedStreamError):
            reader(from_bitstring(bits[:-1]), int(counts.sum()))
