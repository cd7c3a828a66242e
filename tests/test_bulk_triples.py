"""The bulk triple reader against the codeword-at-a-time reference in oracles."""

import tracemalloc
from itertools import accumulate
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dsim import bitcodes, dyadic_codec, halfline_codec
from dsim.bitcodes import (
    GAMMA_WINDOW,
    HEADER_SIZE,
    MAX_VALUE,
    SCHEME_HALFLINE,
    SCHEME_UNIT,
    FormatError,
    TruncatedStreamError,
    read_container,
    read_header,
    write_container,
)
from dsim.distributions import exponential, pareto_flat, triangular
from dsim.dyadic_codec import decode_triples, write_triples
from dsim.halfline_codec import restrict_to_bin
from dsim.integer_codec import encode_multiset
from dsim.rng import RandomSource
import oracles
from oracles import bit_fields, from_bitstring


def gamma(v: int) -> str:
    return "0" * (v.bit_length() - 1) + format(v, "b")


def triple_bits(triples) -> str:
    return "".join(gamma(k + 1) + gamma(a + 1) + gamma(c) for k, a, c in triples)


def frame(scheme: int, n: int, bits: str) -> bytes:
    return write_container(scheme, n, bit_fields(bits))


def payload(data: bytes) -> str:
    bits = read_header(data).payload_bits
    return format(int.from_bytes(data[HEADER_SIZE:], "big"), f"0{8 * (len(data) - HEADER_SIZE)}b")[:bits]


def outcome(data: bytes, scheme: int, scalar: bool):
    """The rows a container's triples decode to, or the class of what the read raised."""
    if scheme == SCHEME_UNIT:
        parse = oracles.decode_triples if scalar else decode_triples
        try:
            return np.asarray(read_container(data, scheme, parse)).reshape(-1, 3).tolist()
        except Exception as e:  # any class may be compared, not only the decoders' own
            return type(e)
    reader = oracles.decode_triples if scalar else decode_triples
    with mock.patch.object(halfline_codec, "decode_triples", reader):
        try:
            uniq, counts, rows = read_container(data, scheme, halfline_codec._read_bins)
        except Exception as e:
            return type(e)
    return uniq.tolist(), counts.tolist(), np.asarray(rows).reshape(-1, 3).tolist()


# valid containers to mutate: unit ones shallow and deep, multi-bin half-line ones
CANARIES = [
    (SCHEME_UNIT, dyadic_codec.simulate(triangular(), 300, RandomSource.from_seed(1))),
    (SCHEME_UNIT, dyadic_codec.simulate(restrict_to_bin(exponential(2.0**40), 1), 200, RandomSource.from_seed(2))),
    (SCHEME_HALFLINE, halfline_codec.simulate(exponential(1.0), 300, RandomSource.from_seed(3))),
    (SCHEME_HALFLINE, halfline_codec.simulate(pareto_flat(2.0, 2.0), 200, RandomSource.from_seed(4))),
]


@st.composite
def mutated_canaries(draw):
    """A canary with bits flipped, its payload cut short, or its header's n changed."""
    scheme, data = draw(st.sampled_from(CANARIES))
    n = read_header(data).n
    bits = list(payload(data))
    for i in draw(st.lists(st.integers(0, len(bits) - 1), max_size=6)):
        bits[i] = "10"[int(bits[i])]
    if draw(st.booleans()):
        bits = bits[:draw(st.integers(0, len(bits)))]
    n = draw(st.one_of(st.just(n), st.integers(max(n - 3, 0), n + 3), st.integers(0, 2**64 - 1)))
    return scheme, frame(scheme, n, "".join(bits))


@given(mutated_canaries())
@settings(max_examples=300, deadline=None)
def test_bulk_reader_matches_the_scalar_reader(case):
    scheme, data = case
    assert outcome(data, scheme, scalar=False) == outcome(data, scheme, scalar=True)


@given(mutated_canaries())
@settings(max_examples=300, deadline=None)
def test_accepted_containers_reencode_byte_for_byte(case):
    # the decoders accept only what the encoders write: one container per
    # multiset of bins and rectangles
    scheme, data = case
    try:
        if scheme == SCHEME_UNIT:
            fields = write_triples(read_container(data, scheme, decode_triples))
        else:
            uniq, counts, rows = read_container(data, scheme, halfline_codec._read_bins)
            fields = np.concatenate((encode_multiset(uniq, counts), write_triples(rows)))
    except (FormatError, TruncatedStreamError):
        return
    assert write_container(scheme, read_header(data).n, fields) == data


@pytest.mark.parametrize("triples, n", [
    ([(2, 0, 1), (1, 0, 1), (2, 0, 1)], 3),  # R(2, 0) twice, around R(1, 0)
    ([(0, 0, 1), (0, 0, 1)], 2),
    ([(3, 1, 1), (3, 0, 1)], 2),
    ([(1, 0, 1), (0, 0, 1)], 2),
    ([(40, a, 1) for a in range(GAMMA_WINDOW // 80)] * 2, np.array([GAMMA_WINDOW // 80 - 1, GAMMA_WINDOW // 80 + 1])),
], ids=["repeat-around", "repeat-root", "offset-down", "depth-down", "across-windows"])
def test_rectangles_out_of_order_in_a_bin_rejected(triples, n):
    for reader in (decode_triples, oracles.decode_triples):
        with pytest.raises(FormatError):
            reader(from_bitstring(triple_bits(triples)), n)


def test_each_bin_starts_its_order_afresh():
    # one row per bin of R(0, 0), or of a node above the last bin's, across window edges
    triples = [(0, 0, 1)] * 500 + [(5, 3, 2), (1, 0, 1), (4, 1, 1)]
    bins = np.array([1] * 500 + [2, 2])
    with mock.patch.object(bitcodes, "GAMMA_WINDOW", 125):
        for reader in (decode_triples, oracles.decode_triples):
            assert read(reader, triple_bits(triples), bins) == ([list(t) for t in triples], 0)


def read(reader, bits: str, n):
    """The rows a bit string's triples decode to and the bits left after them,
    or the class of what the read raised."""
    source = from_bitstring(bits)
    try:
        rows = np.asarray(reader(source, n)).reshape(-1, 3).tolist()
    except (FormatError, TruncatedStreamError) as e:
        return type(e)
    return rows, source.bits_remaining


@st.composite
def triple_streams(draw):
    """Triples deep and shallow, some offsets out of range, in order or not,
    counts small or up to 2**63 - 1, bits flipped or cut, read with a total or
    with bin totals near theirs, through a narrow window."""
    counts = st.one_of(st.integers(1, 2**20), st.integers(1, MAX_VALUE))
    triples = draw(st.lists(st.tuples(st.integers(0, 64), st.integers(0, 2**62), counts), max_size=30))
    triples = [(k, a if draw(st.booleans()) else a % (1 << max(k - 1, 0)), c) for k, a, c in triples]
    if draw(st.booleans()):  # in heap node order, as a writer puts each bin's rectangles
        triples.sort(key=lambda t: (1 << t[0] >> 1) + t[1])
    bits = list(triple_bits(triples))
    for i in draw(st.lists(st.integers(0, len(bits) - 1), max_size=4)) if bits else ():
        bits[i] = "10"[int(bits[i])]
    if draw(st.booleans()):
        bits = bits[:draw(st.integers(0, len(bits)))]
    counts = [c for _, _, c in triples]
    cuts = sorted(draw(st.lists(st.integers(0, len(counts)), max_size=5)))
    totals = [max(sum(counts[i:j]) + draw(st.sampled_from([0, 0, -1, 1])), 0)
              for i, j in zip([0] + cuts, cuts + [len(counts)])]
    # capped where they would sum past 2**63 - 1, the largest n a header admits
    ends = [min(end, MAX_VALUE) for end in accumulate(totals)]
    totals = [b - a for a, b in zip([0] + ends, ends)]
    n = np.array(totals) if draw(st.booleans()) else sum(totals)
    return "".join(bits), n, draw(st.integers(125, 400))


@given(triple_streams())
@settings(max_examples=300, deadline=None)
def test_windows_and_bins_match_the_scalar_reader(case):
    bits, n, window = case
    with mock.patch.object(bitcodes, "GAMMA_WINDOW", window):
        assert read(decode_triples, bits, n) == read(oracles.decode_triples, bits, n)


@pytest.mark.parametrize("scheme, data", CANARIES, ids=["unit", "unit-deep", "halfline", "halfline-pareto"])
def test_canaries_decode_to_the_scalar_rows(scheme, data):
    rows = outcome(data, scheme, scalar=False)
    assert isinstance(rows, (list, tuple)) and rows == outcome(data, scheme, scalar=True)


@pytest.mark.parametrize("k, a, ok", [
    (55, 2**54 - 2, True), (55, 2**54 - 1, False), (62, 2**61 - 2**8, True), (62, 2**61 - 1, False),
    (62, 0, True), (63, 0, False), (3, 4, False), (0, 1, False),
])
def test_offsets_at_the_boundaries(k, a, ok):
    data = frame(SCHEME_UNIT, 3, triple_bits([(k, a, 3)]))
    expected = [[k, a, 3]] if ok else FormatError
    assert outcome(data, SCHEME_UNIT, scalar=False) == expected == outcome(data, SCHEME_UNIT, scalar=True)


@pytest.mark.parametrize("bits, error", [
    ("0" * 63 + "1" + "0" * 63, FormatError),  # 63 zeros, whatever follows
    ("0" * 63, FormatError),
    ("0" * 62, TruncatedStreamError),  # fewer than 63 bits left
    ("0" * 62 + "1" + "0" * 61, TruncatedStreamError),
    ("11", TruncatedStreamError),  # R(0, 0) without its count
    ("11" + "0" * 63, FormatError),  # the count's prefix
    ("1" + "010" + "0", FormatError),  # R(0, 1) is checked before its count is read
    ("1" + "010", FormatError),
    ("11" + "010", FormatError),  # a count of 2 overshoots n = 1
])
def test_faults_raise_what_the_scalar_reader_meets_first(bits, error):
    for reader in (decode_triples, oracles.decode_triples):
        with pytest.raises(error):
            reader(from_bitstring(bits), 1)


def test_codewords_across_window_edges():
    # a deep triple's codewords cut by every window edge, the last one's count short
    triples = [(40, a, 1 + a % 5) for a in range(0, 2**39, 2**39 // ((GAMMA_WINDOW // 100) * 3 + 7))]
    n = sum(c for _, _, c in triples)
    bits = triple_bits(triples)
    assert len(bits) > 2 * GAMMA_WINDOW
    assert decode_triples(from_bitstring(bits), n).tolist() == [list(t) for t in triples]
    for reader in (decode_triples, oracles.decode_triples):
        with pytest.raises(TruncatedStreamError):
            reader(from_bitstring(bits[:-1]), n)


def test_bins_read_in_one_call_as_in_turn():
    triples = [(0, 0, 2), (1, 0, 1), (2, 1, 4), (0, 0, 3), (3, 2, 1)]
    source = from_bitstring(triple_bits(triples) + "1")
    assert decode_triples(source, np.array([3, 0, 4, 4, 0])).tolist() == [list(t) for t in triples]
    assert source.bits_remaining == 1
    for totals in ([1, 10], [3, 5, 3], [3, 4, 2]):  # a count passes a bin's total
        for reader in (decode_triples, oracles.decode_triples):
            with pytest.raises(FormatError):
                reader(from_bitstring(triple_bits(triples)), np.array(totals))


def test_zero_totals_read_no_bit():
    for n in (0, np.zeros(0, dtype=np.int64), np.zeros(3, dtype=np.int64)):
        source = from_bitstring("0" * 70)
        assert decode_triples(source, n).shape == (0, 3)
        assert source.bits_remaining == 70


def test_counts_past_int64_sums():
    # bins whose totals pass 2**62
    triples = [(0, 0, 2**61), (1, 0, 2**62), (2, 0, 3)]
    totals = np.array([2**61, 2**62 + 3])
    assert decode_triples(from_bitstring(triple_bits(triples)), totals).tolist() == [list(t) for t in triples]
    triples[0] = (0, 0, 2**61 + 1)
    for reader in (decode_triples, oracles.decode_triples):
        with pytest.raises(FormatError):
            reader(from_bitstring(triple_bits(triples)), totals)


def test_counts_near_the_largest_n():
    # counts of 2**63 - 1 after the row that reaches n, where uint64 running sums wrap
    triples = [(0, 0, MAX_VALUE - 1), (1, 0, 1), (2, 0, MAX_VALUE), (3, 0, MAX_VALUE)]
    bits = triple_bits(triples)
    rows = ([list(t) for t in triples[:2]], len(triple_bits(triples[2:])))
    assert read(decode_triples, bits, MAX_VALUE) == rows == read(oracles.decode_triples, bits, MAX_VALUE)
    for n in (MAX_VALUE, np.array([MAX_VALUE - 1, 1])):
        for reader in (decode_triples, oracles.decode_triples):
            with pytest.raises(FormatError):  # a count passes the total
                reader(from_bitstring(triple_bits([(0, 0, MAX_VALUE - 1), (1, 0, 2)])), n)


@pytest.mark.parametrize("n", [-1, MAX_VALUE + 1, 2**64, np.array([MAX_VALUE, 1]), np.array([3, -1])])
def test_n_outside_the_header_range(n):
    with pytest.raises(ValueError):
        decode_triples(from_bitstring(triple_bits([(0, 0, 1)])), n)


# tracemalloc peaks of the codeword-at-a-time reader, which kept a tuple per triple;
# R(0, 0) repeats only in bins of its own, as a bin's rectangles increase; wide
# rows (depth 40, counts past 2**40) in three times their rows' bytes, where a
# payload held as one '0'/'1' string took 13 times
@pytest.mark.parametrize("triples, bins, mib", [
    ([(20, a, 1) for a in range(2**17)], None, 18.2),
    ([(0, 0, 1)] * 2**18, np.ones(2**18, dtype=np.int64), 22.9),
    ([(40, 997 * a, 2**40 + a) for a in range(2**16)], None, 3 * 24 * 2**16 / 2**20),
], ids=["depth-20", "zeros", "wide"])
def test_parse_memory(triples, bins, mib):
    data = frame(SCHEME_UNIT, sum(count for *_, count in triples), triple_bits(triples))
    tracemalloc.start()
    try:
        rows = read_container(data, SCHEME_UNIT, lambda source, n: decode_triples(source, n if bins is None else bins))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rows.shape == (len(triples), 3) and rows[-1].tolist() == list(triples[-1])
    assert peak <= mib * 2**20
