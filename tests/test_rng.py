"""Seeding of RandomSource and its substreams."""

import numpy as np
import pytest

from dsim.rng import RandomSource, _label_hash

HASHES = [_label_hash(label) for label in ("points", "order", "retry", 7, -3)]


@pytest.mark.parametrize("key", [
    (0,), (2**32 - 1,), (2**32,), (2**64 + 5,), (1, 0, 2**32 - 1), (0, *HASHES), (2**32, *HASHES[:2]),
    (2**64 + 5, HASHES[0], 0), (),
])
def test_state_is_that_of_a_seed_sequence_of_the_key(key):
    # the key's 32-bit words as a uint32 array seed what the list of ints did
    expected = np.random.Generator(np.random.PCG64(np.random.SeedSequence(list(key))))
    assert RandomSource(key).gen.bit_generator.state == expected.bit_generator.state


def test_children_seed_from_their_key():
    child = RandomSource.from_seed(2**32).child("points", 5)
    expected = np.random.PCG64(np.random.SeedSequence([2**32, _label_hash("points"), _label_hash(5)]))
    assert child.gen.bit_generator.state == expected.state


def test_negative_seed_rejected():
    with pytest.raises(ValueError):
        RandomSource.from_seed(-1)
