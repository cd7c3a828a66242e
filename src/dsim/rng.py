"""Seedable random source with named substreams.

Every piece of randomness in the package flows through a RandomSource.
Substreams derived with ``child`` are statistically independent and stable
across runs, so simulate/desimulate pairs and benchmark trials can share a
single user-facing seed.
"""

from __future__ import annotations

import hashlib

import numpy as np
# numpy 2 imports numpy.random on first use; import it with the package, so
# that the first RandomSource, often inside timed code, imports nothing
import numpy.random

__all__ = ["RandomSource"]


def _label_hash(label: int | str) -> int:
    # Stable 64-bit digest; builtin hash() is salted per process.
    if isinstance(label, bool):
        raise TypeError("substream labels must be int or str")
    if isinstance(label, int):
        data = b"i" + label.to_bytes(16, "little", signed=True)
    elif isinstance(label, str):
        data = b"s" + label.encode("utf-8")
    else:
        raise TypeError("substream labels must be int or str")
    return int.from_bytes(hashlib.blake2b(data, digest_size=8).digest(), "little")


def _words(x: int) -> list[int]:
    # x's 32-bit words, least significant first: SeedSequence splits each int
    # of a list so, and is handed them as a uint32 array without its own
    # Python loop over the ints
    if x < 0:
        raise ValueError("expected non-negative integer")
    words = [x & 0xFFFFFFFF]
    while x := x >> 32:
        words.append(x & 0xFFFFFFFF)
    return words


class RandomSource:
    """A PCG64 generator keyed by a seed plus a path of substream labels."""

    __slots__ = ("_key", "gen")

    def __init__(self, key: tuple[int, ...]):
        self._key = tuple(int(k) for k in key)
        words = np.array([w for k in self._key for w in _words(k)], dtype=np.uint32)
        self.gen = np.random.Generator(np.random.PCG64(np.random.SeedSequence(words)))

    @classmethod
    def from_seed(cls, seed: int) -> "RandomSource":
        return cls((int(seed),))

    def child(self, *labels: int | str) -> "RandomSource":
        """Fresh independent source for the given label path.

        Children are derived from the parent's key, not from its state, so
        the order in which children are created does not matter.
        """
        if not labels:
            raise ValueError("child() needs at least one label")
        return RandomSource(self._key + tuple(_label_hash(l) for l in labels))

    def __repr__(self) -> str:
        return f"RandomSource(key={self._key!r})"
