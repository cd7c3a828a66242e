"""Compression of i.i.d. samples into short, decodable bitstreams.

Three schemes share a container format: 'int' losslessly encodes a multiset
of positive integers through sorted differences; 'unit' encodes laws with a
non-increasing density on [0, 1] through occupied dyadic rectangles of the
density's hypograph; 'halfline' composes the two for non-increasing
densities on [0, inf).  Decoders regenerate n i.i.d. samples (exactly the
encoded multiset, in fresh order, for 'int') from the bitstream alone.

simulate_any and desimulate_any pick the codec from the law's support and
the container's scheme byte; every other name lives in its module
(bitcodes, distributions, integer_codec, dyadic_codec, halfline_codec,
rng).  Only the analysis tools in bounds_analysis (closed-form
expected-length ceilings, exact expected-length enumeration, statistical
verification of the decoded law) need scipy, so importing the package,
encoding and decoding load no scipy module.
"""

import numpy as np

from . import dyadic_codec, halfline_codec, integer_codec
from .bitcodes import SCHEME_NAMES, read_header
from .rng import RandomSource

__version__ = "0.1.0"

_CODECS = {"int": integer_codec, "unit": dyadic_codec, "halfline": halfline_codec}


def simulate_any(dist, n: int, rng: RandomSource) -> bytes:
    """Encode with the codec of the law's support."""
    support = getattr(dist, "support", None)
    if support not in _CODECS:
        raise ValueError(f"{dist!r} has no support among {', '.join(_CODECS)}")
    data = _CODECS[support].simulate(dist, n, rng)
    return data[0] if support == "int" else data


def desimulate_any(data: bytes, rng: RandomSource) -> np.ndarray:
    """Decode with the codec that the container's scheme byte names; only the
    header is read here, the codec parses the payload."""
    return _CODECS[SCHEME_NAMES[read_header(data).scheme]].desimulate(data, rng)
